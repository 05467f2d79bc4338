//! A sampling profiler for one process, preloaded with `LD_PRELOAD`.
//!
//! With `SCI_SAMPLE=<file>` in the environment, a `CLOCK_MONOTONIC`
//! POSIX timer sends the thread that loaded the library — the main
//! thread — `SIGPROF` every 100 µs. The handler walks the frame-pointer
//! chain from the interrupted registers into a buffer allocated up
//! front, so it neither allocates nor locks; each frame must lie above
//! the interrupted `rsp`, below the top of the main thread's stack and
//! within 8 MiB of `rsp`, and each must be above the last. At exit the
//! process's memory map and then the stacks are written to the file,
//! one sample a line, leaf first, in hex — what `scripts/profile.py`
//! symbolises.
//!
//! The walk sees only code built with frame pointers
//! (`RUSTFLAGS="-C force-frame-pointers=yes"`); a sample taken inside
//! code without them ends where the chain breaks. Linux x86_64 only:
//! elsewhere the library is empty. Without `SCI_SAMPLE` it does
//! nothing. A process that replaces itself (`exec`, as `taskset` does)
//! writes nothing; of the processes that exit, the one with the most
//! samples keeps the file.
//!
//! ```text
//! cargo build --release --manifest-path scripts/sampler/Cargo.toml
//! SCI_SAMPLE=/tmp/samples LD_PRELOAD=scripts/sampler/target/release/libsci_sampler.so <program>
//! ```

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::ffi::c_void;
use std::io::{BufWriter, Write};
use std::ptr::null_mut;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::OnceLock;

const INTERVAL_NS: i64 = 100_000;
const MAX_DEPTH: usize = 128;
const STACK_BOUND: u64 = 8 << 20;
/// 64 MiB of address space; only the pages samples reach are touched.
const BUFFER_WORDS: usize = 1 << 23;

// The Linux x86_64 ABI.
const SIGPROF: i32 = 27;
const SA_SIGINFO: i32 = 0x4;
const SA_RESTART: i32 = 0x1000_0000;
const CLOCK_MONOTONIC: i32 = 1;
const SIGEV_THREAD_ID: i32 = 4;
const SYS_GETTID: i64 = 186;
/// `ucontext_t`: `uc_flags`, `uc_link` and the 24-byte `uc_stack`
/// precede `uc_mcontext.gregs`.
const GREGS_OFFSET: usize = 40;
const REG_RBP: usize = 10;
const REG_RSP: usize = 15;
const REG_RIP: usize = 16;

#[repr(C)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

#[repr(C)]
struct SigEvent {
    value: usize,
    signo: i32,
    notify: i32,
    thread_id: i32,
    pad: [i32; 11],
}

#[repr(C)]
struct TimeSpec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
struct ITimerSpec {
    interval: TimeSpec,
    value: TimeSpec,
}

extern "C" {
    fn sigaction(signal: i32, action: *const SigAction, old: *mut SigAction) -> i32;
    fn timer_create(clock: i32, event: *mut SigEvent, timer: *mut *mut c_void) -> i32;
    fn timer_settime(
        timer: *mut c_void,
        flags: i32,
        new: *const ITimerSpec,
        old: *mut ITimerSpec,
    ) -> i32;
    fn timer_delete(timer: *mut c_void) -> i32;
    fn syscall(number: i64, ...) -> i64;
    fn atexit(callback: extern "C" fn()) -> i32;
}

// The handler runs on the sampled thread, between any two of its
// instructions: `SeqCst` keeps the buffer's writes ordered against the
// pointer and length that publish them.

/// Samples as `depth, frame…`, back to back; null when not sampling.
static BUFFER: AtomicPtr<u64> = AtomicPtr::new(null_mut());
static WORDS: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static STACK_TOP: AtomicU64 = AtomicU64::new(0);
static TIMER: AtomicPtr<c_void> = AtomicPtr::new(null_mut());
static OUT: OnceLock<std::ffi::OsString> = OnceLock::new();

#[used]
#[link_section = ".init_array"]
static START: extern "C" fn() = start;

extern "C" fn start() {
    let Some(path) = std::env::var_os("SCI_SAMPLE") else {
        return;
    };
    let Some(top) = main_stack_top() else {
        eprintln!("sci-sampler: no [stack] mapping; not sampling");
        return;
    };
    STACK_TOP.store(top, SeqCst);
    let buffer = Box::leak(vec![0u64; BUFFER_WORDS].into_boxed_slice());
    BUFFER.store(buffer.as_mut_ptr(), SeqCst);
    let _ = OUT.set(path);
    // SAFETY: plain libc calls on structures laid out as the ABI says;
    // the handler only reads registers and the stack it bounds.
    unsafe {
        let action = SigAction {
            handler: on_sample as *const () as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        let mut event = SigEvent {
            value: 0,
            signo: SIGPROF,
            notify: SIGEV_THREAD_ID,
            thread_id: syscall(SYS_GETTID) as i32,
            pad: [0; 11],
        };
        let mut timer = null_mut();
        let every = || TimeSpec {
            sec: 0,
            nsec: INTERVAL_NS,
        };
        let period = ITimerSpec {
            interval: every(),
            value: every(),
        };
        if sigaction(SIGPROF, &action, null_mut()) != 0
            || timer_create(CLOCK_MONOTONIC, &mut event, &mut timer) != 0
        {
            eprintln!("sci-sampler: cannot arm the timer; not sampling");
            return;
        }
        TIMER.store(timer, SeqCst);
        atexit(dump);
        timer_settime(timer, 0, &period, null_mut());
    }
}

/// The end of the main thread's stack mapping, read from the memory map.
fn main_stack_top() -> Option<u64> {
    let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
    let line = maps.lines().find(|line| line.ends_with("[stack]"))?;
    let range = line.split_whitespace().next()?;
    u64::from_str_radix(range.split_once('-')?.1, 16).ok()
}

extern "C" fn on_sample(_signal: i32, _info: *mut c_void, context: *mut c_void) {
    let buffer = BUFFER.load(SeqCst);
    let start = WORDS.load(SeqCst);
    if buffer.is_null() || context.is_null() {
        return;
    }
    if start + 1 + MAX_DEPTH > BUFFER_WORDS {
        DROPPED.fetch_add(1, SeqCst);
        return;
    }
    // SAFETY: `context` is the kernel's `ucontext_t` for this signal;
    // every frame read lies in [rsp, top), the live part of the main
    // thread's stack, which is mapped; the sample fits in the buffer.
    unsafe {
        let gregs = (context as *const u8).add(GREGS_OFFSET) as *const u64;
        let (rip, mut rbp, rsp) = (
            *gregs.add(REG_RIP),
            *gregs.add(REG_RBP),
            *gregs.add(REG_RSP),
        );
        let top = rsp.saturating_add(STACK_BOUND).min(STACK_TOP.load(SeqCst));
        let frames = buffer.add(start + 1);
        *frames = rip;
        let mut depth = 1;
        while depth < MAX_DEPTH && rbp >= rsp && rbp % 8 == 0 && rbp + 16 <= top {
            let (next, ret) = (*(rbp as *const u64), *((rbp + 8) as *const u64));
            if ret == 0 {
                break;
            }
            *frames.add(depth) = ret;
            depth += 1;
            if next <= rbp {
                break;
            }
            rbp = next;
        }
        *buffer.add(start) = depth as u64;
        WORDS.store(start + 1 + depth, SeqCst);
    }
}

extern "C" fn dump() {
    let timer = TIMER.swap(null_mut(), SeqCst);
    if !timer.is_null() {
        // SAFETY: the timer this library created, deleted once.
        unsafe { timer_delete(timer) };
    }
    let buffer = BUFFER.swap(null_mut(), SeqCst);
    let (Some(path), false) = (OUT.get(), buffer.is_null()) else {
        return;
    };
    // SAFETY: the handler no longer writes (the buffer pointer is
    // null), and `WORDS` words were written.
    let words = unsafe { std::slice::from_raw_parts(buffer, WORDS.load(SeqCst)) };
    if let Err(e) = write_samples(path, words) {
        eprintln!("sci-sampler: {}: {e}", path.to_string_lossy());
    }
}

fn write_samples(path: &std::ffi::OsStr, words: &[u64]) -> std::io::Result<()> {
    let mut stacks = Vec::new();
    let mut rest = words;
    while let Some((&depth, tail)) = rest.split_first() {
        let (frames, tail) = tail.split_at((depth as usize).min(tail.len()));
        stacks.push(frames);
        rest = tail;
    }
    if held_samples(path) >= Some(stacks.len()) {
        return Ok(());
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let (interval_us, dropped) = (INTERVAL_NS / 1000, DROPPED.load(SeqCst));
    let samples = stacks.len();
    writeln!(
        out,
        "# sci-sampler samples={samples} interval_us={interval_us} dropped={dropped}"
    )?;
    for line in std::fs::read_to_string("/proc/self/maps")?.lines() {
        writeln!(out, "m {line}")?;
    }
    for frames in stacks {
        write!(out, "s")?;
        for frame in frames {
            write!(out, " {frame:x}")?;
        }
        writeln!(out)?;
    }
    out.flush()
}

/// How many samples the file already at `path` holds, if it is one of
/// ours: every process that loads the library samples, and the one
/// that took the most — the program studied, not a helper it ran —
/// keeps the file.
fn held_samples(path: &std::ffi::OsStr) -> Option<usize> {
    let mut header = String::new();
    let file = std::fs::File::open(path).ok()?;
    std::io::BufRead::read_line(&mut std::io::BufReader::new(file), &mut header).ok()?;
    let field = header
        .split_whitespace()
        .find_map(|f| f.strip_prefix("samples="))?;
    field.parse().ok()
}
