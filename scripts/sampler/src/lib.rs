//! A sampling profiler for one process, preloaded with `LD_PRELOAD`.
//!
//! With `SCI_SAMPLE=<file>` in the environment, every thread of the
//! process is sampled: the thread that loads the library (the main
//! thread) arms its timer as the library loads, and every thread
//! started with `pthread_create` — which the library interposes — arms
//! its own as it starts. Each timer is a `CLOCK_MONOTONIC` POSIX timer
//! that sends its thread alone (`SIGEV_THREAD_ID`) `SIGPROF` every
//! millisecond. (`CLOCK_THREAD_CPUTIME_ID` timers would spare idle
//! threads, but on the kernels tried they delivered about 1 % of the
//! samples asked for; a wall-clock timer wakes a parked thread instead,
//! and at 100 µs that cost `relay_wire_durable` nearly half its
//! throughput, hence 1 ms. `scripts/profile.py --busy` drops the
//! samples taken in a blocking wait.)
//!
//! The handler walks the frame-pointer chain from the interrupted
//! registers into a buffer on its own stack, reserves that many words
//! of a buffer allocated up front with one atomic add, and copies the
//! sample there, so it neither allocates nor locks. Each frame must lie
//! above the interrupted `rsp` and below the top of the thread's own
//! stack, read with `pthread_getattr_np` before the timer is armed, and
//! each must be above the last. At exit the process's memory map and
//! then the stacks are written to the file, one sample a line, leaf
//! first, in hex — what `scripts/profile.py` symbolises.
//!
//! The walk sees only code built with frame pointers
//! (`RUSTFLAGS="-C force-frame-pointers=yes"`); a sample taken inside
//! code without them ends where the chain breaks. A thread that ends
//! with `pthread_exit` rather than by returning keeps its timer until
//! the process exits. Linux x86_64 only: elsewhere the library is
//! empty. Without `SCI_SAMPLE` it does nothing. A process that replaces
//! itself (`exec`, as `taskset` does) writes nothing; of the processes
//! that exit, the one with the most samples keeps the file.
//!
//! ```text
//! cargo build --release --manifest-path scripts/sampler/Cargo.toml
//! SCI_SAMPLE=/tmp/samples LD_PRELOAD=scripts/sampler/target/release/libsci_sampler.so <program>
//! ```

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::cell::Cell;
use std::ffi::{c_char, c_void};
use std::io::{BufWriter, Write};
use std::mem::MaybeUninit;
use std::ptr::null_mut;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::OnceLock;

const INTERVAL_NS: i64 = 1_000_000;
const MAX_DEPTH: usize = 128;
/// 64 MiB of address space; only the pages samples reach are touched.
const BUFFER_WORDS: usize = 1 << 23;

// The Linux x86_64 ABI.
const SIGPROF: i32 = 27;
const SA_SIGINFO: i32 = 0x4;
const SA_RESTART: i32 = 0x1000_0000;
const CLOCK_MONOTONIC: i32 = 1;
const SIGEV_THREAD_ID: i32 = 4;
const SYS_GETTID: i64 = 186;
const EAGAIN: i32 = 11;
/// `dlsym`'s "the next object after this one".
const RTLD_NEXT: *mut c_void = -1isize as *mut c_void;
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

/// `pthread_attr_t`: 56 opaque bytes.
#[repr(C)]
pub struct PthreadAttr([u64; 7]);

type StartRoutine = extern "C" fn(*mut c_void) -> *mut c_void;
type PthreadCreate =
    unsafe extern "C" fn(*mut usize, *const PthreadAttr, StartRoutine, *mut c_void) -> i32;

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
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn pthread_self() -> usize;
    fn pthread_getattr_np(thread: usize, attr: *mut PthreadAttr) -> i32;
    fn pthread_attr_getstack(
        attr: *const PthreadAttr,
        addr: *mut *mut c_void,
        size: *mut usize,
    ) -> i32;
    fn pthread_attr_destroy(attr: *mut PthreadAttr) -> i32;
}

// The handler runs on a sampled thread, between any two of its
// instructions, while other threads' handlers may run too: `SeqCst`
// keeps the buffer's writes ordered against the pointer and length
// that publish them.

/// Samples as `depth, frame…`, back to back; null when not sampling.
static BUFFER: AtomicPtr<u64> = AtomicPtr::new(null_mut());
/// Words reserved so far; past `BUFFER_WORDS` once the buffer is full.
static WORDS: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// The main thread's timer (a kernel timer id, which may be 0), deleted
/// at exit.
static TIMER: OnceLock<usize> = OnceLock::new();
static OUT: OnceLock<std::ffi::OsString> = OnceLock::new();

thread_local! {
    /// The top of this thread's stack; 0 on a thread not sampled. Set
    /// before the thread's timer is armed, so the handler only reads
    /// it.
    static STACK_TOP: Cell<u64> = const { Cell::new(0) };
}

#[used]
#[link_section = ".init_array"]
static START: extern "C" fn() = start;

extern "C" fn start() {
    let Some(path) = std::env::var_os("SCI_SAMPLE") else {
        return;
    };
    let buffer = Box::leak(vec![0u64; BUFFER_WORDS].into_boxed_slice());
    let _ = OUT.set(path);
    // SAFETY: a plain libc call on a structure laid out as the ABI
    // says; the handler only reads registers and the stack it bounds.
    unsafe {
        let action = SigAction {
            handler: on_sample as *const () as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        if sigaction(SIGPROF, &action, null_mut()) != 0 {
            eprintln!("sci-sampler: cannot handle SIGPROF; not sampling");
            return;
        }
    }
    BUFFER.store(buffer.as_mut_ptr(), SeqCst);
    match arm() {
        Some(timer) => _ = TIMER.set(timer as usize),
        None => eprintln!("sci-sampler: cannot arm the main thread's timer"),
    }
    // SAFETY: registers a function that takes and returns nothing.
    unsafe { atexit(dump) };
}

/// Arms a timer that samples the calling thread, once the top of its
/// stack is known.
fn arm() -> Option<*mut c_void> {
    let top = stack_top()?;
    STACK_TOP.with(|t| t.set(top));
    let every = || TimeSpec {
        sec: 0,
        nsec: INTERVAL_NS,
    };
    let period = ITimerSpec {
        interval: every(),
        value: every(),
    };
    let mut timer = null_mut();
    // SAFETY: plain libc calls on structures laid out as the ABI says.
    unsafe {
        let mut event = SigEvent {
            value: 0,
            signo: SIGPROF,
            notify: SIGEV_THREAD_ID,
            thread_id: syscall(SYS_GETTID) as i32,
            pad: [0; 11],
        };
        if timer_create(CLOCK_MONOTONIC, &mut event, &mut timer) != 0 {
            return None;
        }
        timer_settime(timer, 0, &period, null_mut());
    }
    Some(timer)
}

/// The end of the calling thread's stack mapping.
fn stack_top() -> Option<u64> {
    let mut attr = MaybeUninit::<PthreadAttr>::uninit();
    let (mut low, mut size) = (null_mut(), 0);
    // SAFETY: `attr` is initialised by `pthread_getattr_np` before it
    // is read, and destroyed once.
    unsafe {
        if pthread_getattr_np(pthread_self(), attr.as_mut_ptr()) != 0 {
            return None;
        }
        let found = pthread_attr_getstack(attr.as_ptr(), &mut low, &mut size);
        pthread_attr_destroy(attr.as_mut_ptr());
        (found == 0).then(|| low as u64 + size as u64)
    }
}

/// Every thread the program starts is sampled: its start routine runs
/// under [`sampled`], which arms the thread's timer first.
///
/// # Safety
///
/// As for `pthread_create`.
#[no_mangle]
pub unsafe extern "C" fn pthread_create(
    thread: *mut usize,
    attr: *const PthreadAttr,
    start: StartRoutine,
    arg: *mut c_void,
) -> i32 {
    static REAL: OnceLock<usize> = OnceLock::new();
    let real = *REAL.get_or_init(|| dlsym(RTLD_NEXT, c"pthread_create".as_ptr()) as usize);
    if real == 0 {
        return EAGAIN;
    }
    // SAFETY: a non-null address of the next `pthread_create` in the
    // lookup order, libc's, which has this signature.
    let real: PthreadCreate = std::mem::transmute(real);
    if BUFFER.load(SeqCst).is_null() {
        return real(thread, attr, start, arg);
    }
    let routine = Box::into_raw(Box::new((start, arg)));
    let created = real(thread, attr, sampled, routine.cast());
    if created != 0 {
        drop(Box::from_raw(routine));
    }
    created
}

/// A started thread's first frame: arms its timer, runs its start
/// routine, deletes the timer.
extern "C" fn sampled(routine: *mut c_void) -> *mut c_void {
    // SAFETY: the box `pthread_create` leaked for this thread alone.
    let (start, arg) = *unsafe { Box::from_raw(routine.cast::<(StartRoutine, *mut c_void)>()) };
    let timer = arm();
    let result = start(arg);
    if let Some(timer) = timer {
        // SAFETY: the timer `arm` created for this thread, deleted once.
        unsafe { timer_delete(timer) };
    }
    result
}

extern "C" fn on_sample(_signal: i32, _info: *mut c_void, context: *mut c_void) {
    let buffer = BUFFER.load(SeqCst);
    let top = STACK_TOP.with(Cell::get);
    if buffer.is_null() || context.is_null() || top == 0 {
        return;
    }
    let mut frames = [0u64; MAX_DEPTH];
    // SAFETY: `context` is the kernel's `ucontext_t` for this signal;
    // every frame read lies in [rsp, top), the live part of this
    // thread's stack, which is mapped.
    let depth = unsafe {
        let gregs = (context as *const u8).add(GREGS_OFFSET) as *const u64;
        let (rip, mut rbp, rsp) = (
            *gregs.add(REG_RIP),
            *gregs.add(REG_RBP),
            *gregs.add(REG_RSP),
        );
        frames[0] = rip;
        let mut depth = 1;
        while depth < MAX_DEPTH && rbp >= rsp && rbp % 8 == 0 && rbp + 16 <= top {
            let (next, ret) = (*(rbp as *const u64), *((rbp + 8) as *const u64));
            if ret == 0 {
                break;
            }
            frames[depth] = ret;
            depth += 1;
            if next <= rbp {
                break;
            }
            rbp = next;
        }
        depth
    };
    let start = WORDS.fetch_add(1 + depth, SeqCst);
    if start + 1 + depth > BUFFER_WORDS {
        DROPPED.fetch_add(1, SeqCst);
        return;
    }
    // SAFETY: the words [start, start + 1 + depth) are this sample's
    // alone, and inside the buffer.
    unsafe {
        *buffer.add(start) = depth as u64;
        std::ptr::copy_nonoverlapping(frames.as_ptr(), buffer.add(start + 1), depth);
    }
}

extern "C" fn dump() {
    let buffer = BUFFER.swap(null_mut(), SeqCst);
    if let Some(&timer) = TIMER.get() {
        // SAFETY: the timer this library created; `dump` runs once.
        unsafe { timer_delete(timer as *mut c_void) };
    }
    let (Some(path), false) = (OUT.get(), buffer.is_null()) else {
        return;
    };
    // SAFETY: no handler reserves words any more (the buffer pointer is
    // null), and at most `BUFFER_WORDS` were reserved inside it.
    let words = unsafe { std::slice::from_raw_parts(buffer, WORDS.load(SeqCst).min(BUFFER_WORDS)) };
    if let Err(e) = write_samples(path, words) {
        eprintln!("sci-sampler: {}: {e}", path.to_string_lossy());
    }
}

fn write_samples(path: &std::ffi::OsStr, words: &[u64]) -> std::io::Result<()> {
    let mut stacks = Vec::new();
    let mut rest = words;
    // A depth of 0 is a sample still being written as the process
    // exited: the words after it are not known to be whole.
    while let Some((&depth, tail)) = rest.split_first().filter(|(&depth, _)| depth > 0) {
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
