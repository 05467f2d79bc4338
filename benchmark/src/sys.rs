//! The process's view of the machine: CPU pinning, CPU time, resident
//! memory and the filesystem under the WAL scratch directory.
//!
//! Pinning is the reason this module exists. Unpinned, the acked socket
//! path measures the hypervisor's cross-vCPU wake-ups, not the
//! middleware (README, "Why pinned"); so the process pins itself to the
//! lowest CPU of its allowed set *before any thread is spawned* (every
//! later thread inherits the mask) and refuses to report otherwise.

use std::path::Path;

use crate::stats::Host;

/// Bits in the affinity mask handed to the kernel (1024 CPUs, the
/// glibc `cpu_set_t` size).
const MASK_WORDS: usize = 16;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

fn affinity() -> Result<[u64; MASK_WORDS], String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(mask)
}

fn cpus_of(mask: &[u64; MASK_WORDS]) -> Vec<usize> {
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// How the process is placed, recorded in every output.
#[derive(Clone, Debug)]
pub struct Placement {
    /// `Cpus_allowed_list` as the process found it.
    pub allowed_before: String,
    /// CPUs in that set.
    pub nproc: usize,
    /// The CPU the process runs on now (`None` for an unpinned run).
    pub pinned_to: Option<usize>,
}

impl Placement {
    /// Cores the measured process can use.
    pub fn cores(&self) -> usize {
        if self.pinned_to.is_some() {
            1
        } else {
            self.nproc
        }
    }
}

fn allowed_list() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Records the placement without changing it (the one unpinned run,
/// `core.runtime.parallel_speedup`).
pub fn unpinned() -> Result<Placement, String> {
    Ok(Placement {
        allowed_before: allowed_list(),
        nproc: cpus_of(&affinity()?).len(),
        pinned_to: None,
    })
}

/// Pins the calling thread — call it first thing in `main`, before any
/// thread exists — to the lowest allowed CPU and verifies the kernel
/// took it.
pub fn pin_to_lowest_cpu() -> Result<Placement, String> {
    let allowed_before = allowed_list();
    let before = cpus_of(&affinity()?);
    let cpu = *before.first().ok_or("empty CPU affinity set")?;
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({cpu}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let after = cpus_of(&affinity()?);
    if after != [cpu] {
        return Err(format!("pinning to CPU {cpu} did not take: {after:?}"));
    }
    Ok(Placement {
        allowed_before,
        nproc: before.len(),
        pinned_to: Some(cpu),
    })
}

/// CPU time (user + system, all threads) this process has consumed, in
/// nanoseconds — the `utime + stime` of `/proc/self/stat` at clock
/// rather than tick resolution.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`-layout struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`). The WAL's fsync cost is this
/// filesystem's, so the output names it.
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|line| {
            // `<id> <parent> <dev> <root> <mount point> <opts>... - <fstype> ...`
            let (head, tail) = line.split_once(" - ")?;
            let mount_point = head.split(' ').nth(4)?;
            let fs = tail.split(' ').next()?;
            abs.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// Context switches, voluntary and involuntary, of every live thread
/// of this process. On one CPU each hop between coordinator, range
/// worker and socket reader is a context switch, so this counts hops.
pub fn context_switches() -> u64 {
    let mut total = 0;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return total;
    };
    for task in tasks.flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or(0)
        };
        total += field("voluntary_ctxt_switches:") + field("nonvoluntary_ctxt_switches:");
    }
    total
}

/// Reads the yardstick at successive quiet points: each [`lap`] returns
/// the previous reading and a fresh one — the pair that brackets
/// whatever ran in between.
///
/// [`lap`]: HostWatch::lap
pub struct HostWatch {
    last_us: f64,
}

impl HostWatch {
    pub fn start() -> Self {
        HostWatch {
            last_us: yardstick(),
        }
    }

    pub fn lap(&mut self) -> Host {
        let before_us = std::mem::replace(&mut self.last_us, yardstick());
        Host {
            before_us,
            after_us: self.last_us,
        }
    }
}

/// What [`yardstick`] reads on the quiet reference box, microseconds.
/// It only fixes the unit ("reference-host time"): two commits measured
/// on one box are both divided by it.
pub const YARDSTICK_REF_US: f64 = 1225.0;

/// The host-speed yardstick: a fixed amount of integer work that no
/// library change can touch, timed. Returns the mean of four rounds in
/// microseconds (about 5 ms in all). Call it only when no other thread
/// of the process has work, or their work is billed to the host.
///
/// On a shared box the same instructions take 1.0x, 1.3x, 1.5x ... as
/// long from one second to the next, depending on who else is on the
/// core (README, "The host is the noise"). Reading the yardstick on
/// both sides of every measured window is how a run tells a slow
/// window from a slow host.
pub fn yardstick() -> f64 {
    const ROUNDS: u32 = 4;
    let t0 = std::time::Instant::now();
    for _ in 0..ROUNDS {
        let mut acc = 0u64;
        for i in 0..1_000_000u64 {
            acc = acc.wrapping_add(std::hint::black_box(i).wrapping_mul(i) % 7);
        }
        std::hint::black_box(acc);
    }
    t0.elapsed().as_nanos() as f64 / 1e3 / f64::from(ROUNDS)
}
