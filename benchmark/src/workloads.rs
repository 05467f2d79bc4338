//! The four workloads: their shapes, their sizes, and how each one's
//! measurements become the shared end-to-end metric names.
//!
//! Sizes are counts, not durations: `--seconds` scales them from the
//! reference below, so two commits given the same `--seconds` do the
//! same work, and the faster one simply finishes sooner.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sci_core::DurabilityConfig;
use sci_overlay::{SimNetwork, TcpTransport, Transport};
use sci_telemetry::TelemetrySnapshot;

use crate::check::Checker;
use crate::gen::{Generator, SUBJECTS};
use crate::layers::Activity;
use crate::rig::Population;
use crate::stats::{host_adjusted, percentile, Adjusted, Kind, Windowed};
use crate::sys::{HostWatch, YARDSTICK_REF_US};
use crate::trace::Recorder;
use crate::{churn, crash, fed};

pub const NAMES: [&str; 4] = [
    "relay_wire_durable",
    "local_compose",
    "control_churn",
    "crash_recover",
];

/// `--seconds` at which the sizes below were chosen: each workload then
/// measures for about this long on the reference box (a 2-vCPU shared
/// microVM, pinned to one CPU).
pub const REFERENCE_SECONDS: f64 = 20.0;

/// Set-ups per run; `setup_s` is their lower quartile: a set-up is a
/// few milliseconds of fsyncs and thread spawns whose jitter is all one
/// way, and on a bad disk minute the median set-up is three times the
/// undisturbed one while the lower quartile barely moves.
const SETUPS: usize = 9;
/// Trips per `rtt` window: 50 samples lie beyond each window's p90.
const RTT_WINDOW: usize = 500;
/// Cycles per `control_churn` window: 25 samples lie beyond its p90.
const CHURN_WINDOW: usize = 250;

/// `stream` phases: batches of [`fed::BATCH`] events in all, and per
/// window (80 windows of 75–100 ms).
const RELAY_STREAM_BATCHES: (usize, usize) = (400, 5);
const RELAY_RTT_TRIPS: usize = 36_000;
const LOCAL_STREAM_BATCHES: (usize, usize) = (800, 10);
const LOCAL_RTT_TRIPS: usize = 50_000;
const CHURN_CYCLES: usize = 14_000;
const CRASH_RECORDS: usize = 41_000;
/// Timed recoveries per log.
const RECOVERIES: usize = 11;

/// What one run was asked to do.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Size multiplier relative to [`REFERENCE_SECONDS`].
    pub scale: f64,
    /// Real-disk scratch directory for WALs, private to this run.
    pub scratch: PathBuf,
    /// A `--quick` smoke run.
    pub quick: bool,
}

impl Ctx {
    /// `(windows, per_window)` for a phase of `reference` operations
    /// whose windows hold `window` of them: whole windows at full size;
    /// a `--quick` run keeps ten windows and shrinks them instead.
    pub fn windows_of(&self, reference: usize, window: usize) -> (usize, usize) {
        let n = (reference as f64 * self.scale) as usize;
        if n >= 10 * window {
            (n / window, window)
        } else {
            (10, (n / 10).max(1))
        }
    }
}

/// The host-adjusted median window.
fn adjusted(windows: impl IntoIterator<Item = Windowed>, kind: Kind) -> Adjusted {
    host_adjusted(
        &windows.into_iter().collect::<Vec<_>>(),
        kind,
        50.0,
        YARDSTICK_REF_US,
    )
}

/// One pass over a workload: the numbers every workload reports under
/// the shared names — each a host-adjusted median over windows — plus
/// what only the traced run prints.
#[derive(Debug)]
pub struct Pass {
    pub setup_s: Adjusted,
    /// Thousand operations per wall second.
    pub throughput_kops_s: Adjusted,
    /// Process CPU microseconds per operation.
    pub cpu_us_per_op: Adjusted,
    pub latency_typical_us: Adjusted,
    pub latency_tail_us: Adjusted,
    /// The p99 the tail would be if this box could repeat one (README,
    /// "Demoted"); printed by the traced run only.
    pub latency_p99_us: Adjusted,
    /// Wall microseconds per ingested event in the rate phase.
    pub wall_us_per_event: Adjusted,
    pub attempted: u64,
    pub failed: u64,
    pub input_hash: u64,
    /// What the measured rate phase did, for the per-layer counts.
    pub activity: Activity,
}

pub fn relay_shape() -> fed::Shape {
    fed::Shape {
        ranges: 2,
        apps: vec![
            fed::AppSpec {
                home: 0,
                producer: 1,
                subject: None,
            };
            4
        ],
        ingest: vec![1],
        durable: true,
    }
}

pub fn local_shape() -> fed::Shape {
    let apps = (0..2)
        .flat_map(|range| {
            let app = move |subject| fed::AppSpec {
                home: range,
                producer: range,
                subject,
            };
            (0..SUBJECTS)
                .map(move |s| app(Some(s)))
                .chain((0..10).map(move |_| app(None)))
        })
        .collect();
    fed::Shape {
        ranges: 2,
        apps,
        ingest: vec![0, 1],
        durable: false,
    }
}

/// Times `build` [`SETUPS`] times, tearing down all but the last;
/// returns the host-adjusted lower quartile (seconds) and the last rig.
fn timed_setups<R>(mut build: impl FnMut() -> R, mut teardown: impl FnMut(R)) -> (Adjusted, R) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let mut watch = HostWatch::start();
        let t0 = Instant::now();
        last = Some(build());
        let seconds = t0.elapsed().as_secs_f64();
        times.push(watch.lap().window(seconds));
    }
    (
        host_adjusted(&times, Kind::Time, 25.0, YARDSTICK_REF_US),
        last.expect("SETUPS > 0"),
    )
}

/// A federation workload: `stream` then `rtt` on one rig.
pub fn federation<T: Transport>(
    ctx: &Ctx,
    shape: &fed::Shape,
    transport: impl Fn() -> T,
    (stream_batches, stream_window): (usize, usize),
    rtt_trips: usize,
    tr: &mut Recorder,
) -> Pass {
    let (setup_s, mut rig) = timed_setups(
        || fed::Rig::build(shape, transport(), &ctx.scratch, ctx.seed),
        fed::Rig::teardown,
    );
    let mut check = Checker::new();
    let mut gen = Generator::new(ctx.seed, 1);

    let (windows, per_window) = ctx.windows_of(stream_batches, stream_window);
    let run = fed::stream_phase(&mut rig, windows, per_window, &mut gen, &mut check, tr);
    let windows = &run.windows;
    let (rtt_windows, per_window) = ctx.windows_of(rtt_trips, RTT_WINDOW);
    let rtt = fed::rtt_phase(&mut rig, rtt_windows, per_window, &mut gen, &mut check, tr);
    rig.teardown();

    let (attempted, failed) = check.verdict();
    Pass {
        setup_s,
        throughput_kops_s: adjusted(
            windows.iter().map(fed::StreamWindow::delivered_kps),
            Kind::Rate,
        ),
        cpu_us_per_op: adjusted(
            windows.iter().map(fed::StreamWindow::cpu_us_per_delivery),
            Kind::Time,
        ),
        latency_typical_us: adjusted(rtt.iter().map(|w| w.p50), Kind::Time),
        latency_tail_us: adjusted(rtt.iter().map(|w| w.p90), Kind::Time),
        latency_p99_us: adjusted(rtt.iter().map(|w| w.p99), Kind::Time),
        wall_us_per_event: adjusted(
            windows.iter().map(fed::StreamWindow::wall_us_per_event),
            Kind::Time,
        ),
        attempted,
        failed,
        input_hash: gen.input_hash(),
        activity: Activity {
            events: windows.iter().map(|w| w.events).sum(),
            deliveries: windows.iter().map(|w| w.deliveries).sum(),
            wall_ns: windows.iter().map(|w| w.wall_ns).sum(),
            before: run.before,
            after: run.after,
            ctx_switches: run.ctx_switches,
        },
    }
}

pub fn relay_wire_durable(ctx: &Ctx, tr: &mut Recorder) -> Pass {
    federation(
        ctx,
        &relay_shape(),
        TcpTransport::new,
        RELAY_STREAM_BATCHES,
        RELAY_RTT_TRIPS,
        tr,
    )
}

pub fn local_compose(ctx: &Ctx, tr: &mut Recorder) -> Pass {
    federation(
        ctx,
        &local_shape(),
        SimNetwork::new,
        LOCAL_STREAM_BATCHES,
        LOCAL_RTT_TRIPS,
        tr,
    )
}

pub fn control_churn(ctx: &Ctx, tr: &mut Recorder) -> Pass {
    let (setup_s, mut rig) = timed_setups(|| churn::Rig::build(ctx.seed), drop);
    let mut check = Checker::new();
    let mut gen = Generator::new(ctx.seed, 2);
    let (windows, per_window) = ctx.windows_of(CHURN_CYCLES, CHURN_WINDOW);
    let run = churn::run(&mut rig, windows, per_window, &mut gen, &mut check, tr);
    let windows = &run.windows;
    let (attempted, failed) = check.verdict();
    let reads_of = |w: &churn::ChurnWindow| w.cycles * churn::READS_PER_CYCLE as u64;
    let reads: u64 = windows.iter().map(reads_of).sum();
    let per_window = |f: &dyn Fn(&churn::ChurnWindow) -> f64, kind| {
        adjusted(windows.iter().map(|w| w.host.window(f(w))), kind)
    };
    Pass {
        setup_s,
        throughput_kops_s: per_window(
            &|w| w.cycles as f64 / (w.wall_ns as f64 / 1e9) / 1e3,
            Kind::Rate,
        ),
        cpu_us_per_op: per_window(&|w| w.cpu_ns as f64 / 1e3 / w.cycles as f64, Kind::Time),
        latency_typical_us: per_window(&|w| percentile(&w.submit_us, 50.0), Kind::Time),
        latency_tail_us: per_window(&|w| percentile(&w.submit_us, 90.0), Kind::Time),
        latency_p99_us: per_window(&|w| percentile(&w.submit_us, 99.0), Kind::Time),
        wall_us_per_event: per_window(&|w| w.wall_ns as f64 / 1e3 / reads_of(w) as f64, Kind::Time),
        attempted,
        failed,
        input_hash: gen.input_hash(),
        activity: Activity {
            events: reads,
            // Each read reaches the standing and the cycle's subscriber.
            deliveries: reads * 2,
            wall_ns: windows.iter().map(|w| w.wall_ns).sum(),
            before: run.before,
            after: run.after,
            ctx_switches: run.ctx_switches,
        },
    }
}

/// What `crash_recover` measures beyond the shared names.
#[derive(Debug, Default)]
pub struct CrashExtras {
    /// Durable ingest rate with snapshots off, thousand records/s.
    pub ingest_nosnap_kps: f64,
    /// Mean time of one periodic snapshot, ms.
    pub snapshot_ms: f64,
    /// Records the snapshot recovery replayed past its snapshot.
    pub snapshot_replayed: f64,
}

fn wal_dir(scratch: &Path, tag: &str, n: &mut u32) -> PathBuf {
    *n += 1;
    scratch.join(format!("{tag}-{n}"))
}

fn histogram_sum(snap: &TelemetrySnapshot, name: &str) -> (u64, u64) {
    snap.histogram(name).map_or((0, 0), |h| (h.count, h.sum))
}

/// `n` timed recoveries of one log: their host-adjusted median time
/// (ms) and how many records each replayed.
fn recover_all(
    pop: &Population,
    config: &DurabilityConfig,
    digest: &str,
    n: usize,
    check: &mut Checker,
    tr: &mut Recorder,
) -> (Adjusted, f64) {
    let runs: Vec<crash::Recovery> = (0..n)
        .map(|i| crash::recover(pop, config, (i == 0).then_some(digest), i as u64, tr))
        .collect();
    for r in &runs {
        check.record(r.ok && r.replayed == runs[0].replayed);
    }
    (
        adjusted(runs.iter().map(|r| r.ms), Kind::Time),
        runs[0].replayed as f64,
    )
}

pub fn crash_recover(ctx: &Ctx, tr: &mut Recorder) -> (Pass, CrashExtras) {
    let mut dirs = 0;
    let (setup_s, mut rig) = timed_setups(
        || {
            crash::Rig::build(
                wal_dir(&ctx.scratch, "snap", &mut dirs),
                crash::SNAPSHOT_EVERY,
            )
        },
        |rig: crash::Rig| {
            let dir = rig.dir().to_owned();
            drop(rig);
            let _ = std::fs::remove_dir_all(dir);
        },
    );
    let mut check = Checker::new();
    let gen0 = Generator::new(ctx.seed, 3);
    // One snapshot falls in every window, or the median window would
    // never see what snapshots cost.
    let (windows, per_window) = ctx.windows_of(CRASH_RECORDS, crash::SNAPSHOT_EVERY as usize);
    let recoveries = if ctx.scale < 0.25 { 5 } else { RECOVERIES };

    // The snapshotting log: the headline ingest rate, then recoveries
    // that restore a snapshot and replay the tail behind it.
    let mut gen = gen0.clone();
    let run = crash::ingest(&mut rig, windows, per_window, &mut gen, &mut check, tr);
    let (digest, pop, config) = crash::crash(rig);
    let (snapshot_ms, snapshot_replayed) =
        recover_all(&pop, &config, &digest, recoveries, &mut check, tr);
    let _ = std::fs::remove_dir_all(&config.dir);

    // The same history with snapshots off: recovery replays it all.
    let mut off = Recorder::new(false);
    let mut replay_rig = crash::Rig::build(wal_dir(&ctx.scratch, "replay", &mut dirs), 0);
    let mut replay_gen = gen0;
    let replay_run = crash::ingest(
        &mut replay_rig,
        windows,
        per_window,
        &mut replay_gen,
        &mut check,
        &mut off,
    );
    let (replay_digest, _, replay_config) = crash::crash(replay_rig);
    // Same inputs, same state: the two logs must describe one history.
    check.record(replay_digest == digest);
    let (replay_ms, _) = recover_all(
        &pop,
        &replay_config,
        &replay_digest,
        recoveries,
        &mut check,
        tr,
    );
    let _ = std::fs::remove_dir_all(&replay_config.dir);

    let windows = &run.windows;
    let per_record_us =
        |w: &crash::IngestWindow, ns: u64| w.host.window(ns as f64 / 1e3 / w.records as f64);
    let in_us = |ms: Adjusted| Adjusted {
        value: ms.value * 1e3,
        raw: ms.raw * 1e3,
        windows: ms.windows,
    };
    let (attempted, failed) = check.verdict();
    let total: u64 = windows.iter().map(|w| w.records).sum();
    let (snap_n0, snap_us0) = histogram_sum(&run.before, "wal.snapshot_us");
    let (snap_n1, snap_us1) = histogram_sum(&run.after, "wal.snapshot_us");
    let pass = Pass {
        setup_s,
        throughput_kops_s: adjusted(windows.iter().map(crash::IngestWindow::kps), Kind::Rate),
        cpu_us_per_op: adjusted(
            windows.iter().map(|w| per_record_us(w, w.cpu_ns)),
            Kind::Time,
        ),
        latency_typical_us: in_us(snapshot_ms),
        latency_tail_us: in_us(replay_ms),
        latency_p99_us: adjusted(
            windows
                .iter()
                .zip(run.record_us.chunks(per_window))
                .map(|(w, us)| w.host.window(percentile(us, 99.0))),
            Kind::Time,
        ),
        wall_us_per_event: adjusted(
            windows.iter().map(|w| per_record_us(w, w.wall_ns)),
            Kind::Time,
        ),
        attempted,
        failed,
        input_hash: gen.input_hash(),
        activity: Activity {
            events: total,
            deliveries: total * crash::SUBSCRIBERS as u64,
            wall_ns: windows.iter().map(|w| w.wall_ns).sum(),
            before: run.before,
            after: run.after,
            ctx_switches: run.ctx_switches,
        },
    };
    let extras = CrashExtras {
        ingest_nosnap_kps: adjusted(
            replay_run.windows.iter().map(crash::IngestWindow::kps),
            Kind::Rate,
        )
        .value,
        snapshot_ms: (snap_us1 - snap_us0) as f64 / 1e3 / (snap_n1 - snap_n0).max(1) as f64,
        snapshot_replayed,
    };
    (pass, extras)
}

/// Runs the named workload once with tracing as `tr` says.
pub fn run(name: &str, ctx: &Ctx, tr: &mut Recorder) -> (Pass, CrashExtras) {
    match name {
        "relay_wire_durable" => (relay_wire_durable(ctx, tr), CrashExtras::default()),
        "local_compose" => (local_compose(ctx, tr), CrashExtras::default()),
        "control_churn" => (control_churn(ctx, tr), CrashExtras::default()),
        "crash_recover" => crash_recover(ctx, tr),
        other => panic!("unknown workload `{other}` (validated by the caller)"),
    }
}
