//! `crash_recover`: a bare durable [`ContextServer`] — no federation,
//! no wire — so `core.durability` and `wal` do all the work, writes
//! (append, snapshot) beside reads (recover). One badge read is one
//! `handle(Ingest)` is one WAL record; the driver drains and checks the
//! ten deliveries each produces, the way an application would. Then the
//! server is dropped and rebuilt from its directory, several times.
//!
//! The same history is logged twice: with `snapshot_every = 4096` (the
//! recovery restores a snapshot and replays a short tail) and with
//! snapshots off (the recovery replays every record).

use std::path::{Path, PathBuf};
use std::time::Instant;

use sci_core::context_server::ContextServer;
use sci_core::durability::{self, durable_digest, DurabilityConfig};
use sci_core::runtime::RangeCommand;
use sci_telemetry::{Registry, TelemetrySnapshot};
use sci_types::VirtualTime;

use crate::check::Checker;
use crate::gen::Generator;
use crate::rig::{
    app_guid, app_index, attach_wal, location_query, query_guid, wal_config, Population,
};
use crate::stats::{Host, Windowed};
use crate::sys::{context_switches, process_cpu_ns, HostWatch};
use crate::trace::Recorder;

/// `Location` subscribers, each following everyone.
pub const SUBSCRIBERS: usize = 10;
/// Snapshot cadence of the snapshotting log.
pub const SNAPSHOT_EVERY: u64 = 4096;

pub struct Rig {
    pub pop: Population,
    pub cs: ContextServer,
    pub config: DurabilityConfig,
    clock: u64,
}

impl Rig {
    /// A durable range with its subscribers — what `setup_s` times.
    /// The subscriptions are submitted after the WAL is attached, so
    /// they are log records a recovery must replay too.
    pub fn build(dir: PathBuf, snapshot_every: u64) -> Self {
        let pop = Population::new(0);
        let mut cs = pop.server();
        let config = wal_config(dir, snapshot_every);
        attach_wal(&mut cs, &config);
        for app in 0..SUBSCRIBERS {
            cs.submit_query(
                &location_query(query_guid(app as u64), app_guid(app), None, None),
                VirtualTime::ZERO,
            )
            .expect("subscriber resolves");
        }
        Rig {
            pop,
            cs,
            config,
            clock: 0,
        }
    }

    pub fn dir(&self) -> &Path {
        &self.config.dir
    }
}

/// One measured window of durable ingests.
#[derive(Clone, Copy, Debug)]
pub struct IngestWindow {
    pub records: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub host: Host,
}

impl IngestWindow {
    /// Thousand durable records per wall second.
    pub fn kps(&self) -> Windowed {
        self.host
            .window(self.records as f64 / (self.wall_ns as f64 / 1e9) / 1e3)
    }
}

pub struct IngestRun {
    pub windows: Vec<IngestWindow>,
    /// Per-record `handle(Ingest)` + drain latency, microseconds.
    pub record_us: Vec<f64>,
    pub before: TelemetrySnapshot,
    pub after: TelemetrySnapshot,
    /// Context switches across the measured windows.
    pub ctx_switches: u64,
}

fn ingest_one(rig: &mut Rig, gen: &mut Generator, check: &mut Checker, tr: &mut Recorder) -> f64 {
    let reading = gen.reading();
    rig.clock += 1;
    let now = VirtualTime::from_micros(rig.clock);
    let event = rig.pop.presence(&reading, now);
    for app in 0..SUBSCRIBERS {
        check.expect(app, &reading);
    }
    let id = rig.clock;
    let t0 = Instant::now();
    let root = tr.open("record", id);
    let s = tr.open("append_apply", id);
    let applied = rig.cs.handle(RangeCommand::Ingest(event), now);
    tr.close(s);
    let s = tr.open("drain", id);
    let delivered = rig.cs.drain_outbox();
    tr.close(s);
    tr.close(root);
    let us = t0.elapsed().as_nanos() as f64 / 1e3;
    if applied.is_err() {
        check.record(false);
    }
    for d in &delivered {
        check.observe(app_index(d.app), d, &rig.pop);
    }
    us
}

/// A 10 % warm-up, then `windows` measured windows of `per_window`
/// durable ingests each.
pub fn ingest(
    rig: &mut Rig,
    windows: usize,
    per_window: usize,
    gen: &mut Generator,
    check: &mut Checker,
    tr: &mut Recorder,
) -> IngestRun {
    let mut off = Recorder::new(false);
    for _ in 0..per_window * windows / 10 {
        ingest_one(rig, gen, check, &mut off);
    }
    let before = rig.cs.snapshot();
    let switches = context_switches();
    let mut record_us = Vec::with_capacity(per_window * windows);
    let mut watch = HostWatch::start();
    let windows = (0..windows)
        .map(|_| {
            let cpu0 = process_cpu_ns();
            let t0 = Instant::now();
            for _ in 0..per_window {
                record_us.push(ingest_one(rig, gen, check, tr));
            }
            let (wall_ns, cpu_ns) = (t0.elapsed().as_nanos() as u64, process_cpu_ns() - cpu0);
            IngestWindow {
                records: per_window as u64,
                wall_ns,
                cpu_ns,
                host: watch.lap(),
            }
        })
        .collect();
    IngestRun {
        windows,
        record_us,
        before,
        after: rig.cs.snapshot(),
        ctx_switches: context_switches() - switches,
    }
}

/// The crash: settles the log, takes the state digest a recovery must
/// reproduce, and drops the server. Returns the digest and what is
/// needed to recover.
pub fn crash(mut rig: Rig) -> (String, Population, DurabilityConfig) {
    rig.cs.sync_wal().expect("log settles");
    let digest = durable_digest(&rig.cs);
    (digest, rig.pop, rig.config)
}

/// One timed recovery and its verdict.
pub struct Recovery {
    /// Milliseconds, with the host yardstick either side.
    pub ms: Windowed,
    /// Commands replayed from the log past the snapshot.
    pub replayed: usize,
    /// Clean report (no replay errors, no torn bytes) and a state
    /// digest equal to the pre-crash one.
    pub ok: bool,
}

/// Rebuilds the range from its directory, timing `durability::recover`
/// alone. With `digest`, the recovered state must equal it: redelivery
/// is at-least-once — replay regenerates the deliveries of every
/// replayed read, which the pre-crash driver had already drained — so
/// the outbox is drained before digests compare. (Serialising the
/// state costs a third of a recovery; repeat recoveries of one
/// directory, which read the same bytes, check the report only.)
pub fn recover(
    pop: &Population,
    config: &DurabilityConfig,
    digest: Option<&str>,
    id: u64,
    tr: &mut Recorder,
) -> Recovery {
    let logic = pop.logic();
    let mut watch = HostWatch::start();
    let s = tr.open("recover", id);
    let t0 = Instant::now();
    let recovered = durability::recover(
        pop.id,
        pop.name.clone(),
        pop.plan.clone(),
        Registry::new(),
        config,
        &logic,
    );
    let elapsed = t0.elapsed();
    tr.close(s);
    let ms = watch.lap().window(elapsed.as_nanos() as f64 / 1e6);
    match recovered {
        Ok((mut cs, report)) => {
            let same_state = digest.is_none_or(|digest| {
                cs.drain_outbox();
                durable_digest(&cs) == digest
            });
            Recovery {
                ms,
                replayed: report.replayed,
                ok: report.replay_errors == 0 && report.torn_bytes == 0 && same_state,
            }
        }
        Err(_) => Recovery {
            ms,
            replayed: 0,
            ok: false,
        },
    }
}
