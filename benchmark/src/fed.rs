//! The two federation workloads' common machinery: build a
//! [`ParallelFederation`] of a given [`Shape`], then drive its `stream`
//! phase (batched ingest, free-running pumps, a closing `sync` per
//! window) and its `rtt` phase (one event, one barrier, one drain per
//! trip) from the single driver thread, closed loop.
//!
//! `relay_wire_durable` and `local_compose` differ only in their
//! shape — which transport, whether a WAL is attached, who subscribes
//! to what from where — so a change that moves one and not the other
//! is attributable to exactly that difference.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sci_core::runtime::ParallelFederation;
use sci_core::QueryAnswer;
use sci_overlay::Transport;
use sci_telemetry::TelemetrySnapshot;
use sci_types::{AppDelivery, ContextEvent, VirtualTime};

use crate::check::Checker;
use crate::gen::{Generator, Reading, SUBJECTS};
use crate::rig::{app_guid, attach_wal, location_query, query_guid, wal_config, Population};
use crate::stats::{percentile, Host, Windowed};
use crate::sys::{context_switches, process_cpu_ns, HostWatch};
use crate::trace::Recorder;

/// Events per `ingest_batch_at`.
pub const BATCH: usize = 100;

/// One subscribing application.
#[derive(Clone, Copy, Debug)]
pub struct AppSpec {
    /// Range the application is homed at (where it submits and drains).
    pub home: usize,
    /// Range whose `objLocationCE` produces its context.
    pub producer: usize,
    /// The one subject it follows, or everyone.
    pub subject: Option<usize>,
}

/// What distinguishes one federation workload from another.
#[derive(Clone, Debug)]
pub struct Shape {
    pub ranges: usize,
    pub apps: Vec<AppSpec>,
    /// Ranges that ingest badge reads, taken round-robin.
    pub ingest: Vec<usize>,
    /// Attach a WAL (`EveryN(32)`, snapshots off) to every range.
    pub durable: bool,
}

/// A built federation plus the benchmark's own view of it.
pub struct Rig<T: Transport> {
    pub fed: ParallelFederation<T>,
    pub pops: Vec<Population>,
    shape: Shape,
    /// Per producer range: the applications following everyone.
    unbound: Vec<Vec<usize>>,
    /// Per producer range and subject: the application bound to it.
    bound: Vec<Vec<Option<usize>>>,
    wal_dirs: Vec<PathBuf>,
    clock: u64,
    turn: usize,
}

impl<T: Transport> Rig<T> {
    /// Builds ranges, connects them and submits every standing query.
    /// This whole function is what `setup_s` times.
    pub fn build(shape: &Shape, transport: T, scratch: &Path, seed: u64) -> Self {
        let pops: Vec<Population> = (0..shape.ranges).map(Population::new).collect();
        let mut fed = ParallelFederation::with_transport(transport, seed);
        let mut wal_dirs = Vec::new();
        for pop in &pops {
            let mut cs = pop.server();
            if shape.durable {
                let dir = scratch.join(&pop.name);
                attach_wal(&mut cs, &wal_config(dir.clone(), 0));
                wal_dirs.push(dir);
            }
            fed.add_range(cs).expect("unique range");
        }
        fed.connect_full();

        let mut unbound = vec![Vec::new(); shape.ranges];
        let mut bound = vec![vec![None; SUBJECTS]; shape.ranges];
        for (i, app) in shape.apps.iter().enumerate() {
            let producer = &pops[app.producer].name;
            let query = location_query(
                query_guid(i as u64),
                app_guid(i),
                app.subject,
                (app.producer != app.home).then_some(producer.as_str()),
            );
            let answer = fed
                .submit_from(&pops[app.home].name, &query, VirtualTime::ZERO)
                .expect("standing query resolves");
            assert!(
                matches!(answer.answer, QueryAnswer::Subscribed { .. }),
                "standing query must subscribe, got {:?}",
                answer.answer
            );
            match app.subject {
                Some(s) => bound[app.producer][s] = Some(i),
                None => unbound[app.producer].push(i),
            }
        }
        Rig {
            fed,
            pops,
            shape: shape.clone(),
            unbound,
            bound,
            wal_dirs,
            clock: 0,
            turn: 0,
        }
    }

    /// Stops every worker, closes the transport and removes the WALs.
    pub fn teardown(self) {
        drop(self.fed.shutdown());
        for dir in &self.wal_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn tick(&mut self) -> VirtualTime {
        self.clock += 1;
        VirtualTime::from_micros(self.clock)
    }

    fn next_ingest_range(&mut self) -> usize {
        let range = self.shape.ingest[self.turn % self.shape.ingest.len()];
        self.turn += 1;
        range
    }

    /// The applications owed the location `reading` produces at `range`.
    fn audience(&self, range: usize, reading: &Reading) -> impl Iterator<Item = usize> + '_ {
        self.unbound[range]
            .iter()
            .copied()
            .chain(self.bound[range][reading.subject])
    }

    /// Draws one reading for `range`: the event to ingest, with its
    /// expectations registered and its audience added to `owed_apps`.
    fn draw(
        &mut self,
        range: usize,
        gen: &mut Generator,
        check: &mut Checker,
        owed_apps: &mut Vec<usize>,
    ) -> ContextEvent {
        let reading = gen.reading();
        let at = self.tick();
        for app in self.audience(range, &reading) {
            check.expect(app, &reading);
            owed_apps.push(app);
        }
        self.pops[range].presence(&reading, at)
    }

    /// Drains `apps` and settles what they received; returns how many
    /// deliveries that was.
    fn drain(&mut self, apps: &[usize], check: &mut Checker) -> u64 {
        let mut n = 0;
        for &app in apps {
            let producer = &self.pops[self.shape.apps[app].producer];
            for d in self.fed.deliveries_for(app_guid(app)) {
                check.observe(app, &d, producer);
                n += 1;
            }
        }
        n
    }

    fn all_apps(&self) -> Vec<usize> {
        (0..self.shape.apps.len()).collect()
    }
}

/// One measured `stream` window.
#[derive(Clone, Copy, Debug)]
pub struct StreamWindow {
    pub events: u64,
    pub deliveries: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub host: Host,
}

impl StreamWindow {
    /// Thousand application deliveries per wall second.
    pub fn delivered_kps(&self) -> Windowed {
        self.host
            .window(self.deliveries as f64 / (self.wall_ns as f64 / 1e9) / 1e3)
    }

    /// Process CPU microseconds per delivery.
    pub fn cpu_us_per_delivery(&self) -> Windowed {
        self.host
            .window(self.cpu_ns as f64 / 1e3 / self.deliveries.max(1) as f64)
    }

    /// Wall microseconds per ingested event.
    pub fn wall_us_per_event(&self) -> Windowed {
        self.host
            .window(self.wall_ns as f64 / 1e3 / self.events as f64)
    }
}

/// A batch ready to ingest: its range, its events, who is owed.
struct Batch {
    range: usize,
    events: Vec<ContextEvent>,
    owed_apps: Vec<usize>,
}

/// Runs `batches` batches as one window: per batch an
/// `ingest_batch_at`, a free-running `pump_streams` and a drain of the
/// batch's audience; then the closing `sync` and a drain of everyone,
/// which leaves every thread but the driver idle — the yardstick is
/// read there. Events and expectations are generated before the clock
/// starts.
fn stream_window<T: Transport>(
    rig: &mut Rig<T>,
    batches: usize,
    gen: &mut Generator,
    check: &mut Checker,
    tr: &mut Recorder,
    batch_id: &mut u64,
    watch: &mut HostWatch,
) -> StreamWindow {
    let prepared: Vec<Batch> = (0..batches)
        .map(|_| {
            let range = rig.next_ingest_range();
            let mut owed_apps = Vec::new();
            let events = (0..BATCH)
                .map(|_| rig.draw(range, gen, check, &mut owed_apps))
                .collect();
            owed_apps.sort_unstable();
            owed_apps.dedup();
            Batch {
                range,
                events,
                owed_apps,
            }
        })
        .collect();
    let everyone = rig.all_apps();

    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let mut deliveries = 0;
    for batch in &prepared {
        *batch_id += 1;
        let now = VirtualTime::from_micros(rig.clock);
        let root = tr.open("batch", *batch_id);
        let s = tr.open("ingest_cast", *batch_id);
        rig.fed
            .ingest_batch_at(&rig.pops[batch.range].name, &batch.events, now)
            .expect("batch is accepted");
        tr.close(s);
        let s = tr.open("pump", *batch_id);
        rig.fed.pump_streams(now).expect("pump relays");
        tr.close(s);
        let s = tr.open("drain", *batch_id);
        deliveries += rig.drain(&batch.owed_apps, check);
        tr.close(s);
        tr.close(root);
    }
    let now = VirtualTime::from_micros(rig.clock);
    let root = tr.open("close", *batch_id);
    let s = tr.open("sync", *batch_id);
    rig.fed.sync(now).expect("closing sync");
    tr.close(s);
    let s = tr.open("drain", *batch_id);
    deliveries += rig.drain(&everyone, check);
    tr.close(s);
    tr.close(root);
    let (wall_ns, cpu_ns) = (t0.elapsed().as_nanos() as u64, process_cpu_ns() - cpu0);
    StreamWindow {
        events: (batches * BATCH) as u64,
        deliveries,
        wall_ns,
        cpu_ns,
        host: watch.lap(),
    }
}

/// What the measured windows of a `stream` phase did.
pub struct StreamRun {
    pub windows: Vec<StreamWindow>,
    /// The federation's telemetry before and after them.
    pub before: TelemetrySnapshot,
    pub after: TelemetrySnapshot,
    /// Context switches of all threads across them.
    pub ctx_switches: u64,
}

/// The `stream` phase: a 10 % warm-up window, then `windows` measured
/// windows of `per_window` batches each.
pub fn stream_phase<T: Transport>(
    rig: &mut Rig<T>,
    windows: usize,
    per_window: usize,
    gen: &mut Generator,
    check: &mut Checker,
    tr: &mut Recorder,
) -> StreamRun {
    let mut batch_id = 0;
    let mut warm = Recorder::new(false);
    let warmup = (per_window * windows / 10).max(1);
    let mut watch = HostWatch::start();
    stream_window(
        rig,
        warmup,
        gen,
        check,
        &mut warm,
        &mut batch_id,
        &mut watch,
    );
    let before = rig.fed.snapshot();
    let switches = context_switches();
    let windows = (0..windows)
        .map(|_| stream_window(rig, per_window, gen, check, tr, &mut batch_id, &mut watch))
        .collect();
    StreamRun {
        windows,
        before,
        after: rig.fed.snapshot(),
        ctx_switches: context_switches() - switches,
    }
}

/// One measured `rtt` window: percentiles of its trips' latencies (µs)
/// with the host yardstick either side.
#[derive(Clone, Copy, Debug)]
pub struct RttWindow {
    pub p50: Windowed,
    pub p90: Windowed,
    pub p99: Windowed,
}

/// The `rtt` phase: after a 10 % warm-up, `windows` windows of
/// `per_window` single-event round trips, each trip timed from
/// `ingest_at` through `sync` until every owed delivery is drained.
/// Every trip ends with all threads idle, so the yardstick can be read
/// between windows.
pub fn rtt_phase<T: Transport>(
    rig: &mut Rig<T>,
    windows: usize,
    per_window: usize,
    gen: &mut Generator,
    check: &mut Checker,
    tr: &mut Recorder,
) -> Vec<RttWindow> {
    let mut got: Vec<(usize, AppDelivery)> = Vec::new();
    let mut owed_apps = Vec::new();
    let mut trip_id = 0u64;
    let mut trip = |rig: &mut Rig<T>, check: &mut Checker, tr: &mut Recorder| {
        trip_id += 1;
        let id = trip_id;
        let range = rig.next_ingest_range();
        owed_apps.clear();
        let event = rig.draw(range, gen, check, &mut owed_apps);
        let now = event.timestamp;

        let t0 = Instant::now();
        let root = tr.open("trip", id);
        let s = tr.open("ingest_cast", id);
        rig.fed
            .ingest_at(&rig.pops[range].name, &event, now)
            .expect("event is accepted");
        tr.close(s);
        let s = tr.open("sync", id);
        rig.fed.sync(now).expect("trip barrier");
        tr.close(s);
        let s = tr.open("drain", id);
        for &app in &owed_apps {
            got.extend(
                rig.fed
                    .deliveries_for(app_guid(app))
                    .into_iter()
                    .map(|d| (app, d)),
            );
        }
        tr.close(s);
        tr.close(root);
        let us = t0.elapsed().as_nanos() as f64 / 1e3;

        for (app, d) in got.drain(..) {
            check.observe(app, &d, &rig.pops[rig.shape.apps[app].producer]);
        }
        us
    };

    let mut off = Recorder::new(false);
    for _ in 0..windows * per_window / 10 {
        trip(rig, check, &mut off);
    }
    let mut watch = HostWatch::start();
    let measured = (0..windows)
        .map(|_| {
            let samples: Vec<f64> = (0..per_window).map(|_| trip(rig, check, tr)).collect();
            let host = watch.lap();
            RttWindow {
                p50: host.window(percentile(&samples, 50.0)),
                p90: host.window(percentile(&samples, 90.0)),
                p99: host.window(percentile(&samples, 99.0)),
            }
        })
        .collect();
    // A delivery that went to anyone not owed it surfaces here.
    let everyone = rig.all_apps();
    rig.drain(&everyone, check);
    measured
}
