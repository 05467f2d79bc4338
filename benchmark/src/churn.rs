//! `control_churn`: the write side of the structures the federation
//! workloads only read. A serial [`Federation`] of three ranges holds
//! 500 standing subject-bound cross-range subscriptions; each cycle
//! submits one more from `range-0` (query XML encode → route → decode →
//! resolve → verify gate → instantiate → answer XML back), feeds it
//! four matching badge reads, drains exactly four deliveries and
//! cancels it. Every tenth cycle a door sensor leaves and rejoins, so
//! adaptation rewires every live configuration.

use std::time::Instant;

use sci_core::federation::Federation;
use sci_core::QueryAnswer;
use sci_overlay::SimNetwork;
use sci_telemetry::TelemetrySnapshot;
use sci_types::VirtualTime;

use crate::check::Checker;
use crate::gen::{Generator, Reading, DOORS, ROOMS, SUBJECTS};
use crate::rig::{app_guid, location_query, query_guid, Population};
use crate::stats::Host;
use crate::sys::{context_switches, process_cpu_ns, HostWatch};
use crate::trace::Recorder;

pub const RANGES: usize = 3;
/// Range the applications are homed at.
const HOME: usize = 0;
/// Range whose doors and `objLocationCE` serve every subscription.
const PRODUCER: usize = 1;
/// Badge reads (and so deliveries) per cycle.
pub const READS_PER_CYCLE: usize = 4;
/// A door sensor leaves and rejoins every this many cycles.
pub const REREGISTER_EVERY: u64 = 10;
/// The application that subscribes and cancels each cycle; standing
/// applications are `0..SUBJECTS`, one per subject.
const CHURN_APP: usize = SUBJECTS;

pub struct Rig {
    pub fed: Federation<SimNetwork>,
    pub pops: Vec<Population>,
    clock: u64,
    cycle: u64,
}

impl Rig {
    /// Builds the ranges and submits the standing subscriptions — what
    /// `setup_s` times.
    pub fn build(seed: u64) -> Self {
        let pops: Vec<Population> = (0..RANGES).map(Population::new).collect();
        let mut fed = Federation::new(seed);
        for pop in &pops {
            fed.add_range(pop.server()).expect("unique range");
        }
        fed.connect_full();
        for subject in 0..SUBJECTS {
            let q = location_query(
                query_guid(subject as u64),
                app_guid(subject),
                Some(subject),
                Some(&pops[PRODUCER].name),
            );
            let answer = fed
                .submit_from(&pops[HOME].name, &q, VirtualTime::ZERO)
                .expect("standing query resolves");
            assert!(matches!(answer.answer, QueryAnswer::Subscribed { .. }));
        }
        Rig {
            fed,
            pops,
            clock: 0,
            cycle: 0,
        }
    }

    fn tick(&mut self) -> VirtualTime {
        self.clock += 1;
        VirtualTime::from_micros(self.clock)
    }
}

/// One measured window of cycles.
#[derive(Clone, Debug)]
pub struct ChurnWindow {
    pub cycles: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// `submit_from` latency of each cycle, microseconds.
    pub submit_us: Vec<f64>,
    pub host: Host,
}

/// Runs one cycle; returns the `submit_from` latency in microseconds.
/// The cycle's outcome — `Subscribed`, exactly [`READS_PER_CYCLE`]
/// correct deliveries to each of the two subscribers, a clean cancel,
/// a clean re-registration — is recorded in `check`.
fn cycle(rig: &mut Rig, gen: &mut Generator, check: &mut Checker, tr: &mut Recorder) -> f64 {
    rig.cycle += 1;
    let id = rig.cycle;
    let subject = gen.pick(SUBJECTS);
    let query_id = query_guid(SUBJECTS as u64 + id);
    let query = location_query(
        query_id,
        app_guid(CHURN_APP),
        Some(subject),
        Some(&rig.pops[PRODUCER].name),
    );
    let readings: Vec<Reading> = (0..READS_PER_CYCLE)
        .map(|_| Reading {
            door: gen.pick(DOORS),
            subject,
            room: gen.pick(ROOMS),
        })
        .collect();
    let mut ok = true;

    let root = tr.open("cycle", id);
    let now = rig.tick();
    let s = tr.open("submit", id);
    let t0 = Instant::now();
    let answer = rig.fed.submit_from(&rig.pops[HOME].name, &query, now);
    let submit_us = t0.elapsed().as_nanos() as f64 / 1e3;
    tr.close(s);
    ok &= matches!(answer.map(|a| a.answer), Ok(QueryAnswer::Subscribed { .. }));

    for reading in &readings {
        let now = rig.tick();
        let event = rig.pops[PRODUCER].presence(reading, now);
        // Both the standing subscriber and this cycle's are owed it.
        check.expect(subject, reading);
        check.expect(CHURN_APP, reading);
        let s = tr.open("ingest_cast", id);
        ok &= rig
            .fed
            .ingest_at(&rig.pops[PRODUCER].name, &event, now)
            .is_ok();
        tr.close(s);
    }

    let s = tr.open("drain", id);
    for app in [subject, CHURN_APP] {
        let got = rig.fed.deliveries_for(app_guid(app));
        ok &= got.len() == READS_PER_CYCLE;
        for d in &got {
            check.observe(app, d, &rig.pops[PRODUCER]);
        }
    }
    tr.close(s);

    let now = rig.tick();
    let s = tr.open("cancel", id);
    let producer = rig
        .fed
        .server_mut(&rig.pops[PRODUCER].name)
        .expect("producer range exists");
    ok &= producer.cancel_query(query_id).is_ok();
    tr.close(s);

    if id.is_multiple_of(REREGISTER_EVERY) {
        let door = (id / REREGISTER_EVERY) as usize % DOORS;
        let s = tr.open("reregister", id);
        ok &= producer
            .deregister(rig.pops[PRODUCER].doors[door], now)
            .is_ok();
        ok &= producer
            .register(rig.pops[PRODUCER].door_profile(door), now)
            .is_ok();
        tr.close(s);
    }
    tr.close(root);
    check.record(ok);
    submit_us
}

pub struct ChurnRun {
    pub windows: Vec<ChurnWindow>,
    pub before: TelemetrySnapshot,
    pub after: TelemetrySnapshot,
    /// Context switches across the measured windows.
    pub ctx_switches: u64,
}

/// A 10 % warm-up, then `windows` measured windows of `per_window`
/// cycles each.
pub fn run(
    rig: &mut Rig,
    windows: usize,
    per_window: usize,
    gen: &mut Generator,
    check: &mut Checker,
    tr: &mut Recorder,
) -> ChurnRun {
    let mut off = Recorder::new(false);
    for _ in 0..per_window * windows / 10 {
        cycle(rig, gen, check, &mut off);
    }
    let before = rig.fed.snapshot();
    let switches = context_switches();
    let mut watch = HostWatch::start();
    let windows = (0..windows)
        .map(|_| {
            let cpu0 = process_cpu_ns();
            let t0 = Instant::now();
            let submit_us = (0..per_window)
                .map(|_| cycle(rig, gen, check, tr))
                .collect();
            let (wall_ns, cpu_ns) = (t0.elapsed().as_nanos() as u64, process_cpu_ns() - cpu0);
            ChurnWindow {
                cycles: per_window as u64,
                wall_ns,
                cpu_ns,
                submit_us,
                host: watch.lap(),
            }
        })
        .collect();
    ChurnRun {
        windows,
        before,
        after: rig.fed.snapshot(),
        ctx_switches: context_switches() - switches,
    }
}
