//! E10 — parallel multi-range execution. The serial [`Federation`]
//! processes every range's ingest inline on the coordinator thread; the
//! [`ParallelFederation`] runs one runtime thread per range and
//! pipelines ingest commands into per-range mailboxes, paying one
//! barrier (`sync`) per batch. This harness drives the E7 relay
//! workload — per-range subscribers, round-robin ingest across ranges —
//! through both drivers for ranges ∈ {1, 2, 4, 8, 16} and reports
//! end-to-end event throughput.
//!
//! The harness prints the shape rows, discussed in `EXPERIMENTS.md`
//! (§E10), with `available_cores`: the speedup ceiling is
//! `min(ranges, cores)`, so on a single-core container the parallel
//! driver can only show its pipelining win, not true multi-core
//! scaling.
//!
//! Each row also carries the parallel driver's per-phase breakdown,
//! read as histogram-sum deltas from the federation telemetry snapshot
//! around the measured batch: `cast_us` (enqueue into per-range
//! mailboxes), `barrier_us` (the `sync` drain), `relay_us` (cross-range
//! event/answer relaying) — plus `mailbox_highwater`, the deepest
//! mailbox the run observed (`range.mailbox.highwater`). The mailboxes
//! are unbounded, so a deep highwater means workers fell behind the
//! driver's casts (see EXPERIMENTS.md §E10 on the 16-range spike).
//!
//! Two tables are printed. The first is the barrier shape (per-event
//! `ingest_at`, one big `sync`). The second is the streaming shape
//! (per-range `ingest_batch_at`, free-running `pump_streams` rounds, a
//! closing `sync`) and reports the sustained throughput.
//!
//! ```text
//! cargo bench --bench e10_federation_parallel
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "a bench times itself with the wall clock"
)]

use std::time::{Duration, Instant};

use sci_core::context_server::ContextServer;
use sci_core::federation::Federation;
use sci_core::runtime::ParallelFederation;
use sci_location::{FloorPlan, Rect};
use sci_query::{Mode, Query};
use sci_telemetry::TelemetrySnapshot;
use sci_types::guid::GuidGenerator;
use sci_types::{
    ContextEvent, ContextType, ContextValue, Coord, EntityKind, Guid, PortSpec, Profile,
    VirtualTime,
};

const RANGE_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];
/// Events ingested into every range per measured batch.
const EVENTS_PER_RANGE: u64 = 500;

fn range_plan(i: usize) -> FloorPlan {
    FloorPlan::builder("campus")
        .zone(format!("wing-{i}"))
        .room(
            format!("hall-{i}"),
            Rect::with_size(Coord::new(0.0, 0.0), 20.0, 10.0),
        )
        .build()
        .expect("static plan")
}

fn server(i: usize, ids: &mut GuidGenerator) -> (ContextServer, Guid) {
    let mut cs = ContextServer::new(ids.next_guid(), format!("range-{i}"), range_plan(i));
    let sensor = ids.next_guid();
    cs.register(
        Profile::builder(sensor, EntityKind::Device, format!("sensor-{i}"))
            .output(PortSpec::new("p", ContextType::Presence))
            .attribute("service", ContextValue::text("sensing"))
            .build(),
        VirtualTime::ZERO,
    )
    .expect("fresh");
    (cs, sensor)
}

fn subscription(i: usize, ids: &mut GuidGenerator) -> (Guid, Query) {
    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info(ContextType::Presence)
        .in_range(format!("range-{i}"))
        .mode(Mode::Subscribe)
        .build();
    (app, q)
}

fn event(sensor: Guid, k: u64, t: VirtualTime) -> ContextEvent {
    ContextEvent::new(
        sensor,
        ContextType::Presence,
        ContextValue::record([("subject", ContextValue::Id(Guid::from_u128(u128::from(k))))]),
        t,
    )
}

struct SerialRig {
    fed: Federation,
    sensors: Vec<Guid>,
    apps: Vec<Guid>,
    clock: u64,
}

fn build_serial(ranges: usize, seed: u64) -> SerialRig {
    let mut ids = GuidGenerator::seeded(seed);
    let mut fed = Federation::new(seed);
    let mut sensors = Vec::new();
    for i in 0..ranges {
        let (cs, sensor) = server(i, &mut ids);
        sensors.push(sensor);
        fed.add_range(cs).expect("unique");
    }
    fed.connect_full();
    let mut apps = Vec::new();
    for i in 0..ranges {
        let (app, q) = subscription(i, &mut ids);
        fed.submit_from(&format!("range-{i}"), &q, VirtualTime::ZERO)
            .expect("subscribes");
        apps.push(app);
    }
    SerialRig {
        fed,
        sensors,
        apps,
        clock: 0,
    }
}

struct ParallelRig {
    fed: ParallelFederation,
    sensors: Vec<Guid>,
    apps: Vec<Guid>,
    clock: u64,
}

fn build_parallel(ranges: usize, seed: u64) -> ParallelRig {
    let mut ids = GuidGenerator::seeded(seed);
    let mut fed = ParallelFederation::new(seed);
    let mut sensors = Vec::new();
    for i in 0..ranges {
        let (cs, sensor) = server(i, &mut ids);
        sensors.push(sensor);
        fed.add_range(cs).expect("unique");
    }
    fed.connect_full();
    let mut apps = Vec::new();
    for i in 0..ranges {
        let (app, q) = subscription(i, &mut ids);
        fed.submit_from(&format!("range-{i}"), &q, VirtualTime::ZERO)
            .expect("subscribes");
        apps.push(app);
    }
    ParallelRig {
        fed,
        sensors,
        apps,
        clock: 0,
    }
}

/// One batch through the serial driver: every ingest is processed
/// inline. Returns elapsed time and total deliveries drained.
fn serial_batch(rig: &mut SerialRig, per_range: u64) -> (Duration, usize) {
    let start = Instant::now();
    for k in 0..per_range {
        for (j, &sensor) in rig.sensors.iter().enumerate() {
            rig.clock += 1;
            let t = VirtualTime::from_micros(rig.clock);
            rig.fed
                .ingest_at(&format!("range-{j}"), &event(sensor, rig.clock + k, t), t)
                .expect("ingests");
        }
    }
    let delivered: usize = rig
        .apps
        .clone()
        .into_iter()
        .map(|app| rig.fed.deliveries_for(app).len())
        .sum();
    (start.elapsed(), delivered)
}

/// One batch through the parallel driver: ingests pipeline into the
/// per-range mailboxes, then one `sync` barrier flushes outboxes.
fn parallel_batch(rig: &mut ParallelRig, per_range: u64) -> (Duration, usize) {
    let start = Instant::now();
    for k in 0..per_range {
        for (j, &sensor) in rig.sensors.iter().enumerate() {
            rig.clock += 1;
            let t = VirtualTime::from_micros(rig.clock);
            rig.fed
                .ingest_at(&format!("range-{j}"), &event(sensor, rig.clock + k, t), t)
                .expect("ingests");
        }
    }
    rig.fed
        .sync(VirtualTime::from_micros(rig.clock))
        .expect("syncs");
    let delivered: usize = rig
        .apps
        .clone()
        .into_iter()
        .map(|app| rig.fed.deliveries_for(app).len())
        .sum();
    (start.elapsed(), delivered)
}

/// Steady-state rounds per measured streaming batch: each round is a
/// per-range `ingest_batch_at` (one mailbox send for the whole batch)
/// chased by a free-running `pump_streams` pass; a closing `sync`
/// settles the tail.
const STREAM_ROUNDS: u64 = 5;

/// One streaming round: batch-ingest `per_range` events into every
/// range, then pump whatever has streamed so far.
fn streaming_round(rig: &mut ParallelRig, per_range: u64) {
    for j in 0..rig.sensors.len() {
        let sensor = rig.sensors[j];
        let mut batch = Vec::with_capacity(per_range as usize);
        for _ in 0..per_range {
            rig.clock += 1;
            let t = VirtualTime::from_micros(rig.clock);
            batch.push(event(sensor, rig.clock, t));
        }
        let t = VirtualTime::from_micros(rig.clock);
        rig.fed
            .ingest_batch_at(&format!("range-{j}"), &batch, t)
            .expect("ingests");
    }
    rig.fed
        .pump_streams(VirtualTime::from_micros(rig.clock))
        .expect("pumps");
}

/// One measured streaming batch: `STREAM_ROUNDS` steady-state rounds,
/// then one closing `sync`. Returns elapsed time and deliveries
/// drained — the sustained-throughput shape of the streaming design,
/// vs `parallel_batch`'s one-big-barrier shape.
fn streaming_batch(rig: &mut ParallelRig, per_range: u64) -> (Duration, usize) {
    let per_round = (per_range / STREAM_ROUNDS).max(1);
    let start = Instant::now();
    for _ in 0..STREAM_ROUNDS {
        streaming_round(rig, per_round);
    }
    rig.fed
        .sync(VirtualTime::from_micros(rig.clock))
        .expect("syncs");
    let delivered: usize = rig
        .apps
        .clone()
        .into_iter()
        .map(|app| rig.fed.deliveries_for(app).len())
        .sum();
    (start.elapsed(), delivered)
}

/// The instrumented phases of a parallel batch, as cumulative
/// histogram sums (microseconds) from the telemetry snapshot.
const PHASES: [&str; 4] = [
    "federation.cast_us",
    "federation.barrier_us",
    "federation.relay_us",
    "federation.stream.pump_us",
];

fn phase_sums(snap: &TelemetrySnapshot) -> [u64; 4] {
    PHASES.map(|name| snap.histogram(name).map_or(0, |h| h.sum))
}

struct Row {
    ranges: usize,
    events: u64,
    serial_us: f64,
    parallel_us: f64,
    /// Per-phase time (us) spent in the measured parallel batch.
    cast_us: u64,
    barrier_us: u64,
    relay_us: u64,
    /// Deepest per-range mailbox observed (`range.mailbox.highwater`):
    /// how far the workers fell behind the driver's casts — the §E10
    /// spike.
    mailbox_highwater: i64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.serial_us / self.parallel_us
    }

    fn serial_keps(&self) -> f64 {
        self.events as f64 / self.serial_us * 1e3
    }

    fn parallel_keps(&self) -> f64 {
        self.events as f64 / self.parallel_us * 1e3
    }
}

/// The sustained-throughput row for the streaming driver: batched
/// ingest + continuous pumps, measured over `STREAM_ROUNDS`
/// steady-state rounds against the same serial baseline.
struct StreamRow {
    ranges: usize,
    events: u64,
    serial_us: f64,
    stream_us: f64,
    /// Per-phase time (us) spent in the measured streaming batch.
    cast_us: u64,
    pump_us: u64,
    /// Deepest per-range mailbox observed in the streaming run.
    mailbox_highwater: i64,
}

impl StreamRow {
    fn speedup(&self) -> f64 {
        self.serial_us / self.stream_us
    }

    /// Sustained end-to-end throughput of the streaming driver.
    fn sustained_keps(&self) -> f64 {
        self.events as f64 / self.stream_us * 1e3
    }
}

fn measure_rows() -> (Vec<Row>, Vec<StreamRow>) {
    let mut stream_rows = Vec::new();
    let rows = RANGE_SWEEP
        .iter()
        .map(|&ranges| {
            let events = EVENTS_PER_RANGE * ranges as u64;

            let mut serial = build_serial(ranges, 17);
            // Warm-up batch, then the measured one.
            serial_batch(&mut serial, 50);
            let (serial_t, serial_n) = serial_batch(&mut serial, EVENTS_PER_RANGE);
            assert_eq!(serial_n as u64, events, "serial loses deliveries");
            let serial_us = serial_t.as_secs_f64() * 1e6;

            let mut parallel = build_parallel(ranges, 17);
            parallel_batch(&mut parallel, 50);
            let before = phase_sums(&parallel.fed.snapshot());
            let (parallel_t, parallel_n) = parallel_batch(&mut parallel, EVENTS_PER_RANGE);
            assert_eq!(parallel_n as u64, events, "parallel loses deliveries");
            let after_snap = parallel.fed.snapshot();
            let after = phase_sums(&after_snap);
            let parallel_highwater = after_snap.gauge("range.mailbox.highwater");
            parallel.fed.shutdown();

            let mut stream = build_parallel(ranges, 17);
            streaming_batch(&mut stream, 50);
            let s_before = phase_sums(&stream.fed.snapshot());
            let (stream_t, stream_n) = streaming_batch(&mut stream, EVENTS_PER_RANGE);
            assert_eq!(stream_n as u64, events, "streaming loses deliveries");
            let s_snap = stream.fed.snapshot();
            let s_after = phase_sums(&s_snap);
            stream.fed.shutdown();

            stream_rows.push(StreamRow {
                ranges,
                events,
                serial_us,
                stream_us: stream_t.as_secs_f64() * 1e6,
                cast_us: s_after[0].saturating_sub(s_before[0]),
                pump_us: s_after[3].saturating_sub(s_before[3]),
                mailbox_highwater: s_snap.gauge("range.mailbox.highwater"),
            });

            Row {
                ranges,
                events,
                serial_us,
                parallel_us: parallel_t.as_secs_f64() * 1e6,
                cast_us: after[0].saturating_sub(before[0]),
                barrier_us: after[1].saturating_sub(before[1]),
                relay_us: after[2].saturating_sub(before[2]),
                mailbox_highwater: parallel_highwater,
            }
        })
        .collect();
    (rows, stream_rows)
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn print_shape_table(rows: &[Row]) {
    println!(
        "\nE10: serial vs parallel federation, {} events/range ({} cores available)",
        EVENTS_PER_RANGE,
        available_cores()
    );
    println!(
        "{:>7} | {:>12} {:>14} {:>12} {:>14} {:>8} | {:>9} {:>10} {:>9} {:>9}",
        "ranges",
        "serial (us)",
        "(kevents/s)",
        "parallel (us)",
        "(kevents/s)",
        "speedup",
        "cast (us)",
        "barrier(us)",
        "relay(us)",
        "highwater"
    );
    for r in rows {
        println!(
            "{:>7} | {:>12.0} {:>14.1} {:>12.0} {:>14.1} {:>7.2}x | {:>9} {:>10} {:>9} {:>9}",
            r.ranges,
            r.serial_us,
            r.serial_keps(),
            r.parallel_us,
            r.parallel_keps(),
            r.speedup(),
            r.cast_us,
            r.barrier_us,
            r.relay_us,
            r.mailbox_highwater
        );
    }
    println!();
}

fn print_stream_table(rows: &[StreamRow]) {
    println!(
        "E10/stream: batched ingest + continuous pumps, {} rounds/batch ({} cores available)",
        STREAM_ROUNDS,
        available_cores()
    );
    println!(
        "{:>7} | {:>12} {:>12} {:>8} {:>22} | {:>9} {:>9} {:>9}",
        "ranges",
        "serial (us)",
        "stream (us)",
        "speedup",
        "sustained (kevents/s)",
        "cast (us)",
        "pump (us)",
        "highwater"
    );
    for r in rows {
        println!(
            "{:>7} | {:>12.0} {:>12.0} {:>7.2}x {:>22.1} | {:>9} {:>9} {:>9}",
            r.ranges,
            r.serial_us,
            r.stream_us,
            r.speedup(),
            r.sustained_keps(),
            r.cast_us,
            r.pump_us,
            r.mailbox_highwater
        );
    }
    println!();
}

fn main() {
    let (rows, stream_rows) = measure_rows();
    print_shape_table(&rows);
    print_stream_table(&stream_rows);
}
