//! E12 — the durability tax and the recovery trajectory.
//!
//! The `ingest` group streams an identical presence workload through a
//! one-range [`ParallelFederation`] three times: WAL off (the
//! baseline), WAL attached with `FsyncPolicy::EveryN(32)` (the
//! shipping default), and `FsyncPolicy::Always` (the paranoid bound).
//! Events travel the batched streaming path every federation bench
//! uses — `IngestBatch` casts, append-before-apply, dispatch to a
//! standing subscriber, stream flush, closing sync — so
//! `overhead_pct` is the end-to-end price of durability on the
//! production ingestion path, not an isolated append micro-cost (the
//! Criterion probe below covers that). The acceptance line is the
//! `every32` row: ≤ 15% over the `off` baseline.
//!
//! The `recover` group builds logs of 1k and 5k durable commands and
//! wall-clocks [`durability::recover`] over them, plus a
//! snapshot-enabled 5k variant showing the replay bound: with
//! `snapshot_every = 512` the recovered row replays < 512 commands no
//! matter how long the history grew.
//!
//! Shape rows land in `BENCH_durability.json` at the repo root —
//! compared by `scripts/bench_compare.py` (`ingest_us` and
//! `sustained_kevents_s` gated at 3.0x, `overhead_pct` / `recover_us`
//! informational; fsync latency belongs to the runner's disk).
//!
//! The Criterion group keeps a cheap steady-state probe on the raw
//! [`sci_wal::SegmentLog`] append path, away from federation noise.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sci_core::context_server::ContextServer;
use sci_core::durability::{self, DurabilityConfig};
use sci_core::runtime::{ParallelFederation, RangeCommand};
use sci_location::{FloorPlan, Rect};
use sci_query::{Mode, Query};
use sci_telemetry::{catalogue, Registry};
use sci_types::{
    ContextEvent, ContextType, ContextValue, Coord, EntityKind, Guid, PortSpec, Profile,
    VirtualTime,
};
use sci_wal::{Frame, FsyncPolicy, SegmentLog};

/// Events per measured ingest row (after warm-up).
const EVENTS: u64 = 6_000;
/// Events per [`RangeCommand::IngestBatch`] — the batched streaming
/// path every other federation bench uses, and the unit of one WAL
/// append. (`IngestBatch` is a single durable command, so the append
/// and its fsync discipline amortise across the batch exactly as they
/// do in production streaming.)
const BATCH: u64 = 200;
/// Warm-up events kept out of the measured window.
const WARMUP: u64 = 200;

const RANGE_ID: u128 = 0xE12;
const SENSOR: u128 = 0x5E50;
const APP: u128 = 0xA990;

fn plan() -> FloorPlan {
    FloorPlan::builder("campus")
        .zone("wing-e12")
        .room("hall", Rect::with_size(Coord::new(0.0, 0.0), 20.0, 10.0))
        .build()
        .expect("static plan")
}

fn presence(sensor: Guid, subject: u64, at: VirtualTime) -> ContextEvent {
    ContextEvent::new(
        sensor,
        ContextType::Presence,
        ContextValue::record([(
            "subject",
            ContextValue::Id(Guid::from_u128(0xBEEF_0000 + u128::from(subject))),
        )]),
        at,
    )
}

/// A unique scratch directory per call, removed by the caller.
fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("sci-e12-{tag}-{}-{n}", std::process::id()))
}

struct Row {
    group: &'static str,
    mode: &'static str,
    events: u64,
    ingest_us: f64,
    sustained_kevents_s: f64,
    overhead_pct: f64,
    wal_bytes: u64,
    records: u64,
    replayed: u64,
    recover_us: f64,
}

impl Row {
    fn blank(group: &'static str, mode: &'static str) -> Row {
        Row {
            group,
            mode,
            events: 0,
            ingest_us: 0.0,
            sustained_kevents_s: 0.0,
            overhead_pct: 0.0,
            wal_bytes: 0,
            records: 0,
            replayed: 0,
            recover_us: 0.0,
        }
    }
}

/// One ingest row: stream `EVENTS` presence events through a durable
/// (or WAL-off) range with a live subscriber, wall-clocked end to end
/// including the closing sync barrier.
fn measure_ingest(mode: &'static str, fsync: Option<FsyncPolicy>) -> Row {
    let dir = tmpdir(mode);
    let range_id = Guid::from_u128(RANGE_ID);
    let sensor = Guid::from_u128(SENSOR);
    let app = Guid::from_u128(APP);

    let mut cs = ContextServer::new(range_id, "range-0", plan());
    cs.register(
        Profile::builder(sensor, EntityKind::Device, "sensor-0")
            .output(PortSpec::new("p", ContextType::Presence))
            .build(),
        VirtualTime::ZERO,
    )
    .expect("fresh sensor");
    if let Some(policy) = fsync {
        let config = DurabilityConfig {
            dir: dir.clone(),
            fsync: policy,
            segment_bytes: 8 * 1024 * 1024,
            snapshot_every: 0, // isolate the append cost
        };
        durability::attach(&mut cs, &config, VirtualTime::ZERO).expect("wal attaches");
    }

    let mut fed = ParallelFederation::new(0xE12);
    fed.add_range(cs).expect("unique range");
    let q = Query::builder(Guid::from_u128(0x100), app)
        .info(ContextType::Presence)
        .mode(Mode::Subscribe)
        .build();
    fed.submit_from("range-0", &q, VirtualTime::ZERO)
        .expect("subscriber");

    let mut clock = 0u64;
    let mut next_subject = 0u64;
    let mut batch_of = |n: u64, clock: &mut u64| -> Vec<ContextEvent> {
        (0..n)
            .map(|_| {
                *clock += 1;
                next_subject += 1;
                presence(sensor, next_subject, VirtualTime::from_micros(*clock))
            })
            .collect()
    };
    let warmup = batch_of(WARMUP, &mut clock);
    fed.ingest_batch_at("range-0", &warmup, VirtualTime::from_micros(clock))
        .expect("warm-up ingests");
    fed.sync(VirtualTime::from_micros(clock))
        .expect("warm-up syncs");

    let start = Instant::now();
    for _ in 0..EVENTS / BATCH {
        let batch = batch_of(BATCH, &mut clock);
        fed.ingest_batch_at("range-0", &batch, VirtualTime::from_micros(clock))
            .expect("ingests");
        fed.pump_streams(VirtualTime::from_micros(clock))
            .expect("pumps");
    }
    fed.sync(VirtualTime::from_micros(clock))
        .expect("closing sync");
    let elapsed = start.elapsed().as_secs_f64();

    let deliveries = fed.deliveries_for(app).len() as u64;
    assert!(
        deliveries >= EVENTS,
        "subscriber saw {deliveries} of {EVENTS} streamed events"
    );
    let servers = fed.shutdown();
    let wal_bytes = servers
        .iter()
        .find(|cs| cs.id() == range_id)
        .map_or(0, |cs| cs.telemetry().counter(catalogue::WAL_BYTES).get());
    let _ = std::fs::remove_dir_all(&dir);

    Row {
        events: EVENTS,
        ingest_us: elapsed * 1e6 / EVENTS as f64,
        sustained_kevents_s: EVENTS as f64 / elapsed / 1e3,
        wal_bytes,
        ..Row::blank("ingest", mode)
    }
}

/// One recovery row: build a WAL of `records` durable ingests (plus a
/// standing subscription, so replay re-runs real dispatch work), drop
/// the server, then wall-clock [`durability::recover`] over the log.
fn measure_recover(mode: &'static str, records: u64, snapshot_every: u64) -> Row {
    let dir = tmpdir(mode);
    let range_id = Guid::from_u128(RANGE_ID);
    let sensor = Guid::from_u128(SENSOR);
    let config = DurabilityConfig {
        dir: dir.clone(),
        fsync: FsyncPolicy::Never, // build fast; recovery reads regardless
        segment_bytes: 4 * 1024 * 1024,
        snapshot_every,
    };

    let mut cs = ContextServer::new(range_id, "range-0", plan());
    cs.register(
        Profile::builder(sensor, EntityKind::Device, "sensor-0")
            .output(PortSpec::new("p", ContextType::Presence))
            .build(),
        VirtualTime::ZERO,
    )
    .expect("fresh sensor");
    durability::attach(&mut cs, &config, VirtualTime::ZERO).expect("wal attaches");
    let q = Query::builder(Guid::from_u128(0x100), Guid::from_u128(APP))
        .info(ContextType::Presence)
        .mode(Mode::Subscribe)
        .build();
    cs.handle(RangeCommand::Submit(Box::new(q)), VirtualTime::ZERO)
        .expect("subscriber");
    for i in 0..records {
        cs.handle(
            RangeCommand::Ingest(presence(sensor, i, VirtualTime::from_micros(i + 1))),
            VirtualTime::from_micros(i + 1),
        )
        .expect("durable ingest");
    }
    cs.sync_wal().expect("log settles");
    drop(cs);

    let logic = HashMap::new();
    let start = Instant::now();
    let (_recovered, report) = durability::recover(
        range_id,
        "range-0",
        plan(),
        Registry::new(),
        &config,
        &logic,
    )
    .expect("recovers");
    let recover_us = start.elapsed().as_secs_f64() * 1e6;
    assert_eq!(report.torn_bytes, 0, "clean shutdown left a torn tail");
    assert_eq!(report.replay_errors, 0, "replay diverged: {report:?}");
    if snapshot_every > 0 {
        assert!(
            (report.replayed as u64) < snapshot_every,
            "snapshot failed to bound replay: {} >= {snapshot_every}",
            report.replayed
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    Row {
        records,
        replayed: report.replayed as u64,
        recover_us,
        ..Row::blank("recover", mode)
    }
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn write_json(rows: &[Row]) {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            if r.group == "ingest" {
                format!(
                    "    {{\"group\": \"ingest\", \"mode\": \"{}\", \"events\": {}, \
                     \"ingest_us\": {:.3}, \"sustained_kevents_s\": {:.1}, \
                     \"overhead_pct\": {:.1}, \"wal_bytes\": {}}}",
                    r.mode,
                    r.events,
                    r.ingest_us,
                    r.sustained_kevents_s,
                    r.overhead_pct,
                    r.wal_bytes
                )
            } else {
                format!(
                    "    {{\"group\": \"recover\", \"mode\": \"{}\", \"records\": {}, \
                     \"replayed\": {}, \"recover_us\": {:.1}}}",
                    r.mode, r.records, r.replayed, r.recover_us
                )
            }
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e12_durability\",\n  \"unit\": \"us\",\n  \
         \"available_cores\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        available_cores(),
        body.join(",\n")
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_durability.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn print_table(rows: &[Row]) {
    println!(
        "\nE12: durability tax, {} streamed events/row ({} cores available)",
        EVENTS,
        available_cores()
    );
    println!(
        "{:>12} | {:>12} {:>21} {:>10} {:>11} | {:>8} {:>9} {:>12}",
        "mode",
        "ingest",
        "sustained (kevents/s)",
        "overhead",
        "wal bytes",
        "records",
        "replayed",
        "recover"
    );
    for r in rows {
        if r.group == "ingest" {
            println!(
                "{:>12} | {:>9.2} us {:>21.1} {:>9.1}% {:>11} |",
                r.mode, r.ingest_us, r.sustained_kevents_s, r.overhead_pct, r.wal_bytes
            );
        } else {
            println!(
                "{:>12} | {:>12} {:>21} {:>10} {:>11} | {:>8} {:>9} {:>9.0} us",
                r.mode, "", "", "", "", r.records, r.replayed, r.recover_us
            );
        }
    }
    println!();
}

fn bench_durability(c: &mut Criterion) {
    let mut rows = vec![
        measure_ingest("off", None),
        measure_ingest("every32", Some(FsyncPolicy::EveryN(32))),
        measure_ingest("always", Some(FsyncPolicy::Always)),
    ];
    let baseline_us = rows[0].ingest_us;
    for r in &mut rows {
        r.overhead_pct = (r.ingest_us / baseline_us - 1.0) * 100.0;
    }
    rows.push(measure_recover("replay-1k", 1_000, 0));
    rows.push(measure_recover("replay-5k", 5_000, 0));
    rows.push(measure_recover("snapshot-5k", 5_000, 512));
    print_table(&rows);
    write_json(&rows);

    // Steady-state probe: the raw segment append path, no federation.
    let mut group = c.benchmark_group("e12_wal");
    group.bench_function(BenchmarkId::new("append", "every32"), |b| {
        let dir = tmpdir("probe");
        let (mut log, _) =
            SegmentLog::open(&dir, FsyncPolicy::EveryN(32), 64 * 1024 * 1024).expect("fresh log");
        let payload = vec![0xA5u8; 96];
        b.iter(|| {
            log.append(&Frame::new(2, payload.clone()))
                .expect("appends")
        });
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_durability
}
criterion_main!(benches);
