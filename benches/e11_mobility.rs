//! E11 — city-scale mobility. Each range of a [`ParallelFederation`]
//! holds a registered population of `ENTITIES_PER_RANGE` (≥ 100k)
//! person entities plus a cohort of *movers*: entities with standing
//! presence subscriptions that physically relocate between ranges
//! mid-stream via `RangeCommand::{MigrateOut, MigrateIn}`. Movement
//! churn is Zipf-distributed — a hot minority of movers does most of
//! the moving, the way real commuters do — while every range keeps
//! ingesting a presence stream whose subjects are drawn from the
//! resident population.
//!
//! The harness reports, per `ranges ∈ RANGE_SWEEP` row:
//!
//! * `handoff_p50_us` / `handoff_p80_us` — wall-clock latency of one
//!   complete entity handoff (package at source, exactly-once relay,
//!   replay at target), measured around `migrate_entity`, with the
//!   number of handoffs `n` beside them. The tail is p80, the highest
//!   whole-ten percentile with at least ten of the 64 handoffs beyond
//!   it, so no single preempted handoff sets it;
//! * `sustained_kevents_s` — end-to-end event throughput of the
//!   streaming ingest that runs *while* the churn is happening;
//! * `bytes_per_entity` — resident-set growth across population
//!   registration divided by the population, a coarse footprint figure
//!   (allocator reuse makes later rows an underestimate; the first row
//!   is the honest one).
//!
//! The rows are printed, not stored: no judged workload migrates yet,
//! so this bench is the one migration measurement, read by hand:
//!
//! ```text
//! cargo bench --bench e11_mobility
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "a bench times itself with the wall clock"
)]

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sci_core::context_server::ContextServer;
use sci_core::runtime::{ParallelFederation, RangeCommand};
use sci_location::{FloorPlan, Rect};
use sci_query::{Mode, Query};
use sci_types::guid::GuidGenerator;
use sci_types::{
    ContextEvent, ContextType, ContextValue, Coord, EntityKind, Guid, PortSpec, Profile,
    VirtualTime,
};

const RANGE_SWEEP: [usize; 2] = [2, 4];
/// Resident population registered in every range (at least 100k).
const ENTITIES_PER_RANGE: u64 = 100_000;
/// Entities that actually move; each holds a standing subscription.
const MOVERS: usize = 48;
/// Handoffs per measured row.
const MOVES: usize = 64;
/// The tail percentile reported: at least ten of `MOVES` handoffs lie
/// beyond it.
const TAIL: f64 = 0.80;
/// Streaming rounds interleaved with the churn.
const ROUNDS: usize = 4;
/// Presence events batch-ingested into every range, every round.
const EVENTS_PER_ROUND: u64 = 1_500;
/// Zipf exponent for mover selection: ~1 keeps a long tail, higher
/// concentrates the churn on the hot movers.
const ZIPF_S: f64 = 1.1;

/// Guid namespace for the resident population, disjoint from the
/// generator-assigned infrastructure guids.
const POPULATION_BASE: u128 = 0x5C1_0000_0000;

fn range_plan(i: usize) -> FloorPlan {
    FloorPlan::builder("city")
        .zone(format!("district-{i}"))
        .room(
            format!("block-{i}"),
            Rect::with_size(Coord::new(0.0, 0.0), 20.0, 10.0),
        )
        .build()
        .expect("static plan")
}

fn person(id: Guid, name: String) -> Profile {
    Profile::builder(id, EntityKind::Person, name).build()
}

fn resident(range: usize, k: u64) -> Guid {
    Guid::from_u128(
        POPULATION_BASE + (range as u128) * u128::from(ENTITIES_PER_RANGE) + u128::from(k),
    )
}

fn presence(sensor: Guid, subject: Guid, t: VirtualTime) -> ContextEvent {
    ContextEvent::new(
        sensor,
        ContextType::Presence,
        ContextValue::record([("subject", ContextValue::Id(subject))]),
        t,
    )
}

/// Current resident-set size in bytes, from `/proc/self/statm`.
/// Returns 0 where procfs is unavailable; the field is informational.
fn resident_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

/// Zipf(s) sampler over ranks `0..n` via a precomputed CDF — rank 0 is
/// the hottest mover. (The vendored `rand` has no `rand_distr`.)
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

struct MobilityRig {
    fed: ParallelFederation,
    sensors: Vec<Guid>,
    movers: Vec<Guid>,
    /// Mover's current home range index, updated per handoff.
    homes: Vec<usize>,
    clock: u64,
    bytes_per_entity: f64,
}

/// Builds `ranges` ranges, each with one presence sensor and an
/// `ENTITIES_PER_RANGE`-strong registered population; `MOVERS` movers
/// are registered round-robin across ranges, each with a standing
/// local presence subscription that will follow it through handoffs.
fn build(ranges: usize, seed: u64) -> MobilityRig {
    let mut ids = GuidGenerator::seeded(seed);
    let mut fed = ParallelFederation::new(seed);
    let mut sensors = Vec::new();
    let mut movers = Vec::new();
    let mut homes = Vec::new();
    let rss_before = resident_bytes();
    for i in 0..ranges {
        let mut cs = ContextServer::new(ids.next_guid(), format!("range-{i}"), range_plan(i));
        let sensor = ids.next_guid();
        cs.register(
            Profile::builder(sensor, EntityKind::Device, format!("sensor-{i}"))
                .output(PortSpec::new("p", ContextType::Presence))
                .build(),
            VirtualTime::ZERO,
        )
        .expect("fresh sensor");
        sensors.push(sensor);
        for k in 0..ENTITIES_PER_RANGE {
            cs.register(
                person(resident(i, k), format!("res-{i}-{k}")),
                VirtualTime::ZERO,
            )
            .expect("resident registers");
        }
        fed.add_range(cs).expect("unique range");
    }
    let rss_after = resident_bytes();
    fed.connect_full();
    for m in 0..MOVERS {
        let home = m % ranges;
        let mover = ids.next_guid();
        // The mover is a registered person in its home range…
        fed.command(
            &format!("range-{home}"),
            RangeCommand::Register(Box::new(person(mover, format!("mover-{m}")))),
            VirtualTime::ZERO,
        )
        .expect("mover registers");
        // …with a standing local subscription that migrates with it.
        let q = Query::builder(ids.next_guid(), mover)
            .info(ContextType::Presence)
            .mode(Mode::Subscribe)
            .build();
        fed.submit_from(&format!("range-{home}"), &q, VirtualTime::ZERO)
            .expect("mover subscribes");
        movers.push(mover);
        homes.push(home);
    }
    let population = ENTITIES_PER_RANGE * ranges as u64;
    MobilityRig {
        fed,
        sensors,
        movers,
        homes,
        clock: 0,
        bytes_per_entity: rss_after.saturating_sub(rss_before) as f64 / population as f64,
    }
}

/// One streaming round: batch-ingest `per_range` presence events into
/// every range (subjects Zipf-drawn from that range's residents), then
/// pump whatever has streamed so far.
fn streaming_round(rig: &mut MobilityRig, per_range: u64, rng: &mut StdRng) {
    let sensors = rig.sensors.clone();
    for (j, sensor) in sensors.into_iter().enumerate() {
        let mut batch = Vec::with_capacity(per_range as usize);
        for _ in 0..per_range {
            rig.clock += 1;
            let subject = resident(j, rng.gen_range(0..ENTITIES_PER_RANGE));
            batch.push(presence(
                sensor,
                subject,
                VirtualTime::from_micros(rig.clock),
            ));
        }
        rig.fed
            .ingest_batch_at(
                &format!("range-{j}"),
                &batch,
                VirtualTime::from_micros(rig.clock),
            )
            .expect("ingests");
    }
    rig.fed
        .pump_streams(VirtualTime::from_micros(rig.clock))
        .expect("pumps");
}

/// One complete handoff of mover `m` to range `to`, timed wall-clock
/// around `migrate_entity` (package → relay → replay).
fn handoff(rig: &mut MobilityRig, m: usize, to: usize) -> Duration {
    let from = rig.homes[m];
    rig.clock += 1;
    let start = Instant::now();
    rig.fed
        .migrate_entity(
            rig.movers[m],
            &format!("range-{from}"),
            &format!("range-{to}"),
            VirtualTime::from_micros(rig.clock),
        )
        .expect("handoff");
    let took = start.elapsed();
    rig.homes[m] = to;
    took
}

struct Row {
    ranges: usize,
    moves: usize,
    handoff_p50_us: f64,
    handoff_p80_us: f64,
    sustained_kevents_s: f64,
    bytes_per_entity: f64,
    deliveries: u64,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

/// The measured row: `ROUNDS` streaming rounds with `MOVES` Zipf-churn
/// handoffs interleaved between them, one closing `sync`, then the
/// movers' inboxes drained (their standing queries must have followed
/// them through every move).
fn measure_row(ranges: usize) -> Row {
    let mut rig = build(ranges, 23);
    let mut rng = StdRng::seed_from_u64(23);
    let zipf = Zipf::new(MOVERS, ZIPF_S);
    // Warm-up: one small round so first-touch costs stay out of the
    // measured window.
    streaming_round(&mut rig, 100, &mut rng);
    rig.fed
        .sync(VirtualTime::from_micros(rig.clock))
        .expect("warm-up syncs");

    let mut handoffs_us: Vec<f64> = Vec::with_capacity(MOVES);
    let events = EVENTS_PER_ROUND * ranges as u64 * ROUNDS as u64;
    let moves_per_gap = MOVES / ROUNDS;
    let start = Instant::now();
    for round in 0..ROUNDS {
        streaming_round(&mut rig, EVENTS_PER_ROUND, &mut rng);
        let burst = if round == ROUNDS - 1 {
            MOVES - moves_per_gap * (ROUNDS - 1) // remainder on the last gap
        } else {
            moves_per_gap
        };
        for _ in 0..burst {
            let m = zipf.sample(&mut rng);
            let to = (rig.homes[m] + rng.gen_range(1..ranges.max(2))) % ranges;
            handoffs_us.push(handoff(&mut rig, m, to).as_secs_f64() * 1e6);
        }
    }
    rig.fed
        .sync(VirtualTime::from_micros(rig.clock))
        .expect("closing sync");
    let elapsed = start.elapsed().as_secs_f64();

    let movers = rig.movers.clone();
    let deliveries: u64 = movers
        .into_iter()
        .map(|app| rig.fed.deliveries_for(app).len() as u64)
        .sum();
    assert!(
        deliveries > 0,
        "standing queries produced no deliveries across the churn"
    );
    let bytes_per_entity = rig.bytes_per_entity;
    rig.fed.shutdown();

    handoffs_us.sort_by(f64::total_cmp);
    Row {
        ranges,
        moves: handoffs_us.len(),
        handoff_p50_us: percentile(&handoffs_us, 0.50),
        handoff_p80_us: percentile(&handoffs_us, TAIL),
        sustained_kevents_s: events as f64 / elapsed / 1e3,
        bytes_per_entity,
        deliveries,
    }
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn print_table(rows: &[Row]) {
    println!(
        "\nE11: mobility churn, {} movers (zipf s={}), {} entities/range ({} cores available)",
        MOVERS,
        ZIPF_S,
        ENTITIES_PER_RANGE,
        available_cores()
    );
    println!(
        "{:>7} | {:>6} {:>14} {:>14} | {:>21} {:>16} {:>11}",
        "ranges",
        "n",
        "handoff p50",
        "handoff p80",
        "sustained (kevents/s)",
        "bytes/entity",
        "deliveries"
    );
    for r in rows {
        println!(
            "{:>7} | {:>6} {:>11.0} us {:>11.0} us | {:>21.1} {:>16.1} {:>11}",
            r.ranges,
            r.moves,
            r.handoff_p50_us,
            r.handoff_p80_us,
            r.sustained_kevents_s,
            r.bytes_per_entity,
            r.deliveries
        );
    }
    println!();
}

fn main() {
    let rows: Vec<Row> = RANGE_SWEEP.iter().map(|&r| measure_row(r)).collect();
    print_table(&rows);
}
