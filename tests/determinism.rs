//! Integration test: end-to-end determinism and delivery-order
//! guarantees — the property that makes every experiment in this
//! repository exactly reproducible.

use std::collections::HashMap;

use sci::prelude::*;
use sci::sensors::workload::{office_floor, populate, Population};

/// Which federation driver runs a scenario's one range.
#[derive(Clone, Copy, Debug)]
enum Driver {
    Serial,
    Parallel,
}

/// One range's scenario loop, written once for both drivers: they share
/// `RelayCore` through `Deref`, but `ingest_batch_at` and `poll_timers`
/// are each driver's own. Registers `$world`'s devices and the standard
/// classes, subscribes one app to each `(type, constraints)` of
/// `$wants`, then runs `$steps` two-second steps — tick, ingest, fire
/// timers (failing silent sources) — and returns the app's deliveries.
macro_rules! run_range {
    ($fed:expr, $world:expr, $ids:expr, $wants:expr, $steps:expr) => {{
        let (mut fed, mut world, ids) = ($fed, $world, $ids);
        let cs = ContextServer::new(ids.next_guid(), "floor", world.plan().clone());
        fed.add_range(cs).unwrap();
        register_world(&mut fed, "floor", &world, VirtualTime::ZERO).unwrap();
        install_standard_logic(&mut fed, "floor", ids, VirtualTime::ZERO).unwrap();
        let app = ids.next_guid();
        for (ty, constraints) in $wants {
            let q = Query::builder(ids.next_guid(), app)
                .info_matching(ty, constraints)
                .mode(Mode::Subscribe)
                .build();
            fed.submit_from("floor", &q, VirtualTime::ZERO).unwrap();
        }
        let dt = VirtualDuration::from_secs(2);
        let mut now = VirtualTime::ZERO;
        let mut deliveries = Vec::new();
        for _ in 0..$steps {
            now += dt;
            let events = world.tick(now, dt).unwrap();
            fed.ingest_batch_at("floor", &events, now).unwrap();
            fed.poll_timers(now).unwrap();
            deliveries.extend(fed.deliveries_for(app));
        }
        deliveries
    }};
}

fn run_on(
    driver: Driver,
    world: World,
    ids: &mut GuidGenerator,
    wants: Vec<(ContextType, Vec<Predicate>)>,
    steps: usize,
) -> Vec<AppDelivery> {
    match driver {
        Driver::Serial => run_range!(Federation::new(1), world, ids, wants, steps),
        Driver::Parallel => run_range!(ParallelFederation::new(1), world, ids, wants, steps),
    }
}

fn run_deployment(seed: u64, driver: Driver) -> (Vec<String>, usize) {
    let mut ids = GuidGenerator::seeded(seed);
    let config = Population {
        people: 12,
        printers: 1,
        thermometers: 2,
        dwell: VirtualDuration::from_secs(10),
        seed,
    };
    let (world, people) = populate(office_floor(6), &config, &mut ids).unwrap();
    // Subscribe to occupancy and to one person's location.
    let wants = vec![
        (ContextType::Occupancy, Vec::new()),
        (
            ContextType::Location,
            vec![Predicate::eq("subject", ContextValue::Id(people[0]))],
        ),
    ];
    let deliveries = run_on(driver, world, &mut ids, wants, 200);
    let log: Vec<String> = deliveries
        .iter()
        .map(|d| format!("{} {} {}", d.query, d.event.topic, d.event.payload))
        .collect();
    (log, deliveries.len())
}

#[test]
fn identical_seeds_produce_identical_delivery_logs() {
    let (a, na) = run_deployment(77, Driver::Serial);
    let (b, nb) = run_deployment(77, Driver::Serial);
    assert_eq!(na, nb);
    assert_eq!(a, b, "full middleware stack is deterministic");
    assert!(na > 10, "the scenario actually produced traffic ({na})");

    let (c, _) = run_deployment(78, Driver::Serial);
    assert_ne!(a, c, "different seeds genuinely differ");

    let (p, _) = run_deployment(77, Driver::Parallel);
    assert_eq!(
        a, p,
        "the threaded driver delivers what the serial one does"
    );
}

#[test]
fn per_source_sequence_numbers_are_monotone_at_consumers() {
    let mut ids = GuidGenerator::seeded(99);
    let config = Population {
        people: 8,
        printers: 0,
        thermometers: 3,
        dwell: VirtualDuration::from_secs(5),
        seed: 99,
    };
    let (world, _) = populate(office_floor(4), &config, &mut ids).unwrap();
    let wants = [ContextType::Occupancy, ContextType::Temperature]
        .map(|ty| (ty, Vec::new()))
        .to_vec();
    let deliveries = run_on(Driver::Serial, world, &mut ids, wants, 150);
    assert!(!deliveries.is_empty());
    let mut last_seq: HashMap<Guid, u64> = HashMap::new();
    let mut last_time: HashMap<Guid, VirtualTime> = HashMap::new();
    for d in &deliveries {
        if let Some(&prev) = last_seq.get(&d.event.source) {
            assert!(
                d.event.seq.0 > prev,
                "per-source sequence must strictly increase"
            );
        }
        if let Some(&prev) = last_time.get(&d.event.source) {
            assert!(d.event.timestamp >= prev, "timestamps never regress");
        }
        last_seq.insert(d.event.source, d.event.seq.0);
        last_time.insert(d.event.source, d.event.timestamp);
    }
}
