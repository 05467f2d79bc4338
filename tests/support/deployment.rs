//! The determinism scenario: one office floor run as a one-range
//! federation by either driver, its app's deliveries as a log.
//! `tests/determinism.rs` checks that a seed replays; `tests/golden.rs`
//! pins the logs of three seeds.
#![allow(dead_code)]

use sci::prelude::*;
use sci::sensors::workload::{office_floor, populate, Population};

/// Which federation driver runs a scenario's one range.
#[derive(Clone, Copy, Debug)]
pub enum Driver {
    /// [`Federation`].
    Serial,
    /// [`ParallelFederation`].
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

pub fn run_on(
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

pub fn run_deployment(seed: u64, driver: Driver) -> (Vec<String>, usize) {
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
    (log_of(&deliveries), deliveries.len())
}

/// Eight people and three thermometers on a smaller floor, one app
/// following occupancy and temperature for 150 steps: the deliveries
/// whose per-source sequence numbers `tests/determinism.rs` checks.
pub fn run_sequences(seed: u64, driver: Driver) -> Vec<AppDelivery> {
    let mut ids = GuidGenerator::seeded(seed);
    let config = Population {
        people: 8,
        printers: 0,
        thermometers: 3,
        dwell: VirtualDuration::from_secs(5),
        seed,
    };
    let (world, _) = populate(office_floor(4), &config, &mut ids).unwrap();
    let wants = [ContextType::Occupancy, ContextType::Temperature]
        .map(|ty| (ty, Vec::new()))
        .to_vec();
    run_on(driver, world, &mut ids, wants, 150)
}

/// A delivery log's lines: query, topic and payload of each delivery.
pub fn log_of(deliveries: &[AppDelivery]) -> Vec<String> {
    deliveries
        .iter()
        .map(|d| format!("{} {} {}", d.query, d.event.topic, d.event.payload))
        .collect()
}
