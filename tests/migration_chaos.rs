//! Chaos suite for first-class entity migration.
//!
//! A mover application lives in `range-0` with a standing presence
//! subscription, then migrates to `range-1` mid-stream while a seeded
//! [`FaultyTransport`] drops, duplicates, delays and reorders the
//! overlay traffic — including the `migrate` packet itself. The
//! exactly-once relay envelope must make the move invisible to the
//! delivery ledger:
//!
//! * the mover receives every logical event exactly once, wherever it
//!   happened to be living when the event fired — the same multiset a
//!   fault-free run *without* migration produces when the whole stream
//!   is ingested at the mover's original home;
//! * a stationary observer subscribed to both ranges sees the same
//!   stream too, so in-flight event relays crossing the chaotic link
//!   alongside the packet are covered;
//! * however often the packet is retransmitted or duplicated, the
//!   target replays it exactly once (`range.migrate.in == 1`);
//! * a query arrives in the state it left in: a subscription whose
//!   trigger has fired keeps delivering, a timer keeps its deadline.
//!
//! Delivery keys deliberately exclude the producing sensor and the
//! capturing query: city-scale mobility means the same logical reading
//! is emitted by whichever building the mover is in, and caught by
//! whichever standing query is local at the time.

use proptest::prelude::*;
use sci::prelude::*;

type ChaosFed = Federation<FaultyTransport<SimNetwork>>;

const EVENTS: u64 = 20;
const MOVE_AT: u64 = EVENTS / 2;

fn range_plan(i: usize) -> FloorPlan {
    FloorPlan::builder("campus")
        .zone(format!("wing-{i}"))
        .room(
            format!("hall-{i}"),
            Rect::with_size(Coord::new(0.0, 0.0), 20.0, 10.0),
        )
        .build()
        .unwrap()
}

/// What a run produced, reduced to comparable data.
struct Outcome {
    /// Sorted multiset of `(app, timestamp, payload)` delivery keys.
    deliveries: Vec<String>,
    dedup_hits: u64,
    migrate_out: u64,
    migrate_in: u64,
}

fn presence_event(sensor: Guid, k: u64) -> ContextEvent {
    ContextEvent::new(
        sensor,
        ContextType::Presence,
        ContextValue::record([(
            "subject",
            ContextValue::Id(Guid::from_u128(1_000 + u128::from(k))),
        )]),
        VirtualTime::from_secs(k + 1),
    )
}

/// The suite's cast: `range-0` and `range-1`, a presence sensor in
/// each, and a mover living in `range-0` until it moves. Returns the
/// GUID source (for queries), the mover, the servers and the sensors.
fn two_ranges() -> (GuidGenerator, Guid, Vec<ContextServer>, Vec<Guid>) {
    let mut ids = GuidGenerator::seeded(0xbadcab);
    let mover = ids.next_guid();
    let (mut servers, mut sensors) = (Vec::new(), Vec::new());
    for i in 0..2usize {
        let mut cs = ContextServer::new(ids.next_guid(), format!("range-{i}"), range_plan(i));
        let sensor = ids.next_guid();
        cs.register(
            Profile::builder(sensor, EntityKind::Device, format!("sensor-{i}"))
                .output(PortSpec::new("presence", ContextType::Presence))
                .build(),
            VirtualTime::ZERO,
        )
        .unwrap();
        sensors.push(sensor);
        if i == 0 {
            cs.register(
                Profile::builder(mover, EntityKind::Person, "mover").build(),
                VirtualTime::ZERO,
            )
            .unwrap();
        }
        servers.push(cs);
    }
    (ids, mover, servers, sensors)
}

/// Two ranges, each with its own presence sensor. A mover app homed in
/// `range-0` holds a local presence subscription; a stationary app
/// homed in `range-1` subscribes to presence in *both* ranges. The
/// logical event stream follows the mover: events before `MOVE_AT`
/// fire in `range-0`, and — when `migrate` is set — the mover is
/// migrated and the rest fire in `range-1` (without migration the
/// whole stream stays in `range-0`). Faults per `probs`; afterwards
/// the transport heals and the federation pumps to quiescence.
fn run(seed: u64, probs: FaultProbs, migrate: bool) -> Outcome {
    let mut fed: ChaosFed =
        Federation::with_transport(FaultyTransport::new(SimNetwork::new(), seed), 7);
    let (mut ids, mover, servers, sensors) = two_ranges();
    for cs in servers {
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();

    // Clean phase: the mover subscribes at its home range; the
    // stationary observer subscribes to both ranges.
    {
        let reply = fed
            .submit_from(
                "range-0",
                &Query::builder(ids.next_guid(), mover)
                    .info(ContextType::Presence)
                    .mode(Mode::Subscribe)
                    .build(),
                VirtualTime::ZERO,
            )
            .unwrap();
        assert!(
            matches!(reply.answer, QueryAnswer::Subscribed { .. }),
            "seed {seed}: mover subscription failed before any fault was injected"
        );
    }
    let observer = ids.next_guid();
    for target in ["range-0", "range-1"] {
        let q = Query::builder(ids.next_guid(), observer)
            .info(ContextType::Presence)
            .in_range(target)
            .mode(Mode::Subscribe)
            .build();
        fed.submit_from("range-1", &q, VirtualTime::ZERO).unwrap();
    }

    // Chaos phase.
    fed.transport_mut().set_default_probs(probs);
    let mut deliveries: Vec<String> = Vec::new();
    for k in 0..MOVE_AT {
        let now = VirtualTime::from_secs(k + 1);
        fed.ingest_at("range-0", &presence_event(sensors[0], k), now)
            .unwrap();
        collect(&mut fed, &[mover, observer], &mut deliveries);
    }

    if migrate {
        fed.migrate_entity(mover, "range-0", "range-1", VirtualTime::from_secs(MOVE_AT))
            .unwrap();
        // The packet (and any relays in flight beside it) must land
        // before the stream resumes in the new home range — under
        // chaos that can take a few retrying pumps.
        for _ in 0..64u64 {
            if fed.pending_relay_count() == 0 && fed.transport().delayed_len() == 0 {
                break;
            }
            fed.pump(VirtualTime::from_secs(MOVE_AT)).unwrap();
            collect(&mut fed, &[mover, observer], &mut deliveries);
        }
        assert_eq!(
            fed.pending_relay_count(),
            0,
            "seed {seed}: the migrate packet never landed"
        );
    }

    let resume = if migrate { "range-1" } else { "range-0" };
    let sensor = if migrate { sensors[1] } else { sensors[0] };
    for k in MOVE_AT..EVENTS {
        let now = VirtualTime::from_secs(k + 1);
        fed.ingest_at(resume, &presence_event(sensor, k), now)
            .unwrap();
        collect(&mut fed, &[mover, observer], &mut deliveries);
    }

    // Eventual connectivity: heal and pump to quiescence.
    fed.transport_mut().heal();
    for step in 0..64u64 {
        if fed.pending_relay_count() == 0 && fed.transport().delayed_len() == 0 {
            break;
        }
        fed.pump(VirtualTime::from_secs(100 + step)).unwrap();
        collect(&mut fed, &[mover, observer], &mut deliveries);
    }
    fed.pump(VirtualTime::from_secs(200)).unwrap();
    collect(&mut fed, &[mover, observer], &mut deliveries);

    deliveries.sort_unstable();
    let snap = fed.snapshot();
    Outcome {
        deliveries,
        dedup_hits: fed.relay_dedup_hits(),
        migrate_out: snap.counter("range.migrate.out"),
        migrate_in: snap.counter("range.migrate.in"),
    }
}

/// Keys deliveries by `(app, timestamp, payload)` — sensor and query
/// deliberately excluded, see the module docs.
fn collect(fed: &mut ChaosFed, apps: &[Guid], into: &mut Vec<String>) {
    for &app in apps {
        for d in fed.deliveries_for(app) {
            into.push(format!(
                "{}|{}|{:?}",
                d.app, d.event.timestamp, d.event.payload
            ));
        }
    }
}

/// Seeds for the fixed matrix: `SCI_CHAOS_SEEDS` (comma-separated)
/// overrides the default set, so CI pins the schedules it replays.
fn matrix_seeds() -> Vec<u64> {
    std::env::var("SCI_CHAOS_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 3, 5, 8, 13, 21, 34, 55, 89])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant: migrating mid-stream under a seeded
    /// chaos schedule neither loses nor doubles a single delivery —
    /// the multiset equals the fault-free run without any migration.
    #[test]
    fn chaotic_migration_matches_the_no_migration_oracle(seed in any::<u64>()) {
        let oracle = run(seed, FaultProbs::NONE, false);
        let moved = run(seed, FaultProbs::lossy(0.3), true);
        prop_assert_eq!(
            &moved.deliveries,
            &oracle.deliveries,
            "delivery multiset diverged across a chaotic migration, seed {}",
            seed
        );
        prop_assert_eq!(moved.migrate_out, 1);
        prop_assert_eq!(moved.migrate_in, 1, "the packet must replay exactly once");
        prop_assert_eq!(oracle.dedup_hits, 0);
    }

    /// A chaotic migration is a pure function of its seed.
    #[test]
    fn chaotic_migration_replays_identically(seed in any::<u64>()) {
        let a = run(seed, FaultProbs::lossy(0.25), true);
        let b = run(seed, FaultProbs::lossy(0.25), true);
        prop_assert_eq!(a.deliveries, b.deliveries, "seed {} did not replay", seed);
        prop_assert_eq!(a.dedup_hits, b.dedup_hits);
    }
}

/// The acceptance invariant on the pinned seed matrix, under a
/// duplication-heavy schedule (`ack_loss = 1.0` makes every "failed"
/// send land anyway): however many copies of the migrate packet reach
/// the target, it replays exactly once, and the ledger still balances.
#[test]
fn duplicated_migrate_packets_replay_exactly_once() {
    let mut exercised = false;
    for seed in matrix_seeds() {
        let probs = FaultProbs {
            drop: 0.4,
            ack_loss: 1.0,
            ..FaultProbs::NONE
        };
        let oracle = run(seed, FaultProbs::NONE, false);
        let moved = run(seed, probs, true);
        assert_eq!(
            moved.deliveries, oracle.deliveries,
            "seed {seed}: duplication must not double a delivery across a move"
        );
        assert_eq!(
            moved.migrate_in, 1,
            "seed {seed}: a duplicated packet must replay exactly once"
        );
        exercised |= moved.dedup_hits > 0;
    }
    assert!(
        exercised,
        "at 40% drop with total ack loss, at least one matrix seed must dedup a duplicate"
    );
}

/// The same move through the range-per-thread driver: migration is a
/// first-class command there too, the delivery ledger balances, and
/// the coordinator times the packet's flight.
#[test]
fn parallel_migration_is_first_class_and_counted() {
    let mut fed = ParallelFederation::new(7);
    let (mut ids, mover, servers, sensors) = two_ranges();
    for cs in servers {
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();

    let q = Query::builder(ids.next_guid(), mover)
        .info(ContextType::Presence)
        .mode(Mode::Subscribe)
        .build();
    fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();

    for k in 0..MOVE_AT {
        let now = VirtualTime::from_secs(k + 1);
        fed.ingest_at("range-0", &presence_event(sensors[0], k), now)
            .unwrap();
    }
    fed.migrate_entity(mover, "range-0", "range-1", VirtualTime::from_secs(MOVE_AT))
        .unwrap();
    for k in MOVE_AT..EVENTS {
        let now = VirtualTime::from_secs(k + 1);
        fed.ingest_at("range-1", &presence_event(sensors[1], k), now)
            .unwrap();
    }
    fed.sync(VirtualTime::from_secs(EVENTS + 1)).unwrap();

    assert_eq!(
        fed.deliveries_for(mover).len() as u64,
        EVENTS,
        "the standing query must follow the mover without losing a delivery"
    );
    let snap = fed.snapshot();
    assert_eq!(snap.counter("range.migrate.out"), 1);
    assert_eq!(snap.counter("range.migrate.in"), 1);
    assert_eq!(snap.counter("range.cmd.migrate-out.count"), 1);
    assert_eq!(snap.counter("range.cmd.migrate-in.count"), 1);
    fed.shutdown();
}

/// Migrating an entity the source range never registered fails
/// cleanly, counts nothing, and moves nothing.
#[test]
fn migrating_an_unknown_entity_is_a_clean_error() {
    let mut ids = GuidGenerator::seeded(0xbadcab);
    let mut fed: ChaosFed =
        Federation::with_transport(FaultyTransport::new(SimNetwork::new(), 1), 7);
    for i in 0..2usize {
        let cs = ContextServer::new(ids.next_guid(), format!("range-{i}"), range_plan(i));
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();
    let ghost = ids.next_guid();
    let err = fed
        .migrate_entity(ghost, "range-0", "range-1", VirtualTime::ZERO)
        .unwrap_err();
    assert!(matches!(err, SciError::UnknownEntity(_)), "{err:?}");
    let snap = fed.snapshot();
    assert_eq!(snap.counter("range.migrate.out"), 0);
    assert_eq!(snap.counter("range.migrate.in"), 0);
    assert_eq!(
        snap.counter("range.deregister.unknown"),
        1,
        "the refused departure is accounted"
    );
}

/// Regression: a migration packet whose target range has no live host
/// used to be marked seen and dropped — the entity, already packaged
/// out of its source, vanished. Now the packet is parked (every copy
/// of it, when the link duplicates) and re-fired each sync until the
/// range is back, where it replays exactly once.
#[test]
fn migration_into_a_killed_range_lands_once_it_recovers() {
    use sci::core::durability;
    use std::collections::HashMap;

    let dir = std::env::temp_dir().join(format!("sci-migrate-dead-{}", std::process::id()));
    let config = DurabilityConfig {
        dir: dir.clone(),
        fsync: FsyncPolicy::Always,
        segment_bytes: 64 * 1024,
        snapshot_every: 1 << 20,
    };

    let mut fed = ParallelFederation::with_transport(FaultyTransport::new(SimNetwork::new(), 5), 7);
    let (mut ids, mover, mut servers, sensors) = two_ranges();
    // The target is durable: it will be killed and recovered.
    let target_id = servers[1].id();
    durability::attach(&mut servers[1], &config, VirtualTime::ZERO).unwrap();
    for cs in servers {
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();
    let q = Query::builder(ids.next_guid(), mover)
        .info(ContextType::Presence)
        .mode(Mode::Subscribe)
        .build();
    fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();

    // The target dies; the move happens anyway, over a link that
    // delivers every packet twice.
    let registry = fed.kill_range("range-1").unwrap();
    fed.transport_mut().set_default_probs(FaultProbs {
        duplicate: 1.0,
        ..FaultProbs::NONE
    });
    let now = VirtualTime::from_secs(1);
    fed.migrate_entity(mover, "range-0", "range-1", now)
        .unwrap();
    assert_eq!(
        fed.pending_relay_count(),
        2,
        "both copies of the packet wait for the dead range"
    );
    assert_eq!(fed.retry_parked(), 2);
    fed.transport_mut().heal();
    fed.sync(now).unwrap();
    assert_eq!(
        fed.pending_relay_count(),
        2,
        "re-fired at a range that is still dead, the copies park again"
    );
    assert_eq!(registry.snapshot().counter("range.migrate.in"), 0);

    // The range comes back from its WAL; the first sync delivers.
    let (recovered, report) = durability::recover(
        target_id,
        "range-1",
        range_plan(1),
        registry,
        &config,
        &HashMap::new(),
    )
    .unwrap();
    assert_eq!(report.replay_errors, 0, "{report:?}");
    fed.recover_range(recovered).unwrap();
    let dedup_before = fed.relay_dedup_hits();
    fed.sync(VirtualTime::from_secs(2)).unwrap();
    assert_eq!(fed.pending_relay_count(), 0);
    assert_eq!(
        fed.relay_dedup_hits(),
        dedup_before + 1,
        "the duplicate is squashed once the original has applied"
    );
    let snap = fed.snapshot();
    assert_eq!(snap.counter("range.migrate.out"), 1);
    assert_eq!(snap.counter("range.migrate.in"), 1);

    // The standing subscription followed the mover.
    for k in 0..3u64 {
        let now = VirtualTime::from_secs(3 + k);
        fed.ingest_at("range-1", &presence_event(sensors[1], k), now)
            .unwrap();
    }
    fed.sync(VirtualTime::from_secs(10)).unwrap();
    assert_eq!(fed.deliveries_for(mover).len(), 3);

    let servers = fed.shutdown();
    assert!(!servers[0].registrar().is_registered(mover));
    assert!(servers[1].registrar().is_registered(mover));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a standing subscription whose `OnEnter` trigger had
/// already fired was re-submitted through the deferral gate at the
/// migration target and parked as deferred again — after the move the
/// mover silently received nothing.
#[test]
fn a_triggered_subscription_keeps_delivering_at_the_new_home() {
    let (mut ids, mover, servers, sensors) = two_ranges();
    let mut fed = Federation::new(7);
    for cs in servers {
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();
    let walker = Guid::from_u128(1_000);
    let q = Query::builder(ids.next_guid(), mover)
        .info(ContextType::Presence)
        .when(When::OnEnter {
            entity: Subject::Entity(walker),
            place: "hall-0".into(),
        })
        .mode(Mode::Subscribe)
        .build();
    let parked = fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
    assert!(matches!(parked.answer, QueryAnswer::Deferred));

    // The walker enters the hall: the trigger fires, the subscription
    // goes live and delivers — first of all the event that fired it.
    let t1 = VirtualTime::from_secs(1);
    let entering = ContextEvent::new(
        sensors[0],
        ContextType::Presence,
        ContextValue::record([
            ("subject", ContextValue::Id(walker)),
            ("to", ContextValue::place("hall-0")),
        ]),
        t1,
    );
    fed.ingest_at("range-0", &entering, t1).unwrap();
    assert!(matches!(
        fed.answers_for(mover)[..],
        [(id, QueryAnswer::Subscribed { .. })] if id == q.id
    ));
    fed.ingest_at("range-0", &presence_event(sensors[0], 1), t1)
        .unwrap();
    assert_eq!(fed.deliveries_for(mover).len(), 2);

    let t2 = VirtualTime::from_secs(2);
    fed.migrate_entity(mover, "range-0", "range-1", t2).unwrap();
    let (old, new) = (
        fed.server("range-0").unwrap(),
        fed.server("range-1").unwrap(),
    );
    assert_eq!((old.configuration_count(), old.deferred_count()), (0, 0));
    assert_eq!(
        (new.configuration_count(), new.deferred_count()),
        (1, 0),
        "live when it left, live where it landed"
    );
    for k in 2..5u64 {
        let now = VirtualTime::from_secs(k + 1);
        fed.ingest_at("range-1", &presence_event(sensors[1], k), now)
            .unwrap();
    }
    assert_eq!(
        fed.deliveries_for(mover).len(),
        3,
        "deliveries continue at the new home"
    );
}

/// Regression: the packet dropped the instant a deferred query was
/// stored, so an `After(30 s)` query submitted at t=0 whose owner moved
/// at t=20 answered at t=50.
#[test]
fn a_timer_keeps_its_deadline_across_a_real_move() {
    let (mut ids, mover, servers, _) = two_ranges();
    let mut fed = Federation::new(7);
    for cs in servers {
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();
    let q = Query::builder(ids.next_guid(), mover)
        .kind(EntityKind::Device)
        .all()
        .after(VirtualDuration::from_secs(30))
        .mode(Mode::Profile)
        .build();
    fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
    fed.migrate_entity(mover, "range-0", "range-1", VirtualTime::from_secs(20))
        .unwrap();
    fed.poll_timers(VirtualTime::from_secs(29)).unwrap();
    assert!(fed.answers_for(mover).is_empty());
    fed.poll_timers(VirtualTime::from_secs(30)).unwrap();
    match &fed.answers_for(mover)[..] {
        [(id, QueryAnswer::Profiles(devices))] => {
            assert_eq!(*id, q.id);
            assert_eq!(devices[0].name(), "sensor-1", "answered by its new range");
        }
        other => panic!("expected the timer's answer at t=30, got {other:?}"),
    }
}
