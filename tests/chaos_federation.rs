//! Chaos suite: federated event relay under a seeded fault schedule.
//!
//! A [`FaultyTransport`] wraps the federation's overlay and injects
//! drops, ack losses, delays, duplicates and reorders, all replayable
//! from a single `u64` seed. The reliable-relay envelope protocol
//! (per-origin sequence numbers, retry with exponential backoff,
//! receiver-side dedup) must turn that at-least-once soup back into
//! exactly-once delivery:
//!
//! * under **any** seeded schedule with eventual connectivity, the
//!   final delivery multiset equals the fault-free run's;
//! * with `ack_loss = 1.0` every "failed" send actually lands, so the
//!   dedup counter must equal the retransmission counter *exactly* —
//!   one accepted copy per envelope, every extra copy caught.
//!
//! The scenario itself lives in `support::chaos` so the socket suite
//! (`tests/tcp_federation.rs`) can run the identical logic over
//! [`TcpTransport`]; here it runs over the in-process [`SimNetwork`].
//!
//! The fixed-seed matrix, and the faults-during-submission case,
//! honour `SCI_CHAOS_SEEDS` (comma-separated `u64`s) so CI can pin the
//! schedule set; failures always print the seed that provoked them,
//! and an assert that compares a chaotic run with the clean one also
//! prints that run's flight-recorder trail (`support::chaos`).

mod support;

use proptest::prelude::*;
use sci::prelude::*;
use support::chaos::{
    collect, flight_recorder, matrix_seeds, range_plan, run_grouped, run_subscribing_under,
    run_with, trail_of, trail_text, Outcome, TRAIL,
};

type ChaosFed = Federation<FaultyTransport<SimNetwork>>;

/// The canonical scenario over the in-process overlay.
fn run(seed: u64, probs: FaultProbs) -> Outcome {
    run_with(SimNetwork::new(), seed, probs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exactly-once despite chaos: whatever the seeded schedule does
    /// (drops, ack losses, delays, duplicates, reorders), once
    /// connectivity returns the app has received exactly the fault-free
    /// delivery multiset — nothing lost, nothing duplicated.
    #[test]
    fn chaotic_delivery_matches_fault_free_run(seed in any::<u64>()) {
        let clean = run(seed, FaultProbs::NONE);
        let chaos = run(seed, FaultProbs::lossy(0.3));
        prop_assert_eq!(
            &chaos.deliveries,
            &clean.deliveries,
            "delivery multiset diverged under chaos seed {}\n{}",
            seed,
            chaos.trail_text()
        );
        prop_assert_eq!(clean.retry_attempts, 0);
        prop_assert_eq!(clean.dedup_hits, 0);
    }

    /// A chaos schedule is a pure function of its seed: replaying the
    /// same seed reproduces the identical outcome, counters included.
    #[test]
    fn same_seed_replays_identically(seed in any::<u64>()) {
        let a = run(seed, FaultProbs::lossy(0.25));
        let b = run(seed, FaultProbs::lossy(0.25));
        prop_assert_eq!(a.deliveries, b.deliveries, "seed {} did not replay", seed);
        prop_assert_eq!(a.dedup_hits, b.dedup_hits);
        prop_assert_eq!(a.retry_attempts, b.retry_attempts);
    }
}

/// The acceptance invariant, on the pinned seed matrix: with
/// `ack_loss = 1.0` every send attempt delivers a copy, so the
/// receiver-side dedup counter must equal the retransmission counter
/// exactly — the at-least-once surplus, fully accounted.
#[test]
fn dedup_hits_equal_retransmissions_under_total_ack_loss() {
    let mut exercised = false;
    for seed in matrix_seeds() {
        let probs = FaultProbs {
            drop: 0.4,
            ack_loss: 1.0,
            ..FaultProbs::NONE
        };
        let chaos = run(seed, probs);
        assert_eq!(
            chaos.dedup_hits, chaos.retry_attempts,
            "seed {seed}: dedup hits must equal retransmissions exactly"
        );
        let clean = run(seed, FaultProbs::NONE);
        assert_eq!(
            chaos.deliveries,
            clean.deliveries,
            "seed {seed}: zero duplicate deliveries must reach the app\n{}",
            chaos.trail_text()
        );
        exercised |= chaos.retry_attempts > 0;
    }
    assert!(
        exercised,
        "at 40% drop, at least one matrix seed must provoke a retransmission"
    );
}

/// Relays of two rows, on the pinned seed matrix: a second app follows
/// `range-1`, so every fault there hits a real group. Under chaos the
/// delivery multiset is the fault-free run's, and a seed replays its
/// outcome, counters included.
#[test]
fn grouped_relays_match_the_fault_free_run_and_replay_from_their_seed() {
    for seed in matrix_seeds() {
        let clean = run_grouped(SimNetwork::new(), seed, FaultProbs::NONE);
        assert_eq!(clean.deliveries.len(), 30, "seed {seed}");
        assert_eq!((clean.dedup_hits, clean.retry_attempts), (0, 0));
        let chaos = run_grouped(SimNetwork::new(), seed, FaultProbs::lossy(0.3));
        assert_eq!(
            chaos.deliveries,
            clean.deliveries,
            "seed {seed}: grouped delivery multiset diverged under chaos\n{}",
            chaos.trail_text()
        );
        let again = run_grouped(SimNetwork::new(), seed, FaultProbs::lossy(0.3));
        assert_eq!(again, chaos, "seed {seed}: grouped run did not replay");
    }
}

/// The acceptance invariant with groups: a copy of a relay counts one
/// dedup hit however many rows it carries, so with `ack_loss = 1.0`
/// dedup hits still equal retransmissions exactly.
#[test]
fn grouped_dedup_hits_equal_retransmissions_under_total_ack_loss() {
    let probs = FaultProbs {
        drop: 0.4,
        ack_loss: 1.0,
        ..FaultProbs::NONE
    };
    let mut exercised = false;
    for seed in matrix_seeds() {
        let chaos = run_grouped(SimNetwork::new(), seed, probs);
        assert_eq!(
            chaos.dedup_hits, chaos.retry_attempts,
            "seed {seed}: dedup hits must equal retransmissions exactly"
        );
        let clean = run_grouped(SimNetwork::new(), seed, FaultProbs::NONE);
        assert_eq!(
            chaos.deliveries,
            clean.deliveries,
            "seed {seed}\n{}",
            chaos.trail_text()
        );
        exercised |= chaos.retry_attempts > 0;
    }
    assert!(exercised, "at 40% drop some seed must retransmit a group");
}

/// A named partition isolates a producing range mid-stream; its relays
/// park instead of vanishing, and delivery completes after the heal.
#[test]
fn partitioned_relays_park_and_deliver_after_heal() {
    for seed in matrix_seeds().into_iter().take(4) {
        let clean = run(seed, FaultProbs::NONE);

        // Same topology, but rebuilt by hand so the partition can be
        // applied between ingests.
        let mut ids = GuidGenerator::seeded(0xc0ffee);
        let mut fed: ChaosFed =
            Federation::with_transport(FaultyTransport::new(SimNetwork::new(), seed), 7);
        let ring = flight_recorder(&mut fed);
        let mut sensors = Vec::new();
        let mut nodes = Vec::new();
        for i in 0..3usize {
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
            nodes.push(fed.add_range(cs).unwrap());
        }
        fed.connect_full();
        let app = ids.next_guid();
        for target in ["range-1", "range-2"] {
            let q = Query::builder(ids.next_guid(), app)
                .info(ContextType::Presence)
                .in_range(target)
                .mode(Mode::Subscribe)
                .build();
            fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
        }

        // range-1 is islanded for the whole stream: its relays must
        // park (retry budget exhausted) rather than disappear.
        fed.transport_mut().partition("island", &[nodes[1]]);
        let mut deliveries = Vec::new();
        for k in 0..10u64 {
            let now = VirtualTime::from_secs(k + 1);
            for (i, target) in ["range-1", "range-2"].iter().enumerate() {
                let ev = ContextEvent::new(
                    sensors[i + 1],
                    ContextType::Presence,
                    ContextValue::record([(
                        "subject",
                        ContextValue::Id(Guid::from_u128(1_000 + u128::from(k))),
                    )]),
                    now,
                );
                fed.ingest_at(target, &ev, now).unwrap();
            }
            collect(&mut fed, &[app], &mut deliveries);
        }
        assert!(
            fed.retry_parked() > 0,
            "seed {seed}: islanded relays should have been parked"
        );

        fed.transport_mut().heal();
        for step in 0..64u64 {
            if fed.pending_relay_count() == 0 {
                break;
            }
            fed.pump(VirtualTime::from_secs(100 + step)).unwrap();
            collect(&mut fed, &[app], &mut deliveries);
        }
        fed.pump(VirtualTime::from_secs(200)).unwrap();
        collect(&mut fed, &[app], &mut deliveries);

        deliveries.sort_unstable();
        assert_eq!(
            deliveries,
            clean.deliveries,
            "seed {seed}: partition must delay, not lose or duplicate\n{}",
            trail_text(&trail_of(&ring))
        );
    }
}

/// The federation snapshot folds the fault layer's injection counters
/// and the recovery counters into one telemetry view.
#[test]
fn snapshot_unifies_fault_and_recovery_counters() {
    let chaos = {
        let mut ids = GuidGenerator::seeded(0xc0ffee);
        let mut fed: ChaosFed =
            Federation::with_transport(FaultyTransport::new(SimNetwork::new(), 42), 7);
        let mut sensors = Vec::new();
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
            fed.add_range(cs).unwrap();
        }
        fed.connect_full();
        let app = ids.next_guid();
        let q = Query::builder(ids.next_guid(), app)
            .info(ContextType::Presence)
            .in_range("range-1")
            .mode(Mode::Subscribe)
            .build();
        fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
        fed.transport_mut().set_default_probs(FaultProbs {
            drop: 1.0,
            ack_loss: 1.0,
            ..FaultProbs::NONE
        });
        let ev = ContextEvent::new(
            sensors[1],
            ContextType::Presence,
            ContextValue::record([("subject", ContextValue::Id(Guid::from_u128(2)))]),
            VirtualTime::from_secs(1),
        );
        fed.ingest_at("range-1", &ev, VirtualTime::from_secs(1))
            .unwrap();
        fed.snapshot()
    };
    assert!(
        chaos.counter("fault.drops") > 0,
        "snapshot must fold the fault layer's injection counters"
    );
    assert_eq!(
        chaos.counter("federation.relay.dedup_hits"),
        chaos.counter("federation.retry.attempts"),
        "exactly-once accounting surfaces through telemetry too"
    );
}

/// Faults *during* submission, not only after it: drops, ack losses,
/// duplicates and reorders are on while the app subscribes across
/// ranges, and it resubmits on a partial answer until subscribed. A
/// duplicated or stranded forward must not wire a second subscription,
/// a resubmission must not either, and a stray answer must not stand in
/// for the real one — so the delivery multiset is the fault-free run's.
#[test]
fn faults_during_submission_keep_exactly_once() {
    let probs = FaultProbs {
        drop: 0.3,
        duplicate: 0.5,
        reorder: 0.5,
        ack_loss: 0.5,
        ..FaultProbs::NONE
    };
    for seed in matrix_seeds() {
        let clean = run(seed, FaultProbs::NONE);
        let chaos = run_subscribing_under(SimNetwork::new(), seed, probs, probs);
        assert_eq!(
            chaos.deliveries,
            clean.deliveries,
            "seed {seed}: faults during submission changed the delivery multiset\n{}",
            chaos.trail_text()
        );
    }
}

/// The flight recorder: a lossy run's trail is the relay's own record
/// of what it sent, bounded by the cap.
#[test]
fn a_lossy_runs_trail_records_its_relays_within_the_cap() {
    let chaos = run(1, FaultProbs::lossy(0.3));
    assert!(!chaos.trail.is_empty(), "seed 1: empty trail");
    assert!(chaos.trail.len() <= TRAIL, "{}", chaos.trail_text());
    assert!(
        chaos.trail.iter().any(|r| r.name() == "federation.relay"),
        "seed 1: no relay in the trail\n{}",
        chaos.trail_text()
    );
}
