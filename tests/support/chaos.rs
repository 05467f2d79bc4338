//! The chaos-run harness, generic over the wrapped transport.
//!
//! One federated relay scenario — three ranges, cross-range presence
//! subscriptions, twenty events under a seeded fault schedule, heal,
//! pump to quiescence — expressed once over
//! `FaultyTransport<T>` for any [`Transport`] `T`:
//!
//! * `tests/chaos_federation.rs` drives it over the in-process
//!   [`SimNetwork`];
//! * `tests/tcp_federation.rs` drives the *identical* logic over
//!   [`TcpTransport`] — real loopback sockets — and compares outcomes
//!   field for field. The fault layer draws its PRNG per call, so the
//!   same seed produces the same injected schedule on both wires; the
//!   socket transport's acked sends make delivery timing a pure
//!   function of the call sequence, which is what makes the
//!   comparison exact rather than statistical.
#![allow(dead_code)]

use sci::prelude::*;

/// What a chaos run produced, reduced to comparable data.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Outcome {
    /// Sorted multiset of final deliveries (app, query, event).
    pub deliveries: Vec<String>,
    /// Receiver-side duplicate envelopes caught.
    pub dedup_hits: u64,
    /// Relay retransmissions attempted.
    pub retry_attempts: u64,
}

/// One wing + hall per range, disjoint per index.
pub fn range_plan(i: usize) -> FloorPlan {
    FloorPlan::builder("campus")
        .zone(format!("wing-{i}"))
        .room(
            format!("hall-{i}"),
            Rect::with_size(Coord::new(0.0, 0.0), 20.0, 10.0),
        )
        .build()
        .unwrap()
}

/// Drains the apps' deliveries into a comparable string multiset.
pub fn collect<T: Transport>(
    fed: &mut Federation<FaultyTransport<T>>,
    apps: &[Guid],
    into: &mut Vec<String>,
) {
    for d in apps.iter().flat_map(|&app| fed.deliveries_for(app)) {
        into.push(format!(
            "{}|{}|{}|{:?}",
            d.app, d.query, d.event.timestamp, d.event.payload
        ));
    }
}

/// Three ranges over `inner` wrapped in a seeded fault proxy; one app
/// homed in `range-0` subscribed to presence in `range-1` and
/// `range-2`; 20 events ingested under `probs`, then the transport
/// heals and the federation pumps to quiescence.
pub fn run_with<T: Transport>(inner: T, seed: u64, probs: FaultProbs) -> Outcome {
    run_subscribing_under(inner, seed, FaultProbs::NONE, probs)
}

/// [`run_with`], but a second app homed in `range-0` also follows
/// `range-1`: each of `range-1`'s events crosses as one relay of two
/// rows, so faults hit real groups.
pub fn run_grouped<T: Transport>(inner: T, seed: u64, probs: FaultProbs) -> Outcome {
    run_scenario(inner, seed, FaultProbs::NONE, probs, true)
}

/// [`run_with`], but the app subscribes under `subscribe_probs`, and
/// resubmits on a partial answer until it is subscribed, as an
/// application would.
pub fn run_subscribing_under<T: Transport>(
    inner: T,
    seed: u64,
    subscribe_probs: FaultProbs,
    probs: FaultProbs,
) -> Outcome {
    run_scenario(inner, seed, subscribe_probs, probs, false)
}

/// Subscribes `app`, homed in `range-0`, to presence in `target`,
/// resubmitting on a partial answer.
fn follow<T: Transport>(
    fed: &mut Federation<FaultyTransport<T>>,
    query: Guid,
    app: Guid,
    target: &str,
    seed: u64,
) {
    let q = Query::builder(query, app)
        .info(ContextType::Presence)
        .in_range(target)
        .mode(Mode::Subscribe)
        .build();
    let mut attempts = 0;
    let fa = loop {
        let fa = fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
        attempts += 1;
        if !fa.answer.is_degraded() || attempts == 64 {
            break fa;
        }
    };
    assert!(
        matches!(fa.answer, QueryAnswer::Subscribed { .. }),
        "seed {seed}: subscription failed ({attempts} attempts)"
    );
}

/// The scenario; `grouped` adds [`run_grouped`]'s second app.
fn run_scenario<T: Transport>(
    inner: T,
    seed: u64,
    subscribe_probs: FaultProbs,
    probs: FaultProbs,
    grouped: bool,
) -> Outcome {
    let mut ids = GuidGenerator::seeded(0xc0ffee);
    let mut fed: Federation<FaultyTransport<T>> =
        Federation::with_transport(FaultyTransport::new(inner, seed), 7);
    let mut sensors = Vec::new();
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
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();

    // The app subscribes across the overlay (clean, unless asked).
    fed.transport_mut().set_default_probs(subscribe_probs);
    let app = ids.next_guid();
    for target in ["range-1", "range-2"] {
        follow(&mut fed, ids.next_guid(), app, target, seed);
    }
    let mut apps = vec![app];
    if grouped {
        let second = ids.next_guid();
        follow(&mut fed, ids.next_guid(), second, "range-1", seed);
        apps.push(second);
    }

    // Chaos phase: every relay now crosses a faulty link.
    fed.transport_mut().set_default_probs(probs);
    let mut deliveries: Vec<String> = Vec::new();
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
        collect(&mut fed, &apps, &mut deliveries);
    }

    // Eventual connectivity: heal and pump to quiescence.
    fed.transport_mut().heal();
    for step in 0..64u64 {
        if fed.pending_relay_count() == 0 && fed.transport().delayed_len() == 0 {
            break;
        }
        fed.pump(VirtualTime::from_secs(100 + step)).unwrap();
        collect(&mut fed, &apps, &mut deliveries);
    }
    assert_eq!(
        fed.pending_relay_count(),
        0,
        "seed {seed}: relays still parked after the network healed"
    );
    // One last pump so the final sweep lands everything.
    fed.pump(VirtualTime::from_secs(200)).unwrap();
    collect(&mut fed, &apps, &mut deliveries);

    deliveries.sort_unstable();
    Outcome {
        deliveries,
        dedup_hits: fed.relay_dedup_hits(),
        retry_attempts: fed.retry_attempts(),
    }
}

/// Seeds for the fixed matrix: `SCI_CHAOS_SEEDS` (comma-separated)
/// overrides the default set, so CI pins the schedules it replays.
pub fn matrix_seeds() -> Vec<u64> {
    seeds_from_env("SCI_CHAOS_SEEDS", &[1, 2, 3, 5, 8, 13, 21, 34, 55, 89])
}

/// Seeds for the socket-parity matrix: `SCI_TCP_PARITY_SEEDS`
/// overrides. The default is a subset of the chaos matrix — each seed
/// runs the scenario twice (sim and sockets), so the pinned set stays
/// small and the nightly sweep widens it.
pub fn parity_seeds() -> Vec<u64> {
    seeds_from_env("SCI_TCP_PARITY_SEEDS", &[1, 2, 3, 5, 8])
}

fn seeds_from_env(var: &str, default: &[u64]) -> Vec<u64> {
    std::env::var(var)
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}
