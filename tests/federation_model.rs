//! Integration: live federations export a [`FederationModel`] that the
//! SCI-A2xx verifier accepts, and seeded misconfigurations surface as
//! the documented diagnostics *before* any traffic flows:
//!
//! * a healthy serial or parallel federation verifies clean;
//! * partitioning a range that place directories route through is
//!   SCI-A201 (`PartitionUnroutable`);
//! * a `qoc-max-age-us` bound tighter than the worst-case relay
//!   backoff is SCI-A203 (`FreshnessInfeasible`).
//!
//! Also the parked-relay determinism regression: two same-seed chaos
//! runs must re-fire parked relays in an identical order, so their
//! delivery *sequences* (not just multisets) coincide.

use sci::prelude::*;

type ChaosFed = Federation<FaultyTransport<SimNetwork>>;

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

fn server(i: usize, ids: &mut GuidGenerator) -> (ContextServer, Guid) {
    let mut cs = ContextServer::new(ids.next_guid(), format!("range-{i}"), range_plan(i));
    let sensor = ids.next_guid();
    cs.register(
        Profile::builder(sensor, EntityKind::Device, format!("sensor-{i}"))
            .output(PortSpec::new("presence", ContextType::Presence))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    (cs, sensor)
}

/// Three ranges over a faulty (but currently fault-free) transport,
/// with one cross-range subscription bounded by `max_age`.
fn rig(max_age: VirtualDuration) -> (ChaosFed, Vec<Guid>) {
    let mut ids = GuidGenerator::seeded(0xfed);
    let mut fed: ChaosFed =
        Federation::with_transport(FaultyTransport::new(SimNetwork::new(), 11), 7);
    let mut nodes = Vec::new();
    for i in 0..3usize {
        let (cs, _sensor) = server(i, &mut ids);
        nodes.push(fed.add_range(cs).unwrap());
    }
    fed.connect_full();
    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info(ContextType::Presence)
        .in_range("range-1")
        .fresh_within(max_age)
        .mode(Mode::Subscribe)
        .build();
    let fa = fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
    assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));
    (fed, nodes)
}

#[test]
fn healthy_serial_federation_verifies_clean() {
    let (fed, nodes) = rig(VirtualDuration::from_secs(10));
    let model = fed.protocol_model();

    assert_eq!(model.ranges.len(), 3);
    assert_eq!(model.links.len(), 6, "directed full mesh over 3 ranges");
    assert!(model.faults.is_some(), "fault layer is installed");
    assert!(model.retry.retries > 0, "relays are retried");
    assert_eq!(
        model.freshness.len(),
        1,
        "one bounded configuration: {model:?}"
    );
    // Place directories key by room name; range-1's hall routes to it.
    assert!(model
        .routes
        .iter()
        .any(|r| r.place == "hall-1" && r.coverer == nodes[1]));

    let report = verify_federation(&model);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn healthy_parallel_federation_verifies_clean() {
    let mut ids = GuidGenerator::seeded(0xfed);
    let mut fed = ParallelFederation::new(11).with_restart_policy(RestartPolicy::bounded(2));
    for i in 0..3usize {
        let (cs, _sensor) = server(i, &mut ids);
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();
    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info(ContextType::Presence)
        .in_range("range-2")
        .fresh_within(VirtualDuration::from_secs(10))
        .mode(Mode::Subscribe)
        .build();
    let fa = fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
    assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));

    let model = fed.protocol_model();
    assert_eq!(model.ranges.len(), 3);
    assert_eq!(model.freshness.len(), 1);
    let report = verify_federation(&model);
    assert!(report.is_clean(), "{report}");
    fed.shutdown();
}

#[test]
fn partitioned_route_is_rejected_as_a201() {
    let (mut fed, nodes) = rig(VirtualDuration::from_secs(10));
    // range-1 covers the subscribed place; isolating it severs every
    // claimed route through it.
    fed.transport_mut().partition("island", &[nodes[1]]);

    let report = verify_federation(&fed.protocol_model());
    assert!(report.has_code(DiagCode::PartitionUnroutable), "{report}");
    assert!(report.has_errors());

    // Healing restores a clean bill.
    fed.transport_mut().heal_partitions();
    let report = verify_federation(&fed.protocol_model());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn infeasible_freshness_is_rejected_as_a203() {
    // Worst-case relay backoff is base * (2^retries - 1) virtual µs;
    // any bound below it makes a fully retried relay dead on arrival.
    let (fed, _nodes) = rig(VirtualDuration::from_micros(1_000));
    let model = fed.protocol_model();
    assert!(
        model.retry.worst_case_backoff_us() > 1_000,
        "fixture bound must sit below the backoff: {:?}",
        model.retry
    );
    let report = verify_federation(&model);
    assert!(report.has_code(DiagCode::FreshnessInfeasible), "{report}");
}

/// One lossy chaos run: returns the delivery keys in arrival order.
fn lossy_run(seed: u64) -> Vec<String> {
    let mut ids = GuidGenerator::seeded(0xbeef);
    let mut fed: ChaosFed =
        Federation::with_transport(FaultyTransport::new(SimNetwork::new(), seed), 7);
    let mut sensors = Vec::new();
    for i in 0..3usize {
        let (cs, sensor) = server(i, &mut ids);
        sensors.push(sensor);
        fed.add_range(cs).unwrap();
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
    fed.transport_mut().set_default_probs(FaultProbs {
        drop: 0.4,
        ..FaultProbs::default()
    });
    let mut order = Vec::new();
    for k in 0..12u64 {
        let now = VirtualTime::from_secs(k + 1);
        for (i, target) in ["range-1", "range-2"].iter().enumerate() {
            let ev = ContextEvent::new(
                sensors[i + 1],
                ContextType::Presence,
                ContextValue::record([(
                    "subject",
                    ContextValue::Id(Guid::from_u128(9_000 + u128::from(k))),
                )]),
                now,
            );
            fed.ingest_at(target, &ev, now).unwrap();
        }
        for d in fed.deliveries_for(app) {
            order.push(format!("{d:?}"));
        }
    }
    fed.transport_mut().heal();
    for step in 0..64u64 {
        if fed.pending_relay_count() == 0 && fed.transport().delayed_len() == 0 {
            break;
        }
        fed.pump(VirtualTime::from_secs(100 + step)).unwrap();
        for d in fed.deliveries_for(app) {
            order.push(format!("{d:?}"));
        }
    }
    fed.pump(VirtualTime::from_secs(200)).unwrap();
    for d in fed.deliveries_for(app) {
        order.push(format!("{d:?}"));
    }
    order
}

#[test]
fn parked_relay_refire_order_is_seed_deterministic() {
    // The retry pass drains parked relays in canonical (dst, id)
    // order, so two same-seed runs must produce byte-identical
    // delivery sequences — order included, not just the multiset.
    for seed in [3u64, 17, 0xfeed] {
        let first = lossy_run(seed);
        let second = lossy_run(seed);
        assert!(!first.is_empty(), "seed {seed}: nothing delivered");
        assert_eq!(first, second, "seed {seed}: replay diverged");
    }
}
