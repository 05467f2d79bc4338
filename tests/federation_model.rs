//! Integration: what the retired static federation model predicted,
//! the running relay reports.
//!
//! * a `qoc-max-age-us` bound tighter than the worst-case relay
//!   backoff is counted in `federation.freshness.infeasible` and
//!   traced when the query is submitted (it was SCI-A203); the answer
//!   is the same either way;
//! * an unreachable coverer (SCI-A201) is `tests/degraded_answers.rs`'s
//!   `Partial { reason: "unroutable" }`, and a route with no wire
//!   (SCI-A207) is `net.tcp.unknown_peer`, pinned beside `TcpTransport`.
//!
//! Also the parked-relay determinism regression: two same-seed chaos
//! runs must re-fire parked relays in an identical order, so their
//! delivery *sequences* (not just multisets) coincide.

use std::sync::Arc;

use sci::core::relay::{RELAY_RETRIES, RETRY_BACKOFF_BASE_US};
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
/// with one cross-range subscription bounded by `max_age`, submitted
/// under `tracer`.
fn rig(max_age: VirtualDuration, tracer: Tracer) -> ChaosFed {
    let mut ids = GuidGenerator::seeded(0xfed);
    let mut fed: ChaosFed =
        Federation::with_transport(FaultyTransport::new(SimNetwork::new(), 11), 7);
    for i in 0..3usize {
        let (cs, _sensor) = server(i, &mut ids);
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();
    fed.set_tracer(tracer);
    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info(ContextType::Presence)
        .in_range("range-1")
        .fresh_within(max_age)
        .mode(Mode::Subscribe)
        .build();
    let fa = fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
    assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));
    fed
}

#[test]
fn a_freshness_bound_below_the_retry_backoff_is_counted() {
    // A relay retried in full arrives base · (2^retries − 1) virtual µs
    // late: a bound below that is stale on every full retry.
    let backoff = RETRY_BACKOFF_BASE_US * ((1 << RELAY_RETRIES) - 1);
    assert!(
        backoff > 1_000,
        "the tight bound must sit below {backoff} µs"
    );
    let infeasible = |fed: &ChaosFed| fed.snapshot().counter("federation.freshness.infeasible");

    let ring = Arc::new(RingBufferSubscriber::new(8));
    let tight = rig(VirtualDuration::from_millis(1), Tracer::new(ring.clone()));
    assert_eq!(infeasible(&tight), 1);
    let traced = ring.records();
    let spans = traced
        .iter()
        .filter(|r| r.name() == "federation.freshness.infeasible");
    assert_eq!(spans.count(), 1, "{traced:?}");

    let loose = rig(VirtualDuration::from_secs(10), Tracer::noop());
    assert_eq!(infeasible(&loose), 0);
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
