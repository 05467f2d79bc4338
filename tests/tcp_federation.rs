//! Federation with bytes on the wire: the overlay scenarios over real
//! loopback sockets.
//!
//! [`TcpTransport`] implements [`Transport`] over actual TCP streams
//! framed by the `sci-wal` codec, so the federation stack runs here
//! *unchanged* — same `Federation`, same relay protocol, same chaos
//! harness. The suite checks three things the in-process overlay
//! cannot:
//!
//! * **oracle equality** — a 4-range federation over sockets produces
//!   the exact delivery multiset the [`SimNetwork`] run produces;
//! * **chaos parity** — the seeded fault proxy wrapped around sockets
//!   replays the same injected schedule as around the simulator, so
//!   the whole chaos outcome (deliveries *and* retry/dedup counters)
//!   matches field for field, for relays of one row and of two, and
//!   the same seed replays identically on real sockets;
//! * **wire-only behaviour** — peering version negotiation rejects
//!   mismatched nodes, and a late joiner converges its registration
//!   store in the peering handshake's one round trip: `HELLO` and
//!   `WELCOME` each carry their sender's whole store.
//!
//! Every listener binds `127.0.0.1:0` (see `support::net`), so
//! parallel test processes never collide on a port.

mod support;

use sci::overlay::TCP_PROTOCOL_VERSION;
use sci::prelude::*;
use support::chaos::{parity_seeds, range_plan, run_grouped, run_with, Outcome};
use support::net::{assert_loopback_ephemeral, tcp};

/// A 4-range federation over a bare transport: an app homed in
/// `range-0` subscribes to presence in the other three ranges, each
/// remote range ingests five events, and the sorted delivery multiset
/// comes back. Generic so the socket run and the simulator oracle are
/// literally the same code.
fn run_four_ranges<T: Transport>(inner: T) -> Vec<String> {
    let mut ids = GuidGenerator::seeded(0xfeed);
    let mut fed: Federation<T> = Federation::with_transport(inner, 7);
    let mut sensors = Vec::new();
    for i in 0..4usize {
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
    for target in ["range-1", "range-2", "range-3"] {
        let q = Query::builder(ids.next_guid(), app)
            .info(ContextType::Presence)
            .in_range(target)
            .mode(Mode::Subscribe)
            .build();
        let fa = fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
        assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));
    }

    let mut deliveries = Vec::new();
    for k in 0..5u64 {
        let now = VirtualTime::from_secs(k + 1);
        for (i, target) in ["range-1", "range-2", "range-3"].iter().enumerate() {
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
        drain(&mut fed, app, &mut deliveries);
    }
    for step in 0..64u64 {
        if fed.pending_relay_count() == 0 {
            break;
        }
        fed.pump(VirtualTime::from_secs(100 + step)).unwrap();
        drain(&mut fed, app, &mut deliveries);
    }
    assert_eq!(fed.pending_relay_count(), 0, "relays must quiesce");
    fed.pump(VirtualTime::from_secs(200)).unwrap();
    drain(&mut fed, app, &mut deliveries);

    deliveries.sort_unstable();
    deliveries
}

fn drain<T: Transport>(fed: &mut Federation<T>, app: Guid, into: &mut Vec<String>) {
    for d in fed.deliveries_for(app) {
        into.push(format!(
            "{}|{}|{}|{:?}",
            d.app, d.query, d.event.timestamp, d.event.payload
        ));
    }
}

/// Two ranges over real sockets: a subscription crosses the wire, an
/// event relays back, and every listener followed the port-0 policy.
#[test]
fn two_range_federation_delivers_over_loopback() {
    let mut ids = GuidGenerator::seeded(0xfeed);
    let mut fed: Federation<TcpTransport> = Federation::with_transport(tcp(), 7);
    let mut sensors = Vec::new();
    let mut nodes = Vec::new();
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
        nodes.push(fed.add_range(cs).unwrap());
    }
    fed.connect_full();
    for &n in &nodes {
        assert_loopback_ephemeral(fed.transport().listener_addr(n).unwrap());
    }

    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info(ContextType::Presence)
        .in_range("range-1")
        .mode(Mode::Subscribe)
        .build();
    let fa = fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
    assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));

    let ev = ContextEvent::new(
        sensors[1],
        ContextType::Presence,
        ContextValue::record([("subject", ContextValue::Id(Guid::from_u128(42)))]),
        VirtualTime::from_secs(1),
    );
    fed.ingest_at("range-1", &ev, VirtualTime::from_secs(1))
        .unwrap();
    fed.pump(VirtualTime::from_secs(2)).unwrap();
    let got = fed.deliveries_for(app);
    assert_eq!(got.len(), 1, "one relayed delivery over the socket");
    assert_eq!(got[0].event.source, sensors[1]);
}

/// The socket federation is behaviourally invisible: a 4-range run
/// over TCP yields the exact delivery multiset of the in-process
/// simulator oracle.
#[test]
fn four_range_multiset_equals_simnetwork_oracle() {
    let over_tcp = run_four_ranges(tcp());
    let oracle = run_four_ranges(SimNetwork::new());
    assert_eq!(
        over_tcp, oracle,
        "socket federation must reproduce the simulator's delivery multiset"
    );
    assert!(!oracle.is_empty(), "the oracle run must actually deliver");
}

/// Version negotiation: a node speaking a different protocol version
/// is rejected at the handshake, before any data frame moves.
#[test]
fn version_mismatch_is_rejected_at_the_handshake() {
    let mut ids = GuidGenerator::seeded(0xfeed);
    let mut current = tcp();
    let a = ids.next_guid();
    current.add_node(a, "range-a").unwrap();

    let mut future = tcp();
    future.set_protocol_version(TCP_PROTOCOL_VERSION + 1);
    let b = ids.next_guid();
    future.add_node(b, "range-b").unwrap();

    let err = future
        .peer_with(b, current.listener_addr(a).unwrap())
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("rejected"),
        "rejection must name the handshake failure, got: {msg}"
    );
    assert_eq!(
        future.connections_of(b),
        0,
        "no connection survives a rejected handshake"
    );
}

/// A late joiner converges in its handshakes: it bootstraps off one
/// peer, digests disagree, the two stores cross in `HELLO` and
/// `WELCOME`, and afterwards every node's registration digest is
/// identical — including the ranges it never dialled directly, once the
/// federation re-wires. What a node routes
/// by is its own replica, so the routing follows the same steps: a node
/// resolves a hall exactly when the claim has reached it.
#[test]
fn late_joiner_converges_through_anti_entropy() {
    let mut ids = GuidGenerator::seeded(0xfeed);
    let mut fed: Federation<TcpTransport> = Federation::with_transport(tcp(), 7);
    let mut nodes = Vec::new();
    for i in 0..2usize {
        let mut cs = ContextServer::new(ids.next_guid(), format!("range-{i}"), range_plan(i));
        cs.register(
            Profile::builder(ids.next_guid(), EntityKind::Device, format!("sensor-{i}"))
                .attribute("room", ContextValue::place(format!("hall-{i}")))
                .build(),
            VirtualTime::ZERO,
        )
        .unwrap();
        nodes.push(fed.add_range(cs).unwrap());
    }
    fed.connect_full();

    // The late joiner arrives after the federation formed; its
    // registrations exist only in its own store until it syncs.
    let cs = ContextServer::new(ids.next_guid(), "range-late".to_owned(), range_plan(9));
    let late = fed.add_range(cs).unwrap();
    assert_ne!(
        fed.transport().registration_digest(late),
        fed.transport().registration_digest(nodes[0]),
        "digests must disagree before anti-entropy runs"
    );
    assert_eq!(
        (
            fed.range_covering_from(late, "hall-0"),
            fed.range_covering_from(nodes[0], "hall-9")
        ),
        (None, None),
        "nobody routes by a claim that has not reached them"
    );

    fed.join_discovery(late, nodes[0], 7).unwrap();
    assert_eq!(
        fed.transport().registration_digest(late),
        fed.transport().registration_digest(nodes[0]),
        "bootstrap pair must converge during the join handshake"
    );
    assert_eq!(
        fed.transport().registration(late, "range/range-0"),
        Some(nodes[0].to_string()),
        "the joiner must have learned the elder range's registration"
    );
    assert_eq!(
        fed.transport().registration(nodes[0], "range/range-late"),
        Some(late.to_string()),
        "the elder must have learned the joiner's registration"
    );
    assert_eq!(
        (
            fed.range_covering_from(late, "hall-0"),
            fed.range_covering_from(nodes[0], "hall-9")
        ),
        (Some(nodes[0]), Some(late)),
        "the bootstrap pair routes by what the handshake taught it"
    );
    let q = Query::builder(ids.next_guid(), ids.next_guid())
        .kind(EntityKind::Device)
        .in_place("hall-0")
        .all()
        .mode(Mode::Profile)
        .build();
    let fa = fed
        .submit_from("range-late", &q, VirtualTime::ZERO)
        .unwrap();
    match fa.answer {
        QueryAnswer::Profiles(ps) => assert_eq!(ps[0].name(), "sensor-0"),
        other => panic!("the elder range must answer for its hall, got {other:?}"),
    }
    assert_eq!(
        fed.range_covering_from(nodes[1], "hall-9"),
        None,
        "range-1 has not met the joiner yet"
    );

    // Re-wiring the full mesh dials only the missing pairs; the stores
    // each new connection's handshake carries bring the last node in
    // line.
    fed.connect_full();
    assert_eq!(
        fed.transport().registration_digest(nodes[1]),
        fed.transport().registration_digest(late),
        "all nodes must agree after the mesh closes"
    );
    assert_eq!(fed.range_covering_from(nodes[1], "hall-9"), Some(late));
}

/// One directory, one conflict rule: three ranges that all claim
/// `atrium` resolve it to the same coverer at every node. Where
/// the nodes share one replica the first claim stands; where each has
/// its own, the claims meet at `connect_full` and the highest
/// `(version, origin)` wins everywhere.
fn contested_room_coverers<T: Transport>(inner: T) -> (Vec<Guid>, Guid) {
    let mut ids = GuidGenerator::seeded(0xfeed);
    let mut fed: Federation<T> = Federation::with_transport(inner, 7);
    let mut nodes = Vec::new();
    for i in 0..3usize {
        let rect = Rect::with_size(Coord::new(0.0, 0.0), 20.0, 10.0);
        let plan = FloorPlan::builder("campus")
            .zone(format!("wing-{i}"))
            .room(format!("hall-{i}"), rect)
            .room("atrium", rect)
            .build()
            .unwrap();
        let mut cs = ContextServer::new(ids.next_guid(), format!("range-{i}"), plan);
        cs.register(
            Profile::builder(ids.next_guid(), EntityKind::Device, format!("sensor-{i}"))
                .attribute("room", ContextValue::place(format!("hall-{i}")))
                .build(),
            VirtualTime::ZERO,
        )
        .unwrap();
        nodes.push(fed.add_range(cs).unwrap());
    }
    fed.connect_full();

    let coverer = fed
        .range_covering_from(nodes[0], "atrium")
        .expect("somebody covers the atrium");
    for &at in &nodes {
        assert_eq!(fed.range_covering_from(at, "atrium"), Some(coverer));
        for (j, &owner) in nodes.iter().enumerate() {
            assert_eq!(
                fed.range_covering_from(at, &format!("hall-{j}")),
                Some(owner),
                "every node knows every uncontested hall"
            );
        }
    }

    // A query by place is forwarded to where the asking node says.
    let q = Query::builder(ids.next_guid(), ids.next_guid())
        .kind(EntityKind::Device)
        .in_place("hall-2")
        .all()
        .mode(Mode::Profile)
        .build();
    let fa = fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
    match fa.answer {
        QueryAnswer::Profiles(ps) => assert_eq!(ps[0].name(), "sensor-2"),
        other => panic!("unexpected {other:?}"),
    }
    (nodes, coverer)
}

#[test]
fn a_contested_room_has_one_coverer_at_every_node_on_both_transports() {
    let (nodes, coverer) = contested_room_coverers(SimNetwork::new());
    assert_eq!(
        coverer, nodes[0],
        "one shared replica: the first claim stands"
    );
    let (nodes, coverer) = contested_room_coverers(tcp());
    assert_eq!(
        Some(coverer),
        nodes.iter().copied().max(),
        "a replica per node: equal versions, so the highest origin wins"
    );
}

/// A range that enters through `recover_range` is admitted like any
/// other: its claims are in its own replica at once and in its peers'
/// once they have met.
#[test]
fn a_range_admitted_through_recover_range_is_in_every_replica() {
    let mut ids = GuidGenerator::seeded(0xfeed);
    let mut fed: ParallelFederation<TcpTransport> = ParallelFederation::with_transport(tcp(), 7);
    let elder = fed
        .add_range(ContextServer::new(
            ids.next_guid(),
            "range-0".to_owned(),
            range_plan(0),
        ))
        .unwrap();
    let newcomer = fed
        .recover_range(ContextServer::new(
            ids.next_guid(),
            "range-new".to_owned(),
            range_plan(7),
        ))
        .unwrap();
    let claims = [("range/range-new", newcomer), ("place/hall-7", newcomer)];
    for (key, owner) in claims {
        assert_eq!(
            fed.transport().registration(newcomer, key),
            Some(owner.to_string()),
            "`{key}` must be in the newcomer's own replica"
        );
        assert_eq!(fed.transport().registration(elder, key), None);
    }
    fed.connect_full();
    for (key, owner) in claims {
        assert_eq!(
            fed.transport().registration(elder, key),
            Some(owner.to_string()),
            "`{key}` must reach the elder's replica"
        );
    }
    assert_eq!(fed.range_covering_from(elder, "hall-7"), Some(newcomer));
    fed.shutdown();
}

/// Chaos parity, on the pinned seed matrix: the identical chaos
/// scenario, fault proxy and seed produce the identical outcome —
/// delivery multiset, dedup counter and retry counter — whether the
/// wrapped transport is the simulator or real sockets.
#[test]
fn chaos_outcome_matches_simnetwork_under_the_same_seed() {
    for seed in parity_seeds() {
        let probs = FaultProbs::lossy(0.3);
        let over_tcp = run_with(tcp(), seed, probs);
        let over_sim = run_with(SimNetwork::new(), seed, probs);
        assert_eq!(
            over_tcp, over_sim,
            "seed {seed}: chaos outcome diverged between sockets and simulator"
        );
        // Relays of two rows: the same outcome on both wires, the
        // fault-free multiset, and exact dedup accounting at total ack
        // loss.
        let grouped = run_grouped(tcp(), seed, probs);
        assert_eq!(grouped, run_grouped(SimNetwork::new(), seed, probs));
        let clean = run_grouped(SimNetwork::new(), seed, FaultProbs::NONE);
        assert_eq!(grouped.deliveries, clean.deliveries, "seed {seed}");
        let acks_lost = FaultProbs {
            drop: 0.4,
            ack_loss: 1.0,
            ..FaultProbs::NONE
        };
        let lossy = run_grouped(tcp(), seed, acks_lost);
        assert_eq!(lossy.dedup_hits, lossy.retry_attempts, "seed {seed}");
        assert_eq!(lossy.deliveries, clean.deliveries, "seed {seed}");
    }
}

/// The acceptance invariant survives the move to sockets: with total
/// ack loss every "failed" send actually lands, so dedup hits equal
/// retransmissions exactly — over real TCP, behind the same proxy.
#[test]
fn dedup_accounting_holds_over_sockets_under_total_ack_loss() {
    let mut exercised = false;
    for seed in parity_seeds().into_iter().take(3) {
        let probs = FaultProbs {
            drop: 0.4,
            ack_loss: 1.0,
            ..FaultProbs::NONE
        };
        let chaos = run_with(tcp(), seed, probs);
        assert_eq!(
            chaos.dedup_hits, chaos.retry_attempts,
            "seed {seed}: dedup hits must equal retransmissions over sockets"
        );
        let clean = run_with(tcp(), seed, FaultProbs::NONE);
        assert_eq!(
            chaos.deliveries, clean.deliveries,
            "seed {seed}: no duplicate deliveries may reach the app"
        );
        exercised |= chaos.retry_attempts > 0;
    }
    assert!(
        exercised,
        "at 40% drop some seed must provoke a retransmission"
    );
}

/// Seed-exact replay on real sockets: the same seed, run twice over
/// two fresh socket transports, produces the identical outcome.
#[test]
fn same_seed_replays_identically_over_sockets() {
    let seed = 0xdead_beef;
    let a: Outcome = run_with(tcp(), seed, FaultProbs::lossy(0.25));
    let b: Outcome = run_with(tcp(), seed, FaultProbs::lossy(0.25));
    assert_eq!(a, b, "socket chaos run did not replay from its seed");
}
