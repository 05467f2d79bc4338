//! Protocol tests against the relay core itself, not a driver: a
//! `RelayCore` over `FaultyTransport<SimNetwork>` whose hosts are bare
//! `ContextServer`s.
//!
//! * **Decoder totality.** Every way a relay payload can be mangled —
//!   for the `QueryResponse` and `Migrate` documents: not UTF-8, not
//!   XML, wrong root element, a missing `app`/`query`/`origin`/`seq`,
//!   a non-numeric `seq`, a missing body; for the binary `EventRelay`
//!   record: cut at any byte, no rows, a hostile row count, an unknown
//!   value tag, a hostile count, nesting past the bound, a non-UTF-8
//!   topic, trailing garbage, the XML `<relay>` of an earlier protocol
//!   version — yields `SciError::Codec` and a
//!   `federation.relay.undecodable` count: never a panic, and never a
//!   poisoned exactly-once entry that would mask the well-formed
//!   retransmission of the same envelope.
//! * **One relay, several rows.** An event relay carries the event
//!   once and one `(seq, app, query)` row per delivery; exactly-once
//!   holds row by row — for a partly seen group, a mangled group and
//!   its retransmission, and a row repeated inside one relay.
//! * **Exactly-once under faults.** Under drop, duplicate and ack-loss
//!   schedules over 32 pinned seeds, the delivered multiset equals the
//!   unfaulted one, duplicates are caught by the `(origin, seq)`
//!   filter, and parked relays drain to zero once the faults clear.
//! * **The query round trip.** `submit_from` executes its own forward
//!   once and reads its own response: a duplicated forward, a stray
//!   answer at home and an undecodable or unappliable stray at the
//!   target change nothing about the submission; the stray's error is
//!   the next pump's. A forwarded query is answered where it lands,
//!   and that answer, an error or a forward of its own, comes home as
//!   it is: a relay never forwards twice, so replicas that disagree
//!   about a place cannot make a query bounce between ranges.
//!
//! The serial-vs-parallel parity tests in `tests/parallel_federation.rs`
//! then isolate what they were written for: inline vs threaded
//! execution of this one protocol.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bytes::Bytes;
use sci_core::context_server::{AppDelivery, ContextServer, QueryAnswer};
use sci_core::federation::{answer_to_xml, event_relay_group, event_relay_payload, RelayRow};
use sci_core::relay::RelayCore;
use sci_core::MigrationPacket;
use sci_location::floorplan::FloorPlan;
use sci_location::Rect;
use sci_overlay::message::{Message, MessageKind};
use sci_overlay::{FaultProbs, FaultyTransport, SimNetwork, Transport};
use sci_query::codec::event_to_element;
use sci_query::xml::{parse, Element};
use sci_query::{Mode, Query};
use sci_types::guid::GuidGenerator;
use sci_types::{
    ContextEvent, ContextType, ContextValue, Coord, EntityKind, Guid, PortSpec, Profile, SciError,
    VirtualTime,
};

type Core = RelayCore<FaultyTransport<SimNetwork>, ContextServer>;

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

fn presence(sensor: Guid, k: u64) -> ContextEvent {
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

/// `n` ranges, each with one presence sensor, fully connected over a
/// (so far fault-free) faulty transport. Returns the core, the node
/// GUIDs and the sensors.
fn core_of(n: usize, seed: u64) -> (Core, Vec<Guid>, Vec<Guid>) {
    let mut ids = GuidGenerator::seeded(0xc0de);
    let mut core: Core =
        RelayCore::with_transport(FaultyTransport::new(SimNetwork::new(), seed), 7);
    let (mut nodes, mut sensors) = (Vec::new(), Vec::new());
    for i in 0..n {
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
        nodes.push(core.add_range(cs).unwrap());
    }
    core.connect_full();
    (core, nodes, sensors)
}

// ---------------------------------------------------------------------
// (a) Decoder totality
// ---------------------------------------------------------------------

const APP: Guid = Guid::from_u128(0xA99);
const QUERY: Guid = Guid::from_u128(0x200);

/// Mangled payloads, each with what was done to it.
type Manglings = Vec<(String, Vec<u8>)>;

/// One relay class: its message kind, a well-formed payload for
/// envelope `(origin, seq)`, every mangling of that payload, and how
/// many times its effect has been observed at the receiving end.
struct Class {
    kind: MessageKind,
    good: fn(Guid, u64) -> Vec<u8>,
    manglings: fn(Guid, u64) -> Manglings,
    landed: fn(&mut Core, u64) -> usize,
}

fn enveloped(root: &str, origin: Guid, seq: u64) -> Element {
    Element::new(root)
        .with_attr("app", APP.to_string())
        .with_attr("query", QUERY.to_string())
        .with_attr("origin", origin.to_string())
        .with_attr("seq", seq.to_string())
}

fn event_relay(origin: Guid, seq: u64) -> Vec<u8> {
    let delivery = AppDelivery {
        app: APP,
        query: QUERY,
        event: presence(origin, seq),
    };
    event_relay_payload((origin, seq), &delivery)
}

fn answer_relay(origin: Guid, seq: u64) -> Element {
    let answer = parse(&answer_to_xml(&QueryAnswer::Deferred)).unwrap();
    enveloped("answer-relay", origin, seq).with_child(answer)
}

/// The entity a scripted migration with envelope `seq` carries.
fn migrant(seq: u64) -> Guid {
    Guid::from_u128(0x3000 + u128::from(seq))
}

fn migrate(origin: Guid, seq: u64) -> Element {
    let mut packet = MigrationPacket::new(migrant(seq));
    packet
        .profiles
        .push(Profile::builder(migrant(seq), EntityKind::Person, "migrant").build());
    Element::new("migrate")
        .with_attr("entity", migrant(seq).to_string())
        .with_attr("origin", origin.to_string())
        .with_attr("seq", seq.to_string())
        .with_child(parse(&packet.to_xml()).unwrap())
}

const CLASSES: [Class; 3] = [
    Class {
        kind: MessageKind::EventRelay,
        good: event_relay,
        manglings: binary_manglings,
        landed: |core, _| core.deliveries_for(APP).len(),
    },
    Class {
        kind: MessageKind::QueryResponse,
        good: |origin, seq| answer_relay(origin, seq).to_xml().into_bytes(),
        manglings: |origin, seq| xml_manglings("answer", true, &answer_relay(origin, seq)),
        landed: |core, _| core.answers_for(APP).len(),
    },
    Class {
        kind: MessageKind::Migrate,
        good: |origin, seq| migrate(origin, seq).to_xml().into_bytes(),
        manglings: |origin, seq| xml_manglings("migration", false, &migrate(origin, seq)),
        landed: |core, seq| {
            let target = core.host("range-1").unwrap();
            usize::from(target.registrar().is_registered(migrant(seq)))
        },
    },
];

/// Every mangling of a well-formed binary event relay: the wire twin
/// of the log's crash-at-any-byte sweep, then what a hostile peer
/// would put behind a valid envelope and event header.
fn binary_manglings(origin: Guid, seq: u64) -> Manglings {
    let good = event_relay(origin, seq);
    let find = |needle: &[u8]| {
        good.windows(needle.len())
            .position(|w| w == needle)
            .unwrap()
    };
    let topic = find(b"presence");
    // Origin, the row and the event up to its sequence number: what
    // precedes the event's value.
    let front = &good[..topic + "presence".len() + 8 + 8];
    let behind_front = |value: &[u8]| [front, value].concat();
    let mut cases: Manglings = (0..good.len())
        .map(|cut| (format!("cut at byte {cut}"), good[..cut].to_vec()))
        .collect();
    let mut bad_topic = good.clone();
    bad_topic[topic] = 0xff;
    // Origin, row count, one 40-byte row: where the event record starts.
    let (count, event) = (16, 16 + 4 + 40);
    cases.extend([
        (
            "no rows".into(),
            [&good[..count], &[0; 4], &good[event..]].concat(),
        ),
        (
            "hostile row count".into(),
            [&good[..count], &[0xff; 4], &good[count + 4..]].concat(),
        ),
        ("unknown value tag".into(), behind_front(&[0x7f])),
        (
            "hostile count".into(),
            behind_front(&[9, 0xff, 0xff, 0xff, 0xff]),
        ),
        (
            "nesting past the bound".into(),
            behind_front(&[9, 0, 0, 0, 1].repeat(10_000)),
        ),
        ("non-UTF-8 topic".into(), bad_topic),
        ("trailing garbage".into(), [&good[..], &[0]].concat()),
        (
            "the XML <relay> of protocol version 2".into(),
            enveloped("relay", origin, seq)
                .with_child(event_to_element(&presence(origin, seq)))
                .to_xml()
                .into_bytes(),
        ),
    ]);
    cases
}

/// Every mangling of a well-formed envelope document whose body is a
/// `<{body}>` child, as payload bytes.
fn xml_manglings(body: &str, addressed: bool, good: &Element) -> Manglings {
    let without = |key: &str| {
        let mut doc = good.clone();
        doc.attrs.retain(|(k, _)| k != key);
        doc.to_xml().into_bytes()
    };
    let mut wrong_root = good.clone();
    wrong_root.name = "bogus".into();
    let mut bad_seq = good.clone();
    for (k, v) in &mut bad_seq.attrs {
        if k == "seq" {
            *v = "seven".into();
        }
    }
    let mut bad_origin = good.clone();
    for (k, v) in &mut bad_origin.attrs {
        if k == "origin" {
            *v = "not-a-guid".into();
        }
    }
    let mut no_body = good.clone();
    no_body.children.retain(|c| c.name != body);
    let xml = good.to_xml();
    let mut cases = vec![
        ("not UTF-8", vec![0xff, 0xfe, 0x00, 0xc3]),
        ("empty", Vec::new()),
        ("truncated XML", xml.as_bytes()[..xml.len() / 2].to_vec()),
        ("wrong root", wrong_root.to_xml().into_bytes()),
        ("missing origin", without("origin")),
        ("missing seq", without("seq")),
        ("non-numeric seq", bad_seq.to_xml().into_bytes()),
        ("malformed origin", bad_origin.to_xml().into_bytes()),
        ("missing body", no_body.to_xml().into_bytes()),
    ];
    if addressed {
        cases.push(("missing app", without("app")));
        cases.push(("missing query", without("query")));
    }
    cases
        .into_iter()
        .map(|(what, payload)| (what.to_owned(), payload))
        .collect()
}

#[test]
fn hostile_payloads_are_codec_errors_and_never_mask_the_retransmission() {
    let (mut core, nodes, _) = core_of(2, 1);
    let (src, dst) = (nodes[0], nodes[1]);
    let mut msg_ids = GuidGenerator::seeded(0xbad);
    let mut inject = |core: &mut Core, kind: MessageKind, payload: Vec<u8>| {
        let msg = Message::new(msg_ids.next_guid(), src, dst, kind, Bytes::from(payload));
        core.transport_mut().send(msg).unwrap();
    };
    let now = VirtualTime::from_secs(1);
    let undecodable = |core: &Core| core.snapshot().counter("federation.relay.undecodable");
    let mut seq = 0u64;

    for class in &CLASSES {
        // Each mangling spoils its own envelope: an event relay's is
        // checked against the exactly-once filter before its body is
        // looked at, so a spent one would be a duplicate, not an error.
        for case in 0..(class.manglings)(src, 0).len() {
            seq += 1;
            let (what, payload) = (class.manglings)(src, seq).swap_remove(case);
            let good = (class.good)(src, seq);
            let label = format!("{:?} / {what}", class.kind);

            // The mangled copy is refused and counted, delivers nothing …
            let refusals = undecodable(&core);
            inject(&mut core, class.kind, payload);
            let refused = core.pump(now);
            assert!(
                matches!(refused, Err(SciError::Codec(_))),
                "{label}: expected a codec error, got {refused:?}"
            );
            assert_eq!(undecodable(&core), refusals + 1, "{label}: not counted");
            assert_eq!((class.landed)(&mut core, seq), 0, "{label}: delivered");

            // … and the well-formed retransmission of the very same
            // envelope still gets through, exactly once.
            let dedup = core.relay_dedup_hits();
            inject(&mut core, class.kind, good.clone());
            core.pump(now).unwrap();
            assert_eq!((class.landed)(&mut core, seq), 1, "{label}: masked");
            assert_eq!(core.relay_dedup_hits(), dedup, "{label}");
            inject(&mut core, class.kind, good);
            core.pump(now).unwrap();
            assert_eq!(core.relay_dedup_hits(), dedup + 1, "{label}: replayed");
        }
    }
    assert_eq!(core.pending_relay_count(), 0);
    assert_eq!(
        core.snapshot().counter("range.migrate.in"),
        (CLASSES[2].manglings)(src, 0).len() as u64,
        "each migration replayed exactly once"
    );
}

#[test]
fn a_hostile_payload_does_not_strand_the_traffic_drained_beside_it() {
    let (mut core, nodes, _) = core_of(2, 1);
    let (src, dst) = (nodes[0], nodes[1]);
    let class = &CLASSES[0];
    for (i, payload) in [(class.good)(src, 1), vec![0xff], (class.good)(src, 2)]
        .into_iter()
        .enumerate()
    {
        let id = Guid::from_u128(0x900 + i as u128);
        let msg = Message::new(id, src, dst, class.kind, Bytes::from(payload));
        core.transport_mut().send(msg).unwrap();
    }
    let refused = core.pump(VirtualTime::from_secs(1));
    assert!(matches!(refused, Err(SciError::Codec(_))), "{refused:?}");
    assert_eq!(core.deliveries_for(APP).len(), 2);
}

#[test]
fn strangers_are_dropped_without_a_trace() {
    // Other message kinds, and the bare `<answer>` of a query
    // round-trip whose submission already degraded, are not relays.
    let (mut core, nodes, _) = core_of(2, 1);
    let (src, dst) = (nodes[0], nodes[1]);
    let stray = answer_to_xml(&QueryAnswer::Deferred).into_bytes();
    for (i, (kind, payload)) in [
        (MessageKind::QueryResponse, stray),
        (MessageKind::QueryForward, vec![0xff]),
        (MessageKind::Ping, Vec::new()),
    ]
    .into_iter()
    .enumerate()
    {
        let id = Guid::from_u128(0x900 + i as u128);
        let msg = Message::new(id, src, dst, kind, Bytes::from(payload));
        core.transport_mut().send(msg).unwrap();
    }
    core.pump(VirtualTime::from_secs(1)).unwrap();
    assert!(core.answers_for(APP).is_empty());
    assert_eq!(core.relay_dedup_hits(), 0);
}

// ---------------------------------------------------------------------
// One event relay, several rows
// ---------------------------------------------------------------------

const APP2: Guid = Guid::from_u128(0xA9A);

/// Sends one `EventRelay` from `range-0` to `range-1` carrying one
/// event under `rows` of `(seq, app)`, its last `cut` bytes cut off,
/// then pumps it in.
fn relay_group(core: &mut Core, rows: &[(u64, Guid)], cut: usize) -> Result<(), SciError> {
    let node = |name| core.transport().find_by_name(name).unwrap();
    let (src, dst) = (node("range-0"), node("range-1"));
    let rows: Vec<RelayRow> = rows.iter().map(|&(seq, app)| (seq, app, QUERY)).collect();
    let mut payload = event_relay_group(src, &rows, &presence(src, 0));
    payload.truncate(payload.len() - cut);
    let id = Guid::from_u128(0x900);
    let msg = Message::new(id, src, dst, MessageKind::EventRelay, Bytes::from(payload));
    core.transport_mut().send(msg).unwrap();
    core.pump(VirtualTime::from_secs(1))
}

/// How many deliveries `APP` and `APP2` have received since last asked.
fn landed(core: &mut Core) -> (usize, usize) {
    (
        core.deliveries_for(APP).len(),
        core.deliveries_for(APP2).len(),
    )
}

/// A relay re-grouped around a row already delivered (what a
/// recovered range re-streaming its outbox may produce) delivers its
/// other rows, and counts once as a duplicate.
#[test]
fn a_partly_seen_group_delivers_exactly_its_unseen_rows() {
    let (mut core, _, _) = core_of(2, 1);
    relay_group(&mut core, &[(1, APP)], 0).unwrap();
    assert_eq!(landed(&mut core), (1, 0));
    relay_group(&mut core, &[(1, APP), (2, APP2), (3, APP)], 0).unwrap();
    assert_eq!(landed(&mut core), (1, 1));
    assert_eq!(core.relay_dedup_hits(), 1);
    relay_group(&mut core, &[(2, APP2), (3, APP)], 0).unwrap();
    assert_eq!(landed(&mut core), (0, 0));
    assert_eq!(core.relay_dedup_hits(), 2);
}

/// Rows are recorded only once the event has decoded: a mangled group
/// masks none of them, and its intact retransmission delivers each once.
#[test]
fn a_mangled_group_then_its_retransmission_delivers_every_row_once() {
    let (mut core, _, _) = core_of(2, 1);
    let rows = [(1, APP), (2, APP2)];
    let refused = relay_group(&mut core, &rows, 1);
    assert!(matches!(refused, Err(SciError::Codec(_))), "{refused:?}");
    assert_eq!(landed(&mut core), (0, 0));
    relay_group(&mut core, &rows, 0).unwrap();
    assert_eq!(landed(&mut core), (1, 1));
    assert_eq!(core.relay_dedup_hits(), 0);
}

/// A row repeated inside one relay is one delivery, and the relay
/// counts once as a duplicate.
#[test]
fn a_row_repeated_inside_one_relay_is_delivered_once() {
    let (mut core, _, _) = core_of(2, 1);
    relay_group(&mut core, &[(1, APP), (1, APP), (2, APP)], 0).unwrap();
    assert_eq!(landed(&mut core), (2, 0));
    assert_eq!(core.relay_dedup_hits(), 1);
}

// ---------------------------------------------------------------------
// (b) Exactly-once under fault schedules
// ---------------------------------------------------------------------

const EVENTS: u64 = 10;

struct Outcome {
    deliveries: Vec<String>,
    dedup_hits: u64,
    retry_attempts: u64,
}

/// An app homed in `range-0` subscribed to presence in `range-1` and
/// `range-2`; `EVENTS` rounds of one event per producer under `probs`,
/// then the transport heals and the core pumps to quiescence.
fn run(seed: u64, probs: FaultProbs) -> Outcome {
    let (mut core, _, sensors) = core_of(3, seed);
    let mut ids = GuidGenerator::seeded(0xface);
    let app = ids.next_guid();
    for target in ["range-1", "range-2"] {
        let q = Query::builder(ids.next_guid(), app)
            .info(ContextType::Presence)
            .in_range(target)
            .mode(Mode::Subscribe)
            .build();
        let fa = core.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
        assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));
    }

    core.transport_mut().set_default_probs(probs);
    let mut deliveries = Vec::new();
    let mut collect = |core: &mut Core| {
        for d in core.deliveries_for(app) {
            deliveries.push(format!(
                "{}|{}|{:?}",
                d.query, d.event.timestamp, d.event.payload
            ));
        }
    };
    for k in 0..EVENTS {
        let now = VirtualTime::from_secs(k + 1);
        for (i, target) in ["range-1", "range-2"].into_iter().enumerate() {
            let host = core.host_mut(target).unwrap();
            host.ingest(&presence(sensors[i + 1], k), now).unwrap();
            core.pump(now).unwrap();
        }
        collect(&mut core);
    }

    core.transport_mut().heal();
    for step in 0..64u64 {
        if core.pending_relay_count() == 0 && core.transport().delayed_len() == 0 {
            break;
        }
        core.pump(VirtualTime::from_secs(100 + step)).unwrap();
        collect(&mut core);
    }
    assert_eq!(
        core.pending_relay_count(),
        0,
        "seed {seed}: relays still parked after the faults cleared"
    );
    core.pump(VirtualTime::from_secs(200)).unwrap();
    collect(&mut core);

    deliveries.sort_unstable();
    Outcome {
        deliveries,
        dedup_hits: core.relay_dedup_hits(),
        retry_attempts: core.retry_attempts(),
    }
}

#[test]
fn delivered_multiset_survives_drop_duplicate_and_ack_loss_schedules() {
    let schedules = [
        (
            "drop",
            FaultProbs {
                drop: 0.4,
                ..FaultProbs::NONE
            },
        ),
        (
            "duplicate",
            FaultProbs {
                duplicate: 0.5,
                ..FaultProbs::NONE
            },
        ),
        (
            "ack-loss",
            FaultProbs {
                drop: 0.4,
                ack_loss: 1.0,
                ..FaultProbs::NONE
            },
        ),
        (
            "everything",
            FaultProbs {
                drop: 0.3,
                delay: 0.2,
                duplicate: 0.3,
                reorder: 0.5,
                ack_loss: 0.5,
            },
        ),
    ];
    let oracle = run(0, FaultProbs::NONE);
    assert_eq!(oracle.deliveries.len() as u64, 2 * EVENTS);
    assert_eq!((oracle.dedup_hits, oracle.retry_attempts), (0, 0));

    for (name, probs) in schedules {
        let (mut deduped, mut retried) = (false, false);
        for seed in 1..=32u64 {
            let faulted = run(seed, probs);
            assert_eq!(
                faulted.deliveries, oracle.deliveries,
                "{name}, seed {seed}: delivery multiset diverged"
            );
            deduped |= faulted.dedup_hits > 0;
            retried |= faulted.retry_attempts > 0;
        }
        if probs.duplicate > 0.0 || probs.ack_loss > 0.0 {
            assert!(deduped, "{name}: no seed ever produced a duplicate");
        }
        if probs.drop > 0.0 {
            assert!(retried, "{name}: no seed ever retried");
        }
    }
}

// ---------------------------------------------------------------------
// (c) The query round trip answers itself and nothing else
// ---------------------------------------------------------------------

/// A profile query for the devices of `range-1`, asked from `range-0`.
fn profile_probe(id: u128) -> Query {
    Query::builder(Guid::from_u128(id), APP)
        .kind(EntityKind::Device)
        .in_range("range-1")
        .all()
        .mode(Mode::Profile)
        .build()
}

/// Regression: `submit_from` executed every forward it drained, so a
/// duplicated one subscribed twice and one event delivered twice.
#[test]
fn a_duplicated_forward_is_executed_once() {
    let (mut core, _, sensors) = core_of(2, 1);
    let q = Query::builder(Guid::from_u128(0x201), APP)
        .info(ContextType::Presence)
        .in_range("range-1")
        .mode(Mode::Subscribe)
        .build();
    core.transport_mut().set_default_probs(FaultProbs {
        duplicate: 1.0,
        ..FaultProbs::NONE
    });
    let fa = core.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
    assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));
    core.transport_mut().heal();
    let target = core.host_mut("range-1").unwrap();
    let submits = target
        .telemetry()
        .snapshot()
        .counter("range.cmd.submit.count");
    assert_eq!(submits, 1, "the duplicate forward was executed");
    target
        .ingest(&presence(sensors[1], 0), VirtualTime::from_secs(1))
        .unwrap();
    core.pump(VirtualTime::from_secs(1)).unwrap();
    assert_eq!(core.deliveries_for(APP).len(), 1);
}

/// Regression: the last `<answer>` drained at home won, so a stray one
/// reordered behind the real response answered a profile query.
#[test]
fn a_stray_answer_at_home_does_not_answer_the_submission() {
    let (mut core, nodes, _) = core_of(2, 1);
    let stray = answer_to_xml(&QueryAnswer::Deferred);
    let msg = Message::new(
        Guid::from_u128(0x900),
        nodes[1],
        nodes[0],
        MessageKind::QueryResponse,
        Bytes::from(stray),
    );
    core.transport_mut().send(msg).unwrap();
    core.transport_mut().set_default_probs(FaultProbs {
        reorder: 1.0,
        ..FaultProbs::NONE
    });
    let fa = core
        .submit_from("range-0", &profile_probe(0x202), VirtualTime::ZERO)
        .unwrap();
    assert!(
        matches!(&fa.answer, QueryAnswer::Profiles(ps) if ps.len() == 1),
        "{:?}",
        fa.answer
    );
}

/// Regression: the first undecodable stray drained at the target failed
/// an unrelated submission with its codec error and dropped the forward
/// beside it.
#[test]
fn a_hostile_stray_does_not_fail_an_unrelated_submission() {
    let (mut core, nodes, _) = core_of(2, 1);
    let msg = Message::new(
        Guid::from_u128(0x900),
        nodes[0],
        nodes[1],
        MessageKind::EventRelay,
        Bytes::from(vec![0xff]),
    );
    core.transport_mut().send(msg).unwrap();
    let fa = core
        .submit_from("range-0", &profile_probe(0x203), VirtualTime::ZERO)
        .unwrap();
    assert!(matches!(&fa.answer, QueryAnswer::Profiles(ps) if ps.len() == 1));
    let undecodable = core.snapshot().counter("federation.relay.undecodable");
    assert_eq!(undecodable, 1, "the stray is counted");
    let pumped = core.pump(VirtualTime::ZERO);
    assert!(matches!(pumped, Err(SciError::Codec(_))), "{pumped:?}");
    core.pump(VirtualTime::ZERO).unwrap();
}

/// A stray that decodes but cannot be applied — a migration whose
/// standing query finds no provider at the target — does not fail the
/// submission it lands beside, and is not lost either: the next pump
/// returns its error, once.
#[test]
fn a_migration_that_fails_beside_a_submission_is_reported_by_the_next_pump() {
    let (mut core, nodes, _) = core_of(2, 1);
    let mut packet = MigrationPacket::new(migrant(1));
    packet
        .profiles
        .push(Profile::builder(migrant(1), EntityKind::Person, "migrant").build());
    packet.standing.push(
        Query::builder(Guid::from_u128(0x205), migrant(1))
            .info(ContextType::Temperature)
            .mode(Mode::Subscribe)
            .build(),
    );
    let doc = Element::new("migrate")
        .with_attr("entity", migrant(1).to_string())
        .with_attr("origin", nodes[0].to_string())
        .with_attr("seq", "1")
        .with_child(parse(&packet.to_xml()).unwrap());
    let msg = Message::new(
        Guid::from_u128(0x900),
        nodes[0],
        nodes[1],
        MessageKind::Migrate,
        Bytes::from(doc.to_xml()),
    );
    core.transport_mut().send(msg).unwrap();
    let fa = core
        .submit_from("range-0", &profile_probe(0x204), VirtualTime::ZERO)
        .unwrap();
    assert!(matches!(&fa.answer, QueryAnswer::Profiles(ps) if ps.len() == 1));
    assert_eq!(core.snapshot().counter("range.migrate.in"), 1);
    let pumped = core.pump(VirtualTime::ZERO);
    assert!(
        matches!(pumped, Err(SciError::Unresolvable(_))),
        "{pumped:?}"
    );
    core.pump(VirtualTime::ZERO).unwrap();
}

/// A relay forwards a query once. Here the place directory is wrong the
/// way no federation should be: it names `range-1` as the coverer of
/// `ghost` and as the range called `range-2`, and `range-1` holds
/// neither. `submit_from` sends one `QueryForward` and returns what
/// `range-1` says, its error or its own forward answer, as it is; it
/// never forwards again.
#[test]
fn a_forwarded_query_is_answered_where_it_lands_and_never_forwarded_again() {
    let (mut core, nodes, _) = core_of(2, 1);
    let net = core.transport_mut();
    net.publish_registration(nodes[0], "place/ghost", &nodes[1].to_string())
        .unwrap();
    net.publish_registration(nodes[0], "range/range-2", &nodes[1].to_string())
        .unwrap();
    let submits = |core: &mut Core, range: &str| {
        let host = core.host_mut(range).unwrap();
        host.telemetry()
            .snapshot()
            .counter("range.cmd.submit.count")
    };

    // The coverer does not hold the place: its error comes back as it is.
    let ghost = Query::builder(Guid::from_u128(0x206), APP)
        .kind(EntityKind::Device)
        .in_place("ghost")
        .all()
        .mode(Mode::Profile)
        .build();
    let sent = core.transport().stats().delivered();
    let answer = core.submit_from("range-0", &ghost, VirtualTime::ZERO);
    assert!(
        matches!(&answer, Err(SciError::UnknownLocation(place)) if place == "ghost"),
        "{answer:?}"
    );
    assert_eq!(
        core.transport().stats().delivered() - sent,
        1,
        "one forward"
    );
    assert_eq!(
        (submits(&mut core, "range-0"), submits(&mut core, "range-1")),
        (1, 1)
    );

    // The coverer answers with a forward of its own: that answer comes
    // back as it is, and nobody acts on it.
    let elsewhere = Query::builder(Guid::from_u128(0x207), APP)
        .kind(EntityKind::Device)
        .in_range("range-2")
        .all()
        .mode(Mode::Profile)
        .build();
    let sent = core.transport().stats().delivered();
    let fa = core
        .submit_from("range-0", &elsewhere, VirtualTime::ZERO)
        .unwrap();
    assert!(
        matches!(&fa.answer, QueryAnswer::Forward { range } if range == "range-2"),
        "{:?}",
        fa.answer
    );
    assert_eq!(
        core.transport().stats().delivered() - sent,
        2,
        "one forward and its response"
    );
    core.pump(VirtualTime::ZERO).unwrap();
    assert_eq!(
        (submits(&mut core, "range-0"), submits(&mut core, "range-1")),
        (2, 2)
    );
}
