//! Layer probes: one public call of one layer, timed from outside on
//! the population of the workload that exercises it, reported as the
//! host-adjusted median over [`WINDOWS`] windows of microseconds per
//! call. A probe says what a layer costs in isolation; the workloads
//! say what that cost does end to end (README, "Per-layer metrics").

use std::path::Path;
use std::time::Instant;

use sci_core::context_server::ContextServer;
use sci_core::durability::{decode_command, encode_command};
use sci_core::runtime::{RangeCommand, RangeRuntime};
use sci_event::Topic;
use sci_overlay::{Message, MessageKind, SimNetwork, TcpTransport, Transport};
use sci_query::codec as qcodec;
use sci_query::xml::Element;
use sci_types::{ContextType, Guid, VirtualTime};
use sci_wal::{decode_frame, encode_frame, FsyncPolicy, SegmentLog};

use crate::gen::{Generator, DOORS, SUBJECTS};
use crate::report::Metric;
use crate::rig::{app_guid, location_query, query_guid, subject_guid, Population};
use crate::stats::{host_adjusted, Kind, Windowed};
use crate::sys::{HostWatch, YARDSTICK_REF_US};

/// Windows per probe; a `--quick` run makes do with [`QUICK_WINDOWS`].
pub const WINDOWS: usize = 10;
pub const QUICK_WINDOWS: usize = 3;

/// Times `per_window` calls of `op` (which gets a running call index)
/// as one window: microseconds per call, the host yardstick either
/// side.
fn window_us(
    per_window: usize,
    first: usize,
    watch: &mut HostWatch,
    mut op: impl FnMut(usize),
) -> Windowed {
    let t0 = Instant::now();
    for i in first..first + per_window {
        op(i);
    }
    let value = t0.elapsed().as_nanos() as f64 / 1e3 / per_window as f64;
    watch.lap().window(value)
}

fn adjusted_median(windows: &[Windowed]) -> f64 {
    host_adjusted(windows, Kind::Time, 50.0, YARDSTICK_REF_US).value
}

/// Host-adjusted median over `windows` windows of the microseconds one
/// `op` takes.
fn per_call_us(windows: usize, per_window: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut watch = HostWatch::start();
    let windows: Vec<Windowed> = (0..windows)
        .map(|w| window_us(per_window, w * per_window, &mut watch, &mut op))
        .collect();
    adjusted_median(&windows)
}

fn us(name: &str, value: f64, calls: usize) -> Metric {
    Metric::new(name, value, "us", calls as u64)
}

/// A bare server of range 0 with `bound` subject-bound and `unbound`
/// follow-everyone `Location` subscribers.
fn server_with(pop: &Population, bound: usize, unbound: usize) -> ContextServer {
    let mut cs = pop.server();
    let subjects = (0..bound).map(Some).chain((0..unbound).map(|_| None));
    for (i, subject) in subjects.enumerate() {
        cs.submit_query(
            &location_query(query_guid(i as u64), app_guid(i), subject, None),
            VirtualTime::ZERO,
        )
        .expect("probe subscriber resolves");
    }
    cs
}

/// `event.*`: publish, subscribe and unsubscribe on a copy of the bus
/// the population built (every `objLocationCE` instance's door
/// subscriptions and every application's).
fn event_probes(cs: &ContextServer, pop: &Population, seed: u64, windows: usize) -> Vec<Metric> {
    let mut bus = cs.mediator().clone();
    let mut gen = Generator::new(seed, 10);
    let n = 2000;
    let events: Vec<_> = (0..n * windows)
        .map(|i| pop.presence(&gen.reading(), VirtualTime::from_micros(i as u64 + 1)))
        .collect();
    let publish = per_call_us(windows, n, |i| {
        std::hint::black_box(bus.publish(&events[i]));
    });
    let mut subs = Vec::with_capacity(n * windows);
    let subscribe = per_call_us(windows, n, |i| {
        let topic = Topic::of_type(ContextType::Location)
            .from(pop.obj_location)
            .about(subject_guid(i % SUBJECTS));
        subs.push(bus.subscribe(app_guid(SUBJECTS + 100), topic, false));
    });
    let unsubscribe = per_call_us(windows, n, |i| {
        bus.unsubscribe(subs[i]).expect("live subscription");
    });
    vec![
        us("event.publish_us", publish, windows * n),
        us("event.subscribe_us", subscribe, windows * n),
        us("event.unsubscribe_us", unsubscribe, windows * n),
    ]
}

/// `core.runtime.*`: the mailbox hop, carrying a command that does
/// next to nothing (`SetPlanVerification(true)`, already on).
/// `cast_us` is the enqueue alone (the window's replies are collected
/// outside the clock); `call_us` is enqueue, worker wake-up, execute,
/// reply.
fn runtime_probes(cs: ContextServer, windows: usize) -> Vec<Metric> {
    let mut rt = RangeRuntime::spawn(cs);
    let n = 2000;
    let now = VirtualTime::from_micros(1);
    let mut casts = Vec::with_capacity(windows);
    let mut watch = HostWatch::start();
    for _ in 0..windows {
        // The worker is still busy with the window's commands when the
        // clock stops; let it finish before the yardstick runs.
        let t0 = Instant::now();
        for _ in 0..n {
            rt.cast(RangeCommand::SetPlanVerification(true), now)
                .expect("worker up");
        }
        let value = t0.elapsed().as_nanos() as f64 / 1e3 / n as f64;
        rt.drain_pending().expect("worker up");
        casts.push(watch.lap().window(value));
    }
    let call = per_call_us(windows, n, |_| {
        rt.call(RangeCommand::SetPlanVerification(true), now)
            .expect("worker up");
    });
    drop(rt.shutdown());
    vec![
        us("core.runtime.cast_us", adjusted_median(&casts), windows * n),
        us("core.runtime.call_us", call, windows * n),
    ]
}

/// A 2-node transport, connected; returns the node GUIDs.
fn two_nodes<T: Transport>(net: &mut T) -> (Guid, Guid) {
    let (a, z) = (Guid::from_u128(0xA), Guid::from_u128(0xB));
    net.add_node(a, "alpha").expect("fresh node");
    net.add_node(z, "zeta").expect("fresh node");
    net.connect_full();
    (a, z)
}

/// One acked `send` plus the receiver's `drain`, `bytes` of payload.
fn send_us<T: Transport>(net: &mut T, bytes: usize, windows: usize, per_window: usize) -> f64 {
    let (a, z) = two_nodes(net);
    let payload = vec![0xA5u8; bytes];
    per_call_us(windows, per_window, |i| {
        let msg = Message::new(
            Guid::from_u128(0x1000 + i as u128),
            a,
            z,
            MessageKind::Ping,
            payload.clone(),
        );
        net.send(msg).expect("routes");
        std::hint::black_box(net.drain(z));
    })
}

/// The relay envelope the federation puts on the wire for one
/// `Location` delivery, as a [`Message`].
fn relay_message(pop: &Population) -> Message {
    let mut cs = server_with(pop, 0, 1);
    let mut gen = Generator::new(1, 11);
    let now = VirtualTime::from_micros(1);
    cs.ingest(&pop.presence(&gen.reading(), now), now)
        .expect("ingests");
    let d = cs
        .drain_outbox()
        .pop()
        .expect("one subscriber, one delivery");
    let payload = Element::new("relay")
        .with_attr("app", d.app.to_string())
        .with_attr("query", d.query.to_string())
        .with_attr("origin", pop.id.to_string())
        .with_attr("seq", "1")
        .with_child(qcodec::event_to_element(&d.event))
        .to_xml();
    Message::new(
        Guid::from_u128(0x77),
        pop.id,
        Guid::from_u128(0x78),
        MessageKind::EventRelay,
        payload.into_bytes(),
    )
}

pub fn relay_wire_durable(pop: &Population, windows: usize) -> Vec<Metric> {
    let n = 2000;
    let msg = relay_message(pop);
    let wire = msg.encode();
    let encode = per_call_us(windows, n, |_| {
        std::hint::black_box(msg.encode());
    });
    let decode = per_call_us(windows, n, |_| {
        std::hint::black_box(Message::decode(wire.clone()).expect("decodes"));
    });
    let mut out = vec![
        us("overlay.codec.encode_us", encode, windows * n),
        us("overlay.codec.decode_us", decode, windows * n),
        Metric::new("overlay.codec.relay_bytes", wire.len() as f64, "B", 1),
        us(
            "overlay.tcp.send_us",
            send_us(&mut TcpTransport::new(), 64, windows, 1000),
            windows * 1000,
        ),
        us(
            "overlay.tcp.send_4k_us",
            send_us(&mut TcpTransport::new(), 4096, windows, 1000),
            windows * 1000,
        ),
    ];
    out.extend(runtime_probes(server_with(pop, 0, 4), windows));
    out
}

pub fn local_compose(pop: &Population, seed: u64, windows: usize) -> Vec<Metric> {
    let mut cs = server_with(pop, SUBJECTS, 10);
    let mut out = event_probes(&cs, pop, seed, windows);
    let mut gen = Generator::new(seed, 12);
    let n = 1000;
    let ingest = per_call_us(windows, n, |i| {
        let now = VirtualTime::from_micros(i as u64 + 1);
        cs.ingest(&pop.presence(&gen.reading(), now), now)
            .expect("ingests");
        std::hint::black_box(cs.drain_outbox());
    });
    out.push(us("core.server.ingest_us", ingest, windows * n));
    out.extend(runtime_probes(cs, windows));
    out
}

pub fn control_churn(pop: &Population, seed: u64, windows: usize) -> Vec<Metric> {
    let mut cs = server_with(pop, SUBJECTS, 0);
    let mut out = event_probes(&cs, pop, seed, windows);

    let n = 300;
    let mut gen = Generator::new(seed, 13);
    let queries: Vec<_> = (0..n * windows)
        .map(|i| {
            location_query(
                query_guid((SUBJECTS + i) as u64),
                app_guid(SUBJECTS),
                Some(gen.pick(SUBJECTS)),
                None,
            )
        })
        .collect();
    // Submit a window, cancel it, so the population stays at 500.
    let (mut submits, mut cancels) = (Vec::new(), Vec::new());
    let mut watch = HostWatch::start();
    for w in 0..windows {
        submits.push(window_us(n, w * n, &mut watch, |i| {
            cs.submit_query(&queries[i], VirtualTime::ZERO)
                .expect("resolves");
        }));
        cancels.push(window_us(n, w * n, &mut watch, |i| {
            cs.cancel_query(queries[i].id).expect("live query");
        }));
    }
    out.push(us(
        "core.resolver.submit_us",
        adjusted_median(&submits),
        windows * n,
    ));
    out.push(us(
        "core.resolver.cancel_us",
        adjusted_median(&cancels),
        windows * n,
    ));

    let rereg = 20;
    let reregister = per_call_us(windows, rereg, |i| {
        let door = i % DOORS;
        let now = VirtualTime::from_micros(i as u64 + 1);
        cs.deregister(pop.doors[door], now)
            .expect("registered door");
        cs.register(pop.door_profile(door), now)
            .expect("door rejoins");
    });
    out.push(us("core.server.reregister_us", reregister, windows * rereg));

    let n = 2000;
    let xml = qcodec::to_xml(&queries[0]);
    let encode = per_call_us(windows, n, |i| {
        std::hint::black_box(qcodec::to_xml(&queries[i % queries.len()]));
    });
    let decode = per_call_us(windows, n, |_| {
        std::hint::black_box(qcodec::from_xml(&xml).expect("decodes"));
    });
    out.push(us("query.encode_us", encode, windows * n));
    out.push(us("query.decode_us", decode, windows * n));
    out.push(Metric::new("query.bytes", xml.len() as f64, "B", 1));
    out.push(us(
        "overlay.sim.send_us",
        send_us(&mut SimNetwork::new(), 64, windows, n),
        windows * n,
    ));
    out
}

/// `append` under `policy` into a fresh log in `dir`.
fn append_us(
    dir: &Path,
    policy: FsyncPolicy,
    frame: &sci_wal::Frame,
    windows: usize,
    per_window: usize,
) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    let (mut log, _) = SegmentLog::open(dir, policy, 8 << 20).expect("fresh log opens");
    let us = per_call_us(windows, per_window, |_| {
        log.append(frame).expect("appends");
    });
    drop(log);
    let _ = std::fs::remove_dir_all(dir);
    us
}

pub fn crash_recover(pop: &Population, scratch: &Path, windows: usize) -> Vec<Metric> {
    let n = 2000;
    let mut gen = Generator::new(1, 14);
    let now = VirtualTime::from_micros(1);
    let cmd = RangeCommand::Ingest(pop.presence(&gen.reading(), now));
    let logic = pop.logic();
    let frame = encode_command(&cmd, now);
    let mut wire = Vec::new();
    encode_frame(&frame, &mut wire);

    let encode = per_call_us(windows, n, |_| {
        std::hint::black_box(encode_command(&cmd, now));
    });
    let decode = per_call_us(windows, n, |_| {
        std::hint::black_box(decode_command(&frame, &logic).expect("decodes"));
    });
    let frame_encode = per_call_us(windows, n, |_| {
        let mut buf = Vec::with_capacity(wire.len());
        encode_frame(&frame, &mut buf);
        std::hint::black_box(buf);
    });
    let frame_decode = per_call_us(windows, n, |_| {
        std::hint::black_box(decode_frame(&wire).expect("decodes"));
    });
    let dir = scratch.join("probe-log");
    vec![
        us("core.durability.encode_us", encode, windows * n),
        us("core.durability.decode_us", decode, windows * n),
        Metric::new("core.durability.record_bytes", wire.len() as f64, "B", 1),
        us("wal.frame_encode_us", frame_encode, windows * n),
        us("wal.frame_decode_us", frame_decode, windows * n),
        us(
            "wal.append_never_us",
            append_us(&dir, FsyncPolicy::Never, &frame, windows, 5000),
            windows * 5000,
        ),
        us(
            "wal.append_every32_us",
            append_us(&dir, FsyncPolicy::EveryN(32), &frame, windows, 640),
            windows * 640,
        ),
        us(
            "wal.append_always_us",
            append_us(&dir, FsyncPolicy::Always, &frame, windows, 30),
            windows * 30,
        ),
    ]
}
