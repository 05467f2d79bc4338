//! Bytes-on-the-wire transport: the SCINET over real TCP sockets.
//!
//! Every in-process transport in this crate routes by shared memory;
//! [`TcpTransport`] puts the same [`Transport`] contract on loopback
//! sockets so the federation layer — and the chaos suite wrapped
//! around it — runs unchanged over a real wire (ROADMAP item 1).
//!
//! Three mechanisms make that possible:
//!
//! * **Framing** reuses `sci-wal`'s tagged frame codec verbatim: every
//!   message travels as `len | tag | payload | crc`, reassembled from
//!   arbitrary kernel read boundaries by
//!   [`sci_wal::codec::StreamDecoder`]. `Incomplete` means "wait for
//!   more bytes"; `Corrupt` closes the connection and counts
//!   `net.tcp.corrupt_frames` — a damaged stream never yields a wrong
//!   frame (see `crates/wal/tests/stream_reassembly.rs`).
//! * **Peering handshake**: a dialer opens with `HELLO` (protocol
//!   version, node GUID and name, listener address, registration
//!   digest); the acceptor answers `WELCOME` (same fields plus a
//!   gossip list of known peers) or `REJECT` on version mismatch.
//!   When the two registration digests differ, a three-step
//!   anti-entropy exchange (`OFFER` → `DELTA` → `DELTA`) runs before
//!   either side trusts the link, and the acceptor closes it with
//!   `SYNC_DONE` once it has merged the dialer's delta: the dialer
//!   waits for that, so a returned dial means both stores converged
//!   and late joiners hold the federation's replicated registration
//!   state when `join` returns.
//! * **Acked sends**: [`Transport::send_all`] writes each peer's share
//!   of a batch in coalesced writes of at most 64 KiB, and the reader
//!   *enqueues* every frame of a read pass before one cumulative ACK
//!   for the highest sequence number (`send` is a batch of one). A
//!   message is `Ok` exactly when it is drainable, so the inbox
//!   observed by any [`Transport::drain`] is a pure function of the call
//!   sequence — which is exactly the property
//!   [`crate::fault::FaultyTransport`] needs for seed-exact chaos
//!   replay over real sockets.
//!
//! The transport binds every listener to `127.0.0.1:0` (the kernel
//! picks a free port), so parallel test runs never collide.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use bytes::Bytes;

use sci_telemetry::{catalogue, Counter, Registry};
use sci_types::{Guid, HashMap, SciError, SciResult, VirtualDuration};
use sci_wal::codec::{encode_frame, wire, CodecError, Frame, StreamDecoder};

use crate::message::Message;
use crate::net::RouteOutcome;
use crate::stats::LoadStats;
use crate::sync::{SyncEntry, SyncStore, SyncSummary};
use crate::transport::Transport;

/// Protocol version spoken by this build; a handshake between
/// different versions is rejected. Version 2 added the `SYNC_DONE`
/// frame a dialer waits for, which a version-1 acceptor never sends;
/// version 3 made the `EventRelay` payload a binary record, which a
/// version-2 relay would refuse as malformed XML. Cumulative ACKs kept
/// version 3: every version-3 sender reads an ACK as cumulative. In
/// version 4 an `EventRelay` carries rows of deliveries, not one.
pub const TCP_PROTOCOL_VERSION: u32 = 4;

// Control-frame tags sit above the 0–8 range MessageKind occupies, so
// a frame's role is readable from its tag alone.
const TAG_HELLO: u8 = 0xE0;
const TAG_WELCOME: u8 = 0xE1;
const TAG_REJECT: u8 = 0xE2;
const TAG_SYNC_OFFER: u8 = 0xE3;
const TAG_SYNC_DELTA: u8 = 0xE4;
const TAG_ACK: u8 = 0xE5;
const TAG_SYNC_DONE: u8 = 0xE6;

/// Socket read timeout: the granularity at which reader and acceptor
/// threads notice shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(25);
/// Acceptor poll interval while no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(2);
/// Read attempts before a handshake is abandoned (× [`READ_TIMEOUT`]).
const HANDSHAKE_ATTEMPTS: u32 = 200;
/// How long a send waits for the receiver's enqueue acknowledgement.
const ACK_TIMEOUT: Duration = Duration::from_secs(2);
/// The most bytes one coalesced write carries before its sender waits
/// for their ACK (a larger frame goes alone), and the reader's read
/// size. It stays below the kernel's socket buffers, so a write never
/// waits on its peer: two nodes sending large batches to each other
/// would otherwise deadlock, each reader's ACK behind its own node's
/// blocked data write.
const MAX_COALESCED_WRITE: usize = 64 * 1024;

/// Locks a mutex, recovering the guard if a panicking thread poisoned
/// it — counters and connection maps stay usable either way.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn codec_err(e: CodecError) -> SciError {
    SciError::Codec(e.to_string())
}

// ---------------------------------------------------------------------
// Wire encodings of the control frames
// ---------------------------------------------------------------------

/// Identity block shared by `HELLO` and `WELCOME`.
struct PeerHello {
    version: u32,
    guid: Guid,
    name: String,
    addr: SocketAddr,
    digest: u64,
}

#[derive(Clone, Debug)]
struct PeerInfo {
    guid: Guid,
    name: String,
    addr: SocketAddr,
}

fn put_identity(p: &mut Vec<u8>, version: u32, id: &PeerInfo, digest: u64) {
    wire::put_u32(p, version);
    wire::put_u128(p, id.guid.as_u128());
    wire::put_str(p, &id.name);
    wire::put_str(p, &id.addr.to_string());
    wire::put_u64(p, digest);
}

fn read_identity(r: &mut wire::Reader<'_>) -> SciResult<PeerHello> {
    let version = r.u32().map_err(codec_err)?;
    let guid = Guid::from_u128(r.u128().map_err(codec_err)?);
    let name = r.str().map_err(codec_err)?.to_owned();
    let addr_str = r.str().map_err(codec_err)?;
    let addr = addr_str
        .parse::<SocketAddr>()
        .map_err(|e| SciError::Codec(format!("bad listener address `{addr_str}`: {e}")))?;
    let digest = r.u64().map_err(codec_err)?;
    Ok(PeerHello {
        version,
        guid,
        name,
        addr,
        digest,
    })
}

fn hello_frame(version: u32, id: &PeerInfo, digest: u64) -> Frame {
    let mut p = Vec::new();
    put_identity(&mut p, version, id, digest);
    Frame::new(TAG_HELLO, p)
}

fn welcome_frame(version: u32, id: &PeerInfo, digest: u64, gossip: &[PeerInfo]) -> Frame {
    let mut p = Vec::new();
    put_identity(&mut p, version, id, digest);
    wire::put_u32(&mut p, gossip.len() as u32);
    for peer in gossip {
        wire::put_u128(&mut p, peer.guid.as_u128());
        wire::put_str(&mut p, &peer.name);
        wire::put_str(&mut p, &peer.addr.to_string());
    }
    Frame::new(TAG_WELCOME, p)
}

fn parse_welcome(payload: &[u8]) -> SciResult<(PeerHello, Vec<PeerInfo>)> {
    let mut r = wire::Reader::new(payload);
    let hello = read_identity(&mut r)?;
    // A gossip row: GUID, then a name and an address, each a prefix.
    let count = r.count(16 + 4 + 4).map_err(codec_err)?;
    let mut gossip = Vec::with_capacity(count);
    for _ in 0..count {
        let guid = Guid::from_u128(r.u128().map_err(codec_err)?);
        let name = r.str().map_err(codec_err)?.to_owned();
        let addr_str = r.str().map_err(codec_err)?;
        let addr = addr_str
            .parse::<SocketAddr>()
            .map_err(|e| SciError::Codec(format!("bad gossip address `{addr_str}`: {e}")))?;
        gossip.push(PeerInfo { guid, name, addr });
    }
    Ok((hello, gossip))
}

fn reject_frame(version: u32, reason: &str) -> Frame {
    let mut p = Vec::new();
    wire::put_u32(&mut p, version);
    wire::put_str(&mut p, reason);
    Frame::new(TAG_REJECT, p)
}

fn parse_reject(payload: &[u8]) -> SciResult<(u32, String)> {
    let mut r = wire::Reader::new(payload);
    let version = r.u32().map_err(codec_err)?;
    let reason = r.str().map_err(codec_err)?.to_owned();
    Ok((version, reason))
}

fn offer_frame(summaries: &[SyncSummary]) -> Frame {
    let mut p = Vec::new();
    wire::put_u32(&mut p, summaries.len() as u32);
    for (key, version, origin) in summaries {
        wire::put_str(&mut p, key);
        wire::put_u64(&mut p, *version);
        wire::put_u128(&mut p, origin.as_u128());
    }
    Frame::new(TAG_SYNC_OFFER, p)
}

fn parse_offer(payload: &[u8]) -> SciResult<Vec<SyncSummary>> {
    let mut r = wire::Reader::new(payload);
    // A summary row: a key's prefix, its version and its origin.
    let count = r.count(4 + 8 + 16).map_err(codec_err)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let key = r.str().map_err(codec_err)?.to_owned();
        let version = r.u64().map_err(codec_err)?;
        let origin = Guid::from_u128(r.u128().map_err(codec_err)?);
        out.push((key, version, origin));
    }
    Ok(out)
}

fn delta_frame(entries: &[SyncEntry], wants: &[String]) -> Frame {
    let mut p = Vec::new();
    wire::put_u32(&mut p, entries.len() as u32);
    for e in entries {
        wire::put_str(&mut p, &e.key);
        wire::put_str(&mut p, &e.value);
        wire::put_u64(&mut p, e.version);
        wire::put_u128(&mut p, e.origin.as_u128());
        wire::put_u8(&mut p, u8::from(e.deleted));
    }
    wire::put_u32(&mut p, wants.len() as u32);
    for key in wants {
        wire::put_str(&mut p, key);
    }
    Frame::new(TAG_SYNC_DELTA, p)
}

fn parse_delta(payload: &[u8]) -> SciResult<(Vec<SyncEntry>, Vec<String>)> {
    let mut r = wire::Reader::new(payload);
    // An entry row: key and value prefixes, version, origin, tombstone.
    let count = r.count(4 + 4 + 8 + 16 + 1).map_err(codec_err)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let key = r.str().map_err(codec_err)?.to_owned();
        let value = r.str().map_err(codec_err)?.to_owned();
        let version = r.u64().map_err(codec_err)?;
        let origin = Guid::from_u128(r.u128().map_err(codec_err)?);
        let deleted = r.u8().map_err(codec_err)? != 0;
        entries.push(SyncEntry {
            key,
            value,
            version,
            origin,
            deleted,
        });
    }
    let want_count = r.count(4).map_err(codec_err)?;
    let mut wants = Vec::with_capacity(want_count);
    for _ in 0..want_count {
        wants.push(r.str().map_err(codec_err)?.to_owned());
    }
    Ok((entries, wants))
}

fn ack_frame(seq: u64) -> Frame {
    let mut p = Vec::new();
    wire::put_u64(&mut p, seq);
    Frame::new(TAG_ACK, p)
}

fn data_frame(seq: u64, message: &Message) -> Frame {
    let mut p = Vec::new();
    wire::put_u64(&mut p, seq);
    wire::put_bytes(&mut p, &message.encode());
    Frame::new(message.kind.to_wire(), p)
}

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

#[derive(Clone)]
struct NetCounters {
    accept_failures: Counter,
    accepts: Counter,
    ack_timeouts: Counter,
    bytes_recv: Counter,
    bytes_sent: Counter,
    conns: Counter,
    corrupt_frames: Counter,
    dial_failures: Counter,
    frames_recv: Counter,
    frames_sent: Counter,
    handshake_rejected: Counter,
    handshakes: Counter,
    sync_applied: Counter,
    sync_rounds: Counter,
    unknown_peer: Counter,
    write_failures: Counter,
}

impl NetCounters {
    fn new(registry: &Registry) -> Self {
        NetCounters {
            accept_failures: registry.counter(catalogue::NET_TCP_ACCEPT_FAILURES),
            accepts: registry.counter(catalogue::NET_TCP_ACCEPTS),
            ack_timeouts: registry.counter(catalogue::NET_TCP_ACK_TIMEOUTS),
            bytes_recv: registry.counter(catalogue::NET_TCP_BYTES_RECV),
            bytes_sent: registry.counter(catalogue::NET_TCP_BYTES_SENT),
            conns: registry.counter(catalogue::NET_TCP_CONNS),
            corrupt_frames: registry.counter(catalogue::NET_TCP_CORRUPT_FRAMES),
            dial_failures: registry.counter(catalogue::NET_TCP_DIAL_FAILURES),
            frames_recv: registry.counter(catalogue::NET_TCP_FRAMES_RECV),
            frames_sent: registry.counter(catalogue::NET_TCP_FRAMES_SENT),
            handshake_rejected: registry.counter(catalogue::NET_TCP_HANDSHAKE_REJECTED),
            handshakes: registry.counter(catalogue::NET_TCP_HANDSHAKES),
            sync_applied: registry.counter(catalogue::NET_TCP_SYNC_APPLIED),
            sync_rounds: registry.counter(catalogue::NET_TCP_SYNC_ROUNDS),
            unknown_peer: registry.counter(catalogue::NET_TCP_UNKNOWN_PEER),
            write_failures: registry.counter(catalogue::NET_TCP_WRITE_FAILURES),
        }
    }
}

// ---------------------------------------------------------------------
// Connections and per-node shared state
// ---------------------------------------------------------------------

/// One established, handshaken connection to a peer. The stream is the
/// write half (sends and acks both go through it); a dedicated reader
/// thread owns a cloned handle for reads.
struct Conn {
    stream: Mutex<TcpStream>,
    ack_rx: Mutex<mpsc::Receiver<u64>>,
    next_seq: AtomicU64,
}

/// The part of a node's state shared with its acceptor and reader
/// threads.
struct NodeShared {
    guid: Guid,
    name: String,
    listen_addr: SocketAddr,
    version: u32,
    inbox_tx: mpsc::Sender<Message>,
    store: Mutex<SyncStore>,
    conns: Mutex<HashMap<Guid, Arc<Conn>>>,
    /// Peers this node could dial: learned from handshakes and gossip.
    directory: Mutex<HashMap<Guid, PeerInfo>>,
    shutdown: Arc<AtomicBool>,
    counters: NetCounters,
}

impl NodeShared {
    fn identity(&self) -> PeerInfo {
        PeerInfo {
            guid: self.guid,
            name: self.name.clone(),
            addr: self.listen_addr,
        }
    }
}

struct TcpNode {
    shared: Arc<NodeShared>,
    inbox_rx: mpsc::Receiver<Message>,
    accept_handle: Option<JoinHandle<()>>,
}

fn write_frame_direct(
    stream: &mut TcpStream,
    frame: &Frame,
    counters: &NetCounters,
) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(frame.encoded_len());
    encode_frame(frame, &mut out);
    stream.write_all(&out)?;
    stream.flush()?;
    counters.bytes_sent.add(out.len() as u64);
    counters.frames_sent.inc();
    Ok(())
}

/// Writes one frame a peer expects on a live connection (an ACK, a
/// registration delta). Nobody waits on the result, so a failure is
/// counted in `net.tcp.write_failures`; the reader sees the broken
/// socket and drops the connection.
fn write_frame(stream: &Mutex<TcpStream>, frame: &Frame, counters: &NetCounters) {
    if write_frame_direct(&mut lock(stream), frame, counters).is_err() {
        counters.write_failures.inc();
    }
}

/// One socket read: the bytes read (`Some(0)` at end of stream), or
/// `None` when the read timed out. A read a signal interrupted is
/// restarted: a read with a timeout is not restarted by the kernel, and
/// a profiler's timer, an attaching debugger or a stop and continue
/// must not fail a handshake or drop a live link.
fn read_step(stream: &mut impl Read, buf: &mut [u8]) -> std::io::Result<Option<usize>> {
    loop {
        match stream.read(buf) {
            Ok(n) => return Ok(Some(n)),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(None)
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reads exactly one frame during a handshake, blocking in
/// [`READ_TIMEOUT`] slices so shutdown is noticed promptly.
fn read_frame_sync(
    stream: &mut TcpStream,
    dec: &mut StreamDecoder,
    shared: &NodeShared,
) -> SciResult<Frame> {
    let mut buf = [0u8; 4096];
    for _ in 0..HANDSHAKE_ATTEMPTS {
        if let Some(frame) = dec.next_frame().map_err(codec_err)? {
            shared.counters.frames_recv.inc();
            return Ok(frame);
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return Err(SciError::Stopped("tcp transport".into()));
        }
        match read_step(stream, &mut buf) {
            Ok(Some(0)) => {
                return Err(SciError::Codec("connection closed during handshake".into()))
            }
            Ok(Some(n)) => {
                shared.counters.bytes_recv.add(n as u64);
                dec.extend(&buf[..n]);
            }
            Ok(None) => {}
            Err(e) => return Err(SciError::Codec(format!("handshake read: {e}"))),
        }
    }
    Err(SciError::Codec("handshake timed out".into()))
}

/// Registers the handshaken `stream` as a live connection to `peer`
/// and spawns its reader thread (which inherits the decoder, in case
/// the peer pipelined frames behind the handshake).
fn finish_conn(shared: &Arc<NodeShared>, stream: TcpStream, dec: StreamDecoder, peer: Guid) {
    let (ack_tx, ack_rx) = mpsc::channel();
    // Without a read half no ACK ever arrives, so every send on this
    // connection times out as unroutable: counted in `ack_timeouts`.
    let read_half = stream.try_clone().ok();
    let conn = Arc::new(Conn {
        stream: Mutex::new(stream),
        ack_rx: Mutex::new(ack_rx),
        next_seq: AtomicU64::new(1),
    });
    lock(&shared.conns).insert(peer, conn.clone());
    shared.counters.conns.inc();
    shared.counters.handshakes.inc();
    if let Some(read_stream) = read_half {
        let reader_shared = shared.clone();
        thread::spawn(move || run_reader(&reader_shared, peer, &conn, &ack_tx, read_stream, dec));
    }
}

/// Per-connection reader: reassembles frames from the byte stream and
/// routes them — data to the inbox, acks to the sender's channel, sync
/// deltas into the registration store. However it exits, it shuts the
/// socket down and takes the connection out of `conns`, so the next
/// send to `peer` redials instead of waiting out a dead socket.
fn run_reader(
    shared: &Arc<NodeShared>,
    peer: Guid,
    conn: &Arc<Conn>,
    ack_tx: &mpsc::Sender<u64>,
    mut stream: TcpStream,
    mut dec: StreamDecoder,
) {
    let mut buf = vec![0u8; MAX_COALESCED_WRITE];
    while read_pass(shared, conn, ack_tx, &mut dec) && !shared.shutdown.load(Ordering::Relaxed) {
        match read_step(&mut stream, &mut buf) {
            Ok(Some(0)) | Err(_) => break,
            Ok(Some(n)) => {
                shared.counters.bytes_recv.add(n as u64);
                dec.extend(&buf[..n]);
            }
            Ok(None) => {}
        }
    }
    // The peer may have closed the socket already; either way it is shut.
    let _ = lock(&conn.stream).shutdown(Shutdown::Both);
    let mut conns = lock(&shared.conns);
    // A redial may already have replaced this connection.
    if conns.get(&peer).is_some_and(|c| Arc::ptr_eq(c, conn)) {
        conns.remove(&peer);
    }
}

/// Handles every whole frame the decoder holds, then acks the data
/// frames among them, all already enqueued, with one cumulative ACK.
/// Returns `false` when the connection should close.
fn read_pass(
    shared: &NodeShared,
    conn: &Conn,
    ack_tx: &mpsc::Sender<u64>,
    dec: &mut StreamDecoder,
) -> bool {
    let mut enqueued = None;
    let open = loop {
        match dec.next_frame() {
            Ok(Some(frame)) => {
                shared.counters.frames_recv.inc();
                if !handle_frame(shared, ack_tx, frame, &mut enqueued) {
                    break false;
                }
            }
            Ok(None) | Err(CodecError::Incomplete { .. }) => break true,
            Err(CodecError::Corrupt { .. }) => {
                shared.counters.corrupt_frames.inc();
                break false;
            }
        }
    };
    if let Some(seq) = enqueued {
        write_frame(&conn.stream, &ack_frame(seq), &shared.counters);
    }
    open
}

/// Dispatches one reassembled frame, noting an enqueued data frame's
/// sequence number in `enqueued`; returns `false` to close.
fn handle_frame(
    shared: &NodeShared,
    ack_tx: &mpsc::Sender<u64>,
    frame: Frame,
    enqueued: &mut Option<u64>,
) -> bool {
    match frame.tag {
        TAG_ACK => {
            let mut r = wire::Reader::new(&frame.payload);
            if let Ok(seq) = r.u64() {
                // Cannot fail: the receiver lives in the `Conn` this
                // reader holds.
                let _ = ack_tx.send(seq);
            }
            true
        }
        TAG_SYNC_DELTA => {
            if let Ok((entries, _wants)) = parse_delta(&frame.payload) {
                let mut store = lock(&shared.store);
                for e in entries {
                    if store.merge(e) {
                        shared.counters.sync_applied.inc();
                    }
                }
            }
            true
        }
        // Handshake frames never arrive after a connection is live;
        // drop them rather than corrupting connection state.
        TAG_HELLO | TAG_WELCOME | TAG_REJECT | TAG_SYNC_OFFER | TAG_SYNC_DONE => true,
        tag if tag <= 8 => {
            let mut r = wire::Reader::new(&frame.payload);
            // The tag is the kind of the message inside, so a tag no
            // kind owns (the reserved 2) can never match.
            let parsed = r.u64().ok().and_then(|seq| {
                let raw = r.bytes().ok()?;
                let msg = Message::decode(Bytes::from(raw.to_vec())).ok()?;
                (msg.kind.to_wire() == tag).then_some((seq, msg))
            });
            match parsed {
                Some((seq, msg)) => {
                    // Enqueue strictly before the ack: a sender whose
                    // `send` returned Ok is guaranteed the message is
                    // already drainable at the destination. It fails
                    // only once the transport, and with it every
                    // drainer, is dropped.
                    let _ = shared.inbox_tx.send(msg);
                    *enqueued = Some(seq);
                    true
                }
                None => {
                    shared.counters.corrupt_frames.inc();
                    false
                }
            }
        }
        _ => true,
    }
}

/// Acceptor loop: polls the nonblocking listener, runs the server side
/// of the handshake inline, then hands the socket to a reader thread.
fn run_acceptor(shared: &Arc<NodeShared>, listener: &TcpListener) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                shared.counters.accepts.inc();
                if handle_accept(shared, stream).is_err() {
                    shared.counters.accept_failures.inc();
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

fn handle_accept(shared: &Arc<NodeShared>, mut stream: TcpStream) -> SciResult<()> {
    let io_err = |e: std::io::Error| SciError::Codec(format!("accept setup: {e}"));
    stream.set_nonblocking(false).map_err(io_err)?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(io_err)?;
    // Without TCP_NODELAY small frames wait for Nagle, but all arrive.
    let _ = stream.set_nodelay(true);

    let mut dec = StreamDecoder::new();
    let frame = read_frame_sync(&mut stream, &mut dec, shared)?;
    if frame.tag != TAG_HELLO {
        return Err(SciError::Codec(format!(
            "expected HELLO, got tag {:#04x}",
            frame.tag
        )));
    }
    let mut r = wire::Reader::new(&frame.payload);
    let hello = read_identity(&mut r)?;

    if hello.version != shared.version {
        shared.counters.handshake_rejected.inc();
        let reject = reject_frame(
            shared.version,
            &format!(
                "protocol version mismatch: peer speaks {}, this node speaks {}",
                hello.version, shared.version
            ),
        );
        // The link is refused either way (counted above); a lost
        // REJECT leaves the dialer to time its handshake out.
        let _ = write_frame_direct(&mut stream, &reject, &shared.counters);
        return Ok(());
    }

    let own_digest = lock(&shared.store).digest();
    let gossip: Vec<PeerInfo> = lock(&shared.directory)
        .values()
        .filter(|p| p.guid != hello.guid)
        .cloned()
        .collect();
    let welcome = welcome_frame(shared.version, &shared.identity(), own_digest, &gossip);
    write_frame_direct(&mut stream, &welcome, &shared.counters)
        .map_err(|e| SciError::Codec(format!("welcome write: {e}")))?;

    lock(&shared.directory).insert(
        hello.guid,
        PeerInfo {
            guid: hello.guid,
            name: hello.name.clone(),
            addr: hello.addr,
        },
    );

    // Anti-entropy, acceptor side: both ends compare the same digest
    // pair (HELLO's vs WELCOME's), so they agree on whether it runs.
    if hello.digest != own_digest {
        let offer = read_frame_sync(&mut stream, &mut dec, shared)?;
        if offer.tag != TAG_SYNC_OFFER {
            return Err(SciError::Codec(format!(
                "expected SYNC_OFFER, got tag {:#04x}",
                offer.tag
            )));
        }
        let summaries = parse_offer(&offer.payload)?;
        let (send_entries, wants) = lock(&shared.store).delta_for(&summaries);
        let delta = delta_frame(&send_entries, &wants);
        write_frame_direct(&mut stream, &delta, &shared.counters)
            .map_err(|e| SciError::Codec(format!("delta write: {e}")))?;
        let reply = read_frame_sync(&mut stream, &mut dec, shared)?;
        if reply.tag != TAG_SYNC_DELTA {
            return Err(SciError::Codec(format!(
                "expected SYNC_DELTA, got tag {:#04x}",
                reply.tag
            )));
        }
        let (entries, _wants) = parse_delta(&reply.payload)?;
        let mut store = lock(&shared.store);
        for e in entries {
            if store.merge(e) {
                shared.counters.sync_applied.inc();
            }
        }
        drop(store);
        shared.counters.sync_rounds.inc();
        // The dialer blocks on this: "connected" implies "converged".
        write_frame_direct(
            &mut stream,
            &Frame::new(TAG_SYNC_DONE, Vec::new()),
            &shared.counters,
        )
        .map_err(|e| SciError::Codec(format!("sync-done write: {e}")))?;
    }

    finish_conn(shared, stream, dec, hello.guid);
    Ok(())
}

/// Dials `addr` from `local`, running the client side of the handshake
/// (and anti-entropy when digests differ). Returns the peer's GUID.
fn dial(local: &Arc<NodeShared>, addr: SocketAddr) -> SciResult<Guid> {
    let io_err = |e: std::io::Error| SciError::Codec(format!("dial {addr}: {e}"));
    let mut stream = TcpStream::connect(addr).map_err(io_err)?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(io_err)?;
    // Without TCP_NODELAY small frames wait for Nagle, but all arrive.
    let _ = stream.set_nodelay(true);

    let own_digest = lock(&local.store).digest();
    let hello = hello_frame(local.version, &local.identity(), own_digest);
    write_frame_direct(&mut stream, &hello, &local.counters).map_err(io_err)?;

    let mut dec = StreamDecoder::new();
    let frame = read_frame_sync(&mut stream, &mut dec, local)?;
    let (welcome, gossip) = match frame.tag {
        TAG_WELCOME => parse_welcome(&frame.payload)?,
        TAG_REJECT => {
            let (version, reason) = parse_reject(&frame.payload)?;
            return Err(SciError::Codec(format!(
                "peer at {addr} (protocol {version}) rejected handshake: {reason}"
            )));
        }
        tag => {
            return Err(SciError::Codec(format!(
                "expected WELCOME or REJECT, got tag {tag:#04x}"
            )))
        }
    };

    {
        let mut dir = lock(&local.directory);
        dir.insert(
            welcome.guid,
            PeerInfo {
                guid: welcome.guid,
                name: welcome.name.clone(),
                addr,
            },
        );
        for peer in gossip {
            if peer.guid != local.guid {
                dir.entry(peer.guid).or_insert(peer);
            }
        }
    }

    // Anti-entropy, dialer side.
    if welcome.digest != own_digest {
        let summaries = lock(&local.store).summaries();
        write_frame_direct(&mut stream, &offer_frame(&summaries), &local.counters)
            .map_err(io_err)?;
        let reply = read_frame_sync(&mut stream, &mut dec, local)?;
        if reply.tag != TAG_SYNC_DELTA {
            return Err(SciError::Codec(format!(
                "expected SYNC_DELTA, got tag {:#04x}",
                reply.tag
            )));
        }
        let (entries, wants) = parse_delta(&reply.payload)?;
        let wanted = {
            let mut store = lock(&local.store);
            for e in entries {
                if store.merge(e) {
                    local.counters.sync_applied.inc();
                }
            }
            store.entries_for(&wants)
        };
        // Always answer, even with an empty delta, so the acceptor's
        // state machine sees a fixed three-message exchange.
        write_frame_direct(&mut stream, &delta_frame(&wanted, &[]), &local.counters)
            .map_err(io_err)?;
        // The acceptor merges that delta on its own thread; wait for its
        // word that it has, or the caller could read a stale digest.
        let done = read_frame_sync(&mut stream, &mut dec, local)?;
        if done.tag != TAG_SYNC_DONE {
            return Err(SciError::Codec(format!(
                "expected SYNC_DONE, got tag {:#04x}",
                done.tag
            )));
        }
        local.counters.sync_rounds.inc();
    }

    finish_conn(local, stream, dec, welcome.guid);
    Ok(welcome.guid)
}

// ---------------------------------------------------------------------
// The transport
// ---------------------------------------------------------------------

/// A [`Transport`] over real loopback TCP sockets.
///
/// Each node owns a listener on `127.0.0.1:0` and an acceptor thread;
/// each established connection owns a reader thread. Sends are
/// synchronous and acked (see the module docs), so the federation and
/// chaos layers observe the same delivery semantics as
/// [`crate::net::SimNetwork`] — one hop, immediate drainability — with
/// every byte actually crossing the kernel's TCP stack.
pub struct TcpTransport {
    nodes: HashMap<Guid, TcpNode>,
    names: HashMap<String, Guid>,
    stats: LoadStats,
    registry: Registry,
    counters: NetCounters,
    version: u32,
    shutdown: Arc<AtomicBool>,
    hop_latency: VirtualDuration,
}

impl TcpTransport {
    /// Creates an empty transport speaking [`TCP_PROTOCOL_VERSION`].
    pub fn new() -> Self {
        let registry = Registry::new();
        let counters = NetCounters::new(&registry);
        TcpTransport {
            nodes: HashMap::default(),
            names: HashMap::default(),
            stats: LoadStats::new(),
            registry,
            counters,
            version: TCP_PROTOCOL_VERSION,
            shutdown: Arc::new(AtomicBool::new(false)),
            hop_latency: VirtualDuration::from_millis(1),
        }
    }

    /// Overrides the protocol version offered by nodes added *after*
    /// this call — the lever version-mismatch tests pull.
    pub fn set_protocol_version(&mut self, version: u32) {
        self.version = version;
    }

    /// The kernel-assigned listener address of `node`.
    pub fn listener_addr(&self, node: Guid) -> Option<SocketAddr> {
        self.nodes.get(&node).map(|n| n.shared.listen_addr)
    }

    /// Dials `addr` from `local` and completes the peering handshake,
    /// returning the remote node's GUID. The remote listener may
    /// belong to a different `TcpTransport` instance.
    ///
    /// # Errors
    ///
    /// Unknown `local` node, connection failure, handshake timeout or
    /// a `REJECT` from the peer (version mismatch).
    pub fn peer_with(&mut self, local: Guid, addr: SocketAddr) -> SciResult<Guid> {
        let shared = self
            .nodes
            .get(&local)
            .ok_or(SciError::UnknownRange(local))?
            .shared
            .clone();
        dial(&shared, addr)
    }

    /// Number of live (handshaken) connections held by `node`.
    pub fn connections_of(&self, node: Guid) -> usize {
        self.nodes
            .get(&node)
            .map(|n| lock(&n.shared.conns).len())
            .unwrap_or(0)
    }
}

/// `src`'s live connection to `dst`, if it holds one.
fn conn_to(src: &NodeShared, dst: Guid) -> Option<Arc<Conn>> {
    lock(&src.conns).get(&dst).cloned()
}

/// Writes one peer's messages in order, in chunks of at most
/// [`MAX_COALESCED_WRITE`] bytes, each followed by a wait for an ACK
/// covering its last frame (one below its first is stale, from a send
/// that timed out). Returns how many the peer acked: always a prefix.
fn send_coalesced(conn: &Conn, share: Vec<&Message>, counters: &NetCounters) -> usize {
    let write_chunk = |chunk: &[u8], first: u64, frames: usize| -> usize {
        if lock(&conn.stream).write_all(chunk).is_err() {
            return 0;
        }
        counters.bytes_sent.add(chunk.len() as u64);
        counters.frames_sent.add(frames as u64);
        let last = first + frames as u64 - 1;
        let rx = lock(&conn.ack_rx);
        let mut high = 0;
        while high < last {
            match rx.recv_timeout(ACK_TIMEOUT) {
                Ok(seq) => high = high.max(seq),
                Err(_) => {
                    counters.ack_timeouts.inc();
                    break;
                }
            }
        }
        (high + 1).saturating_sub(first).min(frames as u64) as usize
    };
    let (mut acked, mut frames, mut first) = (0, 0, 0);
    let mut chunk = Vec::new();
    for m in share {
        let seq = conn.next_seq.fetch_add(1, Ordering::Relaxed);
        let frame = data_frame(seq, m);
        if frames > 0 && chunk.len() + frame.encoded_len() > MAX_COALESCED_WRITE {
            let got = write_chunk(&chunk, first, frames);
            acked += got;
            if got < frames {
                return acked;
            }
            chunk.clear();
            frames = 0;
        }
        if frames == 0 {
            first = seq;
        }
        encode_frame(&frame, &mut chunk);
        frames += 1;
    }
    if frames > 0 {
        acked += write_chunk(&chunk, first, frames);
    }
    acked
}

impl Default for TcpTransport {
    fn default() -> Self {
        TcpTransport::new()
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("nodes", &self.nodes.len())
            .field("version", &self.version)
            .finish()
    }
}

impl Transport for TcpTransport {
    fn add_node(&mut self, guid: Guid, name: &str) -> SciResult<()> {
        if self.nodes.contains_key(&guid) {
            return Err(SciError::Internal(format!("duplicate node {guid}")));
        }
        if self.names.contains_key(name) {
            return Err(SciError::Internal(format!("duplicate range name `{name}`")));
        }
        let bind_err = |e: std::io::Error| SciError::Internal(format!("listener bind: {e}"));
        // Port 0: the kernel picks a free port, so parallel test runs
        // never collide on an address.
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(bind_err)?;
        listener.set_nonblocking(true).map_err(bind_err)?;
        let listen_addr = listener.local_addr().map_err(bind_err)?;
        let (inbox_tx, inbox_rx) = mpsc::channel();
        let shared = Arc::new(NodeShared {
            guid,
            name: name.to_owned(),
            listen_addr,
            version: self.version,
            inbox_tx,
            store: Mutex::new(SyncStore::new()),
            conns: Mutex::new(HashMap::default()),
            directory: Mutex::new(HashMap::default()),
            shutdown: self.shutdown.clone(),
            counters: self.counters.clone(),
        });
        let accept_shared = shared.clone();
        let accept_handle = thread::spawn(move || run_acceptor(&accept_shared, &listener));
        self.nodes.insert(
            guid,
            TcpNode {
                shared,
                inbox_rx,
                accept_handle: Some(accept_handle),
            },
        );
        self.names.insert(name.to_owned(), guid);
        Ok(())
    }

    fn find_by_name(&self, name: &str) -> Option<Guid> {
        self.names.get(name).copied()
    }

    fn connect_full(&mut self) {
        let infos: Vec<PeerInfo> = self.nodes.values().map(|n| n.shared.identity()).collect();
        // Everyone learns everyone's listener, so any pair is at least
        // dialable even before a live connection exists.
        for node in self.nodes.values() {
            let mut dir = lock(&node.shared.directory);
            for p in &infos {
                if p.guid != node.shared.guid {
                    dir.entry(p.guid).or_insert_with(|| p.clone());
                }
            }
        }
        // One dial per unordered pair: the acceptor registers the
        // reverse connection on its side of the same socket.
        let mut guids: Vec<Guid> = self.nodes.keys().copied().collect();
        guids.sort();
        for (i, &a) in guids.iter().enumerate() {
            for &b in &guids[i + 1..] {
                let (Some(na), Some(nb)) = (self.nodes.get(&a), self.nodes.get(&b)) else {
                    continue;
                };
                let shared = na.shared.clone();
                if conn_to(&shared, b).is_none() && dial(&shared, nb.shared.listen_addr).is_err() {
                    shared.counters.dial_failures.inc();
                }
            }
        }
    }

    fn join(&mut self, node: Guid, bootstrap: Guid, _seed: u64) -> SciResult<()> {
        // Discovery over TCP is the peering handshake plus gossip; the
        // simulation's lookup seed has no socket equivalent.
        let target = self
            .nodes
            .get(&bootstrap)
            .map(|n| n.shared.listen_addr)
            .ok_or(SciError::UnknownRange(bootstrap))?;
        let shared = self
            .nodes
            .get(&node)
            .ok_or(SciError::UnknownRange(node))?
            .shared
            .clone();
        dial(&shared, target)?;
        Ok(())
    }

    fn send(&mut self, message: Message) -> SciResult<RouteOutcome> {
        let (from, to) = (message.src, message.dst);
        self.send_all(&[message])
            .pop()
            .unwrap_or(Err(SciError::Unroutable { from, to }))
    }

    /// One coalesced stream per `(src, dst)` pair, in batch order; a
    /// message is `Ok` exactly when the peer acked it.
    fn send_all(&mut self, batch: &[Message]) -> Vec<SciResult<RouteOutcome>> {
        let mut pairs: Vec<((Guid, Guid), Vec<&Message>)> = Vec::new();
        for m in batch {
            match pairs.iter_mut().find(|(pair, _)| *pair == (m.src, m.dst)) {
                Some((_, share)) => share.push(m),
                None => pairs.push(((m.src, m.dst), vec![m])),
            }
        }
        let mut acked: HashMap<(Guid, Guid), usize> = HashMap::default();
        for ((src, dst), share) in pairs {
            let Some(shared) = self.nodes.get(&src).map(|n| n.shared.clone()) else {
                continue;
            };
            // A live connection, or a lazy dial through the directory.
            let conn = conn_to(&shared, dst).or_else(|| {
                let Some(addr) = lock(&shared.directory).get(&dst).map(|p| p.addr) else {
                    shared.counters.unknown_peer.inc();
                    return None;
                };
                if dial(&shared, addr).is_err() {
                    shared.counters.dial_failures.inc();
                    return None;
                }
                conn_to(&shared, dst)
            });
            if let Some(conn) = conn {
                acked.insert((src, dst), send_coalesced(&conn, share, &shared.counters));
            }
        }
        batch
            .iter()
            .map(|m| {
                let (src, dst) = (m.src, m.dst);
                match acked.get_mut(&(src, dst)) {
                    Some(left) if *left > 0 => {
                        *left -= 1;
                        self.stats.record_forward(src);
                        self.stats.record_delivery(1);
                        Ok(RouteOutcome {
                            path: vec![src, dst],
                            hops: 1,
                            latency: self.hop_latency,
                        })
                    }
                    _ => {
                        self.stats.record_failure();
                        Err(SciError::Unroutable { from: src, to: dst })
                    }
                }
            })
            .collect()
    }

    fn drain(&mut self, node: Guid) -> Vec<Message> {
        self.nodes
            .get(&node)
            .map(|n| n.inbox_rx.try_iter().collect())
            .unwrap_or_default()
    }

    fn stats(&self) -> &LoadStats {
        &self.stats
    }

    fn telemetry(&self) -> Option<&Registry> {
        Some(&self.registry)
    }

    fn publish_registration(&mut self, node: Guid, key: &str, value: &str) -> SciResult<()> {
        let shared = self
            .nodes
            .get(&node)
            .ok_or(SciError::UnknownRange(node))?
            .shared
            .clone();
        let entry = lock(&shared.store).publish(key, value, node);
        broadcast_delta(&shared, &entry);
        Ok(())
    }

    fn retract_registration(&mut self, node: Guid, key: &str) -> SciResult<()> {
        let shared = self
            .nodes
            .get(&node)
            .ok_or(SciError::UnknownRange(node))?
            .shared
            .clone();
        let entry = lock(&shared.store).retract(key, node);
        broadcast_delta(&shared, &entry);
        Ok(())
    }

    fn registration(&self, node: Guid, key: &str) -> Option<String> {
        self.nodes
            .get(&node)
            .and_then(|n| lock(&n.shared.store).get(key).map(str::to_owned))
    }

    fn registration_digest(&self, node: Guid) -> Option<u64> {
        self.nodes
            .get(&node)
            .map(|n| lock(&n.shared.store).digest())
    }
}

/// Pushes one freshly written entry to every live connection of the
/// publishing node, so connected peers converge without waiting for
/// the next handshake.
fn broadcast_delta(shared: &Arc<NodeShared>, entry: &SyncEntry) {
    let frame = delta_frame(std::slice::from_ref(entry), &[]);
    let conns: Vec<Arc<Conn>> = lock(&shared.conns).values().cloned().collect();
    for conn in conns {
        write_frame(&conn.stream, &frame, &shared.counters);
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for node in self.nodes.values_mut() {
            let conns: Vec<Arc<Conn>> = lock(&node.shared.conns).values().cloned().collect();
            // Best effort on the way out: a socket already closed has
            // nothing to shut, and a panicked acceptor nothing to join.
            for conn in conns {
                let _ = lock(&conn.stream).shutdown(Shutdown::Both);
            }
            if let Some(handle) = node.accept_handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::message::MessageKind;

    fn msg(id: u128, src: Guid, dst: Guid) -> Message {
        Message::new(
            Guid::from_u128(id),
            src,
            dst,
            MessageKind::EventRelay,
            Bytes::from_static(b"payload"),
        )
    }

    fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
        for _ in 0..400 {
            if cond() {
                return true;
            }
            thread::sleep(Duration::from_millis(5));
        }
        false
    }

    #[test]
    fn roundtrip_over_real_sockets() {
        let mut t = TcpTransport::new();
        let a = Guid::from_u128(0xa);
        let b = Guid::from_u128(0xb);
        t.add_node(a, "a").unwrap();
        t.add_node(b, "b").unwrap();
        t.connect_full();
        let out = t.send(msg(1, a, b)).unwrap();
        assert_eq!(out.hops, 1);
        assert_eq!(out.path, vec![a, b]);
        // Acked send: the message is drainable the moment send returns.
        let delivered = t.drain(b);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].id, Guid::from_u128(1));
        assert!(t.drain(b).is_empty(), "drain consumes");
        assert_eq!(t.stats().delivered(), 1);
        let snap = t.telemetry().unwrap().snapshot();
        assert!(snap.counter("net.tcp.handshakes") >= 2);
        assert!(snap.counter("net.tcp.frames.sent") >= 2);
        assert!(snap.counter("net.tcp.bytes.recv") > 0);
    }

    #[test]
    fn reverse_direction_works_on_the_same_socket_pair() {
        let mut t = TcpTransport::new();
        let a = Guid::from_u128(0xa);
        let b = Guid::from_u128(0xb);
        t.add_node(a, "a").unwrap();
        t.add_node(b, "b").unwrap();
        t.connect_full();
        t.send(msg(1, a, b)).unwrap();
        assert!(
            wait_until(|| t.connections_of(b) == 1),
            "acceptor registers the reverse connection"
        );
        t.send(msg(2, b, a)).unwrap();
        assert_eq!(t.drain(a).len(), 1);
        assert_eq!(t.drain(b).len(), 1);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut old = TcpTransport::new();
        let a = Guid::from_u128(0xa);
        old.add_node(a, "a").unwrap();

        let mut new = TcpTransport::new();
        new.set_protocol_version(TCP_PROTOCOL_VERSION + 1);
        let b = Guid::from_u128(0xb);
        new.add_node(b, "b").unwrap();

        let err = old
            .peer_with(a, new.listener_addr(b).unwrap())
            .expect_err("mismatched versions must not peer");
        assert!(
            err.to_string().contains("rejected"),
            "dialer learns the rejection: {err}"
        );
        assert_eq!(
            new.telemetry()
                .unwrap()
                .snapshot()
                .counter("net.tcp.handshake.rejected"),
            1
        );
        assert_eq!(old.connections_of(a), 0);
    }

    #[test]
    fn late_joiner_converges_through_anti_entropy() {
        let mut t = TcpTransport::new();
        let a = Guid::from_u128(0xa);
        let b = Guid::from_u128(0xb);
        t.add_node(a, "a").unwrap();
        t.publish_registration(a, "place/L10.01", "range-a")
            .unwrap();
        t.publish_registration(a, "place/lobby", "range-a").unwrap();
        t.retract_registration(a, "place/lobby").unwrap();

        t.add_node(b, "b").unwrap();
        assert_ne!(t.registration_digest(a), t.registration_digest(b));
        t.join(b, a, 0).unwrap();
        assert_eq!(
            t.registration_digest(a),
            t.registration_digest(b),
            "handshake anti-entropy converges the late joiner"
        );
        assert_eq!(
            t.registration(b, "place/L10.01").as_deref(),
            Some("range-a")
        );
        assert_eq!(
            t.registration(b, "place/lobby"),
            None,
            "tombstones replicate as absence"
        );
        assert!(
            t.telemetry()
                .unwrap()
                .snapshot()
                .counter("net.tcp.sync.rounds")
                >= 1
        );
    }

    #[test]
    fn live_publish_propagates_to_connected_peers() {
        let mut t = TcpTransport::new();
        let a = Guid::from_u128(0xa);
        let b = Guid::from_u128(0xb);
        t.add_node(a, "a").unwrap();
        t.add_node(b, "b").unwrap();
        t.connect_full();
        t.publish_registration(a, "place/L10.02", "range-a")
            .unwrap();
        assert!(
            wait_until(|| t.registration(b, "place/L10.02").is_some()),
            "live delta reaches the connected peer"
        );
        assert!(
            wait_until(|| t.registration_digest(a) == t.registration_digest(b)),
            "stores converge"
        );
    }

    #[test]
    fn gossip_makes_third_parties_dialable() {
        let mut t = TcpTransport::new();
        let a = Guid::from_u128(0xa);
        let b = Guid::from_u128(0xb);
        let c = Guid::from_u128(0xc);
        t.add_node(a, "a").unwrap();
        t.add_node(b, "b").unwrap();
        t.add_node(c, "c").unwrap();
        // a ↔ b live; then c joins via a and learns b from gossip.
        t.join(b, a, 0).unwrap();
        assert!(wait_until(|| t.connections_of(a) == 1));
        t.join(c, a, 0).unwrap();
        assert_eq!(t.connections_of(c), 1, "c holds only its link to a");
        // Gossip gave c b's address, so the send dials b lazily.
        t.send(msg(9, c, b)).unwrap();
        assert_eq!(t.drain(b).len(), 1);
        assert_eq!(t.connections_of(c), 2, "the lazy dial made c → b live");
    }

    /// A hand-driven peer `0xb` of node `a`: the socket has sent its
    /// `HELLO`, and `a` will answer `WELCOME` and register the link.
    fn forged_peer(t: &TcpTransport, a: Guid) -> (TcpStream, Guid) {
        let mut peer = TcpStream::connect(t.listener_addr(a).unwrap()).unwrap();
        let forged = PeerInfo {
            guid: Guid::from_u128(0xb),
            name: "b".into(),
            addr: peer.local_addr().unwrap(),
        };
        let hello = hello_frame(TCP_PROTOCOL_VERSION, &forged, SyncStore::new().digest());
        write_frame_direct(&mut peer, &hello, &t.counters).unwrap();
        (peer, forged.guid)
    }

    fn counter(t: &TcpTransport, name: &str) -> u64 {
        t.telemetry().unwrap().snapshot().counter(name)
    }

    #[test]
    fn a_data_frame_under_a_tag_no_kind_owns_is_corrupt_not_a_panic() {
        let mut t = TcpTransport::new();
        let a = Guid::from_u128(0xa);
        t.add_node(a, "a").unwrap();
        // A peer that handshakes properly, then sends a well-formed
        // message under the reserved tag 2.
        let (mut peer, b) = forged_peer(&t, a);
        let mut payload = Vec::new();
        wire::put_u64(&mut payload, 1);
        wire::put_bytes(&mut payload, &msg(1, b, a).encode());
        write_frame_direct(&mut peer, &Frame::new(2, payload), &t.counters).unwrap();

        let corrupt = || counter(&t, "net.tcp.corrupt_frames");
        assert!(wait_until(|| corrupt() == 1), "the frame is counted");
        assert!(t.drain(a).is_empty(), "and nothing was delivered");
        assert!(
            wait_until(|| t.connections_of(a) == 0),
            "the reader took its connection with it"
        );
    }

    /// A reader that a signal interrupts before each of its reads.
    struct Interrupted {
        bytes: &'static [u8],
        signalled: bool,
    }

    impl Read for Interrupted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.signalled = !self.signalled;
            if self.signalled {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = self.bytes.len().min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_read_a_signal_interrupts_is_restarted() {
        let mut r = Interrupted {
            bytes: b"hello",
            signalled: false,
        };
        let mut buf = [0u8; 3];
        assert_eq!(read_step(&mut r, &mut buf).unwrap(), Some(3));
        assert_eq!(read_step(&mut r, &mut buf).unwrap(), Some(2));
        assert_eq!(
            read_step(&mut r, &mut buf).unwrap(),
            Some(0),
            "end of stream"
        );

        struct Failing(ErrorKind);
        impl Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(self.0.into())
            }
        }
        for timeout in [ErrorKind::WouldBlock, ErrorKind::TimedOut] {
            assert_eq!(read_step(&mut Failing(timeout), &mut buf).unwrap(), None);
        }
        assert!(read_step(&mut Failing(ErrorKind::ConnectionReset), &mut buf).is_err());
    }

    /// A payload of `head`, then a row count of `u32::MAX` and nothing
    /// behind it.
    fn hostile_count(head: &[u8]) -> Vec<u8> {
        let mut p = head.to_vec();
        wire::put_u32(&mut p, u32::MAX);
        p
    }

    #[test]
    fn a_hostile_row_count_is_a_codec_error_not_an_allocation() {
        let id = PeerInfo {
            guid: Guid::from_u128(0xa),
            name: "a".into(),
            addr: "127.0.0.1:1".parse().unwrap(),
        };
        let mut identity = Vec::new();
        put_identity(&mut identity, TCP_PROTOCOL_VERSION, &id, 0);
        let no_entries = 0u32.to_be_bytes();
        let refused = [
            ("welcome", parse_welcome(&hostile_count(&identity)).err()),
            ("offer", parse_offer(&hostile_count(&[])).err()),
            ("delta entries", parse_delta(&hostile_count(&[])).err()),
            (
                "delta wants",
                parse_delta(&hostile_count(&no_entries)).err(),
            ),
        ];
        for (what, err) in refused {
            assert!(matches!(err, Some(SciError::Codec(_))), "{what}: {err:?}");
        }
    }

    #[test]
    fn a_peer_offering_a_hostile_count_leaves_the_node_serving() {
        let mut t = TcpTransport::new();
        let a = Guid::from_u128(0xa);
        t.add_node(a, "a").unwrap();
        // A registration, so the forged peer's empty store differs and
        // `a` reads an offer straight after the HELLO.
        t.publish_registration(a, "place/L10.01", "range-a")
            .unwrap();
        let (mut peer, _) = forged_peer(&t, a);
        let offer = Frame::new(TAG_SYNC_OFFER, hostile_count(&[]));
        write_frame_direct(&mut peer, &offer, &t.counters).unwrap();
        assert!(wait_until(|| counter(&t, "net.tcp.accept_failures") == 1));
        assert_eq!(t.connections_of(a), 0);

        let c = Guid::from_u128(0xc);
        t.add_node(c, "c").unwrap();
        t.connect_full();
        assert_eq!(counter(&t, "net.tcp.dial_failures"), 0);
        t.send(msg(1, c, a)).unwrap();
        assert_eq!(t.drain(a).len(), 1, "a still accepts and delivers");
    }

    #[test]
    fn a_dial_that_fails_is_counted() {
        let mut t = TcpTransport::new();
        let (a, b) = (Guid::from_u128(0xa), Guid::from_u128(0xb));
        t.add_node(a, "a").unwrap();
        // `b` speaks another version, so every dial between them fails.
        t.set_protocol_version(TCP_PROTOCOL_VERSION + 1);
        t.add_node(b, "b").unwrap();
        t.connect_full();
        assert_eq!(counter(&t, "net.tcp.dial_failures"), 1);
        assert!(matches!(
            t.send(msg(1, a, b)),
            Err(SciError::Unroutable { .. })
        ));
        assert_eq!(counter(&t, "net.tcp.dial_failures"), 2, "the lazy dial too");
    }

    #[test]
    fn a_batch_is_coalesced_per_peer_and_acked_cumulatively() {
        let mut t = TcpTransport::new();
        let [a, b, c] = [0xa, 0xb, 0xc].map(Guid::from_u128);
        for (node, name) in [(a, "a"), (b, "b"), (c, "c")] {
            t.add_node(node, name).unwrap();
        }
        t.connect_full();
        let ids = |messages: &[Message]| messages.iter().map(|m| m.id).collect::<Vec<_>>();

        // 200 KiB: several capped writes, each acked before the next.
        let kib = Bytes::from(vec![7u8; 1024]);
        let batch: Vec<Message> = (0..200u128)
            .map(|i| Message::new(Guid::from_u128(i), a, b, MessageKind::Ping, kib.clone()))
            .collect();
        let frames_before = counter(&t, "net.tcp.frames.sent");
        let out = t.send_all(&batch);
        assert_eq!(out.len(), 200);
        assert!(out.iter().all(Result::is_ok));
        assert_eq!(
            ids(&t.drain(b)),
            ids(&batch),
            "drainable, in order, on return"
        );
        let frames = counter(&t, "net.tcp.frames.sent") - frames_before;
        assert!(
            frames < 400,
            "200 data frames took {frames} frames: not one ACK each"
        );

        // Two peers in one batch: each keeps its own order.
        let mixed: Vec<Message> = (0..60u128)
            .map(|i| msg(1_000 + i, a, if i % 3 == 0 { c } else { b }))
            .collect();
        assert!(t.send_all(&mixed).iter().all(Result::is_ok));
        for dst in [b, c] {
            let sent: Vec<Message> = mixed.iter().filter(|m| m.dst == dst).cloned().collect();
            assert_eq!(ids(&t.drain(dst)), ids(&sent));
        }
    }

    #[test]
    fn an_ack_short_of_the_batch_leaves_the_unacked_suffix_unroutable() {
        let mut t = TcpTransport::new();
        let a = Guid::from_u128(0xa);
        t.add_node(a, "a").unwrap();
        // A peer that reads five data frames, acks the third, then
        // goes quiet with the socket open.
        let (mut peer, b) = forged_peer(&t, a);
        let counters = t.counters.clone();
        let (quiet_tx, quiet_rx) = mpsc::channel::<()>();
        let quiet_peer = thread::spawn(move || {
            let (mut dec, mut buf, mut seqs) = (StreamDecoder::new(), [0u8; 4096], Vec::new());
            loop {
                while let Some(frame) = dec.next_frame().unwrap() {
                    if frame.tag <= 8 {
                        seqs.push(wire::Reader::new(&frame.payload).u64().unwrap());
                    }
                }
                if seqs.len() == 5 {
                    break;
                }
                let n = peer.read(&mut buf).unwrap();
                dec.extend(&buf[..n]);
            }
            write_frame_direct(&mut peer, &ack_frame(seqs[2]), &counters).unwrap();
            let _ = quiet_rx.recv();
        });
        assert!(wait_until(|| t.connections_of(a) == 1));

        let timeouts = counter(&t, "net.tcp.ack_timeouts");
        let batch: Vec<Message> = (0..5u128).map(|i| msg(i, a, b)).collect();
        let out = t.send_all(&batch);
        let acked: Vec<bool> = out.iter().map(Result::is_ok).collect();
        assert_eq!(acked, [true, true, true, false, false]);
        assert!(matches!(out[3], Err(SciError::Unroutable { .. })));
        assert_eq!(counter(&t, "net.tcp.ack_timeouts"), timeouts + 1);
        quiet_tx.send(()).unwrap();
        quiet_peer.join().unwrap();
    }

    #[test]
    fn unknown_destination_is_unroutable() {
        let mut t = TcpTransport::new();
        let a = Guid::from_u128(0xa);
        t.add_node(a, "a").unwrap();
        let ghost = Guid::from_u128(0xdead);
        assert!(matches!(
            t.send(msg(1, a, ghost)),
            Err(SciError::Unroutable { .. })
        ));
        assert_eq!(t.stats().failed(), 1);
        assert_eq!(
            counter(&t, "net.tcp.unknown_peer"),
            1,
            "counted, not dialed"
        );
        assert_eq!(counter(&t, "net.tcp.dial_failures"), 0);
    }
}
