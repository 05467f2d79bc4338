//! Durable ranges: a write-ahead command log plus snapshot recovery.
//!
//! The paper's Context Server is "the most important component of a
//! Range" (Section 3.1) — and the seed middleware kept all of its state
//! in memory, so a process crash erased a range's registrations,
//! standing subscriptions and undrained deliveries. This module makes a
//! range *durable* by exploiting the actor discipline the runtime
//! already enforces: every mutation is a [`RangeCommand`] through
//! [`ContextServer::handle`], so logging the command stream is logging
//! the full state history.
//!
//! # Design
//!
//! * **Append-before-apply.** `handle` encodes each durable command
//!   into a CRC-framed binary record ([`encode_command`]) and appends
//!   it to a [`sci_wal::SegmentLog`] *before* executing it. Commands
//!   that subsequently fail are logged anyway: replay re-runs them and
//!   they fail identically, which keeps recovery deterministic without
//!   the log having to know outcomes.
//! * **Drains are not commands.** `drain_outbox`, `drain_outbox_for`
//!   and `drain_answers` are plain methods that hand queued output to
//!   its reader, and `audit` is the one command the log skips — and
//!   *not* logging drains is what makes recovery safe: a crash after a
//!   drain but before its items reached anyone would otherwise discard
//!   them permanently. Replay regenerates the undrained outbox; direct
//!   callers see at-least-once redelivery, and the federation dedups to
//!   exactly-once via stream sequences (see below). Their frame tags
//!   (12–14) are retired: `decode_command` refuses them as unknown.
//! * **Snapshots bound replay.** Every [`DurabilityConfig::snapshot_every`]
//!   logged commands, the post-command state is serialised — a
//!   `<range-snapshot>` document (the sections of
//!   [`crate::migration::MigrationPacket`], written by the same
//!   `XmlWriter` straight into the payload) for what the paper
//!   exchanges as documents, then the position and history tables in
//!   the binary record form of `records.rs` — and written
//!   atomically via [`sci_wal::write_snapshot`]; fully covered closed
//!   segments and older snapshots are pruned. The context store keeps
//!   its history in that record form already, so the history table —
//!   the bulk of a snapshot — is the stored bytes copied. A restore
//!   costs one read, one check and one copy per bucket:
//!   [`sci_wal::read_latest_snapshot`] reads the payload straight into
//!   the buffer it returns and checks its CRC there, and the history
//!   table is filed from that buffer by `ContextStore::import`, which
//!   checks each record (`records.rs`' `skim_event`) and copies each
//!   run of one (type, subject) into its bucket at once: history is
//!   neither re-encoded nor decoded. `wal.recover.read_us`,
//!   `wal.recover.restore_us` and `wal.recover.replay_us` time the
//!   three phases of a recovery.
//! * **Exactly-once across restarts.** Stream envelope sequences are
//!   durable counters on the server (snapshotted, never rewound), so a
//!   recovered range re-streams regenerated deliveries under the *same*
//!   `(origin, seq)` envelopes the federation may already have seen —
//!   receiver-side dedup then collapses redelivery to exactly-once.
//! * **One log per range, one rebuild.** The records and the snapshot
//!   live in a directory ([`attach`]: survives the process) or in
//!   memory ([`attach_memory`]: survives a worker panic — what a
//!   supervised range without a directory is given at spawn). The
//!   hook in `handle`, the snapshot schedule and the rebuild are the
//!   same code over either; [`recover`] rebuilds from a directory,
//!   [`restart`] from whichever store a dead worker's server was
//!   attached to.
//! * **The poison rule.** A record whose apply *panicked* was appended
//!   but never took effect, and would panic again: whoever catches the
//!   panic has a retirement marker appended behind it, and the rebuild
//!   skips both. A record whose fate is merely unknown — the tail
//!   after a process crash — is replayed.
//!
//! # What is deliberately not durable
//!
//! Logic *instance* GUIDs (minted by the server's deterministic
//! generator, but consumed in timeline order) and derived-event
//! sequence numbers can differ between an uninterrupted run and a
//! recovered one, because snapshot restore re-resolves configurations
//! the way migration replay does. [`durable_digest`] therefore
//! normalises events whose source is not a registered profile. Signal-
//! reading buffers (30 s TTL trilateration scratch) and telemetry
//! counters are likewise transient — though a recovered server reuses
//! the registry handed to [`recover`], preserving counter continuity.
//!
//! The crash-safety contract is proven by the kill-at-any-prefix
//! property suite in `tests/durability_recovery.rs`: truncating the
//! log at *any* byte prefix recovers exactly the state of the longest
//! intact command prefix (plus a reported torn tail).

use std::hash::BuildHasher;
use std::path::PathBuf;
use std::time::Instant;

use sci_location::floorplan::FloorPlan;
use sci_query::codec as qcodec;
use sci_query::xml::{document, parse, Element, XmlWriter};
use sci_query::Query;
use sci_telemetry::{catalogue, Counter, Gauge, Histogram, Registry};
use sci_types::{
    ContextEvent, ContextType, EventSeq, Guid, SciError, SciResult, VirtualDuration, VirtualTime,
};
use sci_wal::codec::wire;
use sci_wal::log::LatestSnapshot;
use sci_wal::{
    prune_snapshots, read_latest_snapshot, Frame, FsyncPolicy, Recovered, SegmentLog, WalError,
};

use crate::context_server::ContextServer;
use crate::logic::LogicFactory;
use crate::migration::MigrationPacket;
use crate::records::{
    answer_to_xml, frame_err, get_coord, get_event, get_guid, get_rows, parsed_attr, put_coord,
    put_event, write_deferred, MIN_EVENT_LEN,
};
use crate::runtime::RangeCommand;
use crate::telemetry::elapsed_us;

/// Whether a command belongs in the write-ahead log: every command
/// but the read-only audit, which carries no durable state.
pub fn is_durable(cmd: &RangeCommand) -> bool {
    !matches!(cmd, RangeCommand::Audit)
}

fn wal_err(e: WalError) -> SciError {
    SciError::Internal(format!("wal: {e}"))
}

// ---------------------------------------------------------------------
// Command <-> frame codec
// ---------------------------------------------------------------------

/// Encodes one durable command as a WAL frame: tag =
/// [`RangeCommand::kind_index`], payload = `[u64 now-us]` followed by
/// the variant body. Structured bodies (profiles, advertisements,
/// queries, migration packets) are their XML documents as
/// length-prefixed strings, written in place; GUIDs, flags and events
/// are binary (`records.rs`).
pub fn encode_command(cmd: &RangeCommand, now: VirtualTime) -> Frame {
    let mut p = Vec::new();
    wire::put_u64(&mut p, now.as_micros());
    match cmd {
        RangeCommand::Register(profile) => {
            put_document(&mut p, |w| qcodec::write_profile(w, profile))
        }
        RangeCommand::RegisterLogic(ce, _factory) => wire::put_u128(&mut p, ce.as_u128()),
        RangeCommand::DeclareEquivalence(a, b) => {
            wire::put_str(&mut p, a.name());
            wire::put_str(&mut p, b.name());
        }
        RangeCommand::Heartbeat(g)
        | RangeCommand::Deregister(g)
        | RangeCommand::Cancel(g)
        | RangeCommand::MigrateOut(g)
        | RangeCommand::Fail(g) => wire::put_u128(&mut p, g.as_u128()),
        RangeCommand::Advertise(ad) => put_document(&mut p, |w| qcodec::write_advertisement(w, ad)),
        RangeCommand::Submit(query) => put_document(&mut p, |w| qcodec::write_query(w, query)),
        RangeCommand::Ingest(event) => put_event(&mut p, event),
        RangeCommand::IngestBatch(events) => {
            wire::put_u32(&mut p, events.len() as u32);
            for event in events {
                put_event(&mut p, event);
            }
        }
        RangeCommand::PollTimers | RangeCommand::ExpireHistory | RangeCommand::Audit => {}
        RangeCommand::SetReuse(b)
        | RangeCommand::SetAutoRegisterPeople(b)
        | RangeCommand::SetPlanVerification(b) => wire::put_u8(&mut p, u8::from(*b)),
        RangeCommand::MigrateIn(packet) => put_document(&mut p, |w| packet.write(w)),
    }
    Frame::new(cmd.kind_index() as u8, p)
}

/// Appends the document `write` writes as a length-prefixed string
/// (`wire::put_str`'s bytes), written in place: a length placeholder,
/// the document, then the length.
fn put_document(out: &mut Vec<u8>, write: impl FnOnce(&mut XmlWriter<'_>)) {
    let at = out.len();
    wire::put_u32(out, 0);
    write(&mut XmlWriter::new(out));
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

/// The logic factories a replay re-installs, by CE. The caller picks
/// the hasher, so this table alone is `std`'s map, over any `S`.
#[expect(clippy::disallowed_types, reason = "the caller picks the hasher")]
type LogicTable<S> = std::collections::HashMap<Guid, LogicFactory, S>;

/// Decodes a WAL frame back into `(command, now)`.
///
/// Logic factories are closures and cannot live in a log;
/// `register-logic` records store only the CE class GUID, and replay
/// resolves it against `logic` — the same factories the embedding
/// program registered the first time around.
///
/// # Errors
///
/// [`SciError::Codec`] for malformed payloads or unknown tags,
/// [`SciError::Internal`] when a `register-logic` record has no
/// matching resolver.
pub fn decode_command<S: BuildHasher>(
    frame: &Frame,
    logic: &LogicTable<S>,
) -> SciResult<(RangeCommand, VirtualTime)> {
    let mut r = wire::Reader::new(&frame.payload);
    let now = VirtualTime::from_micros(r.u64().map_err(frame_err)?);
    let cmd = match frame.tag as usize {
        0 => {
            let xml = r.str().map_err(frame_err)?;
            RangeCommand::Register(Box::new(qcodec::profile_from_element(&parse(xml)?)?))
        }
        1 => {
            let ce = get_guid(&mut r)?;
            let factory = logic.get(&ce).cloned().ok_or_else(|| {
                SciError::Internal(format!("no logic resolver for CE class {ce} during replay"))
            })?;
            RangeCommand::RegisterLogic(ce, factory)
        }
        2 => {
            let a = ContextType::from_name(r.str().map_err(frame_err)?);
            let b = ContextType::from_name(r.str().map_err(frame_err)?);
            RangeCommand::DeclareEquivalence(a, b)
        }
        3 => RangeCommand::Heartbeat(get_guid(&mut r)?),
        4 => {
            let xml = r.str().map_err(frame_err)?;
            RangeCommand::Advertise(Box::new(qcodec::advertisement_from_element(&parse(xml)?)?))
        }
        5 => RangeCommand::Deregister(get_guid(&mut r)?),
        6 => RangeCommand::Submit(Box::new(qcodec::from_xml(r.str().map_err(frame_err)?)?)),
        7 => RangeCommand::Cancel(get_guid(&mut r)?),
        8 => RangeCommand::Ingest(get_event(&mut r)?),
        9 => RangeCommand::IngestBatch(get_rows(&mut r, MIN_EVENT_LEN, get_event)?),
        10 => RangeCommand::PollTimers,
        11 => RangeCommand::ExpireHistory,
        15 => RangeCommand::SetReuse(r.u8().map_err(frame_err)? != 0),
        16 => RangeCommand::SetAutoRegisterPeople(r.u8().map_err(frame_err)? != 0),
        17 => RangeCommand::SetPlanVerification(r.u8().map_err(frame_err)? != 0),
        18 => RangeCommand::Audit,
        19 => RangeCommand::MigrateOut(get_guid(&mut r)?),
        20 => RangeCommand::MigrateIn(Box::new(MigrationPacket::from_xml(
            r.str().map_err(frame_err)?,
        )?)),
        21 => RangeCommand::Fail(get_guid(&mut r)?),
        other => {
            return Err(SciError::Codec(format!(
                "unknown command frame tag {other}"
            )))
        }
    };
    Ok((cmd, now))
}

// ---------------------------------------------------------------------
// Configuration and metrics
// ---------------------------------------------------------------------

/// Logged commands between snapshots unless a [`DurabilityConfig`]
/// says otherwise — and always for the in-memory store, whose
/// snapshots are its compaction.
const SNAPSHOT_EVERY: u64 = 256;

/// How a range's write-ahead log behaves.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding segments and snapshots (one range per dir).
    pub dir: PathBuf,
    /// Fsync discipline (default: every 32 appends).
    pub fsync: FsyncPolicy,
    /// Segment rotation threshold in bytes (default: 1 MiB).
    pub segment_bytes: u64,
    /// Write a snapshot every N logged commands; `0` disables
    /// snapshotting (default: 256).
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// Defaults for `dir`: `EveryN(32)` fsync, 1 MiB segments, a
    /// snapshot every 256 commands.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryN(32),
            segment_bytes: 1 << 20,
            snapshot_every: SNAPSHOT_EVERY,
        }
    }
}

/// WAL instruments, registered on the owning range's registry.
struct WalMetrics {
    append_us: Histogram,
    fsync_us: Histogram,
    snapshot_us: Histogram,
    snapshot_encode_us: Histogram,
    recover_us: Histogram,
    /// The three phases `recover_us` sums: reading and checking the
    /// snapshot and segments, restoring the snapshot (when there is
    /// one), replaying the records past it.
    recover_phases_us: [Histogram; 3],
    bytes: Counter,
    torn_tail: Counter,
    segments: Gauge,
}

impl WalMetrics {
    fn new(registry: &Registry) -> Self {
        WalMetrics {
            append_us: registry.histogram(catalogue::WAL_APPEND_US),
            fsync_us: registry.histogram(catalogue::WAL_FSYNC_US),
            snapshot_us: registry.histogram(catalogue::WAL_SNAPSHOT_US),
            snapshot_encode_us: registry.histogram(catalogue::WAL_SNAPSHOT_ENCODE_US),
            recover_us: registry.histogram(catalogue::WAL_RECOVER_US),
            recover_phases_us: [
                registry.histogram(catalogue::WAL_RECOVER_READ_US),
                registry.histogram(catalogue::WAL_RECOVER_RESTORE_US),
                registry.histogram(catalogue::WAL_RECOVER_REPLAY_US),
            ],
            bytes: registry.counter(catalogue::WAL_BYTES),
            torn_tail: registry.counter(catalogue::WAL_TORN_TAIL),
            segments: registry.gauge(catalogue::WAL_SEGMENTS),
        }
    }
}

// ---------------------------------------------------------------------
// The per-range WAL handle
// ---------------------------------------------------------------------

/// Frame tag of a retirement marker: the record before it was appended
/// but its apply panicked, and must not be replayed. Outside the
/// command tag space ([`RangeCommand::KINDS`]).
const RETIRED: u8 = 0xFF;

/// Where a range's records and snapshot are kept. Everything above
/// this enum — the append-before-apply hook, snapshot scheduling,
/// recovery — is the same code for both.
enum Store {
    /// Segment and snapshot files under `config.dir`: survives the
    /// process.
    Dir {
        log: SegmentLog,
        config: DurabilityConfig,
    },
    /// The same in memory: survives a worker panic, which is all a
    /// supervised restart needs.
    Mem(MemLog),
}

/// What a log directory holds, held in memory: the newest snapshot and
/// every record since (a snapshot is this store's compaction).
#[derive(Default)]
struct MemLog {
    frames: Vec<(u64, Frame)>,
    next_index: u64,
    snapshot: LatestSnapshot,
}

/// What a store holds when it is opened for recovery.
struct Held {
    snapshot: LatestSnapshot,
    snapshots_skipped: usize,
    log: Recovered,
}

impl Store {
    fn open_dir(config: &DurabilityConfig) -> SciResult<(Store, Held)> {
        let (log, recovered) =
            SegmentLog::open(&config.dir, config.fsync, config.segment_bytes).map_err(wal_err)?;
        let (snapshot, snapshots_skipped) = read_latest_snapshot(&config.dir).map_err(wal_err)?;
        let held = Held {
            snapshot,
            snapshots_skipped,
            log: recovered,
        };
        let config = config.clone();
        Ok((Store::Dir { log, config }, held))
    }

    /// Reads back what the store holds, ready to append again: a
    /// directory is closed (flushing it) and opened like any other.
    fn reopen(self) -> SciResult<(Store, Held)> {
        match self {
            Store::Dir { log, config } => {
                drop(log);
                Store::open_dir(&config)
            }
            Store::Mem(mem) => {
                let held = Held {
                    snapshot: mem.snapshot.clone(),
                    snapshots_skipped: 0,
                    log: Recovered {
                        frames: mem.frames.clone(),
                        torn_bytes: 0,
                        torn_detail: None,
                    },
                };
                Ok((Store::Mem(mem), held))
            }
        }
    }

    fn snapshot_every(&self) -> u64 {
        match self {
            Store::Dir { config, .. } => config.snapshot_every,
            Store::Mem(_) => SNAPSHOT_EVERY,
        }
    }

    fn segment_count(&self) -> usize {
        match self {
            Store::Dir { log, .. } => log.segment_count(),
            Store::Mem(_) => 0,
        }
    }

    /// Appends one frame; returns whether the append ran an fsync.
    fn append(&mut self, frame: Frame) -> SciResult<bool> {
        match self {
            Store::Dir { log, .. } => Ok(log.append(&frame).map_err(wal_err)?.synced),
            Store::Mem(mem) => {
                mem.frames.push((mem.next_index, frame));
                mem.next_index += 1;
                Ok(false)
            }
        }
    }

    /// Stores a snapshot covering every record so far and drops what
    /// it supersedes: covered records and older snapshots.
    fn write_snapshot(&mut self, payload: Vec<u8>) -> SciResult<()> {
        match self {
            Store::Dir { log, config } => {
                let applied = log.next_index();
                sci_wal::write_snapshot(&config.dir, applied, &payload).map_err(wal_err)?;
                log.prune_below(applied).map_err(wal_err)?;
                prune_snapshots(&config.dir, applied).map_err(wal_err)?;
            }
            Store::Mem(mem) => {
                mem.frames.clear();
                mem.snapshot = Some((mem.next_index, payload));
            }
        }
        Ok(())
    }

    fn sync(&mut self) -> SciResult<()> {
        match self {
            Store::Dir { log, .. } => log.sync().map_err(wal_err),
            Store::Mem(_) => Ok(()),
        }
    }
}

/// A range's attached write-ahead log: the stored records plus
/// snapshot scheduling state. Lives inside the [`ContextServer`] and is
/// driven exclusively by [`ContextServer::handle`]; construct one via
/// [`attach`] / [`attach_memory`] (fresh range) or [`recover`] /
/// [`restart`] (rebuilt range).
pub struct RangeWal {
    store: Store,
    since_snapshot: u64,
    /// The newest record's command has not come back from its apply.
    /// Set by [`RangeWal::append`], cleared by [`RangeWal::applied`];
    /// still set after a panic, it marks the record that must not be
    /// replayed.
    unapplied: bool,
    metrics: WalMetrics,
}

impl RangeWal {
    fn new(store: Store, registry: &Registry, since_snapshot: u64) -> Self {
        RangeWal {
            store,
            since_snapshot,
            unapplied: false,
            metrics: WalMetrics::new(registry),
        }
    }

    /// Appends one durable command, recording append/fsync latency.
    /// `fsync_us` samples the full append when the policy synced it —
    /// an upper bound on the sync itself, which is the component that
    /// matters for policy comparison.
    pub(crate) fn append(&mut self, cmd: &RangeCommand, now: VirtualTime) -> SciResult<()> {
        let frame = encode_command(cmd, now);
        let bytes = frame.encoded_len() as u64;
        #[expect(clippy::disallowed_methods, reason = "telemetry timing")]
        let started = Instant::now();
        let synced = self.store.append(frame)?;
        let us = elapsed_us(started);
        self.metrics.append_us.record(us);
        if synced {
            self.metrics.fsync_us.record(us);
        }
        self.metrics.bytes.add(bytes);
        self.metrics.segments.set(self.store.segment_count() as i64);
        self.since_snapshot += 1;
        self.unapplied = true;
        Ok(())
    }

    /// The newest record's command came back from its apply, with a
    /// reply or an error (replay reproduces either). Returns whether
    /// enough commands accumulated to warrant a snapshot.
    pub(crate) fn applied(&mut self) -> bool {
        self.unapplied = false;
        let every = self.store.snapshot_every();
        every > 0 && self.since_snapshot >= every
    }

    /// The poison rule: the record whose apply panicked was appended,
    /// never took effect, and would panic again. A [`RETIRED`] marker
    /// behind it keeps a supervised restart and any later [`recover`]
    /// from replaying it. Retires nothing when no apply was in flight:
    /// a panic inside an unlogged command, like a plain crash, leaves
    /// the tail record to be replayed.
    pub(crate) fn retire_unapplied(&mut self) -> SciResult<()> {
        if std::mem::take(&mut self.unapplied) {
            self.store.append(Frame::new(RETIRED, Vec::new()))?;
            self.store.sync()?;
        }
        Ok(())
    }

    /// Stores what [`encode_snapshot`] returned as covering everything
    /// logged so far and prunes what it supersedes. The two halves of a
    /// snapshot are timed apart: `wal.snapshot.encode_us` is the
    /// serialisation, `wal.snapshot_us` the store write. On failure
    /// `since_snapshot` is left alone, so the next logged command
    /// retries.
    pub(crate) fn write_snapshot(&mut self, (payload, encode_us): (Vec<u8>, u64)) -> SciResult<()> {
        self.metrics.snapshot_encode_us.record(encode_us);
        #[expect(clippy::disallowed_methods, reason = "telemetry timing")]
        let started = Instant::now();
        self.store.write_snapshot(payload)?;
        self.since_snapshot = 0;
        self.metrics.snapshot_us.record(elapsed_us(started));
        self.metrics.segments.set(self.store.segment_count() as i64);
        Ok(())
    }

    /// Flushes and fsyncs buffered appends (shutdown path).
    pub(crate) fn sync(&mut self) -> SciResult<()> {
        self.store.sync()
    }
}

// ---------------------------------------------------------------------
// Snapshot codec
// ---------------------------------------------------------------------

/// Writes the document half of a snapshot: a `<range-snapshot>` element
/// with a header of settings, what the range holds on behalf of
/// everyone (the sections a [`MigrationPacket`] carries for one entity)
/// and the small range-only tables — logic keys, equivalences,
/// exclusions, when each liveness-tracked source was last heard and, on
/// the root, the stream sequence counters. Every collection is
/// emitted in a deterministic order so identical states produce
/// identical bytes.
fn write_snapshot_document(w: &mut XmlWriter<'_>, cs: &ContextServer, now: VirtualTime) {
    w.element("range-snapshot", |w| {
        w.attr("now-us", now.as_micros());
        write_settings(w, cs);
        cs.held(None).write_sections(w);
        write_excluded(w, cs);
        // Present even when empty: its absence is how a snapshot that
        // predates the table is told from one with nothing tracked.
        w.element("liveness", |w| write_liveness_rows(w, cs, "source"));
    });
}

/// The attributes and children a snapshot and the digest both open
/// with: settings and stream counters, logic keys, equivalence classes.
fn write_settings(w: &mut XmlWriter<'_>, cs: &ContextServer) {
    let (delivery_seq, answer_seq) = cs.stream_seqs();
    w.attr("reuse", cs.instances().reuse_enabled());
    w.attr("auto-register", cs.auto_register_people());
    w.attr("verify-plans", cs.plan_verification());
    w.attr("delivery-seq", delivery_seq);
    w.attr("answer-seq", answer_seq);
    for ce in cs.logic_keys() {
        w.element("logic", |w| w.attr("ce", ce));
    }
    for class in cs.profiles().equivalence_classes() {
        w.element("equivalence", |w| {
            for member in class {
                w.element("member", |w| w.attr("name", member.name()));
            }
        });
    }
}

/// One `<excluded id=…/>` per excluded source, ascending GUID.
fn write_excluded(w: &mut XmlWriter<'_>, cs: &ContextServer) {
    let mut excluded: Vec<Guid> = cs.excluded().iter().copied().collect();
    excluded.sort_unstable();
    for id in excluded {
        w.element("excluded", |w| w.attr("id", id));
    }
}

/// One `<name id=… last-seen-us=… max-silence-us=…/>` per
/// liveness-tracked source, ascending GUID.
fn write_liveness_rows(w: &mut XmlWriter<'_>, cs: &ContextServer, name: &str) {
    for (id, last_seen, max_silence) in cs.mediator().liveness() {
        w.element(name, |w| {
            w.attr("id", id);
            w.attr("last-seen-us", last_seen.as_micros());
            w.attr("max-silence-us", max_silence.as_micros());
        });
    }
}

/// Serialises the durable state of a server at `now` into a snapshot
/// payload, and times it: `(payload, microseconds spent encoding)`.
///
/// The payload is the [`write_snapshot_document`] document as one
/// length-prefixed string, then two counted tables of binary records:
/// last known positions (`entity`, `x`, `y`) and the history in export
/// order ([`crate::history::ContextStore::write_records`]: the records
/// the store holds, copied). The history is the bulk of a range's state
/// and goes last, so a restore can stream it; nothing follows it.
pub(crate) fn encode_snapshot(cs: &ContextServer, now: VirtualTime) -> (Vec<u8>, u64) {
    #[expect(clippy::disallowed_methods, reason = "telemetry timing")]
    let started = Instant::now();
    let mut p = Vec::new();
    put_document(&mut p, |w| write_snapshot_document(w, cs, now));
    let positions = cs.location().export_positions();
    let history = cs.history();
    // The tables are sized once: the history table is the stored
    // records, copied.
    p.reserve_exact(4 + positions.len() * POSITION_LEN + 4 + history.record_bytes());
    wire::put_u32(&mut p, positions.len() as u32);
    for (entity, at) in positions {
        wire::put_u128(&mut p, entity.as_u128());
        put_coord(&mut p, at);
    }
    history.write_records(&mut p);
    (p, elapsed_us(started))
}

/// Bytes of one position row: entity GUID and two coordinates.
const POSITION_LEN: usize = 16 + 8 + 8;

/// Replays a snapshot payload into a freshly built server and returns
/// the snapshot's `now` and how many standing queries it had to drop.
///
/// Restore order matters and mirrors how the state was built the first
/// time: settings, logic factories and equivalences first (the
/// resolver consults them), then one [`ContextServer::import`], which
/// states the rest of the rule once: registrations → exclusions →
/// queries → transients, then the range-only tables.
///
/// # Errors
///
/// [`SciError::Codec`] for a payload that is not what
/// [`encode_snapshot`] writes (an XML-only snapshot of an earlier
/// build included), and the first command-replay failure — a snapshot
/// was written from consistent state, so any failure here means the
/// payload (or the restore path) is broken, not the data. The one
/// exception: a standing query that no longer resolves. Its providers
/// had all left when the snapshot was taken (a degraded configuration,
/// waiting for a new source), and the snapshot does not carry the plan
/// it was degraded from; it is dropped and counted rather than failing
/// the whole recovery.
pub(crate) fn restore_snapshot<S: BuildHasher>(
    cs: &mut ContextServer,
    payload: &[u8],
    logic: &LogicTable<S>,
) -> SciResult<(VirtualTime, usize)> {
    let mut r = wire::Reader::new(payload);
    let root = &parse(r.str().map_err(frame_err)?)?;
    if root.name != "range-snapshot" {
        return Err(SciError::Codec(format!(
            "expected <range-snapshot>, got <{}>",
            root.name
        )));
    }
    let now = VirtualTime::from_micros(parsed_attr(root, "now-us")?);
    cs.handle(RangeCommand::SetReuse(parsed_attr(root, "reuse")?), now)?;
    cs.handle(
        RangeCommand::SetAutoRegisterPeople(parsed_attr(root, "auto-register")?),
        now,
    )?;
    cs.handle(
        RangeCommand::SetPlanVerification(parsed_attr(root, "verify-plans")?),
        now,
    )?;
    for l in root.children_named("logic") {
        let ce: Guid = l.require_attr("ce")?.parse()?;
        let factory = logic.get(&ce).cloned().ok_or_else(|| {
            SciError::Internal(format!("no logic resolver for CE class {ce} in snapshot"))
        })?;
        cs.handle(RangeCommand::RegisterLogic(ce, factory), now)?;
    }
    for eq in root.children_named("equivalence") {
        let members: Vec<ContextType> = eq
            .children_named("member")
            .map(|m| Ok(ContextType::from_name(m.require_attr("name")?)))
            .collect::<SciResult<_>>()?;
        for pair in members.windows(2) {
            cs.handle(
                RangeCommand::DeclareEquivalence(pair[0].clone(), pair[1].clone()),
                now,
            )?;
        }
    }
    let excluded = root
        .children_named("excluded")
        .map(|x| x.require_attr("id")?.parse())
        .collect::<SciResult<Vec<Guid>>>()?;
    let liveness = root
        .child("liveness")
        .map(|table| {
            let row = |s: &Element| {
                Ok((
                    s.require_attr("id")?.parse()?,
                    VirtualTime::from_micros(parsed_attr(s, "last-seen-us")?),
                    VirtualDuration::from_micros(parsed_attr(s, "max-silence-us")?),
                ))
            };
            table.children_named("source").map(row).collect()
        })
        .transpose()?;
    let stream_seqs = (
        parsed_attr(root, "delivery-seq")?,
        parsed_attr(root, "answer-seq")?,
    );
    let held = MigrationPacket::read_sections(cs.id(), root)?;
    let positions = get_rows(&mut r, POSITION_LEN, |r| Ok((get_guid(r)?, get_coord(r)?)))?;
    // The rest is the history table, the bulk of a snapshot: filed
    // where it lies, a run of records at a time, checked but never
    // decoded.
    let history = &payload[payload.len() - r.remaining()..];
    let tables = (positions, liveness);
    let unresolved = cs.import(held, excluded, history, tables, stream_seqs, now)?;
    Ok((now, unresolved))
}

// ---------------------------------------------------------------------
// Attach / recover
// ---------------------------------------------------------------------

/// What [`recover`] (or [`restart`]) found in the log.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Applied index of the snapshot that seeded recovery, if any.
    pub snapshot_applied: Option<u64>,
    /// Commands replayed from the log after the snapshot.
    pub replayed: usize,
    /// Replayed commands that returned an error — they failed
    /// identically in the original timeline, so this is continuity,
    /// not damage — plus standing queries the snapshot held that no
    /// longer resolve (every provider had left; they are dropped).
    pub replay_errors: usize,
    /// Bytes truncated from the active segment's torn tail.
    pub torn_bytes: u64,
    /// Decoder diagnosis for the torn tail, when one was cut.
    pub torn_detail: Option<String>,
    /// Newer-but-damaged snapshot files that were skipped over.
    pub snapshots_skipped: usize,
    /// Virtual time of the last restored command (or snapshot): the
    /// clock value the range had durably reached.
    pub last_now: VirtualTime,
}

fn attach_store(cs: &mut ContextServer, store: Store, now: VirtualTime) -> SciResult<()> {
    let mut wal = RangeWal::new(store, cs.telemetry(), 0);
    wal.write_snapshot(encode_snapshot(cs, now))?;
    cs.put_wal(wal);
    Ok(())
}

/// Attaches a fresh write-ahead log to a server, seeding it with a
/// snapshot of the server's current state (so composition done before
/// the attach survives recovery too).
///
/// # Errors
///
/// [`SciError::Internal`] when `config.dir` already holds log records
/// or a snapshot — recovering an existing log is [`recover`]'s job —
/// or when the filesystem fails.
pub fn attach(
    cs: &mut ContextServer,
    config: &DurabilityConfig,
    now: VirtualTime,
) -> SciResult<()> {
    let (store, held) = Store::open_dir(config)?;
    if !held.log.frames.is_empty() || held.snapshot.is_some() {
        return Err(SciError::Internal(format!(
            "durability dir {} already holds a log; use recover()",
            config.dir.display()
        )));
    }
    attach_store(cs, store, now)
}

/// [`attach`], keeping the log in memory instead of a directory: the
/// same records, the same seeding snapshot, a snapshot (which is the
/// store's compaction) every 256 logged commands. It does not survive
/// the process; it is what a supervised range
/// ([`crate::runtime::RestartPolicy`]) with no disk log restarts from.
pub fn attach_memory(cs: &mut ContextServer, now: VirtualTime) {
    // No I/O: the only fallible step of `attach_store` is a directory's.
    let _ = attach_store(cs, Store::Mem(MemLog::default()), now);
}

/// Rebuilds a range from its durability directory: opens the log
/// (truncating any torn tail), restores the newest intact snapshot,
/// replays every logged command past it through the ordinary
/// [`ContextServer::handle`] dispatcher, and re-attaches the log for
/// continued appending.
///
/// Passing the predecessor's telemetry `registry` preserves counter
/// continuity across the restart, exactly like supervised restarts do.
/// `logic` is the embedding program's map, on whatever hasher it was
/// built with.
/// Replayed commands *do* re-record command metrics — the counters
/// describe work this process performed, and replay is work.
///
/// # Errors
///
/// Filesystem failures, closed-segment corruption
/// ([`sci_wal::WalError::Corrupt`] mapped to [`SciError::Internal`]),
/// malformed snapshot/frame payloads, or a missing logic resolver.
/// Commands that replay with an error are *not* errors here — they
/// failed the first time too (see [`RecoveryReport::replay_errors`]).
pub fn recover<S: BuildHasher>(
    id: Guid,
    name: impl Into<String>,
    plan: FloorPlan,
    registry: Registry,
    config: &DurabilityConfig,
    logic: &LogicTable<S>,
) -> SciResult<(ContextServer, RecoveryReport)> {
    let fresh = (id, name.into(), plan, registry);
    rebuild(fresh, || Store::open_dir(config), logic)
}

/// Rebuilds a range from the log attached to `wreck` — what a
/// supervised restart ([`crate::runtime::RestartPolicy`]) does with
/// the server a panicked worker leaves behind. Only the wreck's
/// identity, telemetry registry, logic factories and log are read; its
/// other state is suspect and is dropped. A record whose apply never
/// returned (the command that panicked) is marked retired first, so it
/// is replayed neither here nor by a later [`recover`] of the same
/// directory. The rebuilt server stays attached to the same log.
///
/// # Errors
///
/// [`SciError::Internal`] when `wreck` has no log attached; otherwise
/// as for [`recover`].
pub fn restart(wreck: ContextServer) -> SciResult<(ContextServer, RecoveryReport)> {
    let fresh = (
        wreck.id(),
        wreck.name().to_owned(),
        wreck.location().plan().clone(),
        wreck.telemetry().clone(),
    );
    let (mut wal, logic) = wreck.into_log().ok_or_else(|| {
        SciError::Internal("restart needs an attached log; see attach / attach_memory".into())
    })?;
    wal.retire_unapplied()?;
    rebuild(fresh, || wal.store.reopen(), &logic)
}

/// The one function that turns (snapshot, records) into a server:
/// restores the newest intact snapshot `open` finds into a fresh
/// server of the given identity, replays every record past it through
/// [`ContextServer::handle`], and attaches the opened store.
fn rebuild<S: BuildHasher>(
    (id, name, plan, registry): (Guid, String, FloorPlan, Registry),
    open: impl FnOnce() -> SciResult<(Store, Held)>,
    logic: &LogicTable<S>,
) -> SciResult<(ContextServer, RecoveryReport)> {
    // Store first, server second: the server's many small allocations
    // then sit together, after the log's one large read.
    #[expect(clippy::disallowed_methods, reason = "telemetry timing")]
    let started = Instant::now();
    let (store, held) = open()?;
    let read_us = elapsed_us(started);
    let mut cs = ContextServer::with_registry(id, name, plan, registry);
    let mut last_now = VirtualTime::ZERO;
    let mut snapshot_applied = None;
    let mut replay_errors = 0usize;
    let mut restore_us = None;
    if let Some((applied, payload)) = held.snapshot {
        #[expect(clippy::disallowed_methods, reason = "telemetry timing")]
        let restoring = Instant::now();
        (last_now, replay_errors) = restore_snapshot(&mut cs, &payload, logic)?;
        restore_us = Some(elapsed_us(restoring));
        snapshot_applied = Some(applied);
    }
    #[expect(clippy::disallowed_methods, reason = "telemetry timing")]
    let replaying = Instant::now();
    let floor = snapshot_applied.unwrap_or(0);
    let mut replayed = 0usize;
    let frames = &held.log.frames;
    for (i, (idx, frame)) in frames.iter().enumerate() {
        let retired = matches!(frames.get(i + 1), Some((_, next)) if next.tag == RETIRED);
        if *idx < floor || retired || frame.tag == RETIRED {
            continue;
        }
        let (cmd, now) = decode_command(frame, logic)?;
        last_now = now;
        if cs.handle(cmd, now).is_err() {
            replay_errors += 1;
        }
        replayed += 1;
    }
    let replay_us = elapsed_us(replaying);
    let wal = RangeWal::new(store, cs.telemetry(), replayed as u64);
    let [read, restore, replay] = &wal.metrics.recover_phases_us;
    read.record(read_us);
    if let Some(us) = restore_us {
        restore.record(us);
    }
    replay.record(replay_us);
    wal.metrics.recover_us.record(elapsed_us(started));
    wal.metrics.torn_tail.add(held.log.torn_bytes);
    wal.metrics.segments.set(wal.store.segment_count() as i64);
    cs.put_wal(wal);
    Ok((
        cs,
        RecoveryReport {
            snapshot_applied,
            replayed,
            replay_errors,
            torn_bytes: held.log.torn_bytes,
            torn_detail: held.log.torn_detail,
            snapshots_skipped: held.snapshots_skipped,
            last_now,
        },
    ))
}

// ---------------------------------------------------------------------
// State digest (test oracle)
// ---------------------------------------------------------------------

/// Writes an event with the non-durable identity of derived events
/// scrubbed: a source that is not a registered profile is a
/// logic-instance GUID, whose mint order (and per-instance sequence
/// numbering) legitimately differs between an uninterrupted timeline
/// and a recovered one.
fn write_normalized_event(w: &mut XmlWriter<'_>, cs: &ContextServer, event: ContextEvent) {
    let mut ev = event;
    if cs.profiles().get(ev.source).is_none() {
        ev.source = Guid::NIL;
        ev.seq = EventSeq(0);
    }
    qcodec::write_event(w, &ev);
}

/// A deterministic serialisation of everything [`recover`] promises to
/// reconstruct — the equality oracle for the crash-recovery property
/// suite. Two servers with equal digests are indistinguishable to any
/// durable-state observer.
///
/// The document is written straight into the string it returns, one
/// history event decoded at a time, so building it holds little more
/// than the string.
///
/// Deliberately excluded: instance counts, telemetry, stale-drop and
/// rejected-plan tallies, registrar timestamps, and (per the module
/// docs) logic-instance GUIDs, which are normalised away.
pub fn durable_digest(cs: &ContextServer) -> String {
    document(|w| w.element("durable-digest", |w| write_digest(w, cs)))
}

fn write_digest(w: &mut XmlWriter<'_>, cs: &ContextServer) {
    write_settings(w, cs);
    let mut profiles: Vec<_> = cs.profiles().iter().collect();
    profiles.sort_by_key(|p| p.id());
    for p in profiles {
        qcodec::write_profile(w, p);
    }
    write_excluded(w, cs);
    write_liveness_rows(w, cs, "tracked");
    let mut providers: Vec<(&Guid, &Vec<_>)> = cs.advertisements_all().iter().collect();
    providers.sort_unstable_by_key(|(provider, _)| **provider);
    for ad in providers.into_iter().flat_map(|(_, ads)| ads) {
        qcodec::write_advertisement(w, ad);
    }
    let mut standing: Vec<(&Guid, &Query)> = cs.origin_queries().iter().collect();
    standing.sort_by_key(|(id, _)| **id);
    for (_, q) in standing {
        qcodec::write_query(w, q);
    }
    for (q, stored_at) in cs.deferred_entries() {
        write_deferred(w, &q, stored_at);
    }
    for d in cs.outbox_ref() {
        w.element("delivery", |w| {
            w.attr("app", d.app);
            w.attr("query", d.query);
            write_normalized_event(w, cs, d.event.clone());
        });
    }
    for (query, owner, answer) in cs.answers_ref() {
        w.element("deferred-answer", |w| {
            w.attr("query", query);
            w.attr("owner", owner);
            w.leaf("answer-xml", answer_to_xml(answer));
        });
    }
    w.element("history", |w| {
        for event in cs.history().events() {
            write_normalized_event(w, cs, event);
        }
    });
    for (entity, at) in cs.location().export_positions() {
        w.element("position", |w| {
            w.attr("entity", entity);
            w.attr("x", at.x);
            w.attr("y", at.y);
        });
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::records::tests::{arb_event, arb_mangle, hex, mangle};
    use proptest::prelude::*;
    use sci_types::{ContextValue, EntityKind, HashMap, PortSpec, Profile};

    fn ev(source: u128, t: u64) -> ContextEvent {
        ContextEvent::new(
            Guid::from_u128(source),
            ContextType::Temperature,
            ContextValue::record([
                ("subject", ContextValue::Id(Guid::from_u128(source))),
                ("c", ContextValue::Float(21.5)),
            ]),
            VirtualTime::from_secs(t),
        )
        .with_seq(EventSeq(7))
    }

    /// The frame tag is `kind_index()` on the way out and an integer
    /// match arm on the way back: every kind must survive the trip, or
    /// the two have drifted. The retired drain tags keep their names. The tag table itself is pinned: a record's
    /// tag is its kind's index in `KINDS`, so renaming or reordering an
    /// entry (even together with the enum and `kind_index`) breaks every
    /// log already on disk.
    #[test]
    fn command_codec_round_trips() {
        const ON_DISK_TAGS: [&str; 22] = [
            "register",
            "register-logic",
            "declare-equivalence",
            "heartbeat",
            "advertise",
            "deregister",
            "submit",
            "cancel",
            "ingest",
            "ingest-batch",
            "poll-timers",
            "expire-history",
            "drain-outbox",
            "drain-outbox-for",
            "drain-answers",
            "set-reuse",
            "set-auto-register-people",
            "set-plan-verification",
            "audit",
            "migrate-out",
            "migrate-in",
            "fail",
        ];
        assert_eq!(RangeCommand::KINDS, ON_DISK_TAGS);
        let now = VirtualTime::from_secs(3);
        let ce = Guid::from_u128(0xCE);
        let occupancy = || crate::logic::factory(crate::logic::OccupancyLogic::new);
        let logic = HashMap::from_iter([(ce, occupancy())]);
        let profile = Profile::builder(Guid::from_u128(1), EntityKind::Device, "thermo")
            .output(PortSpec::new("t", ContextType::Temperature))
            .build();
        let query = Query::builder(Guid::from_u128(10), Guid::from_u128(11))
            .info(ContextType::Temperature)
            .build();
        let cmds = [
            RangeCommand::Register(Box::new(profile)),
            RangeCommand::RegisterLogic(ce, occupancy()),
            RangeCommand::DeclareEquivalence(ContextType::Temperature, ContextType::custom("temp")),
            RangeCommand::Heartbeat(Guid::from_u128(2)),
            RangeCommand::Advertise(Box::new(sci_types::Advertisement::new(
                Guid::from_u128(1),
                "heat",
            ))),
            RangeCommand::Deregister(Guid::from_u128(3)),
            RangeCommand::Submit(Box::new(query)),
            RangeCommand::Cancel(Guid::from_u128(4)),
            RangeCommand::Ingest(ev(5, 1)),
            RangeCommand::IngestBatch(vec![ev(6, 2), ev(7, 3)]),
            RangeCommand::PollTimers,
            RangeCommand::ExpireHistory,
            RangeCommand::SetReuse(false),
            RangeCommand::SetAutoRegisterPeople(true),
            RangeCommand::SetPlanVerification(false),
            RangeCommand::Audit,
            RangeCommand::MigrateOut(Guid::from_u128(8)),
            RangeCommand::MigrateIn(Box::new(MigrationPacket::new(Guid::from_u128(9)))),
            RangeCommand::Fail(Guid::from_u128(13)),
        ];
        let mut visited = Vec::new();
        for cmd in cmds {
            let frame = encode_command(&cmd, now);
            assert_eq!(
                ON_DISK_TAGS[frame.tag as usize],
                cmd.kind(),
                "{cmd:?} moved"
            );
            let (back, back_now) = decode_command(&frame, &logic).unwrap();
            assert_eq!(back.kind_index(), cmd.kind_index());
            assert_eq!(back_now, now);
            visited.push(cmd.kind_index());
        }
        let every_kind: Vec<usize> = (0..RangeCommand::KINDS.len())
            .filter(|tag| !RETIRED_TAGS.contains(tag))
            .collect();
        assert_eq!(visited, every_kind, "a command kind is not round-tripped");
    }

    /// The tags of the three drains, which are no longer commands.
    const RETIRED_TAGS: [usize; 3] = [12, 13, 14];

    /// A retired tag is never reused: a frame carrying one is an
    /// unknown tag, whatever its payload.
    #[test]
    fn retired_drain_tags_decode_as_unknown() {
        for tag in RETIRED_TAGS {
            let mut payload = Vec::new();
            wire::put_u64(&mut payload, 0);
            wire::put_u128(&mut payload, 7);
            let refused = decode_command(&Frame::new(tag as u8, payload), &HashMap::default());
            let Err(SciError::Codec(why)) = refused else {
                panic!("tag {tag} decoded: {refused:?}");
            };
            assert!(why.contains("unknown command frame tag"), "{why}");
        }
    }

    #[test]
    fn register_logic_replay_needs_a_resolver() {
        let ce = Guid::from_u128(0xCE);
        let frame = encode_command(
            &RangeCommand::RegisterLogic(
                ce,
                crate::logic::factory(crate::logic::OccupancyLogic::new),
            ),
            VirtualTime::ZERO,
        );
        assert!(decode_command(&frame, &HashMap::default()).is_err());
        let mut logic = HashMap::default();
        logic.insert(ce, crate::logic::factory(crate::logic::OccupancyLogic::new));
        let (cmd, _) = decode_command(&frame, &logic).unwrap();
        assert_eq!(cmd.kind(), "register-logic");
    }

    /// What the log records: not the audit, but every kind that shapes
    /// a range's graph state *and* the kind that erases it — an
    /// unlogged builder is state a rebuild drops, an unlogged eraser is
    /// state it resurrects.
    #[test]
    fn only_the_audit_is_unlogged() {
        assert!(!is_durable(&RangeCommand::Audit));
        assert!(is_durable(&RangeCommand::PollTimers));
        assert!(is_durable(&RangeCommand::Ingest(ev(1, 1))));
        let g = Guid::from_u128(1);
        let logic = crate::logic::factory(crate::logic::OccupancyLogic::new);
        let query = Query::builder(g, g).info(ContextType::Temperature).build();
        let advert = sci_types::Advertisement::new(g, "heat");
        for (shaper, eraser) in [
            (
                RangeCommand::Register(Box::new(
                    Profile::builder(g, EntityKind::Device, "d").build(),
                )),
                RangeCommand::Deregister(g),
            ),
            (
                RangeCommand::RegisterLogic(g, logic),
                RangeCommand::Deregister(g),
            ),
            (
                RangeCommand::Advertise(Box::new(advert)),
                RangeCommand::Deregister(g),
            ),
            (
                RangeCommand::Submit(Box::new(query)),
                RangeCommand::Cancel(g),
            ),
            (
                RangeCommand::MigrateIn(Box::new(MigrationPacket::new(g))),
                RangeCommand::MigrateOut(g),
            ),
        ] {
            assert!(
                is_durable(&shaper),
                "{shaper:?} unlogged: a rebuild drops it"
            );
            assert!(
                is_durable(&eraser),
                "{eraser:?} unlogged: a rebuild resurrects {shaper:?}"
            );
        }
    }

    /// A small range with one of everything a snapshot carries, and the
    /// documents of its profiles, queries and reading.
    fn populated() -> (ContextServer, [String; 5]) {
        let (thermo, app, query) = (
            Guid::from_u128(1),
            Guid::from_u128(0xA),
            Guid::from_u128(0x10),
        );
        let mut cs = ContextServer::new(
            Guid::from_u128(0xC5),
            "r",
            sci_location::floorplan::capa_level10(),
        );
        let profile = Profile::builder(thermo, EntityKind::Device, "thermo")
            .output(PortSpec::new("t", ContextType::Temperature))
            .attribute("max-silence-us", ContextValue::Int(60_000_000))
            .build();
        cs.register(profile.clone(), VirtualTime::ZERO).unwrap();
        cs.declare_equivalence(ContextType::Temperature, ContextType::custom("temp"));
        let broken = Profile::builder(Guid::from_u128(2), EntityKind::Device, "broken").build();
        cs.register(broken.clone(), VirtualTime::ZERO).unwrap();
        crate::adaptation::repair_source(&mut cs, broken.id(), VirtualTime::ZERO);
        let standing = Query::builder(query, app)
            .info(ContextType::Temperature)
            .mode(sci_query::Mode::Subscribe)
            .build();
        cs.submit_query(&standing, VirtualTime::ZERO).unwrap();
        let parked = Query::builder(Guid::from_u128(0x11), app)
            .kind(EntityKind::Device)
            .after(sci_types::VirtualDuration::from_secs(30))
            .mode(sci_query::Mode::Profile)
            .build();
        cs.submit_query(&parked, VirtualTime::from_secs(1)).unwrap();
        // Carried to the lobby: a last known position, and history.
        let carried = ContextEvent::new(
            thermo,
            ContextType::Presence,
            ContextValue::record([
                ("subject", ContextValue::Id(thermo)),
                ("to", ContextValue::text("lobby")),
            ]),
            VirtualTime::from_secs(2),
        );
        cs.ingest(&carried, VirtualTime::from_secs(2)).unwrap();
        let reading = ev(1, 2);
        cs.ingest(&reading, VirtualTime::from_secs(2)).unwrap();
        let sections = [
            document(|w| qcodec::write_profile(w, &profile)),
            document(|w| qcodec::write_profile(w, &broken)),
            qcodec::to_xml(&standing),
            qcodec::to_xml(&parked),
            document(|w| qcodec::write_event(w, &reading)),
        ];
        (cs, sections)
    }

    fn snapshot_document(cs: &ContextServer, now: VirtualTime) -> String {
        document(|w| write_snapshot_document(w, cs, now))
    }

    /// Pins the snapshot: the `<range-snapshot>` vocabulary — element
    /// names, attribute names and section order — so it cannot drift
    /// unnoticed (the `<migration>` twin is in `migration.rs`), and the
    /// tables behind it byte for byte.
    #[test]
    fn snapshot_document_is_pinned() {
        let (cs, [profile, broken, standing, parked, reading]) = populated();
        let (app, query) = (Guid::from_u128(0xA), Guid::from_u128(0x10));
        let expected = format!(
            "<range-snapshot now-us=\"3000000\" reuse=\"true\" auto-register=\"true\" \
             verify-plans=\"true\" delivery-seq=\"0\" answer-seq=\"0\">\
             <equivalence><member name=\"temp\"/><member name=\"temperature\"/></equivalence>\
             {profile}{broken}{standing}\
             <deferred stored-at-us=\"1000000\">{parked}</deferred>\
             <delivery app=\"{app}\" query=\"{query}\">{reading}</delivery>\
             <excluded id=\"{}\"/>\
             <liveness><source id=\"{}\" last-seen-us=\"2000000\" \
             max-silence-us=\"60000000\"/></liveness></range-snapshot>",
            Guid::from_u128(2),
            Guid::from_u128(1)
        );
        let now = VirtualTime::from_secs(3);
        assert_eq!(snapshot_document(&cs, now), expected);

        let (payload, _) = encode_snapshot(&cs, now);
        let mut document = Vec::new();
        wire::put_str(&mut document, &expected);
        let tables = payload.strip_prefix(&document[..]).unwrap();
        let golden = concat!(
            "00000001",                           // position table: one row
            "00000000000000000000000000000001",   // entity
            "4010000000000000",                   // x = 4.0
            "3ff0000000000000",                   // y = 1.0, the lobby's centroid
            "00000002",                           // history table: two events
            "00000000000000000000000000000001",   // source
            "0000000870726573656e6365",           // topic "presence"
            "00000000001e8480",                   // timestamp, 2 s in us
            "0000000000000000",                   // seq
            "0a00000002",                         // record, two fields
            "000000077375626a656374",             // "subject"
            "0500000000000000000000000000000001", // id
            "00000002746f",                       // "to"
            "04000000056c6f626279",               // text "lobby"
            "00000000000000000000000000000001",   // source
            "0000000b74656d7065726174757265",     // topic "temperature"
            "00000000001e8480",                   // timestamp
            "0000000000000007",                   // seq
            "0a00000002",                         // record, two fields
            "000000077375626a656374",             // "subject"
            "0500000000000000000000000000000001", // id
            "0000000163",                         // "c"
            "034035800000000000",                 // float 21.5
        );
        assert_eq!(hex(tables), golden);

        // And it restores: same durable state, timer included.
        let mut back = ContextServer::new(cs.id(), "r", sci_location::floorplan::capa_level10());
        let restored = restore_snapshot(&mut back, &payload, &HashMap::default()).unwrap();
        assert_eq!(restored, (now, 0));
        assert_eq!(durable_digest(&back), durable_digest(&cs));
        assert_eq!(back.poll_timers(VirtualTime::from_secs(31)).unwrap(), 1);
    }

    /// The history table copies the records the store holds: byte for
    /// byte what encoding its decoded export writes, which is how the
    /// table was built before the store kept records — so the format
    /// is unchanged. Several subjects, and buckets past their depth.
    #[test]
    fn snapshot_equals_the_encoded_export() {
        let (mut cs, _) = populated();
        for t in 3..45 {
            for source in 1..5 {
                let now = VirtualTime::from_secs(t);
                cs.ingest(&ev(source, t).with_seq(EventSeq(t)), now)
                    .unwrap();
            }
        }
        let now = VirtualTime::from_secs(45);
        let history = cs.history().export();
        assert!(history.len() > 4 * 32, "some bucket filled up");
        let mut expected = Vec::new();
        wire::put_str(&mut expected, &snapshot_document(&cs, now));
        let positions = cs.location().export_positions();
        wire::put_u32(&mut expected, positions.len() as u32);
        for (entity, at) in positions {
            wire::put_u128(&mut expected, entity.as_u128());
            put_coord(&mut expected, at);
        }
        wire::put_u32(&mut expected, history.len() as u32);
        for event in &history {
            put_event(&mut expected, event);
        }
        let (payload, _) = encode_snapshot(&cs, now);
        assert_eq!(payload.capacity(), payload.len(), "sized once");
        assert_eq!(hex(&payload), hex(&expected));

        let mut back = ContextServer::new(cs.id(), "r", sci_location::floorplan::capa_level10());
        restore_snapshot(&mut back, &payload, &HashMap::default()).unwrap();
        assert_eq!(back.history().export(), history);
        assert_eq!(encode_snapshot(&back, now).0, payload);
    }

    /// [`populated`] with markup, multi-byte text and every value kind
    /// in names, attributes and payloads; parked queries of every
    /// section variant; a source that left (its history is normalised
    /// in the digest); a fired timer's deferred answer. Also the
    /// commands that carry a document, to encode.
    fn rich() -> (ContextServer, VirtualTime, Vec<RangeCommand>) {
        use sci_query::{CmpOp, Mode, Predicate, Subject, When, Where, Which};
        use sci_types::{Advertisement, Coord, Operation};
        let (mut cs, _) = populated();
        let app = Guid::from_u128(0xA);
        let t3 = VirtualTime::from_secs(3);
        let tricky = "a<b>&\"c\"'d \u{e9}\u{1F600} \t;";
        let every = ContextValue::record([
            ("subject", ContextValue::Id(Guid::from_u128(3))),
            ("empty", ContextValue::Empty),
            ("bool", ContextValue::Bool(false)),
            ("int", ContextValue::Int(-7)),
            ("float", ContextValue::Float(-0.1)),
            ("big", ContextValue::Float(1e300)),
            ("nan", ContextValue::Float(f64::NAN)),
            ("text", ContextValue::text(tricky)),
            ("blank", ContextValue::text("")),
            ("id", ContextValue::Id(Guid::from_u128(0xFEED))),
            ("coord", ContextValue::Coord(Coord::new(1.5, -2.25))),
            ("place", ContextValue::place("L10.01 & <lobby>")),
            ("time", ContextValue::Time(VirtualTime::from_micros(99))),
            (
                tricky,
                ContextValue::List(vec![ContextValue::Int(1), ContextValue::List(vec![])]),
            ),
        ]);
        let doors = Profile::builder(Guid::from_u128(3), EntityKind::Device, tricky)
            .input(PortSpec::new("in<", ContextType::custom("x&y")))
            .output(PortSpec::new("t", ContextType::Temperature))
            .attribute("every", every.clone())
            .attribute("max-silence-us", ContextValue::Int(90_000_000))
            .build();
        let ad = Advertisement::new(Guid::from_u128(3), "iface\"<")
            .with_operation(Operation::new(
                "op&",
                [ContextType::Identity, ContextType::custom("d'oc")],
                Some(ContextType::custom("ret")),
            ))
            .with_operation(Operation::new("bare", [], None))
            .with_attribute("every", every.clone());
        let queries = [
            Query::builder(Guid::from_u128(0x20), app)
                .info_matching(
                    ContextType::custom("blob"),
                    vec![Predicate::eq("payload", every.clone())],
                )
                .where_(Where::Within {
                    center: Subject::Owner,
                    radius_m: 12.5,
                })
                .which(Which::Filtered {
                    predicates: vec![
                        Predicate::exists("paper"),
                        Predicate::new("queue", CmpOp::Le, ContextValue::Int(0)),
                    ],
                    then: Box::new(Which::MaxAttr("q\"".into())),
                })
                .at(VirtualTime::from_secs(1000))
                .mode(Mode::Subscribe)
                .build(),
            Query::builder(Guid::from_u128(0x21), app)
                .named(Guid::from_u128(3))
                .in_range("level<ten>")
                .min_attr("queue")
                .after(VirtualDuration::from_secs(5000))
                .mode(Mode::Profile)
                .build(),
            Query::builder(Guid::from_u128(0x22), app)
                .kind(EntityKind::Person)
                .where_(Where::ClosestTo(Subject::Entity(Guid::from_u128(9))))
                .all()
                .when(When::OnLeave {
                    entity: Subject::Entity(Guid::from_u128(9)),
                    place: "lobby".into(),
                })
                .mode(Mode::Advertisement)
                .build(),
            Query::builder(Guid::from_u128(0x23), app)
                .kind(EntityKind::Device)
                .in_place("L10.01")
                .which(Which::Any)
                .at(VirtualTime::from_secs(2000))
                .mode(Mode::Profile)
                .build(),
        ];
        let mut cmds = vec![
            RangeCommand::Register(Box::new(doors.clone())),
            RangeCommand::Advertise(Box::new(ad.clone())),
        ];
        cs.register(doors, t3).unwrap();
        cs.advertise(ad).unwrap();
        for q in &queries {
            let _ = cs.submit_query(q, t3);
            cmds.push(RangeCommand::Submit(Box::new(q.clone())));
        }
        for t in 4..7 {
            let now = VirtualTime::from_secs(t);
            let reading = ContextEvent::new(
                Guid::from_u128(3),
                ContextType::Temperature,
                every.clone(),
                now,
            )
            .with_seq(EventSeq(t));
            cs.ingest(&reading, now).unwrap();
            cs.ingest(&ev(1, t), now).unwrap();
        }
        cs.deregister(Guid::from_u128(1), VirtualTime::from_secs(7))
            .unwrap();
        let now = VirtualTime::from_secs(31);
        assert_eq!(cs.poll_timers(now).unwrap(), 1);
        cmds.push(RangeCommand::MigrateIn(Box::new(cs.held(None))));
        (cs, now, cmds)
    }

    /// The documents are written, not built, and the bytes did not
    /// move: each is pinned by its length and CRC-32 as the tree-built
    /// serialisers wrote it for the same state — the digest, the whole
    /// snapshot payload, the migration packet, every command that
    /// carries a document, and a telemetry export.
    #[test]
    fn written_documents_keep_the_tree_built_bytes() {
        let (small, _) = populated();
        let (cs, now, cmds) = rich();
        assert!(!cs.answers_ref().is_empty() && !cs.outbox_ref().is_empty());
        // A registry takes catalogued names only, so the XML-hostile
        // names are written into the snapshot itself.
        let reg = Registry::new();
        let h = reg.histogram(catalogue::BUS_FANOUT);
        for v in [1, 5, 5, 900, 1 << 40] {
            h.record(v);
        }
        let mut hostile = reg.snapshot();
        hostile.histograms[0].name = "h\"".into();
        hostile.counters.push(("a<b".into(), 3));
        hostile.gauges.push(("g&".into(), -2));
        let mut written = vec![
            ("digest", durable_digest(&small).into_bytes()),
            ("digest", durable_digest(&cs).into_bytes()),
            ("snapshot", encode_snapshot(&cs, now).0),
            ("packet", cs.held(None).to_xml().into_bytes()),
        ];
        for cmd in &cmds {
            written.push((cmd.kind(), encode_command(cmd, now).payload));
        }
        let telemetry = crate::telemetry::snapshot_to_xml(&hostile);
        written.push(("telemetry", telemetry.into_bytes()));
        let pins: Vec<(&str, usize, u32)> = written
            .iter()
            .map(|(what, bytes)| (*what, bytes.len(), sci_wal::codec::crc32(bytes)))
            .collect();
        let golden = [
            ("digest", 2219, 0x5b91_1fc3),
            ("digest", 16425, 0x9d1b_3a17),
            ("snapshot", 11307, 0x04e3_4923),
            ("packet", 9562, 0x3a68_61c8),
            ("register", 1643, 0xb515_23f8),
            ("advertise", 1611, 0x015d_88a1),
            ("submit", 1812, 0x8392_de1c),
            ("submit", 342, 0x2f6d_5c3e),
            ("submit", 396, 0xbbcf_c985),
            ("submit", 284, 0xed2c_b1f6),
            ("migrate-in", 9574, 0xc7d0_6ede),
            ("telemetry", 257, 0xe223_f7ea),
        ];
        assert_eq!(pins, golden);
    }

    fn restore(payload: &[u8]) -> SciResult<(VirtualTime, usize)> {
        let mut cs = ContextServer::new(
            Guid::from_u128(0xC5),
            "r",
            sci_location::floorplan::capa_level10(),
        );
        restore_snapshot(&mut cs, payload, &HashMap::default())
    }

    #[test]
    fn bytes_after_the_last_table_are_a_codec_error() {
        let (cs, _) = populated();
        let (mut payload, _) = encode_snapshot(&cs, VirtualTime::from_secs(3));
        assert!(restore(&payload).is_ok());
        payload.push(0);
        let refused = restore(&payload);
        assert!(matches!(refused, Err(SciError::Codec(_))), "{refused:?}");
    }

    /// No log outlives the build that wrote it, so there is no reader
    /// for the all-XML snapshot of earlier builds — but meeting one is
    /// an error, not a panic.
    #[test]
    fn an_xml_snapshot_of_an_earlier_build_is_a_codec_error() {
        let (cs, [.., reading]) = populated();
        let yesterday = parse(&snapshot_document(&cs, VirtualTime::from_secs(3)))
            .unwrap()
            .with_child(Element::new("history").with_child(parse(&reading).unwrap()))
            .to_xml();
        let dir = std::env::temp_dir().join(format!("sci-xml-snapshot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        sci_wal::write_snapshot(&dir, 0, yesterday.as_bytes()).unwrap();
        let refused = recover(
            cs.id(),
            "r",
            sci_location::floorplan::capa_level10(),
            Registry::new(),
            &DurabilityConfig::new(&dir),
            &HashMap::default(),
        );
        assert!(matches!(refused, Err(SciError::Codec(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regressions, reproduced before the decoders were made total: a
    /// 49-byte `ingest` record whose payload is a `List` of
    /// `0xFFFF_FFFF` items aborted the process on a 137 GB allocation,
    /// as did an `ingest-batch` claiming as many events; a record of
    /// nothing but nested `List` tags overflowed the stack.
    #[test]
    fn hostile_ingest_records_are_codec_errors() {
        let header = |tag: usize| {
            let mut p = Vec::new();
            wire::put_u64(&mut p, 1); // now
            if tag == 8 {
                wire::put_u128(&mut p, 5); // source
                wire::put_str(&mut p, ""); // topic
                wire::put_u64(&mut p, 1); // timestamp
                wire::put_u64(&mut p, 0); // seq
            }
            p
        };
        let mut huge_list = header(8);
        wire::put_u8(&mut huge_list, 9);
        wire::put_u32(&mut huge_list, u32::MAX);
        assert_eq!(huge_list.len(), 49);
        let mut huge_batch = header(9);
        wire::put_u32(&mut huge_batch, u32::MAX);
        let mut nested = header(8);
        for _ in 0..2_000_000 {
            wire::put_u8(&mut nested, 9);
            wire::put_u32(&mut nested, 1);
        }
        for (tag, payload) in [(8, huge_list), (9, huge_batch), (8, nested)] {
            let refused = decode_command(&Frame::new(tag, payload), &HashMap::default());
            assert!(matches!(refused, Err(SciError::Codec(_))), "tag {tag}");
        }
    }

    /// Whether `table` reads as a history table record by record with
    /// `get_event`: the reference a restore must agree with.
    fn reads_as_events(table: &[u8]) -> bool {
        let mut r = wire::Reader::new(table);
        get_rows(&mut r, MIN_EVENT_LEN, get_event).is_ok() && r.remaining() == 0
    }

    /// Restore totality over the history table of a small range's
    /// snapshot: cut at every byte up to the end of its third record,
    /// or with its count inflated to `u32::MAX`, the restore is a codec
    /// error; with any one bit of a record flipped, it restores exactly
    /// when every record still reads with `get_event`, and is a codec
    /// error otherwise. Nothing panics.
    #[test]
    fn a_mangled_history_table_is_restored_or_refused_as_get_event_reads_it() {
        let (mut cs, _) = populated();
        for t in 3..6 {
            cs.ingest(&ev(3, t), VirtualTime::from_secs(t)).unwrap();
        }
        let (payload, _) = encode_snapshot(&cs, VirtualTime::from_secs(6));
        let at = payload.len() - 4 - cs.history().record_bytes();
        let mut r = wire::Reader::new(&payload[at + 4..]);
        let ends: Vec<usize> = (0..3)
            .map(|_| {
                get_event(&mut r).unwrap();
                payload.len() - r.remaining()
            })
            .collect();
        let is_codec = |outcome: &SciResult<_>| matches!(outcome, Err(SciError::Codec(_)));
        for cut in at..ends[2] {
            assert!(is_codec(&restore(&payload[..cut])), "cut at {cut}");
        }
        let mut inflated = payload.clone();
        inflated[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(is_codec(&restore(&inflated)));
        let (mut restored, mut refused) = (0, 0);
        for bit in ends[0] * 8..ends[1] * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let outcome = restore(&flipped);
            if reads_as_events(&flipped[at..]) {
                assert!(outcome.is_ok(), "bit {bit}: {outcome:?}");
                restored += 1;
            } else {
                assert!(is_codec(&outcome), "bit {bit}: {outcome:?}");
                refused += 1;
            }
        }
        assert!(
            restored > 0 && refused > 0,
            "{restored} restored, {refused} refused"
        );
    }

    proptest! {
        /// Totality of the two decoders that read a range's own disk:
        /// arbitrary bytes under every command tag, a valid `ingest`
        /// record gone wrong, and a snapshot whose tables have — none
        /// may panic, hang or over-allocate.
        #[test]
        fn codec_log_decoders_survive_arbitrary_bytes(
            tag in 0u8..24,
            noise in prop::collection::vec(any::<u8>(), 0..256),
            event in arb_event(),
            how in arb_mangle(),
        ) {
            let logic = HashMap::default();
            let _ = decode_command(&Frame::new(tag, noise.clone()), &logic);
            let _ = restore(&noise);

            let ingest = encode_command(&RangeCommand::Ingest(event.clone()), VirtualTime::ZERO);
            for tag in [8, 9] {
                let spoiled = mangle(ingest.payload.clone(), how.clone());
                let _ = decode_command(&Frame::new(tag, spoiled), &logic);
            }

            let mut document = Vec::new();
            wire::put_str(&mut document, "<range-snapshot now-us=\"0\" reuse=\"true\" \
                auto-register=\"true\" verify-plans=\"true\" delivery-seq=\"0\" answer-seq=\"0\"/>");
            let mut tables = Vec::new();
            wire::put_u32(&mut tables, 1);
            wire::put_u128(&mut tables, 9);
            put_coord(&mut tables, sci_types::Coord::new(1.0, 2.0));
            wire::put_u32(&mut tables, 1);
            put_event(&mut tables, &event);
            let intact = [&document[..], &tables[..]].concat();
            prop_assert!(restore(&intact).is_ok());
            let _ = restore(&[document, mangle(tables, how)].concat());
        }
    }
}
