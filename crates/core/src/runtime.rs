//! The Range actor runtime: command-driven Context Servers, one
//! single-writer worker thread per range.
//!
//! The paper's distribution model is "centralised per range,
//! decentralised across ranges" (Section 3). This module realises both
//! halves:
//!
//! * **Centralised per range** — every mutating [`ContextServer`] entry
//!   point is a [`RangeCommand`]; [`ContextServer::handle`] is the one
//!   dispatcher that executes them, so a range behaves like an actor: a
//!   serial command stream against private state, whether the commands
//!   arrive by direct method call (the deterministic sim drivers) or
//!   over a mailbox.
//! * **Decentralised across ranges** — [`RangeRuntime`] moves a server
//!   onto its own worker thread behind a command mailbox
//!   ([`sci_event::rt::mailbox`]), and [`ParallelFederation`] drives one
//!   runtime per range so N busy ranges occupy N cores instead of
//!   stalling each other in a single loop.
//!
//! Worker failure is isolated: a panic inside one range's command
//! handler kills only that worker. The coordinator observes the dead
//! mailbox and reports [`SciError::RangeDown`] for that range while
//! every other range keeps serving — the liveness shape Solar's
//! per-planet operator placement and the Context Toolkit's distributed
//! widgets both argue for.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::Bytes;

use sci_event::rt::{bounded_mailbox, mailbox, Receiver, Sender, TrySendError};
use sci_overlay::message::{Message, MessageKind};
use sci_overlay::net::SimNetwork;
use sci_overlay::stats::LoadStats;
use sci_overlay::transport::Transport;
use sci_query::codec as qcodec;
use sci_query::xml::{parse, Element};
use sci_query::{Mode, Query, What};
use sci_types::guid::GuidGenerator;
use sci_types::{
    Advertisement, BlueprintKindModel, ContextEvent, ContextType, FederationModel, FreshnessBound,
    Guid, Profile, RangeModel, RetryModel, RouteClaim, SciError, SciResult, VirtualDuration,
    VirtualTime,
};

use sci_telemetry::{Registry, TelemetrySnapshot, Tracer};

use crate::context_server::{AppDelivery, ContextServer, DeferredAnswer, QueryAnswer, RangeReply};
use crate::federation::{
    answer_element, answer_from_element, answer_to_xml, envelope_of as relay_envelope,
    relay_message_classes, FederatedAnswer, RELAY_RETRIES, RETRY_BACKOFF_BASE_US,
};
use crate::logic::LogicFactory;
use crate::migration::MigrationPacket;
use crate::seen::{SeenEnvelopes, SEQ_NS_SHIFT};
use crate::telemetry::{elapsed_us, fold_load_stats, FedMetrics, RuntimeMetrics};
use sci_location::floorplan::FloorPlan;

/// One mutating operation on a range.
///
/// Every public `&mut self` entry point of [`ContextServer`] has a
/// command variant; [`ContextServer::handle`] is the single dispatcher
/// that executes them. Read-only accessors (`profiles()`, `history()`,
/// …) stay plain methods — an actor answers queries about itself
/// through commands only when state changes.
pub enum RangeCommand {
    /// Register an entity with its profile.
    Register(Box<Profile>),
    /// Register the behaviour of a derived CE class.
    RegisterLogic(Guid, LogicFactory),
    /// Declare two context types semantically equivalent.
    DeclareEquivalence(ContextType, ContextType),
    /// Record a liveness heartbeat for a tracked source CE.
    Heartbeat(Guid),
    /// Store a service advertisement.
    Advertise(Box<Advertisement>),
    /// Deregister a departing entity.
    Deregister(Guid),
    /// Submit a query (any of the four Section 4.3 modes).
    Submit(Box<Query>),
    /// Cancel a live configuration or pending deferred query.
    Cancel(Guid),
    /// Ingest a sensor event.
    Ingest(ContextEvent),
    /// Ingest a batch of sensor events with one mailbox send: the
    /// amortised form of [`RangeCommand::Ingest`] for streaming
    /// drivers. Events are applied in order; the first failure is
    /// remembered and returned after the rest have been attempted, so
    /// a batch behaves like the same events pipelined individually.
    IngestBatch(Vec<ContextEvent>),
    /// Fire deferred queries whose timers are due.
    PollTimers,
    /// Evict history entries past their retention window.
    ExpireHistory,
    /// Drain pending application deliveries.
    DrainOutbox,
    /// Drain pending deliveries for one application.
    DrainOutboxFor(Guid),
    /// Drain answers produced by deferred queries.
    DrainAnswers,
    /// Enable or disable configuration subgraph reuse.
    SetReuse(bool),
    /// Enable or disable the Range Service's person auto-registration.
    SetAutoRegisterPeople(bool),
    /// Enable or disable the pre-instantiation plan verification gate.
    SetPlanVerification(bool),
    /// Run the fleet drift audit.
    Audit,
    /// Package a departing entity's full range state for migration:
    /// profile, advertisements, standing queries, queued deliveries and
    /// deferred answers leave the range in one [`MigrationPacket`].
    MigrateOut(Guid),
    /// Replay a migrated entity's packaged state at its new home range.
    MigrateIn(Box<MigrationPacket>),
}

impl RangeCommand {
    /// Every command kind name, indexed by
    /// [`RangeCommand::kind_index`]. The telemetry layer pre-registers
    /// one counter and one latency histogram per entry
    /// (`range.cmd.<kind>.count` / `range.cmd.<kind>.latency_us`).
    pub const KINDS: [&'static str; 21] = [
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
    ];

    /// Dense index of this variant within [`RangeCommand::KINDS`].
    pub fn kind_index(&self) -> usize {
        match self {
            RangeCommand::Register(_) => 0,
            RangeCommand::RegisterLogic(..) => 1,
            RangeCommand::DeclareEquivalence(..) => 2,
            RangeCommand::Heartbeat(_) => 3,
            RangeCommand::Advertise(_) => 4,
            RangeCommand::Deregister(_) => 5,
            RangeCommand::Submit(_) => 6,
            RangeCommand::Cancel(_) => 7,
            RangeCommand::Ingest(_) => 8,
            RangeCommand::IngestBatch(_) => 9,
            RangeCommand::PollTimers => 10,
            RangeCommand::ExpireHistory => 11,
            RangeCommand::DrainOutbox => 12,
            RangeCommand::DrainOutboxFor(_) => 13,
            RangeCommand::DrainAnswers => 14,
            RangeCommand::SetReuse(_) => 15,
            RangeCommand::SetAutoRegisterPeople(_) => 16,
            RangeCommand::SetPlanVerification(_) => 17,
            RangeCommand::Audit => 18,
            RangeCommand::MigrateOut(_) => 19,
            RangeCommand::MigrateIn(_) => 20,
        }
    }

    /// A short name for the variant (logging, protocol errors, metric
    /// names).
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }
}

impl std::fmt::Debug for RangeCommand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RangeCommand").field(&self.kind()).finish()
    }
}

impl ContextServer {
    /// The range's command dispatcher: executes one [`RangeCommand`]
    /// against this server at logical time `now`.
    ///
    /// This is the single mutation point of a range. The public
    /// methods (`register`, `submit_query`, `ingest`, …) are thin
    /// wrappers that build the command and unwrap the reply; actor
    /// drivers ship the same commands over a mailbox.
    ///
    /// # Errors
    ///
    /// Whatever the underlying operation returns.
    pub fn handle(&mut self, cmd: RangeCommand, now: VirtualTime) -> SciResult<RangeReply> {
        let idx = cmd.kind_index();
        let tracer = self.metrics().tracer().clone();
        let _span = tracer.span(cmd.kind());
        let started = Instant::now(); // sci-lint: allow(wall-clock): telemetry timing

        // Durability: append-before-apply. The WAL is moved out for the
        // duration of the dispatch so replay (which runs through this
        // same method on a server whose WAL is detached) cannot re-log.
        let mut wal = self.take_wal();
        if let Some(w) = wal.as_mut() {
            if crate::durability::is_durable(&cmd) {
                if let Err(e) = w.append(&cmd, now) {
                    self.put_wal(wal);
                    self.metrics().record_command(idx, elapsed_us(started));
                    return Err(e);
                }
            }
        }
        let reply = self.handle_inner(cmd, now);
        if let Some(w) = wal.as_mut() {
            // Snapshot *after* applying: the document captures the
            // command's effects (outbox included), and its applied
            // index covers the command's own record. A failed write
            // leaves the due-counter alone, so the next command
            // retries.
            if w.snapshot_due() {
                let doc = crate::durability::snapshot_element(self, now).to_xml();
                let _ = w.write_snapshot(&doc);
            }
        }
        self.put_wal(wal);
        self.metrics().record_command(idx, elapsed_us(started));
        reply
    }

    fn handle_inner(&mut self, cmd: RangeCommand, now: VirtualTime) -> SciResult<RangeReply> {
        match cmd {
            RangeCommand::Register(profile) => {
                self.register_impl(*profile, now).map(|()| RangeReply::Ack)
            }
            RangeCommand::RegisterLogic(ce, factory) => {
                self.register_logic_impl(ce, factory);
                Ok(RangeReply::Ack)
            }
            RangeCommand::DeclareEquivalence(a, b) => {
                self.declare_equivalence_impl(a, b);
                Ok(RangeReply::Ack)
            }
            RangeCommand::Heartbeat(ce) => self.heartbeat_impl(ce, now).map(|()| RangeReply::Ack),
            RangeCommand::Advertise(ad) => self.advertise_impl(*ad).map(|()| RangeReply::Ack),
            RangeCommand::Deregister(id) => {
                self.deregister_impl(id, now).map(RangeReply::Deregistered)
            }
            RangeCommand::Submit(query) => {
                self.submit_query_impl(&query, now).map(RangeReply::Answer)
            }
            RangeCommand::Cancel(query_id) => {
                self.cancel_query_impl(query_id).map(|()| RangeReply::Ack)
            }
            RangeCommand::Ingest(event) => self.ingest_impl(&event, now).map(|()| RangeReply::Ack),
            RangeCommand::IngestBatch(events) => {
                let mut first_error = None;
                let mut applied = 0usize;
                for event in &events {
                    match self.ingest_impl(event, now) {
                        Ok(()) => applied += 1,
                        Err(e) => {
                            first_error.get_or_insert(e);
                        }
                    }
                }
                match first_error {
                    Some(e) => Err(e),
                    None => Ok(RangeReply::Ingested(applied)),
                }
            }
            RangeCommand::PollTimers => self.poll_timers_impl(now).map(RangeReply::Fired),
            RangeCommand::ExpireHistory => Ok(RangeReply::Expired(self.expire_history_impl(now))),
            RangeCommand::DrainOutbox => Ok(RangeReply::Deliveries(self.drain_outbox_impl())),
            RangeCommand::DrainOutboxFor(app) => {
                Ok(RangeReply::Deliveries(self.drain_outbox_for_impl(app)))
            }
            RangeCommand::DrainAnswers => Ok(RangeReply::Answers(self.drain_answers_impl())),
            RangeCommand::SetReuse(reuse) => {
                self.set_reuse_impl(reuse);
                Ok(RangeReply::Ack)
            }
            RangeCommand::SetAutoRegisterPeople(enabled) => {
                self.set_auto_register_people_impl(enabled);
                Ok(RangeReply::Ack)
            }
            RangeCommand::SetPlanVerification(enabled) => {
                self.set_plan_verification_impl(enabled);
                Ok(RangeReply::Ack)
            }
            RangeCommand::Audit => Ok(RangeReply::Report(self.audit_configurations())),
            RangeCommand::MigrateOut(id) => self
                .migrate_out_impl(id, now)
                .map(|packet| RangeReply::Migrated(packet.to_xml())),
            RangeCommand::MigrateIn(packet) => {
                self.migrate_in_impl(*packet, now).map(|()| RangeReply::Ack)
            }
        }
    }
}

enum ToWorker {
    Cmd { cmd: RangeCommand, now: VirtualTime },
    Stop,
}

/// Backpressure discipline of a range's command mailbox.
///
/// The default is unbounded — sends never block and depth is only
/// observable through the `range.mailbox.depth` gauge. Bounded
/// policies cap how far a producer may run ahead of the worker; the
/// deepest mailbox ever observed is tracked in
/// `range.mailbox.highwater` under every policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MailboxPolicy {
    /// Unbounded mailbox: sends never block (the historical
    /// behaviour).
    #[default]
    Unbounded,
    /// Bounded mailbox of the given capacity: a full mailbox *blocks*
    /// the producer until the worker frees a slot. Deadlock-free: the
    /// single consumer always drains, and a dead worker disconnects
    /// the channel, waking blocked producers with
    /// [`SciError::RangeDown`].
    Block(usize),
    /// Bounded mailbox of the given capacity: a full mailbox *sheds*
    /// pipelined casts — the command is dropped and accounted in
    /// `range.mailbox.shed` instead of blocking. Request/response
    /// [`RangeRuntime::call`]s still block: a reply must never be
    /// silently dropped.
    Shed(usize),
}

impl MailboxPolicy {
    fn make_mailbox(self) -> (Sender<ToWorker>, Receiver<ToWorker>) {
        match self {
            MailboxPolicy::Unbounded => mailbox(),
            MailboxPolicy::Block(cap) | MailboxPolicy::Shed(cap) => bounded_mailbox(cap),
        }
    }
}

/// Envelope-sequence namespace bit for deferred-answer relays. Worker
/// servers mint delivery and answer sequences from *separate* durable
/// counters; the receiver-side exactly-once filter keys on a single
/// `(origin, seq)` set, so each class gets a disjoint high-bit
/// namespace to keep a delivery from shadowing an answer with the
/// same count.
const ANSWER_SEQ_NS: u64 = 1 << SEQ_NS_SHIFT;

/// Envelope-sequence namespace bit for migration relays, which remain
/// coordinator-minted (a migration is a coordinator-driven range-pair
/// operation, not worker stream traffic).
const MIGRATE_SEQ_NS: u64 = 2 << SEQ_NS_SHIFT;

/// One unit of cross-range traffic drained from a range worker *as it
/// executes*: the continuously-streamed replacement for the old
/// per-sync `DrainOutbox`/`DrainAnswers` round-trips. Each item carries
/// the envelope sequence its server minted for it — durable state, so
/// a WAL-recovered range re-streams its unrelayed traffic under the
/// *same* `(origin, seq)` envelopes and the receiver-side filter
/// squashes redelivery to exactly-once.
enum StreamItem {
    Delivery(u64, AppDelivery),
    Answer(u64, DeferredAnswer),
}

/// A drained item paired with its worker-minted envelope sequence.
type Sequenced<T> = Vec<(u64, T)>;

/// Moves everything the last command produced out of the server and
/// into the range's relay stream, minting each item's envelope
/// sequence from the server's durable stream counters. Runs on the
/// worker thread, *before* the command's reply is sent, so a
/// coordinator that has observed a barrier reply is guaranteed to find
/// the barrier's traffic in the stream. Minting worker-side (rather
/// than at the coordinator) is what makes post-crash redelivery
/// idempotent: replaying the same commands against the same restored
/// counters reproduces the same sequences.
fn drain_into_stream(cs: &mut ContextServer, stream: &Sender<StreamItem>) {
    for d in cs.drain_outbox_impl() {
        let seq = cs.next_stream_delivery_seq();
        let _ = stream.send(StreamItem::Delivery(seq, d));
    }
    for a in cs.drain_answers_impl() {
        let seq = cs.next_stream_answer_seq();
        let _ = stream.send(StreamItem::Answer(seq, a));
    }
}

/// Supervision policy for a [`RangeRuntime`]: how many times a panicked
/// worker may be restarted.
///
/// The default is **no restarts** — a panic retires the range and the
/// coordinator reports [`SciError::RangeDown`], preserving the original
/// fail-stop semantics. With a bounded budget the runtime rebuilds the
/// Context Server on a fresh worker thread (same GUID, name, floor plan
/// and telemetry registry) and replays the range's *blueprint*: the
/// replayable composition commands (registrations, logic factories,
/// equivalences, advertisements, live subscriptions and settings
/// toggles) recorded since spawn. In-flight events and command history
/// are lost — supervision restores the composition graph, not the
/// event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Restarts allowed over the runtime's lifetime; `0` disables
    /// supervision.
    pub max_restarts: u32,
}

impl RestartPolicy {
    /// Fail-stop: never restart (the default).
    pub const NONE: RestartPolicy = RestartPolicy { max_restarts: 0 };

    /// Restart up to `max_restarts` times.
    pub fn bounded(max_restarts: u32) -> Self {
        RestartPolicy { max_restarts }
    }
}

/// A replayable composition command, recorded for restart supervision.
/// Everything here can be cloned back into a [`RangeCommand`] any
/// number of times (`LogicFactory` is an `Arc`).
enum BlueprintCmd {
    Register(Box<Profile>),
    RegisterLogic(Guid, LogicFactory),
    DeclareEquivalence(ContextType, ContextType),
    Advertise(Box<Advertisement>),
    Subscribe(Box<Query>),
    SetReuse(bool),
    SetAutoRegisterPeople(bool),
    SetPlanVerification(bool),
    MigrateIn(Box<MigrationPacket>),
}

impl BlueprintCmd {
    fn to_command(&self) -> RangeCommand {
        match self {
            BlueprintCmd::Register(p) => RangeCommand::Register(p.clone()),
            BlueprintCmd::RegisterLogic(ce, f) => RangeCommand::RegisterLogic(*ce, f.clone()),
            BlueprintCmd::DeclareEquivalence(a, b) => {
                RangeCommand::DeclareEquivalence(a.clone(), b.clone())
            }
            BlueprintCmd::Advertise(ad) => RangeCommand::Advertise(ad.clone()),
            BlueprintCmd::Subscribe(q) => RangeCommand::Submit(q.clone()),
            BlueprintCmd::SetReuse(v) => RangeCommand::SetReuse(*v),
            BlueprintCmd::SetAutoRegisterPeople(v) => RangeCommand::SetAutoRegisterPeople(*v),
            BlueprintCmd::SetPlanVerification(v) => RangeCommand::SetPlanVerification(*v),
            BlueprintCmd::MigrateIn(p) => RangeCommand::MigrateIn(p.clone()),
        }
    }
}

/// The restart blueprint's view of every [`RangeCommand`] kind, for
/// static verification (SCI-A204): which kinds the recorder replays,
/// which of those accumulate per-entity graph state, and which kind
/// erases each. Must stay in lockstep with [`RangeRuntime`]'s
/// `record`; `crates/core/tests/prop_blueprint.rs` holds the two
/// together behaviourally.
pub fn blueprint_model() -> Vec<BlueprintKindModel> {
    RangeCommand::KINDS
        .iter()
        .map(|&kind| {
            let (recorded, shaping, eraser) = match kind {
                // Per-entity graph state: replayed on restart, erased
                // when the entity departs or the subscription dies.
                "register" | "register-logic" | "advertise" => (true, true, Some("deregister")),
                "submit" => (true, true, Some("cancel")),
                // A migrated-in entity is per-entity graph state too:
                // erased when the entity departs again, by deregister
                // or the next hop's migrate-out.
                "migrate-in" => (true, true, Some("migrate-out")),
                // Monotonic or last-write-wins configuration: replayed
                // verbatim, nothing to erase.
                "declare-equivalence"
                | "set-reuse"
                | "set-auto-register-people"
                | "set-plan-verification" => (true, false, None),
                _ => (false, false, None),
            };
            BlueprintKindModel {
                kind: kind.to_owned(),
                recorded,
                shaping,
                eraser: eraser.map(str::to_owned),
            }
        })
        .collect()
}

/// One worker thread's life: drain the mailbox, execute commands,
/// return the server on graceful stop, `None` if a command panicked.
fn worker_loop(
    mut cs: ContextServer,
    rx: Receiver<ToWorker>,
    tx: Sender<SciResult<RangeReply>>,
    metrics: RuntimeMetrics,
    stream: Option<Sender<StreamItem>>,
) -> Option<ContextServer> {
    // A WAL-recovered server starts with its unrelayed outbox already
    // restored; flush it into the stream before serving commands so
    // redelivery does not wait for the next mutation. No-op for fresh
    // servers (empty outbox).
    if let Some(stream) = &stream {
        drain_into_stream(&mut cs, stream);
    }
    loop {
        match rx.recv() {
            Ok(ToWorker::Cmd { cmd, now }) => {
                metrics.mailbox_depth.dec();
                // Panic isolation: a poisoned command must not take the
                // whole federation down. The server's state after a
                // panic is suspect, so the worker retires instead of
                // limping on; dropping `tx` is what the coordinator
                // observes as RangeDown.
                match catch_unwind(AssertUnwindSafe(|| cs.handle(cmd, now))) {
                    Ok(reply) => {
                        // Streaming mode: relay-bound traffic leaves the
                        // range the moment the command that produced it
                        // retires — even a failed command may have
                        // delivered to some applications first.
                        if let Some(stream) = &stream {
                            drain_into_stream(&mut cs, stream);
                        }
                        if tx.send(reply).is_err() {
                            // Coordinator went away; stop serving.
                            return Some(cs);
                        }
                    }
                    Err(_) => {
                        metrics.panics.inc();
                        return None;
                    }
                }
            }
            Ok(ToWorker::Stop) | Err(_) => return Some(cs),
        }
    }
}

/// A [`ContextServer`] running as an actor on its own thread.
///
/// Commands go in through a mailbox; replies come back on a response
/// channel in command order. Two submission disciplines are offered:
///
/// * [`RangeRuntime::call`] — request/response: send one command, block
///   for its reply (any earlier pipelined errors are retained, see
///   [`RangeRuntime::take_errors`]);
/// * [`RangeRuntime::cast`] — pipelined: send and return immediately.
///   Because the mailbox is FIFO and the worker is a single writer, a
///   later `call` acts as a barrier for everything cast before it.
pub struct RangeRuntime {
    id: Guid,
    name: String,
    tx: Sender<ToWorker>,
    rx: Receiver<SciResult<RangeReply>>,
    /// Replies not yet collected (casts since the last call).
    pending: usize,
    /// Errors from pipelined commands, in arrival order.
    errors: Vec<SciError>,
    worker: Option<JoinHandle<Option<ContextServer>>>,
    down: bool,
    /// The server's registry, cloned before the server moved onto its
    /// worker thread — snapshots need no round-trip command, and the
    /// registry outlives a panicked worker.
    registry: Registry,
    metrics: RuntimeMetrics,
    /// The range's floor plan, kept so a supervised restart can rebuild
    /// the Context Server.
    plan: FloorPlan,
    policy: RestartPolicy,
    /// Mailbox discipline, kept so a supervised restart rebuilds the
    /// same backpressure shape.
    mailbox_policy: MailboxPolicy,
    /// The relay stream, when streaming is enabled: the coordinator
    /// holds both ends so the channel survives worker restarts; each
    /// worker gets a sender clone.
    stream: Option<(Sender<StreamItem>, Receiver<StreamItem>)>,
    /// Stream items pulled off the channel but not yet handed to the
    /// coordinator — buffered so a restart can inspect sequences
    /// without losing the traffic they ride on.
    parked_stream: Vec<StreamItem>,
    /// One past the highest delivery-stream sequence observed from any
    /// incarnation of the worker: the floor a rebuilt (non-durable)
    /// server's counter is fast-forwarded to, so replacement traffic
    /// never re-mints an envelope the federation may already have seen
    /// for *different* traffic.
    stream_delivery_floor: u64,
    /// The answer-stream twin of `stream_delivery_floor`.
    stream_answer_floor: u64,
    restarts_used: u32,
    /// Replayable composition commands recorded since spawn (only when
    /// supervision is enabled), each tagged with the serial that ties
    /// it to its in-flight reply.
    blueprint: Vec<(u64, BlueprintCmd)>,
    /// Serial source for blueprint entries.
    bp_serial: u64,
    /// One slot per pipelined command awaiting its reply, FIFO:
    /// `Some(serial)` when the command was provisionally recorded in
    /// the blueprint, so an error reply can un-record it (a refused
    /// Register/Subscribe must not resurrect on restart replay).
    inflight: VecDeque<Option<u64>>,
    /// The latest logical time seen, used as the replay clock.
    last_now: VirtualTime,
}

impl std::fmt::Debug for RangeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RangeRuntime")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("pending", &self.pending)
            .field("down", &self.down)
            .finish()
    }
}

impl RangeRuntime {
    /// Moves `cs` onto a dedicated worker thread and returns the handle
    /// that drives it. Fail-stop: a panic retires the range for good
    /// (see [`RangeRuntime::spawn_supervised`]).
    pub fn spawn(cs: ContextServer) -> Self {
        RangeRuntime::spawn_supervised(cs, RestartPolicy::NONE)
    }

    /// Moves `cs` onto a dedicated worker thread under a supervision
    /// `policy`: after a worker panic, up to
    /// [`RestartPolicy::max_restarts`] restarts rebuild the server
    /// (same registry, so counters stay continuous) and replay its
    /// composition blueprint. The command that observed the crash still
    /// fails with [`SciError::RangeDown`]; subsequent commands reach
    /// the restarted worker. Each restart increments `range.restarts`;
    /// blueprint commands that fail on replay increment
    /// `range.restart.replay_errors`.
    pub fn spawn_supervised(cs: ContextServer, policy: RestartPolicy) -> Self {
        RangeRuntime::spawn_with(cs, policy, MailboxPolicy::Unbounded, false)
    }

    /// The fully-parameterised spawn: `mailbox` picks the backpressure
    /// discipline and `streaming` wires a relay stream the worker
    /// drains its outbox into after every command (the continuous
    /// alternative to `DrainOutbox`/`DrainAnswers` barrier calls,
    /// consumed by `RangeRuntime::drain_stream`). With streaming
    /// enabled,
    /// explicit drain commands observe an already-empty outbox.
    pub fn spawn_with(
        cs: ContextServer,
        policy: RestartPolicy,
        mailbox_policy: MailboxPolicy,
        streaming: bool,
    ) -> Self {
        let id = cs.id();
        let name = cs.name().to_owned();
        let registry = cs.telemetry().clone();
        let plan = cs.location().plan().clone();
        let metrics = RuntimeMetrics::register(&registry);
        let worker_metrics = metrics.clone();
        let (cmd_tx, cmd_rx) = mailbox_policy.make_mailbox();
        let (reply_tx, reply_rx) = mailbox::<SciResult<RangeReply>>();
        // The coordinator owns both stream ends: the channel survives
        // worker restarts, and every (re)spawned worker just gets a
        // fresh sender clone.
        let stream = streaming.then(mailbox::<StreamItem>);
        let stream_tx = stream.as_ref().map(|(tx, _)| tx.clone());
        let worker = std::thread::Builder::new()
            .name(format!("range-{name}"))
            .spawn(move || worker_loop(cs, cmd_rx, reply_tx, worker_metrics, stream_tx))
            .ok();
        RangeRuntime {
            id,
            name,
            tx: cmd_tx,
            rx: reply_rx,
            pending: 0,
            errors: Vec::new(),
            worker,
            down: false,
            registry,
            metrics,
            plan,
            policy,
            mailbox_policy,
            stream,
            parked_stream: Vec::new(),
            stream_delivery_floor: 0,
            stream_answer_floor: 0,
            restarts_used: 0,
            blueprint: Vec::new(),
            bp_serial: 0,
            inflight: VecDeque::new(),
            last_now: VirtualTime::ZERO,
        }
    }

    /// Restarts performed so far under the supervision policy.
    pub fn restarts(&self) -> u32 {
        self.restarts_used
    }

    /// The kebab-case kinds currently held in the restart blueprint,
    /// in record order (test and analysis surface: lets contract
    /// tests pin what the recorder handles without replaying).
    pub fn blueprint_kinds(&self) -> Vec<&'static str> {
        self.blueprint
            .iter()
            .map(|(_, b)| b.to_command().kind())
            .collect()
    }

    /// Clones the restart blueprint as replayable commands — exactly
    /// what a supervised restart would feed the rebuilt server.
    pub fn blueprint_commands(&self) -> Vec<RangeCommand> {
        // Canonical replay order: providers, logic, services and
        // toggles before subscriptions (each class in record order).
        // A subscription recorded before a provider it now depends on
        // would otherwise fail on the first replay and silently
        // succeed on a repeat — replay must be idempotent.
        let mut entries: Vec<&(u64, BlueprintCmd)> = self.blueprint.iter().collect();
        entries.sort_by_key(|(serial, b)| (matches!(b, BlueprintCmd::Subscribe(_)), *serial));
        entries.iter().map(|(_, b)| b.to_command()).collect()
    }

    /// Records `cmd` in the restart blueprint if it shapes the range's
    /// composition graph. Deregistrations and cancellations erase their
    /// counterparts so the blueprint tracks the *live* graph, not the
    /// command history. Returns the serial of the provisional entry,
    /// if one was pushed — [`RangeRuntime::settle_reply`] un-records
    /// it should the command come back refused.
    fn record(&mut self, cmd: &RangeCommand) -> Option<u64> {
        if self.policy.max_restarts == 0 {
            return None;
        }
        let entry = match cmd {
            RangeCommand::Register(p) => Some(BlueprintCmd::Register(p.clone())),
            RangeCommand::RegisterLogic(ce, f) => Some(BlueprintCmd::RegisterLogic(*ce, f.clone())),
            RangeCommand::DeclareEquivalence(a, b) => {
                Some(BlueprintCmd::DeclareEquivalence(a.clone(), b.clone()))
            }
            RangeCommand::Advertise(ad) => Some(BlueprintCmd::Advertise(ad.clone())),
            RangeCommand::Submit(q) if q.mode == Mode::Subscribe => {
                Some(BlueprintCmd::Subscribe(q.clone()))
            }
            RangeCommand::Deregister(id) => {
                self.blueprint.retain(|(_, b)| match b {
                    BlueprintCmd::Register(p) => p.id() != *id,
                    BlueprintCmd::RegisterLogic(ce, _) => ce != id,
                    BlueprintCmd::Advertise(ad) => ad.provider() != *id,
                    BlueprintCmd::MigrateIn(packet) => packet.entity != *id,
                    _ => true,
                });
                None
            }
            RangeCommand::MigrateOut(id) => {
                // Migration is departure: erase everything the entity
                // contributed to this range's composition graph —
                // including a prior migrate-in and the subscriptions it
                // owns, which travel in the packet and will be recorded
                // again at the target. A restarted source range must
                // not resurrect an entity that has already moved on.
                self.blueprint.retain(|(_, b)| match b {
                    BlueprintCmd::Register(p) => p.id() != *id,
                    BlueprintCmd::RegisterLogic(ce, _) => ce != id,
                    BlueprintCmd::Advertise(ad) => ad.provider() != *id,
                    BlueprintCmd::Subscribe(q) => q.owner != *id,
                    BlueprintCmd::MigrateIn(packet) => packet.entity != *id,
                    _ => true,
                });
                None
            }
            RangeCommand::MigrateIn(packet) => {
                // Shape only: deliveries and deferred answers already
                // sitting in the packet are applied once by the live
                // command; a restart replay must re-establish the
                // entity's composition without double-delivering them.
                Some(BlueprintCmd::MigrateIn(Box::new(packet.shape_only())))
            }
            RangeCommand::Cancel(query_id) => {
                self.blueprint.retain(|(_, b)| match b {
                    BlueprintCmd::Subscribe(q) => q.id != *query_id,
                    _ => true,
                });
                None
            }
            RangeCommand::SetReuse(v) => Some(BlueprintCmd::SetReuse(*v)),
            RangeCommand::SetAutoRegisterPeople(v) => Some(BlueprintCmd::SetAutoRegisterPeople(*v)),
            RangeCommand::SetPlanVerification(v) => Some(BlueprintCmd::SetPlanVerification(*v)),
            _ => None,
        };
        let entry = entry?;
        let serial = self.bp_serial;
        self.bp_serial += 1;
        self.blueprint.push((serial, entry));
        Some(serial)
    }

    /// Settles the oldest in-flight reply slot: a refused command's
    /// provisional blueprint entry is removed, so restart replay only
    /// rebuilds state the live server actually accepted.
    fn settle_reply(&mut self, errored: bool) {
        if let Some(Some(serial)) = self.inflight.pop_front() {
            if errored {
                self.blueprint.retain(|(s, _)| *s != serial);
            }
        }
    }

    /// Attempts a supervised restart after a worker death. Rebuilds the
    /// server on a fresh worker and replays the blueprint at the last
    /// seen logical time. Returns `false` when the restart budget is
    /// exhausted (or the replacement itself died).
    fn try_restart(&mut self) -> bool {
        if self.restarts_used >= self.policy.max_restarts {
            return false;
        }
        self.restarts_used += 1;
        // The dead worker's server state is gone; join to reap the
        // thread.
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
        // Same GUID, name, plan and registry: the rebuilt server keeps
        // incrementing the counters its predecessor registered.
        let mut cs = ContextServer::with_registry(
            self.id,
            self.name.clone(),
            self.plan.clone(),
            self.registry.clone(),
        );
        // The dead worker minted stream sequences the rebuilt server
        // knows nothing about. Pull whatever it streamed (preserving
        // the traffic) and fast-forward the replacement's counters past
        // every sequence observed, so its fresh traffic can never be
        // mistaken for a redelivery and deduplicated away.
        self.pull_stream_items();
        cs.bump_stream_seqs(self.stream_delivery_floor, self.stream_answer_floor);
        let (cmd_tx, cmd_rx) = self.mailbox_policy.make_mailbox();
        let (reply_tx, reply_rx) = mailbox::<SciResult<RangeReply>>();
        let worker_metrics = self.metrics.clone();
        // The replacement worker feeds the same stream channel, so
        // traffic already drained by the dead worker stays collectable.
        let stream_tx = self.stream.as_ref().map(|(tx, _)| tx.clone());
        self.worker = std::thread::Builder::new()
            .name(format!("range-{}", self.name))
            .spawn(move || worker_loop(cs, cmd_rx, reply_tx, worker_metrics, stream_tx))
            .ok();
        self.tx = cmd_tx;
        self.rx = reply_rx;
        // Commands queued for the dead worker are lost with it; their
        // provisional blueprint entries stay — the replay below is
        // what executes them on the rebuilt server.
        self.pending = 0;
        self.inflight.clear();
        self.metrics.mailbox_depth.set(0);
        self.down = false;
        self.registry.counter("range.restarts").inc();

        // Replay the composition graph.
        let now = self.last_now;
        let replay: Vec<RangeCommand> = self.blueprint_commands();
        for cmd in replay {
            if self.tx.send(ToWorker::Cmd { cmd, now }).is_err() {
                self.down = true;
                return false;
            }
            self.metrics.mailbox_depth.inc();
            self.metrics.note_depth();
            self.pending += 1;
        }
        while self.pending > 0 {
            match self.rx.recv() {
                Ok(reply) => {
                    self.pending -= 1;
                    if reply.is_err() {
                        self.registry.counter("range.restart.replay_errors").inc();
                    }
                }
                Err(_) => {
                    self.down = true;
                    return false;
                }
            }
        }
        true
    }

    /// The underlying server's telemetry registry (shared with the
    /// worker thread; counters are atomics, so reading here is safe
    /// while the worker runs).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The range's GUID.
    pub fn id(&self) -> Guid {
        self.id
    }

    /// The range's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Has the worker died (panic or lost mailbox)?
    pub fn is_down(&self) -> bool {
        self.down
    }

    fn down_error(&mut self) -> SciError {
        self.down = true;
        let name = self.name.clone();
        // Supervised runtimes come back up for the *next* command; the
        // one that observed the crash still fails.
        if self.policy.max_restarts > 0 {
            self.try_restart();
        }
        SciError::RangeDown(name)
    }

    /// Pipelined submission: enqueue `cmd` and return without waiting.
    /// The reply (and any error) is collected by the next [`call`] or
    /// [`drain_pending`].
    ///
    /// [`call`]: RangeRuntime::call
    /// [`drain_pending`]: RangeRuntime::drain_pending
    ///
    /// # Errors
    ///
    /// [`SciError::RangeDown`] if the worker is gone.
    pub fn cast(&mut self, cmd: RangeCommand, now: VirtualTime) -> SciResult<()> {
        self.enqueue(cmd, now, true)
    }

    /// The shared enqueue path behind [`cast`] and [`call`].
    ///
    /// Under [`MailboxPolicy::Shed`] a full mailbox drops the command
    /// (accounted in `range.mailbox.shed`) — but only when `allow_shed`
    /// is set. A [`call`] must never shed: its reply wait would block
    /// forever on a command that was never enqueued. Under
    /// [`MailboxPolicy::Block`] a full mailbox blocks the sender until
    /// the worker frees a slot; the worker always drains, so this is
    /// backpressure, not deadlock.
    ///
    /// [`cast`]: RangeRuntime::cast
    /// [`call`]: RangeRuntime::call
    fn enqueue(&mut self, cmd: RangeCommand, now: VirtualTime, allow_shed: bool) -> SciResult<()> {
        if self.down {
            return Err(SciError::RangeDown(self.name.clone()));
        }
        if now > self.last_now {
            self.last_now = now;
        }
        let ticket = self.record(&cmd);
        let shed = matches!(self.mailbox_policy, MailboxPolicy::Shed(_)) && allow_shed;
        let send_result = if shed {
            match self.tx.try_send(ToWorker::Cmd { cmd, now }) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(rejected)) => {
                    // Accounted drop: the command never ran, so its
                    // provisional blueprint entry must go too. A shed
                    // batch sheds every event it carried — weighting
                    // the counter by batch length keeps the
                    // delivered + shed == sent ledger balanced.
                    match rejected {
                        ToWorker::Cmd {
                            cmd: RangeCommand::IngestBatch(events),
                            ..
                        } => self.metrics.mailbox_shed.add(events.len() as u64),
                        _ => self.metrics.mailbox_shed.inc(),
                    }
                    if let Some(serial) = ticket {
                        self.blueprint.retain(|(s, _)| *s != serial);
                    }
                    return Ok(());
                }
                Err(TrySendError::Disconnected(_)) => Err(()),
            }
        } else {
            self.tx.send(ToWorker::Cmd { cmd, now }).map_err(|_| ())
        };
        if send_result.is_err() {
            // The command never reached a worker; drop its entry.
            if let Some(serial) = ticket {
                self.blueprint.retain(|(s, _)| *s != serial);
            }
            return Err(self.down_error());
        }
        self.inflight.push_back(ticket);
        self.metrics.mailbox_depth.inc();
        self.metrics.note_depth();
        self.pending += 1;
        Ok(())
    }

    /// Collects the replies of every pipelined command submitted so
    /// far, retaining their errors (see [`RangeRuntime::take_errors`]).
    ///
    /// # Errors
    ///
    /// [`SciError::RangeDown`] if the worker died mid-stream.
    pub fn drain_pending(&mut self) -> SciResult<()> {
        while self.pending > 0 {
            match self.rx.recv() {
                Ok(reply) => {
                    self.pending -= 1;
                    self.settle_reply(reply.is_err());
                    if let Err(e) = reply {
                        self.errors.push(e);
                    }
                }
                Err(_) => return Err(self.down_error()),
            }
        }
        Ok(())
    }

    /// Request/response submission: enqueue `cmd`, wait for its reply.
    /// Acts as a barrier for every earlier [`RangeRuntime::cast`].
    ///
    /// # Errors
    ///
    /// * [`SciError::RangeDown`] if the worker is gone (now or while
    ///   waiting);
    /// * whatever the command itself returned.
    pub fn call(&mut self, cmd: RangeCommand, now: VirtualTime) -> SciResult<RangeReply> {
        self.enqueue(cmd, now, false)?;
        let started = Instant::now(); // sci-lint: allow(wall-clock): telemetry timing
                                      // FIFO: everything before the reply we want is a pipelined
                                      // predecessor.
        while self.pending > 1 {
            match self.rx.recv() {
                Ok(reply) => {
                    self.pending -= 1;
                    self.settle_reply(reply.is_err());
                    if let Err(e) = reply {
                        self.errors.push(e);
                    }
                }
                Err(_) => return Err(self.down_error()),
            }
        }
        match self.rx.recv() {
            Ok(reply) => {
                self.pending -= 1;
                self.settle_reply(reply.is_err());
                self.metrics.call_wait.record(elapsed_us(started));
                reply
            }
            Err(_) => Err(self.down_error()),
        }
    }

    /// Removes and returns errors produced by pipelined commands.
    pub fn take_errors(&mut self) -> Vec<SciError> {
        std::mem::take(&mut self.errors)
    }

    /// Pulls everything the worker has streamed so far into the parked
    /// buffer, tracking one-past-the-highest sequence seen per class
    /// (the floor a rebuilt server is fast-forwarded to).
    fn pull_stream_items(&mut self) {
        if let Some((_, rx)) = &self.stream {
            for item in rx.try_iter() {
                match &item {
                    StreamItem::Delivery(seq, _) => {
                        self.stream_delivery_floor = self.stream_delivery_floor.max(seq + 1);
                    }
                    StreamItem::Answer(seq, _) => {
                        self.stream_answer_floor = self.stream_answer_floor.max(seq + 1);
                    }
                }
                self.parked_stream.push(item);
            }
        }
    }

    /// Collects everything the worker has streamed so far, without
    /// blocking and without a command round-trip. Items are partitioned
    /// by class — all application deliveries, then all deferred
    /// answers, each in production order with its worker-minted
    /// envelope sequence — which reproduces the exact send order of
    /// the historical `DrainOutbox`-then-`DrainAnswers` barrier, so
    /// seeded fault-injection schedules replay unchanged. Always empty
    /// when the runtime was spawned without streaming.
    fn drain_stream(&mut self) -> (Sequenced<AppDelivery>, Sequenced<DeferredAnswer>) {
        self.pull_stream_items();
        let mut deliveries = Vec::new();
        let mut answers = Vec::new();
        for item in self.parked_stream.drain(..) {
            match item {
                StreamItem::Delivery(seq, d) => deliveries.push((seq, d)),
                StreamItem::Answer(seq, a) => answers.push((seq, a)),
            }
        }
        (deliveries, answers)
    }

    /// Stops the worker and returns the server it owned; `None` if the
    /// worker panicked (its state is gone with it).
    pub fn shutdown(mut self) -> Option<ContextServer> {
        let _ = self.tx.send(ToWorker::Stop);
        self.worker
            .take()
            .and_then(|h| h.join().unwrap_or_default())
    }

    /// Stops the worker *without* retrieving its server — the
    /// crash-simulation counterpart of [`RangeRuntime::shutdown`]. The
    /// mailbox is severed and the thread reaped, so any in-flight WAL
    /// append has finished by the time this returns; the in-memory
    /// server state is then discarded, leaving only what reached disk —
    /// exactly the view a recovery sees after a process kill.
    fn kill(mut self) {
        let (dead_tx, dead_rx) = mailbox::<ToWorker>();
        drop(dead_rx);
        // Replacing the sender drops the worker's only mailbox handle;
        // its recv disconnects once the queue drains.
        self.tx = dead_tx;
        if let Some(handle) = self.worker.take() {
            // The returned server (if the worker didn't panic) is
            // dropped right here, unexamined.
            let _ = handle.join();
        }
    }
}

/// A federation whose ranges each run on their own [`RangeRuntime`]
/// worker thread.
///
/// The coordinator keeps what must be globally consistent — the SCINET
/// routing fabric, the place directory, application home ranges and
/// their inboxes — and everything per-range lives behind a mailbox.
/// Sensor ingest is pipelined ([`RangeRuntime::cast`]):
/// [`ParallelFederation::ingest_at`] (or, one send for N events,
/// [`ParallelFederation::ingest_batch_at`]) returns as soon as the
/// event is enqueued, so N ranges chew their streams concurrently.
/// Cross-range traffic **streams**: each worker drains its outbox into
/// a per-range relay stream as commands execute, and the coordinator
/// moves it over the fabric either continuously
/// ([`ParallelFederation::pump_streams`], free-running mode) or at the
/// [`ParallelFederation::sync`] barrier (deterministic mode) — there is
/// no per-sync `DrainOutbox`/`DrainAnswers` round-trip any more.
/// Backpressure is a [`MailboxPolicy`]: unbounded, blocking, or
/// shedding with accounted drops.
///
/// Determinism: each range still processes its own command stream in
/// submission order against a virtual clock, so per-range outcomes are
/// reproducible; only the interleaving *between* ranges is concurrent,
/// and [`sync`] imposes the same happens-before edges the serial pump
/// does (workers stream *before* replying, so a completed barrier has
/// seen all its traffic). The serial/parallel delivery-equivalence
/// test in `tests/parallel_federation.rs` holds the two drivers to
/// that; free-running pumps preserve the delivery *multiset* but not
/// which sync relays each item.
///
/// [`sync`]: ParallelFederation::sync
pub struct ParallelFederation<T: Transport = SimNetwork> {
    fabric: T,
    workers: HashMap<Guid, RangeRuntime>,
    app_home: HashMap<Guid, Guid>,
    inbox: HashMap<Guid, Vec<AppDelivery>>,
    answers: HashMap<Guid, Vec<(Guid, QueryAnswer)>>,
    places: HashMap<String, Guid>,
    /// Freshness bounds (`qoc-max-age-us`) per query, recorded at
    /// submission so relay staleness can be judged without asking the
    /// producing range.
    relay_max_age: HashMap<Guid, VirtualDuration>,
    relay_stale_drops: u64,
    /// Supervision policy applied to every worker spawned by
    /// [`ParallelFederation::add_range`].
    restart_policy: RestartPolicy,
    /// Mailbox backpressure discipline applied to every worker spawned
    /// by [`ParallelFederation::add_range`].
    mailbox_policy: MailboxPolicy,
    /// Per-origin monotonic sequence numbers for *coordinator-minted*
    /// envelopes (migrations, in the [`MIGRATE_SEQ_NS`] namespace).
    /// Delivery and answer relays mint their sequences worker-side
    /// from the server's durable stream counters instead — see
    /// [`StreamItem`].
    relay_seq: HashMap<Guid, u64>,
    /// Envelopes already absorbed (`(origin, seq)`): the receiver-side
    /// half of exactly-once relay.
    seen_relays: SeenEnvelopes,
    /// Relays that exhausted their in-call retries, retried each sync.
    pending_relays: Vec<Message>,
    /// Wall-clock start of each in-flight migration, keyed by its
    /// relay envelope: cleared (and timed into
    /// `range.migrate.inflight_us`) when the packet is first absorbed
    /// at its target.
    migrate_started: HashMap<(Guid, u64), Instant>,
    ids: GuidGenerator,
    metrics: FedMetrics,
}

impl<T: Transport> std::fmt::Debug for ParallelFederation<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelFederation")
            .field("ranges", &self.workers.len())
            .finish()
    }
}

impl ParallelFederation {
    /// Creates an empty parallel federation over the deterministic
    /// simulated overlay; `seed` drives message-id minting.
    pub fn new(seed: u64) -> Self {
        ParallelFederation::with_transport(SimNetwork::new(), seed)
    }
}

impl<T: Transport> ParallelFederation<T> {
    /// Creates an empty parallel federation over an arbitrary
    /// transport; `seed` drives message-id minting.
    pub fn with_transport(fabric: T, seed: u64) -> Self {
        ParallelFederation {
            fabric,
            workers: HashMap::new(),
            app_home: HashMap::new(),
            inbox: HashMap::new(),
            answers: HashMap::new(),
            places: HashMap::new(),
            relay_max_age: HashMap::new(),
            relay_stale_drops: 0,
            restart_policy: RestartPolicy::NONE,
            mailbox_policy: MailboxPolicy::Unbounded,
            relay_seq: HashMap::new(),
            seen_relays: SeenEnvelopes::default(),
            pending_relays: Vec::new(),
            migrate_started: HashMap::new(),
            ids: GuidGenerator::seeded(seed),
            metrics: FedMetrics::new(),
        }
    }

    /// Sets the supervision policy applied to ranges added *after*
    /// this call (builder style: chain before [`add_range`]).
    ///
    /// [`add_range`]: ParallelFederation::add_range
    #[must_use]
    pub fn with_restart_policy(mut self, policy: RestartPolicy) -> Self {
        self.restart_policy = policy;
        self
    }

    /// Sets the mailbox backpressure discipline applied to ranges added
    /// *after* this call (builder style: chain before [`add_range`]).
    /// [`MailboxPolicy::Block`] makes a full mailbox block the
    /// coordinator's cast until the worker catches up;
    /// [`MailboxPolicy::Shed`] drops casts on a full mailbox, accounted
    /// in `range.mailbox.shed`. Either way `range.mailbox.highwater`
    /// records the deepest backlog seen.
    ///
    /// [`add_range`]: ParallelFederation::add_range
    #[must_use]
    pub fn with_mailbox_policy(mut self, policy: MailboxPolicy) -> Self {
        self.mailbox_policy = policy;
        self
    }

    /// Installs a tracer on the coordinator's relay path (unknown-app
    /// homing decisions emit spans through it). Defaults to a no-op.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.metrics.tracer = tracer;
    }

    /// Adds a range: its rooms join the place directory, its Context
    /// Server moves onto a fresh worker thread under the federation's
    /// restart policy.
    ///
    /// # Errors
    ///
    /// Rejects duplicate node GUIDs or range names.
    pub fn add_range(&mut self, cs: ContextServer) -> SciResult<Guid> {
        let id = cs.id();
        self.fabric.add_node(id, cs.name())?;
        // Mirror Federation::add_range: replicate coverage through the
        // transport's anti-entropy store (no-op in-process).
        self.fabric
            .publish_registration(id, &format!("range/{}", cs.name()), &id.to_string())?;
        for room in cs.location().plan().rooms() {
            self.places.entry(room.name.clone()).or_insert(id);
            self.fabric.publish_registration(
                id,
                &format!("place/{}", room.name),
                &id.to_string(),
            )?;
        }
        self.workers.insert(
            id,
            RangeRuntime::spawn_with(cs, self.restart_policy, self.mailbox_policy, true),
        );
        Ok(id)
    }

    /// Exports the pure protocol model of this federation — the
    /// parallel counterpart of
    /// [`Federation::protocol_model`](crate::federation::Federation::protocol_model):
    /// same retry constants and message
    /// classes, plus the supervision budget, with freshness bounds
    /// taken from the relay-side `qoc-max-age-us` registry (the
    /// servers themselves live on worker threads).
    pub fn protocol_model(&self) -> FederationModel {
        let mut ranges: Vec<RangeModel> = self
            .workers
            .iter()
            .map(|(&id, w)| RangeModel {
                id,
                name: w.name().to_owned(),
            })
            .collect();
        ranges.sort_by_key(|r| r.id);

        let mut links = Vec::new();
        for a in &ranges {
            for b in &ranges {
                if a.id != b.id {
                    links.push((a.id, b.id));
                }
            }
        }

        let mut freshness: Vec<FreshnessBound> = self
            .relay_max_age
            .iter()
            .map(|(&query, &age)| FreshnessBound {
                query,
                max_age_us: age.as_micros(),
            })
            .collect();
        freshness.sort_by_key(|f| f.query);

        let mut routes = Vec::new();
        for r in &ranges {
            for (place, &coverer) in &self.places {
                routes.push(RouteClaim {
                    at: r.id,
                    place: place.clone(),
                    coverer,
                });
            }
        }
        routes.sort_by(|a, b| (a.at, &a.place).cmp(&(b.at, &b.place)));

        FederationModel {
            ranges,
            links,
            faults: self.fabric.fault_model(),
            transport_links: self.fabric.link_model(),
            retry: RetryModel {
                retries: RELAY_RETRIES,
                backoff_base_us: RETRY_BACKOFF_BASE_US,
            },
            restart_budget: (self.restart_policy.max_restarts > 0)
                .then_some(self.restart_policy.max_restarts),
            freshness,
            routes,
            messages: relay_message_classes(),
            blueprint: blueprint_model(),
        }
    }

    /// Restarts performed by the named range's supervised runtime.
    pub fn restarts_of(&self, range: &str) -> Option<u32> {
        let id = self.fabric.find_by_name(range)?;
        self.workers.get(&id).map(RangeRuntime::restarts)
    }

    /// Gives every node full overlay knowledge.
    pub fn connect_full(&mut self) {
        self.fabric.connect_full();
    }

    /// Read access to the transport fabric.
    pub fn fabric(&self) -> &T {
        &self.fabric
    }

    /// Mutable access to the transport fabric, for fault injection
    /// through a [`sci_overlay::fault::FaultyTransport`] wrapper.
    pub fn fabric_mut(&mut self) -> &mut T {
        &mut self.fabric
    }

    /// Number of ranges (including downed ones).
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Returns `true` when no ranges have been added.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Cumulative overlay routing statistics.
    pub fn network_stats(&self) -> &LoadStats {
        self.fabric.stats()
    }

    /// Relayed deliveries dropped for violating their query's
    /// freshness bound.
    pub fn relay_stale_drops(&self) -> u64 {
        self.relay_stale_drops
    }

    /// Duplicate relay envelopes discarded by the receiver-side
    /// exactly-once filter.
    pub fn relay_dedup_hits(&self) -> u64 {
        self.metrics.relay_dedup_hits.get()
    }

    /// Deliveries and answers whose application had no recorded home
    /// range (counted, traced, and kept at the producing range instead
    /// of being silently homed).
    pub fn relay_unknown_app(&self) -> u64 {
        self.metrics.relay_unknown_app.get()
    }

    /// Relay retransmissions attempted (first attempts not counted).
    pub fn retry_attempts(&self) -> u64 {
        self.metrics.retry_attempts.get()
    }

    /// Relays that exhausted their in-call retries and were parked.
    pub fn retry_parked(&self) -> u64 {
        self.metrics.retry_parked.get()
    }

    /// Degraded (partial) query answers returned by
    /// [`ParallelFederation::submit_from`].
    pub fn partial_answers(&self) -> u64 {
        self.metrics.partial_answers.get()
    }

    /// Relays currently parked awaiting connectivity.
    pub fn pending_relay_count(&self) -> usize {
        self.pending_relays.len()
    }

    /// Freezes a federation-wide telemetry view: every range's registry
    /// (bus, command, resolver and runtime instruments — readable while
    /// the workers run, since all counters are atomics), the
    /// coordinator's phase/relay instruments, and the overlay's routing
    /// stats folded in under the `net.*` names.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.metrics.registry.snapshot();
        for worker in self.workers.values() {
            snap.merge(&worker.registry().snapshot());
        }
        snap.merge(&fold_load_stats(self.fabric.stats()));
        if let Some(faults) = self.fabric.telemetry() {
            snap.merge(&faults.snapshot());
        }
        snap
    }

    fn worker_by_name(&mut self, range: &str) -> SciResult<&mut RangeRuntime> {
        let id = self
            .fabric
            .find_by_name(range)
            .ok_or_else(|| SciError::UnknownLocation(range.to_owned()))?;
        self.workers
            .get_mut(&id)
            .ok_or_else(|| SciError::Internal(format!("node {id} has no runtime")))
    }

    /// Sends an arbitrary command to the named range and waits for the
    /// reply — the generic actor entry point.
    ///
    /// # Errors
    ///
    /// * [`SciError::UnknownLocation`] for unknown ranges;
    /// * [`SciError::RangeDown`] if that range's worker died;
    /// * whatever the command returns.
    pub fn command(
        &mut self,
        range: &str,
        cmd: RangeCommand,
        now: VirtualTime,
    ) -> SciResult<RangeReply> {
        self.worker_by_name(range)?.call(cmd, now)
    }

    /// Feeds a sensor event into the named range — pipelined: the event
    /// is enqueued on the range's mailbox and this returns immediately.
    /// Ingest failures surface at the next [`ParallelFederation::sync`].
    ///
    /// # Errors
    ///
    /// * [`SciError::UnknownLocation`] for unknown ranges;
    /// * [`SciError::RangeDown`] if that range's worker died.
    pub fn ingest_at(
        &mut self,
        range: &str,
        event: &ContextEvent,
        now: VirtualTime,
    ) -> SciResult<()> {
        let started = Instant::now(); // sci-lint: allow(wall-clock): telemetry timing
        let result = self
            .worker_by_name(range)?
            .cast(RangeCommand::Ingest(event.clone()), now);
        self.metrics.cast_us.record(elapsed_us(started));
        result
    }

    /// Feeds a batch of sensor events into the named range with **one**
    /// mailbox send ([`RangeCommand::IngestBatch`]), amortising the
    /// per-command channel round-trip that dominates per-event
    /// [`ingest_at`](ParallelFederation::ingest_at) cost. Pipelined the
    /// same way: ingest failures surface at the next
    /// [`ParallelFederation::sync`] (first failure wins; later events in
    /// the batch are still attempted).
    ///
    /// # Errors
    ///
    /// * [`SciError::UnknownLocation`] for unknown ranges;
    /// * [`SciError::RangeDown`] if that range's worker died.
    pub fn ingest_batch_at(
        &mut self,
        range: &str,
        events: &[ContextEvent],
        now: VirtualTime,
    ) -> SciResult<()> {
        if events.is_empty() {
            return Ok(());
        }
        let started = Instant::now(); // sci-lint: allow(wall-clock): telemetry timing
        let result = self
            .worker_by_name(range)?
            .cast(RangeCommand::IngestBatch(events.to_vec()), now);
        self.metrics.cast_us.record(elapsed_us(started));
        result
    }

    /// Moves an entity between ranges as one first-class operation:
    /// `migrate-out` packages its profile, advertisements, standing
    /// queries, queued deliveries and deferred answers at the source;
    /// the packet travels the fabric as a [`MessageKind::Migrate`]
    /// relay inside the exactly-once `(origin, seq)` envelope (so a
    /// duplicated packet replays once and a dropped one is
    /// retransmitted); `migrate-in` replays it at the target. The
    /// entity's home-range record moves *before* the packet ships, so
    /// deliveries produced while the packet is in flight relay toward
    /// the new home instead of the abandoned one. Coordinator wall
    /// time from packaging to replay is recorded in
    /// `range.migrate.inflight_us`.
    ///
    /// # Errors
    ///
    /// * [`SciError::UnknownLocation`] for unknown ranges;
    /// * [`SciError::UnknownEntity`] if the source range does not know
    ///   the entity;
    /// * [`SciError::RangeDown`] if either worker died;
    /// * codec/replay failures from the target range.
    pub fn migrate_entity(
        &mut self,
        entity: Guid,
        from: &str,
        to: &str,
        now: VirtualTime,
    ) -> SciResult<()> {
        let src = self
            .fabric
            .find_by_name(from)
            .ok_or_else(|| SciError::UnknownLocation(from.to_owned()))?;
        let dst = self
            .fabric
            .find_by_name(to)
            .ok_or_else(|| SciError::UnknownLocation(to.to_owned()))?;
        if src == dst {
            return Ok(());
        }
        let started = Instant::now(); // sci-lint: allow(wall-clock): telemetry timing
        let reply = self
            .workers
            .get_mut(&src)
            .ok_or_else(|| SciError::Internal(format!("node {src} has no runtime")))?
            .call(RangeCommand::MigrateOut(entity), now)?;
        let RangeReply::Migrated(xml) = reply else {
            return Err(SciError::Internal(format!(
                "migrate-out expected `migrated` reply, got `{}`",
                reply.kind()
            )));
        };
        // Re-home before the send: anything the mover's subscriptions
        // produce while the packet is in flight must chase the new
        // home, not pile up at the abandoned one.
        self.app_home.insert(entity, dst);
        let seq = self.next_seq(src) | MIGRATE_SEQ_NS;
        let payload = Element::new("migrate")
            .with_attr("entity", entity.to_string())
            .with_attr("origin", src.to_string())
            .with_attr("seq", seq.to_string())
            .with_child(parse(&xml)?)
            .to_xml();
        let msg = Message::new(
            self.ids.next_guid(),
            src,
            dst,
            MessageKind::Migrate,
            Bytes::from(payload.into_bytes()),
        );
        self.migrate_started.insert((src, seq), started);
        self.send_reliable(msg, now)
    }

    /// Simulates a whole-process crash of the named range: the worker
    /// is stopped without a graceful handover and its in-memory server
    /// state is discarded — only what the range's write-ahead log and
    /// snapshots persisted survives. The fabric node, place directory
    /// and application homes stay registered so a durably recovered
    /// replacement ([`crate::durability::recover`]) can rejoin under
    /// the same identity via
    /// [`ParallelFederation::recover_range`]. Returns the dead range's
    /// telemetry registry so the recovered server can keep its
    /// counters continuous.
    ///
    /// # Errors
    ///
    /// * [`SciError::UnknownLocation`] for unknown ranges;
    /// * [`SciError::Internal`] if the range has no live runtime (e.g.
    ///   killed twice).
    pub fn kill_range(&mut self, range: &str) -> SciResult<Registry> {
        let id = self
            .fabric
            .find_by_name(range)
            .ok_or_else(|| SciError::UnknownLocation(range.to_owned()))?;
        let worker = self
            .workers
            .remove(&id)
            .ok_or_else(|| SciError::Internal(format!("node {id} has no runtime")))?;
        let registry = worker.registry().clone();
        worker.kill();
        Ok(registry)
    }

    /// Rejoins a recovered Context Server to the federation after a
    /// [`ParallelFederation::kill_range`]: the server goes back onto a
    /// fresh worker thread under the federation's restart and mailbox
    /// policies, and the worker's initial stream flush re-offers any
    /// WAL-restored outbox traffic — which the `(origin, seq)`
    /// exactly-once filter squashes to the deliveries the crash
    /// actually lost. Also accepts a brand-new range whose fabric node
    /// was never registered.
    ///
    /// # Errors
    ///
    /// * [`SciError::Internal`] if the range is still running, or if
    ///   the server's name is registered under a different GUID;
    /// * fabric registration failures for brand-new nodes.
    pub fn recover_range(&mut self, cs: ContextServer) -> SciResult<Guid> {
        let id = cs.id();
        if self.workers.contains_key(&id) {
            return Err(SciError::Internal(format!(
                "range {id} is still running; kill it before recovering"
            )));
        }
        match self.fabric.find_by_name(cs.name()) {
            Some(existing) if existing == id => {}
            Some(existing) => {
                return Err(SciError::Internal(format!(
                    "range name `{}` belongs to node {existing}, not {id}",
                    cs.name()
                )));
            }
            None => {
                self.fabric.add_node(id, cs.name())?;
            }
        }
        for room in cs.location().plan().rooms() {
            self.places.entry(room.name.clone()).or_insert(id);
        }
        self.workers.insert(
            id,
            RangeRuntime::spawn_with(cs, self.restart_policy, self.mailbox_policy, true),
        );
        Ok(id)
    }

    /// Builds the degraded answer for a query whose target range could
    /// not be consulted, counting it in `federation.answers.partial`.
    fn degraded(&mut self, missing: Guid, reason: &str) -> FederatedAnswer {
        self.metrics.partial_answers.inc();
        let missing_range = self
            .workers
            .get(&missing)
            .map(|w| w.name().to_owned())
            .unwrap_or_else(|| missing.to_string());
        FederatedAnswer {
            answer: QueryAnswer::Partial {
                answer: Box::new(QueryAnswer::Forward {
                    range: missing_range.clone(),
                }),
                missing_range,
                reason: reason.to_owned(),
            },
            hops: 0,
            latency: VirtualDuration::ZERO,
        }
    }

    /// Submits a query at the application's current range, forwarding
    /// over the SCINET if needed. Blocks for the answer (and thereby
    /// for every event previously pipelined into that range).
    ///
    /// Graceful degradation: a target range whose worker has died
    /// (`range-down`) or that the fabric cannot currently reach
    /// (`unroutable`) yields a [`QueryAnswer::Partial`] naming the
    /// missing range instead of an error.
    ///
    /// # Errors
    ///
    /// As for [`crate::federation::Federation::submit_from`], plus
    /// [`SciError::RangeDown`] if the *home* range's worker died.
    pub fn submit_from(
        &mut self,
        range: &str,
        query: &Query,
        now: VirtualTime,
    ) -> SciResult<FederatedAnswer> {
        let home = self
            .fabric
            .find_by_name(range)
            .ok_or_else(|| SciError::UnknownLocation(range.to_owned()))?;
        self.app_home.insert(query.owner, home);
        if let Some(max_age) = query_max_age(query) {
            self.relay_max_age.insert(query.id, max_age);
        }

        let local = self
            .workers
            .get_mut(&home)
            .ok_or_else(|| SciError::Internal(format!("node {home} has no runtime")))?
            .call(RangeCommand::Submit(Box::new(query.clone())), now);

        let dst = match local.and_then(expect_answer) {
            Ok(QueryAnswer::Forward { range: target }) => self
                .fabric
                .find_by_name(&target)
                .ok_or(SciError::UnknownLocation(target))?,
            Ok(answer) => {
                return Ok(FederatedAnswer {
                    answer,
                    hops: 0,
                    latency: VirtualDuration::ZERO,
                });
            }
            Err(SciError::UnknownLocation(place)) => {
                let covering = self
                    .places
                    .get(place.as_str())
                    .copied()
                    .ok_or(SciError::UnknownLocation(place))?;
                if covering == home {
                    return Err(SciError::Internal(format!(
                        "range {home} rejected a place it advertises"
                    )));
                }
                covering
            }
            Err(e) => return Err(e),
        };

        // Forward over the fabric (real codec, real routing), then hand
        // the decoded query to the target's worker.
        let fwd = Message::new(
            self.ids.next_guid(),
            home,
            dst,
            MessageKind::QueryForward,
            Bytes::from(qcodec::to_xml(query).into_bytes()),
        );
        let out_fwd = match self.fabric.send(fwd) {
            Ok(o) => o,
            Err(SciError::Unroutable { .. }) => return Ok(self.degraded(dst, "unroutable")),
            Err(e) => return Err(e),
        };
        let arrival = now.saturating_add(out_fwd.latency);

        let messages = self.fabric.drain(dst);
        let mut answer = None;
        for msg in messages {
            if msg.kind != MessageKind::QueryForward {
                self.absorb(msg, arrival)?;
                continue;
            }
            let xml = String::from_utf8(msg.payload.to_vec())
                .map_err(|_| SciError::Codec("query payload is not UTF-8".into()))?;
            let remote_query = qcodec::from_xml(&xml)?;
            let remote_answer = match self
                .workers
                .get_mut(&dst)
                .ok_or_else(|| SciError::Internal(format!("node {dst} has no runtime")))?
                .call(RangeCommand::Submit(Box::new(remote_query)), arrival)
                .and_then(expect_answer)
            {
                Ok(a) => a,
                // The target range's worker is dead: degrade rather
                // than fail the whole submission.
                Err(SciError::RangeDown(_)) => return Ok(self.degraded(dst, "range-down")),
                Err(e) => return Err(e),
            };
            answer = Some(remote_answer);
        }
        let answer = answer.ok_or_else(|| SciError::Internal("forwarded query vanished".into()))?;

        // Route the response back through the fabric.
        let resp = Message::new(
            self.ids.next_guid(),
            dst,
            home,
            MessageKind::QueryResponse,
            Bytes::from(answer_to_xml(&answer).into_bytes()),
        );
        let out_resp = match self.fabric.send(resp) {
            Ok(o) => o,
            Err(SciError::Unroutable { .. }) => return Ok(self.degraded(dst, "unroutable")),
            Err(e) => return Err(e),
        };
        let resp_arrival = now.saturating_add(out_fwd.latency + out_resp.latency);
        let mut decoded = None;
        let messages = self.fabric.drain(home);
        for msg in messages {
            if msg.kind == MessageKind::QueryResponse {
                let text = std::str::from_utf8(&msg.payload)
                    .map_err(|_| SciError::Codec("answer payload is not UTF-8".into()))?;
                let doc = parse(text)?;
                if doc.name == "answer" {
                    decoded = Some(answer_from_element(&doc)?);
                    continue;
                }
            }
            self.absorb(msg, resp_arrival)?;
        }
        let decoded = decoded.ok_or_else(|| SciError::Internal("response vanished".into()))?;

        Ok(FederatedAnswer {
            answer: decoded,
            hops: out_fwd.hops + out_resp.hops,
            latency: out_fwd.latency + out_resp.latency,
        })
    }

    /// The deterministic barrier: waits for every pipelined command,
    /// collects what each range *streamed while executing* (workers
    /// drain their outboxes into their relay stream after every
    /// command — there is no `DrainOutbox`/`DrainAnswers` round-trip
    /// any more), and relays cross-range traffic over the fabric — the
    /// parallel counterpart of the serial `pump`.
    ///
    /// In free-running mode, [`ParallelFederation::pump_streams`] moves
    /// the same traffic continuously *without* waiting on in-flight
    /// commands; `sync` remains the happens-before edge that seeded
    /// replay and the equivalence oracles are pinned to.
    ///
    /// Relayed deliveries whose arrival time (`now` + route latency)
    /// exceeds their query's `qoc-max-age-us` bound are dropped and
    /// counted in [`ParallelFederation::relay_stale_drops`].
    ///
    /// # Errors
    ///
    /// * the first error any pipelined command produced since the last
    ///   sync;
    /// * [`SciError::RangeDown`] for workers that died (remaining
    ///   ranges are still synced first);
    /// * codec failures for cross-range relays (routing failures are
    ///   retried, not propagated).
    pub fn sync(&mut self, now: VirtualTime) -> SciResult<()> {
        // Release fault-delayed traffic, then give parked relays their
        // once-per-sync retransmission.
        self.fabric.flush();
        self.retry_pending(now)?;

        let mut node_ids: Vec<Guid> = self.workers.keys().copied().collect();
        node_ids.sort_unstable();
        let mut first_error: Option<SciError> = None;

        for node in node_ids {
            let Some(worker) = self.workers.get_mut(&node) else {
                continue;
            };
            // Barrier: once every reply is in, everything those
            // commands streamed is in the relay stream too (workers
            // stream *before* replying).
            let barrier_started = Instant::now(); // sci-lint: allow(wall-clock): telemetry timing
            if let Err(e) = worker.drain_pending() {
                first_error.get_or_insert(e);
            }
            self.metrics.barrier_us.record(elapsed_us(barrier_started));
            for e in worker.take_errors() {
                first_error.get_or_insert(e);
            }
            let (deliveries, answers) = worker.drain_stream();
            let relay_started = Instant::now(); // sci-lint: allow(wall-clock): telemetry timing
            for (seq, d) in deliveries {
                self.metrics.stream_events.inc();
                self.route_delivery(node, seq, d, now)?;
            }
            for (seq, a) in answers {
                self.metrics.stream_answers.inc();
                self.route_answer(node, seq, a, now)?;
            }
            self.metrics.relay_us.record(elapsed_us(relay_started));
        }
        self.sweep(now)?;

        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The streaming pump: relays whatever every range has streamed *so
    /// far*, without waiting for in-flight commands — the free-running
    /// counterpart of the [`sync`] barrier. Call it as often as you
    /// like between ingest batches; traffic moves as it appears instead
    /// of piling up for one big drain. Pump passes are timed in
    /// `federation.stream.pump_us`.
    ///
    /// Determinism note: a pump observes each worker mid-stream, so
    /// *which* sync a given delivery is relayed in depends on thread
    /// scheduling. The delivery multiset is unaffected (the exactly-once
    /// envelope and freshness bounds apply unchanged), which is why
    /// benches free-run with this while the chaos oracles drive
    /// [`sync`] only.
    ///
    /// [`sync`]: ParallelFederation::sync
    ///
    /// # Errors
    ///
    /// Codec failures for cross-range relays (routing failures are
    /// retried, not propagated).
    pub fn pump_streams(&mut self, now: VirtualTime) -> SciResult<()> {
        let pump_started = Instant::now(); // sci-lint: allow(wall-clock): telemetry timing
        self.fabric.flush();
        self.retry_pending(now)?;
        let mut node_ids: Vec<Guid> = self.workers.keys().copied().collect();
        node_ids.sort_unstable();
        for node in node_ids {
            let Some(worker) = self.workers.get_mut(&node) else {
                continue;
            };
            let (deliveries, answers) = worker.drain_stream();
            for (seq, d) in deliveries {
                self.metrics.stream_events.inc();
                self.route_delivery(node, seq, d, now)?;
            }
            for (seq, a) in answers {
                self.metrics.stream_answers.inc();
                self.route_answer(node, seq, a, now)?;
            }
        }
        self.sweep(now)?;
        self.metrics.stream_pump_us.record(elapsed_us(pump_started));
        Ok(())
    }

    /// Routes one application delivery produced at `node` under its
    /// worker-minted envelope sequence: local-home traffic lands in the
    /// coordinator inbox, cross-range traffic travels the fabric in an
    /// exactly-once `(origin, seq)` envelope. Local traffic passes the
    /// same `seen_relays` filter the fabric path uses, so a
    /// WAL-recovered range re-streaming traffic it already handed over
    /// before the crash deduplicates to exactly-once on both paths.
    ///
    /// An app with no recorded home is *not* silently homed any more:
    /// the decision is counted in `federation.relay.unknown_app` and
    /// traced, then the delivery is kept at its producing range (the
    /// only safe default — it is where the subscription lives).
    fn route_delivery(
        &mut self,
        node: Guid,
        seq: u64,
        d: AppDelivery,
        now: VirtualTime,
    ) -> SciResult<()> {
        let home = match self.app_home.get(&d.app) {
            Some(&home) => home,
            None => {
                self.metrics.relay_unknown_app.inc();
                let mut span = self.metrics.tracer.span("federation.relay.unknown-app");
                span.field("app", d.app);
                span.field("origin", node);
                node
            }
        };
        if home == node {
            if self.seen_relays.insert((node, seq)) {
                self.inbox.entry(d.app).or_default().push(d);
            } else {
                self.metrics.relay_dedup_hits.inc();
            }
            return Ok(());
        }
        let payload = Element::new("relay")
            .with_attr("app", d.app.to_string())
            .with_attr("query", d.query.to_string())
            .with_attr("origin", node.to_string())
            .with_attr("seq", seq.to_string())
            .with_child(qcodec::event_to_element(&d.event))
            .to_xml();
        let msg = Message::new(
            self.ids.next_guid(),
            node,
            home,
            MessageKind::EventRelay,
            Bytes::from(payload.into_bytes()),
        );
        self.metrics.relay_events.inc();
        self.send_reliable(msg, now)
    }

    /// Routes one deferred answer produced at `node` — the
    /// [`route_delivery`](ParallelFederation::route_delivery) twin for
    /// the `answer-relay` envelope, with the same unknown-app
    /// accounting and local-path dedup. The worker-minted sequence is
    /// shifted into the [`ANSWER_SEQ_NS`] namespace so answer and
    /// delivery counters cannot collide in the shared `(origin, seq)`
    /// filter.
    fn route_answer(
        &mut self,
        node: Guid,
        seq: u64,
        a: DeferredAnswer,
        now: VirtualTime,
    ) -> SciResult<()> {
        let seq = seq | ANSWER_SEQ_NS;
        let (query, owner, answer) = a;
        let home = match self.app_home.get(&owner) {
            Some(&home) => home,
            None => {
                self.metrics.relay_unknown_app.inc();
                let mut span = self.metrics.tracer.span("federation.relay.unknown-app");
                span.field("app", owner);
                span.field("origin", node);
                node
            }
        };
        if home == node {
            if self.seen_relays.insert((node, seq)) {
                self.answers.entry(owner).or_default().push((query, answer));
            } else {
                self.metrics.relay_dedup_hits.inc();
            }
            return Ok(());
        }
        let payload = Element::new("answer-relay")
            .with_attr("app", owner.to_string())
            .with_attr("query", query.to_string())
            .with_attr("origin", node.to_string())
            .with_attr("seq", seq.to_string())
            .with_child(answer_element(&answer))
            .to_xml();
        let msg = Message::new(
            self.ids.next_guid(),
            node,
            home,
            MessageKind::QueryResponse,
            Bytes::from(payload.into_bytes()),
        );
        self.metrics.relay_answers.inc();
        self.send_reliable(msg, now)
    }

    /// Mints the next coordinator-side envelope sequence number for
    /// `origin` (migration relays only; stream traffic carries
    /// worker-minted sequences).
    fn next_seq(&mut self, origin: Guid) -> u64 {
        let seq = self.relay_seq.entry(origin).or_insert(0);
        *seq += 1;
        *seq
    }

    /// Sends a relay envelope with up to [`RELAY_RETRIES`]
    /// retransmissions under exponential backoff (accounted in virtual
    /// time), parking it for the next sync if all attempts fail.
    ///
    /// # Errors
    ///
    /// Propagates non-routing transport failures.
    fn send_reliable(&mut self, msg: Message, now: VirtualTime) -> SciResult<()> {
        let dst = msg.dst;
        let mut backoff = VirtualDuration::ZERO;
        let mut wait = RETRY_BACKOFF_BASE_US;
        for attempt in 0..=RELAY_RETRIES {
            if attempt > 0 {
                self.metrics.retry_attempts.inc();
                backoff += VirtualDuration::from_micros(wait);
                wait = wait.saturating_mul(2);
            }
            match self.fabric.send(msg.clone()) {
                Ok(outcome) => {
                    let arrival = now.saturating_add(outcome.latency).saturating_add(backoff);
                    let landed = self.fabric.drain(dst);
                    for m in landed {
                        self.absorb(m, arrival)?;
                    }
                    return Ok(());
                }
                Err(SciError::Unroutable { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        self.metrics.retry_parked.inc();
        self.pending_relays.push(msg);
        Ok(())
    }

    /// Retransmits every parked relay once; still-unroutable envelopes
    /// go back in the park.
    fn retry_pending(&mut self, now: VirtualTime) -> SciResult<()> {
        if self.pending_relays.is_empty() {
            return Ok(());
        }
        let mut parked = std::mem::take(&mut self.pending_relays);
        // Canonical re-fire order, mirroring the sorted node iteration
        // in `sync`/`sweep`: `(dst, id)` keeps per-destination send
        // order (ids are seed-minted monotonically) while decoupling
        // the fault layer's PRNG draw sequence from park insertion
        // history.
        parked.sort_unstable_by_key(|m| (m.dst, m.id));
        for msg in parked {
            self.metrics.retry_attempts.inc();
            let dst = msg.dst;
            match self.fabric.send(msg.clone()) {
                Ok(outcome) => {
                    let arrival = now.saturating_add(outcome.latency);
                    let landed = self.fabric.drain(dst);
                    for m in landed {
                        self.absorb(m, arrival)?;
                    }
                }
                Err(SciError::Unroutable { .. }) => self.pending_relays.push(msg),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Drains every node's inbox and absorbs what landed (late
    /// arrivals from ack-lost sends, duplicates, flushed delays).
    fn sweep(&mut self, now: VirtualTime) -> SciResult<()> {
        let mut node_ids: Vec<Guid> = self.workers.keys().copied().collect();
        node_ids.sort_unstable();
        for node in node_ids {
            let landed = self.fabric.drain(node);
            for m in landed {
                self.absorb(m, now)?;
            }
        }
        Ok(())
    }

    /// Delivers one fabric message to its application behind the
    /// exactly-once filter: a `(origin, seq)` envelope already seen is
    /// counted in `federation.relay.dedup_hits` and dropped. Event
    /// relays are checked against their query's freshness bound at
    /// `arrival`; non-relay traffic is dropped.
    fn absorb(&mut self, m: Message, arrival: VirtualTime) -> SciResult<()> {
        match m.kind {
            MessageKind::EventRelay => {
                let doc = parse(
                    std::str::from_utf8(&m.payload)
                        .map_err(|_| SciError::Codec("relay not UTF-8".into()))?,
                )?;
                if doc.name != "relay" {
                    return Ok(());
                }
                let Some(envelope) = relay_envelope(&doc)? else {
                    return Ok(());
                };
                if !self.seen_relays.insert(envelope) {
                    self.metrics.relay_dedup_hits.inc();
                    return Ok(());
                }
                let app: Guid = doc
                    .attr("app")
                    .ok_or_else(|| SciError::Codec("relay missing app".into()))?
                    .parse()?;
                let query: Guid = doc
                    .attr("query")
                    .ok_or_else(|| SciError::Codec("relay missing query".into()))?
                    .parse()?;
                let event = qcodec::event_from_element(doc.require_child("event")?)?;
                let stale = self
                    .relay_max_age
                    .get(&query)
                    .map(|&max| arrival.saturating_since(event.timestamp) > max)
                    .unwrap_or(false);
                if stale {
                    self.relay_stale_drops += 1;
                    self.metrics.relay_stale_drops.inc();
                    return Ok(());
                }
                self.inbox
                    .entry(app)
                    .or_default()
                    .push(AppDelivery { app, query, event });
            }
            MessageKind::QueryResponse => {
                let doc = parse(
                    std::str::from_utf8(&m.payload)
                        .map_err(|_| SciError::Codec("answer relay not UTF-8".into()))?,
                )?;
                if doc.name != "answer-relay" {
                    return Ok(());
                }
                let Some(envelope) = relay_envelope(&doc)? else {
                    return Ok(());
                };
                if !self.seen_relays.insert(envelope) {
                    self.metrics.relay_dedup_hits.inc();
                    return Ok(());
                }
                let app: Guid = doc
                    .attr("app")
                    .ok_or_else(|| SciError::Codec("relay missing app".into()))?
                    .parse()?;
                let q: Guid = doc
                    .attr("query")
                    .ok_or_else(|| SciError::Codec("relay missing query".into()))?
                    .parse()?;
                let decoded = answer_from_element(doc.require_child("answer")?)?;
                self.answers.entry(app).or_default().push((q, decoded));
            }
            MessageKind::Migrate => {
                let doc = parse(
                    std::str::from_utf8(&m.payload)
                        .map_err(|_| SciError::Codec("migration relay not UTF-8".into()))?,
                )?;
                if doc.name != "migrate" {
                    return Ok(());
                }
                let Some(envelope) = relay_envelope(&doc)? else {
                    return Ok(());
                };
                if !self.seen_relays.insert(envelope) {
                    self.metrics.relay_dedup_hits.inc();
                    return Ok(());
                }
                if let Some(started) = self.migrate_started.remove(&envelope) {
                    self.metrics.migrate_inflight.record(elapsed_us(started));
                }
                let packet = MigrationPacket::from_element(doc.require_child("migration")?)?;
                if let Some(worker) = self.workers.get_mut(&m.dst) {
                    // `call`, not `cast`: a shedding mailbox may drop
                    // pipelined casts, and a migration packet must
                    // never be shed — the entity would vanish mid-move.
                    worker.call(RangeCommand::MigrateIn(Box::new(packet)), arrival)?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Fires due timers in every range, then syncs.
    ///
    /// # Errors
    ///
    /// As for [`ParallelFederation::sync`].
    pub fn poll_timers(&mut self, now: VirtualTime) -> SciResult<()> {
        let mut node_ids: Vec<Guid> = self.workers.keys().copied().collect();
        node_ids.sort_unstable();
        for node in node_ids {
            if let Some(worker) = self.workers.get_mut(&node) {
                let _ = worker.cast(RangeCommand::PollTimers, now);
            }
        }
        self.sync(now)
    }

    /// Removes and returns the deliveries waiting for an application.
    pub fn deliveries_for(&mut self, app: Guid) -> Vec<AppDelivery> {
        self.inbox.remove(&app).unwrap_or_default()
    }

    /// Removes and returns deferred answers waiting for an application.
    pub fn answers_for(&mut self, app: Guid) -> Vec<(Guid, QueryAnswer)> {
        self.answers.remove(&app).unwrap_or_default()
    }

    /// Stops every worker and returns the surviving Context Servers in
    /// range-id order (panicked workers' servers are lost with them).
    pub fn shutdown(self) -> Vec<ContextServer> {
        let mut workers: Vec<(Guid, RangeRuntime)> = self.workers.into_iter().collect();
        workers.sort_unstable_by_key(|(id, _)| *id);
        workers
            .into_iter()
            .filter_map(|(_, w)| w.shutdown())
            .collect()
    }
}

fn expect_answer(reply: RangeReply) -> SciResult<QueryAnswer> {
    match reply {
        RangeReply::Answer(answer) => Ok(answer),
        other => Err(SciError::Internal(format!(
            "submit expected `answer` reply, got `{}`",
            other.kind()
        ))),
    }
}

/// The `qoc-max-age-us` freshness bound a query demands, if any.
fn query_max_age(query: &Query) -> Option<VirtualDuration> {
    if let What::Information { constraints, .. } = &query.what {
        constraints
            .iter()
            .find(|c| c.attr == "qoc-max-age-us")
            .and_then(|c| c.value.as_int())
            .filter(|&us| us >= 0)
            .map(|us| VirtualDuration::from_micros(us as u64))
    } else {
        None
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_location::floorplan::capa_level10;
    use sci_types::{ContextValue, EntityKind, PortSpec};

    fn server(seed: u64, name: &str) -> (ContextServer, GuidGenerator) {
        let mut ids = GuidGenerator::seeded(seed);
        let cs = ContextServer::new(ids.next_guid(), name, capa_level10());
        (cs, ids)
    }

    #[test]
    fn handle_register_then_submit_roundtrip() {
        let (mut cs, mut ids) = server(1, "r");
        let dev = ids.next_guid();
        let profile = Profile::builder(dev, EntityKind::Device, "thermo")
            .output(PortSpec::new("t", ContextType::Temperature))
            .build();
        let reply = cs
            .handle(RangeCommand::Register(Box::new(profile)), VirtualTime::ZERO)
            .unwrap();
        assert!(matches!(reply, RangeReply::Ack));
        let app = ids.next_guid();
        let q = Query::builder(ids.next_guid(), app)
            .info(ContextType::Temperature)
            .mode(sci_query::Mode::Profile)
            .build();
        let reply = cs
            .handle(RangeCommand::Submit(Box::new(q)), VirtualTime::ZERO)
            .unwrap();
        match reply {
            RangeReply::Answer(QueryAnswer::Profiles(ps)) => assert_eq!(ps.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn runtime_serves_commands_over_mailbox() {
        let (cs, mut ids) = server(2, "actor");
        let mut rt = RangeRuntime::spawn(cs);
        let dev = ids.next_guid();
        let profile = Profile::builder(dev, EntityKind::Device, "sensor")
            .output(PortSpec::new("p", ContextType::Presence))
            .build();
        let reply = rt
            .call(RangeCommand::Register(Box::new(profile)), VirtualTime::ZERO)
            .unwrap();
        assert!(matches!(reply, RangeReply::Ack));
        let cs = rt.shutdown().expect("graceful shutdown returns server");
        assert_eq!(cs.registrar().len(), 1);
    }

    #[test]
    fn pipelined_casts_flush_at_call_barrier() {
        let (mut cs, mut ids) = server(3, "pipeline");
        let dev = ids.next_guid();
        cs.register(
            Profile::builder(dev, EntityKind::Device, "door")
                .output(PortSpec::new("p", ContextType::Presence))
                .build(),
            VirtualTime::ZERO,
        )
        .unwrap();
        let mut rt = RangeRuntime::spawn(cs);
        for k in 0..50u64 {
            // Distinct subjects: the history store is depth-bounded per
            // (type, subject), so each event must survive to be counted.
            let ev = ContextEvent::new(
                dev,
                ContextType::Presence,
                ContextValue::record([(
                    "subject",
                    ContextValue::Id(Guid::from_u128(1000 + u128::from(k))),
                )]),
                VirtualTime::from_micros(k),
            );
            rt.cast(RangeCommand::Ingest(ev), VirtualTime::from_micros(k))
                .unwrap();
        }
        // The call barrier guarantees all 50 ingests ran first.
        match rt.call(RangeCommand::ExpireHistory, VirtualTime::ZERO) {
            Ok(RangeReply::Expired(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(rt.take_errors().is_empty());
        let cs = rt.shutdown().unwrap();
        assert!(cs.history().len() >= 50);
    }

    #[test]
    fn pipelined_errors_are_retained_not_lost() {
        let (cs, mut ids) = server(4, "errors");
        let mut rt = RangeRuntime::spawn(cs);
        // Deregistering an unknown entity errors; pipelined, so the
        // error surfaces at the barrier.
        rt.cast(RangeCommand::Deregister(ids.next_guid()), VirtualTime::ZERO)
            .unwrap();
        rt.drain_pending().unwrap();
        let errors = rt.take_errors();
        assert_eq!(errors.len(), 1);
        assert!(matches!(errors[0], SciError::UnknownEntity(_)));
        rt.shutdown();
    }

    #[test]
    fn panicking_worker_reports_range_down() {
        let (mut cs, mut ids) = server(5, "doomed");
        let src = ids.next_guid();
        cs.register(
            Profile::builder(src, EntityKind::Device, "src")
                .output(PortSpec::new("p", ContextType::Presence))
                .build(),
            VirtualTime::ZERO,
        )
        .unwrap();
        let ce = ids.next_guid();
        cs.register(
            Profile::builder(ce, EntityKind::Software, "bomb")
                .input(PortSpec::new("in", ContextType::Presence))
                .output(PortSpec::new("out", ContextType::Temperature))
                .build(),
            VirtualTime::ZERO,
        )
        .unwrap();
        struct PanicLogic;
        impl crate::logic::EntityLogic for PanicLogic {
            fn on_event(
                &mut self,
                _event: &ContextEvent,
                _binding: &sci_types::Metadata,
                _now: VirtualTime,
            ) -> Vec<(ContextType, ContextValue)> {
                panic!("logic bomb")
            }
        }
        cs.register_logic(ce, crate::logic::factory(|| PanicLogic));
        let app = ids.next_guid();
        let q = Query::builder(ids.next_guid(), app)
            .info(ContextType::Temperature)
            .mode(sci_query::Mode::Subscribe)
            .build();
        let mut rt = RangeRuntime::spawn(cs);
        rt.call(RangeCommand::Submit(Box::new(q)), VirtualTime::ZERO)
            .unwrap();
        // The subscription instantiates the bomb: constructing the
        // logic panics inside the worker.
        let ev = ContextEvent::new(
            src,
            ContextType::Presence,
            ContextValue::record([("subject", ContextValue::Id(Guid::from_u128(9)))]),
            VirtualTime::ZERO,
        );
        let res = rt.call(RangeCommand::Ingest(ev), VirtualTime::ZERO);
        assert!(
            matches!(res, Err(SciError::RangeDown(ref name)) if name == "doomed"),
            "got {res:?}"
        );
        assert!(rt.is_down());
        assert!(rt.shutdown().is_none(), "panicked worker loses its state");
    }
}
