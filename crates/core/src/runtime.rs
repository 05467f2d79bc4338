//! The Range actor runtime: command-driven Context Servers, one
//! single-writer worker thread per range.
//!
//! The paper's distribution model is "centralised per range,
//! decentralised across ranges" (Section 3). This module realises both
//! halves:
//!
//! * **Centralised per range** — every logged mutation of a
//!   [`ContextServer`] is a [`RangeCommand`]; [`ContextServer::handle`]
//!   is the one dispatcher that executes them, so a range behaves like
//!   an actor: a serial command stream against private state, whether
//!   the commands arrive by direct method call (the deterministic sim
//!   drivers) or over a mailbox.
//! * **Decentralised across ranges** — [`RangeRuntime`] moves a server
//!   onto its own worker thread behind a command mailbox (a
//!   `std::sync::mpsc` channel), and [`ParallelFederation`] drives one
//!   runtime per range so N busy ranges occupy N cores instead of
//!   stalling each other in a single loop.
//!
//! Worker failure is isolated: a panic inside one range's command
//! handler kills only that worker. The coordinator observes the dead
//! mailbox and reports [`SciError::RangeDown`] for that range while
//! every other range keeps serving — the liveness shape Solar's
//! per-planet operator placement and the Context Toolkit's distributed
//! widgets both argue for.

use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use sci_overlay::net::SimNetwork;
use sci_overlay::transport::Transport;
use sci_query::Query;
use sci_types::{
    Advertisement, ContextEvent, ContextType, Guid, Profile, SciError, SciResult, VirtualTime,
};

use sci_telemetry::{catalogue, Registry};

use crate::context_server::{ContextServer, RangeReply};
use crate::logic::LogicFactory;
use crate::migration::MigrationPacket;
use crate::relay::{RangeHost, RelayCore, Stream};
use crate::telemetry::{elapsed_us, RuntimeMetrics};
use sci_location::floorplan::FloorPlan;

/// One mutating operation on a range.
///
/// A command is a logged mutation ([`crate::durability::is_durable`]),
/// with [`RangeCommand::Audit`] the one unlogged exception;
/// [`ContextServer::handle`] is the single dispatcher that executes
/// them. Read-only accessors (`profiles()`, `history()`, …) and the
/// drains that hand queued output to its reader (`drain_outbox`,
/// `drain_answers`) stay plain methods.
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
    /// Enable or disable configuration subgraph reuse.
    SetReuse(bool),
    /// Enable or disable the Range Service's person auto-registration.
    SetAutoRegisterPeople(bool),
    /// Enable or disable the pre-instantiation plan verification gate
    /// (on by default; off wires a defective plan as-is).
    SetPlanVerification(bool),
    /// Run the fleet drift audit.
    Audit,
    /// Package a departing entity's full range state for migration:
    /// profile, advertisements, standing and deferred queries, queued
    /// deliveries and deferred answers leave the range in one
    /// [`MigrationPacket`].
    MigrateOut(Guid),
    /// Replay a migrated entity's packaged state at its new home range.
    MigrateIn(Box<MigrationPacket>),
    /// A source CE has failed: the wiring rule stops naming it until it
    /// registers again, and everything it fed is rewired. The
    /// *decision* is the command — who took it (a liveness poll, an
    /// [`crate::adaptation::AdaptationGovernor`], an operator) and on
    /// what evidence is not the range's state. A no-op for a CE that
    /// is already failed, has departed or was never here.
    Fail(Guid),
}

impl RangeCommand {
    /// Every command kind name, indexed by
    /// [`RangeCommand::kind_index`]. The telemetry layer pre-registers
    /// one counter and one latency histogram per entry
    /// (`range.cmd.<kind>.count` / `range.cmd.<kind>.latency_us`).
    ///
    /// Append-only, never reorder: a command's index here is its frame
    /// tag in the write-ahead log ([`crate::durability::encode_command`]),
    /// so the table is the on-disk format. Tags 12–14 (`drain-*`) are
    /// retired: drains are no longer commands, and the tags are never
    /// reused.
    pub const KINDS: [&'static str; 22] = [
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

    /// Index of this variant within [`RangeCommand::KINDS`].
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
            RangeCommand::SetReuse(_) => 15,
            RangeCommand::SetAutoRegisterPeople(_) => 16,
            RangeCommand::SetPlanVerification(_) => 17,
            RangeCommand::Audit => 18,
            RangeCommand::MigrateOut(_) => 19,
            RangeCommand::MigrateIn(_) => 20,
            RangeCommand::Fail(_) => 21,
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

enum ToWorker {
    Cmd { cmd: RangeCommand, now: VirtualTime },
    Stop,
}

/// Moves everything the last command produced out of the server and
/// into the range's relay stream, as one batch carrying the envelope
/// sequences the server minted (see `RangeHost::drain_stream` for
/// [`ContextServer`]) and its deliveries stamped with the command's
/// instant, `produced`. Runs on the worker thread, *before* the
/// command's reply is sent, so a coordinator that has observed a
/// barrier reply is guaranteed to find the barrier's traffic in the
/// stream.
fn drain_into_stream(cs: &mut ContextServer, stream: &Sender<Stream>, produced: VirtualTime) {
    let batch = cs.take_stream(produced);
    if !(batch.0.is_empty() && batch.1.is_empty()) {
        let _ = stream.send(batch);
    }
}

/// Supervision policy for a [`RangeRuntime`]: how many times a panicked
/// worker may be restarted.
///
/// The default is **no restarts** — a panic retires the range and the
/// coordinator reports [`SciError::RangeDown`], preserving the original
/// fail-stop semantics. With a bounded budget a restart is
/// [`crate::durability::restart`]: the Context Server is rebuilt on a
/// fresh worker thread (same GUID, name, floor plan and telemetry
/// registry) from the range's own command log — the disk log if one is
/// attached, otherwise an in-memory log the runtime attaches at spawn
/// — minus the record of the command that panicked. Commands queued
/// behind that one in the mailbox were never logged and are lost.
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

/// How a worker's life ended.
enum Exit {
    /// Graceful stop: the server, intact.
    Stopped(ContextServer),
    /// A command panicked. The server's state is suspect; a supervised
    /// restart reads its log and logic factories, nothing else.
    Panicked(ContextServer),
}

/// One worker thread's life: drain the mailbox, execute commands, hand
/// the server back when it ends.
fn worker_loop(
    mut cs: ContextServer,
    rx: Receiver<ToWorker>,
    tx: Sender<SciResult<RangeReply>>,
    metrics: RuntimeMetrics,
    stream: Option<Sender<Stream>>,
) -> Exit {
    // A server rebuilt from its log starts with its unrelayed outbox
    // already restored; flush it into the stream before serving
    // commands so redelivery does not wait for the next mutation.
    // No-op for fresh servers (empty outbox).
    if let Some(stream) = &stream {
        drain_into_stream(&mut cs, stream, VirtualTime::MAX);
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
                            drain_into_stream(&mut cs, stream, now);
                        }
                        if tx.send(reply).is_err() {
                            // Coordinator went away; stop serving.
                            return Exit::Stopped(cs);
                        }
                    }
                    Err(_) => {
                        metrics.panics.inc();
                        // Supervised or not, the panicking command's
                        // record leaves the log here, so a disk log
                        // read by a later `recover` is clean too.
                        if let Some(wal) = cs.wal_mut() {
                            let _ = wal.retire_unapplied();
                        }
                        return Exit::Panicked(cs);
                    }
                }
            }
            Ok(ToWorker::Stop) | Err(_) => return Exit::Stopped(cs),
        }
    }
}

/// Starts a worker thread serving `cs` behind a fresh mailbox.
fn start_worker(
    cs: ContextServer,
    metrics: RuntimeMetrics,
    stream: Option<Sender<Stream>>,
) -> (
    Sender<ToWorker>,
    Receiver<SciResult<RangeReply>>,
    Option<JoinHandle<Exit>>,
) {
    let (cmd_tx, cmd_rx) = channel();
    let (reply_tx, reply_rx) = channel();
    let worker = std::thread::Builder::new()
        .name(format!("range-{}", cs.name()))
        .spawn(move || worker_loop(cs, cmd_rx, reply_tx, metrics, stream))
        .ok();
    (cmd_tx, reply_rx, worker)
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
    worker: Option<JoinHandle<Exit>>,
    down: bool,
    /// The server's registry, cloned before the server moved onto its
    /// worker thread — snapshots need no round-trip command, and the
    /// registry outlives a panicked worker.
    registry: Registry,
    metrics: RuntimeMetrics,
    /// The range's floor plan (admission claims its rooms without a
    /// round trip).
    plan: FloorPlan,
    policy: RestartPolicy,
    /// The relay stream, when streaming is enabled: the coordinator
    /// holds both ends so the channel survives worker restarts; each
    /// worker gets a sender clone.
    stream: Option<(Sender<Stream>, Receiver<Stream>)>,
    restarts_used: u32,
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
    /// (same registry, so counters stay continuous) from its own
    /// command log. The command that observed the crash still fails
    /// with [`SciError::RangeDown`]; subsequent commands reach the
    /// restarted worker. Each restart increments `range.restarts`;
    /// logged commands that return an error when replayed increment
    /// `range.restart.replay_errors`.
    pub fn spawn_supervised(cs: ContextServer, policy: RestartPolicy) -> Self {
        RangeRuntime::spawn_with(cs, policy, false)
    }

    /// The fully-parameterised spawn: `streaming` wires a relay stream
    /// the worker drains its outbox and deferred answers into after
    /// every command, consumed by the relay core. Without streaming,
    /// the outbox stays in the server that [`RangeRuntime::shutdown`]
    /// hands back.
    fn spawn_with(mut cs: ContextServer, policy: RestartPolicy, streaming: bool) -> Self {
        if policy.max_restarts > 0 && cs.wal_mut().is_none() {
            // A restart rebuilds the range from its command log. With
            // no disk log attached, keep one in memory, seeded with
            // everything composed before the spawn.
            crate::durability::attach_memory(&mut cs, VirtualTime::ZERO);
        }
        let id = cs.id();
        let name = cs.name().to_owned();
        let registry = cs.telemetry().clone();
        let plan = cs.location().plan().clone();
        let metrics = RuntimeMetrics::register(&registry);
        // The coordinator owns both stream ends: the channel survives
        // worker restarts, and every (re)spawned worker just gets a
        // fresh sender clone.
        let stream = streaming.then(channel::<Stream>);
        let stream_tx = stream.as_ref().map(|(tx, _)| tx.clone());
        let (tx, rx, worker) = start_worker(cs, metrics.clone(), stream_tx);
        RangeRuntime {
            id,
            name,
            tx,
            rx,
            pending: 0,
            errors: Vec::new(),
            worker,
            down: false,
            registry,
            metrics,
            plan,
            policy,
            stream,
            restarts_used: 0,
        }
    }

    /// Restarts performed so far under the supervision policy.
    pub fn restarts(&self) -> u32 {
        self.restarts_used
    }

    /// Attempts a supervised restart after a worker death: reaps the
    /// dead worker and, if a command panicked under it, puts the
    /// server [`crate::durability::restart`] rebuilds from its log on
    /// a fresh one. The range stays down when the restart budget is
    /// exhausted or the rebuild fails.
    fn try_restart(&mut self) {
        if self.restarts_used >= self.policy.max_restarts {
            return;
        }
        self.restarts_used += 1;
        let Some(Ok(Exit::Panicked(wreck))) = self.worker.take().map(JoinHandle::join) else {
            return;
        };
        // The rebuild replays commands through user logic, on this
        // (the coordinator's) thread: a panic there must stay this
        // range's problem too.
        let rebuilt = catch_unwind(AssertUnwindSafe(|| crate::durability::restart(wreck)));
        let Ok(Ok((cs, report))) = rebuilt else {
            return;
        };
        self.registry.counter(catalogue::RANGE_RESTARTS).inc();
        self.registry
            .counter(catalogue::RANGE_RESTART_REPLAY_ERRORS)
            .add(report.replay_errors as u64);
        // The replacement worker feeds the same stream channel, so
        // traffic already drained by the dead worker stays collectable;
        // what the rebuild regenerates re-streams under the envelope
        // sequences it had the first time.
        let stream_tx = self.stream.as_ref().map(|(tx, _)| tx.clone());
        let (tx, rx, worker) = start_worker(cs, self.metrics.clone(), stream_tx);
        (self.tx, self.rx, self.worker) = (tx, rx, worker);
        // Commands queued for the dead worker are lost with it.
        self.pending = 0;
        self.metrics.mailbox_depth.set(0);
        self.down = false;
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
        // Supervised runtimes come back up for the *next* command; the
        // one that observed the crash still fails.
        self.try_restart();
        SciError::RangeDown(self.name.clone())
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
        if self.down {
            return Err(SciError::RangeDown(self.name.clone()));
        }
        if self.tx.send(ToWorker::Cmd { cmd, now }).is_err() {
            return Err(self.down_error());
        }
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
        self.cast(cmd, now)?;
        #[expect(clippy::disallowed_methods, reason = "telemetry timing")]
        let started = Instant::now();
        // FIFO: everything before the reply we want is a pipelined
        // predecessor.
        while self.pending > 1 {
            match self.rx.recv() {
                Ok(reply) => {
                    self.pending -= 1;
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

    /// Stops the worker and returns the server it owned; `None` if the
    /// worker panicked (its state is gone with it).
    pub fn shutdown(mut self) -> Option<ContextServer> {
        let _ = self.tx.send(ToWorker::Stop);
        match self.worker.take().map(JoinHandle::join) {
            Some(Ok(Exit::Stopped(cs))) => Some(cs),
            _ => None,
        }
    }
}

impl RangeHost for RangeRuntime {
    fn id(&self) -> Guid {
        self.id
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn plan(&self) -> &FloorPlan {
        &self.plan
    }

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn call(&mut self, cmd: RangeCommand, now: VirtualTime) -> SciResult<RangeReply> {
        RangeRuntime::call(self, cmd, now)
    }

    /// Collects everything the worker has streamed so far, without
    /// blocking and without a command round-trip: all application
    /// deliveries, then all deferred answers, each in production order
    /// with its worker-minted envelope sequence. Always empty when the
    /// runtime was spawned without streaming.
    fn drain_stream(&mut self) -> Stream {
        let mut stream = Stream::default();
        if let Some((_, rx)) = &self.stream {
            for (deliveries, answers) in rx.try_iter() {
                stream.0.extend(deliveries);
                stream.1.extend(answers);
            }
        }
        stream
    }
}

/// A federation whose ranges each run on their own [`RangeRuntime`]
/// worker thread: the threaded driver of the [`RelayCore`].
///
/// The core keeps what must be globally consistent — the SCINET
/// routing fabric, application home ranges and their inboxes, the
/// relay protocol — and everything per-range lives behind a mailbox.
/// Sensor ingest is pipelined
/// ([`RangeRuntime::cast`]): [`ParallelFederation::ingest_at`] (or, one
/// send for N events, [`ParallelFederation::ingest_batch_at`]) returns
/// as soon as the event is enqueued, so N ranges chew their streams
/// concurrently. Cross-range traffic **streams**: each worker drains
/// its outbox into a per-range relay stream as commands execute, and
/// the core moves it over the fabric either continuously
/// ([`ParallelFederation::pump_streams`], free-running mode) or at the
/// [`ParallelFederation::sync`] barrier (deterministic mode).
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
    core: RelayCore<T, RangeRuntime>,
    /// Supervision applied to every worker spawned by
    /// [`ParallelFederation::add_range`].
    restart_policy: RestartPolicy,
}

impl<T: Transport> Deref for ParallelFederation<T> {
    type Target = RelayCore<T, RangeRuntime>;

    fn deref(&self) -> &Self::Target {
        &self.core
    }
}

impl<T: Transport> DerefMut for ParallelFederation<T> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.core
    }
}

impl<T: Transport> std::fmt::Debug for ParallelFederation<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelFederation")
            .field("ranges", &self.core.len())
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
            core: RelayCore::with_transport(fabric, seed),
            restart_policy: RestartPolicy::NONE,
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

    fn spawn(&self, cs: ContextServer) -> RangeRuntime {
        RangeRuntime::spawn_with(cs, self.restart_policy, true)
    }

    /// Adds a range: its Context Server moves onto a fresh worker
    /// thread under the federation's restart policy and is admitted
    /// through [`RelayCore::add_range`].
    ///
    /// # Errors
    ///
    /// As for [`RelayCore::add_range`].
    pub fn add_range(&mut self, cs: ContextServer) -> SciResult<Guid> {
        let worker = self.spawn(cs);
        self.core.add_range(worker)
    }

    /// Restarts performed by the named range's supervised runtime.
    pub fn restarts_of(&self, range: &str) -> Option<u32> {
        self.core.host(range).map(RangeRuntime::restarts)
    }

    /// Pipelines one command into the named range, timing the enqueue
    /// in `federation.cast_us`.
    fn cast(&mut self, range: &str, cmd: RangeCommand, now: VirtualTime) -> SciResult<()> {
        #[expect(clippy::disallowed_methods, reason = "telemetry timing")]
        let started = Instant::now();
        let result = self.core.host_mut(range)?.cast(cmd, now);
        self.core.metrics.cast_us.record(elapsed_us(started));
        result
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
        self.cast(range, RangeCommand::Ingest(event.clone()), now)
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
        self.cast(range, RangeCommand::IngestBatch(events.to_vec()), now)
    }

    /// Simulates a whole-process crash of the named range: the worker
    /// is stopped without a graceful handover and its in-memory server
    /// state is discarded — only what the range's write-ahead log and
    /// snapshots persisted survives. The fabric node, its registrations
    /// and application homes stay so a durably recovered
    /// replacement ([`crate::durability::recover`]) can rejoin under
    /// the same identity via
    /// [`ParallelFederation::recover_range`]; a migration packet that
    /// arrives meanwhile is parked for it. Returns the dead range's
    /// telemetry registry so the recovered server can keep its
    /// counters continuous.
    ///
    /// # Errors
    ///
    /// * [`SciError::UnknownLocation`] for unknown ranges;
    /// * [`SciError::RangeDown`] if the range has no live runtime (e.g.
    ///   killed twice).
    pub fn kill_range(&mut self, range: &str) -> SciResult<Registry> {
        let worker = self.core.retire(range)?;
        let registry = worker.registry().clone();
        // Commands already in the mailbox run (and log) first; then
        // the server is dropped unexamined, its buffered appends
        // flushed: what a recovery sees after a process kill.
        drop(worker.shutdown());
        Ok(registry)
    }

    /// Rejoins a recovered Context Server to the federation after a
    /// [`ParallelFederation::kill_range`]: the server goes back onto a
    /// fresh worker thread under the federation's restart policy, and the worker's initial stream flush re-offers any
    /// WAL-restored outbox traffic — which the `(origin, seq)`
    /// exactly-once filter squashes to the deliveries the crash
    /// actually lost. Admission is [`RelayCore::add_range`]'s, which
    /// takes a returning identity and a brand-new one alike, so this is
    /// [`ParallelFederation::add_range`] under the name a recovery
    /// reads by.
    ///
    /// # Errors
    ///
    /// As for [`RelayCore::add_range`].
    pub fn recover_range(&mut self, cs: ContextServer) -> SciResult<Guid> {
        self.add_range(cs)
    }

    /// The deterministic barrier: [`RelayCore::pump`], but each range's
    /// pipelined commands are waited out right before its stream is
    /// taken (workers stream *before* replying, so once every reply is
    /// in, everything those commands produced is in the relay stream
    /// too) — the parallel counterpart of the serial `pump`.
    ///
    /// In free-running mode, [`ParallelFederation::pump_streams`] moves
    /// the same traffic continuously *without* waiting on in-flight
    /// commands; `sync` remains the happens-before edge that seeded
    /// replay and the equivalence oracles are pinned to.
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
        let mut first_error: Option<SciError> = None;
        let barrier_us = self.core.metrics.barrier_us.clone();
        self.core.pump_settling(now, |worker| {
            #[expect(clippy::disallowed_methods, reason = "telemetry timing")]
            let started = Instant::now();
            if let Err(e) = worker.drain_pending() {
                first_error.get_or_insert(e);
            }
            barrier_us.record(elapsed_us(started));
            for e in worker.take_errors() {
                first_error.get_or_insert(e);
            }
        })?;
        first_error.map_or(Ok(()), Err)
    }

    /// The streaming pump: [`RelayCore::pump`] timed in
    /// `federation.stream.pump_us` — relays whatever every range has
    /// streamed *so far*, without waiting for in-flight commands. Call
    /// it as often as you like between ingest batches; traffic moves as
    /// it appears instead of piling up for one big drain.
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
        #[expect(clippy::disallowed_methods, reason = "telemetry timing")]
        let started = Instant::now();
        let pumped = self.core.pump(now);
        self.core.metrics.stream_pump_us.record(elapsed_us(started));
        pumped
    }

    /// Fires due timers in every range and fails the sources each
    /// range reports silent past their window, then syncs.
    ///
    /// # Errors
    ///
    /// As for [`ParallelFederation::sync`].
    pub fn poll_timers(&mut self, now: VirtualTime) -> SciResult<()> {
        self.core.poll_ranges(now);
        self.sync(now)
    }

    /// Stops every worker and returns the surviving Context Servers in
    /// range-id order (panicked workers' servers are lost with them).
    pub fn shutdown(self) -> Vec<ContextServer> {
        let mut workers: Vec<(Guid, RangeRuntime)> = self.core.hosts.into_iter().collect();
        workers.sort_unstable_by_key(|(id, _)| *id);
        workers
            .into_iter()
            .filter_map(|(_, w)| w.shutdown())
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::context_server::QueryAnswer;
    use sci_location::floorplan::capa_level10;
    use sci_types::guid::GuidGenerator;
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
