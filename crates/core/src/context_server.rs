//! The Context Server.
//!
//! "The Context Server (CS) is the most important component of a Range.
//! It manages the other components and provides the means of
//! communicating with other Ranges in the SCINET. It maintains a central
//! store of entity information as well as managing the context utilities
//! operating within its range. The CS provides the access point for
//! Context Aware Applications to interact with the infrastructure."
//! (paper, Section 3.1)
//!
//! One `ContextServer` governs one Range. It owns the Registrar, Profile
//! Manager, Location Service, Event Mediator and instance store, accepts
//! the four query modes of Section 4.3, stores deferred queries until
//! their When-clause triggers (the CAPA pattern), and dispatches sensor
//! events through live configurations.
//!
//! Every mutating entry point is a thin wrapper over the command
//! dispatcher [`ContextServer::handle`], defined here beside the private
//! `*_impl` arms it routes to: the method builds a
//! [`crate::runtime::RangeCommand`], `handle` logs it and routes it to
//! its arm, and the wrapper unwraps the [`RangeReply`]. The arms are
//! private, so no other module can call one behind the log.
//! Drivers that own a server directly keep the familiar method surface;
//! actor drivers ([`crate::runtime::RangeRuntime`],
//! [`crate::runtime::ParallelFederation`]) ship the same commands over a
//! mailbox instead. The drains (`drain_outbox`, `drain_answers`) are
//! plain methods: they hand queued output to its reader and are not
//! commands.

use std::collections::{BTreeSet, VecDeque};
use std::time::Instant;

use sci_event::bus::SubId;
use sci_event::EventMediator;
use sci_location::floorplan::FloorPlan;
use sci_query::{Mode, Query, What, When, Where, Which};
use sci_types::guid::GuidGenerator;
use sci_types::{
    Advertisement, AnalysisReport, ContextEvent, ContextType, ContextValue, Coord, DiagCode,
    Diagnostic, EntityDescriptor, EntityKind, Guid, HashMap, HashSet, Profile, RepairReport,
    SciError, SciResult, VirtualDuration, VirtualTime,
};

use sci_analysis::fleet::{diff_subscriptions, SubscriptionRecord};

use crate::configuration::{input_topic, Configuration, InstanceStore};
use crate::durability::{encode_snapshot, is_durable, RangeWal};
use crate::history::ContextStore;
use crate::location_service::LocationService;
use crate::logic::LogicFactory;
use crate::migration::MigrationPacket;
use crate::profile_manager::ProfileManager;
use crate::registrar::Registrar;
use sci_telemetry::{Registry, Span, TelemetrySnapshot, Tracer};

use crate::adaptation::{output_types, rewire, unwire};
use crate::resolver::{plan_need, Need};
use crate::runtime::RangeCommand;
use crate::telemetry::{elapsed_us, CsMetrics};

pub use sci_types::{AppDelivery, DeferredAnswer, QueryAnswer, RangeReply};

/// Default liveness window for source CEs that declare a
/// `max-silence-us` attribute without a value the mediator can read.
const DEFAULT_MAX_SILENCE: VirtualDuration = VirtualDuration::from_secs(60);

/// A liveness-table row: `(publisher, last heard, declared window)`.
pub(crate) type LivenessRow = (Guid, VirtualTime, VirtualDuration);

struct DeferredQuery {
    query: Query,
    stored_at: VirtualTime,
}

impl DeferredQuery {
    /// When a timed query is due: `At(t)` at `t`, `After(d)` at its
    /// submission plus `d`. A trigger-fired query has no deadline.
    fn deadline(&self) -> Option<VirtualTime> {
        match self.query.when {
            When::At(t) => Some(t),
            When::After(d) => Some(self.stored_at.saturating_add(d)),
            _ => None,
        }
    }
}

/// The governing server of one Range.
pub struct ContextServer {
    id: Guid,
    name: String,
    registrar: Registrar,
    // `pub(crate)`: the seven tables `adaptation::rewire` works on.
    pub(crate) profiles: ProfileManager,
    pub(crate) mediator: EventMediator,
    location: LocationService,
    pub(crate) instances: InstanceStore,
    factories: HashMap<Guid, LogicFactory>,
    advertisements: HashMap<Guid, Vec<Advertisement>>,
    pub(crate) configurations: HashMap<Guid, Configuration>,
    /// The live configurations without an instance — fed straight from
    /// sources, or raw — by query id: all a rewire visits of them.
    pub(crate) direct: BTreeSet<Guid>,
    /// The original query behind each live configuration, kept so a
    /// migrating owner's subscriptions can be replayed verbatim at its
    /// new home range (a `Configuration` no longer holds the query).
    origin_queries: HashMap<Guid, Query>,
    pub(crate) caa_sub_index: HashMap<SubId, Guid>,
    deferred: Vec<DeferredQuery>,
    outbox: Vec<AppDelivery>,
    answers: Vec<(Guid, Guid, QueryAnswer)>,
    pub(crate) excluded: HashSet<Guid>,
    ids: GuidGenerator,
    auto_register_people: bool,
    stale_drops: u64,
    history: ContextStore,
    verify_plans: bool,
    rejected_plans: u64,
    metrics: CsMetrics,
    /// The range's command log, when one is attached (see
    /// [`crate::durability`]): on disk for a durable range, in memory
    /// for a supervised one.
    wal: Option<RangeWal>,
    /// Next relay-stream envelope sequence for application deliveries,
    /// minted on the worker as traffic leaves the range. Durable state:
    /// it is snapshotted together with the outbox, so a recovered range
    /// re-streams regenerated deliveries under the *same* `(origin,
    /// seq)` envelopes and the federation's exactly-once filter dedups
    /// redelivery.
    stream_delivery_seq: u64,
    /// Next relay-stream envelope sequence for deferred answers (same
    /// contract as `stream_delivery_seq`, separate namespace).
    stream_answer_seq: u64,
}

impl std::fmt::Debug for ContextServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContextServer")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("entities", &self.registrar.len())
            .field("configurations", &self.configurations.len())
            .finish()
    }
}

impl ContextServer {
    /// Creates a Context Server for the range `name` covering `plan`.
    pub fn new(id: Guid, name: impl Into<String>, plan: FloorPlan) -> Self {
        ContextServer::with_registry(id, name, plan, Registry::new())
    }

    /// Creates a Context Server whose instruments register on an
    /// existing telemetry `registry` instead of a fresh one.
    ///
    /// This is the continuity path for supervised restarts: the
    /// registry's get-or-register semantics mean a server rebuilt after
    /// a worker panic keeps incrementing the counters its predecessor
    /// registered, so `range.restarts` sits beside an unbroken command
    /// history rather than a zeroed one.
    pub fn with_registry(
        id: Guid,
        name: impl Into<String>,
        plan: FloorPlan,
        registry: Registry,
    ) -> Self {
        let metrics = CsMetrics::with_registry(registry);
        let mut mediator = EventMediator::new();
        mediator.attach_telemetry(metrics.registry());
        ContextServer {
            id,
            name: name.into(),
            registrar: Registrar::new(),
            profiles: ProfileManager::new(),
            mediator,
            location: LocationService::new(plan),
            instances: InstanceStore::new(true),
            factories: HashMap::default(),
            advertisements: HashMap::default(),
            configurations: HashMap::default(),
            direct: BTreeSet::new(),
            origin_queries: HashMap::default(),
            caa_sub_index: HashMap::default(),
            deferred: Vec::new(),
            outbox: Vec::new(),
            answers: Vec::new(),
            excluded: HashSet::default(),
            ids: GuidGenerator::seeded(id.as_u128() as u64),
            auto_register_people: true,
            stale_drops: 0,
            history: ContextStore::default(),
            verify_plans: true,
            rejected_plans: 0,
            metrics,
            wal: None,
            stream_delivery_seq: 0,
            stream_answer_seq: 0,
        }
    }

    // ------------------------------------------------------------------
    // The command dispatcher: the range's one door
    // ------------------------------------------------------------------

    /// The range's command dispatcher: executes one [`RangeCommand`]
    /// against this server at logical time `now`.
    ///
    /// This is the single mutation point of a range: the drains only
    /// hand queued output to its reader. The public methods
    /// (`register`, `submit_query`, `ingest`, …) are thin wrappers that
    /// build the command and unwrap the reply; actor drivers ship the
    /// same commands over a mailbox. The arms it routes to are private
    /// to this module, so nothing else can reach them.
    ///
    /// # Errors
    ///
    /// Whatever the underlying operation returns.
    pub fn handle(&mut self, cmd: RangeCommand, now: VirtualTime) -> SciResult<RangeReply> {
        let idx = cmd.kind_index();
        let tracer = self.metrics.tracer().clone();
        let mut span = tracer.span(cmd.kind());
        #[expect(clippy::disallowed_methods, reason = "telemetry timing")]
        let started = Instant::now();

        // Durability: append-before-apply. The log stays inside the
        // server for the whole dispatch: if the apply panics, whoever
        // catches it finds the record still marked unapplied and
        // retires it (see `RangeWal::retire_unapplied`).
        let logged = match self.wal.as_mut() {
            Some(wal) if is_durable(&cmd) => {
                if let Err(e) = wal.append(&cmd, now) {
                    self.metrics.record_command(idx, elapsed_us(started));
                    return Err(e);
                }
                true
            }
            _ => false,
        };
        let reply = self.handle_inner(cmd, now, &mut span);
        // Snapshot *after* applying: the payload captures the
        // command's effects (outbox included), and its applied index
        // covers the command's own record. A failed write leaves the
        // due-counter alone, so the next logged command retries.
        if logged && self.wal.as_mut().is_some_and(|wal| wal.applied()) {
            let snapshot = encode_snapshot(self, now);
            if let Some(wal) = self.wal.as_mut() {
                let _ = wal.write_snapshot(snapshot);
            }
        }
        self.metrics.record_command(idx, elapsed_us(started));
        reply
    }

    fn handle_inner(
        &mut self,
        cmd: RangeCommand,
        now: VirtualTime,
        span: &mut Span<'_>,
    ) -> SciResult<RangeReply> {
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
            RangeCommand::Deregister(id) => self.deregister_impl(id).map(RangeReply::Deregistered),
            RangeCommand::Submit(query) => {
                self.submit_query_impl(&query, now).map(RangeReply::Answer)
            }
            RangeCommand::Cancel(query_id) => {
                self.cancel_query_impl(query_id).map(|()| RangeReply::Ack)
            }
            RangeCommand::Ingest(event) => {
                self.metrics.trace_key(span, &event);
                self.ingest_impl(&event, now).map(|()| RangeReply::Ack)
            }
            RangeCommand::IngestBatch(events) => {
                let mut first_error = None;
                let mut applied = 0usize;
                for event in &events {
                    self.metrics.trace_key(span, event);
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
            RangeCommand::PollTimers => {
                let fired = self.poll_timers_impl(now)?;
                let silent = self.mediator.silent_publishers(now);
                Ok(RangeReply::Fired { fired, silent })
            }
            RangeCommand::ExpireHistory => Ok(RangeReply::Expired(self.expire_history_impl(now))),
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
                .migrate_out_impl(id)
                .map(|packet| RangeReply::Migrated(packet.to_xml())),
            RangeCommand::MigrateIn(packet) => {
                self.migrate_in_impl(*packet, now).map(|()| RangeReply::Ack)
            }
            RangeCommand::Fail(ce) => Ok(RangeReply::Repaired(self.fail_impl(ce, now, span))),
        }
    }

    /// The range's telemetry registry. The handle is `Arc`-shared:
    /// clone it before moving the server onto a worker thread and the
    /// clone keeps observing the live counters.
    pub fn telemetry(&self) -> &Registry {
        self.metrics.registry()
    }

    /// Freezes the range's telemetry registry.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.metrics.registry().snapshot()
    }

    /// Installs a tracer for structured span/event output (default:
    /// no-op — tracing costs nothing until a subscriber is attached).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.metrics.set_tracer(tracer);
    }

    /// The server's SCINET GUID.
    pub fn id(&self) -> Guid {
        self.id
    }

    /// The range name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enables or disables configuration-subgraph reuse (E8 ablation).
    /// Only affects configurations created afterwards.
    pub fn set_reuse(&mut self, reuse: bool) {
        let _ = self.handle(RangeCommand::SetReuse(reuse), VirtualTime::ZERO);
    }

    fn set_reuse_impl(&mut self, reuse: bool) {
        if self.instances.is_empty() {
            self.instances = InstanceStore::new(reuse);
        }
    }

    fn set_auto_register_people_impl(&mut self, enabled: bool) {
        self.auto_register_people = enabled;
    }

    /// The Registrar (read access).
    pub fn registrar(&self) -> &Registrar {
        &self.registrar
    }

    /// The Profile Manager (read access).
    pub fn profiles(&self) -> &ProfileManager {
        &self.profiles
    }

    /// The Location Service (read access).
    pub fn location(&self) -> &LocationService {
        &self.location
    }

    /// The Event Mediator (read access).
    pub fn mediator(&self) -> &EventMediator {
        &self.mediator
    }

    /// Number of live logic instances (E8 measurable).
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// The instance store (read access, for invariant checking and
    /// diagnostics).
    pub fn instances(&self) -> &InstanceStore {
        &self.instances
    }

    /// Iterates over the live configurations.
    pub fn configurations(&self) -> impl Iterator<Item = &Configuration> {
        self.configurations.values()
    }

    /// Number of live configurations.
    pub fn configuration_count(&self) -> usize {
        self.configurations.len()
    }

    /// CEs currently excluded as failed.
    pub fn excluded(&self) -> &HashSet<Guid> {
        &self.excluded
    }

    /// Deliveries dropped for violating a freshness contract
    /// (`qoc-max-age-us`).
    pub fn stale_drops(&self) -> u64 {
        self.stale_drops
    }

    /// The range's context history (paper: "context gathering and
    /// storage"). Records every ingested and derived event, bounded per
    /// (type, subject).
    pub fn history(&self) -> &ContextStore {
        &self.history
    }

    fn expire_history_impl(&mut self, now: VirtualTime) -> usize {
        self.history.expire(now)
    }

    // ------------------------------------------------------------------
    // Registration (Figure 5's discovery endpoint)
    // ------------------------------------------------------------------

    /// Registers an entity with its profile (the Registrar/Profile
    /// Manager handshake of Figure 5).
    ///
    /// Source CEs that declare a `max-silence-us` integer attribute are
    /// liveness-tracked by the Event Mediator for failure detection.
    ///
    /// # Errors
    ///
    /// Rejects double registrations.
    pub fn register(&mut self, profile: Profile, now: VirtualTime) -> SciResult<()> {
        self.handle(RangeCommand::Register(Box::new(profile)), now)
            .map(drop)
    }

    fn register_impl(&mut self, profile: Profile, now: VirtualTime) -> SciResult<()> {
        self.registrar.register(profile.descriptor().clone())?;
        if profile.is_source() {
            if let Some(us) = profile
                .attributes()
                .get("max-silence-us")
                .and_then(ContextValue::as_int)
            {
                let window = if us > 0 {
                    VirtualDuration::from_micros(us as u64)
                } else {
                    DEFAULT_MAX_SILENCE
                };
                self.mediator.track_publisher(profile.id(), window, now);
            }
        }
        // A repaired CE re-registering stops being excluded.
        self.excluded.remove(&profile.id());
        let (id, outputs) = (profile.id(), output_types(&profile));
        self.profiles.insert(profile)?;
        // New sensing capability benefits running configurations
        // immediately (positive adaptivity).
        rewire(self, id, &outputs);
        Ok(())
    }

    /// Registers the behaviour of a derived CE class, enabling the
    /// resolver to instantiate it.
    pub fn register_logic(&mut self, ce: Guid, factory: LogicFactory) {
        let _ = self.handle(RangeCommand::RegisterLogic(ce, factory), VirtualTime::ZERO);
    }

    fn register_logic_impl(&mut self, ce: Guid, factory: LogicFactory) {
        self.factories.insert(ce, factory);
    }

    /// Declares two context types semantically equivalent for this
    /// range: providers of either satisfy demands for the other (paper
    /// §6, open issue 2 — and the fix for the iQueue limitation
    /// discussed in §2).
    pub fn declare_equivalence(&mut self, a: ContextType, b: ContextType) {
        let _ = self.handle(RangeCommand::DeclareEquivalence(a, b), VirtualTime::ZERO);
    }

    fn declare_equivalence_impl(&mut self, a: ContextType, b: ContextType) {
        self.profiles.declare_equivalence(a.clone(), b);
        // A source of any type in the merged class may now feed needs
        // for the others (classes merge, so not only `a`'s and `b`'s).
        let providers = self.profiles.providers_of_compatible(&a).into_iter();
        let sources: Vec<_> = providers.map(|p| (p.id(), output_types(p))).collect();
        for (source, outputs) in sources {
            rewire(self, source, &outputs);
        }
    }

    /// Records a liveness heartbeat from a tracked source CE without an
    /// event (sensors that only publish on activity heartbeat instead).
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownEntity`] if the CE is not
    /// liveness-tracked.
    pub fn heartbeat(&mut self, ce: Guid, now: VirtualTime) -> SciResult<()> {
        self.handle(RangeCommand::Heartbeat(ce), now).map(drop)
    }

    fn heartbeat_impl(&mut self, ce: Guid, now: VirtualTime) -> SciResult<()> {
        self.mediator.heartbeat(ce, now)
    }

    /// Stores a service advertisement for a registered entity.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownEntity`] if the provider is not
    /// registered.
    pub fn advertise(&mut self, ad: Advertisement) -> SciResult<()> {
        self.handle(RangeCommand::Advertise(Box::new(ad)), VirtualTime::ZERO)
            .map(drop)
    }

    fn advertise_impl(&mut self, ad: Advertisement) -> SciResult<()> {
        if !self.registrar.is_registered(ad.provider()) {
            return Err(SciError::UnknownEntity(ad.provider()));
        }
        let ads = self.advertisements.entry(ad.provider()).or_default();
        // Re-advertising the identical service is a no-op, not a
        // second copy.
        if !ads.contains(&ad) {
            ads.push(ad);
        }
        Ok(())
    }

    /// Deregisters a departing entity, cleaning up its subscriptions and
    /// repairing configurations that depended on it.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownEntity`] if absent.
    pub fn deregister(&mut self, id: Guid, now: VirtualTime) -> SciResult<EntityDescriptor> {
        match self.handle(RangeCommand::Deregister(id), now)? {
            RangeReply::Deregistered(descriptor) => Ok(descriptor),
            other => Err(SciError::Internal(format!(
                "deregister expected `deregistered` reply, got `{}`",
                other.kind()
            ))),
        }
    }

    fn deregister_impl(&mut self, id: Guid) -> SciResult<EntityDescriptor> {
        let (descriptor, held) = self.evict(id)?;
        // Its registrations and queries go with it; what was already
        // produced for it stays queued until somebody drains it.
        self.outbox.extend(held.deliveries);
        self.answers.extend(held.answers);
        Ok(descriptor)
    }

    // ------------------------------------------------------------------
    // What the range holds on behalf of an entity
    // ------------------------------------------------------------------

    /// What this range holds on behalf of `who` — of everyone it
    /// serves, for `None` — cloned, every section in a deterministic
    /// order. `deregister`, `migrate-out` and the durability snapshot
    /// share this one definition.
    pub(crate) fn held(&self, who: Option<Guid>) -> MigrationPacket {
        fn pick<'a, T: Clone + 'a>(
            items: impl IntoIterator<Item = &'a T>,
            mine: impl Fn(&T) -> bool,
        ) -> Vec<T> {
            items.into_iter().filter(|t| mine(t)).cloned().collect()
        }
        let mine = |owner: Guid| who.is_none_or(|who| who == owner);
        let mut held = MigrationPacket {
            entity: who.unwrap_or(self.id),
            // One entity's profile is a lookup, not a scan of everyone's:
            // a handoff must not cost in proportion to the range.
            profiles: match who {
                Some(who) => self.profiles.get(who).cloned().into_iter().collect(),
                None => self.profiles.iter().cloned().collect(),
            },
            advertisements: pick(self.advertisements.values().flatten(), |ad| {
                mine(ad.provider())
            }),
            standing: pick(self.origin_queries.values(), |q| mine(q.owner)),
            deferred: self
                .deferred
                .iter()
                .filter(|d| mine(d.query.owner))
                .map(|d| (d.query.clone(), d.stored_at))
                .collect(),
            deliveries: pick(&self.outbox, |d| mine(d.app)),
            answers: pick(&self.answers, |a| mine(a.1)),
        };
        // The maps iterate in no order; a provider's own advertisements
        // stay in theirs (the sort is stable).
        held.profiles.sort_by_key(Profile::id);
        held.advertisements.sort_by_key(Advertisement::provider);
        held.standing.sort_by_key(|q| q.id);
        held
    }

    /// The taker: removes everything this range holds on behalf of
    /// `id` and hands it back, and rewires what its outputs fed.
    /// Leaving is not failing: the entity is *not* marked excluded, and
    /// a mark it carried goes with it — the wiring rule reads
    /// registered profiles only and `register` clears the mark, so on
    /// an absent entity nothing could ever read it.
    ///
    /// # Errors
    ///
    /// [`SciError::UnknownEntity`] (counted) if the entity is not
    /// registered here; nothing is taken.
    fn evict(&mut self, id: Guid) -> SciResult<(EntityDescriptor, MigrationPacket)> {
        let descriptor = match self.registrar.deregister(id) {
            Ok(descriptor) => descriptor,
            Err(e) => {
                self.metrics.deregister_unknown.inc();
                return Err(e);
            }
        };
        let held = self.held(Some(id));
        let outputs = self.profiles.remove(id).map(|p| output_types(&p));
        if outputs.is_err() {
            // Registered but profile-less: at least counted.
            self.metrics.deregister_unknown.inc();
        }
        self.mediator.purge_entity(id);
        self.location.forget(id);
        self.advertisements.remove(&id);
        for query in held
            .standing
            .iter()
            .chain(held.deferred.iter().map(|d| &d.0))
        {
            let _ = self.cancel_query_impl(query.id);
        }
        self.outbox.retain(|d| d.app != id);
        self.answers.retain(|a| a.1 != id);
        self.excluded.remove(&id);
        unwire(self, id, &outputs.unwrap_or_default());
        Ok((descriptor, held))
    }

    /// The applier: makes this range hold `held`, in the order the
    /// state was first built. Registrations, then the `excluded` marks
    /// (`register` clears an entity's exclusion, so not earlier), then
    /// queries, then the verbatim transients. A standing query goes
    /// straight to execution — its trigger fired before it was taken,
    /// and `Submit` would park it as deferred again; a deferred one is
    /// submitted at the instant it was first stored, re-arming the same
    /// absolute timer. Returns how many standing queries were dropped
    /// because no provider here resolves them.
    ///
    /// # Errors
    ///
    /// The first other failure; the rest is still applied, so a
    /// partially applicable packet loses as little as possible.
    fn adopt(
        &mut self,
        held: MigrationPacket,
        excluded: Vec<Guid>,
        now: VirtualTime,
    ) -> SciResult<usize> {
        let mut first_error = None;
        let mut note = |outcome: SciResult<()>| {
            if let Err(e) = outcome {
                first_error.get_or_insert(e);
            }
        };
        for profile in held.profiles {
            note(self.register_impl(profile, now));
        }
        self.excluded.extend(excluded);
        for ad in held.advertisements {
            note(self.advertise_impl(ad));
        }
        let mut unresolved = 0;
        for query in &held.standing {
            match self.execute_query(query, now) {
                Err(SciError::Unresolvable(_)) => unresolved += 1,
                outcome => note(outcome.map(drop)),
            }
        }
        for (query, stored_at) in &held.deferred {
            note(self.submit_query_impl(query, *stored_at).map(drop));
        }
        self.outbox.extend(held.deliveries);
        self.answers.extend(held.answers);
        first_error.map_or(Ok(unresolved), Err)
    }

    /// Snapshot restore: [`ContextServer::adopt`] for everyone, then
    /// the range-only tables — when each tracked source was last heard
    /// (`None`, a snapshot that predates the table, leaves what the
    /// registrations seeded), the history table (filed a run of records
    /// at a time by [`ContextStore::import`], not decoded), last known
    /// positions (over whatever the registrations seeded) and the
    /// stream sequence counters, fast-forwarded and never rewound so a
    /// rebuilt server cannot re-mint envelope seqs the federation has
    /// already recorded for *different* traffic.
    ///
    /// # Errors
    ///
    /// [`ContextServer::adopt`]'s, or the history table's.
    pub(crate) fn import(
        &mut self,
        held: MigrationPacket,
        excluded: Vec<Guid>,
        history: &[u8],
        (positions, liveness): (Vec<(Guid, Coord)>, Option<Vec<LivenessRow>>),
        (delivery_seq, answer_seq): (u64, u64),
        now: VirtualTime,
    ) -> SciResult<usize> {
        let unresolved = self.adopt(held, excluded, now)?;
        // `adopt` re-registered every tracked source as first heard
        // `now` (a failed one included); the table says when each was.
        if let Some(liveness) = liveness {
            self.mediator.restore_liveness(liveness);
        }
        self.history.import(history)?;
        for (entity, at) in positions {
            self.location.set_position(entity, at);
        }
        self.stream_delivery_seq = self.stream_delivery_seq.max(delivery_seq);
        self.stream_answer_seq = self.stream_answer_seq.max(answer_seq);
        Ok(unresolved)
    }

    // ------------------------------------------------------------------
    // Entity migration (city-scale mobility)
    // ------------------------------------------------------------------

    /// Packages a departing entity's full state for replay at another
    /// range: profile, advertisements, the standing and deferred
    /// queries it owns, and any undrained deliveries or answers. The
    /// entity is removed locally — migration is departure, not
    /// failure, so it is *not* excluded from future plans.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownEntity`] if the entity is not
    /// registered here.
    pub fn migrate_out(&mut self, id: Guid, now: VirtualTime) -> SciResult<MigrationPacket> {
        match self.handle(RangeCommand::MigrateOut(id), now)? {
            RangeReply::Migrated(xml) => MigrationPacket::from_xml(&xml),
            other => Err(SciError::Internal(format!(
                "migrate-out expected `migrated` reply, got `{}`",
                other.kind()
            ))),
        }
    }

    fn migrate_out_impl(&mut self, id: Guid) -> SciResult<MigrationPacket> {
        let (_, held) = self.evict(id)?;
        self.metrics.migrate_out.inc();
        Ok(held)
    }

    /// Replays a migration packet, making this range the entity's new
    /// home: profile and advertisements re-register, its queries are
    /// re-submitted (re-resolving against local providers), and
    /// undrained deliveries/answers land in the local outboxes.
    ///
    /// # Errors
    ///
    /// Returns the first replay error; later parts are still applied
    /// so a partially-resolvable packet loses as little as possible.
    pub fn migrate_in(&mut self, packet: MigrationPacket, now: VirtualTime) -> SciResult<()> {
        self.handle(RangeCommand::MigrateIn(Box::new(packet)), now)
            .map(drop)
    }

    fn migrate_in_impl(&mut self, packet: MigrationPacket, now: VirtualTime) -> SciResult<()> {
        let entity = packet.entity;
        // The mover may have been sensed here before its state arrived
        // and auto-registered as a skeleton; the packaged profile wins.
        if self.registrar.is_registered(entity) {
            let _ = self.deregister_impl(entity);
        }
        let adopted = self.adopt(packet, Vec::new(), now);
        self.metrics.migrate_in.inc();
        match adopted? {
            0 => Ok(()),
            n => Err(SciError::Unresolvable(format!(
                "{n} standing queries of {entity} found no provider in {}",
                self.name
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Queries (Section 4.3)
    // ------------------------------------------------------------------

    /// Submits a query to this range's Context Server.
    ///
    /// A query whose id is already live here — an application whose
    /// answer was lost on the way home can only find out by asking again
    /// — is answered from what is live (its configuration, or
    /// `Deferred`) and wires nothing a second time.
    ///
    /// # Errors
    ///
    /// * [`SciError::Unresolvable`] when no configuration satisfies it.
    /// * [`SciError::UnknownLocation`] for Where clauses naming nothing.
    pub fn submit_query(&mut self, query: &Query, now: VirtualTime) -> SciResult<QueryAnswer> {
        match self.handle(RangeCommand::Submit(Box::new(query.clone())), now)? {
            RangeReply::Answer(answer) => Ok(answer),
            other => Err(SciError::Internal(format!(
                "submit expected `answer` reply, got `{}`",
                other.kind()
            ))),
        }
    }

    fn submit_query_impl(&mut self, query: &Query, now: VirtualTime) -> SciResult<QueryAnswer> {
        // Federation: a Where targeting a different range is forwarded.
        if let Where::Range(range) = &query.where_ {
            if range != &self.name {
                return Ok(QueryAnswer::Forward {
                    range: range.clone(),
                });
            }
        }
        if let Some(live) = self.configurations.get(&query.id) {
            return Ok(QueryAnswer::Subscribed {
                configuration: query.id,
                producers: live.root_producers.clone(),
            });
        }
        if self.deferred.iter().any(|d| d.query.id == query.id) {
            return Ok(QueryAnswer::Deferred);
        }
        // Places this server must know about: an explicit Where place
        // and any When trigger place (we cannot hear a door we do not
        // cover). Unknown places error with `UnknownLocation`, which the
        // federation layer turns into forwarding via its place
        // directory — the lobby→Level-Ten hand-off of the CAPA story.
        let mut required_places: Vec<&str> = Vec::new();
        if let Where::Place(place) = &query.where_ {
            required_places.push(place);
        }
        if let When::OnEnter { place, .. } | When::OnLeave { place, .. } = &query.when {
            required_places.push(place);
        }
        for place in required_places {
            if self.location.plan().room(place).is_none()
                && self.location.plan().logical().path_of(place).is_none()
            {
                return Err(SciError::UnknownLocation(place.to_owned()));
            }
        }

        if query.is_deferred() {
            self.deferred.push(DeferredQuery {
                query: query.clone(),
                stored_at: now,
            });
            return Ok(QueryAnswer::Deferred);
        }

        self.execute_query(query, now)
    }

    /// Cancels a live configuration or pending deferred query.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownSubscription`] when nothing with that
    /// id is live.
    pub fn cancel_query(&mut self, query_id: Guid) -> SciResult<()> {
        self.handle(RangeCommand::Cancel(query_id), VirtualTime::ZERO)
            .map(drop)
    }

    fn cancel_query_impl(&mut self, query_id: Guid) -> SciResult<()> {
        if let Some(config) = self.configurations.remove(&query_id) {
            self.origin_queries.remove(&query_id);
            self.direct.remove(&query_id);
            for sub in &config.caa_subs {
                self.caa_sub_index.remove(sub);
            }
            self.instances.teardown(&config, &mut self.mediator);
            return Ok(());
        }
        let before = self.deferred.len();
        self.deferred.retain(|d| d.query.id != query_id);
        if self.deferred.len() < before {
            return Ok(());
        }
        Err(SciError::UnknownSubscription(query_id.as_u128() as u64))
    }

    fn execute_query(&mut self, query: &Query, now: VirtualTime) -> SciResult<QueryAnswer> {
        match query.mode {
            Mode::Profile => {
                let selected = self.select_entities(query)?;
                Ok(QueryAnswer::Profiles(
                    selected
                        .iter()
                        .filter_map(|&id| self.profiles.get(id).cloned())
                        .collect(),
                ))
            }
            Mode::Advertisement => {
                let selected = self.select_entities(query)?;
                let ads: Vec<Advertisement> = selected
                    .iter()
                    .flat_map(|id| self.advertisements.get(id).cloned().unwrap_or_default())
                    .collect();
                if ads.is_empty() {
                    return Err(SciError::Unresolvable(format!(
                        "query {}: selected entities advertise no services",
                        query.id
                    )));
                }
                Ok(QueryAnswer::Advertisements(ads))
            }
            Mode::Subscribe | Mode::SubscribeOnce => {
                let one_time = query.mode == Mode::SubscribeOnce;
                self.build_subscription(query, one_time, now)
            }
        }
    }

    fn build_subscription(
        &mut self,
        query: &Query,
        one_time: bool,
        _now: VirtualTime,
    ) -> SciResult<QueryAnswer> {
        let need = match &query.what {
            What::Information { ty, constraints } => Some(Need::stated(ty, constraints)),
            What::Kind(_) | What::Named(_) => None,
        };
        let mut config = match &need {
            Some(need) => {
                #[expect(clippy::disallowed_methods, reason = "telemetry timing")]
                let plan_started = Instant::now();
                let planned = plan_need(&self.profiles, need, &self.excluded);
                self.metrics.record_plan_attempt(elapsed_us(plan_started));
                let plan = planned?;
                self.metrics.record_plan_shape(
                    plan.nodes.len(),
                    plan.nodes.iter().map(|n| n.inputs.len()).sum(),
                );
                // Mandatory pre-instantiation gate: no subscription is
                // wired for a plan static analysis rejects (bypassable
                // via `RangeCommand::SetPlanVerification(false)`).
                if self.verify_plans {
                    let report = self.analyze_plan(&plan);
                    if report.has_errors() {
                        self.rejected_plans += 1;
                        self.metrics.plan_rejected.inc();
                        return Err(SciError::PlanRejected(report.summary()));
                    }
                }
                self.instances.instantiate(
                    &plan,
                    query.id,
                    query.owner,
                    one_time,
                    &mut self.mediator,
                    &mut self.ids,
                    &self.factories,
                )?
            }
            None => {
                // Subscribe to raw events from the selected entities.
                let selected = self.select_entities(query)?;
                Configuration {
                    query_id: query.id,
                    owner: query.owner,
                    root_producers: selected,
                    instances: Vec::new(),
                    caa_subs: Vec::new(),
                    one_time,
                    plan: crate::resolver::ConfigurationPlan {
                        nodes: Vec::new(),
                        roots: Vec::new(),
                        output: ContextType::custom("raw"),
                    },
                    need: None,
                    max_age: None,
                }
            }
        };
        let subject = need.as_ref().and_then(|n| n.subject);
        config.need = need;
        config.max_age = query.max_age();

        // Subscribe the CAA to each root producer (Kind/Named
        // subscriptions have no plan, so no root: raw events).
        for (i, &producer) in config.root_producers.iter().enumerate() {
            let root = config
                .plan
                .roots
                .get(i)
                .map(|&root| &config.plan.nodes[root]);
            let topic = input_topic(root.map(|node| node.output.clone()), producer, subject);
            let sub = self.mediator.subscribe(query.owner, topic, one_time);
            config.caa_subs.push(sub);
            self.caa_sub_index.insert(sub, query.id);
        }

        let producers = config.root_producers.clone();
        if config.instances.is_empty() {
            self.direct.insert(query.id);
        }
        self.configurations.insert(query.id, config);
        self.origin_queries.insert(query.id, query.clone());
        Ok(QueryAnswer::Subscribed {
            configuration: query.id,
            producers,
        })
    }

    /// Applies What, Where and Which to the registered profiles,
    /// returning the selected entity GUIDs.
    fn select_entities(&self, query: &Query) -> SciResult<Vec<Guid>> {
        // Narrow the candidate pool through the profile indexes where the
        // What clause allows it: a Named query is one hash lookup, an
        // Information query starts from the providers of its type. Only
        // Kind queries still enumerate every profile. The full matcher
        // predicate runs on the narrowed pool either way, and the
        // name-sort below keeps selection deterministic regardless of
        // enumeration order.
        let pool: Vec<&Profile> = match &query.what {
            What::Named(id) => self.profiles.get(*id).into_iter().collect(),
            What::Information { ty, .. } => self.profiles.providers_of(ty),
            What::Kind(_) => self.profiles.iter().collect(),
        };
        let candidates: Vec<&Profile> = pool
            .into_iter()
            .filter(|p| sci_query::matcher::matches(&query.what, p))
            .filter(|p| !self.excluded.contains(&p.id()))
            .filter(|p| self.where_allows(&query.where_, query.owner, p))
            .collect();
        if candidates.is_empty() {
            return Err(SciError::Unresolvable(format!(
                "no entity matches {} {}",
                query.what, query.where_
            )));
        }
        let mut sorted: Vec<&Profile> = candidates;
        sorted.sort_by(|a, b| a.name().cmp(b.name()));
        self.apply_which(&query.which, &query.where_, query.owner, sorted)
    }

    fn candidate_position(&self, profile: &Profile) -> Option<sci_types::Coord> {
        if let Some(room) = profile
            .attributes()
            .get("room")
            .and_then(ContextValue::as_text)
        {
            if let Ok(c) = self.location.plan().centroid(room) {
                return Some(c);
            }
        }
        self.location.position_of(profile.id())
    }

    fn where_allows(&self, where_: &Where, owner: Guid, profile: &Profile) -> bool {
        match where_ {
            Where::Anywhere | Where::ClosestTo(_) => true,
            Where::Range(r) => r == &self.name,
            Where::Place(place) => {
                let room = profile
                    .attributes()
                    .get("room")
                    .and_then(ContextValue::as_text)
                    .map(str::to_owned)
                    .or_else(|| self.location.room_of(profile.id()).map(str::to_owned));
                match room {
                    Some(room) => self.location.room_in_scope(&room, place),
                    None => false,
                }
            }
            Where::Within { center, radius_m } => {
                let reference = self.location.position_of(center.resolve(owner));
                match (reference, self.candidate_position(profile)) {
                    (Some(r), Some(c)) => r.distance(c) <= *radius_m,
                    _ => false,
                }
            }
        }
    }

    fn apply_which(
        &self,
        which: &Which,
        where_: &Where,
        owner: Guid,
        candidates: Vec<&Profile>,
    ) -> SciResult<Vec<Guid>> {
        match which {
            Which::All => Ok(candidates.iter().map(|p| p.id()).collect()),
            Which::Any => Ok(vec![candidates[0].id()]),
            Which::Closest => {
                let reference_entity = match where_ {
                    Where::ClosestTo(s) => s.resolve(owner),
                    Where::Within { center, .. } => center.resolve(owner),
                    _ => owner,
                };
                let reference = self.location.position_of(reference_entity).ok_or_else(|| {
                    SciError::Unresolvable(format!(
                        "closest-selection reference {reference_entity} has unknown position"
                    ))
                })?;
                let best = candidates
                    .iter()
                    .filter_map(|p| {
                        self.candidate_position(p)
                            .map(|c| (p.id(), c.distance(reference)))
                    })
                    .min_by(|(_, a), (_, b)| a.total_cmp(b))
                    .ok_or_else(|| {
                        SciError::Unresolvable(
                            "no candidate has a known position for closest-selection".into(),
                        )
                    })?;
                Ok(vec![best.0])
            }
            Which::MinAttr(attr) | Which::MaxAttr(attr) => {
                let maximize = matches!(which, Which::MaxAttr(_));
                let best = candidates
                    .iter()
                    .filter_map(|p| {
                        p.attributes()
                            .get(attr)
                            .and_then(ContextValue::as_float)
                            .map(|v| (p.id(), v))
                    })
                    .min_by(|(_, a), (_, b)| {
                        let ord = a.total_cmp(b);
                        if maximize {
                            ord.reverse()
                        } else {
                            ord
                        }
                    })
                    .ok_or_else(|| {
                        SciError::Unresolvable(format!("no candidate has attribute `{attr}`"))
                    })?;
                Ok(vec![best.0])
            }
            Which::Filtered { predicates, then } => {
                let surviving: Vec<&Profile> = candidates
                    .into_iter()
                    .filter(|p| sci_query::predicate::eval_all(predicates, p.attributes()))
                    .collect();
                if surviving.is_empty() {
                    return Err(SciError::Unresolvable(
                        "no candidate satisfies the which-filter".into(),
                    ));
                }
                self.apply_which(then, where_, owner, surviving)
            }
        }
    }

    // ------------------------------------------------------------------
    // Event ingestion and dispatch
    // ------------------------------------------------------------------

    /// Feeds one sensor event into the range: updates location and
    /// profile state, fires deferred-query triggers, then cascades it
    /// through live configurations to applications.
    ///
    /// # Errors
    ///
    /// Propagates trigger-execution failures (the event itself is always
    /// absorbed).
    pub fn ingest(&mut self, event: &ContextEvent, now: VirtualTime) -> SciResult<()> {
        self.handle(RangeCommand::Ingest(event.clone()), now)
            .map(drop)
    }

    fn ingest_impl(&mut self, event: &ContextEvent, now: VirtualTime) -> SciResult<()> {
        self.history.record(event);
        self.location.ingest(event);
        self.range_service_observe(event, now)?;
        self.refresh_profile_from_event(event);
        self.check_triggers(event, now)?;
        self.dispatch(event.clone(), now);
        Ok(())
    }

    /// The Range Service behaviour: sensed but unregistered people are
    /// registered on arrival; W-LAN disassociation deregisters entities
    /// that were auto-registered this way.
    fn range_service_observe(&mut self, event: &ContextEvent, now: VirtualTime) -> SciResult<()> {
        if !self.auto_register_people || event.topic != ContextType::Presence {
            return Ok(());
        }
        let Some(subject) = event.subject() else {
            return Ok(());
        };
        let kind = event
            .payload
            .field("kind")
            .and_then(ContextValue::as_text)
            .unwrap_or("crossing");
        match kind {
            "disassociate" => {
                if self.registrar.is_registered(subject) {
                    // Graceful departure of a sensed person.
                    let _ = self.deregister_impl(subject);
                }
            }
            _ => {
                if !self.registrar.is_registered(subject) {
                    let profile =
                        Profile::builder(subject, EntityKind::Person, format!("person-{subject}"))
                            .build();
                    self.register_impl(profile, now)?;
                }
            }
        }
        Ok(())
    }

    /// Keeps profile attributes current from device status events so
    /// Which-clause selection sees live state (printer queues, paper) —
    /// and, when a value changed, so does every recorded need that
    /// tests it: "a printer with paper" is rewired on a refill.
    fn refresh_profile_from_event(&mut self, event: &ContextEvent) {
        if event.topic != ContextType::PrinterStatus {
            return;
        }
        let mut changed = false;
        for key in ["queue", "paper", "room", "restricted"] {
            if let Some(value) = event.payload.field(key) {
                let update = self
                    .profiles
                    .update_attribute(event.source, key, value.clone());
                changed |= update.is_ok_and(|before| before.as_ref() != Some(value));
            }
        }
        if !changed {
            return;
        }
        let outputs = self.profiles.get(event.source).map(output_types);
        rewire(self, event.source, &outputs.unwrap_or_default());
    }

    fn check_triggers(&mut self, event: &ContextEvent, now: VirtualTime) -> SciResult<()> {
        if self.deferred.is_empty() || event.topic != ContextType::Presence {
            return Ok(());
        }
        let Some(subject) = event.subject() else {
            return Ok(());
        };
        let to = event.payload.field("to").and_then(ContextValue::as_text);
        let from = event.payload.field("from").and_then(ContextValue::as_text);

        let mut fired = Vec::new();
        self.deferred.retain(|d| {
            let hit = match &d.query.when {
                When::OnEnter { entity, place } => {
                    entity.resolve(d.query.owner) == subject && to == Some(place.as_str())
                }
                When::OnLeave { entity, place } => {
                    entity.resolve(d.query.owner) == subject && from == Some(place.as_str())
                }
                _ => false,
            };
            if hit {
                fired.push(d.query.clone());
                false
            } else {
                true
            }
        });
        for query in fired {
            let answer = self.execute_query(&query, now);
            self.record_deferred_answer(query, answer);
        }
        Ok(())
    }

    fn record_deferred_answer(&mut self, query: Query, answer: SciResult<QueryAnswer>) {
        // Failures surface as empty answers; applications re-query.
        match answer {
            Ok(a) => self.answers.push((query.id, query.owner, a)),
            Err(_) => self
                .answers
                .push((query.id, query.owner, QueryAnswer::Profiles(Vec::new()))),
        }
    }

    /// Fires timer-based deferred queries (`When::At` / `When::After`)
    /// that are due. Sources silent past their window are not failed:
    /// a driver's `poll_timers` (`RelayCore::poll_ranges`) does that.
    ///
    /// # Errors
    ///
    /// A failed write-ahead-log append on a durable server (`PollTimers`
    /// is a logged command).
    pub fn poll_timers(&mut self, now: VirtualTime) -> SciResult<usize> {
        match self.handle(RangeCommand::PollTimers, now)? {
            RangeReply::Fired { fired, .. } => Ok(fired),
            other => Err(SciError::Internal(format!(
                "poll_timers expected `fired` reply, got `{}`",
                other.kind()
            ))),
        }
    }

    fn poll_timers_impl(&mut self, now: VirtualTime) -> SciResult<usize> {
        // Periodic housekeeping: drop history past its retention window.
        self.history.expire(now);
        let (mut due, waiting): (Vec<_>, Vec<_>) = std::mem::take(&mut self.deferred)
            .into_iter()
            .partition(|d| d.deadline().is_some_and(|t| t <= now));
        self.deferred = waiting;
        // `deferred` is in submission order and the sort is stable: the
        // due queries fire by deadline, then in the order they came.
        due.sort_by_key(DeferredQuery::deadline);
        let fired = due.len();
        for d in due {
            let answer = self.execute_query(&d.query, now);
            self.record_deferred_answer(d.query, answer);
        }
        Ok(fired)
    }

    /// Cascades an event through the mediator and live instances until
    /// the wavefront dies out, collecting application deliveries.
    fn dispatch(&mut self, event: ContextEvent, now: VirtualTime) {
        let mut queue = VecDeque::new();
        queue.push_back(event);
        let mut consumed_configs: Vec<Guid> = Vec::new();

        while let Some(ev) = queue.pop_front() {
            for delivery in self.mediator.publish(&ev) {
                let target = delivery.subscriber;
                if let Some(instance) = self.instances.get_mut(target) {
                    let outputs = instance
                        .logic
                        .on_event(&delivery.event, &instance.binding, now);
                    for (ty, payload) in outputs {
                        let seq = instance.seq;
                        instance.seq = seq.next();
                        let derived = ContextEvent::new(target, ty, payload, now).with_seq(seq);
                        // The derived event's trace key, joined to the
                        // key of the event that fired it.
                        let tracer = self.metrics.tracer();
                        if tracer.enabled() {
                            tracer.event(
                                "derive",
                                &[
                                    ("source", target.to_string()),
                                    ("seq", seq.0.to_string()),
                                    ("cause_source", delivery.event.source.to_string()),
                                    ("cause_seq", delivery.event.seq.0.to_string()),
                                ],
                            );
                        }
                        self.history.record(&derived);
                        queue.push_back(derived);
                    }
                } else if let Some(&query) = self.caa_sub_index.get(&delivery.sub) {
                    // Quality-of-context contract: drop deliveries older
                    // than the configuration's freshness bound.
                    let stale = self
                        .configurations
                        .get(&query)
                        .and_then(|c| c.max_age)
                        .map(|max| now.saturating_since(delivery.event.timestamp) > max)
                        .unwrap_or(false);
                    if stale {
                        self.stale_drops += 1;
                        self.metrics.stale_drops.inc();
                        if delivery.last {
                            // The one-time subscription was consumed by
                            // the (dropped) delivery; clean up anyway.
                            consumed_configs.push(query);
                        }
                        continue;
                    }
                    self.metrics.app_deliveries.inc();
                    self.outbox.push(AppDelivery {
                        app: target,
                        query,
                        event: delivery.event.clone(),
                    });
                    if delivery.last {
                        // One-time subscription consumed: tear the
                        // configuration down once the cascade settles.
                        consumed_configs.push(query);
                    }
                }
            }
        }

        for query in consumed_configs {
            let _ = self.cancel_query_impl(query);
        }
    }

    /// Removes and returns pending application deliveries.
    pub fn drain_outbox(&mut self) -> Vec<AppDelivery> {
        std::mem::take(&mut self.outbox)
    }

    /// Removes and returns pending deliveries for one application,
    /// leaving other applications' deliveries queued.
    pub fn drain_outbox_for(&mut self, app: Guid) -> Vec<AppDelivery> {
        let mut mine = Vec::new();
        let mut rest = Vec::new();
        for d in self.outbox.drain(..) {
            if d.app == app {
                mine.push(d);
            } else {
                rest.push(d);
            }
        }
        self.outbox = rest;
        mine
    }

    /// Removes and returns answers produced by deferred queries since
    /// the last drain: `(query, owner, answer)` triples.
    pub fn drain_answers(&mut self) -> Vec<DeferredAnswer> {
        std::mem::take(&mut self.answers)
    }

    /// Number of stored deferred queries.
    pub fn deferred_count(&self) -> usize {
        self.deferred.len()
    }

    /// Marks a CE failed: the wiring rule stops naming it until it
    /// registers again, and its liveness is no longer tracked.
    fn mark_failed(&mut self, ce: Guid) {
        self.excluded.insert(ce);
        self.mediator.untrack_publisher(ce);
    }

    /// The `Fail` arm, the one place a source fails: marks `ce` failed
    /// and rewires every live configuration it fed, one report each. A
    /// CE that is already failed, has departed or was never here is
    /// left alone, so a record replayed over a snapshot that already
    /// holds the exclusion changes nothing.
    fn fail_impl(&mut self, ce: Guid, now: VirtualTime, span: &mut Span<'_>) -> Vec<RepairReport> {
        span.field("ce", ce);
        let outputs = match self.profiles.get(ce) {
            Some(profile) if !self.excluded.contains(&ce) => output_types(profile),
            _ => return Vec::new(),
        };
        if self.metrics.tracer().enabled() {
            let silent = self.mediator.silent_publishers(now);
            let silence = silent.iter().find(|(id, _)| *id == ce);
            span.field("silence_us", silence.map_or(0, |(_, d)| d.as_micros()));
        }
        // A failed source feeds nothing, so what it feeds now is what
        // the rewire changes.
        let rewired = self.fed_by(ce);
        self.mark_failed(ce);
        unwire(self, ce, &outputs);
        self.metrics.source_failed.inc();
        span.field("rewired", rewired.len());
        let bus = self.mediator.bus();
        rewired
            .into_iter()
            .map(|query| {
                // Degraded if an instance ended up with no subscriptions
                // at all, or the application lost its only producer.
                let degraded = self.configurations.get(&query).is_some_and(|config| {
                    let starved = |&i: &Guid| bus.subscriptions_of(i).is_empty();
                    config.root_producers.is_empty() || config.instances.iter().any(starved)
                });
                RepairReport {
                    query,
                    failed: ce,
                    at: now,
                    degraded,
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Durability surface (crate::durability, crate::runtime)
    // ------------------------------------------------------------------

    /// Whether a command log is attached to this range: on disk
    /// ([`crate::durability::attach`]), or the in-memory one a
    /// supervised range restarts from.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    pub(crate) fn wal_mut(&mut self) -> Option<&mut RangeWal> {
        self.wal.as_mut()
    }

    pub(crate) fn put_wal(&mut self, wal: RangeWal) {
        self.wal = Some(wal);
    }

    /// What a rebuild may still trust of a server whose command
    /// panicked: its log (if any) and the logic factories it was given.
    pub(crate) fn into_log(self) -> Option<(RangeWal, HashMap<Guid, LogicFactory>)> {
        Some((self.wal?, self.factories))
    }

    /// Flushes and fsyncs any buffered write-ahead-log appends — the
    /// graceful-shutdown companion to the deferred
    /// [`FsyncPolicy`](sci_wal::FsyncPolicy) modes (`EveryN`, `Never`),
    /// which otherwise leave a sync-window of appends vulnerable to a
    /// host crash. A no-op without an attached log.
    ///
    /// # Errors
    ///
    /// Propagates the flush/fsync failure.
    pub fn sync_wal(&mut self) -> SciResult<()> {
        match &mut self.wal {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// Mints the next delivery-stream envelope sequence.
    pub(crate) fn next_stream_delivery_seq(&mut self) -> u64 {
        let seq = self.stream_delivery_seq;
        self.stream_delivery_seq += 1;
        seq
    }

    /// Mints the next answer-stream envelope sequence.
    pub(crate) fn next_stream_answer_seq(&mut self) -> u64 {
        let seq = self.stream_answer_seq;
        self.stream_answer_seq += 1;
        seq
    }

    /// The stream sequence counters `(delivery, answer)` — the next
    /// values each mint would return.
    pub(crate) fn stream_seqs(&self) -> (u64, u64) {
        (self.stream_delivery_seq, self.stream_answer_seq)
    }

    pub(crate) fn origin_queries(&self) -> &HashMap<Guid, Query> {
        &self.origin_queries
    }

    /// Stored deferred queries with their submission instants, in store
    /// order.
    pub(crate) fn deferred_entries(&self) -> Vec<(Query, VirtualTime)> {
        self.deferred
            .iter()
            .map(|d| (d.query.clone(), d.stored_at))
            .collect()
    }

    pub(crate) fn advertisements_all(&self) -> &HashMap<Guid, Vec<Advertisement>> {
        &self.advertisements
    }

    /// GUIDs of every CE class with a registered logic factory, sorted.
    pub(crate) fn logic_keys(&self) -> Vec<Guid> {
        let mut keys: Vec<Guid> = self.factories.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    pub(crate) fn auto_register_people(&self) -> bool {
        self.auto_register_people
    }

    pub(crate) fn outbox_ref(&self) -> &[AppDelivery] {
        &self.outbox
    }

    pub(crate) fn answers_ref(&self) -> &[(Guid, Guid, QueryAnswer)] {
        &self.answers
    }

    /// The configuration of a live query, if any.
    pub fn configuration(&self, query_id: Guid) -> Option<&Configuration> {
        self.configurations.get(&query_id)
    }

    /// The live configurations without an instance, by query id.
    pub fn direct(&self) -> &BTreeSet<Guid> {
        &self.direct
    }

    /// The source CEs feeding a live configuration now, sorted, read
    /// off the bus: for one fed straight from sources, the sources its
    /// application's subscriptions name; for one with instances, those
    /// its instances' subscriptions name that are not themselves
    /// instances. A raw `Kind`/`Named` subscription, or a query that is
    /// not live, has none.
    pub fn sources_of(&self, query: Guid) -> Vec<Guid> {
        let Some(config) = self.configurations.get(&query) else {
            return Vec::new();
        };
        let bus = self.mediator.bus();
        let subs = match config.source_need() {
            Some(_) => config.caa_subs.clone(),
            None => (config.instances.iter())
                .flat_map(|&instance| bus.subscriptions_of(instance))
                .collect(),
        };
        let mut sources: Vec<Guid> = (subs.into_iter())
            .filter_map(|sub| bus.topic_of(sub)?.source())
            .filter(|&producer| !self.instances.contains(producer))
            .collect();
        sources.sort_unstable();
        sources.dedup();
        sources
    }

    /// The live configurations `source` feeds now, in query-id order:
    /// those whose [`sources_of`](Self::sources_of) name it, and the raw
    /// subscriptions that selected it.
    pub(crate) fn fed_by(&self, source: Guid) -> Vec<Guid> {
        let feeds = |config: &&Configuration| match config.need {
            Some(_) => self.sources_of(config.query_id).contains(&source),
            None => config.root_producers.contains(&source),
        };
        let mut fed: Vec<Guid> = (self.configurations.values().filter(feeds))
            .map(|config| config.query_id)
            .collect();
        fed.sort_unstable();
        fed
    }

    // ------------------------------------------------------------------
    // Static plan verification (sci-analysis)
    // ------------------------------------------------------------------

    fn set_plan_verification_impl(&mut self, enabled: bool) {
        self.verify_plans = enabled;
    }

    /// Whether the pre-instantiation verification gate is active.
    pub fn plan_verification(&self) -> bool {
        self.verify_plans
    }

    /// Number of subscription queries refused by the verification gate.
    pub fn rejected_plans(&self) -> u64 {
        self.rejected_plans
    }

    /// Statically verifies a plan against this range's registered
    /// profiles and equivalence classes, without instantiating anything.
    pub fn analyze_plan(&self, plan: &crate::resolver::ConfigurationPlan) -> AnalysisReport {
        sci_analysis::analyze(plan, &self.profiles)
    }

    /// Fleet-mode drift audit: compares the subscriptions every live
    /// configuration requires — the edges between derived CEs its
    /// analyzed plan fixed, and for every source-fed input the sources
    /// the wiring rule names *now* — against the Event Mediator's
    /// actual table.
    ///
    /// * `SCI-A101` (error) — a required subscription is missing, so an
    ///   edge no longer delivers;
    /// * `SCI-A102` (warning) — configuration wiring nothing accounts
    ///   for.
    ///
    /// Both are drift: adaptation rewires to the same rule, so neither
    /// fires after a departure, a failure, an arrival or a declared
    /// equivalence.
    ///
    /// Subscriptions unrelated to configurations (nothing in this
    /// server creates them today) are ignored.
    pub fn audit_configurations(&self) -> AnalysisReport {
        let mut report = AnalysisReport::new();
        let mut expected: Vec<SubscriptionRecord> = Vec::new();
        for config in self.configurations.values() {
            match crate::analysis_bridge::expected_subscriptions(
                config,
                &self.instances,
                &self.profiles,
                &self.excluded,
            ) {
                Some(records) => expected.extend(records),
                None => report.push(Diagnostic::new(
                    DiagCode::DanglingEdge,
                    format!(
                        "configuration {} retains a plan inconsistent with its instances",
                        config.query_id
                    ),
                )),
            }
        }
        let actual: Vec<SubscriptionRecord> = self
            .mediator
            .bus()
            .iter()
            .filter(|v| {
                self.instances.contains(v.subscriber) || self.caa_sub_index.contains_key(&v.id)
            })
            .map(|v| crate::analysis_bridge::record_of(&v))
            .collect();
        for finding in diff_subscriptions(&expected, &actual) {
            report.push(finding);
        }
        report
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::logic::{factory, ObjLocationLogic, PathLogic};
    use sci_event::Topic;
    use sci_location::floorplan::capa_level10;
    use sci_query::{Predicate, Subject};
    use sci_types::PortSpec;

    struct Rig {
        cs: ContextServer,
        ids: GuidGenerator,
        doors: Vec<Guid>,
        path_ce: Guid,
    }

    fn presence(source: Guid, subject: Guid, from: &str, to: &str, t: VirtualTime) -> ContextEvent {
        ContextEvent::new(
            source,
            ContextType::Presence,
            ContextValue::record([
                ("subject", ContextValue::Id(subject)),
                ("from", ContextValue::place(from)),
                ("to", ContextValue::place(to)),
            ]),
            t,
        )
    }

    fn rig() -> Rig {
        let plan = capa_level10();
        let mut ids = GuidGenerator::seeded(5);
        let mut cs = ContextServer::new(ids.next_guid(), "level-ten", plan.clone());

        let doors: Vec<Guid> = (0..3)
            .map(|i| {
                let id = ids.next_guid();
                cs.register(
                    Profile::builder(id, EntityKind::Device, format!("door-{i}"))
                        .output(PortSpec::new("presence", ContextType::Presence))
                        .build(),
                    VirtualTime::ZERO,
                )
                .unwrap();
                id
            })
            .collect();

        let obj_loc = ids.next_guid();
        cs.register(
            Profile::builder(obj_loc, EntityKind::Software, "objLocationCE")
                .input(PortSpec::new("presence", ContextType::Presence))
                .output(PortSpec::new("location", ContextType::Location))
                .build(),
            VirtualTime::ZERO,
        )
        .unwrap();
        let p = plan.clone();
        cs.register_logic(obj_loc, factory(move || ObjLocationLogic::new(p.clone())));

        let path_ce = ids.next_guid();
        cs.register(
            Profile::builder(path_ce, EntityKind::Software, "pathCE")
                .input(PortSpec::new("from", ContextType::Location))
                .input(PortSpec::new("to", ContextType::Location))
                .output(PortSpec::new("path", ContextType::Path))
                .build(),
            VirtualTime::ZERO,
        )
        .unwrap();
        let p = plan.clone();
        cs.register_logic(path_ce, factory(move || PathLogic::new(p.clone())));

        Rig {
            cs,
            ids,
            doors,
            path_ce,
        }
    }

    #[test]
    fn figure3_end_to_end_path_updates() {
        let mut r = rig();
        let bob = r.ids.next_guid();
        let john = r.ids.next_guid();
        let app = r.ids.next_guid();

        // pathApp subscribes to the path between Bob and John.
        let q = Query::builder(r.ids.next_guid(), app)
            .info_matching(
                ContextType::Path,
                vec![
                    Predicate::eq("from", ContextValue::Id(bob)),
                    Predicate::eq("to", ContextValue::Id(john)),
                ],
            )
            .mode(Mode::Subscribe)
            .build();
        let answer = r.cs.submit_query(&q, VirtualTime::ZERO).unwrap();
        assert!(matches!(answer, QueryAnswer::Subscribed { .. }));
        assert_eq!(r.cs.instance_count(), 3);

        // Bob walks into L10.01; John into L10.02.
        r.cs.ingest(
            &presence(
                r.doors[0],
                bob,
                "corridor",
                "L10.01",
                VirtualTime::from_secs(1),
            ),
            VirtualTime::from_secs(1),
        )
        .unwrap();
        assert!(
            r.cs.drain_outbox().is_empty(),
            "no path until both endpoints known"
        );
        r.cs.ingest(
            &presence(
                r.doors[1],
                john,
                "corridor",
                "L10.02",
                VirtualTime::from_secs(2),
            ),
            VirtualTime::from_secs(2),
        )
        .unwrap();
        let deliveries = r.cs.drain_outbox();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].app, app);
        assert_eq!(deliveries[0].event.topic, ContextType::Path);

        // John moves: updated path arrives automatically.
        r.cs.ingest(
            &presence(
                r.doors[2],
                john,
                "L10.02",
                "corridor",
                VirtualTime::from_secs(3),
            ),
            VirtualTime::from_secs(3),
        )
        .unwrap();
        let deliveries = r.cs.drain_outbox();
        assert_eq!(deliveries.len(), 1, "environmental change propagates");
        let _ = r.path_ce;
    }

    #[test]
    fn one_time_subscription_tears_down() {
        let mut r = rig();
        let bob = r.ids.next_guid();
        let app = r.ids.next_guid();
        let q = Query::builder(r.ids.next_guid(), app)
            .info_matching(
                ContextType::Location,
                vec![Predicate::eq("subject", ContextValue::Id(bob))],
            )
            .mode(Mode::SubscribeOnce)
            .build();
        r.cs.submit_query(&q, VirtualTime::ZERO).unwrap();
        assert_eq!(r.cs.configuration_count(), 1);
        r.cs.ingest(
            &presence(
                r.doors[0],
                bob,
                "lobby",
                "corridor",
                VirtualTime::from_secs(1),
            ),
            VirtualTime::from_secs(1),
        )
        .unwrap();
        assert_eq!(r.cs.drain_outbox().len(), 1);
        assert_eq!(r.cs.configuration_count(), 0, "one-time config gone");
        assert_eq!(r.cs.instance_count(), 0, "instances reclaimed");
        // Further movement delivers nothing.
        r.cs.ingest(
            &presence(
                r.doors[0],
                bob,
                "corridor",
                "L10.01",
                VirtualTime::from_secs(2),
            ),
            VirtualTime::from_secs(2),
        )
        .unwrap();
        assert!(r.cs.drain_outbox().is_empty());
    }

    #[test]
    fn profile_mode_returns_matching_profiles() {
        let mut r = rig();
        let app = r.ids.next_guid();
        let q = Query::builder(r.ids.next_guid(), app)
            .kind(EntityKind::Device)
            .all()
            .mode(Mode::Profile)
            .build();
        match r.cs.submit_query(&q, VirtualTime::ZERO).unwrap() {
            QueryAnswer::Profiles(ps) => assert_eq!(ps.len(), r.doors.len()),
            other => panic!("expected profiles, got {other:?}"),
        }
    }

    #[test]
    fn range_forwarding_detected() {
        let mut r = rig();
        let q = Query::builder(r.ids.next_guid(), r.ids.next_guid())
            .info(ContextType::Temperature)
            .in_range("level-nine")
            .mode(Mode::Profile)
            .build();
        match r.cs.submit_query(&q, VirtualTime::ZERO).unwrap() {
            QueryAnswer::Forward { range } => assert_eq!(range, "level-nine"),
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn on_enter_trigger_fires_once() {
        let mut r = rig();
        let bob = r.ids.next_guid();
        let app = r.ids.next_guid();
        // Pre-register a printer so the deferred advertisement query can
        // answer.
        let p1 = r.ids.next_guid();
        r.cs.register(
            Profile::builder(p1, EntityKind::Device, "P1")
                .attribute("service", ContextValue::text("printing"))
                .attribute("room", ContextValue::place("L10.01"))
                .build(),
            VirtualTime::ZERO,
        )
        .unwrap();
        r.cs.advertise(Advertisement::new(p1, "printing")).unwrap();

        let q = Query::builder(r.ids.next_guid(), app)
            .kind(EntityKind::Device)
            .attr_eq("service", "printing")
            .where_(Where::ClosestTo(Subject::Entity(bob)))
            .when(When::OnEnter {
                entity: Subject::Entity(bob),
                place: "L10.01".into(),
            })
            .closest()
            .mode(Mode::Advertisement)
            .build();
        let a = r.cs.submit_query(&q, VirtualTime::ZERO).unwrap();
        assert!(matches!(a, QueryAnswer::Deferred));
        assert_eq!(r.cs.deferred_count(), 1);

        // An unrelated event does not fire it.
        r.cs.ingest(
            &presence(
                r.doors[0],
                bob,
                "lobby",
                "corridor",
                VirtualTime::from_secs(1),
            ),
            VirtualTime::from_secs(1),
        )
        .unwrap();
        assert!(r.cs.drain_answers().is_empty());

        // Bob enters L10.01 — the trigger fires.
        r.cs.ingest(
            &presence(
                r.doors[0],
                bob,
                "corridor",
                "L10.01",
                VirtualTime::from_secs(2),
            ),
            VirtualTime::from_secs(2),
        )
        .unwrap();
        let answers = r.cs.drain_answers();
        assert_eq!(answers.len(), 1);
        match &answers[0].2 {
            QueryAnswer::Advertisements(ads) => {
                assert_eq!(ads[0].provider(), p1);
            }
            other => panic!("expected advertisement answer, got {other:?}"),
        }
        assert_eq!(r.cs.deferred_count(), 0, "trigger consumed");
    }

    #[test]
    fn timer_deferred_query_fires_on_poll() {
        let mut r = rig();
        let app = r.ids.next_guid();
        let q = Query::builder(r.ids.next_guid(), app)
            .kind(EntityKind::Device)
            .all()
            .after(VirtualDuration::from_secs(30))
            .mode(Mode::Profile)
            .build();
        assert!(matches!(
            r.cs.submit_query(&q, VirtualTime::ZERO).unwrap(),
            QueryAnswer::Deferred
        ));
        assert_eq!(r.cs.poll_timers(VirtualTime::from_secs(29)).unwrap(), 0);
        assert_eq!(r.cs.poll_timers(VirtualTime::from_secs(31)).unwrap(), 1);
        assert_eq!(r.cs.drain_answers().len(), 1);
    }

    /// Due timed queries fire by deadline, and those due at the same
    /// instant in the order they were submitted.
    #[test]
    fn timed_queries_fire_by_deadline_then_submission() {
        let mut r = rig();
        let app = r.ids.next_guid();
        let mut submit = |when: When, at: u64| {
            let q = Query::builder(r.ids.next_guid(), app)
                .kind(EntityKind::Device)
                .all()
                .when(when)
                .mode(Mode::Profile)
                .build();
            r.cs.submit_query(&q, VirtualTime::from_secs(at)).unwrap();
            q.id
        };
        let fired = |r: &mut Rig, now: u64| {
            r.cs.poll_timers(VirtualTime::from_secs(now)).unwrap();
            r.cs.drain_answers()
                .into_iter()
                .map(|a| a.0)
                .collect::<Vec<_>>()
        };

        // One deadline, two spellings: submission order.
        let first = submit(When::After(VirtualDuration::from_secs(30)), 10);
        let second = submit(When::At(VirtualTime::from_secs(40)), 20);
        // Submitted later, due earlier: first out.
        let late = submit(When::At(VirtualTime::from_secs(60)), 30);
        let early = submit(When::After(VirtualDuration::from_secs(10)), 40);
        assert_eq!(fired(&mut r, 40), [first, second]);
        assert_eq!(fired(&mut r, 60), [early, late]);
        assert_eq!(r.cs.deferred_count(), 0);
    }

    #[test]
    fn which_min_attr_and_filter() {
        let mut r = rig();
        for (name, queue, paper) in [("PA", 3i64, true), ("PB", 0, true), ("PC", 0, false)] {
            let id = r.ids.next_guid();
            r.cs.register(
                Profile::builder(id, EntityKind::Device, name)
                    .attribute("service", ContextValue::text("printing"))
                    .attribute("queue", ContextValue::Int(queue))
                    .attribute("paper", ContextValue::Bool(paper))
                    .build(),
                VirtualTime::ZERO,
            )
            .unwrap();
        }
        let app = r.ids.next_guid();
        let q = Query::builder(r.ids.next_guid(), app)
            .kind(EntityKind::Device)
            .attr_eq("service", "printing")
            .attr_true("paper")
            .min_attr("queue")
            .mode(Mode::Profile)
            .build();
        match r.cs.submit_query(&q, VirtualTime::ZERO).unwrap() {
            QueryAnswer::Profiles(ps) => {
                assert_eq!(ps.len(), 1);
                assert_eq!(ps[0].name(), "PB");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn auto_registration_of_sensed_people() {
        let mut r = rig();
        let stranger = r.ids.next_guid();
        assert!(!r.cs.registrar().is_registered(stranger));
        r.cs.ingest(
            &presence(
                r.doors[0],
                stranger,
                "lobby",
                "corridor",
                VirtualTime::from_secs(1),
            ),
            VirtualTime::from_secs(1),
        )
        .unwrap();
        assert!(r.cs.registrar().is_registered(stranger));
        assert_eq!(
            r.cs.location().room_of(stranger),
            Some("corridor"),
            "location service learned the position"
        );
    }

    #[test]
    fn auto_registration_can_be_disabled() {
        let mut r = rig();
        r.cs.handle(
            RangeCommand::SetAutoRegisterPeople(false),
            VirtualTime::ZERO,
        )
        .unwrap();
        let stranger = r.ids.next_guid();
        r.cs.ingest(
            &presence(
                r.doors[0],
                stranger,
                "lobby",
                "corridor",
                VirtualTime::from_secs(1),
            ),
            VirtualTime::from_secs(1),
        )
        .unwrap();
        assert!(
            !r.cs.registrar().is_registered(stranger),
            "range service disabled: no auto-registration"
        );
        // The location service still learns positions from the event.
        assert_eq!(r.cs.location().room_of(stranger), Some("corridor"));
    }

    #[test]
    fn history_records_raw_and_derived_context() {
        let mut r = rig();
        let bob = r.ids.next_guid();
        let app = r.ids.next_guid();
        let q = Query::builder(r.ids.next_guid(), app)
            .info_matching(
                ContextType::Location,
                vec![Predicate::eq("subject", ContextValue::Id(bob))],
            )
            .mode(Mode::Subscribe)
            .build();
        r.cs.submit_query(&q, VirtualTime::ZERO).unwrap();
        for (i, room) in ["corridor", "L10.01", "corridor"].iter().enumerate() {
            let t = VirtualTime::from_secs(i as u64 + 1);
            r.cs.ingest(&presence(r.doors[0], bob, "lobby", room, t), t)
                .unwrap();
        }
        // Raw presence history and derived location history both exist.
        let last_presence =
            r.cs.history()
                .last(&ContextType::Presence, Some(bob))
                .unwrap();
        assert_eq!(
            last_presence
                .payload
                .field("to")
                .and_then(|v| v.as_text().map(str::to_owned)),
            Some("corridor".to_owned())
        );
        let locations =
            r.cs.history()
                .since(&ContextType::Location, Some(bob), VirtualTime::ZERO);
        assert_eq!(locations.len(), 3, "every derived event is stored");
        // Expiry trims the past.
        let expired = r.cs.handle(RangeCommand::ExpireHistory, VirtualTime::MAX);
        assert!(matches!(expired, Ok(RangeReply::Expired(n)) if n >= 6));
        assert!(r.cs.history().is_empty());
    }

    #[test]
    fn verification_gate_refuses_fan_in_plan() {
        // Re-create the rig with a single-input objLocation: the
        // resolver happily fans all 3 doors into its presence port, and
        // the analyzer must refuse the plan before any wiring happens.
        let plan = capa_level10();
        let mut ids = GuidGenerator::seeded(5);
        let mut cs = ContextServer::new(ids.next_guid(), "level-ten", plan.clone());
        for i in 0..3 {
            cs.register(
                Profile::builder(ids.next_guid(), EntityKind::Device, format!("door-{i}"))
                    .output(PortSpec::new("presence", ContextType::Presence))
                    .build(),
                VirtualTime::ZERO,
            )
            .unwrap();
        }
        let obj_loc = ids.next_guid();
        cs.register(
            Profile::builder(obj_loc, EntityKind::Software, "objLocationCE")
                .input(PortSpec::new("presence", ContextType::Presence))
                .output(PortSpec::new("location", ContextType::Location))
                .attribute(sci_analysis::SINGLE_INPUT_ATTR, ContextValue::Bool(true))
                .build(),
            VirtualTime::ZERO,
        )
        .unwrap();
        let p = plan.clone();
        cs.register_logic(
            obj_loc,
            crate::logic::factory(move || crate::logic::ObjLocationLogic::new(p.clone())),
        );

        let bob = ids.next_guid();
        let app = ids.next_guid();
        let q = Query::builder(ids.next_guid(), app)
            .info_matching(
                ContextType::Location,
                vec![Predicate::eq("subject", ContextValue::Id(bob))],
            )
            .mode(Mode::Subscribe)
            .build();

        let err = cs.submit_query(&q, VirtualTime::ZERO).unwrap_err();
        match &err {
            SciError::PlanRejected(msg) => {
                assert!(msg.contains("SCI-A006"), "summary names the code: {msg}");
            }
            other => panic!("expected PlanRejected, got {other:?}"),
        }
        assert_eq!(cs.rejected_plans(), 1);
        assert_eq!(cs.instance_count(), 0, "gate fired before wiring");
        assert!(cs.mediator().bus().is_empty());

        // Explicit bypass restores the pre-analysis behaviour.
        cs.handle(RangeCommand::SetPlanVerification(false), VirtualTime::ZERO)
            .unwrap();
        assert!(!cs.plan_verification());
        assert!(cs.submit_query(&q, VirtualTime::ZERO).is_ok());
        assert!(cs.instance_count() > 0);
    }

    #[test]
    fn analyze_plan_passes_valid_figure3_plan() {
        let mut r = rig();
        let bob = r.ids.next_guid();
        let john = r.ids.next_guid();
        let plan = crate::resolver::plan_configuration(
            r.cs.profiles(),
            &crate::resolver::Demand::of(ContextType::Path),
            &[
                Predicate::eq("from", ContextValue::Id(bob)),
                Predicate::eq("to", ContextValue::Id(john)),
            ],
            &HashSet::default(),
        )
        .unwrap();
        let report = r.cs.analyze_plan(&plan);
        assert!(report.is_clean(), "unexpected findings: {report}");
    }

    #[test]
    fn audit_detects_missing_and_orphan_subscriptions() {
        let mut r = rig();
        let bob = r.ids.next_guid();
        let app = r.ids.next_guid();
        let q = Query::builder(r.ids.next_guid(), app)
            .info_matching(
                ContextType::Path,
                vec![
                    Predicate::eq("from", ContextValue::Id(bob)),
                    Predicate::eq("to", ContextValue::Id(r.ids.next_guid())),
                ],
            )
            .mode(Mode::Subscribe)
            .build();
        r.cs.submit_query(&q, VirtualTime::ZERO).unwrap();
        assert!(
            r.cs.audit_configurations().is_clean(),
            "freshly wired fleet is drift-free: {}",
            r.cs.audit_configurations()
        );

        // Sabotage 1: silently drop one instance input subscription.
        let bus = r.cs.mediator.bus();
        let held = |i: &crate::configuration::InstanceState| {
            bus.subscriptions_of(i.instance).first().copied()
        };
        let dropped = r.cs.instances.iter().find_map(held).unwrap();
        r.cs.mediator.unsubscribe(dropped).unwrap();
        let report = r.cs.audit_configurations();
        assert!(report.has_code(DiagCode::MissingSubscription));
        assert!(report.has_errors());

        // Sabotage 2: a leaked subscription held by a live instance.
        let holder = r.cs.instances.iter().next().unwrap().instance;
        r.cs.mediator.subscribe(
            holder,
            Topic::of_type(ContextType::Temperature).from(r.doors[0]),
            false,
        );
        let report = r.cs.audit_configurations();
        assert!(report.has_code(DiagCode::OrphanSubscription));
        let _ = r.path_ce;
    }

    #[test]
    fn cancel_query_cleans_up() {
        let mut r = rig();
        let bob = r.ids.next_guid();
        let app = r.ids.next_guid();
        let q = Query::builder(r.ids.next_guid(), app)
            .info_matching(
                ContextType::Location,
                vec![Predicate::eq("subject", ContextValue::Id(bob))],
            )
            .mode(Mode::Subscribe)
            .build();
        r.cs.submit_query(&q, VirtualTime::ZERO).unwrap();
        assert!(r.cs.instance_count() > 0);
        r.cs.cancel_query(q.id).unwrap();
        assert_eq!(r.cs.instance_count(), 0);
        assert!(r.cs.cancel_query(q.id).is_err(), "second cancel errors");
    }

    /// Regression: a resubmitted live id replaced the configuration entry
    /// and left the first one's subscriptions wired, so every event
    /// delivered twice (the audit compares subscriptions as sets and read
    /// clean). It is answered from what is live instead.
    #[test]
    fn a_resubmitted_live_query_is_answered_not_wired_again() {
        let mut r = rig();
        let bob = r.ids.next_guid();
        let app = r.ids.next_guid();
        let q = Query::builder(r.ids.next_guid(), app)
            .info_matching(
                ContextType::Location,
                vec![Predicate::eq("subject", ContextValue::Id(bob))],
            )
            .mode(Mode::Subscribe)
            .build();
        let first = r.cs.submit_query(&q, VirtualTime::ZERO).unwrap();
        let (instances, subscriptions) = (r.cs.instance_count(), r.cs.mediator.bus().len());
        let again = r.cs.submit_query(&q, VirtualTime::from_secs(1)).unwrap();
        assert_eq!(format!("{again:?}"), format!("{first:?}"));
        assert_eq!(r.cs.instance_count(), instances);
        assert_eq!(r.cs.mediator.bus().len(), subscriptions, "wired twice");
        assert_eq!(r.cs.configuration_count(), 1);
        r.cs.cancel_query(q.id).unwrap();
        assert_eq!(r.cs.instance_count(), 0);

        // A deferred one stays deferred once, so it fires once.
        let later = Query::builder(r.ids.next_guid(), app)
            .info_matching(
                ContextType::Location,
                vec![Predicate::eq("subject", ContextValue::Id(bob))],
            )
            .when(When::After(VirtualDuration::from_secs(30)))
            .mode(Mode::Subscribe)
            .build();
        for _ in 0..2 {
            let answer = r.cs.submit_query(&later, VirtualTime::ZERO).unwrap();
            assert!(matches!(answer, QueryAnswer::Deferred));
        }
        assert_eq!(r.cs.deferred_count(), 1);
    }

    /// An application registered in `r`'s range, ready to move.
    fn resident_app(r: &mut Rig) -> Guid {
        let app = r.ids.next_guid();
        r.cs.register(
            Profile::builder(app, EntityKind::Software, "app").build(),
            VirtualTime::ZERO,
        )
        .unwrap();
        app
    }

    /// Regression: a standing subscription whose `OnEnter` trigger had
    /// already fired was re-submitted through the deferral gate at the
    /// migration target and parked as deferred again — the mover
    /// silently stopped receiving events.
    #[test]
    fn a_triggered_subscription_stays_live_across_a_move() {
        let (mut home, mut away) = (rig(), rig());
        let app = resident_app(&mut home);
        let bob = home.ids.next_guid();
        let q = Query::builder(home.ids.next_guid(), app)
            .info_matching(
                ContextType::Location,
                vec![Predicate::eq("subject", ContextValue::Id(bob))],
            )
            .when(When::OnEnter {
                entity: Subject::Entity(bob),
                place: "L10.01".into(),
            })
            .mode(Mode::Subscribe)
            .build();
        home.cs.submit_query(&q, VirtualTime::ZERO).unwrap();
        let t1 = VirtualTime::from_secs(1);
        home.cs
            .ingest(&presence(home.doors[0], bob, "corridor", "L10.01", t1), t1)
            .unwrap();
        assert_eq!(
            (home.cs.configuration_count(), home.cs.deferred_count()),
            (1, 0),
            "the trigger fired: the subscription is standing"
        );
        home.cs.drain_outbox();

        let t2 = VirtualTime::from_secs(2);
        let packet = home.cs.migrate_out(app, t2).unwrap();
        assert_eq!(home.cs.configuration_count(), 0);
        away.cs.migrate_in(packet, t2).unwrap();
        assert_eq!(
            (away.cs.configuration_count(), away.cs.deferred_count()),
            (1, 0),
            "standing at the source, standing at the target"
        );
        let t3 = VirtualTime::from_secs(3);
        away.cs
            .ingest(&presence(away.doors[1], bob, "L10.01", "L10.02", t3), t3)
            .unwrap();
        let deliveries = away.cs.drain_outbox();
        assert_eq!(deliveries.len(), 1, "deliveries continue at the new home");
        assert_eq!((deliveries[0].app, deliveries[0].query), (app, q.id));
    }

    /// Regression: the packet dropped `stored_at`, so an `After(30 s)`
    /// query stored at t=0 whose owner moved at t=20 fired at t=50.
    #[test]
    fn a_deferred_timer_keeps_its_deadline_across_a_move() {
        let (mut home, mut away) = (rig(), rig());
        let app = resident_app(&mut home);
        let q = Query::builder(home.ids.next_guid(), app)
            .kind(EntityKind::Device)
            .all()
            .after(VirtualDuration::from_secs(30))
            .mode(Mode::Profile)
            .build();
        home.cs.submit_query(&q, VirtualTime::ZERO).unwrap();
        let t20 = VirtualTime::from_secs(20);
        let packet = home.cs.migrate_out(app, t20).unwrap();
        away.cs.migrate_in(packet, t20).unwrap();
        assert_eq!(away.cs.poll_timers(VirtualTime::from_secs(29)).unwrap(), 0);
        assert_eq!(away.cs.poll_timers(VirtualTime::from_secs(30)).unwrap(), 1);
        assert_eq!(home.cs.poll_timers(VirtualTime::from_secs(60)).unwrap(), 0);
        assert_eq!(away.cs.drain_answers().len(), 1);
    }

    /// Regression: `Deregister` of an application purged its CAA
    /// subscriptions but left its configuration and its hosted CE
    /// instances alive for ever, and the range's own audit then
    /// reported the subscriptions missing.
    #[test]
    fn a_departed_owner_leaves_nothing_behind() {
        let mut r = rig();
        let app = resident_app(&mut r);
        let instances_before = r.cs.instance_count();
        let (bob, john) = (r.ids.next_guid(), r.ids.next_guid());
        let path = Query::builder(r.ids.next_guid(), app)
            .info_matching(
                ContextType::Path,
                vec![
                    Predicate::eq("from", ContextValue::Id(bob)),
                    Predicate::eq("to", ContextValue::Id(john)),
                ],
            )
            .mode(Mode::Subscribe)
            .build();
        r.cs.submit_query(&path, VirtualTime::ZERO).unwrap();
        let later = Query::builder(r.ids.next_guid(), app)
            .kind(EntityKind::Device)
            .all()
            .after(VirtualDuration::from_secs(30))
            .mode(Mode::Profile)
            .build();
        r.cs.submit_query(&later, VirtualTime::ZERO).unwrap();
        assert_eq!(r.cs.instance_count(), instances_before + 3);

        r.cs.deregister(app, VirtualTime::from_secs(1)).unwrap();
        assert!(r.cs.configurations().all(|c| c.owner != app));
        assert_eq!(r.cs.deferred_count(), 0);
        assert_eq!(r.cs.poll_timers(VirtualTime::from_secs(60)).unwrap(), 0);
        assert_eq!(r.cs.instance_count(), instances_before);
        let audit = r.cs.audit_configurations();
        assert!(audit.is_clean(), "{audit}");
        assert!(!r.cs.excluded().contains(&app), "leaving is not failing");
    }

    fn subscribe_path(r: &mut Rig) -> Guid {
        let (app, bob, john) = (r.ids.next_guid(), r.ids.next_guid(), r.ids.next_guid());
        let q = Query::builder(r.ids.next_guid(), app)
            .info_matching(
                ContextType::Path,
                vec![
                    Predicate::eq("from", ContextValue::Id(bob)),
                    Predicate::eq("to", ContextValue::Id(john)),
                ],
            )
            .mode(Mode::Subscribe)
            .build();
        r.cs.submit_query(&q, VirtualTime::ZERO).unwrap();
        q.id
    }

    fn wiring(cs: &ContextServer) -> Vec<String> {
        let bus = cs.mediator.bus();
        bus.iter()
            .map(|s| format!("{} {}", s.id, s.topic))
            .collect()
    }

    /// R4: `pathCE`'s `from` and `to` inputs are fed by `objLocationCE`
    /// instances. A `Location` *source* arriving later was wired to the
    /// `from` input beside the instance already feeding it — a fan-in
    /// the resolver never plans.
    #[test]
    fn a_derived_fed_input_stays_derived_fed() {
        let mut r = rig();
        subscribe_path(&mut r);
        let before = wiring(&r.cs);
        r.cs.register(
            Profile::builder(r.ids.next_guid(), EntityKind::Device, "gps")
                .output(PortSpec::new("fix", ContextType::Location))
                .build(),
            VirtualTime::from_secs(1),
        )
        .unwrap();
        assert_eq!(wiring(&r.cs), before, "no input changes its feed");
        let audit = r.cs.audit_configurations();
        assert!(audit.is_clean(), "{audit}");
    }

    /// R5: the range's own audit reported `SCI-A101` after a clean
    /// departure (until the door came back) and `SCI-A102` after an
    /// arrival. It compares the bus against what the rule names now,
    /// so neither fires after an adaptation.
    #[test]
    fn the_audit_is_clean_after_every_adaptation() {
        let mut r = rig();
        let query = subscribe_path(&mut r);
        let door = |id: Guid| {
            Profile::builder(id, EntityKind::Device, format!("door-{id}"))
                .output(PortSpec::new("presence", ContextType::Presence))
                .build()
        };
        let (left, newcomer, failed) = (door(r.doors[0]), door(r.ids.next_guid()), r.doors[2]);
        let clean = |cs: &ContextServer, after: &str| {
            let audit = cs.audit_configurations();
            assert!(audit.is_clean(), "after {after}: {audit}");
        };

        r.cs.deregister(left.id(), VirtualTime::from_secs(1))
            .unwrap();
        clean(&r.cs, "a clean departure");
        let mut expected = vec![r.doors[1], r.doors[2]];
        expected.sort();
        assert_eq!(r.cs.sources_of(query), expected);

        r.cs.register(newcomer.clone(), VirtualTime::from_secs(2))
            .unwrap();
        clean(&r.cs, "an arrival");

        crate::adaptation::repair_source(&mut r.cs, failed, VirtualTime::from_secs(3));
        clean(&r.cs, "a failure");

        r.cs.register(left, VirtualTime::from_secs(4)).unwrap();
        clean(&r.cs, "the return");
        let mut expected = vec![r.doors[0], r.doors[1], newcomer.id()];
        expected.sort();
        assert_eq!(r.cs.sources_of(query), expected);
    }
}
