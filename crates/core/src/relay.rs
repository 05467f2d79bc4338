//! The relay core: the one inter-range protocol both federation
//! drivers speak.
//!
//! The paper joins Ranges through a single overlay, the SCINET, with a
//! Context Server per Range behind it (Section 3). [`RelayCore`] is
//! that protocol and all of its state: the transport, application home
//! ranges and their inboxes, the exactly-once `(origin, seq)` filter,
//! parked relays and the `federation.*` instruments. It owns the only
//! copy of query forwarding, event/answer relay, entity migration,
//! retry/backoff, park-and-re-fire and receiver-side dedup.
//!
//! What it does **not** hold is where ranges and places live. That is
//! the transport's replicated registration state
//! ([`sci_overlay::sync::SyncStore`]): a range claims `range/{name}` and
//! `place/{room}` when it is admitted ([`RelayCore::add_range`], the one
//! writer), and every lookup asks the replica of the node that needs to
//! know ([`RelayCore::range_covering_from`], the forward target in
//! [`RelayCore::submit_from`]) — a node routes by what it has learned,
//! not by what the coordinator's memory holds.
//!
//! What the two drivers differ in is *how a range executes*: inline in
//! the caller's thread ([`crate::federation::Federation`], whose hosts
//! are bare [`ContextServer`]s) or on a worker thread behind a mailbox
//! ([`crate::runtime::ParallelFederation`], whose hosts are
//! [`crate::runtime::RangeRuntime`]s). That difference is the
//! `RangeHost` seam — send a command, collect the traffic it produced —
//! and nothing else: the core contains no threads, talks to the
//! [`Transport`] directly, and reads no clock except to time its own
//! telemetry.
//!
//! # Reliable relay protocol
//!
//! Cross-range traffic rides *envelopes*: every delivery, deferred
//! answer or migration packet is named by the producing node's GUID
//! (`origin`) and a per-origin monotonic sequence number (`seq`).
//! Deliveries and answers take theirs from the producing server's
//! durable stream counters, so a WAL-recovered range re-offers its
//! unrelayed traffic under the *same* envelopes; each traffic class
//! counts in its own high-bit namespace. One published event's remote
//! deliveries cross as one `EventRelay` per home range: one `(seq, app,
//! query)` row each, the event once. A pump hands each range's relays
//! to [`Transport::send_all`] in batches of up to `MAX_RELAY_BATCH`.
//! The sender retries a failed relay up to [`RELAY_RETRIES`] times
//! with exponential backoff accounted in virtual time, then parks it
//! for the next pump — so a relay survives any outage that eventually
//! heals. The receiver discards envelopes it has already seen (local
//! traffic passes the same filter). Together that turns the
//! transport's at-least-once behaviour (retransmissions, ack loss,
//! duplication faults) into exactly-once delivery, counted by
//! `federation.retry.attempts` and `federation.relay.dedup_hits`.
//!
//! A migration packet is marked seen only once its target has applied
//! it: a packet that finds no live host is parked like an unroutable
//! one and re-fired every pump until the range is back.

use std::time::Instant;

use sci_location::floorplan::FloorPlan;
use sci_overlay::message::{Message, MessageKind};
use sci_overlay::stats::LoadStats;
use sci_overlay::transport::Transport;
use sci_query::codec as qcodec;
use sci_query::xml::{document, parse};
use sci_query::Query;
use sci_telemetry::{Registry, TelemetrySnapshot, Tracer};
use sci_types::guid::GuidGenerator;
use sci_types::{ContextEvent, Guid, HashMap, SciError, SciResult, VirtualDuration, VirtualTime};
use sci_wal::codec::wire;

use crate::context_server::{AppDelivery, ContextServer, DeferredAnswer, QueryAnswer, RangeReply};
use crate::migration::MigrationPacket;
use crate::records::{
    answer_from_element, answer_to_xml, deferred_answer_from_element, event_relay_group,
    expect_end, get_event, get_relay_head, parsed_attr, write_deferred_answer, RelayRow,
};
use crate::runtime::RangeCommand;
use crate::seen::{SeenEnvelopes, SEQ_NS_SHIFT};
use crate::telemetry::{elapsed_us, fold_load_stats, FedMetrics};

pub(crate) use host::RangeHost;

/// In-call retransmissions attempted for a failed relay before it is
/// parked for the next pump.
pub const RELAY_RETRIES: u32 = 4;

/// Base of the exponential retry backoff, accounted in virtual time
/// (the arrival time of a retried relay is pushed back by
/// `base * (2^attempt - 1)`).
pub const RETRY_BACKOFF_BASE_US: u64 = 500;

/// The virtual wait a relay has accumulated when its last retry fails:
/// the sum of `send_reliable`'s backoffs, `base · (2^RELAY_RETRIES − 1)`.
const WORST_CASE_BACKOFF_US: u64 = RETRY_BACKOFF_BASE_US * ((1 << RELAY_RETRIES) - 1);

/// The most relays one [`Transport::send_all`] carries (bar the last
/// event's). A batch sits whole in its receivers' inboxes until the
/// relay drains them, so a backlog is relayed in batches of this size.
const MAX_RELAY_BATCH: usize = 256;

/// Envelope-sequence namespace bit for deferred-answer relays. Servers
/// mint delivery and answer sequences from *separate* durable
/// counters; the exactly-once filter keys on a single `(origin, seq)`
/// set, so each class gets a disjoint high-bit namespace to keep a
/// delivery from shadowing an answer with the same count.
const ANSWER_SEQ_NS: u64 = 1 << SEQ_NS_SHIFT;

/// Envelope-sequence namespace bit for migration relays, the one class
/// the core mints itself (a migration is a range-pair operation, not
/// stream traffic).
const MIGRATE_SEQ_NS: u64 = 2 << SEQ_NS_SHIFT;

/// Application deliveries, each with its envelope sequence and the
/// instant of the command that produced it. A range worker stamps that
/// instant; the serial driver, which pumps at it, and an outbox a
/// restarted worker restored stamp `VirtualTime::MAX`, which reads as
/// the pump's instant. (The stamp fills the padding the sequence leaves
/// beside a 16-byte-aligned delivery, so it costs no memory.)
pub(crate) type Deliveries = Vec<(u64, VirtualTime, AppDelivery)>;

/// Everything a range has produced for the relay since it was last
/// asked: application deliveries, then deferred answers with their
/// envelope sequences, each in production order.
pub(crate) type Stream = (Deliveries, Vec<(u64, DeferredAnswer)>);

/// One published event and its remote deliveries' rows, by home range.
type Grouped = (ContextEvent, Vec<(Guid, Vec<RelayRow>)>);

// Public so it can bound the public core; declared in a private module
// so nothing outside the crate can name or implement it.
mod host {
    use super::*;

    /// How the relay core reaches one range, whichever thread the
    /// range's Context Server runs on. Implemented by [`ContextServer`]
    /// (inline) and [`crate::runtime::RangeRuntime`] (mailbox); a test
    /// can script one.
    pub trait RangeHost {
        /// The range's SCINET GUID.
        fn id(&self) -> Guid;
        /// The range's name.
        fn name(&self) -> &str;
        /// The floor plan the range covers.
        fn plan(&self) -> &FloorPlan;
        /// The range's telemetry registry.
        fn registry(&self) -> &Registry;
        /// Executes one command at `now` and returns its reply;
        /// [`SciError::RangeDown`] when nobody is serving the range.
        fn call(&mut self, cmd: RangeCommand, now: VirtualTime) -> SciResult<RangeReply>;
        /// Takes what the range has produced for the relay so far.
        fn drain_stream(&mut self) -> Stream;
    }
}

impl RangeHost for ContextServer {
    fn id(&self) -> Guid {
        ContextServer::id(self)
    }

    fn name(&self) -> &str {
        ContextServer::name(self)
    }

    fn plan(&self) -> &FloorPlan {
        self.location().plan()
    }

    fn registry(&self) -> &Registry {
        self.telemetry()
    }

    fn call(&mut self, cmd: RangeCommand, now: VirtualTime) -> SciResult<RangeReply> {
        self.handle(cmd, now)
    }

    /// Moves the outbox and the deferred answers out of the server,
    /// minting each item's envelope sequence from the server's durable
    /// stream counters. Minting here (rather than in the core) is what
    /// makes post-crash redelivery idempotent: replaying the same
    /// commands against the same restored counters reproduces the same
    /// sequences.
    fn drain_stream(&mut self) -> Stream {
        self.take_stream(VirtualTime::MAX)
    }
}

impl ContextServer {
    /// [`RangeHost::drain_stream`], each delivery stamped `produced`.
    pub(crate) fn take_stream(&mut self, produced: VirtualTime) -> Stream {
        let mut stream = Stream::default();
        for d in self.drain_outbox() {
            stream
                .0
                .push((self.next_stream_delivery_seq(), produced, d));
        }
        for a in self.drain_answers() {
            stream.1.push((self.next_stream_answer_seq(), a));
        }
        stream
    }
}

/// The result of a federated query submission.
#[derive(Clone, Debug)]
pub struct FederatedAnswer {
    /// The answer (from the local or the remote Context Server).
    pub answer: QueryAnswer,
    /// Hops travelled (query forward + response), 0 for local answers.
    pub hops: u32,
    /// Network latency incurred, zero for local answers.
    pub latency: VirtualDuration,
}

/// The inter-range protocol and its state, generic over the wire (`T`)
/// and over how a range executes (`H`). Both federation drivers wrap
/// one and dereference to it, so everything public here is part of
/// both drivers' API.
pub struct RelayCore<T: Transport, H: RangeHost> {
    pub(crate) net: T,
    /// The ranges currently being served, by node GUID.
    pub(crate) hosts: HashMap<Guid, H>,
    /// The name of every range ever admitted, served or not: what a
    /// range that is down is called in its `RangeDown` error and in a
    /// degraded answer.
    names: HashMap<Guid, String>,
    app_home: HashMap<Guid, Guid>,
    inbox: HashMap<Guid, Vec<AppDelivery>>,
    answers: HashMap<Guid, Vec<(Guid, QueryAnswer)>>,
    /// Freshness bounds per query, recorded at submission so relay
    /// staleness can be judged without asking the producing range.
    relay_max_age: HashMap<Guid, VirtualDuration>,
    /// Envelopes already absorbed: the receiver-side half of
    /// exactly-once relay.
    seen_relays: SeenEnvelopes,
    /// Relays that exhausted their in-call retries (or found no live
    /// host); re-fired first on every pump, so eventual connectivity
    /// means eventual delivery.
    pending_relays: Vec<Message>,
    /// The first failure among strays a submission drained beside its
    /// own round trip; the next pump returns it.
    stray_error: Option<SciError>,
    /// Per-origin migration envelope counters.
    migrate_seq: HashMap<Guid, u64>,
    /// Wall-clock start of each in-flight migration, keyed by its
    /// envelope: timed into `range.migrate.inflight_us` when the packet
    /// is applied at its target.
    migrate_started: HashMap<(Guid, u64), Instant>,
    pub(crate) ids: GuidGenerator,
    pub(crate) metrics: FedMetrics,
}

impl<T: Transport, H: RangeHost> RelayCore<T, H> {
    /// Creates an empty core over `net`; `seed` drives message-id
    /// minting.
    pub fn with_transport(net: T, seed: u64) -> Self {
        RelayCore {
            net,
            hosts: HashMap::default(),
            names: HashMap::default(),
            app_home: HashMap::default(),
            inbox: HashMap::default(),
            answers: HashMap::default(),
            relay_max_age: HashMap::default(),
            seen_relays: SeenEnvelopes::default(),
            pending_relays: Vec::new(),
            stray_error: None,
            migrate_seq: HashMap::default(),
            migrate_started: HashMap::default(),
            ids: GuidGenerator::seeded(seed),
            metrics: FedMetrics::new(),
        }
    }

    /// Admits a range: it becomes an overlay node (unless the transport
    /// already knows it — a killed range coming back under its
    /// identity), claims `range/{name}` and every room of its floor plan
    /// that its own replica of the registration state shows unclaimed,
    /// and is served from now on. On a transport whose nodes share one
    /// replica the first range to claim a room therefore keeps it; on
    /// one replica per node, contested claims meet when the nodes do
    /// and the store's one conflict rule settles them identically
    /// everywhere.
    ///
    /// # Errors
    ///
    /// * [`SciError::Internal`] if the range is already being served,
    ///   or its name is registered under a different GUID;
    /// * the transport's refusal of a duplicate GUID.
    pub fn add_range(&mut self, host: H) -> SciResult<Guid> {
        let id = host.id();
        if self.hosts.contains_key(&id) {
            return Err(SciError::Internal(format!(
                "range {id} is already being served"
            )));
        }
        match self.net.find_by_name(host.name()) {
            Some(existing) if existing == id => {}
            Some(existing) => {
                return Err(SciError::Internal(format!(
                    "range name `{}` belongs to node {existing}, not {id}",
                    host.name()
                )));
            }
            None => self.net.add_node(id, host.name())?,
        }
        let keys = std::iter::once(format!("range/{}", host.name()))
            .chain(host.plan().rooms().iter().map(|room| place_key(&room.name)));
        for key in keys {
            if self.registered_at(id, &key).is_none() {
                self.net.publish_registration(id, &key, &id.to_string())?;
            }
        }
        self.names.insert(id, host.name().to_owned());
        self.hosts.insert(id, host);
        Ok(id)
    }

    /// Number of ranges being served.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Returns `true` when no ranges have been added.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// The ranges being served, in GUID order. Sorted iteration keeps
    /// the fault layer's PRNG draw sequence — and with it a whole chaos
    /// schedule — a pure function of the seed, not of the hash map's
    /// layout.
    pub(crate) fn node_ids(&self) -> Vec<Guid> {
        let mut ids: Vec<Guid> = self.hosts.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Looks up a range's host by name.
    pub fn host(&self, range: &str) -> Option<&H> {
        self.hosts.get(&self.net.find_by_name(range)?)
    }

    /// Mutable access to a range's host by name.
    ///
    /// # Errors
    ///
    /// [`SciError::UnknownLocation`] for unknown range names;
    /// [`SciError::RangeDown`] for a known range nobody is serving.
    pub fn host_mut(&mut self, range: &str) -> SciResult<&mut H> {
        let id = self.node_named(range)?;
        self.host_at(id)
    }

    /// Sends one command to the named range and waits for its reply.
    ///
    /// # Errors
    ///
    /// As for [`RelayCore::host_mut`], then whatever the command returns.
    pub fn command(
        &mut self,
        range: &str,
        cmd: RangeCommand,
        now: VirtualTime,
    ) -> SciResult<RangeReply> {
        self.host_mut(range)?.call(cmd, now)
    }

    /// Stops serving a range and hands back its host. The overlay node,
    /// its registrations and application homes stay, so a replacement
    /// host can rejoin under the same identity.
    ///
    /// # Errors
    ///
    /// As for [`RelayCore::host_mut`].
    pub(crate) fn retire(&mut self, range: &str) -> SciResult<H> {
        let id = self.node_named(range)?;
        self.hosts
            .remove(&id)
            .ok_or_else(|| SciError::RangeDown(range.to_owned()))
    }

    fn node_named(&self, range: &str) -> SciResult<Guid> {
        self.net
            .find_by_name(range)
            .ok_or_else(|| SciError::UnknownLocation(range.to_owned()))
    }

    /// The host serving `node`; [`SciError::RangeDown`], naming the
    /// range, when nobody is.
    fn host_at(&mut self, node: Guid) -> SciResult<&mut H> {
        let names = &self.names;
        self.hosts
            .get_mut(&node)
            .ok_or_else(|| SciError::RangeDown(range_name(names, node)))
    }

    /// The range node covering `place` as far as `at_node` knows: the
    /// `place/{place}` registration in that node's own replica.
    pub fn range_covering_from(&self, at_node: Guid, place: &str) -> Option<Guid> {
        self.registered_at(at_node, &place_key(place))
    }

    /// The node GUID registered under `key` in `at_node`'s replica. A
    /// value that is not a GUID — anything a peer cares to replicate —
    /// reads as no registration.
    fn registered_at(&self, at_node: Guid, key: &str) -> Option<Guid> {
        self.net.registration(at_node, key)?.parse().ok()
    }

    /// Gives every node full overlay knowledge.
    pub fn connect_full(&mut self) {
        self.net.connect_full();
    }

    /// Cumulative overlay routing statistics.
    pub fn network_stats(&self) -> &LoadStats {
        self.net.stats()
    }

    /// Read access to the transport.
    pub fn transport(&self) -> &T {
        &self.net
    }

    /// Mutable access to the transport, for fault injection through a
    /// [`sci_overlay::fault::FaultyTransport`] wrapper.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.net
    }

    /// Installs a tracer on the relay path (unknown-app homing
    /// decisions emit spans through it). Defaults to a no-op.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.metrics.tracer = tracer;
    }

    /// Moves an entity between ranges as one first-class operation:
    /// `migrate-out` packages its profile, advertisements, standing
    /// queries, queued deliveries and deferred answers at the source;
    /// the packet crosses the overlay as a [`MessageKind::Migrate`]
    /// message inside the exactly-once `(origin, seq)` envelope (a
    /// duplicated packet replays once, a dropped one is retransmitted
    /// and eventually parked for the next pump, as is one whose target
    /// has no live host); `migrate-in` replays it at the target. The
    /// entity's home-range record moves *before* the packet ships, so
    /// deliveries produced for it mid-move relay toward the new home.
    /// Wall time from packaging to replay is recorded in
    /// `range.migrate.inflight_us`.
    ///
    /// # Errors
    ///
    /// * [`SciError::UnknownLocation`] for unknown range names;
    /// * [`SciError::UnknownEntity`] if the source range does not know
    ///   the entity;
    /// * [`SciError::RangeDown`] if the source range is not serving;
    /// * codec/replay failures from the target range.
    pub fn migrate_entity(
        &mut self,
        entity: Guid,
        from: &str,
        to: &str,
        now: VirtualTime,
    ) -> SciResult<()> {
        let src = self.node_named(from)?;
        let dst = self.node_named(to)?;
        if src == dst {
            return Ok(());
        }
        #[expect(clippy::disallowed_methods, reason = "telemetry timing")]
        let started = Instant::now();
        let reply = self
            .host_at(src)?
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
        let counter = self.migrate_seq.entry(src).or_insert(0);
        *counter += 1;
        let seq = *counter | MIGRATE_SEQ_NS;
        // The packet document goes in as the source range wrote it.
        let payload = document(|w| {
            w.element("migrate", |w| {
                w.attr("entity", entity);
                w.attr("origin", src);
                w.attr("seq", seq);
                w.raw(&xml);
            })
        });
        self.migrate_started.insert((src, seq), started);
        let packet = self.envelope(src, dst, MessageKind::Migrate, payload.into_bytes());
        self.send_reliable(packet, 0, now)
    }

    /// Builds the degraded answer for a query whose target range could
    /// not be consulted, counting it in `federation.answers.partial`.
    fn degraded(&mut self, missing: Guid, reason: &str) -> FederatedAnswer {
        self.metrics.partial_answers.inc();
        let missing_range = range_name(&self.names, missing);
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
    /// over the SCINET if the Where clause targets another range.
    ///
    /// Graceful degradation: if the target range is known but cannot
    /// currently be consulted — the overlay cannot reach it
    /// (`unroutable`) or nobody is serving it (`range-down`) — the
    /// submission does **not** error. It returns a
    /// [`QueryAnswer::Partial`] naming the missing range, so the caller
    /// can distinguish "nothing matched" from "somebody could not be
    /// asked". Unknown range names still error. Resubmitting a query
    /// after a partial answer is safe: a range answers an id it already
    /// holds from what is live, and wires nothing twice.
    ///
    /// # Errors
    ///
    /// * [`SciError::UnknownLocation`] for unknown range names.
    /// * [`SciError::RangeDown`] if the *home* range is not serving.
    /// * Whatever the answering Context Server returns.
    pub fn submit_from(
        &mut self,
        range: &str,
        query: &Query,
        now: VirtualTime,
    ) -> SciResult<FederatedAnswer> {
        let home = self.node_named(range)?;
        self.app_home.insert(query.owner, home);
        if let Some(max_age) = query.max_age() {
            // A bound below the retry backoff makes every fully retried
            // relay stale on arrival: count it, answer as usual.
            if max_age.as_micros() < WORST_CASE_BACKOFF_US {
                self.metrics.freshness_infeasible.inc();
                let mut span = self.metrics.tracer.span("federation.freshness.infeasible");
                span.field("query", query.id);
                span.field("max_age_us", max_age.as_micros());
            }
            self.relay_max_age.insert(query.id, max_age);
        }

        let local = self
            .host_at(home)?
            .call(RangeCommand::Submit(Box::new(query.clone())), now)
            .and_then(expect_answer);

        // Decide where the query must go: an explicit Forward answer, or
        // an UnknownLocation error, either resolved through what the
        // home node has learned (the lobby CS does not cover L10.01; its
        // replica says level-ten does).
        let dst = match local {
            Ok(QueryAnswer::Forward { range: target }) => self
                .registered_at(home, &format!("range/{target}"))
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
                    .range_covering_from(home, &place)
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

        // Forward the query over the overlay (real codec, real routing).
        let fwd_id = self.ids.next_guid();
        let fwd = Message::new(
            fwd_id,
            home,
            dst,
            MessageKind::QueryForward,
            qcodec::to_xml(query),
        );
        let out_fwd = match self.net.send(fwd) {
            Ok(o) => o,
            Err(SciError::Unroutable { .. }) => return Ok(self.degraded(dst, "unroutable")),
            Err(e) => return Err(e),
        };
        let arrival = now.saturating_add(out_fwd.latency);

        // The destination executes this forward, once.
        let fwd = self
            .take_landed(dst, fwd_id, arrival)
            .ok_or_else(|| SciError::Internal("forwarded query vanished".into()))?;
        let xml = std::str::from_utf8(&fwd.payload)
            .map_err(|_| SciError::Codec("query payload is not UTF-8".into()))?;
        let remote_query = qcodec::from_xml(xml)?;
        let answer = match self
            .host_at(dst)
            .and_then(|host| host.call(RangeCommand::Submit(Box::new(remote_query)), arrival))
            .and_then(expect_answer)
        {
            Ok(a) => a,
            // Nobody is serving the target: degrade rather than fail the
            // whole submission.
            Err(SciError::RangeDown(_)) => return Ok(self.degraded(dst, "range-down")),
            Err(e) => return Err(e),
        };

        // Route the response back.
        let resp_id = self.ids.next_guid();
        let resp = Message::new(
            resp_id,
            dst,
            home,
            MessageKind::QueryResponse,
            answer_to_xml(&answer),
        );
        let out_resp = match self.net.send(resp) {
            Ok(o) => o,
            // The remote range answered (a subscription it created stays
            // live, and a resubmission is answered from it) but the
            // answer could not travel home: degrade.
            Err(SciError::Unroutable { .. }) => return Ok(self.degraded(dst, "unroutable")),
            Err(e) => return Err(e),
        };
        let latency = out_fwd.latency + out_resp.latency;
        let resp = self
            .take_landed(home, resp_id, now.saturating_add(latency))
            .ok_or_else(|| SciError::Internal("response vanished".into()))?;
        let text = std::str::from_utf8(&resp.payload)
            .map_err(|_| SciError::Codec("answer payload is not UTF-8".into()))?;
        let decoded = answer_from_element(&parse(text)?)?;

        Ok(FederatedAnswer {
            answer: decoded,
            hops: out_fwd.hops + out_resp.hops,
            latency,
        })
    }

    /// Moves what every range has produced to its owners' home ranges,
    /// relaying across the overlay where needed: release traffic a
    /// fault layer held back, re-fire parked relays, route each range's
    /// stream, then sweep every inbox.
    ///
    /// `now` is the logical time of the pump: a relayed delivery
    /// arrives at `now` + route latency, and if that arrival violates
    /// its query's freshness bound (`qoc-max-age-us`) it is dropped and
    /// counted in [`RelayCore::relay_stale_drops`] — the cross-range
    /// counterpart of the Context Server's local stale-drop accounting.
    /// A delivery homed where it was produced is delivered at the
    /// instant of the command that produced it, when its range's worker
    /// stamped one, and at `now` otherwise.
    ///
    /// # Errors
    ///
    /// Propagates non-routing failures (codec errors, dead inner
    /// transports), including those of traffic a submission drained
    /// since the last pump. Routing failures are retried, not propagated.
    pub fn pump(&mut self, now: VirtualTime) -> SciResult<()> {
        self.pump_settling(now, |_| {})
    }

    /// [`RelayCore::pump`] with a per-range hook that runs right before
    /// that range's stream is taken — where the threaded driver waits
    /// out its pipelined commands, one range at a time, so the other
    /// workers keep running while this one's traffic is relayed.
    pub(crate) fn pump_settling(
        &mut self,
        now: VirtualTime,
        mut settle: impl FnMut(&mut H),
    ) -> SciResult<()> {
        self.net.flush();
        self.retry_pending(now)?;
        for node in self.node_ids() {
            let Some(host) = self.hosts.get_mut(&node) else {
                continue;
            };
            settle(host);
            let (deliveries, answers) = host.drain_stream();
            #[expect(clippy::disallowed_methods, reason = "telemetry timing")]
            let started = Instant::now();
            let mut batch = Vec::new();
            let mut open: Option<Grouped> = None;
            for (seq, produced, d) in deliveries {
                self.metrics.stream_events.inc();
                let home = self.home_of(d.app, node);
                // The overlay's filter: a recovered range may re-stream.
                if home == node {
                    if self.seen_relays.insert((node, seq)) {
                        self.deliver(d, produced.min(now));
                    } else {
                        self.metrics.relay_dedup_hits.inc();
                    }
                    continue;
                }
                self.metrics.relay_events.inc();
                if let Some(done) = open.take_if(|(e, _)| !same_publish(e, &d.event)) {
                    self.relay_event(node, done, &mut batch, now)?;
                }
                let (_, groups) = open.get_or_insert_with(|| (d.event, Vec::new()));
                match groups.iter_mut().find(|(at, _)| *at == home) {
                    Some((_, rows)) => rows.push((seq, d.app, d.query)),
                    None => groups.push((home, vec![(seq, d.app, d.query)])),
                }
            }
            if let Some(done) = open {
                self.relay_event(node, done, &mut batch, now)?;
            }
            for (seq, a) in answers {
                self.metrics.stream_answers.inc();
                batch.extend(self.route_answer(node, seq, a));
                if batch.len() == MAX_RELAY_BATCH {
                    self.send_batch(std::mem::take(&mut batch), now)?;
                }
            }
            self.send_batch(batch, now)?;
            self.metrics.relay_us.record(elapsed_us(started));
        }
        self.sweep(now)?;
        self.stray_error.take().map_or(Ok(()), Err)
    }

    /// Fires due timers in every range, in GUID order, and fails each
    /// source a range's reply names as silent past its window: the
    /// liveness check is the range's read, the `Fail` the driver's
    /// decision, logged by the range like any command. A range that is
    /// down is skipped; the caller pumps afterwards.
    pub(crate) fn poll_ranges(&mut self, now: VirtualTime) {
        for node in self.node_ids() {
            let Some(host) = self.hosts.get_mut(&node) else {
                continue;
            };
            let Ok(RangeReply::Fired { silent, .. }) = host.call(RangeCommand::PollTimers, now)
            else {
                continue;
            };
            for (ce, _) in silent {
                let _ = host.call(RangeCommand::Fail(ce), now);
            }
        }
    }

    /// The home range of `app`. An app with no recorded home is *not*
    /// silently homed: the decision is counted in
    /// `federation.relay.unknown_app` and traced, then its traffic is
    /// kept at the producing range (the only safe default — it is where
    /// the subscription lives).
    fn home_of(&mut self, app: Guid, producer: Guid) -> Guid {
        match self.app_home.get(&app) {
            Some(&home) => home,
            None => {
                self.metrics.relay_unknown_app.inc();
                let mut span = self.metrics.tracer.span("federation.relay.unknown-app");
                span.field("app", app);
                span.field("origin", producer);
                producer
            }
        }
    }

    /// Queues one [`event_relay_group`] per home range, sending a full
    /// batch. Each group is traced as one `federation.relay` event.
    fn relay_event(
        &mut self,
        node: Guid,
        (event, groups): Grouped,
        batch: &mut Vec<Message>,
        now: VirtualTime,
    ) -> SciResult<()> {
        for (home, rows) in groups {
            self.trace_hop("federation.relay", &event, home);
            let payload = event_relay_group(node, &rows, &event);
            batch.push(self.envelope(node, home, MessageKind::EventRelay, payload));
        }
        if batch.len() < MAX_RELAY_BATCH {
            return Ok(());
        }
        self.send_batch(std::mem::take(batch), now)
    }

    /// Routes one deferred answer produced at `node` as the pump does a
    /// delivery, one `answer-relay` envelope each (the CAPA
    /// lobby→Level-Ten pattern in reverse). The server-minted sequence
    /// is shifted into the answer namespace so answer and delivery
    /// counters cannot collide in the shared `(origin, seq)` filter.
    fn route_answer(&mut self, node: Guid, seq: u64, deferred: DeferredAnswer) -> Option<Message> {
        let seq = seq | ANSWER_SEQ_NS;
        let home = self.home_of(deferred.1, node);
        if home == node {
            if self.seen_relays.insert((node, seq)) {
                let (query, owner, answer) = deferred;
                self.answers.entry(owner).or_default().push((query, answer));
            } else {
                self.metrics.relay_dedup_hits.inc();
            }
            return None;
        }
        let payload = document(|w| {
            write_deferred_answer(w, "answer-relay", "app", &deferred, |w| {
                w.attr("origin", node);
                w.attr("seq", seq);
            })
        });
        self.metrics.relay_answers.inc();
        Some(self.envelope(node, home, MessageKind::QueryResponse, payload.into_bytes()))
    }

    /// Wraps a serialised envelope in a fresh overlay message.
    fn envelope(&mut self, src: Guid, dst: Guid, kind: MessageKind, payload: Vec<u8>) -> Message {
        Message::new(self.ids.next_guid(), src, dst, kind, payload)
    }

    /// Sends relays with one [`Transport::send_all`]: each that lands is
    /// absorbed at its arrival, each that does not enters
    /// [`RelayCore::send_reliable`] at its first retransmission; then
    /// returns the first non-routing failure.
    fn send_batch(&mut self, batch: Vec<Message>, now: VirtualTime) -> SciResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let outcomes = self.net.send_all(&batch);
        let mut first_error = None;
        for (msg, outcome) in batch.into_iter().zip(outcomes) {
            let handled = match outcome {
                Ok(o) => self.absorb_landed(msg.dst, now.saturating_add(o.latency)),
                Err(SciError::Unroutable { .. }) => self.send_reliable(msg, 1, now),
                Err(e) => Err(e),
            };
            if let Err(e) = handled {
                first_error.get_or_insert(e);
            }
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Sends a relay envelope from attempt `first` (0 is the first
    /// transmission) up to [`RELAY_RETRIES`] retransmissions under
    /// exponential backoff (accounted in virtual time: each retry
    /// pushes the arrival stamp back by the accumulated wait). An
    /// envelope that exhausts its retries is parked in
    /// `pending_relays` for the next pump, so any outage that
    /// eventually heals cannot lose it.
    ///
    /// # Errors
    ///
    /// Propagates non-routing transport failures.
    fn send_reliable(&mut self, msg: Message, first: u32, now: VirtualTime) -> SciResult<()> {
        let mut backoff = VirtualDuration::ZERO;
        let mut wait = RETRY_BACKOFF_BASE_US;
        for attempt in first..=RELAY_RETRIES {
            if attempt > 0 {
                self.metrics.retry_attempts.inc();
                backoff += VirtualDuration::from_micros(wait);
                wait = wait.saturating_mul(2);
            }
            match self.net.send(msg.clone()) {
                Ok(outcome) => {
                    let arrival = now.saturating_add(outcome.latency).saturating_add(backoff);
                    return self.absorb_landed(msg.dst, arrival);
                }
                Err(SciError::Unroutable { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        self.park(msg);
        Ok(())
    }

    /// Parks an envelope for the next pump's re-fire.
    fn park(&mut self, msg: Message) {
        self.metrics.retry_parked.inc();
        self.pending_relays.push(msg);
    }

    /// Retransmits every parked relay once. Still-unroutable envelopes
    /// go back in the park; a success is absorbed immediately.
    fn retry_pending(&mut self, now: VirtualTime) -> SciResult<()> {
        if self.pending_relays.is_empty() {
            return Ok(());
        }
        let mut parked = std::mem::take(&mut self.pending_relays);
        // Canonical re-fire order — the same discipline as the sorted
        // node iteration in `pump`/`sweep`: message ids are minted
        // monotonically from the seed, so `(dst, id)` preserves each
        // destination's send order while making the fault layer's PRNG
        // draw sequence independent of park insertion history.
        parked.sort_unstable_by_key(|m| (m.dst, m.id));
        for msg in parked {
            self.metrics.retry_attempts.inc();
            match self.net.send(msg.clone()) {
                Ok(outcome) => self.absorb_landed(msg.dst, now.saturating_add(outcome.latency))?,
                Err(SciError::Unroutable { .. }) => self.pending_relays.push(msg),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Drains every node's inbox and absorbs what landed: late
    /// arrivals from ack-lost sends, duplicates, and traffic released
    /// by [`Transport::flush`] all reach their applications here.
    fn sweep(&mut self, now: VirtualTime) -> SciResult<()> {
        for node in self.node_ids() {
            self.absorb_landed(node, now)?;
        }
        Ok(())
    }

    /// Absorbs everything in `node`'s overlay inbox.
    fn absorb_landed(&mut self, node: Guid, arrival: VirtualTime) -> SciResult<()> {
        let landed = self.net.drain(node);
        self.absorb_all(landed, arrival)
    }

    /// Absorbs drained messages. Every message is attempted — one
    /// undecodable payload must not strand the well-formed traffic
    /// drained beside it — and the first failure is returned afterwards.
    fn absorb_all(&mut self, landed: Vec<Message>, arrival: VirtualTime) -> SciResult<()> {
        let mut first_error = None;
        for m in landed {
            if let Err(e) = self.absorb(m, arrival) {
                first_error.get_or_insert(e);
            }
        }
        first_error.map_or(Ok(()), Err)
    }

    /// The first copy of message `id` to land at `node`: the half of a
    /// round trip [`RelayCore::submit_from`] minted. Everything drained
    /// beside it goes through [`RelayCore::absorb_all`]: a duplicate
    /// copy, or a forward or answer stranded by an earlier degraded
    /// submission, is a stranger; a relay is delivered. A stray's
    /// failure is not this round trip's, so the submission still
    /// answers; it is kept for the next pump to return, as if the stray
    /// had landed then.
    fn take_landed(&mut self, node: Guid, id: Guid, arrival: VirtualTime) -> Option<Message> {
        let mut landed = self.net.drain(node);
        let mine = landed
            .iter()
            .position(|m| m.id == id)
            .map(|at| landed.remove(at));
        if let Err(e) = self.absorb_all(landed, arrival) {
            self.stray_error.get_or_insert(e);
        }
        mine
    }

    /// When the tracer is on, one `name` event under `event`'s trace key
    /// `(source, seq)`, with the range at the other end of the hop.
    fn trace_hop(&self, name: &str, event: &ContextEvent, peer: Guid) {
        let tracer = &self.metrics.tracer;
        if tracer.enabled() {
            tracer.event(
                name,
                &[
                    ("source", event.source.to_string()),
                    ("seq", event.seq.0.to_string()),
                    ("peer", peer.to_string()),
                ],
            );
        }
    }

    /// Hands one delivery to its app's inbox at `at`, recording the
    /// virtual time since the event was produced in
    /// `e2e.delivery_latency_us` and, when the tracer is on, one
    /// `federation.deliver` event under the event's trace key
    /// `(source, seq)`, the pair its `ingest` span carries.
    fn deliver(&mut self, d: AppDelivery, at: VirtualTime) {
        let latency = at.saturating_since(d.event.timestamp);
        self.metrics.e2e_latency.record(latency.as_micros());
        let tracer = &self.metrics.tracer;
        if tracer.enabled() {
            tracer.event(
                "federation.deliver",
                &[
                    ("source", d.event.source.to_string()),
                    ("seq", d.event.seq.0.to_string()),
                    ("app", d.app.to_string()),
                    ("query", d.query.to_string()),
                ],
            );
        }
        self.inbox.entry(d.app).or_default().push(d);
    }

    /// Delivers one overlay message behind the exactly-once filter: an
    /// envelope `(origin, seq)` already seen is discarded, and a relay
    /// that carried one counts once in `federation.relay.dedup_hits`.
    /// A decoded event relay is traced as one `federation.absorb` event.
    /// Each new event row is checked against its query's freshness bound
    /// at `arrival`. Non-relay traffic (stray query forwards and answers
    /// from degraded submissions) is dropped.
    ///
    /// An envelope is recorded only once its payload has decoded, so a
    /// mangled copy cannot mask the well-formed retransmission; a
    /// migration only once its target has applied it.
    ///
    /// # Errors
    ///
    /// [`SciError::Codec`] for an undecodable relay, counted in
    /// `federation.relay.undecodable`; migration replay failures from
    /// the target range.
    fn absorb(&mut self, m: Message, arrival: VirtualTime) -> SciResult<()> {
        let (envelope, relayed) = match decode_relay(&m, &self.seen_relays) {
            Ok(Landed::Relay(envelope, relayed)) => (envelope, relayed),
            Ok(Landed::Event(origin, mut rows, event)) => {
                self.trace_hop("federation.absorb", &event, origin);
                let carried = rows.len();
                rows.retain(|&(seq, ..)| self.seen_relays.insert((origin, seq)));
                if rows.len() < carried {
                    self.metrics.relay_dedup_hits.inc();
                }
                let age = arrival.saturating_since(event.timestamp);
                for (_, app, query) in rows {
                    if self.relay_max_age.get(&query).is_some_and(|&max| age > max) {
                        self.metrics.relay_stale_drops.inc();
                        continue;
                    }
                    let event = event.clone();
                    self.deliver(AppDelivery { app, query, event }, arrival);
                }
                return Ok(());
            }
            Ok(Landed::Duplicate) => {
                self.metrics.relay_dedup_hits.inc();
                return Ok(());
            }
            Ok(Landed::Stranger) => return Ok(()),
            Err(e) => {
                self.metrics.relay_undecodable.inc();
                return Err(match e {
                    SciError::Codec(_) => e,
                    other => SciError::Codec(other.to_string()),
                });
            }
        };
        match relayed {
            Relayed::Answer((query, app, answer)) => {
                self.seen_relays.insert(envelope);
                self.answers.entry(app).or_default().push((query, answer));
                Ok(())
            }
            Relayed::Migration(packet) => {
                // A request/response call, never a pipelined cast: a
                // shedding mailbox may drop casts, and a shed migration
                // packet is a vanished entity.
                let replayed = self
                    .hosts
                    .get_mut(&m.dst)
                    .map(|host| host.call(RangeCommand::MigrateIn(Box::new(packet)), arrival));
                let replayed = match replayed {
                    // Nobody is serving the target. The entity has
                    // already left its source, so the packet must
                    // outlive the outage: park it, unseen, until a pump
                    // finds the range back.
                    None | Some(Err(SciError::RangeDown(_))) => {
                        self.park(m);
                        return Ok(());
                    }
                    Some(replayed) => replayed,
                };
                self.seen_relays.insert(envelope);
                if let Some(started) = self.migrate_started.remove(&envelope) {
                    self.metrics.migrate_inflight.record(elapsed_us(started));
                }
                replayed.map(drop)
            }
        }
    }

    /// Relayed deliveries dropped for violating their query's
    /// freshness bound after crossing the overlay.
    pub fn relay_stale_drops(&self) -> u64 {
        self.metrics.relay_stale_drops.get()
    }

    /// Duplicate relay envelopes discarded by the receiver-side
    /// exactly-once filter.
    pub fn relay_dedup_hits(&self) -> u64 {
        self.metrics.relay_dedup_hits.get()
    }

    /// Relay retransmissions attempted (in-call retries plus
    /// parked-envelope retries; first attempts are not counted).
    pub fn retry_attempts(&self) -> u64 {
        self.metrics.retry_attempts.get()
    }

    /// Deliveries and answers whose application had no recorded home
    /// range (counted, traced, and kept at the producing range instead
    /// of being silently homed).
    pub fn relay_unknown_app(&self) -> u64 {
        self.metrics.relay_unknown_app.get()
    }

    /// Relays that exhausted their in-call retries (or found no live
    /// host) and were parked for later pumps.
    pub fn retry_parked(&self) -> u64 {
        self.metrics.retry_parked.get()
    }

    /// Degraded (partial) query answers returned by
    /// [`RelayCore::submit_from`].
    pub fn partial_answers(&self) -> u64 {
        self.metrics.partial_answers.get()
    }

    /// Relays currently parked awaiting connectivity.
    pub fn pending_relay_count(&self) -> usize {
        self.pending_relays.len()
    }

    /// Freezes a federation-wide telemetry view: the relay's own
    /// `federation.*` instruments, every served range's registry (bus,
    /// command, resolver and runtime instruments — readable while
    /// workers run, since all counters are atomics), the overlay's
    /// routing stats folded in under the `net.*` names, and the
    /// transport's own registry if it keeps one (fault injection
    /// counters).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.metrics.registry.snapshot();
        for host in self.hosts.values() {
            snap.merge(&host.registry().snapshot());
        }
        snap.merge(&fold_load_stats(self.net.stats()));
        if let Some(faults) = self.net.telemetry() {
            snap.merge(&faults.snapshot());
        }
        snap
    }

    /// Removes and returns the deliveries waiting for an application.
    pub fn deliveries_for(&mut self, app: Guid) -> Vec<AppDelivery> {
        self.inbox.remove(&app).unwrap_or_default()
    }

    /// Removes and returns deferred answers waiting for an application.
    pub fn answers_for(&mut self, app: Guid) -> Vec<(Guid, QueryAnswer)> {
        self.answers.remove(&app).unwrap_or_default()
    }
}

/// What `node` was admitted as, or its GUID if it never was.
fn range_name(names: &HashMap<Guid, String>, node: Guid) -> String {
    names
        .get(&node)
        .cloned()
        .unwrap_or_else(|| node.to_string())
}

/// The registration key of a room's coverage claim.
fn place_key(place: &str) -> String {
    format!("place/{place}")
}

/// Whether two deliveries carry what one bus fan-out published.
fn same_publish(a: &ContextEvent, b: &ContextEvent) -> bool {
    (a.source, a.seq, a.timestamp, &a.topic) == (b.source, b.seq, b.timestamp, &b.topic)
        && std::sync::Arc::ptr_eq(&a.payload, &b.payload)
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

/// The decoded body of one enveloped relay document.
enum Relayed {
    Answer(DeferredAnswer),
    Migration(MigrationPacket),
}

/// What an overlay message turned out to carry.
enum Landed {
    /// Not a relay at all: other message kinds, and the bare `<answer>`
    /// of a query round-trip whose submission already degraded.
    Stranger,
    /// A relay whose every envelope `seen` has already recorded.
    Duplicate,
    /// A relay not seen before, under its `(origin, seq)` envelope.
    Relay((Guid, u64), Relayed),
    /// An event relay from `origin` with a row not seen before.
    Event(Guid, Vec<RelayRow>, ContextEvent),
}

/// Decodes the payload of an overlay message that may be a relay.
/// Total: any payload yields a value or an error, never a panic.
///
/// An event relay is a binary record; `seen` is consulted on its rows
/// before the event is decoded, so a retransmission costs only its
/// rows of reading. Answers and migration packets are the documents the
/// paper exchanges between ranges and stay XML.
fn decode_relay(m: &Message, seen: &SeenEnvelopes) -> SciResult<Landed> {
    let root = match m.kind {
        MessageKind::EventRelay => {
            let mut r = wire::Reader::new(&m.payload);
            let (origin, rows) = get_relay_head(&mut r)?;
            if rows.iter().all(|&(seq, ..)| seen.contains((origin, seq))) {
                return Ok(Landed::Duplicate);
            }
            let event = get_event(&mut r)?;
            expect_end(&r, "an event relay")?;
            return Ok(Landed::Event(origin, rows, event));
        }
        MessageKind::QueryResponse => "answer-relay",
        MessageKind::Migrate => "migrate",
        _ => return Ok(Landed::Stranger),
    };
    let text = std::str::from_utf8(&m.payload)
        .map_err(|_| SciError::Codec(format!("{root} payload is not UTF-8")))?;
    let doc = parse(text)?;
    if m.kind == MessageKind::QueryResponse && doc.name == "answer" {
        return Ok(Landed::Stranger);
    }
    if doc.name != root {
        return Err(SciError::Codec(format!(
            "expected <{root}>, found <{}>",
            doc.name
        )));
    }
    let envelope = (
        doc.require_attr("origin")?.parse()?,
        parsed_attr(&doc, "seq")?,
    );
    let relayed = match m.kind {
        MessageKind::QueryResponse => Relayed::Answer(deferred_answer_from_element(&doc, "app")?),
        _ => Relayed::Migration(MigrationPacket::from_element(
            doc.require_child("migration")?,
        )?),
    };
    if seen.contains(envelope) {
        return Ok(Landed::Duplicate);
    }
    Ok(Landed::Relay(envelope, relayed))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_location::floorplan::capa_level10;
    use sci_overlay::net::SimNetwork;
    use sci_types::{ContextEvent, ContextType, ContextValue};
    use std::collections::VecDeque;

    /// A range that answers from a script instead of running a Context
    /// Server: what the `RangeHost` seam exists to allow.
    struct Scripted {
        id: Guid,
        name: &'static str,
        plan: FloorPlan,
        registry: Registry,
        replies: VecDeque<SciResult<RangeReply>>,
        streams: VecDeque<Stream>,
        calls: Vec<&'static str>,
    }

    impl Scripted {
        fn new(id: u128, name: &'static str) -> Self {
            Scripted {
                id: Guid::from_u128(id),
                name,
                plan: capa_level10(),
                registry: Registry::new(),
                replies: VecDeque::new(),
                streams: VecDeque::new(),
                calls: Vec::new(),
            }
        }
    }

    impl RangeHost for Scripted {
        fn id(&self) -> Guid {
            self.id
        }
        fn name(&self) -> &str {
            self.name
        }
        fn plan(&self) -> &FloorPlan {
            &self.plan
        }
        fn registry(&self) -> &Registry {
            &self.registry
        }
        fn call(&mut self, cmd: RangeCommand, _now: VirtualTime) -> SciResult<RangeReply> {
            self.calls.push(cmd.kind());
            self.replies.pop_front().unwrap_or(Ok(RangeReply::Ack))
        }
        fn drain_stream(&mut self) -> Stream {
            self.streams.pop_front().unwrap_or_default()
        }
    }

    fn core_of(hosts: [Scripted; 2]) -> RelayCore<SimNetwork, Scripted> {
        core_over(SimNetwork::new(), hosts)
    }

    fn core_over<T: Transport>(net: T, hosts: [Scripted; 2]) -> RelayCore<T, Scripted> {
        let mut core = RelayCore::with_transport(net, 7);
        for host in hosts {
            core.add_range(host).unwrap();
        }
        core.connect_full();
        core
    }

    /// A `SimNetwork` that records the size of every batch it is handed.
    struct Batching(SimNetwork, Vec<usize>);

    impl Transport for Batching {
        fn add_node(&mut self, guid: Guid, name: &str) -> SciResult<()> {
            Transport::add_node(&mut self.0, guid, name)
        }
        fn find_by_name(&self, name: &str) -> Option<Guid> {
            Transport::find_by_name(&self.0, name)
        }
        fn connect_full(&mut self) {
            self.0.connect_full();
        }
        fn join(&mut self, node: Guid, bootstrap: Guid, seed: u64) -> SciResult<()> {
            self.0.join(node, bootstrap, seed)
        }
        fn send(&mut self, message: Message) -> SciResult<sci_overlay::net::RouteOutcome> {
            Transport::send(&mut self.0, message)
        }
        fn send_all(
            &mut self,
            batch: &[Message],
        ) -> Vec<SciResult<sci_overlay::net::RouteOutcome>> {
            self.1.push(batch.len());
            self.0.send_all(batch)
        }
        fn drain(&mut self, node: Guid) -> Vec<Message> {
            self.0.drain(node)
        }
        fn stats(&self) -> &LoadStats {
            Transport::stats(&self.0)
        }
        fn publish_registration(&mut self, node: Guid, key: &str, value: &str) -> SciResult<()> {
            self.0.publish_registration(node, key, value)
        }
        fn registration(&self, node: Guid, key: &str) -> Option<String> {
            self.0.registration(node, key)
        }
        fn registration_digest(&self, node: Guid) -> Option<u64> {
            self.0.registration_digest(node)
        }
    }

    #[test]
    fn a_delivery_stamp_costs_no_memory() {
        use std::mem::size_of;
        assert_eq!(
            size_of::<(u64, VirtualTime, AppDelivery)>(),
            size_of::<(u64, AppDelivery)>()
        );
    }

    #[test]
    fn a_backlog_is_relayed_in_bounded_batches() {
        let app = Guid::from_u128(0xa);
        let backlog = (0..600)
            .map(|k| {
                let event = ContextEvent::new(
                    Guid::from_u128(0x5),
                    ContextType::Presence,
                    ContextValue::Int(k),
                    VirtualTime::from_secs(1),
                );
                let query = Guid::from_u128(0x9);
                (
                    k as u64,
                    VirtualTime::MAX,
                    AppDelivery { app, query, event },
                )
            })
            .collect();
        let mut producer = Scripted::new(1, "a");
        producer.streams.push_back((backlog, Vec::new()));
        let net = Batching(SimNetwork::new(), Vec::new());
        let mut core = core_over(net, [producer, Scripted::new(2, "b")]);
        core.app_home.insert(app, core.node_named("b").unwrap());

        core.pump(VirtualTime::from_secs(1)).unwrap();
        assert_eq!(core.deliveries_for(app).len(), 600);
        assert_eq!(core.transport().1, [256, 256, 88]);
    }

    #[test]
    fn one_event_crosses_once_per_home_range() {
        let (near, far, local) = (
            Guid::from_u128(0xa),
            Guid::from_u128(0xb),
            Guid::from_u128(0xc),
        );
        let event = |k: i64| {
            let at = VirtualTime::from_secs(1);
            ContextEvent::new(
                Guid::from_u128(0x5),
                ContextType::Presence,
                ContextValue::Int(k),
                at,
            )
        };
        let (first, second) = (event(1), event(2));
        let to = |app, event: &ContextEvent| AppDelivery {
            app,
            query: Guid::from_u128(0x9),
            event: event.clone(),
        };
        // One fan-out of `first` with a local delivery between its two
        // remote ones, then `second`, whose payload is its own.
        let stream = vec![
            (0, VirtualTime::MAX, to(near, &first)),
            (1, VirtualTime::MAX, to(local, &first)),
            (2, VirtualTime::MAX, to(far, &first)),
            (3, VirtualTime::MAX, to(near, &second)),
        ];
        let mut producer = Scripted::new(1, "a");
        producer.streams.push_back((stream, Vec::new()));
        let net = Batching(SimNetwork::new(), Vec::new());
        let mut core = core_over(net, [producer, Scripted::new(2, "b")]);
        let (a, b) = (core.node_named("a").unwrap(), core.node_named("b").unwrap());
        core.app_home.extend([(near, b), (far, b), (local, a)]);

        core.pump(VirtualTime::from_secs(1)).unwrap();
        assert_eq!(core.transport().1, [2], "one relay per published event");
        let got = [near, far, local].map(|app| core.deliveries_for(app).len());
        assert_eq!(got, [2, 1, 1]);
        assert_eq!(core.metrics.relay_events.get(), 3);
    }

    #[test]
    fn a_migration_outlives_a_target_that_is_down() {
        let entity = Guid::from_u128(0xe);
        let mut source = Scripted::new(1, "a");
        let packet = MigrationPacket::new(entity).to_xml();
        source.replies.push_back(Ok(RangeReply::Migrated(packet)));
        let mut target = Scripted::new(2, "b");
        for _ in 0..2 {
            target
                .replies
                .push_back(Err(SciError::RangeDown("b".into())));
        }
        let mut core = core_of([source, target]);
        let now = VirtualTime::from_secs(1);

        // Down at the first attempt and at the first re-fire: the
        // packet stays parked, unseen.
        core.migrate_entity(entity, "a", "b", now).unwrap();
        assert_eq!(core.pending_relay_count(), 1);
        core.pump(now).unwrap();
        assert_eq!(core.pending_relay_count(), 1);
        // Back up: applied, and nothing left to re-fire.
        core.pump(now).unwrap();
        core.pump(now).unwrap();
        assert_eq!(core.pending_relay_count(), 0);
        assert_eq!(core.host("b").unwrap().calls, ["migrate-in"; 3]);
        assert_eq!((core.retry_parked(), core.relay_dedup_hits()), (2, 0));
    }

    #[test]
    fn a_registration_that_names_no_node_reads_as_not_covered() {
        let mut lobby = Scripted::new(1, "a");
        lobby
            .replies
            .push_back(Err(SciError::UnknownLocation("x".into())));
        let mut core = core_of([lobby, Scripted::new(2, "b")]);
        let at = core.node_named("a").unwrap();
        let query = Query::builder(Guid::from_u128(0x9), Guid::from_u128(0xa))
            .kind(sci_types::EntityKind::Device)
            .in_place("x")
            .build();

        // Whatever a peer replicated is "not covered" unless it names a
        // node, and the submission says so instead of panicking.
        core.transport_mut()
            .publish_registration(at, "place/x", "not-a-guid")
            .unwrap();
        assert_eq!(core.range_covering_from(at, "x"), None);
        assert!(matches!(
            core.submit_from("a", &query, VirtualTime::ZERO),
            Err(SciError::UnknownLocation(place)) if place == "x"
        ));
    }

    #[test]
    fn a_range_re_offering_its_stream_is_squashed_to_exactly_once() {
        let app = Guid::from_u128(0xa);
        let delivery = |k: u64| AppDelivery {
            app,
            query: Guid::from_u128(0x9),
            event: ContextEvent::new(
                Guid::from_u128(0x5),
                ContextType::Presence,
                ContextValue::Int(k as i64),
                VirtualTime::from_secs(k),
            ),
        };
        // What a WAL-recovered range does: the same envelopes again,
        // then fresh traffic under the next one.
        let mut producer = Scripted::new(1, "a");
        let first = vec![
            (0, VirtualTime::MAX, delivery(0)),
            (1, VirtualTime::MAX, delivery(1)),
        ];
        producer.streams.push_back((first.clone(), Vec::new()));
        let mut again = first;
        again.push((2, VirtualTime::MAX, delivery(2)));
        producer.streams.push_back((again, Vec::new()));

        // Once homed where it is produced, once homed across the overlay.
        for home in ["a", "b"] {
            let mut core = core_of([
                Scripted {
                    streams: producer.streams.clone(),
                    ..Scripted::new(1, "a")
                },
                Scripted::new(2, "b"),
            ]);
            let home = core.node_named(home).unwrap();
            core.app_home.insert(app, home);
            core.pump(VirtualTime::from_secs(3)).unwrap();
            core.pump(VirtualTime::from_secs(3)).unwrap();
            let got: Vec<i64> = core
                .deliveries_for(app)
                .iter()
                .filter_map(|d| d.event.payload.as_int())
                .collect();
            assert_eq!(got, [0, 1, 2]);
            assert_eq!(core.relay_dedup_hits(), 2);
        }
    }
}
