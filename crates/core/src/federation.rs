//! Federation: Context Servers cooperating over the SCINET.
//!
//! "The SCINET is concerned with managing interactions that take place
//! between two or more ranges in order to provide appropriate contextual
//! information" (paper, Section 3). In the CAPA story the lobby's
//! Context Server "looks at the query and identifies that the query
//! should be forwarded to the Context Server for Level Ten".
//!
//! [`Federation`] owns one overlay node per range plus its
//! [`ContextServer`], and implements:
//!
//! * **query forwarding** — a Where clause naming another range turns
//!   into a `QueryForward` message routed over the overlay (query
//!   serialised with the Figure 6 codec), answered with a
//!   `QueryResponse` routed back;
//! * **event relay** — deliveries for applications homed in another
//!   range travel as `EventRelay` messages;
//! * **deferred answers** — a remotely-triggered CAPA-style answer finds
//!   its way back to the application's home range.
//!
//! All messages genuinely cross the binary wire codec and the overlay's
//! hop-by-hop routing, so experiment E7's latency and load numbers
//! reflect the real protocol cost.
//!
//! The wire itself is pluggable: `Federation` is generic over
//! [`Transport`], defaulting to the deterministic [`SimNetwork`]. The
//! channel-backed [`sci_overlay::transport::ThreadedTransport`] drops in
//! when node mailboxes must be drained from other threads; the
//! fully-threaded driver (one worker per range) is
//! [`crate::runtime::ParallelFederation`]. Wrapping the transport in
//! [`sci_overlay::fault::FaultyTransport`] turns either driver into a
//! chaos rig.
//!
//! # Reliable relay protocol
//!
//! Cross-range relays ride an *envelope*: every relayed delivery or
//! deferred answer carries the producing node's GUID (`origin`) and a
//! per-origin monotonic sequence number (`seq`). The sender retries a
//! failed relay up to [`RELAY_RETRIES`] times with exponential backoff
//! accounted in virtual time, then parks it for the next pump — so a
//! relay survives any outage that eventually heals. The receiver
//! discards envelopes it has already seen. Together that turns the
//! transport's at-least-once behaviour (retransmissions, ack loss,
//! duplication faults) into exactly-once delivery, counted by
//! `federation.retry.attempts` and `federation.relay.dedup_hits`.

use std::collections::HashMap;

use bytes::Bytes;

use sci_overlay::message::{Message, MessageKind};
use sci_overlay::net::SimNetwork;
use sci_overlay::stats::LoadStats;
use sci_overlay::transport::Transport;
use sci_query::codec as qcodec;
use sci_query::xml::{parse, Element};
use sci_query::Query;
use sci_types::guid::GuidGenerator;
use sci_types::{
    ContextEvent, FederationModel, FreshnessBound, Guid, MessageClassModel, RangeModel, RetryModel,
    RouteClaim, SciError, SciResult, VirtualDuration, VirtualTime,
};

use crate::context_server::{AppDelivery, ContextServer, QueryAnswer};
use crate::seen::SeenEnvelopes;

/// In-call retransmissions attempted for a failed relay before it is
/// parked for the next pump.
pub const RELAY_RETRIES: u32 = 4;

/// Base of the exponential retry backoff, accounted in virtual time
/// (the arrival time of a retried relay is pushed back by
/// `base * (2^attempt - 1)`).
pub const RETRY_BACKOFF_BASE_US: u64 = 500;

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

/// A set of ranges joined through a simulated SCINET.
///
/// Generic over the overlay [`Transport`]; defaults to the
/// deterministic [`SimNetwork`].
pub struct Federation<T: Transport = SimNetwork> {
    net: T,
    servers: HashMap<Guid, ContextServer>,
    app_home: HashMap<Guid, Guid>,
    inbox: HashMap<Guid, Vec<AppDelivery>>,
    answers: HashMap<Guid, Vec<(Guid, QueryAnswer)>>,
    /// Bootstrap place directory: place name → covering range node
    /// (populated locally at `add_range`; used as the fallback when no
    /// adverts have been exchanged).
    places: HashMap<String, Guid>,
    /// Per-node place directories learned from `RangeAdvert` messages
    /// exchanged over the overlay (see
    /// [`Federation::broadcast_adverts`]).
    directories: HashMap<Guid, HashMap<String, Guid>>,
    /// Relayed deliveries dropped for violating their configuration's
    /// freshness bound (`qoc-max-age-us`) after crossing the overlay.
    relay_stale_drops: u64,
    /// Node GUID → range name, for naming unreachable ranges in
    /// degraded answers.
    names: HashMap<Guid, String>,
    /// Per-origin monotonic relay sequence numbers (envelope `seq`).
    relay_seq: HashMap<Guid, u64>,
    /// Envelopes already absorbed, keyed `(origin, seq)` — the
    /// receiver-side half of exactly-once relay.
    seen_relays: SeenEnvelopes,
    /// Relays that exhausted their in-call retries; retried first on
    /// every subsequent pump, so eventual connectivity means eventual
    /// delivery.
    pending_relays: Vec<Message>,
    relay_dedup_hits: u64,
    retry_attempts: u64,
    retry_parked: u64,
    partial_answers: u64,
    /// Deliveries/answers whose application had no recorded home range
    /// (kept at the producing range instead of being silently homed).
    relay_unknown_app: u64,
    ids: GuidGenerator,
}

impl<T: Transport> std::fmt::Debug for Federation<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Federation")
            .field("ranges", &self.servers.len())
            .finish()
    }
}

impl Federation {
    /// Creates an empty federation over the deterministic simulated
    /// overlay; `seed` drives message-id minting.
    pub fn new(seed: u64) -> Self {
        Federation::with_transport(SimNetwork::new(), seed)
    }

    /// The overlay (read access, for stats).
    pub fn network(&self) -> &SimNetwork {
        &self.net
    }

    /// Mutable access to the overlay, for failure injection (node kills,
    /// partitions) in experiments.
    pub fn network_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }
}

impl<T: Transport> Federation<T> {
    /// Creates an empty federation over an arbitrary transport; `seed`
    /// drives message-id minting.
    pub fn with_transport(net: T, seed: u64) -> Self {
        Federation {
            net,
            servers: HashMap::new(),
            app_home: HashMap::new(),
            inbox: HashMap::new(),
            answers: HashMap::new(),
            places: HashMap::new(),
            directories: HashMap::new(),
            relay_stale_drops: 0,
            names: HashMap::new(),
            relay_seq: HashMap::new(),
            seen_relays: SeenEnvelopes::default(),
            pending_relays: Vec::new(),
            relay_dedup_hits: 0,
            retry_attempts: 0,
            retry_parked: 0,
            partial_answers: 0,
            relay_unknown_app: 0,
            ids: GuidGenerator::seeded(seed),
        }
    }

    /// Consumes the federation, returning its transport.
    pub fn into_transport(self) -> T {
        self.net
    }

    /// Adds a range (its Context Server becomes an overlay node). The
    /// rooms of its floor plan are advertised into the federation's
    /// place directory; the first range to advertise a place keeps it.
    ///
    /// # Errors
    ///
    /// Rejects duplicate node GUIDs or range names.
    pub fn add_range(&mut self, cs: ContextServer) -> SciResult<Guid> {
        let id = cs.id();
        let name = cs.name().to_owned();
        self.net.add_node(id, &name)?;
        // Replicate the range's registrations through the transport's
        // anti-entropy store (a no-op on in-process transports), so a
        // socket federation's late joiners converge on coverage during
        // the peering handshake.
        self.net
            .publish_registration(id, &format!("range/{name}"), &id.to_string())?;
        for room in cs.location().plan().rooms() {
            self.places.entry(room.name.clone()).or_insert(id);
            self.net
                .publish_registration(id, &format!("place/{}", room.name), &id.to_string())?;
        }
        self.names.insert(id, name);
        self.servers.insert(id, cs);
        Ok(id)
    }

    /// The range node advertising coverage of `place`, if any —
    /// consulted at `at_node`'s local directory first (what that node
    /// learned from RangeAdvert messages), falling back to the bootstrap
    /// directory.
    pub fn range_covering_from(&self, at_node: Guid, place: &str) -> Option<Guid> {
        self.directories
            .get(&at_node)
            .and_then(|d| d.get(place).copied())
            .or_else(|| self.places.get(place).copied())
    }

    /// The range node advertising coverage of `place`, if any (bootstrap
    /// directory view).
    pub fn range_covering(&self, place: &str) -> Option<Guid> {
        self.places.get(place).copied()
    }

    /// Every range advertises its covered rooms to every other node as
    /// `RangeAdvert` messages routed over the overlay, building each
    /// node's local place directory — "it may be desirable to group
    /// relevant Ranges together … in order to control access and
    /// increase performance" (paper, Section 3). Returns the number of
    /// adverts delivered.
    ///
    /// # Errors
    ///
    /// Propagates routing and codec failures.
    pub fn broadcast_adverts(&mut self) -> SciResult<usize> {
        let nodes: Vec<Guid> = self.servers.keys().copied().collect();
        let mut delivered = 0usize;
        for &src in &nodes {
            let mut advert = Element::new("range-advert").with_attr("node", src.to_string());
            for room in self.servers[&src].location().plan().rooms() {
                advert =
                    advert.with_child(Element::new("room").with_attr("name", room.name.clone()));
            }
            let payload = advert.to_xml();
            for &dst in &nodes {
                if dst == src {
                    continue;
                }
                let msg = Message::new(
                    self.ids.next_guid(),
                    src,
                    dst,
                    MessageKind::RangeAdvert,
                    Bytes::from(payload.clone().into_bytes()),
                );
                self.net.send(msg)?;
                let messages = self.net.drain(dst);
                for m in messages {
                    if m.kind != MessageKind::RangeAdvert {
                        continue;
                    }
                    let doc = parse(
                        std::str::from_utf8(&m.payload)
                            .map_err(|_| SciError::Codec("advert not UTF-8".into()))?,
                    )?;
                    let origin: Guid = doc
                        .attr("node")
                        .ok_or_else(|| SciError::Codec("advert missing node".into()))?
                        .parse()?;
                    let directory = self.directories.entry(dst).or_default();
                    for room in doc.children_named("room") {
                        if let Some(name) = room.attr("name") {
                            directory.entry(name.to_owned()).or_insert(origin);
                        }
                    }
                    delivered += 1;
                }
            }
        }
        Ok(delivered)
    }

    /// Gives every node full overlay knowledge (use
    /// [`Federation::join_discovery`] for the incremental protocol).
    pub fn connect_full(&mut self) {
        self.net.connect_full();
    }

    /// Joins `node` through `bootstrap` using the discovery protocol.
    ///
    /// # Errors
    ///
    /// As for [`sci_overlay::discovery::join`].
    pub fn join_discovery(&mut self, node: Guid, bootstrap: Guid, seed: u64) -> SciResult<()> {
        self.net.join(node, bootstrap, seed)
    }

    /// Cumulative overlay routing statistics.
    pub fn network_stats(&self) -> &LoadStats {
        self.net.stats()
    }

    /// Looks up a range's Context Server by name.
    pub fn server(&self, range: &str) -> Option<&ContextServer> {
        let id = self.net.find_by_name(range)?;
        self.servers.get(&id)
    }

    /// Mutable access to a range's Context Server by name.
    pub fn server_mut(&mut self, range: &str) -> Option<&mut ContextServer> {
        let id = self.net.find_by_name(range)?;
        self.servers.get_mut(&id)
    }

    /// Fleet-mode drift audit across every federated range: each
    /// server's live configurations are checked against its Event
    /// Mediator's subscription table (see
    /// [`ContextServer::audit_configurations`]). Returns one report per
    /// range, keyed by server GUID, in server-id order.
    pub fn audit(&self) -> Vec<(Guid, sci_types::AnalysisReport)> {
        let mut reports: Vec<(Guid, sci_types::AnalysisReport)> = self
            .servers
            .iter()
            .map(|(&id, cs)| (id, cs.audit_configurations()))
            .collect();
        reports.sort_by_key(|(id, _)| *id);
        reports
    }

    /// Exports the pure protocol model of this federation: ranges,
    /// links, the transport's declared fault schedule, retry/backoff
    /// constants, live freshness bounds and every place-directory
    /// belief. `sci_analysis::federation::verify_federation` checks
    /// the model (SCI-A201..A205) before the runtime is trusted with
    /// traffic.
    pub fn protocol_model(&self) -> FederationModel {
        let mut ranges: Vec<RangeModel> = self
            .servers
            .iter()
            .map(|(&id, cs)| RangeModel {
                id,
                name: cs.name().to_owned(),
            })
            .collect();
        ranges.sort_by_key(|r| r.id);

        // The pump relays any-to-any, so the declared topology is the
        // full mesh over ranges; partitions narrow it.
        let mut links = Vec::new();
        for a in &ranges {
            for b in &ranges {
                if a.id != b.id {
                    links.push((a.id, b.id));
                }
            }
        }

        let mut freshness: Vec<FreshnessBound> = self
            .servers
            .values()
            .flat_map(|cs| {
                cs.configurations().filter_map(|c| {
                    c.max_age.map(|age| FreshnessBound {
                        query: c.query_id,
                        max_age_us: age.as_micros(),
                    })
                })
            })
            .collect();
        freshness.sort_by_key(|f| f.query);

        let mut routes = Vec::new();
        for r in &ranges {
            let learned = self.directories.get(&r.id);
            for (place, &fallback) in &self.places {
                let coverer = learned
                    .and_then(|d| d.get(place))
                    .copied()
                    .unwrap_or(fallback);
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
            faults: self.net.fault_model(),
            transport_links: self.net.link_model(),
            retry: RetryModel {
                retries: RELAY_RETRIES,
                backoff_base_us: RETRY_BACKOFF_BASE_US,
            },
            restart_budget: None,
            freshness,
            routes,
            messages: relay_message_classes(),
            blueprint: crate::runtime::blueprint_model(),
        }
    }

    /// Feeds a sensor event into the named range.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownLocation`] for unknown ranges;
    /// propagates ingestion failures. Afterwards, relayable output is
    /// pumped.
    pub fn ingest_at(
        &mut self,
        range: &str,
        event: &ContextEvent,
        now: VirtualTime,
    ) -> SciResult<()> {
        let id = self
            .net
            .find_by_name(range)
            .ok_or_else(|| SciError::UnknownLocation(range.to_owned()))?;
        self.servers
            .get_mut(&id)
            .ok_or_else(|| SciError::Internal(format!("node {id} has no Context Server")))?
            .ingest(event, now)?;
        self.pump(now)
    }

    /// Feeds a batch of sensor events into the named range, pumping
    /// relayable output **once** at the end — the serial counterpart of
    /// `ParallelFederation::ingest_batch_at`, amortising the per-event
    /// pump over the batch.
    ///
    /// # Errors
    ///
    /// As for [`Federation::ingest_at`]; on an ingestion failure the
    /// first error is returned but the remaining events are still
    /// attempted (and the pump still runs), so a bad reading cannot
    /// strand its batch-mates' relays.
    pub fn ingest_batch_at(
        &mut self,
        range: &str,
        events: &[ContextEvent],
        now: VirtualTime,
    ) -> SciResult<()> {
        if events.is_empty() {
            return Ok(());
        }
        let id = self
            .net
            .find_by_name(range)
            .ok_or_else(|| SciError::UnknownLocation(range.to_owned()))?;
        let cs = self
            .servers
            .get_mut(&id)
            .ok_or_else(|| SciError::Internal(format!("node {id} has no Context Server")))?;
        let mut first_error = None;
        for event in events {
            if let Err(e) = cs.ingest(event, now) {
                first_error.get_or_insert(e);
            }
        }
        self.pump(now)?;
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Moves an entity between ranges as one first-class operation:
    /// `migrate-out` packages its profile, advertisements, standing
    /// queries, queued deliveries and deferred answers at the source;
    /// the packet crosses the overlay as a [`MessageKind::Migrate`]
    /// message inside the exactly-once `(origin, seq)` envelope (a
    /// duplicated packet replays once, a dropped one is retransmitted
    /// and eventually parked for the next pump); `migrate-in` replays
    /// it at the target. The entity's home-range record moves *before*
    /// the packet ships, so deliveries produced for it mid-move relay
    /// toward the new home.
    ///
    /// # Errors
    ///
    /// * [`SciError::UnknownLocation`] for unknown range names;
    /// * [`SciError::UnknownEntity`] if the source range does not know
    ///   the entity;
    /// * codec/replay failures from the target range.
    pub fn migrate_entity(
        &mut self,
        entity: Guid,
        from: &str,
        to: &str,
        now: VirtualTime,
    ) -> SciResult<()> {
        let src = self
            .net
            .find_by_name(from)
            .ok_or_else(|| SciError::UnknownLocation(from.to_owned()))?;
        let dst = self
            .net
            .find_by_name(to)
            .ok_or_else(|| SciError::UnknownLocation(to.to_owned()))?;
        if src == dst {
            return Ok(());
        }
        let packet = self
            .servers
            .get_mut(&src)
            .ok_or_else(|| SciError::Internal(format!("node {src} has no Context Server")))?
            .migrate_out(entity, now)?;
        // Re-home before the send: anything the mover's subscriptions
        // produce while the packet is in flight must chase the new
        // home, not pile up at the abandoned one.
        self.app_home.insert(entity, dst);
        let seq = self.next_seq(src);
        let payload = Element::new("migrate")
            .with_attr("entity", entity.to_string())
            .with_attr("origin", src.to_string())
            .with_attr("seq", seq.to_string())
            .with_child(packet.to_element())
            .to_xml();
        let msg = Message::new(
            self.ids.next_guid(),
            src,
            dst,
            MessageKind::Migrate,
            Bytes::from(payload.into_bytes()),
        );
        self.send_reliable(msg, now)
    }

    /// Builds the degraded answer for a query whose target range could
    /// not be consulted, counting it in `federation.answers.partial`.
    fn degraded(&mut self, missing: Guid, reason: &str) -> FederatedAnswer {
        self.partial_answers += 1;
        let missing_range = self
            .names
            .get(&missing)
            .cloned()
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
    /// over the SCINET if the Where clause targets another range.
    ///
    /// Graceful degradation: if the target range is known but the
    /// overlay cannot currently reach it (partition, lossy link), the
    /// submission does **not** error — it returns a
    /// [`QueryAnswer::Partial`] naming the unreachable range, so the
    /// caller can distinguish "nothing matched" from "somebody could
    /// not be asked". Unknown range names still error.
    ///
    /// # Errors
    ///
    /// * [`SciError::UnknownLocation`] for unknown range names.
    /// * Whatever the answering Context Server returns.
    pub fn submit_from(
        &mut self,
        range: &str,
        query: &Query,
        now: VirtualTime,
    ) -> SciResult<FederatedAnswer> {
        let home = self
            .net
            .find_by_name(range)
            .ok_or_else(|| SciError::UnknownLocation(range.to_owned()))?;
        self.app_home.insert(query.owner, home);

        let local = self
            .servers
            .get_mut(&home)
            .ok_or_else(|| SciError::Internal(format!("node {home} has no Context Server")))?
            .submit_query(query, now);

        // Decide where the query must go: an explicit Forward answer, or
        // an UnknownLocation error resolved through the place directory
        // (the lobby CS does not cover L10.01; the directory says
        // level-ten does).
        let dst = match local {
            Ok(QueryAnswer::Forward { range: target }) => self
                .net
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
        let fwd = Message::new(
            self.ids.next_guid(),
            home,
            dst,
            MessageKind::QueryForward,
            Bytes::from(qcodec::to_xml(query).into_bytes()),
        );
        let out_fwd = match self.net.send(fwd) {
            Ok(o) => o,
            Err(SciError::Unroutable { .. }) => return Ok(self.degraded(dst, "unroutable")),
            Err(e) => return Err(e),
        };
        let arrival = now.saturating_add(out_fwd.latency);

        // The destination CS processes its inbox. Unrelated traffic
        // (late relay envelopes released by a fault layer) is absorbed
        // rather than discarded.
        let messages = self.net.drain(dst);
        let mut answer = None;
        for msg in messages {
            if msg.kind != MessageKind::QueryForward {
                self.absorb(msg, arrival)?;
                continue;
            }
            let xml = String::from_utf8(msg.payload.to_vec())
                .map_err(|_| SciError::Codec("query payload is not UTF-8".into()))?;
            let remote_query = qcodec::from_xml(&xml)?;
            let remote_answer = self
                .servers
                .get_mut(&dst)
                .ok_or_else(|| SciError::Internal(format!("node {dst} has no Context Server")))?
                .submit_query(&remote_query, arrival)?;
            answer = Some(remote_answer);
        }
        let answer = answer.ok_or_else(|| SciError::Internal("forwarded query vanished".into()))?;

        // Route the response back.
        let resp = Message::new(
            self.ids.next_guid(),
            dst,
            home,
            MessageKind::QueryResponse,
            Bytes::from(answer_to_xml(&answer).into_bytes()),
        );
        let out_resp = match self.net.send(resp) {
            Ok(o) => o,
            // The remote range answered (a subscription it created stays
            // live) but the answer could not travel home: degrade.
            Err(SciError::Unroutable { .. }) => return Ok(self.degraded(dst, "unroutable")),
            Err(e) => return Err(e),
        };
        let resp_arrival = now.saturating_add(out_fwd.latency + out_resp.latency);
        let decoded = {
            let messages = self.net.drain(home);
            let mut found = None;
            for msg in messages {
                if msg.kind == MessageKind::QueryResponse {
                    let text = std::str::from_utf8(&msg.payload)
                        .map_err(|_| SciError::Codec("answer payload is not UTF-8".into()))?;
                    let doc = parse(text)?;
                    if doc.name == "answer" {
                        found = Some(answer_from_element(&doc)?);
                        continue;
                    }
                }
                self.absorb(msg, resp_arrival)?;
            }
            found.ok_or_else(|| SciError::Internal("response vanished".into()))?
        };

        Ok(FederatedAnswer {
            answer: decoded,
            hops: out_fwd.hops + out_resp.hops,
            latency: out_fwd.latency + out_resp.latency,
        })
    }

    /// Moves pending application deliveries and deferred answers to
    /// their owners' home ranges, relaying across the overlay where
    /// needed.
    ///
    /// `now` is the logical time of the pump: a relayed delivery
    /// arrives at `now` + route latency, and if that arrival violates
    /// the producing configuration's freshness bound
    /// (`qoc-max-age-us`), the relay is dropped and counted in
    /// [`Federation::relay_stale_drops`] — the cross-range counterpart
    /// of the Context Server's local stale-drop accounting.
    ///
    /// # Errors
    ///
    /// Propagates non-routing failures (codec errors, dead inner
    /// transports). Routing failures are retried, not propagated.
    pub fn pump(&mut self, now: VirtualTime) -> SciResult<()> {
        // Release traffic a fault layer held back (delay faults), then
        // give parked relays their once-per-pump retransmission.
        self.net.flush();
        self.retry_pending(now)?;

        // Sorted iteration keeps the fault layer's PRNG draw sequence —
        // and with it the whole chaos schedule — a pure function of the
        // seed (HashMap order is randomised per process).
        let mut node_ids: Vec<Guid> = self.servers.keys().copied().collect();
        node_ids.sort_unstable();
        for node in node_ids {
            let (deliveries, answers) = {
                let Some(cs) = self.servers.get_mut(&node) else {
                    continue;
                };
                (cs.drain_outbox(), cs.drain_answers())
            };
            for d in deliveries {
                // An app with no recorded home is counted, not
                // silently homed (mirrors the parallel coordinator's
                // `federation.relay.unknown_app` accounting).
                let home = self.app_home.get(&d.app).copied().unwrap_or_else(|| {
                    self.relay_unknown_app += 1;
                    node
                });
                if home != node {
                    // Relay across the overlay, exercising the codec.
                    // The envelope (origin node + per-origin sequence
                    // number) lets the receiver discard the duplicates
                    // that retransmission inevitably produces.
                    let seq = self.next_seq(node);
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
                    self.send_reliable(msg, now)?;
                } else {
                    self.inbox.entry(d.app).or_default().push(d);
                }
            }
            for (query, owner, answer) in answers {
                let home = self.app_home.get(&owner).copied().unwrap_or_else(|| {
                    self.relay_unknown_app += 1;
                    node
                });
                if home != node {
                    // A deferred answer produced away from the app's
                    // home range travels back as a QueryResponse over
                    // the overlay (the CAPA lobby→Level-Ten pattern in
                    // reverse), under the same envelope protocol.
                    let seq = self.next_seq(node);
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
                    self.send_reliable(msg, now)?;
                } else {
                    self.answers.entry(owner).or_default().push((query, answer));
                }
            }
        }
        self.sweep(now)
    }

    /// Mints the next envelope sequence number for `origin`.
    fn next_seq(&mut self, origin: Guid) -> u64 {
        let seq = self.relay_seq.entry(origin).or_insert(0);
        *seq += 1;
        *seq
    }

    /// Sends a relay envelope with up to [`RELAY_RETRIES`]
    /// retransmissions under exponential backoff (accounted in virtual
    /// time: each retry pushes the arrival stamp back by the
    /// accumulated wait). An envelope that exhausts its retries is
    /// parked in `pending_relays` for the next pump, so any outage that
    /// eventually heals cannot lose it.
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
                self.retry_attempts += 1;
                backoff += VirtualDuration::from_micros(wait);
                wait = wait.saturating_mul(2);
            }
            match self.net.send(msg.clone()) {
                Ok(outcome) => {
                    let arrival = now.saturating_add(outcome.latency).saturating_add(backoff);
                    let landed = self.net.drain(dst);
                    for m in landed {
                        self.absorb(m, arrival)?;
                    }
                    return Ok(());
                }
                Err(SciError::Unroutable { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        self.retry_parked += 1;
        self.pending_relays.push(msg);
        Ok(())
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
            self.retry_attempts += 1;
            let dst = msg.dst;
            match self.net.send(msg.clone()) {
                Ok(outcome) => {
                    let arrival = now.saturating_add(outcome.latency);
                    let landed = self.net.drain(dst);
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

    /// Drains every node's inbox and absorbs what landed: late
    /// arrivals from ack-lost sends, duplicates, and traffic released
    /// by [`Transport::flush`] all reach their applications here.
    fn sweep(&mut self, now: VirtualTime) -> SciResult<()> {
        let mut node_ids: Vec<Guid> = self.servers.keys().copied().collect();
        node_ids.sort_unstable();
        for node in node_ids {
            let landed = self.net.drain(node);
            for m in landed {
                self.absorb(m, now)?;
            }
        }
        Ok(())
    }

    /// Delivers one overlay message to its application, applying the
    /// exactly-once filter: an envelope `(origin, seq)` already seen is
    /// counted in `federation.relay.dedup_hits` and discarded. Event
    /// relays are additionally checked against the producing
    /// configuration's freshness bound at `arrival`. Non-relay traffic
    /// (stray query forwards from degraded submissions) is dropped.
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
                let Some(envelope) = envelope_of(&doc)? else {
                    return Ok(());
                };
                if !self.seen_relays.insert(envelope) {
                    self.relay_dedup_hits += 1;
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
                // The producing range owns the configuration and with
                // it the freshness contract the relay must honour.
                let max_age = self
                    .servers
                    .get(&envelope.0)
                    .and_then(|cs| cs.configuration(query))
                    .and_then(|c| c.max_age);
                let stale = max_age
                    .map(|max| arrival.saturating_since(event.timestamp) > max)
                    .unwrap_or(false);
                if stale {
                    self.relay_stale_drops += 1;
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
                let Some(envelope) = envelope_of(&doc)? else {
                    return Ok(());
                };
                if !self.seen_relays.insert(envelope) {
                    self.relay_dedup_hits += 1;
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
                let Some(envelope) = envelope_of(&doc)? else {
                    return Ok(());
                };
                if !self.seen_relays.insert(envelope) {
                    self.relay_dedup_hits += 1;
                    return Ok(());
                }
                let packet = crate::migration::MigrationPacket::from_element(
                    doc.require_child("migration")?,
                )?;
                if let Some(cs) = self.servers.get_mut(&m.dst) {
                    cs.migrate_in(packet, arrival)?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Relayed deliveries dropped for violating their configuration's
    /// freshness bound after crossing the overlay.
    pub fn relay_stale_drops(&self) -> u64 {
        self.relay_stale_drops
    }

    /// Duplicate relay envelopes discarded by the receiver-side
    /// exactly-once filter.
    pub fn relay_dedup_hits(&self) -> u64 {
        self.relay_dedup_hits
    }

    /// Relay retransmissions attempted (in-call retries plus
    /// parked-envelope retries; first attempts are not counted).
    pub fn retry_attempts(&self) -> u64 {
        self.retry_attempts
    }

    /// Deliveries and answers whose application had no recorded home
    /// range (counted and kept at the producing range instead of being
    /// silently homed).
    pub fn relay_unknown_app(&self) -> u64 {
        self.relay_unknown_app
    }

    /// Relays that exhausted their in-call retries and were parked for
    /// later pumps.
    pub fn retry_parked(&self) -> u64 {
        self.retry_parked
    }

    /// Degraded (partial) query answers returned by
    /// [`Federation::submit_from`].
    pub fn partial_answers(&self) -> u64 {
        self.partial_answers
    }

    /// Relays currently parked awaiting connectivity.
    pub fn pending_relay_count(&self) -> usize {
        self.pending_relays.len()
    }

    /// Read access to the transport, whatever its concrete type (the
    /// [`Federation::network`] accessor only exists for the default
    /// [`SimNetwork`]).
    pub fn transport(&self) -> &T {
        &self.net
    }

    /// Mutable access to the transport, for fault injection through a
    /// [`sci_overlay::fault::FaultyTransport`] wrapper.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.net
    }

    /// Freezes a federation-wide telemetry view: every range's registry
    /// merged with the overlay's routing stats (folded in under the
    /// `net.*` names) and this driver's relay accounting. The summary
    /// accessors ([`Federation::network_stats`],
    /// [`Federation::relay_stale_drops`]) remain for callers that want
    /// the raw [`LoadStats`]; the snapshot unifies both drivers behind
    /// one serialisable shape.
    pub fn snapshot(&self) -> sci_telemetry::TelemetrySnapshot {
        let mut snap = sci_telemetry::TelemetrySnapshot::default();
        for server in self.servers.values() {
            snap.merge(&server.snapshot());
        }
        snap.merge(&crate::telemetry::fold_load_stats(self.net.stats()));
        let relays = sci_telemetry::Registry::new();
        relays
            .counter("federation.relay.stale_drops")
            .add(self.relay_stale_drops);
        relays
            .counter("federation.relay.dedup_hits")
            .add(self.relay_dedup_hits);
        relays
            .counter("federation.retry.attempts")
            .add(self.retry_attempts);
        relays
            .counter("federation.retry.parked")
            .add(self.retry_parked);
        relays
            .counter("federation.answers.partial")
            .add(self.partial_answers);
        relays
            .counter("federation.relay.unknown_app")
            .add(self.relay_unknown_app);
        snap.merge(&relays.snapshot());
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

    /// Fires due timers in every range, then pumps.
    ///
    /// # Errors
    ///
    /// Propagates pump failures.
    pub fn poll_timers(&mut self, now: VirtualTime) -> SciResult<()> {
        let node_ids: Vec<Guid> = self.servers.keys().copied().collect();
        for node in node_ids {
            if let Some(cs) = self.servers.get_mut(&node) {
                let _ = cs.poll_timers(now);
            }
        }
        self.pump(now)
    }
}

/// Extracts the reliable-relay envelope `(origin, seq)` from a relay
/// document, if present (pre-envelope peers omit it).
///
/// # Errors
///
/// Returns [`SciError::Codec`] for a malformed envelope.
pub(crate) fn envelope_of(doc: &Element) -> SciResult<Option<(Guid, u64)>> {
    match (doc.attr("origin"), doc.attr("seq")) {
        (Some(origin), Some(seq)) => {
            let origin: Guid = origin.parse()?;
            let seq: u64 = seq
                .parse()
                .map_err(|_| SciError::Codec(format!("bad relay seq {seq:?}")))?;
            Ok(Some((origin, seq)))
        }
        _ => Ok(None),
    }
}

/// The cross-range message classes both federation drivers exchange,
/// with their delivery discipline: the retried classes (event and
/// answer relays, migration packets) carry the `(origin, seq)` dedup
/// envelope; the
/// synchronous query round-trip and the idempotent advert broadcast
/// are fire-once and travel bare. SCI-A205 holds every retried class
/// to the envelope.
pub(crate) fn relay_message_classes() -> Vec<MessageClassModel> {
    let class = |name: &str, retried: bool, enveloped: bool| MessageClassModel {
        name: name.to_owned(),
        crosses_ranges: true,
        retried,
        enveloped,
    };
    vec![
        class("query-forward", false, false),
        class("query-response", false, false),
        class("range-advert", false, false),
        class("event-relay", true, true),
        class("answer-relay", true, true),
        class("migrate", true, true),
    ]
}

/// Serialises a [`QueryAnswer`] to its `<answer>` document.
pub fn answer_to_xml(answer: &QueryAnswer) -> String {
    answer_element(answer).to_xml()
}

/// Builds the `<answer>` element for a [`QueryAnswer`] (recursive, so
/// a partial answer nests the answer it degrades).
pub fn answer_element(answer: &QueryAnswer) -> Element {
    match answer {
        QueryAnswer::Profiles(ps) => {
            let mut e = Element::new("answer").with_attr("kind", "profiles");
            for p in ps {
                e = e.with_child(qcodec::profile_to_element(p));
            }
            e
        }
        QueryAnswer::Advertisements(ads) => {
            let mut e = Element::new("answer").with_attr("kind", "advertisements");
            for ad in ads {
                e = e.with_child(qcodec::advertisement_to_element(ad));
            }
            e
        }
        QueryAnswer::Subscribed {
            configuration,
            producers,
        } => {
            let mut e = Element::new("answer")
                .with_attr("kind", "subscribed")
                .with_attr("configuration", configuration.to_string());
            for p in producers {
                e = e.with_child(Element::new("producer").with_attr("id", p.to_string()));
            }
            e
        }
        QueryAnswer::Deferred => Element::new("answer").with_attr("kind", "deferred"),
        QueryAnswer::Forward { range } => Element::new("answer")
            .with_attr("kind", "forward")
            .with_attr("range", range.clone()),
        QueryAnswer::Partial {
            answer,
            missing_range,
            reason,
        } => Element::new("answer")
            .with_attr("kind", "partial")
            .with_attr("missing-range", missing_range.clone())
            .with_attr("reason", reason.clone())
            .with_child(answer_element(answer)),
    }
}

/// Parses an `<answer>` document.
///
/// # Errors
///
/// Returns [`SciError::Parse`] for malformed documents.
pub fn answer_from_xml(xml: &str) -> SciResult<QueryAnswer> {
    answer_from_element(&parse(xml)?)
}

/// Parses an `<answer>` element (recursive counterpart of
/// [`answer_element`]).
///
/// # Errors
///
/// Returns [`SciError::Parse`] for malformed documents.
pub fn answer_from_element(e: &Element) -> SciResult<QueryAnswer> {
    if e.name != "answer" {
        return Err(SciError::Parse(format!(
            "expected <answer>, found <{}>",
            e.name
        )));
    }
    match e.attr("kind") {
        Some("profiles") => Ok(QueryAnswer::Profiles(
            e.children_named("profile")
                .map(qcodec::profile_from_element)
                .collect::<SciResult<Vec<_>>>()?,
        )),
        Some("advertisements") => Ok(QueryAnswer::Advertisements(
            e.children_named("advertisement")
                .map(qcodec::advertisement_from_element)
                .collect::<SciResult<Vec<_>>>()?,
        )),
        Some("subscribed") => Ok(QueryAnswer::Subscribed {
            configuration: e
                .attr("configuration")
                .ok_or_else(|| SciError::Parse("subscribed answer missing configuration".into()))?
                .parse()?,
            producers: e
                .children_named("producer")
                .filter_map(|p| p.attr("id"))
                .map(|id| id.parse())
                .collect::<SciResult<Vec<_>>>()?,
        }),
        Some("deferred") => Ok(QueryAnswer::Deferred),
        Some("forward") => Ok(QueryAnswer::Forward {
            range: e
                .attr("range")
                .ok_or_else(|| SciError::Parse("forward answer missing range".into()))?
                .to_owned(),
        }),
        Some("partial") => Ok(QueryAnswer::Partial {
            answer: Box::new(answer_from_element(e.require_child("answer")?)?),
            missing_range: e
                .attr("missing-range")
                .ok_or_else(|| SciError::Parse("partial answer missing missing-range".into()))?
                .to_owned(),
            reason: e
                .attr("reason")
                .ok_or_else(|| SciError::Parse("partial answer missing reason".into()))?
                .to_owned(),
        }),
        other => Err(SciError::Parse(format!("unknown answer kind {other:?}"))),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_location::floorplan::capa_level10;
    use sci_query::Mode;
    use sci_types::{ContextType, ContextValue, EntityKind, PortSpec, Profile};

    fn two_range_federation() -> (Federation, Guid, Guid) {
        let mut fed = Federation::new(1);
        let mut ids = GuidGenerator::seeded(2);
        let lobby = ContextServer::new(ids.next_guid(), "lobby", capa_level10());
        let mut level10 = ContextServer::new(ids.next_guid(), "level-ten", capa_level10());
        // Register a printer in level-ten.
        let p1 = ids.next_guid();
        level10
            .register(
                Profile::builder(p1, EntityKind::Device, "P1")
                    .attribute("service", ContextValue::text("printing"))
                    .attribute("room", ContextValue::place("L10.01"))
                    .build(),
                VirtualTime::ZERO,
            )
            .unwrap();
        let a = fed.add_range(lobby).unwrap();
        let b = fed.add_range(level10).unwrap();
        fed.connect_full();
        (fed, a, b)
    }

    #[test]
    fn forwarded_query_answers_across_ranges() {
        let (mut fed, _, _) = two_range_federation();
        let app = Guid::from_u128(0xaa);
        let q = Query::builder(Guid::from_u128(1), app)
            .kind(EntityKind::Device)
            .attr_eq("service", "printing")
            .in_range("level-ten")
            .all()
            .mode(Mode::Profile)
            .build();
        let fa = fed.submit_from("lobby", &q, VirtualTime::ZERO).unwrap();
        match fa.answer {
            QueryAnswer::Profiles(ps) => {
                assert_eq!(ps.len(), 1);
                assert_eq!(ps[0].name(), "P1");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(fa.hops >= 2, "forward + response each cross the overlay");
        assert!(fa.latency > VirtualDuration::ZERO);
        assert_eq!(fed.network_stats().delivered(), 2);
    }

    #[test]
    fn local_query_takes_no_hops() {
        let (mut fed, _, _) = two_range_federation();
        let app = Guid::from_u128(0xab);
        let q = Query::builder(Guid::from_u128(2), app)
            .kind(EntityKind::Device)
            .in_range("level-ten")
            .all()
            .mode(Mode::Profile)
            .build();
        let fa = fed.submit_from("level-ten", &q, VirtualTime::ZERO).unwrap();
        assert_eq!(fa.hops, 0);
        assert!(matches!(fa.answer, QueryAnswer::Profiles(_)));
    }

    #[test]
    fn unknown_target_range_errors() {
        let (mut fed, _, _) = two_range_federation();
        let q = Query::builder(Guid::from_u128(3), Guid::from_u128(0xac))
            .kind(EntityKind::Device)
            .in_range("mars-base")
            .mode(Mode::Profile)
            .build();
        assert!(matches!(
            fed.submit_from("lobby", &q, VirtualTime::ZERO),
            Err(SciError::UnknownLocation(_))
        ));
    }

    #[test]
    fn remote_subscription_relays_events_home() {
        let (mut fed, _, _) = two_range_federation();
        let mut ids = GuidGenerator::seeded(9);
        // A door sensor CE in level-ten.
        let door = ids.next_guid();
        fed.server_mut("level-ten")
            .unwrap()
            .register(
                Profile::builder(door, EntityKind::Device, "door-L10.01")
                    .output(PortSpec::new("presence", ContextType::Presence))
                    .build(),
                VirtualTime::ZERO,
            )
            .unwrap();

        // An app in the lobby subscribes to presence in level-ten.
        let app = ids.next_guid();
        let q = Query::builder(ids.next_guid(), app)
            .info(ContextType::Presence)
            .in_range("level-ten")
            .mode(Mode::Subscribe)
            .build();
        let fa = fed.submit_from("lobby", &q, VirtualTime::ZERO).unwrap();
        assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));

        // The door fires in level-ten; the delivery is relayed to the
        // lobby-homed app.
        let bob = ids.next_guid();
        let ev = ContextEvent::new(
            door,
            ContextType::Presence,
            ContextValue::record([
                ("subject", ContextValue::Id(bob)),
                ("to", ContextValue::place("L10.01")),
            ]),
            VirtualTime::from_secs(1),
        );
        fed.ingest_at("level-ten", &ev, VirtualTime::from_secs(1))
            .unwrap();
        let deliveries = fed.deliveries_for(app);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].event.topic, ContextType::Presence);
        assert_eq!(deliveries[0].query, q.id);
    }

    #[test]
    fn answer_xml_roundtrip_all_kinds() {
        let answers = vec![
            QueryAnswer::Profiles(vec![Profile::builder(
                Guid::from_u128(1),
                EntityKind::Device,
                "x",
            )
            .build()]),
            QueryAnswer::Advertisements(vec![sci_types::Advertisement::new(
                Guid::from_u128(2),
                "printing",
            )]),
            QueryAnswer::Subscribed {
                configuration: Guid::from_u128(3),
                producers: vec![Guid::from_u128(4), Guid::from_u128(5)],
            },
            QueryAnswer::Deferred,
            QueryAnswer::Forward {
                range: "level-ten".into(),
            },
            QueryAnswer::Partial {
                answer: Box::new(QueryAnswer::Forward {
                    range: "level-ten".into(),
                }),
                missing_range: "level-ten".into(),
                reason: "unroutable".into(),
            },
        ];
        for a in answers {
            let xml = answer_to_xml(&a);
            let back = answer_from_xml(&xml).unwrap();
            // QueryAnswer lacks PartialEq (contains no need); compare via
            // serialisation.
            assert_eq!(answer_to_xml(&back), xml);
        }
        assert!(answer_from_xml("<weird/>").is_err());
    }
}
