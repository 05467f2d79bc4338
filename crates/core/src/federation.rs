//! Federation: Context Servers cooperating over the SCINET.
//!
//! "The SCINET is concerned with managing interactions that take place
//! between two or more ranges in order to provide appropriate contextual
//! information" (paper, Section 3). In the CAPA story the lobby's
//! Context Server "looks at the query and identifies that the query
//! should be forwarded to the Context Server for Level Ten".
//!
//! The inter-range protocol itself — query forwarding, event relay,
//! deferred answers finding their way home, entity migration, the
//! reliable `(origin, seq)` envelope — lives once, in
//! [`crate::relay::RelayCore`]. [`Federation`] is the *serial* driver
//! of that core: every range's [`ContextServer`] runs inline in the
//! caller's thread, so ingest is synchronous and each call pumps its
//! own relays. The driver with one worker thread per range is
//! [`crate::runtime::ParallelFederation`]; both dereference to the
//! core, so `command`, `submit_from`, `migrate_entity`, `pump`,
//! `deliveries_for`, `snapshot` and the relay counters are the same
//! code on either. "Identifies" is a lookup in
//! the lobby node's own replica of the registration state
//! (`range/{name}`, `place/{room}`; [`RelayCore::range_covering_from`]),
//! not in a table the driver keeps. A single range is a federation of
//! one ([`crate::logic::register_world`] configures it).
//!
//! All messages genuinely cross the binary wire codec and the overlay's
//! hop-by-hop routing, so experiment E7's latency and load numbers
//! reflect the real protocol cost. The wire is pluggable: `Federation`
//! is generic over [`Transport`], defaulting to the deterministic
//! [`SimNetwork`]; wrapping the transport in
//! [`sci_overlay::fault::FaultyTransport`] turns either driver into a
//! chaos rig.

use std::ops::{Deref, DerefMut};

use sci_overlay::net::SimNetwork;
use sci_overlay::transport::Transport;
use sci_types::{ContextEvent, Guid, SciResult, VirtualTime};

use crate::context_server::ContextServer;
use crate::relay::RelayCore;

pub use crate::records::{
    answer_from_element, answer_from_xml, answer_to_xml, event_relay_group, event_relay_payload,
    RelayRow,
};
pub use crate::relay::{FederatedAnswer, RELAY_RETRIES, RETRY_BACKOFF_BASE_US};

/// A set of ranges joined through a simulated SCINET, each executed
/// inline: the serial driver of the [`RelayCore`].
///
/// Generic over the overlay [`Transport`]; defaults to the
/// deterministic [`SimNetwork`].
pub struct Federation<T: Transport = SimNetwork> {
    core: RelayCore<T, ContextServer>,
}

impl<T: Transport> Deref for Federation<T> {
    type Target = RelayCore<T, ContextServer>;

    fn deref(&self) -> &Self::Target {
        &self.core
    }
}

impl<T: Transport> DerefMut for Federation<T> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.core
    }
}

impl<T: Transport> std::fmt::Debug for Federation<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Federation")
            .field("ranges", &self.core.len())
            .finish()
    }
}

impl Federation {
    /// Creates an empty federation over the deterministic simulated
    /// overlay; `seed` drives message-id minting.
    pub fn new(seed: u64) -> Self {
        Federation::with_transport(SimNetwork::new(), seed)
    }
}

impl<T: Transport> Federation<T> {
    /// Creates an empty federation over an arbitrary transport; `seed`
    /// drives message-id minting.
    pub fn with_transport(net: T, seed: u64) -> Self {
        Federation {
            core: RelayCore::with_transport(net, seed),
        }
    }

    /// Joins `node` through `bootstrap` using the discovery protocol
    /// (use [`RelayCore::connect_full`] to skip it).
    ///
    /// # Errors
    ///
    /// As for [`sci_overlay::discovery::join`].
    pub fn join_discovery(&mut self, node: Guid, bootstrap: Guid, seed: u64) -> SciResult<()> {
        self.core.net.join(node, bootstrap, seed)
    }

    /// Looks up a range's Context Server by name.
    pub fn server(&self, range: &str) -> Option<&ContextServer> {
        self.core.host(range)
    }

    /// Mutable access to a range's Context Server by name.
    pub fn server_mut(&mut self, range: &str) -> Option<&mut ContextServer> {
        self.core.host_mut(range).ok()
    }

    /// Fleet-mode drift audit across every federated range: each
    /// server's live configurations are checked against its Event
    /// Mediator's subscription table (see
    /// [`ContextServer::audit_configurations`]). Returns one report per
    /// range, keyed by server GUID, in server-id order.
    pub fn audit(&self) -> Vec<(Guid, sci_types::AnalysisReport)> {
        let mut reports: Vec<(Guid, sci_types::AnalysisReport)> = self
            .core
            .hosts
            .iter()
            .map(|(&id, cs)| (id, cs.audit_configurations()))
            .collect();
        reports.sort_by_key(|(id, _)| *id);
        reports
    }

    /// Feeds a sensor event into the named range, then pumps relayable
    /// output.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownLocation`](sci_types::SciError::UnknownLocation) for unknown ranges;
    /// propagates ingestion and pump failures.
    pub fn ingest_at(
        &mut self,
        range: &str,
        event: &ContextEvent,
        now: VirtualTime,
    ) -> SciResult<()> {
        self.core.host_mut(range)?.ingest(event, now)?;
        self.core.pump(now)
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
        let cs = self.core.host_mut(range)?;
        let mut first_error = None;
        for event in events {
            if let Err(e) = cs.ingest(event, now) {
                first_error.get_or_insert(e);
            }
        }
        self.core.pump(now)?;
        first_error.map_or(Ok(()), Err)
    }

    /// Fires due timers in every range and fails the sources each
    /// range reports silent past their window, then pumps.
    ///
    /// # Errors
    ///
    /// Propagates pump failures.
    pub fn poll_timers(&mut self, now: VirtualTime) -> SciResult<()> {
        self.core.poll_ranges(now);
        self.core.pump(now)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::context_server::QueryAnswer;
    use sci_location::floorplan::capa_level10;
    use sci_query::{Mode, Query};
    use sci_types::guid::GuidGenerator;
    use sci_types::{
        ContextType, ContextValue, EntityKind, PortSpec, Profile, SciError, VirtualDuration,
    };

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
}
