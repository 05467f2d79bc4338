//! Transport abstraction over the SCINET.
//!
//! The federation layer needs exactly three capabilities from the
//! overlay: *route* a message to a destination range (accounting hops
//! and latency), let the destination *deliver* (drain) what arrived,
//! and expose routing *stats*. [`Transport`] captures that surface so
//! drivers can swap the wire:
//!
//! * [`crate::net::SimNetwork`] — the deterministic single-threaded
//!   simulation every experiment runs on;
//! * [`crate::tcp::TcpTransport`] — real loopback sockets with an
//!   acked, framed stream per peer;
//! * [`crate::fault::FaultyTransport`] — a seeded fault-injecting
//!   decorator over either.

use sci_types::{Guid, SciResult};

use crate::message::Message;
use crate::net::{RouteOutcome, SimNetwork};
use crate::stats::LoadStats;

/// The overlay surface the federation layer depends on: route +
/// deliver + stats, plus the topology bootstrap calls.
pub trait Transport {
    /// Adds a node (one per range).
    ///
    /// # Errors
    ///
    /// Rejects duplicate GUIDs or range names.
    fn add_node(&mut self, guid: Guid, name: &str) -> SciResult<()>;

    /// Resolves a range name to its node GUID.
    fn find_by_name(&self, name: &str) -> Option<Guid>;

    /// Gives every node full overlay knowledge.
    fn connect_full(&mut self);

    /// Joins `node` through `bootstrap` using the discovery protocol.
    ///
    /// # Errors
    ///
    /// As for [`crate::discovery::join`].
    fn join(&mut self, node: Guid, bootstrap: Guid, seed: u64) -> SciResult<()>;

    /// Routes a message hop-by-hop and delivers it to the destination
    /// mailbox, returning the route taken.
    ///
    /// # Errors
    ///
    /// As for [`SimNetwork::route`]: unknown endpoints, partitions,
    /// routing failure.
    fn send(&mut self, message: Message) -> SciResult<RouteOutcome>;

    /// Removes and returns everything delivered to `node`'s mailbox.
    fn drain(&mut self, node: Guid) -> Vec<Message>;

    /// Cumulative routing statistics.
    fn stats(&self) -> &LoadStats;

    /// Releases any traffic the transport is holding back (delayed
    /// messages in a fault-injecting decorator, for example). Default:
    /// nothing is ever held, so nothing to do.
    fn flush(&mut self) {}

    /// The transport's own telemetry registry, if it keeps one (the
    /// fault layer's injection counters, for example). Default: none.
    fn telemetry(&self) -> Option<&sci_telemetry::Registry> {
        None
    }

    /// The transport's declared fault schedule (seed, probabilities,
    /// named partitions), if it injects faults. Federations fold this
    /// into the [`FederationModel`](sci_types::FederationModel) that
    /// `sci-analysis` checks before runtime. Default: none — the
    /// transport is fault-free as far as static analysis can tell.
    fn fault_model(&self) -> Option<sci_types::FaultSchedule> {
        None
    }

    /// Publishes one entry of `node`'s replicated registration state
    /// (range adverts, place coverage) into the transport's
    /// anti-entropy store, if it keeps one. In-process transports
    /// share memory, so replication is a no-op for them.
    ///
    /// # Errors
    ///
    /// Transport-specific; the defaults never fail.
    fn publish_registration(&mut self, node: Guid, key: &str, value: &str) -> SciResult<()> {
        let _ = (node, key, value);
        Ok(())
    }

    /// Tombstones a previously published registration entry so peers
    /// converge on its absence. No-op for in-process transports.
    ///
    /// # Errors
    ///
    /// Transport-specific; the defaults never fail.
    fn retract_registration(&mut self, node: Guid, key: &str) -> SciResult<()> {
        let _ = (node, key);
        Ok(())
    }

    /// A digest over `node`'s replicated registration state — equal
    /// digests mean converged stores. `None` when the transport keeps
    /// no anti-entropy store.
    fn registration_digest(&self, node: Guid) -> Option<u64> {
        let _ = node;
        None
    }

    /// The wire-level peerings this transport holds or can open, for
    /// the [`FederationModel`](sci_types::FederationModel)'s SCI-A207
    /// check. `None` (the default) declares an in-process transport:
    /// reachability is free and there is nothing to verify.
    fn link_model(&self) -> Option<Vec<sci_types::TransportLinkModel>> {
        None
    }
}

impl Transport for SimNetwork {
    fn add_node(&mut self, guid: Guid, name: &str) -> SciResult<()> {
        SimNetwork::add_node(self, guid, name)
    }

    fn find_by_name(&self, name: &str) -> Option<Guid> {
        SimNetwork::find_by_name(self, name)
    }

    fn connect_full(&mut self) {
        self.populate_full();
    }

    fn join(&mut self, node: Guid, bootstrap: Guid, seed: u64) -> SciResult<()> {
        crate::discovery::join(self, node, bootstrap, seed)
    }

    fn send(&mut self, message: Message) -> SciResult<RouteOutcome> {
        SimNetwork::send(self, message)
    }

    fn drain(&mut self, node: Guid) -> Vec<Message> {
        self.node_mut(node)
            .map(|n| n.drain_inbox())
            .unwrap_or_default()
    }

    fn stats(&self) -> &LoadStats {
        SimNetwork::stats(self)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::message::MessageKind;
    use bytes::Bytes;

    fn msg(id: u128, src: Guid, dst: Guid) -> Message {
        Message::new(
            Guid::from_u128(id),
            src,
            dst,
            MessageKind::Ping,
            Bytes::new(),
        )
    }

    fn two_nodes<T: Transport>(t: &mut T) -> (Guid, Guid) {
        let a = Guid::from_u128(0xa);
        let b = Guid::from_u128(0xb);
        t.add_node(a, "a").unwrap();
        t.add_node(b, "b").unwrap();
        t.connect_full();
        (a, b)
    }

    #[test]
    fn sim_network_transport_roundtrip() {
        let mut t = SimNetwork::new();
        let (a, b) = two_nodes(&mut t);
        let out = Transport::send(&mut t, msg(1, a, b)).unwrap();
        assert!(out.hops >= 1);
        let delivered = t.drain(b);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].id, Guid::from_u128(1));
        assert!(t.drain(b).is_empty(), "drain consumes");
    }
}
