//! Transport abstraction over the SCINET.
//!
//! The federation layer needs four capabilities from the overlay:
//! *route* a message to a destination range (accounting hops and
//! latency), let the destination *deliver* (drain) what arrived, expose
//! routing *stats*, and keep each node's replica of the *registration
//! state* — which node serves a range name and covers a place
//! ([`crate::sync`]), written by `publish_registration` and read,
//! always on behalf of one node, by `registration`. Every implementation provides all of them; there is
//! no default that quietly keeps nothing. [`Transport`] captures that
//! surface so drivers can swap the wire:
//!
//! * [`crate::net::SimNetwork`] — the deterministic single-threaded
//!   simulation every experiment runs on;
//! * [`crate::tcp::TcpTransport`] — real loopback sockets with an
//!   acked, framed stream per peer;
//! * [`crate::fault::FaultyTransport`] — a seeded fault-injecting
//!   decorator over either.

use sci_types::{Guid, SciError, SciResult};

use crate::message::Message;
use crate::net::{RouteOutcome, SimNetwork};
use crate::stats::LoadStats;
use crate::sync::SyncStore;

/// The overlay surface the federation layer depends on: route +
/// deliver + stats + registration state, plus the topology bootstrap
/// calls.
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

    /// Sends a batch, returning one outcome per message in batch order,
    /// each meaning what [`Transport::send`]'s would. The provided body
    /// sends each message in turn; a transport that can coalesce the
    /// traffic bound for one peer overrides it.
    fn send_all(&mut self, batch: &[Message]) -> Vec<SciResult<RouteOutcome>> {
        batch.iter().map(|m| self.send(m.clone())).collect()
    }

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

    /// Publishes `key = value` into `node`'s replica of the federation's
    /// registration state ([`crate::sync::SyncStore`]: `range/{name}` and
    /// `place/{room}`, valued with the covering node's GUID), stamped
    /// with `node` as its origin. How and when other replicas learn of
    /// it is the transport's business — never a message through
    /// [`Transport::send`].
    ///
    /// # Errors
    ///
    /// [`SciError::UnknownRange`] if the transport has no replica for
    /// `node`.
    fn publish_registration(&mut self, node: Guid, key: &str, value: &str) -> SciResult<()>;

    /// The live value of `key` in **`node`'s** replica — the one reader
    /// of the registration state, and the only way the federation asks
    /// where a range or a place lives. `None` for a key the node has
    /// not learned, or a node without a replica.
    fn registration(&self, node: Guid, key: &str) -> Option<String>;

    /// A digest over `node`'s replica — equal digests mean converged
    /// replicas. `None` for a node without one.
    fn registration_digest(&self, node: Guid) -> Option<u64>;
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

    fn publish_registration(&mut self, node: Guid, key: &str, value: &str) -> SciResult<()> {
        let replica = self.replica_mut(node).ok_or(SciError::UnknownRange(node))?;
        replica.publish(key, value, node);
        Ok(())
    }

    fn registration(&self, node: Guid, key: &str) -> Option<String> {
        self.replica(node)?.get(key).map(str::to_owned)
    }

    fn registration_digest(&self, node: Guid) -> Option<u64> {
        self.replica(node).map(SyncStore::digest)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::message::MessageKind;

    fn msg(id: u128, src: Guid, dst: Guid) -> Message {
        Message::new(Guid::from_u128(id), src, dst, MessageKind::Ping, Vec::new())
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
