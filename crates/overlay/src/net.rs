//! The simulated SCINET.
//!
//! [`SimNetwork`] hosts one overlay node per Range and routes messages
//! hop-by-hop through the nodes' routing tables, accounting load and hop
//! counts as it goes. Node death exercises the robustness behaviours the
//! paper calls for; dead neighbours are detected on use and evicted from
//! routing tables, the overlay's stand-in for a liveness protocol.
//! Partitions are named groups in [`crate::fault::FaultyTransport`],
//! which wraps this network or the TCP one alike.

use sci_types::{Guid, HashMap, SciError, SciResult, VirtualDuration};

use crate::message::Message;
use crate::routing::RoutingTable;
use crate::stats::LoadStats;
use crate::sync::SyncStore;

/// One overlay node: the SCINET face of a Range's Context Server.
#[derive(Clone, Debug)]
pub struct NodeState {
    guid: Guid,
    name: String,
    table: RoutingTable,
    alive: bool,
    inbox: Vec<Message>,
}

impl NodeState {
    /// The node's GUID.
    pub fn guid(&self) -> Guid {
        self.guid
    }

    /// The range name this node advertises.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Read access to the routing table.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Is the node currently alive?
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Messages delivered to this node, in arrival order.
    pub fn inbox(&self) -> &[Message] {
        &self.inbox
    }

    /// Removes and returns all delivered messages.
    pub fn drain_inbox(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.inbox)
    }
}

/// The result of routing one message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RouteOutcome {
    /// Nodes traversed, source and destination inclusive.
    pub path: Vec<Guid>,
    /// Hop count (`path.len() - 1`).
    pub hops: u32,
    /// Accumulated link latency.
    pub latency: VirtualDuration,
}

/// A simulated overlay network of Range nodes.
#[derive(Clone, Debug)]
pub struct SimNetwork {
    nodes: HashMap<Guid, NodeState>,
    by_name: HashMap<String, Guid>,
    stats: LoadStats,
    /// The registration state. These nodes share memory, so they share
    /// one replica: a write is visible to every node at once.
    registrations: SyncStore,
    bucket_capacity: usize,
    hop_latency: VirtualDuration,
}

impl SimNetwork {
    /// Creates an empty network with default bucket capacity and a
    /// 1 ms per-hop latency model.
    pub fn new() -> Self {
        SimNetwork {
            nodes: HashMap::default(),
            by_name: HashMap::default(),
            stats: LoadStats::new(),
            registrations: SyncStore::new(),
            bucket_capacity: crate::routing::DEFAULT_BUCKET_CAPACITY,
            hop_latency: VirtualDuration::from_millis(1),
        }
    }

    /// Sets the per-bucket routing table capacity for nodes added later.
    pub fn set_bucket_capacity(&mut self, capacity: usize) {
        self.bucket_capacity = capacity;
    }

    /// Sets the per-hop link latency.
    pub fn set_hop_latency(&mut self, latency: VirtualDuration) {
        self.hop_latency = latency;
    }

    /// Adds a node with an empty routing table (call
    /// [`crate::discovery::join`] or [`SimNetwork::populate_full`] to
    /// wire it up).
    ///
    /// # Errors
    ///
    /// Rejects duplicate GUIDs and duplicate range names.
    pub fn add_node(&mut self, guid: Guid, name: impl Into<String>) -> SciResult<()> {
        let name = name.into();
        if self.nodes.contains_key(&guid) {
            return Err(SciError::Internal(format!("node {guid} already exists")));
        }
        if self.by_name.contains_key(&name) {
            return Err(SciError::Parse(format!(
                "range name `{name}` already taken"
            )));
        }
        self.nodes.insert(
            guid,
            NodeState {
                guid,
                name: name.clone(),
                table: RoutingTable::with_capacity(guid, self.bucket_capacity),
                alive: true,
                inbox: Vec::new(),
            },
        );
        self.by_name.insert(name, guid);
        Ok(())
    }

    /// Gives every node full knowledge of every other node (subject to
    /// bucket capacities). Benchmarks use this to isolate routing
    /// behaviour from discovery behaviour. Nodes are offered in GUID
    /// order: which ones a full bucket keeps depends on it.
    pub fn populate_full(&mut self) {
        let mut guids: Vec<Guid> = self.nodes.keys().copied().collect();
        guids.sort_unstable();
        for &a in &guids {
            let Some(node) = self.nodes.get_mut(&a) else {
                continue;
            };
            for &b in &guids {
                if a != b {
                    node.table.insert(b);
                }
            }
        }
    }

    /// Number of nodes (alive or dead).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a node.
    pub fn node(&self, guid: Guid) -> Option<&NodeState> {
        self.nodes.get(&guid)
    }

    /// Mutable access to a node (test and maintenance surface).
    pub fn node_mut(&mut self, guid: Guid) -> Option<&mut NodeState> {
        self.nodes.get_mut(&guid)
    }

    /// Resolves a range name to its node GUID.
    pub fn find_by_name(&self, name: &str) -> Option<Guid> {
        self.by_name.get(name).copied()
    }

    /// `node`'s replica of the registration state: the shared store,
    /// for any node of this network.
    pub(crate) fn replica(&self, node: Guid) -> Option<&SyncStore> {
        self.nodes
            .contains_key(&node)
            .then_some(&self.registrations)
    }

    /// [`SimNetwork::replica`], for writing.
    pub(crate) fn replica_mut(&mut self, node: Guid) -> Option<&mut SyncStore> {
        self.nodes
            .contains_key(&node)
            .then_some(&mut self.registrations)
    }

    /// All node GUIDs, unordered.
    pub fn guids(&self) -> impl Iterator<Item = Guid> + '_ {
        self.nodes.keys().copied()
    }

    /// Marks a node dead: it no longer forwards or receives.
    pub fn kill(&mut self, guid: Guid) -> SciResult<()> {
        self.nodes
            .get_mut(&guid)
            .map(|n| n.alive = false)
            .ok_or(SciError::UnknownRange(guid))
    }

    /// Brings a dead node back.
    pub fn revive(&mut self, guid: Guid) -> SciResult<()> {
        self.nodes
            .get_mut(&guid)
            .map(|n| n.alive = true)
            .ok_or(SciError::UnknownRange(guid))
    }

    /// Inserts `peer` into `node`'s routing table.
    pub fn link(&mut self, node: Guid, peer: Guid) -> SciResult<bool> {
        if !self.nodes.contains_key(&peer) {
            return Err(SciError::UnknownRange(peer));
        }
        self.nodes
            .get_mut(&node)
            .map(|n| n.table.insert(peer))
            .ok_or(SciError::UnknownRange(node))
    }

    /// Cumulative routing statistics.
    pub fn stats(&self) -> &LoadStats {
        &self.stats
    }

    /// Resets the routing statistics.
    pub fn reset_stats(&mut self) {
        self.stats = LoadStats::new();
    }

    /// Greedily computes the overlay path from `src` to `dst`, evicting
    /// dead neighbours from tables along the way, and records stats.
    ///
    /// # Errors
    ///
    /// * [`SciError::UnknownRange`] if either endpoint does not exist or
    ///   `src` is dead.
    /// * [`SciError::Unroutable`] on TTL exhaustion, local minima
    ///   (insufficient table knowledge) or death of `dst`.
    pub fn route(&mut self, src: Guid, dst: Guid) -> SciResult<RouteOutcome> {
        let src_state = self.nodes.get(&src).ok_or(SciError::UnknownRange(src))?;
        if !src_state.alive {
            return Err(SciError::UnknownRange(src));
        }
        if !self.nodes.contains_key(&dst) {
            return Err(SciError::UnknownRange(dst));
        }

        let mut path = vec![src];
        let mut current = src;
        let mut ttl = crate::message::DEFAULT_TTL;
        // Stuck nodes get one chance to learn a closer neighbour via an
        // iterative lookup — the standard Kademlia recovery when greedy
        // forwarding meets a stale bucket.
        let mut lookup_used_at: Option<Guid> = None;

        while current != dst {
            if ttl == 0 {
                self.stats.record_failure();
                return Err(SciError::Unroutable { from: src, to: dst });
            }
            ttl -= 1;

            // Candidates in closeness order; take the first live one and
            // evict dead ones from the table as we learn about them.
            let candidates = self.nodes[&current].table.closest_n(dst, usize::MAX);
            let my_distance = current.xor_distance(dst);
            let mut next = None;
            let mut dead = Vec::new();
            for cand in candidates {
                if cand.xor_distance(dst) >= my_distance {
                    break; // sorted: nothing further helps
                }
                if self.nodes.get(&cand).is_some_and(|n| n.alive) {
                    next = Some(cand);
                    break;
                }
                dead.push(cand);
            }
            if !dead.is_empty() {
                if let Some(node) = self.nodes.get_mut(&current) {
                    for d in dead {
                        node.table.remove(d);
                    }
                }
            }
            let Some(next) = next else {
                if lookup_used_at != Some(current) {
                    lookup_used_at = Some(current);
                    self.stats.record_recovery();
                    crate::discovery::lookup(self, current, dst)?;
                    continue; // retry with the refreshed table
                }
                self.stats.record_failure();
                return Err(SciError::Unroutable { from: src, to: dst });
            };
            self.stats.record_forward(current);
            path.push(next);
            current = next;
        }

        let hops = (path.len() - 1) as u32;
        self.stats.record_delivery(hops);
        Ok(RouteOutcome {
            path,
            hops,
            latency: self.hop_latency.mul(hops as u64),
        })
    }

    /// Routes a message and, on success, appends it (TTL-decremented per
    /// hop) to the destination inbox. Returns the route taken.
    ///
    /// # Errors
    ///
    /// As for [`SimNetwork::route`].
    pub fn send(&mut self, message: Message) -> SciResult<RouteOutcome> {
        let (src, dst) = (message.src, message.dst);
        let outcome = self.route(src, dst)?;
        let mut delivered = message;
        for _ in 0..outcome.hops {
            delivered = delivered
                .forwarded()
                .ok_or(SciError::Unroutable { from: src, to: dst })?;
        }
        self.nodes
            .get_mut(&dst)
            .ok_or(SciError::Unroutable { from: src, to: dst })?
            .inbox
            .push(delivered);
        Ok(outcome)
    }
}

impl Default for SimNetwork {
    fn default() -> Self {
        SimNetwork::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::message::MessageKind;
    use sci_types::guid::GuidGenerator;

    fn network(n: usize, seed: u64) -> (SimNetwork, Vec<Guid>) {
        let mut net = SimNetwork::new();
        let mut ids = GuidGenerator::seeded(seed);
        let guids: Vec<Guid> = (0..n)
            .map(|i| {
                let g = ids.next_guid();
                net.add_node(g, format!("range-{i}")).unwrap();
                g
            })
            .collect();
        net.populate_full();
        (net, guids)
    }

    #[test]
    fn all_pairs_route_with_full_knowledge() {
        let (mut net, guids) = network(32, 1);
        for &a in &guids {
            for &b in &guids {
                let out = net.route(a, b).unwrap();
                assert_eq!(out.path.first().copied(), Some(a));
                assert_eq!(out.path.last().copied(), Some(b));
                assert!(out.hops <= 128);
            }
        }
        assert_eq!(net.stats().delivered(), 32 * 32);
        assert_eq!(net.stats().failed(), 0);
    }

    #[test]
    fn self_route_is_zero_hops() {
        let (mut net, guids) = network(4, 2);
        let out = net.route(guids[0], guids[0]).unwrap();
        assert_eq!(out.hops, 0);
        assert_eq!(out.latency, VirtualDuration::ZERO);
    }

    #[test]
    fn hops_scale_logarithmically() {
        let (mut net, guids) = network(256, 3);
        for (i, &a) in guids.iter().enumerate() {
            let b = guids[(i * 7 + 1) % guids.len()];
            net.route(a, b).unwrap();
        }
        let mean = net.stats().mean_hops();
        assert!(
            mean > 0.5 && mean < 16.0,
            "mean hops {mean} should be O(log n) for n=256"
        );
    }

    #[test]
    fn dead_destination_is_unroutable() {
        let (mut net, guids) = network(8, 4);
        net.kill(guids[3]).unwrap();
        assert!(net.route(guids[0], guids[3]).is_err());
    }

    #[test]
    fn routes_around_dead_intermediates() {
        let (mut net, guids) = network(64, 5);
        // Kill a third of the network (but keep endpoints).
        for &g in guids.iter().skip(2).step_by(3) {
            net.kill(g).unwrap();
        }
        let out = net.route(guids[0], guids[1]);
        assert!(
            out.is_ok(),
            "greedy routing should avoid dead nodes: {out:?}"
        );
    }

    #[test]
    fn send_delivers_to_inbox_with_decremented_ttl() {
        let (mut net, guids) = network(16, 7);
        let msg = Message::new(
            Guid::from_u128(42),
            guids[0],
            guids[9],
            MessageKind::QueryForward,
            b"payload".to_vec(),
        );
        let out = net.send(msg).unwrap();
        let inbox = net.node(guids[9]).unwrap().inbox();
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].id, Guid::from_u128(42));
        assert_eq!(inbox[0].ttl, crate::message::DEFAULT_TTL - out.hops as u16);
    }

    #[test]
    fn duplicate_names_and_guids_rejected() {
        let mut net = SimNetwork::new();
        net.add_node(Guid::from_u128(1), "a").unwrap();
        assert!(net.add_node(Guid::from_u128(1), "b").is_err());
        assert!(net.add_node(Guid::from_u128(2), "a").is_err());
        assert_eq!(net.find_by_name("a"), Some(Guid::from_u128(1)));
        assert_eq!(net.find_by_name("zzz"), None);
    }

    #[test]
    fn latency_accumulates_per_hop() {
        let (mut net, guids) = network(32, 8);
        net.set_hop_latency(VirtualDuration::from_millis(5));
        let out = net.route(guids[0], guids[17]).unwrap();
        assert_eq!(
            out.latency,
            VirtualDuration::from_millis(5).mul(out.hops as u64)
        );
    }
}
