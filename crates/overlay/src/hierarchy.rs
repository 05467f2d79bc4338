//! The hierarchical baseline.
//!
//! The arrangement the paper argues *against*: ranges organised as a
//! balanced b-ary tree (think: campus server over building servers over
//! floor servers), with messages routed up to the lowest common ancestor
//! and back down. Correct and simple — but every cross-subtree message
//! transits the ancestors, so the root's forwarding load grows with the
//! whole network's traffic. Experiment E1 measures exactly that against
//! [`crate::net::SimNetwork`].

use sci_types::{Guid, HashMap, SciError, SciResult, VirtualDuration};

use crate::net::RouteOutcome;
use crate::stats::LoadStats;

/// A balanced b-ary tree of Range nodes with LCA routing.
#[derive(Clone, Debug)]
pub struct HierarchicalNetwork {
    /// Node GUIDs in breadth-first order; index 0 is the root.
    order: Vec<Guid>,
    index: HashMap<Guid, usize>,
    branching: usize,
    stats: LoadStats,
    hop_latency: VirtualDuration,
}

impl HierarchicalNetwork {
    /// Builds a tree over the given nodes with branching factor `b`,
    /// assigning positions in the order given (first node is the root).
    ///
    /// # Panics
    ///
    /// Panics if `b < 2` or `nodes` is empty.
    pub fn new(nodes: impl IntoIterator<Item = Guid>, b: usize) -> Self {
        let order: Vec<Guid> = nodes.into_iter().collect();
        assert!(b >= 2, "branching factor must be at least 2");
        assert!(!order.is_empty(), "a tree needs at least one node");
        let index = order.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        HierarchicalNetwork {
            order,
            index,
            branching: b,
            stats: LoadStats::new(),
            hop_latency: VirtualDuration::from_millis(1),
        }
    }

    /// Sets the per-hop link latency.
    pub fn set_hop_latency(&mut self, latency: VirtualDuration) {
        self.hop_latency = latency;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the tree is empty (never: construction demands
    /// one node; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The root node (the prospective bottleneck).
    pub fn root(&self) -> Guid {
        self.order[0]
    }

    /// Routing statistics.
    pub fn stats(&self) -> &LoadStats {
        &self.stats
    }

    /// Resets routing statistics.
    pub fn reset_stats(&mut self) {
        self.stats = LoadStats::new();
    }

    fn parent(&self, idx: usize) -> Option<usize> {
        if idx == 0 {
            None
        } else {
            Some((idx - 1) / self.branching)
        }
    }

    fn path_to_root(&self, mut idx: usize) -> Vec<usize> {
        let mut path = vec![idx];
        while let Some(p) = self.parent(idx) {
            path.push(p);
            idx = p;
        }
        path
    }

    /// Routes `src` → `dst` via the lowest common ancestor, recording
    /// per-node load exactly as the overlay does (each non-terminal node
    /// on the path counts one forward).
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownRange`] for unknown endpoints.
    pub fn route(&mut self, src: Guid, dst: Guid) -> SciResult<RouteOutcome> {
        let &si = self.index.get(&src).ok_or(SciError::UnknownRange(src))?;
        let &di = self.index.get(&dst).ok_or(SciError::UnknownRange(dst))?;

        let up = self.path_to_root(si);
        let down = self.path_to_root(di);
        // Find the LCA: deepest index present in both root paths. Two
        // nodes of one tree always share the root; a miss means the
        // hierarchy was corrupted, which routing reports rather than
        // panics on.
        let Some(lca_pos_in_up) = up.iter().position(|i| down.contains(i)) else {
            return Err(SciError::Unroutable { from: src, to: dst });
        };
        let lca = up[lca_pos_in_up];

        let mut path: Vec<usize> = up[..=lca_pos_in_up].to_vec();
        let mut descend: Vec<usize> = down.iter().copied().take_while(|&i| i != lca).collect();
        descend.reverse();
        path.extend(descend);

        let guids: Vec<Guid> = path.iter().map(|&i| self.order[i]).collect();
        for &g in &guids[..guids.len() - 1] {
            self.stats.record_forward(g);
        }
        let hops = (guids.len() - 1) as u32;
        self.stats.record_delivery(hops);
        Ok(RouteOutcome {
            path: guids,
            hops,
            latency: self.hop_latency.mul(hops as u64),
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn nodes(n: usize) -> Vec<Guid> {
        (1..=n as u128).map(Guid::from_u128).collect()
    }

    #[test]
    fn root_and_structure() {
        let net = HierarchicalNetwork::new(nodes(7), 2);
        assert_eq!(net.root(), Guid::from_u128(1));
        assert_eq!(net.len(), 7);
    }

    #[test]
    fn sibling_route_passes_parent() {
        // Binary tree: 0 root; 1,2 children; 3,4 under 1; 5,6 under 2.
        let ns = nodes(7);
        let mut net = HierarchicalNetwork::new(ns.clone(), 2);
        let out = net.route(ns[3], ns[4]).unwrap();
        assert_eq!(out.path, vec![ns[3], ns[1], ns[4]]);
        assert_eq!(out.hops, 2);
    }

    #[test]
    fn cross_subtree_route_passes_root() {
        let ns = nodes(7);
        let mut net = HierarchicalNetwork::new(ns.clone(), 2);
        let out = net.route(ns[3], ns[6]).unwrap();
        assert!(out.path.contains(&ns[0]), "must transit the root");
        assert_eq!(out.hops, 4);
    }

    #[test]
    fn self_route_zero_hops() {
        let ns = nodes(3);
        let mut net = HierarchicalNetwork::new(ns.clone(), 2);
        let out = net.route(ns[1], ns[1]).unwrap();
        assert_eq!(out.hops, 0);
    }

    #[test]
    fn ancestor_descendant_route() {
        let ns = nodes(7);
        let mut net = HierarchicalNetwork::new(ns.clone(), 2);
        let out = net.route(ns[0], ns[5]).unwrap();
        assert_eq!(out.path, vec![ns[0], ns[2], ns[5]]);
        let back = net.route(ns[5], ns[0]).unwrap();
        assert_eq!(back.path, vec![ns[5], ns[2], ns[0]]);
    }

    #[test]
    fn root_accumulates_disproportionate_load() {
        let ns = nodes(63); // 6-level binary tree
        let mut net = HierarchicalNetwork::new(ns.clone(), 2);
        // Leaf-to-leaf traffic across the whole tree.
        let leaves: Vec<Guid> = ns[31..].to_vec();
        for (i, &a) in leaves.iter().enumerate() {
            for &b in leaves.iter().skip(i + 1) {
                net.route(a, b).unwrap();
            }
        }
        let (hot, load) = net.stats().max_load().unwrap();
        // Under uniform all-pairs traffic the hottest node is at the top
        // of the tree (the root or one of its children — children also
        // carry their subtree-internal traffic).
        let top: Vec<Guid> = ns[..3].to_vec();
        assert!(top.contains(&hot), "hot node {hot} should be near the root");
        assert!(
            load as f64 > 3.0 * net.stats().mean_load(),
            "top-of-tree load {load} should dwarf the mean {}",
            net.stats().mean_load()
        );
    }

    #[test]
    fn unknown_nodes_error() {
        let ns = nodes(3);
        let mut net = HierarchicalNetwork::new(ns.clone(), 2);
        assert!(net.route(ns[0], Guid::from_u128(999)).is_err());
        assert!(net.route(Guid::from_u128(999), ns[0]).is_err());
    }

    #[test]
    fn ternary_tree_routes() {
        let ns = nodes(13);
        let mut net = HierarchicalNetwork::new(ns.clone(), 3);
        for &a in &ns {
            for &b in &ns {
                let out = net.route(a, b).unwrap();
                assert_eq!(out.path.first().copied(), Some(a));
                assert_eq!(out.path.last().copied(), Some(b));
            }
        }
    }
}
