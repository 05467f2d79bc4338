//! GUID prefix routing tables.
//!
//! Each overlay node keeps one bucket per shared-prefix length: bucket
//! `b` holds up to `k` neighbours whose GUIDs share exactly `b` leading
//! bits with the owner (i.e. differ first at bit `b`). Forwarding is
//! greedy by XOR distance; because the destination itself always
//! qualifies for the bucket of the first differing bit, a table built
//! from full membership knowledge can always make strict progress, which
//! `tests/prop_routing.rs` verifies as a property.

use sci_types::Guid;

/// Default bucket capacity.
pub const DEFAULT_BUCKET_CAPACITY: usize = 8;

/// A per-prefix-length bucket routing table for one overlay node.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    owner: Guid,
    capacity: usize,
    buckets: Vec<Vec<Guid>>,
}

impl RoutingTable {
    /// Creates an empty table for `owner` with the default bucket
    /// capacity.
    pub fn new(owner: Guid) -> Self {
        RoutingTable::with_capacity(owner, DEFAULT_BUCKET_CAPACITY)
    }

    /// Creates an empty table with an explicit per-bucket capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity table could never
    /// route.
    pub fn with_capacity(owner: Guid, capacity: usize) -> Self {
        assert!(capacity > 0, "bucket capacity must be positive");
        RoutingTable {
            owner,
            capacity,
            buckets: vec![Vec::new(); Guid::BITS as usize],
        }
    }

    /// The table owner's GUID.
    pub fn owner(&self) -> Guid {
        self.owner
    }

    /// The bucket index a peer belongs to: the length of the shared
    /// prefix with the owner. Returns `None` for the owner itself.
    pub fn bucket_index(&self, peer: Guid) -> Option<usize> {
        if peer == self.owner {
            None
        } else {
            Some(self.owner.leading_equal_bits(peer) as usize)
        }
    }

    /// Inserts a peer. Returns `true` if the peer is now present.
    ///
    /// A full bucket keeps its existing entries *except* that a peer
    /// closer to the owner than the bucket's farthest entry evicts it —
    /// this keeps near neighbours resident, which preserves last-hop
    /// reachability.
    pub fn insert(&mut self, peer: Guid) -> bool {
        let Some(idx) = self.bucket_index(peer) else {
            return false;
        };
        let capacity = self.capacity;
        let owner = self.owner;
        let bucket = &mut self.buckets[idx];
        if bucket.contains(&peer) {
            return true;
        }
        if bucket.len() < capacity {
            bucket.push(peer);
            return true;
        }
        // Evict the farthest-from-owner entry if the newcomer is
        // closer. A full bucket is non-empty, so the maximum exists;
        // a zero-capacity bucket simply refuses the newcomer.
        let Some((far_pos, far_guid)) = bucket
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, g)| owner.xor_distance(g))
        else {
            return false;
        };
        if owner.xor_distance(peer) < owner.xor_distance(far_guid) {
            bucket[far_pos] = peer;
            true
        } else {
            false
        }
    }

    /// Removes a peer (e.g. on failure detection). Returns `true` if it
    /// was present.
    pub fn remove(&mut self, peer: Guid) -> bool {
        let Some(idx) = self.bucket_index(peer) else {
            return false;
        };
        let bucket = &mut self.buckets[idx];
        if let Some(pos) = bucket.iter().position(|&g| g == peer) {
            bucket.remove(pos);
            true
        } else {
            false
        }
    }

    /// Returns `true` if the peer is in the table.
    pub fn contains(&self, peer: Guid) -> bool {
        self.bucket_index(peer)
            .map(|i| self.buckets[i].contains(&peer))
            .unwrap_or(false)
    }

    /// The neighbour strictly closest (by XOR) to `target` among all
    /// entries, or `None` if the table is empty.
    pub fn closest_to(&self, target: Guid) -> Option<Guid> {
        self.iter().min_by_key(|&g| g.xor_distance(target))
    }

    /// The next hop for `target`: the closest neighbour, but only if it
    /// is strictly closer to the target than the owner is (greedy
    /// progress rule). `None` means this node is a local minimum — the
    /// message is undeliverable from here.
    pub fn next_hop(&self, target: Guid) -> Option<Guid> {
        let candidate = self.closest_to(target)?;
        if candidate.xor_distance(target) < self.owner.xor_distance(target) {
            Some(candidate)
        } else {
            None
        }
    }

    /// Up to `n` table entries closest to `target`, ascending by
    /// distance (used by the discovery protocol's `find_node`).
    pub fn closest_n(&self, target: Guid, n: usize) -> Vec<Guid> {
        // Distances to one target are distinct, so "closest" is one
        // order: the `n` nearest are kept sorted while the table is read.
        let mut near: Vec<(u128, Guid)> = Vec::new();
        for bucket in &self.buckets {
            for &g in bucket {
                let d = g.xor_distance(target);
                if near.len() == n {
                    match near.last() {
                        Some(&(farthest, _)) if d < farthest => drop(near.pop()),
                        _ => continue,
                    }
                }
                let at = near.partition_point(|&(e, _)| e < d);
                near.insert(at, (d, g));
            }
        }
        near.into_iter().map(|(_, g)| g).collect()
    }

    /// Iterates over every entry.
    pub fn iter(&self) -> impl Iterator<Item = Guid> + '_ {
        self.buckets.iter().flatten().copied()
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Returns `true` if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn g(raw: u128) -> Guid {
        Guid::from_u128(raw)
    }

    #[test]
    fn owner_never_inserted() {
        let mut t = RoutingTable::new(g(5));
        assert!(!t.insert(g(5)));
        assert!(t.is_empty());
    }

    #[test]
    fn bucket_indexing_by_shared_prefix() {
        let owner = g(0);
        let t = RoutingTable::new(owner);
        // A peer with only the top bit set shares 0 leading bits.
        assert_eq!(t.bucket_index(g(1 << 127)), Some(0));
        // A peer equal to owner except the lowest bit shares 127 bits.
        assert_eq!(t.bucket_index(g(1)), Some(127));
        assert_eq!(t.bucket_index(owner), None);
    }

    #[test]
    fn insert_is_idempotent_and_capped() {
        let mut t = RoutingTable::with_capacity(g(0), 2);
        // All of these share 0 leading bits with owner 0 (top bit set).
        let peers: Vec<Guid> = (0..4).map(|i| g((1 << 127) | i)).collect();
        assert!(t.insert(peers[0]));
        assert!(t.insert(peers[0]), "re-insert reports present");
        assert!(t.insert(peers[1]));
        assert_eq!(t.len(), 2);
        // peers[2] is farther from owner than both residents: rejected.
        assert!(!t.insert(peers[3]));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn closer_peer_evicts_farther() {
        let owner = g(0);
        let mut t = RoutingTable::with_capacity(owner, 1);
        let far = g((1 << 127) | 0xffff);
        let near = g(1 << 127);
        assert!(t.insert(far));
        assert!(t.insert(near), "closer peer evicts");
        assert!(t.contains(near));
        assert!(!t.contains(far));
    }

    #[test]
    fn next_hop_makes_progress() {
        let owner = g(0b1000 << 124);
        let target = g(0b1111 << 124);
        let mut t = RoutingTable::new(owner);
        let closer = g(0b1100 << 124);
        t.insert(closer);
        assert_eq!(t.next_hop(target), Some(closer));
    }

    #[test]
    fn next_hop_refuses_regress() {
        let owner = g(0b1110 << 124);
        let target = g(0b1111 << 124);
        let mut t = RoutingTable::new(owner);
        // The only neighbour is farther from the target than we are.
        t.insert(g(0b0001 << 124));
        assert_eq!(t.next_hop(target), None);
    }

    #[test]
    fn closest_n_sorted() {
        let owner = g(0);
        let mut t = RoutingTable::new(owner);
        for i in 1..=5u128 {
            t.insert(g(i << 100));
        }
        let target = g(1 << 100);
        let closest = t.closest_n(target, 3);
        assert_eq!(closest.len(), 3);
        assert_eq!(closest[0], target);
        for w in closest.windows(2) {
            assert!(w[0].xor_distance(target) <= w[1].xor_distance(target));
        }
    }

    #[test]
    fn remove_lifecycle() {
        let mut t = RoutingTable::new(g(0));
        let p = g(42);
        t.insert(p);
        assert!(t.contains(p));
        assert!(t.remove(p));
        assert!(!t.remove(p));
        assert!(t.is_empty());
    }
}
