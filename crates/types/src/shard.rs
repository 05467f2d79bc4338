//! Deterministic sharded hash map.
//!
//! A Range at city scale holds 100k–1M entities; a single `HashMap`
//! behind one lock (or one borrow) makes every registry touch contend
//! on the same allocation and makes rehashes stop-the-world over the
//! whole entity population. [`ShardMap`] splits the key space over a
//! power-of-two array of independent `HashMap` shards, routed by a
//! *deterministic* hash (`BuildHasherDefault<DefaultHasher>`), so
//! shard assignment is stable across processes and replays — a
//! property the chaos suite and log replay rely on. Each shard
//! stays small enough that rehashing is incremental in practice and
//! iteration never walks one giant table.
//!
//! The map is single-writer like everything else inside a Range actor:
//! there is no interior locking, only partitioned storage. The win is
//! bounded rehash pauses, cache-friendlier per-shard tables, and a
//! structure ready to be split across worker threads later.

use std::collections::hash_map::DefaultHasher;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};

/// The deterministic hasher used for shard routing and within shards.
///
/// `std`'s default `RandomState` seeds per-process, which would make
/// shard assignment (and therefore any iteration order that leaks into
/// replies) nondeterministic across runs — unacceptable for the
/// seed-exact chaos replays. `DefaultHasher::default()` is fixed.
pub type DeterministicState = BuildHasherDefault<DefaultHasher>;

/// Default number of shards; 64 keeps each shard ≤ ~16k entries at the
/// 1M-entity design point while costing one pointer-sized `Vec` slot
/// per shard when small.
pub const DEFAULT_SHARDS: usize = 64;

/// A hash map partitioned over a power-of-two array of shards with
/// deterministic routing.
///
/// Public behaviour matches `HashMap` for the operations exposed;
/// iteration order is *shard-major* and deterministic for a given key
/// population (same keys ⇒ same order, every run).
#[derive(Clone)]
pub struct ShardMap<K, V> {
    shards: Vec<HashMap<K, V, DeterministicState>>,
    mask: u64,
    len: usize,
}

impl<K: Hash + Eq, V> ShardMap<K, V> {
    /// Creates a map with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates a map with `shards` shards, rounded up to a power of
    /// two (minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.next_power_of_two().max(1);
        ShardMap {
            shards: (0..n).map(|_| HashMap::default()).collect(),
            mask: (n - 1) as u64,
            len: 0,
        }
    }

    /// Number of shards backing the map.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index a key routes to. Deterministic across processes.
    #[inline]
    pub fn shard_of(&self, key: &K) -> usize {
        let h = DeterministicState::default().hash_one(key);
        (h & self.mask) as usize
    }

    /// Inserts a key-value pair, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let idx = self.shard_of(&key);
        let prev = self.shards[idx].insert(key, value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.shard_of(key);
        let gone = self.shards[idx].remove(key);
        if gone.is_some() {
            self.len -= 1;
        }
        gone
    }

    /// A shared reference to the value for `key`, if present.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.shards[self.shard_of(key)].get(key)
    }

    /// A mutable reference to the value for `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = self.shard_of(key);
        self.shards[idx].get_mut(key)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.shards[self.shard_of(key)].contains_key(key)
    }

    /// Total number of entries across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry, keeping shard capacity.
    pub fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.clear();
        }
        self.len = 0;
    }

    /// A mutable reference to the value for `key`, inserting the value
    /// produced by `default` first if absent.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let idx = self.shard_of(&key);
        match self.shards[idx].entry(key) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                self.len += 1;
                slot.insert(default())
            }
        }
    }

    /// Retains only the entries for which `keep` returns `true`.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        let mut len = 0;
        for shard in &mut self.shards {
            shard.retain(|k, v| keep(k, v));
            len += shard.len();
        }
        self.len = len;
    }

    /// Iterates all entries, shard-major. Deterministic across runs
    /// for the same insertion history (no per-process hash seeds), but
    /// *not* insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.shards.iter().flat_map(HashMap::iter)
    }

    /// Mutably iterates all entries, shard-major.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.shards.iter_mut().flat_map(HashMap::iter_mut)
    }

    /// Iterates all keys, shard-major.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.shards.iter().flat_map(HashMap::keys)
    }

    /// Iterates all values, shard-major.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.shards.iter().flat_map(HashMap::values)
    }

    /// Mutably iterates all values, shard-major.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.shards.iter_mut().flat_map(HashMap::values_mut)
    }

    /// Per-shard entry counts, for balance diagnostics and benches.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(HashMap::len).collect()
    }
}

impl<K: Hash + Eq, V> Default for ShardMap<K, V> {
    fn default() -> Self {
        ShardMap::new()
    }
}

impl<K: Hash + Eq + std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for ShardMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Hash + Eq, V> FromIterator<(K, V)> for ShardMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = ShardMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// Owning shard-major iterator.
pub struct IntoIter<K, V> {
    shards: std::vec::IntoIter<HashMap<K, V, DeterministicState>>,
    current: Option<std::collections::hash_map::IntoIter<K, V>>,
}

impl<K, V> Iterator for IntoIter<K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        loop {
            if let Some(cur) = &mut self.current {
                if let Some(kv) = cur.next() {
                    return Some(kv);
                }
            }
            self.current = Some(self.shards.next()?.into_iter());
        }
    }
}

impl<K: Hash + Eq, V> IntoIterator for ShardMap<K, V> {
    type Item = (K, V);
    type IntoIter = IntoIter<K, V>;

    fn into_iter(self) -> IntoIter<K, V> {
        IntoIter {
            shards: self.shards.into_iter(),
            current: None,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::guid::Guid;

    #[test]
    fn behaves_like_a_map() {
        let mut m: ShardMap<Guid, u32> = ShardMap::with_shards(8);
        assert!(m.is_empty());
        for i in 0..1000u32 {
            assert_eq!(m.insert(Guid::from_u128(u128::from(i)), i), None);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.insert(Guid::from_u128(7), 99), Some(7));
        assert_eq!(m.len(), 1000, "overwrite does not grow");
        assert_eq!(m.get(&Guid::from_u128(7)), Some(&99));
        assert_eq!(m.remove(&Guid::from_u128(7)), Some(99));
        assert_eq!(m.remove(&Guid::from_u128(7)), None);
        assert_eq!(m.len(), 999);
        assert!(m.contains_key(&Guid::from_u128(8)));
        *m.get_mut(&Guid::from_u128(8)).unwrap() += 1;
        assert_eq!(m.get(&Guid::from_u128(8)), Some(&9));
    }

    #[test]
    fn routing_is_deterministic_and_spread() {
        let m: ShardMap<Guid, ()> = ShardMap::with_shards(16);
        let n: ShardMap<Guid, ()> = ShardMap::with_shards(16);
        let mut hit = [false; 16];
        for i in 0..4096u128 {
            let g = Guid::from_u128(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            assert_eq!(m.shard_of(&g), n.shard_of(&g), "routing differs");
            hit[m.shard_of(&g)] = true;
        }
        assert!(hit.iter().all(|&h| h), "some shard never hit");
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardMap::<u64, ()>::with_shards(0).shard_count(), 1);
        assert_eq!(ShardMap::<u64, ()>::with_shards(3).shard_count(), 4);
        assert_eq!(ShardMap::<u64, ()>::with_shards(64).shard_count(), 64);
    }

    #[test]
    fn get_or_insert_with_counts_once() {
        let mut m: ShardMap<u64, Vec<u32>> = ShardMap::new();
        m.get_or_insert_with(5, Vec::new).push(1);
        m.get_or_insert_with(5, Vec::new).push(2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&5), Some(&vec![1, 2]));
    }

    #[test]
    fn retain_and_clear_keep_len_consistent() {
        let mut m: ShardMap<u64, u64> = ShardMap::with_shards(4);
        for i in 0..100 {
            m.insert(i, i);
        }
        m.retain(|_, v| *v % 2 == 0);
        assert_eq!(m.len(), 50);
        assert_eq!(m.iter().count(), 50);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn iteration_order_is_stable_for_same_history() {
        let mut a: ShardMap<u64, u64> = ShardMap::with_shards(8);
        let mut b: ShardMap<u64, u64> = ShardMap::with_shards(8);
        for i in 0..500 {
            a.insert(i, i);
            b.insert(i, i);
        }
        a.remove(&123);
        b.remove(&123);
        let ka: Vec<_> = a.keys().copied().collect();
        let kb: Vec<_> = b.keys().copied().collect();
        assert_eq!(ka, kb, "same history must iterate identically");
    }

    #[test]
    fn into_iter_yields_everything() {
        let mut m: ShardMap<u64, u64> = ShardMap::with_shards(4);
        for i in 0..64 {
            m.insert(i, i * 2);
        }
        let mut got: Vec<_> = m.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got.len(), 64);
        assert_eq!(got[10], (10, 20));
    }
}
