//! Replicated registration state: the federation's one place directory.
//!
//! Where a range or a place lives is a *registration* — `range/{name}`
//! and `place/{room}`, each valued with the covering node's GUID — held
//! in a [`SyncStore`]: a grow-only last-writer-wins map. Every
//! node reads **its own replica** (through
//! [`crate::transport::Transport::registration`]), so what a node
//! routes by is what it has learned, not what a coordinator knows.
//!
//! One conflict rule: the entry with the higher `(version, origin)`
//! wins, on every node, whatever order the writes arrive in. Replicas
//! that have seen the same writes therefore hold the same values, and
//! [`SyncStore::digest`] says so in eight bytes.
//!
//! How replicas meet is the transport's business:
//! [`crate::tcp::TcpTransport`] keeps one store per node, converges a
//! pair in the peering handshake (each side sends its whole store, and
//! each merges the other's) and pushes live writes to connected peers;
//! [`crate::net::SimNetwork`]'s nodes share memory, so they share one
//! store and a write is visible to every node at once.

use std::collections::BTreeMap;

use sci_types::Guid;

/// One replicated registration entry: a key/value pair stamped with a
/// Lamport version and its publishing node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SyncEntry {
    /// Registration key (e.g. `place/L10.01`).
    pub key: String,
    /// Registration value (e.g. the covering range's GUID rendering).
    pub value: String,
    /// Lamport stamp; higher wins, ties broken by `origin`.
    pub version: u64,
    /// The node that published this write.
    pub origin: Guid,
}

/// A grow-only last-writer-wins map — the node-local replica of the
/// federation's registration state.
#[derive(Clone, Debug, Default)]
pub struct SyncStore {
    entries: BTreeMap<String, SyncEntry>,
    clock: u64,
}

impl SyncStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        SyncStore::default()
    }

    /// Publishes `key = value`, stamping it past everything seen.
    pub fn publish(&mut self, key: &str, value: &str, origin: Guid) -> SyncEntry {
        self.clock += 1;
        let entry = SyncEntry {
            key: key.to_owned(),
            value: value.to_owned(),
            version: self.clock,
            origin,
        };
        self.entries.insert(entry.key.clone(), entry.clone());
        entry
    }

    /// Merges a remote entry, last-writer-wins on `(version, origin)`.
    /// Returns whether the entry was applied (i.e. it was news).
    pub fn merge(&mut self, entry: SyncEntry) -> bool {
        self.clock = self.clock.max(entry.version);
        match self.entries.get(&entry.key) {
            Some(cur) if (cur.version, cur.origin) >= (entry.version, entry.origin) => false,
            _ => {
                self.entries.insert(entry.key.clone(), entry);
                true
            }
        }
    }

    /// The value of `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(|e| e.value.as_str())
    }

    /// Every entry, in key order: what a peering handshake sends.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = &SyncEntry> {
        self.entries.values()
    }

    /// FNV-1a 64 digest over the canonical (sorted) encoding of every
    /// entry. Equal digests ⇒ converged replicas.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        for e in self.entries.values() {
            eat(e.key.as_bytes());
            eat(&[0xFF]);
            eat(e.value.as_bytes());
            eat(&e.version.to_be_bytes());
            eat(&e.origin.as_u128().to_be_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_store_merge_is_lww() {
        let origin_a = Guid::from_u128(1);
        let origin_b = Guid::from_u128(2);
        let mut s = SyncStore::new();
        s.publish("k", "old", origin_a);
        let newer = SyncEntry {
            key: "k".into(),
            value: "new".into(),
            version: 9,
            origin: origin_b,
        };
        assert!(s.merge(newer.clone()));
        assert!(!s.merge(newer), "replays are idempotent");
        assert_eq!(s.get("k"), Some("new"));
        // A publish after merging version 9 must stamp past it.
        let e = s.publish("k2", "v", origin_a);
        assert!(e.version > 9, "lamport clock advanced by merge");
    }
}
