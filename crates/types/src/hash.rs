//! The one hashing decision of the library.
//!
//! Every keyed table on the event path — the bus's candidate families,
//! the instance store, the subscription and configuration indexes, the
//! federation's home and inbox tables, the exactly-once filter — is a
//! [`HashMap`] or [`HashSet`] over [`DeterministicState`]. Its keys are
//! GUIDs, sub-ids, small tuples of them and context types, so the
//! hasher is built for a few machine words, not for long strings.

use std::collections;
use std::hash::{BuildHasher, Hasher};

/// A hash map whose iteration order is the same on every run.
#[expect(clippy::disallowed_types, reason = "the one fixed-seed map")]
pub type HashMap<K, V> = collections::HashMap<K, V, DeterministicState>;

/// A hash set whose iteration order is the same on every run.
#[expect(clippy::disallowed_types, reason = "the one fixed-seed set")]
pub type HashSet<T> = collections::HashSet<T, DeterministicState>;

/// The odd multiplier each word is folded with: the first 64 bits of
/// π's fraction.
const MULTIPLE: u64 = 0x243f_6a88_85a3_08d3;

/// The one fixed seed every hasher starts from: the next 64 bits of π.
const SEED: u64 = 0x1319_8a2e_0370_7344;

/// The 128-bit product of `x` and `y`, its halves xored.
#[inline]
const fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = (x as u128).wrapping_mul(y as u128);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The builder of every library map's hasher: a folded multiply with one
/// fixed seed.
///
/// **The function.** The state starts at a fixed seed. Each 64-bit word
/// written is xored into the state, and the state is multiplied by a
/// fixed odd constant into 128 bits, whose halves are xored to form the
/// next state; `finish` returns the state. A `u128` (a [`crate::Guid`])
/// is its low word then its high word. A byte string is its 8-byte
/// little-endian words, then, when its length is not a multiple of 8,
/// one last zero-padded word carrying the tail's length in its top
/// byte. This is the fallback hasher of `foldhash` and `ahash`: two
/// multiplies hash a GUID, where SipHash-1-3 runs six rounds of a dozen
/// operations each.
///
/// **Why one fixed seed.** A per-process seed would make every
/// iteration order that leaks into an output differ between runs, and
/// the seed-exact chaos replays, the recovery oracle and the benchmark
/// all compare runs. The outputs sort what they emit, so the order
/// reaches no reply, log or snapshot, but a fixed seed keeps a run's
/// memory layout, and with it its timing, the same on every run. The
/// function therefore fixes the iteration order of every map built on
/// it; its known answers are pinned by the tests.
///
/// **Scope.** A fixed, public function does not resist collision
/// flooding: a peer that chooses its GUIDs can make them share buckets
/// and turn lookups linear. Peers are unauthenticated today, so such a
/// peer has easier attacks; defending against hostile peers belongs to
/// peer authentication and bounded queues, not to this hasher.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeterministicState;

impl BuildHasher for DeterministicState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: SEED }
    }
}

/// The hasher [`DeterministicState`] builds.
#[derive(Clone, Copy, Debug)]
pub struct FoldHasher {
    state: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        let mut word = [0u8; 8];
        for chunk in &mut words {
            word.copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            word[7] = tail.len() as u8;
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = folded_multiply(self.state ^ n, MULTIPLE);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Guid;

    fn hash_of<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
        DeterministicState.hash_one(value)
    }

    #[test]
    fn known_answers_are_pinned() {
        // The function fixes the iteration order of every library map:
        // a change to any of these is a change to that order.
        assert_eq!(hash_of(&0u64), 0xbc13_060e_2d1a_ac79);
        assert_eq!(hash_of(&Guid::NIL), 0x5111_ff3a_18f5_777f);
        assert_eq!(hash_of(&Guid::from_u128(1)), 0x7e8c_a30e_340b_f1f0);
        assert_eq!(hash_of(&Guid::from_u128(u128::MAX)), 0xe98f_3738_4b8f_9a65);
        assert_eq!(
            hash_of(&Guid::from_u128(0xD000_0000)),
            0xc3cd_c639_6fce_9ef5
        );
        assert_eq!(hash_of(&(Guid::from_u128(7), 3u8)), 0xb9d2_8512_6ee3_4780);
        assert_eq!(hash_of("location"), 0x893f_ce80_4cf6_f5e8);
        assert_eq!(hash_of(&b"abcdefgh"[..]), 0xc0a8_9105_8a19_9452);
    }

    #[test]
    fn byte_strings_differing_only_in_padding_differ() {
        let all: Vec<u64> = [
            "",
            "a",
            "a\0",
            "abcdefg",
            "abcdefg\0",
            "abcdefgh",
            "abcdefgh\0",
        ]
        .iter()
        .map(|s| {
            let mut h = DeterministicState.build_hasher();
            h.write(s.as_bytes());
            h.finish()
        })
        .collect();
        let mut distinct = all.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), all.len(), "{all:x?}");
    }

    /// `(worst low-12-bit bucket / mean, distinct top-7-bit tags)` over
    /// `keys`: the bucket index and the control tag a swiss table reads.
    fn spread(keys: impl Iterator<Item = Guid>) -> (f64, usize) {
        let mut buckets = vec![0u32; 1 << 12];
        let mut tags = [false; 128];
        let mut n = 0usize;
        for key in keys {
            let h = hash_of(&key);
            buckets[(h & 0xfff) as usize] += 1;
            tags[(h >> 57) as usize] = true;
            n += 1;
        }
        let mean = n as f64 / buckets.len() as f64;
        let worst = buckets.iter().copied().max().unwrap_or(0);
        (f64::from(worst) / mean, tags.iter().filter(|&&t| t).count())
    }

    #[test]
    fn the_guid_families_the_workloads_mint_spread() {
        const N: u128 = 1 << 16;
        // (name, base, shift): the family is `base + (i << shift)`.
        let families = [
            ("doors", 0xD000_0000, 0),
            ("subjects", 0x5000_0000, 0),
            ("apps", 0xA000_0000, 0),
            ("queries", 0x9000_0000_0000, 0),
            ("small", 0, 0),
            ("high word only", 0, 64),
            ("2^64 strides", 0x1000_0000, 64),
        ];
        for (name, base, shift) in families {
            let (worst, tags) = spread((0..N).map(|i| Guid::from_u128(base + (i << shift))));
            assert!(worst <= 4.0, "{name}: a bucket holds {worst:.1}x the mean");
            assert_eq!(tags, 128, "{name}: only {tags} of 128 tags used");
        }
    }
}
