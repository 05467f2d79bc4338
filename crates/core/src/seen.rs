//! The receiver-side half of exactly-once relay: which `(origin, seq)`
//! envelopes a federation driver has already let through.
//!
//! Both drivers pass *every* delivery through this filter, local ones
//! included, so a plain `HashSet<(Guid, u64)>` grows by one entry per
//! delivery for as long as the federation runs. [`SeenEnvelopes`]
//! answers exactly what that set answered but stores runs, not
//! members: per origin and sequence namespace, the seqs seen so far as
//! disjoint half-open runs. In-order traffic is one run whose end is
//! the watermark; a seq that arrives early sits in a short run of its
//! own above it until the gap fills and the two merge. Memory is
//! proportional to the gaps outstanding, not to the traffic passed.

use std::collections::BTreeMap;

use sci_types::{Guid, HashMap};

/// Envelope sequences carry their traffic class in the top two bits
/// (deliveries `0`, answers `1`, migrations `2`): each class counts from
/// its own origin, so each gets its own runs.
pub(crate) const SEQ_NS_SHIFT: u32 = 62;

/// A set of `(origin, seq)` envelopes, equivalent to
/// `HashSet<(Guid, u64)>` under `insert`.
#[derive(Clone, Debug, Default)]
pub(crate) struct SeenEnvelopes {
    /// Per `(origin, namespace)`: disjoint, non-adjacent runs of seen
    /// seqs, `start → end` (exclusive), namespace bits masked off.
    runs: HashMap<(Guid, u8), BTreeMap<u64, u64>>,
}

/// Splits an envelope sequence into its namespace and masked count.
fn split(seq: u64) -> (u8, u64) {
    ((seq >> SEQ_NS_SHIFT) as u8, seq & ((1 << SEQ_NS_SHIFT) - 1))
}

impl SeenEnvelopes {
    /// Has the envelope been recorded?
    pub(crate) fn contains(&self, (origin, seq): (Guid, u64)) -> bool {
        let (ns, seq) = split(seq);
        self.runs
            .get(&(origin, ns))
            .and_then(|runs| runs.range(..=seq).next_back())
            .is_some_and(|(_, &end)| seq < end)
    }

    /// Records the envelope; returns `true` if it was not seen before.
    pub(crate) fn insert(&mut self, (origin, seq): (Guid, u64)) -> bool {
        let (ns, seq) = split(seq);
        let runs = self.runs.entry((origin, ns)).or_default();
        // The run starting at or below `seq` either holds it already,
        // ends exactly at it (and grows), or is unrelated.
        let mut start = seq;
        if let Some((&below, &end)) = runs.range(..=seq).next_back() {
            if seq < end {
                return false;
            }
            if seq == end {
                start = below;
            }
        }
        // `seq` may also close the gap to the run that starts right
        // after it. The mask keeps `seq + 1` from overflowing.
        let end = runs.remove(&(seq + 1)).unwrap_or(seq + 1);
        runs.insert(start, end);
        true
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sci_types::HashSet;

    fn origin(i: usize) -> Guid {
        Guid::from_u128(0x0516 + i as u128)
    }

    #[test]
    fn in_order_and_reordered_streams_collapse_to_one_run() {
        let mut seen = SeenEnvelopes::default();
        // Counts from 0 (worker-minted) and from 1 (coordinator-minted).
        for seq in 0..10_000 {
            assert!(seen.insert((origin(0), seq)));
            assert!(seen.insert((origin(1), seq + 1)));
        }
        // Evens then odds: 500 one-seq runs that all merge.
        for seq in (0..1_000).step_by(2).chain((1..1_000).step_by(2)) {
            assert!(seen.insert((origin(2), seq)));
        }
        assert!(!seen.insert((origin(0), 4_321)));
        assert!(!seen.insert((origin(2), 999)));
        assert!(seen.runs.values().all(|runs| runs.len() == 1));
    }

    #[test]
    fn namespaces_do_not_shadow_each_other() {
        let mut seen = SeenEnvelopes::default();
        let o = origin(0);
        assert!(seen.insert((o, 7)));
        assert!(seen.insert((o, 7 | 1 << SEQ_NS_SHIFT)));
        assert!(seen.insert((o, 7 | 2 << SEQ_NS_SHIFT)));
        assert!(!seen.insert((o, 7 | 1 << SEQ_NS_SHIFT)));
        assert!(seen.insert((origin(1), 7)));
    }

    /// Mostly a small window (duplicates, gaps, reordering, adjacent
    /// merges), sometimes anywhere in the 64-bit space.
    fn seq_strategy() -> impl Strategy<Value = u64> {
        (0..4u64, 0..48u64, any::<u64>(), 0..5u8).prop_map(|(ns, low, anywhere, pick)| {
            if pick == 0 {
                anywhere
            } else {
                ns << SEQ_NS_SHIFT | low
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn insert_answers_exactly_like_a_hash_set(
            ops in proptest::collection::vec((0..3usize, seq_strategy()), 1..400),
        ) {
            let mut seen = SeenEnvelopes::default();
            let mut oracle: HashSet<(Guid, u64)> = HashSet::default();
            for (o, seq) in ops {
                let envelope = (origin(o), seq);
                prop_assert_eq!(seen.contains(envelope), oracle.contains(&envelope), "{:?}", envelope);
                prop_assert_eq!(seen.insert(envelope), oracle.insert(envelope), "{:?}", envelope);
            }
            // Runs stay disjoint and non-adjacent, so the representation
            // is canonical: one run per maximal block of seen seqs.
            for runs in seen.runs.values() {
                for (a, b) in runs.iter().zip(runs.iter().skip(1)) {
                    prop_assert!(a.1 < b.0, "runs {:?} and {:?} touch", a, b);
                }
            }
        }
    }
}
