//! Seeded-violation fixture for SCI-A305: event-path code that builds
//! its maps on std's per-process hasher instead of the library's one
//! fixed-seed hasher. Four uses must fire; the library constructors,
//! the lookalike types, the marked line, this prose's mention of
//! `HashMap::new(` and the test module must not.

use std::collections::hash_map::RandomState;

pub struct Table {
    homes: HashMap<Guid, Guid>,
    seen: HashSet<u64>,
}

impl Table {
    pub fn new() -> Self {
        let _scratch: std::collections::HashMap<u8, u8> = std::collections::HashMap::new();
        let _probe = std::hash::DefaultHasher::new();
        Table {
            homes: HashMap::default(),
            seen: HashSet::with_capacity(16),
        }
    }

    pub fn library_forms(&self) -> usize {
        let sized: HashMap<u8, u8> = HashMap::with_capacity_and_hasher(8, DeterministicState);
        let other = FxHashMap::new();
        let _seeded: MyRandomState = Default::default();
        let label = "HashSet::new() in a string";
        let std_api = HashMap::new(); // sci-lint: allow(std-hasher): the std API under test
        sized.len() + other.len() + label.len() + std_api.len()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_use_std_maps() {
        let _ = std::collections::HashMap::<u8, u8>::new();
        let _ = HashSet::<u8>::new();
    }
}
