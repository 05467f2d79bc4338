//! Indexed-registry equivalence: for any churn sequence of registry
//! operations, [`ProfileManager`] (serial-keyed provider sets, hashed
//! equivalence classes) and the retained `Vec`-per-type
//! [`oracle::UnshardedProfileManager`] are observably identical — same
//! results, same errors, same provider *order* (the resolver's plan
//! selection depends on registration order, so order divergence would
//! silently change which sensors a plan wires).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use sci_core::profile_manager::{oracle::UnshardedProfileManager, ProfileManager};
use sci_types::{ContextType, ContextValue, EntityKind, Guid, PortSpec, Profile};

/// Pool of deterministic entity ids the generated churn draws from, so
/// removes/updates hit both present and absent targets.
fn entity(i: usize) -> Guid {
    Guid::from_u128(0x5000 + i as u128)
}

const POOL: usize = 24;

fn type_pool() -> Vec<ContextType> {
    vec![
        ContextType::Presence,
        ContextType::Location,
        ContextType::Temperature,
        ContextType::Path,
        ContextType::custom("badge-scan"),
        ContextType::custom("rfid-read"),
    ]
}

/// One abstract registry operation of the generated workload.
#[derive(Clone, Debug)]
enum Op {
    /// Insert entity `i` with outputs chosen by the type-index bitmask.
    Insert(usize, u8),
    Remove(usize),
    Update(usize, i64),
    DeclareEquivalence(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..POOL, any::<u8>()).prop_map(|(i, mask)| Op::Insert(i, mask)),
        (0..POOL, any::<u8>()).prop_map(|(i, mask)| Op::Insert(i, mask)),
        (0..POOL).prop_map(Op::Remove),
        (0..POOL, any::<i64>()).prop_map(|(i, v)| Op::Update(i, v)),
        (0..6usize, 0..6usize).prop_map(|(a, b)| Op::DeclareEquivalence(a, b)),
    ]
}

fn profile_for(i: usize, mask: u8, types: &[ContextType]) -> Profile {
    let mut b = Profile::builder(entity(i), EntityKind::Device, format!("e{i}"));
    for (t, ty) in types.iter().enumerate() {
        if mask & (1 << t) != 0 {
            b = b.output(PortSpec::new(format!("out{t}"), ty.clone()));
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sharded_registry_matches_unsharded_oracle(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let types = type_pool();
        let mut sharded = ProfileManager::new();
        let mut oracle = UnshardedProfileManager::new();

        for op in &ops {
            match op {
                Op::Insert(i, mask) => {
                    let a = sharded.insert(profile_for(*i, *mask, &types));
                    let b = oracle.insert(profile_for(*i, *mask, &types));
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "insert divergence on {:?}", op);
                }
                Op::Remove(i) => {
                    let a = sharded.remove(entity(*i));
                    let b = oracle.remove(entity(*i));
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "remove divergence on {:?}", op);
                    if let (Ok(pa), Ok(pb)) = (a, b) {
                        prop_assert_eq!(pa.id(), pb.id());
                    }
                }
                Op::Update(i, v) => {
                    let a = sharded.update_attribute(entity(*i), "queue", ContextValue::Int(*v));
                    let b = oracle.update_attribute(entity(*i), "queue", ContextValue::Int(*v));
                    prop_assert_eq!(&a, &b, "update divergence on {:?}", op);
                }
                Op::DeclareEquivalence(a, b) => {
                    sharded.declare_equivalence(types[*a].clone(), types[*b].clone());
                    oracle.declare_equivalence(types[*a].clone(), types[*b].clone());
                }
            }

            // Observable state stays in lockstep after every step.
            prop_assert_eq!(sharded.len(), oracle.len());
            prop_assert_eq!(sharded.is_empty(), oracle.is_empty());
        }

        // Full observable-equality sweep at the end of the run.
        for i in 0..POOL {
            let a = sharded.get(entity(i)).map(|p| format!("{p:?}"));
            let b = oracle.get(entity(i)).map(|p| format!("{p:?}"));
            prop_assert_eq!(a, b, "profile divergence for entity {}", i);
        }
        for ty in &types {
            let a: Vec<Guid> = sharded.providers_of(ty).iter().map(|p| p.id()).collect();
            let b: Vec<Guid> = oracle.providers_of(ty).iter().map(|p| p.id()).collect();
            prop_assert_eq!(a, b, "providers_of order divergence for {:?}", ty);

            let a: Vec<Guid> = sharded
                .providers_of_compatible(ty)
                .iter()
                .map(|p| p.id())
                .collect();
            let b: Vec<Guid> = oracle
                .providers_of_compatible(ty)
                .iter()
                .map(|p| p.id())
                .collect();
            prop_assert_eq!(a, b, "providers_of_compatible divergence for {:?}", ty);

            let mut ea = sharded.equivalents(ty);
            let mut eb = oracle.equivalents(ty);
            ea.sort_by(|x, y| x.name().cmp(y.name()));
            eb.sort_by(|x, y| x.name().cmp(y.name()));
            prop_assert_eq!(ea, eb, "equivalents divergence for {:?}", ty);
        }
        for a in &types {
            for b in &types {
                prop_assert_eq!(
                    sharded.compatible(a, b),
                    oracle.compatible(a, b),
                    "compatible divergence for {:?} vs {:?}",
                    a,
                    b
                );
            }
        }
    }
}
