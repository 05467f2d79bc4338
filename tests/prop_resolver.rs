//! Property tests for the Query Resolver: soundness (every produced
//! configuration plan type-checks edge by edge, down to sources) and
//! completeness (whenever a provider chain exists, a plan is found).

use proptest::prelude::*;
use sci::core::profile_manager::ProfileManager;
use sci::core::resolver::{plan_configuration, Demand, NodeKind};
use sci::prelude::*;
use sci::types::HashSet;

/// A randomly shaped provider universe: `depth` conversion layers above
/// a set of sources, plus unrelated distractors.
#[derive(Clone, Debug)]
struct Universe {
    depth: usize,
    sources_per_type: usize,
    converters_per_layer: usize,
    distractors: usize,
}

fn layer_type(i: usize) -> ContextType {
    ContextType::custom(format!("layer-{i}"))
}

fn build_universe(u: &Universe) -> (ProfileManager, GuidGenerator) {
    let mut pm = ProfileManager::new();
    let mut ids = GuidGenerator::seeded(17);

    // Sources produce layer-0.
    for _ in 0..u.sources_per_type {
        let id = ids.next_guid();
        pm.insert(
            Profile::builder(id, EntityKind::Device, format!("src-{id}"))
                .output(PortSpec::new("out", layer_type(0)))
                .build(),
        )
        .unwrap();
    }
    // Converters lift layer i to layer i+1.
    for i in 0..u.depth {
        for _ in 0..u.converters_per_layer {
            let id = ids.next_guid();
            pm.insert(
                Profile::builder(id, EntityKind::Software, format!("conv-{i}-{id}"))
                    .input(PortSpec::new("in", layer_type(i)))
                    .output(PortSpec::new("out", layer_type(i + 1)))
                    .build(),
            )
            .unwrap();
        }
    }
    // Distractors provide unrelated types.
    for d in 0..u.distractors {
        let id = ids.next_guid();
        pm.insert(
            Profile::builder(id, EntityKind::Device, format!("noise-{d}"))
                .output(PortSpec::new(
                    "out",
                    ContextType::custom(format!("noise-{d}")),
                ))
                .build(),
        )
        .unwrap();
    }
    (pm, ids)
}

fn arb_universe() -> impl Strategy<Value = Universe> {
    (1usize..5, 1usize..4, 1usize..3, 0usize..20).prop_map(
        |(depth, sources_per_type, converters_per_layer, distractors)| Universe {
            depth,
            sources_per_type,
            converters_per_layer,
            distractors,
        },
    )
}

/// Checks the structural soundness invariants of a plan.
fn assert_sound(plan: &sci::core::ConfigurationPlan, pm: &ProfileManager, demanded: &ContextType) {
    assert!(!plan.roots.is_empty(), "plans have roots");
    for &root in &plan.roots {
        assert!(
            pm.compatible(&plan.nodes[root].output, demanded),
            "root output {} incompatible with demand {demanded}",
            plan.nodes[root].output
        );
    }
    for (idx, node) in plan.nodes.iter().enumerate() {
        match node.kind {
            NodeKind::Source => {
                assert!(node.inputs.is_empty(), "sources have no inputs");
                let profile = pm.get(node.ce).expect("sources are registered");
                assert!(profile.is_source());
            }
            NodeKind::Derived => {
                let profile = pm.get(node.ce).expect("derived CEs are registered");
                assert_eq!(
                    node.inputs.len(),
                    profile.inputs().len(),
                    "every port wired"
                );
                for edge in &node.inputs {
                    assert!(!edge.producers.is_empty(), "no dangling edges");
                    for &p in &edge.producers {
                        assert!(p < idx, "children precede parents");
                        assert!(
                            pm.compatible(&plan.nodes[p].output, &edge.ty),
                            "edge type mismatch: producer {} vs port {}",
                            plan.nodes[p].output,
                            edge.ty
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Completeness: a full chain exists, so the resolver finds a plan —
    /// and soundness: the plan type-checks down to sources.
    #[test]
    fn resolves_and_type_checks(u in arb_universe()) {
        let (pm, _) = build_universe(&u);
        let demanded = layer_type(u.depth);
        let plan = plan_configuration(&pm, &Demand::of(demanded.clone()), &[], &HashSet::default())
            .expect("a chain exists");
        assert_sound(&plan, &pm, &demanded);
        // The chain grounds at the sensor level.
        prop_assert!(!plan.source_ces().is_empty());
        prop_assert_eq!(plan.depth(), u.depth + 1);
    }

    /// Removing every source makes the demand unresolvable, regardless
    /// of how many converters exist.
    #[test]
    fn no_sources_no_plan(u in arb_universe()) {
        let (pm, _) = build_universe(&u);
        let excluded: HashSet<Guid> = pm
            .providers_of(&layer_type(0))
            .into_iter()
            .map(|p| p.id())
            .collect();
        let result = plan_configuration(
            &pm,
            &Demand::of(layer_type(u.depth)),
            &[],
            &excluded,
        );
        prop_assert!(result.is_err());
    }

    /// Excluding any strict subset of sources still resolves, and the
    /// excluded CEs never appear in the plan.
    #[test]
    fn exclusion_is_respected(u in arb_universe(), strike in 0usize..3) {
        prop_assume!(u.sources_per_type > 1);
        let (pm, _) = build_universe(&u);
        let sources: Vec<Guid> = pm
            .providers_of(&layer_type(0))
            .into_iter()
            .map(|p| p.id())
            .collect();
        let excluded: HashSet<Guid> = sources
            .iter()
            .copied()
            .take(strike.min(sources.len() - 1))
            .collect();
        let demanded = layer_type(u.depth);
        let plan = plan_configuration(&pm, &Demand::of(demanded.clone()), &[], &excluded)
            .expect("survivors exist");
        assert_sound(&plan, &pm, &demanded);
        for node in &plan.nodes {
            prop_assert!(!excluded.contains(&node.ce));
        }
    }

    /// Resolution is deterministic: the same universe yields the same
    /// plan every time.
    #[test]
    fn resolution_is_deterministic(u in arb_universe()) {
        let (pm, _) = build_universe(&u);
        let demand = Demand::of(layer_type(u.depth));
        let a = plan_configuration(&pm, &demand, &[], &HashSet::default()).expect("resolves");
        let b = plan_configuration(&pm, &demand, &[], &HashSet::default()).expect("resolves");
        prop_assert_eq!(a, b);
    }
}
