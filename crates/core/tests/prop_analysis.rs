//! Property test for the static-analysis contract: any plan the
//! resolver produces and the analyzer passes must (a) instantiate
//! without error and (b) wire the Event Mediator with *exactly* the
//! subscriptions the analyzed plan implies — no more, no fewer.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use sci_analysis::analyze;
use sci_analysis::fleet::SubscriptionRecord;
use sci_core::analysis_bridge::{expected_subscriptions, plan_graph, record_of};
use sci_core::configuration::InstanceStore;
use sci_core::logic::{factory, LogicFactory, ObjLocationLogic, PathLogic};
use sci_core::profile_manager::ProfileManager;
use sci_core::resolver::{plan_configuration, Demand, Need};
use sci_event::{EventMediator, Topic};
use sci_location::floorplan::capa_level10;
use sci_query::Predicate;
use sci_types::guid::GuidGenerator;
use sci_types::{ContextType, ContextValue, EntityKind, Guid, PortSpec, Profile};

struct Registry {
    pm: ProfileManager,
    factories: HashMap<Guid, LogicFactory>,
}

/// Builds the Figure 3 world with a configurable number of door
/// sensors and optionally a second objLocation provider (exercising
/// provider-choice backtracking in the resolver).
fn registry(doors: usize, dual_obj_loc: bool) -> Registry {
    let plan = capa_level10();
    let mut pm = ProfileManager::new();
    let mut factories: HashMap<Guid, LogicFactory> = HashMap::new();

    let path_ce = Guid::from_u128(0x100);
    pm.insert(
        Profile::builder(path_ce, EntityKind::Software, "pathCE")
            .input(PortSpec::new("from", ContextType::Location))
            .input(PortSpec::new("to", ContextType::Location))
            .output(PortSpec::new("path", ContextType::Path))
            .build(),
    )
    .unwrap();
    let p = plan.clone();
    factories.insert(path_ce, factory(move || PathLogic::new(p.clone())));

    let obj_locs = if dual_obj_loc { 2 } else { 1 };
    for i in 0..obj_locs {
        let obj_loc = Guid::from_u128(0x200 + i);
        pm.insert(
            Profile::builder(obj_loc, EntityKind::Software, format!("objLocationCE-{i}"))
                .input(PortSpec::new("presence", ContextType::Presence))
                .output(PortSpec::new("location", ContextType::Location))
                .build(),
        )
        .unwrap();
        let p = plan.clone();
        factories.insert(obj_loc, factory(move || ObjLocationLogic::new(p.clone())));
    }

    for i in 0..doors as u128 {
        pm.insert(
            Profile::builder(
                Guid::from_u128(0x300 + i),
                EntityKind::Device,
                format!("d{i}"),
            )
            .output(PortSpec::new("presence", ContextType::Presence))
            .build(),
        )
        .unwrap();
    }
    Registry { pm, factories }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn verified_plans_instantiate_exactly_the_analyzed_edges(
        doors in 1usize..5,
        demand_kind in 0u8..3,
        subject_raw in proptest::option::of(1u64..1000),
        dual_obj_loc in any::<bool>(),
        reuse in any::<bool>(),
    ) {
        let reg = registry(doors, dual_obj_loc);
        let subject = subject_raw.map(|s| Guid::from_u128(u128::from(s)));

        let (ty, constraints) = match demand_kind {
            0 => (
                ContextType::Presence,
                subject
                    .map(|s| vec![Predicate::eq("subject", ContextValue::Id(s))])
                    .unwrap_or_default(),
            ),
            1 => (
                ContextType::Location,
                subject
                    .map(|s| vec![Predicate::eq("subject", ContextValue::Id(s))])
                    .unwrap_or_default(),
            ),
            _ => (
                ContextType::Path,
                vec![
                    Predicate::eq(
                        "from",
                        ContextValue::Id(subject.unwrap_or(Guid::from_u128(0xb0b))),
                    ),
                    Predicate::eq("to", ContextValue::Id(Guid::from_u128(0x70e))),
                ],
            ),
        };
        let demand = Demand { ty, subject };

        // Not every random demand resolves (that is the resolver's
        // concern, not the analyzer's); the property quantifies over
        // the plans that do.
        let Ok(plan) = plan_configuration(&reg.pm, &demand, &constraints, &HashSet::new()) else {
            return Ok(());
        };

        // (a) Resolver output passes static analysis without errors.
        let report = analyze(&plan_graph(&plan), &reg.pm);
        prop_assert!(
            !report.has_errors(),
            "resolver produced a plan the analyzer rejects: {report}"
        );

        // (b) A verified plan instantiates...
        let mut mediator = EventMediator::new();
        let mut ids = GuidGenerator::seeded(42);
        let mut store = InstanceStore::new(reuse);
        let owner = Guid::from_u128(0xAAAA);
        let mut config = store
            .instantiate(
                &plan,
                Guid::from_u128(0x9999),
                owner,
                false,
                &mut mediator,
                &mut ids,
                &reg.factories,
            )
            .expect("verified plan must instantiate");
        config.need = Some(Need {
            subject: demand.subject,
            ..Need::stated(&demand.ty, &constraints)
        });

        // ...and after adding the application's root subscriptions the
        // live table matches the plan-implied records exactly.
        for (i, &producer) in config.root_producers.iter().enumerate() {
            let root = config.plan.roots[i];
            let mut topic = Topic::of_type(config.plan.nodes[root].output.clone()).from(producer);
            if let Some(s) = demand.subject {
                topic = topic.about(s);
            }
            config.caa_subs.push(mediator.subscribe(owner, topic, false));
        }

        let expected: HashSet<SubscriptionRecord> =
            expected_subscriptions(&config, &store, &reg.pm, &HashSet::new())
                .expect("consistent configuration")
                .into_iter()
                .collect();
        let actual: HashSet<SubscriptionRecord> =
            mediator.bus().iter().map(|v| record_of(&v)).collect();
        prop_assert_eq!(expected, actual);
    }
}

/// Fleet audit across a federation: freshly built ranges are
/// drift-free, and a range report keys by the server's GUID.
#[test]
fn federation_audit_is_clean_for_fresh_ranges() {
    use sci_core::context_server::ContextServer;
    use sci_core::federation::Federation;
    use sci_query::{Mode, Query};
    use sci_types::VirtualTime;

    let mut fed = Federation::new(7);
    let mut ids = GuidGenerator::seeded(9);
    let mut cs = ContextServer::new(ids.next_guid(), "level-ten", capa_level10());
    for i in 0..2 {
        cs.register(
            Profile::builder(ids.next_guid(), EntityKind::Device, format!("door-{i}"))
                .output(PortSpec::new("presence", ContextType::Presence))
                .build(),
            VirtualTime::ZERO,
        )
        .unwrap();
    }
    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info(ContextType::Presence)
        .mode(Mode::Subscribe)
        .build();
    cs.submit_query(&q, VirtualTime::ZERO).unwrap();
    let server_id = cs.id();
    fed.add_range(cs).unwrap();

    let reports = fed.audit();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].0, server_id);
    assert!(
        reports[0].1.is_clean(),
        "fresh range drifts: {}",
        reports[0].1
    );
}
