//! Bridges the resolver's plan model to the `sci-analysis` verifier.
//!
//! `sci-analysis` deliberately depends only on `sci-types`, so this
//! module owns the three conversions that connect it to the live
//! middleware:
//!
//! * [`plan_graph`] — a [`ConfigurationPlan`] as the analyzer's
//!   [`PlanGraph`];
//! * [`ProfileSource`] for [`ProfileManager`] — profile lookup plus the
//!   range's semantic-equivalence classes as type compatibility;
//! * [`expected_subscriptions`] — the subscription records a live
//!   [`Configuration`] requires, for fleet drift detection against the
//!   Event Mediator's actual table ([`record_of`] reduces a live
//!   [`sci_event::Topic`] to the same shape).

use std::collections::HashSet;

use sci_analysis::fleet::SubscriptionRecord;
use sci_analysis::{GraphEdge, GraphNode, NodeRole, PlanGraph, ProfileSource};
use sci_event::bus::SubscriptionView;
use sci_types::{ContextType, Guid, Profile};

use crate::configuration::{Configuration, InstanceStore};
use crate::profile_manager::ProfileManager;
use crate::resolver::{sources_for, ConfigurationPlan, Need, NodeKind};

impl ProfileSource for ProfileManager {
    fn profile(&self, ce: Guid) -> Option<&Profile> {
        self.get(ce)
    }

    fn type_compatible(&self, produced: &ContextType, consumed: &ContextType) -> bool {
        self.compatible(produced, consumed)
    }
}

/// Converts a resolved plan into the analyzer's graph model.
pub fn plan_graph(plan: &ConfigurationPlan) -> PlanGraph {
    PlanGraph {
        nodes: plan
            .nodes
            .iter()
            .map(|node| GraphNode {
                ce: node.ce,
                role: match node.kind {
                    NodeKind::Source => NodeRole::Source,
                    NodeKind::Derived => NodeRole::Derived,
                },
                output: node.output.clone(),
                inputs: node
                    .inputs
                    .iter()
                    .map(|edge| GraphEdge {
                        port: edge.port.clone(),
                        ty: edge.ty.clone(),
                        subject: edge.subject,
                        producers: edge.producers.clone(),
                    })
                    .collect(),
            })
            .collect(),
        roots: plan.roots.clone(),
        output: plan.output.clone(),
    }
}

/// The subscriptions a live configuration requires.
///
/// Instantiation assigns each plan node the GUID its events carry:
/// source nodes publish as the registered CE itself, derived nodes as
/// the (possibly shared) instance created for them — recorded in
/// [`Configuration::instances`] in plan-node order. The edges between
/// derived nodes, and the owning application's subscription to a
/// derived root, are the retained plan's for the configuration's life.
/// A source-fed input — an instance's [`Need`]s, or the application's
/// own ([`Configuration::source_need`]) — requires one subscription
/// per source [`sources_for`] names now, the rule first wiring and
/// every later rewire follow. A raw (Kind/Named) configuration has no
/// plan: the application holds a source-only topic per selected
/// producer.
///
/// Returns `None` when the mapping is inconsistent (fewer recorded
/// instances than derived nodes, a dead instance, or an index outside
/// the plan) — states the single-plan analyzer would itself reject.
pub fn expected_subscriptions(
    config: &Configuration,
    instances: &InstanceStore,
    profiles: &ProfileManager,
    excluded: &HashSet<Guid>,
) -> Option<Vec<SubscriptionRecord>> {
    let plan = &config.plan;
    let mut hosted = config.instances.iter();
    let mut producer_guid: Vec<Guid> = Vec::with_capacity(plan.nodes.len());
    for node in &plan.nodes {
        match node.kind {
            NodeKind::Source => producer_guid.push(node.ce),
            NodeKind::Derived => producer_guid.push(*hosted.next()?),
        }
    }
    let fed = |consumer: Guid, need: &Need| {
        let subject = need.subject;
        sources_for(profiles, need, excluded)
            .into_iter()
            .map(move |(source, ty)| {
                SubscriptionRecord::new(consumer, Some(ty), Some(source), subject)
            })
    };

    let mut records = Vec::new();
    for (node, &instance) in plan.nodes.iter().zip(&producer_guid) {
        if node.kind == NodeKind::Source {
            continue;
        }
        for edge in &node.inputs {
            for &p in &edge.producers {
                if plan.nodes.get(p)?.kind == NodeKind::Derived {
                    records.push(SubscriptionRecord::new(
                        instance,
                        Some(plan.nodes[p].output.clone()),
                        Some(producer_guid[p]),
                        edge.subject,
                    ));
                }
            }
        }
        for need in &instances.get(instance)?.needs {
            records.extend(fed(instance, need));
        }
    }

    match config.source_need() {
        Some(need) => records.extend(fed(config.owner, need)),
        None => {
            let subject = config.need.as_ref().and_then(|need| need.subject);
            for (i, &producer) in config.root_producers.iter().enumerate() {
                let ty = match plan.roots.get(i) {
                    Some(&root) => Some(plan.nodes.get(root)?.output.clone()),
                    None => None,
                };
                records.push(SubscriptionRecord::new(
                    config.owner,
                    ty,
                    Some(producer),
                    subject,
                ));
            }
        }
    }
    Some(records)
}

/// Reduces a live subscription to the record shape fleet analysis
/// compares.
pub fn record_of(view: &SubscriptionView<'_>) -> SubscriptionRecord {
    SubscriptionRecord::new(
        view.subscriber,
        view.topic.ty().cloned(),
        view.topic.source(),
        view.topic.subject(),
    )
}
