//! The Query Resolver.
//!
//! "Provides the means to take a high level query and decompose it into
//! a useful configuration of Context Entities" (paper, Section 3.1).
//! Resolution is *type matching* over CE profiles (Section 3.2): a
//! demand for a context type is satisfied either by source CEs (sensors)
//! that produce it directly, or by a derived CE whose inputs are resolved
//! recursively — "down to the sensor/data level". The result is a
//! [`ConfigurationPlan`]: the subscription graph the Context Server then
//! instantiates.
//!
//! The worked example of the paper's Figure 3 resolves here: a demand
//! for `Path between Bob and John` picks `pathCE` (provides Path,
//! requires two Locations), whose `from`/`to` inputs become demands for
//! `Location of Bob` / `Location of John`, each satisfied by an
//! `objLocationCE` instance, whose `Presence` input is satisfied by all
//! registered door-sensor source CEs.

use std::collections::HashSet;
use std::fmt;

use sci_query::predicate::eval_all;
use sci_query::Predicate;
use sci_types::{ContextType, ContextValue, Guid, Metadata, Profile, SciError, SciResult};

use crate::profile_manager::ProfileManager;

/// A typed, optionally subject-scoped requirement: "Location (of Bob)".
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Demand {
    /// The context type required.
    pub ty: ContextType,
    /// The entity the context must be about, if constrained.
    pub subject: Option<Guid>,
}

impl Demand {
    /// An unscoped demand for a type.
    pub fn of(ty: ContextType) -> Self {
        Demand { ty, subject: None }
    }

    /// A demand about one entity.
    pub fn about(ty: ContextType, subject: Guid) -> Self {
        Demand {
            ty,
            subject: Some(subject),
        }
    }
}

/// What an input needs: a [`Demand`] and the attribute predicates its
/// providers must satisfy. The resolver plans for one; where the plan
/// feeds it from sources it is recorded on its consumer, independent of
/// which sources satisfy it at the moment — [`sources_for`] says which
/// do, and adaptation keeps the consumer's subscriptions at that answer
/// as sources come and go.
#[derive(Clone, PartialEq, Debug)]
pub struct Need {
    /// The context type required.
    pub ty: ContextType,
    /// The entity the context must be about, if constrained.
    pub subject: Option<Guid>,
    /// Attribute predicates a source must satisfy ("in degrees
    /// Celsius"). Only a query's What clause states any; the inputs of
    /// a derived CE have none.
    pub predicates: Vec<Predicate>,
}

impl Need {
    /// What a What clause asks for: the reserved Id-valued `subject`
    /// constraint scopes the need, delivery-time quality contracts
    /// (the `qoc-` prefix) are not the provider's business, and the
    /// rest are attribute predicates.
    pub fn stated(ty: &ContextType, constraints: &[Predicate]) -> Need {
        let mut predicates = sci_query::matcher::attribute_constraints(constraints);
        predicates.retain(|c| !(c.attr == "subject" && matches!(c.value, ContextValue::Id(_))));
        Need {
            ty: ty.clone(),
            subject: constraints
                .iter()
                .find(|c| c.attr == "subject")
                .and_then(|c| c.value.as_id()),
            predicates,
        }
    }
}

impl fmt::Display for Need {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.subject {
            Some(s) => write!(f, "{} of {s}", self.ty),
            None => write!(f, "{}", self.ty),
        }
    }
}

/// The wiring rule: the sources that feed `need` — every entity
/// [`feeds`] it, each with the concrete output type to subscribe on,
/// in registration order per equivalent type. The resolver plans with
/// it, adaptation rewires to it one source at a time and the audit
/// expects it; nothing else decides which sources feed what.
pub fn sources_for(
    pm: &ProfileManager,
    need: &Need,
    excluded: &HashSet<Guid>,
) -> Vec<(Guid, ContextType)> {
    pm.providers_of_compatible(&need.ty)
        .into_iter()
        .filter_map(|p| Some((p.id(), feeds(pm, p, need, excluded)?)))
        .collect()
}

/// The wiring rule for one registered entity: the output type `source`
/// feeds `need` on, if it does — it is a non-excluded source CE with an
/// output compatible with the need's type (the same type or a declared
/// equivalent, paper §6 open issue 2; its first such output) whose
/// attributes satisfy the need's predicates.
pub fn feeds(
    pm: &ProfileManager,
    source: &Profile,
    need: &Need,
    excluded: &HashSet<Guid>,
) -> Option<ContextType> {
    let feeding = source.is_source() && !excluded.contains(&source.id());
    if !feeding || !eval_all(&need.predicates, source.attributes()) {
        return None;
    }
    output_for(pm, source, &need.ty)
}

/// The concrete output type `provider` contributes to a demand for
/// `ty`: its first output compatible with it.
fn output_for(pm: &ProfileManager, provider: &Profile, ty: &ContextType) -> Option<ContextType> {
    let port = provider
        .outputs()
        .iter()
        .find(|o| pm.compatible(&o.ty, ty))?;
    Some(port.ty.clone())
}

/// Index of a node within a [`ConfigurationPlan`].
pub type NodeId = usize;

/// How a plan node produces its output.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// A sensor/data-level CE: produces events on its own.
    Source,
    /// A derived CE: transforms subscribed inputs into outputs.
    Derived,
}

/// One input edge of a derived node.
#[derive(Clone, PartialEq, Debug)]
pub struct PlanEdge {
    /// The consumer's input port name.
    pub port: String,
    /// The context type flowing on the edge.
    pub ty: ContextType,
    /// Subject scope of the flow, if any.
    pub subject: Option<Guid>,
    /// Producing nodes (several when all sources of a type feed one
    /// input, as with door sensors feeding `objLocationCE`).
    pub producers: Vec<NodeId>,
}

/// One node of a configuration plan.
#[derive(Clone, PartialEq, Debug)]
pub struct PlanNode {
    /// The registered CE chosen for this role.
    pub ce: Guid,
    /// Source or derived.
    pub kind: NodeKind,
    /// The output type this node contributes.
    pub output: ContextType,
    /// Per-configuration parameters (e.g. `subject`, `from`, `to`).
    pub binding: Metadata,
    /// Input edges (empty for sources).
    pub inputs: Vec<PlanEdge>,
}

/// A resolved subscription graph, ready to instantiate.
#[derive(Clone, PartialEq, Debug)]
pub struct ConfigurationPlan {
    /// All nodes; children precede their consumers.
    pub nodes: Vec<PlanNode>,
    /// The nodes whose output answers the demand (multiple when the
    /// demand resolves directly to several sources).
    pub roots: Vec<NodeId>,
    /// The demanded type at the root.
    pub output: ContextType,
}

impl ConfigurationPlan {
    /// GUIDs of the source CEs the plan depends on.
    pub fn source_ces(&self) -> Vec<Guid> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Source)
            .map(|n| n.ce)
            .collect()
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` for a plan with no nodes (never produced by the
    /// resolver; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Graph depth (longest producer chain), for diagnostics.
    pub fn depth(&self) -> usize {
        fn depth_of(plan: &ConfigurationPlan, id: NodeId) -> usize {
            1 + plan.nodes[id]
                .inputs
                .iter()
                .flat_map(|e| e.producers.iter())
                .map(|&p| depth_of(plan, p))
                .max()
                .unwrap_or(0)
        }
        self.roots
            .iter()
            .map(|&r| depth_of(self, r))
            .max()
            .unwrap_or(0)
    }
}

/// Maximum recursion depth for backward chaining.
const MAX_DEPTH: usize = 16;

/// Splits a What clause's constraints into *port bindings* (attr names
/// that match an input port of `provider` with an Id value — the
/// paper's "requires two locations as inputs" parameterisation) and
/// plain attribute predicates.
fn split_constraints<'a>(
    provider: &Profile,
    constraints: &'a [Predicate],
) -> (Vec<(&'a str, Guid)>, Vec<&'a Predicate>) {
    let mut bindings = Vec::new();
    let mut predicates = Vec::new();
    for c in constraints {
        match (&c.value, provider.input_named(&c.attr)) {
            (ContextValue::Id(id), Some(_)) => bindings.push((c.attr.as_str(), *id)),
            _ => predicates.push(c),
        }
    }
    (bindings, predicates)
}

/// Resolves a demand against the range's profiles into a configuration
/// plan.
///
/// `constraints` come from the query's What pattern; Id-valued
/// constraints naming an input port of the chosen provider become port
/// bindings, the rest filter providers by attribute. `excluded` lists
/// CEs the plan must avoid (failed components, during repair).
///
/// # Errors
///
/// Returns [`SciError::Unresolvable`] when no complete chain down to
/// sources exists.
pub fn plan_configuration(
    pm: &ProfileManager,
    demand: &Demand,
    constraints: &[Predicate],
    excluded: &HashSet<Guid>,
) -> SciResult<ConfigurationPlan> {
    let need = Need {
        subject: demand.subject,
        ..Need::stated(&demand.ty, constraints)
    };
    plan_need(pm, &need, excluded)
}

/// [`plan_configuration`] for a need already stated.
pub(crate) fn plan_need(
    pm: &ProfileManager,
    need: &Need,
    excluded: &HashSet<Guid>,
) -> SciResult<ConfigurationPlan> {
    let (mut nodes, mut path) = (Vec::new(), Vec::new());
    let roots = resolve_need(pm, need, excluded, &mut nodes, &mut path, 0)?;
    Ok(ConfigurationPlan {
        nodes,
        roots,
        output: need.ty.clone(),
    })
}

fn resolve_need(
    pm: &ProfileManager,
    need: &Need,
    excluded: &HashSet<Guid>,
    nodes: &mut Vec<PlanNode>,
    path: &mut Vec<Guid>,
    depth: usize,
) -> SciResult<Vec<NodeId>> {
    if depth > MAX_DEPTH {
        return Err(SciError::Unresolvable(format!(
            "composition deeper than {MAX_DEPTH} while resolving {need}"
        )));
    }
    // Source CEs first: the search terminates at the sensor/data level.
    let sources = sources_for(pm, need, excluded);
    if !sources.is_empty() {
        let mut ids = Vec::with_capacity(sources.len());
        for (ce, output) in sources {
            // Reuse an existing leaf node for the same CE within this plan.
            let existing = nodes
                .iter()
                .position(|n| n.kind == NodeKind::Source && n.ce == ce);
            let id = existing.unwrap_or_else(|| {
                nodes.push(PlanNode {
                    ce,
                    kind: NodeKind::Source,
                    output,
                    binding: Metadata::new(),
                    inputs: Vec::new(),
                });
                nodes.len() - 1
            });
            ids.push(id);
        }
        return Ok(ids);
    }

    // Derived providers: deterministic preference order — fewer inputs
    // first (cheaper graphs), then by name for stability. Attribute
    // predicates must hold on the provider.
    let mut derived: Vec<&Profile> = pm
        .providers_of_compatible(&need.ty)
        .into_iter()
        .filter(|p| !p.is_source() && !excluded.contains(&p.id()) && !path.contains(&p.id()))
        .collect();
    derived.sort_by(|a, b| {
        a.inputs()
            .len()
            .cmp(&b.inputs().len())
            .then_with(|| a.name().cmp(b.name()))
    });

    let mut last_error = None;
    for provider in derived {
        let (port_bindings, predicates) = split_constraints(provider, &need.predicates);
        if !predicates.iter().all(|p| p.eval(provider.attributes())) {
            continue;
        }

        // Tentatively descend through this provider; backtrack on failure.
        let node_count_before = nodes.len();
        path.push(provider.id());
        let attempt = (|| -> SciResult<PlanNode> {
            let mut binding = Metadata::new();
            if let Some(subject) = need.subject {
                binding.set("subject", ContextValue::Id(subject));
            }
            for (port, id) in &port_bindings {
                binding.set(*port, ContextValue::Id(*id));
            }
            let mut edges = Vec::with_capacity(provider.inputs().len());
            for port in provider.inputs() {
                // The subject of a child demand: an explicit port binding
                // wins; otherwise the node's own subject propagates down.
                let subject = port_bindings
                    .iter()
                    .find(|(name, _)| *name == port.name)
                    .map(|&(_, id)| id)
                    .or(need.subject);
                let child = Need {
                    ty: port.ty.clone(),
                    subject,
                    predicates: Vec::new(),
                };
                let producers = resolve_need(pm, &child, excluded, nodes, path, depth + 1)?;
                edges.push(PlanEdge {
                    port: port.name.clone(),
                    ty: port.ty.clone(),
                    subject,
                    producers,
                });
            }
            Ok(PlanNode {
                ce: provider.id(),
                kind: NodeKind::Derived,
                // Candidates come from `providers_of_compatible`, so a
                // compatible output exists.
                output: output_for(pm, provider, &need.ty).unwrap_or_else(|| need.ty.clone()),
                binding,
                inputs: edges,
            })
        })();
        path.pop();

        match attempt {
            Ok(node) => {
                nodes.push(node);
                return Ok(vec![nodes.len() - 1]);
            }
            Err(e) => {
                nodes.truncate(node_count_before);
                last_error = Some(e);
            }
        }
    }

    Err(last_error
        .unwrap_or_else(|| SciError::Unresolvable(format!("no registered entity provides {need}"))))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_types::{EntityKind, PortSpec};

    fn pm_with_figure3_entities() -> (ProfileManager, Guid, Guid, Vec<Guid>) {
        let mut pm = ProfileManager::new();
        let path_ce = Guid::from_u128(0x100);
        pm.insert(
            Profile::builder(path_ce, EntityKind::Software, "pathCE")
                .input(PortSpec::new("from", ContextType::Location))
                .input(PortSpec::new("to", ContextType::Location))
                .output(PortSpec::new("path", ContextType::Path))
                .build(),
        )
        .unwrap();
        let obj_loc = Guid::from_u128(0x200);
        pm.insert(
            Profile::builder(obj_loc, EntityKind::Software, "objLocationCE")
                .input(PortSpec::new("presence", ContextType::Presence))
                .output(PortSpec::new("location", ContextType::Location))
                .build(),
        )
        .unwrap();
        let doors: Vec<Guid> = (0..3)
            .map(|i| {
                let id = Guid::from_u128(0x300 + i);
                pm.insert(
                    Profile::builder(id, EntityKind::Device, format!("doorSensor-{i}"))
                        .output(PortSpec::new("presence", ContextType::Presence))
                        .build(),
                )
                .unwrap();
                id
            })
            .collect();
        (pm, path_ce, obj_loc, doors)
    }

    #[test]
    fn figure3_configuration_resolves() {
        let (pm, path_ce, obj_loc, doors) = pm_with_figure3_entities();
        let bob = Guid::from_u128(0xb0b);
        let john = Guid::from_u128(0x70e);
        let constraints = vec![
            Predicate::eq("from", ContextValue::Id(bob)),
            Predicate::eq("to", ContextValue::Id(john)),
        ];
        let plan = plan_configuration(
            &pm,
            &Demand::of(ContextType::Path),
            &constraints,
            &HashSet::new(),
        )
        .unwrap();

        // Root is the pathCE with from/to bound.
        assert_eq!(plan.roots.len(), 1);
        let root = &plan.nodes[plan.roots[0]];
        assert_eq!(root.ce, path_ce);
        assert_eq!(
            root.binding.get("from").and_then(ContextValue::as_id),
            Some(bob)
        );
        assert_eq!(
            root.binding.get("to").and_then(ContextValue::as_id),
            Some(john)
        );

        // Its two location inputs are subject-scoped objLocation nodes.
        assert_eq!(root.inputs.len(), 2);
        for (edge, expected_subject) in root.inputs.iter().zip([bob, john]) {
            assert_eq!(edge.subject, Some(expected_subject));
            assert_eq!(edge.producers.len(), 1);
            let loc_node = &plan.nodes[edge.producers[0]];
            assert_eq!(loc_node.ce, obj_loc);
            assert_eq!(
                loc_node
                    .binding
                    .get("subject")
                    .and_then(ContextValue::as_id),
                Some(expected_subject)
            );
            // The presence edge fans in from every door sensor.
            assert_eq!(loc_node.inputs.len(), 1);
            let presence = &loc_node.inputs[0];
            assert_eq!(presence.producers.len(), doors.len());
            for &p in &presence.producers {
                assert!(doors.contains(&plan.nodes[p].ce));
                assert_eq!(plan.nodes[p].kind, NodeKind::Source);
            }
        }
        // Door-sensor leaves are shared between the two branches, not
        // duplicated.
        assert_eq!(plan.len(), 1 + 2 + doors.len());
        assert_eq!(plan.depth(), 3);
        let mut source_ces = plan.source_ces();
        source_ces.sort();
        assert_eq!(source_ces, doors);
    }

    #[test]
    fn direct_source_demand_returns_all_sources() {
        let (pm, _, _, doors) = pm_with_figure3_entities();
        let plan = plan_configuration(
            &pm,
            &Demand::of(ContextType::Presence),
            &[],
            &HashSet::new(),
        )
        .unwrap();
        assert_eq!(plan.roots.len(), doors.len());
        assert_eq!(plan.depth(), 1);
    }

    #[test]
    fn unresolvable_type_errors() {
        let (pm, _, _, _) = pm_with_figure3_entities();
        let err = plan_configuration(
            &pm,
            &Demand::of(ContextType::Occupancy),
            &[],
            &HashSet::new(),
        )
        .unwrap_err();
        assert!(matches!(err, SciError::Unresolvable(_)));
    }

    #[test]
    fn excluded_ces_are_avoided() {
        let (pm, _, _, doors) = pm_with_figure3_entities();
        let mut excluded = HashSet::new();
        excluded.insert(doors[0]);
        let plan = plan_configuration(
            &pm,
            &Demand::about(ContextType::Location, Guid::from_u128(0xb0b)),
            &[],
            &excluded,
        )
        .unwrap();
        assert!(!plan.source_ces().contains(&doors[0]));
        assert_eq!(plan.source_ces().len(), doors.len() - 1);

        // Excluding every presence source makes location unresolvable.
        for d in &doors {
            excluded.insert(*d);
        }
        assert!(
            plan_configuration(&pm, &Demand::of(ContextType::Location), &[], &excluded).is_err()
        );
    }

    #[test]
    fn attribute_constraints_filter_sources() {
        let mut pm = ProfileManager::new();
        for (raw, unit) in [(1u128, "celsius"), (2, "fahrenheit")] {
            pm.insert(
                Profile::builder(Guid::from_u128(raw), EntityKind::Device, format!("t{raw}"))
                    .output(PortSpec::new("t", ContextType::Temperature))
                    .attribute("unit", ContextValue::text(unit))
                    .build(),
            )
            .unwrap();
        }
        let constraints = vec![Predicate::eq("unit", ContextValue::text("celsius"))];
        let plan = plan_configuration(
            &pm,
            &Demand::of(ContextType::Temperature),
            &constraints,
            &HashSet::new(),
        )
        .unwrap();
        assert_eq!(plan.source_ces(), vec![Guid::from_u128(1)]);
    }

    #[test]
    fn cycles_are_broken() {
        let mut pm = ProfileManager::new();
        // A CE that "converts" location to location would self-loop.
        pm.insert(
            Profile::builder(Guid::from_u128(1), EntityKind::Software, "loop")
                .input(PortSpec::new("in", ContextType::Location))
                .output(PortSpec::new("out", ContextType::Location))
                .build(),
        )
        .unwrap();
        let err = plan_configuration(
            &pm,
            &Demand::of(ContextType::Location),
            &[],
            &HashSet::new(),
        )
        .unwrap_err();
        assert!(matches!(err, SciError::Unresolvable(_)));
    }

    #[test]
    fn backtracks_over_dead_end_providers() {
        let mut pm = ProfileManager::new();
        // A tempting provider with an unsatisfiable input...
        pm.insert(
            Profile::builder(Guid::from_u128(1), EntityKind::Software, "aBrokenPath")
                .input(PortSpec::new("x", ContextType::custom("nonexistent")))
                .output(PortSpec::new("path", ContextType::Path))
                .build(),
        )
        .unwrap();
        // ...and a working two-input one (sorted later: more inputs).
        pm.insert(
            Profile::builder(Guid::from_u128(2), EntityKind::Software, "goodPath")
                .input(PortSpec::new("a", ContextType::Location))
                .input(PortSpec::new("b", ContextType::Location))
                .output(PortSpec::new("path", ContextType::Path))
                .build(),
        )
        .unwrap();
        pm.insert(
            Profile::builder(Guid::from_u128(3), EntityKind::Device, "locSensor")
                .output(PortSpec::new("loc", ContextType::Location))
                .build(),
        )
        .unwrap();
        let plan =
            plan_configuration(&pm, &Demand::of(ContextType::Path), &[], &HashSet::new()).unwrap();
        let root = &plan.nodes[plan.roots[0]];
        assert_eq!(root.ce, Guid::from_u128(2), "resolver backtracked");
        // The dead-end attempt left no orphan nodes behind.
        for node in &plan.nodes {
            assert_ne!(node.ce, Guid::from_u128(1));
        }
    }
}
