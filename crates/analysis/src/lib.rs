//! # sci-analysis
//!
//! Static verification of SCI composition plans.
//!
//! The query resolver decomposes a demand into a configuration plan —
//! an event-subscription graph from the demanded type down to the
//! sensor/data level. Until now defects in such graphs (a producer
//! wired into a port of the wrong type, a subscription cycle, a dead
//! edge) only surfaced *dynamically*, as silent non-delivery or event
//! storms after instantiation. This crate checks the graph *before*
//! the Context Server sets up any subscription, and audits live
//! servers for drift between what was analyzed and what is actually
//! wired.
//!
//! Three entry points:
//!
//! * [`analyze`] — single-plan verification of the resolver's
//!   [`ConfigurationPlan`] against the registered [`Profile`]s,
//!   producing an [`AnalysisReport`] of typed diagnostics with stable
//!   `SCI-Axxx` codes;
//! * [`fleet::diff_subscriptions`] — fleet-mode drift detection
//!   between the subscriptions analyzed plans require and the live
//!   subscription table;
//! * [`lint`] — the dependency-free `sci-lint` source pass
//!   (`SCI-A3xx`: nondeterminism in seeded paths, metric-name drift,
//!   mutation behind the command log), also available as the
//!   `sci-lint` binary.
//!
//! The crate depends only on `sci-types`, which holds the plan type
//! the resolver builds; `sci-core` passes its plans in as they are and
//! feeds its `ProfileManager` in as a [`ProfileSource`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod lint;

use std::collections::{HashMap, HashSet};

use sci_types::{
    AnalysisReport, ConfigurationPlan, ContextType, ContextValue, DiagCode, Diagnostic, Guid,
    NodeKind, PlanNode, Profile,
};

// ---------------------------------------------------------------------
// Profile access
// ---------------------------------------------------------------------

/// What the analyzer needs to know about registered Context Entities:
/// profile lookup and type compatibility. `sci-core` implements this
/// for its `ProfileManager` (with semantic-equivalence classes);
/// [`ProfileTable`] is a self-contained implementation for tests and
/// standalone use.
pub trait ProfileSource {
    /// The registered profile of a CE, if known.
    fn profile(&self, ce: Guid) -> Option<&Profile>;

    /// Whether a flow of type `produced` satisfies a port of type
    /// `consumed`. The default is exact equality; implementations with
    /// semantic-equivalence knowledge widen it.
    fn type_compatible(&self, produced: &ContextType, consumed: &ContextType) -> bool {
        produced == consumed
    }
}

/// A plain map-backed [`ProfileSource`] with optional pairwise
/// equivalences.
#[derive(Clone, Debug, Default)]
pub struct ProfileTable {
    profiles: HashMap<Guid, Profile>,
    equivalences: Vec<(ContextType, ContextType)>,
}

impl ProfileTable {
    /// An empty table.
    pub fn new() -> Self {
        ProfileTable::default()
    }

    /// Adds a profile (replacing any previous one for the same CE).
    pub fn insert(&mut self, profile: Profile) {
        self.profiles.insert(profile.id(), profile);
    }

    /// Declares two types interchangeable (symmetric, not transitive —
    /// declare each pair you need).
    pub fn declare_equivalence(&mut self, a: ContextType, b: ContextType) {
        self.equivalences.push((a, b));
    }
}

impl ProfileSource for ProfileTable {
    fn profile(&self, ce: Guid) -> Option<&Profile> {
        self.profiles.get(&ce)
    }

    fn type_compatible(&self, produced: &ContextType, consumed: &ContextType) -> bool {
        produced == consumed
            || self
                .equivalences
                .iter()
                .any(|(a, b)| (a == produced && b == consumed) || (b == produced && a == consumed))
    }
}

// ---------------------------------------------------------------------
// Single-plan analysis
// ---------------------------------------------------------------------

/// Profile attribute reserved for CEs whose input ports accept exactly
/// one producer each: `single-input = true`. The resolver may still
/// fan several sources into such a port (it has no notion of arity);
/// the analyzer rejects the plan with `SCI-A006`.
pub const SINGLE_INPUT_ATTR: &str = "single-input";

/// Statically verifies a composition graph against the registered
/// profiles. Returns every finding; callers decide policy (the
/// Context Server refuses plans whose report
/// [`has_errors`](AnalysisReport::has_errors)).
///
/// Checks, by stable code:
///
/// * `SCI-A001` — a producer's output type is incompatible with the
///   edge it feeds, or a node claims an output its profile lacks;
/// * `SCI-A002` — the producer relation contains a cycle;
/// * `SCI-A003` — an edge with no producers, a producer index outside
///   the graph, a root index outside the graph, or an edge port the
///   consumer's profile does not declare;
/// * `SCI-A004` — a node unreachable from every root (warning);
/// * `SCI-A005` — the same producer wired twice into one port, or one
///   port appearing on two edges of a node;
/// * `SCI-A006` — fan-in onto a port of a `single-input` profile.
pub fn analyze(graph: &ConfigurationPlan, profiles: &dyn ProfileSource) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    let n = graph.nodes.len();

    for (idx, root) in graph.roots.iter().enumerate() {
        if *root >= n {
            report.push(Diagnostic::new(
                DiagCode::DanglingEdge,
                format!("root #{idx} references node {root}, but the plan has {n} nodes"),
            ));
        }
    }

    for (idx, node) in graph.nodes.iter().enumerate() {
        check_node(graph, profiles, idx, node, &mut report);
    }

    check_cycles(graph, &mut report);
    check_reachability(graph, &mut report);
    report
}

fn check_node(
    graph: &ConfigurationPlan,
    profiles: &dyn ProfileSource,
    idx: usize,
    node: &PlanNode,
    report: &mut AnalysisReport,
) {
    let profile = profiles.profile(node.ce);

    // The node's claimed output must exist on its registered profile.
    if let Some(p) = profile {
        if !p.outputs().iter().any(|port| port.accepts(&node.output)) {
            report.push(
                Diagnostic::new(
                    DiagCode::TypeMismatch,
                    format!(
                        "node claims output `{}` but profile `{}` only provides [{}]",
                        node.output,
                        p.name(),
                        list_types(p.outputs().iter().map(|o| &o.ty)),
                    ),
                )
                .at_node(idx)
                .for_ce(node.ce),
            );
        }
    }

    let single_input = profile
        .and_then(|p| p.attributes().get(SINGLE_INPUT_ATTR))
        .and_then(ContextValue::as_bool)
        .unwrap_or(false);

    let mut seen_ports: HashSet<&str> = HashSet::new();
    for edge in &node.inputs {
        if !seen_ports.insert(edge.port.as_str()) {
            report.push(
                Diagnostic::new(
                    DiagCode::DuplicateBinding,
                    format!("port `{}` appears on more than one edge", edge.port),
                )
                .at_node(idx)
                .for_ce(node.ce),
            );
        }

        // The port must exist on the consumer's profile and expect the
        // edge's type.
        if let Some(p) = profile {
            match p.input_named(&edge.port) {
                None => report.push(
                    Diagnostic::new(
                        DiagCode::DanglingEdge,
                        format!(
                            "edge targets port `{}`, which profile `{}` does not declare",
                            edge.port,
                            p.name()
                        ),
                    )
                    .at_node(idx)
                    .for_ce(node.ce),
                ),
                Some(port) => {
                    if !profiles.type_compatible(&edge.ty, &port.ty) {
                        report.push(
                            Diagnostic::new(
                                DiagCode::TypeMismatch,
                                format!(
                                    "edge carries `{}` into port `{}`, which expects `{}`",
                                    edge.ty, edge.port, port.ty
                                ),
                            )
                            .at_node(idx)
                            .for_ce(node.ce),
                        );
                    }
                }
            }
        }

        if edge.producers.is_empty() {
            report.push(
                Diagnostic::new(
                    DiagCode::DanglingEdge,
                    format!("port `{}` has no producer", edge.port),
                )
                .at_node(idx)
                .for_ce(node.ce),
            );
        }
        if single_input && edge.producers.len() > 1 {
            report.push(
                Diagnostic::new(
                    DiagCode::FanInViolation,
                    format!(
                        "{} producers fan in to port `{}` of single-input profile",
                        edge.producers.len(),
                        edge.port
                    ),
                )
                .at_node(idx)
                .for_ce(node.ce),
            );
        }

        let mut seen_producers: HashSet<usize> = HashSet::new();
        for &p in &edge.producers {
            if p >= graph.nodes.len() {
                report.push(
                    Diagnostic::new(
                        DiagCode::DanglingEdge,
                        format!(
                            "port `{}` references node {p}, but the plan has {} nodes",
                            edge.port,
                            graph.nodes.len()
                        ),
                    )
                    .at_node(idx)
                    .for_ce(node.ce),
                );
                continue;
            }
            if !seen_producers.insert(p) {
                report.push(
                    Diagnostic::new(
                        DiagCode::DuplicateBinding,
                        format!("node {p} feeds port `{}` more than once", edge.port),
                    )
                    .at_node(idx)
                    .for_ce(node.ce),
                );
            }
            // The producer's claimed output must satisfy the edge type.
            let produced = &graph.nodes[p].output;
            if !profiles.type_compatible(produced, &edge.ty) {
                report.push(
                    Diagnostic::new(
                        DiagCode::TypeMismatch,
                        format!(
                            "producer node {p} outputs `{produced}`, but port `{}` carries `{}`",
                            edge.port, edge.ty
                        ),
                    )
                    .at_node(idx)
                    .for_ce(graph.nodes[p].ce),
                );
            }
        }
    }
}

/// Iterative three-colour depth-first search over the producer
/// relation; a grey-on-grey edge is a cycle.
fn check_cycles(graph: &ConfigurationPlan, report: &mut AnalysisReport) {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let n = graph.nodes.len();
    let producers_of = |node: usize| -> Vec<usize> {
        graph.nodes[node]
            .inputs
            .iter()
            .flat_map(|e| e.producers.iter().copied())
            .filter(|&p| p < n)
            .collect()
    };
    let mut marks = vec![Mark::White; n];
    for start in 0..n {
        if marks[start] != Mark::White {
            continue;
        }
        // (node, next-producer cursor) frames.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        marks[start] = Mark::Grey;
        while let Some(frame) = stack.last_mut() {
            let (node, cursor) = *frame;
            let producers = producers_of(node);
            if cursor >= producers.len() {
                marks[node] = Mark::Black;
                stack.pop();
                continue;
            }
            frame.1 += 1;
            let next = producers[cursor];
            match marks[next] {
                Mark::White => {
                    marks[next] = Mark::Grey;
                    stack.push((next, 0));
                }
                Mark::Grey => {
                    // `next` is on the current DFS path: report the loop.
                    let cycle: Vec<String> = stack
                        .iter()
                        .map(|&(i, _)| i)
                        .skip_while(|&i| i != next)
                        .chain([next])
                        .map(|i| i.to_string())
                        .collect();
                    report.push(
                        Diagnostic::new(
                            DiagCode::SubscriptionCycle,
                            format!("subscription cycle through nodes {}", cycle.join(" -> ")),
                        )
                        .at_node(next)
                        .for_ce(graph.nodes[next].ce),
                    );
                }
                Mark::Black => {}
            }
        }
    }
}

/// Warns about nodes no root's producer closure reaches.
fn check_reachability(graph: &ConfigurationPlan, report: &mut AnalysisReport) {
    let n = graph.nodes.len();
    let mut reachable = vec![false; n];
    let mut frontier: Vec<usize> = graph.roots.iter().copied().filter(|&r| r < n).collect();
    for &r in &frontier {
        reachable[r] = true;
    }
    while let Some(node) = frontier.pop() {
        for edge in &graph.nodes[node].inputs {
            for &p in &edge.producers {
                if p < n && !reachable[p] {
                    reachable[p] = true;
                    frontier.push(p);
                }
            }
        }
    }
    for (idx, node) in graph.nodes.iter().enumerate() {
        if !reachable[idx] {
            let what = match node.kind {
                NodeKind::Source => "sensor leaf",
                NodeKind::Derived => "derived node",
            };
            report.push(
                Diagnostic::new(
                    DiagCode::UnreachableNode,
                    format!("{what} is not reachable from any root"),
                )
                .at_node(idx)
                .for_ce(node.ce),
            );
        }
    }
}

fn list_types<'a>(types: impl Iterator<Item = &'a ContextType>) -> String {
    types
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_types::{EntityKind, Metadata, PlanEdge, PortSpec};

    fn guid(raw: u128) -> Guid {
        Guid::from_u128(raw)
    }

    /// The Figure 3 registry: pathCE, objLocationCE and two doors.
    fn figure3() -> ProfileTable {
        let mut t = ProfileTable::new();
        t.insert(
            Profile::builder(guid(0x100), EntityKind::Software, "pathCE")
                .input(PortSpec::new("from", ContextType::Location))
                .input(PortSpec::new("to", ContextType::Location))
                .output(PortSpec::new("path", ContextType::Path))
                .build(),
        );
        t.insert(
            Profile::builder(guid(0x200), EntityKind::Software, "objLocationCE")
                .input(PortSpec::new("presence", ContextType::Presence))
                .output(PortSpec::new("location", ContextType::Location))
                .build(),
        );
        for i in 0..2u128 {
            t.insert(
                Profile::builder(guid(0x300 + i), EntityKind::Device, format!("door-{i}"))
                    .output(PortSpec::new("presence", ContextType::Presence))
                    .build(),
            );
        }
        t
    }

    fn source(ce: Guid, ty: ContextType) -> PlanNode {
        PlanNode {
            ce,
            kind: NodeKind::Source,
            output: ty,
            binding: Metadata::new(),
            inputs: Vec::new(),
        }
    }

    /// A well-formed Figure 3 plan: doors -> objLocation -> path.
    fn valid_plan() -> ConfigurationPlan {
        ConfigurationPlan {
            nodes: vec![
                source(guid(0x300), ContextType::Presence),
                source(guid(0x301), ContextType::Presence),
                PlanNode {
                    ce: guid(0x200),
                    kind: NodeKind::Derived,
                    output: ContextType::Location,
                    binding: Metadata::new(),
                    inputs: vec![PlanEdge {
                        port: "presence".into(),
                        ty: ContextType::Presence,
                        subject: Some(guid(0xb0b)),
                        producers: vec![0, 1],
                    }],
                },
                PlanNode {
                    ce: guid(0x100),
                    kind: NodeKind::Derived,
                    output: ContextType::Path,
                    binding: Metadata::new(),
                    inputs: vec![
                        PlanEdge {
                            port: "from".into(),
                            ty: ContextType::Location,
                            subject: Some(guid(0xb0b)),
                            producers: vec![2],
                        },
                        PlanEdge {
                            port: "to".into(),
                            ty: ContextType::Location,
                            subject: Some(guid(0x70e)),
                            producers: vec![2],
                        },
                    ],
                },
            ],
            roots: vec![3],
            output: ContextType::Path,
        }
    }

    #[test]
    fn valid_plan_is_clean() {
        let report = analyze(&valid_plan(), &figure3());
        assert!(report.is_clean(), "unexpected findings: {report}");
    }

    #[test]
    fn a001_type_mismatch_on_edge() {
        let mut plan = valid_plan();
        // Wire a presence source straight into pathCE's `from` port.
        plan.nodes[3].inputs[0].producers = vec![0];
        let report = analyze(&plan, &figure3());
        assert!(report.has_errors());
        assert!(report.has_code(DiagCode::TypeMismatch));
    }

    #[test]
    fn a001_output_not_in_profile() {
        let mut plan = valid_plan();
        plan.nodes[0].output = ContextType::Temperature;
        let report = analyze(&plan, &figure3());
        // The bogus claim itself plus the now-mismatched edge.
        assert!(report.has_code(DiagCode::TypeMismatch));
        assert!(report.errors().count() >= 2);
    }

    #[test]
    fn a002_cycle_detected() {
        let mut plan = valid_plan();
        // objLocation consumes pathCE's output: 2 -> 3 -> 2.
        plan.nodes[2].inputs[0].producers = vec![3];
        let report = analyze(&plan, &figure3());
        assert!(report.has_code(DiagCode::SubscriptionCycle));
    }

    #[test]
    fn a003_dangling_variants() {
        // Empty producer list.
        let mut plan = valid_plan();
        plan.nodes[2].inputs[0].producers.clear();
        assert!(analyze(&plan, &figure3()).has_code(DiagCode::DanglingEdge));

        // Producer index out of range.
        let mut plan = valid_plan();
        plan.nodes[2].inputs[0].producers = vec![99];
        assert!(analyze(&plan, &figure3()).has_code(DiagCode::DanglingEdge));

        // Root out of range.
        let mut plan = valid_plan();
        plan.roots = vec![42];
        assert!(analyze(&plan, &figure3()).has_code(DiagCode::DanglingEdge));

        // Port the profile does not declare.
        let mut plan = valid_plan();
        plan.nodes[3].inputs[0].port = "via".into();
        assert!(analyze(&plan, &figure3()).has_code(DiagCode::DanglingEdge));
    }

    #[test]
    fn a004_unreachable_is_warning_only() {
        let mut plan = valid_plan();
        // An extra door leaf nothing subscribes to.
        plan.nodes.push(source(guid(0x301), ContextType::Presence));
        let report = analyze(&plan, &figure3());
        assert!(report.has_code(DiagCode::UnreachableNode));
        assert!(!report.has_errors(), "unreachable leaves do not block");
    }

    #[test]
    fn a005_duplicate_bindings() {
        // Same producer twice on one port.
        let mut plan = valid_plan();
        plan.nodes[2].inputs[0].producers = vec![0, 0];
        assert!(analyze(&plan, &figure3()).has_code(DiagCode::DuplicateBinding));

        // Same port on two edges.
        let mut plan = valid_plan();
        let dup = plan.nodes[3].inputs[0].clone();
        plan.nodes[3].inputs.push(dup);
        assert!(analyze(&plan, &figure3()).has_code(DiagCode::DuplicateBinding));
    }

    #[test]
    fn a006_fan_in_violation() {
        let mut profiles = figure3();
        // Re-register objLocation as single-input.
        profiles.insert(
            Profile::builder(guid(0x200), EntityKind::Software, "objLocationCE")
                .input(PortSpec::new("presence", ContextType::Presence))
                .output(PortSpec::new("location", ContextType::Location))
                .attribute(SINGLE_INPUT_ATTR, ContextValue::Bool(true))
                .build(),
        );
        let report = analyze(&valid_plan(), &profiles);
        assert!(report.has_code(DiagCode::FanInViolation));
        assert!(report.has_errors());
    }

    #[test]
    fn equivalence_widens_compatibility() {
        let mut profiles = figure3();
        let badge = ContextType::custom("badge-scan");
        profiles.insert(
            Profile::builder(guid(0x400), EntityKind::Device, "badge-reader")
                .output(PortSpec::new("scan", badge.clone()))
                .build(),
        );
        let mut plan = valid_plan();
        plan.nodes[0] = source(guid(0x400), badge.clone());

        // Without the equivalence: badge-scan into a presence port fails.
        assert!(analyze(&plan, &profiles).has_code(DiagCode::TypeMismatch));

        // With it: clean.
        profiles.declare_equivalence(badge, ContextType::Presence);
        let report = analyze(&plan, &profiles);
        assert!(report.is_clean(), "unexpected findings: {report}");
    }

    #[test]
    fn unknown_profiles_limit_but_do_not_crash_analysis() {
        // A graph over unregistered CEs still gets structural checks.
        let plan = ConfigurationPlan {
            nodes: vec![
                source(guid(1), ContextType::Presence),
                PlanNode {
                    ce: guid(2),
                    kind: NodeKind::Derived,
                    output: ContextType::Location,
                    binding: Metadata::new(),
                    inputs: vec![PlanEdge {
                        port: "presence".into(),
                        ty: ContextType::Presence,
                        subject: None,
                        producers: vec![0],
                    }],
                },
            ],
            roots: vec![1],
            output: ContextType::Location,
        };
        let report = analyze(&plan, &ProfileTable::new());
        assert!(report.is_clean(), "unexpected findings: {report}");
    }
}
