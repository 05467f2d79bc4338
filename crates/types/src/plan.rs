//! The composition plan: "an event subscription graph wiring CE
//! outputs to CE inputs" (paper, Section 3.2).
//!
//! The query resolver (`sci-core::resolver`) builds a
//! [`ConfigurationPlan`], the Context Server instantiates it, and
//! `sci-analysis` verifies the same value before anything is wired.
//! The plan lives in `sci-types` so the builder and the verifier share
//! one type without depending on each other.

use std::sync::Arc;

use crate::guid::Guid;
use crate::metadata::Metadata;
use crate::value::ContextType;

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

/// A borrowed plan is shared by cloning it once; an owned one (or an
/// `Arc` already) moves in without a copy.
impl From<&ConfigurationPlan> for Arc<ConfigurationPlan> {
    fn from(plan: &ConfigurationPlan) -> Self {
        Arc::new(plan.clone())
    }
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
