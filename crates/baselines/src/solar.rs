//! A Solar-style operator-graph engine.
//!
//! "Solar supports dynamic composition of context components … It
//! requires the application developer to explicitly specify the
//! composition graph of context components. The infrastructure will try
//! to find the common parts of context processing graphs of different
//! applications and will reuse them, thus improving scalability."
//! (paper, Section 2)
//!
//! [`SolarEngine`] implements both halves of that description: an
//! application hands in an explicit [`GraphSpec`] (sources by id,
//! operators by kind, explicit edges), and structurally identical
//! sub-trees are shared between applications. What it deliberately does
//! *not* do — the robustness gap the paper identifies — is repair: when
//! a named source dies, affected applications must call
//! [`SolarEngine::respecify`] themselves.

use std::collections::HashMap;

use sci_location::floorplan::FloorPlan;
use sci_types::{ContextEvent, ContextType, ContextValue, Guid, SciError, SciResult, VirtualTime};

/// One node of an application-specified operator graph.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum SpecNode {
    /// A concrete event source, named explicitly by the application.
    Source(Guid),
    /// Presence → location over the engine's floor plan, filtered to a
    /// subject.
    LocationOf(Guid),
    /// Latest-location pair → path between two subjects.
    PathBetween(Guid, Guid),
}

/// An explicit composition graph: `nodes[0]` is the output; each node
/// lists the indices of its children (inputs).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct GraphSpec {
    /// The nodes, output first.
    pub nodes: Vec<SpecNode>,
    /// `children[i]` are the node indices feeding node `i`.
    pub children: Vec<Vec<usize>>,
}

impl GraphSpec {
    /// A canonical key for one subtree (used for cross-application
    /// sharing).
    fn subtree_key(&self, idx: usize) -> String {
        let mut key = format!("{:?}(", self.nodes[idx]);
        for &c in &self.children[idx] {
            key.push_str(&self.subtree_key(c));
            key.push(',');
        }
        key.push(')');
        key
    }
}

struct OperatorInstance {
    node: SpecNode,
    /// Latest location per subject (for path operators).
    last_location: HashMap<Guid, sci_types::Coord>,
    /// Instance ids of children (or source GUIDs).
    inputs: Vec<Guid>,
    outputs_seen: u64,
}

/// One application's attachment to the engine.
#[derive(Clone, Debug)]
pub struct Attachment {
    /// The application.
    pub app: Guid,
    /// The root operator instance its deliveries come from.
    pub root: Guid,
    /// The sources its graph names (for failure accounting).
    pub sources: Vec<Guid>,
}

/// The Solar-style engine: explicit graphs, shared subtrees, no repair.
pub struct SolarEngine {
    plan: FloorPlan,
    operators: HashMap<Guid, OperatorInstance>,
    shared: HashMap<String, Guid>,
    attachments: Vec<Attachment>,
    deliveries: Vec<(Guid, ContextEvent)>,
    next_raw: u128,
}

impl std::fmt::Debug for SolarEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolarEngine")
            .field("operators", &self.operators.len())
            .field("attachments", &self.attachments.len())
            .finish()
    }
}

impl SolarEngine {
    /// Creates an engine over a floor plan.
    pub fn new(plan: FloorPlan) -> Self {
        SolarEngine {
            plan,
            operators: HashMap::new(),
            shared: HashMap::new(),
            attachments: Vec::new(),
            deliveries: Vec::new(),
            next_raw: 0x5_01a8_0000,
        }
    }

    fn fresh_id(&mut self) -> Guid {
        self.next_raw += 1;
        Guid::from_u128(self.next_raw)
    }

    /// Instantiates (or shares) the graph an application specified and
    /// attaches the application to its root. Returns the attachment.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::Parse`] for malformed specs (dangling child
    /// indices).
    pub fn attach(&mut self, app: Guid, spec: &GraphSpec) -> SciResult<Attachment> {
        for children in &spec.children {
            for &c in children {
                if c >= spec.nodes.len() {
                    return Err(SciError::Parse(format!("dangling child index {c}")));
                }
            }
        }
        let root = self.instantiate(spec, 0)?;
        let sources = spec
            .nodes
            .iter()
            .filter_map(|n| match n {
                SpecNode::Source(g) => Some(*g),
                _ => None,
            })
            .collect();
        let attachment = Attachment { app, root, sources };
        self.attachments.push(attachment.clone());
        Ok(attachment)
    }

    fn instantiate(&mut self, spec: &GraphSpec, idx: usize) -> SciResult<Guid> {
        if let SpecNode::Source(g) = spec.nodes[idx] {
            return Ok(g);
        }
        let key = spec.subtree_key(idx);
        if let Some(&existing) = self.shared.get(&key) {
            return Ok(existing);
        }
        let mut inputs = Vec::new();
        for &c in &spec.children[idx] {
            inputs.push(self.instantiate(spec, c)?);
        }
        let id = self.fresh_id();
        self.operators.insert(
            id,
            OperatorInstance {
                node: spec.nodes[idx].clone(),
                last_location: HashMap::new(),
                inputs,
                outputs_seen: 0,
            },
        );
        self.shared.insert(key, id);
        Ok(id)
    }

    /// Detaches an application and re-attaches it with a new spec — the
    /// *manual* recovery step Solar requires after source failure.
    ///
    /// # Errors
    ///
    /// As for [`SolarEngine::attach`].
    pub fn respecify(&mut self, app: Guid, spec: &GraphSpec) -> SciResult<Attachment> {
        self.attachments.retain(|a| a.app != app);
        self.attach(app, spec)
    }

    /// Feeds one sensor event through every graph.
    pub fn ingest(&mut self, event: &ContextEvent, now: VirtualTime) {
        // Wavefront of (producer id, event).
        let mut wave = vec![(event.source, event.clone())];
        while let Some((producer, ev)) = wave.pop() {
            let consumer_ids: Vec<Guid> = self
                .operators
                .iter()
                .filter(|(_, op)| op.inputs.contains(&producer))
                .map(|(&id, _)| id)
                .collect();
            for id in consumer_ids {
                let op = self.operators.get_mut(&id).expect("listed");
                let out = apply_operator(&self.plan, op, &ev, now);
                if let Some(out_ev) = out {
                    op.outputs_seen += 1;
                    let stamped = ContextEvent::new(id, out_ev.topic, out_ev.payload, now);
                    for a in &self.attachments {
                        if a.root == id {
                            self.deliveries.push((a.app, stamped.clone()));
                        }
                    }
                    wave.push((id, stamped));
                }
            }
        }
    }

    /// Removes and returns deliveries for one application.
    pub fn deliveries_for(&mut self, app: Guid) -> Vec<ContextEvent> {
        let mut mine = Vec::new();
        let mut rest = Vec::new();
        for (a, e) in self.deliveries.drain(..) {
            if a == app {
                mine.push(e);
            } else {
                rest.push((a, e));
            }
        }
        self.deliveries = rest;
        mine
    }
}

fn apply_operator(
    plan: &FloorPlan,
    op: &mut OperatorInstance,
    event: &ContextEvent,
    now: VirtualTime,
) -> Option<ContextEvent> {
    match &op.node {
        SpecNode::Source(_) => None,
        SpecNode::LocationOf(subject) => {
            if event.topic != ContextType::Presence || event.subject() != Some(*subject) {
                return None;
            }
            let room = event.payload.field("to").and_then(ContextValue::as_text)?;
            let coord = plan.centroid(room).ok()?;
            Some(ContextEvent::new(
                event.source,
                ContextType::Location,
                ContextValue::record([
                    ("subject", ContextValue::Id(*subject)),
                    ("room", ContextValue::place(room)),
                    ("position", ContextValue::Coord(coord)),
                ]),
                now,
            ))
        }
        SpecNode::PathBetween(from, to) => {
            if event.topic != ContextType::Location {
                return None;
            }
            let subject = event.subject()?;
            let position = event
                .payload
                .field("position")
                .and_then(ContextValue::as_coord)?;
            op.last_location.insert(subject, position);
            let (a, b) = (*op.last_location.get(from)?, *op.last_location.get(to)?);
            let route = sci_location::Route::plan(
                plan,
                &sci_location::LocationExpr::Point(a),
                &sci_location::LocationExpr::Point(b),
            )
            .ok()?;
            Some(ContextEvent::new(
                event.source,
                ContextType::Path,
                route.to_value(),
                now,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sci_location::floorplan::capa_level10;

    fn presence(source: Guid, subject: Guid, to: &str, t: u64) -> ContextEvent {
        ContextEvent::new(
            source,
            ContextType::Presence,
            ContextValue::record([
                ("subject", ContextValue::Id(subject)),
                ("to", ContextValue::place(to)),
            ]),
            VirtualTime::from_secs(t),
        )
    }

    /// The conventional Figure 3 graph, spelled out by hand: path
    /// between two subjects over explicitly chosen door sensors — the
    /// explicitness is the point of the baseline.
    fn path_between(from: Guid, to: Guid, door_sensors: &[Guid]) -> GraphSpec {
        // node 0: path; node 1: loc(from); node 2: loc(to); 3..: sources.
        let mut nodes = vec![
            SpecNode::PathBetween(from, to),
            SpecNode::LocationOf(from),
            SpecNode::LocationOf(to),
        ];
        let source_ids: Vec<usize> = door_sensors
            .iter()
            .map(|&d| {
                nodes.push(SpecNode::Source(d));
                nodes.len() - 1
            })
            .collect();
        GraphSpec {
            nodes,
            children: vec![vec![1, 2], source_ids.clone(), source_ids]
                .into_iter()
                .chain(std::iter::repeat_with(Vec::new).take(door_sensors.len()))
                .collect(),
        }
    }

    fn doors() -> Vec<Guid> {
        (0..3).map(|i| Guid::from_u128(0x100 + i)).collect()
    }

    #[test]
    fn explicit_graph_delivers_paths() {
        let mut engine = SolarEngine::new(capa_level10());
        let (bob, john, app) = (Guid::from_u128(1), Guid::from_u128(2), Guid::from_u128(3));
        let spec = path_between(bob, john, &doors());
        engine.attach(app, &spec).unwrap();
        engine.ingest(
            &presence(doors()[0], bob, "L10.01", 1),
            VirtualTime::from_secs(1),
        );
        assert!(engine.deliveries_for(app).is_empty(), "one endpoint only");
        engine.ingest(
            &presence(doors()[1], john, "L10.02", 2),
            VirtualTime::from_secs(2),
        );
        let d = engine.deliveries_for(app);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].topic, ContextType::Path);
    }

    #[test]
    fn identical_specs_share_operators() {
        let mut engine = SolarEngine::new(capa_level10());
        let (bob, john) = (Guid::from_u128(1), Guid::from_u128(2));
        let spec = path_between(bob, john, &doors());
        engine.attach(Guid::from_u128(10), &spec).unwrap();
        let before = engine.operators.len();
        engine.attach(Guid::from_u128(11), &spec).unwrap();
        assert_eq!(engine.operators.len(), before, "no duplication");
        // A different pair shares the loc(bob) subtree only.
        let spec2 = path_between(bob, Guid::from_u128(9), &doors());
        engine.attach(Guid::from_u128(12), &spec2).unwrap();
        assert_eq!(engine.operators.len(), before + 2);
    }

    #[test]
    fn no_automatic_repair_but_respecify_recovers() {
        let mut engine = SolarEngine::new(capa_level10());
        let (bob, app) = (Guid::from_u128(1), Guid::from_u128(3));
        let ds = doors();
        // The application explicitly chose only door 0.
        let spec = GraphSpec {
            nodes: vec![SpecNode::LocationOf(bob), SpecNode::Source(ds[0])],
            children: vec![vec![1], vec![]],
        };
        engine.attach(app, &spec).unwrap();
        engine.ingest(&presence(ds[0], bob, "lobby", 1), VirtualTime::from_secs(1));
        assert_eq!(engine.deliveries_for(app).len(), 1);

        // Door 0 dies; door 1 keeps reporting — but the graph names door
        // 0 explicitly, so nothing arrives.
        engine.ingest(
            &presence(ds[1], bob, "corridor", 2),
            VirtualTime::from_secs(2),
        );
        assert!(
            engine.deliveries_for(app).is_empty(),
            "no automatic rebinding"
        );

        // Manual developer intervention: re-specify with the survivor.
        let spec2 = GraphSpec {
            nodes: vec![SpecNode::LocationOf(bob), SpecNode::Source(ds[1])],
            children: vec![vec![1], vec![]],
        };
        engine.respecify(app, &spec2).unwrap();
        engine.ingest(
            &presence(ds[1], bob, "L10.01", 3),
            VirtualTime::from_secs(3),
        );
        assert_eq!(
            engine.deliveries_for(app).len(),
            1,
            "recovered after re-spec"
        );
    }

    #[test]
    fn malformed_spec_rejected() {
        let mut engine = SolarEngine::new(capa_level10());
        let bad = GraphSpec {
            nodes: vec![SpecNode::LocationOf(Guid::from_u128(1))],
            children: vec![vec![7]],
        };
        assert!(engine.attach(Guid::from_u128(2), &bad).is_err());
    }
}
