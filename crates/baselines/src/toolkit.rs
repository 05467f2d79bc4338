//! A Context-Toolkit-style pipeline: widgets → interpreters →
//! aggregators, wired once at design time.
//!
//! The three component classes follow Dey et al.'s architecture as the
//! paper summarises it: *widgets* wrap sensors and mediate their events,
//! *interpreters* transform low-level context into higher-level context,
//! *aggregators* collect all context about one entity. The crucial
//! property reproduced here is the paper's critique: the wiring is
//! **fixed after construction** — there is no registry to consult at run
//! time, so environmental change (a dead sensor, a new sensor) is
//! invisible to a built pipeline.

use sci_location::floorplan::FloorPlan;
use sci_types::{ContextEvent, ContextType, ContextValue, Guid, VirtualTime};

/// A widget: the design-time proxy for one concrete sensor.
#[derive(Clone, Debug)]
pub struct Widget {
    /// The sensor this widget wraps (event source id).
    pub sensor: Guid,
    /// The context type the widget mediates.
    pub topic: ContextType,
    events_seen: u64,
}

impl Widget {
    /// Wraps a sensor.
    pub fn new(sensor: Guid, topic: ContextType) -> Self {
        Widget {
            sensor,
            topic,
            events_seen: 0,
        }
    }

    /// Returns `true` if this widget mediates the event (its sensor, its
    /// type), counting it.
    fn mediates(&mut self, event: &ContextEvent) -> bool {
        let hit = event.source == self.sensor && event.topic == self.topic;
        if hit {
            self.events_seen += 1;
        }
        hit
    }
}

/// The transformation type an interpreter applies.
pub type Transform = Box<dyn FnMut(&ContextEvent) -> Option<(ContextType, ContextValue)> + Send>;

/// An interpreter: transforms one context event into a higher-level one.
pub struct Interpreter {
    transform: Transform,
}

impl std::fmt::Debug for Interpreter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Interpreter")
    }
}

impl Interpreter {
    /// Creates an interpreter from a transformation.
    pub fn new(
        transform: impl FnMut(&ContextEvent) -> Option<(ContextType, ContextValue)> + Send + 'static,
    ) -> Self {
        Interpreter {
            transform: Box::new(transform),
        }
    }

    /// The standard presence→location interpreter over a floor plan.
    pub fn presence_to_location(plan: FloorPlan) -> Self {
        Interpreter::new(move |event| {
            let subject = event.subject()?;
            let room = event.payload.field("to").and_then(ContextValue::as_text)?;
            let coord = plan.centroid(room).ok()?;
            Some((
                ContextType::Location,
                ContextValue::record([
                    ("subject", ContextValue::Id(subject)),
                    ("room", ContextValue::place(room)),
                    ("position", ContextValue::Coord(coord)),
                ]),
            ))
        })
    }

    /// Applies the transformation.
    fn interpret(&mut self, event: &ContextEvent) -> Option<(ContextType, ContextValue)> {
        (self.transform)(event)
    }
}

/// An aggregator: gathers all derived context about one entity.
#[derive(Clone, Debug, Default)]
pub struct Aggregator {
    subject: Option<Guid>,
    store: Vec<ContextEvent>,
}

impl Aggregator {
    /// Aggregates context about one entity.
    fn for_entity(subject: Guid) -> Self {
        Aggregator {
            subject: Some(subject),
            store: Vec::new(),
        }
    }

    /// Offers an event; it is stored if it concerns the aggregated
    /// entity.
    fn offer(&mut self, event: ContextEvent) -> bool {
        let relevant = match self.subject {
            Some(s) => event.subject() == Some(s),
            None => true,
        };
        if relevant {
            self.store.push(event);
        }
        relevant
    }

    /// All gathered context, in arrival order.
    pub fn context(&self) -> &[ContextEvent] {
        &self.store
    }

    /// The most recent piece of context of a given type.
    pub fn latest(&self, ty: &ContextType) -> Option<&ContextEvent> {
        self.store.iter().rev().find(|e| e.topic == *ty)
    }
}

/// A fully wired widgets→interpreter→aggregator pipeline.
///
/// Wiring happens in [`ToolkitPipeline::wire`] and never changes — the
/// property experiment E6 exploits: kill the wrapped sensor and the
/// pipeline starves, no matter how many equivalent sensors exist.
#[derive(Debug)]
pub struct ToolkitPipeline {
    widgets: Vec<Widget>,
    interpreter: Interpreter,
    aggregator: Aggregator,
    deliveries: Vec<ContextEvent>,
}

impl ToolkitPipeline {
    /// Wires the pipeline at design time: the given sensors (and only
    /// they) feed the interpreter; interpreted context about `subject`
    /// lands in the aggregator and the delivery log.
    pub fn wire(
        sensors: impl IntoIterator<Item = Guid>,
        topic: ContextType,
        interpreter: Interpreter,
        subject: Guid,
    ) -> Self {
        ToolkitPipeline {
            widgets: sensors
                .into_iter()
                .map(|s| Widget::new(s, topic.clone()))
                .collect(),
            interpreter,
            aggregator: Aggregator::for_entity(subject),
            deliveries: Vec::new(),
        }
    }

    /// Feeds a raw sensor event through the fixed wiring.
    pub fn ingest(&mut self, event: &ContextEvent, now: VirtualTime) {
        let mediated = self.widgets.iter_mut().any(|w| w.mediates(event));
        if !mediated {
            return;
        }
        if let Some((ty, payload)) = self.interpreter.interpret(event) {
            let derived = ContextEvent::new(event.source, ty, payload, now).with_seq(event.seq);
            if self.aggregator.offer(derived.clone()) {
                self.deliveries.push(derived);
            }
        }
    }

    /// Context delivered to the application so far.
    pub fn deliveries(&self) -> &[ContextEvent] {
        &self.deliveries
    }

    /// The aggregator (inspection).
    pub fn aggregator(&self) -> &Aggregator {
        &self.aggregator
    }

    /// The wired widgets (inspection).
    pub fn widgets(&self) -> &[Widget] {
        &self.widgets
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

    #[test]
    fn pipeline_delivers_interpreted_context() {
        let plan = capa_level10();
        let bob = Guid::from_u128(1);
        let sensor = Guid::from_u128(10);
        let mut p = ToolkitPipeline::wire(
            [sensor],
            ContextType::Presence,
            Interpreter::presence_to_location(plan),
            bob,
        );
        p.ingest(
            &presence(sensor, bob, "L10.01", 1),
            VirtualTime::from_secs(1),
        );
        assert_eq!(p.deliveries().len(), 1);
        assert_eq!(p.deliveries()[0].topic, ContextType::Location);
        assert_eq!(
            p.aggregator()
                .latest(&ContextType::Location)
                .unwrap()
                .subject(),
            Some(bob)
        );
    }

    #[test]
    fn unwired_sensors_are_invisible() {
        let plan = capa_level10();
        let bob = Guid::from_u128(1);
        let wired = Guid::from_u128(10);
        let unwired = Guid::from_u128(11);
        let mut p = ToolkitPipeline::wire(
            [wired],
            ContextType::Presence,
            Interpreter::presence_to_location(plan),
            bob,
        );
        // The design-time decision is final: an equivalent sensor added
        // to the environment later contributes nothing.
        p.ingest(
            &presence(unwired, bob, "L10.01", 1),
            VirtualTime::from_secs(1),
        );
        assert!(p.deliveries().is_empty());
        assert_eq!(p.widgets()[0].events_seen, 0);
    }

    #[test]
    fn other_subjects_filtered_by_aggregator() {
        let plan = capa_level10();
        let bob = Guid::from_u128(1);
        let eve = Guid::from_u128(2);
        let sensor = Guid::from_u128(10);
        let mut p = ToolkitPipeline::wire(
            [sensor],
            ContextType::Presence,
            Interpreter::presence_to_location(plan),
            bob,
        );
        p.ingest(
            &presence(sensor, eve, "lobby", 1),
            VirtualTime::from_secs(1),
        );
        assert!(p.deliveries().is_empty());
        p.ingest(
            &presence(sensor, bob, "lobby", 2),
            VirtualTime::from_secs(2),
        );
        assert_eq!(p.deliveries().len(), 1);
    }

    #[test]
    fn aggregator_latest_by_type() {
        let mut agg = Aggregator::for_entity(Guid::from_u128(1));
        assert!(agg.latest(&ContextType::Location).is_none());
        let ev = ContextEvent::new(
            Guid::from_u128(9),
            ContextType::Location,
            ContextValue::record([("subject", ContextValue::Id(Guid::from_u128(1)))]),
            VirtualTime::ZERO,
        );
        assert!(agg.offer(ev));
        assert!(agg.latest(&ContextType::Location).is_some());
        assert_eq!(agg.context().len(), 1);
    }
}
