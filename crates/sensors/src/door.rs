//! Door-mounted ID-badge sensors.
//!
//! "The doorSensor CEs produce events indicating when an object (equipped
//! with ID tag) passes through them" (paper, Section 3.2). A
//! [`DoorSensor`] watches one named door of the floor plan and turns a
//! badge-carrying person's room transition through that door into a
//! [`ContextType::Presence`] event whose payload records the subject and
//! both sides of the crossing.

use sci_types::{ContextEvent, ContextType, ContextValue, EventSeq, Guid, VirtualTime};

use crate::mobility::RoomTransition;

/// A simulated badge reader on one door.
#[derive(Clone, Debug)]
pub struct DoorSensor {
    id: Guid,
    door: String,
    /// The two rooms the door joins.
    sides: (String, String),
    seq: EventSeq,
}

impl DoorSensor {
    /// Creates a sensor on the door joining `a` and `b`.
    pub fn new(
        id: Guid,
        door: impl Into<String>,
        a: impl Into<String>,
        b: impl Into<String>,
    ) -> Self {
        DoorSensor {
            id,
            door: door.into(),
            sides: (a.into(), b.into()),
            seq: EventSeq::FIRST,
        }
    }

    /// The sensor's entity GUID.
    pub fn id(&self) -> Guid {
        self.id
    }

    /// The door this sensor watches.
    pub fn door(&self) -> &str {
        &self.door
    }

    /// The rooms the door joins.
    pub fn sides(&self) -> (&str, &str) {
        (&self.sides.0, &self.sides.1)
    }

    /// Returns `true` if this sensor's door is the passage used by the
    /// transition.
    pub fn covers(&self, t: &RoomTransition) -> bool {
        (t.from == self.sides.0 && t.to == self.sides.1)
            || (t.from == self.sides.1 && t.to == self.sides.0)
    }

    /// Observes a transition, producing a presence event. `badged`
    /// reflects whether the person wears an ID tag — unbadged people are
    /// invisible to door sensors.
    pub fn observe(
        &mut self,
        t: &RoomTransition,
        badged: bool,
        now: VirtualTime,
    ) -> Option<ContextEvent> {
        if !badged || !self.covers(t) {
            return None;
        }
        let seq = self.seq;
        self.seq = seq.next();
        Some(
            ContextEvent::new(
                self.id,
                ContextType::Presence,
                ContextValue::record([
                    ("subject", ContextValue::Id(t.person)),
                    ("from", ContextValue::place(t.from.clone())),
                    ("to", ContextValue::place(t.to.clone())),
                    ("door", ContextValue::text(self.door.clone())),
                ]),
                now,
            )
            .with_seq(seq),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transition(person: u128, from: &str, to: &str) -> RoomTransition {
        RoomTransition {
            person: Guid::from_u128(person),
            from: from.into(),
            to: to.into(),
        }
    }

    fn sensor() -> DoorSensor {
        DoorSensor::new(Guid::from_u128(0xd00d), "door-L10.01", "corridor", "L10.01")
    }

    #[test]
    fn observes_crossings_in_both_directions() {
        let mut s = sensor();
        let enter = transition(1, "corridor", "L10.01");
        let leave = transition(1, "L10.01", "corridor");
        let e1 = s.observe(&enter, true, VirtualTime::ZERO).unwrap();
        let e2 = s.observe(&leave, true, VirtualTime::from_secs(5)).unwrap();
        assert_eq!(e1.topic, ContextType::Presence);
        assert_eq!(e1.subject(), Some(Guid::from_u128(1)));
        assert_eq!(
            e1.payload
                .field("to")
                .and_then(|v| v.as_text().map(str::to_owned)),
            Some("L10.01".to_owned())
        );
        assert_eq!(e2.seq, e1.seq.next(), "sequence numbers advance");
    }

    #[test]
    fn ignores_other_doors_and_unbadged_people() {
        let mut s = sensor();
        let other = transition(1, "corridor", "L10.02");
        assert!(s.observe(&other, true, VirtualTime::ZERO).is_none());
        let mine = transition(1, "corridor", "L10.01");
        assert!(s.observe(&mine, false, VirtualTime::ZERO).is_none());
    }
}
