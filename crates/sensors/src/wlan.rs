//! W-LAN base stations.
//!
//! "A user with a W-LAN equipped device could be detected leaving the
//! effective operating range of a wireless network" (paper, Section 3.4),
//! and in the CAPA story "the network base station in the lift lobby
//! detects Bob's PDA". A [`BaseStation`] covers a circular cell: people
//! crossing the boundary produce association/disassociation
//! [`ContextType::Presence`] events, and associated people produce
//! periodic [`ContextType::SignalStrength`] readings suitable for the
//! trilateration pipeline in `sci-location::convert`.

use std::collections::HashSet;

use sci_location::convert::PathLossModel;
use sci_location::Circle;
use sci_types::{ContextEvent, ContextType, ContextValue, Coord, EventSeq, Guid, VirtualTime};

/// A simulated wireless base station.
#[derive(Clone, Debug)]
pub struct BaseStation {
    id: Guid,
    name: String,
    cell: Circle,
    associated: HashSet<Guid>,
    seq: EventSeq,
}

impl BaseStation {
    /// Creates a base station named `name` covering `cell`.
    pub fn new(id: Guid, name: impl Into<String>, cell: Circle) -> Self {
        BaseStation {
            id,
            name: name.into(),
            cell,
            associated: HashSet::new(),
            seq: EventSeq::FIRST,
        }
    }

    /// The station's entity GUID.
    pub fn id(&self) -> Guid {
        self.id
    }

    /// The station's name (e.g. `"bs-lobby"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The coverage cell.
    pub fn cell(&self) -> Circle {
        self.cell
    }

    /// Where the station is mounted.
    pub fn position(&self) -> Coord {
        self.cell.center
    }

    /// Entities currently associated.
    pub fn associated(&self) -> impl Iterator<Item = Guid> + '_ {
        self.associated.iter().copied()
    }

    fn next_seq(&mut self) -> EventSeq {
        let s = self.seq;
        self.seq = s.next();
        s
    }

    /// Observes one device at its current position, emitting an
    /// association or disassociation event on boundary crossings and a
    /// signal-strength reading while inside the cell.
    pub fn observe(&mut self, device: Guid, at: Coord, now: VirtualTime) -> Vec<ContextEvent> {
        let inside = self.cell.contains(at);
        let was = self.associated.contains(&device);
        let mut events = Vec::new();
        match (was, inside) {
            (false, true) => {
                self.associated.insert(device);
                let seq = self.next_seq();
                events.push(
                    ContextEvent::new(
                        self.id,
                        ContextType::Presence,
                        ContextValue::record([
                            ("subject", ContextValue::Id(device)),
                            ("to", ContextValue::place(self.name.clone())),
                            ("kind", ContextValue::text("associate")),
                        ]),
                        now,
                    )
                    .with_seq(seq),
                );
            }
            (true, false) => {
                self.associated.remove(&device);
                let seq = self.next_seq();
                events.push(
                    ContextEvent::new(
                        self.id,
                        ContextType::Presence,
                        ContextValue::record([
                            ("subject", ContextValue::Id(device)),
                            ("from", ContextValue::place(self.name.clone())),
                            ("kind", ContextValue::text("disassociate")),
                        ]),
                        now,
                    )
                    .with_seq(seq),
                );
            }
            _ => {}
        }
        if inside {
            let rssi = PathLossModel::INDOOR.rssi_at(self.position().distance(at));
            let seq = self.next_seq();
            events.push(
                ContextEvent::new(
                    self.id,
                    ContextType::SignalStrength,
                    ContextValue::record([
                        ("subject", ContextValue::Id(device)),
                        ("rssi", ContextValue::Float(rssi)),
                        ("station", ContextValue::text(self.name.clone())),
                        ("x", ContextValue::Float(self.position().x)),
                        ("y", ContextValue::Float(self.position().y)),
                    ]),
                    now,
                )
                .with_seq(seq),
            );
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn station() -> BaseStation {
        BaseStation::new(
            Guid::from_u128(0xba5e),
            "bs-lobby",
            Circle::new(Coord::new(0.0, 0.0), 10.0),
        )
    }

    #[test]
    fn association_lifecycle() {
        let mut bs = station();
        let pda = Guid::from_u128(1);
        // Outside: nothing.
        assert!(bs
            .observe(pda, Coord::new(50.0, 0.0), VirtualTime::ZERO)
            .is_empty());
        // Entering: associate + signal reading.
        let events = bs.observe(pda, Coord::new(3.0, 0.0), VirtualTime::from_secs(1));
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].topic, ContextType::Presence);
        assert_eq!(
            events[0]
                .payload
                .field("kind")
                .and_then(|v| v.as_text().map(str::to_owned)),
            Some("associate".to_owned())
        );
        assert_eq!(events[1].topic, ContextType::SignalStrength);
        assert!(bs.associated().any(|d| d == pda));
        // Staying: signal reading only.
        let events = bs.observe(pda, Coord::new(4.0, 0.0), VirtualTime::from_secs(2));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].topic, ContextType::SignalStrength);
        // Leaving: disassociate.
        let events = bs.observe(pda, Coord::new(30.0, 0.0), VirtualTime::from_secs(3));
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0]
                .payload
                .field("kind")
                .and_then(|v| v.as_text().map(str::to_owned)),
            Some("disassociate".to_owned())
        );
        assert!(!bs.associated().any(|d| d == pda));
    }

    #[test]
    fn rssi_reflects_distance() {
        let mut bs = station();
        let pda = Guid::from_u128(1);
        let near = bs.observe(pda, Coord::new(1.0, 0.0), VirtualTime::ZERO);
        let near_rssi = near
            .iter()
            .find(|e| e.topic == ContextType::SignalStrength)
            .and_then(|e| e.payload.field("rssi"))
            .and_then(ContextValue::as_float)
            .unwrap();
        let far = bs.observe(pda, Coord::new(9.0, 0.0), VirtualTime::from_secs(1));
        let far_rssi = far
            .iter()
            .find(|e| e.topic == ContextType::SignalStrength)
            .and_then(|e| e.payload.field("rssi"))
            .and_then(ContextValue::as_float)
            .unwrap();
        assert!(near_rssi > far_rssi);
    }
}
