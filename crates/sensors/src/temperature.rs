//! Ambient temperature sensors.
//!
//! The paper's query-model example asks for "temperature in degrees
//! Celsius"; a [`TemperatureSensor`] provides it. Readings follow a
//! seeded bounded random walk and are emitted at a fixed period, so a
//! sweep over sensor counts produces a steady, reproducible background
//! event load for the benchmarks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sci_types::{
    ContextEvent, ContextType, ContextValue, EventSeq, Guid, VirtualDuration, VirtualTime,
};

/// Time between two readings of every sensor.
const PERIOD: VirtualDuration = VirtualDuration::from_secs(10);

/// A simulated thermometer in one room.
#[derive(Clone, Debug)]
pub struct TemperatureSensor {
    id: Guid,
    room: String,
    celsius: f64,
    next_due: VirtualTime,
    rng: StdRng,
    seq: EventSeq,
}

impl TemperatureSensor {
    /// Creates a sensor reading ~21 °C every `PERIOD` (10 s), seeded from its GUID.
    pub fn new(id: Guid, room: impl Into<String>) -> Self {
        TemperatureSensor {
            id,
            room: room.into(),
            celsius: 21.0,
            next_due: VirtualTime::ZERO,
            rng: StdRng::seed_from_u64(id.as_u128() as u64),
            seq: EventSeq::FIRST,
        }
    }

    /// The sensor's entity GUID.
    pub fn id(&self) -> Guid {
        self.id
    }

    /// The room the sensor is mounted in.
    pub fn room(&self) -> &str {
        &self.room
    }

    /// The latest reading.
    pub fn reading(&self) -> f64 {
        self.celsius
    }

    /// Advances to `now`, emitting one event per elapsed period.
    pub fn tick(&mut self, now: VirtualTime) -> Vec<ContextEvent> {
        let mut events = Vec::new();
        while self.next_due <= now {
            // Bounded random walk: ±0.2 °C, clamped to a sane band.
            let delta: f64 = self.rng.gen_range(-0.2..0.2);
            self.celsius = (self.celsius + delta).clamp(10.0, 35.0);
            let seq = self.seq;
            self.seq = seq.next();
            events.push(
                ContextEvent::new(
                    self.id,
                    ContextType::Temperature,
                    ContextValue::record([
                        ("celsius", ContextValue::Float(self.celsius)),
                        ("room", ContextValue::place(self.room.clone())),
                        ("unit", ContextValue::text("celsius")),
                    ]),
                    self.next_due,
                )
                .with_seq(seq),
            );
            self.next_due = self.next_due.saturating_add(PERIOD);
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_once_per_period() {
        let mut s = TemperatureSensor::new(Guid::from_u128(7), "L10.01");
        let first = s.tick(VirtualTime::from_secs(35));
        assert_eq!(first.len(), 4, "t=0,10,20,30");
        let second = s.tick(VirtualTime::from_secs(35));
        assert!(second.is_empty(), "no double emission");
        let third = s.tick(VirtualTime::from_secs(40));
        assert_eq!(third.len(), 1);
    }

    #[test]
    fn readings_stay_in_band_and_are_seeded() {
        let run = |raw: u128| {
            let mut s = TemperatureSensor::new(Guid::from_u128(raw), "lab");
            s.tick(VirtualTime::from_secs(10_000))
                .iter()
                .map(|e| {
                    e.payload
                        .field("celsius")
                        .and_then(ContextValue::as_float)
                        .unwrap()
                })
                .collect::<Vec<f64>>()
        };
        let a = run(1);
        let b = run(1);
        assert_eq!(a, b, "same guid, same walk");
        assert!(a.iter().all(|&t| (10.0..=35.0).contains(&t)));
        let c = run(2);
        assert_ne!(a, c);
    }

    #[test]
    fn events_carry_unit_attribute() {
        let mut s = TemperatureSensor::new(Guid::from_u128(3), "roof");
        let ev = &s.tick(VirtualTime::ZERO)[0];
        assert_eq!(
            ev.payload
                .field("unit")
                .and_then(|v| v.as_text().map(str::to_owned)),
            Some("celsius".to_owned())
        );
        assert_eq!(ev.topic, ContextType::Temperature);
    }
}
