//! The reference checker. The benchmark knows, for every badge read it
//! ingests, exactly which applications must receive which `Location`;
//! this module holds those expectations and settles them against what
//! the middleware delivers. A delivery that matches no outstanding
//! expectation (a duplicate, a wrong room, a wrong subject, a stranger)
//! fails; so does an expectation nobody met.

use std::collections::HashMap;

use sci_types::AppDelivery;

use crate::gen::Reading;
use crate::rig::Population;

/// Outstanding expectations and the running verdict.
#[derive(Debug, Default)]
pub struct Checker {
    /// `(app, subject, room)` → deliveries still owed.
    owed: HashMap<(usize, usize, usize), u32>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    pub fn new() -> Self {
        Checker::default()
    }

    /// `app` must receive the location `reading` produces, once.
    pub fn expect(&mut self, app: usize, reading: &Reading) {
        *self
            .owed
            .entry((app, reading.subject, reading.room))
            .or_insert(0) += 1;
        self.attempted += 1;
    }

    /// Settles one delivery made to `app` by `producer`'s range.
    pub fn observe(&mut self, app: usize, delivery: &AppDelivery, producer: &Population) {
        let met = producer
            .decode_location(delivery)
            .is_some_and(|(subject, room)| self.take((app, subject, room)));
        if !met {
            self.failed += 1;
        }
    }

    fn take(&mut self, key: (usize, usize, usize)) -> bool {
        match self.owed.get_mut(&key) {
            Some(n) if *n > 1 => {
                *n -= 1;
                true
            }
            Some(_) => {
                self.owed.remove(&key);
                true
            }
            None => false,
        }
    }

    /// An operation checked elsewhere (a churn cycle, a recovery).
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Expectations still open — zero after a closing barrier and drain.
    pub fn owed(&self) -> u64 {
        self.owed.values().map(|&n| u64::from(n)).sum()
    }

    /// `(attempted, failed)`; what is still owed counts as failed.
    pub fn verdict(&self) -> (u64, u64) {
        (self.attempted, self.failed + self.owed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{app_guid, location_query, query_guid, subject_guid};
    use sci_core::context_server::ContextServer;
    use sci_types::{ContextValue, VirtualTime};

    const APP: usize = 3;

    /// A one-range server with one unbound `Location` subscriber.
    fn rig() -> (Population, ContextServer) {
        let pop = Population::new(0);
        let mut cs = pop.server();
        cs.submit_query(
            &location_query(query_guid(1), app_guid(APP), None, None),
            VirtualTime::ZERO,
        )
        .expect("subscribes");
        (pop, cs)
    }

    fn deliveries_of(pop: &Population, cs: &mut ContextServer, r: &Reading) -> Vec<AppDelivery> {
        let now = VirtualTime::from_micros(1);
        cs.ingest(&pop.presence(r, now), now).expect("ingests");
        cs.drain_outbox()
    }

    const READ: Reading = Reading {
        door: 2,
        subject: 17,
        room: 5,
    };

    #[test]
    fn a_correct_delivery_settles_its_expectation() {
        let (pop, mut cs) = rig();
        let mut check = Checker::new();
        check.expect(APP, &READ);
        for d in deliveries_of(&pop, &mut cs, &READ) {
            check.observe(APP, &d, &pop);
        }
        assert_eq!(check.verdict(), (1, 0));
    }

    #[test]
    fn a_dropped_delivery_fails() {
        let (pop, mut cs) = rig();
        let mut check = Checker::new();
        check.expect(APP, &READ);
        drop(deliveries_of(&pop, &mut cs, &READ));
        assert_eq!(check.verdict(), (1, 1));
    }

    #[test]
    fn a_duplicated_delivery_fails() {
        let (pop, mut cs) = rig();
        let mut check = Checker::new();
        check.expect(APP, &READ);
        for d in deliveries_of(&pop, &mut cs, &READ) {
            check.observe(APP, &d, &pop);
            check.observe(APP, &d, &pop);
        }
        assert_eq!(check.verdict(), (1, 1));
    }

    #[test]
    fn a_wrong_room_delivery_fails_and_leaves_the_expectation_owed() {
        let (pop, mut cs) = rig();
        let mut check = Checker::new();
        check.expect(APP, &READ);
        let elsewhere = Reading { room: 6, ..READ };
        for d in deliveries_of(&pop, &mut cs, &elsewhere) {
            check.observe(APP, &d, &pop);
        }
        // One mismatched delivery plus one expectation nobody met.
        assert_eq!(check.verdict(), (1, 2));
    }

    #[test]
    fn a_position_that_is_not_the_rooms_centroid_fails() {
        let (pop, mut cs) = rig();
        let mut check = Checker::new();
        check.expect(APP, &READ);
        for mut d in deliveries_of(&pop, &mut cs, &READ) {
            // Right subject, right room name, another room's centroid.
            d.event.payload = ContextValue::record([
                ("subject", ContextValue::Id(subject_guid(READ.subject))),
                ("room", ContextValue::place(pop.rooms[READ.room].0.as_str())),
                ("position", ContextValue::Coord(pop.rooms[READ.room + 1].1)),
            ])
            .into();
            check.observe(APP, &d, &pop);
        }
        assert_eq!(check.verdict(), (1, 2));
    }
}
