//! Integration test: end-to-end determinism and delivery-order
//! guarantees — the property that makes every experiment in this
//! repository exactly reproducible.

mod support;

use std::collections::HashMap;

use sci::prelude::*;
use support::deployment::{run_deployment, run_sequences, Driver};

#[test]
fn identical_seeds_produce_identical_delivery_logs() {
    let (a, na) = run_deployment(77, Driver::Serial);
    let (b, nb) = run_deployment(77, Driver::Serial);
    assert_eq!(na, nb);
    assert_eq!(a, b, "full middleware stack is deterministic");
    assert!(na > 10, "the scenario actually produced traffic ({na})");

    let (c, _) = run_deployment(78, Driver::Serial);
    assert_ne!(a, c, "different seeds genuinely differ");

    let (p, _) = run_deployment(77, Driver::Parallel);
    assert_eq!(
        a, p,
        "the threaded driver delivers what the serial one does"
    );
}

#[test]
fn per_source_sequence_numbers_are_monotone_at_consumers() {
    let deliveries = run_sequences(99, Driver::Serial);
    assert!(!deliveries.is_empty());
    let mut last_seq: HashMap<Guid, u64> = HashMap::new();
    let mut last_time: HashMap<Guid, VirtualTime> = HashMap::new();
    for d in &deliveries {
        if let Some(&prev) = last_seq.get(&d.event.source) {
            assert!(
                d.event.seq.0 > prev,
                "per-source sequence must strictly increase"
            );
        }
        if let Some(&prev) = last_time.get(&d.event.source) {
            assert!(d.event.timestamp >= prev, "timestamps never regress");
        }
        last_seq.insert(d.event.source, d.event.seq.0);
        last_time.insert(d.event.source, d.event.timestamp);
    }
}
