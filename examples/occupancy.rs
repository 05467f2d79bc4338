//! A building occupancy dashboard: twenty random-waypoint walkers, door
//! sensors everywhere, and one subscription to `Occupancy` context —
//! one range run as a federation of one: `register_world` and
//! `install_standard_logic` configure it, and each step ticks the
//! world, ingests its events and fires timers.
//!
//! Run with: `cargo run --example occupancy`

use std::collections::BTreeMap;

use sci::prelude::*;
use sci::sensors::workload::{office_floor, populate, Population};

fn main() -> SciResult<()> {
    let mut ids = GuidGenerator::seeded(2026);

    // A corridor with 8 offices, 20 seeded walkers.
    let config = Population {
        people: 20,
        printers: 0,
        thermometers: 0,
        dwell: VirtualDuration::from_secs(20),
        seed: 9,
    };
    let (mut world, people) = populate(office_floor(8), &config, &mut ids)?;
    let mut fed = Federation::new(2026);
    fed.add_range(ContextServer::new(
        ids.next_guid(),
        "floor",
        world.plan().clone(),
    ))?;
    register_world(&mut fed, "floor", &world, VirtualTime::ZERO)?;
    install_standard_logic(&mut fed, "floor", &mut ids, VirtualTime::ZERO)?;

    // The dashboard subscribes to occupancy context.
    let dashboard = ids.next_guid();
    let q = Query::builder(ids.next_guid(), dashboard)
        .info(ContextType::Occupancy)
        .mode(Mode::Subscribe)
        .build();
    fed.submit_from("floor", &q, VirtualTime::ZERO)?;

    // Run twenty simulated minutes.
    let dt = VirtualDuration::from_secs(2);
    let mut now = VirtualTime::ZERO;
    let mut latest: BTreeMap<String, i64> = BTreeMap::new();
    let mut updates = 0usize;
    for _ in 0..600 {
        now += dt;
        let events = world.tick(now, dt)?;
        fed.ingest_batch_at("floor", &events, now)?;
        // Fires timers and fails any source silent past its window.
        fed.poll_timers(now)?;
        for d in fed.deliveries_for(dashboard) {
            let room = d
                .event
                .payload
                .field("room")
                .and_then(|v| v.as_text().map(str::to_owned))
                .unwrap_or_default();
            let count = d
                .event
                .payload
                .field("count")
                .and_then(ContextValue::as_int)
                .unwrap_or(0);
            latest.insert(room, count);
            updates += 1;
        }
    }

    println!("occupancy after {now} of simulated movement:");
    let mut sensed_total = 0;
    for (room, count) in &latest {
        println!("  {room:<10} {count:>3} {}", "#".repeat(*count as usize));
        sensed_total += count;
    }
    println!(
        "({updates} occupancy updates; {sensed_total} of {} walkers currently in sensed rooms)",
        people.len()
    );
    assert!(updates > 0, "the crowd produced occupancy changes");
    assert!(
        sensed_total >= 0 && sensed_total <= people.len() as i64,
        "counts stay within the population"
    );
    Ok(())
}
