//! Integration test: the Figure 5 discovery sequence and the model of
//! mobility (Section 3.4) — entities arriving into and departing from a
//! range, detected by its sensors.

use sci::prelude::*;
use sci::sensors::mobility::{Leg, MovementPlan};

#[test]
fn figure5_registration_handshake() {
    let mut ids = GuidGenerator::seeded(55);
    let mut cs = ContextServer::new(ids.next_guid(), "level-ten", capa_level10());
    let mut rs = RangeService::deploy("level-ten", cs.id());

    struct Sensor {
        id: Guid,
    }
    impl RegisterInterface for Sensor {
        fn profile(&self) -> Profile {
            Profile::builder(self.id, EntityKind::Device, "sensor")
                .output(PortSpec::new("presence", ContextType::Presence))
                .build()
        }
    }
    impl ServiceInterface for Sensor {
        fn invoke(
            &mut self,
            _: &str,
            _: &[ContextValue],
            _: VirtualTime,
        ) -> SciResult<ContextValue> {
            Err(SciError::BadInvocation("no operations".into()))
        }
    }

    // 1. RS announces the range; 2. the CE registers; 3. it gets the
    // mediator endpoint and can publish.
    let sensor = Sensor {
        id: ids.next_guid(),
    };
    let mut handle =
        sci::core::entity_rt::start_ce(&sensor, &mut rs, &mut cs, VirtualTime::ZERO).unwrap();
    assert_eq!(handle.range_info().range, "level-ten");
    assert!(cs.registrar().is_registered(sensor.id));
    assert_eq!(rs.announcements(), 1);

    handle
        .publish(
            &mut cs,
            ContextType::Presence,
            ContextValue::record([("subject", ContextValue::Id(ids.next_guid()))]),
            VirtualTime::from_secs(1),
        )
        .unwrap();
    assert_eq!(cs.snapshot().counter("bus.publish.count"), 1);

    // Departure cleans everything up.
    cs.deregister(sensor.id, VirtualTime::from_secs(2)).unwrap();
    assert!(!cs.registrar().is_registered(sensor.id));
    assert!(cs.profiles().get(sensor.id).is_none());
}

#[test]
fn mobility_model_arrival_and_departure() {
    // A W-LAN cell covers the lobby. Walking in associates (arrival →
    // auto-registration); walking out of coverage disassociates
    // (departure → deregistration).
    let mut ids = GuidGenerator::seeded(56);
    let plan = capa_level10();
    let mut world = World::new(plan.clone());
    world.auto_door_sensors(&mut ids);
    world.add_base_station(BaseStation::new(
        ids.next_guid(),
        "bs-lobby",
        sci::location::Circle::new(Coord::new(4.0, 1.0), 4.0),
    ));

    let mut cs = ContextServer::new(ids.next_guid(), "level-ten", plan);
    let visitor = ids.next_guid();
    world
        .spawn_person(
            SimPerson::new(visitor, "Visitor", Coord::new(4.0, 1.0)).with_plan(
                MovementPlan::scripted([Leg::new("bay", VirtualDuration::from_secs(600))]),
            ),
        )
        .unwrap();

    let dt = VirtualDuration::from_secs(2);
    let mut now = VirtualTime::ZERO;
    let mut was_registered = false;
    let mut departed = false;
    for _ in 0..60 {
        now += dt;
        for event in world.tick(now, dt).unwrap() {
            cs.ingest(&event, now).unwrap();
        }
        if cs.registrar().is_registered(visitor) {
            was_registered = true;
        } else if was_registered {
            departed = true;
        }
    }
    assert!(was_registered, "association auto-registered the visitor");
    assert!(departed, "leaving the cell deregistered them");
}

#[test]
fn registration_throughput_scales() {
    // E2's correctness side: thousands of entities register and appear
    // in the registrar and profile index.
    let mut ids = GuidGenerator::seeded(57);
    let mut cs = ContextServer::new(ids.next_guid(), "hall", capa_level10());
    let n = 2_000;
    for i in 0..n {
        let id = ids.next_guid();
        cs.register(
            Profile::builder(id, EntityKind::Device, format!("sensor-{i}"))
                .output(PortSpec::new("presence", ContextType::Presence))
                .build(),
            VirtualTime::from_micros(i),
        )
        .unwrap();
    }
    assert_eq!(cs.registrar().len(), n as usize);
    assert_eq!(
        cs.profiles().providers_of(&ContextType::Presence).len(),
        n as usize
    );
}
