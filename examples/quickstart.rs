//! Quickstart: one range, one sensor, one application.
//!
//! Demonstrates the minimal SCI loop: deploy a Context Server, register
//! a Context Entity through the Figure 5 discovery sequence, submit a
//! Figure 6 query, and receive context events.
//!
//! Run with: `cargo run --example quickstart`

use sci::prelude::*;

struct Thermometer {
    id: Guid,
}

impl RegisterInterface for Thermometer {
    fn profile(&self) -> Profile {
        Profile::builder(self.id, EntityKind::Device, "thermo-L10.01")
            .output(PortSpec::new("t", ContextType::Temperature))
            .attribute("unit", ContextValue::text("celsius"))
            .attribute("room", ContextValue::place("L10.01"))
            .build()
    }
}

impl ServiceInterface for Thermometer {
    fn invoke(
        &mut self,
        op: &str,
        _args: &[ContextValue],
        _now: VirtualTime,
    ) -> SciResult<ContextValue> {
        Err(SciError::BadInvocation(format!(
            "thermometer has no operation `{op}`"
        )))
    }
}

struct Dashboard {
    id: Guid,
    readings: Vec<f64>,
}

impl RegisterInterface for Dashboard {
    fn profile(&self) -> Profile {
        Profile::builder(self.id, EntityKind::Software, "dashboard").build()
    }
}

impl ConsumeInterface for Dashboard {
    fn on_context(&mut self, _query: Guid, event: &ContextEvent) {
        if let Some(t) = event
            .payload
            .field("celsius")
            .and_then(ContextValue::as_float)
        {
            println!("  dashboard <- {:.2} degC at {}", t, event.timestamp);
            self.readings.push(t);
        }
    }
}

fn main() -> SciResult<()> {
    let mut ids = GuidGenerator::seeded(2003);

    // 1. A Context Server governs the range; a Range Service announces it.
    let mut cs = ContextServer::new(ids.next_guid(), "level-ten", capa_level10());
    let mut rs = RangeService::deploy("level-ten", cs.id());
    println!("range `{}` up (CS {})", cs.name(), cs.id());

    // 2. The Figure 5 sequence: components announce, register, connect.
    let thermo = Thermometer {
        id: ids.next_guid(),
    };
    let mut ce = start_ce(&thermo, &mut rs, &mut cs, VirtualTime::ZERO)?;
    let mut dash = Dashboard {
        id: ids.next_guid(),
        readings: Vec::new(),
    };
    let caa = start_caa(&dash, &mut rs, &mut cs, VirtualTime::ZERO)?;
    println!("registered {} entities", cs.registrar().len());

    // 3. A Figure 6 query: subscribe to celsius temperature.
    let query = Query::builder(ids.next_guid(), caa.id())
        .info_matching(
            ContextType::Temperature,
            vec![Predicate::eq("unit", ContextValue::text("celsius"))],
        )
        .mode(Mode::Subscribe)
        .build();
    println!("query document:\n{}", sci::query::codec::to_xml(&query));
    caa.submit(&mut cs, &query, VirtualTime::ZERO)?;

    // 4. The sensor publishes; the mediator routes; the app polls.
    let mut sim_sensor = TemperatureSensor::new(ce.id(), "L10.01");
    for step in 0..5u64 {
        let now = VirtualTime::from_secs(step * 10);
        for event in sim_sensor.tick(now) {
            ce.publish(&mut cs, event.topic.clone(), event.payload.clone(), now)?;
        }
        caa.poll(&mut cs, &mut dash);
    }

    let snap = cs.snapshot();
    println!(
        "received {} readings; mediator: published={} delivered={}",
        dash.readings.len(),
        snap.counter("bus.publish.count"),
        snap.counter("bus.deliver.count")
    );
    assert!(!dash.readings.is_empty());
    Ok(())
}
