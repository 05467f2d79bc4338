//! Admission by reuse: a query whose need a live configuration already
//! answers attaches to it without planning — and is then exactly what
//! planning it fresh would have made.
//!
//! The oracle runs every operation sequence twice. The *fresh* twin
//! issues `SetPlanVerification(true)` before every submit, which moves
//! the range's plan generation on, so every admission there is planned,
//! verified and instantiated; the other run attaches wherever it can.
//! After every submit the two must agree on the answer, the new
//! configuration's instances and root producers and the sources that
//! feed it; after every operation, on each operation's outcome and on
//! every instance's refcount; at the end, on every delivery queued.
//! The registry is exercised through everything that can change a fresh
//! plan: sources arriving, leaving, failing and returning (the last
//! door too), derived CEs leaving, failing and returning, a derived
//! alternative (`badgeLocationCE`, preferred by name), a `Location`
//! source, a source that satisfies a need a derived CE answered
//! (`fahrenheitCE`), a declared equivalence and printer refills; some
//! queries are one-time, and some ranges have reuse off, where nothing
//! may attach.
//!
//! The fresh twin's live wiring must also pass the range's own audit
//! after every operation.
//!
//! A scripted test pins the counts on the shape `control_churn` runs:
//! standing subject-bound subscriptions, and submit/cancel cycles on
//! their subjects with a door leaving and rejoining every tenth cycle.
//!
//! 256 cases in the PR gate; `PROPTEST_CASES` overrides.

use proptest::prelude::*;
use sci::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    /// `copies` equal submits in a row, from consecutive apps.
    SubmitLocation {
        subject: u8,
        app: u8,
        once: bool,
        copies: u8,
    },
    SubmitPath {
        from: u8,
        to: u8,
        app: u8,
        copies: u8,
    },
    SubmitTemperature {
        celsius: bool,
        app: u8,
        copies: u8,
    },
    SubmitPrinter {
        app: u8,
    },
    Cancel {
        which: u8,
    },
    FailSource {
        which: u8,
    },
    SourceLeaves {
        which: u8,
    },
    SourceReturns {
        which: u8,
    },
    FailDerived {
        which: u8,
    },
    DerivedLeaves {
        which: u8,
    },
    DerivedReturns {
        which: u8,
    },
    Ingest {
        door: u8,
        subject: u8,
        room: u8,
    },
    PrinterReports {
        printer: u8,
        paper: bool,
    },
    RegisterDoor,
    RegisterScanner,
    RegisterThermometer {
        celsius: bool,
    },
    RegisterLocationSource,
    DeclareEquivalence,
    AppDeparts {
        app: u8,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let location = || {
        (0u8..3, any::<u8>(), any::<bool>(), 1u8..4).prop_map(|(subject, app, once, copies)| {
            Op::SubmitLocation {
                subject,
                app,
                once,
                copies,
            }
        })
    };
    let path = || {
        (0u8..2, 0u8..2, any::<u8>(), 1u8..4).prop_map(|(from, to, app, copies)| Op::SubmitPath {
            from,
            to,
            app,
            copies,
        })
    };
    // Submits of a few needs weigh most, so equal needs meet often at
    // one generation.
    prop_oneof![
        location(),
        location(),
        location(),
        path(),
        path(),
        (any::<bool>(), any::<u8>(), 1u8..3).prop_map(|(celsius, app, copies)| {
            Op::SubmitTemperature {
                celsius,
                app,
                copies,
            }
        }),
        any::<u8>().prop_map(|app| Op::SubmitPrinter { app }),
        any::<u8>().prop_map(|which| Op::Cancel { which }),
        any::<u8>().prop_map(|which| Op::Cancel { which }),
        any::<u8>().prop_map(|which| Op::FailSource { which }),
        any::<u8>().prop_map(|which| Op::SourceLeaves { which }),
        any::<u8>().prop_map(|which| Op::SourceReturns { which }),
        any::<u8>().prop_map(|which| Op::FailDerived { which }),
        any::<u8>().prop_map(|which| Op::DerivedLeaves { which }),
        any::<u8>().prop_map(|which| Op::DerivedReturns { which }),
        (any::<u8>(), 0u8..3, 0u8..4).prop_map(|(door, subject, room)| Op::Ingest {
            door,
            subject,
            room
        }),
        (any::<u8>(), 0u8..3, 0u8..4).prop_map(|(door, subject, room)| Op::Ingest {
            door,
            subject,
            room
        }),
        (any::<u8>(), any::<bool>())
            .prop_map(|(printer, paper)| Op::PrinterReports { printer, paper }),
        Just(Op::RegisterDoor),
        Just(Op::RegisterScanner),
        any::<bool>().prop_map(|celsius| Op::RegisterThermometer { celsius }),
        Just(Op::RegisterLocationSource),
        Just(Op::DeclareEquivalence),
        any::<u8>().prop_map(|app| Op::AppDeparts { app }),
    ]
}

const ROOMS: [&str; 4] = ["lobby", "corridor", "L10.01", "L10.02"];
const APPS: u8 = 3;
const BADGE_SCAN: &str = "badge-scan";

fn app_guid(app: u8) -> Guid {
    Guid::from_u128(0xA00 + (app % APPS) as u128)
}

fn subject_guid(i: u8) -> Guid {
    Guid::from_u128(0x5AB1_0000u128 + i as u128)
}

fn unit(celsius: bool) -> ContextValue {
    ContextValue::text(if celsius { "celsius" } else { "fahrenheit" })
}

/// A source CE of one output; a thermometer also states its unit.
fn source(id: Guid, name: &str, output: ContextType, celsius: Option<bool>) -> Profile {
    let profile = Profile::builder(id, EntityKind::Device, format!("{name}-{id}"))
        .output(PortSpec::new("out", output));
    match celsius {
        Some(celsius) => profile.attribute("unit", unit(celsius)).build(),
        None => profile.build(),
    }
}

fn derived(id: Guid, name: &str, inputs: &[(&str, ContextType)], output: ContextType) -> Profile {
    let mut profile = Profile::builder(id, EntityKind::Software, name);
    for (port, ty) in inputs {
        profile = profile.input(PortSpec::new(*port, ty.clone()));
    }
    profile.output(PortSpec::new("out", output)).build()
}

/// The two runs, and the test's own view of what is registered.
struct Twin {
    /// Attaches wherever it can.
    reusing: ContextServer,
    /// Plans every admission fresh.
    fresh: ContextServer,
    ids: GuidGenerator,
    /// Registered sources, and those that left and may return.
    sources: Vec<Profile>,
    left: Vec<Profile>,
    /// Registered derived CEs, and those that left and may return.
    derived: Vec<Profile>,
    derived_left: Vec<Profile>,
    /// The running subscriptions (a one-time one may have ended).
    queries: Vec<Guid>,
    now: VirtualTime,
}

impl Twin {
    /// Applies one operation to both runs; their outcomes must agree.
    fn apply<R: std::fmt::Debug>(&mut self, op: impl Fn(&mut ContextServer) -> R) -> R {
        let fresh = op(&mut self.fresh);
        let reusing = op(&mut self.reusing);
        assert_eq!(
            format!("{reusing:?}"),
            format!("{fresh:?}"),
            "outcomes differ"
        );
        reusing
    }

    fn arrive(&mut self, profile: Profile) {
        let now = self.now;
        self.apply(|cs| cs.register(profile.clone(), now)).unwrap();
        self.sources.push(profile);
    }

    /// Submits a subscription in both runs, the fresh one after moving
    /// its plan generation on; compares what each admitted.
    fn submit(&mut self, what: (ContextType, Vec<Predicate>), app: u8, once: bool) {
        let app = app_guid(app);
        if !self.reusing.registrar().is_registered(app) {
            let profile = Profile::builder(app, EntityKind::Software, format!("app-{app}")).build();
            let now = self.now;
            self.apply(|cs| cs.register(profile.clone(), now)).unwrap();
        }
        let mode = if once {
            Mode::SubscribeOnce
        } else {
            Mode::Subscribe
        };
        let q = Query::builder(self.ids.next_guid(), app)
            .info_matching(what.0, what.1)
            .mode(mode)
            .build();
        let now = self.now;
        self.fresh
            .handle(RangeCommand::SetPlanVerification(true), now)
            .unwrap();
        let answer = self.apply(|cs| cs.submit_query(&q, now));
        if answer.is_err() {
            return;
        }
        self.queries.push(q.id);
        let admitted = |cs: &ContextServer| {
            let config = cs.configuration(q.id).expect("admitted");
            let wiring = (config.instances.clone(), config.root_producers.clone());
            (wiring, cs.sources_of(q.id))
        };
        assert_eq!(
            admitted(&self.reusing),
            admitted(&self.fresh),
            "query {} ({}) admitted otherwise than planned fresh",
            q.id,
            q.what
        );
    }
}

/// Refcounts equal the configurations referencing each instance.
fn check_refcounts(cs: &ContextServer) {
    for state in cs.instances().iter() {
        let references = (cs.configurations())
            .flat_map(|c| &c.instances)
            .filter(|&&i| i == state.instance)
            .count();
        assert_eq!(state.refcount, references, "refcount of {}", state.instance);
    }
}

/// One range: three doors, two printers (one out of paper), a Celsius
/// thermometer, the Figure 3 classes and `fahrenheitCE`;
/// `badgeLocationCE` (preferred to `objLocationCE` by name wherever a
/// badge scan is sensed) has yet to arrive.
fn build(reuse: bool) -> Twin {
    let plan = capa_level10();
    let mut ids = GuidGenerator::seeded(57);
    let id = ids.next_guid();
    let mut sources = Vec::new();
    for _ in 0..3 {
        sources.push(source(ids.next_guid(), "door", ContextType::Presence, None));
    }
    for paper in [true, false] {
        let printer = Profile::builder(ids.next_guid(), EntityKind::Device, "printer")
            .output(PortSpec::new("status", ContextType::PrinterStatus))
            .attribute("paper", ContextValue::Bool(paper));
        sources.push(printer.build());
    }
    let thermometer = source(
        ids.next_guid(),
        "thermometer",
        ContextType::Temperature,
        Some(true),
    );
    sources.push(thermometer);
    let presence = [("presence", ContextType::Presence)];
    let ends = [
        ("from", ContextType::Location),
        ("to", ContextType::Location),
    ];
    let scan = [("scan", ContextType::custom(BADGE_SCAN))];
    let location = ContextType::Location;
    let mut derived = vec![
        derived(
            ids.next_guid(),
            "objLocationCE",
            &presence,
            location.clone(),
        ),
        derived(ids.next_guid(), "pathCE", &ends, ContextType::Path),
        derived(ids.next_guid(), "badgeLocationCE", &scan, location),
        // Answers "temperature in Fahrenheit" from any thermometer until
        // a Fahrenheit one arrives, which a fresh plan then names itself.
        Profile::builder(ids.next_guid(), EntityKind::Software, "fahrenheitCE")
            .input(PortSpec::new("in", ContextType::Temperature))
            .output(PortSpec::new("out", ContextType::Temperature))
            .attribute("unit", unit(false))
            .build(),
    ];
    let p = plan.clone();
    let locate = factory(move || ObjLocationLogic::new(p.clone()));
    let p = plan.clone();
    let paths = factory(move || PathLogic::new(p.clone()));
    let logic: Vec<_> = (derived.iter())
        .zip([&locate, &paths, &locate, &locate])
        .map(|(ce, logic)| (ce.id(), logic.clone()))
        .collect();
    // `badgeLocationCE` arrives later, through `DerivedReturns`.
    let derived_left = vec![derived.remove(2)];
    let server = || {
        let mut cs = ContextServer::new(id, "level-ten", plan.clone());
        cs.set_reuse(reuse);
        for profile in sources.iter().chain(&derived) {
            cs.register(profile.clone(), VirtualTime::ZERO).unwrap();
        }
        for (ce, logic) in &logic {
            cs.register_logic(*ce, logic.clone());
        }
        cs
    };
    Twin {
        reusing: server(),
        fresh: server(),
        ids,
        sources,
        left: Vec::new(),
        derived,
        derived_left,
        queries: Vec::new(),
        now: VirtualTime::ZERO,
    }
}

fn run(ops: &[Op], reuse: bool) {
    let mut t = build(reuse);
    for op in ops.iter().cloned() {
        t.now = t.now.saturating_add(VirtualDuration::from_secs(1));
        let now = t.now;
        match op {
            Op::SubmitLocation {
                subject,
                app,
                once,
                copies,
            } => {
                let about = Predicate::eq("subject", ContextValue::Id(subject_guid(subject)));
                for app in (0..copies).map(|k| app.wrapping_add(k)) {
                    t.submit((ContextType::Location, vec![about.clone()]), app, once);
                }
            }
            Op::SubmitPath {
                from,
                to,
                app,
                copies,
            } => {
                let ends = vec![
                    Predicate::eq("from", ContextValue::Id(subject_guid(from))),
                    Predicate::eq("to", ContextValue::Id(subject_guid(to))),
                ];
                for app in (0..copies).map(|k| app.wrapping_add(k)) {
                    t.submit((ContextType::Path, ends.clone()), app, false);
                }
            }
            Op::SubmitTemperature {
                celsius,
                app,
                copies,
            } => {
                let in_unit = vec![Predicate::eq("unit", unit(celsius))];
                for app in (0..copies).map(|k| app.wrapping_add(k)) {
                    t.submit((ContextType::Temperature, in_unit.clone()), app, false);
                }
            }
            Op::SubmitPrinter { app } => {
                let with_paper = vec![Predicate::eq("paper", ContextValue::Bool(true))];
                t.submit((ContextType::PrinterStatus, with_paper), app, false);
            }
            Op::Cancel { which } => {
                if !t.queries.is_empty() {
                    let q = t.queries.remove(which as usize % t.queries.len());
                    // A one-time subscription may have ended already.
                    t.apply(|cs| cs.cancel_query(q).is_ok());
                }
            }
            Op::FailSource { which } => {
                if !t.sources.is_empty() {
                    let failed = t.sources[which as usize % t.sources.len()].id();
                    t.apply(|cs| sci::core::adaptation::repair_source(cs, failed, now));
                }
            }
            Op::SourceLeaves { which } => {
                if !t.sources.is_empty() {
                    let gone = t.sources.remove(which as usize % t.sources.len());
                    t.apply(|cs| cs.deregister(gone.id(), now)).unwrap();
                    t.left.push(gone);
                }
            }
            Op::SourceReturns { which } => {
                if !t.left.is_empty() {
                    let back = t.left.remove(which as usize % t.left.len());
                    t.arrive(back);
                }
            }
            Op::FailDerived { which } => {
                if !t.derived.is_empty() {
                    let failed = t.derived[which as usize % t.derived.len()].id();
                    t.apply(|cs| sci::core::adaptation::repair_source(cs, failed, now));
                }
            }
            Op::DerivedLeaves { which } => {
                if !t.derived.is_empty() {
                    let gone = t.derived.remove(which as usize % t.derived.len());
                    t.apply(|cs| cs.deregister(gone.id(), now)).unwrap();
                    t.derived_left.push(gone);
                }
            }
            Op::DerivedReturns { which } => {
                if !t.derived_left.is_empty() {
                    let back = t.derived_left.remove(which as usize % t.derived_left.len());
                    t.apply(|cs| cs.register(back.clone(), now)).unwrap();
                    t.derived.push(back);
                }
            }
            Op::Ingest {
                door,
                subject,
                room,
            } => {
                let feeders: Vec<&Profile> = (t.sources.iter())
                    .filter(|p| {
                        p.provides(&ContextType::Presence)
                            || p.provides(&ContextType::custom(BADGE_SCAN))
                    })
                    .collect();
                if !feeders.is_empty() {
                    let feeder = feeders[door as usize % feeders.len()];
                    let ev = ContextEvent::new(
                        feeder.id(),
                        feeder.outputs()[0].ty.clone(),
                        ContextValue::record([
                            ("subject", ContextValue::Id(subject_guid(subject))),
                            (
                                "to",
                                ContextValue::place(ROOMS[room as usize % ROOMS.len()]),
                            ),
                        ]),
                        now,
                    );
                    t.apply(|cs| cs.ingest(&ev, now)).unwrap();
                }
            }
            Op::PrinterReports { printer, paper } => {
                let printers: Vec<Guid> = (t.sources.iter())
                    .filter(|p| p.provides(&ContextType::PrinterStatus))
                    .map(Profile::id)
                    .collect();
                if !printers.is_empty() {
                    let ev = ContextEvent::new(
                        printers[printer as usize % printers.len()],
                        ContextType::PrinterStatus,
                        ContextValue::record([("paper", ContextValue::Bool(paper))]),
                        now,
                    );
                    t.apply(|cs| cs.ingest(&ev, now)).unwrap();
                }
            }
            Op::RegisterDoor => {
                let id = t.ids.next_guid();
                t.arrive(source(id, "door", ContextType::Presence, None));
            }
            Op::RegisterScanner => {
                let id = t.ids.next_guid();
                let badge_scan = ContextType::custom(BADGE_SCAN);
                t.arrive(source(id, "scanner", badge_scan, None));
            }
            Op::RegisterThermometer { celsius } => {
                let id = t.ids.next_guid();
                let unit = Some(celsius);
                t.arrive(source(id, "thermometer", ContextType::Temperature, unit));
            }
            Op::RegisterLocationSource => {
                let id = t.ids.next_guid();
                t.arrive(source(id, "locator", ContextType::Location, None));
            }
            Op::DeclareEquivalence => t.apply(|cs| {
                cs.declare_equivalence(ContextType::Presence, ContextType::custom(BADGE_SCAN));
            }),
            Op::AppDeparts { app } => {
                t.apply(|cs| cs.deregister(app_guid(app), now).is_ok());
            }
        }
        t.queries.retain(|&q| t.reusing.configuration(q).is_some());
        check_refcounts(&t.reusing);
        check_refcounts(&t.fresh);
        let audit = t.fresh.audit_configurations();
        assert!(audit.is_clean(), "planned fresh: {}", audit.summary());
    }
    let queued = |cs: &mut ContextServer| {
        let mut deliveries: Vec<String> = (cs.drain_outbox().iter())
            .map(|d| format!("{d:?}"))
            .collect();
        deliveries.sort();
        deliveries
    };
    assert_eq!(
        queued(&mut t.reusing),
        queued(&mut t.fresh),
        "deliveries differ"
    );
    let reused = t.reusing.snapshot().counter("resolver.admit.reused");
    if !reuse {
        assert_eq!(reused, 0, "reuse off: nothing attaches");
    }
    assert_eq!(t.fresh.snapshot().counter("resolver.admit.reused"), 0);
    for q in t.queries.drain(..) {
        t.reusing.cancel_query(q).unwrap();
        t.fresh.cancel_query(q).unwrap();
    }
    assert_eq!(t.reusing.instance_count(), 0);
    assert_eq!(t.fresh.instance_count(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn an_attached_admission_is_what_planning_fresh_makes(
        ops in prop::collection::vec(arb_op(), 1..48),
        reuse in 0u8..7,
    ) {
        // One range in seven runs with reuse off.
        run(&ops, reuse != 0);
    }
}

/// A door sensor's profile.
fn door(id: Guid) -> Profile {
    source(id, "door", ContextType::Presence, None)
}

#[test]
fn standing_needs_admit_by_reuse_until_the_last_door_flips() {
    const STANDING: u8 = 20;
    const CYCLES: u64 = 60;
    let plan = capa_level10();
    let mut ids = GuidGenerator::seeded(9);
    let mut cs = ContextServer::new(ids.next_guid(), "level-ten", plan.clone());
    let doors: Vec<Guid> = (0..4).map(|_| ids.next_guid()).collect();
    for &d in &doors {
        cs.register(door(d), VirtualTime::ZERO).unwrap();
    }
    let presence = [("presence", ContextType::Presence)];
    let obj_loc = derived(
        ids.next_guid(),
        "objLocationCE",
        &presence,
        ContextType::Location,
    );
    cs.register(obj_loc.clone(), VirtualTime::ZERO).unwrap();
    cs.register_logic(
        obj_loc.id(),
        factory(move || ObjLocationLogic::new(plan.clone())),
    );
    let location_of = |ids: &mut GuidGenerator, app: u8, subject: u8| {
        let about = Predicate::eq("subject", ContextValue::Id(subject_guid(subject)));
        Query::builder(ids.next_guid(), app_guid(app))
            .info_matching(ContextType::Location, vec![about])
            .mode(Mode::Subscribe)
            .build()
    };
    let counts = |cs: &ContextServer| {
        let snapshot = cs.snapshot();
        let count = |name| snapshot.counter(name);
        (count("resolver.plan.count"), count("resolver.admit.reused"))
    };
    for subject in 0..STANDING {
        let q = location_of(&mut ids, 0, subject);
        cs.submit_query(&q, VirtualTime::ZERO).unwrap();
    }
    assert_eq!(
        counts(&cs),
        (u64::from(STANDING), 0),
        "distinct needs all plan"
    );

    for cycle in 1..=CYCLES {
        let now = VirtualTime::from_secs(cycle);
        let q = location_of(&mut ids, 1, (cycle % u64::from(STANDING)) as u8);
        let answer = cs.submit_query(&q, now).unwrap();
        assert!(matches!(answer, QueryAnswer::Subscribed { .. }));
        cs.cancel_query(q.id).unwrap();
        if cycle % 10 == 0 {
            let d = doors[(cycle / 10) as usize % doors.len()];
            cs.deregister(d, now).unwrap();
            cs.register(door(d), now).unwrap();
        }
    }
    assert_eq!(
        counts(&cs),
        (u64::from(STANDING), CYCLES),
        "every cycle attached; no door leave-and-rejoin replanned"
    );

    // Losing the last door flips whether anything senses presence, and
    // so does regaining one: the next admission plans.
    let now = VirtualTime::from_secs(CYCLES + 1);
    for &d in &doors {
        cs.deregister(d, now).unwrap();
    }
    cs.register(door(doors[0]), now).unwrap();
    let q = location_of(&mut ids, 1, 0);
    cs.submit_query(&q, now).unwrap();
    assert_eq!(counts(&cs), (u64::from(STANDING) + 1, CYCLES));
    let again = location_of(&mut ids, 2, 0);
    cs.submit_query(&again, now).unwrap();
    assert_eq!(counts(&cs), (u64::from(STANDING) + 1, CYCLES + 1));
    assert_eq!(cs.sources_of(again.id), vec![doors[0]]);
}

/// A source that answers a need itself, arriving where sources of its
/// type already were, moves no generation: the root need's own source
/// check keeps the next equal query off the derived configuration.
#[test]
fn a_source_answering_the_need_itself_ends_attaching() {
    let temperature_in_fahrenheit = |app| Op::SubmitTemperature {
        celsius: false,
        app,
        copies: 2,
    };
    let ops = [
        temperature_in_fahrenheit(0),
        Op::RegisterThermometer { celsius: false },
        temperature_in_fahrenheit(2),
    ];
    run(&ops, true);
}

/// A path planned through `objLocationCE`, then a badge scanner and
/// `badgeLocationCE` arrive, and the same path is asked for again: the
/// second plan reaches `pathCE` through the new provider, so it gets a
/// `pathCE` instance of its own instead of sharing the first one, which
/// `objLocationCE` still feeds.
#[test]
fn a_node_reached_through_another_provider_is_not_shared() {
    let bob_to_bob = Op::SubmitPath {
        from: 0,
        to: 0,
        app: 0,
        copies: 1,
    };
    let ops = [
        bob_to_bob.clone(),
        Op::RegisterScanner,
        Op::DerivedReturns { which: 0 },
        bob_to_bob,
    ];
    run(&ops, true);
}
