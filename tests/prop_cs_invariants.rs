//! Property test: Context Server bookkeeping and wiring invariants hold
//! under arbitrary interleavings of query submission, cancellation,
//! sources failing, leaving, arriving and returning, a declared
//! equivalence, event traffic and the owning applications leaving the
//! range (deregistering, or migrating away).
//!
//! Invariants checked after every operation:
//!
//! 1. Every live subscription in the mediator is owned by either a live
//!    instance or a live configuration's CAA subscription list.
//! 2. Instance refcounts equal the number of configurations referencing
//!    the instance.
//! 3. Cancelling every configuration reclaims every instance and every
//!    subscription (checked at the end).
//! 4. Every running subscription is fed by exactly the sources an
//!    identical query submitted now would be: a twin is submitted under
//!    a fresh id, the two configurations' `sources` are compared as sets
//!    (`Unresolvable` reads as the empty set) and the twin is cancelled
//!    — through the public API only, independent of the wiring rule's
//!    own code. No operation registers a source of a type a derived CE
//!    also provides: a derived-fed input stays derived-fed by design.
//! 5. The range's own audit is clean.
//!
//! 32 cases in the PR gate; `PROPTEST_CASES` overrides (the nightly
//! runs 2048).

use std::collections::BTreeSet;

use proptest::prelude::*;
use sci::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    SubmitLocation {
        subject: u8,
        app: u8,
    },
    SubmitPath {
        from: u8,
        to: u8,
        app: u8,
    },
    /// "Temperature in degrees Celsius" (or Fahrenheit).
    SubmitTemperature {
        celsius: bool,
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
    Ingest {
        door: u8,
        subject: u8,
        room: u8,
    },
    RegisterDoor,
    RegisterScanner,
    RegisterThermometer {
        celsius: bool,
    },
    /// Presence and badge scans become interchangeable.
    DeclareEquivalence,
    AppDeparts {
        app: u8,
    },
    AppMovesAway {
        app: u8,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, any::<u8>()).prop_map(|(subject, app)| Op::SubmitLocation { subject, app }),
        (0u8..4, 0u8..4, any::<u8>()).prop_map(|(from, to, app)| Op::SubmitPath { from, to, app }),
        (any::<bool>(), any::<u8>())
            .prop_map(|(celsius, app)| Op::SubmitTemperature { celsius, app }),
        any::<u8>().prop_map(|which| Op::Cancel { which }),
        any::<u8>().prop_map(|which| Op::FailSource { which }),
        any::<u8>().prop_map(|which| Op::SourceLeaves { which }),
        any::<u8>().prop_map(|which| Op::SourceReturns { which }),
        (any::<u8>(), 0u8..4, 0u8..4).prop_map(|(door, subject, room)| Op::Ingest {
            door,
            subject,
            room
        }),
        Just(Op::RegisterDoor),
        Just(Op::RegisterScanner),
        any::<bool>().prop_map(|celsius| Op::RegisterThermometer { celsius }),
        Just(Op::DeclareEquivalence),
        any::<u8>().prop_map(|app| Op::AppDeparts { app }),
        any::<u8>().prop_map(|app| Op::AppMovesAway { app }),
    ]
}

struct Rig {
    cs: ContextServer,
    ids: GuidGenerator,
    doors: Vec<Guid>,
    /// Every registered source — doors, scanners, thermometers.
    sources: Vec<Profile>,
    /// Sources that left and may return under the same GUID.
    left: Vec<Profile>,
    /// The running subscriptions.
    queries: Vec<Query>,
    now: VirtualTime,
}

/// A small pool, so departures hit applications that own something.
const APPS: u8 = 4;

fn app_guid(app: u8) -> Guid {
    Guid::from_u128(0xA00 + (app % APPS) as u128)
}

impl Rig {
    /// The application behind `app`, registered (again) if it had left.
    fn resident(&mut self, app: u8) -> Guid {
        let id = app_guid(app);
        if !self.cs.registrar().is_registered(id) {
            self.cs
                .register(
                    Profile::builder(id, EntityKind::Software, format!("app-{id}")).build(),
                    self.now,
                )
                .unwrap();
        }
        id
    }

    /// `owner` has left the range: its queries left with it.
    fn departed(&mut self, owner: Guid) {
        self.queries.retain(|q| q.owner != owner);
    }

    fn submit(&mut self, what: (ContextType, Vec<Predicate>), app: u8) {
        let app = self.resident(app);
        let q = Query::builder(self.ids.next_guid(), app)
            .info_matching(what.0, what.1)
            .mode(Mode::Subscribe)
            .build();
        if self.cs.submit_query(&q, self.now).is_ok() {
            self.queries.push(q);
        }
    }

    fn arrive(&mut self, source: Profile) {
        self.cs.register(source.clone(), self.now).unwrap();
        self.sources.push(source);
    }

    /// What feeds a running subscription, as a set.
    fn feeding(&self, query: Guid) -> BTreeSet<Guid> {
        let config = self.cs.configuration(query).expect("running");
        config.sources.iter().copied().collect()
    }
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

fn unit(celsius: bool) -> ContextValue {
    ContextValue::text(if celsius { "celsius" } else { "fahrenheit" })
}

fn rig() -> Rig {
    let plan = capa_level10();
    let mut ids = GuidGenerator::seeded(404);
    let mut cs = ContextServer::new(ids.next_guid(), "level-ten", plan.clone());
    let mut sources = Vec::new();
    for _ in 0..2 {
        let door = source(ids.next_guid(), "door", ContextType::Presence, None);
        cs.register(door.clone(), VirtualTime::ZERO).unwrap();
        sources.push(door);
    }
    let obj_loc = ids.next_guid();
    cs.register(
        Profile::builder(obj_loc, EntityKind::Software, "objLocationCE")
            .input(PortSpec::new("presence", ContextType::Presence))
            .output(PortSpec::new("location", ContextType::Location))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    let p = plan.clone();
    cs.register_logic(obj_loc, factory(move || ObjLocationLogic::new(p.clone())));
    let path_ce = ids.next_guid();
    cs.register(
        Profile::builder(path_ce, EntityKind::Software, "pathCE")
            .input(PortSpec::new("from", ContextType::Location))
            .input(PortSpec::new("to", ContextType::Location))
            .output(PortSpec::new("path", ContextType::Path))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    let p = plan;
    cs.register_logic(path_ce, factory(move || PathLogic::new(p.clone())));
    Rig {
        cs,
        ids,
        doors: sources.iter().map(Profile::id).collect(),
        sources,
        left: Vec::new(),
        queries: Vec::new(),
        now: VirtualTime::ZERO,
    }
}

fn subject_guid(i: u8) -> Guid {
    Guid::from_u128(0x5AB1_0000u128 + i as u128)
}

fn check_invariants(r: &mut Rig) {
    // 2: refcounts match configuration references.
    for state in r.cs.instances().iter() {
        let references =
            r.cs.configurations()
                .flat_map(|c| c.instances.iter())
                .filter(|&&i| i == state.instance)
                .count();
        assert_eq!(
            state.refcount, references,
            "instance {} refcount {} != {} references",
            state.instance, state.refcount, references
        );
    }
    // 1: subscription accounting.
    let instance_subs: usize = r.cs.instances().iter().map(|s| s.subs.len()).sum();
    let caa_subs: usize = r.cs.configurations().map(|c| c.caa_subs.len()).sum();
    assert_eq!(
        r.cs.mediator().bus().len(),
        instance_subs + caa_subs,
        "orphan or missing subscriptions"
    );
    // 4: a running subscription and its twin submitted now are fed by
    // the same sources.
    for running in r.queries.clone() {
        let mut twin = running.clone();
        twin.id = r.ids.next_guid();
        let fresh = match r.cs.submit_query(&twin, r.now) {
            Ok(_) => {
                let fed = r.feeding(twin.id);
                r.cs.cancel_query(twin.id).unwrap();
                fed
            }
            Err(SciError::Unresolvable(_)) => BTreeSet::new(),
            Err(other) => panic!("twin of {}: {other}", running.id),
        };
        assert_eq!(
            r.feeding(running.id),
            fresh,
            "query {} ({}) is not fed as its twin would be",
            running.id,
            running.what
        );
    }
    // 5: the bus is what the range's own audit expects.
    let audit = r.cs.audit_configurations();
    assert!(audit.is_clean(), "{audit}");
}

/// 32 cases in the PR gate; `PROPTEST_CASES`, when set, decides.
fn cases() -> ProptestConfig {
    match std::env::var_os("PROPTEST_CASES") {
        Some(_) => ProptestConfig::default(),
        None => ProptestConfig::with_cases(32),
    }
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn bookkeeping_survives_arbitrary_operation_sequences(
        ops in prop::collection::vec(arb_op(), 1..40)
    ) {
        let mut r = rig();
        let rooms = ["lobby", "corridor", "L10.01", "L10.02"];
        for op in ops {
            r.now = r.now.saturating_add(VirtualDuration::from_secs(1));
            match op {
                Op::SubmitLocation { subject, app } => {
                    let about = Predicate::eq("subject", ContextValue::Id(subject_guid(subject)));
                    r.submit((ContextType::Location, vec![about]), app);
                }
                Op::SubmitPath { from, to, app } => {
                    let ends = vec![
                        Predicate::eq("from", ContextValue::Id(subject_guid(from))),
                        Predicate::eq("to", ContextValue::Id(subject_guid(to))),
                    ];
                    r.submit((ContextType::Path, ends), app);
                }
                Op::SubmitTemperature { celsius, app } => {
                    let in_unit = vec![Predicate::eq("unit", unit(celsius))];
                    r.submit((ContextType::Temperature, in_unit), app);
                }
                Op::Cancel { which } => {
                    if !r.queries.is_empty() {
                        let idx = which as usize % r.queries.len();
                        let q = r.queries.remove(idx);
                        r.cs.cancel_query(q.id).unwrap();
                    }
                }
                Op::FailSource { which } => {
                    if !r.sources.is_empty() {
                        let failed = r.sources[which as usize % r.sources.len()].id();
                        sci::core::adaptation::repair_source(&mut r.cs, failed, r.now);
                    }
                }
                Op::SourceLeaves { which } => {
                    if !r.sources.is_empty() {
                        let gone = r.sources.remove(which as usize % r.sources.len());
                        r.cs.deregister(gone.id(), r.now).unwrap();
                        r.doors.retain(|&d| d != gone.id());
                        r.left.push(gone);
                    }
                }
                Op::SourceReturns { which } => {
                    if !r.left.is_empty() {
                        let back = r.left.remove(which as usize % r.left.len());
                        if back.provides(&ContextType::Presence) {
                            r.doors.push(back.id());
                        }
                        r.arrive(back);
                    }
                }
                Op::Ingest { door, subject, room } => {
                    if !r.doors.is_empty() {
                        let d = r.doors[door as usize % r.doors.len()];
                        let ev = ContextEvent::new(
                            d,
                            ContextType::Presence,
                            ContextValue::record([
                                ("subject", ContextValue::Id(subject_guid(subject))),
                                ("to", ContextValue::place(rooms[room as usize % rooms.len()])),
                            ]),
                            r.now,
                        );
                        r.cs.ingest(&ev, r.now).unwrap();
                        r.cs.drain_outbox();
                    }
                }
                Op::RegisterDoor => {
                    let id = r.ids.next_guid();
                    r.arrive(source(id, "door", ContextType::Presence, None));
                    r.doors.push(id);
                }
                Op::RegisterScanner => {
                    let id = r.ids.next_guid();
                    r.arrive(source(id, "scanner", ContextType::custom("badge-scan"), None));
                }
                Op::RegisterThermometer { celsius } => {
                    let id = r.ids.next_guid();
                    let unit = Some(celsius);
                    r.arrive(source(id, "thermometer", ContextType::Temperature, unit));
                }
                Op::DeclareEquivalence => {
                    r.cs.declare_equivalence(
                        ContextType::Presence,
                        ContextType::custom("badge-scan"),
                    );
                }
                Op::AppDeparts { app } => {
                    if r.cs.deregister(app_guid(app), r.now).is_ok() {
                        r.departed(app_guid(app));
                    }
                }
                Op::AppMovesAway { app } => {
                    if r.cs.migrate_out(app_guid(app), r.now).is_ok() {
                        r.departed(app_guid(app));
                    }
                }
            }
            check_invariants(&mut r);
        }
        // 3: full teardown reclaims everything.
        for q in r.queries.drain(..) {
            r.cs.cancel_query(q.id).unwrap();
        }
        assert_eq!(r.cs.instance_count(), 0);
        assert!(r.cs.mediator().bus().is_empty());
    }
}
