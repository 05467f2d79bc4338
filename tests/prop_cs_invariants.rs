//! Property test: Context Server bookkeeping invariants hold under
//! arbitrary interleavings of query submission, cancellation, sensor
//! failure, re-registration, event traffic and the owning applications
//! leaving the range (deregistering, or migrating away).
//!
//! Invariants checked after every operation:
//!
//! 1. Every live subscription in the mediator is owned by either a live
//!    instance or a live configuration's CAA subscription list.
//! 2. Instance refcounts equal the number of configurations referencing
//!    the instance.
//! 3. Cancelling every configuration reclaims every instance and every
//!    subscription.

use proptest::prelude::*;
use sci::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    SubmitLocation { subject: u8, app: u8 },
    SubmitPath { from: u8, to: u8, app: u8 },
    Cancel { which: u8 },
    FailDoor { which: u8 },
    Ingest { door: u8, subject: u8, room: u8 },
    RegisterDoor,
    AppDeparts { app: u8 },
    AppMovesAway { app: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, any::<u8>()).prop_map(|(subject, app)| Op::SubmitLocation { subject, app }),
        (0u8..4, 0u8..4, any::<u8>()).prop_map(|(from, to, app)| Op::SubmitPath { from, to, app }),
        any::<u8>().prop_map(|which| Op::Cancel { which }),
        any::<u8>().prop_map(|which| Op::FailDoor { which }),
        (any::<u8>(), 0u8..4, 0u8..4).prop_map(|(door, subject, room)| Op::Ingest {
            door,
            subject,
            room
        }),
        Just(Op::RegisterDoor),
        any::<u8>().prop_map(|app| Op::AppDeparts { app }),
        any::<u8>().prop_map(|app| Op::AppMovesAway { app }),
    ]
}

struct Rig {
    cs: ContextServer,
    ids: GuidGenerator,
    doors: Vec<Guid>,
    /// Live queries with their owners.
    queries: Vec<(Guid, Guid)>,
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
        self.queries.retain(|&(_, o)| o != owner);
    }
}

fn rig() -> Rig {
    let plan = capa_level10();
    let mut ids = GuidGenerator::seeded(404);
    let mut cs = ContextServer::new(ids.next_guid(), "level-ten", plan.clone());
    let mut doors = Vec::new();
    for i in 0..2 {
        let id = ids.next_guid();
        cs.register(
            Profile::builder(id, EntityKind::Device, format!("door-{i}"))
                .output(PortSpec::new("presence", ContextType::Presence))
                .build(),
            VirtualTime::ZERO,
        )
        .unwrap();
        doors.push(id);
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
        doors,
        queries: Vec::new(),
        now: VirtualTime::ZERO,
    }
}

fn subject_guid(i: u8) -> Guid {
    Guid::from_u128(0x5AB1_0000u128 + i as u128)
}

fn check_invariants(r: &Rig) {
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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
                    let app = r.resident(app);
                    let q = Query::builder(r.ids.next_guid(), app)
                        .info_matching(
                            ContextType::Location,
                            vec![Predicate::eq("subject", ContextValue::Id(subject_guid(subject)))],
                        )
                        .mode(Mode::Subscribe)
                        .build();
                    if r.cs.submit_query(&q, r.now).is_ok() {
                        r.queries.push((q.id, app));
                    }
                }
                Op::SubmitPath { from, to, app } => {
                    let app = r.resident(app);
                    let q = Query::builder(r.ids.next_guid(), app)
                        .info_matching(
                            ContextType::Path,
                            vec![
                                Predicate::eq("from", ContextValue::Id(subject_guid(from))),
                                Predicate::eq("to", ContextValue::Id(subject_guid(to))),
                            ],
                        )
                        .mode(Mode::Subscribe)
                        .build();
                    if r.cs.submit_query(&q, r.now).is_ok() {
                        r.queries.push((q.id, app));
                    }
                }
                Op::Cancel { which } => {
                    if !r.queries.is_empty() {
                        let idx = which as usize % r.queries.len();
                        let (qid, _) = r.queries.remove(idx);
                        r.cs.cancel_query(qid).unwrap();
                    }
                }
                Op::FailDoor { which } => {
                    if !r.doors.is_empty() {
                        let door = r.doors[which as usize % r.doors.len()];
                        sci::core::adaptation::repair_source(&mut r.cs, door, r.now);
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
                    r.cs.register(
                        Profile::builder(id, EntityKind::Device, format!("door-{id}"))
                            .output(PortSpec::new("presence", ContextType::Presence))
                            .build(),
                        r.now,
                    )
                    .unwrap();
                    r.doors.push(id);
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
            check_invariants(&r);
        }
        // 3: full teardown reclaims everything.
        for (qid, _) in r.queries.drain(..) {
            r.cs.cancel_query(qid).unwrap();
        }
        assert_eq!(r.cs.instance_count(), 0);
        assert!(r.cs.mediator().bus().is_empty());
    }
}
