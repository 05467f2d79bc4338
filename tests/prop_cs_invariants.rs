//! Property test: Context Server bookkeeping and wiring invariants hold
//! under arbitrary interleavings of query submission, cancellation,
//! sources failing, leaving, arriving and returning, a declared
//! equivalence, event traffic, a printer reporting that it ran dry or
//! was refilled, and the owning applications leaving the range
//! (deregistering, or migrating away).
//!
//! Invariants checked after every operation:
//!
//! 1. Subscription accounting, over the bus: every live subscription is
//!    held by a live instance or is in exactly one live configuration's
//!    CAA subscription list, and every id in such a list is live; the
//!    server's `direct` set is exactly its configurations without an
//!    instance.
//! 2. Instance refcounts equal the number of configurations referencing
//!    the instance.
//! 3. Cancelling every configuration reclaims every instance and every
//!    subscription (checked at the end).
//! 4. Every running subscription is fed by exactly the sources an
//!    identical query submitted now would be: a twin is submitted under
//!    a fresh id, the two configurations' `sources_of` are compared
//!    (`Unresolvable` reads as the empty set) and the twin is cancelled
//!    — through the public API only, independent of the wiring rule's
//!    own code. No operation registers a source of a type a derived CE
//!    also provides: a derived-fed input stays derived-fed by design.
//! 5. The range's own audit is clean.
//! 6. A range's state is a function of its log. The range is durable
//!    (a disk log, `snapshot_every` 0 and 3, so both the full replay and
//!    the restore-then-replay path run); after every operation the log
//!    written so far is copied and recovered, and the recovered range's
//!    `durable_digest` equals the live one's. The recovered range then
//!    *shadows* the next operation — every mutation goes to both — and
//!    the two must have queued the same multiset of deliveries, before
//!    the next recovery replaces it. Nobody drains: a drain is not
//!    logged, so a recovered range holds what the live one delivered.
//!    Two things a snapshot does not carry, so a *restore* is compared
//!    without them (`snapshot_every` 3 only; the full replay is
//!    compared whole): the plan of a subscription that has lost every
//!    source — the restore drops it, as `durability::restore_snapshot`
//!    documents — so the subscriptions ever seen fed by nothing, and
//!    what is queued for them, are left out; and what a derived CE
//!    instance remembers — `pathCE` keeps each end's last location, and
//!    a restored one waits for both again — so `path` events are.
//!
//! 32 cases in the PR gate; `PROPTEST_CASES` overrides (the nightly
//! runs 2048).

use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use sci::core::durability;
use sci::core::logic::LogicFactory;
use sci::prelude::*;
use sci::query::xml::{parse, Element};

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
    /// CAPA's "a printer with paper".
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
    Ingest {
        door: u8,
        subject: u8,
        room: u8,
    },
    /// A printer reports whether it has paper.
    PrinterReports {
        printer: u8,
        paper: bool,
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
        any::<u8>().prop_map(|app| Op::SubmitPrinter { app }),
        any::<u8>().prop_map(|which| Op::Cancel { which }),
        any::<u8>().prop_map(|which| Op::FailSource { which }),
        any::<u8>().prop_map(|which| Op::SourceLeaves { which }),
        any::<u8>().prop_map(|which| Op::SourceReturns { which }),
        (any::<u8>(), 0u8..4, 0u8..4).prop_map(|(door, subject, room)| Op::Ingest {
            door,
            subject,
            room
        }),
        (any::<u8>(), any::<bool>())
            .prop_map(|(printer, paper)| Op::PrinterReports { printer, paper }),
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
    /// The range recovered from the log as it stood before the current
    /// operation; every mutation is applied to it too (invariant 6).
    shadow: Option<(ContextServer, PathBuf)>,
    /// The live range's log directory and how it was attached.
    log: DurabilityConfig,
    logic: HashMap<Guid, LogicFactory>,
    ids: GuidGenerator,
    doors: Vec<Guid>,
    printers: Vec<Guid>,
    /// Every registered source — doors, scanners, thermometers, printers.
    sources: Vec<Profile>,
    /// Sources that left and may return under the same GUID.
    left: Vec<Profile>,
    /// The running subscriptions.
    queries: Vec<Query>,
    /// Subscriptions seen fed by nothing: a restore may have dropped
    /// them.
    starved: BTreeSet<Guid>,
    now: VirtualTime,
}

/// A small pool, so departures hit applications that own something.
const APPS: u8 = 4;

fn app_guid(app: u8) -> Guid {
    Guid::from_u128(0xA00 + (app % APPS) as u128)
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A scratch directory of its own per call (pid + counter).
fn tmpdir() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sci-prop-cs-{}-{n}", std::process::id()))
}

/// A range's digest — after a restore (`starved` is `Some`), without
/// what a snapshot does not carry: the subscriptions in `starved` with
/// what is queued for them, and `path` events.
fn view(cs: &ContextServer, starved: Option<&BTreeSet<Guid>>) -> Element {
    let mut digest = parse(&durable_digest(cs)).unwrap();
    let Some(starved) = starved else {
        return digest;
    };
    let is = |id: Option<&str>| id.is_some_and(|id| starved.iter().any(|q| q.to_string() == id));
    let path = |event: &Element| event.attr("type") == Some("path");
    digest.children.retain_mut(|c| match c.name.as_str() {
        "query" => !is(c.child("query_id").map(Element::trimmed_text)),
        "delivery" => !is(c.attr("query")) && !c.child("event").is_some_and(path),
        "history" => {
            c.children.retain(|event| !path(event));
            true
        }
        _ => true,
    });
    digest
}

/// The deliveries a range has queued, as a multiset (sorted).
fn queued(digest: &Element) -> Vec<String> {
    let mut deliveries: Vec<String> = digest
        .children_named("delivery")
        .map(Element::to_xml)
        .collect();
    deliveries.sort();
    deliveries
}

impl Rig {
    /// One mutation, applied to the live range and to its shadow; the
    /// live range's outcome is returned.
    fn apply<R>(&mut self, mutation: impl Fn(&mut ContextServer) -> R) -> R {
        if let Some((shadow, _)) = &mut self.shadow {
            mutation(shadow);
        }
        mutation(&mut self.cs)
    }

    /// The application behind `app`, registered (again) if it had left.
    fn resident(&mut self, app: u8) -> Guid {
        let id = app_guid(app);
        if !self.cs.registrar().is_registered(id) {
            let profile = Profile::builder(id, EntityKind::Software, format!("app-{id}")).build();
            let now = self.now;
            self.apply(|cs| cs.register(profile.clone(), now)).unwrap();
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
        let now = self.now;
        if self.apply(|cs| cs.submit_query(&q, now)).is_ok() {
            self.queries.push(q);
        }
    }

    fn arrive(&mut self, source: Profile) {
        let now = self.now;
        self.apply(|cs| cs.register(source.clone(), now)).unwrap();
        self.sources.push(source);
    }

    /// `source` is no longer registered here.
    fn gone(&mut self, source: Guid) {
        self.doors.retain(|&d| d != source);
        self.printers.retain(|&p| p != source);
    }

    /// What feeds a running subscription, as a set.
    fn feeding(&self, query: Guid) -> BTreeSet<Guid> {
        assert!(self.cs.configuration(query).is_some(), "running");
        self.cs.sources_of(query).into_iter().collect()
    }

    /// Invariant 6, both halves: the shadow — recovered before this
    /// operation, and given it too — has queued what the live range
    /// has; then the log as it stands now recovers to the live range's
    /// digest, and that range shadows the next operation.
    fn check_recovery(&mut self) {
        let restored = (self.log.snapshot_every > 0).then_some(&self.starved);
        let live = view(&self.cs, restored);
        if let Some((shadow, dir)) = self.shadow.take() {
            assert_eq!(
                queued(&view(&shadow, restored)),
                queued(&live),
                "a range recovered one operation ago delivers otherwise"
            );
            drop(shadow);
            let _ = std::fs::remove_dir_all(dir);
        }
        self.cs.sync_wal().unwrap();
        let copy = tmpdir();
        std::fs::create_dir_all(&copy).unwrap();
        for entry in std::fs::read_dir(&self.log.dir).unwrap() {
            let file = entry.unwrap();
            std::fs::copy(file.path(), copy.join(file.file_name())).unwrap();
        }
        let config = DurabilityConfig {
            dir: copy.clone(),
            ..self.log.clone()
        };
        let plan = self.cs.location().plan().clone();
        let (recovered, _) = durability::recover(
            self.cs.id(),
            self.cs.name().to_owned(),
            plan,
            Registry::new(),
            &config,
            &self.logic,
        )
        .unwrap();
        assert_eq!(
            view(&recovered, restored).to_xml(),
            live.to_xml(),
            "recover(log) != live (snapshot_every {})",
            self.log.snapshot_every
        );
        self.shadow = Some((recovered, copy));
    }

    fn clean_up(&mut self) {
        if let Some((_, dir)) = self.shadow.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let _ = std::fs::remove_dir_all(&self.log.dir);
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

/// A durable range — everything from the first registration on is in
/// its log — with two doors, two printers (one out of paper) and the
/// Figure 3 classes.
fn rig(snapshot_every: u64) -> Rig {
    let plan = capa_level10();
    let mut ids = GuidGenerator::seeded(404);
    let mut cs = ContextServer::new(ids.next_guid(), "level-ten", plan.clone());
    let log = DurabilityConfig {
        fsync: sci::wal::FsyncPolicy::Never,
        snapshot_every,
        ..DurabilityConfig::new(tmpdir())
    };
    durability::attach(&mut cs, &log, VirtualTime::ZERO).unwrap();
    let mut sources = Vec::new();
    for _ in 0..2 {
        sources.push(source(ids.next_guid(), "door", ContextType::Presence, None));
    }
    for paper in [true, false] {
        let printer = Profile::builder(ids.next_guid(), EntityKind::Device, "printer")
            .output(PortSpec::new("status", ContextType::PrinterStatus))
            .attribute("paper", ContextValue::Bool(paper));
        sources.push(printer.build());
    }
    for source in &sources {
        cs.register(source.clone(), VirtualTime::ZERO).unwrap();
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
    let obj_loc_logic = factory(move || ObjLocationLogic::new(p.clone()));
    cs.register_logic(obj_loc, obj_loc_logic.clone());
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
    let path_logic = factory(move || PathLogic::new(p.clone()));
    cs.register_logic(path_ce, path_logic.clone());
    Rig {
        cs,
        shadow: None,
        log,
        logic: HashMap::from([(obj_loc, obj_loc_logic), (path_ce, path_logic)]),
        ids,
        doors: sources[..2].iter().map(Profile::id).collect(),
        printers: sources[2..].iter().map(Profile::id).collect(),
        sources,
        left: Vec::new(),
        queries: Vec::new(),
        starved: BTreeSet::new(),
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
    // 1: subscription accounting, over the bus: every subscription is
    // held by a live instance or is one configuration's own, and the
    // configurations a rewire visits are exactly those without an
    // instance.
    let bus = r.cs.mediator().bus();
    let mut owners = HashMap::new();
    for &sub in r.cs.configurations().flat_map(|c| &c.caa_subs) {
        assert!(bus.is_live(sub), "configuration holds dead {sub}");
        *owners.entry(sub).or_insert(0) += 1;
    }
    for view in bus.iter() {
        let owned = owners.get(&view.id).copied().unwrap_or(0);
        match r.cs.instances().contains(view.subscriber) {
            true => assert_eq!(owned, 0, "instance-held {} is also owned", view.id),
            false => assert_eq!(owned, 1, "orphan or shared {}", view.id),
        }
    }
    let instanceless: BTreeSet<Guid> = (r.cs.configurations())
        .filter(|c| c.instances.is_empty())
        .map(|c| c.query_id)
        .collect();
    assert_eq!(r.cs.direct(), &instanceless);
    // 4: a running subscription and its twin submitted now are fed by
    // the same sources.
    for running in r.queries.clone() {
        let mut twin = running.clone();
        twin.id = r.ids.next_guid();
        let now = r.now;
        let fresh = match r.apply(|cs| cs.submit_query(&twin, now)) {
            Ok(_) => {
                let fed = r.feeding(twin.id);
                r.apply(|cs| cs.cancel_query(twin.id)).unwrap();
                fed
            }
            Err(SciError::Unresolvable(_)) => BTreeSet::new(),
            Err(other) => panic!("twin of {}: {other}", running.id),
        };
        if fresh.is_empty() {
            r.starved.insert(running.id);
        }
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
    // 6: the log written so far recovers to this state.
    r.check_recovery();
}

/// 32 cases in the PR gate; `PROPTEST_CASES`, when set, decides.
fn cases() -> ProptestConfig {
    match std::env::var_os("PROPTEST_CASES") {
        Some(_) => ProptestConfig::default(),
        None => ProptestConfig::with_cases(32),
    }
}

const ROOMS: [&str; 4] = ["lobby", "corridor", "L10.01", "L10.02"];

fn run(ops: &[Op], snapshot_every: u64) {
    let mut r = rig(snapshot_every);
    for op in ops.iter().cloned() {
        r.now = r.now.saturating_add(VirtualDuration::from_secs(1));
        let now = r.now;
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
            Op::SubmitPrinter { app } => {
                let with_paper = vec![Predicate::eq("paper", ContextValue::Bool(true))];
                r.submit((ContextType::PrinterStatus, with_paper), app);
            }
            Op::Cancel { which } => {
                if !r.queries.is_empty() {
                    let idx = which as usize % r.queries.len();
                    let q = r.queries.remove(idx);
                    r.apply(|cs| cs.cancel_query(q.id)).unwrap();
                }
            }
            Op::FailSource { which } => {
                if !r.sources.is_empty() {
                    let failed = r.sources[which as usize % r.sources.len()].id();
                    r.apply(|cs| sci::core::adaptation::repair_source(cs, failed, now));
                }
            }
            Op::SourceLeaves { which } => {
                if !r.sources.is_empty() {
                    let gone = r.sources.remove(which as usize % r.sources.len());
                    r.apply(|cs| cs.deregister(gone.id(), now)).unwrap();
                    r.gone(gone.id());
                    r.left.push(gone);
                }
            }
            Op::SourceReturns { which } => {
                if !r.left.is_empty() {
                    let back = r.left.remove(which as usize % r.left.len());
                    if back.provides(&ContextType::Presence) {
                        r.doors.push(back.id());
                    }
                    if back.provides(&ContextType::PrinterStatus) {
                        r.printers.push(back.id());
                    }
                    r.arrive(back);
                }
            }
            Op::Ingest {
                door,
                subject,
                room,
            } => {
                if !r.doors.is_empty() {
                    let d = r.doors[door as usize % r.doors.len()];
                    let ev = ContextEvent::new(
                        d,
                        ContextType::Presence,
                        ContextValue::record([
                            ("subject", ContextValue::Id(subject_guid(subject))),
                            (
                                "to",
                                ContextValue::place(ROOMS[room as usize % ROOMS.len()]),
                            ),
                        ]),
                        now,
                    );
                    r.apply(|cs| cs.ingest(&ev, now)).unwrap();
                }
            }
            Op::PrinterReports { printer, paper } => {
                if !r.printers.is_empty() {
                    let p = r.printers[printer as usize % r.printers.len()];
                    let ev = ContextEvent::new(
                        p,
                        ContextType::PrinterStatus,
                        ContextValue::record([("paper", ContextValue::Bool(paper))]),
                        now,
                    );
                    r.apply(|cs| cs.ingest(&ev, now)).unwrap();
                }
            }
            Op::RegisterDoor => {
                let id = r.ids.next_guid();
                r.arrive(source(id, "door", ContextType::Presence, None));
                r.doors.push(id);
            }
            Op::RegisterScanner => {
                let id = r.ids.next_guid();
                r.arrive(source(
                    id,
                    "scanner",
                    ContextType::custom("badge-scan"),
                    None,
                ));
            }
            Op::RegisterThermometer { celsius } => {
                let id = r.ids.next_guid();
                let unit = Some(celsius);
                r.arrive(source(id, "thermometer", ContextType::Temperature, unit));
            }
            Op::DeclareEquivalence => r.apply(|cs| {
                cs.declare_equivalence(ContextType::Presence, ContextType::custom("badge-scan"));
            }),
            Op::AppDeparts { app } => {
                if r.apply(|cs| cs.deregister(app_guid(app), now)).is_ok() {
                    r.departed(app_guid(app));
                }
            }
            Op::AppMovesAway { app } => {
                if r.apply(|cs| cs.migrate_out(app_guid(app), now)).is_ok() {
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
    r.clean_up();
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn bookkeeping_survives_arbitrary_operation_sequences(
        ops in prop::collection::vec(arb_op(), 1..40)
    ) {
        // 0: nothing but the attach-time snapshot of the empty range,
        // every record replayed; 3: restored from a snapshot at most two
        // records old.
        for snapshot_every in [0, 3] {
            run(&ops, snapshot_every);
        }
    }
}
