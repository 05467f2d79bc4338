//! Crash-matrix durability tests (ISSUE 9 centrepiece) and the one
//! replay path they share with supervised restarts.
//!
//! Three scenarios:
//!
//! 1. **Kill-at-any-byte-prefix.** A Context Server records a rich
//!    command history through its write-ahead log, then we simulate a
//!    crash at every chosen byte offset of the on-disk log: truncate
//!    the segment files to that prefix, recover, and demand that the
//!    recovered durable state equals an uninterrupted oracle that
//!    applied exactly the commands the truncated log still holds — or
//!    that the torn suffix is cleanly reported. The crash offsets are
//!    overridable through `SCI_CRASH_POINTS` (mirroring
//!    `SCI_CHAOS_SEEDS`): unset samples ~96 evenly spaced offsets,
//!    `all` sweeps every byte, an integer `N` samples `N` offsets, and
//!    a comma list names explicit offsets.
//!
//! 2. **Exactly-once redelivery.** A durable range inside a
//!    [`ParallelFederation`] is killed and recovered from its WAL; the
//!    replayed outbox re-offers every delivery since the last
//!    snapshot, and the `(origin, seq)` filter squashes the re-offers
//!    so each application sees each event exactly once across the
//!    crash — including deliveries that were already relayed
//!    cross-range before the range died.
//!
//! 3. **One replay path.** A supervised restart is the same rebuild
//!    from the range's own log, whether that log is a directory or the
//!    in-memory store a supervised range gets at spawn: the record of
//!    the command whose apply panicked is replayed by neither (the
//!    poison rule), a panic outside a logged apply retires nothing,
//!    and the two stores recover any generated history to the same
//!    state, in which nothing a deregister, cancel or migrate-out
//!    removed has come back.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use sci::core::durability;
use sci::core::logic::LogicFactory;
use sci::prelude::*;
use sci::telemetry::{Subscriber, TraceRecord};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory per call (pid + counter), so parallel
/// test binaries and repeated runs never collide.
fn tmpdir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sci-durability-{tag}-{}-{n}", std::process::id()))
}

fn t(secs: u64) -> VirtualTime {
    VirtualTime::from_secs(secs)
}

fn presence(sensor: Guid, subject: u128, at: VirtualTime) -> ContextEvent {
    ContextEvent::new(
        sensor,
        ContextType::Presence,
        ContextValue::record([
            ("subject", ContextValue::Id(Guid::from_u128(subject))),
            ("to", ContextValue::place("L10.01")),
        ]),
        at,
    )
}

// ---------------------------------------------------------------------------
// Scenario 1: kill-at-any-byte-prefix equals the uninterrupted oracle.
// ---------------------------------------------------------------------------

const RANGE_ID: u128 = 0xD00D;
const DERIVER: u128 = 0xDE01;
const DOOR: u128 = 0xD001;
const BADGE: u128 = 0xBA06;
const APP_A: u128 = 0xAAA1;
const APP_B: u128 = 0xAAA2;

/// A deterministic all-durable command history exercising every
/// durable state family: settings, equivalences, profiles, logic
/// classes, advertisements, live subscriptions, a deferred query that
/// fires mid-script, single and batched ingests, heartbeats, history
/// expiry, cancellation and deregistration. Regenerated per use —
/// [`RangeCommand`] is deliberately not `Clone` (it can carry logic
/// factories).
fn durable_script() -> Vec<(RangeCommand, VirtualTime)> {
    let deriver = Guid::from_u128(DERIVER);
    let door = Guid::from_u128(DOOR);
    let badge = Guid::from_u128(BADGE);
    let app_a = Guid::from_u128(APP_A);
    let app_b = Guid::from_u128(APP_B);

    let mut script: Vec<(RangeCommand, VirtualTime)> = vec![
        (RangeCommand::SetReuse(true), t(0)),
        (RangeCommand::SetAutoRegisterPeople(true), t(0)),
        (RangeCommand::SetPlanVerification(false), t(0)),
        (
            RangeCommand::DeclareEquivalence(
                ContextType::Presence,
                ContextType::custom("badge-sighting"),
            ),
            t(0),
        ),
        (
            RangeCommand::Register(Box::new(
                Profile::builder(door, EntityKind::Device, "door-L10.01")
                    .output(PortSpec::new("presence", ContextType::Presence))
                    .attribute("max-silence-us", ContextValue::Int(15_000_000))
                    .build(),
            )),
            t(1),
        ),
        (
            RangeCommand::Register(Box::new(
                Profile::builder(badge, EntityKind::Device, "badge-reader")
                    .output(PortSpec::new(
                        "sight",
                        ContextType::custom("badge-sighting"),
                    ))
                    .build(),
            )),
            t(1),
        ),
        (
            RangeCommand::RegisterLogic(deriver, factory(OccupancyLogic::new)),
            t(1),
        ),
        (
            RangeCommand::Advertise(Box::new(Advertisement::new(door, "presence-feed"))),
            t(2),
        ),
        (
            RangeCommand::Submit(Box::new(
                Query::builder(Guid::from_u128(0x100), app_a)
                    .info(ContextType::Presence)
                    .mode(Mode::Subscribe)
                    .build(),
            )),
            t(2),
        ),
        (
            RangeCommand::Submit(Box::new(
                Query::builder(Guid::from_u128(0x101), app_b)
                    .info(ContextType::Presence)
                    .mode(Mode::Subscribe)
                    .build(),
            )),
            t(2),
        ),
        (
            RangeCommand::Submit(Box::new(
                Query::builder(Guid::from_u128(0x102), app_a)
                    .info(ContextType::Presence)
                    .at(t(8))
                    .build(),
            )),
            t(3),
        ),
    ];
    for k in 0..6u64 {
        let ev = presence(door, 0x1000 + u128::from(k), t(3 + k));
        script.push((RangeCommand::Ingest(ev), t(3 + k)));
    }
    script.push((RangeCommand::Heartbeat(door), t(6)));
    script.push((
        RangeCommand::IngestBatch(vec![
            presence(door, 0x2000, t(9)),
            presence(door, 0x2001, t(9)),
        ]),
        t(9),
    ));
    script.push((RangeCommand::PollTimers, t(9)));
    script.push((RangeCommand::ExpireHistory, t(10)));
    script.push((RangeCommand::Cancel(Guid::from_u128(0x101)), t(10)));
    script.push((RangeCommand::Deregister(badge), t(11)));
    for k in 0..4u64 {
        let ev = presence(door, 0x3000 + u128::from(k), t(12 + k));
        script.push((RangeCommand::Ingest(ev), t(12 + k)));
    }
    script.push((RangeCommand::PollTimers, t(16)));
    script
}

fn logic_resolver() -> HashMap<Guid, LogicFactory> {
    let mut logic: HashMap<Guid, LogicFactory> = HashMap::new();
    logic.insert(Guid::from_u128(DERIVER), factory(OccupancyLogic::new));
    logic
}

/// The oracle: a fresh (WAL-free) server that applied exactly the
/// first `k` script commands without interruption.
fn oracle_digest(k: usize) -> String {
    let mut cs = ContextServer::new(Guid::from_u128(RANGE_ID), "durable-range", capa_level10());
    for (cmd, now) in durable_script().into_iter().take(k) {
        let _ = cs.handle(cmd, now);
    }
    durable_digest(&cs)
}

/// Sorted `(name, len)` of the segment files in a WAL directory.
fn segment_files(dir: &Path) -> Vec<(String, u64)> {
    let mut segs: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                e.metadata().unwrap().len(),
            )
        })
        .collect();
    segs.sort();
    segs
}

/// Stages a crash image: snapshots are copied intact (they are written
/// atomically via rename), and the concatenated segment stream is cut
/// at byte offset `cut` — the straddled segment is truncated, later
/// segments never made it to disk.
fn stage_crash(src: &Path, dst: &Path, cut: u64) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap().filter_map(|e| e.ok()) {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".snap") {
            std::fs::copy(entry.path(), dst.join(&name)).unwrap();
        }
    }
    let mut remaining = cut;
    for (name, len) in segment_files(src) {
        if remaining == 0 {
            break;
        }
        let take = remaining.min(len) as usize;
        let bytes = std::fs::read(src.join(&name)).unwrap();
        std::fs::write(dst.join(&name), &bytes[..take]).unwrap();
        remaining -= take as u64;
    }
}

/// `n` evenly spaced offsets across `[0, total]`, endpoints included.
fn spaced(total: u64, n: u64) -> Vec<u64> {
    if total == 0 {
        return vec![0];
    }
    let n = n.clamp(2, total + 1);
    let mut pts: Vec<u64> = (0..n).map(|i| i * total / (n - 1)).collect();
    pts.dedup();
    pts
}

/// Crash offsets under test. `SCI_CRASH_POINTS` mirrors
/// `SCI_CHAOS_SEEDS`: unset → ~96 spaced offsets, `all` → every byte,
/// an integer → that many spaced offsets, a comma list → explicit
/// offsets (clamped to the log size).
fn crash_points(total: u64) -> Vec<u64> {
    let mut pts = match std::env::var("SCI_CRASH_POINTS") {
        Ok(spec) if spec.trim().eq_ignore_ascii_case("all") => (0..=total).collect(),
        Ok(spec) if spec.contains(',') => spec
            .split(',')
            .filter_map(|s| s.trim().parse::<u64>().ok())
            .map(|c| c.min(total))
            .collect(),
        Ok(spec) => spaced(total, spec.trim().parse::<u64>().unwrap_or(96)),
        Err(_) => spaced(total, 96),
    };
    // Always include a guaranteed-torn offset and both endpoints.
    pts.push(total.saturating_sub(1));
    pts.push(0);
    pts.push(total);
    pts.sort_unstable();
    pts.dedup();
    pts
}

/// The recording run: every command of the script goes through a WAL
/// that snapshots every `snapshot_every` commands (0: only `attach`'s
/// seed), in 2 KiB segments that force rotation. Returns its config.
fn record_script(snapshot_every: u64) -> DurabilityConfig {
    let config = DurabilityConfig {
        dir: tmpdir("record"),
        fsync: FsyncPolicy::Always,
        segment_bytes: 2048,
        snapshot_every,
    };
    let mut cs = ContextServer::new(Guid::from_u128(RANGE_ID), "durable-range", capa_level10());
    durability::attach(&mut cs, &config, VirtualTime::ZERO).unwrap();
    for (i, (cmd, now)) in durable_script().into_iter().enumerate() {
        let kind = cmd.kind();
        cs.handle(cmd, now)
            .unwrap_or_else(|e| panic!("script command {i} ({kind}) failed: {e}"));
    }
    cs.sync_wal().unwrap();
    config
}

/// A snapshot closes the segment it covers, so a crash can only cut
/// what the newest snapshot does not cover. The matrix runs once over
/// the whole history (no snapshot but the seed) and once over the tail
/// behind a snapshot taken two-thirds of the way in.
#[test]
fn truncation_at_any_byte_prefix_recovers_the_oracle_state() {
    for snapshot_every in [0, 20] {
        crash_matrix(snapshot_every);
    }
}

fn crash_matrix(snapshot_every: u64) {
    let config = record_script(snapshot_every);
    let record_dir = config.dir.clone();
    let n = durable_script().len();

    let total: u64 = segment_files(&record_dir).iter().map(|(_, len)| len).sum();
    assert!(total > 0, "recording run produced no log bytes");
    let logic = logic_resolver();

    let mut prev_k = 0u64;
    let mut torn_seen = false;
    for cut in crash_points(total) {
        let scratch = tmpdir("cut");
        stage_crash(&record_dir, &scratch, cut);

        let crash_config = DurabilityConfig {
            dir: scratch.clone(),
            ..config.clone()
        };
        let (recovered, report) = durability::recover(
            Guid::from_u128(RANGE_ID),
            "durable-range",
            capa_level10(),
            Registry::new(),
            &crash_config,
            &logic,
        )
        .unwrap_or_else(|e| panic!("recovery failed at cut {cut}/{total}: {e}"));

        // Commands durably recovered: snapshot floor plus replayed log
        // suffix. Torn tails may only appear for genuine truncations,
        // and recovered history never shrinks as the cut grows.
        let k = report.snapshot_applied.unwrap_or(0) + report.replayed as u64;
        assert_eq!(
            report.replay_errors, 0,
            "cut {cut}/{total}: replay errors {report:?}"
        );
        if report.torn_bytes > 0 {
            torn_seen = true;
            assert!(
                cut < total,
                "cut {cut}/{total}: intact log reported torn: {report:?}"
            );
        }
        assert!(
            k >= prev_k,
            "cut {cut}/{total}: recovered history shrank ({k} < {prev_k})"
        );
        prev_k = k;
        if cut == total {
            assert_eq!(k, n as u64, "full log must recover the whole history");
            assert_eq!(report.torn_bytes, 0, "full log must not report torn bytes");
            assert!(report.torn_detail.is_none());
        }

        assert_eq!(
            durable_digest(&recovered),
            oracle_digest(k as usize),
            "cut {cut}/{total}: recovered state diverges from the oracle at K={k} ({report:?})"
        );
        let _ = std::fs::remove_dir_all(&scratch);
    }
    assert!(torn_seen, "the crash matrix never exercised a torn tail");
    let _ = std::fs::remove_dir_all(&record_dir);
}

/// First index of every file in `dir` named `<prefix><hex index><suffix>`.
fn numbered_files(dir: &Path, prefix: &str, suffix: &str) -> Vec<u64> {
    let mut found: Vec<u64> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.ok()?.file_name().to_string_lossy().into_owned();
            let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
            u64::from_str_radix(hex, 16).ok()
        })
        .collect();
    found.sort_unstable();
    found
}

/// After several snapshots the directory holds what the in-memory
/// store holds: the newest snapshot, and segments starting at or past
/// its index — so a restore reads only the records it does not cover.
#[test]
fn a_snapshot_leaves_no_segment_it_covers_on_disk() {
    let config = record_script(5);
    let snaps = numbered_files(&config.dir, "snap-", ".snap");
    assert_eq!(snaps, [25], "snapshots at 5, 10, …, 25: the newest alone");
    let segments = numbered_files(&config.dir, "wal-", ".seg");
    assert_eq!(segments.first(), Some(&25), "{segments:?}");
    let (recovered, report) = durability::recover(
        Guid::from_u128(RANGE_ID),
        "durable-range",
        capa_level10(),
        Registry::new(),
        &config,
        &logic_resolver(),
    )
    .unwrap();
    assert_eq!(report.snapshot_applied, Some(25));
    assert_eq!(report.replayed, durable_script().len() - 25);
    assert_eq!(
        durable_digest(&recovered),
        oracle_digest(durable_script().len())
    );
    let _ = std::fs::remove_dir_all(&config.dir);
}

/// R6: a log replay and a snapshot restore wire by the same rule. The
/// declaration comes *after* the subscription it affects; replaying
/// the four records used to leave the subscription on the door alone
/// while a snapshot of the same four re-planned it onto both sources.
#[test]
fn a_replay_and_a_snapshot_recover_the_same_wiring() {
    let badge_sighting = ContextType::custom("badge-sighting");
    let query = Guid::from_u128(0x100);
    let history = || {
        vec![
            RangeCommand::Register(Box::new(
                Profile::builder(Guid::from_u128(DOOR), EntityKind::Device, "door")
                    .output(PortSpec::new("presence", ContextType::Presence))
                    .build(),
            )),
            RangeCommand::Register(Box::new(
                Profile::builder(Guid::from_u128(BADGE), EntityKind::Device, "badge-reader")
                    .output(PortSpec::new("sight", badge_sighting.clone()))
                    .build(),
            )),
            RangeCommand::Submit(Box::new(
                Query::builder(query, Guid::from_u128(APP_A))
                    .info(ContextType::Presence)
                    .mode(Mode::Subscribe)
                    .build(),
            )),
            RangeCommand::DeclareEquivalence(ContextType::Presence, badge_sighting.clone()),
        ]
    };
    let wiring = |cs: &ContextServer| -> Vec<String> {
        let bus = cs.mediator().bus();
        let mut topics: Vec<String> = bus.iter().map(|s| s.topic.to_string()).collect();
        topics.sort();
        topics
    };

    let mut recovered = Vec::new();
    for snapshot_every in [0, 4] {
        let dir = tmpdir("wiring");
        let config = DurabilityConfig {
            snapshot_every,
            ..DurabilityConfig::new(&dir)
        };
        let mut cs = ContextServer::new(Guid::from_u128(RANGE_ID), "r", capa_level10());
        durability::attach(&mut cs, &config, t(0)).unwrap();
        for (step, cmd) in history().into_iter().enumerate() {
            cs.handle(cmd, t(step as u64)).unwrap();
        }
        cs.sync_wal().unwrap();
        let live = wiring(&cs);
        assert_eq!(live.len(), 2, "door and badge reader: {live:?}");
        drop(cs);
        let (back, report) = durability::recover(
            Guid::from_u128(RANGE_ID),
            "r",
            capa_level10(),
            Registry::new(),
            &config,
            &HashMap::new(),
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            report.snapshot_applied.is_some_and(|applied| applied > 0),
            snapshot_every > 0
        );
        assert_eq!(wiring(&back), live, "snapshot_every {snapshot_every}");
        assert!(back.audit_configurations().is_clean());
        recovered.push(back.sources_of(query).len());
    }
    assert_eq!(recovered, [2, 2]);
}

// ---------------------------------------------------------------------------
// A failure is in the log (R7), and so is when a source was last heard.
// ---------------------------------------------------------------------------

const DOORS: [u128; 2] = [0xD0, 0xD1];

fn tracked_door(i: usize) -> Profile {
    Profile::builder(
        Guid::from_u128(DOORS[i]),
        EntityKind::Device,
        format!("door-{i}"),
    )
    .output(PortSpec::new("presence", ContextType::Presence))
    .attribute("max-silence-us", ContextValue::Int(15_000_000))
    .build()
}

/// A durable range with two liveness-tracked doors and one `Presence`
/// subscription, every registration in its log.
fn tracked_range(config: &DurabilityConfig) -> ContextServer {
    let mut cs = ContextServer::new(Guid::from_u128(RANGE_ID), "r", capa_level10());
    durability::attach(&mut cs, config, t(0)).unwrap();
    for i in 0..DOORS.len() {
        cs.register(tracked_door(i), t(0)).unwrap();
    }
    let subscribe = Query::builder(Guid::from_u128(0x100), Guid::from_u128(APP_A))
        .info(ContextType::Presence)
        .mode(Mode::Subscribe)
        .build();
    cs.submit_query(&subscribe, t(0)).unwrap();
    cs
}

fn recover_tracked(config: &DurabilityConfig) -> (ContextServer, RecoveryReport) {
    durability::recover(
        Guid::from_u128(RANGE_ID),
        "r",
        capa_level10(),
        Registry::new(),
        config,
        &HashMap::new(),
    )
    .unwrap()
}

/// One reading per door; how many the subscription is delivered.
fn delivered_of_one_reading_per_door(cs: &mut ContextServer, at: VirtualTime) -> usize {
    for door in DOORS {
        cs.ingest(&presence(Guid::from_u128(door), 0xB0B, at), at)
            .unwrap();
    }
    cs.drain_outbox().len()
}

/// R7: door 0 falls silent past its window, `detect_and_repair` fails
/// it, and the range is rebuilt — by a full replay, from snapshots that
/// fall before the failure and after it, and by the supervised-restart
/// path. Every rebuilt range still excludes the door.
#[test]
fn a_recovered_range_remembers_a_failure() {
    use sci::core::adaptation::detect_and_repair;
    for snapshot_every in [0, 1, 2, 3, 4, 5, 6] {
        let dir = tmpdir("r7");
        let config = DurabilityConfig {
            snapshot_every,
            ..DurabilityConfig::new(&dir)
        };
        let mut live = tracked_range(&config);
        live.heartbeat(Guid::from_u128(DOORS[1]), t(20)).unwrap();
        assert_eq!(detect_and_repair(&mut live, t(20)).len(), 1);
        for door in DOORS {
            live.ingest(&presence(Guid::from_u128(door), 0xB0B, t(21)), t(21))
                .unwrap();
        }
        live.sync_wal().unwrap();
        let live_digest = durable_digest(&live);
        assert_eq!(live.excluded().len(), 1);
        assert_eq!(live.drain_outbox().len(), 1, "door 0 is cut off");

        let (mut recovered, report) = recover_tracked(&config);
        assert_eq!(report.replay_errors, 0, "{report:?}");
        assert_eq!(
            durable_digest(&recovered),
            live_digest,
            "snapshot_every {snapshot_every}"
        );
        assert_eq!(recovered.excluded(), live.excluded());
        assert_eq!(recovered.drain_outbox().len(), 1, "regenerated");
        drop(recovered);

        // What a supervised worker restart runs, on the live range.
        let delivered = delivered_of_one_reading_per_door(&mut live, t(22));
        assert_eq!(delivered, 1);
        let (mut restarted, report) = durability::restart(live).unwrap();
        assert_eq!(report.replay_errors, 0, "{report:?}");
        assert_eq!(restarted.excluded().len(), 1);
        restarted.drain_outbox();
        assert_eq!(
            delivered_of_one_reading_per_door(&mut restarted, t(23)),
            1,
            "snapshot_every {snapshot_every}: a restart re-admitted the dead door"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A type is logged by its name alone, so an event ingested as
/// `custom("location")` is replayed as a `Location` event. It must
/// also have been one live: the subscription it reaches, the history it
/// lands in and the recovered digest are the same either way.
#[test]
fn a_custom_spelling_of_a_built_in_type_recovers_as_it_ran() {
    let dir = tmpdir("custom-name");
    let config = DurabilityConfig {
        snapshot_every: 0,
        ..DurabilityConfig::new(&dir)
    };
    let locator = Guid::from_u128(DOORS[0]);
    let mut live = ContextServer::new(Guid::from_u128(RANGE_ID), "r", capa_level10());
    durability::attach(&mut live, &config, t(0)).unwrap();
    let profile = Profile::builder(locator, EntityKind::Device, "locator")
        .output(PortSpec::new("where", ContextType::Location))
        .build();
    live.register(profile, t(0)).unwrap();
    let subscribe = Query::builder(Guid::from_u128(0x100), Guid::from_u128(APP_A))
        .info(ContextType::Location)
        .mode(Mode::Subscribe)
        .build();
    live.submit_query(&subscribe, t(0)).unwrap();
    let sighting = ContextEvent::new(
        locator,
        ContextType::custom("location"),
        ContextValue::record([("subject", ContextValue::Id(Guid::from_u128(0xB0B)))]),
        t(1),
    );
    live.ingest(&sighting, t(1)).unwrap();
    live.sync_wal().unwrap();
    let live_digest = durable_digest(&live);

    let (mut recovered, report) = recover_tracked(&config);
    assert_eq!(report.replay_errors, 0, "{report:?}");
    assert_eq!(durable_digest(&recovered), live_digest);
    assert_eq!(live.drain_outbox().len(), 1, "delivered live");
    assert_eq!(recovered.drain_outbox().len(), 1, "regenerated");
    let _ = std::fs::remove_dir_all(&dir);
}

/// R6's shape once more: a restore re-registers every source as heard
/// at the snapshot's instant, a replay reproduces when each really was.
/// The same log recovered both ways names the same silent sources.
#[test]
fn a_restored_range_remembers_when_it_last_heard_each_source() {
    let mut silent = Vec::new();
    for snapshot_every in [0, 3] {
        let dir = tmpdir("liveness");
        let config = DurabilityConfig {
            snapshot_every,
            ..DurabilityConfig::new(&dir)
        };
        let mut cs = tracked_range(&config);
        cs.heartbeat(Guid::from_u128(DOORS[0]), t(10)).unwrap();
        cs.heartbeat(Guid::from_u128(DOORS[1]), t(12)).unwrap();
        // Record 6: with `snapshot_every` 3 the snapshot is taken here.
        cs.poll_timers(t(14)).unwrap();
        cs.sync_wal().unwrap();
        let live = cs.mediator().silent_publishers(t(26));
        assert_eq!(live.len(), 1, "door 0: 16 s of silence, door 1: 14 s");
        let live_digest = durable_digest(&cs);
        drop(cs);

        let (recovered, report) = recover_tracked(&config);
        assert_eq!(report.snapshot_applied, Some(snapshot_every * 2));
        assert_eq!(recovered.mediator().silent_publishers(t(26)), live);
        assert_eq!(durable_digest(&recovered), live_digest);
        silent.push(live);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(silent[0], silent[1]);
}

/// A log written by the build before `fail` and the liveness table
/// existed (commit 7870285: tags 0-20, a snapshot without
/// `<liveness>`) recovers to the state that build saw.
#[test]
fn a_log_written_before_the_fail_command_recovers_unchanged() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/log-7870285");
    let dir = tmpdir("parent-log");
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["wal-0000000000000000.seg", "snap-0000000000000008.snap"] {
        std::fs::copy(fixture.join(name), dir.join(name)).unwrap();
    }
    let obj_loc = Guid::from_u128(0x0B);
    let plan = capa_level10();
    let logic = HashMap::from([(
        obj_loc,
        factory(move || ObjLocationLogic::new(plan.clone())),
    )]);
    // That build left the records its snapshot covers in the active
    // segment, [0, 12) behind `snap-8`.
    let config = DurabilityConfig {
        snapshot_every: 5,
        ..DurabilityConfig::new(&dir)
    };
    let (mut recovered, report) = durability::recover(
        Guid::from_u128(0xF1),
        "level-ten",
        capa_level10(),
        Registry::new(),
        &config,
        &logic,
    )
    .unwrap();
    assert_eq!(report.snapshot_applied, Some(8));
    assert_eq!(
        (report.replayed, report.replay_errors),
        (4, 0),
        "{report:?}"
    );
    assert_eq!(report.torn_bytes, 0);

    // The digest that build wrote beside its log, which has no
    // `<tracked>` rows: the one tracked door is compared apart.
    let mut digest = sci::query::xml::parse(&durable_digest(&recovered)).unwrap();
    digest.children.retain(|c| c.name != "tracked");
    let written = std::fs::read_to_string(fixture.join("digest.xml")).unwrap();
    assert_eq!(digest.to_xml(), written);
    // Heard in the replayed tail? No: restored as heard at the
    // snapshot's instant (t = 4 s), as that build would have.
    let liveness = recovered.mediator().liveness();
    assert_eq!(liveness.len(), 1, "door 1 left in the replayed tail");
    assert_eq!(liveness[0].0, Guid::from_u128(0xD0));
    assert_eq!(liveness[0].1, t(4));

    // Four replayed and one more logged make five: the snapshot that
    // takes closes that segment, and it goes.
    assert_eq!(numbered_files(&dir, "wal-", ".seg"), [0]);
    recovered.heartbeat(Guid::from_u128(0xD0), t(5)).unwrap();
    assert_eq!(numbered_files(&dir, "snap-", ".snap"), [13]);
    assert_eq!(numbered_files(&dir, "wal-", ".seg"), [13]);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Scenario 2: federation kill/recover with exactly-once redelivery.
// ---------------------------------------------------------------------------

fn fed_plan(i: usize) -> FloorPlan {
    FloorPlan::builder("campus")
        .zone(format!("wing-{i}"))
        .room(
            format!("hall-{i}"),
            Rect::with_size(Coord::new(0.0, 0.0), 20.0, 10.0),
        )
        .build()
        .unwrap()
}

fn delivery_keys(deliveries: Vec<AppDelivery>) -> Vec<String> {
    let mut keys: Vec<String> = deliveries.iter().map(|d| format!("{d:?}")).collect();
    keys.sort_unstable();
    keys
}

#[test]
fn killed_range_recovers_from_wal_and_redelivers_exactly_once() {
    let dir = tmpdir("fed");
    let config = DurabilityConfig {
        dir: dir.clone(),
        fsync: FsyncPolicy::Always,
        segment_bytes: 64 * 1024,
        // No mid-run snapshot: replay regenerates the entire outbox, so
        // every pre-crash delivery is re-offered and must be squashed.
        snapshot_every: 1 << 20,
    };

    let a_id = Guid::from_u128(0xA11CE);
    let sensor = Guid::from_u128(0x5E75);
    let mut cs_a = ContextServer::new(a_id, "range-a", fed_plan(0));
    cs_a.register(
        Profile::builder(sensor, EntityKind::Device, "sensor-a")
            .output(PortSpec::new("presence", ContextType::Presence))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    durability::attach(&mut cs_a, &config, VirtualTime::ZERO).unwrap();

    let mut fed = ParallelFederation::new(17);
    fed.add_range(cs_a).unwrap();
    fed.add_range(ContextServer::new(
        Guid::from_u128(0xB0B),
        "range-b",
        fed_plan(1),
    ))
    .unwrap();
    fed.connect_full();

    // One cross-range subscriber homed at range-b, one local at range-a.
    let remote_app = Guid::from_u128(0xA99);
    let local_app = Guid::from_u128(0xA88);
    let fa = fed
        .submit_from(
            "range-b",
            &Query::builder(Guid::from_u128(0x200), remote_app)
                .info(ContextType::Presence)
                .in_range("range-a")
                .mode(Mode::Subscribe)
                .build(),
            t(0),
        )
        .unwrap();
    assert!(
        matches!(fa.answer, QueryAnswer::Subscribed { .. }),
        "{fa:?}"
    );
    let fa = fed
        .submit_from(
            "range-a",
            &Query::builder(Guid::from_u128(0x201), local_app)
                .info(ContextType::Presence)
                .mode(Mode::Subscribe)
                .build(),
            t(0),
        )
        .unwrap();
    assert!(
        matches!(fa.answer, QueryAnswer::Subscribed { .. }),
        "{fa:?}"
    );

    // Wave 1: delivered and consumed before the crash.
    for k in 0..4u64 {
        let ev = presence(sensor, 0x1000 + u128::from(k), t(1 + k));
        fed.ingest_at("range-a", &ev, t(1 + k)).unwrap();
    }
    fed.sync(t(5)).unwrap();
    assert_eq!(delivery_keys(fed.deliveries_for(remote_app)).len(), 4);
    assert_eq!(delivery_keys(fed.deliveries_for(local_app)).len(), 4);

    // Wave 2: relayed and absorbed, but not yet consumed when the
    // range dies.
    for k in 4..6u64 {
        let ev = presence(sensor, 0x1000 + u128::from(k), t(2 + k));
        fed.ingest_at("range-a", &ev, t(2 + k)).unwrap();
    }
    fed.sync(t(9)).unwrap();

    // Crash: the worker is severed and joined, in-memory state is
    // lost; the WAL directory is all that survives (plus the telemetry
    // registry, which stays continuous across the recovery).
    let registry = fed.kill_range("range-a").unwrap();
    let logic: HashMap<Guid, LogicFactory> = HashMap::new();
    let (recovered, report) =
        durability::recover(a_id, "range-a", fed_plan(0), registry, &config, &logic).unwrap();
    assert_eq!(report.torn_bytes, 0, "{report:?}");
    assert_eq!(report.replay_errors, 0, "{report:?}");
    assert!(report.replayed > 0, "{report:?}");

    // Rejoin: the replayed outbox re-offers all six events to both
    // apps; the (origin, seq) filter must squash every one of them.
    let dedup_before = fed.relay_dedup_hits();
    fed.recover_range(recovered).unwrap();
    // Round-trip one command so the recovered worker's startup flush is
    // ordered before the next stream drain (workers stream before
    // replying; the flush precedes command processing).
    fed.command("range-a", RangeCommand::Audit, t(10)).unwrap();
    fed.sync(t(10)).unwrap();
    assert!(
        fed.relay_dedup_hits() > dedup_before,
        "recovery re-offered no duplicates — the redelivery path never ran"
    );
    let wave2 = delivery_keys(fed.deliveries_for(remote_app));
    assert_eq!(wave2.len(), 2, "wave-2 must arrive exactly once: {wave2:?}");
    assert_eq!(delivery_keys(fed.deliveries_for(local_app)).len(), 2);

    // Wave 3: fresh post-recovery traffic must NOT be falsely deduped —
    // the restored stream counters continue past every pre-crash seq.
    for k in 6..9u64 {
        let ev = presence(sensor, 0x1000 + u128::from(k), t(11 + k));
        fed.ingest_at("range-a", &ev, t(11 + k)).unwrap();
    }
    fed.sync(t(30)).unwrap();
    assert_eq!(delivery_keys(fed.deliveries_for(remote_app)).len(), 3);
    assert_eq!(delivery_keys(fed.deliveries_for(local_app)).len(), 3);

    fed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Scenario 3: one replay path — supervised restart is recovery from the
// range's own log, on disk or in memory.
// ---------------------------------------------------------------------------

/// Logic that panics on the first event it ever sees (across all
/// instances sharing the fuse) and computes normally afterwards: one
/// poisoned input, not a persistent defect. Replaying the poisoned
/// event later would *succeed* — and show up as an extra delivery.
struct PanicOnce {
    fuse: Arc<AtomicUsize>,
}

impl EntityLogic for PanicOnce {
    fn on_event(
        &mut self,
        _event: &ContextEvent,
        _binding: &Metadata,
        _now: VirtualTime,
    ) -> Vec<(ContextType, ContextValue)> {
        if self.fuse.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("poisoned first event")
        }
        vec![(ContextType::Temperature, ContextValue::text("21.5C"))]
    }
}

const SENSOR: u128 = 0x5E01;
const LATE_SENSOR: u128 = 0x5E02;

/// A range under `policy` — durably attached to `config.dir`, or left
/// to whatever log the runtime gives it — takes a subscription and then
/// one poisoned ingest, which panics its worker. Returns the runtime
/// and the logic resolver a later recovery needs.
fn poisoned(
    config: Option<&DurabilityConfig>,
    policy: RestartPolicy,
) -> (RangeRuntime, HashMap<Guid, LogicFactory>) {
    let fuse = Arc::new(AtomicUsize::new(0));
    let panic_once = factory(move || PanicOnce {
        fuse: Arc::clone(&fuse),
    });
    let sensor = Guid::from_u128(SENSOR);
    let deriver = Guid::from_u128(DERIVER);
    let mut cs = ContextServer::new(Guid::from_u128(RANGE_ID), "supervised", capa_level10());
    cs.register(
        Profile::builder(sensor, EntityKind::Device, "sensor")
            .output(PortSpec::new("presence", ContextType::Presence))
            .build(),
        t(0),
    )
    .unwrap();
    cs.register(
        Profile::builder(deriver, EntityKind::Software, "deriver")
            .input(PortSpec::new("in", ContextType::Presence))
            .output(PortSpec::new("out", ContextType::Temperature))
            .build(),
        t(0),
    )
    .unwrap();
    cs.register_logic(deriver, panic_once.clone());
    if let Some(config) = config {
        durability::attach(&mut cs, config, t(0)).unwrap();
    }

    let mut rt = RangeRuntime::spawn_supervised(cs, policy);
    let subscribe = Query::builder(Guid::from_u128(0x300), Guid::from_u128(APP_A))
        .info(ContextType::Temperature)
        .mode(Mode::Subscribe)
        .build();
    rt.call(RangeCommand::Submit(Box::new(subscribe)), t(1))
        .unwrap();
    let poisoned = rt.call(RangeCommand::Ingest(presence(sensor, 0x666, t(2))), t(2));
    assert!(
        matches!(poisoned, Err(SciError::RangeDown(_))),
        "{poisoned:?}"
    );
    (rt, HashMap::from([(deriver, panic_once)]))
}

/// [`poisoned`] under a one-restart budget, then a registration and a
/// healthy ingest on the restarted worker. Returns the live server
/// after a graceful shutdown.
fn poisoned_then_restarted(
    config: Option<&DurabilityConfig>,
) -> (ContextServer, HashMap<Guid, LogicFactory>) {
    let (mut rt, logic) = poisoned(config, RestartPolicy::bounded(1));
    assert_eq!(rt.restarts(), 1);
    rt.call(
        RangeCommand::Register(Box::new(
            Profile::builder(
                Guid::from_u128(LATE_SENSOR),
                EntityKind::Device,
                "late-sensor",
            )
            .output(PortSpec::new("presence", ContextType::Presence))
            .build(),
        )),
        t(3),
    )
    .unwrap();
    let healthy = presence(Guid::from_u128(SENSOR), 0x777, t(4));
    rt.call(RangeCommand::Ingest(healthy), t(4)).unwrap();
    let live = rt
        .shutdown()
        .expect("the restarted worker stops gracefully");
    (live, logic)
}

/// The Temperature deliveries waiting in a server's outbox. Exactly
/// one is right: the healthy ingest's. Two means the poisoned ingest
/// was replayed (the fuse has blown, so the replay would not panic).
fn waiting_deliveries(mut cs: ContextServer) -> usize {
    cs.drain_outbox().len()
}

#[test]
fn supervised_durable_range_restarts_from_its_own_disk_log() {
    let dir = tmpdir("supervised");
    let config = DurabilityConfig {
        fsync: FsyncPolicy::Always,
        ..DurabilityConfig::new(&dir)
    };
    let (mut live, logic) = poisoned_then_restarted(Some(&config));

    assert!(live.is_durable(), "the restart kept the range on its log");
    assert!(live.registrar().is_registered(Guid::from_u128(SENSOR)));
    assert!(live.registrar().is_registered(Guid::from_u128(LATE_SENSOR)));
    let telemetry = live.snapshot();
    assert_eq!(telemetry.counter("range.restarts"), 1);
    assert_eq!(telemetry.counter("range.restart.replay_errors"), 0);

    // The directory the range leaves behind rebuilds the *same* state.
    let live_digest = durable_digest(&live);
    live.sync_wal().unwrap();
    assert_eq!(waiting_deliveries(live), 1, "poisoned ingest delivered");
    let (recovered, report) = durability::recover(
        Guid::from_u128(RANGE_ID),
        "supervised",
        capa_level10(),
        Registry::new(),
        &config,
        &logic,
    )
    .unwrap();
    assert_eq!(report.replay_errors, 0, "{report:?}");
    assert_eq!(report.torn_bytes, 0, "a retired record is not a torn tail");
    assert_eq!(durable_digest(&recovered), live_digest);
    assert_eq!(waiting_deliveries(recovered), 1, "recover replayed poison");
    let _ = std::fs::remove_dir_all(&dir);
}

/// No supervision: the range stays down, but the log it leaves behind
/// must not re-run the poisoned command in whoever recovers it.
#[test]
fn an_unsupervised_durable_range_leaves_a_clean_log_behind() {
    let dir = tmpdir("unsupervised");
    let config = DurabilityConfig::new(&dir);
    let (rt, logic) = poisoned(Some(&config), RestartPolicy::NONE);
    assert_eq!(rt.restarts(), 0);
    assert!(
        rt.shutdown().is_none(),
        "the panicked worker's state is gone"
    );
    let (recovered, report) = durability::recover(
        Guid::from_u128(RANGE_ID),
        "supervised",
        capa_level10(),
        Registry::new(),
        &config,
        &logic,
    )
    .unwrap();
    assert_eq!(report.replayed, 1, "the subscription: {report:?}");
    assert_eq!(report.replay_errors, 0, "{report:?}");
    assert_eq!(waiting_deliveries(recovered), 0, "recover replayed poison");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervised_range_without_a_disk_log_restarts_from_memory() {
    let (live, _logic) = poisoned_then_restarted(None);
    assert!(live.registrar().is_registered(Guid::from_u128(SENSOR)));
    assert!(live.registrar().is_registered(Guid::from_u128(LATE_SENSOR)));
    assert_eq!(live.snapshot().counter("range.restart.replay_errors"), 0);

    // Rebuilding once more from the same in-memory log: the poisoned
    // record is still gone, everything else is still there.
    let live_digest = durable_digest(&live);
    let (rebuilt, report) = durability::restart(live).unwrap();
    assert_eq!(report.replay_errors, 0, "{report:?}");
    assert_eq!(durable_digest(&rebuilt), live_digest);
    assert_eq!(waiting_deliveries(rebuilt), 1, "restart replayed poison");
}

/// Panics when the `audit` command's span closes: a panic *inside*
/// `handle`, in a command the log never records.
struct PanicOnAudit;

impl Subscriber for PanicOnAudit {
    fn record(&self, rec: TraceRecord) {
        if rec.name() == "audit" {
            panic!("audit tracing exploded")
        }
    }
}

#[test]
fn a_panic_outside_a_logged_apply_retires_nothing() {
    let dir = tmpdir("audit");
    let config = DurabilityConfig::new(&dir);
    for config in [None, Some(&config)] {
        let mut cs = ContextServer::new(Guid::from_u128(RANGE_ID), "audited", capa_level10());
        cs.set_tracer(Tracer::new(Arc::new(PanicOnAudit)));
        if let Some(config) = config {
            durability::attach(&mut cs, config, t(0)).unwrap();
        }
        let mut rt = RangeRuntime::spawn_supervised(cs, RestartPolicy::bounded(1));
        // The log's tail record: appended *and* applied.
        rt.call(
            RangeCommand::Register(Box::new(
                Profile::builder(Guid::from_u128(SENSOR), EntityKind::Device, "sensor")
                    .output(PortSpec::new("presence", ContextType::Presence))
                    .build(),
            )),
            t(1),
        )
        .unwrap();
        let audit = rt.call(RangeCommand::Audit, t(2));
        assert!(matches!(audit, Err(SciError::RangeDown(_))), "{audit:?}");
        assert_eq!(rt.restarts(), 1);
        let live = rt.shutdown().unwrap();
        assert!(
            live.registrar().is_registered(Guid::from_u128(SENSOR)),
            "the tail record was applied and must survive (disk log: {})",
            config.is_some()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// --- store parity ----------------------------------------------------------

const POOL: usize = 4;

fn pool_entity(i: usize) -> Guid {
    Guid::from_u128(0x1000 + i as u128)
}

fn pool_query(i: usize) -> Guid {
    Guid::from_u128(0x2000 + i as u128)
}

/// One abstract operation of a generated history. Subscriptions are
/// owned by pool entities, so a migrate-out carries them away.
#[derive(Clone, Debug)]
enum Op {
    Register(usize),
    Advertise(usize),
    Subscribe(usize),
    Ingest(usize),
    Deregister(usize),
    Cancel(usize),
    MigrateOut(usize),
    SetReuse(bool),
    PollTimers,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..POOL).prop_map(Op::Register),
        (0..POOL).prop_map(Op::Advertise),
        (0..POOL).prop_map(Op::Subscribe),
        (0..POOL).prop_map(Op::Ingest),
        (0..POOL).prop_map(Op::Ingest),
        (0..POOL).prop_map(Op::Deregister),
        (0..POOL).prop_map(Op::Cancel),
        (0..POOL).prop_map(Op::MigrateOut),
        any::<bool>().prop_map(Op::SetReuse),
        Just(Op::PollTimers),
    ]
}

fn command_of(op: &Op, step: u64) -> RangeCommand {
    match op {
        Op::Register(i) => RangeCommand::Register(Box::new(
            Profile::builder(pool_entity(*i), EntityKind::Device, format!("sensor-{i}"))
                .output(PortSpec::new("presence", ContextType::Presence))
                .build(),
        )),
        Op::Advertise(i) => RangeCommand::Advertise(Box::new(Advertisement::new(
            pool_entity(*i),
            format!("service-{i}"),
        ))),
        Op::Subscribe(i) => RangeCommand::Submit(Box::new(
            Query::builder(pool_query(*i), pool_entity(*i))
                .info(ContextType::Presence)
                .mode(Mode::Subscribe)
                .build(),
        )),
        Op::Ingest(i) => RangeCommand::Ingest(presence(
            pool_entity(*i),
            0x9000 + u128::from(step),
            t(step),
        )),
        Op::Deregister(i) => RangeCommand::Deregister(pool_entity(*i)),
        Op::Cancel(i) => RangeCommand::Cancel(pool_query(*i)),
        Op::MigrateOut(i) => RangeCommand::MigrateOut(pool_entity(*i)),
        Op::SetReuse(v) => RangeCommand::SetReuse(*v),
        Op::PollTimers => RangeCommand::PollTimers,
    }
}

fn parity_server() -> ContextServer {
    ContextServer::new(Guid::from_u128(RANGE_ID), "parity", capa_level10())
}

/// Applies `ops` (errors and all — a refused command is logged and
/// refused again on replay) and returns the server.
fn apply(mut cs: ContextServer, ops: &[Op]) -> ContextServer {
    for (step, op) in ops.iter().enumerate() {
        let step = step as u64;
        let _ = cs.handle(command_of(op, step), t(step));
    }
    cs
}

/// The same history through the in-memory log and through a directory
/// recovers to one state with one report. Returns that state beside
/// the uninterrupted (never logged, never rebuilt) server's.
fn check_store_parity(ops: &[Op]) -> Result<(ContextServer, ContextServer), TestCaseError> {
    let mut cs = parity_server();
    durability::attach_memory(&mut cs, t(0));
    let (from_memory, memory_report) = durability::restart(apply(cs, ops)).unwrap();

    let dir = tmpdir("parity");
    let config = DurabilityConfig::new(&dir);
    let mut cs = parity_server();
    durability::attach(&mut cs, &config, t(0)).unwrap();
    let mut cs = apply(cs, ops);
    cs.sync_wal().unwrap();
    drop(cs);
    let (from_dir, dir_report) = durability::recover(
        Guid::from_u128(RANGE_ID),
        "parity",
        capa_level10(),
        Registry::new(),
        &config,
        &HashMap::new(),
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    prop_assert_eq!(memory_report.snapshot_applied, dir_report.snapshot_applied);
    prop_assert_eq!(memory_report.replayed, dir_report.replayed);
    prop_assert_eq!(memory_report.replay_errors, dir_report.replay_errors);
    prop_assert_eq!(durable_digest(&from_memory), durable_digest(&from_dir));
    Ok((apply(parity_server(), ops), from_dir))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Short histories: recovery is the (empty) seeding snapshot plus a
    /// replay of every record, and lands on exactly the uninterrupted
    /// state — what a deregister, cancel or migrate-out removed has not
    /// come back.
    #[test]
    fn stores_recover_the_same_state_by_replay(
        ops in proptest::collection::vec(op_strategy(), 1..48),
    ) {
        let (uninterrupted, recovered) = check_store_parity(&ops)?;
        prop_assert_eq!(durable_digest(&recovered), durable_digest(&uninterrupted));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Histories longer than the snapshot cadence (256): recovery
    /// starts from a snapshot taken in the middle. A snapshot drops a
    /// subscription that had lost every provider (see
    /// `RecoveryReport::replay_errors`), so the comparison with the
    /// uninterrupted server is one-sided: nothing it lacks comes back.
    #[test]
    fn stores_recover_the_same_state_across_a_snapshot(
        ops in proptest::collection::vec(op_strategy(), 260..330),
    ) {
        let (uninterrupted, recovered) = check_store_parity(&ops)?;
        for i in 0..POOL {
            prop_assert_eq!(
                recovered.registrar().is_registered(pool_entity(i)),
                uninterrupted.registrar().is_registered(pool_entity(i)),
                "entity {}", i
            );
            prop_assert!(
                recovered.configuration(pool_query(i)).is_none()
                    || uninterrupted.configuration(pool_query(i)).is_some(),
                "query {} was resurrected", i
            );
        }
    }
}
