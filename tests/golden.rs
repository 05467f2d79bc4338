//! Golden outputs: what the middleware delivers, recovers and prints,
//! pinned so that a change which moves any of it is seen.
//!
//! `tests/fixtures/golden/outputs.txt` holds one line per output: its
//! name, its length (deliveries, or bytes of a digest) and the CRC-32
//! (`sci::wal::crc32`) of its text:
//!
//! * the determinism suite's delivery logs — its deployment scenario
//!   for seeds 77 and 78, its sequence scenario for seed 99 — run by the
//!   serial and the threaded driver;
//! * the chaos scenario's outcome for the same seeds: under loss, clean,
//!   and with grouped relays under loss;
//! * every routing table of an overlay given full knowledge
//!   (`SimNetwork::populate_full`) with buckets too small to keep every
//!   node, which hold the nodes offered first;
//! * the durable digest after recovering `tests/fixtures/log-7870285`,
//!   and after restoring a small seeded range from a snapshot of at
//!   least 4 KiB (so the CRC runs in lanes).
//!
//! `tests/fixtures/golden/figures.txt` holds the paper's count figures
//! as the tables `EXPERIMENTS.md` copies: E1's overlay-vs-tree hops,
//! maximum loads and imbalance, and E7's round-trip hops, from the
//! fixtures the `sci-bench` Criterion benches time. Beside the pin,
//! the test asserts the shape of the paper's §3 claim. (E6's and E8's
//! shapes are asserted by `tests/failover.rs` and by
//! `tests/composition.rs::reuse_ablation_changes_instance_growth`.)
//!
//! `tests/fixtures/golden/<example>.stdout` is each example's full
//! output. `cargo test` builds the examples; the test runs them from
//! the target directory it was built into.
//!
//! A change that moves an output rewrites every golden with
//!
//! ```text
//! cargo test --test golden -- --ignored regenerate
//! ```
//!
//! and names the reason in CHANGES.md.

mod support;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use sci::core::durability::{self, attach};
use sci::overlay::hierarchy::HierarchicalNetwork;
use sci::overlay::LoadStats;
use sci::prelude::*;
use sci::sensors::workload::{office_floor, populate, Population};
use sci::wal::crc32;
use sci_bench::{build_federation, build_overlay, forward_once, traffic, MESSAGES_PER_NODE};
use support::chaos::{run_grouped, run_with};
use support::deployment::{log_of, run_deployment, run_sequences, Driver};

const EXAMPLES: [&str; 6] = [
    "quickstart",
    "pathfinder",
    "capa",
    "failover",
    "federation",
    "occupancy",
];

const SEEDS: [u64; 3] = [77, 78, 99];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden")
}

/// `name length crc` for `lines`, joined by newlines.
fn pin(name: String, lines: &[String]) -> String {
    format!(
        "{name} {} {:08x}",
        lines.len(),
        crc32(lines.join("\n").as_bytes())
    )
}

/// `name bytes crc` for a digest.
fn pin_digest(name: &str, digest: &str) -> String {
    format!("{name} {} {:08x}", digest.len(), crc32(digest.as_bytes()))
}

/// Starts every example, stdout piped, from the directory `cargo test`
/// built them into beside this test.
fn spawn_examples() -> Vec<(&'static str, Child)> {
    let exe = std::env::current_exe().expect("test binary path");
    let profile = exe
        .parent()
        .and_then(Path::parent)
        .expect("target/<profile>/deps");
    EXAMPLES
        .iter()
        .map(|&name| {
            let bin = profile.join("examples").join(name);
            let child = Command::new(&bin)
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .unwrap_or_else(|e| {
                    panic!(
                        "{}: {e} (`cargo test` builds the examples; \
                         `cargo build --examples` for this test alone)",
                        bin.display()
                    )
                });
            (name, child)
        })
        .collect()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sci-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The digest of `tests/fixtures/log-7870285` recovered, as
/// `tests/durability_recovery.rs` recovers it.
fn fixture_digest() -> String {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/log-7870285");
    let dir = tmpdir("fixture");
    for name in ["wal-0000000000000000.seg", "snap-0000000000000008.snap"] {
        std::fs::copy(fixture.join(name), dir.join(name)).unwrap();
    }
    let obj_loc = Guid::from_u128(0x0B);
    let plan = capa_level10();
    let logic = HashMap::from([(
        obj_loc,
        factory(move || ObjLocationLogic::new(plan.clone())),
    )]);
    let config = DurabilityConfig {
        snapshot_every: 5,
        ..DurabilityConfig::new(&dir)
    };
    let registry = Registry::new();
    let recovered = durability::recover(
        Guid::from_u128(0xF1),
        "level-ten",
        capa_level10(),
        registry,
        &config,
        &logic,
    );
    let (cs, _) = recovered.unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    durable_digest(&cs)
}

/// A small seeded range — an office floor's doors and thermometers, a
/// standing subscription, 40 ticks of its people — snapshotted, then
/// restored from that snapshot alone: the restored digest.
fn restored_digest() -> String {
    let mut ids = GuidGenerator::seeded(4242);
    let config = Population {
        people: 6,
        printers: 0,
        thermometers: 2,
        dwell: VirtualDuration::from_secs(10),
        seed: 4242,
    };
    let (mut world, _) = populate(office_floor(4), &config, &mut ids).unwrap();
    let mut cs = ContextServer::new(ids.next_guid(), "floor", world.plan().clone());
    for t in world.thermometers() {
        let name = format!("thermo-{}", t.room());
        let profile = Profile::builder(t.id(), EntityKind::Device, name)
            .output(PortSpec::new("t", ContextType::Temperature))
            .build();
        cs.register(profile, VirtualTime::ZERO).unwrap();
    }
    for d in world.door_sensors() {
        let name = format!("doorSensor-{}", d.door());
        let profile = Profile::builder(d.id(), EntityKind::Device, name)
            .output(PortSpec::new("presence", ContextType::Presence))
            .build();
        cs.register(profile, VirtualTime::ZERO).unwrap();
    }
    let query = Query::builder(ids.next_guid(), ids.next_guid())
        .info(ContextType::Temperature)
        .mode(Mode::Subscribe)
        .build();
    cs.submit_query(&query, VirtualTime::ZERO).unwrap();
    let (dt, mut now) = (VirtualDuration::from_secs(2), VirtualTime::ZERO);
    for _ in 0..40 {
        now += dt;
        for event in world.tick(now, dt).unwrap() {
            cs.ingest(&event, now).unwrap();
        }
    }
    cs.drain_outbox();
    let dir = tmpdir("restore");
    let config = DurabilityConfig::new(&dir);
    attach(&mut cs, &config, now).unwrap();
    let snapshot = std::fs::metadata(dir.join(format!("snap-{:016x}.snap", 0))).unwrap();
    assert!(snapshot.len() >= 4096, "{} bytes", snapshot.len());
    let (id, plan) = (cs.id(), world.plan().clone());
    drop(cs);
    let (back, report) =
        durability::recover(id, "floor", plan, Registry::new(), &config, &HashMap::new()).unwrap();
    assert_eq!((report.snapshot_applied, report.replayed), (Some(0), 0));
    let _ = std::fs::remove_dir_all(&dir);
    durable_digest(&back)
}

/// Each node's routing table, nodes in GUID order, in a 64-node overlay
/// given full knowledge with buckets of four.
fn full_overlay_tables() -> Vec<String> {
    let mut net = SimNetwork::new();
    net.set_bucket_capacity(4);
    let mut ids = GuidGenerator::seeded(64);
    let mut guids: Vec<Guid> = (0..64)
        .map(|i| {
            let g = ids.next_guid();
            net.add_node(g, format!("node-{i}")).unwrap();
            g
        })
        .collect();
    net.populate_full();
    guids.sort_unstable();
    guids
        .iter()
        .map(|&g| {
            let table: Vec<String> = net
                .node(g)
                .unwrap()
                .table()
                .iter()
                .map(|e| e.to_string())
                .collect();
            format!("{g}: {}", table.join(" "))
        })
        .collect()
}

/// Every in-process output, pinned, in `outputs.txt` order.
fn outputs() -> Vec<String> {
    let mut lines = Vec::new();
    for seed in SEEDS {
        for (driver, tag) in [(Driver::Serial, "serial"), (Driver::Parallel, "parallel")] {
            let log = match seed {
                99 => log_of(&run_sequences(seed, driver)),
                _ => run_deployment(seed, driver).0,
            };
            lines.push(pin(format!("determinism-{seed}-{tag}"), &log));
        }
    }
    for seed in SEEDS {
        let runs = [
            (
                "lossy",
                run_with(SimNetwork::new(), seed, FaultProbs::lossy(0.3)),
            ),
            ("clean", run_with(SimNetwork::new(), seed, FaultProbs::NONE)),
            (
                "grouped",
                run_grouped(SimNetwork::new(), seed, FaultProbs::lossy(0.3)),
            ),
        ];
        for (tag, outcome) in runs {
            let name = format!(
                "chaos-{seed}-{tag} dedup={} retries={}",
                outcome.dedup_hits, outcome.retry_attempts
            );
            lines.push(pin(name, &outcome.deliveries));
        }
    }
    lines.push(pin("overlay-full-tables".into(), &full_overlay_tables()));
    lines.push(pin_digest("digest-log-7870285", &fixture_digest()));
    lines.push(pin_digest("digest-snapshot-restore", &restored_digest()));
    lines
}

/// E1's network sizes and E7's range counts.
const E1_SIZES: [usize; 4] = [16, 64, 256, 1024];
const E7_RANGES: [usize; 4] = [2, 8, 32, 128];

/// E1 and E7 as `figures.txt`'s tables, after asserting the shape of
/// the paper's §3 claim: the overlay's hops are no more than the
/// tree's, and the tree's bottleneck grows against the overlay's.
fn figures() -> String {
    let mut e1 = format!(
        "E1: overlay vs 4-ary tree, uniform traffic, {MESSAGES_PER_NODE} msgs/node\n\n\
         | N | overlay hops | tree hops | overlay max load | tree max load \
         | overlay imbalance | tree imbalance |\n\
         |---|---|---|---|---|---|---|\n"
    );
    let mut load_ratios = Vec::new();
    for n in E1_SIZES {
        let (mut net, guids) = build_overlay(n, 42);
        let mut tree = HierarchicalNetwork::new(guids.iter().copied(), 4);
        for (src, dst) in traffic(&guids) {
            net.route(src, dst).unwrap();
            tree.route(src, dst).unwrap();
        }
        let (ovl, tree) = (net.stats(), tree.stats());
        let max = |s: &LoadStats| s.max_load().map_or(0, |(_, load)| load);
        assert!(ovl.mean_hops() <= tree.mean_hops(), "N = {n}: overlay hops");
        load_ratios.push(max(tree) as f64 / max(ovl) as f64);
        e1 += &format!(
            "| {n} | {:.2} | {:.2} | {} | {} | {:.2} | {:.2} |\n",
            ovl.mean_hops(),
            tree.mean_hops(),
            max(ovl),
            max(tree),
            ovl.imbalance(),
            tree.imbalance()
        );
    }
    assert!(
        load_ratios.windows(2).all(|w| w[0] < w[1]),
        "tree max load / overlay max load must rise with N: {load_ratios:?}"
    );
    let mut e7 = String::from(
        "E7: a profile query forwarded to another range, 100 queries\n\n\
         | ranges | mean round-trip hops |\n|---|---|\n",
    );
    for ranges in E7_RANGES {
        // Every range count is even, so `from` and `to` always differ.
        let (mut fed, mut ids) = build_federation(ranges, 17);
        let hops: u32 = (0..100)
            .map(|k| forward_once(&mut fed, &mut ids, k % ranges, (k * 13 + 1) % ranges))
            .sum();
        e7 += &format!("| {ranges} | {:.2} |\n", f64::from(hops) / 100.0);
    }
    format!("{e1}\n{e7}")
}

/// Every golden, computed side by side: the examples run as processes
/// and the figures on a thread while the rest runs here.
fn everything() -> (Vec<String>, String, Vec<(&'static str, String)>) {
    let examples = spawn_examples();
    let figures = std::thread::spawn(figures);
    let lines = outputs();
    let printed = examples
        .into_iter()
        .map(|(name, child)| {
            let out = child.wait_with_output().unwrap();
            assert!(
                out.status.success(),
                "example {name} failed: {}",
                out.status
            );
            (name, String::from_utf8(out.stdout).unwrap())
        })
        .collect();
    let figures = figures
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    (lines, figures, printed)
}

#[test]
fn every_output_matches_its_golden() {
    let (lines, figures, printed) = everything();
    let dir = golden_dir();
    let mut moved = Vec::new();
    let pinned = std::fs::read_to_string(dir.join("outputs.txt")).unwrap();
    let pinned: Vec<&str> = pinned.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if pinned.get(i) != Some(&line.as_str()) {
            moved.push(format!("outputs.txt line {}: {line}", i + 1));
        }
    }
    if pinned.len() != lines.len() {
        moved.push(format!(
            "outputs.txt: {} lines, {} pinned",
            lines.len(),
            pinned.len()
        ));
    }
    if figures != std::fs::read_to_string(dir.join("figures.txt")).unwrap() {
        moved.push(format!("figures.txt:\n{figures}"));
    }
    for (name, out) in &printed {
        let golden = std::fs::read_to_string(dir.join(format!("{name}.stdout"))).unwrap();
        if *out != golden {
            moved.push(format!("{name}.stdout:\n{out}"));
        }
    }
    assert!(
        moved.is_empty(),
        "outputs moved from their goldens (regenerate with \
         `cargo test --test golden -- --ignored regenerate` if intended):\n{}",
        moved.join("\n")
    );
}

/// Rewrites every golden from this build.
#[test]
#[ignore = "writes the goldens; run on purpose"]
fn regenerate() {
    let (lines, figures, printed) = everything();
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("outputs.txt"), lines.join("\n") + "\n").unwrap();
    std::fs::write(dir.join("figures.txt"), figures).unwrap();
    for (name, out) in printed {
        std::fs::write(dir.join(format!("{name}.stdout")), out).unwrap();
    }
}
