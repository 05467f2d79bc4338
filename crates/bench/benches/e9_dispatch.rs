//! E9 — indexed dispatch. Publish cost of the indexed
//! [`EventBus`] against the linear-scan oracle [`LinearBus`] as the
//! subscription table grows from 10² to 10⁵ entries with a fixed
//! matching set (~10), plus resolver demand-satisfaction scaling against
//! distractor CE count via the type-keyed profile index.
//!
//! The `publish` rows' distractors never share a source with the probe
//! event, so they say nothing about the table composition builds: one
//! `objLocationCE` instance per followed subject, each wired to every
//! door (Figure 3) — many topics on one source, differing by subject.
//! The `composed` rows are that shape: S subjects × 16 doors, one badge
//! read published, cost required flat in S.
//!
//! Besides the Criterion timings, the harness writes the shape rows to
//! `BENCH_dispatch.json` at the repo root — the machine-readable perf
//! trajectory documented in `EXPERIMENTS.md` (§E9). The indexed bus is
//! timed **with telemetry attached** (counters-only on this hot path),
//! so the rows price the instrumented configuration the middleware
//! actually runs; the registry snapshot rides along under `telemetry`.

use std::collections::HashSet;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sci_bench::Figure3Rig;
use sci_core::resolver::{plan_configuration, Demand};
use sci_event::{EventBus, LinearBus, Topic};
use sci_telemetry::Registry;
use sci_types::{ContextEvent, ContextType, ContextValue, Guid, VirtualTime};

/// Number of subscriptions that match the probe event in every table
/// shape (the acceptance criterion fixes this while total grows).
const MATCHING: usize = 10;

const TABLE_SIZES: [usize; 4] = [100, 1_000, 10_000, 100_000];
/// Followed subjects in the `composed` rows, each wired to [`DOORS`] doors.
const SUBJECT_COUNTS: [usize; 4] = [10, 100, 1_000, 10_000];
const DOORS: usize = 16;
const DISTRACTOR_COUNTS: [usize; 4] = [10, 100, 1_000, 10_000];

fn probe_event() -> ContextEvent {
    ContextEvent::new(
        Guid::from_u128(0xd00d),
        ContextType::Presence,
        ContextValue::record([
            ("subject", ContextValue::Id(Guid::from_u128(0xb0b))),
            ("room", ContextValue::place("L10.01")),
        ]),
        VirtualTime::from_secs(1),
    )
}

/// The topic of the ith subscription in a table of `total`: `MATCHING`
/// presence subscriptions spread evenly through the table, the rest
/// non-matching distractors cycling over type-, source- and
/// subject-keyed shapes so every index family is populated.
fn topic_for_slot(i: usize, total: usize) -> Topic {
    let stride = (total / MATCHING).max(1);
    if i.is_multiple_of(stride) && i / stride < MATCHING {
        return Topic::of_type(ContextType::Presence);
    }
    match i % 3 {
        0 => Topic::of_type(ContextType::custom(format!("distractor-{i}"))),
        1 => Topic::from_source(Guid::from_u128(0x5000 + i as u128)),
        _ => Topic::any().about(Guid::from_u128(0x9000 + i as u128)),
    }
}

/// Both buses holding `topics`, one subscriber each, in order.
fn buses_of(topics: impl Iterator<Item = Topic>, registry: &Registry) -> (EventBus, LinearBus) {
    let mut indexed = EventBus::new();
    indexed.attach_telemetry(registry);
    let mut linear = LinearBus::new();
    for (i, topic) in topics.enumerate() {
        let subscriber = Guid::from_u128(i as u128 + 1);
        indexed.subscribe(subscriber, topic.clone(), false);
        linear.subscribe(subscriber, topic, false);
    }
    (indexed, linear)
}

fn build_buses(total: usize, registry: &Registry) -> (EventBus, LinearBus) {
    buses_of((0..total).map(|i| topic_for_slot(i, total)), registry)
}

fn door(d: usize) -> Guid {
    Guid::from_u128(0xd000 + d as u128)
}

fn subject(s: usize) -> Guid {
    Guid::from_u128(0xb0b0_0000 + s as u128)
}

/// The Figure-3 table: per subject, one presence topic per door.
fn build_composed(subjects: usize, registry: &Registry) -> (EventBus, LinearBus) {
    let topics = (0..subjects).flat_map(|s| {
        (0..DOORS).map(move |d| {
            Topic::of_type(ContextType::Presence)
                .from(door(d))
                .about(subject(s))
        })
    });
    buses_of(topics, registry)
}

/// One badge read of a mid-table subject at one door.
fn badge_read(subjects: usize) -> ContextEvent {
    ContextEvent::new(
        door(DOORS / 2),
        ContextType::Presence,
        ContextValue::record([
            ("subject", ContextValue::Id(subject(subjects / 2))),
            ("to", ContextValue::place("L10.01")),
        ]),
        VirtualTime::from_secs(1),
    )
}

/// Mean microseconds per call of `f`, with a calibration pass sizing the
/// trial count toward ~200ms of measurement.
fn mean_us(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    f();
    let once = start.elapsed().max(std::time::Duration::from_nanos(50));
    let trials = ((0.2 / once.as_secs_f64()) as usize).clamp(3, 20_000);
    let start = Instant::now();
    for _ in 0..trials {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / trials as f64
}

struct PublishRow {
    /// `publish` or `composed`.
    group: &'static str,
    total: usize,
    matching: usize,
    indexed_us: f64,
    linear_us: f64,
}

/// Checks index against oracle on `ev`, then times both.
fn publish_row(
    group: &'static str,
    (mut indexed, mut linear): (EventBus, LinearBus),
    ev: &ContextEvent,
    matching: usize,
) -> PublishRow {
    let a = indexed.publish(ev);
    let b = linear.publish(ev);
    assert_eq!(a, b, "index and oracle must agree before timing");
    assert_eq!(a.len(), matching);
    PublishRow {
        group,
        total: linear.len(),
        matching,
        indexed_us: mean_us(|| {
            indexed.publish(ev);
        }),
        linear_us: mean_us(|| {
            linear.publish(ev);
        }),
    }
}

struct ResolverRow {
    distractors: usize,
    plan_us: f64,
}

fn measure_publish_rows(registry: &Registry) -> Vec<PublishRow> {
    let ev = probe_event();
    let publish = TABLE_SIZES
        .iter()
        .map(|&total| publish_row("publish", build_buses(total, registry), &ev, MATCHING));
    let composed = SUBJECT_COUNTS.iter().map(|&subjects| {
        let buses = build_composed(subjects, registry);
        publish_row("composed", buses, &badge_read(subjects), 1)
    });
    publish.chain(composed).collect()
}

fn measure_resolver_rows() -> Vec<ResolverRow> {
    DISTRACTOR_COUNTS
        .iter()
        .map(|&distractors| {
            let rig = Figure3Rig::new(8, distractors, 9);
            let demand = Demand::of(ContextType::Path);
            let excluded = HashSet::new();
            plan_configuration(rig.cs.profiles(), &demand, &[], &excluded)
                .expect("path demand resolvable");
            ResolverRow {
                distractors,
                plan_us: mean_us(|| {
                    plan_configuration(rig.cs.profiles(), &demand, &[], &excluded)
                        .expect("path demand resolvable");
                }),
            }
        })
        .collect()
}

fn write_json(publish: &[PublishRow], resolver: &[ResolverRow], registry: &Registry) {
    let mut rows: Vec<String> = publish
        .iter()
        .map(|r| {
            let shape = match r.group {
                "composed" => format!("\"subjects\": {}, \"doors\": {DOORS}, ", r.total / DOORS),
                _ => String::new(),
            };
            format!(
                "    {{\"group\": \"{}\", {shape}\"total_subs\": {}, \"matching\": {}, \
                 \"indexed_us\": {:.3}, \"linear_us\": {:.3}, \"speedup\": {:.1}}}",
                r.group,
                r.total,
                r.matching,
                r.indexed_us,
                r.linear_us,
                r.linear_us / r.indexed_us
            )
        })
        .collect();
    rows.extend(resolver.iter().map(|r| {
        format!(
            "    {{\"group\": \"resolver\", \"distractors\": {}, \"plan_us\": {:.3}}}",
            r.distractors, r.plan_us
        )
    }));
    let json = format!(
        "{{\n  \"experiment\": \"e9_dispatch\",\n  \"unit\": \"us\",\n  \"rows\": [\n{}\n  ],\n  \
         \"telemetry\": {}\n}}\n",
        rows.join(",\n"),
        registry.snapshot().to_json()
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_dispatch.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn print_shape_table(publish: &[PublishRow], resolver: &[ResolverRow]) {
    println!("\nE9: publish cost, indexed bus vs linear oracle");
    println!("  publish:  mixed distractors on other sources, {MATCHING} matching");
    println!("  composed: S subjects x {DOORS} doors (Figure 3), one badge read, 1 matching");
    println!(
        "{:>9} {:>10} | {:>12} {:>12} {:>9}",
        "group", "total subs", "indexed (us)", "linear (us)", "speedup"
    );
    for r in publish {
        println!(
            "{:>9} {:>10} | {:>12.2} {:>12.2} {:>8.1}x",
            r.group,
            r.total,
            r.indexed_us,
            r.linear_us,
            r.linear_us / r.indexed_us
        );
    }
    println!("\nE9: path-demand resolution vs distractor CE count (Figure3Rig)");
    println!("{:>11} | {:>10}", "distractors", "plan (us)");
    for r in resolver {
        println!("{:>11} | {:>10.2}", r.distractors, r.plan_us);
    }
    println!();
}

fn bench_dispatch(c: &mut Criterion) {
    let registry = Registry::new();
    let publish = measure_publish_rows(&registry);
    let resolver = measure_resolver_rows();
    print_shape_table(&publish, &resolver);
    write_json(&publish, &resolver, &registry);

    let ev = probe_event();
    let mut group = c.benchmark_group("e9_publish");
    for total in TABLE_SIZES {
        let (mut indexed, mut linear) = build_buses(total, &registry);
        group.bench_with_input(BenchmarkId::new("indexed", total), &ev, |b, ev| {
            b.iter(|| indexed.publish(ev));
        });
        group.bench_with_input(BenchmarkId::new("linear", total), &ev, |b, ev| {
            b.iter(|| linear.publish(ev));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("e9_composed");
    for subjects in SUBJECT_COUNTS {
        let (mut indexed, _) = build_composed(subjects, &registry);
        let ev = badge_read(subjects);
        group.bench_with_input(BenchmarkId::new("indexed", subjects), &ev, |b, ev| {
            b.iter(|| indexed.publish(ev));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("e9_resolver");
    for distractors in [10usize, 1_000] {
        let rig = Figure3Rig::new(8, distractors, 9);
        let demand = Demand::of(ContextType::Path);
        let excluded = HashSet::new();
        group.bench_with_input(
            BenchmarkId::new("plan_path", distractors),
            &demand,
            |b, demand| {
                b.iter(|| {
                    plan_configuration(rig.cs.profiles(), demand, &[], &excluded)
                        .expect("path demand resolvable")
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(60);
    targets = bench_dispatch
}
criterion_main!(benches);
