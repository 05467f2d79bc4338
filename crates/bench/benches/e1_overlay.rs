//! E1 — Figure 1 (the SCINET) and the Section 3 claim:
//! "routing through an overlay network avoids any bottlenecks created
//! when using hierarchical infrastructures whilst achieving comparable
//! performance."
//!
//! The hop counts (the "comparable performance" half) and maximum
//! per-node forwarding loads (the "bottleneck" half) of an identical
//! uniform traffic matrix over the overlay and over a balanced 4-ary
//! hierarchy are counts, pinned by `tests/golden.rs` in
//! `tests/fixtures/golden/figures.txt`. This bench times routing on
//! both arrangements over the same fixtures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sci_bench::{build_overlay, traffic};
use sci_overlay::hierarchy::HierarchicalNetwork;
use sci_overlay::net::SimNetwork;
use sci_types::guid::GuidGenerator;

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_route");
    for n in [64usize, 256, 1024] {
        let (net, guids) = build_overlay(n, 42);
        let pairs = traffic(&guids);
        group.bench_with_input(BenchmarkId::new("overlay", n), &n, |b, _| {
            let mut net = net.clone();
            let mut i = 0;
            b.iter(|| {
                let (src, dst) = pairs[i % pairs.len()];
                i += 1;
                net.route(src, dst).expect("routable")
            });
        });
        let tree = HierarchicalNetwork::new(guids.iter().copied(), 4);
        group.bench_with_input(BenchmarkId::new("hierarchy", n), &n, |b, _| {
            let mut tree = tree.clone();
            let mut i = 0;
            b.iter(|| {
                let (src, dst) = pairs[i % pairs.len()];
                i += 1;
                tree.route(src, dst).expect("routable")
            });
        });
    }
    group.finish();

    // Discovery join cost (the "requiring little initialisation" claim).
    let mut group = c.benchmark_group("e1_discovery_join");
    for n in [32usize, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut net = SimNetwork::new();
                let mut ids = GuidGenerator::seeded(7);
                sci_overlay::discovery::grow_network(&mut net, &mut ids, n, 7).expect("grows")
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_routing
}
criterion_main!(benches);
