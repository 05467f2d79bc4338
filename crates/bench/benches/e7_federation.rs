//! E7 — scalability across ranges (Section 3's scalability goal and the
//! CAPA forwarding pattern): federated query latency as the number of
//! ranges grows. The round trips' hop counts are pinned by
//! `tests/golden.rs` in `tests/fixtures/golden/figures.txt`, from the
//! same fixtures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sci_bench::{build_federation, forward_once};
use sci_query::{Mode, Query};
use sci_types::{ContextType, ContextValue, VirtualTime};

fn bench_federation(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_forwarded_query");
    for ranges in [4usize, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(ranges), &ranges, |b, &n| {
            let (mut fed, mut ids) = build_federation(n, 17);
            let mut k = 0usize;
            b.iter(|| {
                let from = k % n;
                let to = (k * 13 + 1) % n;
                k += 1;
                if from == to {
                    0
                } else {
                    forward_once(&mut fed, &mut ids, from, to)
                }
            });
        });
    }
    group.finish();

    c.bench_function("e7_event_relay", |b| {
        // Remote subscription: event produced in range-1 relayed to an
        // app homed in range-0.
        let (mut fed, mut ids) = build_federation(4, 17);
        let app = ids.next_guid();
        let q = Query::builder(ids.next_guid(), app)
            .info(ContextType::Presence)
            .in_range("range-1")
            .mode(Mode::Subscribe)
            .build();
        fed.submit_from("range-0", &q, VirtualTime::ZERO)
            .expect("routes");
        let sensor = fed
            .server("range-1")
            .expect("exists")
            .profiles()
            .providers_of(&ContextType::Presence)[0]
            .id();
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let ev = sci_types::ContextEvent::new(
                sensor,
                ContextType::Presence,
                ContextValue::record([(
                    "subject",
                    ContextValue::Id(sci_types::Guid::from_u128(9)),
                )]),
                VirtualTime::from_micros(k),
            );
            fed.ingest_at("range-1", &ev, VirtualTime::from_micros(k))
                .expect("ingests");
            let d = fed.deliveries_for(app);
            assert_eq!(d.len(), 1);
            d
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_federation
}
criterion_main!(benches);
