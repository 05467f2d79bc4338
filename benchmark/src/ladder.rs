//! The ladder: `relay_wire_durable`'s `stream` phase rebuilt one layer
//! at a time, so that each rung's *marginal* microseconds per event is
//! what that layer adds and the rows sum to the top rung by
//! construction.
//!
//! | rung | adds                                                        |
//! |------|-------------------------------------------------------------|
//! | 0    | `ContextServer::handle(IngestBatch)` + `drain_outbox`        |
//! | 1    | a range actor and coordinator (1-range federation, local apps) |
//! | 2    | a second range and the relay (remote apps, `SimNetwork`)     |
//! | 3    | real sockets (`SimNetwork` → `TcpTransport`)                 |
//! | 4    | the WAL (`EveryN(32)`) — the full workload                    |

use std::time::Instant;

use sci_core::runtime::RangeCommand;
use sci_overlay::{SimNetwork, TcpTransport, Transport};
use sci_types::VirtualTime;

use crate::check::Checker;
use crate::fed::{self, AppSpec, Shape, BATCH};
use crate::gen::Generator;
use crate::report::Metric;
use crate::rig::{app_guid, app_index, location_query, query_guid, Population};
use crate::stats::{host_adjusted, Kind, Windowed};
use crate::sys::{HostWatch, YARDSTICK_REF_US};
use crate::trace::Recorder;
use crate::workloads::{relay_shape, Ctx};

/// Batches per rung at the reference scale, and per window.
const BATCHES: (usize, usize) = (200, 10);
/// Applications, as in `relay_wire_durable`.
const APPS: usize = 4;

/// Rung 0: no actor, no coordinator — the server called directly.
fn server_rung((windows, per_window): (usize, usize), seed: u64, check: &mut Checker) -> f64 {
    let pop = Population::new(1);
    let mut cs = pop.server();
    for app in 0..APPS {
        cs.submit_query(
            &location_query(query_guid(app as u64), app_guid(app), None, None),
            VirtualTime::ZERO,
        )
        .expect("subscriber resolves");
    }
    let mut gen = Generator::new(seed, 1);
    let mut clock = 0u64;
    let mut window = |check: &mut Checker| {
        let batches: Vec<Vec<_>> = (0..per_window)
            .map(|_| {
                (0..BATCH)
                    .map(|_| {
                        let reading = gen.reading();
                        (0..APPS).for_each(|app| check.expect(app, &reading));
                        clock += 1;
                        pop.presence(&reading, VirtualTime::from_micros(clock))
                    })
                    .collect()
            })
            .collect();
        let now = VirtualTime::from_micros(clock);
        let mut watch = HostWatch::start();
        let t0 = Instant::now();
        for batch in batches {
            cs.handle(RangeCommand::IngestBatch(batch), now)
                .expect("batch applies");
            for d in cs.drain_outbox() {
                check.observe(app_index(d.app), &d, &pop);
            }
        }
        let us_per_event = t0.elapsed().as_nanos() as f64 / 1e3 / (per_window * BATCH) as f64;
        watch.lap().window(us_per_event)
    };
    window(check);
    let windows: Vec<Windowed> = (0..windows).map(|_| window(check)).collect();
    host_adjusted(&windows, Kind::Time, 50.0, YARDSTICK_REF_US).value
}

/// Rungs 1–4: the workload's own `stream` phase on a partial stack.
fn federation_rung<T: Transport>(
    ctx: &Ctx,
    shape: &Shape,
    transport: T,
    (windows, per_window): (usize, usize),
    check: &mut Checker,
) -> f64 {
    let mut rig = fed::Rig::build(shape, transport, &ctx.scratch, ctx.seed);
    let mut gen = Generator::new(ctx.seed, 1);
    let mut off = Recorder::new(false);
    let run = fed::stream_phase(&mut rig, windows, per_window, &mut gen, check, &mut off);
    rig.teardown();
    let windows: Vec<Windowed> = run
        .windows
        .iter()
        .map(fed::StreamWindow::wall_us_per_event)
        .collect();
    host_adjusted(&windows, Kind::Time, 50.0, YARDSTICK_REF_US).value
}

/// Climbs the ladder. `headline_us_per_event` is what the workload's
/// own run measured; the top rung should agree with it.
pub fn climb(ctx: &Ctx, headline_us_per_event: f64) -> (Vec<Metric>, u64, u64) {
    let size = ctx.windows_of(BATCHES.0, BATCHES.1);
    let mut check = Checker::new();
    let local = Shape {
        ranges: 1,
        apps: vec![
            AppSpec {
                home: 0,
                producer: 0,
                subject: None,
            };
            APPS
        ],
        ingest: vec![0],
        durable: false,
    };
    let relay = Shape {
        durable: false,
        ..relay_shape()
    };
    let rungs = [
        server_rung(size, ctx.seed, &mut check),
        federation_rung(ctx, &local, SimNetwork::new(), size, &mut check),
        federation_rung(ctx, &relay, SimNetwork::new(), size, &mut check),
        federation_rung(ctx, &relay, TcpTransport::new(), size, &mut check),
        federation_rung(ctx, &relay_shape(), TcpTransport::new(), size, &mut check),
    ];
    let names = [
        "ladder.server_us",
        "ladder.runtime_us",
        "ladder.relay_us",
        "ladder.wire_us",
        "ladder.wal_us",
    ];
    let mut metrics: Vec<Metric> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let below = if i == 0 { 0.0 } else { rungs[i - 1] };
            Metric::new(*name, rungs[i] - below, "us", size.0 as u64)
        })
        .collect();
    metrics.push(Metric::new(
        "ladder.residual_pct",
        (rungs[4] / headline_us_per_event - 1.0) * 100.0,
        "%",
        size.0 as u64,
    ));
    let (attempted, failed) = check.verdict();
    (metrics, attempted, failed)
}
