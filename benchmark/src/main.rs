//! The SCI middleware's end-to-end benchmark. See `README.md` for the
//! catalogue and `../BENCHMARK.json` for the contract it is run under.
//!
//! ```text
//! sci-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! sci-benchmark all [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
//! ```
//!
//! The first form is what the driver runs: one workload, pinned to one
//! CPU, end-to-end metrics (`--trace 0`) or per-layer metrics
//! (`--trace 1`), one JSON object as the last line of stdout. The
//! second runs every workload both ways, each in a process of its own
//! (so `peak_rss_mb` is the workload's), and writes one results file.

mod catalogue;
mod check;
mod churn;
mod crash;
mod fed;
mod gen;
mod ladder;
mod layers;
mod probes;
mod report;
mod rig;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::{Metric, Outcome};
use rig::Population;
use trace::Recorder;
use workloads::{Ctx, Pass, REFERENCE_SECONDS};

/// Size multiplier of `--quick`: about 1 % of the reference sizes.
const QUICK_SCALE: f64 = 0.01;

#[derive(Debug)]
struct Args {
    all: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// Skip pinning: only for `core.runtime.parallel_speedup`'s child.
    unpinned: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage:
  sci-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  sci-benchmark all [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
workloads: relay_wire_durable local_compose control_churn crash_recover";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        all: false,
        workload: None,
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: false,
        quick: false,
        unpinned: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "all" => args.all = true,
            "--quick" => args.quick = true,
            "--unpinned" => args.unpinned = true,
            "--workload" => args.workload = Some(value("--workload")?),
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    match (&args.workload, args.all) {
        (Some(w), false) if workloads::NAMES.contains(&w.as_str()) => Ok(args),
        (Some(w), false) => Err(format!("unknown workload `{w}`")),
        (None, true) => Ok(args),
        _ => Err("give either `all` or `--workload <name>`".to_owned()),
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The end-to-end metrics of one untraced pass, in catalogue order.
fn end_to_end(pass: &Pass) -> Vec<Metric> {
    catalogue::END_TO_END
        .iter()
        .map(|&(name, unit, _, _)| {
            let adjusted = match name {
                "throughput_kops_s" => pass.throughput_kops_s,
                "cpu_us_per_op" => pass.cpu_us_per_op,
                "latency_typical_us" => pass.latency_typical_us,
                "latency_tail_us" => pass.latency_tail_us,
                "setup_s" => pass.setup_s,
                "peak_rss_mb" => return Metric::new(name, sys::peak_rss_mb(), unit, 1),
                other => unreachable!("catalogue names `{other}`, nobody measures it"),
            };
            Metric::adjusted(name, adjusted, unit)
        })
        .collect()
}

/// Runs `local_compose` unpinned in a child process and returns its
/// `stream` throughput — the one number that sees a second core.
fn unpinned_throughput(ctx: &Ctx, seconds: f64) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", "local_compose", "--trace", "0", "--unpinned"])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(ctx.quick.then_some("--quick"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    String::from_utf8(output.stdout)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("local_compose throughput_kops_s "))
        .and_then(|rest| rest.split(' ').next()?.parse().ok())
}

/// The traced run: the workload at half size untraced, then again at
/// half size with spans on, then the probes of the layers it exercises.
fn per_layer(name: &str, ctx: &Ctx, seconds: f64) -> Outcome {
    let half = Ctx {
        scale: ctx.scale / 2.0,
        ..ctx.clone()
    };
    let (plain, _) = workloads::run(name, &half, &mut Recorder::new(false));
    let mut tr = Recorder::new(true);
    let (traced, extras) = workloads::run(name, &half, &mut tr);

    let mut found = layers::counts(&traced.activity);
    for (span, share) in tr.self_time_shares() {
        // Root spans (a batch, a trip, a cycle, a record, a window's
        // close) are the driver's own loop around the library calls.
        let name = match span {
            "batch" | "close" | "trip" | "cycle" | "record" => "span.driver_share".to_owned(),
            other => format!("span.{other}_share"),
        };
        match found.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value += share,
            None => found.push(Metric::new(name, share, "ratio", tr.spans().len() as u64)),
        }
    }
    found.extend([
        Metric::new(
            "trace_overhead_pct",
            (plain.throughput_kops_s.value / traced.throughput_kops_s.value - 1.0) * 100.0,
            "%",
            plain.throughput_kops_s.windows as u64,
        ),
        Metric::adjusted(
            "traced.throughput_kops_s",
            plain.throughput_kops_s,
            "kops/s",
        ),
        Metric::adjusted("traced.latency_typical_us", plain.latency_typical_us, "us"),
        Metric::adjusted("traced.latency_tail_us", plain.latency_tail_us, "us"),
        Metric::adjusted("traced.latency_p99_us", plain.latency_p99_us, "us"),
        Metric::adjusted("traced.wall_us_per_event", plain.wall_us_per_event, "us"),
    ]);

    let probe_windows = if ctx.quick {
        probes::QUICK_WINDOWS
    } else {
        probes::WINDOWS
    };
    let (mut attempted, mut failed) = (
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    );
    match name {
        "relay_wire_durable" => {
            let (rungs, a, f) = ladder::climb(&half, plain.wall_us_per_event.value);
            attempted += a;
            failed += f;
            found.extend(rungs);
            found.extend(probes::relay_wire_durable(
                &Population::new(1),
                probe_windows,
            ));
        }
        "local_compose" => {
            found.extend(probes::local_compose(
                &Population::new(0),
                ctx.seed,
                probe_windows,
            ));
            if let Some(unpinned) = unpinned_throughput(ctx, seconds / 2.0) {
                found.push(Metric::new(
                    "core.runtime.parallel_speedup",
                    unpinned / plain.throughput_kops_s.value,
                    "ratio",
                    plain.throughput_kops_s.windows as u64,
                ));
            }
        }
        "control_churn" => found.extend(probes::control_churn(
            &Population::new(1),
            ctx.seed,
            probe_windows,
        )),
        "crash_recover" => {
            found.extend(probes::crash_recover(
                &Population::new(0),
                &ctx.scratch,
                probe_windows,
            ));
            let extra = |n: &str, v: f64, unit| Metric::new(n, v, unit, 1);
            found.extend([
                extra(
                    "core.durability.ingest_nosnap_kevents_s",
                    extras.ingest_nosnap_kps,
                    "kops/s",
                ),
                extra("core.durability.snapshot_ms", extras.snapshot_ms, "ms"),
                extra(
                    "core.durability.snapshot_replayed",
                    extras.snapshot_replayed,
                    "count",
                ),
            ]);
        }
        other => unreachable!("`{other}` passed validation"),
    }

    let trace_file = out_dir().join(format!("trace-{name}.json"));
    if let Err(e) = std::fs::write(&trace_file, tr.to_json()) {
        eprintln!("could not write {}: {e}", trace_file.display());
    }

    debug_assert!(found
        .iter()
        .all(|m| catalogue::PER_LAYER.iter().any(|c| c.0 == m.name)));
    // Catalogue order; a layer this workload does not exercise reads 0.
    let metrics = catalogue::PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            found
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit, 0))
        })
        .collect();
    Outcome {
        metrics,
        attempted,
        failed,
        input_hash: traced.input_hash,
    }
}

/// The driver's form: one workload, one process, one result line.
fn run_one(args: &Args, name: &str) -> ExitCode {
    // First thing, before any thread exists: every thread spawned from
    // here on inherits the one-CPU mask.
    let placement = if args.unpinned {
        sys::unpinned()
    } else {
        sys::pin_to_lowest_cpu()
    };
    let placement = match placement {
        Ok(p) => p,
        Err(e) => {
            eprintln!("refusing to report: {e}");
            return ExitCode::from(3);
        }
    };
    let scratch = out_dir()
        .join("tmp")
        .join(format!("{name}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::from(4);
    }
    let scale = if args.quick {
        QUICK_SCALE
    } else {
        args.seconds / REFERENCE_SECONDS
    };
    let ctx = Ctx {
        seed: args.seed,
        scale,
        scratch: scratch.clone(),
        quick: args.quick,
    };
    println!(
        "# workload {name} seed {} seconds {} scale {scale} quick {} trace {}",
        args.seed, args.seconds, args.quick, args.trace as u8
    );
    println!(
        "# cores: {} pinned_cpu {} cpus_allowed_list {} nproc {} wal_fs {}",
        placement.cores(),
        placement
            .pinned_to
            .map_or_else(|| "none".to_owned(), |c| c.to_string()),
        placement.allowed_before,
        placement.nproc,
        sys::fs_type(&scratch),
    );

    let outcome = if args.trace {
        per_layer(name, &ctx, args.seconds)
    } else {
        let (pass, _) = workloads::run(name, &ctx, &mut Recorder::new(false));
        Outcome {
            metrics: end_to_end(&pass),
            attempted: pass.attempted,
            failed: pass.failed,
            input_hash: pass.input_hash,
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    print!("{}", report::human_lines(name, &outcome));
    println!("{}", report::result_json(&outcome));
    ExitCode::SUCCESS
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Runs one child in the driver's form, echoing its report; returns its
/// result line.
fn child_result(args: &Args, workload: &str, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    stdout
        .lines()
        .last()
        .filter(|l| l.starts_with('{'))
        .map(str::to_owned)
        .ok_or_else(|| format!("{workload} printed no result line"))
}

/// `all`: every workload untraced and traced, each in its own process;
/// one results file for `compare.py`.
fn run_all(args: &Args) -> ExitCode {
    let out = args.out.clone().unwrap_or_else(|| {
        let kind = if args.quick { "quick" } else { "results" };
        out_dir().join(format!("{kind}-seed{}.json", args.seed))
    });
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let repo = repo.to_string_lossy();
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in workloads::NAMES {
        for trace in [false, true] {
            match child_result(args, workload, trace) {
                Ok(line) => {
                    all_correct &= line.starts_with("{\"correct\": true");
                    runs.push(format!(
                        "    {{\"workload\": \"{workload}\", \"trace\": {}, \"result\": {line}}}",
                        trace as u8
                    ));
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(5);
                }
            }
        }
    }
    let json = format!(
        "{{\n  \"quick\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"cores\": 1,\n  \
         \"rustc\": \"{}\",\n  \"commit\": \"{}\",\n  \"runs\": [\n{}\n  ]\n}}\n",
        args.quick,
        args.seed,
        args.seconds,
        command_output("rustc", &["--version"]),
        command_output("git", &["-C", &repo, "rev-parse", "HEAD"]),
        runs.join(",\n")
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::from(4);
    }
    println!("wrote {}", out.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("some operations failed their check (failed_share > 0)");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(&args, name),
        None => run_all(&args),
    }
}
