//! What a run reports and how it is printed: one human line per metric
//! (`workload metric value unit`), then the one-line JSON object the
//! driver contract asks for.

use std::fmt::Write as _;

use crate::stats::Adjusted;

/// One reported number. `samples` is how many measurements stand
/// behind it (windows for a rate or a percentile, calls for a probe).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
    /// For a host-adjusted value: the same quantile as measured.
    pub raw: Option<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
            raw: None,
        }
    }

    /// A host-adjusted quantile over windows (see `stats::host_adjusted`).
    pub fn adjusted(name: impl Into<String>, a: Adjusted, unit: &'static str) -> Self {
        Metric {
            raw: Some(a.raw),
            ..Metric::new(name, a.value, unit, a.windows as u64)
        }
    }
}

/// Everything one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations whose output was checked against the reference.
    pub attempted: u64,
    /// Of those, how many differed from it.
    pub failed: u64,
    /// Hash of every generated input.
    pub input_hash: u64,
}

/// `workload metric value unit (n samples)`, one line per metric.
pub fn human_lines(workload: &str, outcome: &Outcome) -> String {
    let mut out = String::new();
    for m in &outcome.metrics {
        let raw = m
            .raw
            .map_or_else(String::new, |raw| format!(", unadjusted {}", number(raw)));
        let _ = writeln!(
            out,
            "{workload} {} {} {} (n={}{raw})",
            m.name,
            number(m.value),
            m.unit,
            m.samples
        );
    }
    let _ = writeln!(
        out,
        "{workload} failed_share {} ratio ({} of {})",
        number(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        outcome.failed,
        outcome.attempted
    );
    let _ = writeln!(out, "{workload} input_hash {:016x}", outcome.input_hash);
    out
}

/// A JSON number with every digit measured; non-finite values (a
/// metric with nothing behind it) print as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The contract's result line:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}
