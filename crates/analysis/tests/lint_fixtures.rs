//! Fixture-driven acceptance tests for the `sci-lint` passes: one
//! passing fixture and one seeded-violation fixture per SCI-A3xx
//! diagnostic, stored under `fixtures/lint/` as real (uncompiled)
//! Rust sources so they exercise the same textual pipeline CI runs.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use sci_analysis::lint::{check_metric_names, check_nondeterminism, check_std_hasher, Catalogue};
use sci_types::DiagCode;

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/lint/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The real central catalogue, as CI's sci-lint run sees it.
fn live_catalogue() -> Catalogue {
    let path = format!(
        "{}/../telemetry/src/catalogue.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let catalogue = Catalogue::parse(&source);
    assert!(!catalogue.is_empty(), "catalogue parse came back empty");
    catalogue
}

#[test]
fn clean_fixture_passes_every_pass() {
    let src = fixture("clean.rs");
    let catalogue = live_catalogue();
    assert!(
        check_nondeterminism("clean.rs", &src).is_empty(),
        "A301 findings in the clean fixture"
    );
    assert!(
        check_metric_names("clean.rs", &src, &catalogue).is_empty(),
        "A302 findings in the clean fixture"
    );
    assert!(
        check_std_hasher("clean.rs", &src).is_empty(),
        "A305 findings in the clean fixture"
    );
}

#[test]
fn nondeterminism_fixture_is_rejected() {
    let src = fixture("nondeterminism.rs");
    let findings = check_nondeterminism("nondeterminism.rs", &src);
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings
        .iter()
        .all(|d| d.code == DiagCode::NondeterministicCall));
    assert!(findings.iter().all(|d| d.is_error()));
    let rendered = format!("{findings:?}");
    for pattern in ["Instant::now", "thread_rng", "rand::random"] {
        assert!(rendered.contains(pattern), "missing {pattern}: {rendered}");
    }
}

#[test]
fn metric_drift_fixture_is_rejected() {
    let src = fixture("metric_drift.rs");
    let findings = check_metric_names("metric_drift.rs", &src, &live_catalogue());
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|d| d.code == DiagCode::MetricNameDrift));
    let rendered = format!("{findings:?}");
    assert!(rendered.contains("bus.fanout.total"));
    assert!(rendered.contains("range.mailbox.backlog"));
}

#[test]
fn std_hasher_fixture_is_rejected() {
    let src = fixture("std_hasher.rs");
    let findings = check_std_hasher("std_hasher.rs", &src);
    assert_eq!(findings.len(), 4, "{findings:?}");
    assert!(findings.iter().all(|d| d.code == DiagCode::StdHasher));
    assert!(findings.iter().all(|d| d.is_error()));
    let rendered = format!("{findings:?}");
    for line in [":7:", ":16:", ":17:", ":20:"] {
        assert!(rendered.contains(line), "missing line {line}: {rendered}");
    }
}
