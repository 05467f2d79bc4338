//! Federation protocol-model verification (SCI-A2xx).
//!
//! A live federation exports a pure
//! [`FederationModel`] — ranges, links,
//! declared partitions, retry/backoff constants, freshness bounds, each
//! node's believed coverers and the transport's wire peerings.
//! [`verify_federation`] checks the model *before* the runtime is
//! trusted with traffic:
//!
//! * **SCI-A201** — every relay route the nodes' place claims imply must
//!   be routable: linked in the declared topology and not crossing a
//!   named partition boundary (both the query's forward leg and the
//!   answer's return leg).
//! * **SCI-A203** — the worst-case retry backoff
//!   (`base * (2^retries - 1)`, accounted in virtual time) must fit
//!   inside every `qoc-max-age-us` bound; a tighter bound makes every
//!   fully-retried relay *guaranteed* stale.
//! * **SCI-A207** — when the transport declares its wire-level
//!   peerings (a socket transport, as opposed to an in-process one),
//!   every claim-implied relay route must ride on a live or
//!   dialable peering in both directions; a route with no wire
//!   underneath it fails only at runtime, with traffic in flight.
//!
//! Every input here can differ between two running federations. What
//! the code fixes once for all of them — which command kinds a range
//! logs, which message classes carry the `(origin, seq)` envelope — is
//! not modelled: the unit tests beside that code pin it (retired
//! SCI-A204–A206, `docs/analysis.md`). Nor is a relay that forwards
//! a forwarded query: `RelayCore::submit_from` forwards a query at
//! most once and returns the coverer's answer or error as it is, so
//! disagreeing replicas cannot make a query bounce (retired SCI-A202;
//! the relay's own test pins the one hop).

use std::collections::HashSet;

use sci_types::{AnalysisReport, DiagCode, Diagnostic, FederationModel, Guid};

/// Verifies a federation protocol model, returning one diagnostic per
/// defect (codes SCI-A201, A203, A207). A clean report means the
/// declared topology, directories, retry discipline and wire peerings
/// are consistent — it does not prove liveness under faults, only the
/// absence of statically-visible protocol defects.
pub fn verify_federation(model: &FederationModel) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    check_routability(model, &mut report);
    check_freshness(model, &mut report);
    check_transport_links(model, &mut report);
    report
}

/// SCI-A201: every claim-implied relay route must be linked and
/// partition-free, in both directions (query out, answer home).
fn check_routability(model: &FederationModel, report: &mut AnalysisReport) {
    let mut flagged: HashSet<(Guid, Guid)> = HashSet::new();
    for claim in &model.routes {
        if claim.at == claim.coverer {
            continue;
        }
        for (src, dst, leg) in [
            (claim.at, claim.coverer, "relay"),
            (claim.coverer, claim.at, "answer"),
        ] {
            if !flagged.insert((src, dst)) {
                continue; // one finding per directed pair
            }
            let (src_group, dst_group) = (model.partition_group(src), model.partition_group(dst));
            if src_group != dst_group {
                report.push(
                    Diagnostic::new(
                        DiagCode::PartitionUnroutable,
                        format!(
                            "{leg} leg {} -> {} for place `{}` crosses partition \
                             groups `{src_group}` and `{dst_group}`",
                            model.range_name(src),
                            model.range_name(dst),
                            claim.place,
                        ),
                    )
                    .for_ce(src),
                );
            } else if !model.linked(src, dst) {
                report.push(
                    Diagnostic::new(
                        DiagCode::PartitionUnroutable,
                        format!(
                            "{leg} leg {} -> {} for place `{}` has no link in the \
                             declared topology",
                            model.range_name(src),
                            model.range_name(dst),
                            claim.place,
                        ),
                    )
                    .for_ce(src),
                );
            } else {
                flagged.remove(&(src, dst));
            }
        }
    }
}

/// SCI-A203: a fully-retried relay must still be able to arrive fresh.
fn check_freshness(model: &FederationModel, report: &mut AnalysisReport) {
    let worst = model.retry.worst_case_backoff_us();
    for bound in &model.freshness {
        if bound.max_age_us < worst {
            report.push(Diagnostic::new(
                DiagCode::FreshnessInfeasible,
                format!(
                    "query {}: qoc-max-age-us {} is below the worst-case retry \
                     backoff of {worst}us ({} retries, base {}us) — a fully \
                     retried relay is guaranteed stale",
                    bound.query, bound.max_age_us, model.retry.retries, model.retry.backoff_base_us,
                ),
            ));
        }
    }
}

/// SCI-A207: every claim-implied relay route must have wire
/// underneath it — a live or dialable peering, in both directions —
/// whenever the transport declares its peerings at all. In-process
/// transports (`transport_links == None`) reach anything and are
/// skipped.
fn check_transport_links(model: &FederationModel, report: &mut AnalysisReport) {
    if model.transport_links.is_none() {
        return;
    }
    let mut flagged: HashSet<(Guid, Guid)> = HashSet::new();
    for claim in &model.routes {
        if claim.at == claim.coverer {
            continue;
        }
        for (src, dst, leg) in [
            (claim.at, claim.coverer, "relay"),
            (claim.coverer, claim.at, "answer"),
        ] {
            if model.wired(src, dst) || !flagged.insert((src, dst)) {
                continue; // wired, or already reported for this pair
            }
            report.push(
                Diagnostic::new(
                    DiagCode::TransportLinkMissing,
                    format!(
                        "{leg} leg {} -> {} for place `{}` has no wire underneath \
                         it: the transport holds neither a live peering nor a \
                         dialable listener address for the pair",
                        model.range_name(src),
                        model.range_name(dst),
                        claim.place,
                    ),
                )
                .for_ce(src),
            );
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_types::{FaultSchedule, FreshnessBound, RangeModel, RetryModel, RouteClaim};

    fn g(raw: u128) -> Guid {
        Guid::from_u128(raw)
    }

    /// A two-range model with consistent directories and feasible
    /// freshness — the passing fixture every check accepts.
    fn healthy() -> FederationModel {
        let (a, b) = (g(1), g(2));
        FederationModel {
            ranges: vec![
                RangeModel {
                    id: a,
                    name: "lobby".into(),
                },
                RangeModel {
                    id: b,
                    name: "level-ten".into(),
                },
            ],
            links: vec![(a, b), (b, a)],
            faults: None,
            transport_links: None,
            retry: RetryModel {
                retries: 4,
                backoff_base_us: 500,
            },
            freshness: vec![FreshnessBound {
                query: g(77),
                max_age_us: 10_000,
            }],
            routes: vec![
                RouteClaim {
                    at: a,
                    place: "L10.01".into(),
                    coverer: b,
                },
                RouteClaim {
                    at: b,
                    place: "L10.01".into(),
                    coverer: b,
                },
            ],
        }
    }

    #[test]
    fn healthy_model_is_clean() {
        let report = verify_federation(&healthy());
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    #[test]
    fn a201_partition_between_claimant_and_coverer() {
        let mut model = healthy();
        model.faults = Some(FaultSchedule {
            partitions: vec![(g(2), "island".into())],
        });
        let report = verify_federation(&model);
        assert!(report.has_code(DiagCode::PartitionUnroutable), "{report}");
        assert!(report.has_errors());
    }

    #[test]
    fn a201_partition_off_the_route_is_harmless() {
        let mut model = healthy();
        // Partition a third range no route claim touches.
        model.ranges.push(RangeModel {
            id: g(3),
            name: "annex".into(),
        });
        model.links.push((g(1), g(3)));
        model.links.push((g(3), g(1)));
        model.faults = Some(FaultSchedule {
            partitions: vec![(g(3), "island".into())],
        });
        assert!(verify_federation(&model).is_clean());
    }

    #[test]
    fn a201_missing_link() {
        let mut model = healthy();
        model.links.retain(|&(src, _)| src != g(2)); // no answer leg
        let report = verify_federation(&model);
        assert!(report.has_code(DiagCode::PartitionUnroutable), "{report}");
        let rendered = report.to_string();
        assert!(rendered.contains("no link"), "{rendered}");
    }

    #[test]
    fn a203_backoff_exceeding_max_age_is_guaranteed_stale() {
        let mut model = healthy();
        // Worst case: 500 * (2^4 - 1) = 7500us. A 5ms bound loses.
        model.freshness.push(FreshnessBound {
            query: g(78),
            max_age_us: 5_000,
        });
        let report = verify_federation(&model);
        assert!(report.has_code(DiagCode::FreshnessInfeasible), "{report}");
        assert_eq!(report.errors().count(), 1, "the 10ms bound stays clean");
    }

    #[test]
    fn a207_in_process_transport_is_skipped() {
        // healthy() declares no transport links: nothing to verify.
        let report = verify_federation(&healthy());
        assert!(!report.has_code(DiagCode::TransportLinkMissing), "{report}");
    }

    #[test]
    fn a207_wired_both_ways_is_clean() {
        use sci_types::TransportLinkModel;
        let mut model = healthy();
        model.transport_links = Some(vec![
            TransportLinkModel {
                src: g(1),
                dst: g(2),
                established: true,
            },
            TransportLinkModel {
                src: g(2),
                dst: g(1),
                // A merely dialable answer leg still counts as wire.
                established: false,
            },
        ]);
        let report = verify_federation(&model);
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    #[test]
    fn a207_missing_answer_leg_is_an_error() {
        use sci_types::TransportLinkModel;
        let mut model = healthy();
        // Forward wire only: the answer could never come home.
        model.transport_links = Some(vec![TransportLinkModel {
            src: g(1),
            dst: g(2),
            established: true,
        }]);
        let report = verify_federation(&model);
        assert!(report.has_code(DiagCode::TransportLinkMissing), "{report}");
        assert!(report.has_errors());
        let rendered = report.to_string();
        assert!(rendered.contains("answer leg"), "{rendered}");
        assert_eq!(report.errors().count(), 1, "one finding per directed pair");
    }

    #[test]
    fn a207_empty_declaration_flags_every_route() {
        let mut model = healthy();
        // A socket transport that peered with nobody.
        model.transport_links = Some(vec![]);
        let report = verify_federation(&model);
        assert!(report.has_code(DiagCode::TransportLinkMissing), "{report}");
        assert_eq!(report.errors().count(), 2, "both legs flagged");
    }
}
