//! Fleet-mode drift detection.
//!
//! A single-plan [`analyze`](crate::analyze) pass certifies a graph
//! before instantiation; this module checks that the certification
//! still holds *afterwards*. Each live configuration implies a set of
//! expected subscriptions (one per plan edge producer, plus the
//! application's root subscriptions); comparing that against the Event
//! Mediator's actual table catches drift — a repair that dropped an
//! edge, an unsubscribe that never happened, a subscription left
//! behind by a torn-down configuration.
//!
//! The comparison is deliberately representation-neutral: both sides
//! are reduced to [`SubscriptionRecord`]s so that `sci-core` (which
//! owns the real `Topic` type) can feed it without this crate
//! depending on `sci-event`.

use sci_types::{ContextType, DiagCode, Diagnostic, Guid, HashSet};

/// One subscription, reduced to the fields static analysis reasons
/// about: who listens, and the type/source/subject filter they listen
/// with. `None` fields are wildcards.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SubscriptionRecord {
    /// The subscribing entity (a CE instance or the owning application).
    pub subscriber: Guid,
    /// The context type filtered on, if any.
    pub ty: Option<ContextType>,
    /// The producing entity filtered on, if any.
    pub source: Option<Guid>,
    /// The subject filtered on, if any.
    pub subject: Option<Guid>,
}

impl SubscriptionRecord {
    /// Builds a record.
    pub fn new(
        subscriber: Guid,
        ty: Option<ContextType>,
        source: Option<Guid>,
        subject: Option<Guid>,
    ) -> Self {
        SubscriptionRecord {
            subscriber,
            ty,
            source,
            subject,
        }
    }

    fn describe(&self) -> String {
        let ty = self
            .ty
            .as_ref()
            .map_or_else(|| "*".to_owned(), ToString::to_string);
        let source = self
            .source
            .map_or_else(|| "*".to_owned(), |g| g.to_string());
        let subject = self
            .subject
            .map_or_else(|| "-".to_owned(), |g| g.to_string());
        format!(
            "{} <- type {ty} from {source} about {subject}",
            self.subscriber
        )
    }
}

/// Set-compares the subscriptions analyzed plans require against the
/// live table.
///
/// * `SCI-A101` (error) — an expected subscription is missing: an
///   analyzed edge is not wired, so context flow is silently broken.
/// * `SCI-A102` (warning) — a live subscription no plan accounts for:
///   leaked wiring that delivers events nobody reasons about.
///
/// Comparison is as *sets*: configurations legitimately share instances
/// (the server reuses equivalent CEs across queries), so the same
/// record may be expected twice but wired once.
pub fn diff_subscriptions(
    expected: &[SubscriptionRecord],
    actual: &[SubscriptionRecord],
) -> Vec<Diagnostic> {
    let expected_set: HashSet<&SubscriptionRecord> = expected.iter().collect();
    let actual_set: HashSet<&SubscriptionRecord> = actual.iter().collect();
    let mut findings = Vec::new();

    let mut reported = HashSet::default();
    for record in expected {
        if !actual_set.contains(record) && reported.insert(record) {
            findings.push(
                Diagnostic::new(
                    DiagCode::MissingSubscription,
                    format!("expected subscription not wired: {}", record.describe()),
                )
                .for_ce(record.subscriber),
            );
        }
    }

    let mut seen = HashSet::default();
    for record in actual {
        if !expected_set.contains(record) && seen.insert(record) {
            findings.push(
                Diagnostic::new(
                    DiagCode::OrphanSubscription,
                    format!(
                        "live subscription no plan accounts for: {}",
                        record.describe()
                    ),
                )
                .for_ce(record.subscriber),
            );
        }
    }
    findings
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_types::Severity;

    fn rec(subscriber: u128, source: u128) -> SubscriptionRecord {
        SubscriptionRecord::new(
            Guid::from_u128(subscriber),
            Some(ContextType::Presence),
            Some(Guid::from_u128(source)),
            None,
        )
    }

    #[test]
    fn matching_tables_are_clean() {
        let expected = vec![rec(1, 10), rec(2, 20)];
        let actual = vec![rec(2, 20), rec(1, 10)];
        assert!(diff_subscriptions(&expected, &actual).is_empty());
    }

    #[test]
    fn a101_missing_subscription_is_error() {
        let expected = vec![rec(1, 10), rec(2, 20)];
        let actual = vec![rec(1, 10)];
        let findings = diff_subscriptions(&expected, &actual);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, DiagCode::MissingSubscription);
        assert_eq!(findings[0].severity, Severity::Error);
    }

    #[test]
    fn a102_orphan_subscription_is_warning() {
        let expected = vec![rec(1, 10)];
        let actual = vec![rec(1, 10), rec(9, 90)];
        let findings = diff_subscriptions(&expected, &actual);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, DiagCode::OrphanSubscription);
        assert_eq!(findings[0].severity, Severity::Warning);
    }

    #[test]
    fn shared_instances_compare_as_sets() {
        // Two configurations expect the same wiring; one live entry is
        // enough, and a missing shared entry is reported once.
        let expected = vec![rec(1, 10), rec(1, 10)];
        assert!(diff_subscriptions(&expected, &[rec(1, 10)]).is_empty());
        let findings = diff_subscriptions(&expected, &[]);
        assert_eq!(findings.len(), 1);
    }
}
