//! Typed diagnostics for static plan verification.
//!
//! The resolver's [`ConfigurationPlan`](crate::ConfigurationPlan) graphs are
//! checked by `sci-analysis` *before* the Context Server instantiates
//! them. Each finding is a [`Diagnostic`] with a stable, documented
//! [`DiagCode`] so applications and tests can match on defect classes
//! without parsing prose, and an [`AnalysisReport`] aggregates the
//! findings of one pass.

use std::fmt;

use crate::guid::Guid;

/// How serious a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Advisory: the plan will run, but something is suspicious.
    Warning,
    /// The plan must not be instantiated.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Stable diagnostic codes emitted by plan analysis.
///
/// Codes are append-only: a released code never changes meaning.
/// `SCI-A0xx` codes come from single-plan verification, `SCI-A1xx`
/// codes from fleet-level drift detection between analyzed plans and
/// the live subscription table. The `SCI-A2xx` federation-model codes
/// are all retired, because the running relay reports what they
/// predicted, and so are the `SCI-A3xx` source lints, because the
/// compiler and clippy now keep what they checked.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum DiagCode {
    /// `SCI-A001`: a producer's output type is incompatible with the
    /// consuming edge's input type.
    TypeMismatch,
    /// `SCI-A002`: the subscription graph contains a cycle, so events
    /// would recirculate forever.
    SubscriptionCycle,
    /// `SCI-A003`: an edge references no producer, a node outside the
    /// plan, or a port the consumer's profile does not declare.
    DanglingEdge,
    /// `SCI-A004`: a node is not reachable from any root, so its events
    /// can never contribute to the answer.
    UnreachableNode,
    /// `SCI-A005`: the same producer feeds the same port twice, or a
    /// port appears on two edges of one node — duplicate subscriptions.
    DuplicateBinding,
    /// `SCI-A006`: multiple producers fan in to a port of a profile
    /// declared `single-input`.
    FanInViolation,
    /// `SCI-A101`: a subscription the analyzed plan requires is missing
    /// from the live subscription table.
    MissingSubscription,
    /// `SCI-A102`: the live subscription table holds a configuration
    /// subscription no analyzed plan accounts for.
    OrphanSubscription,
    // SCI-A204, A205, A206 and A303 are retired (they re-checked
    // constants the code fixes), and so is SCI-A202 (a relay forwards a
    // query at most once, so no query can bounce between ranges).
    // SCI-A201, A203 and A207 are retired too: the runtime counts what
    // they predicted (`fault.partition_blocks`,
    // `federation.freshness.infeasible`, `net.tcp.unknown_peer`), and
    // SCI-A304 is retired because Rust privacy now keeps the one door:
    // a Context Server's `*_impl` arms are private to its module.
    // SCI-A301 and A305 are retired to `clippy.toml`'s disallowed
    // methods and types, and SCI-A302 to `catalogue::Metric`, the only
    // name a registry takes. A retired code is never reused.
}

impl DiagCode {
    /// The stable printable code (e.g. `"SCI-A001"`).
    pub fn code(&self) -> &'static str {
        match self {
            DiagCode::TypeMismatch => "SCI-A001",
            DiagCode::SubscriptionCycle => "SCI-A002",
            DiagCode::DanglingEdge => "SCI-A003",
            DiagCode::UnreachableNode => "SCI-A004",
            DiagCode::DuplicateBinding => "SCI-A005",
            DiagCode::FanInViolation => "SCI-A006",
            DiagCode::MissingSubscription => "SCI-A101",
            DiagCode::OrphanSubscription => "SCI-A102",
        }
    }

    /// The default severity of this defect class.
    pub fn severity(&self) -> Severity {
        match self {
            DiagCode::TypeMismatch
            | DiagCode::SubscriptionCycle
            | DiagCode::DanglingEdge
            | DiagCode::DuplicateBinding
            | DiagCode::FanInViolation
            | DiagCode::MissingSubscription => Severity::Error,
            DiagCode::UnreachableNode | DiagCode::OrphanSubscription => Severity::Warning,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding from a verification pass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// The defect class.
    pub code: DiagCode,
    /// Error or warning (defaults to the code's severity).
    pub severity: Severity,
    /// Human-readable detail.
    pub message: String,
    /// The plan node the finding is about, when node-scoped.
    pub node: Option<usize>,
    /// The Context Entity involved, when known.
    pub ce: Option<Guid>,
}

impl Diagnostic {
    /// Creates a diagnostic at the code's default severity.
    pub fn new(code: DiagCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            node: None,
            ce: None,
        }
    }

    /// Attaches the plan node index.
    #[must_use]
    pub fn at_node(mut self, node: usize) -> Self {
        self.node = Some(node);
        self
    }

    /// Attaches the involved Context Entity.
    #[must_use]
    pub fn for_ce(mut self, ce: Guid) -> Self {
        self.ce = Some(ce);
        self
    }

    /// Returns `true` for error-severity findings.
    fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.severity, self.code, self.message)?;
        if let Some(node) = self.node {
            write!(f, " (node {node})")?;
        }
        if let Some(ce) = self.ce {
            write!(f, " (ce {ce})")?;
        }
        Ok(())
    }
}

/// The aggregated findings of one verification pass.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// An empty (clean) report.
    pub fn new() -> Self {
        AnalysisReport::default()
    }

    /// Adds a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Merges another report's findings into this one.
    pub fn extend(&mut self, other: AnalysisReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All findings, in discovery order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_error())
    }

    /// Returns `true` when no findings at all were produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Returns `true` when at least one error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(Diagnostic::is_error)
    }

    /// Returns `true` when some finding carries `code`.
    pub fn has_code(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// One-line summary suitable for an error message: the error codes
    /// and the first error's detail.
    pub fn summary(&self) -> String {
        let mut codes: Vec<&'static str> = self.errors().map(|d| d.code.code()).collect();
        codes.dedup();
        match self.errors().next() {
            Some(first) => format!("{}: {}", codes.join(","), first.message),
            None => "clean".to_owned(),
        }
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("analysis: clean");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                f.write_str("\n")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let all = [
            DiagCode::TypeMismatch,
            DiagCode::SubscriptionCycle,
            DiagCode::DanglingEdge,
            DiagCode::UnreachableNode,
            DiagCode::DuplicateBinding,
            DiagCode::FanInViolation,
            DiagCode::MissingSubscription,
            DiagCode::OrphanSubscription,
        ];
        let mut codes: Vec<&str> = all.iter().map(DiagCode::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "codes collide");
        assert!(codes.iter().all(|c| c.starts_with("SCI-A")));
    }

    #[test]
    fn report_classifies_by_severity() {
        let mut report = AnalysisReport::new();
        assert!(report.is_clean());
        assert!(!report.has_errors());
        assert_eq!(report.summary(), "clean");

        report.push(Diagnostic::new(DiagCode::UnreachableNode, "leaf unused").at_node(3));
        assert!(!report.is_clean());
        assert!(!report.has_errors(), "warnings do not block");

        report.push(
            Diagnostic::new(DiagCode::TypeMismatch, "path into location port")
                .at_node(1)
                .for_ce(Guid::from_u128(7)),
        );
        assert!(report.has_errors());
        assert!(report.has_code(DiagCode::TypeMismatch));
        assert!(!report.has_code(DiagCode::SubscriptionCycle));
        assert_eq!(report.errors().count(), 1);
        assert!(report.summary().starts_with("SCI-A001"));
        let rendered = report.to_string();
        assert!(rendered.contains("SCI-A004"));
        assert!(rendered.contains("(node 1)"));
    }

    #[test]
    fn severity_defaults_follow_code() {
        assert!(Diagnostic::new(DiagCode::SubscriptionCycle, "x").is_error());
        assert!(!Diagnostic::new(DiagCode::OrphanSubscription, "x").is_error());
        assert_eq!(DiagCode::FanInViolation.to_string(), "SCI-A006");
    }
}
