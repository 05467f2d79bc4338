//! Pure protocol model of a federation, for static verification.
//!
//! A live federation (`sci-core::Federation`, `ParallelFederation`)
//! and its fault layer (`sci-overlay::FaultyTransport`) export a
//! [`FederationModel`] — a transport-free description of the ranges,
//! links, declared partitions, fault probabilities, retry/backoff
//! constants, restart budgets and freshness bounds the runtime is
//! about to operate under. `sci-analysis::federation` checks the
//! model *before* runtime: routability under partitions (SCI-A201),
//! relay-path cycles (SCI-A202), freshness feasibility (SCI-A203),
//! command-log coverage (SCI-A204) and envelope coverage (SCI-A205).
//!
//! The model lives in `sci-types` so the exporters (core, overlay)
//! and the verifier (analysis) share it without depending on each
//! other.

use crate::guid::Guid;

/// One range (Context Server node) of the federation.
#[derive(Clone, PartialEq, Debug)]
pub struct RangeModel {
    /// The range's overlay node GUID.
    pub id: Guid,
    /// The range's human name (e.g. `"level-ten"`).
    pub name: String,
}

/// Fault probabilities of one link (mirror of the overlay's
/// `FaultProbs`, kept dependency-free here).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct FaultModel {
    /// Probability a send reports failure.
    pub drop: f64,
    /// Probability a send is held back until a flush.
    pub delay: f64,
    /// Probability a successful send delivers twice.
    pub duplicate: f64,
    /// Probability a drained batch of two or more is reversed.
    pub reorder: f64,
    /// Given a drop, the probability of delivery-despite-failure.
    pub ack_loss: f64,
}

/// Fault-probability override for one directed link.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LinkFaultModel {
    /// Sending node.
    pub src: Guid,
    /// Receiving node.
    pub dst: Guid,
    /// The override applied to `src → dst`.
    pub probs: FaultModel,
}

/// The declared fault schedule of a transport: seed, default and
/// per-link probabilities, and named partition groups.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FaultSchedule {
    /// The PRNG seed the schedule replays from.
    pub seed: u64,
    /// Probabilities applied to links without an override.
    pub default_probs: FaultModel,
    /// Per-link overrides, sorted by `(src, dst)`.
    pub link_probs: Vec<LinkFaultModel>,
    /// Node → named partition group, sorted by node. Nodes absent from
    /// the list share the implicit default group `""`.
    pub partitions: Vec<(Guid, String)>,
}

/// The relay retry discipline: attempts and exponential backoff base.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryModel {
    /// Retransmissions attempted before a relay is parked.
    pub retries: u32,
    /// Backoff base in virtual microseconds; attempt `n` waits
    /// `base * 2^(n-1)`.
    pub backoff_base_us: u64,
}

impl Default for RetryModel {
    /// No retries at all (fire-and-forget).
    fn default() -> Self {
        RetryModel {
            retries: 0,
            backoff_base_us: 0,
        }
    }
}

impl RetryModel {
    /// The cumulative worst-case backoff of a fully retried relay, in
    /// virtual microseconds: `base * (2^retries - 1)`.
    pub fn worst_case_backoff_us(&self) -> u64 {
        let doublings = 1u64
            .checked_shl(self.retries)
            .map_or(u64::MAX, |p| p.saturating_sub(1));
        self.backoff_base_us.saturating_mul(doublings)
    }
}

/// A freshness bound (`qoc-max-age-us`) a live configuration imposes
/// on relayed deliveries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FreshnessBound {
    /// The query the bound belongs to.
    pub query: Guid,
    /// Maximum acceptable event age at delivery, in virtual µs.
    pub max_age_us: u64,
}

/// One `place/…` registration as one node's replica holds it: what `at`
/// believes about who covers `place`.
#[derive(Clone, PartialEq, Debug)]
pub struct RouteClaim {
    /// The node holding the belief.
    pub at: Guid,
    /// The place being routed to.
    pub place: String,
    /// The range `at` would forward a query for `place` to.
    pub coverer: Guid,
}

/// One peering a bytes-on-the-wire transport holds or can open.
///
/// In-process transports route by shared memory, so any-to-any
/// reachability is free; a socket transport only reaches peers it has
/// a live connection to or a learned listener address for. The
/// transport exports these claims so `sci-analysis` can prove every
/// directory-implied relay route has wire underneath it (SCI-A207)
/// before traffic is trusted to the federation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TransportLinkModel {
    /// The node that would send.
    pub src: Guid,
    /// The peer it would send to.
    pub dst: Guid,
    /// `true` for a live, handshaken connection; `false` when only a
    /// listener address is known (the link dials lazily on first use).
    pub established: bool,
}

/// One class of cross-range message the protocol exchanges.
#[derive(Clone, PartialEq, Debug)]
pub struct MessageClassModel {
    /// Protocol-level name (e.g. `"event-relay"`).
    pub name: String,
    /// Whether instances travel between ranges over the overlay.
    pub crosses_ranges: bool,
    /// Whether the sender retransmits on failure (at-least-once).
    pub retried: bool,
    /// Whether instances carry the `(origin, seq)` dedup envelope.
    pub enveloped: bool,
}

/// The pure, checkable model of a federation's protocol configuration.
///
/// Built by `Federation::protocol_model()` /
/// `ParallelFederation::protocol_model()`; verified by
/// `sci_analysis::federation::verify_federation`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FederationModel {
    /// The ranges, sorted by GUID.
    pub ranges: Vec<RangeModel>,
    /// Known directed links. Empty means topology unknown (assume
    /// fully connected); verifiers then check partitions only.
    pub links: Vec<(Guid, Guid)>,
    /// The transport's declared fault schedule, when a fault layer is
    /// installed.
    pub faults: Option<FaultSchedule>,
    /// The wire-level peerings a socket transport declares. `None`
    /// means the transport is in-process (shared-memory reachability,
    /// nothing to check); `Some` lists every directed peering that is
    /// live or dialable, and SCI-A207 requires every relay route to
    /// ride on one.
    pub transport_links: Option<Vec<TransportLinkModel>>,
    /// The relay retry discipline.
    pub retry: RetryModel,
    /// Restarts each supervised range may perform (`None`: fail-stop,
    /// no supervision).
    pub restart_budget: Option<u32>,
    /// Freshness bounds live configurations impose on relays.
    pub freshness: Vec<FreshnessBound>,
    /// Every place-directory belief held by any node (local overrides
    /// and bootstrap fallbacks alike).
    pub routes: Vec<RouteClaim>,
    /// The cross-range message classes the protocol exchanges.
    pub messages: Vec<MessageClassModel>,
    /// Every `RangeCommand` kind (kebab-case) with whether a range's
    /// command log records it — the log a crashed range is rebuilt
    /// from, by supervised restart and by disk recovery alike.
    pub logged_kinds: Vec<(String, bool)>,
}

impl FederationModel {
    /// The partition group of `node` under the declared fault
    /// schedule (the implicit default group `""` when none).
    pub fn partition_group(&self, node: Guid) -> &str {
        self.faults
            .as_ref()
            .and_then(|f| {
                f.partitions
                    .iter()
                    .find(|(n, _)| *n == node)
                    .map(|(_, g)| g.as_str())
            })
            .unwrap_or("")
    }

    /// Whether `src → dst` is linked (always `true` when the topology
    /// is unknown, i.e. `links` is empty).
    pub fn linked(&self, src: Guid, dst: Guid) -> bool {
        self.links.is_empty() || self.links.iter().any(|&(a, b)| a == src && b == dst)
    }

    /// Whether `src → dst` has wire underneath it: `true` when the
    /// transport is in-process (`transport_links` is `None`) or when a
    /// live or dialable peering is declared for the directed pair.
    pub fn wired(&self, src: Guid, dst: Guid) -> bool {
        match &self.transport_links {
            None => true,
            Some(links) => links.iter().any(|l| l.src == src && l.dst == dst),
        }
    }

    /// The name of `node`, falling back to its GUID rendering.
    pub fn range_name(&self, node: Guid) -> String {
        self.ranges
            .iter()
            .find(|r| r.id == node)
            .map(|r| r.name.clone())
            .unwrap_or_else(|| node.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_backoff_is_cumulative() {
        let retry = RetryModel {
            retries: 4,
            backoff_base_us: 500,
        };
        // 500 + 1000 + 2000 + 4000 = 500 * (2^4 - 1)
        assert_eq!(retry.worst_case_backoff_us(), 7_500);
        let none = RetryModel {
            retries: 0,
            backoff_base_us: 500,
        };
        assert_eq!(none.worst_case_backoff_us(), 0);
        let huge = RetryModel {
            retries: 64,
            backoff_base_us: u64::MAX,
        };
        assert_eq!(huge.worst_case_backoff_us(), u64::MAX, "saturates");
    }

    #[test]
    fn partition_group_defaults_to_shared() {
        let a = Guid::from_u128(1);
        let b = Guid::from_u128(2);
        let mut model = FederationModel::default();
        assert_eq!(model.partition_group(a), "");
        model.faults = Some(FaultSchedule {
            partitions: vec![(b, "island".into())],
            ..FaultSchedule::default()
        });
        assert_eq!(model.partition_group(a), "");
        assert_eq!(model.partition_group(b), "island");
    }

    #[test]
    fn absent_transport_links_mean_in_process_reachability() {
        let a = Guid::from_u128(1);
        let b = Guid::from_u128(2);
        let mut model = FederationModel::default();
        assert!(model.wired(a, b), "in-process: everything is reachable");
        model.transport_links = Some(vec![TransportLinkModel {
            src: a,
            dst: b,
            established: false,
        }]);
        assert!(model.wired(a, b), "a dialable peering counts");
        assert!(!model.wired(b, a), "wire claims are directed");
    }

    #[test]
    fn empty_links_mean_full_connectivity() {
        let a = Guid::from_u128(1);
        let b = Guid::from_u128(2);
        let mut model = FederationModel::default();
        assert!(model.linked(a, b));
        model.links.push((a, b));
        assert!(model.linked(a, b));
        assert!(!model.linked(b, a), "declared topology is directed");
    }
}
