//! Pure protocol model of a federation, for static verification.
//!
//! A live federation (`sci-core::Federation`, `ParallelFederation`)
//! and its fault layer (`sci-overlay::FaultyTransport`) export a
//! [`FederationModel`] — a transport-free description of the ranges,
//! links, declared partitions, retry/backoff constants, freshness
//! bounds, place-directory beliefs and wire peerings the runtime is
//! about to operate under. `sci-analysis::federation` checks the
//! model *before* runtime: routability under partitions (SCI-A201),
//! relay-path cycles (SCI-A202), freshness feasibility (SCI-A203) and
//! wire under every route (SCI-A207). The model holds only what can
//! differ between two federations; what the code fixes (which command
//! kinds are logged, which message classes carry the dedup envelope)
//! is pinned by the unit tests beside it, not re-declared here.
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

/// The declared fault schedule of a transport: its named partition
/// groups.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FaultSchedule {
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
    /// Freshness bounds live configurations impose on relays.
    pub freshness: Vec<FreshnessBound>,
    /// Every place-directory belief held by any node (local overrides
    /// and bootstrap fallbacks alike).
    pub routes: Vec<RouteClaim>,
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
