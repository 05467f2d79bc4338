//! Per-node load accounting and hop statistics.
//!
//! Experiment E1's measurable: how unevenly does routing load spread?
//! The hierarchical baseline concentrates traffic at the tree root; the
//! overlay spreads it. [`LoadStats`] counts forwards per node and
//! aggregates hop-count distributions.

use sci_types::{Guid, HashMap};

/// Counters for routed traffic across a network.
#[derive(Clone, Debug, Default)]
pub struct LoadStats {
    forwards: HashMap<Guid, u64>,
    hops: Vec<u32>,
    delivered: u64,
    failed: u64,
    recoveries: u64,
}

impl LoadStats {
    /// Creates zeroed stats.
    pub fn new() -> Self {
        LoadStats::default()
    }

    /// Records one forwarding action at `node` (source and intermediate
    /// nodes count; the destination does not forward).
    pub fn record_forward(&mut self, node: Guid) {
        *self.forwards.entry(node).or_insert(0) += 1;
    }

    /// Records a successful delivery that took `hops` hops.
    pub fn record_delivery(&mut self, hops: u32) {
        self.delivered += 1;
        self.hops.push(hops);
    }

    /// Records a routing failure.
    pub fn record_failure(&mut self) {
        self.failed += 1;
    }

    /// Records a lookup-based recovery at a stuck hop.
    pub fn record_recovery(&mut self) {
        self.recoveries += 1;
    }

    /// Lookup-based recoveries performed.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Messages delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages that could not be routed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The most loaded node and its forward count.
    pub fn max_load(&self) -> Option<(Guid, u64)> {
        self.forwards
            .iter()
            .max_by_key(|&(g, &c)| (c, *g))
            .map(|(&g, &c)| (g, c))
    }

    /// Mean forwards over nodes that forwarded at least once.
    pub fn mean_load(&self) -> f64 {
        if self.forwards.is_empty() {
            0.0
        } else {
            self.forwards.values().sum::<u64>() as f64 / self.forwards.len() as f64
        }
    }

    /// Ratio of max to mean load — 1.0 is perfectly even, large values
    /// indicate a bottleneck.
    pub fn imbalance(&self) -> f64 {
        match self.max_load() {
            Some((_, max)) if self.mean_load() > 0.0 => max as f64 / self.mean_load(),
            _ => 0.0,
        }
    }

    /// Mean hops per delivered message.
    pub fn mean_hops(&self) -> f64 {
        if self.hops.is_empty() {
            0.0
        } else {
            self.hops.iter().map(|&h| h as f64).sum::<f64>() / self.hops.len() as f64
        }
    }

    /// Hop counts of every delivered message, in delivery order. The
    /// telemetry layer folds this distribution into its histogram
    /// registry instead of keeping a parallel accounting mechanism.
    pub fn hops(&self) -> &[u32] {
        &self.hops
    }

    /// Maximum hops observed.
    fn max_hops(&self) -> u32 {
        self.hops.iter().copied().max().unwrap_or(0)
    }
}

impl std::fmt::Display for LoadStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "delivered={} failed={} mean_hops={:.2} max_hops={} max_load={} imbalance={:.2}",
            self.delivered,
            self.failed,
            self.mean_hops(),
            self.max_hops(),
            self.max_load().map(|(_, c)| c).unwrap_or(0),
            self.imbalance(),
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn load_accounting() {
        let mut s = LoadStats::new();
        let (a, b) = (Guid::from_u128(1), Guid::from_u128(2));
        s.record_forward(a);
        s.record_forward(a);
        s.record_forward(b);
        s.record_delivery(2);
        s.record_delivery(4);
        s.record_failure();
        assert_eq!(s.max_load(), Some((a, 2)));
        assert_eq!(s.mean_load(), 1.5);
        assert!((s.imbalance() - 2.0 / 1.5).abs() < 1e-12);
        assert_eq!(s.mean_hops(), 3.0);
        assert_eq!(s.max_hops(), 4);
        assert_eq!(s.delivered(), 2);
        assert_eq!(s.failed(), 1);
    }

    #[test]
    fn empty_stats_are_calm() {
        let s = LoadStats::new();
        assert_eq!(s.mean_hops(), 0.0);
        assert_eq!(s.imbalance(), 0.0);
        assert!(s.max_load().is_none());
    }
}
