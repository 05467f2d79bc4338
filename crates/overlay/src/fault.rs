//! Deterministic fault injection for any [`Transport`].
//!
//! Pervasive environments face churn as the norm, not the exception:
//! entities arrive and depart, links lose and reorder packets, and
//! whole Ranges fall off the overlay for a while. [`FaultyTransport`]
//! wraps an inner transport and injects exactly those failures — per
//! message, from a seeded PRNG — so every chaotic run is replayable
//! from a single `u64` seed.
//!
//! Fault model, decided per [`Transport::send`] in a fixed draw order
//! (four PRNG draws per send, taken unconditionally, so the schedule
//! depends only on the seed and the call sequence; a batch takes the
//! provided [`Transport::send_all`], one `send` per message, so the
//! schedule is the same over every inner transport):
//!
//! 1. **partition** — if source and destination sit in different named
//!    partition groups, the send fails outright (no PRNG draw).
//! 2. **drop** — with probability [`FaultProbs::drop`] the send reports
//!    failure. A second draw against [`FaultProbs::ack_loss`] decides
//!    whether the message nonetheless reached the destination (ack
//!    loss — the dangerous half of at-least-once delivery) or vanished
//!    entirely (request loss).
//! 3. **delay** — with probability [`FaultProbs::delay`] the message is
//!    held in an internal queue and the send reports failure; the queue
//!    drains into the inner transport on [`Transport::flush`].
//! 4. **duplicate** — with probability [`FaultProbs::duplicate`] the
//!    message is delivered twice; the send reports success.
//!
//! [`Transport::drain`] additionally reverses the drained batch with
//! probability [`FaultProbs::reorder`] whenever it holds two or more
//! messages.
//!
//! Every injected fault is counted in a [`sci_telemetry::Registry`]
//! (`fault.drops`, `fault.delays`, `fault.dups`, `fault.reorders`,
//! `fault.partition_blocks`), surfaced through
//! [`Transport::telemetry`] so federation snapshots can fold the
//! injection schedule into the same view as the recovery counters it
//! provokes.
//!
//! The layer is strictly a decorator: code that does not wrap its
//! transport pays nothing.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sci_telemetry::{catalogue, Counter, Registry};
use sci_types::{Guid, HashMap, SciError, SciResult};

use crate::message::Message;
use crate::net::RouteOutcome;
use crate::stats::LoadStats;
use crate::transport::Transport;

/// Per-link fault probabilities, each in `0.0..=1.0`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProbs {
    /// Probability a send reports failure (see [`FaultProbs::ack_loss`]
    /// for whether the message was actually lost).
    pub drop: f64,
    /// Probability a send is held back and released only on
    /// [`Transport::flush`]; the sender sees a failure.
    pub delay: f64,
    /// Probability a successful send delivers the message twice.
    pub duplicate: f64,
    /// Probability a drained mailbox of two or more messages is
    /// reversed.
    pub reorder: f64,
    /// Given a drop, the probability the message was delivered anyway
    /// (ack loss) rather than lost outright (request loss). `1.0` makes
    /// every "failed" send an at-least-once delivery, which is the
    /// worst case for exactly-once relay layers.
    pub ack_loss: f64,
}

impl FaultProbs {
    /// No faults at all.
    pub const NONE: FaultProbs = FaultProbs {
        drop: 0.0,
        delay: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        ack_loss: 0.0,
    };

    /// A balanced lossy link: drops (half of them ack losses), delays,
    /// duplicates and reorders, each at the given base rate.
    pub fn lossy(rate: f64) -> FaultProbs {
        FaultProbs {
            drop: rate,
            delay: rate,
            duplicate: rate,
            reorder: rate,
            ack_loss: 0.5,
        }
    }
}

impl Default for FaultProbs {
    fn default() -> Self {
        FaultProbs::NONE
    }
}

struct FaultCounters {
    drops: Counter,
    delays: Counter,
    dups: Counter,
    reorders: Counter,
    partition_blocks: Counter,
}

impl FaultCounters {
    fn new(registry: &Registry) -> Self {
        FaultCounters {
            drops: registry.counter(catalogue::FAULT_DROPS),
            delays: registry.counter(catalogue::FAULT_DELAYS),
            dups: registry.counter(catalogue::FAULT_DUPS),
            reorders: registry.counter(catalogue::FAULT_REORDERS),
            partition_blocks: registry.counter(catalogue::FAULT_PARTITION_BLOCKS),
        }
    }
}

/// A fault-injecting decorator around any [`Transport`].
///
/// All randomness comes from one [`StdRng`] seeded at construction;
/// given the same seed and the same sequence of transport calls, the
/// injected fault schedule is identical — a failing chaos run is
/// reproduced by its seed alone.
pub struct FaultyTransport<T> {
    inner: T,
    rng: StdRng,
    seed: u64,
    default_probs: FaultProbs,
    /// Node → named partition group; nodes in different groups cannot
    /// exchange messages. Absent means the common default group.
    partitions: HashMap<Guid, String>,
    delayed: VecDeque<Message>,
    registry: Registry,
    counters: FaultCounters,
}

impl<T> std::fmt::Debug for FaultyTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("seed", &self.seed)
            .field("probs", &self.default_probs)
            .field("delayed", &self.delayed.len())
            .finish()
    }
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with a fault layer driven by `seed`. Starts with
    /// [`FaultProbs::NONE`]: no faults until probabilities are raised,
    /// so topology setup can run clean.
    pub fn new(inner: T, seed: u64) -> Self {
        let registry = Registry::new();
        let counters = FaultCounters::new(&registry);
        FaultyTransport {
            inner,
            rng: StdRng::seed_from_u64(seed),
            seed,
            default_probs: FaultProbs::NONE,
            partitions: HashMap::default(),
            delayed: VecDeque::new(),
            registry,
            counters,
        }
    }

    /// The seed this schedule replays from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Read access to the wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Sets the fault probabilities applied to every link.
    pub fn set_default_probs(&mut self, probs: FaultProbs) {
        self.default_probs = probs;
    }

    /// Assigns `nodes` to the named partition group. Messages cannot
    /// cross group boundaries; nodes never assigned a group share an
    /// implicit default group.
    pub fn partition(&mut self, name: &str, nodes: &[Guid]) {
        for &n in nodes {
            self.partitions.insert(n, name.to_owned());
        }
    }

    /// Removes every named partition (held-back traffic stays queued
    /// until [`Transport::flush`]).
    pub fn heal_partitions(&mut self) {
        self.partitions.clear();
    }

    /// Full recovery: clears partitions, zeroes the fault
    /// probabilities, and flushes all delayed traffic — the
    /// "eventual connectivity" phase of a chaos schedule.
    pub fn heal(&mut self) {
        self.partitions.clear();
        self.default_probs = FaultProbs::NONE;
        self.flush_delayed();
    }

    /// Messages currently held back by delay faults or partitions.
    pub fn delayed_len(&self) -> usize {
        self.delayed.len()
    }

    fn blocked(&self, src: Guid, dst: Guid) -> bool {
        const DEFAULT_GROUP: &str = "";
        let a = self.partitions.get(&src).map_or(DEFAULT_GROUP, |s| s);
        let b = self.partitions.get(&dst).map_or(DEFAULT_GROUP, |s| s);
        a != b
    }

    fn flush_delayed(&mut self) {
        let held = std::mem::take(&mut self.delayed);
        for msg in held {
            if self.blocked(msg.src, msg.dst) {
                self.delayed.push_back(msg);
            } else {
                // The destination may be dead or unroutable in the
                // inner transport; a delayed message that cannot land
                // is simply lost, like any packet in flight at the
                // wrong moment.
                let _ = self.inner.send(msg);
            }
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn add_node(&mut self, guid: Guid, name: &str) -> SciResult<()> {
        self.inner.add_node(guid, name)
    }

    fn find_by_name(&self, name: &str) -> Option<Guid> {
        self.inner.find_by_name(name)
    }

    fn connect_full(&mut self) {
        self.inner.connect_full();
    }

    fn join(&mut self, node: Guid, bootstrap: Guid, seed: u64) -> SciResult<()> {
        self.inner.join(node, bootstrap, seed)
    }

    fn send(&mut self, message: Message) -> SciResult<RouteOutcome> {
        let (src, dst) = (message.src, message.dst);
        if self.blocked(src, dst) {
            self.counters.partition_blocks.inc();
            return Err(SciError::Unroutable { from: src, to: dst });
        }
        let p = self.default_probs;
        // Four unconditional draws per send keep the schedule a pure
        // function of (seed, call sequence), whatever branches fire.
        let drop_roll = self.rng.gen::<f64>();
        let ack_roll = self.rng.gen::<f64>();
        let delay_roll = self.rng.gen::<f64>();
        let dup_roll = self.rng.gen::<f64>();
        if drop_roll < p.drop {
            self.counters.drops.inc();
            if ack_roll < p.ack_loss {
                // Ack loss: the message lands, but the sender is told
                // it did not — retransmission will duplicate it.
                let _ = self.inner.send(message);
            }
            return Err(SciError::Unroutable { from: src, to: dst });
        }
        if delay_roll < p.delay {
            self.counters.delays.inc();
            self.delayed.push_back(message);
            return Err(SciError::Unroutable { from: src, to: dst });
        }
        let outcome = self.inner.send(message.clone())?;
        if dup_roll < p.duplicate {
            self.counters.dups.inc();
            let _ = self.inner.send(message);
        }
        Ok(outcome)
    }

    fn drain(&mut self, node: Guid) -> Vec<Message> {
        let mut messages = self.inner.drain(node);
        if messages.len() >= 2 && self.rng.gen::<f64>() < self.default_probs.reorder {
            self.counters.reorders.inc();
            messages.reverse();
        }
        messages
    }

    fn stats(&self) -> &LoadStats {
        self.inner.stats()
    }

    fn flush(&mut self) {
        self.inner.flush();
        self.flush_delayed();
    }

    fn telemetry(&self) -> Option<&Registry> {
        Some(&self.registry)
    }

    fn publish_registration(&mut self, node: Guid, key: &str, value: &str) -> SciResult<()> {
        // Registration replication is control-plane traffic; the fault
        // layer targets the data plane, so it passes through clean.
        self.inner.publish_registration(node, key, value)
    }

    fn retract_registration(&mut self, node: Guid, key: &str) -> SciResult<()> {
        self.inner.retract_registration(node, key)
    }

    fn registration(&self, node: Guid, key: &str) -> Option<String> {
        self.inner.registration(node, key)
    }

    fn registration_digest(&self, node: Guid) -> Option<u64> {
        self.inner.registration_digest(node)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::message::MessageKind;
    use crate::net::SimNetwork;
    use bytes::Bytes;

    fn msg(id: u128, src: Guid, dst: Guid) -> Message {
        Message::new(
            Guid::from_u128(id),
            src,
            dst,
            MessageKind::Ping,
            Bytes::new(),
        )
    }

    fn rig(seed: u64) -> (FaultyTransport<SimNetwork>, Guid, Guid) {
        let mut t = FaultyTransport::new(SimNetwork::new(), seed);
        let a = Guid::from_u128(0xa);
        let b = Guid::from_u128(0xb);
        t.add_node(a, "a").unwrap();
        t.add_node(b, "b").unwrap();
        t.connect_full();
        (t, a, b)
    }

    #[test]
    fn no_faults_is_transparent() {
        let (mut t, a, b) = rig(1);
        for i in 0..20u128 {
            t.send(msg(i, a, b)).unwrap();
        }
        assert_eq!(t.drain(b).len(), 20);
        let snap = t.telemetry().unwrap().snapshot();
        assert_eq!(snap.counter("fault.drops"), 0);
        assert_eq!(snap.counter("fault.dups"), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let outcome = |seed: u64| {
            let (mut t, a, b) = rig(seed);
            t.set_default_probs(FaultProbs::lossy(0.4));
            let oks: Vec<bool> = (0..50u128).map(|i| t.send(msg(i, a, b)).is_ok()).collect();
            let delivered = t.drain(b).len();
            (oks, delivered, t.telemetry().unwrap().snapshot())
        };
        assert_eq!(outcome(7), outcome(7), "seed 7 replays identically");
        assert_ne!(
            outcome(7).0,
            outcome(8).0,
            "different seeds give different schedules"
        );
    }

    #[test]
    fn drops_and_delays_report_failure() {
        let (mut t, a, b) = rig(3);
        t.set_default_probs(FaultProbs {
            drop: 1.0,
            ack_loss: 0.0,
            ..FaultProbs::NONE
        });
        assert!(t.send(msg(1, a, b)).is_err());
        assert!(t.drain(b).is_empty(), "request loss delivers nothing");

        t.set_default_probs(FaultProbs {
            delay: 1.0,
            ..FaultProbs::NONE
        });
        assert!(t.send(msg(2, a, b)).is_err());
        assert_eq!(t.delayed_len(), 1);
        assert!(t.drain(b).is_empty(), "delayed message is in flight");
        t.set_default_probs(FaultProbs::NONE);
        t.flush();
        assert_eq!(t.drain(b).len(), 1, "flush releases the delayed message");
    }

    #[test]
    fn ack_loss_delivers_despite_reported_failure() {
        let (mut t, a, b) = rig(4);
        t.set_default_probs(FaultProbs {
            drop: 1.0,
            ack_loss: 1.0,
            ..FaultProbs::NONE
        });
        assert!(t.send(msg(1, a, b)).is_err());
        assert_eq!(t.drain(b).len(), 1, "ack loss: delivered anyway");
    }

    #[test]
    fn duplicates_deliver_twice() {
        let (mut t, a, b) = rig(5);
        t.set_default_probs(FaultProbs {
            duplicate: 1.0,
            ..FaultProbs::NONE
        });
        t.send(msg(1, a, b)).unwrap();
        assert_eq!(t.drain(b).len(), 2);
        assert_eq!(t.telemetry().unwrap().snapshot().counter("fault.dups"), 1);
    }

    #[test]
    fn reorder_reverses_the_drained_batch() {
        let (mut t, a, b) = rig(6);
        t.send(msg(1, a, b)).unwrap();
        t.send(msg(2, a, b)).unwrap();
        t.set_default_probs(FaultProbs {
            reorder: 1.0,
            ..FaultProbs::NONE
        });
        let drained = t.drain(b);
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].id, Guid::from_u128(2), "batch reversed");
        assert_eq!(
            t.telemetry().unwrap().snapshot().counter("fault.reorders"),
            1
        );
    }

    #[test]
    fn named_partitions_block_until_healed() {
        let (mut t, a, b) = rig(7);
        t.partition("island", &[b]);
        assert!(matches!(
            t.send(msg(1, a, b)),
            Err(SciError::Unroutable { .. })
        ));
        assert_eq!(
            t.telemetry()
                .unwrap()
                .snapshot()
                .counter("fault.partition_blocks"),
            1
        );
        t.heal_partitions();
        t.send(msg(2, a, b)).unwrap();
        assert_eq!(t.drain(b).len(), 1);
    }

    #[test]
    fn heal_restores_full_service() {
        let (mut t, a, b) = rig(9);
        t.set_default_probs(FaultProbs {
            delay: 1.0,
            ..FaultProbs::NONE
        });
        assert!(t.send(msg(1, a, b)).is_err());
        assert_eq!(t.delayed_len(), 1);
        t.partition("island", &[b]);
        t.heal();
        assert_eq!(t.delayed_len(), 0);
        t.send(msg(2, a, b)).unwrap();
        assert_eq!(
            t.drain(b).len(),
            2,
            "delayed message flushed plus the new one"
        );
    }
}
