//! # sci-overlay
//!
//! The SCINET: SCI's upper layer, "a network overlay of partially
//! connected nodes" (paper, Section 3) in which each node is the Context
//! Server of one Range and addressing is by GUID, "rather than
//! traditional addressing schemes".
//!
//! The paper motivates the overlay with a claim borrowed from Dearle et
//! al. \[9\]: "routing through an overlay network avoids any bottlenecks
//! created when using hierarchical infrastructures whilst achieving
//! comparable performance". This crate makes that claim measurable:
//!
//! * [`routing::RoutingTable`] — Kademlia-style per-prefix buckets over
//!   128-bit GUIDs with greedy XOR-distance forwarding.
//! * [`net::SimNetwork`] — a simulated overlay: join/leave, hop-by-hop
//!   routing with per-node load accounting, link latency and node
//!   death; partitions are the fault layer's.
//! * [`hierarchy::HierarchicalNetwork`] — the baseline: the same ranges
//!   arranged as a b-ary tree routed through lowest common ancestors,
//!   whose root is the bottleneck the overlay is supposed to avoid.
//! * [`message`] — the binary wire codec (written and read with
//!   `sci_wal`'s `wire` primitives) for inter-range messages: query
//!   forwarding, responses, event relays, liveness pings.
//! * [`sync::SyncStore`] — the replicated registration state: which
//!   node serves a range name and covers a place, read by every node
//!   from its own replica.
//! * [`fault::FaultyTransport`] — a seeded fault-injection decorator
//!   over any [`transport::Transport`]: drops, delays, duplicates,
//!   reorders and named partitions, all replayable from a single `u64`
//!   seed.
//!
//! Experiment E1 (`tests/support/figures.rs`, pinned by the workspace's
//! goldens) sweeps network size and compares hop counts and maximum
//! per-node forwarding load across the two arrangements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod discovery;
pub mod fault;
pub mod hierarchy;
pub mod message;
pub mod net;
pub mod routing;
pub mod stats;
pub mod sync;
pub mod tcp;
pub mod transport;

pub use fault::{FaultProbs, FaultyTransport};
pub use hierarchy::HierarchicalNetwork;
pub use message::{Message, MessageKind};
pub use net::{RouteOutcome, SimNetwork};
pub use routing::RoutingTable;
pub use stats::LoadStats;
pub use sync::{SyncEntry, SyncStore};
pub use tcp::{TcpTransport, TCP_PROTOCOL_VERSION};
pub use transport::Transport;
