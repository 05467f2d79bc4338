//! # sci-event
//!
//! The event substrate of SCI.
//!
//! Context Entities "communicate by means of producing and consuming
//! typed events" (paper, Section 3.1); the Event Mediator "manages the
//! establishment, maintenance and removal of event subscriptions between
//! Context Entities and Context Aware Applications". This crate provides
//! that machinery twice over:
//!
//! * [`bus::EventBus`] — a pure, deterministic subscription table whose
//!   `publish` returns the deliveries it implies. All middleware logic is
//!   built on this form, which makes experiments exactly reproducible.
//! * [`rt::ThreadedBus`] — the same semantics over crossbeam channels and
//!   OS threads, demonstrating the "distributed events" half of the
//!   paper's hybrid communication model in real concurrency.
//!
//! Both buses dispatch through [`index::TopicIndex`], which keys
//! candidate subscriptions by context type, source, subject and the
//! `(source, subject)` pair so publish cost scales with matching
//! subscriptions rather than total subscriptions. The pre-index linear table is preserved as
//! [`linear::LinearBus`] — a test oracle the index is property-tested
//! against (see `docs/performance.md`).
//!
//! Supporting pieces: [`topic::Topic`] filters, [`mediator::EventMediator`]
//! (lifecycle + liveness monitoring used for failure detection), the
//! [`sim`] virtual-time scheduler that drives deterministic runs, and
//! [`stats::DeliveryStats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod index;
pub mod linear;
pub mod mediator;
pub mod rt;
pub mod sim;
pub mod stats;
mod telemetry;
pub mod topic;

pub use bus::{Delivery, EventBus, SubId};
pub use index::TopicIndex;
pub use linear::LinearBus;
pub use mediator::EventMediator;
pub use sim::{Scheduler, VirtualClock};
pub use stats::DeliveryStats;
pub use topic::Topic;
