//! # sci-event
//!
//! The event substrate of SCI.
//!
//! Context Entities "communicate by means of producing and consuming
//! typed events" (paper, Section 3.1); the Event Mediator "manages the
//! establishment, maintenance and removal of event subscriptions between
//! Context Entities and Context Aware Applications". This crate provides
//! that machinery in two layers:
//!
//! * [`bus::EventBus`] — a pure, deterministic subscription table whose
//!   `publish` returns the deliveries it implies, which makes experiments
//!   exactly reproducible. It keys candidate subscriptions by context
//!   type, source, subject and the `(source, subject)` pair so publish
//!   cost scales with matching subscriptions rather than total
//!   subscriptions.
//! * [`mediator::EventMediator`] — one per Range: subscription lifecycle
//!   over that bus plus the publisher liveness monitoring used for
//!   failure detection.
//!
//! There is one bus per Range whatever the execution mode. Under real
//! concurrency a range worker thread owns its mediator and is fed
//! through an [`rt::mailbox`] (`sci-core`'s `RangeRuntime`: `cast` for
//! the "distributed events" half of the paper's hybrid communication
//! model, `call` for the point-to-point half).
//!
//! The pre-index linear table is preserved as [`linear::LinearBus`] — a
//! test oracle the bus is property-tested against (see
//! `docs/performance.md`). A supporting piece: [`topic::Topic`]
//! filters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod linear;
pub mod mediator;
pub mod rt;
mod telemetry;
pub mod topic;

pub use bus::{Delivery, EventBus, SubId};
pub use linear::LinearBus;
pub use mediator::EventMediator;
pub use topic::Topic;
