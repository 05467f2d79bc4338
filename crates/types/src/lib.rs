//! # sci-types
//!
//! Core data model for the Strathclyde Context Infrastructure (SCI), the
//! middleware for generalised context management described by Glassey et
//! al. (Middleware 2003).
//!
//! This crate defines the vocabulary every other SCI crate speaks:
//!
//! * [`Guid`] — the 128-bit global identifier used by the SCINET overlay
//!   instead of traditional addressing schemes.
//! * [`EntityKind`] and [`EntityDescriptor`] — the five entity classes the
//!   paper places inside a range (People, Software, Places, Devices and
//!   Artifacts).
//! * [`ContextType`] / [`ContextValue`] — the typed context data flowing
//!   between Context Entities as events.
//! * [`Profile`] — the typed input/output metadata a Context Entity
//!   registers with its range, used by the query resolver for type
//!   matching.
//! * [`Advertisement`] — the "well known" service interface description.
//! * [`ConfigurationPlan`] — the composition plan the query resolver
//!   builds and `sci-analysis` verifies.
//! * [`ContextEvent`] — the typed event unit delivered by the Event
//!   Mediator.
//! * [`VirtualTime`] — the logical clock all deterministic components run
//!   on.
//! * [`HashMap`] / [`HashSet`] — the library's maps, over the one
//!   fixed-seed hasher [`DeterministicState`].
//!
//! # Example
//!
//! ```
//! use sci_types::{ContextType, ContextValue, EntityKind, Profile, PortSpec};
//! use sci_types::guid::GuidGenerator;
//!
//! let mut ids = GuidGenerator::seeded(7);
//! let sensor = ids.next_guid();
//! let profile = Profile::builder(sensor, EntityKind::Device, "doorSensor-L10.01")
//!     .output(PortSpec::new("presence", ContextType::Presence))
//!     .attribute("room", ContextValue::text("L10.01"))
//!     .build();
//! assert!(profile.provides(&ContextType::Presence));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advertisement;
pub mod command;
pub mod diagnostic;
pub mod entity;
pub mod error;
pub mod event;
pub mod guid;
pub mod hash;
pub mod metadata;
pub mod plan;
pub mod profile;
pub mod protocol;
pub mod time;
pub mod value;

pub use advertisement::{Advertisement, Operation};
pub use command::{AppDelivery, DeferredAnswer, QueryAnswer, RangeReply, RepairReport};
pub use diagnostic::{AnalysisReport, DiagCode, Diagnostic, Severity};
pub use entity::{EntityDescriptor, EntityKind};
pub use error::{SciError, SciResult};
pub use event::{ContextEvent, EventSeq};
pub use guid::Guid;
pub use hash::{DeterministicState, HashMap, HashSet};
pub use metadata::Metadata;
pub use plan::{ConfigurationPlan, NodeId, NodeKind, PlanEdge, PlanNode};
pub use profile::{PortSpec, Profile, ProfileBuilder};
pub use protocol::{
    FaultSchedule, FederationModel, FreshnessBound, RangeModel, RetryModel, RouteClaim,
    TransportLinkModel,
};
pub use time::{VirtualDuration, VirtualTime};
pub use value::{ContextType, ContextValue, Coord};
