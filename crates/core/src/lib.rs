//! # sci-core
//!
//! The Strathclyde Context Infrastructure middleware core — the paper's
//! contribution. A Range is governed by a single [`ContextServer`]
//! managing three component classes (Context Entities, Context Aware
//! Applications, Context Utilities); Context Servers connect to each
//! other through the SCINET overlay ([`federation::Federation`]).
//!
//! The Context Utilities of Section 3.1 map to modules:
//!
//! | Paper utility   | Module |
//! |-----------------|--------|
//! | Registrar       | [`registrar`] |
//! | Profile Manager | [`profile_manager`] |
//! | Location Service| [`location_service`] |
//! | Event Mediator  | re-exported from `sci-event`, owned by the CS |
//! | Query Resolver  | [`resolver`] + [`configuration`] |
//! | Range Service   | [`range_service`] |
//!
//! The composition model of Section 3.2 — "a configuration is an event
//! subscription graph between entities where the inputs to one CE are
//! provided by the outputs of others" — lives in [`resolver`] (type
//! matching, backward chaining) and [`configuration`] (instantiation,
//! subgraph reuse, teardown). Adaptivity to component failure is in
//! [`adaptation`]; the CAPA application of Section 5 is provided as a
//! library in [`capa`]; the abstract component interfaces of Figure 4
//! are in [`entity_rt`].
//!
//! # Quickstart
//!
//! ```
//! use sci_core::context_server::ContextServer;
//! use sci_query::{Mode, Query};
//! use sci_types::guid::GuidGenerator;
//! use sci_types::{ContextType, EntityKind, PortSpec, Profile, VirtualTime};
//!
//! let mut ids = GuidGenerator::seeded(1);
//! let mut cs = ContextServer::new(
//!     ids.next_guid(),
//!     "demo-range",
//!     sci_location::floorplan::capa_level10(),
//! );
//!
//! // Register a thermometer CE.
//! let thermo = ids.next_guid();
//! cs.register(
//!     Profile::builder(thermo, EntityKind::Device, "thermo")
//!         .output(PortSpec::new("t", ContextType::Temperature))
//!         .build(),
//!     VirtualTime::ZERO,
//! )?;
//!
//! // A CAA asks for temperature information.
//! let app = ids.next_guid();
//! let q = Query::builder(ids.next_guid(), app)
//!     .info(ContextType::Temperature)
//!     .mode(Mode::Profile)
//!     .build();
//! let answer = cs.submit_query(&q, VirtualTime::ZERO)?;
//! # let _ = answer;
//! # Ok::<(), sci_types::SciError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptation;
pub mod analysis_bridge;
pub mod capa;
pub mod configuration;
pub mod context_server;
pub mod durability;
pub mod entity_rt;
pub mod federation;
pub mod history;
pub mod location_service;
pub mod logic;
pub mod migration;
pub mod profile_manager;
pub mod range_service;
mod records;
pub mod registrar;
pub mod relay;
pub mod resolver;
pub mod runtime;
mod seen;
pub mod telemetry;

pub use configuration::Configuration;
pub use context_server::{ContextServer, QueryAnswer, RangeReply};
pub use durability::{DurabilityConfig, RecoveryReport};
pub use federation::Federation;
pub use location_service::LocationService;
pub use migration::MigrationPacket;
pub use profile_manager::ProfileManager;
pub use registrar::Registrar;
pub use resolver::ConfigurationPlan;
pub use runtime::{MailboxPolicy, ParallelFederation, RangeCommand, RangeRuntime};
pub use telemetry::{snapshot_from_xml, snapshot_to_xml};
