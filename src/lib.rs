//! # SCI — the Strathclyde Context Infrastructure, in Rust
//!
//! A full reproduction of *Towards a Middleware for Generalised Context
//! Management* (Glassey, Stevenson, Richmond, Nixon, Terzis, Wang,
//! Ferguson — Middleware 2003 workshop on Middleware for Pervasive and
//! Ad Hoc Computing).
//!
//! This crate is the facade: it re-exports the workspace's subsystems
//! under one namespace.
//!
//! | Module | Crate | Paper concept |
//! |--------|-------|---------------|
//! | [`types`] | `sci-types` | GUIDs, entities, typed context, profiles, advertisements, events |
//! | [`query`] | `sci-query` | the What/Where/When/Which/mode query model (Fig 6) |
//! | [`location`] | `sci-location` | geometric/topological/logical models + intermediate language (§3.3) |
//! | [`event`] | `sci-event` | typed events, Event Mediator machinery, virtual time (§3.1) |
//! | [`overlay`] | `sci-overlay` | the SCINET overlay and the hierarchical baseline (§3) |
//! | [`sensors`] | `sci-sensors` | simulated doors, badges, W-LAN cells, printers, mobility (§3.4, §5) |
//! | [`core`] | `sci-core` | Context Server, Registrar, Query Resolver, configurations, adaptation, federation, CAPA (§3–§5) |
//! | [`analysis`] | `sci-analysis` | static verification of composition plans, fleet drift audits |
//! | [`baselines`] | `sci-baselines` | Context-Toolkit and Solar comparison systems (§2) |
//! | [`wal`] | `sci-wal` | segmented write-ahead command log and snapshot store behind durable ranges |
//!
//! # Quickstart
//!
//! ```
//! use sci::prelude::*;
//!
//! // One range, one Context Server.
//! let mut ids = GuidGenerator::seeded(7);
//! let mut cs = ContextServer::new(ids.next_guid(), "lab", capa_level10());
//!
//! // Register a door sensor CE.
//! let door = ids.next_guid();
//! cs.register(
//!     Profile::builder(door, EntityKind::Device, "door-L10.01")
//!         .output(PortSpec::new("presence", ContextType::Presence))
//!         .build(),
//!     VirtualTime::ZERO,
//! )?;
//!
//! // A CAA subscribes to presence events.
//! let app = ids.next_guid();
//! let q = Query::builder(ids.next_guid(), app)
//!     .info(ContextType::Presence)
//!     .mode(Mode::Subscribe)
//!     .build();
//! cs.submit_query(&q, VirtualTime::ZERO)?;
//!
//! // A badge crossing produces a delivery.
//! let bob = ids.next_guid();
//! let ev = ContextEvent::new(
//!     door,
//!     ContextType::Presence,
//!     ContextValue::record([
//!         ("subject", ContextValue::Id(bob)),
//!         ("to", ContextValue::place("L10.01")),
//!     ]),
//!     VirtualTime::from_secs(1),
//! );
//! cs.ingest(&ev, VirtualTime::from_secs(1))?;
//! assert_eq!(cs.drain_outbox().len(), 1);
//! # Ok::<(), sci::types::SciError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sci_analysis as analysis;
pub use sci_baselines as baselines;
pub use sci_core as core;
pub use sci_event as event;
pub use sci_location as location;
pub use sci_overlay as overlay;
pub use sci_query as query;
pub use sci_sensors as sensors;
pub use sci_telemetry as telemetry;
pub use sci_types as types;
pub use sci_wal as wal;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use sci_analysis::{analyze, ProfileSource, ProfileTable};
    pub use sci_core::capa::CapaApp;
    pub use sci_core::context_server::{AppDelivery, ContextServer, QueryAnswer, RangeReply};
    pub use sci_core::durability::{durable_digest, DurabilityConfig, RecoveryReport};
    pub use sci_core::entity_rt::{
        start_caa, start_ce, CaaHandle, CeHandle, ConsumeInterface, RegisterInterface,
        ServiceInterface,
    };
    pub use sci_core::federation::{FederatedAnswer, Federation};
    pub use sci_core::logic::{
        factory, install_standard_logic, register_world, AggregateLogic, EntityLogic,
        ObjLocationLogic, OccupancyLogic, PathLogic, WlanLocationLogic,
    };
    pub use sci_core::range_service::RangeService;
    pub use sci_core::runtime::{
        MailboxPolicy, ParallelFederation, RangeCommand, RangeRuntime, RestartPolicy,
    };
    pub use sci_event::{EventBus, EventMediator, Topic};
    pub use sci_location::floorplan::{capa_level10, FloorPlan};
    pub use sci_location::{LocationExpr, Rect, Route};
    pub use sci_overlay::{
        FaultProbs, FaultyTransport, HierarchicalNetwork, SimNetwork, TcpTransport, Transport,
    };
    pub use sci_query::{CmpOp, Mode, Predicate, Query, Subject, What, When, Where, Which};
    pub use sci_sensors::{BaseStation, DoorSensor, Printer, SimPerson, TemperatureSensor, World};
    pub use sci_telemetry::{Registry, RingBufferSubscriber, TelemetrySnapshot, Tracer};
    pub use sci_types::guid::GuidGenerator;
    pub use sci_types::{
        Advertisement, AnalysisReport, ConfigurationPlan, ContextEvent, ContextType, ContextValue,
        Coord, DiagCode, Diagnostic, EntityDescriptor, EntityKind, Guid, Metadata, PortSpec,
        Profile, SciError, SciResult, Severity, VirtualDuration, VirtualTime,
    };
    pub use sci_wal::FsyncPolicy;
}
