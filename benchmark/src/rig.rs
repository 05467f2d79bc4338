//! The population every workload is built from: a range with
//! [`ROOMS`] rooms, [`DOORS`] door sensors and the paper's
//! `objLocationCE` (Figure 3) turning badge reads into `Location`
//! context, plus the queries applications subscribe with.
//!
//! GUIDs are fixed, not seeded: the seed chooses *which* doors fire,
//! never who exists, so every seed exercises the same structures.

use std::collections::HashMap;
use std::path::PathBuf;

use sci_core::context_server::ContextServer;
use sci_core::durability::{self, DurabilityConfig};
use sci_core::logic::{factory, LogicFactory, ObjLocationLogic};
use sci_location::{FloorPlan, Rect};
use sci_query::{Mode, Predicate, Query};
use sci_types::{
    AppDelivery, ContextEvent, ContextType, ContextValue, Coord, EntityKind, Guid, PortSpec,
    Profile, VirtualTime,
};
use sci_wal::FsyncPolicy;

use crate::gen::{Reading, DOORS, ROOMS};

const RANGE_BASE: u128 = 0x1000_0000;
const DOOR_BASE: u128 = 0xD000_0000;
const OBJ_LOCATION_BASE: u128 = 0xC000_0000;
const SUBJECT_BASE: u128 = 0x5000_0000;
const APP_BASE: u128 = 0xA000_0000;
const QUERY_BASE: u128 = 0x9000_0000_0000;

pub fn range_name(range: usize) -> String {
    format!("range-{range}")
}

pub fn subject_guid(subject: usize) -> Guid {
    Guid::from_u128(SUBJECT_BASE + subject as u128)
}

pub fn app_guid(app: usize) -> Guid {
    Guid::from_u128(APP_BASE + app as u128)
}

/// The inverse of [`app_guid`].
pub fn app_index(app: Guid) -> usize {
    (app.as_u128() - APP_BASE) as usize
}

pub fn query_guid(n: u64) -> Guid {
    Guid::from_u128(QUERY_BASE + u128::from(n))
}

/// One range's fixed cast.
pub struct Population {
    pub id: Guid,
    pub name: String,
    pub plan: FloorPlan,
    pub doors: Vec<Guid>,
    pub obj_location: Guid,
    /// Room names and centroids, indexed like [`Reading::room`].
    pub rooms: Vec<(String, Coord)>,
}

impl Population {
    pub fn new(range: usize) -> Self {
        let name = range_name(range);
        let mut builder = FloorPlan::builder("campus").zone(format!("wing-{range}"));
        let mut rooms = Vec::with_capacity(ROOMS);
        for k in 0..ROOMS {
            // Distinct sizes give every room a distinct centroid, so a
            // delivery carrying the wrong room's position is caught.
            let rect =
                Rect::with_size(Coord::new(10.0 * k as f64, 0.0), 8.0 + k as f64 * 0.25, 6.0);
            let room = format!("r{range}-room{k}");
            builder = builder.room(room.clone(), rect);
            rooms.push(room);
        }
        let plan = builder.build().expect("static floor plan");
        let rooms = rooms
            .into_iter()
            .map(|room| {
                let centroid = plan.centroid(&room).expect("room just added");
                (room, centroid)
            })
            .collect();
        Population {
            id: Guid::from_u128(RANGE_BASE + range as u128),
            name,
            plan,
            doors: (0..DOORS)
                .map(|i| Guid::from_u128(DOOR_BASE + (range * 0x100 + i) as u128))
                .collect(),
            obj_location: Guid::from_u128(OBJ_LOCATION_BASE + range as u128),
            rooms,
        }
    }

    pub fn door_profile(&self, door: usize) -> Profile {
        Profile::builder(self.doors[door], EntityKind::Device, format!("door-{door}"))
            .output(PortSpec::new("presence", ContextType::Presence))
            .build()
    }

    /// The logic resolver `durability::recover` needs to rebuild
    /// `objLocationCE` instances.
    pub fn logic(&self) -> HashMap<Guid, LogicFactory> {
        let plan = self.plan.clone();
        HashMap::from([(
            self.obj_location,
            factory(move || ObjLocationLogic::new(plan.clone())),
        )])
    }

    /// A Context Server with the doors and `objLocationCE` registered.
    pub fn server(&self) -> ContextServer {
        let mut cs = ContextServer::new(self.id, self.name.clone(), self.plan.clone());
        for door in 0..DOORS {
            cs.register(self.door_profile(door), VirtualTime::ZERO)
                .expect("fresh door sensor");
        }
        cs.register(
            Profile::builder(self.obj_location, EntityKind::Software, "objLocationCE")
                .input(PortSpec::new("presence", ContextType::Presence))
                .output(PortSpec::new("location", ContextType::Location))
                .build(),
            VirtualTime::ZERO,
        )
        .expect("fresh objLocationCE");
        for (ce, logic) in self.logic() {
            cs.register_logic(ce, logic);
        }
        cs
    }

    /// The badge-read event for `reading`, stamped `at`.
    pub fn presence(&self, reading: &Reading, at: VirtualTime) -> ContextEvent {
        let from = &self.rooms[(reading.room + 1) % ROOMS].0;
        let to = &self.rooms[reading.room].0;
        ContextEvent::new(
            self.doors[reading.door],
            ContextType::Presence,
            ContextValue::record([
                ("subject", ContextValue::Id(subject_guid(reading.subject))),
                ("from", ContextValue::place(from.as_str())),
                ("to", ContextValue::place(to.as_str())),
            ]),
            at,
        )
    }

    /// What a `Location` delivery says: `(subject, room)` indices, or
    /// `None` when it is not a well-formed location of this range —
    /// wrong topic, unknown subject or room, or a position that is not
    /// the room's centroid.
    pub fn decode_location(&self, delivery: &AppDelivery) -> Option<(usize, usize)> {
        let event = &delivery.event;
        if event.topic != ContextType::Location {
            return None;
        }
        let subject = event
            .subject()?
            .as_u128()
            .checked_sub(SUBJECT_BASE)
            .and_then(|s| usize::try_from(s).ok())?;
        let room_name = event.payload.field("room")?.as_text()?;
        let room = self.rooms.iter().position(|(name, _)| name == room_name)?;
        let position = event.payload.field("position")?.as_coord()?;
        (position == self.rooms[room].1).then_some((subject, room))
    }
}

/// A standing `Location` subscription for `app`: about one `subject`
/// or everyone, produced in `in_range` or wherever it is submitted.
pub fn location_query(
    id: Guid,
    app: Guid,
    subject: Option<usize>,
    in_range: Option<&str>,
) -> Query {
    let constraints = subject
        .map(|s| Predicate::eq("subject", ContextValue::Id(subject_guid(s))))
        .into_iter()
        .collect();
    let mut builder = Query::builder(id, app)
        .info_matching(ContextType::Location, constraints)
        .mode(Mode::Subscribe);
    if let Some(range) = in_range {
        builder = builder.in_range(range);
    }
    builder.build()
}

/// WAL settings of the durable workloads: `EveryN(32)` fsync as
/// shipped, segments large enough that rotation is rare.
pub fn wal_config(dir: PathBuf, snapshot_every: u64) -> DurabilityConfig {
    DurabilityConfig {
        dir,
        fsync: FsyncPolicy::EveryN(32),
        segment_bytes: 8 << 20,
        snapshot_every,
    }
}

pub fn attach_wal(cs: &mut ContextServer, config: &DurabilityConfig) {
    durability::attach(cs, config, VirtualTime::ZERO).expect("fresh WAL directory attaches");
}
