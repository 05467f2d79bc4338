//! Movement models.
//!
//! "In a dynamic environment entities will move in and between Ranges
//! throughout their lifecycle" (paper, Section 3.4). Two movement models
//! drive the simulation:
//!
//! * [`MovementPlan::Scripted`] — a fixed itinerary of rooms with dwell
//!   times, used to replay the paper's CAPA story deterministically.
//! * [`MovementPlan::RandomWaypoint`] — the classic random-waypoint model
//!   over the floor plan's rooms, seeded for reproducibility, used by the
//!   workload generators.
//!
//! People walk along topologically valid routes (through doors), so the
//! world simulator can derive a door-sensor event from every room
//! transition. A transition is recorded when the walker reaches the next
//! room's waypoint; with route waypoints at room centroids this
//! preserves transition *order* exactly even for large time steps.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sci_location::{FloorPlan, LocationExpr, Route};
use sci_types::{Coord, Guid, SciResult, VirtualDuration, VirtualTime};

use crate::person::SimPerson;

/// A room-to-room move made by a person during a tick.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RoomTransition {
    /// Who moved.
    pub person: Guid,
    /// The room left.
    pub from: String,
    /// The room entered.
    pub to: String,
}

/// An in-progress walk along a planned route.
#[derive(Clone, Debug)]
pub struct ActiveWalk {
    rooms: Vec<String>,
    waypoints: Vec<Coord>,
    /// Next waypoint index to reach.
    next: usize,
    /// How long to dwell once the walk arrives.
    dwell_after: VirtualDuration,
}

impl ActiveWalk {
    fn from_route(route: Route, dwell_after: VirtualDuration) -> Self {
        ActiveWalk {
            rooms: route.rooms,
            waypoints: route.waypoints,
            next: 1, // waypoint 0 is the current position
            dwell_after,
        }
    }

    fn finished(&self) -> bool {
        self.next >= self.waypoints.len()
    }
}

/// One leg of a scripted itinerary.
#[derive(Clone, Debug)]
pub struct Leg {
    /// Target room.
    pub room: String,
    /// How long to stay after arriving.
    pub dwell: VirtualDuration,
}

impl Leg {
    /// Creates a leg.
    pub fn new(room: impl Into<String>, dwell: VirtualDuration) -> Self {
        Leg {
            room: room.into(),
            dwell,
        }
    }
}

/// A person's movement behaviour.
///
/// Variants differ in size (the random-waypoint model carries its RNG
/// state inline), which is fine: worlds hold one plan per person, not
/// collections of plans.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum MovementPlan {
    /// Stay put.
    Stationary,
    /// Visit rooms in order, dwelling at each.
    Scripted {
        /// Remaining itinerary.
        legs: VecDeque<Leg>,
        /// Walk in progress, if any.
        walk: Option<ActiveWalk>,
        /// Dwell deadline, if currently dwelling.
        dwell_until: Option<VirtualTime>,
    },
    /// Repeatedly pick a random room and walk to it.
    RandomWaypoint {
        /// Seeded source of randomness.
        rng: StdRng,
        /// Dwell duration between walks.
        dwell: VirtualDuration,
        /// Walk in progress, if any.
        walk: Option<ActiveWalk>,
        /// Dwell deadline, if currently dwelling.
        dwell_until: Option<VirtualTime>,
    },
}

impl MovementPlan {
    /// A scripted itinerary.
    pub fn scripted(legs: impl IntoIterator<Item = Leg>) -> Self {
        MovementPlan::Scripted {
            legs: legs.into_iter().collect(),
            walk: None,
            dwell_until: None,
        }
    }

    /// A seeded random-waypoint walker with the given dwell time.
    pub fn random_waypoint(seed: u64, dwell: VirtualDuration) -> Self {
        MovementPlan::RandomWaypoint {
            rng: StdRng::seed_from_u64(seed),
            dwell,
            walk: None,
            dwell_until: None,
        }
    }

    /// Returns `true` once a scripted plan has exhausted its itinerary
    /// (random-waypoint plans never finish; stationary plans always
    /// report `true`).
    pub fn is_idle(&self) -> bool {
        match self {
            MovementPlan::Stationary => true,
            MovementPlan::Scripted { legs, walk, .. } => legs.is_empty() && walk.is_none(),
            MovementPlan::RandomWaypoint { .. } => false,
        }
    }
}

/// Advances a person by `dt`, mutating their position and plan, and
/// returns the room transitions made (in order).
///
/// # Errors
///
/// Propagates route-planning failures (disconnected or unknown rooms in
/// a scripted itinerary).
pub fn advance(
    person: &mut SimPerson,
    plan_map: &FloorPlan,
    now: VirtualTime,
    dt: VirtualDuration,
) -> SciResult<Vec<RoomTransition>> {
    let mut transitions = Vec::new();
    let budget = person.speed_mps * dt.as_micros() as f64 / 1_000_000.0;
    let id = person.id;

    // Split the borrow: movement math needs position, plan selection
    // needs the plan.
    let mut plan = std::mem::replace(&mut person.plan, MovementPlan::Stationary);
    let result = (|| -> SciResult<()> {
        match &mut plan {
            MovementPlan::Stationary => {}
            MovementPlan::Scripted {
                legs,
                walk,
                dwell_until,
            } => {
                step_plan(
                    &mut person.position,
                    id,
                    budget,
                    plan_map,
                    now,
                    walk,
                    dwell_until,
                    &mut transitions,
                    |position, plan_map| {
                        let Some(leg) = legs.pop_front() else {
                            return Ok(None);
                        };
                        let route = Route::plan(
                            plan_map,
                            &LocationExpr::Point(*position),
                            &LocationExpr::Place(leg.room.clone()),
                        )?;
                        Ok(Some((route, leg.dwell)))
                    },
                )?;
            }
            MovementPlan::RandomWaypoint {
                rng,
                dwell,
                walk,
                dwell_until,
            } => {
                let dwell = *dwell;
                step_plan(
                    &mut person.position,
                    id,
                    budget,
                    plan_map,
                    now,
                    walk,
                    dwell_until,
                    &mut transitions,
                    |position, plan_map| {
                        let rooms = plan_map.rooms();
                        debug_assert!(!rooms.is_empty(), "floor plans have rooms");
                        let here = plan_map.room_at(*position).map(|r| r.name.clone());
                        // Up to a few redraws to avoid walking to the
                        // room we are already in.
                        let mut target = rooms[rng.gen_range(0..rooms.len())].name.clone();
                        for _ in 0..3 {
                            if Some(&target) != here.as_ref() {
                                break;
                            }
                            target = rooms[rng.gen_range(0..rooms.len())].name.clone();
                        }
                        let route = Route::plan(
                            plan_map,
                            &LocationExpr::Point(*position),
                            &LocationExpr::Place(target),
                        )?;
                        Ok(Some((route, dwell)))
                    },
                )?;
            }
        }
        Ok(())
    })();
    person.plan = plan;
    result?;
    Ok(transitions)
}

/// Shared stepping logic: dwell, then walk, then ask `next_leg` for more.
#[allow(clippy::too_many_arguments)]
fn step_plan(
    position: &mut Coord,
    person: Guid,
    mut budget: f64,
    plan_map: &FloorPlan,
    now: VirtualTime,
    walk: &mut Option<ActiveWalk>,
    dwell_until: &mut Option<VirtualTime>,
    transitions: &mut Vec<RoomTransition>,
    mut next_leg: impl FnMut(&Coord, &FloorPlan) -> SciResult<Option<(Route, VirtualDuration)>>,
) -> SciResult<()> {
    loop {
        // Walking takes priority: a walk in progress continues until the
        // movement budget runs out or it arrives.
        if let Some(active) = walk {
            while budget > 0.0 && !active.finished() {
                let target = active.waypoints[active.next];
                let dist = position.distance(target);
                if dist <= budget {
                    *position = target;
                    budget -= dist;
                    if active.next > 0 && active.rooms[active.next] != active.rooms[active.next - 1]
                    {
                        transitions.push(RoomTransition {
                            person,
                            from: active.rooms[active.next - 1].clone(),
                            to: active.rooms[active.next].clone(),
                        });
                    }
                    active.next += 1;
                } else {
                    let frac = budget / dist;
                    *position = Coord::new(
                        position.x + (target.x - position.x) * frac,
                        position.y + (target.y - position.y) * frac,
                    );
                    budget = 0.0;
                }
            }
            if active.finished() {
                // The dwell clock starts at arrival (tick granularity).
                *dwell_until = Some(now.saturating_add(active.dwell_after));
                *walk = None;
            } else {
                return Ok(()); // budget exhausted mid-walk
            }
        }
        // Dwelling?
        if let Some(deadline) = *dwell_until {
            if now < deadline {
                return Ok(());
            }
            *dwell_until = None;
        }
        // Need a new leg?
        match next_leg(position, plan_map)? {
            Some((route, dwell)) => {
                if route.hops() == 0 {
                    // Already in the target room: just dwell. A zero
                    // dwell here would spin, so treat it as a no-op tick.
                    if dwell.is_zero() {
                        return Ok(());
                    }
                    *dwell_until = Some(now.saturating_add(dwell));
                } else {
                    *walk = Some(ActiveWalk::from_route(route, dwell));
                }
                if budget <= 0.0 {
                    return Ok(());
                }
            }
            None => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sci_location::floorplan::capa_level10;

    fn bob_at_lobby() -> SimPerson {
        SimPerson::new(Guid::from_u128(0xb0b), "Bob", Coord::new(4.0, 1.0))
    }

    #[test]
    fn stationary_person_never_moves() {
        let plan = capa_level10();
        let mut bob = bob_at_lobby();
        let t = advance(
            &mut bob,
            &plan,
            VirtualTime::ZERO,
            VirtualDuration::from_secs(60),
        )
        .unwrap();
        assert!(t.is_empty());
        assert_eq!(bob.position, Coord::new(4.0, 1.0));
    }

    #[test]
    fn scripted_walk_produces_ordered_transitions() {
        let plan = capa_level10();
        let mut bob = bob_at_lobby().with_plan(MovementPlan::scripted([Leg::new(
            "L10.01",
            VirtualDuration::ZERO,
        )]));
        // Plenty of time to complete the walk in one tick.
        let t = advance(
            &mut bob,
            &plan,
            VirtualTime::ZERO,
            VirtualDuration::from_secs(120),
        )
        .unwrap();
        let rooms: Vec<(&str, &str)> = t.iter().map(|x| (x.from.as_str(), x.to.as_str())).collect();
        assert_eq!(rooms, [("lobby", "corridor"), ("corridor", "L10.01")]);
        assert_eq!(plan.room_at(bob.position).unwrap().name, "L10.01");
        assert!(bob.plan.is_idle());
    }

    #[test]
    fn small_ticks_accumulate_to_the_same_transitions() {
        let plan = capa_level10();
        let mut bob = bob_at_lobby().with_plan(MovementPlan::scripted([Leg::new(
            "L10.02",
            VirtualDuration::ZERO,
        )]));
        let mut all = Vec::new();
        let mut now = VirtualTime::ZERO;
        let dt = VirtualDuration::from_millis(500);
        for _ in 0..240 {
            all.extend(advance(&mut bob, &plan, now, dt).unwrap());
            now += dt;
        }
        let rooms: Vec<&str> = all.iter().map(|t| t.to.as_str()).collect();
        assert_eq!(rooms, ["corridor", "L10.02"]);
    }

    #[test]
    fn dwell_delays_next_leg() {
        let plan = capa_level10();
        let mut bob = bob_at_lobby().with_plan(MovementPlan::scripted([
            Leg::new("corridor", VirtualDuration::from_secs(1000)),
            Leg::new("L10.01", VirtualDuration::ZERO),
        ]));
        // First tick: walks to corridor, then dwells.
        let t1 = advance(
            &mut bob,
            &plan,
            VirtualTime::ZERO,
            VirtualDuration::from_secs(60),
        )
        .unwrap();
        assert_eq!(t1.len(), 1);
        // Second tick is still inside the dwell window.
        let t2 = advance(
            &mut bob,
            &plan,
            VirtualTime::from_secs(60),
            VirtualDuration::from_secs(60),
        )
        .unwrap();
        assert!(t2.is_empty(), "still dwelling");
        // After the dwell expires the second leg runs.
        let t3 = advance(
            &mut bob,
            &plan,
            VirtualTime::from_secs(1100),
            VirtualDuration::from_secs(60),
        )
        .unwrap();
        assert_eq!(t3.last().map(|t| t.to.as_str()), Some("L10.01"));
    }

    #[test]
    fn random_waypoint_is_deterministic_per_seed() {
        let plan = capa_level10();
        let run = |seed: u64| {
            let mut p = bob_at_lobby()
                .with_plan(MovementPlan::random_waypoint(seed, VirtualDuration::ZERO));
            let mut transitions = Vec::new();
            let mut now = VirtualTime::ZERO;
            for _ in 0..60 {
                transitions
                    .extend(advance(&mut p, &plan, now, VirtualDuration::from_secs(5)).unwrap());
                now += VirtualDuration::from_secs(5);
            }
            transitions
        };
        let a = run(9);
        let b = run(9);
        let c = run(10);
        assert_eq!(a, b, "same seed, same trajectory");
        assert!(!a.is_empty(), "random waypoint should move");
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn transitions_are_topologically_adjacent() {
        let plan = capa_level10();
        let mut p =
            bob_at_lobby().with_plan(MovementPlan::random_waypoint(3, VirtualDuration::ZERO));
        let mut now = VirtualTime::ZERO;
        for _ in 0..100 {
            for t in advance(&mut p, &plan, now, VirtualDuration::from_secs(3)).unwrap() {
                assert!(
                    plan.topology()
                        .neighbors(&t.from)
                        .unwrap()
                        .contains(&t.to.as_str()),
                    "{} -> {} is not a legal passage",
                    t.from,
                    t.to
                );
            }
            now += VirtualDuration::from_secs(3);
        }
    }
}
