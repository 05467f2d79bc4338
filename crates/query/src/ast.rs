//! Query abstract syntax.
//!
//! The five sections of the paper's query model (Figure 6):
//!
//! * [`What`] — "what this query is looking for, be it an entity type
//!   (e.g. a printer), a named entity (identified by a GUID) or
//!   information fitting a pattern".
//! * [`Where`] — "the location (if applicable) … explicit (e.g. Room
//!   10.01) or implicit (e.g. closest to me)".
//! * [`When`] — "the temporal aspect … the conditions under which the
//!   configuration should be executed".
//! * [`Which`] — "the desired qualitative aspects governing selection
//!   from multiple entities".
//! * [`Mode`] — "the intent of the query": profile request, event
//!   subscription, one-time subscription or advertisement request.

use std::fmt;

use sci_types::{ContextType, EntityKind, Guid, VirtualDuration, VirtualTime};

use crate::builder::QueryBuilder;
use crate::predicate::Predicate;

/// A reference to an entity that may be the query's own submitter.
///
/// Queries routinely say "closest to *me*"; `Subject::Owner` defers the
/// binding to resolution time, when the Context Server substitutes the
/// owning CAA's user.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Subject {
    /// The query's owner ("me").
    Owner,
    /// An explicit entity.
    Entity(Guid),
}

impl Subject {
    /// Resolves the subject against the query owner's GUID.
    pub fn resolve(self, owner: Guid) -> Guid {
        match self {
            Subject::Owner => owner,
            Subject::Entity(id) => id,
        }
    }
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Owner => f.write_str("me"),
            Subject::Entity(id) => write!(f, "{id}"),
        }
    }
}

/// The What section: what the query is looking for.
#[derive(Clone, PartialEq, Debug)]
pub enum What {
    /// An entity of a given class, e.g. "a printer" (`Device`).
    Kind(EntityKind),
    /// A specific named entity, identified by GUID.
    Named(Guid),
    /// Information fitting a pattern: a context type plus attribute
    /// constraints, e.g. "temperature in degrees Celsius".
    Information {
        /// The context type requested.
        ty: ContextType,
        /// Constraints the provider's attributes must satisfy.
        constraints: Vec<Predicate>,
    },
}

impl What {
    /// Convenience constructor for an unconstrained information pattern.
    pub fn info(ty: ContextType) -> What {
        What::Information {
            ty,
            constraints: Vec::new(),
        }
    }
}

impl fmt::Display for What {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            What::Kind(k) => write!(f, "any {k}"),
            What::Named(id) => write!(f, "entity {id}"),
            What::Information { ty, constraints } => {
                write!(f, "{ty}")?;
                for p in constraints {
                    write!(f, " where {p}")?;
                }
                Ok(())
            }
        }
    }
}

/// The Where section: the location of the information required.
#[derive(Clone, PartialEq, Debug)]
pub enum Where {
    /// No location constraint.
    Anywhere,
    /// An explicit logical place, e.g. `Room L10.01`.
    Place(String),
    /// A named range (forwarding target in the SCINET).
    Range(String),
    /// Implicit: closest to a subject, e.g. "closest to me".
    ClosestTo(Subject),
    /// Within a radius (metres) of a subject's position.
    Within {
        /// The reference entity.
        center: Subject,
        /// Radius in metres.
        radius_m: f64,
    },
}

impl fmt::Display for Where {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Where::Anywhere => f.write_str("anywhere"),
            Where::Place(p) => write!(f, "in {p}"),
            Where::Range(r) => write!(f, "in range {r}"),
            Where::ClosestTo(s) => write!(f, "closest to {s}"),
            Where::Within { center, radius_m } => write!(f, "within {radius_m}m of {center}"),
        }
    }
}

/// The When section: when the configuration should be executed.
#[derive(Clone, PartialEq, Debug)]
pub enum When {
    /// Execute as soon as the query is resolved.
    Immediate,
    /// Execute at an absolute virtual-time instant.
    At(VirtualTime),
    /// Execute after a delay from submission.
    After(VirtualDuration),
    /// Execute when an entity enters a place — the CAPA trigger
    /// ("listens for Bob entering L10.01").
    OnEnter {
        /// Whose arrival to wait for.
        entity: Subject,
        /// The place being entered.
        place: String,
    },
    /// Execute when an entity leaves a place.
    OnLeave {
        /// Whose departure to wait for.
        entity: Subject,
        /// The place being left.
        place: String,
    },
}

impl fmt::Display for When {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            When::Immediate => f.write_str("now"),
            When::At(t) => write!(f, "at {t}"),
            When::After(d) => write!(f, "after {d}"),
            When::OnEnter { entity, place } => write!(f, "when {entity} enters {place}"),
            When::OnLeave { entity, place } => write!(f, "when {entity} leaves {place}"),
        }
    }
}

/// The Which section: qualitative selection among multiple candidates.
#[derive(Clone, PartialEq, Debug)]
pub enum Which {
    /// Any single candidate (resolver's choice).
    Any,
    /// All candidates.
    All,
    /// The spatially closest candidate (to the Where reference, or to the
    /// owner if the Where clause has no reference point).
    Closest,
    /// The candidate minimising a numeric attribute, e.g. "shortest time
    /// to service completion".
    MinAttr(String),
    /// The candidate maximising a numeric attribute.
    MaxAttr(String),
    /// Keep only candidates satisfying all predicates, then select among
    /// the survivors with the inner criterion.
    Filtered {
        /// Predicates every surviving candidate must satisfy.
        predicates: Vec<Predicate>,
        /// Tie-breaking criterion applied to survivors.
        then: Box<Which>,
    },
}

impl Which {
    /// Wraps `self` in a filter (builder-style helper).
    pub fn filtered(self, predicates: Vec<Predicate>) -> Which {
        if predicates.is_empty() {
            self
        } else {
            Which::Filtered {
                predicates,
                then: Box::new(self),
            }
        }
    }
}

impl fmt::Display for Which {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Which::Any => f.write_str("any"),
            Which::All => f.write_str("all"),
            Which::Closest => f.write_str("closest"),
            Which::MinAttr(a) => write!(f, "min {a}"),
            Which::MaxAttr(a) => write!(f, "max {a}"),
            Which::Filtered { predicates, then } => {
                f.write_str("filter(")?;
                for (i, p) in predicates.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" and ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ") then {then}")
            }
        }
    }
}

/// The query mode: "the intent of the query" (paper, Section 4.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Mode {
    /// Profile request: obtain information about CEs.
    Profile,
    /// Event subscription: subscribe and be updated with any changes.
    Subscribe,
    /// One-time subscription: cancelled after the CAA receives an event.
    SubscribeOnce,
    /// Advertisement request: obtain the interface to communicate with a
    /// service.
    Advertisement,
}

impl Mode {
    /// All modes.
    pub const ALL: [Mode; 4] = [
        Mode::Profile,
        Mode::Subscribe,
        Mode::SubscribeOnce,
        Mode::Advertisement,
    ];

    /// Stable name used by the codec.
    pub const fn name(self) -> &'static str {
        match self {
            Mode::Profile => "profile",
            Mode::Subscribe => "subscribe",
            Mode::SubscribeOnce => "subscribe-once",
            Mode::Advertisement => "advertisement",
        }
    }

    /// Parses a mode name.
    pub fn from_name(name: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.name() == name)
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete five-section context query.
///
/// Construct with [`Query::builder`]; serialise with
/// [`crate::codec::to_xml`].
#[derive(Clone, PartialEq, Debug)]
pub struct Query {
    /// Unique id of this query (`<query_id>`).
    pub id: Guid,
    /// GUID of the submitting CAA or user (`<owner_id>`).
    pub owner: Guid,
    /// What is being looked for.
    pub what: What,
    /// Location scope.
    pub where_: Where,
    /// Temporal trigger.
    pub when: When,
    /// Selection criterion.
    pub which: Which,
    /// Intent.
    pub mode: Mode,
}

impl Query {
    /// Starts building a query with the given id and owner.
    pub fn builder(id: Guid, owner: Guid) -> QueryBuilder {
        QueryBuilder::new(id, owner)
    }

    /// The context type this query ultimately needs, if determinable
    /// from the What clause. `Kind`/`Named` queries target an entity
    /// rather than a typed flow.
    pub fn requested_type(&self) -> Option<&ContextType> {
        match &self.what {
            What::Information { ty, .. } => Some(ty),
            _ => None,
        }
    }

    /// Returns `true` if the When clause requires waiting for a trigger
    /// (i.e. the configuration must be stored, as in the CAPA scenario).
    pub fn is_deferred(&self) -> bool {
        !matches!(self.when, When::Immediate)
    }

    /// The freshness bound this query demands, if any: the reserved
    /// `qoc-max-age-us` constraint written by
    /// [`QueryBuilder::fresh_within`]. Absent, negative or non-integer
    /// values mean "no bound".
    pub fn max_age(&self) -> Option<VirtualDuration> {
        let What::Information { constraints, .. } = &self.what else {
            return None;
        };
        constraints
            .iter()
            .find(|c| c.attr == "qoc-max-age-us")
            .and_then(|c| c.value.as_int())
            .and_then(|us| u64::try_from(us).ok())
            .map(VirtualDuration::from_micros)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query {} by {}: {} {} {} pick {} mode {}",
            self.id, self.owner, self.what, self.where_, self.when, self.which, self.mode
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_name_roundtrip() {
        for m in Mode::ALL {
            assert_eq!(Mode::from_name(m.name()), Some(m));
        }
        assert_eq!(Mode::from_name("push"), None);
    }

    #[test]
    fn subject_resolution() {
        let owner = Guid::from_u128(10);
        assert_eq!(Subject::Owner.resolve(owner), owner);
        let other = Guid::from_u128(11);
        assert_eq!(Subject::Entity(other).resolve(owner), other);
    }

    #[test]
    fn requested_type_only_for_information() {
        let q = Query::builder(Guid::from_u128(1), Guid::from_u128(2))
            .info(ContextType::Path)
            .build();
        assert_eq!(q.requested_type(), Some(&ContextType::Path));

        let q2 = Query::builder(Guid::from_u128(1), Guid::from_u128(2))
            .kind(EntityKind::Device)
            .build();
        assert_eq!(q2.requested_type(), None);
    }

    #[test]
    fn deferred_detection() {
        let now = Query::builder(Guid::from_u128(1), Guid::from_u128(2))
            .info(ContextType::Location)
            .build();
        assert!(!now.is_deferred());

        let later = Query::builder(Guid::from_u128(1), Guid::from_u128(2))
            .info(ContextType::Location)
            .when(When::OnEnter {
                entity: Subject::Owner,
                place: "L10.01".into(),
            })
            .build();
        assert!(later.is_deferred());
    }

    #[test]
    fn max_age_reads_only_a_well_formed_bound() {
        use sci_types::ContextValue;
        let with = |constraints: Vec<Predicate>| {
            Query::builder(Guid::from_u128(1), Guid::from_u128(2))
                .info_matching(ContextType::Location, constraints)
                .build()
        };
        let bound = |v| vec![Predicate::eq("qoc-max-age-us", v)];
        assert_eq!(with(Vec::new()).max_age(), None, "absent");
        assert_eq!(with(bound(ContextValue::Int(-1))).max_age(), None);
        assert_eq!(with(bound(ContextValue::text("soon"))).max_age(), None);
        assert_eq!(
            with(bound(ContextValue::Int(250))).max_age(),
            Some(VirtualDuration::from_micros(250))
        );
        // What the builder writes, `max_age` reads back.
        let fresh = Query::builder(Guid::from_u128(1), Guid::from_u128(2))
            .info(ContextType::Location)
            .fresh_within(VirtualDuration::from_secs(5));
        assert_eq!(fresh.build().max_age(), Some(VirtualDuration::from_secs(5)));
        // The contract only lives on information patterns.
        let kind = Query::builder(Guid::from_u128(1), Guid::from_u128(2))
            .kind(EntityKind::Device)
            .fresh_within(VirtualDuration::from_secs(5));
        assert_eq!(kind.build().max_age(), None);
    }

    #[test]
    fn empty_filter_is_identity() {
        assert_eq!(Which::Closest.filtered(vec![]), Which::Closest);
    }

    #[test]
    fn display_everything() {
        let q = Query::builder(Guid::from_u128(1), Guid::from_u128(2))
            .kind(EntityKind::Device)
            .closest()
            .mode(Mode::Advertisement)
            .where_(Where::ClosestTo(Subject::Owner))
            .when(When::After(VirtualDuration::from_secs(5)))
            .build();
        let s = q.to_string();
        assert!(s.contains("device"));
        assert!(s.contains("closest"));
        assert!(s.contains("advertisement"));
    }
}
