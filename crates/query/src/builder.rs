//! Fluent construction of queries.

use sci_types::{ContextType, ContextValue, EntityKind, Guid, VirtualDuration, VirtualTime};

use crate::ast::{Mode, Query, What, When, Where, Which};
use crate::predicate::{CmpOp, Predicate};

/// Consuming builder for [`Query`].
///
/// Defaults: `what` = any software entity, `where` = anywhere, `when` =
/// immediate, `which` = any, `mode` = subscribe. Filter predicates added
/// with the `attr_*` helpers are attached to the Which clause at
/// [`QueryBuilder::build`] time.
///
/// # Example
///
/// ```
/// use sci_query::{Mode, Query, Subject, When};
/// use sci_types::{Guid, EntityKind};
///
/// // Bob: "print to the closest printer when I reach Room L10.01".
/// let bob = Guid::from_u128(0xb0b);
/// let q = Query::builder(Guid::from_u128(1), bob)
///     .kind(EntityKind::Device)
///     .attr_eq("service", "printing")
///     .in_place("L10.01")
///     .when(When::OnEnter { entity: Subject::Owner, place: "L10.01".into() })
///     .closest()
///     .mode(Mode::Advertisement)
///     .build();
/// assert!(q.is_deferred());
/// ```
#[derive(Clone, Debug)]
pub struct QueryBuilder {
    id: Guid,
    owner: Guid,
    what: What,
    where_: Where,
    when: When,
    which: Which,
    mode: Mode,
    filters: Vec<Predicate>,
}

impl QueryBuilder {
    /// Creates a builder with the documented defaults.
    pub fn new(id: Guid, owner: Guid) -> Self {
        QueryBuilder {
            id,
            owner,
            what: What::Kind(EntityKind::Software),
            where_: Where::Anywhere,
            when: When::Immediate,
            which: Which::Any,
            mode: Mode::Subscribe,
            filters: Vec::new(),
        }
    }

    /// Sets the What clause explicitly.
    pub fn what(mut self, what: What) -> Self {
        self.what = what;
        self
    }

    /// What: an entity of the given class.
    pub fn kind(mut self, kind: EntityKind) -> Self {
        self.what = What::Kind(kind);
        self
    }

    /// What: the specific named entity.
    pub fn named(mut self, id: Guid) -> Self {
        self.what = What::Named(id);
        self
    }

    /// What: information of the given context type.
    pub fn info(mut self, ty: ContextType) -> Self {
        self.what = What::info(ty);
        self
    }

    /// What: information of the given type, constrained by predicates.
    pub fn info_matching(mut self, ty: ContextType, constraints: Vec<Predicate>) -> Self {
        self.what = What::Information { ty, constraints };
        self
    }

    /// Sets the Where clause explicitly.
    pub fn where_(mut self, where_: Where) -> Self {
        self.where_ = where_;
        self
    }

    /// Where: an explicit logical place.
    pub fn in_place(mut self, place: impl Into<String>) -> Self {
        self.where_ = Where::Place(place.into());
        self
    }

    /// Where: a named range.
    pub fn in_range(mut self, range: impl Into<String>) -> Self {
        self.where_ = Where::Range(range.into());
        self
    }

    /// Sets the When clause explicitly.
    pub fn when(mut self, when: When) -> Self {
        self.when = when;
        self
    }

    /// When: at an absolute instant.
    pub fn at(mut self, t: VirtualTime) -> Self {
        self.when = When::At(t);
        self
    }

    /// When: after a delay.
    pub fn after(mut self, d: VirtualDuration) -> Self {
        self.when = When::After(d);
        self
    }

    /// Sets the Which clause explicitly (filters added via `attr_*`
    /// helpers still wrap it at build time).
    pub fn which(mut self, which: Which) -> Self {
        self.which = which;
        self
    }

    /// Which: the spatially closest candidate.
    pub fn closest(mut self) -> Self {
        self.which = Which::Closest;
        self
    }

    /// Which: all candidates.
    pub fn all(mut self) -> Self {
        self.which = Which::All;
        self
    }

    /// Which: minimise a numeric attribute.
    pub fn min_attr(mut self, attr: impl Into<String>) -> Self {
        self.which = Which::MinAttr(attr.into());
        self
    }

    /// Adds a filter predicate (conjunction).
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.filters.push(predicate);
        self
    }

    /// Filter: attribute equals a text value.
    pub fn attr_eq(self, attr: impl Into<String>, value: impl Into<String>) -> Self {
        self.filter(Predicate::eq(attr, ContextValue::Text(value.into())))
    }

    /// Filter: numeric attribute is at most `max`.
    pub fn attr_int_at_most(self, attr: impl Into<String>, max: i64) -> Self {
        self.filter(Predicate::new(attr, CmpOp::Le, ContextValue::Int(max)))
    }

    /// Filter: boolean attribute is true.
    pub fn attr_true(self, attr: impl Into<String>) -> Self {
        self.filter(Predicate::eq(attr, ContextValue::Bool(true)))
    }

    /// Quality-of-context contract: delivered context must be no older
    /// than `max_age` at delivery time. Encoded as a reserved
    /// `qoc-max-age-us` constraint on the What pattern; the Context
    /// Server enforces it per delivery.
    pub fn fresh_within(mut self, max_age: VirtualDuration) -> Self {
        let pred = Predicate::eq(
            "qoc-max-age-us",
            ContextValue::Int(max_age.as_micros() as i64),
        );
        match &mut self.what {
            What::Information { constraints, .. } => constraints.push(pred),
            _ => {
                // Contracts only make sense on information patterns;
                // attach as a Which filter otherwise (harmless: the
                // attribute never exists on profiles, so Kind/Named
                // queries with a freshness contract select nothing —
                // surfaced at resolution as unresolvable).
                self.filters.push(pred);
            }
        }
        self
    }

    /// Sets the mode.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Finishes the query, attaching accumulated filters to the Which
    /// clause.
    pub fn build(self) -> Query {
        Query {
            id: self.id,
            owner: self.owner,
            what: self.what,
            where_: self.where_,
            when: self.when,
            which: self.which.filtered(self.filters),
            mode: self.mode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let q = QueryBuilder::new(Guid::from_u128(1), Guid::from_u128(2)).build();
        assert_eq!(q.where_, Where::Anywhere);
        assert_eq!(q.when, When::Immediate);
        assert_eq!(q.which, Which::Any);
        assert_eq!(q.mode, Mode::Subscribe);
    }

    #[test]
    fn filters_wrap_which() {
        let q = QueryBuilder::new(Guid::from_u128(1), Guid::from_u128(2))
            .closest()
            .attr_int_at_most("queue", 0)
            .attr_true("paper")
            .build();
        match q.which {
            Which::Filtered { predicates, then } => {
                assert_eq!(predicates.len(), 2);
                assert_eq!(*then, Which::Closest);
            }
            other => panic!("expected filtered which, got {other:?}"),
        }
    }

    #[test]
    fn no_filters_leaves_which_untouched() {
        let q = QueryBuilder::new(Guid::from_u128(1), Guid::from_u128(2))
            .min_attr("queue")
            .build();
        assert_eq!(q.which, Which::MinAttr("queue".into()));
    }

    #[test]
    fn where_when_helpers() {
        let q = QueryBuilder::new(Guid::from_u128(1), Guid::from_u128(2))
            .in_range("level-ten")
            .after(VirtualDuration::from_secs(30))
            .build();
        assert_eq!(q.where_, Where::Range("level-ten".into()));
        assert_eq!(q.when, When::After(VirtualDuration::from_secs(30)));
        assert!(q.is_deferred());
    }
}
