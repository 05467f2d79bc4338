//! Matching What clauses against Context Entity profiles.
//!
//! This is the entry predicate of the query resolver's type-matching
//! search: given a query's What clause, which registered CEs are
//! candidate *roots* of a configuration?

use sci_types::Profile;

use crate::ast::What;
use crate::predicate::{eval_all, Predicate};

/// Returns `true` if the attribute names a delivery-time
/// quality-of-context contract (the reserved `qoc-` prefix, e.g.
/// `qoc-max-age-us`). Such constraints are enforced when events are
/// delivered, never matched against provider attributes.
fn is_qoc_constraint(attr: &str) -> bool {
    attr.starts_with("qoc-")
}

/// Filters a constraint list down to the provider-attribute predicates:
/// everything except delivery-time quality-of-context contracts. Both
/// profile matching and the query resolver select providers with this.
pub fn attribute_constraints(constraints: &[Predicate]) -> Vec<Predicate> {
    constraints
        .iter()
        .filter(|c| !is_qoc_constraint(&c.attr))
        .cloned()
        .collect()
}

/// Returns `true` if the profile can satisfy the What clause directly.
///
/// * [`What::Kind`] matches entities of that class.
/// * [`What::Named`] matches exactly the named entity.
/// * [`What::Information`] matches entities that *provide* the requested
///   context type as an output and whose attributes satisfy every
///   constraint.
///
/// # Example
///
/// ```
/// use sci_query::{matcher, What};
/// use sci_types::{ContextType, EntityKind, Guid, PortSpec, Profile};
///
/// let sensor = Profile::builder(Guid::from_u128(1), EntityKind::Device, "thermo")
///     .output(PortSpec::new("t", ContextType::Temperature))
///     .build();
/// assert!(matcher::matches(&What::info(ContextType::Temperature), &sensor));
/// assert!(matcher::matches(&What::Kind(EntityKind::Device), &sensor));
/// assert!(!matcher::matches(&What::info(ContextType::Location), &sensor));
/// ```
pub fn matches(what: &What, profile: &Profile) -> bool {
    match what {
        What::Kind(kind) => profile.kind() == *kind,
        What::Named(id) => profile.id() == *id,
        What::Information { ty, constraints } => {
            let attribute_constraints = attribute_constraints(constraints);
            profile.provides(ty) && eval_all(&attribute_constraints, profile.attributes())
        }
    }
}

/// Filters a profile set down to the candidates for a What clause,
/// preserving order.
pub fn candidates<'a, I>(what: &'a What, profiles: I) -> impl Iterator<Item = &'a Profile> + 'a
where
    I: IntoIterator<Item = &'a Profile>,
    I::IntoIter: 'a,
{
    profiles.into_iter().filter(move |p| matches(what, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use sci_types::{ContextType, ContextValue, EntityKind, Guid, PortSpec};

    fn profiles() -> Vec<Profile> {
        vec![
            Profile::builder(Guid::from_u128(1), EntityKind::Device, "thermo-lab")
                .output(PortSpec::new("t", ContextType::Temperature))
                .attribute("unit", ContextValue::text("celsius"))
                .build(),
            Profile::builder(Guid::from_u128(2), EntityKind::Device, "thermo-roof")
                .output(PortSpec::new("t", ContextType::Temperature))
                .attribute("unit", ContextValue::text("fahrenheit"))
                .build(),
            Profile::builder(Guid::from_u128(3), EntityKind::Software, "objLocationCE")
                .input(PortSpec::new("presence", ContextType::Presence))
                .output(PortSpec::new("loc", ContextType::Location))
                .build(),
        ]
    }

    #[test]
    fn kind_matching() {
        let ps = profiles();
        let what = What::Kind(EntityKind::Device);
        assert_eq!(candidates(&what, &ps).count(), 2);
    }

    #[test]
    fn named_matching() {
        let ps = profiles();
        let what = What::Named(Guid::from_u128(3));
        let found: Vec<_> = candidates(&what, &ps).collect();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name(), "objLocationCE");
    }

    #[test]
    fn information_with_constraint() {
        let ps = profiles();
        // "temperature in degrees Celsius" — the paper's own example.
        let what = What::Information {
            ty: ContextType::Temperature,
            constraints: vec![Predicate::eq("unit", ContextValue::text("celsius"))],
        };
        let found: Vec<_> = candidates(&what, &ps).collect();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name(), "thermo-lab");
    }

    #[test]
    fn information_requires_output_not_input() {
        let ps = profiles();
        let what = What::info(ContextType::Presence);
        assert_eq!(
            candidates(&what, &ps).count(),
            0,
            "objLocationCE consumes presence but does not provide it"
        );
    }
}
