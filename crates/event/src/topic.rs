//! Event filters.
//!
//! A [`Topic`] selects the events a subscription wants: by context type,
//! by producing entity, by subject entity, or any conjunction of those.
//! An unconstrained topic matches everything (used by range-wide
//! monitors such as the Range Service).

use std::fmt;

use sci_types::{ContextEvent, ContextType, Guid};

/// A conjunctive event filter.
///
/// # Example
///
/// ```
/// use sci_event::Topic;
/// use sci_types::{ContextEvent, ContextType, ContextValue, Guid, VirtualTime};
///
/// // objLocationCE subscribes to all presence events about Bob.
/// let bob = Guid::from_u128(0xb0b);
/// let topic = Topic::of_type(ContextType::Presence).about(bob);
///
/// let ev = ContextEvent::new(
///     Guid::from_u128(1),
///     ContextType::Presence,
///     ContextValue::record([("subject", ContextValue::Id(bob))]),
///     VirtualTime::ZERO,
/// );
/// assert!(topic.matches(&ev));
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Topic {
    ty: Option<ContextType>,
    source: Option<Guid>,
    subject: Option<Guid>,
}

impl Topic {
    /// The topic matching every event.
    pub fn any() -> Topic {
        Topic::default()
    }

    /// A topic matching events of one context type.
    pub fn of_type(ty: ContextType) -> Topic {
        Topic {
            ty: Some(ty),
            ..Topic::default()
        }
    }

    /// A topic matching events from one producer.
    pub fn from_source(source: Guid) -> Topic {
        Topic {
            source: Some(source),
            ..Topic::default()
        }
    }

    /// Restricts the topic to one producing entity (builder style).
    pub fn from(mut self, source: Guid) -> Topic {
        self.source = Some(source);
        self
    }

    /// Restricts the topic to events whose payload `subject` field names
    /// the given entity (builder style).
    pub fn about(mut self, subject: Guid) -> Topic {
        self.subject = Some(subject);
        self
    }

    /// The type constraint, if any.
    pub fn ty(&self) -> Option<&ContextType> {
        self.ty.as_ref()
    }

    /// The source constraint, if any.
    pub fn source(&self) -> Option<Guid> {
        self.source
    }

    /// The subject constraint, if any.
    pub fn subject(&self) -> Option<Guid> {
        self.subject
    }

    /// Returns `true` if the event passes every constraint.
    pub fn matches(&self, event: &ContextEvent) -> bool {
        self.matches_envelope(event)
            && self
                .subject
                .is_none_or(|subject| event.subject() == Some(subject))
    }

    /// [`Topic::matches`] for a caller that has already extracted the
    /// event's subject (the index does so once per publish rather than
    /// once per candidate).
    pub(crate) fn matches_with_subject(&self, event: &ContextEvent, subject: Option<Guid>) -> bool {
        self.matches_envelope(event) && self.subject.is_none_or(|s| subject == Some(s))
    }

    /// The type and source constraints — everything readable without
    /// walking the payload.
    fn matches_envelope(&self, event: &ContextEvent) -> bool {
        self.ty.as_ref().is_none_or(|ty| event.topic == *ty)
            && self.source.is_none_or(|source| event.source == source)
    }

    /// Returns `true` if the topic has no constraints.
    pub fn is_wildcard(&self) -> bool {
        self.ty.is_none() && self.source.is_none() && self.subject.is_none()
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_wildcard() {
            return f.write_str("*");
        }
        let mut wrote = false;
        if let Some(ty) = &self.ty {
            write!(f, "type={ty}")?;
            wrote = true;
        }
        if let Some(source) = self.source {
            if wrote {
                f.write_str(" ")?;
            }
            write!(f, "from={source}")?;
            wrote = true;
        }
        if let Some(subject) = self.subject {
            if wrote {
                f.write_str(" ")?;
            }
            write!(f, "about={subject}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_types::{ContextValue, VirtualTime};

    fn presence_event(source: Guid, subject: Guid) -> ContextEvent {
        ContextEvent::new(
            source,
            ContextType::Presence,
            ContextValue::record([("subject", ContextValue::Id(subject))]),
            VirtualTime::ZERO,
        )
    }

    #[test]
    fn wildcard_matches_everything() {
        let t = Topic::any();
        assert!(t.is_wildcard());
        assert!(t.matches(&presence_event(Guid::from_u128(1), Guid::from_u128(2))));
    }

    #[test]
    fn type_filtering() {
        let t = Topic::of_type(ContextType::Temperature);
        assert!(!t.matches(&presence_event(Guid::from_u128(1), Guid::from_u128(2))));
        let ev = ContextEvent::new(
            Guid::from_u128(1),
            ContextType::Temperature,
            ContextValue::Float(20.0),
            VirtualTime::ZERO,
        );
        assert!(t.matches(&ev));
    }

    #[test]
    fn source_and_subject_filtering() {
        let door = Guid::from_u128(1);
        let bob = Guid::from_u128(2);
        let john = Guid::from_u128(3);
        let t = Topic::of_type(ContextType::Presence).from(door).about(bob);
        assert!(t.matches(&presence_event(door, bob)));
        assert!(!t.matches(&presence_event(door, john)), "wrong subject");
        assert!(!t.matches(&presence_event(john, bob)), "wrong source");
    }

    #[test]
    fn subject_constraint_fails_without_subject_field() {
        let t = Topic::any().about(Guid::from_u128(9));
        let ev = ContextEvent::new(
            Guid::from_u128(1),
            ContextType::Temperature,
            ContextValue::Float(1.0),
            VirtualTime::ZERO,
        );
        assert!(!t.matches(&ev));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Topic::any().to_string(), "*");
        let t = Topic::of_type(ContextType::Presence).from(Guid::from_u128(1));
        let s = t.to_string();
        assert!(s.contains("type=presence"));
        assert!(s.contains("from="));
    }
}
