//! The Registrar.
//!
//! "Maintains an accurate view of all entities within the current Range"
//! (paper, Section 3.1). "All CE's are registered within a range when
//! they arrive and deregistered upon departure."

use sci_types::{EntityDescriptor, Guid, HashMap, SciError, SciResult};

/// The authoritative view of which entities are in the range.
#[derive(Clone, Debug, Default)]
pub struct Registrar {
    entities: HashMap<Guid, EntityDescriptor>,
}

impl Registrar {
    /// Creates an empty registrar.
    pub fn new() -> Self {
        Registrar::default()
    }

    /// Registers an arriving entity.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::Internal`] for a double registration — the
    /// Range Service must deregister before re-registering.
    pub fn register(&mut self, descriptor: EntityDescriptor) -> SciResult<()> {
        if self.entities.contains_key(&descriptor.id) {
            return Err(SciError::Internal(format!(
                "entity {} is already registered",
                descriptor.id
            )));
        }
        self.entities.insert(descriptor.id, descriptor);
        Ok(())
    }

    /// Deregisters a departing entity, returning its descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownEntity`] if it was not registered.
    pub fn deregister(&mut self, id: Guid) -> SciResult<EntityDescriptor> {
        self.entities.remove(&id).ok_or(SciError::UnknownEntity(id))
    }

    /// Returns `true` if the entity is currently in the range.
    pub fn is_registered(&self, id: Guid) -> bool {
        self.entities.contains_key(&id)
    }

    /// Looks up a registered entity.
    pub fn descriptor(&self, id: Guid) -> Option<&EntityDescriptor> {
        self.entities.get(&id)
    }

    /// Number of registered entities.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Returns `true` if the range is empty.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// All registered entities (unordered).
    pub fn entities(&self) -> impl Iterator<Item = &EntityDescriptor> {
        self.entities.values()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_types::EntityKind;

    fn bob() -> EntityDescriptor {
        EntityDescriptor::new(Guid::from_u128(1), EntityKind::Person, "Bob")
    }

    #[test]
    fn register_deregister_lifecycle() {
        let mut r = Registrar::new();
        r.register(bob()).unwrap();
        assert!(r.is_registered(Guid::from_u128(1)));
        assert_eq!(r.len(), 1);

        let d = r.deregister(Guid::from_u128(1)).unwrap();
        assert_eq!(d.name, "Bob");
        assert!(!r.is_registered(Guid::from_u128(1)));
        assert!(r.is_empty());
    }

    #[test]
    fn double_registration_rejected() {
        let mut r = Registrar::new();
        r.register(bob()).unwrap();
        assert!(r.register(bob()).is_err());
    }

    #[test]
    fn deregister_unknown_errors() {
        let mut r = Registrar::new();
        assert!(matches!(
            r.deregister(Guid::from_u128(9)),
            Err(SciError::UnknownEntity(_))
        ));
    }

    #[test]
    fn kind_filtering() {
        let mut r = Registrar::new();
        r.register(bob()).unwrap();
        r.register(EntityDescriptor::new(
            Guid::from_u128(2),
            EntityKind::Device,
            "P1",
        ))
        .unwrap();
        assert_eq!(r.entities().count(), 2);
    }

    #[test]
    fn reregistration_after_departure_allowed() {
        let mut r = Registrar::new();
        r.register(bob()).unwrap();
        r.deregister(Guid::from_u128(1)).unwrap();
        r.register(bob()).unwrap();
        assert!(r.is_registered(Guid::from_u128(1)));
    }
}
