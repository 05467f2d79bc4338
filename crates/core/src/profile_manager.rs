//! The Profile Manager.
//!
//! "Provides access and update abilities to Context Entities Profiles"
//! (paper, Section 3.1). Profiles are the resolver's search space: the
//! manager indexes them by provided context type so type matching stays
//! fast as ranges grow, and applies live attribute updates (a printer's
//! queue length changes with every status event) so Which-clause
//! selection sees current state.
//!
//! At city scale a Range holds 100k–1M entities, so the per-type
//! provider index keeps registration order in a serial-keyed
//! `ProviderSet` instead of a `Vec` — deregistering one entity is
//! O(log n) per provided type, not a scan over every provider of that
//! type. The original `Vec`-per-type implementation survives as
//! [`oracle::UnshardedProfileManager`] so property tests can prove the
//! two observably equivalent under churn.

use std::collections::{BTreeMap, HashMap, HashSet};

use sci_types::{
    ContextType, ContextValue, DeterministicState, Guid, Profile, SciError, SciResult,
};

/// Registration-ordered set of providers of one context type.
///
/// Iteration yields GUIDs in registration order (ascending serial);
/// membership and removal are `O(log n)` via the reverse index, so a
/// 1M-provider type no longer costs a full scan per deregistration.
#[derive(Clone, Debug, Default)]
struct ProviderSet {
    order: BTreeMap<u64, Guid>,
    serial_of: HashMap<Guid, u64>,
    next_serial: u64,
}

impl ProviderSet {
    fn insert(&mut self, id: Guid) {
        if self.serial_of.contains_key(&id) {
            return;
        }
        let serial = self.next_serial;
        self.next_serial += 1;
        self.order.insert(serial, id);
        self.serial_of.insert(id, serial);
    }

    fn remove(&mut self, id: Guid) {
        if let Some(serial) = self.serial_of.remove(&id) {
            self.order.remove(&serial);
        }
    }

    fn iter(&self) -> impl Iterator<Item = Guid> + '_ {
        self.order.values().copied()
    }

    fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Storage and indexing for Context Entity profiles.
#[derive(Clone, Debug, Default)]
pub struct ProfileManager {
    /// Primary store, by entity GUID.
    profiles: HashMap<Guid, Profile, DeterministicState>,
    /// Provided-type → registration-ordered provider set.
    by_output: HashMap<ContextType, ProviderSet>,
    /// Semantic-equivalence classes over context types (paper §6, open
    /// issue 2: "notions of semantic equivalence"). Types in one class
    /// are interchangeable during composition — the answer to the
    /// iQueue critique that a door-sensor location network cannot stand
    /// in for a wireless detection scheme.
    equivalence_classes: Vec<Vec<ContextType>>,
    /// Type → index into `equivalence_classes`, so `compatible` and
    /// `equivalents` are hash lookups instead of scans over every class
    /// (the analysis bridge calls `compatible` once per plan edge).
    class_of: HashMap<ContextType, usize>,
}

impl ProfileManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        ProfileManager::default()
    }

    /// Stores a profile (on entity registration).
    ///
    /// # Errors
    ///
    /// Returns [`SciError::Internal`] if the entity already has a
    /// profile.
    pub fn insert(&mut self, profile: Profile) -> SciResult<()> {
        let id = profile.id();
        if self.profiles.contains_key(&id) {
            return Err(SciError::Internal(format!(
                "profile for {id} already stored"
            )));
        }
        for port in profile.outputs() {
            self.by_output
                .entry(port.ty.clone())
                .or_default()
                .insert(id);
        }
        self.profiles.insert(id, profile);
        Ok(())
    }

    /// Removes a profile (on deregistration), returning it.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownEntity`] if absent.
    pub fn remove(&mut self, id: Guid) -> SciResult<Profile> {
        let profile = self
            .profiles
            .remove(&id)
            .ok_or(SciError::UnknownEntity(id))?;
        for port in profile.outputs() {
            if let Some(set) = self.by_output.get_mut(&port.ty) {
                set.remove(id);
                if set.is_empty() {
                    self.by_output.remove(&port.ty);
                }
            }
        }
        Ok(profile)
    }

    /// Looks up a profile.
    pub fn get(&self, id: Guid) -> Option<&Profile> {
        self.profiles.get(&id)
    }

    /// Updates one attribute of a profile.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownEntity`] if absent.
    pub fn update_attribute(
        &mut self,
        id: Guid,
        key: &str,
        value: ContextValue,
    ) -> SciResult<Option<ContextValue>> {
        let profile = self
            .profiles
            .get_mut(&id)
            .ok_or(SciError::UnknownEntity(id))?;
        Ok(profile.attributes_mut().set(key, value))
    }

    /// Entities whose profiles provide `ty` as an output, in
    /// registration order.
    pub fn providers_of(&self, ty: &ContextType) -> Vec<&Profile> {
        self.by_output
            .get(ty)
            .map(|set| set.iter().filter_map(|id| self.profiles.get(&id)).collect())
            .unwrap_or_default()
    }

    /// Declares two context types semantically equivalent (symmetric
    /// and transitive: classes merge).
    pub fn declare_equivalence(&mut self, a: ContextType, b: ContextType) {
        let ia = self.class_of.get(&a).copied();
        let ib = self.class_of.get(&b).copied();
        match (ia, ib) {
            (Some(i), Some(j)) if i == j => {}
            (Some(i), Some(j)) => {
                let (keep, merge) = if i < j { (i, j) } else { (j, i) };
                let merged = self.equivalence_classes.remove(merge);
                self.equivalence_classes[keep].extend(merged);
                // `remove` shifted every class after `merge` down one;
                // rebuild the type → class index. Merges are rare
                // configuration events, lookups are the hot path.
                self.class_of.clear();
                for (idx, class) in self.equivalence_classes.iter().enumerate() {
                    for t in class {
                        self.class_of.insert(t.clone(), idx);
                    }
                }
            }
            (Some(i), None) => {
                self.equivalence_classes[i].push(b.clone());
                self.class_of.insert(b, i);
            }
            (None, Some(j)) => {
                self.equivalence_classes[j].push(a.clone());
                self.class_of.insert(a, j);
            }
            (None, None) => {
                let idx = self.equivalence_classes.len();
                self.equivalence_classes.push(vec![a.clone(), b.clone()]);
                self.class_of.insert(a, idx);
                self.class_of.insert(b, idx);
            }
        }
    }

    /// The types semantically equivalent to `ty`, including `ty` itself.
    pub fn equivalents(&self, ty: &ContextType) -> Vec<ContextType> {
        self.class_of
            .get(ty)
            .map(|&i| self.equivalence_classes[i].clone())
            .unwrap_or_else(|| vec![ty.clone()])
    }

    /// Every declared equivalence class, each class's members sorted by
    /// name and the classes sorted by their first member — the
    /// deterministic export the durability snapshot serialises, from
    /// which `declare_equivalence` replay rebuilds identical classes.
    pub fn equivalence_classes(&self) -> Vec<Vec<ContextType>> {
        let mut classes: Vec<Vec<ContextType>> = self
            .equivalence_classes
            .iter()
            .map(|class| {
                let mut c = class.clone();
                c.sort_by(|a, b| a.name().cmp(b.name()));
                c
            })
            .collect();
        classes.sort_by(|a, b| {
            let an = a.first().map(ContextType::name).unwrap_or("");
            let bn = b.first().map(ContextType::name).unwrap_or("");
            an.cmp(bn)
        });
        classes
    }

    /// Returns `true` if the two types are the same or declared
    /// equivalent. Constant-time: two hash lookups, no allocation.
    pub fn compatible(&self, a: &ContextType, b: &ContextType) -> bool {
        a == b
            || matches!(
                (self.class_of.get(a), self.class_of.get(b)),
                (Some(i), Some(j)) if i == j
            )
    }

    /// Providers of `ty` or of any type declared equivalent to it, in
    /// registration order per class member.
    pub fn providers_of_compatible(&self, ty: &ContextType) -> Vec<&Profile> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for t in self.equivalents(ty) {
            for p in self.providers_of(&t) {
                if seen.insert(p.id()) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// All stored profiles (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &Profile> {
        self.profiles.values()
    }

    /// Number of stored profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Returns `true` if no profiles are stored.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

/// The first implementation, retained verbatim as the equivalence
/// oracle for property tests (`prop_profile_shards`): one `HashMap` for
/// the store, one `Vec<Guid>` per provided type.
pub mod oracle {
    use super::*;

    /// Profile store with `Vec`-based provider lists and scanned
    /// equivalence classes — the behaviourally-authoritative reference
    /// [`ProfileManager`]'s provider and class indexes are
    /// property-tested against.
    #[derive(Clone, Debug, Default)]
    pub struct UnshardedProfileManager {
        profiles: HashMap<Guid, Profile>,
        by_output: HashMap<ContextType, Vec<Guid>>,
        equivalence_classes: Vec<Vec<ContextType>>,
        class_of: HashMap<ContextType, usize>,
    }

    impl UnshardedProfileManager {
        /// Creates an empty manager.
        pub fn new() -> Self {
            UnshardedProfileManager::default()
        }

        /// Stores a profile; errors on duplicate id.
        ///
        /// # Errors
        ///
        /// Returns [`SciError::Internal`] if the entity already has a
        /// profile.
        pub fn insert(&mut self, profile: Profile) -> SciResult<()> {
            let id = profile.id();
            if self.profiles.contains_key(&id) {
                return Err(SciError::Internal(format!(
                    "profile for {id} already stored"
                )));
            }
            for port in profile.outputs() {
                self.by_output.entry(port.ty.clone()).or_default().push(id);
            }
            self.profiles.insert(id, profile);
            Ok(())
        }

        /// Removes a profile, returning it.
        ///
        /// # Errors
        ///
        /// Returns [`SciError::UnknownEntity`] if absent.
        pub fn remove(&mut self, id: Guid) -> SciResult<Profile> {
            let profile = self
                .profiles
                .remove(&id)
                .ok_or(SciError::UnknownEntity(id))?;
            for port in profile.outputs() {
                if let Some(list) = self.by_output.get_mut(&port.ty) {
                    list.retain(|&g| g != id);
                }
            }
            Ok(profile)
        }

        /// Looks up a profile.
        pub fn get(&self, id: Guid) -> Option<&Profile> {
            self.profiles.get(&id)
        }

        /// Updates one attribute of a profile.
        ///
        /// # Errors
        ///
        /// Returns [`SciError::UnknownEntity`] if absent.
        pub fn update_attribute(
            &mut self,
            id: Guid,
            key: &str,
            value: ContextValue,
        ) -> SciResult<Option<ContextValue>> {
            let profile = self
                .profiles
                .get_mut(&id)
                .ok_or(SciError::UnknownEntity(id))?;
            Ok(profile.attributes_mut().set(key, value))
        }

        /// Providers of `ty`, in registration order.
        pub fn providers_of(&self, ty: &ContextType) -> Vec<&Profile> {
            self.by_output
                .get(ty)
                .map(|ids| ids.iter().filter_map(|id| self.profiles.get(id)).collect())
                .unwrap_or_default()
        }

        /// Declares two context types semantically equivalent.
        pub fn declare_equivalence(&mut self, a: ContextType, b: ContextType) {
            let ia = self.class_of.get(&a).copied();
            let ib = self.class_of.get(&b).copied();
            match (ia, ib) {
                (Some(i), Some(j)) if i == j => {}
                (Some(i), Some(j)) => {
                    let (keep, merge) = if i < j { (i, j) } else { (j, i) };
                    let merged = self.equivalence_classes.remove(merge);
                    self.equivalence_classes[keep].extend(merged);
                    self.class_of.clear();
                    for (idx, class) in self.equivalence_classes.iter().enumerate() {
                        for t in class {
                            self.class_of.insert(t.clone(), idx);
                        }
                    }
                }
                (Some(i), None) => {
                    self.equivalence_classes[i].push(b.clone());
                    self.class_of.insert(b, i);
                }
                (None, Some(j)) => {
                    self.equivalence_classes[j].push(a.clone());
                    self.class_of.insert(a, j);
                }
                (None, None) => {
                    let idx = self.equivalence_classes.len();
                    self.equivalence_classes.push(vec![a.clone(), b.clone()]);
                    self.class_of.insert(a, idx);
                    self.class_of.insert(b, idx);
                }
            }
        }

        /// The types semantically equivalent to `ty`, including `ty`.
        pub fn equivalents(&self, ty: &ContextType) -> Vec<ContextType> {
            self.class_of
                .get(ty)
                .map(|&i| self.equivalence_classes[i].clone())
                .unwrap_or_else(|| vec![ty.clone()])
        }

        /// Whether two types are the same or declared equivalent.
        pub fn compatible(&self, a: &ContextType, b: &ContextType) -> bool {
            a == b
                || matches!(
                    (self.class_of.get(a), self.class_of.get(b)),
                    (Some(i), Some(j)) if i == j
                )
        }

        /// Providers of `ty` or any equivalent type, deduplicated.
        pub fn providers_of_compatible(&self, ty: &ContextType) -> Vec<&Profile> {
            let mut seen = HashSet::new();
            let mut out = Vec::new();
            for t in self.equivalents(ty) {
                for p in self.providers_of(&t) {
                    if seen.insert(p.id()) {
                        out.push(p);
                    }
                }
            }
            out
        }

        /// Number of stored profiles.
        pub fn len(&self) -> usize {
            self.profiles.len()
        }

        /// Returns `true` if no profiles are stored.
        pub fn is_empty(&self) -> bool {
            self.profiles.is_empty()
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_types::{EntityKind, PortSpec};

    fn sensor(raw: u128) -> Profile {
        Profile::builder(Guid::from_u128(raw), EntityKind::Device, format!("s{raw}"))
            .output(PortSpec::new("presence", ContextType::Presence))
            .build()
    }

    #[test]
    fn index_tracks_inserts_and_removals() {
        let mut pm = ProfileManager::new();
        pm.insert(sensor(1)).unwrap();
        pm.insert(sensor(2)).unwrap();
        assert_eq!(pm.providers_of(&ContextType::Presence).len(), 2);
        pm.remove(Guid::from_u128(1)).unwrap();
        let providers = pm.providers_of(&ContextType::Presence);
        assert_eq!(providers.len(), 1);
        assert_eq!(providers[0].id(), Guid::from_u128(2));
        assert!(pm.providers_of(&ContextType::Path).is_empty());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut pm = ProfileManager::new();
        pm.insert(sensor(1)).unwrap();
        assert!(pm.insert(sensor(1)).is_err());
        assert_eq!(pm.len(), 1);
    }

    #[test]
    fn attribute_updates_visible_to_queries() {
        let mut pm = ProfileManager::new();
        pm.insert(sensor(1)).unwrap();
        let old = pm
            .update_attribute(Guid::from_u128(1), "queue", ContextValue::Int(3))
            .unwrap();
        assert_eq!(old, None);
        let old = pm
            .update_attribute(Guid::from_u128(1), "queue", ContextValue::Int(0))
            .unwrap();
        assert_eq!(old, Some(ContextValue::Int(3)));
        assert_eq!(
            pm.get(Guid::from_u128(1))
                .unwrap()
                .attributes()
                .get("queue")
                .and_then(ContextValue::as_int),
            Some(0)
        );
        assert!(pm
            .update_attribute(Guid::from_u128(9), "x", ContextValue::Empty)
            .is_err());
    }

    #[test]
    fn equivalence_classes_merge_and_resolve() {
        let mut pm = ProfileManager::new();
        pm.insert(sensor(1)).unwrap();
        let badge = ContextType::custom("badge-scan");
        let rfid = ContextType::custom("rfid-read");
        pm.insert(
            Profile::builder(Guid::from_u128(2), EntityKind::Device, "badge-reader")
                .output(PortSpec::new("scan", badge.clone()))
                .build(),
        )
        .unwrap();

        assert_eq!(pm.providers_of_compatible(&ContextType::Presence).len(), 1);
        pm.declare_equivalence(ContextType::Presence, badge.clone());
        assert_eq!(pm.providers_of_compatible(&ContextType::Presence).len(), 2);
        assert!(pm.compatible(&badge, &ContextType::Presence));
        assert!(!pm.compatible(&badge, &ContextType::Path));

        // Transitivity through class merging.
        pm.declare_equivalence(rfid.clone(), badge.clone());
        assert!(pm.compatible(&rfid, &ContextType::Presence));
        let mut eq = pm.equivalents(&ContextType::Presence);
        eq.sort_by_key(|t| t.name().to_owned());
        assert_eq!(eq.len(), 3);

        // Re-declaring within one class is a no-op.
        pm.declare_equivalence(rfid, ContextType::Presence);
        assert_eq!(pm.equivalents(&badge).len(), 3);
    }

    #[test]
    fn unrelated_type_is_its_own_class() {
        let pm = ProfileManager::new();
        assert_eq!(pm.equivalents(&ContextType::Path), vec![ContextType::Path]);
        assert!(pm.compatible(&ContextType::Path, &ContextType::Path));
    }

    #[test]
    fn remove_unknown_errors() {
        let mut pm = ProfileManager::new();
        assert!(matches!(
            pm.remove(Guid::from_u128(5)),
            Err(SciError::UnknownEntity(_))
        ));
    }

    #[test]
    fn registration_order_survives_interleaved_churn() {
        let mut pm = ProfileManager::new();
        for raw in 1..=50u128 {
            pm.insert(sensor(raw)).unwrap();
        }
        for raw in (1..=50u128).step_by(3) {
            pm.remove(Guid::from_u128(raw)).unwrap();
        }
        let survivors: Vec<u128> = pm
            .providers_of(&ContextType::Presence)
            .iter()
            .map(|p| p.id().as_u128())
            .collect();
        let expected: Vec<u128> = (1..=50).filter(|r| (r - 1) % 3 != 0).collect();
        assert_eq!(survivors, expected, "registration order must survive");
    }
}
