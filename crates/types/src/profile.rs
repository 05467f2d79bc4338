//! Context Entity profiles.
//!
//! "CE Profiles consist of simple Metadata about entity inputs and
//! outputs" (paper, Section 4). The query resolver performs *type
//! matching* over these typed ports: an entity whose [`Profile`] lists
//! [`ContextType::Path`] as an output and two [`ContextType::Location`]s
//! as inputs is the `pathCE` of the paper's Figure 3 walk-through.

use std::fmt;

use crate::entity::{EntityDescriptor, EntityKind};
use crate::guid::Guid;
use crate::metadata::Metadata;
use crate::value::{ContextType, ContextValue};

/// A typed input or output port of a Context Entity.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PortSpec {
    /// Port name, unique within the profile's inputs or outputs
    /// (e.g. `"from"`, `"to"`, `"presence"`).
    pub name: String,
    /// The context type the port consumes or produces.
    pub ty: ContextType,
}

impl PortSpec {
    /// Creates a port specification.
    pub fn new(name: impl Into<String>, ty: ContextType) -> Self {
        PortSpec {
            name: name.into(),
            ty,
        }
    }

    /// Returns `true` if a flow of `ty` satisfies this port directly
    /// (exact type match; semantic equivalence is the Profile Manager's
    /// concern and layered on top by callers that have one).
    pub fn accepts(&self, ty: &ContextType) -> bool {
        self.ty == *ty
    }
}

impl fmt::Display for PortSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.ty)
    }
}

/// The metadata a Context Entity registers with its range.
///
/// A profile declares *what the entity is* (its [`EntityDescriptor`]),
/// *what it consumes* (`inputs`), *what it produces* (`outputs`) and
/// free-form attributes used by Which-clause selection (e.g. a printer's
/// queue length or a sensor's room).
///
/// Construct profiles with [`Profile::builder`].
#[derive(Clone, PartialEq, Debug)]
pub struct Profile {
    descriptor: EntityDescriptor,
    inputs: Vec<PortSpec>,
    outputs: Vec<PortSpec>,
    attributes: Metadata,
}

impl Profile {
    /// Starts building a profile for the entity with the given identity.
    pub fn builder(id: Guid, kind: EntityKind, name: impl Into<String>) -> ProfileBuilder {
        ProfileBuilder {
            profile: Profile {
                descriptor: EntityDescriptor::new(id, kind, name),
                inputs: Vec::new(),
                outputs: Vec::new(),
                attributes: Metadata::new(),
            },
        }
    }

    /// The entity's identity record.
    pub fn descriptor(&self) -> &EntityDescriptor {
        &self.descriptor
    }

    /// The entity's GUID.
    pub fn id(&self) -> Guid {
        self.descriptor.id
    }

    /// The entity's class.
    pub fn kind(&self) -> EntityKind {
        self.descriptor.kind
    }

    /// The entity's human-readable name.
    pub fn name(&self) -> &str {
        &self.descriptor.name
    }

    /// Typed input ports, in declaration order.
    pub fn inputs(&self) -> &[PortSpec] {
        &self.inputs
    }

    /// Typed output ports, in declaration order.
    pub fn outputs(&self) -> &[PortSpec] {
        &self.outputs
    }

    /// Free-form selection attributes.
    pub fn attributes(&self) -> &Metadata {
        &self.attributes
    }

    /// Mutable access to attributes, used by the Profile Manager to apply
    /// updates (e.g. a printer's queue length changing).
    pub fn attributes_mut(&mut self) -> &mut Metadata {
        &mut self.attributes
    }

    /// Returns `true` if some output port produces `ty`.
    pub fn provides(&self, ty: &ContextType) -> bool {
        self.outputs.iter().any(|p| p.ty == *ty)
    }

    /// Returns `true` if some input port consumes `ty`.
    pub fn requires(&self, ty: &ContextType) -> bool {
        self.inputs.iter().any(|p| p.ty == *ty)
    }

    /// Returns `true` if the entity is a pure source: it has outputs but
    /// no inputs, i.e. it sits at the sensor/data level where the
    /// resolver's backward-chaining search terminates.
    pub fn is_source(&self) -> bool {
        self.inputs.is_empty() && !self.outputs.is_empty()
    }

    /// Finds an input port by name.
    pub fn input_named(&self, name: &str) -> Option<&PortSpec> {
        self.inputs.iter().find(|p| p.name == name)
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in:[", self.descriptor)?;
        for (i, p) in self.inputs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{p}")?;
        }
        f.write_str("] out:[")?;
        for (i, p) in self.outputs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{p}")?;
        }
        f.write_str("]")
    }
}

/// Incremental builder for [`Profile`] (non-consuming terminal).
///
/// # Example
///
/// ```
/// use sci_types::{ContextType, ContextValue, EntityKind, PortSpec, Profile};
/// use sci_types::Guid;
///
/// let path_ce = Profile::builder(Guid::from_u128(2), EntityKind::Software, "pathCE")
///     .input(PortSpec::new("from", ContextType::Location))
///     .input(PortSpec::new("to", ContextType::Location))
///     .output(PortSpec::new("path", ContextType::Path))
///     .build();
/// assert!(path_ce.provides(&ContextType::Path));
/// assert!(!path_ce.is_source());
/// ```
#[derive(Clone, Debug)]
pub struct ProfileBuilder {
    profile: Profile,
}

impl ProfileBuilder {
    /// Adds an input port.
    pub fn input(mut self, port: PortSpec) -> Self {
        self.profile.inputs.push(port);
        self
    }

    /// Adds an output port.
    pub fn output(mut self, port: PortSpec) -> Self {
        self.profile.outputs.push(port);
        self
    }

    /// Sets a selection attribute.
    pub fn attribute(mut self, key: impl Into<String>, value: ContextValue) -> Self {
        self.profile.attributes.set(key, value);
        self
    }

    /// Finishes the profile.
    pub fn build(self) -> Profile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn door_sensor() -> Profile {
        Profile::builder(Guid::from_u128(3), EntityKind::Device, "doorSensor")
            .output(PortSpec::new("presence", ContextType::Presence))
            .attribute("room", ContextValue::place("L10.01"))
            .build()
    }

    #[test]
    fn source_detection() {
        let sensor = door_sensor();
        assert!(sensor.is_source());
        assert!(sensor.provides(&ContextType::Presence));
        assert!(!sensor.requires(&ContextType::Presence));

        let derived = Profile::builder(Guid::from_u128(4), EntityKind::Software, "objLocationCE")
            .input(PortSpec::new("presence", ContextType::Presence))
            .output(PortSpec::new("location", ContextType::Location))
            .build();
        assert!(!derived.is_source());
        assert!(derived.requires(&ContextType::Presence));
    }

    #[test]
    fn port_lookup() {
        let p = Profile::builder(Guid::from_u128(5), EntityKind::Software, "pathCE")
            .input(PortSpec::new("from", ContextType::Location))
            .input(PortSpec::new("to", ContextType::Location))
            .output(PortSpec::new("path", ContextType::Path))
            .build();
        assert_eq!(
            p.input_named("to").map(|s| s.ty.clone()),
            Some(ContextType::Location)
        );
        assert!(p.input_named("via").is_none());
    }

    #[test]
    fn attributes_update_through_manager_surface() {
        let mut sensor = door_sensor();
        sensor
            .attributes_mut()
            .set("battery", ContextValue::Float(0.8));
        assert_eq!(
            sensor
                .attributes()
                .get("battery")
                .and_then(ContextValue::as_float),
            Some(0.8)
        );
    }

    #[test]
    fn display_contains_ports() {
        let p = door_sensor();
        let s = p.to_string();
        assert!(s.contains("presence"));
        assert!(s.contains("doorSensor"));
    }
}
