//! Typed context values.
//!
//! The paper's composition model works by *type matching*: the query
//! resolver searches Context Entity profiles for entities whose outputs
//! provide a required [`ContextType`] and whose inputs can in turn be
//! satisfied by other entities, down to the sensor level. [`ContextType`]
//! is therefore the unit of matching, while [`ContextValue`] is the
//! payload that actually flows along the resulting event subscription
//! graph.
//!
//! The set of types is open-ended ([`ContextType::Custom`]) to satisfy the
//! paper's "flexible and extensible representation of contextual
//! information" requirement.

use std::fmt;

use crate::guid::Guid;
use crate::time::VirtualTime;

/// The semantic type of a piece of context information.
///
/// Two syntactically different sources that produce the same
/// `ContextType` are interchangeable during composition — this is SCI's
/// answer to the iQueue limitation discussed in the paper (a door-sensor
/// location network and a wireless detection scheme both output
/// [`ContextType::Location`] and can substitute for one another).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ContextType {
    /// An entity identifier (e.g. the badge id read by a door sensor).
    Identity,
    /// A raw presence/passage event at a boundary sensor.
    Presence,
    /// A resolved location of an entity.
    Location,
    /// A path (route) between two locations.
    Path,
    /// An ambient temperature reading, degrees Celsius.
    Temperature,
    /// A received-signal-strength reading from a base station.
    SignalStrength,
    /// Status of a printer (queue length, paper, accessibility).
    PrinterStatus,
    /// Occupancy count of a place.
    Occupancy,
    /// A user-defined context type, matched by name.
    Custom(String),
}

impl ContextType {
    /// The context type named `name`: a built-in type's name gives that
    /// type (`custom("location")` is [`ContextType::Location`]), any
    /// other name a [`ContextType::Custom`]. A type is stored and sent
    /// by its name alone, so a `Custom` spelling a built-in name would
    /// match differently once decoded.
    pub fn custom(name: impl Into<String>) -> Self {
        ContextType::from_name(&name.into())
    }

    /// A stable lowercase name, used by the query codec and in profiles.
    pub fn name(&self) -> &str {
        match self {
            ContextType::Identity => "identity",
            ContextType::Presence => "presence",
            ContextType::Location => "location",
            ContextType::Path => "path",
            ContextType::Temperature => "temperature",
            ContextType::SignalStrength => "signal-strength",
            ContextType::PrinterStatus => "printer-status",
            ContextType::Occupancy => "occupancy",
            ContextType::Custom(name) => name,
        }
    }

    /// Parses the stable name produced by [`ContextType::name`]; unknown
    /// names become [`ContextType::Custom`].
    pub fn from_name(name: &str) -> ContextType {
        match name {
            "identity" => ContextType::Identity,
            "presence" => ContextType::Presence,
            "location" => ContextType::Location,
            "path" => ContextType::Path,
            "temperature" => ContextType::Temperature,
            "signal-strength" => ContextType::SignalStrength,
            "printer-status" => ContextType::PrinterStatus,
            "occupancy" => ContextType::Occupancy,
            other => ContextType::Custom(other.to_owned()),
        }
    }
}

impl fmt::Display for ContextType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A 2-D coordinate in a range's geometric location model, in metres.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Coord {
    /// East-west position.
    pub x: f64,
    /// North-south position.
    pub y: f64,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(x: f64, y: f64) -> Self {
        Coord { x, y }
    }

    /// Euclidean distance to `other`, in metres.
    pub fn distance(self, other: Coord) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

/// A dynamically typed context payload.
///
/// `ContextValue` is deliberately small and closed over a record/list
/// algebra: richer domain values (paths, printer states, profiles) are
/// encoded as records so that every payload can cross the SCINET wire
/// codec and the query language uniformly.
#[derive(Clone, PartialEq, Debug, Default)]
pub enum ContextValue {
    /// Absence of a value.
    #[default]
    Empty,
    /// A boolean flag.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A floating point quantity.
    Float(f64),
    /// A UTF-8 string.
    Text(String),
    /// An entity identifier.
    Id(Guid),
    /// A geometric coordinate.
    Coord(Coord),
    /// A named logical place (e.g. `"L10.01"`).
    Place(String),
    /// An instant in virtual time.
    Time(VirtualTime),
    /// An ordered sequence of values.
    List(Vec<ContextValue>),
    /// A keyed record of values.
    Record(Vec<(String, ContextValue)>),
}

impl ContextValue {
    /// Convenience constructor for a text value.
    pub fn text(s: impl Into<String>) -> Self {
        ContextValue::Text(s.into())
    }

    /// Convenience constructor for a named place.
    pub fn place(s: impl Into<String>) -> Self {
        ContextValue::Place(s.into())
    }

    /// Convenience constructor for a record.
    pub fn record(fields: impl IntoIterator<Item = (impl Into<String>, ContextValue)>) -> Self {
        ContextValue::Record(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ContextValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ContextValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the numeric payload as `f64`, accepting `Int` and `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            ContextValue::Float(x) => Some(*x),
            ContextValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Text` or `Place`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            ContextValue::Text(s) | ContextValue::Place(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the identifier payload, if this is an `Id`.
    pub fn as_id(&self) -> Option<Guid> {
        match self {
            ContextValue::Id(g) => Some(*g),
            _ => None,
        }
    }

    /// Returns the coordinate payload, if this is a `Coord`.
    pub fn as_coord(&self) -> Option<Coord> {
        match self {
            ContextValue::Coord(c) => Some(*c),
            _ => None,
        }
    }

    /// Looks up a field of a `Record` by name.
    pub fn field(&self, name: &str) -> Option<&ContextValue> {
        match self {
            ContextValue::Record(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Returns the list elements, if this is a `List`.
    pub fn as_list(&self) -> Option<&[ContextValue]> {
        match self {
            ContextValue::List(items) => Some(items),
            _ => None,
        }
    }

    /// Returns `true` if the value is [`ContextValue::Empty`].
    pub fn is_empty(&self) -> bool {
        matches!(self, ContextValue::Empty)
    }
}

impl From<bool> for ContextValue {
    fn from(b: bool) -> Self {
        ContextValue::Bool(b)
    }
}

impl From<i64> for ContextValue {
    fn from(i: i64) -> Self {
        ContextValue::Int(i)
    }
}

impl From<f64> for ContextValue {
    fn from(x: f64) -> Self {
        ContextValue::Float(x)
    }
}

impl From<&str> for ContextValue {
    fn from(s: &str) -> Self {
        ContextValue::Text(s.to_owned())
    }
}

impl From<String> for ContextValue {
    fn from(s: String) -> Self {
        ContextValue::Text(s)
    }
}

impl From<Guid> for ContextValue {
    fn from(g: Guid) -> Self {
        ContextValue::Id(g)
    }
}

impl From<Coord> for ContextValue {
    fn from(c: Coord) -> Self {
        ContextValue::Coord(c)
    }
}

impl From<VirtualTime> for ContextValue {
    fn from(t: VirtualTime) -> Self {
        ContextValue::Time(t)
    }
}

impl fmt::Display for ContextValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContextValue::Empty => f.write_str("<empty>"),
            ContextValue::Bool(b) => write!(f, "{b}"),
            ContextValue::Int(i) => write!(f, "{i}"),
            ContextValue::Float(x) => write!(f, "{x}"),
            ContextValue::Text(s) => write!(f, "{s:?}"),
            ContextValue::Id(g) => write!(f, "{g}"),
            ContextValue::Coord(c) => write!(f, "{c}"),
            ContextValue::Place(p) => write!(f, "@{p}"),
            ContextValue::Time(t) => write!(f, "{t}"),
            ContextValue::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            ContextValue::Record(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_name_roundtrip() {
        let all = [
            ContextType::Identity,
            ContextType::Presence,
            ContextType::Location,
            ContextType::Path,
            ContextType::Temperature,
            ContextType::SignalStrength,
            ContextType::PrinterStatus,
            ContextType::Occupancy,
            ContextType::custom("co2-level"),
        ];
        for t in all {
            assert_eq!(ContextType::from_name(t.name()), t);
            assert_eq!(ContextType::custom(t.name()), t, "custom({})", t.name());
        }
    }

    #[test]
    fn record_field_lookup() {
        let v = ContextValue::record([
            ("room", ContextValue::place("L10.01")),
            ("queue", ContextValue::Int(3)),
        ]);
        assert_eq!(v.field("queue").and_then(ContextValue::as_int), Some(3));
        assert_eq!(
            v.field("room").and_then(|f| f.as_text().map(str::to_owned)),
            Some("L10.01".to_owned())
        );
        assert!(v.field("missing").is_none());
    }

    #[test]
    fn numeric_widening() {
        assert_eq!(ContextValue::Int(3).as_float(), Some(3.0));
        assert_eq!(ContextValue::Float(2.5).as_float(), Some(2.5));
        assert_eq!(ContextValue::Bool(true).as_float(), None);
    }

    #[test]
    fn coord_distance() {
        let a = Coord::new(0.0, 0.0);
        let b = Coord::new(3.0, 4.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-9);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn display_is_nonempty_for_everything() {
        let values = [
            ContextValue::Empty,
            ContextValue::Bool(false),
            ContextValue::Int(-1),
            ContextValue::Float(0.5),
            ContextValue::text("x"),
            ContextValue::Id(Guid::from_u128(9)),
            ContextValue::Coord(Coord::new(1.0, 2.0)),
            ContextValue::place("lobby"),
            ContextValue::Time(VirtualTime::from_secs(1)),
            ContextValue::List(vec![ContextValue::Int(1)]),
            ContextValue::record([("k", ContextValue::Int(1))]),
        ];
        for v in values {
            assert!(!v.to_string().is_empty());
        }
    }
}
