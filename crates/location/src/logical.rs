//! The logical (hierarchical) location model.
//!
//! Places are organised as a forest of named zones: a campus contains
//! buildings, buildings contain floors, floors contain rooms. Logical
//! containment ("is Bob in the Livingstone Tower?") reduces to ancestry.

use std::collections::HashMap;
use std::fmt;

use sci_types::{SciError, SciResult};

/// A slash-separated path naming a zone from its root, e.g.
/// `campus/tower/l10/L10.01`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ZonePath(Vec<String>);

impl ZonePath {
    /// Creates a path from segments.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::Parse`] if `segments` is empty or any segment
    /// is empty or contains `/`.
    pub fn new(segments: impl IntoIterator<Item = impl Into<String>>) -> SciResult<Self> {
        let segs: Vec<String> = segments.into_iter().map(Into::into).collect();
        if segs.is_empty() {
            return Err(SciError::Parse("zone path cannot be empty".into()));
        }
        for s in &segs {
            if s.is_empty() || s.contains('/') {
                return Err(SciError::Parse(format!("invalid zone segment `{s}`")));
            }
        }
        Ok(ZonePath(segs))
    }

    /// The leaf zone name.
    pub fn leaf(&self) -> &str {
        self.0.last().expect("paths are non-empty")
    }

    /// The path segments from root to leaf.
    pub fn segments(&self) -> &[String] {
        &self.0
    }

    /// Returns `true` if `self` is `other` or an ancestor of `other`.
    pub fn contains(&self, other: &ZonePath) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// Number of segments.
    pub fn depth(&self) -> usize {
        self.0.len()
    }
}

impl fmt::Display for ZonePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, seg) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            f.write_str(seg)?;
        }
        Ok(())
    }
}

impl std::str::FromStr for ZonePath {
    type Err = SciError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ZonePath::new(s.split('/').map(str::to_owned))
    }
}

/// The hierarchical model: every known place name mapped to its full
/// zone path.
///
/// # Example
///
/// ```
/// use sci_location::logical::LogicalModel;
///
/// let mut model = LogicalModel::new();
/// model.insert_path("campus/tower/l10/L10.01")?;
/// model.insert_path("campus/tower/l10/L10.02")?;
/// assert!(model.zone_contains("l10", "L10.01")?);
/// assert!(!model.zone_contains("L10.02", "L10.01")?);
/// # Ok::<(), sci_types::SciError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct LogicalModel {
    by_leaf: HashMap<String, ZonePath>,
}

impl LogicalModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        LogicalModel::default()
    }

    /// Inserts a full path; every prefix zone becomes known too.
    ///
    /// # Errors
    ///
    /// Propagates path-syntax errors, and rejects a leaf name already
    /// registered under a different path (leaf names are globally unique
    /// in a deployment, as in the paper's room names).
    pub fn insert_path(&mut self, path: &str) -> SciResult<()> {
        let zp: ZonePath = path.parse()?;
        for depth in 1..=zp.depth() {
            let prefix = ZonePath(zp.segments()[..depth].to_vec());
            let leaf = prefix.leaf().to_owned();
            if let Some(existing) = self.by_leaf.get(&leaf) {
                if *existing != prefix {
                    return Err(SciError::Parse(format!(
                        "zone name `{leaf}` already bound to {existing}"
                    )));
                }
            } else {
                self.by_leaf.insert(leaf, prefix);
            }
        }
        Ok(())
    }

    /// Looks up the full path of a zone by its leaf name.
    pub fn path_of(&self, leaf: &str) -> Option<&ZonePath> {
        self.by_leaf.get(leaf)
    }

    /// Returns `true` if zone `outer` contains zone `inner` (or they are
    /// the same zone).
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownLocation`] if either name is unknown.
    pub fn zone_contains(&self, outer: &str, inner: &str) -> SciResult<bool> {
        let o = self
            .path_of(outer)
            .ok_or_else(|| SciError::UnknownLocation(outer.to_owned()))?;
        let i = self
            .path_of(inner)
            .ok_or_else(|| SciError::UnknownLocation(inner.to_owned()))?;
        Ok(o.contains(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_parse_and_display() {
        let p: ZonePath = "campus/tower/l10".parse().unwrap();
        assert_eq!(p.leaf(), "l10");
        assert_eq!(p.depth(), 3);
        assert_eq!(p.to_string(), "campus/tower/l10");
        assert!("".parse::<ZonePath>().is_err());
        assert!("a//b".parse::<ZonePath>().is_err());
    }

    #[test]
    fn containment() {
        let tower: ZonePath = "campus/tower".parse().unwrap();
        let room: ZonePath = "campus/tower/l10/L10.01".parse().unwrap();
        let other: ZonePath = "campus/annex".parse().unwrap();
        assert!(tower.contains(&room));
        assert!(!room.contains(&tower));
        assert!(tower.contains(&tower));
        assert!(!other.contains(&room));
    }

    #[test]
    fn model_registers_prefixes() {
        let mut m = LogicalModel::new();
        m.insert_path("campus/tower/l10/L10.01").unwrap();
        assert!(m.path_of("tower").is_some());
        assert!(m.path_of("campus").is_some());
        assert!(m.zone_contains("campus", "L10.01").unwrap());
    }

    #[test]
    fn duplicate_leaf_under_other_parent_rejected() {
        let mut m = LogicalModel::new();
        m.insert_path("campus/tower/lab").unwrap();
        assert!(m.insert_path("campus/annex/lab").is_err());
        // Reinserting the same path is fine.
        m.insert_path("campus/tower/lab").unwrap();
    }

    #[test]
    fn unknown_zone_errors() {
        let m = LogicalModel::new();
        assert!(matches!(
            m.zone_contains("x", "y"),
            Err(SciError::UnknownLocation(_))
        ));
    }
}
