//! The topological location model.
//!
//! Places are nodes; doors and other passages are weighted edges. The
//! `pathCE` of the paper's Figure 3 is backed by shortest-path search
//! over this graph.

use std::collections::{BinaryHeap, HashMap};

use sci_types::{SciError, SciResult};

/// An edge in the topology: a door or passage between two places.
#[derive(Clone, PartialEq, Debug)]
pub struct Passage {
    /// The place on the other side.
    pub to: String,
    /// Traversal cost (metres).
    pub weight: f64,
    /// Name of the door providing the passage, if the passage is a
    /// sensed door (e.g. `"door-L10.01"`).
    pub door: Option<String>,
}

/// An undirected weighted graph of places.
///
/// # Example
///
/// ```
/// use sci_location::topological::TopoGraph;
///
/// let mut g = TopoGraph::new();
/// g.add_place("corridor");
/// g.add_place("L10.01");
/// g.connect("corridor", "L10.01", 2.0, Some("door-L10.01"))?;
/// let (path, cost) = g.shortest_path("L10.01", "corridor")?;
/// assert_eq!(path, ["L10.01", "corridor"]);
/// assert_eq!(cost, 2.0);
/// # Ok::<(), sci_types::SciError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct TopoGraph {
    adjacency: HashMap<String, Vec<Passage>>,
}

impl TopoGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TopoGraph::default()
    }

    /// Adds a place (idempotent).
    pub fn add_place(&mut self, name: impl Into<String>) {
        self.adjacency.entry(name.into()).or_default();
    }

    /// Returns `true` if the place is known.
    pub fn has_place(&self, name: &str) -> bool {
        self.adjacency.contains_key(name)
    }

    /// Number of places.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Returns `true` if the graph has no places.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Connects two places bidirectionally with the given traversal cost
    /// and optional door name.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownLocation`] if either place has not been
    /// added, and [`SciError::Parse`] for non-finite or negative weights.
    pub fn connect(&mut self, a: &str, b: &str, weight: f64, door: Option<&str>) -> SciResult<()> {
        if !weight.is_finite() || weight < 0.0 {
            return Err(SciError::Parse(format!("invalid edge weight {weight}")));
        }
        for place in [a, b] {
            if !self.has_place(place) {
                return Err(SciError::UnknownLocation(place.to_owned()));
            }
        }
        self.adjacency.get_mut(a).expect("checked").push(Passage {
            to: b.to_owned(),
            weight,
            door: door.map(str::to_owned),
        });
        self.adjacency.get_mut(b).expect("checked").push(Passage {
            to: a.to_owned(),
            weight,
            door: door.map(str::to_owned),
        });
        Ok(())
    }

    /// Passages out of a place.
    pub fn passages(&self, place: &str) -> SciResult<&[Passage]> {
        self.adjacency
            .get(place)
            .map(Vec::as_slice)
            .ok_or_else(|| SciError::UnknownLocation(place.to_owned()))
    }

    /// Names of places directly adjacent to `place`.
    pub fn neighbors(&self, place: &str) -> SciResult<Vec<&str>> {
        Ok(self
            .passages(place)?
            .iter()
            .map(|p| p.to.as_str())
            .collect())
    }

    /// Dijkstra shortest path from `from` to `to`.
    ///
    /// Returns the sequence of places (inclusive of both endpoints) and
    /// the total cost.
    ///
    /// # Errors
    ///
    /// * [`SciError::UnknownLocation`] if either endpoint is unknown.
    /// * [`SciError::Unresolvable`] if no path exists.
    pub fn shortest_path(&self, from: &str, to: &str) -> SciResult<(Vec<String>, f64)> {
        for place in [from, to] {
            if !self.has_place(place) {
                return Err(SciError::UnknownLocation(place.to_owned()));
            }
        }
        if from == to {
            return Ok((vec![from.to_owned()], 0.0));
        }

        #[derive(PartialEq)]
        struct Entry {
            cost: f64,
            place: String,
        }
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reverse for a min-heap; costs are finite by
                // construction so partial_cmp cannot fail.
                other
                    .cost
                    .partial_cmp(&self.cost)
                    .expect("finite costs")
                    .then_with(|| other.place.cmp(&self.place))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut dist: HashMap<&str, f64> = HashMap::new();
        let mut prev: HashMap<&str, &str> = HashMap::new();
        let mut heap = BinaryHeap::new();
        dist.insert(from, 0.0);
        heap.push(Entry {
            cost: 0.0,
            place: from.to_owned(),
        });

        while let Some(Entry { cost, place }) = heap.pop() {
            let place_key = self
                .adjacency
                .get_key_value(place.as_str())
                .expect("visited places exist")
                .0
                .as_str();
            if cost > dist.get(place_key).copied().unwrap_or(f64::INFINITY) {
                continue;
            }
            if place_key == to {
                break;
            }
            for passage in &self.adjacency[place_key] {
                let next_cost = cost + passage.weight;
                let entry = dist.entry(passage.to.as_str()).or_insert(f64::INFINITY);
                if next_cost < *entry {
                    *entry = next_cost;
                    prev.insert(passage.to.as_str(), place_key);
                    heap.push(Entry {
                        cost: next_cost,
                        place: passage.to.clone(),
                    });
                }
            }
        }

        let total = *dist
            .get(to)
            .ok_or_else(|| SciError::Unresolvable(format!("no path from {from} to {to}")))?;
        if total.is_infinite() {
            return Err(SciError::Unresolvable(format!(
                "no path from {from} to {to}"
            )));
        }

        let mut path = vec![to.to_owned()];
        let mut cur = to;
        while let Some(&p) = prev.get(cur) {
            path.push(p.to_owned());
            cur = p;
        }
        path.reverse();
        Ok((path, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corridor_graph() -> TopoGraph {
        // lobby - corridor - L10.01
        //            |
        //          L10.02
        let mut g = TopoGraph::new();
        for p in ["lobby", "corridor", "L10.01", "L10.02"] {
            g.add_place(p);
        }
        g.connect("lobby", "corridor", 10.0, None).unwrap();
        g.connect("corridor", "L10.01", 2.0, Some("door-L10.01"))
            .unwrap();
        g.connect("corridor", "L10.02", 3.0, Some("door-L10.02"))
            .unwrap();
        g
    }

    #[test]
    fn shortest_path_multi_hop() {
        let g = corridor_graph();
        let (path, cost) = g.shortest_path("lobby", "L10.02").unwrap();
        assert_eq!(path, ["lobby", "corridor", "L10.02"]);
        assert_eq!(cost, 13.0);
    }

    #[test]
    fn shortest_path_prefers_cheaper_route() {
        let mut g = corridor_graph();
        g.add_place("shortcut");
        g.connect("lobby", "shortcut", 1.0, None).unwrap();
        g.connect("shortcut", "L10.02", 1.0, None).unwrap();
        let (path, cost) = g.shortest_path("lobby", "L10.02").unwrap();
        assert_eq!(path, ["lobby", "shortcut", "L10.02"]);
        assert_eq!(cost, 2.0);
    }

    #[test]
    fn same_endpoint_is_trivial() {
        let g = corridor_graph();
        let (path, cost) = g.shortest_path("lobby", "lobby").unwrap();
        assert_eq!(path, ["lobby"]);
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn disconnected_is_unresolvable() {
        let mut g = corridor_graph();
        g.add_place("island");
        assert!(matches!(
            g.shortest_path("lobby", "island"),
            Err(SciError::Unresolvable(_))
        ));
    }

    #[test]
    fn unknown_places_error() {
        let g = corridor_graph();
        assert!(matches!(
            g.shortest_path("lobby", "mars"),
            Err(SciError::UnknownLocation(_))
        ));
        assert!(g.passages("mars").is_err());
        assert!(TopoGraph::new().connect("a", "b", 1.0, None).is_err());
    }

    #[test]
    fn invalid_weight_rejected() {
        let mut g = corridor_graph();
        assert!(g.connect("lobby", "corridor", -1.0, None).is_err());
        assert!(g.connect("lobby", "corridor", f64::NAN, None).is_err());
    }
}
