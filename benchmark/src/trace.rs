//! Driver-side spans. The traced run wraps every call the driver makes
//! into the library (`ingest_cast`, `pump`, `sync`, `drain`, `submit`,
//! `cancel`, `reregister`, `append_apply`, `recover`) in a span kept in
//! memory and written out when the run ends. Spans inside the library
//! are a later issue; until then a span's *self time* — its duration
//! minus what its child spans cover — says which call the driver was
//! blocked in.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, [`NO_PARENT`] for a root.
    pub parent: u32,
    /// The batch, trip or cycle this span belongs to.
    pub id: u64,
}

/// An open span; hand it back to [`Recorder::close`].
#[derive(Clone, Copy, Debug)]
pub struct Open(u32);

/// Records spans when tracing is on and costs one branch when off.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span is open now.
    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            id,
        });
        self.stack.push(index);
        Open(index)
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn close(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans close innermost first");
        self.spans[open.0 as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Share of all root-span time spent in each span name's self time.
    pub fn self_time_shares(&self) -> BTreeMap<&'static str, f64> {
        self_time_shares(&self.spans)
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

/// Per-name self time as a share of the total duration of root spans.
/// Spans nest strictly, so a span's children never overlap and its
/// self time is its duration minus theirs.
pub fn self_time_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    let mut root_ns = 0u64;
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        if s.parent == NO_PARENT {
            root_ns += dur;
        } else {
            let parent = s.parent as usize;
            debug_assert!(parent < i, "a parent opens before its child");
            self_ns[parent] = self_ns[parent].saturating_sub(dur);
        }
    }
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns) {
        *by_name.entry(s.name).or_insert(0) += ns;
    }
    by_name
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / root_ns.max(1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // trip [0,100) { cast [10,30), sync [30,90) { wait [40,80) } }
        // trip [100,200) { cast [100,150) }
        let spans = [
            span("trip", 0, 100, NO_PARENT),
            span("cast", 10, 30, 0),
            span("sync", 30, 90, 0),
            span("wait", 40, 80, 2),
            span("trip", 100, 200, NO_PARENT),
            span("cast", 100, 150, 4),
        ];
        let shares = self_time_shares(&spans);
        // Roots cover 200 ns. trip self = (100-20-60) + (100-50) = 70.
        assert_eq!(shares["trip"], 70.0 / 200.0);
        assert_eq!(shares["cast"], 70.0 / 200.0);
        assert_eq!(shares["sync"], 20.0 / 200.0);
        assert_eq!(shares["wait"], 40.0 / 200.0);
        let total: f64 = shares.values().sum();
        assert!(
            (total - 1.0).abs() < 1e-12,
            "self times partition the roots"
        );
    }

    #[test]
    fn recorder_nests_by_open_order_and_is_inert_when_off() {
        let mut on = Recorder::new(true);
        let root = on.open("batch", 7);
        let child = on.open("pump", 7);
        on.close(child);
        on.close(root);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[0].parent, NO_PARENT);
        assert_eq!(on.spans()[1].parent, 0);
        assert_eq!(on.spans()[1].id, 7);
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
        assert!(on.to_json().contains("\"name\":\"pump\""));

        let mut off = Recorder::new(false);
        let s = off.open("batch", 1);
        off.close(s);
        assert!(off.spans().is_empty());
    }
}
