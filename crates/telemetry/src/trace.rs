//! Structured span/event tracing facade.
//!
//! Instrumented code talks to a [`Tracer`]; where the records go is
//! decided by the installed [`Subscriber`]. The default
//! [`NoopSubscriber`] reports `enabled() == false`, which lets call
//! sites skip field formatting *and* every clock read entirely —
//! tracing costs one `Arc` deref + one bool test when nobody listens.
//!
//! Every record carries the instant it was made, `at_us`, read from one
//! process-wide clock, so the dumps of several subscribers (one per
//! range, one for the relay) merge into one timeline by sorting on it.

use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// The trace clock: microseconds since the process's trace epoch, the
/// clock's first reading.
#[expect(clippy::disallowed_methods, reason = "telemetry timing")]
fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let now = Instant::now();
    let epoch = *EPOCH.get_or_init(|| now);
    u64::try_from(now.duration_since(epoch).as_micros()).unwrap_or(u64::MAX)
}

/// One emitted trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceRecord {
    /// Instantaneous structured event.
    Event {
        /// Dotted-lowercase event name (e.g. `federation.relay`).
        name: String,
        /// When it was recorded, in µs since the process's trace epoch.
        at_us: u64,
        /// Key/value payload, in call-site order.
        fields: Vec<(String, String)>,
    },
    /// Closed span with its measured duration.
    Span {
        /// Dotted-lowercase span name (e.g. `range.cmd.ingest`).
        name: String,
        /// When it closed, in µs since the process's trace epoch; it
        /// opened `elapsed_us` earlier.
        at_us: u64,
        /// Wall-clock duration between span open and drop.
        elapsed_us: u64,
        /// Key/value payload, in call-site order.
        fields: Vec<(String, String)>,
    },
}

impl TraceRecord {
    /// The record's name, whichever variant it is.
    pub fn name(&self) -> &str {
        match self {
            TraceRecord::Event { name, .. } | TraceRecord::Span { name, .. } => name,
        }
    }

    /// When the record was made, in µs since the process's trace epoch
    /// (for a span, when it closed).
    pub fn at_us(&self) -> u64 {
        match self {
            TraceRecord::Event { at_us, .. } | TraceRecord::Span { at_us, .. } => *at_us,
        }
    }
}

/// Where trace records go. Implementations must be cheap and
/// thread-safe; `record` may be called from range worker threads.
pub trait Subscriber: Send + Sync {
    /// When `false`, instrumented code skips record construction (and
    /// the clock read for spans) entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one record.
    fn record(&self, rec: TraceRecord);
}

/// Default subscriber: disabled, discards everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSubscriber;

impl Subscriber for NoopSubscriber {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _rec: TraceRecord) {}
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bounded in-memory subscriber for tests and post-mortem inspection:
/// keeps the most recent `capacity` records.
#[derive(Debug)]
pub struct RingBufferSubscriber {
    capacity: usize,
    buf: Mutex<VecDeque<TraceRecord>>,
}

impl RingBufferSubscriber {
    /// Buffer holding at most `capacity` records (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// Snapshot of the buffered records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        locked(&self.buf).iter().cloned().collect()
    }
}

impl Subscriber for RingBufferSubscriber {
    fn record(&self, rec: TraceRecord) {
        let mut buf = locked(&self.buf);
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(rec);
    }
}

/// Human-oriented subscriber: one line per record
/// (`span range.cmd.ingest elapsed_us=12 kind=ingest`) onto any
/// `Write` sink. Write errors are swallowed — telemetry must never
/// take the middleware down.
pub struct LineSubscriber<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> LineSubscriber<W> {
    /// Wrap a sink (e.g. `std::io::stderr()`, a `Vec<u8>` in tests).
    pub fn new(out: W) -> Self {
        Self {
            out: Mutex::new(out),
        }
    }

    /// Recover the sink.
    pub fn into_inner(self) -> W {
        self.out
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<W: Write + Send> fmt::Debug for LineSubscriber<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LineSubscriber").finish_non_exhaustive()
    }
}

impl<W: Write + Send> Subscriber for LineSubscriber<W> {
    fn record(&self, rec: TraceRecord) {
        let mut out = locked(&self.out);
        let result = match rec {
            TraceRecord::Event {
                name,
                at_us,
                fields,
            } => {
                let mut line = format!("event {name} at_us={at_us}");
                for (k, v) in fields {
                    line.push_str(&format!(" {k}={v}"));
                }
                writeln!(out, "{line}")
            }
            TraceRecord::Span {
                name,
                at_us,
                elapsed_us,
                fields,
            } => {
                let mut line = format!("span {name} at_us={at_us} elapsed_us={elapsed_us}");
                for (k, v) in fields {
                    line.push_str(&format!(" {k}={v}"));
                }
                writeln!(out, "{line}")
            }
        };
        drop(result);
    }
}

/// Cheap, cloneable handle instrumented code holds onto. Wraps the
/// installed [`Subscriber`]; defaults to [`NoopSubscriber`].
#[derive(Clone)]
pub struct Tracer {
    sub: Arc<dyn Subscriber>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::noop()
    }
}

impl Tracer {
    /// Tracer that discards everything (and tells call sites so).
    pub fn noop() -> Self {
        Self {
            sub: Arc::new(NoopSubscriber),
        }
    }

    /// Tracer feeding the given subscriber.
    pub fn new(sub: Arc<dyn Subscriber>) -> Self {
        Self { sub }
    }

    /// Whether the installed subscriber wants records.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sub.enabled()
    }

    /// Emit an instantaneous event (no-op when disabled).
    pub fn event(&self, name: &str, fields: &[(&str, String)]) {
        if self.enabled() {
            self.sub.record(TraceRecord::Event {
                name: name.to_string(),
                at_us: now_us(),
                fields: fields
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.clone()))
                    .collect(),
            });
        }
    }

    /// Open a span; its duration is measured from now until the guard
    /// drops. When disabled, no clock is read and drop is free.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            tracer: self,
            name,
            start_us: self.enabled().then(now_us),
            fields: Vec::new(),
        }
    }
}

/// RAII guard for an open span — see [`Tracer::span`].
#[derive(Debug)]
pub struct Span<'t> {
    tracer: &'t Tracer,
    name: &'static str,
    start_us: Option<u64>,
    fields: Vec<(String, String)>,
}

impl Span<'_> {
    /// Attach a key/value field (dropped when tracing is disabled).
    pub fn field(&mut self, key: &str, value: impl fmt::Display) {
        if self.start_us.is_some() {
            self.fields.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start_us) = self.start_us {
            let at_us = now_us();
            self.tracer.sub.record(TraceRecord::Span {
                name: self.name.to_string(),
                at_us,
                elapsed_us: at_us.saturating_sub(start_us),
                fields: std::mem::take(&mut self.fields),
            });
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracer_is_disabled_and_silent() {
        let t = Tracer::noop();
        assert!(!t.enabled());
        t.event("x", &[("k", "v".to_string())]);
        let mut s = t.span("y");
        s.field("k", 1);
        drop(s);
        // Nothing observable — mainly checks nothing panics and no
        // clock is read (`start_us` is None).
    }

    #[test]
    fn ring_buffer_captures_events_and_spans() {
        let ring = Arc::new(RingBufferSubscriber::new(8));
        let t = Tracer::new(ring.clone());
        assert!(t.enabled());
        t.event("bus.publish", &[("fanout", "3".to_string())]);
        {
            let mut s = t.span("range.cmd.ingest");
            s.field("kind", "ingest");
        }
        let recs = ring.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name(), "bus.publish");
        assert!(recs[0].at_us() <= recs[1].at_us(), "one clock, in order");
        match &recs[1] {
            TraceRecord::Span { name, fields, .. } => {
                assert_eq!(name, "range.cmd.ingest");
                assert_eq!(fields[0], ("kind".to_string(), "ingest".to_string()));
            }
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let ring = Arc::new(RingBufferSubscriber::new(2));
        let t = Tracer::new(ring.clone());
        for i in 0..5 {
            t.event(&format!("e{i}"), &[]);
        }
        let names: Vec<_> = ring
            .records()
            .iter()
            .map(|r| r.name().to_string())
            .collect();
        assert_eq!(names, ["e3", "e4"]);
    }

    #[test]
    fn line_subscriber_formats_records() {
        let sub = Arc::new(LineSubscriber::new(Vec::new()));
        let t = Tracer::new(sub.clone());
        t.event("federation.relay", &[("events", "2".to_string())]);
        drop(t);
        let sub = Arc::into_inner(sub).unwrap();
        let text = String::from_utf8(sub.into_inner()).unwrap();
        let at = text
            .strip_prefix("event federation.relay at_us=")
            .and_then(|rest| rest.strip_suffix(" events=2\n"))
            .unwrap();
        assert!(at.parse::<u64>().is_ok(), "{text}");
    }
}
