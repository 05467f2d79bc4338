//! The context store.
//!
//! The paper closes by describing SCI as "an open source infrastructure
//! that supports context gathering and *storage*", and the CAPA
//! walk-through has applications consult "a users Profile stored in
//! their CE to determine previous behaviour". [`ContextStore`] is that
//! storage: a bounded, queryable history of the context events a range
//! has seen, indexed by type and subject, with per-key retention.
//!
//! History is kept in its record form: each event is held as the
//! binary record of `records.rs` — the bytes a write-ahead `ingest`
//! record and the snapshot's history table carry — encoded once when
//! it is recorded and decoded only when it is read back. Each (type,
//! subject) key keeps its records back to back in one buffer, so a
//! durability snapshot copies the stored bytes a key at a time, and a
//! restore files them a run of records at a time, checked but never
//! decoded.

use std::collections::VecDeque;

use sci_types::{
    ContextEvent, ContextType, Guid, HashMap, SciError, SciResult, VirtualDuration, VirtualTime,
};
use sci_wal::codec::wire;

use crate::records::{get_event, put_event, skim_event, EventHead, MIN_EVENT_LEN};

/// Key under which history is kept: the context type plus the subject
/// entity (if the payload names one).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct HistoryKey {
    ty: ContextType,
    subject: Option<Guid>,
}

/// One key's history: its records back to back in insertion order,
/// `bytes[head..]`, and each one's timestamp (which retention reads)
/// and length. Evicting the oldest advances `head`; the dead prefix is
/// reclaimed once it outgrows the live records, so a bucket at depth
/// stops allocating and its records never mix with small heap objects.
#[derive(Clone, Debug, Default)]
struct Bucket {
    bytes: Vec<u8>,
    head: usize,
    spans: VecDeque<(VirtualTime, usize)>,
}

impl Bucket {
    /// Appends the record `write` writes, evicting the oldest first if
    /// the bucket holds `depth` already.
    fn push(&mut self, depth: usize, at: VirtualTime, write: impl FnOnce(&mut Vec<u8>)) {
        if self.spans.len() == depth {
            if let Some((_, len)) = self.spans.pop_front() {
                self.head += len;
            }
        }
        if self.head > self.bytes.len() - self.head {
            self.bytes.drain(..self.head);
            self.head = 0;
        }
        let start = self.bytes.len();
        write(&mut self.bytes);
        self.spans.push_back((at, self.bytes.len() - start));
    }

    /// Each record with its timestamp, oldest first.
    fn records(&self) -> impl Iterator<Item = (VirtualTime, &[u8])> {
        let mut start = self.head;
        self.spans.iter().map(move |&(at, len)| {
            start += len;
            (at, &self.bytes[start - len..start])
        })
    }

    /// Keeps the records whose timestamp passes `keep`; how many went.
    fn retain(&mut self, keep: impl Fn(VirtualTime) -> bool) -> usize {
        if self.spans.iter().all(|&(at, _)| keep(at)) {
            return 0;
        }
        let mut kept = Bucket::default();
        for (at, record) in self.records().filter(|&(at, _)| keep(at)) {
            kept.bytes.extend_from_slice(record);
            kept.spans.push_back((at, record.len()));
        }
        let evicted = self.spans.len() - kept.spans.len();
        *self = kept;
        evicted
    }
}

/// The event back. Every stored record passed `get_event`'s checks —
/// `put_event` wrote it, or `skim_event` accepted it — so none is ever
/// skipped.
fn decode((_, record): (VirtualTime, &[u8])) -> Option<ContextEvent> {
    get_event(&mut wire::Reader::new(record)).ok()
}

/// A bounded per-range context history.
#[derive(Clone, Debug)]
pub struct ContextStore {
    entries: HashMap<HistoryKey, Bucket>,
    /// Maximum events retained per key.
    depth: usize,
    /// Maximum age retained.
    retention: VirtualDuration,
}

impl ContextStore {
    /// Creates a store keeping up to `depth` events per (type, subject)
    /// for at most `retention`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize, retention: VirtualDuration) -> Self {
        assert!(depth > 0, "history depth must be positive");
        ContextStore {
            entries: HashMap::default(),
            depth,
            retention,
        }
    }

    /// Records one event, encoded straight into its bucket.
    pub fn record(&mut self, event: &ContextEvent) {
        let depth = self.depth;
        let bucket = self.bucket_mut(event.topic.clone(), event.subject());
        bucket.push(depth, event.timestamp, |out| put_event(out, event));
    }

    /// Files a durability snapshot's history table — what
    /// [`ContextStore::write_records`] wrote: a `u32` count, then that
    /// many records, then nothing — without building an event.
    ///
    /// Each record is checked by `skim_event`, which accepts exactly
    /// what `get_event` accepts. `write_records` writes a bucket as one
    /// run, so each run of records with the same (type, subject) is
    /// filed at once: one map entry, one `ContextType::from_name` and
    /// one copy of the run's bytes. A run deeper than the store, or one
    /// whose bucket already holds records, is filed a record at a time,
    /// evicting as [`ContextStore::record`] does, so the result is what
    /// recording the same events in order builds.
    ///
    /// # Errors
    ///
    /// [`SciError::Codec`], naming the byte offset, for a count the
    /// table cannot hold, a record `get_event` would refuse, or bytes
    /// after the last record. Records before the failing one stay filed.
    pub(crate) fn import(&mut self, table: &[u8]) -> SciResult<()> {
        let refuse =
            |what: &str, at: usize| SciError::Codec(format!("history table: {what} at byte {at}"));
        let count = wire::Reader::new(table)
            .count(MIN_EVENT_LEN)
            .map_err(|e| SciError::Codec(format!("history table: {e}")))?;
        // The run being read: its head, its first byte, and each
        // record's timestamp and length.
        let (mut run, mut start, mut at) = (None::<EventHead<'_>>, 4, 4);
        let mut spans = Vec::new();
        for _ in 0..count {
            let Some((head, len)) = skim_event(&table[at..]) else {
                return Err(refuse("a malformed event record", at));
            };
            let key = (head.topic, head.subject);
            if let Some(ended) = run.filter(|run| (run.topic, run.subject) != key) {
                self.file(&ended, &spans, &table[start..at]);
                start = at;
                spans.clear();
            }
            run = Some(head);
            spans.push((head.timestamp, len));
            at += len;
        }
        if let Some(last) = run {
            self.file(&last, &spans, &table[start..at]);
        }
        match table.len() - at {
            0 => Ok(()),
            n => Err(refuse(&format!("{n} trailing bytes"), at)),
        }
    }

    /// Files one run of [`ContextStore::import`] — records of `head`'s
    /// (type, subject), each `(at, len)` of `spans`, back to back in
    /// `bytes` — into its bucket.
    fn file(&mut self, head: &EventHead<'_>, spans: &[(VirtualTime, usize)], bytes: &[u8]) {
        let depth = self.depth;
        let bucket = self.bucket_mut(ContextType::from_name(head.topic), head.subject);
        if bucket.spans.is_empty() && spans.len() <= depth {
            bucket.bytes.extend_from_slice(bytes);
            bucket.spans.extend(spans);
            return;
        }
        let mut rest = bytes;
        for &(at, len) in spans {
            let (record, tail) = rest.split_at(len);
            bucket.push(depth, at, |out| out.extend_from_slice(record));
            rest = tail;
        }
    }

    fn bucket_mut(&mut self, ty: ContextType, subject: Option<Guid>) -> &mut Bucket {
        self.entries.entry(HistoryKey { ty, subject }).or_default()
    }

    /// Drops entries older than the retention window, measured from
    /// `now`. Returns how many were evicted.
    pub fn expire(&mut self, now: VirtualTime) -> usize {
        let retention = self.retention;
        let mut evicted = 0;
        self.entries.retain(|_, bucket| {
            evicted += bucket.retain(|at| now.saturating_since(at) <= retention);
            !bucket.spans.is_empty()
        });
        evicted
    }

    fn bucket(&self, ty: &ContextType, subject: Option<Guid>) -> Option<&Bucket> {
        self.entries.get(&HistoryKey {
            ty: ty.clone(),
            subject,
        })
    }

    /// The most recent stored event of `ty` about `subject` (`None`
    /// subject = events that named no subject).
    pub fn last(&self, ty: &ContextType, subject: Option<Guid>) -> Option<ContextEvent> {
        self.bucket(ty, subject)
            .and_then(|b| b.records().last())
            .and_then(decode)
    }

    /// All stored events of `ty` about `subject` since `since`, oldest
    /// first.
    pub fn since(
        &self,
        ty: &ContextType,
        subject: Option<Guid>,
        since: VirtualTime,
    ) -> Vec<ContextEvent> {
        self.bucket(ty, subject)
            .map(|b| {
                b.records()
                    .filter(|&(at, _)| at >= since)
                    .filter_map(decode)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Every bucket, in [`ContextStore::events`] order.
    fn in_order(&self) -> impl Iterator<Item = &Bucket> {
        let mut buckets: Vec<(&HistoryKey, &Bucket)> = self.entries.iter().collect();
        buckets.sort_by(|(a, _), (b, _)| (a.ty.name(), a.subject).cmp(&(b.ty.name(), b.subject)));
        buckets.into_iter().map(|(_, bucket)| bucket)
    }

    /// Every stored event in a deterministic order, each decoded when
    /// it is reached: buckets sorted by (type name, subject), events
    /// within a bucket in insertion order. Re-`record`ing them into an
    /// empty store reproduces the same per-key buckets.
    pub(crate) fn events(&self) -> impl Iterator<Item = ContextEvent> + '_ {
        self.in_order().flat_map(Bucket::records).filter_map(decode)
    }

    /// Appends the history table of a durability snapshot to `out`: a
    /// `u32` count, then every stored record in [`ContextStore::events`]
    /// order — the bytes `put_event` would write for the export, copied
    /// a bucket at a time rather than re-encoded.
    /// [`ContextStore::import`]ing them into an empty store reproduces
    /// the same per-key buckets.
    pub(crate) fn write_records(&self, out: &mut Vec<u8>) {
        wire::put_u32(out, self.len() as u32);
        for bucket in self.in_order() {
            out.extend_from_slice(&bucket.bytes[bucket.head..]);
        }
    }

    /// Total stored events.
    pub fn len(&self) -> usize {
        self.entries.values().map(|b| b.spans.len()).sum()
    }

    /// Total bytes of the stored records: what
    /// [`ContextStore::write_records`] appends, less its count.
    pub(crate) fn record_bytes(&self) -> usize {
        self.entries.values().map(|b| b.bytes.len() - b.head).sum()
    }

    /// Returns `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for ContextStore {
    /// 32 events per key, one hour of retention.
    fn default() -> Self {
        ContextStore::new(32, VirtualDuration::from_secs(3600))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_types::ContextValue;

    fn ev(ty: ContextType, subject: Option<Guid>, t: u64, tag: i64) -> ContextEvent {
        let payload = match subject {
            Some(s) => ContextValue::record([
                ("subject", ContextValue::Id(s)),
                ("tag", ContextValue::Int(tag)),
            ]),
            None => ContextValue::Int(tag),
        };
        ContextEvent::new(Guid::from_u128(1), ty, payload, VirtualTime::from_secs(t))
    }

    #[test]
    fn last_and_since() {
        let mut store = ContextStore::default();
        let bob = Guid::from_u128(0xb0b);
        for t in 0..5 {
            store.record(&ev(ContextType::Location, Some(bob), t, t as i64));
        }
        let last = store.last(&ContextType::Location, Some(bob)).unwrap();
        assert_eq!(
            last.payload.field("tag").and_then(ContextValue::as_int),
            Some(4)
        );
        assert_eq!(
            store
                .since(&ContextType::Location, Some(bob), VirtualTime::from_secs(3))
                .len(),
            2
        );
        assert!(store.last(&ContextType::Location, None).is_none());
    }

    #[test]
    fn depth_bound_evicts_oldest() {
        let mut store = ContextStore::new(3, VirtualDuration::from_secs(1_000_000));
        for t in 0..10 {
            store.record(&ev(ContextType::Temperature, None, t, t as i64));
        }
        assert_eq!(store.len(), 3);
        let events = store.since(&ContextType::Temperature, None, VirtualTime::ZERO);
        let tags: Vec<i64> = events.iter().filter_map(|e| e.payload.as_int()).collect();
        assert_eq!(tags, [7, 8, 9]);
    }

    #[test]
    fn retention_expiry() {
        let mut store = ContextStore::new(100, VirtualDuration::from_secs(10));
        for t in 0..20 {
            store.record(&ev(ContextType::Occupancy, None, t, t as i64));
        }
        let evicted = store.expire(VirtualTime::from_secs(20));
        assert_eq!(evicted, 10, "events at t<10 are past retention");
        assert_eq!(store.len(), 10);
        // Expiring an empty window clears the store entirely.
        let evicted = store.expire(VirtualTime::from_secs(100));
        assert_eq!(evicted, 10);
        assert!(store.is_empty());
    }

    /// Retention goes by timestamp, not arrival: expiring from the
    /// middle of a bucket keeps the rest in insertion order.
    #[test]
    fn retention_expiry_out_of_order() {
        let mut store = ContextStore::new(100, VirtualDuration::from_secs(10));
        for t in [30, 5, 25, 8, 40] {
            store.record(&ev(ContextType::Occupancy, None, t, t as i64));
        }
        assert_eq!(store.expire(VirtualTime::from_secs(15)), 0);
        assert_eq!(store.expire(VirtualTime::from_secs(36)), 3);
        let events = store.since(&ContextType::Occupancy, None, VirtualTime::ZERO);
        let tags: Vec<i64> = events.iter().filter_map(|e| e.payload.as_int()).collect();
        assert_eq!(tags, [30, 40]);
        let mut table = Vec::new();
        store.write_records(&mut table);
        assert_eq!(table.len(), 4 + store.record_bytes());
    }

    #[test]
    fn subjects_kept_separate() {
        let mut store = ContextStore::default();
        let (a, b) = (Guid::from_u128(1), Guid::from_u128(2));
        store.record(&ev(ContextType::Location, Some(a), 1, 10));
        store.record(&ev(ContextType::Location, Some(b), 2, 20));
        assert_eq!(
            store
                .last(&ContextType::Location, Some(a))
                .and_then(|e| e.payload.field("tag").and_then(ContextValue::as_int)),
            Some(10)
        );
    }

    fn recorded(events: &[ContextEvent], depth: usize) -> ContextStore {
        let mut store = ContextStore::new(depth, VirtualDuration::from_secs(1_000_000));
        for event in events {
            store.record(event);
        }
        store
    }

    /// What a snapshot restore does with `from`'s history table.
    fn adopted(from: &ContextStore, depth: usize) -> ContextStore {
        let mut table = Vec::new();
        from.write_records(&mut table);
        assert_eq!(table.len(), 4 + from.record_bytes());
        let mut store = ContextStore::new(depth, VirtualDuration::from_secs(1_000_000));
        store.import(&table).unwrap();
        store
    }

    fn assert_same(a: &ContextStore, b: &ContextStore, keys: &[(ContextType, Option<Guid>)]) {
        let (mut bytes_a, mut bytes_b) = (Vec::new(), Vec::new());
        a.write_records(&mut bytes_a);
        b.write_records(&mut bytes_b);
        assert_eq!(bytes_a, bytes_b);
        assert_eq!(
            a.events().collect::<Vec<_>>(),
            b.events().collect::<Vec<_>>()
        );
        for (ty, subject) in keys {
            let all = |s: &ContextStore| s.since(ty, *subject, VirtualTime::ZERO);
            assert_eq!(all(a), all(b), "{ty} {subject:?}");
        }
    }

    #[test]
    fn adopting_written_records_rebuilds_what_recording_built() {
        let (a, b) = (Guid::from_u128(1), Guid::from_u128(2));
        let badge = ContextType::custom("badge");
        let keys = [
            (ContextType::Location, Some(a)),
            (badge.clone(), Some(b)),
            (ContextType::Temperature, None),
        ];
        let events: Vec<ContextEvent> = (0..10)
            .flat_map(|t| {
                keys.clone()
                    .map(|(ty, subject)| ev(ty, subject, t, t as i64))
            })
            .collect();
        let live = recorded(&events, 4);
        assert_eq!(live.len(), 12, "recording kept each key's newest 4");
        assert_same(&adopted(&live, 4), &live, &keys);
        // Adopting evicts by the same rule: a shallower store keeps
        // each key's newest 2, as re-recording the export does.
        let shallow = adopted(&live, 2);
        assert_eq!(shallow.len(), 6);
        assert_same(
            &shallow,
            &recorded(&live.events().collect::<Vec<_>>(), 2),
            &keys,
        );
    }

    /// A bucket that already holds records takes an imported run a
    /// record at a time, as recording the run after them does.
    #[test]
    fn importing_into_held_buckets_evicts_as_recording_does() {
        let (a, b) = (Guid::from_u128(1), Guid::from_u128(2));
        let keys = [
            (ContextType::Location, Some(a)),
            (ContextType::Location, Some(b)),
        ];
        let event = |t: u64| {
            let (ty, subject) = keys[(t % 2) as usize].clone();
            ev(ty, subject, t, t as i64)
        };
        let earlier: Vec<ContextEvent> = (0..4).map(event).collect();
        let later: Vec<ContextEvent> = (10..20).map(event).collect();
        let mut table = Vec::new();
        recorded(&later, 4).write_records(&mut table);
        let mut store = recorded(&earlier, 3);
        store.import(&table).unwrap();
        // Recording keeps each key's newest 4 of the later events; the
        // import re-files them into buckets of depth 3.
        let replayed: Vec<ContextEvent> = earlier
            .iter()
            .cloned()
            .chain(recorded(&later, 4).events())
            .collect();
        assert_same(&store, &recorded(&replayed, 3), &keys);
        assert_eq!(store.len(), 6);
    }
}
