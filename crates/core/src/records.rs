//! The leaf records ranges exchange and store, each with one encoding.
//!
//! **Documents** are XML, where the paper puts them (Figures 6–7): a
//! queued delivery and a deferred answer as sections of a
//! [`crate::migration::MigrationPacket`] (and through it of the
//! durability snapshot's document), the `<answer-relay>` envelope, and
//! the `<answer>` document itself. Each is written by an `XmlWriter`
//! straight into the buffer that carries it; none is built as a tree.
//!
//! **The event stream** is binary: a [`ContextValue`] and a
//! [`ContextEvent`] have the one big-endian form below, shared by the
//! write-ahead log's `ingest` records, the snapshot's history table and
//! the `EventRelay` payload, which carries one event once for several
//! deliveries ([`event_relay_group`]). The decoders are total: any
//! byte string yields a value or a [`SciError::Codec`], with nesting
//! bounded by [`MAX_VALUE_DEPTH`] and every allocation bounded by the
//! bytes actually present. [`skim_event`] accepts exactly what
//! [`get_event`] accepts and reads only what the context store files a
//! record under, so a snapshot's history is restored without decoding;
//! its reads return `Option`, so no error is built unless a record
//! fails.

use sci_query::codec as qcodec;
use sci_query::xml::{document, parse, Element, XmlWriter};
use sci_query::Query;
use sci_types::{
    AppDelivery, ContextEvent, ContextType, ContextValue, Coord, DeferredAnswer, EventSeq, Guid,
    QueryAnswer, SciError, SciResult, VirtualTime,
};
use sci_wal::codec::wire;
use sci_wal::CodecError;

// ---------------------------------------------------------------------
// Binary leaf codec
// ---------------------------------------------------------------------
//
// Value tags are part of the on-disk and on-wire format: append-only,
// like `RangeCommand::KINDS`.

/// Deepest `List`/`Record` nesting a decoder follows — the XML
/// parser's own element bound, so no value a document could carry is
/// out of reach.
const MAX_VALUE_DEPTH: usize = 64;

/// Fewest bytes an encoded value can take (its tag).
const MIN_VALUE_LEN: usize = 1;

/// Fewest bytes an encoded event can take: source, empty topic,
/// timestamp, sequence and an `Empty` payload.
pub(crate) const MIN_EVENT_LEN: usize = 16 + 4 + 8 + 8 + MIN_VALUE_LEN;

/// A payload that passed its frame check but does not parse.
pub(crate) fn frame_err(e: CodecError) -> SciError {
    SciError::Codec(format!("binary record: {e}"))
}

/// Reads a counted table: [`wire::Reader::count`], then that many rows.
pub(crate) fn get_rows<'a, T>(
    r: &mut wire::Reader<'a>,
    min_row_len: usize,
    mut row: impl FnMut(&mut wire::Reader<'a>) -> SciResult<T>,
) -> SciResult<Vec<T>> {
    let n = r.count(min_row_len).map_err(frame_err)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(row(r)?);
    }
    Ok(rows)
}

/// Fails unless `r` has been read to its end: `what` carries nothing
/// after its last field.
pub(crate) fn expect_end(r: &wire::Reader<'_>, what: &str) -> SciResult<()> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(SciError::Codec(format!("{n} trailing bytes after {what}"))),
    }
}

pub(crate) fn get_guid(r: &mut wire::Reader<'_>) -> SciResult<Guid> {
    Ok(Guid::from_u128(r.u128().map_err(frame_err)?))
}

fn get_f64(r: &mut wire::Reader<'_>) -> SciResult<f64> {
    Ok(f64::from_bits(r.u64().map_err(frame_err)?))
}

pub(crate) fn put_value(out: &mut Vec<u8>, v: &ContextValue) {
    match v {
        ContextValue::Empty => wire::put_u8(out, 0),
        ContextValue::Bool(b) => {
            wire::put_u8(out, 1);
            wire::put_u8(out, u8::from(*b));
        }
        ContextValue::Int(i) => {
            wire::put_u8(out, 2);
            wire::put_u64(out, *i as u64);
        }
        ContextValue::Float(f) => {
            wire::put_u8(out, 3);
            wire::put_u64(out, f.to_bits());
        }
        ContextValue::Text(s) => {
            wire::put_u8(out, 4);
            wire::put_str(out, s);
        }
        ContextValue::Id(g) => {
            wire::put_u8(out, 5);
            wire::put_u128(out, g.as_u128());
        }
        ContextValue::Coord(c) => {
            wire::put_u8(out, 6);
            put_coord(out, *c);
        }
        ContextValue::Place(s) => {
            wire::put_u8(out, 7);
            wire::put_str(out, s);
        }
        ContextValue::Time(t) => {
            wire::put_u8(out, 8);
            wire::put_u64(out, t.as_micros());
        }
        ContextValue::List(items) => {
            wire::put_u8(out, 9);
            wire::put_u32(out, items.len() as u32);
            for item in items {
                put_value(out, item);
            }
        }
        ContextValue::Record(fields) => {
            wire::put_u8(out, 10);
            wire::put_u32(out, fields.len() as u32);
            for (key, value) in fields {
                wire::put_str(out, key);
                put_value(out, value);
            }
        }
    }
}

pub(crate) fn get_value(r: &mut wire::Reader<'_>) -> SciResult<ContextValue> {
    get_value_at(r, 0)
}

fn get_value_at(r: &mut wire::Reader<'_>, depth: usize) -> SciResult<ContextValue> {
    if depth > MAX_VALUE_DEPTH {
        return Err(SciError::Codec(format!(
            "value nested deeper than {MAX_VALUE_DEPTH}"
        )));
    }
    let tag = r.u8().map_err(frame_err)?;
    Ok(match tag {
        0 => ContextValue::Empty,
        1 => ContextValue::Bool(r.u8().map_err(frame_err)? != 0),
        2 => ContextValue::Int(r.u64().map_err(frame_err)? as i64),
        3 => ContextValue::Float(get_f64(r)?),
        4 => ContextValue::Text(r.str().map_err(frame_err)?.to_owned()),
        5 => ContextValue::Id(get_guid(r)?),
        6 => ContextValue::Coord(get_coord(r)?),
        7 => ContextValue::Place(r.str().map_err(frame_err)?.to_owned()),
        8 => ContextValue::Time(VirtualTime::from_micros(r.u64().map_err(frame_err)?)),
        9 => ContextValue::List(get_rows(r, MIN_VALUE_LEN, |r| get_value_at(r, depth + 1))?),
        // A field is at least its key's length prefix and a value.
        10 => ContextValue::Record(get_rows(r, 4 + MIN_VALUE_LEN, |r| {
            let key = r.str().map_err(frame_err)?.to_owned();
            Ok((key, get_value_at(r, depth + 1)?))
        })?),
        other => return Err(SciError::Codec(format!("unknown value tag {other}"))),
    })
}

pub(crate) fn put_coord(out: &mut Vec<u8>, c: Coord) {
    wire::put_u64(out, c.x.to_bits());
    wire::put_u64(out, c.y.to_bits());
}

pub(crate) fn get_coord(r: &mut wire::Reader<'_>) -> SciResult<Coord> {
    Ok(Coord::new(get_f64(r)?, get_f64(r)?))
}

pub(crate) fn put_event(out: &mut Vec<u8>, ev: &ContextEvent) {
    wire::put_u128(out, ev.source.as_u128());
    wire::put_str(out, ev.topic.name());
    wire::put_u64(out, ev.timestamp.as_micros());
    wire::put_u64(out, ev.seq.0);
    put_value(out, &ev.payload);
}

pub(crate) fn get_event(r: &mut wire::Reader<'_>) -> SciResult<ContextEvent> {
    let source = get_guid(r)?;
    let topic = ContextType::from_name(r.str().map_err(frame_err)?);
    let timestamp = VirtualTime::from_micros(r.u64().map_err(frame_err)?);
    let seq = EventSeq(r.u64().map_err(frame_err)?);
    let payload = get_value(r)?;
    Ok(ContextEvent::new(source, topic, payload, timestamp).with_seq(seq))
}

/// What the context store files an event record under, read off the
/// record without building the event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EventHead<'a> {
    pub topic: &'a str,
    /// [`ContextEvent::subject`]: the first top-level `"subject"`
    /// field, if it is an `Id`.
    pub subject: Option<Guid>,
    pub timestamp: VirtualTime,
}

/// [`get_event`] without the event, over the record at the front of
/// `bytes`: its head and its length, or `None` exactly where
/// `get_event` fails. Every byte `get_event` checks is checked —
/// lengths, counts, UTF-8, tags and the nesting bound — and nothing is
/// allocated. The reads carry no error: a caller that needs one builds
/// it once, where it knows the record's offset.
pub(crate) fn skim_event(bytes: &[u8]) -> Option<(EventHead<'_>, usize)> {
    let mut r = Skim { bytes, pos: 0 };
    r.take(16)?;
    let topic = std::str::from_utf8(r.prefixed()?).ok()?;
    let timestamp = VirtualTime::from_micros(u64::from_be_bytes(r.array()?));
    r.take(8)?;
    let subject = match r.array()? {
        [10] => r.subject()?,
        [tag] => {
            r.body(tag, 0)?;
            None
        }
    };
    let head = EventHead {
        topic,
        subject,
        timestamp,
    };
    Some((head, r.pos))
}

/// [`wire::Reader`] for [`skim_event`]: a failed read is `None`, with no
/// error built on the happy path.
struct Skim<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Skim<'a> {
    #[inline]
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let taken = self.bytes.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(taken)
    }

    /// The next `N` bytes: a tag, or a big-endian integer.
    #[inline]
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let taken = *self.bytes.get(self.pos..)?.first_chunk::<N>()?;
        self.pos += N;
        Some(taken)
    }

    /// A `u32`-length-prefixed byte run.
    #[inline]
    fn prefixed(&mut self) -> Option<&'a [u8]> {
        let len = u32::from_be_bytes(self.array()?) as usize;
        self.take(len)
    }

    /// A length-prefixed string's bytes, checked as UTF-8 without
    /// building the `str`: ASCII, the usual case, is checked inline.
    #[inline]
    fn utf8(&mut self) -> Option<&'a [u8]> {
        self.prefixed()
            .filter(|b| b.is_ascii() || std::str::from_utf8(b).is_ok())
    }

    /// [`wire::Reader::count`]: a count the bytes left could hold.
    #[inline]
    fn count(&mut self, min_row_len: usize) -> Option<usize> {
        let n = u32::from_be_bytes(self.array()?) as usize;
        (n <= (self.bytes.len() - self.pos) / min_row_len).then_some(n)
    }

    /// One value as [`get_value_at`] reads it.
    fn value(&mut self, depth: usize) -> Option<()> {
        if depth > MAX_VALUE_DEPTH {
            return None;
        }
        let [tag] = self.array()?;
        self.body(tag, depth)
    }

    /// A value's bytes after its `tag`.
    fn body(&mut self, tag: u8, depth: usize) -> Option<()> {
        match tag {
            0 => {}
            1 => drop(self.take(1)?),
            2 | 3 | 8 => drop(self.take(8)?),
            4 | 7 => drop(self.utf8()?),
            5 | 6 => drop(self.take(16)?),
            9 => {
                for _ in 0..self.count(MIN_VALUE_LEN)? {
                    self.value(depth + 1)?;
                }
            }
            10 => {
                for _ in 0..self.count(4 + MIN_VALUE_LEN)? {
                    self.utf8()?;
                    self.value(depth + 1)?;
                }
            }
            _ => return None,
        }
        Some(())
    }

    /// A top-level `Record`'s fields after its tag; the first
    /// `"subject"` field's GUID, if that field is an `Id`.
    fn subject(&mut self) -> Option<Option<Guid>> {
        let mut subject = None;
        for _ in 0..self.count(4 + MIN_VALUE_LEN)? {
            let key = self.utf8()?;
            if subject.is_some() || key != b"subject" {
                self.value(1)?;
                continue;
            }
            subject = Some(match self.array()? {
                [5] => Some(Guid::from_u128(u128::from_be_bytes(self.array()?))),
                [tag] => self.body(tag, 1).map(|()| None)?,
            });
        }
        Some(subject.flatten())
    }
}

/// One delivery of an `EventRelay`: its envelope `seq`, `app`, `query`.
pub type RelayRow = (u64, Guid, Guid);

/// Bytes one [`RelayRow`] takes on the wire.
const RELAY_ROW_LEN: usize = 8 + 16 + 16;

/// The payload of a [`sci_overlay::message::MessageKind::EventRelay`]:
/// `origin`, a count, one row per delivery of `event` to one home range
/// (`(origin, seq)` is its exactly-once envelope), the event once.
pub fn event_relay_group(origin: Guid, rows: &[RelayRow], event: &ContextEvent) -> Vec<u8> {
    let mut out = Vec::new();
    wire::put_u128(&mut out, origin.as_u128());
    wire::put_u32(&mut out, rows.len() as u32);
    for &(seq, app, query) in rows {
        wire::put_u64(&mut out, seq);
        wire::put_u128(&mut out, app.as_u128());
        wire::put_u128(&mut out, query.as_u128());
    }
    put_event(&mut out, event);
    out
}

/// The `EventRelay` of one delivery: [`event_relay_group`] with one row.
pub fn event_relay_payload((origin, seq): (Guid, u64), d: &AppDelivery) -> Vec<u8> {
    event_relay_group(origin, &[(seq, d.app, d.query)], &d.event)
}

/// Reads an `EventRelay`'s origin and its rows, of which there are some.
pub(crate) fn get_relay_head(r: &mut wire::Reader<'_>) -> SciResult<(Guid, Vec<RelayRow>)> {
    let origin = get_guid(r)?;
    let rows = get_rows(r, RELAY_ROW_LEN, |r| {
        Ok((r.u64().map_err(frame_err)?, get_guid(r)?, get_guid(r)?))
    })?;
    if rows.is_empty() {
        return Err(SciError::Codec("an event relay with no rows".into()));
    }
    Ok((origin, rows))
}

// ---------------------------------------------------------------------
// XML documents
// ---------------------------------------------------------------------

/// A required attribute of `e`, parsed.
pub(crate) fn parsed_attr<T: std::str::FromStr>(e: &Element, key: &str) -> SciResult<T> {
    let raw = e.require_attr(key)?;
    raw.parse()
        .map_err(|_| SciError::Codec(format!("bad {key} `{raw}` in <{}>", e.name)))
}

/// Writes a parked query as the
/// `<deferred stored-at-us=…><query/></deferred>` section of a
/// migration packet.
pub(crate) fn write_deferred(w: &mut XmlWriter<'_>, query: &Query, stored_at: VirtualTime) {
    w.element("deferred", |w| {
        w.attr("stored-at-us", stored_at.as_micros());
        qcodec::write_query(w, query);
    });
}

/// Writes a queued delivery as the
/// `<delivery app=… query=…><event/></delivery>` section of a migration
/// packet.
pub(crate) fn write_delivery(w: &mut XmlWriter<'_>, d: &AppDelivery) {
    w.element("delivery", |w| {
        w.attr("app", d.app);
        w.attr("query", d.query);
        qcodec::write_event(w, &d.event);
    });
}

/// Reads what [`write_delivery`] wrote.
pub(crate) fn delivery_from_element(e: &Element) -> SciResult<AppDelivery> {
    Ok(AppDelivery {
        app: e.require_attr("app")?.parse()?,
        query: e.require_attr("query")?.parse()?,
        event: qcodec::event_from_element(e.require_child("event")?)?,
    })
}

/// Writes a deferred answer as
/// `<{name} {owner_key}=… query=… …><answer/></{name}>`: a
/// `<deferred-answer owner=…>` section, or an `<answer-relay app=…>`
/// envelope, whose `origin` and `seq` `envelope` writes.
pub(crate) fn write_deferred_answer(
    w: &mut XmlWriter<'_>,
    name: &str,
    owner_key: &str,
    (query, owner, answer): &DeferredAnswer,
    envelope: impl FnOnce(&mut XmlWriter<'_>),
) {
    w.element(name, |w| {
        w.attr(owner_key, owner);
        w.attr("query", query);
        envelope(w);
        write_answer(w, answer);
    });
}

/// Reads what [`write_deferred_answer`] wrote.
pub(crate) fn deferred_answer_from_element(
    e: &Element,
    owner_key: &str,
) -> SciResult<DeferredAnswer> {
    Ok((
        e.require_attr("query")?.parse()?,
        e.require_attr(owner_key)?.parse()?,
        answer_from_element(e.require_child("answer")?)?,
    ))
}

/// Serialises a [`QueryAnswer`] to its `<answer>` document.
pub fn answer_to_xml(answer: &QueryAnswer) -> String {
    document(|w| write_answer(w, answer))
}

/// Writes the `<answer>` element for a [`QueryAnswer`] (recursive, so
/// a partial answer nests the answer it degrades).
fn write_answer(w: &mut XmlWriter<'_>, answer: &QueryAnswer) {
    w.element("answer", |w| match answer {
        QueryAnswer::Profiles(ps) => {
            w.attr("kind", "profiles");
            for p in ps {
                qcodec::write_profile(w, p);
            }
        }
        QueryAnswer::Advertisements(ads) => {
            w.attr("kind", "advertisements");
            for ad in ads {
                qcodec::write_advertisement(w, ad);
            }
        }
        QueryAnswer::Subscribed {
            configuration,
            producers,
        } => {
            w.attr("kind", "subscribed");
            w.attr("configuration", configuration);
            for p in producers {
                w.element("producer", |w| w.attr("id", p));
            }
        }
        QueryAnswer::Deferred => w.attr("kind", "deferred"),
        QueryAnswer::Forward { range } => {
            w.attr("kind", "forward");
            w.attr("range", range);
        }
        QueryAnswer::Partial {
            answer,
            missing_range,
            reason,
        } => {
            w.attr("kind", "partial");
            w.attr("missing-range", missing_range);
            w.attr("reason", reason);
            write_answer(w, answer);
        }
    });
}

/// Parses an `<answer>` document.
///
/// # Errors
///
/// Returns [`SciError::Parse`] / [`SciError::Codec`] for malformed
/// documents.
pub fn answer_from_xml(xml: &str) -> SciResult<QueryAnswer> {
    answer_from_element(&parse(xml)?)
}

/// Parses an `<answer>` element (recursive counterpart of
/// [`answer_to_xml`]).
///
/// # Errors
///
/// Returns [`SciError::Parse`] / [`SciError::Codec`] for malformed
/// documents.
pub fn answer_from_element(e: &Element) -> SciResult<QueryAnswer> {
    if e.name != "answer" {
        return Err(SciError::Parse(format!(
            "expected <answer>, found <{}>",
            e.name
        )));
    }
    match e.attr("kind") {
        Some("profiles") => Ok(QueryAnswer::Profiles(
            e.children_named("profile")
                .map(qcodec::profile_from_element)
                .collect::<SciResult<Vec<_>>>()?,
        )),
        Some("advertisements") => Ok(QueryAnswer::Advertisements(
            e.children_named("advertisement")
                .map(qcodec::advertisement_from_element)
                .collect::<SciResult<Vec<_>>>()?,
        )),
        Some("subscribed") => Ok(QueryAnswer::Subscribed {
            configuration: e.require_attr("configuration")?.parse()?,
            producers: e
                .children_named("producer")
                .filter_map(|p| p.attr("id"))
                .map(|id| id.parse())
                .collect::<SciResult<Vec<_>>>()?,
        }),
        Some("deferred") => Ok(QueryAnswer::Deferred),
        Some("forward") => Ok(QueryAnswer::Forward {
            range: e.require_attr("range")?.to_owned(),
        }),
        Some("partial") => Ok(QueryAnswer::Partial {
            answer: Box::new(answer_from_element(e.require_child("answer")?)?),
            missing_range: e.require_attr("missing-range")?.to_owned(),
            reason: e.require_attr("reason")?.to_owned(),
        }),
        other => Err(SciError::Parse(format!("unknown answer kind {other:?}"))),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use sci_types::{Advertisement, EntityKind, Profile};

    #[test]
    fn answer_xml_roundtrip_all_kinds() {
        let answers = vec![
            QueryAnswer::Profiles(vec![Profile::builder(
                Guid::from_u128(1),
                EntityKind::Device,
                "x",
            )
            .build()]),
            QueryAnswer::Advertisements(vec![Advertisement::new(Guid::from_u128(2), "printing")]),
            QueryAnswer::Subscribed {
                configuration: Guid::from_u128(3),
                producers: vec![Guid::from_u128(4), Guid::from_u128(5)],
            },
            QueryAnswer::Deferred,
            QueryAnswer::Forward {
                range: "level-ten".into(),
            },
            QueryAnswer::Partial {
                answer: Box::new(QueryAnswer::Forward {
                    range: "level-ten".into(),
                }),
                missing_range: "level-ten".into(),
                reason: "unroutable".into(),
            },
        ];
        for a in answers {
            let xml = answer_to_xml(&a);
            let back = answer_from_xml(&xml).unwrap();
            // QueryAnswer lacks PartialEq (contains no need); compare via
            // serialisation.
            assert_eq!(answer_to_xml(&back), xml);
        }
        assert!(answer_from_xml("<weird/>").is_err());
    }

    // -----------------------------------------------------------------
    // Binary leaf codec
    // -----------------------------------------------------------------

    pub(crate) fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Equality that tells `0.0` from `-0.0` and one NaN from another:
    /// floats compare by their bits.
    fn same_value(a: &ContextValue, b: &ContextValue) -> bool {
        use ContextValue::{Coord, Float, List, Record};
        match (a, b) {
            (Float(x), Float(y)) => x.to_bits() == y.to_bits(),
            (Coord(p), Coord(q)) => {
                (p.x.to_bits(), p.y.to_bits()) == (q.x.to_bits(), q.y.to_bits())
            }
            (List(xs), List(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_value(x, y))
            }
            (Record(xs), Record(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((k, x), (l, y))| k == l && same_value(x, y))
            }
            _ => a == b,
        }
    }

    fn same_event(a: &ContextEvent, b: &ContextEvent) -> bool {
        (a.source, &a.topic, a.timestamp, a.seq) == (b.source, &b.topic, b.timestamp, b.seq)
            && same_value(&a.payload, &b.payload)
    }

    fn same_delivery(a: &AppDelivery, b: &AppDelivery) -> bool {
        (a.app, a.query) == (b.app, b.query) && same_event(&a.event, &b.event)
    }

    fn has_nan(v: &ContextValue) -> bool {
        match v {
            ContextValue::Float(x) => x.is_nan(),
            ContextValue::Coord(c) => c.x.is_nan() || c.y.is_nan(),
            ContextValue::List(items) => items.iter().any(has_nan),
            ContextValue::Record(fields) => fields.iter().any(|(_, v)| has_nan(v)),
            _ => false,
        }
    }

    fn arb_guid() -> impl Strategy<Value = Guid> {
        any::<u128>().prop_map(Guid::from_u128)
    }

    /// Every bit pattern: NaNs with payloads, infinities, subnormals
    /// and both zeros included.
    fn arb_f64() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(f64::from_bits)
    }

    /// Every [`ContextValue`] variant, nested up to three deep.
    fn arb_value() -> impl Strategy<Value = ContextValue> {
        let leaf = prop_oneof![
            Just(ContextValue::Empty),
            any::<bool>().prop_map(ContextValue::Bool),
            any::<i64>().prop_map(ContextValue::Int),
            arb_f64().prop_map(ContextValue::Float),
            ".{0,24}".prop_map(ContextValue::Text),
            arb_guid().prop_map(ContextValue::Id),
            (arb_f64(), arb_f64()).prop_map(|(x, y)| ContextValue::Coord(Coord::new(x, y))),
            ".{0,16}".prop_map(ContextValue::Place),
            any::<u64>().prop_map(|us| ContextValue::Time(VirtualTime::from_micros(us))),
        ];
        leaf.prop_recursive(3, 16, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..4).prop_map(ContextValue::List),
                prop::collection::vec((".{0,8}", inner), 0..4).prop_map(ContextValue::Record),
            ]
        })
    }

    pub(crate) fn arb_event() -> impl Strategy<Value = ContextEvent> {
        (
            arb_guid(),
            // Through `from_name`, as a decoder builds it: a custom type
            // cannot shadow a built-in one.
            ".{0,12}".prop_map(|name| ContextType::from_name(&name)),
            arb_value(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(source, topic, payload, us, seq)| {
                ContextEvent::new(source, topic, payload, VirtualTime::from_micros(us))
                    .with_seq(EventSeq(seq))
            })
    }

    /// Events whose payload is a record that may hold several
    /// `"subject"` fields, `Id` or not: what the subject rule is about.
    fn arb_subject_event() -> impl Strategy<Value = ContextEvent> {
        let key = prop_oneof![Just("subject".to_owned()), ".{0,8}"];
        let value = prop_oneof![arb_guid().prop_map(ContextValue::Id), arb_value()];
        let fields = prop::collection::vec((key, value), 0..4).prop_map(ContextValue::Record);
        (arb_event(), fields).prop_map(|(ev, payload)| ContextEvent {
            payload: payload.into(),
            ..ev
        })
    }

    fn arb_delivery() -> impl Strategy<Value = AppDelivery> {
        (arb_guid(), arb_guid(), arb_event()).prop_map(|(app, query, event)| AppDelivery {
            app,
            query,
            event,
        })
    }

    /// How to spoil a valid encoding: bytes to overwrite, and where to
    /// cut the tail — hostile input that gets past the first field.
    pub(crate) type Mangle = (Vec<(prop::sample::Index, u8)>, prop::sample::Index);

    pub(crate) fn arb_mangle() -> impl Strategy<Value = Mangle> {
        (
            prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..4),
            any::<prop::sample::Index>(),
        )
    }

    pub(crate) fn mangle(mut bytes: Vec<u8>, (edits, cut): Mangle) -> Vec<u8> {
        for (at, byte) in edits {
            if !bytes.is_empty() {
                let at = at.index(bytes.len());
                bytes[at] = byte;
            }
        }
        bytes.truncate(cut.index(bytes.len() + 1));
        bytes
    }

    fn encoded_event(ev: &ContextEvent) -> Vec<u8> {
        let mut bytes = Vec::new();
        put_event(&mut bytes, ev);
        bytes
    }

    proptest! {
        /// The oracle property: the binary codec returns exactly what it
        /// was given — floats bit for bit — and agrees with the XML
        /// codec it replaced on the hot path wherever that codec itself
        /// round-trips (XML prints every NaN as `NaN`).
        #[test]
        fn codec_event_round_trips_and_agrees_with_xml(ev in arb_event()) {
            let bytes = encoded_event(&ev);
            prop_assert!(bytes.len() >= MIN_EVENT_LEN);
            let mut r = wire::Reader::new(&bytes);
            let back = get_event(&mut r).unwrap();
            prop_assert_eq!(r.remaining(), 0);
            prop_assert!(same_event(&back, &ev), "{back:?} != {ev:?}");
            let written = document(|w| qcodec::write_event(w, &ev));
            let via_xml = qcodec::event_from_element(&parse(&written).unwrap()).unwrap();
            prop_assert!(
                same_event(&via_xml, &back) || has_nan(&ev.payload),
                "xml {via_xml:?} != binary {back:?}"
            );
        }

        /// A one-delivery relay reads back as that delivery, which the
        /// XML `<delivery>` section agrees with.
        #[test]
        fn codec_delivery_round_trips_and_agrees_with_xml(d in arb_delivery()) {
            let relay = event_relay_payload((d.app, 7), &d);
            let (origin, rows, event) = read_relay(&relay).unwrap();
            prop_assert_eq!((origin, rows), (d.app, vec![(7, d.app, d.query)]));
            let back = AppDelivery { app: d.app, query: d.query, event };
            prop_assert!(same_delivery(&back, &d), "{back:?} != {d:?}");
            let written = document(|w| write_delivery(w, &d));
            let via_xml = delivery_from_element(&parse(&written).unwrap()).unwrap();
            prop_assert!(
                same_delivery(&via_xml, &back) || has_nan(&d.event.payload),
                "xml {via_xml:?} != binary {back:?}"
            );
        }

        /// A group reads back as its origin, every row in order and the
        /// event, with nothing after it.
        #[test]
        fn codec_relay_group_round_trips(
            origin in arb_guid(),
            rows in prop::collection::vec((any::<u64>(), arb_guid(), arb_guid()), 1..9),
            ev in arb_event(),
        ) {
            let relay = event_relay_group(origin, &rows, &ev);
            let (back_origin, back_rows, back) = read_relay(&relay).unwrap();
            prop_assert_eq!((back_origin, back_rows), (origin, rows));
            prop_assert!(same_event(&back, &ev), "{back:?} != {ev:?}");
        }

        /// Totality: no byte string panics, hangs or over-allocates a
        /// decoder — arbitrary bytes, and valid encodings gone wrong.
        #[test]
        fn codec_decoders_survive_arbitrary_bytes(
            noise in prop::collection::vec(any::<u8>(), 0..256),
            d in arb_delivery(),
            rows in prop::collection::vec((any::<u64>(), arb_guid(), arb_guid()), 0..9),
            how in arb_mangle(),
        ) {
            let mangled = mangle(event_relay_payload((d.app, 1), &d), how.clone());
            let group = mangle(event_relay_group(d.app, &rows, &d.event), how);
            for bytes in [&noise, &mangled, &group] {
                let _ = get_value(&mut wire::Reader::new(bytes));
                let _ = get_event(&mut wire::Reader::new(bytes));
                let _ = skim_event(bytes);
                let _ = get_relay_head(&mut wire::Reader::new(bytes));
                let _ = read_relay(bytes);
            }
        }
    }

    /// An `EventRelay` payload as the relay reads it: the head, then the
    /// event, then nothing.
    fn read_relay(bytes: &[u8]) -> SciResult<(Guid, Vec<RelayRow>, ContextEvent)> {
        let mut r = wire::Reader::new(bytes);
        let (origin, rows) = get_relay_head(&mut r)?;
        let event = get_event(&mut r)?;
        expect_end(&r, "an event relay")?;
        Ok((origin, rows, event))
    }

    proptest! {
        /// `skim_event` is `get_event` without the event: on every
        /// valid encoding and every mutation of one, it accepts exactly
        /// when `get_event` does, consumes the same bytes, and reads the
        /// decoded event's topic, subject and timestamp.
        #[test]
        fn codec_skim_agrees_with_get_event(
            ev in prop_oneof![arb_event(), arb_subject_event()],
            how in arb_mangle(),
        ) {
            let intact = encoded_event(&ev);
            for bytes in [intact.clone(), mangle(intact, how)] {
                let mut full = wire::Reader::new(&bytes);
                match (get_event(&mut full), skim_event(&bytes)) {
                    (Ok(event), Some((head, used))) => {
                        let expected = EventHead {
                            topic: event.topic.name(),
                            subject: event.subject(),
                            timestamp: event.timestamp,
                        };
                        prop_assert_eq!(head, expected);
                        prop_assert_eq!(bytes.len() - used, full.remaining());
                    }
                    (Err(_), None) => {}
                    (event, head) => prop_assert!(false, "get {event:?} but skim {head:?}"),
                }
            }
        }
    }

    #[test]
    fn value_codec_round_trips_every_variant() {
        let values = [
            ContextValue::Empty,
            ContextValue::Bool(true),
            ContextValue::Int(-42),
            ContextValue::Float(-0.125),
            ContextValue::text("hello"),
            ContextValue::Id(Guid::from_u128(0xBEEF)),
            ContextValue::Coord(Coord::new(1.5, -2.5)),
            ContextValue::place("L10.01"),
            ContextValue::Time(VirtualTime::from_secs(9)),
            ContextValue::List(vec![ContextValue::Int(1), ContextValue::Bool(false)]),
            ContextValue::record([("k", ContextValue::text("v"))]),
        ];
        for v in values {
            let mut buf = Vec::new();
            put_value(&mut buf, &v);
            let mut r = wire::Reader::new(&buf);
            assert_eq!(get_value(&mut r).unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    /// Regression: a `List` claiming `0xFFFF_FFFF` items sized a
    /// 137 GB allocation and aborted the process.
    #[test]
    fn a_hostile_count_is_a_codec_error_not_an_allocation() {
        for tag in [9u8, 10] {
            let mut bytes = vec![tag];
            wire::put_u32(&mut bytes, u32::MAX);
            bytes.extend_from_slice(&[0; 16]);
            let refused = get_value(&mut wire::Reader::new(&bytes));
            assert!(matches!(refused, Err(SciError::Codec(_))), "{refused:?}");
        }
    }

    /// Regression: 10 MB of nested `List` tags overflowed the stack.
    #[test]
    fn nesting_past_the_bound_is_a_codec_error_not_a_stack_overflow() {
        let nested = |levels: usize| {
            let mut bytes = Vec::new();
            for _ in 0..levels {
                wire::put_u8(&mut bytes, 9);
                wire::put_u32(&mut bytes, 1);
            }
            wire::put_u8(&mut bytes, 0);
            bytes
        };
        let deepest = nested(MAX_VALUE_DEPTH);
        assert!(get_value(&mut wire::Reader::new(&deepest)).is_ok());
        for levels in [MAX_VALUE_DEPTH + 1, 2_000_000] {
            let refused = get_value(&mut wire::Reader::new(&nested(levels)));
            assert!(matches!(refused, Err(SciError::Codec(_))), "{levels}");
        }
    }

    /// A relay claiming `u32::MAX` rows is refused by the count check,
    /// before a row is read or a table sized.
    #[test]
    fn codec_a_hostile_row_count_is_a_codec_error_not_an_allocation() {
        let mut bytes = Vec::new();
        wire::put_u128(&mut bytes, 0xC0D);
        wire::put_u32(&mut bytes, u32::MAX);
        bytes.extend_from_slice(&[0; RELAY_ROW_LEN]);
        let refused = get_relay_head(&mut wire::Reader::new(&bytes));
        assert!(matches!(refused, Err(SciError::Codec(_))), "{refused:?}");
    }

    /// A relay with no rows is refused, not read as a relay whose every
    /// row has been seen.
    #[test]
    fn codec_a_relay_with_no_rows_is_a_codec_error() {
        let event = ContextEvent::new(
            Guid::from_u128(0x5E),
            ContextType::Presence,
            ContextValue::Empty,
            VirtualTime::from_secs(2),
        );
        let empty = event_relay_group(Guid::from_u128(0xC0D), &[], &event);
        let refused = get_relay_head(&mut wire::Reader::new(&empty));
        assert!(matches!(refused, Err(SciError::Codec(_))), "{refused:?}");
    }

    /// Pins the `EventRelay` payload byte for byte: what crosses the
    /// wire between two builds of one protocol version. The relay of one
    /// delivery is the one-row case of the same form.
    #[test]
    fn codec_event_relay_payload_is_pinned() {
        let d = AppDelivery {
            app: Guid::from_u128(0xA99),
            query: Guid::from_u128(0x200),
            event: ContextEvent::new(
                Guid::from_u128(0x5E),
                ContextType::Presence,
                ContextValue::record([
                    ("subject", ContextValue::Id(Guid::from_u128(0x3E9))),
                    ("to", ContextValue::text("lobby")),
                ]),
                VirtualTime::from_secs(2),
            )
            .with_seq(EventSeq(7)),
        };
        let second = (10, Guid::from_u128(0xA9A), Guid::from_u128(0x201));
        let golden = concat!(
            "00000000000000000000000000000c0d",   // origin
            "00000002",                           // two rows
            "0000000000000009",                   // seq
            "00000000000000000000000000000a99",   // app
            "00000000000000000000000000000200",   // query
            "000000000000000a",                   // seq
            "00000000000000000000000000000a9a",   // app
            "00000000000000000000000000000201",   // query
            "0000000000000000000000000000005e",   // event source
            "0000000870726573656e6365",           // topic "presence"
            "00000000001e8480",                   // timestamp, 2 s in us
            "0000000000000007",                   // event seq
            "0a00000002",                         // record, two fields
            "000000077375626a656374",             // "subject"
            "05000000000000000000000000000003e9", // id
            "00000002746f",                       // "to"
            "04000000056c6f626279",               // text "lobby"
        );
        let origin = Guid::from_u128(0xC0D);
        let rows = [(9, d.app, d.query), second];
        assert_eq!(hex(&event_relay_group(origin, &rows, &d.event)), golden);
        let one = event_relay_group(origin, &rows[..1], &d.event);
        assert_eq!(event_relay_payload((origin, 9), &d), one);
    }
}
