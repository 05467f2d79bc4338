//! Serialisation of queries to and from the Figure 6 XML document form.
//!
//! ```xml
//! <query>
//!   <query_id>…</query_id>
//!   <owner_id>…</owner_id>
//!   <what>…</what>
//!   <where>…</where>
//!   <when>…</when>
//!   <which>…</which>
//!   <mode>…</mode>
//! </query>
//! ```
//!
//! The section bodies are structured sub-elements (the paper leaves them
//! unspecified); the encoding here is total and bijective over the AST:
//! [`to_xml`] ∘ [`from_xml`] is the identity, which the property tests in
//! `tests/prop_codec.rs` check.

use std::fmt;

use sci_types::{
    ContextType, ContextValue, Coord, EntityKind, Guid, SciError, SciResult, VirtualDuration,
    VirtualTime,
};

use crate::ast::{Mode, Query, Subject, What, When, Where, Which};
use crate::predicate::{CmpOp, Predicate};
use crate::xml::{document, parse, Element, XmlWriter};

/// Serialises a query to its XML document form.
pub fn to_xml(query: &Query) -> String {
    document(|w| write_query(w, query))
}

/// Parses a query from its XML document form.
///
/// # Errors
///
/// Returns [`SciError::Parse`] if the document is not well-formed XML or
/// does not encode a valid query ([`SciError::Codec`] for a missing
/// attribute).
pub fn from_xml(xml: &str) -> SciResult<Query> {
    let root = parse(xml)?;
    query_from_element(&root)
}

/// Writes the `<query>` element for a query.
pub fn write_query(w: &mut XmlWriter<'_>, query: &Query) {
    w.element("query", |w| {
        w.leaf("query_id", query.id);
        w.leaf("owner_id", query.owner);
        write_what(w, &query.what);
        write_where(w, &query.where_);
        write_when(w, &query.when);
        w.element("which", |w| write_which_variant(w, &query.which));
        w.leaf("mode", query.mode.name());
    });
}

/// Reconstructs a query from a `<query>` element.
pub fn query_from_element(root: &Element) -> SciResult<Query> {
    if root.name != "query" {
        return Err(SciError::Parse(format!(
            "expected <query> root, found <{}>",
            root.name
        )));
    }
    let id: Guid = root.require_child("query_id")?.trimmed_text().parse()?;
    let owner: Guid = root.require_child("owner_id")?.trimmed_text().parse()?;
    let what = what_from_element(root.require_child("what")?)?;
    let where_ = where_from_element(root.require_child("where")?)?;
    let when = when_from_element(root.require_child("when")?)?;
    let which = which_from_element(root.require_child("which")?)?;
    let mode_name = root.require_child("mode")?.trimmed_text();
    let mode = Mode::from_name(mode_name)
        .ok_or_else(|| SciError::Parse(format!("unknown mode `{mode_name}`")))?;
    Ok(Query {
        id,
        owner,
        what,
        where_,
        when,
        which,
        mode,
    })
}

fn single_child(parent: &Element) -> SciResult<&Element> {
    match parent.children.as_slice() {
        [only] => Ok(only),
        _ => Err(SciError::Parse(format!(
            "<{}> must contain exactly one variant element",
            parent.name
        ))),
    }
}

fn write_what(w: &mut XmlWriter<'_>, what: &What) {
    w.element("what", |w| match what {
        What::Kind(kind) => w.leaf("kind", kind.name()),
        What::Named(id) => w.leaf("named", id),
        What::Information { ty, constraints } => w.element("info", |w| {
            w.attr("type", ty.name());
            for p in constraints {
                write_predicate(w, p);
            }
        }),
    });
}

fn what_from_element(e: &Element) -> SciResult<What> {
    let inner = single_child(e)?;
    match inner.name.as_str() {
        "kind" => Ok(What::Kind(inner.trimmed_text().parse::<EntityKind>()?)),
        "named" => Ok(What::Named(inner.trimmed_text().parse()?)),
        "info" => {
            let ty = inner.require_attr("type")?;
            let constraints = inner
                .children_named("pred")
                .map(predicate_from_element)
                .collect::<SciResult<Vec<_>>>()?;
            Ok(What::Information {
                ty: ContextType::from_name(ty),
                constraints,
            })
        }
        other => Err(SciError::Parse(format!("unknown what variant <{other}>"))),
    }
}

fn subject_from_str(s: &str) -> SciResult<Subject> {
    if s == "me" {
        Ok(Subject::Owner)
    } else {
        Ok(Subject::Entity(s.parse()?))
    }
}

fn write_where(w: &mut XmlWriter<'_>, where_: &Where) {
    w.element("where", |w| match where_ {
        Where::Anywhere => w.element("anywhere", |_| {}),
        Where::Place(p) => w.leaf("place", p),
        Where::Range(r) => w.leaf("range", r),
        Where::ClosestTo(s) => w.leaf("closest-to", s),
        Where::Within { center, radius_m } => w.element("within", |w| {
            w.attr("radius", radius_m);
            w.text(center);
        }),
    });
}

fn where_from_element(e: &Element) -> SciResult<Where> {
    let inner = single_child(e)?;
    match inner.name.as_str() {
        "anywhere" => Ok(Where::Anywhere),
        "place" => Ok(Where::Place(inner.trimmed_text().to_owned())),
        "range" => Ok(Where::Range(inner.trimmed_text().to_owned())),
        "closest-to" => Ok(Where::ClosestTo(subject_from_str(inner.trimmed_text())?)),
        "within" => {
            let radius = inner.require_attr("radius")?;
            Ok(Where::Within {
                center: subject_from_str(inner.trimmed_text())?,
                radius_m: parse_f64(radius)?,
            })
        }
        other => Err(SciError::Parse(format!("unknown where variant <{other}>"))),
    }
}

fn write_when(w: &mut XmlWriter<'_>, when: &When) {
    w.element("when", |w| match when {
        When::Immediate => w.element("immediate", |_| {}),
        When::At(t) => w.element("at", |w| w.attr("us", t.as_micros())),
        When::After(d) => w.element("after", |w| w.attr("us", d.as_micros())),
        When::OnEnter { entity, place } | When::OnLeave { entity, place } => {
            let name = match when {
                When::OnEnter { .. } => "on-enter",
                _ => "on-leave",
            };
            w.element(name, |w| {
                w.attr("entity", entity);
                w.leaf("place", place);
            });
        }
    });
}

fn when_from_element(e: &Element) -> SciResult<When> {
    let inner = single_child(e)?;
    let us = |elem: &Element| -> SciResult<u64> {
        elem.require_attr("us")?
            .parse()
            .map_err(|_| SciError::Parse("invalid microsecond count".into()))
    };
    match inner.name.as_str() {
        "immediate" => Ok(When::Immediate),
        "at" => Ok(When::At(VirtualTime::from_micros(us(inner)?))),
        "after" => Ok(When::After(VirtualDuration::from_micros(us(inner)?))),
        "on-enter" | "on-leave" => {
            let entity = subject_from_str(inner.require_attr("entity")?)?;
            let place = inner.require_child("place")?.trimmed_text().to_owned();
            if inner.name == "on-enter" {
                Ok(When::OnEnter { entity, place })
            } else {
                Ok(When::OnLeave { entity, place })
            }
        }
        other => Err(SciError::Parse(format!("unknown when variant <{other}>"))),
    }
}

fn write_which_variant(w: &mut XmlWriter<'_>, which: &Which) {
    match which {
        Which::Any => w.element("any", |_| {}),
        Which::All => w.element("all", |_| {}),
        Which::Closest => w.element("closest", |_| {}),
        Which::MinAttr(a) => w.element("min", |w| w.attr("attr", a)),
        Which::MaxAttr(a) => w.element("max", |w| w.attr("attr", a)),
        Which::Filtered { predicates, then } => w.element("filter", |w| {
            for p in predicates {
                write_predicate(w, p);
            }
            w.element("then", |w| write_which_variant(w, then));
        }),
    }
}

fn which_from_element(e: &Element) -> SciResult<Which> {
    which_from_variant(single_child(e)?)
}

fn which_from_variant(inner: &Element) -> SciResult<Which> {
    let attr_of = |elem: &Element| elem.require_attr("attr").map(str::to_owned);
    match inner.name.as_str() {
        "any" => Ok(Which::Any),
        "all" => Ok(Which::All),
        "closest" => Ok(Which::Closest),
        "min" => Ok(Which::MinAttr(attr_of(inner)?)),
        "max" => Ok(Which::MaxAttr(attr_of(inner)?)),
        "filter" => {
            let predicates = inner
                .children_named("pred")
                .map(predicate_from_element)
                .collect::<SciResult<Vec<_>>>()?;
            let then_elem = inner.require_child("then")?;
            let then = which_from_variant(single_child(then_elem)?)?;
            Ok(Which::Filtered {
                predicates,
                then: Box::new(then),
            })
        }
        other => Err(SciError::Parse(format!("unknown which variant <{other}>"))),
    }
}

/// Writes a predicate as `<pred attr="…" op="…">value?</pred>`.
fn write_predicate(w: &mut XmlWriter<'_>, p: &Predicate) {
    w.element("pred", |w| {
        w.attr("attr", &p.attr);
        w.attr("op", p.op.name());
        if p.op != CmpOp::Exists {
            write_value(w, &p.value);
        }
    });
}

/// Decodes a `<pred>` element.
fn predicate_from_element(e: &Element) -> SciResult<Predicate> {
    let attr = e.require_attr("attr")?.to_owned();
    let op_name = e.require_attr("op")?;
    let op = CmpOp::from_name(op_name)
        .ok_or_else(|| SciError::Parse(format!("unknown operator `{op_name}`")))?;
    let value = if op == CmpOp::Exists {
        ContextValue::Empty
    } else {
        value_from_element(single_child(e)?)?
    };
    Ok(Predicate { attr, op, value })
}

/// Writes a context value as a `<value kind="…">` element.
///
/// All [`ContextValue`] variants are supported, recursively. A float is
/// written as Rust prints it, which parses back to the same bits.
fn write_value(w: &mut XmlWriter<'_>, v: &ContextValue) {
    w.element("value", |w| match v {
        ContextValue::Empty => w.attr("kind", "empty"),
        ContextValue::Bool(b) => scalar(w, "bool", b),
        ContextValue::Int(i) => scalar(w, "int", i),
        ContextValue::Float(x) => scalar(w, "float", x),
        ContextValue::Text(s) => scalar(w, "text", s),
        ContextValue::Id(g) => scalar(w, "id", g),
        ContextValue::Coord(c) => {
            w.attr("kind", "coord");
            w.attr("x", c.x);
            w.attr("y", c.y);
        }
        ContextValue::Place(p) => scalar(w, "place", p),
        ContextValue::Time(t) => scalar(w, "time", t.as_micros()),
        ContextValue::List(items) => {
            w.attr("kind", "list");
            for item in items {
                write_value(w, item);
            }
        }
        ContextValue::Record(fields) => {
            w.attr("kind", "record");
            for (k, fv) in fields {
                w.element("field", |w| {
                    w.attr("name", k);
                    write_value(w, fv);
                });
            }
        }
    });
}

/// The body of a `<value>` held as text.
fn scalar(w: &mut XmlWriter<'_>, kind: &str, text: impl fmt::Display) {
    w.attr("kind", kind);
    w.text(text);
}

/// Decodes a `<value>` element.
fn value_from_element(e: &Element) -> SciResult<ContextValue> {
    if e.name != "value" {
        return Err(SciError::Parse(format!(
            "expected <value>, found <{}>",
            e.name
        )));
    }
    let kind = e.require_attr("kind")?;
    let text = e.trimmed_text();
    match kind {
        "empty" => Ok(ContextValue::Empty),
        "bool" => match text {
            "true" => Ok(ContextValue::Bool(true)),
            "false" => Ok(ContextValue::Bool(false)),
            other => Err(SciError::Parse(format!("invalid bool `{other}`"))),
        },
        "int" => text
            .parse()
            .map(ContextValue::Int)
            .map_err(|_| SciError::Parse(format!("invalid int `{text}`"))),
        "float" => parse_f64(text).map(ContextValue::Float),
        "text" => Ok(ContextValue::Text(e.text.clone())),
        "id" => Ok(ContextValue::Id(text.parse()?)),
        "coord" => {
            let x = parse_f64(e.require_attr("x")?)?;
            let y = parse_f64(e.require_attr("y")?)?;
            Ok(ContextValue::Coord(Coord::new(x, y)))
        }
        "place" => Ok(ContextValue::Place(e.text.clone())),
        "time" => text
            .parse()
            .map(|us| ContextValue::Time(VirtualTime::from_micros(us)))
            .map_err(|_| SciError::Parse(format!("invalid time `{text}`"))),
        "list" => e
            .children
            .iter()
            .map(value_from_element)
            .collect::<SciResult<Vec<_>>>()
            .map(ContextValue::List),
        "record" => {
            let mut fields = Vec::with_capacity(e.children.len());
            for field in e.children_named("field") {
                let name = field.require_attr("name")?.to_owned();
                let value = value_from_element(single_child(field)?)?;
                fields.push((name, value));
            }
            Ok(ContextValue::Record(fields))
        }
        other => Err(SciError::Parse(format!("unknown value kind `{other}`"))),
    }
}

// ----------------------------------------------------------------------
// Profile / advertisement / event documents (inter-range payloads)
// ----------------------------------------------------------------------

use sci_types::{Advertisement, ContextEvent, EventSeq, Metadata, Operation, PortSpec, Profile};

fn write_metadata(w: &mut XmlWriter<'_>, meta: &Metadata) {
    for (k, v) in meta.iter() {
        w.element("attr", |w| {
            w.attr("name", k);
            write_value(w, v);
        });
    }
}

fn metadata_from_children(e: &Element) -> SciResult<Vec<(String, ContextValue)>> {
    e.children_named("attr")
        .map(|attr| {
            let name = attr.require_attr("name")?.to_owned();
            let value = value_from_element(single_child(attr)?)?;
            Ok((name, value))
        })
        .collect()
}

/// Writes a profile as a `<profile>` document (used when profiles cross
/// ranges in query responses).
pub fn write_profile(w: &mut XmlWriter<'_>, p: &Profile) {
    w.element("profile", |w| {
        w.attr("id", p.id());
        w.attr("kind", p.kind().name());
        w.attr("name", p.name());
        for (name, ports) in [("input", p.inputs()), ("output", p.outputs())] {
            for port in ports {
                w.element(name, |w| {
                    w.attr("name", &port.name);
                    w.attr("type", port.ty.name());
                });
            }
        }
        write_metadata(w, p.attributes());
    });
}

/// Decodes a `<profile>` document.
pub fn profile_from_element(e: &Element) -> SciResult<Profile> {
    if e.name != "profile" {
        return Err(SciError::Parse(format!(
            "expected <profile>, found <{}>",
            e.name
        )));
    }
    let id: Guid = e.require_attr("id")?.parse()?;
    let kind: EntityKind = e.require_attr("kind")?.parse()?;
    let name = e.require_attr("name")?;
    let mut builder = Profile::builder(id, kind, name);
    let port_of = |el: &Element| -> SciResult<PortSpec> {
        let name = el.require_attr("name")?;
        let ty = el.require_attr("type")?;
        Ok(PortSpec::new(name, ContextType::from_name(ty)))
    };
    for input in e.children_named("input") {
        builder = builder.input(port_of(input)?);
    }
    for output in e.children_named("output") {
        builder = builder.output(port_of(output)?);
    }
    for (k, v) in metadata_from_children(e)? {
        builder = builder.attribute(k, v);
    }
    Ok(builder.build())
}

/// Writes an advertisement as an `<advertisement>` document.
pub fn write_advertisement(w: &mut XmlWriter<'_>, ad: &Advertisement) {
    w.element("advertisement", |w| {
        w.attr("provider", ad.provider());
        w.attr("interface", ad.interface());
        for op in ad.operations() {
            w.element("operation", |w| {
                w.attr("name", &op.name);
                for param in &op.params {
                    w.element("param", |w| w.attr("type", param.name()));
                }
                if let Some(ret) = &op.returns {
                    w.element("returns", |w| w.attr("type", ret.name()));
                }
            });
        }
        write_metadata(w, ad.attributes());
    });
}

/// Decodes an `<advertisement>` document.
pub fn advertisement_from_element(e: &Element) -> SciResult<Advertisement> {
    if e.name != "advertisement" {
        return Err(SciError::Parse(format!(
            "expected <advertisement>, found <{}>",
            e.name
        )));
    }
    let provider: Guid = e.require_attr("provider")?.parse()?;
    let interface = e.require_attr("interface")?;
    let mut ad = Advertisement::new(provider, interface);
    for op in e.children_named("operation") {
        let name = op.require_attr("name")?;
        let params: Vec<ContextType> = op
            .children_named("param")
            .filter_map(|p| p.attr("type"))
            .map(ContextType::from_name)
            .collect();
        let returns = op
            .child("returns")
            .and_then(|r| r.attr("type"))
            .map(ContextType::from_name);
        ad = ad.with_operation(Operation::new(name, params, returns));
    }
    for (k, v) in metadata_from_children(e)? {
        ad = ad.with_attribute(k, v);
    }
    Ok(ad)
}

/// Writes a context event as an `<event>` document.
pub fn write_event(w: &mut XmlWriter<'_>, ev: &ContextEvent) {
    w.element("event", |w| {
        w.attr("source", ev.source);
        w.attr("type", ev.topic.name());
        w.attr("us", ev.timestamp.as_micros());
        w.attr("seq", ev.seq.0);
        write_value(w, &ev.payload);
    });
}

/// The `<event>` document as a tree, for callers that compose
/// documents out of [`Element`]s: [`write_event`]'s bytes, parsed.
///
/// # Panics
///
/// If the payload nests deeper than the parser reads.
pub fn event_to_element(ev: &ContextEvent) -> Element {
    parse(&document(|w| write_event(w, ev))).expect("a written event parses")
}

/// Decodes an `<event>` document.
pub fn event_from_element(e: &Element) -> SciResult<ContextEvent> {
    if e.name != "event" {
        return Err(SciError::Parse(format!(
            "expected <event>, found <{}>",
            e.name
        )));
    }
    let source: Guid = e.require_attr("source")?.parse()?;
    let ty = e.require_attr("type")?;
    let us: u64 = e
        .require_attr("us")?
        .parse()
        .map_err(|_| SciError::Parse("invalid event timestamp".into()))?;
    let seq: u64 = e
        .require_attr("seq")?
        .parse()
        .map_err(|_| SciError::Parse("invalid event seq".into()))?;
    let payload = value_from_element(single_child(e)?)?;
    Ok(ContextEvent::new(
        source,
        ContextType::from_name(ty),
        payload,
        VirtualTime::from_micros(us),
    )
    .with_seq(EventSeq(seq)))
}

fn parse_f64(s: &str) -> SciResult<f64> {
    s.parse()
        .map_err(|_| SciError::Parse(format!("invalid float `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use sci_types::EntityKind;

    fn capa_query() -> Query {
        QueryBuilder::new(Guid::from_u128(0xc0ffee), Guid::from_u128(0xb0b))
            .kind(EntityKind::Device)
            .attr_eq("service", "printing")
            .in_place("L10.01")
            .when(When::OnEnter {
                entity: Subject::Owner,
                place: "L10.01".into(),
            })
            .closest()
            .mode(Mode::Advertisement)
            .build()
    }

    #[test]
    fn capa_roundtrip() {
        let q = capa_query();
        let xml = to_xml(&q);
        assert!(xml.starts_with("<query>"));
        assert!(xml.contains("<query_id>"));
        assert!(xml.contains("<owner_id>"));
        assert!(xml.contains("<mode>advertisement</mode>"));
        assert_eq!(from_xml(&xml).unwrap(), q);
    }

    #[test]
    fn every_when_variant_roundtrips() {
        let whens = [
            When::Immediate,
            When::At(VirtualTime::from_secs(5)),
            When::After(VirtualDuration::from_millis(250)),
            When::OnEnter {
                entity: Subject::Entity(Guid::from_u128(7)),
                place: "lobby".into(),
            },
            When::OnLeave {
                entity: Subject::Owner,
                place: "L10.01".into(),
            },
        ];
        for when in whens {
            let q = QueryBuilder::new(Guid::from_u128(1), Guid::from_u128(2))
                .info(ContextType::Location)
                .when(when)
                .build();
            assert_eq!(from_xml(&to_xml(&q)).unwrap(), q);
        }
    }

    #[test]
    fn every_where_variant_roundtrips() {
        let wheres = [
            Where::Anywhere,
            Where::Place("Room 10.01".into()),
            Where::Range("level-ten".into()),
            Where::ClosestTo(Subject::Owner),
            Where::Within {
                center: Subject::Entity(Guid::from_u128(9)),
                radius_m: 12.5,
            },
        ];
        for w in wheres {
            let q = QueryBuilder::new(Guid::from_u128(1), Guid::from_u128(2))
                .info(ContextType::Temperature)
                .where_(w)
                .build();
            assert_eq!(from_xml(&to_xml(&q)).unwrap(), q);
        }
    }

    #[test]
    fn nested_filter_roundtrips() {
        let which = Which::Filtered {
            predicates: vec![
                Predicate::new("queue", CmpOp::Le, ContextValue::Int(0)),
                Predicate::exists("paper"),
            ],
            then: Box::new(Which::Filtered {
                predicates: vec![Predicate::eq("colour", ContextValue::Bool(true))],
                then: Box::new(Which::MinAttr("queue".into())),
            }),
        };
        let q = QueryBuilder::new(Guid::from_u128(1), Guid::from_u128(2))
            .kind(EntityKind::Device)
            .which(which)
            .build();
        assert_eq!(from_xml(&to_xml(&q)).unwrap(), q);
    }

    #[test]
    fn value_recursion_roundtrips() {
        let value = ContextValue::record([
            (
                "ids",
                ContextValue::List(vec![
                    ContextValue::Id(Guid::from_u128(1)),
                    ContextValue::Coord(Coord::new(-1.5, 2.25)),
                ]),
            ),
            ("label", ContextValue::text("a <tricky> & \"quoted\" label")),
            ("empty", ContextValue::Empty),
        ]);
        let q = QueryBuilder::new(Guid::from_u128(1), Guid::from_u128(2))
            .info_matching(
                ContextType::custom("blob"),
                vec![Predicate::eq("payload", value)],
            )
            .build();
        assert_eq!(from_xml(&to_xml(&q)).unwrap(), q);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(from_xml("<query></query>").is_err(), "missing sections");
        assert!(from_xml("<notquery/>").is_err(), "wrong root");
        let q = capa_query();
        let bad_mode = to_xml(&q).replace("advertisement", "teleport");
        assert!(from_xml(&bad_mode).is_err());
    }

    #[test]
    fn profile_document_roundtrip() {
        let p = Profile::builder(Guid::from_u128(0x123), EntityKind::Software, "pathCE")
            .input(PortSpec::new("from", ContextType::Location))
            .input(PortSpec::new("to", ContextType::Location))
            .output(PortSpec::new("path", ContextType::Path))
            .attribute("version", ContextValue::Int(2))
            .attribute("room", ContextValue::place("L10.01"))
            .build();
        let e = parse(&document(|w| write_profile(w, &p))).unwrap();
        let back = profile_from_element(&e).unwrap();
        assert_eq!(back, p);
        assert!(profile_from_element(&Element::new("nope")).is_err());
    }

    #[test]
    fn advertisement_document_roundtrip() {
        let ad = Advertisement::new(Guid::from_u128(7), "printing")
            .with_operation(Operation::new(
                "submit-job",
                [ContextType::custom("document"), ContextType::Identity],
                Some(ContextType::custom("job-ticket")),
            ))
            .with_operation(Operation::new("cancel-job", [ContextType::Identity], None))
            .with_attribute("ppm", ContextValue::Int(24));
        let xml = document(|w| write_advertisement(w, &ad));
        let back = advertisement_from_element(&parse(&xml).unwrap()).unwrap();
        assert_eq!(back, ad);
    }

    #[test]
    fn event_document_roundtrip() {
        let ev = ContextEvent::new(
            Guid::from_u128(5),
            ContextType::Presence,
            ContextValue::record([
                ("subject", ContextValue::Id(Guid::from_u128(9))),
                ("to", ContextValue::place("lobby")),
            ]),
            VirtualTime::from_millis(1234),
        )
        .with_seq(EventSeq(42));
        let back = event_from_element(&event_to_element(&ev)).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn custom_context_type_survives() {
        let q = QueryBuilder::new(Guid::from_u128(1), Guid::from_u128(2))
            .info(ContextType::custom("co2-level"))
            .build();
        let back = from_xml(&to_xml(&q)).unwrap();
        assert_eq!(
            back.requested_type(),
            Some(&ContextType::custom("co2-level"))
        );
    }
}
