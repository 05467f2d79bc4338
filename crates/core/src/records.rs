//! The leaf records ranges exchange and store, with one `Element`
//! encoding each: a queued delivery and a deferred answer — sections
//! of a [`crate::migration::MigrationPacket`] (and through it of the
//! durability snapshot), and under the relay's own element names the
//! bodies of its wire envelopes — and the `<answer>` document itself.

use sci_query::codec as qcodec;
use sci_query::xml::{parse, Element};
use sci_types::{AppDelivery, DeferredAnswer, QueryAnswer, SciError, SciResult};

/// A required attribute of `e`, parsed.
pub(crate) fn parsed_attr<T: std::str::FromStr>(e: &Element, key: &str) -> SciResult<T> {
    let raw = e.require_attr(key)?;
    raw.parse()
        .map_err(|_| SciError::Codec(format!("bad {key} `{raw}` in <{}>", e.name)))
}

/// A queued delivery as `<{name} app=… query=…><event/></{name}>`: a
/// `<delivery>` section, or the body of a `<relay>` envelope.
pub(crate) fn delivery_element(name: &str, d: &AppDelivery) -> Element {
    Element::new(name)
        .with_attr("app", d.app.to_string())
        .with_attr("query", d.query.to_string())
        .with_child(qcodec::event_to_element(&d.event))
}

/// Reads what [`delivery_element`] wrote.
pub(crate) fn delivery_from_element(e: &Element) -> SciResult<AppDelivery> {
    Ok(AppDelivery {
        app: e.require_attr("app")?.parse()?,
        query: e.require_attr("query")?.parse()?,
        event: qcodec::event_from_element(e.require_child("event")?)?,
    })
}

/// A deferred answer as `<{name} {owner_key}=… query=…><answer/></{name}>`:
/// a `<deferred-answer owner=…>` section, or the body of an
/// `<answer-relay app=…>` envelope.
pub(crate) fn deferred_answer_element(
    name: &str,
    owner_key: &str,
    (query, owner, answer): &DeferredAnswer,
) -> Element {
    Element::new(name)
        .with_attr(owner_key, owner.to_string())
        .with_attr("query", query.to_string())
        .with_child(answer_element(answer))
}

/// Reads what [`deferred_answer_element`] wrote.
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
    answer_element(answer).to_xml()
}

/// Builds the `<answer>` element for a [`QueryAnswer`] (recursive, so
/// a partial answer nests the answer it degrades).
pub fn answer_element(answer: &QueryAnswer) -> Element {
    match answer {
        QueryAnswer::Profiles(ps) => {
            let mut e = Element::new("answer").with_attr("kind", "profiles");
            for p in ps {
                e = e.with_child(qcodec::profile_to_element(p));
            }
            e
        }
        QueryAnswer::Advertisements(ads) => {
            let mut e = Element::new("answer").with_attr("kind", "advertisements");
            for ad in ads {
                e = e.with_child(qcodec::advertisement_to_element(ad));
            }
            e
        }
        QueryAnswer::Subscribed {
            configuration,
            producers,
        } => {
            let mut e = Element::new("answer")
                .with_attr("kind", "subscribed")
                .with_attr("configuration", configuration.to_string());
            for p in producers {
                e = e.with_child(Element::new("producer").with_attr("id", p.to_string()));
            }
            e
        }
        QueryAnswer::Deferred => Element::new("answer").with_attr("kind", "deferred"),
        QueryAnswer::Forward { range } => Element::new("answer")
            .with_attr("kind", "forward")
            .with_attr("range", range.clone()),
        QueryAnswer::Partial {
            answer,
            missing_range,
            reason,
        } => Element::new("answer")
            .with_attr("kind", "partial")
            .with_attr("missing-range", missing_range.clone())
            .with_attr("reason", reason.clone())
            .with_child(answer_element(answer)),
    }
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
/// [`answer_element`]).
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
mod tests {
    use super::*;
    use sci_types::{Advertisement, EntityKind, Guid, Profile};

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
}
