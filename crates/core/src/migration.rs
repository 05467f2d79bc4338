//! First-class entity migration between ranges.
//!
//! City-scale mobility means entities change home range constantly: a
//! person walks from one building's range into the next, and their
//! profile, advertised services, standing subscriptions and any
//! not-yet-drained deliveries must follow them. A [`MigrationPacket`]
//! is the self-contained unit of that move — everything the source
//! range knew about the entity, packaged at `migrate-out`, shipped
//! over the federation's exactly-once relay envelope, and replayed at
//! the target by `migrate-in`.
//!
//! The packet serialises with the same `Element` conventions as every
//! other SCI wire document, reusing the query-crate codecs for its
//! constituent parts, so a packet survives the overlay's byte
//! transport and the chaos layer's duplication faults (the `(origin,
//! seq)` envelope added by the federation dedups replays; the packet
//! itself carries no envelope state).

use sci_query::codec as qcodec;
use sci_query::xml::{parse, Element};
use sci_query::Query;
use sci_types::{Advertisement, AppDelivery, Guid, Profile, QueryAnswer, SciError, SciResult};

use crate::federation::{answer_element, answer_from_element};

/// Everything one range knows about a departing entity, packaged for
/// replay at its new home range.
#[derive(Clone, Debug, Default)]
pub struct MigrationPacket {
    /// The moving entity.
    pub entity: Guid,
    /// Its registered profile, when the source range held one (an
    /// auto-registered skeleton may have departed without a profile).
    pub profile: Option<Profile>,
    /// Services the entity advertised.
    pub advertisements: Vec<Advertisement>,
    /// Standing queries the entity owns, replayed as fresh submissions
    /// at the target so their configurations re-resolve there.
    pub queries: Vec<Query>,
    /// Deliveries queued for the entity but not yet drained when the
    /// move was packaged.
    pub deliveries: Vec<AppDelivery>,
    /// Deferred answers produced for the entity's queries but not yet
    /// drained: `(query, owner, answer)`.
    pub answers: Vec<(Guid, Guid, QueryAnswer)>,
}

impl MigrationPacket {
    /// An empty packet for `entity`.
    pub fn new(entity: Guid) -> Self {
        MigrationPacket {
            entity,
            ..MigrationPacket::default()
        }
    }

    /// Serialises the packet to its `<migration>` document.
    pub fn to_xml(&self) -> String {
        self.to_element().to_xml()
    }

    /// Builds the `<migration>` element.
    pub fn to_element(&self) -> Element {
        let mut e = Element::new("migration").with_attr("entity", self.entity.to_string());
        if let Some(p) = &self.profile {
            e = e.with_child(qcodec::profile_to_element(p));
        }
        for ad in &self.advertisements {
            e = e.with_child(qcodec::advertisement_to_element(ad));
        }
        for q in &self.queries {
            e = e.with_child(qcodec::query_to_element(q));
        }
        for d in &self.deliveries {
            e = e.with_child(
                Element::new("delivery")
                    .with_attr("app", d.app.to_string())
                    .with_attr("query", d.query.to_string())
                    .with_child(qcodec::event_to_element(&d.event)),
            );
        }
        for (query, owner, answer) in &self.answers {
            e = e.with_child(
                Element::new("deferred-answer")
                    .with_attr("query", query.to_string())
                    .with_attr("owner", owner.to_string())
                    .with_child(answer_element(answer)),
            );
        }
        e
    }

    /// Parses a `<migration>` document.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::Codec`]/[`SciError::Parse`] for malformed
    /// documents.
    pub fn from_xml(xml: &str) -> SciResult<MigrationPacket> {
        MigrationPacket::from_element(&parse(xml)?)
    }

    /// Parses a `<migration>` element.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::Codec`]/[`SciError::Parse`] for malformed
    /// documents.
    pub fn from_element(e: &Element) -> SciResult<MigrationPacket> {
        if e.name != "migration" {
            return Err(SciError::Codec(format!(
                "expected <migration>, got <{}>",
                e.name
            )));
        }
        let entity: Guid = e
            .attr("entity")
            .ok_or_else(|| SciError::Codec("<migration> missing `entity`".into()))?
            .parse()?;
        let mut packet = MigrationPacket::new(entity);
        for p in e.children_named("profile") {
            packet.profile = Some(qcodec::profile_from_element(p)?);
        }
        for ad in e.children_named("advertisement") {
            packet
                .advertisements
                .push(qcodec::advertisement_from_element(ad)?);
        }
        for q in e.children_named("query") {
            packet.queries.push(qcodec::query_from_element(q)?);
        }
        for d in e.children_named("delivery") {
            let app: Guid = d
                .attr("app")
                .ok_or_else(|| SciError::Codec("<delivery> missing `app`".into()))?
                .parse()?;
            let query: Guid = d
                .attr("query")
                .ok_or_else(|| SciError::Codec("<delivery> missing `query`".into()))?
                .parse()?;
            let event = qcodec::event_from_element(d.require_child("event")?)?;
            packet.deliveries.push(AppDelivery { app, query, event });
        }
        for a in e.children_named("deferred-answer") {
            let query: Guid = a
                .attr("query")
                .ok_or_else(|| SciError::Codec("<deferred-answer> missing `query`".into()))?
                .parse()?;
            let owner: Guid = a
                .attr("owner")
                .ok_or_else(|| SciError::Codec("<deferred-answer> missing `owner`".into()))?
                .parse()?;
            let answer = answer_from_element(a.require_child("answer")?)?;
            packet.answers.push((query, owner, answer));
        }
        Ok(packet)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_query::Mode;
    use sci_types::{ContextEvent, ContextType, ContextValue, EntityKind, PortSpec, VirtualTime};

    fn sample() -> MigrationPacket {
        let entity = Guid::from_u128(0xA11CE);
        let mut packet = MigrationPacket::new(entity);
        packet.profile = Some(
            Profile::builder(entity, EntityKind::Person, "alice")
                .output(PortSpec::new("presence", ContextType::Presence))
                .attribute("badge", ContextValue::text("blue"))
                .build(),
        );
        packet
            .advertisements
            .push(Advertisement::new(entity, "alice-calendar"));
        packet.queries.push(
            Query::builder(Guid::from_u128(0xDEED), entity)
                .info(ContextType::Presence)
                .mode(Mode::Subscribe)
                .build(),
        );
        packet.deliveries.push(AppDelivery {
            app: entity,
            query: Guid::from_u128(0xDEED),
            event: ContextEvent::new(
                Guid::from_u128(7),
                ContextType::Presence,
                ContextValue::record([("subject", ContextValue::Id(entity))]),
                VirtualTime::from_secs(3),
            ),
        });
        packet.answers.push((
            Guid::from_u128(0xDEED),
            entity,
            QueryAnswer::Forward {
                range: "range-1".into(),
            },
        ));
        packet
    }

    #[test]
    fn packet_round_trips_through_xml() {
        let packet = sample();
        let back = MigrationPacket::from_xml(&packet.to_xml()).unwrap();
        assert_eq!(format!("{packet:?}"), format!("{back:?}"));
    }

    #[test]
    fn empty_packet_round_trips() {
        let packet = MigrationPacket::new(Guid::from_u128(5));
        let back = MigrationPacket::from_xml(&packet.to_xml()).unwrap();
        assert_eq!(back.entity, packet.entity);
        assert!(back.profile.is_none());
        assert!(back.advertisements.is_empty() && back.queries.is_empty());
        assert!(back.deliveries.is_empty() && back.answers.is_empty());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(MigrationPacket::from_xml("<nope/>").is_err());
        assert!(
            MigrationPacket::from_xml("<migration/>").is_err(),
            "missing entity"
        );
        assert!(
            MigrationPacket::from_xml(&format!(
                "<migration entity=\"{}\"><delivery query=\"{}\"/></migration>",
                Guid::from_u128(1),
                Guid::from_u128(2),
            ))
            .is_err(),
            "delivery missing app"
        );
    }
}
