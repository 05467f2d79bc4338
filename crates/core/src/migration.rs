//! First-class entity migration between ranges.
//!
//! City-scale mobility means entities change home range constantly: a
//! person walks from one building's range into the next, and their
//! profile, advertised services, standing subscriptions and any
//! not-yet-drained deliveries must follow them. A [`MigrationPacket`]
//! is the self-contained unit of that move — everything the source
//! range held on the entity's behalf, taken at `migrate-out`, shipped
//! over the federation's exactly-once relay envelope (the packet
//! itself carries no envelope state), and adopted at the target by
//! `migrate-in`.
//!
//! It is also the *one* definition of what a range holds on behalf of
//! an entity. `deregister` takes the same record and drops it, and a
//! durability snapshot is a header, the range-only tables and the
//! packet of *everyone* the range serves — recovery is a migration
//! through time, applied by the same code.

use sci_query::codec as qcodec;
use sci_query::xml::{document, parse, Element, XmlWriter};
use sci_query::Query;
use sci_types::{
    Advertisement, AppDelivery, DeferredAnswer, Guid, Profile, SciError, SciResult, VirtualTime,
};

use crate::records::{
    deferred_answer_from_element, delivery_from_element, parsed_attr, write_deferred,
    write_deferred_answer, write_delivery,
};

/// What a range holds on behalf of an entity, packaged to be adopted
/// by another range — or, in a snapshot, by the same range later.
///
/// A query is *standing* once it has a configuration: whatever trigger
/// it carried has fired, so it is re-instantiated as is. A *deferred*
/// query is still waiting for its trigger and is re-submitted at the
/// instant it was first stored, which re-arms the same absolute timer.
#[derive(Clone, Debug, Default)]
pub struct MigrationPacket {
    /// Whose state this is: the moving entity (a snapshot's packet
    /// names the range itself).
    pub entity: Guid,
    /// Registered profiles: the mover's own, when the source range held
    /// one (an auto-registered skeleton may depart without).
    pub profiles: Vec<Profile>,
    /// Services advertised.
    pub advertisements: Vec<Advertisement>,
    /// Queries with a live configuration, `<query>`.
    pub standing: Vec<Query>,
    /// Parked queries with the instant each was first stored,
    /// `<deferred stored-at-us=…>`.
    pub deferred: Vec<(Query, VirtualTime)>,
    /// Deliveries queued but not yet drained, `<delivery>`.
    pub deliveries: Vec<AppDelivery>,
    /// Deferred answers produced but not yet drained,
    /// `<deferred-answer>`: `(query, owner, answer)`.
    pub answers: Vec<DeferredAnswer>,
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
        document(|w| self.write(w))
    }

    /// Writes the `<migration>` element.
    pub(crate) fn write(&self, w: &mut XmlWriter<'_>) {
        w.element("migration", |w| {
            w.attr("entity", self.entity);
            self.write_sections(w);
        });
    }

    /// Writes the six sections as children, in field order.
    pub(crate) fn write_sections(&self, w: &mut XmlWriter<'_>) {
        for p in &self.profiles {
            qcodec::write_profile(w, p);
        }
        for ad in &self.advertisements {
            qcodec::write_advertisement(w, ad);
        }
        for query in &self.standing {
            qcodec::write_query(w, query);
        }
        for (query, stored_at) in &self.deferred {
            write_deferred(w, query, *stored_at);
        }
        for d in &self.deliveries {
            write_delivery(w, d);
        }
        for a in &self.answers {
            write_deferred_answer(w, "deferred-answer", "owner", a, |_| {});
        }
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
        MigrationPacket::read_sections(e.require_attr("entity")?.parse()?, e)
    }

    /// Reads the six sections back from the children of `e`, by name.
    pub(crate) fn read_sections(entity: Guid, e: &Element) -> SciResult<MigrationPacket> {
        fn all<T>(
            e: &Element,
            name: &str,
            read: impl Fn(&Element) -> SciResult<T>,
        ) -> SciResult<Vec<T>> {
            e.children_named(name).map(read).collect()
        }
        Ok(MigrationPacket {
            entity,
            profiles: all(e, "profile", qcodec::profile_from_element)?,
            advertisements: all(e, "advertisement", qcodec::advertisement_from_element)?,
            standing: all(e, "query", qcodec::query_from_element)?,
            deferred: all(e, "deferred", |d| {
                Ok((
                    qcodec::query_from_element(d.require_child("query")?)?,
                    VirtualTime::from_micros(parsed_attr(d, "stored-at-us")?),
                ))
            })?,
            deliveries: all(e, "delivery", delivery_from_element)?,
            answers: all(e, "deferred-answer", |a| {
                deferred_answer_from_element(a, "owner")
            })?,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_query::Mode;
    use sci_types::{
        ContextEvent, ContextType, ContextValue, EntityKind, PortSpec, QueryAnswer, VirtualDuration,
    };

    fn sample() -> MigrationPacket {
        let entity = Guid::from_u128(0xA11CE);
        let mut packet = MigrationPacket::new(entity);
        packet.profiles.push(
            Profile::builder(entity, EntityKind::Person, "alice")
                .output(PortSpec::new("presence", ContextType::Presence))
                .attribute("badge", ContextValue::text("blue"))
                .build(),
        );
        packet
            .advertisements
            .push(Advertisement::new(entity, "alice-calendar"));
        packet.standing.push(
            Query::builder(Guid::from_u128(0xDEED), entity)
                .info(ContextType::Presence)
                .mode(Mode::Subscribe)
                .build(),
        );
        packet.deferred.push((
            Query::builder(Guid::from_u128(0xDEFE), entity)
                .kind(EntityKind::Device)
                .after(VirtualDuration::from_secs(30))
                .mode(Mode::Profile)
                .build(),
            VirtualTime::from_secs(2),
        ));
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
        assert!(back.profiles.is_empty());
        assert!(back.advertisements.is_empty() && back.deliveries.is_empty());
        assert!(back.standing.is_empty() && back.deferred.is_empty());
        assert!(back.answers.is_empty());
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
        let deferred = sample().deferred[0].clone();
        let parked = |stored_at: Option<&str>, query: bool| {
            let mut d = Element::new("deferred");
            if let Some(at) = stored_at {
                d = d.with_attr("stored-at-us", at);
            }
            if query {
                d = d.with_child(parse(&qcodec::to_xml(&deferred.0)).unwrap());
            }
            Element::new("migration")
                .with_attr("entity", deferred.0.owner.to_string())
                .with_child(d)
        };
        assert!(MigrationPacket::from_element(&parked(Some("2000000"), true)).is_ok());
        for (doc, why) in [
            (parked(None, true), "deferred missing stored-at-us"),
            (
                parked(Some("soon"), true),
                "deferred with a bad stored-at-us",
            ),
            (parked(Some("2000000"), false), "deferred missing its query"),
        ] {
            assert!(MigrationPacket::from_element(&doc).is_err(), "{why}");
        }
    }

    /// Pins the `<migration>` vocabulary — element names, attribute
    /// names and section order — so it cannot drift unnoticed (the
    /// `<range-snapshot>` twin is in `durability.rs`).
    #[test]
    fn migration_document_is_pinned() {
        let entity = Guid::from_u128(0xA11CE);
        let query = Guid::from_u128(0xDEED);
        let mut packet = MigrationPacket::new(entity);
        packet
            .profiles
            .push(Profile::builder(entity, EntityKind::Person, "alice").build());
        packet
            .advertisements
            .push(Advertisement::new(entity, "calendar"));
        let q = Query::builder(query, entity)
            .kind(EntityKind::Device)
            .mode(Mode::Profile)
            .build();
        packet.standing.push(q.clone());
        packet.deferred.push((q, VirtualTime::from_secs(2)));
        packet.deliveries.push(AppDelivery {
            app: entity,
            query,
            event: ContextEvent::new(
                Guid::from_u128(7),
                ContextType::Presence,
                ContextValue::Int(1),
                VirtualTime::from_secs(3),
            ),
        });
        packet.answers.push((query, entity, QueryAnswer::Deferred));

        let q = qcodec::to_xml(&packet.standing[0]);
        let profile = document(|w| qcodec::write_profile(w, &packet.profiles[0]));
        let ad = document(|w| qcodec::write_advertisement(w, &packet.advertisements[0]));
        let event = document(|w| qcodec::write_event(w, &packet.deliveries[0].event));
        let expected = format!(
            "<migration entity=\"{entity}\">{profile}{ad}{q}\
             <deferred stored-at-us=\"2000000\">{q}</deferred>\
             <delivery app=\"{entity}\" query=\"{query}\">{event}</delivery>\
             <deferred-answer owner=\"{entity}\" query=\"{query}\">\
             <answer kind=\"deferred\"/></deferred-answer></migration>"
        );
        assert_eq!(packet.to_xml(), expected);
    }
}
