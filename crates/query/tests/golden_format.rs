//! Golden tests: the serialised forms are stable. Inter-range
//! communication depends on every Context Server producing and parsing
//! the same documents, so any change to these strings is a wire-format
//! break and must be deliberate.

use sci_query::codec::{event_to_element, from_xml, to_xml, write_profile};
use sci_query::xml::document;
use sci_query::{CmpOp, Mode, Predicate, Query, Subject, What, When, Where, Which};
use sci_types::{
    ContextEvent, ContextType, ContextValue, EntityKind, EventSeq, Guid, PortSpec, Profile,
    VirtualTime,
};

fn capa_query() -> Query {
    Query {
        id: Guid::from_u128(0x1111),
        owner: Guid::from_u128(0x2222),
        what: What::Kind(EntityKind::Device),
        where_: Where::ClosestTo(Subject::Entity(Guid::from_u128(0xb0b))),
        when: When::OnEnter {
            entity: Subject::Entity(Guid::from_u128(0xb0b)),
            place: "L10.01".into(),
        },
        which: Which::Filtered {
            predicates: vec![
                Predicate::eq("service", ContextValue::text("printing")),
                Predicate::new("queue", CmpOp::Le, ContextValue::Int(0)),
            ],
            then: Box::new(Which::Closest),
        },
        mode: Mode::Advertisement,
    }
}

#[test]
fn query_document_is_stable() {
    let expected = concat!(
        "<query>",
        "<query_id>00000000-0000-0000-0000-000000001111</query_id>",
        "<owner_id>00000000-0000-0000-0000-000000002222</owner_id>",
        "<what><kind>device</kind></what>",
        "<where><closest-to>00000000-0000-0000-0000-000000000b0b</closest-to></where>",
        "<when><on-enter entity=\"00000000-0000-0000-0000-000000000b0b\">",
        "<place>L10.01</place></on-enter></when>",
        "<which><filter>",
        "<pred attr=\"service\" op=\"eq\"><value kind=\"text\">printing</value></pred>",
        "<pred attr=\"queue\" op=\"le\"><value kind=\"int\">0</value></pred>",
        "<then><closest/></then>",
        "</filter></which>",
        "<mode>advertisement</mode>",
        "</query>",
    );
    assert_eq!(to_xml(&capa_query()), expected);
    // And a historical document parses back to the same AST.
    assert_eq!(from_xml(expected).unwrap(), capa_query());
}

#[test]
fn profile_document_is_stable() {
    let p = Profile::builder(Guid::from_u128(0x100), EntityKind::Software, "pathCE")
        .input(PortSpec::new("from", ContextType::Location))
        .input(PortSpec::new("to", ContextType::Location))
        .output(PortSpec::new("path", ContextType::Path))
        .attribute("version", ContextValue::Int(1))
        .build();
    let expected = concat!(
        "<profile id=\"00000000-0000-0000-0000-000000000100\" ",
        "kind=\"software\" name=\"pathCE\">",
        "<input name=\"from\" type=\"location\"/>",
        "<input name=\"to\" type=\"location\"/>",
        "<output name=\"path\" type=\"path\"/>",
        "<attr name=\"version\"><value kind=\"int\">1</value></attr>",
        "</profile>",
    );
    assert_eq!(document(|w| write_profile(w, &p)), expected);
}

#[test]
fn event_document_is_stable() {
    let ev = ContextEvent::new(
        Guid::from_u128(0xd00d),
        ContextType::Presence,
        ContextValue::record([
            ("subject", ContextValue::Id(Guid::from_u128(0xb0b))),
            ("to", ContextValue::place("L10.01")),
        ]),
        VirtualTime::from_secs(12),
    )
    .with_seq(EventSeq(7));
    let expected = concat!(
        "<event source=\"00000000-0000-0000-0000-00000000d00d\" ",
        "type=\"presence\" us=\"12000000\" seq=\"7\">",
        "<value kind=\"record\">",
        "<field name=\"subject\">",
        "<value kind=\"id\">00000000-0000-0000-0000-000000000b0b</value></field>",
        "<field name=\"to\"><value kind=\"place\">L10.01</value></field>",
        "</value></event>",
    );
    assert_eq!(event_to_element(&ev).to_xml(), expected);
}
