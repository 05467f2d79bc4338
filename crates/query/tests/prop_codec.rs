//! Property tests: the query XML codec is a bijection over the AST.

mod oracle;

use proptest::prelude::*;
use sci_query::codec::{from_xml, to_xml};
use sci_query::{CmpOp, Mode, Predicate, Query, Subject, What, When, Where, Which};
use sci_types::{ContextType, ContextValue, Coord, Guid, VirtualDuration, VirtualTime};

fn arb_guid() -> impl Strategy<Value = Guid> {
    any::<u128>().prop_map(Guid::from_u128)
}

fn arb_subject() -> impl Strategy<Value = Subject> {
    prop_oneof![Just(Subject::Owner), arb_guid().prop_map(Subject::Entity)]
}

fn arb_context_type() -> impl Strategy<Value = ContextType> {
    prop_oneof![
        Just(ContextType::Identity),
        Just(ContextType::Presence),
        Just(ContextType::Location),
        Just(ContextType::Path),
        Just(ContextType::Temperature),
        Just(ContextType::PrinterStatus),
        "[a-z][a-z0-9-]{0,12}".prop_map(ContextType::Custom),
    ]
}

fn arb_value() -> impl Strategy<Value = ContextValue> {
    let leaf = prop_oneof![
        Just(ContextValue::Empty),
        any::<bool>().prop_map(ContextValue::Bool),
        any::<i64>().prop_map(ContextValue::Int),
        // Finite floats only: NaN breaks PartialEq-based comparison.
        (-1.0e12f64..1.0e12).prop_map(ContextValue::Float),
        ".{0,24}".prop_map(ContextValue::Text),
        arb_guid().prop_map(ContextValue::Id),
        ((-1.0e6f64..1.0e6), (-1.0e6f64..1.0e6))
            .prop_map(|(x, y)| ContextValue::Coord(Coord::new(x, y))),
        ".{0,16}".prop_map(ContextValue::Place),
        any::<u64>().prop_map(|us| ContextValue::Time(VirtualTime::from_micros(us))),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(ContextValue::List),
            prop::collection::vec(("[a-z]{1,8}", inner), 0..4)
                .prop_map(|fields| { ContextValue::Record(fields.into_iter().collect()) }),
        ]
    })
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    (
        "[a-z][a-z0-9_-]{0,10}",
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
            Just(CmpOp::Contains),
        ],
        arb_value(),
    )
        .prop_map(|(attr, op, value)| Predicate { attr, op, value })
        .boxed()
        .prop_union("[a-z][a-z0-9_-]{0,10}".prop_map(Predicate::exists).boxed())
}

fn arb_what() -> impl Strategy<Value = What> {
    prop_oneof![
        prop_oneof![
            Just(sci_types::EntityKind::Person),
            Just(sci_types::EntityKind::Software),
            Just(sci_types::EntityKind::Place),
            Just(sci_types::EntityKind::Device),
            Just(sci_types::EntityKind::Artifact),
        ]
        .prop_map(What::Kind),
        arb_guid().prop_map(What::Named),
        (
            arb_context_type(),
            prop::collection::vec(arb_predicate(), 0..3)
        )
            .prop_map(|(ty, constraints)| What::Information { ty, constraints }),
    ]
}

fn arb_where() -> impl Strategy<Value = Where> {
    prop_oneof![
        Just(Where::Anywhere),
        // Interior spaces are fine ("Room 10.01"); leading/trailing
        // whitespace is normalised away by the codec, so keep the
        // generator trim-stable.
        "[A-Za-z0-9.]([A-Za-z0-9 .]{0,14}[A-Za-z0-9.])?".prop_map(Where::Place),
        "[a-z-]{1,16}".prop_map(Where::Range),
        arb_subject().prop_map(Where::ClosestTo),
        (arb_subject(), 0.0f64..500.0)
            .prop_map(|(center, radius_m)| Where::Within { center, radius_m }),
    ]
}

fn arb_when() -> impl Strategy<Value = When> {
    prop_oneof![
        Just(When::Immediate),
        any::<u64>().prop_map(|us| When::At(VirtualTime::from_micros(us))),
        any::<u64>().prop_map(|us| When::After(VirtualDuration::from_micros(us))),
        (arb_subject(), "[A-Za-z0-9.]{1,12}")
            .prop_map(|(entity, place)| When::OnEnter { entity, place }),
        (arb_subject(), "[A-Za-z0-9.]{1,12}")
            .prop_map(|(entity, place)| When::OnLeave { entity, place }),
    ]
}

fn arb_which() -> impl Strategy<Value = Which> {
    let leaf = prop_oneof![
        Just(Which::Any),
        Just(Which::All),
        Just(Which::Closest),
        "[a-z]{1,10}".prop_map(Which::MinAttr),
        "[a-z]{1,10}".prop_map(Which::MaxAttr),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        (prop::collection::vec(arb_predicate(), 1..3), inner).prop_map(|(predicates, then)| {
            Which::Filtered {
                predicates,
                then: Box::new(then),
            }
        })
    })
}

fn arb_mode() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::Profile),
        Just(Mode::Subscribe),
        Just(Mode::SubscribeOnce),
        Just(Mode::Advertisement),
    ]
}

prop_compose! {
    fn arb_query()(
        id in arb_guid(),
        owner in arb_guid(),
        what in arb_what(),
        where_ in arb_where(),
        when in arb_when(),
        which in arb_which(),
        mode in arb_mode(),
    ) -> Query {
        Query { id, owner, what, where_, when, which, mode }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every query survives a serialise → parse round trip unchanged.
    #[test]
    fn codec_roundtrip(q in arb_query()) {
        let xml = to_xml(&q);
        let back = from_xml(&xml).unwrap();
        prop_assert_eq!(back, q);
    }

    /// Serialised queries always carry the five Figure 6 sections.
    #[test]
    fn serialised_form_has_all_sections(q in arb_query()) {
        let xml = to_xml(&q);
        for section in ["query_id", "owner_id", "what", "where", "when", "which", "mode"] {
            prop_assert!(xml.contains(&format!("<{section}")), "missing <{}> in {}", section, xml);
        }
    }

    /// Parsing arbitrary junk never panics.
    #[test]
    fn parser_never_panics(s in ".{0,200}") {
        let _ = from_xml(&s);
    }
}

proptest! {
    // Each case parses a document some 2 000 times.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The XML reader reads every query document, each truncation and
    /// each one-byte substitution of it as the reader it replaced did.
    #[test]
    fn xml_reader_agrees_with_its_oracle(q in arb_query(), shift in any::<usize>()) {
        oracle::check_variants(&to_xml(&q), shift);
    }
}
