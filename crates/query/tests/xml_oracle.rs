//! The byte-scanning XML reader against the char-at-a-time reader it
//! replaced (`oracle/mod.rs`): the same `Element`, or a parse error
//! from both, on arbitrary text, on markup soups, on written documents
//! with every truncation and one-byte substitution, and at the nesting
//! limit. (`prop_codec.rs` runs the same check on query documents.)

mod oracle;

use proptest::prelude::*;
use sci_query::xml::Element;

/// Pieces of markup, well and badly formed: Unicode whitespace and name
/// characters, every entity and some that are not, comments, the
/// declaration, and close tags that match and that do not.
const PIECES: &[&str] = &[
    "<a",
    "<b",
    "<é",
    "<a:b.c_d-1",
    "</a>",
    "</b>",
    "</a",
    "</ a>",
    "</a >",
    ">",
    "/>",
    "/ >",
    " k=\"",
    " k = \"",
    "k2=\"",
    "\"",
    "'",
    "=",
    "&lt;",
    "&gt;",
    "&amp;",
    "&quot;",
    "&apos;",
    "&lt",
    "&;",
    "&bogus;",
    "&abcdefghij;",
    "&é;",
    "&",
    ";",
    "<!--",
    "-->",
    "<!-- c -->",
    "<!-->",
    "<?xml version=\"1.0\"?>",
    "<?",
    "?>",
    "<!DOCTYPE a>",
    "text",
    "é",
    "٣",
    "€",
    " ",
    "\n",
    "\t",
    "\u{b}",
    "\u{a0}",
    "\u{2003}",
    "\u{3000}",
    "\u{85}",
];

fn soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0..PIECES.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

fn arb_element() -> impl Strategy<Value = Element> {
    let text = "[<>&\"' aé€\u{a0}]{0,3}.{0,4}";
    let leaf = (
        "[a-zé٣][a-z0-9:._-]{0,5}",
        prop::collection::vec(("[a-z]{1,4}", text), 0..3),
    )
        .prop_map(|(name, attrs)| Element {
            attrs,
            ..Element::new(name)
        });
    leaf.prop_recursive(4, 24, 4, move |inner| {
        (inner.clone(), text, prop::collection::vec(inner, 0..4)).prop_map(|(e, text, children)| {
            Element {
                text,
                children,
                ..e
            }
        })
    })
}

/// `e` as a document with a declaration, comments and whitespace
/// around it.
fn dressed(e: &Element) -> String {
    format!(
        "<?xml version=\"1.0\"?>\n<!-- head -->\n{}\n<!-- tail --> ",
        e.to_xml()
    )
}

proptest! {
    #[test]
    fn arbitrary_text(s in ".{0,64}") {
        oracle::check(&s);
    }

    #[test]
    fn markup_soup(s in soup()) {
        oracle::check(&s);
    }

    #[test]
    fn a_root_around_a_soup(s in soup(), shift in any::<usize>()) {
        oracle::check_variants(&format!("<r k=\"v\">{s}</r>"), shift);
    }

    #[test]
    fn written_documents_and_their_variants(e in arb_element(), shift in any::<usize>()) {
        oracle::check_variants(&dressed(&e), shift);
    }
}

#[test]
fn the_nesting_limit_is_the_oracles() {
    for depth in [63, 64, 65] {
        let (open, close) = ("<a>".repeat(depth), "</a>".repeat(depth));
        oracle::check(&format!("{open}{close}"));
        oracle::check(&format!("{open}<b/>{close}"));
        oracle::check(&format!("{open}<b></b>{close}"));
        let parsed = sci_query::xml::parse(&format!("{open}{close}"));
        assert_eq!(parsed.is_ok(), depth <= 64, "depth {depth}");
    }
}
