//! A minimal XML subset, hand-rolled for the Figure 6 query document.
//!
//! The paper serialises queries as a small XML document. Rather than pull
//! in an XML dependency, this module implements exactly the subset the
//! query codec needs: elements, string attributes, text content, the five
//! standard character entities, self-closing tags, comments and an
//! optional `<?xml …?>` declaration. It does **not** support namespaces,
//! DTDs, CDATA or processing instructions other than the declaration.
//!
//! Documents are written by [`XmlWriter`] straight into a byte buffer;
//! [`Element`] is the tree [`parse`] reads one back into.

use std::fmt::{self, Write as _};

use sci_types::{SciError, SciResult};

/// An XML element: name, attributes, child elements and text content.
///
/// Mixed content is flattened: all text segments directly inside the
/// element are concatenated into [`Element::text`], preserving order
/// among themselves but not relative to child elements. The query codec
/// never relies on mixed content.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<Element>,
    /// Concatenated text content.
    pub text: String,
}

impl Element {
    /// Creates an empty element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            ..Element::default()
        }
    }

    /// Adds an attribute (builder style).
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((key.into(), value.into()));
        self
    }

    /// Adds a child element (builder style).
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(child);
        self
    }

    /// Looks up an attribute by name.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up an attribute by name or errors.
    pub fn require_attr(&self, key: &str) -> SciResult<&str> {
        self.attr(key)
            .ok_or_else(|| SciError::Codec(format!("<{}> missing `{key}`", self.name)))
    }

    /// Finds the first child with the given tag name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Finds the first child with the given tag name or errors.
    pub fn require_child(&self, name: &str) -> SciResult<&Element> {
        self.child(name).ok_or_else(|| {
            SciError::Parse(format!("element <{}> missing child <{name}>", self.name))
        })
    }

    /// Iterates over children with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// The trimmed text content.
    pub fn trimmed_text(&self) -> &str {
        self.text.trim()
    }

    /// Serialises the element (no declaration, no pretty-printing).
    pub fn to_xml(&self) -> String {
        document(|w| self.write(w))
    }

    /// Writes the element: its attributes, then its text, then its
    /// children.
    fn write(&self, w: &mut XmlWriter<'_>) {
        w.element(&self.name, |w| {
            for (k, v) in &self.attrs {
                w.attr(k, v);
            }
            w.text(&self.text);
            for child in &self.children {
                child.write(w);
            }
        });
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

/// Writes a document straight into a byte buffer — the one serialiser
/// behind every document the workspace emits, [`Element::to_xml`]
/// included, so a document written here is byte for byte the one a
/// tree of the same elements serialises to, without the tree.
///
/// [`XmlWriter::element`] opens an element; its body writes the
/// attributes first, then text or child elements. The start tag closes
/// as `/>` when the body wrote neither. Attribute values and text are
/// escaped with the five standard entities.
pub struct XmlWriter<'a> {
    out: &'a mut Vec<u8>,
    /// A start tag is open: `<name attr…` is written, its `>` is not.
    open: bool,
}

impl<'a> XmlWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        XmlWriter { out, open: false }
    }

    /// Writes one element: its start tag, what `body` writes, its end.
    pub fn element(&mut self, name: &str, body: impl FnOnce(&mut Self)) {
        self.close_start();
        self.out.push(b'<');
        self.out.extend_from_slice(name.as_bytes());
        self.open = true;
        body(self);
        if std::mem::take(&mut self.open) {
            self.out.extend_from_slice(b"/>");
        } else {
            self.out.extend_from_slice(b"</");
            self.out.extend_from_slice(name.as_bytes());
            self.out.push(b'>');
        }
    }

    /// Writes an attribute of the element being opened: before any
    /// text or child.
    pub fn attr(&mut self, key: &str, value: impl fmt::Display) {
        debug_assert!(self.open, "attribute `{key}` written after content");
        self.out.push(b' ');
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"=\"");
        let _ = write!(Escaped(self.out), "{value}");
        self.out.push(b'"');
    }

    /// Writes text content; empty text leaves an element empty.
    pub fn text(&mut self, text: impl fmt::Display) {
        let _ = write!(Text(self), "{text}");
    }

    /// Writes `<name>text</name>`, or `<name/>` for empty text.
    pub fn leaf(&mut self, name: &str, text: impl fmt::Display) {
        self.element(name, |w| w.text(text));
    }

    /// Writes `xml` as the next child as it is: an element this
    /// writer's rules wrote, which is what parsing and re-serialising
    /// it would write too.
    pub fn raw(&mut self, xml: &str) {
        self.close_start();
        self.out.extend_from_slice(xml.as_bytes());
    }

    fn close_start(&mut self) {
        if std::mem::take(&mut self.open) {
            self.out.push(b'>');
        }
    }
}

/// The document `write` writes, as a string. (A writer only appends
/// whole `&str`s, so the bytes are UTF-8.)
pub fn document(write: impl FnOnce(&mut XmlWriter<'_>)) -> String {
    let mut out = Vec::new();
    write(&mut XmlWriter::new(&mut out));
    String::from_utf8(out).expect("an XmlWriter appends whole UTF-8 strings")
}

/// Escapes into the buffer, for attribute values.
struct Escaped<'b>(&'b mut Vec<u8>);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(s, self.0);
        Ok(())
    }
}

/// Escapes into the writer, closing an open start tag before the first
/// character of text.
struct Text<'w, 'a>(&'w mut XmlWriter<'a>);

impl fmt::Write for Text<'_, '_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if !s.is_empty() {
            self.0.close_start();
            escape_into(s, self.0.out);
        }
        Ok(())
    }
}

/// Appends `s` with `<`, `>`, `&`, `"` and `'` as entities. They are
/// ASCII, so runs of other bytes — whole UTF-8 sequences — are copied
/// as they are.
fn escape_into(s: &str, out: &mut Vec<u8>) {
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, b) in bytes.iter().enumerate() {
        let entity: &[u8] = match b {
            b'<' => b"&lt;",
            b'>' => b"&gt;",
            b'&' => b"&amp;",
            b'"' => b"&quot;",
            b'\'' => b"&apos;",
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(entity);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
}

/// Parses a document containing exactly one root element.
///
/// # Errors
///
/// Returns [`SciError::Parse`] on malformed input: unbalanced tags,
/// unterminated strings, unknown entities, or trailing garbage.
pub fn parse(input: &str) -> SciResult<Element> {
    let mut p = Parser {
        chars: input.char_indices().peekable(),
        input,
        depth: 0,
    };
    p.skip_prolog()?;
    let root = p.parse_element()?;
    p.skip_whitespace_and_comments()?;
    if p.chars.peek().is_some() {
        return Err(SciError::Parse(
            "trailing content after root element".into(),
        ));
    }
    Ok(root)
}

/// Maximum element nesting the parser accepts; adversarial documents
/// deeper than this are rejected instead of risking stack exhaustion.
const MAX_NESTING: usize = 64;

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    input: &'a str,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&mut self, msg: &str) -> SciError {
        let pos = self
            .chars
            .peek()
            .map(|(i, _)| *i)
            .unwrap_or(self.input.len());
        SciError::Parse(format!("{msg} at byte {pos}"))
    }

    fn skip_prolog(&mut self) -> SciResult<()> {
        self.skip_whitespace_and_comments()?;
        if self.input_starts_at("<?") {
            // Skip `<?xml ... ?>`.
            loop {
                match self.chars.next() {
                    Some((_, '?')) => {
                        if matches!(self.chars.peek(), Some((_, '>'))) {
                            self.chars.next();
                            break;
                        }
                    }
                    Some(_) => {}
                    None => return Err(self.err("unterminated xml declaration")),
                }
            }
            self.skip_whitespace_and_comments()?;
        }
        Ok(())
    }

    fn input_starts_at(&mut self, prefix: &str) -> bool {
        match self.chars.peek() {
            Some((i, _)) => self.input[*i..].starts_with(prefix),
            None => false,
        }
    }

    fn skip_whitespace_and_comments(&mut self) -> SciResult<()> {
        loop {
            while matches!(self.chars.peek(), Some((_, c)) if c.is_whitespace()) {
                self.chars.next();
            }
            if self.input_starts_at("<!--") {
                for _ in 0..4 {
                    self.chars.next();
                }
                loop {
                    if self.input_starts_at("-->") {
                        for _ in 0..3 {
                            self.chars.next();
                        }
                        break;
                    }
                    if self.chars.next().is_none() {
                        return Err(self.err("unterminated comment"));
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_name(&mut self) -> SciResult<String> {
        let mut name = String::new();
        while let Some((_, c)) = self.chars.peek() {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') {
                name.push(*c);
                self.chars.next();
            } else {
                break;
            }
        }
        if name.is_empty() {
            return Err(self.err("expected a name"));
        }
        Ok(name)
    }

    fn expect(&mut self, expected: char) -> SciResult<()> {
        match self.chars.next() {
            Some((_, c)) if c == expected => Ok(()),
            Some((i, c)) => Err(SciError::Parse(format!(
                "expected `{expected}` but found `{c}` at byte {i}"
            ))),
            None => Err(SciError::Parse(format!(
                "expected `{expected}` but input ended"
            ))),
        }
    }

    fn parse_entity(&mut self) -> SciResult<char> {
        // The leading '&' has been consumed.
        let mut name = String::new();
        loop {
            match self.chars.next() {
                Some((_, ';')) => break,
                Some((_, c)) if name.len() < 8 => name.push(c),
                _ => return Err(self.err("unterminated entity")),
            }
        }
        match name.as_str() {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "quot" => Ok('"'),
            "apos" => Ok('\''),
            other => Err(SciError::Parse(format!("unknown entity `&{other};`"))),
        }
    }

    fn parse_attr_value(&mut self) -> SciResult<String> {
        self.expect('"')?;
        let mut value = String::new();
        loop {
            match self.chars.next() {
                Some((_, '"')) => return Ok(value),
                Some((_, '&')) => value.push(self.parse_entity()?),
                Some((_, '<')) => return Err(self.err("raw `<` in attribute value")),
                Some((_, c)) => value.push(c),
                None => return Err(self.err("unterminated attribute value")),
            }
        }
    }

    fn parse_element(&mut self) -> SciResult<Element> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(SciError::Parse(format!(
                "document nested deeper than {MAX_NESTING} elements"
            )));
        }
        let element = self.parse_element_inner();
        self.depth -= 1;
        element
    }

    fn parse_element_inner(&mut self) -> SciResult<Element> {
        self.expect('<')?;
        let name = self.parse_name()?;
        let mut element = Element::new(name);

        // Attributes.
        loop {
            while matches!(self.chars.peek(), Some((_, c)) if c.is_whitespace()) {
                self.chars.next();
            }
            match self.chars.peek() {
                Some((_, '/')) => {
                    self.chars.next();
                    self.expect('>')?;
                    return Ok(element);
                }
                Some((_, '>')) => {
                    self.chars.next();
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    while matches!(self.chars.peek(), Some((_, c)) if c.is_whitespace()) {
                        self.chars.next();
                    }
                    self.expect('=')?;
                    while matches!(self.chars.peek(), Some((_, c)) if c.is_whitespace()) {
                        self.chars.next();
                    }
                    let value = self.parse_attr_value()?;
                    element.attrs.push((key, value));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }

        // Content.
        loop {
            if self.input_starts_at("<!--") {
                self.skip_whitespace_and_comments()?;
                continue;
            }
            if self.input_starts_at("</") {
                self.chars.next();
                self.chars.next();
                let close = self.parse_name()?;
                if close != element.name {
                    return Err(SciError::Parse(format!(
                        "mismatched closing tag: expected </{}>, found </{close}>",
                        element.name
                    )));
                }
                while matches!(self.chars.peek(), Some((_, c)) if c.is_whitespace()) {
                    self.chars.next();
                }
                self.expect('>')?;
                return Ok(element);
            }
            match self.chars.peek() {
                Some((_, '<')) => {
                    let child = self.parse_element()?;
                    element.children.push(child);
                }
                Some((_, '&')) => {
                    self.chars.next();
                    let c = self.parse_entity()?;
                    element.text.push(c);
                }
                Some((_, c)) => {
                    element.text.push(*c);
                    self.chars.next();
                }
                None => return Err(self.err("unterminated element content")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_simple() {
        let doc = Element::new("query")
            .with_child(Element {
                text: "abc".into(),
                ..Element::new("query_id")
            })
            .with_child(Element {
                text: "subscribe".into(),
                ..Element::new("mode")
            });
        let xml = doc.to_xml();
        assert_eq!(parse(&xml).unwrap(), doc);
    }

    #[test]
    fn attributes_and_self_closing() {
        let xml = r#"<what><info type="location"/><pred attr="unit" op="eq">celsius</pred></what>"#;
        let e = parse(xml).unwrap();
        assert_eq!(e.name, "what");
        assert_eq!(e.children.len(), 2);
        assert_eq!(e.children[0].attr("type"), Some("location"));
        assert_eq!(e.children[1].trimmed_text(), "celsius");
    }

    #[test]
    fn escaping_roundtrip() {
        let doc = Element {
            text: "a < b & \"c\" > 'd'".into(),
            ..Element::new("t")
        }
        .with_attr("k", "<&>\"'");
        let parsed = parse(&doc.to_xml()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn declaration_comments_whitespace() {
        let xml = "<?xml version=\"1.0\"?>\n<!-- a comment -->\n<root>\n  <!-- inner -->\n  <leaf/>\n</root>\n";
        let e = parse(xml).unwrap();
        assert_eq!(e.name, "root");
        assert_eq!(e.children.len(), 1);
        assert_eq!(e.trimmed_text(), "");
    }

    #[test]
    fn error_cases() {
        assert!(parse("<a><b></a></b>").is_err(), "mismatched tags");
        assert!(parse("<a>").is_err(), "unterminated element");
        assert!(parse("<a/><b/>").is_err(), "two roots");
        assert!(parse("<a attr=\"x>text</a>").is_err(), "unterminated attr");
        assert!(parse("<a>&unknown;</a>").is_err(), "unknown entity");
        assert!(parse("").is_err(), "empty input");
    }

    #[test]
    fn adversarial_nesting_is_rejected_not_overflowed() {
        let deep = "<a>".repeat(100_000) + &"</a>".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nested deeper"));
        // Nesting at the limit still parses.
        let ok = "<a>".repeat(60) + &"</a>".repeat(60);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn single_quoted_attributes_are_rejected() {
        // The subset is deliberate: attributes use double quotes only.
        assert!(parse("<a k='v'/>").is_err());
    }

    /// The serialiser the writer replaced, kept as the oracle: a tree
    /// written attributes, text, children.
    fn tree_xml(e: &Element, out: &mut String) {
        fn escaped(s: &str, out: &mut String) {
            for c in s.chars() {
                match c {
                    '<' => out.push_str("&lt;"),
                    '>' => out.push_str("&gt;"),
                    '&' => out.push_str("&amp;"),
                    '"' => out.push_str("&quot;"),
                    '\'' => out.push_str("&apos;"),
                    other => out.push(other),
                }
            }
        }
        out.push('<');
        out.push_str(&e.name);
        for (k, v) in &e.attrs {
            out.push_str(&format!(" {k}=\""));
            escaped(v, out);
            out.push('"');
        }
        if e.children.is_empty() && e.text.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        escaped(&e.text, out);
        for child in &e.children {
            tree_xml(child, out);
        }
        out.push_str(&format!("</{}>", e.name));
    }

    fn arb_element() -> impl Strategy<Value = Element> {
        let text = "[<>&\"' aé€]{0,3}.{0,4}";
        let leaf = (
            "[a-z][a-z0-9-]{0,5}",
            prop::collection::vec(("[a-z]{1,4}", text), 0..3),
        )
            .prop_map(|(name, attrs)| Element {
                attrs,
                ..Element::new(name)
            });
        leaf.prop_recursive(4, 24, 4, move |inner| {
            (inner.clone(), text, prop::collection::vec(inner, 0..4)).prop_map(
                |(e, text, children)| Element {
                    text,
                    children,
                    ..e
                },
            )
        })
    }

    proptest! {
        /// The writer writes what the tree serialiser wrote, byte for
        /// byte — markup in attributes and text, multi-byte characters,
        /// empty text and empty elements included — and what it writes
        /// parses back to the same tree wherever the tree has no mixed
        /// content.
        #[test]
        fn writer_bytes_equal_the_tree_serialiser(e in arb_element()) {
            let mut expected = String::new();
            tree_xml(&e, &mut expected);
            let written = e.to_xml();
            prop_assert_eq!(&written, &expected);
            let back = parse(&written).unwrap();
            prop_assert_eq!(back.to_xml(), written);
        }
    }

    #[test]
    fn writer_closes_empty_elements_and_embeds_raw_children() {
        let xml = document(|w| {
            w.element("a", |w| {
                w.attr("k", "<&>\"'");
                w.attr("n", 42);
                w.leaf("empty", "");
                w.leaf("t", 'x');
                w.raw("<r/>");
                w.element("e", |w| w.text(""));
            })
        });
        assert_eq!(
            xml,
            "<a k=\"&lt;&amp;&gt;&quot;&apos;\" n=\"42\"><empty/><t>x</t><r/><e/></a>"
        );
        assert_eq!(
            document(|w| w.leaf("solo", "é & ü")),
            "<solo>é &amp; ü</solo>"
        );
    }

    #[test]
    fn nested_lookup_helpers() {
        let e = parse("<q><where><place>L10.01</place></where></q>").unwrap();
        let place = e
            .require_child("where")
            .unwrap()
            .require_child("place")
            .unwrap();
        assert_eq!(place.trimmed_text(), "L10.01");
        assert!(e.require_child("missing").is_err());
        assert_eq!(e.children_named("where").count(), 1);
        let q = parse("<q id=\"7\"/>").unwrap();
        assert_eq!(q.require_attr("id").unwrap(), "7");
        let err = q.require_attr("owner").unwrap_err();
        assert_eq!(err, SciError::Codec("<q> missing `owner`".into()));
    }
}
