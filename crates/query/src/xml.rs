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
//! [`Element`] is the tree [`parse`] reads one back into. The reader
//! scans the input's bytes: each name, attribute value and text run is
//! sliced out of the input and copied once, a closing tag is compared
//! as a slice, and a `char` is decoded only at a non-ASCII byte (names
//! and whitespace are Unicode's).

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
    // Room for a Figure 6 query (~360 bytes) without regrowing.
    let mut out = Vec::with_capacity(512);
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
    let mut s = Scanner {
        input,
        pos: 0,
        depth: 0,
        error: None,
    };
    s.document()
        .map_err(|Stop| s.error.take().expect("a stop records its error"))
}

/// Maximum element nesting the parser accepts; adversarial documents
/// deeper than this are rejected instead of risking stack exhaustion.
const MAX_NESTING: usize = 64;

/// A read that failed; the error is left in [`Scanner::error`]. (A
/// `SciError` is 48 bytes; a zero-sized error keeps every step's result
/// in registers.)
struct Stop;

type Scan<T> = Result<T, Stop>;

/// A cursor over the input's bytes. Every delimiter is ASCII, and no
/// byte of a multi-byte UTF-8 sequence is, so text runs are found by
/// byte and sliced out whole; a `char` is decoded only where a name or
/// whitespace test meets a non-ASCII byte. `pos` stays on a char
/// boundary.
struct Scanner<'a> {
    input: &'a str,
    pos: usize,
    depth: usize,
    /// What the last [`Stop`] stopped on.
    error: Option<SciError>,
}

impl<'a> Scanner<'a> {
    #[cold]
    fn fail(&mut self, error: SciError) -> Stop {
        self.error = Some(error);
        Stop
    }

    #[cold]
    fn err(&mut self, msg: &str) -> Stop {
        self.fail(SciError::Parse(format!("{msg} at byte {}", self.pos)))
    }

    fn document(&mut self) -> Scan<Element> {
        self.skip_prolog()?;
        let root = self.element()?;
        self.skip_whitespace_and_comments()?;
        if self.pos < self.input.len() {
            return Err(self.fail(SciError::Parse(
                "trailing content after root element".into(),
            )));
        }
        Ok(root)
    }

    fn rest(&self) -> &'a [u8] {
        &self.input.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    /// The char at the cursor, decoded only if it is not ASCII.
    fn peek_char(&self) -> Option<char> {
        match self.peek()? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.input[self.pos..].chars().next(),
        }
    }

    /// Moves past the chars `keep` accepts and returns them.
    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let start = self.pos;
        let bytes = self.input.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            let c = match b.is_ascii() {
                true => char::from(b),
                false => self.input[self.pos..].chars().next().unwrap_or_default(),
            };
            if !keep(c) {
                break;
            }
            self.pos += c.len_utf8();
        }
        &self.input[start..self.pos]
    }

    fn skip_whitespace(&mut self) {
        self.take_while(char::is_whitespace);
    }

    /// Moves past `prefix` if the input continues with it.
    fn eat(&mut self, prefix: &[u8]) -> bool {
        let found = self.rest().starts_with(prefix);
        if found {
            self.pos += prefix.len();
        }
        found
    }

    /// Moves past the first `end` at or after byte `from`.
    fn skip_past(&mut self, from: usize, end: &str, unterminated: &str) -> Scan<()> {
        match self.input[from..].find(end) {
            Some(at) => {
                self.pos = from + at + end.len();
                Ok(())
            }
            None => {
                self.pos = self.input.len();
                Err(self.err(unterminated))
            }
        }
    }

    fn skip_prolog(&mut self) -> Scan<()> {
        self.skip_whitespace_and_comments()?;
        if self.rest().starts_with(b"<?") {
            // `<?xml ... ?>`; the `?` of `<?` may be the one that ends it.
            self.skip_past(self.pos + 1, "?>", "unterminated xml declaration")?;
            self.skip_whitespace_and_comments()?;
        }
        Ok(())
    }

    fn skip_whitespace_and_comments(&mut self) -> Scan<()> {
        loop {
            self.skip_whitespace();
            if !self.rest().starts_with(b"<!--") {
                return Ok(());
            }
            self.skip_past(self.pos + 4, "-->", "unterminated comment")?;
        }
    }

    fn name(&mut self) -> Scan<&'a str> {
        let name = self.take_while(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'));
        if name.is_empty() {
            return Err(self.err("expected a name"));
        }
        Ok(name)
    }

    fn expect(&mut self, expected: u8) -> Scan<()> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            return Ok(());
        }
        let expected = char::from(expected);
        Err(match self.peek_char() {
            Some(c) => self.fail(SciError::Parse(format!(
                "expected `{expected}` but found `{c}` at byte {}",
                self.pos
            ))),
            None => self.fail(SciError::Parse(format!(
                "expected `{expected}` but input ended"
            ))),
        })
    }

    /// The character an entity stands for; its `&` is consumed.
    fn entity(&mut self) -> Scan<char> {
        const ENTITIES: [(&[u8], char); 5] = [
            (b"lt;", '<'),
            (b"gt;", '>'),
            (b"amp;", '&'),
            (b"quot;", '"'),
            (b"apos;", '\''),
        ];
        match ENTITIES.iter().find(|(name, _)| self.eat(name)) {
            Some(&(_, c)) => Ok(c),
            None => Err(self.err("unknown or unterminated entity")),
        }
    }

    /// Appends the text up to the next byte `stop` accepts (or the
    /// end) to `out`, and returns that byte.
    fn run_into(&mut self, out: &mut String, stop: impl Fn(u8) -> bool) -> Option<u8> {
        let start = self.pos;
        let rest = self.rest();
        self.pos += rest.iter().position(|&b| stop(b)).unwrap_or(rest.len());
        out.push_str(&self.input[start..self.pos]);
        self.peek()
    }

    fn element(&mut self) -> Scan<Element> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.fail(SciError::Parse(format!(
                "document nested deeper than {MAX_NESTING} elements"
            ))));
        }
        let element = self.element_inner();
        self.depth -= 1;
        element
    }

    fn element_inner(&mut self) -> Scan<Element> {
        self.expect(b'<')?;
        let mut element = Element::new(self.name()?);

        // Attributes.
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(element);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.name()?.to_owned();
                    self.skip_whitespace();
                    self.expect(b'=')?;
                    self.skip_whitespace();
                    self.expect(b'"')?;
                    let mut value = String::new();
                    loop {
                        match self.run_into(&mut value, |b| matches!(b, b'"' | b'&' | b'<')) {
                            Some(b'"') => {
                                self.pos += 1;
                                break;
                            }
                            Some(b'&') => {
                                self.pos += 1;
                                value.push(self.entity()?);
                            }
                            Some(_) => return Err(self.err("raw `<` in attribute value")),
                            None => return Err(self.err("unterminated attribute value")),
                        }
                    }
                    element.attrs.push((key, value));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }

        // Content. Whitespace after a comment is skipped with it.
        loop {
            match self.run_into(&mut element.text, |b| matches!(b, b'<' | b'&')) {
                Some(b'&') => {
                    self.pos += 1;
                    let c = self.entity()?;
                    element.text.push(c);
                }
                Some(_) if self.rest().starts_with(b"<!--") => {
                    self.skip_whitespace_and_comments()?;
                }
                Some(_) if self.eat(b"</") => {
                    let close = self.name()?;
                    if close != element.name {
                        return Err(self.fail(SciError::Parse(format!(
                            "mismatched closing tag: expected </{}>, found </{close}>",
                            element.name
                        ))));
                    }
                    self.skip_whitespace();
                    self.expect(b'>')?;
                    return Ok(element);
                }
                Some(_) => {
                    let child = self.element()?;
                    element.children.push(child);
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
