//! A minimal XML subset, hand-rolled for the Figure 6 query document.
//!
//! The paper serialises queries as a small XML document. Rather than pull
//! in an XML dependency, this module implements exactly the subset the
//! query codec needs: elements, string attributes, text content, the five
//! standard character entities, self-closing tags, comments and an
//! optional `<?xml …?>` declaration. It does **not** support namespaces,
//! DTDs, CDATA or processing instructions other than the declaration.

use std::fmt;

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

    /// Creates a leaf element holding text.
    pub fn text_node(name: impl Into<String>, text: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            text: text.into(),
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
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(v, out);
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        escape_into(&self.text, out);
        for child in &self.children {
            child.write(out);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

fn escape_into(s: &str, out: &mut String) {
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

    #[test]
    fn roundtrip_simple() {
        let doc = Element::new("query")
            .with_child(Element::text_node("query_id", "abc"))
            .with_child(Element::text_node("mode", "subscribe"));
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
        let doc = Element::text_node("t", "a < b & \"c\" > 'd'").with_attr("k", "<&>\"'");
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
