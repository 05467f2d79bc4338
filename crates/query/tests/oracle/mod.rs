//! The XML reader `sci_query::xml::parse` replaced — a `Peekable`
//! over `CharIndices`, one `String::push` per character — kept as the
//! oracle the byte scanner is checked against: both must return the
//! same `Element`, or both fail.

use sci_query::xml::Element;
use sci_types::{SciError, SciResult};

/// Checks that the scanner and the oracle agree on `doc`, on every
/// truncation of it at a char boundary, and on every substitution of
/// one byte: the byte at `i` becomes `SUBSTITUTES[(i + shift) % len]`
/// wherever the result is still UTF-8. Over many `shift`s every
/// (position, byte) pair comes up.
pub fn check_variants(doc: &str, shift: usize) {
    check(doc);
    for end in (0..doc.len()).filter(|&end| doc.is_char_boundary(end)) {
        check(&doc[..end]);
    }
    let mut bytes = doc.as_bytes().to_vec();
    for i in 0..bytes.len() {
        let was = bytes[i];
        bytes[i] = SUBSTITUTES[(i + shift) % SUBSTITUTES.len()];
        if let Ok(variant) = std::str::from_utf8(&bytes) {
            check(variant);
        }
        bytes[i] = was;
    }
}

/// Bytes a substitution writes: every delimiter the reader knows, a
/// name byte, ASCII whitespace (`\x0b` is Unicode whitespace but not
/// `u8::is_ascii_whitespace`), and a UTF-8 lead byte.
pub const SUBSTITUTES: &[u8] = b"<>/&;=\"'!?- \t\x0ba.:_0\xc3";

/// The scanner and the oracle return the same tree, or both fail.
pub fn check(doc: &str) {
    match (sci_query::xml::parse(doc), parse(doc)) {
        (Ok(new), Ok(old)) => assert_eq!(new, old, "different trees for {doc:?}"),
        (Err(SciError::Parse(_)), Err(SciError::Parse(_))) => {}
        (new, old) => panic!("{doc:?}: the scanner read {new:?}, the oracle {old:?}"),
    }
}

/// Parses a document containing exactly one root element, a `char` at
/// a time.
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
