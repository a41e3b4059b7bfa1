//! A small hand-rolled XML parser.
//!
//! The workspace never depends on an external XML library; this parser covers
//! exactly the subset of XML needed by the paper's data model (§2): nested
//! elements and text nodes. Attributes are accepted and ignored (the paper's
//! core model has no attributes; §7 notes the extension is routine),
//! comments and processing instructions are skipped, and a handful of
//! standard entities are decoded.

use crate::decode::{attribute_children, is_name_byte};
use crate::node::NodeId;
use crate::store::Store;
use crate::tree::Tree;
use std::fmt;

pub use crate::decode::decode_entities;

/// An error produced while parsing an XML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset in the input at which the problem was detected.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// The error message of a document with more distinct tag names (attribute
/// names included, when kept) than a [`crate::SymbolTable`] can hold.
pub(crate) const TOO_MANY_NAMES: &str = "more than 65535 distinct tag names";

/// Parses an XML document into a [`Tree`], ignoring attributes (the paper's
/// core data model has no attributes).
pub fn parse_xml(input: &str) -> Result<Tree, ParseError> {
    parse_with(input, false)
}

/// Parses an XML document into a [`Tree`], keeping attributes.
///
/// Attributes are encoded in the paper's element-only data model as leading
/// children tagged `@name` whose content is the attribute value as a text
/// node (empty values produce an empty `@name` element). This is the
/// encoding the §7 attribute extension relies on: the `attribute` axis then
/// behaves exactly like a `child::@name` step, and chain inference needs no
/// new rules. [`crate::serializer::serialize_tree_with_attributes`] undoes
/// the encoding.
pub fn parse_xml_keep_attributes(input: &str) -> Result<Tree, ParseError> {
    parse_with(input, true)
}

fn parse_with(input: &str, keep_attributes: bool) -> Result<Tree, ParseError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        store: Store::new(),
        keep_attributes,
    };
    parser.skip_prolog();
    let root = parser.parse_element()?;
    parser.skip_misc();
    if parser.pos < parser.bytes.len() {
        return Err(parser.error("trailing content after document element"));
    }
    parser.store.compact();
    Ok(Tree::new(parser.store, root))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    store: Store,
    keep_attributes: bool,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> ParseError {
        ParseError {
            message: msg.to_string(),
            position: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_until(&mut self, end: &str) {
        if let Some(i) = find(&self.bytes[self.pos..], end.as_bytes()) {
            self.pos += i + end.len();
        } else {
            self.pos = self.bytes.len();
        }
    }

    /// Skips the XML declaration, doctype, comments and whitespace before the
    /// document element.
    fn skip_prolog(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>");
            } else if self.starts_with("<!--") {
                self.skip_until("-->");
            } else if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
                // Skip a possibly bracketed internal subset.
                let mut depth = 0usize;
                while let Some(b) = self.peek() {
                    self.pos += 1;
                    match b {
                        b'[' => depth += 1,
                        b']' => depth = depth.saturating_sub(1),
                        b'>' if depth == 0 => break,
                        _ => {}
                    }
                }
            } else {
                break;
            }
        }
    }

    /// Skips comments and whitespace after the document element.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_until("-->");
            } else if self.starts_with("<?") {
                self.skip_until("?>");
            } else {
                break;
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if is_name_byte(b) {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    /// Consumes attributes up to (but not including) `>` or `/>`, returning
    /// the name/value pairs in document order.
    fn parse_attributes(&mut self) -> Result<Vec<(String, String)>, ParseError> {
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') | None => return Ok(attrs),
                _ => {
                    // name = "value" | name = 'value'
                    let name = self.parse_name()?;
                    self.skip_ws();
                    let mut value = String::new();
                    if self.peek() == Some(b'=') {
                        self.pos += 1;
                        self.skip_ws();
                        match self.peek() {
                            Some(q @ (b'"' | b'\'')) => {
                                self.pos += 1;
                                let start = self.pos;
                                while let Some(b) = self.peek() {
                                    self.pos += 1;
                                    if b == q {
                                        break;
                                    }
                                }
                                let end = self.pos.saturating_sub(1).max(start);
                                value =
                                    String::from_utf8_lossy(&self.bytes[start..end]).into_owned();
                            }
                            _ => return Err(self.error("expected quoted attribute value")),
                        }
                    }
                    attrs.push((name, decode_entities(&value)));
                }
            }
        }
    }

    fn parse_element(&mut self) -> Result<NodeId, ParseError> {
        self.skip_ws();
        if self.peek() != Some(b'<') {
            return Err(self.error("expected '<'"));
        }
        self.pos += 1;
        let tag = self.parse_name()?;
        let attrs = self.parse_attributes()?;
        match self.peek() {
            Some(b'/') => {
                // self-closing
                self.pos += 1;
                if self.peek() != Some(b'>') {
                    return Err(self.error("expected '>' after '/'"));
                }
                self.pos += 1;
                let children = self.attribute_children(attrs)?;
                self.element(&tag, children)
            }
            Some(b'>') => {
                self.pos += 1;
                let mut children = self.attribute_children(attrs)?;
                loop {
                    if self.starts_with("</") {
                        self.pos += 2;
                        let close = self.parse_name()?;
                        if close != tag {
                            return Err(self.error(&format!(
                                "mismatched closing tag: expected </{tag}>, found </{close}>"
                            )));
                        }
                        self.skip_ws();
                        if self.peek() != Some(b'>') {
                            return Err(self.error("expected '>' in closing tag"));
                        }
                        self.pos += 1;
                        break;
                    } else if self.starts_with("<!--") {
                        self.skip_until("-->");
                    } else if self.starts_with("<?") {
                        self.skip_until("?>");
                    } else if self.starts_with("<![CDATA[") {
                        self.pos += "<![CDATA[".len();
                        let start = self.pos;
                        self.skip_until("]]>");
                        let end = self.pos.saturating_sub(3).max(start);
                        let text = String::from_utf8_lossy(&self.bytes[start..end]).into_owned();
                        children.push(self.store.new_text(text));
                    } else if self.peek() == Some(b'<') {
                        children.push(self.parse_element()?);
                    } else if self.peek().is_none() {
                        return Err(self.error(&format!("unexpected end of input inside <{tag}>")));
                    } else {
                        let text = self.parse_text();
                        // Whitespace-only text between elements is ignored, as
                        // is conventional for document-oriented XML with a DTD.
                        if !text.trim().is_empty() {
                            children.push(self.store.new_text(decode_entities(&text)));
                        }
                    }
                }
                self.element(&tag, children)
            }
            _ => Err(self.error("expected '>' or '/>'")),
        }
    }

    /// Allocates the element `tag[children]`, or fails when `tag` would
    /// be one distinct name too many for the symbol table.
    fn element(&mut self, tag: &str, children: Vec<NodeId>) -> Result<NodeId, ParseError> {
        match self.store.try_intern(tag) {
            Some(sym) => Ok(self.store.new_element_sym(sym, children)),
            None => Err(self.error(TOO_MANY_NAMES)),
        }
    }

    /// [`attribute_children`], failing like [`element`](Self::element).
    fn attribute_children(
        &mut self,
        attrs: Vec<(String, String)>,
    ) -> Result<Vec<NodeId>, ParseError> {
        attribute_children(&mut self.store, attrs, self.keep_attributes)
            .ok_or_else(|| self.error(TOO_MANY_NAMES))
    }

    fn parse_text(&mut self) -> String {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'<' {
                break;
            }
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    (0..=haystack.len() - needle.len()).find(|&i| &haystack[i..i + needle.len()] == needle)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn parses_figure_1_document() {
        let t = parse_xml("<doc><a><c/></a><a><c/></a><b><c/></b><a><c/></a></doc>").unwrap();
        assert_eq!(t.root_tag(), Some("doc"));
        assert_eq!(t.store.children(t.root).len(), 4);
        assert_eq!(t.size(), 9);
    }

    #[test]
    fn parses_text_and_entities() {
        let t = parse_xml("<a>hello &amp; &lt;world&gt;</a>").unwrap();
        let kids = t.store.children(t.root);
        assert_eq!(kids.len(), 1);
        assert_eq!(t.store.text_value(kids[0]), Some("hello & <world>"));
    }

    #[test]
    fn skips_prolog_doctype_comments_and_attributes() {
        let input = r#"<?xml version="1.0"?>
            <!DOCTYPE doc [ <!ELEMENT doc (a)> ]>
            <!-- a comment -->
            <doc id="1"><a x='2'/><!-- inner --></doc>"#;
        let t = parse_xml(input).unwrap();
        assert_eq!(t.root_tag(), Some("doc"));
        assert_eq!(t.store.children(t.root).len(), 1);
    }

    #[test]
    fn cdata_becomes_text() {
        let t = parse_xml("<a><![CDATA[1 < 2]]></a>").unwrap();
        let kids = t.store.children(t.root);
        assert_eq!(t.store.text_value(kids[0]), Some("1 < 2"));
    }

    #[test]
    fn rejects_mismatched_tags_and_trailing_garbage() {
        assert!(parse_xml("<a></b>").is_err());
        assert!(parse_xml("<a/><b/>").is_err());
        assert!(parse_xml("<a>").is_err());
        assert!(parse_xml("plain").is_err());
    }

    #[test]
    fn roundtrip_with_serializer() {
        let xml = "<doc><a><c/></a><b>hi</b></doc>";
        let t = parse_xml(xml).unwrap();
        let back = crate::serializer::serialize_tree(&t);
        let t2 = parse_xml(&back).unwrap();
        assert!(t.value_equiv(&t2));
    }

    #[test]
    fn keep_attributes_encodes_them_as_at_children() {
        let t =
            parse_xml_keep_attributes(r#"<item id="7" lang='en'><name>x</name></item>"#).unwrap();
        let kids = t.store.children(t.root).to_vec();
        assert_eq!(kids.len(), 3);
        assert_eq!(t.store.tag(kids[0]), Some("@id"));
        assert_eq!(t.store.tag(kids[1]), Some("@lang"));
        assert_eq!(t.store.tag(kids[2]), Some("name"));
        let id_kids = t.store.children(kids[0]).to_vec();
        assert_eq!(t.store.text_value(id_kids[0]), Some("7"));
    }

    #[test]
    fn keep_attributes_on_self_closing_element() {
        let t = parse_xml_keep_attributes(r#"<edge from="a" to="b"/>"#).unwrap();
        let kids = t.store.children(t.root).to_vec();
        assert_eq!(kids.len(), 2);
        assert_eq!(t.store.tag(kids[0]), Some("@from"));
        assert_eq!(t.store.tag(kids[1]), Some("@to"));
    }

    #[test]
    fn keep_attributes_decodes_entities_and_empty_values() {
        let t = parse_xml_keep_attributes(r#"<a title="x &amp; y" flag=""/>"#).unwrap();
        let kids = t.store.children(t.root).to_vec();
        let title_kids = t.store.children(kids[0]).to_vec();
        assert_eq!(t.store.text_value(title_kids[0]), Some("x & y"));
        assert!(t.store.children(kids[1]).is_empty());
    }

    /// A document of `names` distinct empty elements under one root.
    pub(crate) fn many_names_document(names: usize) -> String {
        let mut xml = String::from("<root>");
        for i in 0..names {
            xml.push_str(&format!("<tag{i}/>"));
        }
        xml.push_str("</root>");
        xml
    }

    #[test]
    fn too_many_distinct_names_is_a_parse_error() {
        let err = parse_xml(&many_names_document(70_000)).unwrap_err();
        assert_eq!(err.message, TOO_MANY_NAMES);
        // A full table minus the text symbol and `root` still parses.
        let t = parse_xml(&many_names_document(crate::MAX_SYMBOLS - 2)).unwrap();
        assert_eq!(t.store.symbols().len(), crate::MAX_SYMBOLS);
        let attrs = format!(
            "<a{}/>",
            (0..70_000)
                .map(|i| format!(" n{i}=\"\""))
                .collect::<String>()
        );
        let err = parse_xml_keep_attributes(&attrs).unwrap_err();
        assert_eq!(err.message, TOO_MANY_NAMES);
    }

    #[test]
    fn default_parse_still_ignores_attributes() {
        let t = parse_xml(r#"<item id="7"><name>x</name></item>"#).unwrap();
        assert_eq!(t.store.children(t.root).len(), 1);
    }
}
