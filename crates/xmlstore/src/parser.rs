//! The in-memory entry points of the XML parser in [`crate::streaming`].
//!
//! [`parse_xml`] and [`parse_xml_keep_attributes`] run that one parser over
//! the bytes of a string; this module also holds the error type every parse
//! returns.

use crate::streaming::{parse_xml_reader, parse_xml_stream, StreamConfig};
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
    parse_xml_reader(input.as_bytes())
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
    let config = StreamConfig {
        keep_attributes: true,
        projection: None,
    };
    Ok(parse_xml_stream(input.as_bytes(), &config)?.tree)
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

    /// Nesting costs the parser heap, not call stack.
    #[test]
    fn deep_nesting_parses_without_recursion() {
        let depth = 200_000;
        let xml = format!("{}x{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let t = parse_xml(&xml).unwrap();
        assert_eq!(t.size(), depth + 1);
        let mut levels = 0;
        let mut node = Some(t.root);
        while let Some(n) = node.filter(|&n| t.store.tag(n) == Some("a")) {
            levels += 1;
            node = t.store.children(n).first().copied();
        }
        assert_eq!(levels, depth);
        let err = parse_xml(&xml[..xml.len() - 1]).unwrap_err();
        assert_eq!(err.position, xml.len() - 1);
    }

    #[test]
    fn default_parse_still_ignores_attributes() {
        let t = parse_xml(r#"<item id="7"><name>x</name></item>"#).unwrap();
        assert_eq!(t.store.children(t.root).len(), 1);
    }
}
