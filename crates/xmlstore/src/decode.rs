//! Decoding helpers shared by the in-memory parser ([`crate::parser`]) and
//! the streaming parser ([`crate::streaming`]).
//!
//! Both parsers accept the same XML subset and must agree byte-for-byte on
//! how character data and attributes are interpreted, so the entity decoding
//! and the `@name`-children attribute encoding live here in one place instead
//! of being duplicated per parser.

use crate::node::NodeId;
use crate::store::Store;

/// Decodes the five predefined XML entities.
pub fn decode_entities(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

/// Returns `true` for the bytes allowed in element and attribute names by
/// both parsers (a pragmatic subset of the XML name production).
pub fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':')
}

/// Converts parsed `(name, value)` attribute pairs into leading `@name`
/// children in `store`, the element-only encoding of the §7 attribute
/// extension: each attribute becomes an element tagged `@name` whose content
/// is the attribute value as a text node (empty values produce an empty
/// `@name` element). Values are expected to be entity-decoded already.
///
/// Returns an empty list when `keep_attributes` is off, so parsers can call
/// it unconditionally, and `None` when an `@name` would overflow the
/// store's symbol table.
pub fn attribute_children(
    store: &mut Store,
    attrs: Vec<(String, String)>,
    keep_attributes: bool,
) -> Option<Vec<NodeId>> {
    if !keep_attributes {
        return Some(Vec::new());
    }
    attrs
        .into_iter()
        .map(|(name, value)| {
            let content = if value.is_empty() {
                vec![]
            } else {
                vec![store.new_text(value)]
            };
            let sym = store.try_intern(&format!("@{name}"))?;
            Some(store.new_element_sym(sym, content))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_all_five_entities() {
        assert_eq!(
            decode_entities("&lt;a&gt; &amp; &quot;b&quot; &apos;c&apos;"),
            "<a> & \"b\" 'c'"
        );
        assert_eq!(decode_entities("plain"), "plain");
    }

    #[test]
    fn name_bytes_accept_xmlish_names() {
        for b in *b"aZ09_-.:" {
            assert!(is_name_byte(b), "{}", b as char);
        }
        for b in *b" <>=\"'/&" {
            assert!(!is_name_byte(b), "{}", b as char);
        }
    }

    #[test]
    fn attribute_children_encode_and_respect_the_flag() {
        let mut s = Store::new();
        let attrs = vec![
            ("id".to_string(), "7".to_string()),
            ("flag".to_string(), String::new()),
        ];
        assert!(attribute_children(&mut s, attrs.clone(), false)
            .unwrap()
            .is_empty());
        let kids = attribute_children(&mut s, attrs, true).unwrap();
        assert_eq!(kids.len(), 2);
        assert_eq!(s.tag(kids[0]), Some("@id"));
        assert_eq!(s.text_value(s.children(kids[0])[0]), Some("7"));
        assert_eq!(s.tag(kids[1]), Some("@flag"));
        assert!(s.children(kids[1]).is_empty());
    }
}
