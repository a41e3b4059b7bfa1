//! Serialization of stores and trees back to XML text.

use crate::node::NodeId;
use crate::store::Store;
use crate::tree::Tree;

/// Serializes the subtree rooted at `node` to an XML string.
pub fn serialize_node(store: &Store, node: NodeId) -> String {
    let mut out = String::new();
    write_node(store, node, &mut out, false);
    out
}

/// Serializes the subtree rooted at `node` into an existing buffer (the
/// allocation-reusing form behind [`crate::sink::SerializeSink`]).
pub fn serialize_node_into(store: &Store, node: NodeId, out: &mut String) {
    write_node(store, node, out, false);
}

/// Serializes a whole tree to an XML string.
pub fn serialize_tree(tree: &Tree) -> String {
    serialize_node(&tree.store, tree.root)
}

/// Serializes the subtree rooted at `node`, writing children tagged `@name`
/// back as XML attributes (the inverse of
/// [`crate::parser::parse_xml_keep_attributes`]).
pub fn serialize_node_with_attributes(store: &Store, node: NodeId) -> String {
    let mut out = String::new();
    write_node(store, node, &mut out, true);
    out
}

/// Serializes a whole tree, writing `@name` children back as attributes.
pub fn serialize_tree_with_attributes(tree: &Tree) -> String {
    serialize_node_with_attributes(&tree.store, tree.root)
}

fn write_node(store: &Store, node: NodeId, out: &mut String, attrs: bool) {
    if let Some(text) = store.text_value(node) {
        out.push_str(&escape_text(text));
        return;
    }
    let tag = store.tag(node).expect("non-text nodes are elements");
    let (attr_children, content_children): (Vec<NodeId>, Vec<NodeId>) = if attrs {
        store
            .children_iter(node)
            .partition(|&c| store.tag(c).is_some_and(|t| t.starts_with('@')))
    } else {
        (Vec::new(), store.children(node))
    };
    out.push('<');
    out.push_str(tag);
    for a in attr_children {
        let name = store.tag(a).expect("attribute children are elements");
        let value: String = store
            .children_iter(a)
            .filter_map(|c| store.text_value(c))
            .collect();
        out.push(' ');
        out.push_str(name.trim_start_matches('@'));
        out.push_str("=\"");
        out.push_str(&escape_attr(&value));
        out.push('"');
    }
    if content_children.is_empty() {
        out.push_str("/>");
    } else {
        out.push('>');
        for c in content_children {
            write_node(store, c, out, attrs);
        }
        out.push_str("</");
        out.push_str(tag);
        out.push('>');
    }
}

/// Escapes the characters that must be escaped in a double-quoted attribute
/// value.
pub fn escape_attr(s: &str) -> String {
    if !s.contains(['&', '<', '"']) {
        return s.to_string();
    }
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('"', "&quot;")
}

/// Escapes the characters that must be escaped in XML character data.
pub fn escape_text(s: &str) -> String {
    if !s.contains(['&', '<', '>']) {
        return s.to_string();
    }
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    #[test]
    fn serializes_nested_elements() {
        let t = TreeBuilder::elem("doc")
            .child(TreeBuilder::elem("a").child(TreeBuilder::elem("c")))
            .child(TreeBuilder::elem("b").text("hi"))
            .build();
        assert_eq!(serialize_tree(&t), "<doc><a><c/></a><b>hi</b></doc>");
    }

    #[test]
    fn escapes_special_characters() {
        let t = TreeBuilder::elem("a").text("x < y & z").build();
        assert_eq!(serialize_tree(&t), "<a>x &lt; y &amp; z</a>");
    }

    #[test]
    fn roundtrips_through_parser() {
        let t = TreeBuilder::elem("r")
            .child(TreeBuilder::elem("x").text("1 & 2"))
            .child(TreeBuilder::elem("y"))
            .build();
        let xml = serialize_tree(&t);
        let t2 = crate::parse_xml(&xml).unwrap();
        assert!(t.value_equiv(&t2));
    }

    #[test]
    fn serialize_into_reuses_the_buffer() {
        let t = TreeBuilder::elem("a").text("x").build();
        let mut buf = String::with_capacity(64);
        serialize_node_into(&t.store, t.root, &mut buf);
        assert_eq!(buf, "<a>x</a>");
        buf.clear();
        serialize_node_into(&t.store, t.root, &mut buf);
        assert_eq!(buf, "<a>x</a>");
    }

    #[test]
    fn at_children_are_written_back_as_attributes() {
        let xml = r#"<item id="7" lang="en"><name>x</name></item>"#;
        let t = crate::parser::parse_xml_keep_attributes(xml).unwrap();
        assert_eq!(serialize_tree_with_attributes(&t), xml);
        // The plain serializer keeps the element encoding instead.
        assert!(serialize_tree(&t).starts_with("<item><@id>"));
    }

    #[test]
    fn attribute_values_are_escaped() {
        let xml = r#"<a title="x &amp; &quot;y&quot;"/>"#;
        let t = crate::parser::parse_xml_keep_attributes(xml).unwrap();
        let back = serialize_tree_with_attributes(&t);
        let t2 = crate::parser::parse_xml_keep_attributes(&back).unwrap();
        assert!(t.value_equiv(&t2));
    }

    #[test]
    fn empty_attribute_roundtrips() {
        let xml = r#"<a flag=""/>"#;
        let t = crate::parser::parse_xml_keep_attributes(xml).unwrap();
        assert_eq!(serialize_tree_with_attributes(&t), xml);
    }
}
