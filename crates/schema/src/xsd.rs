//! An XML Schema (XSD) frontend producing Extended DTDs.
//!
//! §7 of the paper extends the analysis from DTDs to Extended DTDs precisely
//! because EDTDs "capture XML Schema and RelaxNG types". This module closes
//! the remaining gap for users whose schemas are written in XSD: it parses a
//! pragmatic subset of XML Schema into an [`Edtd`], after which the whole
//! chain analysis applies unchanged.
//!
//! Supported subset (the fragment commonly used for document-centric
//! schemas):
//!
//! * global `xs:element` declarations with a named `type`, an inline
//!   `xs:complexType`, or a simple (text) type;
//! * named and anonymous `xs:complexType`s with `xs:sequence` / `xs:choice`
//!   particles, arbitrarily nested, `minOccurs` / `maxOccurs`
//!   (`0`, `1`, `unbounded`; other bounds are approximated), `mixed="true"`,
//!   and `xs:attribute` declarations (`use="required"` or optional);
//! * local element declarations and `ref`s to global ones;
//! * built-in simple types (`xs:string`, `xs:integer`, …), all mapped to
//!   text content.
//!
//! Two element declarations with the same name but different content models
//! become two *types* with the same *label* — exactly the situation EDTDs
//! exist for. Namespaces are handled syntactically: any prefix (or none) is
//! accepted for the XML Schema vocabulary, and target-namespace prefixes on
//! instance names are ignored.
//!
//! Unsupported constructs (substitution groups, `xs:all`, identity
//! constraints, facets, imports) are rejected with an error rather than
//! silently mis-modelled.

use crate::edtd::Edtd;
use crate::parser::SchemaParseError;
use qui_xmlstore::{parse_xml_keep_attributes, NodeId, Store, Tree};
use std::collections::HashMap;
use std::fmt;

/// An error produced while translating an XSD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XsdError {
    /// Human-readable description.
    pub message: String,
}

impl XsdError {
    fn new(msg: impl Into<String>) -> Self {
        XsdError {
            message: msg.into(),
        }
    }
}

impl fmt::Display for XsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XSD error: {}", self.message)
    }
}

impl std::error::Error for XsdError {}

impl From<SchemaParseError> for XsdError {
    fn from(e: SchemaParseError) -> Self {
        XsdError::new(format!("generated type rules failed to parse: {e}"))
    }
}

impl From<qui_xmlstore::ParseError> for XsdError {
    fn from(e: qui_xmlstore::ParseError) -> Self {
        XsdError::new(format!("schema document is not well-formed XML: {e}"))
    }
}

/// Parses an XSD document into an [`Edtd`], using the first global element
/// declaration as the document root.
pub fn parse_xsd(src: &str) -> Result<Edtd, XsdError> {
    Translator::run(src, None)
}

/// Parses an XSD document into an [`Edtd`] rooted at the named global
/// element.
pub fn parse_xsd_with_root(src: &str, root_element: &str) -> Result<Edtd, XsdError> {
    Translator::run(src, Some(root_element))
}

/// Identity of a type definition, used to share types between identical
/// declarations.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum TypeKey {
    /// `<xs:element name="e" type="T"/>` with `T` a named complex type.
    Named(String, String),
    /// An inline anonymous complex type (identified by its node).
    Anonymous(String, NodeId),
    /// Text-only content (built-in simple types, or no type at all).
    Simple(String),
}

/// Deepest nesting of `xs:element`, `xs:complexType`, `xs:sequence` and
/// `xs:choice` declarations (or `ref` hops) the translator recurses into;
/// deeper schemas are rejected rather than overflowing the stack.
const MAX_NESTING: usize = 256;

struct Translator {
    tree: Tree,
    /// Current recursion depth of the translation (see [`MAX_NESTING`]).
    depth: usize,
    /// Global complex types by name.
    complex_types: HashMap<String, NodeId>,
    /// Global element declarations by name.
    global_elements: HashMap<String, NodeId>,
    /// Memo: type key → generated type name.
    assigned: HashMap<TypeKey, String>,
    /// Per-label counter for `label#i` type names.
    counters: HashMap<String, usize>,
    /// Generated rules `type -> content`.
    rules: Vec<(String, String)>,
    /// Attribute types that need a `#PCDATA?` rule.
    attr_types: Vec<String>,
}

impl Translator {
    fn run(src: &str, root: Option<&str>) -> Result<Edtd, XsdError> {
        let tree = parse_xml_keep_attributes(src)?;
        if local_name(tag_of(&tree.store, tree.root)) != "schema" {
            return Err(XsdError::new("document element is not xs:schema"));
        }
        let mut t = Translator {
            tree,
            depth: 0,
            complex_types: HashMap::new(),
            global_elements: HashMap::new(),
            assigned: HashMap::new(),
            counters: HashMap::new(),
            rules: Vec::new(),
            attr_types: Vec::new(),
        };
        t.index_globals()?;
        let root_name = match root {
            Some(name) => name.to_string(),
            None => t
                .first_global_element()
                .ok_or_else(|| XsdError::new("schema declares no global element"))?,
        };
        let root_decl = *t
            .global_elements
            .get(&root_name)
            .ok_or_else(|| XsdError::new(format!("no global element named '{root_name}'")))?;
        let root_type = t.type_of_element(root_decl)?;
        for a in std::mem::take(&mut t.attr_types) {
            t.rules.push((a, "#PCDATA?".to_string()));
        }
        let compact = t
            .rules
            .iter()
            .map(|(n, c)| format!("{n} -> {c}"))
            .collect::<Vec<_>>()
            .join(" ;\n");
        let types = crate::Dtd::parse_compact(&compact, &root_type)?;
        Ok(Edtd::with_indexed_types(types))
    }

    // ------------------------------------------------------------ indexing

    fn index_globals(&mut self) -> Result<(), XsdError> {
        let root = self.tree.root;
        let children: Vec<NodeId> = self.tree.store.children(root).to_vec();
        for child in children {
            if !self.tree.store.is_element(child) {
                continue;
            }
            match local_name(tag_of(&self.tree.store, child)) {
                "element" => {
                    let name = self
                        .attr(child, "name")
                        .ok_or_else(|| XsdError::new("global xs:element without a name"))?;
                    self.global_elements.insert(name, child);
                }
                "complexType" => {
                    let name = self
                        .attr(child, "name")
                        .ok_or_else(|| XsdError::new("global xs:complexType without a name"))?;
                    self.complex_types.insert(name, child);
                }
                "simpleType" | "annotation" | "" => {}
                other if other.starts_with('@') => {}
                other
                @ ("import" | "include" | "redefine" | "group" | "attributeGroup" | "all") => {
                    return Err(XsdError::new(format!("unsupported construct xs:{other}")));
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn first_global_element(&self) -> Option<String> {
        let root = self.tree.root;
        for child in self.tree.store.children(root) {
            if self.tree.store.is_element(child)
                && local_name(tag_of(&self.tree.store, child)) == "element"
            {
                return self.attr(child, "name");
            }
        }
        None
    }

    /// Runs `f` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, XsdError>,
    ) -> Result<T, XsdError> {
        if self.depth >= MAX_NESTING {
            return Err(XsdError::new(format!(
                "declarations nested deeper than {MAX_NESTING} levels"
            )));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    // ----------------------------------------------------------- elements

    /// Returns the generated type name for an element declaration node,
    /// creating the type (and its rule) on first use.
    fn type_of_element(&mut self, decl: NodeId) -> Result<String, XsdError> {
        // `ref="name"` points at a global declaration.
        if let Some(target) = self.attr(decl, "ref") {
            let target = strip_prefix(&target);
            let global = *self
                .global_elements
                .get(target)
                .ok_or_else(|| XsdError::new(format!("unresolved element ref '{target}'")))?;
            return self.nested(|t| t.type_of_element(global));
        }
        let label = self
            .attr(decl, "name")
            .ok_or_else(|| XsdError::new("xs:element without name or ref"))?;
        let key = match (self.attr(decl, "type"), self.inline_complex_type(decl)) {
            (Some(ty), _) => {
                let ty = strip_prefix(&ty).to_string();
                if self.complex_types.contains_key(&ty) {
                    TypeKey::Named(label.clone(), ty)
                } else {
                    // Built-in simple type (xs:string, xs:integer, …).
                    TypeKey::Simple(label.clone())
                }
            }
            (None, Some(anon)) => TypeKey::Anonymous(label.clone(), anon),
            (None, None) => TypeKey::Simple(label.clone()),
        };
        if let Some(existing) = self.assigned.get(&key) {
            return Ok(existing.clone());
        }
        let type_name = self.fresh_type_name(&label);
        self.assigned.insert(key.clone(), type_name.clone());
        let content = match &key {
            TypeKey::Simple(_) => "#PCDATA?".to_string(),
            TypeKey::Named(_, ty) => {
                let node = self.complex_types[ty];
                self.nested(|t| t.complex_type_content(node))?
            }
            TypeKey::Anonymous(_, node) => self.nested(|t| t.complex_type_content(*node))?,
        };
        self.rules.push((type_name.clone(), content));
        Ok(type_name)
    }

    fn fresh_type_name(&mut self, label: &str) -> String {
        let counter = self.counters.entry(label.to_string()).or_insert(0);
        *counter += 1;
        format!("{label}#{counter}")
    }

    fn inline_complex_type(&self, decl: NodeId) -> Option<NodeId> {
        self.tree
            .store
            .children(decl)
            .iter()
            .copied()
            .find(|&c| local_name(tag_of(&self.tree.store, c)) == "complexType")
    }

    // ------------------------------------------------------ complex types

    /// Builds the compact content-model string of a complex type node.
    fn complex_type_content(&mut self, ctype: NodeId) -> Result<String, XsdError> {
        let mixed = self
            .attr(ctype, "mixed")
            .map(|v| v == "true" || v == "1")
            .unwrap_or(false);
        let mut attrs: Vec<String> = Vec::new();
        let mut particle: Option<String> = None;
        let mut particle_children: Vec<String> = Vec::new();
        let children: Vec<NodeId> = self.tree.store.children(ctype).to_vec();
        for child in children {
            if !self.tree.store.is_element(child) {
                continue;
            }
            match local_name(tag_of(&self.tree.store, child)) {
                "sequence" | "choice" => {
                    let (body, names) = self.nested(|t| t.particle_content(child))?;
                    particle_children = names;
                    particle = Some(body);
                }
                "attribute" => attrs.push(self.attribute_factor(child)?),
                "all" => return Err(XsdError::new("xs:all is not supported")),
                "complexContent" | "simpleContent" => {
                    return Err(XsdError::new(
                        "xs:complexContent / xs:simpleContent are not supported",
                    ))
                }
                _ => {}
            }
        }
        let body = if mixed {
            let mut alts = vec!["#PCDATA".to_string()];
            alts.extend(particle_children);
            format!("({})*", alts.join(" | "))
        } else {
            particle.unwrap_or_else(|| "EMPTY".to_string())
        };
        Ok(if attrs.is_empty() {
            body
        } else if body == "EMPTY" {
            attrs.join(", ")
        } else {
            format!("{}, ({})", attrs.join(", "), body)
        })
    }

    /// Builds the content of an `xs:sequence` / `xs:choice` node, returning
    /// the rendered expression and the list of child type names (used for
    /// mixed content).
    fn particle_content(&mut self, node: NodeId) -> Result<(String, Vec<String>), XsdError> {
        let kind = local_name(tag_of(&self.tree.store, node)).to_string();
        let mut parts: Vec<String> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        let children: Vec<NodeId> = self.tree.store.children(node).to_vec();
        for child in children {
            if !self.tree.store.is_element(child) {
                continue;
            }
            let rendered = match local_name(tag_of(&self.tree.store, child)) {
                "element" => {
                    let ty = self.nested(|t| t.type_of_element(child))?;
                    names.push(ty.clone());
                    occurs(
                        ty,
                        self.attr(child, "minOccurs"),
                        self.attr(child, "maxOccurs"),
                    )
                }
                "sequence" | "choice" => {
                    let (inner, inner_names) = self.nested(|t| t.particle_content(child))?;
                    names.extend(inner_names);
                    occurs(
                        format!("({inner})"),
                        self.attr(child, "minOccurs"),
                        self.attr(child, "maxOccurs"),
                    )
                }
                "any" => {
                    return Err(XsdError::new("xs:any wildcards are not supported"));
                }
                _ => continue,
            };
            parts.push(rendered);
        }
        if parts.is_empty() {
            return Ok(("EMPTY".to_string(), names));
        }
        let joined = match kind.as_str() {
            "choice" => format!("({})", parts.join(" | ")),
            _ => format!("({})", parts.join(", ")),
        };
        let wrapped = occurs(
            joined,
            self.attr(node, "minOccurs"),
            self.attr(node, "maxOccurs"),
        );
        Ok((wrapped, names))
    }

    fn attribute_factor(&mut self, node: NodeId) -> Result<String, XsdError> {
        let name = self
            .attr(node, "name")
            .ok_or_else(|| XsdError::new("xs:attribute without a name"))?;
        let required = self.attr(node, "use").as_deref() == Some("required");
        let sym = format!("@{name}");
        if !self.attr_types.contains(&sym) {
            self.attr_types.push(sym.clone());
        }
        Ok(if required { sym } else { format!("{sym}?") })
    }

    // ----------------------------------------------------------- utilities

    /// Reads an attribute of an XSD node through the `@child` encoding.
    fn attr(&self, node: NodeId, name: &str) -> Option<String> {
        let want = format!("@{name}");
        for child in self.tree.store.children(node) {
            if self.tree.store.tag(child) == Some(want.as_str()) {
                let value: String = self
                    .tree
                    .store
                    .children(child)
                    .iter()
                    .filter_map(|&c| self.tree.store.text_value(c))
                    .collect();
                return Some(value);
            }
        }
        None
    }
}

fn tag_of(store: &Store, node: NodeId) -> &str {
    store.tag(node).unwrap_or("")
}

/// The local part of a possibly prefixed name (`xs:element` → `element`).
fn local_name(name: &str) -> &str {
    name.rsplit(':').next().unwrap_or(name)
}

/// Strips a namespace prefix from a QName value (`tns:book` → `book`).
fn strip_prefix(name: &str) -> &str {
    local_name(name)
}

/// Applies minOccurs/maxOccurs to a rendered particle.
fn occurs(body: String, min: Option<String>, max: Option<String>) -> String {
    let min = min.as_deref().unwrap_or("1");
    let max = max.as_deref().unwrap_or("1");
    let min_zero = min == "0";
    let many = max == "unbounded" || max.parse::<u32>().map(|n| n > 1).unwrap_or(false);
    match (min_zero, many) {
        (false, false) => body,
        (true, false) => format!("{body}?"),
        (false, true) => format!("{body}+"),
        (true, true) => format!("{body}*"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOOKSTORE: &str = r#"
        <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="bookstore">
            <xs:complexType>
              <xs:sequence>
                <xs:element ref="book" minOccurs="0" maxOccurs="unbounded"/>
              </xs:sequence>
            </xs:complexType>
          </xs:element>
          <xs:element name="book" type="BookType"/>
          <xs:complexType name="BookType">
            <xs:sequence>
              <xs:element name="title" type="xs:string"/>
              <xs:element name="author" maxOccurs="unbounded">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="last" type="xs:string"/>
                    <xs:element name="first" type="xs:string" minOccurs="0"/>
                  </xs:sequence>
                </xs:complexType>
              </xs:element>
              <xs:element name="price" type="xs:decimal" minOccurs="0"/>
            </xs:sequence>
            <xs:attribute name="isbn" use="required"/>
            <xs:attribute name="lang"/>
          </xs:complexType>
        </xs:schema>
    "#;

    #[test]
    fn bookstore_schema_translates() {
        let edtd = parse_xsd(BOOKSTORE).unwrap();
        let dtd = edtd.type_dtd();
        // bookstore, book, title, author, last, first, price + @isbn, @lang.
        assert_eq!(dtd.size(), 9);
        let root = dtd.start();
        assert_eq!(edtd.label_of(root), "bookstore");
        // The book type reaches title and the attribute types.
        let book = dtd
            .alphabet()
            .find(|&t| edtd.label_of(t) == "book")
            .unwrap();
        let title = dtd
            .alphabet()
            .find(|&t| edtd.label_of(t) == "title")
            .unwrap();
        let isbn = dtd
            .alphabet()
            .find(|&t| edtd.label_of(t) == "@isbn")
            .unwrap();
        assert!(dtd.reaches(book, title));
        assert!(dtd.reaches(book, isbn));
    }

    #[test]
    fn instances_validate_against_the_translation() {
        let edtd = parse_xsd(BOOKSTORE).unwrap();
        let ok = qui_xmlstore::parse_xml_keep_attributes(
            r#"<bookstore>
                 <book isbn="1-55860-438-3" lang="en">
                   <title>Data on the Web</title>
                   <author><last>Abiteboul</last><first>Serge</first></author>
                   <author><last>Buneman</last></author>
                   <price>39.95</price>
                 </book>
                 <book isbn="0">
                   <title>t</title>
                   <author><last>x</last></author>
                 </book>
               </bookstore>"#,
        )
        .unwrap();
        assert!(edtd.validate(&ok));
        // Missing required attribute and missing author are both rejected.
        let missing_attr = qui_xmlstore::parse_xml_keep_attributes(
            "<bookstore><book><title>t</title><author><last>x</last></author></book></bookstore>",
        )
        .unwrap();
        assert!(!edtd.validate(&missing_attr));
        let missing_author = qui_xmlstore::parse_xml_keep_attributes(
            r#"<bookstore><book isbn="1"><title>t</title></book></bookstore>"#,
        )
        .unwrap();
        assert!(!edtd.validate(&missing_author));
    }

    #[test]
    fn same_label_with_two_content_models_becomes_two_types() {
        let src = r#"
            <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="shop">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="new">
                      <xs:complexType><xs:sequence>
                        <xs:element name="item">
                          <xs:complexType><xs:sequence>
                            <xs:element name="price" type="xs:decimal"/>
                          </xs:sequence></xs:complexType>
                        </xs:element>
                      </xs:sequence></xs:complexType>
                    </xs:element>
                    <xs:element name="old">
                      <xs:complexType><xs:sequence>
                        <xs:element name="item">
                          <xs:complexType><xs:sequence>
                            <xs:element name="note" type="xs:string" minOccurs="0"/>
                          </xs:sequence></xs:complexType>
                        </xs:element>
                      </xs:sequence></xs:complexType>
                    </xs:element>
                  </xs:sequence>
                </xs:complexType>
              </xs:element>
            </xs:schema>
        "#;
        let edtd = parse_xsd(src).unwrap();
        let dtd = edtd.type_dtd();
        let item_types: Vec<_> = dtd
            .alphabet()
            .filter(|&t| edtd.label_of(t) == "item")
            .collect();
        assert_eq!(item_types.len(), 2, "two item types with different content");
        assert!(dtd.sym("item#1").is_some() && dtd.sym("item#2").is_some());
    }

    #[test]
    fn choice_mixed_and_occurs_are_translated() {
        let src = r#"
            <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="doc">
                <xs:complexType>
                  <xs:choice minOccurs="0" maxOccurs="unbounded">
                    <xs:element name="para">
                      <xs:complexType mixed="true">
                        <xs:sequence>
                          <xs:element name="em" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
                        </xs:sequence>
                      </xs:complexType>
                    </xs:element>
                    <xs:element name="hr"/>
                  </xs:choice>
                </xs:complexType>
              </xs:element>
            </xs:schema>
        "#;
        let edtd = parse_xsd(src).unwrap();
        let doc = qui_xmlstore::parse_xml_keep_attributes(
            "<doc><para>hello <em>world</em> again</para><hr/><para/></doc>",
        )
        .unwrap();
        assert!(edtd.validate(&doc));
    }

    #[test]
    fn root_selection_and_missing_roots_are_reported() {
        assert!(parse_xsd_with_root(BOOKSTORE, "book").is_ok());
        assert!(parse_xsd_with_root(BOOKSTORE, "nosuch").is_err());
        let no_elements = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:complexType name="T"><xs:sequence/></xs:complexType>
        </xs:schema>"#;
        assert!(parse_xsd(no_elements).is_err());
        assert!(parse_xsd("<not-a-schema/>").is_err());
    }

    #[test]
    fn unsupported_constructs_are_rejected_loudly() {
        let with_any = r#"
            <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="r">
                <xs:complexType><xs:sequence>
                  <xs:any/>
                </xs:sequence></xs:complexType>
              </xs:element>
            </xs:schema>
        "#;
        assert!(parse_xsd(with_any).is_err());
    }

    /// A schema whose root `r` holds `depth` nested `open`…`close` wrappers
    /// around one `leaf` element.
    fn nested_schema(depth: usize, open: &str, close: &str) -> String {
        format!(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="r"><xs:complexType><xs:sequence>{}<xs:element name="leaf"/>{}</xs:sequence></xs:complexType></xs:element>
            </xs:schema>"#,
            open.repeat(depth),
            close.repeat(depth)
        )
    }

    #[test]
    fn nesting_beyond_the_limit_is_an_error_not_an_abort() {
        let sequences = |n| nested_schema(n, "<xs:sequence>", "</xs:sequence>");
        let elements = |n| {
            nested_schema(
                n,
                "<xs:element name=\"e\"><xs:complexType><xs:sequence>",
                "</xs:sequence></xs:complexType></xs:element>",
            )
        };
        assert!(parse_xsd(&sequences(10)).is_ok());
        assert!(parse_xsd(&elements(40)).is_ok());
        for src in [sequences(100_000), elements(MAX_NESTING)] {
            let err = parse_xsd(&src).unwrap_err();
            assert!(err.to_string().contains("nested deeper"), "{err}");
        }
        // A global element that refers to itself recurses without nesting.
        let self_ref = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:element name="a" ref="a"/>
        </xs:schema>"#;
        let err = parse_xsd(self_ref).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
    }
}
