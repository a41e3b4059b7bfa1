//! End-to-end use of the XML Schema frontend (§7): an XSD-defined schema is
//! translated to an Extended DTD and drives the same chain-based analyses as
//! a DTD would.

use xml_qui::core::{AnalysisSession, CommutativityAnalyzer};
use xml_qui::schema::{parse_xsd, parse_xsd_with_root};
use xml_qui::xmlstore::parse_xml_keep_attributes;
use xml_qui::xquery::{dynamic_independent, parse_query, parse_update, DynamicOutcome};

const BOOKSTORE_XSD: &str = r#"
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
      </xs:complexType>
    </xs:schema>
"#;

#[test]
fn independence_analysis_runs_over_an_xsd_schema() {
    let edtd = parse_xsd(BOOKSTORE_XSD).unwrap();
    let analyzer = AnalysisSession::new(&edtd);
    let q = parse_query("//title").unwrap();
    let u = parse_update("for $b in //book return insert <author><last>L</last></author> into $b")
        .unwrap();
    assert!(analyzer.check(&q, &u).is_independent());
    let q2 = parse_query("//author/last").unwrap();
    assert!(!analyzer.check(&q2, &u).is_independent());
}

#[test]
fn attribute_queries_work_over_the_xsd_translation() {
    let edtd = parse_xsd(BOOKSTORE_XSD).unwrap();
    let analyzer = AnalysisSession::new(&edtd);
    let q = parse_query("//book/@isbn").unwrap();
    let u = parse_update("delete //book/price").unwrap();
    assert!(analyzer.check(&q, &u).is_independent());
    let u2 = parse_update("delete //book").unwrap();
    assert!(!analyzer.check(&q, &u2).is_independent());
}

#[test]
fn verdicts_are_dynamically_consistent_on_an_instance() {
    let edtd = parse_xsd(BOOKSTORE_XSD).unwrap();
    let doc = parse_xml_keep_attributes(
        r#"<bookstore>
             <book isbn="1"><title>a</title><author><last>x</last></author><price>5</price></book>
             <book isbn="2"><title>b</title><author><last>y</last><first>z</first></author></book>
           </bookstore>"#,
    )
    .unwrap();
    assert!(edtd.validate(&doc));
    let analyzer = AnalysisSession::new(&edtd);
    let pairs = [
        ("//title", "delete //book/price"),
        ("//author/last", "delete //book/price"),
        ("//book/@isbn", "for $a in //author return delete $a/first"),
        ("//price", "delete //book"),
    ];
    for (qs, us) in pairs {
        let q = parse_query(qs).unwrap();
        let u = parse_update(us).unwrap();
        if analyzer.check(&q, &u).is_independent() {
            assert_eq!(
                dynamic_independent(&doc, &q, &u).unwrap(),
                DynamicOutcome::UnchangedOnThisTree,
                "({qs}, {us}) declared independent but the instance changed"
            );
        }
    }
}

#[test]
fn commutativity_analysis_runs_over_an_xsd_schema() {
    let edtd = parse_xsd(BOOKSTORE_XSD).unwrap();
    let analyzer = CommutativityAnalyzer::new(&edtd);
    let u1 = parse_update("delete //book/price").unwrap();
    let u2 = parse_update("for $a in //author return delete $a/first").unwrap();
    assert!(analyzer.check(&u1, &u2).commutes());
    let u3 = parse_update("delete //book").unwrap();
    assert!(!analyzer.check(&u1, &u3).commutes());
}

#[test]
fn alternative_roots_can_be_selected() {
    let edtd = parse_xsd_with_root(BOOKSTORE_XSD, "book").unwrap();
    // With `book` as the root, a book-relative query and a price deletion
    // are analysed against the book subtree schema.
    let analyzer = AnalysisSession::new(&edtd);
    let q = parse_query("/title").unwrap();
    let u = parse_update("delete /price").unwrap();
    assert!(analyzer.check(&q, &u).is_independent());
}
