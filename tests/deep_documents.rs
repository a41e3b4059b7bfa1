//! A document nested 200,000 levels deep, which the parser builds with an
//! explicit stack, can also be serialized, compared, copied and served as a
//! view: none of these recurses once per tree level.

use xml_qui::core::Jobs;
use xml_qui::schema::Dtd;
use xml_qui::workloads::{MaintainStrategy, MaintenanceEngine};
use xml_qui::xmlstore::{parse_xml, value_equiv, Store, Tree};
use xml_qui::xquery::parse_query;

const DEPTH: usize = 200_000;

/// `<a>` nested [`DEPTH`] levels around one text node.
fn deep_xml() -> String {
    format!("{}x{}", "<a>".repeat(DEPTH), "</a>".repeat(DEPTH))
}

#[test]
fn a_deep_tree_serializes_back_to_its_input() {
    let xml = deep_xml();
    let t = parse_xml(&xml).unwrap();
    assert_eq!(t.size(), DEPTH + 1);
    assert_eq!(t.to_xml(), xml);
}

#[test]
fn a_deep_tree_is_value_equivalent_to_a_second_parse() {
    let xml = deep_xml();
    let (t1, t2) = (parse_xml(&xml).unwrap(), parse_xml(&xml).unwrap());
    assert!(t1.value_equiv(&t2));
    let shallower = parse_xml(&xml[3..xml.len() - 4]).unwrap();
    assert!(!t1.value_equiv(&shallower));
}

#[test]
fn a_deep_tree_copies_within_and_across_stores() {
    let mut t = parse_xml(&deep_xml()).unwrap();
    let mut store = Store::new();
    let across = store.deep_copy_from(&t.store, t.root);
    assert!(value_equiv(&store, across, &t.store, t.root));
    let within = t.store.deep_copy(t.root);
    assert!(value_equiv(&t.store, within, &t.store, t.root));
    assert_eq!(t.store.len(), 2 * (DEPTH + 1));
}

#[test]
fn a_view_of_a_deep_root_serializes_its_input() {
    let xml = deep_xml();
    let doc: Tree = parse_xml(&xml).unwrap();
    let dtd = Dtd::parse_compact("a -> a*", "a").unwrap();
    let mut eng = MaintenanceEngine::new(&dtd, doc, MaintainStrategy::Pruned, Jobs::Fixed(1));
    eng.register_view("root", &parse_query("/self::node()").unwrap())
        .unwrap();
    assert_eq!(eng.serialized_views(), vec![format!("<view>{xml}</view>")]);
}
