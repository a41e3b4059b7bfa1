//! Value equivalence `(σ, l) ≅ (σ', l')` (paper §2).
//!
//! Two locations are value equivalent iff the subtrees rooted at them are
//! isomorphic: same shape, same tags, same text values — possibly different
//! locations. This is the notion of equality used by Definition 2.4
//! (independence) to compare query results before and after an update.

use crate::node::NodeId;
use crate::store::Store;

/// Returns `true` iff `(σ1, l1) ≅ (σ2, l2)`.
pub fn value_equiv(s1: &Store, l1: NodeId, s2: &Store, l2: NodeId) -> bool {
    match (s1.text_value(l1), s2.text_value(l2)) {
        (Some(a), Some(b)) => a == b,
        (None, None) => {
            s1.tag(l1) == s2.tag(l2) && {
                let mut c1 = s1.children_iter(l1);
                let mut c2 = s2.children_iter(l2);
                loop {
                    match (c1.next(), c2.next()) {
                        (None, None) => break true,
                        (Some(a), Some(b)) => {
                            if !value_equiv(s1, a, s2, b) {
                                break false;
                            }
                        }
                        _ => break false,
                    }
                }
            }
        }
        _ => false,
    }
}

/// Value equivalence on location sequences: `(σ1, L1) ≅ (σ2, L2)` iff the
/// sequences have the same length and are pointwise value equivalent.
pub fn sequence_equiv(s1: &Store, l1: &[NodeId], s2: &Store, l2: &[NodeId]) -> bool {
    l1.len() == l2.len()
        && l1
            .iter()
            .zip(l2.iter())
            .all(|(&a, &b)| value_equiv(s1, a, s2, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    #[test]
    fn identical_structures_are_equivalent() {
        let t1 = TreeBuilder::elem("a")
            .child(TreeBuilder::elem("b").text("x"))
            .build();
        let t2 = TreeBuilder::elem("a")
            .child(TreeBuilder::elem("b").text("x"))
            .build();
        assert!(value_equiv(&t1.store, t1.root, &t2.store, t2.root));
    }

    #[test]
    fn differing_tag_text_or_arity_breaks_equivalence() {
        let base = TreeBuilder::elem("a").child(TreeBuilder::elem("b")).build();
        let other_tag = TreeBuilder::elem("a").child(TreeBuilder::elem("c")).build();
        let extra_child = TreeBuilder::elem("a")
            .child(TreeBuilder::elem("b"))
            .child(TreeBuilder::elem("b"))
            .build();
        let text_instead = TreeBuilder::elem("a").text("b").build();
        assert!(!value_equiv(
            &base.store,
            base.root,
            &other_tag.store,
            other_tag.root
        ));
        assert!(!value_equiv(
            &base.store,
            base.root,
            &extra_child.store,
            extra_child.root
        ));
        assert!(!value_equiv(
            &base.store,
            base.root,
            &text_instead.store,
            text_instead.root
        ));
    }

    #[test]
    fn sequence_equivalence_checks_length_and_order() {
        let t = TreeBuilder::elem("r")
            .child(TreeBuilder::elem("a"))
            .child(TreeBuilder::elem("b"))
            .build();
        let kids = t.store.children(t.root);
        assert!(sequence_equiv(&t.store, &kids, &t.store, &kids));
        let swapped = vec![kids[1], kids[0]];
        assert!(!sequence_equiv(&t.store, &kids, &t.store, &swapped));
        assert!(!sequence_equiv(&t.store, &kids, &t.store, &kids[..1]));
    }
}
