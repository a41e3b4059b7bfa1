//! XML projections `t|_L` (paper §3.4).
//!
//! A projection of a tree `t` is obtained by discarding some subtrees. Given
//! a non-empty, upward-closed set of locations `L`, the projection `t|_L`
//! keeps exactly the nodes of `L` (and preserves their relative order). The
//! paper uses projections to state soundness of query chain inference: the
//! projection induced by the used/return chains contains every minimal
//! `q`-projection, i.e. evaluating `q` on the projection yields the same
//! (value-equivalent) result as evaluating it on `t`.

use crate::node::NodeId;
use crate::store::Store;
use crate::tree::Tree;
use std::collections::HashSet;

/// Closes `set` upward with respect to the parent relation of `store`,
/// i.e. adds all ancestors of every location in the set.
pub fn upward_closure(store: &Store, set: &HashSet<NodeId>) -> HashSet<NodeId> {
    let mut out = set.clone();
    for &l in set {
        let mut cur = store.parent(l);
        while let Some(p) = cur {
            if !out.insert(p) {
                break;
            }
            cur = store.parent(p);
        }
    }
    out
}

/// Computes the projection `t|_L` of `tree` onto the location set `keep`.
///
/// The root is always kept (the paper requires `L` to be non-empty and
/// upward closed; we close the set upward and add the root defensively).
/// The projected tree is built in a fresh store; the returned map is not
/// exposed since the analysis only needs value-level comparisons.
pub fn project(tree: &Tree, keep: &HashSet<NodeId>) -> Tree {
    let keep = {
        let mut k = upward_closure(&tree.store, keep);
        k.insert(tree.root);
        k
    };
    let mut store = Store::new();
    let root = copy_projected(&tree.store, tree.root, &keep, &mut store);
    Tree::new(store, root)
}

fn copy_projected(src: &Store, node: NodeId, keep: &HashSet<NodeId>, dst: &mut Store) -> NodeId {
    if let Some(text) = src.text_value(node) {
        return dst.new_text(text);
    }
    let kids: Vec<NodeId> = src
        .children_iter(node)
        .filter(|c| keep.contains(c))
        .map(|c| copy_projected(src, c, keep, dst))
        .collect();
    let sym = dst.intern(src.tag(node).expect("non-text nodes are elements"));
    dst.new_element_sym(sym, kids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    fn sample() -> Tree {
        TreeBuilder::elem("doc")
            .child(TreeBuilder::elem("a").child(TreeBuilder::elem("c").text("1")))
            .child(TreeBuilder::elem("b").child(TreeBuilder::elem("c").text("2")))
            .build()
    }

    #[test]
    fn upward_closure_adds_ancestors() {
        let t = sample();
        let a = t.store.children(t.root)[0];
        let c = t.store.children(a)[0];
        let mut set = HashSet::new();
        set.insert(c);
        let closed = upward_closure(&t.store, &set);
        assert!(closed.contains(&c));
        assert!(closed.contains(&a));
        assert!(closed.contains(&t.root));
        assert_eq!(closed.len(), 3);
    }

    #[test]
    fn projection_keeps_only_selected_branches() {
        let t = sample();
        let a = t.store.children(t.root)[0];
        let c_under_a = t.store.children(a)[0];
        let mut keep: HashSet<NodeId> = HashSet::new();
        keep.insert(c_under_a);
        keep.extend(t.store.descendants_or_self(c_under_a));
        let p = project(&t, &keep);
        // The b branch disappears, the a branch survives fully.
        let expected = TreeBuilder::elem("doc")
            .child(TreeBuilder::elem("a").child(TreeBuilder::elem("c").text("1")))
            .build();
        assert!(p.value_equiv(&expected));
    }

    #[test]
    fn empty_keep_set_projects_to_root_only() {
        let t = sample();
        let p = project(&t, &HashSet::new());
        assert_eq!(p.size(), 1);
        assert_eq!(p.root_tag(), Some("doc"));
    }

    #[test]
    fn full_keep_set_is_identity_up_to_value_equivalence() {
        let t = sample();
        let all: HashSet<NodeId> = t.reachable().into_iter().collect();
        let p = project(&t, &all);
        assert!(p.value_equiv(&t));
    }
}
