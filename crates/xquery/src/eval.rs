//! Evaluation of queries and updates (paper §2).
//!
//! * Query evaluation `σ, γ ⊨ q ⇒ σ_q, L_q`: evaluating a query over a store
//!   may allocate new locations (element construction) and returns the
//!   sequence of result locations.
//! * Update evaluation follows the W3C three-phase semantics: (i) build the
//!   update pending list `w` of primitive commands, (ii) sanity checks (a
//!   target expression must return a single node), (iii) apply `w` to the
//!   store, `σ_w ⊢ w ⇝ σ_u`.
//!
//! ## Document order
//!
//! Every step `$x/axis::test` returns distinct nodes in document order:
//! ordered by the location of their tree's root, then by preorder rank
//! inside the tree. From a single context node each axis is enumerated in
//! that order directly (`ancestor` and `ancestor-or-self` climb
//! nearest-first and are reversed), so no sort runs and no step walks the
//! whole document. Desugared paths bind one node per `for` iteration, so
//! this is the common case. Only a context of several nodes (a `let`-bound
//! sequence) goes through [`Store::doc_order_dedup`], which ranks every
//! tree the results lie in.
//!
//! A `for` whose body is a single step on its own variable (every
//! desugared `//t` and `a/b`) runs the step straight from each source node,
//! without binding the variable. Its output is the generic path's exactly:
//! the results of each iteration in document order, iterations in source
//! order, no dedup across them. So `for` order, not document order, decides
//! the overall sequence when source nodes nest (recursive `listitem` /
//! `parlist`).
//!
//! ## Descendant walks
//!
//! A desugared `//t` is `for $v in C return $v/child::t`, where `C` is
//! `$x/descendant-or-self::node()` or `for $p in S return
//! $p/descendant-or-self::node()`. It runs as one preorder walk per subtree
//! root (`$x`, or each node of `S`) that emits each visited node's `t`
//! children as it goes, so the intermediate sequence of every node below
//! is never built, and the output is the generic path's, order and
//! duplicates included. A `$x` bound to several nodes (a `let`-bound
//! sequence) is not fused: its `descendant-or-self` step sorts and dedups
//! the subtrees first, as above. Named `descendant` and
//! `descendant-or-self` steps use the same walk.
//!
//! A walk looking for a tag or for `text()` skips every subtree whose root
//! [`Store::may_have_below`] proves free of that label, which the store's
//! label-reach summary answers for frozen stores (see
//! [`qui_xmlstore::store`]). Stores that were never frozen, nodes built or inserted
//! after the summary, `node()` and `*` tests are walked in full. A tag that
//! was never interned selects nothing without a walk.

use crate::ast::{Axis, NodeTest, Query, Update, UpdatePos};
use qui_xmlstore::{value_equiv, NodeId, Store, Sym, Tree, TEXT_SYM};
use std::collections::HashMap;
use std::fmt;

/// A runtime evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable was used but never bound.
    UnboundVariable(String),
    /// A target expression of an update returned `n ≠ 1` nodes (the W3C
    /// semantics raises a dynamic error in this case).
    TargetNotSingleNode {
        /// The update operation ("delete", "insert", …).
        operation: &'static str,
        /// How many nodes the target expression produced.
        found: usize,
    },
    /// Rename applied to a text node.
    RenameOnTextNode,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound variable {v}"),
            EvalError::TargetNotSingleNode { operation, found } => write!(
                f,
                "target of {operation} must select exactly one node, found {found}"
            ),
            EvalError::RenameOnTextNode => write!(f, "rename target is a text node"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A primitive command of an update pending list: `ins(L, pos, l)`, `del(l)`,
/// `repl(l, L)` or `ren(l, a)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateCommand {
    /// Insert the (already copied) roots `content` at `pos` relative to
    /// `target`.
    Ins {
        /// Roots of the trees to insert (fresh copies in the store).
        content: Vec<NodeId>,
        /// Where to insert relative to the target.
        pos: UpdatePos,
        /// The target location.
        target: NodeId,
    },
    /// Delete the subtree rooted at `target`.
    Del {
        /// The target location.
        target: NodeId,
    },
    /// Replace `target` with the (already copied) roots `content`.
    Repl {
        /// The target location.
        target: NodeId,
        /// Roots of the replacement trees.
        content: Vec<NodeId>,
    },
    /// Rename element `target` to `new_tag`.
    Ren {
        /// The target location.
        target: NodeId,
        /// The new tag.
        new_tag: String,
    },
}

impl UpdateCommand {
    /// The source/content locations of the command (roots of inserted or
    /// replacing trees) — the paper's *critical locations*.
    pub fn content(&self) -> &[NodeId] {
        match self {
            UpdateCommand::Ins { content, .. } | UpdateCommand::Repl { content, .. } => content,
            _ => &[],
        }
    }
}

/// The result of evaluating a query: the result sequence (the store is
/// mutated in place, only ever growing).
pub type Evaluation = Vec<NodeId>;

/// The variable environment `γ`, mapping variables to location sequences.
pub type Env = HashMap<String, Vec<NodeId>>;

/// Evaluates `q` over `store`, with every free variable bound to `root`
/// (quasi-closed convention of §3.4). New element/text constructions are
/// allocated in `store`.
pub fn evaluate_query(store: &mut Store, root: NodeId, q: &Query) -> Result<Evaluation, EvalError> {
    let mut env = Env::new();
    for v in q.free_vars() {
        env.insert(v, vec![root]);
    }
    let mut ev = Evaluator { store };
    ev.eval(q, &mut env)
}

/// Evaluates `q` with an explicit environment.
pub fn evaluate_query_with_env(
    store: &mut Store,
    env: &Env,
    q: &Query,
) -> Result<Evaluation, EvalError> {
    let mut ev = Evaluator { store };
    ev.eval(q, &mut env.clone())
}

/// Evaluates `q` like [`evaluate_query`] but streams the result locations
/// into `sink` instead of returning a materialized sequence.
///
/// The sink observes results in document-result order (the order
/// [`evaluate_query`] would return them in). Returns the number of results
/// delivered.
pub fn evaluate_query_into(
    store: &mut Store,
    root: NodeId,
    q: &Query,
    sink: &mut dyn qui_xmlstore::ResultSink,
) -> Result<usize, EvalError> {
    let results = evaluate_query(store, root, q)?;
    for &l in &results {
        sink.push(store, l);
    }
    Ok(results.len())
}

/// Phase (i) + (ii) of update evaluation: builds the update pending list for
/// `u`, binding free variables to `root`. Source trees of insert/replace are
/// copied into the store at this point, matching `σ ⊆ σ_w`.
pub fn evaluate_update(
    store: &mut Store,
    root: NodeId,
    u: &Update,
) -> Result<Vec<UpdateCommand>, EvalError> {
    let mut env = Env::new();
    for v in u.free_vars() {
        env.insert(v, vec![root]);
    }
    let mut ev = Evaluator { store };
    let mut upl = Vec::new();
    ev.eval_update(u, &mut env, &mut upl)?;
    Ok(upl)
}

/// Phase (iii): applies a pending list to the store (`σ_w ⊢ w ⇝ σ_u`).
///
/// Commands are applied grouped by kind in the W3C-prescribed order:
/// insertions first, then renames, then replacements, then deletions. Within
/// a group, list order is preserved.
///
/// Returns whether the document's value may have changed: `false` only if
/// every command was an identity — an insert of no content, a delete of a
/// node already without a parent, a rename to the node's own tag, or a
/// replace of a parentless node or by exactly one node value equivalent
/// ([`qui_xmlstore::value_equiv`]) to the target when it is applied. Every
/// command is applied either way: an identity replace still detaches the
/// target's subtree, which a later delete in the same list may target.
pub fn apply_pending_list(store: &mut Store, upl: &[UpdateCommand]) -> bool {
    let mut changed = false;
    for cmd in upl {
        if let UpdateCommand::Ins {
            content,
            pos,
            target,
        } = cmd
        {
            changed |= !content.is_empty();
            match pos {
                UpdatePos::Into | UpdatePos::IntoAsLast => {
                    store.append_children(*target, content);
                }
                UpdatePos::IntoAsFirst => {
                    store.insert_children_at(*target, 0, content);
                }
                UpdatePos::Before => {
                    store.insert_before(*target, content);
                }
                UpdatePos::After => {
                    store.insert_after(*target, content);
                }
            }
        }
    }
    for cmd in upl {
        if let UpdateCommand::Ren { target, new_tag } = cmd {
            changed |= store.tag(*target).is_some_and(|t| t != new_tag);
            store.rename(*target, new_tag);
        }
    }
    for cmd in upl {
        if let UpdateCommand::Repl { target, content } = cmd {
            changed |= store.parent(*target).is_some()
                && !matches!(content[..], [c] if value_equiv(store, c, store, *target));
            store.replace(*target, content);
        }
    }
    for cmd in upl {
        if let UpdateCommand::Del { target } = cmd {
            changed |= store.parent(*target).is_some();
            store.detach(*target);
        }
    }
    changed
}

/// Convenience: evaluates and applies an update on a tree in place
/// (`σ, γ ⊨ u : σ_u`), returning the pending list that was applied.
pub fn run_update(tree: &mut Tree, u: &Update) -> Result<Vec<UpdateCommand>, EvalError> {
    let root = tree.root;
    let upl = evaluate_update(&mut tree.store, root, u)?;
    apply_pending_list(&mut tree.store, &upl);
    Ok(upl)
}

struct Evaluator<'a> {
    store: &'a mut Store,
}

/// A node test resolved against the store's symbol table once per step.
#[derive(Clone, Copy)]
enum ResolvedTest {
    AnyNode,
    Text,
    AnyElement,
    /// A tag test; `None` when the name was never interned, so nothing
    /// matches.
    Tag(Option<Sym>),
}

impl ResolvedTest {
    fn resolve(store: &Store, test: &NodeTest) -> Self {
        match test {
            NodeTest::AnyNode => ResolvedTest::AnyNode,
            NodeTest::Text => ResolvedTest::Text,
            NodeTest::AnyElement => ResolvedTest::AnyElement,
            NodeTest::Tag(t) => ResolvedTest::Tag(store.symbols().lookup(t)),
        }
    }

    #[inline]
    fn matches(self, store: &Store, n: NodeId) -> bool {
        match self {
            ResolvedTest::AnyNode => true,
            ResolvedTest::Text => store.is_text(n),
            ResolvedTest::AnyElement => store.is_element(n),
            // `sym` is `None` for text nodes, so an element named `#text`
            // matches `Tag("#text")` and text nodes never do.
            ResolvedTest::Tag(sym) => sym.is_some() && store.sym(n) == sym,
        }
    }

    /// The label every node passing the test carries, if there is one: a
    /// descendant walk skips the subtrees where it cannot occur.
    #[inline]
    fn label(self) -> Option<Sym> {
        match self {
            ResolvedTest::Text => Some(TEXT_SYM),
            ResolvedTest::Tag(sym) => sym,
            ResolvedTest::AnyNode | ResolvedTest::AnyElement => None,
        }
    }

    /// `true` for a tag that was never interned: no node can pass.
    #[inline]
    fn matches_nothing(self) -> bool {
        matches!(self, ResolvedTest::Tag(None))
    }
}

/// Binds `var` to `value`, returning the binding it shadows.
fn bind(env: &mut Env, var: &str, value: Vec<NodeId>) -> Option<Vec<NodeId>> {
    match env.get_mut(var) {
        Some(slot) => Some(std::mem::replace(slot, value)),
        None => {
            env.insert(var.to_string(), value);
            None
        }
    }
}

/// Undoes [`bind`]: restores the shadowed binding, or unbinds `var`.
fn unbind(env: &mut Env, var: &str, shadowed: Option<Vec<NodeId>>) {
    match shadowed {
        Some(v) => *env.get_mut(var).expect("bound") = v,
        None => {
            env.remove(var);
        }
    }
}

/// Rebinds `var`'s slot (bound by [`bind`]) to the single node `l`, reusing
/// the slot's allocation.
fn rebind_single(env: &mut Env, var: &str, l: NodeId) {
    let slot = env.get_mut(var).expect("bound");
    slot.clear();
    slot.push(l);
}

impl<'a> Evaluator<'a> {
    fn eval(&mut self, q: &Query, env: &mut Env) -> Result<Vec<NodeId>, EvalError> {
        let mut out = Vec::new();
        self.eval_into(q, env, &mut out)?;
        Ok(out)
    }

    /// Evaluates `q`, appending its result sequence to `out`. `env` is
    /// restored to its entry state on success.
    fn eval_into(
        &mut self,
        q: &Query,
        env: &mut Env,
        out: &mut Vec<NodeId>,
    ) -> Result<(), EvalError> {
        match q {
            Query::Empty => {}
            Query::Concat(a, b) => {
                self.eval_into(a, env, out)?;
                self.eval_into(b, env, out)?;
            }
            Query::StringLit(s) => out.push(self.store.new_text(s)),
            Query::Element { tag, content } => {
                let inner = self.eval(content, env)?;
                // Element construction copies its content (XQuery semantics).
                let copies: Vec<NodeId> = inner.iter().map(|&l| self.store.deep_copy(l)).collect();
                out.push(self.store.new_element(tag, copies));
            }
            Query::Step { var, axis, test } => {
                let ctx = env
                    .get(var)
                    .ok_or_else(|| EvalError::UnboundVariable(var.clone()))?;
                let store = &*self.store;
                let test = ResolvedTest::resolve(store, test);
                let start = out.len();
                for &l in ctx {
                    step_into(store, l, *axis, test, out);
                }
                // From one context node every axis already yields distinct
                // nodes in document order; only several context nodes need
                // the sort.
                if ctx.len() > 1 {
                    let mut results = out.split_off(start);
                    store.doc_order_dedup(&mut results);
                    out.append(&mut results);
                }
            }
            Query::For { var, source, ret } => {
                // A desugared `//t`, `for $v in C return $v/child::t` where
                // `C` is every node of some subtrees in preorder: one walk
                // per subtree root emits each visited node's `t` children.
                if let Query::Step {
                    var: ctx,
                    axis: Axis::Child,
                    test,
                } = &**ret
                {
                    if ctx == var {
                        if let Some(roots) = self.subtree_roots(source, env)? {
                            let store = &*self.store;
                            let test = ResolvedTest::resolve(store, test);
                            if !test.matches_nothing() {
                                for r in roots {
                                    children_of_descendants(store, r, test, out);
                                }
                            }
                            return Ok(());
                        }
                    }
                }
                let seq = self.eval(source, env)?;
                match &**ret {
                    // A desugared path step, `for $v in q return
                    // $v/axis::test`: each iteration's context is the one
                    // node bound to `$v`, so the step needs no binding and
                    // no dedup, and the test resolves once.
                    Query::Step {
                        var: ctx,
                        axis,
                        test,
                    } if ctx == var => {
                        let store = &*self.store;
                        let test = ResolvedTest::resolve(store, test);
                        for l in seq {
                            step_into(store, l, *axis, test, out);
                        }
                    }
                    _ => {
                        let shadowed = bind(env, var, Vec::with_capacity(1));
                        for l in seq {
                            rebind_single(env, var, l);
                            self.eval_into(ret, env, out)?;
                        }
                        unbind(env, var, shadowed);
                    }
                }
            }
            Query::Let { var, source, ret } => {
                let seq = self.eval(source, env)?;
                let shadowed = bind(env, var, seq);
                self.eval_into(ret, env, out)?;
                unbind(env, var, shadowed);
            }
            Query::If { cond, then, els } => {
                // The condition's results only decide the branch: evaluate
                // them into `out`'s tail and drop them again.
                let start = out.len();
                self.eval_into(cond, env, out)?;
                let holds = out.len() > start;
                out.truncate(start);
                self.eval_into(if holds { then } else { els }, env, out)?;
            }
        }
        Ok(())
    }

    fn eval_update(
        &mut self,
        u: &Update,
        env: &mut Env,
        upl: &mut Vec<UpdateCommand>,
    ) -> Result<(), EvalError> {
        match u {
            Update::Empty => Ok(()),
            Update::Concat(a, b) => {
                self.eval_update(a, env, upl)?;
                self.eval_update(b, env, upl)
            }
            Update::For { var, source, body } => {
                let seq = self.eval(source, env)?;
                let shadowed = bind(env, var, Vec::with_capacity(1));
                for l in seq {
                    rebind_single(env, var, l);
                    self.eval_update(body, env, upl)?;
                }
                unbind(env, var, shadowed);
                Ok(())
            }
            Update::Let { var, source, body } => {
                let seq = self.eval(source, env)?;
                let shadowed = bind(env, var, seq);
                self.eval_update(body, env, upl)?;
                unbind(env, var, shadowed);
                Ok(())
            }
            Update::If { cond, then, els } => {
                let c = self.eval(cond, env)?;
                if c.is_empty() {
                    self.eval_update(els, env, upl)
                } else {
                    self.eval_update(then, env, upl)
                }
            }
            Update::Delete { target } => {
                // `delete` accepts any number of target nodes (the W3C allows
                // a sequence here); each becomes a del command.
                let targets = self.eval(target, env)?;
                for t in targets {
                    upl.push(UpdateCommand::Del { target: t });
                }
                Ok(())
            }
            Update::Rename { target, new_tag } => {
                let t = self.single_target(target, env, "rename")?;
                if self.store.is_text(t) {
                    return Err(EvalError::RenameOnTextNode);
                }
                upl.push(UpdateCommand::Ren {
                    target: t,
                    new_tag: new_tag.clone(),
                });
                Ok(())
            }
            Update::Insert {
                source,
                pos,
                target,
            } => {
                let t = self.single_target(target, env, "insert")?;
                let src = self.eval(source, env)?;
                let copies: Vec<NodeId> = src.iter().map(|&l| self.store.deep_copy(l)).collect();
                upl.push(UpdateCommand::Ins {
                    content: copies,
                    pos: *pos,
                    target: t,
                });
                Ok(())
            }
            Update::Replace { target, source } => {
                let t = self.single_target(target, env, "replace")?;
                let src = self.eval(source, env)?;
                let copies: Vec<NodeId> = src.iter().map(|&l| self.store.deep_copy(l)).collect();
                upl.push(UpdateCommand::Repl {
                    target: t,
                    content: copies,
                });
                Ok(())
            }
        }
    }

    /// When `source` enumerates whole subtrees in preorder, their roots:
    /// `$x/descendant-or-self::node()` with `$x` bound to at most one node,
    /// or `for $p in S return $p/descendant-or-self::node()` (`S`
    /// evaluated here). `None` for any other shape, with nothing evaluated;
    /// a `$x` of several nodes is one, since that step sorts and dedups.
    fn subtree_roots(
        &mut self,
        source: &Query,
        env: &mut Env,
    ) -> Result<Option<Vec<NodeId>>, EvalError> {
        const fn is_dos_node(axis: Axis, test: &NodeTest) -> bool {
            matches!((axis, test), (Axis::DescendantOrSelf, NodeTest::AnyNode))
        }
        match source {
            Query::Step { var, axis, test } if is_dos_node(*axis, test) => {
                let ctx = env
                    .get(var)
                    .ok_or_else(|| EvalError::UnboundVariable(var.clone()))?;
                Ok((ctx.len() <= 1).then(|| ctx.clone()))
            }
            Query::For {
                var,
                source: inner,
                ret,
            } => match &**ret {
                Query::Step {
                    var: ctx,
                    axis,
                    test,
                } if ctx == var && is_dos_node(*axis, test) => Ok(Some(self.eval(inner, env)?)),
                _ => Ok(None),
            },
            _ => Ok(None),
        }
    }

    fn single_target(
        &mut self,
        target: &Query,
        env: &mut Env,
        operation: &'static str,
    ) -> Result<NodeId, EvalError> {
        let nodes = self.eval(target, env)?;
        if nodes.len() != 1 {
            return Err(EvalError::TargetNotSingleNode {
                operation,
                found: nodes.len(),
            });
        }
        Ok(nodes[0])
    }
}

/// Appends the nodes of `axis` from `l` that pass `test`, in document order,
/// without allocating.
fn step_into(store: &Store, l: NodeId, axis: Axis, test: ResolvedTest, out: &mut Vec<NodeId>) {
    let mut push = |n: NodeId| {
        if test.matches(store, n) {
            out.push(n);
        }
    };
    match axis {
        Axis::SelfAxis => push(l),
        Axis::Child => store.children_iter(l).for_each(push),
        Axis::Descendant | Axis::DescendantOrSelf => {
            if !test.matches_nothing() {
                pruned_preorder(store, l, test.label(), |n, _| {
                    if n != l || axis == Axis::DescendantOrSelf {
                        push(n);
                    }
                });
            }
        }
        Axis::Parent => store.parent(l).into_iter().for_each(push),
        Axis::Ancestor | Axis::AncestorOrSelf => {
            // Climbing yields the ancestors nearest-first; reverse them.
            let from = out.len();
            let mut cur = if axis == Axis::Ancestor {
                store.parent(l)
            } else {
                Some(l)
            };
            while let Some(n) = cur {
                if test.matches(store, n) {
                    out.push(n);
                }
                cur = store.parent(n);
            }
            out[from..].reverse();
        }
        Axis::PrecedingSibling => {
            if let Some(p) = store.parent(l) {
                store
                    .children_iter(p)
                    .take_while(|&c| c != l)
                    .for_each(push);
            }
        }
        Axis::FollowingSibling => {
            let mut cur = store.next_sibling(l);
            while let Some(n) = cur {
                push(n);
                cur = store.next_sibling(n);
            }
        }
    }
}

/// Walks `root`'s subtree in preorder, calling `visit(n, entered)` on each
/// node reached. The walk enters a node (goes on to its children) unless
/// `below` is a label that [`Store::may_have_below`] proves absent under
/// it; `root` is always reached.
fn pruned_preorder(
    store: &Store,
    root: NodeId,
    below: Option<Sym>,
    mut visit: impl FnMut(NodeId, bool),
) {
    let mut cur = root;
    loop {
        let entered = below.is_none_or(|label| store.may_have_below(cur, label));
        visit(cur, entered);
        if let Some(child) = store.first_child(cur).filter(|_| entered) {
            cur = child;
            continue;
        }
        // Climb until a next sibling exists, stopping at the root (whose
        // own siblings are outside the subtree).
        loop {
            if cur == root {
                return;
            }
            if let Some(s) = store.next_sibling(cur) {
                cur = s;
                break;
            }
            cur = store.parent(cur).expect("walk stays inside the subtree");
        }
    }
}

/// Appends, for each node of `root`'s subtree in preorder, its children
/// that pass `test`: `$v/child::t` over every `$v` of
/// `root/descendant-or-self::node()`, without building that sequence.
/// A node without a `test` label below it is skipped with its subtree.
fn children_of_descendants(store: &Store, root: NodeId, test: ResolvedTest, out: &mut Vec<NodeId>) {
    pruned_preorder(store, root, test.label(), |n, entered| {
        if entered {
            out.extend(store.children_iter(n).filter(|&c| test.matches(store, c)));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_query, parse_update};
    use qui_xmlstore::{parse_xml, serialize_node};

    fn eval_strings(xml: &str, q: &str) -> Vec<String> {
        let mut t = parse_xml(xml).unwrap();
        let query = parse_query(q).unwrap();
        let root = t.root;
        let result = evaluate_query(&mut t.store, root, &query).unwrap();
        result
            .into_iter()
            .map(|l| serialize_node(&t.store, l))
            .collect()
    }

    fn update_doc(xml: &str, u: &str) -> String {
        let mut t = parse_xml(xml).unwrap();
        let upd = parse_update(u).unwrap();
        run_update(&mut t, &upd).unwrap();
        t.to_xml()
    }

    #[test]
    fn sink_delivery_matches_materialized_results() {
        let mut t = parse_xml("<doc><a><c>1</c></a><b><c>2</c></b></doc>").unwrap();
        let query = parse_query("//c").unwrap();
        let root = t.root;
        let expected = evaluate_query(&mut t.store, root, &query).unwrap();
        let mut sink = qui_xmlstore::CollectSink::new();
        let n = evaluate_query_into(&mut t.store, root, &query, &mut sink).unwrap();
        assert_eq!(n, expected.len());
        assert_eq!(sink.into_nodes(), expected);
        let mut count = qui_xmlstore::CountSink::new();
        evaluate_query_into(&mut t.store, root, &query, &mut count).unwrap();
        assert_eq!(count.count(), 2);
    }

    #[test]
    fn simple_child_paths() {
        let r = eval_strings("<doc><a><c/></a><b><c/></b></doc>", "/a");
        assert_eq!(r, vec!["<a><c/></a>"]);
        let r = eval_strings("<doc><a><c/></a><b><c/></b></doc>", "/a/c");
        assert_eq!(r, vec!["<c/>"]);
        let r = eval_strings("<doc><a/></doc>", "/zzz");
        assert!(r.is_empty());
    }

    #[test]
    fn descendant_paths_in_document_order() {
        let r = eval_strings(
            "<doc><a><c>1</c></a><b><c>2</c></b><a><c>3</c></a></doc>",
            "//c",
        );
        assert_eq!(r, vec!["<c>1</c>", "<c>2</c>", "<c>3</c>"]);
        // q1 of the paper: //a//c only selects c under a.
        let r = eval_strings(
            "<doc><a><c>1</c></a><b><c>2</c></b><a><c>3</c></a></doc>",
            "//a//c",
        );
        assert_eq!(r, vec!["<c>1</c>", "<c>3</c>"]);
    }

    #[test]
    fn upward_and_sibling_axes() {
        let xml = "<doc><a><c>1</c></a><b><c>2</c></b></doc>";
        let r = eval_strings(xml, "for $c in //c return $c/parent::node()");
        assert_eq!(r, vec!["<a><c>1</c></a>", "<b><c>2</c></b>"]);
        let r = eval_strings(xml, "for $a in /a return $a/following-sibling::b");
        assert_eq!(r, vec!["<b><c>2</c></b>"]);
        let r = eval_strings(xml, "for $b in /b return $b/preceding-sibling::a");
        assert_eq!(r, vec!["<a><c>1</c></a>"]);
        // Path encoding note: `//c/ancestor::doc` desugars to an iteration,
        // so the doc root is reported once per c node (duplicates are only
        // removed within a single step, as the paper's encoding prescribes).
        let r = eval_strings(xml, "//c/ancestor::doc");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn predicates_filter() {
        let xml = "<doc><p><x/><y/></p><p><x/></p><p><y/></p></doc>";
        let r = eval_strings(xml, "/p[x]/y");
        assert_eq!(r, vec!["<y/>"]);
        let r = eval_strings(xml, "/p[x and y]");
        assert_eq!(r.len(), 1);
        let r = eval_strings(xml, "/p[x or y]");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn element_construction_copies_content() {
        let xml = "<doc><t>hello</t></doc>";
        let r = eval_strings(xml, "for $t in /t return <wrapped>{$t}</wrapped>");
        assert_eq!(r, vec!["<wrapped><t>hello</t></wrapped>"]);
        let r = eval_strings(xml, "<out>{\"txt\"}</out>");
        assert_eq!(r, vec!["<out>txt</out>"]);
    }

    #[test]
    fn if_let_semantics() {
        let xml = "<doc><a/></doc>";
        let r = eval_strings(xml, "if (/a) then \"yes\" else \"no\"");
        assert_eq!(r, vec!["yes"]);
        let r = eval_strings(xml, "if (/b) then \"yes\" else \"no\"");
        assert_eq!(r, vec!["no"]);
        let r = eval_strings(xml, "let $x := /a return ($x, $x)");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn text_node_test() {
        let xml = "<doc><a>one</a><a><b/></a></doc>";
        let r = eval_strings(xml, "/a/text()");
        assert_eq!(r, vec!["one"]);
    }

    #[test]
    fn delete_update() {
        let out = update_doc("<doc><a><c/></a><b><c/></b></doc>", "delete //b//c");
        assert_eq!(out, "<doc><a><c/></a><b/></doc>");
        // u1 does not affect q1 (//a//c): the paper's motivating pair.
        let out = update_doc("<doc><a><c/></a><b><c/></b></doc>", "delete //a//c");
        assert_eq!(out, "<doc><a/><b><c/></b></doc>");
    }

    #[test]
    fn insert_updates_all_positions() {
        let xml = "<doc><k><a/></k></doc>";
        assert_eq!(
            update_doc(xml, "for $x in //k return insert <n/> into $x"),
            "<doc><k><a/><n/></k></doc>"
        );
        assert_eq!(
            update_doc(xml, "for $x in //k return insert <n/> as first into $x"),
            "<doc><k><n/><a/></k></doc>"
        );
        assert_eq!(
            update_doc(xml, "for $x in //a return insert <n/> before $x"),
            "<doc><k><n/><a/></k></doc>"
        );
        assert_eq!(
            update_doc(xml, "for $x in //a return insert <n/> after $x"),
            "<doc><k><a/><n/></k></doc>"
        );
    }

    #[test]
    fn rename_and_replace_updates() {
        assert_eq!(
            update_doc("<doc><a/></doc>", "for $x in //a return rename $x as b"),
            "<doc><b/></doc>"
        );
        assert_eq!(
            update_doc(
                "<doc><a><old/></a></doc>",
                "for $x in //old return replace $x with <new/>"
            ),
            "<doc><a><new/></a></doc>"
        );
    }

    /// Applies `u` to `xml`; returns the change flag, after checking that a
    /// `false` flag left the serialized document as it was.
    fn change_flag(xml: &str, u: &str) -> bool {
        let mut t = parse_xml(xml).unwrap();
        let upd = parse_update(u).unwrap();
        let root = t.root;
        let upl = evaluate_update(&mut t.store, root, &upd).unwrap();
        let changed = apply_pending_list(&mut t.store, &upl);
        if !changed {
            assert_eq!(t.to_xml(), xml, "`{u}` reported no change");
        }
        changed
    }

    #[test]
    fn identity_commands_report_no_change() {
        let xml = "<doc><k><a>x</a></k><b/></doc>";
        assert!(!change_flag(xml, "for $x in //a return rename $x as a"));
        assert!(!change_flag(
            xml,
            "for $x in //a return replace $x with <a>{\"x\"}</a>"
        ));
        assert!(!change_flag(xml, "for $x in //k return replace $x with /k"));
        assert!(!change_flag(xml, "for $x in //k return insert () into $x"));
        assert!(!change_flag(
            xml,
            "for $x in //b return insert //zzz after $x"
        ));
        assert!(!change_flag(xml, "delete //zzz"));
        assert!(!change_flag(xml, "for $x in //zzz return rename $x as q"));
        assert!(!change_flag(xml, "()"));
    }

    #[test]
    fn effective_commands_report_a_change() {
        let xml = "<doc><k><a>x</a></k><b/></doc>";
        assert!(change_flag(xml, "for $x in //k return insert <n/> into $x"));
        assert!(change_flag(xml, "delete //b"));
        assert!(change_flag(xml, "for $x in //a return rename $x as c"));
        assert!(change_flag(
            xml,
            "for $x in //a return replace $x with <a>{\"y\"}</a>"
        ));
        // Replacing one node by two value-equal copies of it changes it.
        assert!(change_flag(
            xml,
            "for $x in //b return replace $x with (<b/>, <b/>)"
        ));
        assert!(change_flag(xml, "for $x in //b return replace $x with ()"));
    }

    #[test]
    fn a_change_undone_later_in_the_same_list_is_still_reported() {
        // The insert lands first; the replace then compares the grown `k`
        // against the content, which is `k`'s old value. The document ends
        // where it began, but the flag only ever over-reports a change.
        let xml = "<doc><k><a/></k></doc>";
        let mut t = parse_xml(xml).unwrap();
        let u = parse_update(
            "for $x in //k return insert <n/> into $x, \
             for $x in //k return replace $x with <k><a/></k>",
        )
        .unwrap();
        let root = t.root;
        let upl = evaluate_update(&mut t.store, root, &u).unwrap();
        assert!(apply_pending_list(&mut t.store, &upl));
        assert_eq!(t.to_xml(), xml);
    }

    #[test]
    fn identity_replace_still_detaches_for_a_later_delete() {
        // The replace is an identity, but the delete of `a` (a child of the
        // replaced `k`) still runs and reports a change conservatively:
        // its target keeps a parent, though that parent left the document.
        let xml = "<doc><k><a/></k></doc>";
        let mut t = parse_xml(xml).unwrap();
        let u =
            parse_update("for $x in //k return replace $x with <k><a/></k>, delete //a").unwrap();
        let root = t.root;
        let upl = evaluate_update(&mut t.store, root, &u).unwrap();
        assert!(apply_pending_list(&mut t.store, &upl));
        assert_eq!(t.to_xml(), xml);
    }

    #[test]
    fn insert_copies_existing_nodes() {
        // Inserting an existing node inserts a *copy*; the original stays.
        let out = update_doc(
            "<doc><src><v>1</v></src><dst/></doc>",
            "for $d in //dst return insert /src/v into $d",
        );
        assert_eq!(out, "<doc><src><v>1</v></src><dst><v>1</v></dst></doc>");
    }

    #[test]
    fn target_arity_errors() {
        let mut t = parse_xml("<doc><a/><a/></doc>").unwrap();
        let u = parse_update("rename /a as b").unwrap();
        let root = t.root;
        let err = evaluate_update(&mut t.store, root, &u).unwrap_err();
        assert!(matches!(
            err,
            EvalError::TargetNotSingleNode {
                operation: "rename",
                found: 2
            }
        ));
    }

    #[test]
    fn unbound_variable_error() {
        let mut t = parse_xml("<doc/>").unwrap();
        let q = Query::step("$nope", Axis::Child, NodeTest::AnyNode);
        let root = t.root;
        let err = evaluate_query_with_env(&mut t.store, &Env::new(), &q).unwrap_err();
        assert!(matches!(err, EvalError::UnboundVariable(_)));
        // bound through the quasi-closed convention it works:
        assert!(evaluate_query(&mut t.store, root, &q).is_ok());
    }

    #[test]
    fn paper_q2_u2_pair_behaves_independently() {
        // q2 = //title, u2 = for x in //book return insert <author/> into x
        let xml = "<bib><book><title>t1</title></book><book><title>t2</title></book></bib>";
        let before = eval_strings(xml, "//title");
        let updated = update_doc(xml, "for $x in //book return insert <author/> into $x");
        let mut t2 = parse_xml(&updated).unwrap();
        let q = parse_query("//title").unwrap();
        let root2 = t2.root;
        let after: Vec<String> = evaluate_query(&mut t2.store, root2, &q)
            .unwrap()
            .into_iter()
            .map(|l| serialize_node(&t2.store, l))
            .collect();
        assert_eq!(before, after);
    }
}
