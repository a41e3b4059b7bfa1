//! Abstract syntax of the paper's XQuery and XQuery Update Facility
//! fragments (§2).

use std::collections::HashSet;
use std::fmt;

/// The XPath axes supported by the paper's fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `self::`
    SelfAxis,
    /// `child::`
    Child,
    /// `descendant::`
    Descendant,
    /// `descendant-or-self::`
    DescendantOrSelf,
    /// `parent::`
    Parent,
    /// `ancestor::`
    Ancestor,
    /// `ancestor-or-self::`
    AncestorOrSelf,
    /// `preceding-sibling::`
    PrecedingSibling,
    /// `following-sibling::`
    FollowingSibling,
}

impl Axis {
    /// The recursive axes of §5 (`descendant`, `descendant-or-self`,
    /// `ancestor`, `ancestor-or-self`) — those that can traverse an
    /// unbounded number of schema types in one step.
    pub fn is_recursive(self) -> bool {
        matches!(
            self,
            Axis::Descendant | Axis::DescendantOrSelf | Axis::Ancestor | Axis::AncestorOrSelf
        )
    }

    /// The "forward" axes of rule (STEPF) in Table 1: `self`, `child`,
    /// `descendant-or-self`. All other axes use rule (STEPUH).
    pub fn is_stepf_axis(self) -> bool {
        matches!(self, Axis::SelfAxis | Axis::Child | Axis::DescendantOrSelf)
    }

    /// The concrete-syntax name of the axis.
    pub fn name(self) -> &'static str {
        match self {
            Axis::SelfAxis => "self",
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::FollowingSibling => "following-sibling",
        }
    }

    /// All axes, for exhaustive tests.
    pub fn all() -> [Axis; 9] {
        [
            Axis::SelfAxis,
            Axis::Child,
            Axis::Descendant,
            Axis::DescendantOrSelf,
            Axis::Parent,
            Axis::Ancestor,
            Axis::AncestorOrSelf,
            Axis::PrecedingSibling,
            Axis::FollowingSibling,
        ]
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Node tests `φ ::= a | text() | node()` (plus `*` for "any element").
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// A tag test `a`.
    Tag(String),
    /// `text()`
    Text,
    /// `node()`
    AnyNode,
    /// `*` — any element (any label). Not in the paper's grammar but
    /// supported by its implementation and needed by XPathMark queries.
    AnyElement,
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Tag(t) => f.write_str(t),
            NodeTest::Text => f.write_str("text()"),
            NodeTest::AnyNode => f.write_str("node()"),
            NodeTest::AnyElement => f.write_str("*"),
        }
    }
}

/// The query fragment of §2.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Query {
    /// The empty sequence `()`.
    Empty,
    /// Sequence `q1, q2`.
    Concat(Box<Query>, Box<Query>),
    /// Element construction `<a>q</a>`.
    Element {
        /// Tag of the constructed element.
        tag: String,
        /// Content query.
        content: Box<Query>,
    },
    /// A constant string `s` (constructs a new text node).
    StringLit(String),
    /// A single XPath step over a variable, `x/axis::φ`.
    Step {
        /// The context variable (`$x`).
        var: String,
        /// The axis.
        axis: Axis,
        /// The node test.
        test: NodeTest,
    },
    /// `for x in q1 return q2`.
    For {
        /// The bound variable.
        var: String,
        /// The sequence expression.
        source: Box<Query>,
        /// The body.
        ret: Box<Query>,
    },
    /// `let x := q1 return q2`.
    Let {
        /// The bound variable.
        var: String,
        /// The bound expression.
        source: Box<Query>,
        /// The body.
        ret: Box<Query>,
    },
    /// `if q0 then q1 else q2`.
    If {
        /// The condition.
        cond: Box<Query>,
        /// The then-branch.
        then: Box<Query>,
        /// The else-branch.
        els: Box<Query>,
    },
}

impl Query {
    /// A bare variable `x`, encoded as `x/self::node()` as the paper
    /// prescribes for expressions outside the core grammar.
    pub fn var(name: impl Into<String>) -> Query {
        Query::Step {
            var: name.into(),
            axis: Axis::SelfAxis,
            test: NodeTest::AnyNode,
        }
    }

    /// Convenience constructor for a step.
    pub fn step(var: impl Into<String>, axis: Axis, test: NodeTest) -> Query {
        Query::Step {
            var: var.into(),
            axis,
            test,
        }
    }

    /// Convenience constructor for `q1, q2` that drops empty operands.
    pub fn concat(q1: Query, q2: Query) -> Query {
        match (q1, q2) {
            (Query::Empty, q) | (q, Query::Empty) => q,
            (a, b) => Query::Concat(Box::new(a), Box::new(b)),
        }
    }

    /// The free variables of the query.
    pub fn free_vars(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        self.collect_free(&mut out, &mut HashSet::new());
        out
    }

    fn collect_free(&self, out: &mut HashSet<String>, bound: &mut HashSet<String>) {
        match self {
            Query::Empty | Query::StringLit(_) => {}
            Query::Concat(a, b) => {
                a.collect_free(out, bound);
                b.collect_free(out, bound);
            }
            Query::Element { content, .. } => content.collect_free(out, bound),
            Query::Step { var, .. } => {
                if !bound.contains(var) {
                    out.insert(var.clone());
                }
            }
            Query::For { var, source, ret } | Query::Let { var, source, ret } => {
                source.collect_free(out, bound);
                let newly = bound.insert(var.clone());
                ret.collect_free(out, bound);
                if newly {
                    bound.remove(var);
                }
            }
            Query::If { cond, then, els } => {
                cond.collect_free(out, bound);
                then.collect_free(out, bound);
                els.collect_free(out, bound);
            }
        }
    }

    /// Number of AST nodes — the `|exp|` size measure used in the complexity
    /// statements of §6.1.
    pub fn size(&self) -> usize {
        match self {
            Query::Empty | Query::StringLit(_) | Query::Step { .. } => 1,
            Query::Concat(a, b) => 1 + a.size() + b.size(),
            Query::Element { content, .. } => 1 + content.size(),
            Query::For { source, ret, .. } | Query::Let { source, ret, .. } => {
                1 + source.size() + ret.size()
            }
            Query::If { cond, then, els } => 1 + cond.size() + then.size() + els.size(),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Empty => write!(f, "()"),
            Query::Concat(a, b) => write!(f, "{a}, {b}"),
            Query::Element { tag, content } => {
                if matches!(**content, Query::Empty) {
                    write!(f, "<{tag}/>")
                } else {
                    write!(f, "<{tag}>{{{content}}}</{tag}>")
                }
            }
            Query::StringLit(s) => write!(f, "\"{s}\""),
            Query::Step { var, axis, test } => write!(f, "{var}/{axis}::{test}"),
            Query::For { var, source, ret } => {
                write!(f, "for {var} in {source} return {ret}")
            }
            Query::Let { var, source, ret } => {
                write!(f, "let {var} := {source} return {ret}")
            }
            Query::If { cond, then, els } => {
                write!(f, "if ({cond}) then {then} else {els}")
            }
        }
    }
}

/// Insert positions `pos ::= before | after | into (as first | as last)?`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UpdatePos {
    /// `insert … before q0`
    Before,
    /// `insert … after q0`
    After,
    /// `insert … into q0` (implementation-defined position; we append).
    Into,
    /// `insert … as first into q0`
    IntoAsFirst,
    /// `insert … as last into q0`
    IntoAsLast,
}

impl UpdatePos {
    /// Returns `true` for the three "into" variants (rule INSERT-1); the
    /// sibling variants `before`/`after` use rule INSERT-2.
    pub fn is_into(self) -> bool {
        matches!(
            self,
            UpdatePos::Into | UpdatePos::IntoAsFirst | UpdatePos::IntoAsLast
        )
    }
}

impl fmt::Display for UpdatePos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UpdatePos::Before => "before",
            UpdatePos::After => "after",
            UpdatePos::Into => "into",
            UpdatePos::IntoAsFirst => "as first into",
            UpdatePos::IntoAsLast => "as last into",
        };
        f.write_str(s)
    }
}

/// The update fragment of §2.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Update {
    /// The empty update `()`.
    Empty,
    /// Sequence `u1, u2`.
    Concat(Box<Update>, Box<Update>),
    /// `for x in q return u`.
    For {
        /// The bound variable.
        var: String,
        /// The sequence expression (a query).
        source: Box<Query>,
        /// The update body.
        body: Box<Update>,
    },
    /// `let x := q return u`.
    Let {
        /// The bound variable.
        var: String,
        /// The bound expression (a query).
        source: Box<Query>,
        /// The update body.
        body: Box<Update>,
    },
    /// `if q then u1 else u2`.
    If {
        /// The condition (a query).
        cond: Box<Query>,
        /// The then-branch.
        then: Box<Update>,
        /// The else-branch.
        els: Box<Update>,
    },
    /// `delete q0`.
    Delete {
        /// The target expression.
        target: Box<Query>,
    },
    /// `rename q0 as a`.
    Rename {
        /// The target expression.
        target: Box<Query>,
        /// The new tag.
        new_tag: String,
    },
    /// `insert q pos q0`.
    Insert {
        /// The source expression.
        source: Box<Query>,
        /// The insert position.
        pos: UpdatePos,
        /// The target expression.
        target: Box<Query>,
    },
    /// `replace q0 with q`.
    Replace {
        /// The target expression.
        target: Box<Query>,
        /// The source expression.
        source: Box<Query>,
    },
}

impl Update {
    /// The free variables of the update.
    pub fn free_vars(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        self.collect_free(&mut out, &mut HashSet::new());
        out
    }

    fn collect_free(&self, out: &mut HashSet<String>, bound: &mut HashSet<String>) {
        // Query sub-expressions contribute their free variables minus the
        // currently bound ones.
        let add_query = |q: &Query, out: &mut HashSet<String>, bound: &HashSet<String>| {
            for v in q.free_vars() {
                if !bound.contains(&v) {
                    out.insert(v);
                }
            }
        };
        match self {
            Update::Empty => {}
            Update::Concat(a, b) => {
                a.collect_free(out, bound);
                b.collect_free(out, bound);
            }
            Update::For { var, source, body } | Update::Let { var, source, body } => {
                add_query(source, out, bound);
                let newly = bound.insert(var.clone());
                body.collect_free(out, bound);
                if newly {
                    bound.remove(var);
                }
            }
            Update::If { cond, then, els } => {
                add_query(cond, out, bound);
                then.collect_free(out, bound);
                els.collect_free(out, bound);
            }
            Update::Delete { target } => add_query(target, out, bound),
            Update::Rename { target, .. } => add_query(target, out, bound),
            Update::Insert { source, target, .. } => {
                add_query(source, out, bound);
                add_query(target, out, bound);
            }
            Update::Replace { target, source } => {
                add_query(target, out, bound);
                add_query(source, out, bound);
            }
        }
    }

    /// Number of AST nodes (the update's own nodes plus those of its query
    /// sub-expressions).
    pub fn size(&self) -> usize {
        match self {
            Update::Empty => 1,
            Update::Concat(a, b) => 1 + a.size() + b.size(),
            Update::For { source, body, .. } | Update::Let { source, body, .. } => {
                1 + source.size() + body.size()
            }
            Update::If { cond, then, els } => 1 + cond.size() + then.size() + els.size(),
            Update::Delete { target } => 1 + target.size(),
            Update::Rename { target, .. } => 1 + target.size(),
            Update::Insert { source, target, .. } => 1 + source.size() + target.size(),
            Update::Replace { target, source } => 1 + target.size() + source.size(),
        }
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Update::Empty => write!(f, "()"),
            Update::Concat(a, b) => write!(f, "{a}, {b}"),
            Update::For { var, source, body } => {
                write!(f, "for {var} in {source} return {body}")
            }
            Update::Let { var, source, body } => {
                write!(f, "let {var} := {source} return {body}")
            }
            Update::If { cond, then, els } => write!(f, "if ({cond}) then {then} else {els}"),
            Update::Delete { target } => write!(f, "delete {target}"),
            Update::Rename { target, new_tag } => write!(f, "rename {target} as {new_tag}"),
            Update::Insert {
                source,
                pos,
                target,
            } => write!(f, "insert {source} {pos} {target}"),
            Update::Replace { target, source } => write!(f, "replace {target} with {source}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_classification() {
        assert!(Axis::Descendant.is_recursive());
        assert!(Axis::AncestorOrSelf.is_recursive());
        assert!(!Axis::Child.is_recursive());
        assert!(!Axis::FollowingSibling.is_recursive());
        assert!(Axis::Child.is_stepf_axis());
        assert!(Axis::SelfAxis.is_stepf_axis());
        assert!(Axis::DescendantOrSelf.is_stepf_axis());
        assert!(!Axis::Descendant.is_stepf_axis());
        assert!(!Axis::Parent.is_stepf_axis());
        assert_eq!(Axis::all().len(), 9);
    }

    #[test]
    fn free_vars_of_queries() {
        // for y in $x/child::a return y/child::b — free: $x
        let q = Query::For {
            var: "$y".into(),
            source: Box::new(Query::step("$x", Axis::Child, NodeTest::Tag("a".into()))),
            ret: Box::new(Query::step("$y", Axis::Child, NodeTest::Tag("b".into()))),
        };
        assert_eq!(q.free_vars(), ["$x".to_string()].into_iter().collect());
    }

    #[test]
    fn free_vars_of_updates() {
        let u = Update::For {
            var: "$x".into(),
            source: Box::new(Query::step(
                "$root",
                Axis::Descendant,
                NodeTest::Tag("book".into()),
            )),
            body: Box::new(Update::Insert {
                source: Box::new(Query::Element {
                    tag: "author".into(),
                    content: Box::new(Query::Empty),
                }),
                pos: UpdatePos::Into,
                target: Box::new(Query::var("$x")),
            }),
        };
        assert_eq!(u.free_vars(), ["$root".to_string()].into_iter().collect());
    }

    #[test]
    fn display_roundtrips_basic_shapes() {
        let q = Query::For {
            var: "$x".into(),
            source: Box::new(Query::step(
                "$root",
                Axis::Descendant,
                NodeTest::Tag("a".into()),
            )),
            ret: Box::new(Query::var("$x")),
        };
        let shown = q.to_string();
        assert!(shown.contains("for $x in"));
        assert!(shown.contains("descendant::a"));
    }

    #[test]
    fn sizes_are_positive_and_compositional() {
        let q = Query::concat(Query::var("$x"), Query::StringLit("s".into()));
        assert_eq!(q.size(), 3);
        let u = Update::Delete {
            target: Box::new(Query::var("$x")),
        };
        assert_eq!(u.size(), 2);
        assert_eq!(Query::concat(Query::Empty, Query::var("$x")).size(), 1);
    }

    #[test]
    fn update_pos_classification() {
        assert!(UpdatePos::Into.is_into());
        assert!(UpdatePos::IntoAsFirst.is_into());
        assert!(UpdatePos::IntoAsLast.is_into());
        assert!(!UpdatePos::Before.is_into());
        assert!(!UpdatePos::After.is_into());
    }
}
