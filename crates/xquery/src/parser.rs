//! A hand-rolled parser for an XQuery-like concrete syntax.
//!
//! The parser accepts the usual surface syntax (path expressions with
//! abbreviations, predicates, FLWR expressions, element constructors, update
//! operations) and desugars it into the paper's core fragment:
//!
//! * `/a//b` becomes iterations over single steps
//!   (`for $p in $root/child::a return for $q in
//!   $p/descendant-or-self::node() return $q/child::b`),
//! * predicates `p[q]` become `for $p in p return if (q) then $p else ()`,
//! * `p1 and p2` becomes `if (p1) then p2 else ()`, `p1 or p2` becomes
//!   `(p1, p2)` (both only used for their effective boolean value),
//! * a bare variable `$x` becomes `$x/self::node()`.
//!
//! This mirrors the rewriting the paper applies to the XMark / XPathMark
//! expressions before analysis (§6.2).
//!
//! One fixed depth limit bounds both the parser's recursion (parentheses,
//! FLWR bodies, conditionals, predicates, element constructors) and the
//! depth of the AST it returns. Every node the parser builds is counted,
//! including the ones its loops chain up (path steps, predicates, sequence
//! items, `and`/`or` operands, constructor content), so a hostile input —
//! deeply nested or merely long — is rejected with a [`QueryParseError`]
//! instead of overflowing the stack of whatever walks the AST.

use crate::ast::{Axis, NodeTest, Query, Update, UpdatePos};
use crate::ROOT_VAR;
use std::fmt;

/// Maximum nesting depth the parser accepts, both for its own recursion and
/// for the levels of the AST it builds; beyond this the input is rejected
/// (bounding stack use on hostile input).
const MAX_DEPTH: usize = 64;

/// An error produced while parsing a query or update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte position at which the error was detected.
    pub position: usize,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for QueryParseError {}

/// Parses a query.
pub fn parse_query(src: &str) -> Result<Query, QueryParseError> {
    let mut p = P::new(src);
    let q = p.parse_query_seq()?;
    p.skip_ws();
    if !p.eof() {
        return Err(p.err("trailing input after query"));
    }
    Ok(q)
}

/// Parses an update.
pub fn parse_update(src: &str) -> Result<Update, QueryParseError> {
    let mut p = P::new(src);
    let u = p.parse_update_seq()?;
    p.skip_ws();
    if !p.eof() {
        return Err(p.err("trailing input after update"));
    }
    Ok(u)
}

struct P {
    chars: Vec<char>,
    pos: usize,
    /// Context variable for relative paths; predicates rebind it.
    context_var: String,
    /// Fresh-variable counter for desugaring.
    fresh: usize,
    /// Current recursion depth (see [`MAX_DEPTH`]).
    depth: usize,
}

impl P {
    fn new(src: &str) -> P {
        P {
            chars: src.chars().collect(),
            pos: 0,
            context_var: ROOT_VAR.to_string(),
            fresh: 0,
            depth: 0,
        }
    }

    /// Runs one nested production, failing once the nesting exceeds
    /// [`MAX_DEPTH`]. Every recursive cycle of the grammar passes through a
    /// production wrapped in this.
    fn nested<T>(
        &mut self,
        production: impl FnOnce(&mut P) -> Result<T, QueryParseError>,
    ) -> Result<T, QueryParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let out = production(self);
        self.depth -= 1;
        out
    }

    fn too_deep(&self) -> QueryParseError {
        self.err(format!("nesting deeper than {MAX_DEPTH} levels"))
    }

    /// Admits a query node the parser just built, failing when the AST it
    /// roots is more than [`MAX_DEPTH`] levels deep. Every inner node the
    /// parser builds passes through here (updates through
    /// [`admit_update`](Self::admit_update)); its children were admitted
    /// before it, so measuring it never recurses deeper than the limit.
    fn admit(&self, q: Query) -> Result<Query, QueryParseError> {
        if query_depth(&q) > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(q)
    }

    fn admit_update(&self, u: Update) -> Result<Update, QueryParseError> {
        if update_depth(&u) > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(u)
    }

    fn err(&self, msg: impl Into<String>) -> QueryParseError {
        QueryParseError {
            message: msg.into(),
            position: self.pos,
        }
    }

    fn eof(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<char> {
        self.chars.get(self.pos + off).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), QueryParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}'")))
        }
    }

    /// Peeks whether the next token is the given keyword (without consuming).
    fn peek_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let end = self.pos + kw.len();
        if end > self.chars.len() {
            return false;
        }
        let slice: String = self.chars[self.pos..end].iter().collect();
        if slice != kw {
            return false;
        }
        // must not be followed by a name character
        !matches!(
            self.chars.get(end),
            Some(c) if c.is_alphanumeric() || *c == '_' || *c == '-'
        )
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), QueryParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword '{kw}'")))
        }
    }

    fn fresh_var(&mut self) -> String {
        self.fresh += 1;
        format!("$__p{}", self.fresh)
    }

    fn parse_name(&mut self) -> Result<String, QueryParseError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || matches!(c, '_' | '-' | '.'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.chars[start..self.pos].iter().collect())
    }

    fn parse_varname(&mut self) -> Result<String, QueryParseError> {
        self.skip_ws();
        if self.peek() != Some('$') {
            return Err(self.err("expected a variable ($name)"));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        Ok(format!("${name}"))
    }

    // ------------------------------------------------------------- queries

    /// seq := or (',' or)*
    fn parse_query_seq(&mut self) -> Result<Query, QueryParseError> {
        let mut q = self.parse_query_or()?;
        loop {
            self.skip_ws();
            if self.peek() == Some(',') {
                self.pos += 1;
                let rhs = self.parse_query_or()?;
                q = self.admit(Query::Concat(Box::new(q), Box::new(rhs)))?;
            } else {
                break;
            }
        }
        Ok(q)
    }

    /// or := and ('or' and)*   — desugared to a sequence (effective boolean
    /// value: non-empty iff either side is non-empty).
    fn parse_query_or(&mut self) -> Result<Query, QueryParseError> {
        let mut q = self.parse_query_and()?;
        while self.eat_keyword("or") {
            let rhs = self.parse_query_and()?;
            q = self.admit(Query::Concat(Box::new(q), Box::new(rhs)))?;
        }
        Ok(q)
    }

    /// and := single ('and' single)* — desugared to nested conditionals.
    fn parse_query_and(&mut self) -> Result<Query, QueryParseError> {
        let mut q = self.parse_query_single()?;
        while self.eat_keyword("and") {
            let rhs = self.parse_query_single()?;
            q = self.admit(Query::If {
                cond: Box::new(q),
                then: Box::new(rhs),
                els: Box::new(Query::Empty),
            })?;
        }
        Ok(q)
    }

    fn parse_query_single(&mut self) -> Result<Query, QueryParseError> {
        self.nested(P::query_single)
    }

    fn query_single(&mut self) -> Result<Query, QueryParseError> {
        self.skip_ws();
        if self.eat_keyword("for") {
            let var = self.parse_varname()?;
            self.expect_keyword("in")?;
            let source = self.parse_query_or()?;
            self.expect_keyword("return")?;
            let ret = self.parse_query_single()?;
            return self.admit(Query::For {
                var,
                source: Box::new(source),
                ret: Box::new(ret),
            });
        }
        if self.eat_keyword("let") {
            let var = self.parse_varname()?;
            self.skip_ws();
            // accept ':=' or '='
            self.eat(':');
            self.expect('=')?;
            let source = self.parse_query_or()?;
            self.expect_keyword("return")?;
            let ret = self.parse_query_single()?;
            return self.admit(Query::Let {
                var,
                source: Box::new(source),
                ret: Box::new(ret),
            });
        }
        if self.eat_keyword("if") {
            let cond = self.parse_paren_query()?;
            self.expect_keyword("then")?;
            let then = self.parse_query_single()?;
            let els = if self.eat_keyword("else") {
                self.parse_query_single()?
            } else {
                Query::Empty
            };
            return self.admit(Query::If {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            });
        }
        self.skip_ws();
        match self.peek() {
            Some('"') | Some('\'') => {
                let quote = self.peek().expect("peeked");
                self.pos += 1;
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == quote {
                        break;
                    }
                    self.pos += 1;
                }
                let lit: String = self.chars[start..self.pos].iter().collect();
                self.expect(quote)?;
                Ok(Query::StringLit(lit))
            }
            Some('<') => self.parse_element_constructor(),
            Some('(') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(')') {
                    self.pos += 1;
                    // "()" may still be followed by a path ("()/a" is odd but
                    // harmless: it denotes the empty sequence).
                    return Ok(Query::Empty);
                }
                let inner = self.parse_query_seq()?;
                self.expect(')')?;
                self.parse_path_continuation(inner)
            }
            _ => self.parse_path(),
        }
    }

    fn parse_paren_query(&mut self) -> Result<Query, QueryParseError> {
        self.skip_ws();
        if self.peek() == Some('(') {
            self.pos += 1;
            let inner = self.parse_query_seq()?;
            self.expect(')')?;
            Ok(inner)
        } else {
            // XQuery requires parentheses around if-conditions; we are more
            // lenient and accept a bare expression.
            self.parse_query_or()
        }
    }

    /// `<a>…</a>`, `<a/>`, `<a>{q}</a>`, nested literal elements and literal
    /// text content.
    fn parse_element_constructor(&mut self) -> Result<Query, QueryParseError> {
        self.nested(P::element_constructor)
    }

    fn element_constructor(&mut self) -> Result<Query, QueryParseError> {
        self.expect('<')?;
        let tag = self.parse_name()?;
        self.skip_ws();
        // Ignore attributes in constructors (not part of the core model).
        while matches!(self.peek(), Some(c) if c.is_alphabetic()) {
            let _ = self.parse_name()?;
            self.skip_ws();
            if self.eat('=') {
                self.skip_ws();
                if let Some(q @ ('"' | '\'')) = self.peek() {
                    self.pos += 1;
                    while let Some(c) = self.peek() {
                        self.pos += 1;
                        if c == q {
                            break;
                        }
                    }
                }
            }
            self.skip_ws();
        }
        if self.eat('/') {
            self.expect('>')?;
            return self.admit(Query::Element {
                tag,
                content: Box::new(Query::Empty),
            });
        }
        self.expect('>')?;
        let mut content = Query::Empty;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('<') if self.peek_at(1) == Some('/') => {
                    self.pos += 2;
                    let close = self.parse_name()?;
                    if close != tag {
                        return Err(self.err(format!(
                            "mismatched constructor: expected </{tag}>, found </{close}>"
                        )));
                    }
                    self.expect('>')?;
                    break;
                }
                Some('<') => {
                    let inner = self.parse_element_constructor()?;
                    content = self.admit(Query::concat(content, inner))?;
                }
                Some('{') => {
                    self.pos += 1;
                    let inner = self.parse_query_seq()?;
                    self.expect('}')?;
                    content = self.admit(Query::concat(content, inner))?;
                }
                Some(_) => {
                    // literal text content up to '<' or '{'
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == '<' || c == '{' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let text: String = self.chars[start..self.pos].iter().collect();
                    let text = text.trim().to_string();
                    if !text.is_empty() {
                        content = self.admit(Query::concat(content, Query::StringLit(text)))?;
                    }
                }
                None => return Err(self.err("unterminated element constructor")),
            }
        }
        self.admit(Query::Element {
            tag,
            content: Box::new(content),
        })
    }

    /// A path expression: absolute (`/a/b`, `//a`) or starting from a
    /// variable (`$x/a`, `$x`), or relative to the current context variable
    /// (inside predicates).
    fn parse_path(&mut self) -> Result<Query, QueryParseError> {
        self.skip_ws();
        let ctx = match self.peek() {
            Some('$') => {
                let v = self.parse_varname()?;
                Query::var(v)
            }
            Some('/') => Query::var(ROOT_VAR.to_string()),
            _ => Query::var(self.context_var.clone()),
        };
        self.parse_path_continuation(ctx)
    }

    /// Parses `(/step | //step | [pred])*` applied to `ctx`.
    fn parse_path_continuation(&mut self, mut ctx: Query) -> Result<Query, QueryParseError> {
        // A relative first step (no leading '/') is allowed when the context
        // is a variable: e.g. inside predicates `annotation/description`.
        self.skip_ws();
        const RESERVED: [&str; 12] = [
            "and",
            "or",
            "return",
            "then",
            "else",
            "in",
            "as",
            "with",
            "into",
            "before",
            "after",
            "satisfies",
        ];
        let relative_first = matches!(self.peek(), Some(c) if c.is_alphabetic() || c == '*' || c == '@')
            && !RESERVED.iter().any(|kw| self.peek_keyword(kw));
        if relative_first {
            let steps = self.parse_step()?;
            ctx = self.apply_steps(ctx, steps)?;
        }
        loop {
            self.skip_ws();
            match self.peek() {
                Some('/') if self.peek_at(1) == Some('/') => {
                    self.pos += 2;
                    // `//φ` abbreviates `/descendant-or-self::node()/child::φ`
                    ctx = self.apply_step(ctx, Axis::DescendantOrSelf, NodeTest::AnyNode)?;
                    let steps = self.parse_step()?;
                    ctx = self.apply_steps(ctx, steps)?;
                }
                Some('/') => {
                    self.pos += 1;
                    let steps = self.parse_step()?;
                    ctx = self.apply_steps(ctx, steps)?;
                }
                Some('[') => {
                    self.pos += 1;
                    ctx = self.apply_predicate(ctx)?;
                    self.expect(']')?;
                }
                _ => break,
            }
        }
        Ok(ctx)
    }

    /// Parses a single step `axis::test` or an abbreviated step (`a`, `*`,
    /// `text()`, `node()`, `..`), returning the (possibly several) core-axis
    /// steps it desugars into.
    ///
    /// The non-core axes `following` and `preceding` are accepted and encoded
    /// with the footnote-3 rewriting of the paper, e.g. `following::a`
    /// becomes the three consecutive steps `ancestor-or-self::node()/`
    /// `following-sibling::node()/descendant-or-self::a`.
    fn parse_step(&mut self) -> Result<Vec<(Axis, NodeTest)>, QueryParseError> {
        self.skip_ws();
        // `..` abbreviation
        if self.peek() == Some('.') && self.peek_at(1) == Some('.') {
            self.pos += 2;
            return Ok(vec![(Axis::Parent, NodeTest::AnyNode)]);
        }
        if self.peek() == Some('*') {
            self.pos += 1;
            return Ok(vec![(Axis::Child, NodeTest::AnyElement)]);
        }
        if self.peek() == Some('@') {
            // `@a` abbreviates `attribute::a`, which the §7 extension encodes
            // as a `child::@a` step over attribute-as-child documents
            // (see `qui_schema::attributes`).
            self.pos += 1;
            let name = self.parse_name()?;
            return Ok(vec![(Axis::Child, NodeTest::Tag(format!("@{name}")))]);
        }
        let name = self.parse_name()?;
        self.skip_ws();
        if self.peek() == Some(':') && self.peek_at(1) == Some(':') {
            self.pos += 2;
            let axis = match name.as_str() {
                "self" => Axis::SelfAxis,
                "child" => Axis::Child,
                "descendant" => Axis::Descendant,
                "descendant-or-self" => Axis::DescendantOrSelf,
                "parent" => Axis::Parent,
                "ancestor" => Axis::Ancestor,
                "ancestor-or-self" => Axis::AncestorOrSelf,
                "preceding-sibling" => Axis::PrecedingSibling,
                "following-sibling" => Axis::FollowingSibling,
                // The attribute axis of the §7 extension: a child step over
                // the `@name` encoding.
                "attribute" => {
                    let test = self.parse_node_test()?;
                    let test = match test {
                        NodeTest::Tag(t) => NodeTest::Tag(format!("@{t}")),
                        _ => {
                            return Err(self.err(
                                "attribute:: only supports a name test (use attribute::name)",
                            ))
                        }
                    };
                    return Ok(vec![(Axis::Child, test)]);
                }
                // Footnote-3 encodings of the two non-core axes.
                "following" => {
                    let test = self.parse_node_test()?;
                    return Ok(vec![
                        (Axis::AncestorOrSelf, NodeTest::AnyNode),
                        (Axis::FollowingSibling, NodeTest::AnyNode),
                        (Axis::DescendantOrSelf, test),
                    ]);
                }
                "preceding" => {
                    let test = self.parse_node_test()?;
                    return Ok(vec![
                        (Axis::AncestorOrSelf, NodeTest::AnyNode),
                        (Axis::PrecedingSibling, NodeTest::AnyNode),
                        (Axis::DescendantOrSelf, test),
                    ]);
                }
                other => return Err(self.err(format!("unknown axis '{other}'"))),
            };
            let test = self.parse_node_test()?;
            Ok(vec![(axis, test)])
        } else if self.peek() == Some('(') && (name == "text" || name == "node") {
            self.pos += 1;
            self.expect(')')?;
            let test = if name == "text" {
                NodeTest::Text
            } else {
                NodeTest::AnyNode
            };
            Ok(vec![(Axis::Child, test)])
        } else {
            Ok(vec![(Axis::Child, NodeTest::Tag(name))])
        }
    }

    /// Applies a sequence of desugared steps to a context expression.
    fn apply_steps(
        &mut self,
        mut ctx: Query,
        steps: Vec<(Axis, NodeTest)>,
    ) -> Result<Query, QueryParseError> {
        for (axis, test) in steps {
            ctx = self.apply_step(ctx, axis, test)?;
        }
        Ok(ctx)
    }

    fn parse_node_test(&mut self) -> Result<NodeTest, QueryParseError> {
        self.skip_ws();
        if self.peek() == Some('*') {
            self.pos += 1;
            return Ok(NodeTest::AnyElement);
        }
        let name = self.parse_name()?;
        if self.peek() == Some('(') {
            self.pos += 1;
            self.expect(')')?;
            match name.as_str() {
                "text" => Ok(NodeTest::Text),
                "node" => Ok(NodeTest::AnyNode),
                other => Err(self.err(format!("unknown node test '{other}()'"))),
            }
        } else {
            Ok(NodeTest::Tag(name))
        }
    }

    /// Applies a step to a context expression, introducing a fresh iteration
    /// variable when the context is not already a plain variable.
    fn apply_step(
        &mut self,
        ctx: Query,
        axis: Axis,
        test: NodeTest,
    ) -> Result<Query, QueryParseError> {
        match &ctx {
            Query::Step {
                var,
                axis: Axis::SelfAxis,
                test: NodeTest::AnyNode,
            } => Ok(Query::step(var.clone(), axis, test)),
            _ => {
                let fresh = self.fresh_var();
                self.admit(Query::For {
                    var: fresh.clone(),
                    source: Box::new(ctx),
                    ret: Box::new(Query::step(fresh, axis, test)),
                })
            }
        }
    }

    /// Applies a predicate `[q]` to a context expression.
    fn apply_predicate(&mut self, ctx: Query) -> Result<Query, QueryParseError> {
        let fresh = self.fresh_var();
        let saved = std::mem::replace(&mut self.context_var, fresh.clone());
        let pred = self.parse_query_seq()?;
        self.context_var = saved;
        self.admit(Query::For {
            var: fresh.clone(),
            source: Box::new(ctx),
            ret: Box::new(Query::If {
                cond: Box::new(pred),
                then: Box::new(Query::var(fresh)),
                els: Box::new(Query::Empty),
            }),
        })
    }

    // ------------------------------------------------------------- updates

    fn parse_update_seq(&mut self) -> Result<Update, QueryParseError> {
        let mut u = self.parse_update_single()?;
        loop {
            self.skip_ws();
            if self.peek() == Some(',') {
                self.pos += 1;
                let rhs = self.parse_update_single()?;
                u = self.admit_update(Update::Concat(Box::new(u), Box::new(rhs)))?;
            } else {
                break;
            }
        }
        Ok(u)
    }

    fn parse_update_single(&mut self) -> Result<Update, QueryParseError> {
        let u = self.nested(P::update_single)?;
        self.admit_update(u)
    }

    fn update_single(&mut self) -> Result<Update, QueryParseError> {
        self.skip_ws();
        if self.eat_keyword("for") {
            let var = self.parse_varname()?;
            self.expect_keyword("in")?;
            let source = self.parse_query_or()?;
            self.expect_keyword("return")?;
            let body = self.parse_update_single()?;
            return Ok(Update::For {
                var,
                source: Box::new(source),
                body: Box::new(body),
            });
        }
        if self.eat_keyword("let") {
            let var = self.parse_varname()?;
            self.skip_ws();
            // accept ':=' or '='
            self.eat(':');
            self.expect('=')?;
            let source = self.parse_query_or()?;
            self.expect_keyword("return")?;
            let body = self.parse_update_single()?;
            return Ok(Update::Let {
                var,
                source: Box::new(source),
                body: Box::new(body),
            });
        }
        if self.eat_keyword("if") {
            let cond = self.parse_paren_query()?;
            self.expect_keyword("then")?;
            let then = self.parse_update_single()?;
            let els = if self.eat_keyword("else") {
                self.parse_update_single()?
            } else {
                Update::Empty
            };
            return Ok(Update::If {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            });
        }
        if self.eat_keyword("delete") {
            let _ = self.eat_keyword("node") || self.eat_keyword("nodes");
            let target = self.parse_query_or()?;
            return Ok(Update::Delete {
                target: Box::new(target),
            });
        }
        if self.eat_keyword("rename") {
            let _ = self.eat_keyword("node");
            let target = self.parse_query_or()?;
            self.expect_keyword("as")?;
            self.skip_ws();
            // allow a quoted or bare name
            let new_tag = if matches!(self.peek(), Some('"') | Some('\'')) {
                let quote = self.peek().expect("peeked");
                self.pos += 1;
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == quote {
                        break;
                    }
                    self.pos += 1;
                }
                let s: String = self.chars[start..self.pos].iter().collect();
                self.expect(quote)?;
                s
            } else {
                self.parse_name()?
            };
            return Ok(Update::Rename {
                target: Box::new(target),
                new_tag,
            });
        }
        if self.eat_keyword("insert") {
            let _ = self.eat_keyword("node") || self.eat_keyword("nodes");
            let source = self.parse_query_or()?;
            let pos = if self.eat_keyword("as") {
                if self.eat_keyword("first") {
                    self.expect_keyword("into")?;
                    UpdatePos::IntoAsFirst
                } else {
                    self.expect_keyword("last")?;
                    self.expect_keyword("into")?;
                    UpdatePos::IntoAsLast
                }
            } else if self.eat_keyword("into") {
                UpdatePos::Into
            } else if self.eat_keyword("before") {
                UpdatePos::Before
            } else if self.eat_keyword("after") {
                UpdatePos::After
            } else {
                return Err(
                    self.err("expected into / as first into / as last into / before / after")
                );
            };
            let target = self.parse_query_or()?;
            return Ok(Update::Insert {
                source: Box::new(source),
                pos,
                target: Box::new(target),
            });
        }
        if self.eat_keyword("replace") {
            let _ = self.eat_keyword("node");
            let target = self.parse_query_or()?;
            self.expect_keyword("with")?;
            let source = self.parse_query_or()?;
            return Ok(Update::Replace {
                target: Box::new(target),
                source: Box::new(source),
            });
        }
        self.skip_ws();
        if self.peek() == Some('(') && self.peek_at(1) == Some(')') {
            self.pos += 2;
            return Ok(Update::Empty);
        }
        Err(self.err("expected an update expression"))
    }
}

/// Levels of a query AST (a leaf is one level).
fn query_depth(q: &Query) -> usize {
    1 + match q {
        Query::Empty | Query::StringLit(_) | Query::Step { .. } => 0,
        Query::Element { content, .. } => query_depth(content),
        Query::Concat(a, b)
        | Query::For {
            source: a, ret: b, ..
        }
        | Query::Let {
            source: a, ret: b, ..
        } => query_depth(a).max(query_depth(b)),
        Query::If { cond, then, els } => query_depth(cond)
            .max(query_depth(then))
            .max(query_depth(els)),
    }
}

/// Levels of an update AST, its target and source queries included.
fn update_depth(u: &Update) -> usize {
    1 + match u {
        Update::Empty => 0,
        Update::Concat(a, b) => update_depth(a).max(update_depth(b)),
        Update::For { source, body, .. } | Update::Let { source, body, .. } => {
            query_depth(source).max(update_depth(body))
        }
        Update::If { cond, then, els } => query_depth(cond)
            .max(update_depth(then))
            .max(update_depth(els)),
        Update::Delete { target } | Update::Rename { target, .. } => query_depth(target),
        Update::Insert { source, target, .. } | Update::Replace { target, source } => {
            query_depth(source).max(query_depth(target))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_descendant_abbreviation() {
        // //a//c from the paper's q1
        let q = parse_query("//a//c").unwrap();
        let shown = q.to_string();
        assert!(shown.contains("descendant-or-self::node()"));
        assert!(shown.contains("child::a"));
        assert!(shown.contains("child::c"));
        assert!(q.free_vars().contains(ROOT_VAR));
    }

    #[test]
    fn parses_simple_child_path() {
        let q = parse_query("/site/regions").unwrap();
        match q {
            Query::For { source, ret, .. } => {
                assert!(matches!(*source, Query::Step { .. }));
                assert!(matches!(*ret, Query::Step { .. }));
            }
            other => panic!("expected desugared for, got {other:?}"),
        }
    }

    #[test]
    fn parses_explicit_axes() {
        let q = parse_query("$x/following-sibling::bidder").unwrap();
        assert_eq!(
            q,
            Query::step("$x", Axis::FollowingSibling, NodeTest::Tag("bidder".into()))
        );
        let q = parse_query("$x/ancestor::listitem").unwrap();
        assert_eq!(
            q,
            Query::step("$x", Axis::Ancestor, NodeTest::Tag("listitem".into()))
        );
    }

    #[test]
    fn parses_wildcard_and_node_tests() {
        let q = parse_query("/site/regions/*/item").unwrap();
        assert!(q.to_string().contains('*'));
        let q = parse_query("//text()").unwrap();
        assert!(q.to_string().contains("child::text()"));
        let q = parse_query("$x/descendant-or-self::node()").unwrap();
        assert_eq!(
            q,
            Query::step("$x", Axis::DescendantOrSelf, NodeTest::AnyNode)
        );
    }

    #[test]
    fn parses_predicates() {
        let q = parse_query("/site/people/person[profile/age]/name").unwrap();
        let shown = q.to_string();
        assert!(shown.contains("if ("));
        assert!(shown.contains("child::age"));
        assert!(shown.contains("child::name"));
    }

    #[test]
    fn parses_and_or_in_predicates() {
        let q = parse_query("//person[phone or homepage]/name").unwrap();
        assert!(q.to_string().contains("child::phone"));
        let q = parse_query("//person[address and phone]/name").unwrap();
        assert!(q.to_string().contains("if ("));
    }

    #[test]
    fn parses_flwr() {
        let q = parse_query("for $b in //book return <entry>{$b/title}</entry>").unwrap();
        match q {
            Query::For { var, ret, .. } => {
                assert_eq!(var, "$b");
                assert!(matches!(*ret, Query::Element { .. }));
            }
            other => panic!("expected for, got {other:?}"),
        }
        let q = parse_query("let $x := //book return $x/title").unwrap();
        assert!(matches!(q, Query::Let { .. }));
        let q = parse_query("if (//book) then //title else ()").unwrap();
        assert!(matches!(q, Query::If { .. }));
    }

    #[test]
    fn parses_element_constructors() {
        let q = parse_query("<author><first>Umberto</first><second>Eco</second></author>").unwrap();
        match &q {
            Query::Element { tag, content } => {
                assert_eq!(tag, "author");
                assert!(matches!(**content, Query::Concat(..)));
            }
            other => panic!("expected element, got {other:?}"),
        }
        let q = parse_query("<author/>").unwrap();
        assert_eq!(
            q,
            Query::Element {
                tag: "author".into(),
                content: Box::new(Query::Empty)
            }
        );
    }

    #[test]
    fn parses_updates() {
        let u = parse_update("delete //b//c").unwrap();
        assert!(matches!(u, Update::Delete { .. }));

        let u = parse_update("for $x in //book return insert <author/> into $x").unwrap();
        match &u {
            Update::For { body, .. } => match &**body {
                Update::Insert { pos, .. } => assert_eq!(*pos, UpdatePos::Into),
                other => panic!("expected insert, got {other:?}"),
            },
            other => panic!("expected for, got {other:?}"),
        }

        let u = parse_update("rename //item as listing").unwrap();
        assert!(matches!(u, Update::Rename { .. }));

        let u = parse_update("replace //price with <price>0</price>").unwrap();
        assert!(matches!(u, Update::Replace { .. }));

        let u = parse_update("insert <x/> as first into //bidder").unwrap();
        match u {
            Update::Insert { pos, .. } => assert_eq!(pos, UpdatePos::IntoAsFirst),
            other => panic!("expected insert, got {other:?}"),
        }

        let u = parse_update("insert <x/> before //bidder").unwrap();
        match u {
            Update::Insert { pos, .. } => assert_eq!(pos, UpdatePos::Before),
            other => panic!("expected insert, got {other:?}"),
        }
    }

    #[test]
    fn nesting_beyond_the_depth_limit_is_an_error() {
        let deep = |n: usize, inner: &str| format!("{}{inner}{}", "(".repeat(n), ")".repeat(n));
        for n in [MAX_DEPTH + 1, 20_000] {
            let err = parse_query(&deep(n, "//a")).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
            let err = parse_update(&format!("delete {}", deep(n, "//a"))).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
        let err = parse_update(&"for $x in //a return ".repeat(20_000)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let err = parse_query(&"<a>".repeat(20_000)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let err = parse_query(&format!("//a{}", "[b".repeat(20_000))).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Nesting just inside the limit still parses.
        assert_eq!(
            parse_query(&deep(MAX_DEPTH - 1, "//a")).unwrap(),
            parse_query("//a").unwrap()
        );
    }

    #[test]
    fn long_flat_inputs_beyond_the_depth_limit_are_errors() {
        // Loops build one AST level per iteration; every shape is rejected
        // once it chains more levels than the limit, however flat its text.
        for n in [3_000, 20_000] {
            let queries = [
                format!("/bib{}", "/book".repeat(n)),
                format!("/bib{}", "/book[title]".repeat(n)),
                vec!["//title"; n].join(", "),
            ];
            for q in &queries {
                let err = parse_query(q).unwrap_err();
                assert!(err.message.contains("nesting"), "{err}");
            }
            let updates = [
                vec!["delete //title"; n].join(", "),
                format!("delete /bib{}", "/book".repeat(n)),
            ];
            for u in &updates {
                let err = parse_update(u).unwrap_err();
                assert!(err.message.contains("nesting"), "{err}");
            }
        }
        // The same shapes at a modest length still parse, up to exactly the
        // limit.
        assert!(parse_query(&format!("/bib{}", "/book[title]".repeat(20))).is_ok());
        assert!(parse_query(&vec!["//title"; 20].join(", ")).is_ok());
        let path = format!("/bib{}", "/book".repeat(MAX_DEPTH - 1));
        assert_eq!(query_depth(&parse_query(&path).unwrap()), MAX_DEPTH);
        let path = format!("/bib{}", "/book".repeat(MAX_DEPTH));
        assert!(parse_query(&path).is_err());
        // `delete //a` is three levels deep; each further item adds one.
        let seq = vec!["delete //a"; MAX_DEPTH - 2].join(", ");
        assert_eq!(update_depth(&parse_update(&seq).unwrap()), MAX_DEPTH);
        let seq = vec!["delete //a"; MAX_DEPTH - 1].join(", ");
        assert!(parse_update(&seq).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_query("for $x in").is_err());
        assert!(parse_query("//a[").is_err());
        assert!(parse_query("<a>").is_err());
        assert!(parse_query("$x/unknownaxis::a").is_err());
        assert!(parse_query("$x/attribute::node()").is_err());
        assert!(parse_update("insert <x/> sideways //a").is_err());
        assert!(parse_update("frobnicate //a").is_err());
    }

    #[test]
    fn attribute_steps_use_the_at_child_encoding() {
        let q = parse_query("//item/@id").unwrap();
        assert!(q.to_string().contains("child::@id"), "{q}");
        let q2 = parse_query("$x/attribute::lang").unwrap();
        assert_eq!(
            q2,
            Query::step("$x", Axis::Child, NodeTest::Tag("@lang".into()))
        );
    }

    #[test]
    fn following_and_preceding_axes_are_encoded() {
        let q = parse_query("$x/following::price").unwrap();
        let s = q.to_string();
        assert!(s.contains("ancestor-or-self::node()"), "{s}");
        assert!(s.contains("following-sibling::node()"), "{s}");
        assert!(s.contains("descendant-or-self::price"), "{s}");
        let p = parse_query("//keyword/preceding::listitem").unwrap();
        assert!(p.to_string().contains("preceding-sibling::node()"), "{p}");
    }

    #[test]
    fn quasi_closed_queries_have_only_root_free() {
        for src in [
            "//a//c",
            "/site/people/person[profile/age]/name",
            "for $b in //book return $b/title",
            "if (//book) then //title else ()",
        ] {
            let q = parse_query(src).unwrap();
            assert_eq!(
                q.free_vars(),
                [ROOT_VAR.to_string()].into_iter().collect(),
                "query {src}"
            );
        }
    }
}
