//! Parsers for schemas: the compact rule syntax used in the paper's examples
//! and standard `<!ELEMENT …>` DTD syntax.
//!
//! Compact syntax:
//!
//! ```text
//! doc -> (a | b)* ; a -> c ; b -> c ; c -> EMPTY
//! ```
//!
//! Rules are separated by `;` or newlines. Content models use `,` for
//! sequence, `|` for alternation, postfix `*`, `+`, `?`, parentheses,
//! `#PCDATA` (or `S`) for the text type and `EMPTY` for the empty content.
//! Symbols that appear only on right-hand sides implicitly get content
//! `EMPTY`, which lets the paper's abbreviated examples (`{doc←(a|b)*, a←c,
//! b←c}`) be written verbatim.
//!
//! DTD syntax: `<!ELEMENT name (content)>`, with `EMPTY` and mixed content
//! `(#PCDATA | a | b)*`; `<!ATTLIST …>` declarations and comments are
//! accepted and ignored (the paper's core model has no attributes).

use crate::content::ContentModel;
use crate::dtd::Dtd;
use crate::symbols::{SymbolTable, TEXT_SYM};
use std::fmt;

/// Maximum parenthesis nesting a content model may have; deeper input is
/// rejected rather than recursed into (bounding stack use on hostile input).
const MAX_DEPTH: usize = 64;

/// An error produced while parsing a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaParseError {
    /// Human-readable description.
    pub message: String,
}

impl SchemaParseError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        SchemaParseError {
            message: msg.into(),
        }
    }
}

impl fmt::Display for SchemaParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schema parse error: {}", self.message)
    }
}

impl std::error::Error for SchemaParseError {}

/// The first declared element name of a schema source in either syntax
/// (`<!ELEMENT name …>`, or `name -> …` / `name ← …`): the start symbol when
/// none is given.
pub fn default_start(src: &str) -> Option<String> {
    if let Some(idx) = src.find("<!ELEMENT") {
        let rest = src[idx + "<!ELEMENT".len()..].trim_start();
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.'))
            .collect();
        return (!name.is_empty()).then_some(name);
    }
    for line in src.split([';', '\n']) {
        if let Some((lhs, _)) = line.split_once("->").or_else(|| line.split_once('←')) {
            let lhs = lhs.trim();
            if !lhs.is_empty() {
                return Some(lhs.to_string());
            }
        }
    }
    None
}

/// Parses the compact rule syntax. `start` must be one of the declared or
/// referenced element names.
pub fn parse_compact(src: &str, start: &str) -> Result<Dtd, SchemaParseError> {
    let mut symbols = SymbolTable::new();
    let mut rules: Vec<(String, String)> = Vec::new();
    for raw_rule in src.split([';', '\n']) {
        let rule = raw_rule.trim();
        if rule.is_empty() || rule.starts_with('#') && !rule.contains("->") {
            continue;
        }
        let (lhs, rhs) = rule
            .split_once("->")
            .or_else(|| rule.split_once('←'))
            .ok_or_else(|| SchemaParseError::new(format!("rule without '->': {rule:?}")))?;
        rules.push((lhs.trim().to_string(), rhs.trim().to_string()));
    }
    if rules.is_empty() {
        return Err(SchemaParseError::new("no rules found"));
    }
    // Intern all left-hand sides first so rule indexing is stable.
    for (lhs, _) in &rules {
        if lhs.is_empty() {
            return Err(SchemaParseError::new("empty element name"));
        }
        symbols.intern(lhs);
    }
    let mut models: Vec<Option<ContentModel>> = Vec::new();
    let mut parsed: Vec<(String, ContentModel)> = Vec::new();
    for (lhs, rhs) in &rules {
        let cm = parse_content(rhs, &mut symbols)?;
        parsed.push((lhs.clone(), cm));
    }
    models.resize(symbols.len(), None);
    for (lhs, cm) in parsed {
        let sym = symbols.lookup(&lhs).expect("interned above");
        models[sym.index()] = Some(cm);
    }
    let start_sym = symbols
        .lookup(start)
        .ok_or_else(|| SchemaParseError::new(format!("start symbol {start:?} not declared")))?;
    // Symbols referenced but not declared get EMPTY content; the text type
    // gets ε.
    let final_models: Vec<ContentModel> = models
        .into_iter()
        .map(|m| m.unwrap_or(ContentModel::Epsilon))
        .collect();
    Ok(Dtd::from_parts(symbols, start_sym, final_models))
}

/// Parses standard `<!ELEMENT …>` declarations.
pub fn parse_dtd(src: &str, start: &str) -> Result<Dtd, SchemaParseError> {
    let mut compact_rules: Vec<String> = Vec::new();
    let mut rest = src;
    while let Some(idx) = rest.find("<!") {
        rest = &rest[idx..];
        if rest.starts_with("<!--") {
            match rest.find("-->") {
                Some(end) => rest = &rest[end + 3..],
                None => break,
            }
            continue;
        }
        let end = rest
            .find('>')
            .ok_or_else(|| SchemaParseError::new("unterminated declaration"))?;
        let decl = &rest[2..end];
        rest = &rest[end + 1..];
        let decl = decl.trim();
        if let Some(body) = decl.strip_prefix("ELEMENT") {
            let body = body.trim();
            let (name, content) = body
                .split_once(char::is_whitespace)
                .ok_or_else(|| SchemaParseError::new(format!("malformed ELEMENT: {body:?}")))?;
            let content = content.trim();
            let content = if content == "ANY" {
                // ANY is not used in our workloads; treat it as EMPTY with a
                // clear error to avoid silently mis-modelling a schema.
                return Err(SchemaParseError::new(
                    "ANY content models are not supported",
                ));
            } else {
                content.to_string()
            };
            compact_rules.push(format!("{name} -> {content}"));
        }
        // ATTLIST / ENTITY / NOTATION declarations are ignored.
    }
    parse_compact(&compact_rules.join("\n"), start)
}

/// Parses a content-model expression, interning referenced names.
pub fn parse_content(
    src: &str,
    symbols: &mut SymbolTable,
) -> Result<ContentModel, SchemaParseError> {
    let mut p = ContentParser {
        chars: src.chars().collect(),
        pos: 0,
        depth: 0,
        symbols,
    };
    p.skip_ws();
    if p.eof() {
        return Ok(ContentModel::Epsilon);
    }
    let cm = p.parse_alt()?;
    p.skip_ws();
    if !p.eof() {
        return Err(SchemaParseError::new(format!(
            "unexpected trailing input in content model {src:?} at {}",
            p.pos
        )));
    }
    Ok(cm)
}

struct ContentParser<'a> {
    chars: Vec<char>,
    pos: usize,
    /// Current parenthesis nesting (see [`MAX_DEPTH`]).
    depth: usize,
    symbols: &'a mut SymbolTable,
}

impl<'a> ContentParser<'a> {
    fn eof(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    /// alternation: seq ('|' seq)*
    fn parse_alt(&mut self) -> Result<ContentModel, SchemaParseError> {
        let mut items = vec![self.parse_seq()?];
        loop {
            self.skip_ws();
            if self.peek() == Some('|') {
                self.pos += 1;
                items.push(self.parse_seq()?);
            } else {
                break;
            }
        }
        Ok(ContentModel::alt(items))
    }

    /// sequence: postfix (',' postfix)*
    fn parse_seq(&mut self) -> Result<ContentModel, SchemaParseError> {
        let mut items = vec![self.parse_postfix()?];
        loop {
            self.skip_ws();
            if self.peek() == Some(',') {
                self.pos += 1;
                items.push(self.parse_postfix()?);
            } else {
                break;
            }
        }
        Ok(ContentModel::seq(items))
    }

    /// postfix: atom ('*' | '+' | '?')*
    fn parse_postfix(&mut self) -> Result<ContentModel, SchemaParseError> {
        let mut atom = self.parse_atom()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('*') => {
                    self.pos += 1;
                    atom = ContentModel::star(atom);
                }
                Some('+') => {
                    self.pos += 1;
                    atom = ContentModel::plus(atom);
                }
                Some('?') => {
                    self.pos += 1;
                    atom = ContentModel::opt(atom);
                }
                _ => break,
            }
        }
        Ok(atom)
    }

    /// atom: '(' alt ')' | name | '#PCDATA' | 'S' | 'EMPTY'
    fn parse_atom(&mut self) -> Result<ContentModel, SchemaParseError> {
        self.skip_ws();
        match self.peek() {
            Some('(') => {
                if self.depth >= MAX_DEPTH {
                    return Err(SchemaParseError::new(format!(
                        "content model nested deeper than {MAX_DEPTH} levels"
                    )));
                }
                self.pos += 1;
                self.depth += 1;
                let inner = self.parse_alt()?;
                self.depth -= 1;
                self.skip_ws();
                if self.peek() != Some(')') {
                    return Err(SchemaParseError::new("expected ')'"));
                }
                self.pos += 1;
                Ok(inner)
            }
            Some(c) if c == '#' || c == '@' || c.is_alphanumeric() || c == '_' => {
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | '#' | '@'))
                {
                    self.pos += 1;
                }
                let name: String = self.chars[start..self.pos].iter().collect();
                match name.as_str() {
                    "EMPTY" => Ok(ContentModel::Epsilon),
                    "#PCDATA" | "S" | "string" => Ok(ContentModel::sym(TEXT_SYM)),
                    _ => Ok(ContentModel::sym(self.symbols.intern(&name))),
                }
            }
            other => Err(SchemaParseError::new(format!(
                "unexpected character {other:?} in content model"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_like::SchemaLike;

    #[test]
    fn compact_parses_figure1() {
        let d = parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap();
        assert_eq!(d.size(), 4); // doc, a, b, c (c implicitly EMPTY)
        let doc = d.sym("doc").unwrap();
        assert_eq!(d.child_syms(doc).len(), 2);
        assert_eq!(d.content(d.sym("c").unwrap()), &ContentModel::Epsilon);
    }

    #[test]
    fn compact_supports_unicode_arrow() {
        let d = parse_compact("doc ← a ; a ← #PCDATA", "doc").unwrap();
        let a = d.sym("a").unwrap();
        assert_eq!(d.child_syms(a), &[TEXT_SYM]);
    }

    #[test]
    fn compact_rejects_bad_input() {
        assert!(parse_compact("", "doc").is_err());
        assert!(parse_compact("doc (a|b)", "doc").is_err());
        assert!(parse_compact("doc -> (a|b", "doc").is_err());
        assert!(parse_compact("doc -> a", "nosuch").is_err());
    }

    #[test]
    fn dtd_syntax_with_attlist_and_comments() {
        let src = r#"
            <!-- bibliography -->
            <!ELEMENT bib (book*)>
            <!ELEMENT book (title, author*, price?)>
            <!ATTLIST book year CDATA #REQUIRED>
            <!ELEMENT title (#PCDATA)>
            <!ELEMENT author (first?, last)>
            <!ELEMENT first (#PCDATA)>
            <!ELEMENT last (#PCDATA)>
            <!ELEMENT price (#PCDATA)>
        "#;
        let d = parse_dtd(src, "bib").unwrap();
        // bib, book, title, author, first, last, price
        assert_eq!(d.size(), 7);
        let book = d.sym("book").unwrap();
        assert!(d.reaches(book, d.sym("title").unwrap()));
        assert!(d.reaches(book, d.sym("author").unwrap()));
        assert!(!d.reaches(book, d.sym("last").unwrap()));
    }

    #[test]
    fn dtd_syntax_rejects_any() {
        assert!(parse_dtd("<!ELEMENT a ANY>", "a").is_err());
    }

    #[test]
    fn mixed_content_model() {
        let d = parse_compact(
            "text -> (#PCDATA | bold | emph)* ; bold -> (#PCDATA | bold | emph)* ; emph -> EMPTY",
            "text",
        )
        .unwrap();
        let text = d.sym("text").unwrap();
        assert!(d.child_syms(text).contains(&TEXT_SYM));
        assert!(d.is_recursive_sym(d.sym("bold").unwrap()));
        assert!(!d.is_recursive_sym(d.sym("emph").unwrap()));
        assert!(d.is_recursive());
    }

    #[test]
    fn nesting_beyond_the_depth_limit_is_an_error() {
        let deep = |n: usize| format!("a -> {}b{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_compact(&deep(MAX_DEPTH), "a").is_ok());
        for n in [MAX_DEPTH + 1, 20_000] {
            let err = parse_compact(&deep(n), "a").unwrap_err();
            assert!(err.message.contains("nested deeper"), "{err}");
        }
    }

    #[test]
    fn operator_precedence_and_nesting() {
        let mut t = SymbolTable::new();
        let cm = parse_content("(a, b)* | c?, d+", &mut t).unwrap();
        // Top level is an alternation of two branches.
        match cm {
            ContentModel::Alt(items) => assert_eq!(items.len(), 2),
            other => panic!("expected Alt, got {other:?}"),
        }
    }
}
