//! The schema corpus: hand-written DTD fixtures of deliberately different
//! shapes plus a seeded random-schema generator, with matching seeded
//! query/update generators.
//!
//! Every analysis result in this repository was originally demonstrated
//! against exactly one schema (XMark). The corpus breaks that monoculture:
//! the differential, precision and view-maintenance suites iterate a
//! [`Corpus`] — five fixtures (shallow-wide catalog, deep-recursive
//! treatise, attribute-heavy records, mixed-content article,
//! mutual-recursion orgchart) optionally extended with [`SchemaGen`]
//! schemas — and the concurrency suite loads the same corpus into one
//! multi-schema session registry.
//!
//! Everything here is deterministic per seed: [`SchemaGen::generate`],
//! [`random_query`] and [`random_update`] derive all choices from the
//! caller's [`StdRng`], so a corpus run is replayable from its seed alone.
//!
//! Generated schemas are **terminating by construction**: the base rules
//! form a level DAG (each rule only references strictly deeper symbols,
//! bottoming out in `#PCDATA`/`EMPTY` leaves) and recursion cliques are
//! added only under `?`/`*` modifiers, so every element can derive a finite
//! document — the invariant [`generate_valid`](crate::generate_valid)
//! asserts.

use crate::dtd::Dtd;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One corpus schema: a name, a shape tag, the schema source (compact rule
/// syntax or `<!ELEMENT …>` DTD syntax) and the start symbol.
#[derive(Clone, Debug)]
pub struct CorpusSchema {
    /// Registry-friendly identifier (`catalog`, `gen-7-…`).
    pub name: String,
    /// The shape family, for reports ("shallow-wide", "deep-recursive", …).
    pub shape: &'static str,
    /// Schema source; `<!ELEMENT` declarations or the compact rule syntax.
    pub source: String,
    /// Start symbol.
    pub start: String,
}

impl CorpusSchema {
    /// Parses the schema (corpus sources are valid by construction).
    pub fn dtd(&self) -> Dtd {
        if self.source.contains("<!ELEMENT") {
            crate::parser::parse_dtd(&self.source, &self.start)
        } else {
            crate::parser::parse_compact(&self.source, &self.start)
        }
        .expect("corpus schemas parse")
    }

    /// The element labels of the schema, in symbol order — the label pool
    /// the query/update generators draw from.
    pub fn labels(&self) -> Vec<String> {
        let dtd = self.dtd();
        dtd.alphabet().map(|s| dtd.name(s).to_string()).collect()
    }
}

// ---------------------------------------------------------------------------
// Hand-written fixtures
// ---------------------------------------------------------------------------

fn fixture(name: &str, shape: &'static str, source: &str, start: &str) -> CorpusSchema {
    CorpusSchema {
        name: name.to_string(),
        shape,
        source: source.to_string(),
        start: start.to_string(),
    }
}

/// The five hand-written fixtures, in corpus order.
pub fn fixtures() -> Vec<CorpusSchema> {
    vec![
        fixture(
            "catalog",
            "shallow-wide",
            "catalog -> (product*, vendor*, promotion?) ;
             product -> (name, sku, price, stock?, blurb?, tag*) ;
             vendor -> (name, region?, rating?) ;
             promotion -> (name, price, expires?) ;
             name -> #PCDATA ; sku -> #PCDATA ; price -> #PCDATA ;
             stock -> #PCDATA ; blurb -> #PCDATA ; tag -> #PCDATA ;
             region -> #PCDATA ; rating -> #PCDATA ; expires -> #PCDATA",
            "catalog",
        ),
        fixture(
            "treatise",
            "deep-recursive",
            "treatise -> (title, section+) ;
             section -> (title, para*, note?, section*) ;
             note -> (para+) ;
             para -> (#PCDATA | emph)* ;
             emph -> #PCDATA ; title -> #PCDATA",
            "treatise",
        ),
        fixture(
            "records",
            "attribute-heavy",
            r#"<!ELEMENT records (record*)>
               <!ATTLIST records version CDATA #REQUIRED schema CDATA #IMPLIED>
               <!ELEMENT record (field*, audit?)>
               <!ATTLIST record id ID #REQUIRED owner CDATA #REQUIRED stamp CDATA #IMPLIED>
               <!ELEMENT field (#PCDATA)>
               <!ATTLIST field key CDATA #REQUIRED kind CDATA #IMPLIED>
               <!ELEMENT audit (entry*)>
               <!ELEMENT entry (#PCDATA)>
               <!ATTLIST entry at CDATA #REQUIRED who CDATA #IMPLIED>"#,
            "records",
        ),
        fixture(
            "article",
            "mixed-content",
            "article -> (title, meta?, body) ;
             meta -> (author+, date?) ;
             body -> (#PCDATA | para | list)* ;
             para -> (#PCDATA | em | strong | cite)* ;
             list -> (item+) ;
             item -> (#PCDATA | em)* ;
             em -> (#PCDATA | strong)* ;
             strong -> #PCDATA ; cite -> #PCDATA ;
             title -> #PCDATA ; author -> #PCDATA ; date -> #PCDATA",
            "article",
        ),
        fixture(
            "orgchart",
            "mutual-recursive",
            "org -> (unit*) ;
             unit -> (name, head?, team*, unit*) ;
             head -> (member) ;
             team -> (name, member*) ;
             member -> (name, reports?) ;
             reports -> (member+) ;
             name -> #PCDATA",
            "org",
        ),
    ]
}

// ---------------------------------------------------------------------------
// Seeded schema generation
// ---------------------------------------------------------------------------

/// A seeded random-schema generator. The knobs bound the *shape*:
/// `depth` levels of a rule DAG, up to `fanout` child references per rule,
/// `recursion_cliques` optional back-edges (each closes a parent↔child
/// cycle), and `alphabet` element symbols overall.
#[derive(Clone, Copy, Debug)]
pub struct SchemaGen {
    /// Levels of the base rule DAG (≥ 2; leaves live on the last level).
    pub depth: usize,
    /// Maximum child references per non-leaf rule (≥ 1).
    pub fanout: usize,
    /// Number of `?`/`*`-guarded back-edges closing recursion cliques.
    pub recursion_cliques: usize,
    /// Total element symbols (clamped to at least `depth`).
    pub alphabet: usize,
}

impl Default for SchemaGen {
    fn default() -> Self {
        SchemaGen {
            depth: 4,
            fanout: 3,
            recursion_cliques: 1,
            alphabet: 12,
        }
    }
}

impl SchemaGen {
    /// Generates one schema, deterministically per `(self, seed)`.
    pub fn generate(&self, seed: u64) -> CorpusSchema {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0AB_5EED_0DDB_A11E);
        let depth = self.depth.max(2);
        let n = self.alphabet.max(depth);
        // Symbol i lives on level i*depth/n: level 0 holds the start symbol,
        // the last level holds leaves only.
        let level = |i: usize| i * depth / n;
        let name = |i: usize| format!("e{i}");
        let mut models: Vec<String> = Vec::with_capacity(n);
        for i in 0..n {
            let l = level(i);
            if l + 1 >= depth {
                models.push(
                    if rng.random_bool(0.7) {
                        "#PCDATA"
                    } else {
                        "EMPTY"
                    }
                    .to_string(),
                );
                continue;
            }
            // Children come from strictly deeper levels, so the base rules
            // form a DAG and every symbol terminates.
            let deeper: Vec<usize> = (0..n).filter(|&j| level(j) > l).collect();
            let k = rng.random_range(1..=self.fanout.max(1)).min(deeper.len());
            let mut parts: Vec<String> = Vec::with_capacity(k);
            for _ in 0..k {
                let child = deeper[rng.random_range(0..deeper.len())];
                let modifier = ["", "?", "*", "+"][rng.random_range(0..4usize)];
                parts.push(format!("{}{}", name(child), modifier));
            }
            let model = if parts.len() >= 2 && rng.random_bool(0.3) {
                format!("({})*", parts.join(" | ").replace(['?', '*', '+'], ""))
            } else {
                format!("({})", parts.join(", "))
            };
            models.push(model);
        }
        // Recursion cliques: append an optional reference back to a
        // shallower symbol. The back-edge sits under `?`/`*`, so the
        // element still derives a finite document by taking zero copies.
        for _ in 0..self.recursion_cliques {
            let from = rng.random_range(0..n);
            let shallower: Vec<usize> = (0..n).filter(|&j| level(j) <= level(from)).collect();
            let to = shallower[rng.random_range(0..shallower.len())];
            let modifier = if rng.random_bool(0.5) { "?" } else { "*" };
            let target = format!("{}{}", name(to), modifier);
            if models[from] == "EMPTY" {
                models[from] = format!("({target})");
            } else if models[from] == "#PCDATA" {
                models[from] = format!("(#PCDATA, {target})");
            } else {
                let m = &models[from];
                models[from] = format!("({m}, {target})");
            }
        }
        let source = (0..n)
            .map(|i| format!("{} -> {}", name(i), models[i]))
            .collect::<Vec<_>>()
            .join(" ;\n");
        CorpusSchema {
            name: format!("gen-{seed}-d{depth}f{}a{n}", self.fanout.max(1)),
            shape: "generated",
            source,
            start: name(0),
        }
    }
}

// ---------------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------------

/// An iterable set of corpus schemas: the hand-written fixtures, optionally
/// extended with seeded [`SchemaGen`] schemas of varied shape.
#[derive(Clone, Debug)]
pub struct Corpus {
    schemas: Vec<CorpusSchema>,
}

impl Corpus {
    /// The five hand-written fixtures only.
    pub fn fixtures() -> Corpus {
        Corpus {
            schemas: fixtures(),
        }
    }

    /// Fixtures plus `generated` random schemas. Shapes vary with the
    /// index (depth 3–5, fanout 2–4, 0–2 recursion cliques, alphabet
    /// 8–20), all derived from `seed` alone.
    pub fn seeded(seed: u64, generated: usize) -> Corpus {
        let mut schemas = fixtures();
        for i in 0..generated {
            let g = SchemaGen {
                depth: 3 + i % 3,
                fanout: 2 + i % 3,
                recursion_cliques: i % 3,
                alphabet: 8 + 4 * (i % 4),
            };
            schemas.push(g.generate(seed.wrapping_add(i as u64)));
        }
        Corpus { schemas }
    }

    /// Iterates the schemas in corpus order.
    pub fn iter(&self) -> std::slice::Iter<'_, CorpusSchema> {
        self.schemas.iter()
    }

    /// Number of schemas.
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// Whether the corpus is empty (it never is, but clippy insists a
    /// `len` comes with an `is_empty`).
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }
}

impl<'a> IntoIterator for &'a Corpus {
    type Item = &'a CorpusSchema;
    type IntoIter = std::slice::Iter<'a, CorpusSchema>;
    fn into_iter(self) -> Self::IntoIter {
        self.schemas.iter()
    }
}

impl IntoIterator for Corpus {
    type Item = CorpusSchema;
    type IntoIter = std::vec::IntoIter<CorpusSchema>;
    fn into_iter(self) -> Self::IntoIter {
        self.schemas.into_iter()
    }
}

// ---------------------------------------------------------------------------
// Seeded query/update generation
// ---------------------------------------------------------------------------

/// Draws a random query over the given label pool (eight shapes mirroring
/// the differential suite's generator: descendant/child paths, parent and
/// ancestor axes, sibling steps and a FLWR body).
pub fn random_query(labels: &[String], rng: &mut StdRng) -> String {
    let l = |rng: &mut StdRng| labels[rng.random_range(0..labels.len())].clone();
    let (a, b) = (l(rng), l(rng));
    match rng.random_range(0..8usize) {
        0 => format!("//{a}"),
        1 => format!("/{a}/{b}"),
        2 => format!("//{a}//{b}"),
        3 => format!("//{a}/{b}"),
        4 => format!("//{a}/parent::node()"),
        5 => format!("//{a}/ancestor::{b}"),
        6 => format!("for $x in //{a} return $x/{b}"),
        _ => format!("//{a}/following-sibling::{b}"),
    }
}

/// Draws a random update over the given label pool (six shapes: deletes at
/// varying depth, and FLWR insert/rename/replace bodies).
pub fn random_update(start: &str, labels: &[String], rng: &mut StdRng) -> String {
    let l = |rng: &mut StdRng| labels[rng.random_range(0..labels.len())].clone();
    let (a, b) = (l(rng), l(rng));
    match rng.random_range(0..6usize) {
        0 => format!("delete //{a}"),
        1 => format!("delete //{a}//{b}"),
        2 => format!("delete /{start}/{a}"),
        3 => format!("for $x in //{a} return insert <{b}/> into $x"),
        4 => format!("for $x in //{a} return rename $x as {b}"),
        _ => format!("for $x in //{a} return replace $x with <{b}/>"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genvalid::{generate_valid, GenValidConfig};
    use crate::schema_like::SchemaLike;

    #[test]
    fn fixtures_parse_and_generate_valid_documents() {
        for schema in Corpus::fixtures().iter() {
            let dtd = schema.dtd();
            assert!(dtd.size() >= 4, "{} too small", schema.name);
            for seed in 0..3u64 {
                let t = generate_valid(&dtd, &GenValidConfig::with_target(300), seed);
                assert!(
                    dtd.validate(&t).is_ok(),
                    "{} seed {seed} produced an invalid document",
                    schema.name
                );
            }
        }
    }

    #[test]
    fn fixtures_cover_the_declared_shapes() {
        let corpus = Corpus::fixtures();
        let shapes: Vec<&str> = corpus.iter().map(|s| s.shape).collect();
        assert_eq!(
            shapes,
            vec![
                "shallow-wide",
                "deep-recursive",
                "attribute-heavy",
                "mixed-content",
                "mutual-recursive"
            ]
        );
        // The recursive fixtures really are recursive; the catalog is not.
        assert!(!corpus.schemas[0].dtd().is_recursive());
        assert!(corpus.schemas[1].dtd().is_recursive());
        assert!(corpus.schemas[4].dtd().is_recursive());
    }

    #[test]
    fn schema_gen_is_deterministic_and_terminating() {
        let g = SchemaGen::default();
        let a = g.generate(7);
        let b = g.generate(7);
        assert_eq!(a.source, b.source);
        assert_ne!(a.source, g.generate(8).source);
        for seed in 0..16u64 {
            let schema = g.generate(seed);
            let dtd = schema.dtd();
            // generate_valid panics if any element cannot derive a finite
            // document — running it is the termination assertion.
            let t = generate_valid(&dtd, &GenValidConfig::with_target(200), seed);
            assert!(dtd.validate(&t).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn recursion_cliques_make_generated_schemas_recursive() {
        // With zero cliques the rule graph is a level DAG; with several,
        // some seed closes a cycle (the back-edge may target a leaf's own
        // level, so not every seed is recursive — but most are).
        let flat = SchemaGen {
            recursion_cliques: 0,
            ..SchemaGen::default()
        };
        for seed in 0..8u64 {
            assert!(!flat.generate(seed).dtd().is_recursive(), "seed {seed}");
        }
        let cyclic = SchemaGen {
            recursion_cliques: 3,
            ..SchemaGen::default()
        };
        let recursive = (0..8u64)
            .filter(|&s| cyclic.generate(s).dtd().is_recursive())
            .count();
        assert!(recursive >= 4, "only {recursive}/8 seeds recursive");
    }

    #[test]
    fn fixtures_and_generated_schemas_parse_under_the_nesting_limit() {
        let corpus = Corpus::seeded(1, 60);
        assert_eq!(corpus.len(), 65);
        for cs in &corpus {
            assert!(cs.dtd().size() > 0, "{}", cs.source);
        }
    }

    #[test]
    fn corpus_iterates_fixtures_plus_generated() {
        let corpus = Corpus::seeded(42, 3);
        assert_eq!(corpus.len(), 8);
        assert_eq!(corpus.iter().filter(|s| s.shape == "generated").count(), 3);
        // Same seed, same corpus.
        let again = Corpus::seeded(42, 3);
        for (a, b) in corpus.iter().zip(again.iter()) {
            assert_eq!(a.source, b.source);
        }
    }

    #[test]
    fn query_and_update_generators_are_deterministic() {
        let labels = Corpus::fixtures().iter().next().unwrap().labels();
        assert!(labels.len() >= 10);
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        for _ in 0..32 {
            assert_eq!(
                random_query(&labels, &mut r1),
                random_query(&labels, &mut r2)
            );
            assert_eq!(
                random_update("catalog", &labels, &mut r1),
                random_update("catalog", &labels, &mut r2)
            );
        }
    }
}
