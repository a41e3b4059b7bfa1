//! Per-axis semantics and the soundness of single-step chain inference
//! (Lemma 3.1): for every node of a valid document and every XPath step, the
//! chain of every node selected by the step is among the chains inferred by
//! `TC(AC(c, axis), φ)`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use xml_qui::core::engine::explicit::ExplicitEngine;
use xml_qui::core::Universe;
use xml_qui::schema::{generate_valid, Dtd, GenValidConfig};
use xml_qui::workloads::{all_updates, all_views, xmark_document};
use xml_qui::xmlstore::{parse_xml, serialize_node, NodeId, Store, Tree};
use xml_qui::xquery::eval::{
    evaluate_query, evaluate_query_with_env, evaluate_update, UpdateCommand,
};
use xml_qui::xquery::{parse_query, parse_update, Axis, NodeTest, Query, Update};

fn sibling_dtd() -> Dtd {
    Dtd::parse_compact(
        "r -> (a, b*, c?) ; a -> (d, e) ; b -> d? ; c -> EMPTY ; d -> #PCDATA ; e -> EMPTY",
        "r",
    )
    .unwrap()
}

fn sample_doc() -> Tree {
    parse_xml("<r><a><d>x</d><e/></a><b><d>y</d></b><b/><c/></r>").unwrap()
}

/// Evaluates `$x/axis::test` with `$x` bound to `ctx`, in place (a step
/// allocates no nodes).
fn step_from(store: &mut Store, ctx: &[NodeId], axis: Axis, test: NodeTest) -> Vec<NodeId> {
    let mut env = xml_qui::xquery::eval::Env::new();
    env.insert("$x".to_string(), ctx.to_vec());
    let q = Query::step("$x", axis, test);
    evaluate_query_with_env(store, &env, &q).unwrap()
}

/// Evaluates a single step from one context node.
fn eval_step(tree: &Tree, ctx: NodeId, axis: Axis, test: NodeTest) -> Vec<NodeId> {
    let mut work = tree.clone();
    step_from(&mut work.store, &[ctx], axis, test)
}

/// The nodes of an axis in document order, computed directly from the
/// store's navigation primitives (the evaluator must agree with them).
fn expected_axis(store: &Store, ctx: NodeId, axis: Axis) -> Vec<NodeId> {
    match axis {
        Axis::SelfAxis => vec![ctx],
        Axis::Child => store.children(ctx).to_vec(),
        Axis::Descendant => store.descendants(ctx),
        Axis::DescendantOrSelf => store.descendants_or_self(ctx),
        Axis::Parent => store.parent(ctx).into_iter().collect(),
        Axis::Ancestor => store.ancestors(ctx).into_iter().rev().collect(),
        Axis::AncestorOrSelf => {
            let mut v: Vec<NodeId> = store.ancestors(ctx).into_iter().rev().collect();
            v.push(ctx);
            v
        }
        Axis::FollowingSibling => store.following_siblings(ctx),
        Axis::PrecedingSibling => store.preceding_siblings(ctx),
    }
}

/// Every kind of node test, tags that occur in the test documents, and a
/// tag no store ever interned.
fn node_tests() -> Vec<NodeTest> {
    let mut tests = vec![NodeTest::AnyNode, NodeTest::AnyElement, NodeTest::Text];
    for tag in ["b", "d", "item", "keyword", "never-interned"] {
        tests.push(NodeTest::Tag(tag.into()));
    }
    tests
}

fn passes(store: &Store, n: NodeId, test: &NodeTest) -> bool {
    match test {
        NodeTest::AnyNode => true,
        NodeTest::Text => store.is_text(n),
        NodeTest::AnyElement => store.is_element(n),
        NodeTest::Tag(t) => store.tag(n) == Some(t.as_str()),
    }
}

#[test]
fn every_axis_matches_store_navigation() {
    for mut tree in [sample_doc(), xmark_document(800, 3)] {
        for ctx in tree.reachable() {
            for axis in Axis::all() {
                for test in node_tests() {
                    let expected: Vec<NodeId> = expected_axis(&tree.store, ctx, axis)
                        .into_iter()
                        .filter(|&n| passes(&tree.store, n, &test))
                        .collect();
                    let got = step_from(&mut tree.store, &[ctx], axis, test.clone());
                    assert_eq!(got, expected, "{axis:?}::{test:?} from node {ctx:?}");
                }
            }
        }
    }
}

/// Steps from several context nodes — seeded random subsets of a document
/// and of a second, constructed tree, in shuffled order with duplicates —
/// return the union of the single-node steps in document order, as
/// `Store::doc_order_dedup` ranks it.
#[test]
fn multi_context_steps_match_store_document_order() {
    let mut tree = xmark_document(800, 3);
    let copy = tree.store.deep_copy(tree.root);
    let mut nodes = tree.reachable();
    nodes.extend(tree.store.descendants_or_self(copy));
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.random_range(2..16usize);
        let mut ctx: Vec<NodeId> = (0..len)
            .map(|_| nodes[rng.random_range(0..nodes.len())])
            .collect();
        // A repeated context node, at a random position.
        let dup = ctx[rng.random_range(0..len)];
        ctx.insert(rng.random_range(0..=len), dup);
        for axis in Axis::all() {
            for test in node_tests() {
                let mut expected: Vec<NodeId> = ctx
                    .iter()
                    .flat_map(|&c| expected_axis(&tree.store, c, axis))
                    .filter(|&n| passes(&tree.store, n, &test))
                    .collect();
                tree.store.doc_order_dedup(&mut expected);
                let got = step_from(&mut tree.store, &ctx, axis, test.clone());
                assert_eq!(
                    got, expected,
                    "seed {seed}: {axis:?}::{test:?} from {ctx:?}"
                );
            }
        }
    }
}

#[test]
fn node_tests_filter_by_kind_and_tag() {
    let tree = sample_doc();
    let root = tree.root;
    // child::b selects exactly the two b children.
    let bs = eval_step(&tree, root, Axis::Child, NodeTest::Tag("b".into()));
    assert_eq!(bs.len(), 2);
    assert!(bs.iter().all(|&n| tree.store.tag(n) == Some("b")));
    // descendant::text() selects the two text nodes.
    let texts = eval_step(&tree, root, Axis::Descendant, NodeTest::Text);
    assert_eq!(texts.len(), 2);
    assert!(texts.iter().all(|&n| tree.store.is_text(n)));
    // child::* selects elements only (all four children here are elements).
    let elems = eval_step(&tree, root, Axis::Child, NodeTest::AnyElement);
    assert_eq!(elems.len(), 4);
    // descendant-or-self::node() includes the context node itself.
    let all = eval_step(&tree, root, Axis::DescendantOrSelf, NodeTest::AnyNode);
    assert!(all.contains(&root));
    assert_eq!(all.len(), tree.size());
}

#[test]
fn sibling_axes_respect_document_order() {
    let tree = sample_doc();
    let root = tree.root;
    let children = tree.store.children(root).to_vec(); // a, b, b, c
    let first_b = children[1];
    let after: Vec<_> = eval_step(&tree, first_b, Axis::FollowingSibling, NodeTest::AnyNode);
    assert_eq!(after, vec![children[2], children[3]]);
    let before: Vec<_> = eval_step(&tree, first_b, Axis::PrecedingSibling, NodeTest::AnyNode);
    assert_eq!(before, vec![children[0]]);
    // With a tag test only the matching siblings remain.
    let after_c = eval_step(
        &tree,
        first_b,
        Axis::FollowingSibling,
        NodeTest::Tag("c".into()),
    );
    assert_eq!(after_c, vec![children[3]]);
}

/// Lemma 3.1 (soundness of step chains), checked dynamically: on documents
/// generated from non-recursive schemas, for every context node, axis and
/// node test, the chain of every selected node belongs to the statically
/// inferred step-chain set.
#[test]
fn step_chain_inference_covers_dynamic_steps() {
    let schemas = [
        sibling_dtd(),
        Dtd::parse_compact(
            "bib -> book* ; book -> (title, author*, price?) ; title -> #PCDATA ; \
             author -> (first?, last) ; first -> #PCDATA ; last -> #PCDATA ; price -> #PCDATA",
            "bib",
        )
        .unwrap(),
    ];
    let tests = [
        NodeTest::AnyNode,
        NodeTest::AnyElement,
        NodeTest::Text,
        NodeTest::Tag("d".into()),
        NodeTest::Tag("author".into()),
    ];
    for dtd in &schemas {
        let universe = Universe::unrestricted(dtd);
        let engine = ExplicitEngine::new(&universe, 100_000);
        for seed in [3u64, 17, 91] {
            let doc = generate_valid(dtd, &GenValidConfig::with_target(120), seed);
            let typing = dtd.validate(&doc).expect("generated document is valid");
            for ctx in doc.reachable() {
                let ctx_chain = typing.chain_of(&doc.store, ctx).expect("typed node");
                for axis in Axis::all() {
                    let step_chains = engine.ac(&ctx_chain, axis).expect("within budget");
                    for test in &tests {
                        let allowed = engine.tc(step_chains.clone(), test);
                        for selected in eval_step(&doc, ctx, axis, test.clone()) {
                            let chain = typing
                                .chain_of(&doc.store, selected)
                                .expect("selected node is typed");
                            assert!(
                                allowed.contains(&chain),
                                "axis {axis:?}, test {test:?}: dynamic chain {} not inferred",
                                dtd.show_chain(&chain)
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The `<_r` sibling-order relation used by the sibling-axis rules must agree
/// with the orders that actually occur in generated documents.
#[test]
fn before_pairs_cover_observed_sibling_orders() {
    let dtd = sibling_dtd();
    for seed in 0..10u64 {
        let doc = generate_valid(&dtd, &GenValidConfig::with_target(100), seed);
        let typing = dtd.validate(&doc).unwrap();
        for node in doc.reachable() {
            if !doc.store.is_element(node) {
                continue;
            }
            let Some(sym) = typing.type_of(node) else {
                continue;
            };
            let pairs = dtd.before_pairs(sym);
            let kids = doc.store.children(node).to_vec();
            for i in 0..kids.len() {
                for j in i + 1..kids.len() {
                    let a = typing.type_of(kids[i]).unwrap();
                    let b = typing.type_of(kids[j]).unwrap();
                    assert!(
                        pairs.contains(&(a, b)),
                        "observed {}-before-{} under {} but <_r does not allow it",
                        dtd.name(a),
                        dtd.name(b),
                        dtd.name(sym)
                    );
                }
            }
        }
    }
}

/// FNV-1a, 64-bit: a stable digest independent of the std hasher's seed.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digests a node: its location (so constructed-node ids are pinned too)
/// and its serialization.
fn digest_node(h: &mut u64, store: &Store, n: NodeId) {
    fnv1a(h, &n.0.to_le_bytes());
    fnv1a(h, serialize_node(store, n).as_bytes());
    fnv1a(h, &[0xff]);
}

/// The documents the digests cover: `xmark_document(3_000, 7)` plus two
/// larger ones, so that every view and update but A6, UA6 and UN3 selects
/// something on at least one of them.
const DIGEST_DOCUMENTS: [(usize, u64); 3] = [(3_000, 7), (6_000, 3), (10_000, 11)];

/// One digest per XMark view (its result sequence) and per XMark update (its
/// pending list: command kind, target and content), each evaluated on a fresh
/// copy of every document of [`DIGEST_DOCUMENTS`]. With `frozen`, the
/// documents are frozen first (same locations), so descendant walks prune
/// by the store's label-reach summary.
fn xmark_digests(frozen: bool) -> Vec<(&'static str, u64)> {
    let docs: Vec<Tree> = DIGEST_DOCUMENTS
        .iter()
        .map(|&(size, seed)| {
            let mut doc = xmark_document(size, seed);
            if frozen {
                doc.freeze();
            }
            doc
        })
        .collect();
    let mut out = Vec::new();
    for v in all_views() {
        let mut h = FNV_OFFSET;
        for doc in &docs {
            let mut work = doc.clone();
            let root = work.root;
            for n in evaluate_query(&mut work.store, root, &v.query).unwrap() {
                digest_node(&mut h, &work.store, n);
            }
            fnv1a(&mut h, &[0xfe]);
        }
        out.push((v.name, h));
    }
    for u in all_updates() {
        let mut h = FNV_OFFSET;
        for doc in &docs {
            let mut work = doc.clone();
            let root = work.root;
            for cmd in evaluate_update(&mut work.store, root, &u.update).unwrap() {
                let (kind, target) = match &cmd {
                    UpdateCommand::Ins { target, pos, .. } => (format!("ins {pos:?}"), *target),
                    UpdateCommand::Del { target } => ("del".to_string(), *target),
                    UpdateCommand::Repl { target, .. } => ("repl".to_string(), *target),
                    UpdateCommand::Ren { target, new_tag } => (format!("ren {new_tag}"), *target),
                };
                fnv1a(&mut h, kind.as_bytes());
                digest_node(&mut h, &work.store, target);
                for &c in cmd.content() {
                    digest_node(&mut h, &work.store, c);
                }
            }
            fnv1a(&mut h, &[0xfe]);
        }
        out.push((u.name, h));
    }
    out
}

/// Digests recorded with the evaluator that sorted every step by a
/// whole-document rank: the XMark views and updates must select the same
/// nodes, in the same order, and construct the same ids.
const XMARK_DIGESTS: [(&str, u64); 67] = [
    ("q1", 0xb1e1afa02dc7ea74),
    ("q2", 0xa044c692b7a90b9e),
    ("q3", 0x08d79774519e504a),
    ("q4", 0xc165c223808c1519),
    ("q5", 0x3da12858907f7297),
    ("q6", 0xc034f663329af602),
    ("q7", 0x1ac5f77190d79805),
    ("q8", 0xe6c82b0cd37588cd),
    ("q9", 0x10a017ef52245d76),
    ("q10", 0x97f4352ff8c34f1e),
    ("q11", 0x275d680c7c4bcb17),
    ("q12", 0xc785670415582d50),
    ("q13", 0xa09c861f3e14da54),
    ("q14", 0x09894d06261ce74b),
    ("q15", 0x044f5e1beb216349),
    ("q16", 0x044f5e1beb216349),
    ("q17", 0x09d79f09747656a8),
    ("q18", 0xeffdd2684be9cb0f),
    ("q19", 0x8b8a0a9e84f77ba4),
    ("q20", 0xf8f7707d082d96d1),
    ("A1", 0x7f26cb40fb5e13fb),
    ("A2", 0x7f26cb40fb5e13fb),
    ("A3", 0x7f26cb40fb5e13fb),
    ("A4", 0x236738802ea215cc),
    ("A5", 0x236738802ea215cc),
    ("A6", 0x044f5e1beb216349),
    ("A7", 0x2b8fbf3b08fc6579),
    ("A8", 0x697ccaadceb00e13),
    ("B1", 0x6b51f4cdf0689791),
    ("B2", 0xe799849ba908ae5c),
    ("B3", 0x4e522ddf03b913bc),
    ("B4", 0xaf09093cdad7f903),
    ("B5", 0x532a92a572b45ad9),
    ("B6", 0xc62da7beffa3c621),
    ("B7", 0xaf1c848873aabe51),
    ("B8", 0x79e6dd91c6e0185d),
    ("UA1", 0x8b615ab8d727c560),
    ("UA2", 0x8b615ab8d727c560),
    ("UA3", 0x8b615ab8d727c560),
    ("UA4", 0xf78cf8b01f97a945),
    ("UA5", 0xf78cf8b01f97a945),
    ("UA6", 0x044f5e1beb216349),
    ("UA7", 0x26d34eebca14d7ed),
    ("UA8", 0xf89ca4d50be5ac6c),
    ("UB1", 0xada55b1ea34fb8fe),
    ("UB2", 0x68ecdfa93af9d873),
    ("UB3", 0x0d7f42a686e155ca),
    ("UB4", 0xa0188250f6faa70b),
    ("UB5", 0x4ef6e896ee51e630),
    ("UB6", 0xe217540f90bc7e14),
    ("UB7", 0x218cb93149f61b39),
    ("UB8", 0x2f27adcdbbc65692),
    ("UI1", 0xfd33b3ae0aa86304),
    ("UI2", 0x0714df8e0d8538c5),
    ("UI3", 0x323fa8b7a4c45e01),
    ("UI4", 0x9ec3164566130148),
    ("UI5", 0x1f1f252625d3e0aa),
    ("UN1", 0xae2c49fdd331b0e7),
    ("UN2", 0x6c83b4562f8aabd7),
    ("UN3", 0x044f5e1beb216349),
    ("UN4", 0x395fdcf0ead87385),
    ("UN5", 0xd9f78daa4213663b),
    ("UP1", 0xf1f63e487149ed64),
    ("UP2", 0xe358492c70180af3),
    ("UP3", 0x440be60723e0f83f),
    ("UP4", 0x8b1b3cdfba37060a),
    ("UP5", 0x6bbc94fdaed6eb81),
];

#[test]
fn xmark_results_and_pending_lists_match_recorded_digests() {
    assert_eq!(xmark_digests(false), XMARK_DIGESTS);
    assert_eq!(xmark_digests(true), XMARK_DIGESTS, "frozen documents");
}

/// `q` with every `for` body that is one step on the loop variable,
/// `$v/axis::t`, rewritten to `($v/axis::t, ())`: the same query, but the
/// evaluator's one-step fast path no longer applies to it. Adds the number
/// of bodies rewritten to `n`.
fn slow_query(q: &Query, n: &mut usize) -> Query {
    let b = |q: &Query, n: &mut usize| Box::new(slow_query(q, n));
    match q {
        Query::Empty | Query::StringLit(_) | Query::Step { .. } => q.clone(),
        Query::Concat(a, c) => Query::Concat(b(a, n), b(c, n)),
        Query::Element { tag, content } => Query::Element {
            tag: tag.clone(),
            content: b(content, n),
        },
        Query::For { var, source, ret } => {
            let ret = match &**ret {
                Query::Step { var: ctx, .. } if ctx == var => {
                    *n += 1;
                    Query::Concat(ret.clone(), Box::new(Query::Empty))
                }
                other => slow_query(other, n),
            };
            Query::For {
                var: var.clone(),
                source: b(source, n),
                ret: Box::new(ret),
            }
        }
        Query::Let { var, source, ret } => Query::Let {
            var: var.clone(),
            source: b(source, n),
            ret: b(ret, n),
        },
        Query::If { cond, then, els } => Query::If {
            cond: b(cond, n),
            then: b(then, n),
            els: b(els, n),
        },
    }
}

/// [`slow_query`] applied to every query inside `u`.
fn slow_update(u: &Update, n: &mut usize) -> Update {
    let q = |q: &Query, n: &mut usize| Box::new(slow_query(q, n));
    let b = |u: &Update, n: &mut usize| Box::new(slow_update(u, n));
    match u {
        Update::Empty => Update::Empty,
        Update::Concat(a, c) => Update::Concat(b(a, n), b(c, n)),
        Update::For { var, source, body } => Update::For {
            var: var.clone(),
            source: q(source, n),
            body: b(body, n),
        },
        Update::Let { var, source, body } => Update::Let {
            var: var.clone(),
            source: q(source, n),
            body: b(body, n),
        },
        Update::If { cond, then, els } => Update::If {
            cond: q(cond, n),
            then: b(then, n),
            els: b(els, n),
        },
        Update::Delete { target } => Update::Delete {
            target: q(target, n),
        },
        Update::Rename { target, new_tag } => Update::Rename {
            target: q(target, n),
            new_tag: new_tag.clone(),
        },
        Update::Insert {
            source,
            pos,
            target,
        } => Update::Insert {
            source: q(source, n),
            pos: *pos,
            target: q(target, n),
        },
        Update::Replace { target, source } => Update::Replace {
            target: q(target, n),
            source: q(source, n),
        },
    }
}

/// The one-step `for` fast path returns exactly the generic path's
/// sequence, in order and with its duplicates: every XMark view and update
/// (targets, sources and constructed ids alike) on the digest documents and
/// a small nested one, plus paths through nested `listitem`/`parlist`,
/// where `for` order is not document order.
#[test]
fn one_step_for_fast_path_matches_the_generic_path() {
    let nested = parse_xml(
        "<site><listitem><parlist><listitem><text>a<keyword>k1</keyword></text>\
         <parlist><listitem><text>b</text></listitem></parlist></listitem></parlist>\
         <text>c<keyword>k2</keyword></text></listitem></site>",
    )
    .unwrap();
    let docs: Vec<Tree> = DIGEST_DOCUMENTS
        .iter()
        .map(|&(size, seed)| xmark_document(size, seed))
        .chain(std::iter::once(nested))
        .collect();
    let mut queries: Vec<(String, Query)> = all_views()
        .into_iter()
        .map(|v| (v.name.to_string(), v.query))
        .collect();
    for src in [
        "//listitem//text",
        "//listitem//keyword",
        "//parlist/listitem//listitem",
        "//keyword/ancestor::listitem",
        "//keyword/ancestor::listitem/text/keyword",
        "for $l in //listitem return $l/descendant-or-self::listitem",
        "//listitem/parlist/listitem/text/preceding-sibling::node()",
    ] {
        queries.push((src.to_string(), parse_query(src).unwrap()));
    }

    let mut rewritten = 0;
    let mut out_of_document_order = 0;
    for (name, q) in &queries {
        let slow = slow_query(q, &mut rewritten);
        for doc in &docs {
            let (mut fast_doc, mut slow_doc) = (doc.clone(), doc.clone());
            let fast = evaluate_query(&mut fast_doc.store, doc.root, q).unwrap();
            let generic = evaluate_query(&mut slow_doc.store, doc.root, &slow).unwrap();
            assert_eq!(fast, generic, "{name}");
            let mut sorted = fast.clone();
            fast_doc.store.doc_order_dedup(&mut sorted);
            out_of_document_order += usize::from(sorted != fast);
        }
    }
    assert!(rewritten > queries.len(), "paths must hit the fast path");
    assert!(
        out_of_document_order > 0,
        "some case must return nodes outside document order"
    );

    for u in all_updates() {
        let mut n = 0;
        let slow = slow_update(&u.update, &mut n);
        assert!(n > 0, "{}", u.name);
        for doc in &docs {
            let (mut fast_doc, mut slow_doc) = (doc.clone(), doc.clone());
            let fast = evaluate_update(&mut fast_doc.store, doc.root, &u.update);
            let generic = evaluate_update(&mut slow_doc.store, doc.root, &slow);
            assert_eq!(fast, generic, "{}", u.name);
        }
    }
    // One update whose target path runs through the nested region.
    let u = parse_update("delete //listitem//keyword").unwrap();
    let mut n = 0;
    let slow = slow_update(&u, &mut n);
    let doc = docs.last().unwrap();
    let (mut fast_doc, mut slow_doc) = (doc.clone(), doc.clone());
    let fast = evaluate_update(&mut fast_doc.store, doc.root, &u).unwrap();
    assert_eq!(
        fast.len(),
        3,
        "k1 twice (once per enclosing listitem), k2 once"
    );
    assert_eq!(
        Ok(fast),
        evaluate_update(&mut slow_doc.store, doc.root, &slow)
    );
}

/// A `//t` over a `let`-bound context: with several nodes, the
/// `descendant-or-self` step sorts and dedups their subtrees, so the fused
/// walk must not run; with one node or none, it does. Either way the result
/// is the generic path's, on unfrozen and on frozen (pruned) documents.
#[test]
fn fused_descendant_steps_over_let_bound_contexts_match_the_generic_path() {
    let nested = parse_xml(
        "<site><listitem><parlist><listitem><text>a<keyword>k1</keyword></text>\
         <parlist><listitem><text>b</text></listitem></parlist></listitem></parlist>\
         <text>c<keyword>k2</keyword></text></listitem></site>",
    )
    .unwrap();
    let mut docs = vec![nested, xmark_document(3_000, 7)];
    for i in 0..docs.len() {
        let mut frozen = docs[i].clone();
        frozen.freeze();
        docs.push(frozen);
    }
    let mut multi_node_differs = false;
    for src in [
        "let $x := //listitem return $x//keyword",
        "let $x := //listitem return $x//listitem",
        "let $x := //parlist return $x//text()",
        "let $x := (/listitem, //listitem) return $x//keyword",
        "let $x := /listitem return $x//keyword",
        "let $x := /listitem return $x//zzz",
        "let $x := () return $x//keyword",
        "let $x := //listitem return $x/descendant::keyword",
    ] {
        let q = parse_query(src).unwrap();
        let mut n = 0;
        let slow = slow_query(&q, &mut n);
        assert!(n > 0, "{src} must hit a fast path");
        for doc in &docs {
            let (mut fast_doc, mut slow_doc) = (doc.clone(), doc.clone());
            let fast = evaluate_query(&mut fast_doc.store, doc.root, &q).unwrap();
            let generic = evaluate_query(&mut slow_doc.store, doc.root, &slow).unwrap();
            assert_eq!(fast, generic, "{src}");
        }
        // Per-node concatenation would repeat the nested k1: the dedup of
        // the several-node context is observable.
        if src.starts_with("let $x := //listitem return $x//keyword") {
            let per_node = parse_query("for $l in //listitem return $l//keyword").unwrap();
            let mut doc = docs[0].clone();
            let root = doc.root;
            let dedup = evaluate_query(&mut doc.store, root, &q).unwrap();
            let concat = evaluate_query(&mut doc.store, root, &per_node).unwrap();
            multi_node_differs = dedup.len() < concat.len();
        }
    }
    assert!(multi_node_differs);
}
