//! The public entry point: the independence analyzer.
//!
//! [`IndependenceAnalyzer::check`] runs the full pipeline of the paper for a
//! query-update pair: compute `k = k_q + k_u` (Table 3), infer chains over
//! `C_d^k` (Tables 1 and 2), and test C-independence (Definition 4.1).
//!
//! The default [`EngineKind::Auto`] policy is **CDAG-first**: the polynomial
//! CDAG engine runs every pair, and because its chain sets over-approximate
//! the explicit sets, a CDAG independence verdict is final. Only pairs the
//! CDAG flags as dependent are re-checked with the explicit (reference)
//! engine under a materialization budget — this recovers full explicit
//! precision *and* the conflict witness — and when that budget overflows the
//! conservative CDAG verdict stands, which matches the paper's strategy of
//! keeping inference polynomial. [`EngineKind::Cdag`] stops after the CDAG
//! pass — the engine the view-maintenance path uses to decide which views
//! an update may skip.

use crate::conflict::ConflictWitness;
use crate::engine::explicit::ExplicitEngine;
use crate::kbound::k_for_pair;
use crate::parallel::{analyze_matrix, Jobs};
use crate::session::SessionBuilder;
use crate::types::{QueryChains, UpdateChains};
use crate::universe::Universe;
use qui_schema::SchemaLike;
use qui_xquery::{Query, Update};

/// Which inference engine produced a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Combine both engines: the CDAG engine runs first and proves
    /// independence outright; the explicit engine confirms the remaining
    /// dependences (and produces the witness) within its materialization
    /// budget.
    Auto,
    /// Always use the explicit (reference) engine.
    Explicit,
    /// Always use the CDAG engine.
    Cdag,
}

impl EngineKind {
    /// Parses a CLI-style engine name (`auto` / `explicit` / `cdag`).
    ///
    /// Unknown names are an error that lists the valid engines, so a CLI
    /// typo surfaces instead of silently falling back to a default.
    pub fn parse(s: &str) -> Result<EngineKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(EngineKind::Auto),
            "explicit" => Ok(EngineKind::Explicit),
            "cdag" => Ok(EngineKind::Cdag),
            other => Err(format!(
                "unknown engine '{other}'; valid engines are auto, explicit, cdag"
            )),
        }
    }
}

/// Configuration of the analyzer.
#[derive(Clone, Debug)]
pub struct AnalyzerConfig {
    /// Engine selection policy.
    pub engine: EngineKind,
    /// Materialization budget of the explicit engine (number of chains any
    /// single inferred set may contain).
    pub explicit_budget: usize,
    /// Element-chain inference (§3); disabling it reproduces the ablation the
    /// paper discusses.
    pub element_chains: bool,
    /// Overrides the multiplicity bound `k` computed from the pair — used by
    /// the R-benchmark, which sweeps `k` explicitly.
    pub k_override: Option<usize>,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            engine: EngineKind::Auto,
            explicit_budget: 20_000,
            element_chains: true,
            k_override: None,
        }
    }
}

/// The result of one independence check.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// `true` when the static analysis proves independence (crate-visible so
    /// the batch analyzer can assemble verdicts without re-running checks).
    pub(crate) independent: bool,
    /// The multiplicity bound `k` used by the finite analysis.
    pub k: usize,
    /// `k_q` of the query.
    pub k_query: usize,
    /// `k_u` of the update.
    pub k_update: usize,
    /// Which engine produced the verdict.
    pub engine_used: EngineKind,
    /// A witness of dependence (explicit engine only).
    pub witness: Option<ConflictWitness>,
    /// Number of query chains inferred (explicit engine) or CDAG edges
    /// (CDAG engine) — a size indicator for reports.
    pub query_chain_count: usize,
    /// Number of update chains inferred (explicit engine) or CDAG edges
    /// (CDAG engine).
    pub update_chain_count: usize,
}

impl Verdict {
    /// `true` when the static analysis proves the pair independent.
    pub fn is_independent(&self) -> bool {
        self.independent
    }
}

/// The chain-based independence analyzer over a schema.
pub struct IndependenceAnalyzer<'a, S: SchemaLike> {
    schema: &'a S,
    config: AnalyzerConfig,
}

impl<'a, S: SchemaLike> IndependenceAnalyzer<'a, S> {
    /// Creates an analyzer with the default configuration.
    pub fn new(schema: &'a S) -> Self {
        IndependenceAnalyzer {
            schema,
            config: AnalyzerConfig::default(),
        }
    }

    /// Creates an analyzer with an explicit configuration.
    pub fn with_config(schema: &'a S, config: AnalyzerConfig) -> Self {
        IndependenceAnalyzer { schema, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// The multiplicity bound used for a pair (`k_q + k_u`, or the override).
    pub fn k_for(&self, q: &Query, u: &Update) -> usize {
        self.config.k_override.unwrap_or_else(|| k_for_pair(q, u))
    }

    /// Checks independence of a query-update pair.
    ///
    /// This is a stateless wrapper over
    /// [`AnalysisSession::check`](crate::session::AnalysisSession::check) —
    /// a fresh one-shot session per call, so nothing is cached between
    /// calls. Callers checking many pairs against the same schema should
    /// hold a session (via [`crate::session::SessionBuilder`]) and keep its
    /// inference caches warm.
    pub fn check(&self, q: &Query, u: &Update) -> Verdict {
        SessionBuilder::new(self.schema)
            .config(self.config.clone())
            .build()
            .check(q, u)
    }

    /// Infers chains for the pair with the explicit engine, or `None` on
    /// budget overflow.
    pub fn infer_explicit(
        &self,
        q: &Query,
        u: &Update,
        k: usize,
    ) -> Option<(QueryChains, UpdateChains)> {
        let universe = Universe::with_k(self.schema, k);
        let eng = ExplicitEngine::new(&universe, self.config.explicit_budget)
            .with_element_chains(self.config.element_chains);
        let qc = eng.infer_query(&eng.root_gamma(q.free_vars()), q).ok()?;
        let uc = eng.infer_update(&eng.root_gamma(u.free_vars()), u).ok()?;
        Some((qc, uc))
    }

    /// Convenience: checks a whole set of views against one update and
    /// returns, for each view, whether it is independent of the update.
    ///
    /// This runs on the batched matrix engine
    /// ([`crate::parallel::analyze_matrix`]): each chain inference is
    /// computed once per distinct `k` and shared across views, and the cells
    /// are sharded over [`Jobs::Auto`] workers (`QUI_JOBS` or the machine's
    /// parallelism). Verdicts are identical to a sequential loop of
    /// [`check`](Self::check) for any worker count.
    pub fn check_views(&self, views: &[Query], u: &Update) -> Vec<bool>
    where
        S: Sync,
    {
        analyze_matrix(
            self.schema,
            views,
            std::slice::from_ref(u),
            &self.config,
            Jobs::Auto,
        )
        .independent_flags(0)
    }
}

/// The conservative (dependent) verdict reported when the caller forced the
/// explicit engine and its materialization budget overflowed. Crate-visible
/// so the batch analyzer mirrors it cell for cell.
pub(crate) fn conservative_explicit_verdict(
    (k, k_query, k_update): (usize, usize, usize),
) -> Verdict {
    Verdict {
        independent: false,
        k,
        k_query,
        k_update,
        engine_used: EngineKind::Explicit,
        witness: None,
        query_chain_count: 0,
        update_chain_count: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qui_schema::Dtd;
    use qui_xquery::{parse_query, parse_update};

    fn figure1() -> Dtd {
        Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap()
    }

    fn bib() -> Dtd {
        Dtd::parse_compact(
            "bib -> book* ; book -> (title, author*, price?) ; title -> #PCDATA ; \
             author -> (first?, last) ; first -> #PCDATA ; last -> #PCDATA ; price -> #PCDATA",
            "bib",
        )
        .unwrap()
    }

    #[test]
    fn paper_example_q1_u1_independent() {
        let d = figure1();
        let a = IndependenceAnalyzer::new(&d);
        let q1 = parse_query("//a//c").unwrap();
        let u1 = parse_update("delete //b//c").unwrap();
        let v = a.check(&q1, &u1);
        assert!(v.is_independent());
        // The CDAG-first auto policy proves independent pairs without ever
        // materializing explicit chain sets.
        assert_eq!(v.engine_used, EngineKind::Cdag);
        assert!(v.k >= 2);
    }

    #[test]
    fn paper_example_q2_u2_independent() {
        let d = bib();
        let a = IndependenceAnalyzer::new(&d);
        let q2 = parse_query("//title").unwrap();
        let u2 = parse_update("for $x in //book return insert <author/> into $x").unwrap();
        assert!(a.check(&q2, &u2).is_independent());
        // …but a query over authors is affected.
        let q3 = parse_query("//author//last").unwrap();
        assert!(!a.check(&q3, &u2).is_independent());
    }

    #[test]
    fn dependent_pairs_are_reported_with_witness() {
        let d = figure1();
        let a = IndependenceAnalyzer::new(&d);
        let q = parse_query("//c").unwrap();
        let u = parse_update("delete //b//c").unwrap();
        let v = a.check(&q, &u);
        assert!(!v.is_independent());
        assert!(v.witness.is_some());
    }

    #[test]
    fn engine_choice_is_respected_and_consistent() {
        let d = figure1();
        let q = parse_query("//a//c").unwrap();
        let u = parse_update("delete //b//c").unwrap();
        for engine in [EngineKind::Explicit, EngineKind::Cdag, EngineKind::Auto] {
            let a = IndependenceAnalyzer::with_config(
                &d,
                AnalyzerConfig {
                    engine,
                    ..Default::default()
                },
            );
            assert!(a.check(&q, &u).is_independent(), "engine {engine:?}");
        }
    }

    #[test]
    fn auto_falls_back_to_cdag_on_blowup() {
        let d = Dtd::parse_compact("a -> (b|c)* ; b -> (b|c)* ; c -> (b|c)*", "a").unwrap();
        let a = IndependenceAnalyzer::with_config(
            &d,
            AnalyzerConfig {
                explicit_budget: 100,
                ..Default::default()
            },
        );
        let q = parse_query("//b//c//b").unwrap();
        let u = parse_update("delete //c//b//c").unwrap();
        let v = a.check(&q, &u);
        assert_eq!(v.engine_used, EngineKind::Cdag);
        // Everything overlaps in this schema, so independence cannot hold.
        assert!(!v.is_independent());
    }

    #[test]
    fn element_chain_ablation_loses_precision() {
        let d = bib();
        let q2 = parse_query("//title").unwrap();
        let u2 = parse_update("for $x in //book return insert <author/> into $x").unwrap();
        let precise = IndependenceAnalyzer::new(&d);
        assert!(precise.check(&q2, &u2).is_independent());
        let ablated = IndependenceAnalyzer::with_config(
            &d,
            AnalyzerConfig {
                element_chains: false,
                ..Default::default()
            },
        );
        assert!(!ablated.check(&q2, &u2).is_independent());
    }

    #[test]
    fn k_override_is_used() {
        let d = figure1();
        let a = IndependenceAnalyzer::with_config(
            &d,
            AnalyzerConfig {
                k_override: Some(7),
                ..Default::default()
            },
        );
        let q = parse_query("//a//c").unwrap();
        let u = parse_update("delete //b//c").unwrap();
        assert_eq!(a.k_for(&q, &u), 7);
        assert!(a.check(&q, &u).is_independent());
    }

    #[test]
    fn section5_example_needs_k_sum() {
        // q = /descendant::b, u = delete /descendant::c over d1 (§5): they
        // are dependent; with k = k_q + k_u the analysis must detect it.
        let d1 = Dtd::builder()
            .rule("r", "a")
            .rule("a", "(b, c, e)*")
            .rule("b", "f")
            .rule("c", "f")
            .rule("e", "f")
            .rule("f", "(a, g)")
            .rule("g", "EMPTY")
            .build("r")
            .unwrap();
        let a = IndependenceAnalyzer::new(&d1);
        let q = parse_query("$root/descendant::b").unwrap();
        let u = parse_update("delete $root/descendant::c").unwrap();
        let v = a.check(&q, &u);
        assert!(!v.is_independent());
        assert_eq!(v.k, 2);
        // With k forced to max(kq, ku) = 1 the dependence would be missed —
        // exactly the pitfall §5 warns about.
        let bad = IndependenceAnalyzer::with_config(
            &d1,
            AnalyzerConfig {
                k_override: Some(1),
                engine: EngineKind::Explicit,
                ..Default::default()
            },
        );
        assert!(bad.check(&q, &u).is_independent());
    }

    #[test]
    fn check_views_batches_queries() {
        let d = figure1();
        let a = IndependenceAnalyzer::new(&d);
        let views = vec![
            parse_query("//a//c").unwrap(),
            parse_query("//c").unwrap(),
            parse_query("//b").unwrap(),
        ];
        let u = parse_update("delete //b//c").unwrap();
        assert_eq!(a.check_views(&views, &u), vec![true, false, false]);
    }
}
