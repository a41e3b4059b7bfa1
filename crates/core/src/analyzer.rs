//! The analyzer's vocabulary: engine selection ([`EngineKind`]), its
//! configuration ([`AnalyzerConfig`]) and the result of one check
//! ([`Verdict`]).
//!
//! [`AnalysisSession::check`](crate::session::AnalysisSession::check) runs
//! the full pipeline of the paper for a query-update pair: compute
//! `k = k_q + k_u` (Table 3), infer chains over `C_d^k` (Tables 1 and 2), and
//! test C-independence (Definition 4.1).
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

/// The result of one independence check. Two verdicts are equal when every
/// field is, witness included.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// `true` when the static analysis proves independence (crate-visible so
    /// only the session assembles verdicts).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{fresh_check, SessionBuilder};
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

    fn check(d: &Dtd, q: &str, u: &str) -> Verdict {
        let defaults = AnalyzerConfig::default();
        fresh_check(
            d,
            &defaults,
            &parse_query(q).unwrap(),
            &parse_update(u).unwrap(),
        )
    }

    #[test]
    fn paper_example_q1_u1_independent() {
        let v = check(&figure1(), "//a//c", "delete //b//c");
        assert!(v.is_independent());
        // The CDAG-first auto policy proves independent pairs without ever
        // materializing explicit chain sets.
        assert_eq!(v.engine_used, EngineKind::Cdag);
        assert!(v.k >= 2);
    }

    #[test]
    fn paper_example_q2_u2_independent() {
        let d = bib();
        let u2 = "for $x in //book return insert <author/> into $x";
        assert!(check(&d, "//title", u2).is_independent());
        // …but a query over authors is affected.
        assert!(!check(&d, "//author//last", u2).is_independent());
    }

    #[test]
    fn dependent_pairs_are_reported_with_witness() {
        let v = check(&figure1(), "//c", "delete //b//c");
        assert!(!v.is_independent());
        assert!(v.witness.is_some());
    }

    #[test]
    fn engine_choice_is_respected_and_consistent() {
        let d = figure1();
        let q = parse_query("//a//c").unwrap();
        let u = parse_update("delete //b//c").unwrap();
        for engine in [EngineKind::Explicit, EngineKind::Cdag, EngineKind::Auto] {
            let config = AnalyzerConfig {
                engine,
                ..Default::default()
            };
            assert!(
                fresh_check(&d, &config, &q, &u).is_independent(),
                "engine {engine:?}"
            );
        }
    }

    #[test]
    fn auto_falls_back_to_cdag_on_blowup() {
        let d = Dtd::parse_compact("a -> (b|c)* ; b -> (b|c)* ; c -> (b|c)*", "a").unwrap();
        let config = AnalyzerConfig {
            explicit_budget: 100,
            ..Default::default()
        };
        let q = parse_query("//b//c//b").unwrap();
        let u = parse_update("delete //c//b//c").unwrap();
        let v = fresh_check(&d, &config, &q, &u);
        assert_eq!(v.engine_used, EngineKind::Cdag);
        // Everything overlaps in this schema, so independence cannot hold.
        assert!(!v.is_independent());
    }

    #[test]
    fn element_chain_ablation_loses_precision() {
        let d = bib();
        let q2 = parse_query("//title").unwrap();
        let u2 = parse_update("for $x in //book return insert <author/> into $x").unwrap();
        assert!(fresh_check(&d, &AnalyzerConfig::default(), &q2, &u2).is_independent());
        let ablated = AnalyzerConfig {
            element_chains: false,
            ..Default::default()
        };
        assert!(!fresh_check(&d, &ablated, &q2, &u2).is_independent());
    }

    #[test]
    fn k_override_is_used() {
        let d = figure1();
        let config = AnalyzerConfig {
            k_override: Some(7),
            ..Default::default()
        };
        let q = parse_query("//a//c").unwrap();
        let u = parse_update("delete //b//c").unwrap();
        let v = fresh_check(&d, &config, &q, &u);
        assert_eq!(v.k, 7);
        assert!(v.is_independent());
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
        let v = check(&d1, "$root/descendant::b", "delete $root/descendant::c");
        assert!(!v.is_independent());
        assert_eq!(v.k, 2);
        // With k forced to max(kq, ku) = 1 the dependence would be missed —
        // exactly the pitfall §5 warns about.
        let bad = AnalyzerConfig {
            k_override: Some(1),
            engine: EngineKind::Explicit,
            ..Default::default()
        };
        let q = parse_query("$root/descendant::b").unwrap();
        let u = parse_update("delete $root/descendant::c").unwrap();
        assert!(fresh_check(&d1, &bad, &q, &u).is_independent());
    }

    #[test]
    fn workload_row_flags_every_view() {
        let d = figure1();
        let mut session = SessionBuilder::new(&d).build();
        session.add_workload(
            ["//a//c", "//c", "//b"]
                .iter()
                .map(|s| (s.to_string(), parse_query(s).unwrap())),
            [("u".to_string(), parse_update("delete //b//c").unwrap())],
        );
        assert_eq!(session.independent_flags(0), vec![true, false, false]);
    }
}
