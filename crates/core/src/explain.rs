//! Human-readable reports for independence verdicts.
//!
//! The analyzer's [`Verdict`] is deliberately small; this
//! module turns it — together with the inferred chain sets — into the kind of
//! report a view-maintenance operator or a test failure wants to show:
//! which chains were inferred for the query and the update, which `k` the
//! finite analysis used and why, and (for dependent pairs) the witness pair
//! of conflicting chains.
//!
//! Everything here is presentation only: the reports are produced from the
//! same inference the analyzer runs, and producing a report never changes a
//! verdict.

use crate::analyzer::Verdict;
use crate::conflict::ConflictKind;
use crate::session::AnalysisSession;
use crate::types::{ChainItem, QueryChains, UpdateChains};
use qui_schema::{Chain, SchemaLike};
use qui_xquery::{Query, Update};
use std::fmt::Write as _;

/// Renders a chain with the schema's type labels (`bib.book.title`).
pub fn show_chain<S: SchemaLike>(schema: &S, chain: &Chain) -> String {
    if chain.is_empty() {
        return "ε".to_string();
    }
    chain
        .symbols()
        .iter()
        .map(|&s| schema.type_label(s).to_string())
        .collect::<Vec<_>>()
        .join(".")
}

/// Renders a chain item, marking extensible items (those standing for a chain
/// and all its descendant extensions) with a trailing `…`.
pub fn show_item<S: SchemaLike>(schema: &S, item: &ChainItem) -> String {
    let mut s = show_chain(schema, &item.chain);
    if item.extensible {
        s.push('…');
    }
    s
}

/// Options controlling how much detail a report includes.
#[derive(Clone, Copy, Debug)]
pub struct ExplainOptions {
    /// Maximum number of chains listed per class (the rest is elided with a
    /// count). `usize::MAX` lists everything.
    pub max_chains: usize,
    /// Whether to list the explicit chain sets (the verdict itself may have
    /// come from the CDAG engine, which does not materialize individual
    /// chains).
    pub list_chains: bool,
}

impl Default for ExplainOptions {
    fn default() -> Self {
        ExplainOptions {
            max_chains: 12,
            list_chains: true,
        }
    }
}

/// Produces a multi-line report for one query-update pair.
///
/// The report is built from the given verdict plus (when
/// [`ExplainOptions::list_chains`] is set and the explicit engine can
/// materialize them within the session's budget) the chain sets, read
/// through the session's explicit cache under its configuration.
pub fn explain_verdict<S: SchemaLike>(
    session: &AnalysisSession<'_, S>,
    q: &Query,
    u: &Update,
    verdict: &Verdict,
    options: &ExplainOptions,
) -> String {
    let schema = session.schema();
    let mut out = String::new();
    let _ = writeln!(out, "query : {q}");
    let _ = writeln!(out, "update: {u}");
    let _ = writeln!(
        out,
        "verdict: {}",
        if verdict.is_independent() {
            "INDEPENDENT (the update can never change the query result on a valid document)"
        } else {
            "not proved independent"
        }
    );
    let _ = writeln!(
        out,
        "finite analysis: k = {} (k_q = {} + k_u = {}), engine = {:?}, {} query chains, {} update chains",
        verdict.k,
        verdict.k_query,
        verdict.k_update,
        verdict.engine_used,
        verdict.query_chain_count,
        verdict.update_chain_count
    );
    if let Some(w) = &verdict.witness {
        let _ = writeln!(
            out,
            "witness: query chain {} vs update chain {} ({})",
            show_item(schema, &w.query_chain),
            show_item(schema, &w.update_chain),
            describe_kind(w.kind)
        );
    }
    if options.list_chains {
        let chains = session.explicit_query_chains(q, verdict.k).and_then(|qc| {
            let uc = session.explicit_update_chains(u, verdict.k)?;
            Some((qc, uc))
        });
        if let Some((qc, uc)) = chains {
            out.push_str(&render_query_chains(schema, &qc, options.max_chains));
            out.push_str(&render_update_chains(schema, &uc, options.max_chains));
        } else {
            let _ = writeln!(
                out,
                "(chain sets not listed: explicit materialization exceeded its budget)"
            );
        }
    }
    out
}

/// One-line summary used by matrix reports and the CLI.
pub fn summarize_verdict(verdict: &Verdict) -> String {
    format!(
        "{} (k={}, engine={:?})",
        if verdict.is_independent() {
            "independent"
        } else {
            "dependent"
        },
        verdict.k,
        verdict.engine_used
    )
}

fn describe_kind(kind: ConflictKind) -> &'static str {
    match kind {
        ConflictKind::ReturnBelowUpdate => {
            "the update changes something below a node the query returns"
        }
        ConflictKind::UpdateAboveReturn => {
            "the update changes an ancestor-or-self of a node the query returns"
        }
        ConflictKind::UpdateAboveUsed => {
            "the update changes an ancestor-or-self of a node the query relies on"
        }
    }
}

fn render_query_chains<S: SchemaLike>(schema: &S, qc: &QueryChains, max: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "query chains ({} return, {} used, {} element):",
        qc.returns.len(),
        qc.used.len(),
        qc.elements.len()
    );
    out.push_str(&render_list(
        "  return ",
        qc.returns.iter().map(|c| show_chain(schema, c)),
        max,
    ));
    out.push_str(&render_list(
        "  used   ",
        qc.used.iter().map(|c| show_item(schema, c)),
        max,
    ));
    out.push_str(&render_list(
        "  element",
        qc.elements.iter().map(|c| show_item(schema, c)),
        max,
    ));
    out
}

fn render_update_chains<S: SchemaLike>(schema: &S, uc: &UpdateChains, max: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "update chains ({}):", uc.len());
    out.push_str(&render_list(
        "  write  ",
        uc.chains.iter().map(|c| {
            format!(
                "{}:{}",
                show_chain(schema, &c.target),
                show_item(schema, &c.suffix)
            )
        }),
        max,
    ));
    out
}

fn render_list(label: &str, items: impl Iterator<Item = String>, max: usize) -> String {
    let items: Vec<String> = items.collect();
    if items.is_empty() {
        return format!("{label}: (none)\n");
    }
    let shown: Vec<&String> = items.iter().take(max).collect();
    let elided = items.len().saturating_sub(max);
    let mut line = format!(
        "{label}: {}",
        shown
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    if elided > 0 {
        let _ = write!(line, " … and {elided} more");
    }
    line.push('\n');
    line
}

/// A full query-set × update report (the shape of the paper's Fig. 3.a/3.b
/// rows): one named update checked against a set of named views.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatrixReport {
    /// The update's display name.
    pub update_name: String,
    /// Per view: name and whether the pair is independent.
    pub rows: Vec<(String, bool)>,
    /// The `k` bounds used across the views (min and max).
    pub k_range: (usize, usize),
}

impl MatrixReport {
    /// Number of views declared independent of the update.
    pub fn independent_count(&self) -> usize {
        self.rows.iter().filter(|(_, i)| *i).count()
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "update {} — {}/{} views independent (k ∈ [{}, {}])",
            self.update_name,
            self.independent_count(),
            self.rows.len(),
            self.k_range.0,
            self.k_range.1
        );
        for (name, independent) in &self.rows {
            let _ = writeln!(
                out,
                "  {name:<8} {}",
                if *independent {
                    "independent"
                } else {
                    "dependent"
                }
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::Jobs;
    use crate::session::SessionBuilder;
    use qui_schema::Dtd;
    use qui_xquery::{parse_query, parse_update};

    fn fig1() -> Dtd {
        Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap()
    }

    /// The reports of a fresh session holding the whole workload.
    fn reports(
        dtd: &Dtd,
        views: &[(String, Query)],
        updates: &[(String, Update)],
        jobs: Jobs,
    ) -> Vec<MatrixReport> {
        let mut session = SessionBuilder::new(dtd).jobs(jobs).build();
        session.add_workload(views.iter().cloned(), updates.iter().cloned());
        session.reports()
    }

    /// The report of one update against the views.
    fn update_report(dtd: &Dtd, views: &[(String, Query)], name: &str, u: &Update) -> MatrixReport {
        let updates = [(name.to_string(), u.clone())];
        reports(dtd, views, &updates, Jobs::Auto).remove(0)
    }

    #[test]
    fn show_chain_uses_labels() {
        let dtd = fig1();
        let chain = dtd.chain_of_names(&["doc", "a", "c"]).unwrap();
        assert_eq!(show_chain(&dtd, &chain), "doc.a.c");
        assert_eq!(show_chain(&dtd, &Chain::empty()), "ε");
    }

    #[test]
    fn independent_pair_report_mentions_chains() {
        let dtd = fig1();
        let q = parse_query("//a//c").unwrap();
        let u = parse_update("delete //b//c").unwrap();
        let session = AnalysisSession::new(&dtd);
        let verdict = session.check(&q, &u);
        let report = explain_verdict(&session, &q, &u, &verdict, &ExplainOptions::default());
        assert!(report.contains("INDEPENDENT"), "{report}");
        assert!(report.contains("doc.a.c"), "{report}");
        assert!(report.contains("doc.b:c"), "{report}");
    }

    #[test]
    fn dependent_pair_report_shows_witness() {
        let dtd = fig1();
        let q = parse_query("//c").unwrap();
        let u = parse_update("delete //b//c").unwrap();
        let session = AnalysisSession::new(&dtd);
        let verdict = session.check(&q, &u);
        assert!(!verdict.is_independent());
        let report = explain_verdict(&session, &q, &u, &verdict, &ExplainOptions::default());
        assert!(report.contains("not proved independent"), "{report}");
        assert!(report.contains("witness"), "{report}");
    }

    #[test]
    fn elision_limits_listed_chains() {
        let dtd = fig1();
        let q = parse_query("//node()").unwrap();
        let u = parse_update("delete //c").unwrap();
        let session = AnalysisSession::new(&dtd);
        let verdict = session.check(&q, &u);
        let options = ExplainOptions {
            max_chains: 1,
            list_chains: true,
        };
        let report = explain_verdict(&session, &q, &u, &verdict, &options);
        assert!(report.contains("more"), "{report}");
    }

    #[test]
    fn summary_line_is_compact() {
        let dtd = fig1();
        let q = parse_query("//a//c").unwrap();
        let u = parse_update("delete //b//c").unwrap();
        let verdict = AnalysisSession::new(&dtd).check(&q, &u);
        let s = summarize_verdict(&verdict);
        assert!(s.starts_with("independent"), "{s}");
        assert!(!s.contains('\n'));
    }

    #[test]
    fn matrix_report_counts_and_renders() {
        let dtd = fig1();
        let views = vec![
            ("v1".to_string(), parse_query("//a//c").unwrap()),
            ("v2".to_string(), parse_query("//c").unwrap()),
            ("v3".to_string(), parse_query("//b").unwrap()),
        ];
        let u = parse_update("delete //b//c").unwrap();
        let report = update_report(&dtd, &views, "u1", &u);
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.independent_count(), 1);
        let text = report.render();
        assert!(text.contains("1/3 views independent"), "{text}");
        assert!(text.contains("v1"), "{text}");
    }

    #[test]
    fn matrix_report_is_identical_across_job_counts() {
        let dtd = fig1();
        let views = vec![
            ("v1".to_string(), parse_query("//a//c").unwrap()),
            ("v2".to_string(), parse_query("//c").unwrap()),
            ("v3".to_string(), parse_query("//b").unwrap()),
        ];
        let u = parse_update("delete //b//c").unwrap();
        let updates = vec![("u1".to_string(), u)];
        let sequential = reports(&dtd, &views, &updates, Jobs::Fixed(1));
        for jobs in [2, 8] {
            let parallel = reports(&dtd, &views, &updates, Jobs::Fixed(jobs));
            for (s, p) in sequential.iter().zip(&parallel) {
                assert_eq!(s.rows, p.rows, "jobs = {jobs}");
                assert_eq!(s.k_range, p.k_range, "jobs = {jobs}");
                assert_eq!(s.render(), p.render(), "jobs = {jobs}");
            }
        }
    }

    #[test]
    fn workload_reports_cover_every_update() {
        let dtd = fig1();
        let views = vec![
            ("v1".to_string(), parse_query("//a//c").unwrap()),
            ("v2".to_string(), parse_query("//c").unwrap()),
        ];
        let updates = vec![
            ("u1".to_string(), parse_update("delete //b//c").unwrap()),
            ("u2".to_string(), parse_update("delete //c").unwrap()),
        ];
        let all = reports(&dtd, &views, &updates, Jobs::Fixed(2));
        assert_eq!(all.len(), 2);
        for (r, (name, u)) in all.iter().zip(&updates) {
            assert_eq!(&r.update_name, name);
            let solo = update_report(&dtd, &views, name, u);
            assert_eq!(r.rows, solo.rows);
        }
    }

    #[test]
    fn empty_workload_report() {
        let dtd = fig1();
        let u = parse_update("delete //c").unwrap();
        let report = update_report(&dtd, &[], "u", &u);
        assert_eq!(report.independent_count(), 0);
        assert_eq!(report.k_range.0, 0);
    }
}
