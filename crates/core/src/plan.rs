//! The cost-based planner: the five evaluation strategies as one
//! [`Strategy`] enum, chosen per query from statistics.
//!
//! The paper's Fig. 4 tabulates by hand how the six strategies trade
//! visits, traffic, computation and parallelism — and which one wins
//! depends on the fragmentation shape, the placement, the query size
//! and the link characteristics. This module turns that table into
//! code:
//!
//! * a [`Strategy`] has a name, predicts its cost
//!   ([`Strategy::estimate`] → [`CostEstimate`]) from
//!   [`parbox_frag::ForestStats`] *without touching any site*, and runs
//!   ([`Strategy::run`]);
//! * [`choose`] compares the candidates' estimates and ranks them
//!   cheapest first by predicted modeled time, as a [`PlanExplain`]
//!   whose [`PlanExplain::run`] records the decision as a
//!   [`PlanSummary`] in the outcome's
//!   [`parbox_net::RunReport::planned`] field; its `Display` is the
//!   `parbox-cli explain` output.
//!
//! # The cost model
//!
//! Each strategy prices itself in one function, its *schedule*
//! (`crate::algorithms`): from per-fragment sizes — work units and
//! reply bytes — it records the visits, messages, bytes, work units
//! and modeled seconds of a report. A run fills the sizes from what it
//! evaluated; an estimate runs the same schedule over sizes predicted
//! from `ForestStats` and reports its totals ([`CostEstimate::of`]):
//!
//! * **work units** — `nodes · |QList|` per fragment, exactly what
//!   `bottomUp` performs; so visits, messages and work units are exact.
//! * **reply bytes** — the one real prediction. Shipped fragments and
//!   resolved triplets have structural sizes; *open* triplet payloads
//!   depend on the formulas `bottomUp` produces, and are predicted by
//!   [`estimated_triplet_bytes`] from `|QList|` and the fragment's
//!   virtual-node fan-out. Documented bound: on the `expE_planner`
//!   workloads the predicted total traffic stays within a factor of
//!   [`TRAFFIC_ESTIMATE_FACTOR`] of the measured bytes (asserted there
//!   and in `tests/planner.rs`). Strategies that ship no open triplet
//!   (`FullDistParBoX`, both naive baselines) are predicted exactly,
//!   modeled seconds included.
//!
//! `LazyParBoX`'s schedule also takes the depth at which partial
//! answers determine the result — unknowable before evaluation. Its
//! estimate is pessimistic (full depth) unless the caller supplies a
//! [`PlanContext::resolve_depth_hint`], as the `expE_planner` sweep does
//! from [`measure_resolution_depth`].
//!
//! A serving round ([`crate::serve`]) has one plan, priced the same
//! way: its schedule (ParBoX's, batched) over a single wave holding
//! every fragment some member lacks, at the sizes `predicted_size`
//! gives, then one solve per member; the round charges what happened
//! through that same schedule. [`lazy_parbox`] is a one-shot strategy
//! only.

use crate::algorithms::{
    certain_answer, full_dist_parbox, full_dist_schedule, hybrid_parbox, lazy_parbox,
    lazy_schedule, naive_centralized, naive_centralized_schedule, naive_distributed,
    naive_distributed_schedule, parbox, parbox_schedule, resolved_triplet_wire_size, EvalOutcome,
    FragmentSize, Sizes,
};
use crate::eval::bottom_up;
use parbox_bool::Triplet;
use parbox_frag::FragmentStats;
use parbox_net::Cluster;
pub use parbox_net::{CostEstimate, PlanSummary};
use parbox_query::CompiledQuery;
use parbox_xml::FragmentId;
use std::collections::HashMap;
use std::fmt;

/// Calibrated cost of one work unit (one node × sub-query evaluation),
/// in seconds. Chosen to match release-mode `bottomUp` throughput on
/// XMark documents (~50 M node-subquery evaluations per second); the
/// model only needs it to be *consistent across strategies*, since
/// every compute term, planned or charged, is priced by [`compute_s`].
pub const SECONDS_PER_WORK_UNIT: f64 = 2e-8;

/// Modeled seconds of `work_units`: the one price of every compute term,
/// estimated ([`CostEstimate::modeled_s`]) or charged.
pub fn compute_s(work_units: u64) -> f64 {
    work_units as f64 * SECONDS_PER_WORK_UNIT
}

/// Documented accuracy bound of the traffic prediction: on the
/// `expE_planner` workloads, `CostEstimate::traffic_bytes` stays within
/// this factor of the measured `RunReport::total_bytes()` (both ways).
pub const TRAFFIC_ESTIMATE_FACTOR: usize = 4;

/// Predicted DAG wire size of one fragment's *open* `(V, CV, DV)`
/// triplet under a `|QList| = m` program: the resolved-constant floor
/// (every leaf fragment's triplet is exactly this) plus one variable
/// node and its operand references per (sub-query × virtual child)
/// pair. Leaf fragments (`fanout == 0`) are predicted exactly.
pub fn estimated_triplet_bytes(m: usize, fanout: usize) -> usize {
    resolved_triplet_wire_size(m) + fanout * (4 + 3 * m)
}

/// Predicted size of evaluating one fragment under a `|QList| = m`
/// program: `nodes · m` work units, exactly what `bottomUp` performs,
/// and [`estimated_triplet_bytes`] of reply.
pub(crate) fn predicted_size(fragment: &FragmentStats, m: usize) -> FragmentSize {
    FragmentSize {
        work: (fragment.nodes * m) as u64,
        reply_bytes: estimated_triplet_bytes(m, fragment.children.len()),
    }
}

/// Predicted wire size of one site's batch envelope:
/// `triplet_bytes_sum` of predicted per-fragment triplet bytes sharing
/// one node table, behind the envelope's fragment-count/site header.
/// The single source of truth for the framing constant, used by the
/// serving round's plan.
pub fn estimated_envelope_bytes(triplet_bytes_sum: usize) -> usize {
    4 + triplet_bytes_sum
}

/// Everything a [`Strategy::estimate`] may read: the deployment (whose
/// source tree caches the per-fragment sizes) and the compiled query.
#[derive(Debug, Clone, Copy)]
pub struct PlanContext<'a> {
    /// The deployment (forest + placement + source tree + network).
    pub cluster: &'a Cluster<'a>,
    /// The compiled query to be planned.
    pub query: &'a CompiledQuery,
    /// Fragment-tree depth at which the answer is expected to resolve
    /// (say, from [`measure_resolution_depth`]); `None` makes
    /// `LazyParBoX`'s estimate pessimistically assume the full depth.
    pub resolve_depth_hint: Option<usize>,
}

impl<'a> PlanContext<'a> {
    /// Context with no lazy-depth hint (pessimistic lazy estimate).
    pub fn new(cluster: &'a Cluster<'a>, query: &'a CompiledQuery) -> PlanContext<'a> {
        PlanContext {
            cluster,
            query,
            resolve_depth_hint: None,
        }
    }
}

/// One evaluation strategy the planner can choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// [`parbox`]: one visit per site, two communication rounds.
    ParBoX,
    /// [`full_dist_parbox`]: parallel evaluation, in-network resolution.
    FullDistParBoX,
    /// [`lazy_parbox`]: depth-wavefront evaluation with early
    /// termination.
    LazyParBoX,
    /// [`naive_centralized`]: ship every remote fragment, evaluate
    /// centrally.
    NaiveCentralized,
    /// [`naive_distributed`]: fully sequential distributed traversal.
    NaiveDistributed,
}

impl Strategy {
    /// The paper's five fixed strategies: the standard planner's
    /// candidates, in tie-breaking order (`HybridParBoX` is the two-way
    /// [`hybrid_parbox`] over two of them).
    pub const ALL: [Strategy; 5] = [
        Strategy::ParBoX,
        Strategy::FullDistParBoX,
        Strategy::LazyParBoX,
        Strategy::NaiveCentralized,
        Strategy::NaiveDistributed,
    ];

    /// Strategy name, matching the `EvalOutcome::algorithm` label of its
    /// run.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::ParBoX => "ParBoX",
            Strategy::FullDistParBoX => "FullDistParBoX",
            Strategy::LazyParBoX => "LazyParBoX",
            Strategy::NaiveCentralized => "NaiveCentralized",
            Strategy::NaiveDistributed => "NaiveDistributed",
        }
    }

    /// The strategy called `name`, if any.
    pub fn from_name(name: &str) -> Option<Strategy> {
        Strategy::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Predicts the run's cost without contacting any site: the totals
    /// of the strategy's own schedule over `nodes · |QList|` work units
    /// and [`estimated_triplet_bytes`] per fragment.
    pub fn estimate(self, cx: &PlanContext<'_>) -> CostEstimate {
        let (cluster, q) = (cx.cluster, cx.query);
        let st = &cluster.forest_stats;
        let m = q.len();
        let sizes: Sizes = (st.fragments())
            .map(|(f, s)| (f, predicted_size(s, m)))
            .collect();
        let report = match self {
            Strategy::ParBoX => parbox_schedule(cluster, q, &sizes),
            Strategy::FullDistParBoX => full_dist_schedule(cluster, q, &sizes),
            Strategy::LazyParBoX => {
                let stop = cx
                    .resolve_depth_hint
                    .map_or(st.max_depth(), |d| d.min(st.max_depth()));
                lazy_schedule(cluster, q, &sizes, stop)
            }
            Strategy::NaiveCentralized => {
                // The reassembled document drops one virtual node per
                // non-root fragment.
                let whole = st.total_nodes() - (st.card() - 1);
                naive_centralized_schedule(cluster, (whole * m) as u64)
            }
            Strategy::NaiveDistributed => naive_distributed_schedule(cluster, q, &sizes),
        };
        CostEstimate::of(&report)
    }

    /// Runs the strategy.
    pub fn run(self, cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
        match self {
            Strategy::ParBoX => parbox(cluster, q),
            Strategy::FullDistParBoX => full_dist_parbox(cluster, q),
            Strategy::LazyParBoX => lazy_parbox(cluster, q),
            Strategy::NaiveCentralized => naive_centralized(cluster, q),
            Strategy::NaiveDistributed => naive_distributed(cluster, q),
        }
    }
}

/// An algorithm [`run_named`] knows by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The planner's choice over [`Strategy::ALL`] ([`plan_run`]):
    /// `auto` or `Auto`.
    Auto,
    /// [`hybrid_parbox`]: `HybridParBoX`.
    Hybrid,
    /// A fixed strategy, by its [`Strategy::name`].
    Fixed(Strategy),
}

impl Algorithm {
    /// The algorithm called `name`.
    pub fn from_name(name: &str) -> Result<Algorithm, String> {
        match name {
            "auto" | "Auto" => Ok(Algorithm::Auto),
            "HybridParBoX" => Ok(Algorithm::Hybrid),
            _ => Strategy::from_name(name)
                .map(Algorithm::Fixed)
                .ok_or_else(|| format!("unknown strategy {name:?}")),
        }
    }

    /// Runs the algorithm.
    pub fn run(self, cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
        match self {
            Algorithm::Auto => plan_run(cluster, q),
            Algorithm::Hybrid => hybrid_parbox(cluster, q),
            Algorithm::Fixed(s) => s.run(cluster, q),
        }
    }
}

/// Runs the algorithm called `name` ([`Algorithm::from_name`]).
pub fn run_named(
    name: &str,
    cluster: &Cluster<'_>,
    q: &CompiledQuery,
) -> Result<EvalOutcome, String> {
    Ok(Algorithm::from_name(name)?.run(cluster, q))
}

/// One candidate's row in a [`PlanExplain`].
#[derive(Debug, Clone)]
pub struct ExplainEntry {
    /// The candidate.
    pub strategy: Strategy,
    /// Its predicted cost.
    pub estimate: CostEstimate,
}

/// Every candidate's estimate, cheapest first — what
/// `parbox-cli explain` renders. The first entry is the choice.
#[derive(Debug, Clone)]
pub struct PlanExplain {
    /// Candidate rows, ascending by predicted modeled seconds; among
    /// equal estimates the earlier-listed candidate comes first.
    pub entries: Vec<ExplainEntry>,
}

impl PlanExplain {
    /// The winning entry.
    pub fn chosen(&self) -> &ExplainEntry {
        &self.entries[0]
    }

    /// The decision record ([`parbox_net::RunReport::planned`]).
    pub fn summary(&self) -> PlanSummary {
        PlanSummary {
            strategy: self.chosen().strategy.name().to_string(),
            estimate: self.chosen().estimate,
            candidates: self.entries.len(),
        }
    }

    /// Runs the chosen strategy and records the [`PlanSummary`] in the
    /// outcome's report.
    pub fn run(&self, cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
        let mut out = self.chosen().strategy.run(cluster, q);
        out.report.planned = Some(self.summary());
        out
    }
}

impl fmt::Display for PlanExplain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {:<18} {:>7} {:>9} {:>12} {:>12} {:>12}",
            "strategy", "visits", "messages", "traffic (B)", "est. work", "modeled (s)"
        )?;
        for (i, e) in self.entries.iter().enumerate() {
            writeln!(
                f,
                "{} {:<18} {:>7} {:>9} {:>12} {:>12} {:>12.6}",
                if i == 0 { "→" } else { " " },
                e.strategy.name(),
                e.estimate.visits,
                e.estimate.messages,
                e.estimate.traffic_bytes,
                e.estimate.work_units,
                e.estimate.modeled_s,
            )?;
        }
        Ok(())
    }
}

/// Estimates every candidate and ranks them by predicted modeled
/// seconds; ties break toward the earlier-listed — i.e. more
/// specialized — strategy.
///
/// # Panics
/// Panics if `candidates` is empty.
pub fn choose(candidates: &[Strategy], cx: &PlanContext<'_>) -> PlanExplain {
    assert!(!candidates.is_empty(), "the planner needs a candidate");
    let mut entries: Vec<ExplainEntry> = (candidates.iter())
        .map(|&strategy| ExplainEntry {
            strategy,
            estimate: strategy.estimate(cx),
        })
        .collect();
    // A stable sort: equal estimates keep their listed order.
    entries.sort_by(|a, b| a.estimate.modeled_s.total_cmp(&b.estimate.modeled_s));
    PlanExplain { entries }
}

/// One-shot adaptive evaluation: plans over [`Strategy::ALL`], runs the
/// winner, and stamps the [`PlanSummary`] into the report. This is what
/// `parbox-cli run --strategy auto` executes.
pub fn plan_run(cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
    choose(&Strategy::ALL, &PlanContext::new(cluster, q)).run(cluster, q)
}

/// Measures the fragment-tree depth at which `q`'s answer resolves: the
/// smallest `d` such that the triplets of fragments at depth `≤ d`
/// already determine the root answer — the depth at which
/// [`lazy_parbox`] stops. An experiment oracle that feeds
/// [`PlanContext::resolve_depth_hint`], not a planning-time estimate:
/// it evaluates every fragment once.
pub fn measure_resolution_depth(cluster: &Cluster<'_>, q: &CompiledQuery) -> usize {
    let st = &cluster.forest_stats;
    let triplets: HashMap<FragmentId, Triplet> = (st.postorder().iter())
        .map(|&f| (f, bottom_up(&cluster.forest.fragment(f).tree, q).triplet))
        .collect();
    (0..=st.max_depth())
        .find(|&d| {
            let upto = |f: FragmentId| st.fragment(f).depth <= d;
            certain_answer(st, q.root(), |f| {
                triplets.get(&f).filter(|_| upto(f)).map(|t| (t, None))
            })
            .is_some()
        })
        .expect("every fragment evaluated decides the answer")
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbox_frag::{strategies, Forest, Placement};
    use parbox_net::NetworkModel;
    use parbox_query::{compile, parse_query};
    use parbox_xml::Tree;

    fn xmlish(sections: usize) -> Tree {
        let mut xml = String::from("<r>");
        for i in 0..sections {
            xml.push_str(&format!(
                "<s{i}><a>value {i} padding padding</a><b/><c>more text {i}</c></s{i}>",
                i = i % 40
            ));
        }
        xml.push_str("<goal/></r>");
        Tree::parse(&xml).unwrap()
    }

    fn star_cluster(sections: usize, frags: usize) -> (Forest, Placement) {
        let mut forest = Forest::from_tree(xmlish(sections));
        strategies::fragment_evenly(&mut forest, frags).unwrap();
        let placement = Placement::one_per_fragment(&forest);
        (forest, placement)
    }

    #[test]
    fn estimates_match_measured_counts_exactly() {
        let (forest, placement) = star_cluster(60, 5);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//goal and //a]").unwrap());
        let mut cx = PlanContext::new(&cluster, &q);
        cx.resolve_depth_hint = Some(measure_resolution_depth(&cluster, &q));

        for s in Strategy::ALL {
            let est = s.estimate(&cx);
            let out = s.run(&cluster, &q);
            let measured = CostEstimate::of(&out.report);
            assert_eq!(est.visits, measured.visits, "{} visits", s.name());
            assert_eq!(est.messages, measured.messages, "{} messages", s.name());
            assert_eq!(est.work_units, measured.work_units, "{} work", s.name());
            assert!(
                est.traffic_bytes <= measured.traffic_bytes * TRAFFIC_ESTIMATE_FACTOR
                    && measured.traffic_bytes <= est.traffic_bytes * TRAFFIC_ESTIMATE_FACTOR,
                "{}: traffic estimate {} vs measured {}",
                s.name(),
                est.traffic_bytes,
                measured.traffic_bytes
            );
            // Modeled time is priced from counts, never read off a clock.
            let charged = s.run(&cluster, &q).report.elapsed_model_s;
            assert_eq!(charged, out.report.elapsed_model_s, "{} modeled", s.name());
        }
        // On a free network only compute is charged, and it is exact.
        let free = Cluster::new(&forest, &placement, NetworkModel::infinite());
        let est = Strategy::ParBoX
            .estimate(&PlanContext::new(&free, &q))
            .modeled_s;
        let charged = parbox(&free, &q).report.elapsed_model_s;
        assert!((est - charged).abs() < 1e-12, "{est} vs {charged}");
    }

    #[test]
    fn naive_traffic_estimates_are_exact() {
        // Shipped-fragment and resolved-triplet payloads are structural:
        // the strategies that ship no open triplet are predicted to the
        // byte, and so, on every network, is their modeled time.
        let (forest, placement) = star_cluster(40, 4);
        let q = compile(&parse_query("[//goal]").unwrap());
        for model in [
            NetworkModel::lan(),
            NetworkModel::wan(),
            NetworkModel::infinite(),
        ] {
            let cluster = Cluster::new(&forest, &placement, model);
            let cx = PlanContext::new(&cluster, &q);
            for s in [
                Strategy::NaiveCentralized,
                Strategy::NaiveDistributed,
                Strategy::FullDistParBoX,
            ] {
                let out = s.run(&cluster, &q);
                assert_eq!(
                    s.estimate(&cx),
                    CostEstimate::of(&out.report),
                    "{}",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn choice_executes_and_stamps_plan_summary() {
        let (forest, placement) = star_cluster(50, 4);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//goal]").unwrap());
        let plan = choose(&Strategy::ALL, &PlanContext::new(&cluster, &q));
        let out = plan.run(&cluster, &q);
        let planned = out.report.planned.expect("planned run records a summary");
        assert_eq!(planned, plan.summary());
        assert_eq!(planned.candidates, 5);
        // The label of the executed algorithm matches the plan.
        assert_eq!(out.algorithm, planned.strategy);
        // plan_run and the `auto` name are the same path.
        for auto in [
            plan_run(&cluster, &q),
            run_named("auto", &cluster, &q).unwrap(),
        ] {
            assert_eq!(auto.answer, out.answer);
            assert_eq!(auto.report.planned, Some(planned.clone()));
        }
        assert!(run_named("Nope", &cluster, &q).is_err());
    }

    #[test]
    fn explain_lists_all_candidates_cheapest_first() {
        let (forest, placement) = star_cluster(50, 4);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::wan());
        let q = compile(&parse_query("[//goal]").unwrap());
        let explain = choose(&Strategy::ALL, &PlanContext::new(&cluster, &q));
        assert_eq!(explain.entries.len(), 5);
        assert!(explain
            .entries
            .windows(2)
            .all(|w| w[0].estimate.modeled_s <= w[1].estimate.modeled_s));
        assert_eq!(
            explain.chosen().strategy,
            explain.entries[0].strategy,
            "winner is the cheapest"
        );
        let rendered = format!("{explain}");
        assert!(rendered.contains("ParBoX") && rendered.contains("modeled (s)"));
        assert_eq!(rendered.matches('→').count(), 1, "one winner marked");
        // One fragment: ParBoX and FullDistParBoX charge the same
        // evaluation and solve, and the earlier-listed one wins.
        let whole = Forest::from_tree(xmlish(5));
        let local = Placement::single_site(&whole);
        let cluster = Cluster::new(&whole, &local, NetworkModel::lan());
        let cx = PlanContext::new(&cluster, &q);
        for pair in [
            [Strategy::ParBoX, Strategy::FullDistParBoX],
            [Strategy::FullDistParBoX, Strategy::ParBoX],
        ] {
            let tied = choose(&pair, &cx);
            assert_eq!(
                tied.entries[0].estimate.modeled_s,
                tied.entries[1].estimate.modeled_s
            );
            assert_eq!(tied.chosen().strategy, pair[0]);
        }
    }

    #[test]
    fn lazy_estimate_honours_the_depth_hint() {
        // A chain: the pessimistic (full-depth) estimate must cost more
        // than a shallow-stop hint on every axis.
        let mut xml = String::new();
        for i in 0..12 {
            xml.push_str(&format!("<lvl{i}><p>text</p><q/>"));
        }
        xml.push_str("<bottom/>");
        for i in (0..12).rev() {
            xml.push_str(&format!("</lvl{i}>"));
        }
        let mut forest = Forest::from_tree(Tree::parse(&xml).unwrap());
        strategies::chain(&mut forest, 6).unwrap();
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//bottom]").unwrap());
        let mut cx = PlanContext::new(&cluster, &q);
        let pessimistic = Strategy::LazyParBoX.estimate(&cx);
        cx.resolve_depth_hint = Some(0);
        let shallow = Strategy::LazyParBoX.estimate(&cx);
        assert!(shallow.visits < pessimistic.visits);
        assert!(shallow.modeled_s < pessimistic.modeled_s);
        assert!(shallow.traffic_bytes < pessimistic.traffic_bytes);
        assert_eq!(shallow.visits, 1, "only the root wavefront");
        // Pessimistic lazy visits every fragment, like its execution
        // on a bottom-satisfied query.
        assert_eq!(pessimistic.visits, forest.card());
    }

    #[test]
    fn planner_answers_agree_across_all_executors() {
        let (forest, placement) = star_cluster(30, 4);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        for src in ["[//goal]", "[//a and //b]", "[//nope]", "[not //goal]"] {
            let q = compile(&parse_query(src).unwrap());
            let chosen = plan_run(&cluster, &q);
            for s in Strategy::ALL {
                assert_eq!(Strategy::from_name(s.name()), Some(s), "one name table");
                assert_eq!(
                    s.run(&cluster, &q).answer,
                    chosen.answer,
                    "{} disagrees on {src}",
                    s.name()
                );
            }
        }
    }
}
