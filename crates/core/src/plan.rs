//! The cost-based planner: every evaluation strategy behind one
//! [`Executor`] interface, chosen per query from statistics.
//!
//! The paper's Fig. 4 tabulates by hand how the six strategies trade
//! visits, traffic, computation and parallelism — and which one wins
//! depends on the fragmentation shape, the placement, the query size
//! and the link characteristics. This module turns that table into
//! code:
//!
//! * an [`Executor`] names a strategy, predicts its cost
//!   ([`Executor::estimate`] → [`CostEstimate`]) from
//!   [`parbox_frag::ForestStats`] aggregates *without touching any
//!   site*, and runs it ([`Executor::execute`]);
//! * the [`Planner`] compares the candidates' estimates and
//!   [`Planner::choose`]s the cheapest by predicted modeled time,
//!   recording the decision as a [`PlanSummary`] in the outcome's
//!   [`parbox_net::RunReport::planned`] field;
//! * [`PlanExplain`] renders every candidate's estimate — the
//!   `parbox-cli explain` output.
//!
//! # The cost model
//!
//! Estimates are written in the *same units a run's report later
//! measures*, so tests can assert prediction against measurement:
//!
//! * **visits / messages / work units** — predicted exactly for the
//!   deterministic strategies (`ParBoX`, `FullDistParBoX`, both naive
//!   baselines): the counts follow from the source-tree structure and
//!   the per-site placement totals alone.
//! * **traffic bytes** — exact for payloads whose size is structural
//!   (shipped fragments, resolved triplets, queries); *open* triplet
//!   payloads depend on the formulas `bottomUp` produces, and are
//!   predicted by [`estimated_triplet_bytes`] from `|QList|` and the
//!   fragment's virtual-node fan-out. Documented bound: on the
//!   `expE_planner` workloads the predicted total traffic stays within
//!   a factor of [`TRAFFIC_ESTIMATE_FACTOR`] of the measured bytes
//!   (asserted there and in `tests/planner.rs`).
//! * **modeled seconds** — priced exactly as a run's `elapsed_model_s`
//!   is charged, with no clock on either side:
//!   [`NetworkModel::shared_link_time`] per shared-link round,
//!   `transfer_time` per point-to-point hop, [`compute_s`] per work unit.
//!
//! `LazyParBoX`'s cost depends on the depth at which partial answers
//! determine the result — unknowable before evaluation. Its estimate is
//! pessimistic (full depth) unless the caller supplies an observed
//! [`PlanContext::resolve_depth_hint`], which is how the serving engine
//! feeds its live resolution-depth statistics back into planning.

use crate::algorithms::{
    full_dist_parbox, lazy_parbox, naive_centralized, naive_distributed, parbox, query_wire_size,
    resolved_triplet_wire_size, EvalOutcome,
};
use parbox_frag::{ForestStats, SiteId};
use parbox_net::{Cluster, NetworkModel};
pub use parbox_net::{CostEstimate, PlanSummary};
use parbox_query::CompiledQuery;
use parbox_xml::FragmentId;
use std::collections::BTreeMap;
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

/// Predicted wire size of one site's batch envelope:
/// `triplet_bytes_sum` of predicted per-fragment triplet bytes sharing
/// one node table, behind the envelope's fragment-count/site header.
/// The single source of truth for the framing constant, used by the
/// serving engine's per-round planner.
pub fn estimated_envelope_bytes(triplet_bytes_sum: usize) -> usize {
    4 + triplet_bytes_sum
}

/// Everything an [`Executor::estimate`] may read: the deployment (whose
/// source tree caches the per-fragment sizes) and the compiled query.
#[derive(Debug, Clone, Copy)]
pub struct PlanContext<'a> {
    /// The deployment (forest + placement + source tree + network).
    pub cluster: &'a Cluster<'a>,
    /// The compiled query to be planned.
    pub query: &'a CompiledQuery,
    /// Observed fragment-tree depth at which answers tend to resolve
    /// (fed back by the serving engine); `None` makes `LazyParBoX`'s
    /// estimate pessimistically assume the full depth.
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

/// One evaluation strategy behind the planner: a name, a statistics-only
/// cost prediction, and the execution entry point.
pub trait Executor {
    /// Strategy name, matching the `EvalOutcome::algorithm` label of its
    /// execution.
    fn name(&self) -> &'static str;
    /// Predicts the run's cost from the context's statistics, without
    /// contacting any site.
    fn estimate(&self, cx: &PlanContext<'_>) -> CostEstimate;
    /// Runs the strategy.
    fn execute(&self, cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome;
}

/// Aggregates every estimator needs, derived once per estimate call from
/// the context (`O(card(F))`).
struct Derived {
    m: usize,
    qsize: usize,
    card: usize,
    sites: usize,
    remote_sites: usize,
    total_nodes: usize,
    max_site_nodes: usize,
    remote_frags: usize,
    /// Σ shipped bytes of fragments stored away from the coordinator.
    remote_data_bytes: usize,
    /// Σ predicted open-triplet bytes of those fragments.
    remote_triplet_bytes: usize,
    cross_edges: usize,
    max_depth: usize,
}

impl Derived {
    fn of(cx: &PlanContext<'_>) -> Derived {
        let (stats, coord) = (&cx.cluster.forest_stats, cx.cluster.coordinator());
        let m = cx.query.len();
        let mut remote_frags = 0usize;
        let mut remote_data_bytes = 0usize;
        let mut remote_triplet_bytes = 0usize;
        for (_, s) in stats.fragments() {
            if s.site != coord {
                remote_frags += 1;
                remote_data_bytes += s.bytes;
                remote_triplet_bytes += estimated_triplet_bytes(m, s.children.len());
            }
        }
        let sites = stats.site_count();
        Derived {
            m,
            qsize: query_wire_size(cx.query),
            card: stats.card(),
            sites,
            remote_sites: sites.saturating_sub(1),
            total_nodes: stats.total_nodes(),
            max_site_nodes: stats.max_site_nodes(),
            remote_frags,
            remote_data_bytes,
            remote_triplet_bytes,
            cross_edges: stats.cross_site_edges(),
            max_depth: stats.max_depth(),
        }
    }
}

/// `ParBoX`: one visit per site, two communication rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParBoxExec;

impl Executor for ParBoxExec {
    fn name(&self) -> &'static str {
        "ParBoX"
    }

    fn estimate(&self, cx: &PlanContext<'_>) -> CostEstimate {
        let d = Derived::of(cx);
        let model = &cx.cluster.model;
        let broadcast = if d.sites > 1 {
            model.transfer_time(d.qsize)
        } else {
            0.0
        };
        let collect = model.shared_link_time(d.remote_frags, d.remote_triplet_bytes);
        let work = (d.total_nodes * d.m + d.m * d.card) as u64;
        CostEstimate {
            visits: d.sites,
            messages: d.remote_sites + d.remote_frags,
            traffic_bytes: d.qsize * d.remote_sites + d.remote_triplet_bytes,
            rounds: if d.remote_sites > 0 { 2 } else { 0 },
            work_units: work,
            modeled_s: broadcast
                + compute_s((d.max_site_nodes * d.m) as u64)
                + collect
                + compute_s((d.card * d.m) as u64),
        }
    }

    fn execute(&self, cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
        parbox(cluster, q)
    }
}

/// `NaiveCentralized`: ship every remote fragment, evaluate centrally.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveCentralizedExec;

impl Executor for NaiveCentralizedExec {
    fn name(&self) -> &'static str {
        "NaiveCentralized"
    }

    fn estimate(&self, cx: &PlanContext<'_>) -> CostEstimate {
        let d = Derived::of(cx);
        // The reassembled document drops one virtual node per non-root
        // fragment.
        let whole = d.total_nodes - (d.card - 1);
        CostEstimate {
            visits: d.sites,
            messages: d.remote_frags,
            traffic_bytes: d.remote_data_bytes,
            rounds: if d.remote_frags > 0 { 1 } else { 0 },
            work_units: (whole * d.m) as u64,
            modeled_s: cx
                .cluster
                .model
                .shared_link_time(d.remote_frags, d.remote_data_bytes)
                + compute_s((whole * d.m) as u64),
        }
    }

    fn execute(&self, cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
        naive_centralized(cluster, q)
    }
}

/// `NaiveDistributed`: fully sequential distributed traversal.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveDistributedExec;

impl Executor for NaiveDistributedExec {
    fn name(&self) -> &'static str {
        "NaiveDistributed"
    }

    fn estimate(&self, cx: &PlanContext<'_>) -> CostEstimate {
        let d = Derived::of(cx);
        let model = &cx.cluster.model;
        let tri = resolved_triplet_wire_size(d.m);
        CostEstimate {
            visits: d.card,
            messages: 2 * d.cross_edges,
            traffic_bytes: (d.qsize + tri) * d.cross_edges,
            rounds: 2 * d.cross_edges,
            work_units: (d.total_nodes * d.m) as u64,
            modeled_s: d.cross_edges as f64
                * (model.transfer_time(d.qsize) + model.transfer_time(tri))
                + compute_s((d.total_nodes * d.m) as u64),
        }
    }

    fn execute(&self, cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
        naive_distributed(cluster, q)
    }
}

/// `FullDistParBoX`: parallel evaluation, in-network resolution.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullDistExec;

impl Executor for FullDistExec {
    fn name(&self) -> &'static str {
        "FullDistParBoX"
    }

    fn estimate(&self, cx: &PlanContext<'_>) -> CostEstimate {
        let d = Derived::of(cx);
        let model = &cx.cluster.model;
        let tri = resolved_triplet_wire_size(d.m);
        let st_bytes = cx.cluster.forest_stats.byte_size();
        let broadcast = if d.sites > 1 {
            model.transfer_time(d.qsize + st_bytes)
        } else {
            0.0
        };
        // Resolution climbs the fragment tree; the critical path crosses
        // at most `max_depth` site boundaries and performs one `O(|q|)`
        // substitution step per fragment on the way.
        let climb = d.max_depth.min(d.cross_edges) as f64 * model.transfer_time(tri);
        let solve_work: u64 = (cx.cluster.forest_stats.fragments())
            .map(|(_, s)| (d.m * (1 + s.children.len())) as u64)
            .sum();
        CostEstimate {
            visits: d.card,
            messages: d.remote_sites + d.cross_edges,
            traffic_bytes: (d.qsize + st_bytes) * d.remote_sites + tri * d.cross_edges,
            rounds: if d.remote_sites > 0 {
                1 + d.max_depth.min(d.cross_edges)
            } else {
                0
            },
            work_units: (d.total_nodes * d.m) as u64 + solve_work,
            modeled_s: broadcast
                + compute_s((d.max_site_nodes * d.m) as u64)
                + climb
                + compute_s(solve_work),
        }
    }

    fn execute(&self, cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
        full_dist_parbox(cluster, q)
    }
}

/// `LazyParBoX`: depth-wavefront evaluation with early termination.
#[derive(Debug, Clone, Copy, Default)]
pub struct LazyExec;

impl Executor for LazyExec {
    fn name(&self) -> &'static str {
        "LazyParBoX"
    }

    fn estimate(&self, cx: &PlanContext<'_>) -> CostEstimate {
        let d = Derived::of(cx);
        let model = &cx.cluster.model;
        let coord = cx.cluster.coordinator();
        let stop = cx
            .resolve_depth_hint
            .unwrap_or(d.max_depth)
            .min(d.max_depth);

        // One pass over the fragments buckets the wavefronts up to the
        // expected stopping depth.
        #[derive(Default, Clone)]
        struct Wave {
            frags: usize,
            remote_frags: usize,
            remote_triplet_bytes: usize,
            max_site_nodes: usize,
            nodes: usize,
        }
        let mut waves = vec![Wave::default(); stop + 1];
        let mut site_nodes: std::collections::HashMap<(usize, u32), usize> =
            std::collections::HashMap::new();
        for (_, s) in cx.cluster.forest_stats.fragments() {
            if s.depth > stop {
                continue;
            }
            let w = &mut waves[s.depth];
            w.frags += 1;
            w.nodes += s.nodes;
            if s.site != coord {
                w.remote_frags += 1;
                w.remote_triplet_bytes += estimated_triplet_bytes(d.m, s.children.len());
            }
            let acc = site_nodes.entry((s.depth, s.site.0)).or_default();
            *acc += s.nodes;
        }
        // Distinct remote sites per wavefront: one query message each.
        let mut wave_remote_sites = vec![0usize; stop + 1];
        for &(depth, site) in site_nodes.keys() {
            waves[depth].max_site_nodes =
                waves[depth].max_site_nodes.max(site_nodes[&(depth, site)]);
            if site != coord.0 {
                wave_remote_sites[depth] += 1;
            }
        }

        let mut est = CostEstimate::default();
        let mut gathered = 0usize;
        for (depth, w) in waves.iter().enumerate() {
            if w.frags == 0 {
                continue;
            }
            gathered += w.frags;
            est.visits += w.frags;
            // Per step: the query to every distinct remote site of the
            // wavefront and one triplet back per remote fragment.
            let step_sites = wave_remote_sites[depth];
            est.messages += step_sites + w.remote_frags;
            est.traffic_bytes += d.qsize * step_sites + w.remote_triplet_bytes;
            est.rounds += if step_sites > 0 { 2 } else { 0 };
            est.work_units += (w.nodes * d.m + d.m * gathered) as u64;
            est.modeled_s += if step_sites > 0 {
                model.transfer_time(d.qsize)
            } else {
                0.0
            } + compute_s((w.max_site_nodes * d.m) as u64)
                + model.shared_link_time(w.remote_frags, w.remote_triplet_bytes)
                + compute_s((gathered * d.m) as u64);
        }
        est
    }

    fn execute(&self, cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
        lazy_parbox(cluster, q)
    }
}

/// A serving round's data-plane schedule, chosen by [`RoundDemand::plan`].
pub(crate) struct RoundPlan {
    /// The needed fragments, one group per dispatch; the engine attempts
    /// the open members after each and stops once none is left. Eager is
    /// the single wave `[need]`, depth-gated is one wave per depth.
    pub waves: Vec<Vec<FragmentId>>,
    /// Attempt from surviving cached triplets before the first dispatch:
    /// the depth-gated plan bets on answers closing early and pays for
    /// that zero-message pass, the eager plan ships everything anyway.
    pub attempt_before_first_wave: bool,
    /// The decision record stamped into [`parbox_net::RunReport::planned`].
    pub summary: PlanSummary,
}

/// What one serving round asks of the data plane, and the live
/// statistics to price it with.
pub(crate) struct RoundDemand<'a> {
    pub stats: &'a ForestStats,
    pub model: &'a NetworkModel,
    pub coordinator: SiteId,
    /// Fragments some active member lacks a cached triplet for; the
    /// plan's waves take them over.
    pub need: Vec<FragmentId>,
    /// Distinct member programs going to the data plane.
    pub active_members: usize,
    /// `|QList|` of their merged program.
    pub merged_len: usize,
    /// Wire size of the merged program: the per-site request.
    pub request_bytes: usize,
    /// Fragment-tree depth at which recent rounds' answers resolved.
    pub depth_hint: usize,
}

impl RoundDemand<'_> {
    /// Predicted cost of one wave in the units the round's report
    /// measures: `frags` dispatched (a visit per owning site, a request
    /// and an envelope per remote one), then every active member
    /// attempted over the `gathered` fragments held by then.
    fn wave_cost(&self, frags: &[FragmentId], gathered: usize) -> CostEstimate {
        let m = self.merged_len.max(1);
        // Per owning site: (nodes, predicted triplet bytes).
        let mut sites: BTreeMap<SiteId, (usize, usize)> = BTreeMap::new();
        for &f in frags {
            let s = self.stats.fragment(f);
            let site = sites.entry(s.site).or_default();
            site.0 += s.nodes;
            site.1 += estimated_triplet_bytes(m, s.children.len());
        }
        let remote = sites.keys().filter(|&&s| s != self.coordinator).count();
        let envelopes: usize = sites
            .iter()
            .filter(|(&s, _)| s != self.coordinator)
            .map(|(_, &(_, bytes))| estimated_envelope_bytes(bytes))
            .sum();
        let slowest_site = sites.values().map(|&(nodes, _)| nodes).max().unwrap_or(0);
        let eval_work: u64 = sites.values().map(|&(nodes, _)| (nodes * m) as u64).sum();
        let solve_work = (self.active_members * m * gathered) as u64;
        let broadcast = match remote {
            0 => 0.0,
            _ => self.model.transfer_time(self.request_bytes),
        };
        CostEstimate {
            visits: sites.len(),
            messages: 2 * remote,
            traffic_bytes: self.request_bytes * remote + envelopes,
            rounds: if remote > 0 { 2 } else { 0 },
            work_units: eval_work + solve_work,
            modeled_s: broadcast
                + compute_s((slowest_site * m) as u64)
                + self.model.shared_link_time(remote, envelopes)
                + compute_s(solve_work),
        }
    }

    /// Prices the eager round (one wave, solved over every fragment)
    /// against depth-gated waves that optimistically stop at the depth
    /// hint, though never before the shallowest needed wave, and plans
    /// the cheaper. An eager round of one member is plain ParBoX.
    pub fn plan(self) -> RoundPlan {
        let eager = self.wave_cost(&self.need, self.stats.card().max(1));
        let mut by_depth: BTreeMap<usize, Vec<FragmentId>> = BTreeMap::new();
        for &f in &self.need {
            let depth = self.stats.fragment(f).depth;
            by_depth.entry(depth).or_default().push(f);
        }
        let stop = self.depth_hint.min(self.stats.max_depth());
        let mut lazy = CostEstimate::default();
        let mut gathered = 0usize;
        for (i, (&depth, frags)) in by_depth.iter().enumerate() {
            if i > 0 && depth > stop {
                break;
            }
            gathered += frags.len();
            let wave = self.wave_cost(frags, gathered);
            lazy.visits += wave.visits;
            lazy.messages += wave.messages;
            lazy.traffic_bytes += wave.traffic_bytes;
            lazy.rounds += wave.rounds;
            lazy.work_units += wave.work_units;
            lazy.modeled_s += wave.modeled_s;
        }
        let lazy_wins = lazy.modeled_s < eager.modeled_s;
        let (strategy, estimate, waves) = if lazy_wins {
            ("LazyParBoX", lazy, by_depth.into_values().collect())
        } else if self.active_members == 1 {
            ("ParBoX", eager, vec![self.need])
        } else {
            ("BatchParBoX", eager, vec![self.need])
        };
        RoundPlan {
            waves,
            attempt_before_first_wave: lazy_wins,
            summary: PlanSummary {
                strategy: strategy.to_string(),
                estimate,
                candidates: 2,
            },
        }
    }
}

/// One candidate's row in a [`PlanExplain`].
#[derive(Debug, Clone)]
pub struct ExplainEntry {
    /// Strategy name.
    pub strategy: &'static str,
    /// Its predicted cost.
    pub estimate: CostEstimate,
    /// True for the strategy the planner picked.
    pub chosen: bool,
}

/// Every candidate's estimate, cheapest first — what
/// `parbox-cli explain` renders.
#[derive(Debug, Clone)]
pub struct PlanExplain {
    /// Candidate rows, ascending by predicted modeled seconds.
    pub entries: Vec<ExplainEntry>,
}

impl PlanExplain {
    /// The winning entry.
    pub fn chosen(&self) -> &ExplainEntry {
        self.entries
            .iter()
            .find(|e| e.chosen)
            .expect("explain always marks a winner")
    }
}

impl fmt::Display for PlanExplain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {:<18} {:>7} {:>9} {:>12} {:>7} {:>12} {:>12}",
            "strategy", "visits", "messages", "traffic (B)", "rounds", "est. work", "modeled (s)"
        )?;
        for e in &self.entries {
            writeln!(
                f,
                "{} {:<18} {:>7} {:>9} {:>12} {:>7} {:>12} {:>12.6}",
                if e.chosen { "→" } else { " " },
                e.strategy,
                e.estimate.visits,
                e.estimate.messages,
                e.estimate.traffic_bytes,
                e.estimate.rounds,
                e.estimate.work_units,
                e.estimate.modeled_s,
            )?;
        }
        Ok(())
    }
}

/// The planner's decision: which executor to run, with the summary that
/// will be stamped into the outcome's report.
pub struct Choice<'p> {
    /// The winning executor.
    pub executor: &'p dyn Executor,
    /// The decision record ([`parbox_net::RunReport::planned`]).
    pub summary: PlanSummary,
    /// All candidates' estimates.
    pub explain: PlanExplain,
}

impl Choice<'_> {
    /// Runs the chosen strategy and records the [`PlanSummary`] in the
    /// outcome's report.
    pub fn execute(&self, cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
        let mut out = self.executor.execute(cluster, q);
        out.report.planned = Some(self.summary.clone());
        out
    }
}

/// A set of candidate executors and the choice rule over their
/// estimates.
pub struct Planner {
    executors: Vec<Box<dyn Executor>>,
}

impl Planner {
    /// The paper's five fixed strategies (`HybridParBoX` is the
    /// two-way [`Planner::hybrid`] over two of them).
    pub fn standard() -> Planner {
        Planner {
            executors: vec![
                Box::new(ParBoxExec),
                Box::new(FullDistExec),
                Box::new(LazyExec),
                Box::new(NaiveCentralizedExec),
                Box::new(NaiveDistributedExec),
            ],
        }
    }

    /// The two-way planner behind `HybridParBoX`, replacing the paper's
    /// tipping-point heuristic: ParBoX versus NaiveCentralized.
    pub fn hybrid() -> Planner {
        Planner {
            executors: vec![Box::new(ParBoxExec), Box::new(NaiveCentralizedExec)],
        }
    }

    /// A custom candidate set.
    pub fn of(executors: Vec<Box<dyn Executor>>) -> Planner {
        assert!(!executors.is_empty(), "a planner needs candidates");
        Planner { executors }
    }

    /// The candidate executors, in registration order.
    pub fn executors(&self) -> &[Box<dyn Executor>] {
        &self.executors
    }

    /// Estimates every candidate and picks the cheapest by predicted
    /// modeled seconds (ties break toward the earlier-registered —
    /// i.e. more specialized — strategy).
    pub fn choose(&self, cx: &PlanContext<'_>) -> Choice<'_> {
        let mut entries: Vec<(usize, ExplainEntry)> = self
            .executors
            .iter()
            .enumerate()
            .map(|(i, e)| {
                (
                    i,
                    ExplainEntry {
                        strategy: e.name(),
                        estimate: e.estimate(cx),
                        chosen: false,
                    },
                )
            })
            .collect();
        let winner = entries
            .iter()
            .min_by(|a, b| {
                a.1.estimate
                    .modeled_s
                    .total_cmp(&b.1.estimate.modeled_s)
                    .then(a.0.cmp(&b.0))
            })
            .expect("planner has candidates")
            .0;
        for (i, e) in entries.iter_mut() {
            e.chosen = *i == winner;
        }
        let summary = PlanSummary {
            strategy: self.executors[winner].name().to_string(),
            estimate: entries
                .iter()
                .find(|(i, _)| *i == winner)
                .expect("winner is among entries")
                .1
                .estimate,
            candidates: entries.len(),
        };
        let mut rows: Vec<ExplainEntry> = entries.into_iter().map(|(_, e)| e).collect();
        rows.sort_by(|a, b| a.estimate.modeled_s.total_cmp(&b.estimate.modeled_s));
        Choice {
            executor: &*self.executors[winner],
            summary,
            explain: PlanExplain { entries: rows },
        }
    }

    /// Renders every candidate's estimate without executing anything.
    pub fn explain(&self, cx: &PlanContext<'_>) -> PlanExplain {
        self.choose(cx).explain
    }
}

impl fmt::Debug for Planner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Planner")
            .field(
                "executors",
                &self.executors.iter().map(|e| e.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// One-shot adaptive evaluation: asks the standard planner, runs the
/// winner, and stamps the [`PlanSummary`] into the report. This is what
/// `parbox-cli run --strategy auto` executes.
pub fn plan_run(cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
    let cx = PlanContext::new(cluster, q);
    Planner::standard().choose(&cx).execute(cluster, q)
}

/// Measures the fragment-tree depth at which `q`'s answer resolves: the
/// smallest `d` such that the triplets of fragments at depth `≤ d`
/// already determine the root answer. This is the statistic a serving
/// deployment accumulates over its history (the engine's EWMA) and
/// feeds back as [`PlanContext::resolve_depth_hint`]; as a standalone
/// call it evaluates every fragment once — a warm-up/experiment oracle,
/// not a planning-time estimate.
pub fn measure_resolution_depth(cluster: &Cluster<'_>, q: &CompiledQuery) -> usize {
    use crate::eval::bottom_up;
    use parbox_bool::{KleeneRows, Var, VecKind};

    // One three-valued pass over every fragment, each at its depth: the
    // root answer's depth is the least cut-off whose fragments decide it.
    let st = &cluster.forest_stats;
    let mut rows = KleeneRows::new();
    for &f in st.postorder() {
        let triplet = bottom_up(&cluster.forest.fragment(f).tree, q).triplet;
        rows.solve(f, &triplet, None, st.fragment(f).depth as u32);
    }
    let root = Var::new(st.root(), VecKind::V, q.root());
    rows.value(root)
        .expect("every fragment evaluated decides the answer")
        .depth as usize
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
        let cx = PlanContext::new(&cluster, &q);

        for exec in [
            Box::new(ParBoxExec) as Box<dyn Executor>,
            Box::new(NaiveCentralizedExec),
            Box::new(NaiveDistributedExec),
            Box::new(FullDistExec),
        ] {
            let est = exec.estimate(&cx);
            let out = exec.execute(&cluster, &q);
            assert_eq!(
                est.visits,
                out.report.total_visits(),
                "{} visits",
                exec.name()
            );
            assert_eq!(
                est.messages,
                out.report.total_messages(),
                "{} messages",
                exec.name()
            );
            assert_eq!(
                est.work_units,
                out.report.total_work(),
                "{} work units",
                exec.name()
            );
            let measured = out.report.total_bytes();
            assert!(
                est.traffic_bytes <= measured * TRAFFIC_ESTIMATE_FACTOR
                    && measured <= est.traffic_bytes * TRAFFIC_ESTIMATE_FACTOR,
                "{}: traffic estimate {} vs measured {measured}",
                exec.name(),
                est.traffic_bytes
            );
        }
        // Modeled time is priced from counts, never read off a clock.
        for exec in Planner::standard().executors() {
            let charged = || exec.execute(&cluster, &q).report.elapsed_model_s;
            assert_eq!(charged(), charged(), "{} modeled time", exec.name());
        }
        // On a free network ParBoX's estimated compute is exact.
        let free = Cluster::new(&forest, &placement, NetworkModel::infinite());
        let est = ParBoxExec.estimate(&PlanContext::new(&free, &q)).modeled_s;
        let charged = ParBoxExec.execute(&free, &q).report.elapsed_model_s;
        assert!((est - charged).abs() < 1e-12, "{est} vs {charged}");
    }

    #[test]
    fn naive_traffic_estimates_are_exact() {
        // Shipped-fragment and resolved-triplet payloads are structural:
        // the two naive baselines' traffic is predicted to the byte, and
        // so, on every network, is their modeled time.
        let (forest, placement) = star_cluster(40, 4);
        let q = compile(&parse_query("[//goal]").unwrap());
        for model in [
            NetworkModel::lan(),
            NetworkModel::wan(),
            NetworkModel::infinite(),
        ] {
            let cluster = Cluster::new(&forest, &placement, model);
            let cx = PlanContext::new(&cluster, &q);
            for exec in [
                Box::new(NaiveCentralizedExec) as Box<dyn Executor>,
                Box::new(NaiveDistributedExec),
            ] {
                let est = exec.estimate(&cx);
                let out = exec.execute(&cluster, &q);
                assert_eq!(
                    est.traffic_bytes,
                    out.report.total_bytes(),
                    "{} traffic",
                    exec.name()
                );
                let (est, charged) = (est.modeled_s, out.report.elapsed_model_s);
                assert!((est - charged).abs() < 1e-12, "{est} vs {charged}");
            }
        }
    }

    #[test]
    fn choice_executes_and_stamps_plan_summary() {
        let (forest, placement) = star_cluster(50, 4);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//goal]").unwrap());
        let cx = PlanContext::new(&cluster, &q);
        let planner = Planner::standard();
        let choice = planner.choose(&cx);
        let out = choice.execute(&cluster, &q);
        let planned = out.report.planned.expect("planned run records a summary");
        assert_eq!(planned.strategy, choice.summary.strategy);
        assert_eq!(planned.candidates, 5);
        // The label of the executed algorithm matches the plan.
        assert_eq!(out.algorithm, planned.strategy);
        // plan_run is the same path.
        let auto = plan_run(&cluster, &q);
        assert_eq!(auto.answer, out.answer);
        assert!(auto.report.planned.is_some());
    }

    #[test]
    fn explain_lists_all_candidates_cheapest_first() {
        let (forest, placement) = star_cluster(50, 4);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::wan());
        let q = compile(&parse_query("[//goal]").unwrap());
        let cx = PlanContext::new(&cluster, &q);
        let explain = Planner::standard().explain(&cx);
        assert_eq!(explain.entries.len(), 5);
        assert!(explain
            .entries
            .windows(2)
            .all(|w| w[0].estimate.modeled_s <= w[1].estimate.modeled_s));
        assert_eq!(explain.entries.iter().filter(|e| e.chosen).count(), 1);
        assert_eq!(
            explain.chosen().strategy,
            explain.entries[0].strategy,
            "winner is the cheapest"
        );
        let rendered = format!("{explain}");
        assert!(rendered.contains("ParBoX") && rendered.contains("modeled (s)"));
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
        let pessimistic = LazyExec.estimate(&cx);
        cx.resolve_depth_hint = Some(0);
        let shallow = LazyExec.estimate(&cx);
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
            let cx = PlanContext::new(&cluster, &q);
            let planner = Planner::standard();
            let chosen = planner.choose(&cx).execute(&cluster, &q);
            for exec in planner.executors() {
                assert_eq!(
                    exec.execute(&cluster, &q).answer,
                    chosen.answer,
                    "{} disagrees on {src}",
                    exec.name()
                );
            }
        }
    }
}
