//! Aggregation by partial evaluation — the paper's closing observation
//! that "numerical and aggregating computations over large data sets can
//! benefit from the technique".
//!
//! For an XBL predicate `q`, [`count_distributed`] computes how many
//! nodes of the distributed document satisfy `q`, and
//! [`sum_distributed`] adds up the numeric text values of those nodes.
//! Both keep ParBoX's guarantees: **each site is visited once** and the
//! traffic is query-sized.
//!
//! The partial answer of a fragment is a *residual affine expression*:
//!
//! ```text
//! count(F_j) = c  +  Σ [φ_i]  +  Σ count(F_k)
//! ```
//!
//! where `c` counts the fragment's nodes whose predicate value resolved
//! locally, each `φ_i` is a Boolean formula for a node whose value still
//! depends on sub-fragment variables (spine nodes), and the `count(F_k)`
//! terms refer to the sub-fragments. A site computes a fragment's
//! triplet and its residual in one pass — `bottomUp`'s
//! `FragmentPass`: off the spine, the matching element nodes are read
//! from the kernel's `V` column of `q`'s root sub-query; on it, each
//! node's formula step yields `φ_i` (or a constant); each virtual node
//! is a `count(F_k)` term. The coordinator first solves the ordinary
//! Boolean equation system (resolving every `φ_i`), then folds the
//! affine expressions bottom-up — both passes are linear.

use crate::algorithms::query_wire_size;
use crate::eval::bottom_up::{FragmentPass, Rows};
use crate::eval::columns::ones;
use crate::eval::FragmentRun;
use crate::plan::compute_s;
use parbox_bool::{triplet_dag_wire_size, EquationSystem, Formula, Var};
use parbox_net::{run_sites_parallel, Cluster, MessageKind, RunReport, SiteId};
use parbox_query::CompiledQuery;
use parbox_xml::{FragmentId, NodeId, Tree};
use std::collections::HashMap;
use std::time::Instant;

/// The residual aggregate computed for one fragment.
#[derive(Debug, Clone)]
pub struct ResidualAggregate {
    /// Contribution of nodes whose predicate value resolved locally.
    pub resolved: f64,
    /// Contributions still conditional on sub-fragment values: the value
    /// is added iff the formula turns out true.
    pub pending: Vec<(Formula, f64)>,
    /// Sub-fragments whose own aggregates must be added.
    pub children: Vec<FragmentId>,
}

impl ResidualAggregate {
    /// Wire size: constant + each pending formula + child list.
    pub fn wire_size(&self) -> usize {
        8 + self
            .pending
            .iter()
            .map(|(f, _)| 8 + f.size() * 10)
            .sum::<usize>()
            + 4 * self.children.len()
    }
}

/// Result of a distributed aggregation.
#[derive(Debug, Clone)]
pub struct AggregateOutcome {
    /// The aggregate value over the whole document.
    pub value: f64,
    /// Full cost accounting.
    pub report: RunReport,
}

/// How a matching node contributes to the aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Each matching node contributes 1.
    Count,
    /// Each matching node contributes its numeric text value (nodes whose
    /// text is not a finite number contribute 0).
    SumText,
}

/// Counts the nodes of the whole (unfragmented) tree satisfying `q` —
/// the centralized oracle.
pub fn count_centralized(tree: &Tree, q: &CompiledQuery) -> u64 {
    aggregate_fragment(tree, q, AggKind::Count).1.resolved as u64
}

/// Sums the numeric text of nodes satisfying `q` on a whole tree.
pub fn sum_centralized(tree: &Tree, q: &CompiledQuery) -> f64 {
    aggregate_fragment(tree, q, AggKind::SumText).1.resolved
}

/// Distributed COUNT of nodes satisfying `q`: one visit per site.
pub fn count_distributed(cluster: &Cluster<'_>, q: &CompiledQuery) -> AggregateOutcome {
    aggregate_distributed(cluster, q, AggKind::Count)
}

/// Distributed SUM over the numeric text of nodes satisfying `q`.
pub fn sum_distributed(cluster: &Cluster<'_>, q: &CompiledQuery) -> AggregateOutcome {
    aggregate_distributed(cluster, q, AggKind::SumText)
}

fn aggregate_distributed(
    cluster: &Cluster<'_>,
    q: &CompiledQuery,
    kind: AggKind,
) -> AggregateOutcome {
    let wall = Instant::now();
    let mut report = RunReport::new();
    let coord = cluster.coordinator();
    let st = &cluster.forest_stats;
    let sites: Vec<SiteId> = st.sites().collect();
    let qsize = query_wire_size(q);

    // Stage 1+2 (one visit per site): every fragment produces both its
    // Boolean triplet (to resolve spine formulas) and its residual
    // aggregate, in one local pass each.
    for &s in &sites {
        report.record_visit(s);
        if s != coord {
            report.record_message(coord, s, qsize, MessageKind::Query);
        }
    }
    let runs = run_sites_parallel(&sites, |s| {
        st.fragments_at(s)
            .into_iter()
            .map(|f| {
                let (run, residual) = aggregate_fragment(&cluster.forest.fragment(f).tree, q, kind);
                (f, run, residual)
            })
            .collect::<Vec<_>>()
    });

    let mut sys = EquationSystem::new();
    let mut residuals: HashMap<FragmentId, ResidualAggregate> = HashMap::new();
    let mut replies: Vec<usize> = Vec::new();
    for run in runs {
        report.record_compute(run.site, run.elapsed);
        for (frag, frun, residual) in run.output {
            report.record_work(run.site, 2 * frun.work_units);
            if run.site != coord {
                let bytes = triplet_dag_wire_size(&frun.triplet) + residual.wire_size();
                report.record_message(run.site, coord, bytes, MessageKind::Triplet);
                replies.push(bytes);
            }
            sys.insert(frag, frun.triplet);
            residuals.insert(frag, residual);
        }
    }
    // So far each site's work is its share of stages 1+2.
    let slowest_site = report.sites().map(|(_, r)| r.work_units).max().unwrap_or(0);

    // Stage 3 at the coordinator: solve the Boolean system, then fold the
    // affine aggregates bottom-up over the fragment tree.
    let solve_start = Instant::now();
    let resolved = sys.solve(st.postorder()).expect("complete bottom-up order");
    let mut totals: HashMap<FragmentId, f64> = HashMap::new();
    for &frag in st.postorder() {
        let residual = &residuals[&frag];
        let mut total = residual.resolved;
        for (formula, weight) in &residual.pending {
            let truth = formula.eval(&|var: Var| resolved[&var.frag].value_of(var));
            if truth {
                total += weight;
            }
        }
        for child in &residual.children {
            total += totals[child];
        }
        totals.insert(frag, total);
    }
    report.record_compute(coord, solve_start.elapsed());
    let solve_work = (q.len() * cluster.forest.card()) as u64;
    report.record_work(coord, solve_work);

    // ParBoX's stages: query broadcast ∥ → the slowest site → replies
    // over the coordinator's shared inbound link → solve.
    let broadcast = match sites.len() {
        1 => 0.0,
        _ => cluster.model.transfer_time(qsize),
    };
    report.elapsed_wall_s = wall.elapsed().as_secs_f64();
    report.elapsed_model_s = broadcast
        + compute_s(slowest_site)
        + cluster
            .model
            .shared_link_time(replies.len(), replies.iter().sum())
        + compute_s(solve_work);
    AggregateOutcome {
        value: totals[&st.root()],
        report,
    }
}

/// One fragment-local pass: the fragment's triplet, and each node's
/// contribution classified as resolved or pending.
fn aggregate_fragment(
    tree: &Tree,
    q: &CompiledQuery,
    kind: AggKind,
) -> (FragmentRun, ResidualAggregate) {
    let resolved_q = q.resolve(tree.labels());
    let root_sub = resolved_q.root as usize;
    let weight = |n: NodeId| match kind {
        AggKind::Count => 1.0,
        AggKind::SumText => tree
            .node(n)
            .text
            .as_deref()
            .and_then(|t| t.trim().parse::<f64>().ok())
            .filter(|x| x.is_finite())
            .unwrap_or(0.0),
    };
    let mut out = ResidualAggregate {
        resolved: 0.0,
        pending: Vec::new(),
        children: Vec::new(),
    };
    let pass = FragmentPass::run(
        tree,
        &resolved_q,
        Rows::Spine,
        |n, v| {
            if let Some(frag) = tree.node(n).kind.fragment() {
                // Sub-fragment: its nodes are counted by its own residual.
                out.children.push(frag);
                return;
            }
            let w = weight(n);
            if w != 0.0 {
                match v[root_sub].as_const() {
                    Some(true) => out.resolved += w,
                    Some(false) => {}
                    None => out.pending.push((v[root_sub], w)),
                }
            }
        },
        &mut || {},
    );
    // Off the spine every value is a constant: the matching element
    // nodes are the set bits of the root sub-query's column.
    let matched: Vec<u64> = pass
        .cols
        .v(root_sub)
        .iter()
        .zip(pass.layout.element())
        .zip(&pass.spine)
        .map(|((v, e), s)| v & e & !s)
        .collect();
    out.resolved += ones(&matched)
        .map(|p| weight(pass.layout.node(p)))
        .sum::<f64>();
    let run = FragmentRun {
        work_units: pass.work_units(),
        triplet: pass.root,
    };
    (run, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbox_frag::{strategies, Forest, Placement};
    use parbox_net::NetworkModel;
    use parbox_query::{compile, parse_query};

    fn q(src: &str) -> CompiledQuery {
        compile(&parse_query(src).unwrap())
    }

    #[test]
    fn centralized_count_simple() {
        let tree = Tree::parse("<r><a/><a><a/></a><b/></r>").unwrap();
        assert_eq!(count_centralized(&tree, &q("[label() = a]")), 3);
        assert_eq!(count_centralized(&tree, &q("[label() = r]")), 1);
        assert_eq!(count_centralized(&tree, &q("[label() = z]")), 0);
        // Predicate with structure: nodes that have an `a` child.
        assert_eq!(count_centralized(&tree, &q("[a]")), 2); // r and the middle a
    }

    #[test]
    fn centralized_sum_simple() {
        let tree = Tree::parse("<r><p>10</p><p>2.5</p><p>not-a-number</p><x>99</x></r>").unwrap();
        assert_eq!(sum_centralized(&tree, &q("[label() = p]")), 12.5);
        assert_eq!(sum_centralized(&tree, &q("[label() = x]")), 99.0);
    }

    #[test]
    fn sum_skips_text_that_is_not_a_finite_number() {
        // `f64` parses "NaN" and "inf"; either would swallow the sum.
        let tree = Tree::parse("<r><p>NaN</p><p>inf</p><p>2</p></r>").unwrap();
        let query = q("[label() = p]");
        assert_eq!(sum_centralized(&tree, &query), 2.0);
        let mut forest = Forest::from_tree(tree);
        let root = forest.root_fragment();
        strategies::star(&mut forest, root).unwrap();
        assert_eq!(forest.card(), 4);
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        assert_eq!(sum_distributed(&cluster, &query).value, 2.0);
    }

    fn stock_forest() -> (Forest, Placement) {
        let tree = Tree::parse(
            r#"<portfolio>
                 <m><stock><code>GOOG</code><sell>370</sell></stock>
                    <stock><code>YHOO</code><sell>35</sell></stock></m>
                 <m><stock><code>GOOG</code><sell>373</sell></stock></m>
                 <m><stock><code>IBM</code><sell>78</sell></stock>
                    <stock><code>GOOG</code><sell>371</sell></stock></m>
               </portfolio>"#,
        )
        .unwrap();
        let mut forest = Forest::from_tree(tree);
        let root = forest.root_fragment();
        strategies::star(&mut forest, root).unwrap();
        let placement = Placement::one_per_fragment(&forest);
        (forest, placement)
    }

    #[test]
    fn distributed_count_matches_centralized() {
        let (forest, placement) = stock_forest();
        let whole = forest.reassemble();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        for src in [
            "[label() = stock]",
            "[label() = stock and code/text() = \"GOOG\"]",
            "[label() = m]",
            "[stock]", // nodes having a stock child
            "[label() = nothing]",
        ] {
            let query = q(src);
            let expected = count_centralized(&whole, &query) as f64;
            let got = count_distributed(&cluster, &query);
            assert_eq!(got.value, expected, "count mismatch for {src}");
        }
    }

    #[test]
    fn distributed_sum_matches_centralized() {
        let (forest, placement) = stock_forest();
        let whole = forest.reassemble();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        // Total GOOG sell value: 370 + 373 + 371.
        let query = q("[label() = sell]");
        assert_eq!(
            sum_centralized(&whole, &query),
            370.0 + 35.0 + 373.0 + 78.0 + 371.0
        );
        let got = sum_distributed(&cluster, &query);
        assert_eq!(got.value, sum_centralized(&whole, &query));
    }

    #[test]
    fn one_visit_per_site() {
        let (forest, placement) = stock_forest();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let out = count_distributed(&cluster, &q("[label() = stock]"));
        assert_eq!(out.report.max_visits(), 1);
        assert_eq!(out.report.bytes_of_kind(MessageKind::Data), 0);
    }

    #[test]
    fn pending_formulas_resolve_across_fragments() {
        // A predicate whose truth at F0's nodes depends on sub-fragments:
        // "portfolio nodes that contain a GOOG stock somewhere below".
        let (forest, placement) = stock_forest();
        let whole = forest.reassemble();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let query = q("[//code = \"GOOG\"]"); // holds at ancestors of GOOG codes
        let expected = count_centralized(&whole, &query) as f64;
        let got = count_distributed(&cluster, &query);
        assert_eq!(got.value, expected);
        assert!(expected >= 4.0, "root + markets + stocks chains");
    }

    /// `(visits, messages, bytes, work units)` of a report, in total and
    /// per site.
    fn costs(report: &RunReport) -> (usize, usize, usize, u64, Vec<(usize, u64)>) {
        let per_site = report
            .sites()
            .map(|(_, s)| (s.visits, s.work_units))
            .collect();
        (
            report.total_visits(),
            report.total_messages(),
            report.total_bytes(),
            report.total_work(),
            per_site,
        )
    }

    #[test]
    fn extension_cost_reports_are_pinned() {
        let (forest, placement) = stock_forest();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let program = parbox_query::compile_selection(
            &parse_query("[//stock[code/text() = \"GOOG\"]]").unwrap(),
        )
        .unwrap();
        let sel = crate::selection::select_distributed(&cluster, &program);
        let count = count_distributed(&cluster, &q("[//code = \"GOOG\"]"));
        let sum = sum_distributed(&cluster, &q("[label() = sell]"));
        // A change to the local passes must not move a visit, message,
        // byte or work unit.
        let per_site = |work: [u64; 4], visits: usize| work.map(|w| (visits, w)).to_vec();
        assert_eq!(
            costs(&sel.report),
            (8, 12, 279, 352, per_site([64, 112, 64, 112], 2))
        );
        assert_eq!(
            costs(&count.report),
            (4, 6, 198, 240, per_site([60, 70, 40, 70], 1))
        );
        assert_eq!(
            costs(&sum.report),
            (4, 6, 84, 48, per_site([12, 14, 8, 14], 1))
        );
    }

    #[test]
    fn traffic_stays_query_sized() {
        let (forest, placement) = stock_forest();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let out = count_distributed(&cluster, &q("[label() = stock]"));
        // Triplet + residual bytes only; far below the document size.
        assert!(out.report.total_bytes() < forest.total_bytes());
    }
}
