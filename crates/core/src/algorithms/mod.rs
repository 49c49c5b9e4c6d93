//! The distributed query-evaluation algorithms of the paper
//! (Sections 3 and 4) plus the naive baselines they are compared against.
//!
//! All algorithms take a [`Cluster`] (fragmented document + placement +
//! network model) and a compiled query, and return an [`EvalOutcome`]:
//! the Boolean answer plus a full [`RunReport`] of visits, messages,
//! traffic, work and modeled/measured elapsed time. The reports are what
//! regenerate the paper's Fig. 4 complexity table and the runtime figures
//! of Section 6.
//!
//! Each strategy prices itself in one function, its *schedule*: from
//! the per-fragment `Sizes` it records every visit, message, work unit
//! and the modeled seconds into a fresh report. A run evaluates, fills
//! the sizes from what it computed, calls the schedule and adds only
//! what is read off a clock; the planner ([`crate::plan`]) calls the same
//! schedule over sizes predicted from `ForestStats`.

mod fulldist;
mod hybrid;
mod lazy;
mod naive;
mod parbox_algo;

pub use self::fulldist::full_dist_parbox;
pub(crate) use self::fulldist::full_dist_schedule;
pub use self::hybrid::hybrid_parbox;
pub use self::lazy::lazy_parbox;
pub(crate) use self::lazy::lazy_schedule;
pub use self::naive::{naive_centralized, naive_distributed};
pub(crate) use self::naive::{naive_centralized_schedule, naive_distributed_schedule};
pub use self::parbox_algo::parbox;
pub(crate) use self::parbox_algo::{batch_schedule, parbox_schedule, ReplySize, RoundSizes};

use crate::eval::FragmentRun;
use parbox_bool::{triplet_dag_wire_size, KleeneRows, Triplet, Var, VecKind};
use parbox_frag::ForestStats;
use parbox_net::{Cluster, RunReport};
use parbox_query::{CompiledQuery, QueryBatch, SubId, SubQuery};
use parbox_xml::FragmentId;
use std::collections::HashMap;

/// Result of running a distributed evaluation algorithm.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// The query answer at the document root.
    pub answer: bool,
    /// Full cost accounting of the run.
    pub report: RunReport,
    /// Which algorithm produced this outcome (for harness output);
    /// `HybridParBoX` reports the branch it chose.
    pub algorithm: &'static str,
}

/// What a schedule prices of one evaluated fragment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FragmentSize {
    /// Work units of its evaluation.
    pub work: u64,
    /// Wire bytes of its reply, when its site is not the coordinator.
    pub reply_bytes: usize,
}

impl FragmentSize {
    /// The size of a fragment `bottomUp` evaluated: its work units and
    /// its triplet's wire bytes.
    pub fn of(run: &FragmentRun) -> FragmentSize {
        FragmentSize {
            work: run.work_units,
            reply_bytes: triplet_dag_wire_size(&run.triplet),
        }
    }
}

/// Per-fragment sizes: what a run measured, or what the planner
/// predicts.
pub(crate) type Sizes = HashMap<FragmentId, FragmentSize>;

/// Wire size in bytes of a compiled query — the payload of the stage-1
/// broadcast. One tagged op per sub-query, labels/texts inline.
pub fn query_wire_size(q: &CompiledQuery) -> usize {
    q.subs()
        .iter()
        .map(|s| match s {
            SubQuery::True => 1,
            SubQuery::LabelIs(a) => 3 + a.len(),
            SubQuery::TextIs(t) => 3 + t.len(),
            SubQuery::Child(_) | SubQuery::Desc(_) | SubQuery::Not(_) => 5,
            SubQuery::Or(_, _) | SubQuery::And(_, _) => 9,
        })
        .sum::<usize>()
        + 4 // root id
}

/// Wire size in bytes of a batch request: the merged program plus the
/// root-id table (4 bytes per member; [`query_wire_size`] already counts
/// the first root id).
pub fn batch_query_wire_size(batch: &QueryBatch) -> usize {
    query_wire_size(batch.merged()) + 4 * (batch.len() - 1)
}

/// Wire size of a *resolved* (constant) triplet, in the same DAG format
/// every other triplet message is accounted in (mixing formats would
/// skew cross-algorithm traffic comparisons): a worst-case two-entry
/// constant node table (count, `false`, `true`: 3 bytes) plus three
/// rows of a varint width and `width` one-byte node references.
pub fn resolved_triplet_wire_size(width: usize) -> usize {
    let varint_len = (usize::BITS - width.leading_zeros()).div_ceil(7).max(1) as usize;
    let table = if width == 0 { 1 } else { 3 };
    table + 3 * (varint_len + width)
}

/// Extracts the final answer from the root fragment's resolved `V`
/// vector: the value of the last query in `qL` (the root sub-query).
pub(crate) fn answer_from_resolved(
    resolved: &std::collections::HashMap<parbox_xml::FragmentId, parbox_bool::ResolvedTriplet>,
    cluster: &Cluster<'_>,
    q: &CompiledQuery,
) -> bool {
    let root = cluster.forest.root_fragment();
    resolved[&root].v[q.root() as usize]
}

/// The certain answer of the root sub-query `root_sub` from the
/// triplets at hand: the root fragment's `V` entry in three-valued
/// logic ([`KleeneRows`]), with every fragment `triplet_of` has no
/// triplet for unknown. Only the entries that answer reads are
/// evaluated. `Some` when three-valued (Kleene) evaluation decides the
/// answer, which then holds under every content of those fragments;
/// `None` when it does not. A triplet may come with a projection, to
/// read one member of the merged program it was computed under
/// ([`KleeneRows::solve`]).
pub(crate) fn certain_answer<'t>(
    st: &ForestStats,
    root_sub: SubId,
    triplet_of: impl Fn(FragmentId) -> Option<(&'t Triplet, Option<&'t [SubId]>)>,
) -> Option<bool> {
    let mut rows = KleeneRows::new();
    for &f in st.postorder() {
        if let Some((triplet, proj)) = triplet_of(f) {
            rows.register(f, triplet, proj);
        }
    }
    rows.value(Var::new(st.root(), VecKind::V, root_sub))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{bottom_up, centralized_eval};
    use parbox_frag::{strategies, Forest, Placement};
    use parbox_net::NetworkModel;
    use parbox_query::{compile, merge_programs, parse_query};
    use parbox_xml::{NodeId, Tree};
    use proptest::prelude::*;

    const LABELS: [&str; 5] = ["a", "b", "c", "d", "e"];
    const QUERIES: [&str; 8] = [
        "[//a]",
        "[//b and //c]",
        "[//a and not //b]",
        "[not(//d)]",
        "[//a[b]]",
        "[//c[d/text() = \"x\"]]",
        "[//b or not //b]",
        "[not(//a[e] or //c)]",
    ];

    /// A tree from a preorder `(depth, label, text)` script.
    fn tree_strategy() -> impl Strategy<Value = Tree> {
        let row = (0usize..5, 0usize..LABELS.len(), proptest::bool::ANY);
        proptest::collection::vec(row, 1..60).prop_map(|rows| {
            let mut tree = Tree::new("r");
            let mut stack: Vec<(usize, NodeId)> = vec![(0, tree.root())];
            for (depth, label, text) in rows {
                while stack.len() > 1 && stack.last().unwrap().0 > depth {
                    stack.pop();
                }
                let parent = stack.last().unwrap().1;
                let node = tree.add_child(parent, LABELS[label]);
                if text {
                    tree.set_text(node, "x");
                }
                stack.push((stack.last().unwrap().0 + 1, node));
            }
            tree
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The member solve evaluates only the root's `V` entry and what
        /// it reads; it must equal that entry of rows evaluated whole,
        /// children first, unknowns included.
        #[test]
        fn certain_answer_equals_fully_evaluated_rows(
            tree in tree_strategy(),
            chain in proptest::bool::ANY,
            links in 2usize..7,
            picks in proptest::collection::vec(0usize..QUERIES.len(), 1..5),
            missing in proptest::collection::vec(0u32..16, 0..4),
        ) {
            let whole = tree.clone();
            let mut forest = Forest::from_tree(tree);
            if chain {
                // A tree too small for every link keeps the links it has.
                let _ = strategies::chain(&mut forest, links);
            } else {
                let root = forest.root_fragment();
                strategies::star(&mut forest, root).unwrap();
            }
            let placement = Placement::one_per_fragment(&forest);
            let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
            let st = &cluster.forest_stats;
            let members: Vec<CompiledQuery> = picks
                .iter()
                .map(|&i| compile(&parse_query(QUERIES[i]).unwrap()))
                .collect();
            let merged = merge_programs(&members).merged().clone();
            let held: HashMap<FragmentId, Triplet> = forest
                .fragment_ids()
                .filter(|f| !missing.contains(&f.0))
                .map(|f| (f, bottom_up(&forest.fragment(f).tree, &merged).triplet))
                .collect();
            for member in &members {
                let proj = member.embedding_into(&merged).expect("members embed");
                let demand = certain_answer(st, member.root(), |f| {
                    held.get(&f).map(|t| (t, Some(proj.as_slice())))
                });
                let mut forced = KleeneRows::new();
                for f in st.postorder() {
                    if let Some(t) = held.get(f) {
                        forced.solve(*f, t, Some(&proj));
                    }
                }
                let whole_rows = forced.value(Var::new(st.root(), VecKind::V, member.root()));
                prop_assert_eq!(demand, whole_rows);
                if held.len() == forest.card() {
                    prop_assert_eq!(demand, Some(centralized_eval(&whole, member)));
                }
            }
        }
    }

    #[test]
    fn query_wire_size_tracks_qlist() {
        let small = compile(&parse_query("[//a]").unwrap());
        let big = compile(&parse_query("[//aaaa/bbbb[cc/text() = \"dddd\"] and //e]").unwrap());
        assert!(query_wire_size(&big) > query_wire_size(&small));
        assert!(query_wire_size(&small) >= small.len());
    }

    #[test]
    fn resolved_triplet_size_is_linear_in_width() {
        // DAG format: 3-byte constant table + three rows of (len + refs).
        assert_eq!(resolved_triplet_wire_size(8), 6 + 3 * 8);
        assert!(resolved_triplet_wire_size(23) > resolved_triplet_wire_size(2));
        // Matches the honest encoding of an actual resolved triplet,
        // across the varint width's one-, two- and three-byte forms.
        for width in [0, 1, 5, 127, 128, 139, 16_383, 16_384] {
            let mut t = Triplet::all_false(width);
            if width > 0 {
                t.dv[width - 1] = parbox_bool::Formula::TRUE;
            }
            assert_eq!(
                resolved_triplet_wire_size(width),
                triplet_dag_wire_size(&t),
                "width {width}"
            );
        }
    }
}
