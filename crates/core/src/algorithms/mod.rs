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
pub(crate) use self::parbox_algo::parbox_schedule;

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
/// constant node table plus three rows of `width` node references.
pub fn resolved_triplet_wire_size(width: usize) -> usize {
    let mut t = Triplet::all_false(width);
    if width > 0 {
        // Force both constants into the table (the worst case).
        t.v[0] = parbox_bool::Formula::TRUE;
    }
    triplet_dag_wire_size(&t)
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
/// triplets at hand: one three-valued pass ([`KleeneRows`]) over the
/// source tree, children first, with every fragment `triplet_of` has
/// no triplet for unknown. `Some` when the answer holds under every
/// content of those fragments; `None` when they could flip it.
/// A triplet may come with a projection, to read one member of the
/// merged program it was computed under ([`KleeneRows::solve`]).
pub(crate) fn certain_answer<'t>(
    st: &ForestStats,
    root_sub: SubId,
    triplet_of: impl Fn(FragmentId) -> Option<(&'t Triplet, Option<&'t [SubId]>)>,
) -> Option<bool> {
    let mut rows = KleeneRows::new();
    for &f in st.postorder() {
        if let Some((triplet, proj)) = triplet_of(f) {
            rows.solve(f, triplet, proj);
        }
    }
    rows.value(Var::new(st.root(), VecKind::V, root_sub))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbox_query::{compile, parse_query};

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
        // Matches the honest encoding of an actual resolved triplet.
        let mut t = Triplet::all_false(5);
        t.dv[3] = parbox_bool::Formula::TRUE;
        assert_eq!(resolved_triplet_wire_size(5), triplet_dag_wire_size(&t));
    }
}
