//! The distributed query-evaluation algorithms of the paper
//! (Sections 3 and 4) plus the naive baselines they are compared against.
//!
//! All algorithms take a [`Cluster`] (fragmented document + placement +
//! network model) and a compiled query, and return an [`EvalOutcome`]:
//! the Boolean answer plus a full [`RunReport`] of visits, messages,
//! traffic, work and modeled/measured elapsed time. The reports are what
//! regenerate the paper's Fig. 4 complexity table and the runtime figures
//! of Section 6.

mod batch;
mod fulldist;
mod hybrid;
mod lazy;
mod naive;
mod parbox_algo;

pub use self::batch::{batch_query_wire_size, run_batch, BatchOutcome};
pub use self::fulldist::full_dist_parbox;
pub use self::hybrid::hybrid_parbox;
pub use self::lazy::lazy_parbox;
pub(crate) use self::lazy::partial_solve;
pub use self::naive::{naive_centralized, naive_distributed};
pub use self::parbox_algo::parbox;

use parbox_bool::{triplet_dag_wire_size, Triplet};
use parbox_net::{Cluster, RunReport};
use parbox_query::{CompiledQuery, SubQuery};

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

/// Convenience: wire size of a (possibly open) triplet in the DAG
/// format the algorithms account traffic in.
pub fn open_triplet_wire_size(t: &Triplet) -> usize {
    triplet_dag_wire_size(t)
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
