//! The two naive baselines of Section 3.
//!
//! * [`naive_centralized`] ships every fragment to the coordinating site
//!   and runs the optimal centralized algorithm there. Computation is
//!   `O(|q||T|)` but communication is `O(|T|)` — the whole document
//!   crosses the network on every query.
//! * [`naive_distributed`] performs the centralized bottom-up traversal
//!   *distributedly*, passing control between sites along the source
//!   tree. No fragment is shipped, but execution is sequential and a site
//!   is visited once per fragment it stores.

use crate::algorithms::{
    query_wire_size, resolved_triplet_wire_size, EvalOutcome, FragmentSize, Sizes,
};
use crate::eval::{bottom_up, centralized_eval_counted};
use crate::plan::compute_s;
use parbox_bool::{KleeneRows, Var, VecKind};
use parbox_net::{Cluster, MessageKind, RunReport};
use parbox_query::CompiledQuery;
use std::time::Instant;

/// `NaiveCentralized`: collect all fragments at the coordinator, then run
/// the centralized evaluator over the reassembled document.
pub fn naive_centralized(cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
    let wall = Instant::now();
    // Reassemble and evaluate at the coordinator. (Reassembly stands in
    // for receiving + stitching the fragments; only evaluation is
    // charged, transfer is costed by the network model.)
    let whole = cluster.forest.reassemble();
    let eval_start = Instant::now();
    let run = centralized_eval_counted(&whole, q);
    let mut report = naive_centralized_schedule(cluster, run.work_units);
    report.record_compute(cluster.coordinator(), eval_start.elapsed());
    report.elapsed_wall_s = wall.elapsed().as_secs_f64();

    EvalOutcome {
        answer: run.answer,
        report,
        algorithm: "NaiveCentralized",
    }
}

/// NaiveCentralized's schedule: every site visited once, every remote
/// fragment shipped to the coordinator over its shared inbound link,
/// then `work` units of centralized evaluation there.
pub(crate) fn naive_centralized_schedule(cluster: &Cluster<'_>, work: u64) -> RunReport {
    let mut report = RunReport::new();
    let coord = cluster.coordinator();
    let st = &cluster.forest_stats;
    let (mut shipped, mut shipped_bytes) = (0, 0);
    for site in st.sites() {
        report.record_visit(site);
        if site == coord {
            continue;
        }
        for frag in st.fragments_at(site) {
            let bytes = st.fragment(frag).bytes;
            report.record_message(site, coord, bytes, MessageKind::Data);
            shipped += 1;
            shipped_bytes += bytes;
        }
    }
    report.record_work(coord, work);
    report.elapsed_model_s =
        cluster.model.shared_link_time(shipped, shipped_bytes) + compute_s(work);
    report
}

/// `NaiveDistributed`: a distributed bottom-up traversal of the document.
///
/// Control moves along the source tree: a fragment can only be processed
/// after all its sub-fragments have finished (the computation is passed
/// "forth and back"), so execution is fully sequential and a site is
/// visited `card(F_Si)` times. Each finished fragment returns its
/// resolved `O(|q|)` result vectors to the site of its parent fragment.
pub fn naive_distributed(cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
    let wall = Instant::now();
    let st = &cluster.forest_stats;
    let mut resolved = KleeneRows::new();
    let mut sizes = Sizes::new();
    let mut computes = Vec::new();
    for &frag in st.postorder() {
        // Sequential evaluation of this fragment.
        let start = Instant::now();
        let run = bottom_up(&cluster.forest.fragment(frag).tree, q);
        // Children are already resolved: close the triplet immediately.
        let row = resolved.solve(frag, &run.triplet, None);
        assert!(
            row.iter().all(Option::is_some),
            "postorder guarantees children resolved"
        );
        computes.push((st.site_of(frag), start.elapsed()));
        sizes.insert(frag, FragmentSize::of(&run));
    }

    let mut report = naive_distributed_schedule(cluster, q, &sizes);
    for (site, elapsed) in computes {
        report.record_compute(site, elapsed);
    }
    let answer = resolved
        .value(Var::new(st.root(), VecKind::V, q.root()))
        .expect("root resolved");
    report.elapsed_wall_s = wall.elapsed().as_secs_f64();
    EvalOutcome {
        answer,
        report,
        algorithm: "NaiveDistributed",
    }
}

/// NaiveDistributed's schedule, fragment by fragment in postorder: a
/// visit to its site; the query from its parent fragment's site when
/// that is another site; its work; its resolved result vectors back
/// there. Modeled time: all of it in sequence.
pub(crate) fn naive_distributed_schedule(
    cluster: &Cluster<'_>,
    q: &CompiledQuery,
    sizes: &Sizes,
) -> RunReport {
    let mut report = RunReport::new();
    let st = &cluster.forest_stats;
    let model = &cluster.model;
    let qsize = query_wire_size(q);
    let tri_bytes = resolved_triplet_wire_size(q.len());
    for &frag in st.postorder() {
        let here = st.site_of(frag);
        report.record_visit(here);
        let from = st.fragment(frag).parent.map_or(here, |p| st.site_of(p));
        if from != here {
            report.record_message(from, here, qsize, MessageKind::Query);
            report.elapsed_model_s += model.transfer_time(qsize);
        }
        report.record_work(here, sizes[&frag].work);
        report.elapsed_model_s += compute_s(sizes[&frag].work);
        if from != here {
            report.record_message(here, from, tri_bytes, MessageKind::Triplet);
            report.elapsed_model_s += model.transfer_time(tri_bytes);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::parbox;
    use parbox_frag::{Forest, Placement, SiteId};
    use parbox_net::NetworkModel;
    use parbox_query::{compile, parse_query};
    use parbox_xml::Tree;

    /// Fig. 2 shape: F0 ⊃ {F1 ⊃ {F2}, F3}, sites S0, S1, S2={F2,F3}.
    fn fig2() -> (Forest, Placement) {
        // Padding makes fragment byte sizes realistic relative to the
        // O(|q|) triplets (real documents are MBs, triplets are bytes).
        let pad: String = (0..40)
            .map(|i| format!("<pad>row {i} data</pad>"))
            .collect();
        let tree = Tree::parse(&format!(
            "<portfolio>\
               <broker><name>Bache</name><market><title>NYSE</title>{pad}\
                 <stock><code>IBM</code><sell>78</sell></stock></market></broker>\
               <broker2><market2>{pad}<stock><code>GOOG</code><sell>373</sell>{pad}</stock>\
                 </market2></broker2>\
             </portfolio>",
        ))
        .unwrap();
        let mut forest = Forest::from_tree(tree);
        let f0 = forest.root_fragment();
        let find = |forest: &Forest, frag, label: &str| {
            let t = &forest.fragment(frag).tree;
            t.descendants(t.root())
                .find(|&n| t.label_str(n) == label)
                .unwrap()
        };
        let b2 = find(&forest, f0, "broker2");
        let f1 = forest.split(f0, b2).unwrap();
        let stock = find(&forest, f1, "stock");
        let f2 = forest.split(f1, stock).unwrap();
        let market = find(&forest, f0, "market");
        let f3 = forest.split(f0, market).unwrap();

        let mut p = Placement::new();
        p.assign(f0, SiteId(0));
        p.assign(f1, SiteId(1));
        p.assign(f2, SiteId(2));
        p.assign(f3, SiteId(2));
        (forest, p)
    }

    const QUERIES: &[&str] = &[
        "[//stock[code/text() = \"GOOG\" and sell/text() = \"373\"]]",
        "[//stock[code/text() = \"GOOG\" and sell/text() = \"376\"]]",
        "[//broker[name/text() = \"Bache\"]]",
        "[//code = \"IBM\" and //code = \"GOOG\"]",
        "[not(//code = \"MSFT\")]",
        "[/portfolio/broker/market/title = \"NYSE\"]",
    ];

    #[test]
    fn all_three_algorithms_agree() {
        let (forest, placement) = fig2();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        for src in QUERIES {
            let q = compile(&parse_query(src).unwrap());
            let a = naive_centralized(&cluster, &q).answer;
            let b = naive_distributed(&cluster, &q).answer;
            let c = parbox(&cluster, &q).answer;
            assert_eq!(a, b, "naive mismatch on {src}");
            assert_eq!(a, c, "parbox mismatch on {src}");
        }
    }

    #[test]
    fn naive_centralized_ships_the_data() {
        let (forest, placement) = fig2();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//code = \"IBM\"]").unwrap());
        let out = naive_centralized(&cluster, &q);
        let data = out.report.bytes_of_kind(MessageKind::Data);
        // All bytes of the three remote fragments crossed the network.
        let remote: usize = [1u32, 2, 3]
            .iter()
            .map(|&i| forest.fragment(parbox_xml::FragmentId(i)).byte_size())
            .sum();
        assert_eq!(data, remote);
        // ParBoX ships orders of magnitude less.
        let pb = parbox(&cluster, &q).report.total_bytes();
        assert!(pb < data, "parbox {pb} >= naive {data}");
    }

    #[test]
    fn naive_distributed_visits_sites_per_fragment() {
        let (forest, placement) = fig2();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//code = \"IBM\"]").unwrap());
        let out = naive_distributed(&cluster, &q);
        // S2 holds two fragments → visited twice (the paper's complaint).
        assert_eq!(out.report.site(SiteId(2)).visits, 2);
        assert_eq!(out.report.site(SiteId(0)).visits, 1);
        // Work is still O(|q||T|): same as ParBoX's evaluation work.
        let pb = parbox(&cluster, &q);
        let solve_overhead = (q.len() * forest.card()) as u64;
        assert_eq!(
            out.report.total_work() + solve_overhead,
            pb.report.total_work()
        );
    }

    #[test]
    fn naive_distributed_traffic_is_query_sized() {
        let (forest, placement) = fig2();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//code = \"IBM\"]").unwrap());
        let out = naive_distributed(&cluster, &q);
        assert_eq!(out.report.bytes_of_kind(MessageKind::Data), 0);
        // Bounded by O(|q| · card(F)).
        let bound = (query_wire_size(&q) + resolved_triplet_wire_size(q.len())) * forest.card();
        assert!(out.report.total_bytes() <= bound);
    }

    #[test]
    fn naive_centralized_on_local_cluster_has_no_traffic() {
        let (forest, _) = fig2();
        let placement = Placement::single_site(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//code = \"IBM\"]").unwrap());
        let out = naive_centralized(&cluster, &q);
        assert!(out.answer);
        assert_eq!(out.report.total_bytes(), 0);
    }
}
