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

use crate::algorithms::{query_wire_size, resolved_triplet_wire_size, EvalOutcome};
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
    let mut report = RunReport::new();
    let coord = cluster.coordinator();

    // Every remote site is visited once and ships its fragments.
    let mut shipped: Vec<usize> = Vec::new();
    let st = &cluster.forest_stats;
    for site in st.sites() {
        report.record_visit(site);
        if site == coord {
            continue;
        }
        for frag in st.fragments_at(site) {
            let bytes = cluster.forest.fragment(frag).byte_size();
            report.record_message(site, coord, bytes, MessageKind::Data);
            shipped.push(bytes);
        }
    }

    // Reassemble and evaluate at the coordinator. (Reassembly stands in
    // for receiving + stitching the fragments; only evaluation is
    // charged, transfer is costed by the network model.)
    let whole = cluster.forest.reassemble();
    let eval_start = Instant::now();
    let run = centralized_eval_counted(&whole, q);
    report.record_compute(coord, eval_start.elapsed());
    report.record_work(coord, run.work_units);

    let ship = cluster
        .model
        .shared_link_time(shipped.len(), shipped.iter().sum());
    report.elapsed_model_s = ship + compute_s(run.work_units);
    report.elapsed_wall_s = wall.elapsed().as_secs_f64();

    EvalOutcome {
        answer: run.answer,
        report,
        algorithm: "NaiveCentralized",
    }
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
    let mut report = RunReport::new();
    let qsize = query_wire_size(q);
    let st = &cluster.forest_stats;
    let mut resolved = KleeneRows::new();
    let mut model_time = 0.0f64;

    for &frag in st.postorder() {
        let here = st.site_of(frag);
        // Control (and the query) arrives from the parent fragment's site.
        report.record_visit(here);
        let from = st.fragment(frag).parent.map_or(here, |p| st.site_of(p));
        if from != here {
            report.record_message(from, here, qsize, MessageKind::Query);
            model_time += cluster.model.transfer_time(qsize);
        }

        // Sequential evaluation of this fragment.
        let start = Instant::now();
        let run = bottom_up(&cluster.forest.fragment(frag).tree, q);
        // Children are already resolved: close the triplet immediately.
        let row = resolved.solve(frag, &run.triplet, None, 0);
        assert!(
            row.iter().all(Option::is_some),
            "postorder guarantees children resolved"
        );
        report.record_compute(here, start.elapsed());
        report.record_work(here, run.work_units);
        model_time += compute_s(run.work_units);

        // Return the resolved result vectors to the parent's site.
        if from != here {
            let bytes = resolved_triplet_wire_size(q.len());
            report.record_message(here, from, bytes, MessageKind::Triplet);
            model_time += cluster.model.transfer_time(bytes);
        }
    }

    let root = cluster.forest.root_fragment();
    let answer = resolved
        .value(Var::new(root, VecKind::V, q.root()))
        .expect("root resolved")
        .value;
    report.elapsed_model_s = model_time;
    report.elapsed_wall_s = wall.elapsed().as_secs_f64();
    EvalOutcome {
        answer,
        report,
        algorithm: "NaiveDistributed",
    }
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
