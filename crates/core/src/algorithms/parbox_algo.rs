//! Algorithm **ParBoX** (paper, Section 3.1, Fig. 3).
//!
//! Three stages:
//!
//! 1. the coordinating site identifies, from the source tree, every site
//!    holding at least one fragment and sends each the whole query;
//! 2. all sites — in parallel — partially evaluate the query over each of
//!    their fragments with `bottomUp`, producing `(V, CV, DV)` triplets of
//!    Boolean formulas, and send them back;
//! 3. the coordinator composes the partial answers by solving the
//!    resulting linear system of Boolean equations (`evalST`) in one
//!    bottom-up pass of the source tree.
//!
//! Guarantees (Section 3.2): each site is visited exactly once; total
//! network traffic is `O(|q| · card(F))`, independent of `|T|`; total
//! computation is `O(|q| (|T| + card(F)))`.

use crate::algorithms::{answer_from_resolved, query_wire_size, EvalOutcome};
use crate::eval::bottom_up;
use parbox_bool::{triplet_dag_wire_size, EquationSystem};
use parbox_net::{run_sites_parallel, Cluster, MessageKind, RunReport, SiteId};
use parbox_query::CompiledQuery;
use parbox_xml::FragmentId;
use std::time::Instant;

/// Evaluates `q` over the cluster with the ParBoX algorithm.
pub fn parbox(cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
    let wall = Instant::now();
    let mut report = RunReport::new();
    let coord = cluster.coordinator();
    let st = &cluster.forest_stats;
    let sites: Vec<SiteId> = st.sites().collect();
    let qsize = query_wire_size(q);

    // Stage 1: one visit per site; ship the query to the remote ones.
    for &s in &sites {
        report.record_visit(s);
        if s != coord {
            report.record_message(coord, s, qsize, MessageKind::Query);
        }
    }

    // Stage 2: parallel partial evaluation of every fragment.
    let runs = run_sites_parallel(&sites, |s| {
        st.fragments_at(s)
            .into_iter()
            .map(|f| (f, bottom_up(&cluster.forest.fragment(f).tree, q)))
            .collect::<Vec<(FragmentId, crate::eval::FragmentRun)>>()
    });

    let mut sys = EquationSystem::new();
    let mut remote_triplet_bytes: Vec<usize> = Vec::new();
    let mut max_compute = 0.0f64;
    for run in runs {
        report.record_compute(run.site, run.elapsed);
        max_compute = max_compute.max(run.elapsed.as_secs_f64());
        for (frag, frun) in run.output {
            report.record_work(run.site, frun.work_units);
            let bytes = triplet_dag_wire_size(&frun.triplet);
            if run.site != coord {
                report.record_message(run.site, coord, bytes, MessageKind::Triplet);
                remote_triplet_bytes.push(bytes);
            }
            sys.insert(frag, frun.triplet);
        }
    }

    // Stage 3: solve the Boolean equation system at the coordinator.
    let solve_start = Instant::now();
    let resolved = sys
        .solve(st.postorder())
        .expect("triplets cover every fragment in bottom-up order");
    let solve_time = solve_start.elapsed();
    report.record_compute(coord, solve_time);
    // The system has O(|q| · card(F)) entries; count its resolution as one
    // work unit per entry (paper: linear-time solve).
    report.record_work(coord, (q.len() * cluster.forest.card()) as u64);

    let answer = answer_from_resolved(&resolved, cluster, q);

    // Modeled elapsed time: query broadcast ∥ → parallel compute → triplet
    // return over the coordinator's shared inbound link → solve.
    let model = &cluster.model;
    let broadcast = if sites.len() > 1 {
        model.transfer_time(qsize)
    } else {
        0.0
    };
    let collect = model.shared_link_time(remote_triplet_bytes.iter().copied());
    report.elapsed_model_s = broadcast + max_compute + collect + solve_time.as_secs_f64();
    report.elapsed_wall_s = wall.elapsed().as_secs_f64();

    EvalOutcome {
        answer,
        report,
        algorithm: "ParBoX",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::centralized::centralized_eval;
    use parbox_frag::{strategies, Forest, Placement};
    use parbox_net::NetworkModel;
    use parbox_query::{compile, parse_query};
    use parbox_xml::Tree;

    fn fig1_forest() -> Forest {
        // Paper Fig. 1(a): R{X{Z{A}}, Y{B}} with A only in Z, B only in Y.
        let tree = Tree::parse("<r><x><z><A/><A/></z><pad/></x><y><B/></y></r>").unwrap();
        let mut forest = Forest::from_tree(tree);
        let f0 = forest.root_fragment();
        let find = |forest: &Forest, frag, label: &str| {
            let t = &forest.fragment(frag).tree;
            t.descendants(t.root())
                .find(|&n| t.label_str(n) == label)
                .unwrap()
        };
        let x = find(&forest, f0, "x");
        let fx = forest.split(f0, x).unwrap();
        let z = find(&forest, fx, "z");
        forest.split(fx, z).unwrap();
        let y = find(&forest, f0, "y");
        forest.split(f0, y).unwrap();
        forest
    }

    #[test]
    fn intro_example_answer_true() {
        let forest = fig1_forest();
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//A and //B]").unwrap());
        let out = parbox(&cluster, &q);
        assert!(out.answer);
        assert_eq!(out.algorithm, "ParBoX");
    }

    #[test]
    fn each_site_visited_exactly_once() {
        let forest = fig1_forest();
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//A and //B]").unwrap());
        let out = parbox(&cluster, &q);
        for (_, site) in out.report.sites() {
            assert_eq!(site.visits, 1);
        }
        assert_eq!(out.report.max_visits(), 1);
    }

    #[test]
    fn one_visit_even_with_many_fragments_per_site() {
        // All four fragments on a single remote-ish setup: 2 sites.
        let forest = fig1_forest();
        let placement = Placement::round_robin(&forest, 2);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//A and //B]").unwrap());
        let out = parbox(&cluster, &q);
        assert!(out.answer);
        assert_eq!(out.report.max_visits(), 1, "S2-style multi-fragment sites");
    }

    #[test]
    fn agrees_with_centralized_oracle() {
        let forest = fig1_forest();
        let whole = forest.reassemble();
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        for src in [
            "[//A]",
            "[//B and //pad]",
            "[//A and not //B]",
            "[//x/z]",
            "[//x[z/A]]",
            "[//z/A and //y/B]",
            "[not(//nothing)]",
            "[*/*]",
        ] {
            let q = compile(&parse_query(src).unwrap());
            let out = parbox(&cluster, &q);
            assert_eq!(out.answer, centralized_eval(&whole, &q), "query {src}");
        }
    }

    #[test]
    fn traffic_independent_of_data_size() {
        // Same fragmentation shape, 10× the data: triplet traffic must not
        // grow (it depends on |q| and card(F) only).
        let q = compile(&parse_query("[//A and //B]").unwrap());

        let small = fig1_forest();
        let placement = Placement::one_per_fragment(&small);
        let bytes_small = {
            let cluster = Cluster::new(&small, &placement, NetworkModel::lan());
            parbox(&cluster, &q).report.total_bytes()
        };

        let tree = {
            let mut xml = String::from("<r><x><z><A/>");
            for i in 0..200 {
                xml.push_str(&format!("<junk{}/>", i % 7));
            }
            xml.push_str("</z></x><y><B/>");
            for _ in 0..200 {
                xml.push_str("<more/>");
            }
            xml.push_str("</y></r>");
            Tree::parse(&xml).unwrap()
        };
        let mut big = Forest::from_tree(tree);
        let root = big.root_fragment();
        strategies::star(&mut big, root).unwrap();
        let placement = Placement::one_per_fragment(&big);
        let bytes_big = {
            let cluster = Cluster::new(&big, &placement, NetworkModel::lan());
            parbox(&cluster, &q).report.total_bytes()
        };
        // Allow the difference driven by card(F) (4 vs 3 fragments) but
        // not by the ~50× node count.
        assert!(
            bytes_big < bytes_small * 3,
            "traffic grew with data: {bytes_small} -> {bytes_big}"
        );
    }

    #[test]
    fn work_comparable_to_centralized() {
        let forest = fig1_forest();
        let whole = forest.reassemble();
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//A and //B]").unwrap());
        let central = crate::eval::centralized_eval_counted(&whole, &q);
        let out = parbox(&cluster, &q);
        let eval_work: u64 = out.report.total_work();
        // Distributed total work = centralized + virtual nodes + solve term.
        let overhead = (3 * q.len() * cluster.forest.card()) as u64 + q.len() as u64 * 4;
        assert!(eval_work >= central.work_units);
        assert!(
            eval_work <= central.work_units + overhead,
            "work {eval_work} vs centralized {} + {overhead}",
            central.work_units
        );
    }

    #[test]
    fn single_fragment_degenerates_gracefully() {
        let tree = Tree::parse("<a><b/></a>").unwrap();
        let forest = Forest::from_tree(tree);
        let placement = Placement::single_site(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//b]").unwrap());
        let out = parbox(&cluster, &q);
        assert!(out.answer);
        assert_eq!(
            out.report.total_messages(),
            0,
            "no remote sites, no traffic"
        );
    }
}
