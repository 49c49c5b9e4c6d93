//! Algorithm **LazyParBoX** (paper, Section 4): evaluate the query in
//! increasing depths of the source tree, stopping as soon as the partial
//! answers collected so far determine the result.
//!
//! The coordinator walks the source tree level by level. At step `i` it
//! requests evaluation of the fragments at depth `i`, collects their
//! triplets, and tries `evalST` over everything gathered so far; only if
//! variables of deeper fragments remain does it perform another step.
//! This trades elapsed time (levels are sequential, and within a step a
//! site evaluates one fragment at a time) for total computation: deep
//! fragments may never be evaluated at all.

use crate::algorithms::{query_wire_size, EvalOutcome};
use crate::eval::bottom_up;
use crate::plan::compute_s;
use parbox_bool::{triplet_dag_wire_size, KleeneRows, Triplet, Var, VecKind};
use parbox_net::{run_sites_parallel, Cluster, MessageKind, RunReport};
use parbox_query::CompiledQuery;
use parbox_xml::FragmentId;
use std::collections::HashMap;
use std::time::Instant;

/// Evaluates `q` with LazyParBoX.
pub fn lazy_parbox(cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
    let wall = Instant::now();
    let mut report = RunReport::new();
    let coord = cluster.coordinator();
    let st = &cluster.forest_stats;
    let qsize = query_wire_size(q);
    let mut gathered: HashMap<FragmentId, Triplet> = HashMap::new();
    let mut model_time = 0.0f64;
    let mut answer: Option<bool> = None;

    for depth in 0..=st.max_depth() {
        let frags = st.fragments_at_depth(depth);
        if frags.is_empty() {
            break;
        }
        // Group this wavefront by site; a site evaluates its fragments of
        // this level sequentially, different sites run in parallel.
        let mut by_site: HashMap<u32, Vec<FragmentId>> = HashMap::new();
        for f in &frags {
            by_site.entry(st.site_of(*f).0).or_default().push(*f);
        }
        let sites: Vec<parbox_net::SiteId> =
            by_site.keys().map(|&s| parbox_net::SiteId(s)).collect();
        for &s in &sites {
            // One visit (and one request message) per fragment at the site
            // for this step — the lazy algorithm's per-step coordination.
            for _ in &by_site[&s.0] {
                report.record_visit(s);
            }
            if s != coord {
                report.record_message(coord, s, qsize, MessageKind::Query);
            }
        }

        let runs = run_sites_parallel(&sites, |s| {
            by_site[&s.0]
                .iter()
                .map(|&f| (f, bottom_up(&cluster.forest.fragment(f).tree, q)))
                .collect::<Vec<_>>()
        });

        let mut step_work = 0u64;
        let mut step_bytes: Vec<usize> = Vec::new();
        for run in runs {
            report.record_compute(run.site, run.elapsed);
            step_work = step_work.max(run.output.iter().map(|(_, r)| r.work_units).sum());
            for (frag, frun) in run.output {
                report.record_work(run.site, frun.work_units);
                let bytes = triplet_dag_wire_size(&frun.triplet);
                if run.site != coord {
                    report.record_message(run.site, coord, bytes, MessageKind::Triplet);
                    step_bytes.push(bytes);
                }
                gathered.insert(frag, frun.triplet);
            }
        }

        // Attempt to answer with what we have.
        let solve_start = Instant::now();
        let maybe = partial_solve(st, &gathered, q.root() as usize);
        report.record_compute(coord, solve_start.elapsed());
        let solve_work = (q.len() * gathered.len()) as u64;
        report.record_work(coord, solve_work);

        if sites.iter().any(|&s| s != coord) {
            model_time += cluster.model.transfer_time(qsize);
        }
        let collect = cluster
            .model
            .shared_link_time(step_bytes.len(), step_bytes.iter().sum());
        model_time += compute_s(step_work) + collect + compute_s(solve_work);

        if let Some(a) = maybe {
            answer = Some(a);
            break;
        }
    }

    report.elapsed_model_s = model_time;
    report.elapsed_wall_s = wall.elapsed().as_secs_f64();
    EvalOutcome {
        answer: answer.expect("full depth always determines the answer"),
        report,
        algorithm: "LazyParBoX",
    }
}

/// Tries to determine the root answer from the triplets gathered so far.
///
/// One three-valued pass ([`KleeneRows`]) over the gathered fragments,
/// bottom-up, with the variables of fragments not gathered unknown: the
/// answer is known iff it holds under every content of those fragments.
fn partial_solve(
    st: &parbox_frag::ForestStats,
    gathered: &HashMap<FragmentId, Triplet>,
    root_sub: usize,
) -> Option<bool> {
    let mut rows = KleeneRows::new();
    for &frag in st.postorder() {
        if let Some(t) = gathered.get(&frag) {
            rows.solve(frag, t, None, 0);
        }
    }
    let root = Var::new(st.root(), VecKind::V, root_sub as u32);
    rows.value(root).map(|k| k.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::parbox;
    use parbox_frag::{strategies, Forest, Placement};
    use parbox_net::NetworkModel;
    use parbox_query::{compile, parse_query};
    use parbox_xml::Tree;

    fn chain_with_markers(n: usize) -> Forest {
        // lvl0 > lvl1 > … ; each level i carries <markI>…</markI>.
        let mut xml = String::new();
        for i in 0..n * 2 {
            xml.push_str(&format!("<lvl{i}><mark{i}/><pad/>", i = i));
        }
        xml.push_str("<bottom/>");
        for i in (0..n * 2).rev() {
            xml.push_str(&format!("</lvl{i}>"));
        }
        let mut forest = Forest::from_tree(Tree::parse(&xml).unwrap());
        strategies::chain(&mut forest, n).unwrap();
        forest
    }

    #[test]
    fn agrees_with_parbox_on_chains() {
        let forest = chain_with_markers(5);
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        for src in [
            "[//mark0]",
            "[//bottom]",
            "[//nope]",
            "[//mark0 and //bottom]",
        ] {
            let q = compile(&parse_query(src).unwrap());
            assert_eq!(
                lazy_parbox(&cluster, &q).answer,
                parbox(&cluster, &q).answer,
                "on {src}"
            );
        }
    }

    #[test]
    fn early_satisfaction_skips_deep_fragments() {
        let forest = chain_with_markers(6);
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        // mark0 lives in the root fragment: one step must suffice.
        let q = compile(&parse_query("[//mark0]").unwrap());
        let lazy = lazy_parbox(&cluster, &q);
        let eager = parbox(&cluster, &q);
        assert!(lazy.answer);
        assert!(
            lazy.report.total_work() < eager.report.total_work(),
            "lazy {} !< eager {}",
            lazy.report.total_work(),
            eager.report.total_work()
        );
        // Only the first wavefront (root + depth-1) was evaluated.
        let visited: usize = lazy.report.sites().map(|(_, r)| r.visits).sum();
        assert!(visited <= 2, "visited {visited} fragments");
    }

    #[test]
    fn negative_answers_can_also_short_circuit() {
        // not(//mark0): mark0 IS present in the root fragment, so after
        // step 0 the answer (false) is already determined.
        let forest = chain_with_markers(5);
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[not //mark0]").unwrap());
        let lazy = lazy_parbox(&cluster, &q);
        assert!(!lazy.answer);
        let visited: usize = lazy.report.sites().map(|(_, r)| r.visits).sum();
        assert!(visited <= 2);
    }

    #[test]
    fn bottom_satisfaction_walks_all_levels() {
        let forest = chain_with_markers(4);
        let card = forest.card();
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//bottom]").unwrap());
        let lazy = lazy_parbox(&cluster, &q);
        assert!(lazy.answer);
        let visited: usize = lazy.report.sites().map(|(_, r)| r.visits).sum();
        assert_eq!(visited, card, "every fragment had to be evaluated");
    }

    #[test]
    fn fragments_below_answering_depth_are_never_evaluated() {
        // A deep chain with one fragment (and one site) per level; each
        // fragment holds two `lvl` levels, so `mark2` lives in F1 at
        // fragment depth 1. The step loop must stop after the depth-1
        // wavefront: every fragment below the answering depth gets no
        // visit, no work and no compute at all.
        let forest = chain_with_markers(6);
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let st = &cluster.forest_stats;
        let q = compile(&parse_query("[//mark2]").unwrap());
        let out = lazy_parbox(&cluster, &q);
        assert!(out.answer);

        let answering_depth = 1usize;
        for frag in forest.fragment_ids() {
            let depth = forest.depth(frag);
            let site = st.site_of(frag);
            let rep = out.report.site(site);
            if depth > answering_depth {
                assert_eq!(rep.visits, 0, "{frag} (depth {depth}) was visited");
                assert_eq!(rep.work_units, 0, "{frag} (depth {depth}) did work");
                assert_eq!(rep.compute_s, 0.0, "{frag} (depth {depth}) computed");
            } else if site != cluster.coordinator() {
                assert_eq!(rep.visits, 1, "{frag} (depth {depth}) missing its visit");
                assert!(rep.work_units > 0, "{frag} (depth {depth}) did no work");
            }
        }
    }

    #[test]
    fn early_termination_work_is_bounded_by_evaluated_wavefronts() {
        // Work units are exactly `nodes × |QList|` per evaluated fragment
        // (plus per-step solve terms); stopping at depth d bounds total
        // work by the nodes of depths ≤ d — far below eager ParBoX's
        // whole-chain evaluation on a long chain.
        let forest = chain_with_markers(6);
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//mark2]").unwrap());
        let lazy = lazy_parbox(&cluster, &q);

        let shallow_nodes: u64 = forest
            .fragment_ids()
            .filter(|&f| forest.depth(f) <= 1)
            .map(|f| forest.fragment(f).len() as u64)
            .sum();
        // Evaluation work of the two evaluated fragments + the per-step
        // solve accounting (|q| × gathered fragments per step, 2 steps).
        let solve_slack = (q.len() * forest.card() * 2) as u64;
        assert!(
            lazy.report.total_work() <= shallow_nodes * q.len() as u64 + solve_slack,
            "lazy work {} exceeds the depth-1 wavefront bound {}",
            lazy.report.total_work(),
            shallow_nodes * q.len() as u64 + solve_slack
        );
        // Strictly below eager ParBoX, which evaluates all six levels.
        let eager = parbox(&cluster, &q);
        assert!(lazy.report.total_work() * 2 < eager.report.total_work());
    }

    #[test]
    fn partial_solve_reports_unknown() {
        let forest = chain_with_markers(3);
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//bottom]").unwrap());
        // Gather only the root fragment's triplet.
        let root = forest.root_fragment();
        let run = crate::eval::bottom_up(&forest.fragment(root).tree, &q);
        let mut gathered = HashMap::new();
        gathered.insert(root, run.triplet);
        assert_eq!(
            partial_solve(&cluster.forest_stats, &gathered, q.root() as usize),
            None
        );
    }
}
