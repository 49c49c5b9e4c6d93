//! Algorithm **FullDistParBoX** (paper, Section 4): ParBoX with the third
//! phase distributed over the participating sites.
//!
//! Every site holds a copy of the (small) source tree. After the parallel
//! partial-evaluation phase, resolution proceeds bottom-up *in the
//! network*: the site of a leaf fragment sends its (closed) triplet to
//! the site of the parent fragment; a site that has received the resolved
//! triplets of all sub-fragments of a local fragment runs `evalST`
//! locally and forwards the — now variable-free — triplet upward. No
//! variables ever cross the network, halving traffic in practice, at the
//! price of visiting a site once per fragment it stores.

use crate::algorithms::{
    query_wire_size, resolved_triplet_wire_size, EvalOutcome, FragmentSize, Sizes,
};
use crate::eval::bottom_up;
use crate::plan::compute_s;
use parbox_bool::{KleeneRows, Var, VecKind};
use parbox_net::{run_sites_parallel, Cluster, MessageKind, RunReport, SiteId};
use parbox_query::CompiledQuery;
use parbox_xml::FragmentId;
use std::collections::HashMap;
use std::time::Instant;

/// Evaluates `q` with FullDistParBoX.
pub fn full_dist_parbox(cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
    let wall = Instant::now();
    let st = &cluster.forest_stats;
    let sites: Vec<SiteId> = st.sites().collect();

    // Stage 2: parallel partial evaluation (identical to ParBoX).
    let runs = run_sites_parallel(&sites, |s| {
        st.fragments_at(s)
            .into_iter()
            .map(|f| (f, bottom_up(&cluster.forest.fragment(f).tree, q)))
            .collect::<Vec<_>>()
    });
    let sizes: Sizes = (runs.iter().flat_map(|run| &run.output))
        .map(|(f, frun)| (*f, FragmentSize::of(frun)))
        .collect();
    let mut report = full_dist_schedule(cluster, q, &sizes);
    let mut open = HashMap::new();
    for run in runs {
        report.record_compute(run.site, run.elapsed);
        open.extend(run.output.into_iter().map(|(f, frun)| (f, frun.triplet)));
    }

    // Stage 3: `evalDistrST` — bottom-up resolution along the source tree.
    let mut resolved = KleeneRows::new();
    for &frag in st.postorder() {
        let start = Instant::now();
        let row = resolved.solve(frag, &open[&frag], None);
        assert!(
            row.iter().all(Option::is_some),
            "children resolved in postorder"
        );
        report.record_compute(st.site_of(frag), start.elapsed());
    }
    let answer = resolved
        .value(Var::new(st.root(), VecKind::V, q.root()))
        .expect("root resolved");
    report.elapsed_wall_s = wall.elapsed().as_secs_f64();
    EvalOutcome {
        answer,
        report,
        algorithm: "FullDistParBoX",
    }
}

/// FullDistParBoX's schedule. Stage 1: the query and the source-tree
/// replica to every remote site. Stage 2: each fragment's work at its
/// site. Stage 3: per fragment in postorder, a visit to its site (a
/// site is visited once per local fragment, Fig. 4: `card(F_Si)`), the
/// resolved triplet of every child stored elsewhere, and one `O(|q|)`
/// substitution step per fragment and child. Modeled time: the
/// broadcast, then the critical path of the climb — a fragment is
/// resolved once its site's parallel phase finished and every child's
/// resolved triplet has arrived.
pub(crate) fn full_dist_schedule(
    cluster: &Cluster<'_>,
    q: &CompiledQuery,
    sizes: &Sizes,
) -> RunReport {
    let mut report = RunReport::new();
    let coord = cluster.coordinator();
    let st = &cluster.forest_stats;
    let model = &cluster.model;
    let query_bytes = query_wire_size(q) + st.byte_size();
    let mut site_done: HashMap<SiteId, f64> = HashMap::new();
    for s in st.sites() {
        if s != coord {
            report.record_message(coord, s, query_bytes, MessageKind::Query);
        }
        let mut site_work = 0;
        for f in st.fragments_at(s) {
            report.record_work(s, sizes[&f].work);
            site_work += sizes[&f].work;
        }
        site_done.insert(s, compute_s(site_work));
    }

    let tri_bytes = resolved_triplet_wire_size(q.len());
    let mut done_at: HashMap<FragmentId, f64> = HashMap::new();
    for &frag in st.postorder() {
        let here = st.site_of(frag);
        report.record_visit(here);
        let mut ready = site_done[&here];
        for child in st.children(frag) {
            let child_site = st.site_of(*child);
            let mut arrival = done_at[child];
            if child_site != here {
                report.record_message(child_site, here, tri_bytes, MessageKind::Triplet);
                arrival += model.transfer_time(tri_bytes);
            }
            ready = ready.max(arrival);
        }
        let step_work = q.len() as u64 * (1 + st.children(frag).len() as u64);
        report.record_work(here, step_work);
        done_at.insert(frag, ready + compute_s(step_work));
    }

    let broadcast = match st.site_count() {
        1 => 0.0,
        _ => model.transfer_time(query_bytes),
    };
    report.elapsed_model_s = broadcast + done_at[&st.root()];
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::parbox;
    use parbox_frag::{strategies, Forest, Placement, SiteId};
    use parbox_net::NetworkModel;
    use parbox_query::{compile, parse_query};
    use parbox_xml::Tree;

    fn chain_forest(n: usize) -> Forest {
        let mut xml = String::new();
        for i in 0..n * 3 {
            xml.push_str(&format!("<lvl{i}><p{}/><q/>", i % 5));
        }
        xml.push_str("<goal>here</goal>");
        for i in (0..n * 3).rev() {
            xml.push_str(&format!("</lvl{i}>"));
        }
        let mut forest = Forest::from_tree(Tree::parse(&xml).unwrap());
        strategies::chain(&mut forest, n).unwrap();
        forest
    }

    #[test]
    fn agrees_with_parbox() {
        let forest = chain_forest(5);
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        for src in [
            "[//goal = \"here\"]",
            "[//lvl0 and //goal]",
            "[//nope]",
            "[not //nope]",
        ] {
            let q = compile(&parse_query(src).unwrap());
            assert_eq!(
                full_dist_parbox(&cluster, &q).answer,
                parbox(&cluster, &q).answer,
                "on {src}"
            );
        }
    }

    #[test]
    fn no_variables_cross_the_network() {
        // Every triplet message has the fixed resolved size.
        let forest = chain_forest(4);
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//goal]").unwrap());
        let out = full_dist_parbox(&cluster, &q);
        let expect = resolved_triplet_wire_size(q.len());
        for m in &out.report.messages {
            if m.kind == MessageKind::Triplet {
                assert_eq!(m.bytes, expect);
            }
        }
    }

    #[test]
    fn triplet_traffic_at_most_parbox() {
        let forest = chain_forest(6);
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//goal or //p1]").unwrap());
        let fd = full_dist_parbox(&cluster, &q);
        let pb = parbox(&cluster, &q);
        assert!(
            fd.report.bytes_of_kind(MessageKind::Triplet)
                <= pb.report.bytes_of_kind(MessageKind::Triplet),
            "fulldist should not ship more triplet bytes than parbox"
        );
    }

    #[test]
    fn visits_once_per_fragment() {
        let forest = chain_forest(4);
        // Two fragments per site.
        let placement = Placement::round_robin(&forest, 2);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//goal]").unwrap());
        let out = full_dist_parbox(&cluster, &q);
        assert_eq!(out.report.site(SiteId(0)).visits, 2);
        assert_eq!(out.report.site(SiteId(1)).visits, 2);
    }
}
