//! **HybridParBoX** (paper, Section 4) on the cost-based planner
//! ([`crate::plan`]).
//!
//! The paper's hybrid compared `card(F)` against `|T| / |q|` by hand: in
//! the pathological every-node-its-own-fragment decomposition, ParBoX's
//! `O(|q| · card(F))` communication exceeds NaiveCentralized's
//! `O(|T|)`, so the hybrid switched to shipping the document. The
//! planner generalizes that tipping point to a full cost model (bytes,
//! rounds, latency, parallel compute); [`hybrid_parbox`] is its two-way
//! instance ([`Planner::hybrid`]). A regression test below pins that the
//! planner agrees with the paper's rule on its two documented cases.

use crate::algorithms::EvalOutcome;
use crate::plan::{PlanContext, Planner};
use parbox_frag::ForestStats;
use parbox_net::Cluster;
use parbox_query::CompiledQuery;

/// Evaluates `q` with whichever of ParBoX / NaiveCentralized the two-way
/// planner predicts cheaper — the planner-backed form of the paper's
/// `card(F) ≷ |T| / |q|` tipping point.
pub fn hybrid_parbox(cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
    let stats = ForestStats::compute(cluster.forest, cluster.placement);
    let cx = PlanContext::new(cluster, q, &stats);
    let planner = Planner::hybrid();
    let choice = planner.choose(&cx);
    let mut out = choice.execute(cluster, q);
    out.algorithm = if choice.summary.strategy == "ParBoX" {
        "HybridParBoX→ParBoX"
    } else {
        "HybridParBoX→NaiveCentralized"
    };
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{naive_centralized, parbox};
    use parbox_frag::{strategies, Forest, Placement};
    use parbox_net::NetworkModel;
    use parbox_query::{compile, parse_query};
    use parbox_xml::Tree;

    /// A flat document of `n` tiny sections — a few dozen bytes each,
    /// smaller than their own triplets: the regime where shipping the
    /// document wins.
    fn flat_tree(n: usize) -> Tree {
        let mut xml = String::from("<r>");
        for i in 0..n {
            xml.push_str(&format!("<s{i}><a>v</a><b/></s{i}>", i = i % 50));
        }
        xml.push_str("<goal/></r>");
        Tree::parse(&xml).unwrap()
    }

    /// Documented case 1: a coarse decomposition — four heavy grouped
    /// fragments carrying realistic text payloads (the paper's MB-scale
    /// regime: shipping costs real bytes, triplets stay `O(|q|)`).
    fn coarse_case() -> (Forest, Placement) {
        let pad = "a realistic row of document text payload standing in \
                   for the paper's megabyte-scale XMark content";
        let mut xml = String::from("<r>");
        for g in 0..4 {
            xml.push_str(&format!("<g{g}>"));
            for i in 0..25 {
                xml.push_str(&format!("<s{i}><a>v {pad}</a><b/></s{i}>"));
            }
            xml.push_str(&format!("</g{g}>"));
        }
        xml.push_str("<goal/></r>");
        let mut forest = Forest::from_tree(Tree::parse(&xml).unwrap());
        let root = forest.root_fragment();
        strategies::star(&mut forest, root).unwrap();
        let placement = Placement::one_per_fragment(&forest);
        (forest, placement)
    }

    /// Documented case 2: the pathological decomposition — every few
    /// nodes their own fragment, `card(F) · |q| ≥ |T|`.
    fn pathological_case() -> (Forest, Placement) {
        let mut forest = Forest::from_tree(flat_tree(12));
        strategies::fragment_evenly(&mut forest, 12).unwrap();
        let placement = Placement::one_per_fragment(&forest);
        (forest, placement)
    }

    /// Whether the two-way planner picks ParBoX.
    fn prefers_parbox(cluster: &Cluster<'_>, q: &CompiledQuery) -> bool {
        let stats = ForestStats::compute(cluster.forest, cluster.placement);
        let cx = PlanContext::new(cluster, q, &stats);
        Planner::hybrid().choose(&cx).summary.strategy == "ParBoX"
    }

    const COARSE_QUERY: &str = "[//goal]";
    const PATHOLOGICAL_QUERY: &str = "[//goal and //b and //s0 and //s1 and //s2 and //s3]";

    #[test]
    fn coarse_decomposition_uses_parbox() {
        let (forest, placement) = coarse_case();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query(COARSE_QUERY).unwrap());
        assert!(prefers_parbox(&cluster, &q));
        let out = hybrid_parbox(&cluster, &q);
        assert!(out.answer);
        assert_eq!(out.algorithm, "HybridParBoX\u{2192}ParBoX");
        assert_eq!(
            out.report.planned.as_ref().unwrap().strategy,
            "ParBoX",
            "the report records the planner's decision"
        );
    }

    #[test]
    fn pathological_decomposition_switches_to_naive() {
        let (forest, placement) = pathological_case();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query(PATHOLOGICAL_QUERY).unwrap());
        assert!(!prefers_parbox(&cluster, &q));
        let out = hybrid_parbox(&cluster, &q);
        assert!(out.answer);
        assert_eq!(out.algorithm, "HybridParBoX\u{2192}NaiveCentralized");
    }

    /// The planner and the paper's `card(F) \u{2277} |T| / |q|` rule agree
    /// on the rule's two documented cases.
    #[test]
    fn planner_agrees_with_the_papers_tipping_point_on_documented_cases() {
        for (label, (forest, placement), src) in [
            ("coarse", coarse_case(), COARSE_QUERY),
            ("pathological", pathological_case(), PATHOLOGICAL_QUERY),
        ] {
            let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
            let q = compile(&parse_query(src).unwrap());
            let paper_rule = cluster.forest.card() * q.len() < cluster.forest.total_nodes();
            assert_eq!(
                prefers_parbox(&cluster, &q),
                paper_rule,
                "planner vs the paper's rule on the {label} case"
            );
        }
    }

    #[test]
    fn both_branches_agree_with_each_other() {
        let mut forest = Forest::from_tree(flat_tree(40));
        strategies::fragment_evenly(&mut forest, 6).unwrap();
        let placement = Placement::round_robin(&forest, 3);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        for src in ["[//goal]", "[//b]", "[//zzz]"] {
            let q = compile(&parse_query(src).unwrap());
            assert_eq!(
                parbox(&cluster, &q).answer,
                naive_centralized(&cluster, &q).answer,
                "on {src}"
            );
            assert_eq!(
                hybrid_parbox(&cluster, &q).answer,
                parbox(&cluster, &q).answer
            );
        }
    }
}
