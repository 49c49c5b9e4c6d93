//! Cost-based planner: equivalence and estimate-accuracy properties.
//!
//! For every generated cluster / query / network-model triple, the
//! strategy the planner chooses returns an answer identical to *all*
//! fixed strategies (and to the centralized oracle); and each
//! strategy's `CostEstimate` matches its measured `RunReport` — visit,
//! message and work counts exactly, traffic within the documented
//! factor, and on a free network the modeled seconds too.

use parbox::core::plan::{measure_resolution_depth, TRAFFIC_ESTIMATE_FACTOR};
use parbox::core::{centralized_eval, choose, plan_run, CostEstimate, PlanContext, Strategy};
use parbox::frag::Placement;
use parbox::net::{Cluster, NetworkModel};
use parbox::query::compile;
use proptest::prelude::*;

mod common;
use common::{fragment_randomly, network_models, query_strategy, tree_strategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Planner-chosen execution agrees with every fixed strategy and
    /// the centralized oracle, under every network model.
    #[test]
    fn planned_answer_equals_all_fixed_executors(
        tree in tree_strategy(),
        query in query_strategy(),
        cuts in proptest::collection::vec(0usize..1000, 0..6),
        model_idx in 0usize..3,
    ) {
        let (model_name, model) = network_models()[model_idx];
        let expected = centralized_eval(&tree, &compile(&query));
        let forest = fragment_randomly(tree, &cuts);
        let placement = Placement::round_robin(&forest, 3);
        let cluster = Cluster::new(&forest, &placement, model);
        let q = compile(&query);
        let chosen = choose(&Strategy::ALL, &PlanContext::new(&cluster, &q)).run(&cluster, &q);
        prop_assert_eq!(
            chosen.answer, expected,
            "planned {} vs centralized on {} under {}",
            chosen.algorithm, &query, model_name
        );
        let planned = chosen.report.planned.as_ref().expect("summary recorded");
        prop_assert_eq!(planned.candidates, 5);
        prop_assert_eq!(planned.strategy.as_str(), chosen.algorithm);
        for s in Strategy::ALL {
            prop_assert_eq!(
                s.run(&cluster, &q).answer, expected,
                "{} vs centralized on {} under {}", s.name(), &query, model_name
            );
        }
    }

    /// Estimate-vs-measured agreement on arbitrary workloads, for all
    /// five strategies (LazyParBoX planned at its measured resolution
    /// depth): visits, messages and work units exactly; total traffic
    /// within the documented factor; and on a free network
    /// (`NetworkModel::infinite`), where only work is charged, the
    /// modeled seconds.
    #[test]
    fn estimates_match_measured_reports(
        tree in tree_strategy(),
        query in query_strategy(),
        cuts in proptest::collection::vec(0usize..1000, 0..6),
        model_idx in 0usize..3,
    ) {
        let (_, model) = network_models()[model_idx];
        let forest = fragment_randomly(tree, &cuts);
        let placement = Placement::round_robin(&forest, 3);
        let cluster = Cluster::new(&forest, &placement, model);
        let free = Cluster::new(&forest, &placement, NetworkModel::infinite());
        let q = compile(&query);
        let depth = measure_resolution_depth(&cluster, &q);
        let mut cx = PlanContext::new(&cluster, &q);
        cx.resolve_depth_hint = Some(depth);
        let mut free_cx = PlanContext::new(&free, &q);
        free_cx.resolve_depth_hint = Some(depth);
        for s in Strategy::ALL {
            let est = s.estimate(&cx);
            let measured = CostEstimate::of(&s.run(&cluster, &q).report);
            prop_assert_eq!(est.visits, measured.visits, "{} visits", s.name());
            prop_assert_eq!(est.messages, measured.messages, "{} messages", s.name());
            prop_assert_eq!(est.work_units, measured.work_units, "{} work", s.name());
            prop_assert!(
                est.traffic_bytes <= measured.traffic_bytes.max(1) * TRAFFIC_ESTIMATE_FACTOR
                    && measured.traffic_bytes <= est.traffic_bytes.max(1) * TRAFFIC_ESTIMATE_FACTOR,
                "{}: traffic {} vs measured {} on {}",
                s.name(), est.traffic_bytes, measured.traffic_bytes, &query
            );
            let (est, charged) = (s.estimate(&free_cx), s.run(&free, &q).report);
            prop_assert!(
                (est.modeled_s - charged.elapsed_model_s).abs() < 1e-12,
                "{}: modeled {} vs charged {} on {}",
                s.name(), est.modeled_s, charged.elapsed_model_s, &query
            );
        }
    }
}

/// `plan_run` is the one-call adaptive path the CLI uses: it must agree
/// with the centralized answer and stamp the plan into the report.
#[test]
fn plan_run_smoke() {
    let tree = parbox::xml::Tree::parse(
        "<site><item><name>widget</name></item><person><name>ada</name></person></site>",
    )
    .unwrap();
    let expected = centralized_eval(
        &tree,
        &compile(&parbox::query::parse_query("[//item and //person]").unwrap()),
    );
    let forest = fragment_randomly(tree, &[3, 7]);
    let placement = Placement::round_robin(&forest, 2);
    for (_, model) in network_models() {
        let cluster = Cluster::new(&forest, &placement, model);
        let q = compile(&parbox::query::parse_query("[//item and //person]").unwrap());
        let out = plan_run(&cluster, &q);
        assert_eq!(out.answer, expected);
        assert!(out.report.planned.is_some());
    }
}
