//! Cost-based planner: equivalence and estimate-accuracy properties.
//!
//! The ISSUE acceptance property: for every generated cluster / query /
//! network-model triple, the strategy the planner chooses returns an
//! answer identical to *all* fixed executors (and to the centralized
//! oracle); and the planner's `CostEstimate` matches the measured
//! `RunReport` — visit and message counts exactly for the
//! deterministic strategies, traffic within the documented factor.

use parbox::core::plan::TRAFFIC_ESTIMATE_FACTOR;
use parbox::core::{centralized_eval, plan_run, PlanContext, Planner};
use parbox::frag::Placement;
use parbox::net::Cluster;
use parbox::query::compile;
use proptest::prelude::*;

mod common;
use common::{fragment_randomly, network_models, query_strategy, tree_strategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Planner-chosen execution agrees with every fixed executor and
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
        let cx = PlanContext::new(&cluster, &q);
        let planner = Planner::standard();
        let chosen = planner.choose(&cx).execute(&cluster, &q);
        prop_assert_eq!(
            chosen.answer, expected,
            "planned {} vs centralized on {} under {}",
            chosen.algorithm, &query, model_name
        );
        let planned = chosen.report.planned.as_ref().expect("summary recorded");
        prop_assert_eq!(planned.candidates, 5);
        prop_assert_eq!(planned.strategy.as_str(), chosen.algorithm);
        for exec in planner.executors() {
            prop_assert_eq!(
                exec.execute(&cluster, &q).answer, expected,
                "{} vs centralized on {} under {}", exec.name(), &query, model_name
            );
        }
    }

    /// Estimate-vs-measured agreement on arbitrary deterministic
    /// workloads: visits, messages and work units are predicted exactly
    /// for ParBoX, FullDistParBoX and both naive baselines; total
    /// traffic stays within the documented factor.
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
        let q = compile(&query);
        let cx = PlanContext::new(&cluster, &q);
        for exec in Planner::standard().executors() {
            let deterministic = matches!(
                exec.name(),
                "ParBoX" | "NaiveCentralized" | "NaiveDistributed" | "FullDistParBoX"
            );
            if !deterministic {
                continue;
            }
            let est = exec.estimate(&cx);
            let out = exec.execute(&cluster, &q);
            prop_assert_eq!(est.visits, out.report.total_visits(), "{} visits", exec.name());
            prop_assert_eq!(est.messages, out.report.total_messages(), "{} messages", exec.name());
            prop_assert_eq!(est.work_units, out.report.total_work(), "{} work", exec.name());
            let measured = out.report.total_bytes();
            prop_assert!(
                est.traffic_bytes <= measured.max(1) * TRAFFIC_ESTIMATE_FACTOR
                    && measured <= est.traffic_bytes.max(1) * TRAFFIC_ESTIMATE_FACTOR,
                "{}: traffic {} vs measured {} on {}",
                exec.name(), est.traffic_bytes, measured, &query
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
