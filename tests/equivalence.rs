//! Property-based equivalence: for random documents, random
//! fragmentations and random XBL queries, every distributed algorithm
//! must return exactly the centralized evaluator's answer.

use parbox::core::{
    centralized_eval, full_dist_parbox, hybrid_parbox, lazy_parbox, naive_centralized,
    naive_distributed, parbox,
};
use parbox::frag::Placement;
use parbox::net::{Cluster, NetworkModel};
use parbox::query::compile;
use parbox::xml::Tree;
use proptest::prelude::*;

mod common;
use common::{fragment_randomly, network_models, query_strategy, tree_strategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn all_algorithms_match_centralized(
        tree in tree_strategy(),
        query in query_strategy(),
        cuts in proptest::collection::vec(0usize..1000, 0..6),
        n_sites in 1u32..4,
        model_idx in 0usize..3,
    ) {
        let (model_name, model) = network_models()[model_idx];
        let compiled = compile(&query);
        let expected = centralized_eval(&tree, &compiled);

        let forest = fragment_randomly(tree, &cuts);
        forest.validate().expect("valid forest");
        let placement = Placement::round_robin(&forest, n_sites);
        let cluster = Cluster::new(&forest, &placement, model);

        prop_assert_eq!(
            parbox(&cluster, &compiled).answer, expected, "parbox on {}", model_name);
        prop_assert_eq!(
            naive_centralized(&cluster, &compiled).answer, expected,
            "naive central on {}", model_name);
        prop_assert_eq!(
            naive_distributed(&cluster, &compiled).answer, expected,
            "naive dist on {}", model_name);
        prop_assert_eq!(
            hybrid_parbox(&cluster, &compiled).answer, expected, "hybrid on {}", model_name);
        prop_assert_eq!(
            full_dist_parbox(&cluster, &compiled).answer, expected,
            "full dist on {}", model_name);
        prop_assert_eq!(
            lazy_parbox(&cluster, &compiled).answer, expected, "lazy on {}", model_name);
    }

    #[test]
    fn arena_pipeline_matches_seed_representation(
        tree in tree_strategy(),
        query in query_strategy(),
        cuts in proptest::collection::vec(0usize..1000, 0..6),
    ) {
        // The full formula pipeline — `bottomUp` partial evaluation plus
        // the `evalST` solve — run over the hash-consed arena must
        // produce byte-identical resolved triplets (hence answers) to the
        // seed tree representation preserved in `parbox::boolean::reference`.
        use parbox::boolean::reference::{ref_solve, RefTriplet};
        use parbox::boolean::EquationSystem;
        use parbox::core::{bottom_up, bottom_up_reference};
        use std::collections::HashMap;
        use parbox::xml::FragmentId;

        let compiled = compile(&query);
        let forest = fragment_randomly(tree, &cuts);
        forest.validate().expect("valid forest");

        let mut sys = EquationSystem::new();
        let mut seed_triplets: HashMap<FragmentId, RefTriplet> = HashMap::new();
        for f in forest.fragment_ids() {
            let t = &forest.fragment(f).tree;
            let arena_run = bottom_up(t, &compiled);
            let seed_run = bottom_up_reference(t, &compiled);
            prop_assert_eq!(arena_run.work_units, seed_run.work_units);
            sys.insert(f, arena_run.triplet);
            seed_triplets.insert(f, seed_run.triplet);
        }
        let order = forest.postorder();
        let arena_solved = sys.solve(&order).expect("solvable");
        let seed_solved = ref_solve(&seed_triplets, &order).expect("solvable");
        for f in forest.fragment_ids() {
            prop_assert_eq!(
                &arena_solved[&f], &seed_solved[&f],
                "resolved triplet of {} diverged", f
            );
        }
    }

    #[test]
    fn fragmentation_preserves_document(
        tree in tree_strategy(),
        cuts in proptest::collection::vec(0usize..1000, 0..6),
    ) {
        let original = tree.clone();
        let forest = fragment_randomly(tree, &cuts);
        prop_assert!(forest.reassemble().structural_eq(&original));
    }

    #[test]
    fn fragment_serialization_round_trips(
        tree in tree_strategy(),
        cuts in proptest::collection::vec(0usize..1000, 0..4),
    ) {
        // Shipping a fragment = serializing it (virtual nodes included)
        // and parsing at the other end; this must be lossless.
        let forest = fragment_randomly(tree, &cuts);
        for f in forest.fragment_ids() {
            let t = &forest.fragment(f).tree;
            let xml = t.to_xml();
            let back = Tree::parse(&xml).unwrap();
            prop_assert!(t.structural_eq(&back), "fragment {} xml: {}", f, xml);
        }
    }

    #[test]
    fn selection_distributed_matches_centralized(
        tree in tree_strategy(),
        query in query_strategy(),
        cuts in proptest::collection::vec(0usize..1000, 0..5),
        n_sites in 1u32..4,
    ) {
        use parbox::core::{select_centralized, select_distributed};
        use parbox::query::compile_selection;
        // Only path-shaped queries compile for selection; skip the rest.
        let Ok(program) = compile_selection(&query) else {
            return Ok(());
        };
        let whole = tree.clone();
        let central = select_centralized(&whole, &program);
        let forest = fragment_randomly(tree, &cuts);
        let placement = Placement::round_robin(&forest, n_sites);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let distributed = select_distributed(&cluster, &program);
        prop_assert_eq!(distributed.nodes.len(), central.len(), "count for {}", query);
        let mut a: Vec<(String, Option<String>)> = central
            .iter()
            .map(|&n| (
                whole.label_str(n).to_string(),
                whole.node(n).text.as_deref().map(str::to_string),
            ))
            .collect();
        let mut b: Vec<(String, Option<String>)> = distributed
            .nodes
            .iter()
            .map(|&(f, n)| {
                let t = &forest.fragment(f).tree;
                (t.label_str(n).to_string(), t.node(n).text.as_deref().map(str::to_string))
            })
            .collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b, "selected node mismatch for {}", query);
        // Visit guarantee: ≤ 1 (phase 1) + #depth-waves per site.
        for (_, rep) in distributed.report.sites() {
            prop_assert!(rep.visits <= 1 + cluster.source_tree.max_depth() + 1);
        }
    }

    #[test]
    fn aggregation_distributed_matches_centralized(
        tree in tree_strategy(),
        query in query_strategy(),
        cuts in proptest::collection::vec(0usize..1000, 0..5),
        n_sites in 1u32..4,
    ) {
        use parbox::core::{
            count_centralized, count_distributed, sum_centralized, sum_distributed,
        };
        let compiled = compile(&query);
        let whole = tree.clone();
        let forest = fragment_randomly(tree, &cuts);
        let placement = Placement::round_robin(&forest, n_sites);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());

        // COUNT: the distributed count plus one node per virtual-node
        // predicate never drifts — virtual nodes are not counted, so the
        // totals must be exactly equal.
        let count = count_distributed(&cluster, &compiled);
        prop_assert_eq!(
            count.value,
            count_centralized(&whole, &compiled) as f64,
            "count mismatch for {}",
            query
        );
        prop_assert!(count.report.max_visits() <= 1);

        // SUM over numeric text values.
        let sum = sum_distributed(&cluster, &compiled);
        prop_assert_eq!(
            sum.value,
            sum_centralized(&whole, &compiled),
            "sum mismatch for {}",
            query
        );
    }

    #[test]
    fn parbox_visits_each_site_once(
        tree in tree_strategy(),
        query in query_strategy(),
        cuts in proptest::collection::vec(0usize..1000, 0..6),
        n_sites in 1u32..4,
        model_idx in 0usize..3,
    ) {
        let (model_name, model) = network_models()[model_idx];
        let compiled = compile(&query);
        let forest = fragment_randomly(tree, &cuts);
        let placement = Placement::round_robin(&forest, n_sites);
        let cluster = Cluster::new(&forest, &placement, model);
        let out = parbox(&cluster, &compiled);
        prop_assert!(out.report.max_visits() <= 1, "visits under {}", model_name);
    }

    /// The single-visit and traffic guarantees are *behavioural*: the
    /// cost model scales modeled time, never what is sent. Messages and
    /// bytes must be bit-identical across LAN, WAN and free networks.
    #[test]
    fn traffic_is_identical_across_network_models(
        tree in tree_strategy(),
        query in query_strategy(),
        cuts in proptest::collection::vec(0usize..1000, 0..5),
        n_sites in 1u32..4,
    ) {
        let compiled = compile(&query);
        let forest = fragment_randomly(tree, &cuts);
        let placement = Placement::round_robin(&forest, n_sites);
        let mut seen: Option<(usize, usize, bool)> = None;
        for (name, model) in network_models() {
            let cluster = Cluster::new(&forest, &placement, model);
            let out = parbox(&cluster, &compiled);
            let sig = (out.report.total_messages(), out.report.total_bytes(), out.answer);
            match seen {
                None => seen = Some(sig),
                Some(prev) => prop_assert_eq!(prev, sig, "model {} diverged", name),
            }
        }
    }
}
