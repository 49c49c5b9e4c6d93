//! Batch equivalence and traffic bounds on the serving engine: one
//! admission round over N queries must answer exactly like per-query
//! ParBoX (and the centralized oracle), visit each site once with one
//! request and one envelope, and keep its traffic within the per-query
//! bound summed over the batch, at every site.

use parbox::core::{centralized_eval, parbox, Engine, EngineConfig, RoundOutcome};
use parbox::frag::{Forest, Placement};
use parbox::net::{Cluster, MessageKind, NetworkModel};
use parbox::query::{compile, parse_query, Query};
use parbox::xml::Tree;
use proptest::prelude::*;

mod common;
use common::{fragment_randomly, query_strategy, tree_strategy};

/// Answers `queries` in one admission round of a freshly deployed engine:
/// one `submit` per query, then `flush`.
fn engine_round(
    forest: &Forest,
    placement: &Placement,
    model: NetworkModel,
    queries: &[Query],
) -> RoundOutcome {
    let config = EngineConfig {
        model,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(forest.clone(), placement.clone(), config)
        .expect("placement covers the forest");
    for q in queries {
        engine.submit(q);
    }
    engine.flush().expect("the batch is pending")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_matches_per_query_parbox_and_centralized(
        tree in tree_strategy(),
        queries in proptest::collection::vec(query_strategy(), 1..6),
        cuts in proptest::collection::vec(0usize..1000, 0..6),
        n_sites in 1u32..4,
    ) {
        let whole = tree.clone();
        let forest = fragment_randomly(tree, &cuts);
        let placement = Placement::round_robin(&forest, n_sites);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());

        let out = engine_round(&forest, &placement, NetworkModel::lan(), &queries);
        prop_assert_eq!(out.answers.len(), queries.len());
        prop_assert!(out.report.max_visits() <= 1, "more than one visit");
        for (i, q) in queries.iter().enumerate() {
            let compiled = compile(q);
            let answer = out.answers[i].1;
            prop_assert_eq!(
                answer,
                centralized_eval(&whole, &compiled),
                "centralized mismatch on member {} = {}", i, q
            );
            prop_assert_eq!(
                answer,
                parbox(&cluster, &compiled).answer,
                "parbox mismatch on member {} = {}", i, q
            );
        }
    }

    #[test]
    fn batch_traffic_within_summed_per_query_bound(
        tree in tree_strategy(),
        queries in proptest::collection::vec(query_strategy(), 2..6),
        cuts in proptest::collection::vec(0usize..1000, 0..6),
        n_sites in 1u32..4,
    ) {
        // The paper bounds per-query traffic by O(|q| · card(F)); the
        // batched round must stay within that bound *summed over the
        // batch* — at every single site, not just in aggregate.
        let forest = fragment_randomly(tree, &cuts);
        let placement = Placement::round_robin(&forest, n_sites);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());

        let batched = engine_round(&forest, &placement, NetworkModel::lan(), &queries);
        let solo: Vec<_> = queries
            .iter()
            .map(|q| parbox(&cluster, &compile(q)))
            .collect();

        for site in cluster.forest_stats.sites() {
            let b = batched.report.site(site);
            let sent: usize = solo.iter().map(|o| o.report.site(site).bytes_sent).sum();
            let recv: usize = solo.iter().map(|o| o.report.site(site).bytes_recv).sum();
            prop_assert!(
                b.bytes_sent <= sent,
                "site {} sent {} batched but {} sequentially", site.0, b.bytes_sent, sent
            );
            prop_assert!(
                b.bytes_recv <= recv,
                "site {} received {} batched but {} sequentially", site.0, b.bytes_recv, recv
            );
        }
        let sequential_total: usize = solo.iter().map(|o| o.report.total_bytes()).sum();
        prop_assert!(batched.report.total_bytes() <= sequential_total);
        // Message count: at most one request + one envelope per site vs
        // that much *per query* sequentially.
        let sites = cluster.forest_stats.site_count();
        prop_assert!(batched.report.total_messages() <= 2 * (sites - 1));
    }
}

/// Runs each of `queries` through per-query ParBoX, checks it answers
/// like the batched `round`, and returns the summed traffic in bytes and
/// the summed simulated network cost in seconds.
fn sequential_cost(cluster: &Cluster<'_>, queries: &[Query], round: &RoundOutcome) -> (usize, f64) {
    let mut bytes = 0usize;
    let mut network_s = 0.0f64;
    for (i, q) in queries.iter().enumerate() {
        let solo = parbox(cluster, &compile(q));
        assert_eq!(solo.answer, round.answers[i].1, "member {i}");
        bytes += solo.report.total_bytes();
        network_s += solo.report.network_cost_s(&cluster.model);
    }
    (bytes, network_s)
}

#[test]
fn xmark_serving_batch_one_visit_and_bounded_traffic() {
    // Deterministic end-to-end check on the default XMark serving
    // workload over an FT1 deployment.
    let scale = parbox_bench::Scale {
        corpus_bytes: 30_000,
        seed: 2006,
    };
    let (forest, placement) = parbox_bench::ft1(scale, 4);
    let model = NetworkModel::lan();
    let cluster = Cluster::new(&forest, &placement, model);
    let queries = parbox::xmark::batch_workload(32, scale.seed);
    let out = engine_round(&forest, &placement, model, &queries);

    assert_eq!(out.report.max_visits(), 1, "one visit per site");
    let (sequential_bytes, sequential_net) = sequential_cost(&cluster, &queries, &out);
    assert!(out.report.total_bytes() < sequential_bytes);
    assert!(
        sequential_net >= 4.0 * out.report.network_cost_s(&model),
        ">= 4x network win at batch 32"
    );
}

#[test]
fn network_saving_grows_with_batch_size() {
    let scale = parbox_bench::Scale {
        corpus_bytes: 30_000,
        seed: 11,
    };
    let (forest, placement) = parbox_bench::ft1(scale, 3);
    let model = NetworkModel::lan();
    let cluster = Cluster::new(&forest, &placement, model);
    let ratio = |n: usize| {
        let queries = parbox::xmark::batch_workload(n, scale.seed);
        let out = engine_round(&forest, &placement, model, &queries);
        let (_, sequential_net) = sequential_cost(&cluster, &queries, &out);
        sequential_net / out.report.network_cost_s(&model).max(1e-12)
    };
    let (one, eight, thirty_two) = (ratio(1), ratio(8), ratio(32));
    assert!(
        thirty_two > eight,
        "batch 32 {thirty_two} vs batch 8 {eight}"
    );
    assert!(eight > one, "batch 8 {eight} vs batch 1 {one}");
}

/// The paper's Fig. 1 document cut into four fragments: the root, `x`,
/// `z` below `x`, and `y`.
fn fig1_forest() -> Forest {
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

fn queries(srcs: &[&str]) -> Vec<Query> {
    srcs.iter().map(|s| parse_query(s).unwrap()).collect()
}

const FIG1_BATCH: [&str; 6] = [
    "[//A and //B]",
    "[//A]",
    "[//B and //pad]",
    "[//x[z/A]]",
    "[//A and not //B]",
    "[not(//nothing)]",
];

#[test]
fn fig1_batch_matches_per_query_parbox_and_centralized() {
    let forest = fig1_forest();
    let whole = forest.reassemble();
    let placement = Placement::one_per_fragment(&forest);
    let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
    let qs = queries(&FIG1_BATCH);
    let out = engine_round(&forest, &placement, NetworkModel::lan(), &qs);
    assert_eq!(out.answers.len(), FIG1_BATCH.len());
    for (i, src) in FIG1_BATCH.iter().enumerate() {
        let compiled = compile(&qs[i]);
        let answer = out.answers[i].1;
        assert_eq!(
            answer,
            parbox(&cluster, &compiled).answer,
            "parbox mismatch on {src}"
        );
        assert_eq!(
            answer,
            centralized_eval(&whole, &compiled),
            "centralized mismatch on {src}"
        );
    }
}

#[test]
fn one_request_and_one_envelope_per_remote_site() {
    let forest = fig1_forest();
    let placement = Placement::one_per_fragment(&forest);
    let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
    let out = engine_round(
        &forest,
        &placement,
        NetworkModel::lan(),
        &queries(&FIG1_BATCH),
    );
    let coordinator = cluster.coordinator();
    for site in cluster.forest_stats.sites() {
        assert_eq!(out.report.site(site).visits, 1, "site {}", site.0);
        if site == coordinator {
            continue;
        }
        let count = |kind, from, to| {
            (out.report.messages.iter())
                .filter(|m| m.kind == kind && m.from == from && m.to == to)
                .count()
        };
        assert_eq!(count(MessageKind::BatchQuery, coordinator, site), 1);
        assert_eq!(count(MessageKind::Envelope, site, coordinator), 1);
    }
    assert_eq!(
        out.report.total_messages(),
        2 * (cluster.forest_stats.site_count() - 1)
    );
}

#[test]
fn multi_fragment_site_still_sends_one_envelope() {
    let forest = fig1_forest();
    let placement = Placement::round_robin(&forest, 2);
    let out = engine_round(
        &forest,
        &placement,
        NetworkModel::lan(),
        &queries(&FIG1_BATCH),
    );
    assert_eq!(out.report.max_visits(), 1);
    assert_eq!(out.report.total_messages(), 2);
    assert!(out.answers[0].1);
}

#[test]
fn single_site_batch_sends_no_messages() {
    let forest = Forest::from_tree(Tree::parse("<a><b/></a>").unwrap());
    let placement = Placement::single_site(&forest);
    let out = engine_round(
        &forest,
        &placement,
        NetworkModel::lan(),
        &queries(&["[//b]", "[//c]"]),
    );
    let answers: Vec<bool> = out.answers.iter().map(|&(_, a)| a).collect();
    assert_eq!(answers, vec![true, false]);
    assert_eq!(out.report.total_messages(), 0);
}
