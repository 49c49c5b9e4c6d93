//! Resident serving engine: equivalence and cache-consistency
//! properties.
//!
//! The acceptance bar for the engine is behavioural equivalence with the
//! one-shot algorithms *at every step of a mixed query/update stream*:
//! with admission batching, two levels of triplet caching and update
//! invalidation all enabled, every answer must equal what one-shot
//! ParBoX computes on the materialized forest at that moment.

use parbox::core::plan::TRAFFIC_ESTIMATE_FACTOR;
use parbox::core::{parbox, Completeness, Engine, EngineConfig, Ticket, Update};
use parbox::frag::Placement;
use parbox::net::{Cluster, FaultPlan, FaultRates, MessageKind, NetworkModel, SupervisorConfig};
use parbox::query::{compile, Query};
use parbox::xml::{FragmentId, NodeId};
use proptest::prelude::*;
use std::time::Duration;

mod common;
use common::{fragment_randomly, network_models, query_strategy, tree_strategy};

fn engine_of(forest: parbox::frag::Forest, model: NetworkModel) -> Engine {
    let placement = Placement::round_robin(&forest, 3);
    let config = EngineConfig {
        model,
        ..EngineConfig::default()
    };
    Engine::new(forest, placement, config).expect("round-robin placement covers the forest")
}

fn oracle(engine: &Engine, q: &Query) -> bool {
    let cluster = Cluster::new(engine.forest(), engine.placement(), *engine.model());
    parbox(&cluster, &compile(q)).answer
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Engine answers equal one-shot ParBoX, for every network model,
    /// with every query issued twice so the second pass exercises the
    /// fully cached path.
    #[test]
    fn engine_matches_parbox_with_caching(
        tree in tree_strategy(),
        queries in proptest::collection::vec(query_strategy(), 1..5),
        cuts in proptest::collection::vec(0usize..1000, 0..5),
        model_idx in 0usize..3,
    ) {
        let (_, model) = network_models()[model_idx];
        let forest = fragment_randomly(tree, &cuts);
        let mut engine = engine_of(forest, model);
        for q in &queries {
            let expected = oracle(&engine, q);
            let first = engine.query(q);
            prop_assert_eq!(first.answer, Some(expected), "first pass of {}", q);
            let second = engine.query(q);
            prop_assert_eq!(second.answer, Some(expected), "cached pass of {}", q);
            prop_assert!(second.from_cache, "repeat of {} must hit the cache", q);
            // The cache guarantee: a repeated query moves zero data-plane
            // bytes and triggers no triplet/envelope messages at all.
            prop_assert_eq!(second.report.data_plane_bytes(), 0);
            prop_assert_eq!(second.report.bytes_of_kind(MessageKind::Triplet), 0);
            prop_assert_eq!(second.report.max_visits(), 0);
        }
    }

    /// A whole admission round coalesces into at most one visit per
    /// site — the batch-engine guarantee survives the resident
    /// substrate.
    #[test]
    fn admission_round_visits_each_site_at_most_once(
        tree in tree_strategy(),
        queries in proptest::collection::vec(query_strategy(), 1..6),
        cuts in proptest::collection::vec(0usize..1000, 0..5),
    ) {
        let forest = fragment_randomly(tree, &cuts);
        let mut engine = engine_of(forest, NetworkModel::lan());
        let expected: Vec<bool> = queries.iter().map(|q| oracle(&engine, q)).collect();
        for q in &queries {
            engine.submit(q);
        }
        let out = engine.flush().expect("queries pending");
        prop_assert!(out.report.max_visits() <= 1, "visits: {}", out.report.max_visits());
        for (i, &(_, answer)) in out.answers.iter().enumerate() {
            prop_assert_eq!(answer, expected[i], "member {}: {}", i, &queries[i]);
        }
    }

    /// Chaos satellite, inert direction: an engine built with an
    /// *explicit* zero-fault `FaultPlan` and supervisor answers exactly
    /// like the plain engine and the centralized oracle — every answer
    /// `Complete`, zero timeouts/retries/restarts/partials.
    #[test]
    fn zero_fault_plan_is_observationally_inert(
        tree in tree_strategy(),
        queries in proptest::collection::vec(query_strategy(), 1..4),
        cuts in proptest::collection::vec(0usize..1000, 0..4),
    ) {
        let model = NetworkModel::lan();
        let mut plain = engine_of(fragment_randomly(tree.clone(), &cuts), model);
        let forest = fragment_randomly(tree, &cuts);
        let placement = Placement::round_robin(&forest, 3);
        let config = EngineConfig {
            model,
            fault_plan: FaultPlan::none(),
            supervisor: Some(SupervisorConfig::from_model(&model)),
            ..EngineConfig::default()
        };
        let mut armed = Engine::new(forest, placement, config).unwrap();
        for q in &queries {
            let expected = oracle(&plain, q);
            prop_assert_eq!(plain.query(q).answer, Some(expected), "plain: {}", q);
            let out = armed.query(q);
            prop_assert_eq!(out.answer, Some(expected), "zero-fault: {}", q);
            prop_assert!(out.completeness.is_complete(), "{} must be Complete", q);
            prop_assert!(out.report.faults.is_none(), "{} reported faults", q);
        }
        let stats = armed.stats();
        prop_assert_eq!(
            stats.timeouts + stats.retries + stats.restarts + stats.partial_answers,
            0,
            "zero-fault engine counted supervision events"
        );
    }
}

proptest! {
    // Each case can burn several supervision deadlines, so fewer cases
    // than the equivalence suite above.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chaos satellite, armed direction: under a *random* fault
    /// schedule (seed and rate both generated), an answer marked
    /// `Complete` never disagrees with the oracle, and a `Partial`
    /// ticket has no answer and names the sites that stayed down. In an
    /// admission round, every ticket is answered or `Partial`, once.
    /// Once the plan disarms, the same engine (no process restart)
    /// recovers to all-`Complete`, all-correct answers.
    #[test]
    fn complete_answers_never_lie_under_random_faults(
        tree in tree_strategy(),
        queries in proptest::collection::vec(query_strategy(), 1..4),
        cuts in proptest::collection::vec(0usize..1000, 0..4),
        fault_seed in any::<u64>(),
        rate_pct in 1u32..35,
    ) {
        let forest = fragment_randomly(tree, &cuts);
        let model = NetworkModel::lan();
        let placement = Placement::round_robin(&forest, 3);
        let plan = FaultPlan::random(
            fault_seed,
            FaultRates::mixed(f64::from(rate_pct) / 100.0),
            Duration::from_millis(50),
        );
        let config = EngineConfig {
            model,
            fault_plan: plan.clone(),
            supervisor: Some(SupervisorConfig {
                deadline: Duration::from_millis(20),
                max_attempts: 4,
                restart_after_timeouts: 1,
                backoff_base: Duration::from_millis(1),
                jitter_seed: fault_seed,
            }),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(forest, placement, config).unwrap();
        for q in &queries {
            let expected = oracle(&engine, q);
            let out = engine.query(q);
            if out.completeness.is_complete() {
                prop_assert_eq!(out.answer, Some(expected), "Complete answer lied: {}", q);
            }
            if let Completeness::Partial { missing_sites } = &out.completeness {
                prop_assert_eq!(out.answer, None, "Partial with an answer: {}", q);
                prop_assert!(!missing_sites.is_empty(), "Partial names no site: {}", q);
            }
        }
        // The same queries as one admission round, still under faults.
        let expected: Vec<bool> = queries.iter().map(|q| oracle(&engine, q)).collect();
        let tickets: Vec<Ticket> = queries.iter().map(|q| engine.submit(q)).collect();
        let round = engine.flush().expect("queries pending");
        prop_assert_eq!(round.answers.len() + round.partial.len(), tickets.len());
        for (t, want) in tickets.iter().zip(&expected) {
            let answered: Vec<bool> = (round.answers.iter())
                .filter(|(u, _)| u == t)
                .map(|&(_, a)| a)
                .collect();
            let missing: Vec<&Vec<_>> = (round.partial.iter())
                .filter(|(u, _)| u == t)
                .map(|(_, m)| m)
                .collect();
            prop_assert_eq!(answered.len() + missing.len(), 1, "{:?} not listed once", t);
            for a in answered {
                prop_assert_eq!(a, *want, "definite answer lied: {:?}", t);
            }
            for m in missing {
                prop_assert!(!m.is_empty(), "Partial {:?} names no site", t);
            }
        }
        plan.disarm();
        for q in &queries {
            let expected = oracle(&engine, q);
            let out = engine.query(q);
            prop_assert!(
                out.completeness.is_complete(),
                "did not recover after disarm: {}", q
            );
            prop_assert_eq!(out.answer, Some(expected), "post-disarm answer: {}", q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A serving round's estimate is its own schedule over predicted
    /// sizes. On every data-plane round of a fault-free stream (fresh
    /// and repeated queries in rounds of 1–4, leaf inserts between
    /// rounds) on a star or a chain, the visits, messages and work units
    /// it predicts are the ones the round charges, its traffic is within
    /// the documented factor, and on a free network so is its modeled
    /// time.
    #[test]
    fn round_estimate_is_the_charged_schedule(
        tree in tree_strategy(),
        chain in proptest::bool::ANY,
        links in 2usize..6,
        sites in 1u32..4,
        queries in proptest::collection::vec(query_strategy(), 1..8),
        rounds in proptest::collection::vec(
            (proptest::collection::vec(0usize..8, 1..5), proptest::option::of(0usize..1000)),
            1..6,
        ),
    ) {
        let mut forest = parbox::frag::Forest::from_tree(tree);
        if chain {
            // A tree too small for every link keeps the links it has.
            let _ = parbox::frag::strategies::chain(&mut forest, links);
        } else {
            let root = forest.root_fragment();
            parbox::frag::strategies::star(&mut forest, root).unwrap();
        }
        let placement = Placement::round_robin(&forest, sites);
        for model in [NetworkModel::lan(), NetworkModel::infinite()] {
            let config = EngineConfig {
                model,
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(forest.clone(), placement.clone(), config).unwrap();
            for (picks, insert) in &rounds {
                if let Some(seed) = insert {
                    engine.apply(leaf_insert(&engine, *seed)).unwrap();
                }
                for &i in picks {
                    engine.submit(&queries[i % queries.len()]);
                }
                let out = engine.flush().expect("queries pending");
                prop_assert!(out.partial.is_empty());
                let Some(planned) = &out.report.planned else {
                    continue;
                };
                let (est, report) = (planned.estimate, &out.report);
                prop_assert_eq!(est.visits, report.total_visits());
                prop_assert_eq!(est.messages, report.total_messages());
                prop_assert_eq!(est.work_units, report.total_work());
                let measured = report.total_bytes();
                prop_assert!(
                    est.traffic_bytes <= measured * TRAFFIC_ESTIMATE_FACTOR
                        && measured <= est.traffic_bytes * TRAFFIC_ESTIMATE_FACTOR,
                    "traffic estimate {} vs measured {}",
                    est.traffic_bytes,
                    measured
                );
                if model == NetworkModel::infinite() {
                    let charged = report.elapsed_model_s;
                    prop_assert!(
                        (est.modeled_s - charged).abs() < 1e-12,
                        "modeled {} vs charged {}",
                        est.modeled_s,
                        charged
                    );
                }
            }
        }
    }
}

/// A leaf insert under a non-virtual node of some fragment, picked by
/// `seed`.
fn leaf_insert(engine: &Engine, seed: usize) -> Update {
    let frags: Vec<FragmentId> = engine.forest().fragment_ids().collect();
    let frag = frags[seed % frags.len()];
    let tree = &engine.forest().fragment(frag).tree;
    let nodes: Vec<NodeId> = tree
        .descendants(tree.root())
        .filter(|&n| !tree.node(n).kind.is_virtual())
        .collect();
    Update::InsNode {
        frag,
        parent: nodes[seed / 7 % nodes.len()],
        label: "b".into(),
        text: None,
    }
}

/// The ISSUE acceptance property: a long random stream of interleaved
/// queries and Section-5 updates, with caching enabled throughout —
/// after *every* step the engine's answers equal one-shot ParBoX on the
/// materialized forest.
#[test]
fn engine_equivalent_to_oneshot_after_every_update_step() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let tree = parbox::xml::Tree::parse(
        "<r><a><x>1</x><pad/></a><b><y>2</y><pad/></b><c><z>3</z></c></r>",
    )
    .unwrap();
    let mut forest = parbox::frag::Forest::from_tree(tree);
    let root = forest.root_fragment();
    parbox::frag::strategies::star(&mut forest, root).unwrap();
    let placement = Placement::one_per_fragment(&forest);
    let mut engine = Engine::new(forest, placement, EngineConfig::default()).unwrap();

    let queries: Vec<Query> = [
        "[//x = \"1\" or //goal]",
        "[//goal]",
        "[//y and //pad]",
        "[not //z]",
    ]
    .iter()
    .map(|s| parbox::query::parse_query(s).unwrap())
    .collect();

    let mut rng = StdRng::seed_from_u64(2006);
    for step in 0..60 {
        // One random update against the live forest.
        let frags: Vec<FragmentId> = engine.forest().fragment_ids().collect();
        let frag = frags[rng.random_range(0..frags.len())];
        let update = {
            let tree = &engine.forest().fragment(frag).tree;
            let nodes: Vec<NodeId> = tree
                .descendants(tree.root())
                .filter(|&n| !tree.node(n).kind.is_virtual())
                .collect();
            let node = nodes[rng.random_range(0..nodes.len())];
            match rng.random_range(0..4u32) {
                0 => Update::InsNode {
                    frag,
                    parent: node,
                    label: if rng.random_bool(0.3) {
                        "goal".into()
                    } else {
                        "pad".into()
                    },
                    text: None,
                },
                1 => {
                    if node == tree.root() || !tree.virtual_nodes(node).is_empty() {
                        continue;
                    }
                    Update::DelNode { frag, node }
                }
                2 => {
                    if node == tree.root() || tree.subtree_size(node) < 2 {
                        continue;
                    }
                    Update::SplitFragments {
                        frag,
                        node,
                        to_site: None,
                    }
                }
                _ => {
                    let t = &engine.forest().fragment(frag).tree;
                    match t.virtual_nodes(t.root()).first() {
                        Some(&(vnode, _)) => Update::MergeFragments { frag, node: vnode },
                        None => continue,
                    }
                }
            }
        };
        engine.apply(update).unwrap();
        engine.forest().validate().unwrap();

        // After the update, every query — asked twice, so both the
        // re-evaluation path and the cached path are checked — must
        // match one-shot ParBoX on the materialized forest.
        for q in &queries {
            let expected = oracle(&engine, q);
            assert_eq!(engine.query(q).answer, Some(expected), "step {step}: {q}");
            let cached = engine.query(q);
            assert_eq!(cached.answer, Some(expected), "step {step} (cached): {q}");
            assert!(cached.from_cache, "step {step}: repeat must hit");
        }
    }
}

/// The serving acceptance: a heterogeneous workload (tiny
/// selective + large scan-heavy queries over skewed fragment sizes,
/// interleaved with updates) driven through the engine answers exactly
/// like one-shot ParBoX at every step.
#[test]
fn adaptive_engine_serves_heterogeneous_workload_exactly() {
    use parbox::xmark::{heterogeneous_workload, resolve_update};

    // A skewed deployment: a deep-ish fragmentation of an XMark-like
    // document with very unequal fragment sizes.
    let tree = parbox::xmark::generate(parbox::xmark::XmarkConfig {
        target_bytes: 24 * 1024,
        seed: 41,
    });
    let mut forest = parbox::frag::Forest::from_tree(tree);
    parbox::frag::strategies::fragment_evenly(&mut forest, 7).unwrap();
    let placement = Placement::round_robin(&forest, 3);
    let mut engine = Engine::new(forest, placement, EngineConfig::default()).unwrap();

    let queries = heterogeneous_workload(60, 17);
    let mut update_seed = 900u64;
    for (i, q) in queries.iter().enumerate() {
        // Interleave an occasional update so cache invalidation, stats
        // maintenance and re-planning all stay in the loop.
        if i % 9 == 8 {
            update_seed += 1;
            if let Some(update) = resolve_update(engine.forest(), update_seed) {
                engine.apply(update).unwrap();
                engine.forest().validate().unwrap();
            }
        }
        let expected = oracle(&engine, q);
        let out = engine.query(q);
        assert_eq!(out.answer, Some(expected), "query {i}: {q}");
        // The round records what the planner decided.
        if !out.from_cache {
            let planned = out.report.planned.as_ref().expect("planned round");
            assert!(
                matches!(planned.strategy.as_str(), "ParBoX" | "BatchParBoX"),
                "unexpected round strategy {}",
                planned.strategy
            );
        }
        let again = engine.query(q);
        assert_eq!(again.answer, Some(expected), "cached {i}: {q}");
        assert!(again.from_cache);
        assert_eq!(again.report.data_plane_bytes(), 0);
    }
    // The engine's live statistics stayed equal to a recompute.
    assert_eq!(
        engine.forest_stats(),
        &parbox::frag::ForestStats::compute(engine.forest(), engine.placement())
    );
}

/// The count metrics the benchmark reads, summed over a whole stream.
#[derive(Debug, Default, PartialEq, Eq)]
struct StreamCounts {
    visits: usize,
    messages: usize,
    batch_query_bytes: usize,
    envelope_bytes: usize,
    work: u64,
    fragments_evaluated: usize,
    eager_rounds: usize,
}

/// Drives a seeded stream of admission rounds (1–4 submissions each,
/// some never seen, some repeats, some duplicates within the round) and
/// leaf inserts through `engine`, oracle-checking every answer, checking
/// that every round visits each site at most once, and summing the
/// rounds' counts. `fresh(i)` is the text of the `i`-th
/// never-seen query; `pool` are the recurring ones.
fn drive_counted_stream(
    engine: &mut Engine,
    seed: u64,
    pool: &[&str],
    fresh: impl Fn(usize) -> String,
) -> StreamCounts {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = StreamCounts::default();
    let mut minted = 0usize;
    for step in 0..120 {
        if rng.random_range(0..6u32) == 0 {
            let frags: Vec<FragmentId> = engine.forest().fragment_ids().collect();
            let frag = frags[rng.random_range(0..frags.len())];
            let tree = &engine.forest().fragment(frag).tree;
            let nodes: Vec<NodeId> = tree
                .descendants(tree.root())
                .filter(|&n| !tree.node(n).kind.is_virtual())
                .collect();
            let update = Update::InsNode {
                frag,
                parent: nodes[rng.random_range(0..nodes.len())],
                label: if rng.random_bool(0.2) { "goal" } else { "pad" }.into(),
                text: None,
            };
            engine.apply(update).unwrap();
            continue;
        }
        let queries: Vec<Query> = (0..rng.random_range(1..5usize))
            .map(|_| {
                let text = match rng.random_range(0..10u32) {
                    0..=5 => {
                        minted += 1;
                        fresh(minted)
                    }
                    6 if minted > 0 => fresh(rng.random_range(0..minted) + 1),
                    _ => pool[rng.random_range(0..pool.len())].to_string(),
                };
                parbox::query::parse_query(&text).unwrap()
            })
            .collect();
        let expected: Vec<bool> = queries.iter().map(|q| oracle(engine, q)).collect();
        for q in &queries {
            engine.submit(q);
        }
        let out = engine.flush().expect("queries pending");
        for (i, &(_, answer)) in out.answers.iter().enumerate() {
            assert_eq!(answer, expected[i], "step {step}: {}", queries[i]);
        }
        assert!(out.partial.is_empty(), "step {step}: no fault was injected");
        assert!(
            out.report.max_visits() <= 1,
            "step {step}: a site revisited"
        );
        counts.visits += out.report.total_visits();
        counts.messages += out.report.total_messages();
        counts.batch_query_bytes += out.report.bytes_of_kind(MessageKind::BatchQuery);
        counts.envelope_bytes += out.report.bytes_of_kind(MessageKind::Envelope);
        counts.work += out.report.total_work();
        counts.fragments_evaluated += out.fragments_evaluated;
        match out.report.planned.as_ref().map(|p| p.strategy.as_str()) {
            Some("ParBoX" | "BatchParBoX") => counts.eager_rounds += 1,
            Some(other) => panic!("step {step}: unexpected round strategy {other}"),
            None => assert_eq!(out.members_from_cache, out.members, "step {step}"),
        }
    }
    counts
}

/// Pins what the serving round *counts* — visits, messages, wire bytes
/// by kind, work units, fragments evaluated and data-plane rounds — on
/// two fixed streams, so a change to the round pipeline is shown
/// count-identical by `cargo test`. Most of the chain's fresh queries
/// resolve at the root fragment (`mark0` is in it), which no round
/// exploits: every round ships every fragment some member lacks. The
/// paper's Fig. 1 forest is the flat case.
#[test]
fn serving_round_counts_are_pinned() {
    let mut xml = String::new();
    for i in 0..10 {
        xml.push_str(&format!("<lvl{i}><mark{i}/><pad/>"));
    }
    xml.push_str("<bottom/>");
    for i in (0..10).rev() {
        xml.push_str(&format!("</lvl{i}>"));
    }
    let mut chain = parbox::frag::Forest::from_tree(parbox::xml::Tree::parse(&xml).unwrap());
    parbox::frag::strategies::chain(&mut chain, 5).unwrap();
    let placement = Placement::one_per_fragment(&chain);
    let mut engine = Engine::new(chain, placement, EngineConfig::default()).unwrap();
    let counts = drive_counted_stream(
        &mut engine,
        16,
        &[
            "[//bottom]",
            "[//mark3 and //pad]",
            "[//goal]",
            "[not //mark7]",
        ],
        |i| match i % 4 {
            0 => format!("[//bottom and not //nope{i}]"),
            _ => format!("[//mark0 or //nope{i}]"),
        },
    );
    assert_eq!(
        counts,
        StreamCounts {
            visits: 390,
            messages: 624,
            batch_query_bytes: 25588,
            envelope_bytes: 37137,
            work: 43308,
            fragments_evaluated: 390,
            eager_rounds: 78,
        }
    );

    let tree = parbox::xml::Tree::parse("<r><x><z><A/><A/></z><pad/></x><y><B/></y></r>").unwrap();
    let mut fig1 = parbox::frag::Forest::from_tree(tree);
    let f0 = fig1.root_fragment();
    let find = |forest: &parbox::frag::Forest, frag, label: &str| {
        let t = &forest.fragment(frag).tree;
        t.descendants(t.root())
            .find(|&n| t.label_str(n) == label)
            .unwrap()
    };
    let fx = fig1.split(f0, find(&fig1, f0, "x")).unwrap();
    fig1.split(fx, find(&fig1, fx, "z")).unwrap();
    fig1.split(f0, find(&fig1, f0, "y")).unwrap();
    let placement = Placement::one_per_fragment(&fig1);
    let mut engine = Engine::new(fig1, placement, EngineConfig::default()).unwrap();
    let counts = drive_counted_stream(
        &mut engine,
        17,
        &["[//A and //B]", "[//B and //pad]", "[//x[z/A]]", "[//goal]"],
        |i| format!("[//A and not //n{i}]"),
    );
    assert_eq!(
        counts,
        StreamCounts {
            visits: 336,
            messages: 504,
            batch_query_bytes: 19362,
            envelope_bytes: 21850,
            work: 24101,
            fragments_evaluated: 336,
            eager_rounds: 84,
        }
    );
}
