//! The experiments of the paper's Section 6 (plus Fig. 4 and the
//! Section 4/5 ablations), each returning the series its figure plots.

use crate::builders::{ft1, ft2_chain, ft3, single_site_split, Scale};
use crate::table::Row;
use parbox_core::plan::{
    measure_resolution_depth, replay_modeled_s, PlanContext, Planner, TRAFFIC_ESTIMATE_FACTOR,
};
use parbox_core::{
    apply_update_to_forest, full_dist_parbox, lazy_parbox, naive_centralized, naive_distributed,
    parbox, plan_run, run_batch, CostEstimate, Engine, EngineConfig, EvalOutcome, MaterializedView,
    Update,
};
use parbox_frag::{Forest, ForestStats, Placement};
use parbox_net::{Cluster, NetworkModel};
use parbox_query::{compile, compile_batch, CompiledQuery};
use parbox_xmark::{
    batch_workload, drive_stream, drive_stream_with, generate, marker_query, mixed_workload,
    query_with_qlist, resolve_data_update, resolve_update, update_heavy_workload, MixedConfig,
    MixedOp, XmarkConfig,
};
use parbox_xml::FragmentId;
use std::time::{Duration, Instant};

fn compile_str(src: &str) -> CompiledQuery {
    parbox_query::compile(&parbox_query::parse_query(src).expect("valid query"))
}

/// Runs one algorithm by name over a cluster. `"Auto"` consults the
/// cost-based planner over all strategies; `"HybridParBoX"` is its
/// two-way ParBoX / NaiveCentralized instance.
pub fn run_algorithm(name: &str, cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
    match name {
        "ParBoX" => parbox(cluster, q),
        "NaiveCentralized" => naive_centralized(cluster, q),
        "NaiveDistributed" => naive_distributed(cluster, q),
        "HybridParBoX" => parbox_core::hybrid_parbox(cluster, q),
        "FullDistParBoX" => full_dist_parbox(cluster, q),
        "LazyParBoX" => lazy_parbox(cluster, q),
        "Auto" => plan_run(cluster, q),
        other => panic!("unknown algorithm {other}"),
    }
}

/// **Experiment 1 / Fig. 7**: ParBoX vs NaiveCentralized on FT1, sweeping
/// 1→`max_machines` machines with a constant-size corpus, `|QList| = 8`.
pub fn experiment1_fig7(scale: Scale, max_machines: usize) -> Vec<Row> {
    let (_, q) = query_with_qlist(8, scale.seed);
    let mut rows = Vec::new();
    for n in 1..=max_machines {
        let (forest, placement) = ft1(scale, n);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        for algo in ["ParBoX", "NaiveCentralized"] {
            let out = run_algorithm(algo, &cluster, &q);
            rows.push(Row::from_outcome(n as f64, algo, &out));
        }
    }
    rows
}

/// **Experiment 1 / Fig. 8**: ParBoX scalability in query size on FT1 —
/// `|QList| ∈ {2, 8, 15, 23}`, 1→`max_machines` machines.
pub fn experiment1_fig8(scale: Scale, max_machines: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for n in 1..=max_machines {
        let (forest, placement) = ft1(scale, n);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        for size in [2usize, 8, 15, 23] {
            let (_, q) = query_with_qlist(size, scale.seed ^ size as u64);
            let out = parbox(&cluster, &q);
            rows.push(Row::from_outcome(n as f64, format!("|QList|={size}"), &out));
        }
    }
    rows
}

/// Which fragment the Experiment 2 query targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `qF0`: satisfied by the root fragment (Fig. 9).
    Root,
    /// `qFn`: satisfied by the deepest fragment (Fig. 10).
    Deepest,
    /// `qF⌈n/2⌉`: satisfied by the middle fragment (Fig. 11).
    Middle,
}

/// **Experiment 2 / Figs. 9–11**: ParBoX vs FullDistParBoX vs LazyParBoX
/// on the FT2 chain, with the query satisfied at a chosen fragment.
pub fn experiment2(scale: Scale, max_machines: usize, target: Target) -> Vec<Row> {
    let mut rows = Vec::new();
    for n in 1..=max_machines {
        let (forest, placement) = ft2_chain(scale, n);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let idx = match target {
            Target::Root => 0,
            Target::Deepest => n - 1,
            Target::Middle => n / 2,
        };
        let q = compile_str(&marker_query(&FragmentId(idx as u32).to_string()));
        for algo in ["ParBoX", "FullDistParBoX", "LazyParBoX"] {
            let out = run_algorithm(algo, &cluster, &q);
            assert!(out.answer, "marker query must hold at iteration {n}");
            rows.push(Row::from_outcome(n as f64, algo, &out));
        }
    }
    rows
}

/// **Experiment 3 / Fig. 12**: scalability in data size on FT3 —
/// `growth_steps` iterations sweep the corpus from its smallest to its
/// largest configuration for `|QList| ∈ {2, 8, 15, 23}`.
pub fn experiment3_fig12(scale: Scale, growth_steps: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for step in 0..growth_steps {
        let growth = step as f64 / (growth_steps.max(2) - 1) as f64;
        let (forest, placement) = ft3(scale, growth);
        let total_mb = forest.total_bytes() as f64;
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        for size in [2usize, 8, 15, 23] {
            let (_, q) = query_with_qlist(size, scale.seed ^ size as u64);
            let out = parbox(&cluster, &q);
            rows.push(Row::from_outcome(total_mb, format!("|QList|={size}"), &out));
        }
    }
    rows
}

/// **Experiment 4 / Fig. 13**: one site, constant corpus, split into
/// 1→`max_fragments` equal fragments — ParBoX runtime must stay flat.
pub fn experiment4_fig13(scale: Scale, max_fragments: usize) -> Vec<Row> {
    let (_, q) = query_with_qlist(8, scale.seed);
    let mut rows = Vec::new();
    for n in 1..=max_fragments {
        let (forest, placement) = single_site_split(scale, n);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let out = parbox(&cluster, &q);
        rows.push(Row::from_outcome(n as f64, "ParBoX", &out));
    }
    rows
}

/// One measured row of Experiment B: the batch engine against the same
/// queries run sequentially through per-query ParBoX.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// Queries in the batch.
    pub batch_size: usize,
    /// `|QList|` of the merged program.
    pub merged_qlist: usize,
    /// Sum of the members' individual `|QList|`s.
    pub summed_qlist: usize,
    /// Maximum visits to any site during the batched round.
    pub batch_max_visits: usize,
    /// Total traffic of the batched round, bytes.
    pub batch_bytes: usize,
    /// Total traffic of the sequential runs, bytes.
    pub sequential_bytes: usize,
    /// Simulated network cost of the batched round, seconds.
    pub batch_network_s: f64,
    /// Simulated network cost of the sequential runs, seconds.
    pub sequential_network_s: f64,
    /// Modeled elapsed time of the batched round, seconds.
    pub batch_model_s: f64,
    /// Summed modeled elapsed time of the sequential runs, seconds.
    pub sequential_model_s: f64,
}

/// **Experiment B**: batched multi-query evaluation vs sequential ParBoX
/// on FT1, for each batch size in `batch_sizes`, over the default XMark
/// serving workload ([`batch_workload`]). Answers are cross-checked
/// member by member.
pub fn expb_batch_vs_sequential(
    scale: Scale,
    machines: usize,
    batch_sizes: &[usize],
) -> Vec<BatchRow> {
    let (forest, placement) = ft1(scale, machines);
    let model = NetworkModel::lan();
    let cluster = Cluster::new(&forest, &placement, model);
    batch_sizes
        .iter()
        .map(|&n| {
            let queries = batch_workload(n, scale.seed);
            let batch = compile_batch(&queries);
            let batched = run_batch(&cluster, &batch);

            let mut sequential_bytes = 0usize;
            let mut sequential_network_s = 0.0f64;
            let mut sequential_model_s = 0.0f64;
            let mut summed_qlist = 0usize;
            for (i, q) in queries.iter().enumerate() {
                let compiled = compile(q);
                summed_qlist += compiled.len();
                let out = parbox(&cluster, &compiled);
                assert_eq!(
                    out.answer, batched.answers[i],
                    "batch/sequential disagreement on member {i} of batch {n}"
                );
                sequential_bytes += out.report.total_bytes();
                sequential_network_s += out.report.network_cost_s(&model);
                sequential_model_s += out.report.elapsed_model_s;
            }

            BatchRow {
                batch_size: n,
                merged_qlist: batch.merged_len(),
                summed_qlist,
                batch_max_visits: batched.report.max_visits(),
                batch_bytes: batched.report.total_bytes(),
                sequential_bytes,
                batch_network_s: batched.report.network_cost_s(&model),
                sequential_network_s,
                batch_model_s: batched.report.elapsed_model_s,
                sequential_model_s,
            }
        })
        .collect()
}

/// Result of Experiment C: one mixed serving workload driven through the
/// resident engine and through spawn-per-query one-shot ParBoX.
#[derive(Debug, Clone)]
pub struct ExpCRow {
    /// Participating sites.
    pub sites: usize,
    /// Operations in the stream (queries + updates).
    pub ops: usize,
    /// Queries answered (both runs, identically).
    pub queries: usize,
    /// Updates that resolved and were applied.
    pub updates_applied: usize,
    /// Wall-clock of the resident-engine run, seconds.
    pub resident_wall_s: f64,
    /// Wall-clock of the spawn-per-query run, seconds.
    pub oneshot_wall_s: f64,
    /// Total simulated traffic of the resident run, bytes.
    pub resident_bytes: usize,
    /// Total simulated traffic of the one-shot run, bytes.
    pub oneshot_bytes: usize,
    /// Admission rounds the resident engine flushed.
    pub rounds: u64,
    /// Members answered purely from the coordinator triplet cache.
    pub members_from_cache: u64,
    /// Per-fragment evaluations the site caches absorbed.
    pub site_cache_hits: u64,
    /// Data-plane bytes (`Triplet`/`Envelope`/`Data`) recorded while
    /// serving a fully cached repeat query — the acceptance criterion
    /// demands exactly 0.
    pub cached_repeat_data_plane_bytes: usize,
}

/// **Experiment C**: the resident serving engine vs spawn-per-query
/// one-shot ParBoX on a mixed query/update stream (~20% repeated queries,
/// interleaved Section-5 updates) over an FT1 deployment of `machines`
/// sites. Both runs see the same stream and must produce identical
/// answers; the one-shot baseline keeps its `Cluster` across queries and
/// rebuilds it only after updates — its per-query cost is the scoped
/// thread spawn per site plus the full re-evaluation the resident
/// engine's caches avoid.
pub fn expc_resident_vs_oneshot(scale: Scale, machines: usize, ops: usize) -> ExpCRow {
    let stream = mixed_workload(MixedConfig::serving(ops, scale.seed));

    // --- Resident engine run -------------------------------------------
    let (forest, placement) = ft1(scale, machines);
    let config = EngineConfig {
        max_batch: 32,
        batch_window: Duration::from_secs(3600), // flush on size or update
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(forest, placement, config).expect("valid deployment");
    let start = Instant::now();
    let resident = drive_stream(&mut engine, &stream);
    let resident_wall_s = start.elapsed().as_secs_f64();
    let stats = engine.stats();

    // The acceptance criterion: a repeated query served entirely from
    // cache moves zero data-plane bytes.
    let repeat = stream
        .iter()
        .find_map(|op| match op {
            MixedOp::Query(q) => Some(q.clone()),
            _ => None,
        })
        .expect("stream contains queries");
    engine.query(&repeat); // warm (or already warm)
    let cached = engine.query(&repeat);
    assert!(cached.from_cache, "repeat query must hit the cache");
    let cached_repeat_data_plane_bytes = cached.report.data_plane_bytes();

    // --- One-shot spawn-per-query run ----------------------------------
    let (mut forest2, mut placement2) = ft1(scale, machines);
    let model = NetworkModel::lan();
    let start = Instant::now();
    let mut oneshot_answers: Vec<bool> = Vec::new();
    let mut oneshot_bytes = 0usize;
    // Segment the stream at updates so the borrow-based cluster can be
    // kept across the queries in between (the strongest one-shot
    // baseline: only thread spawns and re-evaluations are per query).
    let mut i = 0usize;
    while i < stream.len() {
        let segment_end = stream[i..]
            .iter()
            .position(|op| matches!(op, MixedOp::Update { .. }))
            .map(|p| i + p)
            .unwrap_or(stream.len());
        {
            let cluster = Cluster::new(&forest2, &placement2, model);
            for op in &stream[i..segment_end] {
                let MixedOp::Query(q) = op else {
                    unreachable!()
                };
                let out = parbox(&cluster, &compile(q));
                oneshot_answers.push(out.answer);
                oneshot_bytes += out.report.total_bytes();
            }
        }
        if let Some(MixedOp::Update { seed }) = stream.get(segment_end) {
            if let Some(update) = resolve_update(&forest2, *seed) {
                apply_update_to_forest(&mut forest2, &mut placement2, update)
                    .expect("resolved update applies");
            }
        }
        i = segment_end + 1;
    }
    let oneshot_wall_s = start.elapsed().as_secs_f64();

    assert_eq!(
        resident.answers, oneshot_answers,
        "resident and one-shot runs must agree on every answer"
    );

    ExpCRow {
        sites: machines,
        ops,
        queries: resident.answers.len(),
        updates_applied: resident.updates_applied,
        resident_wall_s,
        oneshot_wall_s,
        resident_bytes: resident.bytes,
        oneshot_bytes,
        rounds: stats.rounds,
        members_from_cache: stats.members_from_cache,
        site_cache_hits: stats.site_cache_hits,
        cached_repeat_data_plane_bytes,
    }
}

/// Result of Experiment D: the hash-consed formula arena against the
/// seed tree representation on the formula-path kernel.
#[derive(Debug, Clone)]
pub struct ExpDRow {
    /// Fragments in the wide-fan-out star (root fan-out = fragments − 1).
    pub fragments: usize,
    /// Sites the deployment is spread over.
    pub sites: usize,
    /// `|QList|` of the query.
    pub qlist: usize,
    /// `evalST` solve passes timed after the single partial evaluation
    /// (the serving engine re-solves cached triplets on repeats).
    pub solve_repeats: usize,
    /// Wall-clock of the arena pipeline (bottomUp + solves), seconds.
    pub arena_s: f64,
    /// Wall-clock of the seed pipeline, seconds.
    pub seed_s: f64,
    /// `seed_s / arena_s`.
    pub speedup: f64,
    /// Σ per-fragment triplet bytes in the seed tree wire format.
    pub tree_triplet_bytes: usize,
    /// Σ per-fragment triplet bytes in the DAG wire format.
    pub dag_triplet_bytes: usize,
    /// One all-fragment envelope in the tree wire format, bytes.
    pub envelope_tree_bytes: usize,
    /// The same envelope in the DAG wire format (one shared node table).
    pub envelope_dag_bytes: usize,
}

/// **Experiment D**: the formula-path kernel — `bottomUp` partial
/// evaluation over a wide-fan-out spine fragment plus `solve_repeats`
/// coordinator solves — through the hash-consed arena versus the
/// preserved seed tree representation
/// ([`parbox_core::bottom_up_reference`]). Answers are asserted
/// byte-identical (full resolved triplet maps), and the DAG wire
/// encoding is asserted never larger than the tree encoding on every
/// fragment triplet.
///
/// The star shape is the adversarial case for the seed representation:
/// the root fragment's child-accumulation loop re-flattens a growing
/// n-ary `Or` once per virtual child (`O(fan-out²)` clones), and every
/// solve re-walks the `O(fan-out)`-sized entry trees; the arena buffers
/// operands, interns once, and solves over the memoized DAG.
pub fn expd_formula_arena(
    scale: Scale,
    sites: usize,
    fragments: usize,
    solve_repeats: usize,
) -> ExpDRow {
    use parbox_bool::reference::{ref_solve, RefTriplet};
    use parbox_bool::{
        site_envelope_dag_wire_size, site_envelope_wire_size, triplet_dag_wire_size,
        triplet_wire_size, EquationSystem, Triplet,
    };
    use parbox_core::{bottom_up, bottom_up_reference};
    use std::collections::HashMap;

    // One small XMark document per fragment: content subtrees take the
    // bitset fast path in both pipelines, so the measured difference is
    // the formula kernel at the star's hub.
    let (forest, _) = ft1(
        Scale {
            corpus_bytes: scale.corpus_bytes.max(fragments * 1024),
            seed: scale.seed,
        },
        fragments,
    );
    let placement = Placement::round_robin(&forest, sites as u32);
    placement.validate(&forest).expect("valid placement");
    let (_, q) = query_with_qlist(8, scale.seed);
    let order = forest.postorder();
    let root = forest.root_fragment();

    // --- Arena pipeline ------------------------------------------------
    let start = Instant::now();
    let mut sys = EquationSystem::new();
    for f in forest.fragment_ids() {
        sys.insert(f, bottom_up(&forest.fragment(f).tree, &q).triplet);
    }
    let mut arena_solved = sys.solve(&order).expect("solvable star");
    for _ in 1..solve_repeats.max(1) {
        arena_solved = sys.solve(&order).expect("solvable star");
    }
    let arena_s = start.elapsed().as_secs_f64();

    // --- Seed pipeline -------------------------------------------------
    let start = Instant::now();
    let mut seed_triplets: HashMap<FragmentId, RefTriplet> = HashMap::new();
    for f in forest.fragment_ids() {
        seed_triplets.insert(f, bottom_up_reference(&forest.fragment(f).tree, &q).triplet);
    }
    let mut seed_solved = ref_solve(&seed_triplets, &order).expect("solvable star");
    for _ in 1..solve_repeats.max(1) {
        seed_solved = ref_solve(&seed_triplets, &order).expect("solvable star");
    }
    let seed_s = start.elapsed().as_secs_f64();

    // Byte-identical answers: the full resolved triplet of every
    // fragment, not just the root bit.
    for f in forest.fragment_ids() {
        assert_eq!(
            arena_solved[&f], seed_solved[&f],
            "arena and seed pipelines diverged on fragment {f}"
        );
    }
    assert_eq!(
        arena_solved[&root].v[q.root() as usize],
        seed_solved[&root].v[q.root() as usize]
    );

    // Wire accounting over the arena triplets: the DAG format must never
    // exceed the tree format, per fragment and for the packed envelope.
    let mut tree_triplet_bytes = 0usize;
    let mut dag_triplet_bytes = 0usize;
    let mut entries: Vec<(FragmentId, &Triplet)> = Vec::new();
    for f in forest.fragment_ids() {
        let t = sys.get(f).expect("inserted above");
        let tree_b = triplet_wire_size(t);
        let dag_b = triplet_dag_wire_size(t);
        assert!(
            dag_b <= tree_b,
            "DAG encoding larger than tree on fragment {f}: {dag_b} > {tree_b}"
        );
        tree_triplet_bytes += tree_b;
        dag_triplet_bytes += dag_b;
        entries.push((f, t));
    }
    let envelope_tree_bytes = site_envelope_wire_size(&entries);
    let envelope_dag_bytes = site_envelope_dag_wire_size(&entries);
    assert!(envelope_dag_bytes <= envelope_tree_bytes);

    ExpDRow {
        fragments,
        sites,
        qlist: q.len(),
        solve_repeats: solve_repeats.max(1),
        arena_s,
        seed_s,
        speedup: seed_s / arena_s.max(1e-12),
        tree_triplet_bytes,
        dag_triplet_bytes,
        envelope_tree_bytes,
        envelope_dag_bytes,
    }
}

/// Per-workload wire-byte comparison of Experiment D.
#[derive(Debug, Clone)]
pub struct ExpDWireRow {
    /// Workload label (fragment-tree shape × query).
    pub workload: String,
    /// Fragments in the forest.
    pub fragments: usize,
    /// Σ per-fragment triplet bytes, tree format.
    pub tree_bytes: usize,
    /// Σ per-fragment triplet bytes, DAG format.
    pub dag_bytes: usize,
}

/// **Experiment D, wire sweep**: encodes every fragment triplet of the
/// expA–expC fragment-tree shapes (FT1 star, FT2 chain, FT3 skew) for
/// `|QList| ∈ {8, 23}` in both wire formats, asserting the DAG encoding
/// is never larger than the tree encoding on any triplet.
pub fn expd_dag_bytes_on_workloads(scale: Scale) -> Vec<ExpDWireRow> {
    use parbox_bool::{triplet_dag_wire_size, triplet_wire_size};
    use parbox_core::bottom_up;

    let shapes: Vec<(String, Forest)> = vec![
        ("FT1-star-6".into(), ft1(scale, 6).0),
        ("FT2-chain-6".into(), ft2_chain(scale, 6).0),
        ("FT3-skew".into(), ft3(scale, 0.5).0),
    ];
    let mut rows = Vec::new();
    for (name, forest) in shapes {
        for qlist in [8usize, 23] {
            let (_, q) = query_with_qlist(qlist, scale.seed ^ qlist as u64);
            let mut tree_bytes = 0usize;
            let mut dag_bytes = 0usize;
            for f in forest.fragment_ids() {
                let t = bottom_up(&forest.fragment(f).tree, &q).triplet;
                let tree_b = triplet_wire_size(&t);
                let dag_b = triplet_dag_wire_size(&t);
                assert!(
                    dag_b <= tree_b,
                    "{name} |QList|={qlist}: DAG {dag_b} > tree {tree_b} on {f}"
                );
                tree_bytes += tree_b;
                dag_bytes += dag_b;
            }
            rows.push(ExpDWireRow {
                workload: format!("{name} |QList|={qlist}"),
                fragments: forest.card(),
                tree_bytes,
                dag_bytes,
            });
        }
    }
    rows
}

/// A measured row of the Fig. 4 complexity table.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Maximum visits to any single site.
    pub max_visits: usize,
    /// Total work units.
    pub total_work: u64,
    /// Modeled parallel runtime (seconds).
    pub parallel_s: f64,
    /// Total traffic in bytes.
    pub bytes: usize,
    /// Answer (all algorithms must agree).
    pub answer: bool,
}

/// **Fig. 4**: measures visits, total computation, parallel runtime and
/// communication for all six algorithms on one FT1 deployment.
pub fn fig4_table(scale: Scale, machines: usize) -> Vec<Fig4Row> {
    let (forest, placement) = ft1(scale, machines);
    let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
    let (_, q) = query_with_qlist(8, scale.seed);
    [
        "NaiveCentralized",
        "NaiveDistributed",
        "ParBoX",
        "HybridParBoX",
        "FullDistParBoX",
        "LazyParBoX",
    ]
    .into_iter()
    .map(|algo| {
        let out = run_algorithm(algo, &cluster, &q);
        Fig4Row {
            algorithm: algo,
            max_visits: out.report.max_visits(),
            total_work: out.report.total_work(),
            parallel_s: out.report.elapsed_model_s,
            bytes: out.report.total_bytes(),
            answer: out.answer,
        }
    })
    .collect()
}

/// One row of the Section 5 incremental-maintenance ablation.
#[derive(Debug, Clone)]
pub struct IncrementalRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Incremental maintenance cost (modeled seconds).
    pub incremental_s: f64,
    /// Full ParBoX re-evaluation cost (modeled seconds).
    pub reeval_s: f64,
    /// Maintenance traffic (bytes).
    pub incremental_bytes: usize,
    /// Re-evaluation traffic (bytes).
    pub reeval_bytes: usize,
    /// Sites visited by maintenance.
    pub sites_visited: usize,
}

/// **Section 5**: incremental view maintenance vs full re-evaluation,
/// for relevant and irrelevant updates and for a fragmentation change.
pub fn sec5_incremental(scale: Scale, machines: usize) -> Vec<IncrementalRow> {
    let mut rows = Vec::new();
    for (scenario, update_of) in [
        (
            "irrelevant insert",
            Box::new(|forest: &Forest| {
                let frag = last_fragment(forest);
                let root = forest.fragment(frag).tree.root();
                Update::InsNode {
                    frag,
                    parent: root,
                    label: "noise".into(),
                    text: None,
                }
            }) as Box<dyn Fn(&Forest) -> Update>,
        ),
        (
            "answer-flipping insert",
            Box::new(|forest: &Forest| {
                let frag = last_fragment(forest);
                let root = forest.fragment(frag).tree.root();
                Update::InsNode {
                    frag,
                    parent: root,
                    label: "flip-target".into(),
                    text: Some("now".into()),
                }
            }),
        ),
        (
            "split fragment",
            Box::new(|forest: &Forest| {
                let frag = last_fragment(forest);
                let tree = &forest.fragment(frag).tree;
                let cut = tree
                    .children(tree.root())
                    .find(|&n| tree.subtree_size(n) >= 2 && !tree.node(n).kind.is_virtual())
                    .expect("splittable child");
                Update::SplitFragments {
                    frag,
                    node: cut,
                    to_site: None,
                }
            }),
        ),
    ] {
        let (mut forest, mut placement) = ft1(scale, machines);
        let q = compile_str("[//flip-target = \"now\" or //qmarker[key/text() = \"F0\"]]");
        let (mut view, _) =
            MaterializedView::materialize(&forest, &placement, NetworkModel::lan(), &q);
        let update = update_of(&forest);
        let rep = view
            .apply(&mut forest, &mut placement, update)
            .expect("valid update");
        // Full re-evaluation for comparison.
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let full = parbox(&cluster, &q);
        assert_eq!(view.answer(), full.answer, "view drifted in {scenario}");
        rows.push(IncrementalRow {
            scenario,
            incremental_s: rep.report.elapsed_model_s,
            reeval_s: full.report.elapsed_model_s,
            incremental_bytes: rep.report.total_bytes(),
            reeval_bytes: full.report.total_bytes(),
            sites_visited: rep.report.sites().filter(|(_, r)| r.visits > 0).count(),
        });
    }
    rows
}

fn last_fragment(forest: &Forest) -> FragmentId {
    forest.fragment_ids().last().expect("non-empty forest")
}

/// One cell of Experiment E: a (fragmentation × network × query-shape)
/// point, every fixed strategy measured once under the deterministic
/// replay metric ([`replay_modeled_s`]), and the adaptive planner's
/// choice evaluated on the same runs.
#[derive(Debug, Clone)]
pub struct ExpERow {
    /// Fragmentation shape (`star` / `chain` / `even`).
    pub fragmentation: String,
    /// Network model name (`lan` / `wan` / `infinite`).
    pub network: String,
    /// Query shape (`tiny-selective` / `mid` / `scan-heavy`).
    pub query: String,
    /// `|QList|` of the query.
    pub qlist: usize,
    /// Strategy the planner chose for this cell.
    pub chosen: String,
    /// The chosen strategy's estimate.
    pub estimate: CostEstimate,
    /// Deterministic modeled seconds per fixed strategy.
    pub per_strategy_model_s: Vec<(String, f64)>,
    /// The adaptive planner's modeled time (= the chosen strategy's).
    pub adaptive_model_s: f64,
    /// Best fixed strategy and its modeled time.
    pub best: String,
    /// Modeled seconds of the best fixed strategy.
    pub best_model_s: f64,
    /// Worst fixed strategy and its modeled time.
    pub worst: String,
    /// Modeled seconds of the worst fixed strategy.
    pub worst_model_s: f64,
    /// Measured total visits of the chosen strategy's run.
    pub measured_visits: usize,
    /// Measured total messages of the chosen strategy's run.
    pub measured_messages: usize,
    /// Measured total traffic bytes of the chosen strategy's run.
    pub measured_bytes: usize,
}

/// **Experiment E**: the cost-based planner across query shapes ×
/// fragmentations (FT1 star / FT2 chain / even split) × network models
/// (lan / wan / infinite).
///
/// Per cell, all six fixed strategies run once and are scored with the
/// deterministic replay metric (recorded bytes at the model's rates,
/// estimated latency rounds, work units at the calibrated rate — no
/// wall clock, so the sweep is reproducible). The adaptive planner
/// plans with the cell's observed resolution-depth statistic (what a
/// serving deployment accumulates; [`measure_resolution_depth`]) and
/// its time is the chosen strategy's measured run. Along the way every
/// deterministic strategy's estimate is asserted against its measured
/// report: visit and message counts exactly, traffic within
/// [`TRAFFIC_ESTIMATE_FACTOR`].
pub fn expe_planner(scale: Scale, machines: usize) -> Vec<ExpERow> {
    let even = {
        let tree = generate(XmarkConfig {
            target_bytes: scale.corpus_bytes,
            seed: scale.seed,
        });
        let mut forest = Forest::from_tree(tree);
        parbox_frag::strategies::fragment_evenly(&mut forest, machines)
            .expect("corpus large enough");
        plant_markers(&mut forest);
        let placement = Placement::round_robin(&forest, (machines as u32 / 2).max(2));
        (forest, placement)
    };
    let shapes: Vec<(&str, (Forest, Placement))> = vec![
        ("star", ft1(scale, machines)),
        ("chain", ft2_chain(scale, machines)),
        ("even", even),
    ];
    let networks = [
        ("lan", NetworkModel::lan()),
        ("wan", NetworkModel::wan()),
        ("infinite", NetworkModel::infinite()),
    ];

    let mut rows = Vec::new();
    for (shape, (forest, placement)) in &shapes {
        let stats = ForestStats::compute(forest, placement);
        let queries: Vec<(&str, CompiledQuery)> = vec![
            ("tiny-selective", compile_str(&marker_query("F0"))),
            ("mid", query_with_qlist(8, scale.seed).1),
            ("scan-heavy", query_with_qlist(23, scale.seed ^ 23).1),
        ];
        for (net_name, model) in networks {
            let cluster = Cluster::new(forest, placement, model);
            for (qname, q) in &queries {
                // The workload statistic a serving deployment would have
                // accumulated: at what depth this query resolves.
                let depth = measure_resolution_depth(&cluster, q);
                let mut cx = PlanContext::new(&cluster, q, &stats);
                cx.resolve_depth_hint = Some(depth);
                let planner = Planner::standard();
                let choice = planner.choose(&cx);

                let mut per_strategy: Vec<(String, f64)> = Vec::new();
                let mut chosen_measured = (0usize, 0usize, 0usize);
                let mut answers: Vec<bool> = Vec::new();
                for exec in planner.executors() {
                    let est = exec.estimate(&cx);
                    let out = exec.execute(&cluster, q);
                    answers.push(out.answer);
                    let metric = replay_modeled_s(&out.report, &model, est.rounds);
                    if matches!(
                        exec.name(),
                        "ParBoX" | "NaiveCentralized" | "NaiveDistributed" | "FullDistParBoX"
                    ) {
                        assert_eq!(
                            est.visits,
                            out.report.total_visits(),
                            "{shape}/{net_name}/{qname}: {} visit estimate",
                            exec.name()
                        );
                        assert_eq!(
                            est.messages,
                            out.report.total_messages(),
                            "{shape}/{net_name}/{qname}: {} message estimate",
                            exec.name()
                        );
                        let measured = out.report.total_bytes();
                        assert!(
                            est.traffic_bytes <= measured.max(1) * TRAFFIC_ESTIMATE_FACTOR
                                && measured <= est.traffic_bytes.max(1) * TRAFFIC_ESTIMATE_FACTOR,
                            "{shape}/{net_name}/{qname}: {} traffic estimate {} vs measured {measured}",
                            exec.name(),
                            est.traffic_bytes
                        );
                    }
                    if exec.name() == choice.summary.strategy {
                        chosen_measured = (
                            out.report.total_visits(),
                            out.report.total_messages(),
                            out.report.total_bytes(),
                        );
                    }
                    per_strategy.push((exec.name().to_string(), metric));
                }
                assert!(
                    answers.windows(2).all(|w| w[0] == w[1]),
                    "{shape}/{net_name}/{qname}: strategies disagree"
                );

                let adaptive = per_strategy
                    .iter()
                    .find(|(n, _)| *n == choice.summary.strategy)
                    .expect("chosen strategy was measured")
                    .1;
                let (best, best_s) = per_strategy
                    .iter()
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("strategies measured")
                    .clone();
                let (worst, worst_s) = per_strategy
                    .iter()
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("strategies measured")
                    .clone();
                rows.push(ExpERow {
                    fragmentation: shape.to_string(),
                    network: net_name.to_string(),
                    query: qname.to_string(),
                    qlist: q.len(),
                    chosen: choice.summary.strategy.clone(),
                    estimate: choice.summary.estimate,
                    per_strategy_model_s: per_strategy,
                    adaptive_model_s: adaptive,
                    best,
                    best_model_s: best_s,
                    worst,
                    worst_model_s: worst_s,
                    measured_visits: chosen_measured.0,
                    measured_messages: chosen_measured.1,
                    measured_bytes: chosen_measured.2,
                });
            }
        }
    }
    rows
}

/// Asserts the expE acceptance criteria over a sweep: per cell the
/// adaptive planner is within 10% (plus `slack_s` seconds of
/// model-granularity allowance) of the best fixed strategy, and on at
/// least one cell it beats the worst fixed strategy by ≥ 2×.
pub fn expe_check(rows: &[ExpERow], slack_s: f64) {
    assert!(!rows.is_empty());
    for r in rows {
        assert!(
            r.adaptive_model_s <= 1.1 * r.best_model_s + slack_s,
            "{}/{}/{}: adaptive ({}) {:.6}s worse than 1.1x best ({}) {:.6}s",
            r.fragmentation,
            r.network,
            r.query,
            r.chosen,
            r.adaptive_model_s,
            r.best,
            r.best_model_s
        );
    }
    assert!(
        rows.iter()
            .any(|r| r.worst_model_s >= 2.0 * r.adaptive_model_s.max(1e-12)),
        "no cell shows a 2x adaptive-vs-worst separation"
    );
}

/// **Section 4 ablation**: the Hybrid tipping point — sweep `card(F)`
/// across `|T| / |q|` with single-node-ish fragments and report which
/// branch Hybrid picks and both branches' traffic.
pub fn sec4_hybrid_ablation(scale: Scale, steps: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    let (_, q) = query_with_qlist(15, scale.seed);
    for &n in steps {
        let (forest, _) = ft1(scale, 1);
        // Re-fragment into n pieces, all on distinct sites.
        let mut forest = forest;
        if parbox_frag::strategies::fragment_evenly(&mut forest, n).is_err() {
            continue; // corpus exhausted; smaller scales stop earlier
        }
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let hybrid = run_algorithm("HybridParBoX", &cluster, &q);
        rows.push(Row::from_outcome(n as f64, hybrid.algorithm, &hybrid));
        let pb = parbox(&cluster, &q);
        rows.push(Row::from_outcome(n as f64, "ParBoX(forced)", &pb));
        let nc = naive_centralized(&cluster, &q);
        rows.push(Row::from_outcome(n as f64, "NaiveCentralized(forced)", &nc));
    }
    rows
}

/// One offered-rate point of the Experiment F open-loop sweep.
#[derive(Debug, Clone, Copy)]
pub struct RatePoint {
    /// Open-loop arrival rate the run was driven at, queries/sec.
    pub offered_qps: f64,
    /// Throughput actually achieved (queries / wall time), queries/sec.
    pub achieved_qps: f64,
    /// Median latency from *scheduled arrival* to completion, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// 99.9th-percentile latency, ms.
    pub p999_ms: f64,
}

/// Result of Experiment F: sustained-load saturation of the resident
/// serving engine plus the sharded-arena contention probe.
#[derive(Debug, Clone)]
pub struct ExpFRow {
    /// Participating sites (one persistent worker each).
    pub sites: usize,
    /// Worker threads of the intern contention probe.
    pub threads: usize,
    /// Queries issued per open-loop run.
    pub queries: usize,
    /// Closed-loop calibrated service capacity, queries/sec.
    pub capacity_qps: f64,
    /// Achieved throughput at the most oversubscribed offered rate —
    /// the engine's saturation throughput.
    pub saturated_qps: f64,
    /// Median latency at saturation, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency at saturation, ms.
    pub p99_ms: f64,
    /// 99.9th-percentile latency at saturation, ms.
    pub p999_ms: f64,
    /// Every offered-rate point of the sweep, in sweep order.
    pub rates: Vec<RatePoint>,
    /// Coordinator-cache share of answered queries over the whole run.
    pub cache_hit_rate: f64,
    /// The sharded-vs-single-lock intern measurement at `threads`.
    pub probe: parbox_bool::contention::ContentionProbe,
}

/// Seeded xorshift64* for interarrival draws (no `rand` in the hot loop).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn percentile(sorted_s: &[f64], q: f64) -> f64 {
    if sorted_s.is_empty() {
        return 0.0;
    }
    let ix = ((sorted_s.len() - 1) as f64 * q).round() as usize;
    sorted_s[ix] * 1e3
}

/// Drives `queries` through a resident engine open-loop at `offered_qps`:
/// arrival times are drawn from an exponential interarrival distribution
/// (a Poisson process), the driver waits for each scheduled arrival, and
/// every latency is measured from the *scheduled* arrival — so queueing
/// delay behind a saturated server counts against the tail, exactly as a
/// client on the wire would see it.
fn open_loop_run(
    engine: &mut Engine,
    queries: &[parbox_query::Query],
    offered_qps: f64,
    seed: u64,
) -> RatePoint {
    let mut rng = seed | 1;
    let mut latencies_s: Vec<f64> = Vec::with_capacity(queries.len());
    let start = Instant::now();
    let mut scheduled_s = 0.0f64;
    for q in queries {
        // Exponential interarrival: −ln(1−u)/λ with u ∈ [0,1).
        let u = (xorshift(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
        scheduled_s += -(1.0 - u).ln() / offered_qps;
        while start.elapsed().as_secs_f64() < scheduled_s {
            std::hint::spin_loop();
        }
        engine.query(q);
        latencies_s.push(start.elapsed().as_secs_f64() - scheduled_s);
    }
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    latencies_s.sort_by(|a, b| a.total_cmp(b));
    RatePoint {
        offered_qps,
        achieved_qps: queries.len() as f64 / wall_s,
        p50_ms: percentile(&latencies_s, 0.50),
        p99_ms: percentile(&latencies_s, 0.99),
        p999_ms: percentile(&latencies_s, 0.999),
    }
}

/// **Experiment F**: sustained-load saturation of the resident
/// [`Engine`]. Three measurements in one row:
///
/// 1. **Contention probe** — [`parbox_bool::contention::intern_contention_probe`]
///    at `threads` worker threads: the sharded production arena vs the
///    single-mutex seed replica on the identical intern workload. The
///    acceptance gate (`modeled_scaling() ≥ 2`) is asserted by the
///    `expF_saturation` binary.
/// 2. **Oracle differential** — before any timing, the engine's exact
///    forest is pushed through both `bottomUp` pipelines (arena and
///    preserved seed representation) and the full resolved triplet of
///    *every* fragment is asserted byte-identical, expD-style.
/// 3. **Open-loop saturation sweep** — the engine is calibrated
///    closed-loop, then driven at `rate_multipliers` × capacity with
///    Poisson arrivals; the most oversubscribed point is the saturation
///    row (achieved qps + p50/p99/p999 from scheduled arrival).
pub fn expf_saturation(
    scale: Scale,
    sites: usize,
    threads: usize,
    queries: usize,
    rate_multipliers: &[f64],
) -> ExpFRow {
    use parbox_bool::contention::intern_contention_probe;
    use parbox_bool::reference::{ref_solve, RefTriplet};
    use parbox_bool::EquationSystem;
    use parbox_core::{bottom_up, bottom_up_reference};
    use std::collections::HashMap;

    let (forest, placement) = ft1(scale, sites);

    // (2) Oracle differential over the serving forest: byte-identical
    // resolved triplets, every fragment, before anything is timed.
    let order = forest.postorder();
    let (_, q) = query_with_qlist(8, scale.seed);
    let mut sys = EquationSystem::new();
    let mut seed_triplets: HashMap<FragmentId, RefTriplet> = HashMap::new();
    for f in forest.fragment_ids() {
        sys.insert(f, bottom_up(&forest.fragment(f).tree, &q).triplet);
        seed_triplets.insert(f, bottom_up_reference(&forest.fragment(f).tree, &q).triplet);
    }
    let arena_solved = sys.solve(&order).expect("solvable FT1");
    let seed_solved = ref_solve(&seed_triplets, &order).expect("solvable FT1");
    for f in forest.fragment_ids() {
        assert_eq!(
            arena_solved[&f], seed_solved[&f],
            "sharded arena diverged from the reference oracle on fragment {f}"
        );
    }

    // (1) The intern contention probe.
    let probe = intern_contention_probe(threads, 30_000);

    // (3) The saturation sweep.
    let stream: Vec<parbox_query::Query> = batch_workload(queries, scale.seed ^ 0xF0F0);
    let mut engine = Engine::new(forest, placement, EngineConfig::default()).expect("valid");

    // Closed-loop calibration: warm the caches with one full pass, then
    // time a second — the engine's steady-state service capacity.
    for q in &stream {
        engine.query(q);
    }
    let start = Instant::now();
    for q in &stream {
        engine.query(q);
    }
    let capacity_qps = stream.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);

    let mut rates = Vec::new();
    for (i, m) in rate_multipliers.iter().enumerate() {
        rates.push(open_loop_run(
            &mut engine,
            &stream,
            (capacity_qps * m).max(1.0),
            scale.seed ^ (0xE0 + i as u64),
        ));
    }
    let saturated = rates
        .iter()
        .cloned()
        .max_by(|a, b| a.offered_qps.total_cmp(&b.offered_qps))
        .expect("at least one rate multiplier");

    let stats = engine.stats();
    ExpFRow {
        sites,
        threads,
        queries: stream.len(),
        capacity_qps,
        saturated_qps: saturated.achieved_qps,
        p50_ms: saturated.p50_ms,
        p99_ms: saturated.p99_ms,
        p999_ms: saturated.p999_ms,
        rates,
        cache_hit_rate: stats.members_from_cache as f64 / (stats.queries as f64).max(1.0),
        probe,
    }
}

/// Result of one chaos cell: a fault kind injected at one rate under
/// one network model, driven through a resident engine and checked
/// query-by-query against the centralized oracle.
#[derive(Debug, Clone)]
pub struct ExpGCell {
    /// Fault kind name (`panic`/`wedge`/`delay`/`drop`/`crash`/`mixed`),
    /// or `none` for the fault-free baseline.
    pub kind: String,
    /// Per-request injection probability.
    pub rate: f64,
    /// Network model name (`lan`/`wan`).
    pub network: String,
    /// Queries answered during the chaos phase.
    pub queries: usize,
    /// Updates applied during the chaos phase (exercises crash-apply).
    pub updates: usize,
    /// Faults the plan actually injected in this cell.
    pub injected: u64,
    /// Supervised deadline expiries.
    pub timeouts: u64,
    /// Supervised retry attempts beyond each round's first.
    pub retries: u64,
    /// Site actors restarted in place (no process restart).
    pub restarts: u64,
    /// Answers marked `Complete` (exact — full coverage or certain).
    pub complete_answers: usize,
    /// Answers that went out degraded (`Partial`).
    pub partial_answers: usize,
    /// `Complete` answers disagreeing with the oracle. **Must be 0**:
    /// a complete answer is never wrong.
    pub wrong_complete: usize,
    /// `Partial` answers disagreeing with the oracle (allowed — that is
    /// what the marking is for — but tracked).
    pub wrong_partial: usize,
    /// 99th-percentile actor outage (first failure sign → recovering
    /// reply), milliseconds.
    pub recovery_p99_ms: f64,
    /// Worst actor outage, milliseconds.
    pub recovery_max_ms: f64,
    /// Post-chaos verification: with the plan disarmed (hooks still in
    /// place), every re-asked query came back `Complete` and correct —
    /// the engine recovered fully without a process restart.
    pub recovered_after_disarm: bool,
}

/// **Experiment G**: chaos-hardened serving. For each network model,
/// each fault `kind`, and each injection `rate`, a fresh FT1 deployment
/// is driven through a query/update stream with deterministic fault
/// injection at the site actors, under a tight supervision policy
/// (short deadlines, bounded retries with backoff, restart-on-wedge).
/// Every answer is checked against the centralized oracle evaluated on
/// the engine's authoritative forest:
///
/// * `Complete` answers must match the oracle **always** — full
///   coverage, or certainty established by `partial_solve` (the answer
///   holds under any content of the missing fragments).
/// * `Partial` answers may disagree; they are explicitly marked and
///   name the sites that stayed down.
///
/// After the stream, the plan is disarmed (injection stops; wedged or
/// dead actors stay as the faults left them) and the stream is re-asked:
/// the supervisor must restart/re-seed its way back to all-`Complete`,
/// all-correct answers — recovery without a process restart.
pub fn expg_chaos(
    scale: Scale,
    machines: usize,
    queries: usize,
    rates: &[f64],
    kinds: &[&str],
) -> Vec<ExpGCell> {
    let networks = [("lan", NetworkModel::lan()), ("wan", NetworkModel::wan())];
    let mut cells = Vec::new();
    for (net_name, model) in networks {
        let mut runs: Vec<(String, f64)> = vec![("none".to_string(), 0.0)];
        for &kind in kinds {
            for &rate in rates {
                runs.push((kind.to_string(), rate));
            }
        }
        for (kind, rate) in runs {
            cells.push(expg_cell(
                scale, machines, queries, &kind, rate, net_name, model,
            ));
        }
    }
    cells
}

fn expg_cell(
    scale: Scale,
    machines: usize,
    queries: usize,
    kind: &str,
    rate: f64,
    net_name: &str,
    model: NetworkModel,
) -> ExpGCell {
    use parbox_core::Completeness;
    use parbox_net::{FaultKind, FaultPlan, FaultRates, SupervisorConfig};

    // Deadlines are wall-clock (the workers are real threads; only the
    // network is modeled), so one tight policy serves both models: long
    // enough for a healthy site to reply under CI load, short enough
    // that a wedge costs tens of milliseconds, not seconds.
    let supervisor = SupervisorConfig {
        deadline: Duration::from_millis(30),
        max_attempts: 4,
        restart_after_timeouts: 1,
        backoff_base: Duration::from_millis(2),
        jitter_seed: scale.seed ^ 0x9E37,
    };
    // Delayed replies overshoot the deadline by design.
    let delay = Duration::from_millis(75);
    let plan = match kind {
        "none" => FaultPlan::none(),
        "mixed" => FaultPlan::random(scale.seed ^ 0xC4A0, FaultRates::mixed(rate), delay),
        k => {
            let fk = match k {
                "panic" => FaultKind::Panic,
                "wedge" => FaultKind::Wedge,
                "delay" => FaultKind::DelayReply,
                "drop" => FaultKind::DropEnvelope,
                "crash" => FaultKind::CrashApply,
                other => panic!("unknown fault kind {other}"),
            };
            FaultPlan::random(scale.seed ^ 0xC4A0, FaultRates::only(fk, rate), delay)
        }
    };

    let (forest, placement) = ft1(scale, machines);
    let config = EngineConfig {
        model,
        fault_plan: plan.clone(),
        supervisor: Some(supervisor),
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(forest, placement, config).expect("valid deployment");

    let stream: Vec<(parbox_query::Query, CompiledQuery)> =
        batch_workload(queries, scale.seed ^ 0xE6_0001)
            .into_iter()
            .map(|q| {
                let c = compile(&q);
                (q, c)
            })
            .collect();
    // The oracle: plain ParBoX over the engine's authoritative forest,
    // fresh scoped threads, no pool, no faults.
    let oracle = |engine: &Engine, c: &CompiledQuery| {
        let cluster = Cluster::new(engine.forest(), engine.placement(), model);
        parbox(&cluster, c).answer
    };

    let mut complete_answers = 0usize;
    let mut partial_answers = 0usize;
    let mut wrong_complete = 0usize;
    let mut wrong_partial = 0usize;
    let mut updates = 0usize;
    let mut answered = 0usize;
    let mut recovery_s: Vec<f64> = Vec::new();
    let mut absorb_recovery = |report: &parbox_net::RunReport| {
        if let Some(f) = &report.faults {
            recovery_s.extend(f.recovery_s.iter().copied());
        }
    };
    for (i, (q, c)) in stream.iter().enumerate() {
        // Every fifth op is an update — the only path that can trigger
        // crash-during-apply — resolved against the live forest.
        if i % 5 == 4 {
            if let Some(update) = resolve_update(engine.forest(), scale.seed ^ (0xD0 + i as u64)) {
                let up = engine.apply(update).expect("resolved update applies");
                absorb_recovery(&up.report);
                updates += 1;
                continue;
            }
        }
        let expected = oracle(&engine, c);
        let out = engine.query(q);
        absorb_recovery(&out.report);
        answered += 1;
        match out.completeness {
            Completeness::Complete => {
                complete_answers += 1;
                if out.answer != expected {
                    wrong_complete += 1;
                }
            }
            Completeness::Partial { .. } => {
                partial_answers += 1;
                if out.answer != expected {
                    wrong_partial += 1;
                }
            }
        }
    }

    // Injection stops; the damage it already did does not. The engine
    // must supervise its way back: every re-asked query Complete and
    // correct, without a process restart.
    plan.disarm();
    let mut recovered = true;
    for (q, c) in &stream {
        let expected = oracle(&engine, c);
        let out = engine.query(q);
        absorb_recovery(&out.report);
        recovered &= out.completeness.is_complete() && out.answer == expected;
    }

    recovery_s.sort_by(|a, b| a.total_cmp(b));
    let stats = engine.stats();
    ExpGCell {
        kind: kind.to_string(),
        rate,
        network: net_name.to_string(),
        queries: answered,
        updates,
        injected: plan.total_injected(),
        timeouts: stats.timeouts,
        retries: stats.retries,
        restarts: stats.restarts,
        complete_answers,
        partial_answers,
        wrong_complete,
        wrong_partial,
        recovery_p99_ms: percentile(&recovery_s, 0.99),
        recovery_max_ms: recovery_s.last().copied().unwrap_or(0.0) * 1e3,
        recovered_after_disarm: recovered,
    }
}

/// One measured row of Experiment H: incremental view maintenance under
/// an update-heavy stream.
#[derive(Debug, Clone)]
pub struct ExpHRow {
    /// Participating sites (= fragments, one per site).
    pub sites: usize,
    /// Operations in the stream (queries + updates).
    pub ops: usize,
    /// Queries answered (both runs, identically).
    pub queries: usize,
    /// Updates that resolved and were applied (both runs, identically).
    pub updates_applied: usize,
    /// Wall-clock of the delta-maintaining run, seconds.
    pub delta_wall_s: f64,
    /// Wall-clock of the invalidate-and-recompute run, seconds.
    pub legacy_wall_s: f64,
    /// `legacy_wall_s / delta_wall_s` — reported, not gated: the delta
    /// run lasts well under 0.1 s, so the ratio moves with the host.
    pub speedup: f64,
    /// Work units of the delta-maintaining run: every round's site and
    /// coordinator work plus every repair, first-touch memo builds
    /// included. Exact run to run.
    pub delta_work: u64,
    /// Work units of the invalidate-and-recompute run.
    pub legacy_work: u64,
    /// `legacy_work / delta_work` — the gated ratio.
    pub work_ratio: f64,
    /// Cache entries repaired in place (site + coordinator levels).
    pub entries_repaired: u64,
    /// Cache entries the delta run still had to invalidate.
    pub entries_invalidated: u64,
    /// Tree nodes re-interned across all repairs — the update cost
    /// actually paid: O(depth) per repair, plus the fragment once per
    /// entry whose memo an update built (compare against
    /// `fragment_nodes`).
    pub nodes_recomputed: u64,
    /// Nodes in the forest at the end of the delta run — the O(|F|)
    /// cost the legacy path pays per recompute, for contrast.
    pub fragment_nodes: usize,
    /// Wire bytes of shipped triplet deltas.
    pub delta_bytes: u64,
    /// Total simulated traffic of the delta run, bytes.
    pub delta_traffic_bytes: usize,
    /// Total simulated traffic of the legacy run, bytes.
    pub legacy_traffic_bytes: usize,
}

/// **Experiment H**: delta-repair view maintenance vs
/// invalidate-and-recompute on an update-heavy stream (≥50% pure data
/// updates, queries drawn from a small standing pool) over an FT1
/// deployment of `machines` sites. Both engines are identically
/// configured apart from [`EngineConfig::delta_maintenance`] and see the
/// same stream; their answers must match bit for bit. Admission is
/// single-query (`max_batch = 1`) so cached fingerprints stay bounded by
/// the standing pool — the serving regime delta repair targets.
pub fn exph_ivm(scale: Scale, machines: usize, ops: usize) -> ExpHRow {
    let stream = update_heavy_workload(ops, 4, scale.seed);
    let config = |delta_maintenance: bool| EngineConfig {
        max_batch: 1,
        batch_window: Duration::ZERO,
        delta_maintenance,
        ..EngineConfig::default()
    };

    // --- Delta-maintaining run -----------------------------------------
    let (forest, placement) = ft1(scale, machines);
    let mut engine = Engine::new(forest, placement, config(true)).expect("valid deployment");
    let start = Instant::now();
    let delta = drive_stream_with(&mut engine, &stream, resolve_data_update);
    let delta_wall_s = start.elapsed().as_secs_f64();
    let stats = engine.stats();
    let fragment_nodes = engine.forest_stats().total_nodes();
    drop(engine);

    // --- Invalidate-and-recompute run ----------------------------------
    let (forest, placement) = ft1(scale, machines);
    let mut engine = Engine::new(forest, placement, config(false)).expect("valid deployment");
    let start = Instant::now();
    let legacy = drive_stream_with(&mut engine, &stream, resolve_data_update);
    let legacy_wall_s = start.elapsed().as_secs_f64();
    drop(engine);

    assert_eq!(
        delta.answers, legacy.answers,
        "delta repair and invalidate-and-recompute must agree on every answer"
    );
    assert_eq!(
        delta.updates_applied, legacy.updates_applied,
        "both runs must apply the same updates"
    );

    ExpHRow {
        sites: machines,
        ops,
        queries: delta.answers.len(),
        updates_applied: delta.updates_applied,
        delta_wall_s,
        legacy_wall_s,
        speedup: legacy_wall_s / delta_wall_s.max(1e-12),
        delta_work: delta.work_units,
        legacy_work: legacy.work_units,
        work_ratio: legacy.work_units as f64 / delta.work_units.max(1) as f64,
        entries_repaired: stats.entries_repaired,
        entries_invalidated: stats.entries_invalidated,
        nodes_recomputed: stats.repair_nodes_recomputed,
        fragment_nodes,
        delta_bytes: stats.repair_delta_bytes,
        delta_traffic_bytes: delta.bytes,
        legacy_traffic_bytes: legacy.bytes,
    }
}

// Re-export used by binaries.
pub use crate::builders::plant_markers;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            corpus_bytes: 30_000,
            seed: 11,
        }
    }

    #[test]
    fn fig7_series_has_expected_shape() {
        let rows = experiment1_fig7(tiny(), 4);
        assert_eq!(rows.len(), 8);
        // NaiveCentralized ships data; ParBoX does not.
        let nc_bytes: usize = rows
            .iter()
            .filter(|r| r.series == "NaiveCentralized")
            .map(|r| r.bytes)
            .sum();
        let pb_bytes: usize = rows
            .iter()
            .filter(|r| r.series == "ParBoX")
            .map(|r| r.bytes)
            .sum();
        assert!(nc_bytes > 10 * pb_bytes, "nc {nc_bytes} vs pb {pb_bytes}");
        // ParBoX runtime at 4 machines beats NaiveCentralized at 4 (the
        // shipping term is deterministic; allow generous compute noise).
        let at = |series: &str, x: f64| {
            rows.iter()
                .find(|r| r.series == series && r.x == x)
                .unwrap()
                .runtime_s
        };
        assert!(
            at("ParBoX", 4.0) < at("NaiveCentralized", 4.0) + 0.002,
            "parbox {} vs naive {}",
            at("ParBoX", 4.0),
            at("NaiveCentralized", 4.0)
        );
    }

    #[test]
    fn fig8_more_subqueries_cost_more() {
        let rows = experiment1_fig8(tiny(), 2);
        let sum = |s: &str| -> f64 {
            rows.iter()
                .filter(|r| r.series == s)
                .map(|r| r.work as f64)
                .sum()
        };
        assert!(sum("|QList|=23") > sum("|QList|=2"));
    }

    #[test]
    fn experiment2_lazy_wins_at_root_target() {
        let rows = experiment2(tiny(), 4, Target::Root);
        // At n=4, lazy does least total work.
        let work = |s: &str| {
            rows.iter()
                .find(|r| r.series == s && r.x == 4.0)
                .unwrap()
                .work
        };
        assert!(work("LazyParBoX") < work("ParBoX"));
        assert!(work("LazyParBoX") < work("FullDistParBoX"));
    }

    #[test]
    fn experiment2_deepest_target_makes_lazy_sequential() {
        let rows = experiment2(tiny(), 4, Target::Deepest);
        let rt = |s: &str| {
            rows.iter()
                .find(|r| r.series == s && r.x == 4.0)
                .unwrap()
                .runtime_s
        };
        assert!(rt("LazyParBoX") >= rt("ParBoX"));
    }

    #[test]
    fn fig4_all_algorithms_agree_and_match_bounds() {
        let table = fig4_table(tiny(), 3);
        let answers: Vec<bool> = table.iter().map(|r| r.answer).collect();
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
        let get = |name: &str| table.iter().find(|r| r.algorithm == name).unwrap();
        assert_eq!(get("ParBoX").max_visits, 1);
        assert_eq!(get("NaiveCentralized").max_visits, 1);
        assert!(get("NaiveCentralized").bytes > get("ParBoX").bytes);
    }

    #[test]
    fn sec5_incremental_is_cheaper_and_localized() {
        let rows = sec5_incremental(tiny(), 3);
        for r in &rows {
            assert!(
                r.incremental_bytes <= r.reeval_bytes,
                "{}: {} > {}",
                r.scenario,
                r.incremental_bytes,
                r.reeval_bytes
            );
            assert!(
                r.sites_visited <= 2,
                "{} visited {}",
                r.scenario,
                r.sites_visited
            );
        }
    }

    #[test]
    fn expb_batch_of_32_single_visit_and_4x_network_win() {
        // The ISSUE acceptance criterion, at test scale: a batch of 32
        // issues exactly one visit per site and beats 32 sequential ParBoX
        // runs on total simulated network cost by at least 4×.
        let rows = expb_batch_vs_sequential(tiny(), 4, &[32]);
        let row = &rows[0];
        assert_eq!(row.batch_max_visits, 1, "batch must visit each site once");
        assert!(
            row.sequential_network_s >= 4.0 * row.batch_network_s,
            "network win below 4x: sequential {} vs batch {}",
            row.sequential_network_s,
            row.batch_network_s
        );
        assert!(
            row.batch_bytes < row.sequential_bytes,
            "batched traffic must not exceed sequential"
        );
        assert!(row.merged_qlist < row.summed_qlist, "no dedup happened");
    }

    #[test]
    fn expb_savings_grow_with_batch_size() {
        let rows = expb_batch_vs_sequential(tiny(), 3, &[1, 8, 32]);
        let ratio = |r: &BatchRow| r.sequential_network_s / r.batch_network_s.max(1e-12);
        assert!(ratio(&rows[2]) > ratio(&rows[1]));
        assert!(ratio(&rows[1]) > ratio(&rows[0]));
    }

    #[test]
    fn expc_resident_engine_beats_oneshot_with_zero_triplet_repeats() {
        // The ISSUE acceptance criterion, at test scale: on a mixed
        // workload with ~20% repeats and interleaved updates, the
        // resident engine beats spawn-per-query wall-clock, answers
        // match one-shot ParBoX op for op (asserted inside the driver),
        // and a fully cached repeat moves zero data-plane bytes.
        let row = expc_resident_vs_oneshot(tiny(), 8, 300);
        assert!(row.queries > 250, "most ops are queries: {}", row.queries);
        assert!(row.updates_applied > 0, "updates must interleave");
        assert!(row.members_from_cache > 0, "repeats must hit the cache");
        assert_eq!(row.cached_repeat_data_plane_bytes, 0);
        assert!(
            row.resident_wall_s < row.oneshot_wall_s,
            "resident {:.4}s !< one-shot {:.4}s",
            row.resident_wall_s,
            row.oneshot_wall_s
        );
    }

    #[test]
    fn expd_arena_matches_seed_and_wins() {
        // The ISSUE acceptance criterion, at test scale: the arena
        // pipeline must produce byte-identical resolved triplets to the
        // seed representation and a DAG wire encoding that never exceeds
        // the tree encoding (both asserted inside the experiment). The
        // ≥2x speedup headline is asserted by the release-mode
        // `expD_formula_arena` binary that CI runs (4x at the default
        // 2048-fragment scale); unoptimized debug timings at test scale
        // measure mutex/hashing constants, not the quadratic-vs-linear
        // asymptotics, so no timing is asserted here.
        let row = expd_formula_arena(tiny(), 8, 160, 4);
        assert_eq!(row.fragments, 160);
        assert!(row.arena_s > 0.0 && row.seed_s > 0.0);
        assert!(row.dag_triplet_bytes <= row.tree_triplet_bytes);
        assert!(row.envelope_dag_bytes <= row.envelope_tree_bytes);
        // The star's hub triplet is dominated by shared wide
        // disjunctions, so the DAG format should be a real win, not a tie.
        assert!(
            row.dag_triplet_bytes * 10 <= row.tree_triplet_bytes * 9,
            "expected ≥10% wire win: dag {} vs tree {}",
            row.dag_triplet_bytes,
            row.tree_triplet_bytes
        );
    }

    #[test]
    fn expd_dag_never_larger_across_workloads() {
        // asserts dag ≤ tree per triplet internally, across the FT1/FT2/
        // FT3 shapes of experiments A–C.
        let rows = expd_dag_bytes_on_workloads(tiny());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.dag_bytes <= r.tree_bytes, "{}", r.workload);
        }
    }

    #[test]
    fn expe_adaptive_planner_tracks_best_fixed_strategy() {
        // The ISSUE acceptance criterion, at test scale: across query
        // shapes × fragmentations × network models, the adaptive
        // planner's deterministic modeled time stays within 1.1x of the
        // best fixed strategy (small absolute allowance for the
        // micro-scale cells where every strategy costs microseconds)
        // and beats the worst fixed strategy by ≥2x somewhere. Answer
        // agreement across all strategies and estimate-vs-measured
        // agreement (visits/messages exact, traffic within the
        // documented factor) are asserted inside the sweep.
        let rows = expe_planner(tiny(), 6);
        assert_eq!(rows.len(), 27, "3 shapes x 3 networks x 3 queries");
        expe_check(&rows, 5e-4);
        // The planner must not be a constant function: different cells
        // pick different strategies.
        let distinct: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.chosen.as_str()).collect();
        assert!(distinct.len() >= 2, "planner always chose {distinct:?}");
    }

    #[test]
    fn expf_open_loop_reports_sane_percentiles() {
        // Tiny smoke of the saturation sweep: percentiles monotone, the
        // oracle differential and the contention probe both run, and the
        // cache-hit rate is a rate. (The ≥2x scaling gate itself is
        // asserted by the expF_saturation binary and the 16-thread
        // regression test in crates/bool/tests/contention.rs.)
        let row = expf_saturation(tiny(), 3, 2, 40, &[1.0]);
        assert_eq!(row.rates.len(), 1);
        assert!(row.capacity_qps > 0.0 && row.saturated_qps > 0.0);
        assert!(row.p50_ms <= row.p99_ms && row.p99_ms <= row.p999_ms);
        assert!(row.probe.sharded.modeled_ops_per_sec > 0.0);
        assert!((0.0..=1.0).contains(&row.cache_hit_rate));
    }

    #[test]
    fn fig13_single_site_runtime_flat() {
        let rows = experiment4_fig13(tiny(), 5);
        let rts: Vec<f64> = rows.iter().map(|r| r.runtime_s).collect();
        let max = rts.iter().cloned().fold(0.0, f64::max);
        let min = rts.iter().cloned().fold(f64::INFINITY, f64::min);
        // "Almost constant": generous 4x guard for debug-build noise.
        assert!(max < min * 4.0 + 0.01, "not flat: {rts:?}");
    }

    #[test]
    fn expg_chaos_never_lies_and_recovers() {
        let cells = expg_chaos(tiny(), 3, 15, &[0.3], &["panic", "wedge"]);
        assert_eq!(cells.len(), 2 * 3, "baseline + 2 kinds, per network");
        let mut injected_total = 0u64;
        for c in &cells {
            assert_eq!(
                c.wrong_complete, 0,
                "{}/{}: Complete answer lied",
                c.network, c.kind
            );
            assert!(
                c.recovered_after_disarm,
                "{}/{}: did not recover",
                c.network, c.kind
            );
            if c.kind == "none" {
                assert_eq!(c.injected, 0);
                assert_eq!(c.partial_answers, 0);
                assert_eq!(
                    c.restarts + c.timeouts + c.retries,
                    0,
                    "inert plan cost nothing"
                );
            }
            injected_total += c.injected;
        }
        assert!(injected_total > 0, "chaos cells injected nothing");
    }

    #[test]
    fn exph_repairs_in_place_and_agrees() {
        // Answer equality between the two engines is asserted inside
        // exph_ivm; wall-clock ratios are left to the release binary.
        let row = exph_ivm(tiny(), 3, 80);
        assert!(row.updates_applied > 0, "stream must carry updates");
        // ~55% of ops are update seeds; a few don't resolve (guarded
        // deletions), so the applied floor sits below one half.
        assert!(
            row.updates_applied * 3 >= row.ops,
            "stream must be update-heavy"
        );
        assert!(row.entries_repaired > 0, "delta run must repair in place");
        assert!(
            (row.nodes_recomputed as usize) < row.fragment_nodes * row.updates_applied,
            "repair cost must undercut per-update full recompute"
        );
        assert!(
            row.delta_traffic_bytes < row.legacy_traffic_bytes,
            "triplet deltas must undercut full triplet re-ships"
        );
    }
}
