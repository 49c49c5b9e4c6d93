//! The experiments of the paper's Section 6 (plus Fig. 4 and the
//! Section 4/5 ablations), each returning the series its figure plots.

use crate::builders::{ft1, ft2_chain, ft3, single_site_split, Scale};
use crate::table::Row;
use parbox_core::plan::{measure_resolution_depth, TRAFFIC_ESTIMATE_FACTOR};
use parbox_core::{
    choose, hybrid_parbox, naive_centralized, parbox, run_named, CostEstimate, Engine,
    EngineConfig, PlanContext, Strategy, Update,
};
use parbox_frag::{Forest, Placement};
use parbox_net::{Cluster, NetworkModel};
use parbox_query::{compile, parse_query, CompiledQuery};
use parbox_xmark::{
    batch_workload, generate, marker_query, query_with_qlist, resolve_update, XmarkConfig,
};
use parbox_xml::FragmentId;
use std::collections::BTreeSet;
use std::time::Duration;

fn compile_str(src: &str) -> CompiledQuery {
    parbox_query::compile(&parbox_query::parse_query(src).expect("valid query"))
}

/// **Experiment 1 / Fig. 7**: ParBoX vs NaiveCentralized on FT1, sweeping
/// 1→`max_machines` machines with a constant-size corpus, `|QList| = 8`.
pub fn experiment1_fig7(scale: Scale, max_machines: usize) -> Vec<Row> {
    let (_, q) = query_with_qlist(8, scale.seed);
    let mut rows = Vec::new();
    for n in 1..=max_machines {
        let (forest, placement) = ft1(scale, n);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        for s in [Strategy::ParBoX, Strategy::NaiveCentralized] {
            rows.push(Row::from_outcome(n as f64, s.name(), &s.run(&cluster, &q)));
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
        for s in [
            Strategy::ParBoX,
            Strategy::FullDistParBoX,
            Strategy::LazyParBoX,
        ] {
            let out = s.run(&cluster, &q);
            assert!(out.answer, "marker query must hold at iteration {n}");
            rows.push(Row::from_outcome(n as f64, s.name(), &out));
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
        let out = run_named(algo, &cluster, &q).expect("Fig. 4 lists known algorithms");
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
    /// Incremental maintenance cost: the update plus the re-read
    /// (modeled seconds).
    pub incremental_s: f64,
    /// Full ParBoX re-evaluation cost (modeled seconds).
    pub reeval_s: f64,
    /// Maintenance traffic, update plus re-read (bytes).
    pub incremental_bytes: usize,
    /// Re-evaluation traffic (bytes).
    pub reeval_bytes: usize,
    /// Sites visited by the update or the re-read.
    pub sites_visited: usize,
}

/// **Section 5**: incremental view maintenance vs full re-evaluation,
/// for relevant and irrelevant updates and for a fragmentation change.
/// The view is the resident engine's cached query: its incremental cost
/// is the [`Engine::apply`] that maintains it plus the [`Engine::query`]
/// that re-reads it.
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
        let (forest, placement) = ft1(scale, machines);
        let update = update_of(&forest);
        let mut engine =
            Engine::new(forest, placement, EngineConfig::default()).expect("valid deployment");
        let q = parse_query("[//flip-target = \"now\" or //qmarker[key/text() = \"F0\"]]")
            .expect("valid query");
        // The view: materialized once, then maintained by the update and
        // re-read, which is where a split's invalidated fragments are
        // re-evaluated.
        engine.query(&q);
        let up = engine.apply(update).expect("valid update");
        let read = engine.query(&q);
        // Full re-evaluation for comparison.
        let cluster = Cluster::new(engine.forest(), engine.placement(), NetworkModel::lan());
        let full = parbox(&cluster, &compile(&q));
        assert_eq!(read.answer, Some(full.answer), "view drifted in {scenario}");
        let visited: BTreeSet<_> = [&up.report, &read.report]
            .into_iter()
            .flat_map(|r| r.sites().filter(|(_, s)| s.visits > 0).map(|(s, _)| s))
            .collect();
        rows.push(IncrementalRow {
            scenario,
            incremental_s: up.report.elapsed_model_s + read.report.elapsed_model_s,
            reeval_s: full.report.elapsed_model_s,
            incremental_bytes: up.report.total_bytes() + read.report.total_bytes(),
            reeval_bytes: full.report.total_bytes(),
            sites_visited: visited.len(),
        });
    }
    rows
}

fn last_fragment(forest: &Forest) -> FragmentId {
    forest.fragment_ids().last().expect("non-empty forest")
}

/// One cell of Experiment E: a (fragmentation × network × query-shape)
/// point, every fixed strategy run once and scored by its deterministic
/// [`parbox_net::RunReport::elapsed_model_s`], and the adaptive
/// planner's choice evaluated on the same runs.
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
/// Per cell, all five fixed strategies run once and are scored by their
/// reports' `elapsed_model_s`: each strategy's own stage structure,
/// priced from its work units and message bytes — no wall clock, so the
/// sweep is reproducible. The adaptive planner
/// plans with the depth at which the cell's query resolves, measured
/// beforehand by evaluating every fragment
/// ([`measure_resolution_depth`]), and its time is the chosen
/// strategy's measured run. An estimate is its strategy's own schedule
/// over predicted sizes, so its visit, message and work counts equal
/// the measured ones by construction (asserted along the way for every
/// strategy), and so does the traffic of every strategy that ships no
/// open triplet; the one real prediction, open-triplet bytes, keeps
/// every strategy's traffic within [`TRAFFIC_ESTIMATE_FACTOR`] of its
/// measured bytes (asserted too).
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
        let queries: Vec<(&str, CompiledQuery)> = vec![
            ("tiny-selective", compile_str(&marker_query("F0"))),
            ("mid", query_with_qlist(8, scale.seed).1),
            ("scan-heavy", query_with_qlist(23, scale.seed ^ 23).1),
        ];
        for (net_name, model) in networks {
            let cluster = Cluster::new(forest, placement, model);
            for (qname, q) in &queries {
                // The depth at which this query resolves: the hint that
                // prices LazyParBoX's early stop.
                let depth = measure_resolution_depth(&cluster, q);
                let mut cx = PlanContext::new(&cluster, q);
                cx.resolve_depth_hint = Some(depth);
                let plan = choose(&Strategy::ALL, &cx);
                let chosen = plan.chosen();

                let mut per_strategy: Vec<(String, f64)> = Vec::new();
                let mut chosen_measured = (0usize, 0usize, 0usize);
                let mut answers: Vec<bool> = Vec::new();
                for s in Strategy::ALL {
                    let est = s.estimate(&cx);
                    let out = s.run(&cluster, q);
                    answers.push(out.answer);
                    let m = CostEstimate::of(&out.report);
                    assert_eq!(
                        (est.visits, est.messages, est.work_units),
                        (m.visits, m.messages, m.work_units),
                        "{shape}/{net_name}/{qname}: {} counts",
                        s.name()
                    );
                    assert!(
                        est.traffic_bytes <= m.traffic_bytes.max(1) * TRAFFIC_ESTIMATE_FACTOR
                            && m.traffic_bytes
                                <= est.traffic_bytes.max(1) * TRAFFIC_ESTIMATE_FACTOR,
                        "{shape}/{net_name}/{qname}: {} traffic estimate {} vs measured {}",
                        s.name(),
                        est.traffic_bytes,
                        m.traffic_bytes
                    );
                    if s == chosen.strategy {
                        chosen_measured = (m.visits, m.messages, m.traffic_bytes);
                    }
                    per_strategy.push((s.name().to_string(), out.report.elapsed_model_s));
                }
                assert!(
                    answers.windows(2).all(|w| w[0] == w[1]),
                    "{shape}/{net_name}/{qname}: strategies disagree"
                );

                let adaptive = per_strategy
                    .iter()
                    .find(|(n, _)| *n == chosen.strategy.name())
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
                    chosen: chosen.strategy.name().to_string(),
                    estimate: chosen.estimate,
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
/// adaptive planner is within 10% of the best fixed strategy, and on at
/// least one cell it beats the worst fixed strategy by ≥ 2×.
pub fn expe_check(rows: &[ExpERow]) {
    assert!(!rows.is_empty());
    for r in rows {
        assert!(
            r.adaptive_model_s <= 1.1 * r.best_model_s,
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
        let hybrid = hybrid_parbox(&cluster, &q);
        rows.push(Row::from_outcome(n as f64, hybrid.algorithm, &hybrid));
        let pb = parbox(&cluster, &q);
        rows.push(Row::from_outcome(n as f64, "ParBoX(forced)", &pb));
        let nc = naive_centralized(&cluster, &q);
        rows.push(Row::from_outcome(n as f64, "NaiveCentralized(forced)", &nc));
    }
    rows
}

/// The `q`-quantile of ascending seconds, in milliseconds.
fn percentile(sorted_s: &[f64], q: f64) -> f64 {
    if sorted_s.is_empty() {
        return 0.0;
    }
    let ix = ((sorted_s.len() - 1) as f64 * q).round() as usize;
    sorted_s[ix] * 1e3
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
    /// Queries that went out `Partial`, with no certain answer.
    pub partial_answers: usize,
    /// `Complete` answers disagreeing with the oracle. **Must be 0**:
    /// a complete answer is never wrong.
    pub wrong_complete: usize,
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
///   coverage, or a certain answer despite gaps (it holds under any
///   content of the missing fragments).
/// * `Partial` queries have no answer: three-valued (Kleene) evaluation
///   does not decide them without the missing fragments. They name the
///   sites that stayed down.
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
        match out.answer {
            Some(answer) => {
                complete_answers += 1;
                wrong_complete += usize::from(answer != expected);
            }
            None => partial_answers += 1,
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
        recovered &= out.answer == Some(expected);
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
        recovery_p99_ms: percentile(&recovery_s, 0.99),
        recovery_max_ms: recovery_s.last().copied().unwrap_or(0.0) * 1e3,
        recovered_after_disarm: recovered,
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
        // ParBoX runtime at 4 machines beats NaiveCentralized at 4.
        let at = |series: &str, x: f64| {
            rows.iter()
                .find(|r| r.series == series && r.x == x)
                .unwrap()
                .runtime_s
        };
        assert!(
            at("ParBoX", 4.0) < at("NaiveCentralized", 4.0),
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
        // At test scale: a batch of 32 answered as one Engine admission
        // round issues exactly one visit per site and beats 32 sequential
        // ParBoX runs on total simulated network cost by at least 4x.
        let scale = tiny();
        let (forest, placement) = ft1(scale, 4);
        let model = NetworkModel::lan();
        let cluster = Cluster::new(&forest, &placement, model);
        let queries = batch_workload(32, scale.seed);
        let config = EngineConfig {
            model,
            ..EngineConfig::default()
        };
        let mut engine =
            Engine::new(forest.clone(), placement.clone(), config).expect("valid deployment");
        for q in &queries {
            engine.submit(q);
        }
        let round = engine.flush().expect("the batch is pending");

        let mut sequential_bytes = 0usize;
        let mut sequential_network_s = 0.0f64;
        let mut summed_qlist = 0usize;
        for (i, q) in queries.iter().enumerate() {
            let compiled = compile(q);
            summed_qlist += compiled.len();
            let solo = parbox(&cluster, &compiled);
            assert_eq!(solo.answer, round.answers[i].1, "member {i}");
            sequential_bytes += solo.report.total_bytes();
            sequential_network_s += solo.report.network_cost_s(&model);
        }
        let batch_network_s = round.report.network_cost_s(&model);

        assert_eq!(
            round.report.max_visits(),
            1,
            "batch must visit each site once"
        );
        assert!(
            sequential_network_s >= 4.0 * batch_network_s,
            "network win below 4x: sequential {sequential_network_s} vs batch {batch_network_s}"
        );
        assert!(
            round.report.total_bytes() < sequential_bytes,
            "batched traffic must not exceed sequential"
        );
        let merged_qlist = parbox_query::compile_batch(&queries).merged_len();
        assert!(merged_qlist < summed_qlist, "no dedup happened");
    }

    #[test]
    fn expe_adaptive_planner_tracks_best_fixed_strategy() {
        // At test scale: across query shapes × fragmentations × network
        // models, the adaptive planner's deterministic modeled time
        // stays within 1.1x of the best fixed strategy and beats the
        // worst fixed strategy by ≥2x somewhere. Answer agreement
        // across all strategies, estimated counts equal to measured
        // ones and every traffic estimate within the documented factor
        // are asserted inside the sweep.
        let rows = expe_planner(tiny(), 6);
        assert_eq!(rows.len(), 27, "3 shapes x 3 networks x 3 queries");
        expe_check(&rows);
        // The planner must not be a constant function: different cells
        // pick different strategies.
        let distinct: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.chosen.as_str()).collect();
        assert!(distinct.len() >= 2, "planner always chose {distinct:?}");
    }

    #[test]
    fn fig13_single_site_runtime_flat() {
        let rows = experiment4_fig13(tiny(), 5);
        let rts: Vec<f64> = rows.iter().map(|r| r.runtime_s).collect();
        let max = rts.iter().cloned().fold(0.0, f64::max);
        let min = rts.iter().cloned().fold(f64::INFINITY, f64::min);
        // "Almost constant": one site's work; only the solve grows.
        assert!(max <= 1.05 * min, "not flat: {rts:?}");
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
}
