//! One process, one driver thread, closed loop: set-up, then a fixed
//! number of ops from a pre-generated stream, then the checks.

use crate::gen::{self, QueryStream};
use crate::hist::Histogram;
use crate::proc::{self, ProcSample};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Spec, Traffic};
use parbox_bool::{ArenaStats, Formula};
use parbox_core::{
    centralized_eval, Engine, EngineConfig, EngineStats, RoundOutcome, SubscriptionId, Update,
};
use parbox_frag::{Forest, ForestStats, Placement};
use parbox_net::engine::SiteCacheStats;
use parbox_net::RunReport;
use parbox_query::{compile, parse_query, CompiledQuery, Query};
use parbox_xml::{write_tree, Tree, WriteOptions};
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

/// Where the set-up time went, seconds; `setup_s` is their sum. Stream
/// generation happens between them and is not counted.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// `ft1`: generate, fragment and place the document.
    pub fragment_s: f64,
    pub write_s: f64,
    pub parse_s: f64,
    pub xml_bytes: usize,
    pub stats_s: f64,
    /// `Engine::new` and the standing subscriptions.
    pub deploy_s: f64,
    pub warmup_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.fragment_s + self.write_s + self.parse_s + self.stats_s + self.deploy_s + self.warmup_s
    }
}

/// Process, engine, arena and site-cache counters at a phase boundary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub proc: ProcSample,
    pub engine: EngineStats,
    pub arena: ArenaStats,
    pub sites: BTreeMap<u32, SiteCacheStats>,
}

/// What one phase of ops measured. The `detail` fields stay zero unless
/// the phase ran with the extra clock reads of the traced run.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub ops: u64,
    pub rounds: u64,
    pub latency: Histogram,
    /// Time inside parse and engine calls: per round, from the first
    /// `parse_query` to the return of `flush`; per update, its `apply`.
    pub busy_ns: u64,
    /// Σ `RunReport::total_bytes()` over rounds and updates.
    pub wire_bytes: u64,
    /// `Partial` answers, `apply` errors, answers that changed without
    /// an update, notifications that did not flip the answer.
    pub failed: u64,
    /// Updates that were not pure repairs (self-check).
    pub not_repaired: u64,
    pub detail: Detail,
}

impl Phase {
    /// Adds a later block of the same phase.
    pub fn absorb(&mut self, block: &Phase) {
        self.ops += block.ops;
        self.rounds += block.rounds;
        self.latency.merge(&block.latency);
        self.busy_ns += block.busy_ns;
        self.wire_bytes += block.wire_bytes;
        self.failed += block.failed;
        self.not_repaired += block.not_repaired;
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Detail {
    pub parse_ns: u64,
    pub submit_ns: u64,
    pub flush_ns: u64,
    pub apply_ns: u64,
    pub visits: u64,
    pub messages: u64,
    pub data_plane_bytes: u64,
    pub work_units: u64,
    pub modeled_s: f64,
    pub compute_s: f64,
    pub max_site_compute_s: f64,
    pub planned_rounds: u64,
    pub lazy_rounds: u64,
}

impl Detail {
    fn absorb(&mut self, report: &RunReport) {
        self.visits += report.total_visits() as u64;
        self.messages += report.total_messages() as u64;
        self.data_plane_bytes += report.data_plane_bytes() as u64;
        self.work_units += report.total_work();
        self.modeled_s += report.elapsed_model_s;
        self.compute_s += report.total_compute_s();
        self.max_site_compute_s += report.max_site_compute_s();
        if let Some(plan) = &report.planned {
            self.planned_rounds += 1;
            self.lazy_rounds += u64::from(plan.strategy == "LazyParBoX");
        }
    }
}

/// The last answer seen per distinct query of the stream, by its index
/// in `QueryStream::texts`. Nothing updates the document in a query
/// workload, so a query whose answer changes between two ops is a
/// failed op.
#[derive(Debug, Default)]
struct Answers(Vec<Option<bool>>);

impl Answers {
    /// Returns false when the query was answered differently before.
    fn record(&mut self, key: usize, answer: bool) -> bool {
        self.0[key]
            .replace(answer)
            .is_none_or(|prev| prev == answer)
    }
}

enum Stream {
    Queries(QueryStream),
    Updates(Vec<Update>),
}

/// Standing queries of the update workload and the answers last pushed.
struct Standing {
    ids: Vec<SubscriptionId>,
    queries: Vec<Query>,
    programs: Vec<CompiledQuery>,
    answers: Vec<bool>,
}

pub struct Bench {
    pub spec: &'static Spec,
    pub setup: SetupTimes,
    pub fragment_nodes: (usize, usize),
    engine: Engine,
    placement: Placement,
    stream: Stream,
    standing: Standing,
    answers: Answers,
    next_op: usize,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

impl Bench {
    /// Builds the deployment, generates `total_ops` ops from `seed`, and
    /// runs the warm-up. Everything but stream generation is `setup_s`.
    pub fn set_up(
        spec: &'static Spec,
        seed: u64,
        warmup_ops: usize,
        total_ops: usize,
    ) -> (Bench, Phase) {
        let mut setup = SetupTimes::default();

        let t = Instant::now();
        let (forest, placement) = spec.deploy();
        setup.fragment_s = secs(t.elapsed());

        // What loading the document from a file costs: serialise the
        // reassembled tree once and parse it back.
        let whole = forest.reassemble();
        let t = Instant::now();
        let xml = write_tree(&whole, &WriteOptions::default());
        setup.write_s = secs(t.elapsed());
        let t = Instant::now();
        let parsed = Tree::parse(&xml).expect("the serialised document parses");
        setup.parse_s = secs(t.elapsed());
        setup.xml_bytes = xml.len();
        assert_eq!(parsed.len(), whole.len(), "the document round-trips");
        drop((whole, parsed, xml));

        let t = Instant::now();
        let stats = ForestStats::compute(&forest, &placement);
        setup.stats_s = secs(t.elapsed());
        let sizes: Vec<usize> = stats.fragments().map(|(_, s)| s.nodes).collect();
        let fragment_nodes = (
            sizes.iter().copied().min().unwrap_or(0),
            sizes.iter().copied().max().unwrap_or(0),
        );

        let (stream, standing_queries) = match spec.traffic {
            Traffic::Queries {
                window,
                fresh_per_round,
                in_flight,
            } => (
                Stream::Queries(QueryStream::generate(
                    window,
                    fresh_per_round,
                    in_flight,
                    total_ops,
                    seed,
                )),
                Vec::new(),
            ),
            Traffic::Updates { standing } => (
                Stream::Updates(gen::update_stream(&forest, &placement, total_ops, seed)),
                gen::standing_queries(standing),
            ),
        };
        let answers = match &stream {
            Stream::Queries(s) => Answers(vec![None; s.texts.len()]),
            Stream::Updates(_) => Answers::default(),
        };

        // The driver, never the clock, decides when a round flushes:
        // `Engine::poll` is not called, and the window and batch bound
        // are out of reach in case a later engine flushes on submit.
        let config = EngineConfig {
            max_batch: usize::MAX,
            batch_window: Duration::from_secs(3600),
            site_cache_capacity: spec.site_cache,
            ..Default::default()
        };
        let t = Instant::now();
        let mut engine = Engine::new(forest, placement.clone(), config)
            .expect("the placement covers the forest");
        let ids: Vec<SubscriptionId> = standing_queries
            .iter()
            .map(|q| engine.subscribe(q))
            .collect();
        setup.deploy_s = secs(t.elapsed());
        let standing = Standing {
            answers: ids
                .iter()
                .map(|&id| engine.subscription_answer(id).expect("just subscribed"))
                .collect(),
            programs: standing_queries.iter().map(compile).collect(),
            queries: standing_queries,
            ids,
        };

        let mut bench = Bench {
            spec,
            setup,
            fragment_nodes,
            engine,
            placement,
            stream,
            standing,
            answers,
            next_op: 0,
        };
        let t = Instant::now();
        let warm = bench.run_phase::<false>(warmup_ops, None);
        bench.setup.warmup_s = secs(t.elapsed());
        assert_eq!(warm.failed, 0, "{} ops failed in warm-up", warm.failed);
        (bench, warm)
    }

    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            proc: proc::sample(),
            engine: self.engine.stats(),
            arena: Formula::arena_stats(),
            sites: self.engine.site_cache_stats(),
        }
    }

    pub fn tracer(&self) -> Tracer {
        Tracer::new(self.engine.forest(), &self.placement)
    }

    /// Runs the next `ops` ops of the stream. `DETAIL` adds the clock
    /// reads and report sums of the traced run; with a tracer, sampled
    /// rounds are also replayed through the layers.
    pub fn run_phase<const DETAIL: bool>(
        &mut self,
        ops: usize,
        tracer: Option<&mut Tracer>,
    ) -> Phase {
        let mut phase = Phase::default();
        let range = self.next_op..self.next_op + ops;
        self.next_op = range.end;
        match self.spec.traffic {
            Traffic::Queries { in_flight, .. } => {
                self.run_queries::<DETAIL>(range, in_flight, &mut phase, tracer)
            }
            Traffic::Updates { .. } => self.run_updates::<DETAIL>(range, &mut phase, tracer),
        }
        phase
    }

    fn run_queries<const DETAIL: bool>(
        &mut self,
        range: std::ops::Range<usize>,
        in_flight: usize,
        phase: &mut Phase,
        mut tracer: Option<&mut Tracer>,
    ) {
        let Stream::Queries(stream) = &self.stream else {
            unreachable!("a query workload has a query stream")
        };
        // Per op of the round: start of its parse, end of its parse,
        // end of its submit.
        let mut marks: Vec<[Instant; 3]> = Vec::with_capacity(in_flight);
        let mut first = range.start;
        while first < range.end {
            let k = in_flight.min(range.end - first);
            marks.clear();
            for op in first..first + k {
                let text = stream.text(op);
                let t0 = Instant::now();
                let query = parse_query(text).expect("generated queries parse");
                let t1 = if DETAIL { Instant::now() } else { t0 };
                self.engine.submit(&query);
                let t2 = if DETAIL { Instant::now() } else { t0 };
                marks.push([t0, t1, t2]);
            }
            let f0 = if DETAIL { Instant::now() } else { marks[0][0] };
            let out = self.engine.flush().expect("the round has pending queries");
            let f1 = Instant::now();

            for m in &marks {
                phase.latency.record(ns(m[0], f1));
            }
            phase.busy_ns += ns(marks[0][0], f1);
            phase.ops += k as u64;
            phase.rounds += 1;
            phase.wire_bytes += out.report.total_bytes() as u64;
            phase.failed += out.partial.len() as u64;
            assert_eq!(out.answers.len(), k, "one answer per submitted query");
            for (j, &(_, answer)) in out.answers.iter().enumerate() {
                if !self.answers.record(stream.key(first + j), answer) {
                    phase.failed += 1;
                }
            }
            if DETAIL {
                for m in &marks {
                    phase.detail.parse_ns += ns(m[0], m[1]);
                    phase.detail.submit_ns += ns(m[1], m[2]);
                }
                phase.detail.flush_ns += ns(f0, f1);
                phase.detail.absorb(&out.report);
            }
            if let Some(tr) = tracer.as_deref_mut() {
                if (first / in_flight).is_multiple_of(self.spec.trace_every) {
                    let op = first as u64;
                    let root = tr.span(0, op, "op", marks[0][0], f1);
                    for m in &marks {
                        tr.span(root, op, "query.parse", m[0], m[1]);
                        tr.span(root, op, "serve.submit", m[1], m[2]);
                    }
                    tr.span(root, op, "serve.flush", f0, f1);
                    replay_query_round(
                        tr,
                        root,
                        op,
                        stream,
                        first..first + k,
                        &out,
                        self.engine.forest(),
                        &self.placement,
                        ns(f0, f1),
                    );
                }
            }
            first += k;
        }
    }

    fn run_updates<const DETAIL: bool>(
        &mut self,
        range: std::ops::Range<usize>,
        phase: &mut Phase,
        mut tracer: Option<&mut Tracer>,
    ) {
        let Stream::Updates(updates) = &self.stream else {
            unreachable!("the update workload has an update stream")
        };
        // The traced run keeps its own repairable evaluation of every
        // standing query on every fragment, as the owning sites do, and
        // repairs them after each update on the driver thread.
        let mut mirror: Option<BTreeMap<_, Vec<_>>> = tracer.as_deref_mut().map(|tr| {
            let forest = self.engine.forest();
            let programs = &self.standing.programs;
            forest
                .fragment_ids()
                .map(|f| {
                    let tree = &forest.fragment(f).tree;
                    let states = programs
                        .iter()
                        .map(|p| tr.replay_build(0, range.start as u64, tree, p))
                        .collect();
                    (f, states)
                })
                .collect()
        });
        for op in range {
            let update = updates[op].clone();
            let t0 = Instant::now();
            let result = self.engine.apply(update);
            let t1 = Instant::now();
            phase.latency.record(ns(t0, t1));
            phase.busy_ns += ns(t0, t1);
            phase.ops += 1;
            let out = match result {
                Ok(out) => out,
                Err(_) => {
                    phase.failed += 1;
                    continue;
                }
            };
            phase.wire_bytes += out.report.total_bytes() as u64;
            phase.not_repaired += u64::from(out.invalidated != 0 || out.repaired == 0);
            for n in &out.notifications {
                let i = self
                    .standing
                    .ids
                    .iter()
                    .position(|&id| id == n.subscription)
                    .expect("a notification names a standing query");
                // A notification announces a flip.
                phase.failed += u64::from(self.standing.answers[i] == n.answer);
                self.standing.answers[i] = n.answer;
            }
            if DETAIL {
                phase.detail.apply_ns += ns(t0, t1);
                phase.detail.absorb(&out.report);
            }
            if let (Some(tr), Some(mirror)) = (tracer.as_deref_mut(), mirror.as_mut()) {
                let delta = out.effect.delta.expect("a data update has a delta");
                tr.set_recording(op.is_multiple_of(self.spec.trace_every));
                let root = tr.span(0, op as u64, "op", t0, t1);
                tr.span(root, op as u64, "serve.apply", t0, t1);
                let tree = &self.engine.forest().fragment(delta.frag).tree;
                let states = mirror.get_mut(&delta.frag).expect("a live fragment");
                let repaired: u64 = states
                    .iter_mut()
                    .map(|s| tr.replay_repair(root, op as u64, s, tree, delta.anchor))
                    .sum();
                tr.set_recording(true);
                tr.close_round(1, ns(t0, t1), repaired);
            }
        }
    }

    /// After the measured phase, outside the clock: answers against the
    /// centralized evaluator on the reassembled live document. Returns
    /// `(checked, mismatches)`.
    pub fn oracle_check(&self, seed: u64) -> (usize, u64) {
        let document = self.engine.forest().reassemble();
        let mut mismatches = 0u64;
        let mut checked = 0usize;
        let mut check = |query: &Query, got: bool, stale: bool| {
            checked += 1;
            let wrong = centralized_eval(&document, &compile(query)) != got;
            mismatches += u64::from(wrong || stale);
        };
        match &self.stream {
            Stream::Queries(stream) => {
                // Every pool query answered, and a seeded sample of 64
                // of the others.
                let answered = |keys: std::ops::Range<usize>| -> Vec<usize> {
                    keys.filter(|&k| self.answers.0[k].is_some()).collect()
                };
                let mut picked: HashSet<usize> = answered(0..stream.pool).into_iter().collect();
                let fresh = answered(stream.pool..stream.texts.len());
                let mut rng = gen::Rng::new(seed ^ 0x0ac1e);
                let wanted = picked.len() + fresh.len().min(64);
                while picked.len() < wanted {
                    picked.insert(fresh[rng.below(fresh.len())]);
                }
                for key in picked {
                    let query = parse_query(&stream.texts[key]).expect("generated queries parse");
                    check(&query, self.answers.0[key].expect("answered"), false);
                }
            }
            Stream::Updates(_) => {
                for (i, &id) in self.standing.ids.iter().enumerate() {
                    let pushed = self.standing.answers[i];
                    let held = self.engine.subscription_answer(id).expect("subscribed");
                    // The answer the notifications add up to must be the
                    // one the engine holds.
                    check(&self.standing.queries[i], held, pushed != held);
                }
            }
        }
        (checked, mismatches)
    }

    /// Stops the site threads and waits for them.
    pub fn shut_down(mut self) {
        let report = self.engine.shutdown();
        assert_eq!(report.panicked_workers, 0, "a site worker panicked");
    }
}

/// Replays one query round. Only the member programs the coordinator
/// could not answer from its cache went to the sites; the outcome gives
/// their number, not their names, so the replay takes the round's
/// never-seen queries first (they cannot have been cached) and fills up
/// with its repeats.
#[allow(clippy::too_many_arguments)]
fn replay_query_round(
    tr: &mut Tracer,
    root: SpanId,
    op: u64,
    stream: &QueryStream,
    round: std::ops::Range<usize>,
    out: &RoundOutcome,
    forest: &Forest,
    placement: &Placement,
    flush_ns: u64,
) {
    let ops = round.len() as u64;
    let mut order: Vec<usize> = round.clone().filter(|&i| stream.is_fresh(i)).collect();
    order.extend(round.filter(|&i| !stream.is_fresh(i)));
    let queries: Vec<Query> = order
        .iter()
        .map(|&i| parse_query(stream.text(i)).expect("generated queries parse"))
        .collect();
    let compiled = tr.replay_compile(root, op, &queries);
    let mut seen = HashSet::new();
    let active: Vec<CompiledQuery> = compiled
        .into_iter()
        .filter(|c| seen.insert(c.fingerprint()))
        .take(out.members - out.members_from_cache)
        .collect();
    let attributed = if active.is_empty() {
        0
    } else {
        tr.replay_round(root, op, forest, placement, &active)
    };
    tr.close_round(ops, flush_ns, attributed);
}
