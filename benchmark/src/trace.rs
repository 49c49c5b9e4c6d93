//! The traced run's spans and the external replay behind the per-layer
//! times: for a sampled op the driver pushes the op's own inputs through
//! each layer's public function on the driver thread, as child spans of
//! the op. The engine gains no probe; spans inside the program are a
//! later change.
//!
//! Known bias: a replayed `bottom_up` interns into the process-wide
//! formula arena the engine has just filled, so its intern cost is that
//! of a warm arena.

use bytes::BytesMut;
use parbox_bool::{decode_site_envelope_dag, encode_site_envelope_dag, EquationSystem, Triplet};
use parbox_core::{bottom_up, IncrementalBottomUp};
use parbox_frag::{Forest, Placement, SiteId};
use parbox_net::engine::{FragmentEval, SitePool};
use parbox_query::{compile, merge_programs, CompiledQuery, Query};
use parbox_xml::{FragmentId, NodeId, Tree};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: SpanId,
    /// 0 for an op's root span.
    pub parent: SpanId,
    /// Index of the op (for a batched round, of its first op) in the
    /// stream: the identifier every span of one request shares.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Sums over the replayed sample, from which the per-layer metrics are
/// derived. Times are nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplaySums {
    /// Rounds (or updates) replayed.
    pub rounds: u64,
    /// Ops those rounds answered.
    pub ops: u64,
    /// Replayed rounds that went to the sites at all.
    pub dispatched_rounds: u64,
    pub compile_ns: u64,
    pub compiled: u64,
    pub merge_ns: u64,
    pub merged_len: u64,
    pub member_len: u64,
    pub bottom_up_ns: u64,
    pub work_units: u64,
    pub memo_build_ns: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub envelope_bytes: u64,
    pub solve_ns: u64,
    pub dispatch_ns: u64,
    pub repair_ns: u64,
    pub repair_nodes: u64,
    /// `flush` (or `apply`) time of the replayed rounds.
    pub flush_ns: u64,
    /// The part of it the replayed layers account for.
    pub attributed_ns: u64,
}

/// Spans are kept in memory and written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Off for ops outside the sample: their replays still add to the
    /// sums, but leave no spans.
    recording: bool,
    pub sums: ReplaySums,
    cores: u64,
    /// A site pool of the workload's layout whose kernel returns a
    /// constant: `eval_round` on it is the channel, wake-up and join
    /// cost of one dispatch and nothing else.
    dispatch_pool: SitePool,
}

fn constant_kernel(_: &Tree, q: &CompiledQuery) -> FragmentEval {
    FragmentEval {
        triplet: Triplet::all_false(q.len()),
        work_units: 0,
    }
}

fn per_site(forest: &Forest, placement: &Placement) -> BTreeMap<u32, Vec<FragmentId>> {
    let mut sites: BTreeMap<u32, Vec<FragmentId>> = BTreeMap::new();
    for f in forest.fragment_ids() {
        sites.entry(placement.site_of(f).0).or_default().push(f);
    }
    sites
}

impl Tracer {
    pub fn new(forest: &Forest, placement: &Placement) -> Tracer {
        // Stand-in trees: the constant kernel never reads them, and
        // sharing the engine's handles would force a copy-on-write in
        // the engine at the next update.
        let deployment = per_site(forest, placement)
            .into_iter()
            .map(|(s, frags)| {
                let trees = frags
                    .into_iter()
                    .map(|f| (f, Arc::new(Tree::new("stand-in"))))
                    .collect();
                (SiteId(s), trees)
            })
            .collect();
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            recording: true,
            sums: ReplaySums::default(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            dispatch_pool: SitePool::spawn(deployment, 0, constant_kernel),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Records a span that was timed by the caller.
    pub fn span(
        &mut self,
        parent: SpanId,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.recording {
            return 0;
        }
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Runs `f` as a child span of `parent`; returns its result and
    /// duration in nanoseconds.
    fn timed<T>(
        &mut self,
        parent: SpanId,
        op: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.span(parent, op, name, start, end);
        (out, end.duration_since(start).as_nanos() as u64)
    }

    /// Replays `compile` for the queries of one round.
    pub fn replay_compile(
        &mut self,
        parent: SpanId,
        op: u64,
        queries: &[Query],
    ) -> Vec<CompiledQuery> {
        queries
            .iter()
            .map(|q| {
                let (c, ns) = self.timed(parent, op, "query.compile", || compile(q));
                self.sums.compile_ns += ns;
                self.sums.compiled += 1;
                c
            })
            .collect()
    }

    /// Replays what a round does for the member programs it could not
    /// answer from the coordinator cache: merge, `bottom_up` and the
    /// memoising build on every live fragment, one envelope per site,
    /// one solve, one dispatch.
    /// Returns the part of the round's `flush` these account for. The
    /// engine runs its sites in parallel, so the sites' share is the
    /// longer of the busiest site and an even split over the cores.
    pub fn replay_round(
        &mut self,
        parent: SpanId,
        op: u64,
        forest: &Forest,
        placement: &Placement,
        active: &[CompiledQuery],
    ) -> u64 {
        let (batch, merge_ns) = self.timed(parent, op, "query.merge", || merge_programs(active));
        let merged = Arc::new(batch.merged().clone());
        self.sums.merge_ns += merge_ns;
        self.sums.merged_len += merged.len() as u64;
        self.sums.member_len += active.iter().map(|p| p.len() as u64).sum::<u64>();

        let sites = per_site(forest, placement);
        let mut triplets: BTreeMap<FragmentId, Triplet> = BTreeMap::new();
        let (mut busiest, mut all_sites) = (0u64, 0u64);
        for frags in sites.values() {
            let mut site_ns = 0u64;
            for &f in frags {
                let tree = &forest.fragment(f).tree;
                let (run, ns) =
                    self.timed(parent, op, "eval.bottom_up", || bottom_up(tree, &merged));
                self.sums.bottom_up_ns += ns;
                self.sums.work_units += run.work_units;
                // With delta maintenance on (the default) a site answers
                // a cache miss with the memoising build, not `bottom_up`:
                // this, not the line above, is on the op's path.
                let (built, ns) = self.timed(parent, op, "eval.memo_build", || {
                    IncrementalBottomUp::build(tree, &merged).0
                });
                assert_eq!(built.triplet(), &run.triplet, "both kernels agree");
                self.sums.memo_build_ns += ns;
                site_ns += ns;
                triplets.insert(f, run.triplet);
            }
            let entries: Vec<(FragmentId, &Triplet)> =
                frags.iter().map(|f| (*f, &triplets[f])).collect();
            let (buf, enc_ns) = self.timed(parent, op, "bool.encode", || {
                let mut buf = BytesMut::new();
                encode_site_envelope_dag(&entries, &mut buf);
                buf
            });
            self.sums.encode_ns += enc_ns;
            self.sums.envelope_bytes += buf.len() as u64;
            site_ns += enc_ns;
            let mut bytes = buf.freeze();
            let (decoded, dec_ns) = self.timed(parent, op, "bool.decode", || {
                decode_site_envelope_dag(&mut bytes)
            });
            assert_eq!(
                decoded.expect("an envelope just encoded decodes").len(),
                entries.len()
            );
            self.sums.decode_ns += dec_ns;
            busiest = busiest.max(site_ns);
            all_sites += site_ns;
        }

        let order = forest.postorder();
        let (solved, solve_ns) = self.timed(parent, op, "bool.solve", || {
            let mut system = EquationSystem::new();
            for (f, t) in &triplets {
                system.insert(*f, t.clone());
            }
            system.solve(&order).map(|s| s.len())
        });
        assert_eq!(solved.expect("a complete system solves"), order.len());
        self.sums.solve_ns += solve_ns;

        let request: Vec<(SiteId, Vec<FragmentId>)> =
            sites.into_iter().map(|(s, fs)| (SiteId(s), fs)).collect();
        let fingerprint = merged.program_fingerprint();
        let pool = &mut self.dispatch_pool;
        let start = Instant::now();
        let replies = pool.eval_round(&merged, fingerprint, request);
        let end = Instant::now();
        std::hint::black_box(replies);
        self.span(parent, op, "net.dispatch", start, end);
        let dispatch_ns = end.duration_since(start).as_nanos() as u64;
        self.sums.dispatch_ns += dispatch_ns;
        self.sums.dispatched_rounds += 1;

        merge_ns + busiest.max(all_sites / self.cores) + solve_ns + dispatch_ns
    }

    /// Builds the repairable evaluation of `program` on a fragment as it
    /// stands before an update (what the owning site holds per cached
    /// entry).
    pub fn replay_build(
        &mut self,
        parent: SpanId,
        op: u64,
        tree: &Tree,
        program: &CompiledQuery,
    ) -> IncrementalBottomUp {
        self.timed(parent, op, "eval.build", || {
            IncrementalBottomUp::build(tree, program).0
        })
        .0
    }

    /// Repairs it on the fragment as it stands after the update; returns
    /// the repair time of this one entry.
    pub fn replay_repair(
        &mut self,
        parent: SpanId,
        op: u64,
        state: &mut IncrementalBottomUp,
        tree: &Tree,
        anchor: NodeId,
    ) -> u64 {
        let (run, ns) = self.timed(parent, op, "eval.repair", || state.repair(tree, anchor));
        self.sums.repair_ns += ns;
        self.sums.repair_nodes += run.nodes_recomputed;
        ns
    }

    /// Closes one replayed round: `flush_ns` is the engine call it
    /// explains, `attributed_ns` what the replayed layers cover of it.
    pub fn close_round(&mut self, ops: u64, flush_ns: u64, attributed_ns: u64) {
        self.sums.rounds += 1;
        self.sums.ops += ops;
        self.sums.flush_ns += flush_ns;
        self.sums.attributed_ns += attributed_ns;
    }

    /// Writes the spans as JSON lines and stops the dispatch pool.
    pub fn finish(mut self, path: &std::path::Path) -> std::io::Result<(ReplaySums, usize)> {
        let panicked = self.dispatch_pool.shutdown();
        assert_eq!(panicked, 0, "a dispatch stand-in worker panicked");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok((self.sums, self.spans.len()))
    }
}
