//! Persistent site workers — the resident substrate of the serving
//! engine.
//!
//! The one-shot algorithms ([`crate::run_sites_parallel`]) spawn a fresh
//! scoped thread per site *per query* and throw all per-site state away
//! when the query returns. A serving deployment instead keeps every site
//! **resident**: [`SitePool`] spawns one long-lived worker thread per
//! site, each owning shared handles to its fragments' trees and a
//! [`(FragmentId, QueryFingerprint)`](parbox_query::QueryFingerprint)
//! keyed **triplet cache**, and serves evaluation requests over a
//! request channel (an actor loop). Site startup is paid once per
//! deployment instead of once per query, and a fragment evaluated twice
//! under the same program fingerprint skips `bottomUp` entirely.
//!
//! Reads always run the plain [`EvalFn`] and cache the triplet with its
//! program, nothing more: **the entries cached on a fragment get a
//! repair memo when the first update reaches it** ([`SitePool::repair`]
//! with a [`DeltaKernel`]) — *one* memo for all of them. The update
//! merges the programs of the fragment's entries that nothing maintains
//! yet into one program (`merge_embedded`, the merge a round's members
//! go through), builds its memo once on the patched tree, and keeps each
//! entry's projection out of the merged triplet: a **group**. Every
//! later update repairs each group of the fragment once, whatever the
//! number of its members, and re-projects a member only when a merged
//! entry it reads changed. A read-only stream builds no memo. Entries
//! cached after a group was built are simply the next update's group —
//! an existing group is never rebuilt, so there is no threshold to
//! tune; an evicted entry leaves its group, and a group without members
//! is dropped, as is every group of a fragment that is reloaded or
//! unloaded. Groups change no count of entries: one [`RepairOutcome`]
//! per cached entry goes back, as if each had a memo of its own.
//!
//! Residency brings failure with it: a long-lived actor can panic,
//! wedge, or stall. [`SitePool::eval_round_supervised`] is the
//! fault-tolerant visit path — per-request deadlines, bounded retries
//! with deterministic backoff (see [`SupervisorConfig`]), and actor
//! restart + authoritative fragment re-seeding when a site is declared
//! dead or wedged. Fault *injection* for chaos testing is threaded
//! through the worker loop behind an inert-by-default [`FaultPlan`].
//!
//! Layering: this module provides the *mechanics* (threads, channels,
//! fragment ownership, caching, supervision); the evaluation kernel is
//! injected by the algorithm layer as an [`EvalFn`] (`parbox-core`
//! passes its `bottomUp`) and the protocol accounting (visits, messages,
//! cost models) stays with the coordinator in `parbox-core::serve`.

use crate::fault::{
    install_quiet_panic_hook, FaultContext, FaultKind, FaultPlan, InjectedFault, SupervisorConfig,
};
use crate::metrics::FaultSummary;
use crate::SiteId;
use parbox_bool::{triplet_delta_dag_wire_size, Triplet, TripletDelta};
use parbox_query::{merge_embedded, CompiledQuery, QueryFingerprint, SubId};
use parbox_xml::{FragmentId, NodeId, Tree};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Result of evaluating one program over one fragment.
#[derive(Debug, Clone)]
pub struct FragmentEval {
    /// The fragment's `(V, CV, DV)` triplet under the program.
    pub triplet: Triplet,
    /// Work units spent (`nodes visited × |QList|`; 0 on a cache hit).
    pub work_units: u64,
}

/// The per-fragment evaluation kernel a site worker runs. Injected by the
/// algorithm layer (`parbox-core` passes procedure `bottomUp`), keeping
/// this crate below the algorithms in the dependency DAG.
pub type EvalFn = fn(&Tree, &CompiledQuery) -> FragmentEval;

/// Opaque per-`(fragment, program)` evaluation state owned by a site
/// worker on behalf of the algorithm layer (the memoized per-node
/// vectors of `parbox-core`'s incremental `bottomUp`). This crate only
/// stores and routes it; the delta kernel's functions downcast it.
pub type DeltaState = Box<dyn std::any::Any + Send>;

/// Result of one delta-kernel call on a maintained evaluation.
#[derive(Debug, Clone)]
pub struct RepairedEval {
    /// The fragment's triplet after the call, or `None` when a repair
    /// certifies it unchanged (its propagation stopped below the root).
    /// A build always reports it.
    pub triplet: Option<Triplet>,
    /// Nodes recomputed: the changed part of the anchor-to-root path, or
    /// the whole fragment for a build.
    pub nodes_recomputed: u64,
    /// Work units spent (`nodes recomputed × |QList|`).
    pub work_units: u64,
}

/// Memo-building evaluation of the *post-update* tree under a group's
/// merged program. Reports every node as recomputed and returns the
/// repairable state the worker keeps for the group from then on. Calls
/// the tick it is given at a steady pace of work done: one build is one
/// kernel call however many entries it serves, and the caller's
/// deadline bounds the worker's silence.
pub type BuildFn = fn(&Tree, &CompiledQuery, &mut dyn FnMut()) -> (RepairedEval, DeltaState);

/// In-place repair of a previously built [`DeltaState`] after a data
/// update whose deepest surviving changed node is the given anchor.
pub type RepairFn = fn(&mut DeltaState, &Tree, NodeId) -> RepairedEval;

/// A one-shot patch shipped with [`SitePool::repair`]: applies one pure
/// data update to the site's *locally owned* copy of the fragment tree.
/// Shipping the patch instead of a fresh tree handle keeps coordinator
/// and site trees uniquely owned, so neither side pays an `O(|F|)`
/// copy-on-write clone per update — the wire cost of an update is the
/// patch itself, `O(|delta|)`.
pub type PatchFn = Box<dyn FnOnce(&mut Tree) + Send>;

/// The delta-maintenance kernel pair injected by the algorithm layer.
/// When present, updates repair cached entries in place instead of
/// dropping them; cache misses run the plain [`EvalFn`] either way. The
/// kernel maintains *merged* programs: what it returns must commute
/// with [`Triplet::project`], id for id, so that a member's projection
/// is the triplet the [`EvalFn`] computes for the member alone.
#[derive(Debug, Clone, Copy)]
pub struct DeltaKernel {
    /// Memo-building evaluation, run once per group: by the first
    /// [`SitePool::repair`] to find entries of its fragment that no
    /// group maintains.
    pub build: BuildFn,
    /// Change-sized repair, run once per group by every later one.
    pub repair: RepairFn,
}

/// The initial deployment passed to [`SitePool::spawn`]: each site with
/// the fragments (ids + shared tree handles) it will own.
pub type SiteDeployment = Vec<(SiteId, Vec<(FragmentId, Arc<Tree>)>)>;

/// One site's reply to an evaluation request.
#[derive(Debug)]
pub struct EvalReply {
    /// The replying site.
    pub site: SiteId,
    /// Per requested fragment: its triplet and whether it was served from
    /// the site's cache (no `bottomUp` run).
    pub triplets: Vec<(FragmentId, Arc<Triplet>, bool)>,
    /// Requested fragments that were **not resident** at the worker —
    /// the typed replacement for the old "fragment not resident" panic.
    /// The supervisor re-seeds these from the coordinator's
    /// authoritative handles and retries.
    pub missing: Vec<FragmentId>,
    /// Work units actually spent (cache hits contribute none).
    pub work_units: u64,
    /// Measured wall-clock time of the site's local work.
    pub elapsed: Duration,
}

/// Cache counters of one resident site worker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteCacheStats {
    /// Live cache entries.
    pub entries: usize,
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that ran the evaluation kernel.
    pub misses: u64,
    /// Entries dropped by the FIFO capacity bound.
    pub evictions: u64,
    /// Entries dropped by explicit invalidation (updates).
    pub invalidated: u64,
    /// Entries **brought up to date in place** by delta maintenance —
    /// the update path that replaces invalidation when a [`DeltaKernel`]
    /// is installed: one per cached entry of the touched fragment per
    /// update, whether its group's repair moved it or certified it
    /// unchanged. A repaired entry keeps serving hits without a
    /// re-evaluation.
    pub repaired: u64,
    /// Repair memos built: one per *group*, that is one per update that
    /// found entries of its fragment nothing maintained yet — not one
    /// per entry (each member also counts as `repaired`).
    pub memos_built: u64,
    /// Live groups: maintained merged programs, each with its memo.
    pub groups: usize,
}

impl SiteCacheStats {
    /// Fraction of lookups answered from cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

enum Request {
    /// Evaluate `program` over the listed resident fragments, consulting
    /// the cache under `fingerprint`.
    Eval {
        program: Arc<CompiledQuery>,
        fingerprint: QueryFingerprint,
        frags: Vec<FragmentId>,
        reply: mpsc::Sender<EvalReply>,
    },
    /// Install (or replace) a fragment's tree handle, dropping every
    /// cache entry of that fragment — the update-invalidation path.
    Load { frag: FragmentId, tree: Arc<Tree> },
    /// Apply a data-update patch to the site's own copy of the fragment
    /// and **repair** its cache entries in place through the delta
    /// kernel — the delta-maintenance replacement for
    /// [`Request::Load`]'s invalidation.
    Repair {
        frag: FragmentId,
        patch: PatchFn,
        anchor: NodeId,
        reply: mpsc::Sender<RepairProgress>,
    },
    /// Remove a fragment (merged away or migrated) and its cache entries.
    Unload { frag: FragmentId },
    /// Report cache counters.
    Stats { reply: mpsc::Sender<SiteCacheStats> },
}

/// What a worker sends while serving a [`Request::Repair`]: signs of
/// life from inside a memo build (the kernel's ticks, and one per
/// member projected), then the reply — the caller's deadline bounds the
/// worker's silence, not the size of a first update's job.
enum RepairProgress {
    Building,
    Done(RepairReply),
}

/// One repaired cache entry, as reported back to the coordinator.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// Program fingerprint of the repaired `(fragment, program)` entry.
    pub fingerprint: QueryFingerprint,
    /// The entry's triplet after the repair.
    pub triplet: Arc<Triplet>,
    /// Whether the triplet differs from the cached one. Unchanged
    /// entries let the coordinator keep memoized answers untouched.
    pub changed: bool,
    /// Bytes the repair costs on the wire: the varint-DAG
    /// [`TripletDelta`] for changed entries, a 1-byte ack otherwise —
    /// never a full triplet re-ship.
    pub delta_bytes: usize,
}

/// A site's reply to a repair request ([`SitePool::repair`]).
#[derive(Debug)]
pub struct RepairReply {
    /// The replying site.
    pub site: SiteId,
    /// Whether the site owned the fragment and applied the patch. When
    /// false the site never had the tree (e.g. a restart raced the
    /// update) — the caller must fall back to reseed + invalidate.
    pub patched: bool,
    /// Per cached `(fragment, program)` entry: the repair outcome.
    pub outcomes: Vec<RepairOutcome>,
    /// Cache entries for the fragment that had no repairable state and
    /// were dropped (legacy invalidation for just those entries).
    pub dropped: u64,
    /// Total nodes recomputed across all repaired entries.
    pub nodes_recomputed: u64,
    /// Total work units spent.
    pub work_units: u64,
    /// Measured wall-clock time of the site's local work.
    pub elapsed: Duration,
}

/// One cached evaluation of a `(fragment, program)` pair.
struct SiteEntry {
    triplet: Arc<Triplet>,
    /// The program the triplet was computed under — what the next
    /// update to reach the fragment merges into its group's.
    program: Arc<CompiledQuery>,
    /// The group that maintains the entry; `None` until an update
    /// reaches the fragment.
    group: Option<u64>,
}

/// One maintained evaluation: the entries of a fragment that nothing
/// maintained when an update reached it, under their merged program.
struct Group {
    frag: FragmentId,
    /// The kernel's memo of the merged program over the fragment.
    state: DeltaState,
    /// The merged triplet the memo last reported.
    root: Triplet,
    /// The members still cached: their entry's fingerprint and their
    /// projection out of `root`.
    members: Vec<(QueryFingerprint, Vec<SubId>)>,
}

struct SiteWorker {
    site: SiteId,
    eval: EvalFn,
    /// When present, [`Request::Repair`] repairs entries in place
    /// (building an entry's memo on its first repair) instead of
    /// dropping them.
    delta: Option<DeltaKernel>,
    plan: FaultPlan,
    /// Set by an injected [`FaultKind::Wedge`]: the worker stays alive
    /// but answers nothing, holding every subsequent request (and its
    /// reply sender) so the coordinator must detect it by deadline.
    wedged: bool,
    held: Vec<Request>,
    /// Reply senders kept alive by [`FaultKind::DropEnvelope`]: the
    /// envelope is "lost in flight", so the coordinator waits out the
    /// deadline instead of seeing an instant disconnect.
    dropped_replies: Vec<mpsc::Sender<EvalReply>>,
    fragments: HashMap<FragmentId, Arc<Tree>>,
    cache: HashMap<(FragmentId, QueryFingerprint), SiteEntry>,
    /// FIFO eviction order of cache keys.
    order: VecDeque<(FragmentId, QueryFingerprint)>,
    capacity: usize,
    /// Maintained groups by id, in the order they were built.
    groups: BTreeMap<u64, Group>,
    next_group: u64,
    stats: SiteCacheStats,
}

impl SiteWorker {
    fn run(mut self, inbox: mpsc::Receiver<Request>) {
        // The loop exits when every sender is dropped — both at orderly
        // shutdown and when the supervisor restarts this actor. A wedged
        // worker keeps receiving (into `held`) so it, too, exits cleanly
        // once replaced.
        while let Ok(req) = inbox.recv() {
            if self.wedged {
                self.held.push(req);
                continue;
            }
            let fault = match &req {
                Request::Eval { .. } => self.plan.decide(self.site.0, FaultContext::Eval),
                Request::Load { .. } | Request::Repair { .. } => {
                    self.plan.decide(self.site.0, FaultContext::Apply)
                }
                _ => None,
            };
            match fault {
                Some(k @ (FaultKind::Panic | FaultKind::CrashApply)) => {
                    std::panic::panic_any(InjectedFault {
                        site: self.site.0,
                        kind: k,
                    });
                }
                Some(FaultKind::Wedge) => {
                    self.wedged = true;
                    self.held.push(req);
                    continue;
                }
                _ => {}
            }
            match req {
                Request::Eval {
                    program,
                    fingerprint,
                    frags,
                    reply,
                } => {
                    let start = Instant::now();
                    let mut work_units = 0u64;
                    let mut missing = Vec::new();
                    let mut triplets: Vec<(FragmentId, Arc<Triplet>, bool)> = Vec::new();
                    for f in frags {
                        if let Some(e) = self.cache.get(&(f, fingerprint)) {
                            self.stats.hits += 1;
                            triplets.push((f, Arc::clone(&e.triplet), true));
                            continue;
                        }
                        let Some(tree) = self.fragments.get(&f) else {
                            // Typed error instead of crashing the actor:
                            // the supervisor re-seeds and retries.
                            missing.push(f);
                            continue;
                        };
                        self.stats.misses += 1;
                        let run = (self.eval)(tree, &program);
                        work_units += run.work_units;
                        let t = Arc::new(run.triplet);
                        let entry = SiteEntry {
                            triplet: Arc::clone(&t),
                            program: Arc::clone(&program),
                            group: None,
                        };
                        self.insert(f, fingerprint, entry);
                        triplets.push((f, t, false));
                    }
                    let envelope = EvalReply {
                        site: self.site,
                        triplets,
                        missing,
                        work_units,
                        elapsed: start.elapsed(),
                    };
                    match fault {
                        Some(FaultKind::DelayReply) => {
                            std::thread::sleep(self.plan.reply_delay());
                            // The round may have given up; a dead reply
                            // channel is not the worker's problem.
                            let _ = reply.send(envelope);
                        }
                        Some(FaultKind::DropEnvelope) => {
                            self.dropped_replies.push(reply);
                        }
                        _ => {
                            let _ = reply.send(envelope);
                        }
                    }
                }
                Request::Load { frag, tree } => {
                    self.fragments.insert(frag, tree);
                    self.drop_entries_of(frag);
                }
                Request::Repair {
                    frag,
                    patch,
                    anchor,
                    reply,
                } => {
                    let envelope = self.repair_fragment(frag, patch, anchor, &reply);
                    match fault {
                        Some(FaultKind::DelayReply) => {
                            std::thread::sleep(self.plan.reply_delay());
                            let _ = reply.send(RepairProgress::Done(envelope));
                        }
                        // A dropped repair ack looks like a crash to the
                        // coordinator, which falls back to reseed +
                        // recompute — always sound, never stale.
                        Some(FaultKind::DropEnvelope) => {}
                        _ => {
                            let _ = reply.send(RepairProgress::Done(envelope));
                        }
                    }
                }
                Request::Unload { frag } => {
                    self.fragments.remove(&frag);
                    self.drop_entries_of(frag);
                }
                Request::Stats { reply } => {
                    let mut s = self.stats.clone();
                    s.entries = self.cache.len();
                    s.groups = self.groups.len();
                    let _ = reply.send(s);
                }
            }
        }
    }

    /// Applies the update patch to the site's own copy of the fragment
    /// tree and brings the cached entries of `frag` back in step:
    /// repaired in place through the delta kernel, dropped without one.
    fn repair_fragment(
        &mut self,
        frag: FragmentId,
        patch: PatchFn,
        anchor: NodeId,
        progress: &mpsc::Sender<RepairProgress>,
    ) -> RepairReply {
        let start = Instant::now();
        let mut reply = RepairReply {
            site: self.site,
            patched: false,
            outcomes: Vec::new(),
            dropped: 0,
            nodes_recomputed: 0,
            work_units: 0,
            elapsed: Duration::ZERO,
        };
        if let Some(handle) = self.fragments.get_mut(&frag) {
            // Uniquely owned in steady state (the coordinator keeps its
            // own copy), so this mutates in place; a shared handle (fresh
            // seed) pays one clone and is unique thereafter.
            patch(Arc::make_mut(handle));
            reply.patched = true;
            match self.delta {
                Some(kernel) => self.repair_entries(frag, kernel, anchor, &mut reply, progress),
                None => reply.dropped = self.drop_entries_of(frag),
            }
        }
        reply.elapsed = start.elapsed();
        reply
    }

    /// Brings every cached entry of the already patched `frag` up to
    /// date: one repair call per group of the fragment, then one build
    /// for the entries no group maintains yet, reported like repairs.
    fn repair_entries(
        &mut self,
        frag: FragmentId,
        kernel: DeltaKernel,
        anchor: NodeId,
        reply: &mut RepairReply,
        progress: &mpsc::Sender<RepairProgress>,
    ) {
        let tree: &Tree = &self.fragments[&frag];
        for group in self.groups.values_mut().filter(|g| g.frag == frag) {
            let run = (kernel.repair)(&mut group.state, tree, anchor);
            reply.nodes_recomputed += run.nodes_recomputed;
            reply.work_units += run.work_units;
            // Which merged entries moved; empty when the kernel says none.
            let moved: Vec<bool> = match run.triplet {
                Some(new) => {
                    let old = std::mem::replace(&mut group.root, new);
                    let new = &group.root;
                    (0..new.len())
                        .map(|i| {
                            (old.v[i], old.cv[i], old.dv[i]) != (new.v[i], new.cv[i], new.dv[i])
                        })
                        .collect()
                }
                None => Vec::new(),
            };
            for (fp, proj) in &group.members {
                let entry = self
                    .cache
                    .get_mut(&(frag, *fp))
                    .expect("an evicted entry leaves its group");
                let reads_a_move = !moved.is_empty() && proj.iter().any(|&i| moved[i as usize]);
                let projected = reads_a_move.then(|| group.root.project(proj));
                reply.outcomes.push(refresh(entry, *fp, projected));
            }
            self.stats.repaired += group.members.len() as u64;
        }

        let mut fresh: Vec<(QueryFingerprint, Arc<CompiledQuery>)> = self
            .cache
            .iter()
            .filter(|((f, _), e)| *f == frag && e.group.is_none())
            .map(|((_, fp), e)| (*fp, Arc::clone(&e.program)))
            .collect();
        if fresh.is_empty() {
            return;
        }
        // The cache iterates in no fixed order; the merged program's
        // numbering should not depend on it.
        fresh.sort_by_key(|(fp, _)| *fp);
        let mut tick = || {
            let _ = progress.send(RepairProgress::Building);
        };
        let (batch, embeddings) = merge_embedded(fresh.iter().map(|(_, p)| &**p));
        let (run, state) = (kernel.build)(tree, batch.merged(), &mut tick);
        self.stats.memos_built += 1;
        reply.nodes_recomputed += run.nodes_recomputed;
        reply.work_units += run.work_units;
        let id = self.next_group;
        self.next_group += 1;
        let mut group = Group {
            frag,
            state,
            root: run.triplet.expect("a build reports its triplet"),
            members: Vec::with_capacity(fresh.len()),
        };
        for ((fp, _), proj) in fresh.into_iter().zip(embeddings) {
            let entry = self.cache.get_mut(&(frag, fp)).expect("just listed");
            entry.group = Some(id);
            reply
                .outcomes
                .push(refresh(entry, fp, Some(group.root.project(&proj))));
            group.members.push((fp, proj));
            tick();
        }
        self.stats.repaired += group.members.len() as u64;
        self.groups.insert(id, group);
    }

    fn insert(&mut self, frag: FragmentId, fp: QueryFingerprint, entry: SiteEntry) {
        if self.capacity == 0 {
            return;
        }
        match self.cache.insert((frag, fp), entry) {
            // Replaced in place: the key keeps its FIFO slot, and the
            // new entry waits for the next group like any newcomer.
            Some(old) => self.leave_group(old.group, fp),
            None => self.order.push_back((frag, fp)),
        }
        while self.cache.len() > self.capacity {
            // Entries already removed by invalidation may linger in the
            // order queue; skip them until a live key is found.
            match self.order.pop_front() {
                Some(key) => {
                    if let Some(evicted) = self.cache.remove(&key) {
                        self.stats.evictions += 1;
                        self.leave_group(evicted.group, key.1);
                    }
                }
                None => break,
            }
        }
    }

    /// Takes an evicted entry out of the group that maintained it, and
    /// drops the group with its memo when that was its last member.
    fn leave_group(&mut self, group: Option<u64>, fp: QueryFingerprint) {
        let Some(id) = group else { return };
        let members = &mut self
            .groups
            .get_mut(&id)
            .expect("a group outlives its members")
            .members;
        members.retain(|(member, _)| *member != fp);
        if members.is_empty() {
            self.groups.remove(&id);
        }
    }

    /// Drops every entry of `frag`, its groups included; returns how
    /// many entries.
    fn drop_entries_of(&mut self, frag: FragmentId) -> u64 {
        let before = self.cache.len();
        self.cache.retain(|(f, _), _| *f != frag);
        self.groups.retain(|_, g| g.frag != frag);
        let dropped = (before - self.cache.len()) as u64;
        self.stats.invalidated += dropped;
        dropped
    }
}

/// Puts what a kernel call found for one member into its cache entry
/// and words it for the coordinator: `projected` is the member's
/// triplet after the call, `None` when nothing it reads moved.
fn refresh(
    entry: &mut SiteEntry,
    fingerprint: QueryFingerprint,
    projected: Option<Triplet>,
) -> RepairOutcome {
    let Some(t) = projected.filter(|t| *t != *entry.triplet) else {
        return RepairOutcome {
            fingerprint,
            triplet: Arc::clone(&entry.triplet),
            changed: false,
            delta_bytes: 1, // bare "unchanged" ack
        };
    };
    let delta_bytes = triplet_delta_dag_wire_size(&TripletDelta::diff(&entry.triplet, &t));
    // Replaced in place: the key keeps its FIFO slot.
    entry.triplet = Arc::new(t);
    RepairOutcome {
        fingerprint,
        triplet: Arc::clone(&entry.triplet),
        changed: true,
        delta_bytes,
    }
}

/// The outcome of one supervised evaluation round.
#[derive(Debug)]
pub struct SupervisedRound {
    /// Collected replies, ascending by site. A site that needed a
    /// missing-fragment re-seed may contribute two partial replies.
    pub replies: Vec<EvalReply>,
    /// Sites (with their unanswered fragments) that stayed down past
    /// every attempt. Empty on a healthy round.
    pub failed: Vec<(SiteId, Vec<FragmentId>)>,
    /// Timeout / retry / restart / recovery counters for the round.
    pub stats: FaultSummary,
    /// One entry per re-sent request (for the coordinator's message
    /// accounting: each retry is another visit on the wire).
    pub retry_visits: Vec<SiteId>,
}

/// A pool of resident site workers — one long-lived thread per site,
/// spawned once per deployment and reused across every query, batch and
/// update until the pool is shut down or dropped.
#[derive(Debug)]
pub struct SitePool {
    eval: EvalFn,
    delta: Option<DeltaKernel>,
    capacity: usize,
    plan: FaultPlan,
    senders: BTreeMap<u32, mpsc::Sender<Request>>,
    handles: BTreeMap<u32, JoinHandle<()>>,
    /// Join handles of replaced (restarted) workers. Joined at
    /// shutdown — not at restart time, where a worker sleeping in an
    /// injected delay would stall the coordinator.
    graveyard: Vec<JoinHandle<()>>,
    /// Sites whose last supervised round ended in failure. The stats
    /// path skips them so a wedged actor cannot stall diagnostics; any
    /// successful reply or restart lifts the quarantine.
    quarantined: HashSet<u32>,
    restarts: u64,
}

impl SitePool {
    /// Spawns one worker per site, each owning handles to its fragments'
    /// trees and an empty triplet cache bounded to `cache_capacity`
    /// entries (FIFO eviction; 0 disables caching).
    pub fn spawn(sites: SiteDeployment, cache_capacity: usize, eval: EvalFn) -> SitePool {
        SitePool::spawn_full(sites, cache_capacity, eval, FaultPlan::none(), None)
    }

    /// [`SitePool::spawn`] with a fault-injection plan threaded into
    /// every worker loop (the default [`FaultPlan::none`] is inert) and
    /// an optional [`DeltaKernel`]: with one installed,
    /// [`SitePool::repair`] maintains cached triplets in place, building
    /// each entry's repair state the first time an update reaches it.
    pub fn spawn_full(
        sites: SiteDeployment,
        cache_capacity: usize,
        eval: EvalFn,
        plan: FaultPlan,
        delta: Option<DeltaKernel>,
    ) -> SitePool {
        if !plan.is_inert() {
            install_quiet_panic_hook();
        }
        let mut pool = SitePool {
            eval,
            delta,
            capacity: cache_capacity,
            plan,
            senders: BTreeMap::new(),
            handles: BTreeMap::new(),
            graveyard: Vec::new(),
            quarantined: HashSet::new(),
            restarts: 0,
        };
        for (site, frags) in sites {
            pool.spawn_worker(site, frags);
        }
        pool
    }

    fn spawn_worker(&mut self, site: SiteId, frags: Vec<(FragmentId, Arc<Tree>)>) {
        let (tx, rx) = mpsc::channel();
        let worker = SiteWorker {
            site,
            eval: self.eval,
            delta: self.delta,
            plan: self.plan.clone(),
            wedged: false,
            held: Vec::new(),
            dropped_replies: Vec::new(),
            fragments: frags.into_iter().collect(),
            cache: HashMap::new(),
            order: VecDeque::new(),
            capacity: self.capacity,
            groups: BTreeMap::new(),
            next_group: 0,
            stats: SiteCacheStats::default(),
        };
        let handle = std::thread::Builder::new()
            .name(format!("parbox-site-{}", site.0))
            .spawn(move || worker.run(rx))
            .expect("spawn site worker");
        self.senders.insert(site.0, tx);
        if let Some(old) = self.handles.insert(site.0, handle) {
            self.graveyard.push(old);
        }
    }

    /// Ensures a worker exists for `site` (updates can migrate fragments
    /// to sites that were not part of the initial deployment).
    pub fn ensure_site(&mut self, site: SiteId) {
        if !self.senders.contains_key(&site.0) {
            self.spawn_worker(site, Vec::new());
        }
    }

    /// Tears down the actor for `site` (dead or presumed wedged) and
    /// spawns a replacement seeded with the coordinator's authoritative
    /// fragment handles. The fresh worker starts with empty caches, so
    /// every invalidation the old actor may have missed is trivially
    /// replayed. The old thread exits once its inbox disconnects; its
    /// handle is joined at shutdown.
    pub fn restart_site(&mut self, site: SiteId, frags: Vec<(FragmentId, Arc<Tree>)>) {
        self.senders.remove(&site.0);
        self.quarantined.remove(&site.0);
        self.restarts += 1;
        self.spawn_worker(site, frags);
    }

    /// Lifetime count of worker restarts.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Sites with a resident worker, ascending.
    pub fn sites(&self) -> Vec<SiteId> {
        self.senders.keys().map(|&s| SiteId(s)).collect()
    }

    fn sender(&self, site: SiteId) -> &mpsc::Sender<Request> {
        self.senders
            .get(&site.0)
            .unwrap_or_else(|| panic!("no resident worker for site {site}"))
    }

    /// Sends one evaluation request to `site` on a fresh per-attempt
    /// reply channel. A send error means the actor is dead (its inbox
    /// hung up), which only a panic can cause.
    fn send_eval(
        &self,
        site: SiteId,
        program: &Arc<CompiledQuery>,
        fingerprint: QueryFingerprint,
        frags: &[FragmentId],
    ) -> Option<mpsc::Receiver<EvalReply>> {
        let (tx, rx) = mpsc::channel();
        self.sender(site)
            .send(Request::Eval {
                program: Arc::clone(program),
                fingerprint,
                frags: frags.to_vec(),
                reply: tx,
            })
            .ok()
            .map(|()| rx)
    }

    /// Fans one evaluation round out to the listed sites **in parallel**
    /// (each worker runs concurrently on its own thread) and collects all
    /// replies, in ascending site order. This is the pre-supervision
    /// contract — any site failure is a hard error; serving traffic goes
    /// through [`SitePool::eval_round_supervised`] instead.
    pub fn eval_round(
        &mut self,
        program: &Arc<CompiledQuery>,
        fingerprint: QueryFingerprint,
        per_site: Vec<(SiteId, Vec<FragmentId>)>,
    ) -> Vec<EvalReply> {
        let out = self.eval_round_supervised(
            program,
            fingerprint,
            per_site,
            &SupervisorConfig::strict(),
            &mut |_| Vec::new(),
        );
        assert!(
            out.failed.is_empty(),
            "site worker failed without supervision: {:?}",
            out.failed
        );
        out.replies
    }

    /// The fault-tolerant visit path: fans the round out in parallel,
    /// enforces `cfg.deadline` per request, retries with exponential
    /// backoff + deterministic jitter up to `cfg.max_attempts`, restarts
    /// actors that are dead (send/recv disconnect) or presumed wedged
    /// (`cfg.restart_after_timeouts` consecutive deadlines), and
    /// re-seeds restarted or missing fragments from `reseed` — the
    /// coordinator's authoritative `Arc<Tree>` handles for a site.
    /// Sites still silent after the last attempt are returned in
    /// [`SupervisedRound::failed`] for the caller to degrade around.
    pub fn eval_round_supervised(
        &mut self,
        program: &Arc<CompiledQuery>,
        fingerprint: QueryFingerprint,
        per_site: Vec<(SiteId, Vec<FragmentId>)>,
        cfg: &SupervisorConfig,
        reseed: &mut dyn FnMut(SiteId) -> Vec<(FragmentId, Arc<Tree>)>,
    ) -> SupervisedRound {
        let mut stats = FaultSummary::default();
        let mut retry_visits = Vec::new();
        let mut replies: Vec<EvalReply> = Vec::new();
        let mut pending = per_site;
        let mut consecutive_timeouts: HashMap<u32, u32> = HashMap::new();
        let mut down_since: HashMap<u32, Instant> = HashMap::new();

        for attempt in 1..=cfg.max_attempts {
            if pending.is_empty() {
                break;
            }
            if attempt > 1 {
                std::thread::sleep(cfg.backoff(attempt - 1));
                stats.retries += pending.len() as u64;
                retry_visits.extend(pending.iter().map(|(s, _)| *s));
            }
            // Send phase: everything in flight before anything is awaited,
            // so workers run concurrently. A failed send means the actor
            // already died (e.g. crash-during-apply, detected here).
            let mut waiting = Vec::new();
            let mut next_pending: Vec<(SiteId, Vec<FragmentId>)> = Vec::new();
            for (site, frags) in pending.drain(..) {
                let rx = match self.send_eval(site, program, fingerprint, &frags) {
                    Some(rx) => Some(rx),
                    None => {
                        down_since.entry(site.0).or_insert_with(Instant::now);
                        let seed = reseed(site);
                        stats.reseeded_fragments += seed.len() as u64;
                        self.restart_site(site, seed);
                        stats.restarts += 1;
                        self.send_eval(site, program, fingerprint, &frags)
                    }
                };
                match rx {
                    Some(rx) => waiting.push((site, frags, rx, Instant::now())),
                    None => next_pending.push((site, frags)),
                }
            }
            // Collect phase: one shared deadline per request, measured
            // from its send.
            for (site, frags, rx, sent) in waiting {
                let left = (sent + cfg.deadline).saturating_duration_since(Instant::now());
                match rx.recv_timeout(left) {
                    Ok(mut reply) => {
                        if let Some(since) = down_since.remove(&site.0) {
                            stats.recovery_s.push(since.elapsed().as_secs_f64());
                        }
                        consecutive_timeouts.remove(&site.0);
                        self.quarantined.remove(&site.0);
                        if reply.missing.is_empty() {
                            replies.push(reply);
                            continue;
                        }
                        // Partial reply: keep what arrived, re-seed the
                        // missing fragments, and retry just those.
                        let missing = std::mem::take(&mut reply.missing);
                        if !reply.triplets.is_empty() {
                            replies.push(reply);
                        }
                        let authoritative: HashMap<FragmentId, Arc<Tree>> =
                            reseed(site).into_iter().collect();
                        let mut still = Vec::new();
                        for f in missing {
                            if let Some(tree) = authoritative.get(&f) {
                                stats.reseeded_fragments += 1;
                                self.load(site, f, Arc::clone(tree));
                                still.push(f);
                            }
                            // A fragment the coordinator no longer places
                            // at this site is dropped from the round.
                        }
                        if !still.is_empty() {
                            next_pending.push((site, still));
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        stats.timeouts += 1;
                        down_since.entry(site.0).or_insert(sent);
                        let c = consecutive_timeouts.entry(site.0).or_insert(0);
                        *c += 1;
                        if *c >= cfg.restart_after_timeouts {
                            *c = 0;
                            let seed = reseed(site);
                            stats.reseeded_fragments += seed.len() as u64;
                            self.restart_site(site, seed);
                            stats.restarts += 1;
                        }
                        next_pending.push((site, frags));
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        // The actor dropped the reply sender without
                        // replying: it panicked mid-request.
                        down_since.entry(site.0).or_insert(sent);
                        let seed = reseed(site);
                        stats.reseeded_fragments += seed.len() as u64;
                        self.restart_site(site, seed);
                        stats.restarts += 1;
                        next_pending.push((site, frags));
                    }
                }
            }
            pending = next_pending;
        }
        stats.failed_sites = pending.len() as u64;
        for (site, _) in &pending {
            self.quarantined.insert(site.0);
        }
        replies.sort_by_key(|r| r.site);
        SupervisedRound {
            replies,
            failed: pending,
            stats,
            retry_visits,
        }
    }

    /// Installs (or refreshes) a fragment's tree handle at `site`,
    /// invalidating that fragment's cache entries there. Returns whether
    /// the request was delivered — `false` means the actor is dead and
    /// the caller should [`SitePool::restart_site`] it (the restart
    /// re-seeds from authoritative handles, which subsumes the load).
    pub fn load(&self, site: SiteId, frag: FragmentId, tree: Arc<Tree>) -> bool {
        self.sender(site).send(Request::Load { frag, tree }).is_ok()
    }

    /// Ships an in-place update to `site` and waits for its cached
    /// entries of `frag` to be repaired through the delta kernel.
    /// `deadline` bounds the worker's *silence* (it reports in after
    /// every memo build), not the job. Returns `None` when the actor is
    /// dead, the reply channel disconnects (a crash mid-apply), or the
    /// deadline expires — the caller must then fall back to restart +
    /// invalidate, never trusting a possibly half-repaired cache.
    pub fn repair(
        &self,
        site: SiteId,
        frag: FragmentId,
        patch: PatchFn,
        anchor: NodeId,
        deadline: Duration,
    ) -> Option<RepairReply> {
        let (tx, rx) = mpsc::channel();
        self.senders
            .get(&site.0)?
            .send(Request::Repair {
                frag,
                patch,
                anchor,
                reply: tx,
            })
            .ok()?;
        loop {
            if let RepairProgress::Done(reply) = rx.recv_timeout(deadline).ok()? {
                return Some(reply);
            }
        }
    }

    /// Removes a fragment (and its cache entries) from `site`. Returns
    /// whether the request was delivered, as for [`SitePool::load`].
    pub fn unload(&self, site: SiteId, frag: FragmentId) -> bool {
        self.sender(site).send(Request::Unload { frag }).is_ok()
    }

    /// Snapshot of every site's cache counters. Sites whose last
    /// supervised round failed are skipped (a wedged actor would stall
    /// the stats path); dead actors simply drop out of the snapshot.
    pub fn cache_stats(&self) -> BTreeMap<u32, SiteCacheStats> {
        let mut waiting = Vec::new();
        for (&site, sender) in &self.senders {
            if self.quarantined.contains(&site) {
                continue;
            }
            let (tx, rx) = mpsc::channel();
            if sender.send(Request::Stats { reply: tx }).is_ok() {
                waiting.push((site, rx));
            }
        }
        let mut out = BTreeMap::new();
        for (site, rx) in waiting {
            if let Ok(stats) = rx.recv_timeout(Duration::from_secs(5)) {
                out.insert(site, stats);
            }
        }
        out
    }

    /// Deterministic teardown: closes every inbox (workers drain their
    /// queues and exit) and joins all actor threads, including restarted
    /// workers' predecessors. Returns how many workers had panicked.
    /// Tolerates already-dead actors; never panics. Idempotent.
    pub fn shutdown(&mut self) -> usize {
        self.senders.clear();
        let mut panicked = 0;
        for (_, handle) in std::mem::take(&mut self.handles) {
            if handle.join().is_err() {
                panicked += 1;
            }
        }
        for handle in self.graveyard.drain(..) {
            if handle.join().is_err() {
                panicked += 1;
            }
        }
        panicked
    }
}

impl Drop for SitePool {
    fn drop(&mut self) {
        // Joining a panicked worker yields an `Err` we discard — no
        // second panic during unwind, however the workers died.
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbox_bool::Formula;
    use parbox_query::{compile, parse_query};

    /// A toy kernel: constant triplet, one work unit per program op.
    fn toy_eval(tree: &Tree, q: &CompiledQuery) -> FragmentEval {
        FragmentEval {
            triplet: Triplet {
                v: vec![Formula::constant(tree.len().is_multiple_of(2)); q.len()],
                cv: vec![Formula::FALSE; q.len()],
                dv: vec![Formula::FALSE; q.len()],
            },
            work_units: q.len() as u64,
        }
    }

    fn site_tree(s: u32) -> Arc<Tree> {
        Arc::new(Tree::parse(&format!("<s{s}><a/></s{s}>")).unwrap())
    }

    fn deployment(n_sites: u32) -> SiteDeployment {
        (0..n_sites)
            .map(|s| (SiteId(s), vec![(FragmentId(s), site_tree(s))]))
            .collect()
    }

    fn pool_of(n_sites: u32, capacity: usize) -> SitePool {
        SitePool::spawn(deployment(n_sites), capacity, toy_eval)
    }

    fn chaos_pool(n_sites: u32, plan: FaultPlan) -> SitePool {
        SitePool::spawn_full(deployment(n_sites), 16, toy_eval, plan, None)
    }

    fn program(src: &str) -> Arc<CompiledQuery> {
        Arc::new(compile(&parse_query(src).unwrap()))
    }

    fn q() -> Arc<CompiledQuery> {
        program("[//a]")
    }

    fn test_cfg() -> SupervisorConfig {
        SupervisorConfig {
            deadline: Duration::from_millis(40),
            max_attempts: 4,
            restart_after_timeouts: 2,
            backoff_base: Duration::from_millis(2),
            jitter_seed: 7,
        }
    }

    #[test]
    fn round_reaches_all_sites_in_parallel() {
        let mut pool = pool_of(4, 16);
        let program = q();
        let per_site = (0..4).map(|s| (SiteId(s), vec![FragmentId(s)])).collect();
        let replies = pool.eval_round(&program, program.fingerprint(), per_site);
        assert_eq!(replies.len(), 4);
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(r.site, SiteId(i as u32));
            assert_eq!(r.triplets.len(), 1);
            assert!(!r.triplets[0].2, "first evaluation cannot hit the cache");
            assert_eq!(r.work_units, program.len() as u64);
        }
    }

    #[test]
    fn repeat_fingerprint_hits_cache_and_skips_work() {
        let mut pool = pool_of(2, 16);
        let program = q();
        let per_site: Vec<_> = (0..2).map(|s| (SiteId(s), vec![FragmentId(s)])).collect();
        pool.eval_round(&program, program.fingerprint(), per_site.clone());
        let replies = pool.eval_round(&program, program.fingerprint(), per_site);
        for r in &replies {
            assert!(r.triplets[0].2, "second round must hit");
            assert_eq!(r.work_units, 0);
        }
        let stats = pool.cache_stats();
        assert_eq!(stats[&0].hits, 1);
        assert_eq!(stats[&0].misses, 1);
    }

    #[test]
    fn load_invalidates_only_that_fragment() {
        let tree = Arc::new(Tree::parse("<r><a/></r>").unwrap());
        let sites = vec![(
            SiteId(0),
            vec![(FragmentId(0), Arc::clone(&tree)), (FragmentId(1), tree)],
        )];
        let mut pool = SitePool::spawn(sites, 16, toy_eval);
        let program = q();
        let frags = vec![(SiteId(0), vec![FragmentId(0), FragmentId(1)])];
        pool.eval_round(&program, program.fingerprint(), frags.clone());
        // Refresh fragment 0 only.
        pool.load(
            SiteId(0),
            FragmentId(0),
            Arc::new(Tree::parse("<r><a/><b/></r>").unwrap()),
        );
        let replies = pool.eval_round(&program, program.fingerprint(), frags);
        assert!(!replies[0].triplets[0].2, "refreshed fragment re-evaluates");
        assert!(replies[0].triplets[1].2, "untouched fragment stays cached");
        let stats = pool.cache_stats();
        assert_eq!(stats[&0].invalidated, 1);
    }

    /// What one [`toy_build`] call adds to `nodes_recomputed`; a
    /// [`toy_repair`] adds 1. A reply's total therefore *counts the
    /// kernel calls* behind it — `builds × BUILD + repairs` — without
    /// any state shared between tests.
    const BUILD: u64 = 1000;

    /// Toy delta kernel over [`toy_eval`]: the "state" is just the
    /// width of the (merged) program it is handed; both halves
    /// recompute the constant triplet from the patched tree. Every
    /// sub-query gets the same formula, so the kernel commutes with
    /// projection: a member's share of the merged triplet is what
    /// [`toy_eval`] computes for the member. Work units are the width.
    fn toy_build(
        tree: &Tree,
        q: &CompiledQuery,
        _tick: &mut dyn FnMut(),
    ) -> (RepairedEval, DeltaState) {
        let mut state: DeltaState = Box::new(q.len());
        let run = RepairedEval {
            nodes_recomputed: BUILD,
            ..toy_repair(&mut state, tree, tree.root())
        };
        (run, state)
    }

    fn toy_repair(state: &mut DeltaState, tree: &Tree, _anchor: NodeId) -> RepairedEval {
        let m = *state.downcast_ref::<usize>().expect("toy state");
        RepairedEval {
            triplet: Some(Triplet {
                v: vec![Formula::constant(tree.len().is_multiple_of(2)); m],
                cv: vec![Formula::FALSE; m],
                dv: vec![Formula::FALSE; m],
            }),
            nodes_recomputed: 1,
            work_units: m as u64,
        }
    }

    const TOY_KERNEL: DeltaKernel = DeltaKernel {
        build: toy_build,
        repair: toy_repair,
    };

    fn delta_pool(n_sites: u32) -> SitePool {
        SitePool::spawn_full(
            deployment(n_sites),
            16,
            toy_eval,
            FaultPlan::none(),
            Some(TOY_KERNEL),
        )
    }

    #[test]
    fn repair_patches_cached_triplet_in_place() {
        let mut pool = delta_pool(1);
        let program = q();
        let frags = vec![(SiteId(0), vec![FragmentId(0)])];
        pool.eval_round(&program, program.fingerprint(), frags.clone());

        // <s0><a/></s0> has 2 nodes (even); the patch makes it 3 (odd).
        let anchor = Tree::parse("<s0><a/></s0>").unwrap().root();
        let reply = pool
            .repair(
                SiteId(0),
                FragmentId(0),
                Box::new(|t: &mut Tree| {
                    let root = t.root();
                    t.add_child(root, "b");
                }),
                anchor,
                Duration::from_secs(2),
            )
            .expect("repair reply");
        assert!(reply.patched);
        assert_eq!(reply.dropped, 0);
        assert_eq!(reply.outcomes.len(), 1);
        assert!(reply.outcomes[0].changed);
        assert!(reply.outcomes[0].delta_bytes >= 1);
        assert_eq!(reply.nodes_recomputed, BUILD, "first touch builds the memo");

        // The repaired entry serves the next round as a *hit* with the
        // new triplet — no invalidation, no re-evaluation.
        let replies = pool.eval_round(&program, program.fingerprint(), frags);
        assert!(replies[0].triplets[0].2, "repaired entry stays cached");
        assert_eq!(replies[0].triplets[0].1.v[0], Formula::constant(false));
        let stats = pool.cache_stats();
        assert_eq!(stats[&0].repaired, 1);
        assert_eq!(stats[&0].invalidated, 0);
    }

    #[test]
    fn unchanged_repair_reports_no_delta() {
        let mut pool = delta_pool(1);
        let program = q();
        let frags = vec![(SiteId(0), vec![FragmentId(0)])];
        pool.eval_round(&program, program.fingerprint(), frags.clone());

        // Two inserts keep the node parity even: the triplet is identical.
        let anchor = Tree::parse("<s0><a/></s0>").unwrap().root();
        let reply = pool
            .repair(
                SiteId(0),
                FragmentId(0),
                Box::new(|t: &mut Tree| {
                    let root = t.root();
                    t.add_child(root, "c");
                    t.add_child(root, "d");
                }),
                anchor,
                Duration::from_secs(2),
            )
            .expect("repair reply");
        assert!(!reply.outcomes[0].changed);
        assert_eq!(reply.outcomes[0].delta_bytes, 1, "unchanged = 1-byte ack");
        let replies = pool.eval_round(&program, program.fingerprint(), frags);
        assert!(replies[0].triplets[0].2);
    }

    #[test]
    fn repair_without_kernel_falls_back_to_invalidation() {
        let mut pool = pool_of(1, 16);
        let program = q();
        let frags = vec![(SiteId(0), vec![FragmentId(0)])];
        pool.eval_round(&program, program.fingerprint(), frags.clone());

        let anchor = Tree::parse("<s0><a/></s0>").unwrap().root();
        let reply = pool
            .repair(
                SiteId(0),
                FragmentId(0),
                Box::new(|t: &mut Tree| {
                    let root = t.root();
                    t.add_child(root, "b");
                }),
                anchor,
                Duration::from_secs(2),
            )
            .expect("repair reply");
        assert!(reply.patched);
        assert!(reply.outcomes.is_empty());
        assert_eq!(reply.dropped, 1, "no memo: entry must be invalidated");

        let missing = pool
            .repair(
                SiteId(0),
                FragmentId(9),
                Box::new(|_t: &mut Tree| {}),
                anchor,
                Duration::from_secs(2),
            )
            .expect("repair reply");
        assert!(!missing.patched, "unknown fragment cannot be patched");
        assert!(missing.outcomes.is_empty());

        let replies = pool.eval_round(&program, program.fingerprint(), frags);
        assert!(!replies[0].triplets[0].2, "entry was dropped, so re-eval");
        assert_eq!(replies[0].triplets[0].1.v[0], Formula::constant(false));
        let stats = pool.cache_stats();
        assert_eq!(stats[&0].repaired, 0);
        assert_eq!(stats[&0].invalidated, 1);
    }

    /// One site with the toy kernel, owning fragments 0 and 1, both
    /// `<r><a/></r>` (2 nodes, so [`toy_eval`] answers `true`).
    fn two_fragment_pool(capacity: usize) -> SitePool {
        let tree = Arc::new(Tree::parse("<r><a/></r>").unwrap());
        let frags = vec![(FragmentId(0), Arc::clone(&tree)), (FragmentId(1), tree)];
        let sites = vec![(SiteId(0), frags)];
        SitePool::spawn_full(
            sites,
            capacity,
            toy_eval,
            FaultPlan::none(),
            Some(TOY_KERNEL),
        )
    }

    /// Repairs `frag` at site 0 with a patch appending `n` children to
    /// the root: the toy triplet flips iff `n` is odd.
    fn grow(pool: &SitePool, frag: u32, n: usize) -> RepairReply {
        let patch = Box::new(move |t: &mut Tree| {
            let root = t.root();
            for _ in 0..n {
                t.add_child(root, "x");
            }
        });
        let anchor = Tree::parse("<r/>").unwrap().root();
        pool.repair(
            SiteId(0),
            FragmentId(frag),
            patch,
            anchor,
            Duration::from_secs(2),
        )
        .expect("repair reply")
    }

    fn fingerprints(reply: &RepairReply) -> Vec<QueryFingerprint> {
        let mut fps: Vec<_> = reply.outcomes.iter().map(|o| o.fingerprint).collect();
        fps.sort();
        fps
    }

    #[test]
    fn reads_build_no_memos() {
        let mut pool = two_fragment_pool(16);
        let both = vec![(SiteId(0), vec![FragmentId(0), FragmentId(1)])];
        for src in ["[//a]", "[//b]", "[//a]", "[//c]", "[//b]"] {
            let p = program(src);
            pool.eval_round(&p, p.fingerprint(), both.clone());
        }
        let stats = &pool.cache_stats()[&0];
        assert_eq!((stats.entries, stats.hits, stats.misses), (6, 4, 6));
        assert_eq!(stats.memos_built, 0, "no update, no memo");
    }

    /// Width of the program a group of these members is maintained
    /// under — what [`toy_build`] and [`toy_repair`] report as work.
    fn merged_width(members: &[&Arc<CompiledQuery>]) -> u64 {
        merge_embedded(members.iter().map(|p| &***p)).0.merged_len() as u64
    }

    #[test]
    fn first_update_builds_the_touched_fragments_memos_and_later_ones_repair() {
        let mut pool = two_fragment_pool(16);
        let both = vec![(SiteId(0), vec![FragmentId(0), FragmentId(1)])];
        let (a, b) = (program("[//a]"), program("[//b]"));
        for p in [&a, &b] {
            pool.eval_round(p, p.fingerprint(), both.clone());
        }
        let mut cached = vec![a.fingerprint(), b.fingerprint()];
        cached.sort();

        // The first update to reach fragment 0 builds one memo for its
        // two entries — one kernel call on their merged program, where
        // there used to be a build per entry — on the patched tree (3
        // nodes: the triplets flip), and still reports an outcome per
        // entry, like any repair.
        let first = grow(&pool, 0, 1);
        assert!(first.patched);
        assert_eq!(first.dropped, 0);
        assert_eq!(first.nodes_recomputed, BUILD, "one build, no repair");
        assert_eq!(first.work_units, merged_width(&[&a, &b]));
        assert_eq!(fingerprints(&first), cached);
        for o in &first.outcomes {
            assert!(o.changed && o.delta_bytes > 1);
            assert_eq!(o.triplet.len(), a.len(), "projected to the member");
            assert_eq!(o.triplet.v[0], Formula::constant(false));
        }
        let stats = &pool.cache_stats()[&0];
        assert_eq!((stats.memos_built, stats.repaired), (1, 2));
        assert_eq!((stats.groups, stats.invalidated), (1, 0));

        // The second builds nothing: one repair call for the group,
        // not one per entry. Two more nodes keep the parity, so nothing
        // changed.
        let second = grow(&pool, 0, 2);
        assert_eq!(second.nodes_recomputed, 1, "one repair, no build");
        assert_eq!(fingerprints(&second), cached);
        assert!(second
            .outcomes
            .iter()
            .all(|o| !o.changed && o.delta_bytes == 1));
        let stats = &pool.cache_stats()[&0];
        assert_eq!((stats.memos_built, stats.repaired), (1, 4));

        // Fragment 1 was left alone: its entries still serve the
        // original triplet, and its own first update builds its group.
        let replies = pool.eval_round(&a, a.fingerprint(), both);
        let served = &replies[0].triplets;
        assert!(served.iter().all(|(_, _, hit)| *hit));
        assert_eq!(served[0].1.v[0], Formula::constant(false));
        assert_eq!(served[1].1.v[0], Formula::constant(true));
        assert_eq!(grow(&pool, 1, 1).nodes_recomputed, BUILD);
        let stats = &pool.cache_stats()[&0];
        assert_eq!((stats.memos_built, stats.groups), (2, 2));
    }

    #[test]
    fn evicted_entry_takes_its_program_and_memo_with_it() {
        let mut pool = two_fragment_pool(2);
        let one = vec![(SiteId(0), vec![FragmentId(0)])];
        let (a, b, c) = (program("[//a]"), program("[//b]"), program("[//c]"));
        for p in [&a, &b] {
            pool.eval_round(p, p.fingerprint(), one.clone());
        }
        // One group for `a` and `b`: a single build.
        assert_eq!(grow(&pool, 0, 1).nodes_recomputed, BUILD);
        // `c` pushes `a` — triplet, program and its place in the group —
        // out of the FIFO. The group lives on for `b`.
        pool.eval_round(&c, c.fingerprint(), one);
        let reply = grow(&pool, 0, 1);
        let mut live = vec![b.fingerprint(), c.fingerprint()];
        live.sort();
        assert_eq!(fingerprints(&reply), live, "the evicted entry is gone");
        assert_eq!(reply.nodes_recomputed, BUILD + 1, "repair b's, build c's");
        assert_eq!(reply.dropped, 0);
        let stats = &pool.cache_stats()[&0];
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        // Two builds, where a memo per entry took three.
        assert_eq!((stats.memos_built, stats.groups), (2, 2));
    }

    #[test]
    fn entries_arriving_between_two_updates_form_the_next_group() {
        let mut pool = two_fragment_pool(16);
        let one = vec![(SiteId(0), vec![FragmentId(0)])];
        let (a, b, c) = (program("[//a]"), program("[//b]"), program("[//c]"));
        pool.eval_round(&a, a.fingerprint(), one.clone());
        assert_eq!(grow(&pool, 0, 1).work_units, merged_width(&[&a]));
        for p in [&b, &c] {
            pool.eval_round(p, p.fingerprint(), one.clone());
        }
        // `a`'s group is repaired as it stands, never rebuilt around the
        // newcomers: they get a build of their own, sized by them alone.
        let reply = grow(&pool, 0, 1);
        assert_eq!(reply.nodes_recomputed, 1 + BUILD);
        assert_eq!(
            reply.work_units,
            merged_width(&[&a]) + merged_width(&[&b, &c])
        );
        assert_eq!(reply.outcomes.len(), 3);
        let stats = &pool.cache_stats()[&0];
        assert_eq!((stats.memos_built, stats.groups), (2, 2));
        // From here on: two repair calls per update, for three entries.
        let reply = grow(&pool, 0, 1);
        assert_eq!((reply.nodes_recomputed, reply.outcomes.len()), (2, 3));
    }

    #[test]
    fn a_group_whose_members_were_all_evicted_is_dropped() {
        let mut pool = two_fragment_pool(2);
        let one = vec![(SiteId(0), vec![FragmentId(0)])];
        let cached: Vec<_> = ["[//a]", "[//b]", "[//c]", "[//d]"]
            .into_iter()
            .map(program)
            .collect();
        for p in &cached[..2] {
            pool.eval_round(p, p.fingerprint(), one.clone());
        }
        grow(&pool, 0, 1);
        assert_eq!(pool.cache_stats()[&0].groups, 1);
        for p in &cached[2..] {
            pool.eval_round(p, p.fingerprint(), one.clone());
        }
        // Both members went the way of the FIFO, and the memo with the
        // second: nothing is left to repair, only the newcomers to build.
        assert_eq!(pool.cache_stats()[&0].groups, 0);
        let reply = grow(&pool, 0, 1);
        assert_eq!(reply.nodes_recomputed, BUILD, "no repair call");
        assert_eq!(reply.outcomes.len(), 2);
        assert_eq!(pool.cache_stats()[&0].groups, 1);
        // A reload drops the fragment's groups with its entries.
        pool.load(SiteId(0), FragmentId(0), site_tree(0));
        let stats = &pool.cache_stats()[&0];
        assert_eq!((stats.entries, stats.groups), (0, 0));
    }

    #[test]
    fn evicted_and_reinserted_fingerprint_gets_one_outcome() {
        let mut pool = two_fragment_pool(3);
        let one = vec![(SiteId(0), vec![FragmentId(0)])];
        let cached: Vec<_> = ["[//a]", "[//b]", "[//c]", "[//d]"]
            .into_iter()
            .map(program)
            .collect();
        let (a, c, d) = (&cached[0], &cached[2], &cached[3]);
        for p in &cached[..3] {
            pool.eval_round(p, p.fingerprint(), one.clone());
        }
        grow(&pool, 0, 1);
        // `d` evicts `a`, `a` comes back and evicts `b`: the first group
        // keeps `c` alone, and `a` waits with `d` for the next one.
        for p in [d, a] {
            pool.eval_round(p, p.fingerprint(), one.clone());
        }
        let reply = grow(&pool, 0, 1);
        let mut live = vec![a.fingerprint(), c.fingerprint(), d.fingerprint()];
        live.sort();
        assert_eq!(fingerprints(&reply), live, "one outcome per entry");
        assert_eq!(reply.nodes_recomputed, 1 + BUILD);
        // A group is never rebuilt, around newcomers or without the
        // departed: the first still evaluates what it was built for.
        let first_group = merged_width(&[a, &cached[1], c]);
        assert_eq!(reply.work_units, first_group + merged_width(&[a, d]));
        // All three carry the triplet of the tree as it stands.
        let even = Formula::constant(true);
        assert!(reply.outcomes.iter().all(|o| o.triplet.v[0] == even));
    }

    #[test]
    fn repair_deadline_bounds_the_workers_silence_not_the_job() {
        const ENTRIES: usize = 128;
        // One build serves every entry now, so it is the kernel that
        // has to report in: the worker can no longer do it between
        // per-entry builds.
        fn ticking_build(
            tree: &Tree,
            q: &CompiledQuery,
            tick: &mut dyn FnMut(),
        ) -> (RepairedEval, DeltaState) {
            for _ in 0..ENTRIES {
                std::thread::sleep(Duration::from_millis(4));
                tick();
            }
            toy_build(tree, q, tick)
        }
        fn silent_build(
            tree: &Tree,
            q: &CompiledQuery,
            tick: &mut dyn FnMut(),
        ) -> (RepairedEval, DeltaState) {
            std::thread::sleep(Duration::from_millis(400));
            toy_build(tree, q, tick)
        }
        let pool_with = |build: BuildFn| {
            let kernel = DeltaKernel {
                build,
                repair: toy_repair,
            };
            let plan = FaultPlan::none();
            let mut pool =
                SitePool::spawn_full(deployment(1), ENTRIES, toy_eval, plan, Some(kernel));
            let frags = vec![(SiteId(0), vec![FragmentId(0)])];
            for i in 0..ENTRIES {
                let p = program(&format!("[//l{i}]"));
                pool.eval_round(&p, p.fingerprint(), frags.clone());
            }
            pool
        };
        let anchor = Tree::parse("<r/>").unwrap().root();
        let repair = |pool: &SitePool, deadline| {
            let patch = Box::new(|_t: &mut Tree| {});
            pool.repair(SiteId(0), FragmentId(0), patch, anchor, deadline)
        };

        // 128 pauses of at least 4 ms each outlast the 500 ms deadline
        // (a sleep never returns early), yet the worker is never silent
        // for more than one of them — 1 % of the deadline, so a loaded
        // host has ~495 ms of scheduling slack per tick.
        let pool = pool_with(ticking_build);
        let (deadline, start) = (Duration::from_millis(500), Instant::now());
        let reply = repair(&pool, deadline).expect("a site at work is not a dead site");
        assert!(
            start.elapsed() > deadline,
            "the job must outlast the deadline"
        );
        assert_eq!(reply.nodes_recomputed, BUILD, "one build for all of them");
        assert_eq!(reply.outcomes.len(), ENTRIES);

        // A build that never reports in is a silent site, however hard
        // it works: the caller gives up on it at the deadline.
        let pool = pool_with(silent_build);
        assert!(repair(&pool, Duration::from_millis(100)).is_none());
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let mut pool = pool_of(1, 1);
        let a = Arc::new(compile(&parse_query("[//a]").unwrap()));
        let b = Arc::new(compile(&parse_query("[//b]").unwrap()));
        let frags = vec![(SiteId(0), vec![FragmentId(0)])];
        pool.eval_round(&a, a.fingerprint(), frags.clone());
        pool.eval_round(&b, b.fingerprint(), frags.clone());
        // `a` was evicted to make room for `b`.
        let replies = pool.eval_round(&a, a.fingerprint(), frags);
        assert!(!replies[0].triplets[0].2);
        let stats = pool.cache_stats();
        assert!(stats[&0].evictions >= 1);
        assert_eq!(stats[&0].entries, 1);
    }

    #[test]
    fn ensure_site_spawns_new_workers() {
        let mut pool = pool_of(1, 4);
        assert_eq!(pool.sites(), vec![SiteId(0)]);
        pool.ensure_site(SiteId(7));
        pool.ensure_site(SiteId(7)); // idempotent
        assert_eq!(pool.sites(), vec![SiteId(0), SiteId(7)]);
        pool.load(
            SiteId(7),
            FragmentId(3),
            Arc::new(Tree::parse("<m><a/></m>").unwrap()),
        );
        let program = q();
        let replies = pool.eval_round(
            &program,
            program.fingerprint(),
            vec![(SiteId(7), vec![FragmentId(3)])],
        );
        assert_eq!(replies[0].site, SiteId(7));
    }

    #[test]
    fn supervised_round_with_inert_plan_matches_legacy() {
        let mut pool = pool_of(3, 16);
        let program = q();
        let per_site: Vec<_> = (0..3).map(|s| (SiteId(s), vec![FragmentId(s)])).collect();
        let out = pool.eval_round_supervised(
            &program,
            program.fingerprint(),
            per_site,
            &test_cfg(),
            &mut |_| Vec::new(),
        );
        assert_eq!(out.replies.len(), 3);
        assert!(out.failed.is_empty());
        assert!(!out.stats.any(), "healthy round records no fault activity");
        assert!(out.retry_visits.is_empty());
    }

    #[test]
    fn injected_panic_restarts_the_actor_and_the_round_recovers() {
        let plan = FaultPlan::scripted(vec![(0, 0, FaultKind::Panic)], Duration::ZERO);
        let mut pool = chaos_pool(2, plan);
        let program = q();
        let per_site: Vec<_> = (0..2).map(|s| (SiteId(s), vec![FragmentId(s)])).collect();
        let out = pool.eval_round_supervised(
            &program,
            program.fingerprint(),
            per_site,
            &test_cfg(),
            &mut |s| vec![(FragmentId(s.0), site_tree(s.0))],
        );
        assert_eq!(out.replies.len(), 2, "round completes despite the panic");
        assert!(out.failed.is_empty());
        assert_eq!(out.stats.restarts, 1);
        assert_eq!(out.stats.recovery_s.len(), 1, "recovery time was measured");
        assert_eq!(pool.restarts(), 1);
        // The replacement actor answers the next round directly.
        let again = pool.eval_round_supervised(
            &program,
            program.fingerprint(),
            vec![(SiteId(0), vec![FragmentId(0)])],
            &test_cfg(),
            &mut |_| Vec::new(),
        );
        assert!(again.failed.is_empty() && !again.stats.any());
        assert_eq!(pool.shutdown(), 1, "exactly the killed worker panicked");
    }

    #[test]
    fn wedged_actor_times_out_twice_then_restarts() {
        let plan = FaultPlan::scripted(vec![(1, 0, FaultKind::Wedge)], Duration::ZERO);
        let mut pool = chaos_pool(2, plan);
        let program = q();
        let per_site: Vec<_> = (0..2).map(|s| (SiteId(s), vec![FragmentId(s)])).collect();
        let out = pool.eval_round_supervised(
            &program,
            program.fingerprint(),
            per_site,
            &test_cfg(),
            &mut |s| vec![(FragmentId(s.0), site_tree(s.0))],
        );
        assert!(out.failed.is_empty(), "wedge is recovered within the round");
        assert!(out.stats.timeouts >= 2, "deadline expired before restart");
        assert_eq!(out.stats.restarts, 1);
        assert!(out.stats.retries >= 1);
        assert!(out.retry_visits.contains(&SiteId(1)));
        assert_eq!(pool.shutdown(), 0, "a wedged worker exits cleanly");
    }

    #[test]
    fn dropped_envelope_costs_one_timeout_but_no_restart() {
        let plan = FaultPlan::scripted(vec![(0, 0, FaultKind::DropEnvelope)], Duration::ZERO);
        let mut pool = chaos_pool(1, plan);
        let program = q();
        let out = pool.eval_round_supervised(
            &program,
            program.fingerprint(),
            vec![(SiteId(0), vec![FragmentId(0)])],
            &test_cfg(),
            &mut |_| Vec::new(),
        );
        assert!(out.failed.is_empty());
        assert_eq!(out.stats.timeouts, 1);
        assert_eq!(out.stats.restarts, 0, "one lost envelope is just a retry");
        assert_eq!(out.stats.retries, 1);
    }

    #[test]
    fn missing_fragment_is_reseeded_instead_of_crashing_the_actor() {
        // Site 0 starts *empty*; the round asks it for fragment 5.
        let mut pool = SitePool::spawn(vec![(SiteId(0), Vec::new())], 16, toy_eval);
        let program = q();
        let tree = Arc::new(Tree::parse("<m><a/></m>").unwrap());
        let out = pool.eval_round_supervised(
            &program,
            program.fingerprint(),
            vec![(SiteId(0), vec![FragmentId(5)])],
            &test_cfg(),
            &mut |_| vec![(FragmentId(5), Arc::clone(&tree))],
        );
        assert!(out.failed.is_empty());
        assert_eq!(out.stats.reseeded_fragments, 1);
        let served: Vec<_> = out
            .replies
            .iter()
            .flat_map(|r| r.triplets.iter().map(|(f, _, _)| *f))
            .collect();
        assert_eq!(served, vec![FragmentId(5)]);
        assert_eq!(pool.shutdown(), 0, "the actor never panicked");
    }

    #[test]
    fn site_down_past_every_attempt_fails_the_round_not_the_process() {
        let plan = FaultPlan::scripted(vec![(0, 0, FaultKind::Wedge)], Duration::ZERO);
        let mut pool = chaos_pool(2, plan);
        let program = q();
        let cfg = SupervisorConfig {
            deadline: Duration::from_millis(15),
            max_attempts: 2,
            restart_after_timeouts: u32::MAX, // never restart: stays wedged
            backoff_base: Duration::from_millis(1),
            jitter_seed: 7,
        };
        let per_site: Vec<_> = (0..2).map(|s| (SiteId(s), vec![FragmentId(s)])).collect();
        let out = pool.eval_round_supervised(
            &program,
            program.fingerprint(),
            per_site,
            &cfg,
            &mut |_| Vec::new(),
        );
        assert_eq!(out.replies.len(), 1, "the healthy site still answered");
        assert_eq!(out.failed.len(), 1);
        assert_eq!(out.failed[0].0, SiteId(0));
        assert_eq!(out.stats.failed_sites, 1);
        // The quarantined wedged site is skipped by the stats path —
        // this returns promptly instead of stalling on the dead actor.
        let stats = pool.cache_stats();
        assert!(stats.contains_key(&1) && !stats.contains_key(&0));
        assert_eq!(pool.shutdown(), 0);
    }

    #[test]
    fn shutdown_after_panics_is_quiet_and_idempotent() {
        let plan = FaultPlan::scripted(
            vec![(0, 0, FaultKind::Panic), (1, 0, FaultKind::Panic)],
            Duration::ZERO,
        );
        let mut pool = chaos_pool(2, plan);
        let program = q();
        // Kill both workers; no supervision, so collect nothing.
        for s in 0..2 {
            let _ = pool.send_eval(SiteId(s), &program, program.fingerprint(), &[FragmentId(s)]);
        }
        // Give the panics a moment to land before joining.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(pool.shutdown(), 2);
        assert_eq!(pool.shutdown(), 0, "second shutdown is a no-op");
        drop(pool); // Drop after shutdown must not double-panic.
    }
}
