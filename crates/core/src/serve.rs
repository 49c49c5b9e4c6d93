//! The resident serving engine: an owned, long-lived deployment that
//! answers a *stream* of queries and updates instead of one-shot calls.
//!
//! Every algorithm in [`crate::algorithms`] borrows a
//! [`parbox_net::Cluster`] and spawns a fresh scoped thread per site per
//! query. [`Engine`] instead **owns** its deployment: each site is a
//! persistent worker thread ([`parbox_net::SitePool`]) holding shared
//! handles to its fragments, spawned once and reused for millions of
//! requests. On top of the resident substrate it layers:
//!
//! * an **admission queue** — submitted queries coalesce into one
//!   [`parbox_query::QueryBatch`] per round (under a configurable
//!   batching window / batch-size bound), so the data plane answers a
//!   whole batch with one visit per site under online traffic;
//! * a two-level **triplet cache** keyed by `(FragmentId,`
//!   [`QueryFingerprint`]`)` — each site worker memoizes the triplets it
//!   computed (skipping `bottomUp` on a repeat), and the coordinator
//!   memoizes the triplets it received per *member* fingerprint, so a
//!   repeated query is re-solved locally with **zero data-plane
//!   messages**;
//! * **update routing** — [`Engine::apply`] mutates the document
//!   through [`crate::views::apply_update_to_forest`] and repairs (or,
//!   for structural updates, invalidates) only the touched fragment's
//!   cache entries, at both levels, keeping every cached triplet
//!   consistent with the document. With [`Engine::subscribe`] this is
//!   the repository's one implementation of the paper's Section 5
//!   incremental view maintenance.
//!
//! Reads and maintenance are priced apart. A site answers every miss
//! with plain `bottomUp` and caches the triplet with its program; the
//! per-node repair memo ([`IncrementalBottomUp`], a few `bottomUp`s to
//! build and `8·|QList|` bytes per document node) is built **when the
//! first update reaches the fragment**, inside that [`Engine::apply`]:
//! *one* memo, under the merged program of all the entries then cached
//! on the fragment, which every later update repairs once — by change
//! propagation that stops at the first path node whose vectors come out
//! as they were — whatever the number of entries reading it. Entries
//! cached later are the next update's group. The rule has no flag, no
//! counter and no rebuild threshold, so ad-hoc queries and
//! subscriptions stay one code path. Its cost model: a read-only stream
//! builds nothing; an update costs one repair per group of its
//! fragment, sized by the change and not by the fragment or the number
//! of watchers; the first update to a fragment pays one build of `live
//! nodes × |merged QList|` — never more than a build per entry — and
//! that work is reported as repair cost
//! ([`EngineStats::repair_nodes_recomputed`]). The kernel reports in
//! from inside the build, so the supervision deadline bounds the site's
//! silence and a long first update is not taken for a wedge.
//!
//! Batch evaluation merges the round's distinct member queries into one
//! program. The coordinator never rebuilds a per-member triplet: it
//! caches, under each member's own fingerprint, the merged triplets the
//! sites sent, each with the member's structural embedding
//! ([`CompiledQuery::embedding_into`]) into that merged program — so a
//! query repeated *across different batches* still hits, and one
//! round's members share one copy of every triplet. A member is
//! answered by **evaluating** them in three-valued logic
//! ([`parbox_bool::KleeneRows`]): the root fragment's `V` entry of the
//! member's root sub-query, folding only the entries it reads, each
//! read through the member's projection and each variable through the
//! projection's inverse, with a fragment not gathered yet unknown.
//! That solve is the engine's only one: it answers a member with full
//! coverage and decides whether a partial one is already certain. A
//! member that three-valued (Kleene) evaluation does not decide gets no
//! answer.
//!
//! # The round pipeline
//!
//! Every admission round runs the same stages, each a small function
//! with explicit inputs and outputs: `coalesce` (members by
//! fingerprint) → `answer_from_cache` → `merge_active` → `wave` (every
//! fragment some member lacks, by site) and the round's `plan` →
//! `dispatch_wave` → `absorb_replies` (identical triplets of the wave
//! share one `Arc`) → `project_into_entries` (hands each open member
//! the merged triplets with its projection; `Arc` clones only) →
//! `attempt` (one member solve each) → `leave_open` → `evict` →
//! `account`. A round is the paper's ParBoX for one member and its
//! batched form for several: every site is visited at most once,
//! unless supervision retries it.
//! LazyParBoX's depth-by-depth waves pay only when shallow fragments
//! decide the answer, which no earlier round predicts, so it stays a
//! one-shot strategy ([`crate::algorithms::lazy_parbox`]). `attempt`
//! is the certain-answer test: true, or false, under every content of
//! the fragments that did not arrive, as far as three-valued (Kleene)
//! evaluation decides; a member it leaves open (a site
//! stayed down past every supervised attempt) goes out `Partial`, with
//! no answer.
//!
//! A round is priced once, by one schedule
//! (`crate::algorithms::batch_schedule`, ParBoX's batched): the stages
//! only record sizes — the request per site and each retry and reseed
//! (`dispatch_wave`, the only path to the data plane), each reply's
//! work and envelope bytes (`absorb_replies`; each remote site sizes
//! its own envelope, the coordinator's is never sized), each
//! coordinator solve's work (`answer_from_cache`, `attempt`) — and
//! `account` charges them through the schedule, adding only clock
//! readings. The plan is the same schedule over predicted sizes, so on
//! a healthy round its visits, messages and work units are the ones
//! charged.

use crate::algorithms::{
    batch_query_wire_size, batch_schedule, certain_answer, ReplySize, RoundSizes,
};
use crate::eval::{bottom_up, IncrementalBottomUp};
use crate::plan::{compute_s, estimated_envelope_bytes, predicted_size};
use crate::views::{apply_update_tracked, FragmentDelta, Update, UpdateEffect, ViewError};
use parbox_bool::Triplet;
use parbox_frag::{Forest, ForestStats, FragError, Placement, SiteId};
use parbox_net::engine::{
    DeltaMemo, EvalReply, FragmentEval, PatchFn, RepairOutcome, RepairedEval, SiteCacheStats,
    SitePool,
};
use parbox_net::{CostEstimate, FaultPlan, FaultSummary, MessageKind, NetworkModel, PlanSummary};
use parbox_net::{RepairEfficacy, RunReport, SupervisorConfig};
use parbox_query::{compile, merge_programs, CompiledQuery, Query, QueryFingerprint, SubId};
use parbox_xml::{FragmentId, NodeId, Tree};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wire size of an update notification (coordinator → owning site):
/// opcode + fragment id + node id + a small payload descriptor.
const UPDATE_CONTROL_BYTES: usize = 16;

/// Configuration of a resident [`Engine`].
///
/// Maintenance has no switch: a data update always repairs the cached
/// triplets of its fragment in place, and a split or merge invalidates
/// the stale fragments ([`Engine::apply`]).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Network cost model for the report accounting.
    pub model: NetworkModel,
    /// Admission flushes a round once this many queries are pending…
    pub max_batch: usize,
    /// …or once the oldest pending submission has waited this long
    /// (checked by [`Engine::poll`]).
    pub batch_window: Duration,
    /// Per-site triplet cache capacity, in entries (FIFO eviction;
    /// 0 disables site-side caching). An entry is a triplet and a handle
    /// to its program; once an update reaches its fragment it also
    /// shares, with the entries cached beside it then, one repair memo
    /// of `8·|merged QList|` bytes per document node, so the capacity
    /// bounds the program a fragment's first update has to build under.
    /// (The 4.7 GB that 2 200 distinct queries on a 512 KiB document
    /// once cost at this default were memos of a read-only stream, which
    /// no longer exist.)
    pub site_cache_capacity: usize,
    /// Coordinator-side solve cache capacity, in distinct query
    /// fingerprints (FIFO eviction; 0 disables coordinator caching).
    /// [`Engine::new`] allocates the table for this many up front.
    pub solve_cache_fingerprints: usize,
    /// Deterministic fault injection threaded into the site workers.
    /// The default plan is inert: zero faults and zero overhead on the
    /// worker hot path.
    pub fault_plan: FaultPlan,
    /// Supervision policy (deadline, retries, backoff) for data-plane
    /// rounds. `None` derives one from the network model via
    /// [`SupervisorConfig::from_model`].
    pub supervisor: Option<SupervisorConfig>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            model: NetworkModel::lan(),
            max_batch: 32,
            batch_window: Duration::from_millis(1),
            site_cache_capacity: 4096,
            solve_cache_fingerprints: 512,
            fault_plan: FaultPlan::none(),
            supervisor: None,
        }
    }
}

/// Whether a ticket got an answer.
///
/// Under fault injection, sites can stay down past every supervised
/// retry. The engine then answers from what it has: the member solve
/// reads the missing fragments as unknown, and if three-valued (Kleene)
/// evaluation still decides the answer, it holds under any content of
/// those fragments and is reported `Complete`. Otherwise the ticket is
/// [`Completeness::Partial`], with no answer and the sites whose
/// fragments were unavailable. An answer is never wrong, but a
/// `Partial` ticket may have one answer under every completion: Kleene
/// evaluation does not decide `[//B or not //B]` without `//B`'s
/// fragments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completeness {
    /// The answer is exact — full coverage, or certain despite gaps.
    Complete,
    /// No answer: three-valued (Kleene) evaluation does not decide it
    /// without the missing fragments, so the ticket has none.
    Partial {
        /// Sites whose fragments were unavailable, ascending, deduped.
        missing_sites: Vec<SiteId>,
    },
}

impl Completeness {
    /// True for [`Completeness::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }
}

/// Handle identifying one submitted query within its engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(pub u64);

/// Handle identifying one standing query ([`Engine::subscribe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

/// An answer flip pushed to a standing query: delivered with the
/// [`UpdateOutcome`] of the update that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notification {
    /// Which subscription flipped.
    pub subscription: SubscriptionId,
    /// The new answer.
    pub answer: bool,
}

/// One standing query: its compiled program and the last answer pushed
/// to the subscriber (`None` until one was certain). The subscription
/// pins its solve-cache entry against FIFO eviction, so refreshing
/// after an update is a local re-solve (or free, when delta repair
/// certified the entry unchanged).
#[derive(Debug)]
struct Subscription {
    query: CompiledQuery,
    fp: QueryFingerprint,
    last: Option<bool>,
}

/// Result of one admission round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// `(ticket, answer)` for every ticket of the round with a certain
    /// answer, in submission order. The round's other tickets are in
    /// [`RoundOutcome::partial`].
    pub answers: Vec<(Ticket, bool)>,
    /// Cost accounting of the whole round.
    pub report: RunReport,
    /// Distinct query programs in the round (duplicates coalesce).
    pub members: usize,
    /// Members answered entirely from the coordinator's triplet cache —
    /// zero data-plane messages, no site left idle-less.
    pub members_from_cache: usize,
    /// Fragments whose triplets were requested from sites this round.
    pub fragments_evaluated: usize,
    /// Requested triplets the sites served from their own caches
    /// (shipping the cached triplet instead of re-running `bottomUp`).
    pub site_cache_hits: usize,
    /// Tickets with no certain answer, ascending, each with the sites
    /// that stayed down. Empty in a healthy round. Every ticket of the
    /// round is in exactly one of this and [`RoundOutcome::answers`].
    pub partial: Vec<(Ticket, Vec<SiteId>)>,
}

impl RoundOutcome {
    /// Completeness of one ticket's answer in this round.
    pub fn completeness(&self, ticket: Ticket) -> Completeness {
        match self.partial.iter().find(|(t, _)| *t == ticket) {
            Some((_, missing)) => Completeness::Partial {
                missing_sites: missing.clone(),
            },
            None => Completeness::Complete,
        }
    }
}

/// Result of [`Engine::query`], the single-query convenience path.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The Boolean answer; `None` when the query is
    /// [`Completeness::Partial`].
    pub answer: Option<bool>,
    /// Cost accounting of the (single-member) round.
    pub report: RunReport,
    /// True when the answer came entirely from the coordinator cache.
    pub from_cache: bool,
    /// Whether the query got an answer.
    pub completeness: Completeness,
}

/// Result of [`Engine::apply`].
#[derive(Debug)]
pub struct UpdateOutcome {
    /// Queries that were still pending when the update arrived are
    /// answered first, against the pre-update document.
    pub flushed: Option<RoundOutcome>,
    /// Which fragments the update touched / added / removed.
    pub effect: UpdateEffect,
    /// Cost accounting of the maintenance step (control traffic plus any
    /// shipped subtree on a cross-site split).
    pub report: RunReport,
    /// Cache entries invalidated by the update and left for
    /// recomputation (site + coordinator levels on the repair path;
    /// coordinator entries on the invalidation path).
    pub invalidated: usize,
    /// Cache entries repaired in place — or certified unchanged — by
    /// delta maintenance, across both cache levels. 0 on the
    /// invalidation path.
    pub repaired: usize,
    /// Standing queries whose answers flipped under this update, in
    /// subscription order.
    pub notifications: Vec<Notification>,
}

/// Running counters of an engine's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Admission rounds flushed.
    pub rounds: u64,
    /// Queries served, with or without an answer.
    pub queries: u64,
    /// Distinct members evaluated through the data plane.
    pub members_evaluated: u64,
    /// Members answered from the coordinator cache.
    pub members_from_cache: u64,
    /// Per-fragment evaluations requested from sites.
    pub fragments_evaluated: u64,
    /// Requested triplets served from site-side caches.
    pub site_cache_hits: u64,
    /// Updates applied.
    pub updates: u64,
    /// Supervised request timeouts (deadline expiries) observed.
    pub timeouts: u64,
    /// Supervised retry attempts beyond each round's first.
    pub retries: u64,
    /// Site actors restarted (after a panic, wedge, or dead inbox).
    pub restarts: u64,
    /// Queries that went out with no certain answer
    /// ([`Completeness::Partial`]).
    pub partial_answers: u64,
    /// Cache entries brought up to date in place by delta maintenance,
    /// lifetime total: per update every site entry of the touched
    /// fragment (each one, although a group of them shares one repair)
    /// plus every coordinator entry holding a triplet of it.
    pub entries_repaired: u64,
    /// Cache entries invalidated by updates, lifetime total.
    pub entries_invalidated: u64,
    /// Tree nodes re-interned across all delta repairs — the update
    /// cost actually paid: per group of entries, not per entry, the
    /// inserted subtree and the path nodes up to the first unchanged
    /// one, plus the whole fragment once per group whose memo an update
    /// had to build.
    pub repair_nodes_recomputed: u64,
    /// Wire bytes of shipped triplet deltas, lifetime total.
    pub repair_delta_bytes: u64,
    /// Answer-flip notifications pushed to standing queries.
    pub notifications: u64,
}

/// Result of [`Engine::shutdown`]: what the deterministic teardown
/// found on its way out.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Rounds flushed or parked at shutdown whose answers had not been
    /// taken yet (the final admission flush plus any parked rounds).
    pub drained: Vec<RoundOutcome>,
    /// Site workers that had panicked (their joins returned an error).
    pub panicked_workers: usize,
}

/// Coordinator-side cache of one member program's solve inputs.
#[derive(Debug)]
struct SolveEntry {
    /// Root sub-query id within the member's own program.
    root: SubId,
    /// Per fragment, the merged triplet the member reads it from.
    triplets: HashMap<FragmentId, Source>,
    /// Memoized answer; dropped whenever any triplet is invalidated.
    answer: Option<bool>,
}

/// One fragment's part of a member's equation system: a triplet the
/// sites computed under a merged program, and the member's way into it.
/// Members of one round share the triplet; nothing is rebuilt per
/// member.
#[derive(Debug, Clone)]
struct Source {
    /// The merged program's fingerprint — the site-cache key that delta
    /// repair matches a site's repair outcomes by.
    program: QueryFingerprint,
    /// The merged triplet, as wide as the merged program.
    triplet: Arc<Triplet>,
    /// Entry `i` is the merged-program id of the member's sub-query `i`.
    projection: Arc<Vec<SubId>>,
}

/// A long-lived deployment: persistent site workers, triplet caches, an
/// admission queue, and update routing. See the module docs for the
/// architecture; see `tests/serve.rs` for the equivalence properties it
/// upholds.
#[derive(Debug)]
pub struct Engine {
    forest: Forest,
    placement: Placement,
    /// The source tree `S_T` with live per-fragment sizes, maintained
    /// incrementally through every update — what dispatch, solving and
    /// per-round planning read.
    forest_stats: ForestStats,
    config: EngineConfig,
    /// Resolved supervision policy (from `config.supervisor`, or
    /// derived from the network model).
    supervisor: SupervisorConfig,
    pool: SitePool,
    solve_cache: HashMap<QueryFingerprint, SolveEntry>,
    /// FIFO eviction order of cached fingerprints.
    solve_order: VecDeque<QueryFingerprint>,
    pending: Vec<(Ticket, CompiledQuery)>,
    /// Rounds flushed implicitly (by [`Engine::query`] among others),
    /// kept so their answers stay retrievable
    /// ([`Engine::take_parked_rounds`]).
    parked: Vec<RoundOutcome>,
    /// Standing queries, refreshed after every update; ordered so
    /// notifications come out deterministically.
    subscriptions: BTreeMap<u64, Subscription>,
    opened_at: Option<Instant>,
    next_ticket: u64,
    next_subscription: u64,
    stats: EngineStats,
}

/// The evaluation kernel the site workers run: procedure `bottomUp`.
fn kernel(tree: &Tree, q: &CompiledQuery) -> FragmentEval {
    let run = bottom_up(tree, q);
    FragmentEval {
        triplet: run.triplet,
        work_units: run.work_units,
    }
}

/// The delta build kernel — what the first update to reach a fragment
/// runs for the entries cached on it, under their merged program:
/// `bottomUp` over the already patched fragment, evaluated through
/// [`IncrementalBottomUp`], which keeps a per-node formula memo behind
/// the triplet so later updates repair it by change propagation.
/// Produces id-identical triplets and identical work accounting to
/// [`kernel`]; every live node counts as recomputed.
fn delta_build(
    tree: &Tree,
    q: &CompiledQuery,
    tick: &mut dyn FnMut(),
) -> (RepairedEval, Box<dyn DeltaMemo>) {
    let (inc, work_units) = IncrementalBottomUp::build_with_progress(tree, q, tick);
    let run = RepairedEval {
        triplet: Some(inc.triplet().clone()),
        nodes_recomputed: tree.len() as u64,
        work_units,
    };
    (run, Box::new(inc))
}

/// The delta repair kernel: re-interns the inserted subtree, the
/// updated node and as many of its ancestors as the change reaches —
/// not the path to the root, let alone the fragment — and hands the
/// root triplet back only when it moved.
impl DeltaMemo for IncrementalBottomUp {
    fn repair(&mut self, tree: &Tree, anchor: NodeId) -> RepairedEval {
        let run = self.propagate(tree, anchor);
        RepairedEval {
            triplet: run.root_changed.then(|| self.triplet().clone()),
            nodes_recomputed: run.nodes_recomputed,
            work_units: run.work_units,
        }
    }
}

/// Builds the site-side patch replaying a pure data update on the
/// site's *own* copy of the fragment tree — the [`Update`] expressed as
/// a shippable mutation. Site and coordinator trees evolve through the
/// identical mutation sequence from the identical seed state, so they
/// stay equal without ever sharing (and therefore without the `O(|F|)`
/// copy-on-write clone a shared handle would force on every update).
/// Restructuring updates return `None` and take the invalidation path.
fn data_patch(update: &Update) -> Option<PatchFn> {
    match update {
        Update::InsNode {
            parent,
            label,
            text,
            ..
        } => {
            let (parent, label, text) = (*parent, label.clone(), text.clone());
            Some(Box::new(move |t: &mut Tree| {
                match text {
                    Some(tx) => t.add_text_child(parent, &label, &tx),
                    None => t.add_child(parent, &label),
                };
            }))
        }
        Update::DelNode { node, .. } => {
            let node = *node;
            Some(Box::new(move |t: &mut Tree| {
                // The coordinator already validated and applied this
                // removal; replaying it on the identical copy cannot
                // fail.
                let _ = t.remove_subtree(node);
            }))
        }
        Update::SplitFragments { .. } | Update::MergeFragments { .. } => None,
    }
}

impl Engine {
    /// Deploys the fragmented document: spawns one persistent worker per
    /// site, each owning handles to its fragments. Errs if the placement
    /// does not cover every fragment.
    pub fn new(
        forest: Forest,
        placement: Placement,
        config: EngineConfig,
    ) -> Result<Engine, FragError> {
        placement.check(&forest)?;
        let forest_stats = ForestStats::compute(&forest, &placement);
        let sites = forest_stats
            .sites()
            .map(|s| {
                let frags = forest_stats
                    .fragments_at(s)
                    .into_iter()
                    .map(|f| (f, forest.tree_handle(f)))
                    .collect();
                (s, frags)
            })
            .collect();
        let pool = SitePool::spawn_full(
            sites,
            config.site_cache_capacity,
            kernel,
            config.fault_plan.clone(),
            Some(delta_build),
        );
        let supervisor = config
            .supervisor
            .clone()
            .unwrap_or_else(|| SupervisorConfig::from_model(&config.model));
        // Sized for the bound up front (a round inserts before it
        // evicts, hence the + 1): FIFO churn at the bound fills the
        // table with tombstones, and only one with twice the live
        // entries' room rehashes them away in place instead of doubling
        // while serving.
        let bound = config.solve_cache_fingerprints + 1;
        Ok(Engine {
            forest,
            placement,
            forest_stats,
            config,
            supervisor,
            pool,
            solve_cache: HashMap::with_capacity(2 * bound),
            solve_order: VecDeque::with_capacity(bound),
            pending: Vec::new(),
            parked: Vec::new(),
            subscriptions: BTreeMap::new(),
            opened_at: None,
            next_ticket: 0,
            next_subscription: 0,
            stats: EngineStats::default(),
        })
    }

    /// The authoritative current document (the deployed fragment trees
    /// are shared handles into this forest).
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// The current placement `h : F → S`.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The coordinating site (home of the root fragment).
    pub fn coordinator(&self) -> SiteId {
        self.forest_stats.site_of(self.forest_stats.root())
    }

    /// The engine's network cost model.
    pub fn model(&self) -> &NetworkModel {
        &self.config.model
    }

    /// Lifetime counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The live source tree with its per-fragment sizes, incrementally
    /// maintained through every update — the planner's input.
    pub fn forest_stats(&self) -> &ForestStats {
        &self.forest_stats
    }

    /// Per-site triplet-cache counters (from the resident workers).
    pub fn site_cache_stats(&self) -> BTreeMap<u32, SiteCacheStats> {
        self.pool.cache_stats()
    }

    /// Diagnostic: asks every site for `program`'s triplet over each
    /// fragment it owns, as a round would, and returns them with
    /// whether the site served its cached entry (which updates since
    /// have repaired in place) or ran `bottomUp` for it. Goes around the
    /// coordinator's cache, plan and accounting; at the sites it is one
    /// more read, so a miss caches (and may evict) like any other.
    pub fn site_triplets(
        &mut self,
        program: &CompiledQuery,
    ) -> Vec<(FragmentId, Arc<Triplet>, bool)> {
        let per_site = (self.forest_stats.sites())
            .map(|site| (site, self.forest_stats.fragments_at(site)))
            .collect();
        let fp = program.program_fingerprint();
        let replies = self
            .pool
            .eval_round(&Arc::new(program.clone()), fp, per_site);
        replies.into_iter().flat_map(|r| r.triplets).collect()
    }

    /// Queries waiting in the admission queue.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Drops every coordinator-side cached triplet (memory-pressure
    /// valve). Site-side caches are unaffected: the next round re-ships
    /// cached triplets instead of recomputing them.
    pub fn clear_solve_cache(&mut self) {
        self.solve_cache.clear();
        self.solve_order.clear();
    }

    /// Enqueues a query into the admission window; the answer arrives
    /// with the round that flushes it ([`Engine::poll`] /
    /// [`Engine::flush`]), labelled by the returned ticket.
    pub fn submit(&mut self, query: &Query) -> Ticket {
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.pending.push((ticket, compile(query)));
        self.opened_at.get_or_insert_with(Instant::now);
        ticket
    }

    /// Flushes the admission queue if the round is due — the batch-size
    /// bound is reached or the oldest submission has outwaited the
    /// batching window. Call this from the serving loop after submits.
    pub fn poll(&mut self) -> Option<RoundOutcome> {
        let due = self.pending.len() >= self.config.max_batch
            || self
                .opened_at
                .is_some_and(|t| t.elapsed() >= self.config.batch_window);
        if due {
            self.flush()
        } else {
            None
        }
    }

    /// Evaluates every pending query as one admission round (regardless
    /// of window/batch bounds). Returns `None` when nothing is pending.
    pub fn flush(&mut self) -> Option<RoundOutcome> {
        let pending = std::mem::take(&mut self.pending);
        self.opened_at = None;
        if pending.is_empty() {
            return None;
        }
        Some(self.run_round(pending))
    }

    /// Single-query convenience: answers `query` in a round of its own.
    /// Anything still pending is flushed first and its [`RoundOutcome`]
    /// *parked* — no answer is ever lost; drain parked rounds with
    /// [`Engine::take_parked_rounds`].
    pub fn query(&mut self, query: &Query) -> QueryOutcome {
        if let Some(prior) = self.flush() {
            self.parked.push(prior);
        }
        let ticket = self.submit(query);
        let outcome = self.flush().expect("one query is pending");
        QueryOutcome {
            answer: outcome.answers.first().map(|&(_, a)| a),
            from_cache: outcome.members_from_cache == 1,
            completeness: outcome.completeness(ticket),
            report: outcome.report,
        }
    }

    /// Deterministic teardown: flushes the admission queue, drains every
    /// parked round (no answer is ever lost), and joins all site actor
    /// threads — reporting how many had panicked rather than
    /// double-panicking on them. The engine stays usable for cached
    /// answers afterwards, but its data plane is gone; drop it.
    pub fn shutdown(&mut self) -> ShutdownReport {
        if let Some(last) = self.flush() {
            self.parked.push(last);
        }
        ShutdownReport {
            drained: std::mem::take(&mut self.parked),
            panicked_workers: self.pool.shutdown(),
        }
    }

    /// Rounds that [`Engine::query`], [`Engine::subscribe`] or a
    /// rejected [`Engine::apply`] flushed on behalf of earlier
    /// [`Engine::submit`] calls, in flush order. Empty unless `submit`
    /// was interleaved with those.
    pub fn take_parked_rounds(&mut self) -> Vec<RoundOutcome> {
        std::mem::take(&mut self.parked)
    }

    /// Registers `query` as a *standing query*: it is answered now (the
    /// baseline), its solve-cache entry is pinned against eviction, and
    /// every subsequent [`Engine::apply`] re-checks it — pushing a
    /// [`Notification`] with the [`UpdateOutcome`] whenever the answer
    /// flips. This is the paper's materialized Boolean view (Section
    /// 5): after a data update the re-check is free when the repair
    /// left the entry's triplets unchanged, and a local re-solve of the
    /// repaired triplets otherwise — no data-plane round either way;
    /// after a split or merge it re-evaluates only the stale fragments.
    /// Anything pending is flushed (and parked) first, as for
    /// [`Engine::query`].
    pub fn subscribe(&mut self, query: &Query) -> SubscriptionId {
        if let Some(prior) = self.flush() {
            self.parked.push(prior);
        }
        let compiled = compile(query);
        let fp = compiled.fingerprint();
        let last = self.answer_now(compiled.clone());
        let id = SubscriptionId(self.next_subscription);
        self.next_subscription += 1;
        self.subscriptions.insert(
            id.0,
            Subscription {
                query: compiled,
                fp,
                last,
            },
        );
        id
    }

    /// Cancels a standing query. Returns false when the id is unknown
    /// (or already cancelled).
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        self.subscriptions.remove(&id.0).is_some()
    }

    /// The last answer pushed (or established at subscription time) for
    /// a standing query; `None` for an unknown id, or while the query
    /// has had no certain answer.
    pub fn subscription_answer(&self, id: SubscriptionId) -> Option<bool> {
        self.subscriptions.get(&id.0).and_then(|s| s.last)
    }

    /// Number of active standing queries.
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.len()
    }

    /// Answers one already-compiled program in a round of its own,
    /// minting a throwaway ticket. Serves from the solve cache when the
    /// entry has coverage (the standing-query refresh path). `None` when
    /// the round ends [`Completeness::Partial`].
    fn answer_now(&mut self, compiled: CompiledQuery) -> Option<bool> {
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        let out = self.run_round(vec![(ticket, compiled)]);
        out.answers.first().map(|&(_, a)| a)
    }

    /// Re-checks every standing query after an update, pushing an
    /// answer-flip notification per subscription whose answer changed.
    /// A refresh with no certain answer keeps the last one and pushes
    /// nothing.
    /// Cheap by construction: a memoized answer (kept alive by an
    /// unchanged delta repair) costs nothing; a voided one re-solves
    /// locally from the repaired triplets; only an invalidated entry
    /// goes back to the data plane — for the one touched fragment.
    fn refresh_subscriptions(&mut self) -> Vec<Notification> {
        if self.subscriptions.is_empty() {
            return Vec::new();
        }
        let ids: Vec<u64> = self.subscriptions.keys().copied().collect();
        let mut out = Vec::new();
        for id in ids {
            let s = &self.subscriptions[&id];
            let (fp, last) = (s.fp, s.last);
            let answer = match self.solve_cache.get(&fp).and_then(|e| e.answer) {
                Some(a) => Some(a),
                None => {
                    let compiled = self.subscriptions[&id].query.clone();
                    self.answer_now(compiled)
                }
            };
            let Some(answer) = answer else {
                continue;
            };
            if Some(answer) != last {
                self.subscriptions.get_mut(&id).expect("iterated ids").last = Some(answer);
                out.push(Notification {
                    subscription: SubscriptionId(id),
                    answer,
                });
            }
        }
        out
    }

    /// Ensures a coordinator cache entry exists for `fp`, registering it
    /// in the FIFO eviction order on first insertion.
    fn ensure_solve_entry(&mut self, fp: QueryFingerprint, root: SubId) {
        if !self.solve_cache.contains_key(&fp) {
            self.solve_order.push_back(fp);
            self.solve_cache.insert(
                fp,
                SolveEntry {
                    root,
                    triplets: HashMap::new(),
                    answer: None,
                },
            );
        }
    }

    /// Solves a member from its entry: the certain answer of the merged
    /// triplets it holds, each read through the member's projection,
    /// with every fragment it holds none for unknown: `None` when the
    /// fragments held do not determine it.
    fn solve_member(&self, entry: &SolveEntry) -> Option<bool> {
        certain_answer(&self.forest_stats, entry.root, |f| {
            (entry.triplets.get(&f)).map(|s| (&*s.triplet, Some(s.projection.as_slice())))
        })
    }

    /// One admission round: the stages of the module docs' *round
    /// pipeline*, in order — one wave, one solve per member.
    fn run_round(&mut self, pending: Vec<(Ticket, CompiledQuery)>) -> RoundOutcome {
        let wall = Instant::now();
        let live: Vec<FragmentId> = self.forest.fragment_ids().collect();
        let mut ledger = Ledger::new(&pending, self.coordinator());
        let members = coalesce(&pending);
        let member_count = members.len();
        let active = self.answer_from_cache(members, &live, &mut ledger);
        let active_count = active.len();
        let mut planned = None;
        if !active.is_empty() {
            let (merged, mut open) = merge_active(active);
            for am in &open {
                self.ensure_solve_entry(am.member.fp, am.member.program.root());
            }
            // Every active member lacks a triplet of some live fragment,
            // so the wave is never empty.
            let wave = self.wave(&live, &open);
            planned = Some(self.plan(&wave, &merged, &open, &ledger.sizes.cache_solves));
            let replies = self.dispatch_wave(&merged, wave, &mut ledger);
            let arrived = absorb_replies(replies, &mut ledger);
            self.project_into_entries(&arrived, &open, merged.fp);
            self.attempt(&mut open, &mut ledger);
            // Still open: a site stayed down past every supervised
            // attempt and what did arrive leaves the answer open. No
            // answer, and nothing memoized: the next round re-requests
            // exactly what is missing.
            for am in &open {
                let entry = &self.solve_cache[&am.member.fp];
                let missing = missing_sites(&self.forest_stats, &live, &entry.triplets);
                ledger.leave_open(&am.member, missing);
            }
            self.evict();
        }
        self.account(ledger, member_count, active_count, planned, wall)
    }

    /// Answers the members that need no data-plane message — a memoized
    /// (and never-invalidated-since) answer, or full cached triplet
    /// coverage to re-solve from — and returns the rest.
    fn answer_from_cache<'p>(
        &mut self,
        members: Vec<Member<'p>>,
        live: &[FragmentId],
        ledger: &mut Ledger,
    ) -> Vec<Member<'p>> {
        let mut active = Vec::new();
        for m in members {
            let cached = self
                .solve_cache
                .get(&m.fp)
                .filter(|e| e.answer.is_some() || live.iter().all(|f| e.triplets.contains_key(f)));
            let Some(entry) = cached else {
                active.push(m);
                continue;
            };
            ledger.members_from_cache += 1;
            let answer = match entry.answer {
                Some(a) => a,
                None => {
                    let start = Instant::now();
                    let a = self
                        .solve_member(entry)
                        .expect("cached triplets cover every live fragment");
                    let work = m.program.len() * live.len();
                    ledger.sizes.cache_solves.push(work as u64);
                    ledger.clock.push((ledger.coordinator, start.elapsed()));
                    self.solve_cache
                        .get_mut(&m.fp)
                        .expect("entry read above")
                        .answer = Some(a);
                    a
                }
            };
            ledger.answer(&m, answer);
        }
        active
    }

    /// The round's one wave: the fragments among `frags` that some open
    /// member holds no triplet for (after an update, that is just the
    /// touched ones), by owning site.
    fn wave(
        &self,
        frags: &[FragmentId],
        open: &[ActiveMember<'_>],
    ) -> BTreeMap<SiteId, Vec<FragmentId>> {
        let lacks = |am: &ActiveMember<'_>, f: &FragmentId| {
            !self
                .solve_cache
                .get(&am.member.fp)
                .is_some_and(|e| e.triplets.contains_key(f))
        };
        let mut wave: BTreeMap<SiteId, Vec<FragmentId>> = BTreeMap::new();
        for &f in frags.iter().filter(|f| open.iter().any(|am| lacks(am, f))) {
            wave.entry(self.forest_stats.site_of(f))
                .or_default()
                .push(f);
        }
        wave
    }

    /// The round's plan: its schedule ([`batch_schedule`]) over
    /// predicted sizes — each wave fragment at its [`predicted_size`]
    /// under the merged program, a remote site's envelope at
    /// [`estimated_envelope_bytes`], no retry or reseed, the solves
    /// already charged at their measured work, and each open member
    /// solved over every live fragment. A round of one member is plain
    /// ParBoX.
    fn plan(
        &self,
        wave: &BTreeMap<SiteId, Vec<FragmentId>>,
        merged: &MergedBatch,
        open: &[ActiveMember<'_>],
        cache_solves: &[u64],
    ) -> PlanSummary {
        let st = &self.forest_stats;
        let m = merged.program.len();
        let replies = (wave.iter())
            .map(|(&site, frags)| {
                let (mut work, mut bytes) = (0, 0);
                for &f in frags {
                    let size = predicted_size(st.fragment(f), m);
                    work += size.work;
                    bytes += size.reply_bytes;
                }
                let envelope_bytes = estimated_envelope_bytes(bytes);
                ReplySize {
                    site,
                    work,
                    envelope_bytes,
                }
            })
            .collect();
        let predicted = RoundSizes {
            request_bytes: merged.request_bytes,
            sites: wave.keys().copied().collect(),
            replies,
            cache_solves: cache_solves.to_vec(),
            member_solves: (open.iter())
                .map(|am| (am.member.program.len() * st.card()) as u64)
                .collect(),
            ..RoundSizes::default()
        };
        let schedule = batch_schedule(self.coordinator(), &self.config.model, &predicted);
        let strategy = match open.len() {
            1 => "ParBoX",
            _ => "BatchParBoX",
        };
        PlanSummary {
            strategy: strategy.to_string(),
            estimate: CostEstimate::of(&schedule),
            candidates: 1,
        }
    }

    /// Sends the wave — the only path from a serving round to the data
    /// plane — and records its sizes: the request per site, and what
    /// supervision did to get the replies: each retry is another request
    /// (the sanctioned exception to the one-visit discipline), each
    /// restart re-seeds the site's fragments from the authoritative
    /// forest.
    fn dispatch_wave(
        &mut self,
        merged: &MergedBatch,
        wave: BTreeMap<SiteId, Vec<FragmentId>>,
        ledger: &mut Ledger,
    ) -> Vec<EvalReply> {
        ledger.fragments_evaluated += wave.values().map(Vec::len).sum::<usize>();
        ledger.sizes.request_bytes = merged.request_bytes;
        ledger.sizes.sites = wave.keys().copied().collect();
        let (forest_stats, forest) = (&self.forest_stats, &self.forest);
        let reseeds = &mut ledger.sizes.reseeds;
        let out = self.pool.eval_round_supervised(
            &merged.program,
            merged.fp,
            wave.into_iter().collect(),
            Some(ledger.coordinator),
            &self.supervisor,
            &mut |site| {
                let frags = forest_stats.fragments_at(site);
                let bytes = frags.iter().map(|&f| forest.fragment(f).byte_size()).sum();
                reseeds.push((site, bytes));
                frags
                    .into_iter()
                    .map(|f| (f, forest.tree_handle(f)))
                    .collect()
            },
        );
        ledger.sizes.retries = out.retry_visits;
        ledger.faults.absorb(&out.stats);
        out.replies
    }

    /// Hands the wave's merged triplets to every open member's cache
    /// entry, each with the member's projection into the merged
    /// program: `Arc` clones only, nothing is rebuilt. A fragment whose
    /// site stayed down never arrived; its slot stays empty, and
    /// `attempt` reads it as unknown.
    fn project_into_entries(
        &mut self,
        arrived: &[(FragmentId, Arc<Triplet>)],
        open: &[ActiveMember<'_>],
        program: QueryFingerprint,
    ) {
        for am in open {
            let entry = self
                .solve_cache
                .get_mut(&am.member.fp)
                .expect("entry ensured when the member went active");
            for (f, triplet) in arrived {
                entry.triplets.entry(*f).or_insert_with(|| Source {
                    program,
                    triplet: Arc::clone(triplet),
                    projection: Arc::clone(&am.projection),
                });
            }
        }
    }

    /// Tries to close every open member from the triplets it holds, and
    /// keeps the ones it cannot. The member solve leaves the missing
    /// fragments unknown, so an answer it determines holds under *any*
    /// content of those fragments: it is exact and safe to memoize.
    fn attempt(&mut self, open: &mut Vec<ActiveMember<'_>>, ledger: &mut Ledger) {
        open.retain(|am| {
            let entry = &self.solve_cache[&am.member.fp];
            let start = Instant::now();
            let solved = self.solve_member(entry);
            let work = am.member.program.len() * entry.triplets.len().max(1);
            ledger.sizes.member_solves.push(work as u64);
            ledger.clock.push((ledger.coordinator, start.elapsed()));
            self.solve_cache
                .get_mut(&am.member.fp)
                .expect("read above")
                .answer = solved;
            if let Some(answer) = solved {
                ledger.answer(&am.member, answer);
            }
            solved.is_none()
        });
    }

    /// Bounds the coordinator cache (FIFO over fingerprints). Standing
    /// queries pin their entries: a pinned fingerprint rotates to the
    /// back instead of evicting, and the rotation budget bounds the scan
    /// when everything left is pinned (the cache then runs oversized —
    /// pinning wins over the bound).
    fn evict(&mut self) {
        let pinned: HashSet<QueryFingerprint> = self.subscriptions.values().map(|s| s.fp).collect();
        let mut rotations = self.solve_order.len();
        while self.solve_cache.len() > self.config.solve_cache_fingerprints {
            let Some(fp) = self.solve_order.pop_front() else {
                break;
            };
            if pinned.contains(&fp) {
                self.solve_order.push_back(fp);
                if rotations == 0 {
                    break;
                }
                rotations -= 1;
                continue;
            }
            self.solve_cache.remove(&fp);
        }
    }

    /// Closes the round: charges the sizes it recorded through its
    /// schedule ([`batch_schedule`]), adds the clock readings, stamps the
    /// lifetime counters, and hands the certain answers out in
    /// submission order, the other tickets in `partial`.
    fn account(
        &mut self,
        ledger: Ledger,
        members: usize,
        active: usize,
        planned: Option<PlanSummary>,
        wall: Instant,
    ) -> RoundOutcome {
        let mut report = batch_schedule(ledger.coordinator, &self.config.model, &ledger.sizes);
        for (site, took) in ledger.clock {
            report.record_compute(site, took);
        }
        // Without a supervised retry, the batch protocol's round visits
        // every site at most once.
        debug_assert!(ledger.faults.retries > 0 || report.max_visits() <= 1);
        report.elapsed_wall_s = wall.elapsed().as_secs_f64();
        report.planned = planned;
        if ledger.faults.any() {
            report.faults = Some(ledger.faults.clone());
        }
        let mut partial = ledger.partial;
        partial.sort_by_key(|(t, _)| *t);

        let tickets = ledger.answers.len();
        self.stats.rounds += 1;
        self.stats.queries += tickets as u64;
        self.stats.members_evaluated += active as u64;
        self.stats.members_from_cache += ledger.members_from_cache as u64;
        self.stats.fragments_evaluated += ledger.fragments_evaluated as u64;
        self.stats.site_cache_hits += ledger.site_cache_hits as u64;
        self.stats.timeouts += ledger.faults.timeouts;
        self.stats.retries += ledger.faults.retries;
        self.stats.restarts += ledger.faults.restarts;
        self.stats.partial_answers += partial.len() as u64;

        let answers: Vec<(Ticket, bool)> = (ledger.answers.into_iter())
            .filter_map(|(t, a)| Some((t, a?)))
            .collect();
        debug_assert_eq!(
            answers.len() + partial.len(),
            tickets,
            "every ticket is answered or partial, once"
        );
        RoundOutcome {
            answers,
            report,
            members,
            members_from_cache: ledger.members_from_cache,
            fragments_evaluated: ledger.fragments_evaluated,
            site_cache_hits: ledger.site_cache_hits,
            partial,
        }
    }

    /// Applies one Section-5 update to the live deployment: pending
    /// queries are flushed first (answered against the pre-update
    /// document), the forest mutates through the shared maintenance path
    /// (incrementally maintaining the planner's [`ForestStats`]), and
    /// the cached state is then brought back in sync. With
    /// [`Engine::subscribe`] this is the paper's incremental view
    /// maintenance: only the updated fragment's site is visited, and
    /// the traffic does not depend on `|T|`.
    ///
    /// For a pure data update, sync is **repair in place**: the owning
    /// site re-interns the changed stretch of the anchor-to-root path,
    /// once for each group of cached triplets (sized by the change, not
    /// by the fragment or the entries), and ships back a varint-DAG
    /// triplet delta of the changed entries; the coordinator swaps the
    /// repaired triplet into each solve entry that reads it from that
    /// program — keeping memoized answers alive whenever the triplet did
    /// not actually change. Entries no update has reached before get their
    /// shared repair memo first: one full evaluation of the patched
    /// fragment under their merged program, reported as a repair like
    /// the small ones that follow. Structural updates (split, merge)
    /// and any failure mid-repair (crash, wedge, dropped reply)
    /// invalidate the stale fragments instead — a half-repaired cache
    /// is never trusted — and the next read re-evaluates exactly those.
    /// Standing queries are re-checked at the end and their answer
    /// flips delivered in [`UpdateOutcome::notifications`].
    ///
    /// An update naming a dead fragment or node, or one that would
    /// orphan fragments, is rejected before anything mutates; the round
    /// it flushed is parked ([`Engine::take_parked_rounds`]).
    pub fn apply(&mut self, update: Update) -> Result<UpdateOutcome, ViewError> {
        let flushed = self.flush();
        let mut report = RunReport::new();
        let wall = Instant::now();
        let patch = data_patch(&update);
        let tracked = apply_update_tracked(
            &mut self.forest,
            &mut self.placement,
            &mut self.forest_stats,
            update,
        );
        let effect = match tracked {
            Ok(effect) => effect,
            Err(e) => {
                self.parked.extend(flushed);
                return Err(e);
            }
        };
        let mut faults = FaultSummary::default();

        // Only insNode/delNode carry a delta, and only they have a patch.
        let efficacy = match (effect.delta, patch) {
            (Some(d), Some(patch)) => self.repair_in_place(d, patch, &mut report, &mut faults),
            _ => RepairEfficacy {
                invalidated: self.invalidate_for(&effect, &mut report, &mut faults) as u64,
                ..RepairEfficacy::default()
            },
        };
        report.repair = Some(efficacy);
        // A split that lands the new fragment on a different site ships
        // the subtree there — the one data-plane cost an update can have.
        if let (Some(&host), Some(&new)) = (effect.touched.first(), effect.added.first()) {
            let host_site = self.placement.site_of(host);
            let new_site = self.placement.site_of(new);
            if host_site != new_site {
                report.record_message(
                    host_site,
                    new_site,
                    self.forest.fragment(new).byte_size(),
                    MessageKind::Data,
                );
            }
        }

        // Priced like a query round: the slowest site's repair work, then
        // the update's messages as one round on the shared link.
        let slowest_site = report.per_site.values().map(|r| r.work_units).max();
        report.elapsed_model_s = compute_s(slowest_site.unwrap_or(0))
            + self
                .config
                .model
                .shared_link_time(report.total_messages(), report.total_bytes());
        report.elapsed_wall_s = wall.elapsed().as_secs_f64();
        if faults.any() {
            self.stats.restarts += faults.restarts;
            report.faults = Some(faults);
        }
        self.stats.updates += 1;
        self.stats.entries_repaired += efficacy.repaired;
        self.stats.entries_invalidated += efficacy.invalidated;
        self.stats.repair_nodes_recomputed += efficacy.nodes_recomputed;
        self.stats.repair_delta_bytes += efficacy.delta_bytes;

        // Standing queries: re-check and push any answer flips.
        let notifications = self.refresh_subscriptions();
        self.stats.notifications += notifications.len() as u64;
        Ok(UpdateOutcome {
            flushed,
            effect,
            report,
            invalidated: efficacy.invalidated as usize,
            repaired: efficacy.repaired as usize,
            notifications,
        })
    }

    /// The delta path of [`Engine::apply`]: the owning site replays the
    /// update on its own tree, repairs its cached triplets as far as
    /// the change reaches and ships back the changed entries, which
    /// the coordinator patches into its solve entries. Any failure
    /// along the way falls back to reseed-and-purge: a half-repaired
    /// cache must never serve.
    fn repair_in_place(
        &mut self,
        d: FragmentDelta,
        patch: PatchFn,
        report: &mut RunReport,
        faults: &mut FaultSummary,
    ) -> RepairEfficacy {
        let (site, coord) = (self.placement.site_of(d.frag), self.coordinator());
        self.pool.ensure_site(site);
        report.record_visit(site);
        if site != coord {
            report.record_message(coord, site, UPDATE_CONTROL_BYTES, MessageKind::Control);
        }
        let deadline = self.supervisor.deadline;
        match self.pool.repair(site, d.frag, patch, d.anchor, deadline) {
            Some(reply) if reply.patched => {
                report.record_compute(site, reply.elapsed);
                report.record_work(site, reply.work_units);
                let delta_bytes: usize = reply.outcomes.iter().map(|o| o.delta_bytes).sum();
                if site != coord && delta_bytes > 0 {
                    report.record_message(site, coord, delta_bytes, MessageKind::Envelope);
                }
                let (kept, dropped) = self.repair_coordinator_entries(d.frag, &reply.outcomes);
                RepairEfficacy {
                    repaired: (reply.outcomes.len() + kept) as u64,
                    invalidated: reply.dropped + dropped as u64,
                    nodes_recomputed: reply.nodes_recomputed,
                    delta_bytes: delta_bytes as u64,
                }
            }
            _ => {
                // The actor died, wedged past the deadline, dropped the
                // reply mid-apply, or never owned the fragment
                // (`!patched`): restart it with the authoritative
                // post-update handles (wiping its caches) and invalidate
                // the coordinator's entries.
                self.reseed_site(site, faults);
                RepairEfficacy {
                    invalidated: self.purge_fragment(d.frag) as u64,
                    ..RepairEfficacy::default()
                }
            }
        }
    }

    /// The invalidation path of structural updates: reload touched
    /// fragments at their sites (dropping the site cache entries) and
    /// purge the coordinator's. Returns the coordinator entries dropped.
    fn invalidate_for(
        &mut self,
        effect: &UpdateEffect,
        report: &mut RunReport,
        faults: &mut FaultSummary,
    ) -> usize {
        let mut invalidated = 0usize;
        for &gone in &effect.removed {
            // The placement keeps the stale mapping of a merged-away
            // fragment, which is exactly the site its worker lives on.
            let site = self.placement.site_of(gone);
            if !self.pool.unload(site, gone) {
                // Dead actor (e.g. crashed mid-apply): restart it with
                // the authoritative post-update fragment set, which no
                // longer contains `gone`.
                self.reseed_site(site, faults);
            }
            invalidated += self.purge_fragment(gone);
        }
        for f in effect.stale() {
            let site = self.placement.site_of(f);
            self.pool.ensure_site(site);
            if !self.pool.load(site, f, self.forest.tree_handle(f)) {
                self.reseed_site(site, faults);
            }
            invalidated += self.purge_fragment(f);
            report.record_visit(site);
            if site != self.coordinator() {
                report.record_message(
                    self.coordinator(),
                    site,
                    UPDATE_CONTROL_BYTES,
                    MessageKind::Control,
                );
            }
        }
        invalidated
    }

    /// Repairs the coordinator's solve-cache entries for `frag` from
    /// the owning site's repair outcomes. Per entry holding a triplet
    /// for `frag`: an *unchanged* source triplet keeps the memoized
    /// answer alive; a changed one replaces the source's triplet
    /// (voiding the answer; the projection still applies, the program
    /// did not change); an entry whose source program the site no
    /// longer caches is invalidated. Entries
    /// *without* a triplet for `frag` keep their memoized answers —
    /// those were certain under any content of the uncovered fragments,
    /// which a pure data update cannot change. Returns
    /// `(repaired, invalidated)`.
    fn repair_coordinator_entries(
        &mut self,
        frag: FragmentId,
        outcomes: &[RepairOutcome],
    ) -> (usize, usize) {
        let by_fp: HashMap<QueryFingerprint, &RepairOutcome> =
            outcomes.iter().map(|o| (o.fingerprint, o)).collect();
        let (mut repaired, mut invalidated) = (0usize, 0usize);
        for entry in self.solve_cache.values_mut() {
            let Some(source) = entry.triplets.get_mut(&frag) else {
                continue;
            };
            match by_fp.get(&source.program) {
                Some(o) if !o.changed => repaired += 1,
                Some(o) => {
                    source.triplet = Arc::clone(&o.triplet);
                    entry.answer = None;
                    repaired += 1;
                }
                None => {
                    entry.triplets.remove(&frag);
                    entry.answer = None;
                    invalidated += 1;
                }
            }
        }
        (repaired, invalidated)
    }

    /// Restarts `site`'s actor thread and re-seeds it with every
    /// fragment the placement maps there, from the coordinator's
    /// authoritative forest handles. Used when a maintenance message
    /// finds the actor's inbox dead.
    fn reseed_site(&mut self, site: SiteId, faults: &mut FaultSummary) {
        let frags: Vec<(FragmentId, Arc<Tree>)> = (self.forest_stats.fragments_at(site))
            .into_iter()
            .map(|f| (f, self.forest.tree_handle(f)))
            .collect();
        faults.restarts += 1;
        faults.reseeded_fragments += frags.len() as u64;
        self.pool.restart_site(site, frags);
    }

    /// Drops `frag`'s triplet from every coordinator cache entry and
    /// voids the memoized answers (any document change can flip any
    /// cached answer). Returns the number of entries dropped.
    fn purge_fragment(&mut self, frag: FragmentId) -> usize {
        let mut n = 0usize;
        for entry in self.solve_cache.values_mut() {
            if entry.triplets.remove(&frag).is_some() {
                n += 1;
            }
            entry.answer = None;
        }
        n
    }
}

/// One distinct program of a round: duplicate submissions coalesce by
/// fingerprint.
struct Member<'p> {
    fp: QueryFingerprint,
    program: &'p CompiledQuery,
    /// Indices into the round's submissions of every one this member
    /// answers.
    submissions: Vec<usize>,
}

/// The active members' programs merged into the one the sites evaluate.
struct MergedBatch {
    program: Arc<CompiledQuery>,
    /// The site caches' key: the merged *program* fingerprint. Its root
    /// fingerprint is just its last member's, so two batches sharing a
    /// tail member would collide and serve triplets of the wrong width.
    fp: QueryFingerprint,
    /// Wire size of the request every visited site receives.
    request_bytes: usize,
}

/// A member the data plane must help answer, with its way out of the
/// round's merged program.
struct ActiveMember<'p> {
    member: Member<'p>,
    /// Entry `i` is the merged-program id of the member's sub-query `i`.
    projection: Arc<Vec<SubId>>,
}

/// What a round accumulates across its stages, for `Engine::account` to
/// close.
struct Ledger {
    coordinator: SiteId,
    /// Per submission, in submission order; `None` while open.
    answers: Vec<(Ticket, Option<bool>)>,
    /// Submissions the round's wave left open, with the sites missing.
    partial: Vec<(Ticket, Vec<SiteId>)>,
    faults: FaultSummary,
    /// What the round did, in the units its schedule charges.
    sizes: RoundSizes,
    /// Measured compute per site, in the order it ran.
    clock: Vec<(SiteId, Duration)>,
    members_from_cache: usize,
    site_cache_hits: usize,
    fragments_evaluated: usize,
}

impl Ledger {
    fn new(pending: &[(Ticket, CompiledQuery)], coordinator: SiteId) -> Ledger {
        Ledger {
            coordinator,
            answers: pending.iter().map(|(t, _)| (*t, None)).collect(),
            partial: Vec::new(),
            faults: FaultSummary::default(),
            sizes: RoundSizes::default(),
            clock: Vec::new(),
            members_from_cache: 0,
            site_cache_hits: 0,
            fragments_evaluated: 0,
        }
    }

    fn answer(&mut self, member: &Member<'_>, answer: bool) {
        for &pi in &member.submissions {
            self.answers[pi].1 = Some(answer);
        }
    }

    fn leave_open(&mut self, member: &Member<'_>, missing: Vec<SiteId>) {
        for &pi in &member.submissions {
            self.partial.push((self.answers[pi].0, missing.clone()));
        }
    }
}

/// Coalesces the round's submissions into one member per distinct
/// program.
fn coalesce(pending: &[(Ticket, CompiledQuery)]) -> Vec<Member<'_>> {
    let mut members: Vec<Member<'_>> = Vec::new();
    let mut by_fp: HashMap<QueryFingerprint, usize> = HashMap::new();
    for (i, (_, program)) in pending.iter().enumerate() {
        let fp = program.fingerprint();
        let mi = *by_fp.entry(fp).or_insert_with(|| {
            members.push(Member {
                fp,
                program,
                submissions: Vec::new(),
            });
            members.len() - 1
        });
        members[mi].submissions.push(i);
    }
    members
}

/// Merges the active members' already-compiled programs (`submit`
/// compiled each query once; nothing is re-parsed or re-compiled per
/// round) and gives each member its projection out of the result.
fn merge_active(active: Vec<Member<'_>>) -> (MergedBatch, Vec<ActiveMember<'_>>) {
    let programs: Vec<CompiledQuery> = active.iter().map(|m| m.program.clone()).collect();
    let batch = merge_programs(&programs);
    let program = Arc::new(batch.merged().clone());
    let open = active
        .into_iter()
        .map(|member| {
            let projection = member
                .program
                .embedding_into(&program)
                .expect("member embeds into merged batch program");
            ActiveMember {
                member,
                projection: Arc::new(projection),
            }
        })
        .collect();
    let merged = MergedBatch {
        fp: program.program_fingerprint(),
        request_bytes: batch_query_wire_size(&batch),
        program,
    };
    (merged, open)
}

/// Absorbs a wave of site replies: records each reply's size — its
/// work, and the bytes a remote site sized its envelope at (the
/// coordinator's own reply crosses no link and is never sized) — and
/// its compute, and counts site-cache hits. Returns the merged triplets
/// that arrived, in reply order, with identical ones (the common case:
/// many leaf fragments resolving to the same constants) sharing one
/// `Arc` — hashed once here, so every cache entry that keeps them keeps
/// one copy.
fn absorb_replies(replies: Vec<EvalReply>, ledger: &mut Ledger) -> Vec<(FragmentId, Arc<Triplet>)> {
    let mut arrived = Vec::new();
    let mut distinct: HashSet<Arc<Triplet>> = HashSet::new();
    for reply in replies {
        ledger.clock.push((reply.site, reply.elapsed));
        ledger.sizes.replies.push(ReplySize {
            site: reply.site,
            work: reply.work_units,
            envelope_bytes: reply.envelope_bytes,
        });
        ledger.site_cache_hits += reply.triplets.iter().filter(|(_, _, hit)| *hit).count();
        for (f, t, _) in reply.triplets {
            let t = match distinct.get(&t) {
                Some(same) => Arc::clone(same),
                None => {
                    distinct.insert(Arc::clone(&t));
                    t
                }
            };
            arrived.push((f, t));
        }
    }
    arrived
}

/// The sites owning live fragments the entry has no triplet for —
/// ascending, deduped: the `missing_sites` of a `Partial` ticket.
fn missing_sites(
    forest_stats: &ForestStats,
    live: &[FragmentId],
    triplets: &HashMap<FragmentId, Source>,
) -> Vec<SiteId> {
    let sites: std::collections::BTreeSet<u32> = live
        .iter()
        .filter(|f| !triplets.contains_key(f))
        .map(|&f| forest_stats.site_of(f).0)
        .collect();
    sites.into_iter().map(SiteId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::parbox;
    use parbox_bool::site_envelope_dag_wire_size;
    use parbox_net::{Cluster, FaultKind};
    use parbox_query::parse_query;
    use parbox_xml::NodeId;

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

    fn engine() -> Engine {
        let forest = fig1_forest();
        let placement = Placement::one_per_fragment(&forest);
        Engine::new(forest, placement, EngineConfig::default()).unwrap()
    }

    fn oracle(engine: &Engine, q: &Query) -> bool {
        let cluster = Cluster::new(engine.forest(), engine.placement(), NetworkModel::lan());
        parbox(&cluster, &compile(q)).answer
    }

    const SRCS: [&str; 6] = [
        "[//A and //B]",
        "[//A]",
        "[//B and //pad]",
        "[//x[z/A]]",
        "[//A and not //B]",
        "[not(//nothing)]",
    ];

    #[test]
    fn engine_agrees_with_parbox() {
        let mut e = engine();
        for src in SRCS {
            let q = parse_query(src).unwrap();
            assert_eq!(e.query(&q).answer, Some(oracle(&e, &q)), "{src}");
        }
    }

    #[test]
    fn query_parks_pending_round_instead_of_discarding_it() {
        let mut e = engine();
        let a = parse_query("[//A]").unwrap();
        let b = parse_query("[//B]").unwrap();
        let ticket = e.submit(&a);
        // query() flushes the pending round for `a` — its answer must
        // remain retrievable, not be silently dropped.
        let out = e.query(&b);
        assert_eq!(out.answer, Some(oracle(&e, &b)));
        let parked = e.take_parked_rounds();
        assert_eq!(parked.len(), 1);
        assert_eq!(parked[0].answers, vec![(ticket, oracle(&e, &a))]);
        assert!(e.take_parked_rounds().is_empty(), "drained");
    }

    #[test]
    fn batches_sharing_a_tail_member_do_not_collide_in_site_caches() {
        // Regression: two merged batch programs ending in the same member
        // share a *root* fingerprint. If the site caches keyed by it,
        // round 2 would be served round 1's (differently shaped) triplets
        // and the projection would read the wrong entries.
        let mut e = engine();
        let a = parse_query("[//A]").unwrap();
        let b = parse_query("[//B]").unwrap();
        let c = parse_query("[//pad]").unwrap();
        // Round 1: merged program [A, B], cached at every site.
        e.submit(&a);
        e.submit(&b);
        e.flush().unwrap();
        // Drop the coordinator's triplets so B is active again next
        // round; the sites keep round 1's entries.
        e.clear_solve_cache();
        // Round 2: merged program [C, B] — same root fingerprint as
        // round 1's, different program. Every fragment is requested
        // (C is new), so stale site-cache entries would be hit.
        e.submit(&c);
        e.submit(&b);
        let out = e.flush().unwrap();
        assert_eq!(out.answers[0].1, oracle(&e, &c), "[//pad]");
        assert_eq!(out.answers[1].1, oracle(&e, &b), "[//B]");
    }

    #[test]
    fn repeat_query_is_served_with_zero_data_plane_messages() {
        let mut e = engine();
        let q = parse_query("[//A and //B]").unwrap();
        let first = e.query(&q);
        assert!(!first.from_cache);
        assert!(first.report.data_plane_bytes() > 0);

        let second = e.query(&q);
        assert!(second.from_cache);
        assert_eq!(second.answer, first.answer);
        assert_eq!(second.report.total_messages(), 0, "no traffic at all");
        assert_eq!(second.report.bytes_of_kind(MessageKind::Triplet), 0);
        assert_eq!(second.report.bytes_of_kind(MessageKind::Envelope), 0);
        assert_eq!(second.report.max_visits(), 0, "no site contacted");
    }

    #[test]
    fn only_remote_envelopes_count_at_the_bytes_their_sites_sized() {
        // The coordinator owns the root fragment; one site per leaf.
        let mut e = engine();
        let coord = e.coordinator();
        assert_eq!(e.forest_stats().site_of(e.forest().root_fragment()), coord);
        let queries: Vec<Query> = ["[//A and //B]", "[//x[z/A] and not //pad]"]
            .iter()
            .map(|src| parse_query(src).unwrap())
            .collect();
        for q in &queries {
            e.submit(q);
        }
        let out = e.flush().unwrap();
        let envelopes: Vec<_> = (out.report.messages.iter())
            .filter(|m| m.kind == MessageKind::Envelope)
            .collect();
        assert!(envelopes.iter().all(|m| m.from != coord && m.to == coord));

        // The same merged program again: every site serves the round's
        // cached triplets.
        let programs: Vec<CompiledQuery> = queries.iter().map(compile).collect();
        let merged = merge_programs(&programs).merged().clone();
        let mut by_site: BTreeMap<SiteId, Vec<(FragmentId, Arc<Triplet>)>> = BTreeMap::new();
        for (f, t, hit) in e.site_triplets(&merged) {
            assert!(hit, "{f} was evaluated by the round");
            let site = e.forest_stats().site_of(f);
            by_site.entry(site).or_default().push((f, t));
        }
        assert_eq!(envelopes.len(), by_site.len() - 1, "one per remote site");
        for m in envelopes {
            let entries: Vec<(FragmentId, &Triplet)> =
                by_site[&m.from].iter().map(|(f, t)| (*f, &**t)).collect();
            assert_eq!(m.bytes, site_envelope_dag_wire_size(&entries), "{}", m.from);
        }
    }

    #[test]
    fn duplicate_submissions_coalesce_within_a_round() {
        let mut e = engine();
        let q = parse_query("[//A]").unwrap();
        let r = parse_query("[//B]").unwrap();
        let t1 = e.submit(&q);
        let t2 = e.submit(&r);
        let t3 = e.submit(&q);
        let out = e.flush().unwrap();
        assert_eq!(out.members, 2, "three submissions, two programs");
        assert_eq!(out.answers.len(), 3);
        let by_ticket: HashMap<Ticket, bool> = out.answers.iter().copied().collect();
        assert_eq!(by_ticket[&t1], by_ticket[&t3]);
        assert_eq!(by_ticket[&t1], oracle(&e, &q));
        assert_eq!(by_ticket[&t2], oracle(&e, &r));
        // One merged round: one visit per site at most.
        assert!(out.report.max_visits() <= 1);
    }

    #[test]
    fn admission_respects_batch_bound_and_window() {
        let forest = fig1_forest();
        let placement = Placement::one_per_fragment(&forest);
        let config = EngineConfig {
            max_batch: 2,
            batch_window: Duration::from_secs(3600),
            ..EngineConfig::default()
        };
        let mut e = Engine::new(forest, placement, config).unwrap();
        e.submit(&parse_query("[//A]").unwrap());
        assert!(e.poll().is_none(), "one pending, window still open");
        e.submit(&parse_query("[//B]").unwrap());
        let out = e.poll().expect("batch bound reached");
        assert_eq!(out.answers.len(), 2);
        assert_eq!(e.pending(), 0);
        // An elapsed window also flushes.
        let mut e2 = {
            let forest = fig1_forest();
            let placement = Placement::one_per_fragment(&forest);
            Engine::new(
                forest,
                placement,
                EngineConfig {
                    max_batch: 100,
                    batch_window: Duration::ZERO,
                    ..EngineConfig::default()
                },
            )
            .unwrap()
        };
        e2.submit(&parse_query("[//A]").unwrap());
        assert!(e2.poll().is_some(), "zero window flushes immediately");
    }

    #[test]
    fn update_repairs_caches_in_place_and_flips_the_answer() {
        let mut e = engine();
        let q = parse_query("[//goal]").unwrap();
        assert_eq!(e.query(&q).answer, Some(false));
        // Insert `goal` into fragment 3 (the y-subtree): a pure data
        // update, maintained by delta repair instead of invalidation.
        let frag = FragmentId(3);
        let parent = {
            let t = &e.forest().fragment(frag).tree;
            t.root()
        };
        let up = e
            .apply(Update::InsNode {
                frag,
                parent,
                label: "goal".into(),
                text: None,
            })
            .unwrap();
        assert_eq!(up.effect.touched, vec![frag]);
        assert!(up.repaired >= 2, "site entry and solve entry repaired");
        assert_eq!(up.invalidated, 0, "nothing thrown away");
        let repair = up.report.repair.expect("delta update reports efficacy");
        assert!(repair.nodes_recomputed >= 1, "O(depth) path re-interned");
        assert!(repair.delta_bytes >= 1, "changed triplet shipped as delta");

        // The repaired caches answer the flipped query with zero
        // data-plane messages — the triplets are already current.
        let after = e.query(&q);
        assert_eq!(after.answer, Some(true), "update flipped the answer");
        assert_eq!(after.answer, Some(oracle(&e, &q)));
        assert!(after.from_cache, "repaired solve entry re-solves locally");
        assert_eq!(after.report.total_messages(), 0);
    }

    #[test]
    fn an_update_is_priced_from_its_repair_work_and_one_link_round() {
        let mut e = engine();
        e.query(&parse_query("[//goal]").unwrap());
        let frag = FragmentId(3);
        let parent = e.forest().fragment(frag).tree.root();
        let up = e
            .apply(Update::InsNode {
                frag,
                parent,
                label: "goal".into(),
                text: None,
            })
            .unwrap();
        let r = &up.report;
        let work = r.per_site.values().map(|s| s.work_units).max().unwrap();
        assert!(work > 0, "the owning site repaired");
        assert!(r.total_messages() >= 2, "control out, delta back");
        let model = EngineConfig::default().model;
        let link = model.shared_link_time(r.total_messages(), r.total_bytes());
        assert_eq!(r.elapsed_model_s, compute_s(work) + link);
        // One latency for the round, not one per message.
        assert!(link < r.network_cost_s(&model));
    }

    #[test]
    fn irrelevant_update_keeps_answers_memoized() {
        // Inserting a node no cached query can see leaves every triplet
        // id-identical: delta repair certifies the entries unchanged and
        // the memoized answers stay hot — the update is nearly free.
        let mut e = engine();
        let q = parse_query("[//A and //B]").unwrap();
        e.query(&q);
        let frag = FragmentId(3);
        let parent = {
            let t = &e.forest().fragment(frag).tree;
            t.root()
        };
        let up = e
            .apply(Update::InsNode {
                frag,
                parent,
                label: "noise".into(),
                text: None,
            })
            .unwrap();
        assert!(up.repaired >= 2);
        assert_eq!(up.invalidated, 0);
        let repair = up.report.repair.unwrap();
        assert_eq!(
            repair.delta_bytes,
            up.report.bytes_of_kind(MessageKind::Envelope) as u64,
            "unchanged entries ship 1-byte acks, not triplets"
        );
        let before = e.stats().fragments_evaluated;
        let again = e.query(&q);
        assert_eq!(again.answer, Some(oracle(&e, &q)));
        assert!(again.from_cache, "memoized answer survived the update");
        assert_eq!(
            e.stats().fragments_evaluated,
            before,
            "no fragment went back to its site"
        );
    }

    #[test]
    fn reads_build_no_memos_and_the_first_update_builds_its_fragments() {
        let mut e = engine();
        for i in 0..200 {
            let q = parse_query(&format!("[//B and not //q{i}]")).unwrap();
            assert_eq!(e.query(&q).answer, Some(true));
        }
        let before = e.site_cache_stats();
        assert!(before.values().all(|s| s.entries > 0 && s.memos_built == 0));

        let frag = FragmentId(3);
        let site = e.placement().site_of(frag).0;
        let parent = e.forest().fragment(frag).tree.root();
        let up = e
            .apply(Update::InsNode {
                frag,
                parent,
                label: "noise".into(),
                text: None,
            })
            .unwrap();
        assert_eq!(up.invalidated, 0);
        assert!(up.repaired > 0);
        // One fragment per site: everything the owning site had cached
        // went into one group with one memo — where each of the 200
        // entries used to get its own — and no other site built anything.
        for (s, after) in e.site_cache_stats() {
            assert_eq!(after.memos_built, u64::from(s == site), "site {s}");
            assert_eq!(after.entries, before[&s].entries, "site {s}");
        }
        let repair = up.report.repair.unwrap();
        assert_eq!(up.repaired as u64, repair.repaired);
        assert!(repair.repaired >= before[&site].entries as u64);
        // One pass over the patched fragment under the merged program,
        // not one per entry.
        let live = e.forest().fragment(frag).tree.len();
        assert_eq!(
            repair.nodes_recomputed, live as u64,
            "the first-touch build is update cost, and reported as such"
        );
    }

    #[test]
    fn repair_cost_does_not_grow_with_the_number_of_subscribers() {
        // ROADMAP's subscriber sweep, as a count: the same leaf insert
        // that no standing query can see costs the inserted node and its
        // anchor, once, however many are watching.
        for subscribers in [4usize, 64] {
            let mut e = engine();
            for i in 0..subscribers {
                e.subscribe(&parse_query(&format!("[//A and not //q{i}]")).unwrap());
            }
            let frag = FragmentId(2);
            let site = e.placement().site_of(frag).0;
            let z = e.forest().fragment(frag).tree.root();
            let insert = |e: &mut Engine| {
                let up = e
                    .apply(Update::InsNode {
                        frag,
                        parent: z,
                        label: "noise".into(),
                        text: None,
                    })
                    .unwrap();
                assert!(up.notifications.is_empty());
                assert_eq!(up.invalidated, 0);
                up.report.repair.unwrap()
            };
            // The first insert builds the fragment's one memo.
            insert(&mut e);
            let stats = &e.site_cache_stats()[&site];
            assert_eq!((stats.memos_built, stats.groups), (1, 1));
            assert_eq!(stats.entries, subscribers);
            let repair = insert(&mut e);
            assert_eq!(repair.nodes_recomputed, 2, "{subscribers} subscribers");
            assert!(repair.repaired >= subscribers as u64);
            assert_eq!(e.site_cache_stats()[&site].memos_built, 1);
        }
    }

    #[test]
    fn solve_cache_churn_never_resizes_the_table() {
        let mut e = engine();
        let (table, order) = (e.solve_cache.capacity(), e.solve_order.capacity());
        for i in 0..4 * e.config.solve_cache_fingerprints {
            e.query(&parse_query(&format!("[//q{i}]")).unwrap());
        }
        assert_eq!(e.solve_cache.len(), e.config.solve_cache_fingerprints);
        // `capacity()` counts live entries plus free slots, so it dips
        // while tombstones wait for the in-place rehash; growing the
        // table would double it.
        assert!(e.solve_cache.capacity() <= table);
        assert_eq!(e.solve_order.capacity(), order);
    }

    #[test]
    fn legacy_invalidation_reevaluates_one_fragment() {
        // A split restructures the fragment tree, so the engine falls
        // back to invalidation: the split fragment and the one it
        // created are stale, and exactly they re-run `bottomUp` on the
        // next query, at the one site that owns them.
        let mut e = engine();
        let q = parse_query("[//A and //B]").unwrap();
        e.query(&q);
        let frag = FragmentId(3);
        let b = {
            let t = &e.forest().fragment(frag).tree;
            t.descendants(t.root())
                .find(|&n| t.label_str(n) == "B")
                .unwrap()
        };
        let up = e
            .apply(Update::SplitFragments {
                frag,
                node: b,
                to_site: None,
            })
            .unwrap();
        assert!(up.invalidated >= 1);
        assert_eq!(up.repaired, 0);
        let stale: Vec<FragmentId> = up.effect.stale().collect();
        assert_eq!(stale.len(), 2);
        let before = e.stats().fragments_evaluated;
        let again = e.query(&q);
        assert_eq!(again.answer, Some(oracle(&e, &q)));
        assert!(!again.from_cache);
        assert_eq!(
            e.stats().fragments_evaluated - before,
            stale.len() as u64,
            "only the stale fragments go back to their sites"
        );
        let site = e.placement().site_of(frag);
        let visited: Vec<SiteId> = again
            .report
            .sites()
            .filter(|(_, r)| r.visits > 0)
            .map(|(s, _)| s)
            .collect();
        assert_eq!(visited, vec![site]);
    }

    #[test]
    fn member_read_through_two_merged_programs_answers_like_the_oracle() {
        // `m` is false only once every fragment is known, so its answer
        // reads all of them. It is first batched with `x`; the split
        // then invalidates F3, which the next round re-evaluates under
        // `m` batched with `y` — another merged program, into which `m`
        // projects differently. The data update then swaps F3's source
        // triplet by delta repair, and the answer flips.
        let mut e = engine();
        let m = parse_query("[//A and //goal]").unwrap();
        let x = parse_query("[//x[z/A] or //pad]").unwrap();
        let y = parse_query("[//B]").unwrap();
        let batched = |e: &mut Engine, other: &Query| {
            // `other` first, so it shifts `m`'s ids in the merge.
            let (to, tm) = (e.submit(other), e.submit(&m));
            let out = e.flush().expect("two pending queries");
            let answer = |t| out.answers.iter().find(|(u, _)| *u == t).unwrap().1;
            assert_eq!(answer(to), oracle(e, other));
            answer(tm)
        };
        assert!(!batched(&mut e, &x));
        assert!(!oracle(&e, &m));

        let frag = FragmentId(3);
        let b = {
            let t = &e.forest().fragment(frag).tree;
            t.descendants(t.root())
                .find(|&n| t.label_str(n) == "B")
                .unwrap()
        };
        let split = Update::SplitFragments {
            frag,
            node: b,
            to_site: None,
        };
        assert!(e.apply(split).unwrap().invalidated >= 1);
        assert_eq!(batched(&mut e, &y), oracle(&e, &m));

        let fp = compile(&m).fingerprint();
        let source = |e: &Engine, f: FragmentId| e.solve_cache[&fp].triplets[&f].clone();
        let (old, new) = (source(&e, FragmentId(0)), source(&e, frag));
        assert_ne!(old.program, new.program, "F3 came from the second batch");
        assert_ne!(old.projection, new.projection, "m projects differently");

        let parent = {
            let t = &e.forest().fragment(frag).tree;
            t.root()
        };
        let up = e
            .apply(Update::InsNode {
                frag,
                parent,
                label: "goal".into(),
                text: None,
            })
            .unwrap();
        assert_eq!(up.invalidated, 0);
        assert!(
            !Arc::ptr_eq(&source(&e, frag).triplet, &new.triplet),
            "swapped"
        );
        let after = e.query(&m);
        assert_eq!(after.answer, Some(true), "the update flipped the answer");
        assert_eq!(after.answer, Some(oracle(&e, &m)));
        assert!(after.from_cache, "re-solved from the repaired sources");
    }

    #[test]
    fn delta_and_legacy_engines_agree_on_update_streams() {
        // Per-step oracle equivalence of the repair path: the repaired
        // caches must serve the answers a from-scratch evaluation gives
        // on every step.
        let mut e = engine();
        let queries: Vec<Query> = SRCS.iter().map(|s| parse_query(s).unwrap()).collect();
        let updates = [
            ("goal", FragmentId(3)),
            ("pad", FragmentId(1)),
            ("A", FragmentId(2)),
            ("B", FragmentId(0)),
        ];
        for (label, frag) in updates {
            let parent = e.forest().fragment(frag).tree.root();
            e.apply(Update::InsNode {
                frag,
                parent,
                label: label.into(),
                text: None,
            })
            .unwrap();
            for q in &queries {
                assert_eq!(
                    e.query(q).answer,
                    Some(oracle(&e, q)),
                    "{label} -> {frag:?}"
                );
            }
        }
        assert!(e.stats().entries_repaired > 0);
        assert_eq!(e.stats().entries_invalidated, 0);
    }

    #[test]
    fn rejected_update_parks_the_round_it_flushed() {
        let mut e = engine();
        let a = parse_query("[//A]").unwrap();
        let b = parse_query("[//B and //pad]").unwrap();
        let (ta, tb) = (e.submit(&a), e.submit(&b));
        // Deleting a virtual node would orphan the fragment behind it.
        let f0 = e.forest().root_fragment();
        let vnode = {
            let t = &e.forest().fragment(f0).tree;
            t.virtual_nodes(t.root())[0].0
        };
        let err = e.apply(Update::DelNode {
            frag: f0,
            node: vnode,
        });
        assert!(matches!(err, Err(ViewError::WouldOrphanFragments(_))));
        let parked = e.take_parked_rounds();
        assert_eq!(parked.len(), 1, "the flushed round was kept");
        assert_eq!(
            parked[0].answers,
            vec![(ta, oracle(&e, &a)), (tb, oracle(&e, &b))]
        );
    }

    #[test]
    fn bad_updates_are_rejected_before_anything_mutates() {
        let mut e = engine();
        let q = parse_query("[//A and //B]").unwrap();
        e.query(&q);
        // Merge fragment 3 away, and remove `pad` from fragment 1.
        let (f0, f1, gone) = (e.forest().root_fragment(), FragmentId(1), FragmentId(3));
        let vnode = {
            let t = &e.forest().fragment(f0).tree;
            let v = t.virtual_nodes(t.root());
            v.into_iter().find(|&(_, f)| f == gone).unwrap().0
        };
        e.apply(Update::MergeFragments {
            frag: f0,
            node: vnode,
        })
        .unwrap();
        let pad = {
            let t = &e.forest().fragment(f1).tree;
            t.descendants(t.root())
                .find(|&n| t.label_str(n) == "pad")
                .unwrap()
        };
        e.apply(Update::DelNode {
            frag: f1,
            node: pad,
        })
        .unwrap();

        let ins = |frag, parent| Update::InsNode {
            frag,
            parent,
            label: "B".into(),
            text: None,
        };
        let far = NodeId::from_index(10_000);
        let dead_fragment = [
            ins(gone, NodeId::from_index(0)),
            Update::DelNode {
                frag: gone,
                node: NodeId::from_index(1),
            },
        ];
        let dead_node = [
            ins(f1, pad),
            Update::DelNode {
                frag: f1,
                node: pad,
            },
            ins(f1, far),
            Update::SplitFragments {
                frag: f1,
                node: pad,
                to_site: None,
            },
            Update::MergeFragments {
                frag: f0,
                node: far,
            },
        ];
        // A virtual node stands for its sub-fragment and stays a leaf.
        let vnode = {
            let t = &e.forest().fragment(f0).tree;
            t.virtual_nodes(t.root())[0].0
        };
        let cases = (dead_fragment.into_iter().map(|u| (u, "dead fragment")))
            .chain(dead_node.into_iter().map(|u| (u, "dead node")))
            .chain([(ins(f0, vnode), "virtual parent")]);
        for (update, case) in cases {
            let (forest, stats) = (format!("{:?}", e.forest()), e.forest_stats().clone());
            let shown = format!("{update:?}");
            match (e.apply(update), case) {
                (Err(ViewError::Frag(FragError::UnknownFragment(f))), "dead fragment") => {
                    assert_eq!(f, gone, "{shown}");
                }
                (Err(ViewError::Xml(parbox_xml::XmlError::StaleNode)), "dead node") => {}
                (Err(ViewError::VirtualParent(n)), "virtual parent") => {
                    assert_eq!(n, vnode, "{shown}");
                }
                (other, _) => panic!("{shown}: {other:?}"),
            }
            assert_eq!(format!("{:?}", e.forest()), forest, "{shown}");
            assert_eq!(*e.forest_stats(), stats, "{shown}");
            assert_eq!(e.query(&q).answer, Some(oracle(&e, &q)), "{shown}");
        }
    }

    #[test]
    fn standing_query_pushes_answer_flips() {
        let mut e = engine();
        let q = parse_query("[//goal]").unwrap();
        let sub = e.subscribe(&q);
        assert_eq!(e.subscription_answer(sub), Some(false));
        assert_eq!(e.subscription_count(), 1);
        let frag = FragmentId(3);
        let parent = e.forest().fragment(frag).tree.root();
        // An irrelevant update pushes nothing.
        let up = e
            .apply(Update::InsNode {
                frag,
                parent,
                label: "noise".into(),
                text: None,
            })
            .unwrap();
        assert!(up.notifications.is_empty());
        // A relevant one pushes the flip with the outcome.
        let up = e
            .apply(Update::InsNode {
                frag,
                parent,
                label: "goal".into(),
                text: None,
            })
            .unwrap();
        assert_eq!(
            up.notifications,
            vec![Notification {
                subscription: sub,
                answer: true
            }]
        );
        assert_eq!(e.subscription_answer(sub), Some(true));
        // Deleting the node flips it back.
        let goal = {
            let t = &e.forest().fragment(frag).tree;
            t.descendants(t.root())
                .find(|&n| t.label_str(n) == "goal")
                .unwrap()
        };
        let up = e.apply(Update::DelNode { frag, node: goal }).unwrap();
        assert_eq!(
            up.notifications,
            vec![Notification {
                subscription: sub,
                answer: false
            }]
        );
        assert_eq!(e.stats().notifications, 2);
        assert!(e.unsubscribe(sub));
        assert!(!e.unsubscribe(sub), "double-cancel reports unknown");
    }

    #[test]
    fn subscription_pins_its_solve_entry_against_eviction() {
        let forest = fig1_forest();
        let placement = Placement::one_per_fragment(&forest);
        let config = EngineConfig {
            solve_cache_fingerprints: 1,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(forest, placement, config).unwrap();
        let sub = e.subscribe(&parse_query("[//A]").unwrap());
        // Churn distinct fingerprints through the 1-entry cache.
        for i in 0..3 {
            e.query(&parse_query(&format!("[//x{i}]")).unwrap());
        }
        // The pinned entry survived: refreshing it after an irrelevant
        // update needs no round at all (the memoized answer was kept by
        // an unchanged repair), where an evicted entry would force one.
        let frag = FragmentId(3);
        let parent = e.forest().fragment(frag).tree.root();
        let rounds = e.stats().rounds;
        let up = e
            .apply(Update::InsNode {
                frag,
                parent,
                label: "noise".into(),
                text: None,
            })
            .unwrap();
        assert!(up.notifications.is_empty());
        assert_eq!(e.stats().rounds, rounds, "refresh cost zero rounds");
        assert_eq!(e.subscription_answer(sub), Some(true));
    }

    #[test]
    fn split_and_merge_keep_engine_consistent() {
        let mut e = engine();
        let q = parse_query("[//B]").unwrap();
        assert_eq!(e.query(&q).answer, Some(true));
        // Split B's node out of fragment 3 onto a brand-new site.
        let frag = FragmentId(3);
        let b: NodeId = {
            let t = &e.forest().fragment(frag).tree;
            t.descendants(t.root())
                .find(|&n| t.label_str(n) == "B")
                .unwrap()
        };
        let up = e
            .apply(Update::SplitFragments {
                frag,
                node: b,
                to_site: Some(SiteId(9)),
            })
            .unwrap();
        assert_eq!(up.effect.added.len(), 1);
        // The subtree shipped to the new site is data-plane traffic.
        assert!(up.report.bytes_of_kind(MessageKind::Data) > 0);
        assert_eq!(e.query(&q).answer, Some(true));
        assert_eq!(e.query(&q).answer, Some(oracle(&e, &q)));

        // Merge it back.
        let new = up.effect.added[0];
        let vnode = {
            let t = &e.forest().fragment(frag).tree;
            t.virtual_nodes(t.root())
                .into_iter()
                .find(|&(_, f)| f == new)
                .unwrap()
                .0
        };
        let down = e
            .apply(Update::MergeFragments { frag, node: vnode })
            .unwrap();
        assert_eq!(down.effect.removed, vec![new]);
        assert_eq!(e.query(&q).answer, Some(true));
        assert_eq!(e.query(&q).answer, Some(oracle(&e, &q)));
    }

    #[test]
    fn site_cache_serves_when_coordinator_cache_is_dropped() {
        let mut e = engine();
        let q = parse_query("[//A and //B]").unwrap();
        e.query(&q);
        // Memory pressure at the coordinator: triplets must be re-shipped,
        // but the sites still skip bottomUp (their caches survive).
        e.clear_solve_cache();
        let card = e.forest().card();
        let again = e.query(&q);
        assert!(!again.from_cache);
        assert!(again.report.data_plane_bytes() > 0, "triplets re-shipped");
        assert_eq!(
            e.stats().site_cache_hits as usize,
            card,
            "every fragment served from its site cache"
        );
        assert_eq!(
            again.report.total_work(),
            (compile(&q).len() * card) as u64,
            "only the coordinator's solve pass did any work"
        );
    }

    // ---- chaos: supervision and Partial answers ---------------------

    fn chaos_cfg(attempts: u32, restart_after: u32) -> SupervisorConfig {
        SupervisorConfig {
            deadline: Duration::from_millis(40),
            max_attempts: attempts,
            restart_after_timeouts: restart_after,
            backoff_base: Duration::from_millis(2),
            jitter_seed: 11,
        }
    }

    fn chaos_engine(plan: FaultPlan, supervisor: SupervisorConfig) -> Engine {
        let forest = fig1_forest();
        let placement = Placement::one_per_fragment(&forest);
        let config = EngineConfig {
            fault_plan: plan,
            supervisor: Some(supervisor),
            ..EngineConfig::default()
        };
        Engine::new(forest, placement, config).unwrap()
    }

    #[test]
    fn injected_panic_recovers_to_a_complete_answer() {
        // Site 3's actor panics on its first request; the supervisor
        // restarts it, re-seeds its fragment, and the round completes.
        let plan = FaultPlan::scripted(vec![(3, 0, FaultKind::Panic)], Duration::ZERO);
        let mut e = chaos_engine(plan, chaos_cfg(4, 2));
        let q = parse_query("[//A and //B]").unwrap();
        let out = e.query(&q);
        assert_eq!(out.answer, Some(oracle(&e, &q)));
        assert_eq!(out.completeness, Completeness::Complete);
        assert_eq!(e.stats().restarts, 1);
        assert!(e.stats().retries >= 1);
        let faults = out.report.faults.expect("faulty round reports its summary");
        assert_eq!(faults.restarts, 1);
        assert!(faults.max_recovery_s() > 0.0);
    }

    #[test]
    fn site_down_past_retries_degrades_without_lying() {
        // Site 3 wedges forever and the supervisor never restarts it
        // (one attempt, no restart threshold): every round that needs
        // its fragment must finish rather than hang or crash.
        let plan = FaultPlan::scripted(vec![(3, 0, FaultKind::Wedge)], Duration::ZERO);
        let mut e = chaos_engine(plan, chaos_cfg(1, u32::MAX));
        // B lives only on the wedged site: the answer is undetermined
        // without it, so the query goes out Partial, with no answer.
        let and = parse_query("[//A and //B]").unwrap();
        let out = e.query(&and);
        assert_eq!(out.answer, None, "the missing subtree could hold a B");
        assert_eq!(
            out.completeness,
            Completeness::Partial {
                missing_sites: vec![SiteId(3)]
            }
        );
        assert!(e.stats().timeouts >= 1);
        assert!(e.stats().partial_answers >= 1);
        // A lives elsewhere: the surviving coverage already determines
        // the answer, so it is certain — Complete, and never wrong.
        let a = parse_query("[//A]").unwrap();
        let out = e.query(&a);
        assert_eq!(out.answer, Some(true));
        assert_eq!(out.completeness, Completeness::Complete);
        assert_eq!(out.answer, Some(oracle(&e, &a)));
    }

    #[test]
    fn site_down_leaves_a_negated_query_unanswered() {
        // Same wedge. Reading the missing fragment as empty would answer
        // `not //B` true, and B is on the wedged site: no answer is the
        // only one that cannot be wrong.
        let plan = FaultPlan::scripted(vec![(3, 0, FaultKind::Wedge)], Duration::ZERO);
        let mut e = chaos_engine(plan, chaos_cfg(1, u32::MAX));
        let not_b = parse_query("[not //B]").unwrap();
        let a = parse_query("[//A]").unwrap();
        let t_not_b = e.submit(&not_b);
        let t_a = e.submit(&a);
        let out = e.flush().unwrap();
        assert_eq!(out.answers, vec![(t_a, true)], "only the certain ticket");
        assert_eq!(out.partial, vec![(t_not_b, vec![SiteId(3)])]);
        assert_eq!(
            out.completeness(t_not_b),
            Completeness::Partial {
                missing_sites: vec![SiteId(3)]
            }
        );
        assert!(!oracle(&e, &not_b), "the true answer is false");
    }

    #[test]
    fn standing_query_keeps_its_answer_when_the_refresh_cannot_reach_a_site() {
        // Site 3 (F3, which holds B) serves the subscription's baseline
        // (op 0), crashes applying the update's repair (op 1) — so the
        // coordinator purges F3 — and wedges on the refresh's evaluation
        // (op 2). The refresh has no certain answer: the subscription
        // keeps `true` and gets no notification.
        let plan = FaultPlan::scripted(
            vec![(3, 1, FaultKind::CrashApply), (3, 2, FaultKind::Wedge)],
            Duration::ZERO,
        );
        let mut e = chaos_engine(plan, chaos_cfg(1, u32::MAX));
        let q = parse_query("[//B]").unwrap();
        let sub = e.subscribe(&q);
        assert_eq!(e.subscription_answer(sub), Some(true));
        let frag = FragmentId(3);
        let parent = e.forest().fragment(frag).tree.root();
        let out = e
            .apply(Update::InsNode {
                frag,
                parent,
                label: "C".into(),
                text: None,
            })
            .unwrap();
        assert!(out.notifications.is_empty(), "{:?}", out.notifications);
        assert_eq!(e.subscription_answer(sub), Some(true));
        assert_eq!(e.stats().notifications, 0);
        assert_eq!(e.stats().partial_answers, 1, "the refresh went out Partial");
        assert!(oracle(&e, &q), "B is still there");
    }

    #[test]
    fn crash_during_apply_is_detected_and_reseeded_next_round() {
        // Op 0 at site 3 is the first query's eval; op 1 is the update's
        // fragment load, which crashes the actor mid-apply. The next
        // round finds the dead inbox, restarts the actor with the
        // post-update fragment, and answers exactly.
        let plan = FaultPlan::scripted(vec![(3, 1, FaultKind::CrashApply)], Duration::ZERO);
        let mut e = chaos_engine(plan, chaos_cfg(4, 2));
        let q = parse_query("[//goal]").unwrap();
        assert_eq!(e.query(&q).answer, Some(false));
        let frag = FragmentId(3);
        let parent = e.forest().fragment(frag).tree.root();
        e.apply(Update::InsNode {
            frag,
            parent,
            label: "goal".into(),
            text: None,
        })
        .unwrap();
        let out = e.query(&q);
        assert_eq!(out.answer, Some(true), "post-update answer");
        assert_eq!(out.answer, Some(oracle(&e, &q)));
        assert_eq!(out.completeness, Completeness::Complete);
        assert_eq!(e.stats().restarts, 1);
    }

    #[test]
    fn shutdown_drains_pending_answers_and_joins_workers() {
        let mut e = engine();
        let q = parse_query("[//A]").unwrap();
        let expected = oracle(&e, &q);
        let t = e.submit(&q);
        let report = e.shutdown();
        assert_eq!(report.panicked_workers, 0);
        assert_eq!(report.drained.len(), 1);
        assert_eq!(report.drained[0].answers, vec![(t, expected)]);
        assert!(report.drained[0].partial.is_empty());
    }
}
