#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

//! # parbox-net
//!
//! The simulated distributed substrate of this ParBoX reproduction.
//!
//! The paper evaluated on ten Linux machines over a LAN. Here, each
//! *site* is a worker thread that really evaluates its fragments in
//! parallel ([`run_sites_parallel`]), while network costs are *modeled*
//! ([`NetworkModel`]): every message is recorded in a [`RunReport`] with
//! its exact payload size, and modeled elapsed time prices a run's
//! recorded work units and bytes with latency + bandwidth terms, so it
//! is deterministic. Measured per-site compute is recorded beside it.
//!
//! A [`Cluster`] bundles a fragmented document, its placement and a cost
//! model — the input every algorithm in `parbox-core` takes. For
//! *serving* traffic, the [`engine`] module replaces per-query scoped threads with a [`SitePool`] of persistent
//! site workers — one resident actor per site, owning its fragments and
//! a fingerprint-keyed triplet cache. Residency brings failure with it:
//! the [`fault`] module supplies deterministic fault injection
//! ([`FaultPlan`]) and the supervision policy ([`SupervisorConfig`])
//! behind [`SitePool::eval_round_supervised`] — deadlines, retries with
//! backoff, actor restart, and authoritative fragment re-seeding.
//!
//! ```
//! use parbox_bool::Triplet;
//! use parbox_net::{FragmentEval, NetworkModel, SiteId, SitePool};
//! use parbox_query::{compile, parse_query, CompiledQuery};
//! use parbox_xml::{FragmentId, Tree};
//! use std::sync::Arc;
//!
//! // A LAN message costs latency plus payload over bandwidth.
//! let lan = NetworkModel::lan();
//! assert!(lan.transfer_time(1_000) < lan.transfer_time(1_000_000));
//!
//! // Two resident site workers, one fragment each, running an injected
//! // kernel (parbox-core passes `bottomUp`; this one answers all-false).
//! fn kernel(tree: &Tree, q: &CompiledQuery) -> FragmentEval {
//!     FragmentEval { triplet: Triplet::all_false(q.len()), work_units: tree.len() as u64 }
//! }
//! let tree = Arc::new(Tree::parse("<a><b/></a>").unwrap());
//! let sites = (0..2)
//!     .map(|s| (SiteId(s), vec![(FragmentId(s), Arc::clone(&tree))]))
//!     .collect();
//! let mut pool = SitePool::spawn(sites, 16, kernel);
//!
//! // One round: each site evaluates its fragment in parallel and replies
//! // once. Asked again under the same program, both serve their caches.
//! let program = Arc::new(compile(&parse_query("[//b]").unwrap()));
//! let fp = program.program_fingerprint();
//! let per_site = || (0..2).map(|s| (SiteId(s), vec![FragmentId(s)])).collect();
//! assert_eq!(pool.eval_round(&program, fp, per_site()).len(), 2);
//! let again = pool.eval_round(&program, fp, per_site());
//! assert!(again.iter().all(|r| r.triplets.iter().all(|&(_, _, hit)| hit)));
//! ```

mod cluster;
pub mod engine;
mod exec;
pub mod fault;
mod metrics;
mod model;

pub use cluster::Cluster;
pub use engine::{
    BuildFn, DeltaMemo, EvalFn, EvalReply, FragmentEval, PatchFn, RepairOutcome, RepairReply,
    RepairedEval, SiteCacheStats, SiteDeployment, SitePool, SupervisedRound,
};
pub use exec::{run_sites_parallel, SiteRun};
pub use fault::{FaultContext, FaultKind, FaultPlan, FaultRates, InjectedFault, SupervisorConfig};
pub use metrics::{
    CostEstimate, FaultSummary, Message, MessageKind, PlanSummary, RepairEfficacy, RunReport,
    SiteReport,
};
pub use model::NetworkModel;

// Re-exported so downstream users need not depend on parbox-frag for the
// common case of addressing sites.
pub use parbox_frag::SiteId;
