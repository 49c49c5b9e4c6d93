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
//! its exact payload size, and modeled elapsed time combines measured
//! per-site compute with latency + bandwidth terms. See DESIGN.md §5 for
//! why this substitution preserves the paper's experimental shapes.
//!
//! A [`Cluster`] bundles a fragmented document, its placement and a cost
//! model — the input every algorithm in `parbox-core` takes. For batched
//! evaluation, [`BatchRound`] enforces the single-visit discipline: one
//! request and one triplet envelope per site per batch, however many
//! queries the batch holds. For *serving* traffic, the [`engine`] module
//! replaces per-query scoped threads with a [`SitePool`] of persistent
//! site workers — one resident actor per site, owning its fragments and
//! a fingerprint-keyed triplet cache. Residency brings failure with it:
//! the [`fault`] module supplies deterministic fault injection
//! ([`FaultPlan`]) and the supervision policy ([`SupervisorConfig`])
//! behind [`SitePool::eval_round_supervised`] — deadlines, retries with
//! backoff, actor restart, and authoritative fragment re-seeding.
//!
//! ```
//! use parbox_net::{BatchRound, MessageKind, NetworkModel, SiteId};
//!
//! // A LAN message costs latency plus payload over bandwidth.
//! let lan = NetworkModel::lan();
//! assert!(lan.transfer_time(1_000) < lan.transfer_time(1_000_000));
//!
//! // One batched round: visit both sites once, collect one envelope each.
//! let mut round = BatchRound::new(SiteId(0));
//! for s in [SiteId(0), SiteId(1)] {
//!     round.visit(s, 120).unwrap();
//! }
//! round.reply(SiteId(1), 48).unwrap();
//! // A second visit would break the paper's guarantee — and is rejected.
//! assert!(round.visit(SiteId(1), 120).is_err());
//! let report = round.finish();
//! assert_eq!(report.max_visits(), 1);
//! assert_eq!(report.bytes_of_kind(MessageKind::Envelope), 48);
//! ```

mod batch;
mod cluster;
pub mod engine;
mod exec;
pub mod fault;
mod metrics;
mod model;

pub use batch::{BatchProtocolError, BatchRound};
pub use cluster::Cluster;
pub use engine::{
    BuildFn, DeltaMemo, EvalFn, EvalReply, FragmentEval, PatchFn, RepairOutcome, RepairReply,
    RepairedEval, SiteCacheStats, SiteDeployment, SitePool, SupervisedRound,
};
pub use exec::{run_sites_parallel, run_sites_sequential, SiteRun};
pub use fault::{FaultContext, FaultKind, FaultPlan, FaultRates, InjectedFault, SupervisorConfig};
pub use metrics::{
    CacheEfficacy, CostEstimate, FaultSummary, Message, MessageKind, PlanSummary, RepairEfficacy,
    RunReport, SiteReport,
};
pub use model::NetworkModel;

// Re-exported so downstream users need not depend on parbox-frag for the
// common case of addressing sites.
pub use parbox_frag::SiteId;
