#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

//! # parbox-core
//!
//! The algorithms of *Using Partial Evaluation in Distributed Query
//! Evaluation* (Buneman, Cong, Fan, Kementsietsidis — VLDB 2006):
//!
//! * [`centralized_eval`] — the optimal `O(|T||q|)` single-traversal
//!   baseline (Section 2.2);
//! * [`naive_centralized`] / [`naive_distributed`] — the two naive
//!   distributed baselines (Section 3);
//! * [`parbox`] — the **ParBoX** partial-evaluation algorithm (Fig. 3);
//! * [`full_dist_parbox`], [`lazy_parbox`] — its variants (Section 4);
//! * [`plan`] — the **cost-based planner**: all strategies behind the
//!   [`Executor`] trait, with statistics-driven selection
//!   ([`Planner::choose`], [`plan_run`]) replacing the hand-written
//!   `HybridParBoX` tipping point;
//! * [`MaterializedView`] — incremental maintenance of Boolean XPath
//!   views under data and fragmentation updates (Section 5);
//! * [`run_batch`] — the **batch engine**: a whole batch of concurrent
//!   queries evaluated in one ParBoX round (one visit per site, one
//!   traversal per fragment, one solver pass);
//! * [`Engine`] — the **resident serving engine** ([`serve`]): an owned,
//!   long-lived deployment with persistent site workers, two-level
//!   triplet caching and update routing, for query/update *streams*.
//!
//! Every algorithm takes a [`parbox_net::Cluster`] (fragmented document +
//! placement + network model) and a compiled query, and returns the
//! Boolean answer with a full [`parbox_net::RunReport`] of visits,
//! messages and work — the paper's guarantees are assertions over these
//! reports.
//!
//! ```
//! use parbox_core::{parbox, run_batch};
//! use parbox_frag::{Forest, Placement};
//! use parbox_net::{Cluster, NetworkModel};
//! use parbox_query::{compile, compile_batch, parse_query};
//! use parbox_xml::Tree;
//!
//! // Fragment a document over two sites…
//! let tree = Tree::parse("<r><x><A/></x><y><B/></y></r>").unwrap();
//! let mut forest = Forest::from_tree(tree);
//! let f0 = forest.root_fragment();
//! let y = {
//!     let t = &forest.fragment(f0).tree;
//!     t.descendants(t.root()).find(|&n| t.label_str(n) == "y").unwrap()
//! };
//! forest.split(f0, y).unwrap();
//! let placement = Placement::one_per_fragment(&forest);
//! let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
//!
//! // …one query through ParBoX: each site is visited exactly once.
//! let q = compile(&parse_query("[//A and //B]").unwrap());
//! let out = parbox(&cluster, &q);
//! assert!(out.answer);
//! assert_eq!(out.report.max_visits(), 1);
//!
//! // …and a whole batch through the batch engine: still one visit.
//! let queries: Vec<_> = ["[//A]", "[//B]", "[//A and not //B]"]
//!     .iter().map(|s| parse_query(s).unwrap()).collect();
//! let batch = run_batch(&cluster, &compile_batch(&queries));
//! assert_eq!(batch.answers, vec![true, true, false]);
//! assert_eq!(batch.report.max_visits(), 1);
//! ```

pub mod aggregate;
pub mod algorithms;
pub mod eval;
pub mod plan;
pub mod selection;
pub mod serve;
pub mod views;

pub use aggregate::{
    count_centralized, count_distributed, sum_centralized, sum_distributed, AggregateOutcome,
};
pub use algorithms::{
    batch_query_wire_size, full_dist_parbox, hybrid_parbox, lazy_parbox, naive_centralized,
    naive_distributed, parbox, query_wire_size, resolved_triplet_wire_size, run_batch,
    BatchOutcome, EvalOutcome,
};
pub use eval::{
    bottom_up, bottom_up_formula_only, bottom_up_reference, centralized_eval,
    centralized_eval_counted, centralized_eval_reference, BitSet, CentralizedRun, FragmentRun,
    IncrementalBottomUp, Propagation, RefFragmentRun, RepairRun,
};
pub use plan::{
    plan_run, Choice, CostEstimate, Executor, PlanContext, PlanExplain, PlanSummary, Planner,
};
pub use selection::{select_centralized, select_distributed, SelectionOutcome};
pub use serve::{
    Completeness, Engine, EngineConfig, EngineStats, Notification, QueryOutcome, RoundOutcome,
    ShutdownReport, SubscriptionId, Ticket, UpdateOutcome,
};
pub use views::{
    apply_update_to_forest, apply_update_tracked, FragmentDelta, MaterializedView, Update,
    UpdateEffect, UpdateReport, ViewError,
};
