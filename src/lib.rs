#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

//! # parbox
//!
//! Umbrella crate for the ParBoX system: **partial evaluation for
//! distributed Boolean XPath query evaluation**, a reproduction of
//! Buneman, Cong, Fan and Kementsietsidis, *Using Partial Evaluation in
//! Distributed Query Evaluation*, VLDB 2006.
//!
//! This crate re-exports the public API of the workspace crates:
//!
//! * [`xml`] — arena XML tree store with virtual (fragment-pointer) nodes.
//! * [`query`] — the XBL Boolean XPath language: parser, normalization,
//!   [`query::CompiledQuery`] (the paper's `QList`).
//! * [`boolean`] — Boolean formulas with free variables and the equation
//!   system solver used to compose partial answers.
//! * [`frag`] — tree fragmentation: fragments, fragment tree,
//!   split/merge operations, and the incrementally maintained source
//!   tree with per-fragment sizes (`ForestStats`).
//! * [`net`] — the simulated distributed substrate: sites, messages,
//!   network cost model, parallel per-site execution.
//! * [`core`] — the algorithms: centralized baseline, `NaiveCentralized`,
//!   `NaiveDistributed`, **ParBoX** and its variants, the cost-based
//!   planner ([`core::plan`]) that picks among them per query, and
//!   incremental view maintenance.
//! * [`xmark`] — XMark-style synthetic workload and query generators.
//!
//! ## Quickstart
//!
//! ```
//! use parbox::prelude::*;
//!
//! // A whole document…
//! let tree = Tree::parse(
//!     "<portfolio><broker><name>Bache</name>\
//!      <stock><code>GOOG</code><sell>376</sell></stock></broker></portfolio>",
//! )
//! .unwrap();
//!
//! // …fragmented over three sites…
//! let mut forest = Forest::from_tree(tree);
//! let root_frag = forest.root_fragment();
//! let broker = forest.fragment(root_frag).tree.children(
//!     forest.fragment(root_frag).tree.root()).next().unwrap();
//! forest.split(root_frag, broker).unwrap();
//! let placement = Placement::round_robin(&forest, 2);
//!
//! // …queried with a Boolean XPath query evaluated by partial evaluation.
//! let q = parse_query("[//stock[code/text() = \"GOOG\" and sell/text() = \"376\"]]").unwrap();
//! let compiled = compile(&q);
//! let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
//! let outcome = parbox(&cluster, &compiled);
//! assert!(outcome.answer);
//! // Each site is visited exactly once (the paper's headline guarantee):
//! assert!(outcome.report.sites().all(|(_, s)| s.visits <= 1));
//! ```

// The architecture guide is authored as docs/ARCHITECTURE.md and also
// compiled into rustdoc here, so `cargo doc` (with broken-intra-doc-link
// warnings denied) verifies that every module path the guide names
// resolves — the guide cannot silently rot as the code moves.
#[doc = include_str!("../docs/ARCHITECTURE.md")]
pub mod architecture {}

pub use parbox_bool as boolean;
pub use parbox_core as core;
pub use parbox_frag as frag;
pub use parbox_net as net;
pub use parbox_query as query;
pub use parbox_xmark as xmark;
pub use parbox_xml as xml;

/// Convenience re-exports of the most frequently used items.
pub mod prelude {
    pub use parbox_core::{
        centralized_eval, count_distributed, full_dist_parbox, hybrid_parbox, lazy_parbox,
        naive_centralized, naive_distributed, parbox, plan_run, select_distributed,
        sum_distributed, Completeness, CostEstimate, Engine, EngineConfig, EvalOutcome,
        PlanContext, QueryOutcome, RoundOutcome, Strategy, Update,
    };
    pub use parbox_frag::{Forest, ForestStats, Placement};
    pub use parbox_net::{Cluster, NetworkModel, SiteId};
    pub use parbox_net::{FaultKind, FaultPlan, FaultRates, SupervisorConfig};
    pub use parbox_query::compile_selection;
    pub use parbox_query::{compile, compile_batch, parse_query, CompiledQuery, Query, QueryBatch};
    pub use parbox_xml::{FragmentId, NodeId, Tree};
}
