#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

//! # parbox-xmark
//!
//! Synthetic workloads for the ParBoX experiments (paper, Section 6):
//!
//! * [`generate`] — a deterministic XMark-style auction-site document
//!   generator, sized in bytes (substitution for the closed-source XMark
//!   `xmlgen`; see docs/ARCHITECTURE.md, "Workloads and experiments");
//! * [`portfolio`] — the stock-portfolio document of Fig. 1(b);
//! * [`query_with_qlist`] — XBL queries with an exact `|QList|`, covering
//!   the paper's sweep sizes {2, 8, 15, 23};
//! * [`plant_marker`] / [`marker_query`] — per-fragment satisfaction
//!   targets for the `qF0` / `qFn` / `qF⌈n/2⌉` experiments;
//! * [`mixed_workload`] — serving streams interleaving repeated queries
//!   with Section-5 updates, for the resident-engine experiments.

mod gen;
mod portfolio;
mod queries;
mod workload;

pub use gen::{generate, marker_query, plant_marker, XmarkConfig};
pub use portfolio::{add_stock, portfolio, PortfolioConfig, BROKERS, CODES, MARKETS};
pub use queries::{
    batch_workload, heterogeneous_workload, query_with_qlist, standard_sweep, XMARK_VOCAB,
};
pub use workload::{
    drive_stream, mixed_workload, resolve_data_update, resolve_update, MixedConfig, MixedOp,
    StreamReport,
};
