#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

//! # parbox-bench
//!
//! The experiment harness of this reproduction: one module per
//! experiment of the paper's Section 6 (plus the Fig. 4 complexity table
//! and the Section 4/5 ablations), each regenerating the corresponding
//! series. The `src/bin/` binaries print paper-style tables; the
//! `benches/` directory holds the matching Criterion benchmarks.
//!
//! Scaling: the paper distributes 45–160 MB over ten LAN machines. The
//! harness measures the same *shapes* at a laptop-friendly default scale
//! (see [`Scale`]); binaries accept `--scale <bytes>` to raise it.

pub mod builders;
pub mod experiments;
pub mod table;

pub use builders::{flag, ft1, ft2_chain, ft3, num_flag, single_site_split, Scale};
pub use table::{print_table, Row};
