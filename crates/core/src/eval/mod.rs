//! Evaluation kernels: the centralized baseline and the formula-valued
//! `bottomUp` procedure shared by all distributed algorithms, both on one
//! column-at-a-time bitset kernel (`columns`), plus the per-node
//! reference evaluators they are tested against.

pub mod bitset;
pub mod bottom_up;
pub mod centralized;
mod columns;
pub mod incremental;
pub mod reference;

pub use bitset::BitSet;
pub use bottom_up::{bottom_up, bottom_up_formula_only, FragmentRun};
pub use centralized::{centralized_eval, centralized_eval_counted, CentralizedRun};
pub use incremental::{IncrementalBottomUp, Propagation, RepairRun};
pub use reference::{bottom_up_reference, centralized_eval_reference, RefFragmentRun};
