//! Evaluation kernels: the centralized baseline and the formula-valued
//! `bottomUp` procedure shared by all distributed algorithms.

pub mod bitset;
pub mod bottom_up;
pub mod centralized;
pub mod incremental;
pub mod reference;

pub use bitset::BitSet;
pub use bottom_up::{bottom_up, bottom_up_formula_only, FragmentRun};
pub use centralized::{centralized_eval, centralized_eval_counted, CentralizedRun};
pub use incremental::{IncrementalBottomUp, Propagation, RepairRun};
pub use reference::{bottom_up_reference, RefFragmentRun};
