//! Evaluation kernels. Every local evaluation of a fragment runs on one
//! column-at-a-time bitset kernel (`columns`): the centralized baseline
//! reads its columns alone; the formula-valued `bottomUp` procedure
//! shared by all distributed algorithms, the repair memo's build
//! (`incremental`) and the aggregation extension add one formula step
//! per spine node (`bottom_up`'s fragment pass); the selection
//! extension feeds the kernel its sub-fragments' resolved values. The
//! per-node reference evaluators they are tested against live in
//! `reference`, and `bottom_up_formula_only` runs the formula step at
//! every node as `bottomUp`'s oracle.

pub(crate) mod bitset;
pub mod bottom_up;
pub mod centralized;
pub(crate) mod columns;
pub mod incremental;
pub mod reference;

pub use bottom_up::{bottom_up, bottom_up_formula_only, FragmentRun};
pub use centralized::{centralized_eval, centralized_eval_counted, CentralizedRun};
pub use incremental::{IncrementalBottomUp, Propagation, RepairRun};
pub use reference::{bottom_up_reference, centralized_eval_reference, RefFragmentRun};
