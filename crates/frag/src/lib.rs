#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

//! # parbox-frag
//!
//! Tree fragmentation for the ParBoX system (paper, Sections 2.1 and 5):
//! the [`Forest`] of disjoint fragments with `splitFragments` /
//! `mergeFragments`, the placement `h : F → S` of fragments onto sites,
//! decomposition strategies reproducing the experiment shapes FT1–FT3,
//! and [`ForestStats`]: the induced source tree `S_T` (the only structure
//! the algorithms require) with the per-fragment sizes the cost-based
//! planner reads, maintained incrementally through updates.
//!
//! ```
//! use parbox_frag::{Forest, ForestStats, Placement, strategies};
//! use parbox_xml::Tree;
//!
//! let tree = Tree::parse("<r><a><x/></a><b><y/></b></r>").unwrap();
//! let mut forest = Forest::from_tree(tree);
//! let root = forest.root_fragment();
//! strategies::star(&mut forest, root).unwrap();
//! let placement = Placement::one_per_fragment(&forest);
//! let st = ForestStats::compute(&forest, &placement);
//! assert_eq!(st.card(), 3);
//! assert_eq!(st.children(root).len(), 2);
//! assert_eq!(st.postorder().last(), Some(&root));
//! ```

mod error;
mod forest;
mod placement;
mod stats;

pub mod strategies;

pub use error::FragError;
pub use forest::{Forest, Fragment};
pub use placement::{Placement, SiteId};
pub use stats::{ForestStats, FragmentStats, SiteStats};
