#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

//! # parbox-bool
//!
//! Boolean formulas with free variables — the *partial answers* that
//! ParBoX sites ship instead of data (paper, Section 3.1) — together with
//! the `compFm` composition procedure, `(V, CV, DV)` [`Triplet`]s, the
//! linear Boolean [`EquationSystem`] solved by the coordinator (the
//! paper's `evalST`, a three-valued pass — [`KleeneRows`] — that also
//! decides answers with fragments still missing), and a compact wire
//! encoding used for
//! communication-cost accounting: per-triplet ([`encode_triplet_dag`]) for
//! single-query ParBoX and per-site envelopes
//! ([`encode_site_envelope_dag`]) for batched rounds, which pack every
//! fragment triplet a site computed into one message over one shared
//! node table.
//!
//! Formula algebra folds constants as it builds (`compFm`, Fig. 3c):
//!
//! ```
//! use parbox_bool::{Formula, Var, VecKind, comp_fm, BoolOp};
//! use parbox_xml::FragmentId;
//!
//! let x = Formula::var(Var::new(FragmentId(1), VecKind::DV, 7));
//! // compFm folds constants: true ∨ x = true, false ∨ x = x.
//! assert_eq!(comp_fm(Formula::FALSE, x.clone(), BoolOp::Or), x);
//! ```
//!
//! Collecting every fragment's triplet yields a linear system of Boolean
//! equations that one bottom-up pass resolves (Example 3.3):
//!
//! ```
//! use parbox_bool::{EquationSystem, Formula, Triplet, Var, VecKind};
//! use parbox_xml::FragmentId;
//!
//! let (f0, f1) = (FragmentId(0), FragmentId(1));
//! let mut sys = EquationSystem::new();
//! // F0's answer is "the sub-query holds somewhere in F1": dx@F1.
//! let mut root = Triplet::all_false(1);
//! root.v[0] = Formula::var(Var::new(f1, VecKind::DV, 0));
//! sys.insert(f0, root);
//! // F1 resolves the sub-query to true locally.
//! let mut leaf = Triplet::all_false(1);
//! leaf.dv[0] = Formula::TRUE;
//! sys.insert(f1, leaf);
//!
//! let solved = sys.solve(&[f1, f0]).unwrap();
//! assert!(solved[&f0].v[0]);
//! ```

mod arena;
mod encode;
mod formula;
pub mod reference;
mod triplet;
mod var;

pub use encode::{
    decode_formula_dag, decode_site_envelope_dag, decode_triplet_dag, decode_triplet_delta_dag,
    encode_formula_dag, encode_site_envelope_dag, encode_triplet_dag, encode_triplet_delta_dag,
    site_envelope_dag_wire_size, triplet_dag_wire_size, triplet_delta_dag_wire_size, DecodeError,
};
pub use formula::{comp_fm, ArenaStats, BoolOp, Formula, FormulaId, FormulaNode, ShardCounters};
pub use triplet::{EquationSystem, KleeneRows, ResolvedTriplet, SolveError, Triplet, TripletDelta};
pub use var::{Var, VecKind};
