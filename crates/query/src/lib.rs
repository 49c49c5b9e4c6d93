#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

//! # parbox-query
//!
//! The XBL Boolean XPath query language of the ParBoX system (paper,
//! Section 2.2): abstract syntax, a concrete-syntax parser, the
//! normalization pass to `β1/…/βn` form, and compilation into the
//! topologically ordered sub-query list `QList(q)` that both the
//! centralized evaluator and the distributed `bottomUp` procedure
//! interpret.
//!
//! ```
//! use parbox_query::{parse_query, compile};
//!
//! let q = parse_query("[//broker[name/text() = \"Bache\"] and //stock]").unwrap();
//! let compiled = compile(&q);
//! // The compiled program's case analysis mirrors the paper's c0–c8.
//! println!("{compiled}");
//! ```

mod ast;
mod compile;
mod lexer;
mod parser;
mod selection;

pub mod normalize;

pub use ast::{Path, Query, Step};
pub use compile::{
    compile, compile_batch, merge_embedded, merge_programs, sub_fingerprints, CompiledQuery, Op,
    QueryBatch, QueryFingerprint, ResolvedQuery, SubId, SubQuery,
};
pub use lexer::{tokenize, LexError, Token, TokenKind};
pub use normalize::{normalize, NQuery, NStep};
pub use parser::{parse_query, ParseError};
pub use selection::{compile_selection, SelStep, SelectionError, SelectionProgram};
