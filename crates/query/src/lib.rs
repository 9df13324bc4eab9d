//! A small textual query-description format.
//!
//! The optimizer's native inputs are a [`QueryGraph`] plus a [`Catalog`];
//! this crate adds a human-writable surface syntax so workloads can live
//! in files, be generated by scripts and round-trip through tools:
//!
//! ```text
//! # TPC-H-ish 4-way chain
//! relation customer 150000
//! relation orders   1500000
//! relation lineitem 6000000
//! relation part     200000
//!
//! join customer orders   6.67e-6
//! join orders   lineitem 6.67e-7
//! join lineitem part     5e-6      # selectivity is optional (default 0.1)
//! ```
//!
//! * `relation <name> <cardinality>` declares a relation;
//! * `join <name> <name> [<selectivity>]` declares a join predicate;
//! * `#` starts a comment; blank lines are ignored.
//!
//! [`parse`] produces a [`ParsedQuery`] — graph, catalog and the
//! name↔index mapping — with line-numbered errors; [`write()`] serializes
//! one back (the round trip is exercised by property tests). The
//! [`ParsedQuery::render_tree`] helper prints optimizer output with the
//! original relation names.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod parser;
pub mod sql;
mod writer;

pub use error::ParseError;
pub use parser::{parse, ParsedQuery};
pub use sql::{looks_like_sql, parse_sql, SqlError};
pub use writer::write;

pub use joinopt_cost::Catalog;
pub use joinopt_qgraph::QueryGraph;
