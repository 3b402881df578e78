//! Database views over associative arrays — §V.B and Fig. 6.
//!
//! Fig. 6 of the paper shows one dataset (network flow records) living
//! simultaneously as a SQL table, a NoSQL triple store, a NewSQL/D4M
//! associative array, and a graph adjacency array — and one query
//! ("find 1.1.1.1's nearest neighbors") expressible in each. This crate
//! builds all four views:
//!
//! * [`RowTable`] — the SQL-flavoured baseline: rows of field→value
//!   maps, queried by full scan;
//! * [`TripleStore`] — the NoSQL view: (subject, predicate, object)
//!   triples with hash indexes in both directions;
//! * [`AssocTable`] — the D4M *exploded schema*: row key = record id,
//!   column key = `field|value`, value = 1 — a hypersparse associative
//!   array on which selects are column extractions, joins are array
//!   multiplies, and group-by counts are column reductions;
//! * the adjacency-array view, reachable from [`AssocTable::adjacency`]
//!   (`A = E_srcᵀ ⊕.⊗ E_dst`, the Fig. 3 projection applied to tables).
//!
//! All three bulk-build from one interned, ranked [`Columns`] set, and
//! all three engines answer one predicate language through the
//! [`Select`] trait ([`Pred`] combinators building a [`PredExpr`] tree),
//! the SQL front-end returns typed [`SqlError`]s, and every executor
//! produces an id-sorted [`ResultSet`] so engines compare with `==`.
//!
//! [`gen`] generates the synthetic flow records the Fig. 6 harness uses.
//! Every query result is cross-validated between views in the tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assoc_table;
pub mod columns;
pub mod error;
pub mod gen;
pub mod query;
pub mod result;
pub mod rowstore;
pub mod sql;
pub mod triplestore;

pub use assoc_table::AssocTable;
pub use columns::{Columns, ColumnsBuilder};
pub use error::SqlError;
pub use query::{Pred, PredExpr, Select};
pub use result::{ResultSet, Row};
pub use rowstore::{RowRef, RowTable};
pub use triplestore::TripleStore;

/// A record: ordered `(field, value)` pairs (all strings, as in D4M).
pub type Record = Vec<(String, String)>;
