//! Graph algorithms in the language of linear algebra.
//!
//! Fig. 1 of the paper illustrates the *graph–adjacency-array duality*:
//! breadth-first search — the fundamental operation of graphs — **is**
//! array multiplication — the fundamental operation of arrays. This crate
//! realizes both sides of the duality:
//!
//! * [`Graph`] — one adjacency array with the arrays the algorithms
//!   derive from it (transpose, out-degrees, lower triangle), each built
//!   at most once and read by every algorithm run on it — the transpose
//!   only once the graph's pushes have paid for it;
//! * Semiring formulations over [`hypersparse`] matrices:
//!   [`bfs`] (any-pair / min-first), [`sssp`] (min-plus Bellman–Ford),
//!   [`cc`] (min-label propagation), [`triangles`] (masked SpGEMM),
//!   [`pagerank`] (plus-times power iteration), [`centrality`]
//!   (Brandes betweenness as per-level vxm/mxv), [`incremental`]
//!   (delta-fold degree and triangle state for the pipeline's standing
//!   queries). Each algorithm that reads a [`Graph`] property has one
//!   `_ctx` body taking `(&OpCtx, &Graph)`; its bare name over a
//!   `&Dcsr` builds a fresh `Graph` per call;
//! * Classical pointer-chasing [`baseline`]s (queue BFS, binary-heap
//!   Dijkstra, union-find components, wedge-check triangles) — the other
//!   side of the duality, used to validate results and to benchmark the
//!   Fig. 1 comparison;
//! * [`hypergraph`] — incidence (edge) arrays `E_out`/`E_in` with hyper-
//!   and multi-edges (Fig. 2) and the projection
//!   `A = E_outᵀ ⊕.⊗ E_in` (Fig. 3), and [`hyperalgo`] — BFS and
//!   components run directly on the incidence arrays;
//! * [`setops`] — graph union/intersection as element-wise ⊕/⊗ (Fig. 5),
//!   next to hash-set baselines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod bfs;
pub mod cc;
pub mod centrality;
pub mod frontier;
mod graph;
pub mod hyperalgo;
pub mod hypergraph;
pub mod incremental;
pub mod msbfs;
pub mod netsec;
pub mod pagerank;
pub mod pattern;
pub mod setops;
pub mod sssp;
pub mod triangles;

pub use graph::Graph;
pub use hypergraph::Hypergraph;
pub use incremental::{DegreeState, TriangleState};
pub use pattern::{pattern_f64, pattern_u64, pattern_u8, symmetrize};
