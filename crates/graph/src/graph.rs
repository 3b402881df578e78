//! One adjacency array and the arrays derived from it, each built once.
//!
//! LAGraph (Szárnyas et al., IPDPS Workshops 2021) pairs an adjacency
//! matrix with cached properties — its transpose, its degrees — that
//! every algorithm reads instead of recomputing. [`Graph`] is that
//! object. It borrows the caller's matrix and never changes, so a
//! property, once built, stays right: there is nothing to invalidate. A
//! new adjacency (the next streaming epoch) is a new `Graph`.
//!
//! The transpose is bought by a break-even (ski-rental) rule rather than
//! on first use: building `Aᵀ` is one counting pass over `nnz` entries,
//! so a `Graph` builds it only once the push sweeps run through it have
//! touched `nnz` edges, and then only at a level the direction heuristic
//! would pull. One traversal expands each vertex once and so pushes at
//! most `nnz` edges: a one-shot call never builds. A `Graph` that serves
//! a second traversal, components or SSSP has paid for one transpose in
//! pushes, builds it at its next pull-worthy level and keeps it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use hypersparse::ops::mxv::{choose_direction, frontier_edges};
use hypersparse::ops::transpose_ctx;
use hypersparse::{Dcsr, Decision, Direction, OpCtx, SparseVec};
use semiring::traits::Value;

use crate::triangles::lower_triangle_ctx;

/// An adjacency matrix `A` and its lazily built properties: `Aᵀ`, the
/// out-degrees and the strict lower triangle. Each is computed on the
/// context that asked for it (the transpose by the break-even rule of
/// the module docs, the others on first use) and shared by every later
/// call.
pub struct Graph<'a, T> {
    a: &'a Dcsr<T>,
    at: OnceLock<Dcsr<T>>,
    /// Edges the push sweeps [`Graph::transpose_for`] sent out without
    /// a transpose have touched; counted until it reaches `nnz`.
    pushed: AtomicU64,
    out_degrees: OnceLock<Vec<usize>>,
    lower: OnceLock<Dcsr<T>>,
}

impl<'a, T: Value> Graph<'a, T> {
    /// A graph over `a`, with no property built yet.
    pub fn new(a: &'a Dcsr<T>) -> Self {
        Graph {
            a,
            at: OnceLock::new(),
            pushed: AtomicU64::new(0),
            out_degrees: OnceLock::new(),
            lower: OnceLock::new(),
        }
    }

    /// The adjacency matrix `A`.
    pub(crate) fn adjacency(&self) -> &'a Dcsr<T> {
        self.a
    }

    /// `Aᵀ`, built on the first call.
    pub(crate) fn transpose(&self, ctx: &OpCtx) -> &Dcsr<T> {
        self.at.get_or_init(|| transpose_ctx(ctx, self.a))
    }

    /// `Aᵀ` for the product `vᵀA`, or `None` to push `v` without it. Once
    /// the transpose exists it is returned. Before that it is built now
    /// only if the pushes so far have touched `nnz` edges and
    /// [`choose_direction`] would pull `v` with it; while they have not,
    /// `v`'s edges are counted as pushed, each frontier row found by
    /// [`frontier_edges`]' forward cursor. A traversal asks once per
    /// level; each ask made before the transpose exists counts the
    /// `graph_transpose` decision, `built` or `deferred`.
    pub(crate) fn transpose_for(&self, ctx: &OpCtx, v: &SparseVec<T>) -> Option<&Dcsr<T>> {
        if self.at.get().is_none() {
            let paid = self.pushed.load(Ordering::Relaxed) >= self.a.nnz() as u64;
            if !paid {
                let edges = frontier_edges(v, self.a);
                self.pushed.fetch_add(edges, Ordering::Relaxed);
            }
            let build = paid && choose_direction(v, self.a, true) == Direction::Pull;
            let d = if build {
                Decision::GraphTransposeBuilt
            } else {
                Decision::GraphTransposeDeferred
            };
            ctx.metrics().record_decision(d, 1);
            if !build {
                return None;
            }
        }
        Some(self.transpose(ctx))
    }

    /// Stored entries per row, dense over the compact vertex ids
    /// `0..nrows`.
    pub(crate) fn out_degrees(&self) -> &[usize] {
        self.out_degrees.get_or_init(|| {
            let n = usize::try_from(self.a.nrows()).expect("out-degrees need compact vertex ids");
            let mut deg = vec![0; n];
            for (r, cols, _) in self.a.iter_rows() {
                deg[r as usize] = cols.len();
            }
            deg
        })
    }

    /// The strictly lower-triangular part of `A`, built on the first call.
    pub(crate) fn lower(&self, ctx: &OpCtx) -> &Dcsr<T> {
        self.lower.get_or_init(|| lower_triangle_ctx(ctx, self.a))
    }
}
