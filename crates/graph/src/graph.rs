//! One adjacency array and the arrays derived from it, each built once.
//!
//! LAGraph (Szárnyas et al., IPDPS Workshops 2021) pairs an adjacency
//! matrix with cached properties — its transpose, its degrees — that
//! every algorithm reads instead of recomputing. [`Graph`] is that
//! object. It borrows the caller's matrix and never changes, so a
//! property, once built, stays right: there is nothing to invalidate. A
//! new adjacency (the next streaming epoch) is a new `Graph`.

use std::sync::OnceLock;

use hypersparse::ops::mxv::choose_direction;
use hypersparse::ops::transpose_ctx;
use hypersparse::{Dcsr, Direction, OpCtx, SparseVec};
use semiring::traits::Value;

use crate::triangles::lower_triangle_ctx;

/// An adjacency matrix `A` and its lazily built properties: `Aᵀ`, the
/// out-degrees and the strict lower triangle. Each is computed on first
/// use, on the context that asked for it, and shared by every later call.
pub struct Graph<'a, T> {
    a: &'a Dcsr<T>,
    at: OnceLock<Dcsr<T>>,
    out_degrees: OnceLock<Vec<usize>>,
    lower: OnceLock<Dcsr<T>>,
}

impl<'a, T: Value> Graph<'a, T> {
    /// A graph over `a`, with no property built yet.
    pub fn new(a: &'a Dcsr<T>) -> Self {
        Graph {
            a,
            at: OnceLock::new(),
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

    /// `Aᵀ` for the product `vᵀA`: the transpose if it exists, else built
    /// now if [`choose_direction`] would pull `v` with it, else `None`.
    /// A traversal asks once per level, so the transpose is paid for only
    /// once some frontier is dense enough to pull, and then kept.
    pub(crate) fn transpose_for(&self, ctx: &OpCtx, v: &SparseVec<T>) -> Option<&Dcsr<T>> {
        (self.at.get().is_some() || choose_direction(v, self.a, true) == Direction::Pull)
            .then(|| self.transpose(ctx))
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
