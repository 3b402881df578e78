//! The opaque auto-switching matrix — this crate's `GrB_Matrix`.
//!
//! The paper's conclusion credits the GraphBLAS design with supporting
//! "sparse, hypersparse, bitmap, and full" representations and switching
//! between them "automatically, with little or no involvement from the
//! user application". [`Matrix`] reproduces that: it wraps one of the
//! four storage formats and re-evaluates the choice ([`FormatPolicy`])
//! after every operation, based on the occupancy statistics of the
//! result.
//!
//! Computation happens in the hypersparse compute format ([`Dcsr`]);
//! dense/bitmap/CSR are *storage* formats with cheap conversions and
//! format-native SpMV (benchmarked in the Fig. 4 harness).

use std::borrow::Cow;

use semiring::traits::{Monoid, Semiring, UnaryOp, Value};

use crate::bitmap::Bitmap;
use crate::coo::Coo;
use crate::csr::Csr;
use crate::ctx::{with_default_ctx, OpCtx};
use crate::dcsr::Dcsr;
use crate::dense::DenseMat;
use crate::error::{Axis, OpError};
use crate::ops;
use crate::vector::SparseVec;
use crate::Ix;

/// Storage format tags (Fig. 4's regimes plus bitmap).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Format {
    /// Full storage: `nnz ≈ nrows·ncols`.
    Dense,
    /// Full value array + presence bits: moderate density, O(1) updates.
    Bitmap,
    /// Compressed sparse rows: `nnz ≈ nrows`.
    Csr,
    /// Doubly-compressed (hypersparse): `nnz ≪ nrows`.
    Dcsr,
}

/// Automatic format-selection thresholds, mirroring SuiteSparse's
/// `hyper_switch`/`bitmap_switch` controls.
#[derive(Copy, Clone, Debug)]
pub struct FormatPolicy {
    /// Occupancy (`nnz / cells`) at or above which full storage wins.
    pub dense_switch: f64,
    /// Occupancy at or above which bitmap storage wins.
    pub bitmap_switch: f64,
    /// Fraction of non-empty rows below which CSR degrades to DCSR.
    pub hyper_switch: f64,
    /// Never materialize dense/bitmap beyond this many cells.
    pub max_cells: u64,
    /// Never materialize a CSR row-pointer array beyond this many rows.
    pub max_rows: u64,
}

impl Default for FormatPolicy {
    fn default() -> Self {
        FormatPolicy {
            dense_switch: 0.5,
            bitmap_switch: 0.05,
            hyper_switch: 1.0 / 16.0,
            max_cells: 1 << 24,
            max_rows: 1 << 26,
        }
    }
}

impl FormatPolicy {
    /// Pick a format for a matrix with the given statistics.
    pub fn decide(&self, nrows: Ix, ncols: Ix, nnz: usize, nonempty_rows: usize) -> Format {
        let cells = (nrows as u128) * (ncols as u128);
        if cells > 0 && cells <= self.max_cells as u128 {
            let occupancy = nnz as f64 / cells as f64;
            if occupancy >= self.dense_switch {
                return Format::Dense;
            }
            if occupancy >= self.bitmap_switch {
                return Format::Bitmap;
            }
        }
        if nrows <= self.max_rows && nrows > 0 {
            let row_fill = nonempty_rows as f64 / nrows as f64;
            if row_fill >= self.hyper_switch {
                return Format::Csr;
            }
        }
        Format::Dcsr
    }
}

#[derive(Clone, Debug)]
enum Repr<T> {
    Dense(DenseMat<T>),
    Bitmap(Bitmap<T>),
    Csr(Csr<T>),
    Dcsr(Dcsr<T>),
}

/// An opaque matrix that owns its storage-format decision.
#[derive(Clone, Debug)]
pub struct Matrix<T> {
    repr: Repr<T>,
    policy: FormatPolicy,
}

impl<T: Value> Matrix<T> {
    /// An empty matrix (hypersparse until data says otherwise).
    pub fn empty(nrows: Ix, ncols: Ix) -> Self {
        Matrix {
            repr: Repr::Dcsr(Dcsr::empty(nrows, ncols)),
            policy: FormatPolicy::default(),
        }
    }

    /// Build from triplets (duplicates ⊕-merge) and auto-select a format.
    pub fn from_triplets<S: Semiring<Value = T>>(
        nrows: Ix,
        ncols: Ix,
        triplets: Vec<(Ix, Ix, T)>,
        s: S,
    ) -> Self {
        let mut coo = Coo::new(nrows, ncols);
        coo.extend(triplets);
        Self::from_dcsr(coo.build_dcsr(s), s)
    }

    /// Wrap a hypersparse matrix, letting the default policy choose the
    /// storage format (the semiring provides the dense fill value).
    pub fn from_dcsr<S: Semiring<Value = T>>(d: Dcsr<T>, s: S) -> Self {
        Self::from_dcsr_with_policy(d, s, FormatPolicy::default())
    }

    /// As [`Matrix::from_dcsr`] with an explicit policy.
    pub fn from_dcsr_with_policy<S: Semiring<Value = T>>(
        d: Dcsr<T>,
        s: S,
        policy: FormatPolicy,
    ) -> Self {
        let fmt = policy.decide(d.nrows(), d.ncols(), d.nnz(), d.n_nonempty_rows());
        let repr = match fmt {
            Format::Dense => Repr::Dense(DenseMat::from_dcsr(&d, s)),
            Format::Bitmap => Repr::Bitmap(Bitmap::from_dcsr(&d, s)),
            Format::Csr => Repr::Csr(Csr::from_dcsr(&d)),
            Format::Dcsr => Repr::Dcsr(d),
        };
        Matrix { repr, policy }
    }

    /// Force a specific storage format (for the Fig. 4 and ablation
    /// studies; production callers should let the policy decide).
    pub fn with_format<S: Semiring<Value = T>>(self, fmt: Format, s: S) -> Self {
        let policy = self.policy;
        let d = self.into_dcsr();
        let repr = match fmt {
            Format::Dense => Repr::Dense(DenseMat::from_dcsr(&d, s)),
            Format::Bitmap => Repr::Bitmap(Bitmap::from_dcsr(&d, s)),
            Format::Csr => Repr::Csr(Csr::from_dcsr(&d)),
            Format::Dcsr => Repr::Dcsr(d),
        };
        Matrix { repr, policy }
    }

    /// Replace the format policy (applies to subsequent operations).
    pub fn with_policy(mut self, policy: FormatPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The current storage format.
    pub fn format(&self) -> Format {
        match &self.repr {
            Repr::Dense(_) => Format::Dense,
            Repr::Bitmap(_) => Format::Bitmap,
            Repr::Csr(_) => Format::Csr,
            Repr::Dcsr(_) => Format::Dcsr,
        }
    }

    /// Row dimension of the key space.
    pub fn nrows(&self) -> Ix {
        match &self.repr {
            Repr::Dense(m) => m.nrows(),
            Repr::Bitmap(m) => m.nrows(),
            Repr::Csr(m) => m.nrows(),
            Repr::Dcsr(m) => m.nrows(),
        }
    }

    /// Column dimension of the key space.
    pub fn ncols(&self) -> Ix {
        match &self.repr {
            Repr::Dense(m) => m.ncols(),
            Repr::Bitmap(m) => m.ncols(),
            Repr::Csr(m) => m.ncols(),
            Repr::Dcsr(m) => m.ncols(),
        }
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        match &self.repr {
            Repr::Dense(m) => m.nnz(),
            Repr::Bitmap(m) => m.nnz(),
            Repr::Csr(m) => m.nnz(),
            Repr::Dcsr(m) => m.nnz(),
        }
    }

    /// Heap bytes of the current representation — the Fig. 4 metric.
    pub fn bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense(m) => m.bytes(),
            Repr::Bitmap(m) => m.bytes(),
            Repr::Csr(m) => m.bytes(),
            Repr::Dcsr(m) => m.bytes(),
        }
    }

    /// Point lookup (`None` for absent/zero cells, including dense cells
    /// holding the fill value).
    pub fn get(&self, row: Ix, col: Ix) -> Option<&T> {
        match &self.repr {
            Repr::Dense(m) => {
                let v = m.get(row, col);
                (v != m.zero_value()).then_some(v)
            }
            Repr::Bitmap(m) => m.get(row, col),
            Repr::Csr(m) => m.get(row, col),
            Repr::Dcsr(m) => m.get(row, col),
        }
    }

    /// View as the hypersparse compute format, converting if needed.
    pub fn as_dcsr(&self) -> Cow<'_, Dcsr<T>> {
        match &self.repr {
            Repr::Dense(m) => Cow::Owned(m.to_dcsr_by_fill()),
            Repr::Bitmap(m) => Cow::Owned(m.to_dcsr()),
            Repr::Csr(m) => Cow::Owned(m.to_dcsr()),
            Repr::Dcsr(m) => Cow::Borrowed(m),
        }
    }

    /// Consume into the hypersparse compute format.
    pub fn into_dcsr(self) -> Dcsr<T> {
        match self.repr {
            Repr::Dense(m) => m.to_dcsr_by_fill(),
            Repr::Bitmap(m) => m.to_dcsr(),
            Repr::Csr(m) => m.to_dcsr(),
            Repr::Dcsr(m) => m,
        }
    }

    /// All entries as owned triplets in `(row, col)` order.
    pub fn to_triplets(&self) -> Vec<(Ix, Ix, T)> {
        self.as_dcsr().to_triplets()
    }

    /// Re-run format selection on an operation result, counting the
    /// storage-format change (if any) in the context's metrics.
    fn wrap_ctx<S: Semiring<Value = T>>(&self, ctx: &OpCtx, d: Dcsr<T>, s: S) -> Self {
        let out = Self::from_dcsr_with_policy(d, s, self.policy);
        if out.format() != self.format() {
            ctx.metrics().record_format_switch();
        }
        out
    }

    // ---- semiring operations (each re-runs format selection) ----
    //
    // Calling convention (DESIGN.md §7): an operation that can be
    // misused has one body, `try_op_ctx` — explicit `OpCtx`, returns
    // `Result<_, OpError>` — plus the bare `op`, which runs it on the
    // thread's default context and panics with that error's `Display`.
    // An operation that cannot fail has `op_ctx` plus the bare `op`.

    /// `(nrows, ncols)`, as the kernels' `check_*` functions take it.
    pub(crate) fn shape(&self) -> (Ix, Ix) {
        (self.nrows(), self.ncols())
    }

    /// Array multiplication `C = A ⊕.⊗ B`.
    pub fn mxm<S: Semiring<Value = T>>(&self, other: &Self, s: S) -> Self {
        with_default_ctx(|ctx| self.try_mxm_ctx(ctx, other, s)).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Matrix::mxm`] through an explicit execution context:
    /// dimension mismatch becomes an error.
    pub fn try_mxm_ctx<S: Semiring<Value = T>>(
        &self,
        ctx: &OpCtx,
        other: &Self,
        s: S,
    ) -> Result<Self, OpError> {
        ops::mxm::check_mxm("mxm", self.shape(), other.shape())?;
        Ok(self.wrap_ctx(
            ctx,
            ops::mxm_ctx(ctx, &self.as_dcsr(), &other.as_dcsr(), s),
            s,
        ))
    }

    /// Masked array multiplication (see [`ops::mxm_masked_ctx`]).
    pub fn mxm_masked<S: Semiring<Value = T>, M: Value>(
        &self,
        other: &Self,
        mask: &Matrix<M>,
        complement: bool,
        s: S,
    ) -> Self {
        with_default_ctx(|ctx| self.try_mxm_masked_ctx(ctx, other, mask, complement, s))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Matrix::mxm_masked`] through an explicit context:
    /// dimension mismatch (inner dimensions or the mask's key space)
    /// becomes an error.
    pub fn try_mxm_masked_ctx<S: Semiring<Value = T>, M: Value>(
        &self,
        ctx: &OpCtx,
        other: &Self,
        mask: &Matrix<M>,
        complement: bool,
        s: S,
    ) -> Result<Self, OpError> {
        ops::mxm::check_mxm_masked(self.shape(), other.shape(), mask.shape())?;
        Ok(self.wrap_ctx(
            ctx,
            ops::mxm_masked_ctx(
                ctx,
                &self.as_dcsr(),
                &other.as_dcsr(),
                &mask.as_dcsr(),
                complement,
                s,
            ),
            s,
        ))
    }

    /// Element-wise addition `C = A ⊕ B` (pattern union).
    pub fn ewise_add<S: Semiring<Value = T>>(&self, other: &Self, s: S) -> Self {
        with_default_ctx(|ctx| self.try_ewise_add_ctx(ctx, other, s))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Matrix::ewise_add`] through an explicit context.
    pub fn try_ewise_add_ctx<S: Semiring<Value = T>>(
        &self,
        ctx: &OpCtx,
        other: &Self,
        s: S,
    ) -> Result<Self, OpError> {
        ops::ewise::check_same_space("ewise_add", self.shape(), other.shape())?;
        Ok(self.wrap_ctx(
            ctx,
            ops::ewise_add_ctx(ctx, &self.as_dcsr(), &other.as_dcsr(), s),
            s,
        ))
    }

    /// Element-wise multiplication `C = A ⊗ B` (pattern intersection).
    pub fn ewise_mul<S: Semiring<Value = T>>(&self, other: &Self, s: S) -> Self {
        with_default_ctx(|ctx| self.try_ewise_mul_ctx(ctx, other, s))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Matrix::ewise_mul`] through an explicit context.
    pub fn try_ewise_mul_ctx<S: Semiring<Value = T>>(
        &self,
        ctx: &OpCtx,
        other: &Self,
        s: S,
    ) -> Result<Self, OpError> {
        ops::ewise::check_same_space("ewise_mul", self.shape(), other.shape())?;
        Ok(self.wrap_ctx(
            ctx,
            ops::ewise_mul_ctx(ctx, &self.as_dcsr(), &other.as_dcsr(), s),
            s,
        ))
    }

    /// Transpose.
    pub fn transpose<S: Semiring<Value = T>>(&self, s: S) -> Self {
        with_default_ctx(|ctx| self.transpose_ctx(ctx, s))
    }

    /// [`Matrix::transpose`] through an explicit execution context.
    pub fn transpose_ctx<S: Semiring<Value = T>>(&self, ctx: &OpCtx, s: S) -> Self {
        self.wrap_ctx(ctx, ops::transpose_ctx(ctx, &self.as_dcsr()), s)
    }

    /// Apply a unary operator to every stored value.
    pub fn apply<S: Semiring<Value = T>, O: UnaryOp<T, T>>(&self, op: O, s: S) -> Self {
        with_default_ctx(|ctx| self.apply_ctx(ctx, op, s))
    }

    /// [`Matrix::apply`] through an explicit execution context.
    pub fn apply_ctx<S: Semiring<Value = T>, O: UnaryOp<T, T>>(
        &self,
        ctx: &OpCtx,
        op: O,
        s: S,
    ) -> Self {
        self.wrap_ctx(ctx, ops::apply_ctx(ctx, &self.as_dcsr(), op, s), s)
    }

    /// Keep entries satisfying `keep(row, col, value)`.
    pub fn select<S: Semiring<Value = T>, F: Fn(Ix, Ix, &T) -> bool>(&self, keep: F, s: S) -> Self {
        with_default_ctx(|ctx| self.select_ctx(ctx, keep, s))
    }

    /// [`Matrix::select`] through an explicit execution context.
    pub fn select_ctx<S: Semiring<Value = T>, F: Fn(Ix, Ix, &T) -> bool>(
        &self,
        ctx: &OpCtx,
        keep: F,
        s: S,
    ) -> Self {
        self.wrap_ctx(ctx, ops::select_ctx(ctx, &self.as_dcsr(), keep), s)
    }

    /// Submatrix extraction with reindexing. **Permissive**, unlike the
    /// other bare names: out-of-range selector indices address empty
    /// key-space rows/columns and contribute nothing instead of
    /// panicking; [`Matrix::try_extract_ctx`] treats them as errors.
    pub fn extract<S: Semiring<Value = T>>(&self, rows: &[Ix], cols: &[Ix], s: S) -> Self {
        with_default_ctx(|ctx| {
            self.wrap_ctx(ctx, ops::extract_ctx(ctx, &self.as_dcsr(), rows, cols), s)
        })
    }

    /// Strict [`Matrix::extract`] through an explicit context: selector
    /// indices must lie inside the key space.
    pub fn try_extract_ctx<S: Semiring<Value = T>>(
        &self,
        ctx: &OpCtx,
        rows: &[Ix],
        cols: &[Ix],
        s: S,
    ) -> Result<Self, OpError> {
        if let Some(&bad) = rows.iter().find(|&&r| r >= self.nrows()) {
            return Err(OpError::IndexOutOfBounds {
                axis: Axis::Rows,
                index: bad,
                bound: self.nrows(),
            });
        }
        if let Some(&bad) = cols.iter().find(|&&c| c >= self.ncols()) {
            return Err(OpError::IndexOutOfBounds {
                axis: Axis::Cols,
                index: bad,
                bound: self.ncols(),
            });
        }
        Ok(self.wrap_ctx(ctx, ops::extract_ctx(ctx, &self.as_dcsr(), rows, cols), s))
    }

    /// Kronecker product.
    pub fn kron<S: Semiring<Value = T>>(&self, other: &Self, s: S) -> Self {
        with_default_ctx(|ctx| self.kron_ctx(ctx, other, s))
    }

    /// [`Matrix::kron`] through an explicit execution context.
    pub fn kron_ctx<S: Semiring<Value = T>>(&self, ctx: &OpCtx, other: &Self, s: S) -> Self {
        self.wrap_ctx(
            ctx,
            ops::kron_ctx(ctx, &self.as_dcsr(), &other.as_dcsr(), s),
            s,
        )
    }

    /// Submatrix assignment `A(rows, cols) = B` (see [`ops::assign_ctx`]).
    pub fn assign<S: Semiring<Value = T>>(&self, rows: &[Ix], cols: &[Ix], b: &Self, s: S) -> Self {
        with_default_ctx(|ctx| self.assign_ctx(ctx, rows, cols, b, s))
    }

    /// [`Matrix::assign`] through an explicit execution context.
    pub fn assign_ctx<S: Semiring<Value = T>>(
        &self,
        ctx: &OpCtx,
        rows: &[Ix],
        cols: &[Ix],
        b: &Self,
        s: S,
    ) -> Self {
        self.wrap_ctx(
            ctx,
            ops::assign_ctx(ctx, &self.as_dcsr(), rows, cols, &b.as_dcsr()),
            s,
        )
    }

    /// Stack `self` on top of `other`.
    pub fn concat_rows<S: Semiring<Value = T>>(&self, other: &Self, s: S) -> Self {
        with_default_ctx(|ctx| self.try_concat_rows_ctx(ctx, other, s))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Matrix::concat_rows`] through an explicit context:
    /// column mismatch or row-space overflow become errors.
    pub fn try_concat_rows_ctx<S: Semiring<Value = T>>(
        &self,
        ctx: &OpCtx,
        other: &Self,
        s: S,
    ) -> Result<Self, OpError> {
        ops::structure::check_concat(Axis::Rows, self.shape(), other.shape())?;
        Ok(self.wrap_ctx(
            ctx,
            ops::concat_rows_ctx(ctx, &self.as_dcsr(), &other.as_dcsr()),
            s,
        ))
    }

    /// Place `self` to the left of `other`.
    pub fn concat_cols<S: Semiring<Value = T>>(&self, other: &Self, s: S) -> Self {
        with_default_ctx(|ctx| self.try_concat_cols_ctx(ctx, other, s))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Matrix::concat_cols`] through an explicit context:
    /// row mismatch or column-space overflow become errors.
    pub fn try_concat_cols_ctx<S: Semiring<Value = T>>(
        &self,
        ctx: &OpCtx,
        other: &Self,
        s: S,
    ) -> Result<Self, OpError> {
        ops::structure::check_concat(Axis::Cols, self.shape(), other.shape())?;
        Ok(self.wrap_ctx(
            ctx,
            ops::concat_cols_ctx(ctx, &self.as_dcsr(), &other.as_dcsr()),
            s,
        ))
    }

    /// The main diagonal as a sparse vector.
    pub fn diag(&self) -> SparseVec<T> {
        ops::diag_of(&self.as_dcsr())
    }

    /// `A^k` over a semiring (`k ≥ 1`).
    pub fn power<S: Semiring<Value = T>>(&self, k: u32, s: S) -> Self {
        with_default_ctx(|ctx| self.power_ctx(ctx, k, s))
    }

    /// [`Matrix::power`] through an explicit execution context.
    pub fn power_ctx<S: Semiring<Value = T>>(&self, ctx: &OpCtx, k: u32, s: S) -> Self {
        self.wrap_ctx(ctx, ops::matrix_power_ctx(ctx, &self.as_dcsr(), k, s), s)
    }

    /// Row reduction `out(i) = ⊕_j A(i,j)` (the `A ⊕.⊗ 𝟙` projection).
    pub fn reduce_rows<M: Monoid<T>>(&self, m: M) -> SparseVec<T> {
        with_default_ctx(|ctx| self.reduce_rows_ctx(ctx, m))
    }

    /// [`Matrix::reduce_rows`] through an explicit execution context.
    pub fn reduce_rows_ctx<M: Monoid<T>>(&self, ctx: &OpCtx, m: M) -> SparseVec<T> {
        ops::reduce_rows_ctx(ctx, &self.as_dcsr(), m)
    }

    /// Column reduction `out(j) = ⊕_i A(i,j)` (the `𝟙 ⊕.⊗ A` projection).
    pub fn reduce_cols<M: Monoid<T>>(&self, m: M) -> SparseVec<T> {
        with_default_ctx(|ctx| self.reduce_cols_ctx(ctx, m))
    }

    /// [`Matrix::reduce_cols`] through an explicit execution context.
    pub fn reduce_cols_ctx<M: Monoid<T>>(&self, ctx: &OpCtx, m: M) -> SparseVec<T> {
        ops::reduce_cols_ctx(ctx, &self.as_dcsr(), m)
    }

    /// Reduce every entry to one scalar.
    pub fn reduce_scalar<M: Monoid<T>>(&self, m: M) -> T {
        with_default_ctx(|ctx| self.reduce_scalar_ctx(ctx, m))
    }

    /// [`Matrix::reduce_scalar`] through an explicit execution context.
    pub fn reduce_scalar_ctx<M: Monoid<T>>(&self, ctx: &OpCtx, m: M) -> T {
        ops::reduce_scalar_ctx(ctx, &self.as_dcsr(), m)
    }

    /// `vᵀ A` — one frontier-expansion step, in the push direction.
    pub fn vxm<S: Semiring<Value = T>>(&self, v: &SparseVec<T>, s: S) -> SparseVec<T> {
        with_default_ctx(|ctx| self.try_vxm_ctx(ctx, v, s)).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Matrix::vxm`] through an explicit execution context:
    /// dimension mismatch becomes an error.
    pub fn try_vxm_ctx<S: Semiring<Value = T>>(
        &self,
        ctx: &OpCtx,
        v: &SparseVec<T>,
        s: S,
    ) -> Result<SparseVec<T>, OpError> {
        ops::mxv::check_vxm(v.dim(), self.shape(), None)?;
        Ok(ops::vxm_ctx(ctx, v, &self.as_dcsr(), s))
    }

    /// `A v` — sparse row-dot products; Dense/Bitmap storage uses
    /// format-native SpMV.
    pub fn mxv<S: Semiring<Value = T>>(&self, v: &SparseVec<T>, s: S) -> SparseVec<T> {
        with_default_ctx(|ctx| self.try_mxv_ctx(ctx, v, s)).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Matrix::mxv`] through an explicit execution context:
    /// dimension mismatch becomes an error.
    pub fn try_mxv_ctx<S: Semiring<Value = T>>(
        &self,
        ctx: &OpCtx,
        v: &SparseVec<T>,
        s: S,
    ) -> Result<SparseVec<T>, OpError> {
        ops::mxv::check_mxv(self.shape(), None, v.dim())?;
        Ok(match &self.repr {
            // Format-native SpMV for the full formats (no conversion).
            Repr::Dense(m) => {
                let mut idx = Vec::new();
                let mut vals = Vec::new();
                for r in 0..m.nrows() {
                    let mut acc = s.zero();
                    for (i, x) in v.iter() {
                        let a = m.get(r, i);
                        if a != m.zero_value() {
                            let t = s.mul(a.clone(), x.clone());
                            s.add_assign(&mut acc, t);
                        }
                    }
                    if !s.is_zero(&acc) {
                        idx.push(r);
                        vals.push(acc);
                    }
                }
                SparseVec::from_sorted_parts(m.nrows(), idx, vals)
            }
            Repr::Bitmap(m) => {
                let mut idx = Vec::new();
                let mut vals = Vec::new();
                for r in 0..m.nrows() {
                    let mut acc = s.zero();
                    for (i, x) in v.iter() {
                        if let Some(a) = m.get(r, i) {
                            let t = s.mul(a.clone(), x.clone());
                            s.add_assign(&mut acc, t);
                        }
                    }
                    if !s.is_zero(&acc) {
                        idx.push(r);
                        vals.push(acc);
                    }
                }
                SparseVec::from_sorted_parts(m.nrows(), idx, vals)
            }
            // Sparse storage goes through the kernel module instead.
            Repr::Csr(_) | Repr::Dcsr(_) => ops::mxv_ctx(ctx, &self.as_dcsr(), v, s),
        })
    }
}

impl<T: Value> PartialEq for Matrix<T> {
    /// Equality is *mathematical*: same key space, same entries —
    /// regardless of storage format.
    fn eq(&self, other: &Self) -> bool {
        self.nrows() == other.nrows()
            && self.ncols() == other.ncols()
            && *self.as_dcsr() == *other.as_dcsr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_dcsr;
    use semiring::{PlusMonoid, PlusTimes};

    fn s() -> PlusTimes<f64> {
        PlusTimes::new()
    }

    #[test]
    fn policy_picks_fig4_regimes() {
        let p = FormatPolicy::default();
        // nnz ≈ N²: dense.
        assert_eq!(p.decide(64, 64, 3000, 64), Format::Dense);
        // moderate density: bitmap.
        assert_eq!(p.decide(64, 64, 300, 64), Format::Bitmap);
        // nnz ≈ N with most rows occupied: CSR.
        assert_eq!(p.decide(100_000, 100_000, 100_000, 60_000), Format::Csr);
        // nnz ≪ N: hypersparse.
        assert_eq!(p.decide(100_000, 100_000, 50, 50), Format::Dcsr);
        // Huge key space: only DCSR is even possible.
        assert_eq!(p.decide(1 << 60, 1 << 60, 1000, 900), Format::Dcsr);
    }

    #[test]
    fn auto_format_on_construction() {
        let dense = Matrix::from_dcsr(random_dcsr(32, 32, 900, 1, s()), s());
        assert_eq!(dense.format(), Format::Dense);
        let hyper = Matrix::from_dcsr(random_dcsr(1 << 40, 1 << 40, 100, 2, s()), s());
        assert_eq!(hyper.format(), Format::Dcsr);
    }

    #[test]
    fn math_equality_across_formats() {
        let d = random_dcsr(32, 32, 200, 3, s());
        let m = Matrix::from_dcsr(d, s());
        for fmt in [Format::Dense, Format::Bitmap, Format::Csr, Format::Dcsr] {
            let forced = m.clone().with_format(fmt, s());
            assert_eq!(forced.format(), fmt);
            assert_eq!(forced, m);
            assert_eq!(forced.nnz(), m.nnz());
        }
    }

    #[test]
    fn ops_agree_across_all_format_pairs() {
        let a0 = Matrix::from_dcsr(random_dcsr(24, 24, 150, 4, s()), s());
        let b0 = Matrix::from_dcsr(random_dcsr(24, 24, 150, 5, s()), s());
        let want_mxm = a0.mxm(&b0, s());
        let want_add = a0.ewise_add(&b0, s());
        for fa in [Format::Dense, Format::Bitmap, Format::Csr, Format::Dcsr] {
            for fb in [Format::Dense, Format::Bitmap, Format::Csr, Format::Dcsr] {
                let a = a0.clone().with_format(fa, s());
                let b = b0.clone().with_format(fb, s());
                assert_eq!(a.mxm(&b, s()), want_mxm, "{fa:?}·{fb:?}");
                assert_eq!(a.ewise_add(&b, s()), want_add, "{fa:?}+{fb:?}");
            }
        }
    }

    #[test]
    fn mxv_native_formats_agree() {
        let m = Matrix::from_dcsr(random_dcsr(32, 32, 300, 6, s()), s());
        let v = SparseVec::from_entries(32, vec![(0, 1.0), (7, 2.0), (31, 3.0)], s());
        let want = m.clone().with_format(Format::Dcsr, s()).mxv(&v, s());
        for fmt in [Format::Dense, Format::Bitmap, Format::Csr] {
            let got = m.clone().with_format(fmt, s()).mxv(&v, s());
            assert_eq!(got.indices(), want.indices(), "{fmt:?}");
            for (g, w) in got.values().iter().zip(want.values()) {
                assert!((g - w).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn get_hides_dense_fill() {
        let m = Matrix::from_dcsr(random_dcsr(16, 16, 200, 7, s()), s())
            .with_format(Format::Dense, s());
        assert_eq!(m.format(), Format::Dense);
        // Find an absent coordinate.
        let d = m.as_dcsr().clone();
        let mut absent = None;
        'outer: for r in 0..16 {
            for c in 0..16 {
                if d.get(r, c).is_none() {
                    absent = Some((r, c));
                    break 'outer;
                }
            }
        }
        let (r, c) = absent.expect("some cell is empty");
        assert_eq!(m.get(r, c), None);
    }

    #[test]
    fn reductions_and_bytes() {
        let m = Matrix::from_triplets(8, 8, vec![(0, 1, 2.0), (0, 2, 3.0)], s());
        let r = m.reduce_rows(PlusMonoid::<f64>::default());
        assert_eq!(r.get(&0), Some(&5.0));
        assert_eq!(m.reduce_scalar(PlusMonoid::<f64>::default()), 5.0);
        assert!(m.bytes() > 0);
    }

    #[test]
    fn format_switch_after_densifying_product() {
        // Two moderately sparse operands whose product is dense enough to
        // flip the result's storage to bitmap/dense automatically.
        let a = Matrix::from_dcsr(random_dcsr(32, 32, 256, 8, s()), s());
        let b = Matrix::from_dcsr(random_dcsr(32, 32, 256, 9, s()), s());
        let c = a.mxm(&b, s());
        assert!(
            matches!(c.format(), Format::Dense | Format::Bitmap),
            "product of 25%-dense operands should densify, got {:?} at nnz {}",
            c.format(),
            c.nnz()
        );
    }

    #[test]
    fn try_vxm_mxv_dimension_errors() {
        let m = Matrix::from_dcsr(random_dcsr(10, 12, 30, 15, s()), s());
        let bad = SparseVec::<f64>::empty(11);
        let ctx = OpCtx::new();
        let e = m.try_vxm_ctx(&ctx, &bad, s()).unwrap_err();
        assert!(e.to_string().contains("vxm: dimension mismatch"), "{e}");
        let e = m.try_mxv_ctx(&ctx, &bad, s()).unwrap_err();
        assert!(e.to_string().contains("mxv: dimension mismatch"), "{e}");
        assert!(m.try_vxm_ctx(&ctx, &SparseVec::empty(10), s()).is_ok());
        assert!(m.try_mxv_ctx(&ctx, &SparseVec::empty(12), s()).is_ok());
    }
}
