//! The opaque auto-switching matrix — this crate's `GrB_Matrix`.
//!
//! The paper's conclusion credits the GraphBLAS design with supporting
//! "sparse, hypersparse, bitmap, and full" representations and switching
//! between them "automatically, with little or no involvement from the
//! user application". [`Matrix`] reproduces that: it wraps one of the
//! four storage formats and re-decides the choice ([`Format::decide`])
//! for the result of every operation, from its occupancy statistics.
//!
//! `Matrix` *stores*; [`crate::ops`] *computes*. An operation is an
//! `ops::*_ctx` kernel run on the hypersparse view through
//! [`Matrix::compute_ctx`], the one place a result's format is decided
//! and a change of format is counted. Dense/bitmap/CSR are storage
//! formats with cheap conversions; the one operation they run natively
//! is SpMV ([`Matrix::mxv_ctx`], benchmarked in the Fig. 4 harness).

use std::borrow::Cow;

use semiring::traits::{Semiring, Value};

use crate::bitmap::Bitmap;
use crate::coo::Coo;
use crate::csr::Csr;
use crate::ctx::OpCtx;
use crate::dcsr::Dcsr;
use crate::dense::DenseMat;
use crate::ops;
use crate::ops::mxv::intersect_sorted;
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

// Format-selection thresholds, after SuiteSparse's `hyper_switch` /
// `bitmap_switch` controls.
/// Occupancy (`nnz / cells`) at or above which full storage wins.
const DENSE_SWITCH: f64 = 0.5;
/// Occupancy at or above which bitmap storage wins.
const BITMAP_SWITCH: f64 = 0.05;
/// Fraction of non-empty rows below which CSR degrades to DCSR.
const HYPER_SWITCH: f64 = 1.0 / 16.0;
/// Never materialize dense/bitmap beyond this many cells.
const MAX_CELLS: u128 = 1 << 24;
/// Never materialize a CSR row-pointer array beyond this many rows.
const MAX_ROWS: Ix = 1 << 26;

impl Format {
    /// Pick a format for a matrix with the given statistics.
    pub fn decide(nrows: Ix, ncols: Ix, nnz: usize, nonempty_rows: usize) -> Format {
        let cells = (nrows as u128) * (ncols as u128);
        if cells > 0 && cells <= MAX_CELLS {
            let occupancy = nnz as f64 / cells as f64;
            if occupancy >= DENSE_SWITCH {
                return Format::Dense;
            }
            if occupancy >= BITMAP_SWITCH {
                return Format::Bitmap;
            }
        }
        if nrows <= MAX_ROWS && nrows > 0 {
            let row_fill = nonempty_rows as f64 / nrows as f64;
            if row_fill >= HYPER_SWITCH {
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
}

impl<T: Value> Matrix<T> {
    /// An empty matrix (hypersparse until data says otherwise).
    pub fn empty(nrows: Ix, ncols: Ix) -> Self {
        Matrix {
            repr: Repr::Dcsr(Dcsr::empty(nrows, ncols)),
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

    /// Wrap a hypersparse matrix in the format [`Format::decide`] picks
    /// (the semiring provides the dense fill value).
    pub fn from_dcsr<S: Semiring<Value = T>>(d: Dcsr<T>, s: S) -> Self {
        let fmt = Format::decide(d.nrows(), d.ncols(), d.nnz(), d.n_nonempty_rows());
        Matrix {
            repr: Repr::Dcsr(d),
        }
        .with_format(fmt, s)
    }

    /// Force a specific storage format (for the Fig. 4 and ablation
    /// studies; production callers should let [`Format::decide`] pick).
    pub fn with_format<S: Semiring<Value = T>>(self, fmt: Format, s: S) -> Self {
        let d = self.into_dcsr();
        let repr = match fmt {
            Format::Dense => Repr::Dense(DenseMat::from_dcsr(&d, s)),
            Format::Bitmap => Repr::Bitmap(Bitmap::from_dcsr(&d, s)),
            Format::Csr => Repr::Csr(Csr::from_dcsr(&d)),
            Format::Dcsr => Repr::Dcsr(d),
        };
        Matrix { repr }
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

    /// The one way to compute on a `Matrix`: run `op` — an
    /// `ops::*_ctx` kernel on `ctx` — on the hypersparse view, let
    /// [`Format::decide`] store the result, and count a storage-format
    /// change (if any) in `ctx`'s metrics. Preconditions are the
    /// kernel's: it panics with its `check_*`'s error, which a caller
    /// that must not panic calls first.
    pub fn compute_ctx<S: Semiring<Value = T>>(
        &self,
        ctx: &OpCtx,
        s: S,
        op: impl FnOnce(&Dcsr<T>) -> Dcsr<T>,
    ) -> Self {
        let out = Self::from_dcsr(op(&self.as_dcsr()), s);
        if out.format() != self.format() {
            ctx.metrics().record_format_switch();
        }
        out
    }

    /// `A v` in the storage format: Dense and Bitmap dot each row with
    /// `v`'s entries, CSR intersects each row with `v` (no conversion,
    /// no kernel call — what Fig. 4 times per format); DCSR runs
    /// [`ops::mxv_ctx`]. Panics with
    /// [`ops::mxv::check_mxv`]'s error on a dimension mismatch.
    pub fn mxv_ctx<S: Semiring<Value = T>>(
        &self,
        ctx: &OpCtx,
        v: &SparseVec<T>,
        s: S,
    ) -> SparseVec<T> {
        ops::mxv::check_mxv((self.nrows(), self.ncols()), None, v.dim())
            .unwrap_or_else(|e| panic!("{e}"));
        match &self.repr {
            Repr::Dense(m) => row_dots(m.nrows(), s, |r, emit| {
                let row = m.row(r);
                for (c, x) in v.iter() {
                    let a = &row[c as usize];
                    if a != m.zero_value() {
                        emit(a, x);
                    }
                }
            }),
            Repr::Bitmap(m) => row_dots(m.nrows(), s, |r, emit| {
                for (c, x) in v.iter() {
                    if let Some(a) = m.get(r, c) {
                        emit(a, x);
                    }
                }
            }),
            // The row ∩ `v` walk of the DCSR kernel's pull.
            Repr::Csr(m) => row_dots(m.nrows(), s, |r, emit| {
                let (cols, vals) = m.row(r);
                let vx = v.values();
                intersect_sorted(cols, v.indices(), |p, q| emit(&vals[p], &vx[q]));
            }),
            Repr::Dcsr(m) => ops::mxv_ctx(ctx, m, v, s),
        }
    }
}

/// `out(r) = ⊕ A(r,c) ⊗ v(c)` over every row of a materialized format;
/// `products(r, emit)` emits row `r`'s `(A(r,c), v(c))` pairs where both
/// are stored, in increasing column order.
fn row_dots<T: Value, S: Semiring<Value = T>>(
    nrows: Ix,
    s: S,
    products: impl Fn(Ix, &mut dyn FnMut(&T, &T)),
) -> SparseVec<T> {
    let (mut idx, mut vals) = (Vec::new(), Vec::new());
    for r in 0..nrows {
        let mut acc = s.zero();
        products(r, &mut |a, x| {
            s.add_assign(&mut acc, s.mul(a.clone(), x.clone()))
        });
        if !s.is_zero(&acc) {
            idx.push(r);
            vals.push(acc);
        }
    }
    SparseVec::from_sorted_parts(nrows, idx, vals)
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
    use crate::metrics::Kernel;
    use semiring::{PlusMonoid, PlusTimes};

    fn s() -> PlusTimes<f64> {
        PlusTimes::new()
    }

    #[test]
    fn policy_picks_fig4_regimes() {
        // nnz ≈ N²: dense.
        assert_eq!(Format::decide(64, 64, 3000, 64), Format::Dense);
        // moderate density: bitmap.
        assert_eq!(Format::decide(64, 64, 300, 64), Format::Bitmap);
        // nnz ≈ N with most rows occupied: CSR.
        assert_eq!(
            Format::decide(100_000, 100_000, 100_000, 60_000),
            Format::Csr
        );
        // nnz ≪ N: hypersparse.
        assert_eq!(Format::decide(100_000, 100_000, 50, 50), Format::Dcsr);
        // Huge key space: only DCSR is even possible.
        assert_eq!(Format::decide(1 << 60, 1 << 60, 1000, 900), Format::Dcsr);
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
        let ctx = OpCtx::new();
        let mxm = |a: &Matrix<f64>, b: &Matrix<f64>| {
            a.compute_ctx(&ctx, s(), |a| ops::mxm_ctx(&ctx, a, &b.as_dcsr(), s()))
        };
        let add = |a: &Matrix<f64>, b: &Matrix<f64>| {
            a.compute_ctx(&ctx, s(), |a| {
                ops::ewise_add_ctx(&ctx, a, &b.as_dcsr(), s())
            })
        };
        let a0 = Matrix::from_dcsr(random_dcsr(24, 24, 150, 4, s()), s());
        let b0 = Matrix::from_dcsr(random_dcsr(24, 24, 150, 5, s()), s());
        let want_mxm = mxm(&a0, &b0);
        let want_add = add(&a0, &b0);
        for fa in [Format::Dense, Format::Bitmap, Format::Csr, Format::Dcsr] {
            for fb in [Format::Dense, Format::Bitmap, Format::Csr, Format::Dcsr] {
                let a = a0.clone().with_format(fa, s());
                let b = b0.clone().with_format(fb, s());
                assert_eq!(mxm(&a, &b), want_mxm, "{fa:?}·{fb:?}");
                assert_eq!(add(&a, &b), want_add, "{fa:?}+{fb:?}");
            }
        }
    }

    #[test]
    fn mxv_native_formats_agree() {
        let m = Matrix::from_dcsr(random_dcsr(32, 32, 300, 6, s()), s());
        let v = SparseVec::from_entries(32, vec![(0, 1.0), (7, 2.0), (31, 3.0)], s());
        let mxv_calls = |ctx: &OpCtx| ctx.metrics().snapshot().kernel(Kernel::Mxv).calls;
        let ctx = OpCtx::new();
        let want = m
            .clone()
            .with_format(Format::Dcsr, s())
            .mxv_ctx(&ctx, &v, s());
        assert_eq!(mxv_calls(&ctx), 1, "DCSR runs the kernel");
        for fmt in [Format::Dense, Format::Bitmap, Format::Csr] {
            let ctx = OpCtx::new();
            let got = m.clone().with_format(fmt, s()).mxv_ctx(&ctx, &v, s());
            assert_eq!(mxv_calls(&ctx), 0, "{fmt:?} runs in its own format");
            assert_eq!(got.indices(), want.indices(), "{fmt:?}");
            for (g, w) in got.values().iter().zip(want.values()) {
                assert!((g - w).abs() < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "mxv: dimension mismatch")]
    fn mxv_ctx_checks_before_the_native_arms() {
        let m = Matrix::from_dcsr(random_dcsr(10, 12, 30, 15, s()), s())
            .with_format(Format::Dense, s());
        m.mxv_ctx(&OpCtx::new(), &SparseVec::empty(11), s());
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
        let ctx = OpCtx::new();
        let r = ops::reduce_rows_ctx(&ctx, &m.as_dcsr(), PlusMonoid::<f64>::default());
        assert_eq!(r.get(&0), Some(&5.0));
        let total = ops::reduce_scalar_ctx(&ctx, &m.as_dcsr(), PlusMonoid::<f64>::default());
        assert_eq!(total, 5.0);
        assert!(m.bytes() > 0);
    }

    #[test]
    fn format_switch_after_densifying_product() {
        // Two moderately sparse (bitmap) operands whose product is dense
        // enough to flip the result's storage to full automatically: one
        // switch is counted. A transpose keeps the occupancy, so the
        // format stays and nothing is counted.
        let switches = |ctx: &OpCtx| ctx.metrics().snapshot().format_switches;
        let a = Matrix::from_dcsr(random_dcsr(32, 32, 256, 8, s()), s());
        let b = Matrix::from_dcsr(random_dcsr(32, 32, 256, 9, s()), s());
        assert_eq!(a.format(), Format::Bitmap);
        let ctx = OpCtx::new();
        let c = a.compute_ctx(&ctx, s(), |a| ops::mxm_ctx(&ctx, a, &b.as_dcsr(), s()));
        assert_eq!(
            c.format(),
            Format::Dense,
            "product of 25%-dense operands should densify, got nnz {}",
            c.nnz()
        );
        assert_eq!(switches(&ctx), 1);
        let ctx = OpCtx::new();
        let t = a.compute_ctx(&ctx, s(), |a| ops::transpose_ctx(&ctx, a));
        assert_eq!(t.format(), a.format());
        assert_eq!(switches(&ctx), 0);
    }

    #[test]
    fn try_vxm_mxv_dimension_errors() {
        let m = Matrix::from_dcsr(random_dcsr(10, 12, 30, 15, s()), s());
        let shape = (m.nrows(), m.ncols());
        let e = ops::mxv::check_vxm(11, shape, None).unwrap_err();
        assert!(e.to_string().contains("vxm: dimension mismatch"), "{e}");
        let e = ops::mxv::check_mxv(shape, None, 11).unwrap_err();
        assert!(e.to_string().contains("mxv: dimension mismatch"), "{e}");
        assert!(ops::mxv::check_vxm(10, shape, None).is_ok());
        assert!(ops::mxv::check_mxv(shape, None, 12).is_ok());
    }
}
