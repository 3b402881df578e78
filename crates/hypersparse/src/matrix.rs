//! The opaque auto-switching matrix — this crate's `GrB_Matrix`.
//!
//! The paper's conclusion credits the GraphBLAS design with supporting
//! "sparse, hypersparse, bitmap, and full" representations and switching
//! between them "automatically, with little or no involvement from the
//! user application". [`Matrix`] reproduces that for Fig. 4's three
//! regimes: it wraps a full ([`DenseMat`]), sparse ([`Csr`]) or
//! hypersparse ([`Dcsr`]) matrix and re-decides the choice
//! ([`Format::decide`]) for the result of every operation. The rule is
//! the fewest heap bytes, counted by each format's own `bytes_for`, so
//! it cannot drift from what Fig. 4 prints.
//!
//! There is no bitmap format. A bitmap stores a value slot per cell plus
//! a presence bit, so it never has fewer bytes than dense storage; in
//! SuiteSparse it pays in assign- and mask-heavy kernels instead (Davis,
//! "Algorithm 1037: SuiteSparse:GraphBLAS v7", ACM TOMS 2023), and this
//! engine runs every kernel but SpMV on DCSR.
//!
//! `Matrix` *stores*; [`crate::ops`] *computes*. An operation is an
//! `ops::*_ctx` kernel run on the hypersparse view through
//! [`Matrix::compute_ctx`], the one place a result's format is decided
//! and a change of format is counted. Dense and CSR are storage formats
//! with cheap conversions; the one operation they run natively is SpMV
//! ([`Matrix::mxv_ctx`], benchmarked in the Fig. 4 harness).

use std::borrow::Cow;

use semiring::traits::{Semiring, Value};

use crate::coo::Coo;
use crate::csr::Csr;
use crate::ctx::OpCtx;
use crate::dcsr::Dcsr;
use crate::dense::DenseMat;
use crate::metrics::{Decision, Kernel};
use crate::ops;
use crate::ops::mxv::{pull_row, with_locator};
use crate::vector::SparseVec;
use crate::Ix;

/// Storage format tags: Fig. 4's three regimes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Format {
    /// Full storage: `nnz ≈ nrows·ncols`.
    Dense,
    /// Compressed sparse rows: `nnz ≈ nrows`.
    Csr,
    /// Doubly-compressed (hypersparse): `nnz ≪ nrows`.
    Dcsr,
}

/// Never materialize dense storage beyond this many cells.
const MAX_CELLS: u128 = 1 << 24;
/// Never materialize a CSR row-pointer array beyond this many rows.
const MAX_ROWS: Ix = 1 << 26;

impl Format {
    /// Heap bytes of a matrix of `T` with these statistics in this
    /// format, as its `bytes()` counts them; `None` where the format is
    /// not materialized (dense past `MAX_CELLS` cells, CSR past
    /// `MAX_ROWS` rows).
    pub fn bytes_for<T: Value>(
        self,
        nrows: Ix,
        ncols: Ix,
        nnz: usize,
        nonempty_rows: usize,
    ) -> Option<usize> {
        match self {
            Format::Dense => ((nrows as u128) * (ncols as u128) <= MAX_CELLS)
                .then(|| DenseMat::<T>::bytes_for(nrows, ncols, nnz, nonempty_rows)),
            Format::Csr => {
                (nrows <= MAX_ROWS).then(|| Csr::<T>::bytes_for(nrows, ncols, nnz, nonempty_rows))
            }
            Format::Dcsr => Some(Dcsr::<T>::bytes_for(nrows, ncols, nnz, nonempty_rows)),
        }
    }

    /// Pick the format with the fewest heap bytes
    /// ([`Format::bytes_for`]) for a matrix of `T` with the given
    /// statistics. A tie goes to DCSR, then CSR: DCSR is the compute
    /// format, so it converts nothing. An empty matrix stays DCSR, as
    /// [`Matrix::empty`] makes it.
    pub fn decide<T: Value>(nrows: Ix, ncols: Ix, nnz: usize, nonempty_rows: usize) -> Format {
        if nnz == 0 {
            return Format::Dcsr;
        }
        [Format::Dcsr, Format::Csr, Format::Dense]
            .into_iter()
            .filter_map(|f| Some((f.bytes_for::<T>(nrows, ncols, nnz, nonempty_rows)?, f)))
            .min_by_key(|&(bytes, _)| bytes)
            .map_or(Format::Dcsr, |(_, f)| f)
    }
}

#[derive(Clone, Debug)]
enum Repr<T> {
    Dense(DenseMat<T>),
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
        let fmt = Format::decide::<T>(d.nrows(), d.ncols(), d.nnz(), d.n_nonempty_rows());
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
            Format::Csr => Repr::Csr(Csr::from_dcsr(&d)),
            Format::Dcsr => Repr::Dcsr(d),
        };
        Matrix { repr }
    }

    /// The current storage format.
    pub fn format(&self) -> Format {
        match &self.repr {
            Repr::Dense(_) => Format::Dense,
            Repr::Csr(_) => Format::Csr,
            Repr::Dcsr(_) => Format::Dcsr,
        }
    }

    /// Row dimension of the key space.
    pub fn nrows(&self) -> Ix {
        match &self.repr {
            Repr::Dense(m) => m.nrows(),
            Repr::Csr(m) => m.nrows(),
            Repr::Dcsr(m) => m.nrows(),
        }
    }

    /// Column dimension of the key space.
    pub fn ncols(&self) -> Ix {
        match &self.repr {
            Repr::Dense(m) => m.ncols(),
            Repr::Csr(m) => m.ncols(),
            Repr::Dcsr(m) => m.ncols(),
        }
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        match &self.repr {
            Repr::Dense(m) => m.nnz(),
            Repr::Csr(m) => m.nnz(),
            Repr::Dcsr(m) => m.nnz(),
        }
    }

    /// Heap bytes of the current representation — the Fig. 4 metric.
    pub fn bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense(m) => m.bytes(),
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
            Repr::Csr(m) => m.get(row, col),
            Repr::Dcsr(m) => m.get(row, col),
        }
    }

    /// View as the hypersparse compute format, converting if needed.
    pub fn as_dcsr(&self) -> Cow<'_, Dcsr<T>> {
        match &self.repr {
            Repr::Dense(m) => Cow::Owned(m.to_dcsr_by_fill()),
            Repr::Csr(m) => Cow::Owned(m.to_dcsr()),
            Repr::Dcsr(m) => Cow::Borrowed(m),
        }
    }

    /// Consume into the hypersparse compute format.
    pub fn into_dcsr(self) -> Dcsr<T> {
        match self.repr {
            Repr::Dense(m) => m.to_dcsr_by_fill(),
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
    /// change (if any) in `ctx`'s metrics as the `format` decision.
    /// Preconditions are the kernel's: it panics with its `check_*`'s
    /// error, which a caller that must not panic calls first.
    pub fn compute_ctx<S: Semiring<Value = T>>(
        &self,
        ctx: &OpCtx,
        s: S,
        op: impl FnOnce(&Dcsr<T>) -> Dcsr<T>,
    ) -> Self {
        let out = Self::from_dcsr(op(&self.as_dcsr()), s);
        if out.format() != self.format() {
            let d = match out.format() {
                Format::Dense => Decision::FormatDense,
                Format::Csr => Decision::FormatCsr,
                Format::Dcsr => Decision::FormatDcsr,
            };
            ctx.metrics().record_decision(d, 1);
        }
        out
    }

    /// `A v` in the storage format: Dense dots each row with `v`'s
    /// entries; CSR pulls each row through the DCSR kernel's row
    /// body, so the two give the same bits (no conversion — what Fig. 4
    /// times per format); DCSR runs [`ops::mxv_ctx`]. Every format
    /// meters one [`Kernel::Mxv`] run. Dense and CSR run on the calling
    /// thread, so Fig. 4 compares formats on a one-thread context.
    /// Panics with [`ops::mxv::check_mxv`]'s error on a dimension
    /// mismatch.
    pub fn mxv_ctx<S: Semiring<Value = T>>(
        &self,
        ctx: &OpCtx,
        v: &SparseVec<T>,
        s: S,
    ) -> SparseVec<T> {
        ops::mxv::check_mxv((self.nrows(), self.ncols()), None, v.dim())
            .unwrap_or_else(|e| panic!("{e}"));
        if let Repr::Dcsr(m) = &self.repr {
            return ops::mxv_ctx(ctx, m, v, s);
        }
        let run = ctx.kernel(Kernel::Mxv, || {
            let (r, c, f) = (self.nrows(), self.ncols(), self.format());
            format!("{r}×{c} {f:?}, {} nnz v", v.nnz())
        });
        let (mut idx, mut vals, mut flops) = (Vec::new(), Vec::new(), 0);
        match &self.repr {
            Repr::Dense(m) => {
                for r in 0..m.nrows() {
                    let row = m.row(r);
                    let mut acc = s.zero();
                    for (c, x) in v.iter() {
                        let a = &row[c as usize];
                        if a != m.zero_value() {
                            s.add_assign(&mut acc, s.mul(a.clone(), x.clone()));
                            flops += 1;
                        }
                    }
                    if !s.is_zero(&acc) {
                        idx.push(r);
                        vals.push(acc);
                    }
                }
            }
            // The DCSR kernel's pull row body, over every row.
            Repr::Csr(m) => with_locator(ctx, v, m.nnz(), |pos| {
                for r in 0..m.nrows() {
                    let (cols, avals) = m.row(r);
                    if let Some(x) = pull_row(v, pos, cols, avals, true, s, &mut flops) {
                        idx.push(r);
                        vals.push(x);
                    }
                }
            }),
            Repr::Dcsr(_) => unreachable!("DCSR returned above"),
        }
        let out = SparseVec::from_sorted_parts(self.nrows(), idx, vals);
        run.done(
            (v.nnz() + self.nnz()) as u64,
            out.nnz() as u64,
            flops,
            (v.bytes() + self.bytes() + out.bytes()) as u64,
        );
        out
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
    use semiring::{LorLand, PlusMonoid, PlusTimes};

    fn s() -> PlusTimes<f64> {
        PlusTimes::new()
    }

    #[test]
    fn policy_picks_fig4_regimes() {
        let decide = Format::decide::<f64>;
        // nnz ≈ N²: dense.
        assert_eq!(decide(64, 64, 3000, 64), Format::Dense);
        // 7 % of cells, every row stored: a row pointer per row is
        // cheaper than a row id and a row pointer per row.
        assert_eq!(decide(64, 64, 300, 64), Format::Csr);
        // nnz ≈ N with most rows occupied: CSR.
        assert_eq!(decide(100_000, 100_000, 100_000, 60_000), Format::Csr);
        // nnz ≈ N with 23 % of rows stored: the row list is cheaper.
        assert_eq!(decide(100_000, 100_000, 100_000, 23_000), Format::Dcsr);
        // nnz ≪ N: hypersparse.
        assert_eq!(decide(100_000, 100_000, 50, 50), Format::Dcsr);
        // Huge key space: only DCSR is even possible.
        assert_eq!(decide(1 << 60, 1 << 60, 1000, 900), Format::Dcsr);
        // Empty stays DCSR, even where dense would hold 0 bytes.
        assert_eq!(decide(0, 64, 0, 0), Format::Dcsr);
    }

    /// Per format: the rule's estimate for `d`'s statistics equals the
    /// `bytes()` of `d` stored in it, and the rule's pick holds no more.
    fn check_bytes_rule<T: Value, S: Semiring<Value = T>>(d: Dcsr<T>, s: S) {
        let (nrows, ncols, nnz, rows) = (d.nrows(), d.ncols(), d.nnz(), d.n_nonempty_rows());
        let auto = Matrix::from_dcsr(d, s);
        for f in [Format::Dense, Format::Csr, Format::Dcsr] {
            let stored = auto.clone().with_format(f, s).bytes();
            let at = (f, nrows, ncols, nnz);
            assert_eq!(
                f.bytes_for::<T>(nrows, ncols, nnz, rows),
                Some(stored),
                "{at:?}"
            );
            // An empty matrix stays DCSR whatever dense would hold.
            assert!(nnz == 0 || auto.bytes() <= stored, "{at:?}");
        }
    }

    #[test]
    fn bytes_rule_counts_what_each_format_stores() {
        for seed in 0..24u64 {
            let (nrows, ncols) = (1 + seed * 37 % 97, 1 + seed * 53 % 89);
            let nnz = (seed * 101 % (nrows * ncols + 1)) as usize;
            let d = random_dcsr(nrows, ncols, nnz, seed, s());
            let mut bits = Coo::new(nrows, ncols);
            bits.extend(d.iter().map(|(r, c, _)| (r, c, true)));
            check_bytes_rule(bits.build_dcsr(LorLand), LorLand);
            check_bytes_rule(d, s());
        }
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
        for fmt in [Format::Dense, Format::Csr, Format::Dcsr] {
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
        for fa in [Format::Dense, Format::Csr, Format::Dcsr] {
            for fb in [Format::Dense, Format::Csr, Format::Dcsr] {
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
        for fmt in [Format::Dense, Format::Csr] {
            let ctx = OpCtx::new();
            let got = m.clone().with_format(fmt, s()).mxv_ctx(&ctx, &v, s());
            assert_eq!(mxv_calls(&ctx), 1, "{fmt:?} meters its own-format run");
            assert_eq!(got.indices(), want.indices(), "{fmt:?}");
            for (g, w) in got.values().iter().zip(want.values()) {
                // CSR pulls through the DCSR row body: the same bits.
                // Dense folds from zero.
                match fmt {
                    Format::Csr => assert_eq!(g.to_bits(), w.to_bits()),
                    _ => assert!((g - w).abs() < 1e-9),
                }
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
        // Two moderately sparse (CSR) operands whose product is dense
        // enough to flip the result's storage to full automatically: one
        // switch is counted. A transpose keeps the occupancy, so the
        // format stays and nothing is counted.
        let switches = |ctx: &OpCtx| ctx.metrics().snapshot().format_switches;
        let a = Matrix::from_dcsr(random_dcsr(32, 32, 256, 8, s()), s());
        let b = Matrix::from_dcsr(random_dcsr(32, 32, 256, 9, s()), s());
        assert_eq!(a.format(), Format::Csr);
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
