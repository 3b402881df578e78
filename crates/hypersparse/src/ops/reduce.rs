//! Monoid reductions — the paper's projections `A ⊕.⊗ 𝟙` (§IV).
//!
//! `C = A ⊕.⊗ 𝟙` collapses columns: `C(k₁) = ⊕_{k₂} A(k₁, k₂)` — that is
//! [`reduce_rows_ctx`]. `𝟙 ⊕.⊗ A` collapses rows — [`reduce_cols_ctx`]. Rather
//! than materialize an all-ones array over a 2⁶⁰ key space, the kernels
//! fold directly; the equivalence with the literal ⊕.⊗-against-ones form
//! is asserted in the `hyperspace-core` semilink tests.

use std::collections::HashMap;

use semiring::traits::{Monoid, Value};

use crate::ctx::{par_run, OpCtx};
use crate::dcsr::Dcsr;
use crate::metrics::Kernel;
use crate::radix::radix_sort_by_key;
use crate::vector::SparseVec;
use crate::Ix;

/// Stored rows per shard when fanning row-wise kernels out over
/// [`par_run`]. Every row's fold happens wholly inside one shard and
/// shards concatenate in row order, so the output is bit-identical at
/// any thread count.
pub(crate) const ROWS_PER_SHARD: usize = 512;

/// Fold each non-empty row with the monoid: `out(i) = ⊕_j A(i, j)`.
pub fn reduce_rows_ctx<T: Value, M: Monoid<T>>(ctx: &OpCtx, a: &Dcsr<T>, m: M) -> SparseVec<T> {
    let run = ctx.kernel(Kernel::ReduceRows, || {
        format!("{}×{}, {} nnz", a.nrows(), a.ncols(), a.nnz())
    });
    let nrows = a.n_nonempty_rows();
    let nshards = nrows.div_ceil(ROWS_PER_SHARD).max(1);
    let fold_rows = |lo: usize, hi: usize| {
        let mut idx = Vec::with_capacity(hi - lo);
        let mut vals = Vec::with_capacity(hi - lo);
        for k in lo..hi {
            let (r, _cols, vs) = a.row_at(k);
            let mut acc = m.identity();
            for v in vs {
                acc = m.combine(acc, v.clone());
            }
            if !m.is_identity(&acc) {
                idx.push(r);
                vals.push(acc);
            }
        }
        (idx, vals)
    };
    let (idx, vals) = if nshards == 1 {
        fold_rows(0, nrows)
    } else {
        let parts = par_run(ctx.threads(), nshards, |shard| {
            let lo = shard * ROWS_PER_SHARD;
            fold_rows(lo, (lo + ROWS_PER_SHARD).min(nrows))
        });
        let mut idx = Vec::with_capacity(nrows);
        let mut vals = Vec::with_capacity(nrows);
        for (i, v) in parts {
            idx.extend(i);
            vals.extend(v);
        }
        (idx, vals)
    };
    let out = SparseVec::from_sorted_parts(a.nrows(), idx, vals);
    run.done(
        a.nnz() as u64,
        out.nnz() as u64,
        a.nnz() as u64, // one combine per stored entry
        (a.bytes() + out.bytes()) as u64,
    );
    out
}

/// Fold each non-empty column: `out(j) = ⊕_i A(i, j)`.
pub fn reduce_cols_ctx<T: Value, M: Monoid<T>>(ctx: &OpCtx, a: &Dcsr<T>, m: M) -> SparseVec<T> {
    let run = ctx.kernel(Kernel::ReduceCols, || {
        format!("{}×{}, {} nnz", a.nrows(), a.ncols(), a.nnz())
    });
    let mut acc: HashMap<Ix, T> = HashMap::new();
    for (_r, c, v) in a.iter() {
        match acc.entry(c) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let cur = e.get_mut();
                *cur = m.combine(cur.clone(), v.clone());
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(v.clone());
            }
        }
    }
    let mut entries: Vec<(Ix, T)> = acc.into_iter().filter(|(_, v)| !m.is_identity(v)).collect();
    entries.sort_by_key(|e| e.0);
    let (idx, vals) = entries.into_iter().unzip();
    let out = SparseVec::from_sorted_parts(a.ncols(), idx, vals);
    run.done(
        a.nnz() as u64,
        out.nnz() as u64,
        a.nnz() as u64,
        (a.bytes() + out.bytes()) as u64,
    );
    out
}

/// Row degrees of the sparsity pattern: stored entries per non-empty
/// row, read off the row extents. Equal to [`reduce_rows_ctx`] with `+`
/// over the all-ones pattern of `a`, without building that pattern or
/// touching a value; recorded on the same [`Kernel::ReduceRows`] row.
pub fn row_degrees_ctx<T: Value>(ctx: &OpCtx, a: &Dcsr<T>) -> SparseVec<u64> {
    let run = ctx.kernel(Kernel::ReduceRows, || {
        format!("{}×{}, {} nnz, structural", a.nrows(), a.ncols(), a.nnz())
    });
    let degrees = (0..a.n_nonempty_rows())
        .map(|k| a.row_len_at(k) as u64)
        .collect();
    let out = SparseVec::from_sorted_parts(a.nrows(), a.row_ids().to_vec(), degrees);
    run.done(
        a.nnz() as u64,
        out.nnz() as u64,
        out.nnz() as u64, // one extent subtraction per stored row
        2 * out.bytes() as u64,
    );
    out
}

/// Column degrees of the sparsity pattern: stored entries per non-empty
/// column, by sorting the column ids and counting runs. Equal to
/// [`reduce_cols_ctx`] with `+` over the all-ones pattern of `a`;
/// recorded on the same [`Kernel::ReduceCols`] row.
pub fn col_degrees_ctx<T: Value>(ctx: &OpCtx, a: &Dcsr<T>) -> SparseVec<u64> {
    let run = ctx.kernel(Kernel::ReduceCols, || {
        format!("{}×{}, {} nnz, structural", a.nrows(), a.ncols(), a.nnz())
    });
    let mut cols = a.col_ids().to_vec();
    radix_sort_by_key(&mut cols, &mut Vec::new(), |&c| (0, c));
    let (idx, degrees) = cols
        .chunk_by(|x, y| x == y)
        .map(|run| (run[0], run.len() as u64))
        .unzip();
    let out = SparseVec::from_sorted_parts(a.ncols(), idx, degrees);
    run.done(
        a.nnz() as u64,
        out.nnz() as u64,
        a.nnz() as u64, // one count per stored entry
        (2 * std::mem::size_of_val(cols.as_slice()) + out.bytes()) as u64,
    );
    out
}

/// Fold every stored entry into one value.
pub fn reduce_scalar_ctx<T: Value, M: Monoid<T>>(ctx: &OpCtx, a: &Dcsr<T>, m: M) -> T {
    let run = ctx.kernel(Kernel::ReduceScalar, || {
        format!("{}×{}, {} nnz", a.nrows(), a.ncols(), a.nnz())
    });
    let mut acc = m.identity();
    for (_, _, v) in a.iter() {
        acc = m.combine(acc, v.clone());
    }
    run.done(
        a.nnz() as u64,
        1,
        a.nnz() as u64,
        (a.bytes() + std::mem::size_of::<T>()) as u64,
    );
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use semiring::{MaxMonoid, MinMonoid, PlusMonoid};

    fn m(t: &[(Ix, Ix, f64)]) -> Dcsr<f64> {
        let mut c = Coo::new(8, 8);
        c.extend(t.iter().copied());
        c.build_dcsr(semiring::PlusTimes::<f64>::new())
    }

    #[test]
    fn row_reduction_is_out_degree_weight() {
        let a = m(&[(0, 1, 1.0), (0, 2, 2.0), (3, 3, 5.0)]);
        let r = reduce_rows_ctx(&OpCtx::new(), &a, PlusMonoid::<f64>::default());
        assert_eq!(r.get(&0), Some(&3.0));
        assert_eq!(r.get(&3), Some(&5.0));
        assert_eq!(r.get(&1), None);
    }

    #[test]
    fn col_reduction_is_in_degree_weight() {
        let a = m(&[(0, 1, 1.0), (2, 1, 2.0), (3, 3, 5.0)]);
        let c = reduce_cols_ctx(&OpCtx::new(), &a, PlusMonoid::<f64>::default());
        assert_eq!(c.get(&1), Some(&3.0));
        assert_eq!(c.get(&3), Some(&5.0));
    }

    #[test]
    fn scalar_reduction() {
        let a = m(&[(0, 1, 1.0), (2, 1, 2.0), (3, 3, 5.0)]);
        assert_eq!(
            reduce_scalar_ctx(&OpCtx::new(), &a, PlusMonoid::<f64>::default()),
            8.0
        );
        assert_eq!(
            reduce_scalar_ctx(&OpCtx::new(), &a, MaxMonoid::<f64>::default()),
            5.0
        );
        assert_eq!(
            reduce_scalar_ctx(&OpCtx::new(), &a, MinMonoid::<f64>::default()),
            1.0
        );
    }

    #[test]
    fn empty_reduces_to_identity() {
        let a = Dcsr::<f64>::empty(8, 8);
        assert_eq!(
            reduce_scalar_ctx(&OpCtx::new(), &a, PlusMonoid::<f64>::default()),
            0.0
        );
        assert!(reduce_rows_ctx(&OpCtx::new(), &a, PlusMonoid::<f64>::default()).is_empty());
        assert!(reduce_cols_ctx(&OpCtx::new(), &a, PlusMonoid::<f64>::default()).is_empty());
    }

    #[test]
    fn identity_results_are_dropped() {
        // Row sums that cancel to the monoid identity don't appear.
        let a = m(&[(0, 1, 2.0), (0, 2, -2.0), (1, 1, 1.0)]);
        let r = reduce_rows_ctx(&OpCtx::new(), &a, PlusMonoid::<f64>::default());
        assert_eq!(r.get(&0), None);
        assert_eq!(r.get(&1), Some(&1.0));
    }

    #[test]
    fn ctx_reductions_record() {
        let ctx = crate::ctx::OpCtx::new();
        let a = m(&[(0, 1, 1.0), (2, 1, 2.0), (3, 3, 5.0)]);
        let _ = reduce_rows_ctx(&ctx, &a, PlusMonoid::<f64>::default());
        let _ = reduce_cols_ctx(&ctx, &a, PlusMonoid::<f64>::default());
        let _ = reduce_scalar_ctx(&ctx, &a, PlusMonoid::<f64>::default());
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.kernel(Kernel::ReduceRows).calls, 1);
        assert_eq!(snap.kernel(Kernel::ReduceCols).calls, 1);
        assert_eq!(snap.kernel(Kernel::ReduceScalar).calls, 1);
        assert_eq!(snap.kernel(Kernel::ReduceRows).flops, 3);
    }

    #[test]
    fn parallel_reduce_rows_is_bit_identical() {
        // Enough non-empty rows to span several shards.
        let a = crate::gen::random_dcsr(4000, 4000, 20_000, 31, semiring::PlusTimes::<f64>::new());
        assert!(a.n_nonempty_rows() > 2 * ROWS_PER_SHARD);
        let base = {
            let ctx = crate::ctx::OpCtx::new().with_threads(1);
            reduce_rows_ctx(&ctx, &a, PlusMonoid::<f64>::default())
        };
        for threads in [2, 4, 8] {
            let ctx = crate::ctx::OpCtx::new().with_threads(threads);
            let got = reduce_rows_ctx(&ctx, &a, PlusMonoid::<f64>::default());
            assert!(got == base, "reduce_rows differs at {threads} threads");
        }
    }
}
