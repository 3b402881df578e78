//! Top-k selection — heavy-hitter extraction as a first-class kernel.
//!
//! Network-analytics workloads (and any "who are the biggest players"
//! query) repeatedly need *the k largest entries of a reduction*: top
//! talkers by packet volume, hottest destinations by fan-in. Rather
//! than every workload open-coding a sort over a [`SparseVec`], the
//! kernel layer provides it once, with the partial-sort trade the ad hoc
//! versions always miss: `O(n)` selection of the k-boundary
//! (`select_nth_unstable_by`) followed by an `O(k log k)` sort of only
//! the winners — never an `O(n log n)` sort of the whole vector.
//!
//! Ordering is total and deterministic: descending by value
//! (`PartialOrd`; incomparable values — IEEE NaN — rank strictly last),
//! ties broken by ascending index. Every entry point records into the
//! [`Kernel::TopK`] metrics row; the fused `top_k_rows`/`top_k_cols`
//! forms additionally record their inner reduction under its own kernel,
//! so flame-graphs and Prometheus keep the two costs separate.

use std::cmp::Ordering;
use std::time::Instant;

use semiring::traits::{Monoid, Value};

use crate::ctx::OpCtx;
use crate::dcsr::Dcsr;
use crate::index::IndexType;
use crate::metrics::Kernel;
use crate::ops::reduce::{reduce_cols_ctx, reduce_rows_ctx};
use crate::vector::SparseVec;
use crate::Ix;

/// Total order for ranking: larger values first, incomparable values
/// (IEEE NaN — the only `PartialOrd` incomparables in practice) rank
/// strictly after every comparable value, ties broken by smaller index
/// first.
///
/// Treating incomparable pairs as `Equal` (the previous behaviour) is
/// **not** a total order: `select_nth_unstable_by` and `sort_by` require
/// transitivity, and with `NaN "=" 1.0` and `NaN "=" 9.0` but
/// `1.0 < 9.0`, a NaN landing near the k-boundary could
/// nondeterministically displace a genuine heavy hitter. Self-comparison
/// via `partial_cmp` detects incomparables without requiring `T: Float`.
fn rank<T: Value + PartialOrd>(a: &(Ix, T), b: &(Ix, T)) -> Ordering {
    let a_nan = a.1.partial_cmp(&a.1).is_none();
    let b_nan = b.1.partial_cmp(&b.1).is_none();
    match (a_nan, b_nan) {
        (true, true) => a.0.cmp(&b.0),
        (true, false) => Ordering::Greater, // NaN sorts last (after b)
        (false, true) => Ordering::Less,
        (false, false) => {
            b.1.partial_cmp(&a.1)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        }
    }
}

/// The `k` largest entries of a sparse vector, descending by value with
/// ascending-index tie-breaks. Returns fewer than `k` pairs when the
/// vector has fewer stored entries.
pub fn top_k_ctx<T: Value + PartialOrd, I: IndexType>(
    ctx: &OpCtx,
    v: &SparseVec<T, I>,
    k: usize,
) -> Vec<(Ix, T)> {
    let _span = ctx.kernel_span(Kernel::TopK, || format!("k={k} of {} nnz", v.nnz()));
    let start = Instant::now();
    let mut entries: Vec<(Ix, T)> = v.iter().map(|(i, val)| (i, val.clone())).collect();
    if k < entries.len() {
        // O(n) boundary selection, then sort only the surviving prefix.
        entries.select_nth_unstable_by(k, rank);
        entries.truncate(k);
    }
    entries.sort_by(rank);
    ctx.metrics().record(
        Kernel::TopK,
        start.elapsed(),
        v.nnz() as u64,
        entries.len() as u64,
        v.nnz() as u64, // comparison work is linear in stored entries
        (v.bytes() + entries.len() * (std::mem::size_of::<Ix>() + std::mem::size_of::<T>())) as u64,
    );
    entries
}

/// Heavy-hitter rows: ⊕-reduce every row, then take the `k` largest
/// folds — e.g. top traffic sources by total packet volume.
pub fn top_k_rows_ctx<T, M>(ctx: &OpCtx, a: &Dcsr<T>, k: usize, m: M) -> Vec<(Ix, T)>
where
    T: Value + PartialOrd,
    M: Monoid<T>,
{
    let reduced = reduce_rows_ctx(ctx, a, m);
    top_k_ctx(ctx, &reduced, k)
}

/// Heavy-hitter columns: ⊕-reduce every column, then take the `k`
/// largest folds — e.g. top traffic destinations by total volume.
pub fn top_k_cols_ctx<T, M>(ctx: &OpCtx, a: &Dcsr<T>, k: usize, m: M) -> Vec<(Ix, T)>
where
    T: Value + PartialOrd,
    M: Monoid<T>,
{
    let reduced = reduce_cols_ctx(ctx, a, m);
    top_k_ctx(ctx, &reduced, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use semiring::{PlusMonoid, PlusTimes};

    fn vec_of(entries: &[(Ix, f64)]) -> SparseVec<f64> {
        SparseVec::from_entries(1 << 20, entries.to_vec(), PlusTimes::<f64>::new())
    }

    #[test]
    fn top_k_orders_desc_with_index_tiebreak() {
        let v = vec_of(&[(5, 2.0), (1, 9.0), (7, 2.0), (3, 4.0)]);
        assert_eq!(
            top_k_ctx(&OpCtx::new(), &v, 3),
            vec![(1, 9.0), (3, 4.0), (5, 2.0)]
        );
        // Tie at 2.0: the smaller index wins the last slot.
        assert_eq!(
            top_k_ctx(&OpCtx::new(), &v, 4),
            vec![(1, 9.0), (3, 4.0), (5, 2.0), (7, 2.0)]
        );
    }

    #[test]
    fn k_larger_than_nnz_returns_everything_sorted() {
        let v = vec_of(&[(2, 1.0), (9, 3.0)]);
        assert_eq!(top_k_ctx(&OpCtx::new(), &v, 10), vec![(9, 3.0), (2, 1.0)]);
        assert!(top_k_ctx(&OpCtx::new(), &SparseVec::<f64>::empty(8), 3).is_empty());
        assert!(top_k_ctx(&OpCtx::new(), &v, 0).is_empty());
    }

    #[test]
    fn partial_sort_agrees_with_full_sort() {
        // Enough entries that the select_nth path actually runs.
        let entries: Vec<(Ix, f64)> = (0..500u64)
            .map(|i| (i, ((i * 2_654_435_761) % 997) as f64))
            .collect();
        let v = vec_of(&entries);
        let mut full: Vec<(Ix, f64)> = entries.clone();
        full.sort_by(rank);
        full.truncate(17);
        assert_eq!(top_k_ctx(&OpCtx::new(), &v, 17), full);
    }

    #[test]
    fn nan_ranks_last_and_ordering_is_total() {
        // NaN must never displace a real heavy hitter, whatever its
        // position relative to the select_nth k-boundary.
        let v = vec_of(&[(0, f64::NAN), (1, 9.0), (2, f64::NAN), (3, 4.0), (4, 7.0)]);
        assert_eq!(top_k_ctx(&OpCtx::new(), &v, 2), vec![(1, 9.0), (4, 7.0)]);
        assert_eq!(
            top_k_ctx(&OpCtx::new(), &v, 3),
            vec![(1, 9.0), (4, 7.0), (3, 4.0)]
        );
        // Asking for more than the comparable entries: NaNs trail, in
        // index order — fully deterministic.
        let all = top_k_ctx(&OpCtx::new(), &v, 5);
        assert_eq!(&all[..3], &[(1, 9.0), (4, 7.0), (3, 4.0)]);
        assert_eq!(all[3].0, 0);
        assert!(all[3].1.is_nan());
        assert_eq!(all[4].0, 2);
        assert!(all[4].1.is_nan());

        // Totality on a larger NaN-riddled vector: result is identical
        // to a full sort under the same comparator (transitivity means
        // select_nth + partial sort can't diverge from it).
        let entries: Vec<(Ix, f64)> = (0..300u64)
            .map(|i| {
                let v = if i % 7 == 0 {
                    f64::NAN
                } else {
                    ((i * 2_654_435_761) % 991) as f64
                };
                (i, v)
            })
            .collect();
        let v = vec_of(&entries);
        let mut full = entries.clone();
        full.sort_by(rank);
        full.truncate(40);
        let got = top_k_ctx(&OpCtx::new(), &v, 40);
        assert_eq!(got.len(), 40);
        for (g, f) in got.iter().zip(&full) {
            assert_eq!(g.0, f.0);
            assert!(g.1 == f.1 || (g.1.is_nan() && f.1.is_nan()));
        }
        assert!(
            got.iter().all(|(_, v)| !v.is_nan()),
            "40 < 257 comparable entries, so no NaN may surface"
        );
    }

    #[test]
    fn fused_row_and_col_forms_reduce_then_rank() {
        let mut c = Coo::new(16, 16);
        // Row 3 sums to 7, row 1 to 5, row 9 to 1.
        c.extend([(3, 0, 3.0), (3, 4, 4.0), (1, 2, 5.0), (9, 9, 1.0)]);
        let a = c.build_dcsr(PlusTimes::<f64>::new());
        assert_eq!(
            top_k_rows_ctx(&OpCtx::new(), &a, 2, PlusMonoid::<f64>::default()),
            vec![(3, 7.0), (1, 5.0)]
        );
        assert_eq!(
            top_k_cols_ctx(&OpCtx::new(), &a, 1, PlusMonoid::<f64>::default()),
            vec![(2, 5.0)]
        );
    }

    #[test]
    fn topk_records_its_own_metrics_row() {
        let ctx = OpCtx::new();
        let v = vec_of(&[(0, 1.0), (1, 2.0), (2, 3.0)]);
        let _ = top_k_ctx(&ctx, &v, 2);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.kernel(Kernel::TopK).calls, 1);
        assert_eq!(snap.kernel(Kernel::TopK).nnz_in, 3);
        assert_eq!(snap.kernel(Kernel::TopK).nnz_out, 2);

        // The fused form books the reduction separately.
        let mut c = Coo::new(8, 8);
        c.extend([(0, 1, 1.0), (2, 3, 2.0)]);
        let a = c.build_dcsr(PlusTimes::<f64>::new());
        let _ = top_k_rows_ctx(&ctx, &a, 1, PlusMonoid::<f64>::default());
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.kernel(Kernel::TopK).calls, 2);
        assert_eq!(snap.kernel(Kernel::ReduceRows).calls, 1);
    }
}
