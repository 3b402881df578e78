//! The masked count `Σ (A plus.pair B)⟨mask⟩` against the masked product.
//!
//! `ops::mxm_masked_count_ctx` reads no value and builds no product, so
//! it must equal both ways of reading the same number off
//! `ops::mxm_masked_ctx`: the sum of the product over the operands'
//! `u64` ones-patterns, and the `flops` the product records for the very
//! same operands. Operands are rectangular and may be empty; mask rows
//! need not be rows of `A`; values include `NaN`; the same entries are
//! placed in a compact space and in a 2⁴⁰-wide one, so the indexed and
//! the searched B-row locator, the scattered and the searched mask, and
//! 1, 2, 4 and 8 threads all run.

use hypersparse::gen::{rmat_dcsr, RmatParams};
use hypersparse::{ops, Coo, Dcsr, Decision, Ix, Kernel, OpCtx};
use proptest::prelude::*;
use semiring::{PlusMonoid, PlusTimes};

/// Entries of an `nrows × ncols` pattern.
type Entries = Vec<(Ix, Ix)>;

/// Far beyond any id-indexed array: every lookup is a search.
const WIDE: Ix = 1 << 40;

fn entries(nrows: Ix, ncols: Ix) -> impl Strategy<Value = Entries> {
    proptest::collection::vec((0..nrows, 0..ncols), 0..80)
}

/// `(A, B, mask)` entries over shapes `m × k`, `k × n`, `m × n`.
fn operands() -> impl Strategy<Value = (Ix, Ix, Ix, Entries, Entries, Entries)> {
    (1..12 as Ix, 1..12 as Ix, 1..12 as Ix).prop_flat_map(|(m, k, n)| {
        let (a, b, mask) = (entries(m, k), entries(k, n), entries(m, n));
        (Just(m), Just(k), Just(n), a, b, mask)
    })
}

/// `e` in an `nrows × ncols` space with every value `v`; `spread`
/// multiplies each id, so one pattern sits compact or sparse in a wide
/// space.
fn build((nrows, ncols): (Ix, Ix), e: &[(Ix, Ix)], spread: Ix, v: f64) -> Dcsr<f64> {
    let mut c = Coo::new(nrows, ncols);
    c.extend(e.iter().map(|&(r, col)| (r * spread, col * spread, v)));
    c.build_dcsr(PlusTimes::<f64>::new())
}

/// The two readings of the masked product: its sum over the operands'
/// `u64` ones-patterns, and the `flops` it records for the operands
/// themselves.
fn references(ctx: &OpCtx, a: &Dcsr<f64>, b: &Dcsr<f64>, mask: &Dcsr<u8>) -> (u64, u64) {
    let u = PlusTimes::<u64>::new();
    let (au, bu) = (a.pattern(1u64), b.pattern(1u64));
    let summed = ops::reduce_scalar_ctx(
        ctx,
        &ops::mxm_masked_ctx(ctx, &au, &bu, mask, false, u),
        PlusMonoid::<u64>::default(),
    );
    let before = ctx.metrics().snapshot().kernel(Kernel::MxmMasked).flops;
    let _ = ops::mxm_masked_ctx(ctx, a, b, mask, false, PlusTimes::<f64>::new());
    let flops = ctx.metrics().snapshot().kernel(Kernel::MxmMasked).flops - before;
    (summed, flops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn count_is_the_masked_product_summed_and_its_flops(ops in operands()) {
        let (m, k, n, ea, eb, em) = ops;
        let mut want = None;
        for (spread, space) in [(1, 1), (WIDE / 16, WIDE)] {
            let dims = |r: Ix, c: Ix| if space == 1 { (r, c) } else { (space, space) };
            let mask = build(dims(m, n), &em, spread, 1.0).pattern(1u8);
            let (a, b) = (build(dims(m, k), &ea, spread, 2.5), build(dims(k, n), &eb, spread, 2.5));
            let a_nan = build(dims(m, k), &ea, spread, f64::NAN);
            for threads in [1, 2, 4, 8] {
                let ctx = OpCtx::new().with_threads(threads);
                let (summed, flops) = references(&ctx, &a, &b, &mask);
                let count = ops::mxm_masked_count_ctx(&ctx, &a, &b, &mask);
                prop_assert_eq!(count, summed, "sum of the product, spread {}, {} threads", spread, threads);
                prop_assert_eq!(count, flops, "flops of the product, spread {}, {} threads", spread, threads);
                // Values are never read: NaN, a u64 A against an f64 B, an
                // f64 mask.
                prop_assert_eq!(ops::mxm_masked_count_ctx(&ctx, &a_nan, &b, &mask), count);
                prop_assert_eq!(ops::mxm_masked_count_ctx(&ctx, &a.pattern(7u64), &b, &mask), count);
                prop_assert_eq!(ops::mxm_masked_count_ctx(&ctx, &a, &b, &mask.pattern(f64::NAN)), count);
                prop_assert_eq!(*want.get_or_insert(count), count, "compact and wide spaces differ");
            }
        }
    }

    /// The flag scratch goes back at rest: one context counting a run of
    /// different operands answers as a fresh context does each time.
    #[test]
    fn a_reused_context_counts_as_a_fresh_one(runs in proptest::collection::vec(operands(), 1..6)) {
        let ctx = OpCtx::new().with_threads(1);
        for (m, k, n, ea, eb, em) in runs {
            let (a, b, mask) = (build((m, k), &ea, 1, 1.0), build((k, n), &eb, 1, 1.0), build((m, n), &em, 1, 1.0));
            let fresh = ops::mxm_masked_count_ctx(&OpCtx::new(), &a, &b, &mask);
            prop_assert_eq!(ops::mxm_masked_count_ctx(&ctx, &a, &b, &mask), fresh);
        }
        prop_assert_eq!(ctx.pooled_buffers(), 1, "one value-free lease, handed back");
    }
}

/// Each locator and mask decision is taken, and metered once per call.
#[test]
fn compact_and_wide_spaces_take_their_own_decisions() {
    let square: Entries = (0..8).flat_map(|r| (0..8).map(move |c| (r, c))).collect();
    for (spread, space, rows, mask) in [
        (1, 8, Decision::MxmRowsIndexed, Decision::MxmMaskScatter),
        (
            WIDE / 16,
            WIDE,
            Decision::MxmRowsSearched,
            Decision::MxmMaskSearch,
        ),
    ] {
        let x = build((space, space), &square, spread, 1.0);
        let ctx = OpCtx::new();
        assert_eq!(ops::mxm_masked_count_ctx(&ctx, &x, &x, &x), 8 * 8 * 8);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.decision(rows), 1, "{rows:?}");
        assert_eq!(snap.decision(mask), 1, "{mask:?}");
        let row = snap.kernel(Kernel::MxmMasked);
        assert_eq!((row.calls, row.flops, row.nnz_out), (1, 512, 1));
        assert_eq!(snap.kernel(Kernel::ReduceScalar).calls, 0);
    }
}

/// An RMAT triangle count large enough to shard: the same count at 1, 2,
/// 4 and 8 threads, equal to the product's recorded flops.
#[test]
fn sharded_counts_are_thread_invariant() {
    let g = rmat_dcsr(RmatParams::default(), 5, PlusTimes::<f64>::new());
    let l = ops::select_ctx(&OpCtx::new(), &g, |r, c, _| c < r);
    assert!(l.n_nonempty_rows() >= 512, "must take the sharded path");
    let one = OpCtx::new().with_threads(1);
    let (_, flops) = references(&one, &l, &l, &l.pattern(1u8));
    assert!(flops > 0);
    for threads in [1, 2, 4, 8] {
        let ctx = OpCtx::new().with_threads(threads);
        assert_eq!(
            ops::mxm_masked_count_ctx(&ctx, &l, &l, &l),
            flops,
            "{threads} threads"
        );
    }
}

#[test]
#[should_panic(expected = "mask must share the result's key space")]
fn count_checks_like_the_masked_product() {
    let d = Dcsr::<f64>::empty;
    let _ = ops::mxm_masked_count_ctx(&OpCtx::new(), &d(3, 4), &d(4, 6), &d(3, 3));
}
