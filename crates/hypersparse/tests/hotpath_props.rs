//! Hot-path equivalence properties (DESIGN.md §13).
//!
//! The kernel-speed layer adds three things that must never change an
//! answer: narrow (`u32`) index storage, the flat accumulator a
//! semiring opts into with `FLAT_ACC` (and the boolean word merge), and
//! merge-path (nnz-weighted) shard splits. Each is proven here against
//! its wide / capability-free (`semiring::Plain`) / sequential baseline
//! — bit-identical,
//! not approximately equal, because the determinism contract promises
//! the same bytes for the same inputs at every thread count and every
//! storage width.

use hypersparse::gen::{rmat_dcsr, RmatParams};
use hypersparse::{ops, Coo, Dcsr, Ix, OpCtx, SparseVec};
use proptest::prelude::*;
use semiring::{FnOp, LorLand, MinPlus, Numeric, Plain, PlusTimes, Semiring};

const N: Ix = 24;

type Triplets = [(Ix, Ix, i64)];

fn triplets() -> impl Strategy<Value = Vec<(Ix, Ix, i64)>> {
    proptest::collection::vec((0..N, 0..N, -6i64..10), 0..90)
}

/// Integer-valued f64 matrix: sums stay exact, so any mismatch is a
/// logic bug, never floating-point noise.
fn build_f64(t: &[(Ix, Ix, i64)]) -> Dcsr<f64> {
    let mut c = Coo::new(N, N);
    c.extend(t.iter().map(|&(r, col, v)| (r, col, v as f64)));
    c.build_dcsr(PlusTimes::<f64>::new())
}

/// Boolean matrix with *stored* `false` values (every third entry is
/// flipped after the build), so the presence/truth distinction in the
/// word-merge path is exercised, not just all-true patterns.
fn build_bool(t: &[(Ix, Ix, i64)]) -> Dcsr<bool> {
    let mut c = Coo::new(N, N);
    c.extend(t.iter().map(|&(r, col, _)| (r, col, true)));
    let (nr, nc, rows, rowptr, colidx, mut vals) = c.build_dcsr(LorLand).into_parts();
    for v in vals.iter_mut().step_by(3) {
        *v = false;
    }
    Dcsr::from_parts(nr, nc, rows, rowptr, colidx, vals)
}

fn build_vec(t: &[(Ix, Ix, i64)]) -> SparseVec<f64> {
    let s = PlusTimes::<f64>::new();
    SparseVec::from_entries(N, t.iter().map(|&(i, _, v)| (i, v as f64)).collect(), s)
}

/// `S ≡ Plain<S>` on `mxm`, `mxm_apply_prune` (the epilogue runs inside
/// the flat drain) and `vxm`, at 1/2/4/8 threads. `cast` maps the
/// generated integers into `S`'s value set; `bump` is the epilogue.
fn assert_capabilities_invisible<S: Semiring>(
    s: S,
    (ta, tb, tv): (&Triplets, &Triplets, &Triplets),
    cast: impl Fn(i64) -> S::Value,
    bump: fn(S::Value) -> S::Value,
) {
    let build = |t: &Triplets| {
        let mut c = Coo::new(N, N);
        c.extend(t.iter().map(|&(r, col, v)| (r, col, cast(v))));
        c.build_dcsr(s)
    };
    let (a, b) = (build(ta), build(tb));
    let v = SparseVec::from_entries(N, tv.iter().map(|&(i, _, x)| (i, cast(x))).collect(), s);
    for threads in [1usize, 2, 4, 8] {
        let ctx = OpCtx::new().with_threads(threads);
        assert_eq!(
            ops::mxm_ctx(&ctx, &a, &b, s),
            ops::mxm_ctx(&ctx, &a, &b, Plain(s)),
            "mxm @{threads}"
        );
        assert_eq!(
            ops::mxm_apply_prune_ctx(&ctx, &a, &b, s, FnOp(bump), s),
            ops::mxm_apply_prune_ctx(&ctx, &a, &b, Plain(s), FnOp(bump), s),
            "mxm_apply_prune @{threads}"
        );
        assert_eq!(
            ops::vxm_ctx(&ctx, &v, &a, s),
            ops::vxm_ctx(&ctx, &v, &a, Plain(s)),
            "vxm @{threads}"
        );
    }
}

/// `min.+` over `f64` declaring the flat accumulator: `min(+∞, p)` is
/// `p` to the bit on its domain, and its zero is *not* the `0.0` that
/// `PlusTimes<f64>` leaves the pooled `f64` scratch resting at.
#[derive(Copy, Clone)]
struct FlatMinPlus;

impl Semiring for FlatMinPlus {
    type Value = f64;
    const FLAT_ACC: bool = true;
    fn zero(&self) -> f64 {
        f64::INFINITY
    }
    fn one(&self) -> f64 {
        0.0
    }
    fn add(&self, a: f64, b: f64) -> f64 {
        f64::min_of(a, b)
    }
    fn mul(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

/// Round-trip an op through u32 storage and compare against the wide
/// run: narrow in, op, widen out.
macro_rules! assert_width_invariant {
    ($wide:expr, $narrow:expr) => {{
        let wide = $wide;
        let narrow = $narrow;
        prop_assert_eq!(
            wide,
            narrow.to_index_width().expect("widening always fits"),
            "u32 storage changed the answer"
        );
    }};
}

proptest! {
    /// Tentpole (1): `u32` column ids are a representation choice only —
    /// mxm, ewise union/intersection, and vxm/mxv produce bit-identical
    /// results at every index width.
    #[test]
    fn narrow_index_width_is_invisible(ta in triplets(), tb in triplets(), tv in triplets()) {
        let s = PlusTimes::<f64>::new();
        let ctx = OpCtx::new();
        let (a, b) = (build_f64(&ta), build_f64(&tb));
        let (a32, b32) = (
            a.to_index_width::<u32>().unwrap(),
            b.to_index_width::<u32>().unwrap(),
        );
        assert_width_invariant!(ops::mxm_ctx(&ctx, &a, &b, s), ops::mxm_ctx(&ctx, &a32, &b32, s));
        assert_width_invariant!(ops::ewise_add_ctx(&ctx, &a, &b, s), ops::ewise_add_ctx(&ctx, &a32, &b32, s));
        assert_width_invariant!(ops::ewise_mul_ctx(&ctx, &a, &b, s), ops::ewise_mul_ctx(&ctx, &a32, &b32, s));

        let v = build_vec(&tv);
        let v32 = v.to_index_width::<u32>().unwrap();
        prop_assert_eq!(
            ops::vxm_ctx(&ctx, &v, &a, s),
            ops::vxm_ctx(&ctx, &v32, &a32, s).to_index_width().unwrap()
        );
        prop_assert_eq!(
            ops::mxv_ctx(&ctx, &a, &v, s),
            ops::mxv_ctx(&ctx, &a32, &v32, s).to_index_width().unwrap()
        );
    }

    /// Tentpole (2): a semiring's declared capabilities select kernels,
    /// never answers — every `FLAT_ACC` semiring equals itself behind
    /// `Plain` (which declares nothing). `PlusTimes<u64>`/`<f32>` are
    /// flat because the `impl` is generic; the `i64 → f32` cast is exact
    /// at these magnitudes, so any mismatch is a logic bug.
    #[test]
    fn declared_capabilities_are_invisible(ta in triplets(), tb in triplets(), tv in triplets()) {
        let t = (&ta[..], &tb[..], &tv[..]);
        assert_capabilities_invisible(PlusTimes::<f64>::new(), t, |v| v as f64, |x| x - 3.0);
        assert_capabilities_invisible(PlusTimes::<f32>::new(), t, |v| v as f32, |x| x - 3.0);
        assert_capabilities_invisible(
            PlusTimes::<u64>::new(), t, |v| v.unsigned_abs(), |x| x.saturating_sub(3),
        );
        assert_capabilities_invisible(LorLand, t, |v| v % 3 != 0, |x| !x);

        // The boolean word merge keys on the combiner's type, so `Plain`
        // is its reference too.
        let ctx = OpCtx::new();
        let (ab, bb) = (build_bool(&ta), build_bool(&tb));
        prop_assert_eq!(
            ops::ewise_add_ctx(&ctx, &ab, &bb, LorLand),
            ops::ewise_add_ctx(&ctx, &ab, &bb, Plain(LorLand))
        );
        prop_assert_eq!(
            ops::ewise_mul_ctx(&ctx, &ab, &bb, LorLand),
            ops::ewise_mul_ctx(&ctx, &ab, &bb, Plain(LorLand))
        );
    }

    /// Scratch is pooled per value type, not per semiring: a flat
    /// semiring whose zero is `+∞` must not inherit slots resting at
    /// `PlusTimes<f64>`'s `0.0` (`min(0.0, p)` would swallow every
    /// product), nor leave `+∞` behind for the next `PlusTimes` lease.
    #[test]
    fn flat_scratch_reseeds_when_the_zero_changes(ta in triplets(), tb in triplets()) {
        let pt = PlusTimes::<f64>::new();
        let (a, b) = (build_f64(&ta), build_f64(&tb));
        let ctx = OpCtx::new().with_threads(1);
        let first = ops::mxm_ctx(&ctx, &a, &b, pt);
        prop_assert_eq!(
            ops::mxm_ctx(&ctx, &a, &b, FlatMinPlus),
            ops::mxm_ctx(&OpCtx::new(), &a, &b, MinPlus::<f64>::new())
        );
        prop_assert_eq!(ops::mxm_ctx(&ctx, &a, &b, pt), first);
        prop_assert_eq!(ctx.pooled_buffers(), 1, "one f64 scratch served all three");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tentpole (4): merge-path weighted shard splits on a skewed RMAT
    /// graph at 2/4/8 threads are bit-identical to `with_threads(1)`.
    /// RMAT edge weights are arbitrary f64s, so this holds only because
    /// rows never split across shards and shards concatenate in order —
    /// the determinism argument of DESIGN.md §13.
    #[test]
    fn merge_path_sharding_is_thread_invariant(seed in 0u64..1_000) {
        let s = PlusTimes::<f64>::new();
        let p = RmatParams {
            scale: 7,
            edge_factor: 8,
            probs: (0.57, 0.19, 0.19, 0.05),
        };
        let a = rmat_dcsr(p, seed, s);
        let n = a.nrows();
        let v = SparseVec::from_entries(
            n,
            (0..n).step_by(3).map(|i| (i, 1.0 + i as f64)).collect(),
            s,
        );

        let seq = OpCtx::new().with_threads(1);
        let base_mxm = ops::mxm_ctx(&seq, &a, &a, s);
        let base_vxm = ops::vxm_ctx(&seq, &v, &a, s);
        for threads in [2usize, 4, 8] {
            let weighted = OpCtx::new().with_threads(threads);
            prop_assert_eq!(&ops::mxm_ctx(&weighted, &a, &a, s), &base_mxm);
            prop_assert_eq!(&ops::vxm_ctx(&weighted, &v, &a, s), &base_vxm);
        }
    }
}

// ---- kernels that index instead of search ----

/// The same stored entries re-declared in another key space.
fn respace<T: semiring::traits::Value>(m: &Dcsr<T>, nrows: Ix, ncols: Ix) -> Dcsr<T> {
    let (_, _, rows, rowptr, colidx, vals) = m.clone().into_parts();
    Dcsr::from_parts(nrows, ncols, rows, rowptr, colidx, vals)
}

/// Copies of a draw down the diagonal of a `TILES·N`-square space —
/// enough non-empty rows (with the `strip`, one entry per row) for the
/// SpGEMM to shard — with the rows `drop` names left empty.
const TILES: Ix = 24;
const BIG: Ix = TILES * N;
fn tiled<S: Semiring>(
    t: &Triplets,
    s: S,
    cast: impl Fn(i64) -> S::Value,
    strip: bool,
    drop: fn(Ix) -> bool,
) -> Dcsr<S::Value> {
    let mut c = Coo::new(BIG, BIG);
    for k in 0..TILES {
        let block = t
            .iter()
            .map(|&(r, col, v)| (r + N * k, col + N * k, cast(v)));
        c.extend(block.filter(|e| !drop(e.0)));
    }
    if strip {
        c.extend((0..BIG).map(|i| (i, i % N, cast(1))));
    }
    c.build_dcsr(s)
}

/// Masked ≡ unmasked-then-filter ≡ `Plain<S>`, at 1/2/4/8 threads, for
/// a mask and its complement: with mask rows left empty, `A` columns
/// whose `B` row is empty, and the same `B` and mask widened past the
/// compact bound (`2²³` columns: searched mask rows, hash accumulator)
/// next to the compact originals (scatter slots, mask-slot/flat).
fn assert_masked_is_filtered<S: Semiring>(
    s: S,
    (ta, tb, tm): (&Triplets, &Triplets, &Triplets),
    cast: impl Fn(i64) -> S::Value + Copy,
) {
    let a = tiled(ta, s, cast, true, |_| false);
    let b = tiled(tb, s, cast, false, |r| r % 4 == 1);
    let mask = tiled(tm, s, cast, false, |r| r % 3 == 0);
    let wide = 1 << 23;
    let (bw, mw) = (respace(&b, BIG, wide), respace(&mask, BIG, wide));
    let full = ops::mxm_ctx(&OpCtx::new(), &a, &b, s);
    for complement in [false, true] {
        let keep = |r, c, _: &S::Value| mask.get(r, c).is_some() != complement;
        let want = ops::select_ctx(&OpCtx::new(), &full, keep);
        for threads in [1usize, 2, 4, 8] {
            let ctx = OpCtx::new().with_threads(threads);
            let got = ops::mxm_masked_ctx(&ctx, &a, &b, &mask, complement, s);
            assert!(got == want, "complement={complement} @{threads}");
            let plain = ops::mxm_masked_ctx(&ctx, &a, &b, &mask, complement, Plain(s));
            assert!(plain == want, "Plain complement={complement} @{threads}");
            let searched = ops::mxm_masked_ctx(&ctx, &a, &bw, &mw, complement, s);
            assert!(
                respace(&searched, BIG, BIG) == want,
                "wide complement={complement} @{threads}"
            );
        }
    }
}

/// `msbfs`'s shape: a few-row frontier against a pattern under the
/// complement of what each search has visited, over the any-pair
/// algebra — the masked kernel against the unmasked one filtered.
fn assert_msbfs_step_is_filtered(ta: &Triplets, tm: &Triplets) {
    let s = semiring::AnyPair;
    let pat = tiled(ta, s, |_| 1u8, true, |_| false);
    let frontier = respace(&tiled(tm, s, |_| 1u8, false, |r| r >= N), N, BIG);
    let visited = respace(
        &tiled(tm, s, |_| 1u8, false, |r| r % 2 == 0 || r >= N),
        N,
        BIG,
    );
    let full = ops::mxm_ctx(&OpCtx::new(), &frontier, &pat, s);
    let want = ops::select_ctx(&OpCtx::new(), &full, |r, c, _| visited.get(r, c).is_none());
    for threads in [1usize, 2, 4, 8] {
        let ctx = OpCtx::new().with_threads(threads);
        assert_eq!(
            ops::mxm_masked_ctx(&ctx, &frontier, &pat, &visited, true, s),
            want
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn masked_products_are_filtered_products(ta in triplets(), tb in triplets(), tm in triplets()) {
        let t = (&ta[..], &tb[..], &tm[..]);
        assert_masked_is_filtered(PlusTimes::<f64>::new(), t, |v| v as f64);
        assert_masked_is_filtered(MinPlus::<f64>::new(), t, |v| v as f64);
        assert_masked_is_filtered(LorLand, t, |v| v % 3 != 0);
        assert_msbfs_step_is_filtered(&ta, &tm);
    }

    /// `B` stored in a 2⁴⁰ row space (its rows found by binary search)
    /// multiplies exactly like the same entries in the compact space
    /// (rows found by position), plain, masked and fused-prune.
    #[test]
    fn searched_b_rows_equal_indexed_b_rows(ta in triplets(), tb in triplets(), tm in triplets()) {
        let s = PlusTimes::<f64>::new();
        let diag: Vec<(Ix, Ix, i64)> = (0..N).map(|i| (i, i, 1)).collect();
        let a = build_f64(&[&ta[..], &diag].concat());
        let b = build_f64(&[&tb[..], &diag].concat());
        let mask = build_f64(&tm);
        let huge = 1 << 40;
        let (ah, bh) = (respace(&a, N, huge), respace(&b, huge, N));
        let ctx = OpCtx::new();
        prop_assert_eq!(ops::mxm_ctx(&ctx, &ah, &bh, s), ops::mxm_ctx(&ctx, &a, &b, s));
        for complement in [false, true] {
            prop_assert_eq!(
                ops::mxm_masked_ctx(&ctx, &ah, &bh, &mask, complement, s),
                ops::mxm_masked_ctx(&ctx, &a, &b, &mask, complement, s)
            );
        }
        let relu = FnOp(|x: f64| (x - 3.0).max(0.0));
        prop_assert_eq!(
            ops::mxm_apply_prune_ctx(&ctx, &ah, &bh, s, relu, s),
            ops::mxm_apply_prune_ctx(&ctx, &a, &b, s, relu, s)
        );
    }
}
