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
use hypersparse::{ops, Coo, Dcsr, Decision, Ix, OpCtx, SparseVec};
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
    /// the determinism argument of DESIGN.md §13. Both products carry
    /// more than two chunks of work, so both fan out.
    #[test]
    fn merge_path_sharding_is_thread_invariant(seed in 0u64..1_000) {
        let s = PlusTimes::<f64>::new();
        let p = RmatParams {
            scale: 12,
            edge_factor: 8,
            probs: (0.57, 0.19, 0.19, 0.05),
        };
        let a = rmat_dcsr(p, seed, s);
        let n = a.nrows();
        let v = SparseVec::from_entries(
            n,
            (0..n).map(|i| (i, 1.0 + i as f64)).collect(),
            s,
        );

        let seq = OpCtx::new().with_threads(1);
        let base_mxm = ops::mxm_ctx(&seq, &a, &a, s);
        let base_vxm = ops::vxm_ctx(&seq, &v, &a, s);
        for threads in [2usize, 4, 8] {
            let weighted = OpCtx::new().with_threads(threads);
            prop_assert_eq!(&ops::mxm_ctx(&weighted, &a, &a, s), &base_mxm);
            prop_assert_eq!(&ops::vxm_ctx(&weighted, &v, &a, s), &base_vxm);
            prop_assert_eq!(weighted.metrics().snapshot().decision(Decision::FanOutMany), 2);
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

// ---- inner loops that neither branch nor search on data ----

/// The same entries compared bit for bit (`NaN` equal to itself, `−0.0`
/// apart from `0.0`), whatever the value type.
fn same_bits<'a, T: 'a>(
    x: impl Iterator<Item = (Ix, Ix, &'a T)>,
    y: impl Iterator<Item = (Ix, Ix, &'a T)>,
    bits: fn(&T) -> u64,
) -> bool {
    x.map(|(i, j, v)| (i, j, bits(v)))
        .eq(y.map(|(i, j, v)| (i, j, bits(v))))
}

/// `A · B` over the tiled draws plus two fixed row blocks past the tiles,
/// so every product has flat rows on both sides of the scan rule: `A`'s
/// rows `BIG..BIG+N` each reach one full row of an `N × N` block of `B`
/// (`N` products over an `N`-column span: scanned; one value per block
/// row is a zero, so each span holds a slot nothing lands in), and rows
/// `BIG+N..BIG+2N` each reach one `B` row whose `N` entries sit half at
/// the start of the space and half at its end (bitmap).
fn scan_operands<S: Semiring>(
    (ta, tb): (&Triplets, &Triplets),
    s: S,
    cast: impl Fn(i64) -> S::Value,
) -> (Dcsr<S::Value>, Dcsr<S::Value>) {
    let dim = BIG + 2 * N;
    let (mut a, mut b) = (Coo::new(dim, dim), Coo::new(dim, dim));
    for k in 0..TILES {
        a.extend(ta.iter().map(|&(r, c, v)| (r + N * k, c + N * k, cast(v))));
        b.extend(tb.iter().map(|&(r, c, v)| (r + N * k, c + N * k, cast(v))));
    }
    for t in 0..N {
        a.push(BIG + t, BIG + t, cast(1));
        a.push(BIG + N + t, BIG + N, cast(2));
        b.extend((0..N).map(|c| (BIG + t, BIG + c, cast(c as i64 - 3))));
        let far = if t < N / 2 { t } else { dim - N + t };
        b.push(BIG + N, far, cast(t as i64 + 1));
    }
    (a.build_dcsr(s), b.build_dcsr(s))
}

/// Scan-drained ≡ bitmap-drained ≡ `Plain<S>`, for `mxm_ctx` and
/// `mxm_apply_prune_ctx`, at 1/2/4/8 threads. The bitmap-drained run is
/// the same product under a complement mask that masks nothing (masked
/// rows never scan); the drain counter proves both sides of the rule ran.
fn assert_scan_is_bitmap<S: Semiring>(
    s: S,
    t: (&Triplets, &Triplets),
    cast: impl Fn(i64) -> S::Value,
    bump: fn(S::Value) -> S::Value,
    bits: fn(&S::Value) -> u64,
) {
    let (a, b) = scan_operands(t, s, cast);
    let nothing = Dcsr::<S::Value>::empty(a.nrows(), b.ncols());
    let same = |x: &Dcsr<S::Value>, y: &Dcsr<S::Value>| same_bits(x.iter(), y.iter(), bits);
    for threads in [1usize, 2, 4, 8] {
        let ctx = OpCtx::new().with_threads(threads);
        let scanned = ops::mxm_ctx(&ctx, &a, &b, s);
        let snap = ctx.metrics().snapshot();
        let [scan, bitmap] = [Decision::DrainScan, Decision::DrainBitmap].map(|d| snap.decision(d));
        assert!(
            scan > 0 && bitmap > 0,
            "rows on both sides @{threads}: {scan} / {bitmap}"
        );
        let bitmapped = ops::mxm_masked_ctx(&ctx, &a, &b, &nothing, true, s);
        assert_eq!(
            ctx.metrics().snapshot().decision(Decision::DrainScan),
            scan,
            "masked rows never scan"
        );
        let plain = ops::mxm_ctx(&ctx, &a, &b, Plain(s));
        assert!(same(&scanned, &bitmapped), "mxm scan ≢ bitmap @{threads}");
        assert!(same(&scanned, &plain), "mxm scan ≢ Plain @{threads}");

        let op = FnOp(bump);
        let fused = ops::mxm_apply_prune_ctx(&ctx, &a, &b, s, op, s);
        let two_pass = ops::apply_prune_ctx(&ctx, &bitmapped, op, s);
        let plain = ops::mxm_apply_prune_ctx(&ctx, &a, &b, Plain(s), op, s);
        assert!(same(&fused, &two_pass), "prune scan ≢ bitmap @{threads}");
        assert!(same(&fused, &plain), "prune scan ≢ Plain @{threads}");
    }
}

/// Integers from the draws, except that `−6`/`8` become `∓1e−300` (whose
/// product underflows to `−0.0`, a zero the drain must drop) and `9`
/// becomes `NaN` (stored, and carried through every sum it enters).
fn special_f64(v: i64) -> f64 {
    match v {
        -6 => -1e-300,
        8 => 1e-300,
        9 => f64::NAN,
        v => v as f64,
    }
}

/// Frontier, matrix and visited set for the pull laws: `A` is the tiled
/// draw plus its diagonal (so `Aᵀ` has a row per vertex and the pull
/// shards), the frontier covers every even vertex (so the
/// direction-optimized kernel pulls), the mask is the drawn rows.
fn pull_operands<S: Semiring>(
    (ta, tv, tm): (&Triplets, &Triplets, &Triplets),
    s: S,
    cast: impl Fn(i64) -> S::Value + Copy,
) -> (Dcsr<S::Value>, SparseVec<S::Value>, Vec<Ix>) {
    let mut a = Coo::new(BIG, BIG);
    for k in 0..TILES {
        a.extend(ta.iter().map(|&(r, c, v)| (r + N * k, c + N * k, cast(v))));
    }
    a.extend((0..BIG).map(|i| (i, i, cast(1))));
    let mut v: Vec<(Ix, S::Value)> = (0..BIG)
        .step_by(2)
        .map(|i| (i, cast(1 + (i % 5) as i64)))
        .collect();
    let mut mask: Vec<Ix> = (0..BIG).step_by(7).collect();
    for k in 0..TILES {
        v.extend(tv.iter().map(|&(i, _, x)| (i + N * k, cast(x))));
        mask.extend(tm.iter().map(|&(i, _, _)| i + N * k));
    }
    mask.sort_unstable();
    mask.dedup();
    (a.build_dcsr(s), SparseVec::from_entries(BIG, v, s), mask)
}

/// Indexed pull ≡ searched pull ≡ forced push, with and without a
/// complement mask, at 1/2/4/8 threads. The searched side is the same
/// entries in a 2⁴⁰-wide space, where neither the frontier index nor the
/// mask bitmap may be built.
fn assert_pull_is_push<S: Semiring>(
    s: S,
    t: (&Triplets, &Triplets, &Triplets),
    cast: impl Fn(i64) -> S::Value + Copy,
    bits: fn(&S::Value) -> u64,
) {
    let (a, v, mask) = pull_operands(t, s, cast);
    let at = ops::transpose_ctx(&OpCtx::new(), &a);
    let wide = 1 << 40;
    let (aw, atw) = (respace(&a, wide, wide), respace(&at, wide, wide));
    let vw = SparseVec::from_entries(wide, v.iter().map(|(i, x)| (i, x.clone())).collect(), s);
    let same = |x: &SparseVec<S::Value>, y: &SparseVec<S::Value>| {
        same_bits(
            x.iter().map(|(i, x)| (i, 0, x)),
            y.iter().map(|(i, y)| (i, 0, y)),
            bits,
        )
    };
    for threads in [1usize, 2, 4, 8] {
        let ctx = OpCtx::new().with_threads(threads);
        for m in [None, Some(mask.as_slice())] {
            let push = ops::vxm_opt_ctx(&ctx, &v, &a, None, m, s);
            let pulls = ctx.metrics().snapshot().mv_pull_calls;
            let indexed = match m {
                None => ops::vxm_pull_ctx(&ctx, &v, &at, s),
                Some(_) => ops::vxm_opt_ctx(&ctx, &v, &a, Some(&at), m, s),
            };
            let searched = match m {
                None => ops::vxm_pull_ctx(&ctx, &vw, &atw, s),
                Some(_) => ops::vxm_opt_ctx(&ctx, &vw, &aw, Some(&atw), m, s),
            };
            assert_eq!(
                ctx.metrics().snapshot().mv_pull_calls,
                pulls + 2,
                "both pulled @{threads}"
            );
            let label = format!("mask={} @{threads}", m.is_some());
            assert!(same(&indexed, &push), "indexed pull ≢ push, {label}");
            assert!(same(&searched, &push), "searched pull ≢ push, {label}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn scanned_rows_equal_bitmap_rows_and_plain(ta in triplets(), tb in triplets()) {
        let t = (&ta[..], &tb[..]);
        assert_scan_is_bitmap(PlusTimes::<f64>::new(), t, special_f64, |x| x - 3.0, |x| x.to_bits());
        assert_scan_is_bitmap(
            PlusTimes::<f64>::new(), t, special_f64, |x| (x - 3.0).max(0.0), |x| x.to_bits(),
        );
        assert_scan_is_bitmap(
            PlusTimes::<u64>::new(), t, |v| v.unsigned_abs(), |x| x.saturating_sub(3), |&x| x,
        );
        assert_scan_is_bitmap(LorLand, t, |v| v % 3 != 0, |x| !x, |&x| u64::from(x));
    }

    /// The fused epilogue runs exactly once per non-zero accumulation —
    /// never on a slot the scan passes over untouched or cancelled.
    #[test]
    fn fused_op_runs_once_per_nonzero_sum(ta in triplets(), tb in triplets()) {
        let s = PlusTimes::<f64>::new();
        let (a, b) = scan_operands((&ta, &tb), s, special_f64);
        for threads in [1usize, 2, 4, 8] {
            let ctx = OpCtx::new().with_threads(threads);
            let calls = std::sync::atomic::AtomicUsize::new(0);
            let counted = FnOp(|x: f64| {
                calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                x + 5.0
            });
            let _ = ops::mxm_apply_prune_ctx(&ctx, &a, &b, s, counted, s);
            let sums = ops::mxm_ctx(&ctx, &a, &b, Plain(s)).nnz();
            prop_assert_eq!(calls.into_inner(), sums, "@{}", threads);
        }
    }

    #[test]
    fn indexed_pull_equals_searched_pull_and_push(ta in triplets(), tv in triplets(), tm in triplets()) {
        let t = (&ta[..], &tv[..], &tm[..]);
        assert_pull_is_push(semiring::MinFirst, t, |v| v.unsigned_abs(), |&x| x);
        assert_pull_is_push(PlusTimes::<f64>::new(), t, special_f64, |x| x.to_bits());
        assert_pull_is_push(LorLand, t, |v| v % 3 != 0, |&x| u64::from(x));
    }
}

// ---- masked push folds flat ----

/// Tiles down the diagonal for the masked-push law: `PUSH_TILES · N`
/// vertices, so a frontier over three quarters of them spans three
/// fixed push segments (1 024 entries each).
const PUSH_TILES: Ix = 160;
const PUSH_DIM: Ix = PUSH_TILES * N;

/// Masked push under `S` (the flat accumulator, the mask probed inline)
/// ≡ `Plain<S>` (the hash scatter) ≡ the unmasked push filtered, bit for
/// bit, at 1/2/4/8 threads: a frontier spanning three segments, an empty
/// frontier, a drawn mask, a mask covering every output and no mask;
/// and the same entries in a 2⁴⁰-wide space, where both run the hash
/// scatter. The segment counter proves which accumulator ran.
fn assert_masked_push_is_plain<S: Semiring>(
    s: S,
    (ta, tv, tm): (&Triplets, &Triplets, &Triplets),
    cast: impl Fn(i64) -> S::Value + Copy,
    bits: fn(&S::Value) -> u64,
) {
    let mut a = Coo::new(PUSH_DIM, PUSH_DIM);
    let mut v: Vec<(Ix, S::Value)> = (0..PUSH_DIM)
        .filter(|i| i % 4 != 3)
        .map(|i| (i, cast(1 + (i % 5) as i64)))
        .collect();
    let mut drawn: Vec<Ix> = (0..PUSH_DIM).step_by(7).collect();
    for k in 0..PUSH_TILES {
        a.extend(ta.iter().map(|&(r, c, x)| (r + N * k, c + N * k, cast(x))));
        v.extend(tv.iter().map(|&(i, _, x)| (i + N * k, cast(x))));
        drawn.extend(tm.iter().map(|&(i, _, _)| i + N * k));
    }
    a.extend((0..PUSH_DIM).map(|i| (i, (i + 1) % PUSH_DIM, cast(1))));
    drawn.sort_unstable();
    drawn.dedup();
    let every: Vec<Ix> = (0..PUSH_DIM).collect();
    let a = a.build_dcsr(s);
    let wide = 1 << 40;
    let aw = respace(&a, wide, wide);
    let same = |x: &SparseVec<S::Value>, y: &SparseVec<S::Value>| {
        same_bits(
            x.iter().map(|(i, x)| (i, 0, x)),
            y.iter().map(|(i, y)| (i, 0, y)),
            bits,
        )
    };
    let segments = |ctx: &OpCtx| {
        let snap = ctx.metrics().snapshot();
        [Decision::PushFlat, Decision::PushHash].map(|d| snap.decision(d))
    };
    for entries in [v, Vec::new()] {
        let f = SparseVec::from_entries(PUSH_DIM, entries.clone(), s);
        let fw = SparseVec::from_entries(wide, entries, s);
        assert!(f.is_empty() || f.nnz() > 2 * 1024, "three segments");
        for threads in [1usize, 2, 4, 8] {
            let ctx = OpCtx::new().with_threads(threads);
            let unmasked = ops::vxm_ctx(&ctx, &f, &a, Plain(s));
            for m in [None, Some(drawn.as_slice()), Some(every.as_slice())] {
                let label = format!("nnz={} mask={:?} @{threads}", f.nnz(), m.map(<[Ix]>::len));
                let before = segments(&ctx);
                let flat = ops::vxm_opt_ctx(&ctx, &f, &a, None, m, s);
                let [fl, hs] = segments(&ctx);
                assert!(fl > before[0] && hs == before[1], "flat ran, {label}");
                let hash = ops::vxm_opt_ctx(&ctx, &f, &a, None, m, Plain(s));
                assert_eq!(segments(&ctx)[0], fl, "{label}");
                let filtered = match m {
                    Some(ids) => {
                        let keep: Vec<_> = unmasked
                            .iter()
                            .filter(|(i, _)| ids.binary_search(i).is_err())
                            .map(|(i, x)| (i, x.clone()))
                            .collect();
                        SparseVec::from_entries(PUSH_DIM, keep, s)
                    }
                    None => unmasked.clone(),
                };
                assert!(same(&flat, &hash), "flat ≢ hash, {label}");
                assert!(same(&flat, &filtered), "flat ≢ filtered, {label}");
                if m.is_some_and(|ids| ids.len() == every.len()) {
                    assert!(flat.is_empty(), "fully masked, {label}");
                }
                let before = segments(&ctx);
                let searched = ops::vxm_opt_ctx(&ctx, &fw, &aw, None, m, s);
                let [fl, hs] = segments(&ctx);
                assert!(
                    fl == before[0] && hs > before[1],
                    "2⁴⁰ wide hashes, {label}"
                );
                assert!(
                    searched
                        .iter()
                        .map(|(i, x)| (i, bits(x)))
                        .eq(flat.iter().map(|(i, x)| (i, bits(x)))),
                    "2⁴⁰ wide ≢ compact, {label}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn masked_push_folds_flat_as_the_hash_scatter_does(ta in triplets(), tv in triplets(), tm in triplets()) {
        let t = (&ta[..], &tv[..], &tm[..]);
        assert_masked_push_is_plain(semiring::MinFirst, t, |v| v.unsigned_abs(), |&x| x);
        assert_masked_push_is_plain(semiring::AnyPair, t, |v| u8::from(v % 3 != 0), |&x| u64::from(x));
        assert_masked_push_is_plain(LorLand, t, |v| v % 3 != 0, |&x| u64::from(x));
        assert_masked_push_is_plain(PlusTimes::<f64>::new(), t, special_f64, |x| x.to_bits());
    }
}
