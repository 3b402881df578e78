//! Property-based kernel verification against naive oracles, plus
//! format-independence of every operation.

use hypersparse::{ops, Coo, Dcsr, Decision, Format, Ix, Matrix, OpCtx, SparseVec};
use proptest::prelude::*;
use semiring::{MinPlus, PlusTimes, Semiring};

const N: Ix = 16;

fn triplets() -> impl Strategy<Value = Vec<(Ix, Ix, i64)>> {
    proptest::collection::vec((0..N, 0..N, 1i64..10), 0..60)
}

/// A sorted id set over `0..N` as the one-word bitmap mask form.
fn bitmap(ids: &[Ix]) -> [u64; 1] {
    [ids.iter().fold(0, |w, &i| w | 1 << i)]
}

fn build<S: Semiring<Value = i64>>(t: &[(Ix, Ix, i64)], s: S) -> Dcsr<i64> {
    let mut c = Coo::new(N, N);
    c.extend(t.iter().copied());
    c.build_dcsr(s)
}

/// Naive dense-map oracle for ⊕.⊗.
fn mxm_oracle<S: Semiring<Value = i64>>(a: &Dcsr<i64>, b: &Dcsr<i64>, s: S) -> Vec<(Ix, Ix, i64)> {
    let mut acc: std::collections::BTreeMap<(Ix, Ix), i64> = Default::default();
    for (i, k, &av) in a.iter() {
        for (k2, j, &bv) in b.iter() {
            if k == k2 {
                let p = s.mul(av, bv);
                acc.entry((i, j))
                    .and_modify(|x| *x = s.add(*x, p))
                    .or_insert(p);
            }
        }
    }
    acc.into_iter()
        .filter(|(_, v)| !s.is_zero(v))
        .map(|((i, j), v)| (i, j, v))
        .collect()
}

proptest! {
    #[test]
    fn mxm_matches_oracle_plus_times(ta in triplets(), tb in triplets()) {
        let s = PlusTimes::<i64>::new();
        let (a, b) = (build(&ta, s), build(&tb, s));
        let got: Vec<_> = hypersparse::ops::mxm_ctx(&hypersparse::OpCtx::new(), &a, &b, s)
            .iter()
            .map(|(i, j, &v)| (i, j, v))
            .collect();
        prop_assert_eq!(got, mxm_oracle(&a, &b, s));
    }

    #[test]
    fn mxm_matches_oracle_min_plus(ta in triplets(), tb in triplets()) {
        let s = MinPlus::<i64>::new();
        let (a, b) = (build(&ta, s), build(&tb, s));
        let got: Vec<_> = hypersparse::ops::mxm_ctx(&hypersparse::OpCtx::new(), &a, &b, s)
            .iter()
            .map(|(i, j, &v)| (i, j, v))
            .collect();
        prop_assert_eq!(got, mxm_oracle(&a, &b, s));
    }

    #[test]
    fn ewise_ops_match_map_oracles(ta in triplets(), tb in triplets()) {
        let s = PlusTimes::<i64>::new();
        let (a, b) = (build(&ta, s), build(&tb, s));
        let ma: std::collections::BTreeMap<(Ix, Ix), i64> =
            a.iter().map(|(r, c, &v)| ((r, c), v)).collect();
        let mb: std::collections::BTreeMap<(Ix, Ix), i64> =
            b.iter().map(|(r, c, &v)| ((r, c), v)).collect();

        // union oracle
        let mut u = ma.clone();
        for (&k, &v) in &mb {
            u.entry(k).and_modify(|x| *x += v).or_insert(v);
        }
        u.retain(|_, v| *v != 0);
        let got: Vec<_> = hypersparse::ops::ewise_add_ctx(&hypersparse::OpCtx::new(), &a, &b, s)
            .iter()
            .map(|(r, c, &v)| ((r, c), v))
            .collect();
        prop_assert_eq!(got, u.into_iter().collect::<Vec<_>>());

        // intersection oracle
        let mut i: Vec<((Ix, Ix), i64)> = ma
            .iter()
            .filter_map(|(&k, &v)| mb.get(&k).map(|w| (k, v * w)))
            .filter(|(_, v)| *v != 0)
            .collect();
        i.sort();
        let got: Vec<_> = hypersparse::ops::ewise_mul_ctx(&hypersparse::OpCtx::new(), &a, &b, s)
            .iter()
            .map(|(r, c, &v)| ((r, c), v))
            .collect();
        prop_assert_eq!(got, i);
    }

    #[test]
    fn transpose_involution_and_entry_map(t in triplets()) {
        let s = PlusTimes::<i64>::new();
        let a = build(&t, s);
        let at = hypersparse::ops::transpose_ctx(&hypersparse::OpCtx::new(), &a);
        prop_assert_eq!(hypersparse::ops::transpose_ctx(&hypersparse::OpCtx::new(), &at), a.clone());
        for (r, c, v) in a.iter() {
            prop_assert_eq!(at.get(c, r), Some(v));
        }
    }

    #[test]
    fn every_format_preserves_every_op(ta in triplets(), tb in triplets()) {
        let s = PlusTimes::<i64>::new();
        let ctx = OpCtx::new();
        let a0 = Matrix::from_dcsr(build(&ta, s), s);
        let b0 = Matrix::from_dcsr(build(&tb, s), s);
        let b = b0.as_dcsr();
        let mxm = |a: &Matrix<i64>| a.compute_ctx(&ctx, s, |a| ops::mxm_ctx(&ctx, a, &b, s));
        let add = |a: &Matrix<i64>| a.compute_ctx(&ctx, s, |a| ops::ewise_add_ctx(&ctx, a, &b, s));
        let want = mxm(&a0);
        let want_add = add(&a0);
        let v = SparseVec::from_entries(N, tb.iter().map(|&(_, c, x)| (c, x)).collect(), s);
        let want_mxv = ops::mxv_ctx(&ctx, &a0.as_dcsr(), &v, s);
        for fa in [Format::Dense, Format::Csr, Format::Dcsr] {
            let a = a0.clone().with_format(fa, s);
            prop_assert_eq!(mxm(&a), want.clone());
            prop_assert_eq!(add(&a), want_add.clone());
            prop_assert_eq!(a.mxv_ctx(&ctx, &v, s), want_mxv.clone());
            prop_assert_eq!(a.nnz(), a0.nnz());
        }
    }

    #[test]
    fn builder_merge_equals_map_fold(t in triplets()) {
        let s = PlusTimes::<i64>::new();
        let a = build(&t, s);
        let mut oracle: std::collections::BTreeMap<(Ix, Ix), i64> = Default::default();
        for &(r, c, v) in &t {
            *oracle.entry((r, c)).or_insert(0) += v;
        }
        oracle.retain(|_, v| *v != 0);
        let got: Vec<_> = a.iter().map(|(r, c, &v)| ((r, c), v)).collect();
        prop_assert_eq!(got, oracle.into_iter().collect::<Vec<_>>());
    }

    /// Extracting each half of a stack of `a` over `b`, laid down by
    /// hand, gives back `a` and `b`.
    #[test]
    fn concat_extract_inverse(ta in triplets(), tb in triplets()) {
        let s = PlusTimes::<i64>::new();
        let (a, b) = (build(&ta, s), build(&tb, s));
        let stacked = a.iter().chain(b.iter().map(|(r, c, v)| (r + N, c, v)));
        let tall = hand_laid(2 * N, N, stacked.map(|(r, c, &v)| (r, c, v)).collect());
        let rows_a: Vec<Ix> = (0..N).collect();
        let rows_b: Vec<Ix> = (N..2 * N).collect();
        let cols: Vec<Ix> = (0..N).collect();
        prop_assert_eq!(hypersparse::ops::extract_ctx(&hypersparse::OpCtx::new(), &tall, &rows_a, &cols), a);
        prop_assert_eq!(hypersparse::ops::extract_ctx(&hypersparse::OpCtx::new(), &tall, &rows_b, &cols), b);
    }

    #[test]
    fn masked_mxm_is_filtered_full_mxm(ta in triplets(), tb in triplets(), tm in triplets()) {
        let s = PlusTimes::<i64>::new();
        let (a, b, mask) = (build(&ta, s), build(&tb, s), build(&tm, s));
        let full = hypersparse::ops::mxm_ctx(&hypersparse::OpCtx::new(), &a, &b, s);
        let masked = hypersparse::ops::mxm_masked_ctx(&hypersparse::OpCtx::new(), &a, &b, &mask, false, s);
        let expect = hypersparse::ops::select_ctx(&hypersparse::OpCtx::new(), &full, |r, c, _| mask.get(r, c).is_some());
        prop_assert_eq!(masked, expect);
        let comp = hypersparse::ops::mxm_masked_ctx(&hypersparse::OpCtx::new(), &a, &b, &mask, true, s);
        let expect_c = hypersparse::ops::select_ctx(&hypersparse::OpCtx::new(), &full, |r, c, _| mask.get(r, c).is_none());
        prop_assert_eq!(comp, expect_c);
    }

    #[test]
    fn parallel_masked_mxm_equals_sequential_and_filter(
        ta in triplets(), tb in triplets(), tm in triplets(),
    ) {
        // Tile each 16×16 draw down a block diagonal and add a 640-row,
        // 8-column strip: A's strip alone meets 640 · 8 · 8 = 40 960 of
        // B's entries, past the two chunks of work at which the masked
        // SpGEMM shards its rows, whatever the draws.
        const TILE: Ix = 40;
        const BIG: Ix = 16 * TILE;
        const STRIP: Ix = 8;
        fn tile(t: &[(Ix, Ix, i64)]) -> Vec<(Ix, Ix, i64)> {
            let mut out: Vec<(Ix, Ix, i64)> =
                (0..BIG).flat_map(|i| (0..STRIP).map(move |j| (i, j, 1i64))).collect();
            for k in 0..TILE {
                out.extend(t.iter().map(|&(r, c, v)| (r + 16 * k, c + 16 * k, v)));
            }
            out
        }
        fn build_big<T: Copy + semiring::traits::Value, S: Semiring<Value = T>>(
            t: &[(Ix, Ix, i64)], f: impl Fn(i64) -> T, s: S,
        ) -> Dcsr<T> {
            let mut c = Coo::new(BIG, BIG);
            c.extend(t.iter().map(|&(r, col, v)| (r, col, f(v))));
            c.build_dcsr(s)
        }
        let (ta, tb, tm) = (tile(&ta), tile(&tb), tile(&tm));

        macro_rules! check {
            ($s:expr, $f:expr) => {{
                let s = $s;
                let (a, b, mask) = (
                    build_big(&ta, $f, s),
                    build_big(&tb, $f, s),
                    build_big(&tm, $f, s),
                );
                let full = hypersparse::ops::mxm_ctx(&hypersparse::OpCtx::new(), &a, &b, s);
                for complement in [false, true] {
                    let seq = hypersparse::ops::mxm_masked_ctx(
                        &hypersparse::OpCtx::new().with_threads(1), &a, &b, &mask, complement, s);
                    let expect = hypersparse::ops::select_ctx(&hypersparse::OpCtx::new(), &full, |r, c, _| mask.get(r, c).is_some() != complement);
                    prop_assert_eq!(&seq, &expect);
                    for threads in [2usize, 4, 8] {
                        let ctx = hypersparse::OpCtx::new().with_threads(threads);
                        let par = hypersparse::ops::mxm_masked_ctx(
                            &ctx, &a, &b, &mask, complement, s);
                        prop_assert_eq!(&par, &seq);
                        let many = ctx.metrics().snapshot().decision(Decision::FanOutMany);
                        prop_assert_eq!(many, 1, "sharded at {} threads", threads);
                    }
                }
            }};
        }
        check!(PlusTimes::<i64>::new(), |v| v);
        check!(MinPlus::<i64>::new(), |v| v);
        check!(semiring::LorLand, |_| true);
    }

    #[test]
    fn fused_masked_vxm_is_unfused_then_without(ta in triplets(), tv in triplets(), tm in triplets()) {
        let s = PlusTimes::<i64>::new();
        let a = build(&ta, s);
        let v = hypersparse::SparseVec::from_entries(
            N, tv.iter().map(|&(i, _, x)| (i, x)).collect(), s);
        let mask_vec = hypersparse::SparseVec::from_entries(
            N, tm.iter().map(|&(i, _, _)| (i, 1i64)).collect(), s);
        let mask: Vec<Ix> = mask_vec.indices().to_vec();
        let bits = bitmap(&mask);
        let unfused = hypersparse::ops::vxm_ctx(&hypersparse::OpCtx::new(), &v, &a, s).without(&mask_vec);
        for m in [ops::Mask::Sorted(&mask), ops::Mask::Bits(&bits)] {
            let fused = hypersparse::ops::vxm_opt_ctx(
                &hypersparse::OpCtx::new(), &v, &a, None, Some(m), s);
            prop_assert_eq!(&fused, &unfused);
        }
    }

    #[test]
    fn vxm_opt_is_vxm_then_without_for_every_transpose_and_mask(
        ta in triplets(), tv in triplets(), tm in triplets(),
    ) {
        // The one merged entry point: whatever transpose and complement
        // mask it is handed, it equals the plain push product with the
        // mask applied afterwards, at every thread count.
        let s = PlusTimes::<i64>::new();
        let a = build(&ta, s);
        let at = hypersparse::ops::transpose_ctx(&hypersparse::OpCtx::new(), &a);
        let v = hypersparse::SparseVec::from_entries(
            N, tv.iter().map(|&(i, _, x)| (i, x)).collect(), s);
        let visited = hypersparse::SparseVec::from_entries(
            N, tm.iter().map(|&(i, _, _)| (i, 1i64)).collect(), s);
        let nothing = hypersparse::SparseVec::empty(N);
        let masks: [Option<&hypersparse::SparseVec<i64>>; 3] =
            [None, Some(&nothing), Some(&visited)];
        for threads in [1usize, 2, 8] {
            let ctx = hypersparse::OpCtx::new().with_threads(threads);
            let plain = hypersparse::ops::vxm_ctx(&ctx, &v, &a, s);
            for transpose in [None, Some(&at)] {
                for mask in masks {
                    let bits = mask.map(|m| bitmap(m.indices()));
                    let want = mask.map_or(plain.clone(), |m| plain.without(m));
                    let forms = [
                        mask.map(|m| ops::Mask::Sorted(m.indices())),
                        bits.as_ref().map(|b| ops::Mask::Bits(b)),
                    ];
                    for form in forms {
                        let got = hypersparse::ops::vxm_opt_ctx(&ctx, &v, &a, transpose, form, s);
                        prop_assert_eq!(
                            &got, &want, "threads={} at={} mask={:?}",
                            threads, transpose.is_some(), form);
                    }
                }
            }
        }
    }

    #[test]
    fn vxm_push_equals_pull(ta in triplets(), tv in triplets()) {
        let s = PlusTimes::<i64>::new();
        let a = build(&ta, s);
        let at = hypersparse::ops::transpose_ctx(&hypersparse::OpCtx::new(), &a);
        let v = hypersparse::SparseVec::from_entries(
            N, tv.iter().map(|&(i, _, x)| (i, x)).collect(), s);
        let ctx = hypersparse::OpCtx::new();
        prop_assert_eq!(
            hypersparse::ops::vxm_ctx(&ctx, &v, &a, s),
            hypersparse::ops::vxm_pull_ctx(&ctx, &v, &at, s)
        );
    }

    #[test]
    fn parallel_vxm_equals_sequential(ta in triplets(), tv in triplets()) {
        // i64 ⊕ is exact, so any segmentation/sharding must agree with
        // the single-thread run bit for bit.
        let s = MinPlus::<i64>::new();
        let a = build(&ta, s);
        let v = hypersparse::SparseVec::from_entries(
            N, tv.iter().map(|&(i, _, x)| (i, x)).collect(), s);
        let seq = hypersparse::OpCtx::new().with_threads(1);
        let base_vxm = hypersparse::ops::vxm_ctx(&seq, &v, &a, s);
        let base_mxv = hypersparse::ops::mxv_ctx(&seq, &a, &v, s);
        for threads in [2usize, 4, 8] {
            let ctx = hypersparse::OpCtx::new().with_threads(threads);
            prop_assert_eq!(hypersparse::ops::vxm_ctx(&ctx, &v, &a, s), base_vxm.clone());
            prop_assert_eq!(hypersparse::ops::mxv_ctx(&ctx, &a, &v, s), base_mxv.clone());
        }
    }
}

fn f64_triplets() -> impl Strategy<Value = Vec<(Ix, Ix, f64)>> {
    proptest::collection::vec((0..N, 0..N, -5i64..10), 0..60)
        .prop_map(|v| v.into_iter().map(|(r, c, x)| (r, c, x as f64)).collect())
}

fn build_f64(t: &[(Ix, Ix, f64)]) -> hypersparse::Dcsr<f64> {
    let mut c = Coo::new(N, N);
    c.extend(t.iter().copied());
    c.build_dcsr(PlusTimes::<f64>::new())
}

proptest! {
    /// The fused SpGEMM epilogue is ≡ mxm-then-apply_prune under the
    /// DNN two-semiring layer: multiply in PlusTimes (S₁), bias+ReLU in
    /// MaxPlus (S₂ — `max(x + b, 0)`), prune with the S₁ zero. Positive
    /// biases included: `op(0) = b > 0` must never appear at positions
    /// the product leaves absent.
    #[test]
    fn fused_prune_equals_two_pass_plus_times(
        ta in f64_triplets(), tb in f64_triplets(), bias in -4i64..5,
    ) {
        use semiring::{FnOp, MaxPlus};
        let s1 = PlusTimes::<f64>::new();
        let s2 = MaxPlus::<f64>::new();
        let b = bias as f64;
        let (a, w) = (build_f64(&ta), build_f64(&tb));
        let op = FnOp(move |x: f64| s2.add(s2.mul(x, b), 0.0));
        for threads in [1usize, 4] {
            let ctx = hypersparse::OpCtx::new().with_threads(threads);
            let fused = hypersparse::ops::mxm_apply_prune_ctx(&ctx, &a, &w, s1, op, s1);
            let two_pass = hypersparse::ops::apply_prune_ctx(
                &ctx, &hypersparse::ops::mxm_ctx(&ctx, &a, &w, s1), op, s1);
            prop_assert_eq!(fused, two_pass, "threads={}", threads);
        }
    }

    /// Same fusion law with the multiply itself running in MaxPlus —
    /// the accumulator s-zero (−∞) and the drop zero (0.0) genuinely
    /// differ, so any epilogue-ordering mistake shows up here.
    #[test]
    fn fused_prune_equals_two_pass_max_plus(
        ta in f64_triplets(), tb in f64_triplets(), bias in -4i64..1,
    ) {
        use semiring::{FnOp, MaxPlus};
        let s2 = MaxPlus::<f64>::new();
        let drop = PlusTimes::<f64>::new();
        let b = bias as f64;
        let (a, w) = (build_f64(&ta), build_f64(&tb));
        let op = FnOp(move |x: f64| s2.add(s2.mul(x, b), 0.0));
        let ctx = hypersparse::OpCtx::new();
        let fused = hypersparse::ops::mxm_apply_prune_ctx(&ctx, &a, &w, s2, op, drop);
        let two_pass = hypersparse::ops::apply_prune_ctx(
            &ctx, &hypersparse::ops::mxm_ctx(&ctx, &a, &w, s2), op, drop);
        prop_assert_eq!(fused, two_pass);
    }

    /// The structural pattern equals the pattern built the long way: every
    /// entry pushed into a COO as `one` and re-sorted.
    #[test]
    fn structural_pattern_equals_coo_built_pattern(t in triplets()) {
        let a = build(&t, PlusTimes::<i64>::new());
        let mut coo = Coo::new(N, N);
        for (r, c, _) in a.iter() {
            coo.push(r, c, 1u64);
        }
        prop_assert_eq!(a.pattern(1u64), coo.build_dcsr(semiring::MinFirst));
        prop_assert_eq!(a.pattern(1.0f64).nnz(), a.nnz());
    }

    /// Degrees read off the matrix structure equal `+` reduced over the
    /// all-ones pattern, at every thread count, and land on the same
    /// kernel rows.
    #[test]
    fn structural_degrees_equal_reductions_over_the_pattern(t in triplets()) {
        use hypersparse::ops::{col_degrees_ctx, reduce_cols_ctx, reduce_rows_ctx, row_degrees_ctx};
        use hypersparse::Kernel;
        let plus = semiring::PlusMonoid::<u64>::default();
        let a = build(&t, PlusTimes::<i64>::new());
        let pat = a.pattern(1u64);
        for threads in [1usize, 2, 4, 8] {
            let ctx = hypersparse::OpCtx::new().with_threads(threads);
            prop_assert_eq!(row_degrees_ctx(&ctx, &a), reduce_rows_ctx(&ctx, &pat, plus));
            prop_assert_eq!(col_degrees_ctx(&ctx, &a), reduce_cols_ctx(&ctx, &pat, plus));
            let snap = ctx.metrics().snapshot();
            prop_assert_eq!(snap.kernel(Kernel::ReduceRows).calls, 2);
            prop_assert_eq!(snap.kernel(Kernel::ReduceCols).calls, 2);
        }
    }
}

// ---- the one sort and the one builder (ISSUE 24) ----

/// The free monoid on insertion positions: ⊕ appends, so a folded cell
/// spells out the order its duplicates were folded in. Not commutative —
/// which is the point: it tells a stable sort from an unstable one.
#[derive(Copy, Clone)]
struct Concat;
impl Semiring for Concat {
    type Value = Vec<u32>;
    fn zero(&self) -> Vec<u32> {
        Vec::new()
    }
    fn one(&self) -> Vec<u32> {
        vec![u32::MAX]
    }
    fn add(&self, mut a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
        a.extend(b);
        a
    }
    fn mul(&self, a: Vec<u32>, _: Vec<u32>) -> Vec<u32> {
        a
    }
}

/// Keys drawn from a pool of at most six ids anywhere below 2⁶⁰ — heavy
/// duplication over a key space no array could index.
fn pooled_keys() -> impl Strategy<Value = Vec<(Ix, Ix)>> {
    (
        proptest::collection::vec(0..(1u64 << 60), 1..6),
        proptest::collection::vec((0..6usize, 0..6usize), 0..200),
    )
        .prop_map(|(pool, picks)| {
            let at = |i: usize| pool[i % pool.len()];
            picks.into_iter().map(|(r, c)| (at(r), at(c))).collect()
        })
}

/// What `Coo::build_dcsr` did before the radix sort: stable comparison
/// sort, fold each duplicate group left to right, drop zeros, lay the
/// four arrays down by hand.
fn comparison_sorted_build<S: Semiring>(
    n: Ix,
    mut t: Vec<(Ix, Ix, S::Value)>,
    s: S,
) -> Dcsr<S::Value> {
    t.sort_by_key(|e| (e.0, e.1));
    let mut folded: Vec<(Ix, Ix, S::Value)> = Vec::new();
    for (r, c, v) in t {
        match folded.last_mut() {
            Some(last) if (last.0, last.1) == (r, c) => s.add_assign(&mut last.2, v),
            _ => folded.push((r, c, v)),
        }
    }
    folded.retain(|e| !s.is_zero(&e.2));
    hand_laid(n, n, folded)
}

/// The old `from_sorted_trips`: sorted, duplicate-free triplets → `Dcsr`.
fn hand_laid<T: semiring::traits::Value>(nrows: Ix, ncols: Ix, t: Vec<(Ix, Ix, T)>) -> Dcsr<T> {
    let (mut rows, mut rowptr, mut colidx, mut vals) =
        (Vec::new(), vec![0usize], Vec::new(), Vec::new());
    for (r, c, v) in t {
        if rows.last() != Some(&r) {
            rows.push(r);
            rowptr.push(colidx.len());
        }
        colidx.push(c);
        vals.push(v);
        *rowptr.last_mut().unwrap() = colidx.len();
    }
    Dcsr::from_parts(nrows, ncols, rows, rowptr, colidx, vals)
}

/// The structural invariants `Dcsr::from_parts` only debug-asserts,
/// through the public accessors, so a release-mode run checks them too.
fn assert_dcsr_invariants<T: semiring::traits::Value>(m: &Dcsr<T>) {
    assert!(
        m.row_ids().windows(2).all(|w| w[0] < w[1]),
        "rows not increasing"
    );
    for (k, (_, cols, vals)) in m.iter_rows().enumerate() {
        assert!(m.row_len_at(k) > 0, "empty row stored");
        assert_eq!(cols.len(), vals.len());
        assert!(cols.windows(2).all(|w| w[0] < w[1]), "cols not increasing");
    }
    assert_eq!(m.iter().count(), m.nnz());
}

fn bits(m: &Dcsr<f64>) -> Vec<(Ix, Ix, u64)> {
    m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect()
}

proptest! {
    /// Radix order ≡ `sort_by_key`: on huge, heavily duplicated keys every
    /// cell lists its insertion positions in ascending order, and the
    /// whole matrix equals the comparison-sorted build.
    #[test]
    fn radix_build_orders_like_a_stable_comparison_sort(keys in pooled_keys()) {
        let n = 1u64 << 60;
        let t: Vec<(Ix, Ix, Vec<u32>)> = keys
            .iter()
            .enumerate()
            .map(|(k, &(r, c))| (r, c, vec![k as u32]))
            .collect();
        let mut coo = Coo::new(n, n);
        coo.extend(t.iter().cloned());
        let got = coo.build_dcsr(Concat);
        for (_, _, positions) in got.iter() {
            prop_assert!(positions.windows(2).all(|w| w[0] < w[1]), "fold left insertion order");
        }
        prop_assert_eq!(got, comparison_sorted_build(n, t, Concat));
    }

    /// `PlusTimes<f64>` duplicates of values whose sum depends on the
    /// order (1e16 + 1 − 1e16 is 0 or 1) fold to the same bits as under
    /// the comparison sort.
    #[test]
    fn build_folds_order_sensitive_floats_bit_identically(
        t in proptest::collection::vec((0..3u64, 0..3u64, 0..3usize), 0..120),
    ) {
        let s = PlusTimes::<f64>::new();
        let t: Vec<(Ix, Ix, f64)> =
            t.into_iter().map(|(r, c, v)| (r, c, [1e16, 1.0, -1e16][v])).collect();
        let mut coo = Coo::new(N, N);
        coo.extend(t.iter().copied());
        prop_assert_eq!(bits(&coo.build_dcsr(s)), bits(&comparison_sorted_build(N, t, s)));
    }

    /// Row-disjoint operands (what two shards hand the assemble): `A ⊕ B`
    /// is the two row lists interleaved, entry for entry.
    #[test]
    fn ewise_add_of_row_disjoint_operands_is_concatenation(ta in triplets(), tb in triplets()) {
        let s = PlusTimes::<i64>::new();
        let even: Vec<_> = ta.into_iter().map(|(r, c, v)| (r & !1, c, v)).collect();
        let odd: Vec<_> = tb.into_iter().map(|(r, c, v)| (r | 1, c, v)).collect();
        let (a, b) = (build(&even, s), build(&odd, s));
        let mut want = [a.to_triplets(), b.to_triplets()].concat();
        want.sort_by_key(|e| (e.0, e.1));
        let ctx = hypersparse::OpCtx::new();
        let got = hypersparse::ops::ewise_add_ctx(&ctx, &a, &b, s);
        assert_dcsr_invariants(&got);
        prop_assert_eq!(got, hand_laid(N, N, want));
        prop_assert_eq!(ctx.metrics().snapshot().kernel(hypersparse::Kernel::EwiseAdd).flops, 0);
    }

    /// Every kernel that lays its output down through the builder equals
    /// the same entries laid down by hand, array for array.
    #[test]
    fn builder_output_equals_hand_laid_arrays(ta in triplets(), tb in triplets()) {
        use hypersparse::ops;
        use std::collections::BTreeMap;
        let s = PlusTimes::<i64>::new();
        let ctx = hypersparse::OpCtx::new();
        // Negated copies of `a`'s first row make whole rows cancel.
        let tb: Vec<_> = tb.into_iter().chain(
            build(&ta, s).iter_rows().take(1)
                .flat_map(|(r, cols, vals)| cols.iter().zip(vals).map(move |(&c, &v)| (r, c, -v)))
                .collect::<Vec<_>>(),
        ).collect();
        let (a, b) = (build(&ta, s), build(&tb, s));
        let cells = |m: &Dcsr<i64>| m.iter().map(|(r, c, &v)| ((r, c), v)).collect::<BTreeMap<_, _>>();
        let (ma, mb) = (cells(&a), cells(&b));
        let lay = |m: BTreeMap<(Ix, Ix), i64>| {
            hand_laid(N, N, m.into_iter().filter(|e| e.1 != 0).map(|((r, c), v)| (r, c, v)).collect())
        };

        let mut sum = ma.clone();
        for (&k, &v) in &mb {
            *sum.entry(k).or_insert(0) += v;
        }
        let add = ops::ewise_add_ctx(&ctx, &a, &b, s);
        assert_dcsr_invariants(&add);
        prop_assert_eq!(&add, &lay(sum));
        let product = ma.iter().filter_map(|(k, v)| mb.get(k).map(|w| (*k, v * w))).collect();
        prop_assert_eq!(ops::ewise_mul_ctx(&ctx, &a, &b, s), lay(product));

        let flipped = ma.iter().map(|(&(r, c), &v)| ((c, r), v)).collect();
        prop_assert_eq!(ops::transpose_ctx(&ctx, &a), lay(flipped));
    }
}

/// A row whose every collision cancels is absent from `A ⊕ B` — not
/// stored empty — while its neighbours survive.
#[test]
fn fully_cancelling_row_is_absent() {
    let s = PlusTimes::<i64>::new();
    let a = build(&[(1, 1, 4), (2, 0, 3), (2, 5, -7), (3, 3, 1)], s);
    let b = build(&[(2, 0, -3), (2, 5, 7), (4, 4, 2)], s);
    let c = hypersparse::ops::ewise_add_ctx(&hypersparse::OpCtx::new(), &a, &b, s);
    assert_dcsr_invariants(&c);
    assert_eq!(c.row_ids(), &[1, 3, 4]);
    assert_eq!(c.to_triplets(), vec![(1, 1, 4), (3, 3, 1), (4, 4, 2)]);
}

/// `LorLand` pass-through keeps an explicit `false` — whole rows, row
/// tails and the word path's one-sided columns alike; only a collision
/// that ORs to `false` drops.
#[test]
fn lorland_pass_through_keeps_an_explicit_false() {
    use semiring::LorLand;
    let stored = |t: &[(Ix, Ix, bool)]| hand_laid(N, N, t.to_vec());
    let a = stored(&[(0, 0, false), (2, 1, false), (2, 9, false), (5, 5, false)]);
    let b = stored(&[(2, 1, false), (2, 3, true), (7, 7, false)]);
    let ctx = hypersparse::OpCtx::new();
    let want = vec![
        (0, 0, false),
        (2, 3, true),
        (2, 9, false),
        (5, 5, false),
        (7, 7, false),
    ];
    let word = hypersparse::ops::ewise_add_ctx(&ctx, &a, &b, LorLand);
    let generic = hypersparse::ops::ewise_add_ctx(&ctx, &a, &b, semiring::Plain(LorLand));
    assert_eq!(word.to_triplets(), want);
    assert_eq!(generic, word);
}

// ---- transpose: one counting pass in compact column spaces ----

/// The same stored entries re-declared in another key space.
fn respace<T: semiring::traits::Value>(m: &Dcsr<T>, nrows: Ix, ncols: Ix) -> Dcsr<T> {
    let (_, _, rows, rowptr, colidx, vals) = m.clone().into_parts();
    Dcsr::from_parts(nrows, ncols, rows, rowptr, colidx, vals)
}

/// Past the compact bound (`DENSE_ACC_MAX = 2²²`): transpose radix-sorts.
const WIDE: Ix = 1 << 23;

proptest! {
    /// The counting pass (compact column space: the diagonal guarantees
    /// at least as many entries as columns) ≡ the LSD radix path on the
    /// same entries widened past the bound ≡ the transpose built through
    /// `Coo`; and transposing twice is the identity.
    #[test]
    fn transpose_counting_pass_equals_radix_and_coo(t in triplets()) {
        use hypersparse::ops::transpose_ctx;
        let s = PlusTimes::<i64>::new();
        let diag: Vec<(Ix, Ix, i64)> = (0..N).map(|i| (i, i, 1)).collect();
        let ctx = hypersparse::OpCtx::new();
        for a in [build(&t, s), build(&[&t[..], &diag].concat(), s)] {
            let counted = transpose_ctx(&ctx, &a);
            let radix = transpose_ctx(&ctx, &respace(&a, N, WIDE));
            prop_assert_eq!(respace(&radix, N, N), counted.clone());
            let mut coo = Coo::new(N, N);
            coo.extend(a.iter().map(|(r, c, &v)| (c, r, v)));
            prop_assert_eq!(coo.build_dcsr(s), counted.clone());
            prop_assert_eq!(transpose_ctx(&ctx, &counted), a);
        }
    }
}

/// `LorLand` values cross a transpose as they stand — an explicit
/// `false` included — on the counting pass and the radix path alike.
#[test]
fn transpose_keeps_an_explicit_false() {
    let t: Vec<(Ix, Ix, bool)> = (0..N).map(|i| (i, (5 * i + 3) % N, i % 3 != 0)).collect();
    let mut sorted = t.clone();
    sorted.sort_by_key(|e| (e.0, e.1));
    let a = hand_laid(N, N, sorted);
    let ctx = hypersparse::OpCtx::new();
    for m in [a.clone(), respace(&a, N, WIDE)] {
        let at = hypersparse::ops::transpose_ctx(&ctx, &m);
        assert_eq!(at.nnz(), t.len());
        for &(r, c, v) in &t {
            assert_eq!(at.get(c, r), Some(&v), "({r}, {c})");
        }
    }
}

proptest! {
    /// The traversal cursor's search: from any start at or before the
    /// partition point, galloping forward lands exactly where
    /// `partition_point` does.
    #[test]
    fn gallop_is_partition_point(
        drawn in proptest::collection::vec(0u64..400, 0..200),
        x in 0u64..420,
        at in 0usize..1000,
    ) {
        let mut ids = drawn;
        ids.sort_unstable();
        let want = ids.partition_point(|&e| e < x);
        let from = at % (want + 1);
        prop_assert_eq!(ops::gallop(ids.len(), from, |k| ids[k] < x), want);
    }
}
