//! Property-based kernel verification against naive oracles, plus
//! format-independence of every operation.

use hypersparse::{Coo, Dcsr, Format, Ix, Matrix};
use proptest::prelude::*;
use semiring::{MinPlus, PlusTimes, Semiring};

const N: Ix = 16;

fn triplets() -> impl Strategy<Value = Vec<(Ix, Ix, i64)>> {
    proptest::collection::vec((0..N, 0..N, 1i64..10), 0..60)
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
        let a0 = Matrix::from_dcsr(build(&ta, s), s);
        let b0 = Matrix::from_dcsr(build(&tb, s), s);
        let want = a0.mxm(&b0, s);
        let want_add = a0.ewise_add(&b0, s);
        for fa in [Format::Dense, Format::Bitmap, Format::Csr, Format::Dcsr] {
            let a = a0.clone().with_format(fa, s);
            prop_assert_eq!(a.mxm(&b0, s), want.clone());
            prop_assert_eq!(a.ewise_add(&b0, s), want_add.clone());
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

    #[test]
    fn concat_extract_inverse(ta in triplets(), tb in triplets()) {
        let s = PlusTimes::<i64>::new();
        let (a, b) = (build(&ta, s), build(&tb, s));
        let tall = hypersparse::ops::concat_rows_ctx(&hypersparse::OpCtx::new(), &a, &b);
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
        // Tile each 16×16 draw down a block diagonal and add a 640-row
        // strip, so every case clears the ≥512 non-empty-row bar where
        // the masked SpGEMM switches to its row-sharded parallel path.
        const TILE: Ix = 40;
        const BIG: Ix = 16 * TILE;
        fn tile(t: &[(Ix, Ix, i64)]) -> Vec<(Ix, Ix, i64)> {
            let mut out: Vec<(Ix, Ix, i64)> = (0..BIG).map(|i| (i, i % 16, 1i64)).collect();
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
                        let par = hypersparse::ops::mxm_masked_ctx(
                            &hypersparse::OpCtx::new().with_threads(threads),
                            &a, &b, &mask, complement, s);
                        prop_assert_eq!(&par, &seq);
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
        let fused = hypersparse::ops::vxm_opt_ctx(
            &hypersparse::OpCtx::new(), &v, &a, None, Some(&mask), s);
        let unfused = hypersparse::ops::vxm_ctx(&hypersparse::OpCtx::new(), &v, &a, s).without(&mask_vec);
        prop_assert_eq!(fused, unfused);
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
                    let got = hypersparse::ops::vxm_opt_ctx(
                        &ctx, &v, &a, transpose, mask.map(|m| m.indices()), s);
                    let want = mask.map_or(plain.clone(), |m| plain.without(m));
                    prop_assert_eq!(
                        got, want, "threads={} at={} mask={:?}",
                        threads, transpose.is_some(), mask.map(|m| m.nnz()));
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
