//! Structural transforms: transpose, apply, select, extract, Kronecker.
//!
//! Each kernel records calls/nnz/flops into its [`OpCtx`]'s metrics.

use std::collections::HashMap;

use semiring::traits::{Semiring, UnaryOp, Value};

use crate::ctx::OpCtx;
use crate::dcsr::{Dcsr, DcsrBuilder};
use crate::error::{Axis, OpError};
use crate::metrics::{Decision, Kernel};
use crate::radix::{counting_sort, radix_sort_by_key};
use crate::Ix;

/// `Aᵀ`: sort the entries by column and emit column-major as new rows.
/// `a` is row-major already, so a stable sort on the column id alone
/// leaves each new row's entries in old-row order: in a compact column
/// space (`ops::mxm::compact`) one counting pass scattering row ids and
/// values straight into the output arrays, otherwise the LSD radix sort,
/// `O(nnz)` per varying column-id byte, materializing neither dimension.
pub fn transpose_ctx<T: Value>(ctx: &OpCtx, a: &Dcsr<T>) -> Dcsr<T> {
    let run = ctx.kernel(Kernel::Transpose, || {
        format!("{}×{}, {} nnz", a.nrows(), a.ncols(), a.nnz())
    });
    let c = match a.iter().next() {
        Some((_, _, first)) if super::mxm::compact(a.ncols(), a.nnz()) => {
            ctx.metrics()
                .record_decision(Decision::TransposeCounting, 1);
            let (mut colidx, mut vals) = (vec![0; a.nnz()], vec![first.clone(); a.nnz()]);
            let bounds = counting_sort(a.ncols() as usize, a.col_ids(), a.iter(), |at, e| {
                (colidx[at], vals[at]) = (e.0, e.2.clone());
            });
            let (mut rows, mut rowptr) = (Vec::new(), vec![0]);
            for (k, w) in bounds.windows(2).enumerate().filter(|(_, w)| w[1] > w[0]) {
                rows.push(k as Ix);
                rowptr.push(w[1]);
            }
            Dcsr::from_parts(a.ncols(), a.nrows(), rows, rowptr, colidx, vals)
        }
        _ => {
            ctx.metrics().record_decision(Decision::TransposeRadix, 1);
            let mut recs: Vec<(Ix, Ix, &T)> = a.iter().map(|(r, c, v)| (c, r, v)).collect();
            radix_sort_by_key(&mut recs, &mut Vec::new(), |rec| (0, rec.0));
            let mut out = DcsrBuilder::with_capacity(a.ncols(), a.nrows(), a.nnz());
            for (r, c, v) in recs {
                out.push_entry(r, c, v.clone());
            }
            out.finish()
        }
    };
    run.done(
        a.nnz() as u64,
        c.nnz() as u64,
        0,
        (a.bytes() + c.bytes()) as u64,
    );
    c
}

/// Apply a unary operator to every stored value; results equal to the
/// semiring zero are dropped (so `apply` can only shrink the pattern).
pub fn apply_ctx<T: Value, S, O>(ctx: &OpCtx, a: &Dcsr<T>, op: O, s: S) -> Dcsr<T>
where
    S: Semiring<Value = T>,
    O: UnaryOp<T, T>,
{
    apply_sharded(ctx, a, op, s, Kernel::Apply)
}

/// Fused **apply + prune** kernel: map every stored value through `op`
/// and drop results that are zero under the explicit `drop` semiring —
/// one deterministic row-sharded pass.
///
/// Semantically this is [`apply_ctx`] with the zero-dropping role named:
/// `apply`'s semiring argument does no arithmetic, it only decides which
/// op results vanish from the pattern, and call sites that compute in
/// one semiring while pruning in another (the two-semiring DNN layer of
/// the paper's §V.C computes `max(x + b, 0)` in MaxPlus but must prune
/// `0.0` — the *PlusTimes* zero, not MaxPlus's `−∞`) need that choice
/// explicit in the signature. Recorded under
/// [`crate::metrics::Kernel::ApplyPrune`].
pub fn apply_prune_ctx<T: Value, SD, O>(ctx: &OpCtx, a: &Dcsr<T>, op: O, drop: SD) -> Dcsr<T>
where
    SD: Semiring<Value = T>,
    O: UnaryOp<T, T>,
{
    apply_sharded(ctx, a, op, drop, Kernel::ApplyPrune)
}

/// Shared body of [`apply_ctx`] / [`apply_prune_ctx`]: the semiring
/// argument is used *only* for its zero test on op outputs.
fn apply_sharded<T: Value, S, O>(ctx: &OpCtx, a: &Dcsr<T>, op: O, s: S, kernel: Kernel) -> Dcsr<T>
where
    S: Semiring<Value = T>,
    O: UnaryOp<T, T>,
{
    let run = ctx.kernel(kernel, || {
        format!("{}×{}, {} nnz", a.nrows(), a.ncols(), a.nnz())
    });
    let nrows = a.n_nonempty_rows();
    // Each range maps its stored rows independently, recording row ends
    // relative to its own output; stitching adds the running offset.
    // Row order (and so the output) is identical at any thread count.
    let parts = ctx.par_rows(a.nnz() as u64, a, |range| {
        let mut rows = Vec::with_capacity(range.len());
        let mut ends = Vec::with_capacity(range.len());
        let mut colidx = Vec::new();
        let mut vals = Vec::new();
        for k in range {
            let (r, cols, vs) = a.row_at(k);
            let rstart = colidx.len();
            for (&c, v) in cols.iter().zip(vs) {
                let w = op.apply(v.clone());
                if !s.is_zero(&w) {
                    colidx.push(c);
                    vals.push(w);
                }
            }
            if colidx.len() > rstart {
                rows.push(r);
                ends.push(colidx.len());
            }
        }
        (rows, ends, colidx, vals)
    });
    let mut rows = Vec::with_capacity(nrows);
    let mut rowptr = vec![0usize];
    let mut colidx = Vec::with_capacity(a.nnz());
    let mut vals = Vec::with_capacity(a.nnz());
    for (r, ends, ci, vs) in parts {
        let offset = colidx.len();
        rows.extend(r);
        rowptr.extend(ends.into_iter().map(|e| e + offset));
        colidx.extend(ci);
        vals.extend(vs);
    }
    let c = Dcsr::from_parts(a.nrows(), a.ncols(), rows, rowptr, colidx, vals);
    run.done(
        a.nnz() as u64,
        c.nnz() as u64,
        a.nnz() as u64, // one operator application per stored entry
        (a.bytes() + c.bytes()) as u64,
    );
    c
}

/// Keep entries satisfying a predicate on `(row, col, value)` —
/// GraphBLAS `GrB_select`.
pub fn select_ctx<T: Value, F: Fn(Ix, Ix, &T) -> bool>(
    ctx: &OpCtx,
    a: &Dcsr<T>,
    keep: F,
) -> Dcsr<T> {
    let run = ctx.kernel(Kernel::Select, || {
        format!("{}×{}, {} nnz", a.nrows(), a.ncols(), a.nnz())
    });
    let mut out = DcsrBuilder::with_capacity(a.nrows(), a.ncols(), 0);
    for (r, cols, vs) in a.iter_rows() {
        out.row(r);
        for (&c, v) in cols.iter().zip(vs) {
            if keep(r, c, v) {
                out.push(c, v.clone());
            }
        }
    }
    let c = out.finish();
    run.done(
        a.nnz() as u64,
        c.nnz() as u64,
        a.nnz() as u64, // one predicate evaluation per stored entry
        (a.bytes() + c.bytes()) as u64,
    );
    c
}

/// Extraction bounds: every selector index lies inside `a`'s
/// `(nrows, ncols)` key space; the first one outside is the error.
pub fn check_extract(a: (Ix, Ix), rows: &[Ix], cols: &[Ix]) -> Result<(), OpError> {
    for (axis, sel, bound) in [(Axis::Rows, rows, a.0), (Axis::Cols, cols, a.1)] {
        if let Some(&index) = sel.iter().find(|&&i| i >= bound) {
            return Err(OpError::IndexOutOfBounds { axis, index, bound });
        }
    }
    Ok(())
}

/// `A(rows, cols)` — submatrix extraction with *reindexing*: output
/// position `(i, j)` is `A(rows[i], cols[j])`. Selector slices must be
/// strictly increasing (GraphBLAS allows duplicates; the associative
/// array layer never produces them, so we keep the stronger contract)
/// and inside the key space ([`check_extract`]).
pub fn extract_ctx<T: Value>(
    ctx: &OpCtx,
    a: &Dcsr<T>,
    rows_sel: &[Ix],
    cols_sel: &[Ix],
) -> Dcsr<T> {
    check_extract(a.shape(), rows_sel, cols_sel).unwrap_or_else(|e| panic!("{e}"));
    debug_assert!(rows_sel.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(cols_sel.windows(2).all(|w| w[0] < w[1]));
    let run = ctx.kernel(Kernel::Extract, || {
        format!("{}×{}, {} nnz", a.nrows(), a.ncols(), a.nnz())
    });
    let col_pos: HashMap<Ix, Ix> = cols_sel
        .iter()
        .enumerate()
        .map(|(p, &c)| (c, p as Ix))
        .collect();

    let mut out = DcsrBuilder::with_capacity(rows_sel.len() as Ix, cols_sel.len() as Ix, 0);
    for (new_r, &old_r) in rows_sel.iter().enumerate() {
        let (cols, vs) = a.row(old_r);
        out.row(new_r as Ix);
        for (&c, v) in cols.iter().zip(vs) {
            if let Some(&p) = col_pos.get(&c) {
                out.push(p, v.clone());
            }
        }
    }
    let c = out.finish();
    run.done(
        a.nnz() as u64,
        c.nnz() as u64,
        0,
        (a.bytes() + c.bytes()) as u64,
    );
    c
}

/// Kronecker product `A ⊗ₖ B`: output dimension
/// `(nrows_A·nrows_B) × (ncols_A·ncols_B)`, entry
/// `(i_A·nrows_B + i_B, j_A·ncols_B + j_B) = A(i_A,j_A) ⊗ B(i_B,j_B)`.
/// The generator behind Graph500/RMAT-style power-law graphs.
pub fn kron_ctx<T: Value, S: Semiring<Value = T>>(
    ctx: &OpCtx,
    a: &Dcsr<T>,
    b: &Dcsr<T>,
    s: S,
) -> Dcsr<T> {
    let nrows = a
        .nrows()
        .checked_mul(b.nrows())
        .expect("kron rows overflow");
    let ncols = a
        .ncols()
        .checked_mul(b.ncols())
        .expect("kron cols overflow");
    let run = ctx.kernel(Kernel::Kron, || {
        format!("{}×{}, {} nnz", a.nrows(), a.ncols(), a.nnz())
    });
    let mut flops = 0u64;

    let mut out = DcsrBuilder::with_capacity(nrows, ncols, a.nnz() * b.nnz());

    // Row ids of the product appear in sorted order because a's rows and
    // b's rows are each sorted and the blocks are disjoint.
    for (ra, acols, avals) in a.iter_rows() {
        for (rb, bcols, bvals) in b.iter_rows() {
            out.row(ra * b.nrows() + rb);
            for (&ca, va) in acols.iter().zip(avals) {
                for (&cb, vb) in bcols.iter().zip(bvals) {
                    let v = s.mul(va.clone(), vb.clone());
                    flops += 1;
                    if !s.is_zero(&v) {
                        out.push(ca * b.ncols() + cb, v);
                    }
                }
            }
        }
    }
    let c = out.finish();
    run.done(
        (a.nnz() + b.nnz()) as u64,
        c.nnz() as u64,
        flops,
        (a.bytes() + b.bytes() + c.bytes()) as u64,
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::gen::random_dcsr;
    use crate::ops::mxm::mxm_ctx;
    use semiring::{PlusTimes, Relu, ZeroNorm};

    fn m(n: Ix, t: &[(Ix, Ix, f64)]) -> Dcsr<f64> {
        let mut c = Coo::new(n, n);
        c.extend(t.iter().copied());
        c.build_dcsr(PlusTimes::<f64>::new())
    }

    #[test]
    fn transpose_round_trip() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(100, 60, 400, 7, s);
        let t = transpose_ctx(&OpCtx::new(), &a);
        assert_eq!(t.nrows(), 60);
        assert_eq!(t.ncols(), 100);
        assert_eq!(transpose_ctx(&OpCtx::new(), &t), a);
        for (r, c, v) in a.iter() {
            assert_eq!(t.get(c, r), Some(v));
        }
    }

    #[test]
    fn transpose_of_product_law() {
        // (AB)ᵀ = BᵀAᵀ (Table II).
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(40, 40, 200, 8, s);
        let b = random_dcsr(40, 40, 200, 9, s);
        let ctx = OpCtx::new();
        let lhs = transpose_ctx(&ctx, &mxm_ctx(&ctx, &a, &b, s));
        let rhs = mxm_ctx(&ctx, &transpose_ctx(&ctx, &b), &transpose_ctx(&ctx, &a), s);
        let l: Vec<_> = lhs.iter().map(|(i, j, &v)| (i, j, v)).collect();
        let r: Vec<_> = rhs.iter().map(|(i, j, &v)| (i, j, v)).collect();
        assert_eq!(l.len(), r.len());
        for ((li, lj, lv), (ri, rj, rv)) in l.iter().zip(&r) {
            assert_eq!((li, lj), (ri, rj));
            assert!((lv - rv).abs() < 1e-9);
        }
    }

    #[test]
    fn apply_zero_norm_produces_pattern() {
        let a = m(4, &[(0, 1, 7.0), (2, 3, -2.0)]);
        let p = apply_ctx(
            &OpCtx::new(),
            &a,
            ZeroNorm(PlusTimes::<f64>::new()),
            PlusTimes::<f64>::new(),
        );
        assert_eq!(p.get(0, 1), Some(&1.0));
        assert_eq!(p.get(2, 3), Some(&1.0));
    }

    #[test]
    fn apply_drops_new_zeros() {
        let a = m(4, &[(0, 1, -7.0), (2, 3, 2.0)]);
        let r = apply_ctx(&OpCtx::new(), &a, Relu(0.0), PlusTimes::<f64>::new());
        assert_eq!(r.nnz(), 1);
        assert_eq!(r.get(2, 3), Some(&2.0));
    }

    #[test]
    fn select_by_predicate() {
        let a = m(4, &[(0, 1, 1.0), (1, 0, 2.0), (2, 3, 3.0)]);
        let upper = select_ctx(&OpCtx::new(), &a, |r, c, _| c > r);
        assert_eq!(upper.nnz(), 2);
        assert!(upper.get(1, 0).is_none());
    }

    #[test]
    fn extract_reindexes() {
        let a = m(6, &[(1, 1, 1.0), (1, 4, 2.0), (4, 4, 3.0), (5, 0, 9.0)]);
        let sub = extract_ctx(&OpCtx::new(), &a, &[1, 4], &[1, 4]);
        assert_eq!(sub.nrows(), 2);
        assert_eq!(sub.ncols(), 2);
        assert_eq!(sub.get(0, 0), Some(&1.0)); // old (1,1)
        assert_eq!(sub.get(0, 1), Some(&2.0)); // old (1,4)
        assert_eq!(sub.get(1, 1), Some(&3.0)); // old (4,4)
        assert_eq!(sub.nnz(), 3);
    }

    #[test]
    fn kron_small() {
        let a = m(2, &[(0, 0, 1.0), (1, 1, 2.0)]);
        let b = m(2, &[(0, 1, 3.0)]);
        let k = kron_ctx(&OpCtx::new(), &a, &b, PlusTimes::<f64>::new());
        assert_eq!(k.nrows(), 4);
        assert_eq!(k.get(0, 1), Some(&3.0)); // (0,0)⊗(0,1)
        assert_eq!(k.get(2, 3), Some(&6.0)); // (1,1)⊗(0,1)
        assert_eq!(k.nnz(), 2);
    }

    #[test]
    fn kron_nnz_is_product() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(8, 8, 10, 13, s);
        let b = random_dcsr(8, 8, 12, 14, s);
        let k = kron_ctx(&OpCtx::new(), &a, &b, s);
        assert_eq!(k.nnz(), a.nnz() * b.nnz());
    }

    #[test]
    fn ctx_transform_kernels_record() {
        let s = PlusTimes::<f64>::new();
        let ctx = crate::ctx::OpCtx::new();
        let a = m(4, &[(0, 1, 1.0), (1, 0, 2.0), (2, 3, 3.0)]);
        let _ = transpose_ctx(&ctx, &a);
        let _ = select_ctx(&ctx, &a, |r, c, _| c > r);
        let _ = extract_ctx(&ctx, &a, &[0, 2], &[1, 3]);
        let _ = kron_ctx(&ctx, &a, &a, s);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.kernel(Kernel::Transpose).calls, 1);
        assert_eq!(snap.kernel(Kernel::Select).calls, 1);
        assert_eq!(snap.kernel(Kernel::Extract).calls, 1);
        assert_eq!(snap.kernel(Kernel::Kron).calls, 1);
        assert_eq!(snap.kernel(Kernel::Kron).flops, 9); // 3 nnz × 3 nnz
    }

    #[test]
    fn apply_prune_drop_semiring_is_explicit() {
        use semiring::{FnOp, MaxPlus};
        // op maps -3 → 0.0 and 2 → 3.0. Which of those survive depends
        // entirely on whose zero the drop semiring contributes.
        let a = m(4, &[(0, 1, -3.0), (2, 3, 2.0)]);
        let op = FnOp(|x: f64| (x + 1.0).max(0.0));
        let ctx = crate::ctx::OpCtx::new();
        let pruned = apply_prune_ctx(&ctx, &a, op, PlusTimes::<f64>::new());
        assert_eq!(pruned.nnz(), 1);
        assert_eq!(pruned.get(2, 3), Some(&3.0));
        // MaxPlus-zero is −∞, so the computed 0.0 would be *stored* —
        // the wrong choice for a ReLU prune, and visibly different.
        let kept = apply_prune_ctx(&ctx, &a, op, MaxPlus::<f64>::new());
        assert_eq!(kept.nnz(), 2);
        assert_eq!(kept.get(0, 1), Some(&0.0));
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.kernel(Kernel::ApplyPrune).calls, 2);
        assert_eq!(snap.kernel(Kernel::Apply).calls, 0);
    }

    #[test]
    fn apply_prune_matches_apply_when_semirings_agree() {
        use semiring::FnOp;
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(200, 200, 900, 41, s);
        // Values sit in [1,2), so shifting by -1.5 sends roughly half of
        // them to 0.0 — both spellings must drop exactly those.
        let op = FnOp(|x: f64| (x - 1.5).max(0.0));
        let pruned = apply_prune_ctx(&OpCtx::new(), &a, op, s);
        assert!(pruned.nnz() > 0 && pruned.nnz() < a.nnz());
        assert_eq!(pruned, apply_ctx(&OpCtx::new(), &a, op, s));
    }

    #[test]
    fn parallel_apply_prune_is_bit_identical() {
        use semiring::FnOp;
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(4000, 4000, 20_000, 35, s);
        let op = FnOp(|x: f64| (x - 1.5).max(0.0));
        let base = {
            let ctx = crate::ctx::OpCtx::new().with_threads(1);
            apply_prune_ctx(&ctx, &a, op, s)
        };
        assert!(base.nnz() > 0 && base.nnz() < a.nnz());
        for threads in [2, 4, 8] {
            let ctx = crate::ctx::OpCtx::new().with_threads(threads);
            assert!(
                apply_prune_ctx(&ctx, &a, op, s) == base,
                "apply_prune differs at {threads} threads"
            );
        }
    }

    #[test]
    fn parallel_apply_is_bit_identical() {
        let s = PlusTimes::<f64>::new();
        // Two chunks of entries, so the thread rule fans out at a cap ≥ 2,
        // plus values that Relu will drop (negated half) so row patterns
        // shrink.
        let a0 = random_dcsr(4000, 4000, 40_000, 33, s);
        let trips: Vec<(Ix, Ix, f64)> = a0
            .iter()
            .map(|(r, c, v)| (r, c, if (r + c) % 2 == 0 { *v } else { -v }))
            .collect();
        let mut coo = Coo::new(4000, 4000);
        coo.extend(trips);
        let a = coo.build_dcsr(s);
        let base = {
            let ctx = crate::ctx::OpCtx::new().with_threads(1);
            apply_ctx(&ctx, &a, Relu(0.0), s)
        };
        for threads in [2, 4, 8] {
            let ctx = crate::ctx::OpCtx::new().with_threads(threads);
            assert!(
                apply_ctx(&ctx, &a, Relu(0.0), s) == base,
                "apply differs at {threads} threads"
            );
            let many = ctx.metrics().snapshot().decision(Decision::FanOutMany);
            assert_eq!(many, 1, "apply ran on one thread at {threads}");
        }
    }
}
