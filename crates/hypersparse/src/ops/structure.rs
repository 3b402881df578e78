//! Structural composition: assign, concatenation, diagonals, matrix
//! powers — the remaining GraphBLAS surface.
//!
//! The heavyweight kernels take an [`OpCtx`] and record into its
//! metrics; `diag`/`diag_of` are plain constructors.

use std::time::Instant;

use semiring::traits::{Semiring, Value};

use crate::ctx::OpCtx;
use crate::dcsr::{Dcsr, DcsrBuilder};
use crate::error::{Axis, OpError};
use crate::metrics::Kernel;
use crate::vector::SparseVec;
use crate::Ix;

/// `A(rows, cols) = B` — submatrix assignment (GraphBLAS `GrB_assign`):
/// entry `B(i, j)` lands at `A(rows[i], cols[j])`, replacing anything in
/// the selected cross-pattern (cells selected but absent in `B` are
/// cleared). Selectors must be strictly increasing.
pub fn assign_ctx<T: Value>(
    ctx: &OpCtx,
    a: &Dcsr<T>,
    rows_sel: &[Ix],
    cols_sel: &[Ix],
    b: &Dcsr<T>,
) -> Dcsr<T> {
    debug_assert!(rows_sel.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(cols_sel.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(b.nrows(), rows_sel.len() as Ix, "assign row conformance");
    assert_eq!(b.ncols(), cols_sel.len() as Ix, "assign col conformance");
    let _span = ctx.kernel_span(Kernel::Assign, || {
        format!("{}×{}, {} nnz", a.nrows(), a.ncols(), a.nnz())
    });
    let start = Instant::now();

    let row_set: std::collections::HashSet<Ix> = rows_sel.iter().copied().collect();
    let col_set: std::collections::HashSet<Ix> = cols_sel.iter().copied().collect();

    // Survivors of A (everything outside the selected cross-pattern) and
    // the entries of B mapped through the selectors are both in
    // `(row, col)` order and share no key: one two-way merge.
    let mut kept = (a.iter())
        .filter(|(r, c, _)| !(row_set.contains(r) && col_set.contains(c)))
        .peekable();
    let mut put = (b.iter())
        .map(|(i, j, v)| (rows_sel[i as usize], cols_sel[j as usize], v))
        .peekable();
    let mut out = DcsrBuilder::with_capacity(a.nrows(), a.ncols(), a.nnz() + b.nnz());
    loop {
        let from_a = match (kept.peek(), put.peek()) {
            (Some(x), Some(y)) => (x.0, x.1) < (y.0, y.1),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let (r, c, v) = if from_a { kept.next() } else { put.next() }.expect("peeked");
        out.push_entry(r, c, v.clone());
    }
    let c = out.finish();
    ctx.metrics().record(
        Kernel::Assign,
        start.elapsed(),
        (a.nnz() + b.nnz()) as u64,
        c.nnz() as u64,
        0,
        (a.bytes() + b.bytes() + c.bytes()) as u64,
    );
    c
}

/// Concatenation conformance along `axis`: the other axis must match and
/// the stacked extent must fit the index space. Returns that extent.
pub fn check_concat(axis: Axis, a: (Ix, Ix), b: (Ix, Ix)) -> Result<Ix, OpError> {
    let (op, rule, conforms, extents) = match axis {
        Axis::Rows => (
            "concat_rows",
            "concat_rows column conformance",
            a.1 == b.1,
            (a.0, b.0),
        ),
        Axis::Cols => (
            "concat_cols",
            "concat_cols row conformance",
            a.0 == b.0,
            (a.1, b.1),
        ),
    };
    if !conforms {
        return Err(OpError::DimensionMismatch { op, a, b, rule });
    }
    extents
        .0
        .checked_add(extents.1)
        .ok_or(OpError::TooLargeToMaterialize { op, axis, extents })
}

/// Stack `a` on top of `b` (column dimensions must match).
pub fn concat_rows_ctx<T: Value>(ctx: &OpCtx, a: &Dcsr<T>, b: &Dcsr<T>) -> Dcsr<T> {
    let nrows = check_concat(Axis::Rows, a.shape(), b.shape()).unwrap_or_else(|e| panic!("{e}"));
    let _span = ctx.kernel_span(Kernel::ConcatRows, || {
        format!("{}×{}, {} nnz", a.nrows(), a.ncols(), a.nnz())
    });
    let start = Instant::now();
    let mut out = DcsrBuilder::with_capacity(nrows, a.ncols(), a.nnz() + b.nnz());
    out.extend_rows(a, 0, a.n_nonempty_rows());
    for (r, cols, vs) in b.iter_rows() {
        out.row(a.nrows() + r);
        out.extend(cols, vs);
    }
    let c = out.finish();
    ctx.metrics().record(
        Kernel::ConcatRows,
        start.elapsed(),
        (a.nnz() + b.nnz()) as u64,
        c.nnz() as u64,
        0,
        (a.bytes() + b.bytes() + c.bytes()) as u64,
    );
    c
}

/// Place `a` to the left of `b` (row dimensions must match).
pub fn concat_cols_ctx<T: Value>(ctx: &OpCtx, a: &Dcsr<T>, b: &Dcsr<T>) -> Dcsr<T> {
    let ncols = check_concat(Axis::Cols, a.shape(), b.shape()).unwrap_or_else(|e| panic!("{e}"));
    let _span = ctx.kernel_span(Kernel::ConcatCols, || {
        format!("{}×{}, {} nnz", a.nrows(), a.ncols(), a.nnz())
    });
    let start = Instant::now();
    let shift = a.ncols();

    // Merge per row: a's columns first (unchanged), then b's shifted.
    let (ra, rb) = (a.row_ids(), b.row_ids());
    let mut out = DcsrBuilder::with_capacity(a.nrows(), ncols, a.nnz() + b.nnz());
    let (mut i, mut j) = (0usize, 0usize);
    while i < ra.len() || j < rb.len() {
        let r = match (ra.get(i), rb.get(j)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) | (None, Some(&x)) => x,
            (None, None) => unreachable!("loop condition"),
        };
        out.row(r);
        if ra.get(i) == Some(&r) {
            let (_, cols, vs) = a.row_at(i);
            out.extend(cols, vs);
            i += 1;
        }
        if rb.get(j) == Some(&r) {
            let (_, cols, vs) = b.row_at(j);
            for (&c, v) in cols.iter().zip(vs) {
                out.push(c + shift, v.clone());
            }
            j += 1;
        }
    }
    let c = out.finish();
    ctx.metrics().record(
        Kernel::ConcatCols,
        start.elapsed(),
        (a.nnz() + b.nnz()) as u64,
        c.nnz() as u64,
        0,
        (a.bytes() + b.bytes() + c.bytes()) as u64,
    );
    c
}

/// Diagonal matrix from a sparse vector: `D(i, i) = v(i)`.
pub fn diag<T: Value>(v: &SparseVec<T>) -> Dcsr<T> {
    let mut out = DcsrBuilder::with_capacity(v.dim(), v.dim(), v.nnz());
    for (i, x) in v.iter() {
        out.row(i);
        out.push(i, x.clone());
    }
    out.finish()
}

/// Extract the main diagonal of a matrix as a sparse vector.
pub fn diag_of<T: Value>(a: &Dcsr<T>) -> SparseVec<T> {
    let dim = a.nrows().min(a.ncols());
    let mut idx = Vec::new();
    let mut vals = Vec::new();
    for (r, cols, vs) in a.iter_rows() {
        if let Ok(p) = cols.binary_search(&r) {
            idx.push(r);
            vals.push(vs[p].clone());
        }
    }
    SparseVec::from_sorted_parts(dim.max(idx.last().map_or(0, |l| l + 1)), idx, vals)
}

/// `A^k` over a semiring, by repeated squaring (`A⁰ = 𝕀` is disallowed —
/// identity matrices over huge key spaces are exactly the paper's
/// closing open problem; require `k ≥ 1`). The repeated squarings run as
/// [`super::mxm::mxm_ctx`] against the same context (so they share its
/// workspace arena and show up under the `mxm` counters), while the
/// overall call is recorded under `power`.
pub fn matrix_power_ctx<T: Value, S: Semiring<Value = T>>(
    ctx: &OpCtx,
    a: &Dcsr<T>,
    k: u32,
    s: S,
) -> Dcsr<T> {
    assert!(k >= 1, "matrix_power requires k ≥ 1");
    assert_eq!(a.nrows(), a.ncols(), "power of a square matrix");
    let _span = ctx.kernel_span(Kernel::Power, || {
        format!("{}×{}, {} nnz", a.nrows(), a.ncols(), a.nnz())
    });
    let start = Instant::now();
    let mut result: Option<Dcsr<T>> = None;
    let mut base = a.clone();
    let mut kk = k;
    while kk > 0 {
        if kk & 1 == 1 {
            result = Some(match result {
                None => base.clone(),
                Some(r) => super::mxm::mxm_ctx(ctx, &r, &base, s),
            });
        }
        kk >>= 1;
        if kk > 0 {
            base = super::mxm::mxm_ctx(ctx, &base, &base, s);
        }
    }
    let c = result.expect("k ≥ 1");
    ctx.metrics().record(
        Kernel::Power,
        start.elapsed(),
        a.nnz() as u64,
        c.nnz() as u64,
        0,
        (a.bytes() + c.bytes()) as u64,
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::gen::random_dcsr;
    use semiring::{LorLand, MinPlus, PlusTimes};

    fn s() -> PlusTimes<f64> {
        PlusTimes::new()
    }

    fn m(n: Ix, t: &[(Ix, Ix, f64)]) -> Dcsr<f64> {
        let mut c = Coo::new(n, n);
        c.extend(t.iter().copied());
        c.build_dcsr(s())
    }

    #[test]
    fn assign_replaces_cross_pattern() {
        let a = m(4, &[(0, 0, 1.0), (1, 1, 2.0), (3, 3, 4.0), (1, 3, 9.0)]);
        let b = m(2, &[(0, 0, 7.0)]); // 2×2 block
                                      // Assign into rows {1,3} × cols {1,3}: clears (1,1), (3,3), (1,3);
                                      // writes b(0,0)=7 at (1,1).
        let out = assign_ctx(&OpCtx::new(), &a, &[1, 3], &[1, 3], &b.clone());
        assert_eq!(out.get(0, 0), Some(&1.0)); // untouched
        assert_eq!(out.get(1, 1), Some(&7.0)); // replaced
        assert_eq!(out.get(3, 3), None); // cleared
        assert_eq!(out.get(1, 3), None); // cleared
        assert_eq!(out.nnz(), 2);
    }

    #[test]
    fn assign_then_extract_round_trips() {
        let a = random_dcsr(16, 16, 60, 1, s());
        let b = random_dcsr(4, 4, 8, 2, s());
        let rows = [2u64, 5, 9, 13];
        let cols = [0u64, 3, 8, 15];
        let out = assign_ctx(&OpCtx::new(), &a, &rows, &cols, &b);
        assert_eq!(
            super::super::transform::extract_ctx(&OpCtx::new(), &out, &rows, &cols),
            b
        );
    }

    #[test]
    fn concat_rows_stacks() {
        let a = m(2, &[(0, 1, 1.0)]);
        let b = m(2, &[(1, 0, 2.0)]);
        let c = concat_rows_ctx(&OpCtx::new(), &a, &b);
        assert_eq!(c.nrows(), 4);
        assert_eq!(c.get(0, 1), Some(&1.0));
        assert_eq!(c.get(3, 0), Some(&2.0));
        assert_eq!(c.nnz(), 2);
    }

    #[test]
    fn concat_cols_widens() {
        let a = m(2, &[(0, 1, 1.0), (1, 0, 5.0)]);
        let b = m(2, &[(0, 0, 2.0)]);
        let c = concat_cols_ctx(&OpCtx::new(), &a, &b);
        assert_eq!(c.ncols(), 4);
        assert_eq!(c.get(0, 1), Some(&1.0));
        assert_eq!(c.get(0, 2), Some(&2.0)); // shifted by 2
        assert_eq!(c.get(1, 0), Some(&5.0));
        assert_eq!(c.nnz(), 3);
    }

    #[test]
    fn concat_block_identity() {
        // [A | B] stacked twice == 4-block matrix with right dims.
        let a = random_dcsr(8, 8, 20, 3, s());
        let b = random_dcsr(8, 8, 20, 4, s());
        let wide = concat_cols_ctx(&OpCtx::new(), &a, &b);
        let tall = concat_rows_ctx(&OpCtx::new(), &wide, &wide);
        assert_eq!(tall.nrows(), 16);
        assert_eq!(tall.ncols(), 16);
        assert_eq!(tall.nnz(), 2 * (a.nnz() + b.nnz()));
    }

    #[test]
    fn diag_round_trip() {
        let v = SparseVec::from_entries(8, vec![(1, 2.0), (5, 3.0)], s());
        let d = diag(&v);
        assert_eq!(d.nnz(), 2);
        assert_eq!(d.get(5, 5), Some(&3.0));
        assert_eq!(diag_of(&d), v);
    }

    #[test]
    fn diag_of_skips_off_diagonal() {
        let a = m(4, &[(0, 0, 1.0), (0, 1, 9.0), (2, 2, 3.0)]);
        let d = diag_of(&a);
        assert_eq!(d.nnz(), 2);
        assert_eq!(d.get(&0), Some(&1.0));
        assert_eq!(d.get(&2), Some(&3.0));
    }

    #[test]
    fn power_counts_paths() {
        // Path 0→1→2→3: A² has the 2-hop pairs, A³ the single 3-hop.
        let a = m(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let a2 = matrix_power_ctx(&OpCtx::new(), &a, 2, s());
        assert_eq!(a2.get(0, 2), Some(&1.0));
        assert_eq!(a2.nnz(), 2);
        let a3 = matrix_power_ctx(&OpCtx::new(), &a, 3, s());
        assert_eq!(a3.get(0, 3), Some(&1.0));
        assert_eq!(a3.nnz(), 1);
    }

    #[test]
    fn power_equals_iterated_mxm() {
        let a = random_dcsr(12, 12, 40, 6, s());
        let direct = {
            let ctx = OpCtx::new();
            super::super::mxm::mxm_ctx(
                &ctx,
                &super::super::mxm::mxm_ctx(&ctx, &a, &a, s()),
                &a,
                s(),
            )
        };
        let fast = matrix_power_ctx(&OpCtx::new(), &a, 3, s());
        let d: Vec<_> = direct.iter().map(|(r, c, &v)| (r, c, v)).collect();
        let f: Vec<_> = fast.iter().map(|(r, c, &v)| (r, c, v)).collect();
        assert_eq!(d.len(), f.len());
        for ((dr, dc, dv), (fr, fc, fv)) in d.iter().zip(&f) {
            assert_eq!((dr, dc), (fr, fc));
            assert!((dv - fv).abs() < 1e-9);
        }
    }

    #[test]
    fn tropical_power_is_k_hop_shortest_paths() {
        let sm = MinPlus::<f64>::new();
        let mut c = Coo::new(3, 3);
        c.extend([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 9.0)]);
        let a = c.build_dcsr(sm);
        let a2 = matrix_power_ctx(&OpCtx::new(), &a, 2, sm);
        assert_eq!(a2.get(0, 2), Some(&3.0));
    }

    #[test]
    fn boolean_power_is_exact_k_reachability() {
        let mut c = Coo::new(4, 4);
        for (x, y) in [(0u64, 1u64), (1, 2), (2, 3)] {
            c.push(x, y, true);
        }
        let a = c.build_dcsr(LorLand);
        assert_eq!(
            matrix_power_ctx(&OpCtx::new(), &a, 3, LorLand).get(0, 3),
            Some(&true)
        );
        assert_eq!(
            matrix_power_ctx(&OpCtx::new(), &a, 2, LorLand).get(0, 3),
            None
        );
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn zeroth_power_rejected() {
        let a = m(4, &[(0, 1, 1.0)]);
        let _ = matrix_power_ctx(&OpCtx::new(), &a, 0, s());
    }
}
