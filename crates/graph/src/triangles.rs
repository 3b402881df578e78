//! Triangle counting by masked SpGEMM (the "Sandia" LAGraph kernel).
//!
//! With `L` the strictly-lower-triangular part of a symmetric adjacency
//! pattern, `ntri = Σ ((L ⊕.⊗ L) ⊙ L)` over `+.×`: the product counts
//! wedges `i > k > j`, the mask keeps only wedges closed by an edge
//! `i > j`, so each triangle is counted exactly once. The fused mask
//! ([`hypersparse::ops::mxm_masked_ctx`]) is what makes this cheap.

use hypersparse::{Dcsr, Ix, OpCtx};
use semiring::{PlusMonoid, PlusTimes};

/// Strictly-lower-triangular part of a pattern.
pub fn lower_triangle(pat: &Dcsr<f64>) -> Dcsr<f64> {
    hypersparse::with_default_ctx(|ctx| lower_triangle_ctx(ctx, pat))
}

/// [`lower_triangle`] through an explicit execution context.
pub fn lower_triangle_ctx(ctx: &OpCtx, pat: &Dcsr<f64>) -> Dcsr<f64> {
    hypersparse::ops::select_ctx(ctx, pat, |r, c, _| c < r)
}

/// Count triangles in an undirected simple graph given as a symmetric
/// adjacency (weights are ignored — the pattern is normalized first).
pub fn triangle_count(sym_pat: &Dcsr<f64>) -> u64 {
    hypersparse::with_default_ctx(|ctx| triangle_count_ctx(ctx, sym_pat))
}

/// [`triangle_count`] through an explicit execution context.
pub fn triangle_count_ctx(ctx: &OpCtx, sym_pat: &Dcsr<f64>) -> u64 {
    let s = PlusTimes::<f64>::new();
    let sym_pat = hypersparse::ops::apply_ctx(ctx, sym_pat, semiring::ZeroNorm(s), s);
    let l = lower_triangle_ctx(ctx, &sym_pat);
    let closed = hypersparse::ops::mxm_masked_ctx(ctx, &l, &l, &l, false, s);
    hypersparse::ops::reduce_scalar_ctx(ctx, &closed, PlusMonoid::<f64>::default()) as u64
}

/// Per-edge triangle support (number of triangles through each edge of
/// the lower triangle) — the building block of k-truss.
pub fn edge_support(sym_pat: &Dcsr<f64>) -> Dcsr<f64> {
    let s = PlusTimes::<f64>::new();
    hypersparse::with_default_ctx(|ctx| {
        let sym_pat = hypersparse::ops::apply_ctx(ctx, sym_pat, semiring::ZeroNorm(s), s);
        let l = lower_triangle(&sym_pat);
        // support(i,j) = |N(i) ∩ N(j)| restricted to existing edges: use the
        // full symmetric pattern for wedge endpoints, masked by L. Edges in
        // no triangle produce no entry (support 0 is the semiring zero).
        hypersparse::ops::mxm_masked_ctx(ctx, &sym_pat, &sym_pat, &l, false, s)
    })
}

/// k-truss: the maximal subgraph in which every edge is supported by at
/// least `k − 2` triangles. Returns the surviving symmetric pattern.
pub fn ktruss(sym_pat: &Dcsr<f64>, k: u64) -> Dcsr<f64> {
    assert!(k >= 2, "k-truss defined for k ≥ 2");
    let s = PlusTimes::<f64>::new();
    if k == 2 {
        // Every edge trivially has ≥ 0 supporting triangles.
        return sym_pat.clone();
    }
    let need = (k - 2) as f64;
    let mut g = sym_pat.clone();
    loop {
        let sup = edge_support(&g);
        // Keep lower-triangle edges with enough support…
        let keep = hypersparse::with_default_ctx(|ctx| {
            hypersparse::ops::select_ctx(ctx, &sup, |_, _, v| *v >= need)
        });
        // …and rebuild the symmetric pattern from the survivors.
        let keep_pat = hypersparse::with_default_ctx(|ctx| {
            hypersparse::ops::apply_ctx(ctx, &keep, semiring::ZeroNorm(s), s)
        });
        let next = crate::pattern::symmetrize(&keep_pat, s);
        if next == g {
            return g;
        }
        if next.nnz() == 0 {
            return next;
        }
        g = next;
    }
}

/// Vertices of a pattern (sorted union of row and column support).
pub fn vertices(pat: &Dcsr<f64>) -> Vec<Ix> {
    let mut v: Vec<Ix> = pat.row_ids().to_vec();
    v.extend(pat.iter().map(|(_, c, _)| c));
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::symmetrize;
    use hypersparse::Coo;
    use semiring::PlusTimes;

    fn sym(edges: &[(Ix, Ix)], n: Ix) -> Dcsr<f64> {
        let mut c = Coo::new(n, n);
        for &(a, b) in edges {
            c.push(a, b, 1.0);
        }
        symmetrize(
            &c.build_dcsr(PlusTimes::<f64>::new()),
            PlusTimes::<f64>::new(),
        )
    }

    #[test]
    fn single_triangle() {
        let g = sym(&[(0, 1), (1, 2), (0, 2)], 4);
        assert_eq!(triangle_count(&g), 1);
    }

    #[test]
    fn triangle_free() {
        let g = sym(&[(0, 1), (1, 2), (2, 3)], 4);
        assert_eq!(triangle_count(&g), 0);
    }

    #[test]
    fn k4_has_four_triangles() {
        let g = sym(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4);
        assert_eq!(triangle_count(&g), 4);
    }

    #[test]
    fn two_disjoint_triangles() {
        let g = sym(&[(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6)], 8);
        assert_eq!(triangle_count(&g), 2);
    }

    #[test]
    fn ktruss_keeps_the_clique() {
        // K4 plus a pendant triangle-free tail.
        let g = sym(
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ],
            8,
        );
        let t3 = ktruss(&g, 3);
        // 3-truss: every edge in ≥1 triangle → exactly the K4.
        assert_eq!(vertices(&t3), vec![0, 1, 2, 3]);
        assert_eq!(t3.nnz(), 12); // 6 undirected edges, both directions
        let t4 = ktruss(&g, 4);
        assert_eq!(vertices(&t4), vec![0, 1, 2, 3]); // K4 is a 4-truss
        let t5 = ktruss(&g, 5);
        assert_eq!(t5.nnz(), 0); // nothing survives
    }

    #[test]
    fn ktruss_2_is_whole_graph() {
        let g = sym(&[(0, 1), (1, 2)], 4);
        assert_eq!(ktruss(&g, 2), g);
    }
}
