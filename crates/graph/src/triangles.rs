//! Triangle counting by a masked count (the "Sandia" LAGraph kernel).
//!
//! With `L` the strictly-lower-triangular part of a symmetric adjacency
//! pattern, `ntri = Σ ((L plus.pair L) ⊙ L)`: the product counts wedges
//! `i > k > j`, the mask keeps only wedges closed by an edge `i > j`, so
//! each triangle is counted exactly once.
//! [`hypersparse::ops::mxm_masked_count_ctx`] counts the closed wedges
//! without building the product and reads no value, so a weighted graph
//! counts as its pattern. [`edge_support`] needs each edge's count, so it
//! builds the masked product ([`hypersparse::ops::mxm_masked_ctx`]).

use hypersparse::{with_default_ctx, Dcsr, Ix, OpCtx};
use semiring::traits::Value;
use semiring::PlusTimes;

use crate::Graph;

/// Strictly-lower-triangular part of a pattern.
pub fn lower_triangle_ctx<T: Value>(ctx: &OpCtx, pat: &Dcsr<T>) -> Dcsr<T> {
    hypersparse::ops::select_ctx(ctx, pat, |r, c, _| c < r)
}

/// Count triangles in an undirected simple graph given as a symmetric
/// adjacency (weights are ignored: only stored positions count).
pub fn triangle_count(sym_pat: &Dcsr<f64>) -> u64 {
    with_default_ctx(|ctx| triangle_count_ctx(ctx, &Graph::new(sym_pat)))
}

/// [`triangle_count`] over a [`Graph`] through an explicit execution
/// context, whatever its values.
pub fn triangle_count_ctx<T: Value>(ctx: &OpCtx, g: &Graph<T>) -> u64 {
    let l = g.lower(ctx);
    hypersparse::ops::mxm_masked_count_ctx(ctx, l, l, l)
}

/// Per-edge triangle support (number of triangles through each edge of
/// the lower triangle) — the building block of k-truss. Weights are
/// ignored.
pub fn edge_support(sym_pat: &Dcsr<f64>) -> Dcsr<f64> {
    with_default_ctx(|ctx| edge_support_ctx(ctx, &Graph::new(&sym_pat.pattern(1.0))))
}

/// [`edge_support`] over a [`Graph`] through an explicit execution
/// context. The graph's values must all be 1.0: the support sums them.
pub fn edge_support_ctx(ctx: &OpCtx, g: &Graph<f64>) -> Dcsr<f64> {
    // support(i,j) = |N(i) ∩ N(j)| restricted to existing edges: use the
    // full symmetric pattern for wedge endpoints, masked by L. Edges in
    // no triangle produce no entry (support 0 is the semiring zero).
    let a = g.adjacency();
    hypersparse::ops::mxm_masked_ctx(ctx, a, a, g.lower(ctx), false, PlusTimes::new())
}

/// k-truss: the maximal subgraph in which every edge is supported by at
/// least `k − 2` triangles. Returns the surviving symmetric pattern, with
/// 1.0 at every entry.
pub fn ktruss(sym_pat: &Dcsr<f64>, k: u64) -> Dcsr<f64> {
    assert!(k >= 2, "k-truss defined for k ≥ 2");
    let mut g = sym_pat.pattern(1.0);
    if k == 2 {
        // Every edge trivially has ≥ 0 supporting triangles.
        return g;
    }
    let need = (k - 2) as f64;
    with_default_ctx(|ctx| loop {
        let sup = edge_support_ctx(ctx, &Graph::new(&g));
        // Keep lower-triangle edges with enough support…
        let keep = hypersparse::ops::select_ctx(ctx, &sup, |_, _, v| *v >= need);
        // …and rebuild the symmetric pattern from the survivors.
        let next = crate::pattern::symmetrize_ctx(ctx, &keep.pattern(1.0), PlusTimes::new());
        if next == g || next.nnz() == 0 {
            return next;
        }
        g = next;
    })
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
    fn ktruss_of_a_weighted_graph_is_its_pattern() {
        let k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let tailed = sym(&[&k4[..], &[(3, 4), (4, 5)]].concat(), 8).pattern(2.5);
        assert_eq!(ktruss(&tailed, 2), tailed.pattern(1.0));
        let want = sym(&k4, 8);
        assert_eq!(ktruss(&tailed, 3), want);
        assert_eq!(ktruss(&tailed, 4), want);
        // Nothing leaves a weighted K4 at k = 3: one support round.
        let masked = || {
            hypersparse::with_default_ctx(|c| {
                let snap = c.metrics().snapshot();
                snap.kernel(hypersparse::Kernel::MxmMasked).calls
            })
        };
        let before = masked();
        assert_eq!(ktruss(&want.pattern(2.5), 3), want);
        assert_eq!(masked() - before, 1);
    }

    #[test]
    fn ktruss_2_is_whole_graph() {
        let g = sym(&[(0, 1), (1, 2)], 4);
        assert_eq!(ktruss(&g, 2), g);
    }
}
