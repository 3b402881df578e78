//! Single-source shortest paths over the `min.+` tropical semiring.
//!
//! Bellman–Ford as iterated `vᵀA`: each sweep relaxes every edge once;
//! convergence (no distance improves) ends the loop. The semiring *is*
//! the algorithm — swapping Table I rows turns the same loop into
//! longest-path (`max.+`), widest-path (`max.min`), or most-reliable-path
//! (`max.×`) solvers, which [`sssp_generic_ctx`] exposes.

use hypersparse::ops::mxv::vxm_opt_ctx;
use hypersparse::{with_default_ctx, Dcsr, Ix, OpCtx, SparseVec};
use semiring::traits::Semiring;
use semiring::MinPlus;

use crate::Graph;

/// Shortest distances from `src` over non-negative (or any cycle-safe)
/// weights. Returns `(vertex, distance)` sorted by vertex; unreachable
/// vertices are absent; `src` has distance 0.
pub fn sssp(w: &Dcsr<f64>, src: Ix) -> Vec<(Ix, f64)> {
    with_default_ctx(|ctx| sssp_generic_ctx(ctx, &Graph::new(w), src, MinPlus::<f64>::new()))
}

/// Bellman–Ford over any path semiring on a weighted [`Graph`], through
/// an explicit execution context: distances combine along a path with ⊗
/// and across paths with ⊕; the source starts at the semiring `1` (the
/// "empty path" value).
pub fn sssp_generic_ctx<S: Semiring<Value = f64>>(
    ctx: &OpCtx,
    g: &Graph<f64>,
    src: Ix,
    s: S,
) -> Vec<(Ix, f64)> {
    let w = g.adjacency();
    let mut dist = SparseVec::from_entries(w.nrows(), vec![(src, s.one())], s);
    // At most |V|−1 sweeps; stop early on fixpoint.
    let max_sweeps = (w.n_nonempty_rows() + 1).max(2);
    // Every sweep pushes the whole (only growing) distance vector, so the
    // pushes soon reach `nnz` edges; from then on, once the vector is
    // dense enough to favor pulling, the graph builds the transpose and
    // keeps it for all remaining sweeps. ⊕ = min/max is grouping-exact:
    // either direction and any thread count produce bit-identical
    // distances.
    for _ in 0..max_sweeps {
        let relax = vxm_opt_ctx(ctx, &dist, w, g.transpose_for(ctx, &dist), None, s);
        let next = dist.ewise_add(&relax, s);
        if next == dist {
            break;
        }
        dist = next;
    }
    dist.iter().map(|(v, d)| (v, *d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersparse::Coo;
    use semiring::{MaxMin, MaxTimes, MinPlus};

    fn mk(edges: &[(Ix, Ix, f64)], n: Ix) -> Dcsr<f64> {
        let mut c = Coo::new(n, n);
        c.extend(edges.iter().copied());
        c.build_dcsr(MinPlus::<f64>::new())
    }

    #[test]
    fn shortest_path_with_detour() {
        // 0→1 (1), 1→2 (1), 0→2 (5): best 0→2 is 2 via 1.
        let g = mk(&[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)], 4);
        let d = sssp(&g, 0);
        assert_eq!(d, vec![(0, 0.0), (1, 1.0), (2, 2.0)]);
    }

    #[test]
    fn cycle_converges() {
        let g = mk(&[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], 3);
        let d = sssp(&g, 0);
        assert_eq!(d, vec![(0, 0.0), (1, 1.0), (2, 2.0)]);
    }

    #[test]
    fn unreachable_absent() {
        let g = mk(&[(0, 1, 1.0), (2, 3, 1.0)], 4);
        let d = sssp(&g, 0);
        assert_eq!(d, vec![(0, 0.0), (1, 1.0)]);
    }

    #[test]
    fn widest_path_semiring() {
        // Bottleneck: 0→1→2 has min-capacity 3; direct 0→2 capacity 2.
        let mut c = Coo::new(3, 3);
        c.extend([(0, 1, 3.0), (1, 2, 5.0), (0, 2, 2.0)]);
        let g = c.build_dcsr(MaxMin::<f64>::new());
        let d =
            with_default_ctx(|ctx| sssp_generic_ctx(ctx, &Graph::new(&g), 0, MaxMin::<f64>::new()));
        let to2 = d.iter().find(|&&(v, _)| v == 2).unwrap().1;
        assert_eq!(to2, 3.0);
    }

    #[test]
    fn most_reliable_path_semiring() {
        // Probabilities multiply; best path maximizes the product.
        let mut c = Coo::new(3, 3);
        c.extend([(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.5)]);
        let g = c.build_dcsr(MaxTimes::<f64>::new());
        let d = with_default_ctx(|ctx| {
            sssp_generic_ctx(ctx, &Graph::new(&g), 0, MaxTimes::<f64>::new())
        });
        let to2 = d.iter().find(|&&(v, _)| v == 2).unwrap().1;
        assert!((to2 - 0.81).abs() < 1e-12);
    }
}
