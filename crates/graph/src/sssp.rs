//! Single-source shortest paths over the `min.+` tropical semiring.
//!
//! Bellman–Ford as iterated `vᵀA`: each sweep relaxes every edge once;
//! convergence (no distance improves) ends the loop. The semiring *is*
//! the algorithm — swapping Table I rows turns the same loop into
//! longest-path (`max.+`), widest-path (`max.min`), or most-reliable-path
//! (`max.×`) solvers, which [`sssp_generic`] exposes.

use hypersparse::ops::mxv::{choose_direction, vxm_opt_ctx};
use hypersparse::ops::transpose_ctx;
use hypersparse::{with_default_ctx, Dcsr, Direction, Ix, SparseVec};
use semiring::traits::Semiring;
use semiring::MinPlus;

/// Shortest distances from `src` over non-negative (or any cycle-safe)
/// weights. Returns `(vertex, distance)` sorted by vertex; unreachable
/// vertices are absent; `src` has distance 0.
pub fn sssp(w: &Dcsr<f64>, src: Ix) -> Vec<(Ix, f64)> {
    sssp_generic(w, src, MinPlus::<f64>::new())
}

/// Bellman–Ford over any path semiring: distances combine along a path
/// with ⊗ and across paths with ⊕; the source starts at the semiring `1`
/// (the "empty path" value).
pub fn sssp_generic<S: Semiring<Value = f64>>(w: &Dcsr<f64>, src: Ix, s: S) -> Vec<(Ix, f64)> {
    let n = w.nrows();
    let mut dist = SparseVec::from_entries(n, vec![(src, s.one())], s);
    // At most |V|−1 sweeps; stop early on fixpoint.
    let max_sweeps = (w.n_nonempty_rows() + 1).max(2);
    // The distance vector only grows, so once it is dense enough to
    // favor pulling, build the transpose and keep it for all remaining
    // sweeps. ⊕ = min/max is grouping-exact: either direction and any
    // thread count produce bit-identical distances.
    let mut at: Option<Dcsr<f64>> = None;
    with_default_ctx(|ctx| {
        for _ in 0..max_sweeps {
            if at.is_none() && choose_direction(&dist, w, true) == Direction::Pull {
                at = Some(transpose_ctx(ctx, w));
            }
            let relax = vxm_opt_ctx(ctx, &dist, w, at.as_ref(), None, s);
            let next = dist.ewise_add(&relax, s);
            if next == dist {
                break;
            }
            dist = next;
        }
    });
    dist.iter().map(|(v, d)| (v, *d)).collect()
}

/// Shortest paths with predecessor tracking: returns
/// `(vertex, distance, predecessor)` for every reached vertex, such that
/// following predecessors from any vertex walks an optimal path back to
/// `src` (`src` is its own predecessor). Deterministic: among equal-cost
/// predecessors the smallest vertex id wins.
pub fn sssp_parents(w: &Dcsr<f64>, src: Ix) -> Vec<(Ix, f64, Ix)> {
    let s = MinPlus::<f64>::new();
    let dist_map: std::collections::HashMap<Ix, f64> = sssp(w, src).into_iter().collect();
    let mut out = Vec::with_capacity(dist_map.len());
    for (&v, &d) in &dist_map {
        if v == src {
            out.push((v, d, v));
            continue;
        }
        // Predecessor: any u with dist(u) ⊗ w(u,v) = dist(v); min id.
        let mut best: Option<Ix> = None;
        for (&u, &du) in &dist_map {
            if let Some(wuv) = w.get(u, v) {
                if (s.mul(du, *wuv) - d).abs() < 1e-12 && best.is_none_or(|b| u < b) {
                    best = Some(u);
                }
            }
        }
        out.push((v, d, best.expect("reached vertex has a predecessor")));
    }
    out.sort_by_key(|e| e.0);
    out
}

/// Reconstruct the optimal path `src → dst` from an [`sssp_parents`]
/// result (`None` if `dst` was not reached).
pub fn path_to(parents: &[(Ix, f64, Ix)], src: Ix, dst: Ix) -> Option<Vec<Ix>> {
    let by_v: std::collections::HashMap<Ix, Ix> = parents.iter().map(|&(v, _, p)| (v, p)).collect();
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = *by_v.get(&cur)?;
        path.push(cur);
        if path.len() > by_v.len() + 1 {
            return None; // corrupted parents would loop forever
        }
    }
    path.reverse();
    Some(path)
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
    fn parents_walk_optimal_paths() {
        let g = mk(&[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0), (2, 3, 1.0)], 4);
        let parents = sssp_parents(&g, 0);
        let path = path_to(&parents, 0, 3).unwrap();
        assert_eq!(path, vec![0, 1, 2, 3]);
        // Path cost equals the reported distance.
        let cost: f64 = path.windows(2).map(|w| *g.get(w[0], w[1]).unwrap()).sum();
        let d3 = parents.iter().find(|&&(v, _, _)| v == 3).unwrap().1;
        assert_eq!(cost, d3);
    }

    #[test]
    fn path_to_unreachable_is_none() {
        let g = mk(&[(0, 1, 1.0), (2, 3, 1.0)], 4);
        let parents = sssp_parents(&g, 0);
        assert!(path_to(&parents, 0, 3).is_none());
        assert_eq!(path_to(&parents, 0, 0), Some(vec![0]));
    }

    #[test]
    fn parents_on_random_graphs_are_consistent() {
        use crate::baseline::{dijkstra, AdjList};
        use hypersparse::gen::random_dcsr;
        for seed in 0..3 {
            let g = random_dcsr(32, 32, 120, seed, MinPlus::<f64>::new());
            let parents = sssp_parents(&g, 0);
            let d = dijkstra(&AdjList::from_weighted(&g), 0);
            for &(v, dist, pred) in &parents {
                assert!((dist - d[v as usize]).abs() < 1e-9);
                if v != 0 {
                    // predecessor edge closes the optimal distance
                    let w = g.get(pred, v).unwrap();
                    assert!((d[pred as usize] + w - dist).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn widest_path_semiring() {
        // Bottleneck: 0→1→2 has min-capacity 3; direct 0→2 capacity 2.
        let mut c = Coo::new(3, 3);
        c.extend([(0, 1, 3.0), (1, 2, 5.0), (0, 2, 2.0)]);
        let g = c.build_dcsr(MaxMin::<f64>::new());
        let d = sssp_generic(&g, 0, MaxMin::<f64>::new());
        let to2 = d.iter().find(|&&(v, _)| v == 2).unwrap().1;
        assert_eq!(to2, 3.0);
    }

    #[test]
    fn most_reliable_path_semiring() {
        // Probabilities multiply; best path maximizes the product.
        let mut c = Coo::new(3, 3);
        c.extend([(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.5)]);
        let g = c.build_dcsr(MaxTimes::<f64>::new());
        let d = sssp_generic(&g, 0, MaxTimes::<f64>::new());
        let to2 = d.iter().find(|&&(v, _)| v == 2).unwrap().1;
        assert!((to2 - 0.81).abs() < 1e-12);
    }
}
