//! Betweenness centrality in the language of linear algebra.
//!
//! Brandes' algorithm recast as vector–matrix products (the LAGraph
//! batched formulation, single-source form): the forward sweep counts
//! shortest paths per BFS level with `σ ← σ ⊕ (q ⊕.⊗ A)` over `+.×`; the
//! backward sweep accumulates dependencies per level with one `A ⊕.⊗ t`
//! per depth. A classical queue/stack Brandes implementation provides the
//! baseline for the duality check.

use std::collections::HashMap;

use hypersparse::ops::mxv::{mxv_opt_ctx, vxm_opt_ctx};
use hypersparse::{with_default_ctx, Dcsr, Ix, OpCtx, SparseVec};
use semiring::PlusTimes;

use crate::frontier::Visited;
use crate::Graph;

type S = PlusTimes<f64>;

fn s() -> S {
    PlusTimes::new()
}

/// Betweenness centrality contributions from the given `sources`
/// (unnormalized, directed interpretation — run on a symmetrized pattern
/// for the undirected variant). Weights are ignored.
///
/// Returns a dense score per compact vertex id.
pub fn betweenness(pat: &Dcsr<f64>, sources: &[Ix]) -> Vec<f64> {
    // Path counting needs unit weights regardless of how the pattern was
    // built (e.g. symmetrize sums parallel directions to 2.0).
    with_default_ctx(|ctx| betweenness_ctx(ctx, &Graph::new(&pat.pattern(1.0)), sources))
}

/// [`betweenness`] over a [`Graph`] through an explicit execution
/// context. The graph's values must all be 1.0: they multiply the path
/// counts.
pub fn betweenness_ctx(ctx: &OpCtx, g: &Graph<f64>, sources: &[Ix]) -> Vec<f64> {
    let pat = g.adjacency();
    let n = usize::try_from(pat.nrows()).expect("betweenness needs compact ids");
    let mut bc = vec![0.0f64; n];
    // One transpose serves every source: the pull option of the forward
    // masked sweeps and the push option of the backward mxv.
    let at = g.transpose(ctx);
    for &src in sources {
        // ---- forward: per-level frontiers with path counts σ ----
        let mut sigma: HashMap<Ix, f64> = HashMap::from([(src, 1.0)]);
        let mut visited = Visited::new(pat.nrows(), pat.nnz(), src, ());
        let mut levels: Vec<SparseVec<f64>> =
            vec![SparseVec::from_entries(pat.nrows(), vec![(src, 1.0)], s())];
        loop {
            let frontier = levels.last().expect("nonempty");
            // path counts into the next level, visited masked off
            // inside the kernel
            let next = vxm_opt_ctx(ctx, frontier, pat, Some(at), Some(visited.mask()), s());
            if next.is_empty() {
                break;
            }
            for (v, c) in next.iter() {
                sigma.insert(v, *c);
            }
            visited.absorb(next.indices(), vec![(); next.nnz()]);
            levels.push(next);
        }

        // ---- backward: dependency accumulation per level ----
        let mut delta: HashMap<Ix, f64> = HashMap::new();
        for d in (1..levels.len()).rev() {
            // t(w) = (1 + δ(w)) / σ(w) for w at depth d
            let deep = &levels[d];
            let t = SparseVec::from_entries(
                pat.nrows(),
                deep.iter()
                    .map(|(w, &sig)| (w, (1.0 + delta.get(&w).copied().unwrap_or(0.0)) / sig))
                    .collect(),
                s(),
            );
            // u(v) = Σ_w A(v, w) t(w) — one mxv per level
            let u = mxv_opt_ctx(ctx, pat, Some(at), &t, s());
            // δ(v) += σ(v) · u(v) for v at depth d−1
            for (v, &sig) in levels[d - 1].iter() {
                if let Some(uv) = u.get(&v) {
                    *delta.entry(v).or_insert(0.0) += sig * uv;
                }
            }
        }
        for (v, dv) in delta {
            if v != src {
                bc[v as usize] += dv;
            }
        }
    }
    bc
}

/// Classical Brandes (queue forward, stack backward) — the baseline side
/// of the duality.
pub fn betweenness_baseline(pat: &Dcsr<f64>, sources: &[Ix]) -> Vec<f64> {
    let n = usize::try_from(pat.nrows()).expect("baseline needs compact ids");
    let mut nbrs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (r, c, _) in pat.iter() {
        nbrs[r as usize].push(c as usize);
    }
    let mut bc = vec![0.0f64; n];
    for &src in sources {
        let src = src as usize;
        let mut sigma = vec![0.0f64; n];
        let mut dist = vec![i64::MAX; n];
        let mut order: Vec<usize> = Vec::new();
        sigma[src] = 1.0;
        dist[src] = 0;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &w in &nbrs[v] {
                if dist[w] == i64::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
                if dist[w] == dist[v] + 1 {
                    sigma[w] += sigma[v];
                }
            }
        }
        let mut delta = vec![0.0f64; n];
        for &v in order.iter().rev() {
            for &w in &nbrs[v] {
                if dist[w] == dist[v] + 1 {
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
                }
            }
            if v != src {
                bc[v] += delta[v];
            }
        }
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::symmetrize;
    use hypersparse::gen::random_pattern;
    use hypersparse::Coo;

    fn path4() -> Dcsr<f64> {
        // 0—1—2—3 undirected.
        let mut c = Coo::new(4, 4);
        for (a, b) in [(0u64, 1u64), (1, 2), (2, 3)] {
            c.push(a, b, 1.0);
            c.push(b, a, 1.0);
        }
        c.build_dcsr(s())
    }

    #[test]
    fn path_graph_hand_computed() {
        let g = path4();
        let all: Vec<Ix> = (0..4).collect();
        let bc = betweenness(&g, &all);
        // Undirected path: interior vertices lie on (1↔3 pairs each dir):
        // v1 is on 0-2, 0-3, (and reverses): dependency sums to 4 each.
        assert_eq!(bc, betweenness_baseline(&g, &all));
        assert!(bc[1] > bc[0] && bc[2] > bc[3]);
        assert_eq!(bc[0], 0.0);
    }

    #[test]
    fn star_center_dominates() {
        let mut c = Coo::new(6, 6);
        for leaf in 1..6u64 {
            c.push(0, leaf, 1.0);
            c.push(leaf, 0, 1.0);
        }
        let g = c.build_dcsr(s());
        let all: Vec<Ix> = (0..6).collect();
        let bc = betweenness(&g, &all);
        // Center lies on every leaf-to-leaf shortest path: 5·4 = 20.
        assert_eq!(bc[0], 20.0);
        assert!(bc[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn matches_baseline_on_random_graphs() {
        for seed in 0..4 {
            let g = symmetrize(&random_pattern(48, 48, 200, seed, s()), s());
            let sources: Vec<Ix> = (0..48).collect();
            let a = betweenness(&g, &sources);
            let b = betweenness_baseline(&g, &sources);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-9, "{x} vs {y} (seed {seed})");
            }
        }
    }

    #[test]
    fn subset_of_sources() {
        let g = path4();
        let bc = betweenness(&g, &[0]);
        assert_eq!(bc, betweenness_baseline(&g, &[0]));
        // From source 0 only: 1 is on paths to 2 and 3, 2 on path to 3.
        assert_eq!(bc[1], 2.0);
        assert_eq!(bc[2], 1.0);
    }

    #[test]
    fn disconnected_source_contributes_nothing() {
        let g = path4();
        // vertex set is 0..4; add an isolated id by enlarging the space
        let mut c = Coo::new(6, 6);
        for (r, col, v) in g.to_triplets() {
            c.push(r, col, v);
        }
        let g6 = c.build_dcsr(s());
        let bc = betweenness(&g6, &[5]);
        assert!(bc.iter().all(|&x| x == 0.0));
    }
}
