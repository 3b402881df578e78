//! PageRank as plus-times power iteration.
//!
//! The rank update `r ← (1−d)/n + d · (rᵀ P + dangling/n)` is a `vᵀA`
//! over the ordinary arithmetic semiring with a rank-one correction — a
//! purely linear-algebraic loop over the hypersparse engine. Vertex ids
//! must be compact (`n` is materialized as the rank vector's length).

use hypersparse::ops::mxv::vxm_dense_ctx;
use hypersparse::ops::topk;
use hypersparse::{with_default_ctx, Dcsr, Ix, Kernel, OpCtx};
use semiring::PlusTimes;

use crate::Graph;

/// PageRank options.
#[derive(Copy, Clone, Debug)]
pub struct PageRankOpts {
    /// Damping factor (probability of following a link).
    pub damping: f64,
    /// Convergence threshold on the L1 change per iteration.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for PageRankOpts {
    fn default() -> Self {
        PageRankOpts {
            damping: 0.85,
            tol: 1e-9,
            max_iter: 100,
        }
    }
}

/// PageRank over a (possibly weighted — weights are ignored) digraph
/// pattern with compact vertex ids `0..n`. Returns the rank vector.
pub fn pagerank(pat: &Dcsr<f64>, opts: PageRankOpts) -> Vec<f64> {
    with_default_ctx(|ctx| pagerank_ctx(ctx, &Graph::new(&pat.pattern(1.0)), opts))
}

/// [`pagerank`] over a [`Graph`] through an explicit execution context.
/// The graph's values must all be 1.0: the rank push multiplies by them.
pub fn pagerank_ctx(ctx: &OpCtx, g: &Graph<f64>, opts: PageRankOpts) -> Vec<f64> {
    let pat = g.adjacency();
    let n = usize::try_from(pat.nrows()).expect("pagerank needs compact vertex ids");
    if n == 0 {
        assert_eq!(pat.nrows(), pat.ncols(), "adjacency must be square");
        return Vec::new();
    }
    let seed = vec![1.0 / n as f64; n];
    power_iterate(ctx, g, seed, opts).0
}

/// PageRank refresh seeded from a prior rank vector.
///
/// Power iteration converges from any probability-vector seed; after a
/// small batch of new edges the stationary distribution moves little, so
/// seeding from the previous epoch's ranks reaches `opts.tol` in a
/// fraction of the iterations a cold uniform start needs. The prior is
/// padded/truncated to the current vertex count and re-normalized (a
/// uniform seed is substituted if nothing positive survives), so the
/// result is a genuine PageRank vector of the *current* pattern — the
/// seed only buys speed, never changes the fixed point beyond `tol`.
/// Cost lands in the [`Kernel::PageRankRefresh`] metrics row.
pub fn pagerank_refresh(pat: &Dcsr<f64>, prior: &[f64], opts: PageRankOpts) -> Vec<f64> {
    with_default_ctx(|ctx| pagerank_refresh_ctx(ctx, &Graph::new(&pat.pattern(1.0)), prior, opts))
}

/// [`pagerank_refresh`] over a [`Graph`] through an explicit execution
/// context. The graph's values must all be 1.0, as for [`pagerank_ctx`].
pub fn pagerank_refresh_ctx(
    ctx: &OpCtx,
    g: &Graph<f64>,
    prior: &[f64],
    opts: PageRankOpts,
) -> Vec<f64> {
    let pat = g.adjacency();
    let n = usize::try_from(pat.nrows()).expect("pagerank needs compact vertex ids");
    if n == 0 {
        assert_eq!(pat.nrows(), pat.ncols(), "adjacency must be square");
        return Vec::new();
    }
    let run = ctx.kernel(Kernel::PageRankRefresh, || {
        format!("{n}×{n}, {} nnz, warm", pat.nnz())
    });
    let mut seed = vec![0.0f64; n];
    for (dst, src) in seed.iter_mut().zip(prior) {
        *dst = src.max(0.0);
    }
    let l1: f64 = seed.iter().sum();
    if l1 > 0.0 {
        seed.iter_mut().for_each(|x| *x /= l1);
    } else {
        seed.fill(1.0 / n as f64);
    }
    let (rank, iters) = power_iterate(ctx, g, seed, opts);
    run.done(
        pat.nnz() as u64,
        n as u64,
        iters as u64 * pat.nnz() as u64,
        (n * std::mem::size_of::<f64>()) as u64,
    );
    rank
}

/// Shared power-iteration core. Returns the converged rank vector and
/// the number of iterations run.
fn power_iterate(
    ctx: &OpCtx,
    g: &Graph<f64>,
    seed: Vec<f64>,
    opts: PageRankOpts,
) -> (Vec<f64>, usize) {
    let n = seed.len();
    let pat = g.adjacency();
    assert_eq!(pat.nrows(), pat.ncols(), "adjacency must be square");
    let d = opts.damping;
    let base = (1.0 - d) / n as f64;
    let outdeg = g.out_degrees();

    let s = PlusTimes::<f64>::new();
    let mut rank = seed;
    let mut next = vec![0.0f64; n];
    let mut scaled = vec![0.0f64; n];
    let mut iters = 0usize;
    for _ in 0..opts.max_iter {
        iters += 1;
        // Dangling vertices spread their rank uniformly.
        let dangling: f64 = (0..n).filter(|&v| outdeg[v] == 0).map(|v| rank[v]).sum();
        let spread = d * dangling / n as f64;
        next.iter_mut().for_each(|x| *x = base + spread);
        // next ← next + scaledᵀ · pattern, pushed along out-edges in
        // source order: the f64 additions of the row-major edge loop, so
        // the ranks match it bit for bit at every thread cap.
        for v in 0..n {
            scaled[v] = if outdeg[v] == 0 {
                0.0
            } else {
                d * rank[v] / outdeg[v] as f64
            };
        }
        vxm_dense_ctx(ctx, &scaled, pat, &mut next, s);
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < opts.tol {
            break;
        }
    }
    (rank, iters)
}

/// The `k` highest-ranked vertices as `(vertex, rank)`, descending, ties
/// to the lower id and NaN ranks last — the total order of
/// [`topk::rank`], so a NaN rank cannot panic the sort.
pub fn top_k(rank: &[f64], k: usize) -> Vec<(Ix, f64)> {
    let mut ranked: Vec<(Ix, f64)> = (0..).zip(rank.iter().copied()).collect();
    ranked.sort_by(topk::rank);
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersparse::Coo;
    use semiring::PlusTimes;

    fn mk(edges: &[(Ix, Ix)], n: Ix) -> Dcsr<f64> {
        let mut c = Coo::new(n, n);
        for &(a, b) in edges {
            c.push(a, b, 1.0);
        }
        c.build_dcsr(PlusTimes::<f64>::new())
    }

    #[test]
    fn ranks_sum_to_one() {
        let g = mk(&[(0, 1), (1, 2), (2, 0), (2, 1)], 3);
        let r = pagerank(&g, PageRankOpts::default());
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn sink_absorbs_rank() {
        // Star into vertex 3 (a dangling sink): it must rank highest.
        let g = mk(&[(0, 3), (1, 3), (2, 3)], 4);
        let r = pagerank(&g, PageRankOpts::default());
        let top = top_k(&r, 1)[0].0;
        assert_eq!(top, 3);
    }

    #[test]
    fn top_k_ranks_nan_last_instead_of_panicking() {
        let r = [0.2, f64::NAN, 0.5, 0.2, f64::NAN];
        let top = top_k(&r, 4);
        assert_eq!(&top[..3], &[(2, 0.5), (0, 0.2), (3, 0.2)]);
        assert_eq!(top[3].0, 1);
        assert!(top[3].1.is_nan());
        assert_eq!(top_k(&r, 9).len(), 5);
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let g = mk(&[(0, 1), (1, 2), (2, 0)], 3);
        let r = pagerank(&g, PageRankOpts::default());
        for v in &r {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_graph() {
        let g = Dcsr::<f64>::empty(0, 0);
        assert!(pagerank(&g, PageRankOpts::default()).is_empty());
        assert!(pagerank_refresh(&g, &[], PageRankOpts::default()).is_empty());
    }

    #[test]
    fn refresh_agrees_with_scratch_after_edge_batch() {
        let opts = PageRankOpts::default();
        let old = mk(&[(0, 1), (1, 2), (2, 0), (2, 1)], 5);
        let prior = pagerank(&old, opts);
        // A batch of new edges lands; refresh from the stale ranks.
        let new = mk(&[(0, 1), (1, 2), (2, 0), (2, 1), (3, 4), (4, 0), (0, 3)], 5);
        let scratch = pagerank(&new, opts);
        let refreshed = pagerank_refresh(&new, &prior, opts);
        for (a, b) in scratch.iter().zip(&refreshed) {
            assert!((a - b).abs() < 1e-7, "scratch {a} vs refresh {b}");
        }
        let sum: f64 = refreshed.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_prior_falls_back_to_uniform() {
        let opts = PageRankOpts::default();
        let g = mk(&[(0, 1), (1, 2), (2, 0)], 3);
        // Empty, short, and all-negative priors all converge to the same
        // fixed point as a cold start.
        let cold = pagerank(&g, opts);
        for prior in [&[][..], &[0.5][..], &[-1.0, -2.0, -3.0][..]] {
            let r = pagerank_refresh(&g, prior, opts);
            for (a, b) in cold.iter().zip(&r) {
                assert!((a - b).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn refresh_cost_lands_in_kernel_metrics() {
        let ctx = hypersparse::OpCtx::new();
        let g = mk(&[(0, 1), (1, 0)], 2);
        let prior = pagerank(&g, PageRankOpts::default());
        let _ = pagerank_refresh_ctx(&ctx, &Graph::new(&g), &prior, PageRankOpts::default());
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.kernel(Kernel::PageRankRefresh).calls, 1);
        assert!(snap.kernel(Kernel::PageRankRefresh).nnz_in >= 2);
    }
}
