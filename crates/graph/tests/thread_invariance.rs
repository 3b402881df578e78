//! Thread-count invariance of the graph layer — the acceptance bar for
//! the direction-optimized kernels: BFS, PageRank, and SSSP results must
//! be byte-identical at every thread count.
//!
//! The graph entry points are ctx-free, so the thread cap is varied
//! through the thread-local default context. Every SSSP, components and
//! triangle run at more than one thread must fan out at least one kernel
//! call (`fan_out=many`), so each comparison is between sharded and
//! unsharded runs. A one-shot BFS pushes every level and PageRank pushes
//! every iteration, and a push runs on one thread at any cap, so those
//! two must not fan out: their comparison is between caps. A reused
//! `Graph` buys `Aᵀ` and pulls its wide levels, which shard.

use graph::bfs::{bfs_levels, bfs_parents, bfs_parents_ctx};
use graph::cc::connected_components;
use graph::pagerank::{pagerank, PageRankOpts};
use graph::pattern::{pattern_u64, pattern_u8, symmetrize};
use graph::sssp::sssp;
use graph::Graph;
use hypersparse::gen::{rmat_dcsr, RmatParams};
use hypersparse::{with_default_ctx, Decision, Kernel, OpCtx};
use semiring::PlusTimes;

/// `f` at a thread cap of `k` on the default context, and whether it
/// fanned a kernel call out.
fn at_threads<R>(k: usize, f: impl FnOnce() -> R) -> (R, bool) {
    with_default_ctx(|c| c.set_threads(k));
    let many = || with_default_ctx(|c| c.metrics().snapshot().decision(Decision::FanOutMany));
    let before = many();
    let r = f();
    let fanned = many() > before;
    with_default_ctx(|c| c.set_threads(0)); // back to auto
    (r, fanned)
}

/// `f` at a cap of `k`, which must fan out iff `k > 1`.
fn with_threads<R>(k: usize, f: impl FnOnce() -> R) -> R {
    let (r, fanned) = at_threads(k, f);
    assert_eq!(fanned, k > 1, "fan_out=many iff {k} > 1");
    r
}

/// `what` at a cap of `k`: it only pushes, so it must not fan out.
fn pushed<R>(k: usize, what: &str, f: impl FnOnce() -> R) -> R {
    let (r, fanned) = at_threads(k, f);
    assert!(!fanned, "{what} counted fan_out=many at {k} threads");
    r
}

#[test]
fn bfs_pagerank_sssp_identical_at_any_thread_count() {
    // Big enough that BFS frontiers run to thousands of vertices and the
    // pull side shards: scale 12 × 16 ≈ 51k edges over 4096 vertices,
    // past two chunks of work.
    let g = rmat_dcsr(
        RmatParams {
            scale: 12,
            edge_factor: 16,
            ..Default::default()
        },
        7,
        PlusTimes::<f64>::new(),
    );
    let src = g.row_ids()[0];
    let pat8 = pattern_u8(&g);
    let pat64 = pattern_u64(&g);

    let base_levels = pushed(1, "a one-shot BFS", || bfs_levels(&pat8, src));
    let base_parents = pushed(1, "a one-shot BFS", || bfs_parents(&pat64, src));
    let base_rank = pushed(1, "PageRank", || pagerank(&g, PageRankOpts::default()));
    let base_dist = with_threads(1, || sssp(&g, src));
    assert!(base_levels.len() > 1, "source must reach something");

    for k in [2, 4, 8] {
        assert_eq!(
            pushed(k, "a one-shot BFS", || bfs_levels(&pat8, src)),
            base_levels,
            "bfs_levels differs at {k} threads"
        );
        assert_eq!(
            pushed(k, "a one-shot BFS", || bfs_parents(&pat64, src)),
            base_parents,
            "bfs_parents differs at {k} threads"
        );
        let rank = pushed(k, "PageRank", || pagerank(&g, PageRankOpts::default()));
        assert!(
            rank.len() == base_rank.len()
                && rank
                    .iter()
                    .zip(&base_rank)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
            "pagerank differs at {k} threads"
        );
        let dist = with_threads(k, || sssp(&g, src));
        assert!(
            dist.len() == base_dist.len()
                && dist
                    .iter()
                    .zip(&base_dist)
                    .all(|((v, d), (bv, bd))| v == bv && d.to_bits() == bd.to_bits()),
            "sssp differs at {k} threads"
        );
    }
}

#[test]
fn reused_graph_bfs_identical_at_any_thread_count() {
    // One `Graph` serves every traversal: once its pushes have touched
    // `nnz` edges it builds `Aᵀ`, and from then on its wide levels pull
    // (≈ 51k edges, past two chunks of work), sharded at a cap above one.
    let g = rmat_dcsr(
        RmatParams {
            scale: 12,
            edge_factor: 16,
            ..Default::default()
        },
        7,
        PlusTimes::<f64>::new(),
    );
    let pat = pattern_u64(&g);
    let src = pat.row_ids()[0];
    let graph = Graph::new(&pat);
    let seq = OpCtx::new().with_threads(1);
    let pushed = bfs_parents_ctx(&seq, &graph, src);
    for _ in 0..4 {
        if seq.metrics().snapshot().kernel(Kernel::Transpose).calls > 0 {
            break;
        }
        assert_eq!(bfs_parents_ctx(&seq, &graph, src), pushed);
    }
    assert_eq!(seq.metrics().snapshot().kernel(Kernel::Transpose).calls, 1);
    let base = bfs_parents_ctx(&seq, &graph, src);
    assert_eq!(base, pushed, "a pulling BFS differs from the pushing one");
    for k in [2, 4, 8] {
        let ctx = OpCtx::new().with_threads(k);
        assert_eq!(
            bfs_parents_ctx(&ctx, &graph, src),
            base,
            "reused-graph bfs_parents differs at {k} threads"
        );
        let snap = ctx.metrics().snapshot();
        assert!(snap.mv_pull_calls > 0, "no level pulled at {k} threads");
        assert!(
            snap.decision(Decision::FanOutMany) > 0,
            "no pulled level sharded at {k} threads"
        );
    }
}

#[test]
fn triangle_counts_identical_at_any_thread_count() {
    // triangle_count / edge_support run on the masked SpGEMM, which
    // shards by row once its ⊗ count reaches two chunks of work.
    let g = symmetrize(
        &rmat_dcsr(
            RmatParams {
                scale: 12,
                edge_factor: 8,
                ..Default::default()
            },
            11,
            PlusTimes::<f64>::new(),
        ),
        PlusTimes::<f64>::new(),
    );
    let base_count = with_threads(1, || graph::triangles::triangle_count(&g));
    let base_support = with_threads(1, || graph::triangles::edge_support(&g));
    assert!(base_count > 0, "rmat graph must close some triangles");
    for k in [2, 4, 8] {
        assert_eq!(
            with_threads(k, || graph::triangles::triangle_count(&g)),
            base_count,
            "triangle_count differs at {k} threads"
        );
        assert_eq!(
            with_threads(k, || graph::triangles::edge_support(&g)),
            base_support,
            "edge_support differs at {k} threads"
        );
    }
}

#[test]
fn connected_components_identical_at_any_thread_count() {
    // ≈ 53k symmetric edges: each label sweep carries two chunks of work.
    let g = symmetrize(
        &rmat_dcsr(
            RmatParams {
                scale: 12,
                edge_factor: 8,
                ..Default::default()
            },
            3,
            PlusTimes::<f64>::new(),
        ),
        PlusTimes::<f64>::new(),
    );
    let pat = pattern_u64(&g);
    let base = with_threads(1, || connected_components(&pat));
    for k in [2, 4, 8] {
        assert_eq!(
            with_threads(k, || connected_components(&pat)),
            base,
            "cc differs at {k} threads"
        );
    }
}

#[test]
fn msbfs_levels_identical_at_any_thread_count() {
    // Every level is one complement-masked SpGEMM (frontier ⊕.⊗ A under
    // ¬visited); from 600 sources some level carries two chunks of work.
    let g = rmat_dcsr(
        RmatParams {
            scale: 10,
            edge_factor: 8,
            ..Default::default()
        },
        5,
        PlusTimes::<f64>::new(),
    );
    let pat = pattern_u8(&g);
    let sources: Vec<_> = (0..600).collect();
    let base = with_threads(1, || graph::msbfs::msbfs_levels(&pat, &sources));
    assert!(
        base.nnz() > sources.len(),
        "searches must reach past their sources"
    );
    assert_eq!(
        graph::msbfs::level_of(&base, 0, 0),
        Some(0),
        "a source is at level 0"
    );
    for k in [2, 4, 8] {
        assert_eq!(
            with_threads(k, || graph::msbfs::msbfs_levels(&pat, &sources)),
            base,
            "msbfs_levels differs at {k} threads"
        );
    }
}
