//! Thread-count invariance of the graph layer — the acceptance bar for
//! the direction-optimized kernels: BFS, PageRank, and SSSP results must
//! be byte-identical at every thread count.
//!
//! The graph entry points are ctx-free, so the thread cap is varied
//! through the thread-local default context. Every run at more than one
//! thread must fan out at least one kernel call (`fan_out=many`), so
//! each comparison is between sharded and unsharded runs.

use graph::bfs::{bfs_levels, bfs_parents};
use graph::cc::connected_components;
use graph::pagerank::{pagerank, PageRankOpts};
use graph::pattern::{pattern_u64, pattern_u8, symmetrize};
use graph::sssp::sssp;
use hypersparse::gen::{rmat_dcsr, RmatParams};
use hypersparse::{with_default_ctx, Decision};
use semiring::PlusTimes;

fn with_threads<R>(k: usize, f: impl FnOnce() -> R) -> R {
    with_default_ctx(|c| c.set_threads(k));
    let many = || with_default_ctx(|c| c.metrics().snapshot().decision(Decision::FanOutMany));
    let before = many();
    let r = f();
    assert_eq!(many() > before, k > 1, "fan_out=many iff {k} > 1");
    with_default_ctx(|c| c.set_threads(0)); // back to auto
    r
}

#[test]
fn bfs_pagerank_sssp_identical_at_any_thread_count() {
    // Big enough that BFS frontiers span multiple push segments and the
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

    let base_levels = with_threads(1, || bfs_levels(&pat8, src));
    let base_parents = with_threads(1, || bfs_parents(&pat64, src));
    let base_rank = with_threads(1, || pagerank(&g, PageRankOpts::default()));
    let base_dist = with_threads(1, || sssp(&g, src));
    assert!(base_levels.len() > 1, "source must reach something");

    for k in [2, 4, 8] {
        assert_eq!(
            with_threads(k, || bfs_levels(&pat8, src)),
            base_levels,
            "bfs_levels differs at {k} threads"
        );
        assert_eq!(
            with_threads(k, || bfs_parents(&pat64, src)),
            base_parents,
            "bfs_parents differs at {k} threads"
        );
        let rank = with_threads(k, || pagerank(&g, PageRankOpts::default()));
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
