//! The traversal state against an oracle.
//!
//! Every BFS keeps its visited set as a bitmap over a compact vertex
//! space or as sorted ids over a wide one (`hypersparse::ops::compact`),
//! with the payloads beside it. Whichever form a graph gets,
//! `bfs_levels`, `bfs_parents` and the two-step parent BFS must equal
//! the queue BFS's levels and, as parent, the smallest-id predecessor
//! one level up — on random digraphs over `0..N` and on the same
//! digraphs spread over a 2⁴⁰-wide space, at 1/2/4/8 threads, on a
//! `Graph` reused across sources so the later traversals also pull.
//!
//! A fixed input pins the transpose's break-even rule: a `Graph` reused
//! for three traversals counts the same `graph_transpose` decisions.

use graph::baseline::{bfs_queue, AdjList};
use graph::bfs::{bfs_levels_ctx, bfs_parents_ctx, parent_bfs_two_step_ctx};
use graph::pattern::{pattern_u64, pattern_u8};
use graph::Graph;
use hypersparse::gen::{rmat_dcsr, RmatParams};
use hypersparse::ops::compact;
use hypersparse::{Coo, Dcsr, Decision, Ix, OpCtx};
use proptest::prelude::*;
use semiring::{MinFirst, PlusTimes};

const N: Ix = 48;
/// Vertex `v` of the compact graph is vertex `v · STRIDE` of the wide one.
const STRIDE: Ix = 1 << 34;

fn edges() -> impl Strategy<Value = Vec<(Ix, Ix)>> {
    proptest::collection::vec((0..N, 0..N), 0..160)
}

/// The digraph over `dim` vertices with vertex `v` at id `v · stride`.
fn digraph(e: &[(Ix, Ix)], dim: Ix, stride: Ix) -> Dcsr<f64> {
    let mut c = Coo::new(dim, dim);
    c.extend(e.iter().map(|&(a, b)| (a * stride, b * stride, 1.0)));
    c.build_dcsr(PlusTimes::<f64>::new())
}

/// `(vertex, level)` and `(vertex, parent)` in vertex order.
type Levels = Vec<(Ix, u32)>;
type Parents = Vec<(Ix, Ix)>;

/// Queue-BFS levels and, per reached vertex, its smallest-id
/// predecessor one level up (`src` its own), in vertex order.
fn oracle(g: &Dcsr<f64>, src: Ix) -> (Levels, Parents) {
    let level = bfs_queue(&AdjList::from_pattern(g), src);
    let mut parent: Vec<Option<Ix>> = vec![None; N as usize];
    parent[src as usize] = Some(src);
    for (u, v, _) in g.iter() {
        let (lu, lv) = (level[u as usize], level[v as usize]);
        if lu != u32::MAX && lv == lu + 1 && parent[v as usize].is_none_or(|p| u < p) {
            parent[v as usize] = Some(u);
        }
    }
    let reached = (0..N).filter(|&v| level[v as usize] != u32::MAX);
    let levels = reached.clone().map(|v| (v, level[v as usize])).collect();
    let parents = reached
        .map(|v| (v, parent[v as usize].expect("reached")))
        .collect();
    (levels, parents)
}

/// The three traversals from each of three sources on one reused
/// `Graph` per pattern, ids scaled back by `stride`; and whether every
/// masked product saw the bitmap form.
type Run = (Vec<Levels>, Vec<Parents>, Vec<Parents>, bool);

fn traverse_all(ctx: &OpCtx, g: &Dcsr<f64>, stride: Ix, sources: &[Ix]) -> Run {
    let (p8, p64) = (pattern_u8(g), pattern_u64(g));
    let (g8, g64) = (Graph::new(&p8), Graph::new(&p64));
    let back = |v: Ix| v / stride;
    let (mut levels, mut parents, mut two_step) = (Vec::new(), Vec::new(), Vec::new());
    for &src in sources {
        let s = src * stride;
        let l = bfs_levels_ctx(ctx, &g8, s);
        levels.push(l.into_iter().map(|(v, d)| (back(v), d)).collect());
        let p = bfs_parents_ctx(ctx, &g64, s);
        parents.push(p.into_iter().map(|(v, u)| (back(v), back(u))).collect());
        let t = parent_bfs_two_step_ctx(ctx, &g64, s, MinFirst);
        two_step.push(t.into_iter().map(|(v, u)| (back(v), back(u - 1))).collect());
    }
    let snap = ctx.metrics().snapshot();
    let bits = snap.decision(Decision::MvMaskSorted) == 0;
    assert!(
        bits || snap.decision(Decision::MvMaskBitmap) == 0,
        "one form per graph"
    );
    (levels, parents, two_step, bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_bfs_matches_the_queue_oracle_in_both_forms(e in edges(), src in 0..N) {
        let sources = [src, (src + 1) % N, (src + 17) % N];
        let compact_g = digraph(&e, N, 1);
        let wide_g = digraph(&e, N * STRIDE, STRIDE);
        let want: Vec<_> = sources.iter().map(|&s| oracle(&compact_g, s)).collect();
        for threads in [1usize, 2, 4, 8] {
            for (g, stride) in [(&compact_g, 1), (&wide_g, STRIDE)] {
                let ctx = OpCtx::new().with_threads(threads);
                let (levels, parents, two_step, bits) = traverse_all(&ctx, g, stride, &sources);
                let form = compact(g.nrows(), g.nnz());
                prop_assert_eq!(bits, form, "form @{} stride {}", threads, stride);
                for (k, (l, p)) in want.iter().enumerate() {
                    let label = format!("src {} @{threads} stride {stride}", sources[k]);
                    prop_assert_eq!(&levels[k], l, "levels, {}", label);
                    prop_assert_eq!(&parents[k], p, "bfs_parents, {}", label);
                    prop_assert_eq!(&two_step[k], p, "two-step, {}", label);
                }
            }
        }
    }
}

/// The break-even rule on a fixed input: on one `Graph`, the first
/// `bfs_parents` pushes all five levels (deferring the transpose at
/// each), the second has paid for it, pushes its first level and builds
/// it at the second, and the third finds it built and asks nothing.
#[test]
fn a_reused_graph_buys_its_transpose_on_fixed_counts() {
    let params = RmatParams {
        scale: 10,
        edge_factor: 8,
        ..Default::default()
    };
    let p = pattern_u64(&rmat_dcsr(params, 7, PlusTimes::<f64>::new()));
    let src = (p.iter_rows())
        .max_by_key(|&(row, cols, _)| (cols.len(), std::cmp::Reverse(row)))
        .map_or(0, |(row, _, _)| row);
    let ctx = OpCtx::new().with_threads(1);
    let g = Graph::new(&p);
    let counts = || {
        let snap = ctx.metrics().snapshot();
        [
            Decision::GraphTransposeBuilt,
            Decision::GraphTransposeDeferred,
        ]
        .map(|d| snap.decision(d))
    };
    let mut seen = Vec::new();
    for _ in 0..3 {
        let _ = bfs_parents_ctx(&ctx, &g, src);
        seen.push(counts());
    }
    assert_eq!(seen, [[0, 5], [1, 6], [1, 6]]);
}
