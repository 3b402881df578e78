//! `graph::Graph`: each derived array is built at most once (the
//! transpose only once the graph's pushes have paid for it), and an
//! algorithm gives the same bits whichever way it is called — on a
//! reused graph, on a fresh graph per call, or through its bare `&Dcsr`
//! spelling — at any thread count.

use graph::baseline::{triangles_wedge, AdjList};
use graph::bfs::{bfs_levels, bfs_levels_ctx, bfs_parents, bfs_parents_ctx};
use graph::cc::{connected_components, connected_components_ctx};
use graph::centrality::{betweenness, betweenness_ctx};
use graph::pagerank::{pagerank, pagerank_ctx, PageRankOpts};
use graph::pattern::{pattern_f64, pattern_u64, pattern_u8, symmetrize};
use graph::sssp::{sssp, sssp_generic_ctx};
use graph::triangles::{edge_support, edge_support_ctx, triangle_count, triangle_count_ctx};
use graph::Graph;
use hypersparse::gen::{rmat_dcsr, RmatParams};
use hypersparse::ops::mxv::choose_direction;
use hypersparse::{with_default_ctx, Coo, Dcsr, Decision, Direction, Ix, Kernel, OpCtx, SparseVec};
use semiring::{MinFirst, MinPlus, PlusTimes};

const SOURCES: usize = 4;

/// A symmetric RMAT graph (scale 10) with weights 1–7 that no algorithm
/// here may read except SSSP.
fn weighted() -> Dcsr<f64> {
    let pt = PlusTimes::<f64>::new();
    let params = RmatParams {
        scale: 10,
        edge_factor: 8,
        ..Default::default()
    };
    let sym = symmetrize(&rmat_dcsr(params, 3, pt), pt);
    let mut c = Coo::new(sym.nrows(), sym.ncols());
    for (r, col, _) in sym.iter() {
        c.push(r, col, 1.0 + ((r + col) % 7) as f64);
    }
    c.build_dcsr(pt)
}

fn sources(w: &Dcsr<f64>) -> Vec<Ix> {
    w.row_ids()
        .iter()
        .step_by(97)
        .take(SOURCES)
        .copied()
        .collect()
}

fn transposes(ctx: &OpCtx) -> u64 {
    ctx.metrics().snapshot().kernel(Kernel::Transpose).calls
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn entry_bits(m: &Dcsr<f64>) -> Vec<(Ix, Ix, u64)> {
    m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect()
}

/// Every answer, with each `f64` as its bit pattern.
#[derive(Debug, PartialEq)]
struct Answers {
    levels: Vec<Vec<(Ix, u32)>>,
    parents: Vec<Vec<(Ix, Ix)>>,
    components: Vec<(Ix, Ix)>,
    dist: Vec<(Ix, u64)>,
    rank: Vec<u64>,
    bc: Vec<u64>,
    triangles: u64,
    support: Vec<(Ix, Ix, u64)>,
}

/// The patterns of one weighted matrix: `u8` and `u64` for the
/// traversals, unit `f64` for the weight-blind kernels.
struct Patterns {
    p8: Dcsr<u8>,
    p64: Dcsr<u64>,
    unit: Dcsr<f64>,
}

impl Patterns {
    fn of(w: &Dcsr<f64>) -> Self {
        Patterns {
            p8: pattern_u8(w),
            p64: pattern_u64(w),
            unit: pattern_f64(w),
        }
    }
}

/// One graph per pattern, plus the weights themselves for SSSP.
struct Graphs<'a> {
    levels: Graph<'a, u8>,
    ids: Graph<'a, u64>,
    unit: Graph<'a, f64>,
    weights: Graph<'a, f64>,
}

impl<'a> Graphs<'a> {
    fn new(p: &'a Patterns, w: &'a Dcsr<f64>) -> Self {
        Graphs {
            levels: Graph::new(&p.p8),
            ids: Graph::new(&p.p64),
            unit: Graph::new(&p.unit),
            weights: Graph::new(w),
        }
    }
}

fn on_graphs(ctx: &OpCtx, g: &Graphs, src: &[Ix]) -> Answers {
    Answers {
        levels: src
            .iter()
            .map(|&s| bfs_levels_ctx(ctx, &g.levels, s))
            .collect(),
        parents: src
            .iter()
            .map(|&s| bfs_parents_ctx(ctx, &g.ids, s))
            .collect(),
        components: connected_components_ctx(ctx, &g.ids),
        dist: sssp_generic_ctx(ctx, &g.weights, src[0], MinPlus::<f64>::new())
            .into_iter()
            .map(|(v, d)| (v, d.to_bits()))
            .collect(),
        rank: bits(&pagerank_ctx(ctx, &g.unit, PageRankOpts::default())),
        bc: bits(&betweenness_ctx(ctx, &g.unit, src)),
        triangles: triangle_count_ctx(ctx, &g.unit),
        support: entry_bits(&edge_support_ctx(ctx, &g.unit)),
    }
}

fn bare(w: &Dcsr<f64>, p: &Patterns, src: &[Ix]) -> Answers {
    Answers {
        levels: src.iter().map(|&s| bfs_levels(&p.p8, s)).collect(),
        parents: src.iter().map(|&s| bfs_parents(&p.p64, s)).collect(),
        components: connected_components(&p.p64),
        dist: sssp(w, src[0])
            .into_iter()
            .map(|(v, d)| (v, d.to_bits()))
            .collect(),
        rank: bits(&pagerank(w, PageRankOpts::default())),
        bc: bits(&betweenness(w, src)),
        triangles: triangle_count(w),
        support: entry_bits(&edge_support(w)),
    }
}

#[test]
fn each_graph_builds_its_transpose_at_most_once() {
    let w = weighted();
    let src = sources(&w);
    let p = Patterns::of(&w);
    let ctx = OpCtx::new();
    // BFS and components read `u64` ids, PageRank and betweenness a unit
    // `f64` pattern, so each value type has its own graph; each graph
    // pays for its transpose once, however many algorithms read it.
    let ids = Graph::new(&p.p64);
    for &s in &src {
        bfs_parents_ctx(&ctx, &ids, s);
    }
    connected_components_ctx(&ctx, &ids);
    assert_eq!(transposes(&ctx), 1, "BFS ×{SOURCES} + components");

    let unit = Graph::new(&p.unit);
    pagerank_ctx(&ctx, &unit, PageRankOpts::default());
    betweenness_ctx(&ctx, &unit, &src);
    triangle_count_ctx(&ctx, &unit);
    edge_support_ctx(&ctx, &unit);
    assert_eq!(transposes(&ctx), 2, "PageRank + betweenness + triangles");
}

#[test]
fn bare_calls_build_no_more_transposes_than_one_per_call() {
    let w = weighted();
    let src = sources(&w)[0];
    let p = Patterns::of(&w);
    assert!(bare_transposes(|| bfs_levels(&p.p8, src)) <= 1);
    assert!(bare_transposes(|| bfs_parents(&p.p64, src)) <= 1);
    assert!(bare_transposes(|| connected_components(&p.p64)) <= 1);
    assert!(bare_transposes(|| sssp(&w, src)) <= 1);
    let opts = PageRankOpts::default();
    assert_eq!(bare_transposes(|| pagerank(&w, opts)), 1);
    assert_eq!(bare_transposes(|| betweenness(&w, &[src])), 1);
    assert_eq!(bare_transposes(|| triangle_count(&w)), 0);
    assert_eq!(bare_transposes(|| edge_support(&w)), 0);
}

/// Transposes the default context records while `f` runs.
fn bare_transposes<R>(f: impl FnOnce() -> R) -> u64 {
    let before = with_default_ctx(transposes);
    f();
    with_default_ctx(transposes) - before
}

/// A directed scale-12 RMAT pattern and its busiest vertex.
fn rmat12() -> (Dcsr<u64>, Ix) {
    let params = RmatParams {
        scale: 12,
        edge_factor: 8,
        ..Default::default()
    };
    let p = pattern_u64(&rmat_dcsr(params, 7, PlusTimes::<f64>::new()));
    let src = busiest(&p);
    (p, src)
}

fn busiest(p: &Dcsr<u64>) -> Ix {
    let (r, _, _) = p.iter_rows().max_by_key(|(_, cols, _)| cols.len()).unwrap();
    r
}

/// The levels of a BFS from `src` whose frontier [`choose_direction`]
/// would pull, given a transpose — where the traversal would build one
/// if a transpose were bought on first need.
fn pull_worthy_levels(p: &Dcsr<u64>, src: Ix) -> Vec<u32> {
    let levels = bfs_levels(&pattern_u8(p), src);
    let depth = levels.iter().map(|&(_, l)| l).max().unwrap_or(0);
    (0..=depth)
        .filter(|&l| {
            let ids = levels.iter().filter(|e| e.1 == l).map(|&(v, _)| (v, v + 1));
            let frontier = SparseVec::from_entries(p.nrows(), ids.collect(), MinFirst);
            choose_direction(&frontier, p, true) == Direction::Pull
        })
        .collect()
}

#[test]
fn one_shot_traversals_build_no_transpose() {
    let (p, src) = rmat12();
    assert!(
        !pull_worthy_levels(&p, src).is_empty(),
        "some level pulls once a transpose exists"
    );
    let p8 = pattern_u8(&p);
    assert_eq!(bare_transposes(|| bfs_parents(&p, src)), 0);
    assert_eq!(bare_transposes(|| bfs_levels(&p8, src)), 0);
    let ctx = OpCtx::new();
    bfs_parents_ctx(&ctx, &Graph::new(&p), src);
    bfs_levels_ctx(&ctx, &Graph::new(&p8), src);
    assert_eq!(transposes(&ctx), 0);
    assert_eq!(
        ctx.metrics().snapshot().mv_pull_calls,
        0,
        "every level pushed"
    );
}

#[test]
fn a_graph_buys_its_transpose_once_its_pushes_reach_nnz() {
    // Symmetric RMAT plus a ring through every vertex: one traversal
    // reaches and expands every vertex, so its pushes touch exactly
    // `nnz` edges.
    let (p, _) = rmat12();
    let pt = PlusTimes::<f64>::new();
    let mut c = Coo::new(p.nrows(), p.ncols());
    c.extend(p.iter().map(|(r, col, _)| (r, col, 1.0)));
    c.extend((0..p.nrows()).map(|v| (v, (v + 1) % p.nrows(), 1.0)));
    let sym = pattern_u64(&symmetrize(&c.build_dcsr(pt), pt));
    let src = busiest(&sym);
    let pulls = pull_worthy_levels(&sym, src).len() as u64;
    assert!(pulls > 0);

    let ctx = OpCtx::new();
    let g = Graph::new(&sym);
    let want = bfs_parents(&sym, src);
    let counts = |ctx: &OpCtx| (transposes(ctx), ctx.metrics().snapshot().mv_pull_calls);
    assert_eq!(bfs_parents_ctx(&ctx, &g, src), want);
    assert_eq!(counts(&ctx), (0, 0), "first traversal pays in pushes");
    // The pushes have reached `nnz`: the second traversal builds at its
    // first pull-worthy level and pulls at every pull-worthy level.
    assert_eq!(bfs_parents_ctx(&ctx, &g, src), want);
    assert_eq!(
        counts(&ctx),
        (1, pulls),
        "built once, at the first pull-worthy level"
    );
    assert_eq!(bfs_parents_ctx(&ctx, &g, src), want);
    assert_eq!(counts(&ctx), (1, 2 * pulls), "and never again");
}

#[test]
fn reused_fresh_and_bare_give_the_same_bits_at_any_thread_count() {
    let w = weighted();
    let src = sources(&w);
    let p = Patterns::of(&w);
    let ctx = OpCtx::new();
    ctx.set_threads(1);
    let want = on_graphs(&ctx, &Graphs::new(&p, &w), &src);
    assert!(want.triangles > 0 && want.levels[0].len() > 1);
    let reused = Graphs::new(&p, &w);
    for k in [1, 2, 4, 8] {
        ctx.set_threads(k);
        with_default_ctx(|c| c.set_threads(k));
        let many = || ctx.metrics().snapshot().decision(Decision::FanOutMany);
        let before = many();
        let routes = [
            ("reused", on_graphs(&ctx, &reused, &src)),
            ("fresh", on_graphs(&ctx, &Graphs::new(&p, &w), &src)),
            ("bare", bare(&w, &p, &src)),
        ];
        for (route, got) in &routes {
            assert_eq!(got, &want, "{route} differs at {k} threads");
        }
        assert_eq!(many() > before, k > 1, "fan_out=many iff {k} > 1");
    }
    with_default_ctx(|c| c.set_threads(0));
}

#[test]
fn weight_blind_kernels_read_only_the_pattern() {
    let w = weighted();
    let unit = pattern_f64(&w);
    let src = sources(&w);
    let opts = PageRankOpts::default();
    assert_eq!(bits(&pagerank(&w, opts)), bits(&pagerank(&unit, opts)));
    assert_eq!(triangle_count(&w), triangle_count(&unit));
    assert_eq!(
        entry_bits(&edge_support(&w)),
        entry_bits(&edge_support(&unit))
    );
    assert_eq!(
        bits(&betweenness(&w, &src)),
        bits(&betweenness(&unit, &src))
    );
}

/// The triangle count reads only the pattern and builds no product: on a
/// fresh context, a graph weighted 2.5 counts its wedge-baseline
/// triangles through one masked count, metered as one `MxmMasked` call
/// whose flops are the count, with nothing summed after it.
#[test]
fn triangle_count_is_one_masked_count_of_the_pattern() {
    let w = weighted().pattern(2.5);
    let ctx = OpCtx::new();
    let count = triangle_count_ctx(&ctx, &Graph::new(&w));
    assert_eq!(count, triangles_wedge(&AdjList::from_pattern(&w)));
    assert!(count > 0);
    let snap = ctx.metrics().snapshot();
    assert_eq!(snap.kernel(Kernel::ReduceScalar).calls, 0);
    let masked = snap.kernel(Kernel::MxmMasked);
    assert_eq!((masked.calls, masked.flops), (1, count));
}
