//! Ablation: direction-optimized vxm (DESIGN.md §Direction-optimized mxv).
//!
//! Three questions, on an RMAT power-law graph and a directed ring (the
//! adversarial case where every frontier is one vertex):
//!
//! 1. push vs pull vs the Beamer-style heuristic's pick, across frontier
//!    densities;
//! 2. fused complement-masked vxm vs unfused-then-filter on the
//!    BFS-shaped workload (mid-traversal frontier, visited mask);
//! 3. parallel vs sequential vxm at 4 threads on a ≥100k-edge input —
//!    bit-identical by construction, so the outputs are asserted equal.

use bench::{fmt_dur, quick_time};
use criterion::Criterion;
use hypersparse::gen::{ring_dcsr, rmat_dcsr, RmatParams};
use hypersparse::ops::mxv::{choose_direction, vxm_ctx, vxm_opt_ctx, vxm_pull_ctx};
use hypersparse::ops::transpose_ctx;
use hypersparse::{Dcsr, Ix, OpCtx, SparseVec};
use semiring::PlusTimes;

fn s() -> PlusTimes<f64> {
    PlusTimes::new()
}

fn rmat() -> Dcsr<f64> {
    rmat_dcsr(
        RmatParams {
            scale: 14,
            edge_factor: 8,
            ..Default::default()
        },
        7,
        s(),
    )
}

/// Unit-weight frontier of ~`k` vertices spread over the non-empty rows.
fn frontier_of(g: &Dcsr<f64>, k: usize) -> SparseVec<f64> {
    let rows = g.row_ids();
    let step = (rows.len() / k.max(1)).max(1);
    let picks: Vec<(Ix, f64)> = rows
        .iter()
        .step_by(step)
        .take(k)
        .map(|&r| (r, 1.0))
        .collect();
    SparseVec::from_entries(g.nrows(), picks, s())
}

/// Expand a BFS `depth` levels from the busiest vertex; returns the
/// frontier at that depth and the visited set behind it.
fn bfs_shape(
    ctx: &OpCtx,
    g: &Dcsr<f64>,
    gt: &Dcsr<f64>,
    depth: usize,
) -> (SparseVec<f64>, SparseVec<f64>) {
    let src = g
        .iter_rows()
        .max_by_key(|(_, cols, _)| cols.len())
        .map(|(r, _, _)| r)
        .unwrap_or(0);
    let mut visited = SparseVec::from_entries(g.nrows(), vec![(src, 1.0)], s());
    let mut frontier = visited.clone();
    for _ in 0..depth {
        let next = vxm_opt_ctx(ctx, &frontier, g, Some(gt), Some(visited.indices()), s());
        if next.is_empty() {
            break;
        }
        visited = visited.ewise_add(&next, s());
        frontier = next;
    }
    (frontier, visited)
}

fn direction_table(name: &str, g: &Dcsr<f64>, gt: &Dcsr<f64>) {
    let ctx = OpCtx::new();
    let n_rows = g.row_ids().len();
    for k in [16usize, (n_rows / 64).max(1), n_rows] {
        let f = frontier_of(g, k);
        let dir = choose_direction(&f, g, true);
        let (t_push, r_push) = quick_time(5, || vxm_ctx(&ctx, &f, g, s()));
        let (t_pull, r_pull) = quick_time(5, || vxm_pull_ctx(&ctx, &f, gt, s()));
        let (t_auto, _) = quick_time(5, || vxm_opt_ctx(&ctx, &f, g, Some(gt), None, s()));
        assert_eq!(
            r_push.indices(),
            r_pull.indices(),
            "push and pull disagree on the output pattern"
        );
        println!(
            "| {:<5} | {:>8} | {:>10} | {:>10} | {:>10} ({:>4}) |",
            name,
            f.nnz(),
            fmt_dur(t_push),
            fmt_dur(t_pull),
            fmt_dur(t_auto),
            dir.name(),
        );
    }
}

fn shape_report() {
    let g = rmat();
    let gt = transpose_ctx(&OpCtx::new(), &g);
    let ring = ring_dcsr(1 << 14, s());
    let ring_t = transpose_ctx(&OpCtx::new(), &ring);

    println!("=== Ablation: direction-optimized vxm ===");
    println!(
        "rmat scale 14 ×8 ({} edges), ring n=16384 ({} edges)",
        g.nnz(),
        ring.nnz()
    );
    println!("| graph | frontier | push       | pull       | auto (chosen)     |");
    direction_table("rmat", &g, &gt);
    direction_table("ring", &ring, &ring_t);

    // --- fused masked vs unfused-then-filter, BFS-shaped ---
    let ctx = OpCtx::new();
    let (frontier, visited) = bfs_shape(&ctx, &g, &gt, 2);
    let (t_fused, r_fused) = quick_time(5, || {
        vxm_opt_ctx(&ctx, &frontier, &g, Some(&gt), Some(visited.indices()), s())
    });
    let (t_unfused, r_unfused) = quick_time(5, || {
        vxm_opt_ctx(&ctx, &frontier, &g, Some(&gt), None, s()).without(&visited)
    });
    assert_eq!(r_fused, r_unfused, "mask fusion changed the result");
    println!(
        "masked vxm (frontier {}, visited {}): fused {} vs unfused-then-filter {} ({:.2}x)",
        frontier.nnz(),
        visited.nnz(),
        fmt_dur(t_fused),
        fmt_dur(t_unfused),
        t_unfused.as_secs_f64() / t_fused.as_secs_f64(),
    );

    // --- parallel vs sequential on the ≥100k-edge input ---
    let dense = frontier_of(&g, usize::MAX);
    let seq = OpCtx::new().with_threads(1);
    let par = OpCtx::new().with_threads(4);
    let (t_seq, r_seq) = quick_time(5, || vxm_ctx(&seq, &dense, &g, s()));
    let (t_par, r_par) = quick_time(5, || vxm_ctx(&par, &dense, &g, s()));
    assert_eq!(r_seq, r_par, "thread count changed the result");
    println!(
        "parallel vxm ({} edges, dense frontier): 1 thread {} vs 4 threads {} ({:.2}x)",
        g.nnz(),
        fmt_dur(t_seq),
        fmt_dur(t_par),
        t_seq.as_secs_f64() / t_par.as_secs_f64(),
    );
    println!("✓ push ≡ pull on pattern; fused ≡ unfused and seq ≡ par bit-for-bit");

    // --- tracing overhead on the hot kernel loop ---
    // Every vxm call opens a span; disabled mode must price that at one
    // relaxed atomic load (no clock read, no allocation).
    println!("--- tracing-mode ablation (dense-frontier vxm) ---");
    let mut base = 0.0f64;
    for (label, mode) in [
        ("disabled", hypersparse::TraceMode::Disabled),
        ("slow-only", hypersparse::TraceMode::SlowOnly),
        ("full", hypersparse::TraceMode::Full),
    ] {
        let ctx = OpCtx::new();
        ctx.trace().set_mode(mode);
        if mode == hypersparse::TraceMode::SlowOnly {
            ctx.trace()
                .set_slow_threshold(Some(std::time::Duration::from_millis(50)));
        }
        let (t, _) = quick_time(5, || {
            let r = vxm_ctx(&ctx, &dense, &g, s());
            ctx.trace().clear();
            r
        });
        let secs = t.as_secs_f64();
        if base == 0.0 {
            base = secs;
        }
        println!(
            "| {label:>10} | {:>10} | {:>6.3}x |",
            fmt_dur(t),
            secs / base
        );
    }

    // --- masked SpGEMM: parallel vs sequential on the triangle workload ---
    // L ⊕.⊗ L masked by L (the Sandia triangle kernel) over the lower
    // triangle of the symmetrized rmat graph — the hot path that
    // graph::triangles drives.
    let seq1 = OpCtx::new().with_threads(1);
    let sym = hypersparse::ops::ewise_add_ctx(&seq1, &g, &gt, s());
    let l = hypersparse::ops::select_ctx(&seq1, &sym, |r, c, _| c < r);
    let (t_mseq, r_mseq) = quick_time(3, || {
        hypersparse::ops::mxm_masked_ctx(&seq1, &l, &l, &l, false, s())
    });
    println!(
        "--- masked SpGEMM (triangle workload, {} edges in L) ---",
        l.nnz()
    );
    for threads in [2usize, 4, 8] {
        let par = OpCtx::new().with_threads(threads);
        let (t_mpar, r_mpar) = quick_time(3, || {
            hypersparse::ops::mxm_masked_ctx(&par, &l, &l, &l, false, s())
        });
        assert_eq!(r_mseq, r_mpar, "thread count changed the masked product");
        println!(
            "masked mxm 1 thread {} vs {} threads {} ({:.2}x)",
            fmt_dur(t_mseq),
            threads,
            fmt_dur(t_mpar),
            t_mseq.as_secs_f64() / t_mpar.as_secs_f64(),
        );
    }
    println!("✓ masked SpGEMM parallel ≡ sequential bit-for-bit");
}

fn criterion_benches(c: &mut Criterion) {
    let g = rmat();
    let gt = transpose_ctx(&OpCtx::new(), &g);
    let ctx = OpCtx::new();
    let sparse = frontier_of(&g, 16);
    let dense = frontier_of(&g, usize::MAX);
    let (frontier, visited) = bfs_shape(&ctx, &g, &gt, 2);

    let mut group = c.benchmark_group("ablation/mxv_direction");
    group.sample_size(10);
    group.bench_function("push_sparse_frontier", |b| {
        b.iter(|| vxm_ctx(&ctx, &sparse, &g, s()))
    });
    group.bench_function("pull_sparse_frontier", |b| {
        b.iter(|| vxm_pull_ctx(&ctx, &sparse, &gt, s()))
    });
    group.bench_function("push_dense_frontier", |b| {
        b.iter(|| vxm_ctx(&ctx, &dense, &g, s()))
    });
    group.bench_function("pull_dense_frontier", |b| {
        b.iter(|| vxm_pull_ctx(&ctx, &dense, &gt, s()))
    });
    group.bench_function("masked_fused", |b| {
        b.iter(|| vxm_opt_ctx(&ctx, &frontier, &g, Some(&gt), Some(visited.indices()), s()))
    });
    group.bench_function("masked_unfused_then_filter", |b| {
        b.iter(|| vxm_opt_ctx(&ctx, &frontier, &g, Some(&gt), None, s()).without(&visited))
    });
    group.finish();
}

fn main() {
    shape_report();
    let mut c = Criterion::default().configure_from_args();
    criterion_benches(&mut c);
    c.final_summary();
}
