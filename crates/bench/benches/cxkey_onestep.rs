//! Complex-index key algebra + algebraically-selected parent BFS.
//!
//! Two claims under test from the cxkey/onestep layer:
//!
//! 1. **Rollup is one monotone `O(nnz)` pass.** Projecting the port
//!    component out of a socket×socket window (48-bit `ip.port` keys)
//!    costs a single sorted ⊕-merge — microseconds on a realistic
//!    window, so multi-resolution serving never rebuilds matrices.
//! 2. **The algebra picks the cheaper BFS.** When the semiring passes
//!    the one-step conditions (`MinFirst` does), the fused single-vxm
//!    parent BFS must beat the generic two-step fallback while
//!    producing identical parents.
//!
//! Medians land in `BENCH_cxkey.json` at the repo root; the `_us` keys
//! are pinned by the CI perf gate, counts ride along informationally.

use bench::{fmt_dur, quick_time, BenchRecord};
use criterion::Criterion;
use graph::bfs::{parent_bfs_fused_ctx, parent_bfs_two_step_ctx};
use graph::pattern::pattern_u64;
use hyperspace_core::cxkey::{self, CxPrefix, RollupAxes};
use hypersparse::ctx::OpCtx;
use hypersparse::gen::{rmat_dcsr, RmatParams};
use netflow::flow::{host_rollup, socket_matrix, socket_schema};
use netflow::{GenConfig, TrafficGen};
use semiring::{MinFirst, PlusTimes};

const EVENTS_PER_WINDOW: usize = 50_000;
const HOSTS: u32 = 2048;
const ROLLUP_ITERS: usize = 20;
const BFS_SCALE: u32 = 12;
const BFS_ITERS: usize = 5;

fn micros(d: std::time::Duration) -> f64 {
    (d.as_nanos() as f64 / 1e3 * 10.0).round() / 10.0
}

fn shape_report() -> BenchRecord {
    let mut rec = BenchRecord::new("cxkey_onestep");

    // ---- Complex-index rollup on a socket-resolution window ----
    println!("=== cxkey: socket window rollup (ip.port → host → /16) ===");
    let gen = TrafficGen::new(
        GenConfig::new()
            .with_hosts(HOSTS)
            .with_events_per_window(EVENTS_PER_WINDOW)
            .with_seed(0xC0FFEE),
    );
    let sockets = gen.socket_window(0);
    let sm = socket_matrix(&sockets);
    rec.set("socket_flows", sm.nnz() as f64);
    println!(
        "({} events → {} socket flows, median of {ROLLUP_ITERS})",
        sockets.len(),
        sm.nnz()
    );

    let (t_host, hosts) = quick_time(ROLLUP_ITERS, || host_rollup(&sm));
    rec.set("host_rollup_us", micros(t_host));
    println!(
        "| host rollup  | {:>9} | {:>6} → {:>6} cells | {:>5.1} ns/nnz |",
        fmt_dur(t_host),
        sm.nnz(),
        hosts.nnz(),
        t_host.as_nanos() as f64 / sm.nnz() as f64
    );

    let s = PlusTimes::<u64>::new();
    let block = CxPrefix::partial(0, 16); // /16 on the address bits
    let (t_block, blocks) = quick_time(ROLLUP_ITERS, || {
        cxkey::rollup(socket_schema(), &sm, block, RollupAxes::Both, s)
    });
    rec.set("block16_rollup_us", micros(t_block));
    println!(
        "| /16 rollup   | {:>9} | {:>6} → {:>6} cells |",
        fmt_dur(t_block),
        sm.nnz(),
        blocks.nnz()
    );
    // Conservation: every rollup is a pure regrouping of the same packets.
    let total: u64 = sm.iter().map(|(_, _, v)| *v).sum();
    for m in [&hosts, &blocks] {
        assert_eq!(m.iter().map(|(_, _, v)| *v).sum::<u64>(), total);
    }
    println!("✓ packet totals conserved through every prefix");

    // ---- Algebraically-selected parent BFS ----
    println!("=== onestep: fused one-step vs two-step parent BFS ===");
    let g = rmat_dcsr(
        RmatParams {
            scale: BFS_SCALE,
            edge_factor: 8,
            ..Default::default()
        },
        1,
        PlusTimes::<f64>::new(),
    );
    let pat = pattern_u64(&g);
    let ctx = OpCtx::new();
    let (t_one, one) = quick_time(BFS_ITERS, || parent_bfs_fused_ctx(&ctx, &pat, 0, MinFirst));
    let (t_two, two) = quick_time(BFS_ITERS, || {
        parent_bfs_two_step_ctx(&ctx, &pat, 0, MinFirst)
    });
    assert_eq!(one, two, "fused and two-step parents diverged");
    rec.set("bfs_one_step_us", micros(t_one));
    rec.set("bfs_two_step_us", micros(t_two));
    rec.set("bfs_reached", one.len() as f64);
    println!(
        "(RMAT scale {BFS_SCALE}, {} edges, {} reached, median of {BFS_ITERS})",
        pat.nnz(),
        one.len()
    );
    println!("| one-step | {:>9} |", fmt_dur(t_one));
    println!(
        "| two-step | {:>9} | {:.2}× the fused cost |",
        fmt_dur(t_two),
        t_two.as_secs_f64() / t_one.as_secs_f64()
    );
    println!("✓ identical parent vectors; the algebra earned its fused path");
    rec
}

fn criterion_benches(c: &mut Criterion) {
    let gen = TrafficGen::new(
        GenConfig::new()
            .with_hosts(HOSTS)
            .with_events_per_window(EVENTS_PER_WINDOW)
            .with_seed(0xC0FFEE),
    );
    let sm = socket_matrix(&gen.socket_window(0));
    let g = rmat_dcsr(
        RmatParams {
            scale: BFS_SCALE,
            edge_factor: 8,
            ..Default::default()
        },
        1,
        PlusTimes::<f64>::new(),
    );
    let pat = pattern_u64(&g);
    let ctx = OpCtx::new();

    let mut group = c.benchmark_group("cxkey_onestep");
    group.sample_size(10);
    group.bench_function("host_rollup", |b| b.iter(|| host_rollup(&sm)));
    group.bench_function("bfs_one_step", |b| {
        b.iter(|| parent_bfs_fused_ctx(&ctx, &pat, 0, MinFirst))
    });
    group.bench_function("bfs_two_step", |b| {
        b.iter(|| parent_bfs_two_step_ctx(&ctx, &pat, 0, MinFirst))
    });
    group.finish();
}

fn main() {
    let rec = shape_report();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cxkey.json");
    match rec.write(path) {
        Ok(()) => println!("recorded medians → {path}"),
        Err(e) => println!("could not record {path}: {e}"),
    }
    let mut c = Criterion::default().configure_from_args();
    criterion_benches(&mut c);
    c.final_summary();
}
