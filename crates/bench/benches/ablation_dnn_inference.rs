//! Ablation: the DNN inference stack rebuild (DESIGN.md §11).
//!
//! Three formulations of Fig. 8's RadiX-Net inference
//! (1024 neurons × fanin 32 × 12 layers), swept over 1/2/4/8 threads:
//!
//! * **seed two-pass** — the pre-refactor shape: one `mxm` materializing
//!   the full `Y W` product, then a separate bias+ReLU prune pass
//!   (`infer_two_semiring`, driven through the default ctx);
//! * **ctx fused** — one `OpCtx` driving `mxm_apply_prune_ctx`, which folds
//!   `max(x + b, 0)` and zero-dropping into the accumulator drain so the
//!   intermediate product never materializes;
//! * **dense** — sparse weights against a dense activation panel.
//!
//! Outputs must be bit-identical across formulations and thread counts
//! (deterministic row sharding), and fused must not lose to two-pass.

use bench::{fmt_dur, quick_time};
use criterion::Criterion;
use dnn::infer::{equivalent, infer_dense, infer_two_semiring};
use dnn::input::sparse_batch;
use dnn::radix::{radix_net, RadixNetParams};
use dnn::{try_infer_fused_ctx, try_infer_two_semiring_ctx, SparseDnn};
use hypersparse::{with_default_ctx, Dcsr, DenseMat, OpCtx};
use semiring::PlusTimes;

const N: u64 = 1024;
const FANIN: u64 = 32;
const DEPTH: usize = 12;
const BATCH: u64 = 32;

fn workload() -> (SparseDnn, Dcsr<f64>) {
    let net = radix_net(
        RadixNetParams {
            n_neurons: N,
            fanin: FANIN,
            depth: DEPTH,
            bias: -0.3,
        },
        11,
    );
    let y0 = sparse_batch(BATCH, N, 0.08, 13);
    (net, y0)
}

fn shape_report() {
    let (net, y0) = workload();
    println!("=== Ablation: DNN inference — seed two-pass vs ctx fused vs dense ===");
    println!("(RadiX-Net {N}×{FANIN}×{DEPTH}, batch {BATCH})");
    println!("| threads | seed two-pass | ctx fused  | dense      | fused/seed |");

    let reference = try_infer_fused_ctx(&OpCtx::new().with_threads(1), &net, &y0).unwrap();
    let dense_in = DenseMat::from_dcsr(&y0, PlusTimes::<f64>::new());

    for &threads in &[1usize, 2, 4, 8] {
        // Seed path: two-pass oscillation on the thread-capped default ctx.
        with_default_ctx(|ctx| ctx.set_threads(threads));
        let (t_seed, out_seed) = quick_time(5, || infer_two_semiring(&net, &y0));
        with_default_ctx(|ctx| ctx.set_threads(0));

        // Tentpole path: one context driving the fused bias+ReLU prune kernel.
        let ctx = OpCtx::new().with_threads(threads);
        let (t_fused, out_fused) = quick_time(5, || try_infer_fused_ctx(&ctx, &net, &y0).unwrap());

        assert_eq!(
            out_seed, reference,
            "two-pass diverged at {threads} threads"
        );
        assert_eq!(out_fused, reference, "fused diverged at {threads} threads");

        let (t_dense, out_dense) = quick_time(3, || infer_dense(&net, &dense_in));
        assert!(equivalent(&reference, &out_dense, 1e-9), "sparse ≠ dense");

        println!(
            "| {:>7} | {:>13} | {:>10} | {:>10} | {:>9.2}x |",
            threads,
            fmt_dur(t_seed),
            fmt_dur(t_fused),
            fmt_dur(t_dense),
            t_seed.as_secs_f64() / t_fused.as_secs_f64(),
        );
    }
    println!("✓ bit-identical outputs at 1/2/4/8 threads, fused and two-pass");

    // Per-layer observability: the context's registry must show one
    // dnn_layer record per layer per inference.
    let ctx = OpCtx::new();
    try_infer_fused_ctx(&ctx, &net, &y0).unwrap();
    let prom = ctx.metrics().snapshot().render_prometheus();
    assert!(
        prom.contains(&format!(
            "hypersparse_kernel_calls_total{{kernel=\"dnn_layer\"}} {DEPTH}"
        )),
        "missing per-layer counters:\n{prom}"
    );
    println!("✓ render_prometheus exposes {DEPTH} dnn_layer kernel calls");
}

fn criterion_benches(c: &mut Criterion) {
    let (net, y0) = workload();
    let mut group = c.benchmark_group("ablation/dnn_inference");
    group.sample_size(10);
    for &threads in &[1usize, 4] {
        let ctx = OpCtx::new().with_threads(threads);
        group.bench_function(format!("fused_t{threads}"), |b| {
            b.iter(|| try_infer_fused_ctx(&ctx, &net, &y0).unwrap())
        });
        group.bench_function(format!("two_pass_t{threads}"), |b| {
            b.iter(|| try_infer_two_semiring_ctx(&ctx, &net, &y0).unwrap())
        });
    }
    group.finish();
}

fn main() {
    shape_report();
    let mut c = Criterion::default().configure_from_args();
    criterion_benches(&mut c);
    c.final_summary();
}
