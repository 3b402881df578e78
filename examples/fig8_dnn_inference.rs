//! **Figs. 7–8** — deep neural network inference.
//!
//! Fig. 7's 1955 neuron is exercised once for completeness; Fig. 8's
//! L-layer DNN runs as RadiX-Net sparse inference three ways — fused
//! sparse, the paper's S₁/S₂ two-semiring oscillation, and a dense
//! baseline — swept over width, depth, and input density. Sparse wins
//! while activations stay sparse; dense wins once rectification stops
//! pruning — the crossover is reported.
//!
//! Then the inference-stack ablation (DESIGN.md §11) on one RadiX-Net
//! (1024 neurons × fanin 32 × 12 layers) at 1/2/4/8 threads: the
//! two-pass oscillation (one `mxm` materializing `Y W`, then a separate
//! bias+ReLU prune) against one `OpCtx` driving the fused
//! `mxm_apply_prune_ctx`, and a dense panel. Outputs must be
//! bit-identical across formulations and thread counts. Both sparse
//! readings then run once more on one context, whose registry shows one
//! `dnn_layer` row per layer per inference.
//!
//! ```sh
//! cargo run --release --example fig8_dnn_inference
//! ```

use bench::{fmt_dur, quick_time};
use dnn::infer::{
    categories, densify_weights, equivalent, infer_dense, infer_dense_full, infer_fused,
    infer_two_semiring,
};
use dnn::input::sparse_batch;
use dnn::neuron::Neuron;
use dnn::radix::{radix_net, RadixNetParams};
use dnn::{try_infer_fused_ctx, try_infer_two_semiring_ctx};
use hypersparse::{with_default_ctx, DenseMat, OpCtx};
use semiring::PlusTimes;

const BATCH: u64 = 32;
/// The ablation's network: neurons × fanin × layers.
const N: u64 = 1024;
const FANIN: u64 = 32;
const DEPTH: usize = 12;

fn main() {
    // Fig. 7: the 1955 network element.
    let mut cell = Neuron::new(vec![0.4, 0.3, 0.3], 0.5);
    assert!(cell.fires(&[1.0, 1.0, 0.0]));
    cell.adapt(&[1.0, 1.0, 0.0], 0.1);
    assert!(cell.weights[0] > 0.4);
    println!("Fig. 7 ✓ — weighted-sum neuron fires and adapts (Clark–Farley 1955)");

    println!("\n=== Fig. 8: sparse DNN inference, three formulations ===");
    println!("| N     | L  | fanin | in-density | out nnz%  | fused      | two-semiring | dense (sp-W) | dense GEMM |");
    let cases = [
        // (neurons, layers, fanin, bias, input density)
        (1024u64, 12usize, 32u64, -0.4, 0.05),
        (1024, 12, 32, -0.05, 0.20),
        (4096, 12, 32, -0.4, 0.02),
        (4096, 48, 32, -0.4, 0.02),
        (1024, 120, 32, -0.4, 0.05),
        (256, 12, 64, -0.05, 0.50),
    ];
    for &(n, depth, fanin, bias, density) in &cases {
        let net = radix_net(
            RadixNetParams {
                n_neurons: n,
                fanin,
                depth,
                bias,
            },
            7,
        );
        let y0 = sparse_batch(BATCH, n, density, 9);
        let (t_fused, out) = quick_time(3, || infer_fused(&net, &y0));
        let (t_pair, out2) = quick_time(3, || infer_two_semiring(&net, &y0));
        assert_eq!(out, out2, "S1/S2 oscillation diverged");
        let dense_in = DenseMat::from_dcsr(&y0, PlusTimes::<f64>::new());
        let (t_dense, out_d) = quick_time(3, || infer_dense(&net, &dense_in));
        assert!(equivalent(&out, &out_d, 1e-6), "sparse ≠ dense");
        // Full-dense GEMM baseline only where it completes quickly.
        let t_gemm = if n <= 1024 && depth <= 12 {
            let dw = densify_weights(&net);
            let (t, out_g) = quick_time(1, || infer_dense_full(&net, &dw, &dense_in));
            assert!(equivalent(&out, &out_g, 1e-6), "sparse ≠ full dense");
            fmt_dur(t)
        } else {
            "—".to_string()
        };
        println!(
            "| {:>5} | {:>2} | {:>5} | {:>10.2} | {:>8.2}% | {:>10} | {:>12} | {:>12} | {:>10} |",
            n,
            depth,
            fanin,
            density,
            100.0 * out.nnz() as f64 / (BATCH * n) as f64,
            fmt_dur(t_fused),
            fmt_dur(t_pair),
            fmt_dur(t_dense),
            t_gemm,
        );
    }
    println!("✓ all three formulations agree entry-for-entry on every configuration");
    println!("  (sparse wins at low output density; dense wins as rectification stops pruning)");
    ablation();
}

fn ablation() {
    let params = RadixNetParams {
        n_neurons: N,
        fanin: FANIN,
        depth: DEPTH,
        bias: -0.3,
    };
    let (net, y0) = (radix_net(params, 11), sparse_batch(BATCH, N, 0.08, 13));
    println!("\n=== Ablation: DNN inference — seed two-pass vs ctx fused vs dense ===");
    println!("(RadiX-Net {N}×{FANIN}×{DEPTH}, batch {BATCH})");
    println!("| threads | seed two-pass | ctx fused  | dense      | fused/seed |");

    let reference = try_infer_fused_ctx(&OpCtx::new().with_threads(1), &net, &y0).unwrap();
    let dense_in = DenseMat::from_dcsr(&y0, PlusTimes::<f64>::new());

    for &threads in &[1usize, 2, 4, 8] {
        // Seed path: two-pass oscillation on the thread-capped default ctx.
        with_default_ctx(|ctx| ctx.set_threads(threads));
        let (t_seed, out_seed) = quick_time(5, || infer_two_semiring(&net, &y0));
        with_default_ctx(|ctx| ctx.set_threads(0));

        // One context driving the fused bias+ReLU prune kernel.
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
    let fused = try_infer_fused_ctx(&ctx, &net, &y0).unwrap();
    let layer_calls =
        |n: usize| format!("hypersparse_kernel_calls_total{{kernel=\"dnn_layer\"}} {n}");
    let prom = ctx.metrics().snapshot().render_prometheus();
    assert!(
        prom.contains(&layer_calls(DEPTH)),
        "missing per-layer counters:\n{prom}"
    );
    // The paper's S₁/S₂ oscillation on the same context.
    let pair = try_infer_two_semiring_ctx(&ctx, &net, &y0).unwrap();
    assert_eq!(
        fused, pair,
        "Y_{{k+1}} = Y_k W_k ⊗ b_k ⊕ 0 must match ReLU(YW+b)"
    );
    let prom = ctx.metrics().snapshot().render_prometheus();
    assert!(
        prom.contains(&layer_calls(2 * DEPTH)),
        "missing per-layer counters:\n{prom}"
    );
    println!("✓ render_prometheus exposes {DEPTH} dnn_layer kernel calls per inference:");
    for line in prom.lines().filter(|l| l.contains("kernel_calls_total")) {
        println!("  {line}");
    }
    let cats = categories(&fused);
    println!(
        "sample categories (first 5): {:?}",
        &cats[..cats.len().min(5)]
    );
}
