//! The §V.C / Fig. 8 scenario: sparse DNN inference as a linear system
//! oscillating between the `+.×` and `max.+` semirings, validated
//! against a dense baseline and timed — both sparse readings run on one
//! `OpCtx`, so every layer lands in its kernel metrics/trace registries.
//!
//! ```sh
//! cargo run --release --example sparse_dnn
//! ```

use std::time::Instant;

use dnn::infer::{categories, equivalent, infer_dense};
use dnn::input::sparse_batch;
use dnn::radix::{radix_net, RadixNetParams};
use dnn::{try_infer_fused_ctx, try_infer_two_semiring_ctx};
use hypersparse::{DenseMat, OpCtx};
use semiring::PlusTimes;

fn main() {
    let p = RadixNetParams {
        n_neurons: 1024,
        fanin: 32,
        depth: 12,
        bias: -0.05,
    };
    let net = radix_net(p, 7);
    println!(
        "RadiX-Net: {} neurons × {} layers, {} weights ({:.2}% dense)",
        p.n_neurons,
        p.depth,
        net.n_weights(),
        100.0 * net.density()
    );

    let batch = 64;
    let y0 = sparse_batch(batch, p.n_neurons, 0.2, 99);
    println!("batch: {} samples, {} active features", batch, y0.nnz());

    // The engineering formulation: one fused mxm+bias+ReLU+prune kernel
    // per layer, scratch reused across layers through one context.
    let ctx = OpCtx::new();
    let t = Instant::now();
    let fused = try_infer_fused_ctx(&ctx, &net, &y0).expect("batch width matches the net");
    let t_fused = t.elapsed();

    // The paper's S₁/S₂ oscillation, scalar-for-scalar through the
    // semiring objects.
    let t = Instant::now();
    let pair = try_infer_two_semiring_ctx(&ctx, &net, &y0).expect("batch width matches the net");
    let t_pair = t.elapsed();
    assert_eq!(
        fused, pair,
        "Y_{{k+1}} = Y_k W_k ⊗ b_k ⊕ 0 must match ReLU(YW+b)"
    );

    // Dense baseline.
    let dense_in = DenseMat::from_dcsr(&y0, PlusTimes::<f64>::new());
    let t = Instant::now();
    let dense = infer_dense(&net, &dense_in);
    let t_dense = t.elapsed();
    assert!(equivalent(&fused, &dense, 1e-9), "sparse ≠ dense!");

    println!(
        "output activations: {} stored ({:.2}% of batch × N)",
        fused.nnz(),
        100.0 * fused.nnz() as f64 / (batch * p.n_neurons) as f64
    );
    println!("fused sparse      : {t_fused:>10.3?}");
    println!("two-semiring (S₁/S₂): {t_pair:>8.3?}");
    println!("dense baseline    : {t_dense:>10.3?}");

    let cats = categories(&fused);
    println!(
        "sample categories (first 5): {:?}",
        cats.iter().take(5).collect::<Vec<_>>()
    );

    // Per-layer observability: both inferences above ran on this
    // context's registries.
    println!("\nkernel metrics (Prometheus exposition):");
    for line in ctx.metrics().snapshot().render_prometheus().lines() {
        if line.contains("kernel_calls_total") {
            println!("  {line}");
        }
    }

    println!("sparse_dnn OK — all three formulations agree");
}
