//! Three readings of the same inference — proven pointwise equal.
//!
//! * [`infer_fused`]: the engineering formulation — one fused
//!   SpGEMM-with-epilogue per layer (`mxm_apply_prune_ctx`), the
//!   `max(x + b, 0)` prune running at accumulator-drain time so the
//!   intermediate product `Z = Y W` is never materialized;
//! * [`infer_two_semiring`]: the paper's §V.C formulation — `Y W` in
//!   `S₁ = +.×`, then literally `(· ⊗ b) ⊕ 0` in `S₂ = max.+`, every
//!   scalar step going through the semiring objects;
//! * [`infer_dense`]: a row-major `Vec<f64>` baseline with no sparse
//!   machinery at all.
//!
//! Every sparse path runs on the execution-context stack: the
//! `try_*_ctx` entry points thread one [`OpCtx`] through all layers (SpGEMM scratch
//! is leased from its arena and reused layer to layer, parallelism
//! follows its thread cap, and each layer records a
//! [`Kernel::DnnLayer`] metrics row plus a trace span). Each sparse
//! reading has one body, `try_*_ctx`, returning
//! [`OpError::DimensionMismatch`] on a batch whose width disagrees with
//! the network, plus the bare name, which runs it on the thread's
//! default context and panics with that error.
//!
//! Batches are `batch × neurons` matrices; activations stay hypersparse
//! between layers, which is where the Fig. 8 speedups come from.

use std::time::Instant;

use hypersparse::{ops, with_default_ctx, Dcsr, DenseMat, IndexType, Kernel, OpCtx, OpError};
use semiring::semilink::DnnSemiringPair;
use semiring::{FnOp, MaxPlus, PlusTimes, Semiring};

use crate::network::SparseDnn;

type S1 = PlusTimes<f64>;

/// Batch width must equal the network width for `Y W` to conform.
fn check_batch(op: &'static str, net: &SparseDnn, y0: &Dcsr<f64>) -> Result<(), OpError> {
    if y0.ncols() != net.n_neurons {
        return Err(OpError::DimensionMismatch {
            op,
            a: (y0.nrows(), y0.ncols()),
            b: (net.n_neurons, net.n_neurons),
            rule: "batch width mismatch",
        });
    }
    Ok(())
}

/// Fused sparse inference: `Y ← relu(Y W + b)` with one fused
/// SpGEMM+prune kernel per layer. [`try_infer_fused_ctx`] on the
/// thread's default context; panics on a batch-width mismatch.
pub fn infer_fused(net: &SparseDnn, y0: &Dcsr<f64>) -> Dcsr<f64> {
    with_default_ctx(|ctx| try_infer_fused_ctx(ctx, net, y0)).unwrap_or_else(|e| panic!("{e}"))
}

/// Fused inference through an explicit execution context: one [`OpCtx`]
/// drives every layer, so SpGEMM scratch leased for layer `k` is a pool
/// hit for layer `k+1`, and per-layer counters land on the context's
/// [`Kernel::DnnLayer`] metrics row. A batch whose width disagrees with
/// the network becomes an [`OpError::DimensionMismatch`].
pub fn try_infer_fused_ctx(
    ctx: &OpCtx,
    net: &SparseDnn,
    y0: &Dcsr<f64>,
) -> Result<Dcsr<f64>, OpError> {
    check_batch("dnn_infer_fused", net, y0)?;
    // Narrow-index auto-selection (DESIGN.md §13): when the batch key
    // space fits 32-bit column ids — and therefore the square weight
    // layers do too — re-store activations once and each layer's weights
    // on the fly, and run the whole fused loop over `u32` ids. The
    // O(nnz) re-stores are linear passes; the SpGEMM inner loops they
    // feed stream half the index bytes per multiply.
    if let Some(mut y) = y0.to_index_width::<u32>() {
        for (k, (w, &b)) in net.layers.iter().zip(&net.biases).enumerate() {
            let w32 = w
                .to_index_width::<u32>()
                .expect("layer dims equal checked batch dims");
            y = fused_layer(ctx, k, y, &w32, b);
        }
        return Ok(y.to_index_width().expect("widening always fits"));
    }
    let mut y = y0.clone();
    for (k, (w, &b)) in net.layers.iter().zip(&net.biases).enumerate() {
        y = fused_layer(ctx, k, y, w, b);
    }
    Ok(y)
}

/// One fused layer step `relu(Y W + b)`, generic over the physical
/// index width so the narrow and wide inference loops share one body.
fn fused_layer<I: IndexType>(
    ctx: &OpCtx,
    k: usize,
    y: Dcsr<f64, I>,
    w: &Dcsr<f64, I>,
    b: f64,
) -> Dcsr<f64, I> {
    let _span = ctx.kernel_span(Kernel::DnnLayer, || {
        format!("layer {k}: {} act · {} wt", y.nnz(), w.nnz())
    });
    let start = Instant::now();
    let nnz_in = (y.nnz() + w.nnz()) as u64;
    // One pass: Z = Y W in S₁ with the bias+ReLU epilogue applied as
    // each accumulator drains; entries pruned to the S₁ zero never
    // reach the output. (⊗ counts land on the Mxm row.)
    let s1 = S1::new();
    let y = ops::mxm_apply_prune_ctx(ctx, &y, w, s1, FnOp(move |x: f64| (x + b).max(0.0)), s1);
    let bytes = (y.bytes() + w.bytes()) as u64;
    ctx.metrics().record(
        Kernel::DnnLayer,
        start.elapsed(),
        nnz_in,
        y.nnz() as u64,
        0,
        bytes,
    );
    y
}

/// The literal two-semiring oscillation of §V.C:
/// `Y_{k+1} = Y_k W_k ⊗ b_k ⊕ 0`, with the product in `S₁` and the
/// bias/rectification in `S₂ = max.+` — every scalar operation routed
/// through the [`DnnSemiringPair`] object.
/// [`try_infer_two_semiring_ctx`] on the thread's default context;
/// panics on a batch-width mismatch.
pub fn infer_two_semiring(net: &SparseDnn, y0: &Dcsr<f64>) -> Dcsr<f64> {
    with_default_ctx(|ctx| try_infer_two_semiring_ctx(ctx, net, y0))
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The two-semiring oscillation through an explicit execution context;
/// a batch-width mismatch becomes an [`OpError::DimensionMismatch`].
///
/// Unlike the fused path this keeps the two-pass structure the paper
/// writes (an `S₁` multiply, then the `S₂` bias/rectify as its own
/// kernel), but the rectify step goes through
/// [`ops::apply_prune_ctx`] with the **dropped-zero semiring explicit**:
/// the values are computed in `S₂ = max.+`, yet the prune must use the
/// `S₁` zero (`0.0`), *not* the `S₂` zero (`−∞`). `max(x + b, 0)` can
/// produce `0.0` but never `−∞`, so pruning by the S₂ zero would store
/// every rectified-to-silence neuron and the activations would densify
/// instead of staying hypersparse — `0.0` is what "carries no signal
/// into the next S₁ correlation" means, and the next multiply is in S₁.
pub fn try_infer_two_semiring_ctx(
    ctx: &OpCtx,
    net: &SparseDnn,
    y0: &Dcsr<f64>,
) -> Result<Dcsr<f64>, OpError> {
    check_batch("dnn_infer_two_semiring", net, y0)?;
    let pair = DnnSemiringPair::default();
    let s2: MaxPlus<f64> = pair.select;
    let mut y = y0.clone();
    for (k, (w, &b)) in net.layers.iter().zip(&net.biases).enumerate() {
        let _span = ctx.kernel_span(Kernel::DnnLayer, || {
            format!("layer {k}: {} act · {} wt", y.nnz(), w.nnz())
        });
        let start = Instant::now();
        let nnz_in = (y.nnz() + w.nnz()) as u64;
        // S₁: correlation.
        let z = ops::mxm_ctx(ctx, &y, w, pair.correlate);
        // S₂: (z ⊗ b) ⊕ 0 = max(z + b, 0), pruned against the S₁ zero.
        y = ops::apply_prune_ctx(
            ctx,
            &z,
            FnOp(move |x: f64| s2.add(s2.mul(x, b), 0.0)),
            pair.correlate,
        );
        let bytes = (y.bytes() + w.bytes()) as u64;
        ctx.metrics().record(
            Kernel::DnnLayer,
            start.elapsed(),
            nnz_in,
            y.nnz() as u64,
            0,
            bytes,
        );
    }
    Ok(y)
}

/// Dense baseline: full `batch × n` activation rows, no sparsity.
/// Weights are read from the same sparse layers (their absent entries
/// are true zeros), so results are comparable entry-for-entry.
pub fn infer_dense(net: &SparseDnn, y0: &DenseMat<f64>) -> DenseMat<f64> {
    assert_eq!(y0.ncols(), net.n_neurons, "batch width mismatch");
    let batch = y0.nrows();
    let n = net.n_neurons;
    let mut y: Vec<Vec<f64>> = (0..batch).map(|r| y0.row(r).to_vec()).collect();
    let mut z = vec![0.0f64; n as usize];
    for (w, &b) in net.layers.iter().zip(&net.biases) {
        for row in y.iter_mut() {
            z.iter_mut().for_each(|x| *x = 0.0);
            // z = row · W, exploiting W's row sparsity only (the
            // activation row is treated as fully dense).
            for (i, cols, vals) in w.iter_rows() {
                let a = row[i as usize];
                if a != 0.0 {
                    for (&j, wv) in cols.iter().zip(vals) {
                        z[j as usize] += a * wv;
                    }
                }
            }
            for (x, zv) in row.iter_mut().zip(&z) {
                *x = (zv + b).max(0.0);
            }
        }
    }
    let mut out = DenseMat::filled(batch, n, 0.0);
    for (r, row) in y.iter().enumerate() {
        for (c, &v) in row.iter().enumerate() {
            if v != 0.0 {
                out.set(r as u64, c as u64, v);
            }
        }
    }
    out
}

/// Fully dense GEMM baseline: weights are materialized as dense row-major
/// buffers (outside the timed region via [`densify_weights`]) and every
/// layer performs the full `batch × N × N` multiply-accumulate — the
/// TensorFlow-style comparator of the Sparse DNN Challenge, blind to both
/// weight and activation sparsity.
pub fn infer_dense_full(
    net: &SparseDnn,
    dense_weights: &[Vec<f64>],
    y0: &DenseMat<f64>,
) -> DenseMat<f64> {
    assert_eq!(y0.ncols(), net.n_neurons, "batch width mismatch");
    assert_eq!(dense_weights.len(), net.depth());
    let batch = y0.nrows() as usize;
    let n = net.n_neurons as usize;
    let mut y: Vec<f64> = (0..y0.nrows())
        .flat_map(|r| y0.row(r).iter().copied())
        .collect();
    let mut z = vec![0.0f64; batch * n];
    for (w, &b) in dense_weights.iter().zip(&net.biases) {
        z.iter_mut().for_each(|x| *x = 0.0);
        for r in 0..batch {
            let yrow = &y[r * n..(r + 1) * n];
            let zrow = &mut z[r * n..(r + 1) * n];
            for (i, &a) in yrow.iter().enumerate() {
                let wrow = &w[i * n..(i + 1) * n];
                for (zj, wj) in zrow.iter_mut().zip(wrow) {
                    *zj += a * wj;
                }
            }
        }
        for (yv, zv) in y.iter_mut().zip(&z) {
            *yv = (zv + b).max(0.0);
        }
    }
    let mut out = DenseMat::filled(y0.nrows(), net.n_neurons, 0.0);
    for r in 0..batch {
        for c in 0..n {
            let v = y[r * n + c];
            if v != 0.0 {
                out.set(r as u64, c as u64, v);
            }
        }
    }
    out
}

/// Materialize each layer's weights as a dense row-major buffer (the
/// untimed setup step for [`infer_dense_full`]).
pub fn densify_weights(net: &SparseDnn) -> Vec<Vec<f64>> {
    let n = net.n_neurons as usize;
    net.layers
        .iter()
        .map(|w| {
            let mut d = vec![0.0f64; n * n];
            for (i, j, v) in w.iter() {
                d[i as usize * n + j as usize] = *v;
            }
            d
        })
        .collect()
}

/// Category readout: argmax neuron per batch row (ties → lowest id).
pub fn categories(y: &Dcsr<f64>) -> Vec<(u64, u64)> {
    y.iter_rows()
        .map(|(r, cols, vals)| {
            let mut best = (cols[0], vals[0]);
            for (&c, &v) in cols.iter().zip(vals) {
                if v > best.1 {
                    best = (c, v);
                }
            }
            (r, best.0)
        })
        .collect()
}

/// Entry-for-entry comparison of sparse and dense activations.
pub fn equivalent(sparse: &Dcsr<f64>, dense: &DenseMat<f64>, tol: f64) -> bool {
    if sparse.nrows() != dense.nrows() || sparse.ncols() != dense.ncols() {
        return false;
    }
    let s1 = S1::new();
    let mut nnz_dense = 0usize;
    for r in 0..dense.nrows() {
        for c in 0..dense.ncols() {
            let dv = *dense.get(r, c);
            if !s1.is_zero(&dv) {
                nnz_dense += 1;
                match sparse.get(r, c) {
                    Some(sv) if (sv - dv).abs() <= tol * dv.abs().max(1.0) => {}
                    _ => return false,
                }
            }
        }
    }
    nnz_dense == sparse.nnz()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::sparse_batch;
    use crate::radix::{radix_net, RadixNetParams};
    use hypersparse::Coo;

    fn small_net() -> SparseDnn {
        radix_net(
            RadixNetParams {
                n_neurons: 64,
                fanin: 8,
                depth: 6,
                bias: -0.05,
            },
            42,
        )
    }

    #[test]
    fn hand_computed_single_layer() {
        // One neuron chain: y=2 through w=3 with b=-1 → relu(6-1)=5.
        let mut c = Coo::new(2, 2);
        c.push(0, 1, 3.0);
        let w = c.build_dcsr(S1::new());
        let net = SparseDnn::new(2, vec![w], vec![-1.0]);
        let mut y = Coo::new(1, 2);
        y.push(0, 0, 2.0);
        let y0 = y.build_dcsr(S1::new());
        let out = infer_fused(&net, &y0);
        assert_eq!(out.get(0, 1), Some(&5.0));
        assert_eq!(out.nnz(), 1);
    }

    #[test]
    fn rectification_drops_weak_signals() {
        // relu(0.5 - 1.0) = 0 → entry vanishes from the sparse output.
        let mut c = Coo::new(2, 2);
        c.push(0, 1, 0.5);
        let w = c.build_dcsr(S1::new());
        let net = SparseDnn::new(2, vec![w], vec![-1.0]);
        let mut y = Coo::new(1, 2);
        y.push(0, 0, 1.0);
        let out = infer_fused(&net, &y.build_dcsr(S1::new()));
        assert_eq!(out.nnz(), 0);
    }

    #[test]
    fn two_semiring_equals_fused() {
        let net = small_net();
        let y0 = sparse_batch(8, 64, 0.2, 7);
        let a = infer_fused(&net, &y0);
        let b = infer_two_semiring(&net, &y0);
        assert_eq!(a, b, "S1/S2 oscillation must equal the fused kernel");
    }

    #[test]
    fn narrow_auto_selection_matches_wide_loop() {
        // 64 neurons < 2³², so the public entry takes the u32 loop;
        // drive the shared layer body at wide indices and compare.
        let net = small_net();
        let y0 = sparse_batch(8, 64, 0.2, 99);
        let auto = infer_fused(&net, &y0);
        let wide = with_default_ctx(|ctx| {
            let mut y = y0.clone();
            for (k, (w, &b)) in net.layers.iter().zip(&net.biases).enumerate() {
                y = fused_layer(ctx, k, y, w, b);
            }
            y
        });
        assert_eq!(auto, wide, "u32 layer loop must be bit-identical to wide");
    }

    #[test]
    fn sparse_equals_dense_baseline() {
        let net = small_net();
        let y0 = sparse_batch(8, 64, 0.2, 8);
        let sparse = infer_fused(&net, &y0);
        let dense_in = DenseMat::from_dcsr(&y0, S1::new());
        let dense = infer_dense(&net, &dense_in);
        assert!(equivalent(&sparse, &dense, 1e-9));
    }

    #[test]
    fn full_dense_gemm_matches_sparse() {
        let net = small_net();
        let y0 = sparse_batch(4, 64, 0.25, 21);
        let sparse = infer_fused(&net, &y0);
        let dense_in = DenseMat::from_dcsr(&y0, S1::new());
        let dw = densify_weights(&net);
        let full = infer_dense_full(&net, &dw, &dense_in);
        assert!(equivalent(&sparse, &full, 1e-9));
    }

    #[test]
    fn densify_weights_round_trips() {
        let net = small_net();
        let dw = densify_weights(&net);
        let n = net.n_neurons as usize;
        for (w, d) in net.layers.iter().zip(&dw) {
            assert_eq!(d.len(), n * n);
            for (i, j, v) in w.iter() {
                assert_eq!(d[i as usize * n + j as usize], *v);
            }
            let dense_nnz = d.iter().filter(|x| **x != 0.0).count();
            assert_eq!(dense_nnz, w.nnz());
        }
    }

    #[test]
    fn categories_pick_argmax() {
        let mut c = Coo::new(2, 4);
        c.extend([(0, 1, 0.5), (0, 2, 0.9), (1, 3, 0.1)]);
        let y = c.build_dcsr(S1::new());
        assert_eq!(categories(&y), vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn deep_network_stays_sparse() {
        let net = radix_net(
            RadixNetParams {
                n_neurons: 256,
                fanin: 8,
                depth: 20,
                bias: -0.2,
            },
            11,
        );
        let y0 = sparse_batch(4, 256, 0.05, 12);
        let out = infer_fused(&net, &y0);
        // The negative bias keeps activations from densifying completely.
        assert!(out.nnz() < 4 * 256, "output fully dense: {}", out.nnz());
    }
}
