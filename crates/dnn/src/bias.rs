//! The paper's bias replication `B_ℓ = b_ℓ |Y_ℓ 𝟙|₀`, literally.
//!
//! §V.C defines batch inference as `Y_{ℓ+1} = h(Y_ℓ W_ℓ + B_ℓ)` with the
//! bias *matrix* `B_ℓ` built by replicating the bias row-vector `b_ℓ`
//! into every **active** row of the batch: `|Y_ℓ 𝟙|₀` is the 0/1 column
//! vector marking rows with any activation, and `B_ℓ` is its outer
//! product with `b_ℓ`. This module implements that construction exactly
//! and uses it for *per-neuron* bias vectors — including positive
//! biases, which the scalar fused path cannot support (a positive bias
//! would activate neurons with no incoming signal, which "not stored"
//! cannot express; `B = b|Y𝟙|₀` handles it because the bias lands on
//! every column of every active row).

use hypersparse::{Coo, Dcsr, Ix, SparseVec};
use semiring::{FnOp, PlusMonoid, PlusTimes, ZeroNorm};

type S = PlusTimes<f64>;

fn s() -> S {
    S::new()
}

/// `|Y 𝟙|₀` — the 0/1 indicator of rows with at least one activation
/// (`Y 𝟙` is a row reduction; the zero-norm maps sums to 1).
pub fn active_rows(y: &Dcsr<f64>) -> SparseVec<f64> {
    let entries: Vec<(Ix, f64)> = y.iter_rows().map(|(r, _, _)| (r, 1.0)).collect();
    SparseVec::from_entries(y.nrows(), entries, s())
}

/// `B = b |Y 𝟙|₀` — the bias matrix: row `r` equals the bias vector `b`
/// whenever batch row `r` is active, and is empty otherwise.
pub fn bias_matrix(y: &Dcsr<f64>, b: &[f64]) -> Dcsr<f64> {
    assert_eq!(b.len() as Ix, y.ncols(), "bias vector width");
    bias_matrix_from_indicator(&active_rows(y), y.ncols(), b)
}

/// One inference layer with an explicit per-neuron bias vector, computed
/// exactly as the paper writes it: `Y' = h(Y W + b|Y𝟙|₀)`.
pub fn layer_with_bias_vector(y: &Dcsr<f64>, w: &Dcsr<f64>, b: &[f64]) -> Dcsr<f64> {
    hypersparse::with_default_ctx(|ctx| {
        let yw = hypersparse::ops::mxm_ctx(ctx, y, w, s());
        // B must mark the rows active in *Y* (the input batch), per the paper.
        let bias = bias_matrix_from_indicator(&active_rows(y), y.ncols(), b);
        let sum = hypersparse::ops::ewise_add_ctx(ctx, &yw, &bias, s());
        hypersparse::ops::apply_prune_ctx(ctx, &sum, FnOp(|x: f64| x.max(0.0)), s())
    })
}

/// `b` on every row the indicator `act` holds, zeros of `b` unstored.
fn bias_matrix_from_indicator(act: &SparseVec<f64>, ncols: Ix, b: &[f64]) -> Dcsr<f64> {
    let mut c = Coo::new(act.dim(), ncols);
    for (r, _) in act.iter() {
        for (j, &bj) in b.iter().enumerate() {
            if bj != 0.0 {
                c.push(r, j as Ix, bj);
            }
        }
    }
    c.build_dcsr(s())
}

/// Full-network inference with per-neuron bias vectors (one per layer).
pub fn infer_with_bias_vectors(
    layers: &[Dcsr<f64>],
    biases: &[Vec<f64>],
    y0: &Dcsr<f64>,
) -> Dcsr<f64> {
    assert_eq!(layers.len(), biases.len(), "one bias vector per layer");
    let mut y = y0.clone();
    for (w, b) in layers.iter().zip(biases) {
        y = layer_with_bias_vector(&y, w, b);
    }
    y
}

/// Dense oracle for one explicit-bias layer (bias applied to active rows
/// only, like the formula).
pub fn layer_oracle(y: &Dcsr<f64>, w: &Dcsr<f64>, b: &[f64]) -> Vec<(Ix, Ix, f64)> {
    let n = w.ncols() as usize;
    let mut out = Vec::new();
    for (r, ycols, yvals) in y.iter_rows() {
        let mut z = vec![0.0f64; n];
        for (&k, yv) in ycols.iter().zip(yvals) {
            let (wcols, wvals) = w.row(k);
            for (&j, wv) in wcols.iter().zip(wvals) {
                z[j as usize] += yv * wv;
            }
        }
        for (j, zj) in z.iter().enumerate() {
            let v = (zj + b[j]).max(0.0);
            if v != 0.0 {
                out.push((r, j as Ix, v));
            }
        }
    }
    out.sort_by_key(|&(r, c, _)| (r, c));
    out
}

/// The `Y 𝟙` reduction itself (row sums) — exposed because the paper's
/// formula names it; `active_rows` is its zero-norm.
pub fn row_sums(y: &Dcsr<f64>) -> SparseVec<f64> {
    hypersparse::with_default_ctx(|ctx| {
        hypersparse::ops::reduce_rows_ctx(ctx, y, PlusMonoid::<f64>::default())
    })
}

/// Zero-norm of a sparse vector (helper mirroring `| |₀` on matrices).
pub fn vec_zero_norm(v: &SparseVec<f64>) -> SparseVec<f64> {
    v.apply(ZeroNorm(s()), s())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer_fused;
    use crate::input::sparse_batch;
    use crate::network::SparseDnn;
    use crate::radix::{radix_net, RadixNetParams};

    #[test]
    fn active_rows_is_zero_norm_of_row_sums() {
        let y = sparse_batch(6, 16, 0.2, 1);
        let a = active_rows(&y);
        let b = vec_zero_norm(&row_sums(&y));
        assert_eq!(a, b);
    }

    #[test]
    fn bias_matrix_covers_active_rows_only() {
        let mut c = Coo::new(4, 3);
        c.extend([(0, 1, 1.0), (2, 0, 1.0)]);
        let y = c.build_dcsr(s());
        let b = bias_matrix(&y, &[-0.1, 0.2, 0.0]);
        assert_eq!(b.get(0, 0), Some(&-0.1));
        assert_eq!(b.get(0, 1), Some(&0.2));
        assert_eq!(b.get(0, 2), None); // zero bias not stored
        assert_eq!(b.get(1, 0), None); // inactive row
        assert_eq!(b.get(2, 1), Some(&0.2));
        assert_eq!(b.nnz(), 4);
    }

    #[test]
    fn explicit_formula_matches_oracle_with_mixed_sign_biases() {
        let net = radix_net(
            RadixNetParams {
                n_neurons: 32,
                fanin: 4,
                depth: 1,
                bias: 0.0,
            },
            3,
        );
        let y = sparse_batch(4, 32, 0.25, 5);
        // Mixed positive/negative per-neuron biases.
        let b: Vec<f64> = (0..32)
            .map(|j| if j % 3 == 0 { 0.2 } else { -0.1 })
            .collect();
        let w: Dcsr<f64> = net.layers[0].to_index_width().unwrap();
        let got: Vec<_> = layer_with_bias_vector(&y, &w, &b)
            .iter()
            .map(|(r, c, &v)| (r, c, v))
            .collect();
        let want = layer_oracle(&y, &w, &b);
        assert_eq!(got.len(), want.len());
        for ((gr, gc, gv), (wr, wc, wv)) in got.iter().zip(&want) {
            assert_eq!((gr, gc), (wr, wc));
            assert!((gv - wv).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_nonpositive_bias_vector_equals_scalar_fused_path() {
        let net = radix_net(
            RadixNetParams {
                n_neurons: 64,
                fanin: 8,
                depth: 4,
                bias: -0.05,
            },
            7,
        );
        let y0 = sparse_batch(4, 64, 0.2, 9);
        let biases: Vec<Vec<f64>> = (0..net.depth()).map(|_| vec![-0.05; 64]).collect();
        let layers: Vec<Dcsr<f64>> = (net.layers.iter())
            .map(|w| w.to_index_width().unwrap())
            .collect();
        let explicit = infer_with_bias_vectors(&layers, &biases, &y0);
        let fused = infer_fused(&net, &y0);
        assert_eq!(explicit, fused);
    }

    #[test]
    fn positive_bias_activates_silent_neurons_only_via_explicit_formula() {
        // One active row, weight matrix empty: YW = 0 everywhere, yet the
        // paper's B = b|Y𝟙|₀ applies the positive bias to the active row.
        let w = Dcsr::<f64>::empty(4, 4);
        let mut c = Coo::new(1, 4);
        c.push(0, 0, 1.0);
        let y = c.build_dcsr(s());
        let b = vec![0.5, 0.0, 0.0, 0.0];
        let out = layer_with_bias_vector(&y, &w, &b);
        assert_eq!(out.get(0, 0), Some(&0.5));
        // The scalar fused path cannot express this (it asserts b ≤ 0).
        let err = std::panic::catch_unwind(|| {
            SparseDnn::new(4, vec![w.clone()], vec![0.5]);
        });
        assert!(err.is_err());
    }

    #[test]
    fn inactive_rows_stay_silent_even_with_positive_bias() {
        let w = Dcsr::<f64>::empty(4, 4);
        let y = Dcsr::<f64>::empty(2, 4); // no active rows at all
        let out = layer_with_bias_vector(&y, &w, &[0.5; 4]);
        assert_eq!(out.nnz(), 0);
    }
}
