//! RadiX-Net-style synthetic sparse DNN topologies.
//!
//! The Sparse DNN Challenge evaluates on RadiX-Net networks: layered,
//! equal-width, *fixed fan-in* topologies built from mixed-radix butterfly
//! permutations, so every neuron participates and paths mix across the
//! whole width. This generator reproduces the family's invariants —
//! exactly `fanin` inputs per neuron, a layer-varying stride permutation
//! for mixing, seeded weights — without the original's TensorFlow
//! tooling (substitution documented in DESIGN.md).

use hypersparse::Coo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semiring::PlusTimes;

use crate::network::SparseDnn;

/// RadiX-Net generator parameters.
#[derive(Copy, Clone, Debug)]
pub struct RadixNetParams {
    /// Neurons per layer.
    pub n_neurons: u64,
    /// Incoming connections per neuron (the Challenge uses 32).
    pub fanin: u64,
    /// Number of layers.
    pub depth: usize,
    /// Per-layer bias (must be ≤ 0; the Challenge uses negative biases
    /// matched to the fan-in).
    pub bias: f64,
}

/// Weight gain: weights are uniform in `±gain·√(6/fanin)` (signed
/// He-uniform). Around 2.0, negative biases carve out a *sustained*
/// sparse activation regime instead of the die-out/saturate knife edge
/// of all-positive weights.
pub const WEIGHT_GAIN: f64 = 2.0;

impl Default for RadixNetParams {
    fn default() -> Self {
        RadixNetParams {
            n_neurons: 1024,
            fanin: 32,
            depth: 12,
            bias: -0.3,
        }
    }
}

/// Generate a RadiX-Net-style [`SparseDnn`].
///
/// Layer ℓ connects input neuron `i` to outputs
/// `(i · stride_ℓ + k) mod N` for `k < fanin`, where `stride_ℓ` is an
/// odd (hence invertible mod 2^k widths) per-layer multiplier — a
/// butterfly-like permutation guaranteeing fixed fan-in *and* fan-out
/// mixing. Weights are signed He-uniform (`±WEIGHT_GAIN·√(6/fanin)`):
/// ReLU prunes the negative half, and the bias then tunes the
/// steady-state activation sparsity (≈2% at bias −0.4, ≈50% at −0.05
/// for fanin 32).
pub fn radix_net(p: RadixNetParams, seed: u64) -> SparseDnn {
    assert!(p.fanin <= p.n_neurons, "fanin exceeds width");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = p.n_neurons;
    let mut layers = Vec::with_capacity(p.depth);
    for l in 0..p.depth {
        let stride = ((2 * (l as u64) + 3) % n) | 1; // odd, layer-varying
        let a = WEIGHT_GAIN * (6.0 / p.fanin as f64).sqrt();
        let mut c = Coo::new(n, n);
        for i in 0..n {
            let base = (i * stride) % n;
            for k in 0..p.fanin {
                let j = (base + k) % n;
                let mut w = 0.0;
                while w == 0.0 {
                    // signed, never exactly zero (a zero weight would be
                    // dropped and break the fixed-fan-in invariant)
                    w = rng.gen_range(-a..a);
                }
                c.push(i, j, w);
            }
        }
        layers.push(c.build_dcsr(PlusTimes::<f64>::new()));
    }
    SparseDnn::new(n, layers, vec![p.bias; p.depth])
}

/// A uniformly random sparse layer stack (no fan-in guarantee) — the
/// "unstructured" contrast used by ablations.
pub fn random_net(
    n_neurons: u64,
    nnz_per_layer: usize,
    depth: usize,
    bias: f64,
    seed: u64,
) -> SparseDnn {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = (0..depth)
        .map(|_| {
            let mut c = Coo::new(n_neurons, n_neurons);
            for _ in 0..nnz_per_layer {
                c.push(
                    rng.gen_range(0..n_neurons),
                    rng.gen_range(0..n_neurons),
                    rng.gen::<f64>() * 0.1,
                );
            }
            c.build_dcsr(PlusTimes::<f64>::new())
        })
        .collect();
    SparseDnn::new(n_neurons, layers, vec![bias; depth])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_fanin_everywhere() {
        let p = RadixNetParams {
            n_neurons: 64,
            fanin: 8,
            depth: 4,
            bias: -0.1,
        };
        let net = radix_net(p, 5);
        for w in &net.layers {
            // Every row has exactly `fanin` outputs…
            assert_eq!(w.n_nonempty_rows(), 64);
            for (_, cols, _) in w.iter_rows() {
                assert_eq!(cols.len(), 8);
            }
            // …and column sums show every neuron receives input.
            let mut indeg = vec![0u32; 64];
            for (_, c, _) in w.iter() {
                indeg[c as usize] += 1;
            }
            assert!(indeg.iter().all(|&d| d > 0));
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let p = RadixNetParams::default();
        let a = radix_net(p, 1);
        let b = radix_net(p, 1);
        assert_eq!(a.layers[0], b.layers[0]);
        let c = radix_net(p, 2);
        assert_ne!(a.layers[0], c.layers[0]);
    }

    #[test]
    fn density_matches_fanin() {
        let p = RadixNetParams {
            n_neurons: 128,
            fanin: 16,
            depth: 3,
            bias: -0.1,
        };
        let net = radix_net(p, 3);
        assert!((net.density() - 16.0 / 128.0).abs() < 1e-12);
    }
}
