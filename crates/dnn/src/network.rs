//! Sparse DNN model: hypersparse weight layers + per-layer biases.

use std::fmt;

use hypersparse::index::dims_fit;
use hypersparse::Dcsr;

/// Why a [`SparseDnn`] could not be assembled.
///
/// [`SparseDnn::new`] panics with these messages; [`SparseDnn::try_new`]
/// returns them, so a serving layer loading untrusted model files can
/// reject a bad network without unwinding.
#[derive(Clone, Debug, PartialEq)]
pub enum DnnError {
    /// `layers` and `biases` disagree on the network depth.
    BiasCount {
        /// Number of weight layers supplied.
        layers: usize,
        /// Number of biases supplied.
        biases: usize,
    },
    /// A weight matrix is not `n_neurons × n_neurons`.
    LayerShape {
        /// Which layer failed the check.
        layer: usize,
        /// Its actual `(nrows, ncols)`.
        got: (u64, u64),
        /// The required square width.
        n_neurons: u64,
    },
    /// A bias is positive, which breaks the sparse formulation: a neuron
    /// with *no* incoming activation would read `relu(0 + b) = b > 0` in
    /// the dense semantics, but sparse kernels never evaluate absent
    /// entries, so that contribution is silently dropped. The RadiX-Net
    /// invariant (see [`crate::radix`]) is `bias ≤ 0`; positive
    /// per-neuron biases need the explicit `B = b|Y𝟙|₀` construction in
    /// [`crate::bias`] instead.
    PositiveBias {
        /// Which layer carries the offending bias.
        layer: usize,
        /// The bias value.
        bias: f64,
    },
    /// The network is wider than the 32-bit neuron ids its layers are
    /// stored in.
    TooWide {
        /// The requested width.
        n_neurons: u64,
    },
}

impl fmt::Display for DnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnnError::BiasCount { layers, biases } => {
                write!(f, "one bias per layer: {layers} layers, {biases} biases")
            }
            DnnError::LayerShape {
                layer,
                got,
                n_neurons,
            } => write!(
                f,
                "layer {layer} dimension mismatch: {}×{}, want {n_neurons}×{n_neurons}",
                got.0, got.1
            ),
            DnnError::PositiveBias { layer, bias } => write!(
                f,
                "layer {layer} bias {bias} > 0 breaks sparse/dense equivalence"
            ),
            DnnError::TooWide { n_neurons } => {
                write!(f, "{n_neurons} neurons exceed a 32-bit neuron id")
            }
        }
    }
}

impl std::error::Error for DnnError {}

/// An `L`-layer sparse feed-forward network. Uses the graph convention
/// of §V.C: `W(i, j) ≠ 0` connects neuron `i` to neuron `j`, activations
/// are *row* vectors, and inference is left-multiplication `Y W`.
#[derive(Clone, Debug)]
pub struct SparseDnn {
    /// Neurons per layer (all layers equal width, as in the Challenge).
    pub n_neurons: u64,
    /// Weight matrices, one per layer (`n_neurons × n_neurons`), stored
    /// once at the `u32` neuron ids every inference runs on (DESIGN.md
    /// §13).
    pub layers: Vec<Dcsr<f64, u32>>,
    /// Per-layer scalar bias, applied to every active neuron.
    ///
    /// Must be ≤ 0: a non-positive bias keeps the sparse formulation
    /// exact, because an output with *no* incoming activation would get
    /// `relu(0 + b) = 0` — exactly what "not stored" means. (The Sparse
    /// DNN Challenge biases are negative for the same reason.)
    pub biases: Vec<f64>,
}

impl SparseDnn {
    /// Assemble a network, checking layer conformance and bias signs.
    /// Panics on a bad network; [`SparseDnn::try_new`] is the fallible
    /// twin with the same checks.
    pub fn new(n_neurons: u64, layers: Vec<Dcsr<f64>>, biases: Vec<f64>) -> Self {
        Self::try_new(n_neurons, layers, biases).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Assemble a network, returning a typed [`DnnError`] instead of
    /// panicking when the layer count, a layer shape, a bias sign or the
    /// width is wrong. `bias ≤ 0` is a *validity* condition, not a
    /// convention: see [`DnnError::PositiveBias`]. The layers are
    /// re-stored at `u32` neuron ids here, once for the model's
    /// lifetime; a network too wide for them is [`DnnError::TooWide`].
    pub fn try_new(
        n_neurons: u64,
        layers: Vec<Dcsr<f64>>,
        biases: Vec<f64>,
    ) -> Result<Self, DnnError> {
        if layers.len() != biases.len() {
            return Err(DnnError::BiasCount {
                layers: layers.len(),
                biases: biases.len(),
            });
        }
        for (i, w) in layers.iter().enumerate() {
            if (w.nrows(), w.ncols()) != (n_neurons, n_neurons) {
                return Err(DnnError::LayerShape {
                    layer: i,
                    got: (w.nrows(), w.ncols()),
                    n_neurons,
                });
            }
        }
        for (i, b) in biases.iter().enumerate() {
            if *b > 0.0 {
                return Err(DnnError::PositiveBias { layer: i, bias: *b });
            }
        }
        if !dims_fit::<u32>(n_neurons, n_neurons) {
            return Err(DnnError::TooWide { n_neurons });
        }
        let layers = layers
            .iter()
            .map(|w| w.to_index_width().expect("width checked"))
            .collect();
        Ok(SparseDnn {
            n_neurons,
            layers,
            biases,
        })
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total stored weights across layers.
    pub fn n_weights(&self) -> usize {
        self.layers.iter().map(|w| w.nnz()).sum()
    }

    /// Connection density: stored weights / (layers × N²).
    pub fn density(&self) -> f64 {
        let cells = self.depth() as f64 * (self.n_neurons as f64).powi(2);
        self.n_weights() as f64 / cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersparse::Coo;
    use semiring::PlusTimes;

    fn w(n: u64, edges: &[(u64, u64, f64)]) -> Dcsr<f64> {
        let mut c = Coo::new(n, n);
        c.extend(edges.iter().copied());
        c.build_dcsr(PlusTimes::<f64>::new())
    }

    #[test]
    fn construction_and_stats() {
        let net = SparseDnn::new(
            4,
            vec![w(4, &[(0, 1, 1.0), (1, 2, 1.0)]), w(4, &[(2, 3, 1.0)])],
            vec![-0.5, 0.0],
        );
        assert_eq!(net.depth(), 2);
        assert_eq!(net.n_weights(), 3);
        assert!((net.density() - 3.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bias")]
    fn positive_bias_rejected() {
        SparseDnn::new(4, vec![w(4, &[(0, 1, 1.0)])], vec![0.1]);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        let e = SparseDnn::try_new(4, vec![w(4, &[(0, 1, 1.0)])], vec![0.1]).unwrap_err();
        assert_eq!(
            e,
            DnnError::PositiveBias {
                layer: 0,
                bias: 0.1
            }
        );
        assert!(e.to_string().contains("sparse/dense equivalence"), "{e}");

        let e = SparseDnn::try_new(4, vec![w(4, &[])], vec![-0.1, -0.2]).unwrap_err();
        assert_eq!(
            e,
            DnnError::BiasCount {
                layers: 1,
                biases: 2
            }
        );

        let e = SparseDnn::try_new(3, vec![w(4, &[])], vec![-0.1]).unwrap_err();
        assert_eq!(
            e,
            DnnError::LayerShape {
                layer: 0,
                got: (4, 4),
                n_neurons: 3
            }
        );
        assert!(e.to_string().contains("dimension mismatch"), "{e}");

        // Boundary: bias = 0.0 is valid (relu(0 + 0) = 0 = "not stored").
        assert!(SparseDnn::try_new(4, vec![w(4, &[(0, 1, 1.0)])], vec![0.0]).is_ok());

        // Exactly 2³² neurons still fit 32-bit ids; one more does not.
        for (n, fits) in [(1 << 32, true), ((1 << 32) + 1, false)] {
            let got = SparseDnn::try_new(n, vec![w(n, &[(0, n - 1, 1.0)])], vec![0.0]);
            assert_eq!(got.is_ok(), fits, "{n}");
        }
        let e = SparseDnn::try_new((1 << 32) + 1, vec![], vec![]).unwrap_err();
        assert_eq!(
            e,
            DnnError::TooWide {
                n_neurons: (1 << 32) + 1
            }
        );
        assert!(e.to_string().contains("32-bit"), "{e}");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_layer_shape_rejected() {
        SparseDnn::new(4, vec![w(4, &[(0, 1, 1.0)])], vec![0.0]);
        let bad = {
            let mut c = Coo::new(3, 3);
            c.push(0, 1, 1.0);
            c.build_dcsr(PlusTimes::<f64>::new())
        };
        SparseDnn::new(4, vec![bad], vec![0.0]);
    }
}
