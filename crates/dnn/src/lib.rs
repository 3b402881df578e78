//! Sparse deep neural network inference — §V.C and Fig. 8.
//!
//! The ReLU inference step `y_{ℓ+1} = h(y_ℓ W_ℓ + b_ℓ)`,
//! `h(y) = max(y, 0)`, looks nonlinear — but the paper rewrites it as a
//! *linear system oscillating over two semirings*:
//!
//! ```text
//! Y_{k+1} = Y_k W_k ⊗ b_k ⊕ 0
//! ```
//!
//! where `Y_k W_k` is computed in `S₁ = (ℝ, +, ×, 0, 1)` (correlation of
//! inputs) and the `⊗ b_k ⊕ 0` bias-and-rectify step in
//! `S₂ = (ℝ ∪ −∞, max, +, −∞, 0)` (optimal-path selection). This crate
//! implements both readings and a dense baseline, proves them pointwise
//! equal, and generates the synthetic RadiX-Net-style networks the
//! Sparse DNN Challenge popularized:
//!
//! * [`network::SparseDnn`] — layers of hypersparse weight matrices with
//!   per-layer biases;
//! * [`radix::radix_net`] — fixed-fan-in, stride-permuted synthetic
//!   topology (every neuron has exactly `fanin` inputs);
//! * [`infer`] — `infer_fused` (one fused SpGEMM+prune kernel per
//!   layer), `infer_two_semiring` (the literal S₁/S₂ oscillation), and
//!   `infer_dense` (row-major `Vec` baseline) — each sparse path as
//!   one fallible, ctx-explicit body (`try_*_ctx`) plus the bare name
//!   on the thread's default context;
//! * [`ctx::DnnCtx`] — the serving driver: one
//!   [`hypersparse::OpCtx`] owned for the model's lifetime, so SpGEMM
//!   scratch pools across layers *and* batches, with per-layer
//!   `dnn_layer` metrics/trace spans and Prometheus exposition;
//! * [`input`] — sparse batch generators;
//! * [`bias`] — the paper's explicit bias replication `B = b|Y𝟙|₀`,
//!   supporting per-neuron (even positive) bias vectors;
//! * [`neuron`] — the 1955 weighted-sum neuron of Fig. 7, for
//!   completeness of the figure inventory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bias;
pub mod ctx;
pub mod infer;
pub mod input;
pub mod network;
pub mod neuron;
pub mod radix;

pub use ctx::DnnCtx;
pub use infer::{
    densify_weights, infer_dense, infer_dense_full, infer_fused, infer_two_semiring,
    try_infer_fused_ctx, try_infer_two_semiring_ctx,
};
pub use network::{DnnError, SparseDnn};
pub use radix::{radix_net, RadixNetParams};
