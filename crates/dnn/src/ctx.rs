//! [`DnnCtx`] — the inference driver that owns one execution context
//! for a whole model's lifetime.
//!
//! The free functions in [`crate::infer`] already accept an explicit
//! [`OpCtx`]; this type packages the recommended serving setup: build a
//! `DnnCtx` once, run every batch through it, and read the accumulated
//! per-layer observability out the other side. Because the context (and
//! so its workspace arena) outlives individual calls, the SpGEMM
//! scratch leased by layer 0 of batch 0 is still pooled when layer 11
//! of batch 999 asks for it — the allocation profile of steady-state
//! inference is flat.

use hypersparse::{Dcsr, MetricsSnapshot, OpCtx, OpError, TraceRegistry};

use crate::infer::{try_infer_fused_ctx, try_infer_two_semiring_ctx};
use crate::network::SparseDnn;

/// Execution-context driver for sparse DNN inference.
///
/// Thin, deliberately: all inference logic lives in [`crate::infer`];
/// `DnnCtx` owns the [`OpCtx`] whose scratch arena, thread cap,
/// metrics, and trace spans every layer shares.
#[derive(Debug, Default)]
pub struct DnnCtx {
    ctx: OpCtx,
}

impl DnnCtx {
    /// A driver with automatic parallelism (thread cap 0 = all cores).
    pub fn new() -> Self {
        Self::default()
    }

    /// A driver capped at `threads` OS threads (0 = automatic). Results
    /// are bit-identical at every setting.
    pub fn with_threads(threads: usize) -> Self {
        DnnCtx {
            ctx: OpCtx::new().with_threads(threads),
        }
    }

    /// Change the thread cap of an existing driver (0 = automatic).
    pub fn set_threads(&self, threads: usize) {
        self.ctx.set_threads(threads);
    }

    /// The underlying execution context, for anything this facade
    /// doesn't re-export (workspace introspection, trace modes, …).
    pub fn ctx(&self) -> &OpCtx {
        &self.ctx
    }

    /// Fused inference ([`crate::infer::try_infer_fused_ctx`]) through
    /// this driver's context. Panics on a batch-width mismatch.
    pub fn infer(&self, net: &SparseDnn, y0: &Dcsr<f64>) -> Dcsr<f64> {
        self.try_infer(net, y0).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`DnnCtx::infer`]: returns
    /// [`OpError::DimensionMismatch`] when the batch width disagrees
    /// with the network.
    pub fn try_infer(&self, net: &SparseDnn, y0: &Dcsr<f64>) -> Result<Dcsr<f64>, OpError> {
        try_infer_fused_ctx(&self.ctx, net, y0)
    }

    /// The literal §V.C two-semiring oscillation
    /// ([`crate::infer::try_infer_two_semiring_ctx`]) through this
    /// driver's context. Panics on a batch-width mismatch.
    pub fn infer_two_semiring(&self, net: &SparseDnn, y0: &Dcsr<f64>) -> Dcsr<f64> {
        self.try_infer_two_semiring(net, y0)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`DnnCtx::infer_two_semiring`].
    pub fn try_infer_two_semiring(
        &self,
        net: &SparseDnn,
        y0: &Dcsr<f64>,
    ) -> Result<Dcsr<f64>, OpError> {
        try_infer_two_semiring_ctx(&self.ctx, net, y0)
    }

    /// Freeze the accumulated kernel counters (per-layer rows land on
    /// [`hypersparse::Kernel::DnnLayer`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.ctx.metrics().snapshot()
    }

    /// The trace registry (span modes, slow-op capture).
    pub fn trace(&self) -> &TraceRegistry {
        self.ctx.trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::sparse_batch;
    use crate::radix::{radix_net, RadixNetParams};
    use hypersparse::Kernel;

    fn net() -> SparseDnn {
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
    fn driver_matches_free_function_and_records_layers() {
        let net = net();
        let y0 = sparse_batch(8, 64, 0.2, 7);
        let driver = DnnCtx::with_threads(1);
        let out = driver.infer(&net, &y0);
        assert_eq!(out, crate::infer::infer_fused(&net, &y0));
        let snap = driver.metrics();
        let layer = snap.kernel(Kernel::DnnLayer);
        assert_eq!(layer.calls, net.depth() as u64);
        assert!(layer.nnz_in > 0 && layer.nnz_out > 0);
        assert_eq!(snap.kernel(Kernel::Mxm).calls, net.depth() as u64);
    }

    #[test]
    fn prometheus_exposes_dnn_layer_counters() {
        let net = net();
        let y0 = sparse_batch(8, 64, 0.2, 9);
        let driver = DnnCtx::new();
        let _ = driver.infer(&net, &y0);
        let prom = driver.metrics().render_prometheus();
        assert!(
            prom.contains("hypersparse_kernel_calls_total{kernel=\"dnn_layer\"} 6"),
            "{prom}"
        );
        assert!(
            prom.contains("hypersparse_kernel_nnz_out_total{kernel=\"dnn_layer\"}"),
            "{prom}"
        );
    }

    #[test]
    fn workspace_is_reused_across_layers_and_batches() {
        let net = net();
        let driver = DnnCtx::with_threads(1);
        for seed in 0..4 {
            let y0 = sparse_batch(8, 64, 0.2, seed);
            let _ = driver.infer(&net, &y0);
        }
        let snap = driver.metrics();
        // 4 batches × 6 layers = 24 scratch leases; only the first one
        // may allocate.
        assert_eq!(snap.workspace_misses, 1, "{:?}", snap);
        assert_eq!(snap.workspace_hits, 23);
    }

    #[test]
    fn try_infer_reports_batch_mismatch() {
        let net = net();
        let bad = sparse_batch(8, 32, 0.2, 7); // 32-wide batch, 64-wide net
        let driver = DnnCtx::new();
        let e = driver.try_infer(&net, &bad).unwrap_err();
        assert!(
            matches!(
                e,
                OpError::DimensionMismatch {
                    op: "dnn_infer_fused",
                    rule: "batch width mismatch",
                    ..
                }
            ),
            "{e:?}"
        );
        let e = driver.try_infer_two_semiring(&net, &bad).unwrap_err();
        assert!(e.to_string().contains("batch width mismatch"), "{e}");
    }
}
