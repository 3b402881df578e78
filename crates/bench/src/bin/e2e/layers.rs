//! Per-layer metrics read from what the program already exposes: the
//! kernel registry snapshots and the Prometheus text exposition.

use hypersparse::{Kernel, KernelSnapshot, MetricsSnapshot};

use crate::catalog::BYTES_PER_NS_KERNELS;
use crate::harness::Metrics;

/// Row-wise difference of two snapshots of one registry, so a probe's
/// traffic can be told from whatever ran on the context before it.
pub fn kernel_delta(after: &MetricsSnapshot, before: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = after.clone();
    for k in &mut out.kernels {
        let b = before.kernel(k.kernel);
        k.calls -= b.calls;
        k.elapsed_ns -= b.elapsed_ns;
        k.nnz_in -= b.nnz_in;
        k.nnz_out -= b.nnz_out;
        k.flops -= b.flops;
        k.bytes_touched -= b.bytes_touched;
    }
    out.format_switches -= before.format_switches;
    out.workspace_hits -= before.workspace_hits;
    out.workspace_misses -= before.workspace_misses;
    out.mv_push_calls -= before.mv_push_calls;
    out.mv_pull_calls -= before.mv_pull_calls;
    out.mask_probes -= before.mask_probes;
    out.mask_hits -= before.mask_hits;
    out
}

fn per(elapsed: &[KernelSnapshot], denom: impl Fn(&KernelSnapshot) -> u64) -> (f64, f64) {
    let ns: u64 = elapsed.iter().map(|k| k.elapsed_ns).sum();
    let d: u64 = elapsed.iter().map(denom).sum();
    (ns as f64, d as f64)
}

/// The `hypersparse.*` ops metrics from one kernel registry snapshot.
/// Bytes per ns are computed from the registry's `bytes_touched`
/// (operand plus result footprints, blind to cache misses), to be read
/// beside `host.memcpy_gb_per_s`; they are not a measured bandwidth.
pub fn kernel_rows(m: &mut Metrics, snap: &MetricsSnapshot) {
    let row = |k: Kernel| snap.kernel(k);
    let flops = |k: &KernelSnapshot| k.flops;
    let nnz_in = |k: &KernelSnapshot| k.nnz_in;
    for (name, rows, denom) in [
        (
            "mxm_ns_per_flop",
            vec![row(Kernel::Mxm)],
            flops as fn(&KernelSnapshot) -> u64,
        ),
        (
            "mxm_masked_ns_per_flop",
            vec![row(Kernel::MxmMasked)],
            flops,
        ),
        ("vxm_ns_per_edge", vec![row(Kernel::Vxm)], nnz_in),
        ("mxv_ns_per_edge", vec![row(Kernel::Mxv)], nnz_in),
        (
            "reduce_ns_per_nnz",
            vec![
                row(Kernel::ReduceRows),
                row(Kernel::ReduceCols),
                row(Kernel::ReduceScalar),
            ],
            nnz_in,
        ),
        ("select_ns_per_nnz", vec![row(Kernel::Select)], nnz_in),
        ("ewise_add_ns_per_nnz", vec![row(Kernel::EwiseAdd)], nnz_in),
        ("transpose_ns_per_nnz", vec![row(Kernel::Transpose)], nnz_in),
    ] {
        let (ns, d) = per(&rows, denom);
        m.set_ratio(&format!("hypersparse.{name}"), ns, d);
    }
    let topk = row(Kernel::TopK);
    m.set_ratio(
        "hypersparse.topk_us",
        topk.elapsed_ns as f64 / 1e3,
        topk.calls as f64,
    );
    for name in BYTES_PER_NS_KERNELS {
        let k = Kernel::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .expect("catalog names a kernel row");
        let r = row(k);
        m.set(
            &format!("hypersparse.bytes_per_ns.{name}"),
            if r.elapsed_ns > 0 {
                r.bytes_touched as f64 / r.elapsed_ns as f64
            } else {
                0.0
            },
            r.calls,
        );
    }
    let ws = snap.workspace_hits + snap.workspace_misses;
    m.set(
        "hypersparse.workspace_hit_ratio",
        snap.workspace_hit_rate(),
        ws,
    );
    let mv = snap.mv_push_calls + snap.mv_pull_calls;
    m.set_ratio(
        "hypersparse.mv_push_share",
        snap.mv_push_calls as f64,
        mv as f64,
    );
    m.set(
        "hypersparse.mask_hit_rate",
        snap.mask_hit_rate(),
        snap.mask_probes,
    );
    m.set(
        "hypersparse.format_switches",
        snap.format_switches as f64,
        1,
    );
}

/// Largest shard's share of an epoch over the mean shard's.
pub fn shard_skew(per_shard_nnz: &[usize]) -> Option<f64> {
    let max = *per_shard_nnz.iter().max()?;
    let total: usize = per_shard_nnz.iter().sum();
    (total > 0).then(|| max as f64 * per_shard_nnz.len() as f64 / total as f64)
}

/// `trace.*`: the busy loadgen time no span covers, and what recording
/// the spans cost (their number × the cost of one, measured now).
pub fn trace_rows(m: &mut Metrics, spans: usize, uncovered_ns: f64, busy_ns: f64) {
    m.set_ratio("trace.residual_share", uncovered_ns, busy_ns);
    m.set(
        "trace.overhead_pct",
        100.0 * spans as f64 * crate::spans::span_cost_ns() / busy_ns,
        spans as u64,
    );
}

/// Sum of every sample of `series` in a Prometheus text exposition
/// whose label block contains `label` (`""` matches any). A service
/// that concatenates several registries repeats a series; the repeats
/// are the same counter kept by different contexts and add up.
pub fn scrape(text: &str, series: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (head, value) = l.rsplit_once(' ')?;
            let (name, labels) = match head.split_once('{') {
                Some((n, rest)) => (n, rest),
                None => (head, ""),
            };
            (name == series && labels.contains(label)).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// Seconds-sum and count of one stage's latency histogram.
pub fn scrape_stage(text: &str, stage: &str) -> (f64, f64) {
    let label = format!("stage=\"{stage}\"");
    (
        scrape(text, "pipeline_stage_latency_seconds_sum", &label),
        scrape(text, "pipeline_stage_latency_seconds_count", &label),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_sums_matching_series() {
        let text = "# HELP x y\n\
            pipeline_batches_total 7\n\
            hypersparse_kernel_calls_total{kernel=\"select\"} 3\n\
            hypersparse_kernel_calls_total{kernel=\"top_k\"} 9\n\
            hypersparse_kernel_calls_total{kernel=\"select\"} 2\n\
            pipeline_stage_latency_seconds_sum{stage=\"route\"} 0.5\n\
            pipeline_stage_latency_seconds_count{stage=\"route\"} 4\n";
        assert_eq!(scrape(text, "pipeline_batches_total", ""), 7.0);
        assert_eq!(
            scrape(text, "hypersparse_kernel_calls_total", "kernel=\"select\""),
            5.0
        );
        assert_eq!(scrape(text, "hypersparse_kernel_calls_total", ""), 14.0);
        assert_eq!(scrape_stage(text, "route"), (0.5, 4.0));
        assert_eq!(scrape(text, "absent_total", ""), 0.0);
    }

    #[test]
    fn kernel_rows_divide_elapsed_by_work() {
        let ctx = hypersparse::OpCtx::new();
        let before = ctx.metrics().snapshot();
        ctx.metrics().record(
            Kernel::Select,
            std::time::Duration::from_nanos(4_000),
            1_000,
            10,
            0,
            8_000,
        );
        let snap = kernel_delta(&ctx.metrics().snapshot(), &before);
        let mut m = Metrics::default();
        kernel_rows(&mut m, &snap);
        assert_eq!(m.get("hypersparse.select_ns_per_nnz").unwrap().value, 4.0);
        assert_eq!(m.get("hypersparse.bytes_per_ns.select").unwrap().value, 2.0);
        assert_eq!(m.get("hypersparse.mxm_ns_per_flop").unwrap().value, 0.0);
    }
}
