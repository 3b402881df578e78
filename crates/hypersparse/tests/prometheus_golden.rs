//! Golden-file coverage of the Prometheus text exposition, plus
//! algebraic properties of the histograms and snapshots backing it
//! (the text-level lint of whole scrape bodies is the workspace's
//! `tests/exposition.rs`).
//!
//! The exposition must be byte-stable for fixed inputs: dashboards and
//! scrape configs key on exact series names and label spellings, so any
//! drift is a breaking change that this test makes loud.

use std::time::Duration;

use hypersparse::{
    Decision, Histogram, HistogramSnapshot, Kernel, MetricsRegistry, MetricsSnapshot, TraceMode,
    TraceRegistry,
};
use proptest::prelude::*;

/// Build a registry with a fixed, hand-computable history: two 5 µs mxm
/// calls and one 100 ns ewise_add, one format switch and four push
/// accumulator choices.
fn fixed_registry() -> MetricsRegistry {
    let reg = MetricsRegistry::default();
    reg.record(Kernel::Mxm, Duration::from_micros(5), 10, 4, 30, 200);
    reg.record(Kernel::Mxm, Duration::from_micros(5), 12, 6, 34, 240);
    reg.record(Kernel::EwiseAdd, Duration::from_nanos(100), 7, 7, 3, 56);
    reg.record_decision(Decision::FormatDense, 1);
    reg.record_decision(Decision::PushFlat, 3);
    reg.record_decision(Decision::PushHash, 1);
    reg
}

#[test]
fn metrics_exposition_is_byte_stable() {
    let mut snap = fixed_registry().snapshot();
    // Workspace counters are recorded by the arena internally; the
    // snapshot fields are public, so pin them for the golden.
    snap.workspace_hits = 2;
    snap.workspace_misses = 1;
    // 5 µs = 5000 ns lands in bucket [4096, 8192) → le = 8192 ns;
    // 100 ns lands in [64, 128) → le = 128 ns. Cumulative counts and
    // sums follow directly.
    let expected = "\
# HELP hypersparse_kernel_calls_total Completed kernel invocations.
# TYPE hypersparse_kernel_calls_total counter
hypersparse_kernel_calls_total{kernel=\"mxm\"} 2
hypersparse_kernel_calls_total{kernel=\"ewise_add\"} 1
# HELP hypersparse_kernel_nnz_in_total Stored entries across all kernel inputs.
# TYPE hypersparse_kernel_nnz_in_total counter
hypersparse_kernel_nnz_in_total{kernel=\"mxm\"} 22
hypersparse_kernel_nnz_in_total{kernel=\"ewise_add\"} 7
# HELP hypersparse_kernel_nnz_out_total Stored entries across all kernel outputs.
# TYPE hypersparse_kernel_nnz_out_total counter
hypersparse_kernel_nnz_out_total{kernel=\"mxm\"} 10
hypersparse_kernel_nnz_out_total{kernel=\"ewise_add\"} 7
# HELP hypersparse_kernel_flops_total Semiring operator applications.
# TYPE hypersparse_kernel_flops_total counter
hypersparse_kernel_flops_total{kernel=\"mxm\"} 64
hypersparse_kernel_flops_total{kernel=\"ewise_add\"} 3
# HELP hypersparse_kernel_bytes_touched_total Heap bytes of kernel operands and results.
# TYPE hypersparse_kernel_bytes_touched_total counter
hypersparse_kernel_bytes_touched_total{kernel=\"mxm\"} 440
hypersparse_kernel_bytes_touched_total{kernel=\"ewise_add\"} 56
# HELP hypersparse_kernel_latency_seconds Per-invocation kernel latency.
# TYPE hypersparse_kernel_latency_seconds histogram
hypersparse_kernel_latency_seconds_bucket{kernel=\"mxm\",le=\"0.000008192\"} 2
hypersparse_kernel_latency_seconds_bucket{kernel=\"mxm\",le=\"+Inf\"} 2
hypersparse_kernel_latency_seconds_sum{kernel=\"mxm\"} 0.00001
hypersparse_kernel_latency_seconds_count{kernel=\"mxm\"} 2
hypersparse_kernel_latency_seconds_bucket{kernel=\"ewise_add\",le=\"0.000000128\"} 1
hypersparse_kernel_latency_seconds_bucket{kernel=\"ewise_add\",le=\"+Inf\"} 1
hypersparse_kernel_latency_seconds_sum{kernel=\"ewise_add\"} 0.0000001
hypersparse_kernel_latency_seconds_count{kernel=\"ewise_add\"} 1
# HELP hypersparse_decisions_total Dispatch decisions by site and the method chosen.
# TYPE hypersparse_decisions_total counter
hypersparse_decisions_total{site=\"format\",choice=\"dense\"} 1
hypersparse_decisions_total{site=\"format\",choice=\"csr\"} 0
hypersparse_decisions_total{site=\"format\",choice=\"dcsr\"} 0
hypersparse_decisions_total{site=\"mv_direction\",choice=\"push\"} 0
hypersparse_decisions_total{site=\"mv_direction\",choice=\"pull\"} 0
hypersparse_decisions_total{site=\"mxm_accumulator\",choice=\"flat\"} 0
hypersparse_decisions_total{site=\"mxm_accumulator\",choice=\"dense\"} 0
hypersparse_decisions_total{site=\"mxm_accumulator\",choice=\"hash\"} 0
hypersparse_decisions_total{site=\"mxm_accumulator\",choice=\"mask_slot\"} 0
hypersparse_decisions_total{site=\"mxm_drain\",choice=\"scan\"} 0
hypersparse_decisions_total{site=\"mxm_drain\",choice=\"bitmap\"} 0
hypersparse_decisions_total{site=\"mv_push_accumulator\",choice=\"flat\"} 3
hypersparse_decisions_total{site=\"mv_push_accumulator\",choice=\"hash\"} 1
hypersparse_decisions_total{site=\"mxm_b_rows\",choice=\"indexed\"} 0
hypersparse_decisions_total{site=\"mxm_b_rows\",choice=\"searched\"} 0
hypersparse_decisions_total{site=\"mxm_mask\",choice=\"scatter\"} 0
hypersparse_decisions_total{site=\"mxm_mask\",choice=\"search\"} 0
hypersparse_decisions_total{site=\"mv_pull_frontier\",choice=\"indexed\"} 0
hypersparse_decisions_total{site=\"mv_pull_frontier\",choice=\"searched\"} 0
hypersparse_decisions_total{site=\"mv_mask\",choice=\"bitmap\"} 0
hypersparse_decisions_total{site=\"mv_mask\",choice=\"sorted\"} 0
hypersparse_decisions_total{site=\"transpose\",choice=\"counting\"} 0
hypersparse_decisions_total{site=\"transpose\",choice=\"radix\"} 0
hypersparse_decisions_total{site=\"ewise_bool_rows\",choice=\"word\"} 0
hypersparse_decisions_total{site=\"ewise_bool_rows\",choice=\"generic\"} 0
hypersparse_decisions_total{site=\"graph_transpose\",choice=\"built\"} 0
hypersparse_decisions_total{site=\"graph_transpose\",choice=\"deferred\"} 0
hypersparse_decisions_total{site=\"parent_bfs\",choice=\"one_step\"} 0
hypersparse_decisions_total{site=\"parent_bfs\",choice=\"two_step\"} 0
hypersparse_decisions_total{site=\"fan_out\",choice=\"one\"} 0
hypersparse_decisions_total{site=\"fan_out\",choice=\"many\"} 0
# HELP hypersparse_workspace_hits_total Workspace acquisitions served from the pooled arena.
# TYPE hypersparse_workspace_hits_total counter
hypersparse_workspace_hits_total 2
# HELP hypersparse_workspace_misses_total Workspace acquisitions that had to allocate.
# TYPE hypersparse_workspace_misses_total counter
hypersparse_workspace_misses_total 1
# HELP hypersparse_mask_probes_total Complement-mask lookups inside fused kernels.
# TYPE hypersparse_mask_probes_total counter
hypersparse_mask_probes_total 0
# HELP hypersparse_mask_hits_total Mask lookups that skipped work.
# TYPE hypersparse_mask_hits_total counter
hypersparse_mask_hits_total 0
# HELP hypersparse_workspace_hit_rate Fraction of workspace acquisitions served from the pool.
# TYPE hypersparse_workspace_hit_rate gauge
hypersparse_workspace_hit_rate 0.6666666666666666
# HELP hypersparse_mask_hit_rate Fraction of mask probes that skipped work.
# TYPE hypersparse_mask_hit_rate gauge
hypersparse_mask_hit_rate 0
";
    assert_eq!(snap.render_prometheus(), expected);
}

#[test]
fn slow_span_capture_feeds_the_report() {
    let t = TraceRegistry::default();
    t.set_mode(TraceMode::SlowOnly);
    t.set_slow_threshold(Some(Duration::ZERO)); // everything is "slow"
    {
        let _s = t.span("mxm", || "64×64, 4096 nnz".into());
    }
    let slow = t.slow_spans();
    assert_eq!(slow.len(), 1);
    assert_eq!(slow[0].name, "mxm");
    assert!(t.report().contains("[slow]"));
}

/// One recorded kernel call: `Kernel::ALL` index, latency in ns, nnz, and
/// whether a format switch and a pull-direction call ride along.
type Record = (usize, u64, u64, bool);

fn records() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(
        (
            0..Kernel::ALL.len(),
            1u64..1 << 30,
            0u64..1 << 20,
            any::<bool>(),
        ),
        0..20,
    )
}

proptest! {
    /// Histogram merge is associative and commutative: merging shard
    /// registries in any grouping/order yields the same totals.
    #[test]
    fn histogram_merge_is_associative_and_commutative(
        xs in proptest::collection::vec(1u64..1 << 40, 0..40),
        ys in proptest::collection::vec(1u64..1 << 40, 0..40),
        zs in proptest::collection::vec(1u64..1 << 40, 0..40),
    ) {
        let snap = |ns: &[u64]| {
            let h = Histogram::default();
            for &n in ns {
                h.record_ns(n);
            }
            h.snapshot()
        };
        let (a, b, c) = (snap(&xs), snap(&ys), snap(&zs));

        let merge = |l: &HistogramSnapshot, r: &HistogramSnapshot| {
            let mut out = *l;
            out.merge(r);
            out
        };
        let left = merge(&merge(&a, &b), &c);
        let right = merge(&a, &merge(&b, &c));
        prop_assert_eq!(left, right);
        prop_assert_eq!(merge(&a, &b), merge(&b, &a));
        prop_assert_eq!(
            left.count(),
            (xs.len() + ys.len() + zs.len()) as u64
        );
        prop_assert_eq!(
            left.sum_ns,
            xs.iter().chain(&ys).chain(&zs).sum::<u64>()
        );
    }

    /// Snapshot merge is associative and commutative with the empty
    /// snapshot as identity: shard registries fold to one service-wide
    /// view in any grouping/order.
    #[test]
    fn snapshot_merge_is_associative_and_commutative(
        xs in records(), ys in records(), zs in records(),
    ) {
        let snap = |rs: &[Record]| {
            let reg = MetricsRegistry::default();
            for &(k, ns, nnz, switch) in rs {
                let kernel = Kernel::ALL[k];
                reg.record(kernel, Duration::from_nanos(ns), nnz, nnz / 2, nnz * 3, nnz * 16);
                if switch {
                    reg.record_decision(Decision::FormatDense, 1);
                    reg.record_decision(Decision::MvPull, 1);
                    reg.record_mask_probes(nnz, nnz / 3);
                }
            }
            reg.snapshot()
        };
        let (a, b, c) = (snap(&xs), snap(&ys), snap(&zs));
        let merge = |l: &MetricsSnapshot, r: &MetricsSnapshot| {
            let mut out = l.clone();
            out.merge(r);
            out
        };
        let left = merge(&merge(&a, &b), &c);
        prop_assert_eq!(&left, &merge(&a, &merge(&b, &c)));
        prop_assert_eq!(merge(&a, &b), merge(&b, &a));
        prop_assert_eq!(&merge(&MetricsSnapshot::default(), &a), &a);
        prop_assert_eq!(&merge(&a, &MetricsSnapshot::default()), &a);
        prop_assert_eq!(left.total_calls(), (xs.len() + ys.len() + zs.len()) as u64);
        let bytes: u64 = left.kernels.iter().map(|k| k.bytes_touched).sum();
        prop_assert_eq!(bytes, xs.iter().chain(&ys).chain(&zs).map(|r| r.2 * 16).sum::<u64>());
    }

    /// Quantiles are monotone in q and bounded by the recorded range's
    /// bucket ceiling.
    #[test]
    fn quantiles_are_monotone(
        // Stay below the unbounded last bucket, whose upper edge is
        // u64::MAX by contract.
        xs in proptest::collection::vec(1u64..1 << 38, 1..60),
    ) {
        let h = Histogram::default();
        for &n in &xs {
            h.record_ns(n);
        }
        let s = h.snapshot();
        let q25 = s.quantile(0.25);
        let q50 = s.quantile(0.50);
        let q99 = s.quantile(0.99);
        prop_assert!(q25 <= q50 && q50 <= q99);
        let max = *xs.iter().max().unwrap();
        // p99 upper edge is at most one bucket above the true max.
        prop_assert!(q99 <= max.next_power_of_two().max(2) * 2);
    }
}
