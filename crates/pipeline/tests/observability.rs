//! Pipeline-level observability: the service Prometheus exposition, the
//! stage latency histograms, and span tracing across shard workers.

use std::time::Duration;

use hypersparse::trace::bucket_of;
use hypersparse::TraceMode;
use pipeline::{Pipeline, PipelineConfig, PipelineMetricsSnapshot, Stage};
use semiring::PlusTimes;

#[test]
fn service_exposition_is_byte_stable() {
    let mut snap = PipelineMetricsSnapshot {
        events_ingested: 1000,
        batches: 12,
        full_rejections: 3,
        snapshots: 2,
        snapshot_ns: 4_000_000,
        checkpoints: 1,
        checkpoint_ns: 9_000_000,
        channel_depths: vec![0, 2],
        ..Default::default()
    };
    // Three 5 µs ingests: bucket [4096, 8192) → le = 8192 ns.
    let h = &mut snap.stage_latency[Stage::Ingest as usize];
    h.buckets[bucket_of(5_000)] = 3;
    h.sum_ns = 15_000;
    let expected = "\
# HELP pipeline_events_ingested_total Events accepted into shard channels.
# TYPE pipeline_events_ingested_total counter
pipeline_events_ingested_total 1000
# HELP pipeline_batches_total Channel messages those events travelled in.
# TYPE pipeline_batches_total counter
pipeline_batches_total 12
# HELP pipeline_full_rejections_total try_ingest calls rejected with Full (backpressure).
# TYPE pipeline_full_rejections_total counter
pipeline_full_rejections_total 3
# HELP pipeline_snapshots_total Completed epoch snapshots.
# TYPE pipeline_snapshots_total counter
pipeline_snapshots_total 2
# HELP pipeline_checkpoints_total Committed checkpoints.
# TYPE pipeline_checkpoints_total counter
pipeline_checkpoints_total 1
# HELP pipeline_channel_depth Messages queued on each shard channel at scrape time.
# TYPE pipeline_channel_depth gauge
pipeline_channel_depth{shard=\"0\"} 0
pipeline_channel_depth{shard=\"1\"} 2
# HELP pipeline_stage_latency_seconds Wall time per pipeline stage execution.
# TYPE pipeline_stage_latency_seconds histogram
pipeline_stage_latency_seconds_bucket{stage=\"ingest\",le=\"0.000008192\"} 3
pipeline_stage_latency_seconds_bucket{stage=\"ingest\",le=\"+Inf\"} 3
pipeline_stage_latency_seconds_sum{stage=\"ingest\"} 0.000015
pipeline_stage_latency_seconds_count{stage=\"ingest\"} 3
";
    assert_eq!(snap.render_prometheus(), expected);
}

#[test]
fn live_pipeline_records_stages_and_spans() {
    let s = PlusTimes::<f64>::new();
    let dir = std::env::temp_dir().join(format!("pipeline-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A 64-event buffer makes each shard's hierarchy hold several
    // layers, so cascades and the snapshot fold really merge (a lone
    // layer is its own fold and costs no merge).
    let config = PipelineConfig::new()
        .with_shards(2)
        .with_stream(hypersparse::StreamConfig::new().with_buffer_cap(64));
    let p = Pipeline::with_config(1 << 16, 1 << 16, s, config);
    p.set_trace_mode(TraceMode::Full);

    for i in 0..200u64 {
        p.ingest(i % 97, i % 89, 1.0).unwrap();
    }
    p.ingest_batch((0..500u64).map(|i| (i % 101, i % 103, 2.0)))
        .unwrap();
    let _ = p.snapshot().unwrap();
    p.checkpoint(&dir).unwrap();

    let snap = p.metrics_snapshot();
    assert_eq!(snap.stage(Stage::Ingest).count(), 200 + 2); // batch → 2 shard sends
    assert_eq!(snap.stage(Stage::Route).count(), 1);
    assert!(snap.stage(Stage::ShardMerge).count() > 0);
    assert_eq!(snap.stage(Stage::Snapshot).count(), 1);
    assert_eq!(snap.stage(Stage::Checkpoint).count(), 1);
    assert_eq!(snap.stage(Stage::Restore).count(), 0);
    assert!(snap.report().contains("stage ingest"));

    // The merged kernel exposition carries the shards' latency
    // histograms: counts line up with merged call counters.
    let kernels = p.kernel_metrics();
    let sm = kernels.kernel(hypersparse::Kernel::StreamMerge);
    assert_eq!(sm.latency.count(), sm.calls);
    // ...and their byte traffic: the merge sums every field of a row.
    for k in kernels
        .kernels
        .iter()
        .filter(|k| k.calls > 0 && k.nnz_in > 0)
    {
        assert!(k.bytes_touched > 0, "{k:?}");
    }

    let text = p.render_prometheus();
    for series in [
        "pipeline_events_ingested_total 700",
        "pipeline_stage_latency_seconds_bucket{stage=\"snapshot\"",
        "pipeline_stage_latency_seconds_bucket{stage=\"shard_merge\"",
        "hypersparse_kernel_latency_seconds_bucket{kernel=\"stream_merge\"",
    ] {
        assert!(text.contains(series), "missing {series:?} in:\n{text}");
    }

    // Full-mode tracing captured the snapshot/checkpoint markers on the
    // assembler and per-command spans on the shard workers.
    let report = p.trace_report();
    for needle in [
        "assembler:",
        "snapshot",
        "checkpoint",
        "shard 0:",
        "shard_merge",
    ] {
        assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
    }
    p.shutdown().unwrap();

    // Restore records its stage on the restored pipeline's metrics.
    let restored = Pipeline::restore(&dir, s, PipelineConfig::new()).unwrap();
    assert_eq!(restored.metrics_snapshot().stage(Stage::Restore).count(), 1);
    restored.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabled_mode_keeps_spans_empty() {
    let p = Pipeline::new(1 << 10, 1 << 10, PlusTimes::<f64>::new());
    for i in 0..50u64 {
        p.ingest(i, i, 1.0).unwrap();
    }
    let _ = p.snapshot().unwrap();
    assert!(p.trace_report().is_empty(), "no tracing unless enabled");
    // Stage histograms still run — they are counters, not spans.
    assert!(p.metrics_snapshot().stage(Stage::Ingest).count() > 0);
    p.shutdown().unwrap();
}

#[test]
fn slow_only_mode_thresholds_spans() {
    let p = Pipeline::new(1 << 10, 1 << 10, PlusTimes::<f64>::new());
    p.set_trace_mode(TraceMode::SlowOnly);
    p.set_slow_threshold(Some(Duration::from_secs(3600)));
    for i in 0..50u64 {
        p.ingest(i, i, 1.0).unwrap();
    }
    let _ = p.snapshot().unwrap();
    assert!(
        p.trace_report().is_empty(),
        "nothing outlives a one-hour threshold"
    );
    p.set_slow_threshold(Some(Duration::ZERO));
    let _ = p.snapshot().unwrap();
    assert!(p.trace_report().contains("[slow]"));
    p.shutdown().unwrap();
}
