//! Pipeline-level observability, layered over the per-shard
//! [`hypersparse::MetricsRegistry`].
//!
//! Shard workers meter their ⊕-merge traffic through their own `OpCtx`
//! (visible as `stream_merge`/`ewise_add` kernel rows); this module adds
//! the *service* counters those registries cannot see: ingest volume,
//! backpressure events, live channel depth, and snapshot/checkpoint
//! latency. All counters are relaxed atomics, updated from caller
//! threads and shard workers concurrently.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use hypersparse::{Exposition, Histogram, HistogramSnapshot};

/// The pipeline stages whose latency is tracked in log₂ histograms.
///
/// Each variant indexes a [`HistogramSnapshot`] in
/// [`PipelineMetricsSnapshot::stage_latency`] and labels a
/// `pipeline_stage_latency_seconds{stage="…"}` series in the Prometheus
/// exposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// One event (or one shard's slice of a batch) accepted into a
    /// shard channel — measures the send path including backpressure.
    Ingest,
    /// Hash-partitioning one `ingest_batch` call across shards.
    Route,
    /// A shard worker folding one `Event`/`Batch` command into its
    /// streaming matrix.
    ShardMerge,
    /// Assembling one epoch snapshot across all shards.
    Snapshot,
    /// Closing one analytics window: snapshot + shard reset.
    Rotate,
    /// Writing one checkpoint to disk.
    Checkpoint,
    /// Restoring pipeline state from a checkpoint.
    Restore,
    /// Applying one epoch's delta to every registered standing view.
    StandingUpdate,
}

impl Stage {
    /// Every stage, in histogram-index order.
    pub const ALL: [Stage; 8] = [
        Stage::Ingest,
        Stage::Route,
        Stage::ShardMerge,
        Stage::Snapshot,
        Stage::Rotate,
        Stage::Checkpoint,
        Stage::Restore,
        Stage::StandingUpdate,
    ];

    /// Stable lower-snake name used as the `stage` label value.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Route => "route",
            Stage::ShardMerge => "shard_merge",
            Stage::Snapshot => "snapshot",
            Stage::Rotate => "rotate",
            Stage::Checkpoint => "checkpoint",
            Stage::Restore => "restore",
            Stage::StandingUpdate => "standing_update",
        }
    }
}

/// Live service counters for one pipeline (shared via `Arc`).
#[derive(Debug)]
pub struct PipelineMetrics {
    events: AtomicU64,
    batches: AtomicU64,
    full_rejections: AtomicU64,
    snapshots: AtomicU64,
    snapshot_ns: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_ns: AtomicU64,
    stage_latency: [Histogram; Stage::ALL.len()],
    depth: Vec<AtomicUsize>,
}

impl PipelineMetrics {
    pub(crate) fn new(shards: usize) -> Self {
        PipelineMetrics {
            events: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            full_rejections: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            snapshot_ns: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_ns: AtomicU64::new(0),
            stage_latency: std::array::from_fn(|_| Histogram::default()),
            depth: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Fold one stage execution's wall time into its latency histogram.
    pub fn record_stage(&self, stage: Stage, elapsed: Duration) {
        self.stage_latency[stage as usize].record(elapsed);
    }

    /// Depth is incremented *before* a send is attempted and rolled back
    /// on failure, so the worker-side decrement can never underflow.
    pub(crate) fn depth_inc(&self, shard: usize) {
        self.depth[shard].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn depth_dec(&self, shard: usize) {
        self.depth[shard].fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn record_accepted(&self, events: u64) {
        self.events.fetch_add(events, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected(&self) {
        self.full_rejections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn seed_events(&self, events: u64) {
        self.events.store(events, Ordering::Relaxed);
    }

    pub(crate) fn record_snapshot(&self, elapsed: Duration) {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.snapshot_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_checkpoint(&self, elapsed: Duration) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Messages currently queued (sent, not yet fully processed) on one
    /// shard's channel. A gauge, racy by nature; useful for spotting a
    /// lagging shard.
    pub fn channel_depth(&self, shard: usize) -> usize {
        self.depth[shard].load(Ordering::Relaxed)
    }

    /// Freeze every counter.
    pub fn snapshot(&self) -> PipelineMetricsSnapshot {
        PipelineMetricsSnapshot {
            events_ingested: self.events.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            full_rejections: self.full_rejections.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            snapshot_ns: self.snapshot_ns.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            checkpoint_ns: self.checkpoint_ns.load(Ordering::Relaxed),
            stage_latency: std::array::from_fn(|i| self.stage_latency[i].snapshot()),
            channel_depths: self
                .depth
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A frozen view of [`PipelineMetrics`].
#[derive(Clone, Debug, Default)]
pub struct PipelineMetricsSnapshot {
    /// Events accepted into shard channels (enqueued, whether or not yet
    /// merged).
    pub events_ingested: u64,
    /// Channel messages those events travelled in (1 per `ingest`, 1 per
    /// shard touched per `ingest_batch`).
    pub batches: u64,
    /// `try_ingest` calls rejected with `Full` (backpressure bites).
    pub full_rejections: u64,
    /// Completed epoch snapshots.
    pub snapshots: u64,
    /// Total wall time spent assembling snapshots, in nanoseconds.
    pub snapshot_ns: u64,
    /// Committed checkpoints.
    pub checkpoints: u64,
    /// Total wall time spent writing checkpoints, in nanoseconds.
    pub checkpoint_ns: u64,
    /// Per-stage latency histograms, indexed by [`Stage`] discriminant.
    pub stage_latency: [HistogramSnapshot; Stage::ALL.len()],
    /// Per-shard channel depth gauges at freeze time.
    pub channel_depths: Vec<usize>,
}

impl PipelineMetricsSnapshot {
    /// Mean snapshot assembly latency (zero if none ran).
    pub fn mean_snapshot_latency(&self) -> Duration {
        self.snapshot_ns
            .checked_div(self.snapshots)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Human-readable service report.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "events: {} in {} messages · rejected (Full): {}",
            self.events_ingested, self.batches, self.full_rejections
        );
        let _ = writeln!(
            out,
            "snapshots: {} (mean {:.3} ms) · checkpoints: {} ({:.3} ms total)",
            self.snapshots,
            self.mean_snapshot_latency().as_secs_f64() * 1e3,
            self.checkpoints,
            self.checkpoint_ns as f64 / 1e6
        );
        let _ = writeln!(out, "channel depths: {:?}", self.channel_depths);
        for stage in Stage::ALL {
            let h = self.stage(stage);
            if h.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "stage {}: {} ops · p50 ≤ {:.3} ms · p99 ≤ {:.3} ms",
                stage.name(),
                h.count(),
                h.quantile(0.50) as f64 / 1e6,
                h.quantile(0.99) as f64 / 1e6,
            );
        }
        out
    }

    /// The latency histogram for one stage.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stage_latency[stage as usize]
    }

    /// What the shard kernel registries cannot see, as Prometheus
    /// families: service counters, channel depths, stage latency.
    pub(crate) fn expose(&self, out: &mut Exposition) {
        for (name, help, value) in [
            (
                "pipeline_events_ingested_total",
                "Events accepted into shard channels.",
                self.events_ingested,
            ),
            (
                "pipeline_batches_total",
                "Channel messages those events travelled in.",
                self.batches,
            ),
            (
                "pipeline_full_rejections_total",
                "try_ingest calls rejected with Full (backpressure).",
                self.full_rejections,
            ),
            (
                "pipeline_snapshots_total",
                "Completed epoch snapshots.",
                self.snapshots,
            ),
            (
                "pipeline_checkpoints_total",
                "Committed checkpoints.",
                self.checkpoints,
            ),
        ] {
            out.family(name, "counter", help, [("", value)]);
        }
        out.family(
            "pipeline_channel_depth",
            "gauge",
            "Messages queued on each shard channel at scrape time.",
            self.channel_depths
                .iter()
                .enumerate()
                .map(|(shard, depth)| (format!("shard=\"{shard}\""), depth)),
        );
        out.histograms(
            "pipeline_stage_latency_seconds",
            "Wall time per pipeline stage execution.",
            Stage::ALL.map(|stage| (format!("stage=\"{}\"", stage.name()), self.stage(stage))),
        );
    }

    /// Those families as a body of their own (format 0.0.4);
    /// [`crate::Pipeline::render_prometheus`] adds the standing views
    /// and the merged kernel registry.
    pub fn render_prometheus(&self) -> String {
        let mut out = Exposition::default();
        self.expose(&mut out);
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersparse::{Kernel, OpCtx};

    #[test]
    fn counters_accumulate_and_report() {
        let m = PipelineMetrics::new(2);
        m.depth_inc(0);
        m.record_accepted(10);
        m.depth_inc(1);
        m.record_accepted(5);
        m.depth_dec(1);
        m.record_rejected();
        m.record_snapshot(Duration::from_millis(2));
        let snap = m.snapshot();
        assert_eq!(snap.events_ingested, 15);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.full_rejections, 1);
        assert_eq!(snap.channel_depths, vec![1, 0]);
        assert_eq!(m.channel_depth(0), 1);
        assert_eq!(snap.mean_snapshot_latency(), Duration::from_millis(2));
        assert!(snap.report().contains("rejected (Full): 1"));
    }

    #[test]
    fn kernel_snapshots_merge_across_shards() {
        let a = OpCtx::new();
        let b = OpCtx::new();
        a.metrics()
            .record(Kernel::StreamMerge, Duration::from_micros(1), 10, 8, 2, 640);
        b.metrics()
            .record(Kernel::StreamMerge, Duration::from_micros(3), 6, 6, 0, 384);
        b.metrics()
            .record(Kernel::EwiseAdd, Duration::from_micros(1), 4, 4, 0, 256);
        let mut merged = a.metrics().snapshot();
        merged.merge(&b.metrics().snapshot());
        let sm = merged.kernel(Kernel::StreamMerge);
        assert_eq!(sm.calls, 2);
        assert_eq!(sm.nnz_in, 16);
        assert_eq!(sm.flops, 2);
        assert_eq!(sm.bytes_touched, 1024);
        assert_eq!(merged.kernel(Kernel::EwiseAdd).calls, 1);
        assert_eq!(hypersparse::MetricsSnapshot::default().total_calls(), 0);
    }
}
