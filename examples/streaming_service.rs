//! The paper's streaming story as a running service: network-flow events
//! ingested from concurrent feed threads into a sharded hypersparse
//! pipeline, analyzed mid-stream through epoch-isolated snapshots (as
//! both a `Matrix` and an associative array), checkpointed to disk, and
//! restored — all while the feed keeps running.
//!
//! ```sh
//! cargo run --release --example streaming_service
//! ```
//!
//! Runtime is bounded (a fixed event budget, no sleeps) so this doubles
//! as a CI smoke test.

use std::sync::Arc;
use std::time::Instant;

use hyperspace::hypersparse::ops;
use hyperspace::prelude::*;
use hyperspace::semiring::PlusMonoid;

const HOSTS: u64 = 1 << 20; // 2^20-host key space, hypersparse
const EVENTS_PER_FEED: u64 = 50_000;
const FEEDS: u64 = 4;
/// Events per `ingest_batch` call: one channel message per shard per
/// batch instead of one per event (5–10× cheaper per event).
const BATCH: u64 = 1_024;

/// Deterministic pseudo-flow: (src, dst, bytes) for feed `t`, step `i`.
fn flow(t: u64, i: u64) -> (u64, u64, f64) {
    let mut x = t.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 29;
    // Skew sources toward a small hot set so the graph has hubs.
    let src = if x.is_multiple_of(4) {
        x % 16
    } else {
        x % HOSTS
    };
    let dst = (x >> 20) % HOSTS;
    (src, dst, ((x >> 7) % 1400 + 64) as f64)
}

fn main() {
    let t0 = Instant::now();
    let config = PipelineConfig::new()
        .with_shards(4)
        .with_channel_capacity(512);
    let p = Arc::new(Pipeline::with_config(
        HOSTS,
        HOSTS,
        PlusTimes::<f64>::new(),
        config,
    ));
    // Capture any pipeline stage or kernel slower than 5 ms, with its
    // input shapes — negligible cost until something actually is slow.
    p.set_trace_mode(TraceMode::SlowOnly);
    p.set_slow_threshold(Some(std::time::Duration::from_millis(5)));
    println!(
        "pipeline up: {} shards over a {HOSTS}×{HOSTS} key space",
        p.shards()
    );

    // ---- Concurrent feeds: 4 writer threads, bounded channels ----
    let feeds: Vec<_> = (0..FEEDS)
        .map(|t| {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                for start in (0..EVENTS_PER_FEED).step_by(BATCH as usize) {
                    let mut batch =
                        (start..(start + BATCH).min(EVENTS_PER_FEED)).map(|i| flow(t, i));
                    // Backpressure-aware ingest, shown on the batch's
                    // first event: try first, fall back to blocking when
                    // the shard is saturated. The rest goes in one call.
                    let (src, dst, bytes) = batch.next().expect("non-empty batch");
                    if let Err(PipelineError::Full { .. }) = p.try_ingest(src, dst, bytes) {
                        p.ingest(src, dst, bytes).unwrap();
                    }
                    p.ingest_batch(batch).unwrap();
                }
            })
        })
        .collect();

    // ---- Queries under fire: epoch-isolated snapshots ----
    let mid = p.snapshot().unwrap();
    let mid_nnz = mid.nnz();
    println!(
        "epoch {} snapshot mid-stream: {} edges from {} events (feed still running)",
        mid.epoch(),
        mid_nnz,
        mid.events()
    );
    // The held snapshot never moves, no matter what the feeds do.
    assert_eq!(mid.nnz(), mid_nnz);

    for f in feeds {
        f.join().unwrap();
    }
    let ingested = FEEDS * EVENTS_PER_FEED;

    // ---- Post-drain analytics through the Matrix view ----
    let snap = p.snapshot().unwrap();
    assert_eq!(snap.events(), ingested);
    let m = snap.to_matrix();
    let traffic = ops::reduce_rows_ctx(&OpCtx::new(), &m.as_dcsr(), PlusMonoid::<f64>::default());
    let (hub, hub_bytes) = traffic
        .iter()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    println!(
        "epoch {} drained: {} edges, top talker host {hub} sent {hub_bytes:.0} bytes",
        snap.epoch(),
        snap.nnz()
    );

    // The associative-array view of the same epoch: re-key raw u64 host
    // ids into strings (a stand-in for a hostname dictionary).
    let assoc = snap.to_assoc(|h| format!("host-{h:05}"));
    assert_eq!(assoc.nnz(), snap.nnz());
    let row = assoc.row(&format!("host-{hub:05}"));
    println!(
        "assoc view: host-{hub:05} has {} distinct destinations",
        row.len()
    );

    // ---- Checkpoint, "crash", restore, verify, keep going ----
    let dir = std::env::temp_dir().join(format!("hyperspace-svc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = p.checkpoint(&dir).unwrap();
    println!(
        "checkpoint gen {} at epoch {}: {} shard files, {} events",
        manifest.generation,
        manifest.epoch,
        manifest.shards.len(),
        manifest.events
    );
    let before = p.snapshot().unwrap();

    let restored = Pipeline::restore(&dir, PlusTimes::<f64>::new(), config).unwrap();
    let after = restored.snapshot().unwrap();
    assert_eq!(after.dcsr(), before.dcsr(), "restore is bit-identical");
    restored.ingest(1, 2, 99.0).unwrap();
    assert!(restored.snapshot().unwrap().events() > before.events());
    println!("restore verified bit-identical; restored pipeline accepts new events");
    restored.shutdown().unwrap();

    // ---- Service + kernel metrics ----
    let metrics = p.metrics_snapshot();
    println!("{}", metrics.report());
    let kernels = p.kernel_metrics();
    let merges = kernels
        .kernels
        .iter()
        .find(|k| k.kernel.name() == "stream_merge")
        .expect("stream_merge is tracked");
    println!(
        "stream_merge across all shards: {} calls, {} entries in",
        merges.calls, merges.nnz_in
    );
    assert!(merges.calls > 0);

    // ---- /metrics payload + slow-span report on the way out ----
    let exposition = p.render_prometheus();
    assert!(exposition.contains("pipeline_events_ingested_total"));
    assert!(exposition.contains("pipeline_stage_latency_seconds_bucket"));
    assert!(exposition.contains("hypersparse_kernel_latency_seconds_bucket"));
    println!("--- prometheus exposition (shutdown scrape) ---\n{exposition}");
    let slow = p.trace_report();
    if !slow.is_empty() {
        println!("--- spans over the slow threshold ---\n{slow}");
    }

    // Drain-and-checkpoint shutdown: the service's clean exit path.
    let p = Arc::try_unwrap(p).ok().expect("all feeds joined");
    let final_manifest = p.shutdown_with_checkpoint(&dir).unwrap();
    assert_eq!(final_manifest.events, ingested);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "streaming_service OK: {} events in {:.2?}",
        ingested,
        t0.elapsed()
    );
}
