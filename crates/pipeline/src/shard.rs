//! Shard worker threads.
//!
//! Each shard owns one [`StreamingMatrix`] on a dedicated OS thread, fed
//! by a **bounded** MPSC channel. Single ownership is what makes the
//! whole design deterministic: a shard's contents are a pure function of
//! the sequence of events *sent to it*, and per-sender FIFO channel
//! order means that sequence is fixed by the callers, not by scheduling.
//! So are its flush points (a float ⊕'s fold order follows them): a
//! rotation sets the threshold from the closing window's event count.
//!
//! Marker waves (snapshots, rotations, checkpoints) ride the same
//! channel as ingest (Chandy–Lamport style), so a marker cleanly cuts
//! each shard's event stream: everything enqueued before it is in,
//! everything after is out — while ingest keeps flowing behind the
//! marker. A marker carries its work as a closure the router built, so
//! the worker knows one marker command, not one per kind of wave.

use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use hypersparse::{Ix, OpCtx, StreamingMatrix};
use semiring::traits::Semiring;

use crate::config::PipelineConfig;
use crate::error::PipelineError;
use crate::metrics::{PipelineMetrics, Stage};
use crate::value::PodValue;

/// A marker's work on one shard: called with the shard index and its
/// stream, it cuts the stream and returns the send of its reply, which
/// the shard runs once the marker's span is closed.
pub(crate) type MarkerWork<S> =
    Box<dyn FnOnce(usize, &mut StreamingMatrix<S>) -> Box<dyn FnOnce() + Send> + Send>;

/// One message on a shard's command channel.
pub(crate) enum Command<S: Semiring> {
    /// A single event (the common `ingest` path — no per-event Vec).
    Event(Ix, Ix, S::Value),
    /// A pre-routed batch of events for this shard.
    Batch(Vec<(Ix, Ix, S::Value)>),
    /// One shard's part of a marker wave: run `work` on the stream as
    /// of this point, inside a span named `span`. Ingest enqueued behind
    /// the marker is not seen by it. What a wave does (fold, delta cut,
    /// rotation, checkpoint) is decided by the router that built `work`.
    Marker {
        span: &'static str,
        work: MarkerWork<S>,
    },
}

/// A running shard: its channel, join handle, and metered context.
pub(crate) struct Shard<S: Semiring> {
    pub(crate) sender: SyncSender<Command<S>>,
    pub(crate) handle: Option<JoinHandle<()>>,
    pub(crate) ctx: Arc<OpCtx>,
}

impl<S: Semiring> Shard<S> {
    /// Spawn a worker owning `stream`, fed by a channel of
    /// `config.channel_capacity` messages.
    pub(crate) fn spawn(
        index: usize,
        stream: StreamingMatrix<S>,
        config: &PipelineConfig,
        metrics: Arc<PipelineMetrics>,
    ) -> Self
    where
        S::Value: PodValue,
    {
        // Shards are the parallelism axis: a shard's merges never fan out.
        let ctx = Arc::new(OpCtx::new().with_threads(1));
        let stream = stream.with_ctx(Arc::clone(&ctx));
        metrics.set_flush_threshold(index, stream.flush_threshold());
        let (sender, receiver) = std::sync::mpsc::sync_channel(config.channel_capacity);
        let handle = std::thread::Builder::new()
            .name(format!("pipeline-shard-{index}"))
            .spawn(move || run_worker(index, stream, receiver, metrics))
            .expect("spawning shard worker");
        Shard {
            sender,
            handle: Some(handle),
            ctx,
        }
    }

    /// Non-blocking send; `Full` carries backpressure to the caller.
    pub(crate) fn try_send(&self, index: usize, cmd: Command<S>) -> Result<(), PipelineError> {
        self.sender.try_send(cmd).map_err(|e| match e {
            TrySendError::Full(_) => PipelineError::Full { shard: index },
            TrySendError::Disconnected(_) => PipelineError::ShardTerminated { shard: index },
        })
    }

    /// Blocking send; blocks while the channel is at capacity (bounded
    /// memory — the caller is throttled to the shard's merge rate).
    pub(crate) fn send(&self, index: usize, cmd: Command<S>) -> Result<(), PipelineError> {
        self.sender
            .send(cmd)
            .map_err(|_| PipelineError::ShardTerminated { shard: index })
    }
}

/// The worker loop: drain commands until every sender is dropped, then
/// exit. Dropping the pipeline's senders *is* the drain-and-stop
/// protocol — all queued work completes first (per-channel FIFO).
fn run_worker<S: Semiring>(
    index: usize,
    mut stream: StreamingMatrix<S>,
    receiver: Receiver<Command<S>>,
    metrics: Arc<PipelineMetrics>,
) where
    S::Value: PodValue,
{
    // Span on the shard's own trace registry; the router's
    // `trace_report` stitches the per-shard trees together. The detail
    // is built only when tracing is on, as it is for an `OpCtx::kernel` run.
    let trace_ctx = stream.ctx().cloned();
    while let Ok(cmd) = receiver.recv() {
        let span = |name: &'static str, detail: &dyn Fn() -> String| {
            trace_ctx.as_ref().map(|ctx| ctx.trace().span(name, detail))
        };
        match cmd {
            Command::Event(r, c, v) => {
                let _span = span("shard_merge", &|| format!("shard {index} event"));
                let t = std::time::Instant::now();
                stream.insert(r, c, v);
                metrics.record_stage(Stage::ShardMerge, t.elapsed());
            }
            Command::Batch(events) => {
                let _span = span("shard_merge", &|| {
                    format!("shard {index}, {} events", events.len())
                });
                let t = std::time::Instant::now();
                for (r, c, v) in events {
                    stream.insert(r, c, v);
                }
                metrics.record_stage(Stage::ShardMerge, t.elapsed());
            }
            Command::Marker { span: name, work } => {
                // Reply only after the span is recorded, so the wave's
                // trace holds every shard's span once all have replied.
                let reply = {
                    let _span = span(name, &|| format!("shard {index}"));
                    work(index, &mut stream)
                };
                reply();
            }
        }
        metrics.depth_dec(index);
    }
}
