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
//! Snapshots and checkpoints ride the same channel as ingest (marker
//! messages, Chandy–Lamport style), so a marker cleanly cuts each
//! shard's event stream: everything enqueued before it is in, everything
//! after is out — while ingest keeps flowing behind the marker.

use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use hypersparse::{Dcsr, Ix, OpCtx, StreamingMatrix};
use semiring::traits::Semiring;

use crate::checkpoint::{encode_shard, write_shard_file, ShardFileMeta};
use crate::config::PipelineConfig;
use crate::error::PipelineError;
use crate::metrics::{PipelineMetrics, Stage};
use crate::value::PodValue;

/// Reply payload for marker commands that cut a delta: the shard's
/// complete fold paired with the entries since the previous watermark.
pub(crate) type FullAndDelta<S> = (Dcsr<<S as Semiring>::Value>, Dcsr<<S as Semiring>::Value>);

/// Reply payload of a rotation marker: the closing window's fold and,
/// when it differs from it, the closing delta.
pub(crate) type ClosingAndDelta<S> = (
    Dcsr<<S as Semiring>::Value>,
    Option<Dcsr<<S as Semiring>::Value>>,
);

/// One message on a shard's command channel.
pub(crate) enum Command<S: Semiring> {
    /// A single event (the common `ingest` path — no per-event Vec).
    Event(Ix, Ix, S::Value),
    /// A pre-routed batch of events for this shard.
    Batch(Vec<(Ix, Ix, S::Value)>),
    /// Snapshot marker: fold the hierarchy as of this point in the
    /// stream and reply. Ingest enqueued behind the marker is excluded.
    Snapshot {
        /// Where to deliver the fold.
        reply: Sender<Dcsr<S::Value>>,
    },
    /// Incremental snapshot marker: advance the shard's delta watermark
    /// and reply with `(full, delta)` — the complete fold *and* the
    /// entries inserted since the previous watermark, cut at the same
    /// point in the stream so `full(t) = full(t−1) ⊕ delta(t)` holds
    /// across marker waves.
    SnapshotDelta {
        /// Where to deliver `(full fold, delta fold)`.
        reply: Sender<FullAndDelta<S>>,
    },
    /// Window-rotation marker: fold the hierarchy as of this point in
    /// the stream, reply with the fold, and **reset** the shard to empty
    /// so subsequent ingest starts the next window. The reply pairs the
    /// closing window's contents with the closing *delta* (entries since
    /// the last watermark), so standing views can absorb the window's
    /// tail before resetting — `None` when no delta wave cut this
    /// shard's window, i.e. the closing delta *is* the closing window
    /// ([`StreamingMatrix::rotate`]). Everything enqueued behind the
    /// marker lands in the new window.
    Rotate {
        /// Where to deliver `(closing window fold, closing delta)`.
        reply: Sender<ClosingAndDelta<S>>,
    },
    /// Checkpoint marker: flush, serialize the hierarchy, write the
    /// shard file, reply with its manifest record.
    Checkpoint {
        /// Checkpoint directory root.
        dir: PathBuf,
        /// Generation being committed.
        generation: u64,
        /// Reply with the written file's metadata (or the I/O error).
        reply: Sender<Result<ShardFileMeta, PipelineError>>,
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
        let ctx = Arc::new(OpCtx::new().with_threads(config.merge_threads));
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
    // is built only when tracing is on, as `OpCtx::kernel_span` does.
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
            Command::Snapshot { reply } => {
                let _span = span("shard_fold", &|| format!("shard {index}"));
                // Receiver may have given up (timeout); ignore send errors.
                let _ = reply.send(stream.snapshot());
            }
            Command::SnapshotDelta { reply } => {
                let _span = span("shard_fold_delta", &|| format!("shard {index}"));
                // Delta first: it seals the live levels, after which the
                // full fold covers exactly the same cut.
                let delta = stream.delta_snapshot();
                let full = stream.snapshot();
                let _ = reply.send((full, delta));
            }
            Command::Rotate { reply } => {
                let _span = span("shard_rotate", &|| format!("shard {index}"));
                let closed = stream.rotate();
                metrics.set_flush_threshold(index, stream.flush_threshold());
                let _ = reply.send(closed);
            }
            Command::Checkpoint {
                dir,
                generation,
                reply,
            } => {
                let _span = span("shard_checkpoint", &|| {
                    format!("shard {index} gen {generation}")
                });
                stream.flush();
                let bytes = encode_shard(&stream);
                let meta = write_shard_file(&dir, generation, index, &bytes, stream.inserted());
                let _ = reply.send(meta);
            }
        }
        metrics.depth_dec(index);
    }
}
