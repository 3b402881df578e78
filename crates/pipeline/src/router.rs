//! The pipeline handle: routing, backpressure, epochs, lifecycle.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hypersparse::trace::Span;
use hypersparse::{Dcsr, Exposition, Ix, MetricsSnapshot, OpCtx, StreamingMatrix, TraceMode};
use semiring::traits::Semiring;

use crate::checkpoint::{
    commit_manifest, encode_shard, list_generations, load_shard, prune_generations, read_manifest,
    write_shard_file, Manifest,
};
use crate::config::{shard_of, PipelineConfig};
use crate::error::PipelineError;
use crate::metrics::{PipelineMetrics, PipelineMetricsSnapshot, Stage};
use crate::shard::{Command, MarkerWork, Shard};
use crate::sink::SnapshotSink;
use crate::snapshot::{EpochSnapshot, IncrementalEpoch};
use crate::standing::{StandingRegistry, StandingView, StandingViewStats};
use crate::value::PodValue;

/// A sharded streaming ingest/query service over one `nrows × ncols`
/// hypersparse key space.
///
/// Events hash-partition by **row key** across `config.shards` worker
/// threads, each owning a [`StreamingMatrix`] behind a bounded channel.
/// The handle is `Sync`: share it via `Arc` and ingest from any number
/// of threads; [`Pipeline::snapshot`] meanwhile assembles consistent,
/// epoch-stamped views without stopping ingest.
///
/// **Determinism contract.** For a fixed event sequence (one logical
/// ingest order) and a fixed shard count, snapshots are bit-identical
/// regardless of worker interleaving: rows are disjoint across shards,
/// each shard merges in its own receive order (= the send order, by
/// channel FIFO), and the snapshot fold walks shards in index order.
/// With *multiple* concurrent ingest threads the per-shard order is
/// whatever the channel arbitration produced — still a consistent
/// per-shard prefix at every snapshot, but only ⊕-commutative workloads
/// (all of Table I) see identical folds across runs.
///
/// **One wave at a time.** Snapshots, incremental snapshots, rotations
/// and checkpoints are marker waves, and they run one at a time: a wave
/// stamps its epoch, cuts every shard and finishes (assembly, standing
/// update, sink publication) before the next stamps, so epochs follow
/// cut order on every shard. A [`SnapshotSink`] or [`StandingView`] must
/// therefore not start a wave from inside `publish` or `apply`.
pub struct Pipeline<S: Semiring>
where
    S::Value: PodValue,
{
    nrows: Ix,
    ncols: Ix,
    s: S,
    config: PipelineConfig,
    shards: Vec<Shard<S>>,
    epoch: AtomicU64,
    /// Held by the one marker wave in flight.
    waves: Mutex<()>,
    metrics: Arc<PipelineMetrics>,
    /// Context for snapshot assembly (the cross-shard ⊕-fold).
    assemble_ctx: OpCtx,
    /// Subscribers to [`Pipeline::snapshot_shared`] publication.
    sinks: Mutex<Vec<Arc<dyn SnapshotSink<S>>>>,
    /// Standing views maintained from epoch deltas.
    standing: StandingRegistry<S>,
}

impl<S: Semiring> Pipeline<S>
where
    S::Value: PodValue,
{
    /// Launch a pipeline with default parameters.
    pub fn new(nrows: Ix, ncols: Ix, s: S) -> Self {
        Pipeline::with_config(nrows, ncols, s, PipelineConfig::default())
    }

    /// Launch a pipeline: spawns `config.shards` worker threads, each
    /// with an empty stream and a bounded channel.
    pub fn with_config(nrows: Ix, ncols: Ix, s: S, config: PipelineConfig) -> Self {
        let streams = (0..config.shards)
            .map(|_| StreamingMatrix::with_config(nrows, ncols, s, config.stream))
            .collect();
        Pipeline::from_streams(nrows, ncols, s, config, streams, 0, 0)
    }

    fn from_streams(
        nrows: Ix,
        ncols: Ix,
        s: S,
        config: PipelineConfig,
        streams: Vec<StreamingMatrix<S>>,
        epoch: u64,
        events: u64,
    ) -> Self {
        assert_eq!(streams.len(), config.shards);
        let metrics = Arc::new(PipelineMetrics::new(config.shards));
        metrics.seed_events(events);
        let shards = streams
            .into_iter()
            .enumerate()
            .map(|(i, stream)| Shard::spawn(i, stream, &config, Arc::clone(&metrics)))
            .collect();
        Pipeline {
            nrows,
            ncols,
            s,
            config,
            shards,
            epoch: AtomicU64::new(epoch),
            waves: Mutex::new(()),
            metrics,
            // Shards are the parallelism axis; assembly runs on one thread.
            assemble_ctx: OpCtx::new().with_threads(1),
            sinks: Mutex::new(Vec::new()),
            standing: StandingRegistry::default(),
        }
    }

    // -- ingest ---------------------------------------------------------

    fn check_key(&self, row: Ix, col: Ix) -> Result<usize, PipelineError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(PipelineError::KeyOutOfBounds {
                row,
                col,
                bounds: (self.nrows, self.ncols),
            });
        }
        Ok(shard_of(row, self.config.shards))
    }

    /// Append one event, **blocking** while the target shard's channel
    /// is at capacity — ingest is throttled to merge throughput instead
    /// of queueing unboundedly.
    ///
    /// A convenience for tests, trickle feeds and one-off writes: every
    /// call is its own channel message, measured at 757–1 048 ns/event
    /// against 92–160 ns/event through [`Pipeline::ingest_batch`] in
    /// batches of 1 024 (the benchmark's `--writer-gap` ladder). Feed a
    /// stream through `ingest_batch`.
    pub fn ingest(&self, row: Ix, col: Ix, val: S::Value) -> Result<(), PipelineError> {
        let shard = self.check_key(row, col)?;
        self.send_events(shard, Command::Event(row, col, val), 1, Shard::send)
    }

    /// Append one event **without blocking**: returns
    /// [`PipelineError::Full`] when the shard is saturated, letting the
    /// caller shed or defer load explicitly. Costs one channel message
    /// per event like [`Pipeline::ingest`] (757–1 048 ns/event against
    /// 92–160 batched): probe for backpressure with it, carry the volume
    /// with [`Pipeline::ingest_batch`].
    pub fn try_ingest(&self, row: Ix, col: Ix, val: S::Value) -> Result<(), PipelineError> {
        let shard = self.check_key(row, col)?;
        self.send_events(shard, Command::Event(row, col, val), 1, Shard::try_send)
    }

    /// Route a batch: one channel message per shard touched (amortizes
    /// channel traffic ~`buffer`-fold for high-rate feeds). Blocking, in
    /// shard-index order; per-shard event order preserves iteration
    /// order, so batch boundaries never affect results.
    pub fn ingest_batch(
        &self,
        events: impl IntoIterator<Item = (Ix, Ix, S::Value)>,
    ) -> Result<(), PipelineError> {
        let t = Instant::now();
        let events = events.into_iter();
        // An even split of what the iterator promises; a skewed batch
        // grows its busy shard's vector from there.
        let per_shard = events.size_hint().0.div_ceil(self.config.shards);
        let mut routed: Vec<Vec<(Ix, Ix, S::Value)>> = (0..self.config.shards)
            .map(|_| Vec::with_capacity(per_shard))
            .collect();
        for (row, col, val) in events {
            let shard = self.check_key(row, col)?;
            routed[shard].push((row, col, val));
        }
        for (shard, batch) in routed.into_iter().enumerate() {
            if !batch.is_empty() {
                let n = batch.len() as u64;
                self.send_events(shard, Command::Batch(batch), n, Shard::send)?;
            }
        }
        self.metrics.record_stage(Stage::Route, t.elapsed());
        Ok(())
    }

    /// Hand one message carrying `events` events to a shard through
    /// `send` (blocking or not), metering the send as [`Stage::Ingest`].
    fn send_events(
        &self,
        shard: usize,
        cmd: Command<S>,
        events: u64,
        send: impl Fn(&Shard<S>, usize, Command<S>) -> Result<(), PipelineError>,
    ) -> Result<(), PipelineError> {
        let t = Instant::now();
        self.metrics.depth_inc(shard);
        let sent = send(&self.shards[shard], shard, cmd);
        match &sent {
            Ok(()) => {
                self.metrics.record_accepted(events);
                self.metrics.record_stage(Stage::Ingest, t.elapsed());
            }
            Err(e) => {
                self.metrics.depth_dec(shard);
                if matches!(e, PipelineError::Full { .. }) {
                    self.metrics.record_rejected();
                }
            }
        }
        sent
    }

    // -- marker waves ---------------------------------------------------

    /// Run one marker wave. Under the wave lock, held until `finish`
    /// returns: stamp the next epoch, read the accepted-event count, send
    /// every shard a marker that runs `cut` on its stream, collect the
    /// replies in shard order, and hand `finish` the epoch, the count and
    /// the replies (for the assembly, standing update or sink
    /// publication). So waves run one at a time, and epochs follow cut
    /// order on every shard.
    fn wave<R: Send + 'static, T>(
        &self,
        name: &'static str,
        shard_span: &'static str,
        cut: impl FnOnce(usize, &mut StreamingMatrix<S>) -> R + Clone + Send + 'static,
        finish: impl FnOnce(u64, u64, Vec<R>) -> Result<T, PipelineError>,
    ) -> Result<T, PipelineError> {
        // Recover, don't propagate, poisoning: the lock guards no data,
        // and a sink that panicked mid-publish must not stop every later
        // wave.
        let _one_at_a_time = self.waves.lock().unwrap_or_else(|e| e.into_inner());
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let _span = self
            .assemble_ctx
            .trace()
            .span(name, || format!("epoch {epoch}"));
        let events = self.metrics.events_ingested();
        // Send every marker before collecting any reply, so shards cut
        // their streams concurrently.
        let sending = self.span("wave_send");
        let mut replies = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            let cut = cut.clone();
            let work: MarkerWork<S> = Box::new(move |i, stream| {
                let part = cut(i, stream);
                // The wave may have failed on another shard; ignore.
                Box::new(move || drop(tx.send(part)))
            });
            let marker = Command::Marker {
                span: shard_span,
                work,
            };
            self.metrics.depth_inc(i);
            if let Err(e) = shard.send(i, marker) {
                self.metrics.depth_dec(i);
                return Err(e);
            }
            replies.push(rx);
        }
        drop(sending);
        let waiting = self.span("wave_wait");
        let parts = replies
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                rx.recv()
                    .map_err(|_| PipelineError::ShardTerminated { shard: i })
            })
            .collect::<Result<_, _>>()?;
        drop(waiting);
        finish(epoch, events, parts)
    }

    /// A child span of the running wave's span.
    fn span(&self, name: &'static str) -> Span<'_> {
        self.assemble_ctx.trace().span(name, String::new)
    }

    /// ⊕-fold per-shard parts (disjoint row sets) into one snapshot.
    fn assemble(&self, epoch: u64, events: u64, parts: Vec<Dcsr<S::Value>>) -> EpochSnapshot<S> {
        EpochSnapshot::assemble(epoch, events, &self.assemble_ctx, parts, self.s)
    }

    /// Hand `snap` to every registered sink.
    fn publish(&self, snap: Arc<EpochSnapshot<S>>) -> Arc<EpochSnapshot<S>> {
        // Recover, don't propagate, poisoning: the registry Vec is
        // always structurally valid, and a sink that panicked mid-publish
        // must not take down every later publication.
        let sinks = self.sinks.lock().unwrap_or_else(|e| e.into_inner());
        for sink in sinks.iter() {
            sink.publish(&snap);
        }
        snap
    }

    // -- query ----------------------------------------------------------

    /// Take an epoch-stamped snapshot: sends a marker wave down every
    /// shard channel, then ⊕-folds the per-shard cuts (disjoint row
    /// sets) into one owned [`EpochSnapshot`]. Ingest continues behind
    /// the markers; nothing enqueued after this call's markers can
    /// appear in the result, and everything this thread enqueued before
    /// the call is guaranteed in.
    pub fn snapshot(&self) -> Result<EpochSnapshot<S>, PipelineError> {
        self.snapshot_wave(|snap| snap)
    }

    /// The [`Pipeline::snapshot`] wave; `then` is its last step.
    fn snapshot_wave<T>(
        &self,
        then: impl FnOnce(EpochSnapshot<S>) -> T,
    ) -> Result<T, PipelineError> {
        let t = Instant::now();
        let fold = |_, stream: &mut StreamingMatrix<S>| stream.snapshot();
        self.wave("snapshot", "shard_fold", fold, |epoch, events, parts| {
            let snap = {
                let _span = self.span("assemble");
                self.assemble(epoch, events, parts)
            };
            self.metrics.record_stage(Stage::Snapshot, t.elapsed());
            Ok(then(snap))
        })
    }

    /// Close the current analytics window: send a rotate-marker wave
    /// down every shard channel, ⊕-fold the per-shard cuts into the
    /// closing window's [`EpochSnapshot`], and leave every shard empty
    /// for the next window. Ingest continues behind the markers — events
    /// enqueued after this call land in the new window, everything this
    /// thread enqueued before the call is in the closed one. The epoch
    /// counter stamps the closed window exactly like a snapshot.
    ///
    /// `events()` on the result is the *cumulative* accepted count at
    /// the cut (monotone across windows), not the per-window count.
    ///
    /// Standing views registered via
    /// [`Pipeline::register_standing_query`] observe rotation as one
    /// [`StandingView::close`] call carrying the closing delta (the
    /// closing window's tail — entries since the last marker wave; the
    /// closed window itself when no wave cut it) — by default
    /// `apply_delta` followed by `reset` — so every event of the closed
    /// window reached them exactly once before the state clears.
    /// Each shard's closing window sets its next flush threshold
    /// ([`hypersparse::StreamingMatrix::flush_threshold`], exposed as
    /// the `pipeline_shard_flush_threshold` gauge).
    pub fn rotate(&self) -> Result<EpochSnapshot<S>, PipelineError> {
        self.rotate_wave(|snap| snap)
    }

    /// [`Pipeline::rotate`], wrapped in an `Arc` and published to every
    /// registered [`SnapshotSink`] — the window-closing twin of
    /// [`Pipeline::snapshot_shared`].
    pub fn rotate_shared(&self) -> Result<Arc<EpochSnapshot<S>>, PipelineError> {
        self.rotate_wave(|snap| self.publish(Arc::new(snap)))
    }

    /// The [`Pipeline::rotate`] wave; `then` is its last step.
    fn rotate_wave<T>(&self, then: impl FnOnce(EpochSnapshot<S>) -> T) -> Result<T, PipelineError> {
        let t = Instant::now();
        let metrics = Arc::clone(&self.metrics);
        let close = move |shard, stream: &mut StreamingMatrix<S>| {
            let closed = stream.rotate();
            // Set before the reply: a caller reads the new threshold as
            // soon as `rotate` returns.
            metrics.set_flush_threshold(shard, stream.flush_threshold());
            closed
        };
        self.wave("rotate", "shard_rotate", close, |epoch, events, parts| {
            let (parts, deltas): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
            let standing = !self.standing.is_empty();
            let assembly = self.span("assemble");
            // When no delta wave cut the window on any shard the closing
            // delta is the closing window itself, assembled once below.
            // Otherwise an uncut shard's whole window is its delta.
            let ut = Instant::now();
            let cut_delta = (standing && deltas.iter().any(Option::is_some)).then(|| {
                let delta_parts = deltas
                    .into_iter()
                    .zip(&parts)
                    .map(|(delta, closing)| delta.unwrap_or_else(|| closing.clone()))
                    .collect();
                self.assemble(epoch, events, delta_parts)
            });
            let delta_assembly = ut.elapsed();
            let snap = self.assemble(epoch, events, parts);
            drop(assembly);
            if standing {
                let _span = self.span("standing");
                let ut = Instant::now();
                self.standing.close(cut_delta.as_ref().unwrap_or(&snap));
                self.metrics
                    .record_stage(Stage::StandingUpdate, delta_assembly + ut.elapsed());
            }
            self.metrics.record_stage(Stage::Rotate, t.elapsed());
            Ok(then(snap))
        })
    }

    /// Subscribe a [`SnapshotSink`] to snapshot publication. Every
    /// subsequent [`Pipeline::snapshot_shared`] call hands the sink an
    /// `Arc` of the new epoch — the sink shares the assembled matrix,
    /// it never copies it.
    pub fn add_snapshot_sink(&self, sink: Arc<dyn SnapshotSink<S>>) {
        self.sinks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(sink);
    }

    /// Take a snapshot (exactly like [`Pipeline::snapshot`]), wrap it in
    /// an `Arc`, publish the handle to every registered sink, and return
    /// it. Publication is zero-copy: sinks and the caller all share one
    /// assembled epoch, so long-lived registries never block or copy for
    /// concurrent readers.
    pub fn snapshot_shared(&self) -> Result<Arc<EpochSnapshot<S>>, PipelineError> {
        self.snapshot_wave(|snap| self.publish(Arc::new(snap)))
    }

    // -- standing queries ----------------------------------------------

    /// Register a [`StandingView`] to be maintained incrementally: every
    /// subsequent [`Pipeline::snapshot_incremental`] feeds it the
    /// epoch's delta, and [`Pipeline::rotate`] hands it the closing
    /// delta through its `close`. `name` labels the view's
    /// `pipeline_standing_*` metric series.
    pub fn register_standing_query(&self, name: impl Into<String>, view: Arc<dyn StandingView<S>>) {
        self.standing.register(name.into(), view);
    }

    /// Take an incremental snapshot: one marker wave yields, per shard,
    /// both the full fold and the **delta** (entries inserted since the
    /// previous delta cut) at the same point in the stream. The two are
    /// ⊕-assembled into a same-epoch [`IncrementalEpoch`]; every
    /// registered standing view absorbs the delta (metered under
    /// [`Stage::StandingUpdate`]), and the full snapshot is published to
    /// sinks exactly like [`Pipeline::snapshot_shared`].
    ///
    /// Invariant (proved by the `incremental_props` suite): the full
    /// snapshot of wave `t` equals the ⊕-fold of all deltas up to `t`,
    /// so a view that folds deltas is always equal to the same
    /// computation run from scratch on `full`.
    pub fn snapshot_incremental(&self) -> Result<IncrementalEpoch<S>, PipelineError> {
        let t = Instant::now();
        let fold = |_, stream: &mut StreamingMatrix<S>| {
            // Delta first: it seals the live levels, after which the
            // full fold covers exactly the same cut.
            let delta = stream.delta_snapshot();
            (stream.snapshot(), delta)
        };
        self.wave(
            "snapshot_delta",
            "shard_fold_delta",
            fold,
            |epoch, events, parts| {
                let (full, delta): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
                let (full, delta) = {
                    let _span = self.span("assemble");
                    (
                        Arc::new(self.assemble(epoch, events, full)),
                        Arc::new(self.assemble(epoch, events, delta)),
                    )
                };
                self.metrics.record_stage(Stage::Snapshot, t.elapsed());
                {
                    let _span = self.span("standing");
                    let ut = Instant::now();
                    self.standing.apply(&delta);
                    self.metrics
                        .record_stage(Stage::StandingUpdate, ut.elapsed());
                }
                let full = self.publish(full);
                Ok(IncrementalEpoch { full, delta })
            },
        )
    }

    // -- checkpoint / restore -------------------------------------------

    /// Write a new checkpoint generation under `dir` and commit it
    /// atomically (see [`crate::checkpoint`] for the protocol). Advances
    /// the epoch: the manifest records the cut exactly like a snapshot
    /// marker wave would, so a restore resumes at this epoch with
    /// bit-identical snapshot contents. Returns the committed manifest.
    pub fn checkpoint(&self, dir: &Path) -> Result<Manifest, PipelineError> {
        let t = Instant::now();
        std::fs::create_dir_all(dir).map_err(|e| PipelineError::io("creating", dir, e))?;
        let generation = list_generations(dir)?.last().copied().unwrap_or(0) + 1;
        let shard_dir = dir.to_path_buf();
        let write = move |shard, stream: &mut StreamingMatrix<S>| {
            stream.flush();
            let bytes = encode_shard(stream);
            write_shard_file(&shard_dir, generation, shard, &bytes, stream.inserted())
        };
        self.wave(
            "checkpoint",
            "shard_checkpoint",
            write,
            |epoch, events, shards| {
                let _span = self.span("assemble");
                let manifest = Manifest {
                    generation,
                    epoch,
                    value_tag: <S::Value as PodValue>::TAG,
                    nrows: self.nrows,
                    ncols: self.ncols,
                    events,
                    shards: shards.into_iter().collect::<Result<_, _>>()?,
                };
                commit_manifest(dir, &manifest)?;
                prune_generations(dir, self.config.keep_generations);
                self.metrics.record_stage(Stage::Checkpoint, t.elapsed());
                Ok(manifest)
            },
        )
    }

    /// Restore from the newest committed generation under `dir`.
    /// `config.shards` is taken from the manifest (shard files are only
    /// valid for the routing that filled them); every other knob applies
    /// as given. Fails with a typed error — never a panic — on missing,
    /// truncated, or checksum-mismatched state.
    pub fn restore(dir: &Path, s: S, config: PipelineConfig) -> Result<Self, PipelineError> {
        let gens = list_generations(dir)?;
        let latest = *gens.last().ok_or_else(|| PipelineError::NoManifest {
            dir: dir.to_path_buf(),
        })?;
        Pipeline::restore_generation(dir, latest, s, config)
    }

    /// Restore a specific committed generation.
    pub fn restore_generation(
        dir: &Path,
        generation: u64,
        s: S,
        config: PipelineConfig,
    ) -> Result<Self, PipelineError> {
        let t = Instant::now();
        let manifest = read_manifest(dir, generation)?;
        if manifest.value_tag != <S::Value as PodValue>::TAG {
            return Err(PipelineError::Incompatible {
                detail: format!(
                    "value tag {} on disk, {} requested",
                    manifest.value_tag,
                    <S::Value as PodValue>::TAG
                ),
            });
        }
        let config = config.with_shards(manifest.shards.len());
        let streams = manifest
            .shards
            .iter()
            .map(|meta| load_shard(dir, meta, s, config.stream))
            .collect::<Result<Vec<_>, _>>()?;
        let p = Pipeline::from_streams(
            manifest.nrows,
            manifest.ncols,
            s,
            config,
            streams,
            manifest.epoch,
            manifest.events,
        );
        p.metrics.record_stage(Stage::Restore, t.elapsed());
        p.assemble_ctx.trace().record_span(
            "restore",
            format!("generation {generation}"),
            t.elapsed(),
        );
        Ok(p)
    }

    /// Restore the newest generation that validates, walking backwards
    /// over committed generations when the newest is corrupt (a fallback
    /// for torn disks; pair with `keep_generations ≥ 2`). Returns the
    /// pipeline and the generation that loaded. Errors only when no
    /// generation validates — with the *newest* generation's error, the
    /// one an operator needs to see.
    pub fn restore_with_fallback(
        dir: &Path,
        s: S,
        config: PipelineConfig,
    ) -> Result<(Self, u64), PipelineError> {
        let gens = list_generations(dir)?;
        let mut first_err = None;
        for &g in gens.iter().rev() {
            match Pipeline::restore_generation(dir, g, s, config) {
                Ok(p) => return Ok((p, g)),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        Err(first_err.unwrap_or(PipelineError::NoManifest {
            dir: dir.to_path_buf(),
        }))
    }

    // -- lifecycle ------------------------------------------------------

    /// Graceful shutdown: close every channel, let workers drain all
    /// queued work (channel FIFO guarantees nothing is dropped), and
    /// join their threads.
    pub fn shutdown(mut self) -> Result<(), PipelineError> {
        self.join_workers()
    }

    /// Drain, write a final checkpoint, then shut down. The manifest it
    /// returns is the durable image of every event ever accepted.
    pub fn shutdown_with_checkpoint(self, dir: &Path) -> Result<Manifest, PipelineError> {
        // The checkpoint marker itself rides behind all queued ingest,
        // so the final image includes every accepted event.
        let manifest = self.checkpoint(dir)?;
        self.shutdown()?;
        Ok(manifest)
    }

    fn join_workers(&mut self) -> Result<(), PipelineError> {
        let mut handles = Vec::new();
        for (i, mut shard) in self.shards.drain(..).enumerate() {
            let handle = shard.handle.take();
            drop(shard); // drops the sender: the worker's drain signal
            if let Some(h) = handle {
                handles.push((i, h));
            }
        }
        for (i, h) in handles {
            h.join()
                .map_err(|_| PipelineError::ShardTerminated { shard: i })?;
        }
        Ok(())
    }

    // -- introspection --------------------------------------------------

    /// Row key-space bound.
    pub fn nrows(&self) -> Ix {
        self.nrows
    }

    /// Column key-space bound.
    pub fn ncols(&self) -> Ix {
        self.ncols
    }

    /// Number of shards (= worker threads).
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// The configuration this pipeline runs with.
    pub fn config(&self) -> PipelineConfig {
        self.config
    }

    /// The current epoch (last stamped snapshot/checkpoint).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Events accepted so far (enqueued; possibly not yet merged).
    pub fn events_ingested(&self) -> u64 {
        self.metrics.events_ingested()
    }

    /// Live service counters (ingest volume, rejections, depths,
    /// latencies).
    pub fn metrics(&self) -> &PipelineMetrics {
        &self.metrics
    }

    /// Frozen service counters.
    pub fn metrics_snapshot(&self) -> PipelineMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Kernel counters summed across every shard plus the snapshot
    /// assembler.
    pub fn kernel_metrics(&self) -> MetricsSnapshot {
        let mut total = self.assemble_ctx.metrics().snapshot();
        for shard in &self.shards {
            total.merge(&shard.ctx.metrics().snapshot());
        }
        total
    }

    // -- tracing --------------------------------------------------------

    /// Switch span tracing on every context this pipeline owns (the
    /// snapshot assembler and all shard workers). Default is
    /// [`TraceMode::Disabled`]: span sites cost one relaxed atomic load.
    pub fn set_trace_mode(&self, mode: TraceMode) {
        self.assemble_ctx.trace().set_mode(mode);
        for shard in &self.shards {
            shard.ctx.trace().set_mode(mode);
        }
    }

    /// Record any span at or over `threshold` (with its input-shape
    /// detail) on every owned context, even in
    /// [`TraceMode::SlowOnly`]. `None` switches slow-op capture off.
    pub fn set_slow_threshold(&self, threshold: Option<std::time::Duration>) {
        self.assemble_ctx.trace().set_slow_threshold(threshold);
        for shard in &self.shards {
            shard.ctx.trace().set_slow_threshold(threshold);
        }
    }

    /// Render every owned context's span tree (assembler first, then
    /// shards in index order). Empty when nothing was traced.
    pub fn trace_report(&self) -> String {
        let mut out = String::new();
        let assembler = self.assemble_ctx.trace().report();
        if !assembler.is_empty() {
            out.push_str("assembler:\n");
            out.push_str(&assembler);
        }
        for (i, shard) in self.shards.iter().enumerate() {
            let tree = shard.ctx.trace().report();
            if !tree.is_empty() {
                out.push_str(&format!("shard {i}:\n"));
                out.push_str(&tree);
            }
        }
        out
    }

    /// Write the pipeline's own families into `out`: service counters,
    /// stage latency, and the per-standing-view series. The kernel rows
    /// are `self.kernel_metrics().expose(out)`, left to the caller so a
    /// layer that owns a further `OpCtx` can merge its registry in first
    /// and every `hypersparse_*` family is declared once per body.
    pub fn expose(&self, out: &mut Exposition) {
        self.metrics_snapshot().expose(out);
        StandingViewStats::expose(&self.standing.stats(), out);
    }

    /// The full Prometheus text exposition: [`Pipeline::expose`], then
    /// the kernel counters and latency histograms merged across every
    /// shard and the assembler.
    pub fn render_prometheus(&self) -> String {
        let mut out = Exposition::default();
        self.expose(&mut out);
        self.kernel_metrics().expose(&mut out);
        out.finish()
    }
}

impl<S: Semiring> Drop for Pipeline<S>
where
    S::Value: PodValue,
{
    fn drop(&mut self) {
        // Best-effort drain-and-join so tests and short-lived tools never
        // leak worker threads; errors are unreportable here.
        let _ = self.join_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semiring::PlusTimes;

    #[test]
    fn ingest_and_snapshot_single_thread() {
        let p = Pipeline::new(1 << 20, 1 << 20, PlusTimes::<f64>::new());
        for i in 0..500u64 {
            p.ingest(i % 50, i / 50, 1.0).unwrap();
        }
        let snap = p.snapshot().unwrap();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.events(), 500);
        assert_eq!(snap.nnz(), 500);
        assert_eq!(snap.get(0, 0), Some(&1.0));
        assert_eq!(p.epoch(), 1);
        p.shutdown().unwrap();
    }

    #[test]
    fn out_of_bounds_keys_are_typed_errors() {
        let p = Pipeline::new(8, 8, PlusTimes::<f64>::new());
        let r = p.ingest(9, 0, 1.0);
        assert!(
            matches!(r, Err(PipelineError::KeyOutOfBounds { .. })),
            "{r:?}"
        );
        let r = p.try_ingest(0, 8, 1.0);
        assert!(matches!(r, Err(PipelineError::KeyOutOfBounds { .. })));
        assert_eq!(p.events_ingested(), 0);
    }

    #[test]
    fn try_ingest_reports_backpressure() {
        // 1 shard, 1-message channel, and a worker wedged behind a slow
        // snapshot is hard to stage deterministically; instead saturate
        // with the worker's own arrival race: capacity 1 and rapid-fire
        // try_ingest must eventually see Full at least once, and every
        // accepted event must still be merged exactly once.
        let config = PipelineConfig::new()
            .with_shards(1)
            .with_channel_capacity(1);
        let p = Pipeline::with_config(1 << 10, 1 << 10, PlusTimes::<f64>::new(), config);
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for i in 0..50_000u64 {
            match p.try_ingest(i % 100, i % 97, 1.0) {
                Ok(()) => accepted += 1,
                Err(PipelineError::Full { shard: 0 }) => rejected += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert_eq!(p.events_ingested(), accepted);
        assert_eq!(p.metrics_snapshot().full_rejections, rejected);
        let snap = p.snapshot().unwrap();
        let total: f64 = snap.dcsr().iter().map(|(_, _, v)| *v).sum();
        assert_eq!(total, accepted as f64);
        p.shutdown().unwrap();
    }

    #[test]
    fn batch_and_event_ingest_agree() {
        let s = PlusTimes::<f64>::new();
        let events: Vec<(u64, u64, f64)> = (0..4000u64)
            .map(|i| (i % 37, (i * 7) % 41, (i % 5) as f64 + 0.5))
            .collect();
        let a = Pipeline::new(64, 64, s);
        for &(r, c, v) in &events {
            a.ingest(r, c, v).unwrap();
        }
        let b = Pipeline::new(64, 64, s);
        b.ingest_batch(events.clone()).unwrap();
        assert_eq!(a.snapshot().unwrap().dcsr(), b.snapshot().unwrap().dcsr());
        a.shutdown().unwrap();
        b.shutdown().unwrap();
    }

    type SeenSnapshots = Arc<Mutex<Vec<Arc<EpochSnapshot<PlusTimes<f64>>>>>>;

    #[test]
    fn snapshot_shared_publishes_to_sinks_zero_copy() {
        let p = Pipeline::new(64, 64, PlusTimes::<f64>::new());
        let seen: SeenSnapshots = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let seen = Arc::clone(&seen);
            move |snap: &Arc<EpochSnapshot<PlusTimes<f64>>>| {
                seen.lock().unwrap().push(Arc::clone(snap));
            }
        };
        p.add_snapshot_sink(Arc::new(sink));

        p.ingest(1, 2, 3.0).unwrap();
        let first = p.snapshot_shared().unwrap();
        p.ingest(4, 5, 6.0).unwrap();
        let second = p.snapshot_shared().unwrap();

        let held = seen.lock().unwrap();
        assert_eq!(held.len(), 2);
        // Zero-copy: the sink holds the *same* allocation the caller got.
        assert!(Arc::ptr_eq(&held[0], &first));
        assert!(Arc::ptr_eq(&held[1], &second));
        assert_eq!(held[0].epoch(), 1);
        assert_eq!(held[1].epoch(), 2);
        // The first epoch's contents are immutable behind the Arc even
        // though ingest continued: it still sees exactly one event.
        assert_eq!(held[0].nnz(), 1);
        assert_eq!(held[1].nnz(), 2);
        p.shutdown().unwrap();
    }

    #[test]
    fn panicking_sink_does_not_kill_the_pipeline() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicBool;

        let p = Pipeline::new(64, 64, PlusTimes::<f64>::new());
        // A sink that panics on its first publication only.
        let armed = Arc::new(AtomicBool::new(true));
        let sink = {
            let armed = Arc::clone(&armed);
            move |_snap: &Arc<EpochSnapshot<PlusTimes<f64>>>| {
                if armed.swap(false, Ordering::SeqCst) {
                    panic!("sink exploded mid-publish");
                }
            }
        };
        p.add_snapshot_sink(Arc::new(sink));

        p.ingest(1, 2, 3.0).unwrap();
        // The panic unwinds through snapshot_shared while the sinks
        // mutex is held, poisoning it.
        let r = catch_unwind(AssertUnwindSafe(|| p.snapshot_shared()));
        assert!(r.is_err(), "the sink's panic must propagate to the caller");

        // Regression: the pipeline must survive the poisoned registry —
        // ingest, snapshot publication, rotation, and new registrations
        // all keep working.
        p.ingest(4, 5, 6.0).unwrap();
        let snap = p.snapshot_shared().expect("snapshot after poisoning");
        assert_eq!(snap.nnz(), 2);
        p.add_snapshot_sink(Arc::new(|_: &Arc<EpochSnapshot<PlusTimes<f64>>>| {}));
        let w = p.rotate_shared().expect("rotate after poisoning");
        assert_eq!(w.nnz(), 2);
        p.shutdown().unwrap();
    }

    /// A standing view that ⊕-folds delta entry values into a sum.
    #[derive(Default)]
    struct SumView {
        sum: Mutex<f64>,
        resets: AtomicU64,
    }

    impl StandingView<PlusTimes<f64>> for SumView {
        fn apply_delta(&self, delta: &EpochSnapshot<PlusTimes<f64>>) {
            let add: f64 = delta.dcsr().iter().map(|(_, _, v)| *v).sum();
            *self.sum.lock().unwrap() += add;
        }
        fn reset(&self) {
            *self.sum.lock().unwrap() = 0.0;
            self.resets.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn standing_view_folds_deltas_and_matches_full() {
        let config = PipelineConfig::new().with_shards(2);
        let p = Pipeline::with_config(1 << 10, 1 << 10, PlusTimes::<f64>::new(), config);
        let view = Arc::new(SumView::default());
        p.register_standing_query("sum", Arc::clone(&view) as Arc<dyn StandingView<_>>);

        p.ingest(1, 2, 3.0).unwrap();
        p.ingest(9, 9, 4.0).unwrap();
        let w1 = p.snapshot_incremental().unwrap();
        assert_eq!(w1.full.epoch(), w1.delta.epoch());
        assert_eq!(w1.delta.nnz(), 2);
        assert_eq!(*view.sum.lock().unwrap(), 7.0);

        // Second wave: only the new entry appears in the delta; the view
        // total still matches the full snapshot's fold.
        p.ingest(5, 5, 10.0).unwrap();
        let w2 = p.snapshot_incremental().unwrap();
        assert_eq!(w2.delta.nnz(), 1);
        assert_eq!(w2.full.nnz(), 3);
        let full_sum: f64 = w2.full.dcsr().iter().map(|(_, _, v)| *v).sum();
        assert_eq!(*view.sum.lock().unwrap(), full_sum);

        // Rotation delivers the closing tail, then resets the view.
        p.ingest(7, 7, 100.0).unwrap();
        let closed = p.rotate().unwrap();
        assert_eq!(closed.nnz(), 4);
        assert_eq!(view.resets.load(Ordering::Relaxed), 1);
        assert_eq!(*view.sum.lock().unwrap(), 0.0);
        assert_eq!(p.standing.stats()[0].updates, 3, "two waves + one rotation");

        // The fresh window's deltas start from zero again.
        p.ingest(1, 1, 2.5).unwrap();
        let w3 = p.snapshot_incremental().unwrap();
        assert_eq!(w3.delta.nnz(), 1);
        assert_eq!(*view.sum.lock().unwrap(), 2.5);

        let text = p.render_prometheus();
        assert!(text.contains("pipeline_standing_updates_total{view=\"sum\"} 4"));
        assert!(text.contains("pipeline_standing_update_seconds_bucket{view=\"sum\""));
        p.shutdown().unwrap();
    }

    #[test]
    fn incremental_and_plain_snapshots_interleave_consistently() {
        let p = Pipeline::new(64, 64, PlusTimes::<f64>::new());
        p.ingest(0, 0, 1.0).unwrap();
        let w1 = p.snapshot_incremental().unwrap();
        assert_eq!(
            w1.full.dcsr(),
            w1.delta.dcsr(),
            "first delta is the full fold"
        );
        // A plain snapshot between waves does not advance the delta cut.
        p.ingest(0, 1, 2.0).unwrap();
        let plain = p.snapshot().unwrap();
        assert_eq!(plain.nnz(), 2);
        p.ingest(0, 2, 3.0).unwrap();
        let w2 = p.snapshot_incremental().unwrap();
        assert_eq!(w2.delta.nnz(), 2, "delta spans back to the last delta cut");
        assert_eq!(w2.full.nnz(), 3);
        p.shutdown().unwrap();
    }

    #[test]
    fn rotate_closes_window_and_starts_fresh() {
        let config = PipelineConfig::new().with_shards(2);
        let p = Pipeline::with_config(1 << 10, 1 << 10, PlusTimes::<f64>::new(), config);
        p.ingest(1, 2, 3.0).unwrap();
        p.ingest(1, 2, 4.0).unwrap();
        let w1 = p.rotate().unwrap();
        assert_eq!(w1.epoch(), 1);
        assert_eq!(w1.nnz(), 1);
        assert_eq!(w1.get(1, 2), Some(&7.0));

        // The new window starts empty; the closed window is unaffected
        // by subsequent ingest.
        p.ingest(5, 6, 1.0).unwrap();
        let w2 = p.rotate().unwrap();
        assert_eq!(w2.epoch(), 2);
        assert_eq!(w2.nnz(), 1);
        assert_eq!(w2.get(5, 6), Some(&1.0));
        assert_eq!(w2.get(1, 2), None);
        assert_eq!(w1.get(1, 2), Some(&7.0));

        // An empty window is a valid (empty) epoch.
        let w3 = p.rotate().unwrap();
        assert_eq!(w3.nnz(), 0);
        assert_eq!(w3.epoch(), 3);
        p.shutdown().unwrap();
    }

    #[test]
    fn flush_threshold_gauge_follows_each_shards_window() {
        let stream = hypersparse::StreamConfig::new()
            .with_buffer_cap(32)
            .with_growth(8);
        let config = PipelineConfig::new().with_shards(2).with_stream(stream);
        let p = Pipeline::with_config(1 << 20, 1 << 20, PlusTimes::<f64>::new(), config);
        assert_eq!(p.metrics_snapshot().flush_thresholds, [32, 32]);
        // Distinct keys, so a shard's part of the window holds one entry
        // per event it received.
        for events in [600u64, 4000, 10] {
            p.ingest_batch((0..events).map(|i| (i, i, 1.0))).unwrap();
            let closed = p.rotate().unwrap();
            let want: Vec<usize> = closed
                .per_shard_nnz()
                .iter()
                .map(|&n| (n / 4).clamp(32, 256))
                .collect();
            assert_eq!(
                p.metrics_snapshot().flush_thresholds,
                want,
                "{events} events"
            );
        }
        assert!(p
            .render_prometheus()
            .contains("pipeline_shard_flush_threshold{shard=\"1\"} 32"));
        p.shutdown().unwrap();
    }

    #[test]
    fn stream_merge_metrics_flow_up() {
        let config = PipelineConfig::new().with_shards(2).with_stream(
            hypersparse::StreamConfig::new()
                .with_buffer_cap(32)
                .with_growth(2),
        );
        let p = Pipeline::with_config(1 << 20, 1 << 20, PlusTimes::<f64>::new(), config);
        let events: Vec<(u64, u64, f64)> = (0..5000u64).map(|i| (i % 997, i % 991, 1.0)).collect();
        p.ingest_batch(events).unwrap();
        let _ = p.snapshot().unwrap();
        let merged = p.kernel_metrics();
        assert!(
            merged.kernel(hypersparse::Kernel::StreamMerge).calls > 0,
            "cascades must be visible:\n{}",
            merged.report()
        );
        let per_shard: u64 = (0..2)
            .map(|i| {
                p.shards[i]
                    .ctx
                    .metrics()
                    .snapshot()
                    .kernel(hypersparse::Kernel::StreamMerge)
                    .calls
            })
            .sum();
        assert_eq!(
            per_shard,
            merged.kernel(hypersparse::Kernel::StreamMerge).calls
        );
        p.shutdown().unwrap();
    }

    /// A windowed traffic matrix: packet counts over the 2³² address
    /// space, a window closed by each rotation.
    fn traffic(shards: usize) -> Pipeline<PlusTimes<u64>> {
        let config = PipelineConfig::new().with_shards(shards);
        Pipeline::with_config(1 << 32, 1 << 32, PlusTimes::new(), config)
    }

    #[test]
    fn events_land_in_exactly_one_window() {
        let p = traffic(2);
        p.ingest_batch([(10, 20, 1), (10, 20, 2), (30, 40, 5)])
            .unwrap();
        let first = p.rotate_shared().unwrap();
        assert_eq!(first.nnz(), 2);
        assert_eq!(first.get(10, 20), Some(&3));

        p.ingest_batch([(10, 20, 7)]).unwrap();
        let second = p.rotate_shared().unwrap();
        assert_eq!(second.get(10, 20), Some(&7), "window reset between epochs");
        assert_eq!(second.nnz(), 1);
        assert_eq!(second.epoch(), first.epoch() + 1);
        p.shutdown().unwrap();
    }

    #[test]
    fn refresh_reports_deltas_without_closing() {
        let p = traffic(2);
        p.ingest_batch([(1, 2, 1), (3, 4, 1)]).unwrap();
        let first = p.snapshot_incremental().unwrap();
        assert_eq!(first.full.nnz(), 2);
        assert_eq!(first.delta.nnz(), 2, "first delta covers everything");
        p.ingest_batch([(5, 6, 1)]).unwrap();
        let second = p.snapshot_incremental().unwrap();
        assert_eq!(second.full.nnz(), 3);
        assert_eq!(second.delta.nnz(), 1, "later deltas see only new entries");
        // The window never closed: everything lands in one rotation.
        assert_eq!(p.rotate_shared().unwrap().nnz(), 3);
        p.shutdown().unwrap();
    }

    #[test]
    fn peek_observes_without_closing() {
        let p = traffic(1);
        p.ingest_batch([(1, 2, 1)]).unwrap();
        assert_eq!(p.snapshot_shared().unwrap().nnz(), 1);
        p.ingest_batch([(3, 4, 1)]).unwrap();
        // The window kept accumulating across the peek.
        assert_eq!(p.rotate_shared().unwrap().nnz(), 2);
        p.shutdown().unwrap();
    }
}
