//! The netflow analytics service: generator → windowed ingest →
//! detectors → serving, in one handle.
//!
//! [`NetflowService`] composes the whole stack the deployment papers
//! describe: packets stream through the sharded [`Pipeline`]; closing a
//! window (one rotation wave) publishes the immutable traffic matrix
//! into an embedded [`serve::QueryServer`] (under the
//! [`serve::ViewSchema::netflow`] schema, so SQL/select/neighbor
//! queries work over flows); and the typed [`NetflowQuery`] surface
//! answers detector queries against any retained window with the
//! `_ctx` kernel stack — every reduce, top-k, select, and rollup a
//! detector runs lands in the service's kernel metrics and the
//! per-detector latency histograms, all of it scrape-able from one
//! Prometheus exposition.
//!
//! Determinism: detector answers are a pure function of the closed
//! window's matrix, which the pipeline guarantees is bit-identical for
//! a fixed event order at any shard count — so detector output is too
//! (the property suite proves it at 1/2/4 shards).

use std::convert::Infallible;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use graph::incremental::DegreeState;
use graph::netsec::flag_degrees;
use hyperspace_core::cidr::{self, RollupAxes};
use hypersparse::ops as kernels;
use hypersparse::{Exposition, Ix, OpCtx, SparseVec};
use pipeline::{EpochSnapshot, Pipeline, PipelineConfig, StandingView};
use semiring::{PlusMonoid, PlusTimes};
use serve::{EpochView, QueryServer, ServeError, ViewSchema};

use crate::error::NetflowError;
use crate::gen::FlowEvent;
use crate::metrics::{NetflowMetrics, NetflowMetricsSnapshot};
use crate::query::{NetflowBody, NetflowQuery, NetflowQueryClass, NetflowResponse};
use crate::{TrafficSemiring, IP_SPACE};

/// Service parameters.
#[derive(Clone, Debug)]
pub struct NetflowConfig {
    /// Sharded-pipeline knobs (shard count, channel depth, stream).
    pub pipeline: PipelineConfig,
    /// Closed windows retained for querying.
    pub retain_windows: usize,
    /// Default fan-out threshold for [`NetflowService::detect`].
    pub scan_fanout: u64,
    /// Default fan-in threshold for [`NetflowService::detect`].
    pub ddos_fanin: u64,
}

impl Default for NetflowConfig {
    fn default() -> Self {
        NetflowConfig {
            pipeline: PipelineConfig::default(),
            retain_windows: 4,
            scan_fanout: 64,
            ddos_fanin: 64,
        }
    }
}

impl NetflowConfig {
    /// Default parameters (4 retained windows, thresholds at 64).
    pub fn new() -> Self {
        NetflowConfig::default()
    }

    /// Builder-style pipeline configuration.
    pub fn with_pipeline(mut self, p: PipelineConfig) -> Self {
        self.pipeline = p;
        self
    }

    /// Builder-style window retention (≥ 1).
    pub fn with_retain_windows(mut self, n: usize) -> Self {
        self.retain_windows = n;
        self
    }

    /// Builder-style detector thresholds.
    pub fn with_thresholds(mut self, scan_fanout: u64, ddos_fanin: u64) -> Self {
        self.scan_fanout = scan_fanout;
        self.ddos_fanin = ddos_fanin;
        self
    }
}

/// One window's detector verdict (the [`NetflowService::detect`]
/// convenience bundle).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowReport {
    /// The window (epoch) analysed.
    pub epoch: u64,
    /// `(src, fan_out)` scan suspects, fan-out descending.
    pub scan_suspects: Vec<(String, u64)>,
    /// `(dst, fan_in)` DDoS victims, fan-in descending.
    pub ddos_victims: Vec<(String, u64)>,
}

/// The incrementally maintained detector state: one [`DegreeState`]
/// folding every delta wave the pipeline publishes, registered as a
/// [`StandingView`] so it updates at snapshot cuts (and the final cut
/// of a closing window) and resets when the window rotates. The
/// `Standing*` query classes threshold the live degrees; rotation keeps
/// the finished degrees as the closed window's verdict, so judging the
/// window that just closed is a threshold scan too, not a rescan.
struct StandingDetectors {
    state: Mutex<DetectorState>,
    /// Epoch of the last absorbed delta (what standing answers are
    /// stamped with).
    epoch: AtomicU64,
    /// Shared with the service's detector context, so `DeltaDegree`
    /// cost lands in the same kernel registry as the scratch detectors.
    ctx: Arc<OpCtx>,
}

struct DetectorState {
    /// The open window's degrees.
    live: DegreeState,
    /// The last closed window: its epoch and finished
    /// `(fan_out, fan_in)` degrees.
    closed: Option<(u64, SparseVec<u64>, SparseVec<u64>)>,
}

/// Which degree vector a detector thresholds.
#[derive(Clone, Copy)]
enum Axis {
    FanOut,
    FanIn,
}

impl StandingDetectors {
    fn new(ctx: Arc<OpCtx>) -> Self {
        StandingDetectors {
            state: Mutex::new(DetectorState {
                live: DegreeState::new(IP_SPACE, IP_SPACE),
                closed: None,
            }),
            epoch: AtomicU64::new(0),
            ctx,
        }
    }

    fn lock(&self) -> MutexGuard<'_, DetectorState> {
        // A panic mid-detector cannot leave the degree state torn
        // (apply_delta mutates through &mut but each field assignment
        // is whole-value), so recover the guard rather than poisoning
        // every later query.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Threshold the open window's maintained degrees.
    fn flag_live(&self, axis: Axis, threshold: u64) -> Vec<(Ix, u64)> {
        let state = self.lock();
        match axis {
            Axis::FanOut => state.live.scan_suspects(threshold),
            Axis::FanIn => state.live.ddos_victims(threshold),
        }
    }

    /// Threshold the degrees rotation kept for window `epoch`; `None`
    /// when that is not the last window closed.
    fn flag_closed(&self, epoch: u64, axis: Axis, threshold: u64) -> Option<Vec<(Ix, u64)>> {
        let state = self.lock();
        let (_, fan_out, fan_in) = state.closed.as_ref().filter(|c| c.0 == epoch)?;
        Some(flag_degrees(
            match axis {
                Axis::FanOut => fan_out,
                Axis::FanIn => fan_in,
            },
            threshold,
        ))
    }
}

impl StandingView<TrafficSemiring> for StandingDetectors {
    fn apply_delta(&self, delta: &EpochSnapshot<TrafficSemiring>) {
        self.lock().live.apply_delta_ctx(&self.ctx, delta.dcsr());
        self.epoch.store(delta.epoch(), Ordering::Release);
    }

    fn reset(&self) {
        // Called after the closing delta was applied (stamping `epoch`):
        // the live degrees are the closed window's.
        let mut state = self.lock();
        let (fan_out, fan_in) = state.live.take_degrees();
        state.closed = Some((self.epoch(), fan_out, fan_in));
    }

    /// Rotation in one step: the closing delta finishes the degrees
    /// without building the pattern `reset` would drop.
    fn close(&self, delta: &EpochSnapshot<TrafficSemiring>) {
        let mut state = self.lock();
        let (fan_out, fan_in) = state.live.close_ctx(&self.ctx, delta.dcsr());
        state.closed = Some((delta.epoch(), fan_out, fan_in));
        self.epoch.store(delta.epoch(), Ordering::Release);
    }
}

/// The end-to-end netflow analytics service.
pub struct NetflowService {
    /// The traffic-matrix stream: its epochs are analysis windows.
    pipeline: Pipeline<TrafficSemiring>,
    server: Arc<QueryServer<TrafficSemiring>>,
    metrics: NetflowMetrics,
    /// Detector kernels run through this context: one metrics registry
    /// for every reduce/top-k/select/rollup the query surface performs.
    ctx: Arc<OpCtx>,
    standing: Arc<StandingDetectors>,
    config: NetflowConfig,
}

impl NetflowService {
    /// Launch a service: spawns the pipeline shards, wires the serving
    /// registry to window closure, and registers the standing detector
    /// state for delta-wave maintenance.
    pub fn new(config: NetflowConfig) -> Self {
        let pipeline = Pipeline::with_config(IP_SPACE, IP_SPACE, PlusTimes::new(), config.pipeline);
        let server = Arc::new(QueryServer::with_capacity(
            config.retain_windows,
            serve::DEFAULT_CACHE_ENTRIES,
            ViewSchema::netflow(),
        ));
        server.attach(&pipeline);
        let ctx = Arc::new(OpCtx::new());
        let standing = Arc::new(StandingDetectors::new(Arc::clone(&ctx)));
        pipeline.register_standing_query(
            "detectors",
            Arc::clone(&standing) as Arc<dyn StandingView<TrafficSemiring>>,
        );
        NetflowService {
            pipeline,
            server,
            metrics: NetflowMetrics::default(),
            ctx,
            standing,
            config,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &NetflowConfig {
        &self.config
    }

    /// Ingest one batch of flow events into the current window.
    pub fn ingest(&self, events: &[FlowEvent]) -> Result<(), NetflowError> {
        self.pipeline.ingest_batch(
            events
                .iter()
                .map(|&(s, d, p)| (Ix::from(s), Ix::from(d), p)),
        )?;
        Ok(())
    }

    /// Close the current window: the immutable traffic matrix publishes
    /// into the serving registry (window id = epoch) and is returned.
    pub fn close_window(&self) -> Result<Arc<EpochSnapshot<TrafficSemiring>>, NetflowError> {
        let snap = self.pipeline.rotate_shared()?;
        self.metrics.record_window(snap.nnz() as u64);
        Ok(snap)
    }

    /// Advance the standing views without closing the window: one
    /// incremental marker wave — the full cut publishes into the
    /// serving registry (queryable like any refresh), the delta folds
    /// into every standing view. Returns `(epoch, delta_nnz)`.
    pub fn refresh(&self) -> Result<(u64, u64), NetflowError> {
        Ok(self.server.refresh_incremental(&self.pipeline)?)
    }

    /// The embedded query server: SQL / select / neighbor / group-count
    /// queries over closed windows under the netflow schema.
    pub fn server(&self) -> &QueryServer<TrafficSemiring> {
        &self.server
    }

    /// Answer a typed netflow query against the newest closed window.
    /// Standing-query classes answer from maintained state and need no
    /// published window at all.
    pub fn query(&self, q: &NetflowQuery) -> Result<NetflowResponse, NetflowError> {
        self.respond(q, || self.pinned(self.server.pin_latest()))
    }

    /// Answer a typed netflow query against a specific retained window.
    /// Standing-query classes answer from maintained state whatever
    /// `epoch` names.
    pub fn query_window(
        &self,
        epoch: u64,
        q: &NetflowQuery,
    ) -> Result<NetflowResponse, NetflowError> {
        self.respond(q, || self.pinned(self.server.pin_epoch(epoch)))
    }

    /// Answer a typed netflow query against an already-held window
    /// snapshot (e.g. the return value of [`NetflowService::close_window`]).
    /// The two window detectors read the last closed window's verdict
    /// from the degree state rotation already built; any other snapshot
    /// (an older retained window, a `refresh()` cut) is rescanned.
    /// Standing-query classes answer from maintained state, as from
    /// [`NetflowService::query`].
    pub fn query_snapshot(
        &self,
        snap: &Arc<EpochSnapshot<TrafficSemiring>>,
        q: &NetflowQuery,
    ) -> NetflowResponse {
        let Ok(resp) = self.respond(q, || Ok::<_, Infallible>(&**snap));
        resp
    }

    /// The pinned window's snapshot, counting a failed pin as an error.
    fn pinned(
        &self,
        view: Result<Arc<EpochView<TrafficSemiring>>, ServeError>,
    ) -> Result<Arc<EpochSnapshot<TrafficSemiring>>, NetflowError> {
        let view = view.inspect_err(|_| self.metrics.record_error())?;
        Ok(Arc::clone(view.snapshot()))
    }

    /// The one query dispatch: one arm per class, every arm running
    /// `_ctx` kernels on the service's detector context. The standing
    /// classes threshold the open window's maintained degrees under one
    /// lock; they never call `held`, so no window is pinned, and the
    /// answer carries the last delta wave's epoch. Every other class
    /// answers against the window `held` returns and carries its epoch.
    /// Each answer records one sample in its class's histogram.
    fn respond<W, E>(
        &self,
        q: &NetflowQuery,
        held: impl FnOnce() -> Result<W, E>,
    ) -> Result<NetflowResponse, E>
    where
        W: Deref<Target = EpochSnapshot<TrafficSemiring>>,
    {
        let t = Instant::now();
        let ip = |i: Ix| cidr::ip_key(i as u32);
        let (epoch, body) = match *q {
            NetflowQuery::StandingScanSuspects { min_fanout } => (
                self.standing.epoch(),
                NetflowBody::Flagged(self.flag(Axis::FanOut, min_fanout, None)),
            ),
            NetflowQuery::StandingDdosVictims { min_fanin } => (
                self.standing.epoch(),
                NetflowBody::Flagged(self.flag(Axis::FanIn, min_fanin, None)),
            ),
            NetflowQuery::ScanSuspects { min_fanout } => {
                let snap = held()?;
                let flagged = self.flag(Axis::FanOut, min_fanout, Some(&*snap));
                (snap.epoch(), NetflowBody::Flagged(flagged))
            }
            NetflowQuery::DdosVictims { min_fanin } => {
                let snap = held()?;
                let flagged = self.flag(Axis::FanIn, min_fanin, Some(&*snap));
                (snap.epoch(), NetflowBody::Flagged(flagged))
            }
            NetflowQuery::TopTalkers { k } => {
                let snap = held()?;
                let top = kernels::top_k_rows_ctx(&self.ctx, snap.dcsr(), k, PlusMonoid::default());
                let top = top.into_iter().map(|(i, v)| (ip(i), v)).collect();
                (snap.epoch(), NetflowBody::Volumes(top))
            }
            NetflowQuery::TopListeners { k } => {
                let snap = held()?;
                let top = kernels::top_k_cols_ctx(&self.ctx, snap.dcsr(), k, PlusMonoid::default());
                let top = top.into_iter().map(|(i, v)| (ip(i), v)).collect();
                (snap.epoch(), NetflowBody::Volumes(top))
            }
            NetflowQuery::SuspectTraffic { ref sources } => {
                let snap = held()?;
                let rows: Vec<Ix> = sources.iter().map(|&s| Ix::from(s)).collect();
                let flows = graph::netsec::suspect_traffic_ctx(&self.ctx, snap.dcsr(), &rows)
                    .iter()
                    .map(|(r, c, &v)| (ip(r), ip(c), v))
                    .collect();
                (snap.epoch(), NetflowBody::Flows(flows))
            }
            NetflowQuery::Rollup { prefix, k } => {
                let snap = held()?;
                let rolled = cidr::rollup_ctx(
                    &self.ctx,
                    snap.dcsr(),
                    prefix,
                    RollupAxes::Both,
                    PlusTimes::new(),
                );
                let mut blocks: Vec<(Ix, Ix, u64)> =
                    rolled.iter().map(|(r, c, &v)| (r, c, v)).collect();
                blocks.sort_by(|x, y| {
                    y.2.cmp(&x.2)
                        .then_with(|| x.0.cmp(&y.0))
                        .then_with(|| x.1.cmp(&y.1))
                });
                blocks.truncate(k);
                let blocks = blocks
                    .into_iter()
                    .map(|(r, c, v)| {
                        (
                            cidr::cidr_key(r as u32, prefix),
                            cidr::cidr_key(c as u32, prefix),
                            v,
                        )
                    })
                    .collect();
                (snap.epoch(), NetflowBody::Blocks(blocks))
            }
        };
        let flagged = body.as_flagged().map_or(0, |v| v.len() as u64);
        self.metrics.record_query(q.class(), t.elapsed(), flagged);
        Ok(NetflowResponse { epoch, body })
    }

    /// One detector, one path: the flagged `(endpoint, degree)` pairs of
    /// the open window (`window = None`) or of a held one. A held window
    /// is answered from the degrees rotation kept when it is the last
    /// one closed, and rescanned otherwise; the two
    /// `netflow_detector_*_total` counters say which.
    fn flag(
        &self,
        axis: Axis,
        threshold: u64,
        window: Option<&EpochSnapshot<TrafficSemiring>>,
    ) -> Vec<(String, u64)> {
        let (hits, maintained) = match window {
            None => (self.standing.flag_live(axis, threshold), true),
            Some(snap) => match self.standing.flag_closed(snap.epoch(), axis, threshold) {
                Some(hits) => (hits, true),
                None => {
                    let a = snap.dcsr();
                    let hits = match axis {
                        Axis::FanOut => graph::netsec::scan_suspects_ctx(&self.ctx, a, threshold),
                        Axis::FanIn => graph::netsec::ddos_victims_ctx(&self.ctx, a, threshold),
                    };
                    (hits, false)
                }
            },
        };
        self.metrics.record_detector_path(maintained);
        hits.into_iter()
            .map(|(i, d)| (cidr::ip_key(i as u32), d))
            .collect()
    }

    /// Run both default-threshold detectors against the newest window.
    pub fn detect(&self) -> Result<WindowReport, NetflowError> {
        let view = self
            .server
            .pin_latest()
            .inspect_err(|_| self.metrics.record_error())?;
        self.detect_snapshot(view.snapshot())
    }

    /// Run both default-threshold detectors against a held window.
    pub fn detect_snapshot(
        &self,
        snap: &Arc<EpochSnapshot<TrafficSemiring>>,
    ) -> Result<WindowReport, NetflowError> {
        let timed = |class, axis, threshold| {
            let t = Instant::now();
            let flagged = self.flag(axis, threshold, Some(snap));
            self.metrics
                .record_query(class, t.elapsed(), flagged.len() as u64);
            flagged
        };
        Ok(WindowReport {
            epoch: snap.epoch(),
            scan_suspects: timed(
                NetflowQueryClass::ScanSuspects,
                Axis::FanOut,
                self.config.scan_fanout,
            ),
            ddos_victims: timed(
                NetflowQueryClass::DdosVictims,
                Axis::FanIn,
                self.config.ddos_fanin,
            ),
        })
    }

    /// Frozen netflow counters (windows, queries, detections).
    pub fn metrics(&self) -> NetflowMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The detector context's kernel registry: reduce/top-k/select/
    /// rollup traffic from the query surface.
    pub fn kernel_metrics(&self) -> hypersparse::MetricsSnapshot {
        self.ctx.metrics().snapshot()
    }

    /// The full Prometheus text exposition, one scrape body: pipeline
    /// stages and standing views, the kernel registry (the detector
    /// context ⊕ the pipeline's shards and assembler, so each
    /// `hypersparse_*` family is declared once), serving counters,
    /// netflow counters and per-detector histograms.
    pub fn render_prometheus(&self) -> String {
        let pipeline = &self.pipeline;
        let mut kernels = pipeline.kernel_metrics();
        kernels.merge(&self.kernel_metrics());
        let mut out = Exposition::default();
        pipeline.expose(&mut out);
        kernels.expose(&mut out);
        self.server.metrics().expose(&mut out);
        self.metrics().expose(&mut out);
        out.finish()
    }

    /// Graceful shutdown of the pipeline shard workers.
    pub fn shutdown(self) -> Result<(), NetflowError> {
        self.pipeline.shutdown()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GenConfig, TrafficGen};

    fn service(shards: usize) -> NetflowService {
        // Detector thresholds must clear the benign baseline: the
        // heavy-tailed head of a 512-host population at 4000 events
        // peaks under ~200 distinct peers, the episodes sit well above.
        NetflowService::new(
            NetflowConfig::new()
                .with_pipeline(PipelineConfig::new().with_shards(shards))
                .with_thresholds(256, 256),
        )
    }

    #[test]
    fn end_to_end_detects_injected_episodes() {
        let gen = TrafficGen::new(
            GenConfig::new()
                .with_hosts(512)
                .with_events_per_window(4000)
                .with_scan(1, 400)
                .with_ddos(1, 350),
        );
        let svc = service(2);
        // Window 0: clean traffic — no detections at the thresholds.
        svc.ingest(&gen.window(0)).unwrap();
        svc.close_window().unwrap();
        let clean = svc.detect().unwrap();
        assert!(clean.scan_suspects.is_empty(), "{:?}", clean.scan_suspects);
        assert!(clean.ddos_victims.is_empty(), "{:?}", clean.ddos_victims);

        // Window 1: both episodes must be flagged (zero false negatives).
        svc.ingest(&gen.window(1)).unwrap();
        svc.close_window().unwrap();
        let report = svc.detect().unwrap();
        assert_eq!(report.epoch, 2);
        let scan_src = cidr::ip_key(match gen.episodes()[0] {
            crate::gen::Episode::Scan { source, .. } => source,
            _ => unreachable!(),
        });
        let ddos_dst = cidr::ip_key(match gen.episodes()[1] {
            crate::gen::Episode::Ddos { victim, .. } => victim,
            _ => unreachable!(),
        });
        assert!(report
            .scan_suspects
            .iter()
            .any(|(s, d)| *s == scan_src && *d >= 400));
        assert!(report
            .ddos_victims
            .iter()
            .any(|(s, d)| *s == ddos_dst && *d >= 350));
        svc.shutdown().unwrap();
    }

    #[test]
    fn typed_queries_answer_against_retained_windows() {
        let svc = service(1);
        svc.ingest(&[(1, 2, 10), (1, 3, 5), (4, 2, 1)]).unwrap();
        svc.close_window().unwrap();

        let talkers = svc.query(&NetflowQuery::TopTalkers { k: 1 }).unwrap();
        assert_eq!(talkers.epoch, 1);
        assert_eq!(
            talkers.body.as_volumes().unwrap(),
            &[("000.000.000.001".to_string(), 15)]
        );
        let listeners = svc.query(&NetflowQuery::TopListeners { k: 2 }).unwrap();
        assert_eq!(
            listeners.body.as_volumes().unwrap(),
            &[
                ("000.000.000.002".to_string(), 11),
                ("000.000.000.003".to_string(), 5)
            ]
        );
        let drill = svc
            .query(&NetflowQuery::SuspectTraffic { sources: vec![1] })
            .unwrap();
        assert_eq!(drill.body.as_flows().unwrap().len(), 2);

        // The serving layer sees the same window under the netflow schema.
        let resp = svc
            .server()
            .query(&serve::QueryRequest::Neighbors {
                view: serve::View::Triple,
                host: "000.000.000.001".into(),
            })
            .unwrap();
        assert_eq!(
            resp.body.as_hosts().unwrap(),
            &["000.000.000.002".to_string(), "000.000.000.003".to_string()]
        );

        // Metrics partitioned by class; detector kernel calls recorded.
        let m = svc.metrics();
        assert_eq!(m.queries, 3);
        assert_eq!(m.windows_closed, 1);
        assert!(svc.kernel_metrics().kernel(hypersparse::Kernel::TopK).calls >= 2);
        svc.shutdown().unwrap();
    }

    #[test]
    fn rollup_query_aggregates_blocks() {
        let svc = service(1);
        // Two /16 sibling sources, one distinct /16.
        svc.ingest(&[
            (cidr::ip(10, 1, 0, 5), cidr::ip(10, 9, 0, 1), 3),
            (cidr::ip(10, 1, 200, 7), cidr::ip(10, 9, 4, 2), 4),
            (cidr::ip(10, 2, 0, 1), cidr::ip(10, 9, 0, 1), 1),
        ])
        .unwrap();
        svc.close_window().unwrap();
        let resp = svc
            .query(&NetflowQuery::Rollup { prefix: 16, k: 8 })
            .unwrap();
        let blocks = resp.body.as_blocks().unwrap();
        assert_eq!(
            blocks[0],
            (
                "010.001.000.000/16".to_string(),
                "010.009.000.000/16".to_string(),
                7
            )
        );
        assert_eq!(blocks.len(), 2);
        assert!(
            svc.kernel_metrics()
                .kernel(hypersparse::Kernel::Rollup)
                .calls
                >= 1
        );
        svc.shutdown().unwrap();
    }

    #[test]
    fn rollup_query_at_slash_zero_folds_all_traffic() {
        // The /0 path end-to-end through the service: every flow in the
        // window folds into the single whole-address-space block, and
        // asking twice (idempotence at the query layer) returns the
        // same answer.
        let svc = service(1);
        svc.ingest(&[
            (cidr::ip(10, 1, 0, 5), cidr::ip(192, 168, 0, 1), 3),
            (cidr::ip(172, 16, 3, 9), cidr::ip(8, 8, 8, 8), 4),
            (cidr::ip(255, 255, 255, 254), cidr::ip(0, 0, 0, 1), 1),
        ])
        .unwrap();
        svc.close_window().unwrap();
        let resp = svc
            .query(&NetflowQuery::Rollup { prefix: 0, k: 8 })
            .unwrap();
        let blocks = resp.body.as_blocks().unwrap();
        assert_eq!(
            blocks,
            &[(
                "000.000.000.000/0".to_string(),
                "000.000.000.000/0".to_string(),
                8
            )]
        );
        let again = svc
            .query(&NetflowQuery::Rollup { prefix: 0, k: 8 })
            .unwrap();
        assert_eq!(again.body.as_blocks().unwrap(), blocks);
        svc.shutdown().unwrap();
    }

    #[test]
    fn standing_detectors_fold_deltas_and_reset_on_rotation() {
        let svc = NetflowService::new(
            NetflowConfig::new()
                .with_pipeline(PipelineConfig::new().with_shards(2))
                .with_thresholds(3, 3),
        );
        // Wave 1: a scanner warming up (2 distinct destinations).
        svc.ingest(&[(7, 100, 1), (7, 101, 1), (1, 2, 5)]).unwrap();
        let (epoch1, delta1) = svc.refresh().unwrap();
        assert_eq!(delta1, 3, "first wave's delta covers everything");
        let none = svc
            .query(&NetflowQuery::StandingScanSuspects { min_fanout: 3 })
            .unwrap();
        assert_eq!(none.epoch, epoch1);
        assert!(none.body.as_flagged().unwrap().is_empty());

        // Wave 2: the scanner crosses the threshold; a DDoS converges.
        svc.ingest(&[(7, 102, 1), (7, 100, 9), (3, 50, 1), (4, 50, 1), (5, 50, 1)])
            .unwrap();
        let (epoch2, delta2) = svc.refresh().unwrap();
        // The repeat flow (7,100) reappears in the delta (it ⊕-merges
        // into the full view); the degree state must *not* recount it.
        assert_eq!(delta2, 5);
        let scans = svc
            .query(&NetflowQuery::StandingScanSuspects { min_fanout: 3 })
            .unwrap();
        assert_eq!(scans.epoch, epoch2);
        assert_eq!(
            scans.body.as_flagged().unwrap(),
            &[("000.000.000.007".to_string(), 3)]
        );
        // The standing answer matches the scratch detector on the same
        // published cut, order included.
        let scratch = svc
            .query(&NetflowQuery::ScanSuspects { min_fanout: 3 })
            .unwrap();
        assert_eq!(scans.body, scratch.body);
        let ddos = svc
            .query(&NetflowQuery::StandingDdosVictims { min_fanin: 3 })
            .unwrap();
        assert_eq!(
            ddos.body.as_flagged().unwrap(),
            &[("000.000.000.050".to_string(), 3)]
        );

        // Rotation: the closing delta folds (exactly once), then the
        // standing state resets with the window.
        svc.close_window().unwrap();
        let after = svc
            .query(&NetflowQuery::StandingScanSuspects { min_fanout: 1 })
            .unwrap();
        assert!(after.body.as_flagged().unwrap().is_empty());

        // Delta maintenance billed to the shared kernel registry.
        let dd = svc
            .kernel_metrics()
            .kernel(hypersparse::Kernel::DeltaDegree);
        assert!(dd.calls >= 3, "two refresh waves + the closing delta");

        // The standing view's latency histogram rides the pipeline
        // exposition; the new detector classes ride the netflow one.
        let text = svc.render_prometheus();
        assert!(text.contains("pipeline_standing_updates_total{view=\"detectors\"}"));
        assert!(text.contains("detector=\"standing_scan\""));
        svc.shutdown().unwrap();
    }

    #[test]
    fn standing_classes_answer_alike_through_every_entry_point() {
        let svc = NetflowService::new(
            NetflowConfig::new()
                .with_pipeline(PipelineConfig::new().with_shards(2))
                .with_thresholds(3, 3),
        );
        svc.ingest(&[(7, 100, 1), (7, 101, 1), (7, 102, 1)])
            .unwrap();
        let closed = svc.close_window().unwrap();
        svc.ingest(&[(3, 50, 1), (4, 50, 1), (5, 50, 1), (7, 100, 1)])
            .unwrap();
        let (epoch, _) = svc.refresh().unwrap();
        assert_ne!(epoch, closed.epoch());
        for (q, want) in [
            (
                NetflowQuery::StandingScanSuspects { min_fanout: 1 },
                NetflowBody::Flagged(vec![
                    ("000.000.000.003".to_string(), 1),
                    ("000.000.000.004".to_string(), 1),
                    ("000.000.000.005".to_string(), 1),
                    ("000.000.000.007".to_string(), 1),
                ]),
            ),
            (
                NetflowQuery::StandingDdosVictims { min_fanin: 3 },
                NetflowBody::Flagged(vec![("000.000.000.050".to_string(), 3)]),
            ),
        ] {
            let samples = || svc.metrics().class(q.class()).count();
            let before = samples();
            let answers = [
                svc.query(&q).unwrap(),
                // The open window's state answers whatever epoch is
                // named, retained or not.
                svc.query_window(closed.epoch(), &q).unwrap(),
                svc.query_window(u64::MAX, &q).unwrap(),
                svc.query_snapshot(&closed, &q),
            ];
            for resp in &answers {
                assert_eq!(resp.epoch, epoch, "{q:?}");
                assert_eq!(resp.body, want, "{q:?}");
            }
            assert_eq!(samples() - before, answers.len() as u64, "{q:?}");
        }
        assert_eq!(svc.metrics().errors, 0);
        svc.shutdown().unwrap();
    }

    #[test]
    fn closing_verdict_reads_maintained_state_and_older_windows_rescan() {
        let svc = NetflowService::new(
            NetflowConfig::new()
                .with_pipeline(PipelineConfig::new().with_shards(2))
                .with_thresholds(3, 3),
        );
        let scan = NetflowQuery::ScanSuspects { min_fanout: 3 };
        let ddos = NetflowQuery::DdosVictims { min_fanin: 3 };
        // Window 1: a scanner. Window 2 (cut by a delta wave): a DDoS.
        svc.ingest(&[(7, 100, 1), (7, 101, 1), (7, 102, 2), (1, 2, 5)])
            .unwrap();
        let first = svc.close_window().unwrap();
        let report = svc.detect_snapshot(&first).unwrap();
        assert_eq!(report.scan_suspects, [("000.000.000.007".to_string(), 3)]);
        assert!(report.ddos_victims.is_empty());
        let m = svc.metrics();
        assert_eq!((m.detector_state_answers, m.detector_rescans), (2, 0));
        // Any threshold reads the same kept degrees.
        let all = svc
            .query_snapshot(&first, &NetflowQuery::ScanSuspects { min_fanout: 1 })
            .body;
        assert_eq!(all.as_flagged().unwrap().len(), 2);

        svc.ingest(&[(3, 50, 1), (4, 50, 1)]).unwrap();
        svc.refresh().unwrap();
        svc.ingest(&[(5, 50, 1), (3, 50, 7)]).unwrap();
        let second = svc.close_window().unwrap();
        let victims = svc.query_snapshot(&second, &ddos).body;
        assert_eq!(
            victims.as_flagged().unwrap(),
            &[("000.000.000.050".to_string(), 3)]
        );
        assert_eq!(svc.metrics().detector_rescans, 0);

        // The older window is no longer the one the state describes: it
        // is rescanned, and says what it said when it closed.
        let again = svc.query_window(first.epoch(), &scan).unwrap().body;
        assert_eq!(again.as_flagged().unwrap(), report.scan_suspects);
        assert!(svc
            .query_snapshot(&first, &ddos)
            .body
            .as_flagged()
            .unwrap()
            .is_empty());
        assert_eq!(svc.metrics().detector_rescans, 2);
        svc.shutdown().unwrap();
    }

    #[test]
    fn prometheus_exposition_spans_all_layers() {
        let svc = service(1);
        svc.ingest(&[(1, 2, 1)]).unwrap();
        svc.close_window().unwrap();
        let _ = svc
            .query(&NetflowQuery::ScanSuspects { min_fanout: 1 })
            .unwrap();
        let text = svc.render_prometheus();
        for needle in [
            "pipeline_events_ingested_total",
            "serve_queries_total",
            "netflow_windows_closed_total",
            "netflow_query_latency_seconds_bucket{detector=\"scan_suspects\"",
            // The newest closed window's verdict came from the state
            // rotation built, not from a rescan.
            "netflow_detector_state_answers_total 1",
            "netflow_detector_rescans_total 0",
        ] {
            assert!(text.contains(needle), "missing {needle} in exposition");
        }
        svc.shutdown().unwrap();
    }
}
