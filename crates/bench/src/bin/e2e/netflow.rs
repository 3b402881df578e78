//! `netflow_ingest` and `netflow_detect`: one `NetflowService` driven
//! two ways. The closed-loop shape saturates `ingest` with big windows;
//! the open-loop shape holds a fixed event rate over small windows and
//! spends its time in marker waves, detectors and queries.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperspace_core::cidr::ip_key;
use netflow::{
    Episode, FlowEvent, GenConfig, NetflowConfig, NetflowQuery, NetflowService, TrafficGen,
    TrafficSemiring, WindowReport,
};
use pipeline::{EpochSnapshot, PipelineConfig};

use crate::harness::{
    set_end_to_end, set_up, us, Digest, Metrics, OpenLoop, Outcome, SlicedTimes, SlicedWork,
    SplitMix64, Tally,
};
use crate::layers::{kernel_rows, scrape, scrape_stage, shard_skew, trace_rows};
use crate::probes;
use crate::spans::{self, SpanLog};

/// Pre-generated windows the load generator cycles through.
const POOL: usize = 16;
/// Pool windows that carry one scan and one DDoS episode each.
const ATTACK_WINDOWS: [usize; 4] = [1, 5, 9, 13];
/// Cells of every closed window compared with the reference fold.
const SAMPLED_CELLS: usize = 64;
const BATCH: usize = 1024;

const QUERY_CLASSES: [&str; 7] = [
    "top_talkers",
    "scan_suspects",
    "ddos_victims",
    "rollup",
    "suspect_traffic",
    "standing_scan",
    "standing_ddos",
];

pub struct Shape {
    hosts: u32,
    events_per_window: usize,
    /// Distinct endpoints of each injected episode; the detector
    /// thresholds sit between the benign maximum and this.
    episode_size: u32,
    threshold: u64,
    /// Events per second of the open-loop schedule; `None` = closed loop.
    rate: Option<f64>,
    /// `refresh()` delta waves inside each window, each followed by the
    /// two standing-detector queries.
    refreshes: usize,
    /// Query classes (indices into [`QUERY_CLASSES`]) asked of each
    /// closed window's snapshot.
    after_close: &'static [usize],
    /// Windows driven through the service before the clock starts.
    warmup_windows: usize,
    /// Stated sample floors: windows, and timed query calls.
    freshness_floor: usize,
    query_floor: usize,
}

/// Closed loop. 65 536 hosts make the window matrix hypersparse enough
/// (~190 k distinct flows of 250 k events) that the shard merge
/// hierarchy cascades several levels; ISSUE 12's 500 k events/window
/// is halved so a run on a host half as fast still closes > 100 windows.
pub const INGEST: Shape = Shape {
    hosts: 65_536,
    events_per_window: 250_000,
    episode_size: 12_000,
    threshold: 8_000,
    rate: None,
    refreshes: 0,
    after_close: &[0],
    warmup_windows: 6,
    freshness_floor: 100,
    query_floor: 100,
};

/// Open loop. 512 hosts and 20 000 events give the ~12 k-flow window
/// `BENCH_netflow.json` pins, 50 of them a second at 1 M events/s.
pub const DETECT: Shape = Shape {
    hosts: 512,
    events_per_window: 20_000,
    episode_size: 400,
    threshold: 256,
    rate: Some(1e6),
    refreshes: 2,
    after_close: &[0, 1, 2, 3, 4],
    warmup_windows: 16,
    freshness_floor: 400,
    query_floor: 5_000,
};

/// Shards = 2 as `BENCH_netflow.json`/`BENCH_serving.json` pin. The
/// channel holds 64 messages, not the default 1 024: at ~512 events a
/// message the default buffers a whole window, so backpressure would
/// surface in `close_window` instead of inside `ingest`.
pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig::new()
        .with_shards(2)
        .with_channel_capacity(64)
}

/// What the reference fold says about one pool window.
struct WindowRef {
    nnz: usize,
    cells: Vec<(u32, u32, u64)>,
    scanners: Vec<String>,
    victims: Vec<String>,
}

struct Input {
    gen: TrafficGen,
    windows: Vec<Vec<FlowEvent>>,
    refs: Vec<WindowRef>,
    digest: u64,
}

fn generate(shape: &Shape, seed: u64) -> Input {
    let mut config = GenConfig::new()
        .with_hosts(shape.hosts)
        .with_events_per_window(shape.events_per_window)
        .with_seed(seed);
    for w in ATTACK_WINDOWS {
        config = config
            .with_scan(w, shape.episode_size)
            .with_ddos(w, shape.episode_size);
    }
    let gen = TrafficGen::new(config);
    let windows: Vec<Vec<FlowEvent>> = (0..POOL).map(|w| gen.window(w)).collect();
    let mut digest = Digest::default();
    let mut picks = SplitMix64::new(seed ^ 0x5EED_CE11);
    let refs = windows
        .iter()
        .enumerate()
        .map(|(w, events)| {
            // The benchmark's own ⊕-fold of the window: the reference
            // every closed window is compared with.
            let mut fold: BTreeMap<(u32, u32), u64> = BTreeMap::new();
            for &(s, d, p) in events {
                digest.write(u64::from(s) << 32 | u64::from(d));
                digest.write(p);
                *fold.entry((s, d)).or_insert(0) += p;
            }
            let cells = (0..SAMPLED_CELLS)
                .map(|_| {
                    let (s, d, _) = events[picks.below(events.len() as u64) as usize];
                    (s, d, fold[&(s, d)])
                })
                .collect();
            let mut scanners = Vec::new();
            let mut victims = Vec::new();
            for ep in gen.episodes_in(w) {
                match ep {
                    Episode::Scan { source, .. } => scanners.push(ip_key(source)),
                    Episode::Ddos { victim, .. } => victims.push(ip_key(victim)),
                }
            }
            WindowRef {
                nnz: fold.len(),
                cells,
                scanners,
                victims,
            }
        })
        .collect();
    Input {
        gen,
        windows,
        refs,
        digest: digest.value(),
    }
}

fn service(shape: &Shape) -> NetflowService {
    NetflowService::new(
        NetflowConfig::new()
            .with_pipeline(pipeline_config())
            .with_thresholds(shape.threshold, shape.threshold),
    )
}

/// What was seen of one closed window, kept for the reference check
/// after the clock stops.
struct Observed {
    pool: usize,
    nnz: usize,
    cells: Vec<Option<u64>>,
    report: Option<WindowReport>,
}

struct Driver<'a> {
    shape: &'a Shape,
    input: &'a Input,
    svc: &'a NetflowService,
    log: SpanLog,
    tally: Tally,
    /// Start of the timed region (of this driver's life, in warm-up).
    t0: Instant,
    sched: Option<OpenLoop>,
    /// Events handed to the schedule so far (the next batch's offset).
    offset: u64,
    window_no: u64,
    last_snap: Option<Arc<EpochSnapshot<TrafficSemiring>>>,
    queries: [NetflowQuery; 7],
    events: SlicedWork,
    ingest_ns: u128,
    freshness_us: SlicedTimes,
    query_us: SlicedTimes,
    class_us: [Vec<f64>; 7],
    close_us: Vec<f64>,
    detect_us: Vec<f64>,
    refresh_us: Vec<f64>,
    lag_us: Vec<f64>,
    /// Batches sent more than one window after they were due.
    late_batches: u64,
    skew: Vec<f64>,
    last_sent: Option<(Instant, u64)>,
    observed: Vec<Observed>,
}

impl<'a> Driver<'a> {
    fn new(shape: &'a Shape, input: &'a Input, svc: &'a NetflowService, traced: bool) -> Self {
        let t = shape.threshold;
        Driver {
            shape,
            input,
            svc,
            log: SpanLog::new(traced, "loadgen", Instant::now()),
            tally: Tally::default(),
            t0: Instant::now(),
            sched: None,
            offset: 0,
            window_no: 0,
            last_snap: None,
            queries: [
                NetflowQuery::TopTalkers { k: 10 },
                NetflowQuery::ScanSuspects { min_fanout: t },
                NetflowQuery::DdosVictims { min_fanin: t },
                NetflowQuery::Rollup { prefix: 16, k: 10 },
                NetflowQuery::SuspectTraffic {
                    sources: vec![input.gen.host_addr(0)],
                },
                NetflowQuery::StandingScanSuspects { min_fanout: t },
                NetflowQuery::StandingDdosVictims { min_fanin: t },
            ],
            events: SlicedWork::default(),
            ingest_ns: 0,
            freshness_us: SlicedTimes::default(),
            query_us: SlicedTimes::default(),
            class_us: Default::default(),
            close_us: Vec::new(),
            detect_us: Vec::new(),
            refresh_us: Vec::new(),
            lag_us: Vec::new(),
            late_batches: 0,
            skew: Vec::new(),
            last_sent: None,
            observed: Vec::new(),
        }
    }

    fn ask(&mut self, class: usize, snap: &Arc<EpochSnapshot<TrafficSemiring>>) {
        let t = Instant::now();
        let resp = self.log.call("netflow.query_snapshot", self.window_no, || {
            self.svc.query_snapshot(snap, &self.queries[class])
        });
        let elapsed = us(t.elapsed());
        std::hint::black_box(resp.epoch);
        self.tally.attempted += 1;
        self.query_us.add(self.t0.elapsed(), elapsed);
        self.class_us[class].push(elapsed);
    }

    /// One delta wave, then the standing detectors while the state they
    /// answer from is live (rotation resets it).
    fn refresh(&mut self) {
        let t = Instant::now();
        let r = self
            .log
            .call("netflow.refresh", self.window_no, || self.svc.refresh());
        self.refresh_us.push(us(t.elapsed()));
        self.tally.op("refresh", r);
        if let Some(snap) = self.last_snap.clone() {
            self.ask(5, &snap);
            self.ask(6, &snap);
        }
    }

    fn window(&mut self) {
        let shape = self.shape;
        let pool = self.window_no as usize % POOL;
        let events = &self.input.windows[pool];
        let window_period = shape
            .rate
            .map(|r| Duration::from_secs_f64(shape.events_per_window as f64 / r));
        self.log.enter("loadgen.window", self.window_no);

        // Delta waves split the window into `refreshes + 1` parts.
        let part = (events.len().div_ceil(BATCH) / (shape.refreshes + 1)).max(1);
        let mut handed_in = Instant::now();
        for (i, batch) in events.chunks(BATCH).enumerate() {
            if let Some(sched) = &self.sched {
                let due = sched.due(self.offset);
                self.log.enter("loadgen.wait", self.window_no);
                let lag = sched.wait(due);
                self.log.exit();
                self.lag_us.push(us(lag));
                self.late_batches += u64::from(window_period.is_some_and(|p| lag > p));
                handed_in = due;
                self.last_sent = Some((Instant::now(), self.offset));
            }
            let t = Instant::now();
            let r = self
                .log
                .call("netflow.ingest", self.window_no, || self.svc.ingest(batch));
            self.ingest_ns += t.elapsed().as_nanos();
            self.tally.op("ingest", r);
            self.offset += batch.len() as u64;
            if (i + 1) % part == 0 && (i + 1) / part <= shape.refreshes {
                self.refresh();
            }
        }
        if self.sched.is_none() {
            handed_in = Instant::now();
        }

        let t = Instant::now();
        let closed = self.log.call("netflow.close_window", self.window_no, || {
            self.svc.close_window()
        });
        self.close_us.push(us(t.elapsed()));
        if let Some(snap) = self.tally.op("close_window", closed) {
            let t = Instant::now();
            let report = self
                .log
                .call("netflow.detect_snapshot", self.window_no, || {
                    self.svc.detect_snapshot(&snap)
                });
            let detect = us(t.elapsed());
            self.freshness_us
                .add(self.t0.elapsed(), us(handed_in.elapsed()));
            self.detect_us.push(detect);
            let report = self.tally.op("detect_snapshot", report);
            for &class in shape.after_close {
                self.ask(class, &snap);
            }
            self.log.enter("loadgen.sample", self.window_no);
            self.skew.extend(shard_skew(snap.per_shard_nnz()));
            self.observed.push(Observed {
                pool,
                nnz: snap.nnz(),
                cells: self.input.refs[pool]
                    .cells
                    .iter()
                    .map(|&(s, d, _)| snap.get(s.into(), d.into()).copied())
                    .collect(),
                report,
            });
            self.log.exit();
            self.last_snap = Some(snap);
        }
        self.log.exit();
        // A window's events count once it is closed, judged and queried,
        // spread over the whole of the window's time: a slice's rate is
        // then that of the loop, not of how many closes fell into it.
        self.events.add(self.t0.elapsed(), events.len() as f64);
        self.window_no += 1;
    }

    /// Compare everything observed with the reference folds; returns
    /// how many labelled episodes went unflagged.
    fn verify(&mut self) -> u64 {
        let mut missed = 0;
        for (w, obs) in std::mem::take(&mut self.observed).into_iter().enumerate() {
            let reference = &self.input.refs[obs.pool];
            self.tally.check(obs.nnz == reference.nnz, || {
                format!("window {w}: nnz {} ≠ reference {}", obs.nnz, reference.nnz)
            });
            for (&(s, d, want), got) in reference.cells.iter().zip(&obs.cells) {
                self.tally.check(*got == Some(want), || {
                    format!("window {w}: cell ({s}, {d}) = {got:?}, reference {want}")
                });
            }
            let Some(report) = obs.report else { continue };
            let labelled = reference
                .scanners
                .iter()
                .map(|k| (k, &report.scan_suspects))
                .chain(reference.victims.iter().map(|k| (k, &report.ddos_victims)));
            for (key, flagged) in labelled {
                let hit = flagged.iter().any(|(k, _)| k == key);
                missed += u64::from(!hit);
                self.tally
                    .check(hit, || format!("window {w}: episode at {key} not flagged"));
            }
        }
        missed
    }
}

/// Everything before the timed region: input generation, reference
/// folds, service construction, warm-up windows.
fn setup(shape: &Shape, seed: u64) -> (Input, NetflowService) {
    let input = generate(shape, seed);
    let svc = service(shape);
    let mut warm = Driver::new(shape, &input, &svc, false);
    for _ in 0..shape.warmup_windows {
        warm.window();
    }
    (input, svc)
}

#[cfg(test)]
pub fn input_digest(shape: &Shape, seed: u64) -> u64 {
    generate(shape, seed).digest
}

/// One pass: `setups` set-ups (`setup_s` is their median), all but the
/// last torn down at once, then one timed region on the last.
pub fn run(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
    span_file: &std::path::Path,
) -> Outcome {
    let mut m = Metrics::default();
    let ((input, svc), setup_s) = set_up(setups, || setup(shape, seed));
    m.set("setup_s", setup_s, setups as u64);

    let mut d = Driver::new(shape, &input, &svc, traced);
    d.last_snap = d.tally.op("close_window", svc.close_window());
    let t0 = Instant::now();
    d.t0 = t0;
    d.sched = shape.rate.map(|r| OpenLoop::start(t0, r));
    while t0.elapsed().as_secs_f64() < seconds {
        d.window();
    }
    let wall = t0.elapsed().as_secs_f64();
    let missed = d.verify();

    let mut achieved = 1.0;
    if let (Some(rate), Some((sent_at, offset))) = (shape.rate, d.last_sent) {
        let window = Duration::from_secs_f64(shape.events_per_window as f64 / rate);
        d.tally.note_late(d.late_batches, window);
        achieved = offset as f64 / (rate * (sent_at - t0).as_secs_f64());
        if achieved < 0.99 {
            d.tally.fail(format!(
                "open loop achieved {:.1} % of its rate",
                achieved * 100.0
            ));
        }
    }
    if traced {
        layer_metrics(&mut m, &mut d, &svc, &input, missed, achieved, span_file);
    }
    let mut tally = d.tally;
    set_end_to_end(
        &mut m,
        &mut tally,
        (&d.events, wall),
        (d.freshness_us, shape.freshness_floor),
        (d.query_us, shape.query_floor),
    );
    tally.op("shutdown", svc.shutdown());
    Outcome {
        metrics: m,
        tally,
        input_digest: input.digest,
    }
}

/// The traced pass's per-layer metrics: own timings, the span log's
/// shares, the service's counters and exposition, the peel probes.
fn layer_metrics(
    m: &mut Metrics,
    d: &mut Driver,
    svc: &NetflowService,
    input: &Input,
    missed: u64,
    achieved: f64,
    span_file: &std::path::Path,
) {
    let totals = spans::self_times(d.log.spans());
    let total = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    let busy = total("loadgen.window") - total("loadgen.wait");
    let windows = d.close_us.len() as u64;
    m.set_ratio(
        "netflow.ingest_ns_per_event",
        d.ingest_ns as f64,
        d.events.total(),
    );
    for (name, samples) in [
        ("netflow.close_window_us", &d.close_us),
        ("netflow.detect_us", &d.detect_us),
        ("netflow.refresh_us", &d.refresh_us),
    ] {
        m.set_quantile(name, samples, 0.5);
    }
    for (class, samples) in QUERY_CLASSES.iter().zip(&d.class_us) {
        m.set_quantile(&format!("netflow.query_us.{class}"), samples, 0.5);
    }
    // The service's own counters cover the warm-up windows too.
    let counters = svc.metrics();
    m.set("netflow.windows_closed", counters.windows_closed as f64, 1);
    m.set_ratio(
        "netflow.flows_per_window",
        counters.window_events as f64,
        counters.windows_closed as f64,
    );
    m.set("netflow.detections", counters.detections as f64, 1);
    m.set("netflow.missed_episodes", missed as f64, windows);
    m.set_ratio("netflow.ingest_busy_share", total("netflow.ingest"), busy);
    let answers = total("netflow.close_window")
        + total("netflow.refresh")
        + total("netflow.detect_snapshot")
        + total("netflow.query_snapshot");
    m.set_ratio("netflow.answer_busy_share", answers, busy);
    m.set_ratio(
        "netflow.query_busy_share",
        total("netflow.query_snapshot"),
        busy,
    );
    m.set_ratio(
        "pipeline.caller_blocked_share",
        total("netflow.ingest"),
        busy,
    );
    let uncovered = totals.get("loadgen.window").map_or(0, |t| t.self_ns) as f64;
    trace_rows(m, d.log.spans().len(), uncovered, busy);

    // The service keeps its pipeline private; its stage histograms
    // and counters are read from the exposition it publishes.
    let text = svc.render_prometheus();
    let ingested = scrape(&text, "pipeline_events_ingested_total", "");
    for (name, stage) in [
        ("pipeline.route_ns_per_event", "route"),
        ("pipeline.shard_merge_ns_per_event", "shard_merge"),
    ] {
        m.set_ratio(name, scrape_stage(&text, stage).0 * 1e9, ingested);
    }
    for (name, stage) in [
        ("pipeline.rotate_us", "rotate"),
        ("pipeline.snapshot_incremental_us", "snapshot"),
        ("pipeline.standing_update_us", "standing_update"),
    ] {
        let (sum_s, count) = scrape_stage(&text, stage);
        m.set_ratio(name, sum_s * 1e6, count);
    }
    m.set(
        "pipeline.batches",
        scrape(&text, "pipeline_batches_total", ""),
        1,
    );
    m.set(
        "pipeline.full_rejections",
        scrape(&text, "pipeline_full_rejections_total", ""),
        1,
    );
    m.set_quantile("pipeline.shard_skew", &d.skew, 0.5);
    let kernels = svc.kernel_metrics();
    kernel_rows(m, &kernels);
    let dd = kernels.kernel(hypersparse::Kernel::DeltaDegree);
    m.set_ratio(
        "graph.delta_degree_us",
        dd.elapsed_ns as f64 / 1e3,
        dd.calls as f64,
    );
    m.set_quantile("loadgen.sched_lag_p99_us", &d.lag_us, 0.99);
    m.set("loadgen.achieved_rate_share", achieved, 1);
    m.set("loadgen.late_batches", d.late_batches as f64, 1);

    probes::peel(
        m,
        &mut d.tally,
        &input.windows,
        pipeline_config(),
        &mut d.log,
    );
    if let Err(e) = spans::write_jsonl(span_file, std::slice::from_ref(&d.log)) {
        d.tally.notes.push(format!("span file not written: {e}"));
    }
}
