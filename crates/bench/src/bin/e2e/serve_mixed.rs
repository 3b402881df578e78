//! `serve_mixed`: a writer paced open-loop into a bare `Pipeline` that
//! publishes epochs to an attached `QueryServer`, beside a closed-loop
//! reader cycling the five `QueryRequest` classes over a key range
//! eight times the `ViewCache` capacity.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use db::{Pred, RowTable};
use hypersparse::Ix;
use pipeline::{Pipeline, PipelineConfig, Stage};
use semiring::PlusTimes;
use serve::{QueryClass, QueryRequest, QueryServer, ResponseBody, View, ViewSchema};

use crate::harness::{
    set_end_to_end, set_up, us, Digest, Metrics, OpenLoop, Outcome, SlicedTimes, SlicedWork,
    SplitMix64, Tally,
};
use crate::layers::{kernel_rows, shard_skew, trace_rows};
use crate::spans::{self, SpanLog};

type Flow = PlusTimes<f64>;

const HOSTS: u64 = 4_096;
/// Distinct cells the writer ever touches, so the served state is
/// stationary: at ISSUE 12's ~200 k cells one `EpochView` explode
/// costs 3.9 s and a single uncached SQL query 250 ms, and a reader
/// would never leave its first cold query.
const CELLS: usize = 2_048;
const WRITER_EVENTS_PER_S: f64 = 250_000.0;
const WRITE_BATCH: usize = 256;
/// `snapshot_shared` after this many batches: ~7.6 publishes a second.
/// ISSUE 12 drew every 16 batches, a publish every 16 ms against a
/// ~20 ms `EpochView` explode: the reader would be cold on every epoch.
/// At every 64 the explode still took ~40 % of the reader's time, which
/// made `work_per_s` swing 1.5× as far as the host did (run-to-run
/// spread 24 %, against 12 % at 128 and 11 % at 256, interleaved runs).
const PUBLISH_EVERY: u64 = 128;
/// What the writer's lateness is held against: the time between two
/// publishes.
const PUBLISH_WINDOW_S: f64 = PUBLISH_EVERY as f64 * WRITE_BATCH as f64 / WRITER_EVENTS_PER_S;
const CACHE_ENTRIES: usize = 64;
const EPOCHS_RETAINED: usize = 4;
/// Reader key range, cycled per class: 8× the cache capacity, so an LRU
/// of that capacity misses on every table-backed class but the
/// two-key group count. Any hit-rate gain then moves the pooled median,
/// which sits in the middle class (neighbors) of the five.
const KEYS: usize = 8 * CACHE_ENTRIES;
const WARMUP_EVENTS: usize = 1 << 18;
/// The writer and the reader run this long before the clock starts, and
/// nothing they do then is recorded. A fresh instance answers ~1.4× as
/// many queries a second, and publishes in half the time, as one that
/// has retired a hundred epochs (untraced; the reader builds each
/// epoch's tables and the writer frees them four epochs later, so the
/// allocator's state is the suspect). Most of that descent happens in
/// the first seconds, and how far into it a run got would otherwise
/// decide its numbers.
const MIXED_WARMUP: Duration = Duration::from_secs(5);
const SCHEDULE_LEN: usize = 1 << 20;
const FRESHNESS_FLOOR: usize = 100;
const QUERY_FLOOR: usize = 5_000;

struct Input {
    /// The cell pool: `(row, col)` host pairs.
    cells: Vec<(u64, u64)>,
    /// Writer schedule: pool index of event `k mod SCHEDULE_LEN`.
    writes: Vec<u16>,
    /// `requests[class][key]`.
    requests: Vec<Vec<QueryRequest>>,
    digest: u64,
}

fn host(h: u64) -> String {
    format!("h{h}")
}

fn generate(seed: u64) -> Input {
    let mut rng = SplitMix64::new(seed);
    // Host k sends to a fixed number of destinations, ∝ 1/(k + 1) and at
    // least one, until the pool is full: the same heavy-tailed
    // out-degrees, hence the same answer sizes, under every seed. The
    // seed picks which destinations, and which cells the writer hits most.
    let harmonic: f64 = (1..=HOSTS).map(|k| 1.0 / k as f64).sum();
    let mut cells = Vec::with_capacity(CELLS);
    for k in 0..HOSTS {
        let share = CELLS as f64 / harmonic / (k + 1) as f64;
        let want = (share.round() as usize).clamp(1, CELLS - cells.len());
        let mut cols = BTreeSet::new();
        while cols.len() < want {
            cols.insert(rng.heavy_tailed(HOSTS));
        }
        cells.extend(cols.into_iter().map(|c| (k, c)));
        if cells.len() == CELLS {
            break;
        }
    }
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let writes: Vec<u16> = (0..SCHEDULE_LEN)
        .map(|_| rng.heavy_tailed(CELLS as u64) as u16)
        .collect();
    let requests = QueryClass::ALL
        .iter()
        .map(|class| {
            (0..KEYS as u64)
                .map(|k| match class {
                    QueryClass::Sql => QueryRequest::sql(format!(
                        "SELECT dst FROM flows WHERE src = '{}'",
                        host(k)
                    )),
                    QueryClass::Select => QueryRequest::Select {
                        view: View::Assoc,
                        expr: Pred::eq("src", &host(k)).or(Pred::eq("dst", &host(k + 1))),
                    },
                    QueryClass::Neighbors => QueryRequest::Neighbors {
                        view: View::Triple,
                        host: host(k),
                    },
                    QueryClass::GroupCount => QueryRequest::GroupCount {
                        view: View::Row,
                        field: if k % 2 == 0 { "src" } else { "dst" }.into(),
                    },
                    QueryClass::Point => {
                        let (row, col) = cells[k as usize];
                        QueryRequest::Point { row, col }
                    }
                })
                .collect()
        })
        .collect();
    let mut digest = Digest::default();
    for &(r, c) in &cells {
        digest.write(r << 32 | c);
    }
    for &w in &writes {
        digest.write(u64::from(w));
    }
    Input {
        cells,
        writes,
        requests,
        digest: digest.value(),
    }
}

#[cfg(test)]
pub fn input_digest(seed: u64) -> u64 {
    generate(seed).digest
}

struct Served {
    pipeline: Arc<Pipeline<Flow>>,
    server: Arc<QueryServer<Flow>>,
    /// The benchmark's own event log: events sent per pool cell.
    sent: Vec<u64>,
    /// Events handed to the pipeline so far.
    offset: u64,
}

impl Served {
    /// The next write batch, entered in the event log as it is taken.
    fn batch<'a>(&mut self, input: &'a Input) -> impl Iterator<Item = (Ix, Ix, f64)> + 'a {
        let start = self.offset as usize % SCHEDULE_LEN;
        let cells = &input.cells;
        // SCHEDULE_LEN is a multiple of WRITE_BATCH: a batch never wraps.
        let picks = &input.writes[start..start + WRITE_BATCH];
        for &i in picks {
            self.sent[i as usize] += 1;
        }
        self.offset += WRITE_BATCH as u64;
        picks.iter().map(move |&i| {
            let (r, c) = cells[i as usize];
            (r, c, 1.0)
        })
    }
}

/// Input generation, pipeline and server construction, warm-up ingest,
/// a first published epoch and one answered query of every class.
fn setup(seed: u64, tally: &mut Tally) -> (Input, Served) {
    let input = generate(seed);
    let pipeline = Arc::new(Pipeline::with_config(
        HOSTS,
        HOSTS,
        Flow::new(),
        PipelineConfig::new().with_shards(2),
    ));
    let server = Arc::new(QueryServer::<Flow>::with_capacity(
        EPOCHS_RETAINED,
        CACHE_ENTRIES,
        ViewSchema::flows(),
    ));
    server.attach(&pipeline);
    let mut served = Served {
        pipeline,
        server,
        sent: vec![0; CELLS],
        offset: 0,
    };
    for _ in 0..WARMUP_EVENTS / WRITE_BATCH {
        let p = Arc::clone(&served.pipeline);
        let r = p.ingest_batch(served.batch(&input));
        tally.op("warm-up ingest_batch", r);
    }
    tally.op("warm-up snapshot_shared", served.pipeline.snapshot_shared());
    for class in &input.requests {
        tally.op("warm-up query", served.server.query(&class[0]));
    }
    (input, served)
}

struct WriterOut {
    log: SpanLog,
    tally: Tally,
    freshness_us: SlicedTimes,
    publish_us: Vec<f64>,
    lag_us: Vec<f64>,
    /// Batches sent more than one publish window after they were due.
    late_batches: u64,
    ingest_ns: u128,
    events: u64,
    depth_max: usize,
    last_sent: (Instant, u64),
}

/// The schedule and the span log begin at `start`; measurements are
/// kept from `t0` on.
fn writer(
    input: &Input,
    served: &mut Served,
    (start, t0): (Instant, Instant),
    stop: &AtomicBool,
    traced: bool,
) -> WriterOut {
    let p = Arc::clone(&served.pipeline);
    let sched = OpenLoop::start(start, WRITER_EVENTS_PER_S);
    let window = Duration::from_secs_f64(PUBLISH_WINDOW_S);
    let first = served.offset;
    let mut out = WriterOut {
        log: SpanLog::new(traced, "writer", start),
        tally: Tally::default(),
        freshness_us: SlicedTimes::default(),
        publish_us: Vec::new(),
        lag_us: Vec::new(),
        late_batches: 0,
        ingest_ns: 0,
        events: 0,
        depth_max: 0,
        last_sent: (start, 0),
    };
    out.log.enter("loadgen.writer", 0);
    let mut batch_no = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let sent = served.offset - first;
        let due = sched.due(sent);
        out.log.enter("loadgen.wait", batch_no);
        let lag = sched.wait(due);
        out.log.exit();
        let timed = due >= t0;
        out.last_sent = (Instant::now(), sent);
        let t = Instant::now();
        let r = out.log.call("pipeline.ingest_batch", batch_no, || {
            p.ingest_batch(served.batch(input))
        });
        out.tally.op("ingest_batch", r);
        if timed {
            out.lag_us.push(us(lag));
            out.late_batches += u64::from(lag > window);
            out.ingest_ns += t.elapsed().as_nanos();
            out.events += WRITE_BATCH as u64;
        }
        batch_no += 1;
        if traced {
            for shard in 0..p.shards() {
                out.depth_max = out.depth_max.max(p.metrics().channel_depth(shard));
            }
        }
        if batch_no.is_multiple_of(PUBLISH_EVERY) {
            let t = Instant::now();
            let snap = out
                .log
                .call("pipeline.snapshot_shared", batch_no / PUBLISH_EVERY, || {
                    p.snapshot_shared()
                });
            if timed {
                // From when the last contributing batch was due to the
                // epoch being pinnable by readers.
                out.freshness_us.add(t0.elapsed(), us(due.elapsed()));
                out.publish_us.push(us(t.elapsed()));
            }
            out.tally.op("snapshot_shared", snap);
        }
    }
    out.log.exit();
    out
}

struct ReaderOut {
    log: SpanLog,
    tally: Tally,
    /// Every query's latency in call order (class = index mod 5), and
    /// the same by slice.
    latency_ns: Vec<u32>,
    query_us: SlicedTimes,
    completions: SlicedWork,
    cold_us: Vec<f64>,
    epoch_lag: Vec<f64>,
}

/// The span log begins at `start`; measurements are kept from the
/// first whole cycle of the five classes after `t0`.
fn reader(
    input: &Input,
    pipeline: &Pipeline<Flow>,
    server: &QueryServer<Flow>,
    (start, t0): (Instant, Instant),
    stop: &AtomicBool,
    traced: bool,
) -> ReaderOut {
    let mut out = ReaderOut {
        log: SpanLog::new(traced, "reader", start),
        tally: Tally::default(),
        latency_ns: Vec::with_capacity(1 << 22),
        query_us: SlicedTimes::default(),
        completions: SlicedWork::default(),
        cold_us: Vec::new(),
        epoch_lag: Vec::new(),
    };
    let classes = input.requests.len() as u64;
    let mut exploded_epoch = 0u64;
    let mut i = 0u64;
    let mut timed = false;
    out.log.enter("loadgen.reader", 0);
    while !stop.load(Ordering::Relaxed) {
        let class = (i % classes) as usize;
        let key = (i / classes) as usize % KEYS;
        let req = &input.requests[class][key];
        let t = Instant::now();
        let resp = out.log.call("serve.query", i, || server.query(req));
        let elapsed = t.elapsed();
        timed |= class == 0 && t >= t0;
        if timed {
            out.latency_ns.push(elapsed.as_nanos() as u32);
            let at = t + elapsed - t0;
            out.query_us.add(at, us(elapsed));
            out.completions.add(at, 1.0);
        }
        if let Some(resp) = out.tally.op("query", resp) {
            if traced && timed {
                out.epoch_lag
                    .push(pipeline.epoch().saturating_sub(resp.epoch) as f64);
                // The first table-backed query on an epoch pays for the
                // `EpochView` explode (point lookups need no tables).
                if class != QueryClass::ALL.len() - 1 && resp.epoch > exploded_epoch {
                    exploded_epoch = resp.epoch;
                    out.cold_us.push(us(elapsed));
                }
            }
        }
        i += 1;
    }
    out.log.exit();
    out
}

/// After the pipeline quiesces: one query of every class against an
/// answer computed from the benchmark's own event log.
fn verify(input: &Input, served: &Served, tally: &mut Tally) {
    let stored: BTreeMap<(u64, u64), u64> = input
        .cells
        .iter()
        .zip(&served.sent)
        .filter(|(_, &n)| n > 0)
        .map(|(&cell, &n)| (cell, n))
        .collect();
    let id = |r: u64, c: u64| format!("e{r:08}-{c:08}");
    let key = 0u64;
    for (class, reqs) in QueryClass::ALL.iter().zip(&input.requests) {
        let req = &reqs[key as usize];
        let Some(resp) = tally.op("verification query", served.server.query(req)) else {
            continue;
        };
        let ok = match (class, &*resp.body) {
            (QueryClass::Sql, ResponseBody::Table(table)) => {
                let want: Vec<(String, String)> = stored
                    .keys()
                    .filter(|&&(r, _)| r == key)
                    .map(|&(r, c)| (id(r, c), host(c)))
                    .collect();
                let got: Vec<(String, String)> = table
                    .rows()
                    .iter()
                    .map(|row| {
                        (
                            row.id().to_string(),
                            row.get("dst").unwrap_or("").to_string(),
                        )
                    })
                    .collect();
                // Second opinion: the scan-based executor over a row
                // table built from the event log.
                let QueryRequest::Sql { text } = req else {
                    unreachable!("class and request agree")
                };
                let rows = RowTable::from_records(
                    stored
                        .iter()
                        .map(|(&(r, c), &n)| {
                            (
                                id(r, c),
                                vec![
                                    ("src".to_string(), host(r)),
                                    ("dst".to_string(), host(c)),
                                    ("weight".to_string(), format!("{}", n as f64)),
                                ],
                            )
                        })
                        .collect(),
                );
                let baseline = db::sql::parse(text).map(|q| db::sql::execute_baseline(&q, &rows));
                got == want && baseline.is_ok_and(|b| &b == table)
            }
            (QueryClass::Select, ResponseBody::Ids(ids)) => {
                let want: Vec<String> = stored
                    .keys()
                    .filter(|&&(r, c)| r == key || c == key + 1)
                    .map(|&(r, c)| id(r, c))
                    .collect();
                *ids == want
            }
            (QueryClass::Neighbors, ResponseBody::Hosts(hosts)) => {
                let want: BTreeSet<String> = stored
                    .keys()
                    .filter_map(|&(r, c)| match (r == key, c == key) {
                        (true, _) => Some(host(c)),
                        (_, true) => Some(host(r)),
                        _ => None,
                    })
                    .collect();
                hosts.iter().cloned().collect::<BTreeSet<_>>() == want
            }
            (QueryClass::GroupCount, ResponseBody::Counts(counts)) => {
                let mut want: BTreeMap<String, usize> = BTreeMap::new();
                for &(r, _) in stored.keys() {
                    *want.entry(host(r)).or_insert(0) += 1;
                }
                counts.iter().cloned().collect::<BTreeMap<_, _>>() == want
            }
            (QueryClass::Point, ResponseBody::Cell(cell)) => {
                let want = stored
                    .get(&input.cells[key as usize])
                    .map(|&n| format!("{}", n as f64));
                *cell == want
            }
            _ => false,
        };
        tally.check(ok, || {
            format!("{class} answer differs from the event log's")
        });
    }
}

/// One pass: `setups` set-ups (`setup_s` is their median), all but the
/// last dropped at once, then one timed region on the last.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
    span_file: &std::path::Path,
) -> Outcome {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    // Dropping a set-up's pipeline drains and joins its shards.
    let ((input, mut served), setup_s) = set_up(setups, || setup(seed, &mut tally));
    m.set("setup_s", setup_s, setups as u64);

    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let t0 = start + MIXED_WARMUP;
    let (pipeline, server) = (Arc::clone(&served.pipeline), Arc::clone(&served.server));
    let (mut w, mut r) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(&input, &mut served, (start, t0), &stop, traced));
        let r = s.spawn(|| reader(&input, &pipeline, &server, (start, t0), &stop, traced));
        std::thread::sleep(MIXED_WARMUP + Duration::from_secs_f64(seconds));
        stop.store(true, Ordering::Relaxed);
        (
            w.join().expect("writer thread panicked"),
            r.join().expect("reader thread panicked"),
        )
    });
    let wall = t0.elapsed().as_secs_f64();
    tally.absorb(std::mem::take(&mut w.tally));
    tally.absorb(std::mem::take(&mut r.tally));

    // Quiesce: one last epoch holding every event sent.
    let last = tally.op("final snapshot_shared", pipeline.snapshot_shared());
    verify(&input, &served, &mut tally);

    tally.note_late(w.late_batches, Duration::from_secs_f64(PUBLISH_WINDOW_S));
    let (sent_at, sent) = w.last_sent;
    let achieved = sent as f64 / (WRITER_EVENTS_PER_S * (sent_at - start).as_secs_f64());
    if achieved < 0.99 {
        tally.fail(format!(
            "writer achieved {:.1} % of its rate",
            achieved * 100.0
        ));
    }
    set_end_to_end(
        &mut m,
        &mut tally,
        (&r.completions, wall),
        (std::mem::take(&mut w.freshness_us), FRESHNESS_FLOOR),
        (std::mem::take(&mut r.query_us), QUERY_FLOOR),
    );
    if traced {
        let layers = Traced {
            input: &input,
            pipeline: &pipeline,
            server: &server,
            last: last.as_deref(),
            achieved,
            wall,
        };
        layer_metrics(&mut m, &mut tally, layers, w, r, span_file);
    }

    drop((pipeline, last));
    match Arc::try_unwrap(served.pipeline) {
        Ok(p) => {
            tally.op("shutdown", p.shutdown());
        }
        Err(_) => tally.fail("pipeline still shared at shutdown".into()),
    }
    Outcome {
        metrics: m,
        tally,
        input_digest: input.digest,
    }
}

/// What the traced pass reads besides the two threads' own records.
struct Traced<'a> {
    input: &'a Input,
    pipeline: &'a Pipeline<Flow>,
    server: &'a QueryServer<Flow>,
    last: Option<&'a pipeline::EpochSnapshot<Flow>>,
    achieved: f64,
    wall: f64,
}

/// The traced pass's per-layer metrics: own timings, the span logs'
/// shares, and the counters the pipeline and the server expose.
fn layer_metrics(
    m: &mut Metrics,
    tally: &mut Tally,
    t: Traced,
    w: WriterOut,
    r: ReaderOut,
    span_file: &std::path::Path,
) {
    let Traced {
        input,
        pipeline,
        server,
        last,
        achieved,
        wall,
    } = t;
    let logs = [w.log, r.log];
    let totals = spans::merged_self_times(&logs);
    let total = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    let own = |name: &str| totals.get(name).map_or(0, |t| t.self_ns) as f64;
    let writer_busy = total("loadgen.writer") - total("loadgen.wait");
    let busy = writer_busy + total("loadgen.reader");
    let n_spans: usize = logs.iter().map(|l| l.spans().len()).sum();
    trace_rows(
        m,
        n_spans,
        own("loadgen.writer") + own("loadgen.reader"),
        busy,
    );
    m.set_ratio(
        "serve.query_busy_share",
        total("serve.query"),
        total("loadgen.reader"),
    );
    m.set_ratio(
        "pipeline.caller_blocked_share",
        total("pipeline.ingest_batch"),
        writer_busy,
    );

    // serve: own timings per class, the program's counters for the rest.
    for (c, class) in QueryClass::ALL.iter().enumerate() {
        let samples: Vec<f64> = r
            .latency_ns
            .iter()
            .skip(c)
            .step_by(QueryClass::ALL.len())
            .map(|&ns| f64::from(ns) / 1e3)
            .collect();
        m.set_quantile(&format!("serve.query_us.{}", class.label()), &samples, 0.5);
    }
    m.set_quantile("serve.cold_query_us", &r.cold_us, 0.5);
    m.set_quantile("serve.epoch_lag_p50", &r.epoch_lag, 0.5);
    let counters = server.metrics();
    m.set_ratio(
        "serve.cache_hit_ratio",
        counters.cache_hits as f64,
        (counters.cache_hits + counters.cache_misses) as f64,
    );
    m.set(
        "serve.epochs_published",
        server.registry().published() as f64,
        1,
    );
    m.set("serve.errors", counters.errors as f64, counters.queries);

    // db: the workload's SQL statements run directly on the pinned
    // epoch's table, parse and execute apart.
    if let Some(view) = tally.op("pin_latest", server.pin_latest()) {
        let table = &view.tables().assoc;
        let mut parse_us = Vec::new();
        let mut execute_us = Vec::new();
        for req in input.requests[0].iter().take(64) {
            let QueryRequest::Sql { text } = req else {
                continue;
            };
            let t = Instant::now();
            let parsed = db::sql::parse(text);
            parse_us.push(us(t.elapsed()));
            if let Some(q) = tally.op("sql parse", parsed) {
                let t = Instant::now();
                std::hint::black_box(db::sql::execute(&q, table).len());
                execute_us.push(us(t.elapsed()));
            }
        }
        m.set_quantile("db.sql_parse_us", &parse_us, 0.5);
        m.set_quantile("db.sql_execute_us", &execute_us, 0.5);
    }

    // core: the Assoc view of the final epoch.
    if let Some(snap) = last {
        let t = Instant::now();
        let assoc = snap.to_assoc(host);
        m.set_ratio(
            "core.assoc_build_ns_per_nnz",
            t.elapsed().as_nanos() as f64,
            snap.nnz() as f64,
        );
        std::hint::black_box(assoc.nnz());
        if let Some(skew) = shard_skew(snap.per_shard_nnz()) {
            m.set("pipeline.shard_skew", skew, 1);
        }
    }

    // pipeline: the live pipeline's own counters and stage histograms
    // (warm-up traffic included on both sides of each ratio).
    let pm = pipeline.metrics_snapshot();
    let ingested = pm.events_ingested as f64;
    m.set_ratio(
        "pipeline.ingest_batch_ns_per_event",
        w.ingest_ns as f64,
        w.events as f64,
    );
    m.set_ratio(
        "pipeline.route_ns_per_event",
        pm.stage(Stage::Route).sum_ns as f64,
        ingested,
    );
    m.set_ratio(
        "pipeline.shard_merge_ns_per_event",
        pm.stage(Stage::ShardMerge).sum_ns as f64,
        ingested,
    );
    m.set_quantile("pipeline.snapshot_us", &w.publish_us, 0.5);
    m.set("pipeline.batches", pm.batches as f64, 1);
    m.set("pipeline.full_rejections", pm.full_rejections as f64, 1);
    m.set("pipeline.channel_depth_max", w.depth_max as f64, 1);
    kernel_rows(m, &pipeline.kernel_metrics());

    m.set_quantile("loadgen.sched_lag_p99_us", &w.lag_us, 0.99);
    m.set("loadgen.achieved_rate_share", achieved, 1);
    m.set("loadgen.late_batches", w.late_batches as f64, 1);
    m.set("loadgen.writer_events_per_s", w.events as f64 / wall, 1);
    if let Err(e) = spans::write_jsonl(span_file, &logs) {
        tally.notes.push(format!("span file not written: {e}"));
    }
}
