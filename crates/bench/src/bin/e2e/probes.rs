//! Layer-peel probes: the same event stream fed to a bare
//! single-threaded `StreamingMatrix`, then to a bare `Pipeline` one
//! event at a time and in 1 024-event batches. Together with the
//! `NetflowService` numbers of the workload itself, each layer's added
//! cost is a subtraction. Run in the traced pass, after the timed
//! region.

use std::time::Instant;

use hyperspace_core::cidr::{self, RollupAxes};
use hypersparse::{with_default_ctx, Ix, Kernel, StreamingMatrix};
use netflow::{FlowEvent, IP_SPACE};
use pipeline::{Pipeline, PipelineConfig};
use semiring::PlusTimes;

use crate::harness::{us, Metrics, Tally};
use crate::layers::kernel_delta;
use crate::spans::SpanLog;

/// Events the single-event probe sends (it is ~10× slower per event
/// than the batched one).
const SINGLE_EVENTS: usize = 200_000;
/// The probes stop taking windows once they have seen this many events.
const PEEL_EVENTS: usize = 500_000;

type Traffic = PlusTimes<u64>;

fn keyed(events: &[FlowEvent]) -> impl Iterator<Item = (Ix, Ix, u64)> + '_ {
    events
        .iter()
        .map(|&(s, d, p)| (Ix::from(s), Ix::from(d), p))
}

pub fn peel(
    m: &mut Metrics,
    tally: &mut Tally,
    windows: &[Vec<FlowEvent>],
    config: PipelineConfig,
    log: &mut SpanLog,
) {
    let mut taken = 0usize;
    let windows: Vec<&Vec<FlowEvent>> = windows
        .iter()
        .take_while(|w| {
            let more = taken < PEEL_EVENTS;
            taken += w.len();
            more
        })
        .collect();
    let events: usize = windows.iter().map(|w| w.len()).sum();

    // 1. Bare StreamingMatrix: the single-threaded baseline. One matrix
    //    per window, folded at the window's end like a close.
    let before = with_default_ctx(|c| c.metrics().snapshot());
    let mut insert_ns = 0u128;
    let mut snapshot_us = Vec::new();
    for (w, evs) in windows.iter().enumerate() {
        let mut sm = StreamingMatrix::new(IP_SPACE, IP_SPACE, Traffic::new());
        let t = Instant::now();
        log.call("hypersparse.stream_insert", w as u64, || {
            for (r, c, v) in keyed(evs) {
                sm.insert(r, c, v);
            }
        });
        insert_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let folded = log.call("hypersparse.stream_snapshot", w as u64, || sm.snapshot());
        snapshot_us.push(us(t.elapsed()));
        std::hint::black_box(folded.nnz());
    }
    let after = with_default_ctx(|c| c.metrics().snapshot());
    let merge = kernel_delta(&after, &before).kernel(Kernel::StreamMerge);
    m.set_ratio(
        "hypersparse.stream_insert_ns_per_event",
        insert_ns as f64,
        events as f64,
    );
    m.set_quantile("hypersparse.stream_snapshot_us", &snapshot_us, 0.5);
    m.set("hypersparse.stream_merge_calls", merge.calls as f64, 1);
    m.set_ratio(
        "hypersparse.stream_merge_ns_per_nnz",
        merge.elapsed_ns as f64,
        merge.nnz_in as f64,
    );
    m.set_ratio(
        "hypersparse.stream_bytes_per_event",
        merge.bytes_touched as f64,
        events as f64,
    );

    // 2. Bare Pipeline, no sinks, batched: a fresh pipeline per window
    //    stands in for the rotation the service does.
    let mut batch_ns = 0u128;
    let mut snapshot_us = Vec::new();
    let mut depth_max = 0usize;
    let mut last = None;
    for (w, evs) in windows.iter().enumerate() {
        let p = Pipeline::with_config(IP_SPACE, IP_SPACE, Traffic::new(), config);
        for batch in evs.chunks(1024) {
            let t = Instant::now();
            let r = log.call("pipeline.ingest_batch", w as u64, || {
                p.ingest_batch(keyed(batch))
            });
            batch_ns += t.elapsed().as_nanos();
            tally.op("peel ingest_batch", r);
            for shard in 0..p.shards() {
                depth_max = depth_max.max(p.metrics().channel_depth(shard));
            }
        }
        let t = Instant::now();
        let snap = log.call("pipeline.snapshot_shared", w as u64, || p.snapshot_shared());
        snapshot_us.push(us(t.elapsed()));
        last = tally.op("peel snapshot_shared", snap);
        tally.op("peel shutdown", p.shutdown());
    }
    m.set_ratio(
        "pipeline.ingest_batch_ns_per_event",
        batch_ns as f64,
        events as f64,
    );
    m.set_quantile("pipeline.snapshot_us", &snapshot_us, 0.5);
    m.set("pipeline.channel_depth_max", depth_max as f64, 1);

    // 3. Bare Pipeline, one `ingest` call per event.
    let single: Vec<FlowEvent> = windows
        .iter()
        .flat_map(|w| w.iter().copied())
        .take(SINGLE_EVENTS)
        .collect();
    let p = Pipeline::with_config(IP_SPACE, IP_SPACE, Traffic::new(), config);
    let t = Instant::now();
    let errors = log.call("pipeline.ingest", 0, || {
        keyed(&single)
            .filter(|&(r, c, v)| p.ingest(r, c, v).is_err())
            .count()
    });
    let single_ns = t.elapsed().as_nanos();
    tally.attempted += single.len() as u64;
    if errors > 0 {
        tally.failed += errors as u64;
        tally
            .notes
            .push(format!("peel ingest: {errors} calls failed"));
    }
    tally.op("peel shutdown", p.shutdown());
    m.set_ratio(
        "pipeline.ingest_single_ns_per_event",
        single_ns as f64,
        single.len() as f64,
    );

    // 4. CIDR /16 rollup of one closed window, through the plain
    //    spelling on this thread's default context.
    if let Some(snap) = last {
        let t = Instant::now();
        let rolled = log.call("core.rollup", 0, || {
            cidr::rollup(snap.dcsr(), 16, RollupAxes::Both, Traffic::new())
        });
        m.set_ratio(
            "core.rollup_ns_per_nnz",
            t.elapsed().as_nanos() as f64,
            snap.nnz() as f64,
        );
        std::hint::black_box(rolled.nnz());
    }
}

/// ROADMAP item 3's question, as a ladder on the serving bench's own
/// shape (64 hosts, `PlusTimes<f64>`, 2 shards, default channel): the
/// writer's events/s as each thing `serving_throughput` does on top of
/// a bare batched ingest is added back. Each rung runs `seconds`.
pub fn writer_gap(seconds: f64) {
    use serve::{QueryRequest, QueryServer, View, ViewSchema};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    const HOSTS: u64 = 64;
    const SNAPSHOT_EVERY: u64 = 4_096;
    type Flow = PlusTimes<f64>;
    let event = |k: u64| (k % HOSTS, (k * 31) % HOSTS, 1.0);
    let pipeline = || {
        Pipeline::with_config(
            HOSTS,
            HOSTS,
            Flow::new(),
            PipelineConfig::new().with_shards(2),
        )
    };
    let budget = Duration::from_secs_f64(seconds);

    // Rung 0: 1 024-event batches (the netflow bench's way in).
    let p = pipeline();
    let t = Instant::now();
    let mut k = 0u64;
    while t.elapsed() < budget {
        p.ingest_batch((k..k + 1024).map(event))
            .expect("batched ingest");
        k += 1024;
    }
    p.snapshot_shared().expect("drain");
    let batched = k as f64 / t.elapsed().as_secs_f64();
    p.shutdown().expect("shutdown");

    // Rungs 1–4: one `ingest` call per event, then what the serving
    // bench's writer does besides.
    let single = |snapshots: bool, sink: bool, readers: usize| -> f64 {
        let p = pipeline();
        let srv = QueryServer::<Flow>::with_capacity(4, 64, ViewSchema::flows());
        if sink {
            srv.attach(&p);
        }
        for k in 0..2_000 {
            let (r, c, v) = event(k);
            p.ingest(r, c, v).expect("seed ingest");
        }
        p.snapshot_shared().expect("seed epoch");
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for reader in 0..readers {
                let (srv, stop) = (&srv, &stop);
                s.spawn(move || {
                    let mut i = reader as u64;
                    while !stop.load(Ordering::Relaxed) {
                        let h = i % HOSTS;
                        let req = match i % 5 {
                            0 => QueryRequest::sql(format!(
                                "SELECT dst FROM flows WHERE src = 'h{h}'"
                            )),
                            1 => QueryRequest::Select {
                                view: View::Assoc,
                                expr: db::Pred::eq("src", &format!("h{h}"))
                                    .or(db::Pred::eq("dst", &format!("h{}", (h + 1) % HOSTS))),
                            },
                            2 => QueryRequest::Neighbors {
                                view: View::Triple,
                                host: format!("h{h}"),
                            },
                            3 => QueryRequest::GroupCount {
                                view: View::Row,
                                field: "src".into(),
                            },
                            _ => QueryRequest::Point {
                                row: h,
                                col: (h * 7) % HOSTS,
                            },
                        };
                        srv.query(&req).expect("reader query");
                        i += 1;
                    }
                });
            }
            let t = Instant::now();
            let mut k = 0u64;
            while t.elapsed() < budget {
                let (r, c, v) = event(k);
                p.ingest(r, c, v).expect("single ingest");
                k += 1;
                if snapshots && k.is_multiple_of(SNAPSHOT_EVERY) {
                    p.snapshot_shared().expect("snapshot");
                }
            }
            let rate = k as f64 / t.elapsed().as_secs_f64();
            stop.store(true, Ordering::Relaxed);
            rate
        })
    };
    let rungs = [
        ("1 024-event ingest_batch, no snapshots", batched),
        ("single-event ingest, no snapshots", single(false, false, 0)),
        (
            "… + snapshot_shared every 4 096 events",
            single(true, false, 0),
        ),
        ("… + QueryServer attached as sink", single(true, true, 0)),
        ("… + 8 closed-loop readers", single(true, true, 8)),
    ];
    println!(
        "== writer events/s, serving-bench shape, {} cores ==",
        crate::host::nproc()
    );
    for (what, rate) in rungs {
        println!("{what:<44} {rate:>12.0} events/s");
    }
}
