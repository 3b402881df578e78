//! The full ingest-to-answer loop: a live pipeline feeding a snapshot
//! query server, with concurrent readers answering SQL, predicate-tree,
//! neighbor, and group-by queries against pinned epochs while the feed
//! keeps publishing new ones.
//!
//! ```sh
//! cargo run --release --example query_server
//! ```
//!
//! Runtime is bounded (fixed event/query budgets, no sleeps) so this
//! doubles as a CI smoke test.

use std::sync::Arc;
use std::time::Instant;

use hyperspace::prelude::*;
use hyperspace::serve::QueryClass;

const HOSTS: u64 = 256;
const EVENTS: u64 = 40_000;
/// Events per `ingest_batch` call: one channel message per shard per
/// batch instead of one per event (5–10× cheaper per event).
const BATCH: u64 = 1_024;
const READERS: usize = 4;
const QUERIES_PER_READER: u64 = 500;

fn main() {
    let t0 = Instant::now();
    let p = Arc::new(Pipeline::with_config(
        HOSTS,
        HOSTS,
        PlusTimes::<f64>::new(),
        PipelineConfig::new().with_shards(2),
    ));

    // The server retains the last 4 epochs and caches 64 hot sub-views;
    // attaching it subscribes the registry to every published snapshot.
    let srv = Arc::new(QueryServer::<PlusTimes<f64>>::new(ViewSchema::flows()));
    srv.attach(&p);

    // ---- Seed epoch 1 and pin it for later historical queries ----
    p.ingest_batch((0..EVENTS / 2).map(|i| (i % HOSTS, (i * 13) % HOSTS, 1.0)))
        .unwrap();
    p.snapshot_shared().unwrap();
    let pinned = srv.pin_latest().unwrap();
    println!(
        "epoch {} pinned: {} edges exploded into {} records",
        pinned.epoch(),
        pinned.nnz(),
        pinned.tables().rows.len()
    );

    // ---- Readers under fire: writer keeps publishing epochs ----
    let writer = {
        let p = Arc::clone(&p);
        std::thread::spawn(move || {
            for (n, start) in (EVENTS / 2..EVENTS).step_by(BATCH as usize).enumerate() {
                let batch = start..(start + BATCH).min(EVENTS);
                p.ingest_batch(batch.map(|i| (i % HOSTS, (i * 31) % HOSTS, 1.0)))
                    .unwrap();
                if n % 8 == 0 {
                    p.snapshot_shared().unwrap();
                }
            }
            p.snapshot_shared().unwrap().epoch()
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let srv = Arc::clone(&srv);
            std::thread::spawn(move || {
                for i in 0..QUERIES_PER_READER {
                    let h = (r as u64 * 31 + i) % HOSTS;
                    let req = match i % 4 {
                        0 => QueryRequest::sql(format!("SELECT dst FROM flows WHERE src = 'h{h}'")),
                        1 => QueryRequest::Select {
                            view: View::Assoc,
                            expr: Pred::eq("src", &format!("h{h}"))
                                .or(Pred::eq("dst", &format!("h{h}"))),
                        },
                        2 => QueryRequest::Neighbors {
                            view: View::Triple,
                            host: format!("h{h}"),
                        },
                        _ => QueryRequest::GroupCount {
                            view: View::Row,
                            field: "src".into(),
                        },
                    };
                    let resp = srv.query(&req).unwrap();
                    assert!(resp.epoch >= 1);
                }
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }
    let final_epoch = writer.join().unwrap();
    println!(
        "served {} queries across {} readers while the writer reached epoch {final_epoch}",
        READERS as u64 * QUERIES_PER_READER,
        READERS
    );

    // ---- The three views agree, answered through the server ----
    let sql = srv
        .query(&QueryRequest::sql("SELECT dst FROM flows WHERE src = 'h1'"))
        .unwrap();
    let table = sql.body.as_table().unwrap();
    for view in [View::Assoc, View::Triple, View::Row] {
        let sel = srv
            .query(&QueryRequest::Select {
                view,
                expr: Pred::eq("src", "h1").expr(),
            })
            .unwrap();
        assert_eq!(
            sel.body.as_ids().unwrap().len(),
            table.len(),
            "{view:?} agrees with SQL"
        );
    }
    println!(
        "h1 sources {} flows at epoch {} — identical through SQL and all three engines",
        table.len(),
        sql.epoch
    );

    // ---- Historical epochs stay queryable while retained ----
    let old = srv
        .query_pinned(
            &pinned,
            &QueryRequest::GroupCount {
                view: View::Assoc,
                field: "src".into(),
            },
        )
        .unwrap();
    let old_total: usize = old.body.as_counts().unwrap().iter().map(|(_, c)| c).sum();
    assert_eq!(old.epoch, 1);
    assert_eq!(old_total, pinned.nnz(), "pinned epoch 1 is immutable");
    println!("epoch 1 (pinned) still answers: {old_total} records, untouched by later epochs");

    // ---- Typed errors, not strings ----
    match srv.query(&QueryRequest::sql("SELECT dst FROM flows WHERE")) {
        Err(ServeError::Sql(e)) => {
            println!("typed SQL error (position {:?}): {e}", e.position())
        }
        other => panic!("expected a typed SQL error, got {other:?}"),
    }

    // ---- One scrape body for the whole stack ----
    let m = srv.metrics();
    println!(
        "serving metrics: {} queries ({} cache hits), sql p99 {} ns",
        m.queries,
        m.cache_hits,
        m.class(QueryClass::Sql).quantile(0.99)
    );
    let exposition = srv.render_prometheus_with(&p);
    assert!(exposition.contains("pipeline_events_ingested_total"));
    assert!(exposition.contains("serve_queries_total"));
    assert!(exposition.contains("serve_query_latency_seconds_bucket"));
    println!(
        "merged exposition: {} lines of pipeline + serving metrics",
        exposition.lines().count()
    );

    let p = Arc::try_unwrap(p).ok().expect("writer joined");
    p.shutdown().unwrap();
    println!("query_server OK in {:.2?}", t0.elapsed());
}
