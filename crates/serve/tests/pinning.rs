//! Snapshot pinning under concurrent publication: readers holding an
//! epoch keep a bit-identical view while a live writer rotates the
//! registry underneath them, evicted epochs fail with typed errors, and
//! the cache never answers across epochs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use pipeline::Pipeline;
use semiring::PlusTimes;
use serve::{QueryRequest, QueryServer, ServeError, View, ViewSchema};

fn flows_server(epochs: usize) -> (Pipeline<PlusTimes<f64>>, Arc<QueryServer<PlusTimes<f64>>>) {
    let p = Pipeline::new(1 << 12, 1 << 12, PlusTimes::<f64>::new());
    let srv = Arc::new(QueryServer::with_capacity(epochs, 32, ViewSchema::flows()));
    srv.attach(&p);
    (p, srv)
}

#[test]
fn pinned_readers_see_bit_identical_epochs_during_rotation() {
    let (p, srv) = flows_server(2);
    let p = Arc::new(p);

    // Epoch 1: a known small world.
    for i in 0..10u64 {
        p.ingest(i, (i + 1) % 10, 1.0).unwrap();
    }
    p.snapshot_shared().unwrap();
    let pinned = srv.pin_latest().unwrap();
    assert_eq!(pinned.epoch(), 1);
    let frozen = pinned.snapshot().dcsr().clone();

    // Live writer: keeps ingesting and publishing epochs 2..=8 while
    // readers hammer the pinned epoch-1 view.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let p = Arc::clone(&p);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut k = 10u64;
            while !stop.load(Ordering::Relaxed) {
                p.ingest(k % 4096, (k * 7) % 4096, 1.0).unwrap();
                if k.is_multiple_of(16) {
                    p.snapshot_shared().unwrap();
                }
                k += 1;
            }
            p.snapshot_shared().unwrap().epoch()
        })
    };

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let srv = Arc::clone(&srv);
            let pinned = Arc::clone(&pinned);
            let frozen = frozen.clone();
            thread::spawn(move || {
                // At least 200 reads, and on until the writer has
                // published past epoch 2 (or 10 s pass), so the reads
                // overlap rotation however fast a read is.
                let start = std::time::Instant::now();
                for reads in 1.. {
                    // The pinned handle is immutable: identical matrix
                    // every single read, mid-rotation or not.
                    assert_eq!(pinned.snapshot().dcsr(), &frozen);
                    let r = srv
                        .query_pinned(&pinned, &QueryRequest::Point { row: 0, col: 1 })
                        .unwrap();
                    assert_eq!(r.epoch, 1);
                    assert_eq!(r.body.as_cell().unwrap(), Some("1"));
                    // Fresh pins always name the epoch they answer at.
                    let latest = srv.query(&QueryRequest::Point { row: 0, col: 1 }).unwrap();
                    assert!(latest.epoch >= 1);
                    let waited = start.elapsed() > std::time::Duration::from_secs(10);
                    if reads >= 200 && (latest.epoch > 2 || waited) {
                        break;
                    }
                }
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let final_epoch = writer.join().unwrap();
    assert!(final_epoch > 2, "writer actually rotated epochs");

    // Epoch 1 rotated out long ago: pinning it anew is a typed error,
    // but the held handle still answers bit-identically.
    match srv.pin_epoch(1) {
        Err(ServeError::EpochEvicted {
            epoch: 1,
            oldest_retained,
        }) => assert!(oldest_retained > 1),
        other => panic!("expected EpochEvicted, got {other:?}"),
    }
    assert_eq!(pinned.snapshot().dcsr(), &frozen);

    Arc::try_unwrap(p).ok().unwrap().shutdown().unwrap();
}

#[test]
fn cache_responses_always_match_their_epoch() {
    let (p, srv) = flows_server(3);
    let req = QueryRequest::Select {
        view: View::Assoc,
        expr: db::Pred::eq("src", "h1").expr(),
    };

    let mut per_epoch = Vec::new();
    for round in 0..5u64 {
        p.ingest(1, 100 + round, 1.0).unwrap();
        let epoch = srv.refresh(&p).unwrap();
        // Miss then hit, same epoch, same (shared) body.
        let miss = srv.query(&req).unwrap();
        let hit = srv.query(&req).unwrap();
        assert!(!miss.cached);
        assert!(hit.cached);
        assert_eq!(miss.epoch, epoch);
        assert_eq!(hit.epoch, epoch);
        assert!(Arc::ptr_eq(&miss.body, &hit.body));
        // Each epoch sees one more matching record than the last: a
        // stale cross-epoch hit would repeat an old length.
        assert_eq!(miss.body.as_ids().unwrap().len(), round as usize + 1);
        per_epoch.push((epoch, miss.body.as_ids().unwrap().len()));
    }
    assert_eq!(per_epoch.len(), 5);

    // Rotation pruned cache entries for dead epochs (capacity 3).
    let live = srv.registry().epochs();
    assert_eq!(live, vec![3, 4, 5]);
    let m = srv.metrics();
    assert_eq!(m.cache_hits, 5);
    assert_eq!(m.cache_misses, 5);
    p.shutdown().unwrap();
}

#[test]
fn concurrent_readers_share_one_table_build_per_epoch() {
    let (p, srv) = flows_server(2);
    for i in 0..50u64 {
        p.ingest(i % 20, (i * 3) % 20, 1.0).unwrap();
    }
    srv.refresh(&p).unwrap();

    let view = srv.pin_latest().unwrap();
    assert!(!view.tables_built());
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let srv = Arc::clone(&srv);
            thread::spawn(move || {
                let pinned = srv.pin_latest().unwrap();
                let r = srv
                    .query_pinned(
                        &pinned,
                        &QueryRequest::Neighbors {
                            view: View::Triple,
                            host: "h3".into(),
                        },
                    )
                    .unwrap();
                r.body.as_hosts().unwrap().to_vec()
            })
        })
        .collect();
    let answers: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(answers.windows(2).all(|w| w[0] == w[1]));
    // Every reader pinned the same Arc'd view; tables were built once.
    assert!(view.tables_built());
    p.shutdown().unwrap();
}
