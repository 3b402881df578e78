//! The pipeline's two headline guarantees, asserted bit-for-bit:
//!
//! 1. **Snapshot isolation** — a query's epoch result is immune to
//!    concurrent ingest: every snapshot taken under fire is a consistent
//!    per-shard prefix of the event stream, and a held snapshot never
//!    changes.
//! 2. **Determinism** — for a fixed event sequence and shard count, the
//!    drained snapshot equals the single-threaded flat reference build
//!    exactly, at every shard count and merge-thread count, on every
//!    run, regardless of worker interleaving.
//! 3. **Cut order** — concurrent marker waves run one at a time, so a
//!    later epoch never holds fewer events than an earlier one, and
//!    standing views receive epochs in order.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use hypersparse::{Coo, Dcsr, Ix, StreamConfig};
use pipeline::{shard_of, EpochSnapshot, Pipeline, PipelineConfig, StandingView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semiring::{MinPlus, PlusTimes};

const N: Ix = 1 << 30;

fn workload(n: usize, seed: u64) -> Vec<(Ix, Ix, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0..10_000u64),
                rng.gen_range(0..10_000u64),
                rng.gen_range(0..100u64) as f64 / 4.0,
            )
        })
        .collect()
}

fn flat_reference(events: &[(Ix, Ix, f64)]) -> Dcsr<f64> {
    let mut coo = Coo::new(N, N);
    coo.extend(events.iter().copied());
    coo.build_dcsr(PlusTimes::<f64>::new())
}

#[test]
fn drained_snapshot_equals_flat_build_at_every_shard_count() {
    let events = workload(30_000, 42);
    let reference = flat_reference(&events);
    for shards in [1, 2, 4] {
        for merge_threads in [1, 2] {
            let config = PipelineConfig::new()
                .with_shards(shards)
                .with_merge_threads(merge_threads)
                .with_stream(StreamConfig::new().with_buffer_cap(512));
            let p = Pipeline::with_config(N, N, PlusTimes::<f64>::new(), config);
            p.ingest_batch(events.iter().copied()).unwrap();
            let snap = p.snapshot().unwrap();
            assert_eq!(
                snap.dcsr(),
                &reference,
                "shards={shards} merge_threads={merge_threads}"
            );
            assert_eq!(snap.per_shard_nnz().len(), shards);
            p.shutdown().unwrap();
        }
    }
}

#[test]
fn fixed_sequence_is_bit_identical_across_runs() {
    // Same events, same shard count, two separate pipelines whose worker
    // threads interleave however the scheduler likes — identical bits.
    let events = workload(20_000, 7);
    let run = || {
        let p = Pipeline::with_config(
            N,
            N,
            PlusTimes::<f64>::new(),
            PipelineConfig::new()
                .with_shards(4)
                .with_stream(StreamConfig::new().with_buffer_cap(128).with_growth(4)),
        );
        // Mixed single-event and batch ingest: boundaries must not matter.
        for &(r, c, v) in &events[..1000] {
            p.ingest(r, c, v).unwrap();
        }
        p.ingest_batch(events[1000..].iter().copied()).unwrap();
        let snap = p.snapshot().unwrap();
        p.shutdown().unwrap();
        snap
    };
    let (a, b) = (run(), run());
    assert_eq!(a.dcsr(), b.dcsr());
    assert_eq!(a.per_shard_nnz(), b.per_shard_nnz());
}

#[test]
fn held_snapshot_is_immune_to_concurrent_ingest() {
    let events = workload(10_000, 99);
    let reference = flat_reference(&events);
    let p = Arc::new(Pipeline::with_config(
        N,
        N,
        PlusTimes::<f64>::new(),
        PipelineConfig::new().with_shards(4),
    ));
    p.ingest_batch(events.iter().copied()).unwrap();
    let snap = p.snapshot().unwrap();
    assert_eq!(snap.dcsr(), &reference);
    let frozen = snap.dcsr().clone();

    // Hammer the same cells from 4 threads while we hold `snap`.
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for t in 0..4u64 {
        let p = Arc::clone(&p);
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                p.ingest((t * 13 + i) % 10_000, i % 10_000, 1.0).unwrap();
                i += 1;
            }
            i
        }));
    }
    // Take (and discard) interleaved snapshots under fire, then stop.
    for _ in 0..5 {
        let _ = p.snapshot().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let extra: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(extra > 0, "writers must have actually run");

    // The held epoch result never moved.
    assert_eq!(snap.dcsr(), &frozen);
    assert_eq!(snap.dcsr(), &reference);

    // And the final drain sees exactly prefix + concurrent events: the
    // ⊕ of all values equals the total event count (every value was
    // summable mass).
    let final_snap = p.snapshot().unwrap();
    assert_eq!(
        final_snap.events(),
        events.len() as u64 + extra,
        "accepted-event accounting"
    );
    let mass: f64 = final_snap.dcsr().iter().map(|(_, _, v)| *v).sum();
    let expected: f64 = events.iter().map(|(_, _, v)| *v).sum::<f64>() + extra as f64;
    assert!((mass - expected).abs() < 1e-6, "{mass} vs {expected}");
}

#[test]
fn snapshots_under_fire_are_consistent_prefixes() {
    // Each writer thread appends column j at sequence position j within
    // its own row set; per-shard FIFO means any snapshot must see, per
    // row, a *contiguous prefix* of columns 0..k — a torn cut would show
    // holes.
    let p = Arc::new(Pipeline::with_config(
        N,
        N,
        PlusTimes::<f64>::new(),
        PipelineConfig::new()
            .with_shards(4)
            .with_stream(StreamConfig::new().with_buffer_cap(64)),
    ));
    const ROWS_PER_WRITER: u64 = 8;
    const COLS: u64 = 400;
    let mut writers = Vec::new();
    for t in 0..4u64 {
        let p = Arc::clone(&p);
        writers.push(std::thread::spawn(move || {
            for j in 0..COLS {
                for r in 0..ROWS_PER_WRITER {
                    p.ingest(t * ROWS_PER_WRITER + r, j, 1.0).unwrap();
                }
            }
        }));
    }
    for _ in 0..20 {
        let snap = p.snapshot().unwrap();
        for (_, cols, vals) in snap.dcsr().iter_rows() {
            // Contiguous prefix 0..k, every value exactly 1.0.
            for (i, &c) in cols.iter().enumerate() {
                assert_eq!(c, i as u64, "hole in a row: torn snapshot cut");
            }
            assert!(vals.iter().all(|&v| v == 1.0));
        }
    }
    for w in writers {
        w.join().unwrap();
    }
    let end = p.snapshot().unwrap();
    assert_eq!(end.nnz(), (4 * ROWS_PER_WRITER * COLS) as usize);
}

#[test]
fn epochs_are_monotone_and_stamped() {
    let p = Pipeline::new(N, N, PlusTimes::<f64>::new());
    assert_eq!(p.epoch(), 0);
    let s1 = p.snapshot().unwrap();
    let s2 = p.snapshot().unwrap();
    let s3 = p.snapshot().unwrap();
    assert_eq!((s1.epoch(), s2.epoch(), s3.epoch()), (1, 2, 3));
    assert_eq!(p.epoch(), 3);
    p.shutdown().unwrap();
}

#[test]
fn min_plus_pipeline_keeps_minimum_observation() {
    // The service is semiring-generic: a min-plus pipeline ⊕-keeps the
    // smallest latency observed per edge.
    let p = Pipeline::with_config(
        N,
        N,
        MinPlus::<f64>::new(),
        PipelineConfig::new().with_shards(2),
    );
    p.ingest(3, 4, 9.0).unwrap();
    p.ingest(3, 4, 2.5).unwrap();
    p.ingest(3, 4, 7.0).unwrap();
    let snap = p.snapshot().unwrap();
    assert_eq!(snap.get(3, 4), Some(&2.5));
    p.shutdown().unwrap();
}

#[test]
fn graph_layer_queries_live_data_through_matrix_view() {
    // End-to-end: snapshot → Matrix → BFS on the live-ingested graph.
    let p = Pipeline::new(64, 64, PlusTimes::<f64>::new());
    // A path 0 → 1 → 2 → 3 plus noise.
    for (r, c) in [(0, 1), (1, 2), (2, 3), (10, 11)] {
        p.ingest(r, c, 1.0).unwrap();
    }
    let m = p.snapshot().unwrap().to_matrix();
    assert_eq!(m.nnz(), 4);
    assert_eq!(m.get(2, 3), Some(&1.0));
    let d = m.as_dcsr();
    assert_eq!(d.row(0).0, &[1]);
    p.shutdown().unwrap();
}

/// Event `k` of a unit-valued feed over ~4 k keys: a cut's ⊕-mass is
/// the number of events it holds.
fn unit_event(k: u64) -> (Ix, Ix, u64) {
    (k % 61, k % 67, 1)
}

fn mass(snap: &EpochSnapshot<PlusTimes<u64>>) -> u64 {
    snap.dcsr().iter().map(|(_, _, v)| *v).sum()
}

/// Feed `unit_event`s in batches of 64 until `stop`; returns the count.
fn feed(p: &Arc<Pipeline<PlusTimes<u64>>>, stop: &Arc<AtomicBool>) -> JoinHandle<u64> {
    let (p, stop) = (Arc::clone(p), Arc::clone(stop));
    std::thread::spawn(move || {
        let mut sent = 0u64;
        while !stop.load(Ordering::Relaxed) {
            p.ingest_batch((sent..sent + 64).map(unit_event)).unwrap();
            sent += 64;
        }
        sent
    })
}

fn unit_pipeline() -> Arc<Pipeline<PlusTimes<u64>>> {
    let config = PipelineConfig::new().with_shards(2);
    Arc::new(Pipeline::with_config(N, N, PlusTimes::new(), config))
}

#[test]
fn concurrent_snapshots_stamp_epochs_in_cut_order() {
    let p = unit_pipeline();
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = feed(&p, &stop);
    let takers: Vec<_> = (0..4)
        .map(|_| {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                (0..200)
                    .map(|_| {
                        let snap = p.snapshot().unwrap();
                        let mut held = [0u64; 2];
                        for (r, _, v) in snap.dcsr().iter() {
                            held[shard_of(r, 2)] += v;
                        }
                        (snap.epoch(), held)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut cuts: Vec<(u64, [u64; 2])> =
        takers.into_iter().flat_map(|t| t.join().unwrap()).collect();
    stop.store(true, Ordering::Relaxed);
    feeder.join().unwrap();
    cuts.sort_unstable();
    assert!(cuts.iter().map(|c| c.0).eq(1..=800), "one epoch per wave");
    // Snapshots holding, on some shard, fewer events than an earlier
    // epoch did there.
    let mut most = [0u64; 2];
    let inversions = cuts
        .iter()
        .filter(|(_, held)| {
            let inverted = (0..2).any(|i| held[i] < most[i]);
            for i in 0..2 {
                most[i] = most[i].max(held[i]);
            }
            inverted
        })
        .count();
    assert_eq!(inversions, 0, "epochs out of cut order");
}

/// A standing view that logs the epochs it receives and, per closed
/// window, the ⊕-mass of the deltas it folded into it.
#[derive(Default)]
struct WindowLog {
    epochs: Mutex<Vec<u64>>,
    open: Mutex<u64>,
    closed: Mutex<Vec<(u64, u64)>>,
}

impl StandingView<PlusTimes<u64>> for WindowLog {
    fn apply_delta(&self, delta: &EpochSnapshot<PlusTimes<u64>>) {
        self.epochs.lock().unwrap().push(delta.epoch());
        *self.open.lock().unwrap() += mass(delta);
    }

    fn reset(&self) {
        let epoch = *self.epochs.lock().unwrap().last().unwrap();
        let folded = std::mem::take(&mut *self.open.lock().unwrap());
        self.closed.lock().unwrap().push((epoch, folded));
    }
}

#[test]
fn concurrent_rotations_and_delta_waves_reach_views_in_epoch_order() {
    let p = unit_pipeline();
    let view = Arc::new(WindowLog::default());
    p.register_standing_query("log", Arc::clone(&view) as Arc<dyn StandingView<_>>);
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = feed(&p, &stop);
    let rotator = {
        let p = Arc::clone(&p);
        std::thread::spawn(move || (0..50).map(|_| p.rotate().unwrap()).collect::<Vec<_>>())
    };
    let refreshers: Vec<_> = (0..2)
        .map(|_| {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                for _ in 0..100 {
                    p.snapshot_incremental().unwrap();
                }
            })
        })
        .collect();
    let mut windows = rotator.join().unwrap();
    for r in refreshers {
        r.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let sent = feeder.join().unwrap();
    windows.push(p.rotate().unwrap());

    let epochs = view.epochs.lock().unwrap().clone();
    assert_eq!(epochs.len(), 251, "every wave reached the view once");
    assert!(
        epochs.windows(2).all(|e| e[0] < e[1]),
        "view saw epochs out of order: {epochs:?}"
    );
    // Each window's deltas folded into that window's state, no other.
    let want: Vec<(u64, u64)> = windows.iter().map(|w| (w.epoch(), mass(w))).collect();
    assert_eq!(*view.closed.lock().unwrap(), want);
    // The closed windows ⊕ to the flat fold of everything sent.
    let mut union = Coo::new(N, N);
    for w in &windows {
        union.extend(w.dcsr().iter().map(|(r, c, v)| (r, c, *v)));
    }
    let mut flat = Coo::new(N, N);
    flat.extend((0..sent).map(unit_event));
    let s = PlusTimes::<u64>::new();
    assert_eq!(union.build_dcsr(s), flat.build_dcsr(s));
}
