//! Property tests: for random event streams, the sharded pipeline's
//! snapshot is bit-identical to a single-shard reference (and to the flat
//! COO build) at every tested shard count, with snapshots interleaved at
//! arbitrary points in the stream.

use std::sync::{Arc, Mutex};

use hypersparse::{Coo, Dcsr, Ix, StreamConfig};
use pipeline::{EpochSnapshot, Pipeline, PipelineConfig, StandingView};
use proptest::prelude::*;
use semiring::{MinPlus, PlusTimes, Semiring};

const N: Ix = 1 << 24;

fn events() -> impl Strategy<Value = Vec<(Ix, Ix, i64)>> {
    proptest::collection::vec((0..300u64, 0..300u64, 1i64..9), 0..300)
}

fn flat<S: Semiring<Value = i64>>(t: &[(Ix, Ix, i64)], s: S) -> Dcsr<i64> {
    let mut c = Coo::new(N, N);
    c.extend(t.iter().copied());
    c.build_dcsr(s)
}

fn run<S: Semiring<Value = i64>>(
    t: &[(Ix, Ix, i64)],
    shards: usize,
    cuts: &[usize],
    s: S,
) -> Dcsr<i64> {
    let p = Pipeline::with_config(
        N,
        N,
        s,
        PipelineConfig::new()
            .with_shards(shards)
            .with_channel_capacity(32)
            .with_stream(StreamConfig::new().with_buffer_cap(8).with_growth(2)),
    );
    for (i, &(r, c, v)) in t.iter().enumerate() {
        if cuts.contains(&i) {
            let _ = p.snapshot().unwrap();
        }
        p.ingest(r, c, v).unwrap();
    }
    let snap = p.snapshot().unwrap();
    p.shutdown().unwrap();
    snap.into_dcsr()
}

/// A standing view that ⊕-accumulates every delta it is handed and sets
/// the sum aside at each reset: one matrix per closed window. An event
/// delivered twice doubles a value, one never delivered loses it.
#[derive(Default)]
struct Collect {
    open: Mutex<Option<Dcsr<i64>>>,
    closed: Mutex<Vec<Dcsr<i64>>>,
}

impl StandingView<PlusTimes<i64>> for Collect {
    fn apply_delta(&self, delta: &EpochSnapshot<PlusTimes<i64>>) {
        let mut open = self.open.lock().unwrap();
        *open = Some(match open.take() {
            None => delta.dcsr().clone(),
            Some(acc) => hypersparse::ops::ewise_add_ctx(
                &hypersparse::OpCtx::new(),
                &acc,
                delta.dcsr(),
                PlusTimes::new(),
            ),
        });
    }

    fn reset(&self) {
        let window = self.open.lock().unwrap().take();
        self.closed
            .lock()
            .unwrap()
            .push(window.unwrap_or_else(|| Dcsr::empty(N, N)));
    }
}

/// One window: 1–3 parts with a delta wave between them, and whether
/// the first part is squeezed onto one row.
type Window = (bool, Vec<Vec<(Ix, Ix, i64)>>);

fn windows() -> impl Strategy<Value = Vec<Window>> {
    let part = proptest::collection::vec((0..300u64, 0..300u64, 1i64..9), 0..60);
    proptest::collection::vec((any::<bool>(), proptest::collection::vec(part, 1..4)), 1..5)
}

proptest! {
    /// Rotation gives closing snapshot ≡ flat COO fold and hands
    /// standing views every event exactly once, whichever reply the
    /// shards give: fold-once (one part: no wave cut the window), cut
    /// (a wave reached every shard), or mixed (the first part sits on
    /// one row, so the wave cuts one shard and finds the others empty).
    #[test]
    fn rotation_is_flat_fold_and_exactly_once(ws in windows()) {
        let s = PlusTimes::<i64>::new();
        for shards in [1usize, 2, 4] {
            let p = Pipeline::with_config(
                N, N, s,
                PipelineConfig::new()
                    .with_shards(shards)
                    .with_stream(StreamConfig::new().with_buffer_cap(8).with_growth(2)),
            );
            let view = Arc::new(Collect::default());
            p.register_standing_query("collect", Arc::clone(&view) as Arc<dyn StandingView<_>>);
            for (one_row_first, parts) in &ws {
                let mut all = Vec::new();
                for (i, part) in parts.iter().enumerate() {
                    if i > 0 {
                        p.snapshot_incremental().unwrap();
                    }
                    let part: Vec<_> = part
                        .iter()
                        .map(|&(r, c, v)| (if i == 0 && *one_row_first { 5 } else { r }, c, v))
                        .collect();
                    p.ingest_batch(part.iter().copied()).unwrap();
                    all.extend(part);
                }
                let closed = p.rotate().unwrap();
                prop_assert_eq!(closed.dcsr(), &flat(&all, s),
                    "closing snapshot at {} shards, {} parts", shards, parts.len());
                let seen = view.closed.lock().unwrap().last().cloned();
                prop_assert_eq!(seen.as_ref(), Some(closed.dcsr()),
                    "standing view at {} shards, {} parts", shards, parts.len());
            }
            prop_assert_eq!(view.closed.lock().unwrap().len(), ws.len());
            p.shutdown().unwrap();
        }
    }

    #[test]
    fn sharded_equals_single_shard_reference(t in events(),
                                             cuts in proptest::collection::vec(0..300usize, 0..4)) {
        let s = PlusTimes::<i64>::new();
        let reference = run(&t, 1, &[], s);
        prop_assert_eq!(&reference, &flat(&t, s));
        for shards in [2usize, 4] {
            prop_assert_eq!(&run(&t, shards, &cuts, s), &reference);
        }
    }

    #[test]
    fn batch_boundaries_are_invisible(t in events(), chunk in 1..50usize) {
        let s = PlusTimes::<i64>::new();
        let p = Pipeline::with_config(
            N, N, s, PipelineConfig::new().with_shards(3));
        for batch in t.chunks(chunk) {
            p.ingest_batch(batch.iter().copied()).unwrap();
        }
        let snap = p.snapshot().unwrap();
        prop_assert_eq!(snap.dcsr(), &flat(&t, s));
        prop_assert_eq!(snap.events(), t.len() as u64);
        p.shutdown().unwrap();
    }

    #[test]
    fn min_plus_sharding_matches_flat(t in events()) {
        let s = MinPlus::<i64>::new();
        for shards in [1usize, 2, 4] {
            prop_assert_eq!(&run(&t, shards, &[], s), &flat(&t, s));
        }
    }
}
