//! Incremental-view property suite — the standing-query stack's two
//! load-bearing invariants, checked over random inputs:
//!
//! 1. **Incremental ≡ scratch.** A standing view folding the pipeline's
//!    delta waves (degree state, triangle state, PageRank refresh) gives
//!    exactly the same answer as the from-scratch algorithm on the full
//!    snapshot at every wave — including across `Rotate`, where the
//!    closing delta folds exactly once — whether the shards replied
//!    fold-once, cut, or a mix — and the state then resets with the
//!    window.
//! 2. **Shard invariance.** The whole evolution — every wave's degrees,
//!    triangle counts, detector flags, and refreshed PageRank vector —
//!    is bit-identical at 1, 2, and 4 shards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use graph::incremental::{DegreeState, TriangleState};
use graph::pagerank::{pagerank, pagerank_refresh, PageRankOpts};
use graph::{netsec, pattern_f64, symmetrize, triangles};
use hyperspace::prelude::*;
use hypersparse::Ix;
use proptest::prelude::*;

const N: Ix = 64;

type S = PlusTimes<u64>;

/// `(fan_out, fan_in, triangles)` of a window.
type WindowState = (SparseVec<u64>, SparseVec<u64>, u64);

/// Both incremental states behind one standing-view registration, the
/// way a real service wires them.
struct TestView {
    state: Mutex<(DegreeState, TriangleState)>,
    /// The state as it stood at the last reset: what it had folded of
    /// the window that closed.
    at_reset: Mutex<Option<WindowState>>,
    resets: AtomicU64,
}

impl TestView {
    fn new() -> Self {
        TestView {
            state: Mutex::new((DegreeState::new(N, N), TriangleState::new(N))),
            at_reset: Mutex::new(None),
            resets: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, (DegreeState, TriangleState)> {
        self.state.lock().unwrap()
    }
}

impl StandingView<S> for TestView {
    fn apply_delta(&self, delta: &EpochSnapshot<S>) {
        let mut g = self.lock();
        g.0.apply_delta(delta.dcsr());
        g.1.apply_delta(delta.dcsr());
    }

    fn reset(&self) {
        let mut g = self.lock();
        let (fan_out, fan_in) = g.0.take_degrees();
        *self.at_reset.lock().unwrap() = Some((fan_out, fan_in, g.1.count()));
        g.1.reset();
        self.resets.fetch_add(1, Ordering::SeqCst);
    }
}

/// Rotate, then check the closing window against the flat COO fold of
/// `events` and what the view had folded at its reset against the
/// from-scratch algorithms on that window.
fn rotate_and_check(
    p: &Pipeline<S>,
    view: &TestView,
    events: &[(Ix, Ix, u64)],
) -> Result<(), String> {
    let closed = p.rotate_shared().unwrap();
    let mut coo = Coo::new(N, N);
    coo.extend(events.iter().copied());
    prop_assert_eq!(closed.dcsr(), &coo.build_dcsr(PlusTimes::<u64>::new()));
    let (fan_out, fan_in, tri) = view.at_reset.lock().unwrap().take().expect("reset ran");
    prop_assert_eq!(&fan_out, &netsec::fan_out(closed.dcsr()));
    prop_assert_eq!(&fan_in, &netsec::fan_in(closed.dcsr()));
    let sym = symmetrize(&pattern_f64(closed.dcsr()), PlusTimes::<f64>::new());
    prop_assert_eq!(tri, triangles::triangle_count(&sym));
    let g = view.lock();
    prop_assert!(g.0.fan_out().is_empty());
    prop_assert_eq!(g.1.count(), 0);
    Ok(())
}

fn waves() -> impl Strategy<Value = Vec<Vec<(Ix, Ix, u64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0..N, 0..N, 1u64..5), 0..50),
        1..4,
    )
}

/// One wave's observable record, for the cross-shard comparison.
type WaveRecord = (Vec<(Ix, u64)>, Vec<(Ix, u64)>, u64, Vec<u64>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn incremental_matches_scratch_and_is_shard_invariant(
        ws in waves(),
        extra in proptest::collection::vec((0..N, 0..N, 1u64..5), 1..40),
    ) {
        let opts = PageRankOpts::default();
        let mut reference: Option<Vec<WaveRecord>> = None;
        for shards in [1usize, 2, 4] {
            let p = Pipeline::with_config(
                N, N, PlusTimes::<u64>::new(),
                PipelineConfig::new().with_shards(shards));
            let view = Arc::new(TestView::new());
            p.register_standing_query("props", Arc::clone(&view) as Arc<dyn StandingView<S>>);

            let mut got: Vec<WaveRecord> = Vec::new();
            let mut prior: Vec<f64> = Vec::new();
            for wave in &ws {
                for &(r, c, v) in wave {
                    p.ingest(r, c, v).unwrap();
                }
                let inc = p.snapshot_incremental().unwrap();
                let full = inc.full.dcsr();

                // Invariant 1a: degrees and detector flags ≡ scratch.
                let g = view.lock();
                prop_assert_eq!(g.0.fan_out(), &netsec::fan_out(full));
                prop_assert_eq!(g.0.fan_in(), &netsec::fan_in(full));
                prop_assert_eq!(g.0.scan_suspects(2), netsec::scan_suspects(full, 2));
                prop_assert_eq!(g.0.ddos_victims(2), netsec::ddos_victims(full, 2));

                // Invariant 1b: triangle count ≡ scratch masked SpGEMM.
                let sym = symmetrize(&pattern_f64(full), PlusTimes::<f64>::new());
                prop_assert_eq!(g.1.count(), triangles::triangle_count(&sym));

                // Invariant 1c: warm-started PageRank lands on the same
                // fixed point as a cold start (within tolerance).
                let pat = pattern_f64(full);
                let refreshed = pagerank_refresh(&pat, &prior, opts);
                for (a, b) in pagerank(&pat, opts).iter().zip(&refreshed) {
                    prop_assert!((a - b).abs() < 1e-6, "refresh {b} vs scratch {a}");
                }

                got.push((
                    g.0.scan_suspects(1),
                    g.0.ddos_victims(1),
                    g.1.count(),
                    refreshed.iter().map(|v| v.to_bits()).collect(),
                ));
                drop(g);
                prior = refreshed;
            }

            // Cut rotation: the waves above sealed deltas on the shards
            // they reached, so the closing delta is only the tail — and
            // the state right before its reset had seen the whole window.
            for &(r, c, v) in &extra {
                p.ingest(r, c, v).unwrap();
            }
            let window: Vec<_> = ws.iter().flatten().chain(&extra).copied().collect();
            rotate_and_check(&p, &view, &window)?;
            prop_assert_eq!(view.resets.load(Ordering::SeqCst), 1);

            // Fold-once rotation: no wave cut this window, the closing
            // delta is the closing window itself.
            for &(r, c, v) in &extra {
                p.ingest(r, c, v).unwrap();
            }
            rotate_and_check(&p, &view, &extra)?;

            // Mixed rotation: a wave that finds one row's shard occupied
            // and every other shard empty, then traffic for all of them.
            let head = [(extra[0].0, extra[0].1, 3u64)];
            p.ingest(head[0].0, head[0].1, head[0].2).unwrap();
            p.snapshot_incremental().unwrap();
            for &(r, c, v) in &extra {
                p.ingest(r, c, v).unwrap();
            }
            let window: Vec<_> = head.iter().chain(&extra).copied().collect();
            rotate_and_check(&p, &view, &window)?;
            prop_assert_eq!(view.resets.load(Ordering::SeqCst), 3);

            // The next window starts clean: state ≡ scratch over the new
            // window only, with no bleed-through from the rotated one.
            for &(r, c, v) in &extra {
                p.ingest(r, c, v).unwrap();
            }
            let inc = p.snapshot_incremental().unwrap();
            {
                let g = view.lock();
                prop_assert_eq!(g.0.fan_out(), &netsec::fan_out(inc.full.dcsr()));
                let sym = symmetrize(&pattern_f64(inc.full.dcsr()), PlusTimes::<f64>::new());
                prop_assert_eq!(g.1.count(), triangles::triangle_count(&sym));
            }
            p.shutdown().unwrap();

            // Invariant 2: the whole evolution is bit-identical across
            // shard counts.
            match &reference {
                None => reference = Some(got),
                Some(r) => prop_assert_eq!(r, &got,
                    "incremental state diverged at {} shards", shards),
            }
        }
    }
}
