//! Property tests for the streaming hierarchy: interleaving inserts with
//! snapshots (which force cascades at arbitrary points) must never change
//! the final state versus a flat one-shot COO build.

use hypersparse::{Coo, Dcsr, Ix, StreamConfig, StreamingMatrix};
use proptest::prelude::*;
use semiring::{MinPlus, PlusTimes, Semiring};

const N: Ix = 1 << 20;

fn events() -> impl Strategy<Value = Vec<(Ix, Ix, i64)>> {
    proptest::collection::vec((0..200u64, 0..200u64, 1i64..8), 0..400)
}

/// Positions (as prefix lengths) at which to take a mid-stream snapshot.
fn cut_points() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..400usize, 0..6)
}

fn flat<S: Semiring<Value = i64>>(t: &[(Ix, Ix, i64)], s: S) -> Dcsr<i64> {
    let mut c = Coo::new(N, N);
    c.extend(t.iter().copied());
    c.build_dcsr(s)
}

fn run_interleaved<S: Semiring<Value = i64>>(
    t: &[(Ix, Ix, i64)],
    cuts: &[usize],
    config: StreamConfig,
    s: S,
) -> (Dcsr<i64>, Vec<Dcsr<i64>>) {
    let mut m = StreamingMatrix::with_config(N, N, s, config);
    let mut mid = Vec::new();
    for (i, &(r, c, v)) in t.iter().enumerate() {
        if cuts.contains(&i) {
            mid.push(m.snapshot());
        }
        m.insert(r, c, v);
    }
    (m.snapshot(), mid)
}

proptest! {
    #[test]
    fn interleaved_snapshots_match_flat_build(t in events(), cuts in cut_points()) {
        let s = PlusTimes::<i64>::new();
        let reference = flat(&t, s);
        // Tiny buffers/growth force many cascade boundaries.
        for config in [
            StreamConfig::new(),
            StreamConfig::new().with_buffer_cap(4).with_growth(2),
            StreamConfig::new().with_buffer_cap(7).with_growth(3),
        ] {
            let (got, mid) = run_interleaved(&t, &cuts, config, s);
            prop_assert_eq!(&got, &reference);
            // Every mid-stream snapshot equals the flat build of its prefix.
            let mut sorted_cuts: Vec<_> =
                cuts.iter().copied().filter(|&c| c < t.len()).collect();
            sorted_cuts.sort_unstable();
            sorted_cuts.dedup();
            for (snap, &cut) in mid.iter().zip(sorted_cuts.iter()) {
                prop_assert_eq!(snap, &flat(&t[..cut], s));
            }
        }
    }

    #[test]
    fn snapshot_is_idempotent_and_non_mutating(t in events()) {
        let s = MinPlus::<i64>::new();
        let mut m = StreamingMatrix::with_config(
            N, N, s, StreamConfig::new().with_buffer_cap(8).with_growth(2));
        for &(r, c, v) in &t {
            m.insert(r, c, v);
        }
        let a = m.snapshot();
        let b = m.snapshot();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &flat(&t, s));
        prop_assert_eq!(m.inserted(), t.len() as u64);
    }

    #[test]
    fn full_snapshot_is_fold_of_delta_snapshots(
        t in events(),
        delta_cuts in cut_points(),
        snap_cuts in cut_points(),
    ) {
        // Interleave inserts with delta cuts AND plain snapshots at
        // arbitrary points: the ⊕-fold of every delta (plus the live
        // tail) must equal the full fold — `full ≡ fold(⊕, deltas)` —
        // and plain snapshots must never advance the delta cut.
        let s = PlusTimes::<i64>::new();
        for config in [
            StreamConfig::new(),
            StreamConfig::new().with_buffer_cap(4).with_growth(2),
            StreamConfig::new().with_buffer_cap(7).with_growth(3),
        ] {
            let mut m = StreamingMatrix::with_config(N, N, s, config);
            let mut folded = Dcsr::<i64>::empty(N, N);
            for (i, &(r, c, v)) in t.iter().enumerate() {
                if delta_cuts.contains(&i) {
                    let delta = m.delta_snapshot();
                    folded = hypersparse::ops::ewise_add_ctx(&hypersparse::OpCtx::new(), &folded, &delta, s);
                    // Invariant at every cut: deltas so far ≡ full fold.
                    prop_assert_eq!(&folded, &m.snapshot());
                }
                if snap_cuts.contains(&i) {
                    // A plain snapshot observes without cutting.
                    let _ = m.snapshot();
                }
                m.insert(r, c, v);
            }
            let tail = m.delta_snapshot();
            folded = hypersparse::ops::ewise_add_ctx(&hypersparse::OpCtx::new(), &folded, &tail, s);
            prop_assert_eq!(&folded, &flat(&t, s));
            prop_assert_eq!(&folded, &m.snapshot());
            // After the final cut the next delta is empty.
            prop_assert_eq!(m.delta_snapshot().nnz(), 0);
        }
    }

    #[test]
    fn flush_then_resume_matches_flat_build(t in events(), split in 0..400usize) {
        // An explicit flush mid-stream (as checkpointing does) must be
        // invisible to the final fold.
        let s = PlusTimes::<i64>::new();
        let split = split.min(t.len());
        let mut m = StreamingMatrix::with_config(
            N, N, s, StreamConfig::new().with_buffer_cap(16).with_growth(2));
        for &(r, c, v) in &t[..split] {
            m.insert(r, c, v);
        }
        m.flush();
        prop_assert_eq!(m.buffered(), 0);
        for &(r, c, v) in &t[split..] {
            m.insert(r, c, v);
        }
        prop_assert_eq!(m.snapshot(), flat(&t, s));
    }

    /// A fold seeded from its first layer: a stream holding one layer
    /// snapshots to exactly that layer, an empty one to the empty
    /// matrix, and neither spends a merge on it.
    #[test]
    fn one_layer_stream_snapshots_to_that_layer(t in events()) {
        use hypersparse::Kernel;
        let s = PlusTimes::<i64>::new();
        let ctx = std::sync::Arc::new(hypersparse::OpCtx::new());
        let config = StreamConfig::new().with_buffer_cap(t.len() + 1);
        let mut m = StreamingMatrix::with_config(N, N, s, config).with_ctx(ctx.clone());
        for &(r, c, v) in &t {
            m.insert(r, c, v);
        }
        m.flush();
        let layers: Vec<_> = m.level_slots().iter().flatten().cloned().collect();
        prop_assert_eq!(layers.len(), usize::from(!t.is_empty()));
        let layer = layers.into_iter().next().unwrap_or_else(|| Dcsr::empty(N, N));
        prop_assert_eq!(&m.snapshot(), &layer);
        prop_assert_eq!(&m.delta_snapshot(), &layer);
        prop_assert_eq!(&m.snapshot(), &layer, "the sealed copy is the one layer now");
        prop_assert_eq!(ctx.metrics().snapshot().kernel(Kernel::StreamMerge).calls, 0);
    }

    /// `rotate` ≡ `delta_snapshot` + `snapshot` + `reset`, whether or not
    /// a delta cut the window, and says which it was.
    #[test]
    fn rotate_equals_delta_then_snapshot_then_reset(
        t in events(),
        delta_cuts in cut_points(),
    ) {
        let s = PlusTimes::<i64>::new();
        let config = StreamConfig::new().with_buffer_cap(4).with_growth(2);
        let mut a = StreamingMatrix::with_config(N, N, s, config);
        let mut b = a.clone();
        let mut cut = false;
        for (i, &(r, c, v)) in t.iter().enumerate() {
            if delta_cuts.contains(&i) {
                cut |= a.delta_snapshot().nnz() > 0;
                b.delta_snapshot();
            }
            a.insert(r, c, v);
            b.insert(r, c, v);
        }
        let delta = b.delta_snapshot();
        let closing = b.snapshot();
        b.reset();
        let (got_closing, got_delta) = a.rotate();
        prop_assert_eq!(&got_closing, &closing);
        prop_assert_eq!(&got_closing, &flat(&t, s));
        prop_assert_eq!(got_delta.is_some(), cut, "a delta is reported iff one cut the window");
        prop_assert_eq!(got_delta.as_ref().unwrap_or(&got_closing), &delta);
        prop_assert_eq!(a.snapshot().nnz(), 0);
        prop_assert_eq!(a.delta_watermark(), b.delta_watermark());
        prop_assert_eq!(a.delta_watermark(), a.inserted());
    }
}

proptest! {
    /// One flush folds `PlusTimes<f64>` duplicates in insertion order: on
    /// values whose sum depends on the order (1e16 + 1 − 1e16 is 0 or 1)
    /// the flushed layer carries the bits a stable comparison sort and a
    /// left-to-right fold produce.
    #[test]
    fn flush_folds_order_sensitive_floats_bit_identically(
        t in proptest::collection::vec((0..3u64, 0..3u64, 0..3usize), 0..120),
    ) {
        let s = PlusTimes::<f64>::new();
        let mut sorted: Vec<(Ix, Ix, f64)> =
            t.into_iter().map(|(r, c, v)| (r, c, [1e16, 1.0, -1e16][v])).collect();
        let config = StreamConfig::new().with_buffer_cap(sorted.len() + 1);
        let mut m = StreamingMatrix::with_config(N, N, s, config);
        for &(r, c, v) in &sorted {
            m.insert(r, c, v);
        }
        m.flush();
        let got: Vec<_> = m.snapshot().iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();

        sorted.sort_by_key(|e| (e.0, e.1));
        let mut want: Vec<(Ix, Ix, f64)> = Vec::new();
        for (r, c, v) in sorted {
            match want.last_mut() {
                Some(last) if (last.0, last.1) == (r, c) => last.2 += v,
                _ => want.push((r, c, v)),
            }
        }
        want.retain(|e| e.2 != 0.0);
        let want: Vec<_> = want.into_iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
        prop_assert_eq!(got, want);
    }

    /// ROADMAP item 6's pin: a `PlusTimes<u64>` window whose cells
    /// overflow saturates to the same `u64::MAX` cells through flush,
    /// cascade and rotate as the flat COO build — a saturated cell stays
    /// saturated whichever layer absorbs the next increment.
    #[test]
    fn saturating_u64_window_folds_like_the_flat_build(
        t in proptest::collection::vec((0..6u64, 0..6u64, 0..4usize), 1..300),
        delta_cuts in cut_points(),
    ) {
        let s = PlusTimes::<u64>::new();
        let t: Vec<(Ix, Ix, u64)> = t
            .into_iter()
            .map(|(r, c, v)| (r, c, [1, u64::MAX / 3, u64::MAX / 2, u64::MAX - 1][v]))
            .collect();
        let mut flat = Coo::new(N, N);
        flat.extend(t.iter().copied());
        let flat = flat.build_dcsr(s);

        let config = StreamConfig::new().with_buffer_cap(4).with_growth(2);
        let mut m = StreamingMatrix::with_config(N, N, s, config);
        for (i, &(r, c, v)) in t.iter().enumerate() {
            if delta_cuts.contains(&i) {
                m.delta_snapshot();
            }
            m.insert(r, c, v);
        }
        let (closing, _) = m.rotate();
        prop_assert_eq!(&closing, &flat);
        // The oracle: per-cell saturating sums.
        let mut cells: std::collections::BTreeMap<(Ix, Ix), u64> = Default::default();
        for &(r, c, v) in &t {
            let cell = cells.entry((r, c)).or_insert(0);
            *cell = cell.saturating_add(v);
        }
        let got: Vec<_> = closing.iter().map(|(r, c, &v)| ((r, c), v)).collect();
        prop_assert_eq!(got, cells.into_iter().collect::<Vec<_>>());
    }
}
