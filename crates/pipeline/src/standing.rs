//! Standing queries: materialized views maintained from epoch deltas.
//!
//! A [`StandingView`] is a derived result (detector state, a triangle
//! count, a ranking) that the pipeline keeps *current* by feeding it the
//! delta of every incremental marker wave instead of recomputing it from
//! a full snapshot per epoch — the paper's ⊕-fold-over-deltas framing of
//! continuous analysis. Views register once
//! ([`crate::Pipeline::register_standing_query`]) and are then updated
//! inside [`crate::Pipeline::snapshot_incremental`] and
//! [`crate::Pipeline::rotate`], epoch-stamped in lockstep with the
//! snapshot they accompany.
//!
//! The registry meters each view: a per-view log₂ latency histogram, the
//! last applied epoch, and a cumulative update count, all rendered as
//! `pipeline_standing_*` Prometheus series alongside the stage and
//! kernel expositions.
//!
//! Exactly-once contract: every event ingested before a marker wave is
//! contained in exactly one delta handed to `apply_delta`, and window
//! rotation delivers the closing delta *before* `reset` — so a view that
//! ⊕-folds its deltas equals the same computation run from scratch on
//! the full window, which the `incremental_props` suite proves at 1/2/4
//! shards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hypersparse::{Exposition, Histogram, HistogramSnapshot};
use semiring::traits::Semiring;

use crate::snapshot::EpochSnapshot;

/// A materialized view updated incrementally from epoch deltas.
///
/// Implementations use interior mutability (the registry shares views
/// behind `Arc<dyn StandingView>`, and serving layers typically hold a
/// second handle to read the maintained state).
pub trait StandingView<S: Semiring>: Send + Sync {
    /// Absorb one epoch's delta — the entries inserted since the
    /// previous marker wave, ⊕-assembled across shards and stamped with
    /// the accompanying snapshot's epoch. Called exactly once per
    /// incremental epoch, in epoch order.
    fn apply_delta(&self, delta: &EpochSnapshot<S>);

    /// Drop all maintained state: the analytics window rotated, and the
    /// closing delta has already been applied. Subsequent deltas belong
    /// to the fresh window.
    fn reset(&self);
}

/// One registered view plus its meters.
struct Registered<S: Semiring> {
    name: String,
    view: Arc<dyn StandingView<S>>,
    latency: Histogram,
    epoch: AtomicU64,
    updates: AtomicU64,
}

/// Frozen per-view meters, in registration order.
#[derive(Clone, Debug)]
pub struct StandingViewStats {
    /// The name the view registered under.
    pub name: String,
    /// Last epoch whose delta was applied (0 before the first).
    pub epoch: u64,
    /// Deltas applied so far (rotations count their closing delta).
    pub updates: u64,
    /// Per-update `apply_delta` wall time.
    pub latency: HistogramSnapshot,
}

impl StandingViewStats {
    /// The `pipeline_standing_*` families, one row per view (none when
    /// no view is registered).
    pub(crate) fn expose(stats: &[StandingViewStats], out: &mut Exposition) {
        let label = |s: &StandingViewStats| format!("view=\"{}\"", s.name);
        out.family(
            "pipeline_standing_updates_total",
            "counter",
            "Deltas applied per standing view",
            stats.iter().map(|s| (label(s), s.updates)),
        );
        out.family(
            "pipeline_standing_epoch",
            "gauge",
            "Last epoch applied per standing view",
            stats.iter().map(|s| (label(s), s.epoch)),
        );
        out.histograms(
            "pipeline_standing_update_seconds",
            "Standing-view delta application latency",
            stats.iter().map(|s| (label(s), &s.latency)),
        );
    }
}

/// The pipeline's standing-query registry.
///
/// Lock discipline matches the sink registry: the mutex guards only the
/// registration list, poisoning is recovered with `into_inner` (the list
/// is always valid — a panicking view must not take down ingest).
pub(crate) struct StandingRegistry<S: Semiring> {
    views: Mutex<Vec<Registered<S>>>,
}

impl<S: Semiring> Default for StandingRegistry<S> {
    fn default() -> Self {
        StandingRegistry {
            views: Mutex::new(Vec::new()),
        }
    }
}

impl<S: Semiring> StandingRegistry<S> {
    pub(crate) fn register(&self, name: String, view: Arc<dyn StandingView<S>>) {
        self.views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Registered {
                name,
                view,
                latency: Histogram::default(),
                epoch: AtomicU64::new(0),
                updates: AtomicU64::new(0),
            });
    }

    /// True when no view is registered — callers skip assembling the
    /// delta entirely in that case.
    pub(crate) fn is_empty(&self) -> bool {
        self.views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }

    /// Feed one epoch's delta to every view, metering each application.
    pub(crate) fn apply(&self, delta: &EpochSnapshot<S>) {
        Self::apply_to(&self.views.lock().unwrap_or_else(|e| e.into_inner()), delta);
    }

    fn apply_to(views: &[Registered<S>], delta: &EpochSnapshot<S>) {
        for reg in views.iter() {
            let t = Instant::now();
            reg.view.apply_delta(delta);
            reg.latency.record(t.elapsed());
            reg.epoch.store(delta.epoch(), Ordering::Relaxed);
            reg.updates.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Window rotation: feed every view the closing delta, then reset
    /// it. One hold of the registration lock covers both, so no other
    /// wave's delta can land between a view's last delta and its reset.
    pub(crate) fn close(&self, delta: &EpochSnapshot<S>) {
        let views = self.views.lock().unwrap_or_else(|e| e.into_inner());
        Self::apply_to(&views, delta);
        for reg in views.iter() {
            reg.view.reset();
        }
    }

    pub(crate) fn stats(&self) -> Vec<StandingViewStats> {
        let views = self.views.lock().unwrap_or_else(|e| e.into_inner());
        views
            .iter()
            .map(|reg| StandingViewStats {
                name: reg.name.clone(),
                epoch: reg.epoch.load(Ordering::Relaxed),
                updates: reg.updates.load(Ordering::Relaxed),
                latency: reg.latency.snapshot(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersparse::OpCtx;
    use semiring::PlusTimes;

    /// A view that ⊕-folds delta nnz into a counter.
    #[derive(Default)]
    struct NnzView {
        total: AtomicU64,
        resets: AtomicU64,
    }

    impl StandingView<PlusTimes<f64>> for NnzView {
        fn apply_delta(&self, delta: &EpochSnapshot<PlusTimes<f64>>) {
            self.total.fetch_add(delta.nnz() as u64, Ordering::Relaxed);
        }
        fn reset(&self) {
            self.resets.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn delta_of(nnz: u64, epoch: u64) -> EpochSnapshot<PlusTimes<f64>> {
        let s = PlusTimes::<f64>::new();
        let ctx = OpCtx::new();
        let mut coo = hypersparse::Coo::new(64, 64);
        for i in 0..nnz {
            coo.push(i % 64, i / 64, 1.0);
        }
        EpochSnapshot::assemble(epoch, nnz, &ctx, vec![coo.build_dcsr(s)], s)
    }

    fn exposed(reg: &StandingRegistry<PlusTimes<f64>>) -> String {
        let mut out = Exposition::default();
        StandingViewStats::expose(&reg.stats(), &mut out);
        out.finish()
    }

    #[test]
    fn registry_applies_meters_and_resets() {
        let reg = StandingRegistry::<PlusTimes<f64>>::default();
        assert!(reg.is_empty());
        let view = Arc::new(NnzView::default());
        reg.register("nnz".into(), Arc::clone(&view) as Arc<dyn StandingView<_>>);
        assert!(!reg.is_empty());

        reg.apply(&delta_of(3, 1));
        // Rotation: the closing delta lands, then the reset.
        reg.close(&delta_of(2, 2));
        assert_eq!(view.total.load(Ordering::Relaxed), 5);
        assert_eq!(view.resets.load(Ordering::Relaxed), 1);

        let stats = reg.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "nnz");
        assert_eq!(stats[0].epoch, 2);
        assert_eq!(stats[0].updates, 2);
        assert_eq!(stats[0].latency.count(), 2);

        let text = exposed(&reg);
        assert!(text.contains("pipeline_standing_updates_total{view=\"nnz\"} 2"));
        assert!(text.contains("pipeline_standing_epoch{view=\"nnz\"} 2"));
        assert!(text.contains("pipeline_standing_update_seconds_bucket{view=\"nnz\""));
    }

    #[test]
    fn empty_registry_renders_nothing() {
        let reg = StandingRegistry::<PlusTimes<f64>>::default();
        assert!(exposed(&reg).is_empty());
        // Applying with no views is a no-op, not an error.
        reg.apply(&delta_of(1, 1));
        reg.close(&delta_of(1, 2));
    }
}
