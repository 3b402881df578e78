//! Netflow-service observability: window/event counters plus
//! per-detector latency histograms, written into the same
//! [`Exposition`] as the pipeline and serving layers — one scrape body
//! carries all three.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use hypersparse::{Exposition, Histogram, HistogramSnapshot};

use crate::query::NetflowQueryClass;

/// Live netflow counters; shared by reference, updated lock-free.
#[derive(Debug, Default)]
pub struct NetflowMetrics {
    windows_closed: AtomicU64,
    window_events: AtomicU64,
    queries: AtomicU64,
    errors: AtomicU64,
    detections: AtomicU64,
    detector_state_answers: AtomicU64,
    detector_rescans: AtomicU64,
    latency: [Histogram; NetflowQueryClass::ALL.len()],
}

impl NetflowMetrics {
    /// Record one closed window and the entries (distinct flows) its
    /// traffic matrix stored.
    pub fn record_window(&self, entries: u64) {
        self.windows_closed.fetch_add(1, Ordering::Relaxed);
        self.window_events.fetch_add(entries, Ordering::Relaxed);
    }

    /// Record one answered query; `flagged` counts detector hits in the
    /// answer (0 for non-detector classes).
    pub fn record_query(&self, class: NetflowQueryClass, elapsed: Duration, flagged: u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.detections.fetch_add(flagged, Ordering::Relaxed);
        self.latency[class.index()].record(elapsed);
    }

    /// Record which path answered one detector query: the maintained
    /// degree state, or a rescan of the window's matrix.
    pub fn record_detector_path(&self, from_state: bool) {
        let counter = if from_state {
            &self.detector_state_answers
        } else {
            &self.detector_rescans
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one failed query.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Freeze everything into an owned snapshot.
    pub fn snapshot(&self) -> NetflowMetricsSnapshot {
        NetflowMetricsSnapshot {
            windows_closed: self.windows_closed.load(Ordering::Relaxed),
            window_events: self.window_events.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            detections: self.detections.load(Ordering::Relaxed),
            detector_state_answers: self.detector_state_answers.load(Ordering::Relaxed),
            detector_rescans: self.detector_rescans.load(Ordering::Relaxed),
            latency: std::array::from_fn(|i| self.latency[i].snapshot()),
        }
    }
}

/// Frozen netflow counters and histograms.
#[derive(Clone, Debug)]
pub struct NetflowMetricsSnapshot {
    /// Analysis windows closed (pipeline rotations).
    pub windows_closed: u64,
    /// Stored entries (distinct flows) in closed windows, cumulative.
    pub window_events: u64,
    /// Netflow queries answered.
    pub queries: u64,
    /// Netflow queries failed.
    pub errors: u64,
    /// Endpoints flagged by detector queries, cumulative.
    pub detections: u64,
    /// Detector queries answered from the maintained degree state (the
    /// standing classes, and the window detectors on the last window
    /// closed).
    pub detector_state_answers: u64,
    /// Detector queries answered by rescanning a window's matrix (older
    /// retained windows, `refresh()` cuts).
    pub detector_rescans: u64,
    /// Per-class latency, indexed like [`NetflowQueryClass::ALL`].
    pub latency: [HistogramSnapshot; NetflowQueryClass::ALL.len()],
}

impl NetflowMetricsSnapshot {
    /// One class's latency histogram.
    pub fn class(&self, class: NetflowQueryClass) -> &HistogramSnapshot {
        &self.latency[class.index()]
    }

    /// The netflow families: `netflow_*` counters plus
    /// `netflow_query_latency_seconds{detector="..."}` histograms.
    pub(crate) fn expose(&self, out: &mut Exposition) {
        for (name, help, v) in [
            (
                "netflow_windows_closed_total",
                "Analysis windows closed",
                self.windows_closed,
            ),
            (
                "netflow_window_events_total",
                "Stored entries in closed windows",
                self.window_events,
            ),
            (
                "netflow_queries_total",
                "Netflow queries answered",
                self.queries,
            ),
            (
                "netflow_query_errors_total",
                "Netflow queries failed",
                self.errors,
            ),
            (
                "netflow_detections_total",
                "Endpoints flagged by detectors",
                self.detections,
            ),
            (
                "netflow_detector_state_answers_total",
                "Detector queries answered from maintained degree state",
                self.detector_state_answers,
            ),
            (
                "netflow_detector_rescans_total",
                "Detector queries answered by rescanning a window",
                self.detector_rescans,
            ),
        ] {
            out.family(name, "counter", help, [("", v)]);
        }
        out.histograms(
            "netflow_query_latency_seconds",
            "Netflow query latency by detector class",
            NetflowQueryClass::ALL.map(|c| (format!("detector=\"{}\"", c.label()), self.class(c))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_partition_by_class() {
        let m = NetflowMetrics::default();
        m.record_window(100);
        m.record_window(50);
        m.record_query(NetflowQueryClass::ScanSuspects, Duration::from_micros(5), 2);
        m.record_query(NetflowQueryClass::TopTalkers, Duration::from_micros(3), 0);
        m.record_error();
        m.record_detector_path(true);
        m.record_detector_path(true);
        m.record_detector_path(false);
        let s = m.snapshot();
        assert_eq!(s.windows_closed, 2);
        assert_eq!(s.window_events, 150);
        assert_eq!(s.queries, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.detections, 2);
        assert_eq!((s.detector_state_answers, s.detector_rescans), (2, 1));
        assert_eq!(s.class(NetflowQueryClass::ScanSuspects).count(), 1);
        assert_eq!(s.class(NetflowQueryClass::DdosVictims).count(), 0);
    }

    #[test]
    fn prometheus_exposition_is_labelled_per_detector() {
        let m = NetflowMetrics::default();
        m.record_query(NetflowQueryClass::DdosVictims, Duration::from_micros(7), 1);
        m.record_detector_path(false);
        let mut out = Exposition::default();
        m.snapshot().expose(&mut out);
        let text = out.finish();
        assert!(text.contains("# TYPE netflow_windows_closed_total counter"));
        assert!(text.contains("netflow_detections_total 1"));
        assert!(text.contains("# TYPE netflow_detector_state_answers_total counter"));
        assert!(text.contains("netflow_detector_state_answers_total 0"));
        assert!(text.contains("netflow_detector_rescans_total 1"));
        assert!(text.contains("netflow_query_latency_seconds_bucket{detector=\"ddos_victims\""));
        assert!(!text.contains("detector=\"rollup\""));
    }
}
