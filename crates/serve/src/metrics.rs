//! Serving observability: counters plus per-query-class latency
//! histograms, written into the same [`Exposition`] the pipeline
//! writes into (one scrape body for both).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use hypersparse::{Exposition, Histogram, HistogramSnapshot};

use crate::api::QueryClass;

/// Live serving counters; shared by reference, updated lock-free.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    queries: AtomicU64,
    errors: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    refreshes: AtomicU64,
    latency: [Histogram; QueryClass::ALL.len()],
}

impl ServeMetrics {
    /// Record one answered query.
    pub fn record_query(&self, class: QueryClass, elapsed: Duration, cached: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if cached {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.latency[class.index()].record(elapsed);
    }

    /// Record one failed query.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one registry refresh.
    pub fn record_refresh(&self) {
        self.refreshes.fetch_add(1, Ordering::Relaxed);
    }

    /// Freeze everything into an owned snapshot.
    pub fn snapshot(&self) -> ServeMetricsSnapshot {
        ServeMetricsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            latency: std::array::from_fn(|i| self.latency[i].snapshot()),
        }
    }
}

/// Frozen serving counters and histograms.
#[derive(Clone, Debug)]
pub struct ServeMetricsSnapshot {
    /// Queries answered (hits + misses).
    pub queries: u64,
    /// Queries that returned a [`crate::ServeError`].
    pub errors: u64,
    /// Answers served from the sub-view cache.
    pub cache_hits: u64,
    /// Answers computed fresh.
    pub cache_misses: u64,
    /// Registry refreshes performed.
    pub refreshes: u64,
    /// Per-class latency, indexed like [`QueryClass::ALL`].
    pub latency: [HistogramSnapshot; QueryClass::ALL.len()],
}

impl ServeMetricsSnapshot {
    /// One class's latency histogram.
    pub fn class(&self, class: QueryClass) -> &HistogramSnapshot {
        &self.latency[class.index()]
    }

    /// The serving families: `serve_*` counters plus
    /// `serve_query_latency_seconds{class="..."}` histograms.
    pub fn expose(&self, out: &mut Exposition) {
        for (name, help, v) in [
            ("serve_queries_total", "Queries answered", self.queries),
            ("serve_query_errors_total", "Queries failed", self.errors),
            (
                "serve_cache_hits_total",
                "Answers served from the sub-view cache",
                self.cache_hits,
            ),
            (
                "serve_cache_misses_total",
                "Answers computed fresh",
                self.cache_misses,
            ),
            (
                "serve_refreshes_total",
                "Registry refreshes",
                self.refreshes,
            ),
        ] {
            out.family(name, "counter", help, [("", v)]);
        }
        out.histograms(
            "serve_query_latency_seconds",
            "Query latency by class",
            QueryClass::ALL.map(|c| (format!("class=\"{}\"", c.label()), self.class(c))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_partition_by_class_and_cache_state() {
        let m = ServeMetrics::default();
        m.record_query(QueryClass::Sql, Duration::from_micros(10), false);
        m.record_query(QueryClass::Sql, Duration::from_micros(1), true);
        m.record_query(QueryClass::Point, Duration::from_nanos(50), false);
        m.record_error();
        let s = m.snapshot();
        assert_eq!(s.queries, 3);
        assert_eq!(s.errors, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.class(QueryClass::Sql).count(), 2);
        assert_eq!(s.class(QueryClass::Point).count(), 1);
        assert_eq!(s.class(QueryClass::Neighbors).count(), 0);
    }

    #[test]
    fn prometheus_exposition_is_labelled_per_class() {
        let m = ServeMetrics::default();
        m.record_query(QueryClass::Select, Duration::from_micros(5), false);
        let mut out = Exposition::default();
        m.snapshot().expose(&mut out);
        let text = out.finish();
        assert!(text.contains("# TYPE serve_queries_total counter"));
        assert!(text.contains("serve_queries_total 1"));
        assert!(text.contains("serve_query_latency_seconds_bucket{class=\"select\""));
        // Empty classes are omitted entirely.
        assert!(!text.contains("class=\"sql\""));
    }
}
