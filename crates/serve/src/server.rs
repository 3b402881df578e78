//! The query server: registry + cache + metrics + tracing in one
//! front-end handle.
//!
//! `QueryServer` is `Sync` — share it behind an `Arc` and answer
//! queries from any number of reader threads while a writer thread
//! keeps publishing fresh epochs through [`QueryServer::refresh`] (or a
//! pipeline-side [`pipeline::SnapshotSink`] attachment). Readers pin an
//! epoch once per query (an `Arc` clone) and never block on
//! publication.

use std::fmt::Display;
use std::sync::Arc;
use std::time::Instant;

use hypersparse::{Exposition, TraceMode, TraceRegistry};
use pipeline::{Pipeline, PodValue};
use semiring::traits::Semiring;

use crate::api::{QueryRequest, QueryResponse, ResponseBody, View};
use crate::cache::ViewCache;
use crate::error::ServeError;
use crate::metrics::{ServeMetrics, ServeMetricsSnapshot};
use crate::registry::SnapshotRegistry;
use crate::view::{EpochView, ViewSchema};

use db::Select;

/// Default epochs retained by [`QueryServer::new`].
pub const DEFAULT_EPOCHS: usize = 4;
/// Default cached sub-views held by [`QueryServer::new`].
pub const DEFAULT_CACHE_ENTRIES: usize = 64;

/// A concurrent, in-process query-serving front-end over pipeline
/// snapshots.
#[derive(Debug)]
pub struct QueryServer<S: Semiring>
where
    S::Value: PodValue,
{
    registry: Arc<SnapshotRegistry<S>>,
    cache: ViewCache,
    metrics: ServeMetrics,
    trace: TraceRegistry,
}

impl<S: Semiring> QueryServer<S>
where
    S::Value: PodValue + Display,
{
    /// A server with default retention ([`DEFAULT_EPOCHS`]) and cache
    /// size ([`DEFAULT_CACHE_ENTRIES`]).
    pub fn new(schema: ViewSchema<S::Value>) -> Self {
        QueryServer::with_capacity(DEFAULT_EPOCHS, DEFAULT_CACHE_ENTRIES, schema)
    }

    /// A server retaining `epochs` snapshots and caching up to
    /// `cache_entries` materialized sub-views.
    pub fn with_capacity(
        epochs: usize,
        cache_entries: usize,
        schema: ViewSchema<S::Value>,
    ) -> Self {
        QueryServer {
            registry: Arc::new(SnapshotRegistry::new(epochs, schema)),
            cache: ViewCache::new(cache_entries),
            metrics: ServeMetrics::default(),
            trace: TraceRegistry::default(),
        }
    }

    /// The underlying epoch registry (e.g. to attach as a sink or to
    /// inspect retention).
    pub fn registry(&self) -> &Arc<SnapshotRegistry<S>> {
        &self.registry
    }

    /// Subscribe this server's registry to the pipeline's snapshot
    /// publication: every later `p.snapshot_shared()` lands here
    /// zero-copy, with no explicit [`QueryServer::refresh`] needed.
    pub fn attach(&self, p: &Pipeline<S>) {
        p.add_snapshot_sink(Arc::clone(&self.registry) as Arc<dyn pipeline::SnapshotSink<S>>);
    }

    /// Take a fresh snapshot from `p`, publish it (idempotent if the
    /// server is also attached as a sink), drop cache entries from
    /// rotated-out epochs, and return the new epoch.
    pub fn refresh(&self, p: &Pipeline<S>) -> Result<u64, ServeError> {
        let snap = p.snapshot_shared()?;
        let epoch = snap.epoch();
        self.registry.publish(snap);
        self.cache.retain_epochs(&self.registry.epochs());
        self.metrics.record_refresh();
        Ok(epoch)
    }

    /// Like [`QueryServer::refresh`], but through the pipeline's
    /// *incremental* marker wave: the full snapshot is published here
    /// (and every registered standing view absorbs the epoch's delta
    /// on the way), and the `(epoch, delta_nnz)` pair is returned so
    /// callers can see how much actually changed. `full(t) =
    /// full(t−1) ⊕ delta(t)` holds wave over wave, so serving reads
    /// the same matrix either way — this path just keeps standing
    /// queries `O(Δ)` instead of `O(window)`.
    pub fn refresh_incremental(&self, p: &Pipeline<S>) -> Result<(u64, u64), ServeError> {
        let inc = p.snapshot_incremental()?;
        let epoch = inc.full.epoch();
        let delta_nnz = inc.delta.nnz() as u64;
        self.registry.publish(Arc::clone(&inc.full));
        self.cache.retain_epochs(&self.registry.epochs());
        self.metrics.record_refresh();
        Ok((epoch, delta_nnz))
    }

    /// Pin the newest published epoch (an `Arc` clone; never blocks
    /// publication, never copies the snapshot).
    pub fn pin_latest(&self) -> Result<Arc<EpochView<S>>, ServeError> {
        self.registry.pin_latest()
    }

    /// Pin a specific epoch, with typed eviction errors.
    pub fn pin_epoch(&self, epoch: u64) -> Result<Arc<EpochView<S>>, ServeError> {
        self.registry.pin_epoch(epoch)
    }

    /// Answer `req` against the newest epoch.
    pub fn query(&self, req: &QueryRequest) -> Result<QueryResponse, ServeError> {
        let view = self.pin_latest()?;
        self.query_pinned(&view, req)
    }

    /// Answer `req` against a specific retained epoch.
    pub fn query_at(&self, epoch: u64, req: &QueryRequest) -> Result<QueryResponse, ServeError> {
        let view = self.pin_epoch(epoch)?;
        self.query_pinned(&view, req)
    }

    /// Answer `req` against an already-pinned epoch. This is the core
    /// path: trace span, cache probe, compute on miss, per-class
    /// latency record.
    pub fn query_pinned(
        &self,
        view: &Arc<EpochView<S>>,
        req: &QueryRequest,
    ) -> Result<QueryResponse, ServeError> {
        let class = req.class();
        let epoch = view.epoch();
        let _span = self
            .trace
            .span("serve_query", || format!("{class} @ epoch {epoch}"));
        let t = Instant::now();

        let key = req.cache_key();
        if let Some(k) = &key {
            if let Some(body) = self.cache.lookup(epoch, k) {
                self.metrics.record_query(class, t.elapsed(), true);
                return Ok(QueryResponse {
                    epoch,
                    cached: true,
                    body,
                });
            }
        }

        let body = match self.compute(view, req) {
            Ok(b) => Arc::new(b),
            Err(e) => {
                self.metrics.record_error();
                return Err(e);
            }
        };
        if let Some(k) = key {
            self.cache.insert(epoch, k, Arc::clone(&body));
        }
        self.metrics.record_query(class, t.elapsed(), false);
        Ok(QueryResponse {
            epoch,
            cached: false,
            body,
        })
    }

    fn compute(&self, view: &EpochView<S>, req: &QueryRequest) -> Result<ResponseBody, ServeError> {
        Ok(match req {
            QueryRequest::Sql { text } => {
                ResponseBody::Table(db::sql::try_execute(text, &view.tables().assoc)?)
            }
            QueryRequest::Select { view: v, expr } => {
                let t = view.tables();
                ResponseBody::Ids(match v {
                    View::Assoc => t.assoc.select(expr),
                    View::Triple => t.triples.select(expr),
                    View::Row => t.rows.select(expr),
                })
            }
            QueryRequest::Neighbors { view: v, host } => {
                let t = view.tables();
                let hosts = match v {
                    View::Assoc => t.assoc.neighbors(host),
                    View::Triple => t.triples.neighbors(host),
                    View::Row => t.rows.neighbors(host),
                };
                ResponseBody::Hosts(hosts.into_iter().collect())
            }
            QueryRequest::GroupCount { view: v, field } => {
                let t = view.tables();
                let mut counts: Vec<(String, usize)> = match v {
                    View::Assoc => t.assoc.group_count(field),
                    View::Triple => t.triples.group_count(field).into_iter().collect(),
                    View::Row => t.rows.group_count(field).into_iter().collect(),
                };
                counts.sort();
                ResponseBody::Counts(counts)
            }
            QueryRequest::Point { row, col } => {
                ResponseBody::Cell(view.snapshot().get(*row, *col).map(|v| format!("{v}")))
            }
        })
    }

    // -- observability --------------------------------------------------

    /// Frozen serving counters and per-class latency histograms.
    pub fn metrics(&self) -> ServeMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The sub-view cache (entry count; hit/miss counters are in
    /// [`QueryServer::metrics`]).
    pub fn cache(&self) -> &ViewCache {
        &self.cache
    }

    /// The server's trace registry (every query runs under a
    /// `serve_query` span).
    pub fn trace(&self) -> &TraceRegistry {
        &self.trace
    }

    /// Switch query-span tracing (default [`TraceMode::Disabled`]:
    /// span sites cost one relaxed atomic load).
    pub fn set_trace_mode(&self, mode: TraceMode) {
        self.trace.set_mode(mode);
    }

    /// One scrape body for the whole ingest-to-answer stack: the
    /// pipeline's service families and merged kernel registry, then the
    /// serving layer's.
    pub fn render_prometheus_with(&self, p: &Pipeline<S>) -> String {
        let mut out = Exposition::default();
        p.expose(&mut out);
        p.kernel_metrics().expose(&mut out);
        self.metrics().expose(&mut out);
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db::Pred;
    use semiring::PlusTimes;

    fn served() -> (Pipeline<PlusTimes<f64>>, QueryServer<PlusTimes<f64>>) {
        let p = Pipeline::new(64, 64, PlusTimes::<f64>::new());
        let srv = QueryServer::new(ViewSchema::flows());
        p.ingest(1, 2, 1.0).unwrap();
        p.ingest(1, 3, 2.0).unwrap();
        p.ingest(2, 1, 4.0).unwrap();
        srv.refresh(&p).unwrap();
        (p, srv)
    }

    #[test]
    fn all_request_classes_answer() {
        let (p, srv) = served();
        let sql = srv
            .query(&QueryRequest::sql("SELECT dst FROM flows WHERE src = 'h1'"))
            .unwrap();
        assert_eq!(sql.epoch, 1);
        assert_eq!(sql.body.as_table().unwrap().len(), 2);

        for v in [View::Assoc, View::Triple, View::Row] {
            let sel = srv
                .query(&QueryRequest::Select {
                    view: v,
                    expr: Pred::eq("src", "h1").expr(),
                })
                .unwrap();
            assert_eq!(
                sel.body.as_ids().unwrap(),
                ["e00000001-00000002", "e00000001-00000003"],
                "{v:?}"
            );
            let n = srv
                .query(&QueryRequest::Neighbors {
                    view: v,
                    host: "h1".into(),
                })
                .unwrap();
            assert_eq!(n.body.as_hosts().unwrap(), ["h2", "h3"], "{v:?}");
            let g = srv
                .query(&QueryRequest::GroupCount {
                    view: v,
                    field: "src".into(),
                })
                .unwrap();
            assert_eq!(
                g.body.as_counts().unwrap(),
                [("h1".to_string(), 2), ("h2".to_string(), 1)],
                "{v:?}"
            );
        }

        let pt = srv.query(&QueryRequest::Point { row: 1, col: 3 }).unwrap();
        assert_eq!(pt.body.as_cell().unwrap(), Some("2"));
        let miss = srv.query(&QueryRequest::Point { row: 9, col: 9 }).unwrap();
        assert_eq!(miss.body.as_cell().unwrap(), None);
        p.shutdown().unwrap();
    }

    #[test]
    fn cache_hits_are_epoch_scoped() {
        let (p, srv) = served();
        let req = QueryRequest::sql("SELECT src FROM flows WHERE dst = 'h1'");
        let first = srv.query(&req).unwrap();
        assert!(!first.cached);
        let second = srv.query(&req).unwrap();
        assert!(second.cached);
        // Shared body, not a copy.
        assert!(Arc::ptr_eq(&first.body, &second.body));

        // New epoch ⇒ the same request recomputes (never a stale hit).
        p.ingest(5, 1, 1.0).unwrap();
        srv.refresh(&p).unwrap();
        let third = srv.query(&req).unwrap();
        assert!(!third.cached);
        assert_eq!(third.epoch, 2);
        assert_eq!(third.body.as_table().unwrap().len(), 2);
        p.shutdown().unwrap();
    }

    #[test]
    fn sql_errors_surface_typed() {
        let (p, srv) = served();
        let err = srv
            .query(&QueryRequest::sql("SELECT src FROM flows WHERE"))
            .unwrap_err();
        assert!(matches!(err, ServeError::Sql(_)));
        assert_eq!(srv.metrics().errors, 1);
        p.shutdown().unwrap();
    }

    #[test]
    fn metrics_and_exposition_cover_the_query_mix() {
        let (p, srv) = served();
        srv.query(&QueryRequest::sql("SELECT src FROM flows WHERE dst = 'h1'"))
            .unwrap();
        srv.query(&QueryRequest::Point { row: 1, col: 2 }).unwrap();
        let m = srv.metrics();
        assert_eq!(m.queries, 2);
        assert_eq!(m.refreshes, 1);
        assert_eq!(m.class(crate::QueryClass::Sql).count(), 1);
        let text = srv.render_prometheus_with(&p);
        assert!(text.contains("pipeline_events_ingested_total")); // pipeline half
        assert!(text.contains("serve_queries_total 2")); // serving half
        p.shutdown().unwrap();
    }

    #[test]
    fn incremental_refresh_publishes_full_and_reports_delta() {
        let (p, srv) = served(); // 3 entries, epoch 1 already published
        p.ingest(7, 8, 1.0).unwrap();
        let (epoch, delta) = srv.refresh_incremental(&p).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(delta, 4, "first delta cut covers the whole stream");
        let pt = srv.query(&QueryRequest::Point { row: 7, col: 8 }).unwrap();
        assert_eq!(pt.epoch, 2);
        assert_eq!(pt.body.as_cell().unwrap(), Some("1"));
        p.ingest(7, 9, 1.0).unwrap();
        let (_, delta2) = srv.refresh_incremental(&p).unwrap();
        assert_eq!(delta2, 1, "second wave sees only the new entry");
        p.shutdown().unwrap();
    }

    #[test]
    fn query_at_pins_historical_epochs() {
        let (p, srv) = served();
        p.ingest(9, 9, 1.0).unwrap();
        srv.refresh(&p).unwrap();
        let old = srv
            .query_at(1, &QueryRequest::Point { row: 9, col: 9 })
            .unwrap();
        assert_eq!(old.body.as_cell().unwrap(), None, "epoch 1 predates 9,9");
        let new = srv
            .query_at(2, &QueryRequest::Point { row: 9, col: 9 })
            .unwrap();
        assert_eq!(new.body.as_cell().unwrap(), Some("1"));
        p.shutdown().unwrap();
    }
}
