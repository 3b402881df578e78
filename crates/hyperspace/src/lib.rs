//! `hyperspace` — one-stop facade for the *Mathematics of Digital
//! Hyperspace* workspace.
//!
//! Re-exports the full stack so applications depend on a single crate:
//!
//! * [`semiring`] — Table I algebras, power sets, semilinks, law checkers;
//! * [`hypersparse`] — the auto-switching sparse array engine (Fig. 4);
//! * [`core`] (`hyperspace-core`) — associative arrays (Table II),
//!   §IV semilink identities, the §V.B select;
//! * [`graph`] — BFS/SSSP/CC/triangles/PageRank + baselines (Figs. 1–3, 5);
//! * [`db`] — row-store / triple-store / exploded-schema views (Fig. 6);
//! * [`dnn`] — two-semiring sparse DNN inference (Figs. 7–8);
//! * [`pipeline`] — sharded streaming ingest/query service with snapshot
//!   isolation, backpressure, and checkpoint/restore (the paper's
//!   "75 billion inserts/second" streaming story, §II);
//! * [`serve`] — snapshot query-serving front-end: epoch registry with
//!   zero-copy pinning, the typed [`serve::QueryRequest`] API over all
//!   three database views plus SQL, LRU sub-view caching, and
//!   per-query-class latency histograms;
//! * [`netflow`] — the headline deployment: real-time network-traffic
//!   analytics with CIDR-hierarchical keys, windowed hypersparse
//!   traffic matrices, and streaming scan/DDoS detectors served as
//!   typed queries.
//!
//! See `examples/quickstart.rs` for a guided tour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use db;
pub use dnn;
pub use graph;
pub use hypersparse;
pub use netflow;
pub use pipeline;
pub use semiring;
pub use serve;

/// The paper's primary contribution: associative arrays and semilinks.
pub use hyperspace_core as core;

/// Commonly used items, one `use` away.
pub mod prelude {
    pub use db::{Pred, PredExpr, ResultSet, Row, Select, SqlError};
    pub use graph::incremental::{DegreeState, TriangleState};
    pub use hyperspace_core::{Assoc, Key};
    pub use hypersparse::{
        Coo, Dcsr, Format, Matrix, MetricsSnapshot, OpCtx, OpError, SparseVec, StreamConfig,
        StreamingMatrix, TraceMode, TraceRegistry,
    };
    pub use netflow::{
        GenConfig, NetflowConfig, NetflowQuery, NetflowResponse, NetflowService, TrafficGen,
    };
    pub use pipeline::{
        EpochSnapshot, IncrementalEpoch, Pipeline, PipelineConfig, PipelineError, SnapshotSink,
        Stage, StandingView,
    };
    pub use semiring::{
        AnyPair, LorLand, MaxMin, MaxPlus, MaxTimes, MinMax, MinPlus, MinTimes, Monoid, PSet,
        PlusTimes, Semilink, Semiring, UnionIntersect,
    };
    pub use serve::{
        QueryRequest, QueryResponse, QueryServer, ResponseBody, ServeError, SnapshotRegistry, View,
        ViewSchema,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links_the_stack() {
        use crate::prelude::*;
        let s = PlusTimes::<f64>::new();
        let a = Assoc::from_triplets(vec![("x", "y", 1.0)], s);
        assert_eq!(a.nnz(), 1);
        let m = Matrix::<f64>::empty(4, 4);
        assert_eq!(m.nnz(), 0);
    }
}
