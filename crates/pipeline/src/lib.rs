//! Sharded streaming ingest/query service — the deployed form of the
//! paper's hypersparse streaming story.
//!
//! *Mathematics of Digital Hyperspace* leads with sustained streaming
//! ingest ("75 billion inserts/second using hierarchical hypersparse
//! matrices") feeding continuous analysis; the fielded version of that
//! stack is a long-running ingest-and-analyze service (GraphBLAS network
//! telemetry deployments à la Jones et al. / Jananthan et al.). The
//! `hypersparse` crate supplies the single-threaded primitive
//! ([`hypersparse::StreamingMatrix`]); this crate turns it into a
//! concurrent, fault-tolerant service:
//!
//! * **Sharding** — events hash-partition by row key
//!   ([`config::shard_of`]) across N shards, each a `StreamingMatrix`
//!   owned by a dedicated worker thread. Rows never span shards, so the
//!   global state is a disjoint union.
//! * **Backpressure** — every shard channel is *bounded*:
//!   [`Pipeline::ingest`] blocks at capacity, [`Pipeline::try_ingest`]
//!   returns [`PipelineError::Full`]; memory is bounded no matter how
//!   fast the feed runs.
//! * **Snapshot isolation** — [`Pipeline::snapshot`] sends a marker wave
//!   through the ingest channels and ⊕-folds the per-shard cuts into an
//!   owned, epoch-stamped [`EpochSnapshot`]; queries run against it
//!   (as a [`hypersparse::Matrix`] or an associative array) while
//!   ingest continues. Concurrent inserts can never alter an epoch's
//!   result.
//! * **Checkpoint/restore** — [`Pipeline::checkpoint`] serializes every
//!   shard's hierarchy to length-prefixed binary files under a
//!   checksummed manifest committed by atomic rename;
//!   [`Pipeline::restore`] (and [`Pipeline::restore_with_fallback`])
//!   rebuilds the exact epoch state, detecting truncation and bit-rot
//!   as typed [`PipelineError::Corrupt`] values.
//! * **Standing queries** — [`Pipeline::register_standing_query`]
//!   attaches a [`StandingView`] that
//!   [`Pipeline::snapshot_incremental`] keeps current by feeding it each
//!   epoch's **delta** (entries since the previous cut) instead of
//!   recomputing from scratch — `full(t) = full(t−1) ⊕ delta(t)` by
//!   construction, `O(Δ)` maintenance per wave.
//! * **Observability** — service counters ([`PipelineMetrics`]) plus
//!   per-shard kernel registries (`stream_merge`, `ewise_add`, …)
//!   merged with [`hypersparse::MetricsSnapshot::merge`], and per-view
//!   `pipeline_standing_*` series for standing queries; each writes its
//!   families into one [`hypersparse::Exposition`].
//!
//! ```
//! use pipeline::{Pipeline, PipelineConfig};
//! use semiring::PlusTimes;
//!
//! let p = Pipeline::with_config(
//!     1 << 40, 1 << 40,                       // a 2^40 key space
//!     PlusTimes::<f64>::new(),
//!     PipelineConfig::new().with_shards(2),
//! );
//! p.ingest(7, 9, 1.0).unwrap();
//! p.ingest(7, 9, 2.0).unwrap();               // ⊕-accumulates
//! let snap = p.snapshot().unwrap();           // epoch 1, isolated
//! assert_eq!(snap.get(7, 9), Some(&3.0));
//! p.ingest(1, 1, 5.0).unwrap();               // invisible to `snap`
//! assert_eq!(snap.nnz(), 1);
//! p.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod error;
pub mod metrics;
pub mod router;
pub(crate) mod shard;
pub mod sink;
pub mod snapshot;
pub mod standing;
pub mod value;

pub use checkpoint::Manifest;
pub use config::{shard_of, PipelineConfig};
pub use error::PipelineError;
pub use metrics::{PipelineMetrics, PipelineMetricsSnapshot, Stage};
pub use router::Pipeline;
pub use sink::SnapshotSink;
pub use snapshot::{EpochSnapshot, IncrementalEpoch};
pub use standing::StandingView;
pub use value::PodValue;
