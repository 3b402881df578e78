//! Real-time network-traffic analytics over hypersparse traffic
//! matrices — the paper's headline deployment, end to end.
//!
//! Internet-scale traffic analysis keys a hypersparse associative array
//! by source and destination address, `A(src, dst) = packets`, and asks
//! streaming questions of it: who talks the most, who is scanning, who
//! is being flooded, what does the traffic look like at `/16`
//! resolution. This crate composes the rest of the workspace into that
//! service:
//!
//! * [`gen`] — a seeded synthetic packet-capture generator:
//!   heavy-tailed endpoint popularity and labelled scan/DDoS attack
//!   episodes, so detector tests assert zero false negatives against
//!   ground truth;
//! * [`query`] — the typed detector/analytics query surface
//!   ([`NetflowQuery`]), answered with the `_ctx` kernel stack:
//!   heavy hitters via reduce + top-k, scan/DDoS signatures via pattern
//!   degree distributions, drill-downs via masked selection, and CIDR
//!   block rollups via [`hyperspace_core::cidr`];
//! * [`flow`] — socket-resolution (`ip.port`) flow keys over the
//!   complex-index layer ([`hyperspace_core::cxkey`]): socket × socket
//!   matrices, an `O(nnz)` port rollup proven equal to host-keyed
//!   ingest, and per-socket heavy hitters;
//! * [`service`] — [`NetflowService`]: the handle tying generator
//!   output, windowed ingest through the sharded [`pipeline::Pipeline`]
//!   (a window closes by [`pipeline::Pipeline::rotate_shared`]: snapshot
//!   and reset behind one marker wave, window id = epoch), an embedded
//!   [`serve::QueryServer`]
//!   (netflow schema — SQL over flows works too), per-detector latency
//!   histograms, and a single all-layer Prometheus exposition together.
//!
//! Everything is deterministic: generator streams are pure functions of
//! their seed, window contents are bit-identical at any shard count
//! (the pipeline's marker-wave contract), and detector answers are pure
//! functions of window contents with total, tie-broken orderings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod flow;
pub mod gen;
pub mod metrics;
pub mod query;
pub mod service;

pub use error::NetflowError;
pub use flow::{SocketFlowEvent, SOCKET_SPACE};
pub use gen::{Episode, FlowEvent, GenConfig, TrafficGen};
pub use metrics::{NetflowMetrics, NetflowMetricsSnapshot};
pub use query::{NetflowBody, NetflowQuery, NetflowQueryClass, NetflowResponse};
pub use service::{NetflowConfig, NetflowService, WindowReport};

/// The semiring traffic matrices accumulate in: ⊕ = `+` over packet
/// counts.
pub type TrafficSemiring = semiring::PlusTimes<u64>;

/// The full IPv4 key space: addresses are the low 32 bits of the index.
pub const IP_SPACE: hypersparse::Ix = 1 << 32;
