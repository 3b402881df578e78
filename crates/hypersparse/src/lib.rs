//! Hypersparse array engine — the GraphBLAS-equivalent substrate of the
//! *Mathematics of Digital Hyperspace* workspace.
//!
//! The paper's Fig. 4 distinguishes three sparsity regimes for an `N × N`
//! array: **dense** (`nnz ≈ N²`), **sparse** (`nnz ≈ N`), and
//! **hypersparse** (`nnz ≪ N`) where even one machine word per *row* is
//! too much. Its conclusion highlights that SuiteSparse:GraphBLAS keeps an
//! opaque matrix that internally switches among *sparse, hypersparse,
//! bitmap, and full* storage "with little or no involvement from the user
//! application". This crate reproduces that design:
//!
//! * [`DenseMat`] — full storage, one value per cell.
//! * [`Bitmap`] — full value array plus a presence bitmap (fast random
//!   writes at moderate density).
//! * [`Csr`] — classic compressed sparse rows (`nnz ≈ N`): one row
//!   pointer per row.
//! * [`Dcsr`] — doubly-compressed sparse rows (Buluç–Gilbert
//!   hypersparse): only *non-empty* rows exist, so storage is
//!   `O(nnz)` independent of the row dimension. This is what lets
//!   associative arrays live in ~2⁶⁰-sized key spaces.
//! * [`Matrix`] — the opaque wrapper that picks a format automatically
//!   ([`FormatPolicy`]) and re-evaluates the choice after each operation;
//! * [`StreamingMatrix`] — hierarchical (LSM-style) ⊕-merged layers for
//!   O(1)-amortized streaming inserts, after the paper's cited
//!   "75 billion inserts/second" hierarchical hypersparse design.
//!
//! All computational kernels ([`ops`]) are generic over a
//! [`semiring::Semiring`], take operator objects by value (zero-sized →
//! fully monomorphized inner loops), never store semiring zeros, and are
//! deterministic: the parallel SpGEMM partitions by row and merges in
//! row order, so parallel ≡ sequential bit-for-bit. Every kernel runs
//! under an execution context ([`ctx::OpCtx`]) providing a reusable
//! workspace arena, a thread cap, and per-kernel metrics
//! ([`metrics::MetricsSnapshot`]). One calling convention holds
//! everywhere (DESIGN.md §7): `_ctx` ⇔ the first parameter is an
//! [`OpCtx`], `try_` ⇔ the result is a `Result<_, OpError>`, and a bare
//! name runs on the thread's default context ([`with_default_ctx`]) and
//! panics with that [`OpError`]'s `Display`. The kernels in [`ops`] are
//! `*_ctx` only; a [`Matrix`] operation has one body (`try_op_ctx` if
//! it can be misused, `op_ctx` if not) plus the bare `op`.
//!
//! Index space is `u64` throughout — dimensions are *key-space sizes*,
//! not allocation sizes; only materialized formats (dense, bitmap, CSR)
//! constrain them. The *physical* column-id width is a per-container
//! choice ([`IndexType`]): `Dcsr<T, u32>` (via
//! [`Dcsr::to_index_width`]) halves index bandwidth on kernel inner
//! loops when both dims fit in 32 bits — see DESIGN.md §13.
//!
//! ```
//! use hypersparse::{Matrix, SparseVec};
//! use semiring::{PlusTimes, MinPlus};
//!
//! // A tiny weighted digraph in a huge (2^40) key space.
//! let n = 1u64 << 40;
//! let a = Matrix::from_triplets(
//!     n, n,
//!     vec![(0, 7, 1.5), (7, 99_999_999, 2.0), (0, 3, 4.0)],
//!     PlusTimes::<f64>::new(),
//! );
//! assert_eq!(a.nnz(), 3);
//!
//! // One min-plus step from vertex 0: shortest one-hop distances.
//! let front = SparseVec::from_entries(n, vec![(0, 0.0)], MinPlus::<f64>::new());
//! let d = a.vxm(&front, MinPlus::<f64>::new());
//! assert_eq!(d.get(&7).copied(), Some(1.5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod coo;
pub mod csr;
pub mod ctx;
pub mod dcsr;
pub mod dense;
pub mod error;
pub mod gen;
pub mod index;
pub mod matrix;
pub mod metrics;
pub mod ops;
mod radix;
pub mod stream;
pub mod trace;
pub mod vector;

pub use bitmap::Bitmap;
pub use coo::Coo;
pub use csr::Csr;
pub use ctx::{with_default_ctx, OpCtx};
pub use dcsr::Dcsr;
pub use dense::DenseMat;
pub use error::{Axis, OpError};
pub use index::IndexType;
pub use matrix::{Format, FormatPolicy, Matrix};
pub use metrics::{Direction, Kernel, KernelSnapshot, MetricsRegistry, MetricsSnapshot};
pub use stream::{StreamConfig, StreamingMatrix};
pub use trace::{
    Exposition, Histogram, HistogramSnapshot, Span, SpanRecord, TraceMode, TraceRegistry,
};
pub use vector::SparseVec;

/// External index type: key spaces are up to ~2⁶⁰, far beyond anything a
/// materialized array could allocate.
pub type Ix = u64;
