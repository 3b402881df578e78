//! The execution context threaded through every computational kernel.
//!
//! SuiteSparse:GraphBLAS kernels owe their production viability to three
//! things the naive formulation lacks: **scratch reuse** (Gustavson
//! accumulators are not reallocated per multiply), **explicit parallelism
//! control** (`GxB_NTHREADS`), and **introspection** (`GxB_*` statistics).
//! [`OpCtx`] packages all three:
//!
//! * a **workspace arena** pooling SpGEMM scratch (dense accumulator +
//!   touched list + hash accumulator, per value type) so hot paths that
//!   repeat same-shaped multiplies stop allocating per call;
//! * a **thread cap** (there is no separate sequential kernel): `1`
//!   forces sequential execution, `n` shards rows across `n` OS threads,
//!   `auto` (the default) uses the machine's available parallelism —
//!   results are bit-for-bit identical at every setting;
//! * the **metrics registry** ([`crate::metrics`]) every `*_ctx` kernel
//!   reports into.
//!
//! Kernels take `&OpCtx`; the context is [`Sync`], so one context can
//! serve parallel shards (scratch leases go through a mutex that is
//! touched once per shard, not per row). The bare conveniences on
//! [`crate::Matrix`] / [`crate::SparseVec`] and in the upper crates run
//! on a **thread-local default context** ([`with_default_ctx`]), so
//! their callers get workspace reuse too.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use semiring::traits::Value;

use crate::metrics::{Kernel, MetricsRegistry};
use crate::trace::{Span, TraceRegistry};
use crate::Ix;

/// Reusable Gustavson-accumulator scratch for SpGEMM over value type `T`.
///
/// Holds both accumulator strategies so the kernel's per-call
/// dense-vs-hash choice never forces an allocation: the dense scratch
/// grows monotonically to the widest column space seen, the hash map
/// keeps its capacity across calls.
#[derive(Debug)]
pub struct MxmScratch<T> {
    /// Dense accumulator, one slot per column of the compact column space.
    pub dense: Vec<Option<T>>,
    /// Columns written this row (reset list for `dense`).
    pub touched: Vec<Ix>,
    /// Hash accumulator for hypersparse column spaces.
    pub hash: HashMap<Ix, T>,
    /// Flat branch-free accumulator for `Semiring::FLAT_ACC` semirings
    /// (DESIGN.md §13). **Invariant:** every slot is `flat_rest` between
    /// kernel calls — the word-at-a-time drain restores it as it
    /// consumes entries, so no per-call clear is needed.
    pub flat: Vec<T>,
    /// The zero the slots of `flat` rest at. The pool is keyed by value
    /// type, not by semiring, so the next lease may bring another zero.
    flat_rest: Option<T>,
    /// Occupancy / mask bitmap, one bit per column, operated on a word
    /// at a time. **Invariant:** all-zero between kernel calls (checked
    /// in debug builds at lease time).
    pub words: Vec<u64>,
}

impl<T> Default for MxmScratch<T> {
    fn default() -> Self {
        MxmScratch {
            dense: Vec::new(),
            touched: Vec::new(),
            hash: HashMap::new(),
            flat: Vec::new(),
            flat_rest: None,
            words: Vec::new(),
        }
    }
}

impl<T: Clone + PartialEq> MxmScratch<T> {
    /// Grow the dense accumulator to at least `width` slots (never
    /// shrinks — capacity is the point of pooling).
    pub fn ensure_dense_width(&mut self, width: usize) {
        if self.dense.len() < width {
            self.dense.resize(width, None);
        }
    }

    /// Current heap footprint of the dense accumulator, in slots.
    pub fn dense_capacity(&self) -> usize {
        self.dense.len()
    }

    /// Grow the flat accumulator to at least `width` slots resting at
    /// `zero`. Slots left resting at a different semiring's zero (`0.0`
    /// after `PlusTimes<f64>`, `+∞` wanted by a min-⊕ semiring) are
    /// refilled; otherwise only new slots are written.
    pub fn ensure_flat_width(&mut self, width: usize, zero: T) {
        if self.flat_rest.as_ref() != Some(&zero) {
            self.flat.clear();
            self.flat_rest = Some(zero.clone());
        }
        if self.flat.len() < width {
            self.flat.resize(width, zero);
        }
    }

    /// Current heap footprint of the flat accumulator, in slots.
    pub fn flat_capacity(&self) -> usize {
        self.flat.len()
    }

    /// Grow the bitmap to at least `nwords` zeroed words.
    pub fn ensure_words(&mut self, nwords: usize) {
        if self.words.len() < nwords {
            self.words.resize(nwords, 0);
        }
    }
}

/// Type-erased pools of [`MxmScratch`] buffers, keyed by value type.
#[derive(Debug, Default)]
struct Workspace {
    pools: HashMap<TypeId, Vec<Box<dyn Any + Send>>>,
}

/// A leased [`MxmScratch`], returned to the context's pool on drop.
pub struct ScratchLease<'a, T: Value> {
    ctx: &'a OpCtx,
    scratch: Option<MxmScratch<T>>,
}

impl<T: Value> ScratchLease<'_, T> {
    /// The leased scratch buffers.
    pub fn get(&mut self) -> &mut MxmScratch<T> {
        self.scratch.as_mut().expect("present until drop")
    }
}

impl<T: Value> Drop for ScratchLease<'_, T> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            let mut ws = self.ctx.workspace.lock().expect("workspace mutex");
            ws.pools
                .entry(TypeId::of::<MxmScratch<T>>())
                .or_default()
                .push(Box::new(scratch));
        }
    }
}

/// Execution context: workspace arena + parallelism control + metrics.
///
/// See the [module docs](self) for the design; see
/// [`crate::ops::mxm_ctx`] for the canonical kernel entry point.
#[derive(Debug, Default)]
pub struct OpCtx {
    /// Requested thread cap; `0` means "auto" (available parallelism).
    threads: AtomicUsize,
    workspace: Mutex<Workspace>,
    metrics: MetricsRegistry,
    trace: TraceRegistry,
}

impl OpCtx {
    /// A fresh context: auto parallelism, empty workspace, zero counters.
    pub fn new() -> Self {
        OpCtx::default()
    }

    /// Builder-style thread cap (`0` = auto). See [`OpCtx::set_threads`].
    pub fn with_threads(self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// Cap kernel parallelism: `1` forces sequential execution, `n` uses
    /// at most `n` OS threads, `0` restores auto (machine parallelism).
    /// Takes `&self` so a cap can be adjusted mid-flight on a shared
    /// context.
    pub fn set_threads(&self, threads: usize) {
        self.threads.store(threads, Ordering::Relaxed);
    }

    /// The resolved thread count (≥ 1) kernels will use right now.
    pub fn threads(&self) -> usize {
        match self.threads.load(Ordering::Relaxed) {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// The context's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The context's span registry ([`crate::trace`]): disabled by
    /// default; switch on with `ctx.trace().set_mode(TraceMode::Full)`.
    pub fn trace(&self) -> &TraceRegistry {
        &self.trace
    }

    /// Open a span named after `kernel`. Every `*_ctx` kernel calls this
    /// on entry; `detail` (operand shapes) is evaluated only when
    /// tracing is enabled, so the disabled-mode cost is one atomic load.
    #[inline]
    pub fn kernel_span(&self, kernel: Kernel, detail: impl FnOnce() -> String) -> Span<'_> {
        self.trace.span(kernel.name(), detail)
    }

    /// Zero every metrics counter (workspace contents are kept).
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }

    /// Lease SpGEMM scratch for value type `T` from the arena. The lease
    /// returns the (possibly grown) buffers to the pool on drop; a pool
    /// hit costs one mutex lock and zero allocations.
    pub fn lease_mxm_scratch<T: Value>(&self) -> ScratchLease<'_, T> {
        let mut ws = self.workspace.lock().expect("workspace mutex");
        let scratch = ws
            .pools
            .get_mut(&TypeId::of::<MxmScratch<T>>())
            .and_then(|pool| pool.pop())
            .map(|boxed| {
                *boxed
                    .downcast::<MxmScratch<T>>()
                    .expect("pool keyed by type")
            });
        drop(ws);
        match scratch {
            Some(mut scratch) => {
                self.metrics.record_ws_hit();
                scratch.touched.clear();
                scratch.hash.clear();
                debug_assert!(
                    scratch.words.iter().all(|&w| w == 0),
                    "bitmap scratch returned dirty"
                );
                ScratchLease {
                    ctx: self,
                    scratch: Some(scratch),
                }
            }
            None => {
                self.metrics.record_ws_miss();
                ScratchLease {
                    ctx: self,
                    scratch: Some(MxmScratch::default()),
                }
            }
        }
    }

    /// Number of scratch buffers currently parked in the arena (all
    /// value types). Diagnostic; used by the reuse tests.
    pub fn pooled_buffers(&self) -> usize {
        let ws = self.workspace.lock().expect("workspace mutex");
        ws.pools.values().map(|p| p.len()).sum()
    }

    /// Drop every pooled scratch buffer (e.g. after a one-off huge
    /// multiply whose dense accumulator should not stay resident).
    pub fn trim_workspace(&self) {
        let mut ws = self.workspace.lock().expect("workspace mutex");
        ws.pools.clear();
    }
}

thread_local! {
    static DEFAULT_CTX: OpCtx = OpCtx::new();
}

/// Run `f` against this thread's default context — the context behind
/// every bare (ctx-free) name. The default context persists for the
/// thread's lifetime, so those callers get workspace reuse too; its
/// metrics accumulate across all bare calls on the thread.
pub fn with_default_ctx<R>(f: impl FnOnce(&OpCtx) -> R) -> R {
    DEFAULT_CTX.with(f)
}

/// Merge-path row sharding: split `rows` work items into at most
/// `target` contiguous shards whose *weights* (per-row nnz plus one, so
/// empty-weight rows still advance the path) are as equal as the
/// row-granular snapping allows.
///
/// This is the merge-path decomposition of the `(rows, nnz)` merge
/// curve: shard boundaries sit where the cumulative path length
/// `Σ (wᵢ + 1)` crosses successive `total/target` diagonals, so a
/// single pathological RMAT row ends its shard instead of serializing a
/// fixed span of neighbours behind it.
///
/// Determinism: boundaries depend only on `(rows, target, weights)` —
/// never on scheduling — and every output row is computed wholly inside
/// one shard, so any boundary choice yields bit-identical results after
/// the in-order concat (DESIGN.md §13).
pub(crate) fn plan_weighted_shards(
    rows: usize,
    target: usize,
    weight: impl Fn(usize) -> u64,
) -> Vec<(usize, usize)> {
    if rows == 0 {
        return Vec::new();
    }
    let target = target.clamp(1, rows) as u128;
    if target == 1 {
        return vec![(0, rows)];
    }
    let total: u128 = (0..rows).map(|k| u128::from(weight(k)) + 1).sum();
    let mut shards = Vec::with_capacity(target as usize);
    let mut start = 0usize;
    let mut acc: u128 = 0;
    let mut boundary: u128 = 1;
    for k in 0..rows {
        acc += u128::from(weight(k)) + 1;
        while boundary < target && acc * target >= boundary * total {
            if k + 1 > start && k + 1 < rows {
                shards.push((start, k + 1));
                start = k + 1;
            }
            boundary += 1;
        }
    }
    shards.push((start, rows));
    shards
}

/// Deterministic fan-out: run `jobs` closures on up to `threads` OS
/// threads and return their results **in job order** regardless of
/// completion order. Jobs are claimed from a shared atomic counter, so
/// skewed job costs balance; determinism comes from indexing results by
/// job id, never from scheduling.
pub(crate) fn par_run<R, F>(threads: usize, jobs: usize, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.min(jobs).max(1);
    if threads == 1 {
        return (0..jobs).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..jobs).map(|_| None).collect();
    let slots = Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= jobs {
                    break;
                }
                let out = job(idx);
                let mut guard = slots.lock().expect("result mutex");
                guard[idx] = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cap_resolution() {
        let ctx = OpCtx::new().with_threads(3);
        assert_eq!(ctx.threads(), 3);
        ctx.set_threads(1);
        assert_eq!(ctx.threads(), 1);
        ctx.set_threads(0);
        assert!(ctx.threads() >= 1);
    }

    #[test]
    fn scratch_lease_pools_and_reuses() {
        let ctx = OpCtx::new();
        {
            let mut lease = ctx.lease_mxm_scratch::<f64>();
            lease.get().ensure_dense_width(1024);
            lease.get().touched.push(7);
            lease.get().hash.insert(3, 1.5);
        }
        assert_eq!(ctx.pooled_buffers(), 1);
        {
            let mut lease = ctx.lease_mxm_scratch::<f64>();
            // Reused: capacity survives, per-call state is clean.
            assert_eq!(lease.get().dense_capacity(), 1024);
            assert!(lease.get().touched.is_empty());
            assert!(lease.get().hash.is_empty());
        }
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.workspace_misses, 1);
        assert_eq!(snap.workspace_hits, 1);
    }

    #[test]
    fn scratch_pools_are_per_type() {
        let ctx = OpCtx::new();
        drop(ctx.lease_mxm_scratch::<f64>());
        {
            let mut lease = ctx.lease_mxm_scratch::<bool>();
            assert_eq!(lease.get().dense_capacity(), 0);
        }
        assert_eq!(ctx.pooled_buffers(), 2);
        assert_eq!(ctx.metrics().snapshot().workspace_misses, 2);
        ctx.trim_workspace();
        assert_eq!(ctx.pooled_buffers(), 0);
    }

    #[test]
    fn par_run_is_deterministic_and_ordered() {
        let sequential = par_run(1, 64, |i| i * i);
        for threads in [2, 3, 8] {
            assert_eq!(par_run(threads, 64, |i| i * i), sequential);
        }
        assert_eq!(par_run(4, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn flat_scratch_pools_like_dense() {
        let ctx = OpCtx::new();
        {
            let mut lease = ctx.lease_mxm_scratch::<f64>();
            lease.get().ensure_flat_width(256, 0.0);
            lease.get().ensure_words(4);
        }
        {
            let mut lease = ctx.lease_mxm_scratch::<f64>();
            assert_eq!(lease.get().flat_capacity(), 256);
            assert_eq!(lease.get().words.len(), 4);
            assert!(lease.get().flat.iter().all(|&v| v == 0.0));
            // A lease under a semiring with another zero reseeds.
            lease.get().ensure_flat_width(8, f64::INFINITY);
            assert!(lease.get().flat.iter().all(|&v| v == f64::INFINITY));
            assert_eq!(lease.get().flat_capacity(), 8);
        }
    }

    #[test]
    fn weighted_shards_cover_and_balance() {
        // Skewed: one huge row then uniform tail.
        let w = |k: usize| if k == 0 { 1000 } else { 1 };
        let shards = plan_weighted_shards(100, 4, w);
        assert!(shards.len() <= 4);
        assert_eq!(shards[0].0, 0);
        assert_eq!(shards.last().unwrap().1, 100);
        for win in shards.windows(2) {
            assert_eq!(win[0].1, win[1].0, "shards must be contiguous");
        }
        assert!(shards.iter().all(|&(lo, hi)| lo < hi));
        // The heavy row gets a shard of its own (or nearly): the first
        // shard must not also swallow most of the tail.
        assert!(shards[0].1 <= 2, "heavy row should terminate its shard");
        // Deterministic.
        assert_eq!(shards, plan_weighted_shards(100, 4, w));
    }

    #[test]
    fn weighted_shards_edge_cases() {
        assert!(plan_weighted_shards(0, 4, |_| 1).is_empty());
        assert_eq!(plan_weighted_shards(5, 1, |_| 1), vec![(0, 5)]);
        assert_eq!(plan_weighted_shards(3, 10, |_| 0).len(), 3);
        // All-zero weights still make progress via the +1 path term.
        let shards = plan_weighted_shards(64, 8, |_| 0);
        assert_eq!(shards.last().unwrap().1, 64);
        assert_eq!(shards.len(), 8);
    }

    #[test]
    fn default_ctx_persists_per_thread() {
        let before = with_default_ctx(|c| c.metrics().snapshot().workspace_misses);
        with_default_ctx(|c| drop(c.lease_mxm_scratch::<u32>()));
        with_default_ctx(|c| drop(c.lease_mxm_scratch::<u32>()));
        let after = with_default_ctx(|c| c.metrics().snapshot());
        assert_eq!(after.workspace_misses, before + 1, "second lease pooled");
        assert!(after.workspace_hits >= 1);
    }
}
