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
//! * a **thread cap** (`1` sequential, `n`, or auto: the machine's
//!   parallelism, read once when the context is made) and **one thread
//!   rule**, SuiteSparse's: a call that will touch `work` entries runs
//!   on `min(cap, work / CHUNK)` threads, at least one. Row-sharded
//!   kernels fan out through `par_rows` (one range at one thread,
//!   merge-path weighted shards otherwise), counting `fan_out=one|many`
//!   ([`Decision`]); results are bit-for-bit identical at every cap;
//! * the **metrics registry** ([`crate::metrics`]) and **span
//!   registry** ([`crate::trace`]) every kernel reports into, through
//!   one [`KernelRun`] per call: [`OpCtx::kernel`] opens it, and
//!   [`KernelRun::done`] hands one measured time to the kernel's row,
//!   its latency histogram and its span.
//!
//! Kernels take `&OpCtx`; the context is [`Sync`], so one context can
//! serve parallel shards (scratch leases go through a mutex that is
//! touched once per shard, not per row). The bare conveniences on
//! [`crate::SparseVec`] and in the upper crates run
//! on a **thread-local default context** ([`with_default_ctx`]), so
//! their callers get workspace reuse too.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use semiring::traits::Value;

use crate::dcsr::Dcsr;
use crate::index::IndexType;
use crate::metrics::{Decision, Kernel, MetricsRegistry};
use crate::trace::{Span, TraceRegistry};
use crate::Ix;

/// Work (entries swept, or a product's ⊗ count) a call must carry per
/// thread it starts: a two-thread scope's cost (58.7 µs) over the since
/// deleted dense pull's 3.66 ns per entry, on a 2-core host (EXPERIMENTS.md).
const CHUNK: u64 = 1 << 14;

/// Weighted shards per thread: oversubscribe the merge-path plan so the
/// atomic job queue can still balance residual skew between shards.
const TASKS_PER_THREAD: usize = 4;

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
    /// Occupancy bitmap, one bit per column, operated on a word at a
    /// time. **Invariant:** all-zero between kernel calls (checked in
    /// debug builds at lease time), as are the mask scatter `slots`.
    pub words: Vec<u64>,
    pub(crate) slots: Vec<u32>,
    /// Compaction buffers of a flat row drained by one scan of its span
    /// (DESIGN.md §13): every slot's column and value are written, and
    /// the write position advances by whether it is kept. Grown to the
    /// widest span scanned; their contents mean nothing between rows.
    pub(crate) scan_cols: Vec<u32>,
    pub(crate) scan_vals: Vec<T>,
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
            slots: Vec::new(),
            scan_cols: Vec::new(),
            scan_vals: Vec::new(),
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

/// Type-erased pools of [`MxmScratch`] buffers, keyed by value type,
/// plus the position index of [`OpCtx::with_row_index`] (all-zero while
/// parked).
#[derive(Debug, Default)]
struct Workspace {
    pools: HashMap<TypeId, Vec<Box<dyn Any + Send>>>,
    row_index: Vec<u32>,
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

/// Execution context: workspace arena + parallelism control + metrics
/// and spans.
///
/// See the [module docs](self) for the design; see
/// [`crate::ops::mxm_ctx`] for the canonical kernel entry point.
#[derive(Debug)]
pub struct OpCtx {
    /// The resolved thread cap (≥ 1).
    threads: AtomicUsize,
    workspace: Mutex<Workspace>,
    metrics: MetricsRegistry,
    trace: TraceRegistry,
}

impl Default for OpCtx {
    fn default() -> Self {
        OpCtx {
            threads: AtomicUsize::new(resolve(0)),
            workspace: Mutex::default(),
            metrics: MetricsRegistry::default(),
            trace: TraceRegistry::default(),
        }
    }
}

/// A thread cap, `0` resolved to the machine's available parallelism: a
/// call that re-reads the CPU affinity and the cgroup quota (~20 µs),
/// so a context makes it only when it is made or set to auto.
fn resolve(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
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
    /// at most `n` OS threads, `0` restores auto (the machine's
    /// parallelism, read now). Takes `&self` so a cap can be adjusted
    /// mid-flight on a shared context.
    pub fn set_threads(&self, threads: usize) {
        self.threads.store(resolve(threads), Ordering::Relaxed);
    }

    /// The resolved thread cap (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed)
    }

    /// The thread rule: a call that will touch `work` entries pays for
    /// `work / CHUNK` threads and gets that many up to the cap, at least 1.
    pub(crate) fn threads_for(&self, work: u64) -> usize {
        let paid = usize::try_from(work / CHUNK).unwrap_or(usize::MAX);
        self.threads().min(paid).max(1)
    }

    /// The least work at which the rule gives the whole cap (`0` at a cap
    /// of one), where a caller whose estimate is a walk can stop counting.
    pub(crate) fn work_to_fill(&self) -> u64 {
        let t = self.threads() as u64;
        u64::from(t > 1) * t * CHUNK
    }

    /// Run `job` over `a`'s stored rows for a call that will touch `work`
    /// entries, results in row order: one range at one thread, else
    /// merge-path shards weighted by row length ([`plan_weighted_shards`]).
    /// Counts the rule's outcome, `fan_out=one|many`. Rows never split,
    /// so the concatenated results are the same bits at any cap.
    pub(crate) fn par_rows<T: Value, I: IndexType, R: Send>(
        &self,
        work: u64,
        a: &Dcsr<T, I>,
        job: impl Fn(Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        let rows = a.n_nonempty_rows();
        let threads = self.threads_for(work).min(rows.max(1));
        let shards = match threads {
            1 => vec![(0, rows)],
            t => plan_weighted_shards(rows, t * TASKS_PER_THREAD, |k| a.row_len_at(k) as u64),
        };
        let many = usize::from(threads.min(shards.len()) > 1);
        let d = [Decision::FanOutOne, Decision::FanOutMany][many];
        self.metrics.record_decision(d, 1);
        par_run(threads, shards.len(), |k| job(shards[k].0..shards[k].1))
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

    /// Start one metered call of `kernel`: every kernel opens
    /// its run on entry and hands it its counts with
    /// [`KernelRun::done`]. `detail` (operand shapes) is evaluated only
    /// when tracing is enabled, so the disabled-mode cost of the span is
    /// one atomic load.
    #[inline]
    pub fn kernel(&self, kernel: Kernel, detail: impl FnOnce() -> String) -> KernelRun<'_> {
        let mut span = self.trace.open(kernel.name(), detail);
        span.start = Instant::now();
        KernelRun {
            ctx: self,
            kernel,
            span,
        }
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
                    scratch.words.iter().all(|&w| w == 0) && scratch.slots.iter().all(|&t| t == 0),
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

    /// Lend `f` the pooled position index over a `len`-wide id space:
    /// `pos[ids[q]] = q + 1` for each of the (distinct, `< len`) `ids`,
    /// `0` everywhere else — B's stored rows for SpGEMM, a frontier's
    /// entries for the vxm pull. Out of the arena for the call; walking
    /// `ids` again puts it back at rest (all `0`).
    pub(crate) fn with_row_index<R>(
        &self,
        len: usize,
        ids: impl Iterator<Item = usize> + Clone,
        f: impl FnOnce(&[u32]) -> R,
    ) -> R {
        let ws = || self.workspace.lock().expect("workspace mutex");
        let mut index = std::mem::take(&mut ws().row_index);
        if index.len() < len {
            index = vec![0; len];
        }
        for (q, i) in ids.clone().enumerate() {
            index[i] = q as u32 + 1;
        }
        let out = f(&index);
        for i in ids {
            index[i] = 0;
        }
        ws().row_index = index;
        out
    }

    /// Number of scratch buffers currently parked in the arena (all
    /// value types). Diagnostic; used by the reuse tests.
    pub fn pooled_buffers(&self) -> usize {
        let ws = self.workspace.lock().expect("workspace mutex");
        ws.pools.values().map(|p| p.len()).sum()
    }
}

/// One metered kernel call, opened by [`OpCtx::kernel`]: its span and
/// its clock. The clock is read once at each end, and
/// [`KernelRun::done`] hands the one elapsed time to the kernel's
/// [`MetricsRegistry`] row, its latency histogram and its span, so the
/// three cannot disagree on name or time. A run dropped without `done`
/// (a kernel that panicked) records no row; its span closes on drop.
#[must_use = "a kernel run records nothing until `done`"]
pub struct KernelRun<'a> {
    ctx: &'a OpCtx,
    kernel: Kernel,
    span: Span<'a>,
}

impl KernelRun<'_> {
    /// Close the run: one completed call with its input and output nnz,
    /// its flops and `bytes`, the heap footprint of operands plus result
    /// (see [`crate::metrics::KernelStats::record`]).
    pub fn done(self, nnz_in: u64, nnz_out: u64, flops: u64, bytes: u64) {
        let elapsed = self.span.start.elapsed();
        self.ctx
            .metrics()
            .record(self.kernel, elapsed, nnz_in, nnz_out, flops, bytes);
        self.span.close(elapsed);
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
fn plan_weighted_shards(
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
fn par_run<R, F>(threads: usize, jobs: usize, job: F) -> Vec<R>
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
    fn thread_rule_pays_a_thread_per_chunk_up_to_the_cap() {
        let ctx = OpCtx::new().with_threads(4);
        assert_eq!(ctx.threads_for(0), 1);
        assert_eq!(ctx.threads_for(CHUNK - 1), 1);
        assert_eq!(ctx.threads_for(2 * CHUNK), 2);
        assert_eq!(ctx.threads_for(u64::MAX), 4, "never above the cap");
        assert_eq!(ctx.threads_for(ctx.work_to_fill()), 4);
        assert_eq!(ctx.threads_for(ctx.work_to_fill() - 1), 3);
        // Below one chunk: one range, recorded as `fan_out=one`.
        let s = semiring::PlusTimes::<f64>::new();
        let a = crate::gen::random_dcsr(5000, 5000, 20_000, 1, s);
        let rows = a.n_nonempty_rows();
        assert_eq!(ctx.par_rows(CHUNK - 1, &a, |r| r), vec![0..rows]);
        // Two chunks: two threads, contiguous shards covering every row.
        let ranges = ctx.par_rows(2 * CHUNK, &a, |r| r);
        assert!(ranges.len() > 1 && ranges.len() <= 2 * TASKS_PER_THREAD);
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        assert_eq!((ranges[0].start, ranges.last().unwrap().end), (0, rows));
        // No rows: still one (empty) range for the caller to assemble.
        let empty = Dcsr::<f64>::empty(8, 8);
        assert_eq!(ctx.par_rows(u64::MAX, &empty, |r| r), vec![0..0]);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.decision(Decision::FanOutOne), 2);
        assert_eq!(snap.decision(Decision::FanOutMany), 1);
        // A cap of one never fans out, whatever the work.
        ctx.set_threads(1);
        assert_eq!(ctx.work_to_fill(), 0);
        assert_eq!(ctx.par_rows(u64::MAX, &a, |r| r), vec![0..rows]);
        assert_eq!(ctx.metrics().snapshot().decision(Decision::FanOutOne), 3);
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
