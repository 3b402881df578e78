//! Hierarchical hypersparse streaming inserts.
//!
//! The paper's introduction cites "75,000,000,000 streaming
//! inserts/second using hierarchical hypersparse GraphBLAS matrices"
//! (Kepner et al., IPDPSW GrAPL 2020): instead of updating one big sparse
//! matrix per event (an `O(nnz)` rebuild each time), inserts land in a
//! small unsorted buffer, and a *hierarchy* of increasingly large
//! compressed layers absorbs overflow — an LSM-tree over associative
//! array algebra, where the merge operation is exactly element-wise ⊕.
//!
//! [`StreamingMatrix`] reproduces that design: `O(1)` amortized `insert`,
//! layered ⊕-merges on overflow, and a `snapshot` that folds the whole
//! hierarchy. Correctness is asserted against a single flat build in the
//! tests; the insert-rate advantage over per-event rebuilds is what the
//! cited paper measures.
//!
//! # Delta snapshots
//!
//! The hierarchy doubles as an *incremental-view* substrate. A snapshot
//! watermark splits it in two: the **live** levels hold exactly the
//! entries inserted since the watermark, while a parallel **sealed**
//! hierarchy holds everything before it. [`StreamingMatrix::delta_snapshot`]
//! folds the live levels into `Δ(t)`, advances the watermark (cascading
//! `Δ(t)` into the sealed hierarchy with the same geometric cap
//! discipline), and returns `Δ(t)` — so `full(t) = full(t−1) ⊕ Δ(t)` by
//! construction, which is what standing queries ⊕-fold to stay current
//! in `O(Δ)` instead of recomputing per epoch.

use std::sync::Arc;

use semiring::traits::Semiring;

use crate::coo::fold_entries;
use crate::ctx::{with_default_ctx, OpCtx};
use crate::dcsr::Dcsr;
use crate::metrics::Kernel;
use crate::ops::ewise_add_ctx;
use crate::radix::SortScratch;
use crate::Ix;

/// Tunable hierarchy parameters for a [`StreamingMatrix`].
///
/// `buffer_cap` is the floor of the flush threshold, which trades
/// ingest rate against cut latency. A flush sorts the buffer in place
/// and ⊕-merges it down the hierarchy, so a larger buffer means fewer,
/// larger merges — but whatever is still buffered when a snapshot,
/// delta or rotate marker arrives is sorted on that marker's clock. So
/// the threshold follows the window
/// ([`StreamingMatrix::flush_threshold`]): a marker sorts at most a
/// quarter window, about half the work of the fold it runs anyway. The
/// threshold is not a reservation: buffer and sort scratch grow with
/// use. `growth` sets how many flushes a level absorbs before it
/// cascades.
///
/// The defaults (4 096, 8) come from the sweeps in EXPERIMENTS.md, "The
/// ingest floor" and "The buffer follows the window".
/// Their ceiling, `level_cap(0)` = 32 768, is the largest buffer whose
/// sort working set (72 B per buffered event) stays inside a 4 MiB L2;
/// large windows reach it without raising `buffer_cap`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    /// Capacity of the level-0 insert buffer (events held unsorted
    /// before compaction). Must be ≥ 1.
    pub buffer_cap: usize,
    /// Growth factor between hierarchy levels: level `k` holds up to
    /// `buffer_cap · growth^(k+1)` entries before cascading into level
    /// `k+1`. Must be ≥ 2.
    pub growth: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            buffer_cap: 4096,
            growth: 8,
        }
    }
}

impl StreamConfig {
    /// The default configuration (buffer 4096, growth 8).
    pub fn new() -> Self {
        StreamConfig::default()
    }

    /// Builder-style level-0 buffer capacity.
    pub fn with_buffer_cap(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "buffer_cap must be ≥ 1");
        self.buffer_cap = cap;
        self
    }

    /// Builder-style inter-level growth factor.
    pub fn with_growth(mut self, growth: usize) -> Self {
        assert!(growth >= 2, "growth must be ≥ 2");
        self.growth = growth;
        self
    }

    /// Level capacity for hierarchy level `k`:
    /// `buffer_cap · growth^(k+1)`, saturating.
    pub fn level_cap(&self, k: usize) -> usize {
        let pow = (self.growth as u128).saturating_pow(k as u32 + 1);
        (self.buffer_cap as u128)
            .saturating_mul(pow)
            .min(usize::MAX as u128) as usize
    }
}

/// An append-optimized hypersparse matrix: an unsorted insert buffer over
/// a hierarchy of ⊕-merged [`Dcsr`] layers.
#[derive(Clone, Debug)]
pub struct StreamingMatrix<S: Semiring> {
    nrows: Ix,
    ncols: Ix,
    s: S,
    config: StreamConfig,
    buffer: Vec<(Ix, Ix, S::Value)>,
    /// See [`StreamingMatrix::flush_threshold`].
    flush_at: usize,
    /// The flush sort's record buffers, kept so a flush allocates only
    /// its output. Like `buffer` they grow with use, up to `flush_at`.
    scratch: SortScratch,
    levels: Vec<Option<Dcsr<S::Value>>>,
    /// Pre-watermark hierarchy: entries already returned by a
    /// `delta_snapshot`, kept out of the live levels so the next delta
    /// is derivable without subtraction (which ⊕ doesn't have).
    sealed: Vec<Option<Dcsr<S::Value>>>,
    inserted: u64,
    /// Value of `inserted` when the watermark last advanced.
    watermark: u64,
    /// Value of `inserted` when the window opened (construction, restore
    /// or the last `reset`).
    window_start: u64,
    ctx: Option<Arc<OpCtx>>,
}

impl<S: Semiring> StreamingMatrix<S> {
    /// An empty streaming matrix over an `nrows × ncols` key space with
    /// the default hierarchy parameters.
    pub fn new(nrows: Ix, ncols: Ix, s: S) -> Self {
        StreamingMatrix::with_config(nrows, ncols, s, StreamConfig::default())
    }

    /// An empty streaming matrix with explicit hierarchy parameters.
    pub fn with_config(nrows: Ix, ncols: Ix, s: S, config: StreamConfig) -> Self {
        assert!(config.buffer_cap >= 1, "buffer_cap must be ≥ 1");
        assert!(config.growth >= 2, "growth must be ≥ 2");
        StreamingMatrix {
            nrows,
            ncols,
            s,
            config,
            buffer: Vec::new(),
            flush_at: config.buffer_cap,
            scratch: SortScratch::default(),
            levels: Vec::new(),
            sealed: Vec::new(),
            inserted: 0,
            watermark: 0,
            window_start: 0,
            ctx: None,
        }
    }

    /// Rebuild a stream from serialized state: the compressed hierarchy
    /// layers (level `k` at `levels[k]`, `None` for empty slots) plus the
    /// lifetime insert counter. The insert buffer starts empty — callers
    /// persisting a stream flush it first ([`StreamingMatrix::flush`]).
    /// This is the restore half of checkpointing: a stream rebuilt from
    /// its own [`StreamingMatrix::level_slots`] is observationally
    /// identical to the original, including future cascade behaviour up
    /// to its first rotation: the restored window is measured from the
    /// restore, so it flushes at `buffer_cap` until then. That moves
    /// only how events are grouped into ⊕-merges, which under an exact
    /// ⊕ (integer counts, min, max) cannot change a value's bits.
    ///
    /// Panics if a layer's dimensions disagree with the key space.
    pub fn from_levels(
        nrows: Ix,
        ncols: Ix,
        s: S,
        config: StreamConfig,
        levels: Vec<Option<Dcsr<S::Value>>>,
        inserted: u64,
    ) -> Self {
        for level in levels.iter().flatten() {
            assert_eq!(
                (level.nrows(), level.ncols()),
                (nrows, ncols),
                "hierarchy layer dimensions disagree with the key space"
            );
        }
        let mut stream = StreamingMatrix::with_config(nrows, ncols, s, config);
        stream.levels = levels;
        stream.inserted = inserted;
        // Restored streams start with an empty sealed hierarchy: the
        // first post-restore delta covers everything, so standing views
        // rebuild from a full snapshot rather than a bogus partial Δ.
        stream.watermark = inserted;
        stream.window_start = inserted;
        stream
    }

    /// Route every internal ⊕-merge (cascades and snapshots) through the
    /// given execution context, so its metrics observe the stream's merge
    /// traffic and its workspace arena is reused across cascades.
    pub fn with_ctx(mut self, ctx: Arc<OpCtx>) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// The execution context merges run under, if one was attached.
    pub fn ctx(&self) -> Option<&Arc<OpCtx>> {
        self.ctx.as_ref()
    }

    /// The hierarchy parameters this stream runs with.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// Run `f` on the attached context, or on the thread-local default
    /// when none is attached.
    fn on_ctx<R>(&self, f: impl FnOnce(&OpCtx) -> R) -> R {
        match &self.ctx {
            Some(ctx) => f(ctx),
            None => with_default_ctx(f),
        }
    }

    /// ⊕-merge two layers, recording the merge as
    /// [`Kernel::StreamMerge`] traffic on top of the underlying ewise
    /// kernel's own row (flops = combiner applications, i.e. the key
    /// overlap the merge collapsed).
    fn merge(&self, a: &Dcsr<S::Value>, b: &Dcsr<S::Value>) -> Dcsr<S::Value> {
        self.on_ctx(|ctx| {
            let run = ctx.kernel(Kernel::StreamMerge, || {
                format!("{}+{} nnz layers", a.nnz(), b.nnz())
            });
            let out = ewise_add_ctx(ctx, a, b, self.s);
            let (nnz_in, nnz_out) = ((a.nnz() + b.nnz()) as u64, out.nnz() as u64);
            run.done(nnz_in, nnz_out, nnz_in - nnz_out, out.bytes() as u64);
            out
        })
    }

    /// Append one event. `O(1)` amortized: a buffer push, with an
    /// occasional cascade of geometrically sized ⊕-merges.
    pub fn insert(&mut self, row: Ix, col: Ix, val: S::Value) {
        assert!(row < self.nrows && col < self.ncols, "key outside space");
        self.buffer.push((row, col, val));
        self.inserted += 1;
        if self.buffer.len() >= self.flush_at {
            self.flush_buffer();
        }
    }

    /// Total events inserted (before ⊕-merging).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Row dimension of the key space.
    pub fn nrows(&self) -> Ix {
        self.nrows
    }

    /// Column dimension of the key space.
    pub fn ncols(&self) -> Ix {
        self.ncols
    }

    /// Compact any buffered events into the hierarchy now, leaving the
    /// insert buffer empty. Checkpointing serializes
    /// [`StreamingMatrix::level_slots`], so it flushes first; otherwise
    /// flushing is never required — `snapshot` and `get` already see
    /// buffered events.
    pub fn flush(&mut self) {
        self.flush_buffer();
    }

    /// Number of events currently waiting in the unsorted insert buffer.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Buffered events at which an insert flushes: `buffer_cap` until the
    /// first [`reset`](StreamingMatrix::reset), then a quarter of the
    /// window it closed, clamped to `[buffer_cap, level_cap(0)]` — never
    /// a function of timing, so neither is a float ⊕'s fold order.
    pub fn flush_threshold(&self) -> usize {
        self.flush_at
    }

    /// Drop every stored entry — insert buffer and all hierarchy levels —
    /// returning the stream to empty while keeping its dimensions,
    /// configuration, context, and lifetime [`StreamingMatrix::inserted`]
    /// counter. This is the window-rotation primitive: snapshot the
    /// closing window, then `reset` so subsequent inserts land in a fresh
    /// window without reallocating the stream. The closing window's size
    /// sets the next [`flush_threshold`](StreamingMatrix::flush_threshold).
    pub fn reset(&mut self) {
        let quarter =
            usize::try_from((self.inserted - self.window_start) / 4).unwrap_or(usize::MAX);
        self.flush_at = quarter.clamp(self.config.buffer_cap, self.config.level_cap(0));
        self.window_start = self.inserted;
        self.buffer.clear();
        self.levels.clear();
        self.sealed.clear();
        self.watermark = self.inserted;
    }

    /// The raw hierarchy: slot `k` holds level `k`'s compressed layer, or
    /// `None` while that level is empty. Read-only introspection for
    /// serialization ([`StreamingMatrix::from_levels`] is the inverse);
    /// does **not** include buffered events — call
    /// [`StreamingMatrix::flush`] first for a complete picture.
    pub fn level_slots(&self) -> &[Option<Dcsr<S::Value>>] {
        &self.levels
    }

    /// The sealed (pre-watermark) hierarchy: layers already covered by an
    /// earlier [`StreamingMatrix::delta_snapshot`]. Empty until the first
    /// delta is taken. Checkpointing serializes these alongside
    /// [`StreamingMatrix::level_slots`] so no entries are lost; restore
    /// rebuilds everything as live levels (fresh delta baseline).
    pub fn sealed_slots(&self) -> &[Option<Dcsr<S::Value>>] {
        &self.sealed
    }

    /// Lifetime insert count at the last watermark advance (delta
    /// snapshot, reset, or restore). `inserted() - delta_watermark()`
    /// bounds the nnz of the next delta.
    pub fn delta_watermark(&self) -> u64 {
        self.watermark
    }

    /// Compact the buffer into level 0 and cascade overfull levels.
    fn flush_buffer(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        // Sorted and folded where it lies: `insert` has already checked
        // every key against the space.
        let carry = fold_entries(
            self.nrows,
            self.ncols,
            &mut self.buffer,
            &mut self.scratch,
            self.s,
        );

        let levels = std::mem::take(&mut self.levels);
        self.levels = self.cascade(levels, carry);
    }

    /// ⊕ `carry` into a hierarchy under the geometric cap: a level that
    /// would overflow `level_cap(k)` is left empty and the merged result
    /// moves one level down. `flush_buffer` cascades into the live
    /// levels, `delta_snapshot` into the sealed ones.
    fn cascade(
        &self,
        mut levels: Vec<Option<Dcsr<S::Value>>>,
        mut carry: Dcsr<S::Value>,
    ) -> Vec<Option<Dcsr<S::Value>>> {
        for k in 0.. {
            if levels.len() <= k {
                levels.push(None);
            }
            if let Some(existing) = levels[k].take() {
                carry = self.merge(&existing, &carry);
                if carry.nnz() > self.config.level_cap(k) {
                    continue;
                }
            }
            levels[k] = Some(carry);
            break;
        }
        levels
    }

    /// ⊕-fold `rest` onto `first`, in order. A stored layer holds no
    /// semiring zero, so the first one seeds the fold as it stands —
    /// merging it into an empty matrix would only copy it.
    fn fold_layers<'a>(
        &self,
        first: Option<Dcsr<S::Value>>,
        rest: impl Iterator<Item = &'a Dcsr<S::Value>>,
    ) -> Dcsr<S::Value>
    where
        S::Value: 'a,
    {
        let mut acc = first.unwrap_or_else(|| Dcsr::empty(self.nrows, self.ncols));
        for layer in rest {
            acc = self.merge(&acc, layer);
        }
        acc
    }

    /// Fold the entire hierarchy — live and sealed — into one matrix
    /// (non-destructive; the stream remains usable for further inserts).
    pub fn snapshot(&mut self) -> Dcsr<S::Value> {
        self.flush_buffer();
        let mut layers = self.levels.iter().chain(self.sealed.iter()).flatten();
        let first = layers.next().cloned();
        self.fold_layers(first, layers)
    }

    /// Fold the live levels into one matrix and take them out of the
    /// stream, the first one by move. Recorded as [`Kernel::DeltaFold`].
    fn fold_live(&mut self) -> Dcsr<S::Value> {
        self.flush_buffer();
        let live: Vec<_> = std::mem::take(&mut self.levels)
            .into_iter()
            .flatten()
            .collect();
        let nnz_in = live.iter().map(Dcsr::nnz).sum::<usize>() as u64;
        self.on_ctx(|ctx| {
            let run = ctx.kernel(Kernel::DeltaFold, || {
                format!("{} live layers, {nnz_in} nnz", live.len())
            });
            let mut live = live.into_iter();
            let first = live.next();
            let delta = self.fold_layers(first, live.as_slice().iter());
            let nnz_out = delta.nnz() as u64;
            run.done(nnz_in, nnz_out, nnz_in - nnz_out, delta.bytes() as u64);
            delta
        })
    }

    /// Fold the entries inserted since the previous delta (or since
    /// construction/reset/restore) into one matrix, then advance the
    /// watermark: the live levels are folded into `Δ`, cleared, and `Δ`
    /// is cascaded into the sealed hierarchy under the same geometric
    /// cap discipline — so the invariant `full(t) = full(t−1) ⊕ Δ(t)`
    /// holds by construction for every ⊕ (exactly, when ⊕ on the value
    /// type is exact — e.g. integer counts; up to float associativity
    /// otherwise). Cost is `O(Δ)` amortized, independent of the sealed
    /// volume. Recorded as [`Kernel::DeltaFold`].
    pub fn delta_snapshot(&mut self) -> Dcsr<S::Value> {
        let delta = self.fold_live();
        if delta.nnz() > 0 {
            let sealed = std::mem::take(&mut self.sealed);
            self.sealed = self.cascade(sealed, delta.clone());
        }
        self.watermark = self.inserted;
        delta
    }

    /// Close the window in one step: fold everything stored,
    /// [`reset`](StreamingMatrix::reset) the stream, and return
    /// `(closing, delta)` — the closing window and the entries since the
    /// last watermark. `delta` is `None` when no
    /// [`delta_snapshot`](StreamingMatrix::delta_snapshot) cut this
    /// window: the closing delta then *is* the closing window, folded
    /// once and moved out instead of being cloned, sealed and re-merged.
    pub fn rotate(&mut self) -> (Dcsr<S::Value>, Option<Dcsr<S::Value>>) {
        if self.sealed.iter().all(Option::is_none) {
            let closing = self.fold_live();
            self.reset();
            return (closing, None);
        }
        let delta = self.delta_snapshot();
        let closing = self.snapshot();
        self.reset();
        (closing, Some(delta))
    }

    /// Point lookup across the hierarchy: ⊕-folds every layer's entry
    /// (plus buffered events), so reads see all inserts immediately.
    pub fn get(&self, row: Ix, col: Ix) -> Option<S::Value> {
        let mut acc: Option<S::Value> = None;
        let mut fold = |v: S::Value| {
            acc = Some(match acc.take() {
                None => v,
                Some(a) => self.s.add(a, v),
            });
        };
        for level in self.levels.iter().chain(self.sealed.iter()).flatten() {
            if let Some(v) = level.get(row, col) {
                fold(v.clone());
            }
        }
        for (r, c, v) in &self.buffer {
            if *r == row && *c == col {
                fold(v.clone());
            }
        }
        acc.filter(|v| !self.s.is_zero(v))
    }

    /// Number of hierarchy levels currently materialized (live plus
    /// sealed).
    pub fn depth(&self) -> usize {
        self.levels
            .iter()
            .chain(self.sealed.iter())
            .filter(|l| l.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use semiring::{MinPlus, PlusTimes};

    #[test]
    fn snapshot_equals_flat_build() {
        let s = PlusTimes::<f64>::new();
        let n = 1u64 << 30;
        let mut rng = StdRng::seed_from_u64(1);
        let mut stream = StreamingMatrix::new(n, n, s);
        let mut flat = Coo::new(n, n);
        for _ in 0..20_000 {
            let (r, c) = (rng.gen_range(0..1000), rng.gen_range(0..1000));
            let v = rng.gen::<f64>() + 0.5;
            stream.insert(r, c, v);
            flat.push(r, c, v);
        }
        assert_eq!(stream.snapshot(), flat.build_dcsr(s));
        assert_eq!(stream.inserted(), 20_000);
    }

    #[test]
    fn duplicate_keys_accumulate_with_the_semiring() {
        let s = PlusTimes::<f64>::new();
        let mut stream = StreamingMatrix::new(16, 16, s);
        for _ in 0..3 {
            stream.insert(1, 2, 2.0);
        }
        assert_eq!(stream.get(1, 2), Some(6.0));
        // min-plus stream keeps the minimum observation.
        let sm = MinPlus::<f64>::new();
        let mut stream = StreamingMatrix::new(16, 16, sm);
        stream.insert(0, 0, 5.0);
        stream.insert(0, 0, 2.0);
        stream.insert(0, 0, 7.0);
        assert_eq!(stream.get(0, 0), Some(2.0));
        assert_eq!(stream.snapshot().get(0, 0), Some(&2.0));
    }

    #[test]
    fn reads_see_buffered_inserts_immediately() {
        let s = PlusTimes::<f64>::new();
        let mut stream = StreamingMatrix::new(16, 16, s);
        stream.insert(3, 4, 1.5); // stays in the buffer (< BUFFER_CAP)
        assert_eq!(stream.get(3, 4), Some(1.5));
        assert_eq!(stream.get(4, 3), None);
    }

    #[test]
    fn hierarchy_grows_logarithmically() {
        let s = PlusTimes::<f64>::new();
        let n = 1u64 << 40;
        let mut stream = StreamingMatrix::new(n, n, s);
        let mut rng = StdRng::seed_from_u64(2);
        // Insert far more than one buffer's worth of *distinct* keys.
        for _ in 0..100_000 {
            stream.insert(rng.gen_range(0..n), rng.gen_range(0..n), 1.0);
        }
        let snap = stream.snapshot();
        assert!(snap.nnz() > 99_000); // distinct with high probability
        assert!(
            stream.depth() <= 4,
            "hierarchy too deep: {}",
            stream.depth()
        );
    }

    #[test]
    fn cancellation_to_zero_is_respected() {
        let s = PlusTimes::<f64>::new();
        let mut stream = StreamingMatrix::new(8, 8, s);
        stream.insert(1, 1, 2.0);
        stream.insert(1, 1, -2.0);
        assert_eq!(stream.get(1, 1), None);
        assert_eq!(stream.snapshot().nnz(), 0);
    }

    #[test]
    fn attached_ctx_observes_merge_traffic() {
        let s = PlusTimes::<f64>::new();
        let ctx = Arc::new(OpCtx::new());
        let n = 1u64 << 30;
        let mut stream = StreamingMatrix::new(n, n, s).with_ctx(Arc::clone(&ctx));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..3 * stream.config().buffer_cap {
            stream.insert(rng.gen_range(0..n), rng.gen_range(0..n), 1.0);
        }
        let _ = stream.snapshot();
        let snap = ctx.metrics().snapshot();
        assert!(
            snap.kernel(crate::metrics::Kernel::EwiseAdd).calls > 0,
            "cascade and snapshot merges should be visible in the ctx"
        );
        let sm = snap.kernel(crate::metrics::Kernel::StreamMerge);
        assert!(
            sm.calls > 0 && sm.calls <= snap.kernel(crate::metrics::Kernel::EwiseAdd).calls,
            "every stream merge is also an ewise_add: {sm:?}"
        );
    }

    #[test]
    fn config_controls_cascade_shape() {
        let s = PlusTimes::<f64>::new();
        let cfg = StreamConfig::new().with_buffer_cap(8).with_growth(2);
        assert_eq!(cfg.level_cap(0), 16);
        assert_eq!(cfg.level_cap(2), 64);
        let mut stream = StreamingMatrix::with_config(1 << 30, 1 << 30, s, cfg);
        assert_eq!(stream.config(), cfg);
        // 64 distinct keys through an 8-entry buffer forces cascades that
        // the default config would have absorbed in its level-0 buffer.
        for i in 0..64u64 {
            stream.insert(i, i, 1.0);
        }
        assert!(stream.depth() >= 1, "tiny buffer must have flushed");
        let mut flat = Coo::new(1 << 30, 1 << 30);
        flat.extend((0..64u64).map(|i| (i, i, 1.0)));
        assert_eq!(stream.snapshot(), flat.build_dcsr(s));
    }

    #[test]
    fn flush_and_level_introspection_round_trip() {
        let s = PlusTimes::<f64>::new();
        let cfg = StreamConfig::new().with_buffer_cap(16).with_growth(4);
        let mut stream = StreamingMatrix::with_config(1 << 20, 1 << 20, s, cfg);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            stream.insert(rng.gen_range(0..500), rng.gen_range(0..500), 1.0);
        }
        assert!(stream.buffered() > 0 || stream.depth() > 0);
        stream.flush();
        assert_eq!(stream.buffered(), 0);

        // Rebuild from the exposed levels: observationally identical.
        let levels = stream.level_slots().to_vec();
        let mut rebuilt =
            StreamingMatrix::from_levels(1 << 20, 1 << 20, s, cfg, levels, stream.inserted());
        assert_eq!(rebuilt.inserted(), stream.inserted());
        assert_eq!(rebuilt.depth(), stream.depth());
        assert_eq!(rebuilt.snapshot(), stream.snapshot());
        // Both continue identically after restore.
        rebuilt.insert(3, 3, 2.5);
        stream.insert(3, 3, 2.5);
        assert_eq!(rebuilt.snapshot(), stream.snapshot());
    }

    #[test]
    fn buffer_grows_to_its_cap_instead_of_reserving_it() {
        // The cap is a threshold, not a reservation: a stream that never
        // fills it never pays for it, and `usize::MAX` is a legal cap.
        let s = PlusTimes::<f64>::new();
        let cfg = StreamConfig::new().with_buffer_cap(usize::MAX);
        let mut stream = StreamingMatrix::with_config(1 << 40, 1 << 40, s, cfg);
        assert_eq!(stream.buffer.capacity(), 0);
        for i in 0..100u64 {
            stream.insert(i % 7, i, 1.0);
        }
        assert_eq!(stream.buffered(), 100, "nothing flushed below the cap");
        assert!(stream.buffer.capacity() < 1024);
        assert_eq!(stream.get(3, 3), Some(1.0));
        let snap = stream.snapshot();
        assert_eq!(snap.nnz(), 100);
        assert_eq!(snap.n_nonempty_rows(), 7);
    }

    #[test]
    fn flush_threshold_is_a_clamped_quarter_of_the_last_window() {
        let s = PlusTimes::<u64>::new();
        let cfg = StreamConfig::new().with_buffer_cap(16).with_growth(4);
        let (floor, ceiling) = (cfg.buffer_cap, cfg.level_cap(0));
        let mut stream = StreamingMatrix::with_config(1 << 20, 1 << 20, s, cfg);
        assert_eq!(stream.flush_threshold(), floor);
        // Below the floor, between the bounds, at and above the ceiling,
        // and back down again.
        for n in [0u64, 7, 64, 65, 100, 255, 256, 257, 1000, 40] {
            for i in 0..n {
                stream.insert(i % 97, i % 89, 1);
            }
            stream.rotate();
            let want = (n as usize / 4).clamp(floor, ceiling);
            assert_eq!(stream.flush_threshold(), want, "after a {n}-event window");
        }
        // A delta cut inside the window does not restart its count.
        for i in 0..200u64 {
            stream.insert(i, i, 1);
            if i % 50 == 0 {
                stream.delta_snapshot();
            }
        }
        stream.reset();
        assert_eq!(stream.flush_threshold(), 50);
    }

    #[test]
    fn a_stream_that_never_rotated_flushes_at_buffer_cap() {
        let s = PlusTimes::<u64>::new();
        let cfg = StreamConfig::new().with_buffer_cap(32).with_growth(2);
        let mut stream = StreamingMatrix::with_config(1 << 20, 1 << 20, s, cfg);
        for i in 0..1000u64 {
            stream.insert(i, i % 7, 1);
            assert_eq!(stream.buffered(), (i as usize + 1) % 32, "after insert {i}");
            assert_eq!(stream.flush_threshold(), 32);
        }
        // Snapshots and delta cuts do not move the threshold either.
        stream.snapshot();
        stream.delta_snapshot();
        assert_eq!(stream.flush_threshold(), 32);
        // Nor does a restore: its first window is measured from it.
        stream.flush();
        let levels = stream.level_slots().to_vec();
        let mut restored =
            StreamingMatrix::from_levels(1 << 20, 1 << 20, s, cfg, levels, stream.inserted());
        assert_eq!(restored.flush_threshold(), 32);
        for i in 0..200u64 {
            restored.insert(i, i, 1);
        }
        restored.reset();
        assert_eq!(restored.flush_threshold(), 50);
    }

    #[test]
    #[should_panic(expected = "growth")]
    fn degenerate_growth_rejected() {
        let _ = StreamConfig::new().with_growth(1);
    }

    #[test]
    fn delta_snapshot_returns_only_new_entries() {
        let s = PlusTimes::<u64>::new();
        let mut stream = StreamingMatrix::new(64, 64, s);
        stream.insert(1, 1, 10);
        stream.insert(2, 2, 20);
        let d1 = stream.delta_snapshot();
        assert_eq!(d1.get(1, 1), Some(&10));
        assert_eq!(d1.nnz(), 2);
        assert_eq!(stream.delta_watermark(), 2);

        stream.insert(3, 3, 30);
        let d2 = stream.delta_snapshot();
        assert_eq!(d2.nnz(), 1);
        assert_eq!(d2.get(3, 3), Some(&30));
        assert_eq!(d2.get(1, 1), None, "old entries stay sealed");

        // Quiet period: empty delta, full snapshot still complete.
        assert_eq!(stream.delta_snapshot().nnz(), 0);
        let full = stream.snapshot();
        assert_eq!(full.nnz(), 3);
        assert_eq!(full.get(2, 2), Some(&20));
    }

    #[test]
    fn full_snapshot_is_fold_of_deltas() {
        let s = PlusTimes::<u64>::new();
        let n = 1u64 << 30;
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = StreamConfig::new().with_buffer_cap(32).with_growth(2);
        let mut stream = StreamingMatrix::with_config(n, n, s, cfg);
        let mut folded = Dcsr::empty(n, n);
        for round in 0..10 {
            for _ in 0..(round * 37 + 5) {
                let (r, c) = (rng.gen_range(0..200), rng.gen_range(0..200));
                stream.insert(r, c, rng.gen_range(1..100u64));
            }
            let delta = stream.delta_snapshot();
            folded = ewise_add_ctx(&OpCtx::new(), &folded, &delta, s);
            assert_eq!(stream.snapshot(), folded, "full(t) = fold(⊕, deltas)");
        }
    }

    #[test]
    fn delta_respects_cancellation_and_reset() {
        let s = PlusTimes::<f64>::new();
        let mut stream = StreamingMatrix::new(8, 8, s);
        stream.insert(1, 1, 2.0);
        stream.insert(1, 1, -2.0);
        assert_eq!(stream.delta_snapshot().nnz(), 0);
        stream.insert(2, 2, 1.0);
        let _ = stream.delta_snapshot();
        stream.reset();
        assert_eq!(stream.snapshot().nnz(), 0, "reset clears sealed layers");
        assert_eq!(stream.delta_watermark(), stream.inserted());
        stream.insert(3, 3, 4.0);
        assert_eq!(stream.delta_snapshot().nnz(), 1);
    }

    #[test]
    fn streaming_continues_after_snapshot() {
        let s = PlusTimes::<f64>::new();
        let mut stream = StreamingMatrix::new(8, 8, s);
        stream.insert(0, 0, 1.0);
        let _ = stream.snapshot();
        stream.insert(0, 0, 1.0);
        assert_eq!(stream.get(0, 0), Some(2.0));
        assert_eq!(stream.snapshot().get(0, 0), Some(&2.0));
    }
}
