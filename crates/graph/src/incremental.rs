//! Incrementally maintained graph analytics — `O(Δ)` per epoch.
//!
//! The streaming pipeline publishes per-epoch *delta* snapshots
//! (`full(t) = full(t−1) ⊕ delta(t)`); the states here fold those deltas
//! into standing analytic results instead of rescanning the accumulated
//! window. Each maintains the invariant that its answer equals the
//! from-scratch algorithm on the ⊕-fold of every delta applied so far:
//!
//! * [`DegreeState`] — fan-out/fan-in *pattern* degrees (the
//!   [`crate::netsec`] detector inputs). Degrees count **distinct**
//!   endpoints, so only entries at previously-empty positions ("fresh"
//!   edges) bump a degree; a [`select`](hypersparse::ops::select_ctx)
//!   against the accumulated pattern isolates them and two sparse-vector
//!   ⊕-folds do the rest.
//! * [`TriangleState`] — triangle counts by *delta* masked counts
//!   ([`mxm_masked_count_ctx`], no product built).
//!   Writing `A` for the old symmetric pattern and `D` for the fresh
//!   symmetric delta (`D ∩ A = ∅`), every new triangle has exactly 1, 2,
//!   or 3 fresh edges and is counted exactly once by
//!   `ΔT = Σ((A⊕.⊗A) ⊙ D_L) + Σ((D⊕.⊗D) ⊙ A_L) + Σ((D_L⊕.⊗D_L) ⊙ D_L)`.
//!   Disjointness guarantees no term double-counts: a triangle with one
//!   fresh edge has two old wedge edges (term 1 only), two fresh edges
//!   have one old closing edge (term 2 only), three fresh edges are the
//!   classic Sandia count inside `D` (term 3 only).
//!
//! Both states use exact integer arithmetic (u64 degrees, u64 counts of
//! closed wedges), so results are bit-identical however the deltas were
//! sharded or batched — the determinism contract the pipeline's standing
//! queries rely on. Delta application cost lands in the
//! [`Kernel::DeltaDegree`] and [`Kernel::DeltaTri`] metrics rows
//! (`DeltaTri`'s `flops` are the closed wedges its three counts add); the
//! from-scratch rescans they replace would bill `O(window)` to
//! `reduce_rows`/`mxm_masked` every epoch instead.
//!
//! PageRank does not decompose edge-wise, but power iteration warm-starts
//! from any prior vector — see [`crate::pagerank::pagerank_refresh`] for
//! the `Kernel::PageRankRefresh` path these states pair with.

use std::borrow::Cow;

use hypersparse::ops::{
    col_degrees_ctx, ewise_add_ctx, mxm_masked_count_ctx, row_degrees_ctx, select_ctx,
};
use hypersparse::{with_default_ctx, Dcsr, Ix, Kernel, OpCtx, SparseVec};
use semiring::traits::Value;
use semiring::{MinFirst, PlusTimes, ZeroNorm};

use crate::netsec::flag_degrees;
use crate::pattern::{pattern_f64, symmetrize_ctx};
use crate::triangles::lower_triangle_ctx;

/// Incrementally maintained fan-out/fan-in pattern degrees.
///
/// Equivalent to [`crate::netsec::fan_out`]/[`fan_in`](crate::netsec::fan_in)
/// on the ⊕-fold of every delta applied so far, at `O(Δ)` per epoch.
#[derive(Clone, Debug)]
pub struct DegreeState {
    /// Accumulated sparsity pattern (value 1 at every seen position).
    pat: Dcsr<u64>,
    fan_out: SparseVec<u64>,
    fan_in: SparseVec<u64>,
}

impl DegreeState {
    /// Empty state over an `nrows × ncols` key space.
    pub fn new(nrows: Ix, ncols: Ix) -> Self {
        DegreeState {
            pat: Dcsr::empty(nrows, ncols),
            fan_out: SparseVec::empty(nrows),
            fan_in: SparseVec::empty(ncols),
        }
    }

    /// Fold one epoch's delta into the degree state.
    pub fn apply_delta<T: Value>(&mut self, delta: &Dcsr<T>) {
        with_default_ctx(|ctx| self.apply_delta_ctx(ctx, delta))
    }

    /// [`DegreeState::apply_delta`] through an explicit execution context.
    pub fn apply_delta_ctx<T: Value>(&mut self, ctx: &OpCtx, delta: &Dcsr<T>) {
        self.fold(ctx, delta, true);
    }

    /// Window rotation in one step: what
    /// [`apply_delta_ctx`](Self::apply_delta_ctx) then
    /// [`take_degrees`](Self::take_degrees) return, without building the
    /// pattern `take_degrees` would drop.
    pub fn close_ctx<T: Value>(
        &mut self,
        ctx: &OpCtx,
        delta: &Dcsr<T>,
    ) -> (SparseVec<u64>, SparseVec<u64>) {
        self.fold(ctx, delta, false);
        self.take_degrees()
    }

    /// Add the degrees of `delta`'s fresh positions — those the
    /// accumulated pattern has not seen, the only ones that change a
    /// distinct-endpoint degree — and, with `keep_pattern`, add them to
    /// the pattern. While nothing has been seen (the first delta of
    /// every window) the whole delta is fresh: its degrees become the
    /// state's, with no lookups against an empty pattern.
    fn fold<T: Value>(&mut self, ctx: &OpCtx, delta: &Dcsr<T>, keep_pattern: bool) {
        let run = ctx.kernel(Kernel::DeltaDegree, || {
            format!("{} delta nnz over {} seen", delta.nnz(), self.pat.nnz())
        });
        let fresh = if self.pat.nnz() == 0 {
            self.fan_out = row_degrees_ctx(ctx, delta);
            self.fan_in = col_degrees_ctx(ctx, delta);
            Cow::Borrowed(delta)
        } else {
            let seen = &self.pat;
            let fresh = select_ctx(ctx, delta, move |r, c, _| seen.get(r, c).is_none());
            if fresh.nnz() > 0 {
                let plus = PlusTimes::<u64>::new();
                self.fan_out = self.fan_out.ewise_add(&row_degrees_ctx(ctx, &fresh), plus);
                self.fan_in = self.fan_in.ewise_add(&col_degrees_ctx(ctx, &fresh), plus);
            }
            Cow::Owned(fresh)
        };
        if keep_pattern && fresh.nnz() > 0 {
            let pat = fresh.pattern(1u64);
            self.pat = if self.pat.nnz() == 0 {
                pat
            } else {
                // Disjoint union — MinFirst's ⊕ is never applied.
                ewise_add_ctx(ctx, &self.pat, &pat, MinFirst)
            };
        }
        run.done(
            delta.nnz() as u64,
            fresh.nnz() as u64,
            delta.nnz() as u64,
            fresh.bytes() as u64,
        );
    }

    /// Accumulated pattern (value 1 at every position seen so far).
    pub fn pattern(&self) -> &Dcsr<u64> {
        &self.pat
    }

    /// Fan-out degrees: distinct destinations per source.
    pub fn fan_out(&self) -> &SparseVec<u64> {
        &self.fan_out
    }

    /// Fan-in degrees: distinct sources per destination.
    pub fn fan_in(&self) -> &SparseVec<u64> {
        &self.fan_in
    }

    /// Horizontal-scan detector over the maintained fan-out — same
    /// output, order included, as [`crate::netsec::scan_suspects`] on the
    /// accumulated window.
    pub fn scan_suspects(&self, threshold: u64) -> Vec<(Ix, u64)> {
        flag_degrees(&self.fan_out, threshold)
    }

    /// Fan-in-DDoS detector over the maintained fan-in — same output as
    /// [`crate::netsec::ddos_victims`] on the accumulated window.
    pub fn ddos_victims(&self, threshold: u64) -> Vec<(Ix, u64)> {
        flag_degrees(&self.fan_in, threshold)
    }

    /// Forget everything (window rotation).
    pub fn reset(&mut self) {
        self.take_degrees();
    }

    /// [`reset`](DegreeState::reset), handing back the finished
    /// `(fan_out, fan_in)` vectors instead of dropping them — what a
    /// closed window's detector verdict is read from. The pattern, only
    /// needed to fold further deltas, is dropped.
    pub fn take_degrees(&mut self) -> (SparseVec<u64>, SparseVec<u64>) {
        let done = std::mem::replace(self, DegreeState::new(self.pat.nrows(), self.pat.ncols()));
        (done.fan_out, done.fan_in)
    }
}

/// Incrementally maintained triangle count.
///
/// Equivalent to [`crate::triangles::triangle_count`] of the symmetrized
/// ⊕-fold of every delta applied so far, at `O(Δ·d)` per epoch.
#[derive(Clone, Debug)]
pub struct TriangleState {
    /// Accumulated symmetric pattern `A` (value 1, no self-loops).
    sym: Dcsr<f64>,
    /// Cached strictly-lower triangle `A_L` of `sym`.
    low: Dcsr<f64>,
    count: u64,
}

impl TriangleState {
    /// Empty state over an `n × n` vertex space.
    pub fn new(n: Ix) -> Self {
        TriangleState {
            sym: Dcsr::empty(n, n),
            low: Dcsr::empty(n, n),
            count: 0,
        }
    }

    /// Fold one epoch's delta (a directed edge batch; it is symmetrized
    /// and self-loops are dropped here) into the triangle count.
    pub fn apply_delta<T: Value>(&mut self, delta: &Dcsr<T>) {
        with_default_ctx(|ctx| self.apply_delta_ctx(ctx, delta))
    }

    /// [`TriangleState::apply_delta`] through an explicit execution context.
    pub fn apply_delta_ctx<T: Value>(&mut self, ctx: &OpCtx, delta: &Dcsr<T>) {
        let run = ctx.kernel(Kernel::DeltaTri, || {
            format!("{} delta nnz over {} sym", delta.nnz(), self.sym.nnz())
        });
        let s = PlusTimes::<f64>::new();
        // Normalize the batch to a unit-valued symmetric pattern (the
        // symmetrizing ⊕ can produce 2s where both directions arrived).
        let dsym = symmetrize_ctx(ctx, &pattern_f64(delta), s);
        let dsym = hypersparse::ops::apply_ctx(ctx, &dsym, ZeroNorm(s), s);
        // Fresh symmetric edges D: positions not already in A. D ∩ A = ∅
        // is what makes the three-term count exact.
        let seen = &self.sym;
        let fresh = select_ctx(ctx, &dsym, move |r, c, _| seen.get(r, c).is_none());
        let mut closed = 0u64;
        if fresh.nnz() > 0 {
            let fresh_l = lower_triangle_ctx(ctx, &fresh);
            // 1 fresh edge: old wedges (A⊕.⊗A) closed by a fresh edge;
            // 2 fresh edges: fresh wedges closed by an old edge;
            // 3 fresh edges: Sandia count entirely inside D.
            closed = mxm_masked_count_ctx(ctx, &self.sym, &self.sym, &fresh_l)
                + mxm_masked_count_ctx(ctx, &fresh, &fresh, &self.low)
                + mxm_masked_count_ctx(ctx, &fresh_l, &fresh_l, &fresh_l);
            self.count += closed;
            self.sym = ewise_add_ctx(ctx, &self.sym, &fresh, s);
            self.low = ewise_add_ctx(ctx, &self.low, &fresh_l, s);
        }
        run.done(
            delta.nnz() as u64,
            fresh.nnz() as u64,
            closed,
            fresh.bytes() as u64,
        );
    }

    /// Triangles in the accumulated symmetric graph.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Accumulated symmetric pattern (value 1, self-loops dropped).
    pub fn pattern(&self) -> &Dcsr<f64> {
        &self.sym
    }

    /// Forget everything (window rotation).
    pub fn reset(&mut self) {
        *self = TriangleState::new(self.sym.nrows());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{netsec, triangles};
    use hypersparse::Coo;

    fn batch(edges: &[(Ix, Ix)], n: Ix) -> Dcsr<u64> {
        let mut c = Coo::new(n, n);
        for &(a, b) in edges {
            c.push(a, b, 1u64);
        }
        c.build_dcsr(PlusTimes::<u64>::new())
    }

    fn fold(batches: &[Dcsr<u64>], n: Ix) -> Dcsr<u64> {
        batches.iter().fold(Dcsr::empty(n, n), |acc, b| {
            hypersparse::with_default_ctx(|ctx| {
                ewise_add_ctx(ctx, &acc, b, PlusTimes::<u64>::new())
            })
        })
    }

    #[test]
    fn degrees_match_scratch_over_overlapping_batches() {
        let n = 64;
        let batches = [
            batch(&[(1, 2), (1, 3), (7, 9), (3, 9)], n),
            batch(&[(1, 2), (1, 4), (9, 9), (2, 3)], n), // (1,2) repeats
            batch(&[(7, 9), (5, 9), (6, 9), (8, 9)], n), // fan-in burst on 9
        ];
        let mut state = DegreeState::new(n, n);
        for (i, b) in batches.iter().enumerate() {
            state.apply_delta(b);
            let window = fold(&batches[..=i], n);
            assert_eq!(state.fan_out(), &netsec::fan_out(&window), "epoch {i}");
            assert_eq!(state.fan_in(), &netsec::fan_in(&window), "epoch {i}");
            assert_eq!(
                state.scan_suspects(2),
                netsec::scan_suspects(&window, 2),
                "epoch {i}"
            );
            assert_eq!(
                state.ddos_victims(2),
                netsec::ddos_victims(&window, 2),
                "epoch {i}"
            );
        }
        state.reset();
        assert!(state.fan_out().is_empty());
        assert_eq!(state.pattern().nnz(), 0);
    }

    #[test]
    fn degree_cost_lands_in_delta_kernel_row() {
        let ctx = OpCtx::new();
        let mut state = DegreeState::new(8, 8);
        state.apply_delta_ctx(&ctx, &batch(&[(0, 1), (0, 2)], 8));
        state.apply_delta_ctx(&ctx, &batch(&[(0, 1)], 8)); // nothing fresh
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.kernel(Kernel::DeltaDegree).calls, 2);
        assert_eq!(snap.kernel(Kernel::DeltaDegree).nnz_out, 2);
    }

    #[test]
    fn close_equals_apply_then_take_at_any_thread_count() {
        let n = 1 << 10;
        let g = hypersparse::gen::rmat_dcsr(
            hypersparse::gen::RmatParams {
                scale: 10,
                edge_factor: 8,
                ..Default::default()
            },
            13,
            PlusTimes::<f64>::new(),
        );
        let rows = |parity: Ix| select_ctx(&OpCtx::new(), &g, move |r, _, _| r % 2 == parity);
        let (evens, odds) = (rows(0), rows(1));
        let empty = Dcsr::<f64>::empty(n, n);
        // (name, deltas applied first, closing delta)
        type Case<'a> = (&'a str, &'a [&'a Dcsr<f64>], &'a Dcsr<f64>);
        let cases: [Case; 6] = [
            ("empty state", &[], &g),
            ("empty state, empty delta", &[], &empty),
            ("prior delta, delta partly seen", &[&evens], &g),
            ("prior delta, delta all fresh", &[&evens], &odds),
            ("prior deltas, empty delta", &[&evens, &odds], &empty),
            ("prior deltas, delta all seen", &[&evens, &odds], &evens),
        ];
        for k in [1, 2, 4, 8] {
            let ctx = OpCtx::new().with_threads(k);
            for (name, prior, delta) in cases {
                let mut closed = DegreeState::new(n, n);
                for d in prior {
                    closed.apply_delta_ctx(&ctx, d);
                }
                let mut applied = closed.clone();
                let calls = ctx.metrics().snapshot().kernel(Kernel::DeltaDegree).calls;
                let got = closed.close_ctx(&ctx, delta);
                let after = ctx.metrics().snapshot().kernel(Kernel::DeltaDegree).calls;
                assert_eq!(after, calls + 1, "{name}: one DeltaDegree row per close");
                applied.apply_delta_ctx(&ctx, delta);
                assert_eq!(got, applied.take_degrees(), "{name} at {k} threads");
                assert!(closed.fan_out().is_empty() && closed.fan_in().is_empty());
                assert_eq!(closed.pattern().nnz(), 0, "{name}: the state is left empty");
            }
        }
    }

    #[test]
    fn triangles_match_scratch_epoch_by_epoch() {
        let n = 32;
        // Crafted so new triangles arrive with 1, 2, and 3 fresh edges:
        // epoch 0 lays two edges of a triangle, epoch 1 closes it (1
        // fresh) and lays one edge of the next, epoch 2 closes that one
        // with two fresh edges plus a fully fresh triangle.
        let batches = [
            batch(&[(0, 1), (1, 2), (5, 6)], n),
            batch(&[(0, 2), (2, 1), (3, 4)], n), // (2,1) dup of (1,2) after sym
            batch(&[(3, 5), (4, 5), (10, 11), (11, 12), (10, 12)], n),
        ];
        let mut state = TriangleState::new(n);
        for (i, b) in batches.iter().enumerate() {
            state.apply_delta(b);
            let window = fold(&batches[..=i], n);
            let scratch = triangles::triangle_count(&crate::symmetrize(
                &pattern_f64(&window),
                PlusTimes::<f64>::new(),
            ));
            assert_eq!(state.count(), scratch, "epoch {i}");
        }
        assert_eq!(state.count(), 3); // {0,1,2}, {3,4,5}, {10,11,12}
    }

    #[test]
    fn triangle_state_ignores_duplicates_and_self_loops() {
        let n = 16;
        let mut state = TriangleState::new(n);
        state.apply_delta(&batch(&[(0, 1), (1, 2), (0, 2), (3, 3)], n));
        assert_eq!(state.count(), 1);
        // The same triangle again, in reversed orientation: no change.
        state.apply_delta(&batch(&[(1, 0), (2, 1), (2, 0)], n));
        assert_eq!(state.count(), 1);
        state.reset();
        assert_eq!(state.count(), 0);
        assert_eq!(state.pattern().nnz(), 0);
    }

    #[test]
    fn triangle_cost_lands_in_delta_kernel_row() {
        let ctx = OpCtx::new();
        let mut state = TriangleState::new(8);
        state.apply_delta_ctx(&ctx, &batch(&[(0, 1), (1, 2), (0, 2)], 8));
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.kernel(Kernel::DeltaTri).calls, 1);
        assert_eq!(snap.kernel(Kernel::DeltaTri).nnz_out, 6); // 3 sym edges
    }
}
