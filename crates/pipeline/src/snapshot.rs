//! Epoch-stamped, isolated query snapshots.
//!
//! A snapshot is the ⊕-fold of every shard's hierarchy as cut by one
//! marker wave. It is an *owned* value: once assembled, concurrent
//! ingest cannot touch it — that is the snapshot-isolation contract, and
//! the integration tests assert it bit-for-bit. Because shards partition
//! by row, the folded layers have disjoint row support and the fold is a
//! pure disjoint union: deterministic in shard order, independent of
//! worker interleaving.

use hyperspace_core::{Assoc, Key};
use hypersparse::ops::ewise_add_ctx;
use hypersparse::{Dcsr, Ix, Matrix, OpCtx};
use semiring::traits::Semiring;

/// A consistent view of the whole pipeline as of one epoch.
#[derive(Clone, Debug)]
pub struct EpochSnapshot<S: Semiring> {
    epoch: u64,
    events: u64,
    per_shard_nnz: Vec<usize>,
    folded: Dcsr<S::Value>,
    s: S,
}

impl<S: Semiring> EpochSnapshot<S> {
    /// Fold per-shard cuts (in shard order) into one snapshot.
    pub(crate) fn assemble(
        epoch: u64,
        events: u64,
        ctx: &OpCtx,
        shards: Vec<Dcsr<S::Value>>,
        s: S,
    ) -> Self {
        let per_shard_nnz: Vec<usize> = shards.iter().map(Dcsr::nnz).collect();
        let mut folded: Option<Dcsr<S::Value>> = None;
        for part in shards {
            folded = Some(match folded {
                None => part,
                Some(acc) => ewise_add_ctx(ctx, &acc, &part, s),
            });
        }
        EpochSnapshot {
            epoch,
            events,
            per_shard_nnz,
            folded: folded.expect("≥ 1 shard"),
            s,
        }
    }

    /// The epoch this snapshot is stamped with. Epochs are assigned in
    /// snapshot-call order; a later epoch's view includes everything an
    /// earlier epoch's view did (same ingest threads assumed).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Events the pipeline had accepted when the marker wave was sent
    /// (an upper bound on — and with a single ingest thread, exactly —
    /// the events visible in this snapshot).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Stored entries per shard at the cut, in shard order.
    pub fn per_shard_nnz(&self) -> &[usize] {
        &self.per_shard_nnz
    }

    /// Total stored entries.
    pub fn nnz(&self) -> usize {
        self.folded.nnz()
    }

    /// The folded hypersparse matrix itself.
    pub fn dcsr(&self) -> &Dcsr<S::Value> {
        &self.folded
    }

    /// Consume the snapshot into its folded matrix without copying.
    pub fn into_dcsr(self) -> Dcsr<S::Value> {
        self.folded
    }

    /// Point lookup in the snapshot.
    pub fn get(&self, row: Ix, col: Ix) -> Option<&S::Value> {
        self.folded.get(row, col)
    }

    /// The snapshot as an auto-format [`Matrix`] — the entry point into
    /// every kernel in the stack (graph algorithms, reductions, SpGEMM).
    pub fn to_matrix(&self) -> Matrix<S::Value> {
        Matrix::from_dcsr(self.folded.clone(), self.s)
    }

    /// The snapshot as an associative array, re-keying raw `u64`
    /// coordinates through `key` (e.g. a hostname dictionary). Only keys
    /// that actually occur are materialized, so huge key spaces stay
    /// cheap: cost is `O(nnz log nnz)`, not `O(nrows)`.
    pub fn to_assoc<K: Key>(&self, mut key: impl FnMut(Ix) -> K) -> Assoc<K, K, S::Value> {
        let triplets: Vec<(K, K, S::Value)> = self
            .folded
            .iter()
            .map(|(r, c, v)| (key(r), key(c), v.clone()))
            .collect();
        Assoc::from_triplets(triplets, self.s)
    }
}

/// One incremental marker wave's result: the complete epoch snapshot
/// plus the **delta** — exactly the entries inserted since the previous
/// delta cut — both assembled from the same per-shard cut and stamped
/// with the same epoch, so `full(t) = full(t−1) ⊕ delta(t)` holds wave
/// over wave. Both sides are `Arc`-shared: the full snapshot is the same
/// allocation published to sinks, the delta the one standing views
/// absorbed.
#[derive(Clone, Debug)]
pub struct IncrementalEpoch<S: Semiring> {
    /// The complete fold — identical to what [`Pipeline::snapshot`]
    /// would have produced at this cut.
    ///
    /// [`Pipeline::snapshot`]: crate::Pipeline::snapshot
    pub full: std::sync::Arc<EpochSnapshot<S>>,
    /// Entries inserted since the previous incremental cut (or since
    /// startup/rotation for the first wave).
    pub delta: std::sync::Arc<EpochSnapshot<S>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersparse::Coo;
    use semiring::PlusTimes;

    fn dcsr(entries: &[(Ix, Ix, f64)]) -> Dcsr<f64> {
        let mut c = Coo::new(1 << 20, 1 << 20);
        c.extend(entries.iter().copied());
        c.build_dcsr(PlusTimes::<f64>::new())
    }

    #[test]
    fn assemble_folds_disjoint_shards() {
        let ctx = OpCtx::new();
        let s = PlusTimes::<f64>::new();
        let parts = vec![dcsr(&[(0, 1, 1.0), (2, 2, 3.0)]), dcsr(&[(1, 0, 2.0)])];
        let snap = EpochSnapshot::assemble(7, 3, &ctx, parts, s);
        assert_eq!(snap.epoch(), 7);
        assert_eq!(snap.events(), 3);
        assert_eq!(snap.per_shard_nnz(), &[2, 1]);
        assert_eq!(snap.nnz(), 3);
        assert_eq!(snap.get(1, 0), Some(&2.0));
        assert_eq!(snap.to_matrix().nnz(), 3);
    }

    #[test]
    fn assoc_view_compacts_keys() {
        let ctx = OpCtx::new();
        let s = PlusTimes::<f64>::new();
        let snap = EpochSnapshot::assemble(
            1,
            2,
            &ctx,
            vec![dcsr(&[(5, 900_000, 1.0), (900_000, 5, 2.0)])],
            s,
        );
        let a = snap.to_assoc(|k| format!("host-{k}"));
        assert_eq!(a.nnz(), 2);
        assert_eq!(
            a.get(&"host-5".to_string(), &"host-900000".to_string()),
            Some(1.0)
        );
        // Dictionaries hold only occurring keys, not the 2^20 space.
        assert_eq!(a.row_keys().len(), 2);
    }
}
