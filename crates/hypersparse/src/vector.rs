//! Sparse vectors — frontiers, reductions, and DNN activations.

use semiring::traits::{Monoid, Semiring, UnaryOp, Value};

use crate::index::IndexType;
use crate::Ix;

/// A sparse vector over a `u64` key space: parallel sorted `(idx, val)`
/// arrays, no stored semiring zeros. `I` is the physical index width
/// (defaults to the global [`Ix`]; see DESIGN.md §13).
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVec<T, I: IndexType = Ix> {
    dim: Ix,
    idx: Vec<I>,
    vals: Vec<T>,
}

impl<T: Value, I: IndexType> SparseVec<T, I> {
    /// The empty vector of dimension `dim`.
    pub fn empty(dim: Ix) -> Self {
        debug_assert!(
            dim <= I::MAX_DIM,
            "dimension {dim} exceeds a {} bit index",
            I::BITS
        );
        SparseVec {
            dim,
            idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Build from unsorted entries; duplicates ⊕-merge, zeros drop.
    pub fn from_entries<S: Semiring<Value = T>>(dim: Ix, mut entries: Vec<(Ix, T)>, s: S) -> Self {
        entries.sort_by_key(|e| e.0);
        let mut idx: Vec<I> = Vec::with_capacity(entries.len());
        let mut vals: Vec<T> = Vec::with_capacity(entries.len());
        for (i, v) in entries {
            assert!(i < dim, "index {i} outside dimension {dim}");
            let i = I::from_ix(i);
            if idx.last() == Some(&i) {
                let last = vals.last_mut().expect("parallel arrays");
                s.add_assign(last, v);
            } else {
                idx.push(i);
                vals.push(v);
            }
        }
        // Drop zeros after merging (a merge can cancel to zero).
        let mut out = SparseVec::empty(dim);
        for (i, v) in idx.into_iter().zip(vals) {
            if !s.is_zero(&v) {
                out.idx.push(i);
                out.vals.push(v);
            }
        }
        out
    }

    /// Assemble from pre-sorted, deduplicated, zero-free parts.
    pub fn from_sorted_parts(dim: Ix, idx: Vec<I>, vals: Vec<T>) -> Self {
        debug_assert_eq!(idx.len(), vals.len());
        debug_assert!(idx.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(idx.iter().all(|&i| i.to_ix() < dim));
        SparseVec { dim, idx, vals }
    }

    /// The sorted indices and their values, the inverse of
    /// [`SparseVec::from_sorted_parts`].
    pub fn into_parts(self) -> (Vec<I>, Vec<T>) {
        (self.idx, self.vals)
    }

    /// Dimension of the key space.
    pub fn dim(&self) -> Ix {
        self.dim
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Sorted indices of stored entries (in the physical width `I`).
    pub fn indices(&self) -> &[I] {
        &self.idx
    }

    /// Values, parallel to [`SparseVec::indices`].
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Point lookup.
    pub fn get(&self, i: &Ix) -> Option<&T> {
        let i = I::try_from_ix(*i)?;
        self.idx.binary_search(&i).ok().map(|k| &self.vals[k])
    }

    /// Iterate `(index, &value)` in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Ix, &T)> + '_ {
        self.idx.iter().map(|i| i.to_ix()).zip(self.vals.iter())
    }

    /// Element-wise union-combine with another vector: present-in-one
    /// entries pass through, present-in-both entries ⊕-combine.
    pub fn ewise_add<S: Semiring<Value = T>>(&self, other: &Self, s: S) -> Self {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        let mut idx = Vec::with_capacity(self.nnz() + other.nnz());
        let mut vals = Vec::with_capacity(self.nnz() + other.nnz());
        let (mut i, mut j) = (0, 0);
        while i < self.idx.len() || j < other.idx.len() {
            let take_left =
                j >= other.idx.len() || (i < self.idx.len() && self.idx[i] < other.idx[j]);
            let take_both =
                i < self.idx.len() && j < other.idx.len() && self.idx[i] == other.idx[j];
            if take_both {
                let v = s.add(self.vals[i].clone(), other.vals[j].clone());
                if !s.is_zero(&v) {
                    idx.push(self.idx[i]);
                    vals.push(v);
                }
                i += 1;
                j += 1;
            } else if take_left {
                idx.push(self.idx[i]);
                vals.push(self.vals[i].clone());
                i += 1;
            } else {
                idx.push(other.idx[j]);
                vals.push(other.vals[j].clone());
                j += 1;
            }
        }
        SparseVec::from_sorted_parts(self.dim, idx, vals)
    }

    /// Element-wise intersection-combine: only present-in-both entries
    /// survive, ⊗-combined.
    pub fn ewise_mul<S: Semiring<Value = T>>(&self, other: &Self, s: S) -> Self {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        let mut idx = Vec::new();
        let mut vals = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.idx.len() && j < other.idx.len() {
            match self.idx[i].cmp(&other.idx[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let v = s.mul(self.vals[i].clone(), other.vals[j].clone());
                    if !s.is_zero(&v) {
                        idx.push(self.idx[i]);
                        vals.push(v);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        SparseVec::from_sorted_parts(self.dim, idx, vals)
    }

    /// Apply a unary operator to every stored value, dropping results that
    /// become the semiring zero.
    pub fn apply<S, O>(&self, op: O, s: S) -> Self
    where
        S: Semiring<Value = T>,
        O: UnaryOp<T, T>,
    {
        let mut idx = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        for (i, v) in self.iter() {
            let w = op.apply(v.clone());
            if !s.is_zero(&w) {
                idx.push(I::from_ix(i));
                vals.push(w);
            }
        }
        SparseVec::from_sorted_parts(self.dim, idx, vals)
    }

    /// Fold all stored values with a monoid.
    pub fn reduce<M: Monoid<T>>(&self, m: M) -> T {
        self.vals
            .iter()
            .fold(m.identity(), |acc, v| m.combine(acc, v.clone()))
    }

    /// Restrict to indices where `keep` returns `false` → entry removed.
    pub fn select<F: Fn(Ix, &T) -> bool>(&self, keep: F) -> Self {
        let mut idx = Vec::new();
        let mut vals = Vec::new();
        for (i, v) in self.iter() {
            if keep(i, v) {
                idx.push(I::from_ix(i));
                vals.push(v.clone());
            }
        }
        SparseVec::from_sorted_parts(self.dim, idx, vals)
    }

    /// Structural complement-mask: drop entries whose index appears in
    /// `mask` (used by BFS to remove already-visited vertices).
    pub fn without(&self, mask: &Self) -> Self {
        self.select(|i, _| mask.get(&i).is_none())
    }

    /// Heap bytes.
    pub fn bytes(&self) -> usize {
        self.idx.len() * std::mem::size_of::<I>() + self.vals.len() * std::mem::size_of::<T>()
    }

    /// True when this vector's key space fits index width `J`.
    pub fn fits_index_width<J: IndexType>(&self) -> bool {
        self.dim <= J::MAX_DIM
    }

    /// Re-store with index width `J` (e.g. `u32` when `dim < 2³²` — the
    /// narrow-index fast path). `None` when the dimension does not fit.
    pub fn to_index_width<J: IndexType>(&self) -> Option<SparseVec<T, J>> {
        if !self.fits_index_width::<J>() {
            return None;
        }
        Some(SparseVec {
            dim: self.dim,
            idx: self.idx.iter().map(|&i| J::from_ix(i.to_ix())).collect(),
            vals: self.vals.clone(),
        })
    }

    /// Subvector by strictly increasing index selector, reindexed to the
    /// selector's positions (the vector analogue of matrix `extract`).
    pub fn extract(&self, sel: &[Ix]) -> Self {
        debug_assert!(sel.windows(2).all(|w| w[0] < w[1]));
        let mut idx = Vec::new();
        let mut vals = Vec::new();
        for (pos, i) in sel.iter().enumerate() {
            if let Some(v) = self.get(i) {
                idx.push(I::from_usize(pos));
                vals.push(v.clone());
            }
        }
        SparseVec::from_sorted_parts(sel.len() as Ix, idx, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::ops::mxv::{mxv_ctx, vxm_ctx};
    use crate::OpCtx;
    use semiring::{MinPlus, PlusTimes, Relu};

    fn pt() -> PlusTimes<f64> {
        PlusTimes::new()
    }

    #[test]
    fn from_entries_merges_and_drops_zeros() {
        let v: SparseVec<f64> =
            SparseVec::from_entries(10, vec![(3, 1.0), (3, 2.0), (5, 0.0), (1, 4.0)], pt());
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(&3), Some(&3.0));
        assert_eq!(v.get(&5), None);
        assert_eq!(v.indices(), &[1, 3]);
    }

    #[test]
    fn ewise_add_union_semantics() {
        let a: SparseVec<f64> = SparseVec::from_entries(8, vec![(1, 1.0), (3, 3.0)], pt());
        let b = SparseVec::from_entries(8, vec![(3, -3.0), (5, 5.0)], pt());
        let c = a.ewise_add(&b, pt());
        assert_eq!(c.get(&1), Some(&1.0));
        assert_eq!(c.get(&3), None); // cancelled to zero → dropped
        assert_eq!(c.get(&5), Some(&5.0));
    }

    #[test]
    fn ewise_mul_intersection_semantics() {
        let a: SparseVec<f64> = SparseVec::from_entries(8, vec![(1, 2.0), (3, 3.0)], pt());
        let b = SparseVec::from_entries(8, vec![(3, 4.0), (5, 5.0)], pt());
        let c = a.ewise_mul(&b, pt());
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(&3), Some(&12.0));
    }

    #[test]
    fn vxm_is_frontier_expansion() {
        // 0→1 (w 1.5), 0→2 (w 2.0), 1→2 (w 0.1)
        let mut c = Coo::new(3, 3);
        c.extend([(0, 1, 1.5), (0, 2, 2.0), (1, 2, 0.1)]);
        let a = c.build_dcsr(MinPlus::<f64>::new());
        let f = SparseVec::from_entries(3, vec![(0, 0.0)], MinPlus::<f64>::new());
        let ctx = OpCtx::new();
        let d1 = vxm_ctx(&ctx, &f, &a, MinPlus::<f64>::new());
        assert_eq!(d1.get(&1), Some(&1.5));
        assert_eq!(d1.get(&2), Some(&2.0));
        // Second hop: min(2.0 direct, 1.5 + 0.1 via 1) = 1.6.
        let d2 = vxm_ctx(&ctx, &d1, &a, MinPlus::<f64>::new());
        assert_eq!(d2.get(&2), Some(&1.6));
    }

    #[test]
    fn mxv_matches_vxm_on_transpose_free_symmetric() {
        let mut c = Coo::new(3, 3);
        c.extend([(0, 1, 2.0), (1, 0, 2.0), (1, 2, 3.0), (2, 1, 3.0)]);
        let a = c.build_dcsr(pt());
        let v = SparseVec::from_entries(3, vec![(0, 1.0), (2, 1.0)], pt());
        let ctx = OpCtx::new();
        let av = mxv_ctx(&ctx, &a, &v, pt());
        let va = vxm_ctx(&ctx, &v, &a, pt());
        assert_eq!(av, va); // A symmetric ⇒ Av = vᵀA
    }

    #[test]
    fn apply_relu_drops_rectified_entries() {
        let v: SparseVec<f64> = SparseVec::from_entries(4, vec![(0, -1.0), (1, 2.0)], pt());
        let r = v.apply(Relu(0.0), pt());
        assert_eq!(r.nnz(), 1);
        assert_eq!(r.get(&1), Some(&2.0));
    }

    #[test]
    fn reduce_folds_monoid() {
        use semiring::PlusMonoid;
        let v: SparseVec<f64> = SparseVec::from_entries(4, vec![(0, 1.0), (2, 2.5)], pt());
        assert_eq!(v.reduce(PlusMonoid::<f64>::default()), 3.5);
    }

    #[test]
    fn without_masks_visited() {
        let v: SparseVec<f64> =
            SparseVec::from_entries(8, vec![(1, 1.0), (2, 1.0), (3, 1.0)], pt());
        let seen = SparseVec::from_entries(8, vec![(2, 9.0)], pt());
        let unseen = v.without(&seen);
        assert_eq!(unseen.indices(), &[1, 3]);
    }

    #[test]
    fn extract_reindexes_vector() {
        let v: SparseVec<f64> =
            SparseVec::from_entries(10, vec![(2, 2.0), (5, 5.0), (9, 9.0)], pt());
        let sub = v.extract(&[2, 3, 9]);
        assert_eq!(sub.dim(), 3);
        assert_eq!(sub.get(&0), Some(&2.0)); // old index 2
        assert_eq!(sub.get(&1), None); // old index 3 was absent
        assert_eq!(sub.get(&2), Some(&9.0));
    }

    #[test]
    fn narrow_vector_round_trips_and_shrinks() {
        let v = SparseVec::from_entries(1000, vec![(1, 1.0), (999, 4.0)], pt());
        let narrow: SparseVec<f64, u32> = v.to_index_width().unwrap();
        assert_eq!(narrow.get(&999), Some(&4.0));
        assert!(narrow.bytes() < v.bytes());
        assert_eq!(narrow.to_index_width::<u64>().unwrap(), v);
        let huge = SparseVec::<f64>::empty(1 << 40);
        assert!(huge.to_index_width::<u32>().is_none());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dim_mismatch_panics() {
        let a = SparseVec::<f64>::empty(3);
        let b = SparseVec::<f64>::empty(4);
        let _ = a.ewise_add(&b, pt());
    }
}
