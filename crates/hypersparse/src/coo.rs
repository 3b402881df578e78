//! Coordinate (triplet) builder format.
//!
//! COO is the ingestion format: streaming events append `(row, col, val)`
//! triplets in arrival order; [`Coo::build_dcsr`] sorts, merges duplicates
//! with the semiring ⊕ (so repeated observations of the same edge
//! accumulate, the streaming-insert model of hierarchical hypersparse
//! arrays), drops semiring zeros, and produces a compressed format.

use semiring::traits::{Semiring, Value};

use crate::dcsr::{Dcsr, DcsrBuilder};
use crate::radix::{radix_sort_by_key, SortScratch};
use crate::Ix;

/// An unsorted triplet buffer.
#[derive(Clone, Debug)]
pub struct Coo<T> {
    nrows: Ix,
    ncols: Ix,
    entries: Vec<(Ix, Ix, T)>,
}

impl<T: Value> Coo<T> {
    /// An empty buffer for an `nrows × ncols` key space.
    pub fn new(nrows: Ix, ncols: Ix) -> Self {
        Coo {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Append one triplet. Out-of-range indices panic — the key space is
    /// huge by construction, so a violation is a caller bug, not data.
    pub fn push(&mut self, row: Ix, col: Ix, val: T) {
        assert!(
            row < self.nrows && col < self.ncols,
            "triplet ({row}, {col}) outside {}×{} key space",
            self.nrows,
            self.ncols
        );
        self.entries.push((row, col, val));
    }

    /// Append many triplets.
    pub fn extend<I: IntoIterator<Item = (Ix, Ix, T)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }

    /// Number of buffered triplets (before duplicate merging).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no triplets are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Row dimension of the key space.
    pub fn nrows(&self) -> Ix {
        self.nrows
    }

    /// Column dimension of the key space.
    pub fn ncols(&self) -> Ix {
        self.ncols
    }

    /// Sort, ⊕-merge duplicates, drop zeros, and emit a [`Dcsr`].
    pub fn build_dcsr<S: Semiring<Value = T>>(mut self, s: S) -> Dcsr<T> {
        let mut scratch = SortScratch::default();
        fold_entries(self.nrows, self.ncols, &mut self.entries, &mut scratch, s)
    }
}

/// Sort `entries` by `(row, col)`, ⊕-fold each key's values and drop the
/// folds that come to the semiring zero; `entries` is left empty with
/// its capacity. The sort is stable, so a duplicate group folds in
/// insertion order and ⊕-folding stays deterministic. Only
/// `(row, col, position)` records are sorted; each value is then moved
/// out of its slot once (the zero left behind is never read).
pub(crate) fn fold_entries<T: Value, S: Semiring<Value = T>>(
    nrows: Ix,
    ncols: Ix,
    entries: &mut Vec<(Ix, Ix, T)>,
    scratch: &mut SortScratch,
    s: S,
) -> Dcsr<T> {
    let SortScratch { recs, tmp } = scratch;
    recs.clear();
    recs.extend(entries.iter().enumerate().map(|(k, e)| (e.0, e.1, k)));
    radix_sort_by_key(recs, tmp, |r| (r.0, r.1));

    let mut out = DcsrBuilder::with_capacity(nrows, ncols, entries.len());
    let mut take = |k: usize| std::mem::replace(&mut entries[k].2, s.zero());
    let mut it = recs.iter().peekable();
    while let Some(&(r, c, k)) = it.next() {
        let mut v = take(k);
        while let Some(&&(_, _, dup)) = it.peek().filter(|n| (n.0, n.1) == (r, c)) {
            s.add_assign(&mut v, take(dup));
            it.next();
        }
        if !s.is_zero(&v) {
            out.push_entry(r, c, v);
        }
    }
    entries.clear();
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use semiring::{MinPlus, PlusTimes};

    #[test]
    fn build_sorts_and_merges_duplicates() {
        let mut c = Coo::new(10, 10);
        c.extend([(3, 2, 1.0), (0, 5, 2.0), (3, 2, 4.0), (3, 1, 7.0)]);
        let m = c.build_dcsr(PlusTimes::<f64>::new());
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(3, 2), Some(&5.0)); // 1 ⊕ 4
        assert_eq!(m.get(0, 5), Some(&2.0));
        assert_eq!(m.get(3, 1), Some(&7.0));
        // Row ids sorted, cols sorted within rows.
        assert_eq!(m.row_ids(), &[0, 3]);
    }

    #[test]
    fn zeros_are_dropped_after_merge() {
        let mut c = Coo::new(4, 4);
        c.extend([(1, 1, 3.0), (1, 1, -3.0), (2, 2, 0.0)]);
        let m = c.build_dcsr(PlusTimes::<f64>::new());
        assert_eq!(m.nnz(), 0);
        assert!(m.row_ids().is_empty());
    }

    #[test]
    fn tropical_merge_uses_min() {
        let mut c = Coo::new(4, 4);
        c.extend([(0, 1, 5.0), (0, 1, 2.0), (0, 1, 9.0)]);
        let m = c.build_dcsr(MinPlus::<f64>::new());
        assert_eq!(m.get(0, 1), Some(&2.0));
    }

    #[test]
    fn tropical_zero_infinity_is_dropped() {
        let mut c = Coo::new(4, 4);
        c.push(0, 1, f64::INFINITY);
        c.push(0, 2, 1.0);
        let m = c.build_dcsr(MinPlus::<f64>::new());
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), None);
    }

    #[test]
    fn huge_key_space_is_fine() {
        let n = 1u64 << 60;
        let mut c = Coo::new(n, n);
        c.push(n - 1, n - 2, 1.0);
        c.push(0, 0, 2.0);
        let m = c.build_dcsr(PlusTimes::<f64>::new());
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(n - 1, n - 2), Some(&1.0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_panics() {
        let mut c = Coo::new(4, 4);
        c.push(4, 0, 1.0);
    }
}
