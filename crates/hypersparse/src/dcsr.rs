//! Doubly-compressed sparse rows — the *hypersparse* format.
//!
//! Classic CSR spends one pointer per row, which is fatal when the row
//! key space is ~2⁶⁰ but only a few thousand rows are occupied. DCSR
//! (Buluç & Gilbert 2008, cited as the paper's hypersparse foundation)
//! stores the sorted list of non-empty row ids next to their extents, so
//! the entire structure is `O(nnz)`.
//!
//! `Dcsr` is also this crate's *compute* format: every binary kernel in
//! [`crate::ops`] canonicalizes its operands to DCSR. Invariants (checked
//! in debug builds):
//!
//! * `rows` strictly increasing; every listed row non-empty;
//! * `rowptr.len() == rows.len() + 1`, non-decreasing, bracketing `colidx`;
//! * column ids strictly increasing within each row;
//! * no stored value is the semiring zero (enforced at construction by
//!   builders — the struct itself is semiring-agnostic).
//!
//! The second type parameter `I` selects the *physical* column-id width
//! (DESIGN.md §13): `Dcsr<T>` stores wide [`Ix`] ids; `Dcsr<T, u32>`
//! (from [`Dcsr::to_index_width`], legal when both dims fit
//! [`IndexType::MAX_DIM`]) halves column-index bandwidth on every kernel
//! inner loop. Row ids and row pointers stay wide — they are touched
//! once per *row*, not once per *entry*, so narrowing them buys nothing.

use semiring::traits::Value;

use crate::index::{dims_fit, IndexType};
use crate::Ix;

/// Hypersparse matrix: only non-empty rows are represented. `I` is the
/// physical column-id width (defaults to the global [`Ix`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Dcsr<T, I: IndexType = Ix> {
    nrows: Ix,
    ncols: Ix,
    rows: Vec<Ix>,
    rowptr: Vec<usize>,
    colidx: Vec<I>,
    vals: Vec<T>,
}

impl<T: Value, I: IndexType> Dcsr<T, I> {
    /// An empty `nrows × ncols` matrix.
    pub fn empty(nrows: Ix, ncols: Ix) -> Self {
        debug_assert!(
            dims_fit::<I>(nrows, ncols),
            "key space {nrows}×{ncols} exceeds a {} bit index",
            I::BITS
        );
        Dcsr {
            nrows,
            ncols,
            rows: Vec::new(),
            rowptr: vec![0],
            colidx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Assemble from raw parts. Debug-asserts all structural invariants.
    pub fn from_parts(
        nrows: Ix,
        ncols: Ix,
        rows: Vec<Ix>,
        rowptr: Vec<usize>,
        colidx: Vec<I>,
        vals: Vec<T>,
    ) -> Self {
        debug_assert!(dims_fit::<I>(nrows, ncols));
        debug_assert_eq!(rowptr.len(), rows.len() + 1);
        debug_assert_eq!(colidx.len(), vals.len());
        debug_assert_eq!(*rowptr.last().unwrap_or(&0), colidx.len());
        debug_assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "row ids not strictly increasing"
        );
        debug_assert!(rows.iter().all(|&r| r < nrows));
        debug_assert!(rowptr.windows(2).all(|w| w[0] < w[1]), "empty row stored");
        debug_assert!(
            (0..rows.len()).all(|i| colidx[rowptr[i]..rowptr[i + 1]]
                .windows(2)
                .all(|w| w[0] < w[1])),
            "column ids not strictly increasing within a row"
        );
        debug_assert!(colidx.iter().all(|&c| c.to_ix() < ncols));
        Dcsr {
            nrows,
            ncols,
            rows,
            rowptr,
            colidx,
            vals,
        }
    }

    /// Row dimension of the key space.
    pub fn nrows(&self) -> Ix {
        self.nrows
    }

    /// Column dimension of the key space.
    pub fn ncols(&self) -> Ix {
        self.ncols
    }

    /// `(nrows, ncols)` — what the kernels' `check_*` functions compare.
    pub(crate) fn shape(&self) -> (Ix, Ix) {
        (self.nrows, self.ncols)
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// Number of non-empty rows.
    pub fn n_nonempty_rows(&self) -> usize {
        self.rows.len()
    }

    /// The sorted non-empty row ids.
    pub fn row_ids(&self) -> &[Ix] {
        &self.rows
    }

    /// Every stored column id, row-major (the rows' column lists end to
    /// end).
    pub fn col_ids(&self) -> &[I] {
        &self.colidx
    }

    /// Position of `row` in the non-empty row list, if occupied.
    pub fn find_row(&self, row: Ix) -> Option<usize> {
        self.rows.binary_search(&row).ok()
    }

    /// Stored entries of the `k`-th non-empty row (its A-row nnz) — the
    /// per-row weight the load-balanced shard planner works from.
    pub fn row_len_at(&self, k: usize) -> usize {
        self.rowptr[k + 1] - self.rowptr[k]
    }

    /// The `k`-th non-empty row as `(row_id, cols, vals)`.
    pub fn row_at(&self, k: usize) -> (Ix, &[I], &[T]) {
        let (lo, hi) = (self.rowptr[k], self.rowptr[k + 1]);
        (self.rows[k], &self.colidx[lo..hi], &self.vals[lo..hi])
    }

    /// Columns and values of `row`, or empty slices if the row is empty.
    pub fn row(&self, row: Ix) -> (&[I], &[T]) {
        match self.find_row(row) {
            Some(k) => {
                let (_, c, v) = self.row_at(k);
                (c, v)
            }
            None => (&[], &[]),
        }
    }

    /// Point lookup.
    pub fn get(&self, row: Ix, col: Ix) -> Option<&T> {
        let c = I::try_from_ix(col)?;
        let (cols, vals) = self.row(row);
        cols.binary_search(&c).ok().map(|i| &vals[i])
    }

    /// Iterate all entries in `(row, col)` order.
    pub fn iter(&self) -> impl Iterator<Item = (Ix, Ix, &T)> + '_ {
        (0..self.rows.len()).flat_map(move |k| {
            let (r, cols, vals) = self.row_at(k);
            cols.iter().zip(vals).map(move |(&c, v)| (r, c.to_ix(), v))
        })
    }

    /// Iterate non-empty rows as `(row_id, cols, vals)`.
    pub fn iter_rows(&self) -> impl Iterator<Item = (Ix, &[I], &[T])> + '_ {
        (0..self.rows.len()).map(move |k| self.row_at(k))
    }

    /// All entries as owned triplets (test/interop helper).
    pub fn to_triplets(&self) -> Vec<(Ix, Ix, T)> {
        self.iter().map(|(r, c, v)| (r, c, v.clone())).collect()
    }

    /// Heap bytes used by the index structure and values — the Fig. 4
    /// storage metric. `O(nnz)`: no term scales with `nrows`.
    pub fn bytes(&self) -> usize {
        Self::bytes_for(self.nrows, self.ncols, self.nnz(), self.rows.len())
    }

    /// [`Self::bytes`] of a DCSR matrix with these statistics: a row id
    /// and a row pointer per non-empty row (plus one pointer), and a
    /// column id and a value per entry — no term in `nrows` or `ncols`.
    pub fn bytes_for(_nrows: Ix, _ncols: Ix, nnz: usize, nonempty_rows: usize) -> usize {
        nonempty_rows * std::mem::size_of::<Ix>()
            + (nonempty_rows + 1) * std::mem::size_of::<usize>()
            + nnz * (std::mem::size_of::<I>() + std::mem::size_of::<T>())
    }

    /// Re-dimension the key space (e.g. after key-dictionary growth in the
    /// associative-array layer). Panics if any stored entry would fall
    /// outside the new bounds or the new bounds exceed the index width.
    pub fn resize(&mut self, nrows: Ix, ncols: Ix) {
        assert!(
            dims_fit::<I>(nrows, ncols),
            "resize target exceeds a {} bit index — widen first",
            I::BITS
        );
        assert!(self.rows.last().is_none_or(|&r| r < nrows));
        assert!(self.colidx.iter().all(|&c| c.to_ix() < ncols));
        self.nrows = nrows;
        self.ncols = ncols;
    }

    /// True when this matrix's key space fits index width `J`, i.e.
    /// [`Dcsr::to_index_width`] would succeed.
    pub fn fits_index_width<J: IndexType>(&self) -> bool {
        dims_fit::<J>(self.nrows, self.ncols)
    }

    /// Re-store with column-id width `J` (e.g. `u32` when both dims are
    /// `< 2³²` — the narrow-index fast path). `None` when the key space
    /// does not fit. `O(nnz)`; topology and values are unchanged.
    pub fn to_index_width<J: IndexType>(&self) -> Option<Dcsr<T, J>> {
        if !self.fits_index_width::<J>() {
            return None;
        }
        Some(Dcsr {
            nrows: self.nrows,
            ncols: self.ncols,
            rows: self.rows.clone(),
            rowptr: self.rowptr.clone(),
            colidx: self.colidx.iter().map(|&c| J::from_ix(c.to_ix())).collect(),
            vals: self.vals.clone(),
        })
    }

    /// The sparsity pattern with `one` stored at every position: the
    /// index structure is copied as it stands (already sorted and
    /// duplicate-free), only the values are replaced. `O(nnz)`.
    pub fn pattern<U: Value>(&self, one: U) -> Dcsr<U, I> {
        Dcsr {
            nrows: self.nrows,
            ncols: self.ncols,
            rows: self.rows.clone(),
            rowptr: self.rowptr.clone(),
            colidx: self.colidx.clone(),
            vals: vec![one; self.colidx.len()],
        }
    }

    /// Decompose into raw parts `(nrows, ncols, rows, rowptr, colidx, vals)`.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(self) -> (Ix, Ix, Vec<Ix>, Vec<usize>, Vec<I>, Vec<T>) {
        (
            self.nrows,
            self.ncols,
            self.rows,
            self.rowptr,
            self.colidx,
            self.vals,
        )
    }
}

/// Sorted entries → [`Dcsr`]: the one place a kernel's output is laid
/// down as `rows`/`rowptr`/`colidx`/`vals`. Rows arrive in strictly
/// increasing order, a row's entries in strictly increasing column
/// order, and whatever the caller drops (semiring zeros) never arrives —
/// so a row that receives nothing, e.g. one whose collisions all
/// cancelled, is not stored. [`finish`](Self::finish) hands the parts to
/// [`Dcsr::from_parts`], which debug-asserts all of that.
pub(crate) struct DcsrBuilder<T, I: IndexType = Ix> {
    nrows: Ix,
    ncols: Ix,
    /// The open row; its entries start where the last closed row ended.
    row: Ix,
    rows: Vec<Ix>,
    rowptr: Vec<usize>,
    colidx: Vec<I>,
    vals: Vec<T>,
}

impl<T: Value, I: IndexType> DcsrBuilder<T, I> {
    /// A builder with room for `nnz` entries.
    pub(crate) fn with_capacity(nrows: Ix, ncols: Ix, nnz: usize) -> Self {
        DcsrBuilder {
            nrows,
            ncols,
            row: 0,
            rows: Vec::new(),
            rowptr: vec![0],
            colidx: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }

    /// Open row `r`, closing the one before it.
    pub(crate) fn row(&mut self, r: Ix) {
        if self.colidx.len() > *self.rowptr.last().expect("starts as [0]") {
            self.rows.push(self.row);
            self.rowptr.push(self.colidx.len());
        }
        self.row = r;
    }

    /// Append one entry to the open row.
    #[inline]
    pub(crate) fn push(&mut self, c: I, v: T) {
        self.colidx.push(c);
        self.vals.push(v);
    }

    /// Append a run of entries to the open row: a whole row, or the tail
    /// of one, that only one operand holds.
    pub(crate) fn extend(&mut self, cols: &[I], vals: &[T]) {
        self.colidx.extend_from_slice(cols);
        self.vals.extend_from_slice(vals);
    }

    /// Append a run of entries to the open row whose column ids a kernel
    /// over a compact column space kept as `u32`.
    pub(crate) fn extend_compact(&mut self, cols: &[u32], vals: &[T]) {
        self.colidx
            .extend(cols.iter().map(|&c| I::from_usize(c as usize)));
        self.vals.extend_from_slice(vals);
    }

    /// Append stored rows `lo..hi` of `src` as they stand — the rows one
    /// operand of a merge holds alone — as four slice copies.
    pub(crate) fn extend_rows(&mut self, src: &Dcsr<T, I>, lo: usize, hi: usize) {
        if lo == hi {
            return;
        }
        self.row(src.rows[hi - 1]);
        let (from, to) = (src.rowptr[lo], src.rowptr[hi]);
        let base = self.colidx.len();
        self.rows.extend_from_slice(&src.rows[lo..hi]);
        self.rowptr
            .extend(src.rowptr[lo + 1..=hi].iter().map(|&end| end - from + base));
        self.colidx.extend_from_slice(&src.colidx[from..to]);
        self.vals.extend_from_slice(&src.vals[from..to]);
    }

    /// Append one entry of a `(row, col)`-sorted stream, opening its row
    /// when the stream moves on to it.
    #[inline]
    pub(crate) fn push_entry(&mut self, r: Ix, c: I, v: T) {
        if r != self.row {
            self.row(r);
        }
        self.push(c, v);
    }

    /// Close the open row and assemble the matrix.
    pub(crate) fn finish(mut self) -> Dcsr<T, I> {
        self.row(self.row);
        Dcsr::from_parts(
            self.nrows,
            self.ncols,
            self.rows,
            self.rowptr,
            self.colidx,
            self.vals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use semiring::PlusTimes;

    fn sample() -> Dcsr<f64> {
        let mut c = Coo::new(100, 100);
        c.extend([(5, 1, 1.0), (5, 7, 2.0), (50, 0, 3.0), (99, 99, 4.0)]);
        c.build_dcsr(PlusTimes::<f64>::new())
    }

    #[test]
    fn structure_queries() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.n_nonempty_rows(), 3);
        assert_eq!(m.row_ids(), &[5, 50, 99]);
        assert_eq!(m.row(5).0, &[1, 7]);
        assert_eq!(m.row(6), (&[][..], &[][..]));
        assert_eq!(m.get(50, 0), Some(&3.0));
        assert_eq!(m.get(50, 1), None);
        assert_eq!(m.row_len_at(0), 2);
        assert_eq!(m.row_len_at(1), 1);
    }

    #[test]
    fn iteration_is_row_major_sorted() {
        let m = sample();
        let trips: Vec<_> = m.iter().map(|(r, c, &v)| (r, c, v)).collect();
        assert_eq!(
            trips,
            vec![(5, 1, 1.0), (5, 7, 2.0), (50, 0, 3.0), (99, 99, 4.0)]
        );
    }

    #[test]
    fn bytes_independent_of_dimension() {
        let mut small = Coo::new(100, 100);
        small.push(1, 1, 1.0);
        let small = small.build_dcsr(PlusTimes::<f64>::new());

        let huge_n = 1u64 << 60;
        let mut huge = Coo::new(huge_n, huge_n);
        huge.push(1, 1, 1.0);
        let huge = huge.build_dcsr(PlusTimes::<f64>::new());

        assert_eq!(small.bytes(), huge.bytes());
    }

    #[test]
    fn empty_matrix() {
        let m = Dcsr::<f64>::empty(10, 10);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.get(0, 0), None);
    }

    #[test]
    fn resize_grows_key_space() {
        let mut m = sample();
        m.resize(1 << 40, 1 << 40);
        assert_eq!(m.nrows(), 1 << 40);
        assert_eq!(m.get(5, 7), Some(&2.0));
    }

    #[test]
    #[should_panic]
    fn resize_cannot_orphan_entries() {
        let mut m = sample();
        m.resize(10, 10); // row 50 and 99 out of bounds
    }

    #[test]
    fn narrow_round_trip_preserves_everything() {
        let m = sample();
        let narrow: Dcsr<f64, u32> = m.to_index_width().unwrap();
        assert_eq!(narrow.nnz(), m.nnz());
        assert_eq!(narrow.to_triplets(), m.to_triplets());
        assert_eq!(narrow.get(5, 7), Some(&2.0));
        let wide_again: Dcsr<f64> = narrow.to_index_width().unwrap();
        assert_eq!(wide_again, m);
    }

    #[test]
    fn narrow_refused_when_dims_exceed_width() {
        let mut c = Coo::new(1 << 40, 1 << 40);
        c.push(1, 1, 1.0);
        let m = c.build_dcsr(PlusTimes::<f64>::new());
        assert!(!m.fits_index_width::<u32>());
        assert!(m.to_index_width::<u32>().is_none());
        assert!(m.to_index_width::<u64>().is_some());
    }

    #[test]
    fn narrow_colidx_shrinks_bytes() {
        let m = sample();
        let narrow: Dcsr<f64, u32> = m.to_index_width().unwrap();
        assert!(narrow.bytes() < m.bytes());
        let saved = m.nnz() * (std::mem::size_of::<Ix>() - std::mem::size_of::<u32>());
        assert_eq!(m.bytes() - narrow.bytes(), saved);
    }

    #[test]
    #[should_panic]
    fn narrow_resize_beyond_width_panics() {
        let narrow: Dcsr<f64, u32> = sample().to_index_width().unwrap();
        let mut narrow = narrow;
        narrow.resize(1 << 40, 1 << 40);
    }
}
