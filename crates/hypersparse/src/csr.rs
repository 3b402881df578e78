//! Classic compressed sparse rows — the *sparse* (`nnz ≈ N`) format.
//!
//! One row pointer per row: `O(nrows + nnz)` storage. The right choice
//! when most rows are occupied; pathological when the row space is huge
//! and mostly empty (that is [`crate::Dcsr`]'s regime — Fig. 4).

use semiring::traits::Value;

use crate::dcsr::{Dcsr, DcsrBuilder};
use crate::index::IndexType;
use crate::Ix;

/// CSR matrix. Requires the row dimension to be materializable
/// (`nrows ≤ usize::MAX`, practically far smaller). `I` is the physical
/// column-id width (defaults to the global [`Ix`]; see DESIGN.md §13).
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<T, I: IndexType = Ix> {
    nrows: Ix,
    ncols: Ix,
    rowptr: Vec<usize>, // len nrows + 1
    colidx: Vec<I>,
    vals: Vec<T>,
}

impl<T: Value, I: IndexType> Csr<T, I> {
    /// An empty `nrows × ncols` matrix.
    pub fn empty(nrows: Ix, ncols: Ix) -> Self {
        let n = usize::try_from(nrows).expect("CSR row dimension must fit in memory");
        Csr {
            nrows,
            ncols,
            rowptr: vec![0; n + 1],
            colidx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Convert from hypersparse by materializing the full row-pointer
    /// array. Panics if `nrows` cannot be materialized.
    pub fn from_dcsr(m: &Dcsr<T, I>) -> Self {
        let n = usize::try_from(m.nrows()).expect("CSR row dimension must fit in memory");
        let mut rowptr = vec![0usize; n + 1];
        let mut colidx = Vec::with_capacity(m.nnz());
        let mut vals = Vec::with_capacity(m.nnz());
        let mut prev_end = 0usize;
        let mut next_row = 0usize;
        for (r, cols, vs) in m.iter_rows() {
            let r = r as usize;
            for p in &mut rowptr[next_row..=r] {
                *p = prev_end;
            }
            next_row = r + 1;
            colidx.extend_from_slice(cols);
            vals.extend_from_slice(vs);
            prev_end = colidx.len();
        }
        for p in &mut rowptr[next_row..] {
            *p = prev_end;
        }
        Csr {
            nrows: m.nrows(),
            ncols: m.ncols(),
            rowptr,
            colidx,
            vals,
        }
    }

    /// Convert to the hypersparse compute format.
    pub fn to_dcsr(&self) -> Dcsr<T, I> {
        let mut out = DcsrBuilder::with_capacity(self.nrows, self.ncols, self.nnz());
        for r in 0..self.nrows as usize {
            let (lo, hi) = (self.rowptr[r], self.rowptr[r + 1]);
            out.row(r as Ix);
            out.extend(&self.colidx[lo..hi], &self.vals[lo..hi]);
        }
        out.finish()
    }

    /// Row dimension.
    pub fn nrows(&self) -> Ix {
        self.nrows
    }

    /// Column dimension.
    pub fn ncols(&self) -> Ix {
        self.ncols
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// Columns and values of `row`.
    pub fn row(&self, row: Ix) -> (&[I], &[T]) {
        let r = row as usize;
        let (lo, hi) = (self.rowptr[r], self.rowptr[r + 1]);
        (&self.colidx[lo..hi], &self.vals[lo..hi])
    }

    /// Point lookup.
    pub fn get(&self, row: Ix, col: Ix) -> Option<&T> {
        let c = I::try_from_ix(col)?;
        let (cols, vals) = self.row(row);
        cols.binary_search(&c).ok().map(|i| &vals[i])
    }

    /// Iterate all entries in `(row, col)` order.
    pub fn iter(&self) -> impl Iterator<Item = (Ix, Ix, &T)> + '_ {
        (0..self.nrows as usize).flat_map(move |r| {
            let (cols, vals) = self.row(r as Ix);
            cols.iter()
                .zip(vals)
                .map(move |(&c, v)| (r as Ix, c.to_ix(), v))
        })
    }

    /// Heap bytes — `O(nrows + nnz)`: the `nrows` term is what Fig. 4's
    /// hypersparse regime cannot afford.
    pub fn bytes(&self) -> usize {
        self.rowptr.len() * std::mem::size_of::<usize>()
            + self.colidx.len() * std::mem::size_of::<I>()
            + self.vals.len() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use semiring::PlusTimes;

    fn sample_dcsr() -> Dcsr<f64> {
        let mut c = Coo::new(8, 8);
        c.extend([(0, 1, 1.0), (0, 3, 2.0), (3, 0, 3.0), (7, 7, 4.0)]);
        c.build_dcsr(PlusTimes::<f64>::new())
    }

    #[test]
    fn dcsr_round_trip() {
        let d = sample_dcsr();
        let c = Csr::from_dcsr(&d);
        assert_eq!(c.nnz(), 4);
        assert_eq!(c.get(0, 3), Some(&2.0));
        assert_eq!(c.get(1, 0), None);
        assert_eq!(c.to_dcsr(), d);
    }

    #[test]
    fn empty_rows_have_empty_slices() {
        let c = Csr::from_dcsr(&sample_dcsr());
        assert_eq!(c.row(1), (&[][..], &[][..]));
        assert_eq!(c.row(7).0, &[7]);
    }

    #[test]
    fn iter_matches_dcsr_iter() {
        let d = sample_dcsr();
        let c = Csr::from_dcsr(&d);
        let a: Vec<_> = c.iter().map(|(r, co, &v)| (r, co, v)).collect();
        let b: Vec<_> = d.iter().map(|(r, co, &v)| (r, co, v)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn bytes_scale_with_nrows() {
        let small = Csr::from_dcsr(&sample_dcsr());
        let mut big_coo = Coo::new(100_000, 8);
        big_coo.extend([(0, 1, 1.0), (0, 3, 2.0), (3, 0, 3.0), (7, 7, 4.0)]);
        let big = Csr::from_dcsr(&big_coo.build_dcsr(PlusTimes::<f64>::new()));
        assert!(big.bytes() > small.bytes() * 1000);
    }

    #[test]
    fn narrow_csr_round_trips_through_dcsr() {
        let d = sample_dcsr();
        let narrow: Dcsr<f64, u32> = d.to_index_width().unwrap();
        let c = Csr::from_dcsr(&narrow);
        assert_eq!(c.get(0, 3), Some(&2.0));
        assert_eq!(c.to_dcsr(), narrow);
        assert!(c.bytes() < Csr::from_dcsr(&d).bytes());
    }

    #[test]
    fn empty_csr() {
        let c = Csr::<f64>::empty(5, 5);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.iter().count(), 0);
        assert_eq!(c.to_dcsr().nnz(), 0);
    }
}
