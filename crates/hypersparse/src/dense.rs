//! Full (dense) storage — the `nnz ≈ N²` regime of Fig. 4.
//!
//! Dense storage is semiring-relative: an "absent" cell holds the
//! semiring zero, so a min-plus dense matrix is full of `+∞`, not `0.0`.
//! The struct therefore carries its fill value explicitly.

use semiring::traits::{Semiring, Value};

use crate::dcsr::{Dcsr, DcsrBuilder};
use crate::Ix;

/// Row-major dense matrix with an explicit "zero" fill value.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMat<T> {
    nrows: Ix,
    ncols: Ix,
    zero: T,
    data: Vec<T>, // nrows * ncols, row-major
}

impl<T: Value> DenseMat<T> {
    /// A matrix filled with `zero`.
    pub fn filled(nrows: Ix, ncols: Ix, zero: T) -> Self {
        let cells = usize::try_from(nrows)
            .ok()
            .and_then(|r| usize::try_from(ncols).ok().and_then(|c| r.checked_mul(c)))
            .expect("dense dimensions overflow");
        DenseMat {
            nrows,
            ncols,
            zero: zero.clone(),
            data: vec![zero; cells],
        }
    }

    /// Materialize a sparse matrix densely, filling gaps with the
    /// semiring zero.
    pub fn from_dcsr<S: Semiring<Value = T>>(m: &Dcsr<T>, s: S) -> Self {
        let mut d = DenseMat::filled(m.nrows(), m.ncols(), s.zero());
        for (r, c, v) in m.iter() {
            d.set(r, c, v.clone());
        }
        d
    }

    /// Compress to hypersparse, dropping cells equal to the semiring zero.
    pub fn to_dcsr<S: Semiring<Value = T>>(&self, s: S) -> Dcsr<T> {
        self.compress(|v| !s.is_zero(v))
    }

    /// Compress to hypersparse using the stored fill value as "zero"
    /// (no semiring needed — the fill was fixed at construction).
    pub fn to_dcsr_by_fill(&self) -> Dcsr<T> {
        self.compress(|v| *v != self.zero)
    }

    fn compress(&self, keep: impl Fn(&T) -> bool) -> Dcsr<T> {
        let mut out = DcsrBuilder::with_capacity(self.nrows, self.ncols, 0);
        for r in 0..self.nrows {
            out.row(r);
            for c in 0..self.ncols {
                let v = self.get(r, c);
                if keep(v) {
                    out.push(c, v.clone());
                }
            }
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

    /// The fill ("zero") value.
    pub fn zero_value(&self) -> &T {
        &self.zero
    }

    /// Cell reference (every cell exists).
    pub fn get(&self, row: Ix, col: Ix) -> &T {
        &self.data[self.offset(row, col)]
    }

    /// Overwrite a cell.
    pub fn set(&mut self, row: Ix, col: Ix, v: T) {
        let o = self.offset(row, col);
        self.data[o] = v;
    }

    /// One full row as a slice.
    pub fn row(&self, row: Ix) -> &[T] {
        let o = self.offset(row, 0);
        &self.data[o..o + self.ncols as usize]
    }

    /// Count of cells differing from the fill value.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != self.zero).count()
    }

    /// Heap bytes — `O(nrows × ncols)` regardless of occupancy.
    pub fn bytes(&self) -> usize {
        Self::bytes_for(self.nrows, self.ncols, 0, 0)
    }

    /// [`Self::bytes`] of an `nrows × ncols` dense matrix: one value per
    /// cell, whatever `nnz` and `nonempty_rows` are. Every format's
    /// `bytes_for` takes the same statistics, for [`crate::Format::decide`].
    pub fn bytes_for(nrows: Ix, ncols: Ix, _nnz: usize, _nonempty_rows: usize) -> usize {
        nrows as usize * ncols as usize * std::mem::size_of::<T>()
    }

    fn offset(&self, row: Ix, col: Ix) -> usize {
        assert!(row < self.nrows && col < self.ncols, "index out of bounds");
        row as usize * self.ncols as usize + col as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use semiring::{MinPlus, PlusTimes};

    #[test]
    fn round_trip_through_dense() {
        let mut c = Coo::new(4, 4);
        c.extend([(0, 1, 2.0), (3, 3, 5.0)]);
        let sp = c.build_dcsr(PlusTimes::<f64>::new());
        let d = DenseMat::from_dcsr(&sp, PlusTimes::<f64>::new());
        assert_eq!(*d.get(0, 1), 2.0);
        assert_eq!(*d.get(0, 0), 0.0);
        assert_eq!(d.nnz(), 2);
        assert_eq!(d.to_dcsr(PlusTimes::<f64>::new()), sp);
    }

    #[test]
    fn tropical_fill_is_infinity() {
        let sp = Dcsr::<f64>::empty(3, 3);
        let d = DenseMat::from_dcsr(&sp, MinPlus::<f64>::new());
        assert_eq!(*d.get(1, 1), f64::INFINITY);
        assert_eq!(d.nnz(), 0);
        assert_eq!(d.to_dcsr(MinPlus::<f64>::new()).nnz(), 0);
    }

    #[test]
    fn bytes_scale_with_area() {
        let a = DenseMat::filled(10, 10, 0.0f64);
        let b = DenseMat::filled(100, 100, 0.0f64);
        assert_eq!(b.bytes(), a.bytes() * 100);
    }

    #[test]
    fn row_slice() {
        let mut d = DenseMat::filled(2, 3, 0i64);
        d.set(1, 2, 9);
        assert_eq!(d.row(1), &[0, 0, 9]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_panics() {
        let d = DenseMat::filled(2, 2, 0i64);
        let _ = d.get(2, 0);
    }
}
