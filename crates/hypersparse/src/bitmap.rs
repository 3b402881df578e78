//! Bitmap storage — full value array plus a presence bit per cell.
//!
//! SuiteSparse:GraphBLAS added the bitmap format for matrices too dense
//! for CSR overheads but too sparse (or too mutation-heavy) for full
//! storage: random insert/delete is O(1), and "zero-ness" is tracked by
//! the bit rather than by a sentinel value, so it works for value types
//! with no natural zero.

use semiring::traits::{Semiring, Value};

use crate::dcsr::{Dcsr, DcsrBuilder};
use crate::Ix;

/// Bitmap matrix: one presence bit and one (possibly default) value slot
/// per cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Bitmap<T> {
    nrows: Ix,
    ncols: Ix,
    present: Vec<u64>, // bitset of nrows*ncols bits
    data: Vec<T>,      // nrows*ncols slots; absent slots hold `fill`
    fill: T,
    nnz: usize,
}

impl<T: Value> Bitmap<T> {
    /// An empty matrix whose vacant slots hold `fill`.
    pub fn new(nrows: Ix, ncols: Ix, fill: T) -> Self {
        let cells = usize::try_from(nrows)
            .ok()
            .and_then(|r| usize::try_from(ncols).ok().and_then(|c| r.checked_mul(c)))
            .expect("bitmap dimensions overflow");
        Bitmap {
            nrows,
            ncols,
            present: vec![0; cells.div_ceil(64)],
            data: vec![fill.clone(); cells],
            fill,
            nnz: 0,
        }
    }

    /// Materialize a sparse matrix as a bitmap, with the semiring zero as
    /// the vacant fill.
    pub fn from_dcsr<S: Semiring<Value = T>>(m: &Dcsr<T>, s: S) -> Self {
        let mut b = Bitmap::new(m.nrows(), m.ncols(), s.zero());
        for (r, c, v) in m.iter() {
            b.set(r, c, v.clone());
        }
        b
    }

    /// Compress to hypersparse (presence bits drive inclusion; values are
    /// not re-tested against zero — the bitmap is authoritative).
    pub fn to_dcsr(&self) -> Dcsr<T> {
        let mut out = DcsrBuilder::with_capacity(self.nrows, self.ncols, 0);
        for r in 0..self.nrows {
            out.row(r);
            for c in 0..self.ncols {
                if self.contains(r, c) {
                    out.push(c, self.data[self.offset(r, c)].clone());
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

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// `true` if the cell is occupied.
    pub fn contains(&self, row: Ix, col: Ix) -> bool {
        let o = self.offset(row, col);
        self.present[o / 64] >> (o % 64) & 1 == 1
    }

    /// Point lookup.
    pub fn get(&self, row: Ix, col: Ix) -> Option<&T> {
        if self.contains(row, col) {
            Some(&self.data[self.offset(row, col)])
        } else {
            None
        }
    }

    /// O(1) random insert/overwrite — the operation this format exists for.
    pub fn set(&mut self, row: Ix, col: Ix, v: T) {
        let o = self.offset(row, col);
        if self.present[o / 64] >> (o % 64) & 1 == 0 {
            self.present[o / 64] |= 1 << (o % 64);
            self.nnz += 1;
        }
        self.data[o] = v;
    }

    /// O(1) delete. Returns `true` if the cell was occupied.
    pub fn remove(&mut self, row: Ix, col: Ix) -> bool {
        let o = self.offset(row, col);
        if self.present[o / 64] >> (o % 64) & 1 == 1 {
            self.present[o / 64] &= !(1 << (o % 64));
            self.data[o] = self.fill.clone();
            self.nnz -= 1;
            true
        } else {
            false
        }
    }

    /// Iterate occupied cells in `(row, col)` order.
    pub fn iter(&self) -> impl Iterator<Item = (Ix, Ix, &T)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            (0..self.ncols).filter_map(move |c| self.get(r, c).map(|v| (r, c, v)))
        })
    }

    /// Heap bytes: value slots plus one bit per cell.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>() + self.present.len() * 8
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
    use semiring::PlusTimes;

    #[test]
    fn set_get_remove() {
        let mut b = Bitmap::new(4, 4, 0.0f64);
        assert_eq!(b.get(1, 1), None);
        b.set(1, 1, 5.0);
        assert_eq!(b.get(1, 1), Some(&5.0));
        assert_eq!(b.nnz(), 1);
        b.set(1, 1, 6.0); // overwrite does not double-count
        assert_eq!(b.nnz(), 1);
        assert!(b.remove(1, 1));
        assert!(!b.remove(1, 1));
        assert_eq!(b.nnz(), 0);
    }

    #[test]
    fn explicit_zero_is_representable() {
        // Unlike dense-with-sentinel, the bitmap can store a value equal
        // to the fill and still know the cell is occupied.
        let mut b = Bitmap::new(2, 2, 0.0f64);
        b.set(0, 0, 0.0);
        assert!(b.contains(0, 0));
        assert_eq!(b.nnz(), 1);
    }

    #[test]
    fn dcsr_round_trip() {
        let mut c = Coo::new(5, 5);
        c.extend([(0, 4, 1.0), (2, 2, 2.0), (4, 0, 3.0)]);
        let d = c.build_dcsr(PlusTimes::<f64>::new());
        let b = Bitmap::from_dcsr(&d, PlusTimes::<f64>::new());
        assert_eq!(b.nnz(), 3);
        assert_eq!(b.to_dcsr(), d);
    }

    #[test]
    fn iter_is_row_major() {
        let mut b = Bitmap::new(3, 3, 0i64);
        b.set(2, 0, 1);
        b.set(0, 2, 2);
        let order: Vec<_> = b.iter().map(|(r, c, &v)| (r, c, v)).collect();
        assert_eq!(order, vec![(0, 2, 2), (2, 0, 1)]);
    }

    #[test]
    fn bytes_has_bit_overhead() {
        let b = Bitmap::new(64, 64, 0.0f64);
        // 4096 cells: 4096 f64 slots + 64 u64 words of bits.
        assert_eq!(b.bytes(), 4096 * 8 + 64 * 8);
    }
}
