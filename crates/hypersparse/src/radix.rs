//! The crate's one sort: a stable LSD radix sort by `(row, col)`.
//!
//! Keys live in a ~2⁶⁰ × 2⁶⁰ space but a buffer of them varies in only
//! a few bytes (the hosts of one window, the columns of one pattern),
//! so the sort first ORs every key's difference from the first one and
//! then runs one counting pass per byte in which some key differs —
//! least significant column byte first, most significant row byte last.
//! The cost follows the occupied keys, never the key space.
//!
//! Each pass is stable, so records with equal keys leave in the order
//! they arrived: a ⊕-fold over a sorted duplicate group runs in
//! insertion order, exactly as under a stable comparison sort. Callers
//! sort small `Copy` records (`(row, col, position)`, or bare column
//! ids) and move each value once afterwards, so a non-`Copy` value such
//! as a `PSet` is never cloned by a pass.

use crate::Ix;

/// The two record buffers a `(row, col, position)` sort ping-pongs
/// between; owned by whoever sorts repeatedly, so a flush allocates
/// nothing once they have grown to the buffer's size.
#[derive(Clone, Debug, Default)]
pub(crate) struct SortScratch {
    pub(crate) recs: Vec<(Ix, Ix, usize)>,
    pub(crate) tmp: Vec<(Ix, Ix, usize)>,
}

/// Stable sort of `recs` by `key(rec)`, ordered as `(row, col)` pairs.
/// `tmp` is the second buffer; its contents afterwards are unspecified.
pub(crate) fn radix_sort_by_key<R: Copy>(
    recs: &mut Vec<R>,
    tmp: &mut Vec<R>,
    key: impl Fn(&R) -> (Ix, Ix),
) {
    let Some(&first) = recs.first() else { return };
    let (row0, col0) = key(&first);
    let (mut row_diff, mut col_diff) = (0, 0);
    for r in recs.iter() {
        let (row, col) = key(r);
        row_diff |= row ^ row0;
        col_diff |= col ^ col0;
    }
    tmp.clear();
    tmp.resize(recs.len(), first);
    for (by_row, diff) in [(false, col_diff), (true, row_diff)] {
        for shift in (0..Ix::BITS).step_by(8) {
            if (diff >> shift) & 0xff == 0 {
                continue;
            }
            let digit = |r: &R| {
                let (row, col) = key(r);
                ((if by_row { row } else { col }) >> shift) as u8 as usize
            };
            let mut next = [0usize; 256];
            for r in recs.iter() {
                next[digit(r)] += 1;
            }
            let mut start = 0;
            for slot in next.iter_mut() {
                let count = *slot;
                *slot = start;
                start += count;
            }
            for r in recs.iter() {
                let d = digit(r);
                tmp[next[d]] = *r;
                next[d] += 1;
            }
            std::mem::swap(recs, tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_stably_and_skips_constant_bytes() {
        // Keys differ in one column byte and one high row byte only;
        // the payload records arrival order.
        let hi = 1u64 << 59;
        let mut recs: Vec<(Ix, Ix, usize)> = [(hi, 7), (0, 7), (hi, 3), (0, 7), (hi, 7), (0, 3)]
            .into_iter()
            .enumerate()
            .map(|(k, (r, c))| (r, c, k))
            .collect();
        let mut oracle = recs.clone();
        oracle.sort_by_key(|r| (r.0, r.1));
        radix_sort_by_key(&mut recs, &mut Vec::new(), |r| (r.0, r.1));
        assert_eq!(recs, oracle);
    }

    #[test]
    fn empty_and_single_inputs_are_untouched() {
        let mut none: Vec<Ix> = Vec::new();
        radix_sort_by_key(&mut none, &mut Vec::new(), |&c| (0, c));
        assert!(none.is_empty());
        let mut one = vec![42u64];
        radix_sort_by_key(&mut one, &mut Vec::new(), |&c| (0, c));
        assert_eq!(one, [42]);
    }
}
