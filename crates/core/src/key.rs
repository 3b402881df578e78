//! Sortable key sets and dictionary alignment.
//!
//! §III: row and column keys "can be any sortable sets, such as the
//! integers, real numbers, or strings". A key dictionary is a sorted,
//! deduplicated `Vec<K>`; an array's matrix indices are positions in its
//! dictionaries. Binary operations align operands by merging dictionaries
//! — the maps from old to new positions are strictly increasing, so the
//! sorted sparse structure is preserved under remapping.

use hypersparse::{Dcsr, Ix};
use semiring::traits::Value;

/// A sortable key: anything ordered, hashable, cloneable, and printable.
pub trait Key: Ord + Clone + std::fmt::Debug + Send + Sync + 'static {}
impl<K: Ord + Clone + std::fmt::Debug + Send + Sync + 'static> Key for K {}

/// Sort + dedup a key list into a dictionary.
pub fn make_dict<K: Key>(mut keys: Vec<K>) -> Vec<K> {
    keys.sort();
    keys.dedup();
    keys
}

/// Rank a key list in one sort: `make_dict(keys)`, with each key moved
/// (never cloned) into it, and each input key's `u32` position there.
pub fn rank_keys<K: Ord>(keys: Vec<K>) -> (Vec<K>, Vec<u32>) {
    let (mut dict, mut rank) = (Vec::new(), vec![0; keys.len()]);
    let mut tagged: Vec<(K, usize)> = keys.into_iter().zip(0..).collect();
    tagged.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    for (k, i) in tagged {
        if dict.last() != Some(&k) {
            dict.push(k);
        }
        rank[i] = u32::try_from(dict.len() - 1).expect("a dictionary holds fewer than 2³² keys");
    }
    (dict, rank)
}

/// Binary-search a dictionary.
pub fn dict_index<K: Key>(dict: &[K], key: &K) -> Option<Ix> {
    dict.binary_search(key).ok().map(|i| i as Ix)
}

/// Merge two sorted dictionaries; returns the union plus, for each input,
/// the strictly increasing map `old position → union position`.
pub fn union_dicts<K: Key>(a: &[K], b: &[K]) -> (Vec<K>, Vec<Ix>, Vec<Ix>) {
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let mut map_a = Vec::with_capacity(a.len());
    let mut map_b = Vec::with_capacity(b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        if j >= b.len() || (i < a.len() && a[i] < b[j]) {
            map_a.push(merged.len() as Ix);
            merged.push(a[i].clone());
            i += 1;
        } else if i >= a.len() || b[j] < a[i] {
            map_b.push(merged.len() as Ix);
            merged.push(b[j].clone());
            j += 1;
        } else {
            map_a.push(merged.len() as Ix);
            map_b.push(merged.len() as Ix);
            merged.push(a[i].clone());
            i += 1;
            j += 1;
        }
    }
    (merged, map_a, map_b)
}

/// Sorted intersection of two dictionaries.
pub fn intersect_dicts<K: Key>(a: &[K], b: &[K]) -> Vec<K> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Rewrite a matrix's row/column ids through strictly increasing position
/// maps (identity if `None`) into a key space of the given dimensions.
/// Monotone maps preserve sortedness, so this is a straight `O(nnz)` copy.
pub fn remap<T: Value>(
    m: &Dcsr<T>,
    row_map: Option<&[Ix]>,
    col_map: Option<&[Ix]>,
    new_nrows: Ix,
    new_ncols: Ix,
) -> Dcsr<T> {
    debug_assert!(row_map.is_none_or(|f| f.windows(2).all(|w| w[0] < w[1])));
    debug_assert!(col_map.is_none_or(|f| f.windows(2).all(|w| w[0] < w[1])));
    let mut rows = Vec::with_capacity(m.n_nonempty_rows());
    let mut rowptr = vec![0usize];
    let mut colidx = Vec::with_capacity(m.nnz());
    let mut vals = Vec::with_capacity(m.nnz());
    for (r, cols, vs) in m.iter_rows() {
        rows.push(match row_map {
            Some(f) => f[r as usize],
            None => r,
        });
        for (&c, v) in cols.iter().zip(vs) {
            colidx.push(match col_map {
                Some(f) => f[c as usize],
                None => c,
            });
            vals.push(v.clone());
        }
        rowptr.push(colidx.len());
    }
    Dcsr::from_parts(new_nrows, new_ncols, rows, rowptr, colidx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_dict_sorts_and_dedups() {
        assert_eq!(make_dict(vec!["b", "a", "b", "c"]), vec!["a", "b", "c"]);
        assert_eq!(dict_index(&["a", "b", "c"], &"b"), Some(1));
        assert_eq!(dict_index(&["a", "b", "c"], &"z"), None);
        let (dict, rank) = rank_keys(vec!["b", "a", "b", "c"]);
        assert_eq!((dict, rank), (vec!["a", "b", "c"], vec![1, 0, 1, 2]));
    }

    #[test]
    fn union_maps_are_consistent() {
        let a = vec!["a", "c", "e"];
        let b = vec!["b", "c", "d"];
        let (u, ma, mb) = union_dicts(&a, &b);
        assert_eq!(u, vec!["a", "b", "c", "d", "e"]);
        for (i, &p) in ma.iter().enumerate() {
            assert_eq!(u[p as usize], a[i]);
        }
        for (j, &p) in mb.iter().enumerate() {
            assert_eq!(u[p as usize], b[j]);
        }
        // Strictly increasing maps.
        assert!(ma.windows(2).all(|w| w[0] < w[1]));
        assert!(mb.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn union_with_empty() {
        let a: Vec<&str> = vec![];
        let b = vec!["x", "y"];
        let (u, ma, mb) = union_dicts(&a, &b);
        assert_eq!(u, b);
        assert!(ma.is_empty());
        assert_eq!(mb, vec![0, 1]);
    }

    #[test]
    fn intersection() {
        assert_eq!(
            intersect_dicts(&["a", "b", "c"], &["b", "c", "d"]),
            vec!["b", "c"]
        );
        assert!(intersect_dicts(&["a"], &["b"]).is_empty());
    }

    #[test]
    fn remap_preserves_structure() {
        use hypersparse::Coo;
        use semiring::PlusTimes;
        let mut c = Coo::new(3, 3);
        c.extend([(0, 0, 1.0), (0, 2, 2.0), (2, 1, 3.0)]);
        let m = c.build_dcsr(PlusTimes::<f64>::new());
        // Rows {0,1,2} → {1,3,5}; cols {0,1,2} → {0,2,4}.
        let r = remap(&m, Some(&[1, 3, 5]), Some(&[0, 2, 4]), 6, 6);
        assert_eq!(r.get(1, 0), Some(&1.0));
        assert_eq!(r.get(1, 4), Some(&2.0));
        assert_eq!(r.get(5, 2), Some(&3.0));
        assert_eq!(r.nnz(), 3);
    }
}
