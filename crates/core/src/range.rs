//! Key-range and prefix queries — D4M's `A("a,:,b,", :)` row ranges.
//!
//! Because dictionaries are sorted, any contiguous key range is a binary
//! search plus a slice; string prefixes (`"src|*"`) are the half-open
//! range `[prefix, prefix ⊕ MAX)`. These are the access patterns that make
//! the exploded database schema efficient.

use std::ops::Bound;

use semiring::traits::{Semiring, Value};

use crate::assoc::Assoc;
use crate::key::Key;

/// Keys of a sorted dictionary falling in `range`.
pub fn keys_in_range<K: Key, R: std::ops::RangeBounds<K>>(dict: &[K], range: R) -> &[K] {
    let lo = match range.start_bound() {
        Bound::Unbounded => 0,
        Bound::Included(k) => dict.partition_point(|x| x < k),
        Bound::Excluded(k) => dict.partition_point(|x| x <= k),
    };
    let hi = match range.end_bound() {
        Bound::Unbounded => dict.len(),
        Bound::Included(k) => dict.partition_point(|x| x <= k),
        Bound::Excluded(k) => dict.partition_point(|x| x < k),
    };
    &dict[lo..hi.max(lo)]
}

/// String keys starting with `prefix`.
pub fn keys_with_prefix<'d>(dict: &'d [String], prefix: &str) -> &'d [String] {
    let lo = dict.partition_point(|x| x.as_str() < prefix);
    let hi = dict[lo..].partition_point(|x| x.starts_with(prefix)) + lo;
    &dict[lo..hi]
}

/// `A(row_range, :)` — subarray of the rows whose keys fall in `range`.
pub fn extract_row_range<K1, K2, T, S, R>(a: &Assoc<K1, K2, T>, range: R, s: S) -> Assoc<K1, K2, T>
where
    K1: Key,
    K2: Key,
    T: Value,
    S: Semiring<Value = T>,
    R: std::ops::RangeBounds<K1>,
{
    let rows = keys_in_range(a.row_keys(), range).to_vec();
    a.extract(rows, a.col_keys().to_vec(), s)
}

/// `A(:, col_range)` — subarray of the columns whose keys fall in `range`.
pub fn extract_col_range<K1, K2, T, S, R>(a: &Assoc<K1, K2, T>, range: R, s: S) -> Assoc<K1, K2, T>
where
    K1: Key,
    K2: Key,
    T: Value,
    S: Semiring<Value = T>,
    R: std::ops::RangeBounds<K2>,
{
    let cols = keys_in_range(a.col_keys(), range).to_vec();
    a.extract(a.row_keys().to_vec(), cols, s)
}

/// `A("prefix*", :)` for string row keys.
pub fn extract_row_prefix<K2, T, S>(
    a: &Assoc<String, K2, T>,
    prefix: &str,
    s: S,
) -> Assoc<String, K2, T>
where
    K2: Key,
    T: Value,
    S: Semiring<Value = T>,
{
    let rows = keys_with_prefix(a.row_keys(), prefix).to_vec();
    a.extract(rows, a.col_keys().to_vec(), s)
}

/// `A(:, "prefix*")` for string column keys.
pub fn extract_col_prefix<K1, T, S>(
    a: &Assoc<K1, String, T>,
    prefix: &str,
    s: S,
) -> Assoc<K1, String, T>
where
    K1: Key,
    T: Value,
    S: Semiring<Value = T>,
{
    let cols = keys_with_prefix(a.col_keys(), prefix).to_vec();
    a.extract(a.row_keys().to_vec(), cols, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semiring::PlusTimes;

    fn s() -> PlusTimes<f64> {
        PlusTimes::new()
    }

    fn table() -> Assoc<String, String, f64> {
        Assoc::from_triplets(
            vec![
                ("r01".into(), "dst|b".into(), 1.0),
                ("r02".into(), "src|a".into(), 1.0),
                ("r03".into(), "src|c".into(), 1.0),
                ("r10".into(), "port|80".into(), 1.0),
            ],
            s(),
        )
    }

    #[test]
    fn range_selection_on_dicts() {
        let dict: Vec<String> = ["a", "b", "c", "d"].map(String::from).to_vec();
        assert_eq!(
            keys_in_range(&dict, "b".to_string().."d".to_string()),
            &["b".to_string(), "c".to_string()][..]
        );
        assert_eq!(keys_in_range(&dict, ..), &dict[..]);
        assert_eq!(
            keys_in_range(&dict, "b".to_string()..="d".to_string()).len(),
            3
        );
        assert!(keys_in_range(&dict, "x".to_string()..).is_empty());
    }

    #[test]
    fn prefix_selection() {
        let a = table();
        let cols = keys_with_prefix(a.col_keys(), "src|");
        assert_eq!(cols, &["src|a".to_string(), "src|c".to_string()][..]);
        assert!(keys_with_prefix(a.col_keys(), "zzz|").is_empty());
    }

    #[test]
    fn row_range_extraction() {
        let a = table();
        let sub = extract_row_range(&a, "r01".to_string()..="r03".to_string(), s());
        assert_eq!(sub.nnz(), 3);
        assert!(sub
            .get(&"r10".to_string(), &"port|80".to_string())
            .is_none());
    }

    #[test]
    fn row_prefix_extraction() {
        let a = table();
        let r0 = extract_row_prefix(&a, "r0", s());
        assert_eq!(r0.nnz(), 3);
        assert_eq!(r0.row_keys().len(), 3);
        assert!(r0.get(&"r10".to_string(), &"port|80".to_string()).is_none());
        assert!(extract_row_prefix(&a, "zzz", s()).row_keys().is_empty());
    }

    #[test]
    fn col_prefix_extraction_is_field_scan() {
        let a = table();
        let srcs = extract_col_prefix(&a, "src|", s());
        assert_eq!(srcs.nnz(), 2);
        assert_eq!(srcs.col_keys().len(), 2);
    }

    #[test]
    fn col_range_extraction() {
        let a = table();
        let sub = extract_col_range(&a, "port|".to_string().."src|".to_string(), s());
        assert_eq!(sub.nnz(), 1); // only port|80
    }
}
