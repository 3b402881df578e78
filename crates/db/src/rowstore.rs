//! The SQL-flavoured baseline: a row store queried by full scans.
//!
//! This is deliberately the *obvious* implementation — rows scanned one
//! by one, each field looked up by name — so the Fig. 6 bench can compare
//! the associative-array formulations against what a naive relational
//! executor does. The rows are an interned [`Columns`] set's records.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::{Columns, Record};

/// A table of records keyed by record id, in arrival order.
#[derive(Clone, Debug, Default)]
pub struct RowTable {
    cols: Arc<Columns>,
}

/// One row of a [`RowTable`]: the column set's cell spellings and the
/// row's cell ranks, read by field name.
#[derive(Clone, Copy, Debug)]
pub struct RowRef<'a>(&'a [String], &'a [u32]);

impl<'a> RowRef<'a> {
    /// The row's `(field, value)` cells, in the order given.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        let spellings = self.0;
        let split = move |&c: &u32| spellings[c as usize].split_once('|');
        self.1.iter().filter_map(split)
    }

    /// The value of `field` (the last one given, as a map would keep).
    pub fn get(&self, field: &str) -> Option<&'a str> {
        let last = self.iter().filter(|(f, _)| *f == field).last();
        last.map(|(_, v)| v)
    }
}

impl RowTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk-load records.
    pub fn from_records(records: Vec<(String, Record)>) -> Self {
        Self::from_columns(Arc::new(Columns::from_records(records)))
    }

    /// The rows of an interned column set, in arrival order.
    pub fn from_columns(cols: Arc<Columns>) -> Self {
        RowTable { cols }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// `true` if the table has no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `SELECT * WHERE field = value` — full scan. Returns record ids.
    pub fn select_eq(&self, field: &str, value: &str) -> Vec<&str> {
        self.iter()
            .filter(|(_, r)| r.get(field) == Some(value))
            .map(|(id, _)| id)
            .collect()
    }

    /// `SELECT out_field WHERE field = value` — project one column of the
    /// matching rows (distinct, sorted).
    pub fn select_project(&self, field: &str, value: &str, out_field: &str) -> BTreeSet<String> {
        self.iter()
            .filter(|(_, r)| r.get(field) == Some(value))
            .filter_map(|(_, r)| r.get(out_field).map(str::to_string))
            .collect()
    }

    /// Fig. 6's query: the graph neighbors of `host` — destinations of
    /// flows it sources plus sources of flows it receives.
    pub fn neighbors(&self, host: &str) -> BTreeSet<String> {
        let mut out = self.select_project("src", host, "dst");
        out.extend(self.select_project("dst", host, "src"));
        out
    }

    /// `GROUP BY field COUNT(*)` — full scan.
    pub fn group_count(&self, field: &str) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for (_, r) in self.iter() {
            if let Some(v) = r.get(field) {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            .map(|(v, n)| (v.to_string(), n))
            .collect()
    }

    /// Nested-loop equi-join with another table on `field` = `other_field`:
    /// returns matching `(id_left, id_right)` pairs.
    pub fn join_ids(
        &self,
        other: &RowTable,
        field: &str,
        other_field: &str,
    ) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (lid, lrow) in self.iter() {
            let Some(lv) = lrow.get(field) else { continue };
            for (rid, rrow) in other.iter() {
                if rrow.get(other_field) == Some(lv) {
                    out.push((lid.to_string(), rid.to_string()));
                }
            }
        }
        out.sort();
        out
    }

    /// Ids of the rows `keep` accepts, sorted.
    pub(crate) fn ids_where(&self, keep: impl Fn(RowRef<'_>) -> bool) -> Vec<String> {
        let kept = self.iter().filter(|&(_, row)| keep(row));
        let mut ids: Vec<&str> = kept.map(|(id, _)| id).collect();
        ids.sort_unstable();
        ids.into_iter().map(str::to_string).collect()
    }

    /// Iterate `(id, row)` in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, RowRef<'_>)> {
        let cols = &*self.cols;
        (0..cols.len()).map(move |k| {
            let (id, cells) = cols.record(k);
            (cols.ids[id as usize].as_str(), RowRef(&cols.cells, cells))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RowTable {
        RowTable::from_records(vec![
            (
                "r1".into(),
                vec![("src".into(), "a".into()), ("dst".into(), "b".into())],
            ),
            (
                "r2".into(),
                vec![("src".into(), "b".into()), ("dst".into(), "a".into())],
            ),
            (
                "r3".into(),
                vec![("src".into(), "a".into()), ("dst".into(), "c".into())],
            ),
        ])
    }

    #[test]
    fn select_scans() {
        let t = table();
        assert_eq!(t.select_eq("src", "a"), vec!["r1", "r3"]);
        assert_eq!(t.select_eq("src", "z"), Vec::<&str>::new());
    }

    #[test]
    fn neighbors_both_directions() {
        let t = table();
        let n = t.neighbors("a");
        assert_eq!(n.into_iter().collect::<Vec<_>>(), vec!["b", "c"]);
    }

    #[test]
    fn group_count() {
        let t = table();
        let g = t.group_count("src");
        assert_eq!(g["a"], 2);
        assert_eq!(g["b"], 1);
    }

    #[test]
    fn join_on_field() {
        let t = table();
        // Self-join src = dst: flows whose source is another flow's dest.
        let pairs = t.join_ids(&t, "src", "dst");
        assert!(pairs.contains(&("r1".into(), "r2".into()))); // src a = dst a
        assert!(pairs.contains(&("r2".into(), "r1".into()))); // src b = dst b
    }
}
