//! The NoSQL view: a (subject, predicate, object) triple store.
//!
//! Every record field becomes a triple `(record_id, field, value)`,
//! indexed in both directions — the Dynamo/Cassandra/HBase/Accumulo
//! school of Fig. 6. Both indexes are one interned [`Columns`] set's
//! `id × cell` pattern and its transpose, the same two matrices
//! [`crate::AssocTable`] wraps; a point lookup is a dictionary search
//! and a borrowed row. The comparison
//! against full-scan [`crate::RowTable`] and array-algebraic
//! [`crate::AssocTable`] is the Fig. 6 bench.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use hypersparse::Ix;

use crate::query::{Pred, Select};
use crate::{Columns, Record};

/// A doubly-indexed triple store over an interned [`Columns`] set: its
/// `by_id` pattern is the "what does this record hold" index (id rank →
/// cell ranks), its `by_cell` pattern the "who has this value" index
/// (cell rank → subject id ranks).
#[derive(Clone, Debug, Default)]
pub struct TripleStore {
    cols: Arc<Columns>,
}

impl TripleStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk-load records as triples.
    pub fn from_records(records: Vec<(String, Record)>) -> Self {
        Self::from_columns(Arc::new(Columns::from_records(records)))
    }

    /// Both indexes are the interned column set's own pattern.
    pub fn from_columns(cols: Arc<Columns>) -> Self {
        TripleStore { cols }
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.cols.rec_cells.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id ranks of subjects with `predicate = object`, in id order —
    /// one index probe, borrowed.
    fn subject_ranks(&self, predicate: &str, object: &str) -> &[Ix] {
        let key = format!("{predicate}|{object}");
        let cell = self.cols.cells.binary_search(&key);
        cell.map_or(&[], |c| self.cols.by_cell.row(c as Ix).0)
    }

    /// Objects of subject rank `s` under `predicate`, in value order.
    fn objects_of<'a>(&'a self, s: Ix, predicate: &'a str) -> impl Iterator<Item = &'a str> {
        let cells = self.cols.by_id.row(s).0.iter();
        cells.filter_map(move |&c| self.cols.value_of(c, predicate))
    }

    fn ids_of(&self, ranks: &[Ix]) -> Vec<String> {
        let ids = &self.cols.ids;
        ranks.iter().map(|&r| ids[r as usize].clone()).collect()
    }

    /// Subjects with `predicate = object` — one index probe.
    pub fn subjects(&self, predicate: &str, object: &str) -> BTreeSet<String> {
        let ids = self.ids_of(self.subject_ranks(predicate, object));
        ids.into_iter().collect()
    }

    /// Objects of `subject.predicate` — one index probe.
    pub fn objects(&self, subject: &str, predicate: &str) -> BTreeSet<String> {
        let ids = &self.cols.ids;
        let Ok(s) = ids.binary_search_by(|id| id.as_str().cmp(subject)) else {
            return BTreeSet::new();
        };
        let objects = self.objects_of(s as Ix, predicate);
        objects.map(str::to_string).collect()
    }

    /// Fig. 6's query via index hops: records where `src = host` yield
    /// their `dst`, records where `dst = host` yield their `src`. Every
    /// hop borrows; only the answer's hosts are copied.
    pub fn neighbors(&self, host: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (by, to) in [("src", "dst"), ("dst", "src")] {
            for &s in self.subject_ranks(by, host) {
                out.extend(self.objects_of(s, to));
            }
        }
        out.into_iter().map(str::to_string).collect()
    }

    /// `GROUP BY predicate` value counts (subjects per object).
    pub fn group_count(&self, predicate: &str) -> HashMap<String, usize> {
        let held = self.cols.by_cell.iter_rows();
        let counts = held.filter_map(|(c, subjects, _)| {
            let value = self.cols.value_of(c, predicate)?;
            Some((value.to_string(), subjects.len()))
        });
        counts.collect()
    }

    /// Every subject id, sorted.
    pub fn subject_ids(&self) -> Vec<String> {
        self.ids_of(self.cols.by_id.row_ids())
    }
}

/// The NoSQL engine answers the shared predicate language by index
/// probes: an `Eq` leaf is one `by_cell` hop, an `In` leaf a union of hops;
/// compound expressions use the trait's sorted-id set algebra.
impl Select for TripleStore {
    fn ids_matching(&self, p: &Pred) -> Vec<String> {
        match p {
            Pred::Eq(f, v) => self.ids_of(self.subject_ranks(f, v)),
            Pred::In(f, vs) => {
                let hits = vs.iter().flat_map(|v| self.subject_ranks(f, v));
                let mut ranks: Vec<Ix> = hits.copied().collect();
                ranks.sort_unstable();
                ranks.dedup();
                self.ids_of(&ranks)
            }
        }
    }

    fn all_ids(&self) -> Vec<String> {
        self.subject_ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TripleStore {
        TripleStore::from_records(vec![
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
    fn indexes_answer_point_queries() {
        let t = store();
        assert_eq!(
            t.subjects("src", "a").into_iter().collect::<Vec<_>>(),
            vec!["r1", "r3"]
        );
        assert_eq!(
            t.objects("r1", "dst").into_iter().collect::<Vec<_>>(),
            vec!["b"]
        );
        assert!(t.subjects("src", "zzz").is_empty());
    }

    #[test]
    fn neighbors_match_rowstore() {
        let t = store();
        let r = crate::RowTable::from_records(vec![
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
        ]);
        assert_eq!(t.neighbors("a"), r.neighbors("a"));
        assert_eq!(t.neighbors("b"), r.neighbors("b"));
    }

    #[test]
    fn group_count_matches_manual() {
        let t = store();
        let g = t.group_count("src");
        assert_eq!(g["a"], 2);
        assert_eq!(g["b"], 1);
    }

    #[test]
    fn triple_count() {
        assert_eq!(store().len(), 6);
    }
}
