//! The D4M exploded-schema table — the associative-array view of Fig. 6.
//!
//! Each record `(id, [(field, value)…])` becomes row `id` with a `1` in
//! column `field|value`. Under this schema:
//!
//! * `SELECT … WHERE field = value` is a *column extraction*;
//! * equi-joins are *array multiplies* of field subarrays;
//! * `GROUP BY field COUNT(*)` is a *column reduction*;
//! * the graph adjacency of two fields is the Fig. 3 projection
//!   `A = E_srcᵀ ⊕.⊗ E_dst` applied to table columns.
//!
//! A transposed copy is maintained as the column index (the classic D4M
//! `Tedge`/`TedgeT` pair), so row and column access are both `O(row)`.
//! Both wrap the one [`Columns`] set's pattern and its transpose,
//! sharing its dictionaries.

use std::collections::BTreeSet;
use std::sync::Arc;

use hyperspace_core::semilink::{support_cols, support_rows};
use hyperspace_core::Assoc;
use hypersparse::{Dcsr, Matrix};
use semiring::{PSet, PlusMonoid, PlusTimes, UnionIntersect};

use crate::{Columns, Record};

type S = PlusTimes<f64>;
type Arr = Assoc<String, String, f64>;

fn s() -> S {
    PlusTimes::new()
}

/// An exploded-schema associative-array table.
#[derive(Clone, Debug)]
pub struct AssocTable {
    arr: Arr,
    arr_t: Arr,
}

impl AssocTable {
    /// Bulk-load records into the exploded schema.
    pub fn from_records(records: Vec<(String, Record)>) -> Self {
        Self::from_columns(&Columns::from_records(records))
    }

    /// Bulk-build from an interned column set: its record ids and its
    /// `field|value` cells are the two dictionaries (shared, not copied),
    /// and its pattern, in both orientations, the two matrices, each in
    /// the format [`hypersparse::Format::decide`] picks.
    pub fn from_columns(cols: &Columns) -> Self {
        let (ids, keys) = (&cols.ids, &cols.cells);
        let matrix = |d: &Dcsr<f64>| Matrix::from_dcsr(d.clone(), s());
        AssocTable {
            arr: Assoc::from_parts(Arc::clone(ids), Arc::clone(keys), matrix(&cols.by_id)),
            arr_t: Assoc::from_parts(Arc::clone(keys), Arc::clone(ids), matrix(&cols.by_cell)),
        }
    }

    /// The underlying `record × field|value` associative array.
    pub fn array(&self) -> &Arr {
        &self.arr
    }

    /// Number of stored (record, field|value) entries.
    pub fn nnz(&self) -> usize {
        self.arr.nnz()
    }

    /// Column keys in the half-open prefix range `field|` — D4M's
    /// key-range scan over the sorted column dictionary.
    pub fn columns_of_field(&self, field: &str) -> Vec<String> {
        let lo = format!("{field}|");
        let hi = format!("{field}|\u{10FFFF}");
        self.arr
            .col_keys()
            .iter()
            .filter(|k| **k >= lo && **k <= hi)
            .cloned()
            .collect()
    }

    /// `SELECT id WHERE field = value`: one column lookup via the
    /// transposed index.
    pub fn select_eq(&self, field: &str, value: &str) -> Vec<String> {
        self.arr_t
            .row(&format!("{field}|{value}"))
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// The field's subarray `record × value` with the `field|` prefix
    /// stripped from column keys.
    pub fn field_subarray(&self, field: &str) -> Arr {
        let cols = self.columns_of_field(field);
        let sub = self.arr.extract(self.arr.row_keys().to_vec(), cols, s());
        sub.map_col_keys(|c| c[field.len() + 1..].to_string(), s())
    }

    /// `SELECT out_field WHERE field = value` (distinct values):
    /// a column extraction followed by a row extraction.
    pub fn select_project(&self, field: &str, value: &str, out_field: &str) -> BTreeSet<String> {
        let ids = self.select_eq(field, value);
        let sub = self.arr.extract(ids, self.columns_of_field(out_field), s());
        let prefix_len = out_field.len() + 1;
        support_cols(&sub)
            .into_iter()
            .map(|c| c[prefix_len..].to_string())
            .collect()
    }

    /// The Fig. 3 projection on table columns: adjacency
    /// `A = E_srcᵀ ⊕.⊗ E_dst`, a `host × host` array whose values count
    /// the flows between each pair.
    pub fn adjacency(&self, src_field: &str, dst_field: &str) -> Arr {
        let e_src = self.field_subarray(src_field);
        let e_dst = self.field_subarray(dst_field);
        e_src.transpose(s()).matmul(&e_dst, s())
    }

    /// Fig. 6's query, purely algebraically: the neighbors of `host` are
    /// the `dst` values of the records whose `src` is `host` plus the
    /// `src` values of those whose `dst` is — the column support of
    /// `host`'s [`AssocTable::adjacency`] row and the row support of its
    /// column, read off two selections instead of the whole projection.
    pub fn neighbors(&self, host: &str) -> BTreeSet<String> {
        let mut out = self.select_project("src", host, "dst");
        out.extend(self.select_project("dst", host, "src"));
        out
    }

    /// `GROUP BY field COUNT(*)` as a column reduction.
    pub fn group_count(&self, field: &str) -> Vec<(String, usize)> {
        let prefix_len = field.len() + 1;
        let sub = self.arr.extract(
            self.arr.row_keys().to_vec(),
            self.columns_of_field(field),
            s(),
        );
        sub.reduce_cols(PlusMonoid::<f64>::default())
            .into_iter()
            .map(|(k, v)| (k[prefix_len..].to_string(), v as usize))
            .collect()
    }

    /// Equi-join with another table on `field` = `other_field` as an
    /// array multiply of field subarrays: the result's `(id₁, id₂)`
    /// entries mark record pairs sharing a value.
    pub fn join_ids(
        &self,
        other: &AssocTable,
        field: &str,
        other_field: &str,
    ) -> Vec<(String, String)> {
        let e1 = self.field_subarray(field);
        let e2 = other.field_subarray(other_field);
        let j = e1.matmul(&e2.transpose(s()), s());
        let mut out: Vec<(String, String)> = j
            .to_triplets()
            .into_iter()
            .map(|(a, b, _)| (a, b))
            .collect();
        out.sort();
        out
    }

    /// The dense-schema *set-valued* view used by the §V.B semilink
    /// select: row = record id, column = field, value = singleton
    /// `{atom(value)}`, over the `∪.∩` semiring.
    pub fn set_view(
        records: &[(String, Record)],
    ) -> (Assoc<String, String, PSet>, semiring::AtomTable) {
        let mut atoms = semiring::AtomTable::new();
        let mut trips = Vec::new();
        for (id, rec) in records {
            for (field, value) in rec {
                let a = atoms.intern(value);
                trips.push((id.clone(), field.clone(), PSet::singleton(a)));
            }
        }
        (Assoc::from_triplets(trips, UnionIntersect), atoms)
    }

    /// Record ids with any entry (the table's row support).
    pub fn record_ids(&self) -> Vec<String> {
        support_rows(&self.arr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowstore::RowTable;

    fn records() -> Vec<(String, Record)> {
        vec![
            (
                "r1".into(),
                vec![
                    ("src".into(), "a".into()),
                    ("dst".into(), "b".into()),
                    ("port".into(), "80".into()),
                ],
            ),
            (
                "r2".into(),
                vec![
                    ("src".into(), "b".into()),
                    ("dst".into(), "a".into()),
                    ("port".into(), "443".into()),
                ],
            ),
            (
                "r3".into(),
                vec![
                    ("src".into(), "a".into()),
                    ("dst".into(), "c".into()),
                    ("port".into(), "80".into()),
                ],
            ),
        ]
    }

    #[test]
    fn exploded_schema_shape() {
        let t = AssocTable::from_records(records());
        assert_eq!(t.nnz(), 9);
        assert_eq!(
            t.columns_of_field("src"),
            vec!["src|a".to_string(), "src|b".to_string()]
        );
    }

    #[test]
    fn select_is_column_lookup() {
        let t = AssocTable::from_records(records());
        assert_eq!(t.select_eq("src", "a"), vec!["r1", "r3"]);
        assert!(t.select_eq("src", "zzz").is_empty());
    }

    #[test]
    fn select_project_matches_rowstore() {
        let t = AssocTable::from_records(records());
        let r = RowTable::from_records(records());
        assert_eq!(
            t.select_project("src", "a", "dst"),
            r.select_project("src", "a", "dst")
        );
        assert_eq!(
            t.select_project("port", "80", "src"),
            r.select_project("port", "80", "src")
        );
    }

    #[test]
    fn adjacency_counts_flows() {
        let t = AssocTable::from_records(records());
        let adj = t.adjacency("src", "dst");
        assert_eq!(adj.get(&"a".into(), &"b".into()), Some(1.0));
        assert_eq!(adj.get(&"a".into(), &"c".into()), Some(1.0));
        assert_eq!(adj.get(&"b".into(), &"a".into()), Some(1.0));
        assert_eq!(adj.nnz(), 3);
    }

    #[test]
    fn neighbors_match_rowstore() {
        let t = AssocTable::from_records(records());
        let r = RowTable::from_records(records());
        for host in ["a", "b", "c"] {
            assert_eq!(t.neighbors(host), r.neighbors(host), "host {host}");
        }
    }

    #[test]
    fn group_count_is_column_reduction() {
        let t = AssocTable::from_records(records());
        let g = t.group_count("port");
        assert_eq!(g, vec![("443".to_string(), 1), ("80".to_string(), 2)]);
    }

    #[test]
    fn join_matches_rowstore() {
        let t = AssocTable::from_records(records());
        let r = RowTable::from_records(records());
        assert_eq!(t.join_ids(&t, "src", "dst"), r.join_ids(&r, "src", "dst"));
    }

    #[test]
    fn set_view_supports_semilink_select() {
        let recs = records();
        let (view, mut atoms) = AssocTable::set_view(&recs);
        let v = atoms.intern("a");
        let hit = hyperspace_core::select::select_semilink(&view, &"src".to_string(), v);
        assert_eq!(support_rows(&hit), vec!["r1".to_string(), "r3".to_string()]);
    }
}
