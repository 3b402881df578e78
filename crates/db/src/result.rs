//! Typed query results.
//!
//! [`ResultSet`] is what every query engine in this crate returns: an
//! ordered column list plus rows keyed by record id, sorted by id so two
//! engines' answers compare directly with `==` (the Fig. 6 duality
//! checks do exactly that). Rows expose named-column access; the set
//! iterates in id order.

use std::collections::BTreeMap;
use std::fmt;

/// One result row: a record id and its projected cells.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Row {
    id: String,
    cells: BTreeMap<String, String>,
}

impl Row {
    /// Build a row from an id and its `column → value` cells.
    pub fn new(id: String, cells: BTreeMap<String, String>) -> Self {
        Row { id, cells }
    }

    /// The record id this row belongs to.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The value in `column`, if the record has one.
    pub fn get(&self, column: &str) -> Option<&str> {
        self.cells.get(column).map(String::as_str)
    }

    /// Iterate `(column, value)` cells in column order.
    pub fn cells(&self) -> impl Iterator<Item = (&str, &str)> {
        self.cells.iter().map(|(c, v)| (c.as_str(), v.as_str()))
    }

    /// Number of populated cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when no cell is populated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// An ordered, named-column query result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResultSet {
    columns: Vec<String>,
    rows: Vec<Row>,
}

impl ResultSet {
    /// An empty result with the given column order.
    pub fn new(columns: Vec<String>) -> Self {
        ResultSet {
            columns,
            rows: Vec::new(),
        }
    }

    /// Assemble from `(id, cells)` pairs; rows are sorted by id so any
    /// two engines producing the same logical answer produce `==`
    /// `ResultSet`s.
    pub fn from_rows(columns: Vec<String>, rows: Vec<(String, BTreeMap<String, String>)>) -> Self {
        let mut rows: Vec<Row> = rows
            .into_iter()
            .map(|(id, cells)| Row::new(id, cells))
            .collect();
        rows.sort_by(|a, b| a.id.cmp(&b.id));
        ResultSet { columns, rows }
    }

    /// Append one row (kept sorted by id).
    pub fn push(&mut self, id: String, cells: BTreeMap<String, String>) {
        let at = self.rows.partition_point(|r| r.id.as_str() <= id.as_str());
        self.rows.insert(at, Row::new(id, cells));
    }

    /// Column names, in projection order (`SELECT *` yields the sorted
    /// union of fields present in the matched rows).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Rows, sorted by record id.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Iterate rows in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }

    /// Record ids, in order.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.rows.iter().map(Row::id)
    }

    /// One named column, as `row → Option<value>` in row order.
    pub fn column(&self, name: &str) -> Vec<Option<&str>> {
        self.rows.iter().map(|r| r.get(name)).collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no row matched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl<'a> IntoIterator for &'a ResultSet {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "id")?;
        for c in &self.columns {
            write!(f, " | {c}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{}", row.id)?;
            for c in &self.columns {
                write!(f, " | {}", row.get(c).unwrap_or(""))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(c, v)| (c.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn rows_sort_by_id_for_direct_equality() {
        let a = ResultSet::from_rows(
            vec!["x".into()],
            vec![
                ("r2".into(), cells(&[("x", "2")])),
                ("r1".into(), cells(&[("x", "1")])),
            ],
        );
        let b = ResultSet::from_rows(
            vec!["x".into()],
            vec![
                ("r1".into(), cells(&[("x", "1")])),
                ("r2".into(), cells(&[("x", "2")])),
            ],
        );
        assert_eq!(a, b);
        assert_eq!(a.ids().collect::<Vec<_>>(), vec!["r1", "r2"]);
    }

    #[test]
    fn named_column_access() {
        let mut rs = ResultSet::new(vec!["src".into(), "dst".into()]);
        rs.push("r1".into(), cells(&[("src", "a"), ("dst", "b")]));
        rs.push("r0".into(), cells(&[("src", "c")]));
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.column("src"), vec![Some("c"), Some("a")]);
        assert_eq!(rs.column("dst"), vec![None, Some("b")]);
        assert_eq!(rs.rows()[1].get("dst"), Some("b"));
        let printed = rs.to_string();
        assert!(printed.contains("id | src | dst"));
    }
}
