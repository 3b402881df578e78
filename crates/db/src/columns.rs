//! The interned column set every table engine bulk-builds from: D4M's
//! sorted string dictionaries at the edge, integers underneath. Each
//! distinct record id and each distinct cell, spelled `field|value` as
//! the exploded schema's column key (no field name holds a `|`), is
//! stored once and ranked by one sort; a record is a run of cell ranks.
//! The `id × cell` pattern is built once, in both orientations, and
//! every engine reads those two matrices. [`ColumnsBuilder`] is the one
//! way in, for `from_records` and for the serving layer's epoch views
//! alike.

use std::collections::HashMap;
use std::sync::Arc;

use hyperspace_core::key::rank_keys;
use hypersparse::{Coo, Dcsr, Ix};
use semiring::PlusTimes;

use crate::Record;

/// Records with every distinct string stored once and ranked, and their
/// `id rank × cell rank` pattern.
#[derive(Clone, Debug)]
pub struct Columns {
    /// Sorted unique record ids: a record's id rank is its position.
    pub(crate) ids: Arc<Vec<String>>,
    /// Sorted unique `field|value` cells: a cell's rank is its position.
    pub(crate) cells: Arc<Vec<String>>,
    /// Per record, in arrival order: its id rank.
    rec_ids: Vec<u32>,
    /// Record `k`'s cell ranks are `rec_cells[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
    pub(crate) rec_cells: Vec<u32>,
    /// Row = id rank, column = cell rank: `1` ⊕-folded over each repeat
    /// of the pair (the D4M `Tedge`).
    pub(crate) by_id: Dcsr<f64>,
    /// Its transpose, row = cell rank (the column index, `TedgeT`).
    pub(crate) by_cell: Dcsr<f64>,
}

impl Default for Columns {
    fn default() -> Self {
        ColumnsBuilder::default().finish()
    }
}

/// Builds a [`Columns`] set record by record. Each cell is written into
/// one scratch string and copied only the first time its spelling is seen.
#[derive(Debug, Default)]
pub struct ColumnsBuilder {
    ids: Vec<String>,
    /// Each distinct spelling and the order it was first seen in.
    seen: HashMap<String, u32>,
    entries: Vec<u32>,
    starts: Vec<usize>,
    cell: String,
}

impl ColumnsBuilder {
    /// Start the next record, named `id`.
    pub fn record(&mut self, id: String) {
        self.ids.push(id);
        self.starts.push(self.entries.len());
    }

    /// Add the cell `field|value` to the current record: `write` appends
    /// the value. A field name must not contain `|`.
    pub fn cell(&mut self, field: &str, write: impl FnOnce(&mut String)) {
        assert!(!field.contains('|'), "field name {field:?} contains '|'");
        self.cell.clear();
        self.cell.extend([field, "|"]);
        write(&mut self.cell);
        let next = u32::try_from(self.seen.len()).expect("fewer than 2³² cells");
        let e = match self.seen.get(&self.cell) {
            Some(&e) => e,
            None => *self.seen.entry(self.cell.clone()).or_insert(next),
        };
        self.entries.push(e);
    }

    /// Rank the ids and the cells, one sort each, and build the pattern
    /// in both orientations, one radix build each.
    pub fn finish(mut self) -> Columns {
        let mut spellings = vec![String::new(); self.seen.len()];
        for (spelling, e) in self.seen {
            spellings[e as usize] = spelling;
        }
        self.starts.push(self.entries.len());
        let (ids, rec_ids) = rank_keys(self.ids);
        let (cells, rank) = rank_keys(spellings);
        let rec_cells: Vec<u32> = self.entries.iter().map(|&e| rank[e as usize]).collect();
        let (n, m) = (ids.len() as Ix, cells.len() as Ix);
        let (mut by_id, mut by_cell) = (Coo::new(n, m), Coo::new(m, n));
        for (k, &r) in rec_ids.iter().enumerate() {
            for &c in &rec_cells[self.starts[k]..self.starts[k + 1]] {
                by_id.push(Ix::from(r), Ix::from(c), 1.0);
                by_cell.push(Ix::from(c), Ix::from(r), 1.0);
            }
        }
        let s = PlusTimes::<f64>::new();
        Columns {
            ids: Arc::new(ids),
            cells: Arc::new(cells),
            rec_ids,
            starts: self.starts,
            rec_cells,
            by_id: by_id.build_dcsr(s),
            by_cell: by_cell.build_dcsr(s),
        }
    }
}

impl Columns {
    /// Intern and rank records; each id is moved, never cloned.
    pub(crate) fn from_records(records: Vec<(String, Record)>) -> Self {
        let mut b = ColumnsBuilder::default();
        for (id, rec) in records {
            b.record(id);
            for (field, value) in &rec {
                b.cell(field, |out| out.push_str(value));
            }
        }
        b.finish()
    }

    pub(crate) fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Record `k`: its id rank and its cell ranks, in the order given.
    pub(crate) fn record(&self, k: usize) -> (u32, &[u32]) {
        let cells = &self.rec_cells[self.starts[k]..self.starts[k + 1]];
        (self.rec_ids[k], cells)
    }

    /// Cell `c`'s value if its field is `field`.
    pub(crate) fn value_of(&self, c: Ix, field: &str) -> Option<&str> {
        let rest = self.cells[c as usize].strip_prefix(field)?;
        rest.strip_prefix('|')
    }
}
