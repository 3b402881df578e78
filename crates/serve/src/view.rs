//! One pinned epoch, wearing the three database costumes.
//!
//! An [`EpochView`] wraps an `Arc`-shared [`EpochSnapshot`] together
//! with a [`ViewSchema`] that explains each stored entry as a record.
//! The three table engines ([`AssocTable`], [`TripleStore`],
//! [`RowTable`]) are built **lazily, once per epoch** behind a
//! `OnceLock`: pinning an epoch is an `Arc` clone, and the first query
//! that needs a table pays for construction exactly once — every later
//! query on any thread shares the same tables. Construction renders the
//! epoch once into an interned [`Columns`] set, which also builds the
//! `id × cell` pattern once in each orientation; the three engines share
//! that set.

use std::fmt::{self, Write};
use std::sync::{Arc, OnceLock};

use db::{AssocTable, Columns, ColumnsBuilder, Record, RowTable, TripleStore};
use hypersparse::{Dcsr, Ix};
use pipeline::{EpochSnapshot, PodValue};
use semiring::traits::{Semiring, Value};

/// Writes a record id from an entry's row and column keys.
type IdFn = dyn Fn(Ix, Ix, &mut String) -> fmt::Result + Send + Sync;
/// Writes a field value from an entry `(row, col, value)`.
type FieldFn<V> = dyn Fn(Ix, Ix, &V, &mut String) -> fmt::Result + Send + Sync;

/// How a stored `(row, col, value)` entry reads as a database record.
///
/// The serving layer is schema-agnostic: callers write each record's id
/// from its keys and each field from the entry; [`ViewSchema::flows`] is
/// the network-flow default matching the repo's Fig. 6 harness
/// (`src`/`dst`/`weight`).
#[derive(Clone)]
pub struct ViewSchema<V> {
    id: Arc<IdFn>,
    fields: Vec<(String, Arc<FieldFn<V>>)>,
}

impl<V> fmt::Debug for ViewSchema<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ViewSchema")
    }
}

impl<V> ViewSchema<V> {
    /// A schema whose entry `(r, c)` is the record `id` writes, with no
    /// fields yet. The id must be unique per entry (record ids key every
    /// table engine).
    pub fn new(id: impl Fn(Ix, Ix, &mut String) -> fmt::Result + Send + Sync + 'static) -> Self {
        ViewSchema {
            id: Arc::new(id),
            fields: Vec::new(),
        }
    }

    /// Add field `name` (no `|` in it), written by `f(row, col, value,
    /// out)`.
    pub fn field(
        mut self,
        name: &str,
        f: impl Fn(Ix, Ix, &V, &mut String) -> fmt::Result + Send + Sync + 'static,
    ) -> Self {
        self.fields.push((name.to_string(), Arc::new(f)));
        self
    }

    // Writing into a `String` cannot fail, so `fmt::Result`s are dropped.
    fn id(&self, row: Ix, col: Ix) -> String {
        let mut id = String::with_capacity(32);
        let _ = (self.id)(row, col, &mut id);
        id
    }

    /// Read one entry as a record.
    pub fn record(&self, row: Ix, col: Ix, val: &V) -> (String, Record) {
        let fields = self.fields.iter().map(|(name, write)| {
            let mut value = String::new();
            let _ = write(row, col, val, &mut value);
            (name.clone(), value)
        });
        (self.id(row, col), fields.collect())
    }
}

impl<V: Value> ViewSchema<V> {
    /// Render every entry of `m` once into an interned column set: one id
    /// per entry, and a field's value copied only when its cell is new.
    fn columns(&self, m: &Dcsr<V>) -> Columns {
        let mut cols = ColumnsBuilder::default();
        for (r, c, v) in m.iter() {
            cols.record(self.id(r, c));
            for (name, write) in &self.fields {
                cols.cell(name, |out| {
                    let _ = write(r, c, v, out);
                });
            }
        }
        cols.finish()
    }
}

impl<V: fmt::Display> ViewSchema<V> {
    /// The network-flow default: entry `(r, c, v)` becomes record
    /// `e<r>-<c>` with fields `src = h<r>`, `dst = h<c>`,
    /// `weight = <v>` — the exploded schema the Fig. 6 queries expect.
    pub fn flows() -> Self {
        ViewSchema::new(|r, c, out| write!(out, "e{r:08}-{c:08}"))
            .field("src", |r, _, _, out| write!(out, "h{r}"))
            .field("dst", |_, c, _, out| write!(out, "h{c}"))
            .field("weight", |_, _, v, out| write!(out, "{v}"))
    }

    /// The netflow schema: keys are IPv4 addresses in the low 32 bits of
    /// the index (the [`hyperspace_core::cidr`] encoding). Entry
    /// `(src, dst, packets)` becomes record `f<src>-<dst>` with
    /// zero-padded dotted-quad `src`/`dst` fields — so SQL/select
    /// predicates on IP strings sort and compare in address order — plus
    /// the packet count.
    pub fn netflow() -> Self {
        use hyperspace_core::cidr::ip_key;
        let ip = |k: Ix| ip_key(k as u32);
        ViewSchema::new(move |r, c, out| write!(out, "f{}-{}", ip(r), ip(c)))
            .field("src", move |r, _, _, out| out.write_str(&ip(r)))
            .field("dst", move |_, c, _, out| out.write_str(&ip(c)))
            .field("packets", |_, _, v, out| write!(out, "{v}"))
    }
}

/// The three table engines built from one epoch.
#[derive(Debug)]
pub struct Tables {
    /// The D4M exploded-schema associative array (mask-algebra selects).
    pub assoc: AssocTable,
    /// The NoSQL triple store (hash indexes both directions).
    pub triples: TripleStore,
    /// The SQL-flavoured row store (full-scan baseline).
    pub rows: RowTable,
}

/// A pinned, immutable epoch plus its lazily-built database views.
///
/// Cloning the `Arc<EpochView>` handed out by the registry is the *only*
/// cost of pinning: the snapshot matrix is shared, never copied, and
/// concurrent publication of newer epochs cannot disturb it.
#[derive(Debug)]
pub struct EpochView<S: Semiring>
where
    S::Value: PodValue,
{
    snap: Arc<EpochSnapshot<S>>,
    schema: ViewSchema<S::Value>,
    tables: OnceLock<Tables>,
}

impl<S: Semiring> EpochView<S>
where
    S::Value: PodValue,
{
    /// Wrap a shared snapshot under a schema. Zero-copy: the snapshot
    /// `Arc` is stored as-is.
    pub fn new(snap: Arc<EpochSnapshot<S>>, schema: ViewSchema<S::Value>) -> Self {
        EpochView {
            snap,
            schema,
            tables: OnceLock::new(),
        }
    }

    /// The epoch this view serves.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch()
    }

    /// The underlying snapshot (shared, not copied).
    pub fn snapshot(&self) -> &Arc<EpochSnapshot<S>> {
        &self.snap
    }

    /// Entries in the pinned snapshot.
    pub fn nnz(&self) -> usize {
        self.snap.nnz()
    }

    /// The epoch's records under this view's schema, one rendering per
    /// entry (rebuilt on each call; the cached [`Tables`] are what
    /// queries use, and this is their test oracle).
    pub fn records(&self) -> Vec<(String, Record)> {
        self.snap
            .dcsr()
            .iter()
            .map(|(r, c, v)| self.schema.record(r, c, v))
            .collect()
    }

    /// The three table engines, built on first use and shared by every
    /// later query against this epoch (any thread). The epoch renders
    /// once into one interned [`Columns`] set, and each engine reads its
    /// ranks and its pattern.
    pub fn tables(&self) -> &Tables {
        self.tables.get_or_init(|| {
            let cols = Arc::new(self.schema.columns(self.snap.dcsr()));
            Tables {
                assoc: AssocTable::from_columns(&cols),
                triples: TripleStore::from_columns(Arc::clone(&cols)),
                rows: RowTable::from_columns(cols),
            }
        })
    }

    /// Whether the tables have been materialized yet (tests and
    /// capacity planning; queries just call [`EpochView::tables`]).
    pub fn tables_built(&self) -> bool {
        self.tables.get().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::Pipeline;
    use semiring::PlusTimes;

    fn one_epoch() -> Arc<EpochSnapshot<PlusTimes<f64>>> {
        let p = Pipeline::new(64, 64, PlusTimes::<f64>::new());
        p.ingest(1, 2, 1.0).unwrap();
        p.ingest(1, 3, 1.0).unwrap();
        p.ingest(2, 1, 1.0).unwrap();
        let snap = p.snapshot_shared().unwrap();
        p.shutdown().unwrap();
        snap
    }

    #[test]
    fn flows_schema_explodes_entries() {
        let view = EpochView::new(one_epoch(), ViewSchema::flows());
        assert_eq!(view.epoch(), 1);
        let t = view.tables();
        assert_eq!(t.rows.len(), 3);
        // Fig. 6 agreement: all three engines see h1's neighbors.
        let expected: Vec<String> = vec!["h2".into(), "h3".into()];
        let got: Vec<String> = t.assoc.neighbors("h1").into_iter().collect();
        assert_eq!(got, expected);
        let got: Vec<String> = t.triples.neighbors("h1").into_iter().collect();
        assert_eq!(got, expected);
        let got: Vec<String> = t.rows.neighbors("h1").into_iter().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn tables_build_once_lazily() {
        let view = EpochView::new(one_epoch(), ViewSchema::flows());
        assert!(!view.tables_built());
        let first = view.tables() as *const Tables;
        assert!(view.tables_built());
        let second = view.tables() as *const Tables;
        assert_eq!(first, second, "tables are built exactly once");
    }

    #[test]
    fn netflow_schema_renders_dotted_quads() {
        let schema: ViewSchema<f64> = ViewSchema::netflow();
        let (id, rec) = schema.record(0x0A00_0001, 0xC0A8_0105, &7.0);
        assert_eq!(id, "f010.000.000.001-192.168.001.005");
        assert_eq!(
            rec,
            vec![
                ("src".to_string(), "010.000.000.001".to_string()),
                ("dst".to_string(), "192.168.001.005".to_string()),
                ("packets".to_string(), "7".to_string()),
            ]
        );
    }

    #[test]
    fn custom_schema_controls_naming() {
        use db::Select;
        let schema: ViewSchema<f64> = ViewSchema::new(|r, c, out| write!(out, "{r}:{c}"))
            .field("w", |_, _, v, out| write!(out, "{v}"));
        let view = EpochView::new(one_epoch(), schema);
        assert_eq!(view.tables().rows.all_ids(), ["1:2", "1:3", "2:1"]);
    }
}
