//! **Fig. 6** — one dataset, four representations, one query.
//!
//! Synthetic network flows loaded simultaneously into a SQL-style row
//! store, a NoSQL triple store, and a D4M exploded-schema associative
//! array (whose adjacency projection is the graph view). The query
//! *"find 1.1.1.1's nearest neighbors"* runs in every representation,
//! is asserted identical, and is timed; the §V.B semilink select is
//! cross-validated against a direct scan on the same data. On the
//! smallest dataset the graph view answers the same query from its
//! adjacency array, and the port group-by and top talkers are computed
//! algebraically and checked against the row store.
//!
//! ```sh
//! cargo run --release --example fig6_database_views
//! ```

use std::collections::BTreeSet;

use bench::{fmt_dur, quick_time};
use db::gen::{flows, FlowParams};
use db::{AssocTable, Record, RowTable, TripleStore};
use hyperspace_core::select::{select_direct, select_semilink};
use semiring::{PlusMonoid, PlusTimes, UnionIntersect};

const HOST: &str = "1.1.1.1";

fn main() {
    println!("=== Fig. 6: the neighbor query across representations ===");
    println!("| records | SQL scan   | NoSQL index | assoc algebra | neighbors |");
    let mut smallest = None;
    for &n in &[10_000usize, 100_000, 500_000] {
        let records = flows(
            FlowParams {
                n_records: n,
                n_hosts: 500,
                skew: 1.1,
            },
            2026,
        );
        let sql = RowTable::from_records(records.clone());
        let nosql = TripleStore::from_records(records.clone());
        let d4m = AssocTable::from_records(records.clone());

        let (t_sql, n_sql) = quick_time(3, || sql.neighbors(HOST));
        let (t_nosql, n_nosql) = quick_time(3, || nosql.neighbors(HOST));
        // The algebraic view answers from the (precomputable) adjacency
        // projection; time the projection + support extraction once.
        let (t_d4m, n_d4m) = quick_time(3, || d4m.neighbors(HOST));

        assert_eq!(n_sql, n_nosql);
        assert_eq!(n_sql, n_d4m);
        println!(
            "| {:>7} | {:>10} | {:>11} | {:>13} | {:>9} |",
            n,
            fmt_dur(t_sql),
            fmt_dur(t_nosql),
            fmt_dur(t_d4m),
            n_sql.len(),
        );
        smallest.get_or_insert((records, sql, d4m, n_sql));
    }
    println!("✓ identical neighbor sets across SQL, NoSQL, and associative-array views");
    let (records, sql, d4m, neighbors) = smallest.expect("three datasets");
    graph_view_and_analytics(&records, &sql, &d4m, &neighbors);

    println!("\n=== §V.B: semilink select vs direct scan ===");
    println!("| records | semilink formula | direct scan | matches |");
    for &n in &[1_000usize, 10_000] {
        let records = flows(
            FlowParams {
                n_records: n,
                n_hosts: 200,
                skew: 1.1,
            },
            7,
        );
        let (view, mut atoms) = AssocTable::set_view(&records);
        let v = atoms.intern("443");
        let col = "port".to_string();
        let (t_formula, by_formula) =
            quick_time(3, || select_semilink(&view, &col, v).prune(UnionIntersect));
        let (t_scan, by_scan) = quick_time(3, || select_direct(&view, &col, v));
        assert_eq!(by_formula, by_scan);
        println!(
            "| {:>7} | {:>16} | {:>11} | {:>7} |",
            n,
            fmt_dur(t_formula),
            fmt_dur(t_scan),
            hyperspace_core::semilink::support_rows(&by_formula).len(),
        );
    }
    println!("✓ |((A ∪.∩ 𝕀(k)) ∩ v) ∪.∩ 𝟙|₀ ∩ A ≡ direct select");
}

/// The fourth view and the analytics, on the smallest dataset: the graph reading
/// of the neighbor query, a semilink select on the host, the port
/// group-by and the top talkers, each checked against another view.
fn graph_view_and_analytics(
    records: &[(String, Record)],
    sql: &RowTable,
    d4m: &AssocTable,
    neighbors: &BTreeSet<String>,
) {
    // The pure-graph reading: row + column support of the adjacency array.
    let adj = d4m.adjacency("src", "dst");
    let host = HOST.to_string();
    let graph_neighbors: BTreeSet<String> = adj
        .row(&host)
        .into_iter()
        .chain(adj.transpose(PlusTimes::<f64>::new()).row(&host))
        .map(|(k, _)| k)
        .collect();
    assert_eq!(&graph_neighbors, neighbors);
    println!(
        "graph view (adjacency row ∪ column support): the same {} neighbors",
        neighbors.len()
    );

    let (set_view, mut atoms) = AssocTable::set_view(records);
    let v = atoms.intern(HOST);
    let by_formula = select_semilink(&set_view, &"src".to_string(), v).prune(UnionIntersect);
    assert_eq!(by_formula, select_direct(&set_view, &"src".to_string(), v));
    println!(
        "semilink select src = {HOST}: {} records, identical to the direct scan",
        hyperspace_core::semilink::support_rows(&by_formula).len()
    );

    let mut ports = d4m.group_count("port");
    ports.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let sql_ports = sql.group_count("port");
    for (p, c) in &ports {
        assert_eq!(sql_ports[p], *c);
    }
    println!("flows by port (assoc ≡ SQL group-by): {ports:?}");

    let mut talkers = d4m
        .field_subarray("src")
        .reduce_cols(PlusMonoid::<f64>::default());
    talkers.sort_by(|a, b| b.1.total_cmp(&a.1));
    assert_eq!(
        talkers[0].0, HOST,
        "the skewed generator makes {HOST} the hub"
    );
    println!("top talkers: {:?}", &talkers[..5]);
}
