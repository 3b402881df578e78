//! Property: answers through the serving layer are identical to direct
//! computation on tables built from the same records — the front-end
//! adds pinning, caching, and metrics, never different answers — and
//! the tables an epoch bulk-builds from its interned columns answer
//! every query class as engines built from its records do.

use db::query::{Pred, PredExpr};
use db::sql::{try_execute, try_execute_baseline};
use db::{AssocTable, RowTable, Select, TripleStore};
use pipeline::Pipeline;
use proptest::prelude::*;
use semiring::PlusTimes;
use serve::{EpochView, QueryRequest, QueryServer, View, ViewSchema};

/// Random sparse event sets over a small host world (collision-prone on
/// purpose: ⊕-accumulation and every-view agreement both get exercised).
fn events() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..8, 0u64..8), 1..30)
}

fn pred() -> impl Strategy<Value = Pred> {
    prop_oneof![
        (0u8..2, 0u64..8).prop_map(|(f, v)| Pred::eq(["src", "dst"][f as usize], &format!("h{v}"))),
        (0u8..2, proptest::collection::vec(0u64..8, 1..3)).prop_map(|(f, vs)| {
            Pred::is_in(
                ["src", "dst"][f as usize],
                vs.into_iter().map(|v| format!("h{v}")),
            )
        }),
    ]
}

fn expr() -> impl Strategy<Value = PredExpr> {
    (pred(), pred(), 0u8..3).prop_map(|(a, b, op)| match op {
        0 => a.and(b),
        1 => a.or(b),
        _ => a.and_not(b),
    })
}

type Served = (
    Pipeline<PlusTimes<f64>>,
    QueryServer<PlusTimes<f64>>,
    Vec<(String, db::Record)>,
);

/// Serve the events and also hand back the ground-truth records the
/// flows schema implies.
fn serve(events: &[(u64, u64)]) -> Served {
    let p = Pipeline::new(64, 64, PlusTimes::<f64>::new());
    let srv = QueryServer::new(ViewSchema::flows());
    for &(r, c) in events {
        p.ingest(r, c, 1.0).unwrap();
    }
    srv.refresh(&p).unwrap();
    let records = srv.pin_latest().unwrap().records();
    (p, srv, records)
}

proptest! {
    #[test]
    fn served_selects_equal_direct_tables(evs in events(), e in expr()) {
        let (p, srv, records) = serve(&evs);
        let assoc = AssocTable::from_records(records.clone());
        let triples = TripleStore::from_records(records.clone());
        let rows = RowTable::from_records(records);
        for (view, want) in [
            (View::Assoc, assoc.select(&e)),
            (View::Triple, triples.select(&e)),
            (View::Row, rows.select(&e)),
        ] {
            let got = srv
                .query(&QueryRequest::Select { view, expr: e.clone() })
                .unwrap();
            prop_assert_eq!(got.body.as_ids().unwrap(), want.as_slice());
            prop_assert_eq!(got.epoch, 1);
        }
        p.shutdown().unwrap();
    }

    #[test]
    fn served_sql_equals_row_store_baseline(evs in events(), h in 0u64..8) {
        let (p, srv, records) = serve(&evs);
        let rows = RowTable::from_records(records);
        let sql = format!("SELECT dst FROM flows WHERE src = 'h{h}'");
        let want = try_execute_baseline(&sql, &rows).unwrap();
        let got = srv.query(&QueryRequest::sql(&sql)).unwrap();
        prop_assert_eq!(got.body.as_table().unwrap(), &want);
        // And the cached second answer is the same object.
        let again = srv.query(&QueryRequest::sql(&sql)).unwrap();
        prop_assert!(again.cached);
        prop_assert_eq!(again.body.as_table().unwrap(), &want);
        p.shutdown().unwrap();
    }

    #[test]
    fn served_point_lookups_equal_snapshot_gets(evs in events()) {
        let (p, srv, _) = serve(&evs);
        let pinned = srv.pin_latest().unwrap();
        for &(r, c) in evs.iter().take(5) {
            let got = srv
                .query(&QueryRequest::Point { row: r, col: c })
                .unwrap();
            let want = pinned.snapshot().get(r, c).map(|v| format!("{v}"));
            prop_assert_eq!(got.body.as_cell().unwrap().map(str::to_string), want);
        }
        p.shutdown().unwrap();
    }

    #[test]
    fn served_group_counts_total_to_nnz(evs in events()) {
        let (p, srv, _) = serve(&evs);
        let nnz = srv.pin_latest().unwrap().nnz();
        for view in [View::Assoc, View::Triple, View::Row] {
            let got = srv
                .query(&QueryRequest::GroupCount { view, field: "src".into() })
                .unwrap();
            let total: usize = got.body.as_counts().unwrap().iter().map(|(_, c)| c).sum();
            prop_assert_eq!(total, nnz, "{:?}", view);
        }
        p.shutdown().unwrap();
    }
}

/// Where host `h` lives in each schema's key space, how the schema
/// spells it, and the schema's value field.
struct World {
    key: fn(u64) -> u64,
    host: fn(u64) -> String,
    value_field: &'static str,
    schema: fn() -> ViewSchema<f64>,
}

const FLOWS: World = World {
    key: |h| h,
    host: |h| format!("h{h}"),
    value_field: "weight",
    schema: ViewSchema::flows,
};

const NETFLOW: World = World {
    key: |h| 0x0A00_0000 + h,
    host: |h| hyperspace_core::cidr::ip_key(0x0A00_0000 + h as u32),
    value_field: "packets",
    schema: ViewSchema::netflow,
};

/// One published epoch of `evs` under `world`'s schema.
fn epoch(world: &World, evs: &[(u64, u64, f64)]) -> EpochView<PlusTimes<f64>> {
    let p = Pipeline::new(1 << 32, 1 << 32, PlusTimes::<f64>::new());
    for &(r, c, w) in evs {
        p.ingest((world.key)(r), (world.key)(c), w).unwrap();
    }
    let snap = p.snapshot_shared().unwrap();
    p.shutdown().unwrap();
    EpochView::new(snap, (world.schema)())
}

/// Every query class on every engine: the epoch's tables answer as the
/// engines `from_records(view.records())` builds.
fn tables_answer_as_records_do(world: &World, evs: &[(u64, u64, f64)]) -> Result<(), String> {
    let view = epoch(world, evs);
    let t = view.tables();
    let records = view.records();
    let assoc = AssocTable::from_records(records.clone());
    let triples = TripleStore::from_records(records.clone());
    let rows = RowTable::from_records(records);
    prop_assert_eq!(t.assoc.nnz(), assoc.nnz());
    prop_assert_eq!(t.assoc.array(), assoc.array());
    prop_assert_eq!(t.triples.len(), triples.len());
    prop_assert_eq!(t.rows.len(), rows.len());
    let vf = world.value_field;
    for h in (0..7).map(world.host) {
        for sql in [
            format!("SELECT dst FROM flows WHERE src = '{h}'"),
            format!("SELECT * FROM flows WHERE src = '{h}' OR dst = '{h}'"),
            format!("SELECT src, {vf} FROM flows WHERE dst = '{h}' AND {vf} = '2'"),
        ] {
            prop_assert_eq!(try_execute(&sql, &t.assoc), try_execute(&sql, &assoc));
            prop_assert_eq!(
                try_execute_baseline(&sql, &t.rows),
                try_execute_baseline(&sql, &rows)
            );
        }
        let exprs = [
            Pred::eq("src", &h).or(Pred::eq("dst", &h)),
            Pred::eq("dst", &h).and_not(Pred::eq(vf, "1")),
            Pred::is_in(vf, ["2", "3"]).and(Pred::eq("src", &h)),
        ];
        for e in &exprs {
            prop_assert_eq!(t.assoc.select(e), assoc.select(e));
            prop_assert_eq!(t.triples.select(e), triples.select(e));
            prop_assert_eq!(t.rows.select(e), rows.select(e));
        }
        prop_assert_eq!(t.assoc.neighbors(&h), assoc.neighbors(&h));
        prop_assert_eq!(t.triples.neighbors(&h), triples.neighbors(&h));
        prop_assert_eq!(t.rows.neighbors(&h), rows.neighbors(&h));
    }
    for field in ["src", "dst", vf] {
        prop_assert_eq!(t.assoc.group_count(field), assoc.group_count(field));
        prop_assert_eq!(t.triples.group_count(field), triples.group_count(field));
        prop_assert_eq!(t.rows.group_count(field), rows.group_count(field));
    }
    prop_assert_eq!(t.assoc.all_ids(), assoc.all_ids());
    prop_assert_eq!(t.triples.all_ids(), triples.all_ids());
    prop_assert_eq!(t.rows.all_ids(), rows.all_ids());
    Ok(())
}

/// Random epochs, empty ones included, over seven hosts. Weights come
/// from {1, 2}, so distinct cells render the same weight string (and a
/// repeated `1` folds to a `2`).
fn weighted_events() -> impl Strategy<Value = Vec<(u64, u64, f64)>> {
    proptest::collection::vec((0u64..7, 0u64..7, prop_oneof![Just(1.0), Just(2.0)]), 0..25)
}

proptest! {
    #[test]
    fn epoch_tables_answer_as_engines_from_records(evs in weighted_events()) {
        tables_answer_as_records_do(&FLOWS, &evs)?;
        tables_answer_as_records_do(&NETFLOW, &evs)?;
    }
}

#[test]
fn empty_and_repeated_weight_epochs_answer_as_records_do() {
    let repeated = [(0, 1, 2.0), (1, 2, 1.0), (1, 2, 1.0), (3, 3, 2.0)];
    for world in [&FLOWS, &NETFLOW] {
        tables_answer_as_records_do(world, &[]).unwrap();
        tables_answer_as_records_do(world, &repeated).unwrap();
        let view = epoch(world, &repeated);
        assert_eq!(view.tables().rows.group_count(world.value_field)["2"], 3);
    }
}
