//! Cross-crate integration tests: each test exercises at least two
//! layers of the stack together.

use db::gen::{flows, FlowParams};
use db::{AssocTable, RowTable, TripleStore};
use graph::baseline::{bfs_queue, AdjList};
use graph::bfs::bfs_levels;
use graph::pattern::{pattern_u8, symmetrize};
use hyperspace_core::Assoc;
use hypersparse::{ops, Format, Ix, Matrix, OpCtx};
use semiring::{MinPlus, PlusMonoid, PlusTimes, UnionIntersect};

fn sample_flows() -> Vec<(String, db::Record)> {
    flows(
        FlowParams {
            n_records: 800,
            n_hosts: 60,
            skew: 1.0,
        },
        77,
    )
}

#[test]
fn all_database_views_agree_on_every_host() {
    let records = sample_flows();
    let sql = RowTable::from_records(records.clone());
    let nosql = TripleStore::from_records(records.clone());
    let d4m = AssocTable::from_records(records);
    for i in 0..10 {
        let host = db::gen::ip_name(i);
        assert_eq!(sql.neighbors(&host), nosql.neighbors(&host), "{host}");
        assert_eq!(sql.neighbors(&host), d4m.neighbors(&host), "{host}");
    }
}

#[test]
fn table_to_graph_to_bfs_pipeline() {
    // Records → exploded table → adjacency array → BFS, with the
    // pointer-chasing baseline cross-checking the result.
    let records = sample_flows();
    let d4m = AssocTable::from_records(records);
    let adj = d4m.adjacency("src", "dst");

    // Reindex host keys compactly for the baseline comparison.
    let hosts: Vec<String> = {
        let mut h: Vec<String> = adj.row_keys().to_vec();
        h.extend(adj.col_keys().iter().cloned());
        h.sort();
        h.dedup();
        h
    };
    let idx = |k: &String| hosts.binary_search(k).unwrap() as Ix;
    let mut coo = hypersparse::Coo::new(hosts.len() as Ix, hosts.len() as Ix);
    for (a, b, w) in adj.to_triplets() {
        coo.push(idx(&a), idx(&b), w);
    }
    let g = coo.build_dcsr(PlusTimes::<f64>::new());

    let hub = idx(&"1.1.1.1".to_string());
    let by_array = bfs_levels(&pattern_u8(&g), hub);
    let by_queue = bfs_queue(&AdjList::from_pattern(&g), hub);
    for &(v, l) in &by_array {
        assert_eq!(by_queue[v as usize], l);
    }
    // The hub reaches most of the (skew-generated) graph.
    assert!(by_array.len() > hosts.len() / 2);
}

#[test]
fn semilink_select_on_generated_flows() {
    let records = sample_flows();
    let (view, mut atoms) = AssocTable::set_view(&records);
    let v = atoms.intern("443");
    let col = "port".to_string();
    let by_formula = hyperspace_core::select::select_semilink(&view, &col, v).prune(UnionIntersect);
    let by_scan = hyperspace_core::select::select_direct(&view, &col, v);
    assert_eq!(by_formula, by_scan);
    // Cross-check the matched row set against the row store.
    let sql = RowTable::from_records(records);
    let want: Vec<String> = sql
        .select_eq("port", "443")
        .into_iter()
        .map(String::from)
        .collect();
    let got = hyperspace_core::semilink::support_rows(&by_formula);
    assert_eq!(got, want);
}

#[test]
fn tropical_assoc_agrees_with_graph_sssp() {
    // The same shortest-path problem solved at the associative-array
    // level (min-plus matmul closure) and at the matrix level (sssp).
    let s = MinPlus::<f64>::new();
    let roads = Assoc::from_triplets(
        vec![
            ("bos", "nyc", 4.0),
            ("nyc", "dc", 4.0),
            ("bos", "dc", 9.5),
            ("dc", "atl", 9.0),
        ],
        s,
    );
    // Key-level closure: A ⊕ A² ⊕ A³.
    let a2 = roads.matmul(&roads, s);
    let a3 = a2.matmul(&roads, s);
    let closure = roads.ewise_add(&a2, s).ewise_add(&a3, s);
    assert_eq!(closure.get(&"bos", &"dc"), Some(8.0));
    assert_eq!(closure.get(&"bos", &"atl"), Some(17.0));

    // Matrix-level: compact ids via the array's own dictionaries.
    let keys: Vec<&str> = {
        let mut k = roads.row_keys().to_vec();
        k.extend(roads.col_keys().iter().copied());
        k.sort();
        k.dedup();
        k
    };
    let idx = |k: &str| keys.binary_search(&k).unwrap() as Ix;
    let mut coo = hypersparse::Coo::new(keys.len() as Ix, keys.len() as Ix);
    for (a, b, w) in roads.to_triplets() {
        coo.push(idx(a), idx(b), w);
    }
    let g = coo.build_dcsr(s);
    let d = graph::sssp::sssp(&g, idx("bos"));
    let dist = |k: &str| d.iter().find(|&&(v, _)| v == idx(k)).map(|&(_, x)| x);
    assert_eq!(dist("dc"), Some(8.0));
    assert_eq!(dist("atl"), Some(17.0));
}

#[test]
fn format_switching_survives_a_full_workflow() {
    // Build hypersparse → densifying product → selection back to sparse,
    // checking the opaque wrapper re-decides the format at each step.
    let s = PlusTimes::<f64>::new();
    let ctx = OpCtx::new();
    let a = Matrix::from_dcsr(hypersparse::gen::random_dcsr(48, 48, 500, 5, s), s);
    let dense_product = a.compute_ctx(&ctx, s, |d| ops::mxm_ctx(&ctx, d, d, s));
    assert_eq!(dense_product.format(), Format::Dense);
    let sparse_again =
        dense_product.compute_ctx(&ctx, s, |d| ops::select_ctx(&ctx, d, |r, c, _| r + 1 == c));
    assert!(matches!(sparse_again.format(), Format::Csr | Format::Dcsr));
    // Mathematical equality is format-independent throughout.
    assert_eq!(
        sparse_again.nnz(),
        dense_product
            .to_triplets()
            .iter()
            .filter(|(r, c, _)| r + 1 == *c)
            .count()
    );
}

#[test]
fn dnn_on_table_derived_features() {
    // Features extracted from the flow table drive a sparse DNN — the
    // "machine learning on digital hyperspace" loop closed end-to-end.
    let records = sample_flows();
    let d4m = AssocTable::from_records(records);
    let feat = d4m.array(); // record × field|value one-hot features
    let n_features = feat.col_keys().len() as u64;

    // Compact one-hot batch for the first 32 records.
    let ids: Vec<String> = d4m.record_ids().into_iter().take(32).collect();
    let sub = feat.extract(ids, feat.col_keys().to_vec(), PlusTimes::<f64>::new());
    let mut coo = hypersparse::Coo::new(32, n_features);
    for (r, c, v) in sub.matrix().as_dcsr().iter() {
        coo.push(r, c, *v);
    }
    let batch = coo.build_dcsr(PlusTimes::<f64>::new());

    let net = dnn::radix::radix_net(
        dnn::radix::RadixNetParams {
            n_neurons: n_features,
            fanin: 16,
            depth: 2,
            bias: -0.0005,
        },
        3,
    );
    let out = dnn::infer::infer_fused(&net, &batch);
    let pair = dnn::infer::infer_two_semiring(&net, &batch);
    assert_eq!(out, pair);
    assert!(out.nnz() > 0);
}

#[test]
fn degree_reductions_match_between_layers() {
    // graph-level reduce vs assoc-level reduce on the same data.
    let records = sample_flows();
    let d4m = AssocTable::from_records(records);
    let adj = d4m.adjacency("src", "dst");
    let out_deg = adj.reduce_rows(PlusMonoid::<f64>::default());
    // Sum of out-degrees = number of flows.
    let total: f64 = out_deg.iter().map(|(_, w)| w).sum();
    assert_eq!(total as usize, 800);
    // Symmetrized pattern has even total degree.
    let all: Vec<String> = {
        let mut h: Vec<String> = adj.row_keys().to_vec();
        h.extend(adj.col_keys().iter().cloned());
        h.sort();
        h.dedup();
        h
    };
    let mut coo2 = hypersparse::Coo::new(all.len() as Ix, all.len() as Ix);
    for (a, b, w) in adj.to_triplets() {
        let i = all.binary_search(&a).unwrap() as Ix;
        let j = all.binary_search(&b).unwrap() as Ix;
        coo2.push(i, j, w);
    }
    let g = symmetrize(
        &coo2.build_dcsr(PlusTimes::<f64>::new()),
        PlusTimes::<f64>::new(),
    );
    assert_eq!(g.nnz() % 2, 0);
}
