//! Every kernel meters through one run: on a context tracing in
//! `TraceMode::Full`, the spans retained under a kernel's name are that
//! kernel's metrics row — one span per call, and their summed
//! `elapsed_ns` equal to the row's. Fixed small inputs reach every
//! [`Kernel`] variant through one shared context.

use std::sync::Arc;

use dnn::{try_infer_fused_ctx, try_infer_two_semiring_ctx, SparseDnn};
use graph::bfs::parent_bfs_with_ctx;
use graph::pagerank::{pagerank_refresh_ctx, PageRankOpts};
use graph::{DegreeState, Graph, TriangleState};
use hyperspace_core::cxkey::{rollup_ctx, CxField, CxPrefix, CxSchema, RollupAxes};
use hypersparse::{
    ops, Coo, Dcsr, Ix, Kernel, OpCtx, SparseVec, StreamConfig, StreamingMatrix, TraceMode,
};
use semiring::{FnOp, MinFirst, PlusMonoid, PlusTimes, Semiring};

fn mat<S: Semiring>(n: Ix, entries: &[(Ix, Ix, S::Value)], s: S) -> Dcsr<S::Value> {
    let mut coo = Coo::new(n, n);
    coo.extend(entries.iter().cloned());
    coo.build_dcsr(s)
}

/// A directed 6-cycle with two chords: triangles, a BFS tree deeper
/// than one level and rows of unequal length.
const EDGES: [(Ix, Ix); 8] = [
    (0, 1),
    (1, 2),
    (2, 3),
    (3, 4),
    (4, 5),
    (5, 0),
    (0, 2),
    (3, 5),
];

fn graph_of<T: Copy>(one: T) -> Vec<(Ix, Ix, T)> {
    EDGES.iter().map(|&(r, c)| (r, c, one)).collect()
}

/// Run every metered kernel at least once on `ctx`.
fn exercise(ctx: &Arc<OpCtx>) {
    let (s, u) = (PlusTimes::<f64>::new(), PlusTimes::<u64>::new());
    let plus = PlusMonoid::<f64>::default();
    let a = mat(6, &graph_of(1.0), s);
    let b = mat(6, &[(0, 0, 2.0), (1, 2, 3.0), (4, 1, 1.0), (5, 5, 4.0)], s);

    // hypersparse::ops
    let c = ops::mxm_ctx(ctx, &a, &b, s);
    let _ = ops::mxm_masked_ctx(ctx, &a, &a, &a, false, s);
    let _ = ops::ewise_add_ctx(ctx, &a, &c, s);
    let _ = ops::ewise_mul_ctx(ctx, &a, &b, s);
    let rows = ops::reduce_rows_ctx(ctx, &a, plus);
    let _ = ops::reduce_cols_ctx(ctx, &a, plus);
    let _ = ops::row_degrees_ctx(ctx, &a);
    let _ = ops::col_degrees_ctx(ctx, &a);
    let _ = ops::reduce_scalar_ctx(ctx, &a, plus);
    let _ = ops::transpose_ctx(ctx, &a);
    let _ = ops::apply_ctx(ctx, &a, FnOp(|x: f64| 2.0 * x), s);
    let _ = ops::apply_prune_ctx(ctx, &b, FnOp(|x: f64| (x - 2.0).max(0.0)), s);
    let _ = ops::select_ctx(ctx, &a, |r, c, _| r < c);
    let _ = ops::extract_ctx(ctx, &a, &[0, 2, 3], &[1, 2, 5]);
    let v = SparseVec::from_entries(6, vec![(0, 1.0), (3, 2.0)], s);
    let _ = ops::vxm_ctx(ctx, &v, &a, s);
    let _ = ops::mxv_ctx(ctx, &a, &v, s);
    let _ = ops::top_k_ctx(ctx, &rows, 2);

    // hypersparse::stream, under the attached context.
    let config = StreamConfig::new().with_buffer_cap(1).with_growth(2);
    let mut stream = StreamingMatrix::with_config(6, 6, u, config).with_ctx(Arc::clone(ctx));
    for &(r, c) in &EDGES[..5] {
        stream.insert(r, c, 1);
    }
    let _ = stream.delta_snapshot();
    for &(r, c) in &EDGES[3..] {
        stream.insert(r, c, 1);
    }
    let _ = stream.delta_snapshot();
    let _ = stream.rotate();

    // core::cxkey
    let schema = CxSchema::new(vec![CxField::bits("hi", 8), CxField::bits("lo", 8)]);
    let keys = mat(
        1 << 16,
        &[
            (schema.pack(&[1, 2]), schema.pack(&[3, 4]), 1u64),
            (schema.pack(&[1, 7]), schema.pack(&[3, 9]), 2u64),
        ],
        u,
    );
    let _ = rollup_ctx(
        ctx,
        &schema,
        &keys,
        CxPrefix::full_fields(1),
        RollupAxes::Both,
        u,
    );

    // dnn: both inference paths, two layers each.
    let w = mat(6, &graph_of(0.5), s);
    let net = SparseDnn::new(6, vec![w.clone(), w], vec![-0.1, -0.1]);
    let y0 = mat(6, &[(0, 0, 1.0), (0, 3, 1.0), (2, 5, 1.0)], s);
    try_infer_fused_ctx(ctx, &net, &y0).expect("batch fits the network");
    try_infer_two_semiring_ctx(ctx, &net, &y0).expect("batch fits the network");

    // graph: parent BFS, a warm PageRank and both incremental states.
    let pat = mat(6, &graph_of(1u64), u);
    let _ = parent_bfs_with_ctx(ctx, &Graph::new(&pat), 0, MinFirst);
    let _ = pagerank_refresh_ctx(ctx, &Graph::new(&a), &[1.0; 6], PageRankOpts::default());
    let (first, second) = (mat(6, &graph_of(1u64)[..4], u), mat(6, &graph_of(1u64), u));
    let mut degrees = DegreeState::new(6, 6);
    degrees.apply_delta_ctx(ctx, &first);
    degrees.apply_delta_ctx(ctx, &second);
    let mut triangles = TriangleState::new(6);
    triangles.apply_delta_ctx(ctx, &first);
    triangles.apply_delta_ctx(ctx, &second);
}

#[test]
fn every_kernel_has_one_span_per_call_with_its_rows_time() {
    let ctx = Arc::new(OpCtx::new());
    ctx.trace().set_mode(TraceMode::Full);
    exercise(&ctx);
    assert_eq!(ctx.trace().dropped(), 0, "the span cap was hit");
    let (snap, spans) = (ctx.metrics().snapshot(), ctx.trace().spans());
    let mut unreached = Vec::new();
    let mut differ = Vec::new();
    for k in Kernel::ALL {
        let row = snap.kernel(k);
        let mine = spans.iter().filter(|s| s.name == k.name());
        let (count, ns) = mine.fold((0, 0), |(n, ns), s| (n + 1, ns + s.elapsed_ns));
        if row.calls == 0 {
            unreached.push(k.name());
        }
        if (count, ns) != (row.calls, row.elapsed_ns) {
            differ.push(format!(
                "{}: {count} spans, {ns} ns; row {} calls, {} ns",
                k.name(),
                row.calls,
                row.elapsed_ns
            ));
        }
    }
    assert!(unreached.is_empty(), "no input reaches {unreached:?}");
    assert!(
        differ.is_empty(),
        "spans and rows differ:\n{}",
        differ.join("\n")
    );
}
