//! Every dispatch [`Decision`] is reachable: on one fresh context, a
//! fixed set of small inputs drives each `(site, choice)` label of
//! `hypersparse_decisions_total` at least once. A branch no input
//! reaches fails here, by name, instead of rotting unseen.

use graph::bfs::{bfs_levels_ctx, parent_bfs_with_ctx};
use graph::pattern::{pattern_u64, pattern_u8, symmetrize};
use graph::Graph;
use hypersparse::gen::{random_dcsr, rmat_dcsr, RmatParams};
use hypersparse::{ops, Coo, Dcsr, Decision, Format, Ix, Matrix, OpCtx, SparseVec};
use semiring::{LorLand, MinFirst, MinPlus, PlusMonoid, PlusTimes};

const WIDE: Ix = 1 << 40;

fn pt() -> PlusTimes<f64> {
    PlusTimes::<f64>::new()
}

fn mat(nrows: Ix, ncols: Ix, cells: impl IntoIterator<Item = (Ix, Ix)>) -> Dcsr<f64> {
    let mut c = Coo::new(nrows, ncols);
    c.extend(cells.into_iter().map(|(r, col)| (r, col, 1.0)));
    c.build_dcsr(pt())
}

fn bools(nrows: Ix, ncols: Ix, cells: impl IntoIterator<Item = (Ix, Ix)>) -> Dcsr<bool> {
    let mut c = Coo::new(nrows, ncols);
    c.extend(cells.into_iter().map(|(r, col)| (r, col, true)));
    c.build_dcsr(LorLand)
}

/// `Matrix::compute_ctx` switching into each of the three formats.
fn formats(ctx: &OpCtx) {
    let s = pt();
    let empty = Matrix::from_dcsr(Dcsr::empty(64, 64), s);
    assert_eq!(empty.format(), Format::Dcsr);
    let full = mat(64, 64, (0..64).flat_map(|r| (0..64).map(move |c| (r, c))));
    let dense = empty.compute_ctx(ctx, s, |d| ops::ewise_add_ctx(ctx, d, &full, s));
    assert_eq!(dense.format(), Format::Dense);
    // Every row stored: a row pointer per row beats a row id and a row
    // pointer per row, and 2²⁶ cells are past dense's cap.
    let tall = Matrix::from_dcsr(Dcsr::empty(1 << 13, 1 << 13), s);
    let rows = mat(1 << 13, 1 << 13, (0..1 << 13).map(|r| (r, r)));
    let csr = tall.compute_ctx(ctx, s, |d| ops::ewise_add_ctx(ctx, d, &rows, s));
    assert_eq!(csr.format(), Format::Csr);
    let dcsr = dense.compute_ctx(ctx, s, |d| ops::select_ctx(ctx, d, |r, c, _| r + c == 0));
    assert_eq!(dcsr.format(), Format::Dcsr);
}

/// SpGEMM: every accumulator and drain, both B-row locators and both
/// mask probes.
fn spgemm(ctx: &OpCtx) {
    let s = pt();
    let (a, b) = (
        random_dcsr(128, 128, 800, 16, s),
        random_dcsr(128, 128, 800, 17, s),
    );
    let full = mat(16, 16, (0..16).flat_map(|r| (0..16).map(move |c| (r, c))));
    let hyper = mat(WIDE, WIDE, [(7, 1 << 30), (1 << 30, 123)]);
    let _ = ops::mxm_ctx(ctx, &a, &b, s); // flat, bitmap drain, indexed
    let _ = ops::mxm_ctx(ctx, &full, &full, s); // scan drain
    let _ = ops::mxm_ctx(ctx, &a, &b, MinPlus::<f64>::new()); // dense
    let _ = ops::mxm_ctx(ctx, &hyper, &hyper, s); // hash, searched
    let _ = ops::mxm_masked_ctx(ctx, &a, &b, &a, false, s); // mask slots, scatter
    let _ = ops::mxm_masked_ctx(ctx, &hyper, &hyper, &hyper, false, s); // search
}

/// `vᵀA`: both directions, both push accumulators, both pull frontier
/// locators and both complement-mask probes.
fn traversals(ctx: &OpCtx) {
    let s = pt();
    let a = random_dcsr(256, 256, 2048, 5, s);
    let at = ops::transpose_ctx(ctx, &a);
    let all: Vec<(Ix, f64)> = (0..256).map(|i| (i, 1.0)).collect();
    let v = SparseVec::from_entries(256, all, s);
    let _ = ops::vxm_ctx(ctx, &v, &a, s); // push, flat
    let _ = ops::vxm_ctx(ctx, &v, &a, MinPlus::<f64>::new()); // hash
    let _ = ops::vxm_pull_ctx(ctx, &v, &at, s); // pull, indexed
    let mut mask = [0u64; 4]; // every third id
    for j in (0..256).step_by(3) {
        mask[j / 64] |= 1 << (j % 64);
    }
    let _ = ops::vxm_opt_ctx(ctx, &v, &a, Some(&at), Some(ops::Mask::Bits(&mask)), s); // bitmap
    let wide = mat(WIDE, WIDE, [(1, 2), (2, 3), (3, 1)]);
    let wide_t = ops::transpose_ctx(ctx, &wide);
    let w = SparseVec::from_entries(WIDE, vec![(1, 1.0), (2, 1.0)], s);
    let _ = ops::vxm_pull_ctx(ctx, &w, &wide_t, s); // searched
    let _ = ops::vxm_opt_ctx(ctx, &w, &wide, None, Some(ops::Mask::Sorted(&[3])), s);
    // sorted
}

/// Transpose by counting pass and by radix sort; bool rows merged a
/// word at a time and by the generic loop.
fn transposes_and_bool_rows(ctx: &OpCtx) {
    let _ = ops::transpose_ctx(ctx, &random_dcsr(64, 64, 400, 3, pt())); // counting
    let _ = ops::transpose_ctx(ctx, &mat(WIDE, WIDE, [(5, 1 << 33)])); // radix
    let dense_rows = bools(8, 64, (0..8).flat_map(|r| (0..64).map(move |c| (r, c))));
    let _ = ops::ewise_add_ctx(ctx, &dense_rows, &dense_rows, LorLand); // word
    let sparse_rows = bools(8, 1 << 16, (0..8).map(|r| (r, r * 999)));
    let _ = ops::ewise_mul_ctx(ctx, &sparse_rows, &sparse_rows, LorLand); // generic
}

/// A reused `Graph` defers its transpose, then builds it; parent BFS
/// runs one-step under `MinFirst` and two-step under `PlusTimes<u64>`.
fn graphs(ctx: &OpCtx) {
    let s = pt();
    let params = RmatParams {
        scale: 8,
        edge_factor: 8,
        ..Default::default()
    };
    let r = rmat_dcsr(params, 7, s);
    let mut c = Coo::new(r.nrows(), r.ncols());
    c.extend(r.iter().map(|(i, j, _)| (i, j, 1.0)));
    c.extend((0..r.nrows()).map(|v| (v, (v + 1) % r.nrows(), 1.0)));
    let sym = symmetrize(&c.build_dcsr(s), s);
    let p8 = pattern_u8(&sym);
    let g = Graph::new(&p8);
    for _ in 0..2 {
        let _ = bfs_levels_ctx(ctx, &g, 0); // deferred, then built
    }
    let p64 = pattern_u64(&sym);
    let g = Graph::new(&p64);
    let _ = parent_bfs_with_ctx(ctx, &g, 0, MinFirst); // one step
    let _ = parent_bfs_with_ctx(ctx, &g, 0, PlusTimes::<u64>::new()); // two step
}

/// The thread rule: every call above at a cap of 1 stays on one thread;
/// a reduce over two chunks of entries at a cap of 2 fans out.
fn fan_out(ctx: &OpCtx) {
    ctx.set_threads(2);
    let big = random_dcsr(4096, 4096, 40_000, 9, pt());
    let _ = ops::reduce_rows_ctx(ctx, &big, PlusMonoid::<f64>::default()); // many
    ctx.set_threads(1);
}

#[test]
fn fixed_inputs_reach_every_decision() {
    let ctx = OpCtx::new().with_threads(1);
    formats(&ctx);
    spgemm(&ctx);
    traversals(&ctx);
    transposes_and_bool_rows(&ctx);
    graphs(&ctx);
    fan_out(&ctx);
    let snap = ctx.metrics().snapshot();
    let missed: Vec<String> = Decision::LABELS
        .iter()
        .filter(|&&(d, _, _)| snap.decision(d) == 0)
        .map(|&(_, site, choice)| format!("{site}={choice}"))
        .collect();
    assert!(missed.is_empty(), "no input reaches {missed:?}");
    assert_eq!(snap.format_switches, 3);
}
