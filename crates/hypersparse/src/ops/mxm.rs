//! Sparse matrix–matrix multiply (SpGEMM) — the array ⊕.⊗ of Table II.
//!
//! Gustavson's row-wise algorithm: for each non-empty row *i* of `A`,
//! accumulate `⊕_k A(i,k) ⊗ B(k,:)`. Three accumulator strategies:
//!
//! * **hash** — a `HashMap<col, T>` per row: `O(flops)` regardless of the
//!   column dimension; the only choice in hypersparse column spaces.
//! * **dense scratch** — a reusable `Vec<Option<T>>` of width `ncols`:
//!   faster constants when the column space is compact.
//! * **flat scratch** — for a semiring that declares
//!   [`Semiring::FLAT_ACC`] the dense path is a zero-seeded `Vec<T>`
//!   folded unconditionally (`slot = slot ⊕ p`, no `Option`
//!   discriminant) plus an occupancy bitmap drained word-at-a-time;
//!   bit-identical to the `Option<T>` path (DESIGN.md §13).
//!
//! [`mxm_ctx`] picks between hash and dense from the input (the
//! `ablation_accumulator` bench measures the crossover) and between the
//! two dense forms from the semiring's type. Accumulator scratch is
//! **leased from the context's workspace arena**
//! ([`OpCtx::lease_mxm_scratch`]) so repeated multiplies on a hot path
//! stop allocating per call, and parallelism is governed by the
//! context's thread cap: rows of `A` are sharded by
//! **merge-path weighted planning** (`plan_weighted_shards` — shard
//! boundaries equalize nnz, not row count, so one heavy RMAT row no
//! longer serializes a fixed-size shard) and per-shard outputs
//! concatenate in row order, so the result is bit-for-bit identical at
//! every thread count.
//!
//! All entry points are generic over the physical column-id width
//! [`IndexType`]: `Dcsr<f64, u32>` operands run the same kernels with
//! half the index bandwidth (DESIGN.md §13).

use std::time::Instant;

use semiring::traits::{Semiring, UnaryOp, Value};

use crate::ctx::{par_run, plan_weighted_shards, MxmScratch, OpCtx};
use crate::dcsr::{Dcsr, DcsrBuilder};
use crate::error::OpError;
use crate::index::IndexType;
use crate::metrics::Kernel;
use crate::Ix;

/// Column spaces at most this wide *may* use the dense scratch
/// accumulator — provided the row range also carries enough estimated
/// flops (see [`dense_acc_pays_off`]).
const DENSE_ACC_MAX: u64 = 1 << 22;

/// Dense scratch must be amortized: require at least `width /
/// DENSE_ACC_FLOP_RATIO` estimated ⊗ applications before leasing a
/// `Vec<Option<T>>` of `width` slots. A hypersparse `B` with a wide but
/// nearly-empty column space fails this and stays on the hash path.
const DENSE_ACC_FLOP_RATIO: u64 = 8;

/// Output-density guard on the dense accumulator: besides the total-work
/// floor above, each row in the range must *on average* justify walking
/// `width / 64` occupancy words (or a touched list) — require `est ≥
/// rows · width / DENSE_ACC_ROW_RATIO`. Tall-skinny products (many rows,
/// each producing a handful of entries in a wide-but-compact column
/// space) used to sneak past the total-work floor and then pay a
/// width-proportional drain per row; they now stay on the hash path.
const DENSE_ACC_ROW_RATIO: u64 = 4096;

/// Below this many non-empty rows of `A`, sharding is never worth it.
const PAR_MIN_ROWS: usize = 512;

/// Weighted shards per thread: oversubscribe the merge-path plan so the
/// atomic job queue can still balance residual skew between shards.
const SHARD_FACTOR: usize = 4;

/// Shape detail for span/slow-op records: `r×c·r×c nnz a+b`.
fn mm_detail<T: Value, U: Value, I: IndexType, J: IndexType>(
    a: &Dcsr<T, I>,
    b: &Dcsr<U, J>,
) -> String {
    format!(
        "{}×{} · {}×{} nnz {}+{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols(),
        a.nnz(),
        b.nnz()
    )
}

/// Merge-path weighted row-range plan for `nrows_ne` non-empty rows of
/// `a`. Any boundary choice yields bit-identical results (rows never
/// split; concat is in row order).
fn shard_plan<T: Value, I: IndexType>(
    ctx: &OpCtx,
    a: &Dcsr<T, I>,
    nrows_ne: usize,
) -> Vec<(usize, usize)> {
    plan_weighted_shards(nrows_ne, ctx.threads() * SHARD_FACTOR, |k| {
        a.row_len_at(k) as u64
    })
}

/// `A ⊕.⊗ B` conformance, shared by the plain, fused-prune and masked
/// multiplies (they differ only in the `op` the error names).
pub(crate) fn check_mxm(op: &'static str, a: (Ix, Ix), b: (Ix, Ix)) -> Result<(), OpError> {
    if a.1 != b.0 {
        return Err(OpError::DimensionMismatch {
            op,
            a,
            b,
            rule: "inner dimensions differ",
        });
    }
    Ok(())
}

/// Masked-multiply conformance: [`check_mxm`] plus a mask over the
/// result's key space.
pub(crate) fn check_mxm_masked(a: (Ix, Ix), b: (Ix, Ix), mask: (Ix, Ix)) -> Result<(), OpError> {
    check_mxm("mxm_masked", a, b)?;
    if mask != (a.0, b.1) {
        return Err(OpError::DimensionMismatch {
            op: "mxm_masked",
            a: (a.0, b.1),
            b: mask,
            rule: "mask must share the result's key space",
        });
    }
    Ok(())
}

/// `C = A ⊕.⊗ B` through an explicit execution context: scratch comes
/// from `ctx`'s workspace arena, parallelism follows `ctx.threads()`,
/// and the invocation is recorded in `ctx.metrics()`.
pub fn mxm_ctx<T: Value, I: IndexType, S: Semiring<Value = T>>(
    ctx: &OpCtx,
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    s: S,
) -> Dcsr<T, I> {
    check_mxm("mxm", a.shape(), b.shape()).unwrap_or_else(|e| panic!("{e}"));
    let _span = ctx.kernel_span(Kernel::Mxm, || mm_detail(a, b));
    let start = Instant::now();
    let nrows_ne = a.n_nonempty_rows();
    let threads = ctx.threads();

    let (c, flops) = if threads == 1 || nrows_ne < PAR_MIN_ROWS {
        let mut lease = ctx.lease_mxm_scratch::<T>();
        let (chunk, flops) = multiply_row_range(a, b, s, 0, nrows_ne, lease.get(), &Some);
        (assemble(a.nrows(), b.ncols(), [chunk]), flops)
    } else {
        let shards = shard_plan(ctx, a, nrows_ne);
        let shard_results = par_run(threads, shards.len(), |shard| {
            let (lo, hi) = shards[shard];
            let mut lease = ctx.lease_mxm_scratch::<T>();
            multiply_row_range(a, b, s, lo, hi, lease.get(), &Some)
        });
        let flops = shard_results.iter().map(|(_, f)| f).sum();
        let chunks: Vec<_> = shard_results.into_iter().map(|(c, _)| c).collect();
        (assemble(a.nrows(), b.ncols(), chunks), flops)
    };

    ctx.metrics().record(
        Kernel::Mxm,
        start.elapsed(),
        (a.nnz() + b.nnz()) as u64,
        c.nnz() as u64,
        flops,
        (a.bytes() + b.bytes() + c.bytes()) as u64,
    );
    c
}

/// Fused SpGEMM + prune: `C = prune(op(A ⊕.⊗ B))` in one pass, with no
/// intermediate product ever materialized. The epilogue runs at
/// accumulator-drain time: each accumulated value that is *not* an `s`
/// zero (exactly the entries plain [`mxm_ctx`] would store) is mapped
/// through `op`, and results that are zero under the `drop` semiring
/// are discarded. That ordering makes the kernel bit-identical to
/// `apply_prune_ctx(ctx, &mxm_ctx(ctx, a, b, s), op, drop)` — in
/// particular `op` is never evaluated at absent positions, which is the
/// invariant the sparse DNN layer `Y W ⊗ b ⊕ 0` relies on (`relu(0+b)`
/// for `b > 0` must stay absent, not appear).
///
/// Sharding, accumulator choice, and metrics ([`crate::metrics::Kernel::Mxm`],
/// flops = ⊗ count) match [`mxm_ctx`], so the result is identical at
/// every thread count.
pub fn mxm_apply_prune_ctx<T, I, S, SD, O>(
    ctx: &OpCtx,
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    s: S,
    op: O,
    drop: SD,
) -> Dcsr<T, I>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
    SD: Semiring<Value = T>,
    O: UnaryOp<T, T>,
{
    check_mxm("mxm_apply_prune", a.shape(), b.shape()).unwrap_or_else(|e| panic!("{e}"));
    let _span = ctx.kernel_span(Kernel::Mxm, || mm_detail(a, b));
    let start = Instant::now();
    let ep = move |v: T| {
        let w = op.apply(v);
        if drop.is_zero(&w) {
            None
        } else {
            Some(w)
        }
    };
    let nrows_ne = a.n_nonempty_rows();
    let threads = ctx.threads();

    let (c, flops) = if threads == 1 || nrows_ne < PAR_MIN_ROWS {
        let mut lease = ctx.lease_mxm_scratch::<T>();
        let (chunk, flops) = multiply_row_range(a, b, s, 0, nrows_ne, lease.get(), &ep);
        (assemble(a.nrows(), b.ncols(), [chunk]), flops)
    } else {
        let shards = shard_plan(ctx, a, nrows_ne);
        let shard_results = par_run(threads, shards.len(), |shard| {
            let (lo, hi) = shards[shard];
            let mut lease = ctx.lease_mxm_scratch::<T>();
            multiply_row_range(a, b, s, lo, hi, lease.get(), &ep)
        });
        let flops = shard_results.iter().map(|(_, f)| f).sum();
        let chunks: Vec<_> = shard_results.into_iter().map(|(c, _)| c).collect();
        (assemble(a.nrows(), b.ncols(), chunks), flops)
    };

    ctx.metrics().record(
        Kernel::Mxm,
        start.elapsed(),
        (a.nnz() + b.nnz()) as u64,
        c.nnz() as u64,
        flops,
        (a.bytes() + b.bytes() + c.bytes()) as u64,
    );
    c
}

/// Masked SpGEMM through an explicit context: `C = (A ⊕.⊗ B) ⊙ mask`
/// (structural mask, i.e. only positions stored in `mask` are
/// computed/kept; `complement` inverts the selection). Fusing the mask
/// into the accumulator loop is what makes masked triangle counting
/// `O(flops into the mask)` instead of `O(all flops)`.
pub fn mxm_masked_ctx<T: Value, M: Value, I: IndexType, S: Semiring<Value = T>>(
    ctx: &OpCtx,
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    mask: &Dcsr<M, I>,
    complement: bool,
    s: S,
) -> Dcsr<T, I> {
    check_mxm_masked(a.shape(), b.shape(), mask.shape()).unwrap_or_else(|e| panic!("{e}"));
    let _span = ctx.kernel_span(Kernel::MxmMasked, || mm_detail(a, b));
    let start = Instant::now();
    let nrows_ne = a.n_nonempty_rows();
    let threads = ctx.threads();

    // Same deterministic sharding as the unmasked kernel: rows of `A`
    // split into shards whose outputs concatenate in row order, so the
    // thread count never changes a bit of the result.
    let (c, flops) = if threads == 1 || nrows_ne < PAR_MIN_ROWS {
        let mut lease = ctx.lease_mxm_scratch::<T>();
        let (chunk, flops) =
            multiply_masked_row_range_ws(a, b, mask, complement, s, 0, nrows_ne, lease.get());
        drop(lease);
        (assemble(a.nrows(), b.ncols(), [chunk]), flops)
    } else {
        let shards = shard_plan(ctx, a, nrows_ne);
        let shard_results = par_run(threads, shards.len(), |shard| {
            let (lo, hi) = shards[shard];
            let mut lease = ctx.lease_mxm_scratch::<T>();
            multiply_masked_row_range_ws(a, b, mask, complement, s, lo, hi, lease.get())
        });
        let flops = shard_results.iter().map(|(_, f)| f).sum();
        let chunks: Vec<_> = shard_results.into_iter().map(|(c, _)| c).collect();
        (assemble(a.nrows(), b.ncols(), chunks), flops)
    };

    ctx.metrics().record(
        Kernel::MxmMasked,
        start.elapsed(),
        (a.nnz() + b.nnz() + mask.nnz()) as u64,
        c.nnz() as u64,
        flops,
        (a.bytes() + b.bytes() + mask.bytes() + c.bytes()) as u64,
    );
    c
}

/// Masked multiply of rows `start..end` of `A` (hash accumulator — the
/// mask filter keeps per-row fill small regardless of the column space).
///
/// In compact column spaces the per-product mask probe is a
/// **word-bitmap test** on pooled scratch:
/// the mask row's bits are set once, each probe is a shift+AND instead
/// of a `binary_search` over the mask row, and the touched words are
/// cleared on the way out. The probe is structural either way, so the
/// output is identical.
#[allow(clippy::too_many_arguments)]
fn multiply_masked_row_range_ws<T: Value, M: Value, I: IndexType, S: Semiring<Value = T>>(
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    mask: &Dcsr<M, I>,
    complement: bool,
    s: S,
    start: usize,
    end: usize,
    scratch: &mut MxmScratch<T>,
) -> (RowsChunk<T, I>, u64) {
    let width = b.ncols();
    let mask_bitmap = width <= DENSE_ACC_MAX;
    if mask_bitmap {
        scratch.ensure_words((width as usize).div_ceil(64));
    }
    let MxmScratch {
        hash: acc,
        words: occ,
        ..
    } = scratch;
    let mut out = Vec::new();
    let mut flops = 0u64;
    for k_row in start..end {
        let (i, acols, avals) = a.row_at(k_row);
        let (mcols, _) = mask.row(i);
        if mcols.is_empty() && !complement {
            continue; // nothing of this row can survive the mask
        }
        let row_bitmap = mask_bitmap && !mcols.is_empty();
        if row_bitmap {
            for &m in mcols {
                let mz = m.as_usize();
                occ[mz >> 6] |= 1u64 << (mz & 63);
            }
        }
        acc.clear();
        for (&k, aik) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k.to_ix());
            for (&j, bkj) in bcols.iter().zip(bvals) {
                let in_mask = if row_bitmap {
                    let jz = j.as_usize();
                    (occ[jz >> 6] >> (jz & 63)) & 1 == 1
                } else {
                    mcols.binary_search(&j).is_ok()
                };
                if in_mask == complement {
                    continue;
                }
                let p = s.mul(aik.clone(), bkj.clone());
                flops += 1;
                match acc.entry(j.to_ix()) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        s.add_assign(e.get_mut(), p)
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(p);
                    }
                }
            }
        }
        if row_bitmap {
            for &m in mcols {
                occ[m.as_usize() >> 6] = 0;
            }
        }
        let mut row: Vec<(I, T)> = acc
            .drain()
            .filter(|(_, v)| !s.is_zero(v))
            .map(|(j, v)| (I::from_ix(j), v))
            .collect();
        if row.is_empty() {
            continue;
        }
        row.sort_by_key(|e| e.0);
        out.push((i, row));
    }
    (out, flops)
}

/// Per-shard result: `(row id, sorted (col, val) entries)` pairs. The
/// column ids carry the operands' physical index width `I`.
pub type RowsChunk<T, I = Ix> = Vec<(Ix, Vec<(I, T)>)>;

/// Concatenate row chunks (already in global row order) into a DCSR.
fn assemble<T: Value, I: IndexType>(
    nrows: Ix,
    ncols: Ix,
    chunks: impl IntoIterator<Item = RowsChunk<T, I>>,
) -> Dcsr<T, I> {
    let mut out = DcsrBuilder::with_capacity(nrows, ncols, 0);
    for chunk in chunks {
        for (r, cv) in chunk {
            out.row(r);
            for (c, v) in cv {
                out.push(c, v);
            }
        }
    }
    out.finish()
}

/// Multiply rows `start..end` of `A` against `B` using workspace
/// `scratch`, returning the rows plus the ⊗ count. Every accumulated
/// value that survives the semiring-zero filter passes through the
/// drain-time epilogue `ep` before being stored, and `None` results are
/// dropped (plain `mxm` passes `&Some`). This is what lets
/// `mxm_apply_prune_ctx` fuse a bias+ReLU prune into the multiply
/// without materializing the intermediate product.
///
/// The accumulator is chosen from the input (hash vs width-proportional,
/// [`dense_acc_pays_off`]) and from the semiring's type (flat vs
/// `Option<T>`, [`Semiring::FLAT_ACC`] — resolved at monomorphisation).
fn multiply_row_range<T, I, S, E>(
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    s: S,
    start: usize,
    end: usize,
    scratch: &mut MxmScratch<T>,
    ep: &E,
) -> (RowsChunk<T, I>, u64)
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
    E: Fn(T) -> Option<T>,
{
    if !dense_acc_pays_off(a, b, start, end) {
        multiply_rows_hash_ws(a, b, s, start, end, scratch, ep)
    } else if S::FLAT_ACC {
        multiply_rows_flat_ws(a, b, s, start, end, scratch, ep)
    } else {
        multiply_rows_dense_ws(a, b, s, start, end, scratch, ep)
    }
}

/// Whether a width-proportional accumulator (dense `Vec<Option<T>>` or
/// the flat scratch) is worth leasing for rows
/// `start..end`: the column space must be compact (`≤ DENSE_ACC_MAX`)
/// **and** the range must carry enough estimated flops both in total
/// (`width / DENSE_ACC_FLOP_RATIO`) and per row
/// (`rows · width / DENSE_ACC_ROW_RATIO` — the tall-skinny guard). The
/// estimate walks `A`'s entries summing `|B.row(k)|` (the exact ⊗
/// count) and early-exits at the threshold, so hypersparse ranges
/// answer "no" after touching only their own nnz. Either accumulator
/// yields identical output, so this per-range choice never affects
/// determinism.
fn dense_acc_pays_off<T: Value, I: IndexType>(
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    start: usize,
    end: usize,
) -> bool {
    let width = b.ncols();
    if width > DENSE_ACC_MAX {
        return false;
    }
    let rows = (end - start) as u64;
    let need = (width / DENSE_ACC_FLOP_RATIO)
        .max(1)
        .max(rows * (width / DENSE_ACC_ROW_RATIO));
    let mut est = 0u64;
    for k_row in start..end {
        let (_, acols, _) = a.row_at(k_row);
        for &k in acols {
            est += b.row(k.to_ix()).0.len() as u64;
            if est >= need {
                return true;
            }
        }
    }
    false
}

fn multiply_rows_hash_ws<T, I, S, E>(
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    s: S,
    start: usize,
    end: usize,
    scratch: &mut MxmScratch<T>,
    ep: &E,
) -> (RowsChunk<T, I>, u64)
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
    E: Fn(T) -> Option<T>,
{
    let acc = &mut scratch.hash;
    let mut out = Vec::new();
    let mut flops = 0u64;
    for k_row in start..end {
        let (i, acols, avals) = a.row_at(k_row);
        acc.clear();
        for (&k, aik) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k.to_ix());
            for (&j, bkj) in bcols.iter().zip(bvals) {
                let p = s.mul(aik.clone(), bkj.clone());
                flops += 1;
                match acc.entry(j.to_ix()) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        s.add_assign(e.get_mut(), p)
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(p);
                    }
                }
            }
        }
        // Order matters: s-zeros are dropped BEFORE the epilogue runs,
        // so `ep` only ever sees values the two-pass path would store.
        let mut row: Vec<(I, T)> = acc
            .drain()
            .filter_map(|(j, v)| {
                if s.is_zero(&v) {
                    None
                } else {
                    ep(v).map(|w| (I::from_ix(j), w))
                }
            })
            .collect();
        if row.is_empty() {
            continue;
        }
        row.sort_by_key(|e| e.0);
        out.push((i, row));
    }
    (out, flops)
}

fn multiply_rows_dense_ws<T, I, S, E>(
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    s: S,
    start: usize,
    end: usize,
    scratch: &mut MxmScratch<T>,
    ep: &E,
) -> (RowsChunk<T, I>, u64)
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
    E: Fn(T) -> Option<T>,
{
    let width = b.ncols() as usize;
    scratch.ensure_dense_width(width);
    let dense = &mut scratch.dense;
    let touched = &mut scratch.touched;
    let mut out = Vec::new();
    let mut flops = 0u64;

    for k_row in start..end {
        let (i, acols, avals) = a.row_at(k_row);
        for (&k, aik) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k.to_ix());
            for (&j, bkj) in bcols.iter().zip(bvals) {
                let p = s.mul(aik.clone(), bkj.clone());
                flops += 1;
                match &mut dense[j.as_usize()] {
                    Some(v) => s.add_assign(v, p),
                    slot @ None => {
                        *slot = Some(p);
                        touched.push(j.to_ix());
                    }
                }
            }
        }
        if touched.is_empty() {
            continue;
        }
        touched.sort_unstable();
        let mut row: Vec<(I, T)> = Vec::with_capacity(touched.len());
        for &j in touched.iter() {
            if let Some(v) = dense[j as usize].take() {
                // Same epilogue contract as the hash path: drop s-zeros
                // first, then let `ep` transform/prune the survivor.
                if !s.is_zero(&v) {
                    if let Some(w) = ep(v) {
                        row.push((I::from_ix(j), w));
                    }
                }
            }
        }
        touched.clear();
        if !row.is_empty() {
            out.push((i, row));
        }
    }
    (out, flops)
}

/// A zero-seeded flat accumulator plus an occupancy bitmap over borrowed
/// storage — the shared core of the [`Semiring::FLAT_ACC`] kernels
/// (SpGEMM rows here, the vxm push segment in `ops::mxv`). Folds are
/// unconditional (`slot = slot ⊕ p`: no `Option` discriminant, no
/// per-product branch); [`FlatAcc::drain`] visits the touched slots in
/// ascending column order without a sort and returns every slot and
/// word it consumes to `s.zero()` / `0`, so pooled storage goes back
/// clean.
pub(crate) struct FlatAcc<'a, T> {
    flat: &'a mut [T],
    occ: &'a mut [u64],
    /// Touched word range; `lo_w > hi_w` when nothing is pending.
    lo_w: usize,
    hi_w: usize,
}

impl<'a, T: Value> FlatAcc<'a, T> {
    /// `flat` must rest at the semiring zero and `occ` at `0`, with one
    /// bit of `occ` per slot of `flat`.
    pub(crate) fn new(flat: &'a mut [T], occ: &'a mut [u64]) -> Self {
        FlatAcc {
            flat,
            occ,
            lo_w: usize::MAX,
            hi_w: 0,
        }
    }

    #[inline(always)]
    pub(crate) fn fold<S: Semiring<Value = T>>(&mut self, s: S, jz: usize, p: T) {
        s.add_assign(&mut self.flat[jz], p);
        let w = jz >> 6;
        self.occ[w] |= 1u64 << (jz & 63);
        self.lo_w = self.lo_w.min(w);
        self.hi_w = self.hi_w.max(w);
    }

    #[inline(always)]
    pub(crate) fn drain<S: Semiring<Value = T>>(&mut self, s: S, mut visit: impl FnMut(usize, T)) {
        if self.lo_w > self.hi_w {
            return;
        }
        for (w, word) in self.occ[..=self.hi_w]
            .iter_mut()
            .enumerate()
            .skip(self.lo_w)
        {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let jz = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                visit(jz, std::mem::replace(&mut self.flat[jz], s.zero()));
            }
        }
        (self.lo_w, self.hi_w) = (usize::MAX, 0);
    }
}

/// Flat-accumulator row multiply for [`Semiring::FLAT_ACC`] semirings.
/// Products fold in the same visitation order as the `Option<T>` path,
/// columns drain ascending, and semiring zeros drop before `ep` runs —
/// so the two are bit-identical (`tests/hotpath_props.rs`). The only
/// internal divergence is the seed (`0 ⊕ p` versus storing `p`), which
/// the capability's law makes invisible.
fn multiply_rows_flat_ws<T, I, S, E>(
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    s: S,
    start: usize,
    end: usize,
    scratch: &mut MxmScratch<T>,
    ep: &E,
) -> (RowsChunk<T, I>, u64)
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
    E: Fn(T) -> Option<T>,
{
    let width = b.ncols() as usize;
    scratch.ensure_flat_width(width, s.zero());
    scratch.ensure_words(width.div_ceil(64));
    let mut acc = FlatAcc::new(&mut scratch.flat, &mut scratch.words);
    let mut out = Vec::new();
    let mut flops = 0u64;
    for k_row in start..end {
        let (i, acols, avals) = a.row_at(k_row);
        for (&k, aik) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k.to_ix());
            flops += bcols.len() as u64;
            for (&j, bkj) in bcols.iter().zip(bvals) {
                acc.fold(s, j.as_usize(), s.mul(aik.clone(), bkj.clone()));
            }
        }
        let mut row: Vec<(I, T)> = Vec::new();
        acc.drain(s, |jz, v| {
            if !s.is_zero(&v) {
                if let Some(w) = ep(v) {
                    row.push((I::from_usize(jz), w));
                }
            }
        });
        if !row.is_empty() {
            out.push((i, row));
        }
    }
    (out, flops)
}

/// Hash-accumulator row multiply — `O(flops)` in any column space.
/// Public for the accumulator ablation bench; use [`mxm_ctx`] otherwise.
pub fn multiply_rows_hash_acc<T: Value, I: IndexType, S: Semiring<Value = T>>(
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    s: S,
    start: usize,
    end: usize,
) -> RowsChunk<T, I> {
    let mut scratch = MxmScratch::default();
    multiply_rows_hash_ws(a, b, s, start, end, &mut scratch, &Some).0
}

/// Dense-scratch row multiply — a `Vec<Option<T>>` of width `ncols`,
/// reset via a touched-columns list so each row costs `O(flops)` too,
/// with far better constants in compact column spaces. Public for the
/// accumulator ablation bench; use [`mxm_ctx`] otherwise.
pub fn multiply_rows_dense_acc<T: Value, I: IndexType, S: Semiring<Value = T>>(
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    s: S,
    start: usize,
    end: usize,
) -> RowsChunk<T, I> {
    let mut scratch = MxmScratch::default();
    multiply_rows_dense_ws(a, b, s, start, end, &mut scratch, &Some).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::gen::random_dcsr;
    use semiring::{LorLand, MinPlus, Plain, PlusTimes};

    fn from_triplets(n: Ix, t: &[(Ix, Ix, f64)]) -> Dcsr<f64> {
        let mut c = Coo::new(n, n);
        c.extend(t.iter().copied());
        c.build_dcsr(PlusTimes::<f64>::new())
    }

    /// Naive dense oracle over a semiring.
    fn oracle<S: Semiring<Value = f64>>(a: &Dcsr<f64>, b: &Dcsr<f64>, s: S) -> Vec<(Ix, Ix, f64)> {
        let mut acc: std::collections::BTreeMap<(Ix, Ix), f64> = Default::default();
        for (i, k, av) in a.iter() {
            for (k2, j, bv) in b.iter() {
                if k == k2 {
                    let p = s.mul(*av, *bv);
                    acc.entry((i, j))
                        .and_modify(|x| *x = s.add(*x, p))
                        .or_insert(p);
                }
            }
        }
        acc.into_iter()
            .filter(|(_, v)| !s.is_zero(v))
            .map(|((i, j), v)| (i, j, v))
            .collect()
    }

    #[test]
    fn small_known_product() {
        // [[1,2],[0,3]] * [[4,0],[5,6]] = [[14,12],[15,18]]
        let a = from_triplets(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]);
        let b = from_triplets(2, &[(0, 0, 4.0), (1, 0, 5.0), (1, 1, 6.0)]);
        let c = mxm_ctx(&OpCtx::new(), &a, &b, PlusTimes::<f64>::new());
        assert_eq!(c.get(0, 0), Some(&14.0));
        assert_eq!(c.get(0, 1), Some(&12.0));
        assert_eq!(c.get(1, 0), Some(&15.0));
        assert_eq!(c.get(1, 1), Some(&18.0));
    }

    #[test]
    fn matches_oracle_on_random() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(64, 64, 300, 1, s);
        let b = random_dcsr(64, 64, 300, 2, s);
        let c = mxm_ctx(&OpCtx::new(), &a, &b, s);
        let got: Vec<_> = c.iter().map(|(i, j, &v)| (i, j, v)).collect();
        let want = oracle(&a, &b, s);
        assert_eq!(got.len(), want.len());
        for ((gi, gj, gv), (wi, wj, wv)) in got.iter().zip(&want) {
            assert_eq!((gi, gj), (wi, wj));
            assert!((gv - wv).abs() < 1e-9, "{gv} vs {wv}");
        }
    }

    #[test]
    fn min_plus_mxm_is_path_relaxation() {
        let s = MinPlus::<f64>::new();
        let mut c = Coo::new(3, 3);
        c.extend([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 9.0)]);
        let a = c.build_dcsr(s);
        let a2 = mxm_ctx(&OpCtx::new(), &a, &a, s);
        // Two-hop: 0→1→2 costs 3.
        assert_eq!(a2.get(0, 2), Some(&3.0));
    }

    #[test]
    fn parallel_equals_sequential() {
        let s = PlusTimes::<f64>::new();
        // Big enough to trigger the parallel path (>512 non-empty rows).
        let a = random_dcsr(2000, 2000, 20_000, 3, s);
        let b = random_dcsr(2000, 2000, 20_000, 4, s);
        assert_eq!(
            mxm_ctx(&OpCtx::new(), &a, &b, s),
            mxm_ctx(&OpCtx::new().with_threads(1), &a, &b, s)
        );
    }

    #[test]
    fn thread_cap_one_equals_thread_cap_n() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(2000, 2000, 20_000, 3, s);
        let b = random_dcsr(2000, 2000, 20_000, 4, s);
        let ctx1 = OpCtx::new().with_threads(1);
        let reference = mxm_ctx(&ctx1, &a, &b, s);
        for threads in [2, 4, 8] {
            let ctxn = OpCtx::new().with_threads(threads);
            assert_eq!(mxm_ctx(&ctxn, &a, &b, s), reference);
        }
    }

    #[test]
    fn skewed_rows_shard_deterministically() {
        // Deliberately skewed rows: the weighted plan's boundaries move
        // with the thread count, the answer must not.
        let s = PlusTimes::<f64>::new();
        let a = crate::gen::rmat_dcsr(crate::gen::RmatParams::default(), 35, s);
        let b = crate::gen::rmat_dcsr(crate::gen::RmatParams::default(), 36, s);
        assert!(
            a.n_nonempty_rows() >= PAR_MIN_ROWS,
            "must take the sharded path"
        );
        let seq = OpCtx::new().with_threads(1);
        let par = OpCtx::new().with_threads(4);
        assert_eq!(mxm_ctx(&par, &a, &b, s), mxm_ctx(&seq, &a, &b, s));
    }

    #[test]
    fn flat_accumulator_matches_plain_bit_for_bit() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(2000, 2000, 30_000, 61, s);
        let b = random_dcsr(2000, 2000, 30_000, 62, s);
        let ctx = OpCtx::new().with_threads(2);
        assert_eq!(mxm_ctx(&ctx, &a, &b, s), mxm_ctx(&ctx, &a, &b, Plain(s)));
    }

    #[test]
    fn flat_kernel_leaves_scratch_clean() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(64, 64, 400, 41, s);
        let b = random_dcsr(64, 64, 400, 42, s);
        let mut ws = MxmScratch::<f64>::default();
        let (chunk, _) = multiply_rows_flat_ws(&a, &b, s, 0, a.n_nonempty_rows(), &mut ws, &Some);
        assert!(!chunk.is_empty());
        assert!(ws.words.iter().all(|&w| w == 0), "bitmap left dirty");
        assert!(ws.flat.iter().all(|&v| v == 0.0), "flat acc left dirty");
    }

    #[test]
    fn bool_flat_accumulator_matches_plain() {
        let s = LorLand;
        let f = PlusTimes::<f64>::new();
        let pat_a = random_dcsr(256, 256, 3000, 63, f);
        let pat_b = random_dcsr(256, 256, 3000, 64, f);
        let to_bool = |m: &Dcsr<f64>| {
            let mut c = Coo::new(m.nrows(), m.ncols());
            c.extend(m.iter().map(|(i, j, _)| (i, j, true)));
            c.build_dcsr(LorLand)
        };
        let (a, b) = (to_bool(&pat_a), to_bool(&pat_b));
        let ctx = OpCtx::new().with_threads(1);
        let got = mxm_ctx(&ctx, &a, &b, s);
        assert_eq!(got, mxm_ctx(&ctx, &a, &b, Plain(s)));
        assert!(got.nnz() > 0);
    }

    #[test]
    fn narrow_index_mxm_matches_wide() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(128, 128, 900, 65, s);
        let b = random_dcsr(128, 128, 900, 66, s);
        let an: Dcsr<f64, u32> = a.to_index_width().unwrap();
        let bn: Dcsr<f64, u32> = b.to_index_width().unwrap();
        let wide = mxm_ctx(&OpCtx::new(), &a, &b, s);
        let narrow = mxm_ctx(&OpCtx::new(), &an, &bn, s);
        let wt: Vec<_> = wide.iter().map(|(i, j, &v)| (i, j, v)).collect();
        let nt: Vec<_> = narrow.iter().map(|(i, j, &v)| (i, j, v)).collect();
        assert_eq!(wt, nt);
    }

    #[test]
    fn ctx_mxm_records_metrics_and_reuses_scratch() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(64, 64, 300, 21, s);
        let b = random_dcsr(64, 64, 300, 22, s);
        let ctx = OpCtx::new().with_threads(1);
        let c = mxm_ctx(&ctx, &a, &b, s);
        let snap = ctx.metrics().snapshot();
        let m = snap.kernel(Kernel::Mxm);
        assert_eq!(m.calls, 1);
        assert_eq!(m.nnz_in, (a.nnz() + b.nnz()) as u64);
        assert_eq!(m.nnz_out, c.nnz() as u64);
        assert!(m.flops > 0);
        assert_eq!(m.bytes_touched, (a.bytes() + b.bytes() + c.bytes()) as u64);
        // Repeated same-shape multiplies are all pool hits after the first.
        for _ in 0..10 {
            let _ = mxm_ctx(&ctx, &a, &b, s);
        }
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.workspace_misses, 1);
        assert_eq!(snap.workspace_hits, 10);
        assert_eq!(ctx.pooled_buffers(), 1);
    }

    #[test]
    fn hash_and_dense_accumulators_agree() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(128, 128, 800, 5, s);
        let b = random_dcsr(128, 128, 800, 6, s);
        let h = multiply_rows_hash_acc(&a, &b, s, 0, a.n_nonempty_rows());
        let d = multiply_rows_dense_acc(&a, &b, s, 0, a.n_nonempty_rows());
        assert_eq!(h, d);
    }

    #[test]
    fn hypersparse_product_in_huge_space() {
        let n = 1u64 << 50;
        let s = PlusTimes::<f64>::new();
        let mut ca = Coo::new(n, n);
        ca.extend([(7, 1 << 40, 2.0), (9, 3, 5.0)]);
        let mut cb = Coo::new(n, n);
        cb.extend([(1 << 40, 123, 3.0), (3, 456, 7.0)]);
        let c = mxm_ctx(&OpCtx::new(), &ca.build_dcsr(s), &cb.build_dcsr(s), s);
        assert_eq!(c.get(7, 123), Some(&6.0));
        assert_eq!(c.get(9, 456), Some(&35.0));
        assert_eq!(c.nnz(), 2);
    }

    #[test]
    fn masked_mxm_keeps_only_mask_positions() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(32, 32, 200, 7, s);
        let b = random_dcsr(32, 32, 200, 8, s);
        let mask = random_dcsr(32, 32, 100, 9, s);
        let full = mxm_ctx(&OpCtx::new(), &a, &b, s);
        let masked = mxm_masked_ctx(&OpCtx::new(), &a, &b, &mask, false, s);
        for (i, j, v) in masked.iter() {
            assert!(mask.get(i, j).is_some());
            assert_eq!(full.get(i, j), Some(v));
        }
        // And every full-product entry inside the mask is present.
        for (i, j, v) in full.iter() {
            if mask.get(i, j).is_some() {
                assert_eq!(masked.get(i, j), Some(v));
            }
        }
    }

    #[test]
    fn complement_masked_mxm() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(32, 32, 200, 10, s);
        let b = random_dcsr(32, 32, 200, 11, s);
        let mask = random_dcsr(32, 32, 100, 12, s);
        let comp = mxm_masked_ctx(&OpCtx::new(), &a, &b, &mask, true, s);
        for (i, j, _) in comp.iter() {
            assert!(mask.get(i, j).is_none());
        }
    }

    #[test]
    fn masked_bitmap_probe_matches_binary_search() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(64, 64, 500, 71, s);
        let b = random_dcsr(64, 64, 500, 72, s);
        let mask = random_dcsr(64, 64, 300, 73, s);
        // The same entries in a column space too wide for the bitmap
        // take the binary-search probe.
        let widen = |m: &Dcsr<f64>| {
            let (nr, _, rows, rowptr, colidx, vals) = m.clone().into_parts();
            Dcsr::from_parts(nr, 2 * DENSE_ACC_MAX, rows, rowptr, colidx, vals)
        };
        let (bw, maskw) = (widen(&b), widen(&mask));
        let ctx = OpCtx::new().with_threads(1);
        for complement in [false, true] {
            let bitmap = mxm_masked_ctx(&ctx, &a, &b, &mask, complement, s);
            let search = mxm_masked_ctx(&ctx, &a, &bw, &maskw, complement, s);
            assert!(bitmap.nnz() > 0);
            assert!(bitmap.iter().eq(search.iter()), "complement={complement}");
        }
        // Bitmap scratch must come back clean for the next lease.
        let mut lease = ctx.lease_mxm_scratch::<f64>();
        assert!(lease.get().words.iter().all(|&w| w == 0));
    }

    #[test]
    fn boolean_reachability_product() {
        let s = LorLand;
        let mut c = Coo::new(3, 3);
        c.extend([(0, 1, true), (1, 2, true)]);
        let a = c.build_dcsr(s);
        let a2 = mxm_ctx(&OpCtx::new(), &a, &a, s);
        assert_eq!(a2.get(0, 2), Some(&true));
        assert_eq!(a2.nnz(), 1);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn conformance_checked() {
        let a = Dcsr::<f64>::empty(3, 4);
        let b = Dcsr::<f64>::empty(5, 3);
        let _ = mxm_ctx(&OpCtx::new(), &a, &b, PlusTimes::<f64>::new());
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ: 3×4 vs 5×3")]
    fn seq_conformance_panic_carries_shapes() {
        let a = Dcsr::<f64>::empty(3, 4);
        let b = Dcsr::<f64>::empty(5, 3);
        let _ = mxm_ctx(
            &OpCtx::new().with_threads(1),
            &a,
            &b,
            PlusTimes::<f64>::new(),
        );
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ: 3×4 vs 5×3")]
    fn masked_conformance_panic_carries_shapes() {
        let a = Dcsr::<f64>::empty(3, 4);
        let b = Dcsr::<f64>::empty(5, 3);
        let mask = Dcsr::<f64>::empty(3, 3);
        let _ = mxm_masked_ctx(&OpCtx::new(), &a, &b, &mask, false, PlusTimes::<f64>::new());
    }

    #[test]
    fn try_masked_reports_typed_errors() {
        use crate::matrix::Matrix;
        let s = PlusTimes::<f64>::new();
        let ctx = OpCtx::new();
        let empty = |nrows, ncols| Matrix::from_dcsr(Dcsr::<f64>::empty(nrows, ncols), s);
        let a = empty(3, 4);
        let b = empty(5, 3);
        let mask = empty(3, 3);
        let e = a.try_mxm_masked_ctx(&ctx, &b, &mask, false, s).unwrap_err();
        assert!(
            matches!(
                e,
                OpError::DimensionMismatch {
                    op: "mxm_masked",
                    rule: "inner dimensions differ",
                    ..
                }
            ),
            "{e:?}"
        );
        let b = empty(4, 6);
        let e = a.try_mxm_masked_ctx(&ctx, &b, &mask, false, s).unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("mask must share the result's key space"),
            "{msg}"
        );
        assert!(msg.contains("3×6 vs 3×3"), "{msg}");
        let mask = empty(3, 6);
        assert!(a.try_mxm_masked_ctx(&ctx, &b, &mask, false, s).is_ok());
    }

    #[test]
    fn masked_parallel_equals_sequential_all_semirings() {
        // Big enough to trigger the sharded path (>512 non-empty rows).
        let gen = PlusTimes::<f64>::new();
        let a = random_dcsr(2000, 2000, 20_000, 13, gen);
        let b = random_dcsr(2000, 2000, 20_000, 14, gen);
        let mask = random_dcsr(2000, 2000, 10_000, 15, gen);
        let ctx1 = OpCtx::new().with_threads(1);
        for complement in [false, true] {
            let want_pt = mxm_masked_ctx(&ctx1, &a, &b, &mask, complement, gen);
            let want_mp = mxm_masked_ctx(&ctx1, &a, &b, &mask, complement, MinPlus::<f64>::new());
            for threads in [2, 4, 8] {
                let ctxn = OpCtx::new().with_threads(threads);
                assert_eq!(
                    mxm_masked_ctx(&ctxn, &a, &b, &mask, complement, gen),
                    want_pt,
                    "PlusTimes complement={complement} threads={threads}"
                );
                assert_eq!(
                    mxm_masked_ctx(&ctxn, &a, &b, &mask, complement, MinPlus::<f64>::new()),
                    want_mp,
                    "MinPlus complement={complement} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn wide_empty_column_space_skips_dense_scratch() {
        // B's column space is wide (2^21 ≤ DENSE_ACC_MAX) but nearly
        // empty: a handful of flops must not lease a multi-megabyte
        // dense accumulator (generic `Vec<Option<T>>` or mono flat).
        let s = PlusTimes::<f64>::new();
        let n = 1u64 << 21;
        let mut ca = Coo::new(8, n);
        ca.extend([(0, 5, 1.0), (1, 9, 2.0)]);
        let mut cb = Coo::new(n, n);
        cb.extend([(5, 1_000_000, 3.0), (9, 2_000_000, 4.0)]);
        let ctx = OpCtx::new().with_threads(1);
        let c = mxm_ctx(&ctx, &ca.build_dcsr(s), &cb.build_dcsr(s), s);
        assert_eq!(c.get(0, 1_000_000), Some(&3.0));
        assert_eq!(c.get(1, 2_000_000), Some(&8.0));
        // The pooled scratch must never have grown a width-sized
        // accumulator of either kind.
        let mut lease = ctx.lease_mxm_scratch::<f64>();
        assert_eq!(lease.get().dense_capacity(), 0, "dense scratch was leased");
        assert_eq!(lease.get().flat_capacity(), 0, "flat scratch was leased");
    }

    #[test]
    fn compact_busy_column_space_uses_flat_fast_scratch() {
        // PlusTimes (FLAT_ACC) in a compact busy column space takes the
        // flat accumulator, not the Vec<Option<T>>.
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(128, 128, 800, 16, s);
        let b = random_dcsr(128, 128, 800, 17, s);
        let ctx = OpCtx::new().with_threads(1);
        let _ = mxm_ctx(&ctx, &a, &b, s);
        let mut lease = ctx.lease_mxm_scratch::<f64>();
        assert_eq!(lease.get().flat_capacity(), 128);
        assert_eq!(lease.get().dense_capacity(), 0);
    }

    #[test]
    fn compact_busy_column_space_still_uses_dense_scratch() {
        // Semirings that do not declare FLAT_ACC take the dense
        // Vec<Option<T>> accumulator in compact busy column spaces —
        // and so does PlusTimes behind `Plain`.
        let mp = MinPlus::<f64>::new();
        let gen = PlusTimes::<f64>::new();
        let a = random_dcsr(128, 128, 800, 16, gen);
        let b = random_dcsr(128, 128, 800, 17, gen);
        let ctx = OpCtx::new().with_threads(1);
        let _ = mxm_ctx(&ctx, &a, &b, mp);
        {
            let mut lease = ctx.lease_mxm_scratch::<f64>();
            assert_eq!(lease.get().dense_capacity(), 128);
        }
        let ablated = OpCtx::new().with_threads(1);
        let _ = mxm_ctx(&ablated, &a, &b, Plain(gen));
        let mut lease = ablated.lease_mxm_scratch::<f64>();
        assert_eq!(lease.get().dense_capacity(), 128);
        assert_eq!(lease.get().flat_capacity(), 0);
    }

    #[test]
    fn fused_prune_equals_mxm_then_apply_prune() {
        use crate::ops::transform::apply_prune_ctx;
        use semiring::FnOp;
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(64, 64, 300, 31, s);
        let b = random_dcsr(64, 64, 300, 32, s);
        let ctx = OpCtx::new().with_threads(1);
        // Bias + ReLU epilogues, including a positive bias where
        // op(0) = 5 > 0: the fused kernel must still never materialize
        // entries at positions the plain product leaves absent.
        for bias in [-0.5, 0.0, 5.0] {
            let op = FnOp(move |x: f64| (x + bias).max(0.0));
            let fused = mxm_apply_prune_ctx(&ctx, &a, &b, s, op, s);
            let two_pass = apply_prune_ctx(&ctx, &mxm_ctx(&ctx, &a, &b, s), op, s);
            assert!(fused == two_pass, "bias={bias}");
        }
    }

    #[test]
    fn fused_prune_is_thread_invariant() {
        use semiring::FnOp;
        let s = PlusTimes::<f64>::new();
        // Big enough to trigger the sharded path (>512 non-empty rows).
        let a = random_dcsr(2000, 2000, 20_000, 33, s);
        let b = random_dcsr(2000, 2000, 20_000, 34, s);
        // Product entries are sums of ~1–3 terms from [1,4), so a -3.0
        // shift prunes a real fraction without emptying the result.
        let op = FnOp(|x: f64| (x - 3.0).max(0.0));
        let ctx1 = OpCtx::new().with_threads(1);
        let reference = mxm_apply_prune_ctx(&ctx1, &a, &b, s, op, s);
        assert!(reference.nnz() > 0);
        for threads in [2, 4, 8] {
            let ctxn = OpCtx::new().with_threads(threads);
            assert_eq!(mxm_apply_prune_ctx(&ctxn, &a, &b, s, op, s), reference);
        }
    }

    #[test]
    fn try_fused_prune_reports_typed_error() {
        let e = check_mxm("mxm_apply_prune", (3, 4), (5, 3)).unwrap_err();
        assert!(
            matches!(
                e,
                OpError::DimensionMismatch {
                    op: "mxm_apply_prune",
                    rule: "inner dimensions differ",
                    ..
                }
            ),
            "{e:?}"
        );
    }

    #[test]
    fn masked_mxm_records_span_when_traced() {
        use crate::trace::TraceMode;
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(32, 32, 200, 7, s);
        let b = random_dcsr(32, 32, 200, 8, s);
        let mask = random_dcsr(32, 32, 100, 9, s);
        let ctx = OpCtx::new().with_threads(1);
        ctx.trace().set_mode(TraceMode::Full);
        let _ = mxm_masked_ctx(&ctx, &a, &b, &mask, false, s);
        let spans = ctx.trace().spans();
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert_eq!(spans[0].name, "mxm_masked");
        assert!(spans[0].detail.contains("32×32"), "{:?}", spans[0]);
    }
}
