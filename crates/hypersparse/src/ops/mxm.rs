//! Sparse matrix–matrix multiply (SpGEMM) — the array ⊕.⊗ of Table II.
//!
//! Gustavson's row-wise algorithm: for each non-empty row *i* of `A`,
//! accumulate `⊕_k A(i,k) ⊗ B(k,:)` — one row loop, a mask probe saying
//! where each ⊗ folds, and four accumulator strategies:
//!
//! * **hash** — a `HashMap<col, T>` per row: `O(flops)` regardless of the
//!   column dimension; the only choice in hypersparse column spaces.
//! * **dense scratch** — a reusable `Vec<Option<T>>` of width `ncols`:
//!   faster constants when the column space is compact.
//! * **flat scratch** — for a semiring that declares
//!   [`Semiring::FLAT_ACC`] the dense path is a zero-seeded `Vec<T>`
//!   folded unconditionally (`slot = slot ⊕ p`, no `Option`
//!   discriminant). An unmasked row whose ⊗ count is at least half its
//!   column span folds without an occupancy bitmap and drains by one
//!   scan of that span; sparser rows keep the bitmap, drained
//!   word-at-a-time. Both are bit-identical to the `Option<T>` path
//!   (DESIGN.md §13).
//! * **mask slots** — one per entry of a structural mask's row, drained
//!   in mask order (no hash, no sort); a complement mask filters instead.
//!
//! [`mxm_ctx`], [`mxm_apply_prune_ctx`] and [`mxm_masked_ctx`] are one
//! driver with mask, complement and epilogue as arguments (the GraphBLAS
//! C API's `mxm`); [`mxm_masked_count_ctx`] runs its frame to count a
//! masked product's ⊗ without building it. It picks hash vs
//! width-proportional from the input (EXPERIMENTS.md records the
//! crossover) and flat vs `Option<T>` from the semiring's
//! type; in `compact` id spaces B's rows and mask entries are indexed,
//! not searched. Accumulator scratch is **leased from the context's
//! workspace arena**
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

use std::collections::{hash_map::Entry, HashMap};
use std::ops::Range;

use semiring::traits::{Semiring, UnaryOp, Value};

use crate::ctx::{MxmScratch, OpCtx};
use crate::dcsr::{Dcsr, DcsrBuilder};
use crate::error::OpError;
use crate::index::IndexType;
use crate::metrics::{Decision, Kernel};
use crate::Ix;

/// Column spaces at most this wide *may* use the dense scratch
/// accumulator — provided the row range also carries enough estimated
/// flops (see [`dense_acc_pays_off`]) — and bound every id-indexed
/// array ([`compact`]) and the vxm flat push: the widest the pooled
/// `MxmScratch::flat` grows.
pub(crate) const DENSE_ACC_MAX: u64 = 1 << 22;

/// Whether an id space `width` wide is **compact** for operands holding
/// `nnz` entries between them: narrow enough for an id-indexed array and
/// no wider than the entries that index it, so building, walking or
/// clearing that array costs no more than one pass over the operands.
/// The one rule for direct addressing (B-row locator, mask scatter
/// slots, transpose's counting pass); wider spaces search and radix-sort.
pub fn compact(width: Ix, nnz: usize) -> bool {
    width <= DENSE_ACC_MAX && width <= nnz as Ix
}

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

/// An unmasked flat row whose ⊗ count is at least `1 / SCAN_DENSITY` of
/// its column span folds without the occupancy bitmap and drains by one
/// scan of the span (both numbers read off B's rows before folding): the
/// scan then visits at most two slots per product, and every product
/// saves the bitmap's read-modify-write.
const SCAN_DENSITY: u64 = 2;

/// `A ⊕.⊗ B` conformance, shared by the plain, fused-prune and masked
/// multiplies (they differ only in the `op` the error names).
pub fn check_mxm(op: &'static str, a: (Ix, Ix), b: (Ix, Ix)) -> Result<(), OpError> {
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
pub fn check_mxm_masked(a: (Ix, Ix), b: (Ix, Ix), mask: (Ix, Ix)) -> Result<(), OpError> {
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
    spgemm(ctx, "mxm", a, b, None::<(&Dcsr<T, I>, bool)>, s, &keep)
}

/// The epilogue of a product that has none: every non-zero sum is
/// stored as it stands.
fn keep<T>(v: T) -> (T, bool) {
    (v, true)
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
    let ep = move |v: T| {
        let w = op.apply(v);
        let keep = !drop.is_zero(&w);
        (w, keep)
    };
    spgemm(
        ctx,
        "mxm_apply_prune",
        a,
        b,
        None::<(&Dcsr<T, I>, bool)>,
        s,
        &ep,
    )
}

/// Masked SpGEMM through an explicit context: `C = (A ⊕.⊗ B) ⊙ mask`
/// (structural mask, i.e. only positions stored in `mask` are
/// computed/kept; `complement` inverts the selection). Fusing the mask
/// into the accumulator loop is what makes edge support and k-truss
/// `O(flops into the mask)` instead of `O(all flops)`; `flops` counts
/// only the ⊗ that land in the selection.
pub fn mxm_masked_ctx<T: Value, M: Value, I: IndexType, S: Semiring<Value = T>>(
    ctx: &OpCtx,
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    mask: &Dcsr<M, I>,
    complement: bool,
    s: S,
) -> Dcsr<T, I> {
    spgemm(ctx, "mxm_masked", a, b, Some((mask, complement)), s, &keep)
}

/// The masked-product count: how many `(i, k, j)` have `A(i,k)`,
/// `B(k,j)` and `mask(i,j)` all stored — `Σ (A plus.pair B)⟨mask⟩`, the
/// ⊗ count [`mxm_masked_ctx`] records as `flops` for the same operands,
/// without building the product it would sum. No value is read, so each
/// operand may have its own value type, and each probe adds its hit flag
/// instead of branching on it. It runs the masked driver's check,
/// B-row locator, mask decision and weighted shards (integer partial
/// counts, so the sum is the same at any thread count) on the
/// value-free scratch, and meters as [`Kernel::MxmMasked`] with `flops`
/// = the count. Triangle counting's `Σ (L ⊕.⊗ L) ⊙ L` is this count.
pub fn mxm_masked_count_ctx<A: Value, B: Value, M: Value, I: IndexType>(
    ctx: &OpCtx,
    a: &Dcsr<A, I>,
    b: &Dcsr<B, I>,
    mask: &Dcsr<M, I>,
) -> u64 {
    check_mxm_masked(a.shape(), b.shape(), mask.shape()).unwrap_or_else(|e| panic!("{e}"));
    let run = ctx.kernel(Kernel::MxmMasked, || detail(a, b));
    let nnz = a.nnz() + b.nnz() + mask.nnz();
    let parts = drive(ctx, a, b, nnz, true, |rows, scatter, range| {
        let mut lease = ctx.lease_mxm_scratch::<()>();
        let width = b.ncols() as usize;
        let mut probe = MaskProbe::open(Some((mask, false)), scatter, width, lease.get());
        let count = count_rows(a, rows, &mut probe, range);
        lease.get().slots = probe.slot;
        count
    });
    let count = parts.iter().sum();
    let bytes = a.bytes() + b.bytes() + mask.bytes() + std::mem::size_of::<u64>();
    run.done(nnz as u64, 1, count, bytes as u64);
    count
}

/// The one SpGEMM driver: check, span, shard frame ([`drive`]), lease,
/// assemble, metrics. A `(mask, complement)` makes it [`Kernel::MxmMasked`];
/// `ep` is the drain-time epilogue (`&keep` when there is none), mapping
/// a non-zero sum to the value to store and whether to store it. It
/// returns a flag rather than an `Option` so a scanned row can write every
/// candidate and advance by the flag, with no branch around the write.
fn spgemm<T, M, I, S, E>(
    ctx: &OpCtx,
    op: &'static str,
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    mask: MaskOf<'_, M, I>,
    s: S,
    ep: &E,
) -> Dcsr<T, I>
where
    T: Value,
    M: Value,
    I: IndexType,
    S: Semiring<Value = T>,
    E: Fn(T) -> (T, bool) + Sync,
{
    match mask {
        Some((m, _)) => check_mxm_masked(a.shape(), b.shape(), m.shape()),
        None => check_mxm(op, a.shape(), b.shape()),
    }
    .unwrap_or_else(|e| panic!("{e}"));
    let kernel = mask.map_or(Kernel::Mxm, |_| Kernel::MxmMasked);
    let (mask_nnz, mask_bytes) = mask.map_or((0, 0), |(m, _)| (m.nnz(), m.bytes()));
    let run = ctx.kernel(kernel, || detail(a, b));
    let nnz = a.nnz() + b.nnz() + mask_nnz;
    let m = ctx.metrics();
    let parts = drive(ctx, a, b, nnz, mask.is_some(), |rows, scatter, range| {
        let mut lease = ctx.lease_mxm_scratch::<T>();
        let (part, flops, acc, [scan, bitmap]) =
            multiply_row_range(a, rows, (mask, scatter), s, range, lease.get(), ep);
        m.record_decision(acc, 1);
        m.record_decision(Decision::DrainScan, scan);
        m.record_decision(Decision::DrainBitmap, bitmap);
        (part, flops)
    });
    let flops = parts.iter().map(|(_, f)| f).sum();
    let c = assemble(parts.into_iter().map(|(c, _)| c).collect());
    run.done(
        nnz as u64,
        c.nnz() as u64,
        flops,
        (a.bytes() + b.bytes() + mask_bytes + c.bytes()) as u64,
    );
    c
}

/// A product's span detail: operand shapes and entries.
fn detail<A: Value, B: Value, I: IndexType>(a: &Dcsr<A, I>, b: &Dcsr<B, I>) -> String {
    let (ar, ac, br, bc) = (a.nrows(), a.ncols(), b.nrows(), b.ncols());
    format!("{ar}×{ac} · {br}×{bc} nnz {}+{}", a.nnz(), b.nnz())
}

/// The frame of every SpGEMM call: the `mxm_b_rows` decision and, when
/// `masked`, the `mxm_mask` one (each [`compact`] over the operands'
/// `nnz`), B's row locator, and `job(rows, scatter, range)` over A's
/// stored rows, planned by [`OpCtx::par_rows`] on the product's ⊗ count
/// ([`flops_up_to`]) — its results in row order.
fn drive<A, B, I, R>(
    ctx: &OpCtx,
    a: &Dcsr<A, I>,
    b: &Dcsr<B, I>,
    nnz: usize,
    masked: bool,
    job: impl Fn(&BRows<'_, B, I>, bool, Range<usize>) -> R + Sync,
) -> Vec<R>
where
    A: Value,
    B: Value,
    I: IndexType,
    R: Send,
{
    let indexed = compact(b.nrows(), nnz);
    let scatter = masked && compact(b.ncols(), nnz);
    let m = ctx.metrics();
    let rows_d = [Decision::MxmRowsSearched, Decision::MxmRowsIndexed];
    m.record_decision(rows_d[usize::from(indexed)], 1);
    if masked {
        let mask_d = [Decision::MxmMaskSearch, Decision::MxmMaskScatter];
        m.record_decision(mask_d[usize::from(scatter)], 1);
    }
    with_locator(ctx, b, indexed, |rows| {
        let work = flops_up_to(a, rows, 0..a.n_nonempty_rows(), ctx.work_to_fill());
        ctx.par_rows(work, a, |range| job(rows, scatter, range))
    })
}

/// The ⊗ count of A's stored rows `range` against B — each of their
/// entries meets `|B.row(k)|` entries of B — counted only until it
/// reaches `enough`, so a hypersparse range answers after touching only
/// its own nnz. A product's work for the thread rule, and the estimate
/// behind [`dense_acc_pays_off`].
fn flops_up_to<A: Value, B: Value, I: IndexType>(
    a: &Dcsr<A, I>,
    rows: &BRows<'_, B, I>,
    range: Range<usize>,
    enough: u64,
) -> u64 {
    let mut flops = 0u64;
    for k_row in range {
        for &k in a.row_at(k_row).1 {
            if flops >= enough {
                return flops;
            }
            flops += rows.row(k).0.len() as u64;
        }
    }
    flops
}

/// Concatenate per-range results (in row order) as slice copies; a lone
/// range is the result as it stands.
fn assemble<T: Value, I: IndexType>(mut parts: Vec<Dcsr<T, I>>) -> Dcsr<T, I> {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let (nrows, ncols) = parts[0].shape();
    let mut out = DcsrBuilder::with_capacity(nrows, ncols, parts.iter().map(Dcsr::nnz).sum());
    for p in &parts {
        out.extend_rows(p, 0, p.n_nonempty_rows());
    }
    out.finish()
}

/// The one B-row lookup of every SpGEMM path. Over a [`compact`] row
/// space `pos[k]` is one plus row `k`'s position among B's stored rows
/// (`0`: none), built once per call and shared by the shards; otherwise
/// a binary search of B's row ids, the only way into a 2³² row space.
struct BRows<'a, T, I: IndexType> {
    b: &'a Dcsr<T, I>,
    pos: Option<&'a [u32]>,
}

impl<'a, T: Value, I: IndexType> BRows<'a, T, I> {
    /// Columns and values of B's row `k` (empty slices if it has none).
    #[inline(always)]
    fn row(&self, k: I) -> (&'a [I], &'a [T]) {
        let at = match self.pos {
            Some(pos) => (pos[k.as_usize()] as usize).checked_sub(1),
            None => self.b.find_row(k.to_ix()),
        };
        at.map_or((&[], &[]), |p| {
            let (_, cols, vals) = self.b.row_at(p);
            (cols, vals)
        })
    }
}

/// Run `f` with B's row locator — `indexed` on the context's pooled
/// position index ([`OpCtx::with_row_index`] over B's row ids),
/// searched otherwise.
fn with_locator<T: Value, I: IndexType, R>(
    ctx: &OpCtx,
    b: &Dcsr<T, I>,
    indexed: bool,
    f: impl FnOnce(&BRows<'_, T, I>) -> R,
) -> R {
    if !indexed {
        return f(&BRows { b, pos: None });
    }
    let ids = b.row_ids().iter().map(|&r| r as usize);
    ctx.with_row_index(b.nrows() as usize, ids, |pos| {
        f(&BRows { b, pos: Some(pos) })
    })
}

/// A structural mask and whether it is complemented.
type MaskOf<'a, M, I> = Option<(&'a Dcsr<M, I>, bool)>;

/// Where a row's products fold: unmasked, in their own column's slot;
/// under a mask, in their mask entry's slot `t` (`slot[j] = t + 1` over
/// a compact column space, cleared by walking the row; else a
/// `binary_search` of the row); under a complement, in their own slot
/// when off the row.
struct MaskProbe<'a, M, I: IndexType> {
    mask: MaskOf<'a, M, I>,
    scatter: bool,
    slot: Vec<u32>,
    row: &'a [I],
}

impl<'a, M: Value, I: IndexType> MaskProbe<'a, M, I> {
    /// A probe for `mask` on `scratch`'s slots, grown to `width` when
    /// `scatter`; the caller hands `slot` back to `scratch.slots`.
    fn open<T>(
        mask: MaskOf<'a, M, I>,
        scatter: bool,
        width: usize,
        scratch: &mut MxmScratch<T>,
    ) -> Self {
        let mut slot = std::mem::take(&mut scratch.slots);
        if scatter && slot.len() < width {
            slot = vec![0; width];
        }
        MaskProbe {
            mask,
            scatter,
            slot,
            row: &[],
        }
    }

    /// Open row `i`; `false` when nothing of it can survive the mask.
    fn enter(&mut self, i: Ix) -> bool {
        let Some((mask, complement)) = self.mask else {
            return true;
        };
        self.row = mask.row(i).0;
        if self.scatter {
            for (t, &m) in self.row.iter().enumerate() {
                self.slot[m.as_usize()] = t as u32 + 1;
            }
        }
        complement || !self.row.is_empty()
    }

    /// The slot a product landing in column `j` folds into, if any.
    #[inline(always)]
    fn slot(&self, j: I) -> Option<Ix> {
        let Some((_, complement)) = self.mask else {
            return Some(j.to_ix());
        };
        let t = if self.scatter {
            (self.slot[j.as_usize()] as Ix).checked_sub(1)
        } else {
            self.row.binary_search(&j).ok().map(|t| t as Ix)
        };
        match (t, complement) {
            (Some(t), false) => Some(t),
            (None, true) => Some(j.to_ix()),
            _ => None,
        }
    }

    /// How many of `cols` the open mask row holds (uncomplemented): each
    /// probe's hit flag is added, not branched on.
    #[inline(always)]
    fn hits(&self, cols: &[I]) -> u64 {
        if self.scatter {
            cols.iter()
                .map(|&j| u64::from(self.slot[j.as_usize()] != 0))
                .sum()
        } else {
            cols.iter()
                .map(|j| u64::from(self.row.binary_search(j).is_ok()))
                .sum()
        }
    }

    /// Close the open row, putting its slots back to rest.
    fn leave(&mut self) {
        if self.scatter {
            for &m in self.row {
                self.slot[m.as_usize()] = 0;
            }
        }
    }
}

/// Row `i` of `A` against `B` under the open mask probe: the products
/// every accumulator folds.
struct Row<'r, T, M, I: IndexType, S> {
    acols: &'r [I],
    avals: &'r [T],
    rows: &'r BRows<'r, T, I>,
    probe: &'r MaskProbe<'r, M, I>,
    s: S,
}

impl<T: Value, M: Value, I: IndexType, S: Semiring<Value = T>> Row<'_, T, M, I, S> {
    /// Hand `fold` every `A(i,k) ⊗ B(k,j)` with the slot the probe places
    /// it in, in the one visitation order; the ⊗ count.
    #[inline(always)]
    fn fold(&self, mut fold: impl FnMut(Ix, T)) -> u64 {
        let mut flops = 0u64;
        for (&k, aik) in self.acols.iter().zip(self.avals) {
            let (bcols, bvals) = self.rows.row(k);
            for (&j, bkj) in bcols.iter().zip(bvals) {
                if let Some(t) = self.probe.slot(j) {
                    flops += 1;
                    fold(t, self.s.mul(aik.clone(), bkj.clone()));
                }
            }
        }
        flops
    }

    /// [`Row::fold`] of an unmasked row into its columns' slots of `flat`:
    /// a B row whose stored columns form one run folds as a zip of its
    /// slots with its values, any other through its column ids. Each slot
    /// still takes its products in A's column order.
    #[inline(always)]
    fn fold_flat(&self, flat: &mut [T]) -> u64 {
        let (s, mut flops) = (self.s, 0u64);
        for (&k, aik) in self.acols.iter().zip(self.avals) {
            let (bcols, bvals) = self.rows.row(k);
            let fold = |slot: &mut T, bkj: &T| s.add_assign(slot, s.mul(aik.clone(), bkj.clone()));
            match (bcols.first(), bcols.last()) {
                (Some(f), Some(l)) if l.as_usize() - f.as_usize() + 1 == bcols.len() => {
                    let run = flat[f.as_usize()..=l.as_usize()].iter_mut();
                    run.zip(bvals).for_each(|(slot, bkj)| fold(slot, bkj));
                }
                _ => (bcols.iter().zip(bvals))
                    .for_each(|(j, bkj)| fold(&mut flat[j.as_usize()], bkj)),
            }
            flops += bcols.len() as u64;
        }
        flops
    }

    /// The columns `lo..hi` an unmasked row's products land in, when its
    /// ⊗ count is at least `(hi - lo) / SCAN_DENSITY` — both read off B's
    /// rows, before any product.
    fn dense_span(&self) -> Option<Range<usize>> {
        if self.probe.mask.is_some() {
            return None;
        }
        let (mut flops, mut lo, mut hi) = (0u64, usize::MAX, 0);
        for &k in self.acols {
            let (bcols, _) = self.rows.row(k);
            if let (Some(first), Some(last)) = (bcols.first(), bcols.last()) {
                flops += bcols.len() as u64;
                lo = lo.min(first.as_usize());
                hi = hi.max(last.as_usize() + 1);
            }
        }
        (flops > 0 && flops * SCAN_DENSITY >= (hi - lo) as u64).then_some(lo..hi)
    }
}

/// One output row's storage: `fold` ⊕-folds `p` into slot `t`; `drain`
/// visits `(column, value)` ascending (`mask_row` maps mask slots back to
/// columns) and leaves the storage at rest; `row` runs one row through
/// both into `out`.
trait RowAcc<T: Value, I: IndexType, S: Semiring<Value = T>> {
    const KIND: Decision;
    fn fold(&mut self, t: Ix, p: T);
    fn drain(&mut self, mask_row: &[I], visit: impl FnMut(I, T));

    /// Fold row `r` and drain it into `out` through `ep`; its ⊗ count.
    fn row<M: Value>(
        &mut self,
        r: &Row<'_, T, M, I, S>,
        out: &mut DcsrBuilder<T, I>,
        ep: &impl Fn(T) -> (T, bool),
    ) -> u64
    where
        Self: Sized,
    {
        fold_then_drain(self, r, out, ep)
    }

    /// Flat rows drained `[by scan, through the bitmap]`.
    fn drains(&self) -> [u64; 2] {
        [0, 0]
    }
}

/// Every product through [`RowAcc::fold`], every sum through
/// [`RowAcc::drain`] into `out` unless it is a semiring zero or the
/// epilogue drops it: `ep` never sees a zero, so it only ever maps values
/// the two-pass path would store.
#[inline(always)]
fn fold_then_drain<T, M, I, S, A>(
    acc: &mut A,
    r: &Row<'_, T, M, I, S>,
    out: &mut DcsrBuilder<T, I>,
    ep: &impl Fn(T) -> (T, bool),
) -> u64
where
    T: Value,
    M: Value,
    I: IndexType,
    S: Semiring<Value = T>,
    A: RowAcc<T, I, S>,
{
    let flops = r.fold(|t, p| acc.fold(t, p));
    acc.drain(r.probe.row, |j, v| {
        if !r.s.is_zero(&v) {
            let (w, keep) = ep(v);
            if keep {
                out.push(j, w);
            }
        }
    });
    flops
}

struct HashAcc<'a, T, I, S>(&'a mut HashMap<Ix, T>, Vec<(I, T)>, S);

impl<T: Value, I: IndexType, S: Semiring<Value = T>> RowAcc<T, I, S> for HashAcc<'_, T, I, S> {
    const KIND: Decision = Decision::MxmHash;
    fn fold(&mut self, t: Ix, p: T) {
        match self.0.entry(t) {
            Entry::Occupied(mut e) => self.2.add_assign(e.get_mut(), p),
            Entry::Vacant(e) => {
                e.insert(p);
            }
        }
    }
    fn drain(&mut self, _: &[I], mut visit: impl FnMut(I, T)) {
        self.1
            .extend(self.0.drain().map(|(j, v)| (I::from_ix(j), v)));
        self.1.sort_unstable_by_key(|e| e.0);
        self.1.drain(..).for_each(|(j, v)| visit(j, v));
    }
}

struct DenseAcc<'a, T, S>(&'a mut [Option<T>], &'a mut Vec<Ix>, S);

impl<T: Value, I: IndexType, S: Semiring<Value = T>> RowAcc<T, I, S> for DenseAcc<'_, T, S> {
    const KIND: Decision = Decision::MxmDense;
    fn fold(&mut self, t: Ix, p: T) {
        match &mut self.0[t as usize] {
            Some(v) => self.2.add_assign(v, p),
            slot @ None => {
                *slot = Some(p);
                self.1.push(t);
            }
        }
    }
    fn drain(&mut self, _: &[I], mut visit: impl FnMut(I, T)) {
        self.1.sort_unstable();
        for t in self.1.drain(..) {
            visit(I::from_ix(t), self.0[t as usize].take().expect("touched"));
        }
    }
}

/// The flat accumulator of an SpGEMM row range: a row that
/// [`Row::dense_span`] admits folds into the bare slots and drains by
/// one scan of its span into the compaction buffers `cols`/`vals`; any
/// other row goes through `acc`'s occupancy bitmap.
struct FlatRows<'a, T, S> {
    acc: FlatAcc<'a, T>,
    cols: &'a mut Vec<u32>,
    vals: &'a mut Vec<T>,
    s: S,
    drains: [u64; 2],
}

impl<T: Value, S: Semiring<Value = T>> FlatRows<'_, T, S> {
    /// Drain columns `span` by one scan: every slot goes back to the zero
    /// and its candidate is written at the compaction position, which
    /// advances by the candidate's keep flag — no occupancy word, no
    /// `Option` to unpack, no branch around the write. The one test left
    /// is the zero check that keeps `ep` to non-zero sums, as
    /// [`fold_then_drain`]'s contract asks.
    fn scan<I: IndexType>(
        &mut self,
        span: Range<usize>,
        out: &mut DcsrBuilder<T, I>,
        ep: &impl Fn(T) -> (T, bool),
    ) {
        let (s, len) = (self.s, span.len());
        if self.cols.len() < len {
            self.cols.resize(len, 0);
            self.vals.resize(len, s.zero());
        }
        let (cols, vals) = (&mut self.cols[..len], &mut self.vals[..len]);
        let mut n = 0;
        for (j, slot) in span.clone().zip(&mut self.acc.flat[span]) {
            let v = std::mem::replace(slot, s.zero());
            let (w, keep) = if s.is_zero(&v) { (v, false) } else { ep(v) };
            // A flat column space is at most DENSE_ACC_MAX wide.
            cols[n] = j as u32;
            vals[n] = w;
            n += usize::from(keep);
        }
        out.extend_compact(&cols[..n], &vals[..n]);
    }
}

impl<T: Value, I: IndexType, S: Semiring<Value = T>> RowAcc<T, I, S> for FlatRows<'_, T, S> {
    const KIND: Decision = Decision::MxmFlat;
    #[inline(always)]
    fn fold(&mut self, t: Ix, p: T) {
        self.acc.fold(self.s, t as usize, p);
    }
    fn drain(&mut self, _: &[I], mut visit: impl FnMut(I, T)) {
        self.acc.drain(self.s, |t, v| visit(I::from_usize(t), v));
    }
    fn row<M: Value>(
        &mut self,
        r: &Row<'_, T, M, I, S>,
        out: &mut DcsrBuilder<T, I>,
        ep: &impl Fn(T) -> (T, bool),
    ) -> u64 {
        let Some(span) = r.dense_span() else {
            self.drains[1] += 1;
            return fold_then_drain(self, r, out, ep);
        };
        self.drains[0] += 1;
        let flops = r.fold_flat(self.acc.flat);
        self.scan(span, out, ep);
        flops
    }
    fn drains(&self) -> [u64; 2] {
        self.drains
    }
}

/// Mask slots, slot `t` for the open mask row's `t`-th entry: the
/// zero-seeded flat scratch for a [`Semiring::FLAT_ACC`] semiring,
/// `Option<T>` otherwise; drained in mask order.
struct MaskSlots<'a, T, S>(&'a mut [T], &'a mut [Option<T>], S);

impl<T: Value, I: IndexType, S: Semiring<Value = T>> RowAcc<T, I, S> for MaskSlots<'_, T, S> {
    const KIND: Decision = Decision::MxmMaskSlot;
    fn fold(&mut self, t: Ix, p: T) {
        match S::FLAT_ACC {
            true => self.2.add_assign(&mut self.0[t as usize], p),
            false => match &mut self.1[t as usize] {
                Some(v) => self.2.add_assign(v, p),
                slot @ None => *slot = Some(p),
            },
        }
    }
    fn drain(&mut self, mask_row: &[I], mut visit: impl FnMut(I, T)) {
        for (t, &j) in mask_row.iter().enumerate() {
            let v = match S::FLAT_ACC {
                true => Some(std::mem::replace(&mut self.0[t], self.2.zero())),
                false => self.1[t].take(),
            };
            v.into_iter().for_each(|v| visit(j, v));
        }
    }
}

/// Rows `range` of `A ⊕.⊗ B` on workspace `scratch`, their ⊗ count,
/// the accumulator that ran them and its flat rows by drain (see
/// [`RowAcc::drains`]): mask slots under a structural mask, else hash vs
/// width-proportional by [`dense_acc_pays_off`] and flat vs `Option<T>`
/// by [`Semiring::FLAT_ACC`] (resolved at monomorphisation). `scatter`
/// says whether a mask row is scattered into id-indexed slots.
fn multiply_row_range<T, M, I, S>(
    a: &Dcsr<T, I>,
    rows: &BRows<'_, T, I>,
    (mask, scatter): (MaskOf<'_, M, I>, bool),
    s: S,
    range: Range<usize>,
    scratch: &mut MxmScratch<T>,
    ep: &impl Fn(T) -> (T, bool),
) -> (Dcsr<T, I>, u64, Decision, [u64; 2])
where
    T: Value,
    M: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    let width = rows.b.ncols() as usize;
    let mut probe = MaskProbe::open(mask, scatter, width, scratch);
    let out = match mask {
        Some((m, false)) => {
            let most = m.iter_rows().map(|(_, cols, _)| cols.len()).max();
            if S::FLAT_ACC {
                scratch.ensure_flat_width(most.unwrap_or(0), s.zero());
            } else {
                scratch.ensure_dense_width(most.unwrap_or(0));
            }
            let acc = &mut MaskSlots(&mut scratch.flat, &mut scratch.dense, s);
            gustavson(a, rows, &mut probe, acc, s, range, ep)
        }
        _ if !dense_acc_pays_off(a, rows, range.clone()) => {
            let acc = &mut HashAcc(&mut scratch.hash, Vec::new(), s);
            gustavson(a, rows, &mut probe, acc, s, range, ep)
        }
        _ if S::FLAT_ACC => {
            scratch.ensure_flat_width(width, s.zero());
            scratch.ensure_words(width.div_ceil(64));
            let acc = &mut FlatRows {
                acc: FlatAcc::new(&mut scratch.flat, &mut scratch.words),
                cols: &mut scratch.scan_cols,
                vals: &mut scratch.scan_vals,
                s,
                drains: [0, 0],
            };
            gustavson(a, rows, &mut probe, acc, s, range, ep)
        }
        _ => {
            scratch.ensure_dense_width(width);
            let acc = &mut DenseAcc(&mut scratch.dense, &mut scratch.touched, s);
            gustavson(a, rows, &mut probe, acc, s, range, ep)
        }
    };
    scratch.slots = probe.slot;
    out
}

/// The row loop every product runs: for each row of `A` in `range`, the
/// accumulator folds `A(i,k) ⊗ B(k,j)` wherever the probe places it and
/// drains the row through `ep` ([`RowAcc::row`]). Returns the rows, the
/// ⊗ count, the accumulator's kind and its flat rows by drain.
fn gustavson<T, M, I, S, A>(
    a: &Dcsr<T, I>,
    rows: &BRows<'_, T, I>,
    probe: &mut MaskProbe<'_, M, I>,
    acc: &mut A,
    s: S,
    range: Range<usize>,
    ep: &impl Fn(T) -> (T, bool),
) -> (Dcsr<T, I>, u64, Decision, [u64; 2])
where
    T: Value,
    M: Value,
    I: IndexType,
    S: Semiring<Value = T>,
    A: RowAcc<T, I, S>,
{
    let mut out = DcsrBuilder::with_capacity(a.nrows(), rows.b.ncols(), 0);
    let mut flops = 0u64;
    for k_row in range {
        let (i, acols, avals) = a.row_at(k_row);
        if !probe.enter(i) {
            continue;
        }
        out.row(i);
        let r = Row {
            acols,
            avals,
            rows,
            probe,
            s,
        };
        flops += acc.row(&r, &mut out, ep);
        probe.leave();
    }
    (out.finish(), flops, A::KIND, acc.drains())
}

/// Rows `range` of `A` against `B` under `probe`'s mask: how many
/// `B(k,j)` reached through a stored `A(i,k)` land on a stored
/// `mask(i,j)` ([`MaskProbe::hits`]).
fn count_rows<A, B, M, I>(
    a: &Dcsr<A, I>,
    rows: &BRows<'_, B, I>,
    probe: &mut MaskProbe<'_, M, I>,
    range: Range<usize>,
) -> u64
where
    A: Value,
    B: Value,
    M: Value,
    I: IndexType,
{
    let mut count = 0;
    for k_row in range {
        let (i, acols, _) = a.row_at(k_row);
        if probe.enter(i) {
            count += acols
                .iter()
                .map(|&k| probe.hits(rows.row(k).0))
                .sum::<u64>();
            probe.leave();
        }
    }
    count
}

/// Whether a width-proportional accumulator (dense `Vec<Option<T>>` or
/// the flat scratch) is worth leasing for rows
/// `range`: the column space must be compact (`≤ DENSE_ACC_MAX`)
/// **and** the range must carry enough estimated flops both in total
/// (`width / DENSE_ACC_FLOP_RATIO`) and per row
/// (`rows · width / DENSE_ACC_ROW_RATIO` — the tall-skinny guard), as
/// [`flops_up_to`] counts them. Either accumulator yields identical
/// output, so this per-range choice never affects determinism.
fn dense_acc_pays_off<T: Value, I: IndexType>(
    a: &Dcsr<T, I>,
    rows: &BRows<'_, T, I>,
    range: Range<usize>,
) -> bool {
    let width = rows.b.ncols();
    if width > DENSE_ACC_MAX {
        return false;
    }
    let need = (width / DENSE_ACC_FLOP_RATIO)
        .max(1)
        .max(range.len() as u64 * (width / DENSE_ACC_ROW_RATIO));
    flops_up_to(a, rows, range, need) >= need
}

/// A zero-seeded flat accumulator plus an occupancy bitmap over borrowed
/// storage — the shared core of the [`Semiring::FLAT_ACC`] kernels
/// (SpGEMM rows here, the vxm push in `ops::mxv`). Folds are
/// unconditional (`slot = slot ⊕ p`: no `Option` discriminant, no
/// per-product branch); [`FlatAcc::drain`] visits the touched slots in
/// ascending column order without a sort and returns every slot and
/// word it consumes to `s.zero()` / `0`, so pooled storage goes back
/// clean. Bit-identical to the `Option<T>` path (`tests/hotpath_props.rs`):
/// only the seed differs (`0 ⊕ p` versus `p`), which the law hides.
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
        // Two chunks of operand entries: the thread rule fans out.
        let a = random_dcsr(2000, 2000, 20_000, 3, s);
        let b = random_dcsr(2000, 2000, 20_000, 4, s);
        let auto = OpCtx::new();
        assert_eq!(
            mxm_ctx(&auto, &a, &b, s),
            mxm_ctx(&OpCtx::new().with_threads(1), &a, &b, s)
        );
        let many = auto.metrics().snapshot().decision(Decision::FanOutMany);
        assert_eq!(many == 1, auto.threads() > 1, "fans out iff the cap allows");
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
            let many = ctxn.metrics().snapshot().decision(Decision::FanOutMany);
            assert_eq!(many, 1, "one thread at {threads}");
        }
    }

    #[test]
    fn skewed_rows_shard_deterministically() {
        // Deliberately skewed rows: the weighted plan's boundaries move
        // with the thread count, the answer must not.
        let s = PlusTimes::<f64>::new();
        let p = crate::gen::RmatParams {
            scale: 12,
            ..Default::default()
        };
        let a = crate::gen::rmat_dcsr(p, 35, s);
        let b = crate::gen::rmat_dcsr(p, 36, s);
        let seq = OpCtx::new().with_threads(1);
        let par = OpCtx::new().with_threads(4);
        assert_eq!(mxm_ctx(&par, &a, &b, s), mxm_ctx(&seq, &a, &b, s));
        let many = par.metrics().snapshot().decision(Decision::FanOutMany);
        assert_eq!(many, 1, "must take the sharded path");
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
        let (rows, n) = (BRows { b: &b, pos: None }, a.n_nonempty_rows());
        let unmasked = (None::<(&Dcsr<f64>, bool)>, false);
        let (part, _, acc, _) = multiply_row_range(&a, &rows, unmasked, s, 0..n, &mut ws, &keep);
        assert_eq!(acc, Decision::MxmFlat);
        assert!(part.nnz() > 0);
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
        // MinPlus does not declare FLAT_ACC, so a compact busy column
        // space takes the dense `Option<T>` accumulator; the same entries
        // with B's columns widened past DENSE_ACC_MAX take the hash one.
        let (gen, s) = (PlusTimes::<f64>::new(), MinPlus::<f64>::new());
        let a = random_dcsr(128, 128, 800, 5, gen);
        let b = random_dcsr(128, 128, 800, 6, gen);
        let (nr, _, rows, rowptr, colidx, vals) = b.clone().into_parts();
        let wide = Dcsr::from_parts(nr, 2 * DENSE_ACC_MAX, rows, rowptr, colidx, vals);
        let ctx = OpCtx::new().with_threads(1);
        let d = mxm_ctx(&ctx, &a, &b, s);
        let h = mxm_ctx(&ctx, &a, &wide, s);
        assert!(d.nnz() > 0);
        assert!(d.iter().eq(h.iter()));
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.decision(Decision::MxmDense), 1);
        assert_eq!(snap.decision(Decision::MxmHash), 1);
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
        let e = check_mxm_masked((3, 4), (5, 3), (3, 3)).unwrap_err();
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
        let e = check_mxm_masked((3, 4), (4, 6), (3, 3)).unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("mask must share the result's key space"),
            "{msg}"
        );
        assert!(msg.contains("3×6 vs 3×3"), "{msg}");
        assert!(check_mxm_masked((3, 4), (4, 6), (3, 6)).is_ok());
    }

    #[test]
    fn masked_parallel_equals_sequential_all_semirings() {
        // ~200 k flops: past two chunks of work, so the product shards.
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
                let many = ctxn.metrics().snapshot().decision(Decision::FanOutMany);
                assert_eq!(many, 2, "both products shard at {threads}");
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
        // ~200 k flops: past two chunks of work, so the product shards.
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
            let many = ctxn.metrics().snapshot().decision(Decision::FanOutMany);
            assert_eq!(many, 1, "sharded at {threads}");
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

    #[test]
    fn masked_count_hands_its_flag_scratch_back_at_rest() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(64, 64, 500, 71, s);
        let mask = random_dcsr(64, 64, 300, 73, s);
        let ctx = OpCtx::new().with_threads(1);
        let count = mxm_masked_count_ctx(&ctx, &a, &a, &mask);
        assert!(count > 0);
        let mut lease = ctx.lease_mxm_scratch::<()>();
        assert_eq!(lease.get().slots.len(), 64, "the mask was scattered");
        assert!(lease.get().slots.iter().all(|&t| t == 0), "flags left set");
    }

    #[test]
    fn accumulator_counter_names_each_path() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(128, 128, 800, 16, s);
        let b = random_dcsr(128, 128, 800, 17, s);
        let huge = 1u64 << 50;
        let mut hyper = Coo::new(huge, huge);
        hyper.extend([(7, 1 << 40, 2.0), (1 << 40, 123, 3.0)]);
        let hyper = hyper.build_dcsr(s);
        let ctx = OpCtx::new().with_threads(1);
        let count = |acc: Decision| ctx.metrics().snapshot().decision(acc);
        let _ = mxm_ctx(&ctx, &a, &b, s);
        assert_eq!(count(Decision::MxmFlat), 1);
        let _ = mxm_ctx(&ctx, &a, &b, MinPlus::<f64>::new());
        assert_eq!(count(Decision::MxmDense), 1);
        let _ = mxm_ctx(&ctx, &hyper, &hyper, s);
        assert_eq!(count(Decision::MxmHash), 1);
        let _ = mxm_masked_ctx(&ctx, &a, &b, &a, false, s);
        assert_eq!(count(Decision::MxmMaskSlot), 1);
        // A complement mask runs the plain accumulator the input picks.
        let _ = mxm_masked_ctx(&ctx, &a, &b, &a, true, s);
        assert_eq!(count(Decision::MxmFlat), 2);
    }
}
