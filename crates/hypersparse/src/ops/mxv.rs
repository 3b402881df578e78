//! Direction-optimized, mask-fused matrix–vector kernels — the engine
//! behind every graph traversal (Fig. 1's `vᵀA`).
//!
//! Four ideas, composable per call:
//!
//! * **Direction optimization** (Beamer-style): a *push* sweep scatters
//!   each frontier entry along its row of `A` (`O(Σ_{i∈v} |A(i,:)|)`),
//!   a *pull* sweep gathers into each output slot over a row of `Aᵀ`
//!   (`O(nnz)` but mask-skippable per output). A density heuristic
//!   ([`choose_direction`]) picks per call whenever a transpose is
//!   supplied; dense frontiers pull, sparse frontiers push. Whether to
//!   supply one is the caller's choice: `graph::Graph` buys `Aᵀ` only
//!   once its pushes have touched `nnz` edges, one transpose's worth of
//!   work, so a one-shot traversal pushes every level.
//! * **Complement-mask fusion**: `(vᵀA) ⊙ ¬mask` is computed inside the
//!   accumulator loop — push skips masked products, pull skips masked
//!   *rows wholesale* — instead of materializing the full product and
//!   filtering (`SparseVec::without`) afterwards.
//! * **Indexing instead of searching**: over a compact key space
//!   (`ops::mxm::compact`) pull finds each in-edge's frontier entry
//!   through the context's pooled position index; wider spaces
//!   intersect each row with the sorted frontier. Push finds each frontier
//!   vertex's row by [`gallop`]ing a cursor forward through `A`'s stored
//!   row ids — frontier ids ascend, so a level costs its frontier's
//!   edges, not a search over every row per vertex. The complement
//!   [`Mask`] arrives in the form its owner keeps across calls: a bitmap
//!   over a compact output space, or sorted ids.
//! * **One body per direction**: a push is one scatter of the whole
//!   frontier into one accumulator and one drain in column order,
//!   dropping zeros as it drains, on the calling thread. A pull is one
//!   row body (`pull_row`: clip, gather or intersect, fold) per output
//!   row, sharded by merge-path nnz weighting; `Matrix`'s CSR storage
//!   pulls its rows through the same body.
//!
//! Every output folds its products in increasing source-index order
//! starting from the first product, whatever the direction, the thread
//! cap or the sparse format. So push ≡ pull and CSR ≡ DCSR hold bit for
//! bit under every semiring, floating-point ⊕ included, and every
//! thread count gives the same bits.
//!
//! Under a semiring that declares [`Semiring::FLAT_ACC`] a push,
//! masked or not, in a column space at most `DENSE_ACC_MAX` (2²²) wide
//! folds into a **flat accumulator** leased from the context (zero-seeded
//! slots folded unconditionally plus an occupancy bitmap drained
//! word-at-a-time, which leaves both at rest) instead of a `HashMap`,
//! probing the complement mask inline. That is the one fold that does
//! start from `s.zero()`; the capability's law (`0 ⊕ p` is `p` to the
//! bit) makes the seed, and so the choice of accumulator, unobservable
//! (DESIGN.md §13). Wider spaces and semirings that declare nothing keep
//! the hash scatter.
//!
//! Every entry point records [`Kernel::Vxm`]/[`Kernel::Mxv`] metrics,
//! the mask probe/hit counts and its [`Decision`]s: the direction, a
//! push's accumulator, a pull's frontier locator and a complement
//! mask's bitmap or sorted probe.

use std::collections::HashMap;
use std::ops::Range;

use semiring::traits::{Semiring, Value};

use crate::ctx::OpCtx;
use crate::dcsr::Dcsr;
use crate::error::OpError;
use crate::index::IndexType;
use crate::metrics::{Decision, Direction, Kernel};
use crate::ops::mxm::{compact, FlatAcc, DENSE_ACC_MAX};
use crate::vector::SparseVec;
use crate::Ix;

/// Beamer-style crossover: pull when the push sweep would touch more
/// than `nnz / PULL_ALPHA` edges.
const PULL_ALPHA: u64 = 8;

/// The partition point of a monotone `pred` over `0..n` — the first
/// index where it fails — given that it holds on `0..from`. Steps
/// 1, 2, 4, … past `from`, then binary-searches the last step, so a
/// point `d` past `from` costs `O(log d)` probes: a cursor moving
/// forward through sorted ids pays for the distance it moves, not for
/// the length of the list.
pub fn gallop(n: usize, from: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut probe, mut step) = (from, from, 1usize);
    let mut hi = loop {
        if probe >= n {
            break n;
        }
        if !pred(probe) {
            break probe;
        }
        lo = probe + 1;
        probe = probe.saturating_add(step);
        step = step.saturating_mul(2);
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Position of row `i` among the sorted stored row ids `rows`, galloping
/// the cursor `at` forward from where a smaller id left it.
fn seek_row(rows: &[Ix], at: &mut usize, i: Ix) -> Option<usize> {
    *at = gallop(rows.len(), *at, |k| rows[k] < i);
    (rows.get(*at) == Some(&i)).then_some(*at)
}

/// Edges a push sweep would touch: `Σ_{i ∈ v} |rows_of(i,:)|`, each row
/// found by one forward cursor over `rows_of`'s stored row ids.
pub fn frontier_edges<T: Value, I: IndexType>(v: &SparseVec<T, I>, rows_of: &Dcsr<T, I>) -> u64 {
    let (rows, mut at) = (rows_of.row_ids(), 0);
    v.indices()
        .iter()
        .filter_map(|&i| seek_row(rows, &mut at, i.to_ix()))
        .map(|k| rows_of.row_len_at(k) as u64)
        .sum()
}

/// The direction the optimized kernels would take for frontier `v` over
/// `a` (whose rows are indexed by `v`'s key space). With no transpose at
/// hand the answer is always [`Direction::Push`]; callers use this to
/// decide when building one starts paying off.
pub fn choose_direction<T: Value, I: IndexType>(
    v: &SparseVec<T, I>,
    a: &Dcsr<T, I>,
    have_transpose: bool,
) -> Direction {
    if have_transpose && frontier_edges(v, a).saturating_mul(PULL_ALPHA) > a.nnz() as u64 {
        Direction::Pull
    } else {
        Direction::Push
    }
}

/// A sweep's output, in increasing index order with zeros dropped, and
/// its `[flops, mask_probes, mask_hits]`.
type Swept<T, I> = (Vec<I>, Vec<T>, [u64; 3]);

/// A complement mask in the form its owner keeps it between calls — a
/// traversal's visited set, say — handed to the sweeps as it stands.
#[derive(Clone, Copy, Debug)]
pub enum Mask<'a> {
    /// One bit per output id, id `j` at bit `j % 64` of word `j / 64`;
    /// ids past the last word are unmasked. The form for a compact
    /// output space ([`crate::ops::compact`]).
    Bits(&'a [u64]),
    /// Strictly increasing ids, binary-searched: the only form that
    /// reaches into a wide key space.
    Sorted(&'a [Ix]),
}

impl Mask<'_> {
    /// Whether `j` is masked off.
    #[inline(always)]
    pub fn contains(&self, j: Ix) -> bool {
        match *self {
            Mask::Bits(bits) => usize::try_from(j >> 6)
                .ok()
                .and_then(|w| bits.get(w))
                .is_some_and(|w| w >> (j & 63) & 1 == 1),
            Mask::Sorted(ids) => ids.binary_search(&j).is_ok(),
        }
    }
}

/// Walk the whole frontier along its rows in increasing source order,
/// probe the complement mask inline, and hand each surviving product to
/// `fold(j, p)`. Returns `[flops, mask_probes, mask_hits]`. Operand order
/// is the same for every accumulator, so their outputs match bit for bit.
fn scatter<T, I, S>(
    v: &SparseVec<T, I>,
    rows_of: &Dcsr<T, I>,
    mask: Option<Mask>,
    flip: bool,
    s: S,
    mut fold: impl FnMut(Ix, T),
) -> [u64; 3]
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    let (rows, mut at) = (rows_of.row_ids(), 0);
    let mut counts = [0u64; 3];
    for (i, x) in v.indices().iter().zip(v.values()) {
        let Some(r) = seek_row(rows, &mut at, i.to_ix()) else {
            continue;
        };
        let (_, cols, avals) = rows_of.row_at(r);
        for (&j, aij) in cols.iter().zip(avals) {
            let j = j.to_ix();
            if let Some(m) = mask {
                counts[1] += 1;
                if m.contains(j) {
                    counts[2] += 1;
                    continue;
                }
            }
            let p = if flip {
                s.mul(aij.clone(), x.clone())
            } else {
                s.mul(x.clone(), aij.clone())
            };
            counts[0] += 1;
            fold(j, p);
        }
    }
    counts
}

/// Push sweep: the whole frontier scatters into one accumulator,
/// ⊕-folding each output's products in increasing source order, and
/// drains once in column order, dropping zeros as it drains.
///
/// A [`Semiring::FLAT_ACC`] semiring over a column space at most
/// [`DENSE_ACC_MAX`] wide folds into the context's pooled flat
/// accumulator, which the drain leaves at rest, so a small frontier pays
/// only for the slots it touches; every other push scatters into a
/// `HashMap` and sorts.
fn run_push<T, I, S>(
    ctx: &OpCtx,
    v: &SparseVec<T, I>,
    rows_of: &Dcsr<T, I>,
    mask: Option<Mask>,
    flip: bool,
    s: S,
) -> Swept<T, I>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    let width = rows_of.ncols();
    let flat = S::FLAT_ACC && width <= DENSE_ACC_MAX;
    let d = [Decision::PushHash, Decision::PushFlat][usize::from(flat)];
    ctx.metrics().record_decision(d, 1);
    let (mut idx, mut vals) = (Vec::new(), Vec::new());
    let mut keep = |j: Ix, x: T| {
        if !s.is_zero(&x) {
            idx.push(I::from_ix(j));
            vals.push(x);
        }
    };
    let counts = if flat {
        let width = width as usize;
        let mut lease = ctx.lease_mxm_scratch::<T>();
        let scratch = lease.get();
        scratch.ensure_flat_width(width, s.zero());
        scratch.ensure_words(width.div_ceil(64));
        let mut acc = FlatAcc::new(&mut scratch.flat, &mut scratch.words);
        let counts = scatter(v, rows_of, mask, flip, s, |j, p| acc.fold(s, j as usize, p));
        acc.drain(s, |jz, x| keep(jz as Ix, x));
        counts
    } else {
        let mut acc: HashMap<Ix, T> = HashMap::new();
        let counts = scatter(v, rows_of, mask, flip, s, |j, p| match acc.entry(j) {
            std::collections::hash_map::Entry::Occupied(mut e) => s.add_assign(e.get_mut(), p),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(p);
            }
        });
        let mut entries: Vec<_> = acc.into_iter().collect();
        entries.sort_unstable_by_key(|e| e.0);
        entries.into_iter().for_each(|(j, x)| keep(j, x));
        counts
    };
    (idx, vals, counts)
}

/// One output of a pull: `⊕ row(p) ⊗ v(q)` over the columns a stored
/// row shares with `v`, folded in increasing column order from the first
/// product (never from `s.zero()`), or `None` when they share none or
/// the sum is zero. `flip` puts the row's value on the left of ⊗. CSR
/// and DCSR rows both pull through here, so the two formats give the
/// same bits.
///
/// Columns below `v`'s first index find no entry: a row that starts
/// below it gallops past them, so dropping `k` costs `O(log k)`. Above
/// `v`'s last index the walk stops at the first column past it. Then
/// `pos` (`pos[i] = 1 + i`'s position in `v`, over a compact key space)
/// finds each column's entry by one load; without it the row intersects
/// `v`'s sorted indices.
// Inlined into both row loops: as a call, the CSR arm's per-row cost on
// a mostly empty row space doubled (EXPERIMENTS, "One body per direction").
#[inline(always)]
pub(crate) fn pull_row<T, I, S>(
    v: &SparseVec<T, I>,
    pos: Option<&[u32]>,
    cols: &[I],
    avals: &[T],
    flip: bool,
    s: S,
    flops: &mut u64,
) -> Option<T>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    let (vidx, vvals) = (v.indices(), v.values());
    let (c0, first, last) = (cols.first()?, vidx.first()?, vidx.last()?);
    let lo = if c0 < first {
        gallop(cols.len(), 1, |p| cols[p] < *first)
    } else {
        0
    };
    let (cols, avals) = (&cols[lo..], &avals[lo..]);
    let mut acc: Option<T> = None;
    let mut fold = |p: usize, q: usize| {
        let t = if flip {
            s.mul(avals[p].clone(), vvals[q].clone())
        } else {
            s.mul(vvals[q].clone(), avals[p].clone())
        };
        *flops += 1;
        match acc.as_mut() {
            Some(a) => s.add_assign(a, t),
            None => acc = Some(t),
        }
    };
    match pos {
        Some(pos) => {
            for (p, c) in cols.iter().enumerate() {
                if c > last {
                    break;
                }
                if let Some(q) = (pos[c.as_usize()] as usize).checked_sub(1) {
                    fold(p, q);
                }
            }
        }
        None => intersect_sorted(cols, vidx, fold),
    }
    acc.filter(|x| !s.is_zero(x))
}

/// Calls `hit(p, q)` for every `a[p] == b[q]` of two increasing lists,
/// in increasing order, stopping once `a` passes `b`'s end. Hybrid: when
/// `b` dwarfs `a`, probe it per element instead of merging past it —
/// O(|a|·log|b|) vs O(|a|+|b|).
fn intersect_sorted<I: Ord>(a: &[I], b: &[I], mut hit: impl FnMut(usize, usize)) {
    if b.len() > 16 * a.len() {
        let Some(last) = b.last() else { return };
        for (p, x) in a.iter().take_while(|&x| x <= last).enumerate() {
            if let Ok(q) = b.binary_search(x) {
                hit(p, q);
            }
        }
        return;
    }
    let (mut p, mut q) = (0, 0);
    while p < a.len() && q < b.len() {
        match a[p].cmp(&b[q]) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
            std::cmp::Ordering::Equal => {
                hit(p, q);
                (p, q) = (p + 1, q + 1);
            }
        }
    }
}

/// One pull shard: each stored row in `range` of `rows_of` not masked
/// off pulls its output through [`pull_row`]. Masked rows are skipped
/// wholesale — the payoff of fusing the complement mask into the pull
/// direction.
fn pull_rows<T, I, S>(
    v: &SparseVec<T, I>,
    pos: Option<&[u32]>,
    rows_of: &Dcsr<T, I>,
    mask: Option<Mask>,
    flip: bool,
    s: S,
    range: Range<usize>,
) -> Swept<T, I>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    let (mut idx, mut vals, mut counts) = (Vec::new(), Vec::new(), [0u64; 3]);
    for k in range {
        let (j, cols, avals) = rows_of.row_at(k);
        if let Some(m) = mask {
            counts[1] += 1;
            if m.contains(j) {
                counts[2] += 1;
                continue;
            }
        }
        if let Some(x) = pull_row(v, pos, cols, avals, flip, s, &mut counts[0]) {
            idx.push(I::from_ix(j));
            vals.push(x);
        }
    }
    (idx, vals, counts)
}

/// Pull sweep sharded by stored output rows (merge-path weighted) —
/// each output is computed wholly inside one shard, so determinism is
/// structural. Its work for the thread rule is the share of
/// `rows_of`'s entries that `v`'s extent covers, the ones left after
/// [`pull_row`] clips each row: O(1), and a frontier spanning a sliver
/// of the column space does not fan out for work it never does.
fn run_pull<T, I, S>(
    ctx: &OpCtx,
    v: &SparseVec<T, I>,
    pos: Option<&[u32]>,
    rows_of: &Dcsr<T, I>,
    mask: Option<Mask>,
    flip: bool,
    s: S,
) -> Swept<T, I>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    let extent = match (v.indices().first(), v.indices().last()) {
        (Some(f), Some(l)) => l.to_ix() - f.to_ix() + 1,
        _ => 0,
    };
    let work = rows_of.nnz() as u128 * u128::from(extent) / u128::from(v.dim().max(1));
    let mut parts = ctx
        .par_rows(work as u64, rows_of, |r| {
            pull_rows(v, pos, rows_of, mask, flip, s, r)
        })
        .into_iter();
    let first = parts.next().expect("one range at least");
    parts.fold(first, |(mut idx, mut vals, c), (i2, v2, c2)| {
        idx.extend(i2);
        vals.extend(v2);
        (idx, vals, [c[0] + c2[0], c[1] + c2[1], c[2] + c2[2]])
    })
}

/// Run `f` with a pull's frontier locator for `v` against a matrix of
/// `nnz` entries: over a compact key space (`ops::mxm::compact`) the
/// context's pooled position index, otherwise `None` (each row
/// intersects `v`). Records the `mv_pull_frontier` decision.
pub(crate) fn with_locator<T, I, R>(
    ctx: &OpCtx,
    v: &SparseVec<T, I>,
    nnz: usize,
    f: impl FnOnce(Option<&[u32]>) -> R,
) -> R
where
    T: Value,
    I: IndexType,
{
    if compact(v.dim(), v.nnz() + nnz) {
        ctx.metrics().record_decision(Decision::PullIndexed, 1);
        let ids = v.indices().iter().map(|i| i.as_usize());
        ctx.with_row_index(v.dim() as usize, ids, |pos| f(Some(pos)))
    } else {
        ctx.metrics().record_decision(Decision::PullSearched, 1);
        f(None)
    }
}

/// Shared driver: pick a direction, sweep, record metrics.
///
/// `push_src` holds the matrix whose *rows are indexed by `v`* (that is
/// `A` for vxm, `Aᵀ` for mxv); `pull_src` holds the matrix whose *rows
/// are indexed by the output* (`Aᵀ` for vxm, `A` for mxv). `flip` puts
/// the matrix value on the left of ⊗ (mxv orientation).
#[allow(clippy::too_many_arguments)]
fn run_mv<T, I, S>(
    ctx: &OpCtx,
    kernel: Kernel,
    v: &SparseVec<T, I>,
    push_src: Option<&Dcsr<T, I>>,
    pull_src: Option<&Dcsr<T, I>>,
    mask: Option<Mask>,
    flip: bool,
    out_dim: Ix,
    s: S,
) -> SparseVec<T, I>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    debug_assert!(match mask {
        Some(Mask::Sorted(m)) => m.windows(2).all(|w| w[0] < w[1]),
        _ => true,
    });
    let mat = push_src.or(pull_src).expect("some operand");
    let run = ctx.kernel(kernel, || {
        format!("{}×{} mat, {} nnz v", mat.nrows(), mat.ncols(), v.nnz())
    });
    let dir = match (push_src, pull_src) {
        (Some(a), Some(_)) => choose_direction(v, a, true),
        (Some(_), None) => Direction::Push,
        (None, Some(_)) => Direction::Pull,
        (None, None) => unreachable!("one operand orientation is always supplied"),
    };
    let (idx, vals, [flops, probes, hits]) = match (dir, push_src, pull_src) {
        (Direction::Push, Some(a), _) => run_push(ctx, v, a, mask, flip, s),
        (Direction::Pull, _, Some(at)) => with_locator(ctx, v, at.nnz(), |pos| {
            run_pull(ctx, v, pos, at, mask, flip, s)
        }),
        _ => unreachable!("the chosen direction's operand is supplied"),
    };
    let out = SparseVec::from_sorted_parts(out_dim, idx, vals);
    run.done(
        (v.nnz() + mat.nnz()) as u64,
        out.nnz() as u64,
        flops,
        (v.bytes() + mat.bytes() + out.bytes()) as u64,
    );
    let m = ctx.metrics();
    let d = match dir {
        Direction::Push => Decision::MvPush,
        Direction::Pull => Decision::MvPull,
    };
    m.record_decision(d, 1);
    m.record_mask_probes(probes, hits);
    if let Some(mask) = mask {
        let d = match mask {
            Mask::Bits(_) => Decision::MvMaskBitmap,
            Mask::Sorted(_) => Decision::MvMaskSorted,
        };
        m.record_decision(d, 1);
    }
    out
}

/// `at`, when supplied, must be `a`'s transpose — checked by shape, O(1).
fn check_transpose(op: &'static str, a: (Ix, Ix), at: Option<(Ix, Ix)>) -> Result<(), OpError> {
    match at {
        Some(t) if t != (a.1, a.0) => Err(OpError::DimensionMismatch {
            op,
            a,
            b: t,
            rule: "supplied transpose must have the transposed shape",
        }),
        _ => Ok(()),
    }
}

/// `vᵀ A` conformance: `v` spans the rows of `a` (an `nrows × ncols`
/// shape), and a supplied transpose has the transposed shape.
pub fn check_vxm(v_dim: Ix, a: (Ix, Ix), at: Option<(Ix, Ix)>) -> Result<(), OpError> {
    if v_dim != a.0 {
        return Err(OpError::DimensionMismatch {
            op: "vxm",
            a: (1, v_dim),
            b: a,
            rule: "dimension mismatch",
        });
    }
    check_transpose("vxm", a, at)
}

/// `A v` conformance: `v` spans the columns of `a`, and a supplied
/// transpose has the transposed shape.
pub fn check_mxv(a: (Ix, Ix), at: Option<(Ix, Ix)>, v_dim: Ix) -> Result<(), OpError> {
    if v_dim != a.1 {
        return Err(OpError::DimensionMismatch {
            op: "mxv",
            a,
            b: (v_dim, 1),
            rule: "dimension mismatch",
        });
    }
    check_transpose("mxv", a, at)
}

// ---- vxm family ----

/// `vᵀ A` over a semiring: `out(j) = ⊕_i v(i) ⊗ A(i,j)` — one frontier
/// expansion, push direction, one scatter on the calling thread.
/// This is the forced-push side of the push ≡ pull law.
pub fn vxm_ctx<T, I, S>(ctx: &OpCtx, v: &SparseVec<T, I>, a: &Dcsr<T, I>, s: S) -> SparseVec<T, I>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    vxm_opt_ctx(ctx, v, a, None, None, s)
}

/// Direction-optimized, mask-fused `vᵀ A`. Supply `at = Aᵀ` (e.g. the
/// one `graph::Graph` builds once per graph) and the kernel picks push or
/// pull per call via [`choose_direction`]. Supply a complement [`Mask`]
/// (e.g. a traversal's visited set, bitmap or sorted ids) and
/// `(vᵀA) ⊙ ¬mask` is computed *inside* the accumulator loop —
/// equivalent to `vxm_ctx(..).without(mask)` without materializing the
/// masked-off work; in pull direction a masked output skips its whole
/// gather row.
pub fn vxm_opt_ctx<T, I, S>(
    ctx: &OpCtx,
    v: &SparseVec<T, I>,
    a: &Dcsr<T, I>,
    at: Option<&Dcsr<T, I>>,
    mask: Option<Mask>,
    s: S,
) -> SparseVec<T, I>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    check_vxm(v.dim(), a.shape(), at.map(Dcsr::shape)).unwrap_or_else(|e| panic!("{e}"));
    run_mv(ctx, Kernel::Vxm, v, Some(a), at, mask, false, a.ncols(), s)
}

/// Force-pull `vᵀ A` given `at = Aᵀ` — the other side of the
/// push ≡ pull law.
pub fn vxm_pull_ctx<T, I, S>(
    ctx: &OpCtx,
    v: &SparseVec<T, I>,
    at: &Dcsr<T, I>,
    s: S,
) -> SparseVec<T, I>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    check_vxm(v.dim(), (at.ncols(), at.nrows()), None).unwrap_or_else(|e| panic!("{e}"));
    run_mv(
        ctx,
        Kernel::Vxm,
        v,
        None,
        Some(at),
        None,
        false,
        at.nrows(),
        s,
    )
}

/// Dense `vᵀ A` over a compact key space (PageRank's inner loop): one
/// pass over `A`'s stored rows in order, `out[c] ← out[c] ⊕ v[r] ⊗ A(r,c)`,
/// on the calling thread. Each slot of `out` is its own seed and folds in
/// increasing source order, as a pull and the scalar edge loop do, so the
/// bits match both; slots no edge reaches keep their value.
pub fn vxm_dense_ctx<T, I, S>(ctx: &OpCtx, v: &[T], a: &Dcsr<T, I>, out: &mut [T], s: S)
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    assert_eq!(v.len() as Ix, a.nrows(), "dimension mismatch");
    assert_eq!(out.len() as Ix, a.ncols(), "dimension mismatch");
    let run = ctx.kernel(Kernel::Vxm, || {
        format!("dense-push {}×{}, {} nnz", a.nrows(), a.ncols(), a.nnz())
    });
    for (r, cols, avals) in a.iter_rows() {
        let x = &v[r as usize];
        for (&c, arc) in cols.iter().zip(avals) {
            s.add_assign(&mut out[c.as_usize()], s.mul(x.clone(), arc.clone()));
        }
    }
    run.done(
        (v.len() + a.nnz()) as u64,
        out.len() as u64,
        a.nnz() as u64,
        (std::mem::size_of::<T>() * (v.len() + out.len()) + a.bytes()) as u64,
    );
    ctx.metrics().record_decision(Decision::MvPush, 1);
}

// ---- mxv family ----

/// `A v` over a semiring: `out(i) = ⊕_j A(i,j) ⊗ v(j)` — sparse row-dot
/// products (the natural direction is a *pull* over `A`'s own rows),
/// parallel over row shards.
pub fn mxv_ctx<T, I, S>(ctx: &OpCtx, a: &Dcsr<T, I>, v: &SparseVec<T, I>, s: S) -> SparseVec<T, I>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    mxv_opt_ctx(ctx, a, None, v, s)
}

/// Direction-optimized `A v`: supply `at = Aᵀ` and a sparse `v` can be
/// *pushed* along `at`'s rows instead of intersecting every row of `A`.
pub fn mxv_opt_ctx<T, I, S>(
    ctx: &OpCtx,
    a: &Dcsr<T, I>,
    at: Option<&Dcsr<T, I>>,
    v: &SparseVec<T, I>,
    s: S,
) -> SparseVec<T, I>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    check_mxv(a.shape(), at.map(Dcsr::shape), v.dim()).unwrap_or_else(|e| panic!("{e}"));
    run_mv(ctx, Kernel::Mxv, v, at, Some(a), None, true, a.nrows(), s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::gen::random_dcsr;
    use crate::ops::transform::transpose_ctx;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use semiring::{MinPlus, Plain, PlusTimes};

    fn pt() -> PlusTimes<f64> {
        PlusTimes::new()
    }

    /// Independent oracle: the pre-kernel HashMap scatter.
    fn vxm_oracle<T: Value, S: Semiring<Value = T>>(
        v: &SparseVec<T>,
        a: &Dcsr<T>,
        s: S,
    ) -> SparseVec<T> {
        let mut acc: HashMap<Ix, T> = HashMap::new();
        for (i, x) in v.iter() {
            let (cols, vals) = a.row(i);
            for (&j, aij) in cols.iter().zip(vals) {
                let p = s.mul(x.clone(), aij.clone());
                match acc.entry(j) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        s.add_assign(e.get_mut(), p);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(p);
                    }
                }
            }
        }
        let mut entries: Vec<(Ix, T)> = acc.into_iter().filter(|(_, x)| !s.is_zero(x)).collect();
        entries.sort_by_key(|e| e.0);
        let (idx, vals) = entries.into_iter().unzip();
        SparseVec::from_sorted_parts(a.ncols(), idx, vals)
    }

    fn frontier(n: Ix, k: usize, seed: u64) -> SparseVec<f64> {
        let step = (n / k as Ix).max(1);
        SparseVec::from_entries(
            n,
            (0..k as Ix)
                .map(|i| ((i * step + seed) % n, 1.0 + (i % 7) as f64))
                .collect(),
            pt(),
        )
    }

    #[test]
    fn vxm_matches_oracle() {
        let ctx = OpCtx::new();
        let a = random_dcsr(300, 300, 2000, 11, pt());
        let v = frontier(300, 40, 3);
        assert_eq!(vxm_ctx(&ctx, &v, &a, pt()), vxm_oracle(&v, &a, pt()));
    }

    #[test]
    fn flat_push_matches_hash_scatter() {
        // A busy frontier in a compact column space takes the flat
        // accumulator; withholding the capability must not change a bit.
        let a = random_dcsr(512, 512, 8000, 51, pt());
        let v = frontier(512, 400, 1);
        let ctx = OpCtx::new().with_threads(1);
        assert_eq!(
            vxm_ctx(&ctx, &v, &a, pt()),
            vxm_ctx(&ctx, &v, &a, Plain(pt()))
        );
        // And for a 3 000-entry frontier at a cap of 4.
        let big = random_dcsr(4000, 4000, 60_000, 52, pt());
        let vf = frontier(4000, 3000, 2);
        let ctx4 = OpCtx::new().with_threads(4);
        assert_eq!(
            vxm_ctx(&ctx4, &vf, &big, pt()),
            vxm_ctx(&ctx4, &vf, &big, Plain(pt()))
        );
    }

    #[test]
    fn narrow_index_vxm_matches_wide() {
        let a = random_dcsr(300, 300, 2000, 53, pt());
        let v = frontier(300, 40, 3);
        let an: Dcsr<f64, u32> = a.to_index_width().unwrap();
        let vn: SparseVec<f64, u32> = v.to_index_width().unwrap();
        let wide = vxm_ctx(&OpCtx::new(), &v, &a, pt());
        let narrow = vxm_ctx(&OpCtx::new(), &vn, &an, pt());
        let wt: Vec<_> = wide.iter().map(|(i, &x)| (i, x)).collect();
        let nt: Vec<_> = narrow.iter().map(|(i, &x)| (i, x)).collect();
        assert_eq!(wt, nt);
    }

    #[test]
    fn masked_equals_unfused_then_without() {
        let ctx = OpCtx::new();
        let a = random_dcsr(200, 200, 1500, 5, pt());
        let v = frontier(200, 30, 1);
        let mask: Vec<Ix> = (0..200).step_by(3).collect();
        let mask_vec = SparseVec::from_entries(200, mask.iter().map(|&i| (i, 1.0)).collect(), pt());
        let fused = vxm_opt_ctx(&ctx, &v, &a, None, Some(Mask::Sorted(&mask)), pt());
        let unfused = vxm_ctx(&ctx, &v, &a, pt()).without(&mask_vec);
        assert_eq!(fused, unfused);
        // And the pull direction agrees too.
        let at = transpose_ctx(&ctx, &a);
        let pulled = vxm_opt_ctx(&ctx, &v, &a, Some(&at), Some(Mask::Sorted(&mask)), pt());
        assert_eq!(pulled, unfused);
        // The same set as a bitmap masks the same outputs, both ways.
        let mut bits = vec![0u64; 4];
        for &j in &mask {
            bits[(j / 64) as usize] |= 1 << (j % 64);
        }
        for at in [None, Some(&at)] {
            let got = vxm_opt_ctx(&ctx, &v, &a, at, Some(Mask::Bits(&bits)), pt());
            assert_eq!(got, unfused);
        }
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.decision(Decision::MvMaskBitmap), 2);
        assert_eq!(snap.decision(Decision::MvMaskSorted), 2);
    }

    #[test]
    fn pull_work_is_the_extent_of_v_it_reads() {
        // Fig. 4's SpMV: 40 000 entries over 4 096 columns, `v` on the
        // first 64. The clipped rows hold ~1.6 % of the entries, which
        // pays for one thread; a `v` spanning every column fans out.
        let a = random_dcsr(4096, 4096, 40_000, 4, pt());
        let sliver = SparseVec::from_entries(4096, (0..64).map(|i| (i, 1.0)).collect(), pt());
        let spread = SparseVec::from_entries(4096, vec![(0, 1.0), (4095, 1.0)], pt());
        let fan = |v: &SparseVec<f64>| {
            let ctx = OpCtx::new().with_threads(2);
            let got = mxv_ctx(&ctx, &a, v, pt());
            assert_eq!(got, mxv_ctx(&OpCtx::new().with_threads(1), &a, v, pt()));
            let snap = ctx.metrics().snapshot();
            [Decision::FanOutOne, Decision::FanOutMany].map(|d| snap.decision(d))
        };
        assert_eq!(fan(&sliver), [1, 0]);
        assert_eq!(fan(&spread), [0, 1]);
    }

    #[test]
    fn push_equals_pull() {
        let ctx = OpCtx::new();
        let a = random_dcsr(256, 256, 3000, 9, pt());
        let at = transpose_ctx(&ctx, &a);
        let v = frontier(256, 200, 2);
        let push = vxm_ctx(&ctx, &v, &a, pt());
        let pull = vxm_pull_ctx(&ctx, &v, &at, pt());
        assert_eq!(push, pull);
        // Inexact ⊕: 3 000 random f64 entries whose outputs fold a dozen
        // products each, in increasing source order both ways, so the
        // bits agree at every cap.
        let n = 6000;
        let a = random_dcsr(n, n, 80_000, 21, pt());
        let at = transpose_ctx(&ctx, &a);
        let mut rng = StdRng::seed_from_u64(5);
        let entries = (0..3000)
            .map(|i| (2 * i + 1, rng.gen::<f64>() - 0.5))
            .collect();
        let v = SparseVec::from_entries(n, entries, pt());
        assert_eq!(v.nnz(), 3000);
        let bits = |x: SparseVec<f64>| x.iter().map(|(i, y)| (i, y.to_bits())).collect::<Vec<_>>();
        let want = bits(vxm_pull_ctx(&OpCtx::new().with_threads(1), &v, &at, pt()));
        for threads in [1, 2, 4, 8] {
            let ctx = OpCtx::new().with_threads(threads);
            assert_eq!(bits(vxm_ctx(&ctx, &v, &a, pt())), want, "push @{threads}");
            assert_eq!(
                bits(vxm_pull_ctx(&ctx, &v, &at, pt())),
                want,
                "pull @{threads}"
            );
        }
    }

    #[test]
    fn heuristic_pushes_sparse_pulls_dense() {
        let a = random_dcsr(1000, 1000, 8000, 4, pt());
        let sparse = frontier(1000, 2, 0);
        let dense = frontier(1000, 900, 0);
        assert_eq!(choose_direction(&sparse, &a, true), Direction::Push);
        assert_eq!(choose_direction(&dense, &a, true), Direction::Pull);
        assert_eq!(choose_direction(&dense, &a, false), Direction::Push);
    }

    #[test]
    fn parallel_equals_sequential_across_thread_counts() {
        // A 3 000-entry frontier; both pulls sweep two chunks of entries
        // and shard, while the push scatters on one thread at any cap.
        // Every thread count is bit-identical.
        let s = MinPlus::<f64>::new();
        let n = 6000;
        let a = random_dcsr(n, n, 80_000, 21, s);
        let at = transpose_ctx(&OpCtx::new(), &a);
        let v = frontier(n, 3000, 7);
        let base = {
            let ctx = OpCtx::new().with_threads(1);
            (
                vxm_ctx(&ctx, &v, &a, s),
                vxm_pull_ctx(&ctx, &v, &at, s),
                mxv_ctx(&ctx, &a, &v, s),
            )
        };
        for threads in [2, 4, 8] {
            let ctx = OpCtx::new().with_threads(threads);
            let many = || ctx.metrics().snapshot().decision(Decision::FanOutMany);
            assert_eq!(vxm_ctx(&ctx, &v, &a, s), base.0, "push @{threads}");
            assert_eq!(many(), 0, "the push runs on one thread @{threads}");
            assert_eq!(vxm_pull_ctx(&ctx, &v, &at, s), base.1, "pull @{threads}");
            assert_eq!(mxv_ctx(&ctx, &a, &v, s), base.2, "mxv @{threads}");
            assert_eq!(many(), 2, "every pull fans out @{threads}");
        }
        // Frontiers narrower than the rows: the pull clips each row to
        // `v`'s extent and still equals the push, which never clips.
        let seq = OpCtx::new().with_threads(1);
        let narrow = (2000..2600).map(|i| (i, 1.0 + (i % 7) as f64)).collect();
        for v in [
            SparseVec::from_entries(n, narrow, s),
            SparseVec::from_entries(n, vec![(4321, 2.0)], s),
            SparseVec::from_entries(n, Vec::new(), s),
        ] {
            let (want_vxm, want_mxv) = (vxm_ctx(&seq, &v, &a, s), vxm_ctx(&seq, &v, &at, s));
            for threads in [1, 2, 4, 8] {
                let ctx = OpCtx::new().with_threads(threads);
                let pull = vxm_pull_ctx(&ctx, &v, &at, s);
                assert_eq!(pull, want_vxm, "clipped pull @{threads}");
                assert_eq!(mxv_ctx(&ctx, &a, &v, s), want_mxv, "clipped mxv @{threads}");
            }
        }
    }

    #[test]
    fn mxv_matches_legacy_row_intersect() {
        // Oracle: the original two-pointer row-dot loop.
        let a = random_dcsr(300, 300, 2500, 14, pt());
        let v = frontier(300, 80, 5);
        let mut idx = Vec::new();
        let mut vals = Vec::new();
        for (r, cols, avals) in a.iter_rows() {
            let mut acc = pt().zero();
            let (mut p, mut q) = (0usize, 0usize);
            while p < cols.len() && q < v.indices().len() {
                match cols[p].cmp(&v.indices()[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        let t = pt().mul(avals[p], v.values()[q]);
                        pt().add_assign(&mut acc, t);
                        p += 1;
                        q += 1;
                    }
                }
            }
            if !pt().is_zero(&acc) {
                idx.push(r);
                vals.push(acc);
            }
        }
        let want = SparseVec::from_sorted_parts(a.nrows(), idx, vals);
        assert_eq!(mxv_ctx(&OpCtx::new(), &a, &v, pt()), want);
        // Push direction (via the transpose) agrees.
        let ctx = OpCtx::new();
        let at = transpose_ctx(&ctx, &a);
        let sparse_v = frontier(300, 3, 5);
        assert_eq!(
            mxv_opt_ctx(&ctx, &a, Some(&at), &sparse_v, pt()),
            mxv_ctx(&ctx, &a, &sparse_v, pt())
        );
    }

    #[test]
    fn mxv_respects_non_commutative_product_order() {
        // MinFirst: a ⊗ b keeps `a` (unless b is absent) — orientation
        // matters, so mxv must put the matrix value on the left.
        let s = semiring::MinFirst;
        let mut c = Coo::new(4, 4);
        c.extend([(0u64, 1u64, 7u64), (2, 1, 3)]);
        let a = c.build_dcsr(s);
        let v = SparseVec::from_entries(4, vec![(1, 9u64)], s);
        let got = mxv_ctx(&OpCtx::new(), &a, &v, s);
        assert_eq!(got.get(&0), Some(&7));
        assert_eq!(got.get(&2), Some(&3));
        let ctx = OpCtx::new();
        let at = transpose_ctx(&ctx, &a);
        assert_eq!(mxv_opt_ctx(&ctx, &a, Some(&at), &v, s), got);
    }

    #[test]
    fn try_variants_report_dimension_mismatch() {
        let a = random_dcsr(10, 12, 30, 1, pt());
        let e = check_vxm(11, a.shape(), None).unwrap_err();
        assert!(e.to_string().contains("vxm: dimension mismatch"), "{e}");
        let e = check_mxv(a.shape(), None, 11).unwrap_err();
        assert!(e.to_string().contains("mxv: dimension mismatch"), "{e}");
        assert!(check_vxm(10, a.shape(), None).is_ok());
        assert!(check_mxv(a.shape(), None, 12).is_ok());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn vxm_panics_on_mismatch() {
        let a = random_dcsr(10, 12, 30, 1, pt());
        let _ = vxm_ctx(&OpCtx::new(), &SparseVec::<f64>::empty(11), &a, pt());
    }

    // The supplied transpose is checked in release builds too: an `at`
    // of the wrong shape used to yield indices beyond the output's `dim`.
    #[test]
    #[should_panic(expected = "vxm: supplied transpose must have the transposed shape")]
    fn vxm_opt_rejects_misshapen_transpose() {
        let a = random_dcsr(10, 12, 30, 1, pt());
        let not_at = random_dcsr(20, 10, 30, 2, pt());
        let v = frontier(10, 9, 0);
        let _ = vxm_opt_ctx(&OpCtx::new(), &v, &a, Some(&not_at), None, pt());
    }

    #[test]
    #[should_panic(expected = "mxv: supplied transpose must have the transposed shape")]
    fn mxv_opt_rejects_misshapen_transpose() {
        let a = random_dcsr(10, 12, 30, 1, pt());
        let not_at = random_dcsr(12, 20, 30, 2, pt());
        let v = frontier(12, 2, 0);
        let _ = mxv_opt_ctx(&OpCtx::new(), &a, Some(&not_at), &v, pt());
    }

    #[test]
    fn metrics_record_direction_flops_and_mask_hits() {
        let ctx = OpCtx::new();
        let a = random_dcsr(100, 100, 900, 8, pt());
        let at = transpose_ctx(&ctx, &a);
        let dense_v = frontier(100, 90, 0);
        let _ = vxm_opt_ctx(&ctx, &dense_v, &a, Some(&at), None, pt());
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.kernel(Kernel::Vxm).calls, 1);
        assert_eq!(snap.mv_pull_calls, 1);
        assert!(snap.kernel(Kernel::Vxm).flops > 0);
        assert!(snap.kernel(Kernel::Vxm).bytes_touched > 0);

        let mask: Vec<Ix> = (0..100).collect(); // everything masked
        let masked = vxm_opt_ctx(
            &ctx,
            &dense_v,
            &a,
            Some(&at),
            Some(Mask::Sorted(&mask)),
            pt(),
        );
        assert!(masked.is_empty());
        let snap = ctx.metrics().snapshot();
        assert!(snap.mask_probes > 0);
        assert_eq!(snap.mask_probes, snap.mask_hits, "full mask hits always");
        assert!(snap.mask_hit_rate() > 0.99);

        let _ = mxv_ctx(&ctx, &a, &dense_v, pt());
        assert_eq!(ctx.metrics().snapshot().kernel(Kernel::Mxv).calls, 1);
    }

    #[test]
    fn dense_vxm_matches_scalar_scatter() {
        let n = 64usize;
        // Row 7 is empty. Slots 3 and 9 are seeded −0.0: only the product
        // `v[0] ⊗ A(0,3) = 0.0` lands in 3, which must turn it into +0.0,
        // and nothing lands in 9, which must keep it.
        let mut c = Coo::new(n as Ix, n as Ix);
        let full = random_dcsr(n as Ix, n as Ix, 500, 17, pt());
        let kept = full.iter().filter(|e| e.0 != 7 && e.1 != 3 && e.1 != 9);
        c.extend(kept.map(|(r, col, w)| (r, col, *w)));
        c.push(0, 3, 1.0);
        let a = c.build_dcsr(pt());
        let v: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let mut seed = vec![0.125f64; n];
        (seed[3], seed[9]) = (-0.0, -0.0);
        // Scalar oracle: scatter rows of `a` in row order.
        let mut want = seed.clone();
        for (r, cols, vals) in a.iter_rows() {
            for (&c, w) in cols.iter().zip(vals) {
                want[c as usize] += v[r as usize] * w;
            }
        }
        for threads in [1, 2, 4] {
            let ctx = OpCtx::new().with_threads(threads);
            let mut out = seed.clone();
            vxm_dense_ctx(&ctx, &v, &a, &mut out, pt());
            // Same fold order per slot: bitwise equality, any thread count.
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&want), "@{threads}");
            let snap = ctx.metrics().snapshot();
            assert_eq!(
                (snap.mv_push_calls, snap.kernel(Kernel::Vxm).flops),
                (1, a.nnz() as u64)
            );
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let ctx = OpCtx::new();
        let a = Dcsr::<f64>::empty(8, 8);
        let v = SparseVec::<f64>::empty(8);
        assert!(vxm_ctx(&ctx, &v, &a, pt()).is_empty());
        assert!(mxv_ctx(&ctx, &a, &v, pt()).is_empty());
        let full = frontier(8, 4, 0);
        assert!(vxm_ctx(&ctx, &full, &a, pt()).is_empty());
    }
}
