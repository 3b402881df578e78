//! Direction-optimized, mask-fused matrix–vector kernels — the engine
//! behind every graph traversal (Fig. 1's `vᵀA`).
//!
//! Three ideas, composable per call:
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
//!   through the context's pooled position index, and the mask becomes
//!   one bitmap per call, which both directions probe, whenever the
//!   sweep's probes pay for building it; wider spaces binary-search the
//!   sorted frontier and mask.
//! * **Deterministic parallelism**: push partitions the frontier into
//!   *fixed-size* segments (independent of thread count) and ⊕-merges
//!   the segment partials left-to-right; pull shards output rows by
//!   merge-path nnz weighting. Both yield bit-identical results at every
//!   thread count, and a 1-thread run *is* the same segmented algorithm
//!   — sequential ≡ parallel.
//!
//! Within one accumulator slot, products fold in increasing source-index
//! order starting from the first product (never from `s.zero()`), so
//! push and pull apply the exact same ⊕ chain per output. Only the
//! *grouping* differs once a push frontier spans multiple segments —
//! indistinguishable for the exact semirings graph algorithms use
//! (min/max/any ⊕), and ulp-level for floating-point ⊕.
//!
//! Under a semiring that declares [`Semiring::FLAT_ACC`] a push segment,
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
//! the mask probe/hit counts and its [`Decision`]s: the direction, per
//! push segment its accumulator, a pull's frontier locator and a
//! complement mask's bitmap or sorted probe.

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

/// Frontier entries per push segment. Fixed (not derived from the
/// thread count) so the ⊕-merge tree is identical at any parallelism:
/// a determinism constant, not a parallelism gate.
const PUSH_SEG: usize = 1024;

/// Beamer-style crossover: pull when the push sweep would touch more
/// than `nnz / PULL_ALPHA` edges.
const PULL_ALPHA: u64 = 8;

/// Edges a push sweep would touch: `Σ_{i ∈ v} |rows_of(i,:)|`.
fn frontier_edges<T: Value, I: IndexType>(v: &SparseVec<T, I>, rows_of: &Dcsr<T, I>) -> u64 {
    v.indices()
        .iter()
        .map(|&i| rows_of.row(i.to_ix()).0.len() as u64)
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

/// Sorted `(output index, value)` entries of one push segment or pull range.
type Entries<T> = Vec<(Ix, T)>;

/// One push segment's or pull range's partial: `(entries, flops,
/// mask_probes, mask_hits)`.
type PushPartial<T> = (Entries<T>, u64, u64, u64);

/// A complement mask as the sweeps probe it: one bitmap over the output
/// space, built once per call, or the sorted ids, binary-searched.
enum Mask<'a> {
    Bits(Vec<u64>),
    Sorted(&'a [Ix]),
}

impl<'a> Mask<'a> {
    /// The bitmap when the output space is compact and building it (a
    /// word per 64 ids, a bit per masked id) costs no more than the
    /// `probes` searches it replaces — a pull sweep's rows, a push
    /// sweep's expected edges (frontier × mean row length) — so a narrow
    /// frontier late in a long traversal keeps its few searches instead
    /// of paying for the whole visited set.
    fn new(ids: &'a [Ix], dim: Ix, compact: bool, probes: impl FnOnce() -> u64) -> Self {
        let search = u64::from(usize::BITS - ids.len().leading_zeros());
        if !compact || probes() * search < ids.len() as u64 + dim / 64 {
            return Mask::Sorted(ids);
        }
        let mut bits = vec![0u64; (dim as usize).div_ceil(64)];
        // Sorted: ids past the output space mask nothing.
        for &j in ids.iter().take_while(|&&j| j < dim) {
            bits[(j >> 6) as usize] |= 1 << (j & 63);
        }
        Mask::Bits(bits)
    }

    #[inline(always)]
    fn contains(&self, j: Ix) -> bool {
        match self {
            Mask::Bits(bits) => bits[(j >> 6) as usize] >> (j & 63) & 1 == 1,
            Mask::Sorted(ids) => ids.binary_search(&j).is_ok(),
        }
    }
}

/// Walk the frontier entries `segment` along their rows in increasing
/// source order, probe the complement mask inline, and hand each
/// surviving product to `fold(j, p)`. Returns `(flops, mask_probes,
/// mask_hits)`. Operand order is the same for every accumulator, so the
/// partials match bit for bit.
fn scatter<T, I, S>(
    v: &SparseVec<T, I>,
    rows_of: &Dcsr<T, I>,
    mask: Option<&Mask>,
    flip: bool,
    s: S,
    segment: Range<usize>,
    mut fold: impl FnMut(Ix, T),
) -> (u64, u64, u64)
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    let (idx, vals) = (v.indices(), v.values());
    let (mut flops, mut probes, mut hits) = (0u64, 0u64, 0u64);
    for k in segment {
        let x = &vals[k];
        let (cols, avals) = rows_of.row(idx[k].to_ix());
        for (&j, aij) in cols.iter().zip(avals) {
            let j = j.to_ix();
            if let Some(m) = mask {
                probes += 1;
                if m.contains(j) {
                    hits += 1;
                    continue;
                }
            }
            let p = if flip {
                s.mul(aij.clone(), x.clone())
            } else {
                s.mul(x.clone(), aij.clone())
            };
            flops += 1;
            fold(j, p);
        }
    }
    (flops, probes, hits)
}

/// One push segment: scatter the frontier entries `segment` along their
/// rows, ⊕-folding collisions in increasing source order. Returns
/// sorted `(index, value)` partials (zeros *kept* — they are filtered
/// once, after the cross-segment merge) plus flop/mask counters.
///
/// A [`Semiring::FLAT_ACC`] semiring over a column space at most
/// [`DENSE_ACC_MAX`] wide folds into the context's pooled flat
/// accumulator, which the drain leaves at rest, so a small segment pays
/// only for the slots it touches; every other segment scatters into a
/// `HashMap` and sorts.
fn push_segment<T, I, S>(
    ctx: &OpCtx,
    v: &SparseVec<T, I>,
    rows_of: &Dcsr<T, I>,
    mask: Option<&Mask>,
    flip: bool,
    s: S,
    segment: Range<usize>,
) -> PushPartial<T>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    let width = rows_of.ncols();
    let flat = S::FLAT_ACC && width <= DENSE_ACC_MAX;
    let d = if flat {
        Decision::PushFlat
    } else {
        Decision::PushHash
    };
    ctx.metrics().record_decision(d, 1);
    let mut out = Vec::new();
    let (flops, probes, hits) = if flat {
        let width = width as usize;
        let mut lease = ctx.lease_mxm_scratch::<T>();
        let scratch = lease.get();
        scratch.ensure_flat_width(width, s.zero());
        scratch.ensure_words(width.div_ceil(64));
        let mut acc = FlatAcc::new(&mut scratch.flat, &mut scratch.words);
        let counts = scatter(v, rows_of, mask, flip, s, segment, |j, p| {
            acc.fold(s, j as usize, p)
        });
        acc.drain(s, |jz, val| out.push((jz as Ix, val)));
        counts
    } else {
        let mut acc: HashMap<Ix, T> = HashMap::new();
        let counts = scatter(v, rows_of, mask, flip, s, segment, |j, p| {
            match acc.entry(j) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    s.add_assign(e.get_mut(), p);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(p);
                }
            }
        });
        out.extend(acc);
        out.sort_by_key(|e| e.0);
        counts
    };
    (out, flops, probes, hits)
}

/// ⊕-merge two sorted segment partials; `left` holds the earlier
/// frontier segment, so `s.add(left, right)` preserves the sequential
/// fold order. Zeros stay until the final assembly.
fn merge_partials<T, S>(left: Vec<(Ix, T)>, right: Vec<(Ix, T)>, s: S) -> Vec<(Ix, T)>
where
    T: Value,
    S: Semiring<Value = T>,
{
    let mut out = Vec::with_capacity(left.len() + right.len());
    let mut r = right.into_iter().peekable();
    for (li, lv) in left {
        while r.peek().is_some_and(|(ri, _)| *ri < li) {
            out.push(r.next().expect("peeked"));
        }
        if r.peek().is_some_and(|(ri, _)| *ri == li) {
            let (_, rv) = r.next().expect("peeked");
            out.push((li, s.add(lv, rv)));
        } else {
            out.push((li, lv));
        }
    }
    out.extend(r);
    out
}

/// Push sweep over fixed frontier segments, on the threads the context's
/// rule gives an expected `edges` touched.
fn run_push<T, I, S>(
    ctx: &OpCtx,
    v: &SparseVec<T, I>,
    rows_of: &Dcsr<T, I>,
    mask: Option<&Mask>,
    flip: bool,
    s: S,
    edges: u64,
) -> PushPartial<T>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    let n = v.nnz();
    let nsegs = n.div_ceil(PUSH_SEG).max(1);
    let parts = ctx.fan_out(ctx.threads_for(edges), nsegs, |seg| {
        let lo = seg * PUSH_SEG;
        push_segment(ctx, v, rows_of, mask, flip, s, lo..(lo + PUSH_SEG).min(n))
    });
    combine(parts, |left, right| merge_partials(left, right, s))
}

/// Fold per-range partials (at least one) in order: `join` their
/// entries, sum their counters.
fn combine<T>(
    parts: Vec<PushPartial<T>>,
    join: impl Fn(Entries<T>, Entries<T>) -> Entries<T>,
) -> PushPartial<T> {
    let mut parts = parts.into_iter();
    let first = parts.next().expect("one range at least");
    parts.fold(first, |(e, f, p, h), (e2, f2, p2, h2)| {
        (join(e, e2), f + f2, p + p2, h + h2)
    })
}

/// One pull shard: gather stored rows `range` of `rows_of` against `v`.
/// With `pos` (`pos[i] = 1 + i`'s position in `v`, over a compact key
/// space) each in-edge finds its frontier entry by one load; without, by
/// search or two-pointer intersection. Masked rows are skipped
/// wholesale — the payoff of fusing the complement mask into the pull
/// direction.
fn pull_rows<T, I, S>(
    v: &SparseVec<T, I>,
    pos: Option<&[u32]>,
    rows_of: &Dcsr<T, I>,
    mask: Option<&Mask>,
    flip: bool,
    s: S,
    range: Range<usize>,
) -> PushPartial<T>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    let mut out = Vec::new();
    let (vidx, vvals) = (v.indices(), v.values());
    let (mut flops, mut probes, mut hits) = (0u64, 0u64, 0u64);
    let (first, last) = (vidx.first(), vidx.last());
    for k in range {
        let (j, mut cols, mut avals) = rows_of.row_at(k);
        if let Some(m) = mask {
            probes += 1;
            if m.contains(j) {
                hits += 1;
                continue;
            }
        }
        // Columns outside `v`'s extent find no entry: clip them off,
        // searching only a side that sticks out.
        let lo = match first {
            Some(f) if cols.first() < first => cols.partition_point(|c| c < f),
            _ => 0,
        };
        let hi = match last {
            Some(l) if cols.last() > last => cols.partition_point(|c| c <= l),
            _ => cols.len(),
        };
        (cols, avals) = (&cols[lo..hi], &avals[lo..hi]);
        let mut acc: Option<T> = None;
        let mut fold = |p: usize, q: usize, flops: &mut u64| {
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
        // Every lookup folds in increasing source index.
        if let Some(pos) = pos {
            for (p, c) in cols.iter().enumerate() {
                if let Some(q) = (pos[c.as_usize()] as usize).checked_sub(1) {
                    fold(p, q, &mut flops);
                }
            }
        } else {
            intersect_sorted(cols, vidx, |p, q| fold(p, q, &mut flops));
        }
        if let Some(val) = acc {
            out.push((j, val));
        }
    }
    (out, flops, probes, hits)
}

/// Calls `hit(p, q)` for every `a[p] == b[q]` of two increasing lists,
/// in increasing order. Hybrid: when `b` dwarfs `a`, probe it per element
/// instead of merging past it — O(|a|·log|b|) vs O(|a|+|b|).
pub(crate) fn intersect_sorted<I: Ord>(a: &[I], b: &[I], mut hit: impl FnMut(usize, usize)) {
    if b.len() > 16 * a.len() {
        for (p, x) in a.iter().enumerate() {
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

/// Pull sweep sharded by stored output rows (merge-path weighted) —
/// each output is computed wholly inside one shard, so determinism is
/// structural.
fn run_pull<T, I, S>(
    ctx: &OpCtx,
    v: &SparseVec<T, I>,
    pos: Option<&[u32]>,
    rows_of: &Dcsr<T, I>,
    mask: Option<&Mask>,
    flip: bool,
    s: S,
) -> PushPartial<T>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    let parts = ctx.par_rows(rows_of.nnz() as u64, rows_of, |r| {
        pull_rows(v, pos, rows_of, mask, flip, s, r)
    });
    combine(parts, |mut left, right| {
        left.extend(right);
        left
    })
}

/// Shared driver: pick a direction, sweep, filter zeros, record metrics.
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
    mask: Option<&[Ix]>,
    flip: bool,
    out_dim: Ix,
    s: S,
) -> SparseVec<T, I>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    debug_assert!(mask.is_none_or(|m| m.windows(2).all(|w| w[0] < w[1])));
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
    let nnz = v.nnz() + mat.nnz() + mask.map_or(0, <[Ix]>::len);
    // A push's expected edges: frontier × mean row length.
    let edges = |a: &Dcsr<T, I>| (v.nnz() * a.nnz() / a.n_nonempty_rows().max(1)) as u64;
    let mask = mask.map(|m| {
        Mask::new(m, out_dim, compact(out_dim, nnz), || {
            match (dir, push_src, pull_src) {
                (Direction::Push, Some(a), _) => edges(a),
                (_, _, at) => at.map_or(0, |at| at.n_nonempty_rows() as u64),
            }
        })
    });
    let (entries, flops, probes, hits) = match dir {
        Direction::Push => {
            let a = push_src.expect("push chosen");
            run_push(ctx, v, a, mask.as_ref(), flip, s, edges(a))
        }
        Direction::Pull => {
            let (at, mask) = (pull_src.expect("pull chosen"), mask.as_ref());
            if compact(v.dim(), nnz) {
                ctx.metrics().record_decision(Decision::PullIndexed, 1);
                let ids = v.indices().iter().map(|i| i.as_usize());
                ctx.with_row_index(v.dim() as usize, ids, |pos| {
                    run_pull(ctx, v, Some(pos), at, mask, flip, s)
                })
            } else {
                ctx.metrics().record_decision(Decision::PullSearched, 1);
                run_pull(ctx, v, None, at, mask, flip, s)
            }
        }
    };
    let mut idx = Vec::with_capacity(entries.len());
    let mut vals = Vec::with_capacity(entries.len());
    for (j, val) in entries {
        if !s.is_zero(&val) {
            idx.push(I::from_ix(j));
            vals.push(val);
        }
    }
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
    if let Some(mask) = &mask {
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
/// expansion, push direction, parallel over fixed frontier segments.
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
/// pull per call via [`choose_direction`]. Supply a complement `mask`
/// (a sorted index slice, e.g. the visited set) and `(vᵀA) ⊙ ¬mask` is
/// computed *inside* the accumulator loop — equivalent to
/// `vxm_ctx(..).without(mask)` without materializing the masked-off
/// work; in pull direction a masked output skips its whole gather row.
pub fn vxm_opt_ctx<T, I, S>(
    ctx: &OpCtx,
    v: &SparseVec<T, I>,
    a: &Dcsr<T, I>,
    at: Option<&Dcsr<T, I>>,
    mask: Option<&[Ix]>,
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

/// Dense-accumulator pull `vᵀ A` for compact key spaces (PageRank's
/// inner loop): for every stored row `j` of `at = Aᵀ`,
/// `out[j] ⊕= ⊕_i v[i] ⊗ at(j,i)` folding in increasing `i` — slots of
/// `out` act as per-output accumulator seeds and untouched slots keep
/// their initial value. Output-sharded (merge-path weighted), so
/// bit-identical at any thread count.
pub fn vxm_dense_pull_ctx<T, I, S>(ctx: &OpCtx, v: &[T], at: &Dcsr<T, I>, out: &mut [T], s: S)
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
{
    assert_eq!(v.len() as Ix, at.ncols(), "dimension mismatch");
    assert_eq!(out.len() as Ix, at.nrows(), "dimension mismatch");
    let run = ctx.kernel(Kernel::Vxm, || {
        format!("dense-pull {}×{}, {} nnz", at.nrows(), at.ncols(), at.nnz())
    });
    // Ranges only *read* `out` (their rows are disjoint); writes land
    // after the fan-out completes.
    let parts = ctx.par_rows(at.nnz() as u64, at, |range| {
        let (mut updates, mut flops) = (Vec::with_capacity(range.len()), 0u64);
        for k in range {
            let (j, cols, avals) = at.row_at(k);
            let j = j as usize;
            let mut acc = out[j].clone();
            flops += cols.len() as u64;
            for (&i, aji) in cols.iter().zip(avals) {
                s.add_assign(&mut acc, s.mul(v[i.as_usize()].clone(), aji.clone()));
            }
            updates.push((j, acc));
        }
        (updates, flops)
    });
    let (mut flops, mut touched) = (0u64, 0u64);
    for (updates, f) in parts {
        flops += f;
        touched += updates.len() as u64;
        for (j, val) in updates {
            out[j] = val;
        }
    }
    run.done(
        (v.len() + at.nnz()) as u64,
        touched,
        flops,
        (std::mem::size_of::<T>() * (v.len() + out.len()) + at.bytes()) as u64,
    );
    ctx.metrics().record_decision(Decision::MvPull, 1);
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
        // And for a frontier spanning multiple segments.
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
        let fused = vxm_opt_ctx(&ctx, &v, &a, None, Some(&mask), pt());
        let unfused = vxm_ctx(&ctx, &v, &a, pt()).without(&mask_vec);
        assert_eq!(fused, unfused);
        // And the pull direction agrees too.
        let at = transpose_ctx(&ctx, &a);
        let pulled = vxm_opt_ctx(&ctx, &v, &a, Some(&at), Some(&mask), pt());
        assert_eq!(pulled, unfused);
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
        // Frontier spans several PUSH_SEG segments and every sweep two
        // chunks of entries; min-plus ⊕ is exact under regrouping, so
        // every thread count is bit-identical.
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
            assert_eq!(vxm_ctx(&ctx, &v, &a, s), base.0, "push @{threads}");
            assert_eq!(vxm_pull_ctx(&ctx, &v, &at, s), base.1, "pull @{threads}");
            assert_eq!(mxv_ctx(&ctx, &a, &v, s), base.2, "mxv @{threads}");
            let many = ctx.metrics().snapshot().decision(Decision::FanOutMany);
            assert_eq!(many, 3, "every sweep fans out @{threads}");
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
        let masked = vxm_opt_ctx(&ctx, &dense_v, &a, Some(&at), Some(&mask), pt());
        assert!(masked.is_empty());
        let snap = ctx.metrics().snapshot();
        assert!(snap.mask_probes > 0);
        assert_eq!(snap.mask_probes, snap.mask_hits, "full mask hits always");
        assert!(snap.mask_hit_rate() > 0.99);

        let _ = mxv_ctx(&ctx, &a, &dense_v, pt());
        assert_eq!(ctx.metrics().snapshot().kernel(Kernel::Mxv).calls, 1);
    }

    #[test]
    fn dense_pull_matches_scalar_scatter() {
        let n = 64usize;
        let a = random_dcsr(n as Ix, n as Ix, 500, 17, pt());
        let at = transpose_ctx(&OpCtx::new(), &a);
        let v: Vec<f64> = (0..n).map(|i| 0.25 + i as f64 * 0.5).collect();
        // Scalar oracle: scatter rows of `a` in row order.
        let mut want = vec![0.125f64; n];
        for (r, cols, vals) in a.iter_rows() {
            for (&c, w) in cols.iter().zip(vals) {
                want[c as usize] += v[r as usize] * w;
            }
        }
        for threads in [1, 2, 4] {
            let ctx = OpCtx::new().with_threads(threads);
            let mut out = vec![0.125f64; n];
            vxm_dense_pull_ctx(&ctx, &v, &at, &mut out, pt());
            // Same fold order per slot: bitwise equality, any thread count.
            assert!(out.iter().zip(&want).all(|(x, y)| x == y), "@{threads}");
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
