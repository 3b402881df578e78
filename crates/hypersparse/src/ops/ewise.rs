//! Element-wise ⊕ (union) and ⊗ (intersection) — Fig. 5's graph union
//! and graph intersection.
//!
//! Both are sorted two-pointer merges over the non-empty row lists and
//! within-row column lists: `O(nnz(A) + nnz(B))`, never touching the
//! (possibly astronomically large) dimensions.
//!
//! There is exactly **one merge loop per direction**: the generic
//! [`ewise_add_op_ctx`]/[`ewise_mul_op_ctx`] kernels take an arbitrary
//! combiner, and [`ewise_add_ctx`]/[`ewise_mul_ctx`] plug in the
//! semiring's own ⊕/⊗.
//!
//! **Boolean word path** (DESIGN.md §13): when the combiner is the
//! `LorLand` semiring's own ⊕/⊗, colliding row pairs that are dense
//! relative to the column space merge **word-at-a-time** — each row
//! becomes a presence bitmap plus a truth bitmap, the union/intersection
//! is a handful of bitwise ops per 64 columns, and survivors drain with
//! `trailing_zeros` in ascending order. Output and flop counts are
//! identical to the two-pointer merge; rows too sparse for the bitmaps
//! to pay off (`words > nnz(a_row) + nnz(b_row)`) fall back per pair.
//! This is a `T = bool` data-layout specialisation, not a semiring
//! capability, so it keeps its type-identity dispatch (and
//! `semiring::Plain(LorLand)` runs the two-pointer reference).

use std::any::{Any, TypeId};
use std::cmp::Ordering;
use std::time::Instant;

use semiring::traits::{BinaryOp, Semiring, Value};
use semiring::LorLand;

use crate::ctx::OpCtx;
use crate::dcsr::{Dcsr, DcsrBuilder};
use crate::error::OpError;
use crate::index::IndexType;
use crate::metrics::Kernel;
use crate::Ix;

/// The semiring's ⊕ as a [`BinaryOp`] combiner.
#[derive(Copy, Clone)]
struct AddOf<S>(S);
impl<T: Value, S: Semiring<Value = T>> BinaryOp<T, T, T> for AddOf<S> {
    #[inline(always)]
    fn apply(&self, a: T, b: T) -> T {
        self.0.add(a, b)
    }
}

/// The semiring's ⊗ as a [`BinaryOp`] combiner.
#[derive(Copy, Clone)]
struct MulOf<S>(S);
impl<T: Value, S: Semiring<Value = T>> BinaryOp<T, T, T> for MulOf<S> {
    #[inline(always)]
    fn apply(&self, a: T, b: T) -> T {
        self.0.mul(a, b)
    }
}

/// `C = A ⊕ B`: union of sparsity patterns, collisions combined with ⊕.
/// An entry present in only one operand passes through unchanged —
/// exactly the `A ⊕ 0 = A` behaviour of Table II.
pub fn ewise_add_ctx<T: Value, I: IndexType, S: Semiring<Value = T>>(
    ctx: &OpCtx,
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    s: S,
) -> Dcsr<T, I> {
    ewise_add_op_ctx(ctx, a, b, AddOf(s), s)
}

/// `C = A ⊗ B`: intersection of sparsity patterns, survivors combined
/// with ⊗. Entries present in only one operand meet an implicit `0`,
/// which annihilates — so they vanish (Table II's `A ⊗ 𝟙 = A` dual).
pub fn ewise_mul_ctx<T: Value, I: IndexType, S: Semiring<Value = T>>(
    ctx: &OpCtx,
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    s: S,
) -> Dcsr<T, I> {
    ewise_mul_op_ctx(ctx, a, b, MulOf(s), s)
}

/// `C = A ⊕' B` with an *arbitrary* combiner `op` at collisions (GraphBLAS
/// `eWiseAdd` with a user binary op): pass-through entries are untouched,
/// colliding entries combine with `op`, results equal to the semiring
/// zero drop. Used where the combining operation is not the semiring's ⊕
/// (e.g. `second` for "overwrite" merges, `-` for diffs).
///
/// This is *the* union merge loop: [`ewise_add_ctx`] lands here too.
pub fn ewise_add_op_ctx<T, I, S, O>(
    ctx: &OpCtx,
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    op: O,
    s: S,
) -> Dcsr<T, I>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
    O: BinaryOp<T, T, T> + 'static,
{
    check_same_space("ewise_add", a.shape(), b.shape()).unwrap_or_else(|e| panic!("{e}"));
    let _span = ctx.kernel_span(Kernel::EwiseAdd, || {
        format!("{}×{}, {}+{} nnz", a.nrows(), a.ncols(), a.nnz(), b.nnz())
    });
    let start = Instant::now();
    if TypeId::of::<O>() == TypeId::of::<AddOf<LorLand>>() {
        if let Some((c, flops)) = try_bool_union(a, b) {
            record_ewise(ctx, Kernel::EwiseAdd, start, a, b, &c, flops);
            return c;
        }
    }
    let mut flops = 0u64;
    let c = union_rows(a, b, |out, ra, rb| flops += union_row(out, ra, rb, op, s));
    record_ewise(ctx, Kernel::EwiseAdd, start, a, b, &c, flops);
    c
}

/// `C = A ⊗' B` with an arbitrary combiner at intersections (GraphBLAS
/// `eWiseMult` with a user binary op).
///
/// This is *the* intersection merge loop: [`ewise_mul_ctx`] lands here
/// too.
pub fn ewise_mul_op_ctx<T, I, S, O>(
    ctx: &OpCtx,
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    op: O,
    s: S,
) -> Dcsr<T, I>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
    O: BinaryOp<T, T, T> + 'static,
{
    check_same_space("ewise_mul", a.shape(), b.shape()).unwrap_or_else(|e| panic!("{e}"));
    let _span = ctx.kernel_span(Kernel::EwiseMul, || {
        format!("{}×{}, {}+{} nnz", a.nrows(), a.ncols(), a.nnz(), b.nnz())
    });
    let start = Instant::now();
    if TypeId::of::<O>() == TypeId::of::<MulOf<LorLand>>() {
        if let Some((c, flops)) = try_bool_intersect(a, b) {
            record_ewise(ctx, Kernel::EwiseMul, start, a, b, &c, flops);
            return c;
        }
    }
    let mut flops = 0u64;
    let c = intersect_rows(a, b, |out, ra, rb| {
        flops += intersect_row(out, ra, rb, op, s)
    });
    record_ewise(ctx, Kernel::EwiseMul, start, a, b, &c, flops);
    c
}

/// GraphBLAS `eWiseUnion`: like [`ewise_add_op_ctx`], but an entry present in
/// only one operand still goes through `op`, paired with the *other
/// operand's default value* — so `op` need not treat "absent" as an
/// identity. E.g. `ewise_union_ctx(ctx, a, b, minus, 0.0, 0.0, s)` is a true
/// element-wise subtraction `A − B` including `0 − b` cells.
pub fn ewise_union_ctx<T, I, S, O>(
    ctx: &OpCtx,
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    op: O,
    a_default: T,
    b_default: T,
    s: S,
) -> Dcsr<T, I>
where
    T: Value,
    I: IndexType,
    S: Semiring<Value = T>,
    O: BinaryOp<T, T, T>,
{
    check_same_space("ewise_union", a.shape(), b.shape()).unwrap_or_else(|e| panic!("{e}"));
    let _span = ctx.kernel_span(Kernel::EwiseUnion, || {
        format!("{}×{}, {}+{} nnz", a.nrows(), a.ncols(), a.nnz(), b.nnz())
    });
    let start = Instant::now();
    let mut flops = 0u64;
    let mut out = DcsrBuilder::with_capacity(a.nrows(), a.ncols(), a.nnz() + b.nnz());
    // Every cell goes through `op`; a side with no entry there lends its
    // default.
    let mut cell = |out: &mut DcsrBuilder<T, I>, c: I, x: &T, y: &T| {
        let v = op.apply(x.clone(), y.clone());
        flops += 1;
        if !s.is_zero(&v) {
            out.push(c, v);
        }
    };
    let (ra, rb) = (a.row_ids(), b.row_ids());
    let (mut i, mut j) = (0usize, 0usize);
    while i < ra.len() || j < rb.len() {
        if j >= rb.len() || (i < ra.len() && ra[i] < rb[j]) {
            let (r, cols, vs) = a.row_at(i);
            out.row(r);
            for (&c, v) in cols.iter().zip(vs) {
                cell(&mut out, c, v, &b_default);
            }
            i += 1;
        } else if i >= ra.len() || rb[j] < ra[i] {
            let (r, cols, vs) = b.row_at(j);
            out.row(r);
            for (&c, v) in cols.iter().zip(vs) {
                cell(&mut out, c, &a_default, v);
            }
            j += 1;
        } else {
            let (r, acols, avals) = a.row_at(i);
            let (_, bcols, bvals) = b.row_at(j);
            out.row(r);
            let (mut p, mut q) = (0usize, 0usize);
            while p < acols.len() || q < bcols.len() {
                if q >= bcols.len() || (p < acols.len() && acols[p] < bcols[q]) {
                    cell(&mut out, acols[p], &avals[p], &b_default);
                    p += 1;
                } else if p >= acols.len() || bcols[q] < acols[p] {
                    cell(&mut out, bcols[q], &a_default, &bvals[q]);
                    q += 1;
                } else {
                    cell(&mut out, acols[p], &avals[p], &bvals[q]);
                    p += 1;
                    q += 1;
                }
            }
            i += 1;
            j += 1;
        }
    }
    let c = out.finish();
    record_ewise(ctx, Kernel::EwiseUnion, start, a, b, &c, flops);
    c
}

/// One row's `(cols, vals)`.
type RowOf<'a, T, I> = (&'a [I], &'a [T]);

/// The union walk over two row lists: a run of rows only one operand
/// holds goes over as it stands; a row both hold is opened in the output
/// and handed to `collide`.
fn union_rows<T: Value, I: IndexType>(
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    mut collide: impl FnMut(&mut DcsrBuilder<T, I>, RowOf<T, I>, RowOf<T, I>),
) -> Dcsr<T, I> {
    let mut out = DcsrBuilder::with_capacity(a.nrows(), a.ncols(), a.nnz() + b.nnz());
    let (ra, rb) = (a.row_ids(), b.row_ids());
    let (mut i, mut j) = (0usize, 0usize);
    while i < ra.len() || j < rb.len() {
        if j >= rb.len() || (i < ra.len() && ra[i] < rb[j]) {
            let run = rows_before(&ra[i..], rb.get(j));
            out.extend_rows(a, i, i + run);
            i += run;
        } else if i >= ra.len() || rb[j] < ra[i] {
            let run = rows_before(&rb[j..], ra.get(i));
            out.extend_rows(b, j, j + run);
            j += run;
        } else {
            let (r, acols, avals) = a.row_at(i);
            let (_, bcols, bvals) = b.row_at(j);
            out.row(r);
            collide(&mut out, (acols, avals), (bcols, bvals));
            i += 1;
            j += 1;
        }
    }
    out.finish()
}

/// Length of the leading run of `rows` that sorts before the other
/// operand's next row (`None`: it has none left).
fn rows_before(rows: &[Ix], bound: Option<&Ix>) -> usize {
    bound.map_or(rows.len(), |b| rows.iter().take_while(|&r| r < b).count())
}

/// Two-pointer union of one colliding row pair into the open row:
/// one-sided columns pass through (the tail as a slice copy), collisions
/// combine with `op` and drop if zero. Returns the collision count.
#[inline]
fn union_row<T: Value, I: IndexType, S: Semiring<Value = T>, O: BinaryOp<T, T, T>>(
    out: &mut DcsrBuilder<T, I>,
    (acols, avals): RowOf<T, I>,
    (bcols, bvals): RowOf<T, I>,
    op: O,
    s: S,
) -> u64 {
    let mut flops = 0;
    let (mut p, mut q) = (0usize, 0usize);
    while p < acols.len() && q < bcols.len() {
        match acols[p].cmp(&bcols[q]) {
            Ordering::Less => {
                out.push(acols[p], avals[p].clone());
                p += 1;
            }
            Ordering::Greater => {
                out.push(bcols[q], bvals[q].clone());
                q += 1;
            }
            Ordering::Equal => {
                let v = op.apply(avals[p].clone(), bvals[q].clone());
                flops += 1;
                if !s.is_zero(&v) {
                    out.push(acols[p], v);
                }
                p += 1;
                q += 1;
            }
        }
    }
    // At most one side has a tail left.
    out.extend(&acols[p..], &avals[p..]);
    out.extend(&bcols[q..], &bvals[q..]);
    flops
}

/// The intersection walk: only rows both operands hold are opened and
/// handed to `collide`.
fn intersect_rows<T: Value, I: IndexType>(
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    mut collide: impl FnMut(&mut DcsrBuilder<T, I>, RowOf<T, I>, RowOf<T, I>),
) -> Dcsr<T, I> {
    let mut out = DcsrBuilder::with_capacity(a.nrows(), a.ncols(), 0);
    let (ra, rb) = (a.row_ids(), b.row_ids());
    let (mut i, mut j) = (0usize, 0usize);
    while i < ra.len() && j < rb.len() {
        match ra[i].cmp(&rb[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                let (r, acols, avals) = a.row_at(i);
                let (_, bcols, bvals) = b.row_at(j);
                out.row(r);
                collide(&mut out, (acols, avals), (bcols, bvals));
                i += 1;
                j += 1;
            }
        }
    }
    out.finish()
}

/// Two-pointer intersection of one colliding row pair into the open
/// row. Returns the collision count.
#[inline]
fn intersect_row<T: Value, I: IndexType, S: Semiring<Value = T>, O: BinaryOp<T, T, T>>(
    out: &mut DcsrBuilder<T, I>,
    (acols, avals): RowOf<T, I>,
    (bcols, bvals): RowOf<T, I>,
    op: O,
    s: S,
) -> u64 {
    let mut flops = 0;
    let (mut p, mut q) = (0usize, 0usize);
    while p < acols.len() && q < bcols.len() {
        match acols[p].cmp(&bcols[q]) {
            Ordering::Less => p += 1,
            Ordering::Greater => q += 1,
            Ordering::Equal => {
                let v = op.apply(avals[p].clone(), bvals[q].clone());
                flops += 1;
                if !s.is_zero(&v) {
                    out.push(acols[p], v);
                }
                p += 1;
                q += 1;
            }
        }
    }
    flops
}

fn record_ewise<T: Value, I: IndexType>(
    ctx: &OpCtx,
    kernel: Kernel,
    start: Instant,
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
    c: &Dcsr<T, I>,
    flops: u64,
) {
    ctx.metrics().record(
        kernel,
        start.elapsed(),
        (a.nnz() + b.nnz()) as u64,
        c.nnz() as u64,
        flops,
        (a.bytes() + b.bytes() + c.bytes()) as u64,
    );
}

// ---- boolean word-at-a-time fast paths ----

/// Per-pair bitmaps for the word merges: presence and truth words for
/// each operand row, kept all-zero between pairs (the drain and the
/// `fill(0)` below restore the invariant).
#[derive(Default)]
struct BoolWords {
    pa: Vec<u64>,
    ta: Vec<u64>,
    pb: Vec<u64>,
    tb: Vec<u64>,
}

impl BoolWords {
    fn ensure(&mut self, nw: usize) {
        if self.pa.len() < nw {
            self.pa.resize(nw, 0);
            self.ta.resize(nw, 0);
            self.pb.resize(nw, 0);
            self.tb.resize(nw, 0);
        }
    }

    fn load<I: IndexType>(&mut self, acols: &[I], avals: &[bool], bcols: &[I], bvals: &[bool]) {
        for (&c, &v) in acols.iter().zip(avals) {
            let cz = c.as_usize();
            self.pa[cz >> 6] |= 1u64 << (cz & 63);
            self.ta[cz >> 6] |= (v as u64) << (cz & 63);
        }
        for (&c, &v) in bcols.iter().zip(bvals) {
            let cz = c.as_usize();
            self.pb[cz >> 6] |= 1u64 << (cz & 63);
            self.tb[cz >> 6] |= (v as u64) << (cz & 63);
        }
    }

    fn clear(&mut self, nw: usize) {
        self.pa[..nw].fill(0);
        self.ta[..nw].fill(0);
        self.pb[..nw].fill(0);
        self.tb[..nw].fill(0);
    }
}

/// Columns per colliding row pair must satisfy
/// `words ≤ nnz(a_row) + nnz(b_row)` for the bitmaps to pay off.
fn word_merge_pays_off(nw: usize, na: usize, nb: usize) -> bool {
    nw <= na + nb
}

/// Downcast to the concrete boolean matrices and run the monomorphic
/// union; `None` when `T` is not `bool` (the generic loop handles it).
fn try_bool_union<T: Value, I: IndexType>(
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
) -> Option<(Dcsr<T, I>, u64)> {
    let ab = (a as &dyn Any).downcast_ref::<Dcsr<bool, I>>()?;
    let bb = (b as &dyn Any).downcast_ref::<Dcsr<bool, I>>()?;
    let (c, flops) = bool_union(ab, bb);
    let boxed: Box<dyn Any> = Box::new(c);
    Some((*boxed.downcast::<Dcsr<T, I>>().ok()?, flops))
}

/// Monomorphic `LorLand` union. Pass-through entries (rows or columns in
/// one operand only) keep their stored value — even an explicit `false`
/// — exactly like the generic loop; collisions OR and drop `false`.
fn bool_union<I: IndexType>(a: &Dcsr<bool, I>, b: &Dcsr<bool, I>) -> (Dcsr<bool, I>, u64) {
    let nw_full = (a.ncols() as usize).div_ceil(64);
    let mut words = BoolWords::default();
    let mut flops = 0u64;
    let c = union_rows(a, b, |out, (acols, avals), (bcols, bvals)| {
        if !word_merge_pays_off(nw_full, acols.len(), bcols.len()) {
            flops += union_row(out, (acols, avals), (bcols, bvals), AddOf(LorLand), LorLand);
            return;
        }
        words.ensure(nw_full);
        words.load(acols, avals, bcols, bvals);
        for w in 0..nw_full {
            let (pa, ta) = (words.pa[w], words.ta[w]);
            let (pb, tb) = (words.pb[w], words.tb[w]);
            let coll = pa & pb;
            flops += u64::from(coll.count_ones());
            let truth = ta | tb;
            // A collision where both sides are false ORs to the
            // semiring zero and drops; everything else survives.
            let mut live = (pa | pb) & !(coll & !truth);
            while live != 0 {
                let cz = (w << 6) | live.trailing_zeros() as usize;
                live &= live - 1;
                out.push(I::from_usize(cz), (truth >> (cz & 63)) & 1 == 1);
            }
        }
        words.clear(nw_full);
    });
    (c, flops)
}

/// Downcast to the concrete boolean matrices and run the monomorphic
/// intersection; `None` when `T` is not `bool`.
fn try_bool_intersect<T: Value, I: IndexType>(
    a: &Dcsr<T, I>,
    b: &Dcsr<T, I>,
) -> Option<(Dcsr<T, I>, u64)> {
    let ab = (a as &dyn Any).downcast_ref::<Dcsr<bool, I>>()?;
    let bb = (b as &dyn Any).downcast_ref::<Dcsr<bool, I>>()?;
    let (c, flops) = bool_intersect(ab, bb);
    let boxed: Box<dyn Any> = Box::new(c);
    Some((*boxed.downcast::<Dcsr<T, I>>().ok()?, flops))
}

/// Monomorphic `LorLand` intersection: survivors are exactly the columns
/// present *and true* on both sides (`false ⊗ x` is the semiring zero).
fn bool_intersect<I: IndexType>(a: &Dcsr<bool, I>, b: &Dcsr<bool, I>) -> (Dcsr<bool, I>, u64) {
    let nw_full = (a.ncols() as usize).div_ceil(64);
    let mut words = BoolWords::default();
    let mut flops = 0u64;
    let c = intersect_rows(a, b, |out, (acols, avals), (bcols, bvals)| {
        if !word_merge_pays_off(nw_full, acols.len(), bcols.len()) {
            flops += intersect_row(out, (acols, avals), (bcols, bvals), MulOf(LorLand), LorLand);
            return;
        }
        words.ensure(nw_full);
        words.load(acols, avals, bcols, bvals);
        for w in 0..nw_full {
            let coll = words.pa[w] & words.pb[w];
            flops += u64::from(coll.count_ones());
            let mut live = coll & words.ta[w] & words.tb[w];
            while live != 0 {
                let cz = (w << 6) | live.trailing_zeros() as usize;
                live &= live - 1;
                out.push(I::from_usize(cz), true);
            }
        }
        words.clear(nw_full);
    });
    (c, flops)
}

/// Element-wise conformance: both operands span one key space.
pub(crate) fn check_same_space(op: &'static str, a: (Ix, Ix), b: (Ix, Ix)) -> Result<(), OpError> {
    if a != b {
        return Err(OpError::DimensionMismatch {
            op,
            a,
            b,
            rule: "element-wise operands must share a key space",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::gen::random_dcsr;
    use semiring::{MinPlus, PlusTimes, UnionIntersect};

    fn m(n: Ix, t: &[(Ix, Ix, f64)]) -> Dcsr<f64> {
        let mut c = Coo::new(n, n);
        c.extend(t.iter().copied());
        c.build_dcsr(PlusTimes::<f64>::new())
    }

    #[test]
    fn add_is_union_with_combining() {
        let a = m(4, &[(0, 0, 1.0), (1, 1, 2.0)]);
        let b = m(4, &[(1, 1, 3.0), (2, 2, 4.0)]);
        let c = ewise_add_ctx(&OpCtx::new(), &a, &b, PlusTimes::<f64>::new());
        assert_eq!(c.nnz(), 3);
        assert_eq!(c.get(0, 0), Some(&1.0));
        assert_eq!(c.get(1, 1), Some(&5.0));
        assert_eq!(c.get(2, 2), Some(&4.0));
    }

    #[test]
    fn mul_is_intersection() {
        let a = m(4, &[(0, 0, 2.0), (1, 1, 2.0), (3, 3, 9.0)]);
        let b = m(4, &[(1, 1, 3.0), (2, 2, 4.0), (3, 3, 1.0)]);
        let c = ewise_mul_ctx(&OpCtx::new(), &a, &b, PlusTimes::<f64>::new());
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(1, 1), Some(&6.0));
        assert_eq!(c.get(3, 3), Some(&9.0));
        assert_eq!(c.get(0, 0), None);
    }

    #[test]
    fn add_identity_law_on_arrays() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(64, 64, 200, 42, s);
        let zero = Dcsr::<f64>::empty(64, 64);
        assert_eq!(ewise_add_ctx(&OpCtx::new(), &a, &zero, s), a);
        assert_eq!(ewise_add_ctx(&OpCtx::new(), &zero, &a, s), a);
    }

    #[test]
    fn mul_with_empty_annihilates() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(64, 64, 200, 43, s);
        let zero = Dcsr::<f64>::empty(64, 64);
        assert_eq!(ewise_mul_ctx(&OpCtx::new(), &a, &zero, s).nnz(), 0);
    }

    #[test]
    fn cancellation_drops_entries() {
        let a = m(4, &[(0, 0, 5.0)]);
        let b = m(4, &[(0, 0, -5.0)]);
        let c = ewise_add_ctx(&OpCtx::new(), &a, &b, PlusTimes::<f64>::new());
        assert_eq!(c.nnz(), 0);
        assert!(c.row_ids().is_empty());
    }

    #[test]
    fn tropical_ewise_add_takes_min() {
        let s = MinPlus::<f64>::new();
        let mut ca = Coo::new(4, 4);
        ca.push(0, 0, 5.0);
        let mut cb = Coo::new(4, 4);
        cb.push(0, 0, 3.0);
        let c = ewise_add_ctx(&OpCtx::new(), &ca.build_dcsr(s), &cb.build_dcsr(s), s);
        assert_eq!(c.get(0, 0), Some(&3.0));
    }

    #[test]
    fn set_valued_union_intersection() {
        use semiring::PSet;
        let s = UnionIntersect;
        let mut ca = Coo::new(2, 2);
        ca.push(0, 0, PSet::from_iter([1, 2]));
        let a = ca.build_dcsr(s);
        let mut cb = Coo::new(2, 2);
        cb.push(0, 0, PSet::from_iter([2, 3]));
        let b = cb.build_dcsr(s);
        assert_eq!(
            ewise_add_ctx(&OpCtx::new(), &a, &b, s).get(0, 0),
            Some(&PSet::from_iter([1, 2, 3]))
        );
        assert_eq!(
            ewise_mul_ctx(&OpCtx::new(), &a, &b, s).get(0, 0),
            Some(&PSet::from_iter([2]))
        );
    }

    #[test]
    fn commutativity_on_random() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(64, 64, 300, 44, s);
        let b = random_dcsr(64, 64, 300, 45, s);
        assert_eq!(
            ewise_add_ctx(&OpCtx::new(), &a, &b, s),
            ewise_add_ctx(&OpCtx::new(), &b, &a, s)
        );
        assert_eq!(
            ewise_mul_ctx(&OpCtx::new(), &a, &b, s),
            ewise_mul_ctx(&OpCtx::new(), &b, &a, s)
        );
    }

    /// A boolean matrix with the given pattern seed; every third stored
    /// value is an explicit `false` (legal when a matrix was built under
    /// another semiring) to exercise the truth-vs-presence distinction.
    fn bool_mat(n: Ix, nnz: usize, seed: u64) -> Dcsr<bool> {
        let pat = random_dcsr(n, n, nnz, seed, PlusTimes::<f64>::new());
        let mut c = Coo::new(n, n);
        for (i, j, _) in pat.iter() {
            c.push(i, j, true);
        }
        let (nr, nc, rows, rowptr, colidx, mut vals) = c.build_dcsr(LorLand).into_parts();
        for v in vals.iter_mut().step_by(3) {
            *v = false;
        }
        Dcsr::from_parts(nr, nc, rows, rowptr, colidx, vals)
    }

    #[test]
    fn bool_word_merge_matches_generic() {
        let s = LorLand;
        // Dense rows in a compact space: the word path engages.
        let a = bool_mat(96, 1400, 70);
        let b = bool_mat(96, 1400, 71);
        // Sparse rows in a wide space: per-pair gate falls back.
        let aw = bool_mat(5000, 900, 72);
        let bw = bool_mat(5000, 900, 73);
        // `Plain` changes the combiner's type, so it takes the generic
        // two-pointer loop.
        let plain = semiring::Plain(s);
        let ctx = OpCtx::new();
        for (x, y) in [(&a, &b), (&aw, &bw)] {
            assert_eq!(
                ewise_add_ctx(&ctx, x, y, s),
                ewise_add_ctx(&ctx, x, y, plain)
            );
            assert_eq!(
                ewise_mul_ctx(&ctx, x, y, s),
                ewise_mul_ctx(&ctx, x, y, plain)
            );
        }
        // Flop parity too: both loops must agree on the metric.
        let f2 = OpCtx::new();
        let s2 = OpCtx::new();
        let _ = ewise_add_ctx(&f2, &a, &b, s);
        let _ = ewise_add_ctx(&s2, &a, &b, plain);
        assert_eq!(
            f2.metrics().snapshot().kernel(Kernel::EwiseAdd).flops,
            s2.metrics().snapshot().kernel(Kernel::EwiseAdd).flops
        );
    }

    #[test]
    fn narrow_index_ewise_matches_wide() {
        let s = PlusTimes::<f64>::new();
        let a = random_dcsr(80, 80, 400, 46, s);
        let b = random_dcsr(80, 80, 400, 47, s);
        let an: Dcsr<f64, u32> = a.to_index_width().unwrap();
        let bn: Dcsr<f64, u32> = b.to_index_width().unwrap();
        let wide = ewise_add_ctx(&OpCtx::new(), &a, &b, s);
        let narrow = ewise_add_ctx(&OpCtx::new(), &an, &bn, s);
        let wt: Vec<_> = wide.iter().collect();
        let nt: Vec<_> = narrow.iter().collect();
        assert_eq!(wt, nt);
    }

    #[test]
    fn ewise_add_op_second_is_overwrite_merge() {
        use semiring::Second;
        let a = m(4, &[(0, 0, 1.0), (1, 1, 2.0)]);
        let b = m(4, &[(1, 1, 9.0), (2, 2, 3.0)]);
        let c = ewise_add_op_ctx(&OpCtx::new(), &a, &b, Second, PlusTimes::<f64>::new());
        assert_eq!(c.get(0, 0), Some(&1.0)); // only in a
        assert_eq!(c.get(1, 1), Some(&9.0)); // b wins the collision
        assert_eq!(c.get(2, 2), Some(&3.0)); // only in b
    }

    #[test]
    fn ewise_add_op_subtract_diffs() {
        use semiring::FnBinOp;
        let a = m(4, &[(0, 0, 5.0), (1, 1, 2.0)]);
        let b = m(4, &[(0, 0, 5.0), (1, 1, 1.5)]);
        let c = ewise_add_op_ctx(
            &OpCtx::new(),
            &a,
            &b,
            FnBinOp(|x: f64, y: f64| x - y),
            PlusTimes::<f64>::new(),
        );
        // Equal cells cancel to zero and drop; the differing cell remains.
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(1, 1), Some(&0.5));
    }

    #[test]
    fn ewise_mul_op_max_at_intersections() {
        use semiring::FnBinOp;
        let a = m(4, &[(0, 0, 1.0), (1, 1, 7.0)]);
        let b = m(4, &[(1, 1, 3.0), (2, 2, 9.0)]);
        let c = ewise_mul_op_ctx(
            &OpCtx::new(),
            &a,
            &b,
            FnBinOp(|x: f64, y: f64| x.max(y)),
            PlusTimes::<f64>::new(),
        );
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(1, 1), Some(&7.0));
    }

    #[test]
    fn ewise_union_true_subtraction() {
        use semiring::FnBinOp;
        let sr = PlusTimes::<f64>::new();
        let a = m(4, &[(0, 0, 5.0), (1, 1, 2.0)]);
        let b = m(4, &[(1, 1, 2.0), (2, 2, 3.0)]);
        let minus = FnBinOp(|x: f64, y: f64| x - y);
        let c = ewise_union_ctx(&OpCtx::new(), &a, &b, minus, 0.0, 0.0, sr);
        assert_eq!(c.get(0, 0), Some(&5.0)); // 5 − default(0)
        assert_eq!(c.get(1, 1), None); // 2 − 2 cancels
        assert_eq!(c.get(2, 2), Some(&-3.0)); // default(0) − 3: sign flips!
    }

    #[test]
    fn ewise_union_with_add_matches_ewise_add() {
        use semiring::FnBinOp;
        let sr = PlusTimes::<f64>::new();
        let a = random_dcsr(24, 24, 120, 60, sr);
        let b = random_dcsr(24, 24, 120, 61, sr);
        let plus = FnBinOp(|x: f64, y: f64| x + y);
        assert_eq!(
            ewise_union_ctx(&OpCtx::new(), &a, &b, plus, 0.0, 0.0, sr),
            ewise_add_ctx(&OpCtx::new(), &a, &b, sr)
        );
    }

    #[test]
    fn ewise_union_custom_defaults() {
        use semiring::FnBinOp;
        let sr = PlusTimes::<f64>::new();
        let a = m(4, &[(0, 0, 4.0)]);
        let b = m(4, &[(1, 1, 6.0)]);
        // min with +∞ defaults: singleton cells pass through unchanged.
        let mn = FnBinOp(|x: f64, y: f64| x.min(y));
        let c = ewise_union_ctx(&OpCtx::new(), &a, &b, mn, f64::INFINITY, f64::INFINITY, sr);
        assert_eq!(c.get(0, 0), Some(&4.0));
        assert_eq!(c.get(1, 1), Some(&6.0));
    }

    #[test]
    fn op_variants_reduce_to_semiring_ops() {
        let sr = PlusTimes::<f64>::new();
        let a = random_dcsr(32, 32, 150, 50, sr);
        let b = random_dcsr(32, 32, 150, 51, sr);
        use semiring::FnBinOp;
        assert_eq!(
            ewise_add_op_ctx(&OpCtx::new(), &a, &b, FnBinOp(|x: f64, y: f64| x + y), sr),
            ewise_add_ctx(&OpCtx::new(), &a, &b, sr)
        );
        assert_eq!(
            ewise_mul_op_ctx(&OpCtx::new(), &a, &b, FnBinOp(|x: f64, y: f64| x * y), sr),
            ewise_mul_ctx(&OpCtx::new(), &a, &b, sr)
        );
    }

    #[test]
    fn ctx_variants_record_metrics() {
        let sr = PlusTimes::<f64>::new();
        let ctx = OpCtx::new();
        let a = m(4, &[(0, 0, 1.0), (1, 1, 2.0)]);
        let b = m(4, &[(1, 1, 3.0), (2, 2, 4.0)]);
        let c = ewise_add_ctx(&ctx, &a, &b, sr);
        let _ = ewise_mul_ctx(&ctx, &a, &b, sr);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.kernel(Kernel::EwiseAdd).calls, 1);
        assert_eq!(snap.kernel(Kernel::EwiseAdd).nnz_out, c.nnz() as u64);
        assert_eq!(snap.kernel(Kernel::EwiseAdd).flops, 1); // one collision
        assert_eq!(snap.kernel(Kernel::EwiseMul).calls, 1);
        assert!(snap.kernel(Kernel::EwiseAdd).bytes_touched > 0);
    }

    #[test]
    #[should_panic(expected = "share a key space")]
    fn dim_mismatch_panics() {
        let a = Dcsr::<f64>::empty(3, 3);
        let b = Dcsr::<f64>::empty(4, 4);
        let _ = ewise_add_ctx(&OpCtx::new(), &a, &b, PlusTimes::<f64>::new());
    }
}
