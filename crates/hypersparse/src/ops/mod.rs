//! Semiring kernels over the hypersparse compute format ([`crate::Dcsr`]).
//!
//! Every kernel is generic over a [`semiring::Semiring`] (or a monoid for
//! reductions), drops semiring zeros from its output, and is
//! deterministic — the parallel SpGEMM partitions work by row and
//! assembles results in row order, so thread count never changes a bit of
//! the answer.
//!
//! **Calling convention** (DESIGN.md §7): this layer holds the one body
//! of every operation and nothing else. Each kernel is a `*_ctx`
//! function whose first parameter is the [`crate::ctx::OpCtx`] it runs
//! on (workspace arena + thread cap + metrics); there are no
//! default-context wrappers here and no `try_*` twins. A kernel with a
//! precondition states it once, in a `pub(crate) check_*` returning
//! [`crate::OpError`]: the kernel panics with that error's `Display`,
//! and the fallible `Matrix::try_*_ctx` methods return the very same
//! value. Mask and transpose are *arguments*
//! ([`mxv::vxm_opt_ctx`]), not sibling functions.

pub mod ewise;
pub mod mxm;
pub mod mxv;
pub mod reduce;
pub mod structure;
pub mod topk;
pub mod transform;

pub use ewise::{
    ewise_add_ctx, ewise_add_op_ctx, ewise_mul_ctx, ewise_mul_op_ctx, ewise_union_ctx,
};
pub use mxm::{mxm_apply_prune_ctx, mxm_ctx, mxm_masked_ctx};
pub use mxv::{
    choose_direction, mxv_ctx, mxv_opt_ctx, vxm_ctx, vxm_dense_pull_ctx, vxm_opt_ctx, vxm_pull_ctx,
};
pub use reduce::{
    col_degrees_ctx, reduce_cols_ctx, reduce_rows_ctx, reduce_scalar_ctx, row_degrees_ctx,
};
pub use structure::{
    assign_ctx, concat_cols_ctx, concat_rows_ctx, diag, diag_of, matrix_power_ctx,
};
pub use topk::{top_k_cols_ctx, top_k_ctx, top_k_rows_ctx};
pub use transform::{apply_ctx, apply_prune_ctx, extract_ctx, kron_ctx, select_ctx, transpose_ctx};

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use semiring::{FnOp, PlusTimes};

    use super::*;
    use crate::error::{Axis, OpError};
    use crate::{Dcsr, Matrix, OpCtx, SparseVec};

    /// One message per misuse: for every kernel with a `check_*`, the
    /// panicking core's payload is that check's `Display`, and the
    /// `Matrix::try_*_ctx` of the same operands (where there is one)
    /// returns that same `OpError`.
    #[test]
    fn kernel_panic_is_the_check_error_and_try_returns_it() {
        let s = PlusTimes::<f64>::new();
        let ctx = OpCtx::new();
        let d = |nrows, ncols| Dcsr::<f64>::empty(nrows, ncols);
        let m = |nrows, ncols| Matrix::from_dcsr(d(nrows, ncols), s);
        let v = |dim| SparseVec::<f64>::empty(dim);
        let id = FnOp(|x: f64| x);

        type Misuse<'a> = (&'static str, OpError, Box<dyn Fn() + 'a>, Option<OpError>);
        let table: Vec<Misuse> = vec![
            (
                "mxm",
                mxm::check_mxm("mxm", (3, 4), (5, 3)).unwrap_err(),
                Box::new(|| drop(mxm_ctx(&ctx, &d(3, 4), &d(5, 3), s))),
                m(3, 4).try_mxm_ctx(&ctx, &m(5, 3), s).err(),
            ),
            (
                "mxm_apply_prune",
                mxm::check_mxm("mxm_apply_prune", (3, 4), (5, 3)).unwrap_err(),
                Box::new(|| drop(mxm_apply_prune_ctx(&ctx, &d(3, 4), &d(5, 3), s, id, s))),
                None,
            ),
            (
                "mxm_masked (inner)",
                mxm::check_mxm_masked((3, 4), (5, 3), (3, 3)).unwrap_err(),
                Box::new(|| drop(mxm_masked_ctx(&ctx, &d(3, 4), &d(5, 3), &d(3, 3), false, s))),
                m(3, 4)
                    .try_mxm_masked_ctx(&ctx, &m(5, 3), &m(3, 3), false, s)
                    .err(),
            ),
            (
                "mxm_masked (mask)",
                mxm::check_mxm_masked((3, 4), (4, 6), (3, 3)).unwrap_err(),
                Box::new(|| drop(mxm_masked_ctx(&ctx, &d(3, 4), &d(4, 6), &d(3, 3), false, s))),
                m(3, 4)
                    .try_mxm_masked_ctx(&ctx, &m(4, 6), &m(3, 3), false, s)
                    .err(),
            ),
            (
                "ewise_add",
                ewise::check_same_space("ewise_add", (4, 4), (4, 5)).unwrap_err(),
                Box::new(|| drop(ewise_add_ctx(&ctx, &d(4, 4), &d(4, 5), s))),
                m(4, 4).try_ewise_add_ctx(&ctx, &m(4, 5), s).err(),
            ),
            (
                "ewise_mul",
                ewise::check_same_space("ewise_mul", (4, 4), (4, 5)).unwrap_err(),
                Box::new(|| drop(ewise_mul_ctx(&ctx, &d(4, 4), &d(4, 5), s))),
                m(4, 4).try_ewise_mul_ctx(&ctx, &m(4, 5), s).err(),
            ),
            (
                "ewise_union",
                ewise::check_same_space("ewise_union", (4, 4), (4, 5)).unwrap_err(),
                Box::new(|| {
                    let plus = semiring::FnBinOp(|x: f64, y: f64| x + y);
                    drop(ewise_union_ctx(&ctx, &d(4, 4), &d(4, 5), plus, 0.0, 0.0, s))
                }),
                None,
            ),
            (
                "vxm",
                mxv::check_vxm(11, (10, 12), None).unwrap_err(),
                Box::new(|| drop(vxm_ctx(&ctx, &v(11), &d(10, 12), s))),
                m(10, 12).try_vxm_ctx(&ctx, &v(11), s).err(),
            ),
            (
                "vxm (transpose)",
                mxv::check_vxm(10, (10, 12), Some((20, 10))).unwrap_err(),
                Box::new(|| {
                    drop(vxm_opt_ctx(
                        &ctx,
                        &v(10),
                        &d(10, 12),
                        Some(&d(20, 10)),
                        None,
                        s,
                    ))
                }),
                None,
            ),
            (
                "vxm_pull",
                mxv::check_vxm(11, (10, 12), None).unwrap_err(),
                Box::new(|| drop(vxm_pull_ctx(&ctx, &v(11), &d(12, 10), s))),
                None,
            ),
            (
                "mxv",
                mxv::check_mxv((10, 12), None, 11).unwrap_err(),
                Box::new(|| drop(mxv_ctx(&ctx, &d(10, 12), &v(11), s))),
                m(10, 12).try_mxv_ctx(&ctx, &v(11), s).err(),
            ),
            (
                "mxv (transpose)",
                mxv::check_mxv((10, 12), Some((12, 20)), 12).unwrap_err(),
                Box::new(|| drop(mxv_opt_ctx(&ctx, &d(10, 12), Some(&d(12, 20)), &v(12), s))),
                None,
            ),
            (
                "concat_rows",
                structure::check_concat(Axis::Rows, (4, 4), (4, 5)).unwrap_err(),
                Box::new(|| drop(concat_rows_ctx(&ctx, &d(4, 4), &d(4, 5)))),
                m(4, 4).try_concat_rows_ctx(&ctx, &m(4, 5), s).err(),
            ),
            (
                "concat_rows (overflow)",
                structure::check_concat(Axis::Rows, (u64::MAX, 4), (4, 4)).unwrap_err(),
                Box::new(|| drop(concat_rows_ctx(&ctx, &d(u64::MAX, 4), &d(4, 4)))),
                m(u64::MAX, 4).try_concat_rows_ctx(&ctx, &m(4, 4), s).err(),
            ),
            (
                "concat_cols",
                structure::check_concat(Axis::Cols, (4, 4), (5, 4)).unwrap_err(),
                Box::new(|| drop(concat_cols_ctx(&ctx, &d(4, 4), &d(5, 4)))),
                m(4, 4).try_concat_cols_ctx(&ctx, &m(5, 4), s).err(),
            ),
            (
                "concat_cols (overflow)",
                structure::check_concat(Axis::Cols, (4, u64::MAX), (4, 4)).unwrap_err(),
                Box::new(|| drop(concat_cols_ctx(&ctx, &d(4, u64::MAX), &d(4, 4)))),
                m(4, u64::MAX).try_concat_cols_ctx(&ctx, &m(4, 4), s).err(),
            ),
        ];
        for (name, want, kernel, tried) in table {
            let payload = catch_unwind(AssertUnwindSafe(kernel)).expect_err(name);
            let msg = payload
                .downcast_ref::<String>()
                .unwrap_or_else(|| panic!("{name}: panic payload is not a String"));
            assert_eq!(msg, &want.to_string(), "{name}: kernel panic text");
            if let Some(got) = tried {
                assert_eq!(got, want, "{name}: Matrix::try_*_ctx error");
            }
        }
    }
}
