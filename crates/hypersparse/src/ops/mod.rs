//! Semiring kernels over the hypersparse compute format ([`crate::Dcsr`]).
//!
//! The operation set is the paper's algebra and no more: `mxm` (plain,
//! masked, and fused with an apply-prune), `mxv`/`vxm`, element-wise ⊕
//! and ⊗, reductions, `apply`, `select`, `extract`, `transpose` and
//! `top_k` — the operations the program runs. Kernels nothing calls are
//! deleted rather than kept beside them (DESIGN.md §1).
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
//! precondition states it once, in a `pub fn check_*` beside it
//! returning [`crate::OpError`]: the kernel panics with that error's
//! `Display`, and a caller that must not panic calls the check first
//! and gets the very same value. [`crate::Matrix`] stores; it computes
//! by running these kernels on its hypersparse view
//! ([`crate::Matrix::compute_ctx`]). Mask and transpose are *arguments*
//! ([`mxv::vxm_opt_ctx`]), not sibling functions.

pub mod ewise;
pub mod mxm;
pub mod mxv;
pub mod reduce;
pub mod topk;
pub mod transform;

pub use ewise::{ewise_add_ctx, ewise_mul_ctx};
pub use mxm::{compact, mxm_apply_prune_ctx, mxm_ctx, mxm_masked_count_ctx, mxm_masked_ctx};
pub use mxv::{
    choose_direction, frontier_edges, gallop, mxv_ctx, mxv_opt_ctx, vxm_ctx, vxm_dense_ctx,
    vxm_opt_ctx, vxm_pull_ctx, Mask,
};
pub use reduce::{
    col_degrees_ctx, reduce_cols_ctx, reduce_rows_ctx, reduce_scalar_ctx, row_degrees_ctx,
};
pub use topk::{top_k_cols_ctx, top_k_ctx, top_k_rows_ctx};
pub use transform::{apply_ctx, apply_prune_ctx, extract_ctx, select_ctx, transpose_ctx};

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use semiring::{FnOp, PlusTimes};

    use super::*;
    use crate::error::OpError;
    use crate::{Dcsr, OpCtx, SparseVec};

    /// One message per misuse: for every kernel with a `check_*`, the
    /// panicking kernel's payload is the `Display` of the error the
    /// check returns for the same shapes — the value a caller that tries
    /// the check first gets back.
    #[test]
    fn kernel_panic_is_the_check_error_and_try_returns_it() {
        let s = PlusTimes::<f64>::new();
        let ctx = OpCtx::new();
        let d = |nrows, ncols| Dcsr::<f64>::empty(nrows, ncols);
        let v = |dim| SparseVec::<f64>::empty(dim);
        let id = FnOp(|x: f64| x);

        type Misuse<'a> = (&'static str, OpError, Box<dyn Fn() + 'a>);
        let table: Vec<Misuse> = vec![
            (
                "mxm",
                mxm::check_mxm("mxm", (3, 4), (5, 3)).unwrap_err(),
                Box::new(|| drop(mxm_ctx(&ctx, &d(3, 4), &d(5, 3), s))),
            ),
            (
                "mxm_apply_prune",
                mxm::check_mxm("mxm_apply_prune", (3, 4), (5, 3)).unwrap_err(),
                Box::new(|| drop(mxm_apply_prune_ctx(&ctx, &d(3, 4), &d(5, 3), s, id, s))),
            ),
            (
                "mxm_masked (inner)",
                mxm::check_mxm_masked((3, 4), (5, 3), (3, 3)).unwrap_err(),
                Box::new(|| drop(mxm_masked_ctx(&ctx, &d(3, 4), &d(5, 3), &d(3, 3), false, s))),
            ),
            (
                "mxm_masked (mask)",
                mxm::check_mxm_masked((3, 4), (4, 6), (3, 3)).unwrap_err(),
                Box::new(|| drop(mxm_masked_ctx(&ctx, &d(3, 4), &d(4, 6), &d(3, 3), false, s))),
            ),
            (
                "ewise_add",
                ewise::check_same_space("ewise_add", (4, 4), (4, 5)).unwrap_err(),
                Box::new(|| drop(ewise_add_ctx(&ctx, &d(4, 4), &d(4, 5), s))),
            ),
            (
                "ewise_mul",
                ewise::check_same_space("ewise_mul", (4, 4), (4, 5)).unwrap_err(),
                Box::new(|| drop(ewise_mul_ctx(&ctx, &d(4, 4), &d(4, 5), s))),
            ),
            (
                "vxm",
                mxv::check_vxm(11, (10, 12), None).unwrap_err(),
                Box::new(|| drop(vxm_ctx(&ctx, &v(11), &d(10, 12), s))),
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
            ),
            (
                "vxm_pull",
                mxv::check_vxm(11, (10, 12), None).unwrap_err(),
                Box::new(|| drop(vxm_pull_ctx(&ctx, &v(11), &d(12, 10), s))),
            ),
            (
                "mxv",
                mxv::check_mxv((10, 12), None, 11).unwrap_err(),
                Box::new(|| drop(mxv_ctx(&ctx, &d(10, 12), &v(11), s))),
            ),
            (
                "mxv (transpose)",
                mxv::check_mxv((10, 12), Some((12, 20)), 12).unwrap_err(),
                Box::new(|| drop(mxv_opt_ctx(&ctx, &d(10, 12), Some(&d(12, 20)), &v(12), s))),
            ),
            (
                "extract",
                transform::check_extract((4, 4), &[1, 9], &[0]).unwrap_err(),
                Box::new(|| drop(extract_ctx(&ctx, &d(4, 4), &[1, 9], &[0]))),
            ),
        ];
        for (name, want, kernel) in table {
            let payload = catch_unwind(AssertUnwindSafe(kernel)).expect_err(name);
            let msg = payload
                .downcast_ref::<String>()
                .unwrap_or_else(|| panic!("{name}: panic payload is not a String"));
            assert_eq!(msg, &want.to_string(), "{name}: kernel panic text");
        }
    }
}
