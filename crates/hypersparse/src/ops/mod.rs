//! Semiring kernels over the hypersparse compute format ([`crate::Dcsr`]).
//!
//! Every kernel is generic over a [`semiring::Semiring`] (or a monoid for
//! reductions), drops semiring zeros from its output, and is
//! deterministic — the parallel SpGEMM partitions work by row and
//! assembles results in row order, so thread count never changes a bit of
//! the answer.
//!
//! Every kernel comes in two spellings: a `*_ctx` entry point taking an
//! explicit [`crate::ctx::OpCtx`] (workspace arena + thread cap +
//! metrics), and the classic ctx-free name, which is a thin wrapper over
//! the thread-local default context.

pub mod ewise;
pub mod mxm;
pub mod mxv;
pub mod reduce;
pub mod structure;
pub mod topk;
pub mod transform;

pub use ewise::{
    ewise_add, ewise_add_ctx, ewise_add_op, ewise_add_op_ctx, ewise_mul, ewise_mul_ctx,
    ewise_mul_op, ewise_mul_op_ctx, ewise_union, ewise_union_ctx,
};
pub use mxm::{
    mxm, mxm_apply_prune, mxm_apply_prune_ctx, mxm_ctx, mxm_masked, mxm_masked_ctx, mxm_seq,
    mxm_seq_ctx, try_mxm_apply_prune_ctx, try_mxm_masked, try_mxm_masked_ctx,
};
pub use mxv::{
    choose_direction, mxv, mxv_ctx, mxv_opt_ctx, try_mxv, try_mxv_ctx, try_vxm, try_vxm_ctx, vxm,
    vxm_ctx, vxm_dense_pull_ctx, vxm_masked_ctx, vxm_masked_opt_ctx, vxm_opt_ctx, vxm_pull_ctx,
    vxm_push_ctx,
};
pub use reduce::{
    col_degrees_ctx, reduce_cols, reduce_cols_ctx, reduce_rows, reduce_rows_ctx, reduce_scalar,
    reduce_scalar_ctx, row_degrees_ctx,
};
pub use structure::{
    assign, assign_ctx, concat_cols, concat_cols_ctx, concat_rows, concat_rows_ctx, diag, diag_of,
    matrix_power, matrix_power_ctx, tril, triu,
};
pub use topk::{top_k, top_k_cols, top_k_cols_ctx, top_k_ctx, top_k_rows, top_k_rows_ctx};
pub use transform::{
    apply, apply_ctx, apply_prune, apply_prune_ctx, extract, extract_ctx, kron, kron_ctx, select,
    select_ctx, transpose, transpose_ctx,
};
