//! Integration tests for the execution-context layer: per-kernel
//! metrics, workspace-arena reuse, thread-cap determinism, and the
//! fallible `try_*_ctx` API.

use hypersparse::gen::random_dcsr;
use hypersparse::ops;
use hypersparse::{Axis, Kernel, Matrix, OpCtx, OpError};
use semiring::PlusTimes;

fn workload(seed: u64) -> (hypersparse::Dcsr<f64>, hypersparse::Dcsr<f64>) {
    let s = PlusTimes::<f64>::new();
    let n = 1u64 << 20;
    (
        random_dcsr(n, n, 20_000, seed, s),
        random_dcsr(n, n, 20_000, seed + 1, s),
    )
}

#[test]
fn mxm_through_ctx_increments_counters() {
    let s = PlusTimes::<f64>::new();
    let (a, b) = workload(11);
    let ctx = OpCtx::new();

    let c = ops::mxm_ctx(&ctx, &a, &b, s);
    let snap = ctx.metrics().snapshot();
    let mxm = snap.kernel(Kernel::Mxm);
    assert_eq!(mxm.calls, 1);
    assert_eq!(mxm.nnz_in, (a.nnz() + b.nnz()) as u64);
    assert_eq!(mxm.nnz_out, c.nnz() as u64);
    assert!(mxm.flops > 0, "a 20k-nnz product must multiply something");
    assert!(snap.total_calls() >= 1);

    // The rendered report names the kernel and skips idle ones.
    let report = snap.report();
    assert!(report.contains("mxm"), "{report}");
    assert!(!report.contains("kron"), "{report}");
}

#[test]
fn arena_does_not_grow_across_repeated_same_shape_calls() {
    let s = PlusTimes::<f64>::new();
    let (a, b) = workload(23);

    // One thread: every call after the first leases the same scratch
    // back out of the pool, so exactly one buffer is ever allocated.
    let seq = OpCtx::new().with_threads(1);
    for _ in 0..100 {
        let _ = ops::mxm_ctx(&seq, &a, &b, s);
    }
    let snap = seq.metrics().snapshot();
    assert_eq!(snap.kernel(Kernel::Mxm).calls, 100);
    assert_eq!(snap.workspace_misses, 1, "only the first call allocates");
    assert_eq!(snap.workspace_hits, 99);
    assert_eq!(seq.pooled_buffers(), 1);

    // Auto parallelism: each worker holds one lease at a time, so the
    // pool's high-water mark is the thread cap on any host. A miss
    // happens only when more workers overlap than ever did before —
    // which call that is depends on scheduling, the total does not —
    // and every buffer a miss allocated is back in the pool.
    let ctx = OpCtx::new();
    for _ in 0..100 {
        let _ = ops::mxm_ctx(&ctx, &a, &b, s);
    }
    let snap = ctx.metrics().snapshot();
    assert_eq!(snap.kernel(Kernel::Mxm).calls, 100);
    assert!(
        (1..=ctx.threads() as u64).contains(&snap.workspace_misses),
        "{} misses at thread cap {}",
        snap.workspace_misses,
        ctx.threads()
    );
    assert!(snap.workspace_hits >= 99);
    assert_eq!(ctx.pooled_buffers() as u64, snap.workspace_misses);
}

#[test]
fn thread_cap_one_and_many_agree_bit_for_bit() {
    let s = PlusTimes::<f64>::new();
    let (a, b) = workload(37);

    let seq_ctx = OpCtx::new().with_threads(1);
    let reference = ops::mxm_ctx(&seq_ctx, &a, &b, s);
    for threads in [2, 4, 8] {
        let par_ctx = OpCtx::new().with_threads(threads);
        assert_eq!(
            ops::mxm_ctx(&par_ctx, &a, &b, s),
            reference,
            "thread cap {threads} changed the result"
        );
    }
}

#[test]
fn matrix_level_ctx_calls_share_one_registry() {
    let s = PlusTimes::<f64>::new();
    let ctx = OpCtx::new();
    let a = Matrix::from_triplets(64, 64, vec![(0, 1, 1.0), (1, 2, 2.0)], s);
    let b = Matrix::from_triplets(64, 64, vec![(1, 0, 3.0), (2, 1, 4.0)], s);

    let _ = a.try_mxm_ctx(&ctx, &b, s).unwrap();
    let _ = a.try_ewise_add_ctx(&ctx, &b, s).unwrap();
    let _ = a.transpose_ctx(&ctx, s);

    let snap = ctx.metrics().snapshot();
    assert_eq!(snap.kernel(Kernel::Mxm).calls, 1);
    assert_eq!(snap.kernel(Kernel::EwiseAdd).calls, 1);
    assert_eq!(snap.kernel(Kernel::Transpose).calls, 1);

    ctx.reset_metrics();
    assert_eq!(ctx.metrics().snapshot().total_calls(), 0);
}

#[test]
fn try_mxm_reports_dimension_mismatch() {
    let s = PlusTimes::<f64>::new();
    let ctx = OpCtx::new();
    let a = Matrix::from_triplets(3, 4, vec![(0, 0, 1.0)], s);
    let b = Matrix::from_triplets(5, 3, vec![(0, 0, 1.0)], s);
    match a.try_mxm_ctx(&ctx, &b, s) {
        Err(OpError::DimensionMismatch { op, a, b, rule }) => {
            assert_eq!(op, "mxm");
            assert_eq!(a, (3, 4));
            assert_eq!(b, (5, 3));
            assert_eq!(rule, "inner dimensions differ");
        }
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
    // And the conforming product still works through the same API.
    let ok = Matrix::from_triplets(4, 2, vec![(0, 0, 2.0)], s);
    assert!(a.try_mxm_ctx(&ctx, &ok, s).is_ok());
}

#[test]
#[should_panic(expected = "inner dimensions differ")]
fn panicking_mxm_keeps_its_message() {
    let s = PlusTimes::<f64>::new();
    let a = Matrix::from_triplets(3, 4, vec![(0, 0, 1.0)], s);
    let b = Matrix::from_triplets(5, 3, vec![(0, 0, 1.0)], s);
    let _ = a.mxm(&b, s);
}

#[test]
fn try_ewise_ops_report_key_space_mismatch() {
    let s = PlusTimes::<f64>::new();
    let ctx = OpCtx::new();
    let a = Matrix::from_triplets(4, 4, vec![(0, 0, 1.0)], s);
    let b = Matrix::from_triplets(4, 5, vec![(0, 0, 1.0)], s);
    for (name, res) in [
        ("ewise_add", a.try_ewise_add_ctx(&ctx, &b, s)),
        ("ewise_mul", a.try_ewise_mul_ctx(&ctx, &b, s)),
    ] {
        match res {
            Err(OpError::DimensionMismatch { op, rule, .. }) => {
                assert_eq!(op, name);
                assert_eq!(rule, "element-wise operands must share a key space");
            }
            other => panic!("{name}: expected DimensionMismatch, got {other:?}"),
        }
    }
}

#[test]
fn try_concat_reports_mismatch_and_overflow() {
    let s = PlusTimes::<f64>::new();
    let ctx = OpCtx::new();
    let a = Matrix::from_triplets(4, 4, vec![(0, 0, 1.0)], s);
    let wide = Matrix::from_triplets(4, 5, vec![(0, 0, 1.0)], s);
    assert!(matches!(
        a.try_concat_rows_ctx(&ctx, &wide, s),
        Err(OpError::DimensionMismatch {
            op: "concat_rows",
            ..
        })
    ));
    let tall = Matrix::from_triplets(5, 4, vec![(0, 0, 1.0)], s);
    assert!(matches!(
        a.try_concat_cols_ctx(&ctx, &tall, s),
        Err(OpError::DimensionMismatch {
            op: "concat_cols",
            ..
        })
    ));

    // Row/col arithmetic past u64::MAX is an error, not a panic.
    let huge = Matrix::<f64>::empty(u64::MAX, 4);
    match huge.try_concat_rows_ctx(&ctx, &a, s) {
        Err(OpError::TooLargeToMaterialize { op, axis, extents }) => {
            assert_eq!(op, "concat_rows");
            assert_eq!(axis, Axis::Rows);
            assert_eq!(extents, (u64::MAX, 4));
        }
        other => panic!("expected TooLargeToMaterialize, got {other:?}"),
    }
    let vast = Matrix::<f64>::empty(4, u64::MAX);
    assert!(matches!(
        vast.try_concat_cols_ctx(&ctx, &a, s),
        Err(OpError::TooLargeToMaterialize {
            axis: Axis::Cols,
            ..
        })
    ));
}

#[test]
fn try_extract_validates_selectors_extract_does_not() {
    let s = PlusTimes::<f64>::new();
    let ctx = OpCtx::new();
    let a = Matrix::from_triplets(10, 10, vec![(1, 1, 1.0)], s);

    match a.try_extract_ctx(&ctx, &[1, 99], &[1], s) {
        Err(OpError::IndexOutOfBounds { axis, index, bound }) => {
            assert_eq!(axis, Axis::Rows);
            assert_eq!(index, 99);
            assert_eq!(bound, 10);
        }
        other => panic!("expected IndexOutOfBounds, got {other:?}"),
    }
    assert!(matches!(
        a.try_extract_ctx(&ctx, &[1], &[10], s),
        Err(OpError::IndexOutOfBounds {
            axis: Axis::Cols,
            index: 10,
            bound: 10,
        })
    ));

    let ok = a.try_extract_ctx(&ctx, &[1], &[1], s).unwrap();
    assert_eq!(ok.nnz(), 1);

    // The classic extract keeps its permissive contract: out-of-range
    // selectors address empty key-space slices.
    let permissive = a.extract(&[1, 99], &[1], s);
    assert_eq!(permissive.nnz(), 1);
}
