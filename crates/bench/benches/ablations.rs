//! Ablations of the engine's design choices (DESIGN.md §3):
//!
//! * **formats** — forcing CSR vs DCSR vs trusting the automatic policy
//!   on workloads from each Fig. 4 regime (auto should track the better
//!   hand-picked format);
//! * **parallel** — row-sharded SpGEMM vs the sequential kernel;
//! * **accumulator** — hash-map vs dense-scratch Gustavson accumulators
//!   across column-space sizes (the `mxm` heuristic's crossover).

use bench::{fmt_dur, quick_time};
use criterion::Criterion;
use hypersparse::gen::{random_dcsr, rmat_dcsr, RmatParams};
use hypersparse::ops::mxm::{multiply_rows_dense_acc, multiply_rows_hash_acc};
use hypersparse::{Format, Matrix, OpCtx, SparseVec};
use semiring::PlusTimes;

fn s() -> PlusTimes<f64> {
    PlusTimes::new()
}

fn shape_report() {
    println!("=== Ablation 1: storage format choice per regime (SpMV) ===");
    println!("| regime       | forced CSR | forced DCSR | auto       | auto picked |");
    let n = 1u64 << 16;
    for &(label, nnz) in &[
        ("hypersparse", 2_000usize),
        ("sparse", 65_000),
        ("denser", 500_000),
    ] {
        let auto = Matrix::from_dcsr(random_dcsr(n, n, nnz, 1, s()), s());
        let v = SparseVec::from_entries(n, (0..256).map(|i| (i * 131 % n, 1.0)).collect(), s());
        let csr = auto.clone().with_format(Format::Csr, s());
        let dcsr = auto.clone().with_format(Format::Dcsr, s());
        let ctx = OpCtx::new();
        let (t_csr, _) = quick_time(5, || csr.mxv_ctx(&ctx, &v, s()));
        let (t_dcsr, _) = quick_time(5, || dcsr.mxv_ctx(&ctx, &v, s()));
        let (t_auto, _) = quick_time(5, || auto.mxv_ctx(&ctx, &v, s()));
        println!(
            "| {:<12} | {:>10} | {:>11} | {:>10} | {:?} |",
            label,
            fmt_dur(t_csr),
            fmt_dur(t_dcsr),
            fmt_dur(t_auto),
            auto.format(),
        );
    }

    println!("\n=== Ablation 2: parallel vs sequential SpGEMM (RMAT A·A) ===");
    println!("| scale | nnz      | sequential | parallel   | speedup |");
    for scale in [12u32, 14] {
        let g = rmat_dcsr(
            RmatParams {
                scale,
                edge_factor: 8,
                ..Default::default()
            },
            1,
            s(),
        );
        let (seq, par) = (OpCtx::new().with_threads(1), OpCtx::new());
        let (t_seq, c_seq) = quick_time(3, || hypersparse::ops::mxm_ctx(&seq, &g, &g, s()));
        let (t_par, c_par) = quick_time(3, || hypersparse::ops::mxm_ctx(&par, &g, &g, s()));
        assert_eq!(c_seq, c_par, "parallel result differs at scale {scale}");
        println!(
            "| {:>5} | {:>8} | {:>10} | {:>10} | {:>6.2}x |",
            scale,
            g.nnz(),
            fmt_dur(t_seq),
            fmt_dur(t_par),
            t_seq.as_secs_f64() / t_par.as_secs_f64(),
        );
    }
    println!("✓ parallel ≡ sequential bit-for-bit (deterministic row sharding)");

    println!("\n=== Ablation 3: Gustavson accumulator (hash vs dense scratch) ===");
    println!("| ncols    | hash acc   | dense acc  |");
    for &logc in &[10u32, 14, 18, 22] {
        let ncols = 1u64 << logc;
        let a = random_dcsr(4096, 4096, 40_000, 2, s());
        let b = random_dcsr(4096, ncols, 40_000, 3, s());
        let rows = a.n_nonempty_rows();
        let (t_hash, rh) = quick_time(3, || multiply_rows_hash_acc(&a, &b, s(), 0, rows));
        let (t_dense, rd) = quick_time(3, || multiply_rows_dense_acc(&a, &b, s(), 0, rows));
        assert_eq!(rh, rd);
        println!(
            "| 2^{:<6} | {:>10} | {:>10} |",
            logc,
            fmt_dur(t_hash),
            fmt_dur(t_dense),
        );
    }
    println!("✓ accumulators agree; dense scratch wins in compact column spaces");

    println!("\n=== Ablation 4: streaming inserts (hierarchical vs rebuild-per-batch) ===");
    println!("| events   | hierarchical | rebuild/1k batch | speedup |");
    use hypersparse::StreamingMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let n = 1u64 << 40;
    for &events in &[50_000usize, 200_000] {
        let mut rng = StdRng::seed_from_u64(9);
        let stream_events: Vec<(u64, u64, f64)> = (0..events)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), 1.0))
            .collect();

        let (t_stream, snap) = quick_time(3, || {
            let mut m = StreamingMatrix::new(n, n, s());
            for &(r, c, v) in &stream_events {
                m.insert(r, c, v);
            }
            m.snapshot()
        });

        // Baseline: maintain one flat matrix, ⊕-merging a fresh 1k-event
        // batch into it each time (the naive "update the big matrix"
        // pattern the hierarchical design replaces).
        let ctx = OpCtx::new();
        let (t_rebuild, flat) = quick_time(1, || {
            let mut acc = hypersparse::Dcsr::<f64>::empty(n, n);
            for chunk in stream_events.chunks(1000) {
                let mut coo = hypersparse::Coo::new(n, n);
                coo.extend(chunk.iter().copied());
                acc = hypersparse::ops::ewise_add_ctx(&ctx, &acc, &coo.build_dcsr(s()), s());
            }
            acc
        });
        assert_eq!(snap, flat, "streaming snapshot must equal flat result");
        println!(
            "| {:>8} | {:>12} | {:>16} | {:>6.1}x |",
            events,
            fmt_dur(t_stream),
            fmt_dur(t_rebuild),
            t_rebuild.as_secs_f64() / t_stream.as_secs_f64(),
        );
    }
    println!("✓ hierarchical ⊕-merge hierarchy ≡ flat build (the cited 75B-inserts/s design)");
}

fn criterion_benches(c: &mut Criterion) {
    let g = rmat_dcsr(
        RmatParams {
            scale: 12,
            edge_factor: 8,
            ..Default::default()
        },
        1,
        s(),
    );
    let mut group = c.benchmark_group("ablation/spgemm_scale12");
    group.sample_size(10);
    let (seq, par) = (OpCtx::new().with_threads(1), OpCtx::new());
    group.bench_function("sequential", |b| {
        b.iter(|| hypersparse::ops::mxm_ctx(&seq, &g, &g, s()))
    });
    group.bench_function("parallel", |b| {
        b.iter(|| hypersparse::ops::mxm_ctx(&par, &g, &g, s()))
    });
    group.finish();
}

fn main() {
    shape_report();
    let mut c = Criterion::default().configure_from_args();
    criterion_benches(&mut c);
    c.final_summary();
}
