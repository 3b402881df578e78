//! **Fig. 4** — dense, sparse, and hypersparse regimes.
//!
//! Two sweeps over an `N × N` array:
//!
//! * fixed `nnz = 2¹⁶`, growing `N` — dense/bitmap storage explodes as
//!   `N²`, CSR as `N`, DCSR stays `O(nnz)`: the figure's three regimes;
//! * fixed `N = 2¹²`, growing `nnz` — the automatic format policy should
//!   walk DCSR → CSR → bitmap → dense as occupancy rises.
//!
//! SpMV is timed per materializable format, each in its own storage (no
//! conversion to DCSR inside the timed call); the policy's chosen format
//! is asserted to match the figure's regime at each point.

use bench::{fmt_bytes, fmt_dur, quick_time};
use criterion::Criterion;
use hypersparse::gen::random_dcsr;
use hypersparse::{Format, Ix, Matrix, OpCtx, SparseVec};
use semiring::PlusTimes;

fn s() -> PlusTimes<f64> {
    PlusTimes::new()
}

fn vec_for(n: Ix) -> SparseVec<f64> {
    SparseVec::from_entries(n, (0..64.min(n)).map(|i| (i, 1.0)).collect(), s())
}

fn shape_report() {
    println!("=== Fig. 4: storage by regime (fixed nnz = 65536, growing N) ===");
    println!("| N        | dense bytes | bitmap     | CSR        | DCSR       | auto format |");
    for log_n in [8u32, 10, 12, 16, 20, 24, 40] {
        let n: Ix = 1 << log_n;
        let nnz = 1usize << 16;
        let d = random_dcsr(n, n, nnz, 3, s());
        let auto = Matrix::from_dcsr(d.clone(), s());

        let cell = |fmt: Format| -> String {
            // Dense/bitmap/CSR only materialize within policy caps.
            let feasible = match fmt {
                Format::Dense | Format::Bitmap => (n as u128) * (n as u128) <= 1 << 24,
                Format::Csr => n <= 1 << 26,
                Format::Dcsr => true,
            };
            if !feasible {
                return "—".to_string();
            }
            let m = auto.clone().with_format(fmt, s());
            fmt_bytes(m.bytes())
        };
        println!(
            "| 2^{:<6} | {:>11} | {:>10} | {:>10} | {:>10} | {:?} |",
            log_n,
            cell(Format::Dense),
            cell(Format::Bitmap),
            cell(Format::Csr),
            cell(Format::Dcsr),
            auto.format(),
        );
    }

    println!("\n=== Fig. 4: SpMV by format (N = 4096, nnz sweep) ===");
    println!(
        "| nnz      | occupancy | dense      | bitmap     | CSR        | DCSR       | auto    |"
    );
    let n: Ix = 4096;
    for &nnz in &[1_000usize, 40_000, 1_000_000, 8_000_000] {
        let d = random_dcsr(n, n, nnz, 4, s());
        let auto = Matrix::from_dcsr(d, s());
        let v = vec_for(n);
        let ctx = OpCtx::new();
        let mut cells = Vec::new();
        for fmt in [Format::Dense, Format::Bitmap, Format::Csr, Format::Dcsr] {
            let m = auto.clone().with_format(fmt, s());
            let (t, _) = quick_time(3, || m.mxv_ctx(&ctx, &v, s()));
            cells.push(fmt_dur(t));
        }
        println!(
            "| {:>8} | {:>8.4} | {:>10} | {:>10} | {:>10} | {:>10} | {:?} |",
            auto.nnz(),
            auto.nnz() as f64 / (n as f64 * n as f64),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            auto.format(),
        );
    }

    // Regime assertions: the policy tracks the figure.
    let hyper = Matrix::from_dcsr(random_dcsr(1 << 40, 1 << 40, 1000, 5, s()), s());
    assert_eq!(hyper.format(), Format::Dcsr, "nnz ≪ N must be hypersparse");
    let sparse = Matrix::from_dcsr(random_dcsr(1 << 16, 1 << 16, 1 << 16, 6, s()), s());
    assert_eq!(sparse.format(), Format::Csr, "nnz ≈ N must be CSR");
    let dense = Matrix::from_dcsr(random_dcsr(64, 64, 4096, 7, s()), s());
    assert!(
        matches!(dense.format(), Format::Dense | Format::Bitmap),
        "nnz ≈ N² must be full-ish, got {:?}",
        dense.format()
    );
    println!("✓ automatic format policy reproduces the Fig. 4 regimes");
}

fn criterion_benches(c: &mut Criterion) {
    let n: Ix = 4096;
    let v = vec_for(n);
    let ctx = OpCtx::new();
    for &(label, nnz) in &[
        ("hypersparse_1k", 1_000usize),
        ("sparse_40k", 40_000),
        ("dense_4m", 4_000_000),
    ] {
        let auto = Matrix::from_dcsr(random_dcsr(n, n, nnz, 8, s()), s());
        let mut group = c.benchmark_group(format!("fig4/spmv_{label}"));
        group.sample_size(20);
        for fmt in [Format::Dense, Format::Bitmap, Format::Csr, Format::Dcsr] {
            let m = auto.clone().with_format(fmt, s());
            group.bench_function(format!("{fmt:?}"), |b| b.iter(|| m.mxv_ctx(&ctx, &v, s())));
        }
        group.finish();
    }
}

fn main() {
    shape_report();
    let mut c = Criterion::default().configure_from_args();
    criterion_benches(&mut c);
    c.final_summary();
}
