//! **Fig. 4** — dense, sparse, and hypersparse regimes.
//!
//! Two sweeps over an `N × N` array:
//!
//! * fixed `nnz = 2¹⁶`, growing `N` — dense storage explodes as `N²`,
//!   CSR as `N`, DCSR stays `O(nnz)`: the figure's three regimes;
//! * fixed `N = 2¹²`, growing `nnz` — the automatic format policy should
//!   walk DCSR → CSR → dense as occupancy rises.
//!
//! SpMV is timed per materializable format, each in its own storage (no
//! conversion to DCSR inside the timed call) and on a one-thread context,
//! since Dense and CSR run on the calling thread; the policy's chosen format
//! is asserted to match the figure's regime at each point. In every row
//! of both tables, `auto` holds no more bytes than any format that can
//! be materialized there: the policy picks by bytes, which no host
//! changes. Every timed cell is the median of 41 calls, so a slow spell
//! on a shared host does not decide a cell.
//!
//! Then the format ablation (DESIGN.md §3): forcing CSR vs DCSR vs
//! trusting the automatic policy on an `N = 2¹⁶` SpMV from each regime,
//! all on one thread — auto should track the better hand-picked format.
//!
//! ```sh
//! cargo run --release --example fig4_sparsity_formats
//! ```

use bench::{fmt_bytes, fmt_dur, quick_time};
use hypersparse::gen::random_dcsr;
use hypersparse::{Decision, Format, Ix, Kernel, Matrix, OpCtx, SparseVec};
use semiring::PlusTimes;

fn s() -> PlusTimes<f64> {
    PlusTimes::new()
}

/// `auto` stored in `fmt`, or `None` where `fmt` is not materialized at
/// `auto`'s `(nrows, ncols, nnz, nonempty_rows)`. Asserts that `auto`
/// holds no more bytes.
fn forced(auto: &Matrix<f64>, stats: (Ix, Ix, usize, usize), fmt: Format) -> Option<Matrix<f64>> {
    fmt.bytes_for::<f64>(stats.0, stats.1, stats.2, stats.3)?;
    let m = auto.clone().with_format(fmt, s());
    assert!(
        auto.bytes() <= m.bytes(),
        "auto ({:?}) holds {} where {fmt:?} holds {}",
        auto.format(),
        fmt_bytes(auto.bytes()),
        fmt_bytes(m.bytes())
    );
    Some(m)
}

fn main() {
    println!("=== Fig. 4: storage by regime (fixed nnz = 65536, growing N) ===");
    println!("| N        | dense bytes | CSR        | DCSR       | auto format |");
    for log_n in [8u32, 10, 12, 16, 20, 24, 40] {
        let n: Ix = 1 << log_n;
        let nnz = 1usize << 16;
        let d = random_dcsr(n, n, nnz, 3, s());
        let stats = (n, n, d.nnz(), d.n_nonempty_rows());
        let auto = Matrix::from_dcsr(d, s());
        // Dense and CSR only materialize within the policy's caps.
        let cell = |fmt: Format| {
            forced(&auto, stats, fmt).map_or("—".to_string(), |m| fmt_bytes(m.bytes()))
        };
        println!(
            "| 2^{:<6} | {:>11} | {:>10} | {:>10} | {:?} |",
            log_n,
            cell(Format::Dense),
            cell(Format::Csr),
            cell(Format::Dcsr),
            auto.format(),
        );
    }

    println!("\n=== Fig. 4: SpMV by format (N = 4096, nnz sweep) ===");
    println!("| nnz      | occupancy | dense      | CSR        | DCSR       | auto    |");
    let n: Ix = 4096;
    for &nnz in &[1_000usize, 40_000, 1_000_000, 8_000_000] {
        let d = random_dcsr(n, n, nnz, 4, s());
        let stats = (n, n, d.nnz(), d.n_nonempty_rows());
        let auto = Matrix::from_dcsr(d, s());
        let v = SparseVec::from_entries(n, (0..64).map(|i| (i, 1.0)).collect(), s());
        let ctx = OpCtx::new().with_threads(1);
        let mut cells = Vec::new();
        for fmt in [Format::Dense, Format::Csr, Format::Dcsr] {
            let m = forced(&auto, stats, fmt).expect("N = 4096 materializes every format");
            let (t, _) = quick_time(41, || m.mxv_ctx(&ctx, &v, s()));
            cells.push(fmt_dur(t));
        }
        println!(
            "| {:>8} | {:>8.4} | {:>10} | {:>10} | {:>10} | {:?} |",
            auto.nnz(),
            auto.nnz() as f64 / (n as f64 * n as f64),
            cells[0],
            cells[1],
            cells[2],
            auto.format(),
        );
    }
    println!("✓ in every row of both tables, auto holds no more bytes than any format");

    // The DCSR SpMV pulls every row clipped to `v`'s 64 columns, so the
    // 40 000-entry matrix is ~600 entries of work: one thread at any cap.
    let dcsr =
        Matrix::from_dcsr(random_dcsr(n, n, 40_000, 4, s()), s()).with_format(Format::Dcsr, s());
    let v = SparseVec::from_entries(n, (0..64).map(|i| (i, 1.0)).collect(), s());
    let probe = OpCtx::new().with_threads(2);
    let _ = dcsr.mxv_ctx(&probe, &v, s());
    let snap = probe.metrics().snapshot();
    let fan = [Decision::FanOutOne, Decision::FanOutMany].map(|d| snap.decision(d));
    assert_eq!(
        fan,
        [1, 0],
        "a clipped pull fans out for work it never does"
    );
    println!("✓ the 40 000-entry DCSR SpMV clipped to v's extent runs on one thread");

    // Regime assertions: the policy tracks the figure.
    let hyper = Matrix::from_dcsr(random_dcsr(1 << 40, 1 << 40, 1000, 5, s()), s());
    assert_eq!(hyper.format(), Format::Dcsr, "nnz ≪ N must be hypersparse");
    let sparse = Matrix::from_dcsr(random_dcsr(1 << 16, 1 << 16, 1 << 16, 6, s()), s());
    assert_eq!(sparse.format(), Format::Csr, "nnz ≈ N must be CSR");
    let dense = Matrix::from_dcsr(random_dcsr(64, 64, 4096, 7, s()), s());
    assert_eq!(dense.format(), Format::Dense, "nnz ≈ N² must be full");
    println!("✓ automatic format policy reproduces the Fig. 4 regimes");

    println!("\n=== Ablation 1: storage format choice per regime (SpMV) ===");
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
        let ctx = OpCtx::new().with_threads(1);
        let (t_csr, _) = quick_time(41, || csr.mxv_ctx(&ctx, &v, s()));
        let (t_dcsr, _) = quick_time(41, || dcsr.mxv_ctx(&ctx, &v, s()));
        let (t_auto, _) = quick_time(41, || auto.mxv_ctx(&ctx, &v, s()));
        // Every format meters its run: 42 calls a cell (one warm-up).
        let calls = ctx.metrics().snapshot().kernel(Kernel::Mxv).calls;
        assert_eq!(calls, 3 * 42, "{label}: every format records its Mxv runs");
        println!(
            "| {:<12} | {:>10} | {:>11} | {:>10} | {:?} |",
            label,
            fmt_dur(t_csr),
            fmt_dur(t_dcsr),
            fmt_dur(t_auto),
            auto.format(),
        );
    }
}
