//! **Table I** — selected semirings.
//!
//! Regenerates the table's rows (set, ⊕, ⊗, 0, 1) from the running
//! implementation, then demonstrates the paper's claim that *the same
//! array operations run over every semiring*: one RMAT graph, one SpMV
//! and one SpGEMM per Table I row, timed by Criterion. Topology-only
//! rows (the paper's §V.A point) are asserted to produce identical
//! sparsity patterns.

use bench::{fmt_dur, quick_time};
use criterion::Criterion;
use hypersparse::gen::{rmat_dcsr, RmatParams};
use hypersparse::{Dcsr, OpCtx, SparseVec};
use semiring::{
    MaxMin, MaxPlus, MaxTimes, MinMax, MinPlus, MinTimes, PSet, PlusTimes, Semiring, UnionIntersect,
};

const SCALE: u32 = 13;
const EDGE_FACTOR: usize = 8;

fn graph() -> Dcsr<f64> {
    rmat_dcsr(
        RmatParams {
            scale: SCALE,
            edge_factor: EDGE_FACTOR,
            ..Default::default()
        },
        1,
        PlusTimes::<f64>::new(),
    )
}

fn frontier<S: Semiring<Value = f64>>(n: u64, s: S) -> SparseVec<f64> {
    // Seed the frontier with the semiring 1 ("already here" for paths),
    // built under the same semiring so tropical 0.0 entries survive.
    SparseVec::from_entries(n, (0..64).map(|i| (i * 37 % n, s.one())).collect(), s)
}

fn print_table_row<S: Semiring>(set: &str, add: &str, mul: &str, s: &S)
where
    S::Value: std::fmt::Debug,
{
    println!(
        "| {set:<14} | {add:<4} | {mul:<4} | {:<8} | {:<8} |",
        format!("{:?}", s.zero()),
        format!("{:?}", s.one()),
    );
}

fn shape_report() {
    println!("=== Table I: selected semirings (regenerated) ===");
    println!("| set            | ⊕    | ⊗    | 0        | 1        |");
    print_table_row("ℝ", "+", "×", &PlusTimes::<f64>::new());
    print_table_row("ℝ ∪ −∞", "max", "+", &MaxPlus::<f64>::new());
    print_table_row("ℝ ∪ +∞", "min", "+", &MinPlus::<f64>::new());
    print_table_row("ℝ≥0", "max", "×", &MaxTimes::<f64>::new());
    print_table_row("ℝ>0 ∪ +∞", "min", "×", &MinTimes::<f64>::new());
    print_table_row("𝒫(𝕍)", "∪", "∩", &UnionIntersect);
    print_table_row("𝕍 ∪ −∞", "max", "min", &MaxMin::<f64>::new());
    print_table_row("𝕍 ∪ +∞", "min", "max", &MinMax::<f64>::new());

    let g = graph();
    let n = g.nrows();
    println!(
        "\nworkload: RMAT scale {SCALE} (N = {n}, nnz = {}), SpMV frontier 64, SpGEMM A·A",
        g.nnz()
    );
    println!("| semiring  | SpMV       | SpGEMM     | result nnz |");

    macro_rules! row {
        ($name:expr, $s:expr) => {{
            let s = $s;
            let f = frontier(n, s);
            let (t_spmv, _) = quick_time(5, || f.vxm(&g, s));
            let ctx = OpCtx::new();
            let (t_mxm, c) = quick_time(3, || hypersparse::ops::mxm_ctx(&ctx, &g, &g, s));
            println!(
                "| {:<9} | {:>10} | {:>10} | {:>10} |",
                $name,
                fmt_dur(t_spmv),
                fmt_dur(t_mxm),
                c.nnz()
            );
            c
        }};
    }

    let c1 = row!("+.×", PlusTimes::<f64>::new());
    let c2 = row!("max.+", MaxPlus::<f64>::new());
    let c3 = row!("min.+", MinPlus::<f64>::new());
    let c4 = row!("max.×", MaxTimes::<f64>::new());
    let c5 = row!("min.×", MinTimes::<f64>::new());
    let c6 = row!("max.min", MaxMin::<f64>::new());
    let c7 = row!("min.max", MinMax::<f64>::new());

    // §V.A: topology is semiring-independent (positive weights ⇒ no
    // cancellation anywhere) — all patterns identical.
    let pat: Vec<Vec<(u64, u64)>> = [&c1, &c2, &c3, &c4, &c5, &c6, &c7]
        .iter()
        .map(|c| c.iter().map(|(r, c2, _)| (r, c2)).collect())
        .collect();
    for (i, p) in pat.iter().enumerate().skip(1) {
        assert_eq!(&pat[0], p, "semiring {i} changed the topology!");
    }
    println!("✓ identical sparsity pattern across all seven numeric semirings (§V.A)");

    // The ∪.∩ row runs on set values: every edge carries the same small
    // attribute set, so intersections stay non-empty and the product's
    // *pattern* is comparable with the numeric rows.
    let mut coo = hypersparse::Coo::new(n, n);
    for (r, c, _) in g.iter() {
        coo.push(r, c, PSet::from_iter([0, 1, 2, 3]));
    }
    let gs = coo.build_dcsr(UnionIntersect);
    let (t, c8) = quick_time(1, || {
        hypersparse::ops::mxm_ctx(&OpCtx::new(), &gs, &gs, UnionIntersect)
    });
    println!(
        "| {:<9} | {:>10} | {:>10} | {:>10} |  (set-valued)",
        "∪.∩",
        "—",
        fmt_dur(t),
        c8.nnz()
    );
    let pat8: Vec<(u64, u64)> = c8.iter().map(|(r, c, _)| (r, c)).collect();
    assert_eq!(pat[0], pat8, "∪.∩ changed the topology!");
    println!("✓ ∪.∩ SpGEMM matches the numeric pattern too");
}

fn criterion_benches(c: &mut Criterion) {
    let g = graph();
    let n = g.nrows();
    let mut group = c.benchmark_group("table1/spmv");
    group.sample_size(20);
    macro_rules! spmv {
        ($name:expr, $s:expr) => {{
            let s = $s;
            let f = frontier(n, s);
            group.bench_function($name, |b| b.iter(|| f.vxm(&g, s)));
        }};
    }
    spmv!("plus_times", PlusTimes::<f64>::new());
    spmv!("max_plus", MaxPlus::<f64>::new());
    spmv!("min_plus", MinPlus::<f64>::new());
    spmv!("max_times", MaxTimes::<f64>::new());
    spmv!("min_times", MinTimes::<f64>::new());
    spmv!("max_min", MaxMin::<f64>::new());
    spmv!("min_max", MinMax::<f64>::new());
    group.finish();

    let mut group = c.benchmark_group("table1/spgemm");
    group.sample_size(10);
    macro_rules! mxm {
        ($name:expr, $s:expr) => {{
            let s = $s;
            let ctx = OpCtx::new();
            group.bench_function($name, |b| {
                b.iter(|| hypersparse::ops::mxm_ctx(&ctx, &g, &g, s))
            });
        }};
    }
    mxm!("plus_times", PlusTimes::<f64>::new());
    mxm!("min_plus", MinPlus::<f64>::new());
    mxm!("max_min", MaxMin::<f64>::new());
    group.finish();
}

fn main() {
    shape_report();
    let mut c = Criterion::default().configure_from_args();
    criterion_benches(&mut c);
    c.final_summary();
}
