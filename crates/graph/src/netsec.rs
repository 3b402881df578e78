//! Network-security signature detectors over traffic matrices.
//!
//! The paper's deployment story analyses packet streams as hypersparse
//! traffic matrices `A(src, dst) = packets`, and the classic attack
//! signatures are *shapes* in that matrix (arXiv:2309.02464):
//!
//! * a **horizontal scan** is a row with anomalously many distinct
//!   columns — one source probing many destinations;
//! * a **fan-in DDoS** is a column with anomalously many distinct rows —
//!   many sources converging on one victim.
//!
//! Both reduce to degree distributions of the sparsity *pattern*, read
//! from the matrix structure ([`row_degrees_ctx`]/[`col_degrees_ctx`] —
//! what `+` over an all-ones pattern would sum to, without building
//! it), followed by a threshold mask. The follow-up question — "show me
//! everything a flagged source did" — is a masked row extraction
//! ([`select_ctx`]) against the same epoch snapshot. Everything here
//! runs through `_ctx` kernels, so detector cost shows up in the kernel
//! metrics and trace spans like any other workload, and everything is
//! deterministic: results are sorted by degree descending with
//! ascending-key tie-breaks, independent of thread and shard counts.

use hypersparse::ops::{col_degrees_ctx, row_degrees_ctx, select_ctx};
use hypersparse::{with_default_ctx, Dcsr, Ix, OpCtx, SparseVec};
use semiring::traits::Value;

/// Fan-out degree distribution: distinct destinations contacted per
/// source (the row degrees of the sparsity pattern). Multiplicities
/// don't count — a source hammering one destination has fan-out 1.
pub fn fan_out<T: Value>(a: &Dcsr<T>) -> SparseVec<u64> {
    with_default_ctx(|ctx| fan_out_ctx(ctx, a))
}

/// [`fan_out`] through an explicit execution context.
pub fn fan_out_ctx<T: Value>(ctx: &OpCtx, a: &Dcsr<T>) -> SparseVec<u64> {
    row_degrees_ctx(ctx, a)
}

/// Fan-in degree distribution: distinct sources per destination (the
/// column degrees of the sparsity pattern).
pub fn fan_in<T: Value>(a: &Dcsr<T>) -> SparseVec<u64> {
    with_default_ctx(|ctx| fan_in_ctx(ctx, a))
}

/// [`fan_in`] through an explicit execution context.
pub fn fan_in_ctx<T: Value>(ctx: &OpCtx, a: &Dcsr<T>) -> SparseVec<u64> {
    col_degrees_ctx(ctx, a)
}

/// Threshold a degree vector into flagged `(key, degree)` pairs, sorted
/// by degree descending, ties by key ascending — the canonical detector
/// output order (deterministic at any parallelism). Public so
/// incrementally maintained degree state ([`crate::incremental`]) flags
/// through exactly the same path as the from-scratch detectors.
pub fn flag_degrees(degrees: &SparseVec<u64>, threshold: u64) -> Vec<(Ix, u64)> {
    let mut hits: Vec<(Ix, u64)> = degrees
        .iter()
        .filter(|(_, &d)| d >= threshold)
        .map(|(i, &d)| (i, d))
        .collect();
    hits.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    hits
}

/// Horizontal-scan detector: sources contacting at least `threshold`
/// distinct destinations in the window, as `(src, fan_out)` sorted by
/// fan-out descending.
pub fn scan_suspects<T: Value>(a: &Dcsr<T>, threshold: u64) -> Vec<(Ix, u64)> {
    with_default_ctx(|ctx| scan_suspects_ctx(ctx, a, threshold))
}

/// [`scan_suspects`] through an explicit execution context.
pub fn scan_suspects_ctx<T: Value>(ctx: &OpCtx, a: &Dcsr<T>, threshold: u64) -> Vec<(Ix, u64)> {
    flag_degrees(&fan_out_ctx(ctx, a), threshold)
}

/// Fan-in-DDoS detector: destinations contacted by at least `threshold`
/// distinct sources in the window, as `(dst, fan_in)` sorted by fan-in
/// descending.
pub fn ddos_victims<T: Value>(a: &Dcsr<T>, threshold: u64) -> Vec<(Ix, u64)> {
    with_default_ctx(|ctx| ddos_victims_ctx(ctx, a, threshold))
}

/// [`ddos_victims`] through an explicit execution context.
pub fn ddos_victims_ctx<T: Value>(ctx: &OpCtx, a: &Dcsr<T>, threshold: u64) -> Vec<(Ix, u64)> {
    flag_degrees(&fan_in_ctx(ctx, a), threshold)
}

/// Masked row query: the full traffic of the flagged source rows
/// (drill-down after [`scan_suspects`]). `rows` need not be sorted.
pub fn suspect_traffic<T: Value>(a: &Dcsr<T>, rows: &[Ix]) -> Dcsr<T> {
    with_default_ctx(|ctx| suspect_traffic_ctx(ctx, a, rows))
}

/// [`suspect_traffic`] through an explicit execution context.
pub fn suspect_traffic_ctx<T: Value>(ctx: &OpCtx, a: &Dcsr<T>, rows: &[Ix]) -> Dcsr<T> {
    let mut keep = rows.to_vec();
    keep.sort_unstable();
    select_ctx(ctx, a, move |r, _, _| keep.binary_search(&r).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersparse::Coo;
    use semiring::PlusTimes;

    /// 3 benign flows, a scanner (src 7 → 20 distinct dsts), and a DDoS
    /// victim (dst 99 ← 15 distinct srcs).
    fn traffic() -> Dcsr<u64> {
        let mut c = Coo::new(1 << 10, 1 << 10);
        c.extend([(1, 2, 5u64), (3, 4, 2), (1, 4, 1)]);
        for d in 0..20u64 {
            c.push(7, 100 + d, 1);
        }
        for s in 0..15u64 {
            c.push(200 + s, 99, 1);
        }
        // Repeat packets must not inflate pattern degrees.
        c.push(1, 2, 10);
        c.push(7, 100, 3);
        c.build_dcsr(PlusTimes::<u64>::new())
    }

    #[test]
    fn degree_distributions_count_distinct_endpoints() {
        let a = traffic();
        let out = fan_out(&a);
        assert_eq!(out.get(&7).copied(), Some(20));
        assert_eq!(out.get(&1).copied(), Some(2)); // dsts 2 and 4, repeats ignored
        let inn = fan_in(&a);
        assert_eq!(inn.get(&99).copied(), Some(15));
        assert_eq!(inn.get(&4).copied(), Some(2)); // srcs 1 and 3
    }

    #[test]
    fn detectors_flag_injected_episodes_only() {
        let a = traffic();
        assert_eq!(scan_suspects(&a, 10), vec![(7, 20)]);
        assert_eq!(ddos_victims(&a, 10), vec![(99, 15)]);
        // Threshold 1 flags everyone; order is degree desc, key asc.
        let all = scan_suspects(&a, 1);
        assert_eq!(all[0], (7, 20));
        assert!(all
            .windows(2)
            .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
        // Degenerate thresholds.
        assert!(scan_suspects(&a, 1000).is_empty());
    }

    #[test]
    fn masked_drilldowns_extract_flagged_traffic() {
        let a = traffic();
        let scans = suspect_traffic(&a, &[7]);
        assert_eq!(scans.nnz(), 20);
        assert!(scans.iter().all(|(r, _, _)| r == 7));
        assert_eq!(scans.get(7, 100).copied(), Some(4)); // 1 + 3 merged at build
                                                         // Unsorted mask input is fine.
        let both = suspect_traffic(&a, &[3, 1]);
        assert_eq!(both.nnz(), 3);
    }

    #[test]
    fn detector_cost_lands_in_kernel_metrics() {
        let ctx = OpCtx::new();
        let a = traffic();
        let _ = scan_suspects_ctx(&ctx, &a, 10);
        let _ = ddos_victims_ctx(&ctx, &a, 10);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.kernel(hypersparse::Kernel::ReduceRows).calls, 1);
        assert_eq!(snap.kernel(hypersparse::Kernel::ReduceCols).calls, 1);
    }
}
