//! Per-kernel observability counters.
//!
//! SuiteSparse:GraphBLAS owes much of its production debuggability to
//! `GxB_*` introspection: you can ask the library what its kernels did,
//! and its "burble" says which method each operation chose. This module
//! is that layer for the hypersparse engine. Every computational kernel
//! routed through an [`crate::ctx::OpCtx`] records a [`Kernel`]-keyed
//! row of counters — calls, input/output nnz, flops (semiring ⊗
//! applications, or combiner applications for merges), bytes touched
//! (operand + result heap footprint, the bandwidth the narrow-index
//! formats halve), and elapsed wall time. Every choice between
//! equivalent ways to evaluate the same algebra (storage format,
//! push or pull, accumulator, locator, …) is one [`Decision`], a
//! `(site, choice)` line of one table, counted by one
//! [`MetricsRegistry::record_decision`] and exposed as one family,
//! `hypersparse_decisions_total{site,choice}`. Engine-wide counters for
//! workspace-arena hits/misses and complement-mask probes complete it.
//!
//! All counters are relaxed atomics: recording from parallel shards is
//! race-free, and reading while kernels run yields a consistent-enough
//! view for reporting (exact totals require quiescence, which tests
//! have).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::trace::{Exposition, Histogram, HistogramSnapshot};

/// Kernel identities tracked by the metrics registry, declared in
/// [`Kernel::ALL`] order (the discriminant is the registry index).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Kernel {
    #[default]
    Mxm,
    MxmMasked,
    EwiseAdd,
    EwiseMul,
    EwiseUnion,
    ReduceRows,
    ReduceCols,
    ReduceScalar,
    Transpose,
    Apply,
    Select,
    Extract,
    Kron,
    Assign,
    ConcatRows,
    ConcatCols,
    Power,
    Vxm,
    Mxv,
    StreamMerge,
    ApplyPrune,
    DnnLayer,
    TopK,
    Rollup,
    DeltaFold,
    DeltaDegree,
    /// `graph::incremental::TriangleState` folding one delta; its `flops`
    /// are the closed wedges its three masked counts add (the new
    /// triangles), not the entries of a product.
    DeltaTri,
    PageRankRefresh,
    BfsParent,
}

impl Kernel {
    /// Every tracked kernel, in registry order.
    pub const ALL: [Kernel; 29] = [
        Kernel::Mxm,
        Kernel::MxmMasked,
        Kernel::EwiseAdd,
        Kernel::EwiseMul,
        Kernel::EwiseUnion,
        Kernel::ReduceRows,
        Kernel::ReduceCols,
        Kernel::ReduceScalar,
        Kernel::Transpose,
        Kernel::Apply,
        Kernel::Select,
        Kernel::Extract,
        Kernel::Kron,
        Kernel::Assign,
        Kernel::ConcatRows,
        Kernel::ConcatCols,
        Kernel::Power,
        Kernel::Vxm,
        Kernel::Mxv,
        Kernel::StreamMerge,
        Kernel::ApplyPrune,
        Kernel::DnnLayer,
        Kernel::TopK,
        Kernel::Rollup,
        Kernel::DeltaFold,
        Kernel::DeltaDegree,
        Kernel::DeltaTri,
        Kernel::PageRankRefresh,
        Kernel::BfsParent,
    ];

    /// Stable display name (`mxm`, `ewise_add`, …).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Mxm => "mxm",
            Kernel::MxmMasked => "mxm_masked",
            Kernel::EwiseAdd => "ewise_add",
            Kernel::EwiseMul => "ewise_mul",
            Kernel::EwiseUnion => "ewise_union",
            Kernel::ReduceRows => "reduce_rows",
            Kernel::ReduceCols => "reduce_cols",
            Kernel::ReduceScalar => "reduce_scalar",
            Kernel::Transpose => "transpose",
            Kernel::Apply => "apply",
            Kernel::Select => "select",
            Kernel::Extract => "extract",
            Kernel::Kron => "kron",
            Kernel::Assign => "assign",
            Kernel::ConcatRows => "concat_rows",
            Kernel::ConcatCols => "concat_cols",
            Kernel::Power => "power",
            Kernel::Vxm => "vxm",
            Kernel::Mxv => "mxv",
            Kernel::StreamMerge => "stream_merge",
            Kernel::ApplyPrune => "apply_prune",
            Kernel::DnnLayer => "dnn_layer",
            Kernel::TopK => "top_k",
            Kernel::Rollup => "rollup",
            Kernel::DeltaFold => "delta_fold",
            Kernel::DeltaDegree => "delta_degree",
            Kernel::DeltaTri => "delta_tri",
            Kernel::PageRankRefresh => "pagerank_refresh",
            Kernel::BfsParent => "bfs_parent",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Traversal direction chosen by the matrix–vector kernels
/// ([`mod@crate::ops::mxv`]): Beamer-style direction optimization picks per
/// call between scattering the sparse frontier (*push*) and gathering
/// over the transpose (*pull*).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Scatter each frontier entry along its row of `A`.
    Push,
    /// Gather into each output slot over a row of `Aᵀ`.
    Pull,
}

impl Direction {
    /// Stable display name (`push` / `pull`).
    pub fn name(self) -> &'static str {
        match self {
            Direction::Push => "push",
            Direction::Pull => "pull",
        }
    }
}

/// Declares [`Decision`] and [`Decision::LABELS`] from one list of
/// `Variant = "site", "choice";` lines, so a new choice is one line.
macro_rules! decisions {
    ($($d:ident = $site:literal, $choice:literal;)*) => {
        /// One dispatch decision: which of the equivalent ways to evaluate
        /// the same algebra a kernel took, as a `(site, choice)` line of
        /// [`Decision::LABELS`] (the discriminant is its counter index). A
        /// kernel records each once per call, row range or segment — never
        /// per product (DESIGN.md §10).
        #[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub enum Decision {
            $($d,)*
        }

        impl Decision {
            /// The one label table: every decision with its `site` and
            /// `choice` labels, in discriminant order.
            pub const LABELS: [(Decision, &'static str, &'static str); [$($site),*].len()] =
                [$((Decision::$d, $site, $choice)),*];
        }
    };
}

decisions! {
    // `Matrix::compute_ctx`: the format `Format::decide` switched to.
    FormatDense = "format", "dense";
    FormatBitmap = "format", "bitmap";
    FormatCsr = "format", "csr";
    FormatDcsr = "format", "dcsr";
    // Per `vxm`/`mxv` call: `choose_direction`, or the one operand given.
    MvPush = "mv_direction", "push";
    MvPull = "mv_direction", "pull";
    // Per SpGEMM row range: mask slots, else `dense_acc_pays_off`, `FLAT_ACC`.
    MxmFlat = "mxm_accumulator", "flat";
    MxmDense = "mxm_accumulator", "dense";
    MxmHash = "mxm_accumulator", "hash";
    MxmMaskSlot = "mxm_accumulator", "mask_slot";
    // Per flat SpGEMM row, counted per row range: `Row::dense_span`.
    DrainScan = "mxm_drain", "scan";
    DrainBitmap = "mxm_drain", "bitmap";
    // Per push segment: `FLAT_ACC` and a column space ≤ `DENSE_ACC_MAX`.
    PushFlat = "mv_push_accumulator", "flat";
    PushHash = "mv_push_accumulator", "hash";
    // Per SpGEMM call: `compact` over B's row space.
    MxmRowsIndexed = "mxm_b_rows", "indexed";
    MxmRowsSearched = "mxm_b_rows", "searched";
    // Per masked SpGEMM call: `compact` over the mask's column space.
    MxmMaskScatter = "mxm_mask", "scatter";
    MxmMaskSearch = "mxm_mask", "search";
    // Per pull sweep: `compact` over the frontier's key space.
    PullIndexed = "mv_pull_frontier", "indexed";
    PullSearched = "mv_pull_frontier", "searched";
    // Per masked `vxm`/`mxv` call: `compact` and probes that pay for bits.
    MvMaskBitmap = "mv_mask", "bitmap";
    MvMaskSorted = "mv_mask", "sorted";
    // Per transpose: `compact` over the column space.
    TransposeCounting = "transpose", "counting";
    TransposeRadix = "transpose", "radix";
    // Per colliding bool row pair, counted per call: `word_merge_pays_off`.
    EwiseWord = "ewise_bool_rows", "word";
    EwiseGeneric = "ewise_bool_rows", "generic";
    // Per `Graph::transpose_for` with no transpose yet: the break-even rule.
    GraphTransposeBuilt = "graph_transpose", "built";
    GraphTransposeDeferred = "graph_transpose", "deferred";
    // Per parent BFS: `Semiring::ONE_STEP`.
    BfsOneStep = "parent_bfs", "one_step";
    BfsTwoStep = "parent_bfs", "two_step";
    // Per reduce, apply, SpGEMM, pull or push call: `OpCtx`'s thread rule.
    FanOutOne = "fan_out", "one";
    FanOutMany = "fan_out", "many";
}

/// Live counters for one kernel.
#[derive(Debug, Default)]
pub struct KernelStats {
    nnz_in: AtomicU64,
    nnz_out: AtomicU64,
    flops: AtomicU64,
    bytes_touched: AtomicU64,
    latency: Histogram,
}

impl KernelStats {
    /// Fold one completed kernel invocation into the counters. `bytes`
    /// is the heap footprint of operands plus result — the bandwidth
    /// proxy narrow indices shrink.
    pub fn record(&self, elapsed: Duration, nnz_in: u64, nnz_out: u64, flops: u64, bytes: u64) {
        self.nnz_in.fetch_add(nnz_in, Ordering::Relaxed);
        self.nnz_out.fetch_add(nnz_out, Ordering::Relaxed);
        self.flops.fetch_add(flops, Ordering::Relaxed);
        self.bytes_touched.fetch_add(bytes, Ordering::Relaxed);
        self.latency.record(elapsed);
    }

    /// Freeze the counters; `calls` and `elapsed_ns` are the latency
    /// histogram's count and sum, which every call already records.
    fn snapshot(&self, kernel: Kernel) -> KernelSnapshot {
        let latency = self.latency.snapshot();
        KernelSnapshot {
            kernel,
            calls: latency.count(),
            elapsed_ns: latency.sum_ns,
            nnz_in: self.nnz_in.load(Ordering::Relaxed),
            nnz_out: self.nnz_out.load(Ordering::Relaxed),
            flops: self.flops.load(Ordering::Relaxed),
            bytes_touched: self.bytes_touched.load(Ordering::Relaxed),
            latency,
        }
    }

    fn reset(&self) {
        self.nnz_in.store(0, Ordering::Relaxed);
        self.nnz_out.store(0, Ordering::Relaxed);
        self.flops.store(0, Ordering::Relaxed);
        self.bytes_touched.store(0, Ordering::Relaxed);
        self.latency.reset();
    }
}

/// Frozen counters for one kernel (what [`MetricsSnapshot`] hands out).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelSnapshot {
    /// Which kernel these counters describe.
    pub kernel: Kernel,
    /// Completed invocations.
    pub calls: u64,
    /// Total wall time across invocations, in nanoseconds.
    pub elapsed_ns: u64,
    /// Total stored entries across all inputs.
    pub nnz_in: u64,
    /// Total stored entries across all outputs.
    pub nnz_out: u64,
    /// Total useful algebraic work: ⊗ applications for multiplies,
    /// combiner applications for merges and reductions.
    pub flops: u64,
    /// Heap bytes of operands + results across invocations — the
    /// bandwidth proxy that makes narrow-index savings observable.
    pub bytes_touched: u64,
    /// Per-invocation latency distribution (log₂ buckets; p50/p95/p99
    /// via [`HistogramSnapshot::quantile`]).
    pub latency: HistogramSnapshot,
}

impl KernelSnapshot {
    /// ⊕ `other` (the same kernel's row from another registry) into
    /// `self`: every counter adds, the histograms merge.
    pub fn merge(&mut self, other: &KernelSnapshot) {
        debug_assert_eq!(self.kernel, other.kernel, "rows of one kernel");
        self.calls += other.calls;
        self.elapsed_ns += other.elapsed_ns;
        self.nnz_in += other.nnz_in;
        self.nnz_out += other.nnz_out;
        self.flops += other.flops;
        self.bytes_touched += other.bytes_touched;
        self.latency.merge(&other.latency);
    }
}

/// The per-context metrics registry: one [`KernelStats`] row per
/// [`Kernel`], plus engine-wide counters.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    stats: [KernelStats; Kernel::ALL.len()],
    decisions: [AtomicU64; Decision::LABELS.len()],
    ws_hits: AtomicU64,
    ws_misses: AtomicU64,
    mask_probes: AtomicU64,
    mask_hits: AtomicU64,
}

impl MetricsRegistry {
    /// The live counter row for `kernel`.
    pub fn kernel(&self, kernel: Kernel) -> &KernelStats {
        &self.stats[kernel.index()]
    }

    /// Record one completed invocation of `kernel`. `bytes` is the heap
    /// footprint of operands plus result (see [`KernelStats::record`]).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        kernel: Kernel,
        elapsed: Duration,
        nnz_in: u64,
        nnz_out: u64,
        flops: u64,
        bytes: u64,
    ) {
        self.kernel(kernel)
            .record(elapsed, nnz_in, nnz_out, flops, bytes);
    }

    /// Count `n` instances of dispatch decision `d`: once per call, row
    /// range or segment, with `n` the rows or segments it covered.
    pub fn record_decision(&self, d: Decision, n: u64) {
        self.decisions[d as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Count one workspace-arena acquisition served from the pool.
    pub(crate) fn record_ws_hit(&self) {
        self.ws_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one workspace-arena acquisition that had to allocate.
    pub(crate) fn record_ws_miss(&self) {
        self.ws_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a fused kernel's mask activity: `probes` complement-mask
    /// lookups of which `hits` found the index masked off (and skipped
    /// the work).
    pub fn record_mask_probes(&self, probes: u64, hits: u64) {
        self.mask_probes.fetch_add(probes, Ordering::Relaxed);
        self.mask_hits.fetch_add(hits, Ordering::Relaxed);
    }

    /// Freeze every counter into an owned snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            kernels: Kernel::ALL
                .iter()
                .map(|&k| self.kernel(k).snapshot(k))
                .collect(),
            decisions: self.decisions.each_ref().map(|c| c.load(Ordering::Relaxed)),
            workspace_hits: self.ws_hits.load(Ordering::Relaxed),
            workspace_misses: self.ws_misses.load(Ordering::Relaxed),
            mask_probes: self.mask_probes.load(Ordering::Relaxed),
            mask_hits: self.mask_hits.load(Ordering::Relaxed),
            ..Default::default()
        };
        snap.project();
        snap
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for s in &self.stats {
            s.reset();
        }
        self.decisions
            .iter()
            .chain([&self.ws_hits, &self.ws_misses])
            .chain([&self.mask_probes, &self.mask_hits])
            .for_each(|c| c.store(0, Ordering::Relaxed));
    }
}

/// A frozen view of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// One row per kernel, in [`Kernel::ALL`] order.
    pub kernels: Vec<KernelSnapshot>,
    /// Dispatch decisions, indexed by [`Decision`] (read with
    /// [`MetricsSnapshot::decision`]).
    pub decisions: [u64; Decision::LABELS.len()],
    /// Projection of `decisions`: the `format` site's sum, i.e. automatic
    /// storage-format changes recorded by the `Matrix` layer.
    pub format_switches: u64,
    /// Projection of `decisions`: [`Decision::MvPush`].
    pub mv_push_calls: u64,
    /// Projection of `decisions`: [`Decision::MvPull`].
    pub mv_pull_calls: u64,
    /// Workspace acquisitions served by pooled scratch.
    pub workspace_hits: u64,
    /// Workspace acquisitions that had to allocate fresh scratch.
    pub workspace_misses: u64,
    /// Complement-mask lookups performed inside fused kernels.
    pub mask_probes: u64,
    /// Mask lookups that found the index masked off (work skipped).
    pub mask_hits: u64,
}

impl MetricsSnapshot {
    /// ⊕ another registry's snapshot into `self` — how per-shard
    /// registries become one service-wide view. Element-wise add, so
    /// associative and commutative with `MetricsSnapshot::default()` as
    /// the identity; parts fold in any order to the same total.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        if self.kernels.is_empty() {
            self.kernels.clone_from(&other.kernels);
        } else {
            for (t, p) in self.kernels.iter_mut().zip(&other.kernels) {
                t.merge(p);
            }
        }
        for (t, n) in self.decisions.iter_mut().zip(other.decisions) {
            *t += n;
        }
        self.workspace_hits += other.workspace_hits;
        self.workspace_misses += other.workspace_misses;
        self.mask_probes += other.mask_probes;
        self.mask_hits += other.mask_hits;
        self.project();
    }

    /// Set the projections (`format_switches`, `mv_push_calls`,
    /// `mv_pull_calls`) from `decisions`; the end-to-end benchmark
    /// (`crates/bench/src/bin/e2e`) reads them.
    fn project(&mut self) {
        self.format_switches = Decision::LABELS
            .iter()
            .filter(|(_, site, _)| *site == "format")
            .map(|&(d, _, _)| self.decision(d))
            .sum();
        self.mv_push_calls = self.decision(Decision::MvPush);
        self.mv_pull_calls = self.decision(Decision::MvPull);
    }

    /// How many times decision `d` was taken.
    pub fn decision(&self, d: Decision) -> u64 {
        self.decisions[d as usize]
    }

    /// Fraction of complement-mask probes that skipped work
    /// (`0.0` when no masked kernel ran).
    pub fn mask_hit_rate(&self) -> f64 {
        if self.mask_probes == 0 {
            0.0
        } else {
            self.mask_hits as f64 / self.mask_probes as f64
        }
    }
    /// The counters for one kernel.
    pub fn kernel(&self, kernel: Kernel) -> KernelSnapshot {
        self.kernels
            .iter()
            .copied()
            .find(|k| k.kernel == kernel)
            .unwrap_or(KernelSnapshot {
                kernel,
                ..Default::default()
            })
    }

    /// Total completed kernel invocations.
    pub fn total_calls(&self) -> u64 {
        self.kernels.iter().map(|k| k.calls).sum()
    }

    /// Human-readable table of every kernel with activity.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "kernel", "calls", "nnz_in", "nnz_out", "flops", "bytes", "elapsed"
        );
        for k in &self.kernels {
            if k.calls == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<14} {:>8} {:>12} {:>12} {:>12} {:>12} {:>9.3} ms",
                k.kernel.name(),
                k.calls,
                k.nnz_in,
                k.nnz_out,
                k.flops,
                k.bytes_touched,
                k.elapsed_ns as f64 / 1e6
            );
        }
        let _ = writeln!(
            out,
            "workspace: {} hits / {} misses · mask: {} hits / {} probes ({:.0}%)",
            self.workspace_hits,
            self.workspace_misses,
            self.mask_hits,
            self.mask_probes,
            self.mask_hit_rate() * 100.0
        );
        let taken: Vec<String> = Decision::LABELS
            .iter()
            .filter(|&&(d, _, _)| self.decision(d) > 0)
            .map(|&(d, site, choice)| format!("{site}={choice} {}", self.decision(d)))
            .collect();
        if !taken.is_empty() {
            let _ = writeln!(out, "decisions: {}", taken.join(", "));
        }
        out
    }

    /// Fraction of workspace acquisitions served from the pooled arena
    /// (`0.0` when none were attempted).
    pub fn workspace_hit_rate(&self) -> f64 {
        let total = self.workspace_hits + self.workspace_misses;
        if total == 0 {
            0.0
        } else {
            self.workspace_hits as f64 / total as f64
        }
    }

    /// What this registry measures, as Prometheus families: kernel rows
    /// become `hypersparse_kernel_*` series labelled by kernel (idle
    /// kernels are omitted), engine-wide counters and hit rates follow.
    pub fn expose(&self, out: &mut Exposition) {
        let active = || self.kernels.iter().filter(|k| k.calls > 0);
        let label = |k: &KernelSnapshot| format!("kernel=\"{}\"", k.kernel.name());
        for (name, help, get) in [
            (
                "hypersparse_kernel_calls_total",
                "Completed kernel invocations.",
                (|k: &KernelSnapshot| k.calls) as fn(&KernelSnapshot) -> u64,
            ),
            (
                "hypersparse_kernel_nnz_in_total",
                "Stored entries across all kernel inputs.",
                |k| k.nnz_in,
            ),
            (
                "hypersparse_kernel_nnz_out_total",
                "Stored entries across all kernel outputs.",
                |k| k.nnz_out,
            ),
            (
                "hypersparse_kernel_flops_total",
                "Semiring operator applications.",
                |k| k.flops,
            ),
            (
                "hypersparse_kernel_bytes_touched_total",
                "Heap bytes of kernel operands and results.",
                |k| k.bytes_touched,
            ),
        ] {
            out.family(name, "counter", help, active().map(|k| (label(k), get(k))));
        }
        out.histograms(
            "hypersparse_kernel_latency_seconds",
            "Per-invocation kernel latency.",
            active().map(|k| (label(k), &k.latency)),
        );
        out.family(
            "hypersparse_decisions_total",
            "counter",
            "Dispatch decisions by site and the method chosen.",
            Decision::LABELS.iter().map(|&(d, site, choice)| {
                (
                    format!("site=\"{site}\",choice=\"{choice}\""),
                    self.decision(d),
                )
            }),
        );
        for (name, help, v) in [
            (
                "hypersparse_workspace_hits_total",
                "Workspace acquisitions served from the pooled arena.",
                self.workspace_hits,
            ),
            (
                "hypersparse_workspace_misses_total",
                "Workspace acquisitions that had to allocate.",
                self.workspace_misses,
            ),
            (
                "hypersparse_mask_probes_total",
                "Complement-mask lookups inside fused kernels.",
                self.mask_probes,
            ),
            (
                "hypersparse_mask_hits_total",
                "Mask lookups that skipped work.",
                self.mask_hits,
            ),
        ] {
            out.family(name, "counter", help, [("", v)]);
        }
        for (name, help, v) in [
            (
                "hypersparse_workspace_hit_rate",
                "Fraction of workspace acquisitions served from the pool.",
                self.workspace_hit_rate(),
            ),
            (
                "hypersparse_mask_hit_rate",
                "Fraction of mask probes that skipped work.",
                self.mask_hit_rate(),
            ),
        ] {
            out.family(name, "gauge", help, [("", v)]);
        }
    }

    /// [`MetricsSnapshot::expose`] as a body of its own (format 0.0.4).
    pub fn render_prometheus(&self) -> String {
        let mut out = Exposition::default();
        self.expose(&mut out);
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_round_trip() {
        let reg = MetricsRegistry::default();
        reg.record(Kernel::Mxm, Duration::from_micros(5), 10, 4, 30, 200);
        reg.record(Kernel::Mxm, Duration::from_micros(5), 10, 4, 30, 200);
        reg.record(Kernel::EwiseAdd, Duration::from_nanos(100), 7, 7, 3, 50);
        reg.record_decision(Decision::FormatCsr, 1);
        let snap = reg.snapshot();
        let m = snap.kernel(Kernel::Mxm);
        assert_eq!(m.calls, 2);
        assert_eq!(m.nnz_in, 20);
        assert_eq!(m.nnz_out, 8);
        assert_eq!(m.flops, 60);
        assert_eq!(m.bytes_touched, 400);
        assert_eq!(m.elapsed_ns, 10_000);
        assert_eq!(snap.kernel(Kernel::EwiseAdd).calls, 1);
        assert_eq!(snap.kernel(Kernel::Kron).calls, 0);
        assert_eq!(snap.format_switches, 1);
        assert_eq!(snap.total_calls(), 3);
        let report = snap.report();
        assert!(report.contains("mxm"));
        assert!(report.contains("ewise_add"));
        assert!(!report.contains("kron"), "idle kernels stay out:\n{report}");
        assert!(report.contains("decisions: format=csr 1\n"), "{report}");
    }

    #[test]
    fn reset_zeroes_everything() {
        let reg = MetricsRegistry::default();
        reg.record(Kernel::Transpose, Duration::from_micros(1), 5, 5, 5, 5);
        reg.record_ws_miss();
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.total_calls(), 0);
        assert_eq!(snap.workspace_misses, 0);
    }

    #[test]
    fn direction_and_mask_counters() {
        let reg = MetricsRegistry::default();
        reg.record_decision(Decision::MvPush, 1);
        reg.record_mask_probes(10, 4);
        reg.record_decision(Decision::MvPull, 1);
        reg.record_mask_probes(6, 6);
        let snap = reg.snapshot();
        assert_eq!(snap.mv_push_calls, 1);
        assert_eq!(snap.mv_pull_calls, 1);
        assert_eq!(snap.mask_probes, 16);
        assert_eq!(snap.mask_hits, 10);
        assert!((snap.mask_hit_rate() - 10.0 / 16.0).abs() < 1e-12);
        let report = snap.report();
        assert!(
            report.contains("decisions: mv_direction=push 1, mv_direction=pull 1\n"),
            "{report}"
        );
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.mv_push_calls, 0);
        assert_eq!(snap.mask_hit_rate(), 0.0);
        assert!(!snap.report().contains("decisions:"));
    }

    #[test]
    fn kernels_are_declared_in_all_order() {
        for (i, k) in Kernel::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
    }

    #[test]
    fn merge_sums_every_field() {
        let hist = |ns: &[u64]| {
            let h = Histogram::default();
            ns.iter().for_each(|&n| h.record_ns(n));
            h.snapshot()
        };
        // Exhaustive literals (no `..Default::default()`): a new field
        // must be given a value here, and so a line in `merge`. Each
        // field carries its own weight, so a cross-wired sum shows too.
        // Every decision gets a distinct prime weight; the projections
        // carry their sums over `decisions`, as `snapshot()` sets them.
        let primes: Vec<u64> = (2u64..)
            .filter(|n| (2..*n).all(|d| n % d != 0))
            .skip(8)
            .take(Decision::LABELS.len())
            .collect();
        let decisions = |m: u64| std::array::from_fn(|d| primes[d] * m);
        let fmt = |m: u64| (0..4).map(|d| primes[d] * m).sum::<u64>();
        let snap = |m: u64, latency: HistogramSnapshot| MetricsSnapshot {
            kernels: vec![KernelSnapshot {
                kernel: Kernel::Mxm,
                calls: m,
                elapsed_ns: 10 * m,
                nnz_in: 100 * m,
                nnz_out: 1_000 * m,
                flops: 10_000 * m,
                bytes_touched: 100_000 * m,
                latency,
            }],
            decisions: decisions(m),
            format_switches: fmt(m),
            mv_push_calls: decisions(m)[Decision::MvPush as usize],
            mv_pull_calls: decisions(m)[Decision::MvPull as usize],
            workspace_hits: 3 * m,
            workspace_misses: 5 * m,
            mask_probes: 13 * m,
            mask_hits: 17 * m,
        };
        let expected = snap(3, hist(&[10, 20]));
        let mut merged = snap(1, hist(&[10]));
        merged.merge(&snap(2, hist(&[20])));
        assert_eq!(merged, expected);
        assert_eq!(merged.format_switches, fmt(3));
        assert_eq!(merged.mv_push_calls, merged.decision(Decision::MvPush));
        assert_eq!(merged.mv_pull_calls, merged.decision(Decision::MvPull));
        // The empty snapshot is the identity on either side.
        merged.merge(&MetricsSnapshot::default());
        assert_eq!(merged, expected);
        let mut id = MetricsSnapshot::default();
        id.merge(&expected);
        assert_eq!(id, expected);
    }

    #[test]
    fn every_kernel_has_a_distinct_name() {
        let names: std::collections::HashSet<_> = Kernel::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), Kernel::ALL.len());
    }

    #[test]
    fn every_decision_has_a_distinct_label_pair_in_table_order() {
        for (i, &(d, _, _)) in Decision::LABELS.iter().enumerate() {
            assert_eq!(d as usize, i, "{d:?} out of table order");
        }
        let pairs: std::collections::HashSet<_> =
            Decision::LABELS.iter().map(|&(_, s, c)| (s, c)).collect();
        assert_eq!(pairs.len(), Decision::LABELS.len());
    }
}
