//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root is exactly [`benchmark_json`]; a unit test holds the two equal,
//! and every name a run emits is checked against these tables.

/// Length of one timed region, seconds: the driver's 92 runs, their
/// set-ups and two builds then take ~2 700 of the 3 420 s it allows.
pub const RUN_SECONDS: u64 = 25;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Set-ups per untraced run; `setup_s` is their median, and the
    /// timed region runs on the last. The shorter a set-up, the more of
    /// them it takes to steady that median.
    pub setups: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "netflow_ingest",
        why: "closed-loop saturation, 200k-flow hypersparse windows: closing and judging a window is ~60% of the loop, ingest ~40%, so a rotate or detector-fold change shows here most, an ingest change by its share",
        setups: 3,
    },
    Workload {
        name: "netflow_detect",
        why: "open loop at a fixed event rate with small windows: marker waves, delta folds, detectors and the query mix dominate, so a snapshot-cadence or query-kernel change shows here",
        setups: 9,
    },
    Workload {
        name: "serve_mixed",
        why: "a paced writer publishing epochs beside a closed-loop reader over a key range wider than the view cache: serve, db and the Assoc view build do the work",
        setups: 9,
    },
    Workload {
        name: "kernel_batch",
        why: "BFS, PageRank, triangle count and sparse-DNN inference in rounds with no pipeline: only hypersparse::ops, graph and dnn run, so a streaming change must leave it unmoved",
        setups: 5,
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these: the driver's result line
/// holds "every `end_to_end` metric", so a name stands for a role and
/// the README's table says what fills it on each workload —
/// `work_per_s`: events (netflow), reader queries (`serve_mixed`), jobs
/// (`kernel_batch`); `freshness_p50_us`: input complete → verdict,
/// published epoch or finished round; `query_p50_us`: one netflow query,
/// one served query, one BFS traversal. Each is the better quartile of
/// the run's one-second slices (`harness::undisturbed`). Their tails
/// are per-layer (`loadgen.*_tail_us`): they could not hold the widest
/// bound.
///
/// Bounds: all at the contract's cap of 25 % (README, "Bounds").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "freshness_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Kernel rows whose computed bytes/ns are reported beside the host's
/// measured copy bandwidth.
pub const BYTES_PER_NS_KERNELS: [&str; 11] = [
    "mxm",
    "mxm_masked",
    "vxm",
    "mxv",
    "reduce_rows",
    "select",
    "ewise_add",
    "transpose",
    "stream_merge",
    "top_k",
    "rollup",
];

/// Traced-pass metrics, prefix = crate. A metric reads 0 on a workload
/// that never enters its layer.
pub const PER_LAYER: [Layer; 105] = [
    // netflow
    layer("netflow.ingest_ns_per_event", "ns", "lower"),
    layer("netflow.close_window_us", "us", "lower"),
    layer("netflow.detect_us", "us", "lower"),
    layer("netflow.refresh_us", "us", "lower"),
    layer("netflow.query_us.top_talkers", "us", "lower"),
    layer("netflow.query_us.scan_suspects", "us", "lower"),
    layer("netflow.query_us.ddos_victims", "us", "lower"),
    layer("netflow.query_us.rollup", "us", "lower"),
    layer("netflow.query_us.suspect_traffic", "us", "lower"),
    layer("netflow.query_us.standing_scan", "us", "lower"),
    layer("netflow.query_us.standing_ddos", "us", "lower"),
    layer("netflow.windows_closed", "count", "higher"),
    layer("netflow.flows_per_window", "count", "higher"),
    layer("netflow.detections", "count", "higher"),
    layer("netflow.missed_episodes", "count", "lower"),
    layer("netflow.ingest_busy_share", "ratio", "higher"),
    layer("netflow.answer_busy_share", "ratio", "higher"),
    layer("netflow.query_busy_share", "ratio", "lower"),
    // pipeline
    layer("pipeline.ingest_batch_ns_per_event", "ns", "lower"),
    layer("pipeline.ingest_single_ns_per_event", "ns", "lower"),
    layer("pipeline.snapshot_us", "us", "lower"),
    layer("pipeline.rotate_us", "us", "lower"),
    layer("pipeline.snapshot_incremental_us", "us", "lower"),
    layer("pipeline.route_ns_per_event", "ns", "lower"),
    layer("pipeline.shard_merge_ns_per_event", "ns", "lower"),
    layer("pipeline.standing_update_us", "us", "lower"),
    layer("pipeline.batches", "count", "higher"),
    layer("pipeline.full_rejections", "count", "lower"),
    layer("pipeline.channel_depth_max", "count", "lower"),
    layer("pipeline.shard_skew", "ratio", "lower"),
    layer("pipeline.caller_blocked_share", "ratio", "lower"),
    // hypersparse: stream
    layer("hypersparse.stream_insert_ns_per_event", "ns", "lower"),
    layer("hypersparse.stream_snapshot_us", "us", "lower"),
    layer("hypersparse.stream_merge_calls", "count", "lower"),
    layer("hypersparse.stream_merge_ns_per_nnz", "ns", "lower"),
    layer("hypersparse.stream_bytes_per_event", "B", "lower"),
    // hypersparse: ops
    layer("hypersparse.mxm_ns_per_flop", "ns", "lower"),
    layer("hypersparse.mxm_masked_ns_per_flop", "ns", "lower"),
    layer("hypersparse.vxm_ns_per_edge", "ns", "lower"),
    layer("hypersparse.mxv_ns_per_edge", "ns", "lower"),
    layer("hypersparse.reduce_ns_per_nnz", "ns", "lower"),
    layer("hypersparse.topk_us", "us", "lower"),
    layer("hypersparse.select_ns_per_nnz", "ns", "lower"),
    layer("hypersparse.ewise_add_ns_per_nnz", "ns", "lower"),
    layer("hypersparse.transpose_ns_per_nnz", "ns", "lower"),
    layer("hypersparse.bytes_per_ns.mxm", "B/ns", "higher"),
    layer("hypersparse.bytes_per_ns.mxm_masked", "B/ns", "higher"),
    layer("hypersparse.bytes_per_ns.vxm", "B/ns", "higher"),
    layer("hypersparse.bytes_per_ns.mxv", "B/ns", "higher"),
    layer("hypersparse.bytes_per_ns.reduce_rows", "B/ns", "higher"),
    layer("hypersparse.bytes_per_ns.select", "B/ns", "higher"),
    layer("hypersparse.bytes_per_ns.ewise_add", "B/ns", "higher"),
    layer("hypersparse.bytes_per_ns.transpose", "B/ns", "higher"),
    layer("hypersparse.bytes_per_ns.stream_merge", "B/ns", "higher"),
    layer("hypersparse.bytes_per_ns.top_k", "B/ns", "higher"),
    layer("hypersparse.bytes_per_ns.rollup", "B/ns", "higher"),
    layer("hypersparse.workspace_hit_ratio", "ratio", "higher"),
    layer("hypersparse.mv_push_share", "ratio", "higher"),
    layer("hypersparse.mask_hit_rate", "ratio", "higher"),
    layer("hypersparse.format_switches", "count", "lower"),
    // core
    layer("core.rollup_ns_per_nnz", "ns", "lower"),
    layer("core.assoc_build_ns_per_nnz", "ns", "lower"),
    // serve
    layer("serve.query_us.sql", "us", "lower"),
    layer("serve.query_us.select", "us", "lower"),
    layer("serve.query_us.neighbors", "us", "lower"),
    layer("serve.query_us.group_count", "us", "lower"),
    layer("serve.query_us.point", "us", "lower"),
    layer("serve.cold_query_us", "us", "lower"),
    layer("serve.cache_hit_ratio", "ratio", "higher"),
    layer("serve.epoch_lag_p50", "count", "lower"),
    layer("serve.epochs_published", "count", "higher"),
    layer("serve.errors", "count", "lower"),
    layer("serve.query_busy_share", "ratio", "higher"),
    // db
    layer("db.sql_parse_us", "us", "lower"),
    layer("db.sql_execute_us", "us", "lower"),
    // graph
    layer("graph.bfs_ms", "ms", "lower"),
    layer("graph.bfs_levels", "count", "lower"),
    layer("graph.pagerank_ms", "ms", "lower"),
    layer("graph.pagerank_iters", "count", "lower"),
    layer("graph.triangles_ms", "ms", "lower"),
    layer("graph.triangles_found", "count", "higher"),
    layer("graph.delta_degree_us", "us", "lower"),
    layer("graph.round_share", "ratio", "higher"),
    // dnn
    layer("dnn.infer_ms", "ms", "lower"),
    layer("dnn.layer_ms_p50", "ms", "lower"),
    layer("dnn.edges_per_s", "1/s", "higher"),
    layer("dnn.active_fraction_final", "ratio", "lower"),
    layer("dnn.round_share", "ratio", "higher"),
    // load generator, trace, host
    layer("loadgen.sched_lag_p99_us", "us", "lower"),
    layer("loadgen.achieved_rate_share", "ratio", "higher"),
    layer("loadgen.late_batches", "count", "lower"),
    layer("loadgen.writer_events_per_s", "1/s", "higher"),
    layer("loadgen.work_per_s", "1/s", "higher"),
    layer("loadgen.work_per_s_whole", "1/s", "higher"),
    layer("loadgen.freshness_p50_whole_us", "us", "lower"),
    layer("loadgen.query_p50_whole_us", "us", "lower"),
    layer("loadgen.freshness_tail_us", "us", "lower"),
    layer("loadgen.query_tail_us", "us", "lower"),
    layer("loadgen.samples_freshness", "count", "higher"),
    layer("loadgen.samples_query", "count", "higher"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.residual_share", "ratio", "lower"),
    layer("host.nproc", "count", "higher"),
    layer("host.memcpy_gb_per_s", "GB/s", "higher"),
    layer("host.timer_ns", "ns", "lower"),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"crates/bench/src/bin/e2e/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"crates/bench/src/bin/e2e\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::PathBuf;

    fn name_ok(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(name_ok(name, 64), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{unit}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == "lower"
            && END_TO_END.iter().all(|o| o.bound <= m.bound)));
        assert!(PER_LAYER
            .iter()
            .all(|m| matches!(m.better, "lower" | "higher")));
        assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for k in BYTES_PER_NS_KERNELS {
            let name = format!("hypersparse.bytes_per_ns.{k}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    /// A file at the root of the repository: the first ancestor of this
    /// package that holds a `BENCHMARK.json`.
    fn root_file(name: &str) -> String {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        while !dir.join("BENCHMARK.json").is_file() {
            assert!(dir.pop(), "no BENCHMARK.json above the package");
        }
        std::fs::read_to_string(dir.join(name)).expect("readable root file")
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        assert_eq!(
            root_file("BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `e2e --benchmark-json > BENCHMARK.json`"
        );
        assert!(benchmark_json().len() < 64 << 10);
    }

    /// The settings of one manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> BTreeSet<&str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The benchmark's own manifest must build what `-p bench` builds
    /// and tests: same release profile, same program crates.
    #[test]
    fn own_manifest_follows_the_workspace() {
        let own = include_str!("Cargo.toml");
        let profile = release_profile(own);
        assert!(!profile.is_empty());
        assert_eq!(profile, release_profile(&root_file("Cargo.toml")));
        let bench = root_file("crates/bench/Cargo.toml");
        for line in bench.lines().filter(|l| l.contains("workspace = true")) {
            let Some((dep, _)) = line.split_once(" = {") else {
                continue; // version.workspace and the like
            };
            if !matches!(dep, "criterion" | "rand") {
                assert!(own.contains(&format!("\n{dep} = {{ path = ")), "{dep}");
            }
        }
    }
}
