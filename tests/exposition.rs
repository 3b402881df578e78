//! Text-level lint of every scrape body the workspace composes.
//!
//! A Prometheus parser rejects a body that declares a family twice or
//! repeats a series, and the end-to-end benchmark reads its pipeline
//! layer figures out of the body by name — so three bodies of growing
//! depth (a bare kernel registry, a pipeline with a standing view, the
//! whole netflow service) are checked for: every series declared by a
//! preceding `# TYPE`, every value parsable, one `# TYPE` per family,
//! one line per `(name, labels)` series, and the scraped names present.

use std::collections::HashSet;
use std::sync::Arc;

use hyperspace::prelude::*;
use hypersparse::ops;

/// The series `crates/bench/src/bin/e2e` scrapes from a pipeline-backed
/// body.
fn scraped_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "pipeline_events_ingested_total",
        "pipeline_batches_total",
        "pipeline_full_rejections_total",
    ]
    .map(String::from)
    .into();
    for stage in [
        "route",
        "shard_merge",
        "rotate",
        "snapshot",
        "standing_update",
    ] {
        for part in ["sum", "count"] {
            names.push(format!(
                "pipeline_stage_latency_seconds_{part}{{stage=\"{stage}\"}}"
            ));
        }
    }
    names
}

fn lint(body: &str, must_carry: &[String]) {
    let mut declared: Vec<&str> = Vec::new();
    let mut series: HashSet<&str> = HashSet::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap();
            assert!(!declared.contains(&name), "family {name} declared twice");
            declared.push(name);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (key, value) = line.rsplit_once(' ').expect("malformed line");
        assert!(series.insert(key), "series {key} written twice");
        let name = &key[..key.find('{').unwrap_or(key.len())];
        let base = name
            .trim_end_matches("_bucket")
            .trim_end_matches("_sum")
            .trim_end_matches("_count");
        assert!(
            declared.iter().any(|d| *d == base || *d == name),
            "undeclared series {line:?}"
        );
        assert!(value.parse::<f64>().is_ok(), "unparsable value in {line:?}");
    }
    assert!(!declared.is_empty(), "empty body");
    for name in must_carry {
        assert!(series.contains(name.as_str()), "missing {name} in:\n{body}");
    }
}

#[test]
fn bare_kernel_registry_scrapes_cleanly() {
    let s = PlusTimes::<f64>::new();
    let ctx = OpCtx::new();
    let mut coo = Coo::new(64, 64);
    coo.extend((0..200u64).map(|i| (i % 61, i % 59, 1.0)));
    let a = coo.build_dcsr(s);
    let b = ops::mxm_ctx(&ctx, &a, &a, s);
    let _ = ops::ewise_add_ctx(&ctx, &a, &b, s);
    let _ = ops::transpose_ctx(&ctx, &b);
    lint(&ctx.metrics().snapshot().render_prometheus(), &[]);
}

/// A standing view with nothing to maintain: the registry meters it all
/// the same.
struct Inert;

impl StandingView<PlusTimes<f64>> for Inert {
    fn apply_delta(&self, _: &EpochSnapshot<PlusTimes<f64>>) {}
    fn reset(&self) {}
}

#[test]
fn pipeline_with_a_standing_view_scrapes_cleanly() {
    let p = Pipeline::with_config(
        1 << 16,
        1 << 16,
        PlusTimes::<f64>::new(),
        PipelineConfig::new().with_shards(2),
    );
    p.register_standing_query("inert", Arc::new(Inert));
    p.ingest_batch((0..500u64).map(|i| (i % 101, i % 103, 1.0)))
        .unwrap();
    p.snapshot_incremental().unwrap();
    p.ingest_batch((0..100u64).map(|i| (i, i + 1, 2.0)))
        .unwrap();
    p.rotate().unwrap();
    let mut must_carry = scraped_names();
    must_carry.push("pipeline_standing_updates_total{view=\"inert\"}".into());
    lint(&p.render_prometheus(), &must_carry);
    p.shutdown().unwrap();
}

#[test]
fn netflow_service_scrapes_cleanly() {
    let svc = NetflowService::new(
        NetflowConfig::new()
            .with_pipeline(PipelineConfig::new().with_shards(2))
            .with_thresholds(3, 3),
    );
    svc.ingest(&[(7, 100, 1), (7, 101, 1), (7, 102, 2), (1, 2, 5)])
        .unwrap();
    svc.close_window().unwrap();
    svc.ingest(&[(3, 50, 1), (4, 50, 1)]).unwrap();
    svc.refresh().unwrap();
    svc.ingest(&[(5, 50, 1), (3, 50, 7)]).unwrap();
    svc.close_window().unwrap();
    svc.query(&NetflowQuery::ScanSuspects { min_fanout: 1 })
        .unwrap();
    svc.query(&NetflowQuery::StandingDdosVictims { min_fanin: 1 })
        .unwrap();
    let body = svc.render_prometheus();
    // The detector context's kernels ride the same families as the
    // pipeline's: one declaration, rows from both.
    for kernel in ["delta_degree", "stream_merge"] {
        assert!(
            body.contains(&format!(
                "hypersparse_kernel_calls_total{{kernel=\"{kernel}\"}}"
            )),
            "missing {kernel} in:\n{body}"
        );
    }
    lint(&body, &scraped_names());
    svc.shutdown().unwrap();
}
