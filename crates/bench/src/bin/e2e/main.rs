//! `e2e`: the repository's benchmark. Four seeded workloads, each run
//! untraced for the end-to-end metrics and traced for the per-layer
//! ones; see README.md in this directory.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass, JSON on the last line
//! e2e --all [--seed <n>] [--seconds <s>]                         both passes of every workload
//! e2e --repeat-check [--seed <n>] [--seconds <s>]                the untraced set twice, compared
//! e2e --writer-gap                                               the ROADMAP item 3 ladder
//! e2e --benchmark-json                                           print BENCHMARK.json
//! ```

mod catalog;
mod harness;
mod host;
mod kernel_batch;
mod layers;
mod netflow;
mod probes;
mod serve_mixed;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

use catalog::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use harness::Outcome;

/// Seed when none is given. Seed 9001 is held out (see README): pass
/// it explicitly, and only to check a finished claim.
const DEFAULT_SEED: u64 = 7;

fn span_file(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("e2e")
        .join(format!("{workload}.spans.jsonl"))
}

/// One pass over one workload, pinned to one CPU before it starts a
/// thread (README, "Steadiness by construction"). The untraced pass
/// reports every end-to-end metric, the traced pass every per-layer
/// metric.
fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    let setups = match WORKLOADS.iter().find(|w| w.name == workload) {
        Some(w) if !traced => w.setups,
        _ => 1,
    };
    let spans = span_file(workload);
    let nproc = host::nproc();
    let pinned = host::pin_to_one_cpu();
    let mut out = match workload {
        "netflow_ingest" => netflow::run(&netflow::INGEST, seed, seconds, traced, setups, &spans),
        "netflow_detect" => netflow::run(&netflow::DETECT, seed, seconds, traced, setups, &spans),
        "serve_mixed" => serve_mixed::run(seed, seconds, traced, setups, &spans),
        "kernel_batch" => kernel_batch::run(seed, seconds, traced, setups, &spans),
        _ => return None,
    };
    if traced {
        let h = host::calibrate(nproc);
        out.metrics.set("host.nproc", h.nproc as f64, 1);
        out.metrics.set("host.timer_ns", h.timer_ns, 1);
        out.metrics
            .set("host.memcpy_gb_per_s", h.memcpy_gb_per_s, 3);
        println!(
            "host: nproc {}, run on {} · clock step {} ns · copy {:.2} GB/s over {} MiB buffers (LLC {} MiB) · spans → {}",
            h.nproc,
            pinned.map_or("all of them (pinning refused)".into(), |c| format!("cpu {c}")),
            h.timer_ns,
            h.memcpy_gb_per_s,
            h.memcpy_bytes >> 20,
            h.llc_bytes >> 20,
            spans.display()
        );
        if let (Some(f), Some(q)) = (
            out.metrics.get("freshness_p50_us"),
            out.metrics.get("query_p50_us"),
        ) {
            out.metrics.set("loadgen.samples_freshness", f.n as f64, 1);
            out.metrics.set("loadgen.samples_query", q.n as f64, 1);
        }
    } else {
        out.metrics.set("peak_rss_mb", host::peak_rss_mb(), 1);
    }
    // Every name a workload emits must be in the catalog (each pass
    // then reports its own half of it).
    let known: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .collect();
    for name in out.metrics.0.keys() {
        if !known.contains(&name.as_str()) {
            out.tally
                .fail(format!("metric {name} is not in the catalog"));
        }
    }
    if !traced {
        for m in &END_TO_END {
            match out.metrics.get(m.name) {
                Some(s) if s.value.is_finite() && s.value > 0.0 => {}
                other => out
                    .tally
                    .fail(format!("end-to-end metric {} = {other:?}", m.name)),
            }
        }
    }
    Some(out)
}

/// `(name, unit)` of the metrics a pass reports, in catalog order.
fn reported(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

fn print_table(workload: &str, traced: bool, out: &Outcome) {
    println!(
        "== {workload} · {} pass · {} attempted, {} failed · input digest {:016x} ==",
        if traced { "traced" } else { "untraced" },
        out.tally.attempted,
        out.tally.failed,
        out.input_digest
    );
    for (name, unit) in reported(traced) {
        // A per-layer metric reads 0 on a workload that never enters
        // its layer; leave those rows out of the table for people.
        if let Some(s) = out.metrics.get(name) {
            println!("{name:<44} {:>16.4} {unit:<6} n={}", s.value, s.n);
        }
    }
    for note in &out.tally.notes {
        println!("note: {note}");
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric of the pass.
fn result_json(traced: bool, out: &Outcome) -> String {
    let metrics: Vec<String> = reported(traced)
        .into_iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).map_or(0.0, |s| s.value).max(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.mismatches == 0,
        out.tally.attempted.max(1),
        out.tally.failed,
        metrics.join(", ")
    )
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    all: bool,
    repeat_check: bool,
    benchmark_json: bool,
    writer_gap: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        all: false,
        repeat_check: false,
        benchmark_json: false,
        writer_gap: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--all" => a.all = true,
            "--repeat-check" => a.repeat_check = true,
            "--benchmark-json" => a.benchmark_json = true,
            "--writer-gap" => a.writer_gap = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn warn_single_core() {
    println!(
        "every pass runs pinned to one of this host's {} CPUs: shards, writer and reader \
         share it, and no number below says anything about scaling with threads",
        host::nproc()
    );
}

/// One pass as the driver would run it: this executable again, in a
/// process of its own, so that peak RSS, allocator state and thread
/// placement are that pass's alone. The child's table is echoed; its
/// result line comes back parsed.
struct ChildResult {
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (table, line) = stdout.trim_end().rsplit_once('\n')?;
    println!("{table}");
    let mut result = parse_result(traced, line)?;
    // A reference mismatch makes the child exit non-zero.
    if !out.status.success() {
        result.failed = result.failed.max(1);
    }
    Some(result)
}

/// Read back a line written by [`result_json`].
fn parse_result(traced: bool, line: &str) -> Option<ChildResult> {
    let number_after = |key: &str| -> Option<f64> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest.find([',', '}'])?;
        rest[..end].trim().parse().ok()
    };
    let metrics = reported(traced)
        .into_iter()
        .map(|(name, _)| Some((name, number_after(&format!("\"{name}\": {{\"value\": "))?)))
        .collect::<Option<Vec<_>>>()?;
    Some(ChildResult {
        failed: number_after("\"failed\": ")? as u64,
        metrics,
    })
}

impl ChildResult {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    }
}

/// Both passes of every workload; true when nothing failed.
fn run_all(seed: u64, seconds: f64) -> bool {
    warn_single_core();
    let mut clean = true;
    for w in &WORKLOADS {
        let (Some(untraced), Some(traced)) = (
            run_child(w.name, seed, seconds, false),
            run_child(w.name, seed, seconds, true),
        ) else {
            println!("{}: a pass printed no result", w.name);
            clean = false;
            continue;
        };
        let off = untraced.get("work_per_s");
        let on = traced.get("loadgen.work_per_s");
        println!(
            "trace overhead, differential: work_per_s {on:.1} traced against {off:.1} untraced \
             ({:+.2} %; read beside the run-to-run spread)",
            100.0 * (off - on) / off
        );
        clean &= untraced.failed == 0 && traced.failed == 0;
    }
    clean
}

/// The untraced set twice, the second time in reverse workload order;
/// true when every (metric, workload) pair agrees within its bound.
fn repeat_check(seed: u64, seconds: f64) -> bool {
    warn_single_core();
    let pass = |order: Vec<&'static str>| -> Vec<(&'static str, Option<ChildResult>)> {
        order
            .into_iter()
            .map(|name| (name, run_child(name, seed, seconds, false)))
            .collect()
    };
    let first = pass(WORKLOADS.iter().map(|w| w.name).collect());
    let mut second = pass(WORKLOADS.iter().rev().map(|w| w.name).collect());
    second.reverse();
    let mut ok = true;
    println!("== repeat check: second pass against first ==");
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        let (Some(a), Some(b)) = (a, b) else {
            println!("{name}: a pass printed no result");
            ok = false;
            continue;
        };
        ok &= a.failed == 0 && b.failed == 0;
        for m in &END_TO_END {
            let (va, vb) = (a.get(m.name), b.get(m.name));
            // Positive = the second pass is worse.
            let worse = if m.better == "lower" {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let within = worse.abs() <= m.bound;
            ok &= within;
            println!(
                "{name:<16} {:<20} {va:>14.3} {vb:>14.3} {:>+8.2} % (bound {:.0} %){}",
                m.name,
                100.0 * worse,
                100.0 * m.bound,
                if within { "" } else { "  EXCEEDS" }
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.benchmark_json {
        print!("{}", catalog::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.writer_gap {
        probes::writer_gap(2.0);
        return ExitCode::SUCCESS;
    }
    if args.all {
        return if run_all(args.seed, args.seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if args.repeat_check {
        return if repeat_check(args.seed, args.seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("e2e: give --workload <name>, --all, --repeat-check or --benchmark-json");
        return ExitCode::from(2);
    };
    let Some(out) = run(&workload, args.seed, args.seconds, args.trace) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "e2e: unknown workload {workload}; one of {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    print_table(&workload, args.trace, &out);
    println!("{}", result_json(args.trace, &out));
    if out.tally.mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{Metrics, Tally};

    #[test]
    fn same_seed_same_input_digest() {
        assert_eq!(serve_mixed::input_digest(7), serve_mixed::input_digest(7));
        assert_ne!(serve_mixed::input_digest(7), serve_mixed::input_digest(8));
        assert_eq!(
            netflow::input_digest(&netflow::DETECT, 7),
            netflow::input_digest(&netflow::DETECT, 7)
        );
        assert_ne!(
            netflow::input_digest(&netflow::DETECT, 7),
            netflow::input_digest(&netflow::DETECT, 8)
        );
    }

    #[test]
    fn result_line_lists_exactly_the_pass_s_metrics() {
        let mut metrics = Metrics::default();
        metrics.set("work_per_s", 1234.5, 1);
        metrics.set("netflow.detect_us", 17.25, 3);
        let out = Outcome {
            metrics,
            tally: Tally {
                attempted: 10,
                failed: 1,
                mismatches: 1,
                notes: Vec::new(),
            },
            input_digest: 0,
        };
        let line = result_json(false, &out);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1, "));
        assert!(line.contains("\"work_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}"));
        for m in &END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{", m.name)), "{}", m.name);
        }
        assert!(!line.contains("netflow.detect_us"));
        let traced = result_json(true, &out);
        assert!(traced.contains("\"netflow.detect_us\": {\"value\": 17.25, \"unit\": \"us\"}"));
        for m in &PER_LAYER {
            assert!(
                traced.contains(&format!("\"{}\": {{", m.name)),
                "{}",
                m.name
            );
        }
        assert!(!traced.contains("\"work_per_s\""));
        assert!(!line.contains('\n') && !traced.contains('\n'));

        let back = parse_result(true, &traced).expect("own line parses");
        assert_eq!(back.failed, 1);
        assert_eq!(back.get("netflow.detect_us"), 17.25);
        assert_eq!(back.get("serve.errors"), 0.0);
        assert_eq!(
            parse_result(false, &line).unwrap().get("work_per_s"),
            1234.5
        );
    }
}
