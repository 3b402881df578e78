//! The benchmark's own span log. In the traced pass every call into
//! the program is wrapped in a span named `layer.call`; spans nest by
//! a per-thread stack, carry the operation (window / query / round)
//! they belong to, stay in memory during the run and are written as
//! JSON lines afterwards. The untraced pass holds a disabled log: one
//! branch per call, nothing recorded.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// At most this many spans of a workload are written out; self times
/// are computed over all of them.
const FILE_CAP: usize = 250_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: u32,
    /// Window, query or round number.
    pub op: u64,
}

/// One thread's spans.
pub struct SpanLog {
    enabled: bool,
    t0: Instant,
    thread: &'static str,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl SpanLog {
    /// A log for the named loadgen thread; `t0` is shared by every
    /// thread of a run so their spans share a time axis.
    pub fn new(enabled: bool, thread: &'static str, t0: Instant) -> Self {
        SpanLog {
            enabled,
            t0,
            thread,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span that encloses later ones; close it with [`exit`].
    ///
    /// [`exit`]: SpanLog::exit
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op,
        });
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.stack.pop().expect("exit without enter");
        self.spans[i as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Run `f` — one call into the program — inside a span.
    pub fn call<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, op);
        let r = f();
        self.exit();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Calls, total time and self time of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals of one log. A span's self time is its duration
/// minus the durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children);
    }
    out
}

/// Totals over several threads' logs.
pub fn merged_self_times(logs: &[SpanLog]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for log in logs {
        for (name, t) in self_times(log.spans()) {
            let o = out.entry(name).or_default();
            o.calls += t.calls;
            o.total_ns += t.total_ns;
            o.self_ns += t.self_ns;
        }
    }
    out
}

/// Write the logs as JSON lines: one object per span, then one trailer
/// object stating how many spans were recorded and how many written.
pub fn write_jsonl(path: &Path, logs: &[SpanLog]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let recorded: usize = logs.iter().map(|l| l.spans.len()).sum();
    let mut written = 0usize;
    for log in logs {
        for (i, s) in log.spans.iter().enumerate() {
            if written == FILE_CAP {
                break;
            }
            write!(
                out,
                "{{\"thread\":\"{}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{}",
                log.thread, s.name, s.start_ns, s.end_ns, s.op
            )?;
            if s.parent != NO_PARENT {
                write!(out, ",\"parent\":{}", s.parent)?;
            }
            writeln!(out, "}}")?;
            written += 1;
        }
    }
    writeln!(out, "{{\"recorded\":{recorded},\"written\":{written}}}")?;
    out.flush()
}

/// Mean cost of recording one span, measured on this host now: the
/// traced pass's overhead is this times the spans it recorded.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 200_000;
    let mut log = SpanLog::new(true, "calibration", Instant::now());
    let t = Instant::now();
    for i in 0..N {
        log.call("calibration.span", i, || std::hint::black_box(i));
    }
    t.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // window [0,100) ⊃ ingest [10,40), close [50,90) ⊃ assemble [60,80)
        let spans = [
            span("loadgen.window", 0, 100, NO_PARENT),
            span("netflow.ingest", 10, 40, 0),
            span("netflow.close_window", 50, 90, 0),
            span("pipeline.assemble", 60, 80, 2),
            span("netflow.ingest", 100, 130, NO_PARENT),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["loadgen.window"],
            NameTotals {
                calls: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(t["netflow.close_window"].self_ns, 20);
        assert_eq!(t["pipeline.assemble"].self_ns, 20);
        assert_eq!(
            t["netflow.ingest"],
            NameTotals {
                calls: 2,
                total_ns: 60,
                self_ns: 60
            }
        );
    }

    #[test]
    fn log_nests_by_stack_and_disabled_log_records_nothing() {
        let mut log = SpanLog::new(true, "t", Instant::now());
        log.enter("loadgen.round", 7);
        log.call("graph.pagerank", 7, || ());
        log.call("graph.triangle_count", 7, || ());
        log.exit();
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].parent, s[2].parent), (0, 0));
        assert!(s[0].end_ns >= s[2].end_ns && s[2].start_ns >= s[1].end_ns);

        let mut off = SpanLog::new(false, "t", Instant::now());
        off.enter("loadgen.round", 0);
        assert_eq!(off.call("graph.pagerank", 0, || 5), 5);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
