//! Span tracing, latency histograms, and Prometheus exposition.
//!
//! The deployed-analytics lineage of this work (GraphBLAS hypersparse
//! network telemetry) lives or dies by per-stage timing visibility: which
//! kernel, inside which snapshot, inside which query, is eating the
//! budget. The counter layer ([`crate::metrics`]) answers *how much
//! total*; this module answers *how distributed* and *in what shape*:
//!
//! * [`Histogram`] — log₂-bucketed latency distributions, recorded with
//!   one relaxed atomic add on the hot path, mergeable across shard
//!   registries exactly like [`crate::MetricsSnapshot`] counters (merge
//!   is element-wise add, hence associative and commutative). p50/p95/p99
//!   fall out of the cumulative buckets ([`HistogramSnapshot::quantile`]).
//! * [`TraceRegistry`] / [`Span`] — RAII span guards forming a
//!   per-context hierarchical timing tree. Every `*_ctx` kernel and every
//!   pipeline stage enters a span; nesting is tracked per thread, so a
//!   `snapshot` span owns the `stream_merge`/`ewise_add` kernel spans its
//!   ⊕-fold triggers. A configurable **slow-op threshold** flags spans
//!   that overran it, carrying the operand shapes the kernel recorded.
//! * [`Exposition`] — the one Prometheus text writer; every layer's
//!   `expose` writes its families into it and a scrape body is composed
//!   by handing it down the layers.
//!
//! **Disabled mode is the default and costs one relaxed atomic load per
//! span site** — no clock read, no allocation, no thread-local touch
//! (measured <2% on `pipeline_throughput`; see `EXPERIMENTS.md`).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of log₂ latency buckets: bucket `i` holds durations in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also catches sub-nanosecond
/// readings), and the last bucket absorbs everything from ~9 minutes up.
pub const BUCKETS: usize = 40;

/// The bucket a duration of `ns` nanoseconds lands in.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    ((63 - ns.max(1).leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Upper bound (exclusive), in nanoseconds, of bucket `i` — the
/// Prometheus `le` boundary. The last bucket is unbounded (`+Inf`).
#[inline]
pub fn bucket_le_ns(i: usize) -> Option<u64> {
    if i + 1 >= BUCKETS {
        None
    } else {
        Some(1u64 << (i + 1))
    }
}

/// A live log₂-bucketed latency histogram. Recording is one relaxed
/// `fetch_add` per bucket plus one for the sum — safe and cheap from
/// parallel shards.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, elapsed: Duration) {
        self.record_ns(elapsed.as_nanos() as u64);
    }

    /// Record one observation given directly in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Freeze the buckets into an owned snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }

    /// Zero every bucket.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum_ns.store(0, Ordering::Relaxed);
    }
}

/// A frozen [`Histogram`]: plain counts, mergeable and comparable.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count per log₂ bucket (see [`bucket_of`]).
    pub buckets: [u64; BUCKETS],
    /// Sum of all observed durations, in nanoseconds.
    pub sum_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            sum_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Element-wise add `other` into `self`. Associative and
    /// commutative, so shard histograms fold in any order to the same
    /// total — the same contract `MetricsSnapshot` merging relies on.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (t, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *t += o;
        }
        self.sum_ns += other.sum_ns;
    }

    /// Upper-bound estimate of the `q`-quantile (`0 < q ≤ 1`) in
    /// nanoseconds: the exclusive upper edge of the bucket holding the
    /// `⌈q·count⌉`-th observation (`u64::MAX` for the unbounded last
    /// bucket, `0` when empty). `quantile(0.5)`/`(0.95)`/`(0.99)` are
    /// p50/p95/p99.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_le_ns(i).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

/// The one Prometheus text-format (0.0.4) writer: every layer's
/// `expose` hands it families, and a scrape body is whatever has been
/// written when [`Exposition::finish`] is called. One call per family
/// and one rule for empty input: a family with no rows is omitted, and
/// so is a histogram row with no observations.
///
/// A label set is the rendered pairs without braces (`kernel="mxm"`),
/// `""` for none. Debug builds assert that a body declares each family
/// once and writes each series once — a scraper rejects a body that
/// does either twice.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
    seen: std::collections::HashSet<String>,
}

impl Exposition {
    /// One counter or gauge family (`kind`): its header, then one
    /// `name{labels} value` line per row.
    pub fn family<L: AsRef<str>, V: std::fmt::Display>(
        &mut self,
        name: &str,
        kind: &str,
        help: &str,
        rows: impl IntoIterator<Item = (L, V)>,
    ) {
        let mut rows = rows.into_iter().peekable();
        if rows.peek().is_some() {
            self.declare(name, kind, help);
        }
        for (labels, value) in rows {
            self.sample(name, labels.as_ref(), value);
        }
    }

    /// One histogram family, in seconds: per row the cumulative
    /// `_bucket` lines from the first through the last non-empty bucket,
    /// then `+Inf`, `_sum` and `_count`.
    pub fn histograms<'a, L: AsRef<str>>(
        &mut self,
        name: &str,
        help: &str,
        rows: impl IntoIterator<Item = (L, &'a HistogramSnapshot)>,
    ) {
        let mut rows = rows.into_iter().filter(|(_, h)| h.count() > 0).peekable();
        if rows.peek().is_some() {
            self.declare(name, "histogram", help);
        }
        let bucket = format!("{name}_bucket");
        for (labels, h) in rows {
            let labels = labels.as_ref();
            let sep = if labels.is_empty() { "" } else { "," };
            let last = h.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
            let mut cum = 0u64;
            for (b, count) in h.buckets[..=last].iter().enumerate() {
                cum += count;
                // The unbounded last bucket is covered by the +Inf line below.
                if let (true, Some(le)) = (cum > 0, bucket_le_ns(b)) {
                    let le = le as f64 / 1e9;
                    self.sample(&bucket, &format!("{labels}{sep}le=\"{le}\""), cum);
                }
            }
            self.sample(&bucket, &format!("{labels}{sep}le=\"+Inf\""), cum);
            self.sample(&format!("{name}_sum"), labels, h.sum_ns as f64 / 1e9);
            self.sample(&format!("{name}_count"), labels, cum);
        }
    }

    /// The body written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn declare(&mut self, name: &str, kind: &str, help: &str) {
        use std::fmt::Write;
        debug_assert!(
            self.seen.insert(format!("# {name}")),
            "family {name} declared twice"
        );
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// One `name{labels} value` line (no braces for an empty label set).
    fn sample(&mut self, name: &str, labels: &str, value: impl std::fmt::Display) {
        use std::fmt::Write;
        let series = if labels.is_empty() {
            name.to_string()
        } else {
            format!("{name}{{{labels}}}")
        };
        debug_assert!(
            self.seen.insert(series.clone()),
            "series {series} written twice"
        );
        let _ = writeln!(self.out, "{series} {value}");
    }
}

/// How much span machinery runs (see [`TraceRegistry::set_mode`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// No spans: one relaxed atomic load per span site, nothing else.
    #[default]
    Disabled,
    /// Spans are timed but only those over the slow-op threshold are
    /// retained (production-friendly: bounded memory, offenders kept).
    SlowOnly,
    /// Every span is retained, with parent links for tree rendering.
    Full,
}

impl TraceMode {
    fn from_u8(v: u8) -> TraceMode {
        match v {
            1 => TraceMode::SlowOnly,
            2 => TraceMode::Full,
            _ => TraceMode::Disabled,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            TraceMode::Disabled => 0,
            TraceMode::SlowOnly => 1,
            TraceMode::Full => 2,
        }
    }
}

/// One completed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Registry-unique span id.
    pub id: u64,
    /// Enclosing span on the same registry and thread, if any.
    pub parent: Option<u64>,
    /// Span name (a kernel name or pipeline stage).
    pub name: &'static str,
    /// Operand shapes / free-form detail captured at entry.
    pub detail: String,
    /// Start offset from the registry's origin, in nanoseconds.
    pub start_ns: u64,
    /// Span duration, in nanoseconds.
    pub elapsed_ns: u64,
    /// Whether the span overran the slow-op threshold.
    pub slow: bool,
}

thread_local! {
    /// Per-thread stack of (registry identity, span id) for active spans.
    static ACTIVE: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Per-context span collector. Lives inside [`crate::ctx::OpCtx`]
/// (reachable as `ctx.trace()`); disabled by default.
#[derive(Debug)]
pub struct TraceRegistry {
    mode: AtomicU8,
    slow_ns: AtomicU64,
    next_id: AtomicU64,
    dropped: AtomicU64,
    max_spans: AtomicUsize,
    spans: Mutex<Vec<SpanRecord>>,
    origin: Instant,
}

/// Retained spans are capped (oldest kept) so a forgotten `Full` trace
/// cannot grow without bound; `dropped()` reports the overflow.
const DEFAULT_MAX_SPANS: usize = 1 << 16;

impl Default for TraceRegistry {
    fn default() -> Self {
        TraceRegistry {
            mode: AtomicU8::new(0),
            slow_ns: AtomicU64::new(u64::MAX),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            max_spans: AtomicUsize::new(DEFAULT_MAX_SPANS),
            spans: Mutex::new(Vec::new()),
            origin: Instant::now(),
        }
    }
}

impl TraceRegistry {
    /// The active [`TraceMode`].
    pub fn mode(&self) -> TraceMode {
        TraceMode::from_u8(self.mode.load(Ordering::Relaxed))
    }

    /// Switch tracing on or off. Takes `&self` so a shared context can
    /// be toggled mid-flight.
    pub fn set_mode(&self, mode: TraceMode) {
        self.mode.store(mode.as_u8(), Ordering::Relaxed);
    }

    /// Spans at or over `threshold` are flagged `slow` (and retained
    /// even in [`TraceMode::SlowOnly`]). Pass `None` to clear.
    pub fn set_slow_threshold(&self, threshold: Option<Duration>) {
        self.slow_ns.store(
            threshold.map_or(u64::MAX, |d| d.as_nanos() as u64),
            Ordering::Relaxed,
        );
    }

    /// Cap on retained spans (further spans are counted, not kept).
    pub fn set_max_spans(&self, max: usize) {
        self.max_spans.store(max, Ordering::Relaxed);
    }

    /// Spans discarded because the retention cap was hit.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Open a span. `detail` is evaluated only when tracing is active,
    /// so shape strings cost nothing in disabled mode. The returned
    /// guard records the span on drop.
    #[inline]
    pub fn span(&self, name: &'static str, detail: impl FnOnce() -> String) -> Span<'_> {
        let mode = self.mode();
        if mode == TraceMode::Disabled {
            return Span {
                reg: None,
                id: 0,
                parent: None,
                name,
                detail: String::new(),
                start: self.origin,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = if mode == TraceMode::Full {
            let key = self as *const TraceRegistry as usize;
            ACTIVE.with(|a| {
                let mut a = a.borrow_mut();
                let parent = a.iter().rev().find(|(k, _)| *k == key).map(|&(_, id)| id);
                a.push((key, id));
                parent
            })
        } else {
            None
        };
        Span {
            reg: Some(self),
            id,
            parent,
            name,
            detail: detail(),
            start: Instant::now(),
        }
    }

    /// Record a span measured externally (e.g. a restore that completed
    /// before any registry existed to host its guard).
    pub fn record_span(&self, name: &'static str, detail: String, elapsed: Duration) {
        if self.mode() == TraceMode::Disabled {
            return;
        }
        let elapsed_ns = elapsed.as_nanos() as u64;
        let slow = elapsed_ns >= self.slow_ns.load(Ordering::Relaxed);
        if self.mode() == TraceMode::SlowOnly && !slow {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(SpanRecord {
            id,
            parent: None,
            name,
            detail,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            elapsed_ns,
            slow,
        });
    }

    fn push(&self, rec: SpanRecord) {
        let mut spans = self.spans.lock().expect("trace mutex");
        if spans.len() >= self.max_spans.load(Ordering::Relaxed) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            spans.push(rec);
        }
    }

    /// Clone of every retained span.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("trace mutex").clone()
    }

    /// Retained spans that overran the slow-op threshold.
    pub fn slow_spans(&self) -> Vec<SpanRecord> {
        self.spans().into_iter().filter(|s| s.slow).collect()
    }

    /// Discard retained spans and reset the drop counter.
    pub fn clear(&self) {
        self.spans.lock().expect("trace mutex").clear();
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Render the span tree: children indented under parents, siblings
    /// in start order, slow spans flagged `[slow]`.
    pub fn report(&self) -> String {
        render_tree(&self.spans())
    }
}

/// Render a set of [`SpanRecord`]s as an indented tree.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    use std::fmt::Write;
    let mut children: std::collections::HashMap<u64, Vec<&SpanRecord>> = Default::default();
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in spans {
        match s.parent {
            Some(p) if ids.contains(&p) => children.entry(p).or_default().push(s),
            _ => roots.push(s),
        }
    }
    let by_start = |a: &&SpanRecord, b: &&SpanRecord| a.start_ns.cmp(&b.start_ns);
    roots.sort_by(by_start);
    for v in children.values_mut() {
        v.sort_by(by_start);
    }
    let mut out = String::new();
    fn emit(
        out: &mut String,
        s: &SpanRecord,
        depth: usize,
        children: &std::collections::HashMap<u64, Vec<&SpanRecord>>,
    ) {
        let pad = "  ".repeat(depth);
        let slow = if s.slow { "  [slow]" } else { "" };
        let detail = if s.detail.is_empty() {
            String::new()
        } else {
            format!("  ({})", s.detail)
        };
        let _ = writeln!(
            out,
            "{pad}{:<width$} {:>10.3} ms{detail}{slow}",
            s.name,
            s.elapsed_ns as f64 / 1e6,
            width = 24usize.saturating_sub(pad.len()),
        );
        for c in children.get(&s.id).map(|v| v.as_slice()).unwrap_or(&[]) {
            emit(out, c, depth + 1, children);
        }
    }
    for r in roots {
        emit(&mut out, r, 0, &children);
    }
    out
}

/// RAII span guard: times the region from construction to drop and
/// records it into the owning [`TraceRegistry`]. In disabled mode the
/// guard is inert (no clock read, no record).
pub struct Span<'a> {
    reg: Option<&'a TraceRegistry>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    detail: String,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(reg) = self.reg else { return };
        let elapsed_ns = self.start.elapsed().as_nanos() as u64;
        let mode = reg.mode();
        if mode == TraceMode::Full {
            let key = reg as *const TraceRegistry as usize;
            ACTIVE.with(|a| {
                let mut a = a.borrow_mut();
                if let Some(pos) = a.iter().rposition(|&e| e == (key, self.id)) {
                    a.remove(pos);
                }
            });
        }
        let slow = elapsed_ns >= reg.slow_ns.load(Ordering::Relaxed);
        if mode == TraceMode::SlowOnly && !slow {
            return;
        }
        if mode == TraceMode::Disabled {
            return; // mode flipped off mid-span: drop the record
        }
        reg.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            detail: std::mem::take(&mut self.detail),
            start_ns: self.start.duration_since(reg.origin).as_nanos() as u64,
            elapsed_ns,
            slow,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_le_ns(0), Some(2));
        assert_eq!(bucket_le_ns(BUCKETS - 1), None);
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record_ns(1_000); // bucket 9, le 1024ns
        }
        for _ in 0..9 {
            h.record_ns(1 << 20); // ~1ms
        }
        h.record_ns(1 << 30); // ~1s outlier
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.quantile(0.5), 1024);
        assert_eq!(s.quantile(0.95), 1 << 21);
        assert_eq!(s.quantile(0.99), 1 << 21);
        assert_eq!(s.quantile(1.0), 1 << 31);
        assert_eq!(s.sum_ns, 90 * 1_000 + 9 * (1 << 20) + (1 << 30));
        h.reset();
        assert_eq!(h.snapshot().count(), 0);
        assert_eq!(h.snapshot().quantile(0.5), 0);
    }

    #[test]
    fn merge_is_elementwise_and_associative() {
        let mk = |ns: &[u64]| {
            let h = Histogram::default();
            for &n in ns {
                h.record_ns(n);
            }
            h.snapshot()
        };
        let (a, b, c) = (mk(&[5, 80, 3000]), mk(&[17]), mk(&[1 << 25, 2]));
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.count(), 6);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let reg = TraceRegistry::default();
        {
            let _s = reg.span("mxm", || panic!("detail must not be evaluated"));
        }
        assert!(reg.spans().is_empty());
    }

    #[test]
    fn full_mode_builds_a_tree() {
        let reg = TraceRegistry::default();
        reg.set_mode(TraceMode::Full);
        {
            let _outer = reg.span("snapshot", || "epoch 3".into());
            {
                let _inner = reg.span("stream_merge", String::new);
            }
            {
                let _inner = reg.span("ewise_add", String::new);
            }
        }
        let spans = reg.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "snapshot").unwrap();
        for inner in spans.iter().filter(|s| s.name != "snapshot") {
            assert_eq!(inner.parent, Some(outer.id), "{inner:?}");
        }
        let tree = reg.report();
        let (o, i) = (
            tree.find("snapshot").unwrap(),
            tree.find("  stream_merge").unwrap(),
        );
        assert!(o < i, "parent renders before indented child:\n{tree}");
        assert!(tree.contains("(epoch 3)"), "{tree}");
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let reg = TraceRegistry::default();
        reg.set_mode(TraceMode::Full);
        {
            let _a = reg.span("a", String::new);
        }
        {
            let _b = reg.span("b", String::new);
        }
        let spans = reg.spans();
        assert!(spans.iter().all(|s| s.parent.is_none()), "{spans:?}");
    }

    #[test]
    fn two_registries_on_one_thread_stay_separate() {
        let r1 = TraceRegistry::default();
        let r2 = TraceRegistry::default();
        r1.set_mode(TraceMode::Full);
        r2.set_mode(TraceMode::Full);
        {
            let _outer = r1.span("outer", String::new);
            let _other = r2.span("other", String::new);
            let _inner = r1.span("inner", String::new);
        }
        let other = &r2.spans()[0];
        assert_eq!(other.parent, None, "r1's span must not parent r2's");
        let spans = r1.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
    }

    #[test]
    fn slow_only_keeps_offenders() {
        let reg = TraceRegistry::default();
        reg.set_mode(TraceMode::SlowOnly);
        reg.set_slow_threshold(Some(Duration::from_millis(5)));
        {
            let _fast = reg.span("fast", String::new);
        }
        {
            let _slow = reg.span("slow", || "4096×4096 nnz=1e6".into());
            std::thread::sleep(Duration::from_millis(6));
        }
        let spans = reg.spans();
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert_eq!(spans[0].name, "slow");
        assert!(spans[0].slow);
        assert_eq!(spans[0].detail, "4096×4096 nnz=1e6");
        assert_eq!(reg.slow_spans().len(), 1);
        assert!(reg.report().contains("[slow]"));
    }

    #[test]
    fn span_cap_bounds_memory() {
        let reg = TraceRegistry::default();
        reg.set_mode(TraceMode::Full);
        reg.set_max_spans(3);
        for _ in 0..5 {
            let _s = reg.span("k", String::new);
        }
        assert_eq!(reg.spans().len(), 3);
        assert_eq!(reg.dropped(), 2);
        reg.clear();
        assert_eq!(reg.dropped(), 0);
        assert!(reg.spans().is_empty());
    }

    #[test]
    fn record_span_respects_mode() {
        let reg = TraceRegistry::default();
        reg.record_span("restore", String::new(), Duration::from_millis(1));
        assert!(reg.spans().is_empty(), "disabled mode records nothing");
        reg.set_mode(TraceMode::Full);
        reg.record_span("restore", "gen 3".into(), Duration::from_millis(1));
        assert_eq!(reg.spans().len(), 1);
    }

    #[test]
    fn prometheus_histogram_exposition_shape() {
        let h = Histogram::default();
        h.record_ns(1_000); // bucket 9 → le 1024
        h.record_ns(1_500); // bucket 10 → le 2048
        let bare = Histogram::default();
        bare.record_ns(3); // bucket 1 → le 4
        let (labelled, bare, empty) = (h.snapshot(), bare.snapshot(), HistogramSnapshot::default());
        let mut out = Exposition::default();
        out.histograms(
            "x_seconds",
            "x",
            [("kernel=\"mxm\"", &labelled), ("kernel=\"idle\"", &empty)],
        );
        out.histograms("y_seconds", "y", [("", &bare)]);
        out.histograms("z_seconds", "z", [("", &empty)]);
        out.family("n_total", "counter", "n", [("", 7u64)]);
        out.family("m_total", "counter", "m", std::iter::empty::<(&str, u64)>());
        let out = out.finish();
        assert!(
            out.starts_with("# HELP x_seconds x\n# TYPE x_seconds histogram\n"),
            "{out}"
        );
        assert!(
            out.contains("x_seconds_bucket{kernel=\"mxm\",le=\"0.000001024\"} 1"),
            "{out}"
        );
        assert!(
            out.contains("x_seconds_bucket{kernel=\"mxm\",le=\"0.000002048\"} 2"),
            "{out}"
        );
        assert!(
            out.contains("x_seconds_bucket{kernel=\"mxm\",le=\"+Inf\"} 2"),
            "{out}"
        );
        assert!(
            out.contains("x_seconds_sum{kernel=\"mxm\"} 0.0000025"),
            "{out}"
        );
        assert!(out.contains("x_seconds_count{kernel=\"mxm\"} 2"), "{out}");
        assert!(out.contains("y_seconds_bucket{le=\"+Inf\"} 1"), "{out}");
        assert!(out.contains("y_seconds_count 1"), "{out}");
        assert!(out.contains("# TYPE n_total counter\nn_total 7\n"), "{out}");
        // One rule for empty input: no observations, no row; no rows, no family.
        for absent in ["idle", "z_seconds", "m_total"] {
            assert!(!out.contains(absent), "{absent} in {out}");
        }
    }
}
