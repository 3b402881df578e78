//! Shared helpers for the gated benches and the paper-artifact examples.
//!
//! The benches under `benches/` write the `BENCH_*.json` records that
//! [`gate`] judges. Every table and figure of the paper is a root
//! example (`examples/`, a dev-dependency of the `hyperspace` facade)
//! that prints the rows the paper shows, recorded in `EXPERIMENTS.md`.
//!
//! [`quick_time`] times those rows: median of a few warm iterations,
//! good enough for "who wins and by roughly what factor" without
//! Criterion's full statistics.

pub mod gate;
pub mod record;

pub use record::BenchRecord;

use std::time::{Duration, Instant};

/// Median wall time of `iters` runs of `f` (after one warmup run).
/// The closure's result is returned from the last run so the work
/// cannot be optimized away.
pub fn quick_time<T>(iters: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut out = f(); // warmup
    let mut times: Vec<Duration> = Vec::with_capacity(iters);
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        out = f();
        times.push(t.elapsed());
    }
    times.sort();
    (times[times.len() / 2], out)
}

/// Pretty-print a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Pretty-print bytes in adaptive units.
pub fn fmt_bytes(b: usize) -> String {
    if b < 4 << 10 {
        format!("{b} B")
    } else if b < 4 << 20 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else if b < (4usize << 30) {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else {
        format!("{:.2} GiB", b as f64 / (1 << 30) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_time_returns_result() {
        let (d, v) = quick_time(3, || (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn formatters() {
        assert!(fmt_dur(Duration::from_nanos(500)).contains("ns"));
        assert!(fmt_dur(Duration::from_micros(500)).contains("µs"));
        assert!(fmt_dur(Duration::from_millis(500)).contains("ms"));
        assert!(fmt_dur(Duration::from_secs(500)).contains(" s"));
        assert_eq!(fmt_bytes(100), "100 B");
        assert!(fmt_bytes(100 << 10).contains("KiB"));
        assert!(fmt_bytes(100 << 20).contains("MiB"));
    }
}
