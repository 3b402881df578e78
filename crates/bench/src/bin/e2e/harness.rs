//! Measurement primitives shared by every workload: the seeded
//! generator, the input digest, the percentile rules, the open-loop
//! schedule and the per-run result record.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only randomness. Inputs are a pure
/// function of `--seed`; the program under test never sees the seed.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Log-uniform rank in `[0, n)`: rank 0 is drawn orders of magnitude
    /// more often than the tail (the `TrafficGen` popularity law).
    pub fn heavy_tailed(&mut self, n: u64) -> u64 {
        (((n as f64).powf(self.next_f64()) - 1.0) as u64).min(n - 1)
    }
}

/// FNV-1a over 64-bit words: input and result digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn write(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// The percentiles a tail may be reported at, per mille.
const LADDER: [usize; 5] = [750, 900, 950, 990, 999];

/// The highest ladder percentile with at least ten samples beyond it,
/// for a distribution of `n` samples; `None` when even p75 has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|&&p| n * (1000 - p) >= 10_000)
        .map(|&p| p as f64 / 1000.0)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The timed region is read in slices of this length: every end-to-end
/// rate and median is taken per slice, and the run reports a quartile
/// of the slices (see [`undisturbed`]).
pub const SLICE: Duration = Duration::from_secs(1);

fn slice_of(at: Duration) -> usize {
    (at.as_nanos() / SLICE.as_nanos()) as usize
}

/// Which quartile of a run's slices stands for the run. On a shared host
/// the noise is one-sided and comes in spells: for seconds at a time a
/// vCPU runs ~15 % slower, or is held altogether, and a run of any
/// affordable length holds an unpredictable share of such seconds, so a
/// whole-run rate or median moves with that share. The better quartile
/// of the slices is what the program did in the seconds the host left it
/// alone, as long as a quarter of the run was left alone. A change to
/// the program moves every slice, and so moves the quartile with it.
pub fn undisturbed(mut per_slice: Vec<f64>, better_is_higher: bool) -> Option<f64> {
    if per_slice.is_empty() {
        return None;
    }
    per_slice.sort_by(f64::total_cmp);
    let p = if better_is_higher { 0.75 } else { 0.25 };
    Some(percentile(&per_slice, p))
}

/// Work completed in a closed or open loop, binned by slice. Each amount
/// is spread evenly over the time since the previous one ended, so a
/// unit of work that straddles a slice boundary is shared between the
/// two slices by time.
#[derive(Default)]
pub struct SlicedWork {
    last: Duration,
    total: f64,
    per_slice: Vec<f64>,
}

impl SlicedWork {
    /// `amount` of work ended `at` (since the timed region began).
    pub fn add(&mut self, at: Duration, amount: f64) {
        self.total += amount;
        let span = at.saturating_sub(self.last).as_secs_f64();
        let (first, last) = (slice_of(self.last), slice_of(at));
        if self.per_slice.len() <= last {
            self.per_slice.resize(last + 1, 0.0);
        }
        if first == last || span == 0.0 {
            self.per_slice[last] += amount;
        } else {
            for slice in first..=last {
                let from = self.last.max(SLICE * slice as u32);
                let to = at.min(SLICE * (slice as u32 + 1));
                self.per_slice[slice] += amount * (to - from).as_secs_f64() / span;
            }
        }
        self.last = self.last.max(at);
    }

    pub fn total(&self) -> f64 {
        self.total
    }

    /// Work per second of every slice the loop ran through to its end.
    pub fn rates(&self) -> Vec<f64> {
        self.per_slice[..slice_of(self.last).min(self.per_slice.len())]
            .iter()
            .map(|w| w / SLICE.as_secs_f64())
            .collect()
    }
}

/// Latency samples (any unit), binned by the slice each ended in.
#[derive(Default)]
pub struct SlicedTimes {
    per_slice: Vec<Vec<f64>>,
}

impl SlicedTimes {
    /// A sample of `value` that ended `at` (since the timed region began).
    pub fn add(&mut self, at: Duration, value: f64) {
        let slice = slice_of(at);
        if self.per_slice.len() <= slice {
            self.per_slice.resize_with(slice + 1, Vec::new);
        }
        self.per_slice[slice].push(value);
    }

    pub fn len(&self) -> usize {
        self.per_slice.iter().map(Vec::len).sum()
    }

    /// The median of every slice that holds a sample, but for the last
    /// slice when there are several: the run ends inside it.
    pub fn medians(&self) -> Vec<f64> {
        let full = self.per_slice.len().saturating_sub(1).max(1);
        self.per_slice[..full.min(self.per_slice.len())]
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s.clone()))
            .collect()
    }

    /// All samples, in no particular order.
    pub fn pooled(self) -> Vec<f64> {
        self.per_slice.into_iter().flatten().collect()
    }
}

/// Nearest-rank `p` quantile of unsorted samples.
pub fn quantile(mut values: Vec<f64>, p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, p)
}

pub fn median(values: Vec<f64>) -> f64 {
    quantile(values, 0.5)
}

/// A fixed-rate open-loop schedule: event `k` is created at
/// `t0 + k / rate`, whatever the system under test does. Latencies are
/// taken from [`OpenLoop::due`], so a stall delays — and is charged to —
/// every later batch until the generator catches up.
pub struct OpenLoop {
    t0: Instant,
    ns_per_event: f64,
}

impl OpenLoop {
    pub fn start(t0: Instant, events_per_s: f64) -> Self {
        OpenLoop {
            t0,
            ns_per_event: 1e9 / events_per_s,
        }
    }

    /// When the batch that starts at event offset `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.t0 + Duration::from_nanos((k as f64 * self.ns_per_event) as u64)
    }

    /// Wait for `due` by yielding, not sleeping. The process runs on one
    /// CPU (`host::pin_to_one_cpu`), which the shards need too, so the
    /// generator hands it to whoever is runnable; and a CPU that is never
    /// idle is not clocked down by the host between batches, which a
    /// sleeping generator's was (latencies 1.4× as long, and unsteady).
    /// Returns how late the generator is (zero when it was early).
    pub fn wait(&self, due: Instant) -> Duration {
        loop {
            let now = Instant::now();
            if now >= due {
                return now - due;
            }
            std::thread::yield_now();
        }
    }
}

/// One named measurement with the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub n: u64,
}

/// Metric name → measurement. Names are checked against the catalog
/// when printed.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, Sample>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, n: u64) {
        self.0.insert(name.to_string(), Sample { value, n });
    }

    /// `total / count`, or 0 when nothing was counted.
    pub fn set_ratio(&mut self, name: &str, total: f64, count: f64) {
        let value = if count > 0.0 { total / count } else { 0.0 };
        self.set(name, value, count as u64);
    }

    /// The `p` quantile of `samples` beside their count; nothing when
    /// there are none (the metric then reads 0).
    pub fn set_quantile(&mut self, name: &str, samples: &[f64], p: f64) {
        if !samples.is_empty() {
            self.set(name, quantile(samples.to_vec(), p), samples.len() as u64);
        }
    }

    pub fn get(&self, name: &str) -> Option<Sample> {
        self.0.get(name).copied()
    }
}

/// Failure notes kept for printing; the counts are never capped.
const NOTES_KEPT: usize = 8;

/// Operations attempted and failed in one run. A failure is a call
/// that returned `Err`, an answer that disagreed with the reference, an
/// open loop that could not hold 99 % of its rate, or a distribution
/// that fell short of its stated sample floor.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Reference mismatches alone: these make the command exit non-zero.
    pub mismatches: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count one reference comparison.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.mismatches += 1;
            self.fail(what());
        }
    }

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < NOTES_KEPT {
            self.notes.push(note);
        }
    }

    /// Say how many open-loop batches were sent more than one window
    /// after they were due. Not a failure: every latency is already
    /// taken from the due instant, and a run fails only when the
    /// generator cannot hold 99 % of its rate (README, "failed").
    pub fn note_late(&mut self, batches: u64, window: Duration) {
        if batches > 0 {
            self.notes.push(format!(
                "{batches} open-loop batches sent more than one window ({window:?}) late"
            ));
        }
    }

    /// Fold in the tally of one segment or thread.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        let room = NOTES_KEPT.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }

    /// A distribution with fewer samples than its workload states cannot
    /// carry the percentile reported for it.
    pub fn sample_floor(&mut self, what: &str, n: usize, floor: usize) {
        if n < floor {
            self.fail(format!(
                "{what}: {n} samples, below the stated floor {floor}"
            ));
        }
    }
}

/// What one pass over one workload produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    /// Digest of the generated input: equal seeds must print equal ones.
    pub input_digest: u64,
}

/// Record the timing-derived end-to-end metrics every workload reports:
/// the rate and the two medians of the run's undisturbed slices
/// ([`undisturbed`]). Beside them, for the traced pass, the same three
/// over the whole run and the two tails, and each distribution is held
/// to its sample floor. `floor` is the workload's stated sample count:
/// the tail percentile is chosen from it, not from the run's own count,
/// so the same percentile is compared run to run.
pub fn set_end_to_end(
    metrics: &mut Metrics,
    tally: &mut Tally,
    (work, wall_s): (&SlicedWork, f64),
    freshness_us: (SlicedTimes, usize),
    query_us: (SlicedTimes, usize),
) {
    let whole = work.total() / wall_s;
    let rates = work.rates();
    let slices = rates.len() as u64;
    let rate = undisturbed(rates, true).unwrap_or(whole);
    metrics.set("work_per_s", rate, slices);
    // The same rate under a per-layer name, so the traced pass reports
    // it too: `--all` sets it against the untraced pass's.
    metrics.set("loadgen.work_per_s", rate, slices);
    metrics.set("loadgen.work_per_s_whole", whole, 1);
    for (stem, (samples, floor)) in [("freshness", freshness_us), ("query", query_us)] {
        let n = samples.len();
        tally.sample_floor(stem, n, floor);
        let Some(p50) = undisturbed(samples.medians(), false) else {
            continue;
        };
        metrics.set(&format!("{stem}_p50_us"), p50, n as u64);
        let mut pooled = samples.pooled();
        pooled.sort_by(f64::total_cmp);
        let tail = tail_percentile(floor).unwrap_or(0.5);
        metrics.set(
            &format!("loadgen.{stem}_p50_whole_us"),
            percentile(&pooled, 0.5),
            n as u64,
        );
        metrics.set(
            &format!("loadgen.{stem}_tail_us"),
            percentile(&pooled, tail),
            n as u64,
        );
    }
}

/// Set up `n` times, dropping each instance before building the next,
/// and keep the last: the timed region runs on it. The second value is
/// `setup_s`, the median set-up time.
pub fn set_up<T>(n: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut kept = None;
    for _ in 0..n.max(1) {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("n ≥ 1 set-ups"), median(times))
}

pub fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(99), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(5_000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn work_is_shared_between_slices_by_time() {
        let at = |ms| Duration::from_millis(ms);
        let mut w = SlicedWork::default();
        w.add(at(500), 10.0); // all in slice 0
        w.add(at(1_500), 10.0); // half in slice 0, half in slice 1
        w.add(at(3_500), 20.0); // 0.5 s of slice 1, all of 2, 0.5 s of 3
        assert_eq!(w.total(), 40.0);
        // Slice 3 is not over: it is left out.
        assert_eq!(w.rates(), vec![15.0, 10.0, 10.0]);
        w.add(at(4_000), 5.0);
        assert_eq!(w.rates(), vec![15.0, 10.0, 10.0, 10.0]);
    }

    #[test]
    fn a_run_reports_the_better_quartile_of_its_slices() {
        // Ten slices, six of them in a slow spell of the host.
        let rates = vec![
            100.0, 85.0, 84.0, 86.0, 99.0, 85.0, 101.0, 85.0, 84.0, 100.0,
        ];
        assert_eq!(undisturbed(rates.clone(), true), Some(100.0));
        let times: Vec<f64> = rates.iter().map(|r| 1e3 / r).collect();
        assert_eq!(undisturbed(times, false), Some(10.0));
        assert_eq!(undisturbed(Vec::new(), true), None);
        // A slower program moves every slice, and the quartile with them.
        let slower = rates.iter().map(|r| r * 0.9).collect();
        assert_eq!(undisturbed(slower, true), Some(90.0));

        let mut t = SlicedTimes::default();
        for (ms, v) in [(100, 3.0), (200, 1.0), (900, 2.0), (2_100, 7.0)] {
            t.add(Duration::from_millis(ms), v);
        }
        // The run ends inside the last slice: it is left out.
        assert_eq!((t.len(), t.medians()), (4, vec![2.0]));
        t.add(Duration::from_millis(3_001), 9.0);
        assert_eq!((t.len(), t.medians()), (5, vec![2.0, 7.0]));
    }

    #[test]
    fn open_loop_charges_a_stall_to_later_batches() {
        let period = Duration::from_millis(1);
        let sched = OpenLoop::start(Instant::now(), 1e3); // one event per ms
        let mut from_due = Vec::new();
        for i in 0..30u64 {
            let due = sched.due(i);
            sched.wait(due);
            if i == 3 {
                std::thread::sleep(Duration::from_millis(50));
            }
            from_due.push(due.elapsed());
        }
        assert!(from_due[2] < Duration::from_millis(20), "{from_due:?}");
        assert!(from_due[3] >= Duration::from_millis(50));
        // Batches 4.. were due during the stall and are sent late: their
        // latency is taken from when they were due, not when they left.
        for (i, &lat) in from_due.iter().enumerate().skip(4).take(10) {
            let expected_lag = Duration::from_millis(50) - period * (i as u32 - 3);
            assert!(lat + period >= expected_lag, "batch {i}: {lat:?}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            let mut d = Digest::default();
            for _ in 0..1_000 {
                d.write(rng.heavy_tailed(4_096));
            }
            d.value()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn end_to_end_metrics_are_reported_as_measured() {
        let (mut m, mut t) = (Metrics::default(), Tally::default());
        // Slice k holds the samples 10k+1 ..= 10k+10, and 100 units of
        // work, but for slice 1 where the host took half the time away;
        // one more sample falls in the slice the run ends in.
        let ramp = |slices: u64| {
            let mut s = SlicedTimes::default();
            for i in 0..=slices * 10 {
                s.add(Duration::from_millis(i * 100), (i + 1) as f64);
            }
            s
        };
        let mut work = SlicedWork::default();
        for (ms, amount) in [
            (1_000, 100.0),
            (2_000, 50.0),
            (3_000, 100.0),
            (4_000, 100.0),
        ] {
            work.add(Duration::from_millis(ms), amount);
        }
        set_end_to_end(&mut m, &mut t, (&work, 4.0), (ramp(5), 40), (ramp(20), 100));
        assert_eq!(m.get("work_per_s").unwrap().value, 100.0);
        assert_eq!(m.get("loadgen.work_per_s").unwrap().value, 100.0);
        assert_eq!(m.get("loadgen.work_per_s_whole").unwrap().value, 87.5);
        // Slice medians 5, 15, 25, 35, 45: the first quartile is 15.
        assert_eq!(m.get("freshness_p50_us").unwrap().value, 15.0);
        assert_eq!(m.get("loadgen.freshness_p50_whole_us").unwrap().value, 26.0);
        assert_eq!(m.get("loadgen.freshness_tail_us").unwrap().value, 39.0); // p75 of 51
        assert_eq!(m.get("query_p50_us").unwrap().value, 45.0); // 5th of 20 slice medians
        assert_eq!(m.get("loadgen.query_tail_us").unwrap().value, 181.0); // p90 of 201
        assert_eq!(t.failed, 0);
        // Fewer samples than the stated floor is a failed operation.
        set_end_to_end(&mut m, &mut t, (&work, 4.0), (ramp(3), 40), (ramp(20), 100));
        assert_eq!(t.failed, 1);
    }

    #[test]
    fn tally_counts_mismatches_as_failures() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        t.check(false, || "cell (1, 2) differs".into());
        t.op::<(), _>("ingest", Err("full"));
        t.sample_floor("query", 10, 40);
        assert_eq!((t.attempted, t.failed, t.mismatches), (3, 3, 1));
        t.note_late(5, Duration::from_millis(20));
        assert_eq!((t.failed, t.notes.len()), (3, 4));
    }
}
