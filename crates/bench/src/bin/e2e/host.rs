//! Host calibration taken in the same run as the numbers it explains:
//! core count, clock resolution, copy bandwidth, and the process's
//! peak resident set.

use std::time::Instant;

/// Copy buffers are capped here so calibration cannot dominate the
/// run's memory; the size used is always stated next to the result.
const MEMCPY_CAP_BYTES: usize = 256 << 20;
const MEMCPY_FLOOR_BYTES: usize = 64 << 20;

pub struct Host {
    pub nproc: usize,
    pub timer_ns: f64,
    pub llc_bytes: usize,
    pub memcpy_bytes: usize,
    pub memcpy_gb_per_s: f64,
}

/// CPUs this process may run on (one, once it is pinned).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Restrict the calling thread, and every thread it spawns from now on,
/// to the lowest-numbered CPU it may run on; returns that CPU, or `None`
/// where the kernel refuses or is not Linux (the run then goes on
/// unpinned). A run measures on one CPU because the sandbox it is judged
/// in has two, shared with other tenants: with shards, writer and reader
/// spread over both, where the scheduler put them and which vCPU the host
/// was slowing decided the numbers (run-to-run spreads of 12-34 %,
/// against 4-12 % pinned, on the same build in the same hour).
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        // std links the C library already; these are its two calls.
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let mut allowed = [0u64; 16];
        let bytes = std::mem::size_of_val(&allowed);
        // SAFETY: the kernel writes at most `bytes` bytes into `allowed`.
        if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = allowed.iter().position(|&bits| bits != 0)?;
        let cpu = word * 64 + allowed[word].trailing_zeros() as usize;
        let mut one = [0u64; 16];
        one[word] = 1 << (cpu % 64);
        // SAFETY: the kernel reads `bytes` bytes from `one`.
        (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Last-level cache size as the kernel reports it for cpu0 (the
/// highest cache index), or 32 MiB when sysfs does not say.
fn llc_bytes() -> usize {
    let mut best = None;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            break;
        };
        let text = text.trim();
        let (digits, scale) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1 << 10),
            Some(b'M') => (&text[..text.len() - 1], 1 << 20),
            _ => (text, 1),
        };
        if let Ok(n) = digits.parse::<usize>() {
            best = Some(n * scale);
        }
    }
    best.unwrap_or(32 << 20)
}

/// Smallest non-zero step of the monotonic clock, in nanoseconds.
fn timer_ns() -> f64 {
    let mut best = u128::MAX;
    for _ in 0..10_000 {
        let a = Instant::now();
        let mut b = Instant::now();
        while b == a {
            b = Instant::now();
        }
        best = best.min((b - a).as_nanos());
    }
    best as f64
}

/// Best-of-three single-thread copy of a buffer four times the LLC
/// (within the cap), counted as bytes read plus bytes written.
fn memcpy_gb_per_s(bytes: usize) -> f64 {
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    2.0 * bytes as f64 / best / 1e9
}

/// `nproc` is the count taken before the run pinned itself.
pub fn calibrate(nproc: usize) -> Host {
    let llc = llc_bytes();
    let memcpy_bytes = (4 * llc).clamp(MEMCPY_FLOOR_BYTES, MEMCPY_CAP_BYTES);
    Host {
        nproc,
        timer_ns: timer_ns(),
        llc_bytes: llc,
        memcpy_bytes,
        memcpy_gb_per_s: memcpy_gb_per_s(memcpy_bytes),
    }
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}
