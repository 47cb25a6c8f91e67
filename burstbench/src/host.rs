//! Host-side measurement helpers: order statistics, process CPU time and
//! peak RSS from `getrusage`, and the provenance stamp printed with every
//! run.

use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice — every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Call `f` until `budget_s` seconds have passed (at least 3 times) and
/// return the median host seconds per call.
pub fn time_median(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Linux's `struct rusage`: two `timeval`s, then fourteen counters, every
/// field a C `long`.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [std::ffi::c_long; 2],
    stime: [std::ffi::c_long; 2],
    maxrss_kb: std::ffi::c_long,
    _counters: [std::ffi::c_long; 13],
}

extern "C" {
    fn getrusage(who: std::ffi::c_int, usage: *mut Rusage) -> std::ffi::c_int;
}

/// Resource usage of the whole process: every thread, including rank
/// threads that have already exited.
fn rusage() -> Option<Rusage> {
    const RUSAGE_SELF: std::ffi::c_int = 0;
    let mut r = Rusage::default();
    // SAFETY: `r` is a live, writable value laid out as the C `struct
    // rusage`, and RUSAGE_SELF is a valid `who`; getrusage writes only
    // into `*usage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    (rc == 0).then_some(r)
}

/// User + system CPU seconds of the process so far.
pub fn process_cpu_s() -> f64 {
    let secs = |tv: [std::ffi::c_long; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    rusage().map_or(f64::NAN, |r| secs(r.utime) + secs(r.stime))
}

/// Peak resident set size of the process in bytes.
pub fn peak_rss_bytes() -> f64 {
    rusage().map_or(f64::NAN, |r| r.maxrss_kb as f64 * 1024.0)
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{refname}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == refname).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One-line provenance stamp: host parallelism, thread knob, kernel
/// dispatch path, commit and workload seed.
pub fn stamp(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rayon = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".to_string());
    format!(
        "stamp: nproc={nproc} RAYON_NUM_THREADS={rayon} simd={} commit={} seed={seed}",
        burst_tensor::simd::dispatch_label(),
        git_commit()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn proc_counters_are_positive() {
        assert!(peak_rss_bytes() > 0.0);
        assert!(process_cpu_s() > 0.0);
    }
}
