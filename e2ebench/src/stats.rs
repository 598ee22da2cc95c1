//! Order statistics and process measurements.

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 for
/// none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median over `windows` equal time windows of `[from, to)` of each
/// window's percentile `q`; samples are `(time, value)` and those before
/// `from` are left out. A transient slowdown of the host moves one
/// window's percentile, not the result.
pub fn windowed_percentile(
    samples: &[(f64, f64)],
    from: f64,
    to: f64,
    windows: usize,
    q: f64,
) -> f64 {
    let width = (to - from) / windows as f64;
    let per_window: Vec<f64> = (0..windows)
        .filter_map(|w| {
            let lo = from + width * w as f64;
            let hi = lo + width;
            let last = w + 1 == windows;
            let v: Vec<f64> = samples
                .iter()
                .filter(|(t, _)| *t >= lo && (*t < hi || last))
                .map(|s| s.1)
                .collect();
            (!v.is_empty()).then(|| percentile(&v, q))
        })
        .collect();
    median(&per_window)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs `f` `reps` times and returns the median wall time in ms plus the
/// last result.
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let r = std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    (median(&times), last.expect("reps >= 1"))
}
