//! Quantiles, summaries and the seeded arrival schedule.

use hybriddnn::model::synth::SplitMix64;

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quantile of request latencies where `failed` further requests never
/// produced a good response. A failure misses every latency limit, so it
/// enters the distribution as +∞ — above every measured sample.
pub fn latency_quantile(sorted_ok: &[f64], failed: usize, q: f64) -> f64 {
    let n = sorted_ok.len() + failed;
    assert!(n > 0, "quantile of no requests");
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if rank > sorted_ok.len() {
        f64::INFINITY
    } else {
        sorted_ok[rank - 1]
    }
}

pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// Median and quartiles of a set of samples, as recorded in result files.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        sort(&mut v);
        Summary {
            n: v.len(),
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The mean of the middle 80 % of the samples. For samples that fall
/// into two modes a median jumps from one mode to the other as their
/// shares cross a half; this moves smoothly with the shares, and still
/// ignores the outliers a plain mean would follow.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    let mut v = samples.to_vec();
    sort(&mut v);
    let kept = &v[v.len() / 10..v.len() - v.len() / 10];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nanoseconds per call of `f`, over `n` back-to-back calls: for probes
/// too short to time one at a time.
pub fn ns_per_call(n: u32, mut f: impl FnMut()) -> f64 {
    let t0 = std::time::Instant::now();
    for _ in 0..n {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / f64::from(n)
}

/// Poisson arrivals at `rate` per second over `seconds`: due times in
/// nanoseconds from the phase start, a pure function of the seed.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x0A11_1FA1_5EED);
    let horizon = seconds * 1e9;
    let mut due = Vec::with_capacity((rate * seconds * 1.05) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 53 uniform bits in (0, 1]: the logarithm is finite.
        let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / rate * 1e9;
        if t >= horizon {
            return due;
        }
        due.push(t as u64);
    }
}

/// Each window's latency quantile, where a window is `per_window`
/// consecutive requests in due-time order; the metric is their median.
/// `ok` are `(due_ns, latency_us)` of good responses, `failed_due` the
/// due times of requests that failed (they count as +∞); requests due
/// before `warm_ns` are traffic, not measurement. Every request is in
/// some window: the requests are split evenly into as many windows as
/// hold at least `per_window` each (one, if there are fewer than that).
pub fn window_quantiles(
    ok: &[(u64, f64)],
    failed_due: &[u64],
    warm_ns: u64,
    per_window: usize,
    q: f64,
) -> Vec<f64> {
    let mut requests: Vec<(u64, f64)> = ok
        .iter()
        .copied()
        .chain(failed_due.iter().map(|&due| (due, f64::INFINITY)))
        .filter(|&(due, _)| due >= warm_ns)
        .collect();
    if requests.is_empty() {
        return Vec::new();
    }
    requests.sort_by_key(|&(due, _)| due);
    let windows = (requests.len() / per_window).max(1);
    requests
        .chunks(requests.len().div_ceil(windows))
        .map(|w| {
            let mut latencies: Vec<f64> = w.iter().map(|&(_, lat)| lat).collect();
            sort(&mut latencies);
            quantile(&latencies, q)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn failures_enter_latency_quantiles_as_infinity() {
        let ok: Vec<f64> = (1..=98).map(f64::from).collect();
        // 100 requests, two failed: p50 is untouched, p98 is the slowest
        // good response, p99 is already a failure.
        assert_eq!(latency_quantile(&ok, 2, 0.50), 50.0);
        assert_eq!(latency_quantile(&ok, 2, 0.98), 98.0);
        assert_eq!(latency_quantile(&ok, 2, 0.99), f64::INFINITY);
        assert_eq!(latency_quantile(&[], 3, 0.5), f64::INFINITY);
        assert_eq!(latency_quantile(&ok, 0, 0.99), 98.0);
    }

    #[test]
    fn summary_quartiles_and_spread() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (4, 1.0, 2.0, 3.0));
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_from_each_end() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        v[19] = 1e9;
        v[0] = -1e9;
        // 2 and 19 go too; 3..=18 stay.
        assert_eq!(trimmed_mean(&v), 10.5);
        assert_eq!(trimmed_mean(&[4.0, 2.0]), 3.0);
        // Two modes, 45 % and 55 %: between them, not on one of them.
        let modes: Vec<f64> = (0..100).map(|i| if i < 45 { 1.9 } else { 2.7 }).collect();
        assert!((trimmed_mean(&modes) - 2.35).abs() < 0.02);
        assert_eq!(median(&modes), 2.7);
    }

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(7, 10_000.0, 1.0);
        assert_eq!(a, poisson_schedule(7, 10_000.0, 1.0));
        assert_ne!(a, poisson_schedule(8, 10_000.0, 1.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(*a.last().unwrap() < 1_000_000_000);
        // The count is Poisson(10 000): ±5σ is ±500.
        assert!((9_500..=10_500).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn the_median_window_ignores_a_stall_but_not_failures() {
        // A warm-up window, then three windows of 100 requests; the
        // middle one holds a stall, the median window does not.
        let mut samples = Vec::new();
        for w in 0..4u64 {
            for i in 0..100u64 {
                let lat = if w == 2 { 900.0 } else { 10.0 + w as f64 };
                samples.push((w * 1_000 + i, lat));
            }
        }
        let windows = window_quantiles(&samples, &[], 1_000, 100, 0.99);
        assert_eq!(windows, [11.0, 900.0, 13.0]);
        assert_eq!(median(&windows), 13.0);
        // 250 requests make two windows of 125, not two of 100 and a
        // remainder; too few requests for one window make one window.
        assert_eq!(
            window_quantiles(&samples[..350], &[], 1_000, 100, 0.5),
            [11.0, 900.0]
        );
        assert_eq!(
            window_quantiles(&samples[..350], &[], 1_000, 100, 0.99),
            [900.0, 900.0]
        );
        assert_eq!(window_quantiles(&samples, &[], 3_050, 100, 0.5), [13.0]);
        // Two failed requests among a window's hundred make its p99
        // infinite; two such windows of three make the median infinite,
        // and leave the p50 alone.
        let failed = [1_005, 1_006, 3_001, 3_002];
        assert_eq!(
            median(&window_quantiles(&samples, &failed, 1_000, 100, 0.99)),
            f64::INFINITY
        );
        assert_eq!(
            median(&window_quantiles(&samples, &failed, 1_000, 100, 0.5)),
            13.0
        );
        assert!(window_quantiles(&[], &[], 0, 100, 0.5).is_empty());
    }
}
