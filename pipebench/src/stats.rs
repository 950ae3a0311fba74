//! Order statistics and process measurements shared by the workloads.

/// Percentiles the tail metric may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly after the nearest-rank position of `p` among `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil().min(n as f64) as usize
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it among `n` samples, or 100 (the maximum) when none has.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(100.0)
}

/// Median of unsorted samples (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Latency summary of per-block or per-window times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples (blocks or windows).
    pub samples: usize,
    /// Median, ms.
    pub p50_ms: f64,
    /// The tail percentile reported.
    pub tail_pct: f64,
    /// Value at `tail_pct`, ms.
    pub tail_ms: f64,
}

/// Summarises per-sample latencies in ms.
pub fn latency(samples_ms: &[f64]) -> Latency {
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(sorted.len());
    Latency {
        samples: sorted.len(),
        p50_ms: percentile(&sorted, 50.0),
        tail_pct,
        tail_ms: percentile(&sorted, tail_pct),
    }
}

/// Peak resident set size of this process in MB (10^6 bytes), from
/// `VmHWM` in `/proc/self/status`; 0 where that file is unavailable.
pub fn peak_rss_mb() -> f64 {
    parole_bench::report::peak_rss_bytes() as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1500), 99.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(60), 80.0);
        assert_eq!(tail_percentile(45), 75.0);
        assert_eq!(tail_percentile(12), 100.0);
        for n in [40usize, 60, 100, 120, 1500, 20_000] {
            let p = tail_percentile(n);
            assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let l = latency(&v);
        assert_eq!((l.samples, l.tail_pct, l.tail_ms), (100, 90.0, 90.0));
    }
}
