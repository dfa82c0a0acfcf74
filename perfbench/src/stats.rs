//! Sample statistics with the benchmark's reporting rules.
//!
//! A timing is reported as a percentile of its samples, and a percentile
//! counts only when at least [`MIN_BEYOND`] samples lie beyond it: a p99
//! needs 1000 samples, a median 20. Anything thinner is an error, never a
//! number.

use rcc_obs::HistogramSnapshot;
use std::time::Duration;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Record one duration.
    pub fn push(&mut self, d: Duration) {
        self.ns
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// The `q`-quantile in microseconds, under the sample-count rule.
    pub fn quantile_us(&self, q: f64) -> Result<f64, String> {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        percentile(&sorted, q).map(|ns| ns as f64 / 1e3)
    }
}

/// Samples beyond the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// The nearest-rank `q`-quantile of ascending `sorted`, or an error when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> Result<u64, String> {
    let n = sorted.len();
    let past = beyond(n, q);
    if past < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {past} beyond it (needs {MIN_BEYOND})",
            q * 100.0
        ));
    }
    Ok(sorted[n - past - 1])
}

/// Sum histograms that share bucket bounds into one; an error when the
/// bounds differ, since their buckets would not line up.
pub fn merge_histograms(parts: &[&HistogramSnapshot]) -> Result<HistogramSnapshot, String> {
    let Some(first) = parts.first() else {
        return Err("no histograms to merge".into());
    };
    let mut merged = HistogramSnapshot {
        bounds: first.bounds.clone(),
        counts: vec![0; first.counts.len()],
        sum: 0.0,
        count: 0,
    };
    for h in parts {
        if h.bounds != merged.bounds || h.counts.len() != merged.counts.len() {
            return Err("histograms with different bucket bounds".into());
        }
        for (m, c) in merged.counts.iter_mut().zip(&h.counts) {
            *m += c;
        }
        merged.sum += h.sum;
        merged.count += h.count;
    }
    Ok(merged)
}

/// The `q`-quantile of a histogram, under the sample-count rule.
pub fn histogram_quantile(h: &HistogramSnapshot, q: f64) -> Result<f64, String> {
    let n = usize::try_from(h.count).unwrap_or(usize::MAX);
    let past = beyond(n, q);
    if past < MIN_BEYOND {
        return Err(format!(
            "p{} of a {n}-sample histogram has {past} beyond it (needs {MIN_BEYOND})",
            q * 100.0
        ));
    }
    h.quantile(q).ok_or_else(|| "empty histogram".to_string())
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ascending(1000), 0.99), Ok(990));
        assert!(percentile(&ascending(999), 0.99).is_err());
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert_eq!(percentile(&ascending(20), 0.5), Ok(10));
        assert!(percentile(&ascending(19), 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn nearest_rank_on_large_sets() {
        let v = ascending(100_000);
        assert_eq!(percentile(&v, 0.5), Ok(50_000));
        assert_eq!(percentile(&v, 0.99), Ok(99_000));
    }

    #[test]
    fn samples_report_microseconds() {
        let mut s = Samples::new();
        for us in 1..=40u64 {
            s.push(Duration::from_micros(us));
        }
        assert_eq!(s.len(), 40);
        assert_eq!(s.quantile_us(0.5), Ok(20.0));
        assert!(s.quantile_us(0.99).is_err());
    }

    fn hist(counts: Vec<u64>) -> HistogramSnapshot {
        let count = counts.iter().sum();
        HistogramSnapshot {
            bounds: vec![1.0, 2.0, 4.0],
            counts,
            sum: 0.0,
            count,
        }
    }

    #[test]
    fn merge_adds_bucket_counts() {
        let a = hist(vec![10, 0, 5, 0]);
        let b = hist(vec![0, 20, 5, 1]);
        let m = merge_histograms(&[&a, &b]).expect("same bounds");
        assert_eq!(m.counts, vec![10, 20, 10, 1]);
        assert_eq!(m.count, 41);
        // the merged median lies in the second bucket
        let p50 = histogram_quantile(&m, 0.5).expect("41 samples");
        assert!((1.0..=2.0).contains(&p50), "{p50}");
    }

    #[test]
    fn merge_rejects_mismatched_bounds() {
        let a = hist(vec![1, 0, 0, 0]);
        let mut b = hist(vec![1, 0, 0, 0]);
        b.bounds = vec![1.0, 3.0, 4.0];
        assert!(merge_histograms(&[&a, &b]).is_err());
        assert!(merge_histograms(&[]).is_err());
    }

    #[test]
    fn histogram_quantile_applies_the_sample_rule() {
        assert!(histogram_quantile(&hist(vec![999, 0, 0, 0]), 0.99).is_err());
        assert!(histogram_quantile(&hist(vec![990, 10, 0, 0]), 0.99).is_ok());
    }

    #[test]
    fn median_of_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn name_and_unit_validity() {
        for ok in ["setup_s", "net.roundtrip_p50_us", "a-b.c_9", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "has space", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["us", "1/s", "%", "MiB", "sim_s", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
