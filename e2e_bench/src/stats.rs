//! Latency quantiles and the oracle comparison.

use crate::adapter::{Keys, Sample};

/// Quantile `q` of microsecond-resolution latencies, in ms.  The runtime's
/// stream clock truncates to whole µs, so a sample `v` stands for a delay
/// somewhere in `[v, v + 1)`; the quantile interpolates inside that bucket
/// instead of snapping to the integer.
pub fn quantile_ms(sorted_us: &[u64], q: f64) -> f64 {
    assert!(!sorted_us.is_empty(), "quantile of no samples");
    let n = sorted_us.len();
    let rank = q * n as f64;
    let v = sorted_us[(rank as usize).min(n - 1)];
    let below = sorted_us.partition_point(|&x| x < v);
    let count = sorted_us.partition_point(|&x| x <= v) - below;
    let within = ((rank - below as f64) / count as f64).clamp(0.0, 1.0);
    (v as f64 + within) / 1000.0
}

/// Latency summary of one run.
pub struct Latency {
    /// Timed samples.
    pub n: usize,
    /// Results whose detection stamp was unusable (see `adapter::timing_of`).
    pub untimed: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// p99.9, only when at least ten samples lie beyond it.
    pub p999_ms: Option<f64>,
    /// p50 of the results arriving in the first and last quarter of the
    /// run's span — the backlog check compares them.
    pub p50_first_ms: f64,
    pub p50_last_ms: f64,
    sorted_us: Vec<u64>,
}

impl Latency {
    pub fn quantile_ms(&self, q: f64) -> f64 {
        quantile_ms(&self.sorted_us, q)
    }
}

pub fn latency(samples: &[Sample]) -> Option<Latency> {
    let mut all: Vec<u64> = samples.iter().filter_map(|s| s.latency_us).collect();
    if all.is_empty() {
        return None;
    }
    all.sort_unstable();
    let (lo, hi) = samples.iter().fold((u64::MAX, 0), |(lo, hi), s| {
        (lo.min(s.ts_us), hi.max(s.ts_us))
    });
    let quarter = (hi - lo) / 4;
    let part = |keep: &dyn Fn(u64) -> bool| {
        let mut v: Vec<u64> = samples
            .iter()
            .filter(|s| keep(s.ts_us))
            .filter_map(|s| s.latency_us)
            .collect();
        v.sort_unstable();
        if v.is_empty() {
            f64::NAN
        } else {
            quantile_ms(&v, 0.5)
        }
    };
    let n = all.len();
    Some(Latency {
        n,
        untimed: samples.len() - n,
        p50_ms: quantile_ms(&all, 0.5),
        p99_ms: quantile_ms(&all, 0.99),
        p999_ms: (n >= 10_000).then(|| quantile_ms(&all, 0.999)),
        p50_first_ms: part(&|ts| ts < lo + quarter),
        p50_last_ms: part(&|ts| ts >= hi - quarter),
        sorted_us: all,
    })
}

/// Missing and spurious pairs of `got` against the oracle (both sorted;
/// duplicates count as spurious).
pub fn diff(got: &Keys, oracle: &Keys) -> (u64, u64) {
    let (mut i, mut j) = (0, 0);
    let (mut missing, mut spurious) = (0u64, 0u64);
    while i < got.len() && j < oracle.len() {
        match got[i].cmp(&oracle[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                spurious += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                missing += 1;
                j += 1;
            }
        }
    }
    spurious += (got.len() - i) as u64;
    missing += (oracle.len() - j) as u64;
    (missing, spurious)
}

pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_inside_the_microsecond_bucket() {
        // Four samples of 10 µs: the median sits halfway through [10, 11).
        assert!((quantile_ms(&[10, 10, 10, 10], 0.5) - 0.0105).abs() < 1e-12);
        assert!((quantile_ms(&[1, 2, 3, 4], 0.5) - 0.003).abs() < 1e-12);
    }

    #[test]
    fn diff_counts_missing_and_spurious_pairs() {
        let oracle = vec![(1, 1), (2, 2), (3, 3)];
        assert_eq!(diff(&oracle, &oracle), (0, 0));
        assert_eq!(diff(&vec![(1, 1), (1, 1), (4, 4)], &oracle), (2, 2));
    }
}
