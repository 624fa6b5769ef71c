//! Percentiles from raw samples.
//!
//! Every latency sample is kept (nanoseconds) and sorted once at the end, so
//! a percentile is an exact order statistic, not a histogram bucket bound.
//! A failed attempt is recorded as `u64::MAX`: it ranks above every success,
//! so it counts as missing any latency limit.

/// Marker sample for a failed attempt.
pub const FAILED: u64 = u64::MAX;

/// Nearest-rank percentile (`q` in 0..=1) of `samples`, sorting them in
/// place. `None` when empty; `Some(u64::MAX)` when the rank falls on a
/// failed attempt.
pub fn percentile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    Some(samples[rank.clamp(1, n) - 1])
}

/// Nanoseconds to microseconds; a failed rank reads as `f64::MAX`.
pub fn ns_to_us(ns: u64) -> f64 {
    if ns == FAILED {
        f64::MAX
    } else {
        ns as f64 / 1e3
    }
}

/// Median of a small set of floats (set-up repetitions).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
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
    fn nearest_rank() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 0.5), Some(50));
        assert_eq!(percentile(&mut s, 0.99), Some(99));
        assert_eq!(percentile(&mut s, 1.0), Some(100));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn failures_rank_last() {
        let mut s = vec![5, FAILED, 3, 4];
        assert_eq!(percentile(&mut s, 0.75), Some(5));
        assert_eq!(percentile(&mut s, 0.99), Some(FAILED));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
