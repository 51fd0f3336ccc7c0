//! Sample summaries: the median and the tail percentile every timing is
//! reported with.
//!
//! The tail is the highest percentile that still has at least
//! [`TAIL_BEYOND`] samples beyond it. With `n` sorted samples that is the
//! nearest-rank percentile at rank `n - TAIL_BEYOND`, i.e. the value with
//! exactly ten samples above it, reported as percentile
//! `100 * (n - 10) / n`. Fewer than `TAIL_BEYOND + 1` samples support no
//! such percentile; the summary then reports the maximum and flags it.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median and tail of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples for even `n`).
    pub p50: f64,
    /// Tail value: the sample with [`TAIL_BEYOND`] samples above it.
    pub tail: f64,
    /// Percentile of `tail`, in percent.
    pub tail_pct: f64,
    /// Whether `n` was large enough for the tail rule.
    pub tail_supported: bool,
}

/// Summarise `samples` (any order). `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p50 = median_sorted(&v);
    let (tail, tail_pct, tail_supported) = if n > TAIL_BEYOND {
        let rank = n - TAIL_BEYOND;
        (v[rank - 1], 100.0 * rank as f64 / n as f64, true)
    } else {
        (v[n - 1], 100.0, false)
    };
    Some(Summary {
        n,
        p50,
        tail,
        tail_pct,
        tail_supported,
    })
}

/// Median of `samples` (any order); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(median_sorted(&v))
}

/// Nearest-rank quantiles at a fixed ladder, for the report.
pub fn ladder(samples: &[f64]) -> String {
    if samples.is_empty() {
        return "no samples".to_string();
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1];
    format!(
        "p50 {:.4}  p90 {:.4}  p99 {:.4}  p99.9 {:.4}  max {:.4}  (n={})",
        at(0.5),
        at(0.9),
        at(0.99),
        at(0.999),
        v[v.len() - 1],
        v.len()
    )
}

fn median_sorted(v: &[f64]) -> f64 {
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
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [11usize, 12, 50, 100, 1000, 12_345] {
            let samples: Vec<f64> = (1..=n).rev().map(|i| i as f64).collect();
            let s = summarize(&samples).unwrap();
            let beyond = samples.iter().filter(|&&x| x > s.tail).count();
            assert_eq!(beyond, TAIL_BEYOND, "n={n}");
            assert!(s.tail_supported);
            assert!((s.tail_pct - 100.0 * (n - 10) as f64 / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn tail_of_a_thousand_is_the_nearest_rank_p99() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.tail, 990.0);
        assert!((s.tail_pct - 99.0).abs() < 1e-9);
        assert_eq!(s.p50, 500.5);
    }

    #[test]
    fn too_few_samples_report_the_max_and_say_so() {
        let samples: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let s = summarize(&samples).unwrap();
        assert!(!s.tail_supported);
        assert_eq!(s.tail, 10.0);
        assert_eq!(s.tail_pct, 100.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn ties_still_leave_at_least_ten_beyond_or_equal() {
        let mut samples = vec![1.0; 100];
        samples.extend(std::iter::repeat_n(5.0, 20));
        let s = summarize(&samples).unwrap();
        assert_eq!(s.tail, 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
