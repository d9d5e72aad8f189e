//! The benchmark's own statistics: nearest-rank percentiles, the
//! ten-samples-beyond rule, the warm/cold request split, error rates
//! and ratios that carry their base.

use std::fmt;

/// Samples a percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples: the
/// smallest rank with at least `p`% of the samples at or below it. The
/// tolerance keeps `99.9% of 10000` at rank 9990 despite rounding.
fn rank(n: usize, p: f64) -> usize {
    let r = ((p / 100.0) * n as f64 - 1e-9).ceil();
    (r.max(1.0) as usize).min(n)
}

/// Nearest-rank percentile of `sorted` (ascending). `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Samples strictly beyond the nearest-rank `p`th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest of `candidates` that leaves at least [`MIN_BEYOND`]
/// samples beyond it among `n`, if any does.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= MIN_BEYOND)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// A latency sample set, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Takes ownership of `v` and sorts it.
    pub fn new(mut v: Vec<f64>) -> Self {
        v.sort_by(f64::total_cmp);
        Samples { sorted: v }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile, 0 when there are no samples.
    pub fn pct(&self, p: f64) -> f64 {
        nearest_rank(&self.sorted, p).unwrap_or(0.0)
    }

    /// `p50=… p99=… (n=…, k beyond)`-style description of percentile
    /// `p`, flagging one that breaks the ten-beyond rule.
    pub fn describe(&self, p: f64) -> String {
        let n = self.len();
        let b = beyond(n, p);
        let flag = if b >= MIN_BEYOND {
            ""
        } else {
            ", below the 10-beyond rule"
        };
        format!("p{p}={:.4} (n={n}, {b} beyond{flag})", self.pct(p))
    }

    /// The highest of p50/p90/p99/p99.9 with ten samples beyond it,
    /// described; `none` when even the median lacks them.
    pub fn describe_tail(&self) -> String {
        match highest_supported(self.len(), &TAIL_CANDIDATES) {
            Some(p) => self.describe(p),
            None => format!("none (n={})", self.len()),
        }
    }
}

/// Percentiles a tail is chosen from.
pub const TAIL_CANDIDATES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Median of an unsorted slice (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    Samples::new(v.to_vec()).pct(50.0)
}

/// Serve request class, split on the reply's store counters: a request
/// that missed no store is warm; one miss anywhere makes it cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Every store probe hit.
    Warm,
    /// At least one store probe missed.
    Cold,
}

impl Class {
    /// Classifies a reply from its hit and miss counts. A reply must
    /// have probed something; `None` flags one that reports neither.
    pub fn of(hits: u64, misses: u64) -> Option<Class> {
        match (hits, misses) {
            (0, 0) => None,
            (_, 0) => Some(Class::Warm),
            _ => Some(Class::Cold),
        }
    }

    /// `warm` / `cold`, as used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Warm => "warm",
            Class::Cold => "cold",
        }
    }
}

/// A ratio that remembers its numerator and base, so every report can
/// print both. A zero base gives 0 rather than NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub part: f64,
    /// Denominator.
    pub base: f64,
}

impl Ratio {
    /// `part ÷ base`.
    pub fn new(part: f64, base: f64) -> Self {
        Ratio { part, base }
    }

    /// The ratio's value (0 over a zero base).
    pub fn value(self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            self.part / self.base
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} ({} / {})", self.value(), self.part, self.base)
    }
}

/// Failed operations over attempted ones.
pub fn error_rate(failed: u64, attempted: u64) -> Ratio {
    Ratio::new(failed as f64, attempted as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn samples_sort_their_input() {
        let s = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.pct(50.0), 2.0);
        assert_eq!(s.pct(100.0), 3.0);
        assert_eq!(s.len(), 3);
        assert_eq!(Samples::default().pct(50.0), 0.0);
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0]), 2.0);
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(10_000, 99.9), 10);
        assert_eq!(beyond(990, 99.0), 9);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(1, 50.0), 0);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn highest_supported_percentile_needs_ten_beyond() {
        let c = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_supported(10_000, &c), Some(99.9));
        assert_eq!(highest_supported(1000, &c), Some(99.0));
        assert_eq!(highest_supported(1009, &c), Some(99.0));
        assert_eq!(highest_supported(999, &c), Some(90.0));
        assert_eq!(highest_supported(990, &c), Some(90.0));
        assert_eq!(highest_supported(100, &c), Some(90.0));
        assert_eq!(highest_supported(99, &c), Some(50.0));
        assert_eq!(highest_supported(19, &c), None);
        assert_eq!(highest_supported(20, &c), Some(50.0));
    }

    #[test]
    fn describe_flags_unsupported_percentiles() {
        let s = Samples::new((1..=20).map(f64::from).collect());
        assert_eq!(s.describe(50.0), "p50=10.0000 (n=20, 10 beyond)");
        assert!(s
            .describe(90.0)
            .ends_with("2 beyond, below the 10-beyond rule)"));
    }

    #[test]
    fn class_split_follows_store_misses() {
        assert_eq!(Class::of(40, 0), Some(Class::Warm));
        assert_eq!(Class::of(39, 1), Some(Class::Cold));
        assert_eq!(Class::of(0, 12), Some(Class::Cold));
        assert_eq!(Class::of(0, 0), None);
        assert_eq!(Class::Warm.name(), "warm");
        assert_eq!(Class::Cold.name(), "cold");
    }

    #[test]
    fn error_rate_and_ratios_keep_their_base() {
        let r = error_rate(1, 1000);
        assert_eq!(r.value(), 0.001);
        assert_eq!(r.base, 1000.0);
        assert_eq!(r.to_string(), "0.001000 (1 / 1000)");
        assert_eq!(error_rate(0, 0).value(), 0.0);
        assert_eq!(Ratio::new(3.0, 4.0).value(), 0.75);
    }
}
