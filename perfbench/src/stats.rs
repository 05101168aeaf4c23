//! The benchmark's arithmetic: sample summaries, the tail-percentile
//! rule, the paper-fidelity gaps and the failure share.

use serde_json::Value;

/// Completion-time improvement of Meryn over static the paper reports
/// (§5, Fig 6(a)), in percent.
pub const PAPER_COMPLETION_GAIN_PCT: f64 = 3.34;
/// Mean-cost improvement the paper reports (§5, Fig 6(b)), in percent.
pub const PAPER_COST_GAIN_PCT: f64 = 14.07;
/// Total cost the paper reports Meryn saving against static [units].
pub const PAPER_COST_SAVED_UNITS: f64 = 41_158.0;

/// Median of `samples` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The smallest sample; `None` when empty: a burst's fastest set-up or
/// checkpoint round trip, which leaves out the moments the shared host
/// stalled it.
pub fn fastest(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::min)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`; `None` when
/// empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest nearest-rank percentile that still has at least ten
/// samples above it, as `(percentile, value)`. With `n` samples that is
/// rank `n - 10`, i.e. percentile `100 (n - 10) / n`; `None` below 11
/// samples, where no such percentile exists.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, sorted(samples)[rank - 1]))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A timing as the result record reports it: median, the tail
/// percentile of [`tail`] and the sample count.
pub fn timing_record(samples: &[f64]) -> Value {
    let tail = match tail(samples) {
        Some((pct, value)) => Value::Map(vec![
            ("percentile".into(), Value::F64(pct)),
            ("value".into(), Value::F64(value)),
        ]),
        None => Value::Null,
    };
    Value::Map(vec![
        (
            "median".into(),
            median(samples).map_or(Value::Null, Value::F64),
        ),
        ("tail".into(), tail),
        ("samples".into(), Value::U64(samples.len() as u64)),
    ])
}

/// The three paper-fidelity gaps of one Meryn-vs-static comparison:
/// `[completion gap [pp], cost-gain gap [pp], cost-saved gap [%]]`.
/// Each is a distance, so a reproduction that overshoots the paper is
/// as far off as one that undershoots.
pub fn fidelity_gaps(
    completion_improvement_pct: f64,
    cost_improvement_pct: f64,
    cost_saved_units: f64,
) -> [f64; 3] {
    [
        (completion_improvement_pct - PAPER_COMPLETION_GAIN_PCT).abs(),
        (cost_improvement_pct - PAPER_COST_GAIN_PCT).abs(),
        100.0 * (cost_saved_units - PAPER_COST_SAVED_UNITS).abs() / PAPER_COST_SAVED_UNITS,
    ]
}

/// Runs that failed (errored, panicked or failed a correctness check)
/// against runs attempted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Runs attempted.
    pub attempted: u64,
    /// Of those, runs that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one run: failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `failed / attempted`; 0 before any run.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_fastest() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(fastest(&[4.0, 1.0, 3.0]), Some(1.0));
        assert_eq!(fastest(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None, "ten samples leave none to spare");
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (pct, value) = tail(&eleven).unwrap();
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);

        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (pct, value) = tail(&xs).unwrap();
        assert_eq!((pct, value), (99.0, 990.0));
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn fidelity_gaps_are_distances_from_the_paper() {
        // The committed paper golden: −0.477% completion, 12.30% cost
        // gain, 35,800 u saved.
        let [completion, cost, saved] = fidelity_gaps(-0.477, 12.30, 35_800.0);
        assert!((completion - 3.817).abs() < 1e-9);
        assert!((cost - 1.77).abs() < 1e-9);
        assert!((saved - 100.0 * 5_358.0 / 41_158.0).abs() < 1e-9);
        // Overshooting the paper counts as a gap too.
        let [completion, cost, saved] = fidelity_gaps(4.34, 15.07, 42_158.0);
        assert!((completion - 1.0).abs() < 1e-9);
        assert!((cost - 1.0).abs() < 1e-9);
        assert!((saved - 100.0 / 41.158).abs() < 1e-9);
        assert_eq!(fidelity_gaps(3.34, 14.07, 41_158.0), [0.0; 3]);
    }

    #[test]
    fn failed_frac_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.failed_frac(), 0.25);
    }
}
