//! Order statistics and failure accounting shared by every workload.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Samples a reported tail percentile must leave strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile `q` (0 < q <= 100) of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of percentile `q` in a sample of `n >= 1`.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon absorbs float error such as 99.9 * 10_000 / 100 > 9990.
    ((q * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// The highest tail percentile a sample of `n` supports: at least
/// [`MIN_BEYOND`] samples rank strictly above it.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&q| n >= 1 && n - rank(n, q) >= MIN_BEYOND)
}

/// One-line summary: median, sample count, and the supported tail.
pub fn summary(xs: &[f64], unit: &str) -> String {
    let Some(p50) = median(xs) else { return "no samples".to_string() };
    match supported_tail(xs.len()) {
        Some(q) => format!(
            "p50 {p50:.3} {unit}, p{q} {:.3} {unit} (n={})",
            percentile(xs, q).unwrap_or(p50),
            xs.len()
        ),
        None => format!("p50 {p50:.3} {unit} (n={}; too few samples for a tail)", xs.len()),
    }
}

/// Host-side failure accounting. An operation is a rep in-process and a
/// job on the daemon; an error, a panic, or a failed output check counts
/// it as failed. A simulated `RepStatus::Failed` is an outcome, not a
/// failure, and never reaches this tally.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Runs `op`, which covers `ops` operations, counting them failed on
    /// an error or a panic.
    pub fn run<T>(&mut self, ops: u64, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += ops;
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail_attempted(ops, e);
                None
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                self.fail_attempted(ops, format!("panic: {msg}"));
                None
            }
        }
    }

    /// Marks `ops` already-attempted operations as failed (a failed
    /// output check after the operation itself succeeded).
    pub fn fail_attempted(&mut self, ops: u64, why: String) {
        self.failed = (self.failed + ops).min(self.attempted);
        self.problems.push(why);
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// Failed over attempted operations (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
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
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(19), None, "p75 of 19 leaves only 4 beyond");
        assert_eq!(supported_tail(40), Some(75.0), "rank 30 leaves exactly 10");
        assert_eq!(supported_tail(99), Some(75.0), "p90 of 99 leaves 9");
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        for n in 1..2_000 {
            if let Some(q) = supported_tail(n) {
                assert!(n - rank(n, q) >= MIN_BEYOND, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn summary_states_count_and_tail() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(summary(&xs, "ms"), "p50 50.500 ms, p90 90.000 ms (n=100)");
        assert!(summary(&xs[..5], "ms").contains("too few samples"));
        assert_eq!(summary(&[], "ms"), "no samples");
    }

    #[test]
    fn tally_counts_errors_panics_and_check_failures() {
        let mut t = Tally::default();
        assert_eq!(t.run(4, || Ok::<_, String>(7)), Some(7));
        assert_eq!(t.run(4, || Err::<(), _>("disk full".to_string())), None);
        assert_eq!(t.run(2, || -> Result<(), String> { panic!("boom") }), None);
        t.fail_attempted(1, "report CRC mismatch".to_string());
        assert_eq!((t.attempted(), t.failed()), (10, 7));
        assert!((t.failed_share() - 0.7).abs() < 1e-12);
        assert_eq!(t.problems().len(), 3);
        assert!(t.problems()[1].contains("boom"));
    }

    #[test]
    fn tally_never_fails_more_than_attempted() {
        let mut t = Tally::default();
        t.run(1, || Ok::<_, String>(()));
        t.fail_attempted(5, "over-reported".to_string());
        assert_eq!(t.failed(), 1);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }
}
