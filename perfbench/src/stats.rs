//! Pure helpers: metric names, sample summaries, paper-error arithmetic,
//! and failure accounting. Everything here is deterministic and tested.

/// Fig. 13 speedups the paper reports over Baseline, in lineup order
/// (GRTX-SW, GRTX-HW, GRTX).
pub const PAPER_FIG13_SPEEDUPS: [f64; 3] = [2.00, 1.94, 4.36];

/// Whether `name` is a legal metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a bug in the
/// caller.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A timing summary: sample count, median, and the highest of the p90 /
/// p99 / p99.9 percentiles that still has at least ten samples beyond it
/// (`None` below 100 samples, where no tail percentile is resolved).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median sample.
    pub median: f64,
    /// `(percentile, value)` of the resolved tail, if any.
    pub tail: Option<(f64, f64)>,
}

/// Summarizes `values` (see [`Summary`]). Percentiles use the
/// nearest-rank rule on the sorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let count = sorted.len();
    // Percentiles in per-mille, so ranks are exact integer arithmetic.
    let tail = [999, 990, 900]
        .into_iter()
        .find(|per_mille| count * (1000 - per_mille) >= 10 * 1000)
        .map(|per_mille| {
            let rank = (per_mille * count).div_ceil(1000);
            (per_mille as f64 / 10.0, sorted[rank.clamp(1, count) - 1])
        });
    Summary {
        count,
        median: median(&sorted),
        tail,
    }
}

/// Simulated speedup of `cycles` over `base_cycles`.
pub fn speedup(base_cycles: u64, cycles: u64) -> f64 {
    base_cycles as f64 / cycles.max(1) as f64
}

/// The largest relative error, in percent, of `simulated` speedups
/// against the paper's `reference` ones.
pub fn paper_error_pct(simulated: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(
        simulated.len(),
        reference.len(),
        "one simulated value per reference"
    );
    simulated
        .iter()
        .zip(reference)
        .map(|(s, p)| (s - p).abs() / p * 100.0)
        .fold(0.0, f64::max)
}

/// Counts attempted and failed operations (a launch or a frame). An
/// operation fails on a typed render error or a failed check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Failed operations divided by attempted ones (`0` when nothing was
    /// attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Collects the failures of a group of checks on one operation into one
/// outcome for [`Tally::record`].
#[derive(Debug, Default)]
pub struct Checks(Vec<String>);

impl Checks {
    /// Adds a failure message unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    /// `Ok` when every check passed, else every message joined.
    pub fn outcome(self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(self.0.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "wall_s",
            "sim.cycles.grtx_hw",
            "fig13-train",
            "0x",
            "a.b-c_d",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "-x",
            "_x",
            "has space",
            "per/slash",
            "é",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(summarize(&few).tail, None);
        assert_eq!(summarize(&few).count, 99);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&hundred);
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert_eq!(s.median, 50.5);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&thousand).tail, Some((99.0, 990.0)));
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(summarize(&big).tail, Some((99.9, 9990.0)));
    }

    #[test]
    fn speedup_and_paper_error() {
        assert_eq!(speedup(200, 100), 2.0);
        assert_eq!(speedup(5, 0), 5.0, "zero cycles must not divide by zero");
        let err = paper_error_pct(&[2.0, 1.94 * 1.1, 4.36 * 0.95], &PAPER_FIG13_SPEEDUPS);
        assert!((err - 10.0).abs() < 1e-9, "{err}");
        assert_eq!(
            paper_error_pct(&PAPER_FIG13_SPEEDUPS, &PAPER_FIG13_SPEEDUPS),
            0.0
        );
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut tally = Tally::default();
        assert_eq!(tally.error_rate(), 0.0);
        tally.record(Ok(()));
        tally.record(Err("image differs".into()));
        tally.record(Ok(()));
        tally.record(Ok(()));
        assert_eq!((tally.attempted, tally.failed), (4, 1));
        assert_eq!(tally.error_rate(), 0.25);
        assert_eq!(tally.failures, vec!["image differs".to_string()]);
    }

    #[test]
    fn checks_join_every_failure() {
        let mut checks = Checks::default();
        checks.expect(true, || "unused".into());
        assert_eq!(Checks::default().outcome(), Ok(()));
        checks.expect(false, || "a".into());
        checks.expect(false, || "b".into());
        assert_eq!(checks.outcome(), Err("a; b".into()));
    }
}
