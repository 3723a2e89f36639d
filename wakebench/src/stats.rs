//! Summary statistics and the result line.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median, or 0 when there are no samples (a layer the workload skips).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The `p`-th percentile of `values` by the nearest-rank definition: the
/// smallest value with at least `p`% of the values at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p) - 1]
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples:
/// the smallest rank `k` with `k / n >= p / 100`.
fn nearest_rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// The percentiles `trial_s_tail` may report, highest first. A fixed ladder
/// keeps the reported percentile the same from run to run while the trial
/// count wobbles, so values of one workload compare.
const TAIL_LADDER: [u32; 5] = [99, 95, 90, 75, 50];

/// Samples a percentile must have beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail percentile of the trial times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: u32,
    /// Its value (nearest rank).
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
    /// Number of samples ranked beyond it.
    pub beyond: usize,
    /// Whether `beyond` reaches [`TAIL_MIN_BEYOND`]. When no percentile of
    /// the ladder does, the median is reported instead and this is false.
    pub rule_met: bool,
}

/// The highest percentile of the ladder with at least [`TAIL_MIN_BEYOND`]
/// samples ranked beyond it (nearest-rank definition), or the median when
/// there are too few samples for any.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: u32| {
        let rank = nearest_rank(n, p);
        (rank, v[rank - 1])
    };
    for p in TAIL_LADDER {
        let (rank, value) = at(p);
        if n - rank >= TAIL_MIN_BEYOND {
            return Tail {
                percentile: p,
                value,
                samples: n,
                beyond: n - rank,
                rule_met: true,
            };
        }
    }
    let (rank, value) = at(50);
    Tail {
        percentile: 50,
        value,
        samples: n,
        beyond: n - rank,
        rule_met: false,
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Whether `name` is a valid metric name: letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Formats a metric value with all its digits (JSON has no NaN/inf; those
/// become 0 and are caught by the checks that produced them).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}

/// The final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=210).rev().map(f64::from).collect();
        // 10% of 210 is rank 21.
        assert_eq!(percentile(&samples, 10), 21.0);
        // 10% of 21 rounds up to rank 3.
        assert_eq!(percentile(&samples[..21], 10), 192.0);
        assert_eq!(percentile(&[4.0], 10), 4.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100), 3.0);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 is rank 990, with 10 beyond.
        let t = tail(&samples(1000));
        assert_eq!((t.percentile, t.value, t.beyond), (99, 990.0, 10));
        // 999 samples: p99 is rank 990 with only 9 beyond, so p95 it is.
        let t = tail(&samples(999));
        assert_eq!((t.percentile, t.beyond), (95, 999 - 950));
        // 200 samples: p95 is rank 190 with 10 beyond.
        let t = tail(&samples(200));
        assert_eq!((t.percentile, t.value, t.beyond), (95, 190.0, 10));
        // 100 samples: p90 is rank 90, 10 beyond.
        let t = tail(&samples(100));
        assert_eq!((t.percentile, t.value, t.beyond), (90, 90.0, 10));
        // 40 samples: p75 is rank 30, 10 beyond.
        let t = tail(&samples(40));
        assert_eq!((t.percentile, t.beyond), (75, 10));
        // 20 samples: p50 is rank 10, 10 beyond.
        let t = tail(&samples(20));
        assert_eq!((t.percentile, t.beyond, t.rule_met), (50, 10, true));
        for n in 1..2000 {
            let t = tail(&samples(n));
            assert_eq!(t.rule_met, t.beyond >= TAIL_MIN_BEYOND, "n={n}");
            assert_eq!(t.samples, n);
        }
    }

    #[test]
    fn tail_falls_back_to_the_median_when_samples_are_few() {
        let t = tail(&[5.0, 1.0, 3.0, 4.0, 2.0]);
        assert_eq!((t.percentile, t.value, t.beyond), (50, 3.0, 2));
        assert!(!t.rule_met);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("async.ns_per_event"));
        assert!(valid_name("trial_s_tail"));
        assert!(!valid_name(""));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
    }
}
