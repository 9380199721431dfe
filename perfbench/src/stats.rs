//! Exact order statistics over raw samples.
//!
//! The benchmark keeps every latency sample it takes (a few hundred
//! thousand at most) and answers quantiles exactly, so a reported p99 is a
//! sample that was really observed — no bucket rounding.

/// A quantile with the number of samples it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank quantile (`q` in `[0, 1]`): the smallest sample with at
/// least `q · n` samples at or below it. Reorders `samples` in place
/// (linear-time selection, not a full sort). `None` on no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<Quantile> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let (_, value, _) = samples.select_nth_unstable_by(rank - 1, f64::total_cmp);
    Some(Quantile {
        value: *value,
        samples: n,
    })
}

/// Median of `samples` (nearest rank), reordering them in place.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5).map(|q| q.value)
}

/// Each full window's `q`-quantile, over consecutive windows of `window`
/// samples (a trailing partial window is dropped).
pub fn window_quantiles(samples: &[f64], window: usize, q: f64) -> Vec<f64> {
    samples
        .chunks_exact(window)
        .map(|w| {
            quantile(&mut w.to_vec(), q)
                .expect("window is non-empty")
                .value
        })
        .collect()
}

/// Median of `(value, disturbance)` samples over those no more disturbed
/// than the median sample — the disturbance being CPU time the hypervisor
/// stole while the sample was taken. In a quiet spell every sample is
/// kept; while the host is busy, the half it slowed most is set aside.
/// `samples` in the result counts the samples kept.
pub fn least_disturbed_median(samples: &[(f64, f64)]) -> Option<Quantile> {
    let mut disturbance: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let limit = median(&mut disturbance)?;
    let mut kept: Vec<f64> = samples
        .iter()
        .filter(|s| s.1 <= limit)
        .map(|s| s.0)
        .collect();
    quantile(&mut kept, 0.5)
}

/// A sub-millisecond operation's cost, in seconds, as the 10th percentile
/// of its repetitions: thread spawns and joins on a virtual machine wait
/// on the host for a virtual CPU, which moves their median by a quarter
/// from one minute to the next, while the low tail holds within a few
/// percent.
pub fn low_quantile(name: &'static str, seconds: &mut [f64]) -> crate::report::Metric {
    let q = quantile(seconds, 0.1).expect("at least one repetition");
    crate::report::Metric::sampled(name, "s", q.value, q.samples)
}

/// Repeats a timed operation until it has run `min_reps` times and
/// `min_time` has passed, appending each timing to `samples`. Runs call
/// this in slices spread over their length, so a spell of host contention
/// touches a minority of the samples they report on.
pub fn repeat_into(
    samples: &mut Vec<f64>,
    min_reps: usize,
    min_time: std::time::Duration,
    mut timed: impl FnMut() -> Result<f64, String>,
) -> Result<(), String> {
    let deadline = std::time::Instant::now() + min_time;
    let mut reps = 0;
    while reps < min_reps || std::time::Instant::now() < deadline {
        samples.push(timed()?);
        reps += 1;
    }
    Ok(())
}

/// Arithmetic mean; `None` on no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The oracle: sort everything, index the nearest rank.
    fn sorted_oracle(samples: &[f64], q: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantiles_match_the_sorted_sample_oracle() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
            // Heavy-tailed samples with ties, like real latencies.
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    let base = rng.random_range(0u64..1000) as f64;
                    if rng.random_range(0u64..100) == 0 {
                        base * 50.0
                    } else {
                        base.floor()
                    }
                })
                .collect();
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let mut work = samples.clone();
                let got = quantile(&mut work, q).expect("non-empty");
                assert_eq!(got.value, sorted_oracle(&samples, q), "n={n} q={q}");
                assert_eq!(got.samples, n);
            }
        }
    }

    #[test]
    fn empty_input_has_no_quantile() {
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn window_quantiles_take_each_full_window() {
        let samples = [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 900.0, 7.0];
        assert_eq!(window_quantiles(&samples, 4, 1.0), [4.0, 900.0]);
        assert_eq!(window_quantiles(&samples, 4, 0.5), [2.0, 2.0]);
        assert!(window_quantiles(&samples[..3], 4, 0.5).is_empty());
    }

    #[test]
    fn least_disturbed_median_sets_aside_the_disturbed_half() {
        // Undisturbed: every sample counts.
        let quiet = [(5.0, 0.0), (1.0, 0.0), (3.0, 0.0), (4.0, 0.0), (2.0, 0.0)];
        assert_eq!(
            least_disturbed_median(&quiet),
            Some(Quantile {
                value: 3.0,
                samples: 5
            })
        );
        // Two samples slowed by stolen time drop out.
        let busy = [
            (5.0, 0.0),
            (90.0, 30.0),
            (3.0, 0.0),
            (80.0, 20.0),
            (4.0, 10.0),
        ];
        assert_eq!(
            least_disturbed_median(&busy),
            Some(Quantile {
                value: 4.0,
                samples: 3
            })
        );
        assert_eq!(least_disturbed_median(&[]), None);
    }

    #[test]
    fn repeat_into_runs_at_least_the_minimum() {
        let (mut samples, mut calls) = (vec![0.5], 0);
        repeat_into(&mut samples, 3, std::time::Duration::ZERO, || {
            calls += 1;
            Ok(calls as f64)
        })
        .expect("no error");
        assert_eq!(samples, [0.5, 1.0, 2.0, 3.0]);
        let fail = repeat_into(&mut samples, 3, std::time::Duration::ZERO, || {
            Err("boom".into())
        });
        assert!(fail.is_err());
    }

    #[test]
    fn median_and_mean_of_small_sets() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
