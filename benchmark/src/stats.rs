//! Order statistics over timing samples.

/// How many samples must lie strictly beyond a quantile before it is
/// reported: a p90 over 20 samples rests on two values and moves with
/// every scheduling hiccup, so it is not a number anyone should track.
pub const MIN_TAIL: usize = 10;

/// The median of `samples` (mean of the two middle values for an even
/// count); `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The smallest of `samples` (`+inf` for none).
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The largest of `samples` (`-inf` for none).
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The nearest-rank `q`-quantile of `samples`, or `None` unless at least
/// [`MIN_TAIL`] samples lie strictly above its rank.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    // Nearest rank: the smallest rank r (1-based) with r/n >= q.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// A one-line summary of `samples` for the log.
pub fn describe(name: &str, samples: &[f64]) -> String {
    let (lo, hi) = (min(samples), max(samples));
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q1 = sorted.get(sorted.len() / 4).copied().unwrap_or(f64::NAN);
    let q3 = sorted
        .get(sorted.len() * 3 / 4)
        .copied()
        .unwrap_or(f64::NAN);
    format!(
        "{name}: n={} min={lo:.6} q1={q1:.6} median={:.6} q3={q3:.6} max={hi:.6}",
        samples.len(),
        median(samples)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples needed before [`quantile`] reports `q`.
    fn samples_needed(q: f64) -> usize {
        (1..)
            .find(|&n| n - ((q * n as f64).ceil() as usize).max(1) >= MIN_TAIL)
            .unwrap_or(usize::MAX)
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let nineteen: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(quantile(&nineteen, 0.5), None);
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(quantile(&twenty, 0.5), Some(9.0));
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(quantile(&ninety_nine, 0.9), None);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.9), Some(89.0));
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.9), 100);
    }

    #[test]
    fn every_reported_quantile_has_the_tail_it_claims() {
        for n in 0..150usize {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for q in [0.5, 0.9, 0.99] {
                if let Some(v) = quantile(&samples, q) {
                    let beyond = samples.iter().filter(|&&s| s > v).count();
                    assert!(beyond >= MIN_TAIL, "n={n} q={q}: {beyond} beyond");
                }
            }
        }
    }
}
