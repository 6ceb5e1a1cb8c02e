//! Summary statistics for the benchmark's reported numbers.

/// A percentile is reported only when at least this many samples lie
/// beyond it, so one outlier cannot set it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Harmonic mean over the usable samples, with the count of samples it
/// skipped.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HarmonicMean {
    pub value: f64,
    pub used: usize,
    pub skipped: usize,
}

/// Graph500-style harmonic mean. Zero and non-finite samples (a degenerate
/// timer or an empty traversal) are skipped and counted instead of turning
/// the whole mean into 0 or NaN. With no usable sample the value is 0.
pub fn harmonic_mean(samples: &[f64]) -> HarmonicMean {
    let usable: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite() && *x > 0.0).collect();
    let skipped = samples.len() - usable.len();
    let value = if usable.is_empty() {
        0.0
    } else {
        usable.len() as f64 / usable.iter().map(|x| 1.0 / x).sum::<f64>()
    };
    HarmonicMean { value, used: usable.len(), skipped }
}

/// 1-based nearest rank of percentile `p` (0..=100) in `n` sorted samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// The `p`-th percentile by nearest rank on a sorted copy; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples strictly above the nearest-rank position of `p` among `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// Whether percentile `p` of `n` samples has enough samples beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// The highest of `candidates` that `n` samples support, if any.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates.iter().copied().filter(|&p| supported(n, p)).max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_skips_and_counts_unusable_samples() {
        let h = harmonic_mean(&[2.0, 0.0, 4.0, f64::NAN, f64::INFINITY, 4.0, -1.0]);
        assert_eq!(h.used, 3);
        assert_eq!(h.skipped, 4);
        // 3 / (1/2 + 1/4 + 1/4) = 3
        assert_eq!(h.value, 3.0);
        let empty = harmonic_mean(&[0.0, f64::NAN]);
        assert_eq!((empty.value, empty.used, empty.skipped), (0.0, 0, 2));
        assert_eq!(harmonic_mean(&[]).value, 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p90 of 100 samples sits at rank 90: exactly 10 beyond
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(supported(100, 90.0));
        // rank ceil(89.1) = 90 of 99 leaves only 9 beyond
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert!(!supported(99, 90.0));
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
        let candidates = [50.0, 90.0, 99.0];
        assert_eq!(highest_supported(20, &candidates), Some(50.0));
        assert_eq!(highest_supported(150, &candidates), Some(90.0));
        assert_eq!(highest_supported(1000, &candidates), Some(99.0));
        assert_eq!(highest_supported(19, &candidates), None);
    }
}
