//! Distribution summaries: letter-value ("boxen") statistics, medians, and
//! geometric means.
//!
//! The paper presents every figure as boxen plots (letter-value plots,
//! Hofmann, Wickham & Kafadar 2017): the distribution is recursively
//! halved around the median — the widest box holds the middle 50%, the
//! next two boxes the next 25%, and so on — with the outlier rate fixed at
//! 0.7% (paper §6). [`letter_values`] computes exactly that summary, which
//! the figure generators print as the textual equivalent of each plot.

/// Letter-value summary of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct LetterValues {
    /// Sample size.
    pub n: usize,
    /// Median (the innermost letter value).
    pub median: f64,
    /// Successive (lower, upper) letter-value pairs: fourths (the widest
    /// box, middle 50%), eighths, sixteenths, … outermost last.
    pub boxes: Vec<(f64, f64)>,
    /// Sample values below the outermost lower letter value.
    pub outliers_low: usize,
    /// Sample values above the outermost upper letter value.
    pub outliers_high: usize,
    /// Sample minimum.
    pub min: f64,
    /// Sample maximum.
    pub max: f64,
}

/// Fixed outlier rate of the paper's plots (0.7% total, §6).
pub(crate) const OUTLIER_RATE: f64 = 0.007;

fn quantile_sorted(sorted: &[f64], depth: f64) -> f64 {
    // `depth` is a 1-based (possibly fractional) rank from the low end.
    let idx = depth - 1.0;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if hi >= sorted.len() {
        return sorted[sorted.len() - 1];
    }
    let frac = idx - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Compute the letter-value summary of `values` (need not be sorted).
///
/// ```
/// let vals: Vec<f64> = (1..=100).map(f64::from).collect();
/// let lv = lc_study::stats::letter_values(&vals);
/// assert_eq!(lv.median, 50.5);
/// let (q1, q3) = lv.fourths();
/// assert!(q1 < lv.median && lv.median < q3);
/// ```
///
/// Halving continues until either the depth reaches the extremes or the
/// expected tail fraction beyond the next letter value drops below
/// [`OUTLIER_RATE`] / 2 per side, mirroring the paper's fixed 0.7% outlier
/// rate.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn letter_values(values: &[f64]) -> LetterValues {
    assert!(!values.is_empty(), "letter_values of an empty sample");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN throughputs")); // invariant: throughputs are finite
    let n = sorted.len();
    let median_depth = (n as f64 + 1.0) / 2.0;
    let median = quantile_sorted(&sorted, median_depth);

    let mut boxes = Vec::new();
    let mut depth = median_depth;
    loop {
        depth = (depth.floor() + 1.0) / 2.0;
        if depth < 1.5 {
            break; // next letter value would be the extremes
        }
        let lower = quantile_sorted(&sorted, depth);
        let upper = quantile_sorted(&sorted, n as f64 + 1.0 - depth);
        boxes.push((lower, upper));
        // Expected tail beyond this letter value: (depth-1)/n per side.
        if (depth - 1.0) / n as f64 <= OUTLIER_RATE / 2.0 {
            break;
        }
    }

    let (fence_lo, fence_hi) = boxes.last().copied().unwrap_or((median, median));
    let outliers_low = sorted.iter().take_while(|&&v| v < fence_lo).count();
    let outliers_high = sorted.iter().rev().take_while(|&&v| v > fence_hi).count();
    LetterValues {
        n,
        median,
        boxes,
        outliers_low,
        outliers_high,
        min: sorted[0],
        max: sorted[n - 1],
    }
}

impl LetterValues {
    /// The middle-50% box (first letter-value pair).
    pub fn fourths(&self) -> (f64, f64) {
        self.boxes
            .first()
            .copied()
            .unwrap_or((self.median, self.median))
    }

    /// Skewness indicator used in the paper's prose: > 0 when the upper
    /// half of the middle box is shorter than the lower half, i.e. the
    /// distribution "skews towards higher throughputs" (§6.1).
    pub(crate) fn upward_skew(&self) -> f64 {
        let (lo, hi) = self.fourths();
        let below = self.median - lo;
        let above = hi - self.median;
        if below + above == 0.0 {
            0.0
        } else {
            (below - above) / (below + above)
        }
    }

    /// One-line rendering: `median [q25, q75] (n=…, outliers=…)`.
    pub fn render(&self) -> String {
        let (lo, hi) = self.fourths();
        format!(
            "median {:8.1} [{:8.1}, {:8.1}] n={} outliers={}",
            self.median,
            lo,
            hi,
            self.n,
            self.outliers_low + self.outliers_high
        )
    }
}

/// Median of a slice (not necessarily sorted).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN")); // invariant: inputs are finite
    quantile_sorted(&sorted, (sorted.len() as f64 + 1.0) / 2.0)
}

/// Geometric mean (the paper's cross-input aggregate, §5).
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
#[cfg(test)]
pub(crate) fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn geometric_mean_known_values() {
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_zero() {
        geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn letter_values_uniform() {
        let vals: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let lv = letter_values(&vals);
        assert!((lv.median - 500.5).abs() < 1e-9);
        let (q1, q3) = lv.fourths();
        assert!((q1 - 250.0).abs() < 2.0, "{q1}");
        assert!((q3 - 751.0).abs() < 2.0, "{q3}");
        assert!(
            lv.boxes.len() >= 4,
            "1000 points → several boxes: {}",
            lv.boxes.len()
        );
        // Uniform: symmetric.
        assert!(lv.upward_skew().abs() < 0.02);
    }

    #[test]
    fn letter_values_boxes_are_nested() {
        let vals: Vec<f64> = (0..5000).map(|i| ((i * 37) % 997) as f64).collect();
        let lv = letter_values(&vals);
        for w in lv.boxes.windows(2) {
            assert!(w[1].0 <= w[0].0, "lower letter values decrease outward");
            assert!(w[1].1 >= w[0].1, "upper letter values increase outward");
        }
        assert!(lv.min <= lv.boxes.last().unwrap().0);
        assert!(lv.max >= lv.boxes.last().unwrap().1);
    }

    #[test]
    fn letter_values_outlier_rate_near_0_7_percent() {
        let vals: Vec<f64> = (1..=100_000).map(|i| i as f64).collect();
        let lv = letter_values(&vals);
        let rate = (lv.outliers_low + lv.outliers_high) as f64 / lv.n as f64;
        assert!(rate <= 0.008, "outlier rate {rate}");
        assert!(rate > 0.0005, "outlier rate {rate} suspiciously low");
    }

    #[test]
    fn letter_values_single_value() {
        let lv = letter_values(&[7.0]);
        assert_eq!(lv.median, 7.0);
        assert_eq!(lv.outliers_low + lv.outliers_high, 0);
    }

    #[test]
    fn letter_values_two_values() {
        let lv = letter_values(&[1.0, 3.0]);
        assert_eq!(lv.median, 2.0);
        assert_eq!(lv.min, 1.0);
        assert_eq!(lv.max, 3.0);
    }

    #[test]
    fn skew_detects_asymmetry() {
        // Dense top half, stretched bottom half (decoding-like shape that
        // "skews towards higher throughputs"): the asymmetry must show up
        // inside the middle 50% box.
        let mut vals: Vec<f64> = (0..500).map(|i| 990.0 + (i % 10) as f64).collect();
        vals.extend((0..500).map(|i| i as f64 * 1.98));
        let lv = letter_values(&vals);
        assert!(lv.upward_skew() > 0.2, "skew {}", lv.upward_skew());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn letter_values_empty_panics() {
        letter_values(&[]);
    }

    #[test]
    fn render_contains_median_and_n() {
        let lv = letter_values(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let s = lv.render();
        assert!(s.contains("n=5"), "{s}");
        assert!(s.contains("median"), "{s}");
    }
}
