//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs`; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The tail percentile reported as `op_p99_us`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile actually reported, in `(0, 100]`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it (at least [`MIN_BEYOND`] when the
    /// sample count allows).
    pub beyond: usize,
    /// Total sample count.
    pub samples: usize,
}

/// Samples a tail percentile must leave beyond itself.
pub const MIN_BEYOND: usize = 10;

/// p99 when at least [`MIN_BEYOND`] samples lie beyond it, otherwise the
/// highest percentile that leaves exactly [`MIN_BEYOND`] beyond (the
/// maximum when there are too few samples for even that).
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            percentile: 99.0,
            value: 0.0,
            beyond: 0,
            samples: 0,
        };
    }
    // Nearest-rank p99: the ceil(0.99 n)-th smallest sample.
    let rank99 = (n * 99).div_ceil(100).max(1);
    let rank = if n - rank99 >= MIN_BEYOND {
        rank99
    } else {
        n.saturating_sub(MIN_BEYOND).max(1)
    };
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        beyond: n - rank,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_when_the_tail_holds_ten_samples() {
        let t = tail(&ramp(1000));
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 99.0);
        let t = tail(&ramp(5000));
        assert_eq!(t.value, 4950.0);
        assert_eq!(t.beyond, 50);
    }

    #[test]
    fn lower_percentile_keeps_ten_beyond_on_short_runs() {
        let t = tail(&ramp(500));
        assert_eq!(t.beyond, MIN_BEYOND);
        assert_eq!(t.value, 490.0);
        assert_eq!(t.percentile, 98.0);
        // Order of the input does not matter.
        let mut shuffled = ramp(500);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), t);
    }

    #[test]
    fn tiny_samples_fall_back_to_the_minimum_rank() {
        let t = tail(&ramp(5));
        assert_eq!(t.value, 1.0);
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
