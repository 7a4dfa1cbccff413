//! Order statistics over timing samples.

/// Summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `p` of an ascending sample, by the rule of Python's
/// `statistics.quantiles` (exclusive method): position `(n + 1) * p`,
/// linear interpolation, clamped to the sample's range.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = ((n + 1) as f64 * p).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            if lo >= n {
                v[n - 1]
            } else {
                v[lo - 1] + frac * (v[lo] - v[lo - 1])
            }
        }
    }
}

pub fn quantile(samples: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(samples), p)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn summary(samples: &[f64]) -> Summary {
    let v = sorted(samples);
    Summary {
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
        n: v.len(),
    }
}

/// The highest percentile of the usual ladder that still has at least ten
/// of `n` samples beyond it (40 -> 75, 100 -> 90, 1407 -> 99). Below twenty
/// samples nothing qualifies and the median stands in.
pub fn tail_pct(n: usize) -> f64 {
    const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// `(percentile, value)` of the tail rule above.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let pct = tail_pct(samples.len());
    (pct, quantile(samples, pct / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_follow_the_exclusive_rule() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let s = summary(&xs);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        // Positions outside the sample clamp to its ends.
        assert_eq!(quantile(&[1.0, 2.0], 0.99), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_pct(40), 75.0);
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(1407), 99.0);
        assert_eq!(tail_pct(19), 50.0);
        assert_eq!(tail_pct(20), 50.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, v) = tail(&xs);
        assert_eq!(pct, 90.0);
        assert!((v - 90.9).abs() < 1e-9);
    }
}
