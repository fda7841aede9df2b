//! Order statistics. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), which is
//! what the acceptance run computes spreads with.

/// Sorted copy; panics on NaN, which no metric may be.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are never NaN"));
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile; both equal the sample when there is one.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of the samples of one cycle.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The `k` best samples (all of them when there are fewer): the lowest, or
/// the highest of a metric where higher is better.
pub fn best(values: &[f64], k: usize, higher_is_better: bool) -> Vec<f64> {
    let mut v = sorted(values);
    if higher_is_better {
        v.reverse();
    }
    v.truncate(k.max(1));
    v
}

/// Mean of the `k` best samples.
pub fn best_mean(values: &[f64], k: usize, higher_is_better: bool) -> f64 {
    let v = best(values, k, higher_is_better);
    assert!(!v.is_empty(), "mean of no samples");
    v.iter().sum::<f64>() / v.len() as f64
}

/// What `run` prints beside a value.
#[derive(Debug, Clone)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            min: v[0],
            q1,
            q3,
            max: v[v.len() - 1],
            n: v.len(),
        }
    }

    /// Range as a share of the median.
    pub fn rel_range(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }

    /// Interquartile range as a share of the median: the in-run noise floor.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.50), 50.0);
        assert_eq!(percentile(&hundred, 0.95), 95.0);
        assert_eq!(percentile(&[7.0], 0.999), 7.0);
    }

    #[test]
    fn best_samples() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(best(&v, 3, false), [1.0, 2.0, 3.0]);
        assert_eq!(best(&v, 3, true), [5.0, 4.0, 3.0]);
        assert_eq!(best_mean(&v, 3, false), 2.0);
        assert_eq!(best_mean(&v[..2], 3, false), 3.0);
        assert_eq!(Summary::of(&best(&v, 3, true)).rel_range(), 0.5);
    }

    #[test]
    fn summary_spread() {
        let s = Summary::of(&[10.0, 10.0, 10.0]);
        assert_eq!(s.rel_iqr(), 0.0);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        assert_eq!(s.rel_iqr(), 1.0);
    }
}
