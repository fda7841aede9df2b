//! Cluster validation and approximation-quality metrics.
//!
//! Two families:
//!
//! * **External validation** against ground-truth labels — Adjusted Rand
//!   Index, Normalized Mutual Information, purity, and pairwise F-measure.
//!   These back the paper's Figure 6 / Table III quality comparison and the
//!   "comparable cluster results" claims.
//! * **Approximation accuracy** of LSH-DDP's `rho` estimates — the paper's
//!   `tau1` (fraction of exactly-recovered densities) and `tau2`
//!   (1 − mean normalized absolute error), §VI-C, Figure 9.

use std::collections::HashMap;

/// Joint contingency table of two labelings over the same points.
#[derive(Debug, Clone)]
pub struct Contingency {
    /// `counts[(a, b)]` = number of points labeled `a` by the first
    /// clustering and `b` by the second.
    counts: HashMap<(u32, u32), u64>,
    /// Marginal sizes of the first labeling's clusters.
    row_sums: HashMap<u32, u64>,
    /// Marginal sizes of the second labeling's clusters.
    col_sums: HashMap<u32, u64>,
    n: u64,
}

impl Contingency {
    /// Tabulates two labelings.
    ///
    /// # Panics
    /// Panics if the labelings have different lengths or are empty.
    pub fn new(a: &[u32], b: &[u32]) -> Self {
        assert_eq!(a.len(), b.len(), "labelings must cover the same points");
        assert!(!a.is_empty(), "labelings must be non-empty");
        let mut counts: HashMap<(u32, u32), u64> = HashMap::new();
        let mut row_sums: HashMap<u32, u64> = HashMap::new();
        let mut col_sums: HashMap<u32, u64> = HashMap::new();
        for (&x, &y) in a.iter().zip(b.iter()) {
            *counts.entry((x, y)).or_insert(0) += 1;
            *row_sums.entry(x).or_insert(0) += 1;
            *col_sums.entry(y).or_insert(0) += 1;
        }
        Contingency {
            counts,
            row_sums,
            col_sums,
            n: a.len() as u64,
        }
    }

    /// Number of points tabulated.
    pub fn n(&self) -> u64 {
        self.n
    }
}

#[inline]
fn choose2(x: u64) -> f64 {
    (x as f64) * (x as f64 - 1.0) / 2.0
}

/// Adjusted Rand Index in `[-1, 1]`; `1` for identical partitions, `~0` for
/// independent ones. Invariant to label permutation.
pub fn adjusted_rand_index(a: &[u32], b: &[u32]) -> f64 {
    let t = Contingency::new(a, b);
    let sum_ij: f64 = t.counts.values().map(|&c| choose2(c)).sum();
    let sum_a: f64 = t.row_sums.values().map(|&c| choose2(c)).sum();
    let sum_b: f64 = t.col_sums.values().map(|&c| choose2(c)).sum();
    let total = choose2(t.n);
    if total == 0.0 {
        return 1.0;
    }
    let expected = sum_a * sum_b / total;
    let max_index = (sum_a + sum_b) / 2.0;
    if (max_index - expected).abs() < 1e-15 {
        // Both partitions are trivial (all-one-cluster or all-singletons).
        return if sum_ij == max_index { 1.0 } else { 0.0 };
    }
    (sum_ij - expected) / (max_index - expected)
}

/// Normalized Mutual Information with sqrt normalization, in `[0, 1]`.
pub fn normalized_mutual_information(a: &[u32], b: &[u32]) -> f64 {
    let t = Contingency::new(a, b);
    let n = t.n as f64;
    let mut mi = 0.0;
    for (&(x, y), &c) in &t.counts {
        let pxy = c as f64 / n;
        let px = t.row_sums[&x] as f64 / n;
        let py = t.col_sums[&y] as f64 / n;
        if pxy > 0.0 {
            mi += pxy * (pxy / (px * py)).ln();
        }
    }
    let ha: f64 = -t
        .row_sums
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            p * p.ln()
        })
        .sum::<f64>();
    let hb: f64 = -t
        .col_sums
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            p * p.ln()
        })
        .sum::<f64>();
    if ha <= 0.0 || hb <= 0.0 {
        // At least one partition is a single cluster: MI is 0 by
        // convention unless both are single clusters (identical).
        return if ha <= 0.0 && hb <= 0.0 { 1.0 } else { 0.0 };
    }
    (mi / (ha * hb).sqrt()).clamp(0.0, 1.0)
}

/// Purity of `predicted` with respect to `truth`, in `(0, 1]`: each
/// predicted cluster votes for its majority true class.
pub fn purity(predicted: &[u32], truth: &[u32]) -> f64 {
    let t = Contingency::new(predicted, truth);
    let mut best: HashMap<u32, u64> = HashMap::new();
    for (&(p, _), &c) in &t.counts {
        let e = best.entry(p).or_insert(0);
        *e = (*e).max(c);
    }
    best.values().sum::<u64>() as f64 / t.n as f64
}

/// Pairwise precision, recall and F1 between two partitions: a "pair" is
/// two points placed in the same cluster.
pub fn pairwise_f1(predicted: &[u32], truth: &[u32]) -> (f64, f64, f64) {
    let t = Contingency::new(predicted, truth);
    let tp: f64 = t.counts.values().map(|&c| choose2(c)).sum();
    let pred_pairs: f64 = t.row_sums.values().map(|&c| choose2(c)).sum();
    let true_pairs: f64 = t.col_sums.values().map(|&c| choose2(c)).sum();
    let precision = if pred_pairs > 0.0 {
        tp / pred_pairs
    } else {
        1.0
    };
    let recall = if true_pairs > 0.0 {
        tp / true_pairs
    } else {
        1.0
    };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    (precision, recall, f1)
}

/// `tau1`: fraction of points whose approximate density equals the exact
/// one (paper §VI-C). `tau1 = 1` iff every `rho` was recovered exactly.
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn tau1(exact_rho: &[u32], approx_rho: &[u32]) -> f64 {
    assert_eq!(exact_rho.len(), approx_rho.len(), "rho vectors must align");
    assert!(!exact_rho.is_empty(), "rho vectors must be non-empty");
    let hits = exact_rho
        .iter()
        .zip(approx_rho.iter())
        .filter(|(e, a)| e == a)
        .count();
    hits as f64 / exact_rho.len() as f64
}

/// `tau2`: one minus the mean normalized absolute density error
/// (paper §VI-C): `1 - (1/N) Σ |rho_hat_i - rho_i| / rho_i`.
///
/// Points with `rho_i = 0` contribute `0` error when the approximation is
/// also `0` and a full unit of error otherwise.
pub fn tau2(exact_rho: &[u32], approx_rho: &[u32]) -> f64 {
    assert_eq!(exact_rho.len(), approx_rho.len(), "rho vectors must align");
    assert!(!exact_rho.is_empty(), "rho vectors must be non-empty");
    let err: f64 = exact_rho
        .iter()
        .zip(approx_rho.iter())
        .map(|(&e, &a)| {
            if e == 0 {
                if a == 0 {
                    0.0
                } else {
                    1.0
                }
            } else {
                (e as f64 - a as f64).abs() / e as f64
            }
        })
        .sum();
    1.0 - err / exact_rho.len() as f64
}

/// Expected-accuracy impact of permanently losing part of an approximation
/// ensemble — e.g. LSH layouts whose partitions a dead node can no longer
/// serve. Produced by [`ensemble_degradation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationReport {
    /// Units permanently lost.
    pub units_lost: usize,
    /// Ensemble size before the loss.
    pub units_total: usize,
    /// Expected accuracy with the full ensemble.
    pub accuracy_before: f64,
    /// Expected accuracy over the surviving units.
    pub accuracy_after: f64,
}

impl DegradationReport {
    /// Absolute expected-accuracy loss.
    pub fn accuracy_delta(&self) -> f64 {
        (self.accuracy_before - self.accuracy_after).max(0.0)
    }

    /// The delta rounded to integer per-mille — the shape job counters
    /// carry.
    pub fn delta_per_mille(&self) -> u64 {
        (self.accuracy_delta() * 1000.0).round() as u64
    }
}

/// Degradation of an ensemble of `total` independent units with per-unit
/// hit probability `per_unit` when `lost` of them are permanently gone.
///
/// An ensemble of `k` such units recovers a quantity with probability
/// `1 - (1 - per_unit)^k` (the shape of the paper's Theorem 1); losing
/// units shrinks `k`. The caller decides what to do when *everything* is
/// lost — here `accuracy_after` simply reaches 0.
///
/// # Panics
/// Panics when `total` is zero, `lost > total`, or `per_unit` is outside
/// `[0, 1]`.
pub fn ensemble_degradation(per_unit: f64, total: usize, lost: usize) -> DegradationReport {
    assert!(total > 0, "ensemble must have at least one unit");
    assert!(lost <= total, "cannot lose {lost} of {total} units");
    assert!(
        (0.0..=1.0).contains(&per_unit),
        "per-unit accuracy must be a probability, got {per_unit}"
    );
    let acc = |k: usize| 1.0 - (1.0 - per_unit).powi(k as i32);
    DegradationReport {
        units_lost: lost,
        units_total: total,
        accuracy_before: acc(total),
        accuracy_after: acc(total - lost),
    }
}

/// Expected-accuracy impact of serving a model whose last `stale` of
/// `total` points carry *incrementally maintained* densities instead of
/// batch-pipeline ones.
///
/// A fresh point's density is recovered with probability `per_point`
/// (e.g. `lsh::prob::expected_accuracy` for the model's layout
/// parameters). A stale point compounds two approximations — the
/// original estimate *and* a bucket-localized update — so its recovery
/// probability is modeled as `per_point²`. The report's expected
/// accuracy is the mixture over the stale fraction:
/// `per_point · (1 - f) + per_point² · f` with `f = stale / total`.
/// Smooth in `f`, equal to `per_point` when nothing is stale, and the
/// signal the ingest path uses to decide when compaction is due.
///
/// # Panics
/// Panics when `total` is zero, `stale > total`, or `per_point` is
/// outside `[0, 1]`.
pub fn staleness_degradation(per_point: f64, total: usize, stale: usize) -> DegradationReport {
    assert!(total > 0, "model must hold at least one point");
    assert!(
        stale <= total,
        "cannot have {stale} stale of {total} points"
    );
    assert!(
        (0.0..=1.0).contains(&per_point),
        "per-point accuracy must be a probability, got {per_point}"
    );
    let f = stale as f64 / total as f64;
    DegradationReport {
        units_lost: stale,
        units_total: total,
        accuracy_before: per_point,
        accuracy_after: per_point * (1.0 - f) + per_point * per_point * f,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_report_shapes() {
        let r = ensemble_degradation(0.5, 4, 1);
        assert_eq!((r.units_lost, r.units_total), (1, 4));
        assert!((r.accuracy_before - (1.0 - 0.5f64.powi(4))).abs() < 1e-12);
        assert!((r.accuracy_after - (1.0 - 0.5f64.powi(3))).abs() < 1e-12);
        assert!((r.accuracy_delta() - 0.0625).abs() < 1e-12);
        assert_eq!(r.delta_per_mille(), 63);

        // Losing nothing costs nothing; losing everything costs it all.
        assert_eq!(ensemble_degradation(0.9, 5, 0).accuracy_delta(), 0.0);
        let all = ensemble_degradation(0.9, 5, 5);
        assert_eq!(all.accuracy_after, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot lose")]
    fn degradation_rejects_overloss() {
        ensemble_degradation(0.5, 3, 4);
    }

    #[test]
    fn staleness_mixes_between_fresh_and_compounded_accuracy() {
        // Nothing stale: no degradation at all.
        let fresh = staleness_degradation(0.9, 100, 0);
        assert_eq!(fresh.accuracy_after, fresh.accuracy_before);
        assert_eq!(fresh.delta_per_mille(), 0);

        // Everything stale: accuracy compounds to per_point².
        let worst = staleness_degradation(0.9, 100, 100);
        assert!((worst.accuracy_after - 0.81).abs() < 1e-12);

        // Halfway: the even mixture of the two regimes.
        let half = staleness_degradation(0.9, 100, 50);
        assert!((half.accuracy_after - (0.45 + 0.405)).abs() < 1e-12);
        assert_eq!((half.units_lost, half.units_total), (50, 100));

        // Monotone: more staleness never helps.
        let mut last = 1.0;
        for stale in [0, 10, 40, 90, 100] {
            let r = staleness_degradation(0.8, 100, stale);
            assert!(r.accuracy_after <= last);
            last = r.accuracy_after;
        }
    }

    #[test]
    #[should_panic(expected = "stale of")]
    fn staleness_rejects_more_stale_than_points() {
        staleness_degradation(0.5, 3, 4);
    }

    #[test]
    fn ari_identical_partitions() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ari_permuted_labels_is_one() {
        let a = vec![0, 0, 1, 1, 2, 2];
        let b = vec![2, 2, 0, 0, 1, 1];
        assert!((adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ari_known_value() {
        // Classic example: ARI([0,0,1,1], [0,0,0,1]) = ?
        // tp pairs together-together: pairs (0,1) share in both => nij table:
        // (0,0):2, (1,0):1, (1,1):1 => sum_ij C2 = 1
        // rows: 2,2 -> 2; cols: 3,1 -> 3; total C(4,2)=6
        // expected = 2*3/6 = 1; max = 2.5; ARI = (1-1)/(2.5-1) = 0
        let a = vec![0, 0, 1, 1];
        let b = vec![0, 0, 0, 1];
        assert!(adjusted_rand_index(&a, &b).abs() < 1e-12);
    }

    #[test]
    fn ari_trivial_partitions() {
        let single = vec![0, 0, 0];
        assert!((adjusted_rand_index(&single, &single) - 1.0).abs() < 1e-12);
        let singletons = vec![0, 1, 2];
        assert!((adjusted_rand_index(&singletons, &singletons) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_identical_and_independent() {
        let a = vec![0, 0, 1, 1];
        assert!((normalized_mutual_information(&a, &a) - 1.0).abs() < 1e-12);
        // Perfectly crossed partitions share no information.
        let b = vec![0, 1, 0, 1];
        assert!(normalized_mutual_information(&a, &b).abs() < 1e-9);
    }

    #[test]
    fn nmi_single_cluster_conventions() {
        let single = vec![0, 0, 0];
        let multi = vec![0, 1, 2];
        assert_eq!(normalized_mutual_information(&single, &single), 1.0);
        assert_eq!(normalized_mutual_information(&single, &multi), 0.0);
    }

    #[test]
    fn purity_majority_vote() {
        // Cluster 0 = {A, A, B}; cluster 1 = {B, B}; purity = (2+2)/5.
        let pred = vec![0, 0, 0, 1, 1];
        let truth = vec![0, 0, 1, 1, 1];
        assert!((purity(&pred, &truth) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn purity_is_one_for_refinement() {
        // Each predicted cluster is a subset of one true cluster.
        let pred = vec![0, 0, 1, 1, 2, 2];
        let truth = vec![0, 0, 0, 0, 1, 1];
        assert!((purity(&pred, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pairwise_f1_bounds_and_perfect() {
        let a = vec![0, 0, 1, 1];
        let (p, r, f) = pairwise_f1(&a, &a);
        assert_eq!((p, r, f), (1.0, 1.0, 1.0));
        let b = vec![0, 1, 0, 1];
        let (p2, r2, f2) = pairwise_f1(&a, &b);
        assert!(p2 >= 0.0 && r2 >= 0.0 && f2 >= 0.0);
        assert!(f2 < 1.0);
    }

    #[test]
    fn tau1_counts_exact_matches() {
        assert_eq!(tau1(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(tau1(&[1, 2, 3], &[1, 0, 3]), 2.0 / 3.0);
        assert_eq!(tau1(&[1, 2], &[0, 0]), 0.0);
    }

    #[test]
    fn tau2_normalized_error() {
        // errors: |4-2|/4 = 0.5 and 0 => tau2 = 1 - 0.25 = 0.75
        assert!((tau2(&[4, 10], &[2, 10]) - 0.75).abs() < 1e-12);
        assert_eq!(tau2(&[5], &[5]), 1.0);
    }

    #[test]
    fn tau2_zero_density_convention() {
        assert_eq!(tau2(&[0, 0], &[0, 0]), 1.0);
        assert_eq!(tau2(&[0, 0], &[1, 0]), 0.5);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn tau_rejects_mismatched_lengths() {
        let _ = tau1(&[1], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "same points")]
    fn contingency_rejects_mismatch() {
        let _ = Contingency::new(&[0], &[0, 1]);
    }
}
