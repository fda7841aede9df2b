//! The centralized step against the definitions its linear-time bodies
//! replaced: full sorts for every selection rule, the density-ordered
//! assignment, and the decision graph read off a rectified clone. Peaks,
//! labels and the graph must agree bit for bit, for every
//! [`PeakSelection`] variant.

use ddp::centralized::{CentralizedStep, PeakSelection};
use dp_core::decision::{self, DecisionGraph, DecisionPoint};
use dp_core::{denser, density_order, DpResult, PointId, NO_UPSLOPE};
use proptest::prelude::*;
use std::cmp::Ordering;

fn graph_by_definition(result: &DpResult) -> Vec<DecisionPoint> {
    let mut r = result.clone();
    let rectified = r.rectify_infinite_delta();
    (0..r.len())
        .map(|i| DecisionPoint {
            id: i as PointId,
            rho: r.rho[i],
            delta: r.delta[i],
            rectified: rectified[i],
        })
        .collect()
}

fn first_k_by_sort(
    mut ids: Vec<PointId>,
    k: usize,
    cmp: impl FnMut(&PointId, &PointId) -> Ordering,
) -> Vec<PointId> {
    ids.sort_by(cmp);
    ids.truncate(k);
    ids.sort_unstable();
    ids
}

fn peaks_by_definition(
    result: &DpResult,
    selection: &PeakSelection,
    graph: &DecisionGraph,
) -> Vec<PointId> {
    let points = graph_by_definition(result);
    let rectangle = |rho_min: u32, delta_min: f64| -> Vec<PointId> {
        points
            .iter()
            .filter(|p| p.rho > rho_min && p.delta > delta_min)
            .map(|p| p.id)
            .collect()
    };
    let all = (0..result.len() as PointId).collect();
    match *selection {
        PeakSelection::Threshold { rho_min, delta_min } => rectangle(rho_min, delta_min),
        PeakSelection::TopK(k) => {
            let gamma = result.gamma();
            first_k_by_sort(all, k, |&a, &b| {
                gamma[b as usize]
                    .partial_cmp(&gamma[a as usize])
                    .unwrap()
                    .then(a.cmp(&b))
            })
        }
        PeakSelection::DeltaOutliers { k, rho_quantile } => {
            let mut rhos = result.rho.clone();
            rhos.sort_unstable();
            let floor = rhos[((rhos.len() - 1) as f64 * rho_quantile) as usize];
            let ids = points
                .iter()
                .filter(|p| p.rho >= floor.max(1))
                .map(|p| p.id)
                .collect();
            first_k_by_sort(ids, k, |&a, &b| {
                let (da, db) = (points[a as usize].delta, points[b as usize].delta);
                db.partial_cmp(&da).unwrap().then(a.cmp(&b))
            })
        }
        PeakSelection::Auto => {
            let (rho_min, delta_min) = graph.suggest_thresholds();
            let peaks = rectangle(rho_min, delta_min);
            if peaks.is_empty() {
                // The canonical densest point, max `(rho, id)`.
                let densest = (0..result.len() as PointId)
                    .max_by_key(|&i| (result.rho[i as usize], i))
                    .unwrap();
                vec![densest]
            } else {
                peaks
            }
        }
    }
}

fn labels_by_definition(result: &DpResult, peaks: &[PointId]) -> Vec<u32> {
    let n = result.len();
    let mut peak_cluster = vec![u32::MAX; n];
    for (c, &p) in peaks.iter().enumerate() {
        peak_cluster[p as usize] = c as u32;
    }
    let mut order: Vec<PointId> = (0..n as PointId).collect();
    order.sort_by(|&a, &b| density_order(result.rho[a as usize], a, result.rho[b as usize], b));
    let mut labels = vec![u32::MAX; n];
    for &i in &order {
        let i = i as usize;
        labels[i] = match (peak_cluster[i], result.upslope[i]) {
            (c, _) if c != u32::MAX => c,
            (_, NO_UPSLOPE) => 0,
            (_, u) => labels[u as usize],
        };
    }
    labels
}

/// Tied densities and deltas, `+inf` deltas, and stranded
/// `NO_UPSLOPE` candidates beside the absolute peak; every other
/// upslope points at some denser point. One point is common.
fn dp_result() -> impl Strategy<Value = DpResult> {
    (0u8..5, 1usize..48)
        .prop_flat_map(|(one, n)| {
            let n = if one == 0 { 1 } else { n };
            let delta = (0u8..6).prop_map(|d| match d {
                5 => f64::INFINITY,
                d => f64::from(d) * 0.5,
            });
            (
                proptest::collection::vec(0u32..5, n),
                proptest::collection::vec(delta, n),
                proptest::collection::vec((any::<u32>(), 0u8..6), n),
            )
        })
        .prop_map(|(rho, delta, links)| {
            let n = rho.len() as PointId;
            let upslope = (0..n)
                .map(|i| {
                    let up: Vec<PointId> = (0..n)
                        .filter(|&j| denser(rho[j as usize], j, rho[i as usize], i))
                        .collect();
                    match links[i as usize] {
                        (_, 0) => NO_UPSLOPE,
                        _ if up.is_empty() => NO_UPSLOPE,
                        (pick, _) => up[pick as usize % up.len()],
                    }
                })
                .collect();
            DpResult {
                dc: 1.0,
                rho,
                delta,
                upslope,
            }
        })
}

/// Every variant; `k` in `{1, n, n + 5}` or anywhere between, the
/// quantile in `{0, 0.25, 0.99}`, thresholds on the delta grid.
fn selection(n: usize) -> impl Strategy<Value = PeakSelection> {
    (0u8..4, 0u8..4, 1..=n, 0u8..3, 0u32..5, 0u8..6).prop_map(
        move |(variant, k_pick, k_any, q, rho_min, d)| {
            let k = [1, n, n + 5, k_any][k_pick as usize];
            match variant {
                0 => PeakSelection::Threshold {
                    rho_min,
                    delta_min: f64::from(d) * 0.5 - 0.5,
                },
                1 => PeakSelection::TopK(k),
                2 => PeakSelection::DeltaOutliers {
                    k,
                    rho_quantile: [0.0, 0.25, 0.99][q as usize],
                },
                _ => PeakSelection::Auto,
            }
        },
    )
}

fn graph_bits(points: &[DecisionPoint]) -> Vec<(PointId, u32, u64, bool)> {
    points
        .iter()
        .map(|p| (p.id, p.rho, p.delta.to_bits(), p.rectified))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn run_equals_the_sort_based_definitions(
        (result, selection) in dp_result()
            .prop_flat_map(|r| { let n = r.len(); (Just(r), selection(n)) })
    ) {
        let step = CentralizedStep::new(selection.clone());
        let graph = DecisionGraph::from_result(&result);
        prop_assert_eq!(
            graph_bits(graph.points()),
            graph_bits(&graph_by_definition(&result))
        );
        let peaks = peaks_by_definition(&result, &selection, &graph);
        if peaks.is_empty() {
            prop_assert!(std::panic::catch_unwind(|| step.run(&result)).is_err());
            return;
        }

        let out = step.run(&result);
        prop_assert_eq!(graph_bits(out.graph.points()), graph_bits(graph.points()));
        prop_assert_eq!(&out.peaks, &peaks);
        prop_assert_eq!(out.clustering.labels(), &labels_by_definition(&result, &peaks)[..]);

        // Peaks in any order: `peaks[c]` labels cluster `c`.
        let reversed: Vec<PointId> = peaks.iter().rev().copied().collect();
        prop_assert_eq!(
            decision::assign(&result, &reversed).labels(),
            &labels_by_definition(&result, &reversed)[..]
        );
    }
}
