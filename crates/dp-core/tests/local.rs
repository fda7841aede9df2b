//! Every kernel of `dp_core::local`, on both of its routes, against the
//! definition: Eq. 1 (`rho`) and Eq. 2 (`delta`, canonical tie-break)
//! written out as plain loops over `squared_euclidean`.
//!
//! Inputs sit on a half-unit lattice with `d_c = sqrt(k) / 2`, so
//! duplicates abound and pairs land exactly on `d_c` (which the strict
//! predicate excludes); zeros are randomly `-0.0`; sizes straddle
//! `AUTO_MIN_POINTS` and include empty and one-point sets; dimensions run
//! from 1 through 74 (several lane tiles). Rows with a NaN/±inf
//! coordinate must take the pairwise route and still agree.
//!
//! `compute_exact` is the whole set as one partition; it and the `delta`
//! phase of `compute_gaussian` are checked against the same definitions.
//!
//! Every route also runs at both vector widths: each kernel's answers and
//! evaluation counts on the width `Isa::detect` picks must equal those of
//! the forced baseline build.

use dp_core::distance::squared_euclidean;
use dp_core::dp::{denser, NO_UPSLOPE};
use dp_core::local::{use_indexed, Key, Nearest, Partition, AUTO_MIN_POINTS};
use dp_core::simd::Isa;
use dp_core::{compute_exact, compute_gaussian, Dataset, PointId};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::Once;

const DIMS: [usize; 8] = [1, 2, 3, 4, 8, 17, 33, 74];
const INF: f64 = f64::INFINITY;

/// SplitMix64.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `n` lattice rows: the first three axes spread over six cells, the rest
/// mostly at zero, so distances stay near `d_c` at any dimension.
fn rows(rng: &mut Rng, n: usize, dim: usize, jitter: bool) -> Vec<f64> {
    (0..n * dim)
        .map(|k| {
            let cell = if k % dim < 3 {
                rng.below(6)
            } else {
                u64::from(rng.below(16) == 0)
            };
            let x = cell as f64 * 0.5;
            match (jitter, x == 0.0 && rng.below(2) == 0) {
                (true, _) => x + rng.below(1000) as f64 * 1e-4,
                (false, true) => -0.0,
                (false, false) => x,
            }
        })
        .collect()
}

/// Poisons up to three rows with a non-finite coordinate.
fn poison(rng: &mut Rng, flat: &mut [f64]) {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        if !flat.is_empty() {
            flat[rng.below(flat.len() as u64) as usize] = bad;
        }
    }
}

/// Tie-heavy densities over distinct ids starting at `first_id`.
fn keys(rng: &mut Rng, n: usize, first_id: PointId) -> Vec<Key> {
    let mut ids: Vec<PointId> = (first_id..first_id + n as PointId).collect();
    for i in (1..n).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    ids.into_iter()
        .map(|id| (rng.below(4) as u32, id))
        .collect()
}

struct Case {
    dim: usize,
    dc: f64,
    flat: Vec<f64>,
    keys: Vec<Key>,
    /// A second point set, finite, with ids disjoint from `keys`.
    other: Vec<f64>,
    other_keys: Vec<Key>,
    finite: bool,
    rng: Rng,
}

/// `sizes`: whether the main and the second set straddle
/// `AUTO_MIN_POINTS` (else they are small, down to empty).
fn case(
    seed: u64,
    dim_ix: usize,
    sizes: (bool, bool),
    k: u32,
    jitter: bool,
    hostile: bool,
) -> Case {
    let mut rng = Rng(seed);
    let dim = DIMS[dim_ix];
    let mut size = |big: bool, small: u64| match big {
        true => AUTO_MIN_POINTS - 6 + rng.below(40) as usize,
        false => rng.below(small) as usize,
    };
    let (n, m) = (size(sizes.0, 34), size(sizes.1, 24));
    let mut flat = rows(&mut rng, n, dim, jitter);
    let other = rows(&mut rng, m, dim, jitter);
    if hostile {
        poison(&mut rng, &mut flat);
    }
    Case {
        dim,
        dc: f64::from(k).sqrt() * 0.5,
        keys: keys(&mut rng, n, 7),
        other_keys: keys(&mut rng, m, 100_000),
        finite: !hostile || flat.is_empty(),
        flat,
        other,
        rng,
    }
}

fn row(flat: &[f64], dim: usize, i: usize) -> &[f64] {
    &flat[i * dim..][..dim]
}

// ---- The definitions -------------------------------------------------

/// Eq. 1: how many points of `set` lie within `d_c` of `q` (strict),
/// leaving out index `skip`.
fn brute_rho(q: &[f64], set: &[f64], dim: usize, dc: f64, skip: Option<usize>) -> u32 {
    (0..set.len() / dim)
        .filter(|&j| Some(j) != skip && squared_euclidean(q, row(set, dim, j)) < dc * dc)
        .count() as u32
}

/// Eq. 2 from `start`: the nearest point of `set` denser than `qkey`, no
/// farther than `cap`, ties toward the smaller id; with `maxd`, an answer
/// that finds none carries the distance to the farthest point instead.
fn brute_delta(
    (q, qkey): (&[f64], Key),
    (set, keys): (&[f64], &[Key]),
    dim: usize,
    ((mut d, mut u), cap): ((f64, PointId), f64),
    maxd: bool,
    skip: Option<usize>,
) -> Nearest {
    let mut far = 0.0f64;
    for (j, &(rho, id)) in keys.iter().enumerate() {
        if Some(j) == skip {
            continue;
        }
        let dj = squared_euclidean(q, row(set, dim, j)).sqrt();
        far = far.max(dj);
        if dj <= cap && denser(rho, id, qkey.0, qkey.1) && (dj < d || (dj == d && id < u)) {
            (d, u) = (dj, id);
        }
    }
    (d, u, if maxd && u == NO_UPSLOPE { far } else { 0.0 })
}

fn bits(v: &[Nearest]) -> Vec<(u64, PointId, u64)> {
    v.iter()
        .map(|a| (a.0.to_bits(), a.1, a.2.to_bits()))
        .collect()
}

/// A route at the detected vector width and, when that is wider than the
/// baseline, at the baseline width too.
struct Route<'a> {
    name: &'static str,
    p: Partition<'a>,
    baseline: Option<Partition<'a>>,
}

impl Route<'_> {
    /// Runs `kernel` on the route, and on its baseline twin if any, which
    /// must give the same result — answers and evaluation counts.
    fn run<T: PartialEq + Debug>(&self, kernel: impl Fn(&Partition) -> T) -> T {
        let got = kernel(&self.p);
        if let Some(base) = &self.baseline {
            assert_eq!(
                got,
                kernel(base),
                "{}: detected vs baseline width",
                self.name
            );
        }
        got
    }
}

/// The routes to run on a case: both forced ones on finite rows, and
/// always the one `Partition::new` picks.
fn routes<'a>(c: &'a Case, flat: &'a [f64]) -> Vec<Route<'a>> {
    let isa = Isa::detect();
    static SKIP: Once = Once::new();
    if !isa.is_avx2() {
        SKIP.call_once(|| eprintln!("no AVX2 on this host: the width axis is skipped"));
    }
    // `forced`: the route to force, or `None` for what `Partition::new` picks.
    let route = |name, forced: Option<bool>| {
        let indexed = forced.unwrap_or_else(|| use_indexed(flat.len() / c.dim, &[flat]));
        let at = |isa| Partition::with_route(flat, c.dim, c.dc, (indexed, isa));
        Route {
            name,
            p: match forced {
                Some(_) => at(isa),
                None => Partition::new(flat, c.dim, c.dc),
            },
            baseline: isa.is_avx2().then(|| at(Isa::BASELINE)),
        }
    };
    let mut out = vec![route("routed", None)];
    if flat.iter().all(|x| x.is_finite()) {
        out.push(route("pairwise", Some(false)));
        out.push(route("indexed", Some(true)));
    }
    out
}

/// Collects a kernel's `emit` calls by index, checking each index is
/// answered exactly once.
fn collect(
    n: usize,
    run: impl FnOnce(&mut dyn FnMut(usize, Nearest)) -> u64,
) -> (Vec<Nearest>, u64) {
    let mut got: Vec<Option<Nearest>> = vec![None; n];
    let evals = run(&mut |i, a| assert!(got[i].replace(a).is_none(), "index {i} answered twice"));
    let got = got.into_iter().map(|a| a.expect("every index answered"));
    (got.collect(), evals)
}

#[test]
fn routing_rule_is_size_and_finiteness() {
    let zeros = vec![0.0; AUTO_MIN_POINTS];
    assert!(!use_indexed(AUTO_MIN_POINTS - 1, &[&zeros]));
    assert!(use_indexed(AUTO_MIN_POINTS, &[&zeros, &[-0.0, 1e300]]));
    assert!(!use_indexed(0, &[]));
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(!use_indexed(1 << 20, &[&zeros, &[bad]]), "{bad}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rho_is_eq_1_on_both_routes(
        seed in any::<u64>(), dim_ix in 0usize..8, big in any::<bool>(),
        k in 1u32..=12, jitter in any::<bool>(), hostile in any::<bool>(),
    ) {
        let c = case(seed, dim_ix, (big, false), k, jitter, hostile);
        let n = c.flat.len() / c.dim;
        let want: Vec<u32> = (0..n)
            .map(|i| brute_rho(row(&c.flat, c.dim, i), &c.flat, c.dim, c.dc, Some(i)))
            .collect();
        let all_pairs = (n * n.saturating_sub(1) / 2) as u64;
        for r in routes(&c, &c.flat) {
            let route = r.name;
            let (rho, evals) = r.run(|p| p.rho());
            prop_assert_eq!(&rho, &want, "{}", route);
            prop_assert!(evals <= all_pairs, "{}: {} evals", route, evals);
            let stays_pairwise = !c.finite || n < AUTO_MIN_POINTS;
            if route == "pairwise" || (route == "routed" && stays_pairwise) {
                prop_assert_eq!(evals, all_pairs, "{}", route);
            }
        }
    }

    /// Labels: 0 one for all (nothing to visit or evaluate), 1 all
    /// distinct (every near pair), 2 random per point (no subtree is
    /// uniform), 3 by lattice cell of the first axis (subtrees are, so
    /// the indexed route prunes).
    #[test]
    fn pairs_across_visits_each_near_pair_across_labels_once(
        seed in any::<u64>(), dim_ix in 0usize..8, big in any::<bool>(),
        k in 1u32..=12, jitter in any::<bool>(), hostile in any::<bool>(),
        labelling in 0u8..4,
    ) {
        let mut c = case(seed, dim_ix, (big, false), k, jitter, hostile);
        let n = c.flat.len() / c.dim;
        let labels: Vec<u32> = (0..n)
            .map(|i| match labelling {
                0 => 7,
                1 => i as u32,
                2 => c.rng.below(3) as u32,
                _ => (row(&c.flat, c.dim, i)[0] * 2.0).max(0.0) as u32,
            })
            .collect();
        // The definition: the pairs within the admitting radius whose
        // labels differ — a superset of both predicates callers apply.
        let r2 = c.dc * c.dc * (1.0 + 4.0 * f64::EPSILON);
        let (mut want, mut squared, mut metric, mut across) =
            (BTreeSet::new(), BTreeSet::new(), BTreeSet::new(), 0u64);
        for i in 0..n {
            for j in i + 1..n {
                if labels[i] == labels[j] {
                    continue;
                }
                across += 1;
                let d2 = squared_euclidean(row(&c.flat, c.dim, i), row(&c.flat, c.dim, j));
                if d2 < r2 { want.insert((i, j)); }
                if d2 < c.dc * c.dc { squared.insert((i, j)); }
                if d2.sqrt() < c.dc { metric.insert((i, j)); }
            }
        }
        prop_assert!(want.is_superset(&squared) && want.is_superset(&metric));
        for r in routes(&c, &c.flat) {
            let route = r.name;
            let (seen, evals) = r.run(|p| {
                let mut seen = BTreeSet::new();
                let evals = p.pairs_across(&labels, |i, j, d2| {
                    assert!(i < j && seen.insert((i, j)), "{route}: pair ({i},{j}) twice");
                    let want = squared_euclidean(row(&c.flat, c.dim, i), row(&c.flat, c.dim, j));
                    assert_eq!(d2.to_bits(), want.to_bits(), "{route}: d2 of ({i},{j})");
                });
                (seen, evals)
            });
            prop_assert_eq!(&seen, &want, "{}", route);
            // Each pair across labels is evaluated at most once, and the
            // pairwise route evaluates exactly those.
            prop_assert!(evals <= across, "{}: {} evals of {}", route, evals, across);
            let stays_pairwise = !c.finite || n < AUTO_MIN_POINTS;
            if route == "pairwise" || (route == "routed" && stays_pairwise) {
                prop_assert_eq!(evals, across, "{}", route);
            }
        }
    }

    #[test]
    fn within_of_is_eq_1_across_two_sets(
        seed in any::<u64>(), dim_ix in 0usize..8, big in any::<bool>(),
        k in 1u32..=12, jitter in any::<bool>(), hostile in any::<bool>(),
    ) {
        let c = case(seed, dim_ix, (big, false), k, jitter, hostile);
        // Queries: the other set, then a few of the partition's own rows.
        let mut queries = c.other.clone();
        queries.extend_from_slice(&c.flat[..c.flat.len().min(5 * c.dim)]);
        let m = queries.len() / c.dim;
        let want: Vec<u32> = (0..m)
            .map(|q| brute_rho(row(&queries, c.dim, q), &c.flat, c.dim, c.dc, None))
            .collect();
        for r in routes(&c, &c.flat) {
            let route = r.name;
            let (got, evals) = r.run(|p| {
                let mut got = vec![0u32; m];
                let mut seen = BTreeSet::new();
                let evals = p.within_of(&queries, |q, i| {
                    assert!(seen.insert((q, i)), "{route}: ({q},{i}) twice");
                    got[q] += 1;
                });
                (got, evals)
            });
            prop_assert_eq!(&got, &want, "{}", route);
            prop_assert!(evals <= (m * r.p.len()) as u64, "{}", route);
            let (counts, count_evals) = r.run(|p| p.count_of(&queries));
            prop_assert_eq!(&counts, &want, "{}: count_of", route);
            prop_assert!(count_evals <= evals, "{}: counting must not cost more", route);
        }
    }

    #[test]
    fn delta_is_eq_2_on_both_routes(
        seed in any::<u64>(), dim_ix in 0usize..8, big in any::<bool>(),
        k in 1u32..=12, jitter in any::<bool>(), hostile in any::<bool>(),
        maxd in any::<bool>(),
    ) {
        let c = case(seed, dim_ix, (big, false), k, jitter, hostile);
        let n = c.keys.len();
        let fresh = ((INF, NO_UPSLOPE), INF);
        let want: Vec<Nearest> = (0..n)
            .map(|i| {
                let q = (row(&c.flat, c.dim, i), c.keys[i]);
                brute_delta(q, (&c.flat, &c.keys), c.dim, fresh, maxd, Some(i))
            })
            .collect();
        let all_pairs = (n * n.saturating_sub(1) / 2) as u64;
        for r in routes(&c, &c.flat) {
            let route = r.name;
            let (got, evals) = r.run(|p| {
                let (got, evals) = collect(n, |emit| p.delta(&c.keys, maxd, emit));
                (bits(&got), evals)
            });
            prop_assert_eq!(got, bits(&want), "{}", route);
            // The farthest-point search rides on top of the pairs.
            prop_assert!(evals <= all_pairs + n as u64, "{}: {} evals", route, evals);
            if route == "pairwise" || !c.finite {
                prop_assert_eq!(evals, all_pairs, "{}", route);
            }
        }
    }

    /// `emit` runs once per point, in ascending `i`, on either route; the
    /// indexed route evaluates nothing outside its searches' leaf scans
    /// unless it is asked for the peak's farthest point.
    #[test]
    fn delta_emits_in_ascending_order_and_evaluates_only_in_leaf_scans(
        seed in any::<u64>(), dim_ix in 0usize..8, big in any::<bool>(),
        k in 1u32..=12, jitter in any::<bool>(), hostile in any::<bool>(),
        maxd in any::<bool>(),
    ) {
        let c = case(seed, dim_ix, (big, false), k, jitter, hostile);
        let n = c.keys.len();
        for r in routes(&c, &c.flat) {
            let route = r.name;
            let (order, evals) = r.run(|p| {
                let mut order = Vec::with_capacity(n);
                let evals = p.delta(&c.keys, maxd, |i, _| order.push(i));
                (order, evals)
            });
            prop_assert_eq!(order, (0..n).collect::<Vec<_>>(), "{}", route);
            if route == "indexed" && !maxd {
                prop_assert_eq!(evals, r.p.work().search_accepted, "{}", route);
            }
        }
    }

    #[test]
    fn delta_of_continues_a_capped_search(
        seed in any::<u64>(), dim_ix in 0usize..8, big in any::<bool>(),
        k in 1u32..=12, jitter in any::<bool>(), hostile in any::<bool>(),
    ) {
        let mut c = case(seed, dim_ix, (big, false), k, jitter, hostile);
        let m = c.other_keys.len();
        // Starts: fresh or a standing answer; caps: none, or a lattice
        // distance some candidate sits exactly at.
        let starts: Vec<((f64, PointId), f64)> = (0..m)
            .map(|_| {
                let init = match c.rng.below(2) {
                    0 => (INF, NO_UPSLOPE),
                    _ => (c.rng.below(5) as f64 * 0.5, 200_000 + c.rng.below(9) as PointId),
                };
                (init, if c.rng.below(2) == 0 { INF } else { c.rng.below(6) as f64 * 0.5 })
            })
            .collect();
        let want: Vec<Nearest> = (0..m)
            .map(|q| {
                let query = (row(&c.other, c.dim, q), c.other_keys[q]);
                brute_delta(query, (&c.flat, &c.keys), c.dim, starts[q], true, None)
            })
            .collect();
        for r in routes(&c, &c.flat) {
            let route = r.name;
            let (got, evals) = r.run(|p| {
                let (got, evals) = collect(m, |emit| {
                    p.delta_of(&c.keys, &c.other, &c.other_keys, |q| starts[q], emit)
                });
                (bits(&got), evals)
            });
            prop_assert_eq!(got, bits(&want), "{}", route);
            let n = r.p.len();
            prop_assert!(evals <= (2 * m * n) as u64, "{}", route);
            if route == "pairwise" || !c.finite {
                prop_assert_eq!(evals, (m * n) as u64, "{}", route);
            }
        }
    }

    #[test]
    fn delta_between_serves_both_directions(
        seed in any::<u64>(), dim_ix in 0usize..8, big in any::<bool>(),
        big_other in any::<bool>(), k in 1u32..=12, jitter in any::<bool>(),
        hostile in any::<bool>(),
    ) {
        let c = case(seed, dim_ix, (big, big_other), k, jitter, hostile);
        let (n, m) = (c.keys.len(), c.other_keys.len());
        let fresh = ((INF, NO_UPSLOPE), INF);
        // The main set is answered among itself first, the way a block is
        // before it meets its partners.
        let own: Vec<Nearest> = (0..n)
            .map(|i| {
                let q = (row(&c.flat, c.dim, i), c.keys[i]);
                brute_delta(q, (&c.flat, &c.keys), c.dim, fresh, true, Some(i))
            })
            .collect();
        let want_a: Vec<Nearest> = (0..n)
            .map(|i| {
                let q = (row(&c.flat, c.dim, i), c.keys[i]);
                let from = ((own[i].0, own[i].1), INF);
                let (d, u, far) = brute_delta(q, (&c.other, &c.other_keys), c.dim, from, true, None);
                (d, u, if u == NO_UPSLOPE { own[i].2.max(far) } else { 0.0 })
            })
            .collect();
        let want_b: Vec<Nearest> = (0..m)
            .map(|q| {
                let query = (row(&c.other, c.dim, q), c.other_keys[q]);
                brute_delta(query, (&c.flat, &c.keys), c.dim, fresh, true, None)
            })
            .collect();
        for r in routes(&c, &c.flat) {
            let route = r.name;
            let (best, got_b, evals) = r.run(|a| {
                let mut best = own.clone();
                let (got_b, evals) = collect(m, |emit| {
                    a.delta_between(&c.keys, &mut best, (&c.other, &c.other_keys), emit)
                });
                (bits(&best), bits(&got_b), evals)
            });
            prop_assert_eq!(best, bits(&want_a), "a: {}", route);
            prop_assert_eq!(got_b, bits(&want_b), "b: {}", route);
            if route == "pairwise" || m < AUTO_MIN_POINTS {
                prop_assert_eq!(evals, (n * m) as u64, "{}: one pass, each pair once", route);
            }
        }
    }

    /// Exact DP end to end: Eq. 1, then Eq. 2 under the keys `(rho, id)`,
    /// the absolute peak's `delta` being its `maxd`. The Gaussian variant's
    /// `delta` and upslope follow the same definition under its rank keys.
    #[test]
    fn exact_dp_is_eq_1_then_eq_2(
        seed in any::<u64>(), dim_ix in 0usize..8, big in any::<bool>(),
        k in 1u32..=12, jitter in any::<bool>(), hostile in any::<bool>(),
        one in any::<bool>(),
    ) {
        let mut c = case(seed, dim_ix, (big, false), k, jitter, hostile);
        if one || c.flat.is_empty() {
            c.flat = rows(&mut c.rng, 1, c.dim, jitter);
            if hostile {
                poison(&mut c.rng, &mut c.flat);
            }
        }
        let (dim, flat) = (c.dim, &c.flat);
        let n = flat.len() / dim;
        let want_rho: Vec<u32> = (0..n)
            .map(|i| brute_rho(row(flat, dim, i), flat, dim, c.dc, Some(i)))
            .collect();
        let eq_2 = |rho: &[u32]| -> (Vec<u64>, Vec<PointId>) {
            let keys: Vec<Key> = (0..n as PointId).map(|i| (rho[i as usize], i)).collect();
            let fresh = ((INF, NO_UPSLOPE), INF);
            (0..n)
                .map(|i| {
                    let q = (row(flat, dim, i), keys[i]);
                    let (d, u, maxd) = brute_delta(q, (flat, &keys), dim, fresh, true, Some(i));
                    ((if u == NO_UPSLOPE { maxd } else { d }).to_bits(), u)
                })
                .unzip()
        };
        let delta_bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        let ds = Dataset::from_flat(dim, flat.clone());
        let exact = compute_exact(&ds, c.dc);
        prop_assert_eq!(&exact.rho, &want_rho);
        prop_assert_eq!((delta_bits(&exact.delta), exact.upslope), eq_2(&want_rho));
        // Gaussian densities of a non-finite row are NaN and have no rank.
        if flat.iter().all(|x| x.is_finite()) {
            let gauss = compute_gaussian(&ds, c.dc).result;
            prop_assert_eq!((delta_bits(&gauss.delta), gauss.upslope), eq_2(&gauss.rho));
        }
    }
}

/// The indexed route answers bit for bit as the pairwise one where ties
/// decide: duplicate rows, `-0.0` beside `0.0`, denser candidates at one
/// distance under different ids, and densities all equal, so only the ids
/// order the points.
#[test]
fn indexed_delta_is_the_pairwise_delta_on_ties() {
    let n = AUTO_MIN_POINTS + 44;
    for dim in [1, 2, 4, 17] {
        let mut rng = Rng(0x5EED + dim as u64);
        // Unjittered lattice rows: duplicates and signed zeros throughout.
        let flat = rows(&mut rng, n, dim, false);
        assert!(flat.iter().any(|x| x.to_bits() == (-0.0f64).to_bits()));
        // Four corners at one distance from a centre, twice over.
        let mut star = flat.clone();
        for (k, (dx, dy)) in [(0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)]
            .iter()
            .enumerate()
        {
            for copy in 0..2 {
                let at = (8 * k + copy) * dim;
                star[at..at + dim].fill(0.0);
                star[at] = *dx;
                if dim > 1 {
                    star[at + 1] = *dy;
                }
            }
        }
        star[40 * dim..41 * dim].fill(-0.0);
        let reversed: Vec<Key> = (0..n as PointId).map(|i| (0, n as PointId - i)).collect();
        let equal: Vec<Key> = (0..n as PointId).map(|i| (3, i)).collect();
        for (flat, keys) in [
            (&flat, &equal),
            (&flat, &reversed),
            (&flat, &keys(&mut rng, n, 1)),
            (&star, &equal),
            (&star, &keys(&mut rng, n, 1)),
        ] {
            for maxd in [false, true] {
                let answers = |indexed| {
                    let p = Partition::with_route(flat, dim, 0.5, (indexed, Isa::detect()));
                    let (got, _) = collect(n, |emit| p.delta(keys, maxd, emit));
                    bits(&got)
                };
                assert_eq!(answers(true), answers(false), "dim={dim} maxd={maxd}");
            }
        }
    }
}
