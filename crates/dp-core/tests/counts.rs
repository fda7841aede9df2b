//! The evaluation counts of the nearest-denser searches, pinned on three
//! fixed inputs: a 74-D mixture (`fit-wide`'s shape), a 4-D road-network
//! slice (`Spatial3d`'s) and the mixture's first two coordinates. A search
//! may skip a subtree only when it holds no acceptable point, so the leaves
//! it scans — and with them the counts — must not move; a pruning rule
//! that changed which leaves are scanned fails here even where the answers
//! survive. The 74-D and 4-D values were recorded before the searches
//! learned to skip subtrees; the 2-D ones hold low-dimensional input to
//! the same pruned search. The rho self-join's counts on the 74-D and 4-D
//! inputs were recorded before its leaf pairs moved to lane masks.

use dp_core::cutoff::estimate_dc_exact;
use dp_core::dp::NO_UPSLOPE;
use dp_core::local::{Key, Nearest, Partition};
use dp_core::simd::Isa;
use dp_core::{Dataset, SpatialIndex};

/// SplitMix64 with a Box–Muller normal.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn gauss(&mut self) -> f64 {
        let u = self.uniform(f64::MIN_POSITIVE, 1.0);
        let v = self.uniform(0.0, std::f64::consts::TAU);
        (-2.0 * u.ln()).sqrt() * v.cos()
    }
}

/// Six components on an 8-D latent space, embedded in 74-D with noise.
fn mixture74(n: usize) -> Vec<f64> {
    let mut rng = Rng(74);
    let centers: Vec<Vec<f64>> = (0..6)
        .map(|_| (0..8).map(|_| rng.uniform(0.0, 60.0)).collect())
        .collect();
    let mut flat = Vec::with_capacity(n * 74);
    for i in 0..n {
        let c = &centers[i % 6];
        let std = 1.5 * (0.6 + 0.2 * (i % 6) as f64);
        let latent: Vec<f64> = c.iter().map(|x| x + std * rng.gauss()).collect();
        for d in 0..74 {
            flat.push(match d {
                0..8 => latent[d],
                _ => 0.25 * latent[d % 8] + 0.3 * rng.gauss(),
            });
        }
    }
    flat
}

/// Six towns of eight short road segments each, plus an altitude
/// correlated with position.
fn roads4(n: usize) -> Vec<f64> {
    let mut rng = Rng(4);
    let per = n / 48;
    let mut flat = Vec::with_capacity(n * 4);
    for _town in 0..6 {
        let center: Vec<f64> = (0..3).map(|_| rng.uniform(0.0, 400.0)).collect();
        for _road in 0..8 {
            let a: Vec<f64> = center.iter().map(|c| c + rng.uniform(-6.0, 6.0)).collect();
            let b: Vec<f64> = a.iter().map(|x| x + rng.uniform(-8.0, 8.0)).collect();
            for _ in 0..per {
                let t = rng.uniform(0.0, 1.0);
                let j = 0.2 * rng.gauss();
                let p: Vec<f64> = (0..3).map(|d| a[d] + t * (b[d] - a[d]) + j).collect();
                let alt = 0.1 * p[0] + 0.05 * p[1] + rng.gauss();
                flat.extend_from_slice(&[p[0], p[1], p[2], alt]);
            }
        }
    }
    flat
}

/// Evaluations of `delta` over all of `flat`; of `delta_of` and of
/// `delta_between` from its first `split` points to the rest; and of the
/// serve probe's `nearest_by_d2` from every fifth point, shifted, with a
/// density floor and without.
fn counts(flat: &[f64], dim: usize, split: usize, isa: Isa) -> [u64; 5] {
    let n = flat.len() / dim;
    let dc = estimate_dc_exact(&Dataset::from_flat(dim, flat.to_vec()), 0.02);
    let whole = Partition::with_route(flat, dim, dc, (true, isa));
    let (rho, _) = whole.rho();
    let keys: Vec<Key> = rho
        .iter()
        .enumerate()
        .map(|(i, &r)| (r, i as u32))
        .collect();
    let delta = whole.delta(&keys, true, |_, _| {});

    let (a, b) = flat.split_at(split * dim);
    let (ka, kb) = keys.split_at(split);
    let part = Partition::with_route(a, dim, dc, (true, isa));
    let fresh = |_| ((f64::INFINITY, NO_UPSLOPE), f64::INFINITY);
    let delta_of = part.delta_of(ka, b, kb, fresh, |_, _| {});
    let mut best: Vec<Nearest> = vec![(0.0, 0, 0.0); split];
    part.delta(ka, true, |i, x| best[i] = x);
    let between = part.delta_between(ka, &mut best, (b, kb), |_, _| {});

    let index = SpatialIndex::build(flat, dim, dc);
    let density = index.density_keys(|i| keys[i as usize]);
    let (mut floored, mut any) = (0, 0);
    for i in (0..n).step_by(5) {
        let q: Vec<f64> = flat[i * dim..][..dim].iter().map(|x| x + 0.37).collect();
        floored += index.nearest_by_d2(&q, &density, (rho[i], 0)).1;
        any += index.nearest_by_d2(&q, &density, (0, 0)).1;
    }
    [delta, delta_of, between, floored, any]
}

#[test]
fn nearest_denser_counts_are_pinned() {
    for isa in [Isa::detect(), Isa::BASELINE] {
        assert_eq!(
            counts(&mixture74(1200), 74, 800, isa),
            [108_871, 22_952, 56_013, 10_630, 22_006],
            "74-D mixture on {isa}"
        );
        assert_eq!(
            counts(&roads4(2016), 4, 1400, isa),
            [30_701, 16_260, 16_471, 5_587, 11_051],
            "4-D roads on {isa}"
        );
        let mixture2: Vec<f64> = mixture74(1200)
            .chunks_exact(74)
            .flat_map(|p| [p[0], p[1]])
            .collect();
        assert_eq!(
            counts(&mixture2, 2, 800, isa),
            [10_502, 4_411, 10_436, 2_152, 3_213],
            "2-D mixture on {isa}"
        );
    }
}

/// The evaluations of `Partition::rho`'s kd self-join, with the sum of the
/// densities it returns: the join may settle a pair by box bounds or by
/// evaluating it, and which it does must not move.
#[test]
fn rho_self_join_counts_are_pinned() {
    for isa in [Isa::detect(), Isa::BASELINE] {
        for (flat, dim, want) in [
            (mixture74(1200), 74, (94_370, 28_774)),
            (roads4(2016), 4, (60_917, 81_244)),
        ] {
            let dc = estimate_dc_exact(&Dataset::from_flat(dim, flat.clone()), 0.02);
            let (rho, evals) = Partition::with_route(&flat, dim, dc, (true, isa)).rho();
            let total: u64 = rho.iter().map(|&r| u64::from(r)).sum();
            assert_eq!((evals, total), want, "{dim}-D on {isa}");
        }
    }
}

/// The kd-tree's own work on the same inputs: the join's node pairs
/// (visited, pruned, granted), leaf pairs and flag passes, and the delta
/// search's pops, fronts and leaf scans, beside the evaluations each
/// counted. A kernel may compute fewer lanes; it must not walk the tree
/// differently. Recorded on the kernels that computed every lane of every
/// tile row and leaf scan.
#[test]
fn kd_work_is_pinned() {
    let mixture2: Vec<f64> = mixture74(1200)
        .chunks_exact(74)
        .flat_map(|p| [p[0], p[1]])
        .collect();
    for isa in [Isa::detect(), Isa::BASELINE] {
        for (flat, dim, join, search) in [
            (
                mixture74(1200),
                74,
                [3_120, 110, 0, 1_514, 2_900, 94_370],
                [36_698, 15_806, 20_892, 108_692],
            ),
            (
                roads4(2016),
                4,
                [1_982, 357, 14, 684, 1_254, 60_917],
                [11_493, 7_700, 3_793, 30_638],
            ),
            (
                mixture2.clone(),
                2,
                [1_964, 334, 17, 694, 1_278, 19_468],
                [6_422, 4_403, 2_019, 10_482],
            ),
        ] {
            let dc = estimate_dc_exact(&Dataset::from_flat(dim, flat.clone()), 0.02);
            let part = Partition::with_route(&flat, dim, dc, (true, isa));
            let (rho, _) = part.rho();
            let keys: Vec<Key> = rho.iter().zip(0..).map(|(&r, i)| (r, i)).collect();
            part.delta(&keys, true, |_, _| {});
            let w = part.work();
            let got_join = [
                w.node_pairs,
                w.pruned,
                w.granted,
                w.leaf_pairs,
                w.flag_passes,
                w.join_counted,
            ];
            let got_search = [w.pops, w.fronts, w.leaf_scans, w.search_accepted];
            assert_eq!(got_join, join, "join, {dim}-D on {isa}");
            assert_eq!(got_search, search, "search, {dim}-D on {isa}");
        }
    }
}
