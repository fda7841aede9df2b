//! Kernel-route equivalence: a partition takes the spatial index or the
//! pairwise loops by its size and finiteness alone, and whichever it
//! takes, every pipeline's output is what the definition says — the exact
//! pipelines bit for bit `compute_exact`, LSH-DDP and the distributed halo
//! pass the per-bucket definition written out below from
//! `lsh::bucket_tables`. Every workload here has partitions on both sides
//! of `AUTO_MIN_POINTS`, asserted per test, so both routes (and, through
//! the shared reference, each other) are checked.
//!
//! The `distances` counters are deliberately NOT compared with a
//! reference run — shrinking them is the whole point — only bounded by the
//! all-pairs figure.

use dp_core::local::AUTO_MIN_POINTS;
use dp_core::{denser, DpResult, NO_UPSLOPE};
use lsh_ddp::prelude::*;
use mapreduce::JobMetrics;
use proptest::prelude::*;

/// Asserts `got` reproduces `want` bit for bit.
fn assert_results_match(want: &DpResult, got: &DpResult, tag: &str) {
    assert_eq!(want.rho, got.rho, "{tag}: rho");
    assert_eq!(want.upslope, got.upslope, "{tag}: upslope");
    assert_eq!(want.delta.len(), got.delta.len(), "{tag}: length");
    for (i, (a, b)) in want.delta.iter().zip(&got.delta).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{tag}: delta[{i}] differs in bits"
        );
    }
}

/// Whether a local job's partitions sit on both sides of
/// `AUTO_MIN_POINTS`: its largest reduce group reaches it and its mean
/// group — hence some group — does not.
fn straddles(job: &JobMetrics) -> bool {
    let min = AUTO_MIN_POINTS as u64;
    job.max_reduce_group >= min && job.shuffle_records / job.reduce_input_groups.max(1) < min
}

/// `basic` with one block above `AUTO_MIN_POINTS` and a short last one.
fn basic(ds: &Dataset, block_size: usize) -> BasicDdp {
    assert!(
        block_size >= AUTO_MIN_POINTS && (1..AUTO_MIN_POINTS).contains(&(ds.len() % block_size)),
        "{} points in blocks of {block_size} must leave a short block",
        ds.len()
    );
    BasicDdp::new(BasicConfig {
        block_size,
        ..Default::default()
    })
}

fn lsh_config(params: LshParams, seed: u64) -> ddp::lsh_ddp::LshDdpConfig {
    ddp::lsh_ddp::LshDdpConfig {
        params,
        seed,
        pipeline: PipelineConfig::default(),
        partition_cap: None,
        rho_aggregation: Default::default(),
    }
}

/// The buckets of every layout of `cfg` over `ds`, with the all-pairs
/// figure `Σ_p n_p (n_p − 1)` both local jobs of a pairwise-only LSH-DDP
/// would evaluate. Asserts the bucket sizes straddle `AUTO_MIN_POINTS`.
fn buckets(ds: &Dataset, cfg: &ddp::lsh_ddp::LshDdpConfig) -> (Vec<Vec<u32>>, u64) {
    let multi = MultiLsh::new(ds.dim(), &cfg.params, cfg.seed);
    let buckets: Vec<Vec<u32>> = lsh::bucket_tables(&multi, ds.iter().map(|(_, p)| p))
        .into_iter()
        .flat_map(|t| t.into_values())
        .collect();
    let sizes = || buckets.iter().map(Vec::len);
    assert!(
        sizes().any(|s| s >= AUTO_MIN_POINTS) && sizes().any(|s| s < AUTO_MIN_POINTS),
        "buckets must sit on both sides of {AUTO_MIN_POINTS}: {:?}",
        sizes().collect::<Vec<_>>()
    );
    let all_pairs = sizes().map(|s| (s * (s - 1)) as u64).sum();
    (buckets, all_pairs)
}

/// LSH-DDP by definition (§IV): `rho_hat_i` is the largest count of
/// bucket-mates within `d_c` over the layouts; `delta_hat_i` the nearest
/// bucket-mate denser under `rho_hat`, ties toward the smaller id, `∞`
/// for a point that is the densest of every bucket it visits.
fn lsh_definition(ds: &Dataset, dc: f64, buckets: &[Vec<u32>]) -> DpResult {
    let n = ds.len();
    let d2 = |i: u32, j: u32| dp_core::distance::squared_euclidean(ds.point(i), ds.point(j));
    let mut rho = vec![0u32; n];
    for b in buckets {
        for &i in b {
            let local = b.iter().filter(|&&j| j != i && d2(i, j) < dc * dc).count();
            rho[i as usize] = rho[i as usize].max(local as u32);
        }
    }
    let mut delta = vec![f64::INFINITY; n];
    let mut upslope = vec![NO_UPSLOPE; n];
    for b in buckets {
        for &i in b {
            let (d, u) = (&mut delta[i as usize], &mut upslope[i as usize]);
            for &j in b {
                let dj = d2(i, j).sqrt();
                let j_denser = denser(rho[j as usize], j, rho[i as usize], i);
                if j_denser && (dj < *d || (dj == *d && j < *u)) {
                    (*d, *u) = (dj, j);
                }
            }
        }
    }
    DpResult {
        dc,
        rho,
        delta,
        upslope,
    }
}

/// Three 300-point components in the plane: whole-component buckets and
/// `basic` blocks of 400 clear `AUTO_MIN_POINTS`; bucket fragments, the
/// 100-point last block and a split component's Voronoi cells do not.
fn workload() -> Dataset {
    datasets::gaussian_mixture(2, 3, 300, 30.0, 1.0, 23).data
}

#[test]
fn basic_ddp_indexed_matches_blocked() {
    let ds = workload();
    let dc = 1.2;
    let report = basic(&ds, 400).run(&ds, dc);
    assert_results_match(&compute_exact(&ds, dc), &report.result, "basic");
}

#[test]
fn lsh_ddp_indexed_matches_blocked() {
    let ds = workload();
    let dc = 1.2;
    let cfg = lsh_config(LshParams::for_accuracy(0.97, 6, 3, dc).expect("valid"), 13);
    let (buckets, _) = buckets(&ds, &cfg);
    let report = LshDdp::new(cfg).run(&ds, dc);
    assert_results_match(
        &lsh_definition(&ds, dc, &buckets),
        &report.result,
        "lsh-ddp",
    );
}

#[test]
fn eddpc_indexed_matches_blocked() {
    let ds = workload();
    let dc = 1.2;
    let report = Eddpc::new(EddpcConfig {
        n_pivots: 4,
        seed: 4,
        pipeline: PipelineConfig::default(),
    })
    .run(&ds, dc);
    // Four pivots over three components: two whole-component cells and a
    // split one. Round 1 and round 2 search these owner sets; the rho
    // job's cells hold replicas on top and are larger.
    assert!(straddles(&report.jobs[1]), "owner cells all on one side");
    assert_results_match(&compute_exact(&ds, dc), &report.result, "eddpc");
}

#[test]
fn halo_indexed_matches_blocked() {
    let ds = workload();
    let dc = 1.2;
    let r = compute_exact(&ds, dc);
    let peaks = dp_core::decision::select_top_k(&r, 3);
    let clustering = dp_core::decision::assign(&r, &peaks);
    let cfg = lsh_config(LshParams::for_accuracy(0.97, 6, 3, dc).expect("valid"), 13);
    let (buckets, _) = buckets(&ds, &cfg);
    // By definition: a cluster's border density is the largest average
    // density over its cross-cluster bucket-mates within `d_c`.
    let mut border_rho = vec![0u32; clustering.n_clusters() as usize];
    for b in &buckets {
        for (k, &i) in b.iter().enumerate() {
            for &j in &b[k + 1..] {
                let (ci, cj) = (clustering.label(i), clustering.label(j));
                let d2 = dp_core::distance::squared_euclidean(ds.point(i), ds.point(j));
                if ci != cj && d2 < dc * dc {
                    let avg = (r.rho[i as usize] + r.rho[j as usize]) / 2;
                    for c in [ci, cj] {
                        border_rho[c as usize] = border_rho[c as usize].max(avg);
                    }
                }
            }
        }
    }
    let halo: Vec<bool> = (0..ds.len())
        .map(|i| {
            let b = border_rho[clustering.label(i as u32) as usize];
            b > 0 && r.rho[i] <= b
        })
        .collect();
    let got =
        ddp::halo_mr::compute_halo_distributed(&ds, &r, &clustering, &cfg, &cfg.pipeline.clone());
    assert_eq!(got.border_rho, border_rho, "border densities");
    assert_eq!(got.halo, halo, "halo flags");
}

#[test]
fn reference_paths_take_both_routes_too() {
    // The retained JobBuilder reference paths run the same reducers, so
    // the plan-equivalence suite stays meaningful on either route.
    let ds = workload();
    let dc = 1.2;
    let basic = basic(&ds, 400);
    assert_results_match(
        &basic.run(&ds, dc).result,
        &basic.run_reference(&ds, dc).result,
        "basic plan-vs-reference",
    );
    let eddpc = Eddpc::new(EddpcConfig {
        n_pivots: 4,
        seed: 4,
        pipeline: PipelineConfig::default(),
    });
    let reference = eddpc.run_reference(&ds, dc);
    assert!(straddles(&reference.jobs[1]), "owner cells all on one side");
    assert_results_match(
        &eddpc.run(&ds, dc).result,
        &reference.result,
        "eddpc plan-vs-reference",
    );
}

/// Three 300-point components at 64-D: box pruning is weak up here.
fn wide_workload() -> (Dataset, f64) {
    let ds = datasets::gaussian_mixture(64, 3, 300, 40.0, 1.0, 5).data;
    let dc = dp_core::cutoff::estimate_dc_exact(&ds, 0.02);
    (ds, dc)
}

/// The definition holds at 64-D too, and the routed kernels never
/// evaluate more distances than the all-pairs loops would — the
/// inequality the per-point rho walk (each in-range pair from both ends)
/// used to violate at this dimension.
#[test]
fn wide_mixture_matches_the_definition_and_the_index_evaluates_no_more() {
    let (ds, dc) = wide_workload();
    let n = ds.len() as u64;
    let report = basic(&ds, 400).run(&ds, dc);
    assert_results_match(&compute_exact(&ds, dc), &report.result, "basic");
    assert!(
        report.distances <= n * (n - 1),
        "basic evaluated {} distances, all-pairs {}",
        report.distances,
        n * (n - 1)
    );

    let cfg = lsh_config(LshParams::for_accuracy(0.99, 4, 2, dc).expect("valid"), 13);
    let (buckets, all_pairs) = buckets(&ds, &cfg);
    let report = LshDdp::new(cfg).run(&ds, dc);
    assert_results_match(
        &lsh_definition(&ds, dc, &buckets),
        &report.result,
        "lsh-ddp",
    );
    assert!(
        report.distances <= all_pairs,
        "lsh-ddp evaluated {} distances, all-pairs {all_pairs}",
        report.distances
    );
}

/// A box cannot bound a NaN (nor survive an infinite extent), so a chunk
/// holding non-finite rows must keep the pairwise kernels whatever its
/// size: a 320-point block with NaN and ±inf rows in the middle of a
/// tight cluster, where the kd-tree would count whole subtrees.
#[test]
fn non_finite_rows_keep_the_blocked_kernels() {
    let mut flat = datasets::gaussian_mixture(3, 1, 320, 1.0, 0.5, 9)
        .data
        .as_flat()
        .to_vec();
    for (row, bad) in [
        (40, f64::NAN),
        (41, f64::INFINITY),
        (170, f64::NEG_INFINITY),
        (171, f64::NAN),
    ] {
        flat[row * 3 + 1] = bad;
    }
    let ds = Dataset::from_flat(3, flat);
    let n = ds.len() as u64;
    let dc = 4.0;
    let report = BasicDdp::new(BasicConfig {
        block_size: 320,
        ..Default::default()
    })
    .run(&ds, dc);
    assert_results_match(&compute_exact(&ds, dc), &report.result, "basic");
    assert_eq!(report.distances, n * (n - 1), "took the pairwise route");

    let cfg = lsh_config(LshParams::for_accuracy(0.99, 3, 1, dc).expect("valid"), 13);
    let multi = MultiLsh::new(ds.dim(), &cfg.params, cfg.seed);
    let buckets: Vec<Vec<u32>> = lsh::bucket_tables(&multi, ds.iter().map(|(_, p)| p))
        .into_iter()
        .flat_map(|t| t.into_values())
        .collect();
    let poisoned = |b: &&Vec<u32>| {
        b.iter()
            .any(|&i| !ds.point(i).iter().all(|x| x.is_finite()))
    };
    assert!(
        buckets
            .iter()
            .filter(poisoned)
            .any(|b| b.len() >= AUTO_MIN_POINTS),
        "a non-finite row must sit in a bucket large enough to index"
    );
    let report = LshDdp::new(cfg).run(&ds, dc);
    assert_results_match(
        &lsh_definition(&ds, dc, &buckets),
        &report.result,
        "lsh-ddp",
    );
}

/// Strategy: a clump of 260 exact duplicates (always one bucket, one
/// block, one cell: the indexed route) with a tight halo of 60 around it,
/// plus 4–40 scattered points (1–3 dims) in a bounded box, and a valid dc.
/// Both the grid fast path (low dim, moderate dc) and the kd-tree get
/// exercised, on duplicates, collinear points and ties.
fn dataset_strategy() -> impl Strategy<Value = (Dataset, f64)> {
    (1usize..=3, 4usize..=40)
        .prop_flat_map(|(dim, n)| {
            (
                proptest::collection::vec(-30.0f64..30.0, dim * (n + 1)),
                proptest::collection::vec(-0.4f64..0.4, dim * 60),
                Just(dim),
                0.5f64..10.0,
            )
        })
        .prop_map(|(scattered, halo, dim, dc)| {
            let (center, scattered) = scattered.split_at(dim);
            let mut flat = center.repeat(260);
            flat.extend(halo.iter().zip(center.iter().cycle()).map(|(h, c)| h + c));
            flat.extend_from_slice(scattered);
            (Dataset::from_flat(dim, flat), dc)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every pipeline against its definition on arbitrary data with
    /// partitions on both sides of the routing threshold.
    #[test]
    fn all_pipelines_indexed_matches_blocked_on_random_data((ds, dc) in dataset_strategy()) {
        let exact = compute_exact(&ds, dc);
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();

        let b = basic(&ds, 270).run(&ds, dc).result;
        prop_assert_eq!(&b.rho, &exact.rho);
        prop_assert_eq!(&b.upslope, &exact.upslope);
        prop_assert_eq!(bits(&b.delta), bits(&exact.delta));

        let cfg = lsh_config(LshParams::for_accuracy(0.9, 4, 2, dc).unwrap(), 7);
        let (buckets, _) = buckets(&ds, &cfg);
        let want = lsh_definition(&ds, dc, &buckets);
        let l = LshDdp::new(cfg).run(&ds, dc).result;
        prop_assert_eq!(&l.rho, &want.rho);
        prop_assert_eq!(&l.upslope, &want.upslope);
        prop_assert_eq!(bits(&l.delta), bits(&want.delta));

        let report = Eddpc::new(EddpcConfig {
            n_pivots: 5,
            seed: 4,
            pipeline: PipelineConfig::default(),
        })
        .run(&ds, dc);
        prop_assert!(straddles(&report.jobs[1]), "owner cells all on one side");
        let e = report.result;
        prop_assert_eq!(&e.rho, &exact.rho);
        prop_assert_eq!(&e.upslope, &exact.upslope);
        prop_assert_eq!(bits(&e.delta), bits(&exact.delta));
    }
}
