//! Kernel-strategy equivalence: every distributed pipeline must produce
//! identical `rho` and tie-break-identical (bitwise) `delta`/`upslope`
//! under [`KernelStrategy::Indexed`] as under [`KernelStrategy::Blocked`].
//!
//! This is the contract that makes the spatial-index kernels a pure
//! performance optimization: pruning changes *which distances are
//! evaluated*, never what comes out. The `distances` counters are
//! deliberately NOT compared — shrinking them is the whole point.

use dp_core::KernelStrategy;
use lsh_ddp::prelude::*;
use proptest::prelude::*;

fn pipe(kernel: KernelStrategy) -> PipelineConfig {
    PipelineConfig {
        kernel,
        ..PipelineConfig::default()
    }
}

/// Asserts the indexed run reproduces the blocked run bit for bit.
fn assert_results_match(blocked: &dp_core::DpResult, indexed: &dp_core::DpResult, tag: &str) {
    assert_eq!(blocked.rho, indexed.rho, "{tag}: rho");
    assert_eq!(blocked.upslope, indexed.upslope, "{tag}: upslope");
    assert_eq!(blocked.delta.len(), indexed.delta.len(), "{tag}: length");
    for (i, (a, b)) in blocked.delta.iter().zip(&indexed.delta).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{tag}: delta[{i}] differs in bits"
        );
    }
}

fn workload() -> Dataset {
    datasets::gaussian_mixture(2, 3, 60, 30.0, 1.0, 23).data
}

#[test]
fn basic_ddp_indexed_matches_blocked() {
    let ds = workload();
    let dc = 1.2;
    let run = |kernel| {
        BasicDdp::new(BasicConfig {
            block_size: 24,
            pipeline: pipe(kernel),
        })
        .run(&ds, dc)
    };
    assert_results_match(
        &run(KernelStrategy::Blocked).result,
        &run(KernelStrategy::Indexed).result,
        "basic",
    );
}

#[test]
fn lsh_ddp_indexed_matches_blocked() {
    let ds = workload();
    let dc = 1.2;
    let run = |kernel| {
        LshDdp::new(ddp::lsh_ddp::LshDdpConfig {
            params: lsh::LshParams::for_accuracy(0.97, 6, 3, dc).expect("valid"),
            seed: 13,
            pipeline: pipe(kernel),
            partition_cap: None,
            rho_aggregation: Default::default(),
        })
        .run(&ds, dc)
    };
    assert_results_match(
        &run(KernelStrategy::Blocked).result,
        &run(KernelStrategy::Indexed).result,
        "lsh-ddp",
    );
}

#[test]
fn eddpc_indexed_matches_blocked() {
    let ds = workload();
    let dc = 1.2;
    let run = |kernel| {
        Eddpc::new(EddpcConfig {
            n_pivots: 10,
            seed: 4,
            pipeline: pipe(kernel),
        })
        .run(&ds, dc)
    };
    assert_results_match(
        &run(KernelStrategy::Blocked).result,
        &run(KernelStrategy::Indexed).result,
        "eddpc",
    );
}

#[test]
fn halo_indexed_matches_blocked() {
    let ds = workload();
    let dc = 1.2;
    let r = compute_exact(&ds, dc);
    let peaks = dp_core::decision::select_top_k(&r, 3);
    let clustering = dp_core::decision::assign(&r, &peaks);
    let cfg = ddp::lsh_ddp::LshDdpConfig {
        params: lsh::LshParams::for_accuracy(0.97, 6, 3, dc).expect("valid"),
        seed: 13,
        pipeline: PipelineConfig::default(),
        partition_cap: None,
        rho_aggregation: Default::default(),
    };
    let run =
        |kernel| ddp::halo_mr::compute_halo_distributed(&ds, &r, &clustering, &cfg, &pipe(kernel));
    let blocked = run(KernelStrategy::Blocked);
    let indexed = run(KernelStrategy::Indexed);
    assert_eq!(blocked.halo, indexed.halo, "halo flags");
    assert_eq!(blocked.border_rho, indexed.border_rho, "border densities");
}

#[test]
fn reference_paths_honor_the_kernel_strategy_too() {
    // The retained JobBuilder reference paths resolve the same knob, so
    // the plan-equivalence suite stays meaningful under either strategy.
    let ds = workload();
    let dc = 1.2;
    let basic = BasicDdp::new(BasicConfig {
        block_size: 24,
        pipeline: pipe(KernelStrategy::Indexed),
    });
    assert_results_match(
        &basic.run(&ds, dc).result,
        &basic.run_reference(&ds, dc).result,
        "basic plan-vs-reference under indexed",
    );
    let eddpc = Eddpc::new(EddpcConfig {
        n_pivots: 10,
        seed: 4,
        pipeline: pipe(KernelStrategy::Indexed),
    });
    assert_results_match(
        &eddpc.run(&ds, dc).result,
        &eddpc.run_reference(&ds, dc).result,
        "eddpc plan-vs-reference under indexed",
    );
}

/// Three 300-point components at 64-D: box pruning is weak up here, and
/// every `basic` block and the large LSH buckets clear `AUTO_MIN_POINTS`.
fn wide_workload() -> (Dataset, f64) {
    let ds = datasets::gaussian_mixture(64, 3, 300, 40.0, 1.0, 5).data;
    let dc = dp_core::cutoff::estimate_dc_exact(&ds, 0.02);
    (ds, dc)
}

/// `run(kernel)` under all three strategies: identical result bits, and
/// the index never evaluates more distances than the all-pairs loops —
/// the inequality the per-point rho walk (each in-range pair from both
/// ends) used to violate at this dimension.
fn assert_strategies_agree(run: impl Fn(KernelStrategy) -> RunReport, tag: &str) {
    let blocked = run(KernelStrategy::Blocked);
    let indexed = run(KernelStrategy::Indexed);
    let auto = run(KernelStrategy::Auto);
    assert_results_match(&blocked.result, &indexed.result, &format!("{tag} indexed"));
    assert_results_match(&blocked.result, &auto.result, &format!("{tag} auto"));
    assert!(
        indexed.distances <= blocked.distances,
        "{tag}: indexed evaluated {} distances, blocked {}",
        indexed.distances,
        blocked.distances
    );
    assert!(auto.distances <= blocked.distances, "{tag}: auto");
}

#[test]
fn wide_mixture_strategies_agree_and_the_index_evaluates_no_more() {
    let (ds, dc) = wide_workload();
    assert_strategies_agree(
        |kernel| {
            BasicDdp::new(BasicConfig {
                block_size: 450,
                pipeline: pipe(kernel),
            })
            .run(&ds, dc)
        },
        "basic",
    );

    let params = lsh::LshParams::for_accuracy(0.99, 4, 2, dc).expect("valid");
    let multi = lsh::MultiLsh::new(ds.dim(), &params, 13);
    let largest = lsh::bucket_tables(&multi, ds.iter().map(|(_, p)| p))
        .iter()
        .flat_map(|t| t.values())
        .map(Vec::len)
        .max();
    assert!(
        largest >= Some(dp_core::index::AUTO_MIN_POINTS),
        "no bucket reaches the indexed kernels under auto: {largest:?}"
    );
    assert_strategies_agree(
        |kernel| {
            LshDdp::new(ddp::lsh_ddp::LshDdpConfig {
                params,
                seed: 13,
                pipeline: pipe(kernel),
                partition_cap: None,
                rho_aggregation: Default::default(),
            })
            .run(&ds, dc)
        },
        "lsh-ddp",
    );
}

/// A box cannot bound a NaN (nor survive an infinite extent), so a chunk
/// holding non-finite rows must keep the blocked kernels whatever the
/// strategy says: a 320-point block with NaN and ±inf rows in the middle
/// of a tight cluster, where the kd-tree would count whole subtrees.
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
    let dc = 4.0;
    let basic = |kernel| {
        BasicDdp::new(BasicConfig {
            block_size: 320,
            pipeline: pipe(kernel),
        })
        .run(&ds, dc)
    };
    let blocked = basic(KernelStrategy::Blocked);
    for kernel in [KernelStrategy::Indexed, KernelStrategy::Auto] {
        let got = basic(kernel);
        assert_results_match(&blocked.result, &got.result, &format!("basic {kernel}"));
        assert_eq!(
            blocked.distances, got.distances,
            "{kernel}: took the blocked path"
        );
    }
    let lsh = |kernel| {
        LshDdp::new(ddp::lsh_ddp::LshDdpConfig {
            params: lsh::LshParams::for_accuracy(0.99, 3, 1, dc).expect("valid"),
            seed: 13,
            pipeline: pipe(kernel),
            partition_cap: None,
            rho_aggregation: Default::default(),
        })
        .run(&ds, dc)
    };
    assert_results_match(
        &lsh(KernelStrategy::Blocked).result,
        &lsh(KernelStrategy::Indexed).result,
        "lsh-ddp",
    );
}

/// Strategy: a small random dataset (4–40 points, 1–3 dims) in a bounded
/// box, plus a valid dc. Mirrors the plan-equivalence suite so both the
/// grid fast path (low dim, moderate dc) and the kd-tree get exercised.
fn dataset_strategy() -> impl Strategy<Value = (Dataset, f64)> {
    (1usize..=3, 4usize..=40)
        .prop_flat_map(|(dim, n)| {
            (
                proptest::collection::vec(-30.0f64..30.0, dim * n),
                Just(dim),
                0.5f64..10.0,
            )
        })
        .prop_map(|(flat, dim, dc)| (Dataset::from_flat(dim, flat), dc))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Indexed/blocked equivalence for every pipeline on arbitrary small
    /// datasets — duplicates, collinear points, ties and all.
    #[test]
    fn all_pipelines_indexed_matches_blocked_on_random_data((ds, dc) in dataset_strategy()) {
        let basic = |kernel| {
            BasicDdp::new(BasicConfig { block_size: 7, pipeline: pipe(kernel) }).run(&ds, dc)
        };
        let b = basic(KernelStrategy::Blocked).result;
        let i = basic(KernelStrategy::Indexed).result;
        prop_assert_eq!(&b.rho, &i.rho);
        prop_assert_eq!(&b.upslope, &i.upslope);
        for (a, c) in b.delta.iter().zip(&i.delta) {
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }

        let lsh = |kernel| {
            LshDdp::new(ddp::lsh_ddp::LshDdpConfig {
                params: lsh::LshParams::for_accuracy(0.9, 4, 2, dc).unwrap(),
                seed: 7,
                pipeline: pipe(kernel),
                partition_cap: None,
                rho_aggregation: Default::default(),
            })
            .run(&ds, dc)
        };
        let b = lsh(KernelStrategy::Blocked).result;
        let i = lsh(KernelStrategy::Indexed).result;
        prop_assert_eq!(&b.rho, &i.rho);
        prop_assert_eq!(&b.upslope, &i.upslope);
        for (a, c) in b.delta.iter().zip(&i.delta) {
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }

        let eddpc = |kernel| {
            Eddpc::new(EddpcConfig { n_pivots: 5, seed: 4, pipeline: pipe(kernel) }).run(&ds, dc)
        };
        let b = eddpc(KernelStrategy::Blocked).result;
        let i = eddpc(KernelStrategy::Indexed).result;
        prop_assert_eq!(&b.rho, &i.rho);
        prop_assert_eq!(&b.upslope, &i.upslope);
        for (a, c) in b.delta.iter().zip(&i.delta) {
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }
    }
}
