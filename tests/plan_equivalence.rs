//! Plan-execution equivalence: every pipeline that now runs through the
//! dataflow-plan scheduler must produce **bit-identical** outputs — and
//! identical `distances` user counters — to its retained
//! direct-`JobBuilder` reference path.
//!
//! This is the contract that makes the plan layer a pure refactor:
//! shuffle elision and stage fusion change *where* bytes move, never
//! *what* comes out.

use lsh_ddp::prelude::*;
use proptest::prelude::*;

/// Asserts two [`ddp::stats::RunReport`]s describe the same computation:
/// bit-identical DP results and, job-by-job, the same names and
/// `distances` counter snapshots.
fn assert_reports_equivalent(plan: &ddp::stats::RunReport, reference: &ddp::stats::RunReport) {
    assert_eq!(plan.result.dc.to_bits(), reference.result.dc.to_bits());
    assert_eq!(plan.result.rho, reference.result.rho);
    assert_eq!(plan.result.upslope, reference.result.upslope);
    assert_eq!(plan.result.delta.len(), reference.result.delta.len());
    for (i, (a, b)) in plan
        .result
        .delta
        .iter()
        .zip(&reference.result.delta)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "delta[{i}] differs in bits");
    }
    assert_eq!(plan.distances, reference.distances, "total distances");
    assert_eq!(plan.jobs.len(), reference.jobs.len(), "job count");
    for (p, r) in plan.jobs.iter().zip(&reference.jobs) {
        assert_eq!(p.name, r.name, "job order/name");
        assert_eq!(
            p.user.get("distances"),
            r.user.get("distances"),
            "{}: per-job distances snapshot",
            p.name
        );
    }
}

fn workload() -> Dataset {
    datasets::gaussian_mixture(2, 3, 50, 30.0, 1.0, 21).data
}

#[test]
fn lsh_ddp_plan_matches_reference() {
    let ds = workload();
    let dc = 1.2;
    let lsh = LshDdp::with_accuracy(0.97, 6, 3, dc, 13).expect("valid params");
    let plan = lsh.run(&ds, dc);
    let reference = lsh.run_reference(&ds, dc);
    assert_reports_equivalent(&plan, &reference);
    // The plan path must actually have elided something the reference
    // path shuffled; equivalence would be vacuous otherwise.
    assert!(plan.shuffle_bytes_saved() > 0, "delta-local stage elided");
    assert_eq!(reference.shuffle_bytes_saved(), 0);
    assert!(plan.shuffle_bytes() < reference.shuffle_bytes());
    // Elision must pay: at least a fifth of the no-elision shuffle volume.
    let (saved, full) = (plan.shuffle_bytes_saved(), reference.shuffle_bytes());
    assert!(
        saved * 5 >= full,
        "elision saved only {saved} of {full} shuffle bytes (< 20%)"
    );
}

#[test]
fn basic_ddp_plan_matches_reference() {
    let ds = workload();
    let dc = 1.2;
    let basic = BasicDdp::new(BasicConfig {
        block_size: 16,
        ..Default::default()
    });
    let plan = basic.run(&ds, dc);
    let reference = basic.run_reference(&ds, dc);
    assert_reports_equivalent(&plan, &reference);
    assert!(plan.shuffle_bytes_saved() > 0, "delta-block stage elided");
}

#[test]
fn eddpc_plan_matches_reference() {
    let ds = workload();
    let dc = 1.2;
    let eddpc = Eddpc::new(EddpcConfig {
        n_pivots: 10,
        seed: 4,
        pipeline: Default::default(),
    });
    let plan = eddpc.run(&ds, dc);
    let reference = eddpc.run_reference(&ds, dc);
    assert_reports_equivalent(&plan, &reference);
    // EDDPC's four stages all reshape their keys, so nothing is
    // co-partitioned and nothing may be (wrongly) elided.
    assert_eq!(plan.shuffle_bytes_saved(), 0);
}

#[test]
fn halo_plan_matches_reference() {
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
    let plan =
        ddp::halo_mr::compute_halo_distributed(&ds, &r, &clustering, &cfg, &cfg.pipeline.clone());
    let reference = ddp::halo_mr::compute_halo_distributed_reference(
        &ds,
        &r,
        &clustering,
        &cfg,
        &cfg.pipeline.clone(),
    );
    assert_eq!(plan.halo, reference.halo);
    assert_eq!(plan.border_rho, reference.border_rho);
    assert_eq!(plan.job.name, reference.job.name);
    assert_eq!(
        plan.job.user.get("distances"),
        reference.job.user.get("distances")
    );
}

#[test]
fn assign_plan_matches_reference() {
    let ds = workload();
    let dc = 1.2;
    let r = compute_exact(&ds, dc);
    for k in [1usize, 2, 3] {
        let peaks = dp_core::decision::select_top_k(&r, k);
        let plan = ddp::assign_mr::assign_distributed(&r, &peaks, &PipelineConfig::default());
        let reference =
            ddp::assign_mr::assign_distributed_reference(&r, &peaks, &PipelineConfig::default());
        assert_eq!(
            plan.clustering.labels(),
            reference.clustering.labels(),
            "k = {k}"
        );
        assert_eq!(plan.rounds.len(), reference.rounds.len(), "k = {k}");
        for (p, rf) in plan.rounds.iter().zip(&reference.rounds) {
            assert_eq!(p.name, rf.name);
            assert_eq!(p.shuffle_records, rf.shuffle_records);
        }
    }
}

/// Strategy: a small random dataset (4–40 points, 1–3 dims) in a
/// bounded box, plus a valid dc.
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

    /// Plan/reference equivalence for LSH-DDP is not an artifact of the
    /// blob workload: it holds on arbitrary small datasets.
    #[test]
    fn lsh_ddp_plan_matches_reference_on_random_data((ds, dc) in dataset_strategy()) {
        let lsh = LshDdp::with_accuracy(0.9, 4, 2, dc, 7).unwrap();
        let plan = lsh.run(&ds, dc);
        let reference = lsh.run_reference(&ds, dc);
        prop_assert_eq!(&plan.result.rho, &reference.result.rho);
        prop_assert_eq!(&plan.result.upslope, &reference.result.upslope);
        for (a, b) in plan.result.delta.iter().zip(&reference.result.delta) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(plan.distances, reference.distances);
    }
}
