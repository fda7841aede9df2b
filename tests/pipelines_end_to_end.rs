//! End-to-end integration: every distributed pipeline against the
//! sequential reference, across data shapes and parameterizations.

use lsh_ddp::prelude::*;

/// A mid-size labeled workload: 5×4 grid of 2-D blobs.
fn grid_workload(n_per: usize, seed: u64) -> datasets::LabeledDataset {
    datasets::generators::blob_grid(5, 4, n_per, 25.0, 0.7, seed)
}

#[test]
fn basic_ddp_equals_sequential_on_grid() {
    let ld = grid_workload(25, 1);
    let dc = 1.0;
    let exact = compute_exact(&ld.data, dc);
    for block in [7, 100, 1000] {
        let report = BasicDdp::new(BasicConfig {
            block_size: block,
            ..Default::default()
        })
        .run(&ld.data, dc);
        assert_eq!(report.result.rho, exact.rho, "block {block}");
        assert_eq!(report.result.upslope, exact.upslope, "block {block}");
        for (a, b) in report.result.delta.iter().zip(&exact.delta) {
            assert!((a - b).abs() < 1e-12, "block {block}");
        }
    }
}

#[test]
fn eddpc_equals_sequential_on_grid() {
    let ld = grid_workload(25, 2);
    let dc = 1.0;
    let exact = compute_exact(&ld.data, dc);
    for pivots in [1, 9, 40] {
        let report = Eddpc::new(EddpcConfig {
            n_pivots: pivots,
            seed: 5,
            pipeline: Default::default(),
        })
        .run(&ld.data, dc);
        assert_eq!(report.result.rho, exact.rho, "pivots {pivots}");
        assert_eq!(report.result.upslope, exact.upslope, "pivots {pivots}");
    }
}

#[test]
fn all_three_pipelines_agree_on_clustering() {
    let ld = grid_workload(30, 3);
    let ds = &ld.data;
    let dc = 1.0;
    let k = 20;
    let step = CentralizedStep::new(PeakSelection::TopK(k));

    let basic = step.run(&BasicDdp::new(BasicConfig::default()).run(ds, dc).result);
    let eddpc = step.run(
        &Eddpc::new(EddpcConfig::for_size(ds.len(), 5))
            .run(ds, dc)
            .result,
    );
    let lsh = step.run(
        &LshDdp::with_accuracy(0.99, 10, 3, dc, 5)
            .expect("valid accuracy")
            .run(ds, dc)
            .result,
    );

    let ari = dp_core::quality::adjusted_rand_index;
    assert_eq!(
        ari(basic.clustering.labels(), eddpc.clustering.labels()),
        1.0,
        "two exact pipelines must agree perfectly"
    );
    let a = ari(basic.clustering.labels(), lsh.clustering.labels());
    assert!(a > 0.95, "exact vs approximate ARI = {a}");

    // And all of them recover the generating structure.
    let truth = ari(basic.clustering.labels(), &ld.labels);
    assert!(truth > 0.95, "ARI vs ground truth = {truth}");
}

#[test]
fn lsh_ddp_accuracy_improves_with_target() {
    let ld = grid_workload(30, 4);
    let ds = &ld.data;
    let dc = 1.0;
    let exact = compute_exact(ds, dc);
    let mut last_tau2 = 0.0;
    let mut taus = Vec::new();
    for a in [0.5, 0.9, 0.99] {
        let report = LshDdp::with_accuracy(a, 10, 3, dc, 6)
            .expect("valid accuracy")
            .run(ds, dc);
        let t2 = dp_core::quality::tau2(&exact.rho, &report.result.rho);
        taus.push((a, t2));
        last_tau2 = t2;
    }
    assert!(last_tau2 > 0.97, "tau2 at A=0.99: {last_tau2} ({taus:?})");
    assert!(
        taus[2].1 >= taus[0].1 - 0.02,
        "tau2 should not degrade as A rises: {taus:?}"
    );
}

/// The task-count half of the merge contract: every aggregate job folds
/// with an associative, commutative merge, so no pipeline's rho, delta or
/// upslope bits depend on how the map input is split or how many reduce
/// tasks there are. Only the shuffle volume moves with the split.
#[test]
fn pipelines_are_deterministic_across_runs_and_task_counts() {
    let ld = grid_workload(20, 7);
    let ds = &ld.data;
    let dc = 1.0;
    let run = |algorithm: &str, map_tasks: usize, reduce_tasks: usize| {
        let pipeline = ddp::common::PipelineConfig {
            map_tasks,
            reduce_tasks,
            ..Default::default()
        };
        let r = match algorithm {
            "basic" => BasicDdp::new(BasicConfig {
                block_size: 60,
                pipeline,
            })
            .run(ds, dc),
            "eddpc" => Eddpc::new(EddpcConfig {
                n_pivots: 9,
                seed: 5,
                pipeline,
            })
            .run(ds, dc),
            _ => LshDdp::new(ddp::lsh_ddp::LshDdpConfig {
                params: lsh::LshParams::for_accuracy(0.95, 8, 3, dc).expect("valid"),
                seed: 9,
                pipeline,
                partition_cap: None,
                rho_aggregation: Default::default(),
            })
            .run(ds, dc),
        }
        .result;
        let delta: Vec<u64> = r.delta.iter().map(|d| d.to_bits()).collect();
        (r.rho, delta, r.upslope)
    };
    for algorithm in ["basic", "eddpc", "lsh"] {
        let reference = run(algorithm, 1, 1);
        for (m, r) in [(1, 1), (4, 4), (7, 3), (2, 9)] {
            assert!(
                run(algorithm, m, r) == reference,
                "{algorithm}: ({m} map, {r} reduce) tasks differ from (1, 1)"
            );
        }
    }
}

#[test]
fn auto_dc_pipelines_run_cleanly() {
    let ld = grid_workload(15, 8);
    let basic = BasicDdp::new(BasicConfig::default()).run_auto_dc(&ld.data, 0.02, 150, 1);
    assert!(basic.result.dc > 0.0);
    assert_eq!(basic.jobs.len(), 5);
    let lsh = LshDdp::run_auto_dc(&ld.data, 0.95, 8, 3, 0.02, 150, 1).expect("valid");
    assert!(lsh.result.dc > 0.0);
    assert_eq!(lsh.jobs.len(), 5);
}

#[test]
fn run_report_cost_accounting_is_consistent() {
    let ld = grid_workload(20, 9);
    let dc = 1.0;
    let report = LshDdp::with_accuracy(0.9, 6, 3, dc, 2)
        .expect("valid accuracy")
        .run(&ld.data, dc);
    // The report's total distance count matches the last job's cumulative
    // snapshot.
    let last_snapshot = report
        .jobs
        .last()
        .and_then(|j| j.user.get("distances"))
        .copied()
        .expect("distance snapshots recorded");
    assert_eq!(last_snapshot, report.distances);
    // Shuffle bytes are the sum over jobs.
    assert_eq!(
        report.shuffle_bytes(),
        report.jobs.iter().map(|j| j.shuffle_bytes).sum::<u64>()
    );
    // Simulated time is positive and grows with a slower cluster.
    let fast = ClusterSpec::local_cluster();
    let slow = ClusterSpec { workers: 1, ..fast };
    assert!(report.simulate(&slow, 1.0) > report.simulate(&fast, 1.0));
}

#[test]
fn paper_analog_smoke_runs() {
    // Each Table II analog at a tiny scale through LSH-DDP end to end.
    for d in [
        PaperDataset::S2,
        PaperDataset::Facial,
        PaperDataset::Kdd,
        PaperDataset::Spatial3d,
        PaperDataset::BigCross500k,
    ] {
        let ld = d.generate(0.002, 3);
        let mut ds = ld.data;
        ds.normalize_min_max();
        let dc = dp_core::cutoff::estimate_dc_sampled(&ds, 0.05, 50_000, 3);
        let report = LshDdp::with_accuracy(0.9, 5, 3, dc, 3)
            .expect("valid accuracy")
            .run(&ds, dc);
        assert_eq!(report.result.len(), ds.len(), "{}", d.name());
        assert!(report.distances > 0, "{}", d.name());
    }
}
