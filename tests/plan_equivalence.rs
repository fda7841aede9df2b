//! Shuffle-elision equivalence: every pipeline runs its plans twice — with
//! co-partitioned shuffle elision on, and with `disable_elision: true` —
//! and the two runs must agree **bit for bit** on results, halos and
//! labels, job by job on names and `distances` counters. Elision changes
//! *where* bytes move, never *what* comes out.
//!
//! What either run computes is checked against the Eq. 1 / Eq. 2
//! definition in `kernel_equivalence.rs`; the distributed assignment is
//! checked here against `dp_core::decision::assign`.

use lsh_ddp::prelude::*;

/// `pipeline` with the scheduler's shuffle elision switched off.
fn unelided(pipeline: PipelineConfig) -> PipelineConfig {
    PipelineConfig {
        disable_elision: true,
        ..pipeline
    }
}

/// Asserts two [`ddp::stats::RunReport`]s describe the same computation:
/// bit-identical DP results and, job by job, the same names and
/// `distances` counter snapshots.
fn assert_reports_equivalent(elided: &ddp::stats::RunReport, plain: &ddp::stats::RunReport) {
    assert_eq!(elided.result.dc.to_bits(), plain.result.dc.to_bits());
    assert_eq!(elided.result.rho, plain.result.rho);
    assert_eq!(elided.result.upslope, plain.result.upslope);
    assert_eq!(elided.result.delta.len(), plain.result.delta.len());
    for (i, (a, b)) in elided
        .result
        .delta
        .iter()
        .zip(&plain.result.delta)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "delta[{i}] differs in bits");
    }
    assert_eq!(elided.distances, plain.distances, "total distances");
    assert_eq!(elided.jobs.len(), plain.jobs.len(), "job count");
    for (e, p) in elided.jobs.iter().zip(&plain.jobs) {
        assert_eq!(e.name, p.name, "job order/name");
        assert_eq!(
            e.user.get("distances"),
            p.user.get("distances"),
            "{}: per-job distances snapshot",
            e.name
        );
    }
}

/// Asserts that what the elided run did not shuffle is exactly what the
/// unelided run shuffled on top of it, job by job.
fn assert_savings_account_for_the_difference(
    elided: &ddp::stats::RunReport,
    plain: &ddp::stats::RunReport,
) {
    assert_eq!(plain.shuffle_bytes_saved(), 0, "elision was disabled");
    for (e, p) in elided.jobs.iter().zip(&plain.jobs) {
        assert_eq!(
            e.shuffle_bytes + e.shuffle_bytes_saved,
            p.shuffle_bytes,
            "{}: shuffled + saved must equal the unelided shuffle",
            e.name
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
    let elided = lsh.run(&ds, dc);
    let pipeline = lsh.config().pipeline;
    let plain = lsh.with_pipeline(unelided(pipeline)).run(&ds, dc);
    assert_reports_equivalent(&elided, &plain);
    assert_savings_account_for_the_difference(&elided, &plain);
    // The elided run must actually have skipped something the unelided run
    // shuffled; equivalence would be vacuous otherwise.
    assert!(elided.shuffle_bytes_saved() > 0, "delta-local stage elided");
    assert!(elided.shuffle_bytes() < plain.shuffle_bytes());
    // Elision must pay: at least a fifth of the no-elision shuffle volume.
    let (saved, full) = (elided.shuffle_bytes_saved(), plain.shuffle_bytes());
    assert!(
        saved * 5 >= full,
        "elision saved only {saved} of {full} shuffle bytes (< 20%)"
    );
}

#[test]
fn basic_ddp_plan_matches_reference() {
    let ds = workload();
    let dc = 1.2;
    let config = BasicConfig {
        block_size: 16,
        ..Default::default()
    };
    let elided = BasicDdp::new(config.clone()).run(&ds, dc);
    let plain = BasicDdp::new(BasicConfig {
        pipeline: unelided(config.pipeline),
        ..config
    })
    .run(&ds, dc);
    assert_reports_equivalent(&elided, &plain);
    assert_savings_account_for_the_difference(&elided, &plain);
    assert!(elided.shuffle_bytes_saved() > 0, "delta-block stage elided");
}

#[test]
fn eddpc_plan_matches_reference() {
    let ds = workload();
    let dc = 1.2;
    let run = |pipeline: PipelineConfig| {
        Eddpc::new(EddpcConfig {
            n_pivots: 10,
            seed: 4,
            pipeline,
        })
        .run(&ds, dc)
    };
    let elided = run(PipelineConfig::default());
    let plain = run(unelided(PipelineConfig::default()));
    assert_reports_equivalent(&elided, &plain);
    assert_savings_account_for_the_difference(&elided, &plain);
    // EDDPC's four stages all reshape their keys, so nothing is
    // co-partitioned and nothing may be (wrongly) elided.
    assert_eq!(elided.shuffle_bytes_saved(), 0);
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
    let halo = |pipeline: PipelineConfig| {
        ddp::halo_mr::compute_halo_distributed(&ds, &r, &clustering, &cfg, &pipeline)
    };
    let elided = halo(cfg.pipeline);
    let plain = halo(unelided(cfg.pipeline));
    assert_eq!(elided.halo, plain.halo);
    assert_eq!(elided.border_rho, plain.border_rho);
    assert_eq!(elided.job.name, plain.job.name);
    assert_eq!(
        elided.job.user.get("distances"),
        plain.job.user.get("distances")
    );
    assert_eq!(elided.job.shuffle_bytes, plain.job.shuffle_bytes);
}

#[test]
fn assign_plan_matches_reference() {
    let ds = workload();
    let dc = 1.2;
    let r = compute_exact(&ds, dc);
    for k in [1usize, 2, 3] {
        let peaks = dp_core::decision::select_top_k(&r, k);
        let central = dp_core::decision::assign(&r, &peaks);
        let elided = ddp::assign_mr::assign_distributed(&r, &peaks, &PipelineConfig::default());
        let plain =
            ddp::assign_mr::assign_distributed(&r, &peaks, &unelided(PipelineConfig::default()));
        assert_eq!(
            elided.clustering.labels(),
            central.labels(),
            "k = {k}: distributed assignment must equal centralized"
        );
        assert_eq!(
            elided.clustering.labels(),
            plain.clustering.labels(),
            "k = {k}"
        );
        assert_eq!(elided.rounds.len(), plain.rounds.len(), "k = {k}");
        for (e, p) in elided.rounds.iter().zip(&plain.rounds) {
            assert_eq!(e.name, p.name);
            assert_eq!(e.shuffle_records, p.shuffle_records);
            assert_eq!(e.shuffle_bytes_saved, 0, "no two rounds share a source");
        }
    }
}
