//! End-to-end fault tolerance: whole DDP pipelines run under task-failure
//! injection — and full fault plans layering stragglers and mid-flight
//! kills on top — and produce results identical to clean runs.

use lsh_ddp::prelude::*;
use mapreduce::{
    plan, Dfs, Driver, Emitter, FaultPlan, FnMapper, FnReducer, JobConfig, JobMetrics, Phase, Stage,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn workload() -> Dataset {
    datasets::generators::blob_grid(4, 4, 25, 20.0, 0.6, 3).data
}

fn faulty_pipeline(rate_per_mille: u32) -> PipelineConfig {
    PipelineConfig {
        map_tasks: 6,
        reduce_tasks: 6,
        fault_stage: None,
        chaos: Some(FaultPlan::new(rate_per_mille, 777)),
        disable_elision: false,
        checkpoints: false,
        mem_budget: None,
    }
}

#[test]
fn basic_ddp_survives_task_failures_bit_exactly() {
    let ds = workload();
    let dc = 0.9;
    let clean = BasicDdp::new(BasicConfig {
        block_size: 40,
        ..Default::default()
    })
    .run(&ds, dc);
    let faulty = BasicDdp::new(BasicConfig {
        block_size: 40,
        pipeline: faulty_pipeline(250),
    })
    .run(&ds, dc);
    assert_eq!(
        clean.result, faulty.result,
        "retries must be invisible in results"
    );
    let retries: u64 = faulty.jobs.iter().map(|j| j.task_retries).sum();
    assert!(
        retries > 0,
        "25% failure rate across 4 jobs x 12 tasks must retry"
    );
    assert_eq!(clean.jobs.iter().map(|j| j.task_retries).sum::<u64>(), 0);
}

#[test]
fn lsh_ddp_survives_task_failures_bit_exactly() {
    let ds = workload();
    let dc = 0.9;
    let params = lsh::LshParams::for_accuracy(0.95, 8, 3, dc).expect("valid");
    let run = |pipeline: PipelineConfig| {
        LshDdp::new(ddp::lsh_ddp::LshDdpConfig {
            params,
            seed: 5,
            pipeline,
            partition_cap: None,
            rho_aggregation: Default::default(),
        })
        .run(&ds, dc)
    };
    let clean = run(PipelineConfig {
        map_tasks: 6,
        reduce_tasks: 6,
        fault_stage: None,
        chaos: None,
        disable_elision: false,
        checkpoints: false,
        mem_budget: None,
    });
    let faulty = run(faulty_pipeline(250));
    assert_eq!(clean.result, faulty.result);
    assert!(faulty.jobs.iter().map(|j| j.task_retries).sum::<u64>() > 0);
}

#[test]
fn eddpc_survives_task_failures_bit_exactly() {
    let ds = workload();
    let dc = 0.9;
    let run = |pipeline: PipelineConfig| {
        Eddpc::new(EddpcConfig {
            n_pivots: 12,
            seed: 2,
            pipeline,
        })
        .run(&ds, dc)
    };
    let clean = run(PipelineConfig {
        map_tasks: 6,
        reduce_tasks: 6,
        fault_stage: None,
        chaos: None,
        disable_elision: false,
        checkpoints: false,
        mem_budget: None,
    });
    let faulty = run(faulty_pipeline(250));
    assert_eq!(clean.result, faulty.result);
}

/// A one-stage sum job over 400 rows with `tasks` map and `tasks` reduce
/// tasks under `chaos`.
fn chaos_job(tasks: usize, chaos: Option<FaultPlan>) -> (Vec<(u32, u64)>, JobMetrics) {
    let rows: Vec<(u32, u32)> = (0..400u32)
        .map(|i| (i, i.wrapping_mul(2654435761)))
        .collect();
    let by_key = FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u64>| {
        out.emit(k % 97, v as u64);
    });
    let sum = FnReducer::new(|k: &u32, vs: Vec<u64>, out: &mut Emitter<u32, u64>| {
        out.emit(*k, vs.into_iter().sum());
    });
    Stage::new("chaos-job", by_key, sum)
        .config(JobConfig {
            map_tasks: tasks,
            reduce_tasks: tasks,
            chaos,
        })
        .run(rows)
}

#[test]
fn run_task_retry_counts_match_the_schedule_for_every_phase() {
    // The engine charges exactly the crashes `task_wastage` schedules,
    // in both phases: the schedule is phase-dependent, so a map-only
    // check would miss a reduce-side regression.
    let chaos = FaultPlan {
        max_attempts: 16,
        ..FaultPlan::new(400, 99)
    };
    let mut scheduled = 0u64;
    for phase in [Phase::Map, Phase::Reduce] {
        let failed: Vec<u32> = (0..40)
            .map(|t| {
                chaos
                    .task_wastage(phase, t)
                    .unwrap_or_else(|| panic!("{phase:?} task {t} is doomed"))
            })
            .collect();
        assert!(
            failed.iter().any(|&f| f > 0),
            "40% failure rate must retry some {phase:?} task"
        );
        scheduled += failed.iter().map(|&f| f as u64).sum::<u64>();
    }
    let (mut clean, _) = chaos_job(40, None);
    let (mut chaotic, metrics) = chaos_job(40, Some(chaos));
    assert_eq!(metrics.map_task_times.tasks, 40);
    assert_eq!(metrics.reduce_task_times.tasks, 40);
    assert_eq!(metrics.task_retries, scheduled);
    clean.sort_unstable();
    chaotic.sort_unstable();
    assert_eq!(clean, chaotic, "retries must be invisible in the output");
}

#[test]
fn doomed_tasks_kill_the_job_in_every_phase() {
    // Search seeds for one plan that dooms a map task, and one that dooms
    // a reduce task while every map task survives, so the reduce phase is
    // what kills that job.
    let plan_at = |seed: u64| FaultPlan::new(500, seed);
    let doomed = |c: &FaultPlan, phase: Phase| (0..8).any(|t| c.task_wastage(phase, t).is_none());
    let map_doom = (0..)
        .map(plan_at)
        .find(|c| doomed(c, Phase::Map))
        .expect("50% failure rate dooms some map task");
    let reduce_doom = (0..)
        .map(plan_at)
        .find(|c| !doomed(c, Phase::Map) && doomed(c, Phase::Reduce))
        .expect("50% failure rate dooms some reduce task alone");
    for (chaos, phase) in [(map_doom, "Map"), (reduce_doom, "Reduce")] {
        let killed = catch_unwind(|| chaos_job(8, Some(chaos))).expect_err("the job must die");
        let message = killed
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(
            message.contains("job killed") && message.starts_with(&format!("{phase} task")),
            "{message}"
        );
    }
}

#[test]
fn retries_scale_with_the_failure_rate() {
    let ds = workload();
    let dc = 0.9;
    let retries_at = |rate: u32| -> u64 {
        BasicDdp::new(BasicConfig {
            block_size: 40,
            pipeline: faulty_pipeline(rate),
        })
        .run(&ds, dc)
        .jobs
        .iter()
        .map(|j| j.task_retries)
        .sum()
    };
    let low = retries_at(50);
    let high = retries_at(500);
    assert!(
        high > low,
        "50% failure rate must retry more than 5% (got {low} vs {high})"
    );
}

// --------------------------------------------------------------- chaos

/// Raises `max_attempts` until no task either phase could plausibly run
/// (ids 0..64 comfortably cover every map chunk and reduce partition the
/// pipelines use) is doomed by the schedule, making the chaos survivable
/// by construction; the check goes through [`FaultPlan::task_wastage`].
fn survivable(mut chaos: FaultPlan) -> FaultPlan {
    let all_live = |c: &FaultPlan| {
        (0..64).all(|t| {
            [Phase::Map, Phase::Reduce]
                .into_iter()
                .all(|p| c.task_wastage(p, t).is_some())
        })
    };
    while !all_live(&chaos) {
        chaos.max_attempts += 1;
        assert!(
            chaos.max_attempts <= 64,
            "rates too hot for any retry budget"
        );
    }
    chaos
}

/// Runs all three distributed pipelines — Basic-DDP, LSH-DDP and EDDPC —
/// once clean and once under `chaos`, asserts every output is
/// bit-identical, and returns the total number of recovery events the
/// chaotic runs absorbed.
fn assert_chaos_is_invisible(ds: &Dataset, dc: f64, chaos: FaultPlan) -> u64 {
    let clean_pipe = PipelineConfig {
        map_tasks: 6,
        reduce_tasks: 6,
        fault_stage: None,
        chaos: None,
        disable_elision: false,
        checkpoints: false,
        mem_budget: None,
    };
    let chaos_pipe = PipelineConfig {
        chaos: Some(chaos),
        ..clean_pipe
    };
    let mut recoveries = 0u64;
    let mut note = |jobs: &[mapreduce::JobMetrics]| {
        recoveries += jobs
            .iter()
            .map(|j| j.task_retries + j.speculative_wins)
            .sum::<u64>();
    };

    let run_basic = |p: PipelineConfig| {
        BasicDdp::new(BasicConfig {
            block_size: 40,
            pipeline: p,
        })
        .run(ds, dc)
    };
    let (clean, chaotic) = (run_basic(clean_pipe), run_basic(chaos_pipe));
    assert_eq!(clean.result, chaotic.result, "basic");
    note(&chaotic.jobs);

    let params = lsh::LshParams::for_accuracy(0.95, 6, 3, dc).expect("valid");
    let run_lsh = |p: PipelineConfig| {
        LshDdp::new(ddp::lsh_ddp::LshDdpConfig {
            params,
            seed: 5,
            pipeline: p,
            partition_cap: None,
            rho_aggregation: Default::default(),
        })
        .run(ds, dc)
    };
    let (clean, chaotic) = (run_lsh(clean_pipe), run_lsh(chaos_pipe));
    assert_eq!(clean.result, chaotic.result, "lsh-ddp");
    note(&chaotic.jobs);

    let run_eddpc = |p: PipelineConfig| {
        Eddpc::new(EddpcConfig {
            n_pivots: 10,
            seed: 2,
            pipeline: p,
        })
        .run(ds, dc)
    };
    let (clean, chaotic) = (run_eddpc(clean_pipe), run_eddpc(chaos_pipe));
    assert_eq!(clean.result, chaotic.result, "eddpc");
    note(&chaotic.jobs);

    recoveries
}

#[test]
fn all_three_pipelines_survive_full_chaos_bit_exactly() {
    let ds = workload();
    let chaos = survivable(FaultPlan::new(150, 4242).with_stragglers(150, 3.0, 1));
    let recoveries = assert_chaos_is_invisible(&ds, 0.9, chaos);
    assert!(recoveries > 0, "15% crashes must trigger recoveries");
}

#[test]
fn indexed_kernels_under_chaos_match_the_clean_run_bit_exactly() {
    // Four 300-point blobs: whole-blob buckets take the spatial index,
    // the fragments beside them the pairwise loops.
    let ds = datasets::generators::blob_grid(2, 2, 300, 20.0, 0.6, 3).data;
    let dc = 0.9;
    let params = lsh::LshParams::for_accuracy(0.95, 8, 3, dc).expect("valid");
    let multi = lsh::MultiLsh::new(ds.dim(), &params, 5);
    let sizes: Vec<usize> = lsh::bucket_tables(&multi, ds.iter().map(|(_, p)| p))
        .iter()
        .flat_map(|t| t.values().map(Vec::len))
        .collect();
    let indexed = dp_core::local::AUTO_MIN_POINTS;
    assert!(
        sizes.iter().any(|&s| s >= indexed) && sizes.iter().any(|&s| s < indexed),
        "buckets must sit on both sides of {indexed}: {sizes:?}"
    );
    let base = PipelineConfig {
        map_tasks: 6,
        reduce_tasks: 6,
        ..PipelineConfig::default()
    };
    let run = |pipeline: PipelineConfig| {
        LshDdp::new(ddp::lsh_ddp::LshDdpConfig {
            params,
            seed: 5,
            pipeline,
            partition_cap: None,
            rho_aggregation: Default::default(),
        })
        .run(&ds, dc)
    };
    let clean = run(base);
    // 10% chaos: retried tasks rebuild their spatial indexes from scratch
    // and must still reproduce the clean results bit for bit.
    let chaos = survivable(FaultPlan::new(100, 777).with_stragglers(100, 3.0, 1));
    let chaotic = run(PipelineConfig {
        chaos: Some(chaos),
        ..base
    });
    assert_eq!(
        clean.result, chaotic.result,
        "indexed kernels under chaos must match the clean run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// *Any* survivable fault plan — crashes and stragglers at arbitrary
    /// rates and seeds — is invisible in the outputs of every pipeline.
    #[test]
    fn chaos_never_changes_any_pipeline_output(
        fail in 0u32..300,
        strag in 0u32..200,
        seed in any::<u64>(),
    ) {
        let ds = datasets::generators::blob_grid(3, 3, 10, 20.0, 0.6, 3).data;
        let chaos = survivable(FaultPlan::new(fail, seed).with_stragglers(strag, 2.0, 1));
        assert_chaos_is_invisible(&ds, 0.9, chaos);
    }
}

// ---------------------------------------------- checkpointing + resume

#[test]
fn checkpointing_is_invisible_in_pipeline_results() {
    let ds = workload();
    let dc = 0.9;
    let run = |checkpoints: bool| {
        let pipeline = PipelineConfig {
            checkpoints,
            ..Default::default()
        };
        let ddp = BasicDdp::new(BasicConfig {
            block_size: 40,
            pipeline,
        });
        let dfs = Arc::new(Dfs::new());
        let report = ddp.run_with_driver(&ds, dc, pipeline.driver().with_dfs(Arc::clone(&dfs)));
        (report, dfs)
    };
    let (clean, _) = run(false);
    let (checkpointed, dfs) = run(true);
    assert_eq!(clean.result, checkpointed.result);
    let bytes: u64 = checkpointed.jobs.iter().map(|j| j.checkpoint_bytes).sum();
    assert!(bytes > 0, "every stage must have materialized its output");
    assert_eq!(
        clean.jobs.iter().map(|j| j.checkpoint_bytes).sum::<u64>(),
        0
    );
    assert!(
        dfs.list("ckpt/").is_empty(),
        "a completed run clears its checkpoints"
    );
}

/// The kill-and-restart drill, across *separate* driver instances sharing
/// one DFS — the unit tests cover resume within a single driver; this is
/// the operational story where the master restarts from storage.
#[test]
fn restarted_driver_resumes_a_killed_plan_from_the_checkpoint() {
    let rows: Vec<(u32, u32)> = (0..120u32)
        .map(|i| (i, i.wrapping_mul(2654435761)))
        .collect();
    let mod_key = || {
        FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u64>| {
            out.emit(k % 7, v as u64);
        })
    };
    let halve_key = || {
        FnMapper::new(|k: u32, v: u64, out: &mut Emitter<u32, u64>| {
            out.emit(k / 2, v);
        })
    };
    let sum = || {
        FnReducer::new(|k: &u32, vs: Vec<u64>, out: &mut Emitter<u32, u64>| {
            out.emit(*k, vs.into_iter().sum());
        })
    };
    let build = |stage2_fault: Option<FaultPlan>| {
        let mut cfg2 = JobConfig::uniform(2);
        cfg2.chaos = stage2_fault;
        plan("restart-drill")
            .rows(rows.clone())
            .stage(Stage::new("s1", mod_key(), sum()).config(JobConfig::uniform(3)))
            .stage(Stage::new("s2", halve_key(), sum()).config(cfg2))
            .build()
    };
    // `max_attempts: 0` dooms every stage-2 task: the job is killed on
    // its first failure, after stage 1 completed and checkpointed.
    let doom = FaultPlan {
        max_attempts: 0,
        ..FaultPlan::new(0, 7)
    };

    let dfs = Arc::new(Dfs::new());
    let mut killed_driver = Driver::new()
        .with_checkpoints(true)
        .with_dfs(Arc::clone(&dfs));
    let killed = catch_unwind(AssertUnwindSafe(|| {
        killed_driver.run_plan(build(Some(doom)))
    }));
    assert!(killed.is_err(), "stage 2 must kill the first run");
    assert_eq!(
        dfs.list("ckpt/restart-drill/"),
        ["ckpt/restart-drill/0"],
        "exactly the completed stage is materialized"
    );
    drop(killed_driver); // the master process dies with its in-memory state

    // A fresh driver over the same DFS, with the fault fixed: stage 1
    // resumes from storage, stage 2 recomputes, output is bit-identical
    // to a never-killed run.
    let mut restarted = Driver::new()
        .with_checkpoints(true)
        .with_dfs(Arc::clone(&dfs));
    let mut resumed = restarted.run_plan(build(None));
    let mut clean = Driver::new().run_plan(build(None));
    resumed.sort_unstable();
    clean.sort_unstable();
    assert_eq!(resumed, clean);
    let markers: Vec<&str> = restarted
        .history()
        .iter()
        .filter(|j| j.user.get("resumed_from_checkpoint") == Some(&1))
        .map(|j| j.name.as_str())
        .collect();
    assert_eq!(markers, ["s1"], "only the checkpointed stage resumes");
    assert!(
        dfs.list("ckpt/").is_empty(),
        "the successful rerun clears the checkpoints"
    );
}

/// The kill-during-spill drill: the same two-stage plan under a zero
/// memory budget, so every shuffle partition and checkpoint goes through
/// the DFS spill tier. The job dies in stage 2 *after* stage 1 spilled
/// and checkpointed; a fresh budgeted driver over the same DFS must
/// resume from the spilled checkpoint and reproduce the clean,
/// unbudgeted run bit for bit.
#[test]
fn restarted_driver_resumes_a_killed_spilling_plan_bit_exactly() {
    let rows: Vec<(u32, u32)> = (0..120u32)
        .map(|i| (i, i.wrapping_mul(2654435761)))
        .collect();
    let mod_key = || {
        FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u64>| {
            out.emit(k % 7, v as u64);
        })
    };
    let halve_key = || {
        FnMapper::new(|k: u32, v: u64, out: &mut Emitter<u32, u64>| {
            out.emit(k / 2, v);
        })
    };
    let sum = || {
        FnReducer::new(|k: &u32, vs: Vec<u64>, out: &mut Emitter<u32, u64>| {
            out.emit(*k, vs.into_iter().sum());
        })
    };
    let build = |stage2_fault: Option<FaultPlan>| {
        let mut cfg2 = JobConfig::uniform(2);
        cfg2.chaos = stage2_fault;
        plan("spill-restart-drill")
            .rows(rows.clone())
            .stage(Stage::new("s1", mod_key(), sum()).config(JobConfig::uniform(3)))
            .stage(Stage::new("s2", halve_key(), sum()).config(cfg2))
            .build()
    };
    let doom = FaultPlan {
        max_attempts: 0,
        ..FaultPlan::new(0, 7)
    };

    let dfs = Arc::new(Dfs::new());
    let mut killed_driver = Driver::new()
        .with_checkpoints(true)
        .with_mem_budget(0)
        .with_dfs(Arc::clone(&dfs));
    let killed = catch_unwind(AssertUnwindSafe(|| {
        killed_driver.run_plan(build(Some(doom)))
    }));
    assert!(killed.is_err(), "stage 2 must kill the first run");
    assert_eq!(
        dfs.list("ckpt/spill-restart-drill/"),
        ["ckpt/spill-restart-drill/0"],
        "the completed stage is checkpointed despite dying mid-spill"
    );
    assert!(
        dfs.spill_bytes_written() > 0,
        "a zero budget must push stage 1 through the spill tier"
    );
    drop(killed_driver);

    // Restart with the same budget: the checkpoint streams back from the
    // DFS, stage 2 recomputes under spill pressure, and the output
    // matches a clean unbudgeted in-memory run exactly.
    let mut restarted = Driver::new()
        .with_checkpoints(true)
        .with_mem_budget(0)
        .with_dfs(Arc::clone(&dfs));
    let mut resumed = restarted.run_plan(build(None));
    let mut clean = Driver::new().run_plan(build(None));
    resumed.sort_unstable();
    clean.sort_unstable();
    assert_eq!(resumed, clean, "spill + resume must be invisible");
    let markers: Vec<&str> = restarted
        .history()
        .iter()
        .filter(|j| j.user.get("resumed_from_checkpoint") == Some(&1))
        .map(|j| j.name.as_str())
        .collect();
    assert_eq!(markers, ["s1"], "only the checkpointed stage resumes");
    assert!(
        restarted
            .history()
            .iter()
            .map(|j| j.spill_bytes)
            .sum::<u64>()
            > 0,
        "the restarted run keeps spilling under its budget"
    );
    assert!(
        dfs.list("ckpt/").is_empty(),
        "the successful rerun clears the checkpoints"
    );
}

/// The ingest-era kill-and-restart drill: a compaction (an exact
/// one-block Basic-DDP refit) dies mid-pipeline, the session survives,
/// and the *next* `compact` call on the same session resumes from the
/// checkpointed stages in the shared DFS — producing a model
/// bit-identical to the definition, as if the kill never happened.
#[test]
fn killed_compaction_resumes_from_its_checkpoint_bit_exactly() {
    use ingest::{DeltaOp, IngestConfig, IngestSession};
    use mapreduce::wire;

    // Fit a base model.
    let ld = datasets::gaussian_mixture(2, 3, 25, 40.0, 1.0, 77);
    let ds = &ld.data;
    let dc = dp_core::cutoff::estimate_dc_exact(ds, 0.05);
    let fitter = LshDdp::with_accuracy(0.99, 8, 3, dc, 77).unwrap();
    let params = fitter.config().params;
    let report = fitter.run(ds, dc);
    let outcome = CentralizedStep::new(PeakSelection::TopK(3)).run(&report.result);
    let model = ClusterModel::from_run(ds, &report, &outcome, &params, 77);

    // Mutate it, then doom the compaction's LAST stage (`fault_stage`
    // scopes the chaos plan so every earlier stage completes and checkpoints
    // first): the rho plan finishes whole, the delta plan checkpoints
    // its local stage, and dies in the aggregate.
    let mut session = IngestSession::new(
        &model,
        IngestConfig {
            pipeline: PipelineConfig {
                map_tasks: 4,
                reduce_tasks: 4,
                checkpoints: true,
                ..Default::default()
            },
            selection: PeakSelection::TopK(3),
        },
    );
    session
        .apply(vec![
            DeltaOp::Insert(vec![0.5, -0.5]),
            DeltaOp::Insert(model.point(3).to_vec()),
            DeltaOp::Delete(7),
        ])
        .unwrap();
    let doom = FaultPlan {
        max_attempts: 0,
        ..FaultPlan::new(0, 7)
    };
    session.config_mut().pipeline.chaos = Some(doom);
    session.config_mut().pipeline.fault_stage = Some("basic/delta-aggregate");

    let killed = catch_unwind(AssertUnwindSafe(|| session.compact()));
    assert!(killed.is_err(), "the doomed refit must die mid-pipeline");
    assert_eq!(
        session.dfs().list("ckpt/"),
        ["ckpt/basic/delta/0"],
        "the delta plan's completed stage is checkpointed; the rho \
         plan succeeded whole and cleared its own"
    );
    assert!(
        session.stale_points() > 0,
        "a killed compaction rolls nothing back: the session still serves"
    );

    // Restart: fix the fault, compact again on the same session. The
    // checkpointed stages resume from the DFS instead of recomputing.
    session.config_mut().pipeline.chaos = None;
    session.config_mut().pipeline.fault_stage = None;
    let compaction = session.compact();
    let resumed: Vec<&str> = compaction
        .report
        .jobs
        .iter()
        .filter(|j| j.user.get("resumed_from_checkpoint") == Some(&1))
        .map(|j| j.name.as_str())
        .collect();
    assert_eq!(
        resumed,
        ["basic/delta-local"],
        "exactly the checkpointed stage resumes from the killed run"
    );
    assert!(
        session.dfs().list("ckpt/").is_empty(),
        "the successful compaction clears the checkpoints"
    );
    assert_eq!(session.stale_points(), 0);

    // Bit-identity: the resumed compaction equals the definition over
    // the same live points, with no faults and no checkpoints.
    let live = session.live_dataset();
    let scratch_report = RunReport {
        algorithm: "basic-ddp".into(),
        jobs: Vec::new(),
        distances: 0,
        wall: std::time::Duration::ZERO,
        result: compute_exact(&live, dc),
    };
    let scratch_outcome = CentralizedStep::new(PeakSelection::TopK(3)).run(&scratch_report.result);
    let scratch = ClusterModel::from_run(&live, &scratch_report, &scratch_outcome, &params, 77)
        .with_version(compaction.model.version());
    assert_eq!(
        wire::encode(&compaction.model),
        wire::encode(&scratch),
        "resume must be invisible in the artifact"
    );
}
