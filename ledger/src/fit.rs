//! The `fit-*` cycle: read the points, tune, fit, label, then relabel for a
//! sweep of `k'` the way a user explores the decision graph.

use crate::child::{digest, peak_rss_mb, Ctx, Report};
use crate::spec::{self, Workload};
use crate::{inputs, probes, stats};
use ddp::centralized::CentralizedOutput;
use ddp::prelude::*;
use dp_core::quality::adjusted_rand_index;
use mapreduce::ClusterSpec;

/// Share of its parent a closure line may leave unattributed before the
/// check fails.
const OPEN_FRAC: f64 = 0.05;
/// A remainder this small is the fixed cost of starting a job, which at
/// smoke sizes is a tenth of one.
const OPEN_FLOOR_S: f64 = 0.02;

/// ARI floor of the output check, at any seed and at smoke size.
const ARI_FLOOR: f64 = 0.85;

fn labelled(out: &CentralizedOutput, n: usize) -> bool {
    let c = &out.clustering;
    c.len() == n && c.labels().iter().all(|&l| l < c.n_clusters())
}

pub fn cycle(
    w: &Workload,
    (k, budget, relabels): (usize, Option<u64>, usize),
    ctx: &Ctx,
    rep: &mut Report,
) -> Result<(), String> {
    let sp = &ctx.spans;
    let path = ctx.inputs.join(inputs::POINTS);
    let (ld, read_s) = sp.time("datasets.read_csv", || datasets::io::read_csv(&path, true));
    let ld = ld.map_err(|e| format!("reading {}: {e}", path.display()))?;
    let ((dc, ddp), tune_s) = sp.time("dp-core.dc_estimate", || inputs::tuned(&ld.data, budget));
    let setup_s = ctx.started.elapsed().as_secs_f64();

    let ((report, out, centralized_s), job_s) = sp.time("fit", || {
        let (report, _) = sp.time("ddp.run", || ddp.run(&ld.data, dc));
        let (out, centralized_s) = sp.time("ddp.centralized", || {
            CentralizedStep::new(inputs::selection(k)).run(&report.result)
        });
        (report, out, centralized_s)
    });
    let n = ld.len();
    let ari = adjusted_rand_index(out.clustering.labels(), &ld.labels);
    rep.op(true, String::new);
    rep.op(labelled(&out, n), || "fit left points unlabelled".into());
    rep.op(ari >= ARI_FLOOR, || {
        format!("ari {ari:.4} below {ARI_FLOOR}")
    });
    rep.digest = Some(digest(&report.result));

    // The decision-graph interaction: no rho/delta recompute. The seed
    // draws the order the user tries the values of k' in.
    let mut ks: Vec<usize> = (2..2 + spec::RELABEL_KS).collect();
    let mut rng = inputs::Rng::new(ctx.seed);
    for i in (1..ks.len()).rev() {
        ks.swap(i, rng.below(i + 1));
    }
    let mut op_ms = Vec::with_capacity(relabels);
    let mut bad = 0;
    sp.time("relabel-sweep", || {
        for &kk in ks.iter().cycle().take(relabels) {
            let (o, s) = sp.time("relabel", || {
                CentralizedStep::new(inputs::selection(kk)).run(&report.result)
            });
            op_ms.push(s * 1e3);
            bad += u64::from(!labelled(&o, n) || o.peaks.len() != kk);
        }
    });
    rep.ops(relabels as u64, bad, "relabels");

    rep.metric("setup_s", setup_s);
    rep.metric("job_s", job_s);
    rep.metric("op_p50_ms", stats::percentile(&op_ms, 0.50));
    rep.metric("op_p95_ms", stats::percentile(&op_ms, 0.95));
    rep.metric("ari", ari);
    rep.metric("dist_evals_m", report.distances as f64 / 1e6);
    rep.metric("shuffle_mb", report.shuffle_bytes() as f64 / 1e6);
    rep.metric("mapreduce.spill_mb", report.spill_bytes() as f64 / 1e6);
    rep.metric(
        "mapreduce.stall_s",
        report.backpressure_stall_ns() as f64 / 1e9,
    );
    if !ctx.traced {
        rep.metric("peak_rss_mb", peak_rss_mb());
        return Ok(());
    }

    rep.metric("datasets.read_csv_s", read_s);
    rep.metric("dp-core.dc_estimate_s", tune_s);
    let walls = engine_metrics(w.name, &report, ld.data.dim(), rep);
    let rest = job_s - walls - centralized_s;
    eprintln!(
        "closure {}: job_s {job_s:.3} = stages {walls:.3} + centralized {centralized_s:.3} \
         + unattributed {rest:.3} ({:.1}%)",
        w.name,
        100.0 * rest / job_s
    );
    rep.op(closes(rest, job_s), || {
        format!(
            "{}: {rest:.3} s of job_s {job_s:.3} is unattributed",
            w.name
        )
    });
    rep.metric("ddp.centralized_s", centralized_s);
    rep.metric("ddp.unattributed_s", rest);

    let params = ddp.config().params;
    let tables = probes::partitioning(&ld.data, &params, report.distances, ctx, rep);
    probes::kernels(&ld.data, dc, &tables, &report.result, ctx, rep);
    if budget.is_some() {
        probes::codec_and_spill(&ld.data, ctx, rep);
    }
    Ok(())
}

fn closes(rest: f64, parent: f64) -> bool {
    rest <= (OPEN_FRAC * parent).max(OPEN_FLOOR_S)
}

/// The two stretches of a job that no `JobMetrics` field times, read off
/// the program's own trace as gaps between the phase spans inside the job's
/// span. `retain`: between shuffle and reduce, `plan.rs` copies the shuffled
/// partitions for the next job, whose identical map and shuffle it elides.
/// `collect`: after the reduce phase, `job.rs` concatenates the reducers'
/// outputs and the job's buffers are freed.
fn trace_gaps(job: &str, events: &[obsv::SpanEvent]) -> (f64, f64) {
    let Some(run) = events.iter().rfind(|e| e.cat == "job" && e.name == job) else {
        return (0.0, 0.0);
    };
    let phase = |prefix: &str| {
        events
            .iter()
            .find(|e| e.parent == run.id && e.cat == "phase" && e.name.starts_with(prefix))
    };
    let end = |e: &obsv::SpanEvent| e.start_ns + e.dur_ns;
    let secs = |from: u64, to: u64| to.saturating_sub(from) as f64 / 1e9;
    let Some(reduce) = phase("reduce:") else {
        return (0.0, 0.0);
    };
    let retain = phase("shuffle:").map_or(0.0, |s| secs(end(s), reduce.start_ns));
    (retain, secs(end(reduce), end(run)))
}

/// Emits the per-layer metrics a `RunReport` carries, prints per job the
/// closure line `wall = map + shuffle + retain + reduce + collect +
/// unattributed` and checks that it closes. Returns the sum of the jobs' walls.
pub fn engine_metrics(workload: &str, report: &RunReport, dim: usize, rep: &mut Report) -> f64 {
    let secs = |d: std::time::Duration| d.as_secs_f64();
    let events = obsv::drain_events();
    let (mut map, mut shuffle, mut retain, mut reduce, mut collect, mut walls) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for j in &report.jobs {
        let (m, s, r, wall) = (
            secs(j.map_time),
            secs(j.shuffle_time),
            secs(j.reduce_time),
            secs(j.wall_time),
        );
        let (kept, collected) = trace_gaps(&j.name, &events);
        let rest = wall - m - s - kept - r - collected;
        eprintln!(
            "closure {workload} {}: wall {wall:.3} = map {m:.3} + shuffle {s:.3} + retain {kept:.3} \
             + reduce {r:.3} + collect {collected:.3} + unattributed {rest:.3} ({:.1}%)",
            j.name,
            100.0 * rest / wall.max(1e-9),
        );
        rep.op(closes(rest.abs(), wall), || {
            format!(
                "{workload} {}: {rest:.3} s of its wall {wall:.3} is unattributed",
                j.name
            )
        });
        retain += kept;
        collect += collected;
        map += m;
        shuffle += s;
        reduce += r;
        walls += wall;
        let short = j
            .name
            .rsplit('/')
            .next()
            .unwrap_or(&j.name)
            .replace('-', "_");
        rep.metric(&format!("ddp.{short}_s"), wall);
    }
    rep.metric("mapreduce.map_s", map);
    rep.metric("mapreduce.shuffle_s", shuffle);
    rep.metric("mapreduce.retain_s", retain);
    rep.metric("mapreduce.reduce_s", reduce);
    rep.metric("mapreduce.collect_s", collect);
    rep.metric(
        "mapreduce.unattributed_s",
        walls - map - shuffle - retain - reduce - collect,
    );
    rep.metric("mapreduce.shuffle_records", report.shuffle_records() as f64);
    rep.metric(
        "mapreduce.shuffle_bytes_saved",
        report.shuffle_bytes_saved() as f64 / 1e6,
    );
    let first = &report.jobs[0];
    let mean = first.shuffle_records as f64 / spec::REDUCE_TASKS as f64;
    rep.metric(
        "mapreduce.reduce_skew",
        first.max_reduce_task_records as f64 / mean.max(1.0),
    );
    rep.metric(
        "mapreduce.stage_peak_heap_mb",
        report.peak_resident_bytes() as f64 / 1e6,
    );
    let sim = report.simulate(&ClusterSpec::local_cluster(), (dim as f64 / 4.0).max(1.0));
    eprintln!("closure {workload}: cost model predicts {sim:.1} s on the paper's 5-node cluster");
    rep.metric("ddp.sim_5node_s", sim);
    walls
}
