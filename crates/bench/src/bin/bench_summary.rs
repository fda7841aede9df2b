//! Perf-trajectory summary: times the engine, kernel, and pipeline hot
//! paths at fixed sizes and writes `BENCH_perf.json` at the repo root.
//!
//! Unlike the criterion benches (dev-dependencies, `cargo bench`), this
//! is a plain binary with hand-rolled `Instant` timing so CI can smoke it
//! and the committed JSON gives future sessions a baseline to compare
//! against.
//!
//! The executor comparison pits the persistent work-stealing pool
//! (`vendor/rayon`) against a faithful **spawn-per-call** baseline — the
//! pre-rewrite executor's strategy: fresh OS threads per parallel call,
//! one contiguous slab each, no stealing. Both run the same item-level
//! work at the same granularity, so the ratio isolates scheduler
//! overhead, which is exactly what dominates small-granularity stages
//! (per-task map invocations, per-bucket reducers).
//!
//! Usage: `bench_summary [--smoke] [--out <path>]`.

use ddp::{LshDdp, PipelineConfig};
use dp_core::{for_each_pair_d2, Dataset};
use lshddp_bench::swap::{swap_under_load, SwapBench};
use mapreduce::{Emitter, FnMapper, FnReducer, JobBuilder, JobConfig};
use rayon::prelude::*;
use serde::Serialize;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct ExecutorBench {
    /// Workload this granularity models.
    models: &'static str,
    calls: usize,
    items_per_call: usize,
    persistent_pool_s: f64,
    spawn_per_call_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct WallBench {
    description: &'static str,
    wall_s: f64,
}

#[derive(Serialize)]
struct KernelBench {
    points: usize,
    dim: usize,
    wall_s: f64,
    pairs_per_s: f64,
}

#[derive(Serialize)]
struct OverheadBench {
    description: &'static str,
    tracing_off_s: f64,
    tracing_on_s: f64,
    /// `on/off - 1`; negative values are timing noise.
    overhead_frac: f64,
    /// Wall with the whole telemetry plane live: span capture, executor
    /// observer, heap accounting, and an HTTP scraper hammering
    /// `/metrics` throughout the run.
    telemetry_on_s: f64,
    /// `telemetry_on/off - 1`; gated with `overhead_frac` by
    /// scripts/check_overhead.py.
    telemetry_overhead_frac: f64,
    /// `/metrics` scrapes served while the telemetry-on runs timed.
    scrapes: u64,
    /// Bit-identical `(rho, delta, upslope)` between the telemetry-off
    /// and fully-instrumented runs.
    outputs_match: bool,
}

#[derive(Serialize)]
struct TelemetryBench {
    description: &'static str,
    /// SLO objective handed to the burn-rate monitor (ms).
    slo_objective_ms: f64,
    /// The monitor flipped the server into degraded mode under overload.
    slo_degraded_triggered: bool,
    /// Requests shed purely by the SLO feedback (subset of timeouts).
    slo_shed: u64,
    /// Requests answered normally during the drill.
    served: u64,
    /// p99 end-to-end latency of *served* requests (ms).
    served_p99_ms: f64,
    /// The deadline the SLO must protect (ms); shedding has to keep
    /// `served_p99_ms` under this.
    deadline_ms: f64,
    /// Worst per-micro-batch peak resident heap during the drill.
    batch_peak_bytes: u64,
    /// Peak resident heap of the whole process so far.
    peak_resident_bytes: u64,
    /// Live `/metrics` scrapes during the drill: attempts and how many
    /// returned 200 with a well-formed exposition body.
    scrapes: u64,
    scrapes_ok: u64,
}

#[derive(Serialize)]
struct ElisionBench {
    description: &'static str,
    elision_on_s: f64,
    elision_off_s: f64,
    shuffle_bytes_on: u64,
    shuffle_bytes_off: u64,
    shuffle_bytes_saved: u64,
    /// Fraction of the no-elision shuffle volume that elision avoided.
    saved_frac: f64,
    /// Bit-identical `(rho, delta, upslope)` between the two modes.
    outputs_match: bool,
}

#[derive(Serialize)]
struct RecoveryBench {
    description: &'static str,
    clean_s: f64,
    /// Wall time with ~10% task crashes plus 10% stragglers injected.
    chaos_s: f64,
    /// Wall time with stage checkpointing on (no faults).
    checkpoint_s: f64,
    /// `checkpoint_s / clean_s - 1`; the cost of materializing every
    /// stage. Negative values are timing noise.
    checkpoint_overhead_frac: f64,
    task_retries: u64,
    straggler_delay_ms: f64,
    /// Bit-identical `(rho, delta, upslope)` between clean and chaos.
    outputs_match: bool,
}

#[derive(Serialize)]
struct StreamingBench {
    description: &'static str,
    points: usize,
    dim: usize,
    /// Raw coordinate volume (`points * dim * 8`); the scenario only
    /// means anything when this is >= 4x the budget.
    dataset_bytes: u64,
    /// The `--mem-budget` handed to the memory governor.
    budget_bytes: u64,
    resident_s: f64,
    budgeted_s: f64,
    /// FNV-1a over `(rho, delta bits, upslope)` of each run.
    digest_resident: u64,
    digest_budgeted: u64,
    /// The budgeted streaming run reproduced the unbudgeted resident run
    /// bit for bit.
    digests_match: bool,
    /// Shuffle bytes the budgeted run pushed to the disk spill tier.
    spill_bytes: u64,
    /// Nanoseconds reduce tasks stalled at the governor's admission gate.
    backpressure_stall_ns: u64,
    /// Process heap right before the budgeted run (the spilled input
    /// snapshot is already on disk at this point).
    baseline_resident_bytes: u64,
    /// Worst per-stage absolute peak heap during the budgeted run.
    peak_resident_bytes: u64,
    /// `peak - baseline`: the budgeted run's own working set, the number
    /// scripts/check_streaming.py holds against the budget.
    peak_over_baseline_bytes: u64,
}

#[derive(Serialize)]
struct CrashConsistencyBench {
    description: &'static str,
    /// I/O ops the counting pass gated — the size of the crash-point space.
    io_ops: u64,
    /// Enumerated power cuts that actually fired (clean + torn).
    crash_points_fired: u64,
    /// Randomized fault-mix attempts where at least one fault was injected.
    random_fault_attempts: u64,
    /// Distinct crash/fault points exercised in total; the
    /// scripts/check_crash.py gate requires >= 100.
    total_fault_points: u64,
    /// Attempts that ran clean (op-order variance or a quiet schedule).
    vacuous_attempts: u64,
    /// Invariant violations across every attempt — the gate requires zero.
    violations: Vec<String>,
    violation_count: usize,
    /// Transient faults absorbed by the shim's bounded retry policy.
    retries_absorbed: u64,
    faults_injected: u64,
    give_ups: u64,
    /// A compaction killed mid-pipeline (under transient storage faults)
    /// resumed from its checkpoint bit-identically to a from-scratch refit.
    resume_bit_identical: bool,
    resume_error: Option<String>,
    /// Same write workload through direct `std::fs` vs the unarmed shim.
    shim_direct_s: f64,
    shim_passthrough_s: f64,
    /// `(passthrough - direct) / direct`, clamped at zero; the gate
    /// requires < 5%.
    shim_overhead_frac: f64,
    /// The two write paths produced byte-identical files.
    shim_bit_identical: bool,
}

#[derive(Serialize)]
struct Summary {
    schema: u32,
    mode: &'static str,
    threads: usize,
    mapreduce_engine: ExecutorBench,
    pipelines: ExecutorBench,
    engine_shuffle_job: WallBench,
    lsh_ddp_pipeline: WallBench,
    kernel_pair_d2: KernelBench,
    plan_elision: ElisionBench,
    recovery_overhead: RecoveryBench,
    hot_swap: SwapBench,
    crash_consistency: CrashConsistencyBench,
    tracing_overhead: OverheadBench,
    telemetry: TelemetryBench,
    streaming: StreamingBench,
}

/// Best-of-3 mean per call, after one warmup call.
fn time_calls<R>(calls: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best / calls as f64
}

/// A few dozen nanoseconds of integer mixing per item: the same order of
/// magnitude as one hash/emit or one low-dimensional distance.
#[inline]
fn item_work(x: u64) -> u64 {
    let mut h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 31;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^ (h >> 27)
}

/// The pre-rewrite executor, reproduced: one fresh OS thread per worker
/// per call, contiguous slabs, join, no reuse.
fn spawn_per_call_sum(data: &[u64], threads: usize) -> u64 {
    let chunk = data.len().div_ceil(threads.max(1));
    std::thread::scope(|s| {
        let handles: Vec<_> = data
            .chunks(chunk)
            .map(|slab| s.spawn(move || slab.iter().map(|&x| item_work(x)).sum::<u64>()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

fn executor_bench(
    models: &'static str,
    calls: usize,
    items_per_call: usize,
    threads: usize,
) -> ExecutorBench {
    let data: Vec<u64> = (0..items_per_call as u64).collect();
    let pool = time_calls(calls, || {
        data.par_iter().map(|&x| item_work(x)).sum::<u64>()
    });
    let spawn = time_calls(calls, || spawn_per_call_sum(&data, threads));
    ExecutorBench {
        models,
        calls,
        items_per_call,
        persistent_pool_s: pool,
        spawn_per_call_s: spawn,
        speedup: spawn / pool,
    }
}

fn engine_shuffle_job(records: usize) -> WallBench {
    let input: Vec<(u32, u32)> = (0..records as u32)
        .map(|i| (i, i.wrapping_mul(2654435761)))
        .collect();
    let wall = time_calls(3, || {
        let m = FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u64>| {
            out.emit(k % 256, v as u64);
        });
        let r = FnReducer::new(|k: &u32, vs: Vec<u64>, out: &mut Emitter<u32, u64>| {
            out.emit(*k, vs.into_iter().sum());
        });
        let (out, _) = JobBuilder::new("bench", m, r)
            .config(JobConfig::uniform(8))
            .run(input.clone());
        out
    });
    WallBench {
        description: "modulo-key sum job, 256 groups, 8 map/reduce tasks",
        wall_s: wall,
    }
}

/// `d_c` matched to the blob geometry below.
const BLOB_DC: f64 = 0.8;

fn blob_dataset(n_per_blob: usize) -> Dataset {
    let mut ds = Dataset::new(2);
    for (cx, cy) in [(0.0, 0.0), (10.0, 2.0), (4.0, 9.0)] {
        for i in 0..n_per_blob as u64 {
            let jx = ((i.wrapping_mul(2654435761) >> 8) % 2000) as f64 / 1000.0 - 1.0;
            let jy = ((i.wrapping_mul(40503) >> 4) % 2000) as f64 / 1000.0 - 1.0;
            ds.push(&[cx + jx, cy + jy]);
        }
    }
    ds
}

fn blob_lsh() -> LshDdp {
    blob_lsh_with(false)
}

fn blob_lsh_with(disable_elision: bool) -> LshDdp {
    blob_lsh_cfg(PipelineConfig {
        map_tasks: 8,
        reduce_tasks: 8,
        fault: None,
        fault_stage: None,
        chaos: None,
        disable_elision,
        checkpoints: false,
        mem_budget: None,
    })
}

fn blob_lsh_cfg(pipeline: PipelineConfig) -> LshDdp {
    let base = LshDdp::with_accuracy(0.99, 10, 3, BLOB_DC, 42).expect("valid params");
    LshDdp::new(ddp::LshDdpConfig {
        pipeline,
        ..base.config().clone()
    })
}

fn lsh_ddp_pipeline(n_per_blob: usize) -> WallBench {
    let ds = blob_dataset(n_per_blob);
    let lsh = blob_lsh();
    let wall = time_calls(3, || lsh.run(&ds, BLOB_DC));
    WallBench {
        description: "four-job LSH-DDP pipeline, 3 blobs, 8 map/reduce tasks",
        wall_s: wall,
    }
}

/// The LSH-DDP pipeline with co-partitioned shuffle elision on (the
/// default: the delta-local stage reuses the rho-local stage's shuffled
/// partitions) vs forced off, with bit-identity of the outputs checked.
fn plan_elision(n_per_blob: usize) -> ElisionBench {
    let ds = blob_dataset(n_per_blob);
    let on = blob_lsh_with(false);
    let off = blob_lsh_with(true);
    let elision_on_s = time_calls(3, || on.run(&ds, BLOB_DC));
    let elision_off_s = time_calls(3, || off.run(&ds, BLOB_DC));
    let r_on = on.run(&ds, BLOB_DC);
    let r_off = off.run(&ds, BLOB_DC);
    let outputs_match = r_on.result.rho == r_off.result.rho
        && r_on.result.upslope == r_off.result.upslope
        && r_on
            .result
            .delta
            .iter()
            .zip(&r_off.result.delta)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let saved = r_on.shuffle_bytes_saved();
    ElisionBench {
        description: "lsh_ddp_pipeline workload, co-partitioned shuffle elision on vs off",
        elision_on_s,
        elision_off_s,
        shuffle_bytes_on: r_on.shuffle_bytes(),
        shuffle_bytes_off: r_off.shuffle_bytes(),
        shuffle_bytes_saved: saved,
        saved_frac: saved as f64 / r_off.shuffle_bytes().max(1) as f64,
        outputs_match,
    }
}

/// The recovery-path costs on the LSH-DDP pipeline: a clean run, a run
/// under ~10% injected task crashes plus 10% stragglers (retries must be
/// invisible in the outputs), and a run with stage checkpointing on (the
/// materialization tax a resumable job pays up front).
fn recovery_overhead(n_per_blob: usize) -> RecoveryBench {
    use mapreduce::{ChaosPlan, Phase};
    let ds = blob_dataset(n_per_blob);
    let base = blob_lsh_with(false).config().pipeline;

    let mut chaos = ChaosPlan::new(100, 42).with_stragglers(100, 2.0, 1);
    // Make the schedule survivable: a doomed task would kill the bench.
    while !(0..64).all(|t| {
        [Phase::Map, Phase::Reduce]
            .into_iter()
            .all(|p| chaos.task_wastage(p, t).is_some())
    }) {
        chaos.fault.max_attempts += 1;
    }

    let clean = blob_lsh_cfg(base);
    let chaotic = blob_lsh_cfg(PipelineConfig {
        chaos: Some(chaos),
        ..base
    });
    let ckpt = blob_lsh_cfg(PipelineConfig {
        checkpoints: true,
        ..base
    });

    let clean_s = time_calls(3, || clean.run(&ds, BLOB_DC));
    let chaos_s = time_calls(3, || chaotic.run(&ds, BLOB_DC));
    let checkpoint_s = time_calls(3, || ckpt.run(&ds, BLOB_DC));

    let r_clean = clean.run(&ds, BLOB_DC);
    let r_chaos = chaotic.run(&ds, BLOB_DC);
    let outputs_match = r_clean.result.rho == r_chaos.result.rho
        && r_clean.result.upslope == r_chaos.result.upslope
        && r_clean
            .result
            .delta
            .iter()
            .zip(&r_chaos.result.delta)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    RecoveryBench {
        description: "lsh_ddp_pipeline workload: clean vs 10% chaos vs stage checkpointing",
        clean_s,
        chaos_s,
        checkpoint_s,
        checkpoint_overhead_frac: checkpoint_s / clean_s - 1.0,
        task_retries: r_chaos.jobs.iter().map(|j| j.task_retries).sum(),
        straggler_delay_ms: r_chaos
            .jobs
            .iter()
            .map(|j| j.straggler_delay_ns)
            .sum::<u64>() as f64
            / 1e6,
        outputs_match,
    }
}

/// One raw HTTP GET against the exposition listener; `Some(body)` only
/// for a 200 response.
fn http_get(addr: std::net::SocketAddr, path: &str) -> Option<String> {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).ok()?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .ok()?;
    let mut buf = String::new();
    s.read_to_string(&mut buf).ok()?;
    let (head, body) = buf.split_once("\r\n\r\n")?;
    head.starts_with("HTTP/1.1 200").then(|| body.to_string())
}

/// A background scraper hammering `/metrics` until told to stop;
/// returns `(attempts, well-formed 200 responses)` on join.
struct Scraper {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<(u64, u64)>,
}

impl Scraper {
    fn start(addr: std::net::SocketAddr) -> Scraper {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let (mut tries, mut ok) = (0u64, 0u64);
            while !flag.load(Ordering::Relaxed) {
                tries += 1;
                if http_get(addr, "/metrics").is_some_and(|b| b.contains("_up{source=")) {
                    ok += 1;
                }
                // Prometheus-ish cadence scaled down for bench runtimes;
                // faster than this and the scraper's render CPU contends
                // measurably with the pipeline it is observing.
                std::thread::sleep(Duration::from_millis(50));
            }
            (tries, ok)
        });
        Scraper { stop, handle }
    }

    fn finish(self) -> (u64, u64) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("scraper thread")
    }
}

/// The full LSH-DDP pipeline with span capture off, then on (capture +
/// executor chunk observer — everything `--trace` enables), then with
/// the whole telemetry plane live (heap accounting + an active
/// `/metrics` scraper on top — everything `--metrics-addr` enables).
/// The on-runs are a strict upper bound on the cost of the
/// always-compiled-in instrumentation while disabled, so gating the
/// overhead fractions also gates the telemetry-off cost. Must run late:
/// the chunk observer and heap accounting, once on, stay on for the
/// life of the process.
fn tracing_overhead(n_per_blob: usize) -> OverheadBench {
    let ds = blob_dataset(n_per_blob);
    let lsh = blob_lsh();
    let r_off = lsh.run(&ds, BLOB_DC);
    let off = time_calls(3, || lsh.run(&ds, BLOB_DC));
    obsv::enable_capture();
    obsv::install_executor_metrics(obsv::global());
    // The ring buffers drop-oldest at fixed cost, so letting them wrap
    // across calls measures steady-state recording, not allocation.
    let on = time_calls(3, || lsh.run(&ds, BLOB_DC));

    // Full plane: allocator accounting plus a live scraper. One-way
    // enables — nothing timed after this point runs unaccounted.
    obsv::alloc::enable_accounting();
    let exposer = obsv::Exposition::new()
        .source("lshddp", obsv::RegistryRef::Static(obsv::global()))
        .collector(|| obsv::snapshot_pool_stats(obsv::global()))
        .serve("127.0.0.1:0")
        .expect("bind exposition listener");
    let scraper = Scraper::start(exposer.addr());
    let telemetry_on = time_calls(3, || lsh.run(&ds, BLOB_DC));
    let r_tel = lsh.run(&ds, BLOB_DC);
    let (scrapes, scrapes_ok) = scraper.finish();
    drop(exposer);
    obsv::disable_capture();
    obsv::clear_events();

    let outputs_match = scrapes == scrapes_ok
        && r_off.result.rho == r_tel.result.rho
        && r_off.result.upslope == r_tel.result.upslope
        && r_off
            .result
            .delta
            .iter()
            .zip(&r_tel.result.delta)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    OverheadBench {
        description: "lsh_ddp_pipeline workload: capture off vs on vs full telemetry plane",
        tracing_off_s: off,
        tracing_on_s: on,
        overhead_frac: on / off - 1.0,
        telemetry_on_s: telemetry_on,
        telemetry_overhead_frac: telemetry_on / off - 1.0,
        scrapes: scrapes_ok,
        outputs_match,
    }
}

/// The SLO drill: a deliberately overloaded single-worker server with an
/// unreachable latency objective, scraped live over HTTP while the
/// burn-rate monitor degrades it. Checks the feedback loop end to end —
/// burn gauges flip `slo.degraded`, degraded mode sheds queued work
/// (`slo_shed`), and the p99 of the requests actually *served* stays
/// under the protective deadline. Gated by scripts/check_telemetry.py.
fn telemetry_drill(n_per_blob: usize, queries: usize) -> TelemetryBench {
    use serve::{ClusterModel, Server, ServerConfig};
    let ds = blob_dataset(n_per_blob);
    let lsh = blob_lsh();
    let report = lsh.run(&ds, BLOB_DC);
    let outcome = ddp::CentralizedStep::new(ddp::PeakSelection::Auto).run(&report.result);
    let model = ClusterModel::from_run(&ds, &report, &outcome, &blob_lsh().config().params, 42);

    // 1 µs objective: every in-process request breaches, so the windows
    // saturate deterministically. The deadline is what the SLO protects.
    let slo_objective_ms = 0.001;
    let deadline_ms = 250.0;
    let server = Server::start(
        serve::QueryEngine::new(model),
        ServerConfig {
            threads: 1,
            queue_depth: 64,
            max_batch: 8,
            cache_capacity: 0,
            deadline: Some(Duration::from_millis(deadline_ms as u64)),
            slo: Some(obsv::SloConfig {
                objective_ns: (slo_objective_ms * 1e6) as u64,
                target: 0.9,
                fast_window: Duration::from_millis(20),
                slow_window: Duration::from_millis(100),
                burn_threshold: 1.0,
                tick: Duration::from_millis(5),
            }),
            ..ServerConfig::default()
        },
    );
    let exposer = obsv::Exposition::new()
        .source("lshddp", obsv::RegistryRef::Static(obsv::global()))
        .source("serve", obsv::RegistryRef::Shared(server.registry_arc()))
        .collector(|| obsv::snapshot_pool_stats(obsv::global()))
        .serve("127.0.0.1:0")
        .expect("bind exposition listener");
    let scraper = Scraper::start(exposer.addr());

    let q = {
        let engine = server.store().current();
        engine.model().point(0).to_vec()
    };
    let mut degraded_seen = false;
    let give_up = Instant::now() + Duration::from_secs(30);
    let clients = 4;
    let done = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..clients {
            let client = server.client();
            let (q, done) = (&q, &done);
            s.spawn(move || {
                for _ in 0..queries {
                    // Timeouts are the expected answer while degraded;
                    // only a wall-clock blowout ends a client early.
                    if client.assign(q).is_err() && Instant::now() > give_up {
                        break;
                    }
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Poll the degraded flag from the drill thread while clients run.
        while Instant::now() < give_up && done.load(Ordering::Relaxed) < clients {
            if server.slo_degraded() {
                degraded_seen = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    });
    degraded_seen |= server.slo_degraded();

    let snap = server.registry().snapshot();
    let stats = server.stats();
    let (scrapes, scrapes_ok) = scraper.finish();
    drop(exposer);
    server.shutdown();

    TelemetryBench {
        description: "overloaded 1-worker serve drill: SLO burn-rate feedback + live scrape",
        slo_objective_ms,
        slo_degraded_triggered: degraded_seen || snap.counters["slo_shed"] > 0,
        slo_shed: snap.counters["slo_shed"],
        served: stats.queries,
        served_p99_ms: stats.p99_latency_us / 1e3,
        deadline_ms,
        batch_peak_bytes: snap.gauges["mem.batch_peak_bytes"].max(0) as u64,
        peak_resident_bytes: obsv::alloc::peak_bytes(),
        scrapes,
        scrapes_ok,
    }
}

fn kernel_pair_d2(points: usize, dim: usize) -> KernelBench {
    let flat: Vec<f64> = (0..points * dim)
        .map(|i| ((i as u64).wrapping_mul(48271) % 1000) as f64 / 500.0)
        .collect();
    let wall = time_calls(3, || {
        let mut acc = 0.0f64;
        for_each_pair_d2(&flat, dim, |_, _, d2| acc += d2);
        acc
    });
    let pairs = (points * (points - 1) / 2) as f64;
    KernelBench {
        points,
        dim,
        wall_s: wall,
        pairs_per_s: pairs / wall,
    }
}

/// Point `i` of blob `b` in the clustered layout, written into `p` — the
/// generator shared by the streaming scenario's resident dataset and its
/// batched spill writer, so both produce bit-identical coordinates for a
/// given `(b, i)`.
fn clustered_point(b: u64, i: u64, p: &mut [f64]) {
    for (d, slot) in p.iter_mut().enumerate() {
        let hc = b
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((d as u64).wrapping_mul(0x517c_c1b7_2722_0a95))
            >> 17;
        let center = (hc % 1000) as f64 / 10.0;
        let hj = i
            .wrapping_mul(2654435761)
            .wrapping_add((d as u64).wrapping_mul(40503))
            >> 7;
        *slot = center + (hj % 2000) as f64 / 1000.0 - 1.0;
    }
}

/// Order-sensitive FNV-1a over the full `(rho, delta bits, upslope)`
/// triple: any single bit of divergence between two runs flips it.
fn digest_result(r: &dp_core::DpResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for &v in &r.rho {
        eat(u64::from(v));
    }
    for &d in &r.delta {
        eat(d.to_bits());
    }
    for &u in &r.upslope {
        eat(u64::from(u));
    }
    h
}

/// Bounded-memory streaming: the LSH-DDP pipeline over a dataset several
/// times larger than the governor's budget, fed from a spilled input
/// snapshot (the coordinates are never resident as one `Vec`), checked
/// bit-identical against a conventional unbudgeted in-memory run. Must
/// run after heap accounting is on (the tracing scenario flips it) so
/// per-stage peaks are real. Gated by scripts/check_streaming.py.
fn streaming_budget(points: usize, dim: usize, budget: u64) -> StreamingBench {
    use dp_core::PointId;
    use mapreduce::{Snapshot, SpilledRows};

    let dc = 2.0;
    // Many small blobs so LSH partitions (and therefore reduce buckets)
    // are each a modest fraction of the budget — the regime where
    // admission can overlap work instead of serializing oversized
    // buckets. Blobs are *contiguous* index ranges (not round-robin):
    // each map task's points then share a blob, its output lands in a
    // handful of partitions, and the per-(task, bucket) spill frame
    // metadata stays negligible instead of scaling with
    // `map_tasks x reduce_tasks`.
    let n_blobs = 128u64;
    let per_blob = (points as u64).div_ceil(n_blobs);
    let stream_blob = move |i: u64| i / per_blob;
    let dataset_bytes = (points * dim * std::mem::size_of::<f64>()) as u64;
    // Wide slots relative to the blob jitter keep whole blobs together:
    // partitions of ~n/20 points, each a meaningful fraction of the
    // budget, so admission and retention both feel real pressure.
    let mk = |mem_budget: Option<u64>| {
        LshDdp::new(ddp::LshDdpConfig {
            params: lsh::LshParams {
                m: 3,
                pi: 4,
                w: 50.0,
            },
            seed: 42,
            pipeline: PipelineConfig {
                map_tasks: 128,
                reduce_tasks: 256,
                mem_budget,
                ..PipelineConfig::default()
            },
            partition_cap: None,
            rho_aggregation: Default::default(),
        })
    };

    // Ground truth: the conventional resident run, reduced to a digest so
    // nothing of it stays on the heap for the budgeted run to inherit.
    let ds = {
        let mut ds = Dataset::new(dim);
        let mut p = vec![0.0; dim];
        for i in 0..points as u64 {
            clustered_point(stream_blob(i), i, &mut p);
            ds.push(&p);
        }
        ds
    };
    let resident = mk(None);
    let t0 = Instant::now();
    let r_resident = resident.run(&ds, dc);
    let resident_s = t0.elapsed().as_secs_f64();
    let digest_resident = digest_result(&r_resident.result);
    drop(r_resident);
    drop(ds);

    // Stream the same points straight to the spill tier in batches
    // matching the map-task chunk (points / map_tasks): a map task then
    // decodes exactly its own frame, never a neighbor's, so the map
    // phase's transient decode cost is one task's input, not one
    // oversized frame per thread.
    let batch = points / 128;
    let rows = SpilledRows::from_batches(
        "bench-streaming",
        (0..points).step_by(batch).map(|lo| {
            let hi = (lo + batch).min(points);
            (lo..hi)
                .map(|i| {
                    let mut p = vec![0.0; dim];
                    clustered_point(stream_blob(i as u64), i as u64, &mut p);
                    (i as PointId, p)
                })
                .collect::<Vec<_>>()
        }),
    )
    .expect("write spilled input snapshot");
    let snap = Snapshot::from_spilled(rows);

    let baseline = obsv::alloc::current_bytes();
    let budgeted = mk(Some(budget));
    let t1 = Instant::now();
    let r_budgeted = budgeted.run_spilled(&snap, dim, dc);
    let budgeted_s = t1.elapsed().as_secs_f64();
    let digest_budgeted = digest_result(&r_budgeted.result);
    let peak = r_budgeted.peak_resident_bytes();
    if std::env::var_os("LSHDDP_STREAM_DEBUG").is_some() {
        for j in &r_budgeted.jobs {
            eprintln!(
                "  [stream] {}: peak={} spill={} stall_ms={:.1} shuffle={}",
                j.name,
                j.peak_resident_bytes,
                j.spill_bytes,
                j.backpressure_stall_ns as f64 / 1e6,
                j.shuffle_bytes
            );
        }
    }

    StreamingBench {
        description: "LSH-DDP over a 4x-budget dataset: spilled input + memory governor \
                      vs unbudgeted resident run",
        points,
        dim,
        dataset_bytes,
        budget_bytes: budget,
        resident_s,
        budgeted_s,
        digest_resident,
        digest_budgeted,
        digests_match: digest_resident == digest_budgeted,
        spill_bytes: r_budgeted.spill_bytes(),
        backpressure_stall_ns: r_budgeted.backpressure_stall_ns(),
        baseline_resident_bytes: baseline,
        peak_resident_bytes: peak,
        peak_over_baseline_bytes: peak.saturating_sub(baseline),
    }
}

/// One write workload (many small appends, one fsync) through direct
/// `std::fs` and through an unarmed [`mapreduce::io_shim::FaultFs`]:
/// the shim must be bit-identical and nearly free when no plan is armed.
fn shim_passthrough(root: &std::path::Path) -> (f64, f64, bool) {
    use std::io::Write;

    let buf = vec![0xA5u8; 256];
    let writes_per_slice = 2_048;
    let slices = 16;
    let rounds = 5;
    let direct_path = root.join("direct.bin");
    let shim_path = root.join("shim.bin");

    // The honest per-op shim cost is one relaxed load and a branch, so
    // the measurement has to beat scheduler noise, not the shim. Timing
    // alternates direct/shim slices of identical work and keeps the min
    // per path over every slice: a preempted slice inflates one sample,
    // never the floor.
    let mut direct_s = f64::INFINITY;
    let mut shim_s = f64::INFINITY;
    let mut identical = true;
    for _ in 0..rounds {
        std::fs::remove_file(&direct_path).ok();
        std::fs::remove_file(&shim_path).ok();
        let mut direct = std::fs::File::create(&direct_path).unwrap();
        let fs = mapreduce::io_shim::FaultFs::real();
        let mut shim = fs.create(&shim_path).unwrap();
        for _ in 0..slices {
            let start = Instant::now();
            for _ in 0..writes_per_slice {
                direct.write_all(&buf).unwrap();
            }
            direct_s = direct_s.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            for _ in 0..writes_per_slice {
                shim.write_all(&buf).unwrap();
            }
            shim_s = shim_s.min(start.elapsed().as_secs_f64());
        }
        direct.sync_data().unwrap();
        shim.sync_data().unwrap();
        identical &= std::fs::read(&direct_path).unwrap() == std::fs::read(&shim_path).unwrap();
    }
    std::fs::remove_file(&direct_path).ok();
    std::fs::remove_file(&shim_path).ok();
    (direct_s, shim_s, identical)
}

/// The crash-consistency drill (see `ingest::drill`): enumerate a power
/// cut at every I/O op of the durable workflow, add randomized fault
/// mixes and the checkpoint-resume kill, and report invariant violations
/// (the scripts/check_crash.py gate requires zero) plus the unarmed
/// shim's passthrough overhead.
fn crash_consistency(smoke: bool) -> CrashConsistencyBench {
    use ingest::drill;

    let root = std::env::temp_dir().join(format!("bench-crash-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();

    let base = drill::fit_base_model(&drill::drill_dataset(20, 41), 41);
    let max_runs = if smoke { 240 } else { 400 };
    let enumerated = drill::enumerate_crash_points(&root, &base, max_runs);
    let seeds = if smoke { 0..16 } else { 0..32 };
    let randomized = drill::random_fault_drill(&root, &base, seeds);
    let resume = drill::checkpoint_resume_drill(&base);
    let (shim_direct_s, shim_passthrough_s, shim_bit_identical) = shim_passthrough(&root);
    std::fs::remove_dir_all(&root).ok();

    let mut violations = enumerated.violations;
    violations.extend(randomized.violations);
    CrashConsistencyBench {
        description: "power cut at every io op of save/ingest/compact/save/retire, \
                      plus randomized EIO/ENOSPC/cut mixes and a checkpointed kill",
        io_ops: enumerated.io_ops,
        crash_points_fired: enumerated.crash_attempts,
        random_fault_attempts: randomized.fault_attempts,
        total_fault_points: enumerated.crash_attempts + randomized.fault_attempts,
        vacuous_attempts: enumerated.vacuous + randomized.vacuous,
        violation_count: violations.len(),
        violations,
        retries_absorbed: enumerated.retries + randomized.retries,
        faults_injected: enumerated.injected + randomized.injected,
        give_ups: enumerated.give_ups + randomized.give_ups,
        resume_bit_identical: resume.is_ok(),
        resume_error: resume.err(),
        shim_direct_s,
        shim_passthrough_s,
        shim_overhead_frac: ((shim_passthrough_s - shim_direct_s) / shim_direct_s).max(0.0),
        shim_bit_identical,
    }
}

fn main() {
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(it.next().expect("--out needs a path")),
            other => panic!("unknown flag {other}; supported: --smoke --out"),
        }
    }
    // The pool sizes itself once from LSHDDP_THREADS; the comparison
    // needs real worker threads even on small CI machines.
    if std::env::var_os("LSHDDP_THREADS").is_none() {
        std::env::set_var("LSHDDP_THREADS", "4");
    }
    let threads = rayon::current_num_threads();

    let (calls, engine_records, blob_n, kernel_n, swap_queries) = if smoke {
        (50, 20_000, 300, 500, 400)
    } else {
        (400, 100_000, 1_500, 10_000, 2_000)
    };
    // The streaming gate (check_streaming.py) is stated at a fixed size —
    // 8 MiB of coordinates against a 2 MiB budget — so it runs at full
    // size even in smoke mode (the budgeted run is sub-second).
    let (stream_n, stream_budget) = (16_384, 2u64 * 1024 * 1024);

    eprintln!("bench_summary: threads={threads} smoke={smoke}");
    let summary = Summary {
        schema: 9,
        mode: if smoke { "smoke" } else { "full" },
        threads,
        // The engine's map phase: one parallel call per job over a
        // handful of map tasks, each task light.
        mapreduce_engine: executor_bench(
            "map phase: 8 tasks/job, light tasks",
            calls,
            512,
            threads,
        ),
        // Pipeline reducers: many small per-bucket calls (LSH partitions
        // are numerous and skewed, so granularity is even finer).
        pipelines: executor_bench(
            "per-bucket reduce: many tiny calls",
            calls * 2,
            128,
            threads,
        ),
        engine_shuffle_job: engine_shuffle_job(engine_records),
        lsh_ddp_pipeline: lsh_ddp_pipeline(blob_n),
        kernel_pair_d2: kernel_pair_d2(kernel_n, 8),
        plan_elision: plan_elision(blob_n),
        recovery_overhead: recovery_overhead(blob_n),
        // Serving correctness across model hot-swaps under load; the
        // smoke size is gated by `swap`'s test (>= 3 swaps, 0 dropped,
        // 0 incorrect).
        hot_swap: swap_under_load(42, if smoke { 120 } else { 400 }, 4, 4, swap_queries),
        // Storage-fault drills: power cut at every I/O op plus random
        // fault mixes; gated by scripts/check_crash.py (>= 100 fault
        // points, 0 violations, shim passthrough < 5% overhead).
        crash_consistency: crash_consistency(smoke),
        // The last three scenarios flip or require process-lifetime
        // switches (chunk observer, heap accounting) and must stay last,
        // in this order: tracing_overhead times its telemetry-off
        // baseline first, and streaming needs accounting already on for
        // its per-stage peaks.
        tracing_overhead: tracing_overhead(blob_n),
        telemetry: telemetry_drill(blob_n, if smoke { 400 } else { 1_500 }),
        streaming: streaming_budget(stream_n, 64, stream_budget),
    };

    for (name, b) in [
        ("mapreduce_engine", &summary.mapreduce_engine),
        ("pipelines", &summary.pipelines),
    ] {
        eprintln!(
            "{name}: pool {:.2e}s/call vs spawn-per-call {:.2e}s/call -> {:.1}x",
            b.persistent_pool_s, b.spawn_per_call_s, b.speedup
        );
    }
    eprintln!(
        "engine job {:.3}s, lsh-ddp pipeline {:.3}s, kernel {:.2e} pairs/s",
        summary.engine_shuffle_job.wall_s,
        summary.lsh_ddp_pipeline.wall_s,
        summary.kernel_pair_d2.pairs_per_s
    );
    eprintln!(
        "elision: on {:.3}s off {:.3}s, shuffle {} B vs {} B (saved {} B = {:.1}%), outputs_match={}",
        summary.plan_elision.elision_on_s,
        summary.plan_elision.elision_off_s,
        summary.plan_elision.shuffle_bytes_on,
        summary.plan_elision.shuffle_bytes_off,
        summary.plan_elision.shuffle_bytes_saved,
        summary.plan_elision.saved_frac * 100.0,
        summary.plan_elision.outputs_match
    );
    eprintln!(
        "recovery: clean {:.3}s chaos {:.3}s ({} retries, {:.1} ms straggler delay), \
         checkpointing {:.3}s ({:+.1}%), outputs_match={}",
        summary.recovery_overhead.clean_s,
        summary.recovery_overhead.chaos_s,
        summary.recovery_overhead.task_retries,
        summary.recovery_overhead.straggler_delay_ms,
        summary.recovery_overhead.checkpoint_s,
        summary.recovery_overhead.checkpoint_overhead_frac * 100.0,
        summary.recovery_overhead.outputs_match
    );
    eprintln!(
        "hot swap: {} swaps over {} queries at {:.0} qps — {} dropped, {} incorrect \
         (gen A {} / gen B {}, {} busy-retries)",
        summary.hot_swap.swaps,
        summary.hot_swap.queries_total,
        summary.hot_swap.qps,
        summary.hot_swap.dropped,
        summary.hot_swap.incorrect,
        summary.hot_swap.matched_gen_a,
        summary.hot_swap.matched_gen_b,
        summary.hot_swap.shed_retries
    );
    eprintln!(
        "crash drill: {} io ops, {} cuts + {} random attempts ({} vacuous), \
         {} violations, {} retries / {} give-ups, resume_identical={}, \
         shim passthrough {:+.1}% identical={}",
        summary.crash_consistency.io_ops,
        summary.crash_consistency.crash_points_fired,
        summary.crash_consistency.random_fault_attempts,
        summary.crash_consistency.vacuous_attempts,
        summary.crash_consistency.violation_count,
        summary.crash_consistency.retries_absorbed,
        summary.crash_consistency.give_ups,
        summary.crash_consistency.resume_bit_identical,
        summary.crash_consistency.shim_overhead_frac * 100.0,
        summary.crash_consistency.shim_bit_identical
    );
    eprintln!(
        "tracing: off {:.3}s on {:.3}s ({:+.1}%), full telemetry {:.3}s ({:+.1}%, \
         {} live scrapes), outputs_match={}",
        summary.tracing_overhead.tracing_off_s,
        summary.tracing_overhead.tracing_on_s,
        summary.tracing_overhead.overhead_frac * 100.0,
        summary.tracing_overhead.telemetry_on_s,
        summary.tracing_overhead.telemetry_overhead_frac * 100.0,
        summary.tracing_overhead.scrapes,
        summary.tracing_overhead.outputs_match
    );
    eprintln!(
        "telemetry drill: degraded={} slo_shed={} served={} p99 {:.2} ms (deadline {} ms), \
         batch peak {} B, scrapes {}/{} ok",
        summary.telemetry.slo_degraded_triggered,
        summary.telemetry.slo_shed,
        summary.telemetry.served,
        summary.telemetry.served_p99_ms,
        summary.telemetry.deadline_ms,
        summary.telemetry.batch_peak_bytes,
        summary.telemetry.scrapes_ok,
        summary.telemetry.scrapes
    );

    eprintln!(
        "streaming: resident {:.3}s vs budgeted {:.3}s, digests_match={}, \
         spilled {} B, stalled {:.1} ms, peak {} B over baseline {} B (budget {} B)",
        summary.streaming.resident_s,
        summary.streaming.budgeted_s,
        summary.streaming.digests_match,
        summary.streaming.spill_bytes,
        summary.streaming.backpressure_stall_ns as f64 / 1e6,
        summary.streaming.peak_over_baseline_bytes,
        summary.streaming.baseline_resident_bytes,
        summary.streaming.budget_bytes
    );

    let path =
        out.unwrap_or_else(|| format!("{}/../../BENCH_perf.json", env!("CARGO_MANIFEST_DIR")));
    let json = serde_json::to_string_pretty(&summary).expect("serializable summary");
    std::fs::write(&path, json + "\n").expect("write BENCH_perf.json");
    eprintln!("wrote {path}");
}
