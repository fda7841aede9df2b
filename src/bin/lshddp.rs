//! `lshddp` — the command-line front end: `generate`, `dc`, `cluster`,
//! `graph`, `tune`, `fit`, `query`, `serve`, `stats`, `ingest` and
//! `compact` over CSV inputs. `lshddp help` prints `USAGE`, the one
//! reference for every subcommand and flag.

use lsh_ddp::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A command-line mistake (an unknown subcommand, a missing or malformed
/// flag), followed by the usage text; every other error is one line.
fn usage(error: impl std::fmt::Display) -> String {
    format!("{error}\n\n{USAGE}")
}

/// The value of the required flag `flag`.
fn required<'a>(value: &'a Option<String>, flag: &str) -> Result<&'a String, String> {
    let missing = || usage(format!("{flag} is required"));
    value.as_ref().ok_or_else(missing)
}

const USAGE: &str = "\
lshddp — distributed Density Peaks clustering (LSH-DDP, ICDE 2017)

USAGE:
  lshddp generate --dataset <name> --out <file> [--scale f] [--seed n] [--labels]
      names: aggregation s2 facial kdd 3dspatial bigcross500k bigcross
             spirals moons rings
  lshddp dc --input <file> [--labeled] [--percentile f] [--samples n] [--seed n]
  lshddp cluster --input <file> --out <file> [--labeled]
      [--algorithm lsh|basic|eddpc|exact|kernel|kmeans]  (default lsh)
      [--k n | --auto]          peak/cluster count (default --auto)
      [--dc f]                  cutoff (default: 2% quantile estimate)
      [--accuracy f] [--m n] [--pi n] [--seed n] [--normalize] [--stats]
  lshddp graph --input <file> --out <file> [--labeled] [--dc f] [--seed n]
      [--algorithm exact|lsh|kernel] [--accuracy f] [--m n] [--pi n]
  lshddp tune --input <file> [--labeled] [--accuracy f] [--dc f] [--seed n]
      cost-optimal (M, pi, w) over the paper's recommended grid (Section V)
  lshddp fit --input <file> --out <model> [--labeled] [--k n | --auto]
      [--dc f] [--accuracy f] [--m n] [--pi n] [--seed n] [--normalize]
      run LSH-DDP and save a queryable ClusterModel artifact
  lshddp query --model <model> [--input <file>] [--out <file>]
      [--exactness lsh|hybrid|exact]
      assign points (CSV rows, stdin when --input is omitted); prints
      cluster,confidence per point
  lshddp serve --model <model> --input <file> [--out <file>] [--stats]
      [--exactness lsh|hybrid|exact] [--threads n] [--batch n]
      [--cache n] [--queue n] [--clients n]
      run the query stream through the concurrent micro-batching server
  lshddp stats --model <model> --input <file> [serve flags]
      drive the serve stream, then print the full metrics registry —
      counters, pool gauges, latency/queue-wait/batch-size histograms
  lshddp ingest --model <model> [--input <file>] [--delete k,k,..]
      [--wal <file>] [--out <model>] [--stats]
      apply one batch of inserts (CSV rows) and/or deletes (external
      keys: base points are 0..n, inserts continue the sequence) with
      updates localized to the touched LSH buckets; bumps the model
      version and reports how many points went stale. With --wal,
      batches are logged before acknowledgement and pending ones replay
      on open.
  lshddp compact --model <model> [--wal <file>] [--out <model>]
      [--k n | --auto] [--stats]
      refit the live points exactly (one-block Basic-DDP: Eq. 1 / Eq. 2
      over every pair), durably write the compacted artifact, then
      retire the folded WAL

GLOBAL:
  --trace <file>   capture a span timeline of the run: every pipeline,
      job, phase, and task attempt. Writes chrome://tracing JSON (load
      in ui.perfetto.dev), or a JSONL event log if <file> ends in
      .jsonl. LSHDDP_TRACE=<file> does the same without the flag.
  --profile <file>      capture spans and write an aggregated folded-stack
      stage profile (flamegraph.pl / inferno input) on exit
  --metrics-addr <a>    expose live telemetry over HTTP on <a> (e.g.
      127.0.0.1:9184): /metrics (Prometheus text), /metrics.json,
      /healthz, /spans. Also enables heap accounting.
  --linger <ms>         keep the process (and --metrics-addr listener)
      alive <ms> after the command finishes, for external scrapes
  --slo-ms <f>          serve/stats: latency SLO objective in ms; burn-rate
      monitoring sheds queued work while both windows burn hot
  --mem-budget <bytes>  bound the cluster pipelines' resident working set;
      accepts K/M/G suffixes (e.g. 256M). Stage outputs, shuffle
      partitions, and checkpoints past the budget spill to the simulated
      DFS and stream back chunk by chunk; results are bit-identical to
      an unbudgeted run. --stats reports spill volume and backpressure
      stalls
  --faults <spec>       inject seeded faults, e.g. seed=3,fail=300,eio=150;
      comma-separated key=value pairs, rates per mille. Task faults (the
      cluster, fit and compact pipelines): fail=n crashes n/1000 of task
      attempts (n < 1000; retried), straggle=n slows n/1000 of tasks 4x,
      at most +20 ms (a clone races one once 3 tasks of its phase are done;
      a phase runs one task per thread: set LSHDDP_THREADS=4 or more).
      Storage faults, per durable io op (WAL, spill tier, checkpoints,
      model files): eio=n (retried), enospc=n, crash=n and torn=n (power
      cuts), crash-at=k [crash-torn] (cut the power at op k). seed=n
      defaults to --seed. Retried faults leave results unchanged; a
      `faults:` line reports the retries and injected faults";

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| usage("missing subcommand"))?;
    let opts = Opts::parse(rest).map_err(usage)?;

    // `--trace <file>` (or LSHDDP_TRACE=<file>) turns span capture on for
    // the whole run and dumps the timeline on the way out. Without it,
    // tracing costs one atomic load per span. `--profile` rides the same
    // capture; `--metrics-addr` needs only the executor instruments.
    let trace = opts
        .trace
        .clone()
        .or_else(|| std::env::var("LSHDDP_TRACE").ok());
    if trace.is_some() || opts.profile.is_some() {
        obsv::enable_capture();
    }
    if trace.is_some() || opts.profile.is_some() || opts.metrics_addr.is_some() {
        obsv::install_executor_metrics(obsv::global());
    }
    // Heap accounting powers the per-stage `peak resident` columns, the
    // `mem.*` gauges, and the memory governor's process-heap watermark;
    // it is one-way for the process, so turn it on only when some
    // consumer (telemetry or `--mem-budget` enforcement) will read it.
    if opts.stats
        || opts.mem_budget.is_some()
        || trace.is_some()
        || opts.profile.is_some()
        || opts.metrics_addr.is_some()
    {
        obsv::alloc::enable_accounting();
    }

    // One `--faults` plan arms both sides: the process-global storage
    // shim here (every durability path — WAL, spill tier, checkpoints,
    // model artifacts — runs under its storage classes), and the
    // pipelines' task faults through `Opts::pipeline`.
    if let Some(plan) = opts.faults {
        mapreduce::io_shim::install_global_plan(plan);
    }

    // Serve-family commands build their own exposition (they add the
    // serve registry as a second source); every other command exposes
    // the global registry here.
    let serve_family = matches!(cmd.as_str(), "serve" | "stats");
    let mut exposer = match (&opts.metrics_addr, serve_family) {
        (Some(addr), false) => Some(start_exposer(addr, None)?),
        _ => None,
    };

    let outcome = match cmd.as_str() {
        "generate" => generate(&opts),
        "dc" => estimate_dc(&opts),
        "cluster" => cluster(&opts),
        "graph" => graph(&opts),
        "tune" => tune(&opts),
        "fit" => fit(&opts),
        "query" => query(&opts),
        "serve" => serve_stream(&opts, false),
        "stats" => serve_stream(&opts, true),
        "ingest" => ingest(&opts),
        "compact" => compact(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(usage(format!("unknown subcommand {other:?}"))),
    };
    if outcome.is_ok() && opts.faults.is_some() {
        print_fault_summary();
    }

    if let Some(path) = &trace {
        obsv::snapshot_pool_stats(obsv::global());
        let events = obsv::drain_events();
        match obsv::export::write_trace(path, &events) {
            Ok(()) => eprintln!("trace: {} spans -> {path}", events.len()),
            Err(e) => eprintln!("warning: could not write trace {path}: {e}"),
        }
    }
    if let Some(path) = &opts.profile {
        let events = obsv::drain_events();
        match obsv::profile::write_folded(path, &events) {
            Ok(()) => eprintln!("profile: {} spans folded -> {path}", events.len()),
            Err(e) => eprintln!("warning: could not write profile {path}: {e}"),
        }
    }
    if let Some(exposer) = exposer.as_mut() {
        linger(opts.linger_ms, exposer.addr());
        exposer.shutdown();
    }
    outcome
}

/// Binds the `/metrics` exposition listener: the process-global registry
/// under `lshddp`, plus (for serve commands) the service's own registry
/// under `serve`. Every scrape refreshes the executor pool gauges first.
fn start_exposer(
    addr: &str,
    serve_reg: Option<std::sync::Arc<obsv::Registry>>,
) -> Result<obsv::MetricsServer, String> {
    let mut exp = obsv::Exposition::new()
        .source("lshddp", obsv::RegistryRef::Static(obsv::global()))
        .collector(|| obsv::snapshot_pool_stats(obsv::global()));
    if let Some(reg) = serve_reg {
        exp = exp.source("serve", obsv::RegistryRef::Shared(reg));
    }
    let server = exp
        .serve(addr)
        .map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
    eprintln!("metrics: listening on http://{}/metrics", server.addr());
    Ok(server)
}

/// Holds the process open for `--linger <ms>` so external scrapers can
/// hit the exposition endpoints after the command's work is done.
fn linger(ms: u64, addr: std::net::SocketAddr) {
    if ms > 0 {
        eprintln!("metrics: lingering {ms} ms on http://{addr}/metrics");
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Flat option bag for all subcommands.
struct Opts {
    dataset: Option<String>,
    input: Option<String>,
    out: Option<String>,
    algorithm: String,
    scale: f64,
    seed: u64,
    labels: bool,
    labeled: bool,
    normalize: bool,
    stats: bool,
    auto: bool,
    k: Option<usize>,
    dc: Option<f64>,
    percentile: f64,
    samples: usize,
    accuracy: f64,
    m: usize,
    pi: usize,
    model: Option<String>,
    wal: Option<String>,
    delete: Option<String>,
    trace: Option<String>,
    profile: Option<String>,
    metrics_addr: Option<String>,
    linger_ms: u64,
    slo_ms: Option<f64>,
    /// The `--faults` plan, its `seed` defaulting to `--seed`.
    faults: Option<mapreduce::FaultPlan>,
    exactness: String,
    threads: usize,
    batch: usize,
    cache: usize,
    queue: usize,
    clients: usize,
    mem_budget: Option<u64>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            dataset: None,
            input: None,
            out: None,
            algorithm: "lsh".into(),
            scale: 0.01,
            seed: 42,
            labels: false,
            labeled: false,
            normalize: false,
            stats: false,
            auto: false,
            k: None,
            dc: None,
            percentile: 0.02,
            samples: 100_000,
            accuracy: 0.99,
            m: 10,
            pi: 3,
            model: None,
            wal: None,
            delete: None,
            trace: None,
            profile: None,
            metrics_addr: None,
            linger_ms: 0,
            slo_ms: None,
            faults: None,
            exactness: "hybrid".into(),
            threads: 0,
            batch: 32,
            cache: 4096,
            queue: 1024,
            clients: 4,
            mem_budget: None,
        };
        let mut faults = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<&String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--dataset" => o.dataset = Some(value("--dataset")?.clone()),
                "--input" => o.input = Some(value("--input")?.clone()),
                "--out" => o.out = Some(value("--out")?.clone()),
                "--algorithm" => o.algorithm = value("--algorithm")?.clone(),
                "--scale" => o.scale = parse_num(value("--scale")?, "--scale")?,
                "--seed" => o.seed = parse_num(value("--seed")?, "--seed")?,
                "--labels" => o.labels = true,
                "--labeled" => o.labeled = true,
                "--normalize" => o.normalize = true,
                "--stats" => o.stats = true,
                "--auto" => o.auto = true,
                "--k" => o.k = Some(parse_num(value("--k")?, "--k")?),
                "--dc" => o.dc = Some(parse_num(value("--dc")?, "--dc")?),
                "--percentile" => o.percentile = parse_num(value("--percentile")?, "--percentile")?,
                "--samples" => o.samples = parse_num(value("--samples")?, "--samples")?,
                "--accuracy" => o.accuracy = parse_num(value("--accuracy")?, "--accuracy")?,
                "--m" => o.m = parse_num(value("--m")?, "--m")?,
                "--pi" => o.pi = parse_num(value("--pi")?, "--pi")?,
                "--model" => o.model = Some(value("--model")?.clone()),
                "--wal" => o.wal = Some(value("--wal")?.clone()),
                "--delete" => o.delete = Some(value("--delete")?.clone()),
                "--trace" => o.trace = Some(value("--trace")?.clone()),
                "--profile" => o.profile = Some(value("--profile")?.clone()),
                "--metrics-addr" => o.metrics_addr = Some(value("--metrics-addr")?.clone()),
                "--linger" => o.linger_ms = parse_num(value("--linger")?, "--linger")?,
                "--slo-ms" => o.slo_ms = Some(parse_num(value("--slo-ms")?, "--slo-ms")?),
                "--faults" => faults = Some(value("--faults")?.clone()),
                "--exactness" => o.exactness = value("--exactness")?.clone(),
                "--threads" => o.threads = parse_num(value("--threads")?, "--threads")?,
                "--batch" => o.batch = parse_num(value("--batch")?, "--batch")?,
                "--cache" => o.cache = parse_num(value("--cache")?, "--cache")?,
                "--queue" => o.queue = parse_num(value("--queue")?, "--queue")?,
                "--clients" => o.clients = parse_num(value("--clients")?, "--clients")?,
                "--mem-budget" => o.mem_budget = Some(parse_bytes(value("--mem-budget")?)?),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if let Some(spec) = faults {
            // Later keys win, so an explicit `seed=` overrides `--seed`.
            let spec = format!("seed={},{spec}", o.seed);
            let plan = mapreduce::FaultPlan::parse(&spec).map_err(|e| format!("--faults: {e}"))?;
            o.faults = Some(plan);
        }
        Ok(o)
    }

    fn load(&self) -> Result<datasets::LabeledDataset, String> {
        let input = required(&self.input, "--input")?;
        let mut ld = datasets::io::read_csv(input, self.labeled)
            .map_err(|e| format!("reading {input}: {e}"))?;
        if self.normalize {
            ld.data.normalize_min_max();
        }
        Ok(ld)
    }

    /// The peak selection `--k` or `--auto` asks for: the `k`
    /// largest-delta points above the lower density quartile, or the
    /// suggested thresholds when `--auto` is set or `--k` is absent.
    fn selection(&self) -> Result<PeakSelection, String> {
        match (self.auto, self.k) {
            (false, Some(0)) => Err("--k: at least one cluster is required, got 0".into()),
            (false, Some(k)) => Ok(PeakSelection::DeltaOutliers {
                k,
                rho_quantile: 0.25,
            }),
            _ => Ok(PeakSelection::Auto),
        }
    }

    /// A pipeline config carrying the `--faults` plan and the memory
    /// budget.
    fn pipeline(&self) -> ddp::common::PipelineConfig {
        ddp::common::PipelineConfig {
            chaos: self.faults,
            mem_budget: self.mem_budget,
            ..Default::default()
        }
    }

    /// `--dc`, or the estimate from the data; either must be positive and
    /// finite, and an estimate needs two points. An out-of-range
    /// `--percentile` or `--samples` is an error either way.
    fn resolve_dc(&self, ds: &Dataset) -> Result<f64, String> {
        if !(self.percentile > 0.0 && self.percentile <= 1.0) {
            return Err(format!(
                "--percentile: {} is out of range (0, 1]",
                self.percentile
            ));
        }
        if self.samples == 0 {
            return Err("--samples: at least one pair is required, got 0".into());
        }
        let dc = match self.dc {
            Some(dc) => dc,
            None if ds.len() >= 2 => {
                dp_core::cutoff::estimate_dc_sampled(ds, self.percentile, self.samples, self.seed)
            }
            None => f64::NAN,
        };
        if dc.is_finite() && dc > 0.0 {
            return Ok(dc);
        }
        Err(format!(
            "d_c must be positive and finite, got {dc} (an estimate needs two \
             distinct points); set it with --dc"
        ))
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: cannot parse {s:?}"))
}

/// Parses a byte count with an optional `K`/`M`/`G` suffix (powers of
/// 1024), e.g. `--mem-budget 256M`.
fn parse_bytes(s: &str) -> Result<u64, String> {
    let (digits, shift) = match s.as_bytes().last() {
        Some(b'K' | b'k') => (&s[..s.len() - 1], 10),
        Some(b'M' | b'm') => (&s[..s.len() - 1], 20),
        Some(b'G' | b'g') => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: u64 = parse_num(digits, "--mem-budget")?;
    n.checked_shl(shift)
        .filter(|v| *v >> shift == n)
        .ok_or_else(|| format!("--mem-budget: {s:?} overflows u64"))
}

fn generate(o: &Opts) -> Result<(), String> {
    let name = required(&o.dataset, "--dataset")?;
    let out = required(&o.out, "--out")?;
    let ld = match name.as_str() {
        "aggregation" => PaperDataset::Aggregation.generate(1.0, o.seed),
        "s2" => PaperDataset::S2.generate(o.scale.clamp(1e-9, 1.0), o.seed),
        "facial" => PaperDataset::Facial.generate(o.scale, o.seed),
        "kdd" => PaperDataset::Kdd.generate(o.scale, o.seed),
        "3dspatial" => PaperDataset::Spatial3d.generate(o.scale, o.seed),
        "bigcross500k" => PaperDataset::BigCross500k.generate(o.scale, o.seed),
        "bigcross" => PaperDataset::BigCross.generate(o.scale, o.seed),
        "spirals" => datasets::shapes::spirals(2, 300, 0.02, o.seed),
        "moons" => datasets::shapes::two_moons(300, 0.04, o.seed),
        "rings" => datasets::shapes::rings(&[1.0, 4.0, 8.0], 250, 0.08, o.seed),
        other => return Err(usage(format!("unknown dataset {other:?}"))),
    };
    let labels = o.labels.then_some(&ld.labels[..]);
    datasets::io::write_csv(out, &ld.data, labels).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} points x {} dims to {out}",
        ld.len(),
        ld.data.dim()
    );
    Ok(())
}

fn estimate_dc(o: &Opts) -> Result<(), String> {
    let dc = o.resolve_dc(&o.load()?.data)?;
    println!("{dc}");
    Ok(())
}

fn cluster(o: &Opts) -> Result<(), String> {
    let ld = o.load()?;
    let ds = &ld.data;
    let out = required(&o.out, "--out")?;

    // K-means is the odd one out (no decision graph, no d_c).
    if o.algorithm == "kmeans" {
        let k = o.k.ok_or_else(|| usage("--k is required for kmeans"))?;
        let fit = KMeans::new(k, o.seed).fit(ds);
        write_labels(out, fit.clustering.labels())?;
        println!(
            "kmeans: k={k}, {} iterations, inertia {:.4}",
            fit.iterations, fit.inertia
        );
        return Ok(());
    }

    // The DP family: compute (rho, delta), then select + assign.
    let selection = o.selection()?;
    let dc = o.resolve_dc(ds)?;
    let (result, report): (DpResult, Option<ddp::stats::RunReport>) = match o.algorithm.as_str() {
        "exact" => (compute_exact(ds, dc), None),
        "kernel" => (dp_core::compute_gaussian(ds, dc).result, None),
        "basic" => {
            let cfg = BasicConfig {
                pipeline: o.pipeline(),
                ..Default::default()
            };
            let r = BasicDdp::new(cfg).run(ds, dc);
            (r.result.clone(), Some(r))
        }
        "eddpc" => {
            let mut cfg = EddpcConfig::for_size(ds.len(), o.seed);
            cfg.pipeline = o.pipeline();
            let r = Eddpc::new(cfg).run(ds, dc);
            (r.result.clone(), Some(r))
        }
        "lsh" => {
            let r = LshDdp::with_accuracy(o.accuracy, o.m, o.pi, dc, o.seed)
                .map_err(|e| e.to_string())?
                .with_pipeline(o.pipeline())
                .run(ds, dc);
            (r.result.clone(), Some(r))
        }
        other => return Err(usage(format!("unknown algorithm {other:?}"))),
    };

    let outcome = CentralizedStep::new(selection).run(&result);
    write_labels(out, outcome.clustering.labels())?;
    println!(
        "{}: d_c = {dc:.6}, {} peaks, {} clusters, wrote {}",
        o.algorithm,
        outcome.peaks.len(),
        outcome.clustering.n_clusters(),
        out
    );
    if o.labeled {
        println!(
            "ARI vs input labels: {:.4}",
            dp_core::quality::adjusted_rand_index(outcome.clustering.labels(), &ld.labels)
        );
    }
    if o.stats {
        println!("kernels: {}", dp_core::simd::Isa::detect());
        if let Some(r) = report {
            print_jobs(&r);
            let saved = r.shuffle_bytes_saved();
            if saved > 0 {
                println!("  shuffle bytes saved by plan elision: {saved}");
            }
            println!(
                "  peak resident heap across stages: {:.1} MB",
                r.peak_resident_bytes() as f64 / 1e6
            );
            let spilled = r.spill_bytes();
            if spilled > 0 || o.mem_budget.is_some() {
                println!(
                    "  memory governor: budget {}, spilled {:.1} MB, \
                     backpressure stalls {:.1} ms",
                    match o.mem_budget {
                        Some(b) => format!("{:.1} MB", b as f64 / 1e6),
                        None => "off".into(),
                    },
                    spilled as f64 / 1e6,
                    r.backpressure_stall_ns() as f64 / 1e6,
                );
            }
            let enospc = obsv::global().counter("spill.enospc_fallbacks").get();
            if enospc > 0 {
                println!(
                    "  WARNING: spill tier hit ENOSPC and was disabled for the \
                     run ({enospc} fallback{}); stages ran resident and the \
                     memory budget was not enforced",
                    if enospc == 1 { "" } else { "s" },
                );
            }
        }
    }
    Ok(())
}

fn graph(o: &Opts) -> Result<(), String> {
    let ld = o.load()?;
    let ds = &ld.data;
    let out = required(&o.out, "--out")?;
    let dc = o.resolve_dc(ds)?;
    let result = match o.algorithm.as_str() {
        "lsh" => {
            LshDdp::with_accuracy(o.accuracy, o.m, o.pi, dc, o.seed)
                .map_err(|e| e.to_string())?
                .run(ds, dc)
                .result
        }
        "kernel" => dp_core::compute_gaussian(ds, dc).result,
        _ => compute_exact(ds, dc),
    };
    let graph = DecisionGraph::from_result(&result);
    std::fs::write(out, graph.to_csv()).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote decision graph ({} points, d_c = {dc:.6}) to {out}",
        graph.len()
    );
    Ok(())
}

fn tune(o: &Opts) -> Result<(), String> {
    let ld = o.load()?;
    let ds = &ld.data;
    let dc = o.resolve_dc(ds)?;
    let spec = mapreduce::ClusterSpec::local_cluster();
    let report = ddp::tuning::autotune(ds, dc, o.accuracy, &spec, &RECOMMENDED_GRID, 1000, o.seed)
        .map_err(|e| e.to_string())?;
    println!("d_c = {dc:.6}; grid at A = {}:", o.accuracy);
    println!(
        "{:>4} {:>4} {:>10} {:>16} {:>18} {:>14}",
        "M", "pi", "w", "pred #dist", "pred shuffle B", "pred cost s"
    );
    for c in &report.candidates {
        let marker = if c.params == report.best.params {
            "->"
        } else {
            "  "
        };
        println!(
            "{marker}{:>3} {:>4} {:>10.4} {:>16} {:>18} {:>14.2}",
            c.params.m,
            c.params.pi,
            c.params.w,
            c.predicted_distances,
            c.predicted_shuffle_bytes,
            c.predicted_cost_secs
        );
    }
    println!(
        "recommended: --m {} --pi {} (w = {:.4})",
        report.best.params.m, report.best.params.pi, report.best.params.w
    );
    Ok(())
}

fn fit(o: &Opts) -> Result<(), String> {
    let ld = o.load()?;
    let ds = &ld.data;
    let out = required(&o.out, "--out")?;
    let selection = o.selection()?;
    let dc = o.resolve_dc(ds)?;

    let ddp = LshDdp::with_accuracy(o.accuracy, o.m, o.pi, dc, o.seed)
        .map_err(|e| e.to_string())?
        .with_pipeline(o.pipeline());
    let params = ddp.config().params;
    let report = ddp.run(ds, dc);
    let outcome = CentralizedStep::new(selection).run(&report.result);
    let model = ClusterModel::from_run(ds, &report, &outcome, &params, o.seed);
    model.save(out).map_err(|e| e.to_string())?;
    println!(
        "fit: {} points x {} dims, d_c = {dc:.6}, {} clusters, model -> {out}",
        model.len(),
        model.dim(),
        model.n_clusters()
    );
    Ok(())
}

/// Reads points through the shared CSV reader (blank and `#` lines
/// skipped, every row checked) from a file, or stdin when `path` is
/// `None`, and keeps each row's first `dim` columns: extra columns are
/// labels, so files generated with `--labels` work as-is.
fn read_points(path: Option<&str>, dim: usize) -> Result<Vec<f64>, String> {
    let ds = match path {
        Some(p) => datasets::io::read_csv(p, false).map_err(|e| format!("reading {p}: {e}"))?,
        None => datasets::io::parse_csv(std::io::stdin().lock(), false)
            .map_err(|e| format!("reading stdin: {e}"))?,
    }
    .data;
    if ds.dim() < dim {
        return Err(format!("{} columns, model needs {dim}", ds.dim()));
    }
    Ok(ds.iter().flat_map(|(_, p)| &p[..dim]).copied().collect())
}

fn load_engine(o: &Opts) -> Result<QueryEngine, String> {
    let path = required(&o.model, "--model")?;
    let model = ClusterModel::load(path).map_err(|e| e.to_string())?;
    let exactness: Exactness = o.exactness.parse().map_err(usage)?;
    Ok(QueryEngine::with_exactness(model, exactness))
}

fn write_assignments(path: Option<&str>, answers: &[serve::Assignment]) -> Result<(), String> {
    use std::io::Write;
    let mut buf = String::new();
    for a in answers {
        buf.push_str(&format!("{},{:.4}\n", a.cluster, a.confidence));
    }
    match path {
        Some(p) => std::fs::write(p, buf).map_err(|e| format!("writing {p}: {e}")),
        None => std::io::stdout()
            .write_all(buf.as_bytes())
            .map_err(|e| e.to_string()),
    }
}

fn query(o: &Opts) -> Result<(), String> {
    let engine = load_engine(o)?;
    let queries = read_points(o.input.as_deref(), engine.model().dim())?;
    let answers = engine.assign_batch(&queries);
    write_assignments(o.out.as_deref(), &answers)?;
    let fallbacks = answers.iter().filter(|a| a.fallback).count();
    eprintln!(
        "query: {} points, {} exact-fallback",
        answers.len(),
        fallbacks
    );
    Ok(())
}

/// Drives a query stream through the concurrent server. With
/// `full_report` (the `stats` subcommand), prints the service's whole
/// metrics registry — counters, executor pool gauges, and the
/// latency/queue-wait/batch-size histograms — instead of the digest.
fn serve_stream(o: &Opts, full_report: bool) -> Result<(), String> {
    let engine = load_engine(o)?;
    let dim = engine.model().dim();
    let queries = read_points(o.input.as_deref(), dim)?;
    let n = queries.len() / dim;

    let server = Server::start(
        engine,
        ServerConfig {
            threads: o.threads,
            queue_depth: o.queue,
            max_batch: o.batch,
            cache_capacity: o.cache,
            slo: o.slo_ms.map(|ms| obsv::SloConfig {
                objective_ns: (ms * 1e6) as u64,
                ..obsv::SloConfig::default()
            }),
            ..ServerConfig::default()
        },
    );

    // The serve-family exposition carries two sources: the process
    // registry and the service's own (latency histograms, SLO gauges).
    let mut exposer = match o.metrics_addr.as_deref() {
        Some(addr) => Some(start_exposer(addr, Some(server.registry_arc()))?),
        None => None,
    };

    // Closed-loop clients: split the stream into contiguous slices, one
    // blocking client thread per slice.
    let clients = o.clients.clamp(1, n);
    let mut answers: Vec<Option<serve::Assignment>> = vec![None; n];
    let chunk = n.div_ceil(clients);
    std::thread::scope(|s| {
        for (slot, ids) in answers.chunks_mut(chunk).zip(0..) {
            let client = server.client();
            let queries = &queries;
            s.spawn(move || {
                let base = ids * chunk;
                for (j, out) in slot.iter_mut().enumerate() {
                    let q = &queries[(base + j) * dim..(base + j + 1) * dim];
                    *out = client.assign(q).ok();
                }
            });
        }
    });

    let answers: Vec<serve::Assignment> = answers
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("server dropped a query")?;
    if let Some(out) = o.out.as_deref() {
        write_assignments(Some(out), &answers)?;
    }
    let stats = server.client().stats().map_err(|e| e.to_string())?;
    let report = if full_report {
        obsv::snapshot_pool_stats(server.registry());
        obsv::alloc::publish_gauges(server.registry());
        Some(obsv::export::text_report(&server.registry().snapshot()))
    } else {
        None
    };
    if let Some(exposer) = exposer.as_mut() {
        // Scrapers probing a live (possibly overloaded) server need the
        // server up while they curl; shut the service down only after
        // the linger window closes.
        linger(o.linger_ms, exposer.addr());
        exposer.shutdown();
    }
    server.shutdown();
    println!(
        "serve: {} points through {clients} client(s)",
        answers.len()
    );
    if let Some(report) = report {
        println!("{stats}");
        println!("{report}");
    } else if o.stats {
        println!("{stats}");
    } else {
        println!(
            "qps {:.0}  cache hit rate {:.1}%",
            stats.qps,
            stats.cache_hit_rate * 100.0
        );
    }
    Ok(())
}

/// Opens an ingest session over `--model`, WAL-backed when `--wal` is
/// given (replaying any batches pending since the last compaction).
fn open_session(o: &Opts, model: &ClusterModel) -> Result<IngestSession, String> {
    let config = IngestConfig {
        pipeline: o.pipeline(),
        selection: o.selection()?,
    };
    match o.wal.as_deref() {
        Some(path) => {
            let (session, replayed) =
                IngestSession::with_wal(model, config, path).map_err(|e| e.to_string())?;
            if replayed > 0 {
                eprintln!("wal: replayed {replayed} pending batch(es) from {path}");
            }
            Ok(session)
        }
        None => Ok(IngestSession::new(model, config)),
    }
}

/// A run's summary row, then one line per job.
fn print_jobs(r: &RunReport) {
    println!("{}", r.summary_row());
    for job in &r.jobs {
        let elided = if job.shuffle_bytes_saved > 0 {
            format!("  (elided; saved {} B)", job.shuffle_bytes_saved)
        } else {
            String::new()
        };
        let spilled = if job.spill_bytes > 0 {
            format!("  spill {:>10} B", job.spill_bytes)
        } else {
            String::new()
        };
        println!(
            "  {:<22} shuffle {:>12} B  records {:>10}  peak {:>7.1} MB{spilled}{elided}",
            job.name,
            job.shuffle_bytes,
            job.shuffle_records,
            job.peak_resident_bytes as f64 / 1e6,
        );
    }
}

/// The `--faults` summary line: task retries and speculation from every
/// job the command ran, then the storage shim's io retries, injected
/// faults and give-ups.
fn print_fault_summary() {
    let reg = obsv::global();
    let count = |name: &str| reg.counter(name).get();
    let fs = mapreduce::FaultFs::global();
    println!(
        "faults: {} task retries, {} speculative launches ({} won), {} io retries, \
         {} io faults injected, {} io give-ups",
        count("task_retries"),
        count("speculative_launched"),
        count("speculative_wins"),
        fs.retries(),
        fs.injected_faults(),
        fs.give_ups(),
    );
}

fn print_lifecycle_stats(session: &IngestSession) {
    let reg = obsv::global();
    println!(
        "counters: ingest_batches {}  stale_points {}  model_compactions {}",
        reg.counter("ingest_batches").get(),
        reg.counter("stale_points").get(),
        reg.counter("model_compactions").get(),
    );
    println!(
        "stale: {} of {} live points",
        session.stale_points(),
        session.len()
    );
}

fn ingest(o: &Opts) -> Result<(), String> {
    let path = required(&o.model, "--model")?;
    let model = ClusterModel::load(path).map_err(|e| e.to_string())?;

    // Parse every op and check the paths before the session opens, so a
    // refused command leaves no WAL behind.
    let mut ops: Vec<DeltaOp> = Vec::new();
    if let Some(input) = o.input.as_deref() {
        let flat = read_points(Some(input), model.dim())?;
        for point in flat.chunks(model.dim()) {
            ops.push(DeltaOp::Insert(point.to_vec()));
        }
    }
    if let Some(keys) = o.delete.as_deref() {
        for key in keys.split(',') {
            ops.push(DeltaOp::Delete(parse_num(key.trim(), "--delete")?));
        }
    }
    if ops.is_empty() && o.wal.is_none() {
        return Err("nothing to ingest: give --input points and/or --delete keys".into());
    }

    // With a WAL the base artifact is the replay anchor: durable state =
    // base model + log, and overwriting the base would make the pending
    // batches replay onto themselves. Snapshots then need their own
    // path — checked before the batch is applied, so a refused command
    // leaves both the session and the log untouched.
    let out = match (o.out.as_deref(), o.wal.is_some()) {
        (Some(out), true) if out == path => {
            return Err(format!(
                "--out {out} would overwrite the WAL's base artifact; \
                 pick a different snapshot path or run `compact`"
            ));
        }
        (out, true) => out,
        (out, false) => Some(out.unwrap_or(path)),
    };
    let mut session = open_session(o, &model)?;

    let mut newly_stale = 0;
    let (inserts, deletes) = ops.iter().fold((0, 0), |(i, d), op| match op {
        DeltaOp::Insert(_) => (i + 1, d),
        DeltaOp::Delete(_) => (i, d + 1),
    });
    if !ops.is_empty() {
        let applied = session.apply(ops).map_err(|e| e.to_string())?;
        newly_stale = applied.newly_stale;
    }
    let destination = match out {
        Some(out) => {
            session.publish().save(out).map_err(|e| e.to_string())?;
            out
        }
        None => o.wal.as_deref().expect("snapshot elided only with a WAL"),
    };
    println!(
        "ingest: +{inserts} -{deletes} -> {} live points, model v{} -> {destination} \
         ({newly_stale} newly stale)",
        session.len(),
        session.version(),
    );
    if o.stats {
        print_lifecycle_stats(&session);
    }
    Ok(())
}

fn compact(o: &Opts) -> Result<(), String> {
    let path = required(&o.model, "--model")?;
    let model = ClusterModel::load(path).map_err(|e| e.to_string())?;
    let mut session = open_session(o, &model)?;

    let stale_before = session.stale_points();
    let compaction = session.compact();
    let out = o.out.as_deref().unwrap_or(path);
    // Order matters: the WAL is retired only once the compacted
    // artifact durably holds its batches (save is atomic + fsynced).
    // If the save fails or we crash here, the log still replays onto
    // the old base artifact — nothing acknowledged is lost.
    compaction.model.save(out).map_err(|e| e.to_string())?;
    session.retire_wal().map_err(|e| e.to_string())?;
    println!(
        "compact: {} live points refit exactly ({stale_before} stale healed), \
         model v{} -> {out}",
        session.len(),
        compaction.model.version(),
    );
    if o.stats {
        print_lifecycle_stats(&session);
        print_jobs(&compaction.report);
    }
    Ok(())
}

fn write_labels(path: &str, labels: &[u32]) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(
        std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?,
    );
    for l in labels {
        writeln!(f, "{l}").map_err(|e| e.to_string())?;
    }
    Ok(())
}
