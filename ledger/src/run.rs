//! The parent: generates the inputs, runs one child process per (workload,
//! cycle) — never two at once, cycles interleaved round-robin across the
//! workloads so a host burst lands on one cycle of each rather than on every
//! cycle of one — discards the warm-up cycle and reports, for each metric,
//! the mean of its best measured cycles.

use crate::child::Report;
use crate::spec::{self, Metric, Sizes, Workload, WORKLOADS};
use crate::stats::{self, Summary};
use crate::{history, inputs};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Measured time per workload: `seconds / CYCLE_S` cycles.
    pub seconds: f64,
    /// One workload, or all four interleaved.
    pub workload: Option<&'static Workload>,
    /// The separate traced run that yields the per-layer metrics.
    pub traced: bool,
    pub smoke: bool,
    /// Exit non-zero on an `unstable` metric.
    pub strict: bool,
    /// Append this run (and its traced twin) to `ledger/HISTORY.jsonl`.
    pub record: bool,
}

/// Where the run keeps its files, relative to the working directory.
pub const ROOT: &str = "target/ledger";

/// What a cycle is for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    /// Cycle 0, discarded: it pages in the executable and the input
    /// files. A workload that borrows another's input (`fit-budget`) runs
    /// the lender here, whose digest and counts its own cycles must
    /// reproduce.
    Warmup,
    /// Untraced, one worker thread: the end-to-end figures.
    Measured,
    /// Traced run: an untraced cycle to measure the tracing overhead from.
    Baseline,
    Traced,
    /// Traced run of a budgeted workload: an untraced cycle on two worker
    /// threads, the only place a reducer can be kept waiting at the
    /// governor's admission gate.
    TwoThreads,
}

/// The cycles a run of `w` is made of: fixed by the command line, so that
/// parent and change are measured over the same number of them.
fn plan(w: &Workload, o: &Options) -> Vec<Role> {
    let mut roles = vec![Role::Warmup];
    if o.traced {
        let each = if o.smoke { 1 } else { spec::TRACED_CYCLES };
        for _ in 0..each {
            roles.extend([Role::Baseline, Role::Traced]);
        }
        if w.measures(spec::On::Budget) {
            roles.extend(std::iter::repeat_n(Role::TwoThreads, each));
        }
    } else {
        let measured = if o.smoke {
            2
        } else {
            ((o.seconds / spec::CYCLE_S) as usize).max(spec::MIN_CYCLES)
        };
        roles.extend(std::iter::repeat_n(Role::Measured, measured));
    }
    roles
}

/// A metric's reported value and what it was made from.
#[derive(Debug, Clone)]
pub struct Value {
    pub value: f64,
    /// Spread of the cycles the value averages, as a share of it.
    pub spread: f64,
    /// Every cycle the value was picked from.
    pub cycles: Summary,
    /// A difference of two timings whose cycles disagree about its sign.
    pub unresolved: bool,
}

impl Value {
    fn of(m: &Metric, cycles: &[f64]) -> Value {
        Value {
            value: m.reported(cycles),
            spread: m.spread(cycles),
            cycles: Summary::of(cycles),
            unresolved: false,
        }
    }

    /// A per-layer metric on a workload whose cycle does not go through
    /// that layer.
    fn not_measured() -> Value {
        Value {
            value: 0.0,
            spread: 0.0,
            cycles: Summary::of(&[0.0]),
            unresolved: false,
        }
    }
}

/// One workload's cycles and what was made of them.
pub struct Outcome {
    pub workload: &'static Workload,
    plan: Vec<Role>,
    cycles: Vec<(Role, Report)>,
    pub values: BTreeMap<&'static str, Value>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: Option<u64>,
}

impl Outcome {
    /// `name` as every cycle of `role` reported it.
    fn samples(&self, role: Role, name: &str) -> Vec<f64> {
        self.cycles
            .iter()
            .filter(|c| c.0 == role)
            .filter_map(|c| c.1.get(name))
            .collect()
    }

    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }
}

fn spawn(
    w: &Workload,
    role: Role,
    cycle: usize,
    o: &Options,
    root: &Path,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    // Input directories are named after the workload that owns them.
    let name = if role == Role::Warmup {
        w.input_dir
    } else {
        w.name
    };
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", name, "--root"])
        .arg(root)
        .args(["--seed", &o.seed.to_string(), "--cycle", &cycle.to_string()]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    if role == Role::Traced {
        cmd.args(["--trace", "1"]);
    }
    // Pinned, not inherited: thread count, kernel choice, scratch space.
    let threads = if role == Role::TwoThreads { "2" } else { "1" };
    let out = cmd
        .env("LSHDDP_THREADS", threads)
        .env("TMPDIR", root.join("tmp"))
        .env_remove("LSHDDP_KERNEL")
        .env_remove("LSHDDP_TRACE")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting cycle {cycle} of {}: {e}", w.name))?;
    let report = Report::parse(&String::from_utf8_lossy(&out.stdout))?;
    if report.attempted == 0 {
        return Err(format!(
            "cycle {cycle} of {} reported nothing ({})",
            w.name, out.status
        ));
    }
    Ok(report)
}

/// Runs the selected workloads; `Err` only when the benchmark itself
/// cannot run (no inputs, no child).
pub fn run(o: &Options) -> Result<Vec<Outcome>, String> {
    let sizes = Sizes::of(o.smoke);
    let root = std::env::current_dir()
        .map_err(|e| format!("working directory: {e}"))?
        .join(ROOT);
    std::fs::create_dir_all(root.join("tmp")).map_err(|e| format!("creating {ROOT}: {e}"))?;
    let selected: Vec<&'static Workload> = match o.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut generated: Vec<&str> = Vec::new();
    let started = std::time::Instant::now();
    for w in &selected {
        if !generated.contains(&w.input_dir) {
            inputs::generate(w, &sizes, o.seed, &root.join(w.input_dir))?;
            generated.push(w.input_dir);
        }
    }
    eprintln!(
        "inputs for seed {} written in {:.1} s",
        o.seed,
        started.elapsed().as_secs_f64()
    );

    let mut outcomes: Vec<Outcome> = selected
        .iter()
        .map(|w| Outcome {
            workload: w,
            plan: plan(w, o),
            cycles: Vec::new(),
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digest: None,
        })
        .collect();
    let longest = outcomes.iter().map(|out| out.plan.len()).max().unwrap_or(0);
    for cycle in 0..longest {
        for out in &mut outcomes {
            if let Some(&role) = out.plan.get(cycle) {
                let report = spawn(out.workload, role, cycle, o, &root)?;
                out.cycles.push((role, report));
            }
        }
    }
    for out in &mut outcomes {
        conclude(out, o);
    }
    Ok(outcomes)
}

/// Cross-cycle checks and the reported value of every metric.
fn conclude(out: &mut Outcome, o: &Options) {
    let w = out.workload;
    let name = w.name;
    for (_, r) in &out.cycles {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.failures.extend(r.failures.iter().cloned());
    }
    // The same input must give the same bits in every cycle, whatever the
    // role: warm-up, traced, two-threaded, budgeted or resident.
    let digests: Vec<Option<u64>> = out.cycles.iter().map(|c| c.1.digest).collect();
    out.digest = digests[0];
    let same = digests.iter().all(|d| d.is_some() && *d == digests[0]);
    out.check(same, || {
        format!("{name}: digests differ between cycles: {digests:x?}")
    });
    for exact in spec::EXACT {
        let seen: Vec<Option<f64>> = out.cycles.iter().map(|c| c.1.get(exact)).collect();
        let same = seen.iter().all(|v| v.is_some() && *v == seen[0]);
        out.check(same, || {
            format!("{name}: {exact} differs between cycles: {seen:?}")
        });
    }

    let two = out.samples(Role::TwoThreads, "job_s");
    if !two.is_empty() {
        eprintln!(
            "closure {name}: on two worker threads job_s {:.3} (on one {:.3}), reducers stalled \
             at the admission gate for {:.3} s in all",
            stats::median(&two),
            stats::median(&out.samples(Role::Baseline, "job_s")),
            stats::median(&out.samples(Role::TwoThreads, "mapreduce.stall_s")),
        );
    }
    for m in spec::metrics(o.traced) {
        let value = if !w.measures(m.on) {
            Value::not_measured()
        } else if m.name == "obsv.trace_overhead_frac" {
            overhead(out, m)
        } else {
            // One worker thread cannot be refused at the admission gate.
            let stalls = m.name == "mapreduce.stall_s" && w.measures(spec::On::Budget);
            let role = match (o.traced, stalls) {
                (false, _) => Role::Measured,
                (true, false) => Role::Traced,
                (true, true) => Role::TwoThreads,
            };
            let cycles = out.samples(role, m.name);
            out.check(!cycles.is_empty(), || {
                format!("{name}: metric {} was not measured", m.name)
            });
            if cycles.is_empty() {
                Value::not_measured()
            } else {
                Value::of(m, &cycles)
            }
        };
        out.values.insert(m.name, value);
    }
}

/// Traced over untraced `job_s`, less one. Each traced cycle follows its
/// baseline cycle; when a pair says tracing made the job faster, or the
/// pairs lie further apart than the overhead is large, the run has not
/// resolved the overhead from the host's noise.
fn overhead(out: &Outcome, m: &Metric) -> Value {
    let base = out.samples(Role::Baseline, "job_s");
    let traced = out.samples(Role::Traced, "job_s");
    if base.is_empty() || base.len() != traced.len() {
        return Value::not_measured();
    }
    let pairs: Vec<f64> = traced.iter().zip(&base).map(|(t, b)| t / b - 1.0).collect();
    let cycles = Summary::of(&pairs);
    let value = stats::best_mean(&traced, spec::BEST_OF, false)
        / stats::best_mean(&base, spec::BEST_OF, false)
        - 1.0;
    Value {
        value,
        spread: m.spread(&pairs),
        unresolved: cycles.min <= 0.0 || cycles.max - cycles.min > value.abs(),
        cycles,
    }
}

/// Whether the in-run spread of `m` is too wide to gate on: the cycles its
/// reported value averages lie further apart than half the metric's bound.
pub fn unstable(m: &Metric, v: &Value) -> bool {
    m.bound.is_some_and(|b| v.spread > b / 2.0)
}

/// Prints every metric by name with its unit: the reported value, its
/// spread, then the cycles it was picked from. Returns whether any metric
/// is `unstable`.
pub fn print(outcomes: &[Outcome], o: &Options) -> bool {
    let mut any_unstable = false;
    for out in outcomes {
        let w = out.workload;
        println!("\n{} (seed {}): {}", w.name, o.seed, w.why);
        for m in spec::metrics(o.traced) {
            let v = &out.values[m.name];
            let c = &v.cycles;
            if o.traced {
                let tag = match (w.measures(m.on), v.unresolved) {
                    (false, _) => "  layer not on this workload's path".to_string(),
                    (true, true) => {
                        format!("  unresolved: cycles say {:+.4} and {:+.4}", c.min, c.max)
                    }
                    (true, false) => format!("  spread {:.1}% n={}", 100.0 * v.spread, c.n),
                };
                println!("  {:<32} {:>16.6} {:<6}{tag}", m.name, v.value, m.unit);
                continue;
            }
            let tag = if unstable(m, v) { "  unstable" } else { "" };
            any_unstable |= unstable(m, v);
            println!(
                "  {:<13} {:>12.4} {:<5} spread {:>5.1}% (bound {:.1}%) cycles: min {:<10.4} \
                 q1 {:<10.4} median {:<10.4} q3 {:<10.4} max {:<10.4} n={} iqr {:.1}%{tag}",
                m.name,
                v.value,
                m.unit,
                100.0 * v.spread,
                100.0 * m.bound.unwrap_or(0.0),
                c.min,
                c.q1,
                c.median,
                c.q3,
                c.max,
                c.n,
                100.0 * c.rel_iqr(),
            );
        }
        match out.digest {
            Some(d) => println!("  digest {} {d:016x}", w.name),
            None => println!("  digest {} none", w.name),
        }
        println!(
            "  operations: {} attempted, {} failed",
            out.attempted, out.failed
        );
        for f in &out.failures {
            println!("  FAILED: {f}");
        }
    }
    any_unstable
}

#[derive(Serialize)]
struct Reading {
    value: f64,
    unit: &'static str,
}

#[derive(Serialize)]
struct Verdict {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, Reading>,
}

/// The single-workload result line the benchmark contract asks for.
pub fn verdict_json(out: &Outcome, o: &Options) -> String {
    let metrics = spec::metrics(o.traced)
        .iter()
        .map(|m| {
            let value = out.values[m.name].value;
            (
                m.name,
                Reading {
                    value,
                    unit: m.unit,
                },
            )
        })
        .collect();
    let verdict = Verdict {
        correct: out.failed == 0,
        attempted: out.attempted.max(1),
        failed: out.failed,
        metrics,
    };
    serde_json::to_string(&verdict).expect("printing JSON cannot fail")
}

/// `ledger run`: returns the process exit code.
pub fn command(o: &Options) -> Result<i32, String> {
    if o.record && !Path::new(history::PATH).parent().is_some_and(Path::is_dir) {
        return Err(format!(
            "--record appends to {}: run it from the repository root",
            history::PATH
        ));
    }
    let outcomes = run(o)?;
    let any_unstable = print(&outcomes, o);
    if o.record {
        let traced = Options {
            traced: true,
            ..o.clone()
        };
        let layers = run(&traced)?;
        print(&layers, &traced);
        history::append(o, &outcomes, &layers)?;
    }
    if let (Some(_), [only]) = (o.workload, outcomes.as_slice()) {
        println!("{}", verdict_json(only, o));
    }
    let failed = outcomes.iter().any(|out| out.failed > 0);
    Ok(i32::from(failed || (o.strict && any_unstable)))
}

/// `ledger aa --sets N`: the whole untraced benchmark N times on one seed.
/// Timing medians must agree within half their bound; counts and digests
/// must agree exactly.
pub fn aa(o: &Options, sets: usize) -> Result<i32, String> {
    let mut runs = Vec::with_capacity(sets);
    for set in 0..sets {
        eprintln!("aa: set {} of {sets}", set + 1);
        runs.push(run(o)?);
    }
    let mut bad = runs.iter().flatten().any(|out| out.failed > 0);
    println!(
        "| workload | metric | {} | max pairwise diff | allowed |",
        set_headers(sets)
    );
    println!("|---|---|{}---|---|", "---|".repeat(sets));
    for (i, w) in runs[0].iter().map(|out| out.workload).enumerate() {
        for m in &spec::END_TO_END {
            let medians: Vec<f64> = runs.iter().map(|r| r[i].values[m.name].value).collect();
            let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = medians.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let diff = if lo == hi { 0.0 } else { (hi - lo) / lo.abs() };
            let allowed = if m.exact() {
                0.0
            } else {
                m.bound.unwrap_or(0.0) / 2.0
            };
            let ok = diff <= allowed;
            bad |= !ok;
            let cells: String = medians.iter().map(|v| format!(" {v:.4} |")).collect();
            println!(
                "| {} | {} ({}) |{cells} {:.2}% | {:.1}%{} |",
                w.name,
                m.name,
                m.unit,
                100.0 * diff,
                100.0 * allowed,
                if ok { "" } else { " EXCEEDED" },
            );
        }
        let digests: Vec<Option<u64>> = runs.iter().map(|r| r[i].digest).collect();
        let ok = digests.iter().all(|d| d.is_some() && *d == digests[0]);
        bad |= !ok;
        let cells: String = digests
            .iter()
            .map(|d| format!(" {:016x} |", d.unwrap_or(0)))
            .collect();
        println!(
            "| {} | digest |{cells} {} | equal |",
            w.name,
            if ok { "equal" } else { "DIFFERENT" }
        );
    }
    Ok(i32::from(bad))
}

fn set_headers(sets: usize) -> String {
    (1..=sets)
        .map(|s| format!("set {s}"))
        .collect::<Vec<_>>()
        .join(" | ")
}
