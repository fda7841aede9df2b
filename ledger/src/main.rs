//! `ledger`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! ledger run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!            [--smoke] [--strict] [--record]
//! ledger aa --sets N [--seed N] [--seconds S] [--smoke]
//! ledger manifest          # the text of BENCHMARK.json
//! ```
//!
//! Everything is measured from outside the program: by timing calls into
//! each crate's public functions and reading its public reports. See
//! `ledger/README.md` for the workloads, the metrics and the noise
//! protocol.

mod child;
mod fit;
mod history;
mod inputs;
mod probes;
mod run;
mod serve;
mod spans;
mod spec;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "usage: ledger run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--strict] [--record]\n       ledger aa --sets N [--seed N] \
                     [--seconds S] [--smoke]\nworkloads: fit-spatial fit-wide fit-budget serve-ingest";

/// Every flag of every subcommand; which ones a subcommand reads is its
/// own business.
struct Args {
    run: run::Options,
    sets: usize,
    root: PathBuf,
    cycle: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        run: run::Options {
            seed: spec::DEFAULT_SEED,
            seconds: spec::DEFAULT_SECONDS,
            workload: None,
            traced: false,
            smoke: false,
            strict: false,
            record: false,
        },
        sets: 3,
        root: PathBuf::from(run::ROOT),
        cycle: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.run.workload =
                    Some(spec::workload(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => a.run.seed = num(flag, value()?)?,
            "--seconds" => a.run.seconds = num(flag, value()?)?,
            "--trace" => a.run.traced = num::<u8>(flag, value()?)? != 0,
            "--sets" => a.sets = num(flag, value()?)?,
            "--root" => a.root = PathBuf::from(value()?),
            "--cycle" => a.cycle = num(flag, value()?)?,
            "--smoke" => a.run.smoke = true,
            "--strict" => a.run.strict = true,
            "--record" => a.run.record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(a.run.seconds >= 0.0 && a.run.seconds <= 3600.0) || a.sets == 0 {
        return Err("--seconds must be in [0, 3600] and --sets at least 1".into());
    }
    if a.run.record && a.run.traced {
        return Err("--record makes its own traced run; drop --trace".into());
    }
    Ok(a)
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((sub, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    if sub != "child" {
        // The parent fits the serve workload's base model itself.
        std::env::set_var("LSHDDP_THREADS", "1");
    }
    let code = parse(rest).and_then(|a| match sub.as_str() {
        "run" => run::command(&a.run),
        "aa" => run::aa(&a.run, a.sets),
        "manifest" => {
            print!("{}", spec::manifest());
            Ok(0)
        }
        // Internal: one cycle, spawned by `run`.
        "child" => {
            let w = a.run.workload.ok_or("child needs --workload")?;
            let ctx = child::Ctx {
                started,
                sizes: spec::Sizes::of(a.run.smoke),
                seed: a.run.seed,
                cycle: a.cycle,
                traced: a.run.traced,
                inputs: a.root.join(w.input_dir),
                scratch: a.root.join("tmp"),
                trace_file: a.root.join(format!("{}.trace.json", w.name)),
                spans: spans::Spans::new(a.run.traced, a.cycle),
            };
            Ok(child::run(w, ctx))
        }
        other => Err(format!("unknown subcommand {other:?}")),
    });
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
