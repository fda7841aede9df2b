//! Drives the built `ledger` at `--smoke` sizes, the way the benchmark
//! contract's driver does: one workload per invocation, result on the last
//! line of standard output.

use obsv::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["fit-spatial", "fit-wide", "fit-budget", "serve-ingest"];
const EXACT: [&str; 3] = ["ari", "dist_evals_m", "shuffle_mb"];

/// A working directory of this test's own: runs write `target/ledger`
/// under it, and tests run in parallel.
fn workdir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Run {
    stdout: String,
    verdict: Json,
}

fn ledger(dir: &PathBuf, workload: &str, trace: &str) -> Run {
    ledger_seeded(dir, workload, trace, "11")
}

fn ledger_seeded(dir: &PathBuf, workload: &str, trace: &str, seed: &str) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["run", "--smoke", "--workload", workload, "--seed", seed])
        .args(["--seconds", "1", "--trace", trace])
        .current_dir(dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{workload}: {stdout}");
    let verdict = json::parse(stdout.lines().last().unwrap()).unwrap();
    Run { stdout, verdict }
}

fn digest(run: &Run) -> String {
    let line = run
        .stdout
        .lines()
        .find(|l| l.trim_start().starts_with("digest "))
        .unwrap();
    line.split_whitespace().last().unwrap().to_string()
}

/// The manifest's metric rows as `(name, unit)`.
fn manifest_metrics(section: &str) -> Vec<(String, String)> {
    let manifest = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
    let rows = manifest.get(section).unwrap().as_arr().unwrap();
    let text = |row: &Json, key: &str| row.get(key).unwrap().as_str().unwrap().to_string();
    rows.iter()
        .map(|r| (text(r, "name"), text(r, "unit")))
        .collect()
}

/// Every metric of `section` is on the result line exactly once, with its
/// unit, and nothing else is.
fn assert_reports(run: &Run, section: &str) {
    let Json::Obj(top) = &run.verdict else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(top["correct"], Json::Bool(true));
    assert_eq!(top["failed"], Json::Num(0.0));
    assert!(top["attempted"].as_num().unwrap() >= 1.0);
    let Json::Obj(metrics) = &top["metrics"] else {
        panic!("metrics is not an object")
    };
    let expected = manifest_metrics(section);
    assert_eq!(metrics.len(), expected.len());
    let line = run.stdout.lines().last().unwrap();
    for (name, unit) in expected {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            m.get("unit").unwrap().as_str(),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value").unwrap().as_num().unwrap().is_finite(),
            "{name}"
        );
        assert_eq!(line.matches(&format!("\"{name}\":")).count(), 1, "{name}");
    }
}

#[test]
fn smoke_runs_repeat_their_counts_and_digests() {
    let dir = workdir("repeat");
    let mut digests = Vec::new();
    for w in WORKLOADS {
        let (a, b) = (ledger(&dir, w, "0"), ledger(&dir, w, "0"));
        assert_reports(&a, "end_to_end");
        assert_reports(&b, "end_to_end");
        for exact in EXACT {
            let value = |r: &Run| r.verdict.get("metrics").unwrap().get(exact).cloned();
            assert_eq!(value(&a), value(&b), "{w} {exact}");
        }
        assert_eq!(digest(&a), digest(&b), "{w}");
        // The seed draws the request streams, not what is fitted.
        let c = ledger_seeded(&dir, w, "0", "12");
        for count in ["dist_evals_m", "shuffle_mb"] {
            let value = |r: &Run| r.verdict.get("metrics").unwrap().get(count).cloned();
            assert_eq!(value(&a), value(&c), "{w} {count} across seeds");
        }
        assert_eq!(digest(&a), digest(&c), "{w} across seeds");
        digests.push(digest(&a));
    }
    assert_eq!(
        digests[1], digests[2],
        "fit-budget must reproduce fit-wide's bits"
    );
    assert_ne!(digests[0], digests[1]);
}

#[test]
fn traced_runs_emit_every_layer_metric_and_nested_spans() {
    let dir = workdir("traced");
    for w in WORKLOADS {
        let run = ledger(&dir, w, "1");
        assert_reports(&run, "per_layer");
        let metric = |name: &str| {
            let m = run.verdict.get("metrics").unwrap().get(name).unwrap();
            m.get("value").unwrap().as_num().unwrap()
        };
        // Only the budgeted workload may touch the spill tier, and a layer
        // off a workload's path reads 0 there.
        assert_eq!(metric("mapreduce.spill_mb") > 0.0, w == "fit-budget", "{w}");
        assert_eq!(
            metric("mapreduce.spill_write_mb_per_s") > 0.0,
            w == "fit-budget",
            "{w}"
        );
        let serves = w == "serve-ingest";
        for name in ["serve.near_p50_us", "ingest.compact_s", "dp-core.update_ms"] {
            assert_eq!(metric(name) > 0.0, serves, "{w} {name}");
        }
        for name in [
            "dp-core.pair_d2_ns",
            "lsh.signatures_s",
            "ddp.centralized_s",
        ] {
            assert_eq!(metric(name) > 0.0, !serves, "{w} {name}");
        }
        assert!(metric("mapreduce.reduce_s") > 0.0 && metric("lsh.buckets") > 0.0);

        let path = dir.join(format!("target/ledger/{w}.trace.json"));
        let trace = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let spans = trace.get("spans").unwrap().as_arr().unwrap();
        let own = trace.get("self_ns").unwrap().as_arr().unwrap();
        assert!(spans.len() > 20 && spans.len() == own.len(), "{w}");
        let field = |s: &Json, key: &str| s.get(key).unwrap().as_num().unwrap();
        for (s, own) in spans.iter().zip(own) {
            let (start, end) = (field(s, "start_ns"), field(s, "end_ns"));
            assert!(start <= end);
            let own = own.as_num().unwrap();
            assert!((0.0..=end - start).contains(&own));
            if let Some(p) = s.get("parent").unwrap().as_num() {
                let parent = &spans[p as usize];
                assert!(field(parent, "start_ns") <= start && end <= field(parent, "end_ns"));
            }
        }
    }
}

#[test]
fn refuses_unknown_workloads() {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["run", "--workload", "nope"])
        .current_dir(workdir("refuse"))
        .output()
        .unwrap();
    assert!(!out.status.success() && out.stdout.is_empty());
}
