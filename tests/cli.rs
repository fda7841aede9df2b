//! End-to-end tests of the `lshddp` CLI binary.

use std::path::PathBuf;
use std::process::Command;

mod support;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lshddp"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lshddp-cli-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("cluster"));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown subcommand"));
    assert!(text.contains("USAGE"));
}

#[test]
fn generate_dc_cluster_graph_round_trip() {
    let points = tmp("s2.csv");
    let labels = tmp("s2-labels.csv");
    let graph = tmp("s2-graph.csv");

    // generate
    let out = bin()
        .args([
            "generate",
            "--dataset",
            "s2",
            "--scale",
            "0.1",
            "--seed",
            "7",
            "--labels",
            "--out",
        ])
        .arg(&points)
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(points.exists());

    // dc
    let out = bin()
        .args(["dc", "--labeled", "--percentile", "0.05", "--input"])
        .arg(&points)
        .output()
        .expect("run dc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dc: f64 = String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("dc value");
    assert!(dc > 0.0);

    // cluster with LSH-DDP; the file has a label column.
    let out = bin()
        .args([
            "cluster",
            "--labeled",
            "--normalize",
            "--algorithm",
            "lsh",
            "--k",
            "15",
            "--seed",
            "7",
            "--stats",
            "--input",
        ])
        .arg(&points)
        .arg("--out")
        .arg(&labels)
        .output()
        .expect("run cluster");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ARI vs input labels"), "stdout: {text}");
    let width = dp_core::simd::Isa::detect();
    assert!(
        text.contains(&format!("kernels: {width}\n")),
        "stdout: {text}"
    );
    let label_lines = std::fs::read_to_string(&labels).expect("labels written");
    assert_eq!(label_lines.lines().count(), 500, "one label per point");

    // decision graph
    let out = bin()
        .args(["graph", "--labeled", "--normalize", "--input"])
        .arg(&points)
        .arg("--out")
        .arg(&graph)
        .output()
        .expect("run graph");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let gtext = std::fs::read_to_string(&graph).expect("graph written");
    assert!(gtext.starts_with("id,rho,delta,rectified"));
    assert_eq!(gtext.lines().count(), 501);
}

#[test]
fn cluster_exact_and_kernel_agree_on_easy_data() {
    let points = tmp("blobs.csv");
    // Generate an easy shaped set with labels.
    let out = bin()
        .args([
            "generate",
            "--dataset",
            "spirals",
            "--seed",
            "3",
            "--labels",
            "--out",
        ])
        .arg(&points)
        .output()
        .expect("run generate");
    assert!(out.status.success());

    for (algo, file) in [
        ("exact", "exact-labels.csv"),
        ("kernel", "kernel-labels.csv"),
    ] {
        let lpath = tmp(file);
        let out = bin()
            .args([
                "cluster",
                "--labeled",
                "--algorithm",
                algo,
                "--k",
                "2",
                "--percentile",
                "0.05",
                "--input",
            ])
            .arg(&points)
            .arg("--out")
            .arg(&lpath)
            .output()
            .expect("run cluster");
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        // Both algorithms should recover the spirals nearly perfectly.
        let ari_line = text
            .lines()
            .find(|l| l.contains("ARI"))
            .expect("ARI printed");
        let ari: f64 = ari_line.rsplit(' ').next().unwrap().parse().expect("ari");
        assert!(ari > 0.9, "{algo}: ARI = {ari}");
    }
}

#[test]
fn tune_recommends_grid_parameters() {
    let points = tmp("tune-in.csv");
    let out = bin()
        .args(["generate", "--dataset", "s2", "--scale", "0.2", "--out"])
        .arg(&points)
        .output()
        .expect("generate");
    assert!(out.status.success());
    let out = bin()
        .args(["tune", "--accuracy", "0.95", "--normalize", "--input"])
        .arg(&points)
        .output()
        .expect("run tune");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("recommended: --m"), "stdout: {text}");
    assert!(text.lines().count() >= 8, "grid table printed");
}

#[test]
fn kmeans_requires_k() {
    let points = tmp("kmeans-in.csv");
    let _ = bin()
        .args(["generate", "--dataset", "moons", "--out"])
        .arg(&points)
        .output()
        .expect("generate");
    let out = bin()
        .args(["cluster", "--algorithm", "kmeans", "--input"])
        .arg(&points)
        .arg("--out")
        .arg(tmp("kmeans-labels.csv"))
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--k is required"));
}

#[test]
fn missing_input_is_a_clean_error() {
    let out = bin()
        .args([
            "cluster",
            "--input",
            "/nonexistent/nope.csv",
            "--out",
            "/tmp/x",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("reading"));
}

#[test]
fn non_finite_input_is_a_clean_error() {
    let points = tmp("nan-in.csv");
    let out = bin()
        .args(["generate", "--dataset", "s2", "--scale", "0.06", "--out"])
        .arg(&points)
        .output()
        .expect("generate");
    assert!(out.status.success());
    let mut text = std::fs::read_to_string(&points).expect("points written");
    let line = text.lines().count() + 1;
    text.push_str("nan,1.0\n");
    std::fs::write(&points, text).expect("append a NaN row");

    let out = bin()
        .args(["cluster", "--k", "15", "--input"])
        .arg(&points)
        .arg("--out")
        .arg(tmp("nan-labels.csv"))
        .output()
        .expect("run cluster");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a NaN row must be rejected");
    assert!(stderr.contains(&format!("line {line}")), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// Per-mille fault rates past their range exit 1 naming the flag (or the
/// io-fault-plan key), instead of panicking or wrapping silently.
#[test]
fn out_of_range_fault_rates_are_clean_errors() {
    let points = tmp("fault-rates.csv");
    let out = bin()
        .args(["generate", "--dataset", "s2", "--scale", "0.06", "--out"])
        .arg(&points)
        .output()
        .expect("generate");
    assert!(out.status.success());
    for (args, named) in [
        (
            &["--algorithm", "lsh", "--fault-rate", "1000"][..],
            "--fault-rate",
        ),
        (
            &["--algorithm", "basic", "--straggler-rate", "1001"],
            "--straggler-rate",
        ),
        (
            &["--algorithm", "exact", "--io-fault-plan", "eio=70000"],
            "`eio`",
        ),
    ] {
        let out = bin()
            .args(["cluster", "--k", "15"])
            .args(args)
            .arg("--input")
            .arg(&points)
            .arg("--out")
            .arg(tmp("fault-rates-labels.csv"))
            .output()
            .expect("run cluster");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// One row, and three identical rows: without `--dc` there is no `d_c` to
/// estimate (one row) or the estimate is 0 (duplicates), and every command
/// that needs one says so; with `--dc 1.0` each makes one cluster.
#[test]
fn degenerate_inputs_need_dc_then_make_one_cluster() {
    let commands: [&[&str]; 8] = [
        &["dc"],
        &["cluster", "--algorithm", "exact"],
        &["cluster", "--algorithm", "basic"],
        &["cluster", "--algorithm", "kernel"],
        &["cluster", "--algorithm", "lsh"],
        &["cluster", "--algorithm", "eddpc"],
        &["graph", "--algorithm", "exact"],
        &["fit"],
    ];
    for (name, rows) in [
        ("one-row", "1.0,2.0\n"),
        ("same-rows", &"1.0,2.0\n".repeat(3)),
    ] {
        let points = tmp(&format!("{name}.csv"));
        std::fs::write(&points, rows).expect("write input");
        for args in commands {
            let run = |dc: &[&str]| {
                bin()
                    .args(args)
                    .args(dc)
                    .arg("--input")
                    .arg(&points)
                    .arg("--out")
                    .arg(tmp(&format!("{name}-out")))
                    .output()
                    .expect("run")
            };
            let out = run(&[]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {stderr}");
            assert!(stderr.contains("--dc"), "{name} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");

            let out = run(&["--dc", "1.0"]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{name} {args:?}: {stderr}");
            if matches!(args[0], "cluster" | "fit") {
                assert!(stdout.contains(" 1 clusters"), "{name} {args:?}: {stdout}");
            }
        }
    }
}

/// `stats` with a live listener and an SLO monitor: the endpoints answer
/// while the process lingers, and `/metrics` is well-formed Prometheus
/// text carrying the SLO gauges and a non-zero per-batch heap peak.
#[test]
fn stats_serves_live_metrics_while_it_lingers() {
    use std::io::BufRead;

    let points = tmp("metrics-in.csv");
    let model = tmp("metrics-model.bin");
    let out = bin()
        .args(["generate", "--dataset", "s2", "--scale", "0.1", "--out"])
        .arg(&points)
        .output()
        .expect("generate");
    assert!(out.status.success());
    let out = bin()
        .args(["fit", "--normalize", "--k", "15", "--seed", "5", "--input"])
        .arg(&points)
        .arg("--out")
        .arg(&model)
        .output()
        .expect("fit");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut child = bin()
        .args(["stats", "--clients", "4", "--slo-ms", "50"])
        .args(["--metrics-addr", "127.0.0.1:0", "--linger", "3000"])
        .arg("--model")
        .arg(&model)
        .arg("--input")
        .arg(&points)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn stats");
    let mut stderr = std::io::BufReader::new(child.stderr.take().expect("stderr")).lines();
    let mut next_line = |prefix: &str| {
        stderr
            .by_ref()
            .map(|l| l.expect("stderr line"))
            .find_map(|l| l.strip_prefix(prefix).map(str::to_string))
            .unwrap_or_else(|| panic!("no {prefix:?} line on stderr"))
    };
    let addr = next_line("metrics: listening on http://");
    let addr: std::net::SocketAddr = addr
        .strip_suffix("/metrics")
        .and_then(|a| a.parse().ok())
        .expect("listener address");
    // Every query is answered before the process starts to linger.
    next_line("metrics: lingering");

    assert_eq!(support::http_get(addr, "/healthz").0, 200);
    let (status, json) = support::http_get(addr, "/metrics.json");
    assert_eq!(status, 200);
    obsv::json::parse(&json).expect("/metrics.json parses");
    let (status, prom) = support::http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(child.wait().expect("stats exits").success());

    let mut typed = std::collections::HashSet::new();
    let mut samples = std::collections::HashMap::new();
    for line in prom.lines().filter(|l| !l.is_empty()) {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (family, kind) = decl.split_once(' ').expect("TYPE line");
            assert!(["counter", "gauge", "histogram"].contains(&kind), "{line}");
            typed.insert(family.to_string());
            continue;
        }
        if line.starts_with("# HELP ") {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("`name{labels} value`");
        let value: f64 = value.parse().expect("sample value");
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                assert!(labels.ends_with('}'), "{line}");
                name
            }
            None => series,
        };
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "{line}"
        );
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| name.strip_suffix(s).filter(|f| typed.contains(*f)))
            .unwrap_or(name);
        assert!(typed.contains(family), "{name} has no preceding # TYPE");
        samples.insert(name.to_string(), value);
    }
    assert!(prom.contains("# TYPE serve_slo_degraded gauge"), "{prom}");
    assert!(samples.contains_key("serve_slo_fast_burn_milli"), "{prom}");
    assert!(samples["serve_mem_batch_peak_bytes"] > 0.0, "{prom}");
}
