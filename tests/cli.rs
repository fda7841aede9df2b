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

/// A NaN or ±inf row is refused by every subcommand that reads points:
/// one error line naming its line and column, no panic, and no output
/// file or WAL left behind.
#[test]
fn non_finite_input_is_a_clean_error() {
    let clean = tmp("nan-clean.csv");
    let model = tmp("nan-model.bin");
    let out = bin()
        .args(["generate", "--dataset", "s2", "--scale", "0.06", "--out"])
        .arg(&clean)
        .output()
        .expect("generate");
    assert!(out.status.success());
    let out = bin()
        .args(["fit", "--k", "15", "--input"])
        .arg(&clean)
        .arg("--out")
        .arg(&model)
        .output()
        .expect("fit");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&clean).expect("points written");
    let line = text.lines().count() + 1;

    let (out_file, wal) = (tmp("nan-out"), tmp("nan-out.wal"));
    for (row, shown, column) in [("nan,1.0", "NaN", 1), ("1.0,inf", "inf", 2)] {
        let points = tmp(&format!("non-finite-{column}.csv"));
        std::fs::write(&points, format!("{text}{row}\n")).expect("append the row");
        let mut cluster = bin();
        cluster.args(["cluster", "--k", "15"]);
        let [mut query, mut serve, mut ingest] = ["query", "serve", "ingest"].map(|sub| {
            let mut cmd = bin();
            cmd.args([sub, "--model"]).arg(&model);
            cmd
        });
        ingest.arg("--wal").arg(&wal);
        for cmd in [&mut cluster, &mut query, &mut serve, &mut ingest] {
            std::fs::remove_file(&out_file).ok();
            std::fs::remove_file(&wal).ok();
            cmd.arg("--input").arg(&points).arg("--out").arg(&out_file);
            let out = cmd.output().expect("run the subcommand");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{cmd:?} accepted {row:?}");
            let want = format!("line {line}: non-finite value {shown} in column {column}");
            let lines: Vec<&str> = stderr.lines().collect();
            assert!(
                matches!(lines[..], [e] if e.starts_with("error: ") && e.ends_with(&want)),
                "{cmd:?}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{cmd:?}: {stderr}");
            assert!(!out_file.exists(), "{cmd:?} wrote its output");
            assert!(!wal.exists(), "{cmd:?} created a WAL");
        }
    }
}

/// Per-mille fault rates past their range exit 1 naming the `--faults`
/// key, instead of panicking or wrapping silently.
#[test]
fn out_of_range_fault_rates_are_clean_errors() {
    let points = tmp("fault-specs.csv");
    let out = bin()
        .args(["generate", "--dataset", "s2", "--scale", "0.06", "--out"])
        .arg(&points)
        .output()
        .expect("generate");
    assert!(out.status.success());
    for (args, named) in [
        (
            &["--algorithm", "lsh", "--faults", "fail=1000"][..],
            "`fail`",
        ),
        (
            &["--algorithm", "basic", "--faults", "seed=3,straggle=1001"],
            "`straggle`",
        ),
        (&["--algorithm", "exact", "--faults", "eio=70000"], "`eio`"),
    ] {
        let out = bin()
            .args(["cluster", "--k", "15"])
            .args(args)
            .arg("--input")
            .arg(&points)
            .arg("--out")
            .arg(tmp("fault-specs-labels.csv"))
            .output()
            .expect("run cluster");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// `query` and `serve` read points through the reader `cluster` uses: a
/// `#` comment line is skipped and a trailing label column is dropped, so
/// the annotated file answers byte for byte like the bare one.
#[test]
fn query_and_serve_skip_comments_and_label_columns() {
    let (bare, labeled, model) = (
        tmp("reader-bare.csv"),
        tmp("reader-labeled.csv"),
        tmp("reader-model.bin"),
    );
    let out = bin()
        .args(["generate", "--dataset", "s2", "--scale", "0.06", "--labels"])
        .arg("--out")
        .arg(&labeled)
        .output()
        .expect("generate");
    assert!(out.status.success());
    let rows = std::fs::read_to_string(&labeled).expect("labeled rows");
    let stripped: String = rows
        .lines()
        .map(|l| format!("{}\n", &l[..l.rfind(',').expect("a label column")]))
        .collect();
    std::fs::write(&bare, stripped).expect("bare rows");
    std::fs::write(&labeled, format!("# x,y,label\n{rows}")).expect("annotated rows");
    let out = bin()
        .args(["fit", "--k", "15", "--input"])
        .arg(&bare)
        .arg("--out")
        .arg(&model)
        .output()
        .expect("fit");
    assert!(out.status.success());
    for sub in ["query", "serve"] {
        let answers = [&bare, &labeled].map(|input| {
            let answers = tmp(&format!("reader-{sub}.out"));
            let out = bin()
                .arg(sub)
                .arg("--model")
                .arg(&model)
                .arg("--input")
                .arg(input)
                .arg("--out")
                .arg(&answers)
                .output()
                .expect("run");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{sub} {input:?}: {stderr}");
            std::fs::read(&answers).expect("answers written")
        });
        assert!(!answers[0].is_empty());
        assert_eq!(answers[0], answers[1], "{sub}");
    }
}

/// `--samples 0` and a `--percentile` outside `(0, 1]` leave no `d_c` to
/// estimate: `dc`, `cluster` and `fit` exit 1 naming the flag.
#[test]
fn bad_dc_sampling_flags_are_clean_errors() {
    let points = tmp("dcflags.csv");
    let out = bin()
        .args(["generate", "--dataset", "s2", "--scale", "0.06", "--out"])
        .arg(&points)
        .output()
        .expect("generate");
    assert!(out.status.success());
    let [points, out_path] = [&points, &tmp("dcflags-out")].map(|p| p.display().to_string());
    let bad = [
        ("--samples", "0"),
        ("--percentile", "0"),
        ("--percentile", "1.5"),
        ("--percentile", "-0.1"),
        ("--percentile", "NaN"),
    ];
    for cmd in ["dc", "cluster", "fit"] {
        for (flag, value) in bad {
            let out = bin()
                .args([cmd, "--input", &points, "--out", &out_path, flag, value])
                .output()
                .expect("run");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let case = format!("{cmd} {flag} {value}");
            assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
            assert!(stderr.contains(flag), "{case}: {stderr}");
            assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        }
    }
}

/// `--k 0` asks for no clusters: `cluster`, `fit` and `compact` exit 1
/// naming the flag instead of panicking in peak selection.
#[test]
fn zero_k_is_a_clean_error() {
    let (points, model) = (tmp("k0.csv"), tmp("k0-model.bin"));
    let out = bin()
        .args(["generate", "--dataset", "s2", "--scale", "0.06", "--out"])
        .arg(&points)
        .output()
        .expect("generate");
    assert!(out.status.success());
    let out = bin()
        .args(["fit", "--k", "15", "--input"])
        .arg(&points)
        .arg("--out")
        .arg(&model)
        .output()
        .expect("fit");
    assert!(out.status.success());
    let [points, model, labels] =
        [&points, &model, &tmp("k0-out")].map(|p| p.display().to_string());
    for args in [
        &["cluster", "--input", &points, "--out", &labels][..],
        &["fit", "--input", &points, "--out", &labels],
        &["compact", "--model", &model, "--out", &labels],
    ] {
        let out = bin().args(args).args(["--k", "0"]).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("--k"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// The exact engine shows up in a folded profile: its `rho` and `delta`
/// phases, then the decision step's `centralized` span with its `select`
/// and `assign` children (frames are `category:name`).
#[test]
fn exact_cluster_profile_folds_the_decision_step() {
    let (points, profile) = (tmp("profile.csv"), tmp("profile.folded"));
    let out = bin()
        .args(["generate", "--dataset", "s2", "--scale", "0.06", "--out"])
        .arg(&points)
        .output()
        .expect("generate");
    assert!(out.status.success());
    let out = bin()
        .args(["cluster", "--algorithm", "exact", "--k", "2", "--input"])
        .arg(&points)
        .arg("--out")
        .arg(tmp("profile-labels.csv"))
        .arg("--profile")
        .arg(&profile)
        .output()
        .expect("run cluster --profile");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("spans folded"), "{stderr}");
    let folded = std::fs::read_to_string(&profile).expect("profile written");
    for stack in [
        "dp:rho ",
        "dp:delta ",
        "ddp:centralized;ddp:select ",
        "ddp:centralized;ddp:assign ",
    ] {
        assert!(
            folded.lines().any(|l| l.starts_with(stack)),
            "{stack}: {folded}"
        );
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

/// The model lifecycle through the CLI: `fit`, one WAL-logged `ingest`,
/// then `compact --stats`. The compacted artifact is the Eq. 1 / Eq. 2
/// definition over the live points, its refit is the four one-block
/// Basic-DDP jobs, and the folded log is retired.
#[test]
fn fit_ingest_compact_refits_the_live_points_exactly() {
    let (points, more) = (tmp("life-base.csv"), tmp("life-more.csv"));
    let (model, compacted, wal) = (
        tmp("life-model.bin"),
        tmp("life-compacted.bin"),
        tmp("life.wal"),
    );
    std::fs::remove_file(&wal).ok();
    for (seed, path) in [("7", &points), ("8", &more)] {
        let out = bin()
            .args(["generate", "--dataset", "s2", "--scale", "0.06"])
            .args(["--seed", seed, "--out"])
            .arg(path)
            .output()
            .expect("generate");
        assert!(out.status.success());
    }
    let run = |args: &[&str]| {
        let out = bin().args(args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let [points_s, more_s, model_s, compacted_s, wal_s] =
        [&points, &more, &model, &compacted, &wal].map(|p| p.display().to_string());
    run(&["fit", "--k", "15", "--input", &points_s, "--out", &model_s]);
    run(&[
        "ingest", "--delete", "3", "--model", &model_s, "--input", &more_s, "--wal", &wal_s,
    ]);
    let stats = run(&[
        "compact",
        "--stats",
        "--model",
        &model_s,
        "--wal",
        &wal_s,
        "--out",
        &compacted_s,
    ]);
    for job in [
        "basic/rho-local",
        "basic/rho-aggregate",
        "basic/delta-local",
        "basic/delta-aggregate",
    ] {
        assert!(stats.contains(job), "stdout: {stats}");
    }
    assert!(!stats.contains("staleness:"), "stdout: {stats}");
    assert_eq!(
        std::fs::metadata(&wal).expect("wal").len(),
        0,
        "WAL retired"
    );

    // Live points: the base rows minus key 3, then the inserts.
    let base = serve::ClusterModel::load(&model_s).expect("base model");
    let c = serve::ClusterModel::load(&compacted_s).expect("compacted model");
    let dim = base.dim();
    let inserted = datasets::io::read_csv(&more, false).expect("inserts").data;
    let mut live = base.coords().to_vec();
    live.drain(3 * dim..4 * dim);
    live.extend_from_slice(inserted.as_flat());
    assert_eq!(c.coords(), &live[..]);
    let exact = dp_core::compute_exact(&dp_core::Dataset::from_flat(dim, live), c.dc());
    assert_eq!(c.rhos(), &exact.rho[..]);
    assert_eq!(c.deltas(), &exact.delta[..]);
    assert_eq!(c.upslopes(), &exact.upslope[..]);
}

/// Every point-reading subcommand against hostile inputs. Each case either
/// exits 1 with exactly one stderr line, or exits 0 without a non-finite
/// value in what it prints or writes; none panics. The exit codes are
/// pinned: an empty file or a short row fails to read; one row or only
/// duplicates leave no `d_c` to estimate, yet a fitted model answers
/// them; an extra column or a `1e308` row is data.
#[test]
fn hostile_inputs_fail_in_one_line_or_answer_finitely() {
    let base = tmp("hostile-base.csv");
    let model = tmp("hostile-model.bin");
    let out = bin()
        .args(["generate", "--dataset", "s2", "--scale", "0.06", "--out"])
        .arg(&base)
        .output()
        .expect("generate");
    assert!(out.status.success());
    let out = bin()
        .args(["fit", "--k", "5", "--input"])
        .arg(&base)
        .arg("--out")
        .arg(&model)
        .output()
        .expect("fit");
    assert!(out.status.success());
    let rows = std::fs::read_to_string(&base).expect("points written");
    let extra: String = rows.lines().map(|l| format!("{l},7\n")).collect();

    // (input, contents, exit code of the d_c-estimating commands, of the
    // model-reading ones)
    let inputs = [
        ("empty", String::new(), 1, 1),
        ("one-row", "1.0,2.0\n".to_string(), 1, 0),
        ("duplicates", "1.0,2.0\n".repeat(50), 1, 0),
        ("short-row", format!("{rows}1.0\n"), 1, 1),
        ("extra-column", extra, 0, 0),
        ("huge", format!("{rows}1e308,1e308\n"), 0, 0),
    ];
    let estimating: [&[&str]; 6] = [
        &["cluster", "--k", "3"],
        &["cluster", "--auto"],
        &["graph"],
        &["dc"],
        &["tune"],
        &["fit", "--k", "3"],
    ];
    let non_finite = |text: &str| {
        text.split(|c: char| c.is_whitespace() || ",:=()[]".contains(c))
            .any(|t| t.parse::<f64>().is_ok_and(|v| !v.is_finite()))
    };
    for (name, contents, estimating_code, model_code) in inputs {
        let points = tmp(&format!("hostile-{name}.csv"));
        std::fs::write(&points, contents).expect("write input");
        let with_model = ["query", "serve", "stats", "ingest"].map(|sub| [sub, "--model"]);
        let cases = estimating
            .iter()
            .map(|args| (args.to_vec(), estimating_code))
            .chain(with_model.iter().map(|args| (args.to_vec(), model_code)));
        for (args, code) in cases {
            let written = tmp(&format!("hostile-{name}-out"));
            std::fs::remove_file(&written).ok();
            let mut cmd = bin();
            cmd.args(&args);
            if args.contains(&"--model") {
                cmd.arg(&model);
            }
            let out = cmd
                .arg("--input")
                .arg(&points)
                .arg("--out")
                .arg(&written)
                .output()
                .expect("run the subcommand");
            let (stdout, stderr) = (
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr),
            );
            let case = format!("{name} {args:?}: {stderr}");
            assert_eq!(out.status.code(), Some(code), "{case}");
            assert!(!stderr.contains("panicked"), "{case}");
            if code == 1 {
                assert_eq!(stderr.lines().count(), 1, "{case}");
                continue;
            }
            assert!(!non_finite(&stdout), "{case}{stdout}");
            if matches!(args[0], "cluster" | "graph" | "query" | "serve") {
                let text = std::fs::read_to_string(&written).expect("output written");
                assert!(!non_finite(&text), "{case}");
            }
        }
    }
}
