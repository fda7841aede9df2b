//! End-to-end tests of the `lshddp` CLI binary.

use std::path::PathBuf;
use std::process::Command;

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
