//! End-to-end tracing: a full LSH-DDP run captured in-process must
//! produce the `(pipeline → job → phase → task)` span tree, and the
//! `--trace` CLI flag must write a chrome-tracing document that parses
//! and covers all four LSH-DDP MapReduce jobs down to task attempts.
//!
//! The in-process test also checks that the whole telemetry plane is
//! invisible in the results. It toggles process-global switches, some of
//! them one-way, so it runs with nothing else recording: the only other
//! test in this binary drives a subprocess.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};

mod support;

/// The four MapReduce jobs of the LSH-DDP pipeline (Algorithm 1 of the
/// paper), in launch order.
const LSH_DDP_JOBS: [&str; 4] = [
    "lsh/rho-local",
    "lsh/rho-aggregate",
    "lsh/delta-local",
    "lsh/delta-aggregate",
];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lshddp-trace-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn library_run_captures_pipeline_job_phase_task_tree() {
    use ddp::prelude::*;

    let ld = datasets::gaussian_mixture(2, 3, 60, 40.0, 1.0, 11);
    let ds = &ld.data;
    let dc = dp_core::cutoff::estimate_dc_exact(ds, 0.05);
    let lsh = LshDdp::with_accuracy(0.99, 8, 3, dc, 11).expect("valid LSH params");
    let off = lsh.run(ds, dc);

    // Everything on: span capture, the executor chunk observer, heap
    // accounting, and an exposition listener scraped throughout the run.
    obsv::enable_capture();
    obsv::clear_events();
    obsv::install_executor_metrics(obsv::global());
    obsv::alloc::enable_accounting();
    let exposer = obsv::Exposition::new()
        .source("lshddp", obsv::RegistryRef::Static(obsv::global()))
        .collector(|| obsv::snapshot_pool_stats(obsv::global()))
        .serve("127.0.0.1:0")
        .expect("bind exposition listener");
    let stop = AtomicBool::new(false);
    let (on, scrapes) = std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let mut scrapes = 0;
            while scrapes == 0 || !stop.load(Ordering::Relaxed) {
                let (status, body) = support::http_get(exposer.addr(), "/metrics");
                assert_eq!(status, 200);
                assert!(body.contains("lshddp_up{source="), "{body}");
                scrapes += 1;
            }
            scrapes
        });
        let on = lsh.run(ds, dc);
        stop.store(true, Ordering::Relaxed);
        (on, scraper.join().expect("scraper thread"))
    });
    drop(exposer);
    let events = obsv::drain_events();
    obsv::disable_capture();
    assert!(scrapes > 0);
    assert_eq!(
        off.result, on.result,
        "telemetry changed the pipeline's output"
    );

    let pipeline = events
        .iter()
        .find(|e| e.cat == "pipeline")
        .expect("pipeline span recorded");
    assert_eq!(pipeline.name, "lsh-ddp");

    // The two dataflow plans the pipeline runs appear as plan spans.
    for p in ["lsh/rho", "lsh/delta"] {
        assert!(
            events.iter().any(|e| e.cat == "plan" && e.name == p),
            "plan span {p} recorded"
        );
    }

    for job in LSH_DDP_JOBS {
        let j = events
            .iter()
            .find(|e| e.cat == "job" && e.name == job)
            .unwrap_or_else(|| panic!("job span {job} recorded"));
        // Every job nests inside the pipeline span's interval.
        assert!(
            j.start_ns >= pipeline.start_ns,
            "{job} starts inside pipeline"
        );
        assert!(
            j.start_ns + j.dur_ns <= pipeline.start_ns + pipeline.dur_ns,
            "{job} ends inside pipeline"
        );
        // ... and has map/reduce phases linked to it by parent id. The
        // delta-local stage reuses rho-local's shuffled partitions
        // (co-partitioned elision), so its map phase never runs.
        let elided = job == "lsh/delta-local";
        for phase in ["map", "reduce"] {
            let p = events
                .iter()
                .find(|e| e.cat == "phase" && e.name == format!("{phase}:{job}"));
            if phase == "map" && elided {
                assert!(p.is_none(), "elided {job} must not run a map phase");
                continue;
            }
            let p = p.unwrap_or_else(|| panic!("phase span {phase}:{job} recorded"));
            assert_eq!(p.parent, j.id, "{phase}:{job} is a child of its job");
        }
    }

    // Task attempts were recorded, parented under phases (possibly on
    // pool threads distinct from the submitting thread).
    let tasks: Vec<_> = events.iter().filter(|e| e.cat == "task").collect();
    assert!(!tasks.is_empty(), "task spans recorded");
    let phase_ids: std::collections::HashSet<u64> = events
        .iter()
        .filter(|e| e.cat == "phase")
        .map(|e| e.id)
        .collect();
    for t in &tasks {
        assert!(
            phase_ids.contains(&t.parent),
            "task {} parented under a phase",
            t.name
        );
    }
}

#[test]
fn cli_trace_flag_writes_valid_chrome_trace() {
    let points = tmp("trace-in.csv");
    let labels = tmp("trace-labels.csv");
    let trace = tmp("trace.json");
    let _ = std::fs::remove_file(&trace);

    let out = Command::new(env!("CARGO_BIN_EXE_lshddp"))
        .args([
            "generate",
            "--dataset",
            "s2",
            "--scale",
            "0.1",
            "--seed",
            "5",
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

    let out = Command::new(env!("CARGO_BIN_EXE_lshddp"))
        .args([
            "cluster",
            "--normalize",
            "--algorithm",
            "lsh",
            "--k",
            "15",
            "--seed",
            "5",
            "--trace",
        ])
        .arg(&trace)
        .arg("--input")
        .arg(&points)
        .arg("--out")
        .arg(&labels)
        .output()
        .expect("run cluster --trace");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("trace:"), "trace summary printed: {stderr}");

    let body = std::fs::read_to_string(&trace).expect("trace.json written");
    let doc = obsv::json::parse(&body).expect("trace.json parses as strict JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let named = |cat: &str, name: &str| {
        events.iter().any(|e| {
            e.get("cat").and_then(|v| v.as_str()) == Some(cat)
                && e.get("name").and_then(|v| v.as_str()) == Some(name)
        })
    };
    assert!(named("pipeline", "lsh-ddp"), "pipeline span exported");
    for job in LSH_DDP_JOBS {
        assert!(named("job", job), "job span {job} exported");
    }
    assert!(
        events
            .iter()
            .any(|e| e.get("cat").and_then(|v| v.as_str()) == Some("task")),
        "task attempt spans exported"
    );
    // Every event is a well-formed complete ("X") event.
    for e in events {
        assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(e.get("ts").and_then(|v| v.as_num()).is_some());
        assert!(e.get("dur").and_then(|v| v.as_num()).is_some());
    }
}
