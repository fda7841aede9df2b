//! Executor correctness: identical pipeline results under any
//! `LSHDDP_THREADS`, work stealing under skew, and panic propagation
//! without wedging the pool.
//!
//! The pool reads `LSHDDP_THREADS` once at initialization, so the
//! cross-thread-count tests re-execute this test binary as a subprocess
//! per thread count (`#[ignore]`d helper tests selected with `--exact
//! --include-ignored`) and compare the digests the helpers print.

use ddp::{LshDdp, PipelineConfig};
use dp_core::Dataset;
use mapreduce::{Emitter, FnMapper, FnReducer, JobBuilder, JobConfig};
use rayon::prelude::*;
use std::process::Command;

/// FNV-1a over a byte stream; enough to compare run outcomes textually.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Points per blob of the small input: every LSH bucket stays under
/// `AUTO_MIN_POINTS`, on the pairwise kernels.
const SMALL: u64 = 60;
/// Points per blob of the large input: whole-blob buckets clear
/// `AUTO_MIN_POINTS` and take the spatial index.
const LARGE: u64 = 400;

fn blob_dataset(n_per: u64) -> Dataset {
    let mut ds = Dataset::new(2);
    // Deterministic pseudo-random blobs (no RNG dependency in the digest).
    for (cx, cy) in [(0.0, 0.0), (12.0, 1.0), (5.0, 10.0)] {
        for i in 0..n_per {
            let jx = ((i.wrapping_mul(2654435761) >> 8) % 2000) as f64 / 1000.0 - 1.0;
            let jy = ((i.wrapping_mul(40503) >> 4) % 2000) as f64 / 1000.0 - 1.0;
            ds.push(&[cx + jx, cy + jy]);
        }
    }
    ds
}

/// Pinned task counts: `JobConfig::default()` scales with the thread
/// count, which would legitimately change per-task metrics across
/// subprocesses; determinism across thread counts is claimed at equal
/// task counts.
fn pinned_pipeline() -> PipelineConfig {
    PipelineConfig {
        map_tasks: 4,
        reduce_tasks: 4,
        fault: None,
        fault_stage: None,
        chaos: None,
        disable_elision: false,
        checkpoints: false,
        mem_budget: None,
    }
}

/// Digest of a wordcount run (output + shuffle metrics) and a full
/// LSH-DDP pipeline run (rho/delta/upslope bits + per-job metrics).
fn run_digest() -> u64 {
    run_digest_on(SMALL)
}

fn run_digest_on(n_per: u64) -> u64 {
    let mut transcript = String::new();

    let m = FnMapper::new(|_k: u64, line: String, out: &mut Emitter<String, u64>| {
        for w in line.split_whitespace() {
            out.emit(w.to_string(), 1);
        }
    });
    let r = FnReducer::new(|k: &String, vs: Vec<u64>, out: &mut Emitter<String, u64>| {
        out.emit(k.clone(), vs.into_iter().sum());
    });
    let input: Vec<(u64, String)> = (0..200)
        .map(|i| (i, format!("w{} w{} shared", i % 17, i % 5)))
        .collect();
    let (mut wc, wm) = JobBuilder::new("wc", m, r)
        .config(JobConfig::uniform(4))
        .run(input);
    wc.sort();
    transcript.push_str(&format!(
        "wc:{wc:?};{};{};{}\n",
        wm.shuffle_records, wm.shuffle_bytes, wm.reduce_input_groups
    ));

    let ds = blob_dataset(n_per);
    let dc = 0.8;
    let lsh = LshDdp::with_accuracy(0.99, 10, 3, dc, 42)
        .expect("valid params")
        .with_pipeline(pinned_pipeline());
    // Which kernels the run takes is a property of its bucket sizes.
    let multi = lsh::MultiLsh::new(ds.dim(), &lsh.config().params, lsh.config().seed);
    let tables = lsh::bucket_tables(&multi, ds.iter().map(|(_, p)| p));
    let mut sizes = tables.iter().flat_map(|t| t.values()).map(Vec::len);
    let indexed = dp_core::local::AUTO_MIN_POINTS;
    if n_per == SMALL {
        assert!(sizes.all(|s| s < indexed), "a small-input bucket indexes");
    } else {
        let (lo, hi) = sizes.fold((usize::MAX, 0), |(lo, hi), s| (lo.min(s), hi.max(s)));
        assert!(lo < indexed && hi >= indexed, "buckets span {lo}..={hi}");
    }
    let report = lsh.run(&ds, dc);
    transcript.push_str(&format!("rho:{:?}\n", report.result.rho));
    transcript.push_str(&format!(
        "delta:{:?}\n",
        report
            .result
            .delta
            .iter()
            .map(|d| d.to_bits())
            .collect::<Vec<_>>()
    ));
    transcript.push_str(&format!("upslope:{:?}\n", report.result.upslope));
    transcript.push_str(&format!("distances:{}\n", report.distances));
    for j in &report.jobs {
        transcript.push_str(&format!(
            "{}:{};{};{}\n",
            j.name, j.shuffle_records, j.shuffle_bytes, j.reduce_input_groups
        ));
    }
    fnv1a(transcript.as_bytes())
}

fn run_helper(name: &str, threads: &str) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", name, "--include-ignored", "--nocapture"])
        .env("LSHDDP_THREADS", threads)
        .output()
        .expect("spawn helper subprocess");
    assert!(
        out.status.success(),
        "helper {name} with LSHDDP_THREADS={threads} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn extract(output: &str, key: &str) -> String {
    // libtest may print the helper's output on the same line as its own
    // "test ... " prefix, so search within lines rather than at starts.
    output
        .lines()
        .find_map(|l| l.split(key).nth(1))
        .unwrap_or_else(|| panic!("helper output missing {key}:\n{output}"))
        .split_whitespace()
        .next()
        .unwrap_or_default()
        .to_string()
}

// ---- subprocess helpers (run with --exact --include-ignored) -----------

#[test]
#[ignore = "helper: spawned as a subprocess with a pinned LSHDDP_THREADS"]
fn helper_print_digest() {
    println!("DIGEST={:016x}", run_digest());
}

#[test]
#[ignore = "helper: spawned as a subprocess with a pinned LSHDDP_THREADS"]
fn helper_print_digest_indexed() {
    println!("IDXDIGEST={:016x}", run_digest_on(LARGE));
}

#[test]
#[ignore = "helper: spawned as a subprocess with a pinned LSHDDP_THREADS"]
fn helper_work_stealing_under_skew() {
    use std::collections::HashMap;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    assert!(
        rayon::current_num_threads() >= 2,
        "helper requires a multi-thread pool"
    );
    // 64 tiny tasks, the first of which sleeps. With chunked
    // work-stealing the other threads must drain the quick tasks while
    // the slow one is stuck; a contiguous-slab scheduler would leave the
    // slow thread with a quarter of the work.
    let per_thread: Mutex<HashMap<ThreadId, usize>> = Mutex::new(HashMap::new());
    let slow_thread: Mutex<Option<ThreadId>> = Mutex::new(None);
    let v: Vec<u32> = (0..64).collect();
    let _: Vec<u32> = v
        .into_par_iter()
        .map(|x| {
            let id = std::thread::current().id();
            *per_thread.lock().unwrap().entry(id).or_insert(0) += 1;
            if x == 0 {
                *slow_thread.lock().unwrap() = Some(id);
                std::thread::sleep(std::time::Duration::from_millis(300));
            }
            x
        })
        .collect();
    let per_thread = per_thread.into_inner().unwrap();
    let slow = slow_thread.into_inner().unwrap().expect("task 0 ran");
    assert!(
        per_thread.len() >= 2,
        "work must migrate across threads, saw {per_thread:?}"
    );
    let slow_count = per_thread[&slow];
    assert!(
        slow_count <= 8,
        "thread stuck on the slow task still ran {slow_count}/64 tasks — no stealing"
    );
    println!(
        "STEAL=OK threads={} slow_count={slow_count}",
        per_thread.len()
    );
}

#[test]
#[ignore = "helper: spawned as a subprocess with a pinned LSHDDP_THREADS"]
fn helper_panic_does_not_deadlock_pool() {
    assert!(rayon::current_num_threads() >= 2);
    let v: Vec<u32> = (0..256).collect();
    let result = std::panic::catch_unwind(|| {
        let _: Vec<u32> = v
            .into_par_iter()
            .map(|x| {
                if x == 100 {
                    panic!("injected task failure");
                }
                x
            })
            .collect();
    });
    assert!(result.is_err(), "panic must surface on the submitter");
    // The pool must still run subsequent jobs to completion (a wedged
    // pool would hang here and the parent's timeout would kill us).
    let v: Vec<u64> = (0..10_000).collect();
    let s: u64 = v.into_par_iter().map(|x| x * 2).sum();
    assert_eq!(s, 9_999 * 10_000);
    println!("PANIC=OK");
}

// ---- the actual tests ---------------------------------------------------

#[test]
fn results_identical_across_thread_counts() {
    let digests: Vec<String> = ["1", "2", "7"]
        .iter()
        .map(|t| extract(&run_helper("helper_print_digest", t), "DIGEST="))
        .collect();
    assert_eq!(
        digests[0], digests[1],
        "LSHDDP_THREADS=1 vs 2 must produce bit-identical results"
    );
    assert_eq!(
        digests[0], digests[2],
        "LSHDDP_THREADS=1 vs 7 must produce bit-identical results"
    );
}

#[test]
fn indexed_results_identical_across_thread_counts() {
    // On the large input both kernel routes run (asserted by the
    // helper); the digest, which includes the distance-eval counters,
    // must not move with the thread count.
    let digests: Vec<String> = ["1", "2", "7"]
        .iter()
        .map(|t| extract(&run_helper("helper_print_digest_indexed", t), "IDXDIGEST="))
        .collect();
    assert_eq!(
        digests[0], digests[1],
        "indexed kernels: LSHDDP_THREADS=1 vs 2 must produce bit-identical results"
    );
    assert_eq!(
        digests[0], digests[2],
        "indexed kernels: LSHDDP_THREADS=1 vs 7 must produce bit-identical results"
    );
}

#[test]
fn work_stealing_migrates_skewed_tasks() {
    let out = run_helper("helper_work_stealing_under_skew", "4");
    assert!(out.contains("STEAL=OK"), "helper output:\n{out}");
}

#[test]
fn panic_in_one_task_does_not_deadlock() {
    let out = run_helper("helper_panic_does_not_deadlock_pool", "4");
    assert!(out.contains("PANIC=OK"), "helper output:\n{out}");
}

#[test]
fn repeated_runs_are_bit_identical_in_process() {
    // Chunk boundaries depend only on input length, so two runs in the
    // same process agree bit-for-bit (including float reductions).
    assert_eq!(run_digest(), run_digest());
}
