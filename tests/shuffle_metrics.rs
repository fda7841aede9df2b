//! Shuffle-metric invariance: the parallel per-reducer shuffle merge
//! must report exactly the same `shuffle_records`, `shuffle_bytes`, and
//! `reduce_input_groups` as a sequential single-reducer merge of the
//! same map output.
//!
//! Strategy: hold `map_tasks` fixed (combiner scope is per map task, so
//! its output is a function of the map partitioning alone) and vary
//! `reduce_tasks`. The reduce task count is what the merge parallelizes
//! over, so any accounting drift in the parallel path shows up as a
//! difference between the 1-reducer and N-reducer runs.

use ddp::{LshDdp, PipelineConfig};
use dp_core::Dataset;
use mapreduce::{Emitter, FnMapper, FnReducer, JobBuilder, JobConfig, JobMetrics};

fn wordcount(reduce_tasks: usize) -> (Vec<(String, u64)>, JobMetrics) {
    let m = FnMapper::new(|_k: u64, line: String, out: &mut Emitter<String, u64>| {
        for w in line.split_whitespace() {
            out.emit(w.to_string(), 1);
        }
    });
    let r = FnReducer::new(|k: &String, vs: Vec<u64>, out: &mut Emitter<String, u64>| {
        out.emit(k.clone(), vs.into_iter().sum());
    });
    let input: Vec<(u64, String)> = (0..300)
        .map(|i| (i, format!("alpha{} beta{} gamma", i % 23, i % 7)))
        .collect();
    let (mut out, metrics) = JobBuilder::new("wc", m, r)
        .config(JobConfig {
            map_tasks: 5,
            reduce_tasks,
            fault: None,
            chaos: None,
        })
        .run(input);
    out.sort();
    (out, metrics)
}

fn assert_shuffle_metrics_eq(a: &JobMetrics, b: &JobMetrics, ctx: &str) {
    assert_eq!(
        a.shuffle_records, b.shuffle_records,
        "{ctx}: shuffle_records drifted"
    );
    assert_eq!(
        a.shuffle_bytes, b.shuffle_bytes,
        "{ctx}: shuffle_bytes drifted"
    );
    assert_eq!(
        a.reduce_input_groups, b.reduce_input_groups,
        "{ctx}: reduce_input_groups drifted"
    );
}

#[test]
fn wordcount_metrics_invariant_to_reduce_task_count() {
    let (out1, m1) = wordcount(1);
    for n in [2, 4, 7] {
        let (out_n, m_n) = wordcount(n);
        assert_eq!(out1, out_n, "output changed at reduce_tasks={n}");
        assert_shuffle_metrics_eq(&m1, &m_n, &format!("wordcount reduce_tasks={n}"));
    }
}

#[test]
fn wordcount_metrics_match_hand_count() {
    // 300 lines × 3 words, no combiner: every map-output record crosses
    // the shuffle, each serialized as a length-prefixed string (4-byte
    // prefix + bytes) plus a u64 value.
    let (_, m) = wordcount(4);
    assert_eq!(m.map_output_records, 900);
    assert_eq!(m.shuffle_records, 900);
    let byte_size = |w: &str| (4 + w.len() as u64) + 8;
    let expected: u64 = (0..300u64)
        .flat_map(|i| {
            [
                format!("alpha{}", i % 23),
                format!("beta{}", i % 7),
                "gamma".to_string(),
            ]
        })
        .map(|w| byte_size(&w))
        .sum();
    assert_eq!(m.shuffle_bytes, expected);
    // 23 alphas + 7 betas + 1 gamma distinct keys.
    assert_eq!(m.reduce_input_groups, 31);
}

#[test]
fn lsh_ddp_per_job_metrics_invariant_to_reduce_task_count() {
    let mut ds = Dataset::new(2);
    for (cx, cy) in [(0.0, 0.0), (8.0, 8.0)] {
        for i in 0..50u64 {
            let jx = ((i.wrapping_mul(48271) >> 5) % 1000) as f64 / 800.0;
            let jy = ((i.wrapping_mul(16807) >> 3) % 1000) as f64 / 800.0;
            ds.push(&[cx + jx, cy + jy]);
        }
    }
    let dc = 0.7;

    let run = |reduce_tasks: usize| {
        let base = LshDdp::with_accuracy(0.99, 8, 3, dc, 11).expect("valid params");
        let lsh = LshDdp::new(ddp::LshDdpConfig {
            pipeline: PipelineConfig {
                map_tasks: 4,
                reduce_tasks,
                fault: None,
                fault_stage: None,
                chaos: None,
                disable_elision: false,
                checkpoints: false,
                mem_budget: None,
            },
            ..base.config().clone()
        });
        lsh.run(&ds, dc)
    };

    let r1 = run(1);
    for n in [3, 6] {
        let rn = run(n);
        assert_eq!(
            r1.result.rho, rn.result.rho,
            "rho changed at reduce_tasks={n}"
        );
        assert_eq!(
            r1.jobs.len(),
            rn.jobs.len(),
            "pipeline job count changed at reduce_tasks={n}"
        );
        // Only the first job's input is literally identical across
        // reduce-task counts (later jobs consume the previous job's
        // output, whose record *order* — and hence combiner scope —
        // depends on the reducer partitioning), so exact metric
        // invariance is claimed there.
        assert_shuffle_metrics_eq(
            &r1.jobs[0],
            &rn.jobs[0],
            &format!("{} reduce_tasks={n}", r1.jobs[0].name),
        );
    }

    // Re-running the identical config must reproduce every job's
    // accounting exactly: the parallel per-reducer merge cannot
    // introduce nondeterminism into the metrics.
    let (ra, rb) = (run(3), run(3));
    for (a, b) in ra.jobs.iter().zip(&rb.jobs) {
        assert_shuffle_metrics_eq(a, b, &format!("{} repeated run", a.name));
    }
    assert_eq!(ra.shuffle_bytes(), rb.shuffle_bytes());
    assert_eq!(ra.shuffle_records(), rb.shuffle_records());
}
