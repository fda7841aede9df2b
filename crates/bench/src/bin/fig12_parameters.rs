//! Figure 12 — the effect of `M` (layouts) and `pi` (functions per group)
//! on runtime (a) and accuracy tau2 (b), at fixed target `A = 0.99`.
//!
//! The paper's observations to reproduce:
//! * at `pi = 3`, runtime grows with `M` (more copies shuffled);
//! * at large `pi` (20), small `M` suffers skew (few huge partitions) and
//!   the runtime trend flattens or reverses;
//! * `tau2` is poor for `M < 5` and stable ≈ 0.99 for `M >= 5–10`.

use datasets::PaperDataset;
use ddp::prelude::*;
use lshddp_bench::{fmt_count, fmt_secs, print_table, ExpArgs};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    m: usize,
    pi: usize,
    w: f64,
    wall_s: f64,
    distances: u64,
    shuffle_bytes: u64,
    tau2: f64,
}

fn main() {
    let args = ExpArgs::parse(0.01);
    let ld = PaperDataset::BigCross500k.generate(args.scale, args.seed);
    let mut ds = ld.data;
    ds.normalize_min_max();
    let dc = dp_core::cutoff::estimate_dc_sampled(&ds, 0.02, 200_000, args.seed);
    println!(
        "Figure 12 — effect of M and pi at A = 0.99 on BigCross500K analog (N = {})\n",
        ds.len()
    );

    let exact = dp_core::compute_exact(&ds, dc);

    // Reducers hold at most 2000 points in memory (see LshDdpConfig::
    // partition_cap): for M < 5 the Theorem-1 width inflates partitions
    // past the cap, so chunked processing degrades tau2 — the paper's
    // Figure 12(b) behaviour.
    let cap = 2000;
    // Map-side combining sums over each map task's split, so the shuffled
    // bytes follow the task count: pin it, at the two tasks per phase the
    // committed results/ figures were taken with, rather than one per
    // hardware thread.
    let pipeline = PipelineConfig {
        map_tasks: 2,
        reduce_tasks: 2,
        ..PipelineConfig::default()
    };
    let mut rows = Vec::new();
    for pi in [3usize, 10, 20] {
        for m in [1usize, 2, 5, 10, 20, 30] {
            let params = lsh::LshParams::for_accuracy(0.99, m, pi, dc).expect("valid accuracy");
            let w = params.w;
            let lsh = LshDdp::new(ddp::lsh_ddp::LshDdpConfig {
                params,
                seed: args.seed,
                pipeline,
                partition_cap: Some(cap),
                rho_aggregation: Default::default(),
            });
            let report = lsh.run(&ds, dc);
            let row = Row {
                m,
                pi,
                w,
                wall_s: report.wall.as_secs_f64(),
                distances: report.distances,
                shuffle_bytes: report.shuffle_bytes(),
                tau2: dp_core::quality::tau2(&exact.rho, &report.result.rho),
            };
            args.emit_json(&row);
            rows.push(vec![
                m.to_string(),
                pi.to_string(),
                format!("{w:.3}"),
                fmt_secs(row.wall_s),
                fmt_count(row.distances),
                lshddp_bench::fmt_bytes(row.shuffle_bytes),
                format!("{:.4}", row.tau2),
            ]);
        }
    }
    print_table(
        &["M", "pi", "w", "wall", "# dist", "shuffled", "tau2"],
        &rows,
    );
    println!(
        "\nShape to check: cost grows with M at pi = 3; tau2 is degraded for M < 5 \
         and stable near 0.99 for M >= 10 (the paper recommends M in [10,20], \
         pi in [3,10])."
    );
}
