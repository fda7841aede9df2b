//! Table IV — LSH-DDP vs EDDPC on BigCross500K.
//!
//! The paper reports (at 500K points, 5-node cluster): LSH-DDP needs less
//! runtime and much less shuffled data than EDDPC, but *more* distance
//! computations — the LSH partitions overlap points into all-pairs local
//! work, while EDDPC's triangle-inequality filters prune harder. The
//! trade buys LSH-DDP its 2× runtime edge because shuffle dominates.
//! Also reproduced: lowering the accuracy target speeds LSH-DDP further.
//!
//! The paper's LSH-DDP evaluates every pair of a bucket in both local
//! jobs; ours prunes the large buckets through a spatial index. So each
//! LSH-DDP row carries two counts: the measured `distances`, and the
//! paper-mode figure `Σ_p n_p (n_p − 1)` over the run's own buckets.

use datasets::PaperDataset;
use ddp::prelude::*;
use lshddp_bench::{fmt_bytes, fmt_count, fmt_secs, print_table, ExpArgs};
use mapreduce::ClusterSpec;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    algorithm: String,
    wall_s: f64,
    sim_s: f64,
    shuffle_bytes: u64,
    distances: u64,
    /// `Σ_p n_p (n_p − 1)` over the LSH buckets; `None` for EDDPC.
    all_pairs: Option<u64>,
    tau2_vs_exact: f64,
}

fn main() {
    let args = ExpArgs::parse(0.02);
    let ld = PaperDataset::BigCross500k.generate(args.scale, args.seed);
    let mut ds = ld.data;
    ds.normalize_min_max();
    let dc = dp_core::cutoff::estimate_dc_sampled(&ds, 0.02, 200_000, args.seed);
    let spec = ClusterSpec {
        job_startup_secs: 0.0,
        ..ClusterSpec::local_cluster()
    };
    let dims_factor = ds.dim() as f64 / 4.0;
    println!(
        "Table IV — LSH-DDP vs EDDPC on BigCross500K analog (N = {}, d_c = {dc:.4})\n",
        ds.len()
    );

    let exact = dp_core::compute_exact(&ds, dc);

    let mut rows = Vec::new();
    let mut emit = |name: String, report: &RunReport, all_pairs: Option<u64>| {
        let row = Row {
            algorithm: name.clone(),
            wall_s: report.wall.as_secs_f64(),
            sim_s: report.simulate(&spec, dims_factor),
            shuffle_bytes: report.shuffle_bytes(),
            distances: report.distances,
            all_pairs,
            tau2_vs_exact: dp_core::quality::tau2(&exact.rho, &report.result.rho),
        };
        args.emit_json(&row);
        rows.push(vec![
            row.algorithm,
            fmt_secs(row.wall_s),
            fmt_secs(row.sim_s),
            fmt_bytes(row.shuffle_bytes),
            fmt_count(row.distances),
            row.all_pairs.map_or("—".into(), fmt_count),
            format!("{:.4}", row.tau2_vs_exact),
        ]);
    };

    // EDDPC's published configuration uses thousands of Voronoi cells at
    // 500K points (N/25 here): small cells mean little local all-pairs
    // work but heavy boundary replication — exactly the trade Table IV
    // reports against LSH-DDP.
    let eddpc = Eddpc::new(EddpcConfig {
        n_pivots: (ds.len() / 25).max(8),
        seed: args.seed,
        pipeline: Default::default(),
    })
    .run(&ds, dc);
    emit("EDDPC (exact)".into(), &eddpc, None);

    for a in [0.99, 0.90] {
        let lsh = LshDdp::with_accuracy(a, 10, 3, dc, args.seed).expect("valid accuracy");
        let multi = lsh::MultiLsh::new(ds.dim(), &lsh.config().params, args.seed);
        let all_pairs = lsh::bucket_tables(&multi, ds.iter().map(|(_, p)| p))
            .iter()
            .flat_map(|t| t.values())
            .map(|b| (b.len() * (b.len() - 1)) as u64)
            .sum();
        emit(
            format!("LSH-DDP (A={a})"),
            &lsh.run(&ds, dc),
            Some(all_pairs),
        );
    }

    print_table(
        &[
            "algorithm",
            "wall",
            "sim (5-node)",
            "shuffled",
            "# dist",
            "# dist all-pairs",
            "tau2 vs exact",
        ],
        &rows,
    );
    println!(
        "\nShape to check (paper Table IV): LSH-DDP shuffles far less than EDDPC \
         and runs faster, despite computing MORE distances (the all-pairs column; \
         the measured one is after index pruning); A=0.90 is faster still."
    );
}
