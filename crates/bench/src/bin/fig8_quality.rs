//! Figure 8 — clustering quality on Aggregation.
//!
//! Two halves, matching §VI-B and §VI-C:
//!
//! 1. DP vs hierarchical / K-means / EM / DBSCAN against the 7-cluster
//!    ground truth (the paper reports DP alone recovering all seven);
//! 2. Basic-DDP vs LSH-DDP agreement ("almost the same", differences only
//!    at boundary points).

use baselines::{Dbscan, EmGmm, Hierarchical, KMeans, Linkage};
use datasets::shapes::aggregation_like;
use ddp::centralized::CentralizedOutput;
use ddp::prelude::*;
use dp_core::quality::{adjusted_rand_index, normalized_mutual_information, purity};
use lshddp_bench::{print_table, ExpArgs};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    algorithm: String,
    ari: f64,
    nmi: f64,
    purity: f64,
}

fn quality(name: &str, labels: &[u32], truth: &[u32], args: &ExpArgs) -> Vec<String> {
    let row = Row {
        algorithm: name.to_string(),
        ari: adjusted_rand_index(labels, truth),
        nmi: normalized_mutual_information(labels, truth),
        purity: purity(labels, truth),
    };
    args.emit_json(&row);
    vec![
        row.algorithm,
        format!("{:.3}", row.ari),
        format!("{:.3}", row.nmi),
        format!("{:.3}", row.purity),
    ]
}

fn main() {
    let args = ExpArgs::parse(1.0);
    let ld = aggregation_like(args.seed);
    let ds = &ld.data;
    let truth = &ld.labels;
    let k = 7;
    let dc = dp_core::cutoff::estimate_dc_exact(ds, 0.02);
    println!("Figure 8 — clustering quality on Aggregation analog (d_c = {dc:.3})\n");

    let mut rows = Vec::new();

    // Previous algorithms, configured as in §VI-B: k = ground-truth
    // clusters; DBSCAN eps = d_c, min cluster size 1.
    let hier = Hierarchical::new(k, Linkage::Single).fit(ds);
    rows.push(quality("hierarchical", hier.labels(), truth, &args));
    let km = KMeans::new(k, args.seed).fit(ds);
    rows.push(quality("k-means", km.clustering.labels(), truth, &args));
    let em = EmGmm::new(k, args.seed).fit(ds);
    rows.push(quality("EM", em.clustering.labels(), truth, &args));
    let db = Dbscan::new(dc, 1).fit(ds).to_clustering();
    rows.push(quality("DBSCAN", db.labels(), truth, &args));

    // DP itself (sequential = Basic-DDP's result).
    let exact = dp_core::compute_exact(ds, dc);
    let dp_out = CentralizedStep::new(PeakSelection::TopK(k)).run(&exact);
    rows.push(quality(
        "DP (sequential)",
        dp_out.clustering.labels(),
        truth,
        &args,
    ));

    // Distributed: Basic-DDP and LSH-DDP.
    let basic = BasicDdp::new(BasicConfig {
        block_size: 200,
        ..Default::default()
    })
    .run(ds, dc);
    let basic_out = CentralizedStep::new(PeakSelection::TopK(k)).run(&basic.result);
    rows.push(quality(
        "Basic-DDP",
        basic_out.clustering.labels(),
        truth,
        &args,
    ));

    let lsh = LshDdp::with_accuracy(0.99, 10, 3, dc, args.seed)
        .expect("valid accuracy")
        .run(ds, dc);
    let lsh_out = CentralizedStep::new(PeakSelection::TopK(k)).run(&lsh.result);
    rows.push(quality(
        "LSH-DDP",
        lsh_out.clustering.labels(),
        truth,
        &args,
    ));

    print_table(&["algorithm", "ARI", "NMI", "purity"], &rows);

    // Label ids are positions in each run's own peak list: compare the peak
    // each point's cluster is centred on. Boundary effects only means the
    // same peaks, and every differing point in Basic-DDP's cluster halo.
    let agreement = adjusted_rand_index(basic_out.clustering.labels(), lsh_out.clustering.labels());
    let peak_of = |o: &CentralizedOutput, i: usize| o.peaks[o.clustering.labels()[i] as usize];
    let differing: Vec<usize> = (0..ds.len())
        .filter(|&i| peak_of(&basic_out, i) != peak_of(&lsh_out, i))
        .collect();
    let halo = dp_core::decision::compute_halo(ds, &basic.result, &basic_out.clustering);
    let outside_halo = differing.iter().filter(|&&i| !halo[i]).count();
    let verdict = if basic_out.peaks == lsh_out.peaks && outside_halo == 0 {
        "boundary effects only".to_string()
    } else {
        let (bp, lp) = (&basic_out.peaks, &lsh_out.peaks);
        format!("{outside_halo} outside the halo; peaks {bp:?} vs {lp:?}")
    };
    println!(
        "\nBasic-DDP vs LSH-DDP agreement: ARI = {agreement:.4} \
         (differences at {}/{} points — {verdict})",
        differing.len(),
        ds.len()
    );
}
