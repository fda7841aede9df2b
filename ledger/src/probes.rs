//! Layer probes of the traced cycle: spans around single public calls of
//! `lsh`, `dp-core` and `mapreduce`, on the workload's own points. The
//! local-DP kernels run on a representative input, the 8 largest layout-0
//! buckets, which is where a reducer of the live run spends its time.

use crate::child::{Ctx, Report};
use crate::spec::{self, STRUCTURE_SEED};
use dp_core::dp::denser;
use dp_core::{update, Dataset, DpResult, PointId, SpatialIndex, NO_UPSLOPE};
use lsh::{LshParams, MultiLsh};
use mapreduce::{Emitter, FnMapper, FnReducer, JobBuilder, JobConfig, SegmentWriter};
use std::collections::HashMap;
use std::hint::black_box;

const BUCKETS: usize = 8;
/// Points whose records the codec and spill probes move.
const CODEC_POINTS: usize = 20_000;
const FRAME_RECORDS: usize = 1024;
/// Inserts the update probe relaxes toward.
const UPDATE_QUERIES: usize = 64;
const ENGINE_RECORDS: u64 = 1 << 16;
const ENGINE_GROUPS: u64 = 256;

type PointRecord = (PointId, Vec<f64>);

/// The layout tables of `ds`, with the `MultiLsh` that made them.
pub struct Tables {
    multi: MultiLsh,
    tables: Vec<HashMap<lsh::Signature, Vec<u32>>>,
}

/// lsh: the partitioning `params` gives `ds`, and how much of the all-pairs
/// work inside its buckets the fit's `evals` evaluations were.
pub fn partitioning(
    ds: &Dataset,
    params: &LshParams,
    evals: u64,
    ctx: &Ctx,
    rep: &mut Report,
) -> Tables {
    let multi = MultiLsh::new(ds.dim(), params, STRUCTURE_SEED);
    let (tables, tables_s) = ctx.spans.time("lsh.bucket_tables", || {
        lsh::bucket_tables(&multi, ds.iter().map(|(_, p)| p))
    });
    let buckets: usize = tables.iter().map(|t| t.len()).sum();
    let max_bucket = tables
        .iter()
        .flat_map(|t| t.values())
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    let all_pairs: f64 = tables
        .iter()
        .flat_map(|t| t.values())
        .map(|b| (b.len() * b.len()) as f64)
        .sum();
    rep.metric("lsh.bucket_tables_s", tables_s);
    rep.metric("lsh.buckets", buckets as f64);
    rep.metric(
        "lsh.mean_bucket",
        (ds.len() * tables.len()) as f64 / buckets as f64,
    );
    rep.metric("lsh.max_bucket", max_bucket as f64);
    // Both local jobs of a blocked kernel would evaluate half of n_p^2 each.
    rep.metric("dp-core.evals_pruned_frac", 1.0 - evals as f64 / all_pairs);
    Tables { multi, tables }
}

/// lsh and dp-core as a fit uses them: signature projection over all
/// points, the local kernels on the representative buckets, relabelling,
/// and mapreduce's fixed per-job cost.
pub fn kernels(
    ds: &Dataset,
    dc: f64,
    Tables { multi, tables }: &Tables,
    result: &DpResult,
    ctx: &Ctx,
    rep: &mut Report,
) {
    let sp = &ctx.spans;
    let (n, dim) = (ds.len(), ds.dim());
    let dc2 = dc * dc;

    let (_, sig_s) = sp.time("lsh.signatures", || {
        for (_, p) in ds.iter() {
            black_box(multi.signatures(p));
        }
    });
    rep.metric("lsh.signatures_s", sig_s);
    rep.metric("lsh.signatures_per_s", n as f64 / sig_s);

    // dp-core: the local kernels on the largest layout-0 buckets. Sorted
    // by size, then first id: map iteration order must not pick the input.
    let mut largest: Vec<&Vec<u32>> = tables[0].values().collect();
    largest.sort_by_key(|b| (std::cmp::Reverse(b.len()), b[0]));
    largest.truncate(BUCKETS);
    let flats: Vec<Vec<f64>> = largest
        .iter()
        .map(|b| {
            b.iter()
                .flat_map(|&id| ds.point(id).iter().copied())
                .collect()
        })
        .collect();
    let sizes: Vec<usize> = largest.iter().map(|b| b.len()).collect();

    let pairs: usize = sizes.iter().map(|s| s * (s - 1) / 2).sum();
    let (_, pair_s) = sp.time("dp-core.pair_d2", || {
        let mut acc = 0.0;
        for flat in &flats {
            dp_core::for_each_pair_d2(flat, dim, |_, _, d2| acc += d2);
        }
        black_box(acc);
    });
    rep.metric("dp-core.pair_d2_ns", pair_s * 1e9 / pairs.max(1) as f64);
    let crossed: usize = sizes.windows(2).map(|s| s[0] * s[1]).sum();
    let (_, cross_s) = sp.time("dp-core.cross_d2", || {
        let mut acc = 0.0;
        for ab in flats.windows(2) {
            dp_core::for_each_cross_d2(&ab[0], &ab[1], dim, |_, _, d2| acc += d2);
        }
        black_box(acc);
    });
    rep.metric("dp-core.cross_d2_ns", cross_s * 1e9 / crossed.max(1) as f64);

    let (indexes, build_s) = sp.time("dp-core.index_build", || {
        flats
            .iter()
            .map(|f| SpatialIndex::build(f, dim, dc))
            .collect::<Vec<_>>()
    });
    let mut range_evals = 0;
    let (rhos, range_s) = sp.time("dp-core.range_count", || {
        let count = |(idx, flat): (&SpatialIndex, &Vec<f64>)| -> Vec<u32> {
            flat.chunks_exact(dim)
                .map(|p| {
                    let (count, evals) = idx.range_count_d2(p, dc2);
                    range_evals += evals;
                    count
                })
                .collect()
        };
        indexes.iter().zip(&flats).map(count).collect::<Vec<_>>()
    });
    let mut nearest_evals = 0;
    let (_, nearest_s) = sp.time("dp-core.nearest_denser", || {
        for ((idx, flat), rho) in indexes.iter().zip(&flats).zip(&rhos) {
            for (i, p) in flat.chunks_exact(dim).enumerate() {
                let i = i as PointId;
                let accept = |j: u32| denser(rho[j as usize], j, rho[i as usize], i).then_some(j);
                let (best, evals) =
                    idx.nearest_denser_d2(p, (f64::INFINITY, NO_UPSLOPE), f64::INFINITY, accept);
                nearest_evals += evals;
                black_box(best);
            }
        }
    });
    rep.metric("dp-core.index_build_s", build_s);
    rep.metric("dp-core.range_count_s", range_s);
    rep.metric("dp-core.nearest_denser_s", nearest_s);
    rep.metric("dp-core.range_evals", range_evals as f64);
    rep.metric("dp-core.nearest_evals", nearest_evals as f64);

    let (_, relabel_s) = sp.time("dp-core.select_assign", || {
        let peaks = dp_core::select_top_k(result, 32);
        black_box(dp_core::assign(result, &peaks));
    });
    rep.metric("dp-core.select_assign_ms", relabel_s * 1e3);

    // mapreduce: what a job costs before it has any work to do.
    let input: Vec<(u64, u64)> = (0..ENGINE_RECORDS).map(|i| (i, i)).collect();
    let job = JobBuilder::new(
        "ledger/modsum",
        FnMapper::new(|k: u64, v: u64, out: &mut Emitter<u64, u64>| out.emit(k % ENGINE_GROUPS, v)),
        FnReducer::new(|k: &u64, vs: Vec<u64>, out: &mut Emitter<u64, u64>| {
            out.emit(*k, vs.iter().sum())
        }),
    )
    .config(JobConfig {
        map_tasks: spec::MAP_TASKS,
        reduce_tasks: spec::REDUCE_TASKS,
        ..JobConfig::default()
    });
    let ((sums, _), job_s) = sp.time("mapreduce.engine_job", || job.run(input));
    let total: u64 = sums.iter().map(|(_, s)| s).sum();
    rep.op(
        sums.len() as u64 == ENGINE_GROUPS && total == ENGINE_RECORDS * (ENGINE_RECORDS - 1) / 2,
        || "modulo-sum job returned wrong sums".into(),
    );
    rep.metric("mapreduce.engine_job_s", job_s);
}

/// dp-core as an ingest `apply` uses it: candidates from a point's layout-0
/// bucket, then relaxation toward a new point there.
pub fn update(
    ds: &Dataset,
    dc: f64,
    Tables { multi, tables }: &Tables,
    result: &DpResult,
    ctx: &Ctx,
    rep: &mut Report,
) {
    let (n, dim) = (ds.len(), ds.dim());
    let mut delta = result.delta.clone();
    let mut upslope = result.upslope.clone();
    let (_, update_s) = ctx.spans.time("dp-core.update", || {
        for id in (0..n)
            .step_by((n / UPDATE_QUERIES).max(1))
            .take(UPDATE_QUERIES)
        {
            let q = ds.point(id as PointId);
            let cands = &tables[0][&multi.signature(0, q)];
            let near = update::candidate_neighbors(q, cands, ds.as_flat(), dim);
            let rho_q = near.iter().filter(|c| c.dist < dc).count() as u32;
            let new = n as PointId;
            black_box(update::relax_toward(
                new,
                rho_q,
                &near,
                &result.rho,
                &mut delta,
                &mut upslope,
            ));
        }
    });
    rep.metric("dp-core.update_ms", update_s * 1e3);
}

/// mapreduce under a budget: the record codec and the spill tier's
/// segment files, on the workload's own point records.
pub fn codec_and_spill(ds: &Dataset, ctx: &Ctx, rep: &mut Report) {
    let sp = &ctx.spans;
    let records: Vec<PointRecord> = ds
        .iter()
        .take(CODEC_POINTS)
        .map(|(id, p)| (id, p.to_vec()))
        .collect();
    let (bytes, encode_s) = sp.time("mapreduce.wire_encode", || mapreduce::encode(&records));
    let mb = bytes.len() as f64 / 1e6;
    let (back, decode_s) = sp.time("mapreduce.wire_decode", || {
        mapreduce::decode::<Vec<PointRecord>>(&bytes)
    });
    rep.op(back.is_ok_and(|b| b == records), || {
        "wire codec did not round-trip".into()
    });
    rep.metric("mapreduce.wire_encode_mb_per_s", mb / encode_s);
    rep.metric("mapreduce.wire_decode_mb_per_s", mb / decode_s);

    let frames: Vec<Vec<PointRecord>> = records.chunks(FRAME_RECORDS).map(<[_]>::to_vec).collect();
    let spilled = (|| {
        let (written, write_s) = sp.time("mapreduce.spill_write", || {
            let mut w = SegmentWriter::create(ctx.scratch.join("probe.seg"))?;
            let metas = frames
                .iter()
                .map(|f| w.write_frame(f))
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, std::io::Error>((w.finish()?, metas))
        });
        let (segment, metas) = written.map_err(|e| e.to_string())?;
        let (read, read_s) = sp.time("mapreduce.spill_read", || {
            metas
                .iter()
                .map(|m| segment.read_frame::<PointRecord>(m))
                .collect::<Result<Vec<_>, _>>()
        });
        let same = read.map_err(|e| format!("{e:?}"))? == frames;
        let mb = segment.bytes() as f64 / 1e6;
        Ok::<_, String>((same, mb / write_s, mb / read_s))
    })();
    rep.op(matches!(spilled, Ok((true, ..))), || {
        format!("spill segment round trip: {spilled:?}")
    });
    let (_, write_rate, read_rate) = spilled.unwrap_or((false, 0.0, 0.0));
    rep.metric("mapreduce.spill_write_mb_per_s", write_rate);
    rep.metric("mapreduce.spill_read_mb_per_s", read_rate);
}
