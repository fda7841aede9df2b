//! The `serve-ingest` cycle: one `Server` worker and one closed-loop
//! `Client` on this thread, so never more than one of the two is runnable.
//! A read phase over a seeded query mix, then WAL-logged write batches each
//! followed by a publish, a hot swap and reads against the cold cache, then
//! a compaction, a durable save, a swap and the WAL's retirement.

use crate::child::{digest, peak_rss_mb, Ctx, Report};
use crate::inputs::{self, query_class, Class};
use crate::{fit, probes, stats};
use dp_core::quality::adjusted_rand_index;
use dp_core::Dataset;
use ingest::{DeltaBatch, DeltaOp, IngestConfig, IngestSession, Wal};
use serve::{Client, ClusterModel, QueryEngine, Server, ServerConfig};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Timed closed-loop reads of query rows `rows`; failures are counted.
struct Reads<'a> {
    client: &'a Client,
    queries: &'a Dataset,
    /// `(row, latency in us, served cluster)` of every answered read.
    done: Vec<(usize, f64, u32)>,
    failed: u64,
}

impl Reads<'_> {
    fn run(&mut self, rows: std::ops::Range<usize>) {
        for row in rows {
            let t = Instant::now();
            match self.client.assign(self.queries.point(row as u32)) {
                Ok(a) => self
                    .done
                    .push((row, t.elapsed().as_secs_f64() * 1e6, a.cluster)),
                Err(_) => self.failed += 1,
            }
        }
    }
}

fn p50_us(done: &[(usize, f64, u32)], keep: impl Fn(usize) -> bool) -> f64 {
    let us: Vec<f64> = done.iter().filter(|d| keep(d.0)).map(|d| d.1).collect();
    if us.is_empty() {
        0.0
    } else {
        stats::percentile(&us, 0.50)
    }
}

pub fn cycle(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let sp = &ctx.spans;
    let (dir, sizes) = (&ctx.inputs, &ctx.sizes);
    let text = |p: &Path| {
        p.to_str()
            .map(str::to_owned)
            .ok_or("non-UTF-8 path".to_string())
    };
    let config = || IngestConfig {
        pipeline: inputs::pipeline(None),
        selection: inputs::selection(inputs::SERVE_K),
    };

    let model_path = text(&dir.join(inputs::MODEL))?;
    let (model, load_s) = sp.time("serve.model_load", || ClusterModel::load(&model_path));
    let model = model.map_err(|e| format!("loading {model_path}: {e}"))?;
    let (engine, build_s) = sp.time("serve.engine_build", || QueryEngine::new(model.clone()));
    let server = Server::start(
        engine,
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    std::fs::create_dir_all(&ctx.scratch).map_err(|e| format!("creating scratch: {e}"))?;
    let wal_path = ctx.scratch.join("ingest.wal");
    std::fs::remove_file(&wal_path).ok();
    let (opened, open_s) = sp.time("ingest.session_open", || {
        IngestSession::with_wal(&model, config(), &wal_path)
    });
    let (mut session, _) = opened.map_err(|e| format!("opening the ingest session: {e}"))?;
    let (read, read_s) = sp.time("datasets.read_csv", || {
        let q = datasets::io::read_csv(dir.join(inputs::QUERIES), true)?;
        let i = datasets::io::read_csv(dir.join(inputs::INSERTS), true)?;
        Ok::<_, datasets::io::IoError>((q, i))
    });
    let (queries, inserts) = read.map_err(|e| format!("reading the query streams: {e}"))?;
    let deletes: Vec<u64> = std::fs::read_to_string(dir.join(inputs::DELETES))
        .map_err(|e| format!("reading {}: {e}", inputs::DELETES))?
        .lines()
        .map(|l| l.parse().map_err(|_| format!("bad delete key {l:?}")))
        .collect::<Result<_, _>>()?;
    if queries.len() != sizes.queries() {
        return Err(format!(
            "{} query rows, expected {}",
            queries.len(),
            sizes.queries()
        ));
    }

    let mut reads = Reads {
        client: &client,
        queries: &queries.data,
        done: Vec::with_capacity(sizes.queries()),
        failed: 0,
    };
    sp.time("serve.warmup", || reads.run(0..sizes.warm_reads));
    let warmed = std::mem::take(&mut reads.done);
    let setup_s = ctx.started.elapsed().as_secs_f64();

    // Read phase.
    let mut next = sizes.warm_reads;
    sp.time("serve.read_phase", || reads.run(next..next + sizes.reads));
    next += sizes.reads;
    let read_phase = reads.done.len();

    // Write phase.
    let mut job_s = 0.0;
    let (mut apply_ms, mut publish_ms, mut swap_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut batches = Vec::with_capacity(sizes.batches);
    for b in 0..sizes.batches {
        let ins = b * sizes.inserts_per_batch..(b + 1) * sizes.inserts_per_batch;
        let del = b * sizes.deletes_per_batch..(b + 1) * sizes.deletes_per_batch;
        let ops: Vec<DeltaOp> = ins
            .map(|i| DeltaOp::Insert(inserts.data.point(i as u32).to_vec()))
            .chain(deletes[del].iter().map(|&k| DeltaOp::Delete(k)))
            .collect();
        let (ok, s) = sp.time("write-batch", || {
            let (applied, apply_s) = sp.time("ingest.apply", || session.apply(ops));
            apply_ms.push(apply_s * 1e3);
            let (published, publish_s) = sp.time("ingest.publish", || session.publish());
            publish_ms.push(publish_s * 1e3);
            let (_, swap_s) = sp.time("serve.swap", || server.swap(QueryEngine::new(published)));
            swap_ms.push(swap_s * 1e3);
            applied
                .map(|a| batches.push(a.batch))
                .map_err(|e| e.to_string())
        });
        job_s += s;
        rep.op(ok.is_ok(), || {
            format!("batch {b} rejected: {}", ok.unwrap_err())
        });
        sp.time("serve.post_swap_reads", || {
            reads.run(next..next + sizes.reads_per_swap)
        });
        next += sizes.reads_per_swap;
    }
    let stale_points = session.stale_points();
    let wal_bytes = std::fs::metadata(&wal_path).map_or(0, |m| m.len());

    let mut replay_s = 0.0;
    if ctx.traced {
        // A second session over the same artifact and log must arrive
        // where the live one is.
        let (replica, s) = sp.time("ingest.replay", || {
            IngestSession::with_wal(&model, config(), &wal_path)
        });
        replay_s = s;
        let same = replica.as_ref().is_ok_and(|(r, n)| {
            *n == sizes.batches && r.version() == session.version() && r.len() == session.len()
        });
        rep.op(same, || {
            "WAL replay on reopen did not reproduce the session".into()
        });
    }

    // Compaction; the log is retired only once the artifact is durable.
    let live_before = session.len();
    let saved_path = text(&ctx.scratch.join("compacted.bin"))?;
    let ((compaction, compact_s, save_s), s) = sp.time("compaction", || {
        let (c, compact_s) = sp.time("ingest.compact", || session.compact());
        let (saved, save_s) = sp.time("serve.model_save", || c.model.save(&saved_path));
        rep.op(saved.is_ok(), || {
            format!("saving the compacted model: {}", saved.unwrap_err())
        });
        let (_, swap_s) = sp.time("serve.swap", || {
            server.swap(QueryEngine::new(c.model.clone()))
        });
        swap_ms.push(swap_s * 1e3);
        let (retired, _) = sp.time("ingest.retire_wal", || session.retire_wal());
        rep.op(retired.is_ok(), || {
            format!("retiring the WAL: {}", retired.unwrap_err())
        });
        (c, compact_s, save_s)
    });
    job_s += s;
    let expect = model.len() + sizes.batches * (sizes.inserts_per_batch - sizes.deletes_per_batch);
    let compacted = &compaction.model;
    rep.op(compacted.len() == expect && live_before == expect, || {
        format!(
            "compacted model holds {} points, expected {expect}",
            compacted.len()
        )
    });
    rep.op(
        compacted
            .labels()
            .iter()
            .all(|&l| (l as usize) < compacted.n_clusters()),
        || "compaction left points unlabelled".into(),
    );

    let service = server.stats();
    let done = std::mem::take(&mut reads.done);
    rep.ops(
        (sizes.queries() - sizes.warm_reads) as u64,
        reads.failed,
        "reads",
    );
    server.shutdown();

    // Every twin must have got its base point's stored label.
    let ids: HashMap<Vec<u64>, u32> = (0..model.len() as u32)
        .map(|id| (model.point(id).iter().map(|x| x.to_bits()).collect(), id))
        .collect();
    let phase = &done[..read_phase];
    let wrong = phase
        .iter()
        .filter(|d| query_class(d.0) == Class::Twin)
        .filter(|d| {
            let key: Vec<u64> = queries
                .data
                .point(d.0 as u32)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            ids.get(&key).is_none_or(|&id| model.label(id) != d.2)
        })
        .count();
    rep.op(wrong == 0, || {
        format!("{wrong} twin queries did not get their base point's label")
    });
    // Every answered read of the cycle, the untimed warm-up ones too: the
    // more labels, the less the figure hangs on which queries a seed drew.
    let (served, truth): (Vec<u32>, Vec<u32>) = warmed
        .iter()
        .chain(&done)
        .filter(|d| query_class(d.0) != Class::Far)
        .map(|d| (d.2, queries.labels[d.0]))
        .unzip();
    let ari = adjusted_rand_index(&served, &truth);

    let op_ms: Vec<f64> = done.iter().map(|d| d.1 / 1e3).collect();
    let report = &compaction.report;
    rep.digest = Some(digest(&report.result));
    rep.metric("setup_s", setup_s);
    rep.metric("job_s", job_s);
    rep.metric("op_p50_ms", stats::percentile(&op_ms, 0.50));
    rep.metric("op_p95_ms", stats::percentile(&op_ms, 0.95));
    rep.metric("ari", ari);
    rep.metric("dist_evals_m", report.distances as f64 / 1e6);
    rep.metric("shuffle_mb", report.shuffle_bytes() as f64 / 1e6);
    rep.metric("mapreduce.spill_mb", report.spill_bytes() as f64 / 1e6);
    rep.metric(
        "mapreduce.stall_s",
        report.backpressure_stall_ns() as f64 / 1e9,
    );
    if !ctx.traced {
        rep.metric("peak_rss_mb", peak_rss_mb());
        return Ok(());
    }

    let of = |c: Class| move |row: usize| query_class(row) == c;
    let n_phase = sizes.warm_reads + sizes.reads;
    rep.metric("serve.model_load_s", load_s);
    rep.metric("serve.engine_build_s", build_s);
    rep.metric("serve.near_p50_us", p50_us(phase, of(Class::Near)));
    rep.metric("serve.cached_p50_us", p50_us(phase, of(Class::Hot)));
    rep.metric("serve.far_p50_us", p50_us(phase, of(Class::Far)));
    rep.metric(
        "serve.post_swap_p50_us",
        p50_us(&done, |row| row >= n_phase),
    );
    rep.metric("serve.queue_wait_p50_us", service.p50_queue_wait_us);
    rep.metric("serve.mean_batch", service.mean_batch_size);
    rep.metric("serve.cache_hit_frac", service.cache_hit_rate);
    rep.metric(
        "serve.fallback_frac",
        service.fallbacks as f64 / service.queries.max(1) as f64,
    );
    rep.metric("serve.timed_out", service.timed_out as f64);
    rep.metric("serve.request_p99_ms", stats::percentile(&op_ms, 0.99));
    rep.metric("serve.request_p999_ms", stats::percentile(&op_ms, 0.999));
    rep.metric("serve.swap_ms", stats::median(&swap_ms));
    rep.metric("serve.model_save_s", save_s);
    rep.metric("ingest.session_open_s", open_s);
    rep.metric("ingest.replay_s", replay_s);
    rep.metric("ingest.apply_p50_ms", stats::percentile(&apply_ms, 0.50));
    rep.metric("ingest.apply_p95_ms", stats::percentile(&apply_ms, 0.95));
    rep.metric("ingest.wal_bytes", wal_bytes as f64);
    rep.metric("ingest.publish_ms", stats::median(&publish_ms));
    rep.metric("ingest.compact_s", compact_s);
    rep.metric("ingest.stale_points", stale_points as f64);
    rep.metric("datasets.read_csv_s", read_s);

    // The query path without the server around it, and the WAL without
    // the session around it.
    let engine = QueryEngine::new(model);
    let per_query_us = |class: Class| {
        let rows: Vec<usize> = (0..n_phase)
            .filter(|&r| query_class(r) == class)
            .take(1000)
            .collect();
        let (_, s) = sp.time("serve.engine_assign", || {
            for &r in &rows {
                std::hint::black_box(engine.assign(queries.data.point(r as u32)));
            }
        });
        s * 1e6 / rows.len().max(1) as f64
    };
    rep.metric("serve.engine_assign_us", per_query_us(Class::Near));
    rep.metric("serve.engine_fallback_us", per_query_us(Class::Far));
    rep.metric("ingest.wal_append_ms", wal_append_ms(&batches, ctx)?);

    // The engine layers as the compaction's refit went through them, the
    // partitioning every engine build makes of the model's points, and
    // the localized update an `apply` runs per insert.
    let walls = fit::engine_metrics("serve-ingest", report, compacted.dim(), rep);
    eprintln!(
        "closure serve-ingest: job_s {job_s:.3} = {} write batches {:.3} + compaction {s:.3} \
         (compact {compact_s:.3}, of it refit stages {walls:.3}; save {save_s:.3})",
        sizes.batches,
        job_s - s,
    );
    let ds = Dataset::from_flat(compacted.dim(), compacted.coords().to_vec());
    let tables = probes::partitioning(&ds, compacted.params(), report.distances, ctx, rep);
    probes::update(&ds, compacted.dc(), &tables, &report.result, ctx, rep);
    Ok(())
}

/// Median `Wal::append` (fsync included) of the cycle's batches on a log
/// of their own.
fn wal_append_ms(batches: &[DeltaBatch], ctx: &Ctx) -> Result<f64, String> {
    let path = ctx.scratch.join("probe.wal");
    std::fs::remove_file(&path).ok();
    let (mut wal, _) = Wal::open(&path).map_err(|e| format!("opening probe WAL: {e}"))?;
    let mut ms = Vec::with_capacity(batches.len());
    for b in batches {
        let (r, s) = ctx.spans.time("ingest.wal_append", || wal.append(b));
        r.map_err(|e| format!("probe WAL append: {e}"))?;
        ms.push(s * 1e3);
    }
    Ok(stats::median(&ms))
}
