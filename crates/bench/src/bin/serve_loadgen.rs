//! Closed-loop load generator for the serving layer.
//!
//! Fits a `ClusterModel` over a synthetic mixture once, then sweeps the
//! server over thread counts and cache sizes. Each configuration runs `C`
//! closed-loop client threads (a client blocks on every `assign` round
//! trip, so offered load self-throttles to service capacity — classic
//! closed-loop benchmarking) over a skewed query pool: a minority of hot
//! queries repeat, which is what gives a non-zero cache hit rate at
//! realistic quantization.
//!
//! Reported per configuration: sustained throughput, mean micro-batch
//! size (the batching win appears as soon as clients outnumber workers),
//! cache hit rate, p50/p99 end-to-end latency, and the two load-shedding
//! counters — `shed` (submits refused with `Busy` at a deliberately tight
//! queue) and `timeouts` (requests that outwaited the per-request
//! deadline and were answered with `Timeout` instead of being served).
//!
//! A final scenario hammers the server while hot-swapping between two
//! model generations (base fit vs ingested successor) and checks every
//! response against both generations' precomputed ground truth: across
//! the swaps, zero requests may be dropped and zero answers may match
//! neither generation. `swap`'s test gates the same scenario at a small size.
//!
//! ```text
//! cargo run --release -p lshddp-bench --bin serve_loadgen [-- --scale f --seed n]
//! ```

use ddp::prelude::*;
use lshddp_bench::{print_table, ExpArgs};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serve::{ClusterModel, QueryEngine, ServeError, Server, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const QUERIES_PER_CLIENT: usize = 4_000;
const POOL: usize = 4_096;
const HOT_FRACTION: f64 = 0.10; // hottest 10% of the pool ...
const HOT_WEIGHT: f64 = 0.80; // ... serve 80% of the picks

fn main() {
    // Scale 1.0 = 12,000 training points; --scale shrinks the fit.
    let args = ExpArgs::parse(1.0);
    let n_per = ((3_000.0 * args.scale) as usize).max(200);
    let ld = datasets::gaussian_mixture(4, 4, n_per, 120.0, 2.0, args.seed);
    let ds = &ld.data;
    let dc = dp_core::cutoff::estimate_dc_sampled(ds, 0.02, 100_000, args.seed);

    let ddp = LshDdp::with_accuracy(0.99, 10, 3, dc, args.seed).expect("valid params");
    let params = ddp.config().params;
    let report = ddp.run(ds, dc);
    let outcome = CentralizedStep::new(PeakSelection::TopK(4)).run(&report.result);
    let model = ClusterModel::from_run(ds, &report, &outcome, &params, args.seed);
    println!(
        "serve loadgen — model: {} points x {} dims, {} clusters, d_c = {dc:.4}",
        model.len(),
        model.dim(),
        model.n_clusters()
    );

    // A fixed query pool: training points plus small jitter, so queries
    // exercise the LSH path rather than the trivial self-match.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5eed);
    let pool: Vec<Vec<f64>> = (0..POOL)
        .map(|_| {
            let id = rng.random_range(0..model.len()) as u32;
            model
                .point(id)
                .iter()
                .map(|&x| x + rng.random_range(-0.05..0.05) * dc)
                .collect()
        })
        .collect();

    let mut rows = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        for &cache in &[0usize, 16_384] {
            let clients = threads * 4;
            let engine = QueryEngine::new(model.clone());
            let server = Server::start(
                engine,
                ServerConfig {
                    threads,
                    // Tight queue + generous deadline: shedding is visible
                    // under load, timeouts only under real pathology.
                    queue_depth: clients.div_ceil(2),
                    max_batch: 32,
                    cache_capacity: cache,
                    deadline: Some(Duration::from_millis(250)),
                    ..ServerConfig::default()
                },
            );

            let shed = AtomicU64::new(0);
            let start = Instant::now();
            std::thread::scope(|s| {
                for c in 0..clients {
                    let client = server.client();
                    let pool = &pool;
                    let shed = &shed;
                    let mut rng = StdRng::seed_from_u64(args.seed + c as u64);
                    s.spawn(move || {
                        let hot = ((POOL as f64 * HOT_FRACTION) as usize).max(1);
                        for _ in 0..QUERIES_PER_CLIENT {
                            let i = if rng.random_bool(HOT_WEIGHT) {
                                rng.random_range(0..hot)
                            } else {
                                rng.random_range(0..POOL)
                            };
                            // Open-loop submit with retry: a full queue is
                            // counted as shed and retried; a timed-out
                            // request is simply lost (the server already
                            // counted it).
                            loop {
                                match client.try_assign(&pool[i]) {
                                    Ok(_) | Err(ServeError::Timeout) => break,
                                    Err(ServeError::Busy) => {
                                        shed.fetch_add(1, Ordering::Relaxed);
                                        std::thread::yield_now();
                                    }
                                    Err(e) => panic!("server died: {e}"),
                                }
                            }
                        }
                    });
                }
            });
            let elapsed = start.elapsed().as_secs_f64();
            let stats = server.stats();
            server.shutdown();

            let total = (clients * QUERIES_PER_CLIENT) as f64;
            rows.push(vec![
                threads.to_string(),
                clients.to_string(),
                cache.to_string(),
                format!("{:.0}", total / elapsed),
                format!("{:.2}", stats.mean_batch_size),
                format!("{:.1}%", stats.cache_hit_rate * 100.0),
                format!("{:.0}", stats.p50_latency_us),
                format!("{:.0}", stats.p99_latency_us),
                shed.load(Ordering::Relaxed).to_string(),
                stats.timed_out.to_string(),
            ]);
        }
    }

    print_table(
        &[
            "threads",
            "clients",
            "cache",
            "qps",
            "mean batch",
            "hit rate",
            "p50 µs",
            "p99 µs",
            "shed",
            "timeouts",
        ],
        &rows,
    );

    // Swap-under-sustained-traffic: 5 hot-swaps spaced through the run,
    // every answer checked against both generations' ground truth.
    let swap = lshddp_bench::swap::swap_under_load(
        args.seed,
        ((800.0 * args.scale) as usize).max(100),
        4,
        5,
        QUERIES_PER_CLIENT / 2,
    );
    println!();
    println!(
        "hot-swap under load — {} clients on {} workers, {} swaps mid-traffic",
        swap.clients, swap.threads, swap.swaps
    );
    println!(
        "  {} queries at {:.0} qps: {} dropped, {} incorrect \
         ({} answered by gen A, {} by gen B, {} busy-retries)",
        swap.queries_total,
        swap.qps,
        swap.dropped,
        swap.incorrect,
        swap.matched_gen_a,
        swap.matched_gen_b,
        swap.shed_retries
    );
    assert_eq!(swap.dropped, 0, "hot-swap dropped requests");
    assert_eq!(swap.incorrect, 0, "hot-swap served a torn answer");

    // SLO burn-rate drill: one worker, an unreachable 1 µs objective, so
    // every request breaches and both burn windows saturate. The monitor
    // must flip the server into degraded mode, degraded shedding must
    // kick in (`slo shed`), and the p99 of requests actually served must
    // stay under the 250 ms deadline the SLO protects.
    let objective_ms = 0.001;
    let deadline = Duration::from_millis(250);
    let server = Server::start(
        QueryEngine::new(model.clone()),
        ServerConfig {
            threads: 1,
            queue_depth: 64,
            max_batch: 32,
            cache_capacity: 0,
            deadline: Some(deadline),
            slo: Some(obsv::SloConfig {
                objective_ns: (objective_ms * 1e6) as u64,
                target: 0.9,
                fast_window: Duration::from_millis(20),
                slow_window: Duration::from_millis(100),
                burn_threshold: 1.0,
                tick: Duration::from_millis(5),
            }),
            ..ServerConfig::default()
        },
    );
    let mut degraded = false;
    let give_up = Instant::now() + Duration::from_secs(30);
    let done = AtomicU64::new(0);
    let drill_clients = 4u64;
    std::thread::scope(|s| {
        for c in 0..drill_clients {
            let client = server.client();
            let (pool, done) = (&pool, &done);
            s.spawn(move || {
                for i in 0..QUERIES_PER_CLIENT / 4 {
                    // Timeouts are the expected answer while degraded;
                    // only a wall-clock blowout ends a client early.
                    let q = &pool[(c as usize + i * 7) % POOL];
                    if client.assign(q).is_err() && Instant::now() > give_up {
                        break;
                    }
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        while Instant::now() < give_up && done.load(Ordering::Relaxed) < drill_clients {
            if server.slo_degraded() {
                degraded = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    });
    degraded |= server.slo_degraded();
    let snap = server.registry().snapshot();
    let stats = server.stats();
    server.shutdown();

    println!();
    println!("SLO burn-rate drill — 1 worker, {objective_ms} ms objective (unreachable)");
    print_table(
        &[
            "objective ms",
            "degraded",
            "slo shed",
            "timeouts",
            "served",
            "p99 ms",
            "fast burn",
            "slow burn",
        ],
        &[vec![
            format!("{objective_ms}"),
            degraded.to_string(),
            snap.counters["slo_shed"].to_string(),
            stats.timed_out.to_string(),
            stats.queries.to_string(),
            format!("{:.2}", stats.p99_latency_us / 1e3),
            format!("{:.1}", snap.gauges["slo.fast_burn_milli"] as f64 / 1e3),
            format!("{:.1}", snap.gauges["slo.slow_burn_milli"] as f64 / 1e3),
        ]],
    );
    assert!(
        degraded || snap.counters["slo_shed"] > 0,
        "burn-rate monitor never degraded the overloaded server"
    );
    assert!(
        stats.p99_latency_us / 1e3 <= deadline.as_millis() as f64,
        "SLO shedding failed to keep served p99 under the deadline"
    );
}
