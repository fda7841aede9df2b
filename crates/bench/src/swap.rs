//! Hot-swap-under-sustained-traffic scenario: `serve_loadgen` prints it
//! as a human-readable report, and this module's test
//! (`hot_swaps_under_load_are_invisible_to_clients`) gates it at a small
//! size.
//!
//! The scenario exercises the whole model lifecycle at load: fit a base
//! model, derive a successor generation through an [`ingest::IngestSession`]
//! delta batch, then hammer a [`serve::Server`] with closed-loop clients
//! while a publisher thread hot-swaps between the two generations mid-run.
//! Every query's answer is checked against ground truth precomputed under
//! *both* generations offline — a response is correct iff it is exactly
//! the generation-A answer or the generation-B answer (epoch semantics: a
//! micro-batch that resolved its engine just before a swap may still
//! answer on the old generation; anything else is a torn read).
//!
//! The gate: at least `swaps` publications land while traffic is in
//! flight, zero requests are dropped, and zero responses are incorrect.

use ddp::prelude::*;
use ingest::{DeltaOp, IngestConfig, IngestSession};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serve::{Assignment, ClusterModel, QueryEngine, ServeError, Server, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Measured outcome of one swap-under-load run.
pub struct SwapBench {
    /// Worker threads in the server pool.
    pub threads: usize,
    /// Closed-loop client threads offering load.
    pub clients: usize,
    /// Hot-swaps published while clients were mid-run.
    pub swaps: u64,
    /// Total queries issued across all clients.
    pub queries_total: u64,
    /// Requests that never got an answer (timeout / server death).
    pub dropped: u64,
    /// Responses matching neither generation's precomputed answer.
    pub incorrect: u64,
    /// Responses bit-equal to the base generation's answer.
    pub matched_gen_a: u64,
    /// Responses bit-equal to the ingested generation's answer.
    pub matched_gen_b: u64,
    /// Submits refused with `Busy` and retried (sustained-load evidence).
    pub shed_retries: u64,
    /// Sustained throughput over the whole run.
    pub qps: f64,
}

/// Builds the two model generations: a fresh LSH-DDP fit (gen A) and the
/// same model pushed through an ingest batch — a handful of inserts near
/// an existing peak plus one delete — published as gen B. Gen B differs
/// from gen A in point count, densities, and lineage version, which is
/// exactly what a compaction-then-publish cycle swaps into the server.
fn two_generations(seed: u64, n_per: usize) -> (ClusterModel, ClusterModel) {
    let ld = datasets::gaussian_mixture(3, 3, n_per, 60.0, 1.2, seed);
    let ds = &ld.data;
    let dc = dp_core::cutoff::estimate_dc_sampled(ds, 0.02, 100_000, seed);
    let ddp = LshDdp::with_accuracy(0.99, 8, 3, dc, seed).expect("valid params");
    let params = ddp.config().params;
    let report = ddp.run(ds, dc);
    let outcome = CentralizedStep::new(PeakSelection::TopK(3)).run(&report.result);
    let gen_a = ClusterModel::from_run(ds, &report, &outcome, &params, seed);

    let mut session = IngestSession::new(
        &gen_a,
        IngestConfig {
            selection: PeakSelection::TopK(3),
            ..IngestConfig::default()
        },
    );
    let mut ops: Vec<DeltaOp> = (0..4)
        .map(|i| {
            let anchor = gen_a.point((i * 7) % gen_a.len() as u32);
            DeltaOp::Insert(anchor.iter().map(|&x| x + 0.01 * (i + 1) as f64).collect())
        })
        .collect();
    ops.push(DeltaOp::Delete(1));
    session.apply(ops).expect("ingest batch applies");
    (gen_a, session.publish())
}

/// Runs the scenario: `clients` closed-loop threads issue
/// `queries_per_client` skewed queries each against a `threads`-worker
/// server while a publisher thread lands `swaps` hot-swaps spaced evenly
/// through the traffic (each waits for the next slice of completed
/// queries, so every swap is guaranteed to happen *under* load).
pub fn swap_under_load(
    seed: u64,
    n_per: usize,
    threads: usize,
    swaps: u64,
    queries_per_client: usize,
) -> SwapBench {
    let (gen_a, gen_b) = two_generations(seed, n_per);
    let clients = threads * 4;
    let pool_n = 1024usize;

    // Fixed query pool: jittered training points, hot-skewed picks.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let pool: Vec<Vec<f64>> = (0..pool_n)
        .map(|_| {
            let id = rng.random_range(0..gen_a.len()) as u32;
            gen_a
                .point(id)
                .iter()
                .map(|&x| x + rng.random_range(-0.05..0.05) * gen_a.dc())
                .collect()
        })
        .collect();

    // Ground truth under each generation, computed offline. Correctness
    // under swap is "the answer some generation would give", nothing
    // weaker: torn or cross-version cache reads cannot pass this.
    let engine_a = QueryEngine::new(gen_a.clone());
    let engine_b = QueryEngine::new(gen_b.clone());
    let truth_a: Vec<Assignment> = pool.iter().map(|q| engine_a.assign(q)).collect();
    let truth_b: Vec<Assignment> = pool.iter().map(|q| engine_b.assign(q)).collect();

    let server = Server::start(
        QueryEngine::new(gen_a.clone()),
        ServerConfig {
            threads,
            queue_depth: clients,
            max_batch: 32,
            cache_capacity: 4_096,
            // No deadline: a dropped response must mean a real failure,
            // not an aggressive timeout.
            deadline: None,
            ..ServerConfig::default()
        },
    );

    let done = AtomicU64::new(0);
    let dropped = AtomicU64::new(0);
    let incorrect = AtomicU64::new(0);
    let matched_a = AtomicU64::new(0);
    let matched_b = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let swapped = AtomicU64::new(0);
    let total = (clients * queries_per_client) as u64;

    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let client = server.client();
            let (pool, truth_a, truth_b) = (&pool, &truth_a, &truth_b);
            let (done, dropped, incorrect) = (&done, &dropped, &incorrect);
            let (matched_a, matched_b, shed) = (&matched_a, &matched_b, &shed);
            let mut rng = StdRng::seed_from_u64(seed + c as u64);
            s.spawn(move || {
                for _ in 0..queries_per_client {
                    let i = if rng.random_bool(0.8) {
                        rng.random_range(0..pool.len() / 10)
                    } else {
                        rng.random_range(0..pool.len())
                    };
                    loop {
                        match client.try_assign(&pool[i]) {
                            Ok(ans) => {
                                if ans == truth_a[i] {
                                    matched_a.fetch_add(1, Ordering::Relaxed);
                                } else if ans == truth_b[i] {
                                    matched_b.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    incorrect.fetch_add(1, Ordering::Relaxed);
                                }
                                break;
                            }
                            Err(ServeError::Busy) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                            Err(_) => {
                                dropped.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // The publisher: each swap waits for the next slice of completed
        // queries, so all of them land strictly inside the traffic window.
        // Generations alternate B, A, B, ... each republication under a
        // fresh lineage version (the version-keyed response cache must
        // never serve generation A's answer labeled as B's).
        let server_ref = &server;
        let (done, swapped) = (&done, &swapped);
        s.spawn(move || {
            for k in 0..swaps {
                let gate = (k + 1) * total / (swaps + 1);
                while done.load(Ordering::Relaxed) < gate {
                    std::thread::yield_now();
                }
                let next = if k % 2 == 0 { &gen_b } else { &gen_a };
                let version = gen_b.version() + k + 1;
                server_ref.swap(QueryEngine::new(next.clone().with_version(version)));
                swapped.fetch_add(1, Ordering::Relaxed);
            }
        });
    });
    let elapsed = start.elapsed().as_secs_f64();
    let stats = server.stats();
    assert_eq!(stats.counters["model_swaps"], swaps);
    server.shutdown();

    SwapBench {
        threads,
        clients,
        swaps: swapped.load(Ordering::Relaxed),
        queries_total: total,
        dropped: dropped.load(Ordering::Relaxed),
        incorrect: incorrect.load(Ordering::Relaxed),
        matched_gen_a: matched_a.load(Ordering::Relaxed),
        matched_gen_b: matched_b.load(Ordering::Relaxed),
        shed_retries: shed.load(Ordering::Relaxed),
        qps: total as f64 / elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_swaps_under_load_are_invisible_to_clients() {
        let run = swap_under_load(42, 120, 4, 4, 400);
        assert!(run.swaps >= 3, "only {} swaps landed under load", run.swaps);
        assert_eq!(run.dropped, 0, "requests dropped across the swaps");
        assert_eq!(run.incorrect, 0, "answers matching neither generation");
        assert!(
            run.matched_gen_a > 0 && run.matched_gen_b > 0,
            "one generation never answered (A {}, B {}): the swaps missed the traffic",
            run.matched_gen_a,
            run.matched_gen_b
        );
    }
}
