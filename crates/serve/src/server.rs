//! The concurrent serving runtime: a bounded request queue, a pool of
//! worker threads draining it in micro-batches, and a sharded LRU answer
//! cache — wrapped around an immutable [`QueryEngine`].
//!
//! Design notes:
//!
//! * **Backpressure** — requests travel over a `sync_channel` of depth
//!   [`ServerConfig::queue_depth`]. A blocking [`Client::assign`] waits
//!   for a slot (closed-loop clients self-throttle); [`Client::try_assign`]
//!   surfaces [`ServeError::Busy`] instead, for open-loop callers that
//!   would rather shed load than queue it. An optional per-request
//!   deadline ([`ServerConfig::deadline`]) sheds requests from the other
//!   side: a worker that picks up a request which already outwaited its
//!   deadline answers [`ServeError::Timeout`] without doing the work.
//! * **Micro-batching** — a worker blocks for one request, then greedily
//!   drains up to [`ServerConfig::max_batch`]` - 1` more without blocking.
//!   Under load the queue is never empty, batches fill up, and the whole
//!   batch's cache misses are answered by one [`QueryEngine::assign_batch`]
//!   call — which resolves every non-finite query's center fallback in a
//!   single batched sweep ([`dp_core::distance::nearest_in_block`]).
//! * **Caching** — answers are memoized under the query's coordinates
//!   quantized to [`ServerConfig::cache_quantum`], sharded to keep lock
//!   contention off the hot path. Capacity 0 disables the cache.
//! * **Metrics** — every observable rides in an [`obsv::Registry`]:
//!   query/hit/miss/fallback counters plus log-linear histograms of
//!   end-to-end latency, queue wait, and micro-batch size, with handles
//!   resolved once at startup so the hot path touches only atomics.
//!   Summarized on demand as a [`ServiceStats`] — via [`Server::stats`],
//!   in-band through a [`Client::stats`] query, or as a raw registry
//!   snapshot from [`Server::registry`] (the `lshddp stats` view).

use crate::engine::{Assignment, QueryEngine};
use crate::store::ModelStore;
use obsv::{Counter, Gauge, Histogram, Registry, SloConfig, SloMonitor};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for the serving runtime.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (0 = one per hardware thread).
    pub threads: usize,
    /// Bounded request-queue depth; the backpressure limit.
    pub queue_depth: usize,
    /// Largest micro-batch a worker drains in one sweep.
    pub max_batch: usize,
    /// Total cached answers across all shards (0 disables caching).
    pub cache_capacity: usize,
    /// Number of independent cache shards.
    pub cache_shards: usize,
    /// Coordinate quantization step for cache keys: queries closer than
    /// this per coordinate share an entry.
    pub cache_quantum: f64,
    /// Per-request deadline, enforced at worker pickup: a request that
    /// already waited longer than this in the queue is shed with
    /// [`ServeError::Timeout`] before any work is spent on it. `None`
    /// disables the deadline.
    pub deadline: Option<Duration>,
    /// Latency SLO to monitor over the served-latency histogram. When
    /// set, a background thread evaluates multi-window burn rates
    /// ([`obsv::SloMonitor`]); while both windows burn hot the server
    /// enters a degraded mode that sheds queued requests older than
    /// half the objective — trading error responses for keeping the
    /// latency of *served* requests inside the objective, before p99
    /// breaches. `None` disables SLO feedback.
    pub slo: Option<SloConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 0,
            queue_depth: 1024,
            max_batch: 32,
            cache_capacity: 4096,
            cache_shards: 8,
            cache_quantum: 1e-6,
            deadline: None,
            slo: None,
        }
    }
}

/// Client-visible serving failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue is full (only from [`Client::try_assign`]).
    Busy,
    /// The request sat in the queue past [`ServerConfig::deadline`] and
    /// was shed without being served.
    Timeout,
    /// The server has shut down.
    Closed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy => write!(f, "request queue is full"),
            ServeError::Timeout => write!(f, "request deadline exceeded while queued"),
            ServeError::Closed => write!(f, "server is shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The service's instruments: one registry plus handles resolved once at
/// startup, so recording on the serve path is pure atomics (no name
/// lookups, no registry lock).
struct Metrics {
    registry: Arc<Registry>,
    queries: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    fallbacks: Arc<Counter>,
    batches: Arc<Counter>,
    batched_points: Arc<Counter>,
    bad_dimension: Arc<Counter>,
    timed_out: Arc<Counter>,
    /// Requests shed *only* because SLO-degraded mode tightened the
    /// effective deadline (a strict subset of `timed_out`).
    slo_shed: Arc<Counter>,
    /// Worst per-micro-batch peak resident heap bytes seen so far
    /// (0 until `obsv::alloc::enable_accounting` runs).
    batch_peak_bytes: Arc<Gauge>,
    stats_queries: Arc<Counter>,
    /// Successful hot-swaps ([`Server::swap`]) over the server's life.
    model_swaps: Arc<Counter>,
    /// Lineage version of the model currently being served.
    model_version: Arc<Gauge>,
    /// End-to-end latency (enqueue → reply), nanoseconds.
    latency_ns: Arc<Histogram>,
    /// Queue wait (enqueue → worker pickup), nanoseconds.
    queue_wait_ns: Arc<Histogram>,
    /// Assign requests per worker micro-batch sweep.
    batch_size: Arc<Histogram>,
}

impl Metrics {
    fn new() -> Self {
        let registry = Arc::new(Registry::new());
        Metrics {
            queries: registry.counter("queries"),
            cache_hits: registry.counter("cache_hits"),
            cache_misses: registry.counter("cache_misses"),
            fallbacks: registry.counter("fallbacks"),
            batches: registry.counter("batches"),
            batched_points: registry.counter("batched_points"),
            bad_dimension: registry.counter("bad_dimension"),
            timed_out: registry.counter("timed_out"),
            slo_shed: registry.counter("slo_shed"),
            batch_peak_bytes: registry.gauge("mem.batch_peak_bytes"),
            stats_queries: registry.counter("stats_queries"),
            model_swaps: registry.counter("model_swaps"),
            model_version: registry.gauge("model_version"),
            latency_ns: registry.histogram("latency_ns"),
            queue_wait_ns: registry.histogram("queue_wait_ns"),
            batch_size: registry.histogram("batch_size"),
            registry,
        }
    }
}

/// A point-in-time summary of the service metrics, derived from the
/// registry's counters and histograms.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Assign queries answered (cache hits included).
    pub queries: u64,
    /// Queries per second over the server's uptime.
    pub qps: f64,
    /// Fraction of queries answered from the cache.
    pub cache_hit_rate: f64,
    /// Mean micro-batch size (assign requests per worker sweep).
    pub mean_batch_size: f64,
    /// Median end-to-end latency (enqueue to reply) in µs, from the
    /// log-linear histogram (≤ 6.25% relative error).
    pub p50_latency_us: f64,
    /// 95th-percentile end-to-end latency, same convention.
    pub p95_latency_us: f64,
    /// 99th-percentile end-to-end latency, same convention.
    pub p99_latency_us: f64,
    /// Median queue wait (enqueue to worker pickup) in µs.
    pub p50_queue_wait_us: f64,
    /// 99th-percentile queue wait in µs.
    pub p99_queue_wait_us: f64,
    /// Queries answered by the exact nearest-center fallback.
    pub fallbacks: u64,
    /// Requests shed at worker pickup because they outwaited
    /// [`ServerConfig::deadline`] (not counted as queries).
    pub timed_out: u64,
    /// Time since the server started.
    pub uptime: Duration,
    /// The raw counter snapshot.
    pub counters: BTreeMap<String, u64>,
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "queries {}  qps {:.0}  cache hit rate {:.1}%  fallbacks {}  timed out {}",
            self.queries,
            self.qps,
            self.cache_hit_rate * 100.0,
            self.fallbacks,
            self.timed_out
        )?;
        writeln!(
            f,
            "mean batch {:.2}  latency p50 {:.0} µs  p95 {:.0} µs  p99 {:.0} µs",
            self.mean_batch_size, self.p50_latency_us, self.p95_latency_us, self.p99_latency_us
        )?;
        write!(
            f,
            "queue wait p50 {:.0} µs  p99 {:.0} µs  uptime {:.2?}",
            self.p50_queue_wait_us, self.p99_queue_wait_us, self.uptime
        )
    }
}

enum Request {
    Assign {
        point: Vec<f64>,
        enqueued: Instant,
        reply: SyncSender<Result<Assignment, ServeError>>,
    },
    Stats {
        reply: SyncSender<ServiceStats>,
    },
    Shutdown,
}

/// One LRU shard: key -> (recency stamp, answer) plus a recency index for
/// O(log n) eviction.
struct LruShard {
    map: HashMap<Vec<i64>, (u64, Assignment)>,
    order: BTreeMap<u64, Vec<i64>>,
    next_stamp: u64,
    capacity: usize,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        LruShard {
            map: HashMap::new(),
            order: BTreeMap::new(),
            next_stamp: 0,
            capacity,
        }
    }

    fn get(&mut self, key: &[i64]) -> Option<Assignment> {
        let stamp = self.next_stamp;
        let (old, answer) = {
            let (s, a) = self.map.get_mut(key)?;
            let old = std::mem::replace(s, stamp);
            (old, a.clone())
        };
        self.next_stamp += 1;
        let k = self.order.remove(&old).expect("recency index in sync");
        self.order.insert(stamp, k);
        Some(answer)
    }

    fn insert(&mut self, key: Vec<i64>, answer: Assignment) {
        if self.capacity == 0 {
            return;
        }
        if let Some((old, _)) = self.map.remove(&key) {
            self.order.remove(&old);
        } else if self.map.len() >= self.capacity {
            let (_, victim) = self.order.pop_first().expect("non-empty at capacity");
            self.map.remove(&victim);
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.insert(stamp, key.clone());
        self.map.insert(key, (stamp, answer));
    }
}

/// SLO feedback state shared between the monitor thread and the batch
/// path: the monitor plus the pre-computed degraded-mode deadline
/// (half the latency objective).
struct SloGate {
    monitor: Arc<SloMonitor>,
    tight: Duration,
}

struct Shared {
    store: Arc<ModelStore>,
    metrics: Metrics,
    shards: Vec<Mutex<LruShard>>,
    quantum: f64,
    deadline: Option<Duration>,
    slo: Option<SloGate>,
    started: Instant,
}

impl Shared {
    /// Cache keys lead with the model's lineage version, so a hot-swap
    /// structurally invalidates every answer cached under the previous
    /// model — a version-N entry can never satisfy a version-N+1 query.
    fn cache_key(&self, version: u64, point: &[f64]) -> Vec<i64> {
        let mut key = Vec::with_capacity(point.len() + 1);
        key.push(version as i64);
        key.extend(point.iter().map(|&x| (x / self.quantum).round() as i64));
        key
    }

    fn shard_of(&self, key: &[i64]) -> usize {
        // FNV-1a over the key words; any stable spreader works here.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in key {
            h ^= w as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    fn cache_get(&self, key: &[i64]) -> Option<Assignment> {
        if self.shards.is_empty() {
            return None;
        }
        self.shards[self.shard_of(key)].lock().get(key)
    }

    fn cache_put(&self, key: Vec<i64>, answer: Assignment) {
        if self.shards.is_empty() {
            return;
        }
        self.shards[self.shard_of(&key)].lock().insert(key, answer);
    }

    fn stats(&self) -> ServiceStats {
        let m = &self.metrics;
        let queries = m.queries.get();
        let uptime = self.started.elapsed();
        let us = |ns: u64| ns as f64 / 1_000.0;
        let latency = m.latency_ns.summary();
        let wait = m.queue_wait_ns.summary();

        ServiceStats {
            queries,
            qps: queries as f64 / uptime.as_secs_f64().max(1e-9),
            cache_hit_rate: if queries == 0 {
                0.0
            } else {
                m.cache_hits.get() as f64 / queries as f64
            },
            mean_batch_size: m.batch_size.summary().mean,
            p50_latency_us: us(latency.p50),
            p95_latency_us: us(latency.p95),
            p99_latency_us: us(latency.p99),
            p50_queue_wait_us: us(wait.p50),
            p99_queue_wait_us: us(wait.p99),
            fallbacks: m.fallbacks.get(),
            timed_out: m.timed_out.get(),
            uptime,
            counters: m.registry.snapshot().counters,
        }
    }
}

/// A cheap, cloneable handle submitting queries to a running [`Server`].
#[derive(Clone)]
pub struct Client {
    tx: SyncSender<Request>,
}

impl Client {
    /// Blocking round trip: enqueue (waiting for queue space if the
    /// server is saturated — that is the backpressure) and await the
    /// answer.
    pub fn assign(&self, point: &[f64]) -> Result<Assignment, ServeError> {
        let (reply, rx) = mpsc::sync_channel(1);
        self.tx
            .send(Request::Assign {
                point: point.to_vec(),
                enqueued: Instant::now(),
                reply,
            })
            .map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Non-blocking submit: fails with [`ServeError::Busy`] instead of
    /// waiting when the queue is full.
    pub fn try_assign(&self, point: &[f64]) -> Result<Assignment, ServeError> {
        let (reply, rx) = mpsc::sync_channel(1);
        let req = Request::Assign {
            point: point.to_vec(),
            enqueued: Instant::now(),
            reply,
        };
        match self.tx.try_send(req) {
            Ok(()) => rx.recv().map_err(|_| ServeError::Closed)?,
            Err(TrySendError::Full(_)) => Err(ServeError::Busy),
            Err(TrySendError::Disconnected(_)) => Err(ServeError::Closed),
        }
    }

    /// In-band metrics query: travels the same queue as assignments.
    pub fn stats(&self) -> Result<ServiceStats, ServeError> {
        let (reply, rx) = mpsc::sync_channel(1);
        self.tx
            .send(Request::Stats { reply })
            .map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)
    }
}

/// The running service: worker pool + queue + cache + counters.
pub struct Server {
    tx: Option<SyncSender<Request>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    shared: Arc<Shared>,
    slo_stop: Arc<AtomicBool>,
    slo_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool over `engine`, wrapped in a fresh
    /// single-generation [`ModelStore`]. Use [`Server::start_with_store`]
    /// to share a store with an external publisher (the ingest path).
    pub fn start(engine: QueryEngine, config: ServerConfig) -> Server {
        Server::start_with_store(Arc::new(ModelStore::new(engine)), config)
    }

    /// Starts the worker pool over an existing store; swaps published
    /// through the store (or [`Server::swap`]) take effect on the next
    /// micro-batch without draining the queue.
    pub fn start_with_store(store: Arc<ModelStore>, config: ServerConfig) -> Server {
        let threads = if config.threads == 0 {
            std::thread::available_parallelism().map_or(4, usize::from)
        } else {
            config.threads
        };
        let shards = if config.cache_capacity == 0 {
            Vec::new()
        } else {
            let n = config.cache_shards.max(1);
            let per_shard = (config.cache_capacity / n).max(1);
            (0..n)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect()
        };
        let metrics = Metrics::new();
        metrics.model_version.set(store.version() as i64);
        let slo = config.slo.clone().map(|cfg| SloGate {
            tight: Duration::from_nanos(cfg.objective_ns / 2),
            monitor: Arc::new(SloMonitor::new(
                cfg,
                Arc::clone(&metrics.latency_ns),
                &metrics.registry,
            )),
        });
        let shared = Arc::new(Shared {
            store,
            metrics,
            shards,
            quantum: config.cache_quantum.max(f64::MIN_POSITIVE),
            deadline: config.deadline,
            slo,
            started: Instant::now(),
        });

        // The burn-rate evaluator runs off the serve path, on its own
        // cadence; workers only read the monitor's degraded flag.
        let slo_stop = Arc::new(AtomicBool::new(false));
        let slo_thread = shared.slo.as_ref().map(|gate| {
            let monitor = Arc::clone(&gate.monitor);
            let stop = Arc::clone(&slo_stop);
            std::thread::Builder::new()
                .name("serve-slo".into())
                .spawn(move || {
                    let tick = monitor.cfg().tick;
                    while !stop.load(Ordering::Relaxed) {
                        monitor.tick();
                        std::thread::park_timeout(tick);
                    }
                })
                .expect("spawn slo monitor")
        });

        let (tx, rx) = mpsc::sync_channel::<Request>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let max_batch = config.max_batch.max(1);
        let workers = (0..threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared, max_batch))
                    .expect("spawn serve worker")
            })
            .collect();
        Server {
            tx: Some(tx),
            workers,
            shared,
            slo_stop,
            slo_thread,
        }
    }

    /// Hot-swaps the served model: publishes `engine` to the store and
    /// meters the transition (`model_swaps` counter, `model_version`
    /// gauge). Queued and in-flight requests finish on the engine their
    /// micro-batch resolved; every batch picked up afterwards serves the
    /// new version. Returns the new version.
    ///
    /// # Panics
    /// Panics if the replacement changes the query dimensionality.
    pub fn swap(&self, engine: QueryEngine) -> u64 {
        let fresh = self.shared.store.publish(engine);
        let version = fresh.model().version();
        self.shared.metrics.model_swaps.inc(1);
        self.shared.metrics.model_version.set(version as i64);
        version
    }

    /// The store this server resolves its engine from — share it with an
    /// ingest pipeline to publish new versions from outside.
    pub fn store(&self) -> Arc<ModelStore> {
        Arc::clone(&self.shared.store)
    }

    /// A new client handle.
    pub fn client(&self) -> Client {
        Client {
            tx: self.tx.as_ref().expect("server running").clone(),
        }
    }

    /// Out-of-band metrics snapshot (no queue round trip).
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// The service's metrics registry, for full-fidelity views (e.g. the
    /// `lshddp stats` text report) beyond the [`ServiceStats`] digest.
    pub fn registry(&self) -> &Registry {
        &self.shared.metrics.registry
    }

    /// An owning handle to the same registry, for consumers that outlive
    /// borrows of the server — e.g. the live `/metrics` exposition
    /// listener, which scrapes from its own threads.
    pub fn registry_arc(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.metrics.registry)
    }

    /// Whether SLO feedback currently has the server in degraded mode
    /// (always `false` without [`ServerConfig::slo`]).
    pub fn slo_degraded(&self) -> bool {
        self.shared
            .slo
            .as_ref()
            .is_some_and(|g| g.monitor.degraded())
    }

    /// Drains the queue, stops the workers, and joins them. Outstanding
    /// client handles error with [`ServeError::Closed`] afterwards.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.slo_stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.slo_thread.take() {
            h.thread().unpark();
            let _ = h.join();
        }
        let Some(tx) = self.tx.take() else { return };
        for _ in 0..self.workers.len() {
            // One sentinel per worker; each worker consumes exactly one.
            let _ = tx.send(Request::Shutdown);
        }
        drop(tx);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(rx: &Mutex<Receiver<Request>>, shared: &Shared, max_batch: usize) {
    loop {
        // Block for one request, then greedily drain a micro-batch. The
        // receiver lock is held only while draining, never while serving.
        let mut batch = Vec::with_capacity(max_batch);
        let mut exiting = false;
        {
            let guard = rx.lock();
            match guard.recv() {
                Ok(Request::Shutdown) => exiting = true,
                Ok(req) => batch.push(req),
                Err(_) => return,
            }
            while !exiting && batch.len() < max_batch {
                match guard.try_recv() {
                    Ok(Request::Shutdown) => exiting = true,
                    Ok(req) => batch.push(req),
                    Err(_) => break,
                }
            }
        }
        serve_batch(shared, batch);
        if exiting {
            return;
        }
    }
}

/// An assign request unpacked for batching: (point, enqueue time, reply
/// channel, cache key).
type PendingAssign = (
    Vec<f64>,
    Instant,
    SyncSender<Result<Assignment, ServeError>>,
    Vec<i64>,
);

/// Clamp a duration to a non-zero nanosecond count: sub-nanosecond reads
/// still count as one observation above zero, so quantiles of a fast
/// in-process path never collapse to 0.
fn nonzero_ns(d: Duration) -> u64 {
    (d.as_nanos() as u64).max(1)
}

fn serve_batch(shared: &Shared, batch: Vec<Request>) {
    let m = &shared.metrics;
    let mem = obsv::alloc::scope();
    let picked_up = Instant::now();
    // SLO feedback: while the burn-rate monitor holds the server
    // degraded, queued requests older than half the objective are shed
    // even if they are still inside the configured deadline — giving up
    // on work that would land near the objective anyway, so the requests
    // actually served stay comfortably under it.
    let slo_degraded = shared
        .slo
        .as_ref()
        .filter(|g| g.monitor.degraded())
        .map(|g| g.tight);
    let effective_deadline = match (shared.deadline, slo_degraded) {
        (Some(d), Some(t)) => Some(d.min(t)),
        (d, t) => d.or(t),
    };
    // Resolve the engine once per micro-batch: the whole batch is served
    // and cached under one model version, even if a hot-swap lands
    // mid-batch. The Arc keeps a swapped-out engine alive until the
    // batch drains.
    let engine = shared.store.current();
    let version = engine.model().version();
    let mut assigns: Vec<PendingAssign> = Vec::new();
    for req in batch {
        match req {
            Request::Assign {
                point,
                enqueued,
                reply,
            } => {
                let waited = picked_up.duration_since(enqueued);
                m.queue_wait_ns.record(nonzero_ns(waited));
                if effective_deadline.is_some_and(|d| waited > d) {
                    // Shed before any work: a caller past its deadline has
                    // given up, so serving it only steals capacity from
                    // requests that can still be answered in time.
                    m.timed_out.inc(1);
                    if shared.deadline.is_none_or(|d| waited <= d) {
                        // Only the SLO tightening shed this one.
                        m.slo_shed.inc(1);
                    }
                    let _ = reply.send(Err(ServeError::Timeout));
                    continue;
                }
                let key = shared.cache_key(version, &point);
                assigns.push((point, enqueued, reply, key));
            }
            Request::Stats { reply } => {
                m.stats_queries.inc(1);
                let _ = reply.send(shared.stats());
            }
            Request::Shutdown => unreachable!("sentinels never reach serve_batch"),
        }
    }
    if assigns.is_empty() {
        return;
    }

    m.queries.inc(assigns.len() as u64);
    m.batches.inc(1);
    m.batched_points.inc(assigns.len() as u64);
    m.batch_size.record(assigns.len() as u64);

    // Cache pass: answer hits immediately, gather misses into one flat
    // block for the batched engine call.
    let dim = engine.model().dim();
    let mut misses: Vec<usize> = Vec::new();
    let mut block: Vec<f64> = Vec::new();
    let mut answers: Vec<Option<Assignment>> = vec![None; assigns.len()];
    for (i, (point, _, _, key)) in assigns.iter().enumerate() {
        if point.len() != dim {
            // Dimension mismatches drop the reply, so the client sees
            // `Closed`. Counted so operators can spot misuse.
            m.bad_dimension.inc(1);
            continue;
        }
        if let Some(hit) = shared.cache_get(key) {
            m.cache_hits.inc(1);
            answers[i] = Some(hit);
        } else {
            m.cache_misses.inc(1);
            misses.push(i);
            block.extend_from_slice(point);
        }
    }

    if !misses.is_empty() {
        let fresh = engine.assign_batch(&block);
        for (&i, answer) in misses.iter().zip(fresh) {
            if answer.fallback {
                m.fallbacks.inc(1);
            }
            shared.cache_put(assigns[i].3.clone(), answer.clone());
            answers[i] = Some(answer);
        }
    }

    for ((_, enqueued, reply, _), answer) in assigns.iter().zip(answers) {
        if let Some(answer) = answer {
            m.latency_ns.record(nonzero_ns(enqueued.elapsed()));
            let _ = reply.send(Ok(answer));
        }
    }

    // Worst micro-batch footprint so far (racy max across workers is
    // fine: a lost update can only under-report by one batch's margin).
    let peak = mem.peak() as i64;
    if peak > m.batch_peak_bytes.get() {
        m.batch_peak_bytes.set(peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::fitted_model;

    fn small_server(cache_capacity: usize, threads: usize) -> Server {
        small_server_with(fitted_model(50, 21), cache_capacity, threads)
    }

    fn small_server_with(
        model: crate::ClusterModel,
        cache_capacity: usize,
        threads: usize,
    ) -> Server {
        Server::start(
            QueryEngine::new(model),
            ServerConfig {
                threads,
                queue_depth: 64,
                max_batch: 8,
                cache_capacity,
                cache_shards: 4,
                ..ServerConfig::default()
            },
        )
    }

    #[test]
    fn server_answers_match_the_engine() {
        let model = fitted_model(50, 21);
        let engine = QueryEngine::new(model.clone());
        let server = small_server(0, 2);
        let client = server.client();
        for id in (0..model.len() as u32).step_by(5) {
            let got = client.assign(model.point(id)).expect("answer");
            assert_eq!(got, engine.assign(model.point(id)), "point {id}");
        }
        server.shutdown();
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let server = small_server(512, 2);
        let client = server.client();
        let q = server.shared.store.current().model().point(3).to_vec();
        let first = client.assign(&q).expect("answer");
        for _ in 0..20 {
            assert_eq!(client.assign(&q).expect("answer"), first);
        }
        let stats = client.stats().expect("stats");
        assert_eq!(stats.queries, 21);
        assert!(stats.counters["cache_hits"] >= 20, "stats: {stats}");
        assert!(stats.qps > 0.0);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_all_get_correct_answers() {
        let model = fitted_model(60, 22);
        let engine = QueryEngine::new(model.clone());
        let server = small_server_with(model.clone(), 1024, 4);
        std::thread::scope(|s| {
            for t in 0..6 {
                let client = server.client();
                let model = &model;
                let engine = &engine;
                s.spawn(move || {
                    for round in 0..50 {
                        let id = ((t * 31 + round * 7) % model.len()) as u32;
                        let got = client.assign(model.point(id)).expect("answer");
                        assert_eq!(got.cluster, engine.assign(model.point(id)).cluster);
                    }
                });
            }
        });
        let stats = server.stats();
        assert_eq!(stats.queries, 6 * 50);
        assert!(stats.p50_latency_us > 0.0);
        server.shutdown();
    }

    #[test]
    fn expired_requests_are_shed_with_timeout() {
        let server = Server::start(
            QueryEngine::new(fitted_model(50, 21)),
            ServerConfig {
                threads: 1,
                queue_depth: 64,
                cache_capacity: 0,
                // Every request expires: the worker handoff always takes
                // longer than a zero deadline.
                deadline: Some(Duration::ZERO),
                ..ServerConfig::default()
            },
        );
        let client = server.client();
        let q = server.shared.store.current().model().point(0).to_vec();
        for _ in 0..10 {
            assert_eq!(client.assign(&q), Err(ServeError::Timeout));
        }
        let stats = server.stats();
        assert_eq!(stats.timed_out, 10);
        assert_eq!(stats.queries, 0, "shed requests are not queries");
        assert_eq!(stats.counters["timed_out"], 10);
        server.shutdown();
    }

    #[test]
    fn generous_deadline_leaves_answers_intact() {
        let model = fitted_model(50, 21);
        let engine = QueryEngine::new(model.clone());
        let server = Server::start(
            QueryEngine::new(model.clone()),
            ServerConfig {
                threads: 2,
                cache_capacity: 0,
                deadline: Some(Duration::from_secs(30)),
                ..ServerConfig::default()
            },
        );
        let client = server.client();
        for id in (0..model.len() as u32).step_by(7) {
            let got = client.assign(model.point(id)).expect("within deadline");
            assert_eq!(got, engine.assign(model.point(id)), "point {id}");
        }
        assert_eq!(server.stats().timed_out, 0);
        server.shutdown();
    }

    #[test]
    fn slo_burn_degrades_and_sheds_before_the_configured_deadline() {
        // An unreachable 1 µs objective: every in-process request
        // breaches, so both burn windows saturate and the monitor must
        // flip the overloaded server (four clients, one worker) into
        // degraded mode, which sheds queued work with `Timeout` whether
        // or not a deadline is configured. Under a deadline, the requests
        // still served must stay inside it.
        for deadline in [None, Some(Duration::from_millis(250))] {
            let server = Server::start(
                QueryEngine::new(fitted_model(50, 21)),
                ServerConfig {
                    threads: 1,
                    queue_depth: 64,
                    max_batch: 8,
                    cache_capacity: 0,
                    deadline,
                    slo: Some(SloConfig {
                        objective_ns: 1_000,
                        target: 0.9,
                        fast_window: Duration::from_millis(20),
                        slow_window: Duration::from_millis(100),
                        burn_threshold: 1.0,
                        tick: Duration::from_millis(5),
                    }),
                    ..ServerConfig::default()
                },
            );
            let q = server.shared.store.current().model().point(0).to_vec();
            let registry = server.registry_arc();
            let shed = || registry.snapshot().counters["slo_shed"];
            let give_up = Instant::now() + Duration::from_secs(30);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let (client, q, shed) = (server.client(), &q, &shed);
                    s.spawn(move || {
                        while shed() == 0 && Instant::now() < give_up {
                            match client.assign(q) {
                                Ok(_) | Err(ServeError::Timeout) => {}
                                Err(e) => panic!("unexpected serve error {e}"),
                            }
                        }
                    });
                }
            });
            let (shed, stats) = (shed(), server.stats());
            assert!(shed > 0, "sustained breach must trigger SLO shedding");
            assert!(stats.timed_out >= shed, "SLO sheds are part of timed_out");
            assert!(stats.queries > 0, "nothing was served before degrading");
            let bound_us = deadline.map_or(f64::INFINITY, |d| d.as_micros() as f64);
            assert!(
                stats.p99_latency_us <= bound_us,
                "served p99 over {deadline:?}"
            );
            assert!(
                registry.snapshot().gauges["slo.objective_ns"] == 1_000,
                "monitor gauges live in the serve registry"
            );
            server.shutdown();
        }
    }

    #[test]
    fn shutdown_closes_clients() {
        let server = small_server(0, 2);
        let client = server.client();
        let q = server.shared.store.current().model().point(0).to_vec();
        assert!(client.assign(&q).is_ok());
        server.shutdown();
        assert_eq!(client.assign(&q), Err(ServeError::Closed));
    }

    /// The same fitted model with every cluster label rotated by one —
    /// observationally different answers over identical geometry, which
    /// is exactly what a stale cache entry would leak.
    fn rotated_labels(model: &crate::ClusterModel, version: u64) -> crate::ClusterModel {
        let k = model.n_clusters() as u32;
        let labels = model.labels().iter().map(|&l| (l + 1) % k).collect();
        let peaks = (0..k)
            .map(|c| model.peaks()[((c + k - 1) % k) as usize])
            .collect();
        crate::ClusterModel::from_parts(
            version,
            model.algorithm().to_string(),
            model.dim(),
            model.dc(),
            *model.params(),
            model.seed(),
            model.coords().to_vec(),
            model.rhos().to_vec(),
            model.deltas().to_vec(),
            model.upslopes().to_vec(),
            labels,
            peaks,
            model.halos().to_vec(),
        )
    }

    #[test]
    fn hot_swap_never_serves_a_stale_cached_assignment() {
        let model = fitted_model(50, 23);
        let server = small_server_with(model.clone(), 512, 1);
        let client = server.client();
        let q = model.point(0).to_vec();

        // Warm the cache on version 1.
        let v1 = client.assign(&q).expect("v1 answer");
        for _ in 0..5 {
            assert_eq!(client.assign(&q).expect("cached"), v1);
        }
        let before = server.stats();
        assert!(before.counters["cache_hits"] >= 5);
        assert_eq!(before.counters["cache_misses"], 1);
        assert_eq!(before.counters["model_swaps"], 0);

        // Swap to a model that answers the same query differently.
        let k = model.n_clusters() as u32;
        let new_version = server.swap(QueryEngine::new(rotated_labels(&model, 2)));
        assert_eq!(new_version, 2);

        // The version-1 cache entry must not answer: the same query
        // misses the cache and gets the version-2 label.
        let v2 = client.assign(&q).expect("v2 answer");
        assert_eq!(
            v2.cluster,
            (v1.cluster + 1) % k,
            "served from the new model"
        );
        let after = server.stats();
        assert_eq!(
            after.counters["cache_misses"], 2,
            "the post-swap query cannot hit a version-1 entry"
        );
        assert_eq!(after.counters["model_swaps"], 1);

        // And the new version's own entry caches normally.
        assert_eq!(client.assign(&q).expect("cached v2"), v2);
        assert_eq!(server.stats().counters["cache_misses"], 2);
        server.shutdown();
    }

    #[test]
    fn swaps_take_effect_for_queued_work_without_a_drain() {
        let model = fitted_model(40, 24);
        let server = small_server_with(model.clone(), 0, 2);
        let client = server.client();
        let q = model.point(0).to_vec();
        let v1 = client.assign(&q).expect("v1");
        let m2 = rotated_labels(&model, 2);
        let m3 = rotated_labels(&m2, 3);
        server.swap(QueryEngine::new(m2));
        server.swap(QueryEngine::new(m3));
        // Two swaps, each rotating by one: labels moved by two in total.
        let v3 = client.assign(&q).expect("v3");
        let k = model.n_clusters() as u32;
        assert_eq!(v3.cluster, (v1.cluster + 2) % k);
        assert_eq!(server.stats().counters["model_swaps"], 2);
        server.shutdown();
    }

    #[test]
    fn lru_shard_evicts_least_recently_used() {
        let a = |c: u32| Assignment {
            cluster: c,
            confidence: 1.0,
            fallback: false,
            rho_estimate: 0,
            halo: false,
        };
        let mut shard = LruShard::new(2);
        shard.insert(vec![1], a(1));
        shard.insert(vec![2], a(2));
        assert!(shard.get(&[1]).is_some()); // refresh 1; 2 is now LRU
        shard.insert(vec![3], a(3));
        assert!(shard.get(&[2]).is_none(), "2 was evicted");
        assert_eq!(shard.get(&[1]).unwrap().cluster, 1);
        assert_eq!(shard.get(&[3]).unwrap().cluster, 3);
    }
}
