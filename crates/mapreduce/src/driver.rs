//! The driver program: the scheduler that executes dataflow plans.
//!
//! A MapReduce algorithm is usually a *pipeline* — the paper's LSH-DDP is
//! four jobs plus a centralized step. [`Driver`] is the master-node side of
//! that: it owns the [`Dfs`], executes [`Plan`]s stage by stage (recording
//! every stage's [`JobMetrics`] automatically), applies the cross-stage
//! optimization the plan layer declares — co-partitioned shuffle elision,
//! see [`crate::plan`](mod@crate::plan) — and reports pipeline-level
//! aggregates (total shuffle bytes, summed job metrics).
//!
//! ## Bounded-memory execution
//!
//! A driver built with [`Driver::with_mem_budget`] carries a
//! [`MemoryGovernor`]: an admission controller that keeps the resident
//! footprint of in-flight shuffle data under a byte budget. Map tasks
//! charge their partitioned output against the budget and spill completed
//! buckets to the [`Dfs`] disk tier when over it; reduce tasks pass
//! through an admission gate that delays decoding spilled partitions until
//! enough charged bytes have been released. The governor never reorders
//! records — spilling moves a task's output to disk wholesale and streams
//! it back in the same task/bucket order, so budgeted and unbudgeted runs
//! are bit-identical.

use crate::counters::JobMetrics;
use crate::dfs::Dfs;
use crate::plan::{CheckpointCtx, ExecCtx, PartitionCache, Plan};
use crate::spill::{Rows, SegmentWriter};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Admission controller for bounded-memory plan execution.
///
/// Tracks the bytes of shuffle data currently resident in memory
/// ("charged"), decides when map output should spill to the [`Dfs`] disk
/// tier, and gates reduce-side decode of spilled partitions so that
/// concurrent reduce tasks cannot collectively blow the budget. A budget
/// of `0` is a deterministic always-spill mode used by tests: every
/// governed map task spills and reduce admission serializes.
///
/// Exported telemetry (process-global registry): counter
/// `mem.spill_bytes`, gauge `mem.budget_bytes`, histogram
/// `mem.backpressure_stall_ns`.
pub struct MemoryGovernor {
    budget: u64,
    dfs: Arc<Dfs>,
    /// Bytes of shuffle data currently charged as memory-resident.
    resident: AtomicU64,
    /// Total bytes moved to the disk tier under pressure.
    spilled: AtomicU64,
    /// Total nanoseconds tasks spent stalled at the admission gate.
    stall_ns: AtomicU64,
    /// Set when a spill write failed with ENOSPC: the spill tier is out
    /// of disk, so the run degrades to resident execution instead of
    /// retrying a full disk on every task (counter
    /// `spill.enospc_fallbacks`, plus a `--stats` warning line).
    spill_disabled: AtomicBool,
    /// ENOSPC fallbacks recorded on this governor.
    enospc_fallbacks: AtomicU64,
    /// Number of currently admitted reduce tasks; the condvar wakes
    /// waiters when one retires or charged bytes are released.
    active: Mutex<usize>,
    cv: Condvar,
}

impl MemoryGovernor {
    /// A governor enforcing `budget` bytes over `dfs`'s spill tier.
    pub fn new(budget: u64, dfs: Arc<Dfs>) -> Self {
        MemoryGovernor {
            budget,
            dfs,
            resident: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
            stall_ns: AtomicU64::new(0),
            spill_disabled: AtomicBool::new(false),
            enospc_fallbacks: AtomicU64::new(0),
            active: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// The configured budget in bytes (0 = always spill).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes of shuffle data currently charged as resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Total bytes spilled to disk under pressure so far.
    pub fn spill_bytes(&self) -> u64 {
        self.spilled.load(Ordering::Relaxed)
    }

    /// Total nanoseconds spent stalled at the admission gate so far.
    pub fn stall_ns(&self) -> u64 {
        self.stall_ns.load(Ordering::Relaxed)
    }

    /// Charges `bytes` of freshly materialized shuffle data.
    pub(crate) fn charge(&self, bytes: u64) {
        if bytes > 0 {
            self.resident.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Releases `bytes` previously charged (saturating: a release can race
    /// a concurrent spill of the same logical data, and under-counting
    /// pressure is safer than wrapping).
    pub(crate) fn uncharge(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let _ = self
            .resident
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
        // Released bytes may unblock admission waiters.
        drop(self.active.lock().unwrap());
        self.cv.notify_all();
    }

    /// Whether resident shuffle data should move to disk now. Spilling
    /// starts at the *half-budget* high watermark, not at the budget
    /// itself: data waiting for the shuffle must leave headroom for the
    /// reduce phase's decoded buckets and working sets, which is what
    /// keeps the whole-process peak near the budget instead of at
    /// `budget + working set`.
    ///
    /// `kept` is resident data the caller is about to hold past the
    /// release of its charge — the partition cache's share of a stage's
    /// buckets, which outlives the stage's reducers. The ledger forgets
    /// it then, so it weighs on the heap watermark.
    pub(crate) fn should_spill(&self, kept: u64) -> bool {
        if self.spill_disabled.load(Ordering::Relaxed) {
            return false;
        }
        if self.budget == 0 {
            return true;
        }
        let watermark = self.budget / 2;
        if self.resident.load(Ordering::Relaxed) > watermark {
            return true;
        }
        // When the heap profiler is live, the whole process heap counts —
        // it sees allocations (dataset, index structures) the shuffle
        // accounting can't.
        obsv::alloc::accounting_enabled()
            && obsv::alloc::current_bytes().saturating_add(kept) > watermark
    }

    /// Whether the spill tier has been disabled for this run (ENOSPC
    /// degradation): the run continues resident instead of aborting.
    pub fn spill_disabled(&self) -> bool {
        self.spill_disabled.load(Ordering::Relaxed)
    }

    /// ENOSPC fallbacks recorded so far (0 or 1 per governor: the first
    /// one disables the tier).
    pub fn enospc_fallbacks(&self) -> u64 {
        self.enospc_fallbacks.load(Ordering::Relaxed)
    }

    /// Reacts to a failed spill write. The caller has already fallen
    /// back to keeping the data resident (correctness never depends on
    /// the disk); this decides whether the *tier* stays usable. ENOSPC
    /// is persistent — retrying it on every subsequent task would only
    /// burn syscalls on a full disk — so it disables the tier for the
    /// rest of the run and counts a `spill.enospc_fallbacks`. Transient
    /// errors (e.g. an EIO that survived the shim's retries) leave the
    /// tier enabled: the next spill may well succeed.
    pub(crate) fn note_spill_error(&self, e: &std::io::Error) {
        if crate::io_shim::is_enospc(e) && !self.spill_disabled.swap(true, Ordering::Relaxed) {
            self.enospc_fallbacks.fetch_add(1, Ordering::Relaxed);
            obsv::metrics::global()
                .counter("spill.enospc_fallbacks")
                .inc(1);
        }
    }

    /// Records `bytes` moved to the disk tier.
    pub(crate) fn note_spill(&self, bytes: u64) {
        self.spilled.fetch_add(bytes, Ordering::Relaxed);
        obsv::metrics::global()
            .counter("mem.spill_bytes")
            .inc(bytes);
    }

    /// Opens a spill segment in the driver DFS's disk tier.
    pub(crate) fn segment(&self, label: &str) -> std::io::Result<SegmentWriter> {
        self.dfs.spill_segment(label)
    }

    /// Admission gate for one reduce task that needs to decode
    /// `decode_bytes` of spilled data back into memory (and already holds
    /// `release_mem_bytes` of charged resident parts). Blocks while other
    /// admitted tasks hold the budget; a lone task is always admitted, so
    /// the gate cannot deadlock. The returned guard releases both charges
    /// and retires the admission slot when dropped.
    ///
    /// The reservation is `DECODE_HEADROOM x decode_bytes`, not the raw
    /// decode size: a reduce task's real footprint is the decoded records
    /// plus the sort/group value copies plus whatever the reducer builds
    /// from them (flattened coordinate buffers, spatial indexes) — all
    /// proportional to the decoded bytes. Reserving only the decode size
    /// would let concurrent tasks collectively overshoot the budget by
    /// exactly that working-set multiple.
    pub(crate) fn admit(
        self: &Arc<Self>,
        decode_bytes: u64,
        release_mem_bytes: u64,
        job_stall: &AtomicU64,
    ) -> AdmitGuard {
        /// Empirical resident-bytes-per-decoded-byte of a reduce task:
        /// the decoded `Vec`, the grouped value copies, one
        /// reducer-built derived structure of similar size, and slack
        /// for allocator rounding on the three of them.
        const DECODE_HEADROOM: u64 = 4;
        let reserve = decode_bytes.saturating_mul(DECODE_HEADROOM);
        let start = Instant::now();
        let mut waited = false;
        {
            let mut active = self.active.lock().unwrap();
            while *active > 0
                && self
                    .resident
                    .load(Ordering::Relaxed)
                    .saturating_add(reserve)
                    > self.budget
            {
                // Timed wait: releases also arrive via `uncharge` on the
                // map side, whose notify can race this check.
                active = self
                    .cv
                    .wait_timeout(active, Duration::from_millis(2))
                    .unwrap()
                    .0;
                waited = true;
            }
            *active += 1;
            // Charge under the lock so concurrent waiters see the new
            // resident total before they re-check.
            self.charge(reserve);
        }
        if waited {
            let ns = start.elapsed().as_nanos() as u64;
            job_stall.fetch_add(ns, Ordering::Relaxed);
            self.stall_ns.fetch_add(ns, Ordering::Relaxed);
            obsv::metrics::global()
                .histogram("mem.backpressure_stall_ns")
                .record(ns);
        }
        AdmitGuard {
            governor: Arc::clone(self),
            release: reserve.saturating_add(release_mem_bytes),
        }
    }

    /// Bounded pacing hook for the executor: briefly delays the next
    /// chunk while the process is over budget, giving in-flight releases
    /// a chance to land. Never blocks indefinitely (the scheduler must
    /// keep making progress to produce those releases).
    pub fn pace_chunk(&self) {
        if self.budget == 0 {
            return;
        }
        let start = Instant::now();
        let mut paced = false;
        for _ in 0..4 {
            let over = self.resident.load(Ordering::Relaxed) > self.budget
                || (obsv::alloc::accounting_enabled()
                    && obsv::alloc::current_bytes() > self.budget);
            if !over {
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
            paced = true;
        }
        if paced {
            let ns = start.elapsed().as_nanos() as u64;
            self.stall_ns.fetch_add(ns, Ordering::Relaxed);
            obsv::metrics::global()
                .histogram("mem.backpressure_stall_ns")
                .record(ns);
        }
    }
}

impl std::fmt::Debug for MemoryGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryGovernor")
            .field("budget", &self.budget)
            .field("resident", &self.resident_bytes())
            .field("spilled", &self.spill_bytes())
            .finish()
    }
}

/// RAII admission slot handed out by [`MemoryGovernor::admit`].
pub(crate) struct AdmitGuard {
    governor: Arc<MemoryGovernor>,
    release: u64,
}

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        self.governor.uncharge(self.release);
        let mut active = self.governor.active.lock().unwrap();
        *active = active.saturating_sub(1);
        drop(active);
        self.governor.cv.notify_all();
    }
}

/// The governor the executor's chunk gate paces against. `Weak` so a
/// dropped driver stops pacing instead of leaking its governor.
static ACTIVE_GOVERNOR: std::sync::Mutex<Weak<MemoryGovernor>> = std::sync::Mutex::new(Weak::new());
static CHUNK_GATE_INSTALLED: OnceLock<()> = OnceLock::new();

fn register_chunk_gate(governor: &Arc<MemoryGovernor>) {
    *ACTIVE_GOVERNOR.lock().unwrap() = Arc::downgrade(governor);
    CHUNK_GATE_INSTALLED.get_or_init(|| {
        rayon::set_chunk_admission_gate(Box::new(|| {
            let gov = ACTIVE_GOVERNOR.lock().unwrap().upgrade();
            if let Some(gov) = gov {
                gov.pace_chunk();
            }
        }));
    });
}

/// Pipeline driver: plan scheduler + DFS handle + job history.
///
/// The retained-partition cache lives on the driver, not on individual
/// plans, so a co-partitioning contract can span plan segments — pipelines
/// routinely interleave driver-side assembly (e.g. broadcasting aggregated
/// ρ values) between two plans that read the same snapshot.
pub struct Driver {
    dfs: Arc<Dfs>,
    history: Vec<JobMetrics>,
    cache: PartitionCache,
    elision: bool,
    checkpoints: bool,
    governor: Option<Arc<MemoryGovernor>>,
}

impl Driver {
    /// A fresh driver with an empty DFS, empty history, shuffle elision
    /// enabled, stage checkpointing disabled, and no memory budget.
    pub fn new() -> Self {
        Driver {
            dfs: Arc::new(Dfs::new()),
            history: Vec::new(),
            cache: PartitionCache::default(),
            elision: true,
            checkpoints: false,
            governor: None,
        }
    }

    /// Bounds the resident footprint of in-flight shuffle data to `bytes`,
    /// spilling to the DFS disk tier under pressure. `0` means
    /// always-spill (deterministic stress mode for tests). Outputs are
    /// bit-identical with or without a budget; only memory residency and
    /// wall time change.
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        let governor = Arc::new(MemoryGovernor::new(bytes, Arc::clone(&self.dfs)));
        obsv::metrics::global()
            .gauge("mem.budget_bytes")
            .set(bytes.min(i64::MAX as u64) as i64);
        register_chunk_gate(&governor);
        self.governor = Some(governor);
        self
    }

    /// The memory governor, if a budget was configured.
    pub fn mem_governor(&self) -> Option<&Arc<MemoryGovernor>> {
        self.governor.as_ref()
    }

    /// Enables or disables co-partitioned shuffle elision. Outputs are
    /// bit-identical either way; disabling exists for A/B measurement and
    /// paranoia.
    pub fn with_elision(mut self, on: bool) -> Self {
        self.elision = on;
        self
    }

    /// Whether the scheduler elides co-partitioned shuffles.
    pub fn elision(&self) -> bool {
        self.elision
    }

    /// Enables or disables stage-granular checkpointing.
    ///
    /// When on, every stage of [`Self::run_plan`] materializes its output
    /// rows into the driver's [`Dfs`] under `ckpt/<plan>/<stage>` right
    /// after completing, and a stage finding its own checkpoint already
    /// materialized (because a previous run of the same plan on this
    /// driver was killed mid-flight) skips execution and resumes from the
    /// stored rows. Checkpoints only survive *kills*: a plan that runs to
    /// completion clears its own, so re-running a finished plan recomputes
    /// from scratch. The bytes written are reported per stage as
    /// [`JobMetrics::checkpoint_bytes`].
    pub fn with_checkpoints(mut self, on: bool) -> Self {
        self.checkpoints = on;
        self
    }

    /// Whether stage checkpointing is on.
    pub fn checkpoints(&self) -> bool {
        self.checkpoints
    }

    /// Replaces the driver's DFS with a caller-supplied one. This is how
    /// a restarted driver sees the checkpoints a killed predecessor left
    /// behind: both are built over the same shared [`Dfs`]. An existing
    /// memory governor is rebound so its spill tier lands in the new DFS
    /// regardless of builder-call order.
    pub fn with_dfs(mut self, dfs: Arc<Dfs>) -> Self {
        self.dfs = dfs;
        if let Some(gov) = self.governor.take() {
            let rebound = Arc::new(MemoryGovernor::new(gov.budget(), Arc::clone(&self.dfs)));
            register_chunk_gate(&rebound);
            self.governor = Some(rebound);
        }
        self
    }

    /// The driver's distributed file system.
    pub fn dfs(&self) -> &Arc<Dfs> {
        &self.dfs
    }

    /// Executes a plan: runs every stage through the engine's phase
    /// machinery, auto-records each stage's [`JobMetrics`] into the
    /// history, and applies shuffle elision where stages declared
    /// co-partitioning contracts. Returns the final stage's output rows.
    pub fn run_plan<K, V>(&mut self, plan: Plan<K, V>) -> Vec<(K, V)>
    where
        K: Clone + 'static,
        V: Clone + 'static,
    {
        let Plan {
            name,
            source,
            source_id,
            stages,
            ..
        } = plan;
        let _plan_span = obsv::span!("plan", name.clone());
        let mut rows = source;
        let mut source = source_id;
        for (idx, stage) in stages.into_iter().enumerate() {
            let mut ctx = ExecCtx {
                elide: self.elision,
                cache: &mut self.cache,
                history: &mut self.history,
                checkpoint: self.checkpoints.then(|| CheckpointCtx {
                    dfs: Arc::clone(&self.dfs),
                    plan: name.clone(),
                    stage: idx,
                }),
                governor: self.governor.clone(),
            };
            let (next, next_source) = stage(&mut ctx, rows, source);
            rows = next;
            source = next_source;
        }
        // The plan completed: its checkpoints have served their purpose.
        // Clearing them here means checkpoints only ever survive a kill,
        // so a deliberate re-run of a finished plan starts fresh.
        if self.checkpoints {
            for path in self.dfs.list(&format!("ckpt/{name}/")) {
                self.dfs.remove(&path);
            }
        }
        Rows::into_vec(
            *rows
                .downcast::<Arc<Rows<K, V>>>()
                .expect("plan output row type mismatch"),
        )
    }

    /// Consumes the driver, returning the recorded job history.
    pub fn into_history(self) -> Vec<JobMetrics> {
        self.history
    }

    /// Metrics of every job run so far, in order.
    pub fn history(&self) -> &[JobMetrics] {
        &self.history
    }

    /// Aggregate metrics over the whole pipeline.
    pub fn totals(&self) -> JobMetrics {
        JobMetrics::aggregate(self.history.iter())
    }

    /// Total shuffled bytes across all jobs — the paper's Figure 10(b)
    /// quantity.
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.history.iter().map(|m| m.shuffle_bytes).sum()
    }
}

impl Default for Driver {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn job(name: &str, bytes: u64) -> JobMetrics {
        JobMetrics {
            name: name.into(),
            shuffle_bytes: bytes,
            wall_time: Duration::from_millis(1),
            ..Default::default()
        }
    }

    #[test]
    fn history_and_totals() {
        // `run_plan` is the only public recording path; these unit tests
        // of the history/aggregation mechanics seed it directly.
        let mut d = Driver::new();
        d.history.push(job("a", 100));
        d.history.push(job("b", 300));
        assert_eq!(d.history().len(), 2);
        assert_eq!(d.total_shuffle_bytes(), 400);
        assert_eq!(d.totals().shuffle_bytes, 400);
    }

    #[test]
    fn dfs_is_shared() {
        let d = Driver::new();
        d.dfs().put("x", vec![1u8]).unwrap();
        assert!(d.dfs().exists("x"));
    }
}
