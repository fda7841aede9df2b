//! The engine's phases — map → (combine) → partition → shuffle →
//! sort/group → reduce, each running on the Rayon thread pool — and the
//! knobs of one job. Every map task routes each record with [`partition`],
//! Hadoop's default `hash(key) mod R`; no stage supplies its own.
//!
//! A job is a one-stage [`Plan`](crate::plan::Plan): [`JobBuilder`] is the
//! [`Stage`] type, and [`Stage::run`] runs it alone on a fresh
//! [`Driver`](crate::driver::Driver). The plan scheduler's `execute_stage`
//! is the one caller of the phase functions below.
//!
//! The phases never ask where their data lives. A stage reads its input
//! through `spill::Rows` (one `read(start, end)` per map task), and map
//! tasks hand the shuffle one `spill::Part` per non-empty reduce bucket;
//! only those two types, in [`crate::spill`], tell resident from spilled.

use crate::counters::{JobMetrics, TaskTimes};
use crate::driver::MemoryGovernor;
use crate::fault::{FaultPlan, Phase};
use crate::plan::Stage;
use crate::record::ShuffleSize;
use crate::spill::{spill_parts, Part, Rows};
use crate::task::{Emitter, Mapper, Merge, MrKey, MrValue, Reducer};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The reduce task that receives `key`: Hadoop's default partitioner,
/// `hash(key) mod reducers`, with a fixed-seed SipHash so runs are
/// reproducible across processes.
pub fn partition<K: Hash>(key: &K, reducers: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % reducers as u64) as usize
}

/// Degree-of-parallelism and fault-injection knobs for one job.
#[derive(Debug, Clone, Copy)]
pub struct JobConfig {
    /// Number of map tasks the input is split into.
    pub map_tasks: usize,
    /// Number of reduce tasks (hash-partition buckets).
    pub reduce_tasks: usize,
    /// Optional deterministic fault injection: the plan's crash failures
    /// (retried transparently) and stragglers (see [`FaultPlan`]); its
    /// storage classes are the [`crate::io_shim::FaultFs`]'s business.
    pub chaos: Option<FaultPlan>,
}

impl Default for JobConfig {
    fn default() -> Self {
        let n = rayon::current_num_threads().max(1);
        JobConfig {
            map_tasks: n,
            reduce_tasks: n,
            chaos: None,
        }
    }
}

impl JobConfig {
    /// A config with `n` map and `n` reduce tasks, no fault injection.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "task count must be positive");
        JobConfig {
            map_tasks: n,
            reduce_tasks: n,
            chaos: None,
        }
    }
}

/// One MapReduce job: a [`Stage`] run alone as a one-stage plan with
/// [`Stage::run`]. The reducer's input key/value types must equal the
/// mapper's output types, checked at compile time.
pub type JobBuilder<M, R> = Stage<M, R>;

/// Per-job handle on the driver's [`MemoryGovernor`], plus cells
/// accumulating this job's spill volume and backpressure stall time for
/// [`JobMetrics`]. Without one a stage runs fully resident (outputs are
/// bit-identical either way).
pub(crate) struct SpillCtx {
    pub(crate) governor: Arc<MemoryGovernor>,
    job_spill: Arc<AtomicU64>,
    job_stall: Arc<AtomicU64>,
}

impl SpillCtx {
    pub(crate) fn new(governor: Arc<MemoryGovernor>) -> Self {
        SpillCtx {
            governor,
            job_spill: Arc::new(AtomicU64::new(0)),
            job_stall: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Copies this job's spill volume and stall time into its metrics.
    pub(crate) fn fill_metrics(&self, metrics: &mut JobMetrics) {
        metrics.spill_bytes = self.job_spill.load(Ordering::Relaxed);
        metrics.backpressure_stall_ns = self.job_stall.load(Ordering::Relaxed);
    }
}

impl<M, R> Stage<M, R>
where
    M: Mapper,
    R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
{
    /// Map phase (parallel over map tasks): each task reads its chunk of
    /// the input, maps it, applies the combiner, and partitions its output
    /// into one part per non-empty reduce bucket. Chunk boundaries depend
    /// only on the input length, so task assignment (and record order
    /// downstream) is the same wherever the rows live. Under a governor
    /// (`spill`), completed task parts are charged against the budget and
    /// spilled once it is exceeded. Fills `map_input_records`, `map_time`
    /// and `map_task_times`.
    pub(crate) fn map_phase(
        &self,
        input: Arc<Rows<M::InKey, M::InValue>>,
        spill: Option<&SpillCtx>,
        metrics: &mut JobMetrics,
        chaos: &ChaosCtx,
    ) -> Vec<MapTaskOut<M::OutKey, M::OutValue>>
    where
        M::InKey: Clone + Sync,
        M::InValue: Clone + Sync,
    {
        metrics.map_input_records = input.len() as u64;
        let r_tasks = self.config.reduce_tasks;
        let chunk = input.len().div_ceil(self.config.map_tasks).max(1);
        let mapper = &self.mapper;
        let combiner = self.combiner.as_deref();
        // Per-task attempt durations, recorded unconditionally (tasks are
        // coarse, two clock reads each are noise) and summarized into
        // `JobMetrics::map_task_times`.
        let map_task_ns = obsv::Histogram::new();

        let (map_outputs, map_dur) = obsv::timed_span(
            "phase",
            || format!("map:{}", self.name),
            || {
                let parent = obsv::current_span();
                let hist = &map_task_ns;
                let name = self.name.as_str();
                let ranges: Vec<(usize, usize)> = (0..input.len())
                    .step_by(chunk)
                    .map(|s| (s, (s + chunk).min(input.len())))
                    .collect();
                ranges
                    .into_par_iter()
                    .enumerate()
                    .map(|(task, (start, end))| {
                        let records = input.read(start, end);
                        obsv::with_parent(parent, move || {
                            let attempt = Instant::now();
                            let mut out = obsv::span!("task", format!("map-{task}") => {
                                chaos.run_task(Phase::Map, task, || {
                                    map_one_task(mapper, combiner, r_tasks, records)
                                })
                            });
                            hist.record(attempt.elapsed().as_nanos() as u64);
                            // The spill decision never changes record
                            // content or order, only where the bytes wait
                            // for the shuffle.
                            if let Some(ctx) = spill {
                                spill_task_under_pressure(ctx, name, &mut out);
                            }
                            out
                        })
                    })
                    .collect::<Vec<MapTaskOut<M::OutKey, M::OutValue>>>()
            },
        );
        metrics.map_time = map_dur;
        metrics.map_task_times = task_times(&map_task_ns);
        map_outputs
    }

    /// Shuffle: transpose the map-task outputs into one parts list per
    /// reducer, in map-task order. Parts move as handles — nothing is
    /// concatenated, copied or decoded here; the merge happens lazily in
    /// the reduce phase, one bucket at a time, which is what lets the
    /// governor bound how many buckets are resident at once. `charged`
    /// says whether the map phase charged its resident parts against a
    /// governor. Fills the map output / combine / shuffle counters and
    /// `shuffle_time`.
    pub(crate) fn shuffle_phase(
        &self,
        map_outputs: Vec<MapTaskOut<M::OutKey, M::OutValue>>,
        charged: bool,
        metrics: &mut JobMetrics,
    ) -> Vec<ReduceBucket<M::OutKey, M::OutValue>> {
        let r_tasks = self.config.reduce_tasks;
        let (reduce_inputs, shuffle_dur) = obsv::timed_span(
            "phase",
            || format!("shuffle:{}", self.name),
            || {
                let mut reduce_inputs: Vec<ReduceBucket<M::OutKey, M::OutValue>> = (0..r_tasks)
                    .map(|_| ReduceBucket {
                        parts: Vec::new(),
                        charged: 0,
                    })
                    .collect();
                for task_out in map_outputs {
                    metrics.map_output_records += task_out.emitted;
                    metrics.combine_output_records += task_out.combined;
                    for (r, part) in task_out.parts {
                        reduce_inputs[r].parts.push(part);
                    }
                }
                for rb in &mut reduce_inputs {
                    if charged {
                        rb.charged = rb.resident_bytes();
                    }
                    let records = rb.records();
                    metrics.shuffle_records += records;
                    metrics.max_reduce_task_records = metrics.max_reduce_task_records.max(records);
                    metrics.shuffle_bytes += rb.parts.iter().map(Part::bytes).sum::<u64>();
                }
                reduce_inputs
            },
        );
        metrics.shuffle_time = shuffle_dur;
        reduce_inputs
    }

    /// Sort/group + reduce phase (parallel over reduce tasks). Each task
    /// first *materializes* its bucket — concatenating its parts in
    /// map-task order — under the governor's admission control, so at
    /// most as many buckets are resident as the budget allows (always at
    /// least one: a lone task is admitted regardless, which keeps the loop
    /// deadlock-free). Fills the reduce counters, `reduce_time` and
    /// `reduce_task_times`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn reduce_phase(
        &self,
        reduce_inputs: Vec<ReduceBucket<M::OutKey, M::OutValue>>,
        spill: Option<&SpillCtx>,
        metrics: &mut JobMetrics,
        chaos: &ChaosCtx,
    ) -> Vec<(R::OutKey, R::OutValue)>
    where
        M::OutValue: Clone,
    {
        let reducer = &self.reducer;
        let reduce_task_ns = obsv::Histogram::new();
        // (groups, max group size, output records) per reduce task.
        type TaskOut<K, V> = (u64, u64, Vec<(K, V)>);
        let (reduced, reduce_dur) = obsv::timed_span(
            "phase",
            || format!("reduce:{}", self.name),
            || {
                let parent = obsv::current_span();
                let hist = &reduce_task_ns;
                reduce_inputs
                    .into_par_iter()
                    .enumerate()
                    .map(|(task, lazy_bucket)| {
                        obsv::with_parent(parent, move || {
                            let attempt = Instant::now();
                            // Admission: wait until the decoded bytes fit the
                            // budget (or this is the only active bucket). The
                            // guard releases the bucket's charge when the task
                            // completes.
                            let _admit = spill.map(|s| {
                                s.governor.admit(
                                    lazy_bucket.spilled_bytes(),
                                    lazy_bucket.charged,
                                    &s.job_stall,
                                )
                            });
                            let bucket = lazy_bucket.materialize();
                            let out = obsv::span!("task", format!("reduce-{task}") => {
                                chaos.run_task(
                                    Phase::Reduce,
                                    task,
                                    move || {
                                        let mut bucket = bucket;
                                        // Stable sort by key keeps value arrival
                                        // order deterministic (map-task index
                                        // order, preserved by the merge above).
                                        bucket.sort_by(|a, b| a.0.cmp(&b.0));
                                        let mut groups = 0u64;
                                        let mut max_group = 0u64;
                                        let mut emitter = Emitter::new();
                                        let mut it = bucket.into_iter().peekable();
                                        while let Some((key, first)) = it.next() {
                                            let mut values = vec![first];
                                            while it.peek().is_some_and(|(k, _)| *k == key) {
                                                values.push(it.next().expect("peeked").1);
                                            }
                                            groups += 1;
                                            max_group = max_group.max(values.len() as u64);
                                            reducer.reduce(&key, values, &mut emitter);
                                        }
                                        (groups, max_group, emitter.into_records())
                                    },
                                )
                            });
                            hist.record(attempt.elapsed().as_nanos() as u64);
                            out
                        })
                    })
                    .collect::<Vec<TaskOut<R::OutKey, R::OutValue>>>()
            },
        );

        let mut output = Vec::new();
        for (groups, max_group, records) in reduced {
            metrics.reduce_input_groups += groups;
            metrics.max_reduce_group = metrics.max_reduce_group.max(max_group);
            metrics.reduce_output_records += records.len() as u64;
            output.extend(records);
        }
        metrics.reduce_time = reduce_dur;
        metrics.reduce_task_times = task_times(&reduce_task_ns);
        output
    }
}

/// Output of one map task: one part per non-empty reduce bucket (empty
/// buckets get no part — at `map_tasks x reduce_tasks` scale their
/// metadata alone would rival a budget), plus the record counts before
/// and after combining.
pub(crate) struct MapTaskOut<K, V> {
    parts: Vec<(usize, Part<K, V>)>,
    emitted: u64,
    combined: u64,
}

/// One reduce task's input, kept as a lazy parts list in map-task order
/// until the reduce phase materializes it under admission control.
pub(crate) struct ReduceBucket<K, V> {
    parts: Vec<Part<K, V>>,
    /// Resident bytes charged against the governor on this bucket's
    /// behalf, released when its reduce task completes: the parts' bytes
    /// fresh out of a governed shuffle, 0 for the partition cache's share.
    charged: u64,
}

impl<K, V> ReduceBucket<K, V> {
    /// Records across all parts.
    pub(crate) fn records(&self) -> u64 {
        self.parts.iter().map(Part::records).sum()
    }

    /// Bytes held in memory.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.parts.iter().map(Part::resident_bytes).sum()
    }

    /// Bytes parked on disk, to be charged at materialization.
    fn spilled_bytes(&self) -> u64 {
        self.parts
            .iter()
            .map(|p| p.bytes() - p.resident_bytes())
            .sum()
    }

    /// The partition cache's share of this bucket: the same parts, so no
    /// record is copied. It is never governor-charged; its resident bytes
    /// belong to the cache, not to a running job.
    pub(crate) fn share(&self) -> Self
    where
        K: Clone,
        V: Clone,
    {
        ReduceBucket {
            parts: self.parts.clone(),
            charged: 0,
        }
    }
}

impl<K: MrKey, V: MrValue> ReduceBucket<K, V> {
    /// Concatenates the parts in map-task order. Record order is exactly
    /// what an eager shuffle merge would produce. A part the cache still
    /// shares is copied here, so at most one bucket per running reducer
    /// exists twice.
    pub(crate) fn materialize(self) -> Vec<(K, V)>
    where
        V: Clone,
    {
        let mut rows = Vec::with_capacity(self.records() as usize);
        for part in self.parts {
            part.read_into(&mut rows);
        }
        rows
    }

    /// Moves the resident parts to a spill segment (the partition cache's
    /// share, when retaining it in memory would breach the budget).
    /// Returns the bytes moved to disk.
    pub(crate) fn spill(&mut self, governor: &MemoryGovernor, label: &str) -> u64 {
        spill_parts(governor, label, &mut self.parts)
    }
}

/// One map task's body: map every record, combine, partition, and account
/// per-bucket shuffle bytes.
fn map_one_task<M: Mapper>(
    mapper: &M,
    combiner: Option<&(dyn Merge<Value = M::OutValue> + Send + Sync)>,
    r_tasks: usize,
    records: Vec<(M::InKey, M::InValue)>,
) -> MapTaskOut<M::OutKey, M::OutValue> {
    let mut emitter = Emitter::new();
    for (k, v) in records {
        mapper.map(k, v, &mut emitter);
    }
    let mut out = emitter.into_records();
    let emitted = out.len() as u64;

    if let Some(c) = combiner {
        out = run_combiner(c, out);
    }
    let combined = out.len() as u64;

    let mut buckets: Vec<Vec<(M::OutKey, M::OutValue)>> =
        (0..r_tasks).map(|_| Vec::new()).collect();
    let mut bucket_bytes = vec![0u64; r_tasks];
    for (k, v) in out {
        let b = partition(&k, r_tasks);
        bucket_bytes[b] += k.shuffle_bytes() + v.shuffle_bytes();
        buckets[b].push((k, v));
    }
    let parts = buckets
        .into_iter()
        .zip(bucket_bytes)
        .enumerate()
        .filter(|(_, (rows, _))| !rows.is_empty())
        .map(|(r, (rows, bytes))| {
            let rows = Arc::new(rows);
            (r, Part::Resident { rows, bytes })
        })
        .collect();
    MapTaskOut {
        parts,
        emitted,
        combined,
    }
}

/// Charges a completed map task's resident bytes against the budget and
/// spills its parts to a segment (one frame per reduce bucket) when the
/// governor reports pressure. A failed spill leaves them resident.
fn spill_task_under_pressure<K: MrKey, V: MrValue>(
    ctx: &SpillCtx,
    job: &str,
    out: &mut MapTaskOut<K, V>,
) {
    let total: u64 = out.parts.iter().map(|(_, p)| p.bytes()).sum();
    ctx.governor.charge(total);
    if total > 0 && ctx.governor.should_spill(0) {
        let moved = spill_parts(&ctx.governor, job, out.parts.iter_mut().map(|(_, p)| p));
        ctx.governor.uncharge(moved);
        ctx.job_spill.fetch_add(moved, Ordering::Relaxed);
    }
}

/// Compresses a phase's per-task duration histogram into the fixed
/// [`TaskTimes`] summary stored on [`JobMetrics`].
fn task_times(h: &obsv::Histogram) -> TaskTimes {
    let s = h.summary();
    TaskTimes {
        tasks: s.count,
        p50_ns: s.p50,
        p95_ns: s.p95,
        p99_ns: s.p99,
        max_ns: s.max,
    }
}

/// Speculation fires only after this many tasks of the phase completed
/// (the quantile is meaningless on fewer samples).
const SPECULATION_MIN_SAMPLES: usize = 3;
/// A task is declared a straggler for speculation once its projected
/// runtime exceeds this multiple of the phase's median completed-task
/// duration (Hadoop's speculative-execution heuristic, quantile form).
const SPECULATION_FACTOR: f64 = 2.0;

/// Per-job chaos state: the job's [`JobConfig::chaos`] plan, recovery
/// counters, and the completed-task duration samples speculation
/// thresholds are derived from.
///
/// Attempt accounting follows [`FaultPlan::task_wastage`]: tasks are
/// deterministic, so crashed attempts are charged to counters without
/// re-running bodies, and a task that exhausts its attempt budget kills
/// the job. Straggler delays are physically slept (capped by the plan) so
/// recovery behavior is observable in wall-clock metrics; a speculative
/// clone that wins the race against a straggler's injected delay cuts the
/// sleep short.
pub(crate) struct ChaosCtx {
    plan: Option<FaultPlan>,
    task_retries: AtomicU64,
    speculative_launched: AtomicU64,
    speculative_wins: AtomicU64,
    speculative_work_ns: AtomicU64,
    straggler_delay_ns: AtomicU64,
    /// Completed-task durations (ns) per phase, feeding the speculation
    /// threshold. Index 0 = map, 1 = reduce.
    completed_ns: [Mutex<Vec<u64>>; 2],
}

impl ChaosCtx {
    pub(crate) fn new(plan: Option<FaultPlan>) -> Self {
        ChaosCtx {
            plan,
            task_retries: AtomicU64::new(0),
            speculative_launched: AtomicU64::new(0),
            speculative_wins: AtomicU64::new(0),
            speculative_work_ns: AtomicU64::new(0),
            straggler_delay_ns: AtomicU64::new(0),
            completed_ns: [Mutex::new(Vec::new()), Mutex::new(Vec::new())],
        }
    }

    fn phase_slot(phase: Phase) -> usize {
        match phase {
            Phase::Map => 0,
            Phase::Reduce => 1,
        }
    }

    /// Speculation threshold for a phase: `SPECULATION_FACTOR` × the
    /// median completed-task duration, once enough samples exist.
    fn speculation_threshold(&self, phase: Phase) -> Option<Duration> {
        let done = self.completed_ns[Self::phase_slot(phase)].lock();
        if done.len() < SPECULATION_MIN_SAMPLES {
            return None;
        }
        let mut sorted = done.clone();
        drop(done);
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        Some(Duration::from_nanos(
            (median as f64 * SPECULATION_FACTOR) as u64,
        ))
    }

    /// Runs one task body under the plan.
    ///
    /// 1. Crashed attempts are charged to the counters; exhausting the
    ///    budget kills the job.
    /// 2. If the task is a scheduled straggler, it owes an injected delay.
    ///    Once the phase has enough completed samples and the projected
    ///    runtime crosses the quantile threshold, a speculative clone is
    ///    launched: the clone re-executes the (deterministic) body on a
    ///    healthy worker in roughly the task's natural time, and whichever
    ///    finishes first wins. The loser's burned work is charged to
    ///    `speculative_work_ns`.
    pub(crate) fn run_task<T>(&self, phase: Phase, task: usize, work: impl FnOnce() -> T) -> T {
        let Some(plan) = self.plan else {
            return work();
        };
        match plan.task_wastage(phase, task) {
            Some(failed) => {
                self.task_retries
                    .fetch_add(failed as u64, Ordering::Relaxed);
            }
            None => panic!(
                "{phase:?} task {task} failed {} consecutive attempts; job killed \
                 (like Hadoop after mapred.max.attempts)",
                plan.max_attempts
            ),
        }
        let start = Instant::now();
        let out = work();
        let natural = start.elapsed();
        if plan.is_straggler(phase, task) {
            let extra = plan.straggler_delay(natural);
            if !extra.is_zero() {
                self.handle_straggler(phase, natural, extra);
            }
        }
        self.completed_ns[Self::phase_slot(phase)]
            .lock()
            .push(natural.as_nanos() as u64);
        out
    }

    /// Serves a straggler's injected delay, racing a speculative clone
    /// against it when the threshold allows.
    fn handle_straggler(&self, phase: Phase, natural: Duration, extra: Duration) {
        let speculate = self
            .speculation_threshold(phase)
            .is_some_and(|threshold| natural + extra > threshold);
        if speculate {
            self.speculative_launched.fetch_add(1, Ordering::Relaxed);
            // The clone re-runs the deterministic body from scratch on a
            // healthy worker: it needs ~`natural` from launch, while the
            // original still owes `extra`. First result wins; the loser
            // is killed and its burned work is wasted.
            let clone_time = natural;
            if clone_time < extra {
                self.speculative_wins.fetch_add(1, Ordering::Relaxed);
                self.speculative_work_ns
                    .fetch_add(clone_time.as_nanos() as u64, Ordering::Relaxed);
                std::thread::sleep(clone_time);
            } else {
                self.speculative_work_ns
                    .fetch_add(extra.as_nanos() as u64, Ordering::Relaxed);
                self.straggler_delay_ns
                    .fetch_add(extra.as_nanos() as u64, Ordering::Relaxed);
                std::thread::sleep(extra);
            }
        } else {
            self.straggler_delay_ns
                .fetch_add(extra.as_nanos() as u64, Ordering::Relaxed);
            std::thread::sleep(extra);
        }
    }

    /// Copies the recovery counters into a job's metrics. Recovery events
    /// also flow into the global obsv registry, so chaos is visible in
    /// `--stats` reports without plumbing metrics by hand.
    pub(crate) fn fill_metrics(&self, metrics: &mut JobMetrics) {
        metrics.task_retries = self.task_retries.load(Ordering::Relaxed);
        metrics.speculative_launched = self.speculative_launched.load(Ordering::Relaxed);
        metrics.speculative_wins = self.speculative_wins.load(Ordering::Relaxed);
        metrics.speculative_work_ns = self.speculative_work_ns.load(Ordering::Relaxed);
        metrics.straggler_delay_ns = self.straggler_delay_ns.load(Ordering::Relaxed);
        for (name, n) in [
            ("task_retries", metrics.task_retries),
            ("speculative_launched", metrics.speculative_launched),
            ("speculative_wins", metrics.speculative_wins),
        ] {
            if n > 0 {
                obsv::global().counter(name).inc(n);
            }
        }
    }
}

/// Sorts a map task's output by key (stably, so each key's values keep
/// their emission order) and folds every run of equal keys into its first
/// record.
fn run_combiner<K: MrKey, V: MrValue>(
    combiner: &(dyn Merge<Value = V> + Send + Sync),
    mut records: Vec<(K, V)>,
) -> Vec<(K, V)> {
    records.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(K, V)> = Vec::with_capacity(records.len());
    for (k, v) in records {
        match out.last_mut() {
            Some((last, acc)) if *last == k => combiner.merge(acc, v),
            _ => out.push((k, v)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{FnMapper, FnReducer};

    fn wordcount_input() -> Vec<(u64, String)> {
        vec![
            (0, "the quick brown fox".to_string()),
            (1, "the lazy dog".to_string()),
            (2, "the fox".to_string()),
        ]
    }

    fn wordcount_job(
        config: JobConfig,
    ) -> JobBuilder<
        impl Mapper<InKey = u64, InValue = String, OutKey = String, OutValue = u64> + 'static,
        impl Reducer<InKey = String, InValue = u64, OutKey = String, OutValue = u64> + 'static,
    > {
        let m = FnMapper::new(|_k: u64, line: String, out: &mut Emitter<String, u64>| {
            for w in line.split_whitespace() {
                out.emit(w.to_string(), 1);
            }
        });
        let r = FnReducer::new(|k: &String, vs: Vec<u64>, out: &mut Emitter<String, u64>| {
            out.emit(k.clone(), vs.into_iter().sum());
        });
        JobBuilder::new("wordcount", m, r).config(config)
    }

    fn wordcount(input: Vec<(u64, String)>, config: JobConfig) -> (Vec<(String, u64)>, JobMetrics) {
        wordcount_job(config).run(input)
    }

    fn chaos_config(map_tasks: usize, reduce_tasks: usize, chaos: FaultPlan) -> JobConfig {
        JobConfig {
            map_tasks,
            reduce_tasks,
            chaos: Some(chaos),
        }
    }

    #[test]
    fn wordcount_is_correct() {
        let (mut out, metrics) = wordcount(wordcount_input(), JobConfig::uniform(2));
        out.sort();
        assert_eq!(
            out,
            vec![
                ("brown".to_string(), 1),
                ("dog".to_string(), 1),
                ("fox".to_string(), 2),
                ("lazy".to_string(), 1),
                ("quick".to_string(), 1),
                ("the".to_string(), 3),
            ]
        );
        assert_eq!(metrics.name, "wordcount");
        assert_eq!(metrics.map_input_records, 3);
        assert_eq!(metrics.map_output_records, 9);
        assert_eq!(metrics.shuffle_records, 9);
        assert_eq!(metrics.reduce_input_groups, 6);
        assert_eq!(metrics.reduce_output_records, 6);
    }

    #[test]
    fn output_is_deterministic_across_task_counts() {
        let (mut a, _) = wordcount(wordcount_input(), JobConfig::uniform(1));
        let (mut b, _) = wordcount(wordcount_input(), JobConfig::uniform(7));
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn combiner_reduces_shuffle_volume() {
        struct Sum;
        impl Merge for Sum {
            type Value = u64;
            fn merge(&self, acc: &mut u64, v: u64) {
                *acc += v;
            }
        }

        let (mut plain, m_plain) = wordcount_job(JobConfig::uniform(1)).run(wordcount_input());
        let (mut combined, m_combined) = wordcount_job(JobConfig::uniform(1))
            .combiner(Sum)
            .run(wordcount_input());
        plain.sort();
        combined.sort();
        assert_eq!(plain, combined, "combiner must not change results");
        assert!(m_combined.shuffle_records < m_plain.shuffle_records);
        assert!(m_combined.shuffle_bytes < m_plain.shuffle_bytes);
        assert_eq!(m_combined.map_output_records, m_plain.map_output_records);
    }

    #[test]
    fn shuffle_bytes_match_record_sizes() {
        // Single word "aa" (4+2=6 bytes key) + u64 (8 bytes) = 14 per record.
        let input = vec![(0u64, "aa aa".to_string())];
        let (_, metrics) = wordcount(input, JobConfig::uniform(1));
        assert_eq!(metrics.shuffle_bytes, 2 * (6 + 8));
    }

    #[test]
    fn values_arrive_grouped_and_key_ordered_per_bucket() {
        // With one reduce task the full output must be key-sorted.
        let input: Vec<(u32, u32)> = (0..100).map(|i| (i, i)).collect();
        let m = FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u32>| {
            out.emit(k % 10, v);
        });
        let r = FnReducer::new(|k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u32>| {
            // Values of key k are 10 numbers congruent to k mod 10, in map
            // order (ascending) because of the stable shuffle.
            assert_eq!(vs.len(), 10);
            assert!(vs.windows(2).all(|w| w[0] < w[1]));
            out.emit(*k, vs.into_iter().sum());
        });
        let (out, _) = JobBuilder::new("grouping", m, r)
            .config(JobConfig {
                map_tasks: 4,
                reduce_tasks: 1,
                chaos: None,
            })
            .run(input);
        let keys: Vec<u32> = out.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_runs_cleanly() {
        let (out, metrics) = wordcount(vec![], JobConfig::uniform(3));
        assert!(out.is_empty());
        assert_eq!(metrics.map_input_records, 0);
        assert_eq!(metrics.shuffle_bytes, 0);
    }

    #[test]
    fn skew_counters_report_largest_group_and_task() {
        // 90 records on one key, 10 on another.
        let mut input: Vec<(u32, u32)> = (0..90).map(|i| (7, i)).collect();
        input.extend((0..10).map(|i| (3, i)));
        let m = FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u32>| out.emit(k, v));
        let r = FnReducer::new(|k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u32>| {
            out.emit(*k, vs.len() as u32);
        });
        let (_, metrics) = JobBuilder::new("skewed", m, r)
            .config(JobConfig {
                map_tasks: 4,
                reduce_tasks: 2,
                chaos: None,
            })
            .run(input);
        assert_eq!(metrics.max_reduce_group, 90);
        assert!(metrics.max_reduce_task_records >= 90);
    }

    #[test]
    fn phase_times_are_recorded() {
        let input: Vec<(u32, u32)> = (0..1000).map(|i| (i, i)).collect();
        let m = FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u32>| {
            out.emit(k % 16, v);
        });
        let r = FnReducer::new(|k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u32>| {
            out.emit(*k, vs.len() as u32);
        });
        let (_, metrics) = JobBuilder::new("timed", m, r)
            .config(JobConfig::uniform(2))
            .run(input);
        assert!(metrics.map_time <= metrics.wall_time);
        assert!(metrics.reduce_time <= metrics.wall_time);
    }

    #[test]
    fn crash_injection_preserves_output_and_counts_retries() {
        let (mut clean, m_clean) = wordcount(wordcount_input(), JobConfig::uniform(6));
        // 30% failure rate: retries all but guaranteed across 12 tasks,
        // and output must be identical.
        let (mut faulty, m_faulty) = wordcount(
            wordcount_input(),
            chaos_config(6, 6, FaultPlan::new(300, 1234)),
        );
        clean.sort();
        faulty.sort();
        assert_eq!(clean, faulty, "fault tolerance must be invisible in output");
        assert_eq!(m_clean.task_retries, 0);
        assert!(
            m_faulty.task_retries > 0,
            "30% rate over 12 tasks must retry"
        );
    }

    #[test]
    #[should_panic(expected = "job killed")]
    fn doomed_job_is_killed() {
        // One attempt only, 99.9% failure: some map task dies.
        let plan = FaultPlan {
            max_attempts: 1,
            ..FaultPlan::new(999, 8)
        };
        let m = FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u32>| out.emit(k, v));
        let r = FnReducer::new(|k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u32>| {
            out.emit(*k, vs.len() as u32);
        });
        let input: Vec<(u32, u32)> = (0..100).map(|i| (i, i)).collect();
        let _ = JobBuilder::new("doomed", m, r)
            .config(chaos_config(8, 8, plan))
            .run(input);
    }

    #[test]
    fn hash_partitioner_is_stable_and_in_range() {
        for key in 0u64..1000 {
            let b = partition(&key, 7);
            assert!(b < 7);
            assert_eq!(b, partition(&key, 7), "partition must be deterministic");
        }
    }

    #[test]
    fn chaos_injection_preserves_output_and_counts_events() {
        let run = |chaos: Option<FaultPlan>| {
            let input: Vec<(u32, u32)> = (0..400).map(|i| (i, i)).collect();
            let m = FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u32>| {
                out.emit(k % 32, v);
            });
            let r = FnReducer::new(|k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u32>| {
                out.emit(*k, vs.into_iter().sum());
            });
            JobBuilder::new("chaotic", m, r)
                .config(JobConfig {
                    chaos,
                    ..JobConfig::uniform(8)
                })
                .run(input)
        };
        let (mut clean, m_clean) = run(None);
        let chaos = FaultPlan::new(100, 77).with_stragglers(400, 4.0, 2);
        let (mut chaotic, m_chaotic) = run(Some(chaos));
        clean.sort();
        chaotic.sort();
        assert_eq!(clean, chaotic, "chaos recovery must be invisible in output");
        assert_eq!(m_clean.task_retries, 0);
        assert!(
            m_chaotic.task_retries > 0,
            "10% crash rate over 16 tasks should retry"
        );
        assert!(
            m_chaotic.straggler_delay_ns > 0 || m_chaotic.speculative_launched > 0,
            "40% straggler rate must charge delay or trigger speculation"
        );
    }

    #[test]
    fn speculative_clones_win_against_stragglers() {
        // Heavy per-task work plus every task a straggler at 10× slowdown:
        // once the first few tasks complete, the quantile threshold exists
        // and later stragglers must race (and beat) their injected delay.
        let input: Vec<(u32, u32)> = (0..64).map(|i| (i, i)).collect();
        let m = FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u32>| {
            // ~100µs of real work so natural duration dominates noise.
            let mut acc = v;
            for i in 0..20_000u32 {
                acc = acc.wrapping_mul(1664525).wrapping_add(i);
            }
            out.emit(k % 4, acc);
        });
        let r = FnReducer::new(|k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u32>| {
            out.emit(*k, vs.into_iter().fold(0u32, u32::wrapping_add));
        });
        let chaos = FaultPlan::new(0, 3).with_stragglers(1000, 10.0, 50);
        let (_, metrics) = JobBuilder::new("spec", m, r)
            .config(chaos_config(16, 4, chaos))
            .run(input);
        assert!(
            metrics.speculative_launched > 0,
            "every task straggling at 10x must cross the 2x-median threshold"
        );
        assert!(
            metrics.speculative_wins > 0,
            "clone at 1x beats original owing 9x its runtime"
        );
        assert!(metrics.speculative_work_ns > 0);
        assert!(metrics.speculative_wins <= metrics.speculative_launched);
    }
}
