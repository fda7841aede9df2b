//! The engine's phases — map → (combine) → shuffle → sort/group → reduce,
//! each running on the Rayon thread pool — and the knobs of one job.
//!
//! A job is a one-stage [`Plan`](crate::plan::Plan): [`JobBuilder`] is the
//! [`Stage`] type, and [`Stage::run`] runs it alone on a fresh
//! [`Driver`](crate::driver::Driver). The plan scheduler's `execute_stage`
//! is the one caller of the phase functions below.

use crate::counters::{JobMetrics, TaskTimes};
use crate::driver::MemoryGovernor;
use crate::fault::{ChaosPlan, Phase};
use crate::plan::Stage;
use crate::record::ShuffleSize;
use crate::spill::{FrameMeta, SpillSegment, SpilledRows};
use crate::task::{Combiner, Emitter, Mapper, MrKey, MrValue, Reducer};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Decides which reduce task receives a key.
pub trait Partitioner<K>: Send + Sync {
    /// Reduce-task index for `key`, in `0..num_reducers`.
    fn partition(&self, key: &K, num_reducers: usize) -> usize;

    /// Label identifying the partitioning *function* for co-partitioning
    /// contracts (see the plan layer): two stages can only share a
    /// partitioned intermediate when their partitioners carry the same
    /// label. The default is a catch-all, so distinct custom partitioners
    /// should override it with distinct labels.
    fn contract_id(&self) -> &'static str {
        "custom"
    }
}

/// Hadoop's default: `hash(key) mod R`. Uses a fixed-seed SipHash so runs
/// are reproducible across processes.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl<K: Hash> Partitioner<K> for HashPartitioner {
    fn partition(&self, key: &K, num_reducers: usize) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % num_reducers as u64) as usize
    }

    fn contract_id(&self) -> &'static str {
        "hash"
    }
}

/// Input to a stage's map phase: an owned record list (a plan's own
/// rows), a shared immutable snapshot, or a disk-backed spilled segment.
/// Shared and spilled inputs are split into index ranges with the *same
/// chunk boundaries* as the owned path — records are cloned (or decoded)
/// inside the parallel map tasks, so one materialization can feed every
/// stage of a pipeline and a bigger-than-memory dataset never needs to be
/// resident at once.
pub(crate) enum MapInput<K, V> {
    /// The stage consumes these records.
    Owned(Vec<(K, V)>),
    /// The stage reads (clones) records out of a shared snapshot.
    Shared(Arc<Vec<(K, V)>>),
    /// The stage decodes records out of a shared on-disk segment, one map
    /// chunk at a time.
    Spilled(Arc<SpilledRows<K, V>>),
}

impl<K, V> MapInput<K, V> {
    /// Number of input records.
    fn len(&self) -> usize {
        match self {
            MapInput::Owned(v) => v.len(),
            MapInput::Shared(v) => v.len(),
            MapInput::Spilled(v) => v.len(),
        }
    }
}

/// Degree-of-parallelism and chaos knobs for one job.
#[derive(Debug, Clone, Copy)]
pub struct JobConfig {
    /// Number of map tasks the input is split into.
    pub map_tasks: usize,
    /// Number of reduce tasks (hash-partition buckets).
    pub reduce_tasks: usize,
    /// Optional deterministic chaos injection: crash failures (retried
    /// transparently), stragglers, checksum-detected corruption and
    /// partition loss (see [`ChaosPlan`]; a crash-only
    /// [`FaultPlan`](crate::fault::FaultPlan) converts with `into()`).
    pub chaos: Option<ChaosPlan>,
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
    /// Map phase (parallel over map tasks): each task maps its chunk of
    /// the input, applies the combiner, and partitions its output into one
    /// bucket per reduce task. Under a governor (`spill`), completed task
    /// buckets are charged against the budget and spilled once it is
    /// exceeded. Fills `map_input_records`, `map_time` and
    /// `map_task_times`.
    pub(crate) fn map_phase(
        &self,
        input: MapInput<M::InKey, M::InValue>,
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
        let partitioner = self.partitioner.as_ref();
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
                let run_one = |task: usize, records: Vec<(M::InKey, M::InValue)>| {
                    obsv::with_parent(parent, move || {
                        let attempt = Instant::now();
                        let out = obsv::span!("task", format!("map-{task}") => {
                            chaos.run_task(Phase::Map, task, || {
                                map_one_task(mapper, combiner, partitioner, r_tasks, records)
                            })
                        });
                        hist.record(attempt.elapsed().as_nanos() as u64);
                        // The spill decision never changes record content
                        // or order, only where the bytes wait for the
                        // shuffle.
                        match spill {
                            Some(ctx) => spill_task_under_pressure(ctx, name, out),
                            None => out,
                        }
                    })
                };
                match input {
                    MapInput::Owned(rows) => {
                        let chunks: Vec<Vec<(M::InKey, M::InValue)>> = {
                            let mut chunks = Vec::new();
                            let mut it = rows.into_iter();
                            loop {
                                let c: Vec<_> = it.by_ref().take(chunk).collect();
                                if c.is_empty() {
                                    break;
                                }
                                chunks.push(c);
                            }
                            chunks
                        };
                        chunks
                            .into_par_iter()
                            .enumerate()
                            .map(|(task, records)| run_one(task, records))
                            .collect::<Vec<MapTaskOut<M::OutKey, M::OutValue>>>()
                    }
                    MapInput::Shared(rows) => {
                        // Same chunk boundaries as the owned path, so task
                        // assignment (and therefore record order downstream)
                        // is identical; records are cloned inside the
                        // parallel tasks rather than materialized up front.
                        let ranges: Vec<(usize, usize)> = (0..rows.len())
                            .step_by(chunk)
                            .map(|s| (s, (s + chunk).min(rows.len())))
                            .collect();
                        let rows = &rows;
                        ranges
                            .into_par_iter()
                            .enumerate()
                            .map(|(task, (s, e))| run_one(task, rows[s..e].to_vec()))
                            .collect::<Vec<MapTaskOut<M::OutKey, M::OutValue>>>()
                    }
                    MapInput::Spilled(rows) => {
                        // Same boundaries again; each task decodes only its
                        // own chunk's frames from the segment.
                        let ranges: Vec<(usize, usize)> = (0..rows.len())
                            .step_by(chunk)
                            .map(|s| (s, (s + chunk).min(rows.len())))
                            .collect();
                        let rows = &rows;
                        ranges
                            .into_par_iter()
                            .enumerate()
                            .map(|(task, (s, e))| run_one(task, rows.read_range(s, e)))
                            .collect::<Vec<MapTaskOut<M::OutKey, M::OutValue>>>()
                    }
                }
            },
        );
        metrics.map_time = map_dur;
        metrics.map_task_times = task_times(&map_task_ns);
        map_outputs
    }

    /// Shuffle: transpose the map-task outputs into one parts list per
    /// reducer, in map-task order — resident buckets move as `Vec`
    /// handles, spilled buckets as segment frame references, so nothing is
    /// concatenated (or decoded) here. The actual merge happens lazily in
    /// the reduce phase, one bucket at a time, which is what lets the
    /// governor bound how many buckets are resident at once. Resident part
    /// bytes were summed per record by the map tasks, and a spilled frame's
    /// on-disk payload length equals its records' `ShuffleSize` sum by the
    /// wire length contract. `charged` says whether the map phase charged
    /// its resident buckets against a governor. Fills the map output /
    /// combine / shuffle counters and `shuffle_time`.
    #[allow(clippy::type_complexity)]
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
                        records: 0,
                        mem_bytes: 0,
                        spill_bytes: 0,
                        charged,
                    })
                    .collect();
                for task_out in map_outputs {
                    metrics.map_output_records += task_out.emitted;
                    metrics.combine_output_records += task_out.combined;
                    match task_out.data {
                        TaskData::Mem {
                            buckets,
                            bucket_bytes,
                        } => {
                            for (r, (bucket, bytes)) in
                                buckets.into_iter().zip(bucket_bytes).enumerate()
                            {
                                if bucket.is_empty() {
                                    continue;
                                }
                                let rb = &mut reduce_inputs[r];
                                rb.records += bucket.len() as u64;
                                rb.mem_bytes += bytes;
                                rb.parts.push(BucketPart::Mem(bucket));
                            }
                        }
                        TaskData::Spilled { seg, frames } => {
                            for (r, frame) in frames {
                                let rb = &mut reduce_inputs[r as usize];
                                rb.records += frame.records as u64;
                                rb.spill_bytes += frame.record_bytes;
                                rb.parts.push(BucketPart::Spilled {
                                    seg: Arc::clone(&seg),
                                    frame,
                                });
                            }
                        }
                    }
                }
                for rb in &reduce_inputs {
                    metrics.shuffle_records += rb.records;
                    metrics.max_reduce_task_records =
                        metrics.max_reduce_task_records.max(rb.records);
                    metrics.shuffle_bytes += rb.mem_bytes + rb.spill_bytes;
                }
                reduce_inputs
            },
        );
        metrics.shuffle_time = shuffle_dur;
        reduce_inputs
    }

    /// Sort/group + reduce phase (parallel over reduce tasks). Each task
    /// first *materializes* its bucket — concatenating resident parts and
    /// decoding spilled frames in map-task order — under the governor's
    /// admission control, so at most as many buckets are resident as the
    /// budget allows (always at least one: a lone task is admitted
    /// regardless, which keeps the loop deadlock-free). Fills the reduce
    /// counters, `reduce_time` and `reduce_task_times`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn reduce_phase(
        &self,
        reduce_inputs: Vec<ReduceBucket<M::OutKey, M::OutValue>>,
        spill: Option<&SpillCtx>,
        metrics: &mut JobMetrics,
        chaos: &ChaosCtx,
    ) -> Vec<(R::OutKey, R::OutValue)> {
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
                                    lazy_bucket.spill_bytes,
                                    if lazy_bucket.charged {
                                        lazy_bucket.mem_bytes
                                    } else {
                                        0
                                    },
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

/// Where one map task's partitioned output lives while it waits for the
/// shuffle: resident `Vec` buckets, or one segment file with one frame
/// per reduce bucket.
pub(crate) enum TaskData<K, V> {
    /// Resident buckets plus their per-bucket `ShuffleSize` byte sums
    /// (computed here once so the shuffle never re-walks the records).
    Mem {
        buckets: Vec<Vec<(K, V)>>,
        bucket_bytes: Vec<u64>,
    },
    /// Buckets spilled to disk; one `(reduce bucket index, frame)` entry
    /// per *non-empty* bucket — empty buckets get neither a frame on disk
    /// nor a metadata slot (at `map_tasks x reduce_tasks` scale the empty
    /// metadata alone would rival the budget).
    Spilled {
        seg: Arc<SpillSegment>,
        frames: Vec<(u32, FrameMeta)>,
    },
}

/// Output of one map task: one bucket per reduce task (resident or
/// spilled), plus the record counts before and after combining.
pub(crate) struct MapTaskOut<K, V> {
    data: TaskData<K, V>,
    emitted: u64,
    combined: u64,
}

/// One slice of a reduce bucket, from one map task, in map-task order.
pub(crate) enum BucketPart<K, V> {
    /// Records held in memory since the map task produced them.
    Mem(Vec<(K, V)>),
    /// Records parked in a spill segment, decoded at materialization.
    Spilled {
        seg: Arc<SpillSegment>,
        frame: FrameMeta,
    },
}

/// One reduce task's input, kept as a lazy parts list until the reduce
/// phase materializes it under admission control.
pub(crate) struct ReduceBucket<K, V> {
    parts: Vec<BucketPart<K, V>>,
    records: u64,
    /// Bytes of the resident parts (charged against the governor when the
    /// producing map phase ran under one).
    mem_bytes: u64,
    /// Bytes parked on disk, to be charged at materialization.
    spill_bytes: u64,
    /// Whether `mem_bytes` is currently charged against the governor —
    /// true for buckets fresh out of a governed shuffle, false for cached
    /// clones handed back by the partition cache.
    charged: bool,
}

impl<K, V> ReduceBucket<K, V> {
    /// Records across all parts.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }
}

// Decoding spilled frames needs (K, V): Wire, which MrKey/MrValue carry.
impl<K: MrKey, V: MrValue> ReduceBucket<K, V> {
    /// Concatenates the parts in map-task order, decoding spilled frames.
    /// Record order is exactly what the eager shuffle merge produced.
    pub(crate) fn materialize(self) -> Vec<(K, V)> {
        let mut rows = Vec::with_capacity(self.records as usize);
        for part in self.parts {
            match part {
                BucketPart::Mem(mut p) => rows.append(&mut p),
                BucketPart::Spilled { seg, frame } => rows.extend(
                    seg.read_frame::<(K, V)>(&frame)
                        .expect("spill segment read (process-local file)"),
                ),
            }
        }
        rows
    }

    /// A clone for the partition cache: resident parts deep-copy, spilled
    /// parts share their segment (already on disk — no resident cost).
    /// The clone is never governor-charged; its resident bytes belong to
    /// the cache, not to a running job.
    pub(crate) fn cache_clone(&self) -> Self
    where
        V: Clone,
    {
        ReduceBucket {
            parts: self
                .parts
                .iter()
                .map(|p| match p {
                    BucketPart::Mem(rows) => BucketPart::Mem(rows.clone()),
                    BucketPart::Spilled { seg, frame } => BucketPart::Spilled {
                        seg: Arc::clone(seg),
                        frame: frame.clone(),
                    },
                })
                .collect(),
            records: self.records,
            mem_bytes: self.mem_bytes,
            spill_bytes: self.spill_bytes,
            charged: false,
        }
    }

    /// Rewrites the resident parts into a spill segment (used by the
    /// partition cache when retaining a clone would breach the budget).
    /// Returns the bytes moved to disk.
    pub(crate) fn spill_mem_parts(&mut self, governor: &MemoryGovernor, label: &str) -> u64 {
        if self.mem_bytes == 0 {
            return 0;
        }
        let mut writer = match governor.segment(label) {
            Ok(w) => w,
            Err(e) => {
                // Spill tier unavailable: keep the resident copy (and
                // let the governor disable the tier on ENOSPC).
                governor.note_spill_error(&e);
                return 0;
            }
        };
        let mut moved = 0u64;
        let mut metas = Vec::new();
        for part in &self.parts {
            if let BucketPart::Mem(rows) = part {
                match writer.write_frame(rows) {
                    Ok(meta) => metas.push(meta),
                    Err(e) => {
                        governor.note_spill_error(&e);
                        return 0;
                    }
                }
            }
        }
        let seg = match writer.finish() {
            Ok(seg) => seg,
            Err(e) => {
                // An unflushable segment is not durable — stay resident.
                governor.note_spill_error(&e);
                return 0;
            }
        };
        let seg = Arc::new(seg);
        let mut metas = metas.into_iter();
        for part in &mut self.parts {
            if matches!(part, BucketPart::Mem(_)) {
                let meta = metas.next().expect("one frame per mem part");
                moved += meta.record_bytes;
                *part = BucketPart::Spilled {
                    seg: Arc::clone(&seg),
                    frame: meta,
                };
            }
        }
        self.spill_bytes += moved;
        self.mem_bytes -= moved;
        governor.note_spill(moved);
        moved
    }
}

/// One map task's body: map every record, combine, partition, and account
/// per-bucket shuffle bytes.
fn map_one_task<M: Mapper>(
    mapper: &M,
    combiner: Option<&(dyn Combiner<Key = M::OutKey, Value = M::OutValue> + Send + Sync)>,
    partitioner: &dyn Partitioner<M::OutKey>,
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
        let b = partitioner.partition(&k, r_tasks);
        debug_assert!(b < r_tasks, "partitioner returned out-of-range bucket");
        bucket_bytes[b] += k.shuffle_bytes() + v.shuffle_bytes();
        buckets[b].push((k, v));
    }
    MapTaskOut {
        data: TaskData::Mem {
            buckets,
            bucket_bytes,
        },
        emitted,
        combined,
    }
}

/// Charges a completed map task's resident bytes against the budget and
/// spills its buckets to a segment (one frame per reduce bucket) when the
/// governor reports pressure. Falls back to staying resident on any spill
/// I/O error — correctness never depends on the disk.
fn spill_task_under_pressure<K: MrKey, V: MrValue>(
    ctx: &SpillCtx,
    job: &str,
    out: MapTaskOut<K, V>,
) -> MapTaskOut<K, V> {
    let TaskData::Mem {
        buckets,
        bucket_bytes,
    } = &out.data
    else {
        return out;
    };
    let total: u64 = bucket_bytes.iter().sum();
    ctx.governor.charge(total);
    if total == 0 || !ctx.governor.should_spill() {
        return out;
    }
    let mut writer = match ctx.governor.segment(job) {
        Ok(w) => w,
        Err(e) => {
            ctx.governor.note_spill_error(&e);
            return out;
        }
    };
    let mut frames = Vec::new();
    for (r, bucket) in buckets.iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        match writer.write_frame(bucket) {
            Ok(meta) => frames.push((r as u32, meta)),
            Err(e) => {
                ctx.governor.note_spill_error(&e);
                return out;
            }
        }
    }
    let seg = match writer.finish() {
        Ok(seg) => seg,
        Err(e) => {
            // The segment never became durable (sync failed): treat it
            // like any other spill failure and keep the data resident.
            ctx.governor.note_spill_error(&e);
            return out;
        }
    };
    ctx.governor.uncharge(total);
    ctx.governor.note_spill(total);
    ctx.job_spill.fetch_add(total, Ordering::Relaxed);
    MapTaskOut {
        data: TaskData::Spilled {
            seg: Arc::new(seg),
            frames,
        },
        emitted: out.emitted,
        combined: out.combined,
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
/// Attempt accounting follows [`crate::fault::FaultPlan`]: tasks are
/// deterministic, so wasted attempts (crashes *and* checksum-detected
/// corruption) are charged to counters without re-running bodies, and a
/// task that exhausts its attempt budget kills the job. Straggler delays
/// are physically slept (capped by the plan) so recovery behavior is
/// observable in wall-clock metrics; a speculative clone that wins the
/// race against a straggler's injected delay cuts the sleep short.
pub(crate) struct ChaosCtx {
    plan: Option<ChaosPlan>,
    task_retries: AtomicU64,
    corruption_retries: AtomicU64,
    speculative_launched: AtomicU64,
    speculative_wins: AtomicU64,
    speculative_work_ns: AtomicU64,
    straggler_delay_ns: AtomicU64,
    /// Completed-task durations (ns) per phase, feeding the speculation
    /// threshold. Index 0 = map, 1 = reduce.
    completed_ns: [Mutex<Vec<u64>>; 2],
}

impl ChaosCtx {
    pub(crate) fn new(plan: Option<ChaosPlan>) -> Self {
        ChaosCtx {
            plan,
            task_retries: AtomicU64::new(0),
            corruption_retries: AtomicU64::new(0),
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
    /// 1. Wasted attempts (crashes, checksum-detected corruption) are
    ///    charged to the counters; exhausting the budget kills the job.
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
            Some(w) => {
                if w.failed > 0 {
                    self.task_retries
                        .fetch_add(w.failed as u64, Ordering::Relaxed);
                }
                if w.corrupt > 0 {
                    self.corruption_retries
                        .fetch_add(w.corrupt as u64, Ordering::Relaxed);
                }
            }
            None => panic!(
                "{phase:?} task {task} failed {} consecutive attempts; job killed \
                 (like Hadoop after mapred.max.attempts)",
                plan.fault.max_attempts
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
        metrics.corruption_retries = self.corruption_retries.load(Ordering::Relaxed);
        metrics.speculative_launched = self.speculative_launched.load(Ordering::Relaxed);
        metrics.speculative_wins = self.speculative_wins.load(Ordering::Relaxed);
        metrics.speculative_work_ns = self.speculative_work_ns.load(Ordering::Relaxed);
        metrics.straggler_delay_ns = self.straggler_delay_ns.load(Ordering::Relaxed);
        for (name, n) in [
            ("task_retries", metrics.task_retries),
            ("corruption_retries", metrics.corruption_retries),
            ("speculative_launched", metrics.speculative_launched),
            ("speculative_wins", metrics.speculative_wins),
        ] {
            if n > 0 {
                obsv::global().counter(name).inc(n);
            }
        }
    }
}

/// Groups a map task's output by key and applies the combiner per group.
fn run_combiner<K: MrKey, V: MrValue>(
    combiner: &(dyn Combiner<Key = K, Value = V> + Send + Sync),
    mut records: Vec<(K, V)>,
) -> Vec<(K, V)> {
    records.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = Vec::with_capacity(records.len());
    let mut it = records.into_iter().peekable();
    while let Some((key, first)) = it.next() {
        let mut values = vec![first];
        while it.peek().is_some_and(|(k, _)| *k == key) {
            values.push(it.next().expect("peeked").1);
        }
        let mut combined = combiner.combine(&key, values);
        // The key is cloned only for all-but-one output value; the last
        // value takes ownership (combiners typically emit exactly one
        // value per key, making the common case clone-free).
        if let Some(last) = combined.pop() {
            for v in combined {
                out.push((key.clone(), v));
            }
            out.push((key, last));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;
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

    fn chaos_config(map_tasks: usize, reduce_tasks: usize, chaos: ChaosPlan) -> JobConfig {
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
        struct SumCombiner;
        impl Combiner for SumCombiner {
            type Key = String;
            type Value = u64;
            fn combine(&self, _k: &String, vs: Vec<u64>) -> Vec<u64> {
                vec![vs.into_iter().sum()]
            }
        }

        let (mut plain, m_plain) = wordcount_job(JobConfig::uniform(1)).run(wordcount_input());
        let (mut combined, m_combined) = wordcount_job(JobConfig::uniform(1))
            .combiner(SumCombiner)
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
    fn user_counters_are_snapshotted() {
        let counters = Counters::new();
        let cc = counters.clone();
        let m = FnMapper::new(move |_k: u64, v: u64, out: &mut Emitter<u64, u64>| {
            cc.inc("seen", 1);
            out.emit(v % 2, v);
        });
        let r = FnReducer::new(|k: &u64, vs: Vec<u64>, out: &mut Emitter<u64, u64>| {
            out.emit(*k, vs.len() as u64);
        });
        let input: Vec<(u64, u64)> = (0..10).map(|i| (i, i)).collect();
        let (_, metrics) = JobBuilder::new("counted", m, r)
            .counters(counters)
            .config(JobConfig::uniform(2))
            .run(input);
        assert_eq!(metrics.user["seen"], 10);
    }

    #[test]
    fn custom_partitioner_controls_bucket() {
        struct AllToZero;
        impl Partitioner<u32> for AllToZero {
            fn partition(&self, _key: &u32, _num: usize) -> usize {
                0
            }
        }
        let m = FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u32>| out.emit(k, v));
        let r = FnReducer::new(|k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u32>| {
            out.emit(*k, vs.len() as u32);
        });
        let input: Vec<(u32, u32)> = (0..20).map(|i| (i, i)).collect();
        let (out, _) = JobBuilder::new("skewed", m, r)
            .partitioner(AllToZero)
            .config(JobConfig {
                map_tasks: 2,
                reduce_tasks: 4,
                chaos: None,
            })
            .run(input);
        // All keys land in bucket 0, so the output is globally key-sorted.
        let keys: Vec<u32> = out.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..20).collect::<Vec<_>>());
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
            chaos_config(6, 6, ChaosPlan::new(300, 1234)),
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
        use crate::fault::FaultPlan;
        // One attempt only, 99.9% failure: some map task dies.
        let plan = FaultPlan {
            fail_per_mille: 999,
            max_attempts: 1,
            seed: 8,
        };
        let m = FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u32>| out.emit(k, v));
        let r = FnReducer::new(|k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u32>| {
            out.emit(*k, vs.len() as u32);
        });
        let input: Vec<(u32, u32)> = (0..100).map(|i| (i, i)).collect();
        let _ = JobBuilder::new("doomed", m, r)
            .config(chaos_config(8, 8, plan.into()))
            .run(input);
    }

    #[test]
    fn hash_partitioner_is_stable_and_in_range() {
        let p = HashPartitioner;
        for key in 0u64..1000 {
            let b = p.partition(&key, 7);
            assert!(b < 7);
            assert_eq!(b, p.partition(&key, 7), "partition must be deterministic");
        }
    }

    #[test]
    fn chaos_injection_preserves_output_and_counts_events() {
        let run = |chaos: Option<ChaosPlan>| {
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
        let chaos = ChaosPlan::new(100, 77)
            .with_stragglers(400, 4.0, 2)
            .with_corruption(150);
        let (mut chaotic, m_chaotic) = run(Some(chaos));
        clean.sort();
        chaotic.sort();
        assert_eq!(clean, chaotic, "chaos recovery must be invisible in output");
        assert_eq!(m_clean.task_retries + m_clean.corruption_retries, 0);
        assert!(
            m_chaotic.task_retries > 0,
            "10% crash rate over 16 tasks should retry"
        );
        assert!(
            m_chaotic.corruption_retries > 0,
            "15% corruption rate over 16 tasks should retry"
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
        let chaos = ChaosPlan::new(0, 3).with_stragglers(1000, 10.0, 50);
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
