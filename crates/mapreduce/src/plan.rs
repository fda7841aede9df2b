//! Typed dataflow plans: declarative multi-stage pipelines with stage
//! fusion and co-partitioned shuffle elision — the engine's one execution
//! path.
//!
//! A [`Plan`] is a linear sequence of [`Stage`] nodes, each wrapping a
//! mapper, reducer, optional combiner and partitioner together with the
//! stage's declared contracts. Pipelines *describe* their dataflow with
//! the builder here and hand the plan to [`Driver::run_plan`], the
//! scheduler: it executes every stage through `execute_stage` (the one
//! caller of the map, shuffle and reduce phases in [`crate::job`]),
//! records every stage's [`JobMetrics`] automatically, and applies two
//! cross-stage optimizations:
//!
//! * **Stage fusion.** Adjacent map-only stages ([`PlanBuilder::map_stage`])
//!   are fused at plan-build time into a single [`MapChain`] mapper, so the
//!   fused stage makes one pass over its input — each record flows through
//!   the whole chain (and the downstream stage's map-side combiner) without
//!   materializing any intermediate stage output.
//!
//! * **Co-partitioned shuffle elision.** Two stages that declare the same
//!   [`Stage::co_partitioned`] token promise they apply the *same
//!   deterministic mapper and partitioner to the same input rows* (the
//!   paper's LSH-DDP pipeline does exactly this: the ρ-local and δ-local
//!   jobs both re-partition the identical point snapshot by the identical
//!   LSH layout). The scheduler retains the first stage's post-shuffle
//!   partitions and feeds them straight into the later stage's reduce,
//!   skipping its map *and* shuffle entirely. The bytes that did not cross
//!   the (simulated) network are reported as
//!   [`JobMetrics::shuffle_bytes_saved`], keeping the paper's Figure 10(b)
//!   accounting exact. Because the retained buckets are byte-for-byte what
//!   the elided stage's own map+shuffle would have produced, outputs are
//!   bit-identical with elision on or off.
//!
//! A single job is a one-stage plan: [`Stage::run`] (the stage type is
//! also exported as [`JobBuilder`](crate::job::JobBuilder)) runs
//! `plan(name).rows(input).stage(self)` on a fresh driver.
//!
//! A [`Snapshot`] is the third leg: one immutable, `Arc`-shared input
//! materialization that any number of plans (and stages) read without
//! copying it up front — records are cloned lazily inside the parallel map
//! tasks.
//!
//! [`Driver::run_plan`]: crate::driver::Driver::run_plan

use crate::counters::{Counters, JobMetrics};
use crate::dfs::Dfs;
use crate::driver::{Driver, MemoryGovernor};
use crate::job::{
    ChaosCtx, HashPartitioner, JobConfig, MapInput, Partitioner, ReduceBucket, SpillCtx,
};
use crate::record::ShuffleSize;
use crate::spill::SpilledRows;
use crate::task::{Combiner, Emitter, Mapper, MrKey, MrValue, Reducer};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic ids identifying "the same input rows" across plans: a
/// [`Snapshot`] keeps its id for life, every other row set gets a fresh
/// one, so a co-partitioning contract can verify that producer and
/// consumer really read the same input.
static NEXT_SOURCE: AtomicU64 = AtomicU64::new(1);

fn fresh_source_id() -> u64 {
    NEXT_SOURCE.fetch_add(1, Ordering::Relaxed)
}

/// Where a snapshot's rows actually live: resident in memory, or parked
/// in disk spill segments and streamed back per map-task chunk.
enum SnapRows<K, V> {
    Resident(Arc<Vec<(K, V)>>),
    Spilled(Arc<SpilledRows<K, V>>),
}

impl<K, V> Clone for SnapRows<K, V> {
    fn clone(&self) -> Self {
        match self {
            SnapRows::Resident(a) => SnapRows::Resident(Arc::clone(a)),
            SnapRows::Spilled(s) => SnapRows::Spilled(Arc::clone(s)),
        }
    }
}

/// An immutable input materialization shared by every stage and plan of a
/// pipeline. Cloning a `Snapshot` clones an `Arc`, not the rows; map tasks
/// clone only the records of their own chunk, in parallel.
///
/// A snapshot is usually memory-resident ([`Snapshot::new`]) but can also
/// wrap a [`SpilledRows`] handle ([`Snapshot::from_spilled`]): the row set
/// then lives in disk segments and every stage reading it decodes only its
/// own map-task chunks — the input never needs to be resident at once.
pub struct Snapshot<K, V> {
    rows: SnapRows<K, V>,
    id: u64,
}

impl<K, V> Clone for Snapshot<K, V> {
    fn clone(&self) -> Self {
        Snapshot {
            rows: self.rows.clone(),
            id: self.id,
        }
    }
}

impl<K, V> Snapshot<K, V> {
    /// Wraps one materialized row set for sharing.
    pub fn new(rows: Vec<(K, V)>) -> Self {
        Snapshot {
            rows: SnapRows::Resident(Arc::new(rows)),
            id: fresh_source_id(),
        }
    }

    /// Wraps a spilled row set: stages stream their chunks from disk
    /// instead of reading resident memory.
    pub fn from_spilled(rows: SpilledRows<K, V>) -> Self {
        Snapshot {
            rows: SnapRows::Spilled(Arc::new(rows)),
            id: fresh_source_id(),
        }
    }

    /// The shared rows. Panics for a spilled snapshot — its rows are not
    /// resident; use [`Snapshot::len`] and plan execution instead.
    pub fn rows(&self) -> &[(K, V)] {
        match &self.rows {
            SnapRows::Resident(a) => a,
            SnapRows::Spilled(_) => {
                panic!("Snapshot::rows on a spilled snapshot: rows are not resident")
            }
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.rows {
            SnapRows::Resident(a) => a.len(),
            SnapRows::Spilled(s) => s.len(),
        }
    }

    /// Whether the snapshot holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the rows live in the disk spill tier.
    pub fn is_spilled(&self) -> bool {
        matches!(self.rows, SnapRows::Spilled(_))
    }
}

/// Two mappers fused into one pass: `second` consumes `first`'s emissions
/// record by record, so the first stage's full output is never
/// materialized. Built by [`PlanBuilder::map_stage`]; a chain is itself a
/// [`Mapper`], so a [`Stage`] can also be handed one directly.
pub struct MapChain<A, B> {
    first: A,
    second: B,
}

impl<A, B> MapChain<A, B>
where
    A: Mapper,
    B: Mapper<InKey = A::OutKey, InValue = A::OutValue>,
{
    /// Chains `first` then `second`.
    pub fn new(first: A, second: B) -> Self {
        MapChain { first, second }
    }
}

impl<A, B> Mapper for MapChain<A, B>
where
    A: Mapper,
    B: Mapper<InKey = A::OutKey, InValue = A::OutValue>,
{
    type InKey = A::InKey;
    type InValue = A::InValue;
    type OutKey = B::OutKey;
    type OutValue = B::OutValue;

    fn map(&self, key: A::InKey, value: A::InValue, out: &mut Emitter<B::OutKey, B::OutValue>) {
        let mut mid = Emitter::new();
        self.first.map(key, value, &mut mid);
        for (k, v) in mid.into_records() {
            self.second.map(k, v, out);
        }
    }
}

/// The no-op mapper a reducer-only stage runs when no map-only stages
/// precede it — the "aggregate" jobs of the DDP pipelines.
pub struct IdentityMap<K, V>(PhantomData<fn() -> (K, V)>);

impl<K, V> IdentityMap<K, V> {
    /// A fresh identity mapper.
    pub fn new() -> Self {
        IdentityMap(PhantomData)
    }
}

impl<K, V> Default for IdentityMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: MrKey, V: MrValue> Mapper for IdentityMap<K, V> {
    type InKey = K;
    type InValue = V;
    type OutKey = K;
    type OutValue = V;

    fn map(&self, key: K, value: V, out: &mut Emitter<K, V>) {
        out.emit(key, value);
    }
}

/// A pending map-only chain accumulated by [`PlanBuilder::map_stage`],
/// waiting to be fused into the next full stage.
pub struct Pending<A>(A);

/// Build-time fusion: how the pending map-only chain (`Self`) absorbs the
/// next stage's mapper `M`, yielding the mapper the stage actually runs.
/// `K`/`V` are the row types entering the chain.
pub trait FusePending<K, V, M: Mapper>: Sized {
    /// The fused mapper: consumes `(K, V)` rows, produces `M`'s output.
    type Fused: Mapper<InKey = K, InValue = V, OutKey = M::OutKey, OutValue = M::OutValue>;

    /// Fuses the chain with `next`.
    fn fuse(self, next: M) -> Self::Fused;
}

impl<K, V, M> FusePending<K, V, M> for ()
where
    M: Mapper<InKey = K, InValue = V>,
{
    type Fused = M;

    fn fuse(self, next: M) -> M {
        next
    }
}

impl<K, V, A, M> FusePending<K, V, M> for Pending<A>
where
    A: Mapper<InKey = K, InValue = V>,
    M: Mapper<InKey = A::OutKey, InValue = A::OutValue>,
{
    type Fused = MapChain<A, M>;

    fn fuse(self, next: M) -> MapChain<A, M> {
        MapChain::new(self.0, next)
    }
}

/// How the pending chain becomes a stage's mapper when the next stage is
/// reducer-only ([`PlanBuilder::reduce_stage`]): the chain itself if one
/// is pending, the zero-cost [`IdentityMap`] otherwise.
pub trait PendingMapper<K, V>: Sized {
    /// The mapper the reducer-only stage runs.
    type M: Mapper<InKey = K, InValue = V>;

    /// Consumes the pending state.
    fn into_mapper(self) -> Self::M;
}

impl<K: MrKey, V: MrValue> PendingMapper<K, V> for () {
    type M = IdentityMap<K, V>;

    fn into_mapper(self) -> IdentityMap<K, V> {
        IdentityMap::new()
    }
}

impl<A: Mapper> PendingMapper<A::InKey, A::InValue> for Pending<A> {
    type M = A;

    fn into_mapper(self) -> A {
        self.0
    }
}

/// One full dataflow node: a mapper and reducer plus the optional
/// combiner, partitioner, parallelism config, user counters, declared
/// partitioning contract, and a metrics-finalize hook. Run it alone with
/// [`Stage::run`], or chain it into a [`Plan`].
pub struct Stage<M, R>
where
    M: Mapper,
    R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
{
    pub(crate) name: String,
    pub(crate) mapper: M,
    pub(crate) reducer: R,
    pub(crate) combiner:
        Option<Box<dyn Combiner<Key = M::OutKey, Value = M::OutValue> + Send + Sync>>,
    pub(crate) partitioner: Box<dyn Partitioner<M::OutKey>>,
    pub(crate) config: JobConfig,
    counters: Option<Counters>,
    contract: Option<String>,
    finalize: Option<FinalizeHook>,
}

impl<M, R> Stage<M, R>
where
    M: Mapper,
    R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
{
    /// A stage named `name` running `mapper` then `reducer`, with the
    /// default hash partitioner and default parallelism.
    pub fn new(name: impl Into<String>, mapper: M, reducer: R) -> Self {
        Stage {
            name: name.into(),
            mapper,
            reducer,
            combiner: None,
            partitioner: Box::new(HashPartitioner),
            config: JobConfig::default(),
            counters: None,
            contract: None,
            finalize: None,
        }
    }

    /// Installs a map-side combiner. The engine always runs combiners
    /// inside the map tasks, so on a fused stage the whole
    /// map-chain → combine pass happens in one sweep per task.
    pub fn combiner<C>(mut self, combiner: C) -> Self
    where
        C: Combiner<Key = M::OutKey, Value = M::OutValue> + Send + Sync + 'static,
    {
        self.combiner = Some(Box::new(combiner));
        self
    }

    /// Replaces the default hash partitioner.
    pub fn partitioner<P>(mut self, partitioner: P) -> Self
    where
        P: Partitioner<M::OutKey> + 'static,
    {
        self.partitioner = Box::new(partitioner);
        self
    }

    /// Sets the parallelism and chaos config.
    pub fn config(mut self, config: JobConfig) -> Self {
        assert!(
            config.map_tasks > 0 && config.reduce_tasks > 0,
            "task counts must be positive"
        );
        self.config = config;
        self
    }

    /// Attaches user counters whose snapshot is included in the stage's
    /// metrics.
    pub fn counters(mut self, counters: Counters) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Declares this stage's map output partitioning under `token`.
    ///
    /// **Contract:** every stage declaring the same token applies the same
    /// deterministic mapper and partitioner, with the same task counts, to
    /// the same input rows. The scheduler retains the first such stage's
    /// post-shuffle partitions and elides the map+shuffle of later ones
    /// (reporting the skipped volume as `shuffle_bytes_saved`). The
    /// declared-type parts of the contract — key/value types, task counts,
    /// partitioner identity, input source — are verified at run time and a
    /// mismatch falls back to full execution; sameness of the mapper is
    /// the caller's promise.
    pub fn co_partitioned(mut self, token: impl Into<String>) -> Self {
        self.contract = Some(token.into());
        self
    }

    /// Runs `f` on the stage's recorded metrics right before the scheduler
    /// appends them to the driver history — the hook for pipeline-level
    /// bookkeeping such as cumulative distance-counter snapshots.
    pub fn finalize(mut self, f: impl FnOnce(&mut JobMetrics) + 'static) -> Self {
        self.finalize = Some(Box::new(f));
        self
    }

    /// The same stage with its mapper slot refilled by `f(mapper)`: how a
    /// plan fuses the pending map-only chain into the stage that follows.
    fn with_mapper<N>(self, f: impl FnOnce(M) -> N) -> Stage<N, R>
    where
        N: Mapper<OutKey = M::OutKey, OutValue = M::OutValue>,
    {
        Stage {
            name: self.name,
            mapper: f(self.mapper),
            reducer: self.reducer,
            combiner: self.combiner,
            partitioner: self.partitioner,
            config: self.config,
            counters: self.counters,
            contract: self.contract,
            finalize: self.finalize,
        }
    }

    /// Runs this stage alone — `plan(name).rows(input).stage(self)` on a
    /// fresh [`Driver`] — returning the reduce output (ordered by
    /// reduce-task index, then by key) and the stage's [`JobMetrics`].
    ///
    /// The span tree is the plan's: `plan` → `job` → one `phase` per map,
    /// shuffle and reduce → one `task` per attempt. The phase-time metric
    /// fields are *derived from the span layer's measurements*; with
    /// capture off, `timed_span` degrades to a plain stopwatch.
    #[allow(clippy::type_complexity)]
    pub fn run(
        self,
        input: Vec<(M::InKey, M::InValue)>,
    ) -> (Vec<(R::OutKey, R::OutValue)>, JobMetrics)
    where
        M: 'static,
        R: 'static,
        M::InKey: Clone + Sync + 'static,
        M::InValue: Clone + Sync + 'static,
        M::OutKey: 'static,
        M::OutValue: Clone + 'static,
        R::OutKey: Clone + Sync + 'static,
        R::OutValue: Clone + Sync + 'static,
    {
        let mut driver = Driver::new();
        let out = driver.run_plan(plan(self.name.clone()).rows(input).stage(self).build());
        let metrics = driver
            .into_history()
            .pop()
            .expect("a one-stage plan records one job");
        (out, metrics)
    }
}

/// A reducer-only dataflow node: a [`Stage`] whose mapper slot is left to
/// the plan — [`PlanBuilder::reduce_stage`] fills it with whatever
/// map-only chain precedes it (or keeps the identity). This is the natural
/// shape of the DDP "aggregate" stages, and of any stage fused behind
/// [`PlanBuilder::map_stage`] without paying an identity hop per record.
pub type ReduceStage<R> = Stage<IdentityMap<<R as Reducer>::InKey, <R as Reducer>::InValue>, R>;

impl<R: Reducer> Stage<IdentityMap<R::InKey, R::InValue>, R> {
    /// A reducer-only stage named `name`.
    pub fn reduce_only(name: impl Into<String>, reducer: R) -> Self {
        Stage::new(name, IdentityMap::new(), reducer)
    }
}

/// Boxed rows flowing between erased stages: a `MapInput<K, V>` behind
/// `dyn Any`. The typed builder guarantees every downcast succeeds.
type Rows = Box<dyn Any>;

/// Metrics hook run right before a stage's metrics are recorded.
type FinalizeHook = Box<dyn FnOnce(&mut JobMetrics)>;

/// Retained post-shuffle buckets plus the shuffle volume they represent.
type TakenBuckets<K, V> = (Vec<ReduceBucket<K, V>>, u64);

/// One type-erased, ready-to-run stage.
type StageRun = Box<dyn FnOnce(&mut ExecCtx<'_>, Rows, u64) -> (Rows, u64)>;

/// What the scheduler hands each stage: the elision switch, the retained
/// partition cache, the metrics history to append to, (when stage
/// checkpointing is on) where to materialize this stage's output, and
/// (when a memory budget is set) the governor enforcing it.
pub(crate) struct ExecCtx<'a> {
    pub(crate) elide: bool,
    pub(crate) cache: &'a mut PartitionCache,
    pub(crate) history: &'a mut Vec<JobMetrics>,
    pub(crate) checkpoint: Option<CheckpointCtx>,
    pub(crate) governor: Option<Arc<MemoryGovernor>>,
}

/// Where a stage materializes its output when checkpointing is enabled:
/// the driver's DFS, under `ckpt/<plan>/<stage index>`.
pub(crate) struct CheckpointCtx {
    pub(crate) dfs: Arc<Dfs>,
    pub(crate) plan: String,
    pub(crate) stage: usize,
}

impl CheckpointCtx {
    fn path(&self) -> String {
        format!("ckpt/{}/{}", self.plan, self.stage)
    }
}

/// A stage's checkpointed output rows, stored as one DFS record so the
/// key/value types only need `Send + Sync + Clone`, not per-type
/// [`ShuffleSize`] impls. The reported size is a `size_of`-based estimate —
/// good enough for recovery-overhead accounting.
///
/// The rows are `Arc`-shared with the stage's own output: checkpointing a
/// stage does not double its peak footprint, the DFS record and the rows
/// flowing to the next stage are one allocation.
struct CheckpointRows<K, V> {
    rows: Arc<Vec<(K, V)>>,
}

impl<K, V> ShuffleSize for CheckpointRows<K, V> {
    fn shuffle_bytes(&self) -> u64 {
        (self.rows.len() * std::mem::size_of::<(K, V)>()) as u64
    }
}

/// The verified half of a co-partitioning contract: intermediate key/value
/// types, task counts, partitioner identity, and the identity of the input
/// rows the map ran over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ContractKey {
    kv: (TypeId, TypeId),
    map_tasks: usize,
    reduce_tasks: usize,
    partitioner: &'static str,
    source: u64,
}

struct CacheEntry {
    buckets: Box<dyn Any>,
    key: ContractKey,
    shuffle_bytes: u64,
}

/// Retained post-shuffle partitions, keyed by contract token. Owned by the
/// driver so a contract can span plans (pipelines interleave driver-side
/// broadcast assembly between plan segments). An entry is consumed by its
/// first eligible consumer.
#[derive(Default)]
pub(crate) struct PartitionCache {
    entries: HashMap<String, CacheEntry>,
}

impl PartitionCache {
    fn take<K: 'static, V: 'static>(
        &mut self,
        token: &str,
        key: &ContractKey,
    ) -> Option<TakenBuckets<K, V>> {
        if self.entries.get(token)?.key != *key {
            return None;
        }
        let entry = self.entries.remove(token).expect("entry checked above");
        let buckets = entry
            .buckets
            .downcast::<Vec<ReduceBucket<K, V>>>()
            .expect("bucket type verified by ContractKey");
        Some((*buckets, entry.shuffle_bytes))
    }

    fn retain<K: 'static, V: 'static>(
        &mut self,
        token: String,
        key: ContractKey,
        buckets: Vec<ReduceBucket<K, V>>,
        shuffle_bytes: u64,
    ) {
        self.entries.insert(
            token,
            CacheEntry {
                buckets: Box::new(buckets),
                key,
                shuffle_bytes,
            },
        );
    }
}

/// A built, ready-to-execute dataflow plan producing `(K, V)` rows. Hand
/// it to [`Driver::run_plan`](crate::driver::Driver::run_plan).
pub struct Plan<K, V> {
    pub(crate) name: String,
    pub(crate) source: Rows,
    pub(crate) source_id: u64,
    pub(crate) stages: Vec<StageRun>,
    pub(crate) _out: PhantomData<fn() -> (K, V)>,
}

/// Starts describing a plan named `name`; pick the input with
/// [`PlanInit::rows`] or [`PlanInit::snapshot`].
pub fn plan(name: impl Into<String>) -> PlanInit {
    PlanInit { name: name.into() }
}

/// A named plan waiting for its input source.
pub struct PlanInit {
    name: String,
}

impl PlanInit {
    /// Feeds the plan an owned row set.
    pub fn rows<K: 'static, V: 'static>(self, rows: Vec<(K, V)>) -> PlanBuilder<K, V, ()> {
        PlanBuilder {
            name: self.name,
            source: Box::new(MapInput::Owned(rows)),
            source_id: fresh_source_id(),
            stages: Vec::new(),
            pending: (),
            _rows: PhantomData,
        }
    }

    /// Feeds the plan a shared snapshot — many plans can read the same
    /// materialization, and co-partitioning contracts recognize it as the
    /// same source across plans.
    pub fn snapshot<K: 'static, V: 'static>(self, snap: &Snapshot<K, V>) -> PlanBuilder<K, V, ()> {
        let source: Rows = match &snap.rows {
            SnapRows::Resident(a) => Box::new(MapInput::Shared(Arc::clone(a))),
            SnapRows::Spilled(s) => Box::new(MapInput::Spilled(Arc::clone(s))),
        };
        PlanBuilder {
            name: self.name,
            source,
            source_id: snap.id,
            stages: Vec::new(),
            pending: (),
            _rows: PhantomData,
        }
    }
}

/// Typed plan builder. `K`/`V` are the row types entering the pending
/// map-only chain `P` (`()` when nothing is pending — then they are simply
/// the current row types). The types thread through every `stage` call,
/// so a mis-chained plan is a compile error, not a runtime surprise.
pub struct PlanBuilder<K, V, P> {
    name: String,
    source: Rows,
    source_id: u64,
    stages: Vec<StageRun>,
    pending: P,
    _rows: PhantomData<fn() -> (K, V)>,
}

impl<K, V, P> PlanBuilder<K, V, P> {
    /// Appends a map-only stage. It does not run on its own: the scheduler
    /// fuses it (and any further map-only stages) into the next full stage,
    /// which then makes a single pass doing chain → combine → partition
    /// per map task.
    pub fn map_stage<M>(self, mapper: M) -> PlanBuilder<K, V, Pending<P::Fused>>
    where
        M: Mapper,
        P: FusePending<K, V, M>,
    {
        PlanBuilder {
            name: self.name,
            source: self.source,
            source_id: self.source_id,
            stages: self.stages,
            pending: Pending(self.pending.fuse(mapper)),
            _rows: PhantomData,
        }
    }

    /// Appends a full map+reduce stage, fusing any pending map-only chain
    /// in front of its mapper.
    pub fn stage<M, R>(self, stage: Stage<M, R>) -> PlanBuilder<R::OutKey, R::OutValue, ()>
    where
        M: Mapper + 'static,
        R: Reducer<InKey = M::OutKey, InValue = M::OutValue> + 'static,
        P: FusePending<K, V, M>,
        P::Fused: 'static,
        K: Clone + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
        M::OutKey: 'static,
        M::OutValue: Clone + 'static,
        R::OutKey: Clone + Send + Sync + 'static,
        R::OutValue: Clone + Send + Sync + 'static,
    {
        self.push(|pending| stage.with_mapper(|m| pending.fuse(m)))
    }

    /// Appends a reducer-only stage: the pending map-only chain (or the
    /// identity) fills its mapper slot directly — no per-record identity
    /// hop.
    pub fn reduce_stage<R>(self, stage: ReduceStage<R>) -> PlanBuilder<R::OutKey, R::OutValue, ()>
    where
        R: Reducer + 'static,
        P: PendingMapper<K, V>,
        P::M: Mapper<OutKey = R::InKey, OutValue = R::InValue> + 'static,
        K: Clone + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
        R::InKey: 'static,
        R::InValue: Clone + 'static,
        R::OutKey: Clone + Send + Sync + 'static,
        R::OutValue: Clone + Send + Sync + 'static,
    {
        self.push(|pending| stage.with_mapper(|_| pending.into_mapper()))
    }

    /// Appends the stage `fill` makes out of the pending map-only chain.
    fn push<M, R>(
        self,
        fill: impl FnOnce(P) -> Stage<M, R>,
    ) -> PlanBuilder<R::OutKey, R::OutValue, ()>
    where
        M: Mapper + 'static,
        M::InKey: Clone + Sync + 'static,
        M::InValue: Clone + Sync + 'static,
        M::OutKey: 'static,
        M::OutValue: Clone + 'static,
        R: Reducer<InKey = M::OutKey, InValue = M::OutValue> + 'static,
        R::OutKey: Clone + Send + Sync + 'static,
        R::OutValue: Clone + Send + Sync + 'static,
    {
        let mut stages = self.stages;
        push_stage(&mut stages, fill(self.pending));
        PlanBuilder {
            name: self.name,
            source: self.source,
            source_id: self.source_id,
            stages,
            pending: (),
            _rows: PhantomData,
        }
    }
}

impl<K: 'static, V: 'static> PlanBuilder<K, V, ()> {
    /// Finishes the plan. Only available with no pending map-only stage —
    /// a trailing `map_stage` has no reducer to fuse into, which this
    /// turns into a compile error.
    pub fn build(self) -> Plan<K, V> {
        Plan {
            name: self.name,
            source: self.source,
            source_id: self.source_id,
            stages: self.stages,
            _out: PhantomData,
        }
    }
}

/// Erases one configured stage into a [`StageRun`] closure.
fn push_stage<M, R>(stages: &mut Vec<StageRun>, mut stage: Stage<M, R>)
where
    M: Mapper + 'static,
    M::InKey: Clone + Sync + 'static,
    M::InValue: Clone + Sync + 'static,
    M::OutKey: 'static,
    M::OutValue: Clone + 'static,
    R: Reducer<InKey = M::OutKey, InValue = M::OutValue> + 'static,
    R::OutKey: Clone + Send + Sync + 'static,
    R::OutValue: Clone + Send + Sync + 'static,
{
    stages.push(Box::new(move |ctx, rows, source| {
        // Resume path: a materialized checkpoint for this stage means a
        // previous (killed) run already completed it. Skip execution
        // entirely and continue from the stored output; downstream
        // co-partitioning contracts see a fresh source id and fall back
        // to full execution, which keeps them correct.
        if let Some(ck) = ctx.checkpoint.as_ref() {
            if let Ok(stored) = ck
                .dfs
                .get::<CheckpointRows<R::OutKey, R::OutValue>>(&ck.path())
            {
                let mut metrics = JobMetrics {
                    name: stage.name.clone(),
                    ..Default::default()
                };
                metrics.user.insert("resumed_from_checkpoint".into(), 1);
                ctx.history.push(metrics);
                // Share the checkpointed rows instead of copying them: the
                // next stage's map tasks clone only their own chunks.
                let out = Arc::clone(&stored[0].rows);
                return (Box::new(MapInput::Shared(out)) as Rows, fresh_source_id());
            }
        }
        let input = *rows
            .downcast::<MapInput<M::InKey, M::InValue>>()
            .unwrap_or_else(|_| panic!("plan stage '{}': input row type mismatch", stage.name));
        let (out, mut metrics) = execute_stage(ctx, &stage, input, source);
        if let Some(f) = stage.finalize.take() {
            f(&mut metrics);
        }
        // The stage output is Arc-shared between the checkpoint record and
        // the rows handed to the next stage: checkpointing must not double
        // the stage's peak footprint. The driver unwraps (or, if a
        // checkpoint still holds a reference, clones) at plan exit.
        let out = Arc::new(out);
        if let Some(ck) = ctx.checkpoint.as_ref() {
            let data = CheckpointRows {
                rows: Arc::clone(&out),
            };
            let bytes = data.shuffle_bytes();
            let path = ck.path();
            ck.dfs.remove(&path);
            ck.dfs
                .put(&path, vec![data])
                .expect("checkpoint namespace is driver-owned");
            metrics.checkpoint_bytes = bytes;
            obsv::global().counter("checkpoint_bytes").inc(bytes);
        }
        ctx.history.push(metrics);
        (Box::new(MapInput::Shared(out)) as Rows, fresh_source_id())
    }));
}

/// Runs one stage through the engine's phases inside a `"job"` span — the
/// one caller of the map, shuffle and reduce phase functions — applying
/// the co-partitioning contract: retain the post-shuffle partitions the
/// first time a token is seen, elide map+shuffle (reduce straight off the
/// retained buckets) on a verified later use. Fault injection applies to
/// whatever phases actually run, so an elided stage still exercises
/// reduce-side retries.
#[allow(clippy::type_complexity)]
fn execute_stage<M, R>(
    ctx: &mut ExecCtx<'_>,
    stage: &Stage<M, R>,
    input: MapInput<M::InKey, M::InValue>,
    source: u64,
) -> (Vec<(R::OutKey, R::OutValue)>, JobMetrics)
where
    M: Mapper,
    M::InKey: Clone + Sync,
    M::InValue: Clone + Sync,
    M::OutKey: 'static,
    M::OutValue: Clone + 'static,
    R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
{
    let name = stage.name.as_str();
    let elide = ctx.elide;
    let cache = &mut *ctx.cache;
    let spill = ctx.governor.clone().map(SpillCtx::new);
    // Scope the heap accountant around the whole stage body (map,
    // shuffle, reduce, contract bookkeeping) so the stage's metrics can
    // report its peak resident footprint. Inert (returns 0) unless
    // `obsv::alloc::enable_accounting` ran.
    let mem = obsv::alloc::scope();
    let ((out, mut metrics), wall) = obsv::timed_span(
        "job",
        || name.to_string(),
        move || {
            let mut metrics = JobMetrics {
                name: name.to_string(),
                ..Default::default()
            };
            let chaos = ChaosCtx::new(stage.config.chaos);
            let spill = spill.as_ref();
            let contract = stage.contract.as_deref().filter(|_| elide);
            let ckey = ContractKey {
                kv: (TypeId::of::<M::OutKey>(), TypeId::of::<M::OutValue>()),
                map_tasks: stage.config.map_tasks,
                reduce_tasks: stage.config.reduce_tasks,
                partitioner: stage.partitioner.contract_id(),
                source,
            };
            let reuse =
                contract.and_then(|token| cache.take::<M::OutKey, M::OutValue>(token, &ckey));
            // Bytes the retained cache copy moved to disk under pressure;
            // folded into the stage's spill accounting after the fact
            // (the map phase's own counter only sees map-side spills).
            let mut retained_spill = 0u64;
            let buckets = match reuse {
                Some((buckets, saved_bytes)) => {
                    // Map and shuffle elided: their counters stay 0, the
                    // skipped volume is reported separately, and the input
                    // rows are never even read.
                    metrics.shuffle_bytes_saved = saved_bytes;
                    metrics.max_reduce_task_records =
                        buckets.iter().map(|b| b.records()).max().unwrap_or(0);
                    buckets
                }
                None => {
                    let map_out = stage.map_phase(input, spill, &mut metrics, &chaos);
                    let buckets = stage.shuffle_phase(map_out, spill.is_some(), &mut metrics);
                    if let Some(token) = contract {
                        // The retained copy shares spilled parts with the
                        // live buckets and deep-copies only resident ones;
                        // under budget pressure those resident parts move
                        // to disk too, so retention never holds a second
                        // resident copy of the shuffle. Clone-then-spill
                        // runs bucket by bucket so the transient doubling
                        // is one bucket deep, not the whole shuffle.
                        let label = format!("retain-{name}");
                        let mut retained = Vec::with_capacity(buckets.len());
                        for b in &buckets {
                            let mut rb = b.cache_clone();
                            if let Some(gov) = spill.map(|s| &s.governor) {
                                if gov.should_spill() {
                                    retained_spill += rb.spill_mem_parts(gov, &label);
                                }
                            }
                            retained.push(rb);
                        }
                        cache.retain::<M::OutKey, M::OutValue>(
                            token.to_string(),
                            ckey,
                            retained,
                            metrics.shuffle_bytes,
                        );
                    }
                    buckets
                }
            };
            let out = stage.reduce_phase(buckets, spill, &mut metrics, &chaos);
            chaos.fill_metrics(&mut metrics);
            if let Some(s) = spill {
                s.fill_metrics(&mut metrics);
            }
            metrics.spill_bytes += retained_spill;
            if let Some(c) = &stage.counters {
                metrics.user = c.snapshot();
            }
            (out, metrics)
        },
    );
    metrics.wall_time = wall;
    metrics.peak_resident_bytes = mem.peak();
    (out, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use crate::task::{FnMapper, FnReducer};

    fn mod_key_mapper() -> impl Mapper<InKey = u32, InValue = u32, OutKey = u32, OutValue = u64> {
        FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u64>| {
            out.emit(k % 7, v as u64);
        })
    }

    fn sum_reducer() -> impl Reducer<InKey = u32, InValue = u64, OutKey = u32, OutValue = u64> {
        FnReducer::new(|k: &u32, vs: Vec<u64>, out: &mut Emitter<u32, u64>| {
            out.emit(*k, vs.into_iter().sum());
        })
    }

    fn max_reducer() -> impl Reducer<InKey = u32, InValue = u64, OutKey = u32, OutValue = u64> {
        FnReducer::new(|k: &u32, vs: Vec<u64>, out: &mut Emitter<u32, u64>| {
            out.emit(*k, vs.into_iter().max().unwrap_or(0));
        })
    }

    fn input_rows(n: u32) -> Vec<(u32, u32)> {
        (0..n).map(|i| (i, i.wrapping_mul(2654435761))).collect()
    }

    #[test]
    fn multi_stage_plan_matches_hand_chained_jobs() {
        let rows = input_rows(100);

        // Reference: the same two stages run as two one-stage plans.
        let (mid, m1) = Stage::new("s1", mod_key_mapper(), sum_reducer())
            .config(JobConfig::uniform(3))
            .run(rows.clone());
        let (mut want, m2) = Stage::new(
            "s2",
            FnMapper::new(|k: u32, v: u64, out: &mut Emitter<u32, u64>| out.emit(k % 2, v)),
            sum_reducer(),
        )
        .config(JobConfig::uniform(2))
        .run(mid);

        // Same dataflow as a plan.
        let mut driver = Driver::new();
        let p = plan("two-stage")
            .rows(rows)
            .stage(Stage::new("s1", mod_key_mapper(), sum_reducer()).config(JobConfig::uniform(3)))
            .stage(
                Stage::new(
                    "s2",
                    FnMapper::new(|k: u32, v: u64, out: &mut Emitter<u32, u64>| out.emit(k % 2, v)),
                    sum_reducer(),
                )
                .config(JobConfig::uniform(2)),
            )
            .build();
        let mut got = driver.run_plan(p);

        got.sort();
        want.sort();
        assert_eq!(got, want);
        let h = driver.history();
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].name, "s1");
        assert_eq!(h[1].name, "s2");
        assert_eq!(h[0].shuffle_bytes, m1.shuffle_bytes);
        assert_eq!(h[1].shuffle_bytes, m2.shuffle_bytes);
        assert!(h.iter().all(|m| m.shuffle_bytes_saved == 0));
    }

    #[test]
    fn map_stages_fuse_into_one_single_pass_stage() {
        let rows = input_rows(60);

        // Reference: the unfused dataflow, one job per map stage.
        let (a, _) = Stage::new(
            "m1",
            FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u32>| {
                out.emit(k, v / 2);
            }),
            FnReducer::new(|k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u32>| {
                for v in vs {
                    out.emit(*k, v);
                }
            }),
        )
        .config(JobConfig::uniform(2))
        .run(rows.clone());
        let (mut want, _) = Stage::new("m2", mod_key_mapper(), sum_reducer())
            .config(JobConfig::uniform(2))
            .run(a);

        let mut driver = Driver::new();
        let p = plan("fused")
            .rows(rows)
            .map_stage(FnMapper::new(
                |k: u32, v: u32, out: &mut Emitter<u32, u32>| {
                    out.emit(k, v / 2);
                },
            ))
            .map_stage(mod_key_mapper())
            .reduce_stage(
                Stage::reduce_only("fused-sum", sum_reducer()).config(JobConfig::uniform(2)),
            )
            .build();
        let mut got = driver.run_plan(p);

        got.sort();
        want.sort();
        assert_eq!(got, want);
        // The two map-only stages and the reduce stage ran as ONE job.
        assert_eq!(driver.history().len(), 1);
        assert_eq!(driver.history()[0].name, "fused-sum");
        assert_eq!(driver.history()[0].map_output_records, 60);
    }

    #[test]
    fn co_partitioned_stages_elide_the_second_shuffle() {
        let snap = Snapshot::new(input_rows(200));
        let mut driver = Driver::new();

        let p1 = plan("sum")
            .snapshot(&snap)
            .map_stage(mod_key_mapper())
            .reduce_stage(
                Stage::reduce_only("sum", sum_reducer())
                    .config(JobConfig::uniform(4))
                    .co_partitioned("mod7"),
            )
            .build();
        let sums = driver.run_plan(p1);

        let p2 = plan("max")
            .snapshot(&snap)
            .map_stage(mod_key_mapper())
            .reduce_stage(
                Stage::reduce_only("max", max_reducer())
                    .config(JobConfig::uniform(4))
                    .co_partitioned("mod7"),
            )
            .build();
        let mut maxes = driver.run_plan(p2);

        let h = driver.history();
        assert_eq!(h.len(), 2);
        assert!(h[0].shuffle_bytes > 0);
        assert_eq!(h[0].shuffle_bytes_saved, 0);
        // Second stage: map+shuffle elided, volume accounted as saved.
        assert_eq!(h[1].map_input_records, 0);
        assert_eq!(h[1].map_output_records, 0);
        assert_eq!(h[1].shuffle_records, 0);
        assert_eq!(h[1].shuffle_bytes, 0);
        assert_eq!(h[1].shuffle_bytes_saved, h[0].shuffle_bytes);
        // Reduce still ran for real.
        assert_eq!(h[1].reduce_input_groups, 7);

        // Outputs are bit-identical to an un-elided run.
        let mut plain_driver = Driver::new().with_elision(false);
        let p2_plain = plan("max-plain")
            .snapshot(&snap)
            .map_stage(mod_key_mapper())
            .reduce_stage(
                Stage::reduce_only("max", max_reducer())
                    .config(JobConfig::uniform(4))
                    .co_partitioned("mod7"),
            )
            .build();
        let mut plain = plain_driver.run_plan(p2_plain);
        maxes.sort();
        plain.sort();
        assert_eq!(maxes, plain);
        assert_eq!(plain_driver.history()[0].shuffle_bytes_saved, 0);
        assert!(plain_driver.history()[0].shuffle_bytes > 0);

        // And the sums are what a direct job computes.
        let (mut want_sums, _) = Stage::new("ref", mod_key_mapper(), sum_reducer())
            .config(JobConfig::uniform(4))
            .run(snap.rows().to_vec());
        let mut sums = sums;
        sums.sort();
        want_sums.sort();
        assert_eq!(sums, want_sums);
    }

    #[test]
    fn contract_mismatch_falls_back_to_full_execution() {
        let snap = Snapshot::new(input_rows(80));
        let mut driver = Driver::new();

        let p1 = plan("sum")
            .snapshot(&snap)
            .map_stage(mod_key_mapper())
            .reduce_stage(
                Stage::reduce_only("sum", sum_reducer())
                    .config(JobConfig::uniform(4))
                    .co_partitioned("tok"),
            )
            .build();
        driver.run_plan(p1);

        // Same token but different reduce task count: the verified part of
        // the contract fails, so the stage runs (correctly) in full.
        let p2 = plan("max")
            .snapshot(&snap)
            .map_stage(mod_key_mapper())
            .reduce_stage(
                Stage::reduce_only("max", max_reducer())
                    .config(JobConfig::uniform(2))
                    .co_partitioned("tok"),
            )
            .build();
        let mut got = driver.run_plan(p2);

        let h = driver.history();
        assert_eq!(h[1].shuffle_bytes_saved, 0);
        assert!(h[1].shuffle_bytes > 0);

        let (mut want, _) = Stage::new("ref", mod_key_mapper(), max_reducer())
            .config(JobConfig::uniform(2))
            .run(snap.rows().to_vec());
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn contract_over_other_rows_falls_back_to_full_execution() {
        // Same token, task counts and partitioner, but the second plan
        // reads different rows: the source check must refuse the retained
        // partitions.
        let run = |driver: &mut Driver, snap: &Snapshot<u32, u32>| {
            driver.run_plan(
                plan("sum")
                    .snapshot(snap)
                    .map_stage(mod_key_mapper())
                    .reduce_stage(
                        Stage::reduce_only("sum", sum_reducer())
                            .config(JobConfig::uniform(3))
                            .co_partitioned("tok"),
                    )
                    .build(),
            )
        };
        let (first, second) = (Snapshot::new(input_rows(90)), Snapshot::new(input_rows(40)));
        let mut driver = Driver::new();
        run(&mut driver, &first);
        let got = run(&mut driver, &second);
        assert_eq!(driver.history()[1].shuffle_bytes_saved, 0);
        assert_eq!(got, run(&mut Driver::new(), &second));
    }

    #[test]
    fn snapshot_feeds_stages_without_copying_upfront() {
        let snap = Snapshot::new(input_rows(50));
        let resident = |s: &Snapshot<u32, u32>| match &s.rows {
            SnapRows::Resident(a) => Arc::clone(a),
            SnapRows::Spilled(_) => unreachable!("built resident"),
        };
        let before = Arc::strong_count(&resident(&snap)) - 1;
        let mut driver = Driver::new();
        let p = plan("reader")
            .snapshot(&snap)
            .map_stage(mod_key_mapper())
            .reduce_stage(Stage::reduce_only("sum", sum_reducer()).config(JobConfig::uniform(3)))
            .build();
        let mut got = driver.run_plan(p);
        // The plan held a reference, not a copy, and released it.
        assert_eq!(Arc::strong_count(&resident(&snap)) - 1, before);

        let (mut want, _) = Stage::new("ref", mod_key_mapper(), sum_reducer())
            .config(JobConfig::uniform(3))
            .run(snap.rows().to_vec());
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn finalize_hook_edits_recorded_metrics() {
        let mut driver = Driver::new();
        let p = plan("hooked")
            .rows(input_rows(10))
            .stage(
                Stage::new("s", mod_key_mapper(), sum_reducer())
                    .config(JobConfig::uniform(2))
                    .finalize(|m: &mut JobMetrics| {
                        m.user.insert("custom".into(), 42);
                    }),
            )
            .build();
        driver.run_plan(p);
        assert_eq!(driver.history()[0].user["custom"], 42);
    }

    #[test]
    fn checkpoints_materialize_and_clear_on_success() {
        let mut driver = Driver::new().with_checkpoints(true);
        let p = plan("ckpt")
            .rows(input_rows(50))
            .stage(Stage::new("s1", mod_key_mapper(), sum_reducer()).config(JobConfig::uniform(2)))
            .build();
        driver.run_plan(p);
        // The stage reported the bytes it materialized, and the completed
        // plan cleared its checkpoints (they only survive kills).
        assert!(driver.history()[0].checkpoint_bytes > 0);
        assert!(driver.dfs().list("ckpt/").is_empty());
    }

    fn resume_plan(rows: &[(u32, u32)], stage2_fault: Option<crate::FaultPlan>) -> Plan<u32, u64> {
        let mut cfg2 = JobConfig::uniform(2);
        cfg2.chaos = stage2_fault.map(crate::ChaosPlan::from);
        plan("resume")
            .rows(rows.to_vec())
            .stage(Stage::new("s1", mod_key_mapper(), sum_reducer()).config(JobConfig::uniform(3)))
            .stage(
                Stage::new(
                    "s2",
                    FnMapper::new(|k: u32, v: u64, out: &mut Emitter<u32, u64>| out.emit(k % 2, v)),
                    sum_reducer(),
                )
                .config(cfg2),
            )
            .build()
    }

    #[test]
    fn killed_plan_resumes_from_last_checkpoint() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let rows = input_rows(80);
        let mut want = {
            let mut clean = Driver::new();
            clean.run_plan(resume_plan(&rows, None))
        };

        let mut driver = Driver::new().with_checkpoints(true);
        // First attempt: stage 2 has zero allowed attempts, so the job is
        // killed — after stage 1 materialized its checkpoint.
        let doomed = resume_plan(
            &rows,
            Some(crate::FaultPlan {
                fail_per_mille: 999,
                max_attempts: 0,
                seed: 7,
            }),
        );
        let killed = catch_unwind(AssertUnwindSafe(|| driver.run_plan(doomed)));
        assert!(killed.is_err());
        assert_eq!(driver.dfs().list("ckpt/resume/").len(), 1);

        // Retry of the identical (now healthy) plan resumes stage 1 from
        // its checkpoint instead of recomputing it.
        let mut got = driver.run_plan(resume_plan(&rows, None));
        got.sort();
        want.sort();
        assert_eq!(got, want);
        let resumed: Vec<_> = driver
            .history()
            .iter()
            .filter(|m| m.user.get("resumed_from_checkpoint") == Some(&1))
            .collect();
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].name, "s1");
        assert_eq!(resumed[0].map_input_records, 0);
        // Success clears the surviving checkpoints.
        assert!(driver.dfs().list("ckpt/").is_empty());
    }

    #[test]
    fn zero_budget_always_spill_is_bit_identical() {
        let rows = input_rows(300);

        let mut plain = Driver::new();
        let p_ref = plan("ref")
            .rows(rows.clone())
            .stage(Stage::new("s1", mod_key_mapper(), sum_reducer()).config(JobConfig::uniform(4)))
            .build();
        let want = plain.run_plan(p_ref);

        // Budget 0: every governed map task spills its buckets and reduce
        // streams them back. Output must match the resident run exactly —
        // same records in the same order, not just the same set.
        let mut budgeted = Driver::new().with_mem_budget(0);
        let p = plan("budgeted")
            .rows(rows)
            .stage(Stage::new("s1", mod_key_mapper(), sum_reducer()).config(JobConfig::uniform(4)))
            .build();
        let got = budgeted.run_plan(p);
        assert_eq!(got, want);

        let h = budgeted.history();
        assert!(h[0].spill_bytes > 0, "zero budget must force spills");
        // Shuffle accounting is unchanged by spilling: the logical volume
        // crossed the boundary either way.
        assert_eq!(h[0].shuffle_bytes, plain.history()[0].shuffle_bytes);
        assert_eq!(h[0].shuffle_records, plain.history()[0].shuffle_records);
        // Spill I/O is metered on the DFS disk tier, split from in-memory
        // materialization, and everything spilled was read back.
        assert!(budgeted.dfs().spill_bytes_written() > 0);
        assert_eq!(
            budgeted.dfs().spill_bytes_read(),
            budgeted.dfs().spill_bytes_written()
        );
        assert_eq!(budgeted.dfs().bytes_written(), 0);
        let gov = budgeted.mem_governor().expect("budget configured");
        assert_eq!(gov.spill_bytes(), h[0].spill_bytes);
        assert_eq!(gov.resident_bytes(), 0, "all charges released");
    }

    #[test]
    fn elision_under_budget_spills_retained_copy_and_stays_identical() {
        let snap = Snapshot::new(input_rows(200));

        let run = |mut driver: Driver| {
            let p1 = plan("sum")
                .snapshot(&snap)
                .map_stage(mod_key_mapper())
                .reduce_stage(
                    Stage::reduce_only("sum", sum_reducer())
                        .config(JobConfig::uniform(4))
                        .co_partitioned("mod7"),
                )
                .build();
            let sums = driver.run_plan(p1);
            let p2 = plan("max")
                .snapshot(&snap)
                .map_stage(mod_key_mapper())
                .reduce_stage(
                    Stage::reduce_only("max", max_reducer())
                        .config(JobConfig::uniform(4))
                        .co_partitioned("mod7"),
                )
                .build();
            let maxes = driver.run_plan(p2);
            (sums, maxes, driver)
        };

        let (want_sums, want_maxes, plain) = run(Driver::new());
        let (sums, maxes, budgeted) = run(Driver::new().with_mem_budget(0));
        assert_eq!(sums, want_sums);
        assert_eq!(maxes, want_maxes);

        let h = budgeted.history();
        // Elision accounting is untouched by the budget: the second stage
        // still skips its map+shuffle and reports the saved volume.
        assert_eq!(h[1].shuffle_bytes_saved, plain.history()[0].shuffle_bytes);
        assert_eq!(h[1].shuffle_bytes, 0);
        // The first stage spilled both its live buckets and the retained
        // cache copy.
        assert!(h[0].spill_bytes > 0);
    }

    #[test]
    fn spilled_snapshot_plan_matches_resident_snapshot() {
        let rows = input_rows(150);
        let spilled = SpilledRows::from_batches("snap-test", rows.chunks(40).map(|c| c.to_vec()))
            .expect("spill tmp dir");
        let snap_cold = Snapshot::from_spilled(spilled);
        assert!(snap_cold.is_spilled());
        assert_eq!(snap_cold.len(), 150);
        let snap_hot = Snapshot::new(rows);

        let run = |snap: &Snapshot<u32, u32>| {
            let mut driver = Driver::new();
            let p = plan("reader")
                .snapshot(snap)
                .map_stage(mod_key_mapper())
                .reduce_stage(
                    Stage::reduce_only("sum", sum_reducer()).config(JobConfig::uniform(3)),
                )
                .build();
            let out = driver.run_plan(p);
            let m = driver.history()[0].clone();
            (out, m)
        };

        let (want, m_hot) = run(&snap_hot);
        let (got, m_cold) = run(&snap_cold);
        assert_eq!(got, want);
        // Chunk boundaries — and therefore every counter — are identical
        // whether the input is streamed from disk or read from memory.
        assert_eq!(m_cold.shuffle_bytes, m_hot.shuffle_bytes);
        assert_eq!(m_cold.shuffle_records, m_hot.shuffle_records);
        assert_eq!(m_cold.map_input_records, m_hot.map_input_records);
    }

    #[test]
    fn map_chain_fuses_record_by_record() {
        let chain = MapChain::new(
            FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u32>| {
                // fan out two copies
                out.emit(k, v);
                out.emit(k + 1, v);
            }),
            FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u64>| {
                out.emit(k * 10, v as u64);
            }),
        );
        let mut out = Emitter::new();
        chain.map(3, 5, &mut out);
        assert_eq!(out.into_records(), vec![(30, 5u64), (40, 5u64)]);
    }
}
