//! # ingest — the model lifecycle subsystem
//!
//! The batch pipelines in [`ddp`] fit a [`ClusterModel`] once; this
//! crate keeps that model *alive* under writes. Three mechanisms:
//!
//! * **Batched incremental ingest** — [`IngestSession::apply`] takes a
//!   [`DeltaBatch`] of point inserts/deletes and updates `rho`, `delta`,
//!   upslope links, and labels for only the LSH buckets the batch
//!   touches, using the localized kernels in [`dp_core::update`]. Every
//!   point an update brushes is marked *stale*; the session's
//!   [`staleness`](IngestSession::staleness) estimate (built on
//!   [`dp_core::quality::staleness_degradation`]) quantifies the
//!   expected accuracy drift and tells operators when compaction is due.
//! * **A write-ahead log** — batches are durably logged ([`Wal`],
//!   fsynced per append) before acknowledgement and replayed on reopen,
//!   so a crash between compactions loses at most a torn in-flight
//!   batch.
//! * **Compaction** — [`IngestSession::compact`] re-runs the *full*
//!   LSH-DDP plan over the live point set on a driver that shares the
//!   session's [`Dfs`](mapreduce::Dfs). With checkpointing enabled in
//!   [`IngestConfig::pipeline`], a compaction killed mid-pipeline
//!   resumes from the last completed stage (`ckpt/<plan>/<stage>`) on
//!   the next attempt — and the result is **bit-identical** to a
//!   from-scratch refit on the same points, which is the subsystem's
//!   central invariant (enforced by proptest). The WAL outlives the
//!   compaction itself: the caller persists the returned artifact
//!   durably first and only then calls
//!   [`retire_wal`](IngestSession::retire_wal), so at every instant the
//!   logged batches are held by *some* durable state (old artifact +
//!   log, or new artifact).
//!
//! Published models are versioned: every applied batch and every
//! compaction bumps the lineage counter carried by
//! [`ClusterModel::version`], which the serving side's
//! [`ModelStore`](serve::ModelStore) hot-swap and version-keyed caches
//! key off.
//!
//! Observability: the session meters `ingest_batches`, `stale_points`,
//! and `model_compactions` counters into [`obsv::global`].

pub mod batch;
pub mod drill;
pub mod wal;

pub use batch::{DeltaBatch, DeltaOp};
pub use wal::{Wal, WalRecovery};

use ddp::prelude::{
    CentralizedStep, LshDdp, LshDdpConfig, PeakSelection, PipelineConfig, RunReport,
};
use dp_core::quality::DegradationReport;
use dp_core::update::{self, Neighbor};
use dp_core::{Dataset, PointId, NO_UPSLOPE};
use lsh::{BucketUnion, LshParams, MultiLsh, Signature};
use mapreduce::Dfs;
use obsv::Counter;
use serve::ClusterModel;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

/// Knobs for the ingest/compaction lifecycle.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Engine configuration for compaction refits. Enable
    /// [`PipelineConfig::checkpoints`] to make a killed compaction
    /// resumable from its last completed stage.
    pub pipeline: PipelineConfig,
    /// Peak-selection policy compaction hands the centralized step.
    pub selection: PeakSelection,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            pipeline: PipelineConfig::default(),
            selection: PeakSelection::Auto,
        }
    }
}

/// Ingest-path failures. Validation happens *before* any state or WAL
/// mutation: a rejected batch leaves the session untouched.
#[derive(Debug)]
pub enum IngestError {
    /// A point's dimensionality does not match the model.
    DimMismatch {
        /// Model dimensionality.
        expected: usize,
        /// Offending point's dimensionality.
        got: usize,
    },
    /// A delete referenced a key that does not exist (or is already
    /// deleted).
    UnknownKey(u64),
    /// The batch would delete every remaining member of a cluster; the
    /// model invariant requires each cluster to keep its peak. Compact
    /// with a different peak selection to retire a cluster.
    WouldEmptyCluster(u32),
    /// The WAL's recorded lineage does not match the model being opened
    /// (e.g. the artifact was replaced underneath the log, or a crash
    /// interrupted compaction after the new artifact landed but before
    /// the log was retired — the batches are already folded into the
    /// artifact; retire or remove the stale log to proceed).
    WalMismatch {
        /// Version the session is at.
        expected: u64,
        /// Version the WAL record claims to apply to.
        got: u64,
    },
    /// WAL I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::DimMismatch { expected, got } => {
                write!(f, "point dimension {got} does not match model {expected}")
            }
            IngestError::UnknownKey(k) => write!(f, "no live point with key {k}"),
            IngestError::WouldEmptyCluster(c) => {
                write!(f, "batch would delete every member of cluster {c}")
            }
            IngestError::WalMismatch { expected, got } => {
                write!(
                    f,
                    "WAL batch targets model version {got}, session is at {expected}"
                )
            }
            IngestError::Io(e) => write!(f, "ingest i/o: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

/// The outcome of one [`IngestSession::apply`] call.
#[derive(Debug, Clone)]
pub struct Applied {
    /// The batch as logged (with its lineage stamp).
    pub batch: DeltaBatch,
    /// Model version after the batch.
    pub version: u64,
    /// Points newly marked stale by this batch.
    pub newly_stale: u64,
}

/// The outcome of a compaction: the fresh artifact plus the refit's
/// pipeline report (whose stage metrics reveal checkpoint resumes).
///
/// Lifecycle contract: persist [`model`](Compaction::model) durably,
/// *then* call [`IngestSession::retire_wal`] to drop the folded log.
pub struct Compaction {
    /// The compacted model, versioned one past the session's last state.
    pub model: ClusterModel,
    /// The LSH-DDP run report of the refit.
    pub report: RunReport,
}

/// A mutable, versioned view over a [`ClusterModel`]: slots for every
/// point ever seen (tombstoned on delete, never reordered), incremental
/// LSH bucket tables, and the staleness bookkeeping.
///
/// External identity: the base model's points carry keys `0..n` in
/// point-id order; each insert takes the next key. Keys survive
/// compaction.
pub struct IngestSession {
    config: IngestConfig,
    algorithm: String,
    dim: usize,
    dc: f64,
    params: LshParams,
    lsh_seed: u64,
    version: u64,
    seq: u64,

    multi: MultiLsh,
    /// Layout -> signature -> live slots in the bucket.
    tables: Vec<HashMap<Signature, Vec<PointId>>>,
    /// Bucket-union scratch shared by every probe of the session.
    union: BucketUnion,

    // Slot-major state; tombstones keep their entries (coords included)
    // so slot ids stay stable within a compaction epoch.
    coords: Vec<f64>,
    rho: Vec<u32>,
    delta: Vec<f64>,
    upslope: Vec<PointId>,
    labels: Vec<u32>,
    halo: Vec<bool>,
    live: Vec<bool>,
    stale: Vec<bool>,
    n_live: usize,

    keys: Vec<u64>,
    by_key: HashMap<u64, PointId>,
    next_key: u64,
    peaks: Vec<PointId>,

    wal: Option<Wal>,
    /// Shared with every compaction driver, so a killed refit's stage
    /// checkpoints survive into the next attempt.
    dfs: Arc<Dfs>,

    batches_ctr: Arc<Counter>,
    stale_ctr: Arc<Counter>,
    compactions_ctr: Arc<Counter>,
}

impl IngestSession {
    /// A session over `model` with no WAL (mutations live only in
    /// memory until [`publish`](Self::publish) or
    /// [`compact`](Self::compact)).
    pub fn new(model: &ClusterModel, config: IngestConfig) -> Self {
        let reg = obsv::global();
        let mut session = IngestSession {
            config,
            algorithm: model.algorithm().to_string(),
            dim: model.dim(),
            dc: model.dc(),
            params: *model.params(),
            lsh_seed: model.seed(),
            version: model.version(),
            seq: 0,
            multi: MultiLsh::new(model.dim(), model.params(), model.seed()),
            tables: Vec::new(),
            union: BucketUnion::default(),
            coords: Vec::new(),
            rho: Vec::new(),
            delta: Vec::new(),
            upslope: Vec::new(),
            labels: Vec::new(),
            halo: Vec::new(),
            live: Vec::new(),
            stale: Vec::new(),
            n_live: 0,
            keys: Vec::new(),
            by_key: HashMap::new(),
            next_key: 0,
            peaks: Vec::new(),
            wal: None,
            dfs: Arc::new(Dfs::new()),
            batches_ctr: reg.counter("ingest_batches"),
            stale_ctr: reg.counter("stale_points"),
            compactions_ctr: reg.counter("model_compactions"),
        };
        session.seed_from(model, None);
        session
    }

    /// A session over `model` backed by the WAL at `path`: intact logged
    /// batches are replayed (bringing the session ahead of the artifact
    /// on disk), a torn tail is truncated. Returns the session and how
    /// many batches were replayed.
    pub fn with_wal(
        model: &ClusterModel,
        config: IngestConfig,
        path: impl AsRef<Path>,
    ) -> Result<(Self, usize), IngestError> {
        Self::with_wal_fs(model, config, path, mapreduce::io_shim::FaultFs::default())
    }

    /// [`Self::with_wal`] with an explicit storage-fault domain: the
    /// WAL *and* the session's compaction spill tier route their I/O
    /// through `fs` — the injection point for crash-consistency drills.
    pub fn with_wal_fs(
        model: &ClusterModel,
        config: IngestConfig,
        path: impl AsRef<Path>,
        fs: mapreduce::io_shim::FaultFs,
    ) -> Result<(Self, usize), IngestError> {
        let mut session = IngestSession::new(model, config);
        session.dfs.set_io_fs(fs.clone());
        let (wal, recovery) = Wal::open_with(path, fs)?;
        session.wal = Some(wal);
        let replayed = recovery.batches.len();
        for batch in recovery.batches {
            if batch.model_version != session.version {
                return Err(IngestError::WalMismatch {
                    expected: session.version,
                    got: batch.model_version,
                });
            }
            // Replay must succeed: these batches were validated before
            // they were acknowledged and logged.
            session
                .apply_inner(batch.ops, false)
                .expect("WAL replays a previously accepted batch");
        }
        Ok((session, replayed))
    }

    /// Re-seeds every slot from a model. `keys`: existing external keys
    /// for the model's points in id order (compaction), or `None` to
    /// assign `0..n` (fresh open).
    fn seed_from(&mut self, model: &ClusterModel, keys: Option<Vec<u64>>) {
        let n = model.len();
        self.coords = model.coords().to_vec();
        self.rho = model.rhos().to_vec();
        self.delta = model.deltas().to_vec();
        self.upslope = model.upslopes().to_vec();
        self.labels = model.labels().to_vec();
        self.halo = model.halos().to_vec();
        self.live = vec![true; n];
        self.stale = vec![false; n];
        self.n_live = n;
        self.peaks = model.peaks().to_vec();
        self.keys = keys.unwrap_or_else(|| (0..n as u64).collect());
        assert_eq!(self.keys.len(), n, "one key per model point");
        self.next_key = self.next_key.max(n as u64);
        self.by_key = self
            .keys
            .iter()
            .enumerate()
            .map(|(slot, &k)| (k, slot as PointId))
            .collect();
        self.tables = lsh::bucket_tables(
            &self.multi,
            (0..n).map(|i| &model.coords()[i * self.dim..(i + 1) * self.dim]),
        );
        self.version = model.version();
    }

    /// Applies one batch of mutations: validates it in full (a rejected
    /// batch changes nothing), logs it to the WAL, then updates the
    /// touched buckets through the localized kernels and bumps the
    /// model version.
    pub fn apply(&mut self, ops: Vec<DeltaOp>) -> Result<Applied, IngestError> {
        self.apply_inner(ops, true)
    }

    fn apply_inner(&mut self, ops: Vec<DeltaOp>, log: bool) -> Result<Applied, IngestError> {
        self.validate(&ops)?;
        let batch = DeltaBatch {
            model_version: self.version,
            seq: self.seq,
            ops,
        };
        if log {
            if let Some(wal) = &mut self.wal {
                wal.append(&batch)?;
            }
        }

        let mut newly_stale = 0u64;
        for op in &batch.ops {
            newly_stale += match op {
                DeltaOp::Insert(coords) => self.insert(coords),
                DeltaOp::Delete(key) => self.delete(*key),
            };
        }
        self.seq += 1;
        self.version += 1;
        self.batches_ctr.inc(1);
        self.stale_ctr.inc(newly_stale);
        Ok(Applied {
            version: self.version,
            newly_stale,
            batch,
        })
    }

    /// Up-front whole-batch validation. Deletes are checked against the
    /// *pre-batch* live set (inserts within the same batch cannot prop
    /// up a cluster the batch also empties — conservative, and keeps
    /// validation side-effect free). Per-cluster live counts are built
    /// once, on the first delete, so a batch of `k` deletes over `n`
    /// points validates in O(n + k) instead of O(n·k + k²).
    fn validate(&self, ops: &[DeltaOp]) -> Result<(), IngestError> {
        let mut dead: HashSet<u64> = HashSet::new();
        let mut remaining: Option<HashMap<u32, usize>> = None;
        for op in ops {
            match op {
                DeltaOp::Insert(coords) => {
                    if coords.len() != self.dim {
                        return Err(IngestError::DimMismatch {
                            expected: self.dim,
                            got: coords.len(),
                        });
                    }
                }
                DeltaOp::Delete(key) => {
                    let slot = match self.by_key.get(key) {
                        Some(&s) if self.live[s as usize] => s,
                        _ => return Err(IngestError::UnknownKey(*key)),
                    };
                    if !dead.insert(*key) {
                        return Err(IngestError::UnknownKey(*key));
                    }
                    let remaining = remaining.get_or_insert_with(|| {
                        let mut counts: HashMap<u32, usize> = HashMap::new();
                        for i in 0..self.live.len() {
                            if self.live[i] {
                                *counts.entry(self.labels[i]).or_insert(0) += 1;
                            }
                        }
                        counts
                    });
                    let c = self.labels[slot as usize];
                    let left = remaining
                        .get_mut(&c)
                        .expect("a live point's cluster is counted");
                    *left -= 1;
                    if *left == 0 {
                        return Err(IngestError::WouldEmptyCluster(c));
                    }
                }
            }
        }
        Ok(())
    }

    /// Inserts one point; returns how many points became newly stale.
    fn insert(&mut self, point: &[f64]) -> u64 {
        let s = self.rho.len() as PointId;
        let sigs = self.multi.signatures(point);

        // Per-layout density estimates (the paper's max aggregation) and
        // the union candidate set for the separation search.
        let mut rho_q = 0u32;
        let buckets = self.tables.iter().zip(&sigs);
        for bucket in buckets.filter_map(|(t, sig)| t.get(sig)) {
            let within = update::neighbors_within(point, bucket, &self.coords, self.dim, self.dc);
            rho_q = rho_q.max(within.len() as u32);
        }
        let union = self.union.collect(&self.tables, &sigs).ids();
        let neighbors = update::candidate_neighbors(point, union, &self.coords, self.dim);

        // Anchor the new point (localized Eq. 2); out-of-bucket points
        // degrade to the nearest peak, exactly like the serving-time
        // fallback.
        let anchor = update::nearest_denser(s, rho_q, &neighbors, &self.rho)
            .or_else(|| self.nearest_peak(point));
        let (delta_q, upslope_q, label_q, halo_q) = match anchor {
            Some(a) => (
                a.dist,
                a.id,
                self.labels[a.id as usize],
                self.halo[a.id as usize],
            ),
            None => unreachable!("a model always keeps at least one live peak"),
        };

        // Materialize the slot, then push density/separation effects out
        // to the bucket-mates.
        self.coords.extend_from_slice(point);
        self.rho.push(rho_q);
        self.delta.push(delta_q);
        self.upslope.push(upslope_q);
        self.labels.push(label_q);
        self.halo.push(halo_q);
        self.live.push(true);
        self.stale.push(false);
        self.n_live += 1;
        let key = self.next_key;
        self.next_key += 1;
        self.keys.push(key);
        self.by_key.insert(key, s);

        let mut newly = self.mark_stale(s); // incremental estimates are stale by definition
        let within: Vec<Neighbor> = neighbors
            .iter()
            .copied()
            .filter(|n| n.dist < self.dc)
            .collect();
        update::bump_rho(&mut self.rho, &within);
        for n in &within {
            newly += self.mark_stale(n.id);
        }
        update::relax_toward(
            s,
            rho_q,
            &neighbors,
            &self.rho,
            &mut self.delta,
            &mut self.upslope,
        );
        for n in &neighbors {
            if self.upslope[n.id as usize] == s {
                newly += self.mark_stale(n.id);
            }
        }

        for (m, sig) in sigs.into_iter().enumerate() {
            self.tables[m].entry(sig).or_default().push(s);
        }
        newly
    }

    /// Deletes the point under `key` (validated to exist and to leave
    /// its cluster non-empty); returns how many points became newly
    /// stale.
    fn delete(&mut self, key: u64) -> u64 {
        let slot = self.by_key.remove(&key).expect("validated key");
        let si = slot as usize;
        let point: Vec<f64> = self.point(slot).to_vec();
        let sigs = self.multi.signatures(&point);

        // Unhook from the bucket tables first: the slot must not appear
        // as its own neighborhood's candidate.
        for (m, sig) in sigs.iter().enumerate() {
            if let Some(bucket) = self.tables[m].get_mut(sig) {
                bucket.retain(|&x| x != slot);
                if bucket.is_empty() {
                    self.tables[m].remove(sig);
                }
            }
        }
        self.live[si] = false;
        self.n_live -= 1;

        // Reverse the density contribution for surviving bucket-mates.
        let union = self.union.collect(&self.tables, &sigs).ids();
        let within: Vec<PointId> =
            update::neighbors_within(&point, union, &self.coords, self.dim, self.dc)
                .into_iter()
                .map(|n| n.id)
                .collect();
        update::drop_rho(&mut self.rho, &within);
        let mut newly = 0;
        for &id in &within {
            newly += self.mark_stale(id);
        }

        // Points that upsloped through the deleted slot re-anchor over
        // their own buckets.
        for p in 0..self.live.len() as PointId {
            if self.live[p as usize] && self.upslope[p as usize] == slot {
                newly += self.reanchor(p);
            }
        }

        // A deleted peak hands its cluster to the densest survivor.
        if let Some(c) = self.peaks.iter().position(|&pk| pk == slot) {
            let heir = (0..self.live.len() as PointId)
                .filter(|&i| self.live[i as usize] && self.labels[i as usize] == c as u32)
                .max_by_key(|&i| (self.rho[i as usize], i))
                .expect("validation keeps every cluster non-empty");
            self.peaks[c] = heir;
            newly += self.mark_stale(heir);
        }
        newly
    }

    /// Localized separation recompute for `p` after its upslope point
    /// died: search its own bucket-mates; fall back to the nearest peak;
    /// a point with no denser reachable neighbor becomes a local
    /// apparent-peak (`NO_UPSLOPE`), the same convention approximate
    /// batch results use.
    fn reanchor(&mut self, p: PointId) -> u64 {
        let point: Vec<f64> = self.point(p).to_vec();
        // The union holds `p` itself; `nearest_denser` never picks it.
        let sigs = self.multi.signatures(&point);
        let union = self.union.collect(&self.tables, &sigs).ids();
        let neighbors = update::candidate_neighbors(&point, union, &self.coords, self.dim);
        let anchor = update::nearest_denser(p, self.rho[p as usize], &neighbors, &self.rho)
            .or_else(|| self.nearest_peak(&point).filter(|pk| pk.id != p));
        match anchor {
            Some(a) => {
                self.delta[p as usize] = a.dist;
                self.upslope[p as usize] = a.id;
            }
            None => {
                self.upslope[p as usize] = NO_UPSLOPE;
            }
        }
        self.mark_stale(p)
    }

    /// The nearest live peak to `point`, as a [`Neighbor`].
    fn nearest_peak(&self, point: &[f64]) -> Option<Neighbor> {
        update::candidate_neighbors(point, &self.peaks, &self.coords, self.dim)
            .into_iter()
            .min_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)))
    }

    fn mark_stale(&mut self, slot: PointId) -> u64 {
        let s = slot as usize;
        if self.live[s] && !self.stale[s] {
            self.stale[s] = true;
            1
        } else {
            0
        }
    }

    fn point(&self, slot: PointId) -> &[f64] {
        let i = slot as usize * self.dim;
        &self.coords[i..i + self.dim]
    }

    /// The live points as a dense [`Dataset`], in slot order — the
    /// canonical point set both [`publish`](Self::publish) and
    /// [`compact`](Self::compact) (and any from-scratch refit) operate
    /// on.
    pub fn live_dataset(&self) -> Dataset {
        let mut ds = Dataset::new(self.dim);
        for s in 0..self.live.len() {
            if self.live[s] {
                ds.push(self.point(s as PointId));
            }
        }
        ds
    }

    /// Snapshots the session's *incremental* state as a publishable
    /// model at the current version: tombstones squeezed out, slot ids
    /// densified, upslope links through dead points rewired to
    /// `NO_UPSLOPE`. This is the cheap path — the artifact reflects the
    /// localized estimates, staleness and all; [`compact`](Self::compact)
    /// is the exact one.
    pub fn publish(&self) -> ClusterModel {
        let n_slots = self.live.len();
        let mut dense: Vec<PointId> = vec![NO_UPSLOPE; n_slots];
        let mut next = 0u32;
        for (d, &alive) in dense.iter_mut().zip(&self.live) {
            if alive {
                *d = next;
                next += 1;
            }
        }
        let remap = |slot: PointId| -> PointId {
            if slot == NO_UPSLOPE || !self.live[slot as usize] {
                NO_UPSLOPE
            } else {
                dense[slot as usize]
            }
        };
        let live = |s: &usize| self.live[*s];

        let mut coords = Vec::with_capacity(self.n_live * self.dim);
        for s in (0..n_slots).filter(live) {
            coords.extend_from_slice(self.point(s as PointId));
        }
        ClusterModel::from_parts(
            self.version,
            self.algorithm.clone(),
            self.dim,
            self.dc,
            self.params,
            self.lsh_seed,
            coords,
            (0..n_slots).filter(live).map(|s| self.rho[s]).collect(),
            (0..n_slots).filter(live).map(|s| self.delta[s]).collect(),
            (0..n_slots)
                .filter(live)
                .map(|s| remap(self.upslope[s]))
                .collect(),
            (0..n_slots).filter(live).map(|s| self.labels[s]).collect(),
            self.peaks.iter().map(|&pk| dense[pk as usize]).collect(),
            (0..n_slots).filter(live).map(|s| self.halo[s]).collect(),
        )
    }

    /// Re-runs the full LSH-DDP plan over the live point set and resets
    /// the session onto the result.
    ///
    /// The refit's driver shares the session's [`Dfs`]: with
    /// checkpointing enabled, a compaction killed mid-pipeline leaves
    /// its completed stages under `ckpt/<plan>/<stage>`, and the next
    /// `compact` call resumes from them instead of recomputing. Output
    /// is bit-identical to a from-scratch refit either way.
    ///
    /// On success staleness drops to zero, external keys carry over,
    /// and the version advances by one. The WAL is **not** touched:
    /// durably persist [`Compaction::model`] first (e.g.
    /// [`ClusterModel::save`], which writes atomically), then call
    /// [`retire_wal`](Self::retire_wal). Clearing the log any earlier
    /// would open a window where a crash leaves the old artifact and an
    /// empty log — every acknowledged batch lost.
    pub fn compact(&mut self) -> Compaction {
        // Heap-accounted (inert unless `obsv::alloc::enable_accounting`
        // ran): a refit materializes the full live dataset plus the plan's
        // intermediates, and its footprint bounds the streaming budget.
        let mem = obsv::alloc::scope();
        let _span = obsv::span!("ingest", "compact");
        let ds = obsv::span!("ingest", "compact/live_dataset" => { self.live_dataset() });
        let ddp = LshDdp::new(LshDdpConfig {
            params: self.params,
            seed: self.lsh_seed,
            pipeline: self.config.pipeline,
            rho_aggregation: Default::default(),
            partition_cap: None,
        });
        let driver = self
            .config
            .pipeline
            .driver()
            .with_dfs(Arc::clone(&self.dfs));
        let report =
            obsv::span!("ingest", "compact/refit" => { ddp.run_with_driver(&ds, self.dc, driver) });
        let outcome = obsv::span!("ingest", "compact/centralized" => {
            CentralizedStep::new(self.config.selection.clone()).run(&report.result)
        });
        // `from_run` is the halo pass plus field copies.
        let model = obsv::span!("ingest", "compact/halo" => {
            ClusterModel::from_run(&ds, &report, &outcome, &self.params, self.lsh_seed)
        })
        .with_version(self.version + 1);

        // The refit succeeded: re-seed the session onto it. The WAL is
        // deliberately left intact — its batches are only *durably*
        // folded once the caller persists the artifact and retires the
        // log (`retire_wal`).
        obsv::span!("ingest", "compact/reseed" => {
            let keys = self.live_keys();
            self.algorithm = model.algorithm().to_string();
            self.seed_from(&model, Some(keys));
        });
        self.compactions_ctr.inc(1);
        obsv::global()
            .gauge("ingest.compact_peak_bytes")
            .set(mem.peak() as i64);
        Compaction { model, report }
    }

    /// Retires the WAL after a compaction: truncates (and fsyncs) the
    /// log. Call this only once the compacted artifact durably holds
    /// the logged batches — i.e. after [`Compaction::model`] has been
    /// written to its final path. A crash *before* this call is safe
    /// either way: old artifact + full log if the save never landed, or
    /// new artifact + stale log (whose out-of-lineage batches are
    /// refused on open, never replayed twice) if it did. No-op without
    /// a WAL.
    pub fn retire_wal(&mut self) -> Result<(), IngestError> {
        if let Some(wal) = &mut self.wal {
            wal.clear()?;
        }
        Ok(())
    }

    /// Expected-accuracy estimate for the current staleness level: the
    /// per-point accuracy of the model's LSH ensemble (Theorem 1, via
    /// [`lsh::prob::expected_accuracy`]) mixed over the stale fraction.
    pub fn staleness(&self) -> DegradationReport {
        let per_point =
            lsh::prob::expected_accuracy(self.params.w, self.dc, self.params.pi, self.params.m);
        dp_core::quality::staleness_degradation(per_point, self.n_live, self.stale_points())
    }

    /// Live points currently carrying incrementally maintained (stale)
    /// estimates.
    pub fn stale_points(&self) -> usize {
        (0..self.live.len())
            .filter(|&s| self.live[s] && self.stale[s])
            .count()
    }

    /// Live point count.
    pub fn len(&self) -> usize {
        self.n_live
    }

    /// Whether the session holds no live points (never true: deletes
    /// cannot empty the model).
    pub fn is_empty(&self) -> bool {
        self.n_live == 0
    }

    /// Current model lineage version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Batches applied so far (including WAL replays).
    pub fn batches_applied(&self) -> u64 {
        self.seq
    }

    /// The cutoff distance inherited from the base model.
    pub fn dc(&self) -> f64 {
        self.dc
    }

    /// LSH layout parameters inherited from the base model.
    pub fn params(&self) -> &LshParams {
        &self.params
    }

    /// Hash-layout seed inherited from the base model.
    pub fn seed(&self) -> u64 {
        self.lsh_seed
    }

    /// The lifecycle configuration (mutable, e.g. to toggle fault
    /// injection between compaction attempts in drills).
    pub fn config_mut(&mut self) -> &mut IngestConfig {
        &mut self.config
    }

    /// The DFS shared by this session's compaction drivers.
    pub fn dfs(&self) -> &Arc<Dfs> {
        &self.dfs
    }

    /// External keys of the live points, in slot (= publish) order.
    pub fn live_keys(&self) -> Vec<u64> {
        (0..self.live.len())
            .filter(|&s| self.live[s])
            .map(|s| self.keys[s])
            .collect()
    }
}
