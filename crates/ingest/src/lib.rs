//! # ingest — the model lifecycle subsystem
//!
//! The batch pipelines in [`ddp`] fit a [`ClusterModel`] once; this
//! crate keeps that model *alive* under writes. Three mechanisms:
//!
//! * **Batched incremental ingest** — [`IngestSession::apply`] takes a
//!   [`DeltaBatch`] of point inserts/deletes and answers each through the
//!   model's exact index with the read rule ([`serve::Probe`]): an insert
//!   stores its read's density and label and links to its nearest
//!   strictly denser live point; a delete retires the point's key, hands
//!   a deleted peak's cluster to its heir and re-links the point's
//!   children the same way. No stored density of an existing point ever
//!   changes, so every link climbs and a published model is a DP forest.
//!   The points whose fields a write stored are *stale*
//!   ([`stale_points`](IngestSession::stale_points)) until the next
//!   compaction.
//! * **A write-ahead log** — batches are durably logged ([`Wal`],
//!   fsynced per append) before acknowledgement and replayed on reopen,
//!   so a crash between compactions loses at most a torn in-flight
//!   batch.
//! * **Compaction** — [`IngestSession::compact`] refits the live point
//!   set *exactly*: Basic-DDP with a single block, i.e. one `rho` and one
//!   `delta` pass over every live point (Eq. 1 / Eq. 2, the same kernels
//!   as [`dp_core::compute_exact`]), as a plan on a driver that shares
//!   the session's [`Dfs`]. With checkpointing enabled in
//!   [`IngestConfig::pipeline`], a compaction killed mid-pipeline
//!   resumes from the last completed stage (`ckpt/<plan>/<stage>`) on
//!   the next attempt — and the result is **bit-identical** to the
//!   definition over the same points, which is the subsystem's central
//!   invariant (enforced by proptest). The WAL outlives the compaction
//!   itself: the caller persists the returned artifact durably first
//!   and only then calls [`retire_wal`](IngestSession::retire_wal), so
//!   at every instant the logged batches are held by *some* durable
//!   state (old artifact + log, or new artifact).
//!
//! Published models are versioned: every applied batch and every
//! compaction bumps the lineage counter carried by
//! [`ClusterModel::version`], which the serving side's
//! [`ModelStore`](serve::ModelStore) hot-swap and version-keyed caches
//! key off.
//!
//! Observability: the session meters `ingest_batches`, `stale_points`
//! (each insert and re-anchor a batch writes), and `model_compactions`
//! counters into [`obsv::global`].

pub mod batch;
pub mod drill;
pub mod wal;

pub use batch::{DeltaBatch, DeltaOp};
pub use wal::{Wal, WalRecovery};

use ddp::prelude::{
    BasicConfig, BasicDdp, CentralizedStep, PeakSelection, PipelineConfig, RunReport,
};
use dp_core::local::Key;
use dp_core::{Dataset, DensityKeys, PointId, NO_UPSLOPE};
use lsh::LshParams;
use mapreduce::Dfs;
use obsv::Counter;
use serve::{ClusterModel, ExactIndex, View};
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
    /// An inserted point has a NaN or infinite coordinate; no distance
    /// is defined over it.
    NonFinite {
        /// 1-based column of the first non-finite coordinate.
        column: usize,
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
            IngestError::NonFinite { column } => {
                write!(f, "non-finite value in column {column}")
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
}

/// The outcome of a compaction: the fresh artifact plus the refit's
/// pipeline report (whose stage metrics reveal checkpoint resumes).
///
/// Lifecycle contract: persist [`model`](Compaction::model) durably,
/// *then* call [`IngestSession::retire_wal`] to drop the folded log.
pub struct Compaction {
    /// The compacted model, versioned one past the session's last state.
    pub model: ClusterModel,
    /// The one-block Basic-DDP run report of the exact refit: its four
    /// `basic/*` jobs, distance count and `(rho, delta, upslope)`.
    pub report: RunReport,
}

/// A mutable, versioned view over a [`ClusterModel`]: slots for every
/// point ever seen (tombstoned on delete, never reordered), and the exact
/// index of the model it was opened on or compacted to, which answers
/// every write and which every model it publishes reads through.
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

    /// The exact index over the first `base_len` slots, shared with the
    /// model the session was seeded from.
    index: ExactIndex,
    base_len: usize,
    /// The density keys laid over the index (`(rho + 1, slot)`, `(0, 0)`
    /// once deleted) and each base slot's row in it; `None` without an
    /// index.
    density: Option<(DensityKeys, Vec<u32>)>,
    /// The first slot the index does not hold: `base_len`, or 0 without
    /// an index. Slots from here on are scanned.
    block: usize,
    /// The scanned slots' keys, in the same form.
    scanned_keys: Vec<Key>,
    /// The deleted base slots' coordinates, row-major.
    dead: Vec<f64>,

    // Slot-major state; tombstones keep their entries (coords included)
    // so slot ids stay stable within a compaction epoch.
    coords: Vec<f64>,
    rho: Vec<u32>,
    delta: Vec<f64>,
    upslope: Vec<PointId>,
    labels: Vec<u32>,
    halo: Vec<bool>,
    live: Vec<bool>,
    /// Whether the slot's fields came from the session (an insert or a
    /// re-anchor) since the last compaction.
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
            index: ExactIndex::default(),
            base_len: 0,
            density: None,
            block: 0,
            scanned_keys: Vec::new(),
            dead: Vec::new(),
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
            // These batches were validated before they were acknowledged
            // and logged; only a log written by a build with looser
            // validation (non-finite inserts) can be refused here.
            session.apply_inner(batch.ops, false)?;
        }
        Ok((session, replayed))
    }

    /// Re-seeds every slot from a model, with its exact index (built here
    /// if nothing built it yet) as the session's. `keys`: existing
    /// external keys for the model's points in id order (compaction), or
    /// `None` to assign `0..n` (fresh open).
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
        self.index = model.exact_index();
        self.base_len = n;
        let key = |slot: u32| (self.rho[slot as usize].saturating_add(1), slot);
        self.density = self
            .index
            .get(&self.coords, self.dim)
            .map(|index| (index.density_keys(key), index.leaf_rows()));
        self.block = if self.density.is_some() { n } else { 0 };
        self.scanned_keys = (self.block as u32..n as u32).map(key).collect();
        self.dead.clear();
        self.version = model.version();
    }

    /// Applies one batch of mutations: validates it in full (a rejected
    /// batch changes nothing), logs it to the WAL, then answers each op
    /// through the exact index and bumps the model version.
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

        let mut written = 0u64;
        for op in &batch.ops {
            written += match op {
                DeltaOp::Insert(coords) => self.insert(coords),
                DeltaOp::Delete(key) => self.delete(*key),
            };
        }
        self.seq += 1;
        self.version += 1;
        self.batches_ctr.inc(1);
        self.stale_ctr.inc(written);
        Ok(Applied {
            version: self.version,
            batch,
        })
    }

    /// Up-front whole-batch validation. Deletes are checked against the
    /// *pre-batch* live set (inserts within the same batch cannot prop
    /// up a cluster the batch also empties — conservative, and keeps
    /// validation side-effect free). Per-cluster live counts are taken
    /// once, on the first delete, in one pass indexed by label, so a
    /// batch of `k` deletes over `n` points validates in O(n + k).
    fn validate(&self, ops: &[DeltaOp]) -> Result<(), IngestError> {
        let mut dead: HashSet<u64> = HashSet::new();
        let mut remaining: Option<Vec<usize>> = None;
        for op in ops {
            match op {
                DeltaOp::Insert(coords) => {
                    if coords.len() != self.dim {
                        return Err(IngestError::DimMismatch {
                            expected: self.dim,
                            got: coords.len(),
                        });
                    }
                    if let Some(c) = coords.iter().position(|v| !v.is_finite()) {
                        return Err(IngestError::NonFinite { column: c + 1 });
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
                        let mut counts = vec![0usize; self.peaks.len()];
                        for (&c, _) in self.labels.iter().zip(&self.live).filter(|(_, &a)| a) {
                            let c = c as usize;
                            if c >= counts.len() {
                                counts.resize(c + 1, 0);
                            }
                            counts[c] += 1;
                        }
                        counts
                    });
                    let c = self.labels[slot as usize];
                    let left = &mut remaining[c as usize];
                    *left -= 1;
                    if *left == 0 {
                        return Err(IngestError::WouldEmptyCluster(c));
                    }
                }
            }
        }
        Ok(())
    }

    /// The live slots as the read rule sees them.
    fn view(&self) -> View<'_> {
        let index = self
            .index
            .get(&self.coords[..self.base_len * self.dim], self.dim);
        View {
            dc: self.dc,
            index: index.zip(self.density.as_ref().map(|(keys, _)| keys)),
            dead: &self.dead,
            scanned: &self.coords[self.block * self.dim..],
            scanned_keys: &self.scanned_keys,
        }
    }

    /// Inserts one point: its `rho` is a read's density over the live
    /// points, its link the nearest live point strictly denser under the
    /// stored `(rho, id)` keys (none, as in [`Self::reanchor`], if it is
    /// the densest), its label and halo flag those of the point the read
    /// answers with. Returns 1, the points whose fields it wrote.
    fn insert(&mut self, point: &[f64]) -> u64 {
        let s = self.rho.len() as PointId;
        let view = self.view();
        let probe = view.probe(point);
        let read = probe.read();
        let (delta, upslope) = match probe.nearest(denser_than(read.rho, s)) {
            Some((d2, id)) => (d2.sqrt(), id),
            None => (f64::INFINITY, NO_UPSLOPE),
        };
        let (label, halo) = (self.labels[read.id as usize], self.halo[read.id as usize]);

        self.coords.extend_from_slice(point);
        self.rho.push(read.rho);
        self.delta.push(delta);
        self.upslope.push(upslope);
        self.labels.push(label);
        self.halo.push(halo);
        self.live.push(true);
        self.stale.push(true);
        self.scanned_keys.push((read.rho.saturating_add(1), s));
        self.n_live += 1;
        let key = self.next_key;
        self.next_key += 1;
        self.keys.push(key);
        self.by_key.insert(key, s);
        1
    }

    /// Deletes the point under `key` (validated to exist and to leave
    /// its cluster non-empty): its key is retired, a deleted peak hands
    /// its cluster to its heir, and its live children re-anchor. Returns
    /// how many points had their fields rewritten.
    fn delete(&mut self, key: u64) -> u64 {
        let slot = self.by_key.remove(&key).expect("validated key");
        let si = slot as usize;
        self.live[si] = false;
        self.n_live -= 1;
        if si < self.base_len {
            self.dead
                .extend_from_slice(&self.coords[si * self.dim..][..self.dim]);
        }
        if si < self.block {
            let (keys, rows) = self.density.as_mut().expect("keys over the index");
            let base = &self.coords[..self.base_len * self.dim];
            let index = self.index.get(base, self.dim).expect("an indexed slot");
            index.retire_key(keys, rows[si]);
        } else {
            self.scanned_keys[si - self.block] = (0, 0);
        }

        // A deleted peak hands its cluster to the densest survivor.
        if let Some(c) = self.peaks.iter().position(|&pk| pk == slot) {
            let heir = (0..self.live.len() as PointId)
                .filter(|&i| self.live[i as usize] && self.labels[i as usize] == c as u32)
                .max_by_key(|&i| (self.rho[i as usize], i))
                .expect("validation keeps every cluster non-empty");
            self.peaks[c] = heir;
        }

        // Points that upsloped through the deleted slot re-anchor, in slot
        // order. A block of links is tested whole first (a branch-free
        // fold, which vectorizes): few hold a child, and a re-anchor
        // rewrites only its own link.
        const BLOCK: usize = 64;
        let mut written = 0;
        for start in (0..self.upslope.len()).step_by(BLOCK) {
            let end = (start + BLOCK).min(self.upslope.len());
            let links = &self.upslope[start..end];
            if !links.iter().fold(false, |any, &u| any | (u == slot)) {
                continue;
            }
            for p in start..end {
                if self.upslope[p] == slot && self.live[p] {
                    self.reanchor(p as PointId);
                    written += 1;
                }
            }
        }
        written
    }

    /// Re-anchors `p` after its upslope point died: on the nearest live
    /// point strictly denser under the stored `(rho, id)` keys, or, if `p`
    /// is now the densest, on none: `NO_UPSLOPE` at `delta` infinity, as
    /// LSH-DDP stores a peak candidate it could not resolve.
    fn reanchor(&mut self, p: PointId) {
        let pi = p as usize;
        let rho = self.rho[pi];
        let view = self.view();
        let point = &self.coords[pi * self.dim..][..self.dim];
        let (delta, upslope) = match view.probe(point).nearest(denser_than(rho, p)) {
            Some((d2, id)) => (d2.sqrt(), id),
            None => (f64::INFINITY, NO_UPSLOPE),
        };
        self.delta[pi] = delta;
        self.upslope[pi] = upslope;
        self.stale[pi] = true;
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

    /// Snapshots the session's state as a publishable model at the
    /// current version: tombstones squeezed out, slot ids densified. This
    /// is the cheap path — the inserted and re-anchored points carry the
    /// fields their writes stored; [`compact`](Self::compact) is the exact
    /// one. The model reads through the session's exact index: the deleted
    /// base rows are handed over to be taken back out of its counts, and
    /// the rows inserted since are scanned, so no engine over it builds
    /// one.
    pub fn publish(&self) -> ClusterModel {
        let n_slots = self.live.len();
        let mut dense = self.dense_ids();
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
        .with_derived_index(
            self.index.clone(),
            {
                dense.truncate(self.base_len);
                dense
            },
            self.dead.clone(),
        )
    }

    /// Each slot's id among the live points in slot order — the ids
    /// [`publish`](Self::publish) and [`compact`](Self::compact) give
    /// them — and `NO_UPSLOPE` for a tombstone.
    fn dense_ids(&self) -> Vec<PointId> {
        let mut dense: Vec<PointId> = vec![NO_UPSLOPE; self.live.len()];
        let mut next = 0u32;
        for (d, &alive) in dense.iter_mut().zip(&self.live) {
            if alive {
                *d = next;
                next += 1;
            }
        }
        dense
    }

    /// Refits the live point set exactly and resets the session onto the
    /// result: Basic-DDP with one block, so every live point meets every
    /// other in one reducer and no point is replicated. The result is
    /// bit-identical to [`dp_core::compute_exact`] over
    /// [`live_dataset`](Self::live_dataset).
    ///
    /// The refit's driver shares the session's [`Dfs`]: with
    /// checkpointing enabled, a compaction killed mid-pipeline leaves
    /// its completed stages under `ckpt/<plan>/<stage>`, and the next
    /// `compact` call resumes from them instead of recomputing. Output
    /// is the same either way.
    ///
    /// On success no point is stale, external keys carry over,
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
        // One block: every point meets every other in a single reducer,
        // so rho and delta are Eq. 1 / Eq. 2 exactly, with no replicas.
        let ddp = BasicDdp::new(BasicConfig {
            block_size: ds.len(),
            pipeline: self.config.pipeline,
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
        // log (`retire_wal`). The session shares the new model's index,
        // which its halo pass built.
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

    /// Live points whose fields came from the session — inserted, or
    /// re-anchored after a delete — since the last compaction.
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

/// The key floor of the points strictly denser than `(rho, id)` under
/// [`dp_core::dp::denser`], for keys of the form `(rho + 1, id)`. An
/// insert takes the largest id yet, so for it only a larger `rho` is
/// denser.
fn denser_than(rho: u32, id: PointId) -> Key {
    (rho.saturating_add(1), id + 1)
}
