//! The [`ClusterModel`] artifact: an immutable snapshot of a finished
//! LSH-DDP run, serialized with the engine's own `wire` encoding.
//!
//! A model carries everything the online query path needs and nothing it
//! can recompute cheaply: the training coordinates, per-point `rho` /
//! `delta` / upslope links, cluster labels, the peak ids, halo flags, the
//! cutoff `d_c`, and the `(M, pi, w)` + seed that generated the hash
//! layouts (provenance only: no read or write hashes a point). The exact
//! index reads go through is *not* serialized: a model owns it as derived
//! data, built from the stored coordinates on first use and shared by the
//! model's clones, by the ingest session opened on it and by every model
//! that session publishes, so a lineage pays for one build per fit or
//! compaction, not one per version or engine. That keeps the artifact
//! small.

use ddp::centralized::CentralizedOutput;
use ddp::prelude::RunReport;
use dp_core::{Dataset, PointId, SpatialIndex, NO_UPSLOPE};
use lsh::LshParams;
use mapreduce::wire::{self, Wire, WireError};
use mapreduce::ShuffleSize;
use std::sync::{Arc, OnceLock};

/// Magic number opening every serialized model ("LDPM" little-endian).
const MAGIC: u32 = 0x4d50_444c;
/// Format version; bump on any layout change. Format 2 added the
/// monotonically increasing *model* version (the ingest/compaction
/// lineage counter) and a peekable header carrying the point and
/// cluster counts. Format-1 artifacts (pre-lineage) are still
/// readable: their version defaults to 1 and the counts are derived
/// from the payload.
const FORMAT: u32 = 2;

/// The peekable prefix of every serialized model: enough to identify an
/// artifact (format, lineage version, shape) without decoding the
/// coordinate block. Written by [`ClusterModel`]'s `Wire` impl as the
/// first bytes of the encoding, so [`ClusterModel::peek_header`] can
/// read it straight off a file prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelHeader {
    /// On-disk format revision (always `FORMAT` when written here).
    pub format: u32,
    /// The model's lineage version: 1 after a fresh fit, +1 per ingest
    /// batch or compaction. Distinguishes artifacts for cache keying and
    /// hot-swap metering.
    pub version: u64,
    /// Which pipeline produced the densities.
    pub algorithm: String,
    /// Point dimensionality.
    pub dim: u64,
    /// Number of training points.
    pub n_points: u64,
    /// Number of clusters (= number of peaks).
    pub n_clusters: u64,
}

impl ShuffleSize for ModelHeader {
    fn shuffle_bytes(&self) -> u64 {
        // magic + format + version + algorithm + dim + n_points + n_clusters
        4 + 4 + 8 + self.algorithm.shuffle_bytes() + 8 + 8 + 8
    }
}

impl Wire for ModelHeader {
    fn write(&self, out: &mut Vec<u8>) {
        MAGIC.write(out);
        self.format.write(out);
        self.version.write(out);
        self.algorithm.write(out);
        self.dim.write(out);
        self.n_points.write(out);
        self.n_clusters.write(out);
    }

    fn read(input: &mut &[u8]) -> Result<Self, WireError> {
        if u32::read(input)? != MAGIC {
            return Err(WireError::Corrupt("model magic"));
        }
        match u32::read(input)? {
            // Legacy pre-lineage artifacts: no version or shape counts
            // in the prefix. Lineage defaults to 1 (a fresh fit); the
            // counts read 0 here and are backfilled from the payload by
            // `ClusterModel::read`. The body after the prefix is
            // byte-identical to format 2's.
            1 => Ok(ModelHeader {
                format: 1,
                version: 1,
                algorithm: String::read(input)?,
                dim: u64::read(input)?,
                n_points: 0,
                n_clusters: 0,
            }),
            FORMAT => Ok(ModelHeader {
                format: FORMAT,
                version: u64::read(input)?,
                algorithm: String::read(input)?,
                dim: u64::read(input)?,
                n_points: u64::read(input)?,
                n_clusters: u64::read(input)?,
            }),
            _ => Err(WireError::Corrupt(
                "unsupported model format (newer than this build); re-fit or upgrade",
            )),
        }
    }
}

/// An immutable, queryable snapshot of a finished clustering run.
///
/// Built from the batch pipeline's outputs via [`ClusterModel::from_run`],
/// persisted with [`ClusterModel::save`] / [`ClusterModel::load`], and
/// consumed by [`crate::QueryEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterModel {
    /// Lineage version: 1 after a fresh fit, bumped by every ingest
    /// batch and compaction. Strictly metadata — two models that differ
    /// only in `version` answer queries identically.
    version: u64,
    /// Which pipeline produced the densities (`RunReport::algorithm`).
    algorithm: String,
    /// Point dimensionality.
    dim: usize,
    /// The cutoff distance the run used.
    dc: f64,
    /// LSH layout parameters `(M, pi, w)`.
    params: LshParams,
    /// Seed the hash layouts were drawn from.
    seed: u64,
    /// Flat row-major training coordinates (`n × dim`).
    coords: Vec<f64>,
    /// Local densities.
    rho: Vec<u32>,
    /// Separations (rectified: no infinities survive the decision step).
    delta: Vec<f64>,
    /// Upslope links (`dp_core::NO_UPSLOPE` for the global peak).
    upslope: Vec<PointId>,
    /// Cluster label per point.
    labels: Vec<u32>,
    /// The selected density peaks; `labels[peaks[c]] == c`.
    peaks: Vec<PointId>,
    /// Halo flag per point (border/noise under the paper's halo rule).
    halo: Vec<bool>,
    /// Where reads find the model's exact index: see [`ClusterModel::reads`].
    index: Index,
}

/// An exact kd index over one block of coordinates, built on first use and
/// shared by every holder of the handle: a model's clones, the ingest
/// session opened on the model, and every model that session publishes.
/// It holds no index when the block is below the local-DP routing rule's
/// size or has a non-finite coordinate ([`dp_core::local::use_indexed`]);
/// reads then scan every point.
#[derive(Clone, Default)]
pub struct ExactIndex(Arc<OnceLock<Option<SpatialIndex>>>);

impl ExactIndex {
    /// The index over `coords` (`dim` per row), built on the first call —
    /// a `serve` `model/index` span — unless the handle arrived built (a
    /// fitted or compacted model's holds its halo pass's index). Every
    /// later call returns that build, whatever coordinates it passes.
    pub fn get(&self, coords: &[f64], dim: usize) -> Option<&SpatialIndex> {
        self.0
            .get_or_init(|| {
                let _span = obsv::span!("serve", "model/index");
                dp_core::local::use_indexed(coords.len() / dim, &[coords])
                    .then(|| SpatialIndex::build(coords, dim, 0.0))
            })
            .as_ref()
    }

    /// Whether the first [`Self::get`] has run.
    fn is_built(&self) -> bool {
        self.0.get().is_some()
    }
}

/// A model's exact index: its own, or — a published model's — a base index
/// from earlier in its lineage, seen through the model's ids. Derived data:
/// it never tells two models apart.
#[derive(Clone)]
enum Index {
    Own(ExactIndex),
    Derived(Arc<Overlay>),
}

/// A base index seen through a published model's ids.
struct Overlay {
    /// Built before it was shared.
    base: ExactIndex,
    /// Base row -> this model's id, `NO_UPSLOPE` for a deleted row.
    ids: Vec<PointId>,
    /// The live base rows, which take this model's ids `0..block`; ids
    /// `block..` are rows inserted since and are scanned.
    block: PointId,
    /// The deleted base rows' coordinates, row-major.
    dead: Vec<f64>,
}

impl PartialEq for Index {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for Index {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Index::Own(own) if own.is_built() => "built",
            Index::Own(_) => "unbuilt",
            Index::Derived(_) => "derived",
        })
    }
}

/// How reads reach a model's points: through an index over some of them,
/// and by scanning the ids from `block` on.
pub(crate) struct Reads<'a> {
    /// The kd index, `None` when every point is scanned.
    pub index: Option<&'a SpatialIndex>,
    /// Index row -> model id (`NO_UPSLOPE` for a deleted row); `None` when
    /// the rows are the model's ids.
    ids: Option<&'a [PointId]>,
    /// The first id the index does not hold.
    pub block: PointId,
    /// The coordinates of the index's deleted rows, row-major.
    pub dead: &'a [f64],
}

impl Reads<'_> {
    /// The model id of index row `row`, `NO_UPSLOPE` if it was deleted.
    #[inline]
    pub fn id(&self, row: u32) -> PointId {
        self.ids.map_or(row, |ids| ids[row as usize])
    }
}

/// Errors loading or saving a model artifact.
#[derive(Debug)]
pub enum ModelError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The bytes do not decode as a model.
    Wire(WireError),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Io(e) => write!(f, "model i/o: {e}"),
            ModelError::Wire(e) => write!(f, "model decode: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        ModelError::Io(e)
    }
}

impl From<WireError> for ModelError {
    fn from(e: WireError) -> Self {
        ModelError::Wire(e)
    }
}

impl ClusterModel {
    /// Snapshots a finished run: the batch pipeline's report, the
    /// centralized decision step's output, and the LSH layout provenance
    /// `(params, seed)` the run hashed with.
    ///
    /// Halo flags are computed here (they are a presentation-layer product
    /// the batch pipeline does not keep), and the exact index the halo
    /// pass builds over the points becomes the model's.
    ///
    /// # Panics
    /// Panics if the report and dataset disagree on the point count.
    pub fn from_run(
        ds: &Dataset,
        report: &RunReport,
        outcome: &CentralizedOutput,
        params: &LshParams,
        seed: u64,
    ) -> Self {
        let result = &report.result;
        assert_eq!(
            result.len(),
            ds.len(),
            "report and dataset point counts differ"
        );
        assert_eq!(
            outcome.clustering.len(),
            ds.len(),
            "clustering and dataset differ"
        );
        // The halo pass's index is the model's: the one build over these
        // coordinates serves both.
        let (halo, index) =
            dp_core::decision::compute_halo_indexed(ds, result, &outcome.clustering);
        ClusterModel {
            version: 1,
            algorithm: report.algorithm.clone(),
            dim: ds.dim(),
            dc: result.dc,
            params: *params,
            seed,
            coords: ds.as_flat().to_vec(),
            rho: result.rho.clone(),
            delta: result.delta.clone(),
            upslope: result.upslope.clone(),
            labels: outcome.clustering.labels().to_vec(),
            peaks: outcome.peaks.clone(),
            halo,
            index: Index::Own(ExactIndex(Arc::new(OnceLock::from(index)))),
        }
    }

    /// Assembles a model directly from its fields — the constructor the
    /// ingest path uses to publish incrementally updated state without
    /// re-running a batch pipeline. Its exact index is built on first use,
    /// unless [`Self::with_derived_index`] hands it a base index.
    ///
    /// # Panics
    /// Panics if the fields are not mutually consistent: mismatched
    /// lengths, an empty peak set, out-of-range peak/upslope ids, or a
    /// peak whose label is not its cluster id.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        version: u64,
        algorithm: String,
        dim: usize,
        dc: f64,
        params: LshParams,
        seed: u64,
        coords: Vec<f64>,
        rho: Vec<u32>,
        delta: Vec<f64>,
        upslope: Vec<PointId>,
        labels: Vec<u32>,
        peaks: Vec<PointId>,
        halo: Vec<bool>,
    ) -> Self {
        let n = rho.len();
        assert!(dim > 0, "model dim must be positive");
        assert!(n > 0, "model must hold at least one point");
        assert_eq!(coords.len(), n * dim, "coords length mismatch");
        assert_eq!(delta.len(), n, "delta length mismatch");
        assert_eq!(upslope.len(), n, "upslope length mismatch");
        assert_eq!(labels.len(), n, "labels length mismatch");
        assert_eq!(halo.len(), n, "halo length mismatch");
        assert!(!peaks.is_empty(), "model must keep at least one peak");
        for (c, &p) in peaks.iter().enumerate() {
            assert!((p as usize) < n, "peak id out of range");
            assert_eq!(labels[p as usize], c as u32, "peak label != cluster id");
        }
        assert!(
            upslope.iter().all(|&u| u == NO_UPSLOPE || (u as usize) < n),
            "upslope id out of range"
        );
        ClusterModel {
            version,
            algorithm,
            dim,
            dc,
            params,
            seed,
            coords,
            rho,
            delta,
            upslope,
            labels,
            peaks,
            halo,
            index: Index::Own(ExactIndex::default()),
        }
    }

    /// The handle of the exact index over this model's own coordinates,
    /// for an ingest session to share: the model's own handle, or a fresh
    /// one for a published model, whose index is over another row set.
    pub fn exact_index(&self) -> ExactIndex {
        match &self.index {
            Index::Own(own) => own.clone(),
            Index::Derived(_) => ExactIndex::default(),
        }
    }

    /// The same model reading through `base`, an index built over an
    /// earlier model of its lineage: `ids[row]` is base row `row`'s id in
    /// this model, `NO_UPSLOPE` for a deleted row, and `dead` holds the
    /// deleted rows' coordinates. The live rows must keep their order and
    /// take ids `0..k`; ids `k..` are scanned.
    ///
    /// # Panics
    /// Panics unless `base` is built, unless the live rows map to `0..k`
    /// in order with `k` at most the model's size, and unless `dead` holds
    /// one row per deleted row.
    pub fn with_derived_index(
        mut self,
        base: ExactIndex,
        ids: Vec<PointId>,
        dead: Vec<f64>,
    ) -> Self {
        assert!(base.is_built(), "a shared index is built first");
        let mut block = 0;
        for &id in ids.iter().filter(|&&id| id != NO_UPSLOPE) {
            assert_eq!(id, block, "live base rows take ids 0..k in order");
            block += 1;
        }
        assert!(
            block as usize <= self.len(),
            "more live base rows than points"
        );
        let deleted = ids.len() - block as usize;
        assert_eq!(
            dead.len(),
            deleted * self.dim,
            "one dead row per deleted row"
        );
        let overlay = Overlay {
            base,
            ids,
            block,
            dead,
        };
        self.index = Index::Derived(Arc::new(overlay));
        self
    }

    /// How reads reach the model's points. The model's own index is built
    /// here on first use.
    pub(crate) fn reads(&self) -> Reads<'_> {
        let reads = match &self.index {
            Index::Own(own) => Reads {
                index: own.get(&self.coords, self.dim),
                ids: None,
                block: self.len() as PointId,
                dead: &[],
            },
            Index::Derived(o) => Reads {
                index: o.base.0.get().and_then(Option::as_ref),
                ids: Some(&o.ids),
                block: o.block,
                dead: &o.dead,
            },
        };
        match reads.index {
            Some(_) => reads,
            None => Reads {
                index: None,
                ids: None,
                block: 0,
                dead: &[],
            },
        }
    }

    /// The model's lineage version (1 after a fresh fit).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The same model stamped with a different lineage version — used by
    /// the ingest path when publishing, and by equivalence tests that
    /// compare payloads modulo lineage.
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// The peekable header this model serializes under.
    pub fn header(&self) -> ModelHeader {
        ModelHeader {
            format: FORMAT,
            version: self.version,
            algorithm: self.algorithm.clone(),
            dim: self.dim as u64,
            n_points: self.len() as u64,
            n_clusters: self.peaks.len() as u64,
        }
    }

    /// Decodes just the header from the front of a serialized model —
    /// identification without paying for the coordinate block.
    pub fn peek_header(bytes: &[u8]) -> Result<ModelHeader, WireError> {
        let mut input = bytes;
        ModelHeader::read(&mut input)
    }

    /// Serializes to the wire encoding and writes the file durably and
    /// atomically: encode to `<path>.tmp`, fsync, rename over `path`,
    /// fsync the directory. A crash mid-save leaves the previous
    /// artifact intact — compaction overwrites its base artifact in
    /// place and relies on never observing a torn or missing model.
    pub fn save(&self, path: &str) -> Result<(), ModelError> {
        self.save_with(path, &mapreduce::io_shim::FaultFs::default())
    }

    /// [`Self::save`] through an explicit storage-fault domain — the
    /// injection point for crash-consistency drills. The write is
    /// all-or-nothing at the rename: a fault or power cut anywhere
    /// before it leaves the previous artifact byte-identical.
    pub fn save_with(
        &self,
        path: &str,
        fs: &mapreduce::io_shim::FaultFs,
    ) -> Result<(), ModelError> {
        let tmp = format!("{path}.tmp");
        let mut file = fs.create(std::path::Path::new(&tmp))?;
        file.write_all(&wire::encode(self))?;
        file.sync_all()?;
        drop(file);
        fs.rename(std::path::Path::new(&tmp), std::path::Path::new(path))?;
        if let Some(dir) = std::path::Path::new(path).parent() {
            // Make the rename itself durable; best-effort on platforms
            // where directories cannot be opened — but a simulated
            // power cut here must still surface (the fs is poisoned, so
            // swallowing it would only defer the failure one op).
            match fs.fsync_dir(dir) {
                Err(e) if mapreduce::io_shim::is_crash(&e) => return Err(e.into()),
                _ => {}
            }
        }
        Ok(())
    }

    /// Reads and decodes a model written by [`Self::save`].
    pub fn load(path: &str) -> Result<Self, ModelError> {
        Self::load_with(path, &mapreduce::io_shim::FaultFs::default())
    }

    /// [`Self::load`] through an explicit storage-fault domain.
    pub fn load_with(path: &str, fs: &mapreduce::io_shim::FaultFs) -> Result<Self, ModelError> {
        let bytes = fs.read(std::path::Path::new(path))?;
        Ok(wire::decode(&bytes)?)
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the model is empty (never true for a fitted model).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The cutoff distance `d_c` the run used.
    pub fn dc(&self) -> f64 {
        self.dc
    }

    /// The LSH layout parameters.
    pub fn params(&self) -> &LshParams {
        &self.params
    }

    /// The hash-layout seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Which pipeline produced the densities.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.peaks.len()
    }

    /// Coordinates of training point `id`.
    pub fn point(&self, id: PointId) -> &[f64] {
        let i = id as usize * self.dim;
        &self.coords[i..i + self.dim]
    }

    /// The flat row-major coordinate block.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Local density of training point `id`.
    pub fn rho(&self, id: PointId) -> u32 {
        self.rho[id as usize]
    }

    /// All local densities.
    pub fn rhos(&self) -> &[u32] {
        &self.rho
    }

    /// All separations.
    pub fn deltas(&self) -> &[f64] {
        &self.delta
    }

    /// All upslope links.
    pub fn upslopes(&self) -> &[PointId] {
        &self.upslope
    }

    /// Cluster label of training point `id`.
    pub fn label(&self, id: PointId) -> u32 {
        self.labels[id as usize]
    }

    /// All cluster labels.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// The peak (cluster center) point ids; cluster `c`'s center is
    /// `peaks()[c]`.
    pub fn peaks(&self) -> &[PointId] {
        &self.peaks
    }

    /// Whether training point `id` is in its cluster's halo.
    pub fn is_halo(&self, id: PointId) -> bool {
        self.halo[id as usize]
    }

    /// All halo flags.
    pub fn halos(&self) -> &[bool] {
        &self.halo
    }

    /// The centers' coordinates as one flat block, in cluster-id order —
    /// the target block for batched nearest-center kernels.
    pub fn center_block(&self) -> Vec<f64> {
        let mut block = Vec::with_capacity(self.peaks.len() * self.dim);
        for &p in &self.peaks {
            block.extend_from_slice(self.point(p));
        }
        block
    }
}

impl ShuffleSize for ClusterModel {
    fn shuffle_bytes(&self) -> u64 {
        // header + dc + (m, pi, w) + seed + payload vectors
        self.header().shuffle_bytes()
            + 8
            + (8 + 8 + 8)
            + 8
            + self.coords.shuffle_bytes()
            + self.rho.shuffle_bytes()
            + self.delta.shuffle_bytes()
            + self.upslope.shuffle_bytes()
            + self.labels.shuffle_bytes()
            + self.peaks.shuffle_bytes()
            + self.halo.shuffle_bytes()
    }
}

impl Wire for ClusterModel {
    fn write(&self, out: &mut Vec<u8>) {
        self.header().write(out);
        self.dc.write(out);
        (self.params.m as u64).write(out);
        (self.params.pi as u64).write(out);
        self.params.w.write(out);
        self.seed.write(out);
        self.coords.write(out);
        self.rho.write(out);
        self.delta.write(out);
        self.upslope.write(out);
        self.labels.write(out);
        self.peaks.write(out);
        self.halo.write(out);
    }

    fn read(input: &mut &[u8]) -> Result<Self, WireError> {
        let header = ModelHeader::read(input)?;
        let dim = header.dim as usize;
        let dc = f64::read(input)?;
        let m = u64::read(input)? as usize;
        let pi = u64::read(input)? as usize;
        let w = f64::read(input)?;
        let seed = u64::read(input)?;
        let coords = Vec::<f64>::read(input)?;
        let rho = Vec::<u32>::read(input)?;
        let delta = Vec::<f64>::read(input)?;
        let upslope = Vec::<PointId>::read(input)?;
        let labels = Vec::<u32>::read(input)?;
        let peaks = Vec::<PointId>::read(input)?;
        let halo = Vec::<bool>::read(input)?;

        let n = rho.len();
        // Format 1 carried no shape counts in its prefix; trust the
        // payload's own (internally cross-checked) lengths.
        let (n_points, n_clusters) = if header.format >= 2 {
            (header.n_points, header.n_clusters)
        } else {
            (n as u64, peaks.len() as u64)
        };
        if dim == 0
            || n as u64 != n_points
            || peaks.len() as u64 != n_clusters
            || coords.len() != n * dim
            || delta.len() != n
            || upslope.len() != n
            || labels.len() != n
            || halo.len() != n
            || peaks.is_empty()
            || peaks.iter().any(|&p| p as usize >= n)
        {
            return Err(WireError::Corrupt("model field lengths"));
        }
        Ok(ClusterModel {
            version: header.version,
            algorithm: header.algorithm,
            dim,
            dc,
            params: LshParams { m, pi, w },
            seed,
            coords,
            rho,
            delta,
            upslope,
            labels,
            peaks,
            halo,
            index: Index::Own(ExactIndex::default()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::fitted_model;

    #[test]
    fn round_trips_through_the_wire_encoding() {
        let model = fitted_model(60, 5);
        let bytes = wire::encode(&model);
        assert_eq!(bytes.len() as u64, model.shuffle_bytes());
        let back: ClusterModel = wire::decode(&bytes).expect("decode");
        assert_eq!(back, model);
    }

    #[test]
    fn save_load_round_trip_on_disk() {
        let model = fitted_model(50, 6);
        let dir = std::env::temp_dir().join("serve-model-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        let path = path.to_str().unwrap();
        model.save(path).expect("save");
        let back = ClusterModel::load(path).expect("load");
        assert_eq!(back, model);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_wrong_magic_and_truncation() {
        let model = fitted_model(40, 7);
        let mut bytes = wire::encode(&model);
        assert!(matches!(
            wire::decode::<ClusterModel>(&bytes[..bytes.len() - 3]),
            Err(WireError::Truncated)
        ));
        bytes[0] ^= 0xff;
        assert!(matches!(
            wire::decode::<ClusterModel>(&bytes),
            Err(WireError::Corrupt("model magic"))
        ));
    }

    #[test]
    fn header_peeks_without_decoding_the_body() {
        let model = fitted_model(50, 9);
        let bytes = wire::encode(&model);
        // A prefix far shorter than the payload is enough for the header.
        let head = ClusterModel::peek_header(&bytes[..64.min(bytes.len())]).expect("peek");
        assert_eq!(head, model.header());
        assert_eq!(head.version, 1, "a fresh fit starts at version 1");
        assert_eq!(head.n_points, model.len() as u64);
        assert_eq!(head.n_clusters, model.n_clusters() as u64);
        assert_eq!(head.dim, model.dim() as u64);
    }

    #[test]
    fn version_is_lineage_metadata_only() {
        let model = fitted_model(40, 10);
        let bumped = model.clone().with_version(7);
        assert_eq!(bumped.version(), 7);
        assert_ne!(bumped, model, "version participates in equality");
        assert_eq!(bumped.with_version(1), model, "payload is unchanged");
    }

    #[test]
    fn rejects_an_unknown_format_revision_distinctly() {
        let model = fitted_model(40, 21);
        let mut bytes = wire::encode(&model);
        bytes[4] = 0xee; // format field follows the 4-byte magic
        match wire::decode::<ClusterModel>(&bytes) {
            Err(WireError::Corrupt(msg)) => assert!(
                msg.contains("unsupported model format"),
                "a future format must not read as generic corruption: {msg}"
            ),
            other => panic!("expected an unsupported-format error, got {other:?}"),
        }
    }

    #[test]
    fn loads_a_legacy_format_1_artifact() {
        // fresh fit: version 1
        let model = fitted_model(40, 22);
        // Hand-encode the pre-lineage layout: magic, format 1,
        // algorithm, dim — no version or shape counts — then the same
        // body format 2 writes.
        let mut bytes = Vec::new();
        MAGIC.write(&mut bytes);
        1u32.write(&mut bytes);
        model.algorithm().to_string().write(&mut bytes);
        (model.dim() as u64).write(&mut bytes);
        model.dc().write(&mut bytes);
        (model.params().m as u64).write(&mut bytes);
        (model.params().pi as u64).write(&mut bytes);
        model.params().w.write(&mut bytes);
        model.seed().write(&mut bytes);
        model.coords().to_vec().write(&mut bytes);
        model.rhos().to_vec().write(&mut bytes);
        model.deltas().to_vec().write(&mut bytes);
        model.upslopes().to_vec().write(&mut bytes);
        model.labels().to_vec().write(&mut bytes);
        model.peaks().to_vec().write(&mut bytes);
        model.halos().to_vec().write(&mut bytes);

        let head = ClusterModel::peek_header(&bytes).expect("legacy header peeks");
        assert_eq!(head.format, 1);
        assert_eq!(head.version, 1, "legacy artifacts default to lineage 1");

        let back: ClusterModel = wire::decode(&bytes).expect("legacy artifact decodes");
        assert_eq!(back, model, "payload and defaulted version both match");
    }

    /// `model`'s fields through `from_parts`, the upslope links replaced.
    fn reassembled(model: &ClusterModel, upslope: Vec<PointId>) -> ClusterModel {
        ClusterModel::from_parts(
            model.version(),
            model.algorithm().to_string(),
            model.dim(),
            model.dc(),
            *model.params(),
            model.seed(),
            model.coords().to_vec(),
            model.rhos().to_vec(),
            model.deltas().to_vec(),
            upslope,
            model.labels().to_vec(),
            model.peaks().to_vec(),
            model.halos().to_vec(),
        )
    }

    #[test]
    fn the_index_is_built_once_and_shared_by_clones() {
        let fitted = fitted_model(100, 3);
        assert_eq!(
            format!("{:?}", fitted.index),
            "built",
            "the halo pass's index"
        );
        let model: ClusterModel = wire::decode(&wire::encode(&fitted)).unwrap();
        let twin = model.clone();
        assert_eq!(format!("{:?}", model.index), "unbuilt");
        let built = model.reads().index.expect("300 finite points index");
        assert!(
            std::ptr::eq(built, twin.reads().index.unwrap()),
            "a clone reuses the build"
        );
        assert_eq!(format!("{:?}", twin.index), "built");
        // A derived handle reads through the shared build, and stays out
        // of the bytes; a reloaded model builds its own.
        let ids: Vec<PointId> = (0..model.len() as PointId).collect();
        let derived = reassembled(&model, model.upslopes().to_vec()).with_derived_index(
            model.exact_index(),
            ids,
            Vec::new(),
        );
        assert!(std::ptr::eq(built, derived.reads().index.unwrap()));
        assert_eq!(derived.reads().block, model.len() as PointId);
        assert_eq!(wire::encode(&derived), wire::encode(&model));
        let back: ClusterModel = wire::decode(&wire::encode(&derived)).unwrap();
        assert_eq!(format!("{:?}", back.index), "unbuilt");
        assert_eq!(back, model);
        // A small model scans.
        let small = fitted_model(40, 3);
        let reads = small.reads();
        assert!(reads.index.is_none());
        assert_eq!(reads.block, 0);
    }

    #[test]
    fn from_parts_accepts_the_no_upslope_sentinel() {
        let model = fitted_model(40, 4);
        let mut upslope = model.upslopes().to_vec();
        upslope[0] = NO_UPSLOPE;
        assert_eq!(reassembled(&model, upslope).upslopes()[0], NO_UPSLOPE);
    }

    #[test]
    #[should_panic(expected = "upslope id out of range")]
    fn from_parts_rejects_an_out_of_range_upslope() {
        let model = fitted_model(40, 4);
        let mut upslope = model.upslopes().to_vec();
        upslope[1] = model.len() as PointId;
        let _ = reassembled(&model, upslope);
    }

    #[test]
    #[should_panic(expected = "live base rows take ids 0..k in order")]
    fn a_derived_index_rejects_reordered_rows() {
        let model = fitted_model(100, 4);
        model.reads();
        let mut ids: Vec<PointId> = (0..model.len() as PointId).collect();
        ids.swap(0, 1);
        let _ = model
            .clone()
            .with_derived_index(model.exact_index(), ids, Vec::new());
    }

    #[test]
    #[should_panic(expected = "a shared index is built first")]
    fn a_derived_index_needs_a_built_base() {
        let model = fitted_model(100, 4);
        let ids = (0..model.len() as PointId).collect();
        let _ = model
            .clone()
            .with_derived_index(ExactIndex::default(), ids, Vec::new());
    }

    #[test]
    fn labels_of_peaks_are_their_cluster_ids() {
        let model = fitted_model(60, 8);
        for (c, &p) in model.peaks().iter().enumerate() {
            assert_eq!(model.label(p), c as u32);
        }
        let block = model.center_block();
        assert_eq!(block.len(), model.n_clusters() * model.dim());
        assert_eq!(&block[..model.dim()], model.point(model.peaks()[0]));
    }
}
