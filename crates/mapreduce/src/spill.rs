//! Disk spill tier: length-prefixed segment files of checksummed frames.
//!
//! When a [`crate::driver::MemoryGovernor`] decides an intermediate no
//! longer fits the memory budget, the engine writes it to a *segment
//! file* and keeps only a small handle resident. A segment is a sequence
//! of frames, each
//!
//! ```text
//! [u64 LE frame length][ wire(Vec<(K, V)>) ][ u64 LE frame_checksum64 ]
//! ```
//!
//! i.e. the [`crate::wire`] codec's framing: a `Vec` payload (4-byte
//! count prefix + fixed-width records) followed by an 8-byte checksum
//! trailer. Reusing the wire codec gives the spill tier two properties
//! for free: the on-disk byte count of a frame's records **equals**
//! their `ShuffleSize` accounting (so spilled and resident partitions
//! meter identically), and any torn or corrupted frame is detected by
//! checksum before its records reach a reducer. The trailer is the
//! word-lane [`crate::record::frame_checksum64`], not the durable
//! [`crate::wire::encode_framed`]'s byte-serial FNV-1a: a segment dies
//! with its [`SpillDir`], so no other process or build reads one.
//!
//! Frames are read back with positioned reads (`pread`), so one open
//! segment serves concurrent reduce tasks without seek coordination.
//! [`scan_frames`] additionally supports sequential recovery reads that
//! tolerate a torn tail — a process killed mid-spill leaves a segment
//! whose intact prefix is still usable.
//!
//! This module is also the one place that decides where engine data
//! lives. Two crate-private types hide it from the phases and the plan
//! scheduler: `Rows`, a stage's `Arc`-shared input (resident, or a
//! [`SpilledRows`] segment), and `Part`, one map task's records for one
//! reduce bucket (an `Arc`'d `Vec`, or one segment frame). `spill_parts`
//! is the one function that moves resident parts to disk.

use crate::driver::MemoryGovernor;
use crate::io_shim::{FaultFile, FaultFs};
use crate::record::frame_checksum64;
use crate::task::{MrKey, MrValue};
use crate::wire::{decode_framed_with, encode_framed_with, Wire, WireError};
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-frame framing overhead: 4-byte `Vec` count prefix + 8-byte
/// checksum trailer (the leading `u64` length word is accounted
/// separately by [`FrameMeta::frame_len`]).
const FRAME_OVERHEAD: u64 = 12;

/// Errors from spill-segment I/O.
#[derive(Debug)]
pub enum SpillError {
    /// Underlying file system error.
    Io(std::io::Error),
    /// The frame decoded to garbage (truncation or corruption).
    Wire(WireError),
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "spill i/o error: {e}"),
            SpillError::Wire(e) => write!(f, "spill frame error: {e}"),
        }
    }
}

impl std::error::Error for SpillError {}

impl From<std::io::Error> for SpillError {
    fn from(e: std::io::Error) -> Self {
        SpillError::Io(e)
    }
}

impl From<WireError> for SpillError {
    fn from(e: WireError) -> Self {
        SpillError::Wire(e)
    }
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A process-private temporary directory holding spill segments; removed
/// recursively on drop (segments already deleted individually are fine).
pub struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Creates a fresh directory under the system temp dir, namespaced by
    /// pid so concurrent test processes never collide.
    pub fn create(label: &str) -> std::io::Result<Self> {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("mr-spill-{}-{label}-{seq}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(SpillDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Path for a segment named `name` inside this directory.
    pub fn segment_path(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Location and accounting for one frame inside a segment.
#[derive(Debug, Clone)]
pub struct FrameMeta {
    /// Byte offset of the frame's length word in the segment file.
    pub offset: u64,
    /// Length of the framed payload (excluding the 8-byte length word).
    pub frame_len: u32,
    /// Records in the frame.
    pub records: u32,
}

impl FrameMeta {
    /// Sum of the records' `ShuffleSize` bytes — by the wire length
    /// contract, exactly `frame_len - 12`.
    pub fn record_bytes(&self) -> u64 {
        self.frame_len as u64 - FRAME_OVERHEAD
    }
}

/// Appends frames to a new segment file.
pub struct SegmentWriter {
    file: FaultFile,
    path: PathBuf,
    offset: u64,
    written_counter: Option<Arc<AtomicU64>>,
    read_counter: Option<Arc<AtomicU64>>,
}

impl SegmentWriter {
    /// Creates a new segment at `path` (fails if it exists), with I/O
    /// routed through the process-global [`FaultFs`].
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        Self::create_with(path, FaultFs::default())
    }

    /// Creates a new segment whose I/O flows through `fs` — the
    /// injection point for storage-fault drills.
    pub fn create_with(path: PathBuf, fs: FaultFs) -> std::io::Result<Self> {
        let file = fs.create_new(&path)?;
        Ok(SegmentWriter {
            file,
            path,
            offset: 0,
            written_counter: None,
            read_counter: None,
        })
    }

    /// Attaches byte counters bumped on every frame write / later read
    /// (the `Dfs` spill accounting split).
    pub fn with_counters(mut self, written: Arc<AtomicU64>, read: Arc<AtomicU64>) -> Self {
        self.written_counter = Some(written);
        self.read_counter = Some(read);
        self
    }

    /// Writes one frame holding `batch`; returns its location.
    pub fn write_frame<T: Wire>(&mut self, batch: &Vec<T>) -> std::io::Result<FrameMeta> {
        let frame = encode_framed_with(batch, frame_checksum64);
        self.file.write_all(&(frame.len() as u64).to_le_bytes())?;
        self.file.write_all(&frame)?;
        let meta = FrameMeta {
            offset: self.offset,
            frame_len: frame.len() as u32,
            records: batch.len() as u32,
        };
        self.offset += 8 + frame.len() as u64;
        if let Some(c) = &self.written_counter {
            c.fetch_add(meta.record_bytes(), Ordering::Relaxed);
        }
        Ok(meta)
    }

    /// Total bytes written so far (including framing).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The segment file's path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Finishes the segment, returning a read handle. The file is deleted
    /// when the handle drops.
    ///
    /// The final `sync_data` failure is *propagated*, not swallowed: a
    /// segment whose flush failed must not be treated as durable — the
    /// governor paths react by keeping the data resident instead.
    pub fn finish(mut self) -> std::io::Result<SpillSegment> {
        self.file.sync_data()?;
        Ok(SpillSegment {
            file: self.file,
            path: self.path,
            bytes: self.offset,
            read_counter: self.read_counter,
        })
    }
}

/// A finished, readable spill segment. Dropping the handle deletes the
/// file — segments are transient job state, not durable storage.
pub struct SpillSegment {
    file: FaultFile,
    path: PathBuf,
    bytes: u64,
    read_counter: Option<Arc<AtomicU64>>,
}

impl SpillSegment {
    /// Total file size in bytes (frames plus framing words).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Reads one frame back via a positioned read, verifying length word
    /// and checksum.
    pub fn read_frame<T: Wire>(&self, meta: &FrameMeta) -> Result<Vec<T>, SpillError> {
        let mut buf = vec![0u8; 8 + meta.frame_len as usize];
        self.file.read_exact_at(&mut buf, meta.offset)?;
        let len = u64::from_le_bytes(buf[..8].try_into().expect("length word"));
        if len != meta.frame_len as u64 {
            return Err(SpillError::Wire(WireError::Corrupt("frame length word")));
        }
        let rows = decode_framed_with::<Vec<T>>(&buf[8..], frame_checksum64)?;
        if let Some(c) = &self.read_counter {
            c.fetch_add(meta.record_bytes(), Ordering::Relaxed);
        }
        Ok(rows)
    }
}

impl Drop for SpillSegment {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Outcome of a sequential recovery scan over a segment file.
#[derive(Debug)]
pub struct ScanOutcome<T> {
    /// Frames decoded intact, in write order.
    pub frames: Vec<Vec<T>>,
    /// Whether the file ended in a torn (incomplete or checksum-failing)
    /// tail frame — expected after a crash mid-spill. The intact prefix
    /// in `frames` is still valid.
    pub torn_tail: bool,
}

/// Sequentially scans a segment file, decoding every intact frame.
///
/// A clean segment yields all frames with `torn_tail == false`. A file
/// truncated or corrupted at the tail (killed writer) yields the intact
/// prefix with `torn_tail == true`. Corruption *before* the final frame
/// also stops the scan at the last intact frame: everything after an
/// undecodable frame is unaddressable since frame boundaries chain.
pub fn scan_frames<T: Wire>(path: &Path) -> std::io::Result<ScanOutcome<T>> {
    let mut file = File::open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let mut frames = Vec::new();
    let mut rest: &[u8] = &bytes;
    loop {
        if rest.is_empty() {
            return Ok(ScanOutcome {
                frames,
                torn_tail: false,
            });
        }
        if rest.len() < 8 {
            return Ok(ScanOutcome {
                frames,
                torn_tail: true,
            });
        }
        let (word, tail) = rest.split_at(8);
        let len = u64::from_le_bytes(word.try_into().expect("length word")) as usize;
        if tail.len() < len {
            return Ok(ScanOutcome {
                frames,
                torn_tail: true,
            });
        }
        let (frame, tail) = tail.split_at(len);
        match decode_framed_with::<Vec<T>>(frame, frame_checksum64) {
            Ok(rows) => frames.push(rows),
            Err(_) => {
                return Ok(ScanOutcome {
                    frames,
                    torn_tail: true,
                })
            }
        }
        rest = tail;
    }
}

/// Rows that live on disk, readable by range, with the element types
/// erased behind a closure so engine code needs no `Wire` bounds.
///
/// [`crate::plan::Snapshot::from_spilled`] turns one into a stage input:
/// a dataset several times larger than the memory budget is written once
/// as a segment and map tasks decode only their chunk's frames.
pub struct SpilledRows<K, V> {
    len: usize,
    #[allow(clippy::type_complexity)]
    reader: Box<dyn Fn(usize, usize) -> Vec<(K, V)> + Send + Sync>,
}

impl<K, V> SpilledRows<K, V> {
    /// Number of rows in the segment.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Decodes rows `[start, end)` from disk. Panics on out-of-bounds
    /// ranges or unreadable segments (both are engine bugs, not
    /// recoverable conditions — the segment is process-local state).
    pub fn read_range(&self, start: usize, end: usize) -> Vec<(K, V)> {
        assert!(start <= end && end <= self.len, "spill range out of bounds");
        (self.reader)(start, end)
    }
}

impl<K, V> SpilledRows<K, V>
where
    K: Wire + Send + Sync + 'static,
    V: Wire + Send + Sync + 'static,
{
    /// Spills `batches` to a fresh private segment, consuming each batch
    /// as it arrives — the full row set is never resident. Empty batches
    /// are skipped.
    pub fn from_batches<I>(label: &str, batches: I) -> std::io::Result<Self>
    where
        I: IntoIterator<Item = Vec<(K, V)>>,
    {
        let dir = SpillDir::create(label)?;
        let mut writer = SegmentWriter::create(dir.segment_path("rows.seg"))?;
        // (first record index, frame) pairs for binary-searched range reads.
        let mut index: Vec<(usize, FrameMeta)> = Vec::new();
        let mut len = 0usize;
        for batch in batches {
            if batch.is_empty() {
                continue;
            }
            let meta = writer.write_frame(&batch)?;
            index.push((len, meta));
            len += batch.len();
        }
        let seg = writer.finish()?;
        let dir = Arc::new(dir);
        let index = Arc::new(index);
        let seg = Arc::new(seg);
        let reader = Box::new(move |start: usize, end: usize| {
            let _keep_dir_alive = &dir;
            let mut out: Vec<(K, V)> = Vec::with_capacity(end - start);
            if start == end {
                return out;
            }
            // First frame whose range contains `start`.
            let mut i = match index.binary_search_by(|(first, _)| first.cmp(&start)) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            let mut frame_first = index[i].0;
            while frame_first < end && i < index.len() {
                let rows: Vec<(K, V)> = seg
                    .read_frame(&index[i].1)
                    .expect("spill segment read (process-local file)");
                let n = rows.len();
                let lo = start.saturating_sub(frame_first);
                let hi = n.min(end - frame_first);
                out.extend(rows.into_iter().skip(lo).take(hi - lo));
                frame_first += n;
                i += 1;
            }
            out
        });
        Ok(SpilledRows { len, reader })
    }
}

impl<K, V> std::fmt::Debug for SpilledRows<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpilledRows")
            .field("len", &self.len)
            .finish()
    }
}

/// A stage's input rows, shared by `Arc` between a snapshot, the plan
/// that reads it and (when checkpointing) the DFS. Map tasks see only
/// [`Rows::len`] and [`Rows::read`]; whether the rows are resident or
/// spilled is decided here and nowhere else.
pub(crate) enum Rows<K, V> {
    Resident(Vec<(K, V)>),
    Spilled(SpilledRows<K, V>),
}

impl<K, V> Rows<K, V> {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        match self {
            Rows::Resident(rows) => rows.len(),
            Rows::Spilled(rows) => rows.len(),
        }
    }
}

impl<K: Clone, V: Clone> Rows<K, V> {
    /// Rows `[start, end)`: cloned out of memory, or decoded from disk.
    pub(crate) fn read(&self, start: usize, end: usize) -> Vec<(K, V)> {
        match self {
            Rows::Resident(rows) => rows[start..end].to_vec(),
            Rows::Spilled(rows) => rows.read_range(start, end),
        }
    }

    /// Every row, owned: the resident `Vec` itself when no other handle
    /// shares it (no copy), a copy or a full decode otherwise.
    pub(crate) fn into_vec(rows: Arc<Self>) -> Vec<(K, V)> {
        match Arc::try_unwrap(rows) {
            Ok(Rows::Resident(rows)) => rows,
            Ok(rows) => rows.read(0, rows.len()),
            Err(shared) => shared.read(0, shared.len()),
        }
    }
}

/// One map task's records for one reduce bucket, waiting for its reducer:
/// resident behind an `Arc` — so the partition cache retains it by
/// sharing, not copying — or one frame of a spill segment. Cloning a part
/// copies no records.
#[derive(Clone)]
pub(crate) enum Part<K, V> {
    /// Records plus their `ShuffleSize` sum, computed once by the map task.
    Resident { rows: Arc<Vec<(K, V)>>, bytes: u64 },
    /// Records parked in a segment, decoded when the bucket materializes.
    Spilled {
        seg: Arc<SpillSegment>,
        frame: FrameMeta,
    },
}

impl<K, V> Part<K, V> {
    /// Number of records.
    pub(crate) fn records(&self) -> u64 {
        match self {
            Part::Resident { rows, .. } => rows.len() as u64,
            Part::Spilled { frame, .. } => frame.records as u64,
        }
    }

    /// Shuffle bytes; a frame's on-disk record bytes equal them by the
    /// wire length contract.
    pub(crate) fn bytes(&self) -> u64 {
        match self {
            Part::Resident { bytes, .. } => *bytes,
            Part::Spilled { frame, .. } => frame.record_bytes(),
        }
    }

    /// The bytes this part holds in memory (0 once spilled).
    pub(crate) fn resident_bytes(&self) -> u64 {
        match self {
            Part::Resident { bytes, .. } => *bytes,
            Part::Spilled { .. } => 0,
        }
    }
}

impl<K: MrKey, V: MrValue + Clone> Part<K, V> {
    /// Appends the records to `out`: moved when this is their only
    /// handle, copied when the partition cache shares them, decoded when
    /// they were spilled.
    pub(crate) fn read_into(self, out: &mut Vec<(K, V)>) {
        match self {
            Part::Resident { rows, .. } => match Arc::try_unwrap(rows) {
                Ok(mut rows) => out.append(&mut rows),
                Err(shared) => out.extend_from_slice(&shared),
            },
            Part::Spilled { seg, frame } => out.extend(
                seg.read_frame::<(K, V)>(&frame)
                    .expect("spill segment read (process-local file)"),
            ),
        }
    }
}

/// Writes the resident parts among `parts` to one new segment in the
/// governor's spill tier, one frame each, and repoints them at it.
/// Returns the bytes moved to disk. On any I/O error nothing changes —
/// the parts stay resident, correctness never depends on the disk — the
/// partial segment file is removed at once (not when the driver's spill
/// directory goes), and the governor hears of the error.
pub(crate) fn spill_parts<'a, K: MrKey + 'a, V: MrValue + 'a>(
    governor: &MemoryGovernor,
    label: &str,
    parts: impl IntoIterator<Item = &'a mut Part<K, V>>,
) -> u64 {
    let resident: Vec<(&mut Part<K, V>, _)> = parts
        .into_iter()
        .filter_map(|p| match &*p {
            Part::Resident { rows, .. } => {
                let rows = Arc::clone(rows);
                Some((p, rows))
            }
            Part::Spilled { .. } => None,
        })
        .collect();
    if resident.is_empty() {
        return 0;
    }
    let mut writer = match governor.segment(label) {
        Ok(w) => w,
        Err(e) => {
            governor.note_spill_error(&e);
            return 0;
        }
    };
    let path = writer.path().to_path_buf();
    let written: std::io::Result<Vec<FrameMeta>> = resident
        .iter()
        .map(|(_, rows)| writer.write_frame(rows))
        .collect();
    // A segment whose final sync failed is not durable: stay resident.
    let (seg, frames) = match written.and_then(|frames| Ok((writer.finish()?, frames))) {
        Ok((seg, frames)) => (Arc::new(seg), frames),
        Err(e) => {
            let _ = std::fs::remove_file(&path);
            governor.note_spill_error(&e);
            return 0;
        }
    };
    let mut moved = 0;
    for ((part, _), frame) in resident.into_iter().zip(frames) {
        moved += frame.record_bytes();
        *part = Part::Spilled {
            seg: Arc::clone(&seg),
            frame,
        };
    }
    governor.note_spill(moved);
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ShuffleSize;

    fn rows(n: usize) -> Vec<(u32, Vec<f64>)> {
        (0..n).map(|i| (i as u32, vec![i as f64, -1.5])).collect()
    }

    #[test]
    fn a_part_entry_is_32_bytes() {
        // One (bucket, part) entry per map task and reduce bucket: at
        // 128 x 256 tasks every byte here is 32 KiB of resident budget.
        assert_eq!(std::mem::size_of::<(usize, Part<u32, u64>)>(), 32);
    }

    #[test]
    fn segment_round_trip_with_accounting() {
        let dir = SpillDir::create("test").unwrap();
        let written = Arc::new(AtomicU64::new(0));
        let read = Arc::new(AtomicU64::new(0));
        let mut w = SegmentWriter::create(dir.segment_path("seg"))
            .unwrap()
            .with_counters(written.clone(), read.clone());
        let batch = rows(10);
        let expect_bytes: u64 = batch.iter().map(ShuffleSize::shuffle_bytes).sum();
        let meta = w.write_frame(&batch).unwrap();
        assert_eq!(meta.record_bytes(), expect_bytes);
        assert_eq!(written.load(Ordering::Relaxed), expect_bytes);
        let seg = w.finish().unwrap();
        let back: Vec<(u32, Vec<f64>)> = seg.read_frame(&meta).unwrap();
        assert_eq!(back, batch);
        assert_eq!(read.load(Ordering::Relaxed), expect_bytes);
    }

    #[test]
    fn segment_file_deleted_on_drop() {
        let dir = SpillDir::create("test").unwrap();
        let path = dir.segment_path("seg");
        let mut w = SegmentWriter::create(path.clone()).unwrap();
        w.write_frame(&rows(3)).unwrap();
        let seg = w.finish().unwrap();
        assert!(path.exists());
        drop(seg);
        assert!(!path.exists());
    }

    #[test]
    fn scan_tolerates_torn_tail() {
        let dir = SpillDir::create("test").unwrap();
        let path = dir.segment_path("seg");
        let mut w = SegmentWriter::create(path.clone()).unwrap();
        for chunk in rows(30).chunks(10) {
            w.write_frame(&chunk.to_vec()).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        drop(w); // keep the file: drop the writer without finish()

        let clean = scan_frames::<(u32, Vec<f64>)>(&path).unwrap();
        assert!(!clean.torn_tail);
        assert_eq!(clean.frames.concat(), rows(30));

        // Truncate mid-final-frame: intact prefix + torn tail.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let torn = scan_frames::<(u32, Vec<f64>)>(&path).unwrap();
        assert!(torn.torn_tail);
        assert_eq!(torn.frames.concat(), rows(20));
    }

    #[test]
    fn spilled_rows_range_reads() {
        let data = rows(100);
        let spilled =
            SpilledRows::from_batches("test", data.chunks(7).map(|c| c.to_vec())).unwrap();
        assert_eq!(spilled.len(), 100);
        assert_eq!(spilled.read_range(0, spilled.len()), data);
        assert_eq!(spilled.read_range(0, 0), vec![]);
        assert_eq!(spilled.read_range(3, 11), data[3..11].to_vec());
        assert_eq!(spilled.read_range(96, 100), data[96..100].to_vec());
        // Chunk boundaries identical to resident slicing.
        for (s, e) in [(0, 25), (25, 50), (50, 75), (75, 100)] {
            assert_eq!(spilled.read_range(s, e), data[s..e].to_vec());
        }
    }

    #[test]
    fn a_failed_governor_spill_stays_resident_and_removes_its_segment() {
        use crate::fault::FaultPlan;
        use crate::plan::{plan, Stage};
        use crate::task::{Emitter, FnMapper, FnReducer};
        use crate::{Driver, JobConfig};

        let run = |driver: &mut Driver| {
            let stage = Stage::new(
                "s",
                FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u64>| {
                    out.emit(k % 13, v as u64)
                }),
                FnReducer::new(|k: &u32, vs: Vec<u64>, out: &mut Emitter<u32, u64>| {
                    out.emit(*k, vs.into_iter().sum())
                }),
            );
            // One map task, so its one segment sees ops 0.. in order.
            let config = JobConfig {
                map_tasks: 1,
                reduce_tasks: 4,
                chaos: None,
            };
            let rows = (0..400).map(|i| (i, i * 7)).collect();
            driver.run_plan(plan("leak").rows(rows).stage(stage.config(config)).build())
        };
        let want = run(&mut Driver::new());

        // Budget 0 spills the task's four parts: op 0 creates the
        // segment, ops 1-2 write the first frame, and op 3 — the second
        // frame's length word — cuts the power.
        let mut budgeted = Driver::new().with_mem_budget(0);
        budgeted.dfs().set_io_fs(FaultFs::with_plan(FaultPlan {
            crash_at: Some(3),
            ..Default::default()
        }));
        assert_eq!(run(&mut budgeted), want);
        assert_eq!(budgeted.history()[0].spill_bytes, 0);
        let dir = budgeted
            .dfs()
            .spill_dir_path()
            .expect("the spill tier opened");
        let left: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .collect();
        assert!(left.is_empty(), "the failed spill left {left:?} behind");
    }
}
