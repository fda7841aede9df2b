//! An in-memory stand-in for HDFS.
//!
//! MapReduce pipelines chain jobs through the distributed file system; our
//! driver does the same through [`Dfs`], a typed in-memory namespace. Reads
//! hand out `Arc`s (no copy — HDFS reads are streamed, not duplicated), and
//! writes account bytes so pipelines can report materialization I/O (the
//! reason Basic-DDP *recomputes* distances in Step 2 instead of storing the
//! O(N²) distance matrix, §III-A).
//!
//! Besides the in-memory namespace, `Dfs` owns a **disk spill tier**: a
//! lazily created temp directory of [`crate::spill`] segment files where
//! the memory governor parks shuffle partitions and cached buckets that
//! exceed the budget. Spilled bytes are metered separately
//! ([`Dfs::spill_bytes_written`]/[`Dfs::spill_bytes_read`]) from in-memory
//! materialization, mirroring Hadoop's distinction between HDFS I/O and
//! local spill I/O.

use crate::io_shim::FaultFs;
use crate::record::ShuffleSize;
use crate::spill::{SegmentWriter, SpillDir};
use parking_lot::{Mutex, RwLock};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors from DFS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// The path does not exist.
    NotFound(String),
    /// The path exists but holds a different record type.
    WrongType(String),
    /// The path already exists (HDFS files are write-once).
    AlreadyExists(String),
}

impl std::fmt::Display for DfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfsError::NotFound(p) => write!(f, "dfs path not found: {p}"),
            DfsError::WrongType(p) => write!(f, "dfs path has a different record type: {p}"),
            DfsError::AlreadyExists(p) => write!(f, "dfs path already exists: {p}"),
        }
    }
}

impl std::error::Error for DfsError {}

struct File {
    records: Arc<dyn Any + Send + Sync>,
    bytes: u64,
}

/// The in-memory distributed file system.
///
/// ```
/// use mapreduce::Dfs;
/// let dfs = Dfs::new();
/// dfs.put("job1/out", vec![1u32, 2, 3]).unwrap();
/// assert_eq!(&*dfs.get::<u32>("job1/out").unwrap(), &vec![1, 2, 3]);
/// assert!(dfs.put("job1/out", vec![9u32]).is_err()); // write-once
/// ```
#[derive(Default)]
pub struct Dfs {
    files: RwLock<BTreeMap<String, File>>,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    /// Spill-tier directory, created on first spill.
    spill_dir: Mutex<Option<Arc<SpillDir>>>,
    spill_seq: AtomicU64,
    /// Spill accounting is split from the in-memory counters above and
    /// shared (`Arc`) with the segment handles that do the actual I/O.
    spill_bytes_written: Arc<AtomicU64>,
    spill_bytes_read: Arc<AtomicU64>,
    /// The fault domain spill-tier I/O flows through (defaults to the
    /// process-global [`FaultFs`]; drills swap in a seeded one).
    io: Mutex<FaultFs>,
}

impl Dfs {
    /// A fresh, empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes `records` to `path` (write-once; fails if the path exists).
    pub fn put<T>(&self, path: &str, records: Vec<T>) -> Result<(), DfsError>
    where
        T: ShuffleSize + Send + Sync + 'static,
    {
        let bytes: u64 = records.iter().map(ShuffleSize::shuffle_bytes).sum();
        let mut files = self.files.write();
        if files.contains_key(path) {
            return Err(DfsError::AlreadyExists(path.to_string()));
        }
        files.insert(
            path.to_string(),
            File {
                records: Arc::new(records),
                bytes,
            },
        );
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Reads the records at `path`, sharing (not copying) the storage.
    pub fn get<T>(&self, path: &str) -> Result<Arc<Vec<T>>, DfsError>
    where
        T: Send + Sync + 'static,
    {
        let files = self.files.read();
        let file = files
            .get(path)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
        let records = file
            .records
            .clone()
            .downcast::<Vec<T>>()
            .map_err(|_| DfsError::WrongType(path.to_string()))?;
        self.bytes_read.fetch_add(file.bytes, Ordering::Relaxed);
        Ok(records)
    }

    /// Deletes `path`; true if it existed.
    pub fn remove(&self, path: &str) -> bool {
        self.files.write().remove(path).is_some()
    }

    /// Whether `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// All paths with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Stored size of `path` in (estimated serialized) bytes.
    pub fn size(&self, path: &str) -> Result<u64, DfsError> {
        self.files
            .read()
            .get(path)
            .map(|f| f.bytes)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))
    }

    /// Total bytes written since creation.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Total bytes read since creation.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Opens a new segment in the spill tier, creating the spill
    /// directory on first use. The returned writer (and the segment it
    /// finishes into) carries this namespace's spill byte counters.
    pub fn spill_segment(&self, label: &str) -> std::io::Result<SegmentWriter> {
        let dir = {
            let mut guard = self.spill_dir.lock();
            match &*guard {
                Some(d) => Arc::clone(d),
                None => {
                    let d = Arc::new(SpillDir::create("dfs")?);
                    *guard = Some(Arc::clone(&d));
                    d
                }
            }
        };
        let seq = self.spill_seq.fetch_add(1, Ordering::Relaxed);
        let name = format!("{}-{seq}.seg", label.replace('/', "_"));
        Ok(
            SegmentWriter::create_with(dir.segment_path(&name), self.io_fs())?.with_counters(
                Arc::clone(&self.spill_bytes_written),
                Arc::clone(&self.spill_bytes_read),
            ),
        )
    }

    /// The spill-tier directory, once the first spill opened it.
    #[cfg(test)]
    pub(crate) fn spill_dir_path(&self) -> Option<std::path::PathBuf> {
        self.spill_dir
            .lock()
            .as_ref()
            .map(|d| d.path().to_path_buf())
    }

    /// Routes all further spill-tier I/O through `fs` (storage-fault
    /// drills).
    pub fn set_io_fs(&self, fs: FaultFs) {
        *self.io.lock() = fs;
    }

    /// The fault domain the spill tier currently writes through.
    pub fn io_fs(&self) -> FaultFs {
        self.io.lock().clone()
    }

    /// Record bytes written to the disk spill tier (metered separately
    /// from in-memory materialization).
    pub fn spill_bytes_written(&self) -> u64 {
        self.spill_bytes_written.load(Ordering::Relaxed)
    }

    /// Record bytes read back from the disk spill tier.
    pub fn spill_bytes_read(&self) -> u64 {
        self.spill_bytes_read.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let dfs = Dfs::new();
        dfs.put("a/b", vec![1u32, 2, 3]).unwrap();
        let got = dfs.get::<u32>("a/b").unwrap();
        assert_eq!(&*got, &vec![1, 2, 3]);
    }

    #[test]
    fn write_once_semantics() {
        let dfs = Dfs::new();
        dfs.put("x", vec![0u8]).unwrap();
        assert_eq!(
            dfs.put("x", vec![1u8]),
            Err(DfsError::AlreadyExists("x".into()))
        );
        assert!(dfs.remove("x"));
        dfs.put("x", vec![1u8]).unwrap();
        assert_eq!(&*dfs.get::<u8>("x").unwrap(), &vec![1]);
    }

    #[test]
    fn missing_and_wrong_type_errors() {
        let dfs = Dfs::new();
        assert_eq!(
            dfs.get::<u32>("nope").unwrap_err(),
            DfsError::NotFound("nope".into())
        );
        dfs.put("t", vec![1u32]).unwrap();
        assert_eq!(
            dfs.get::<u64>("t").unwrap_err(),
            DfsError::WrongType("t".into())
        );
    }

    #[test]
    fn byte_accounting() {
        let dfs = Dfs::new();
        dfs.put("nums", vec![1.0f64; 10]).unwrap(); // 80 bytes
        assert_eq!(dfs.size("nums").unwrap(), 80);
        assert_eq!(dfs.bytes_written(), 80);
        assert_eq!(dfs.bytes_read(), 0);
        let _ = dfs.get::<f64>("nums").unwrap();
        assert_eq!(dfs.bytes_read(), 80);
    }

    #[test]
    fn list_by_prefix_sorted() {
        let dfs = Dfs::new();
        dfs.put("job1/out", vec![0u8]).unwrap();
        dfs.put("job2/out", vec![0u8]).unwrap();
        dfs.put("job1/log", vec![0u8]).unwrap();
        assert_eq!(
            dfs.list("job1/"),
            vec!["job1/log".to_string(), "job1/out".to_string()]
        );
        assert_eq!(dfs.list("").len(), 3);
    }

    #[test]
    fn remove_missing_is_false() {
        let dfs = Dfs::new();
        assert!(!dfs.remove("ghost"));
    }

    #[test]
    fn spill_accounting_is_split_from_memory_accounting() {
        let dfs = Dfs::new();
        dfs.put("mem", vec![1.0f64; 4]).unwrap(); // 32 in-memory bytes
        let mut w = dfs.spill_segment("shuffle/job-a").unwrap();
        let batch = vec![(1u32, 2.0f64), (3, 4.0)]; // 24 record bytes
        let meta = w.write_frame(&batch).unwrap();
        let seg = w.finish().unwrap();
        assert_eq!(dfs.bytes_written(), 32);
        assert_eq!(dfs.spill_bytes_written(), 24);
        assert_eq!(dfs.spill_bytes_read(), 0);
        let back: Vec<(u32, f64)> = seg.read_frame(&meta).unwrap();
        assert_eq!(back, batch);
        assert_eq!(dfs.spill_bytes_read(), 24);
        // Distinct segments get distinct paths.
        let w2 = dfs.spill_segment("shuffle/job-a").unwrap();
        drop(w2);
    }
}
