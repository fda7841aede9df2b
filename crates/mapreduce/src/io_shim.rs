//! Injectable storage-fault shim for the durability tier.
//!
//! Every durable write path in the system — the ingest WAL, spill
//! segments, governed checkpoint spills, and model artifacts — performs
//! its file I/O through a [`FaultFs`] handle. With no fault plan armed
//! the handle is a thin passthrough over `std::fs` (bit-identical
//! output, one branch per op). With a [`FaultPlan`] whose storage
//! classes are armed, each operation consults a deterministic per-op
//! schedule (the plan's seeded per-mille draws) that can:
//!
//! * return a **transient `EIO`** — absorbed by the shim's bounded
//!   retry-with-backoff policy (`io.retries` counter), surfacing only
//!   after [`MAX_ATTEMPTS`] consecutive failures (`io.give_ups`);
//! * return a **persistent `ENOSPC`** — never retried (retrying a full
//!   disk is pointless); callers see it via `raw_os_error() == 28` and
//!   may degrade (see the [`crate::driver::MemoryGovernor`] resident
//!   fallback);
//! * simulate a **power cut** (`crash`): the in-flight write is
//!   dropped, data written but never fsynced on the open handle is
//!   truncated away, and every subsequent op on the same `FaultFs`
//!   fails — the storage analogue of killing the process, so a harness
//!   can "restart" and verify recovery;
//! * simulate a **torn power cut** (`torn`): like `crash`, but a
//!   prefix of the in-flight write reaches the disk first — the
//!   classic torn tail every recovery path must truncate.
//!
//! Crash verdicts are detectable with [`is_crash`]; injected and real
//! ENOSPC alike with [`is_enospc`]. The `crash_at` field pins the power
//! cut to one specific op index, which is what lets the crash-
//! consistency drill *enumerate* every I/O operation of a workflow and
//! kill each one in turn (ALICE-style).
//!
//! ## Durability model
//!
//! A simulated power cut drops the unsynced suffix of the file the
//! faulted handle currently has open (tracked as `synced_len`, advanced
//! by `sync_data`/`sync_all`). Files already closed keep their contents
//! — the model assumes sync-on-close, which every durability path here
//! satisfies by fsyncing before handing out a handle or acknowledging a
//! write. Directory-entry loss (a created file vanishing because the
//! parent dir was never fsynced) is *not* simulated; the dir-fsync
//! calls are still routed through the shim so they participate in op
//! counting and can themselves fault.

use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::fault::FaultPlan;

/// Attempts per op before a transient fault is surfaced to the caller.
pub const MAX_ATTEMPTS: u32 = 4;

const EIO: i32 = 5;
const ENOSPC: i32 = 28;

/// Whether `plan` can ever inject a storage fault.
fn storage_armed(plan: &FaultPlan) -> bool {
    plan.eio_per_mille > 0
        || plan.enospc_per_mille > 0
        || plan.crash_per_mille > 0
        || plan.torn_per_mille > 0
        || plan.crash_at.is_some()
}

/// The storage classes' verdict for one op attempt.
fn verdict(plan: &FaultPlan, op: u64, attempt: u32, kind: OpKind) -> Verdict {
    if plan.crash_at == Some(op) {
        return Verdict::Crash {
            torn: plan.crash_torn,
        };
    }
    // "torn"/"cras"/"nosp"/"eio " ASCII salts: one schedule per class.
    if plan.hits(plan.torn_per_mille, 0x746f_726e, op, 0, 0) {
        return Verdict::Crash { torn: true };
    }
    if plan.hits(plan.crash_per_mille, 0x6372_6173, op, 0, 0) {
        return Verdict::Crash { torn: false };
    }
    // A full disk fails allocations — writes, creates, renames — never
    // reads.
    if kind == OpKind::Write && plan.hits(plan.enospc_per_mille, 0x6e6f_7370, op, 0, 0) {
        return Verdict::Enospc;
    }
    if plan.hits(plan.eio_per_mille, 0x6569_6f20, op, attempt as u64 + 1, 0) {
        return Verdict::Eio;
    }
    Verdict::Ok
}

/// Whether an op allocates storage (subject to ENOSPC) or only reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Write,
}

/// What the schedule decided for one op attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Eio,
    Enospc,
    Crash { torn: bool },
}

/// Gate outcome for one logical op, after the retry policy ran.
enum Gate {
    /// Execute the real operation.
    Proceed,
    /// Surface this error (injected EIO give-up or ENOSPC).
    Fail(io::Error),
    /// Power cut: apply the side effect, then fail all further ops.
    Crash { op: u64, torn: bool },
}

/// Payload of an injected power-cut error; detect with [`is_crash`].
#[derive(Debug)]
pub struct InjectedCrash {
    /// Global op index at which the simulated power cut fired
    /// (`u64::MAX` for ops attempted after the cut).
    pub op: u64,
}

impl std::fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected storage crash (power cut at io op {})", self.op)
    }
}

impl std::error::Error for InjectedCrash {}

/// Whether `e` is a simulated power cut from a [`FaultFs`].
pub fn is_crash(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|r| r.is::<InjectedCrash>())
}

/// Whether `e` is ENOSPC — injected or real.
pub fn is_enospc(e: &io::Error) -> bool {
    e.raw_os_error() == Some(ENOSPC)
}

struct FsState {
    plan: Mutex<Option<FaultPlan>>,
    /// Fast-path gate: false = pure passthrough.
    armed: AtomicBool,
    ops: AtomicU64,
    crashed: AtomicBool,
    retries: AtomicU64,
    injected: AtomicU64,
    give_ups: AtomicU64,
}

/// A cloneable handle to one fault domain: every clone shares the op
/// counter, fault plan, and crashed flag. [`FaultFs::real`] (and the
/// process [`FaultFs::global`] until a plan is installed) is a pure
/// passthrough over `std::fs`.
#[derive(Clone)]
pub struct FaultFs {
    inner: Arc<FsState>,
}

impl Default for FaultFs {
    /// The process-global handle — so constructors that default their
    /// fs (`Wal::open`, `ClusterModel::save`, `Dfs`) pick up a plan
    /// installed by [`install_global_plan`] (the CLI's `--faults`).
    fn default() -> Self {
        FaultFs::global().clone()
    }
}

/// Arms the process-global [`FaultFs`] with `plan`'s storage classes.
/// Everything that defaulted its fs (WAL, spill tier, model saves) starts
/// faulting.
pub fn install_global_plan(plan: FaultPlan) {
    let fs = FaultFs::global();
    *fs.inner.plan.lock() = Some(plan);
    fs.inner
        .armed
        .store(storage_armed(&plan), Ordering::Relaxed);
}

impl FaultFs {
    fn with_state(plan: Option<FaultPlan>) -> Self {
        let armed = plan.is_some_and(|p| storage_armed(&p));
        FaultFs {
            inner: Arc::new(FsState {
                plan: Mutex::new(plan),
                armed: AtomicBool::new(armed),
                ops: AtomicU64::new(0),
                crashed: AtomicBool::new(false),
                retries: AtomicU64::new(0),
                injected: AtomicU64::new(0),
                give_ups: AtomicU64::new(0),
            }),
        }
    }

    /// A passthrough handle that never faults.
    pub fn real() -> Self {
        FaultFs::with_state(None)
    }

    /// A handle driven by `plan`'s storage classes.
    pub fn with_plan(plan: FaultPlan) -> Self {
        FaultFs::with_state(Some(plan))
    }

    /// The process-global handle (passthrough until
    /// [`install_global_plan`]).
    pub fn global() -> &'static FaultFs {
        static GLOBAL: OnceLock<FaultFs> = OnceLock::new();
        GLOBAL.get_or_init(FaultFs::real)
    }

    /// Ops gated through this domain so far (only counted while armed).
    pub fn ops(&self) -> u64 {
        self.inner.ops.load(Ordering::Relaxed)
    }

    /// Whether a simulated power cut has fired: every further op fails.
    pub fn crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::Relaxed)
    }

    /// Transient-fault retries absorbed so far.
    pub fn retries(&self) -> u64 {
        self.inner.retries.load(Ordering::Relaxed)
    }

    /// Faults injected so far (every class).
    pub fn injected_faults(&self) -> u64 {
        self.inner.injected.load(Ordering::Relaxed)
    }

    /// Ops that surfaced a fault to the caller after exhausting policy.
    pub fn give_ups(&self) -> u64 {
        self.inner.give_ups.load(Ordering::Relaxed)
    }

    fn armed(&self) -> bool {
        self.inner.armed.load(Ordering::Relaxed)
    }

    fn note_injected(&self) {
        self.inner.injected.fetch_add(1, Ordering::Relaxed);
        obsv::metrics::global().counter("io.injected_faults").inc(1);
    }

    /// Runs the retry policy for one logical op. The real operation has
    /// not happened yet when this returns — injected failures replace
    /// it, they don't follow it.
    fn gate(&self, kind: OpKind) -> Gate {
        if !self.armed() {
            return Gate::Proceed;
        }
        if self.crashed() {
            return Gate::Fail(io::Error::other(InjectedCrash { op: u64::MAX }));
        }
        let Some(plan) = *self.inner.plan.lock() else {
            return Gate::Proceed;
        };
        let op = self.inner.ops.fetch_add(1, Ordering::Relaxed);
        for attempt in 0..MAX_ATTEMPTS {
            match verdict(&plan, op, attempt, kind) {
                Verdict::Ok => return Gate::Proceed,
                Verdict::Eio => {
                    self.note_injected();
                    if attempt + 1 == MAX_ATTEMPTS {
                        self.inner.give_ups.fetch_add(1, Ordering::Relaxed);
                        obsv::metrics::global().counter("io.give_ups").inc(1);
                        return Gate::Fail(io::Error::from_raw_os_error(EIO));
                    }
                    self.inner.retries.fetch_add(1, Ordering::Relaxed);
                    obsv::metrics::global().counter("io.retries").inc(1);
                    // Bounded backoff: 20/40/80 µs — models the policy
                    // without slowing fault-dense proptests.
                    std::thread::sleep(Duration::from_micros(20 << attempt.min(4)));
                }
                Verdict::Enospc => {
                    self.note_injected();
                    self.inner.give_ups.fetch_add(1, Ordering::Relaxed);
                    obsv::metrics::global().counter("io.give_ups").inc(1);
                    return Gate::Fail(io::Error::from_raw_os_error(ENOSPC));
                }
                Verdict::Crash { torn } => {
                    self.note_injected();
                    self.inner.crashed.store(true, Ordering::Relaxed);
                    return Gate::Crash { op, torn };
                }
            }
        }
        unreachable!("retry loop returns on every verdict")
    }

    /// Gates an op with no crash side effect (opens, renames, reads,
    /// dir syncs — a power cut before any of these simply means the op
    /// never happened).
    fn run_plain<T>(&self, kind: OpKind, mut work: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        match self.gate(kind) {
            Gate::Proceed => work(),
            Gate::Fail(e) => Err(e),
            Gate::Crash { op, .. } => Err(io::Error::other(InjectedCrash { op })),
        }
    }

    fn wrap(&self, file: File, path: &Path, len: u64) -> FaultFile {
        FaultFile {
            file,
            path: path.to_path_buf(),
            fs: self.clone(),
            len,
            synced_len: len,
        }
    }

    /// Creates a new file, failing if it exists (spill segments).
    pub fn create_new(&self, path: &Path) -> io::Result<FaultFile> {
        let file = self.run_plain(OpKind::Write, || {
            OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(path)
        })?;
        Ok(self.wrap(file, path, 0))
    }

    /// Creates (truncating) a file (model tmp artifacts).
    pub fn create(&self, path: &Path) -> io::Result<FaultFile> {
        let file = self.run_plain(OpKind::Write, || {
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(path)
        })?;
        Ok(self.wrap(file, path, 0))
    }

    /// Opens read+append, creating if absent (the WAL). Existing bytes
    /// are treated as already durable.
    pub fn open_append(&self, path: &Path) -> io::Result<FaultFile> {
        let file = self.run_plain(OpKind::Write, || {
            OpenOptions::new()
                .read(true)
                .create(true)
                .append(true)
                .open(path)
        })?;
        let len = file.metadata()?.len();
        Ok(self.wrap(file, path, len))
    }

    /// Reads a whole file (model load, recovery scans).
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.run_plain(OpKind::Read, || std::fs::read(path))
    }

    /// Renames `from` over `to`. A power cut here leaves `to` untouched
    /// — the atomic-save commit point.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.run_plain(OpKind::Write, || std::fs::rename(from, to))
    }

    /// Fsyncs a directory so a create/rename/truncate of an entry in it
    /// is durable.
    pub fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        self.run_plain(OpKind::Write, || File::open(dir).and_then(|d| d.sync_all()))
    }
}

impl std::fmt::Debug for FaultFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultFs")
            .field("armed", &self.armed())
            .field("ops", &self.ops())
            .field("crashed", &self.crashed())
            .finish()
    }
}

/// A file handle whose operations flow through a [`FaultFs`]. Tracks
/// the last fsynced length so a simulated power cut can drop exactly
/// the unsynced suffix.
pub struct FaultFile {
    file: File,
    path: PathBuf,
    fs: FaultFs,
    len: u64,
    synced_len: u64,
}

impl FaultFile {
    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current logical length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Power-cut side effect: drop everything after the last fsync; a
    /// torn cut lets half of the in-flight write land first.
    fn power_cut(&mut self, torn: bool, in_flight: &[u8]) {
        let _ = self.file.set_len(self.synced_len);
        if torn && in_flight.len() >= 2 {
            let half = &in_flight[..in_flight.len() / 2];
            let _ = self.file.write_all_at(half, self.synced_len);
        }
        self.len = self.synced_len;
    }

    /// Appends `buf` at the end of the file.
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.fs.gate(OpKind::Write) {
            Gate::Proceed => {
                self.file.write_all(buf)?;
                self.len += buf.len() as u64;
                Ok(())
            }
            Gate::Fail(e) => Err(e),
            Gate::Crash { op, torn } => {
                self.power_cut(torn, buf);
                Err(io::Error::other(InjectedCrash { op }))
            }
        }
    }

    /// Fsyncs file data; on success the current length becomes the
    /// power-cut floor.
    pub fn sync_data(&mut self) -> io::Result<()> {
        match self.fs.gate(OpKind::Write) {
            Gate::Proceed => {
                self.file.sync_data()?;
                self.synced_len = self.len;
                Ok(())
            }
            Gate::Fail(e) => Err(e),
            Gate::Crash { op, .. } => {
                self.power_cut(false, &[]);
                Err(io::Error::other(InjectedCrash { op }))
            }
        }
    }

    /// Fsyncs data and metadata (size changes included).
    pub fn sync_all(&mut self) -> io::Result<()> {
        match self.fs.gate(OpKind::Write) {
            Gate::Proceed => {
                self.file.sync_all()?;
                self.synced_len = self.len;
                Ok(())
            }
            Gate::Fail(e) => Err(e),
            Gate::Crash { op, .. } => {
                self.power_cut(false, &[]);
                Err(io::Error::other(InjectedCrash { op }))
            }
        }
    }

    /// Truncates to `n` bytes (WAL torn-tail repair / retirement).
    pub fn set_len(&mut self, n: u64) -> io::Result<()> {
        let file = &self.file;
        self.fs.run_plain(OpKind::Write, || file.set_len(n))?;
        self.len = n;
        self.synced_len = self.synced_len.min(n);
        Ok(())
    }

    /// Positioned read of exactly `buf.len()` bytes at `offset`.
    pub fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let file = &self.file;
        self.fs
            .run_plain(OpKind::Read, || file.read_exact_at(buf, offset))
    }

    /// Reads the whole file from the start (WAL replay). The cursor is
    /// left wherever the read ends; append-mode writes are unaffected.
    pub fn read_all(&mut self) -> io::Result<Vec<u8>> {
        let file = &mut self.file;
        self.fs.run_plain(OpKind::Read, || {
            let mut bytes = Vec::new();
            file.seek(SeekFrom::Start(0))?;
            file.read_to_end(&mut bytes)?;
            Ok(bytes)
        })
    }
}

impl std::fmt::Debug for FaultFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultFile")
            .field("path", &self.path)
            .field("len", &self.len)
            .field("synced_len", &self.synced_len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("io-shim-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        path
    }

    #[test]
    fn passthrough_is_bit_identical_to_direct_io() {
        let path = tmp("pass.bin");
        let fs = FaultFs::real();
        let mut f = fs.create_new(&path).unwrap();
        f.write_all(b"hello ").unwrap();
        f.write_all(b"world").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello world");
        assert_eq!(fs.ops(), 0, "unarmed shim must not even count ops");
        assert_eq!(fs.injected_faults(), 0);
    }

    #[test]
    fn transient_eio_is_absorbed_by_retry() {
        // eio=400: individual attempts fail often, but 4 attempts pass
        // with probability 1 - 0.4^4 ≈ 0.974 per op; over 50 ops some
        // retries certainly fire and most ops succeed.
        let fs = FaultFs::with_plan(FaultPlan {
            seed: 11,
            eio_per_mille: 400,
            ..Default::default()
        });
        let path = tmp("eio.bin");
        let mut ok = 0;
        if let Ok(mut f) = fs.create_new(&path) {
            for _ in 0..50 {
                if f.write_all(b"x").is_ok() {
                    ok += 1;
                }
            }
        }
        assert!(ok > 30, "retries should absorb most transient faults");
        assert!(fs.retries() > 0, "the schedule should have injected");
    }

    #[test]
    fn enospc_is_not_retried() {
        let fs = FaultFs::with_plan(FaultPlan {
            seed: 3,
            enospc_per_mille: 1000,
            ..Default::default()
        });
        let path = tmp("nospc.bin");
        let e = fs.create_new(&path).unwrap_err();
        assert!(is_enospc(&e));
        assert!(!is_crash(&e));
        assert_eq!(fs.retries(), 0);
        assert_eq!(fs.give_ups(), 1);
    }

    #[test]
    fn crash_at_drops_unsynced_data_and_poisons_the_domain() {
        let path = tmp("crash.bin");
        // Ops: 0=create 1=write(a) 2=sync 3=write(b) 4=write(c); crash
        // at op 4 must keep "aaaa" (synced) and drop "bbbb" (unsynced).
        let fs = FaultFs::with_plan(FaultPlan {
            seed: 0,
            crash_at: Some(4),
            ..Default::default()
        });
        let mut f = fs.create_new(&path).unwrap();
        f.write_all(b"aaaa").unwrap();
        f.sync_data().unwrap();
        f.write_all(b"bbbb").unwrap();
        let e = f.write_all(b"cccc").unwrap_err();
        assert!(is_crash(&e));
        assert!(fs.crashed());
        assert_eq!(std::fs::read(&path).unwrap(), b"aaaa");
        // The domain is dead: further ops fail without touching disk.
        assert!(is_crash(&f.write_all(b"dddd").unwrap_err()));
        assert!(is_crash(&fs.read(&path).unwrap_err()));
        assert_eq!(std::fs::read(&path).unwrap(), b"aaaa");
    }

    #[test]
    fn torn_crash_leaves_half_the_inflight_write() {
        let path = tmp("torn.bin");
        let fs = FaultFs::with_plan(FaultPlan {
            seed: 0,
            crash_at: Some(2),
            crash_torn: true,
            ..Default::default()
        });
        let mut f = fs.create_new(&path).unwrap();
        f.write_all(b"aaaa").unwrap(); // op 1, unsynced
        let e = f.write_all(b"bbbb").unwrap_err(); // op 2: torn cut
        assert!(is_crash(&e));
        // Unsynced "aaaa" is gone; half of "bbbb" landed at offset 0.
        assert_eq!(std::fs::read(&path).unwrap(), b"bb");
    }

    /// Only the storage classes arm the shim: a compute-only plan stays
    /// a passthrough, so one plan can be handed to both sides.
    #[test]
    fn only_storage_classes_arm_the_shim() {
        let compute = FaultPlan::parse("seed=7,fail=300,straggle=150").unwrap();
        assert!(!storage_armed(&compute));
        assert!(!FaultFs::with_plan(compute).armed());
        for spec in ["eio=1", "enospc=1", "crash=1", "torn=1", "crash-at=0"] {
            assert!(storage_armed(&FaultPlan::parse(spec).unwrap()), "{spec}");
        }
    }

    /// The EIO, mixed-class and `crash-at` schedules for fixed seeds are
    /// pinned: a change to a salt, the hash or the draw moves every
    /// recorded drill. Verdicts print as `.` (ok), `e` (EIO), `n`
    /// (ENOSPC), `c` (clean cut) and `t` (torn cut).
    #[test]
    fn storage_schedules_are_pinned() {
        let code = |v| match v {
            Verdict::Ok => '.',
            Verdict::Eio => 'e',
            Verdict::Enospc => 'n',
            Verdict::Crash { torn } => ['c', 't'][torn as usize],
        };
        let dense = |spec: &str, ops, attempt| -> String {
            let plan = FaultPlan::parse(spec).unwrap();
            (0..ops)
                .map(|op| code(verdict(&plan, op, attempt, OpKind::Write)))
                .collect()
        };
        let eio = "seed=11,eio=400";
        assert_eq!(dense(eio, 24, 0), "eee.e.e..ee.eeee.e......");
        assert_eq!(dense(eio, 24, 1), "..eeee.ee...e....ee.....");
        assert_eq!(dense(eio, 24, 2), "..e.......ee.ee.ee.e.ee.");
        assert_eq!(dense(eio, 24, 3), ".ee.......e.ee..e..e....");
        assert_eq!(
            dense("seed=5,eio=300,crash-at=6,crash-torn", 10, 0),
            "e.ee..t.e."
        );

        let mix = FaultPlan::parse("seed=42,eio=100,enospc=50,crash=20,torn=20").unwrap();
        let sparse = |kind| -> String {
            let faults = (0..120).map(|op| (op, code(verdict(&mix, op, 0, kind))));
            let faults: Vec<String> = faults
                .filter(|&(_, c)| c != '.')
                .map(|(op, c)| format!("{op}{c}"))
                .collect();
            faults.join(" ")
        };
        assert_eq!(
            sparse(OpKind::Write),
            "4e 6e 9e 16n 19n 24e 27e 30n 36n 38c 41e 46t 48e 60e 64c 72e 83n 85e 90n 92n \
             95c 101e 113e 117e"
        );
        // Reads never see ENOSPC: op 30 falls through to its EIO draw.
        assert_eq!(
            sparse(OpKind::Read),
            "4e 6e 9e 24e 27e 30e 38c 41e 46t 48e 60e 64c 72e 85e 95c 101e 113e 117e"
        );
    }

    #[test]
    fn schedule_is_deterministic() {
        let plan = FaultPlan {
            seed: 42,
            eio_per_mille: 100,
            enospc_per_mille: 10,
            crash_per_mille: 5,
            ..Default::default()
        };
        for op in 0..200 {
            assert_eq!(
                verdict(&plan, op, 0, OpKind::Write),
                verdict(&plan, op, 0, OpKind::Write)
            );
            assert_eq!(
                verdict(&plan, op, 0, OpKind::Read),
                verdict(&plan, op, 0, OpKind::Read)
            );
            assert_ne!(
                verdict(&plan, op, 0, OpKind::Read),
                Verdict::Enospc,
                "reads are never short on disk space"
            );
        }
    }
}
