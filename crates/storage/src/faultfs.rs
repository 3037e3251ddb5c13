//! Deterministic fault-injection I/O layer for the storage stack.
//!
//! Everything the storage layer does to stable storage — WAL appends and
//! fsyncs, checkpoint renames, log truncations, segment creation — flows
//! through a [`StorageBackend`], so a test can interpose on the exact
//! operation stream a workload produces. Two backends ship here:
//!
//! - [`RealBackend`]: plain `std::fs`, used by default everywhere;
//! - [`FaultBackend`]: wraps another backend, records every mutating
//!   operation, and — when armed with a [`CrashPlan`] — simulates a power
//!   failure at the N-th operation: that operation does not happen (or, for
//!   a write, only a configured prefix of its bytes reaches the file), and
//!   every later operation fails too, exactly as if the process had died.
//!
//! The operation counter makes crashes *deterministic and enumerable*: a
//! recorded workload that performs T operations defines T crash points, and
//! the recovery differential harness (see `tests/durability.rs`) replays
//! the workload once per crash point, restarts from the surviving files,
//! and asserts the recovered database equals a clean prefix of the
//! workload — never a hybrid state.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// A writable file handle handed out by a [`StorageBackend`].
///
/// Most storage-layer writers are append-only (the WAL, filestore segments,
/// snapshot images), so the core interface is a sequential [`Write`] plus
/// the two durability-relevant operations: `sync_data` (the fsync boundary)
/// and `truncate` (which also repositions the cursor at the new end). The
/// paged checkpoint engine ([`crate::pager`]) additionally needs
/// positioned I/O — `write_at` / `read_at` / `file_len` — to update
/// fixed-size pages in place; positioned calls may move the cursor, so a
/// file is driven either sequentially or positioned, never both.
pub trait BackendFile: Write + Send {
    /// Flush OS buffers for the file's *data* to stable storage.
    fn sync_data(&mut self) -> io::Result<()>;
    /// Set the file's length to `len` and position the cursor there.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// Write all of `buf` at an absolute offset (may move the cursor).
    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()>;
    /// Fill `buf` exactly from an absolute offset (may move the cursor).
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
    /// Current length of the file in bytes.
    fn file_len(&mut self) -> io::Result<u64>;
}

/// The storage layer's window onto the filesystem. Every mutating
/// operation the WAL, filestore, snapshot persistence, and checkpointing
/// perform is a method here, so a wrapping backend can count, log, tear,
/// or fail each one.
pub trait StorageBackend: fmt::Debug + Send + Sync {
    /// Open `path` for appending, creating it if needed, truncated to
    /// `truncate_to` bytes with the cursor at the new end.
    fn open_append(&self, path: &Path, truncate_to: u64) -> io::Result<Box<dyn BackendFile>>;
    /// Create a brand-new file for writing; fails if `path` exists.
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn BackendFile>>;
    /// Open an *existing* file for positioned read/write, unmodified.
    /// Like [`StorageBackend::read`] this is not a mutating operation — it
    /// takes no crash point; mutation happens through the returned handle.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn BackendFile>>;
    /// Read a whole file. Missing files surface as `ErrorKind::NotFound`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically rename `from` to `to` (the checkpoint publication step).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Delete a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Create a directory and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// File names (not paths) of a directory's entries.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>>;
}

// ---------------------------------------------------------------------
// Real backend
// ---------------------------------------------------------------------

/// The production backend: direct `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealBackend;

struct RealFile(File);

impl Write for RealFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl BackendFile for RealFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)?;
        self.0.seek(SeekFrom::Start(len))?;
        Ok(())
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(offset))?;
        self.0.write_all(buf)
    }

    #[cfg(unix)]
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(&self.0, buf, offset)
    }

    #[cfg(not(unix))]
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(offset))?;
        self.0.read_exact(buf)
    }

    fn file_len(&mut self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

impl StorageBackend for RealBackend {
    fn open_append(&self, path: &Path, truncate_to: u64) -> io::Result<Box<dyn BackendFile>> {
        // Length is managed explicitly below, so an existing file is opened
        // as it is; a file this call creates gets its directory entry made
        // durable, or every commit later written to it could vanish with
        // the entry on power loss.
        let mut options = OpenOptions::new();
        options.read(true).write(true);
        let file = match options.clone().create_new(true).open(path) {
            Ok(file) => {
                sync_parent_dir(path)?;
                file
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => options.open(path)?,
            Err(e) => return Err(e),
        };
        let mut f = RealFile(file);
        f.truncate(truncate_to)?;
        Ok(Box::new(f))
    }

    fn create_new(&self, path: &Path) -> io::Result<Box<dyn BackendFile>> {
        // Read access matters: a pager building a B-tree image reads pages
        // back through the same handle once the buffer pool starts evicting.
        let file = OpenOptions::new().create_new(true).read(true).write(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn BackendFile>> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        Ok(data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)?;
        // Make the rename itself durable — it is a checkpoint's commit
        // point, and the caller truncates the log next.
        sync_parent_dir(to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(path)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(names)
    }
}

/// The directory holding `path`: its parent, or `.` for a bare file name
/// (whose parent is the empty path, which names no directory to open).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    }
}

/// Fsync the directory holding `path`, so a new entry there (a created
/// file, a rename's target) survives power loss. A filesystem that does
/// not sync directories at all is let pass; any other failure is returned.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    match File::open(parent_dir(path)).and_then(|dir| dir.sync_data()) {
        Err(e) if cannot_sync_directories(&e) => Ok(()),
        synced => synced,
    }
}

/// Does `e`, from opening or syncing a directory, say only that this
/// filesystem does not sync directories (`EINVAL`, or no support at all)?
/// Any other failure means the directory entry may not be durable.
fn cannot_sync_directories(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::InvalidInput | io::ErrorKind::Unsupported)
}

// ---------------------------------------------------------------------
// Fault backend
// ---------------------------------------------------------------------

/// One recorded mutating operation, in workload order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Bytes written to an open file (one `write` call).
    Write {
        /// Target file.
        path: PathBuf,
        /// Size of the write in bytes.
        bytes: usize,
    },
    /// `sync_data` on an open file — the durability boundary.
    Sync {
        /// Target file.
        path: PathBuf,
    },
    /// A file truncated to a length (WAL reset, open-time tail trim).
    Truncate {
        /// Target file.
        path: PathBuf,
        /// New length.
        len: u64,
    },
    /// An atomic rename (checkpoint publication).
    Rename {
        /// Source path.
        from: PathBuf,
        /// Destination path.
        to: PathBuf,
    },
    /// A file deletion.
    Remove {
        /// Target file.
        path: PathBuf,
    },
    /// A file created (`create_new` — filestore segments, checkpoints).
    Create {
        /// Target file.
        path: PathBuf,
    },
    /// A directory created.
    CreateDir {
        /// Target directory.
        path: PathBuf,
    },
}

impl Op {
    /// Short label for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Write { .. } => "write",
            Op::Sync { .. } => "sync",
            Op::Truncate { .. } => "truncate",
            Op::Rename { .. } => "rename",
            Op::Remove { .. } => "remove",
            Op::Create { .. } => "create",
            Op::CreateDir { .. } => "create-dir",
        }
    }
}

/// Where (and how) a [`FaultBackend`] kills its process-model — or, for
/// [`CrashPlan::fail_sync`], fails one operation and lets it live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// 1-based index of the mutating operation at which to crash: that
    /// operation fails (wholly or torn) and every later one fails too.
    pub crash_at: u64,
    /// For a crashing `Write`, how many leading bytes of that write reach
    /// the file before the failure — a torn write. `None` tears at 0.
    pub tear_bytes: Option<usize>,
    /// The process-model survives: only the operation at `crash_at` fails,
    /// and every later one proceeds.
    pub survives: bool,
}

impl CrashPlan {
    /// Crash cleanly before the `n`-th mutating operation takes effect.
    pub fn kill_at(n: u64) -> CrashPlan {
        CrashPlan { crash_at: n, tear_bytes: None, survives: false }
    }

    /// Crash at the `n`-th operation, persisting the first `bytes` bytes
    /// if that operation is a write.
    pub fn tear_at(n: u64, bytes: usize) -> CrashPlan {
        CrashPlan { crash_at: n, tear_bytes: Some(bytes), survives: false }
    }

    /// Fail the `n`-th operation — a sync, as the caller picks it — and
    /// let the process live: the sync does not happen and returns an
    /// error, and every operation after it proceeds. What the disk does
    /// when an `fsync` reports an error.
    pub fn fail_sync(n: u64) -> CrashPlan {
        CrashPlan { crash_at: n, tear_bytes: None, survives: true }
    }
}

struct FaultState {
    ops: u64,
    plan: Option<CrashPlan>,
    crashed: bool,
    log: Vec<Op>,
}

/// What a crashing operation is still allowed to do.
enum Admission {
    /// Proceed normally.
    Proceed,
    /// This is the crash point: persist at most this many bytes (writes
    /// only), then fail.
    Tear(usize),
}

impl FaultState {
    /// Gate one mutating operation: count it, log it, and decide whether
    /// it proceeds, tears, or fails because the process-model is dead.
    fn admit(&mut self, op: Op) -> io::Result<Admission> {
        if self.crashed {
            return Err(crash_error(self));
        }
        self.ops += 1;
        self.log.push(op);
        if let Some(plan) = self.plan {
            if self.ops == plan.crash_at {
                self.crashed = !plan.survives;
                return Ok(Admission::Tear(plan.tear_bytes.unwrap_or(0)));
            }
        }
        Ok(Admission::Proceed)
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            Err(crash_error(self))
        } else {
            Ok(())
        }
    }
}

/// The error of an operation the plan failed: a crash, or one the
/// process survives.
fn crash_error(st: &FaultState) -> io::Error {
    let op = st.ops;
    if st.crashed {
        io::Error::other(format!("faultfs: simulated crash (power failure after operation {op})"))
    } else {
        io::Error::other(format!("faultfs: simulated failure of operation {op}"))
    }
}

/// A backend that wraps another, records the mutating-operation stream,
/// and optionally kills the process-model at a planned crash point.
///
/// Clones share one operation counter, so every file handle and path
/// operation of one "process" draws from the same stream.
#[derive(Clone)]
pub struct FaultBackend {
    inner: Arc<dyn StorageBackend>,
    state: Arc<Mutex<FaultState>>,
}

impl fmt::Debug for FaultBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state();
        f.debug_struct("FaultBackend")
            .field("ops", &st.ops)
            .field("plan", &st.plan)
            .field("crashed", &st.crashed)
            .finish()
    }
}

impl FaultBackend {
    /// Record-only wrapper: counts and logs operations, never crashes.
    pub fn recording(inner: impl StorageBackend + 'static) -> FaultBackend {
        FaultBackend {
            inner: Arc::new(inner),
            state: Arc::new(Mutex::new(FaultState {
                ops: 0,
                plan: None,
                crashed: false,
                log: Vec::new(),
            })),
        }
    }

    /// Wrapper armed with a crash plan.
    pub fn with_plan(inner: impl StorageBackend + 'static, plan: CrashPlan) -> FaultBackend {
        let b = FaultBackend::recording(inner);
        b.state().plan = Some(plan);
        b
    }

    fn state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arm (or replace) the crash plan mid-run: lets a test record a
    /// workload prefix fault-free, then kill a later phase at an exact
    /// operation.
    pub fn arm(&self, plan: CrashPlan) {
        self.state().plan = Some(plan);
    }

    /// Mutating operations observed so far.
    pub fn op_count(&self) -> u64 {
        self.state().ops
    }

    /// True once the planned crash point has fired (never for a plan the
    /// process survives).
    pub fn crashed(&self) -> bool {
        self.state().crashed
    }

    /// The recorded operation stream, in order.
    pub fn ops(&self) -> Vec<Op> {
        self.state().log.clone()
    }
}

struct FaultFile {
    path: PathBuf,
    inner: Box<dyn BackendFile>,
    state: Arc<Mutex<FaultState>>,
}

impl FaultFile {
    fn state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let admission =
            self.state().admit(Op::Write { path: self.path.clone(), bytes: buf.len() })?;
        match admission {
            Admission::Proceed => {
                self.inner.write_all(buf)?;
                Ok(buf.len())
            }
            Admission::Tear(keep) => {
                let keep = keep.min(buf.len());
                self.inner.write_all(&buf[..keep])?;
                let _ = self.inner.flush();
                Err(crash_error(&self.state()))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        // Flushing moves no new bytes (writes were counted individually);
        // it only fails once the process-model is dead.
        self.state().check_alive()?;
        self.inner.flush()
    }
}

impl BackendFile for FaultFile {
    fn sync_data(&mut self) -> io::Result<()> {
        let admission = self.state().admit(Op::Sync { path: self.path.clone() })?;
        match admission {
            Admission::Proceed => self.inner.sync_data(),
            Admission::Tear(_) => Err(crash_error(&self.state())),
        }
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let admission = self.state().admit(Op::Truncate { path: self.path.clone(), len })?;
        match admission {
            Admission::Proceed => self.inner.truncate(len),
            Admission::Tear(_) => Err(crash_error(&self.state())),
        }
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let admission =
            self.state().admit(Op::Write { path: self.path.clone(), bytes: buf.len() })?;
        match admission {
            Admission::Proceed => self.inner.write_at(offset, buf),
            Admission::Tear(keep) => {
                // A torn positioned write persists a leading prefix at the
                // target offset, mirroring the sequential-write model.
                let keep = keep.min(buf.len());
                if keep > 0 {
                    self.inner.write_at(offset, &buf[..keep])?;
                }
                Err(crash_error(&self.state()))
            }
        }
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.state().check_alive()?;
        self.inner.read_at(offset, buf)
    }

    fn file_len(&mut self) -> io::Result<u64> {
        self.state().check_alive()?;
        self.inner.file_len()
    }
}

impl StorageBackend for FaultBackend {
    fn open_append(&self, path: &Path, truncate_to: u64) -> io::Result<Box<dyn BackendFile>> {
        let admission =
            self.state().admit(Op::Truncate { path: path.to_path_buf(), len: truncate_to })?;
        if let Admission::Tear(_) = admission {
            return Err(crash_error(&self.state()));
        }
        let inner = self.inner.open_append(path, truncate_to)?;
        Ok(Box::new(FaultFile { path: path.to_path_buf(), inner, state: Arc::clone(&self.state) }))
    }

    fn create_new(&self, path: &Path) -> io::Result<Box<dyn BackendFile>> {
        let admission = self.state().admit(Op::Create { path: path.to_path_buf() })?;
        if let Admission::Tear(_) = admission {
            return Err(crash_error(&self.state()));
        }
        let inner = self.inner.create_new(path)?;
        Ok(Box::new(FaultFile { path: path.to_path_buf(), inner, state: Arc::clone(&self.state) }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        // Reads are not mutating: they take no crash point, but a dead
        // process-model cannot read either.
        self.state().check_alive()?;
        self.inner.read(path)
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn BackendFile>> {
        // Opening an existing file mutates nothing (no crash point); the
        // handle's own writes and syncs are gated like any other.
        self.state().check_alive()?;
        let inner = self.inner.open_rw(path)?;
        Ok(Box::new(FaultFile { path: path.to_path_buf(), inner, state: Arc::clone(&self.state) }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let admission =
            self.state().admit(Op::Rename { from: from.to_path_buf(), to: to.to_path_buf() })?;
        match admission {
            Admission::Proceed => self.inner.rename(from, to),
            Admission::Tear(_) => Err(crash_error(&self.state())),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let admission = self.state().admit(Op::Remove { path: path.to_path_buf() })?;
        match admission {
            Admission::Proceed => self.inner.remove_file(path),
            Admission::Tear(_) => Err(crash_error(&self.state())),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let admission = self.state().admit(Op::CreateDir { path: path.to_path_buf() })?;
        match admission {
            Admission::Proceed => self.inner.create_dir_all(path),
            Admission::Tear(_) => Err(crash_error(&self.state())),
        }
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        self.state().check_alive()?;
        self.inner.list_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("quarry-faultfs-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.bin", std::process::id()))
    }

    #[test]
    fn recording_backend_counts_and_logs_ops() {
        let p = tmp("record");
        let _ = std::fs::remove_file(&p);
        let b = FaultBackend::recording(RealBackend);
        let mut f = b.open_append(&p, 0).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(b.op_count(), 3, "truncate + write + sync");
        let kinds: Vec<&str> = b.ops().iter().map(Op::kind).collect();
        assert_eq!(kinds, vec!["truncate", "write", "sync"]);
        assert!(!b.crashed());
        assert_eq!(b.read(&p).unwrap(), b"hello");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn crash_point_fails_that_op_and_all_later_ones() {
        let p = tmp("kill");
        let _ = std::fs::remove_file(&p);
        let b = FaultBackend::with_plan(RealBackend, CrashPlan::kill_at(2));
        let mut f = b.open_append(&p, 0).unwrap(); // op 1: truncate
        let err = f.write_all(b"doomed").unwrap_err(); // op 2: crash
        assert!(err.to_string().contains("simulated crash"), "{err}");
        assert!(b.crashed());
        assert!(f.write_all(b"more").is_err(), "process-model stays dead");
        assert!(f.sync_data().is_err());
        assert!(b.read(&p).is_err(), "reads die with the process too");
        // Nothing of the crashing write reached the file.
        assert_eq!(std::fs::read(&p).unwrap(), b"");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn a_failed_sync_fails_alone_and_the_process_lives() {
        let p = tmp("fail-sync");
        let _ = std::fs::remove_file(&p);
        let b = FaultBackend::with_plan(RealBackend, CrashPlan::fail_sync(3));
        let mut f = b.open_append(&p, 0).unwrap(); // op 1
        f.write_all(b"kept").unwrap(); // op 2
        let err = f.sync_data().unwrap_err(); // op 3: fails
        assert!(err.to_string().contains("failure of operation 3"), "{err}");
        assert!(!b.crashed());
        f.write_all(b", and more").unwrap(); // op 4
        f.sync_data().unwrap(); // op 5
        assert_eq!(b.op_count(), 5);
        assert_eq!(b.read(&p).unwrap(), b"kept, and more");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn torn_write_persists_exactly_the_prefix() {
        let p = tmp("tear");
        let _ = std::fs::remove_file(&p);
        let b = FaultBackend::with_plan(RealBackend, CrashPlan::tear_at(3, 4));
        let mut f = b.open_append(&p, 0).unwrap(); // op 1
        f.write_all(b"intact|").unwrap(); // op 2
        assert!(f.write_all(b"torn-away").is_err()); // op 3: 4 bytes survive
        drop(f);
        assert_eq!(std::fs::read(&p).unwrap(), b"intact|torn");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn positioned_io_round_trips_and_tears() {
        let p = tmp("posio");
        let _ = std::fs::remove_file(&p);
        std::fs::write(&p, b"0123456789").unwrap();
        let b = FaultBackend::recording(RealBackend);
        let mut f = b.open_rw(&p).unwrap();
        assert_eq!(b.op_count(), 0, "open_rw takes no crash point");
        f.write_at(4, b"XY").unwrap(); // op 1
        let mut buf = [0u8; 3];
        f.read_at(3, &mut buf).unwrap();
        assert_eq!(&buf, b"3XY");
        assert_eq!(f.file_len().unwrap(), 10);
        assert_eq!(b.op_count(), 1, "only the write counts");
        drop(f);

        // A torn positioned write persists a prefix at the offset.
        let b = FaultBackend::with_plan(RealBackend, CrashPlan::tear_at(1, 1));
        let mut f = b.open_rw(&p).unwrap();
        assert!(f.write_at(0, b"ab").is_err());
        drop(f);
        assert_eq!(std::fs::read(&p).unwrap(), b"a123XY6789");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn a_rename_syncs_the_directory_it_lands_in() {
        assert_eq!(parent_dir(Path::new("node.ckpt")), Path::new("."));
        assert_eq!(parent_dir(Path::new("data/node.ckpt")), Path::new("data"));
        assert_eq!(parent_dir(Path::new("/node.ckpt")), Path::new("/"));

        // Only "this filesystem does not sync directories" is let pass.
        let einval = io::Error::from_raw_os_error(22);
        assert_eq!(einval.kind(), io::ErrorKind::InvalidInput);
        for tolerated in [einval, io::ErrorKind::Unsupported.into()] {
            assert!(cannot_sync_directories(&tolerated), "{tolerated}");
        }
        let eio = io::Error::from_raw_os_error(5);
        let kinds = [io::ErrorKind::NotFound, io::ErrorKind::PermissionDenied];
        for failed in kinds.map(io::Error::from).into_iter().chain([eio]) {
            assert!(!cannot_sync_directories(&failed), "{failed}");
        }

        // A rename into a directory that can be synced succeeds.
        let (a, b) = (tmp("sync-src"), tmp("sync-dst"));
        std::fs::write(&a, b"x").unwrap();
        RealBackend.rename(&a, &b).unwrap();
        assert!(b.exists() && !a.exists());
        std::fs::remove_file(&b).unwrap();
    }

    #[test]
    fn a_created_log_file_syncs_its_directory() {
        // A missing directory is a failure, not "cannot sync directories".
        let lost = Path::new("/nonexistent-quarry-dir/wal.log");
        assert_eq!(sync_parent_dir(lost).unwrap_err().kind(), io::ErrorKind::NotFound);

        // Creation syncs the directory and opens an empty file; opening it
        // again keeps its bytes up to `truncate_to` and drops the rest.
        let p = tmp("created-log");
        let _ = std::fs::remove_file(&p);
        let mut f = RealBackend.open_append(&p, 0).unwrap();
        assert_eq!(f.file_len().unwrap(), 0);
        f.write_all(b"0123456789").unwrap();
        drop(f);
        let mut f = RealBackend.open_append(&p, 4).unwrap();
        assert_eq!(f.file_len().unwrap(), 4);
        drop(f);
        assert_eq!(std::fs::read(&p).unwrap(), b"0123");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn rename_and_remove_are_crash_points() {
        let a = tmp("mv-src");
        let bpath = tmp("mv-dst");
        std::fs::write(&a, b"x").unwrap();
        let _ = std::fs::remove_file(&bpath);
        let fb = FaultBackend::with_plan(RealBackend, CrashPlan::kill_at(1));
        assert!(fb.rename(&a, &bpath).is_err());
        assert!(a.exists(), "crashing rename must not move the file");
        assert!(!bpath.exists());
        std::fs::remove_file(&a).unwrap();
    }
}
