//! The storage environment: every byte the disk subsystem reads or
//! writes goes through a [`StorageEnv`].
//!
//! `decorr-storage` used to call `std::fs` directly, which meant the only
//! way to test crash recovery was to mutate files *after the fact*
//! (truncate, bit-flip). A `StorageEnv` virtualizes the syscall layer —
//! in the spirit of LevelDB's `FaultInjectionTestEnv` and SQLite's test
//! VFS — so faults can be injected *as they happen*:
//!
//! * [`RealEnv`] is the production implementation: thin forwarding to
//!   `std::fs`, zero behavioral change.
//! * [`ChaosEnv`] is a deterministic in-memory filesystem driven by a
//!   [`FaultPlane`]'s disk site: ENOSPC ([`Error::StorageFull`]),
//!   short/torn writes, fsync-reported-ok-but-lost ("lying fsync"),
//!   transient EIO on read and per-op latency on the plane's clock —
//!   every injected fault is counted in the plane's [`FaultStats`].
//!
//! # Crash model
//!
//! `ChaosEnv` tracks, per file, the *durable* bytes (what the last
//! successful fsync promised) separately from the *live* bytes (what a
//! reader sees now). [`ChaosEnv::crash`] simulates a power cut: live
//! state reverts to the durable bytes plus a seeded prefix of whatever
//! was written since (the page cache may have flushed part of a dirty
//! range before power died), which is exactly how torn WAL tails arise
//! in the wild; whatever survives is on the platter, so a later crash
//! keeps it. Namespace operations (create / rename / remove) are
//! modeled as atomic and immediately durable — the WAL/manifest
//! protocols under test fsync file *data* before publishing references,
//! which is the contract this model checks.
//!
//! Every reading or mutating operation consumes one index from the
//! plane's disk counter;
//! [`ChaosEnv::set_crash_point`] kills the env at exactly that index
//! (the op fails, unsynced bytes are dropped, and every later op fails
//! with a typed [`Error::Io`] until [`ChaosEnv::revive`]). A sweep over
//! `0..op_count` therefore kills the store at *every* fault point.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::{Error, Result};
use crate::fault::{DiskFault, DiskOp, FaultPlane, FaultStats, Site};

/// An open file handle, pin-friendly: all methods take `&self` (impls use
/// interior locking), so a handle can be shared behind an `Arc` by
/// concurrent readers without an outer mutex.
pub trait EnvFile: Send + Sync + std::fmt::Debug {
    /// Read exactly `buf.len()` bytes at `offset`.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;
    /// The whole file, front to back.
    fn read_all(&self) -> Result<Vec<u8>>;
    /// Write all of `data` at `offset` (extending the file if needed). A
    /// fault injector may write a *prefix* and then fail — callers must
    /// treat an error as "any prefix of `data` may be on disk".
    fn write_all_at(&self, offset: u64, data: &[u8]) -> Result<()>;
    /// Truncate (or extend with zeros) to `len`.
    fn set_len(&self, len: u64) -> Result<()>;
    /// Current length in bytes.
    fn len(&self) -> Result<u64>;
    /// Is the file empty?
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
    /// Flush file data to stable storage.
    fn sync_data(&self) -> Result<()>;
    /// Flush file data and metadata to stable storage.
    fn sync_all(&self) -> Result<()>;
}

/// The filesystem the storage layer runs on. See the module docs.
pub trait StorageEnv: Send + Sync + std::fmt::Debug {
    /// Create (truncating if present) a file for writing.
    fn create(&self, path: &Path) -> Result<Box<dyn EnvFile>>;
    /// Open an existing file — or create an empty one — for read + write.
    fn open_rw(&self, path: &Path) -> Result<Box<dyn EnvFile>>;
    /// Open an existing file read-only. Errors if absent.
    fn open_read(&self, path: &Path) -> Result<Box<dyn EnvFile>>;
    /// The whole file's bytes, or `None` if the file does not exist.
    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>>;
    /// Atomically rename `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> Result<()>;
    /// Create a directory and any missing parents.
    fn create_dir_all(&self, path: &Path) -> Result<()>;
    /// The file names (not paths) directly under `path`, sorted.
    fn read_dir(&self, path: &Path) -> Result<Vec<String>>;
    /// fsync a directory so just-created/renamed entries survive a crash.
    fn sync_dir(&self, path: &Path) -> Result<()>;
    /// Does a file exist at `path`?
    fn exists(&self, path: &Path) -> bool;
    /// Injected-fault counters of the env's fault plane (zeros for a
    /// fault-free env).
    fn stats(&self) -> FaultStats {
        FaultStats::default()
    }
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    if e.raw_os_error() == Some(28) {
        // ENOSPC from the real disk gets the same typed, fail-closed
        // variant the chaos env injects.
        return Error::storage_full(format!("{what} {}: {e}", path.display()));
    }
    Error::io(format!("{what} {}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// RealEnv
// ---------------------------------------------------------------------

/// The production environment: `std::fs`, nothing injected.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealEnv;

impl RealEnv {
    /// A shareable handle to the process-wide real environment.
    pub fn shared() -> Arc<dyn StorageEnv> {
        Arc::new(RealEnv)
    }
}

/// A real file: seek + read/write behind a mutex so the handle is
/// shareable (`&self` methods) like every [`EnvFile`].
pub struct RealFile {
    path: PathBuf,
    file: Mutex<File>,
}

impl std::fmt::Debug for RealFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RealFile({})", self.path.display())
    }
}

impl RealFile {
    fn locked(&self) -> Result<std::sync::MutexGuard<'_, File>> {
        self.file
            .lock()
            .map_err(|_| Error::io(format!("file lock poisoned: {}", self.path.display())))
    }
}

impl EnvFile for RealFile {
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let mut f = self.locked()?;
        f.seek(SeekFrom::Start(offset))
            .map_err(|e| io_err("seek", &self.path, e))?;
        f.read_exact(buf).map_err(|e| io_err("read", &self.path, e))
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        let mut f = self.locked()?;
        f.seek(SeekFrom::Start(0))
            .map_err(|e| io_err("seek", &self.path, e))?;
        let mut out = Vec::new();
        f.read_to_end(&mut out)
            .map_err(|e| io_err("read", &self.path, e))?;
        Ok(out)
    }

    fn write_all_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let mut f = self.locked()?;
        f.seek(SeekFrom::Start(offset))
            .map_err(|e| io_err("seek", &self.path, e))?;
        f.write_all(data)
            .map_err(|e| io_err("write", &self.path, e))
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.locked()?
            .set_len(len)
            .map_err(|e| io_err("truncate", &self.path, e))
    }

    fn len(&self) -> Result<u64> {
        Ok(self
            .locked()?
            .metadata()
            .map_err(|e| io_err("stat", &self.path, e))?
            .len())
    }

    fn sync_data(&self) -> Result<()> {
        self.locked()?
            .sync_data()
            .map_err(|e| io_err("fsync", &self.path, e))
    }

    fn sync_all(&self) -> Result<()> {
        self.locked()?
            .sync_all()
            .map_err(|e| io_err("fsync", &self.path, e))
    }
}

impl StorageEnv for RealEnv {
    fn create(&self, path: &Path) -> Result<Box<dyn EnvFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("create", path, e))?;
        Ok(Box::new(RealFile {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        }))
    }

    fn open_rw(&self, path: &Path) -> Result<Box<dyn EnvFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("open", path, e))?;
        Ok(Box::new(RealFile {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        }))
    }

    fn open_read(&self, path: &Path) -> Result<Box<dyn EnvFile>> {
        let file = File::open(path).map_err(|e| io_err("open", path, e))?;
        Ok(Box::new(RealFile {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        }))
    }

    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        match std::fs::read(path) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", path, e)),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        std::fs::rename(from, to).map_err(|e| io_err("rename", to, e))
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        std::fs::remove_file(path).map_err(|e| io_err("remove", path, e))
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        std::fs::create_dir_all(path).map_err(|e| io_err("mkdir", path, e))
    }

    fn read_dir(&self, path: &Path) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(path).map_err(|e| io_err("readdir", path, e))? {
            let entry = entry.map_err(|e| io_err("readdir", path, e))?;
            if entry.path().is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        let d = File::open(path).map_err(|e| io_err("open dir", path, e))?;
        d.sync_all().map_err(|e| io_err("fsync dir", path, e))
    }

    fn exists(&self, path: &Path) -> bool {
        path.is_file()
    }
}

// ---------------------------------------------------------------------
// ChaosEnv
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct MemFile {
    /// What a reader sees now.
    live: Vec<u8>,
    /// What the last acknowledged-and-honest fsync promised survives a
    /// power cut.
    durable: Vec<u8>,
}

#[derive(Debug, Default)]
struct MemFs {
    files: BTreeMap<PathBuf, MemFile>,
    dirs: std::collections::BTreeSet<PathBuf>,
}

#[derive(Debug)]
struct ChaosInner {
    /// Draws every fault, counts it and owns the op counter.
    plane: FaultPlane,
    fs: Mutex<MemFs>,
    /// Kill the env at exactly this disk op index (`u64::MAX` = never).
    crash_at: AtomicU64,
    /// Post-crash: every op fails until [`ChaosEnv::revive`].
    dead: AtomicBool,
    /// Force [`Error::StorageFull`] on every write (ENOSPC probe).
    disk_full: AtomicBool,
    /// Master switch for the plane's disk faults.
    faults_on: AtomicBool,
}

/// The deterministic fault-injecting in-memory device. Cloning shares the
/// filesystem and the plane, so a store and the test driving it see the
/// same world.
#[derive(Debug, Clone)]
pub struct ChaosEnv {
    inner: Arc<ChaosInner>,
}

impl ChaosEnv {
    /// An empty device whose faults `plane`'s disk site draws.
    pub fn new(plane: FaultPlane) -> ChaosEnv {
        ChaosEnv {
            inner: Arc::new(ChaosInner {
                plane,
                fs: Mutex::new(MemFs::default()),
                crash_at: AtomicU64::new(u64::MAX),
                dead: AtomicBool::new(false),
                disk_full: AtomicBool::new(false),
                faults_on: AtomicBool::new(true),
            }),
        }
    }

    /// Ops consumed so far — after a faults-off dry run, this is the
    /// number of crash points a sweep should cover.
    pub fn op_count(&self) -> u64 {
        self.inner.plane.ops(Site::Disk)
    }

    /// Arm (or disarm, with `u64::MAX`) the crash point: the op with this
    /// index fails, unsynced bytes are dropped, and the env stays dead
    /// until [`ChaosEnv::revive`].
    pub fn set_crash_point(&self, op: u64) {
        self.inner.crash_at.store(op, Ordering::Relaxed);
    }

    /// Enable / disable the plane's disk faults (crash points and
    /// `set_disk_full` stay armed independently).
    pub fn set_faults(&self, on: bool) {
        self.inner.faults_on.store(on, Ordering::Relaxed);
    }

    /// Force every write to fail with [`Error::StorageFull`].
    pub fn set_disk_full(&self, full: bool) {
        self.inner.disk_full.store(full, Ordering::Relaxed);
    }

    /// Simulate a power cut *now*: each file reverts to its durable bytes
    /// plus a seeded prefix of the bytes written since (the partial page-
    /// cache flush that makes real torn tails), what survives is durable,
    /// and the env goes dead.
    pub fn crash(&self) {
        let plane = &self.inner.plane;
        plane.count(|s| s.crashes += 1);
        self.inner.dead.store(true, Ordering::Relaxed);
        if let Ok(mut fs) = self.inner.fs.lock() {
            let at = plane.ops(Site::Disk);
            for (path, f) in fs.files.iter_mut() {
                let keep = if f.live.len() > f.durable.len()
                    && f.live[..f.durable.len()] == f.durable[..]
                {
                    // Append-shaped dirt: a seeded amount of the tail may
                    // have been flushed before power died.
                    let delta = (f.live.len() - f.durable.len()) as u64;
                    f.durable.len() + plane.flushed_tail(at, path_hash(path), delta) as usize
                } else {
                    // Overwritten / truncated dirt: only the promise
                    // survives.
                    f.durable.len()
                };
                if keep <= f.live.len() {
                    f.live.truncate(keep);
                } else {
                    f.live = f.durable.clone();
                }
                f.durable.clone_from(&f.live);
            }
        }
    }

    /// Bring a crashed env back (contents stay exactly as the crash left
    /// them) so recovery can be driven against the surviving bytes.
    pub fn revive(&self) {
        self.inner.dead.store(false, Ordering::Relaxed);
    }

    fn alive(&self, path: &Path) -> Result<()> {
        if self.inner.dead.load(Ordering::Relaxed) {
            return Err(Error::io(format!(
                "chaos: env is down (crashed) at {}",
                path.display()
            )));
        }
        Ok(())
    }

    /// One reading or mutating op: consume a disk index, check death and
    /// the crash point, then ask the plane for this op's fault. ENOSPC and
    /// EIO fail here; a tear or a lost sync is the caller's to apply.
    fn begin_op(&self, op: DiskOp, path: &Path) -> Result<DiskFault> {
        let plane = &self.inner.plane;
        let idx = plane.next_op(Site::Disk);
        self.alive(path)?;
        if idx == self.inner.crash_at.load(Ordering::Relaxed) {
            self.crash();
            return Err(Error::io(format!(
                "chaos: power cut at op {idx} ({})",
                path.display()
            )));
        }
        let fault =
            if self.inner.disk_full.load(Ordering::Relaxed) && matches!(op, DiskOp::Write(_)) {
                plane.count(|s| s.enospc += 1);
                DiskFault::Full
            } else if self.inner.faults_on.load(Ordering::Relaxed) {
                plane.disk_fault(op, idx)
            } else {
                DiskFault::None
            };
        match fault {
            DiskFault::Full => Err(Error::storage_full(format!(
                "chaos: no space left on device at op {idx} ({})",
                path.display()
            ))),
            DiskFault::Eio => Err(Error::io(format!(
                "chaos: transient EIO at op {idx} ({})",
                path.display()
            ))),
            other => Ok(other),
        }
    }

    fn fs(&self) -> Result<std::sync::MutexGuard<'_, MemFs>> {
        self.inner
            .fs
            .lock()
            .map_err(|_| Error::io("chaos fs lock poisoned"))
    }

    /// Dump the live bytes of every file (path → contents), for byte-
    /// identity comparisons against a [`RealEnv`] directory.
    pub fn dump(&self) -> Result<Vec<(PathBuf, Vec<u8>)>> {
        let fs = self.fs()?;
        Ok(fs
            .files
            .iter()
            .map(|(p, f)| (p.clone(), f.live.clone()))
            .collect())
    }
}

fn path_hash(p: &Path) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in p.as_os_str().as_encoded_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A chaos file handle: shares the env, addresses one path.
#[derive(Debug)]
pub struct ChaosFile {
    env: ChaosEnv,
    path: PathBuf,
}

impl ChaosFile {
    fn with_file<T>(&self, f: impl FnOnce(&mut MemFile) -> Result<T>) -> Result<T> {
        let mut fs = self.env.fs()?;
        let file = fs.files.get_mut(&self.path).ok_or_else(|| {
            Error::io(format!(
                "chaos: file removed under handle {}",
                self.path.display()
            ))
        })?;
        f(file)
    }
}

impl EnvFile for ChaosFile {
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.env.begin_op(DiskOp::Read, &self.path)?;
        self.with_file(|f| {
            let start = offset as usize;
            let end = start + buf.len();
            if end > f.live.len() {
                return Err(Error::io(format!(
                    "chaos: short read at {offset} ({})",
                    self.path.display()
                )));
            }
            buf.copy_from_slice(&f.live[start..end]);
            Ok(())
        })
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        self.env.begin_op(DiskOp::Read, &self.path)?;
        self.with_file(|f| Ok(f.live.clone()))
    }

    fn write_all_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let fault = self.env.begin_op(DiskOp::Write(data.len()), &self.path)?;
        let keep = match fault {
            DiskFault::Torn(keep) => keep,
            _ => data.len(),
        };
        self.with_file(|f| {
            let start = offset as usize;
            if f.live.len() < start + keep {
                f.live.resize(start + keep, 0);
            }
            f.live[start..start + keep].copy_from_slice(&data[..keep]);
            Ok(())
        })?;
        if keep < data.len() {
            return Err(Error::io(format!(
                "chaos: torn write after {keep} of {} bytes ({})",
                data.len(),
                self.path.display()
            )));
        }
        Ok(())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.env.begin_op(DiskOp::Write(0), &self.path)?;
        self.with_file(|f| {
            f.live.resize(len as usize, 0);
            Ok(())
        })
    }

    /// Not an op (it consumes no index), but a dead device answers nothing.
    fn len(&self) -> Result<u64> {
        self.env.alive(&self.path)?;
        self.with_file(|f| Ok(f.live.len() as u64))
    }

    fn sync_data(&self) -> Result<()> {
        if self.env.begin_op(DiskOp::Sync, &self.path)? == DiskFault::LostSync {
            return Ok(()); // reported ok; durable bytes NOT promoted
        }
        self.with_file(|f| {
            f.durable = f.live.clone();
            Ok(())
        })
    }

    fn sync_all(&self) -> Result<()> {
        self.sync_data()
    }
}

impl StorageEnv for ChaosEnv {
    fn create(&self, path: &Path) -> Result<Box<dyn EnvFile>> {
        self.begin_op(DiskOp::Write(0), path)?;
        let mut fs = self.fs()?;
        fs.files.insert(path.to_path_buf(), MemFile::default());
        drop(fs);
        Ok(Box::new(ChaosFile {
            env: self.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn open_rw(&self, path: &Path) -> Result<Box<dyn EnvFile>> {
        self.begin_op(DiskOp::Meta, path)?;
        let mut fs = self.fs()?;
        fs.files.entry(path.to_path_buf()).or_default();
        drop(fs);
        Ok(Box::new(ChaosFile {
            env: self.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn open_read(&self, path: &Path) -> Result<Box<dyn EnvFile>> {
        self.begin_op(DiskOp::Meta, path)?;
        let fs = self.fs()?;
        if !fs.files.contains_key(path) {
            return Err(Error::io(format!("chaos: no such file {}", path.display())));
        }
        drop(fs);
        Ok(Box::new(ChaosFile {
            env: self.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        self.begin_op(DiskOp::Read, path)?;
        let fs = self.fs()?;
        Ok(fs.files.get(path).map(|f| f.live.clone()))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.begin_op(DiskOp::Meta, to)?;
        let mut fs = self.fs()?;
        let f = fs
            .files
            .remove(from)
            .ok_or_else(|| Error::io(format!("chaos: rename source missing {}", from.display())))?;
        // Namespace ops are modeled atomic + durable: the renamed bytes'
        // durability still tracks their own fsync history.
        fs.files.insert(to.to_path_buf(), f);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        self.begin_op(DiskOp::Meta, path)?;
        let mut fs = self.fs()?;
        if fs.files.remove(path).is_none() {
            return Err(Error::io(format!("chaos: no such file {}", path.display())));
        }
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.begin_op(DiskOp::Meta, path)?;
        let mut fs = self.fs()?;
        fs.dirs.insert(path.to_path_buf());
        Ok(())
    }

    fn read_dir(&self, path: &Path) -> Result<Vec<String>> {
        self.begin_op(DiskOp::Read, path)?;
        let fs = self.fs()?;
        let mut names: Vec<String> = fs
            .files
            .keys()
            .filter(|p| p.parent() == Some(path))
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        names.sort();
        Ok(names)
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        // Directory entries are durable on creation: only latency applies.
        self.begin_op(DiskOp::Meta, path)?;
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.fs()
            .map(|fs| fs.files.contains_key(path))
            .unwrap_or(false)
    }

    fn stats(&self) -> FaultStats {
        self.inner.plane.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRates;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn chaos_env_round_trips_files() {
        let env = ChaosEnv::new(FaultPlane::quiet(1));
        env.create_dir_all(&p("/d")).unwrap();
        let f = env.create(&p("/d/a")).unwrap();
        f.write_all_at(0, b"hello").unwrap();
        f.sync_data().unwrap();
        assert_eq!(f.read_all().unwrap(), b"hello");
        let mut buf = [0u8; 3];
        f.read_exact_at(1, &mut buf).unwrap();
        assert_eq!(&buf, b"ell");
        assert_eq!(env.read(&p("/d/a")).unwrap().unwrap(), b"hello");
        assert_eq!(env.read_dir(&p("/d")).unwrap(), vec!["a".to_string()]);
        env.rename(&p("/d/a"), &p("/d/b")).unwrap();
        assert!(!env.exists(&p("/d/a")));
        assert!(env.exists(&p("/d/b")));
        env.remove_file(&p("/d/b")).unwrap();
        assert!(env.read(&p("/d/b")).unwrap().is_none());
        assert_eq!(env.stats(), FaultStats::default());
    }

    #[test]
    fn crash_drops_unsynced_bytes_but_keeps_durable_ones() {
        let env = ChaosEnv::new(FaultPlane::quiet(7));
        let f = env.create(&p("/w")).unwrap();
        f.write_all_at(0, b"durable").unwrap();
        f.sync_data().unwrap();
        f.write_all_at(7, b"-lost").unwrap(); // never synced
        env.crash();
        let ops = env.op_count();
        assert!(f.read_all().is_err(), "dead env fails ops");
        assert!(
            matches!(f.len(), Err(Error::Io(_))),
            "dead env answers no stat"
        );
        assert_eq!(env.op_count(), ops + 1, "len consumes no op index");
        env.revive();
        let bytes = f.read_all().unwrap();
        assert!(
            bytes.len() >= 7 && bytes.starts_with(b"durable"),
            "{bytes:?}"
        );
        assert!(bytes.len() <= 12);
        assert_eq!(f.len().unwrap(), bytes.len() as u64);
        assert_eq!(env.stats().crashes, 1);
    }

    #[test]
    fn crash_points_kill_exactly_one_op_then_everything_after() {
        let env = ChaosEnv::new(FaultPlane::quiet(3));
        let f = env.create(&p("/x")).unwrap(); // op 0
        f.write_all_at(0, b"a").unwrap(); // op 1
        env.set_crash_point(2);
        assert!(f.write_all_at(1, b"b").is_err(), "op 2 is the crash point");
        assert!(f.sync_data().is_err(), "env stays dead");
        env.revive();
        env.set_crash_point(u64::MAX);
        assert!(f.read_all().is_ok());
    }

    #[test]
    fn disk_full_is_typed_storage_full_and_reads_keep_working() {
        let env = ChaosEnv::new(FaultPlane::quiet(5));
        let f = env.create(&p("/y")).unwrap();
        f.write_all_at(0, b"ok").unwrap();
        env.set_disk_full(true);
        match f.write_all_at(2, b"no") {
            Err(Error::StorageFull(_)) => {}
            other => panic!("expected StorageFull, got {other:?}"),
        }
        assert_eq!(f.read_all().unwrap(), b"ok", "reads serve during ENOSPC");
        env.set_disk_full(false);
        f.write_all_at(2, b"!!").unwrap();
        assert!(env.stats().enospc >= 1);
    }

    #[test]
    fn seeded_faults_replay_identically() {
        let run = |seed: u64| -> (Vec<bool>, FaultStats) {
            let env = ChaosEnv::new(FaultPlane::chaos(seed));
            let f = env.create(&p("/z")).unwrap_or_else(|_| {
                env.set_faults(false);
                let f = env.create(&p("/z")).unwrap();
                env.set_faults(true);
                f
            });
            let mut outcomes = Vec::new();
            for i in 0..200u64 {
                outcomes.push(f.write_all_at(i, &[i as u8]).is_ok());
                outcomes.push(f.read_all().is_ok());
                outcomes.push(f.sync_data().is_ok());
            }
            (outcomes, env.stats())
        };
        let (a, sa) = run(42);
        let (b, sb) = run(42);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(
            sa.disk_faults() > 0,
            "default mix injects something: {sa:?}"
        );
        let (c, _) = run(43);
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn lying_fsync_loses_bytes_at_the_next_crash() {
        let mut kept = Vec::new();
        for seed in 0..8u64 {
            // Every sync lies: written bytes never become durable.
            let rates = FaultRates { lost_sync: 1000, ..FaultRates::QUIET };
            let env = ChaosEnv::new(FaultPlane::new(seed, rates));
            let f = env.create(&p("/lie")).unwrap();
            f.write_all_at(0, b"gone").unwrap();
            f.sync_data().unwrap(); // lies
            assert_eq!(env.stats().lost_syncs, 1);
            env.crash();
            env.revive();
            // The durable promise was never made, so the crash keeps some
            // seeded prefix of the write...
            let bytes = f.read_all().unwrap();
            assert_eq!(bytes[..], b"gone"[..bytes.len().min(4)], "seed {seed}");
            // ...which is on the platter now: a second crash keeps it all.
            env.crash();
            env.revive();
            assert_eq!(f.read_all().unwrap(), bytes, "seed {seed}");
            kept.push(bytes.len());
        }
        assert!(
            kept.iter().any(|&n| n < 4),
            "some crash lost bytes: {kept:?}"
        );
    }

    #[test]
    fn real_env_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("decorr-env-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let env = RealEnv;
        let path = dir.join("real.bin");
        let f = env.create(&path).unwrap();
        f.write_all_at(0, b"0123456789").unwrap();
        f.sync_all().unwrap();
        assert_eq!(f.len().unwrap(), 10);
        let mut buf = [0u8; 4];
        f.read_exact_at(3, &mut buf).unwrap();
        assert_eq!(&buf, b"3456");
        f.set_len(5).unwrap();
        assert_eq!(f.read_all().unwrap(), b"01234");
        assert!(env.exists(&path));
        let names = env.read_dir(&dir).unwrap();
        assert!(names.contains(&"real.bin".to_string()));
        env.remove_file(&path).unwrap();
        assert_eq!(env.read(&path).unwrap(), None);
        assert_eq!(env.stats(), FaultStats::default());
    }
}
