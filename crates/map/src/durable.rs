//! Crash-safe storage primitives for the map service's durability layer
//! — and the deterministic fault harness that proves them.
//!
//! Everything the WAL and checkpoint machinery does to disk goes
//! through two small traits, [`DurableFile`] (an append-only log
//! handle) and [`DurableDir`] (a flat directory of named blobs with an
//! atomic-publish primitive). [`RealDir`] is the production
//! implementation; [`FaultyDir`] wraps any implementation and injects
//! I/O errors, short writes, and panics at scripted operation indices
//! from a seeded [`FaultPlan`], so crash-recovery tests replay the
//! exact same failure point every run.
//!
//! This module is the workspace's single home for library-code
//! `std::fs` writes (lint rule L7): higher layers express *what* to
//! persist, this layer owns *how* bytes become durable.
//!
//! Atomicity rules:
//!
//! - Blob publication ([`DurableDir::write_atomic`]) is temp file →
//!   `fsync` → rename → directory `fsync`. A crash leaves either the
//!   old state or the new file, never a half-written visible blob;
//!   stale `.tmp-` files are ignored (and garbage-collected) by
//!   recovery.
//! - Log appends ([`DurableFile::append`] + [`DurableFile::sync`]) may
//!   tear at the end: recovery tolerates a torn final record by
//!   construction (CRC framing, see the `wal` module).

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// When to cut a durable checkpoint of the serving map.
///
/// Configured through
/// [`MapBuilder::durability`](crate::MapBuilder::durability); the WAL
/// runs under either policy, so no acknowledged scan is ever lost —
/// the policy only controls how much WAL replay a recovery pays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// Checkpoint after every `n` published epochs (`n >= 1`). The
    /// checkpoint serializes a pinned snapshot on a dedicated thread;
    /// the writer keeps ingesting meanwhile.
    EveryNEpochs(u32),
    /// Checkpoint only on explicit
    /// [`MapService::checkpoint`](crate::MapService::checkpoint) calls.
    Manual,
}

/// An append-only durable log handle (one WAL segment).
pub trait DurableFile: Send {
    /// Appends `data` at the end of the file. A crash (or injected
    /// fault) may persist any prefix.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;

    /// Forces appended bytes to stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// A flat directory of named durable blobs — the storage surface the
/// WAL and checkpoint code is written against.
///
/// Implementations must be shareable across the writer and checkpoint
/// threads (`Send + Sync`); [`RealDir`] is the production one and
/// [`FaultyDir`] the fault-injecting test wrapper.
pub trait DurableDir: fmt::Debug + Send + Sync {
    /// Publishes `bytes` under `name` crash-atomically: after this
    /// returns, the blob is durable; if it fails (or the process dies),
    /// readers see either the previous version or nothing.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Opens (creating if absent) `name` for appending.
    fn open_append(&self, name: &str) -> io::Result<Box<dyn DurableFile>>;

    /// Reads the full contents of `name`.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Lists the blob names currently present.
    fn list(&self) -> io::Result<Vec<String>>;

    /// Removes `name` (used by checkpoint garbage collection).
    fn remove(&self, name: &str) -> io::Result<()>;
}

/// Prefix of in-flight atomic writes; recovery ignores and GCs these.
pub(crate) const TMP_PREFIX: &str = ".tmp-";

/// [`DurableDir`] over a real filesystem directory.
///
/// Created by [`MapBuilder::durability`](crate::MapBuilder::durability)
/// or [`RealDir::create`]; the directory is created on first use.
#[derive(Debug)]
pub struct RealDir {
    root: PathBuf,
}

impl RealDir {
    /// Opens `root` as a durable directory, creating it (and parents)
    /// if missing.
    ///
    /// # Errors
    ///
    /// Returns the underlying filesystem error if the directory cannot
    /// be created.
    pub fn create<P: Into<PathBuf>>(root: P) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(RealDir { root })
    }

    /// Best-effort fsync of the directory entry itself, so a completed
    /// rename survives power loss. Directory handles cannot be synced
    /// on every platform; failures there are ignored by design.
    fn sync_dir(&self) {
        if let Ok(dir) = fs::File::open(&self.root) {
            let _ = dir.sync_all();
        }
    }
}

/// An append handle on one file of a [`RealDir`].
struct RealFile {
    file: fs::File,
}

impl DurableFile for RealFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.file.write_all(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

impl DurableDir for RealDir {
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.root.join(format!("{TMP_PREFIX}{name}"));
        let dst = self.root.join(name);
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, &dst)?;
        self.sync_dir();
        Ok(())
    }

    fn open_append(&self, name: &str) -> io::Result<Box<dyn DurableFile>> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.root.join(name))?;
        Ok(Box::new(RealFile { file }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.root.join(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if let Ok(name) = entry.file_name().into_string() {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        fs::remove_file(self.root.join(name))
    }
}

/// What a scripted fault does when its operation index is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The operation fails with an injected `io::Error`; nothing is
    /// written.
    Error,
    /// An append persists only a prefix of its bytes, then fails —
    /// the torn-write shape a power cut produces. (On non-append
    /// operations this behaves like [`FaultKind::Error`].)
    ShortWrite,
    /// The operation panics, killing the calling thread — the harness
    /// for "the writer died mid-batch".
    Panic,
}

/// A deterministic schedule of storage faults: `(operation index,
/// fault)` pairs over the sequence of mutating [`DurableDir`] /
/// [`DurableFile`] operations.
///
/// An index counts each call: every `append`, `sync`, `write_atomic`
/// and `remove`. The WAL writes a record through a 64 KiB buffer, one
/// `append` per full buffer and then one `sync`, so a record up to
/// 64 KiB (a 24-point scan's is 624 bytes) costs two indices and a
/// larger one an extra index per further 64 KiB.
///
/// Built explicitly with [`FaultPlan::fail_at`] or derived from a seed
/// with [`FaultPlan::seeded`], and applied by wrapping a store in a
/// [`FaultyDir`].
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultPlan {
    faults: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault at mutating-operation index `op` (0-based).
    #[must_use]
    pub fn fail_at(mut self, op: u64, kind: FaultKind) -> Self {
        self.faults.push((op, kind));
        self
    }

    /// Derives a one-fault plan from `seed`: a pseudo-random fault kind
    /// at a pseudo-random operation index in `[0, horizon)`. The same
    /// seed always yields the same plan.
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        let mut state = seed;
        let op = splitmix64(&mut state) % horizon.max(1);
        let kind = match splitmix64(&mut state) % 3 {
            0 => FaultKind::Error,
            1 => FaultKind::ShortWrite,
            _ => FaultKind::Panic,
        };
        FaultPlan::new().fail_at(op, kind)
    }

    /// The fault scheduled at `op`, if any.
    fn fault_for(&self, op: u64) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|&&(at, _)| at == op)
            .map(|&(_, kind)| kind)
    }
}

/// One splitmix64 step — a tiny dependency-free PRNG for seed-derived
/// schedules.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shared fault cursor: one counter across every file and directory
/// operation of a [`FaultyDir`], so a plan's operation indices refer to
/// one global schedule.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    next_op: Mutex<u64>,
}

impl FaultState {
    /// Claims the next operation index and returns its scheduled fault.
    /// Panics here (not in the caller) when the fault is
    /// [`FaultKind::Panic`].
    fn advance(&self, what: &str) -> io::Result<Option<FaultKind>> {
        let mut next = lock_unpoisoned(&self.next_op);
        let op = *next;
        *next += 1;
        drop(next);
        match self.plan.fault_for(op) {
            Some(FaultKind::Panic) => {
                // omu-lint: allow(no-panic) — the entire point of this arm is
                // to kill the calling thread at a scripted instant; the crash
                // harness asserts the service recovers from exactly this.
                panic!("injected fault: scripted panic at storage op {op} ({what})")
            }
            Some(FaultKind::Error) => Err(injected(op, what)),
            other => Ok(other),
        }
    }
}

/// The injected-fault error shape; tests match on the message prefix.
fn injected(op: u64, what: &str) -> io::Error {
    io::Error::other(format!("injected fault at storage op {op} ({what})"))
}

/// A [`DurableDir`] wrapper that injects the faults scripted in a
/// [`FaultPlan`] — deterministic storage-level chaos for crash tests.
///
/// Only mutating operations (`write_atomic`, `append`, `sync`,
/// `remove`) consume operation indices; reads and listings pass
/// through untouched.
#[derive(Debug)]
pub struct FaultyDir {
    inner: Arc<dyn DurableDir>,
    state: Arc<FaultState>,
}

impl FaultyDir {
    /// Wraps `inner`, injecting the faults scripted in `plan`.
    pub fn new(inner: Arc<dyn DurableDir>, plan: FaultPlan) -> Self {
        FaultyDir {
            inner,
            state: Arc::new(FaultState {
                plan,
                next_op: Mutex::new(0),
            }),
        }
    }

    /// Number of mutating operations attempted so far (for calibrating
    /// fault horizons in tests).
    pub fn ops_attempted(&self) -> u64 {
        *lock_unpoisoned(&self.state.next_op)
    }
}

/// An append handle whose operations run through the shared fault
/// cursor.
struct FaultyFile {
    inner: Box<dyn DurableFile>,
    state: Arc<FaultState>,
}

impl DurableFile for FaultyFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        match self.state.advance("append")? {
            Some(FaultKind::ShortWrite) => {
                // Persist a strict prefix, then fail — the torn tail a
                // power cut leaves behind.
                self.inner.append(&data[..data.len() / 2])?;
                Err(io::Error::other("injected fault: short append"))
            }
            _ => self.inner.append(data),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        match self.state.advance("sync")? {
            // A short write on sync degenerates to a plain failure.
            Some(_) => Err(io::Error::other("injected fault: sync failed")),
            None => self.inner.sync(),
        }
    }
}

impl DurableDir for FaultyDir {
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        match self.state.advance("write_atomic")? {
            // Atomic publication cannot tear into a *visible* blob —
            // the temp file simply never gets renamed — so a short
            // write surfaces as a plain failure with nothing published.
            Some(_) => Err(io::Error::other("injected fault: atomic write failed")),
            None => self.inner.write_atomic(name, bytes),
        }
    }

    fn open_append(&self, name: &str) -> io::Result<Box<dyn DurableFile>> {
        Ok(Box::new(FaultyFile {
            inner: self.inner.open_append(name)?,
            state: Arc::clone(&self.state),
        }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        match self.state.advance("remove")? {
            Some(_) => Err(io::Error::other("injected fault: remove failed")),
            None => self.inner.remove(name),
        }
    }
}

/// Recover a poisoned lock: the fault cursor is a single counter whose
/// critical sections cannot leave it inconsistent, and injected panics
/// (the one expected unwind source) happen after the guard drops.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    /// Extracts a panic payload's message (test-local mirror of
    /// `omu_pool::TaskPanic`'s extraction).
    fn payload_message(payload: &(dyn Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panicked with a non-string payload".to_owned()
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("omu_durable_{tag}_{}", std::process::id()))
    }

    #[test]
    fn real_dir_atomic_write_roundtrips_and_lists() {
        let root = temp_root("atomic");
        let dir = RealDir::create(&root).unwrap();
        dir.write_atomic("a.blob", b"hello").unwrap();
        dir.write_atomic("a.blob", b"hello again").unwrap();
        assert_eq!(dir.read("a.blob").unwrap(), b"hello again");
        assert_eq!(dir.list().unwrap(), vec!["a.blob".to_owned()]);
        dir.remove("a.blob").unwrap();
        assert!(dir.list().unwrap().is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn real_dir_append_accumulates() {
        let root = temp_root("append");
        let dir = RealDir::create(&root).unwrap();
        let mut f = dir.open_append("log").unwrap();
        f.append(b"one").unwrap();
        f.sync().unwrap();
        f.append(b"two").unwrap();
        f.sync().unwrap();
        drop(f);
        // Reopening appends, never truncates.
        let mut f = dir.open_append("log").unwrap();
        f.append(b"three").unwrap();
        f.sync().unwrap();
        assert_eq!(dir.read("log").unwrap(), b"onetwothree");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        assert_eq!(FaultPlan::seeded(7, 64), FaultPlan::seeded(7, 64));
        let distinct = (0..32)
            .map(|s| FaultPlan::seeded(s, 64))
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert!(distinct > 16, "seeds barely vary the plan: {distinct}/32");
    }

    #[test]
    fn injected_error_fires_at_the_scripted_op_only() {
        let root = temp_root("fault_err");
        let real: Arc<dyn DurableDir> = Arc::new(RealDir::create(&root).unwrap());
        let dir = FaultyDir::new(real, FaultPlan::new().fail_at(1, FaultKind::Error));
        dir.write_atomic("ok.blob", b"fine").unwrap(); // op 0
        let e = dir.write_atomic("bad.blob", b"nope").unwrap_err(); // op 1
        assert!(e.to_string().contains("injected fault"), "{e}");
        dir.write_atomic("ok2.blob", b"fine").unwrap(); // op 2
        assert_eq!(dir.ops_attempted(), 3);
        assert_eq!(dir.read("ok.blob").unwrap(), b"fine");
        assert!(dir.read("bad.blob").is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn short_append_persists_a_strict_prefix() {
        let root = temp_root("fault_short");
        let real: Arc<dyn DurableDir> = Arc::new(RealDir::create(&root).unwrap());
        let dir = FaultyDir::new(real, FaultPlan::new().fail_at(0, FaultKind::ShortWrite));
        let mut f = dir.open_append("log").unwrap();
        let e = f.append(b"0123456789").unwrap_err();
        assert!(e.to_string().contains("short append"), "{e}");
        assert_eq!(dir.read("log").unwrap(), b"01234");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scripted_panic_fires() {
        let root = temp_root("fault_panic");
        let real: Arc<dyn DurableDir> = Arc::new(RealDir::create(&root).unwrap());
        let dir = FaultyDir::new(real, FaultPlan::new().fail_at(0, FaultKind::Panic));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = dir.write_atomic("x", b"y");
        }));
        let msg = payload_message(caught.unwrap_err().as_ref());
        assert!(msg.contains("scripted panic"), "{msg}");
        let _ = fs::remove_dir_all(&root);
    }
}
