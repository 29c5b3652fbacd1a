//! A minimal virtual filesystem seam for the store's durability paths.
//!
//! Every byte the store persists — checkpoint files and write-ahead-log
//! segments — flows through the [`Vfs`] trait instead of calling `std::fs`
//! directly. Production code uses [`StdVfs`] (a thin pass-through); the
//! crash harness in `speed-testkit` substitutes a fault-injecting
//! implementation that fails `fsync`/`rename`/appends at chosen points and
//! simulates a full disk, so every recovery path in [`crate::LogBackend`]
//! is exercised under deterministic filesystem failure.
//!
//! The API is path-based (no open handles): each call opens, acts, and
//! closes. That keeps fault injection exact — an injected failure maps to
//! one named operation — at a small cost in syscalls that the simulated
//! deployment does not care about.

use std::io;
use std::path::{Path, PathBuf};

/// Filesystem operations used by the store's persistence layers.
///
/// Durability contract expected from implementations:
///
/// - [`append`](Vfs::append) and [`write`](Vfs::write) make bytes visible
///   to subsequent reads but promise nothing about surviving power loss.
/// - [`fsync`](Vfs::fsync) makes a file's current contents durable.
/// - [`fsync_dir`](Vfs::fsync_dir) makes directory-entry changes (renames,
///   creations, removals) durable.
/// - [`rename`](Vfs::rename) is atomic with respect to crashes: observers
///   see either the old or the new binding, never a torn file.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Reads an entire file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error (including `NotFound`).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Creates (or truncates) `path` and writes `bytes` to it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Appends `bytes` to `path`, creating the file if missing.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Truncates `path` to exactly `len` bytes (used to cut a torn WAL
    /// tail before new appends land after it).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Forces the contents of `path` to durable storage.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn fsync(&self, path: &Path) -> io::Result<()>;

    /// Forces the directory entries of `dir` to durable storage, making a
    /// preceding rename/create/remove inside it power-loss durable.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Atomically renames `from` to `to` (same filesystem).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Creates `dir` and any missing parents.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Lists the entries of `dir` (files only, full paths, unsorted).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// The current length of `path` in bytes.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error (including `NotFound`).
    fn file_len(&self, path: &Path) -> io::Result<u64>;

    /// Whether `path` currently exists.
    fn exists(&self, path: &Path) -> bool;
}

/// The production [`Vfs`]: a direct pass-through to `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdVfs;

impl Vfs for StdVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut file =
            std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        file.write_all(bytes)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it is the portable
        // POSIX idiom for making renames inside it durable.
        std::fs::File::open(dir)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        Ok(out)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// The unit tests' [`Vfs`]: [`StdVfs`] that logs each durability step
/// (`write`, `fsync`, `rename` target, `fsync_dir`) and fails `fsync` while
/// `fail_fsync` is raised.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct TestVfs {
    pub(crate) ops: std::sync::Mutex<Vec<String>>,
    pub(crate) fail_fsync: std::sync::atomic::AtomicBool,
}

#[cfg(test)]
impl TestVfs {
    fn log(&self, op: &str, path: &Path) {
        self.ops.lock().unwrap().push(format!("{op} {}", path.display()));
    }
}

#[cfg(test)]
impl Vfs for TestVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdVfs.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.log("write", path);
        StdVfs.write(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        StdVfs.append(path, bytes)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        StdVfs.truncate(path, len)
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.log("fsync", path);
        if self.fail_fsync.load(std::sync::atomic::Ordering::Relaxed) {
            return Err(io::Error::other("injected fsync failure"));
        }
        StdVfs.fsync(path)
    }
    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.log("fsync_dir", dir);
        StdVfs.fsync_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.log("rename", to);
        StdVfs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        StdVfs.remove_file(path)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        StdVfs.create_dir_all(dir)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        StdVfs.list_dir(dir)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        StdVfs.file_len(path)
    }
    fn exists(&self, path: &Path) -> bool {
        StdVfs.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(label: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("speed-vfs-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_vfs_roundtrip() {
        let dir = scratch("roundtrip");
        let vfs = StdVfs;
        let path = dir.join("a.bin");
        vfs.write(&path, b"hello").unwrap();
        vfs.append(&path, b" world").unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        assert_eq!(vfs.file_len(&path).unwrap(), 11);
        vfs.truncate(&path, 5).unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello");
        vfs.fsync(&path).unwrap();
        vfs.fsync_dir(&dir).unwrap();
        let moved = dir.join("b.bin");
        vfs.rename(&path, &moved).unwrap();
        assert!(!vfs.exists(&path));
        assert!(vfs.exists(&moved));
        let listed = vfs.list_dir(&dir).unwrap();
        assert_eq!(listed, vec![moved.clone()]);
        vfs.remove_file(&moved).unwrap();
        assert!(vfs.list_dir(&dir).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_creates_missing_file() {
        let dir = scratch("append");
        let vfs = StdVfs;
        let path = dir.join("log");
        vfs.append(&path, b"x").unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"x");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
