//! The one file-system seam: every persistence file operation — the WAL
//! writer, snapshot install, truncation, the scans and recovery's
//! directory creation — goes through [`FileSystem`].
//!
//! [`StdFs`] calls `std::fs` and is what a gateway runs on. The
//! simulated disk ([`crate::sim::SimDisk`]) keeps durable and volatile
//! state apart under a conservative crash model, records the operation
//! trace, and fails syncs on request; the crash, chaos and kill/restart
//! suites take their faults from it.
//!
//! The seam is deliberately small: open (creating), write at an offset,
//! `set_len`, `sync_all`, rename, directory sync, read, list and
//! create-dir. A file's bytes are durable once its `sync_all` returns; a
//! create or rename is durable once its directory's [`FileSystem::sync_dir`]
//! returns — the rule the journal's directory syncs follow.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The file operations persistence needs.
pub trait FileSystem: Send + Sync {
    /// Opens `path` for writing, creating it empty if absent; an existing
    /// file keeps its bytes.
    fn open(&self, path: &Path) -> io::Result<Box<dyn FileHandle>>;
    /// The whole content of `path` (`NotFound` if absent).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// The paths of `dir`'s entries, in no particular order (`NotFound`
    /// if `dir` is absent).
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Atomically renames the file `from` to `to`, replacing `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Makes the creates and renames in `dir` durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
}

/// An open file of a [`FileSystem`].
pub trait FileHandle: Send + Sync {
    /// Writes all of `bytes` at `offset`, extending the file if needed.
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()>;
    /// Truncates or zero-extends the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Makes the file's bytes and length durable.
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The directory holding `path`, `.` for a bare file name.
pub fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// The real file system.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

impl FileSystem for StdFs {
    fn open(&self, path: &Path) -> io::Result<Box<dyn FileHandle>> {
        // truncate(false): an existing log's valid prefix must survive
        // reopening.
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        Ok(Box::new(file))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::read_dir(dir)?.map(|entry| Ok(entry?.path())).collect()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
}

impl FileHandle for File {
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.seek(SeekFrom::Start(offset))?;
        self.write_all(bytes)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        File::sync_all(self)
    }
}
