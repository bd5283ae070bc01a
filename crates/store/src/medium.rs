//! One storage abstraction for every byte the system persists or spills.
//!
//! WAL segments, single-file WALs, checkpoint blobs and the cold tier's
//! spill are all *named byte objects* on a [`Medium`]: appended to, read
//! whole or at an offset, overwritten in place, cut short, synced,
//! atomically renamed, removed and listed. Each layer keeps its own
//! naming (`wal-{epoch:08x}-{seq:08x}.idbw`, `checkpoint-N.idbc`, the
//! spill object) and its own protocol on top; the medium only stores
//! bytes.
//!
//! There are exactly three media: [`MemMedium`] (the reference the crash
//! suites slice and snapshot), [`FsMedium`] (production files) and the
//! fault-injecting medium in `idb-synth`. Every medium is shared by
//! clone: clones address the same objects, so a test can keep a handle
//! to the bytes a maintainer writes.
//!
//! # Durability
//!
//! Appends and writes may sit in volatile caches until
//! [`Medium::sync`], which makes an object's content **and its name**
//! durable. [`Medium::rename`] is atomic — readers see the old `to` or
//! the new one, never a mix — but the new name is only durable after a
//! `sync` of `to`. Layers that delete data covered by another object
//! (WAL compaction, a resume truncating the old epoch) sync the covering
//! object first.

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Named byte objects on a storage device (see the module docs).
///
/// A missing object reads as [`io::ErrorKind::NotFound`] but truncates to
/// zero and removes as no-ops, so cleanup paths are idempotent.
pub trait Medium: Send + Sync + fmt::Debug {
    /// Appends `bytes` to object `name`, creating it when missing. A
    /// failure may leave a *prefix* of `bytes` written (a short write).
    ///
    /// # Errors
    /// Whatever the device reports.
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// The whole content of object `name`.
    ///
    /// # Errors
    /// [`io::ErrorKind::NotFound`] when the object does not exist;
    /// otherwise whatever the device reports.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Fills `buf` from `offset` of object `name`.
    ///
    /// # Errors
    /// [`io::ErrorKind::UnexpectedEof`] when the object ends before `buf`
    /// is full; otherwise as [`Medium::read`].
    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Writes `data` at `offset` of object `name`, creating the object and
    /// zero-filling any gap as needed.
    ///
    /// # Errors
    /// Whatever the device reports.
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Cuts object `name` to `len` bytes.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] when `len` exceeds the object's
    /// size — a caller's bookkeeping error, reported rather than clamped;
    /// otherwise whatever the device reports.
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;

    /// Makes the content of object `name` and its directory entry
    /// durable.
    ///
    /// # Errors
    /// [`io::ErrorKind::NotFound`] when the object does not exist;
    /// otherwise whatever the device reports.
    fn sync(&self, name: &str) -> io::Result<()>;

    /// Atomically replaces object `to` with object `from`. Until this
    /// returns, readers of `to` see its old content.
    ///
    /// # Errors
    /// [`io::ErrorKind::NotFound`] when `from` does not exist; otherwise
    /// whatever the device reports.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;

    /// Removes object `name`, returning the bytes it held (0 when it did
    /// not exist).
    ///
    /// # Errors
    /// Whatever the device reports.
    fn remove(&self, name: &str) -> io::Result<u64>;

    /// The names of every object, in any order.
    ///
    /// # Errors
    /// Whatever the device reports.
    fn list(&self) -> io::Result<Vec<String>>;
}

fn not_found(name: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("object {name:?}"))
}

fn truncate_beyond(len: u64, size: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("truncate to {len} beyond current size {size}"),
    )
}

fn offset_to_usize(offset: u64) -> io::Result<usize> {
    usize::try_from(offset).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("offset {offset} exceeds the address space"),
        )
    })
}

/// The objects of an in-memory medium, by name.
pub type MemObjects = BTreeMap<String, Vec<u8>>;

/// An in-memory [`Medium`]. Everything written is immediately "durable",
/// so a crash at any moment is a [`MemMedium::snapshot`]: the crash
/// suites copy the exact object population at every boundary, restore
/// it into a fresh medium, and recover from it.
#[derive(Debug, Clone, Default)]
pub struct MemMedium {
    objects: Arc<Mutex<MemObjects>>,
}

impl MemMedium {
    /// An empty medium.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, MemObjects> {
        self.objects.lock().expect("medium lock poisoned")
    }

    /// A deep, independent copy (a crash-point snapshot): later writes to
    /// either medium are invisible to the other.
    #[must_use]
    pub fn snapshot(&self) -> Self {
        Self {
            objects: Arc::new(Mutex::new(self.objects())),
        }
    }

    /// A copy of every object's bytes.
    #[must_use]
    pub fn objects(&self) -> MemObjects {
        self.lock().clone()
    }

    /// Total bytes across all objects.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.lock().values().map(|b| b.len() as u64).sum()
    }
}

impl Medium for MemMedium {
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut objects = self.lock();
        match objects.get_mut(name) {
            Some(data) => data.extend_from_slice(bytes),
            None => drop(objects.insert(name.to_owned(), bytes.to_vec())),
        }
        Ok(())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.lock()
            .get(name)
            .cloned()
            .ok_or_else(|| not_found(name))
    }

    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let objects = self.lock();
        let data = objects.get(name).ok_or_else(|| not_found(name))?;
        let start = offset_to_usize(offset)?;
        match start.checked_add(buf.len()).filter(|&e| e <= data.len()) {
            Some(end) => {
                buf.copy_from_slice(&data[start..end]);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "short read: {} bytes at {offset} but {name:?} holds {}",
                    buf.len(),
                    data.len()
                ),
            )),
        }
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> io::Result<()> {
        let start = offset_to_usize(offset)?;
        let mut objects = self.lock();
        if !objects.contains_key(name) {
            objects.insert(name.to_owned(), Vec::new());
        }
        let vec = objects.get_mut(name).expect("present");
        let end = start + data.len();
        if vec.len() < end {
            vec.resize(end, 0);
        }
        vec[start..end].copy_from_slice(data);
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut objects = self.lock();
        let size = objects.get(name).map_or(0, |data| data.len() as u64);
        if len > size {
            return Err(truncate_beyond(len, size));
        }
        if let Some(data) = objects.get_mut(name) {
            data.truncate(offset_to_usize(len)?);
        }
        Ok(())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        if self.lock().contains_key(name) {
            Ok(())
        } else {
            Err(not_found(name))
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut objects = self.lock();
        let data = objects.remove(from).ok_or_else(|| not_found(from))?;
        objects.insert(to.to_owned(), data);
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<u64> {
        Ok(self.lock().remove(name).map_or(0, |b| b.len() as u64))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.lock().keys().cloned().collect())
    }
}

/// Whether two object names are equal, compared byte by byte. The cold
/// spill is object `""` and is looked up once per record read; `==` on an
/// empty `String` calls `memcmp` on a dangling pointer, which cost 130–140
/// ns per call on 2-vCPU x86-64 Linux, and made stackbench's
/// `fsync_tiered` `batch_tail_ms` 11–25 % worse in each of five seeds.
fn same_name(a: &str, b: &str) -> bool {
    a.len() == b.len() && a.bytes().eq(b.bytes())
}

/// Files an [`FsMedium`] keeps open: enough for an active WAL segment, a
/// checkpoint being staged and a spill, few enough that sealed segments
/// and published checkpoints hold no descriptors for long.
const OPEN_FILES: usize = 4;

/// The shared state of an [`FsMedium`]: its prefix and its open files.
#[derive(Debug)]
struct FsInner {
    dir: PathBuf,
    stem: OsString,
    files: Mutex<Files>,
}

#[derive(Debug, Default)]
struct Files {
    /// Open handles, most recently used first, at most [`OPEN_FILES`]. A
    /// rename or a remove closes the handles of the names involved.
    open: Vec<(String, File)>,
    /// Whether an entry was created, renamed or removed since the
    /// directory was last synced.
    dir_dirty: bool,
}

/// A file-backed [`Medium`]: object `name` lives at `{prefix}{name}`.
///
/// [`FsMedium::open`] makes a directory the prefix (`dir/` + name: the
/// segment chain and checkpoint layouts); [`FsMedium::create`] makes a
/// single file's path the prefix, so object `""` is that file and `".tmp"`
/// its staging sibling (the single-file WAL and the cold spill). Handles
/// are opened on first use and shared by every clone; positioned reads
/// and writes use `pread`/`pwrite`. [`Medium::sync`] also fsyncs the
/// directory when an entry changed since the directory's last sync.
#[derive(Debug, Clone)]
pub struct FsMedium {
    inner: Arc<FsInner>,
}

impl FsMedium {
    /// Uses (creating if needed) directory `dir`: object `name` is the
    /// file `dir/name`.
    ///
    /// # Errors
    /// Whatever the filesystem reports.
    pub fn open<P: AsRef<Path>>(dir: P) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        Ok(Self::with_prefix(
            dir.as_ref().to_path_buf(),
            OsString::new(),
        ))
    }

    /// Creates (or truncates) the file at `path` and uses `path` itself as
    /// the prefix: object `""` is that file.
    ///
    /// # Errors
    /// Whatever the filesystem reports.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref();
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let stem = path.file_name().map(OsString::from).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{} names no file", path.display()),
            )
        })?;
        File::create(path)?;
        let medium = Self::with_prefix(dir, stem);
        medium.files().dir_dirty = true;
        Ok(medium)
    }

    fn with_prefix(dir: PathBuf, stem: OsString) -> Self {
        Self {
            inner: Arc::new(FsInner {
                dir,
                stem,
                files: Mutex::default(),
            }),
        }
    }

    /// The file object `name` lives in.
    fn path(&self, name: &str) -> PathBuf {
        let mut file = self.inner.stem.clone();
        file.push(name);
        self.inner.dir.join(file)
    }

    fn files(&self) -> MutexGuard<'_, Files> {
        self.inner.files.lock().expect("medium lock poisoned")
    }

    /// Runs `op` on the shared handle of object `name`, opening (when
    /// `create`, creating) the file first.
    fn with_file<T>(
        &self,
        name: &str,
        create: bool,
        op: impl FnOnce(&File) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut files = self.files();
        if let Some(i) = files.open.iter().position(|(n, _)| same_name(n, name)) {
            files.open[..=i].rotate_right(1);
            return op(&files.open[0].1);
        }
        let mut options = OpenOptions::new();
        options.read(true).write(true).create(create);
        let path = self.path(name);
        // A file this call creates is a new directory entry.
        if create && !files.dir_dirty {
            files.dir_dirty = !path.exists();
        }
        let file = options.open(&path)?;
        files.open.truncate(OPEN_FILES - 1);
        files.open.insert(0, (name.to_owned(), file));
        op(&files.open[0].1)
    }
}

impl Medium for FsMedium {
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.with_file(name, true, |mut file| {
            file.seek(SeekFrom::End(0))?;
            file.write_all(bytes)
        })
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.path(name))
    }

    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.with_file(name, false, |file| file.read_exact_at(buf, offset))
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> io::Result<()> {
        self.with_file(name, true, |file| file.write_all_at(data, offset))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let result = self.with_file(name, false, |file| {
            let size = file.metadata()?.len();
            if len > size {
                return Err(truncate_beyond(len, size));
            }
            file.set_len(len)
        });
        match result {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                if len == 0 {
                    Ok(())
                } else {
                    Err(truncate_beyond(len, 0))
                }
            }
            other => other,
        }
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        self.with_file(name, false, File::sync_data)?;
        let mut files = self.files();
        if files.dir_dirty {
            File::open(&self.inner.dir)?.sync_all()?;
            files.dir_dirty = false;
        }
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut files = self.files();
        fs::rename(self.path(from), self.path(to))?;
        files
            .open
            .retain(|(n, _)| !same_name(n, from) && !same_name(n, to));
        files.dir_dirty = true;
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<u64> {
        let mut files = self.files();
        files.open.retain(|(n, _)| !same_name(n, name));
        let path = self.path(name);
        match fs::metadata(&path) {
            Ok(meta) => {
                fs::remove_file(&path)?;
                files.dir_dirty = true;
                Ok(meta.len())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let stem = self.inner.stem.to_str().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "medium prefix is not UTF-8")
        })?;
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.inner.dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            if let Some(name) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.strip_prefix(stem))
            {
                names.push(name.to_owned());
            }
        }
        Ok(names)
    }
}
