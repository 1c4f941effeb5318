//! `vfscore`: mount table, path resolution, dentry cache, fd table.
//!
//! This is the layer the paper's Figure 22 removes for its specialized
//! web cache: every `open()` here walks path components through the
//! dentry cache, resolves the mount, and allocates a file descriptor —
//! real work that the SHFS direct path skips.

use std::collections::HashMap;

use ukplat::{Errno, Result};

/// Inode number within a filesystem.
pub(crate) type Ino = u64;

/// A file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub usize);

/// Kind of a directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// ukcheck: allow(unused-pub) -- what the public `FileSystem::lookup` returns
pub enum NodeKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

/// The filesystem interface `vfscore` multiplexes over.
///
/// Paths are relative to the filesystem root, with no leading slash.
pub trait FileSystem {
    /// Filesystem type name (e.g. "ramfs", "9pfs").
    fn fs_name(&self) -> &'static str;

    /// Resolves a path to an inode.
    fn lookup(&mut self, path: &str) -> Result<(Ino, NodeKind)>;

    /// Creates (or truncates) a regular file.
    fn create(&mut self, path: &str) -> Result<Ino>;

    /// Reads up to `len` bytes at `off`.
    fn read(&mut self, ino: Ino, off: u64, len: usize) -> Result<Vec<u8>>;

    /// Writes `data` at `off`, returning bytes written.
    fn write(&mut self, ino: Ino, off: u64, data: &[u8]) -> Result<usize>;

    /// File size.
    fn size(&mut self, ino: Ino) -> Result<u64>;

    /// Removes a file.
    fn unlink(&mut self, path: &str) -> Result<()>;

    /// Creates a directory.
    fn mkdir(&mut self, path: &str) -> Result<()>;

    /// Lists a directory.
    fn readdir(&mut self, path: &str) -> Result<Vec<String>>;
}

#[derive(Debug, Clone, Copy)]
struct OpenFile {
    mount: usize,
    ino: Ino,
    offset: u64,
}

struct Mount {
    prefix: String,
    fs: Box<dyn FileSystem>,
}

/// The VFS: mounts, dentry cache, fd table.
pub struct Vfs {
    mounts: Vec<Mount>,
    /// Dentry cache: absolute path → (mount idx, inode, kind).
    dcache: HashMap<String, (usize, Ino, NodeKind)>,
    fds: Vec<Option<OpenFile>>,
    max_fds: usize,
}

impl std::fmt::Debug for Vfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vfs")
            .field("mounts", &self.mounts.len())
            .field("dcache_entries", &self.dcache.len())
            .finish()
    }
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// Creates an empty VFS with the default fd limit (1024, like the
    /// paper's tuned server configs).
    pub fn new() -> Self {
        Vfs {
            mounts: Vec::new(),
            dcache: HashMap::new(),
            fds: Vec::new(),
            max_fds: 1024,
        }
    }

    /// Mounts `fs` at `prefix` (e.g. "/", "/data").
    pub fn mount(&mut self, prefix: &str, fs: Box<dyn FileSystem>) -> Result<()> {
        if !prefix.starts_with('/') {
            return Err(Errno::Inval);
        }
        if self.mounts.iter().any(|m| m.prefix == prefix) {
            return Err(Errno::Busy);
        }
        self.mounts.push(Mount {
            prefix: prefix.to_string(),
            fs,
        });
        // Longest prefix first for resolution.
        self.mounts
            .sort_by_key(|m| std::cmp::Reverse(m.prefix.len()));
        self.dcache.clear();
        Ok(())
    }

    /// Resolves an absolute path to (mount index, fs-relative path).
    fn resolve_mount<'a>(&self, path: &'a str) -> Result<(usize, &'a str)> {
        if !path.starts_with('/') {
            return Err(Errno::Inval);
        }
        for (i, m) in self.mounts.iter().enumerate() {
            let p = &m.prefix;
            if path == p {
                return Ok((i, ""));
            }
            let matches = if p == "/" {
                true
            } else {
                path.starts_with(p.as_str())
                    && path.as_bytes().get(p.len()) == Some(&b'/')
            };
            if matches {
                let rel = if p == "/" { &path[1..] } else { &path[p.len() + 1..] };
                return Ok((i, rel));
            }
        }
        Err(Errno::NoEnt)
    }

    /// The path walk: checks the dentry cache component by component,
    /// falling back to filesystem lookups. This is the per-`open` work
    /// Figure 22's specialization removes.
    fn walk(&mut self, path: &str) -> Result<(usize, Ino, NodeKind)> {
        if let Some(&hit) = self.dcache.get(path) {
            return Ok(hit);
        }
        let (mi, rel) = self.resolve_mount(path)?;
        // Walk intermediate components so each lands in the dcache,
        // mirroring a real dentry-by-dentry walk.
        let mut consumed = String::from(&self.mounts[mi].prefix);
        if consumed == "/" {
            consumed.clear();
        }
        if !rel.is_empty() {
            let comps: Vec<&str> = rel.split('/').collect();
            for (n, c) in comps.iter().enumerate() {
                consumed.push('/');
                consumed.push_str(c);
                if self.dcache.contains_key(consumed.as_str()) {
                    continue;
                }
                let sub = comps[..=n].join("/");
                let (ino, kind) = self.mounts[mi].fs.lookup(&sub)?;
                self.dcache.insert(consumed.clone(), (mi, ino, kind));
            }
        }
        let (ino, kind) = self.mounts[mi].fs.lookup(rel)?;
        let entry = (mi, ino, kind);
        self.dcache.insert(path.to_string(), entry);
        Ok(entry)
    }

    fn alloc_fd(&mut self, of: OpenFile) -> Result<Fd> {
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(of);
                return Ok(Fd(i));
            }
        }
        if self.fds.len() >= self.max_fds {
            return Err(Errno::MFile);
        }
        self.fds.push(Some(of));
        Ok(Fd(self.fds.len() - 1))
    }

    fn file(&mut self, fd: Fd) -> Result<&mut OpenFile> {
        self.fds
            .get_mut(fd.0)
            .and_then(|s| s.as_mut())
            .ok_or(Errno::BadF)
    }

    /// Opens an existing file.
    pub fn open(&mut self, path: &str) -> Result<Fd> {
        let (mi, ino, kind) = self.walk(path)?;
        if kind == NodeKind::Dir {
            return Err(Errno::IsDir);
        }
        self.alloc_fd(OpenFile {
            mount: mi,
            ino,
            offset: 0,
        })
    }

    /// Creates (or truncates) and opens a file.
    pub fn create(&mut self, path: &str) -> Result<Fd> {
        let (mi, rel) = self.resolve_mount(path)?;
        let ino = self.mounts[mi].fs.create(rel)?;
        self.dcache
            .insert(path.to_string(), (mi, ino, NodeKind::File));
        self.alloc_fd(OpenFile {
            mount: mi,
            ino,
            offset: 0,
        })
    }

    /// Reads up to `len` bytes at the current offset.
    pub fn read(&mut self, fd: Fd, len: usize) -> Result<Vec<u8>> {
        let of = *self.file(fd)?;
        let data = self.mounts[of.mount].fs.read(of.ino, of.offset, len)?;
        self.file(fd)?.offset += data.len() as u64;
        Ok(data)
    }

    /// Writes at the current offset.
    pub fn write(&mut self, fd: Fd, data: &[u8]) -> Result<usize> {
        let of = *self.file(fd)?;
        let n = self.mounts[of.mount].fs.write(of.ino, of.offset, data)?;
        self.file(fd)?.offset += n as u64;
        Ok(n)
    }

    /// Repositions the file offset (SEEK_SET only).
    pub fn lseek(&mut self, fd: Fd, offset: u64) -> Result<u64> {
        self.file(fd)?.offset = offset;
        Ok(offset)
    }

    /// File size by descriptor.
    pub fn fsize(&mut self, fd: Fd) -> Result<u64> {
        let of = *self.file(fd)?;
        self.mounts[of.mount].fs.size(of.ino)
    }

    /// Closes a descriptor.
    pub fn close(&mut self, fd: Fd) -> Result<()> {
        let slot = self.fds.get_mut(fd.0).ok_or(Errno::BadF)?;
        if slot.is_none() {
            return Err(Errno::BadF);
        }
        *slot = None;
        Ok(())
    }

    /// Removes a file.
    pub fn unlink(&mut self, path: &str) -> Result<()> {
        let (mi, rel) = self.resolve_mount(path)?;
        self.mounts[mi].fs.unlink(rel)?;
        self.dcache.remove(path);
        Ok(())
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str) -> Result<()> {
        let (mi, rel) = self.resolve_mount(path)?;
        self.mounts[mi].fs.mkdir(rel)
    }

    /// Lists a directory.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<String>> {
        let (mi, rel) = self.resolve_mount(path)?;
        self.mounts[mi].fs.readdir(rel)
    }

    /// Open descriptors.
    pub fn open_fds(&self) -> usize {
        self.fds.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ramfs::RamFs;

    fn vfs_with_root() -> Vfs {
        let mut v = Vfs::new();
        v.mount("/", Box::new(RamFs::new())).unwrap();
        v
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut v = vfs_with_root();
        let fd = v.create("/hello.txt").unwrap();
        v.write(fd, b"hello vfs").unwrap();
        v.lseek(fd, 0).unwrap();
        assert_eq!(v.read(fd, 100).unwrap(), b"hello vfs");
        assert_eq!(v.fsize(fd).unwrap(), 9);
        v.close(fd).unwrap();
    }

    #[test]
    fn open_missing_file_fails() {
        let mut v = vfs_with_root();
        assert_eq!(v.open("/nope").unwrap_err(), Errno::NoEnt);
    }

    #[test]
    fn nested_directories_walk() {
        let mut v = vfs_with_root();
        v.mkdir("/a").unwrap();
        v.mkdir("/a/b").unwrap();
        let fd = v.create("/a/b/c.txt").unwrap();
        v.write(fd, b"deep").unwrap();
        v.close(fd).unwrap();
        let fd = v.open("/a/b/c.txt").unwrap();
        assert_eq!(v.read(fd, 10).unwrap(), b"deep");
    }

    #[test]
    fn multiple_mounts_resolve_by_longest_prefix() {
        let mut v = Vfs::new();
        v.mount("/", Box::new(RamFs::new())).unwrap();
        v.mount("/data", Box::new(RamFs::new())).unwrap();
        let fd = v.create("/data/x").unwrap();
        v.write(fd, b"in-data-mount").unwrap();
        v.close(fd).unwrap();
        // Root mount must not see it.
        assert!(v.open("/x").is_err());
        let fd = v.open("/data/x").unwrap();
        assert_eq!(v.read(fd, 64).unwrap(), b"in-data-mount");
    }

    #[test]
    fn fd_table_reuses_slots() {
        let mut v = vfs_with_root();
        let a = v.create("/a").unwrap();
        let b = v.create("/b").unwrap();
        v.close(a).unwrap();
        let c = v.create("/c").unwrap();
        assert_eq!(c, a, "closed slot is reused");
        assert_ne!(b, c);
    }

    #[test]
    fn close_twice_fails() {
        let mut v = vfs_with_root();
        let fd = v.create("/f").unwrap();
        v.close(fd).unwrap();
        assert_eq!(v.close(fd).unwrap_err(), Errno::BadF);
    }

    #[test]
    fn unlink_removes_and_invalidates_dcache() {
        let mut v = vfs_with_root();
        let fd = v.create("/gone").unwrap();
        v.close(fd).unwrap();
        v.unlink("/gone").unwrap();
        assert_eq!(v.open("/gone").unwrap_err(), Errno::NoEnt);
    }

    #[test]
    fn readdir_lists_entries() {
        let mut v = vfs_with_root();
        v.create("/one").unwrap();
        v.create("/two").unwrap();
        v.mkdir("/sub").unwrap();
        let mut names = v.readdir("/").unwrap();
        names.sort();
        assert_eq!(names, ["one", "sub", "two"]);
    }

    #[test]
    fn open_directory_is_error() {
        let mut v = vfs_with_root();
        v.mkdir("/d").unwrap();
        assert_eq!(v.open("/d").unwrap_err(), Errno::IsDir);
    }

    #[test]
    fn relative_path_rejected() {
        let mut v = vfs_with_root();
        assert_eq!(v.open("no-slash").unwrap_err(), Errno::Inval);
    }

    #[test]
    fn duplicate_mount_rejected() {
        let mut v = vfs_with_root();
        assert_eq!(
            v.mount("/", Box::new(RamFs::new())).unwrap_err(),
            Errno::Busy
        );
    }
}
