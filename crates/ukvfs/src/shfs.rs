//! SHFS: the specialized hash filesystem of Figure 22.
//!
//! §6.3 of the paper: "we aim to obtain high performance out of a web
//! cache application by removing Unikraft's vfs layer (vfscore) and
//! hooking the application directly into a purpose-built specialized
//! hash-based filesystem called SHFS, ported from MiniCache." An open is
//! a single hash-bucket probe — no path walk, no dentry cache, no file
//! descriptor table — yielding the paper's 5–7x latency reduction over
//! the vfscore path.

use ukplat::{Errno, Result};

/// Default number of hash buckets (MiniCache uses a power of two).
pub(crate) const DEFAULT_BUCKETS: usize = 4096;

/// A direct file handle: bucket + index, no fd table behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// ukcheck: allow(unused-pub) -- what the public `Shfs::open` returns
pub struct ShfsHandle {
    bucket: u32,
    index: u32,
}

#[derive(Debug)]
struct Entry {
    hash: u64,
    name: String,
    data: Vec<u8>,
}

/// The hash filesystem.
#[derive(Debug)]
pub struct Shfs {
    buckets: Vec<Vec<Entry>>,
    files: usize,
}

impl Shfs {
    /// Creates an SHFS with the default bucket count.
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKETS)
    }

    /// Creates an SHFS with `n` buckets (rounded up to a power of two).
    pub fn with_buckets(n: usize) -> Self {
        let n = n.next_power_of_two();
        Shfs {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            files: 0,
        }
    }

    /// FNV-1a, the flat fast hash a content cache would use.
    fn hash(name: &str) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    fn bucket_of(&self, hash: u64) -> usize {
        (hash as usize) & (self.buckets.len() - 1)
    }

    /// Inserts (or replaces) a file.
    pub fn insert(&mut self, name: &str, data: Vec<u8>) {
        let hash = Self::hash(name);
        let b = self.bucket_of(hash);
        let bucket = &mut self.buckets[b];
        if let Some(e) = bucket.iter_mut().find(|e| e.hash == hash && e.name == name) {
            e.data = data;
            return;
        }
        bucket.push(Entry {
            hash,
            name: name.to_string(),
            data,
        });
        self.files += 1;
    }

    /// The specialized `open()`: one hash probe to a direct handle.
    pub fn open(&mut self, name: &str) -> Result<ShfsHandle> {
        let hash = Self::hash(name);
        let b = self.bucket_of(hash);
        match self.buckets[b]
            .iter()
            .position(|e| e.hash == hash && e.name == name)
        {
            Some(i) => Ok(ShfsHandle {
                bucket: b as u32,
                index: i as u32,
            }),
            None => Err(Errno::NoEnt),
        }
    }

    /// Reads through a handle — a direct slice access.
    pub fn read(&self, h: ShfsHandle, off: usize, len: usize) -> Result<&[u8]> {
        let data = &self
            .buckets
            .get(h.bucket as usize)
            .and_then(|b| b.get(h.index as usize))
            .ok_or(Errno::BadF)?
            .data;
        let start = off.min(data.len());
        let end = (start + len).min(data.len());
        Ok(&data[start..end])
    }

    /// File size through a handle.
    pub fn size(&self, h: ShfsHandle) -> Result<usize> {
        Ok(self
            .buckets
            .get(h.bucket as usize)
            .and_then(|b| b.get(h.index as usize))
            .ok_or(Errno::BadF)?
            .data
            .len())
    }

    /// Number of stored files.
    pub fn len(&self) -> usize {
        self.files
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.files == 0
    }
}

impl Default for Shfs {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_open_read() {
        let mut fs = Shfs::new();
        fs.insert("index.html", b"<html>hi</html>".to_vec());
        let h = fs.open("index.html").unwrap();
        assert_eq!(fs.read(h, 0, 64).unwrap(), b"<html>hi</html>");
        assert_eq!(fs.size(h).unwrap(), 15);
    }

    #[test]
    fn missing_file_is_enoent() {
        let mut fs = Shfs::new();
        assert_eq!(fs.open("nope").unwrap_err(), Errno::NoEnt);
    }

    #[test]
    fn replace_keeps_count() {
        let mut fs = Shfs::new();
        fs.insert("f", vec![1]);
        fs.insert("f", vec![2, 3]);
        assert_eq!(fs.len(), 1);
        let h = fs.open("f").unwrap();
        assert_eq!(fs.read(h, 0, 8).unwrap(), &[2, 3]);
    }

    #[test]
    fn many_files_in_few_buckets_still_resolve() {
        let mut fs = Shfs::with_buckets(4);
        for i in 0..100 {
            fs.insert(&format!("file-{i}"), vec![i as u8]);
        }
        for i in 0..100 {
            let h = fs.open(&format!("file-{i}")).unwrap();
            assert_eq!(fs.read(h, 0, 1).unwrap(), &[i as u8]);
        }
    }

    #[test]
    fn partial_reads_with_offset() {
        let mut fs = Shfs::new();
        fs.insert("f", (0..=9u8).collect());
        let h = fs.open("f").unwrap();
        assert_eq!(fs.read(h, 4, 3).unwrap(), &[4, 5, 6]);
        assert_eq!(fs.read(h, 9, 10).unwrap(), &[9]);
        assert!(fs.read(h, 100, 1).unwrap().is_empty());
    }
}
