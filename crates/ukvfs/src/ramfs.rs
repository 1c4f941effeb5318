//! RamFS: the in-memory filesystem Unikraft guests embed when they need
//! no persistent storage (the paper's nginx image "does not include a
//! block subsystem since it only uses RamFS", §3).

use std::collections::HashMap;

use ukplat::{Errno, Result};

use crate::vfscore::{FileSystem, Ino, NodeKind};

#[derive(Debug)]
enum Node {
    File(Vec<u8>),
    Dir(HashMap<String, Ino>),
}

/// The in-memory filesystem.
#[derive(Debug)]
pub struct RamFs {
    nodes: HashMap<Ino, Node>,
    next_ino: Ino,
}

impl Default for RamFs {
    fn default() -> Self {
        Self::new()
    }
}

impl RamFs {
    /// Root inode number.
    pub(crate) const ROOT: Ino = 1;

    /// Creates an empty filesystem with a root directory.
    pub fn new() -> Self {
        let mut nodes = HashMap::new();
        nodes.insert(Self::ROOT, Node::Dir(HashMap::new()));
        RamFs {
            nodes,
            next_ino: 2,
        }
    }

    /// Convenience: creates a file with contents, making parents.
    pub fn add_file(&mut self, path: &str, contents: &[u8]) -> Result<Ino> {
        // Create intermediate directories.
        let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        for n in 1..comps.len() {
            let dir = comps[..n].join("/");
            match self.lookup(&dir) {
                Ok((_, NodeKind::Dir)) => {}
                Ok((_, NodeKind::File)) => return Err(Errno::NotDir),
                Err(_) => self.mkdir(&dir)?,
            }
        }
        let ino = self.create(path)?;
        if let Some(Node::File(data)) = self.nodes.get_mut(&ino) {
            data.clear();
            data.extend_from_slice(contents);
        }
        Ok(ino)
    }

    /// Walks to the parent directory of `path`, returning (parent ino,
    /// final component).
    fn parent_of<'a>(&mut self, path: &'a str) -> Result<(Ino, &'a str)> {
        let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        let (last, dirs) = comps.split_last().ok_or(Errno::Inval)?;
        let mut cur = Self::ROOT;
        for c in dirs {
            let next = match self.nodes.get(&cur) {
                Some(Node::Dir(entries)) => *entries.get(*c).ok_or(Errno::NoEnt)?,
                _ => return Err(Errno::NotDir),
            };
            cur = next;
        }
        match self.nodes.get(&cur) {
            Some(Node::Dir(_)) => Ok((cur, last)),
            _ => Err(Errno::NotDir),
        }
    }

    fn alloc(&mut self, node: Node) -> Ino {
        let ino = self.next_ino;
        self.next_ino += 1;
        self.nodes.insert(ino, node);
        ino
    }
}

impl FileSystem for RamFs {
    fn fs_name(&self) -> &'static str {
        "ramfs"
    }

    fn lookup(&mut self, path: &str) -> Result<(Ino, NodeKind)> {
        if path.is_empty() {
            return Ok((Self::ROOT, NodeKind::Dir));
        }
        let mut cur = Self::ROOT;
        for c in path.split('/').filter(|c| !c.is_empty()) {
            let next = match self.nodes.get(&cur) {
                Some(Node::Dir(entries)) => *entries.get(c).ok_or(Errno::NoEnt)?,
                _ => return Err(Errno::NotDir),
            };
            cur = next;
        }
        let kind = match self.nodes.get(&cur) {
            Some(Node::File(_)) => NodeKind::File,
            Some(Node::Dir(_)) => NodeKind::Dir,
            None => return Err(Errno::NoEnt),
        };
        Ok((cur, kind))
    }

    fn create(&mut self, path: &str) -> Result<Ino> {
        let (parent, name) = self.parent_of(path)?;
        // Truncate if it exists.
        if let Some(Node::Dir(entries)) = self.nodes.get(&parent) {
            if let Some(&ino) = entries.get(name) {
                match self.nodes.get_mut(&ino) {
                    Some(Node::File(data)) => {
                        data.clear();
                        return Ok(ino);
                    }
                    _ => return Err(Errno::IsDir),
                }
            }
        }
        let ino = self.alloc(Node::File(Vec::new()));
        match self.nodes.get_mut(&parent) {
            Some(Node::Dir(entries)) => {
                entries.insert(name.to_string(), ino);
                Ok(ino)
            }
            _ => Err(Errno::NotDir),
        }
    }

    fn read(&mut self, ino: Ino, off: u64, len: usize) -> Result<Vec<u8>> {
        match self.nodes.get(&ino) {
            Some(Node::File(data)) => {
                let start = (off as usize).min(data.len());
                let end = (start + len).min(data.len());
                Ok(data[start..end].to_vec())
            }
            Some(Node::Dir(_)) => Err(Errno::IsDir),
            None => Err(Errno::BadF),
        }
    }

    fn write(&mut self, ino: Ino, off: u64, data: &[u8]) -> Result<usize> {
        match self.nodes.get_mut(&ino) {
            Some(Node::File(file)) => {
                let off = off as usize;
                if file.len() < off + data.len() {
                    file.resize(off + data.len(), 0);
                }
                file[off..off + data.len()].copy_from_slice(data);
                Ok(data.len())
            }
            Some(Node::Dir(_)) => Err(Errno::IsDir),
            None => Err(Errno::BadF),
        }
    }

    fn size(&mut self, ino: Ino) -> Result<u64> {
        match self.nodes.get(&ino) {
            Some(Node::File(data)) => Ok(data.len() as u64),
            Some(Node::Dir(_)) => Err(Errno::IsDir),
            None => Err(Errno::BadF),
        }
    }

    fn unlink(&mut self, path: &str) -> Result<()> {
        let (parent, name) = self.parent_of(path)?;
        let name = name.to_string();
        let ino = match self.nodes.get(&parent) {
            Some(Node::Dir(entries)) => *entries.get(&name).ok_or(Errno::NoEnt)?,
            _ => return Err(Errno::NotDir),
        };
        if let Some(Node::Dir(entries)) = self.nodes.get(&ino) {
            if !entries.is_empty() {
                return Err(Errno::NotEmpty);
            }
        }
        if let Some(Node::Dir(entries)) = self.nodes.get_mut(&parent) {
            entries.remove(&name);
        }
        self.nodes.remove(&ino);
        Ok(())
    }

    fn mkdir(&mut self, path: &str) -> Result<()> {
        let (parent, name) = self.parent_of(path)?;
        let name = name.to_string();
        if let Some(Node::Dir(entries)) = self.nodes.get(&parent) {
            if entries.contains_key(&name) {
                return Err(Errno::Exist);
            }
        }
        let ino = self.alloc(Node::Dir(HashMap::new()));
        match self.nodes.get_mut(&parent) {
            Some(Node::Dir(entries)) => {
                entries.insert(name, ino);
                Ok(())
            }
            _ => Err(Errno::NotDir),
        }
    }

    fn readdir(&mut self, path: &str) -> Result<Vec<String>> {
        let (ino, kind) = self.lookup(path)?;
        if kind != NodeKind::Dir {
            return Err(Errno::NotDir);
        }
        match self.nodes.get(&ino) {
            Some(Node::Dir(entries)) => Ok(entries.keys().cloned().collect()),
            _ => Err(Errno::NotDir),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup() {
        let mut fs = RamFs::new();
        let ino = fs.create("file.txt").unwrap();
        assert_eq!(fs.lookup("file.txt").unwrap(), (ino, NodeKind::File));
    }

    #[test]
    fn sparse_write_zero_fills() {
        let mut fs = RamFs::new();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 4, b"xy").unwrap();
        assert_eq!(fs.read(ino, 0, 10).unwrap(), vec![0, 0, 0, 0, b'x', b'y']);
    }

    #[test]
    fn read_past_eof_is_short() {
        let mut fs = RamFs::new();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, b"abc").unwrap();
        assert_eq!(fs.read(ino, 2, 10).unwrap(), b"c");
        assert!(fs.read(ino, 100, 10).unwrap().is_empty());
    }

    #[test]
    fn add_file_creates_parents() {
        let mut fs = RamFs::new();
        fs.add_file("a/b/c/d.txt", b"deep").unwrap();
        let (ino, _) = fs.lookup("a/b/c/d.txt").unwrap();
        assert_eq!(fs.read(ino, 0, 10).unwrap(), b"deep");
        assert_eq!(fs.lookup("a/b").unwrap().1, NodeKind::Dir);
    }

    #[test]
    fn unlink_nonempty_dir_fails() {
        let mut fs = RamFs::new();
        fs.mkdir("d").unwrap();
        fs.add_file("d/f", b"x").unwrap();
        assert_eq!(fs.unlink("d").unwrap_err(), Errno::NotEmpty);
        fs.unlink("d/f").unwrap();
        fs.unlink("d").unwrap();
        assert!(fs.lookup("d").is_err());
    }

    #[test]
    fn mkdir_existing_fails() {
        let mut fs = RamFs::new();
        fs.mkdir("d").unwrap();
        assert_eq!(fs.mkdir("d").unwrap_err(), Errno::Exist);
    }

    #[test]
    fn create_truncates_existing() {
        let mut fs = RamFs::new();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, b"old-contents").unwrap();
        let ino2 = fs.create("f").unwrap();
        assert_eq!(ino, ino2);
        assert_eq!(fs.size(ino).unwrap(), 0);
    }
}
