//! 9pfs: a real 9P2000 message codec, client and host.
//!
//! §5.2 of the paper: "To support persistent storage, apps can use the
//! 9pfs protocol to access such storage on the host or in the network.
//! Our 9pfs implementation relies on virtio-9p as transport for KVM,
//! implementing the standard VFS operations." Figure 20 measures
//! read/write latency against block size.
//!
//! Every VFS operation becomes one or more 9P messages — encoded to real
//! bytes, shipped over a [`Transport`] that charges the virtio-9p costs
//! (one VM exit + host copy + host service per message; Xen adds a
//! grant-table operation), decoded and served by [`NinePHost`] against an
//! in-memory host filesystem. Latency therefore scales with the *number
//! and size of messages*, which is exactly the mechanism behind Fig 20.

use ukplat::cost;
use ukplat::time::Tsc;
use ukplat::{Errno, Result};

use crate::ramfs::RamFs;
use crate::vfscore::{FileSystem, Ino, NodeKind};

/// Negotiated maximum message size (QEMU's default is 8 KiB + headers).
pub(crate) const MSIZE: u32 = 8192;
/// Per-message header overhead for read/write payloads.
pub(crate) const IOHDRSZ: u32 = 24;

// 9P2000 message type numbers.
const TVERSION: u8 = 100;
const RVERSION: u8 = 101;
const TATTACH: u8 = 104;
const RATTACH: u8 = 105;
const RERROR: u8 = 107;
const TWALK: u8 = 110;
const RWALK: u8 = 111;
const TOPEN: u8 = 112;
const ROPEN: u8 = 113;
const TCREATE: u8 = 114;
const RCREATE: u8 = 115;
const TREAD: u8 = 116;
const RREAD: u8 = 117;
const TWRITE: u8 = 118;
const RWRITE: u8 = 119;
const TCLUNK: u8 = 120;
const RCLUNK: u8 = 121;

/// Encodes a 9P message from type, tag and body.
fn encode_msg(mtype: u8, tag: u16, body: &[u8]) -> Vec<u8> {
    let size = 4 + 1 + 2 + body.len();
    let mut m = Vec::with_capacity(size);
    m.extend_from_slice(&(size as u32).to_le_bytes());
    m.push(mtype);
    m.extend_from_slice(&tag.to_le_bytes());
    m.extend_from_slice(body);
    m
}

/// Splits a 9P message into (type, tag, body).
fn decode_msg(m: &[u8]) -> Result<(u8, u16, &[u8])> {
    if m.len() < 7 {
        return Err(Errno::Inval);
    }
    let size = u32::from_le_bytes([m[0], m[1], m[2], m[3]]) as usize;
    if size != m.len() {
        return Err(Errno::Inval);
    }
    Ok((m[4], u16::from_le_bytes([m[5], m[6]]), &m[7..]))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str<'a>(b: &mut &'a [u8]) -> Result<&'a str> {
    if b.len() < 2 {
        return Err(Errno::Inval);
    }
    let n = u16::from_le_bytes([b[0], b[1]]) as usize;
    if b.len() < 2 + n {
        return Err(Errno::Inval);
    }
    let s = std::str::from_utf8(&b[2..2 + n]).map_err(|_| Errno::Inval)?;
    *b = &b[2 + n..];
    Ok(s)
}

fn get_u32(b: &mut &[u8]) -> Result<u32> {
    if b.len() < 4 {
        return Err(Errno::Inval);
    }
    let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    *b = &b[4..];
    Ok(v)
}

fn get_u64(b: &mut &[u8]) -> Result<u64> {
    if b.len() < 8 {
        return Err(Errno::Inval);
    }
    let v = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
    *b = &b[8..];
    Ok(v)
}

fn get_u16(b: &mut &[u8]) -> Result<u16> {
    if b.len() < 2 {
        return Err(Errno::Inval);
    }
    let v = u16::from_le_bytes([b[0], b[1]]);
    *b = &b[2..];
    Ok(v)
}

/// The transport a 9P client sends messages through.
// ukcheck: allow(unused-pub) -- the bound on the public `NinePClient`'s
// transport
pub trait Transport {
    /// Performs one request/reply exchange.
    fn rpc(&mut self, request: Vec<u8>) -> Vec<u8>;
}

/// virtio-9p transport: each message costs a kick (VM exit), a host copy
/// of the message bytes, and the host's 9P service time. `xen` adds a
/// grant-table map/unmap, making Xen 9pfs visibly slower (§5.2: +0.3 ms
/// boot on KVM vs +2.7 ms on Xen; Figure 20's latency gap).
pub struct VirtioP9Transport {
    host: NinePHost,
    tsc: Tsc,
    xen: bool,
}

impl VirtioP9Transport {
    /// Creates a KVM (virtio-9p) transport over `host`.
    pub fn kvm(host: NinePHost, tsc: &Tsc) -> Self {
        VirtioP9Transport {
            host,
            tsc: tsc.clone(),
            xen: false,
        }
    }

    /// Creates a Xen (grant-table) transport over `host`.
    pub fn xen(host: NinePHost, tsc: &Tsc) -> Self {
        VirtioP9Transport {
            host,
            tsc: tsc.clone(),
            xen: true,
        }
    }
}

impl Transport for VirtioP9Transport {
    fn rpc(&mut self, request: Vec<u8>) -> Vec<u8> {
        self.tsc.advance(cost::VMEXIT_CYCLES);
        self.tsc.advance(cost::copy_cost_cycles(request.len()));
        if self.xen {
            self.tsc.advance(cost::XEN_GRANT_CYCLES);
        }
        self.tsc.advance(cost::P9_MSG_BASE_CYCLES);
        let reply = self.host.serve(&request);
        self.tsc.advance(cost::copy_cost_cycles(reply.len()));
        reply
    }
}

/// The host side: serves 9P messages against an in-memory host FS.
pub struct NinePHost {
    fs: RamFs,
    /// fid → resolved path (host keeps fids, like QEMU's 9p server).
    fids: std::collections::HashMap<u32, String>,
}

impl NinePHost {
    /// Creates a host share around `fs` (pre-populate it with test data).
    pub fn new(fs: RamFs) -> Self {
        NinePHost {
            fs,
            fids: std::collections::HashMap::new(),
        }
    }

    /// Serves one request message, producing the reply message.
    pub fn serve(&mut self, req: &[u8]) -> Vec<u8> {
        match self.serve_inner(req) {
            Ok(reply) => reply,
            Err(e) => {
                let tag = req
                    .get(5..7)
                    .map(|t| u16::from_le_bytes([t[0], t[1]]))
                    .unwrap_or(0xffff);
                let mut body = Vec::new();
                put_str(&mut body, e.symbol());
                encode_msg(RERROR, tag, &body)
            }
        }
    }

    fn fid_path(&self, fid: u32) -> Result<&String> {
        self.fids.get(&fid).ok_or(Errno::BadF)
    }

    fn serve_inner(&mut self, req: &[u8]) -> Result<Vec<u8>> {
        let (mtype, tag, mut b) = decode_msg(req)?;
        match mtype {
            TVERSION => {
                let msize = get_u32(&mut b)?;
                let _version = get_str(&mut b)?;
                let mut body = Vec::new();
                body.extend_from_slice(&msize.min(MSIZE).to_le_bytes());
                put_str(&mut body, "9P2000");
                Ok(encode_msg(RVERSION, tag, &body))
            }
            TATTACH => {
                let fid = get_u32(&mut b)?;
                self.fids.insert(fid, String::new());
                // Rattach carries the root qid (13 bytes).
                Ok(encode_msg(RATTACH, tag, &[0u8; 13]))
            }
            TWALK => {
                let fid = get_u32(&mut b)?;
                let newfid = get_u32(&mut b)?;
                let nwname = get_u16(&mut b)?;
                let mut path = self.fid_path(fid)?.clone();
                let mut qids = Vec::new();
                for _ in 0..nwname {
                    let name = get_str(&mut b)?;
                    if !path.is_empty() {
                        path.push('/');
                    }
                    path.push_str(name);
                    self.fs.lookup(&path)?;
                    qids.push([0u8; 13]);
                }
                self.fids.insert(newfid, path);
                let mut body = Vec::new();
                body.extend_from_slice(&(qids.len() as u16).to_le_bytes());
                for q in qids {
                    body.extend_from_slice(&q);
                }
                Ok(encode_msg(RWALK, tag, &body))
            }
            TOPEN => {
                let fid = get_u32(&mut b)?;
                let path = self.fid_path(fid)?.clone();
                self.fs.lookup(&path)?;
                let mut body = vec![0u8; 13]; // qid
                body.extend_from_slice(&(MSIZE - IOHDRSZ).to_le_bytes()); // iounit
                Ok(encode_msg(ROPEN, tag, &body))
            }
            TCREATE => {
                let fid = get_u32(&mut b)?;
                let name = get_str(&mut b)?.to_string();
                let dir = self.fid_path(fid)?.clone();
                let path = if dir.is_empty() {
                    name
                } else {
                    format!("{dir}/{name}")
                };
                self.fs.create(&path)?;
                self.fids.insert(fid, path);
                let mut body = vec![0u8; 13];
                body.extend_from_slice(&(MSIZE - IOHDRSZ).to_le_bytes());
                Ok(encode_msg(RCREATE, tag, &body))
            }
            TREAD => {
                let fid = get_u32(&mut b)?;
                let offset = get_u64(&mut b)?;
                let count = get_u32(&mut b)?;
                let path = self.fid_path(fid)?.clone();
                let (ino, kind) = self.fs.lookup(&path)?;
                if kind != NodeKind::File {
                    return Err(Errno::IsDir);
                }
                let data = self
                    .fs
                    .read(ino, offset, count.min(MSIZE - IOHDRSZ) as usize)?;
                let mut body = Vec::with_capacity(4 + data.len());
                body.extend_from_slice(&(data.len() as u32).to_le_bytes());
                body.extend_from_slice(&data);
                Ok(encode_msg(RREAD, tag, &body))
            }
            TWRITE => {
                let fid = get_u32(&mut b)?;
                let offset = get_u64(&mut b)?;
                let count = get_u32(&mut b)? as usize;
                if b.len() < count {
                    return Err(Errno::Inval);
                }
                let path = self.fid_path(fid)?.clone();
                let (ino, _) = self.fs.lookup(&path)?;
                let n = self.fs.write(ino, offset, &b[..count])?;
                let mut body = Vec::new();
                body.extend_from_slice(&(n as u32).to_le_bytes());
                Ok(encode_msg(RWRITE, tag, &body))
            }
            TCLUNK => {
                let fid = get_u32(&mut b)?;
                self.fids.remove(&fid);
                Ok(encode_msg(RCLUNK, tag, &[]))
            }
            _ => Err(Errno::NoSys),
        }
    }
}

/// The guest-side 9pfs client, adapting 9P to the [`FileSystem`] trait.
pub struct NinePClient<T: Transport> {
    transport: T,
    next_tag: u16,
    next_fid: u32,
    attached: bool,
    /// inode handle → open fid + path.
    open_fids: std::collections::HashMap<Ino, (u32, String)>,
    next_ino: Ino,
}

impl<T: Transport> NinePClient<T> {
    /// Root fid established by attach.
    const ROOT_FID: u32 = 0;

    /// Creates a client; version/attach happen lazily on first use.
    pub fn new(transport: T) -> Self {
        NinePClient {
            transport,
            next_tag: 1,
            next_fid: 1,
            attached: false,
            open_fids: std::collections::HashMap::new(),
            next_ino: 1,
        }
    }

    fn tag(&mut self) -> u16 {
        let t = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1).max(1);
        t
    }

    fn rpc_expect(&mut self, req: Vec<u8>, want: u8) -> Result<Vec<u8>> {
        let reply = self.transport.rpc(req);
        let (mtype, _tag, body) = decode_msg(&reply)?;
        if mtype == RERROR {
            let mut b = body;
            let name = get_str(&mut b)?;
            return Err(errno_from_symbol(name));
        }
        if mtype != want {
            return Err(Errno::Io);
        }
        Ok(body.to_vec())
    }

    fn ensure_attached(&mut self) -> Result<()> {
        if self.attached {
            return Ok(());
        }
        let tag = self.tag();
        let mut body = Vec::new();
        body.extend_from_slice(&MSIZE.to_le_bytes());
        put_str(&mut body, "9P2000");
        self.rpc_expect(encode_msg(TVERSION, tag, &body), RVERSION)?;
        let tag = self.tag();
        let mut body = Vec::new();
        body.extend_from_slice(&Self::ROOT_FID.to_le_bytes());
        body.extend_from_slice(&0xffff_ffffu32.to_le_bytes()); // NOFID
        put_str(&mut body, "guest");
        put_str(&mut body, "");
        self.rpc_expect(encode_msg(TATTACH, tag, &body), RATTACH)?;
        self.attached = true;
        Ok(())
    }

    /// Walks from the root to `path`, returning a fresh fid.
    fn walk(&mut self, path: &str) -> Result<u32> {
        self.ensure_attached()?;
        let fid = self.next_fid;
        self.next_fid += 1;
        let tag = self.tag();
        let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        let mut body = Vec::new();
        body.extend_from_slice(&Self::ROOT_FID.to_le_bytes());
        body.extend_from_slice(&fid.to_le_bytes());
        body.extend_from_slice(&(comps.len() as u16).to_le_bytes());
        for c in &comps {
            put_str(&mut body, c);
        }
        self.rpc_expect(encode_msg(TWALK, tag, &body), RWALK)?;
        Ok(fid)
    }
}

fn errno_from_symbol(sym: &str) -> Errno {
    match sym {
        "ENOENT" => Errno::NoEnt,
        "EISDIR" => Errno::IsDir,
        "ENOTDIR" => Errno::NotDir,
        "EEXIST" => Errno::Exist,
        "ENOSPC" => Errno::NoSpc,
        "EBADF" => Errno::BadF,
        _ => Errno::Io,
    }
}

impl<T: Transport> FileSystem for NinePClient<T> {
    fn fs_name(&self) -> &'static str {
        "9pfs"
    }

    fn lookup(&mut self, path: &str) -> Result<(Ino, NodeKind)> {
        let fid = self.walk(path)?;
        // Open to validate; directories report IsDir on read, files open.
        let tag = self.tag();
        let mut body = Vec::new();
        body.extend_from_slice(&fid.to_le_bytes());
        body.push(0); // OREAD
        self.rpc_expect(encode_msg(TOPEN, tag, &body), ROPEN)?;
        let ino = self.next_ino;
        self.next_ino += 1;
        self.open_fids.insert(ino, (fid, path.to_string()));
        // The host model only distinguishes kind on read; report File for
        // anything openable (directories are listed via readdir).
        Ok((ino, NodeKind::File))
    }

    fn create(&mut self, path: &str) -> Result<Ino> {
        self.ensure_attached()?;
        let (dir, name) = match path.rsplit_once('/') {
            Some((d, n)) => (d, n),
            None => ("", path),
        };
        let fid = self.walk(dir)?;
        let tag = self.tag();
        let mut body = Vec::new();
        body.extend_from_slice(&fid.to_le_bytes());
        put_str(&mut body, name);
        body.extend_from_slice(&0o644u32.to_le_bytes());
        body.push(1); // OWRITE
        self.rpc_expect(encode_msg(TCREATE, tag, &body), RCREATE)?;
        let ino = self.next_ino;
        self.next_ino += 1;
        self.open_fids.insert(ino, (fid, path.to_string()));
        Ok(ino)
    }

    fn read(&mut self, ino: Ino, off: u64, len: usize) -> Result<Vec<u8>> {
        let (fid, _) = *self.open_fids.get(&ino).ok_or(Errno::BadF)?;
        let mut out = Vec::with_capacity(len);
        let mut off = off;
        // Chunk by the negotiated iounit: larger reads → more messages,
        // the latency scaling of Figure 20.
        while out.len() < len {
            let want = (len - out.len()).min((MSIZE - IOHDRSZ) as usize) as u32;
            let tag = self.tag();
            let mut body = Vec::new();
            body.extend_from_slice(&fid.to_le_bytes());
            body.extend_from_slice(&off.to_le_bytes());
            body.extend_from_slice(&want.to_le_bytes());
            let reply = self.rpc_expect(encode_msg(TREAD, tag, &body), RREAD)?;
            let mut b = reply.as_slice();
            let count = get_u32(&mut b)? as usize;
            if count == 0 {
                break; // EOF
            }
            out.extend_from_slice(&b[..count]);
            off += count as u64;
        }
        Ok(out)
    }

    fn write(&mut self, ino: Ino, off: u64, data: &[u8]) -> Result<usize> {
        let (fid, _) = *self.open_fids.get(&ino).ok_or(Errno::BadF)?;
        let mut written = 0;
        let mut off = off;
        for chunk in data.chunks((MSIZE - IOHDRSZ) as usize) {
            let tag = self.tag();
            let mut body = Vec::new();
            body.extend_from_slice(&fid.to_le_bytes());
            body.extend_from_slice(&off.to_le_bytes());
            body.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
            body.extend_from_slice(chunk);
            let reply = self.rpc_expect(encode_msg(TWRITE, tag, &body), RWRITE)?;
            let mut b = reply.as_slice();
            let n = get_u32(&mut b)? as usize;
            written += n;
            off += n as u64;
            if n < chunk.len() {
                break;
            }
        }
        Ok(written)
    }

    fn size(&mut self, ino: Ino) -> Result<u64> {
        // Read to EOF in iounit chunks (Tstat omitted from the host model).
        let mut total = 0u64;
        loop {
            let chunk = self.read(ino, total, (MSIZE - IOHDRSZ) as usize)?;
            if chunk.is_empty() {
                break;
            }
            total += chunk.len() as u64;
        }
        Ok(total)
    }

    fn unlink(&mut self, _path: &str) -> Result<()> {
        Err(Errno::NoSys) // Tremove omitted; not exercised by the figures.
    }

    fn mkdir(&mut self, _path: &str) -> Result<()> {
        Err(Errno::NoSys)
    }

    fn readdir(&mut self, _path: &str) -> Result<Vec<String>> {
        Err(Errno::NoSys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukplat::time::Tsc;

    fn host_with(files: &[(&str, &[u8])]) -> NinePHost {
        let mut fs = RamFs::new();
        for (p, c) in files {
            fs.add_file(p, c).unwrap();
        }
        NinePHost::new(fs)
    }

    fn client(
        files: &[(&str, &[u8])],
        tsc: &Tsc,
    ) -> NinePClient<VirtioP9Transport> {
        NinePClient::new(VirtioP9Transport::kvm(host_with(files), tsc))
    }

    #[test]
    fn codec_roundtrip() {
        let m = encode_msg(TREAD, 7, &[1, 2, 3]);
        let (t, tag, body) = decode_msg(&m).unwrap();
        assert_eq!(t, TREAD);
        assert_eq!(tag, 7);
        assert_eq!(body, &[1, 2, 3]);
    }

    #[test]
    fn open_and_read_small_file() {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let mut c = client(&[("hello.txt", b"hi 9p")], &tsc);
        let (ino, _) = c.lookup("hello.txt").unwrap();
        assert_eq!(c.read(ino, 0, 64).unwrap(), b"hi 9p");
    }

    #[test]
    fn missing_file_maps_to_enoent() {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let mut c = client(&[], &tsc);
        assert_eq!(c.lookup("ghost").unwrap_err(), Errno::NoEnt);
    }

    #[test]
    fn large_read_spans_messages() {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let blob: Vec<u8> = (0..32 * 1024u32).map(|i| (i % 251) as u8).collect();
        let mut c = client(&[("big", &blob)], &tsc);
        let (ino, _) = c.lookup("big").unwrap();
        // 32 KiB at ~8 KiB per message: at least 4 reads, reassembled.
        let data = c.read(ino, 0, blob.len()).unwrap();
        assert_eq!(data, blob);
    }

    #[test]
    fn write_roundtrip_through_host() {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let mut c = client(&[], &tsc);
        let ino = c.create("new.txt").unwrap();
        let payload = vec![0x42u8; 20_000];
        assert_eq!(c.write(ino, 0, &payload).unwrap(), payload.len());
        let back = c.read(ino, 0, payload.len()).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn xen_transport_is_slower_than_kvm() {
        let blob = vec![1u8; 4096];
        let t_kvm = Tsc::new(cost::CPU_FREQ_HZ);
        let mut kvm = NinePClient::new(VirtioP9Transport::kvm(
            host_with(&[("f", &blob)]),
            &t_kvm,
        ));
        let t_xen = Tsc::new(cost::CPU_FREQ_HZ);
        let mut xen = NinePClient::new(VirtioP9Transport::xen(
            host_with(&[("f", &blob)]),
            &t_xen,
        ));
        let (i1, _) = kvm.lookup("f").unwrap();
        kvm.read(i1, 0, 4096).unwrap();
        let (i2, _) = xen.lookup("f").unwrap();
        xen.read(i2, 0, 4096).unwrap();
        assert!(t_xen.now_cycles() > t_kvm.now_cycles());
    }

    #[test]
    fn size_reads_to_eof() {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let blob = vec![9u8; 10_000];
        let mut c = client(&[("f", &blob)], &tsc);
        let (ino, _) = c.lookup("f").unwrap();
        assert_eq!(c.size(ino).unwrap(), 10_000);
    }
}
