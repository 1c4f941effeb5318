//! The POSIX compatibility layer: syscalls backed by real subsystems.
//!
//! §4 of the paper: "each library that implements a system call handler
//! registers it, via a macro, with this micro-library" — `vfscore`
//! registers the file syscalls, `posix-process` the process ones, and
//! so on. This module performs those registrations: it binds a
//! [`SyscallShim`] to a live [`Vfs`], so that invoking `open`/`read`/
//! `write`/`close`/`lseek` *by syscall number* actually performs
//! filesystem operations — at function-call cost, which is the whole
//! point of the shim.
//!
//! Since syscall handlers pass raw `u64` arguments, the layer keeps an
//! argument-translation table mapping "user pointers" to byte buffers,
//! the role the single address space plays in a real unikernel.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ukevent::{EventFd, EventMask, EventQueue, ReadySource};
use ukplat::time::Tsc;
use ukplat::Errno;
use uksyscall::shim::{SyscallMode, SyscallShim};
use ukvfs::vfscore::Fd;
use ukvfs::{RamFs, Vfs};

/// First fd number handed out by the event table; keeps epoll/eventfd
/// descriptors clear of the VFS fd space so `read`/`write`/`close` can
/// route by range, the way a real unikernel's unified fd table would.
pub const EVENT_FD_BASE: u64 = 0x1000;

/// `EPOLL_CTL_ADD`.
pub const EPOLL_CTL_ADD: u64 = 1;
/// `EPOLL_CTL_DEL`.
pub(crate) const EPOLL_CTL_DEL: u64 = 2;
/// `EPOLL_CTL_MOD`.
pub(crate) const EPOLL_CTL_MOD: u64 = 3;

/// The fd table behind the epoll/eventfd syscalls.
#[derive(Default)]
struct EventTable {
    epolls: HashMap<u64, EventQueue>,
    eventfds: HashMap<u64, EventFd>,
    /// Readiness cells installed for objects living outside the table
    /// (e.g. `uknetstack` sockets), keyed by their assigned fd.
    external: HashMap<u64, ReadySource>,
    next_fd: u64,
}

impl EventTable {
    fn alloc_fd(&mut self) -> u64 {
        if self.next_fd == 0 {
            self.next_fd = EVENT_FD_BASE;
        }
        let fd = self.next_fd;
        self.next_fd += 1;
        fd
    }

    /// The readiness cell for `fd`, whether it is an eventfd or an
    /// installed external source.
    fn source_of(&self, fd: u64) -> Option<ReadySource> {
        if let Some(efd) = self.eventfds.get(&fd) {
            return Some(ukevent::Pollable::ready_source(efd));
        }
        self.external.get(&fd).cloned()
    }
}

/// A POSIX process environment over a unikernel's subsystems.
pub struct PosixEnv {
    shim: SyscallShim,
    /// "User memory": buffer id → bytes. Syscall args carry buffer ids.
    buffers: Rc<RefCell<HashMap<u64, Vec<u8>>>>,
    next_buf: u64,
    vfs: Rc<RefCell<Vfs>>,
    events: Rc<RefCell<EventTable>>,
}

impl std::fmt::Debug for PosixEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PosixEnv")
            .field("registered", &self.shim.registered().len())
            .finish()
    }
}

impl PosixEnv {
    /// Builds a POSIX environment with a fresh ramfs root.
    pub fn new(tsc: &Tsc) -> Self {
        let mut vfs = Vfs::new();
        vfs.mount("/", Box::new(RamFs::new())).expect("mount ramfs");
        Self::with_vfs(tsc, vfs)
    }

    /// Builds a POSIX environment over an existing VFS.
    pub(crate) fn with_vfs(tsc: &Tsc, vfs: Vfs) -> Self {
        let vfs = Rc::new(RefCell::new(vfs));
        let buffers: Rc<RefCell<HashMap<u64, Vec<u8>>>> =
            Rc::new(RefCell::new(HashMap::new()));
        let events: Rc<RefCell<EventTable>> = Rc::new(RefCell::new(EventTable::default()));
        let mut shim = SyscallShim::new(SyscallMode::UnikraftNative, tsc);

        // open(path_buf, flags) → fd. O_CREAT (0x40) creates.
        {
            let vfs = vfs.clone();
            let bufs = buffers.clone();
            shim.register(
                2,
                Box::new(move |args| {
                    let path = match bufs.borrow().get(&args[0]) {
                        Some(b) => String::from_utf8_lossy(b).into_owned(),
                        None => return -i64::from(Errno::Inval.code()),
                    };
                    let creat = args.get(1).map(|f| f & 0x40 != 0).unwrap_or(false);
                    let r = if creat {
                        vfs.borrow_mut().create(&path)
                    } else {
                        vfs.borrow_mut().open(&path)
                    };
                    match r {
                        Ok(fd) => fd.0 as i64,
                        Err(e) => -i64::from(e.code()),
                    }
                }),
            );
        }
        // read(fd, buf, count) → n; bytes land in the buffer. Event fds
        // (fd >= EVENT_FD_BASE) read their 8-byte counter; VFS fds read
        // file bytes.
        {
            let vfs = vfs.clone();
            let bufs = buffers.clone();
            let ev = events.clone();
            shim.register(
                0,
                Box::new(move |args| {
                    if args[0] >= EVENT_FD_BASE {
                        let mut t = ev.borrow_mut();
                        let Some(efd) = t.eventfds.get_mut(&args[0]) else {
                            return -i64::from(Errno::BadF.code());
                        };
                        if (args[2] as usize) < 8 {
                            return -i64::from(Errno::Inval.code());
                        }
                        return match efd.read() {
                            Ok(v) => {
                                bufs.borrow_mut().insert(args[1], v.to_le_bytes().to_vec());
                                8
                            }
                            Err(e) => -i64::from(e.code()),
                        };
                    }
                    let fd = Fd(args[0] as usize);
                    let count = args[2] as usize;
                    match vfs.borrow_mut().read(fd, count) {
                        Ok(data) => {
                            let n = data.len() as i64;
                            bufs.borrow_mut().insert(args[1], data);
                            n
                        }
                        Err(e) => -i64::from(e.code()),
                    }
                }),
            );
        }
        // write(fd, buf, count) → n. Event fds add their 8-byte value.
        {
            let vfs = vfs.clone();
            let bufs = buffers.clone();
            let ev = events.clone();
            shim.register(
                1,
                Box::new(move |args| {
                    let data = match bufs.borrow().get(&args[1]) {
                        Some(b) => b.clone(),
                        None => return -i64::from(Errno::Inval.code()),
                    };
                    if args[0] >= EVENT_FD_BASE {
                        let mut t = ev.borrow_mut();
                        let Some(efd) = t.eventfds.get_mut(&args[0]) else {
                            return -i64::from(Errno::BadF.code());
                        };
                        if data.len() < 8 {
                            return -i64::from(Errno::Inval.code());
                        }
                        let v = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
                        return match efd.write(v) {
                            Ok(()) => 8,
                            Err(e) => -i64::from(e.code()),
                        };
                    }
                    let fd = Fd(args[0] as usize);
                    let count = (args[2] as usize).min(data.len());
                    match vfs.borrow_mut().write(fd, &data[..count]) {
                        Ok(n) => n as i64,
                        Err(e) => -i64::from(e.code()),
                    }
                }),
            );
        }
        // close(fd): event table fds first, then VFS. Closing a watched
        // fd removes it from every epoll interest list, as Linux does on
        // the final close — otherwise a dead fd's frozen readiness would
        // generate spurious wakeups forever.
        {
            let vfs = vfs.clone();
            let ev = events.clone();
            shim.register(
                3,
                Box::new(move |args| {
                    if args[0] >= EVENT_FD_BASE {
                        let mut t = ev.borrow_mut();
                        let hit = t.epolls.remove(&args[0]).is_some()
                            || t.eventfds.remove(&args[0]).is_some()
                            || t.external.remove(&args[0]).is_some();
                        if hit {
                            for q in t.epolls.values_mut() {
                                let _ = q.ctl_del(args[0]);
                            }
                            return 0;
                        }
                        return -i64::from(Errno::BadF.code());
                    }
                    match vfs.borrow_mut().close(Fd(args[0] as usize)) {
                        Ok(()) => 0,
                        Err(e) => -i64::from(e.code()),
                    }
                }),
            );
        }
        // lseek(fd, offset, whence=SEEK_SET).
        {
            let vfs = vfs.clone();
            shim.register(
                8,
                Box::new(move |args| {
                    match vfs.borrow_mut().lseek(Fd(args[0] as usize), args[1]) {
                        Ok(off) => off as i64,
                        Err(e) => -i64::from(e.code()),
                    }
                }),
            );
        }
        // mkdir(path_buf).
        {
            let vfs = vfs.clone();
            let bufs = buffers.clone();
            shim.register(
                83,
                Box::new(move |args| {
                    let path = match bufs.borrow().get(&args[0]) {
                        Some(b) => String::from_utf8_lossy(b).into_owned(),
                        None => return -i64::from(Errno::Inval.code()),
                    };
                    match vfs.borrow_mut().mkdir(&path) {
                        Ok(()) => 0,
                        Err(e) => -i64::from(e.code()),
                    }
                }),
            );
        }
        // unlink(path_buf).
        {
            let vfs = vfs.clone();
            let bufs = buffers.clone();
            shim.register(
                87,
                Box::new(move |args| {
                    let path = match bufs.borrow().get(&args[0]) {
                        Some(b) => String::from_utf8_lossy(b).into_owned(),
                        None => return -i64::from(Errno::Inval.code()),
                    };
                    match vfs.borrow_mut().unlink(&path) {
                        Ok(()) => 0,
                        Err(e) => -i64::from(e.code()),
                    }
                }),
            );
        }
        // getpid: single-process unikernel → always 1.
        shim.register(39, Box::new(|_| 1));

        // --- ukevent: the epoll/eventfd family (§4.1's missing piece) --

        // eventfd2(initval, flags) → fd; eventfd(initval) is the
        // pre-flags entry point sharing the handler with flags pinned
        // to zero.
        for nr in [290u32, 284] {
            let ev = events.clone();
            shim.register(
                nr,
                Box::new(move |args| {
                    let initval = args.first().copied().unwrap_or(0);
                    let flags = if nr == 290 {
                        args.get(1).copied().unwrap_or(0) as u32
                    } else {
                        0
                    };
                    match EventFd::new(initval, flags) {
                        Ok(efd) => {
                            let mut t = ev.borrow_mut();
                            let fd = t.alloc_fd();
                            t.eventfds.insert(fd, efd);
                            fd as i64
                        }
                        Err(e) => -i64::from(e.code()),
                    }
                }),
            );
        }
        // epoll_create1(flags) → epfd; epoll_create(size) likewise (the
        // size hint has been ignored since Linux 2.6.8).
        for nr in [291u32, 213] {
            let ev = events.clone();
            shim.register(
                nr,
                Box::new(move |_args| {
                    let mut t = ev.borrow_mut();
                    let fd = t.alloc_fd();
                    t.epolls.insert(fd, EventQueue::new());
                    fd as i64
                }),
            );
        }
        // epoll_ctl(epfd, op, fd, events).
        {
            let ev = events.clone();
            shim.register(
                233,
                Box::new(move |args| {
                    if args.len() < 3 {
                        return -i64::from(Errno::Inval.code());
                    }
                    let (epfd, op, fd) = (args[0], args[1], args[2]);
                    let mask = EventMask(args.get(3).copied().unwrap_or(0) as u32);
                    let mut t = ev.borrow_mut();
                    // Look up the target's readiness cell before borrowing
                    // the epoll instance mutably.
                    let source = t.source_of(fd);
                    let Some(q) = t.epolls.get_mut(&epfd) else {
                        return -i64::from(Errno::BadF.code());
                    };
                    let r = match op {
                        EPOLL_CTL_ADD => match source {
                            Some(s) => q.ctl_add(fd, &s, mask),
                            None => Err(Errno::BadF),
                        },
                        EPOLL_CTL_MOD => q.ctl_mod(fd, mask),
                        EPOLL_CTL_DEL => q.ctl_del(fd),
                        _ => Err(Errno::Inval),
                    };
                    match r {
                        Ok(()) => 0,
                        Err(e) => -i64::from(e.code()),
                    }
                }),
            );
        }
        // epoll_wait(epfd, events_buf, maxevents, timeout): ready events
        // are serialized into the user buffer as packed 12-byte records
        // (u32 events, u64 data), the x86_64 `struct epoll_event` layout.
        // The shim itself never sleeps — a blocking wait is the
        // scheduler-integrated `EventQueue::wait` path, and a timed one
        // is `EventQueue::wait_until` with its deadline expired by a
        // timer wheel driving `fire_deadlines`.
        {
            let ev = events.clone();
            let bufs = buffers.clone();
            shim.register(
                232,
                Box::new(move |args| {
                    if args.len() < 3 {
                        return -i64::from(Errno::Inval.code());
                    }
                    // Linux: maxevents <= 0 is EINVAL.
                    if args[2] == 0 || args[2] > i32::MAX as u64 {
                        return -i64::from(Errno::Inval.code());
                    }
                    let mut t = ev.borrow_mut();
                    let Some(q) = t.epolls.get_mut(&args[0]) else {
                        return -i64::from(Errno::BadF.code());
                    };
                    let max = args[2] as usize;
                    let ready = q.poll_ready(max);
                    let mut blob = Vec::with_capacity(ready.len() * 12);
                    for e in &ready {
                        blob.extend_from_slice(&e.events.bits().to_le_bytes());
                        blob.extend_from_slice(&e.token.to_le_bytes());
                    }
                    bufs.borrow_mut().insert(args[1], blob);
                    ready.len() as i64
                }),
            );
        }

        PosixEnv {
            shim,
            buffers,
            next_buf: 1,
            vfs,
            events,
        }
    }

    /// Places bytes into "user memory", returning the buffer id to pass
    /// as a pointer argument.
    pub fn user_buf(&mut self, data: &[u8]) -> u64 {
        let id = self.next_buf;
        self.next_buf += 1;
        self.buffers.borrow_mut().insert(id, data.to_vec());
        id
    }

    /// Reads back a buffer a syscall filled.
    pub fn read_buf(&self, id: u64) -> Option<Vec<u8>> {
        self.buffers.borrow().get(&id).cloned()
    }

    /// Issues a syscall by number.
    pub fn syscall(&mut self, nr: u32, args: &[u64]) -> i64 {
        self.shim.invoke(nr, args)
    }

    /// The underlying shim (for stats and extra registrations).
    pub fn shim_mut(&mut self) -> &mut SyscallShim {
        &mut self.shim
    }

    /// Direct VFS access (shares state with the syscalls).
    pub fn vfs(&self) -> Rc<RefCell<Vfs>> {
        self.vfs.clone()
    }

    /// Installs an external readiness cell (e.g. a `uknetstack` socket's
    /// [`ReadySource`]) into the fd table, returning the fd to use with
    /// `epoll_ctl`. This is the unified-fd-table role a real unikernel's
    /// socket layer plays.
    pub fn install_source(&mut self, source: ReadySource) -> u64 {
        let mut t = self.events.borrow_mut();
        let fd = t.alloc_fd();
        t.external.insert(fd, source);
        fd
    }

    /// Decodes an `epoll_wait` result buffer back into (events, token)
    /// pairs — the inverse of the packed 12-byte record serialization.
    pub fn decode_epoll_events(buf: &[u8]) -> Vec<(EventMask, u64)> {
        buf.chunks_exact(12)
            .map(|c| {
                let events = EventMask(u32::from_le_bytes(c[..4].try_into().expect("4")));
                let token = u64::from_le_bytes(c[4..12].try_into().expect("8"));
                (events, token)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> PosixEnv {
        PosixEnv::new(&Tsc::new(3_600_000_000))
    }

    const O_CREAT: u64 = 0x40;

    #[test]
    fn open_write_read_close_via_syscalls() {
        let mut p = env();
        let path = p.user_buf(b"/notes.txt");
        let fd = p.syscall(2, &[path, O_CREAT]);
        assert!(fd >= 0, "open failed: {fd}");
        let payload = p.user_buf(b"written through the shim");
        assert_eq!(p.syscall(1, &[fd as u64, payload, 24]), 24);
        assert_eq!(p.syscall(8, &[fd as u64, 0]), 0); // lseek
        let out = p.user_buf(b"");
        assert_eq!(p.syscall(0, &[fd as u64, out, 100]), 24);
        assert_eq!(p.read_buf(out).unwrap(), b"written through the shim");
        assert_eq!(p.syscall(3, &[fd as u64]), 0);
        // Reading a closed fd fails with -EBADF.
        assert_eq!(p.syscall(0, &[fd as u64, out, 1]), -9);
    }

    #[test]
    fn open_missing_returns_negative_enoent() {
        let mut p = env();
        let path = p.user_buf(b"/ghost");
        assert_eq!(p.syscall(2, &[path, 0]), -2);
    }

    #[test]
    fn mkdir_and_unlink_via_syscalls() {
        let mut p = env();
        let dir = p.user_buf(b"/data");
        assert_eq!(p.syscall(83, &[dir]), 0);
        let path = p.user_buf(b"/data/f");
        let fd = p.syscall(2, &[path, O_CREAT]);
        assert!(fd >= 0);
        p.syscall(3, &[fd as u64]);
        assert_eq!(p.syscall(87, &[path]), 0);
        assert_eq!(p.syscall(2, &[path, 0]), -2, "unlinked");
    }

    #[test]
    fn syscalls_share_state_with_direct_vfs() {
        let mut p = env();
        // Create through the VFS directly...
        {
            let vfs = p.vfs();
            let mut vfs = vfs.borrow_mut();
            let fd = vfs.create("/direct").unwrap();
            vfs.write(fd, b"hi").unwrap();
            vfs.close(fd).unwrap();
        }
        // ...and see it through the syscall interface.
        let path = p.user_buf(b"/direct");
        let fd = p.syscall(2, &[path, 0]);
        assert!(fd >= 0);
        let out = p.user_buf(b"");
        assert_eq!(p.syscall(0, &[fd as u64, out, 10]), 2);
    }

    #[test]
    fn getpid_is_one() {
        let mut p = env();
        assert_eq!(p.syscall(39, &[]), 1);
    }

    #[test]
    fn unregistered_syscall_is_enosys() {
        let mut p = env();
        assert_eq!(p.syscall(57, &[]), -38); // fork
    }

    #[test]
    fn eventfd2_read_write_by_syscall_number() {
        let mut p = env();
        let fd = p.syscall(290, &[5, 0]); // eventfd2(5, 0)
        assert!(fd as u64 >= EVENT_FD_BASE, "event fd space: {fd}");
        // write(fd, buf, 8) adds to the counter.
        let add = p.user_buf(&7u64.to_le_bytes());
        assert_eq!(p.syscall(1, &[fd as u64, add, 8]), 8);
        // read(fd, buf, 8) returns the whole counter.
        let out = p.user_buf(b"");
        assert_eq!(p.syscall(0, &[fd as u64, out, 8]), 8);
        let bytes = p.read_buf(out).unwrap();
        assert_eq!(u64::from_le_bytes(bytes[..8].try_into().unwrap()), 12);
        // Empty counter reads EAGAIN.
        assert_eq!(p.syscall(0, &[fd as u64, out, 8]), -11);
        assert_eq!(p.syscall(3, &[fd as u64]), 0); // close
        assert_eq!(p.syscall(0, &[fd as u64, out, 8]), -9); // EBADF
    }

    #[test]
    fn eventfd_semaphore_flag_via_syscall() {
        let mut p = env();
        let fd = p.syscall(290, &[2, 1]) as u64; // EFD_SEMAPHORE
        let out = p.user_buf(b"");
        for _ in 0..2 {
            assert_eq!(p.syscall(0, &[fd, out, 8]), 8);
            let bytes = p.read_buf(out).unwrap();
            assert_eq!(u64::from_le_bytes(bytes[..8].try_into().unwrap()), 1);
        }
        assert_eq!(p.syscall(0, &[fd, out, 8]), -11);
    }

    #[test]
    fn epoll_family_by_syscall_number() {
        let mut p = env();
        let epfd = p.syscall(291, &[0]) as u64; // epoll_create1
        assert!(epfd >= EVENT_FD_BASE);
        let efd = p.syscall(290, &[0, 0]) as u64; // eventfd2
        // ADD with EPOLLIN interest.
        assert_eq!(
            p.syscall(233, &[epfd, EPOLL_CTL_ADD, efd, u64::from(EventMask::IN.bits())]),
            0
        );
        // Nothing ready yet.
        let evbuf = p.user_buf(b"");
        assert_eq!(p.syscall(232, &[epfd, evbuf, 8, 0]), 0);
        // Make the eventfd readable, then epoll_wait reports it.
        let add = p.user_buf(&1u64.to_le_bytes());
        assert_eq!(p.syscall(1, &[efd, add, 8]), 8);
        assert_eq!(p.syscall(232, &[epfd, evbuf, 8, 0]), 1);
        let events = PosixEnv::decode_epoll_events(&p.read_buf(evbuf).unwrap());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].1, efd, "token is the fd");
        assert!(events[0].0.contains(EventMask::IN));
        // DEL then wait is quiet again.
        assert_eq!(p.syscall(233, &[epfd, EPOLL_CTL_DEL, efd, 0]), 0);
        assert_eq!(p.syscall(232, &[epfd, evbuf, 8, 0]), 0);
    }

    #[test]
    fn epoll_ctl_errors_by_syscall_number() {
        let mut p = env();
        let epfd = p.syscall(291, &[0]) as u64;
        let efd = p.syscall(290, &[0, 0]) as u64;
        // Unknown target fd.
        assert_eq!(p.syscall(233, &[epfd, EPOLL_CTL_ADD, 0x9999, 1]), -9);
        // Unknown epfd.
        assert_eq!(p.syscall(233, &[0x9999, EPOLL_CTL_ADD, efd, 1]), -9);
        // Double add → EEXIST.
        assert_eq!(p.syscall(233, &[epfd, EPOLL_CTL_ADD, efd, 1]), 0);
        assert_eq!(p.syscall(233, &[epfd, EPOLL_CTL_ADD, efd, 1]), -17);
        // Bad op → EINVAL.
        assert_eq!(p.syscall(233, &[epfd, 99, efd, 1]), -22);
        // epoll_wait on a non-epoll fd → EBADF.
        assert_eq!(p.syscall(232, &[efd, 0, 8, 0]), -9);
    }

    #[test]
    fn external_sources_join_the_fd_table() {
        let mut p = env();
        let src = ReadySource::new();
        let fd = p.install_source(src.clone());
        let epfd = p.syscall(291, &[0]) as u64;
        assert_eq!(
            p.syscall(233, &[epfd, EPOLL_CTL_ADD, fd, u64::from(EventMask::IN.bits())]),
            0
        );
        let evbuf = p.user_buf(b"");
        assert_eq!(p.syscall(232, &[epfd, evbuf, 8, 0]), 0);
        src.raise(EventMask::IN);
        assert_eq!(p.syscall(232, &[epfd, evbuf, 8, 0]), 1);
        let events = PosixEnv::decode_epoll_events(&p.read_buf(evbuf).unwrap());
        assert_eq!(events[0].1, fd);
    }

    #[test]
    fn epoll_create_legacy_number_works_too() {
        let mut p = env();
        let epfd = p.syscall(213, &[16]); // epoll_create(size)
        assert!(epfd as u64 >= EVENT_FD_BASE);
    }

    #[test]
    fn closing_fd_removes_it_from_epoll_sets() {
        let mut p = env();
        let epfd = p.syscall(291, &[0]) as u64;
        let efd = p.syscall(290, &[1, 0]) as u64; // readable immediately
        assert_eq!(
            p.syscall(233, &[epfd, EPOLL_CTL_ADD, efd, u64::from(EventMask::IN.bits())]),
            0
        );
        let evbuf = p.user_buf(b"");
        assert_eq!(p.syscall(232, &[epfd, evbuf, 8, 0]), 1);
        // close() without EPOLL_CTL_DEL: Linux drops the registration on
        // final close; a frozen-ready dead fd must not wake us forever.
        assert_eq!(p.syscall(3, &[efd]), 0);
        assert_eq!(p.syscall(232, &[epfd, evbuf, 8, 0]), 0);
    }

    #[test]
    fn epoll_wait_zero_maxevents_is_einval() {
        let mut p = env();
        let epfd = p.syscall(291, &[0]) as u64;
        let evbuf = p.user_buf(b"");
        assert_eq!(p.syscall(232, &[epfd, evbuf, 0, 0]), -22);
    }

    #[test]
    fn legacy_eventfd_284_ignores_flags_arg() {
        let mut p = env();
        // eventfd(2) has no flags parameter; stray bits must not make
        // the counter a semaphore.
        let fd = p.syscall(284, &[2, 1]) as u64;
        let out = p.user_buf(b"");
        assert_eq!(p.syscall(0, &[fd, out, 8]), 8);
        let bytes = p.read_buf(out).unwrap();
        assert_eq!(
            u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            2,
            "whole counter, not a semaphore decrement"
        );
    }
}
