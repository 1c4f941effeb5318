//! Sockets: what a [`SocketHandle`] names, and the calls an application
//! makes on one.
//!
//! A socket owns its readiness cell, and whatever changes the socket's
//! state publishes through it there and then ([`publish`]): `pump`
//! walks no sockets. The handle says where the socket lives — a
//! connection in the [`ConnTable`](super::conns::ConnTable), a listener
//! or a UDP socket in the map its tag names, keyed by port — so
//! resolving one is a single lookup and there is no handle table. The
//! README ("The socket seam") lists the publish sites.

use std::collections::VecDeque;

use ukevent::{EventMask, ReadySource};
use uknetdev::netbuf::Netbuf;
use ukplat::{Errno, Result};

use super::conns::{ConnId, TcpConn};
use super::{take_or_alloc, NetStack, SocketHandle};
use crate::icmp;
use crate::ipv4::IpProto;
use crate::flow::flow_key;
use crate::tcp::{Tcb, TcbConfig, TcbStats, TcpState};
use crate::{Endpoint, Ipv4Addr};

/// Most datagrams a UDP socket queues before new arrivals are dropped
/// (bounds how much of the pool a flooded socket can pin).
pub(super) const UDP_RX_QUEUE_CAP: usize = 256;

/// Most echo replies kept for [`NetStack::ping_replies`] to drain. A
/// reply is something the wire decides to send: a peer spraying
/// unsolicited ones at a server that never drains them fills this much
/// and no more (the rest are dropped, and counted as such).
pub(super) const PING_REPLIES_CAP: usize = 64;

/// A listener's handle is this tag over its port and a UDP socket's is
/// [`UDP_TAG`] over its port — the key of the map the socket lives in.
/// Both tags sit above connection handles (`generation << 32 | slot`,
/// generation ≤ 0xffff, so < 2⁴⁸) — the three handle spaces can never
/// collide, and a garbage handle decodes to generation 0, which no
/// live connection ever carries.
pub(super) const LISTENER_TAG: usize = 1 << 48;
pub(super) const UDP_TAG: usize = 1 << 49;

/// The port a listener or UDP handle names (`Some` for `tag | port`).
#[inline]
fn tagged_port(h: usize, tag: usize) -> Option<u16> {
    (h & !0xffff == tag).then_some(h as u16)
}

/// Publishes a socket's readiness through its cell, if it was ever
/// asked for one (`None` costs this branch; `level` is not computed) —
/// called by whatever changed the socket's state, while it holds the
/// socket. Rising bits are edges; `new_input` (input was queued just
/// now) also re-triggers `EPOLLET` watchers while `IN` is already high,
/// as Linux does on every arrival.
#[inline]
pub(super) fn publish(
    ready: &Option<ReadySource>,
    level: impl FnOnce() -> EventMask,
    new_input: bool,
) {
    let Some(src) = ready else { return };
    let level = level();
    let had_in = src.current().contains(EventMask::IN);
    src.set_level(level);
    if new_input && had_in && level.contains(EventMask::IN) {
        src.pulse();
    }
}

/// What a UDP socket's receive queue holds per datagram.
type UdpQueued = (Endpoint, Netbuf);

// A socket queue moves its elements on every push and pop; the buffer
// rides in it as a one-word handle and the rest is the key beside it.
// A fat descriptor must not creep back in.
const _: () = assert!(size_of::<UdpQueued>() <= 48);

pub(super) struct UdpSocket {
    /// Received datagrams, held as the pooled buffers they arrived in
    /// (payload trimmed to the UDP body) — recycled on receive.
    pub(super) rx: VecDeque<UdpQueued>,
    /// The readiness cell, once [`NetStack::ready_source`] minted it.
    pub(super) ready: Option<ReadySource>,
}

impl UdpSocket {
    /// The UDP row of [`NetStack::readiness`].
    pub(super) fn readiness(&self) -> EventMask {
        if self.rx.is_empty() {
            EventMask::OUT
        } else {
            EventMask::OUT | EventMask::IN
        }
    }
}

pub(super) struct TcpListener {
    /// Half-open (SYN_RECEIVED) connections, oldest first — the
    /// bounded SYN queue. Overflow evicts the front.
    pub(super) syn_queue: VecDeque<ConnId>,
    /// Fully established connections awaiting `tcp_accept`.
    pub(super) backlog: VecDeque<SocketHandle>,
    /// The readiness cell, once [`NetStack::ready_source`] minted it.
    pub(super) ready: Option<ReadySource>,
}

impl TcpListener {
    /// The listener row of [`NetStack::readiness`].
    pub(super) fn readiness(&self) -> EventMask {
        if self.backlog.is_empty() {
            EventMask::EMPTY
        } else {
            EventMask::IN
        }
    }
}

impl NetStack {
    // --- Readiness (ukevent integration) ------------------------------

    /// Computes the current level-triggered readiness of a socket:
    ///
    /// - listeners: `EPOLLIN` while the accept queue is non-empty;
    /// - UDP sockets: `EPOLLIN` while datagrams are queued, `EPOLLOUT`
    ///   always (sends never block);
    /// - TCP connections: `EPOLLIN` on buffered rx data, `EPOLLRDHUP`
    ///   (plus `EPOLLIN`) once the peer's FIN arrived, `EPOLLOUT` while
    ///   the send buffer has room, `EPOLLHUP` when fully closed;
    /// - unknown/closed handles: `EPOLLHUP`.
    pub(crate) fn readiness(&self, sock: SocketHandle) -> EventMask {
        let level = if let Some(port) = tagged_port(sock.0, LISTENER_TAG) {
            self.listeners.get(&port).map(TcpListener::readiness)
        } else if let Some(port) = tagged_port(sock.0, UDP_TAG) {
            self.udp_socks.get(&port).map(UdpSocket::readiness)
        } else {
            self.conn(sock).map(TcpConn::readiness)
        };
        level.unwrap_or(EventMask::HUP)
    }

    /// Returns the shared readiness cell for `sock` (event queues
    /// register it: it implements [`ukevent::Pollable`]), minting it on
    /// first use. It lives in the socket, and whatever changes the
    /// socket's state — accept queue, rx data, tx window, FIN —
    /// publishes the new level through it as edges; a reaped
    /// connection's cell gets a final `EPOLLHUP`. A handle that resolves
    /// to nothing gets a detached cell at `EPOLLHUP`: nothing is stored.
    pub fn ready_source(&mut self, sock: SocketHandle) -> ReadySource {
        let level = self.readiness(sock);
        let cell = if let Some(port) = tagged_port(sock.0, LISTENER_TAG) {
            self.listeners.get_mut(&port).map(|l| &mut l.ready)
        } else if let Some(port) = tagged_port(sock.0, UDP_TAG) {
            self.udp_socks.get_mut(&port).map(|u| &mut u.ready)
        } else {
            ConnId::of(sock).and_then(|id| self.conns.get_mut(id)).map(|c| &mut c.ready)
        };
        let src = match cell {
            Some(cell) => cell.get_or_insert_with(ReadySource::new).clone(),
            None => ReadySource::new(),
        };
        src.set_level(level);
        src
    }

    /// The sweep `pump` used to end in, kept as a checker: every cell a
    /// socket holds shows exactly the readiness the socket computes, so
    /// every suite that pumps proves no publish site was missed.
    #[cfg(debug_assertions)]
    pub(super) fn assert_readiness_published(&self) {
        let conns = self.conns.iter().map(|c| (&c.ready, c.readiness()));
        let cells = conns
            .chain(self.listeners.values().map(|l| (&l.ready, l.readiness())))
            .chain(self.udp_socks.values().map(|u| (&u.ready, u.readiness())));
        for (ready, level) in cells {
            let published = ready.as_ref().map_or(level, ReadySource::current);
            assert_eq!(published, level, "a socket's readiness changed without a publish");
        }
    }

    // --- UDP ----------------------------------------------------------

    /// Binds a UDP socket to `port`.
    // ukcheck: allow(alloc) -- socket creation is control plane; the
    // per-datagram path reuses the queue allocated here
    pub fn udp_bind(&mut self, port: u16) -> Result<SocketHandle> {
        if self.udp_socks.contains_key(&port) {
            return Err(Errno::AddrInUse);
        }
        self.udp_socks.insert(port, UdpSocket { rx: VecDeque::new(), ready: None });
        Ok(SocketHandle(UDP_TAG | port as usize))
    }

    /// The port a live UDP socket is bound to.
    fn udp_port(&self, sock: SocketHandle) -> Result<u16> {
        tagged_port(sock.0, UDP_TAG)
            .filter(|port| self.udp_socks.contains_key(port))
            .ok_or(Errno::BadF)
    }

    /// Pops a UDP socket's next queued datagram and publishes the
    /// readiness that leaves.
    fn udp_pop(&mut self, sock: SocketHandle) -> Option<UdpQueued> {
        let s = self.udp_socks.get_mut(&tagged_port(sock.0, UDP_TAG)?)?;
        let dgram = s.rx.pop_front()?;
        publish(&s.ready, || s.readiness(), false);
        Some(dgram)
    }

    /// Sends a datagram: the payload is written once into a pooled
    /// buffer and UDP/IP/Ethernet headers are prepended in place.
    ///
    /// The stack does not fragment: payloads beyond a packet buffer's
    /// tailroom ([`BUF_CAP`] − [`TX_HEADROOM`] = 1952 bytes — already
    /// past the 1500-byte wire MTU) are rejected with `EINVAL`.
    pub fn udp_send_to(&mut self, sock: SocketHandle, data: &[u8], to: Endpoint) -> Result<()> {
        let src_port = self.udp_port(sock)?;
        self.stage_udp(src_port, data, to)?;
        self.flush_tx()
    }

    /// `sendmmsg`-style burst send: stages every `(payload, dest)`
    /// datagram, then pushes the whole batch to the device in bursts —
    /// one `tx_burst` sweep instead of one flush per datagram.
    ///
    /// Returns the datagrams sent. Like `sendmmsg(2)`, a failing
    /// datagram stops the burst and is reported as an error only when
    /// nothing was sent before it.
    pub fn udp_send_burst<'a, I>(&mut self, sock: SocketHandle, msgs: I) -> Result<usize>
    where
        I: IntoIterator<Item = (&'a [u8], Endpoint)>,
    {
        let src_port = self.udp_port(sock)?;
        let mut sent = 0;
        let mut first_err = None;
        for (data, to) in msgs {
            match self.stage_udp(src_port, data, to) {
                Ok(()) => sent += 1,
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        let flushed = self.flush_tx();
        if sent == 0 {
            if let Some(e) = first_err {
                return Err(e);
            }
            flushed?;
        }
        // Partial success wins over a late error (sendmmsg contract):
        // a flush failure leaves the tail staged for the next flush,
        // nothing is lost.
        Ok(sent)
    }

    /// Copies the next queued datagram into `out` (truncating to fit)
    /// and recycles its buffer — the allocation-free receive path.
    /// Returns the sender and the copied length.
    pub fn udp_recv_into(
        &mut self,
        sock: SocketHandle,
        out: &mut [u8],
    ) -> Option<(Endpoint, usize)> {
        let (from, nb) = self.udp_pop(sock)?;
        let n = nb.len().min(out.len());
        out[..n].copy_from_slice(&nb.payload()[..n]);
        self.recycle(nb);
        Some((from, n))
    }

    /// Takes the next queued datagram as the pooled buffer it arrived
    /// in (payload trimmed to the UDP body) — the zero-copy UDP
    /// receive path, same ownership contract as
    /// [`tcp_recv_burst_netbuf`](Self::tcp_recv_burst_netbuf): the
    /// caller hands the buffer back via [`recycle`](Self::recycle)
    /// when done.
    pub fn udp_recv_netbuf(&mut self, sock: SocketHandle) -> Option<(Endpoint, Netbuf)> {
        self.udp_pop(sock)
    }

    /// `recvmmsg`-style burst receive: drains up to `max` queued
    /// datagrams, packing their payloads back-to-back into `buf` and
    /// appending one `(sender, length)` pair per datagram to `msgs`
    /// (the caller slices `buf` by running offset). Stops early when
    /// the remaining space cannot hold the next datagram whole (no
    /// truncation in burst mode — size `buf` for `max` MTU-sized
    /// datagrams). Returns the datagrams received this call.
    ///
    /// Allocation-free in steady state: payloads copy straight from
    /// the queued netbufs, which recycle into the pool.
    pub fn udp_recv_burst_into(
        &mut self,
        sock: SocketHandle,
        buf: &mut [u8],
        msgs: &mut Vec<(Endpoint, usize)>,
        max: usize,
    ) -> usize {
        let mut received = 0;
        let mut off = 0;
        let port = tagged_port(sock.0, UDP_TAG);
        if let Some(s) = port.and_then(|p| self.udp_socks.get_mut(&p)) {
            while received < max {
                // Stops at an empty queue or a datagram that does not fit whole.
                let fits = |(_, nb): &mut UdpQueued| off + nb.len() <= buf.len();
                let Some((from, nb)) = s.rx.pop_front_if(fits) else { break };
                buf[off..off + nb.len()].copy_from_slice(nb.payload());
                msgs.push((from, nb.len()));
                off += nb.len();
                received += 1;
                self.pool.give_back_chain(nb);
            }
            if received > 0 {
                publish(&s.ready, || s.readiness(), false);
            }
        }
        received
    }

    // --- TCP ----------------------------------------------------------

    /// Starts listening on `port`.
    // ukcheck: allow(alloc) -- listener creation is control plane; the
    // SYN/accept queues are pre-sized to the backlog here so the
    // handshake path never grows them
    pub fn tcp_listen(&mut self, port: u16) -> Result<SocketHandle> {
        if self.listeners.contains_key(&port) {
            return Err(Errno::AddrInUse);
        }
        self.listeners.insert(
            port,
            TcpListener {
                syn_queue: VecDeque::with_capacity(self.config.listen_backlog),
                backlog: VecDeque::with_capacity(self.config.listen_backlog),
                ready: None,
            },
        );
        Ok(SocketHandle(port as usize | LISTENER_TAG))
    }

    /// Accepts a pending connection, if any. Only fully established
    /// connections ever reach the accept backlog — half-open ones wait
    /// in the listener's SYN queue until their handshake completes.
    pub fn tcp_accept(&mut self, listener: SocketHandle) -> Option<SocketHandle> {
        let l = self.listeners.get_mut(&tagged_port(listener.0, LISTENER_TAG)?)?;
        let conn = l.backlog.pop_front();
        publish(&l.ready, || l.readiness(), false);
        conn
    }

    /// What every TCB of this stack is configured with.
    pub(super) fn tcb_config(&self) -> TcbConfig {
        TcbConfig {
            mss: self.config.mss,
            congestion_control: self.config.congestion_control,
            sack: self.config.sack,
            rack: self.config.rack,
            pacing: self.config.pacing,
            keepalive: self.config.keepalive,
            lean: self.config.lean_tcbs,
        }
    }

    /// Applies [`tcb_config`](Self::tcb_config) to a fresh TCB and
    /// stamps it with the current time.
    pub(super) fn configure_tcb(&self, tcb: &mut Tcb) {
        tcb.configure(self.tcb_config());
        tcb.set_now(self.now_ns());
    }

    /// Starts an active connection; completes after network pumping.
    ///
    /// Ephemeral port selection scans for a port whose `(port, peer)`
    /// flow key is free: a flow lingering in TIME_WAIT blocks only its
    /// exact 4-tuple, and its 2MSL reap recycles the port.
    pub fn tcp_connect(&mut self, to: Endpoint) -> Result<SocketHandle> {
        let mut port = self.next_ephemeral;
        let mut chosen = None;
        for _ in 0..=(65535u32 - 49152) {
            if self.conns.lookup(flow_key(port, to)).is_none() {
                chosen = Some(port);
                break;
            }
            port = if port == 65535 { 49152 } else { port + 1 };
        }
        let local_port = chosen.ok_or(Errno::AddrInUse)?;
        self.next_ephemeral = if local_port == 65535 { 49152 } else { local_port + 1 };
        self.iss = self.iss.wrapping_add(64_000);
        let mut tcb = Tcb::connect(local_port, to.port, self.iss);
        self.configure_tcb(&mut tcb);
        let id = self.conns.insert(tcb, to, local_port);
        self.flush_tcp()?;
        Ok(id.handle())
    }

    /// Resolves a handle to its live connection.
    fn conn(&self, sock: SocketHandle) -> Option<&TcpConn> {
        self.conns.get(ConnId::of(sock)?)
    }

    /// Connection state.
    pub fn tcp_state(&self, conn: SocketHandle) -> Option<TcpState> {
        self.conn(conn).map(|c| c.tcb.state)
    }

    /// Queues data on a connection, returning the bytes accepted — a
    /// partial write when the send buffer is short on space (`EAGAIN`
    /// when it is full because the peer's window stays closed).
    pub fn tcp_send(&mut self, conn: SocketHandle, data: &[u8]) -> Result<usize> {
        let accepted = self.tcp_send_queued(conn, data)?;
        self.flush_tcp()?;
        Ok(accepted)
    }

    /// Queues data on a connection *without* flushing segments to the
    /// device — the burst-TX half of [`tcp_send`](Self::tcp_send).
    /// Callers batch any number of sends across any number of
    /// connections inside one event-loop turn, then emit everything as
    /// a single burst with [`flush_output`](Self::flush_output).
    ///
    /// The bytes are written **once**, directly into pooled buffers on
    /// the connection's zero-copy send queue; emission moves those
    /// buffers into outgoing frames (chained into super-segments on
    /// the TSO path) without ever re-copying the payload.
    pub fn tcp_send_queued(&mut self, conn: SocketHandle, data: &[u8]) -> Result<usize> {
        let id = ConnId::of(conn).ok_or(Errno::BadF)?;
        let c = self.conns.get_mut(id).ok_or(Errno::BadF)?;
        let accepted = c.tcb.app_send_with(data, || take_or_alloc(&mut self.pool))?;
        publish(&c.ready, || c.readiness(), false);
        self.conns.mark_dirty(id);
        Ok(accepted)
    }

    /// Emits all pending transport output as one burst: segments every
    /// connection's send queue into pooled buffers and pushes the
    /// staged frames through `tx_burst` sweeps. The companion to
    /// [`tcp_send_queued`](Self::tcp_send_queued) (idempotent when
    /// there is nothing to send) — one event-loop turn, one flush.
    pub fn flush_output(&mut self) -> Result<()> {
        self.flush_tcp()
    }

    /// Copies buffered received bytes into `out` — the allocation-free
    /// receive *copy* path (the zero-copy path is
    /// [`tcp_recv_burst_netbuf`](Self::tcp_recv_burst_netbuf)). Drained
    /// queue buffers recycle straight back to the pool. A drain that reopens
    /// the receive window far enough stages a window-update ACK; output
    /// is flushed here only when some is actually pending, so an empty
    /// read costs no output poll and a held ACK stays held for the
    /// reply.
    pub fn tcp_recv_into(&mut self, conn: SocketHandle, out: &mut [u8]) -> Result<usize> {
        let id = ConnId::of(conn).ok_or(Errno::BadF)?;
        let c = self.conns.get_mut(id).ok_or(Errno::BadF)?;
        let n = c.tcb.app_recv_into_with(out, |nb| self.pool.give_back_chain(nb));
        if n > 0 {
            publish(&c.ready, || c.readiness(), false);
        }
        if c.tcb.has_pending_control() {
            self.conns.mark_dirty(id);
            self.flush_tcp()?;
        }
        Ok(n)
    }

    /// Takes received buffers whole — the **zero-copy receive path**:
    /// the pooled netbufs the peer's bytes arrived in (each trimmed to
    /// its TCP payload extent) move straight to the application, no
    /// copy anywhere between the wire and the caller. Drains up to
    /// `max` queued payload buffers into `out` with one readiness
    /// publish and at most one output flush for the whole batch;
    /// returns the buffers taken.
    ///
    /// **Ownership contract:** the caller owns the buffers and must
    /// hand each back with [`recycle`](Self::recycle) once consumed —
    /// that returns it to the owning pool (buffers from other pools or
    /// the heap are simply dropped there). Holding buffers
    /// indefinitely pins pool capacity. A window-update ACK may be
    /// staged when the drain reopens the receive window far enough; it
    /// is flushed here only when output is actually pending.
    pub fn tcp_recv_burst_netbuf(
        &mut self,
        conn: SocketHandle,
        out: &mut Vec<Netbuf>,
        max: usize,
    ) -> usize {
        let Some(id) = ConnId::of(conn) else { return 0 };
        let Some(c) = self.conns.get_mut(id) else { return 0 };
        let mut taken = 0;
        while taken < max {
            match c.tcb.app_recv_netbuf() {
                Some(nb) => {
                    out.push(nb);
                    taken += 1;
                }
                None => break,
            }
        }
        if taken > 0 {
            publish(&c.ready, || c.readiness(), false);
            if c.tcb.has_pending_control() {
                self.conns.mark_dirty(id);
                let _ = self.flush_tcp();
            }
        }
        taken
    }

    /// Free send-buffer space on a connection (0 for closed handles).
    #[cfg(test)]
    pub(crate) fn tcp_send_capacity(&self, conn: SocketHandle) -> usize {
        self.conn(conn).map(|c| c.tcb.send_capacity()).unwrap_or(0)
    }

    /// Whether the peer's advertised receive window admits no more data.
    #[cfg(test)]
    pub(crate) fn tcp_window_closed(&self, conn: SocketHandle) -> bool {
        self.conn(conn).map(|c| c.tcb.window_closed()).unwrap_or(true)
    }

    /// One connection's cumulative event counters (tests and
    /// diagnostics). The stack-wide `netstack.tcp.*` counters sum the
    /// same fields over all connections.
    pub fn tcp_stats(&self, conn: SocketHandle) -> Option<TcbStats> {
        self.conn(conn).map(|c| *c.tcb.stats())
    }

    /// Current congestion window (bytes) for one connection.
    pub fn tcp_cwnd(&self, conn: SocketHandle) -> usize {
        self.conn(conn).map(|c| c.tcb.cwnd()).unwrap_or(0)
    }

    /// Bytes ready to read.
    pub fn tcp_readable(&self, conn: SocketHandle) -> usize {
        self.conn(conn).map(|c| c.tcb.readable()).unwrap_or(0)
    }

    /// Whether the peer closed (EOF).
    pub fn tcp_peer_closed(&self, conn: SocketHandle) -> bool {
        self.conn(conn).map(|c| c.tcb.peer_closed()).unwrap_or(true)
    }

    /// The remote endpoint of a connection (`getpeername` shape).
    pub fn tcp_peer(&self, conn: SocketHandle) -> Option<Endpoint> {
        self.conn(conn).map(|c| c.remote)
    }

    /// Starts an orderly close.
    pub fn tcp_close(&mut self, conn: SocketHandle) -> Result<()> {
        let id = ConnId::of(conn).ok_or(Errno::BadF)?;
        self.conns.get_mut(id).ok_or(Errno::BadF)?.tcb.app_close();
        self.conns.mark_dirty(id);
        // The flush publishes what the close did to readiness.
        self.flush_tcp()
    }

    /// Sends an ICMP echo request to `dst`.
    pub fn ping(&mut self, dst: Ipv4Addr, ident: u16, seq: u16) -> Result<()> {
        let mut nb = take_or_alloc(&mut self.pool);
        nb.append(b"unikraft-rs ping");
        icmp::encode_echo_into(true, ident, seq, &mut nb);
        self.config.ip_to(dst, IpProto::Icmp, nb.len()).encode_into(&mut nb);
        self.send_ipv4_nb(dst, IpProto::Icmp, nb);
        self.flush_tx()
    }

    /// Drains echo replies received so far: (peer, ident, seq) — at most
    /// [`PING_REPLIES_CAP`] of them; replies heard while that many wait
    /// here are dropped.
    // ukcheck: allow(alloc) -- diagnostics: the caller's copy; the
    // stack's own storage stays as `new` sized it
    pub fn ping_replies(&mut self) -> Vec<(Ipv4Addr, u16, u16)> {
        self.ping_replies.drain(..).collect()
    }
}
