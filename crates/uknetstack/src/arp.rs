//! ARP: the request/reply codec, and `Neighbors` — the neighbour
//! table with the packets parked behind it.
//!
//! [`NetStack`](crate::stack::NetStack) resolves every frame's next hop
//! here, so the file is on `ukcheck`'s hot list: `Neighbors::resolve`
//! is the per-frame call and allocates nothing; parking and learning
//! run when a neighbour is new.

use std::collections::{HashMap, VecDeque};

use uknetdev::netbuf::Netbuf;
use ukplat::{Errno, Result};

use crate::ipv4::IpProto;
use crate::{Ipv4Addr, Mac};

/// ARP packet length for Ethernet/IPv4.
pub(crate) const ARP_LEN: usize = 28;

/// ARP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has.
    Request,
    /// Is-at.
    Reply,
}

/// A parsed ARP packet (Ethernet/IPv4 only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sha: Mac,
    /// Sender protocol address.
    pub spa: Ipv4Addr,
    /// Target hardware address.
    pub tha: Mac,
    /// Target protocol address.
    pub tpa: Ipv4Addr,
}

impl ArpPacket {
    /// Serializes to 28 bytes.
    pub fn encode(&self) -> [u8; ARP_LEN] {
        let mut b = [0u8; ARP_LEN];
        b[0..2].copy_from_slice(&1u16.to_be_bytes()); // HTYPE Ethernet
        b[2..4].copy_from_slice(&0x0800u16.to_be_bytes()); // PTYPE IPv4
        b[4] = 6; // HLEN
        b[5] = 4; // PLEN
        let op: u16 = match self.op {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        };
        b[6..8].copy_from_slice(&op.to_be_bytes());
        b[8..14].copy_from_slice(&self.sha.0);
        b[14..18].copy_from_slice(&self.spa.octets());
        b[18..24].copy_from_slice(&self.tha.0);
        b[24..28].copy_from_slice(&self.tpa.octets());
        b
    }

    /// Parses an ARP packet.
    pub fn decode(data: &[u8]) -> Result<ArpPacket> {
        if data.len() < ARP_LEN {
            return Err(Errno::Inval);
        }
        let op = match u16::from_be_bytes([data[6], data[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => return Err(Errno::ProtoNoSupport),
        };
        let mut sha = [0u8; 6];
        sha.copy_from_slice(&data[8..14]);
        let mut tha = [0u8; 6];
        tha.copy_from_slice(&data[18..24]);
        Ok(ArpPacket {
            op,
            sha: Mac(sha),
            spa: Ipv4Addr(u32::from_be_bytes([data[14], data[15], data[16], data[17]])),
            tha: Mac(tha),
            tpa: Ipv4Addr(u32::from_be_bytes([data[24], data[25], data[26], data[27]])),
        })
    }
}

/// Packets parked per next-hop awaiting ARP resolution before
/// *droppable* (non-TCP) packets start being evicted oldest-first
/// (Linux's `unres_qlen` idea). TCP segments are preferred survivors —
/// a dropped segment is recoverable only by a full RTO fire (200 ms
/// floor, then exponential backoff), so evicting one trades a queue
/// slot for orders of magnitude of added latency.
pub(crate) const ARP_PENDING_CAP: usize = 16;

/// Absolute per-next-hop parking bound. Parked packets pin pooled
/// buffers, so even TCP segments must stop accumulating at some point
/// (an application looping `tcp_connect` on an unreachable address
/// would otherwise pin the whole pool); beyond this the oldest packet
/// is dropped regardless of protocol.
pub(crate) const ARP_PENDING_HARD_CAP: usize = 64;

/// A who-has request is broadcast by the packet that opens a next
/// hop's queue, and re-broadcast every this-many `pump` bursts while
/// packets stay parked: self-healing if a request frame was lost to
/// RX-ring overflow, whether or not the application keeps sending, and
/// without a request-per-packet storm.
pub(crate) const ARP_REQUEST_RETRY_PUMPS: u64 = 8;

/// Slots in the next-hop memo: resolved `(dst IP → MAC)` pairs are
/// remembered until the table next changes, so frames to the same few
/// peers do one ARP-table lookup per peer, not per frame or per sweep.
const ARP_MEMO_SIZE: usize = 8;

/// Most mappings the table keeps (Linux's `gc_thresh3` default). What
/// the wire can make the table learn is bounded by this, not by how
/// many senders a peer can forge: a new mapping past it takes the place
/// of the one learned longest ago, and a neighbour that lost its place
/// while still in use costs one who-has exchange to learn again.
pub(crate) const ARP_TABLE_CAP: usize = 1024;

/// Packets parked for one unresolved next-hop: IP-level packets with
/// Ethernet headroom still reserved, tagged with their transport
/// protocol so eviction can prefer droppable (non-TCP) traffic. A queue
/// exists only while it holds something.
#[derive(Default)]
struct PendingQueue {
    packets: Vec<(IpProto, Netbuf)>,
    /// Pump bursts survived while parked (drives the who-has retry —
    /// see [`ARP_REQUEST_RETRY_PUMPS`]).
    pump_ticks: u64,
}

/// What [`Neighbors::park`] did with a packet.
pub(crate) struct Parked {
    /// The packet that lost its place to this one, for the caller to
    /// count and recycle.
    pub(crate) evicted: Option<Netbuf>,
    /// Whether this packet opened its next hop's queue: the caller
    /// broadcasts a who-has.
    pub(crate) request_due: bool,
    /// Packets now parked for the next hop.
    pub(crate) queued: usize,
}

/// The neighbour table and everything that waits on it: the `IP → MAC`
/// mappings learned from ARP, the packets parked behind next hops not
/// resolved yet, the next-hop memo in front of the table, and the
/// who-has retry cadence.
///
/// Invariants, whatever the wire and the application do: at most
/// [`ARP_TABLE_CAP`] mappings; at most [`ARP_PENDING_HARD_CAP`] packets
/// parked per next hop, non-TCP ones evicted first once past
/// [`ARP_PENDING_CAP`]; and every parked buffer leaves exactly once —
/// as [`Parked::evicted`] or released by the [`learn`](Self::learn)
/// that resolves its next hop.
pub(crate) struct Neighbors {
    table: HashMap<Ipv4Addr, Mac>,
    /// The table's keys, oldest mapping first: who makes room at the cap.
    learned: VecDeque<Ipv4Addr>,
    /// Packets waiting for resolution, keyed by next-hop IP.
    pending: HashMap<Ipv4Addr, PendingQueue>,
    /// Next-hop memo: `(dst IP, MAC)` pairs the table resolved, newest
    /// first — cleared by every [`learn`](Self::learn), the only way a
    /// mapping changes, so it is never stale (reused storage).
    memo: Vec<(Ipv4Addr, Mac)>,
    /// Next hops due a who-has re-broadcast this pump (reused).
    retry_due: Vec<Ipv4Addr>,
}

impl Neighbors {
    /// An empty table.
    // ukcheck: allow(alloc) -- built once, in `NetStack::new` (it was
    // that constructor's before `stack/` was split): the maps grow when a
    // neighbour is first learned or parked for, never per frame
    pub(crate) fn new() -> Self {
        Neighbors {
            table: HashMap::new(),
            learned: VecDeque::new(),
            pending: HashMap::new(),
            memo: Vec::with_capacity(ARP_MEMO_SIZE),
            retry_due: Vec::new(),
        }
    }

    /// Resolves a next-hop MAC through the memo first, then the table
    /// (memoizing a hit in place of the oldest pair once the memo is
    /// full). The memo lives until the table learns a mapping, so frames
    /// to the same few peers pay one table lookup per peer for as long
    /// as their mappings stand. (A miss is counted by the stack, as the
    /// packet it parks: `StackStats::arp_parked`.)
    #[inline]
    pub(crate) fn resolve(&mut self, dst: Ipv4Addr) -> Option<Mac> {
        if let Some(&(_, mac)) = self.memo.iter().find(|(ip, _)| *ip == dst) {
            return Some(mac);
        }
        let mac = *self.table.get(&dst)?;
        self.memo.truncate(ARP_MEMO_SIZE - 1);
        self.memo.insert(0, (dst, mac));
        Some(mac)
    }

    /// Parks an IP-level packet behind unresolved next hop `dst`.
    /// Parking is bounded (soft cap evicting droppable traffic first,
    /// hard cap evicting anything) so an unreachable next-hop cannot pin
    /// the buffer pool, and a who-has is due for the packet that opens
    /// the queue (later ones are [`tick`](Self::tick)'s).
    pub(crate) fn park(&mut self, dst: Ipv4Addr, proto: IpProto, nb: Netbuf) -> Parked {
        let pending = self.pending.entry(dst).or_default();
        pending.packets.push((proto, nb));
        let evicted = if pending.packets.len() > ARP_PENDING_HARD_CAP {
            Some(pending.packets.remove(0))
        } else if pending.packets.len() > ARP_PENDING_CAP {
            pending
                .packets
                .iter()
                .position(|(p, _)| *p != IpProto::Tcp)
                .map(|i| pending.packets.remove(i))
        } else {
            None
        };
        Parked {
            evicted: evicted.map(|(_, nb)| nb),
            request_due: pending.packets.len() == 1,
            queued: pending.packets.len(),
        }
    }

    /// Hears that `ip` is at `mac`, from an ARP packet that was
    /// (`to_us`) or was not addressed to this host, and releases the
    /// packets that were parked for `ip`, oldest first. RFC 826's merge
    /// rule decides what the table keeps: a mapping it has is updated;
    /// a new one is added only for a packet addressed to us or a sender
    /// packets are parked for — a host that merely overhears the
    /// segment's ARP traffic, or is sprayed with it, learns nothing. At
    /// [`ARP_TABLE_CAP`] the oldest mapping makes room.
    pub(crate) fn learn(
        &mut self,
        ip: Ipv4Addr,
        mac: Mac,
        to_us: bool,
    ) -> impl Iterator<Item = Netbuf> {
        let waiting = self.pending.remove(&ip);
        if let Some(known) = self.table.get_mut(&ip) {
            *known = mac;
        } else if to_us || waiting.is_some() {
            if self.table.len() >= ARP_TABLE_CAP {
                if let Some(oldest) = self.learned.pop_front() {
                    self.table.remove(&oldest);
                }
            }
            self.table.insert(ip, mac);
            self.learned.push_back(ip);
        }
        // The table changed: memoized next-hops may be stale.
        self.memo.clear();
        waiting.into_iter().flat_map(|q| q.packets).map(|(_, nb)| nb)
    }

    /// The who-has retry (run once per `pump`): every pending next-hop
    /// ticks a per-burst counter and is due a re-broadcast every
    /// [`ARP_REQUEST_RETRY_PUMPS`] pumps —
    /// [`next_retry`](Self::next_retry) hands the due ones out. It is
    /// the one retry: [`park`](Self::park) asks for a who-has only when
    /// a packet opens a queue, so parked packets make progress whether
    /// or not the application keeps sending.
    #[inline]
    pub(crate) fn tick(&mut self) {
        for (dst, pending) in self.pending.iter_mut() {
            pending.pump_ticks += 1;
            if pending.pump_ticks % ARP_REQUEST_RETRY_PUMPS == 0 {
                self.retry_due.push(*dst);
            }
        }
    }

    /// A next hop the last [`tick`](Self::tick) found due a who-has,
    /// until there is none left.
    #[inline]
    pub(crate) fn next_retry(&mut self) -> Option<Ipv4Addr> {
        self.retry_due.pop()
    }

    /// Mappings in the table.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        debug_assert_eq!(self.table.len(), self.learned.len());
        self.table.len()
    }

    /// The protocols of the packets parked for `dst`, oldest first.
    #[cfg(test)]
    pub(crate) fn parked(&self, dst: Ipv4Addr) -> Vec<IpProto> {
        let q = self.pending.get(&dst);
        q.map_or(Vec::new(), |q| q.packets.iter().map(|(p, _)| *p).collect())
    }

    /// Next hops with packets parked.
    #[cfg(test)]
    pub(crate) fn parked_hops(&self) -> usize {
        self.pending.len()
    }

    /// What the memo holds for `dst`, if anything.
    #[cfg(test)]
    pub(crate) fn memoized(&self, dst: Ipv4Addr) -> Option<Mac> {
        self.memo.iter().find(|(ip, _)| *ip == dst).map(|&(_, mac)| mac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_request() {
        let p = ArpPacket {
            op: ArpOp::Request,
            sha: Mac::node(1),
            spa: Ipv4Addr::new(10, 0, 0, 1),
            tha: Mac([0; 6]),
            tpa: Ipv4Addr::new(10, 0, 0, 2),
        };
        let enc = p.encode();
        assert_eq!(ArpPacket::decode(&enc).unwrap(), p);
    }

    #[test]
    fn short_packet_rejected() {
        assert_eq!(ArpPacket::decode(&[0; 10]).unwrap_err(), Errno::Inval);
    }

    #[test]
    fn table_misses_until_it_learns() {
        let mut n = Neighbors::new();
        let ip = Ipv4Addr::new(10, 0, 0, 9);
        assert!(n.resolve(ip).is_none());
        assert_eq!(n.learn(ip, Mac::node(9), true).count(), 0);
        assert_eq!(n.resolve(ip), Some(Mac::node(9)));
        assert_eq!(n.len(), 1);
        // A mapping it has is updated whoever the packet was for, and
        // the memo in front of the table does not outlive the change.
        n.learn(ip, Mac::node(7), false).count();
        assert_eq!(n.resolve(ip), Some(Mac::node(7)));
        assert_eq!(n.len(), 1);
    }

    #[test]
    fn a_full_memo_makes_room_and_every_hop_still_resolves() {
        let mut n = Neighbors::new();
        let hop = |h: u8| Ipv4Addr::new(10, 0, 2, h);
        for h in 0..12 {
            n.learn(hop(h), Mac::node(h), true).count();
        }
        // Twelve next hops through eight slots, in an order that keeps
        // evicting what is about to be asked for.
        for h in (0..12).chain((0..12).rev()).chain((0..12).step_by(5)) {
            assert_eq!(n.resolve(hop(h)), Some(Mac::node(h)));
            assert_eq!(n.memoized(hop(h)), Some(Mac::node(h)), "a hit is memoized, full or not");
            assert!(n.memo.len() <= ARP_MEMO_SIZE);
        }
        // A learn that moves a memoized hop is what the next resolve sees.
        n.learn(hop(10), Mac::node(99), false).count();
        assert_eq!(n.memoized(hop(10)), None);
        assert_eq!(n.resolve(hop(10)), Some(Mac::node(99)));
    }

    #[test]
    fn overheard_senders_are_not_learned_and_the_table_is_capped() {
        let mut n = Neighbors::new();
        let spoofed = |i: u32| Ipv4Addr(0x0a42_0000 + i);
        // ARP traffic of other hosts, overheard: RFC 826 adds nothing.
        for i in 0..10_000 {
            n.learn(spoofed(i), Mac::node(1), false).count();
        }
        assert_eq!(n.len(), 0);
        // Sprayed at us: learned, up to the cap, oldest making room.
        for i in 0..10_000 {
            n.learn(spoofed(i), Mac::node(1), true).count();
        }
        assert_eq!(n.len(), ARP_TABLE_CAP);
        assert!(n.resolve(spoofed(0)).is_none(), "the oldest made room");
        assert!(n.resolve(spoofed(9_999)).is_some());
        // A full table never refuses a mapping packets are parked for,
        // addressed to us or not.
        let real = Ipv4Addr::new(10, 0, 0, 2);
        for _ in 0..3 {
            n.park(real, IpProto::Udp, Netbuf::alloc(64, 0));
        }
        assert_eq!(n.learn(real, Mac::node(2), false).count(), 3);
        assert_eq!(n.resolve(real), Some(Mac::node(2)));
        assert_eq!((n.len(), n.parked_hops()), (ARP_TABLE_CAP, 0));
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Park { hop: u8, tcp: bool },
        Learn { hop: u8, to_us: bool },
        Tick,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        (0u32..16, 0u8..3, any::<bool>()).prop_map(|(kind, hop, flag)| match kind {
            0 => Op::Learn { hop, to_us: flag },
            1..=2 => Op::Tick,
            // Mostly droppable traffic with the odd segment, so the soft
            // cap has something to evict and something to spare.
            _ => Op::Park { hop, tcp: kind % 4 == 3 && flag },
        })
    }

    proptest! {
        /// Under any park / learn / tick sequence over three next hops:
        /// a hop's queue never exceeds the hard cap, nor the soft cap
        /// while it holds anything droppable; nothing but a full hard
        /// cap evicts a TCP segment; the who-has is due on the packet that
        /// opens a hop's queue and every 8th tick it spends unresolved;
        /// and every buffer parked leaves exactly once —
        /// evicted, released, or still parked.
        #[test]
        fn parking_is_bounded_and_every_buffer_leaves_once(
            ops in proptest::collection::vec(arb_op(), 1..400),
        ) {
            let mut n = Neighbors::new();
            let hop = |h: u8| Ipv4Addr::new(10, 0, 1, h);
            // Per hop: parked since last resolved, ticks since first parked.
            let (mut since, mut ticks) = ([0u64; 3], [0u64; 3]);
            let (mut parked, mut evicted, mut released) = (0usize, 0usize, 0usize);
            for op in &ops {
                match *op {
                    Op::Park { hop: h, tcp } => {
                        let before = n.parked(hop(h));
                        let proto = if tcp { IpProto::Tcp } else { IpProto::Udp };
                        let p = n.park(hop(h), proto, Netbuf::alloc(64, 0));
                        parked += 1;
                        since[h as usize] += 1;
                        evicted += usize::from(p.evicted.is_some());
                        let now = n.parked(hop(h));
                        prop_assert_eq!(p.queued, now.len());
                        prop_assert!(now.len() <= ARP_PENDING_HARD_CAP);
                        prop_assert!(
                            now.len() <= ARP_PENDING_CAP || now.iter().all(|p| *p == IpProto::Tcp)
                        );
                        let tcp_of =
                            |q: &[IpProto]| q.iter().filter(|p| **p == IpProto::Tcp).count();
                        if before.len() < ARP_PENDING_HARD_CAP {
                            prop_assert_eq!(tcp_of(&now), tcp_of(&before) + usize::from(tcp));
                        }
                        prop_assert_eq!(p.request_due, since[h as usize] == 1);
                    }
                    Op::Learn { hop: h, to_us } => {
                        let waiting = n.parked(hop(h)).len();
                        let out = n.learn(hop(h), Mac::node(h), to_us).count();
                        prop_assert_eq!(out, waiting, "all of them, once");
                        released += out;
                        prop_assert!(n.parked(hop(h)).is_empty());
                        if waiting > 0 || to_us {
                            prop_assert_eq!(n.resolve(hop(h)), Some(Mac::node(h)));
                        }
                        (since[h as usize], ticks[h as usize]) = (0, 0);
                    }
                    Op::Tick => {
                        n.tick();
                        let mut due = Vec::new();
                        while let Some(d) = n.next_retry() {
                            due.push(d);
                        }
                        for h in 0..3u8 {
                            let waiting = !n.parked(hop(h)).is_empty();
                            ticks[h as usize] += u64::from(waiting);
                            let expect = waiting && ticks[h as usize] % 8 == 0;
                            prop_assert_eq!(due.contains(&hop(h)), expect);
                        }
                    }
                }
                let still: usize = (0..3).map(|h| n.parked(hop(h)).len()).sum();
                prop_assert_eq!(still + evicted + released, parked);
            }
        }
    }
}
