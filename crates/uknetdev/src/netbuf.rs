//! `uk_netbuf`: the packet-buffer wrapper.
//!
//! "In order to develop application-independent network drivers while
//! using the application's or network stack's memory management we
//! introduce a network packet buffer wrapper structure called
//! `uk_netbuf`" (§3.1). The descriptor carries the metadata the driver
//! needs (headroom, length) while the *allocation policy* stays with
//! the application: performance-critical code uses a [`NetbufPool`]
//! (buffers built once, then recycled), memory-frugal code allocates
//! from the heap. Like
//! `struct uk_netbuf *`, a [`Netbuf`] is passed around as one pointer:
//! the descriptor and the bytes stay where they were allocated.
//!
//! # The headroom/ownership model
//!
//! A netbuf is one contiguous storage area split into three regions:
//!
//! ```text
//! [ headroom ............ ][ payload ............ ][ tailroom ... ]
//! ^ offset counts down     ^ offset               ^ offset + len
//! ```
//!
//! The DPDK/Unikraft zero-copy discipline falls out of two operations:
//!
//! - **producers write payload once** into the buffer body ([`append`])
//!   at an offset that leaves all protocol headers' worth of headroom
//!   in front;
//! - **each protocol layer prepends its header in place**
//!   ([`push_header`] / [`push_header_uninit`]) by moving `offset`
//!   *down* into the headroom — no copy of the payload, no intermediate
//!   allocation, one buffer from application to wire.
//!
//! On receive the same buffer walks the stack upward with
//! [`pull_header`]/[`truncate`], so a frame is parsed, demultiplexed
//! and queued on a socket without ever being copied.
//!
//! Ownership follows the buffer, not the layer: whoever holds the
//! `Netbuf` owns it, and when the packet's life ends the holder hands
//! it back to its [`NetbufPool`] (checked by a per-pool identity tag).
//! Drivers never allocate — they only move netbufs between rings.
//!
//! # The burst lifecycle
//!
//! Since the burst datapath, netbufs cross every layer boundary in
//! *batches*, and a buffer's steady-state life is a loop:
//!
//! ```text
//!         ┌───────────────────────────────────────────────────┐
//!         ▼                                                   │
//!  pool ─take─▶ payload + headers (headroom) ─▶ tx_burst      │
//!  (device completes any CsumRequest) ─▶ done-list ─▶         │
//!  harvest/reclaim ─▶ wire ─▶ receiver pool's RX buffer ─▶    │
//!  inject_rx (whole burst) ─▶ rx_burst ─▶ demux sweep ─▶      │
//!  socket queue ─▶ recv_into ─▶ recycle ──────────────────────┘
//! ```
//!
//! A buffer may also carry a transmit-side [`CsumRequest`]: the stack
//! stamps the transport header with the partial pseudo-header sum and
//! the *device* finishes the Internet checksum at `tx_burst` time —
//! checksum offload without any extra buffer walk.
//!
//! # Scatter-gather chains
//!
//! A payload larger than one buffer travels as a *chain*: one head
//! netbuf (headers in its headroom, the first payload bytes in its
//! body) owning a list of fragment buffers ([`chain_append`]) that
//! hold the rest. This is `uk_netbuf`'s `next`/`prev` scatter-gather
//! list recast for ownership semantics: instead of intrusive sibling
//! pointers, the head *owns* its fragments, so a chain moves through
//! rings, staging vectors and the wire as one `Netbuf` value and can
//! never be torn apart by a partial transfer. Chain invariants:
//!
//! - only the **head** carries protocol headers, a [`CsumRequest`] or a
//!   [`GsoRequest`]; fragments are raw payload extents (no headroom);
//! - fragments never nest: appending flattens ([`chain_append`] panics
//!   on a fragment that itself has fragments);
//! - [`len`](Netbuf::len) stays the *head's* extent; chain-aware
//!   accounting uses [`chain_len`]/[`chain_segments`];
//! - recycling is whole-chain: the holder pops every fragment back to
//!   its owning pool before returning the head (pools pre-reserve the
//!   fragment list's capacity so steady-state chain building performs
//!   no heap allocation).
//!
//! [`append`]: Netbuf::append
//! [`chain_append`]: Netbuf::chain_append
//! [`chain_len`]: Netbuf::chain_len
//! [`chain_segments`]: Netbuf::chain_segments
//! [`push_header`]: Netbuf::push_header
//! [`push_header_uninit`]: Netbuf::push_header_uninit
//! [`pull_header`]: Netbuf::pull_header
//! [`truncate`]: Netbuf::truncate

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic source of pool identities (so a buffer can never be
/// returned to a pool it did not come from).
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

/// The byte pattern the `netbuf-sanitizer` feature writes over a
/// buffer's entire storage on give-back. A pool-resident buffer must
/// stay wall-to-wall poison until its next `take`; any other content
/// means someone wrote through a stale handle while the pool owned
/// the bytes.
#[cfg(feature = "netbuf-sanitizer")]
pub(crate) const SANITIZER_POISON: u8 = 0xA5;

/// Per-slot provenance the sanitizer tracks alongside the pool.
///
/// Compiled to nothing without the `netbuf-sanitizer` feature — the
/// zero-alloc bench gates prove the default build pays nothing.
#[cfg(feature = "netbuf-sanitizer")]
#[derive(Debug, Clone, Copy, Default)]
struct SlotSan {
    /// Buffer is out in the datapath (`true`) or home in the pool.
    live: bool,
    /// Call site of the `take` that made the slot live.
    last_take: Option<&'static core::panic::Location<'static>>,
    /// Call site of the most recent give-back.
    last_give_back: Option<&'static core::panic::Location<'static>>,
}

/// A transmit checksum-offload request riding on a netbuf — the role
/// of `virtio_net_hdr`'s `csum_start`/`csum_offset` pair.
///
/// The stack stamps the transport header with the *partial*
/// pseudo-header sum ([`crate::csum::fold_partial_sum`],
/// uncomplemented) and attaches this request; the device completes the
/// Internet checksum over the trailing `region_len` bytes of the frame
/// (the transport header + payload — prepending more headers in front
/// later does not move the region relative to the tail) and stores it
/// at `field_off` within that region.
/// Field widths are narrow (a checksum region is at most one frame), so
/// the `Option<CsumRequest>` takes one word of the descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsumRequest {
    /// Bytes covered, counted back from the end of the payload (the
    /// end of the *chain* payload for a scatter-gather chain).
    pub region_len: u32,
    /// Offset of the 16-bit checksum field within the region.
    pub field_off: u16,
}

/// A TSO/GSO segmentation-offload request riding on a netbuf — the
/// role of `virtio_net_hdr`'s `gso_type`/`gso_size` pair
/// (`VIRTIO_NET_F_HOST_TSO4` shape).
///
/// The stack hands the device one oversized TCP frame (usually a
/// scatter-gather chain) whose headers describe the whole
/// super-segment; the host side cuts it into wire frames of at most
/// `mss` payload bytes each, replicating and fixing up the IPv4/TCP
/// headers and completing per-frame checksums (see [`crate::gso`]).
/// A GSO frame must also carry a [`CsumRequest`] — virtio requires
/// `VIRTIO_NET_F_CSUM` alongside TSO for exactly this reason: the
/// per-frame checksums only exist after the cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GsoRequest {
    /// Maximum TCP payload bytes per cut frame.
    pub mss: u16,
}

/// A retransmission hold riding on an in-flight TCP data frame.
///
/// The stack tags every TCP frame that carries payload bytes with the
/// owning connection and the sequence range of those bytes. When the
/// frame comes back from the device/wire (TX reclaim, ARP-park
/// eviction, testnet recycle), the stack intercepts the recycle and
/// files the still-unacknowledged payload into the connection's
/// retransmission queue instead of the pool — retransmission without
/// ever re-copying application bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHold {
    /// Connection handle the payload belongs to.
    pub conn: u64,
    /// TCP sequence number of the first payload byte.
    pub seq: u32,
    /// Payload byte count (excludes all headers).
    pub payload_len: u32,
    /// Virtual-clock time the frame was (last) transmitted; rides
    /// back with the extent so the sender's RACK logic can judge the
    /// extent's freshness against the reordering window.
    pub sent_ns: u64,
}

/// A packet buffer: an owning, pointer-sized **handle** to one
/// heap-resident descriptor — `struct uk_netbuf *` with Rust ownership.
///
/// Three things make up a buffer, and only the first ever moves:
///
/// - the **handle** (`Netbuf`, one word): what rings, staging vectors,
///   socket queues and fragment lists store and pass. A hop between
///   layers copies eight bytes, whatever the descriptor grows to;
/// - the **descriptor** (`Desc`, private): `uk_netbuf`'s metadata —
///   data offset and length (`data`/`len`), pool slot and identity
///   (`priv`), the pending [`CsumRequest`]/[`GsoRequest`]
///   (`virtio_net_hdr`'s fields), the RX checksum mark, the
///   [`TcpHold`] and the fragment list (`next`). Allocated once, with
///   the buffer;
/// - the **storage** (`buf`/`buflen`): headroom + payload + tailroom,
///   one boxed slice owned by the descriptor.
///
/// Descriptor and storage are allocated when the buffer is built — by a
/// [`NetbufPool`] (when a `take` grows it) or by
/// [`Netbuf::alloc`] — and freed when the handle drops; nothing is
/// allocated, freed or relocated per packet.
/// Every accessor is a method on the handle itself (no `Deref` to the
/// descriptor), so `nb.request_csum(nb.len(), 16)` borrows as it would
/// on a plain struct.
#[derive(Debug)]
pub struct Netbuf {
    desc: Box<Desc>,
}

// A fat descriptor must not creep back into the type every ring, queue
// and stage stores by value (`Option` must stay free: the pool's slots
// and every `pop` are `Option<Netbuf>`).
const _: () = assert!(
    size_of::<Netbuf>() == size_of::<usize>() && size_of::<Option<Netbuf>>() == size_of::<usize>()
);

/// The per-buffer descriptor behind a [`Netbuf`] handle.
#[derive(Debug)]
struct Desc {
    /// Backing storage (headroom + payload + tailroom).
    data: Box<[u8]>,
    /// Offset of the packet start (headroom in front).
    offset: usize,
    /// Payload length.
    len: usize,
    /// Pool slot this buffer came from, if pooled.
    pool_slot: Option<usize>,
    /// Identity of the owning pool (0 for heap buffers).
    pool_id: u64,
    /// Pending checksum-offload request, if any.
    csum: Option<CsumRequest>,
    /// Pending segmentation-offload request, if any (head of a chain).
    gso: Option<GsoRequest>,
    /// RX: the wire/device validated this frame's checksums
    /// (`VIRTIO_NET_F_GUEST_CSUM` shape); the stack may skip software
    /// verification.
    csum_verified: bool,
    /// TX: unacknowledged TCP payload rides in this frame; recycling
    /// must route it back to the owning connection's retransmission
    /// queue, not the pool.
    tcp_hold: Option<TcpHold>,
    /// Scatter-gather fragments owned by this (head) buffer — one word
    /// per reserved slot.
    frags: Vec<Netbuf>,
}

impl Netbuf {
    /// Allocates a standalone (heap) netbuf with `cap` bytes of storage
    /// and `headroom` reserved in front: two allocations, descriptor
    /// and storage.
    // ukcheck: allow(alloc) -- the explicit heap-buffer constructor: pools
    // call it when they build a buffer, and the memory-frugal path allocates here by
    // design (§3.1); the steady-state datapath only circulates pooled bufs
    pub fn alloc(cap: usize, headroom: usize) -> Self {
        assert!(headroom <= cap, "headroom exceeds capacity");
        Netbuf {
            desc: Box::new(Desc {
                data: vec![0u8; cap].into_boxed_slice(),
                offset: headroom,
                len: 0,
                pool_slot: None,
                pool_id: 0,
                csum: None,
                gso: None,
                csum_verified: false,
                tcp_hold: None,
                frags: Vec::new(),
            }),
        }
    }

    /// Current payload.
    pub fn payload(&self) -> &[u8] {
        &self.desc.data[self.desc.offset..self.desc.offset + self.desc.len]
    }

    /// Mutable payload.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.desc.data[self.desc.offset..self.desc.offset + self.desc.len]
    }

    /// Sets the payload, copying `bytes` in after the headroom.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` does not fit.
    pub fn set_payload(&mut self, bytes: &[u8]) {
        assert!(
            self.desc.offset + bytes.len() <= self.desc.data.len(),
            "payload too large"
        );
        self.desc.data[self.desc.offset..self.desc.offset + bytes.len()].copy_from_slice(bytes);
        self.desc.len = bytes.len();
    }

    /// Appends `bytes` into the tailroom (payload body write).
    ///
    /// # Panics
    ///
    /// Panics if the tailroom is too small.
    pub fn append(&mut self, bytes: &[u8]) {
        let end = self.desc.offset + self.desc.len;
        assert!(
            end + bytes.len() <= self.desc.data.len(),
            "insufficient tailroom"
        );
        self.desc.data[end..end + bytes.len()].copy_from_slice(bytes);
        self.desc.len += bytes.len();
    }

    /// Sets the payload length without copying (zero-copy fill).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the space after the headroom.
    pub fn set_len(&mut self, len: usize) {
        assert!(
            self.desc.offset + len <= self.desc.data.len(),
            "len too large"
        );
        self.desc.len = len;
    }

    /// Shrinks the payload to at most `len` bytes (drops the tail; used
    /// to discard Ethernet padding after decoding a length field).
    pub fn truncate(&mut self, len: usize) {
        self.desc.len = self.desc.len.min(len);
    }

    /// Payload length.
    pub fn len(&self) -> usize {
        self.desc.len
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.desc.len == 0
    }

    /// Remaining headroom in front of the payload.
    pub fn headroom(&self) -> usize {
        self.desc.offset
    }

    /// Remaining tailroom behind the payload.
    pub fn tailroom(&self) -> usize {
        self.desc.data.len() - self.desc.offset - self.desc.len
    }

    /// Prepends `bytes` into the headroom (protocol header push).
    ///
    /// # Panics
    ///
    /// Panics if the headroom is too small.
    pub fn push_header(&mut self, bytes: &[u8]) {
        let dst = self.push_header_uninit(bytes.len());
        dst.copy_from_slice(bytes);
    }

    /// Grows the payload front by `n` bytes into the headroom and
    /// returns the new region for in-place header writing (the
    /// zero-copy `encode_into` primitive).
    ///
    /// # Panics
    ///
    /// Panics if the headroom is too small.
    pub fn push_header_uninit(&mut self, n: usize) -> &mut [u8] {
        assert!(n <= self.desc.offset, "insufficient headroom");
        self.desc.offset -= n;
        self.desc.len += n;
        let off = self.desc.offset;
        &mut self.desc.data[off..off + n]
    }

    /// Strips `n` bytes from the front (protocol header pull).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the payload.
    pub fn pull_header(&mut self, n: usize) {
        assert!(n <= self.desc.len, "pull beyond payload");
        self.desc.offset += n;
        self.desc.len -= n;
    }

    /// Total storage capacity.
    pub fn capacity(&self) -> usize {
        self.desc.data.len()
    }

    /// Resets to an empty buffer with `headroom` reserved. The caller
    /// must have popped any chain fragments first (`pop_frag`) —
    /// resetting cannot return them to their pool.
    pub fn reset(&mut self, headroom: usize) {
        assert!(headroom <= self.desc.data.len());
        debug_assert!(
            self.desc.frags.is_empty(),
            "reset with live chain fragments"
        );
        self.desc.offset = headroom;
        self.desc.len = 0;
        self.desc.csum = None;
        self.desc.gso = None;
        self.desc.csum_verified = false;
        self.desc.tcp_hold = None;
    }

    /// Attaches a checksum-offload request: the device must compute
    /// the Internet checksum over the trailing `region_len` payload
    /// bytes and store it `field_off` bytes into that region.
    ///
    /// # Panics
    ///
    /// Panics if the region exceeds the (chain) payload or the field
    /// does not fit inside it.
    pub fn request_csum(&mut self, region_len: usize, field_off: usize) {
        assert!(region_len <= self.chain_len(), "csum region beyond payload");
        assert!(field_off + 2 <= region_len, "csum field outside region");
        self.desc.csum = Some(CsumRequest {
            region_len: region_len as u32,
            field_off: field_off as u16,
        });
    }

    /// The pending checksum-offload request, if any.
    pub fn csum_request(&self) -> Option<CsumRequest> {
        self.desc.csum
    }

    /// Takes the pending checksum-offload request (the device calls
    /// this when it completes the checksum).
    pub fn take_csum_request(&mut self) -> Option<CsumRequest> {
        self.desc.csum.take()
    }

    /// Attaches a segmentation-offload request: the host side must cut
    /// this (chained) frame into wire frames of at most `mss` payload
    /// bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `mss` is zero.
    pub fn request_gso(&mut self, mss: u16) {
        assert!(mss > 0, "GSO with a zero mss");
        self.desc.gso = Some(GsoRequest { mss });
    }

    /// The pending segmentation-offload request, if any.
    pub fn gso_request(&self) -> Option<GsoRequest> {
        self.desc.gso
    }

    /// Takes the pending segmentation-offload request (whoever cuts
    /// the frame calls this).
    pub fn take_gso_request(&mut self) -> Option<GsoRequest> {
        self.desc.gso.take()
    }

    /// Marks this received frame's checksums as validated by the
    /// wire/device (`VIRTIO_NET_F_GUEST_CSUM`): the stack may skip
    /// software verification.
    pub fn mark_csum_verified(&mut self) {
        self.desc.csum_verified = true;
    }

    /// Whether the wire/device validated this frame's checksums.
    pub fn csum_verified(&self) -> bool {
        self.desc.csum_verified
    }

    /// Clears the checksum-validated mark. A wire model that mutates
    /// frame bytes in flight (payload corruption faults) must drop the
    /// mark so the receiver falls back to software verification and
    /// actually catches the damage.
    pub fn clear_csum_verified(&mut self) {
        self.desc.csum_verified = false;
    }

    /// Tags this frame's payload as unacknowledged TCP data (see
    /// [`TcpHold`]). Set by the stack when it emits a data frame;
    /// `sent_ns` stamps the transmission on the virtual clock.
    pub fn set_tcp_hold(&mut self, conn: u64, seq: u32, payload_len: u32, sent_ns: u64) {
        self.desc.tcp_hold = Some(TcpHold {
            conn,
            seq,
            payload_len,
            sent_ns,
        });
    }

    /// Takes the retransmission hold (the recycle interception calls
    /// this exactly once per returning frame).
    pub fn take_tcp_hold(&mut self) -> Option<TcpHold> {
        self.desc.tcp_hold.take()
    }

    // --- Scatter-gather chains ---------------------------------------

    /// Appends a fragment to this buffer's chain. The fragment's
    /// payload extends the chain payload; its headroom is dead space.
    ///
    /// # Panics
    ///
    /// Panics if `frag` itself has fragments (chains never nest).
    pub fn chain_append(&mut self, frag: Netbuf) {
        assert!(frag.desc.frags.is_empty(), "chain fragments never nest");
        self.desc.frags.push(frag);
    }

    /// Whether this buffer heads a chain.
    pub fn has_frags(&self) -> bool {
        !self.desc.frags.is_empty()
    }

    /// Buffers in the chain (1 for an unchained buffer).
    pub fn frag_count(&self) -> usize {
        1 + self.desc.frags.len()
    }

    /// Total payload bytes across the whole chain.
    pub fn chain_len(&self) -> usize {
        self.desc.len + self.desc.frags.iter().map(|f| f.desc.len).sum::<usize>()
    }

    /// The chain payload as its contiguous extents, head first.
    pub fn chain_segments(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(self.payload()).chain(self.desc.frags.iter().map(|f| f.payload()))
    }

    /// Pops the last fragment off the chain (recycling walks the chain
    /// with this until `None`, returning each buffer to its pool; the
    /// fragment list's capacity stays with the head for reuse).
    pub(crate) fn pop_frag(&mut self) -> Option<Netbuf> {
        self.desc.frags.pop()
    }

    /// Detaches every fragment into `out` in chain order, leaving the
    /// head flat. This is the receive-side flattening primitive: a
    /// big-receive chain is split into its extents so each buffer can
    /// be retained (queued on a socket) or recycled independently. The
    /// head keeps its fragment-list *capacity* — a pooled buffer
    /// flattened this way still builds chains allocation-free after
    /// recycling.
    pub fn take_frags_into(&mut self, out: &mut Vec<Netbuf>) {
        out.append(&mut self.desc.frags);
    }

    /// Allocates a standalone (heap) netbuf holding exactly `bytes`,
    /// with no headroom — the owned form of a borrowed payload extent
    /// (the slice-based TCP ingest path uses this to adapt to the
    /// buffer-owning receive queue).
    pub fn from_slice(bytes: &[u8]) -> Self {
        let mut nb = Netbuf::alloc(bytes.len(), 0);
        nb.set_payload(bytes);
        nb
    }

    /// Pre-reserves capacity for `n` chain fragments (pools call this
    /// once, when they build the buffer, so steady-state chain building
    /// never allocates).
    pub(crate) fn reserve_frags(&mut self, n: usize) {
        // ukcheck: allow(alloc) -- called once per buffer, when a pool builds it
        self.desc.frags.reserve(n);
    }

    /// Overwrites the whole storage with the sanitizer poison pattern.
    #[cfg(feature = "netbuf-sanitizer")]
    fn poison(&mut self) {
        self.desc.data.fill(SANITIZER_POISON);
    }

    /// Whether the storage is still wall-to-wall poison.
    #[cfg(feature = "netbuf-sanitizer")]
    fn poison_intact(&self) -> bool {
        self.desc.data.iter().all(|&b| b == SANITIZER_POISON)
    }
}

/// A pool of up to `count` netbufs, built on demand and kept for good.
///
/// "Performance critical workloads can make use of pre-allocated network
/// buffer pools, while memory efficient applications can reduce memory
/// footprint by allocating buffers from the standard heap" (§3.1). The
/// pool takes both halves of that trade: buffers are built only when
/// the traffic needs them (footprint), and once built they are never
/// freed (speed).
///
/// In steady state buffers only *circulate*: taken for TX/RX, handed
/// through rings and sockets, and recycled with [`give_back`] — the
/// pool is the reason the datapath performs zero heap allocations per
/// packet.
///
/// Construction builds no buffer: it sizes the slot table and the free
/// list for `count`, and nothing else. When [`take`](Self::take) finds
/// no built buffer free, the pool builds one if it has none yet and
/// otherwise doubles the built set, never past `count`; it never
/// shrinks. So the pool holds only what the traffic has taken — at
/// most twice its in-flight peak — and allocates in the few growths
/// that peak asks for, during warm-up, and not again. Building a
/// buffer costs one descriptor, one storage slice and (for
/// [`with_chain_capacity`](Self::with_chain_capacity)) one fragment
/// list of `chain_frags` one-word handles. A slot holds the
/// buffer's handle while it is home and `None` while it is out, so
/// [`take`](Self::take) and [`give_back`] move one word each; the
/// descriptor and the storage never move, and the `netbuf-sanitizer`
/// provenance stays in the pool, keyed by slot.
///
/// The counts read as if every buffer were built: [`capacity`] is
/// `count`, and [`available`] counts the free buffers plus those not
/// built yet.
///
/// [`give_back`]: NetbufPool::give_back
/// [`capacity`]: NetbufPool::capacity
/// [`available`]: NetbufPool::available
#[derive(Debug)]
pub struct NetbufPool {
    id: u64,
    /// One slot per built buffer, in build order; grows by doubling.
    bufs: Vec<Option<Netbuf>>,
    free: Vec<usize>,
    /// The most buffers the pool may build ([`capacity`](Self::capacity)).
    count: usize,
    /// Storage bytes of each buffer.
    cap: usize,
    headroom: usize,
    /// Fragment-list slots each buffer reserves.
    chain_frags: usize,
    /// Fewest free buffers ever observed — the occupancy high-water
    /// mark is `capacity - low_water`. Plain integer math on the hot
    /// path; exported through the stats plane by the pool's owner.
    low_water: usize,
    /// Per-slot provenance (live/recycled state, last take/give-back
    /// sites). Only present with the `netbuf-sanitizer` feature.
    #[cfg(feature = "netbuf-sanitizer")]
    san: Vec<SlotSan>,
}

impl NetbufPool {
    /// A pool of up to `count` buffers of `cap` bytes with `headroom`.
    pub fn new(count: usize, cap: usize, headroom: usize) -> Self {
        Self::with_chain_capacity(count, cap, headroom, 0)
    }

    /// Like [`new`](Self::new), but every buffer reserves room for
    /// `chain_frags` scatter-gather fragments when it is built, so
    /// chain heads from this pool never grow their fragment list on
    /// the hot path (the capacity survives recycling).
    // ukcheck: allow(alloc) -- pool construction: the slot table and free
    // list for `count`; no buffer is built until the first `take`
    pub fn with_chain_capacity(
        count: usize,
        cap: usize,
        headroom: usize,
        chain_frags: usize,
    ) -> Self {
        NetbufPool {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            bufs: Vec::with_capacity(count),
            free: Vec::with_capacity(count),
            count,
            cap,
            headroom,
            chain_frags,
            low_water: count,
            #[cfg(feature = "netbuf-sanitizer")]
            san: Vec::with_capacity(count),
        }
    }

    /// Builds `n` more buffers into fresh slots and frees them. The
    /// tables were sized for `count` at construction, so this allocates
    /// the buffers and nothing else.
    // ukcheck: allow(alloc) -- building buffers: the growths of `take`
    // that the in-flight peak asks for in warm-up
    #[cold]
    #[inline(never)]
    fn build(&mut self, n: usize) {
        for slot in self.bufs.len()..self.bufs.len() + n {
            let mut nb = Netbuf::alloc(self.cap, self.headroom);
            nb.desc.pool_slot = Some(slot);
            nb.desc.pool_id = self.id;
            nb.reserve_frags(self.chain_frags);
            // Pool-resident storage is poison from birth, so the very
            // first take can already verify integrity.
            #[cfg(feature = "netbuf-sanitizer")]
            {
                nb.poison();
                self.san.push(SlotSan::default());
            }
            self.bufs.push(Some(nb));
            self.free.push(slot);
        }
    }

    /// Takes a buffer from the pool, or `None` if all `count` are out.
    /// With every built buffer out and fewer than `count` built, the
    /// pool grows first: the first take builds one buffer, each later
    /// growth doubles the built set (up to `count`).
    // ukcheck: allow(panic) -- the only panic inside is the sanitizer's
    // use-after-recycle report, compiled out of the default build
    #[cfg_attr(feature = "netbuf-sanitizer", track_caller)]
    pub fn take(&mut self) -> Option<Netbuf> {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let built = self.bufs.len();
                self.build(built.max(1).min(self.count - built));
                self.free.pop()?
            }
        };
        self.low_water = self.low_water.min(self.available());
        let Some(mut nb) = self.bufs[slot].take() else {
            // The free list named a slot whose buffer is gone — the
            // pool's own bookkeeping is corrupt. Surface it in debug
            // builds; in release, treat the pool as exhausted rather
            // than bringing down the datapath.
            debug_assert!(false, "free list names an empty slot {slot}");
            return None;
        };
        #[cfg(feature = "netbuf-sanitizer")]
        {
            if !nb.poison_intact() {
                panic!(
                    "netbuf sanitizer: use-after-recycle on pool {} slot {slot}: \
                     storage was modified while the pool owned it \
                     (last give-back at {}, last take at {})",
                    self.id,
                    site(self.san[slot].last_give_back),
                    site(self.san[slot].last_take),
                );
            }
            self.san[slot].live = true;
            self.san[slot].last_take = Some(core::panic::Location::caller());
        }
        nb.reset(self.headroom);
        Some(nb)
    }

    /// Whether `nb` was allocated by this pool.
    pub(crate) fn owns(&self, nb: &Netbuf) -> bool {
        nb.desc.pool_slot.is_some() && nb.desc.pool_id == self.id
    }

    /// Returns a buffer to its slot. For a chain head, pop the
    /// fragments first (or use [`give_back_chain`](Self::give_back_chain)).
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not from this pool, the slot is
    /// occupied, or the buffer still owns chain fragments.
    #[cfg_attr(feature = "netbuf-sanitizer", track_caller)]
    pub fn give_back(&mut self, nb: Netbuf) {
        // ukcheck: allow(panic) -- documented API contract: recycling a heap
        // buffer or a forged/duplicate slot is a caller bug the pool must
        // refuse loudly, not absorb.
        let slot = nb.desc.pool_slot.expect("netbuf is not pooled");
        #[cfg(feature = "netbuf-sanitizer")]
        {
            if nb.desc.pool_id != self.id {
                // ukcheck: allow(panic) -- the sanitizer exists to turn
                // ownership violations into immediate loud failures
                panic!(
                    "netbuf sanitizer: cross-pool give-back: buffer from pool {} \
                     (slot {slot}) returned to pool {}",
                    nb.desc.pool_id, self.id,
                );
            }
            if slot >= self.san.len() || !self.san[slot].live {
                // ukcheck: allow(panic) -- the sanitizer exists to turn
                // ownership violations into immediate loud failures
                panic!(
                    "netbuf sanitizer: double-recycle of pool {} slot {slot}: \
                     slot is not live (previous give-back at {}, take at {})",
                    self.id,
                    site(self.san.get(slot).and_then(|s| s.last_give_back)),
                    site(self.san.get(slot).and_then(|s| s.last_take)),
                );
            }
        }
        assert!(nb.desc.pool_id == self.id, "netbuf belongs to another pool");
        assert!(
            nb.desc.frags.is_empty(),
            "give_back with live chain fragments"
        );
        assert!(self.bufs[slot].is_none(), "double give_back for slot {slot}");
        #[cfg(feature = "netbuf-sanitizer")]
        let nb = {
            let mut nb = nb;
            nb.poison();
            self.san[slot].live = false;
            self.san[slot].last_give_back = Some(core::panic::Location::caller());
            nb
        };
        self.bufs[slot] = Some(nb);
        self.free.push(slot);
    }

    /// Returns a whole chain to this pool: every fragment and then the
    /// head. Fragments not owned by this pool (heap buffers, foreign
    /// pools) are dropped — except under the `netbuf-sanitizer`
    /// feature, where silently dropping a *pooled* foreign fragment is
    /// reported as a cross-pool give-back (it would surface later as a
    /// leak in the owning pool anyway; the sanitizer names the site).
    #[cfg_attr(feature = "netbuf-sanitizer", track_caller)]
    pub fn give_back_chain(&mut self, mut nb: Netbuf) {
        while let Some(frag) = nb.pop_frag() {
            if self.owns(&frag) {
                self.give_back(frag);
            } else {
                #[cfg(feature = "netbuf-sanitizer")]
                if frag.desc.pool_slot.is_some() {
                    // ukcheck: allow(panic) -- the sanitizer exists to turn
                    // ownership violations into immediate loud failures
                    panic!(
                        "netbuf sanitizer: cross-pool give-back via chain: \
                         fragment from pool {} dropped into pool {}",
                        frag.desc.pool_id, self.id,
                    );
                }
            }
        }
        if self.owns(&nb) {
            self.give_back(nb);
        } else {
            #[cfg(feature = "netbuf-sanitizer")]
            if nb.desc.pool_slot.is_some() {
                // ukcheck: allow(panic) -- the sanitizer exists to turn
                // ownership violations into immediate loud failures
                panic!(
                    "netbuf sanitizer: cross-pool give-back via chain: head \
                     from pool {} dropped into pool {}",
                    nb.desc.pool_id, self.id,
                );
            }
        }
    }

    /// Buffers a `take` can still hand out: the free ones and the ones
    /// not built yet.
    pub fn available(&self) -> usize {
        self.free.len() + (self.count - self.bufs.len())
    }

    /// The most buffers the pool holds, built or not.
    pub fn capacity(&self) -> usize {
        self.count
    }

    /// Buffers built so far, out or home: what the traffic has asked
    /// the pool for, at most twice its in-flight peak.
    pub fn built(&self) -> usize {
        self.bufs.len()
    }

    /// Fewest free buffers ever observed; `capacity() - low_water()` is
    /// the pool-occupancy high-water mark.
    pub fn low_water(&self) -> usize {
        self.low_water
    }

    /// The headroom buffers are reset to on `take`.
    pub fn headroom(&self) -> usize {
        self.headroom
    }

    /// End-of-test leak check: panics if any buffer is still out,
    /// naming each leaked slot and the call site that took it. Only
    /// present with the `netbuf-sanitizer` feature — call it after the
    /// datapath has quiesced and every buffer should be home.
    // ukcheck: allow(alloc) -- sanitizer-only diagnostic rendering,
    // compiled out of the default build
    // ukcheck: allow(panic) -- the sanitizer exists to fail loudly
    #[cfg(feature = "netbuf-sanitizer")]
    pub fn sanitize_assert_all_returned(&self) {
        let leaked: Vec<String> = self
            .san
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live)
            .map(|(slot, s)| format!("slot {slot} (taken at {})", site(s.last_take)))
            .collect();
        if !leaked.is_empty() {
            // ukcheck: allow(panic) -- the sanitizer exists to turn
            // ownership violations into immediate loud failures
            panic!(
                "netbuf sanitizer: {} buffer(s) leaked from pool {}: {}",
                leaked.len(),
                self.id,
                leaked.join(", "),
            );
        }
    }

    /// How many buffers the sanitizer currently tracks as live (out in
    /// the datapath). Only present with the `netbuf-sanitizer` feature.
    #[cfg(feature = "netbuf-sanitizer")]
    pub fn sanitize_live_count(&self) -> usize {
        self.san.iter().filter(|s| s.live).count()
    }
}

/// Renders an optional sanitizer call site for a panic message.
// ukcheck: allow(alloc) -- sanitizer-only diagnostic rendering, compiled
// out of the default build
#[cfg(feature = "netbuf-sanitizer")]
fn site(loc: Option<&'static core::panic::Location<'static>>) -> String {
    match loc {
        Some(l) => format!("{}:{}:{}", l.file(), l.line(), l.column()),
        None => "<never>".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_read_payload() {
        let mut nb = Netbuf::alloc(256, 64);
        nb.set_payload(b"hello");
        assert_eq!(nb.payload(), b"hello");
        assert_eq!(nb.len(), 5);
        assert_eq!(nb.headroom(), 64);
        assert_eq!(nb.tailroom(), 256 - 64 - 5);
    }

    #[test]
    fn append_extends_payload_in_tailroom() {
        let mut nb = Netbuf::alloc(64, 16);
        nb.append(b"abc");
        nb.append(b"def");
        assert_eq!(nb.payload(), b"abcdef");
        assert_eq!(nb.headroom(), 16, "headroom untouched by appends");
    }

    #[test]
    #[should_panic(expected = "insufficient tailroom")]
    fn append_beyond_tailroom_panics() {
        let mut nb = Netbuf::alloc(8, 4);
        nb.append(b"too-long-payload");
    }

    #[test]
    fn header_push_pull_roundtrip() {
        let mut nb = Netbuf::alloc(256, 64);
        nb.set_payload(b"payload");
        nb.push_header(b"HDR!");
        assert_eq!(nb.payload(), b"HDR!payload");
        assert_eq!(nb.headroom(), 60);
        nb.pull_header(4);
        assert_eq!(nb.payload(), b"payload");
    }

    #[test]
    fn push_header_uninit_exposes_new_front() {
        let mut nb = Netbuf::alloc(64, 8);
        nb.set_payload(b"data");
        let hdr = nb.push_header_uninit(2);
        hdr.copy_from_slice(b"ab");
        assert_eq!(nb.payload(), b"abdata");
    }

    #[test]
    fn truncate_drops_tail_only() {
        let mut nb = Netbuf::alloc(64, 0);
        nb.set_payload(b"frame+padding");
        nb.truncate(5);
        assert_eq!(nb.payload(), b"frame");
        nb.truncate(100); // never grows
        assert_eq!(nb.len(), 5);
    }

    #[test]
    #[should_panic(expected = "insufficient headroom")]
    fn push_beyond_headroom_panics() {
        let mut nb = Netbuf::alloc(64, 2);
        nb.set_payload(b"x");
        nb.push_header(b"too-long-header");
    }

    #[test]
    fn pool_take_and_give_back() {
        let mut pool = NetbufPool::new(4, 2048, 64);
        assert_eq!(pool.available(), 4);
        let a = pool.take().unwrap();
        let b = pool.take().unwrap();
        assert_eq!(pool.available(), 2);
        assert!(pool.owns(&a));
        pool.give_back(a);
        pool.give_back(b);
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let mut pool = NetbufPool::new(1, 128, 0);
        let a = pool.take().unwrap();
        assert!(pool.take().is_none());
        pool.give_back(a);
        assert!(pool.take().is_some());
    }

    #[test]
    fn pooled_buffer_resets_on_take() {
        let mut pool = NetbufPool::new(1, 128, 32);
        let mut a = pool.take().unwrap();
        a.set_payload(b"dirty");
        a.pull_header(2);
        pool.give_back(a);
        let b = pool.take().unwrap();
        assert_eq!(b.len(), 0);
        assert_eq!(b.headroom(), 32);
    }

    #[test]
    fn foreign_pool_buffers_are_not_owned() {
        let mut p1 = NetbufPool::new(1, 128, 0);
        let mut p2 = NetbufPool::new(1, 128, 0);
        let a = p1.take().unwrap();
        assert!(!p2.owns(&a));
        assert!(!p1.owns(&Netbuf::alloc(64, 0)), "heap buffers unowned");
        p1.give_back(a);
        let _ = p2.take();
    }

    // The sanitizer intercepts ownership violations before the plain
    // asserts and reports with provenance, so the expected panic
    // message differs per feature mode.
    #[test]
    #[cfg_attr(not(feature = "netbuf-sanitizer"), should_panic(expected = "another pool"))]
    #[cfg_attr(feature = "netbuf-sanitizer", should_panic(expected = "cross-pool give-back"))]
    fn cross_pool_give_back_panics() {
        let mut p1 = NetbufPool::new(1, 128, 0);
        let mut p2 = NetbufPool::new(1, 128, 0);
        let a = p1.take().unwrap();
        p2.give_back(a);
    }

    #[test]
    fn chain_append_and_len_and_segments() {
        let mut head = Netbuf::alloc(128, 32);
        head.set_payload(b"head");
        let mut f1 = Netbuf::alloc(64, 0);
        f1.set_payload(b"-mid-");
        let mut f2 = Netbuf::alloc(64, 0);
        f2.set_payload(b"tail");
        head.chain_append(f1);
        head.chain_append(f2);
        assert_eq!(head.frag_count(), 3);
        assert!(head.has_frags());
        assert_eq!(head.len(), 4, "len stays the head's extent");
        assert_eq!(head.chain_len(), 13);
        let all: Vec<u8> = head.chain_segments().flatten().copied().collect();
        assert_eq!(all, b"head-mid-tail");
    }

    #[test]
    #[should_panic(expected = "never nest")]
    fn nested_chains_panic() {
        let mut inner = Netbuf::alloc(64, 0);
        inner.chain_append(Netbuf::alloc(64, 0));
        let mut head = Netbuf::alloc(64, 0);
        head.chain_append(inner);
    }

    #[test]
    fn chain_recycles_whole_to_owning_pool() {
        let mut pool = NetbufPool::with_chain_capacity(4, 128, 16, 4);
        let mut head = pool.take().unwrap();
        head.chain_append(pool.take().unwrap());
        head.chain_append(pool.take().unwrap());
        assert_eq!(pool.available(), 1);
        pool.give_back_chain(head);
        assert_eq!(pool.available(), 4, "head and every fragment returned");
    }

    #[test]
    fn take_frags_into_flattens_in_order_and_keeps_capacity() {
        let mut pool = NetbufPool::with_chain_capacity(4, 128, 16, 4);
        let mut head = pool.take().unwrap();
        head.set_payload(b"head");
        let mut f1 = pool.take().unwrap();
        f1.set_payload(b"one");
        let mut f2 = pool.take().unwrap();
        f2.set_payload(b"two");
        head.chain_append(f1);
        head.chain_append(f2);
        let mut out = Vec::new();
        head.take_frags_into(&mut out);
        assert!(!head.has_frags(), "head flat after detach");
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].payload(), b"one", "chain order preserved");
        assert_eq!(out[1].payload(), b"two");
        // The head's reserved fragment capacity survives the detach
        // (steady-state chain building stays allocation-free).
        assert!(head.desc.frags.capacity() >= 4);
        for nb in out {
            pool.give_back(nb);
        }
        pool.give_back(head);
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn from_slice_wraps_bytes_with_no_headroom() {
        let nb = Netbuf::from_slice(b"exact bytes");
        assert_eq!(nb.payload(), b"exact bytes");
        assert_eq!(nb.headroom(), 0);
        assert_eq!(nb.tailroom(), 0);
        assert!(Netbuf::from_slice(&[]).is_empty());
    }

    #[test]
    fn gso_request_rides_and_is_taken() {
        let mut nb = Netbuf::alloc(128, 0);
        nb.set_payload(b"data");
        assert!(nb.gso_request().is_none());
        nb.request_gso(1460);
        assert_eq!(nb.gso_request(), Some(GsoRequest { mss: 1460 }));
        assert_eq!(nb.take_gso_request(), Some(GsoRequest { mss: 1460 }));
        assert!(nb.gso_request().is_none());
    }

    #[test]
    fn reset_clears_gso_and_verified_mark() {
        let mut nb = Netbuf::alloc(128, 16);
        nb.set_payload(b"x");
        nb.request_gso(100);
        nb.mark_csum_verified();
        nb.reset(16);
        assert!(nb.gso_request().is_none());
        assert!(!nb.csum_verified());
    }

    #[test]
    #[cfg_attr(not(feature = "netbuf-sanitizer"), should_panic(expected = "double give_back"))]
    #[cfg_attr(feature = "netbuf-sanitizer", should_panic(expected = "double-recycle"))]
    fn double_give_back_panics() {
        let mut pool = NetbufPool::new(2, 128, 0);
        let a = pool.take().unwrap();
        let slot = a.desc.pool_slot.unwrap();
        // Forge a second buffer claiming the same slot.
        let mut forged = Netbuf::alloc(128, 0);
        forged.desc.pool_slot = Some(slot);
        forged.desc.pool_id = a.desc.pool_id;
        pool.give_back(a);
        pool.give_back(forged);
    }

    /// Seeded use-after-recycle: a stale pointer writes into pool-owned
    /// storage after give-back; the next take must catch the broken
    /// poison and name both provenance sites.
    #[test]
    #[cfg(feature = "netbuf-sanitizer")]
    #[should_panic(expected = "use-after-recycle")]
    fn sanitizer_catches_use_after_recycle() {
        let mut pool = NetbufPool::new(1, 128, 0);
        let mut nb = pool.take().unwrap();
        nb.append(&[1, 2, 3, 4]);
        let stale = nb.payload_mut().as_mut_ptr();
        pool.give_back(nb);
        // SAFETY: deliberately unsound — this models a datapath bug
        // (writing through a reference that outlived the recycle). The
        // storage itself is still alive inside the pool, so the write
        // lands in valid memory; the sanitizer must detect it.
        unsafe { stale.write(0xFF) };
        let _ = pool.take();
    }

    /// Clean recycling leaves the poison intact: the same slot can
    /// cycle repeatedly without tripping the use-after-recycle check.
    #[test]
    #[cfg(feature = "netbuf-sanitizer")]
    fn sanitizer_passes_clean_cycles() {
        let mut pool = NetbufPool::new(1, 128, 0);
        for round in 0..8u8 {
            let mut nb = pool.take().unwrap();
            nb.append(&[round; 16]);
            pool.give_back(nb);
        }
        assert_eq!(pool.sanitize_live_count(), 0);
        pool.sanitize_assert_all_returned();
    }

    /// One step of a pool workout against the counting model below.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// `n` takes in a row.
        Take(usize),
        /// Give back the out buffer picked by the index.
        GiveBack(usize),
        /// Give back the out buffer picked by the index as the head of
        /// a chain of up to `k` further out buffers.
        GiveBackChain(usize, usize),
    }

    fn op() -> impl proptest::Strategy<Value = Op> {
        use proptest::prelude::*;
        prop_oneof![
            (1usize..160).prop_map(Op::Take),
            (0usize..1024).prop_map(Op::GiveBack),
            (0usize..1024, 0usize..5).prop_map(|(i, k)| Op::GiveBackChain(i, k)),
        ]
    }

    proptest::proptest! {
        /// The pool against a counting model: `out` buffers are held by
        /// the test, and whatever the sequence, the pool reads as if all
        /// `count` buffers were built, while it builds none at
        /// construction and grows only when every built buffer is out —
        /// 0 → 1, then by doubling — never more than twice the peak in
        /// flight.
        #[test]
        fn demand_built_pool_matches_a_counting_model(
            count in 0usize..601,
            chain_frags in 0usize..40,
            ops in proptest::collection::vec(op(), 0..200),
        ) {
            let mut pool = NetbufPool::with_chain_capacity(count, 64, 16, chain_frags);
            let mut out: Vec<Netbuf> = Vec::new();
            let mut live = vec![false; count];
            let (mut peak, mut built) = (0, pool.built());
            assert_eq!(built, 0, "construction builds no buffer");
            let mut last_given: Option<usize> = None;
            for op in ops {
                match op {
                    Op::Take(n) => {
                        for _ in 0..n {
                            let was_out = out.len();
                            let nb = pool.take();
                            assert_eq!(nb.is_none(), was_out == count, "None exactly when all are out");
                            if pool.built() != built {
                                assert_eq!(
                                    (was_out, pool.built()),
                                    (built, (2 * built).max(1).min(count)),
                                    "growth only with every built buffer out: 0 → 1, then doubling"
                                );
                                built = pool.built();
                            }
                            let Some(nb) = nb else { break };
                            let slot = nb.desc.pool_slot.unwrap();
                            assert!(!live[slot], "slot {slot} live twice");
                            live[slot] = true;
                            if let Some(given) = last_given.take() {
                                assert_eq!(slot, given, "LIFO: the last slot given back is taken first");
                            }
                            assert!(nb.desc.frags.capacity() >= chain_frags, "fragment list reserved");
                            out.push(nb);
                            peak = peak.max(out.len());
                        }
                    }
                    Op::GiveBack(i) if !out.is_empty() => {
                        let nb = out.swap_remove(i % out.len());
                        let slot = nb.desc.pool_slot.unwrap();
                        live[slot] = false;
                        pool.give_back(nb);
                        last_given = Some(slot);
                    }
                    Op::GiveBackChain(i, k) if !out.is_empty() => {
                        let mut head = out.swap_remove(i % out.len());
                        for _ in 0..k.min(out.len()) {
                            let frag = out.pop().unwrap();
                            live[frag.desc.pool_slot.unwrap()] = false;
                            head.chain_append(frag);
                        }
                        let slot = head.desc.pool_slot.unwrap();
                        live[slot] = false;
                        pool.give_back_chain(head);
                        last_given = Some(slot);
                    }
                    Op::GiveBack(_) | Op::GiveBackChain(..) => {}
                }
                assert_eq!(pool.capacity(), count);
                assert_eq!(pool.available(), count - out.len());
                assert_eq!(pool.low_water(), count - peak);
                assert_eq!(pool.built(), built, "a give-back neither builds nor frees");
                assert!(built <= 2 * peak, "built {built}, peak {peak}");
                #[cfg(feature = "netbuf-sanitizer")]
                assert_eq!(pool.sanitize_live_count(), out.len());
            }
            for nb in out {
                pool.give_back(nb);
            }
            assert_eq!(pool.available(), count);
            #[cfg(feature = "netbuf-sanitizer")]
            pool.sanitize_assert_all_returned();
        }
    }

    /// Seeded double-recycle through the *forged-slot* route: the slot
    /// is marked dead by the first give-back, so the sanitizer fires
    /// before the plain slot-occupancy assert can.
    #[test]
    #[cfg(feature = "netbuf-sanitizer")]
    #[should_panic(expected = "double-recycle")]
    fn sanitizer_names_double_recycle() {
        let mut pool = NetbufPool::new(2, 128, 0);
        let a = pool.take().unwrap();
        let slot = a.desc.pool_slot.unwrap();
        let mut forged = Netbuf::alloc(128, 0);
        forged.desc.pool_slot = Some(slot);
        forged.desc.pool_id = a.desc.pool_id;
        pool.give_back(a);
        pool.give_back(forged);
    }
}
