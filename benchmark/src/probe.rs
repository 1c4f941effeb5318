//! Spans around the calls into each layer, recorded from outside the
//! program.
//!
//! Workload code is generic over [`Probe`]: with [`NoProbe`] every hook
//! is an empty inline function and the untraced pass runs the same
//! statements with nothing between them; with [`Tracer`] each
//! `begin`/`switch`/`end` reads the clock once and the heap-allocation
//! counter once. Consecutive spans are chained with `switch` (one clock
//! read closes one span and opens the next), so no time falls between
//! them.

use std::time::Instant;

use crate::summary::LatHist;

/// The boundaries a workload can name. The prefix is the layer the
/// time is charged to; `loadgen.*` is the benchmark's own code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// Client-side request building and reply parsing.
    Client = 0,
    /// The benchmark's server-side echo/drain loop (raw TCP workloads).
    Echo,
    /// Comparing received bytes against the expected ones.
    Verify,
    /// `Network::transfer` (wire copy, host-side TSO cut, faults).
    Transfer,
    /// `NetStack::pump` on the client node.
    PumpClient,
    /// `NetStack::pump` on the server node.
    PumpServer,
    /// `tcp_send` / `tcp_send_queued` / `flush_output`.
    SockSend,
    /// `tcp_recv_into`.
    SockRecv,
    /// `tcp_connect` / `tcp_accept` / `tcp_close`.
    ConnCtl,
    /// `Httpd::poll` / `KvStore::poll` (includes the socket calls the
    /// app makes).
    AppPoll,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 10;

impl Layer {
    pub const ALL: [Layer; LAYERS] = [
        Layer::Client,
        Layer::Echo,
        Layer::Verify,
        Layer::Transfer,
        Layer::PumpClient,
        Layer::PumpServer,
        Layer::SockSend,
        Layer::SockRecv,
        Layer::ConnCtl,
        Layer::AppPoll,
    ];

    /// Span name as written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "loadgen.client",
            Layer::Echo => "loadgen.echo",
            Layer::Verify => "loadgen.verify",
            Layer::Transfer => "testnet.transfer",
            Layer::PumpClient => "uknetstack.pump_client",
            Layer::PumpServer => "uknetstack.pump_server",
            Layer::SockSend => "uknetstack.sock_send",
            Layer::SockRecv => "uknetstack.sock_recv",
            Layer::ConnCtl => "uknetstack.conn_ctl",
            Layer::AppPoll => "ukapps.poll",
        }
    }
}

/// Hooks the workloads call at layer boundaries.
pub trait Probe {
    /// Whether spans are recorded (lets workloads skip per-request
    /// bookkeeping that only the traced pass reads).
    const ON: bool;
    /// Opens a span as a child of the innermost open one.
    fn begin(&mut self, layer: Layer);
    /// Closes the innermost open span and opens a sibling with one
    /// clock read.
    fn switch(&mut self, layer: Layer);
    /// Closes the innermost open span.
    fn end(&mut self);
    /// One network turn finished.
    fn turn_done(&mut self);
    /// Turns so far (0 when off).
    fn turn_no(&self) -> u64;
    /// Nanoseconds since the probe was created (0 when off).
    fn now_ns(&self) -> u64;
    /// A request completed: sent at `start_ns` on turn `first_turn`.
    fn request_done(&mut self, conn: u32, seq: u64, first_turn: u64, start_ns: u64);
}

/// The untraced pass: every hook compiles to nothing.
#[derive(Debug, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ON: bool = false;
    #[inline(always)]
    fn begin(&mut self, _: Layer) {}
    #[inline(always)]
    fn switch(&mut self, _: Layer) {}
    #[inline(always)]
    fn end(&mut self) {}
    #[inline(always)]
    fn turn_done(&mut self) {}
    #[inline(always)]
    fn turn_no(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn now_ns(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn request_done(&mut self, _: u32, _: u64, _: u64, _: u64) {}
}

/// One recorded span. `parent` is an index into the span list
/// (`u32::MAX` = child of the rep itself).
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub turn: u32,
    pub rep: u32,
}

/// One recorded request: the turns `first_turn..=last_turn` worked on it.
#[derive(Debug, Clone, Copy)]
pub struct ReqRec {
    pub conn: u32,
    pub seq: u64,
    pub first_turn: u32,
    pub last_turn: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Running totals of one layer over every traced rep.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    /// Spans closed.
    pub count: u64,
    /// Span time, children included.
    pub ns: u64,
    /// Span time minus the part covered by child spans.
    pub self_ns: u64,
    /// Heap allocations inside the span, children excluded.
    pub self_allocs: u64,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    layer: Layer,
    start_ns: u64,
    allocs_at_start: u64,
    child_ns: u64,
    child_allocs: u64,
    span_idx: u32,
}

/// Spans kept for the trace file; totals keep accumulating after the
/// buffer is full.
pub const SPAN_CAP: usize = 1 << 17;
/// Request records kept for the trace file.
pub const REQ_CAP: usize = 1 << 14;
const MAX_DEPTH: usize = 8;
const NO_PARENT: u32 = u32::MAX;

/// The traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    stack: [Frame; MAX_DEPTH],
    depth: usize,
    turn: u64,
    rep: u32,
    /// Time covered by spans opened directly under the rep.
    top_ns: u64,
    pub totals: [LayerTotal; LAYERS],
    pub spans: Vec<SpanRec>,
    pub reqs: Vec<ReqRec>,
    pub latency_ns: LatHist,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Preallocates every buffer: recording never allocates.
    pub fn new() -> Self {
        let idle = Frame {
            layer: Layer::Client,
            start_ns: 0,
            allocs_at_start: 0,
            child_ns: 0,
            child_allocs: 0,
            span_idx: NO_PARENT,
        };
        Tracer {
            epoch: Instant::now(),
            stack: [idle; MAX_DEPTH],
            depth: 0,
            turn: 0,
            rep: 0,
            top_ns: 0,
            totals: [LayerTotal::default(); LAYERS],
            spans: Vec::with_capacity(SPAN_CAP),
            reqs: Vec::with_capacity(REQ_CAP),
            latency_ns: LatHist::new(),
        }
    }

    /// Marks the start of traced rep number `rep`.
    pub fn start_rep(&mut self, rep: u32) {
        debug_assert_eq!(self.depth, 0, "span left open across reps");
        self.rep = rep;
        self.top_ns = 0;
    }

    /// Time covered by top-level spans since [`start_rep`](Self::start_rep).
    pub fn rep_span_ns(&self) -> u64 {
        self.top_ns
    }

    fn open(&mut self, layer: Layer, now: u64, allocs: u64) {
        let parent = if self.depth == 0 {
            NO_PARENT
        } else {
            self.stack[self.depth - 1].span_idx
        };
        let span_idx = if self.spans.len() < SPAN_CAP {
            self.spans.push(SpanRec {
                layer,
                start_ns: now,
                end_ns: now,
                parent,
                turn: self.turn as u32,
                rep: self.rep,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack[self.depth] = Frame {
            layer,
            start_ns: now,
            allocs_at_start: allocs,
            child_ns: 0,
            child_allocs: 0,
            span_idx,
        };
        self.depth += 1;
    }

    fn close(&mut self, now: u64, allocs: u64) {
        self.depth -= 1;
        let f = self.stack[self.depth];
        let ns = now - f.start_ns;
        let span_allocs = allocs - f.allocs_at_start;
        let t = &mut self.totals[f.layer as usize];
        t.count += 1;
        t.ns += ns;
        t.self_ns += ns - f.child_ns;
        t.self_allocs += span_allocs - f.child_allocs;
        if let Some(s) = self.spans.get_mut(f.span_idx as usize) {
            s.end_ns = now;
        }
        if self.depth == 0 {
            self.top_ns += ns;
        } else {
            let p = &mut self.stack[self.depth - 1];
            p.child_ns += ns;
            p.child_allocs += span_allocs;
        }
    }
}

impl Probe for Tracer {
    const ON: bool = true;

    #[inline]
    fn begin(&mut self, layer: Layer) {
        let allocs = ukalloc::stats::heap_alloc_count();
        let now = self.now_ns();
        self.open(layer, now, allocs);
    }

    #[inline]
    fn switch(&mut self, layer: Layer) {
        let now = self.now_ns();
        let allocs = ukalloc::stats::heap_alloc_count();
        self.close(now, allocs);
        self.open(layer, now, allocs);
    }

    #[inline]
    fn end(&mut self) {
        let now = self.now_ns();
        let allocs = ukalloc::stats::heap_alloc_count();
        self.close(now, allocs);
    }

    #[inline]
    fn turn_done(&mut self) {
        self.turn += 1;
    }

    #[inline]
    fn turn_no(&self) -> u64 {
        self.turn
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn request_done(&mut self, conn: u32, seq: u64, first_turn: u64, start_ns: u64) {
        let end_ns = self.now_ns();
        self.latency_ns.record(end_ns.saturating_sub(start_ns));
        if self.reqs.len() < REQ_CAP {
            self.reqs.push(ReqRec {
                conn,
                seq,
                first_turn: first_turn as u32,
                last_turn: self.turn as u32,
                start_ns,
                end_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        t.start_rep(0);
        t.begin(Layer::Client);
        t.begin(Layer::SockSend);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.switch(Layer::SockRecv);
        t.end();
        t.end();
        let client = t.totals[Layer::Client as usize];
        let send = t.totals[Layer::SockSend as usize];
        let recv = t.totals[Layer::SockRecv as usize];
        assert_eq!(client.count, 1);
        assert!(send.ns >= 2_000_000);
        assert_eq!(client.self_ns, client.ns - send.ns - recv.ns);
        assert_eq!(t.rep_span_ns(), client.ns);
        // Children point at their parent; siblings share it.
        assert_eq!(t.spans[0].parent, u32::MAX);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[2].parent, 0);
        assert_eq!(t.spans[1].end_ns, t.spans[2].start_ns);
    }
}
