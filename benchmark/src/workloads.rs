//! The six workloads and their load generators.
//!
//! Every generator here is the benchmark's own: it drives the program
//! through its public API only, allocates nothing after set-up, and
//! checks every reply against bytes it can derive without asking the
//! program. All loops are closed — client and server share one thread,
//! so an arrival schedule would measure the host, not the program.
//!
//! A repetition is a **fixed** number of operations on the network that
//! set-up established; the counts below were sized at the seed commit
//! so one repetition takes about 50 ms on the 2-core reference box —
//! short enough that the reference kernel run before and after it
//! (`refkernel.rs`) sees the host speed the repetition saw — and are
//! frozen: changing one changes what `ops_per_s` means, so it is its
//! own change with a re-measured baseline.

use std::collections::VecDeque;

use ukalloc::{AllocBackend, Allocator};
use ukapps::httpd::{default_page, Httpd};
use ukapps::kvstore::KvStore;
use uknetstack::stack::{SocketHandle, TCP_MSL_NS};
use uknetstack::{Endpoint, NetStack};

use crate::gen::{mix, Rng};
use crate::probe::{Layer, NoProbe, Probe};
use crate::rig::{Rig, RigOpts, SERVER_IP};

/// Workload names, in report order.
pub const NAMES: [&str; 6] = [
    "http-wrk",
    "redis-pipe",
    "tcp-rr",
    "tcp-bulk",
    "tcp-lossy",
    "conn-churn",
];

// --- Frozen sizes --------------------------------------------------------

/// `http-wrk`: responses per repetition.
pub const HTTP_OPS_PER_REP: u64 = 10_240;
/// `redis-pipe`: replies per repetition.
pub const RESP_OPS_PER_REP: u64 = 49_152;
/// `tcp-rr`: round trips per repetition.
pub const RR_OPS_PER_REP: u64 = 10_240;
/// `tcp-bulk`: MiB per repetition.
pub const BULK_OPS_PER_REP: u64 = 128;
/// `tcp-lossy`: MiB per repetition.
pub const LOSSY_OPS_PER_REP: u64 = 24;
/// `conn-churn`: connect/echo/close cycles per repetition.
pub const CHURN_OPS_PER_REP: u64 = 4_096;

/// Keep-alive connections of `http-wrk`, one GET in flight each.
pub const HTTP_CONNS: usize = 8;
/// Connections of `redis-pipe`.
pub const RESP_CONNS: usize = 8;
/// Commands each `redis-pipe` connection keeps in flight.
pub const RESP_PIPELINE: usize = 16;
/// Keys `redis-pipe` seeds before the first repetition.
pub const RESP_KEYS: u64 = 10_000;
/// Request size of `tcp-rr` and of the `conn-churn` echo.
pub const RR_BYTES: usize = 64;
/// One bulk operation.
pub const BULK_OP_BYTES: usize = 1 << 20;
/// Application write size of the bulk sender.
pub const BULK_CHUNK: usize = 64 * 1024;
/// Virtual time per turn where timers must run.
pub const STEPPED_NS: u64 = 5_000_000;
/// `tcp-lossy` wire schedule.
pub const LOSSY_DROP_EVERY: u64 = 16;
pub const LOSSY_REORDER_EVERY: u64 = 3;

/// Turns a single request may wait for its reply before it is counted
/// as failed.
const REPLY_TURNS: usize = 64;
/// Loop iterations without progress before a repetition's remaining
/// operations are counted as failed.
const IDLE_LIMIT: usize = 4_096;

/// What one repetition did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepOut {
    pub attempted: u64,
    pub failed: u64,
}

/// Counters an app exposes through its public getters.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppCounters {
    /// Requests the app rejected as malformed.
    pub errors: u64,
    /// `alloc_stats()` of the app heap, where the app exposes it.
    pub heap: Option<ukalloc::AllocStats>,
}

/// One workload: set-up once, then any number of repetitions.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Operations per repetition at full scale.
    const OPS_PER_REP: u64;

    /// Builds the rig, connects and seeds. `ops_per_rep` is
    /// [`OPS_PER_REP`](Self::OPS_PER_REP) except in the self-tests.
    fn setup(seed: u64, ops_per_rep: u64) -> Self;
    /// Runs one repetition. `full_verify` compares every received byte
    /// (warm-up and traced repetitions); otherwise bulk streams are
    /// checked by length plus a seeded window per read, so the check
    /// does not dilute the timed number. Request/response workloads
    /// always compare every byte.
    fn rep<P: Probe>(&mut self, p: &mut P, full_verify: bool) -> RepOut;
    fn rig(&mut self) -> &mut Rig;
    /// Sequence number the next operation will carry (what a
    /// [`Flip`] names).
    fn next_op(&self) -> u64;
    fn app_counters(&self) -> AppCounters {
        AppCounters::default()
    }
}

/// The app heap the paper's headline numbers use, aged like a
/// long-running server's (live allocations with holes between them) so
/// the allocator's search paths are exercised, not just its bump path.
fn app_heap() -> Box<dyn Allocator> {
    let mut a = AllocBackend::Mimalloc.instantiate();
    a.init(1 << 26, 64 << 20).expect("allocator init");
    let held: Vec<_> = (0..4096usize)
        .filter_map(|i| a.malloc(32 + (i * 97) % 1500))
        .collect();
    for p in held.into_iter().step_by(2) {
        a.free(p);
    }
    a
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn parse_decimal(digits: &[u8]) -> Option<usize> {
    if digits.is_empty() || digits.len() > 9 {
        return None;
    }
    digits.iter().try_fold(0usize, |acc, &d| {
        d.is_ascii_digit().then(|| acc * 10 + (d - b'0') as usize)
    })
}

/// Self-test hook: what operation `op` is expected to return has bit 0
/// of byte `byte` inverted, so exactly that operation must fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flip {
    pub op: u64,
    pub byte: usize,
}

/// The flipped byte's index if `flip` targets operation `op`.
fn flip_for(flip: Option<Flip>, op: u64) -> Option<usize> {
    flip.filter(|f| f.op == op).map(|f| f.byte)
}

/// `got == want`, after inverting bit 0 of `want[flip]` when that index
/// is inside `want`.
fn same_bytes(got: &[u8], want: &[u8], flip: Option<usize>) -> bool {
    match flip {
        Some(i) if i < want.len() => {
            got.len() == want.len()
                && got[..i] == want[..i]
                && got[i] == want[i] ^ 1
                && got[i + 1..] == want[i + 1..]
        }
        _ => got == want,
    }
}

// --- tcp-rr --------------------------------------------------------------

/// One connection, one 64-byte request in flight, echoed by the
/// benchmark's own server loop.
#[derive(Debug)]
pub struct TcpRr {
    rig: Rig,
    client: SocketHandle,
    server: SocketHandle,
    ops_per_rep: u64,
    payload: [u8; RR_BYTES],
    seq: u64,
    pub flip: Option<Flip>,
}

/// One byte-verified echo round trip on an established connection:
/// send, turn, echo, turn, receive. Entered and left with the `Client`
/// span open.
fn echo_round_trip<P: Probe>(
    rig: &mut Rig,
    p: &mut P,
    client: SocketHandle,
    server: SocketHandle,
    request: &[u8; RR_BYTES],
    expected: &[u8; RR_BYTES],
) -> bool {
    let mut reply = [0u8; 2 * RR_BYTES];
    let mut echo = [0u8; 2 * RR_BYTES];
    p.begin(Layer::SockSend);
    let sent = rig.client().tcp_send(client, request);
    p.end();
    if sent != Ok(RR_BYTES) {
        return false;
    }
    let mut got = 0;
    for _ in 0..REPLY_TURNS {
        rig.turn(p);
        p.switch(Layer::Echo);
        p.begin(Layer::SockRecv);
        let n = rig.server().tcp_recv_into(server, &mut echo).unwrap_or(0);
        p.end();
        if n > 0 {
            p.begin(Layer::SockSend);
            let _ = rig.server().tcp_send(server, &echo[..n]);
            p.end();
        }
        rig.turn(p);
        p.switch(Layer::Client);
        p.begin(Layer::SockRecv);
        got += rig
            .client()
            .tcp_recv_into(client, &mut reply[got..])
            .unwrap_or(0);
        p.end();
        if got >= RR_BYTES {
            break;
        }
    }
    got == RR_BYTES && reply[..RR_BYTES] == expected[..]
}

impl Workload for TcpRr {
    const NAME: &'static str = "tcp-rr";
    const OPS_PER_REP: u64 = RR_OPS_PER_REP;

    fn setup(seed: u64, ops_per_rep: u64) -> Self {
        let mut rig = Rig::new(RigOpts::default());
        let listener = rig.server().tcp_listen(7).expect("listen");
        let (client, server) = rig.establish(listener, 7);
        let mut payload = [0u8; RR_BYTES];
        Rng::for_stream(seed, 1).fill(&mut payload);
        TcpRr {
            rig,
            client,
            server,
            ops_per_rep,
            payload,
            seq: 0,
            flip: None,
        }
    }

    fn rep<P: Probe>(&mut self, p: &mut P, _full_verify: bool) -> RepOut {
        let mut out = RepOut::default();
        p.begin(Layer::Client);
        for _ in 0..self.ops_per_rep {
            // Every request differs, so a reply that belongs to another
            // request can never pass.
            let mut request = self.payload;
            request[..8].copy_from_slice(&self.seq.to_le_bytes());
            let mut expected = request;
            if let Some(i) = flip_for(self.flip, self.seq) {
                expected[i] ^= 1;
            }
            let (start_ns, first_turn) = (p.now_ns(), p.turn_no());
            let ok = echo_round_trip(
                &mut self.rig,
                p,
                self.client,
                self.server,
                &request,
                &expected,
            );
            p.request_done(0, self.seq, first_turn, start_ns);
            out.attempted += 1;
            out.failed += u64::from(!ok);
            self.seq += 1;
        }
        p.end();
        out
    }

    fn rig(&mut self) -> &mut Rig {
        &mut self.rig
    }

    fn next_op(&self) -> u64 {
        self.seq
    }
}

// --- tcp-bulk / tcp-lossy ------------------------------------------------

/// One connection streaming 1 MiB operations client → server.
#[derive(Debug)]
pub struct Bulk {
    rig: Rig,
    client: SocketHandle,
    server: SocketHandle,
    ops_per_rep: u64,
    /// One operation's bytes; the stream is this buffer repeated.
    src: Vec<u8>,
    pub flip: Option<Flip>,
    rbuf: Vec<u8>,
    windows: Rng,
    seq: u64,
}

impl Bulk {
    fn build(seed: u64, ops_per_rep: u64, opts: RigOpts, port: u16) -> Bulk {
        let mut rig = Rig::new(opts);
        let listener = rig.server().tcp_listen(port).expect("listen");
        let (client, server) = rig.establish(listener, port);
        let mut src = vec![0u8; BULK_OP_BYTES];
        Rng::for_stream(seed, 2).fill(&mut src);
        Bulk {
            rig,
            client,
            server,
            ops_per_rep,
            src,
            flip: None,
            rbuf: vec![0u8; BULK_CHUNK],
            windows: Rng::for_stream(seed, 3),
            seq: 0,
        }
    }

    /// Streams `total` bytes (at most one operation) and checks what
    /// arrives. Entered and left with the `Client` span open.
    fn transfer<P: Probe>(&mut self, p: &mut P, total: usize, full: bool) -> bool {
        let (mut sent, mut got, mut idle) = (0usize, 0usize, 0usize);
        let mut ok = true;
        let flip = flip_for(self.flip, self.seq);
        while got < total {
            if sent < total {
                let end = total.min(sent + BULK_CHUNK);
                p.begin(Layer::SockSend);
                let stack = self.rig.client();
                sent += stack
                    .tcp_send_queued(self.client, &self.src[sent..end])
                    .unwrap_or(0);
                let _ = stack.flush_output();
                p.end();
            }
            self.rig.turn(p);
            p.switch(Layer::Echo);
            let before = got;
            loop {
                p.begin(Layer::SockRecv);
                let n = self
                    .rig
                    .server()
                    .tcp_recv_into(self.server, &mut self.rbuf)
                    .unwrap_or(0);
                p.end();
                if n == 0 {
                    break;
                }
                p.begin(Layer::Verify);
                let (from, to) = if full {
                    (0, n)
                } else {
                    let w = self.windows.below(n.saturating_sub(64) as u64 + 1) as usize;
                    (w, n.min(w + 64))
                };
                ok &= got + n <= total
                    && same_bytes(
                        &self.rbuf[from..to],
                        &self.src[got + from..got + to],
                        flip.and_then(|at| at.checked_sub(got + from)),
                    );
                p.end();
                got += n;
            }
            p.switch(Layer::Client);
            idle = if got == before { idle + 1 } else { 0 };
            if idle > IDLE_LIMIT {
                return false;
            }
        }
        ok && got == total
    }

    fn run_rep<P: Probe>(&mut self, p: &mut P, full: bool) -> RepOut {
        let mut out = RepOut::default();
        p.begin(Layer::Client);
        for _ in 0..self.ops_per_rep {
            let (start_ns, first_turn) = (p.now_ns(), p.turn_no());
            let ok = self.transfer(p, BULK_OP_BYTES, full);
            p.request_done(0, self.seq, first_turn, start_ns);
            out.attempted += 1;
            out.failed += u64::from(!ok);
            self.seq += 1;
        }
        p.end();
        out
    }
}

/// `tcp-bulk`: all offloads on, clean wire.
#[derive(Debug)]
pub struct TcpBulk(pub Bulk);

impl Workload for TcpBulk {
    const NAME: &'static str = "tcp-bulk";
    const OPS_PER_REP: u64 = BULK_OPS_PER_REP;

    fn setup(seed: u64, ops_per_rep: u64) -> Self {
        TcpBulk(Bulk::build(seed, ops_per_rep, RigOpts::default(), 9000))
    }

    fn rep<P: Probe>(&mut self, p: &mut P, full_verify: bool) -> RepOut {
        self.0.run_rep(p, full_verify)
    }

    fn rig(&mut self) -> &mut Rig {
        &mut self.0.rig
    }

    fn next_op(&self) -> u64 {
        self.0.seq
    }
}

/// `tcp-lossy`: per-MSS sender over a wire that drops every 16th and
/// swaps every 3rd frame, on 5 ms turns so recovery timers run.
#[derive(Debug)]
pub struct TcpLossy(pub Bulk);

impl Workload for TcpLossy {
    const NAME: &'static str = "tcp-lossy";
    const OPS_PER_REP: u64 = LOSSY_OPS_PER_REP;

    fn setup(seed: u64, ops_per_rep: u64) -> Self {
        let opts = RigOpts {
            step_ns: STEPPED_NS,
            tso: false,
        };
        let mut b = Bulk::build(seed, ops_per_rep, opts, 9001);
        // Faults start after the handshake. The seed picks the phase of
        // the schedule relative to the stream: a few seeded frames
        // cross the armed wire before the first operation.
        b.rig.net.set_drop_every(LOSSY_DROP_EVERY);
        b.rig.net.set_reorder_every(LOSSY_REORDER_EVERY);
        let phase = Rng::for_stream(seed, 4).below(LOSSY_DROP_EVERY) as usize;
        let ok = b.transfer(&mut NoProbe, phase * uknetstack::tcp::MSS + 1, true);
        assert!(ok, "phase-shift transfer delivered intact");
        TcpLossy(b)
    }

    fn rep<P: Probe>(&mut self, p: &mut P, full_verify: bool) -> RepOut {
        self.0.run_rep(p, full_verify)
    }

    fn rig(&mut self) -> &mut Rig {
        &mut self.0.rig
    }

    fn next_op(&self) -> u64 {
        self.0.seq
    }
}

// --- conn-churn ----------------------------------------------------------

/// Connect, accept, one echo, close both sides, until quiet — then, at
/// the end of every repetition, past 2MSL and a leak check.
#[derive(Debug)]
pub struct ConnChurn {
    rig: Rig,
    listener: SocketHandle,
    ops_per_rep: u64,
    payload: [u8; RR_BYTES],
    seq: u64,
    /// `(tcp_conn_count, armed_timer_count, pool_available)` of client
    /// and server before the first connection.
    baseline: [(usize, usize, Option<usize>); 2],
    pub flip: Option<Flip>,
}

const CHURN_PORT: u16 = 9400;

fn footprint(s: &NetStack) -> (usize, usize, Option<usize>) {
    (
        s.tcp_conn_count(),
        s.armed_timer_count(),
        s.pool_available(),
    )
}

impl ConnChurn {
    fn cycle<P: Probe>(&mut self, p: &mut P) -> bool {
        p.begin(Layer::ConnCtl);
        let client = self
            .rig
            .client()
            .tcp_connect(Endpoint::new(SERVER_IP, CHURN_PORT));
        p.end();
        let Ok(client) = client else {
            return false;
        };
        let mut server = None;
        for _ in 0..REPLY_TURNS {
            self.rig.turn(p);
            p.switch(Layer::Client);
            p.begin(Layer::ConnCtl);
            server = self.rig.server().tcp_accept(self.listener);
            p.end();
            if server.is_some() {
                break;
            }
        }
        let Some(server) = server else {
            return false;
        };
        let mut request = self.payload;
        request[..8].copy_from_slice(&self.seq.to_le_bytes());
        let mut expected = request;
        if let Some(i) = flip_for(self.flip, self.seq) {
            expected[i] ^= 1;
        }
        let ok = echo_round_trip(&mut self.rig, p, client, server, &request, &expected);
        // Active close from the client (it walks FIN_WAIT → TIME_WAIT),
        // passive close from the server once the FIN arrived.
        p.begin(Layer::ConnCtl);
        let closed = self.rig.client().tcp_close(client).is_ok();
        p.end();
        self.rig.turn(p);
        p.switch(Layer::Client);
        p.begin(Layer::ConnCtl);
        let closed = closed && self.rig.server().tcp_close(server).is_ok();
        p.end();
        self.rig.settle(p, REPLY_TURNS);
        p.switch(Layer::Client);
        ok && closed
    }

    fn leaked(&mut self) -> bool {
        footprint(self.rig.client()) != self.baseline[0]
            || footprint(self.rig.server()) != self.baseline[1]
    }
}

impl Workload for ConnChurn {
    const NAME: &'static str = "conn-churn";
    const OPS_PER_REP: u64 = CHURN_OPS_PER_REP;

    fn setup(seed: u64, ops_per_rep: u64) -> Self {
        let mut rig = Rig::new(RigOpts {
            step_ns: STEPPED_NS,
            tso: true,
        });
        let listener = rig.server().tcp_listen(CHURN_PORT).expect("listen");
        let baseline = [footprint(rig.client()), footprint(rig.server())];
        let mut payload = [0u8; RR_BYTES];
        Rng::for_stream(seed, 5).fill(&mut payload);
        ConnChurn {
            rig,
            listener,
            ops_per_rep,
            payload,
            seq: 0,
            baseline,
            flip: None,
        }
    }

    fn rep<P: Probe>(&mut self, p: &mut P, _full_verify: bool) -> RepOut {
        let mut out = RepOut::default();
        p.begin(Layer::Client);
        for _ in 0..self.ops_per_rep {
            let (start_ns, first_turn) = (p.now_ns(), p.turn_no());
            let ok = self.cycle(p);
            p.request_done(0, self.seq, first_turn, start_ns);
            out.attempted += 1;
            out.failed += u64::from(!ok);
            self.seq += 1;
        }
        // Past 2MSL every TIME_WAIT slot, timer and buffer must be
        // back; a leak fails the whole repetition.
        self.rig.tsc.advance_ns(2 * TCP_MSL_NS + STEPPED_NS);
        for _ in 0..4 {
            self.rig.turn(p);
        }
        self.rig.settle(p, REPLY_TURNS);
        p.end();
        if self.leaked() {
            out.failed = out.attempted;
        }
        out
    }

    fn rig(&mut self) -> &mut Rig {
        &mut self.rig
    }

    fn next_op(&self) -> u64 {
        self.seq
    }
}

// --- http-wrk ------------------------------------------------------------

const HTTP_RBUF: usize = 2048;
const HTTP_PATHS: [&[u8]; 2] = [
    b"GET /index.html HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n",
    b"GET / HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n",
];

#[derive(Debug)]
struct HttpConn {
    sock: SocketHandle,
    rbuf: Vec<u8>,
    rlen: usize,
    inflight: bool,
    seq: u64,
    start_ns: u64,
    first_turn: u64,
}

/// `Httpd` serving the default page to keep-alive connections.
#[derive(Debug)]
pub struct HttpWrk {
    rig: Rig,
    httpd: Httpd,
    conns: Vec<HttpConn>,
    ops_per_rep: u64,
    /// The body every response must carry.
    page: Vec<u8>,
    pub flip: Option<Flip>,
    paths: Rng,
    seq: u64,
}

/// Length of the complete response at the head of `buf`, and whether
/// it is a 200 whose `Content-Length` and body match `page`. `None`
/// while bytes are still missing.
fn check_response(buf: &[u8], page: &[u8], flip: Option<usize>) -> Option<(usize, bool)> {
    let body_at = find(buf, b"\r\n\r\n")? + 4;
    let head = &buf[..body_at];
    let len = find(head, b"Content-Length: ").and_then(|at| {
        let digits = &head[at + 16..];
        parse_decimal(&digits[..find(digits, b"\r\n")?])
    });
    let Some(len) = len else {
        // A header block without a usable length cannot be framed:
        // consume what is there and fail the request.
        return Some((buf.len(), false));
    };
    let total = body_at + len;
    if buf.len() < total {
        return None;
    }
    let ok = head.starts_with(b"HTTP/1.1 200 ") && same_bytes(&buf[body_at..total], page, flip);
    Some((total, ok))
}

impl HttpWrk {
    /// Consumes replies and sends on idle connections (while `budget`
    /// lasts); returns `(completed, failed)` of this call.
    fn client_poll<P: Probe>(&mut self, p: &mut P, budget: &mut u64) -> (u64, u64) {
        let (mut done, mut failed) = (0, 0);
        for (i, c) in self.conns.iter_mut().enumerate() {
            if c.inflight {
                p.begin(Layer::SockRecv);
                c.rlen += self
                    .rig
                    .client()
                    .tcp_recv_into(c.sock, &mut c.rbuf[c.rlen..])
                    .unwrap_or(0);
                p.end();
                if let Some((used, ok)) =
                    check_response(&c.rbuf[..c.rlen], &self.page, flip_for(self.flip, c.seq))
                {
                    c.rbuf.copy_within(used..c.rlen, 0);
                    c.rlen -= used;
                    c.inflight = false;
                    done += 1;
                    failed += u64::from(!ok);
                    p.request_done(i as u32, c.seq, c.first_turn, c.start_ns);
                } else if c.rlen == c.rbuf.len() {
                    // A reply that does not fit is not the page.
                    c.rlen = 0;
                    c.inflight = false;
                    done += 1;
                    failed += 1;
                }
            }
            // Keep-alive: the next GET leaves as soon as the last
            // response is in.
            if !c.inflight && *budget > 0 {
                let request = HTTP_PATHS[self.paths.below(2) as usize];
                p.begin(Layer::SockSend);
                let sent = self.rig.client().tcp_send(c.sock, request);
                p.end();
                *budget -= 1;
                if sent != Ok(request.len()) {
                    done += 1;
                    failed += 1;
                    continue;
                }
                c.inflight = true;
                c.seq = self.seq;
                self.seq += 1;
                c.start_ns = p.now_ns();
                c.first_turn = p.turn_no();
            }
        }
        (done, failed)
    }
}

impl Workload for HttpWrk {
    const NAME: &'static str = "http-wrk";
    const OPS_PER_REP: u64 = HTTP_OPS_PER_REP;

    fn setup(seed: u64, ops_per_rep: u64) -> Self {
        let mut rig = Rig::new(RigOpts::default());
        let mut httpd = Httpd::new(rig.server(), 80, app_heap()).expect("httpd");
        let mut conns = Vec::with_capacity(HTTP_CONNS);
        for _ in 0..HTTP_CONNS {
            let sock = rig
                .client()
                .tcp_connect(Endpoint::new(SERVER_IP, 80))
                .expect("connect");
            conns.push(HttpConn {
                sock,
                rbuf: vec![0u8; HTTP_RBUF],
                rlen: 0,
                inflight: false,
                seq: 0,
                start_ns: 0,
                first_turn: 0,
            });
        }
        // The server accepts inside its own poll.
        for _ in 0..8 {
            rig.step();
            httpd.poll(rig.server());
        }
        assert_eq!(httpd.conn_count(), HTTP_CONNS, "every connection accepted");
        HttpWrk {
            rig,
            httpd,
            conns,
            ops_per_rep,
            page: default_page(),
            flip: None,
            paths: Rng::for_stream(seed, 6),
            seq: 0,
        }
    }

    fn rep<P: Probe>(&mut self, p: &mut P, _full_verify: bool) -> RepOut {
        let mut out = RepOut::default();
        let mut budget = self.ops_per_rep;
        let mut idle = 0;
        p.begin(Layer::Client);
        while out.attempted < self.ops_per_rep {
            let (done, failed) = self.client_poll(p, &mut budget);
            out.attempted += done;
            out.failed += failed;
            self.rig.turn(p);
            p.switch(Layer::AppPoll);
            self.httpd.poll(self.rig.server());
            self.rig.turn(p);
            p.switch(Layer::Client);
            idle = if done == 0 { idle + 1 } else { 0 };
            if idle > IDLE_LIMIT {
                out.failed += self.ops_per_rep - out.attempted;
                out.attempted = self.ops_per_rep;
            }
        }
        p.end();
        out
    }

    fn rig(&mut self) -> &mut Rig {
        &mut self.rig
    }

    fn next_op(&self) -> u64 {
        self.seq
    }

    fn app_counters(&self) -> AppCounters {
        AppCounters {
            errors: self.httpd.errors(),
            heap: Some(self.httpd.alloc_stats()),
        }
    }
}

// --- redis-pipe ----------------------------------------------------------

const RESP_OUT_CAP: usize = 8 * 1024;
const RESP_RBUF: usize = 16 * 1024;
const VALUE_POOL: usize = 64 * 1024;
const VALUE_MIN: u64 = 24;
const VALUE_MAX: u64 = 256;

#[derive(Debug, Clone, Copy)]
enum Want {
    Ok,
    /// The value SET as version `ver` of `key`.
    Value {
        key: u32,
        ver: u32,
    },
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    want: Want,
    seq: u64,
    start_ns: u64,
    first_turn: u64,
}

#[derive(Debug)]
struct RespConn {
    sock: SocketHandle,
    out: Vec<u8>,
    out_off: usize,
    rbuf: Vec<u8>,
    rlen: usize,
    pending: VecDeque<Pending>,
    /// Protocol desync: nothing on this connection can be trusted.
    dead: bool,
}

/// `KvStore` under pipelined SET/GET with a client-side model of every
/// key's last value.
#[derive(Debug)]
pub struct RedisPipe {
    rig: Rig,
    kv: KvStore,
    conns: Vec<RespConn>,
    ops_per_rep: u64,
    seed: u64,
    /// Version of each key's last SET (the value bytes are a function
    /// of key, version and seed).
    model: Vec<u32>,
    pub flip: Option<Flip>,
    pool: Vec<u8>,
    mix: Rng,
    seq: u64,
}

fn push_decimal(out: &mut Vec<u8>, mut v: usize, width: usize) {
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let at = at.min(digits.len() - width.min(digits.len()));
    out.extend_from_slice(&digits[at..]);
}

fn push_key(out: &mut Vec<u8>, key: u32) {
    out.extend_from_slice(b"$16\r\nkey:");
    push_decimal(out, key as usize, 12);
    out.extend_from_slice(b"\r\n");
}

impl RedisPipe {
    fn value_of(pool: &[u8], seed: u64, key: u32, ver: u32) -> &[u8] {
        let h = mix(seed ^ ((key as u64) << 32 | ver as u64));
        let len = (VALUE_MIN + h % (VALUE_MAX - VALUE_MIN + 1)) as usize;
        let off = ((h >> 20) % (VALUE_POOL as u64 - VALUE_MAX)) as usize;
        &pool[off..off + len]
    }

    /// Appends one command for connection `ci` to its output buffer
    /// and files what its reply must be.
    fn issue<P: Probe>(&mut self, p: &P, ci: usize, key: u32, set: bool) {
        let c = &mut self.conns[ci];
        let want = if set {
            let ver = self.model[key as usize].wrapping_add(1);
            self.model[key as usize] = ver;
            let v = Self::value_of(&self.pool, self.seed, key, ver);
            c.out.extend_from_slice(b"*3\r\n$3\r\nSET\r\n");
            push_key(&mut c.out, key);
            c.out.push(b'$');
            push_decimal(&mut c.out, v.len(), 1);
            c.out.extend_from_slice(b"\r\n");
            c.out.extend_from_slice(v);
            c.out.extend_from_slice(b"\r\n");
            Want::Ok
        } else {
            c.out.extend_from_slice(b"*2\r\n$3\r\nGET\r\n");
            push_key(&mut c.out, key);
            Want::Value {
                key,
                ver: self.model[key as usize],
            }
        };
        c.pending.push_back(Pending {
            want,
            seq: self.seq,
            start_ns: p.now_ns(),
            first_turn: p.turn_no(),
        });
        self.seq += 1;
    }

    /// Parses one reply off the head of `buf`.
    fn check_reply(&self, buf: &[u8], want: Want, flip: Option<usize>) -> Option<(usize, bool)> {
        match *buf.first()? {
            b'+' => {
                let end = find(buf, b"\r\n")?;
                Some((
                    end + 2,
                    matches!(want, Want::Ok) && same_bytes(&buf[..end], b"+OK", flip),
                ))
            }
            b'$' => {
                let end = find(buf, b"\r\n")?;
                if &buf[1..end] == b"-1" {
                    return Some((end + 2, false));
                }
                let Some(len) = parse_decimal(&buf[1..end]) else {
                    return Some((0, false));
                };
                let total = end + 2 + len + 2;
                if buf.len() < total {
                    return None;
                }
                let ok = match want {
                    Want::Value { key, ver } => same_bytes(
                        &buf[end + 2..end + 2 + len],
                        Self::value_of(&self.pool, self.seed, key, ver),
                        flip,
                    ),
                    Want::Ok => false,
                };
                Some((total, ok && &buf[total - 2..total] == b"\r\n"))
            }
            b'-' | b':' => Some((find(buf, b"\r\n")? + 2, false)),
            _ => Some((0, false)),
        }
    }

    /// Consumes replies, refills pipelines (`next` picks each command
    /// while `budget` lasts), pushes output. Returns `(completed,
    /// failed)` of this call.
    fn client_poll<P: Probe>(
        &mut self,
        p: &mut P,
        budget: &mut u64,
        mut next: impl FnMut(&mut Self, usize) -> (u32, bool),
    ) -> (u64, u64) {
        let (mut done, mut failed) = (0, 0);
        for ci in 0..self.conns.len() {
            if self.conns[ci].dead {
                // Nothing more will be believed from this connection.
                let lost = self.conns[ci].pending.len() as u64;
                self.conns[ci].pending.clear();
                done += lost;
                failed += lost;
                continue;
            }
            if !self.conns[ci].pending.is_empty() {
                let c = &mut self.conns[ci];
                p.begin(Layer::SockRecv);
                c.rlen += self
                    .rig
                    .client()
                    .tcp_recv_into(c.sock, &mut c.rbuf[c.rlen..])
                    .unwrap_or(0);
                p.end();
                let mut at = 0;
                while let Some(&pend) = self.conns[ci].pending.front() {
                    let c = &self.conns[ci];
                    let Some((used, ok)) = self.check_reply(
                        &c.rbuf[at..c.rlen],
                        pend.want,
                        flip_for(self.flip, pend.seq),
                    ) else {
                        break;
                    };
                    done += 1;
                    failed += u64::from(!ok);
                    self.conns[ci].pending.pop_front();
                    p.request_done(ci as u32, pend.seq, pend.first_turn, pend.start_ns);
                    if used == 0 {
                        self.conns[ci].dead = true;
                        break;
                    }
                    at += used;
                }
                let c = &mut self.conns[ci];
                c.rbuf.copy_within(at..c.rlen, 0);
                c.rlen -= at;
            }
            // Refill the pipeline as soon as replies made room.
            while self.conns[ci].pending.len() < RESP_PIPELINE && *budget > 0 {
                let (key, set) = next(self, ci);
                self.issue(p, ci, key, set);
                *budget -= 1;
            }
            let c = &mut self.conns[ci];
            if c.out_off < c.out.len() {
                p.begin(Layer::SockSend);
                match self.rig.client().tcp_send(c.sock, &c.out[c.out_off..]) {
                    Ok(n) => c.out_off += n,
                    Err(ukplat::Errno::Again) => {}
                    Err(_) => c.dead = true,
                }
                p.end();
                if c.out_off == c.out.len() {
                    c.out.clear();
                    c.out_off = 0;
                }
            }
        }
        (done, failed)
    }

    /// Client poll, turn, server poll, turn — until `ops` replies are
    /// in.
    fn run<P: Probe>(
        &mut self,
        p: &mut P,
        ops: u64,
        mut next: impl FnMut(&mut Self, usize) -> (u32, bool),
    ) -> RepOut {
        let mut out = RepOut::default();
        let mut budget = ops;
        let mut idle = 0;
        p.begin(Layer::Client);
        while out.attempted < ops {
            let (done, failed) = self.client_poll(p, &mut budget, &mut next);
            out.attempted += done;
            out.failed += failed;
            self.rig.turn(p);
            p.switch(Layer::AppPoll);
            self.kv.poll(self.rig.server());
            self.rig.turn(p);
            p.switch(Layer::Client);
            idle = if done == 0 { idle + 1 } else { 0 };
            if idle > IDLE_LIMIT {
                out.failed += ops - out.attempted;
                out.attempted = ops;
            }
        }
        p.end();
        out
    }
}

impl Workload for RedisPipe {
    const NAME: &'static str = "redis-pipe";
    const OPS_PER_REP: u64 = RESP_OPS_PER_REP;

    fn setup(seed: u64, ops_per_rep: u64) -> Self {
        let mut rig = Rig::new(RigOpts::default());
        let kv = KvStore::new(rig.server(), 6379, app_heap()).expect("kvstore");
        let mut conns = Vec::with_capacity(RESP_CONNS);
        for _ in 0..RESP_CONNS {
            let sock = rig
                .client()
                .tcp_connect(Endpoint::new(SERVER_IP, 6379))
                .expect("connect");
            conns.push(RespConn {
                sock,
                out: Vec::with_capacity(RESP_OUT_CAP),
                out_off: 0,
                rbuf: vec![0u8; RESP_RBUF],
                rlen: 0,
                pending: VecDeque::with_capacity(RESP_PIPELINE),
                dead: false,
            });
        }
        let mut pool = vec![0u8; VALUE_POOL];
        Rng::for_stream(seed, 7).fill(&mut pool);
        let mut w = RedisPipe {
            rig,
            kv,
            conns,
            ops_per_rep,
            seed,
            model: vec![0; RESP_KEYS as usize],
            flip: None,
            pool,
            mix: Rng::for_stream(seed, 8),
            seq: 0,
        };
        for _ in 0..8 {
            w.rig.step();
            w.kv.poll(w.rig.server());
        }
        // Seed every key once. Which connection carries a key does not
        // matter here: each is SET exactly once and every reply is in
        // before the first repetition starts.
        let mut cursor = 0u32;
        let seeded = w.run(&mut NoProbe, RESP_KEYS, |_, _| {
            cursor += 1;
            (cursor - 1, true)
        });
        assert_eq!(seeded.failed, 0, "seeding SETs all answered +OK");
        assert_eq!(w.kv.len() as u64, RESP_KEYS);
        w
    }

    fn rep<P: Probe>(&mut self, p: &mut P, _full_verify: bool) -> RepOut {
        let ops = self.ops_per_rep;
        // Keys are partitioned by connection (key % conns), so the
        // order of commands on one key is the order on one connection
        // and the expected reply is known when the command is issued.
        self.run(p, ops, |w, ci| {
            let r = w.mix.next_u64();
            let key = ci as u64 + (r >> 1) % (RESP_KEYS / RESP_CONNS as u64) * RESP_CONNS as u64;
            (key as u32, r & 1 == 1)
        })
    }

    fn rig(&mut self) -> &mut Rig {
        &mut self.rig
    }

    fn next_op(&self) -> u64 {
        self.seq
    }

    fn app_counters(&self) -> AppCounters {
        AppCounters {
            errors: self.kv.errors(),
            heap: None,
        }
    }
}
