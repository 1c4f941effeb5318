//! Accounting and tracing: the one table every count of the stack is a
//! row of, the gauges that are not counts, and the tracepoints.
//!
//! A count is written once, by the stack, in its own
//! [`ukstats::CounterSet`]: `stack_stats_table!` declares every row,
//! [`NetStack::stats`](super::NetStack::stats) reads them back as
//! [`StackStats`], and the registry sums the stacks on read (README,
//! "Accounting"). What a connection's TCB counted crosses into the same
//! set through [`publish_tcb_stats`], after every ingest, timer fire and
//! output poll.

use ukstats::CounterSet;

use crate::tcp::TcbStats;

/// Typed tracepoints of the stack datapath. Each fires into the owning
/// stack's [`TraceRing`](uktrace::TraceRing) (drained via
/// [`NetStack::trace_events`]); with the `trace` feature off every call
/// site compiles to nothing.
///
/// [`NetStack::trace_events`]: super::NetStack::trace_events
pub mod tp {
    uktrace::tracepoints! {
        // ARP: resolution traffic and the parking queue.
        arp_request_tx(dst_ip),
        arp_request_rx(sender_ip),
        arp_reply_rx(sender_ip),
        arp_parked(dst_ip, queued),
        // TCP: connection lifecycle and the data fast paths.
        tcp_syn_rx(local_port, remote_port),
        tcp_established(conn),
        tcp_data_rx(conn, bytes),
        tcp_super_rx(conn, bytes),
        tcp_dup_ack(conn, count),
        tcp_fin_rx(local_port, seq),
        tcp_segment_tx(dst_port, seq),
        tso_super_tx(bytes, mss),
        gro_merge(conn, frames),
        // TCP loss recovery.
        tcp_rto_fire(conn, backlog),
        tcp_retransmit(conn, count),
        tcp_fast_retransmit(conn, count),
        tcp_ooo_queue(conn, count),
        // TCP surgical recovery (SACK scoreboard / RACK-TLP).
        tcp_sack_rtx(conn, count),
        tcp_spurious_rtx(conn, count),
        tcp_tlp_probe(conn, count),
        tcp_ooo_shed(conn, count),
        // TCP ACK policy: a held ACK sat out its whole hold time.
        tcp_delack_fire(conn, now_ns),
        // TCP connection lifecycle.
        tcp_rst_tx(dst_port, seq),
        tcp_time_wait(conn, count),
        tcp_conn_reaped(conn, reason),
        tcp_syn_evicted(port, slot),
        tcp_keepalive_probe(conn, probes),
        // Other demux outcomes.
        udp_rx(dst_port, bytes),
        icmp_echo_rx(ident, seq),
        demux_miss(proto, port),
    }
}

/// Records a trace ring holds before overwriting the oldest.
// ukcheck: allow(unused-pub) -- how much `NetStack::trace_events` can return:
// part of that public call's contract
pub const TRACE_RING_CAP: usize = 1024;

/// The stack's gauges and its one histogram — values with no single
/// running sum: registry handles for the gauges (one relaxed store
/// each), the stack's own cells for the histogram (plain stores).
/// Everything that counts is a row of `stack_stats_table!`.
pub(super) struct StackGauges {
    /// Last observed RACK reordering window (ns; most recently polled
    /// connection).
    pub(super) tcp_rack_reorder_window_ns: ukstats::Gauge,
    /// Last observed congestion window (bytes; most recently polled
    /// connection).
    pub(super) tcp_cwnd: ukstats::Gauge,
    /// Wall-clock duration of one full `pump` sweep.
    pub(super) pump_ns: ukstats::Histogram,
    /// Most pooled buffers ever in flight at once (pool high-water).
    pub(super) pool_inflight_hiwater: ukstats::Gauge,
    /// Most buffers one pool has built (pools never free one).
    pub(super) pool_built: ukstats::Gauge,
    /// Most packets ever parked behind one unresolved next-hop.
    pub(super) arp_parked_hiwater: ukstats::Gauge,
}

impl StackGauges {
    pub(super) fn register() -> Self {
        StackGauges {
            tcp_rack_reorder_window_ns: ukstats::Gauge::register(
                "netstack.tcp.rack_reorder_window_ns",
            ),
            tcp_cwnd: ukstats::Gauge::register("netstack.tcp.cwnd"),
            pump_ns: ukstats::Histogram::register("netstack.pump_ns"),
            pool_inflight_hiwater: ukstats::Gauge::register("netstack.pool_inflight_hiwater"),
            pool_built: ukstats::Gauge::register("netstack.pool_built"),
            arp_parked_hiwater: ukstats::Gauge::register("netstack.arp_parked_hiwater"),
        }
    }
}

/// What a `stack_stats_table!` `tcb` row's tracepoint records beside
/// the connection.
#[cfg_attr(not(feature = "trace"), allow(dead_code))]
enum TpArg {
    /// How far the field moved.
    Delta,
    /// The field's new cumulative value.
    Total,
    /// The caller's context word: the segment's sequence number at
    /// ingest, the clock at a timer fire.
    Context,
}

/// The one accounting table: every count the stack keeps is a row,
/// `field => "registry name"`, and lives once — in the cell of that
/// index in the stack's [`CounterSet`], which is both the [`StackStats`]
/// field [`NetStack::stats`] reports and this stack's share of the
/// registry's total for the name. `stack` rows are counted where the
/// event happens (`counts.add(row::field, n)`); `tcb` rows are the
/// [`TcbStats`] fields, handed over by [`publish_tcb_stats`], with the
/// tracepoint fired when the field moves (and its second argument).
/// Rows are published in table order. The table expands to
/// straight-line code — walked at run time through accessor pointers it
/// cost `tcp-rr` 8 %.
///
/// [`NetStack::stats`]: super::NetStack::stats
macro_rules! stack_stats_table {
    (
        stack { $($(#[$doc:meta])* $field:ident => $name:literal;)* }
        tcb { $($tfield:ident => $tname:literal $(, $tp:ident($arg:ident))?;)* }
    ) => {
        ukstats::counter_rows! {
            pub(super) mod row {
                $($field => $name;)*
                $($tfield => $tname;)*
            }
        }

        /// What one stack counted, row by row of the accounting table —
        /// the stack's own view, whether or not the `stats` feature
        /// links it into the registry. A name's registry total is the
        /// sum of this field over every stack in the process.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct StackStats {
            $($(#[$doc])* pub $field: u64,)*
            $(
                #[doc = concat!(
                    "[`TcbStats::", stringify!($tfield), "`], summed over every connection \
                     this stack has had."
                )]
                pub $tfield: u64,
            )*
        }

        impl StackStats {
            pub(super) fn read(counts: &CounterSet) -> Self {
                StackStats {
                    $($field: counts.get(row::$field),)*
                    $($tfield: counts.get(row::$tfield),)*
                }
            }
        }

        /// Publishes what a connection's TCB counted since the stack
        /// last looked — after every crossing: an ingest, a timer fire,
        /// an output poll. `published` is the stack's copy of the
        /// counters as of then; each field that moved past it adds to
        /// its row (once per crossing, however many segments moved it)
        /// and fires its tracepoint for connection `conn` (its `ConnId::key`). Most crossings
        /// move nothing and pay the compare alone, inline.
        #[inline]
        pub(super) fn publish_tcb_stats(
            counts: &CounterSet,
            trace: &mut uktrace::TraceRing,
            conn: u64,
            context: u64,
            published: &mut TcbStats,
            stats: &TcbStats,
        ) {
            if published != stats {
                publish_moved(counts, trace, conn, context, published, stats);
            }
        }

        #[inline(never)]
        #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
        fn publish_moved(
            counts: &CounterSet,
            trace: &mut uktrace::TraceRing,
            conn: u64,
            context: u64,
            published: &mut TcbStats,
            stats: &TcbStats,
        ) {
            $(
                let delta = u64::from(stats.$tfield.wrapping_sub(published.$tfield));
                if delta > 0 {
                    counts.add(row::$tfield, delta);
                    $(
                        let arg = match TpArg::$arg {
                            TpArg::Delta => delta,
                            TpArg::Total => u64::from(stats.$tfield),
                            TpArg::Context => context,
                        };
                        uktrace::trace!(trace, tp::$tp, conn, arg);
                    )?
                }
            )*
            *published = *stats;
        }
    };
}

stack_stats_table! {
    stack {
        /// Frames received and parsed.
        rx_frames => "netstack.rx_frames";
        /// Frames transmitted.
        tx_frames => "netstack.tx_frames";
        /// Payload bytes transmitted.
        tx_bytes => "netstack.tx_bytes";
        /// RX bursts swept by `pump` (`rx_frames / rx_bursts` is the
        /// per-burst amortization factor).
        rx_bursts => "netstack.rx_bursts";
        /// TX bursts pushed into the device.
        tx_bursts => "netstack.tx_bursts";
        /// Frames whose transport checksum was offloaded to the device.
        csum_offloaded => "netstack.csum_offloaded";
        /// GSO super-segments handed to the device for TSO cutting (each
        /// counts once in `tx_frames` but covers many wire frames).
        tso_super_frames => "netstack.tso_super_frames";
        /// Payload bytes that left in GSO super-segments.
        tso_super_bytes => "netstack.tso_super_bytes";
        /// Received frames whose software checksum verification was
        /// skipped because the wire/device marked them validated.
        rx_csum_skipped => "netstack.rx_csum_skipped";
        /// Super-segments received whole as buffer chains (big receive);
        /// each counts once in `rx_frames` but covers many MSS worth of
        /// stream.
        rx_super_frames => "netstack.rx_super_frames";
        /// GRO runs delivered: groups of ≥ 2 consecutive in-order TCP
        /// segments from one burst merged into a single multi-part ingest.
        gro_runs => "netstack.gro_runs";
        /// Frames that rode those runs (`gro_merged_frames / gro_runs` is
        /// the receive-side coalescing factor).
        gro_merged_frames => "netstack.gro_merged_frames";
        /// Frames dropped (parse errors, unknown ports, full queues).
        dropped => "netstack.dropped";
        /// TCP segments that found their connection or listener.
        demux_tcp => "netstack.demux_tcp";
        /// UDP datagrams that found their socket.
        demux_udp => "netstack.demux_udp";
        /// ARP packets handled.
        demux_arp => "netstack.demux_arp";
        /// ICMP messages handled.
        demux_icmp => "netstack.demux_icmp";
        /// Segments and datagrams addressed to a port nothing owns.
        demux_miss => "netstack.demux_miss";
        /// Payload-free ACK segments transmitted (handshake and FIN ACKs,
        /// duplicate ACKs, window updates, released held ACKs).
        tcp_pure_acks_tx => "netstack.tcp.pure_acks_tx";
        /// Listener overflow events: half-open connections evicted from a
        /// full SYN queue plus handshake-completing ACKs dropped against a
        /// full accept backlog.
        tcp_syn_overflow => "netstack.tcp.syn_overflow";
        /// RST segments generated for segments that missed the demux.
        tcp_rst_tx => "netstack.tcp.rst_tx";
        /// Packets parked behind an unresolved next-hop.
        arp_parked => "netstack.arp_parked";
        /// Parked packets evicted from a full parking queue.
        arp_evicted => "netstack.arp_evicted";
        /// Who-has requests broadcast.
        arp_requests_tx => "netstack.arp_requests_tx";
        /// Sweeps `pump` has run (also selects the ones it times).
        pump_sweeps => "netstack.pump_sweeps";
        /// Timer-wheel entries armed: a connection's earliest deadline
        /// moved ahead of the entry it had, or it had none.
        timer_arms => "netstack.timer_arms";
    }
    tcb {
        dup_acks => "netstack.dup_acks", tcp_dup_ack(Total);
        rto_fires => "netstack.tcp.rto_fires", tcp_rto_fire(Total);
        retransmits => "netstack.tcp.retransmits", tcp_retransmit(Delta);
        fast_retransmits => "netstack.tcp.fast_retransmits", tcp_fast_retransmit(Delta);
        ooo_queued => "netstack.tcp.ooo_queued", tcp_ooo_queue(Delta);
        sack_rtx => "netstack.tcp.sack_rtx", tcp_sack_rtx(Delta);
        spurious_rtx => "netstack.tcp.spurious_rtx", tcp_spurious_rtx(Delta);
        tlp_probes => "netstack.tcp.tlp_probes", tcp_tlp_probe(Delta);
        ooo_shed => "netstack.tcp.ooo_shed", tcp_ooo_shed(Delta);
        delack_fires => "netstack.tcp.delack_fires", tcp_delack_fire(Context);
        acks_piggybacked => "netstack.tcp.acks_piggybacked";
        window_updates => "netstack.tcp.window_updates_tx";
        timewait => "netstack.tcp.timewait", tcp_time_wait(Delta);
        keepalive_probes => "netstack.tcp.keepalive_probes", tcp_keepalive_probe(Total);
        keepalive_drops => "netstack.tcp.keepalive_drops";
    }
}
