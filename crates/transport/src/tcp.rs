//! Kernel-style TCP model.
//!
//! Captures the TCP properties the paper's results depend on:
//!
//! * **Byte-stream abstraction.** Application messages are framed on a
//!   stream; a bad pointer or size corrupts the framing of *everything
//!   after the fault* (§1, §5.5). The receiver discovers the corruption
//!   as a framing error and resets the connection.
//! * **Timeout and retry.** Packet loss is assumed transient: segments
//!   are retransmitted with exponential backoff and the connection only
//!   aborts after [`TcpConfig::abort_after`] (~13 minutes), which makes
//!   TCP fault *detection* far too slow to drive reconfiguration (§5.2).
//! * **Dynamic kernel memory.** Every packet needs an skbuf; when
//!   allocation fails, outgoing segments queue in the kernel and
//!   incoming packets are dropped (§4.2, §5.4).
//! * **Synchronous `EFAULT`.** A NULL data pointer is caught by the
//!   kernel at the system-call boundary (§5.5).
//! * **Connections are sockets, not peers.** A restarted process
//!   connects on a *new* socket while peers may still hold stalled old
//!   connections to its previous life; the old ones die only when a
//!   retransmission reaches the rebooted kernel and draws a reset. This
//!   coexistence is what produces the paper's failed-rejoin timing race
//!   (§5.3).
//!
//! The implementation is a pure state machine: every entry point appends
//! [`Effect`]s to a caller-provided buffer.

use std::collections::{BTreeMap, VecDeque};

use simnet::fabric::{Frame, LossReason, NodeId};
use simnet::{SimDuration, SimTime};

use crate::api::{
    BreakReason, CallParams, Effect, Effects, MsgClass, PtrParam, SendStatus, Substrate, TimerKey,
    TimerKind, Upcall, WirePayload,
};
use crate::cost::CostModel;

/// Tunable TCP parameters. Defaults approximate a Linux 2.2-era stack on
/// the paper's test-bed.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum payload bytes per segment.
    pub mss: u32,
    /// Wire overhead per segment (IP + TCP headers).
    pub header_bytes: u32,
    /// Send-buffer size in bytes; sends beyond this return
    /// [`SendStatus::WouldBlock`].
    pub send_buffer: u32,
    /// Initial retransmission timeout.
    pub initial_rto: SimDuration,
    /// Retransmission timeout ceiling.
    pub max_rto: SimDuration,
    /// Time a segment may remain unacknowledged before the connection is
    /// aborted. The paper observes "on the order of 10-15 minutes".
    pub abort_after: SimDuration,
    /// Retry interval while kernel memory allocation is failing.
    pub alloc_retry: SimDuration,
    /// SYN retransmission interval.
    pub connect_retry: SimDuration,
    /// Give up on connection establishment after this long.
    pub connect_give_up: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 8192,
            header_bytes: 40,
            send_buffer: 32 * 1024,
            initial_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(64),
            abort_after: SimDuration::from_secs(780),
            alloc_retry: SimDuration::from_millis(10),
            connect_retry: SimDuration::from_secs(1),
            connect_give_up: SimDuration::from_secs(12),
        }
    }
}

/// A record of one framed application message on the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MsgRec<M> {
    /// Stream offset of the first byte.
    pub start: u64,
    /// Stream offset one past the last byte.
    pub end: u64,
    /// The message (simulation carries it out of band; on real hardware
    /// these bytes are the stream content).
    pub msg: M,
    /// Message class tag.
    pub class: MsgClass,
    /// Declared payload size.
    pub bytes: u32,
    /// Whether a bad-parameter fault garbled this message's bytes (and
    /// therefore the framing of everything after it).
    pub poisoned: bool,
}

/// Discriminates segment roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegKind {
    /// Connection request.
    Syn,
    /// Connection accept.
    SynAck,
    /// Data and/or acknowledgement.
    Data,
    /// Hard reset.
    Rst,
}

/// One TCP segment on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpSegment<M> {
    /// Segment role.
    pub kind: SegKind,
    /// The connection (socket pair) this segment belongs to; assigned by
    /// the connection initiator, echoed by resets.
    pub conn: u64,
    /// First stream byte carried (data segments).
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Cumulative acknowledgement.
    pub ack: u64,
    /// Advertised receive window: `false` means zero window (the peer
    /// application stopped consuming).
    pub window_open: bool,
    /// Messages whose final byte lies within this segment.
    pub msgs: Vec<MsgRec<M>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    SynSent,
    Established,
}

#[derive(Debug)]
struct Conn<M> {
    id: u64,
    state: ConnState,
    opened_at: SimTime,
    // --- send side ---
    next_seq: u64,
    snd_una: u64,
    snd_sent: u64,
    /// Unacknowledged messages in stream order; their `end`s strictly
    /// increase.
    retained: VecDeque<MsgRec<M>>,
    poisoned_from: Option<u64>,
    first_unacked_at: Option<SimTime>,
    rto: SimDuration,
    timer_gen: u64,
    rtx_armed: bool,
    rtx_at: SimTime,
    blocked: bool,
    alloc_waiting: bool,
    peer_window_open: bool,
    // --- receive side ---
    rcv_next: u64,
    delivered_up_to: u64,
    ooo: Vec<(u64, u64)>,
    pending_msgs: BTreeMap<u64, MsgRec<M>>,
}

impl<M> Conn<M> {
    fn new(id: u64, now: SimTime, state: ConnState, rto: SimDuration) -> Self {
        Conn {
            id,
            state,
            opened_at: now,
            next_seq: 0,
            snd_una: 0,
            snd_sent: 0,
            retained: VecDeque::new(),
            poisoned_from: None,
            first_unacked_at: None,
            rto,
            timer_gen: 0,
            rtx_armed: false,
            rtx_at: SimTime::ZERO,
            blocked: false,
            alloc_waiting: false,
            peer_window_open: true,
            rcv_next: 0,
            delivered_up_to: 0,
            ooo: Vec::new(),
            pending_msgs: BTreeMap::new(),
        }
    }

    fn buffered(&self) -> u64 {
        self.next_seq - self.snd_una
    }

    /// Copies of the messages whose final byte lies in `seq + 1..=end`.
    fn msgs_ending_in(&self, seq: u64, end: u64) -> Vec<MsgRec<M>>
    where
        M: Clone,
    {
        let lo = self.retained.partition_point(|r| r.end <= seq);
        let hi = self.retained.partition_point(|r| r.end <= end);
        self.retained.range(lo..hi).cloned().collect()
    }
}

/// Counters for observing stack behaviour in tests and reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Data segments transmitted (including retransmissions).
    pub data_segments_sent: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
    /// Messages delivered to the application.
    pub messages_delivered: u64,
    /// Connections aborted by the retransmission deadline.
    pub aborts: u64,
    /// Framing errors detected (stream corruption).
    pub framing_errors: u64,
    /// Sends rejected synchronously with `EFAULT`.
    pub efaults: u64,
    /// Segments that could not get an skbuf.
    pub alloc_failures: u64,
    /// Resets sent in response to segments for unknown connections.
    pub rsts_sent: u64,
}

/// The TCP endpoint of one node: its sockets to every peer plus the
/// node-wide kernel-memory state.
///
/// # Example
///
/// ```
/// use simnet::fabric::NodeId;
/// use simnet::SimTime;
/// use transport::tcp::{TcpConfig, TcpStack};
/// use transport::{CallParams, CostModel, MsgClass, SendStatus, Substrate};
///
/// let mut a: TcpStack<&str> = TcpStack::new(NodeId(0), TcpConfig::default(), CostModel::tcp());
/// let mut out = Vec::new();
/// a.open(SimTime::ZERO, NodeId(1), &mut out);
/// // Until the handshake completes the message is queued, not refused:
/// let st = a.send(SimTime::ZERO, NodeId(1), MsgClass::Forward, "hi", 64,
///                 CallParams::default(), &mut out);
/// assert_eq!(st, SendStatus::Accepted);
/// ```
#[derive(Debug)]
pub struct TcpStack<M> {
    node: NodeId,
    config: TcpConfig,
    cost: CostModel,
    next_conn: u64,
    alloc_fail: bool,
    app_receiving: bool,
    /// Sockets per peer, indexed by peer id; an empty list means no
    /// connection. Iteration therefore goes in ascending peer id.
    conns: Vec<Vec<Conn<M>>>,
    parked: Vec<(NodeId, MsgRec<M>)>,
    /// Scratch for assembling in-order deliveries in `process_data`;
    /// kept on the stack so steady-state receive reuses its capacity
    /// instead of allocating a fresh buffer per data segment.
    delivery: Vec<MsgRec<M>>,
    stats: TcpStats,
    /// Structured-tracing switch; checked before any trace event is
    /// even constructed so the disabled path costs one branch.
    trace: bool,
    /// Causal-attribution switch, same discipline as `trace`.
    attr: bool,
}

impl<M: Clone> TcpStack<M> {
    /// Creates the endpoint for `node`.
    pub fn new(node: NodeId, config: TcpConfig, cost: CostModel) -> Self {
        TcpStack {
            node,
            config,
            cost,
            // Connection ids must stay unique across process restarts on
            // this node: start from a node-distinct base.
            next_conn: node.0 as u64 * 1_000_000_000 + 1,
            alloc_fail: false,
            app_receiving: true,
            conns: Vec::new(),
            parked: Vec::new(),
            delivery: Vec::new(),
            stats: TcpStats::default(),
            trace: false,
            attr: false,
        }
    }

    /// Behaviour counters.
    pub fn stats(&self) -> &TcpStats {
        &self.stats
    }

    /// Bytes buffered (sent-but-unacked plus unsent) towards `peer`,
    /// over all of its connections.
    pub fn buffered_bytes(&self, peer: NodeId) -> u64 {
        self.peer_conns(peer).iter().map(Conn::buffered).sum()
    }

    /// Number of live connections (sockets) towards `peer`.
    pub fn conn_count(&self, peer: NodeId) -> usize {
        self.peer_conns(peer).len()
    }

    /// Pauses or resumes application-level consumption (models the
    /// process being SIGSTOPed: the kernel stays alive and advertises a
    /// zero window, so peers stall instead of seeing a failure — the
    /// paper's node-hang behaviour, §5.3).
    pub fn set_app_receiving(&mut self, now: SimTime, receiving: bool, out: &mut Effects<M>) {
        if self.app_receiving == receiving {
            return;
        }
        self.app_receiving = receiving;
        if receiving {
            let parked = std::mem::take(&mut self.parked);
            for (peer, rec) in parked {
                self.deliver(now, peer, rec, out);
            }
        }
        // Advertise the new window on every connection.
        let targets: Vec<(NodeId, u64, u64)> = self
            .conns
            .iter()
            .enumerate()
            .flat_map(|(p, v)| v.iter().map(move |c| (NodeId(p), c.id, c.rcv_next)))
            .collect();
        for (peer, conn, rcv_next) in targets {
            self.emit_ack(now, peer, conn, rcv_next, out);
        }
    }

    fn frame(&self, peer: NodeId, seg: TcpSegment<M>) -> Frame<WirePayload<M>> {
        let bytes = seg.len + self.config.header_bytes;
        Frame {
            src: self.node,
            dst: peer,
            bytes,
            payload: WirePayload::Tcp(seg),
        }
    }

    /// The sockets towards `peer` (empty if there are none).
    fn peer_conns(&self, peer: NodeId) -> &[Conn<M>] {
        self.conns.get(peer.0).map_or(&[], Vec::as_slice)
    }

    /// The socket list towards `peer`, grown into the table if needed.
    fn peer_conns_mut(&mut self, peer: NodeId) -> &mut Vec<Conn<M>> {
        if self.conns.len() <= peer.0 {
            self.conns.resize_with(peer.0 + 1, Vec::new);
        }
        &mut self.conns[peer.0]
    }

    fn conn_mut(&mut self, peer: NodeId, id: u64) -> Option<&mut Conn<M>> {
        self.conns
            .get_mut(peer.0)
            .and_then(|v| v.iter_mut().find(|c| c.id == id))
    }

    /// The connection sends currently use: the newest established one,
    /// else the newest pending one.
    fn active_conn_id(&self, peer: NodeId) -> Option<u64> {
        let v = self.peer_conns(peer);
        v.iter()
            .filter(|c| c.state == ConnState::Established)
            .map(|c| c.id)
            .max()
            .or_else(|| v.iter().map(|c| c.id).max())
    }

    fn emit_ack(&mut self, _now: SimTime, peer: NodeId, conn: u64, ack: u64, out: &mut Effects<M>) {
        if self.alloc_fail {
            self.stats.alloc_failures += 1;
            return; // the kernel cannot even build an ACK
        }
        let seg = TcpSegment {
            kind: SegKind::Data,
            conn,
            seq: 0,
            len: 0,
            ack,
            window_open: self.app_receiving,
            msgs: Vec::new(),
        };
        out.push(Effect::ChargeCpu(self.cost.ack_cost));
        out.push(Effect::Transmit(self.frame(peer, seg)));
    }

    fn send_rst(&mut self, peer: NodeId, conn: u64, out: &mut Effects<M>) {
        if self.alloc_fail {
            return;
        }
        self.stats.rsts_sent += 1;
        let seg = TcpSegment {
            kind: SegKind::Rst,
            conn,
            seq: 0,
            len: 0,
            ack: 0,
            window_open: true,
            msgs: Vec::new(),
        };
        out.push(Effect::Transmit(self.frame(peer, seg)));
    }

    fn arm_timer(
        &mut self,
        now: SimTime,
        peer: NodeId,
        conn: u64,
        kind: TimerKind,
        delay: SimDuration,
        out: &mut Effects<M>,
    ) {
        let node = self.node;
        let Some(c) = self.conn_mut(peer, conn) else {
            return;
        };
        c.timer_gen += 1;
        if kind == TimerKind::Retransmit {
            c.rtx_armed = true;
            c.rtx_at = now + delay;
        }
        let key = TimerKey {
            node,
            peer,
            conn,
            kind,
            gen: c.timer_gen,
        };
        out.push(Effect::SetTimer {
            at: now + delay,
            key,
        });
    }

    /// Transmits as much buffered stream as windows and kernel memory
    /// allow on connection `conn`.
    fn pump(&mut self, now: SimTime, peer: NodeId, conn: u64, out: &mut Effects<M>) {
        loop {
            let app_receiving = self.app_receiving;
            let mss = u64::from(self.config.mss);
            let alloc_retry = self.config.alloc_retry;
            let alloc_fail = self.alloc_fail;
            let Some(c) = self.conn_mut(peer, conn) else {
                return;
            };
            if c.state != ConnState::Established || !c.peer_window_open || c.snd_sent >= c.next_seq
            {
                return;
            }
            if alloc_fail {
                self.stats.alloc_failures += 1;
                let waiting = self
                    .conn_mut(peer, conn)
                    .map(|c| std::mem::replace(&mut c.alloc_waiting, true))
                    .unwrap_or(true);
                if !waiting {
                    self.arm_timer(now, peer, conn, TimerKind::AllocRetry, alloc_retry, out);
                }
                return;
            }
            let seq = c.snd_sent;
            let end = c.next_seq.min(seq + mss);
            let len = (end - seq) as u32;
            let msgs = c.msgs_ending_in(seq, end);
            let ack = c.rcv_next;
            c.snd_sent = end;
            if c.first_unacked_at.is_none() {
                c.first_unacked_at = Some(now);
            }
            let rtx_armed = c.rtx_armed;
            let rto = c.rto;
            let seg = TcpSegment {
                kind: SegKind::Data,
                conn,
                seq,
                len,
                ack,
                window_open: app_receiving,
                msgs,
            };
            self.stats.data_segments_sent += 1;
            let cks = SimDuration::from_nanos(
                (f64::from(len) * self.cost.checksum_ns_per_byte) as u64,
            );
            out.push(Effect::ChargeCpu(cks));
            out.push(Effect::Transmit(self.frame(peer, seg)));
            if !rtx_armed {
                self.arm_timer(now, peer, conn, TimerKind::Retransmit, rto, out);
            }
        }
    }

    /// Removes one connection; optionally resets the peer and reports
    /// the break upstream.
    fn teardown(
        &mut self,
        now: SimTime,
        peer: NodeId,
        conn: u64,
        reason: BreakReason,
        send_rst: bool,
        out: &mut Effects<M>,
    ) {
        let removed = match self.conns.get_mut(peer.0) {
            Some(v) => {
                let before = v.len();
                v.retain(|c| c.id != conn);
                v.len() != before
            }
            None => false,
        };
        if removed {
            if send_rst {
                self.send_rst(peer, conn, out);
            }
            if self.trace {
                out.push(Effect::Trace(
                    telemetry::TraceEvent::instant("tcp.conn_break", "tcp", self.node.0 as u32, now)
                        .arg_u64("peer", peer.0 as u64)
                        .arg_u64("conn", conn)
                        .arg_str("reason", reason.label()),
                ));
            }
            out.push(Effect::Upcall(Upcall::ConnBroken { peer, reason }));
        }
    }

    fn deliver(&mut self, _now: SimTime, peer: NodeId, rec: MsgRec<M>, out: &mut Effects<M>) {
        // Interrupt and checksum were already charged per segment in
        // process_data; the per-message work left is the protocol fixed
        // cost plus the copy to user space.
        let copy_ns = f64::from(rec.bytes) * self.cost.copy_ns_per_byte_recv;
        let cost = self.cost.recv_fixed + SimDuration::from_nanos(copy_ns as u64);
        out.push(Effect::ChargeCpu(cost));
        self.stats.messages_delivered += 1;
        out.push(Effect::Upcall(Upcall::Deliver {
            peer,
            msg: rec.msg,
            class: rec.class,
            bytes: rec.bytes,
        }));
    }

    fn process_ack(
        &mut self,
        now: SimTime,
        peer: NodeId,
        conn: u64,
        ack: u64,
        window_open: bool,
        out: &mut Effects<M>,
    ) {
        let initial_rto = self.config.initial_rto;
        let half_buffer = u64::from(self.config.send_buffer) / 2;
        let Some(c) = self.conn_mut(peer, conn) else {
            return;
        };
        c.peer_window_open = window_open;
        let mut unblock = false;
        let mut progressed = false;
        if ack > c.snd_una {
            progressed = true;
            c.snd_una = ack;
            while c.retained.front().is_some_and(|r| r.end <= ack) {
                c.retained.pop_front();
            }
            c.rto = initial_rto;
            // The (persistent) retransmit timer stays armed; it will
            // find the refreshed first-unacked age when it fires.
            c.first_unacked_at = if c.snd_una < c.snd_sent {
                Some(now)
            } else {
                None
            };
            if c.blocked && c.buffered() <= half_buffer {
                c.blocked = false;
                unblock = true;
            }
        }
        let rearm = progressed
            && c.snd_una < c.snd_sent
            && c.rtx_armed
            && c.rtx_at > now + c.rto;
        let rto = c.rto;
        if progressed {
            out.push(Effect::ChargeCpu(self.cost.ack_cost));
            if rearm {
                // The armed timer sits far out on a backed-off schedule;
                // bring it back in line with the fresh RTO so recovery
                // after a long stall drains at full speed.
                self.arm_timer(now, peer, conn, TimerKind::Retransmit, rto, out);
            }
            if unblock {
                out.push(Effect::Upcall(Upcall::Writable { peer }));
            }
        }
        self.pump(now, peer, conn, out);
    }

    fn process_data(
        &mut self,
        now: SimTime,
        peer: NodeId,
        seg: TcpSegment<M>,
        out: &mut Effects<M>,
    ) {
        let conn = seg.conn;
        // Per-segment receive work: interrupt + checksum. ACK-only
        // segments are interrupt-coalesced; their handling cost is the
        // ack_cost charged in process_ack.
        if seg.len > 0 {
            let cks = SimDuration::from_nanos(
                (f64::from(seg.len) * self.cost.checksum_ns_per_byte) as u64,
            );
            out.push(Effect::ChargeCpu(self.cost.interrupt + cks));
        }

        let Some(c) = self.conn_mut(peer, conn) else {
            return;
        };
        if seg.len > 0 {
            let (s, e) = (seg.seq, seg.seq + u64::from(seg.len));
            insert_range(&mut c.ooo, s, e);
            while let Some(&(rs, re)) = c.ooo.first() {
                if rs <= c.rcv_next {
                    c.rcv_next = c.rcv_next.max(re);
                    c.ooo.remove(0);
                } else {
                    break;
                }
            }
            for rec in seg.msgs {
                if rec.end > c.delivered_up_to {
                    c.pending_msgs.insert(rec.end, rec);
                }
            }
        }

        // Deliver completed messages in stream order (through the
        // reusable scratch buffer).
        let mut corrupted = false;
        let mut ready = std::mem::take(&mut self.delivery);
        debug_assert!(ready.is_empty());
        let ack_now;
        {
            let c = self.conn_mut(peer, conn).expect("conn exists");
            while let Some((&end, _)) = c.pending_msgs.first_key_value() {
                if end <= c.rcv_next {
                    let rec = c.pending_msgs.pop_first().expect("present").1;
                    c.delivered_up_to = end;
                    if rec.poisoned {
                        corrupted = true;
                        break;
                    }
                    ready.push(rec);
                } else {
                    break;
                }
            }
            ack_now = c.rcv_next;
        }
        for rec in ready.drain(..) {
            if self.app_receiving {
                self.deliver(now, peer, rec, out);
            } else {
                self.parked.push((peer, rec));
            }
        }
        self.delivery = ready;
        if corrupted {
            // Framing is unrecoverable: the length prefix read from the
            // stream is garbage. Reset the connection.
            self.stats.framing_errors += 1;
            if self.trace {
                out.push(Effect::Trace(telemetry::TraceEvent::instant(
                    "tcp.framing_error",
                    "tcp",
                    self.node.0 as u32,
                    now,
                )
                .arg_u64("peer", peer.0 as u64)));
            }
            self.teardown(now, peer, conn, BreakReason::StreamCorrupt, true, out);
            return;
        }
        if seg.len > 0 {
            self.emit_ack(now, peer, conn, ack_now, out);
        }
    }
}

impl<M: Clone> Substrate<M> for TcpStack<M> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn open(&mut self, now: SimTime, peer: NodeId, out: &mut Effects<M>) {
        // Re-opening supersedes any half-open attempt but coexists with
        // established sockets (old or new).
        let id = self.next_conn;
        self.next_conn += 1;
        let rto = self.config.initial_rto;
        let entry = self.peer_conns_mut(peer);
        entry.retain(|c| c.state != ConnState::SynSent);
        entry.push(Conn::new(id, now, ConnState::SynSent, rto));
        let seg = TcpSegment {
            kind: SegKind::Syn,
            conn: id,
            seq: 0,
            len: 0,
            ack: 0,
            window_open: true,
            msgs: Vec::new(),
        };
        out.push(Effect::Transmit(self.frame(peer, seg)));
        self.arm_timer(now, peer, id, TimerKind::Connect, self.config.connect_retry, out);
    }

    fn close(&mut self, peer: NodeId) {
        if let Some(v) = self.conns.get_mut(peer.0) {
            v.clear();
        }
        self.parked.retain(|(p, _)| *p != peer);
    }

    fn is_connected(&self, peer: NodeId) -> bool {
        self.peer_conns(peer)
            .iter()
            .any(|c| c.state == ConnState::Established)
    }

    fn set_app_receiving(&mut self, now: SimTime, receiving: bool, out: &mut Effects<M>) {
        TcpStack::set_app_receiving(self, now, receiving, out);
    }

    fn send(
        &mut self,
        now: SimTime,
        peer: NodeId,
        class: MsgClass,
        msg: M,
        bytes: u32,
        params: CallParams,
        out: &mut Effects<M>,
    ) -> SendStatus {
        let Some(conn) = self.active_conn_id(peer) else {
            return SendStatus::NotConnected;
        };
        // NULL pointers are caught synchronously by the kernel: EFAULT.
        if params.ptr == PtrParam::Null {
            self.stats.efaults += 1;
            if self.trace {
                out.push(Effect::Trace(telemetry::TraceEvent::instant(
                    "tcp.efault",
                    "tcp",
                    self.node.0 as u32,
                    now,
                )
                .arg_u64("peer", peer.0 as u64)));
            }
            out.push(Effect::ChargeCpu(SimDuration::from_micros(2)));
            return SendStatus::SyncError;
        }
        let wire_len = i64::from(bytes) + i64::from(params.size_delta);
        let wire_len = wire_len.clamp(0, i64::from(u32::MAX)) as u64;

        let send_buffer = u64::from(self.config.send_buffer);
        let c = self.conn_mut(peer, conn).expect("active conn exists");
        if c.buffered() + wire_len > send_buffer && c.buffered() > 0 {
            c.blocked = true;
            return SendStatus::WouldBlock;
        }
        let start = c.next_seq;
        let end = start + wire_len;
        c.next_seq = end;
        // A mangled pointer or size desynchronizes the framing from this
        // message onward.
        if !params.is_clean() && c.poisoned_from.is_none() {
            c.poisoned_from = Some(start);
        }
        let poisoned = c.poisoned_from.is_some_and(|p| end > p);
        let rec = MsgRec {
            start,
            end,
            msg,
            class,
            bytes,
            poisoned,
        };
        // A zero-length message ends where the last one did and takes
        // its place, as a map keyed by `end` would.
        match c.retained.back_mut() {
            Some(last) if last.end == end => *last = rec,
            _ => c.retained.push_back(rec),
        }
        out.push(Effect::ChargeCpu(self.cost.send_cost(bytes, class.is_bulk())));
        self.pump(now, peer, conn, out);
        SendStatus::Accepted
    }

    fn frame_arrived(&mut self, now: SimTime, frame: Frame<WirePayload<M>>, out: &mut Effects<M>) {
        debug_assert_eq!(frame.dst, self.node);
        let WirePayload::Tcp(seg) = frame.payload else {
            // A VIA packet on a TCP node would be a wiring bug.
            panic!("TCP stack received a non-TCP frame");
        };
        let peer = frame.src;
        // Kernel memory exhaustion: arriving packets are dropped before
        // protocol processing (§5.4).
        if self.alloc_fail && seg.kind != SegKind::Rst {
            self.stats.alloc_failures += 1;
            return;
        }
        match seg.kind {
            SegKind::Syn => {
                let id = seg.conn;
                if self.conn_mut(peer, id).is_none() {
                    // A fresh socket from the peer — it coexists with any
                    // older connections we still hold to that node.
                    let c = Conn::new(id, now, ConnState::Established, self.config.initial_rto);
                    self.peer_conns_mut(peer).push(c);
                    if self.trace {
                        out.push(Effect::Trace(telemetry::TraceEvent::instant(
                            "tcp.connected",
                            "tcp",
                            self.node.0 as u32,
                            now,
                        )
                        .arg_u64("peer", peer.0 as u64)));
                    }
                    out.push(Effect::Upcall(Upcall::Connected { peer }));
                }
                let reply = TcpSegment {
                    kind: SegKind::SynAck,
                    conn: id,
                    seq: 0,
                    len: 0,
                    ack: 0,
                    window_open: self.app_receiving,
                    msgs: Vec::new(),
                };
                out.push(Effect::Transmit(self.frame(peer, reply)));
            }
            SegKind::SynAck => {
                let id = seg.conn;
                let established = match self.conn_mut(peer, id) {
                    Some(c) if c.state == ConnState::SynSent => {
                        c.state = ConnState::Established;
                        c.timer_gen += 1; // cancel connect retries
                        true
                    }
                    _ => false,
                };
                if established {
                    if self.trace {
                        out.push(Effect::Trace(telemetry::TraceEvent::instant(
                            "tcp.connected",
                            "tcp",
                            self.node.0 as u32,
                            now,
                        )
                        .arg_u64("peer", peer.0 as u64)));
                    }
                    out.push(Effect::Upcall(Upcall::Connected { peer }));
                    self.pump(now, peer, id, out);
                }
            }
            SegKind::Rst => {
                self.teardown(now, peer, seg.conn, BreakReason::PeerReset, false, out);
            }
            SegKind::Data => {
                let known = self
                    .conn_mut(peer, seg.conn)
                    .is_some_and(|c| c.state == ConnState::Established);
                if !known {
                    // Segment for a connection we do not have (e.g. we
                    // restarted): answer with a reset.
                    self.send_rst(peer, seg.conn, out);
                    return;
                }
                self.process_ack(now, peer, seg.conn, seg.ack, seg.window_open, out);
                self.process_data(now, peer, seg, out);
            }
        }
    }

    fn transmit_failed(
        &mut self,
        _now: SimTime,
        _peer: NodeId,
        _reason: LossReason,
        _out: &mut Effects<M>,
    ) {
        // TCP assumes losses are transient congestion; nothing reacts
        // here — the retransmit timer will recover or eventually abort.
    }

    fn timer_fired(&mut self, now: SimTime, key: TimerKey, out: &mut Effects<M>) {
        let peer = key.peer;
        let conn = key.conn;
        let abort_after = self.config.abort_after;
        let max_rto = self.config.max_rto;
        let mss = u64::from(self.config.mss);
        let connect_give_up = self.config.connect_give_up;
        let connect_retry = self.config.connect_retry;
        let app_receiving = self.app_receiving;
        let Some(c) = self.conn_mut(peer, conn) else {
            return;
        };
        if key.gen != c.timer_gen {
            return; // stale
        }
        match key.kind {
            TimerKind::Retransmit => {
                if !c.rtx_armed {
                    return;
                }
                c.rtx_armed = false;
                if c.snd_una >= c.snd_sent {
                    return; // everything acknowledged; timer disarms
                }
                let first = c.first_unacked_at.unwrap_or(now);
                // Acknowledgements arrived since this timer was set: the
                // oldest outstanding byte has not yet waited a full RTO.
                // Re-arm without retransmitting.
                if now.saturating_since(first) < c.rto {
                    let wait = c.rto - now.saturating_since(first);
                    self.arm_timer(now, peer, conn, TimerKind::Retransmit, wait, out);
                    return;
                }
                if now.saturating_since(first) >= abort_after {
                    self.stats.aborts += 1;
                    if self.trace {
                        out.push(Effect::Trace(telemetry::TraceEvent::instant(
                            "tcp.abort",
                            "tcp",
                            self.node.0 as u32,
                            now,
                        )
                        .arg_u64("peer", peer.0 as u64)
                        .arg_u64("stalled_us", now.saturating_since(first).as_nanos() / 1_000)));
                    }
                    if self.attr {
                        out.push(Effect::Attr(telemetry::AttrEvent::Abort));
                    }
                    self.teardown(now, peer, conn, BreakReason::RetransmitTimeout, true, out);
                    return;
                }
                if self.alloc_fail {
                    // Can't rebuild the segment without kernel memory;
                    // retry on the same schedule.
                    self.stats.alloc_failures += 1;
                    let rto = self.conn_mut(peer, conn).expect("present").rto;
                    self.arm_timer(now, peer, conn, TimerKind::Retransmit, rto, out);
                    return;
                }
                // Go-back-N lite: resend the oldest window segment.
                let c = self.conn_mut(peer, conn).expect("present");
                let seq = c.snd_una;
                let end = c.snd_sent.min(seq + mss);
                let len = (end - seq) as u32;
                let msgs = c.msgs_ending_in(seq, end);
                c.rto = (c.rto * 2).min(max_rto);
                let rto = c.rto;
                let seg = TcpSegment {
                    kind: SegKind::Data,
                    conn,
                    seq,
                    len,
                    ack: c.rcv_next,
                    window_open: app_receiving,
                    msgs,
                };
                self.stats.data_segments_sent += 1;
                self.stats.retransmissions += 1;
                if self.trace {
                    out.push(Effect::Trace(telemetry::TraceEvent::instant(
                        "tcp.retransmit",
                        "tcp",
                        self.node.0 as u32,
                        now,
                    )
                    .arg_u64("peer", peer.0 as u64)
                    .arg_u64("seq", seq)
                    .arg_u64("rto_us", rto.as_nanos() / 1_000)));
                }
                if self.attr {
                    out.push(Effect::Attr(telemetry::AttrEvent::Retransmit));
                }
                out.push(Effect::Transmit(self.frame(peer, seg)));
                self.arm_timer(now, peer, conn, TimerKind::Retransmit, rto, out);
            }
            TimerKind::AllocRetry => {
                c.alloc_waiting = false;
                self.pump(now, peer, conn, out);
            }
            TimerKind::Connect => {
                if c.state != ConnState::SynSent {
                    return;
                }
                if now.saturating_since(c.opened_at) >= connect_give_up {
                    self.teardown(now, peer, conn, BreakReason::RetransmitTimeout, false, out);
                    return;
                }
                let seg = TcpSegment {
                    kind: SegKind::Syn,
                    conn,
                    seq: 0,
                    len: 0,
                    ack: 0,
                    window_open: true,
                    msgs: Vec::new(),
                };
                out.push(Effect::Transmit(self.frame(peer, seg)));
                self.arm_timer(now, peer, conn, TimerKind::Connect, connect_retry, out);
            }
        }
    }

    fn set_alloc_fail(&mut self, failing: bool) {
        self.alloc_fail = failing;
    }

    fn set_pin_fail(&mut self, _failing: bool) {
        // TCP does not pin memory; nothing to do.
    }

    fn restart(&mut self, _now: SimTime) {
        self.conns.clear();
        self.parked.clear();
        self.alloc_fail = false;
        self.app_receiving = true;
    }

    fn set_trace(&mut self, enabled: bool) {
        self.trace = enabled;
    }

    fn set_attr(&mut self, enabled: bool) {
        self.attr = enabled;
    }

    fn export_metrics(&self, reg: &mut telemetry::MetricsRegistry) {
        let s = &self.stats;
        reg.counter_add("tcp.data_segments_sent", s.data_segments_sent);
        reg.counter_add("tcp.retransmissions", s.retransmissions);
        reg.counter_add("tcp.messages_delivered", s.messages_delivered);
        reg.counter_add("tcp.aborts", s.aborts);
        reg.counter_add("tcp.framing_errors", s.framing_errors);
        reg.counter_add("tcp.efaults", s.efaults);
        reg.counter_add("tcp.alloc_failures", s.alloc_failures);
        reg.counter_add("tcp.rsts_sent", s.rsts_sent);
    }
}

/// Inserts `[s, e)` into a sorted list of disjoint ranges, merging
/// overlaps.
fn insert_range(ranges: &mut Vec<(u64, u64)>, s: u64, e: u64) {
    if s >= e {
        return;
    }
    let mut new = (s, e);
    let mut i = 0;
    while i < ranges.len() {
        let (rs, re) = ranges[i];
        if re < new.0 {
            i += 1;
        } else if rs > new.1 {
            break;
        } else {
            new.0 = new.0.min(rs);
            new.1 = new.1.max(re);
            ranges.remove(i);
        }
    }
    ranges.insert(i, new);
    debug_assert!(ranges.windows(2).all(|w| w[0].1 < w[1].0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::CleanInterposer;
    use crate::api::SendInterposer;

    type Stack = TcpStack<&'static str>;

    fn pair() -> (Stack, Stack) {
        let a = TcpStack::new(NodeId(0), TcpConfig::default(), CostModel::tcp());
        let b = TcpStack::new(NodeId(1), TcpConfig::default(), CostModel::tcp());
        (a, b)
    }

    /// Ferries every Transmit effect to the destination stack, returning
    /// all upcalls seen.
    fn exchange(
        now: SimTime,
        stacks: &mut [&mut Stack],
        mut effects: Vec<Effect<&'static str>>,
    ) -> Vec<Upcall<&'static str>> {
        let mut upcalls = Vec::new();
        while let Some(e) = effects.pop() {
            match e {
                Effect::Transmit(frame) => {
                    let mut out = Vec::new();
                    let dst = frame.dst;
                    for s in stacks.iter_mut() {
                        if s.node() == dst {
                            s.frame_arrived(now, frame, &mut out);
                            break;
                        }
                    }
                    effects.extend(out);
                }
                Effect::Upcall(u) => upcalls.push(u),
                Effect::SetTimer { .. } | Effect::ChargeCpu(_) | Effect::Trace(_)
                | Effect::Attr(_) => {}
            }
        }
        upcalls
    }

    fn connect(a: &mut Stack, b: &mut Stack) {
        let mut out = Vec::new();
        a.open(SimTime::ZERO, b.node(), &mut out);
        exchange(SimTime::ZERO, &mut [a, b], out);
        assert!(a.is_connected(b.node()));
        assert!(b.is_connected(a.node()));
    }

    fn first_timer(
        out: &[Effect<&'static str>],
        kind: TimerKind,
    ) -> Option<(SimTime, TimerKey)> {
        out.iter().find_map(|e| match e {
            Effect::SetTimer { at, key } if key.kind == kind => Some((*at, *key)),
            _ => None,
        })
    }

    #[test]
    fn handshake_establishes_both_ends() {
        let (mut a, mut b) = pair();
        connect(&mut a, &mut b);
    }

    #[test]
    fn small_message_round_trip() {
        let (mut a, mut b) = pair();
        connect(&mut a, &mut b);
        let mut out = Vec::new();
        let st = a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::Forward,
            "ping",
            64,
            CallParams::default(),
            &mut out,
        );
        assert_eq!(st, SendStatus::Accepted);
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        let delivered: Vec<_> = ups
            .iter()
            .filter_map(|u| match u {
                Upcall::Deliver { msg, .. } => Some(*msg),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, ["ping"]);
        assert_eq!(b.stats().messages_delivered, 1);
        // The ACK came back and cleaned the retained queue.
        assert_eq!(a.buffered_bytes(NodeId(1)), 0);
    }

    #[test]
    fn large_message_spans_segments_and_arrives_once() {
        let (mut a, mut b) = pair();
        connect(&mut a, &mut b);
        let mut out = Vec::new();
        a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::FileData,
            "file",
            40_000, // 5 segments at MSS 8192
            CallParams::default(),
            &mut out,
        );
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        let n = ups
            .iter()
            .filter(|u| matches!(u, Upcall::Deliver { .. }))
            .count();
        assert_eq!(n, 1);
        assert!(a.stats().data_segments_sent >= 5);
    }

    #[test]
    fn null_pointer_is_synchronous_efault() {
        let (mut a, mut b) = pair();
        connect(&mut a, &mut b);
        let mut out = Vec::new();
        let st = a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::FileData,
            "x",
            8192,
            CallParams {
                ptr: PtrParam::Null,
                size_delta: 0,
            },
            &mut out,
        );
        assert_eq!(st, SendStatus::SyncError);
        assert_eq!(a.stats().efaults, 1);
        // Nothing went on the wire.
        assert!(out.iter().all(|e| !matches!(e, Effect::Transmit(_))));
        // The connection is still healthy for subsequent traffic.
        let mut out = Vec::new();
        let st = a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::Forward,
            "ok",
            64,
            CallParams::default(),
            &mut out,
        );
        assert_eq!(st, SendStatus::Accepted);
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        assert!(ups
            .iter()
            .any(|u| matches!(u, Upcall::Deliver { msg: "ok", .. })));
    }

    #[test]
    fn off_by_n_corrupts_the_rest_of_the_stream() {
        let (mut a, mut b) = pair();
        connect(&mut a, &mut b);
        // One clean message, then a mangled one, then another clean one.
        let mut out = Vec::new();
        a.send(SimTime::ZERO, NodeId(1), MsgClass::Forward, "m1", 64, CallParams::default(), &mut out);
        a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::Forward,
            "bad",
            64,
            CallParams {
                ptr: PtrParam::OffBy(17),
                size_delta: 0,
            },
            &mut out,
        );
        a.send(SimTime::ZERO, NodeId(1), MsgClass::Forward, "m3", 64, CallParams::default(), &mut out);
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        let delivered: Vec<_> = ups
            .iter()
            .filter_map(|u| match u {
                Upcall::Deliver { msg, .. } => Some(*msg),
                _ => None,
            })
            .collect();
        // Only the pre-fault prefix arrives; the receiver then detects
        // corruption and resets, so both ends see the break.
        assert_eq!(delivered, ["m1"]);
        assert_eq!(b.stats().framing_errors, 1);
        let breaks = ups
            .iter()
            .filter(|u| matches!(u, Upcall::ConnBroken { .. }))
            .count();
        assert_eq!(breaks, 2, "both ends must observe the reset");
        assert!(!a.is_connected(NodeId(1)));
        assert!(!b.is_connected(NodeId(0)));
    }

    #[test]
    fn size_delta_also_poisons_the_stream() {
        let (mut a, mut b) = pair();
        connect(&mut a, &mut b);
        let mut out = Vec::new();
        a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::FileData,
            "bad",
            8192,
            CallParams {
                ptr: PtrParam::Valid,
                size_delta: 31,
            },
            &mut out,
        );
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        assert!(ups.iter().all(|u| !matches!(u, Upcall::Deliver { .. })));
        assert_eq!(b.stats().framing_errors, 1);
    }

    #[test]
    fn send_buffer_fills_and_reports_would_block() {
        let (mut a, _b) = pair();
        // Open but never complete the handshake: nothing drains.
        let mut out = Vec::new();
        a.open(SimTime::ZERO, NodeId(1), &mut out);
        let mut blocked = false;
        for _ in 0..100 {
            let mut out = Vec::new();
            let st = a.send(
                SimTime::ZERO,
                NodeId(1),
                MsgClass::FileData,
                "blob",
                8192,
                CallParams::default(),
                &mut out,
            );
            if st == SendStatus::WouldBlock {
                blocked = true;
                break;
            }
        }
        assert!(blocked, "a 32KB buffer must fill after 4 x 8KB sends");
    }

    #[test]
    fn retransmission_recovers_a_lost_segment() {
        let (mut a, mut b) = pair();
        connect(&mut a, &mut b);
        let mut out = Vec::new();
        a.send(SimTime::ZERO, NodeId(1), MsgClass::Forward, "once", 64, CallParams::default(), &mut out);
        // Drop the data frame; keep only the retransmit timer.
        let timer = first_timer(&out, TimerKind::Retransmit).expect("retransmit timer armed");
        // Fire the timer: the stack must resend.
        let mut out = Vec::new();
        a.timer_fired(timer.0, timer.1, &mut out);
        assert_eq!(a.stats().retransmissions, 1);
        let ups = exchange(timer.0, &mut [&mut a, &mut b], out);
        assert!(ups
            .iter()
            .any(|u| matches!(u, Upcall::Deliver { msg: "once", .. })));
    }

    #[test]
    fn superseded_retransmit_timer_is_inert() {
        let (mut a, mut b) = pair();
        connect(&mut a, &mut b);
        let mut out = Vec::new();
        a.send(SimTime::ZERO, NodeId(1), MsgClass::Forward, "m", 64, CallParams::default(), &mut out);
        let old = first_timer(&out, TimerKind::Retransmit).expect("retransmit timer armed");
        // The segment is lost; the firing timer retransmits and re-arms
        // with a fresh gen, superseding `old`.
        let mut out = Vec::new();
        a.timer_fired(old.0, old.1, &mut out);
        let new = first_timer(&out, TimerKind::Retransmit).expect("re-armed");
        assert!(new.1.gen > old.1.gen, "re-arm must supersede the old gen");
        assert_eq!(a.stats().retransmissions, 1);
        // The superseded key must never act again: no effects, no
        // retransmission, no timer churn.
        let mut out = Vec::new();
        a.timer_fired(new.0, old.1, &mut out);
        assert!(out.is_empty(), "stale timer produced effects: {out:?}");
        assert_eq!(a.stats().retransmissions, 1);
        drop(b);
    }

    #[test]
    fn superseded_connect_timer_is_inert() {
        let (mut a, _b) = pair();
        let mut out = Vec::new();
        a.open(SimTime::ZERO, NodeId(1), &mut out);
        let old = first_timer(&out, TimerKind::Connect).expect("connect retry armed");
        // The SYN goes nowhere; the retry fires and re-arms.
        let mut out = Vec::new();
        a.timer_fired(old.0, old.1, &mut out);
        let new = first_timer(&out, TimerKind::Connect).expect("retry re-armed");
        assert!(new.1.gen > old.1.gen);
        // Firing the superseded key again must be a pure no-op.
        let mut out = Vec::new();
        a.timer_fired(new.0, old.1, &mut out);
        assert!(out.is_empty(), "stale timer produced effects: {out:?}");
    }

    #[test]
    fn rto_backs_off_exponentially_and_aborts_eventually() {
        let cfg = TcpConfig::default();
        let (mut a, mut b) = pair();
        connect(&mut a, &mut b);
        let mut out = Vec::new();
        a.send(SimTime::ZERO, NodeId(1), MsgClass::Forward, "m", 64, CallParams::default(), &mut out);
        // Simulate total loss: fire retransmit timers forever.
        let mut timer = first_timer(&out, TimerKind::Retransmit).expect("armed");
        let mut broke = false;
        for _ in 0..60 {
            let mut out = Vec::new();
            a.timer_fired(timer.0, timer.1, &mut out);
            if out.iter().any(|e| {
                matches!(
                    e,
                    Effect::Upcall(Upcall::ConnBroken {
                        reason: BreakReason::RetransmitTimeout,
                        ..
                    })
                )
            }) {
                broke = true;
                assert!(timer.0.saturating_since(SimTime::ZERO) >= cfg.abort_after);
                break;
            }
            timer = first_timer(&out, TimerKind::Retransmit).expect("re-armed");
        }
        assert!(broke, "connection must abort after ~13 minutes of loss");
        assert_eq!(a.stats().aborts, 1);
        // The abort interval must be within the paper's 10..15-minute window.
        let secs = cfg.abort_after.as_secs_f64();
        assert!((600.0..=900.0).contains(&secs));
        drop(b);
    }

    #[test]
    fn alloc_failure_queues_sends_and_drops_arrivals() {
        let (mut a, mut b) = pair();
        connect(&mut a, &mut b);
        b.set_alloc_fail(true);
        // a -> b: frame arrives but b's kernel drops it.
        let mut out = Vec::new();
        a.send(SimTime::ZERO, NodeId(1), MsgClass::Forward, "m", 64, CallParams::default(), &mut out);
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        assert!(ups.iter().all(|u| !matches!(u, Upcall::Deliver { .. })));
        assert!(b.stats().alloc_failures > 0);
        assert_eq!(b.stats().messages_delivered, 0);

        // b -> a: b cannot even transmit; the segment waits for memory.
        let mut out = Vec::new();
        let st = b.send(SimTime::ZERO, NodeId(0), MsgClass::Forward, "r", 64, CallParams::default(), &mut out);
        assert_eq!(st, SendStatus::Accepted);
        assert!(out.iter().all(|e| !matches!(e, Effect::Transmit(_))));
        // Memory comes back; the alloc-retry timer flushes the queue.
        b.set_alloc_fail(false);
        let timer = first_timer(&out, TimerKind::AllocRetry).expect("alloc retry armed");
        let mut out = Vec::new();
        b.timer_fired(timer.0, timer.1, &mut out);
        let ups = exchange(timer.0, &mut [&mut a, &mut b], out);
        assert!(ups
            .iter()
            .any(|u| matches!(u, Upcall::Deliver { msg: "r", .. })));
    }

    #[test]
    fn zero_window_parks_delivery_until_resume() {
        let (mut a, mut b) = pair();
        connect(&mut a, &mut b);
        // Hang b's application.
        let mut out = Vec::new();
        b.set_app_receiving(SimTime::ZERO, false, &mut out);
        exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        let mut out = Vec::new();
        a.send(SimTime::ZERO, NodeId(1), MsgClass::Forward, "held", 64, CallParams::default(), &mut out);
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        assert!(ups.iter().all(|u| !matches!(u, Upcall::Deliver { .. })));
        // SIGCONT: the parked message is delivered.
        let mut out = Vec::new();
        b.set_app_receiving(SimTime::ZERO, true, &mut out);
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        assert!(ups
            .iter()
            .any(|u| matches!(u, Upcall::Deliver { msg: "held", .. })));
    }

    #[test]
    fn peer_restart_is_discovered_via_reset() {
        let (mut a, mut b) = pair();
        connect(&mut a, &mut b);
        b.restart(SimTime::ZERO);
        assert!(!b.is_connected(NodeId(0)));
        // a still believes in the connection; its next send elicits a RST.
        let mut out = Vec::new();
        a.send(SimTime::ZERO, NodeId(1), MsgClass::Forward, "m", 64, CallParams::default(), &mut out);
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        assert!(ups.iter().any(|u| matches!(
            u,
            Upcall::ConnBroken {
                reason: BreakReason::PeerReset,
                ..
            }
        )));
        assert!(!a.is_connected(NodeId(1)));
    }

    /// The paper's §5.3 rejoin race: a restarted node's new socket
    /// coexists with the peer's stalled old socket; rejoin traffic flows
    /// on the new one while the old one keeps the peer believing the
    /// node never left — until a retransmission on the old socket draws
    /// a reset.
    #[test]
    fn new_socket_coexists_with_a_stalled_old_one() {
        let (mut a, mut b) = pair();
        connect(&mut a, &mut b);
        // a has unacknowledged data in flight when b "crashes".
        let mut out = Vec::new();
        a.send(SimTime::ZERO, NodeId(1), MsgClass::Forward, "stalled", 64, CallParams::default(), &mut out);
        let rtx = first_timer(&out, TimerKind::Retransmit).expect("armed");
        // b reboots: fresh transport state, new socket to a.
        b.restart(SimTime::ZERO);
        let mut out = Vec::new();
        b.open(SimTime::ZERO, NodeId(0), &mut out);
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        // The new socket establishes; the old one is still there.
        assert!(ups.iter().any(|u| matches!(u, Upcall::Connected { .. })));
        assert_eq!(a.conn_count(NodeId(1)), 2);
        // Traffic flows on the new socket in both directions.
        let mut out = Vec::new();
        b.send(SimTime::ZERO, NodeId(0), MsgClass::Control, "rejoin?", 32, CallParams::default(), &mut out);
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        assert!(ups
            .iter()
            .any(|u| matches!(u, Upcall::Deliver { msg: "rejoin?", .. })));
        // Now the old socket's retransmission reaches the rebooted node:
        // reset, and the break finally surfaces at a.
        let mut out = Vec::new();
        a.timer_fired(rtx.0, rtx.1, &mut out);
        let ups = exchange(rtx.0, &mut [&mut a, &mut b], out);
        assert!(ups.iter().any(|u| matches!(
            u,
            Upcall::ConnBroken {
                reason: BreakReason::PeerReset,
                ..
            }
        )));
        assert!(b.stats().rsts_sent >= 1);
        assert_eq!(a.conn_count(NodeId(1)), 1, "only the new socket survives");
        assert!(a.is_connected(NodeId(1)));
    }

    /// A size mangled down to zero ends the message where the previous
    /// one ended; its record replaces that one on the send queue, so the
    /// segment carries only the later message.
    #[test]
    fn zero_length_mangled_send_replaces_the_previous_record() {
        let (mut a, mut b) = pair();
        let mut out = Vec::new();
        a.open(SimTime::ZERO, NodeId(1), &mut out);
        // Queued behind the handshake, so nothing is on the wire yet.
        a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::Forward,
            "m1",
            64,
            CallParams::default(),
            &mut out,
        );
        let shrunk = CallParams {
            ptr: PtrParam::Valid,
            size_delta: -64,
        };
        let st = a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::Forward,
            "z",
            64,
            shrunk,
            &mut out,
        );
        assert_eq!(st, SendStatus::Accepted);
        assert_eq!(a.buffered_bytes(NodeId(1)), 64);
        // Complete the handshake by hand to catch the first data segment.
        let transmits = |out: Vec<Effect<&'static str>>| -> Vec<_> {
            out.into_iter()
                .filter_map(|e| match e {
                    Effect::Transmit(f) => Some(f),
                    _ => None,
                })
                .collect()
        };
        let mut syn_ack = Vec::new();
        for f in transmits(out) {
            b.frame_arrived(SimTime::ZERO, f, &mut syn_ack);
        }
        let mut data = Vec::new();
        for f in transmits(syn_ack) {
            a.frame_arrived(SimTime::ZERO, f, &mut data);
        }
        let segs = transmits(data);
        let carried: Vec<_> = segs
            .iter()
            .flat_map(|f| match &f.payload {
                WirePayload::Tcp(seg) => seg.msgs.iter().map(|r| r.msg).collect(),
                _ => Vec::new(),
            })
            .collect();
        assert_eq!(carried, ["z"]);
        let ups = exchange(
            SimTime::ZERO,
            &mut [&mut a, &mut b],
            segs.into_iter().map(Effect::Transmit).collect(),
        );
        let delivered: Vec<_> = ups
            .iter()
            .filter_map(|u| match u {
                Upcall::Deliver { msg, .. } => Some(*msg),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, ["z"]);
        assert_eq!(b.stats().framing_errors, 0);
        assert_eq!(a.buffered_bytes(NodeId(1)), 0);
    }

    /// Window advertisements walk the connection table in ascending peer
    /// id, whatever order the connections were opened in.
    #[test]
    fn window_advertisements_go_out_in_ascending_peer_order() {
        let mut a = Stack::new(NodeId(0), TcpConfig::default(), CostModel::tcp());
        let mut peers: Vec<Stack> = [5, 1, 3]
            .into_iter()
            .map(|n| Stack::new(NodeId(n), TcpConfig::default(), CostModel::tcp()))
            .collect();
        for p in &mut peers {
            connect(&mut a, p);
        }
        let mut out = Vec::new();
        a.set_app_receiving(SimTime::ZERO, false, &mut out);
        let advertised: Vec<usize> = out
            .iter()
            .filter_map(|e| match e {
                Effect::Transmit(f) => Some(f.dst.0),
                _ => None,
            })
            .collect();
        assert_eq!(advertised, [1, 3, 5]);
    }

    #[test]
    fn tearing_down_the_only_connection_leaves_the_peer_unconnected() {
        let (mut a, mut b) = pair();
        connect(&mut a, &mut b);
        assert_eq!(a.conn_count(NodeId(1)), 1);
        b.restart(SimTime::ZERO);
        let mut out = Vec::new();
        a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::Forward,
            "m",
            64,
            CallParams::default(),
            &mut out,
        );
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        assert!(ups.iter().any(|u| matches!(u, Upcall::ConnBroken { .. })));
        assert!(!a.is_connected(NodeId(1)));
        assert_eq!(a.conn_count(NodeId(1)), 0);
        assert_eq!(a.buffered_bytes(NodeId(1)), 0);
        let mut out = Vec::new();
        let st = a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::Forward,
            "m",
            64,
            CallParams::default(),
            &mut out,
        );
        assert_eq!(st, SendStatus::NotConnected);
        assert!(out.is_empty());
    }

    #[test]
    fn insert_range_merges_overlaps() {
        let mut r = vec![];
        insert_range(&mut r, 10, 20);
        insert_range(&mut r, 30, 40);
        insert_range(&mut r, 15, 35);
        assert_eq!(r, vec![(10, 40)]);
        insert_range(&mut r, 0, 5);
        assert_eq!(r, vec![(0, 5), (10, 40)]);
        insert_range(&mut r, 5, 10);
        assert_eq!(r, vec![(0, 40)]);
    }

    #[test]
    fn clean_interposer_composes_with_send() {
        let (mut a, mut b) = pair();
        connect(&mut a, &mut b);
        let mut interposer = CleanInterposer;
        let params = interposer.mangle(SimTime::ZERO, MsgClass::Forward, CallParams::default());
        let mut out = Vec::new();
        let st = a.send(SimTime::ZERO, NodeId(1), MsgClass::Forward, "m", 64, params, &mut out);
        assert_eq!(st, SendStatus::Accepted);
    }
}
