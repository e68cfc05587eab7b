//! A compact window-based TCP.
//!
//! Faithful to the mechanisms that shape flow completion times in a data
//! center simulation — window growth, loss recovery, retransmission timers —
//! without the full sockets machinery. Sequence numbers are byte offsets
//! from zero (no ISN), there is no handshake (the first data packet plays
//! the SYN's role for first-packet-latency measurements, as in the paper's
//! traces), and the receive window is unbounded (32 MB switch buffers
//! dominate, §5).

use std::collections::BTreeMap;

use sv2p_simcore::{SimDuration, SimTime};

/// Tunables.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// Initial congestion window in segments (RFC 6928 default 10).
    pub init_cwnd_segments: u32,
    /// Duplicate-ACK threshold before fast retransmit. Classic Reno uses 3;
    /// the paper's experiments rely on Linux tolerating up to 300 reordered
    /// packets (§4).
    pub dupack_threshold: u32,
    /// Lower bound on the retransmission timeout.
    pub min_rto: SimDuration,
    /// Upper bound on the retransmission timeout.
    pub max_rto: SimDuration,
    /// RTO before the first RTT sample.
    pub initial_rto: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: sv2p_packet::packet::MSS,
            init_cwnd_segments: 10,
            dupack_threshold: 3,
            min_rto: SimDuration::from_micros(500),
            max_rto: SimDuration::from_millis(100),
            initial_rto: SimDuration::from_millis(1),
        }
    }
}

impl TcpConfig {
    /// The reordering-tolerant profile the paper assumes on modern stacks:
    /// duplicate-ACK threshold raised to 300 (Linux `tcp_reordering` cap,
    /// RACK-TLP-era behavior).
    pub fn reorder_tolerant() -> Self {
        TcpConfig {
            dupack_threshold: 300,
            ..TcpConfig::default()
        }
    }
}

/// One segment the sender wants on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Byte offset of the first payload byte.
    pub seq: u64,
    /// Payload length.
    pub len: u32,
    /// True if this is a retransmission.
    pub retransmit: bool,
}

/// The segments one call of the sender asks for, in order: at most one
/// retransmission, then a run of new segments. New data is sent in whole
/// segments but for the flow's tail, so the run is a byte range cut every
/// `mss` bytes, and a call allocates nothing however many it asks for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Segments {
    /// The retransmission, sent first.
    rtx: Option<Segment>,
    /// First byte of the new segments not yet yielded.
    next: u64,
    /// One past the last new byte.
    end: u64,
    /// Length of every new segment but a shorter last one.
    mss: u32,
}

impl Segments {
    /// True if there is nothing to send.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Iterator for Segments {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if let Some(seg) = self.rtx.take() {
            return Some(seg);
        }
        (self.next < self.end).then(|| {
            let (seq, len) = (self.next, u64::from(self.mss).min(self.end - self.next));
            self.next += len;
            Segment {
                seq,
                len: len as u32,
                retransmit: false,
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let new = (self.end - self.next).div_ceil(u64::from(self.mss.max(1))) as usize;
        let n = usize::from(self.rtx.is_some()) + new;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Segments {}

/// What the host should do after driving the sender.
#[derive(Debug, Default)]
pub struct SenderOps {
    /// Segments to transmit, in order.
    pub segments: Segments,
    /// If set, (re)arm the retransmission timer for this deadline; `None`
    /// leaves the timer alone. The sender asks to disarm by completing.
    pub arm_rto: Option<SimTime>,
}

/// Sender-side connection state.
#[derive(Debug, Clone)]
pub struct TcpSender {
    cfg: TcpConfig,
    /// Total bytes this flow transfers.
    flow_bytes: u64,
    /// Lowest unacknowledged byte.
    una: u64,
    /// Next new byte to transmit.
    next_seq: u64,
    /// Congestion window in bytes (fractional for CA increase).
    cwnd: f64,
    /// Slow-start threshold in bytes.
    ssthresh: f64,
    dupacks: u32,
    /// In fast recovery until `una` passes `recover`.
    in_recovery: bool,
    recover: u64,
    /// Smoothed RTT state (RFC 6298); `None` before the first sample.
    srtt: Option<(SimDuration, SimDuration)>,
    rto: SimDuration,
    /// Karn's algorithm: the single in-flight RTT probe (seq, sent_at).
    rtt_probe: Option<(u64, SimTime)>,
    /// Consecutive RTOs (exponential backoff).
    backoff: u32,
    /// Retransmissions performed (stats).
    pub retransmits: u64,
    /// Fast retransmits performed (stats).
    pub fast_retransmits: u64,
    /// Timeouts taken (stats).
    pub timeouts: u64,
}

impl TcpSender {
    /// A sender for a `flow_bytes`-byte flow.
    pub fn new(cfg: TcpConfig, flow_bytes: u64) -> Self {
        assert!(flow_bytes > 0, "empty flows are not modeled");
        let cwnd = (cfg.init_cwnd_segments * cfg.mss) as f64;
        TcpSender {
            cfg,
            flow_bytes,
            una: 0,
            next_seq: 0,
            cwnd,
            ssthresh: f64::INFINITY,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            srtt: None,
            rto: cfg.initial_rto,
            rtt_probe: None,
            backoff: 0,
            retransmits: 0,
            fast_retransmits: 0,
            timeouts: 0,
        }
    }

    /// All bytes acknowledged?
    pub fn is_complete(&self) -> bool {
        self.una >= self.flow_bytes
    }

    /// Bytes in flight.
    pub fn in_flight(&self) -> u64 {
        self.next_seq - self.una
    }

    /// Current RTO.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Opens the connection: emits the initial window.
    pub fn start(&mut self, now: SimTime) -> SenderOps {
        let mut ops = SenderOps::default();
        self.fill_window(now, &mut ops);
        ops.arm_rto = Some(now + self.rto);
        ops
    }

    /// Processes a cumulative ACK for byte `ack`.
    pub fn on_ack(&mut self, now: SimTime, ack: u64) -> SenderOps {
        let mut ops = SenderOps::default();
        if self.is_complete() {
            return ops;
        }
        if ack > self.next_seq {
            // Acknowledging unsent data: a corrupted peer; ignore.
            return ops;
        }
        if ack > self.una {
            let newly_acked = ack - self.una;
            self.una = ack;
            self.dupacks = 0;
            self.backoff = 0;

            // RTT sample (Karn: only if the probe segment was not
            // retransmitted; probes are cleared on any retransmission).
            if let Some((pseq, sent)) = self.rtt_probe {
                if ack > pseq {
                    self.take_rtt_sample(now.saturating_since(sent));
                    self.rtt_probe = None;
                }
            }

            if self.in_recovery {
                if ack > self.recover {
                    // Full recovery: deflate to ssthresh.
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                } else {
                    // Partial ACK: retransmit the next hole (NewReno).
                    self.retransmit_una(now, &mut ops);
                    // Deflate by the amount acked, inflate by one MSS.
                    self.cwnd = (self.cwnd - newly_acked as f64 + self.cfg.mss as f64)
                        .max(self.cfg.mss as f64);
                }
            } else if self.cwnd < self.ssthresh {
                // Slow start.
                self.cwnd += newly_acked.min(self.cfg.mss as u64) as f64;
            } else {
                // Congestion avoidance: +MSS per window.
                self.cwnd += (self.cfg.mss as f64 * self.cfg.mss as f64) / self.cwnd;
            }

            if self.is_complete() {
                return ops; // Timer owner sees completion and disarms.
            }
            self.fill_window(now, &mut ops);
            ops.arm_rto = Some(now + self.rto);
        } else if ack == self.una && self.in_flight() > 0 {
            // Duplicate ACK.
            self.dupacks += 1;
            if self.in_recovery {
                // Inflate and possibly send new data.
                self.cwnd += self.cfg.mss as f64;
                self.fill_window(now, &mut ops);
            } else if self.dupacks == self.cfg.dupack_threshold {
                // Fast retransmit.
                self.fast_retransmits += 1;
                self.in_recovery = true;
                self.recover = self.next_seq;
                self.ssthresh = (self.in_flight() as f64 / 2.0).max(2.0 * self.cfg.mss as f64);
                self.cwnd = self.ssthresh + 3.0 * self.cfg.mss as f64;
                self.retransmit_una(now, &mut ops);
                ops.arm_rto = Some(now + self.rto);
            }
        }
        ops
    }

    /// Fires the retransmission timer.
    pub fn on_rto(&mut self, now: SimTime) -> SenderOps {
        let mut ops = SenderOps::default();
        if self.is_complete() {
            return ops;
        }
        self.timeouts += 1;
        self.backoff = (self.backoff + 1).min(10);
        self.ssthresh = (self.in_flight() as f64 / 2.0).max(2.0 * self.cfg.mss as f64);
        self.cwnd = self.cfg.mss as f64;
        self.in_recovery = false;
        self.dupacks = 0;
        // Exponential backoff, clamped.
        let backed_off = self.base_rto().saturating_mul(1 << self.backoff.min(6));
        self.rto = backed_off.min(self.cfg.max_rto);
        self.retransmit_una(now, &mut ops);
        ops.arm_rto = Some(now + self.rto);
        ops
    }

    fn base_rto(&self) -> SimDuration {
        match self.srtt {
            Some((srtt, rttvar)) => {
                (srtt + rttvar.saturating_mul(4)).clamp(self.cfg.min_rto, self.cfg.max_rto)
            }
            None => self.cfg.initial_rto,
        }
    }

    fn take_rtt_sample(&mut self, rtt: SimDuration) {
        let (srtt, rttvar) = match self.srtt {
            None => (rtt, rtt / 2),
            Some((srtt, rttvar)) => {
                // RFC 6298: alpha = 1/8, beta = 1/4, in integer arithmetic.
                let delta = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                let rttvar = (rttvar.saturating_mul(3) + delta) / 4;
                let srtt = (srtt.saturating_mul(7) + rtt) / 8;
                (srtt, rttvar)
            }
        };
        self.srtt = Some((srtt, rttvar));
        self.rto = (srtt + rttvar.saturating_mul(4)).clamp(self.cfg.min_rto, self.cfg.max_rto);
    }

    fn retransmit_una(&mut self, _now: SimTime, ops: &mut SenderOps) {
        let len = self.cfg.mss.min((self.flow_bytes - self.una) as u32);
        debug_assert!(ops.segments.is_empty(), "a retransmission goes first");
        ops.segments.rtx = Some(Segment {
            seq: self.una,
            len,
            retransmit: true,
        });
        self.retransmits += 1;
        // Karn: the retransmitted range must not produce an RTT sample.
        if let Some((pseq, _)) = self.rtt_probe {
            if pseq >= self.una {
                self.rtt_probe = None;
            }
        }
    }

    fn fill_window(&mut self, now: SimTime, ops: &mut SenderOps) {
        let limit = self.flow_bytes.min(self.una + self.cwnd as u64);
        let start = self.next_seq;
        while self.next_seq < limit {
            let len = self.cfg.mss.min((limit - self.next_seq) as u32);
            // Don't emit a runt if a full MSS doesn't fit but more data
            // remains — wait for more window, unless it's the flow tail.
            if (len as u64) < self.cfg.mss as u64 && self.next_seq + len as u64 != self.flow_bytes {
                break;
            }
            self.next_seq += len as u64;
        }
        if self.next_seq > start {
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((start, now));
            }
            let segs = &mut ops.segments;
            debug_assert!(segs.next == segs.end, "one run of new segments a call");
            (segs.next, segs.end, segs.mss) = (start, self.next_seq, self.cfg.mss);
        }
    }
}

/// Receiver-side state: the cumulative ACK point, an interval set of the
/// bytes received beyond it, and reorder accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TcpReceiver {
    /// Received ranges beyond `rcv_nxt`, as start -> end. Empty, and
    /// holding no node, whenever no gap is pending.
    ooo: BTreeMap<u64, u64>,
    /// Next expected byte (== cumulative ACK value).
    rcv_nxt: u64,
    /// Highest sequence end seen (for reorder detection).
    max_seen: u64,
    /// Segments that arrived with a gap or behind `max_seen` (reordering
    /// metric, §4).
    pub reordered_segments: u64,
    /// Exact duplicate deliveries.
    pub duplicate_segments: u64,
    /// Total payload bytes accepted exactly once.
    pub bytes_delivered: u64,
}

/// Intervals one B-tree leaf of `u64` pairs holds, and its size: std's
/// node capacity and layout, for [`TcpReceiver::resident_bytes`].
const OOO_LEAF_INTERVALS: usize = 11;
const OOO_LEAF_BYTES: usize = 192;

impl TcpReceiver {
    /// A fresh receiver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts a data segment; returns the cumulative ACK to emit.
    pub fn on_data(&mut self, seq: u64, len: u32) -> u64 {
        let end = seq + len as u64;
        if end <= self.rcv_nxt {
            self.duplicate_segments += 1;
            return self.rcv_nxt;
        }
        if seq > self.rcv_nxt || end <= self.max_seen {
            // A gap ahead of us, or filling in behind data already seen:
            // evidence of reordering or loss.
            self.reordered_segments += 1;
        }
        self.max_seen = self.max_seen.max(end);
        if seq <= self.rcv_nxt && self.ooo.is_empty() {
            // In order with no gap pending: the interval would be stored
            // and popped straight back out.
            self.bytes_delivered += end - self.rcv_nxt;
            self.rcv_nxt = end;
            return end;
        }

        // Insert [max(seq, rcv_nxt), end) into the interval set.
        let start = seq.max(self.rcv_nxt);
        self.insert_range(start, end);
        self.advance();
        if self.ooo.is_empty() {
            // The last gap closed: free the emptied leaf.
            self.ooo = BTreeMap::new();
        }
        self.rcv_nxt
    }

    /// Advances `rcv_nxt` over any now-contiguous prefix of the set.
    fn advance(&mut self) {
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s <= self.rcv_nxt {
                if e > self.rcv_nxt {
                    self.bytes_delivered += e - self.rcv_nxt;
                    self.rcv_nxt = e;
                }
                self.ooo.pop_first();
            } else {
                break;
            }
        }
    }

    fn insert_range(&mut self, mut start: u64, mut end: u64) {
        // Merge with overlapping neighbors.
        loop {
            // Find a stored range overlapping [start, end).
            let overlap = self
                .ooo
                .range(..=end)
                .next_back()
                .filter(|&(&_s, &e)| e >= start)
                .map(|(&s, &e)| (s, e));
            match overlap {
                Some((s, e)) => {
                    self.ooo.remove(&s);
                    start = start.min(s);
                    end = end.max(e);
                }
                None => break,
            }
        }
        self.ooo.insert(start, end);
    }

    /// This receiver's bytes, its out-of-order set's nodes included (one
    /// leaf per `OOO_LEAF_INTERVALS` pending intervals, an estimate).
    pub fn resident_bytes(&self) -> usize {
        size_of::<Self>() + self.ooo.len().div_ceil(OOO_LEAF_INTERVALS) * OOO_LEAF_BYTES
    }
}

#[cfg(test)]
mod oracle {
    //! The receiver as it was before its in-order fast path: every segment
    //! goes through the interval set, in-order ones popped straight back.
    use super::TcpReceiver;

    /// [`TcpReceiver::on_data`] through the interval set alone.
    pub fn on_data_map_only(rx: &mut TcpReceiver, seq: u64, len: u32) -> u64 {
        let end = seq + len as u64;
        if end <= rx.rcv_nxt {
            rx.duplicate_segments += 1;
            return rx.rcv_nxt;
        }
        if seq > rx.rcv_nxt || end <= rx.max_seen {
            rx.reordered_segments += 1;
        }
        rx.max_seen = rx.max_seen.max(end);
        let start = seq.max(rx.rcv_nxt);
        rx.insert_range(start, end);
        rx.advance();
        rx.rcv_nxt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MSS: u64 = sv2p_packet::packet::MSS as u64;

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    /// Drives sender + receiver over a perfect pipe with fixed RTT, in a
    /// simple lockstep: all emitted segments arrive after rtt/2, ACKs after
    /// another rtt/2.
    fn run_lossless(flow: u64) -> (TcpSender, TcpReceiver, SimTime) {
        let mut tx = TcpSender::new(cfg(), flow);
        let mut rx = TcpReceiver::new();
        let rtt = SimDuration::from_micros(12);
        let mut now = SimTime::ZERO;
        let mut pending: Vec<Segment> = tx.start(now).segments.collect();
        let mut rounds = 0;
        while !tx.is_complete() {
            now += rtt;
            let mut next = Vec::new();
            for seg in pending.drain(..) {
                let ack = rx.on_data(seg.seq, seg.len);
                next.extend(tx.on_ack(now, ack).segments);
            }
            pending = next;
            rounds += 1;
            assert!(rounds < 10_000, "no progress");
        }
        (tx, rx, now)
    }

    #[test]
    fn one_segment_flow_completes() {
        let (tx, rx, _) = run_lossless(100);
        assert!(tx.is_complete());
        assert_eq!(rx.bytes_delivered, 100);
        assert_eq!(tx.retransmits, 0);
    }

    #[test]
    fn large_flow_delivers_every_byte_once() {
        let flow = 1_000_000;
        let (tx, rx, _) = run_lossless(flow);
        assert!(tx.is_complete());
        assert_eq!(rx.bytes_delivered, flow);
        assert_eq!(rx.duplicate_segments, 0);
        assert_eq!(rx.reordered_segments, 0);
    }

    #[test]
    fn slow_start_doubles_window() {
        let mut tx = TcpSender::new(cfg(), 10_000_000);
        let now = SimTime::ZERO;
        let first = tx.start(now).segments;
        assert_eq!(first.len(), 10, "initial window is 10 segments");
        // ACK the whole first window: cwnd should roughly double.
        let mut emitted = 0;
        for i in 1..=10u64 {
            emitted += tx.on_ack(now, i * MSS).segments.len();
        }
        assert!(
            (18..=22).contains(&emitted),
            "slow start emitted {emitted} segments"
        );
    }

    #[test]
    fn dupacks_trigger_fast_retransmit() {
        let mut tx = TcpSender::new(cfg(), 100 * MSS);
        let now = SimTime::ZERO;
        let mut segs = tx.start(now).segments;
        assert_eq!(segs.next().map(|s| s.seq), Some(0));
        // Segment 0 lost; receiver dupacks at 0 for segments 1..=3.
        let mut rtx = Vec::new();
        for _ in 0..3 {
            rtx.extend(tx.on_ack(now, 0).segments);
        }
        assert_eq!(tx.fast_retransmits, 1);
        assert!(rtx.iter().any(|s| s.seq == 0 && s.retransmit));
    }

    #[test]
    fn higher_dupack_threshold_tolerates_reordering() {
        let mut tx = TcpSender::new(TcpConfig::reorder_tolerant(), 100 * MSS);
        let now = SimTime::ZERO;
        tx.start(now);
        for _ in 0..50 {
            tx.on_ack(now, 0);
        }
        assert_eq!(tx.fast_retransmits, 0, "300-dupack profile fired early");
    }

    #[test]
    fn rto_backs_off_exponentially() {
        let mut tx = TcpSender::new(cfg(), 100 * MSS);
        let mut now = SimTime::ZERO;
        tx.start(now);
        let mut last = SimDuration::ZERO;
        for i in 0..4 {
            now += tx.rto();
            let ops = tx.on_rto(now);
            let segs: Vec<Segment> = ops.segments.collect();
            assert_eq!(segs.len(), 1);
            assert!(segs[0].retransmit);
            assert_eq!(segs[0].seq, 0);
            if i > 0 {
                assert!(tx.rto() >= last, "RTO shrank during backoff");
            }
            last = tx.rto();
        }
        assert_eq!(tx.timeouts, 4);
    }

    #[test]
    fn recovery_retransmits_holes_and_completes() {
        // Lose the first segment of the initial window, deliver the rest,
        // dupack thrice, then let the retransmission complete the flow.
        let flow = 10 * MSS;
        let mut tx = TcpSender::new(cfg(), flow);
        let mut rx = TcpReceiver::new();
        let now = SimTime::ZERO;
        let segs = tx.start(now).segments;
        let mut pending: Vec<Segment> = Vec::new();
        for (i, seg) in segs.enumerate() {
            if i == 0 {
                continue; // lost
            }
            let ack = rx.on_data(seg.seq, seg.len);
            pending.extend(tx.on_ack(now, ack).segments);
        }
        // 9 dupacks at 0 -> fast retransmit of seq 0 among pending.
        assert!(pending.iter().any(|s| s.seq == 0 && s.retransmit));
        for seg in pending {
            let ack = rx.on_data(seg.seq, seg.len);
            tx.on_ack(now, ack);
        }
        assert!(tx.is_complete());
        assert_eq!(rx.bytes_delivered, flow);
    }

    #[test]
    fn receiver_handles_out_of_order_and_duplicates() {
        let mut rx = TcpReceiver::new();
        assert_eq!(rx.on_data(1000, 1000), 0); // gap
        assert_eq!(rx.reordered_segments, 1);
        assert_eq!(rx.on_data(0, 1000), 2000); // fills the hole
        assert_eq!(rx.on_data(0, 1000), 2000); // pure duplicate
        assert_eq!(rx.duplicate_segments, 1);
        assert_eq!(rx.bytes_delivered, 2000);
    }

    #[test]
    fn receiver_merges_overlapping_ranges() {
        let mut rx = TcpReceiver::new();
        rx.on_data(3000, 1000);
        rx.on_data(1000, 1000);
        // Overlaps both neighbors and bridges the gap; byte 0 is still missing.
        assert_eq!(rx.on_data(1500, 2000), 0);
        assert_eq!(rx.on_data(0, 1000), 4000);
        assert_eq!(rx.bytes_delivered, 4000);
    }

    #[test]
    fn rtt_sampling_sets_rto() {
        let mut tx = TcpSender::new(cfg(), 100 * MSS);
        let t0 = SimTime::ZERO;
        tx.start(t0);
        let t1 = t0 + SimDuration::from_micros(100);
        tx.on_ack(t1, MSS);
        // srtt = 100us, rttvar = 50us -> rto = 300us, clamped to min 500us.
        assert_eq!(tx.rto(), SimDuration::from_micros(500));
        // A slower network raises it above the clamp.
        let mut tx2 = TcpSender::new(cfg(), 100 * MSS);
        tx2.start(t0);
        tx2.on_ack(t0 + SimDuration::from_micros(400), MSS);
        assert_eq!(tx2.rto(), SimDuration::from_micros(1200));
    }

    #[test]
    fn a_drained_interval_set_holds_no_node() {
        let mut rx = TcpReceiver::new();
        let empty = size_of::<TcpReceiver>();
        assert_eq!(rx.on_data(0, 1000), 1000);
        assert_eq!(rx.resident_bytes(), empty, "in order: nothing stored");
        assert_eq!(rx.on_data(2000, 1000), 1000);
        assert!(rx.resident_bytes() > empty, "a gap is pending");
        assert_eq!(rx.on_data(1000, 1000), 3000);
        assert!(rx.ooo.is_empty());
        assert_eq!(rx.resident_bytes(), empty);
    }

    /// A segment of a random tape, against the receiver's state: the next
    /// segment in order (ops 0-3), one past a gap (4), a duplicate or
    /// retransmission behind the highest byte sent (5), an arbitrary
    /// overlapping range (6), or the segment that fills the lowest gap (7).
    /// `sent` is the highest byte any segment so far has ended at.
    fn segment(rx: &TcpReceiver, sent: &mut u64, (op, a, b): (u8, u16, u16)) -> (u64, u32) {
        let len = u32::from(b % 1500);
        let (seq, len) = match op % 8 {
            0..=3 => (*sent, len + 1),
            4 => (*sent + u64::from(a) + 1, len + 1),
            5 => (sent.saturating_sub(u64::from(a)), len),
            6 => (*sent * u64::from(a) / u64::from(u16::MAX), u32::from(b)),
            _ => (rx.rcv_nxt, len + 1),
        };
        *sent = (*sent).max(seq + u64::from(len));
        (seq, len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn receiver_acks_as_its_interval_map_oracle_does(
            tape in proptest::collection::vec((any::<u8>(), 0u16..4000, any::<u16>()), 1..300),
        ) {
            let (mut rx, mut oracle, mut sent) = (TcpReceiver::new(), TcpReceiver::new(), 0);
            for &step in &tape {
                let (seq, len) = segment(&oracle, &mut sent, step);
                let ack = rx.on_data(seq, len);
                prop_assert_eq!(ack, super::oracle::on_data_map_only(&mut oracle, seq, len));
                // Every stat, the ACK point and the pending intervals agree,
                // so the map is empty whenever no gap is pending.
                prop_assert_eq!(&rx, &oracle);
            }
        }
    }
}
