//! Store-and-forward links with drop-tail egress queues.
//!
//! Each directed link owns the egress queue of its sending port. A packet
//! occupies the transmitter for its serialization time and arrives at the
//! receiver one propagation delay after its last bit leaves — the classic
//! output-queued switch model.
//!
//! The model is *analytic*. Once a packet is in a drop-tail FIFO nothing
//! can overtake it, abandon it or strand it (`link_up` is read when a
//! packet is routed, never while it waits), so the instant its last bit
//! leaves is known the moment it is offered: [`LinkState::enqueue`] answers
//! with that instant and the caller schedules the packet's one arrival
//! event. There is no transmission-complete event and the link holds no
//! packet handles — only when it next falls idle and the wire sizes of the
//! packets still waiting, which is all the buffer accounting needs. A
//! packet bound for another shard therefore leaves its sender's arena when
//! it is offered.
//!
//! **Sized by use.** A fabric has one [`LinkState`] per directed link
//! (75 072 on FT32-1M) but only a few link classes (two in a FatTree), so
//! a link holds nothing its class shares: the caller passes the class's
//! [`SerTable`] and the buffer with each call, and adds the propagation
//! delay. What a queue needs — the waiting packets' sizes, their bytes and
//! when the front starts — sits behind a pointer allocated when a packet
//! first has to wait and dropped when the link falls idle. Most links
//! never queue, and each costs 16 bytes.
//!
//! **The same-instant rule.** A packet whose transmission starts at `now`
//! has left the queue: its bytes are off the buffer and it no longer counts
//! toward [`LinkState::queue_len`]; a link whose last bit leaves at `now`
//! is idle at `now`. It is the rule an event-driven link follows when its
//! transmission-complete event runs before the offers of the same instant,
//! and the `#[cfg(test)]` oracle below — that event-driven link, kept as
//! the calendar keeps its heap — is driven exactly so.

use std::collections::VecDeque;

use sv2p_simcore::{SimDuration, SimTime};

/// Serialization times of one link class: every wire size under 2 048
/// bytes read off a table, larger ones divided out. Each entry is
/// [`SimDuration::serialization`]'s, so a hop looks its time up instead of
/// dividing.
#[derive(Debug)]
pub struct SerTable {
    bandwidth_bps: u64,
    exact: Box<[SimDuration]>,
}

impl SerTable {
    /// Wire sizes below this many bytes are tabled; every packet the
    /// simulator builds is (at most 1 500 bytes).
    const EXACT: u32 = 2_048;

    /// The table of a link class of `bandwidth_bps`.
    pub fn new(bandwidth_bps: u64) -> Self {
        let exact = (0..Self::EXACT)
            .map(|b| SimDuration::serialization(b, bandwidth_bps))
            .collect();
        SerTable {
            bandwidth_bps,
            exact,
        }
    }

    /// Serialization time of `wire_bytes`.
    #[inline]
    pub fn get(&self, wire_bytes: u32) -> SimDuration {
        match self.exact.get(wire_bytes as usize) {
            Some(&ser) => ser,
            None => SimDuration::serialization(wire_bytes, self.bandwidth_bps),
        }
    }

    /// Heap bytes of the table.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.exact)
    }
}

/// Runtime state of one directed link: 16 bytes, none of them the link's
/// constants. The class's serialization table and the buffer come with
/// each call, and the propagation delay is the caller's to add.
#[derive(Debug, Default)]
pub struct LinkState {
    /// When the last bit of the last accepted packet leaves.
    free_at: SimTime,
    /// The packets that had to wait; `None` while the link has never
    /// queued since it last fell idle.
    waiting: Option<Box<Waiting>>,
}

/// A link's queue, boxed: it exists only from a link's first packet that
/// has to wait until the link falls idle.
#[derive(Debug, Default)]
struct Waiting {
    /// When the front of `sizes` starts transmitting.
    head_start: SimTime,
    /// Bytes in `sizes` (at most the buffer, so under 4 GiB).
    queued_bytes: u32,
    /// Wire sizes of the accepted packets that had not started
    /// transmitting when the link was last offered one, oldest first.
    /// Four bytes a waiting packet: each one's start is the sum of the
    /// serializations ahead of it, so only the front's is kept.
    sizes: VecDeque<u32>,
}

/// What [`LinkState::enqueue`] decided.
#[derive(Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Accepted: the packet's last bit leaves at this instant, and it
    /// arrives one propagation delay later.
    Departs(SimTime),
    /// Buffer full; the packet was dropped (the caller frees it).
    Dropped,
    /// The packet was discarded by injected stochastic loss before reaching
    /// the queue (the caller frees it).
    Lost,
}

impl LinkState {
    /// Offers a packet to the egress port at `now`, first exposing it to
    /// the link's injected loss (`loss_rate`, the sum of the active
    /// `LossRate` faults covering this link). `draw` is a uniform sample in
    /// `[0, 1)` from the link's dedicated fault RNG stream; a draw below
    /// the loss rate discards the packet before it reaches the queue (the
    /// corruption/loss point of a real wire).
    pub fn enqueue_with_loss(
        &mut self,
        now: SimTime,
        wire_bytes: u32,
        ser: &SerTable,
        buffer_bytes: u32,
        loss_rate: f64,
        draw: f64,
    ) -> EnqueueOutcome {
        if draw < loss_rate {
            return EnqueueOutcome::Lost;
        }
        self.enqueue(now, wire_bytes, ser, buffer_bytes)
    }

    /// Offers a packet of `wire_bytes` at `now` to an egress port whose
    /// class serializes as `ser`, with `buffer_bytes` of drop-tail buffer
    /// (offers come in time order: `now` is the simulation clock; a link is
    /// always offered with the same class and buffer).
    pub fn enqueue(
        &mut self,
        now: SimTime,
        wire_bytes: u32,
        ser: &SerTable,
        buffer_bytes: u32,
    ) -> EnqueueOutcome {
        let start = if self.free_at <= now {
            // Idle: every waiting packet has left, and the wire takes this
            // one at once, past the buffer.
            self.waiting = None;
            now
        } else {
            let w = self.waiting.get_or_insert_default();
            // Packets whose transmission has started are off the buffer.
            while let Some(&front) = w.sizes.front() {
                if w.head_start > now {
                    break;
                }
                w.sizes.pop_front();
                w.queued_bytes -= front;
                w.head_start += ser.get(front);
            }
            if u64::from(w.queued_bytes) + u64::from(wire_bytes) > u64::from(buffer_bytes) {
                return EnqueueOutcome::Dropped;
            }
            if w.sizes.is_empty() {
                w.head_start = self.free_at;
            }
            w.sizes.push_back(wire_bytes);
            w.queued_bytes += wire_bytes;
            self.free_at
        };
        self.free_at = start + ser.get(wire_bytes);
        EnqueueOutcome::Departs(self.free_at)
    }

    /// Heap bytes of the waiting queue, if the link is queueing.
    pub fn queue_bytes(&self) -> usize {
        self.waiting.as_ref().map_or(0, |w| {
            std::mem::size_of::<Waiting>() + w.sizes.capacity() * std::mem::size_of::<u32>()
        })
    }

    /// Packets accepted and not yet transmitting at `now` on a link whose
    /// class serializes as `ser` (the one on the wire is not in the queue,
    /// and by the same-instant rule neither is one that starts at `now`). A
    /// pure read for any `now` at or after the last offer: it walks the
    /// waiting packets' start instants from the front's.
    pub fn queue_len(&self, now: SimTime, ser: &SerTable) -> usize {
        let Some(w) = self.waiting.as_deref() else {
            return 0;
        };
        let mut start = w.head_start;
        let mut started = 0;
        for &wire in &w.sizes {
            if start > now {
                break;
            }
            started += 1;
            start += ser.get(wire);
        }
        w.sizes.len() - started
    }
}

/// The event-driven link this module had before it became analytic, kept
/// as a test oracle: a queue of packet handles, a `busy` flag and a
/// `tx_done` the caller must invoke when each serialization ends.
#[cfg(test)]
mod oracle {
    use super::*;

    /// What [`EventLink::enqueue`] decided.
    #[derive(Debug, PartialEq, Eq)]
    pub enum Offer {
        /// The link was idle: transmission starts now and takes this long.
        StartTx(SimDuration),
        /// Joined the queue; starts when the wire frees up.
        Queued,
        /// Buffer full.
        Dropped,
        /// Injected loss.
        Lost,
    }

    /// Reference implementation with the event-driven semantics.
    #[derive(Debug)]
    pub struct EventLink {
        bandwidth_bps: u64,
        buffer_bytes: u64,
        /// Queued `(packet, wire bytes)`; the head is the one on the wire.
        queue: VecDeque<(u32, u32)>,
        queued_bytes: u64,
        busy: bool,
    }

    impl EventLink {
        pub fn new(bandwidth_bps: u64, buffer_bytes: u64) -> Self {
            EventLink {
                bandwidth_bps,
                buffer_bytes,
                queue: VecDeque::new(),
                queued_bytes: 0,
                busy: false,
            }
        }

        fn ser_time(&self, wire_bytes: u32) -> SimDuration {
            SimDuration::serialization(wire_bytes, self.bandwidth_bps)
        }

        pub fn enqueue_with_loss(
            &mut self,
            pkt: u32,
            wire: u32,
            loss_rate: f64,
            draw: f64,
        ) -> Offer {
            if draw < loss_rate {
                return Offer::Lost;
            }
            if !self.busy {
                self.busy = true;
                self.queue.push_front((pkt, wire));
                Offer::StartTx(self.ser_time(wire))
            } else if self.queued_bytes + wire as u64 <= self.buffer_bytes {
                self.queued_bytes += wire as u64;
                self.queue.push_back((pkt, wire));
                Offer::Queued
            } else {
                Offer::Dropped
            }
        }

        /// Transmission of the head packet finished: returns it and, if
        /// more are queued, the serialization time of the next one.
        pub fn tx_done(&mut self) -> (u32, Option<SimDuration>) {
            assert!(self.busy, "tx_done on idle link");
            let (sent, _) = self.queue.pop_front().expect("tx_done with empty queue");
            match self.queue.front().copied() {
                Some((_, wire)) => {
                    self.queued_bytes -= wire as u64;
                    (sent, Some(self.ser_time(wire)))
                }
                None => {
                    self.busy = false;
                    (sent, None)
                }
            }
        }

        /// Queue depth in packets (excludes the in-flight one).
        pub fn queue_len(&self) -> usize {
            self.queue.len().saturating_sub(self.busy as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{EventLink, Offer};
    use super::*;
    use proptest::prelude::*;
    use sv2p_packet::packet::MSS;

    /// Wire size of an MSS data packet with default tunnel options
    /// (60 bytes of headers).
    const MSS_WIRE: u32 = MSS + 60;

    /// A link's state with the constants its caller passes, as a shard
    /// reads them off the link's class and `PORT_BUFFER_BYTES`.
    struct Port {
        state: LinkState,
        bandwidth_bps: u64,
        ser: SerTable,
        buffer_bytes: u32,
    }

    impl Port {
        fn enqueue(&mut self, now: SimTime, wire: u32) -> EnqueueOutcome {
            self.state.enqueue(now, wire, &self.ser, self.buffer_bytes)
        }

        fn enqueue_with_loss(
            &mut self,
            now: SimTime,
            wire: u32,
            rate: f64,
            draw: f64,
        ) -> EnqueueOutcome {
            let buf = self.buffer_bytes;
            self.state
                .enqueue_with_loss(now, wire, &self.ser, buf, rate, draw)
        }

        fn queue_len(&self, now: SimTime) -> usize {
            self.state.queue_len(now, &self.ser)
        }
    }

    fn link() -> Port {
        // 100G, room for exactly two MSS packets in the queue.
        let bandwidth_bps = 100_000_000_000;
        Port {
            state: LinkState::default(),
            bandwidth_bps,
            ser: SerTable::new(bandwidth_bps),
            buffer_bytes: 2 * MSS_WIRE,
        }
    }

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn departs(ns: u64) -> EnqueueOutcome {
        EnqueueOutcome::Departs(at(ns))
    }

    #[test]
    fn idle_link_departs_one_serialization_later() {
        let mut l = link();
        // 1060 B at 100G = 84.8 -> 85 ns.
        assert_eq!(l.enqueue(at(1000), MSS_WIRE), departs(1085));
        assert_eq!(l.queue_len(at(1000)), 0);
    }

    #[test]
    fn busy_link_queues_then_drops() {
        let mut l = link();
        assert_eq!(l.enqueue(at(0), MSS_WIRE), departs(85));
        assert_eq!(l.enqueue(at(0), MSS_WIRE), departs(170));
        assert_eq!(l.enqueue(at(1), MSS_WIRE), departs(255));
        assert_eq!(l.enqueue(at(2), MSS_WIRE), EnqueueOutcome::Dropped);
        assert_eq!(l.queue_len(at(2)), 2);
    }

    #[test]
    fn fifo_departures_follow_each_packets_own_size() {
        let mut l = link();
        assert_eq!(l.enqueue(at(0), MSS_WIRE), departs(85));
        // 160 B at 100G = 12.8 -> 13 ns, behind the first packet.
        assert_eq!(l.enqueue(at(10), 100 + 60), departs(98));
        assert_eq!(l.queue_len(at(84)), 1);
        // It starts at 85, so by the same-instant rule it has left.
        assert_eq!(l.queue_len(at(85)), 0);
        // At 98 the last bit has left: the link is idle again.
        assert_eq!(l.enqueue(at(98), 61), departs(98 + 5));
    }

    #[test]
    fn serialization_times_stay_exact_across_size_changes() {
        // Runs of one size, switches between sizes and a return to an
        // earlier size all give the line-rate figure, on the idle path, on
        // the queued path and where `enqueue` walks started packets off.
        let mut l = link();
        let mut now = at(0);
        // 70 B at 100G = 5.6 -> 6 ns.
        let ser_70 = SimDuration::from_nanos(6);
        for wire in [MSS_WIRE, MSS_WIRE, 60, 60, MSS_WIRE, 0, 61, 60] {
            let ser = SimDuration::serialization(wire, l.bandwidth_bps);
            assert_eq!(l.enqueue(now, wire), EnqueueOutcome::Departs(now + ser));
            assert_eq!(
                l.enqueue(now, 70),
                EnqueueOutcome::Departs(now + ser + ser_70)
            );
            now = now + ser + ser_70 + ser;
            assert_eq!(l.enqueue(now - ser, wire), EnqueueOutcome::Departs(now));
        }
    }

    #[test]
    fn a_link_that_finds_its_wire_idle_never_allocates_a_queue() {
        let mut l = link();
        for i in 0..100 {
            // 1 us apart: each packet has left before the next is offered.
            assert_eq!(l.enqueue(at(i * 1_000), MSS_WIRE), departs(i * 1_000 + 85));
        }
        assert!(l.state.waiting.is_none());
        // An offer that finds the wire busy allocates it.
        l.enqueue(at(100_000), MSS_WIRE);
        assert!(l.state.waiting.is_none());
        l.enqueue(at(100_000), MSS_WIRE);
        assert!(l.state.waiting.is_some());
        // It goes when the link falls idle.
        assert_eq!(l.enqueue(at(200_000), MSS_WIRE), departs(200_085));
        assert!(l.state.waiting.is_none());
    }

    /// Asserts that `bw`'s table gives the division's answer for every wire
    /// size up to past its end, where it divides.
    fn check_ser_table(bw: u64) {
        let table = SerTable::new(bw);
        for wire in 0..=2_100 {
            let want = SimDuration::serialization(wire, bw);
            assert_eq!(table.get(wire), want, "{wire} B at {bw} b/s");
        }
    }

    #[test]
    fn ser_table_matches_division_at_the_fabric_rates() {
        check_ser_table(100_000_000_000);
        check_ser_table(400_000_000_000);
    }

    #[test]
    fn injected_loss_discards_below_rate_only() {
        let mut l = link();
        // Healthy link: the draw is irrelevant.
        assert_eq!(l.enqueue_with_loss(at(0), MSS_WIRE, 0.0, 0.0), departs(85));
        assert_eq!(
            l.enqueue_with_loss(at(1), MSS_WIRE, 0.01, 0.005),
            EnqueueOutcome::Lost
        );
        // The lost packet took no wire time and no buffer space.
        assert_eq!(l.queue_len(at(1)), 0);
        assert_eq!(
            l.enqueue_with_loss(at(2), MSS_WIRE, 0.01, 0.5),
            departs(170)
        );
    }

    #[test]
    fn freed_buffer_accepts_again() {
        let mut l = link();
        l.enqueue(at(0), MSS_WIRE);
        l.enqueue(at(0), MSS_WIRE);
        l.enqueue(at(0), MSS_WIRE);
        assert_eq!(l.enqueue(at(84), MSS_WIRE), EnqueueOutcome::Dropped);
        // At 85 the second packet starts transmitting and frees its slot.
        assert_eq!(l.enqueue(at(85), MSS_WIRE), departs(4 * 85));
    }

    /// Drives the analytic link and the event-driven oracle from one tape
    /// of `(gap to the previous offer, wire-size pick, loss draw)` and
    /// asserts the same outcome per offer, the same departure instant per
    /// accepted packet and the same queue depth after every offer. The
    /// oracle's `tx_done`s are its pending events: those due at or before
    /// an offer's instant run first (the same-instant rule). Returns how
    /// many offers were `[accepted, dropped, lost, made at exactly a
    /// tx-done instant]`.
    fn check_against_oracle(
        bw: u64,
        buffer: u32,
        loss_rate: f64,
        tape: &[(u16, u8, u8)],
    ) -> [usize; 4] {
        const WIRES: [u32; 4] = [60, 70, 1060, 1500];
        let ser = &SerTable::new(bw);
        let mut link = LinkState::default();
        let mut oracle = EventLink::new(bw, u64::from(buffer));
        // The oracle's one pending tx-done instant, and the departure it
        // reported for each packet.
        let mut tx_done_at: Option<SimTime> = None;
        let mut left_at: Vec<Option<SimTime>> = Vec::new();
        let mut expect: Vec<Option<SimTime>> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut seen = [0; 4];
        let run_due = |oracle: &mut EventLink,
                       tx_done_at: &mut Option<SimTime>,
                       left_at: &mut Vec<Option<SimTime>>,
                       until: SimTime| {
            while let Some(t) = tx_done_at.filter(|&t| t <= until) {
                let (sent, next) = oracle.tx_done();
                left_at[sent as usize] = Some(t);
                *tx_done_at = next.map(|ser| t + ser);
            }
        };
        for (i, &(gap, pick, draw)) in tape.iter().enumerate() {
            // Every fourth gap lands exactly on the oracle's free instant.
            now = match tx_done_at {
                Some(t) if gap % 4 == 3 && t >= now => t,
                _ => now + SimDuration::from_nanos(u64::from(gap % 301)),
            };
            let wire = WIRES[pick as usize % 4];
            let draw = f64::from(draw) / 256.0;
            seen[3] += usize::from(tx_done_at == Some(now));
            run_due(&mut oracle, &mut tx_done_at, &mut left_at, now);
            left_at.push(None);
            let got = link.enqueue_with_loss(now, wire, ser, buffer, loss_rate, draw);
            let want = oracle.enqueue_with_loss(i as u32, wire, loss_rate, draw);
            let (outcome, departs) = match got {
                EnqueueOutcome::Departs(t) => (0, Some(t)),
                EnqueueOutcome::Dropped => (1, None),
                EnqueueOutcome::Lost => (2, None),
            };
            seen[outcome] += 1;
            expect.push(departs);
            match want {
                Offer::StartTx(ser) => {
                    assert_eq!(got, EnqueueOutcome::Departs(now + ser), "offer {i}");
                    tx_done_at = Some(now + ser);
                }
                Offer::Queued => assert!(
                    matches!(got, EnqueueOutcome::Departs(_)),
                    "offer {i}: {got:?}"
                ),
                Offer::Dropped => assert_eq!(got, EnqueueOutcome::Dropped, "offer {i}"),
                Offer::Lost => assert_eq!(got, EnqueueOutcome::Lost, "offer {i}"),
            }
            assert_eq!(
                link.queue_len(now, ser),
                oracle.queue_len(),
                "depth after offer {i}"
            );
        }
        // A later sample reads the depth without another offer.
        if let Some(t) = tx_done_at {
            let mid = now + (t - now) / 2 + SimDuration::from_nanos(100);
            run_due(&mut oracle, &mut tx_done_at, &mut left_at, mid);
            assert_eq!(
                link.queue_len(mid, ser),
                oracle.queue_len(),
                "depth at a later sample"
            );
        }
        run_due(&mut oracle, &mut tx_done_at, &mut left_at, SimTime::MAX);
        assert_eq!(expect, left_at, "departure instants");
        assert_eq!(link.queue_len(SimTime::MAX, ser), 0);
        seen
    }

    #[test]
    fn tapes_reach_drops_losses_and_same_instant_offers() {
        // The property below says nothing about a case its tapes never
        // produce: one fixed tape of its shape must produce them all.
        let mut rng = sv2p_simcore::SimRng::new(22);
        let tape: Vec<(u16, u8, u8)> = (0..400)
            .map(|_| {
                let r = rng.next_u64_raw();
                (r as u16, (r >> 16) as u8, (r >> 24) as u8)
            })
            .collect();
        let seen = check_against_oracle(10_000_000_000, 4_000, 0.05, &tape);
        assert!(seen.iter().all(|&n| n >= 10), "{seen:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn analytic_link_matches_event_driven_oracle(
            tape in proptest::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..400),
            rate in 0usize..3,
            small in any::<bool>(),
            lossy in any::<bool>(),
        ) {
            let bw = [10_000_000_000, 40_000_000_000, 100_000_000_000][rate];
            let buffer = if small { 4_000 } else { 32 * 1024 * 1024 };
            let loss_rate = if lossy { 0.05 } else { 0.0 };
            check_against_oracle(bw, buffer, loss_rate, &tape);
        }

        #[test]
        fn ser_table_matches_division_at_any_rate(
            bw in prop_oneof![1_000_000u64..=10_000_000_000_000, 1u64..=u64::MAX],
            wire in any::<u32>(),
        ) {
            check_ser_table(bw);
            prop_assert_eq!(SerTable::new(bw).get(wire), SimDuration::serialization(wire, bw));
        }
    }
}
