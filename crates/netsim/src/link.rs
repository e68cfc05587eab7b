//! Store-and-forward links with drop-tail egress queues.
//!
//! Each directed link owns the egress queue of its sending port. A packet
//! occupies the transmitter for its serialization time and arrives at the
//! receiver one propagation delay after its last bit leaves — the classic
//! output-queued switch model.
//!
//! The model is *analytic*. Once a packet is in a drop-tail FIFO nothing
//! can overtake it, abandon it or strand it (whether a link is down is
//! read when a packet is routed, never while it waits), so the instant its
//! last bit leaves is known the moment it is offered: [`Links::enqueue`]
//! answers with that instant and the caller schedules the packet's one
//! arrival event. There is no transmission-complete event and the link
//! holds no packet handles — only when it next falls idle and the wire
//! sizes of the packets still waiting, which is all the buffer accounting
//! needs. A packet bound for another shard is therefore an arrival filed
//! when it is offered, like any other.
//!
//! **Sized by use.** A fabric has one link state per directed link
//! (75 072 on FT32-1M) but only a few link classes (two in a FatTree), so
//! a link holds nothing its class shares: the caller passes the class's
//! [`SerTable`] and the buffer with each call, and adds the propagation
//! delay. What a queue needs — the waiting packets' sizes, their bytes and
//! when the front starts — sits in a slot of the shard's queue slab, taken
//! when a packet first has to wait and given back at the first offer that
//! finds the link idle. Most links never queue, and each costs 8 bytes:
//! one word holding when it next falls idle (44 bits of ns) and its slot,
//! if any (20 bits).
//!
//! **The same-instant rule.** A packet whose transmission starts at `now`
//! has left the queue: its bytes are off the buffer and it no longer counts
//! toward [`Links::queue_len`]; a link whose last bit leaves at `now`
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

/// Bits of a link's packed word that hold when it next falls idle, in ns:
/// 2^44 ns is about 4.9 hours of simulated time.
const FREE_AT_BITS: u32 = 44;
const FREE_AT_MASK: u64 = (1 << FREE_AT_BITS) - 1;
/// Queues the packed word can name: its top 20 bits hold one more than the
/// queue's index, and 0 while the link has none.
const MAX_QUEUES: usize = (1 << (64 - FREE_AT_BITS)) - 1;
/// A queue slot given back keeps a buffer of up to this many sizes for the
/// next link to queue, which spares most queues an allocation; one a deep
/// queue grew is freed, so the slab does not hold every slot at the depth
/// of its deepest queue (measured on `ft8-churn`: keeping every buffer
/// raised the peak live heap by 0.08 MB, keeping 8 by none).
const KEPT_SIZES: usize = 8;

/// Runtime state of one directed link, one word and none of it the link's
/// constants: when the last bit of the last accepted packet leaves, and,
/// only while the link queues, where its [`Waiting`] sits in the slab of
/// [`Links`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkState(u64);

impl LinkState {
    /// A link idle from `free_at`, with `queue` (a slab index) or none.
    /// Panics on a `free_at` the word cannot hold, in every build: a
    /// truncated one would reopen a busy wire.
    fn pack(free_at: SimTime, queue: Option<usize>) -> Self {
        let ns = free_at.as_nanos();
        assert!(
            ns <= FREE_AT_MASK,
            "a link busy until {ns} ns is past the {FREE_AT_BITS}-bit bound of its \
             state (about 4.9 h of simulated time)"
        );
        let slot = queue.map_or(0, |q| q as u64 + 1);
        LinkState(slot << FREE_AT_BITS | ns)
    }

    /// When the last bit of the last accepted packet leaves.
    fn free_at(self) -> SimTime {
        SimTime::from_nanos(self.0 & FREE_AT_MASK)
    }

    /// The slab index of the link's queue; `None` while the link has not
    /// queued since it last fell idle.
    fn queue(self) -> Option<usize> {
        (self.0 >> FREE_AT_BITS).checked_sub(1).map(|q| q as usize)
    }
}

/// A link's queue: it exists only from a link's first packet that has to
/// wait until the link falls idle, in a slot of the shard's slab.
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

/// A shard's links: a `LinkState` word per link, indexed by link id, and
/// a slab of the queues of the links that have packets waiting. A queue's
/// slot goes back on the free list at the first offer that finds its link
/// idle, and keeps a small buffer for the next link to queue. Until that
/// offer a drained link still holds its slot and buffer, and
/// [`Links::resident_bytes`] counts them: at the end of a run most of the
/// slab can be held by links with nothing waiting. Reclaiming them earlier
/// (a sweep of drained slots before the slab grows) measured no smaller
/// peak and no faster run, so the release stays lazy.
#[derive(Debug)]
pub struct Links {
    states: Vec<LinkState>,
    queues: Vec<Waiting>,
    /// Slots of `queues` that no link holds.
    free: Vec<u32>,
}

/// What [`Links::enqueue`] decided.
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

impl Links {
    /// `n` idle links, none queueing.
    pub fn new(n: usize) -> Self {
        Links {
            states: vec![LinkState::default(); n],
            queues: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Offers a packet to link `link`'s egress port at `now`, first exposing
    /// it to the link's injected loss (`loss_rate`, the sum of the active
    /// `LossRate` faults covering this link). `draw` is a uniform sample in
    /// `[0, 1)` from the link's dedicated fault RNG stream; a draw below
    /// the loss rate discards the packet before it reaches the queue (the
    /// corruption/loss point of a real wire).
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_with_loss(
        &mut self,
        link: usize,
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
        self.enqueue(link, now, wire_bytes, ser, buffer_bytes)
    }

    /// Offers a packet of `wire_bytes` at `now` to link `link`'s egress
    /// port, whose class serializes as `ser`, with `buffer_bytes` of
    /// drop-tail buffer (offers come in time order: `now` is the
    /// simulation clock; a link is always offered with the same class and
    /// buffer).
    pub fn enqueue(
        &mut self,
        link: usize,
        now: SimTime,
        wire_bytes: u32,
        ser: &SerTable,
        buffer_bytes: u32,
    ) -> EnqueueOutcome {
        let state = self.states[link];
        let free_at = state.free_at();
        let (start, queue) = if free_at <= now {
            // Idle: every waiting packet has left, and the wire takes this
            // one at once, past the buffer.
            if let Some(q) = state.queue() {
                self.release(q);
            }
            (now, None)
        } else {
            let q = state.queue().unwrap_or_else(|| self.acquire());
            let w = &mut self.queues[q];
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
                self.states[link] = LinkState::pack(free_at, Some(q));
                return EnqueueOutcome::Dropped;
            }
            if w.sizes.is_empty() {
                w.head_start = free_at;
            }
            w.sizes.push_back(wire_bytes);
            w.queued_bytes += wire_bytes;
            (free_at, Some(q))
        };
        let departs = start + ser.get(wire_bytes);
        self.states[link] = LinkState::pack(departs, queue);
        EnqueueOutcome::Departs(departs)
    }

    /// A free queue slot, taken off the free list or added to the slab.
    fn acquire(&mut self) -> usize {
        if let Some(q) = self.free.pop() {
            return q as usize;
        }
        let q = self.queues.len();
        assert!(
            q < MAX_QUEUES,
            "more than {MAX_QUEUES} links of one shard queue at once"
        );
        self.queues.push(Waiting::default());
        q
    }

    /// Empties queue slot `q`, keeping a small buffer, and frees it.
    fn release(&mut self, q: usize) {
        let w = &mut self.queues[q];
        if w.sizes.capacity() > KEPT_SIZES {
            w.sizes = VecDeque::new();
        } else {
            w.sizes.clear();
        }
        w.queued_bytes = 0;
        self.free.push(q as u32);
    }

    /// Heap bytes: a word per link, and the queue slab with its buffers
    /// and free list, counting the slots that drained links still hold.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let buffers = self
            .queues
            .iter()
            .map(|w| w.sizes.capacity())
            .sum::<usize>();
        size_of_val(&*self.states)
            + self.queues.capacity() * size_of::<Waiting>()
            + (buffers + self.free.capacity()) * size_of::<u32>()
    }

    /// Packets accepted and not yet transmitting at `now` on link `link`,
    /// whose class serializes as `ser` (the one on the wire is not in the
    /// queue, and by the same-instant rule neither is one that starts at
    /// `now`). A pure read for any `now` at or after the link's last offer:
    /// it walks the waiting packets' start instants from the front's.
    pub fn queue_len(&self, link: usize, now: SimTime, ser: &SerTable) -> usize {
        let Some(q) = self.states[link].queue() else {
            return 0;
        };
        let w = &self.queues[q];
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

    /// One link with the constants its caller passes, as a shard reads
    /// them off the link's class and `PORT_BUFFER_BYTES`.
    struct Port {
        links: Links,
        bandwidth_bps: u64,
        ser: SerTable,
        buffer_bytes: u32,
    }

    impl Port {
        fn enqueue(&mut self, now: SimTime, wire: u32) -> EnqueueOutcome {
            self.links
                .enqueue(0, now, wire, &self.ser, self.buffer_bytes)
        }

        fn enqueue_with_loss(
            &mut self,
            now: SimTime,
            wire: u32,
            rate: f64,
            draw: f64,
        ) -> EnqueueOutcome {
            let buf = self.buffer_bytes;
            self.links
                .enqueue_with_loss(0, now, wire, &self.ser, buf, rate, draw)
        }

        fn queue_len(&self, now: SimTime) -> usize {
            self.links.queue_len(0, now, &self.ser)
        }
    }

    fn link() -> Port {
        // 100G, room for exactly two MSS packets in the queue.
        let bandwidth_bps = 100_000_000_000;
        Port {
            links: Links::new(1),
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
        let queue = |l: &Port| l.links.states[0].queue();
        assert_eq!(queue(&l), None);
        assert!(l.links.queues.is_empty());
        // An offer that finds the wire busy takes a slot of the slab.
        l.enqueue(at(100_000), MSS_WIRE);
        assert_eq!(queue(&l), None);
        l.enqueue(at(100_000), MSS_WIRE);
        assert_eq!(queue(&l), Some(0));
        // It goes back to the slab when the link falls idle.
        assert_eq!(l.enqueue(at(200_000), MSS_WIRE), departs(200_085));
        assert_eq!(queue(&l), None);
        assert_eq!(l.links.free, [0]);
    }

    #[test]
    fn a_deep_queue_frees_its_buffer_with_its_slot() {
        // Room for 200 MSS packets.
        let mut l = Port {
            buffer_bytes: 200 * MSS_WIRE,
            ..link()
        };
        let buffer = |l: &Port| l.links.queues[0].sizes.capacity();
        // Two packets wait, then the link falls idle: its slot goes back
        // with the buffer they used.
        for _ in 0..3 {
            l.enqueue(at(0), MSS_WIRE);
        }
        l.enqueue(at(1_000), MSS_WIRE);
        assert_eq!(l.links.states[0].queue(), None);
        assert!((1..=KEPT_SIZES).contains(&buffer(&l)), "{}", buffer(&l));
        // A hundred wait in the same slot; when the link falls idle, the
        // buffer they grew is freed.
        for _ in 0..101 {
            l.enqueue(at(2_000), MSS_WIRE);
        }
        assert!(buffer(&l) > KEPT_SIZES);
        l.enqueue(at(1_000_000), MSS_WIRE);
        assert_eq!(l.links.states[0].queue(), None);
        assert_eq!(buffer(&l), 0);
    }

    #[test]
    fn a_link_state_is_one_word_up_to_its_bound() {
        let mut l = link();
        let last = FREE_AT_MASK - 85;
        assert_eq!(l.enqueue(at(last), MSS_WIRE), departs(FREE_AT_MASK));
        assert_eq!(l.links.states[0].free_at(), at(FREE_AT_MASK));
        assert_eq!(l.links.states[0].queue(), None);
        let top = LinkState::pack(at(FREE_AT_MASK), Some(MAX_QUEUES - 1));
        assert_eq!(
            (top.free_at(), top.queue()),
            (at(FREE_AT_MASK), Some(MAX_QUEUES - 1))
        );
        assert_eq!(std::mem::size_of::<LinkState>(), 8);
    }

    #[test]
    #[should_panic(expected = "past the 44-bit bound of its state")]
    fn a_departure_past_the_packed_bound_panics() {
        let mut l = link();
        l.enqueue(at(FREE_AT_MASK - 84), MSS_WIRE);
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
        let tape: Vec<_> = tape.iter().map(|&(g, p, d)| (0, g, p, d)).collect();
        check_links_against_oracles(1, bw, buffer, loss_rate, &tape).seen
    }

    /// What [`check_links_against_oracles`] saw.
    struct Seen {
        /// Offers `[accepted, dropped, lost, made at exactly a tx-done
        /// instant]`.
        seen: [usize; 4],
        /// The most links holding a queue at once.
        peak: usize,
        /// How often a link took a queue slot.
        taken: usize,
    }

    /// [`check_against_oracle`] for `n` links sharing one [`Links`], each
    /// against its own oracle, from a tape of `(link pick, gap, wire-size
    /// pick, loss draw)` on one clock. A link pick of 255 first lets 50 µs
    /// pass, so every link drains and gives its queue back. Asserts too
    /// that the queue slab never grows past the most queues held at once.
    fn check_links_against_oracles(
        n: usize,
        bw: u64,
        buffer: u32,
        loss_rate: f64,
        tape: &[(u8, u16, u8, u8)],
    ) -> Seen {
        const WIRES: [u32; 4] = [60, 70, 1060, 1500];
        let ser = &SerTable::new(bw);
        let mut links = Links::new(n);
        let mut oracles: Vec<_> = (0..n)
            .map(|_| EventLink::new(bw, u64::from(buffer)))
            .collect();
        // Each oracle's one pending tx-done instant, and the departure
        // reported for each packet.
        let mut tx_done_at: Vec<Option<SimTime>> = vec![None; n];
        let mut left_at: Vec<Option<SimTime>> = Vec::new();
        let mut expect: Vec<Option<SimTime>> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut out = Seen {
            seen: [0; 4],
            peak: 0,
            taken: 0,
        };
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
        for (i, &(pick_link, gap, pick, draw)) in tape.iter().enumerate() {
            if pick_link == 255 {
                now += SimDuration::from_micros(50);
            }
            let l = pick_link as usize % n;
            let (oracle, tx_done_at) = (&mut oracles[l], &mut tx_done_at[l]);
            // Every fourth gap lands exactly on the oracle's free instant.
            now = match *tx_done_at {
                Some(t) if gap % 4 == 3 && t >= now => t,
                _ => now + SimDuration::from_nanos(u64::from(gap % 301)),
            };
            let wire = WIRES[pick as usize % 4];
            let draw = f64::from(draw) / 256.0;
            out.seen[3] += usize::from(*tx_done_at == Some(now));
            run_due(oracle, tx_done_at, &mut left_at, now);
            left_at.push(None);
            let had_queue = links.states[l].queue().is_some();
            let got = links.enqueue_with_loss(l, now, wire, ser, buffer, loss_rate, draw);
            let want = oracle.enqueue_with_loss(i as u32, wire, loss_rate, draw);
            let (outcome, departs) = match got {
                EnqueueOutcome::Departs(t) => (0, Some(t)),
                EnqueueOutcome::Dropped => (1, None),
                EnqueueOutcome::Lost => (2, None),
            };
            out.seen[outcome] += 1;
            expect.push(departs);
            match want {
                Offer::StartTx(ser) => {
                    assert_eq!(got, EnqueueOutcome::Departs(now + ser), "offer {i}");
                    *tx_done_at = Some(now + ser);
                }
                Offer::Queued => assert!(
                    matches!(got, EnqueueOutcome::Departs(_)),
                    "offer {i}: {got:?}"
                ),
                Offer::Dropped => assert_eq!(got, EnqueueOutcome::Dropped, "offer {i}"),
                Offer::Lost => assert_eq!(got, EnqueueOutcome::Lost, "offer {i}"),
            }
            assert_eq!(
                links.queue_len(l, now, ser),
                oracle.queue_len(),
                "depth after offer {i}"
            );
            out.taken += usize::from(!had_queue && links.states[l].queue().is_some());
            let held = links.states.iter().filter(|s| s.queue().is_some()).count();
            out.peak = out.peak.max(held);
        }
        // Queues are taken only at offers, so the slab is as large as the
        // most held at once: every other need was met from the free list.
        assert_eq!(links.queues.len(), out.peak, "queue slots");
        for (l, (oracle, tx_done_at)) in oracles.iter_mut().zip(&mut tx_done_at).enumerate() {
            // A later sample reads the depth without another offer.
            if let Some(t) = *tx_done_at {
                let mid = now + (t - now) / 2 + SimDuration::from_nanos(100);
                run_due(oracle, tx_done_at, &mut left_at, mid);
                assert_eq!(
                    links.queue_len(l, mid, ser),
                    oracle.queue_len(),
                    "depth at a later sample"
                );
            }
            run_due(oracle, tx_done_at, &mut left_at, SimTime::MAX);
            assert_eq!(links.queue_len(l, SimTime::MAX, ser), 0);
        }
        assert_eq!(expect, left_at, "departure instants");
        out
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

    /// Bursts of offers on sixteen links, each burst ending in a pause
    /// that drains them all: many links queue at once, give their slots
    /// back together, and later bursts queue in the slots earlier ones
    /// left, on other links.
    #[test]
    fn many_links_queue_and_drain_at_once_in_one_slab() {
        let mut rng = sv2p_simcore::SimRng::new(44);
        let tape: Vec<(u8, u16, u8, u8)> = (0..2_000)
            .map(|i| {
                let r = rng.next_u64_raw();
                let link = if i % 200 == 199 { 255 } else { r as u8 % 16 };
                (link, (r >> 8) as u16 % 24, (r >> 24) as u8, (r >> 32) as u8)
            })
            .collect();
        let out = check_links_against_oracles(16, 10_000_000_000, 4_000, 0.05, &tape);
        assert!(out.seen.iter().all(|&n| n >= 10), "{:?}", out.seen);
        assert!(out.peak >= 8, "{} queues at once", out.peak);
        assert!(out.taken >= 10 * out.peak, "{} slots taken", out.taken);
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
        fn links_sharing_a_queue_slab_match_their_oracles(
            tape in proptest::collection::vec(
                (any::<u8>(), 0u16..48, any::<u8>(), any::<u8>()),
                1..600,
            ),
            n in 2usize..17,
            small in any::<bool>(),
            lossy in any::<bool>(),
        ) {
            let buffer = if small { 4_000 } else { 32 * 1024 * 1024 };
            let loss_rate = if lossy { 0.05 } else { 0.0 };
            check_links_against_oracles(n, 10_000_000_000, buffer, loss_rate, &tape);
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
