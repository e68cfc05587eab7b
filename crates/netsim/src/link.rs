//! Store-and-forward links with drop-tail egress queues.
//!
//! Each directed link owns the egress queue of its sending port. A packet
//! occupies the transmitter for its serialization time and arrives at the
//! receiver one propagation delay after transmission completes — the classic
//! output-queued switch model NS3's point-to-point devices use.
//!
//! Links queue [`PacketRef`] handles, not packets: the packet body stays in
//! the simulation's [`crate::arena::PacketArena`]. The wire size is sampled
//! once at enqueue (it cannot change while queued — only node logic rewrites
//! headers, and a queued packet is owned by the link) and carried next to
//! the handle so serialization math never touches the arena.

use std::collections::VecDeque;

use sv2p_simcore::SimDuration;

use crate::arena::PacketRef;

/// Runtime state of one directed link.
#[derive(Debug)]
pub struct LinkState {
    /// Line rate, bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay.
    pub delay: SimDuration,
    /// Buffer limit in bytes (drop-tail beyond it).
    pub buffer_bytes: u64,
    /// Queued `(packet, wire bytes)` awaiting transmission (the head entry
    /// is the one on the wire).
    queue: VecDeque<(PacketRef, u32)>,
    /// Bytes currently queued.
    queued_bytes: u64,
    /// True while a packet is being serialized.
    busy: bool,
    /// The last `(wire bytes, serialization time)` worked out. A link is
    /// one direction of a cable, so it carries runs of one size — full
    /// data packets one way, ACKs the other — and the division repeats.
    /// Starts at the one answer known without dividing: 0 bytes, 0 ns.
    last_ser: (u32, SimDuration),
}

/// What [`LinkState::enqueue`] decided.
#[derive(Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// The link was idle: start transmitting now. Contains the serialization
    /// time; arrival fires after `ser + delay`, the transmitter frees after
    /// `ser`.
    StartTx(SimDuration),
    /// The packet joined the queue; transmission will start when the wire
    /// frees up.
    Queued,
    /// Buffer full; the packet was dropped (the caller frees it).
    Dropped,
    /// The packet was discarded by injected stochastic loss before reaching
    /// the queue (the caller frees it).
    Lost,
}

impl LinkState {
    /// A link with the given rate, delay and buffer.
    pub fn new(bandwidth_bps: u64, delay: SimDuration, buffer_bytes: u64) -> Self {
        LinkState {
            bandwidth_bps,
            delay,
            buffer_bytes,
            queue: VecDeque::new(),
            queued_bytes: 0,
            busy: false,
            last_ser: (0, SimDuration::ZERO),
        }
    }

    /// Serialization time of `wire_bytes` on this link.
    fn ser_time(&mut self, wire_bytes: u32) -> SimDuration {
        if self.last_ser.0 != wire_bytes {
            let ser = SimDuration::serialization(wire_bytes, self.bandwidth_bps);
            self.last_ser = (wire_bytes, ser);
        }
        self.last_ser.1
    }

    /// Offers a packet to the egress port, first exposing it to the link's
    /// injected loss (`loss_rate`, the sum of the active `LossRate` faults
    /// covering this link). `draw` is a uniform sample in `[0, 1)` from
    /// the link's dedicated fault RNG stream; a draw below the loss rate
    /// discards the packet before it reaches the queue (the
    /// corruption/loss point of a real wire).
    pub fn enqueue_with_loss(
        &mut self,
        pkt: PacketRef,
        wire_bytes: u32,
        loss_rate: f64,
        draw: f64,
    ) -> EnqueueOutcome {
        if draw < loss_rate {
            return EnqueueOutcome::Lost;
        }
        self.enqueue(pkt, wire_bytes)
    }

    /// Offers a packet to the egress port.
    pub fn enqueue(&mut self, pkt: PacketRef, wire_bytes: u32) -> EnqueueOutcome {
        if !self.busy {
            self.busy = true;
            let ser = self.ser_time(wire_bytes);
            // The in-flight packet sits at the head.
            self.queue.push_front((pkt, wire_bytes));
            EnqueueOutcome::StartTx(ser)
        } else if self.queued_bytes + wire_bytes as u64 <= self.buffer_bytes {
            self.queued_bytes += wire_bytes as u64;
            self.queue.push_back((pkt, wire_bytes));
            EnqueueOutcome::Queued
        } else {
            EnqueueOutcome::Dropped
        }
    }

    /// Transmission of the head packet finished: returns the transmitted
    /// packet (to schedule its arrival) and, if more are queued, the
    /// serialization time of the next one (to schedule the next tx-done).
    pub fn tx_done(&mut self) -> (PacketRef, Option<SimDuration>) {
        debug_assert!(self.busy, "tx_done on idle link");
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

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_packet::packet::MSS;

    /// Wire size of an MSS data packet with default tunnel options
    /// (60 bytes of headers).
    const MSS_WIRE: u32 = MSS + 60;

    fn link() -> LinkState {
        // 100G, 1us, room for exactly two MSS packets in the queue.
        LinkState::new(
            100_000_000_000,
            SimDuration::from_micros(1),
            2 * MSS_WIRE as u64,
        )
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut l = link();
        match l.enqueue(PacketRef(0), MSS_WIRE) {
            EnqueueOutcome::StartTx(ser) => {
                // 1060 B at 100G = 84.8 -> 85 ns.
                assert_eq!(ser.as_nanos(), 85);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn busy_link_queues_then_drops() {
        let mut l = link();
        assert!(matches!(
            l.enqueue(PacketRef(0), MSS_WIRE),
            EnqueueOutcome::StartTx(_)
        ));
        assert_eq!(l.enqueue(PacketRef(1), MSS_WIRE), EnqueueOutcome::Queued);
        assert_eq!(l.enqueue(PacketRef(2), MSS_WIRE), EnqueueOutcome::Queued);
        assert_eq!(l.enqueue(PacketRef(3), MSS_WIRE), EnqueueOutcome::Dropped);
        assert_eq!(l.queue_len(), 2);
    }

    #[test]
    fn tx_done_drains_fifo() {
        let mut l = link();
        l.enqueue(PacketRef(1), MSS_WIRE);
        l.enqueue(PacketRef(2), 100 + 60);
        let (sent, next) = l.tx_done();
        assert_eq!(sent, PacketRef(1));
        let ser_b = next.expect("second packet pending");
        // 160 B at 100G = 12.8 -> 13 ns.
        assert_eq!(ser_b.as_nanos(), 13);
        let (sent2, next2) = l.tx_done();
        assert_eq!(sent2, PacketRef(2));
        assert!(next2.is_none());
        // Link is idle again.
        assert!(matches!(
            l.enqueue(PacketRef(3), 61),
            EnqueueOutcome::StartTx(_)
        ));
    }

    #[test]
    fn serialization_times_stay_exact_across_size_changes() {
        // Runs of one size, switches between sizes and a return to an
        // earlier size all give the line-rate figure, on the idle-start
        // path and on the drain path.
        let mut l = link();
        for (i, wire) in [MSS_WIRE, MSS_WIRE, 60, 60, MSS_WIRE, 0, 61, 60].into_iter().enumerate() {
            let want = SimDuration::serialization(wire, l.bandwidth_bps);
            assert_eq!(l.enqueue(PacketRef(i as u32), wire), EnqueueOutcome::StartTx(want));
            assert_eq!(l.enqueue(PacketRef(100 + i as u32), wire), EnqueueOutcome::Queued);
            assert_eq!(l.tx_done().1, Some(want));
            assert_eq!(l.tx_done().1, None);
        }
    }

    #[test]
    fn injected_loss_discards_below_rate_only() {
        let mut l = link();
        // Healthy link: the draw is irrelevant.
        assert!(matches!(
            l.enqueue_with_loss(PacketRef(0), MSS_WIRE, 0.0, 0.0),
            EnqueueOutcome::StartTx(_)
        ));
        l.tx_done();
        assert_eq!(
            l.enqueue_with_loss(PacketRef(1), MSS_WIRE, 0.01, 0.005),
            EnqueueOutcome::Lost
        );
        assert!(matches!(
            l.enqueue_with_loss(PacketRef(2), MSS_WIRE, 0.01, 0.5),
            EnqueueOutcome::StartTx(_)
        ));
        // Loss drops never consume buffer space.
        assert_eq!(l.queue_len(), 0);
    }

    #[test]
    fn freed_buffer_accepts_again() {
        let mut l = link();
        l.enqueue(PacketRef(0), MSS_WIRE);
        l.enqueue(PacketRef(1), MSS_WIRE);
        l.enqueue(PacketRef(2), MSS_WIRE);
        assert_eq!(l.enqueue(PacketRef(3), MSS_WIRE), EnqueueOutcome::Dropped);
        l.tx_done(); // frees one queue slot
        assert_eq!(l.enqueue(PacketRef(4), MSS_WIRE), EnqueueOutcome::Queued);
    }
}
