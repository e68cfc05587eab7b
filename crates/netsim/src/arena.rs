//! Slab arena for in-flight packets.
//!
//! A `Packet` with its `TunnelOptions` is 120 bytes (asserted beside
//! `Packet`); before this arena existed the simulator moved that struct by
//! value through every event — a switch hop cost two full memcpys (into the
//! calendar, out of the calendar) plus another pair per link queue transit. The arena fixes a
//! packet in place for its whole life: events carry a 4-byte
//! [`PacketRef`] handle (a link holds nothing: a packet in its queue is
//! already an arrival event on the calendar), and only the node logic that
//! actually reads or rewrites headers touches the packet itself.
//!
//! Allocation is a free-list slab: slots are reused in LIFO order, so a
//! steady-state run touches a small, cache-hot region regardless of total
//! packet count. The arena never shrinks; `peak()` is the run's
//! maximum-in-flight packet count, reported by run manifests as an
//! allocations proxy (`peak_arena`).
//!
//! Discipline: every allocated handle has exactly one owner (an event in
//! the calendar or a slot in a gateway's queue) and must be passed to
//! [`PacketArena::free`] exactly once, at the packet's end of life
//! (delivery, drop, or consumption). Debug builds verify both directions
//! with a liveness bitmap.

use sv2p_packet::Packet;

/// Handle to a live packet in the [`PacketArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef(pub(crate) u32);

/// Fixed-address slab of in-flight packets with a LIFO free list.
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<Packet>,
    free: Vec<u32>,
    live: usize,
    peak: usize,
    #[cfg(debug_assertions)]
    alive: Vec<bool>,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `pkt` and returns its handle.
    pub fn alloc(&mut self, pkt: Packet) -> PacketRef {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = pkt;
                #[cfg(debug_assertions)]
                {
                    debug_assert!(!self.alive[i as usize], "reusing a live slot");
                    self.alive[i as usize] = true;
                }
                PacketRef(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("arena overflow");
                self.slots.push(pkt);
                #[cfg(debug_assertions)]
                self.alive.push(true);
                PacketRef(i)
            }
        }
    }

    /// Reads a live packet.
    #[inline]
    pub fn get(&self, h: PacketRef) -> &Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.alive[h.0 as usize], "read of a freed packet");
        &self.slots[h.0 as usize]
    }

    /// Mutates a live packet (header rewrites at switches and gateways).
    #[inline]
    pub fn get_mut(&mut self, h: PacketRef) -> &mut Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.alive[h.0 as usize], "write to a freed packet");
        &mut self.slots[h.0 as usize]
    }

    /// Releases a packet at its end of life (delivered, dropped, consumed).
    pub fn free(&mut self, h: PacketRef) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.alive[h.0 as usize], "double free");
            self.alive[h.0 as usize] = false;
        }
        self.live -= 1;
        self.free.push(h.0);
    }

    /// Packets currently in flight.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Maximum packets simultaneously in flight (allocations proxy in run
    /// manifests).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Resident bytes of the slots ever filled and the free list (what a
    /// packet holds behind a pointer of its own is not counted).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&*self.slots) + size_of_val(&*self.free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_packet::{InnerHeader, OuterHeader, PacketId, Pip, Vip};

    fn pkt(id: u64) -> Packet {
        Packet {
            id: PacketId(id),
            outer: OuterHeader {
                src_pip: Pip(1),
                dst_pip: Pip(2),
                resolved: true,
            },
            inner: InnerHeader {
                src_vip: Vip(1),
                dst_vip: Vip(2),
                src_port: 1,
                dst_port: 2,
                protocol: sv2p_packet::packet::Protocol::Udp,
                ..InnerHeader::default()
            },
            ..Packet::default()
        }
    }

    #[test]
    fn alloc_get_free_round_trips() {
        let mut a = PacketArena::new();
        let h1 = a.alloc(pkt(1));
        let h2 = a.alloc(pkt(2));
        assert_eq!(a.get(h1).id, PacketId(1));
        assert_eq!(a.get(h2).id, PacketId(2));
        a.get_mut(h1).switch_hops = 3;
        assert_eq!(a.get(h1).switch_hops, 3);
        assert_eq!(a.live(), 2);
        a.free(h1);
        assert_eq!(a.live(), 1);
    }

    #[test]
    fn slots_are_reused_and_peak_tracks_high_water() {
        let mut a = PacketArena::new();
        let h1 = a.alloc(pkt(1));
        let h2 = a.alloc(pkt(2));
        assert_eq!(a.peak(), 2);
        a.free(h1);
        a.free(h2);
        // LIFO reuse: the most recently freed slot comes back first.
        let h3 = a.alloc(pkt(3));
        assert_eq!(h3, h2);
        assert_eq!(a.peak(), 2, "peak must not drop");
        assert_eq!(a.live(), 1);
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)]
    fn double_free_panics_in_debug() {
        let mut a = PacketArena::new();
        let h = a.alloc(pkt(1));
        a.free(h);
        a.free(h);
    }
}
