//! The event calendar: a two-level timing wheel (calendar queue) with
//! deterministic tie-breaking.
//!
//! Two events scheduled for the same instant pop in the order they were
//! pushed (FIFO), which makes whole simulations reproducible regardless of
//! calendar internals. The payload type is generic so unit tests can drive
//! the queue with plain integers while the network simulator uses its own
//! event enum.
//!
//! # Structure
//!
//! A binary heap pays `O(log n)` comparisons per operation, each moving a
//! full event payload. Simulation events are overwhelmingly near-future
//! (link serializations, per-hop delays) and dense — the fat-tree runs
//! execute about two events per simulated nanosecond — so the calendar
//! buckets by time at two granularities and compares almost nothing:
//!
//! * **lanes** — the open slot, i.e. the 128 ns the clock is in, as one
//!   FIFO per nanosecond (128 lanes and a 128-bit occupancy mask). Every
//!   event of a lane fires at the same instant, so a lane is ordered by
//!   `seq` alone: an event is filed behind every event with a smaller
//!   `seq`, which is a `push_back` whenever seqs arrive in order (always,
//!   on a calendar that assigns them itself) and a sorted insert
//!   otherwise. Pop takes the front of the lowest occupied lane; no two
//!   events are compared.
//! * **wheel** — 8192 slots of 128 ns (≈1 ms horizon), each an *unsorted*
//!   bucket, indexed by absolute slot number modulo the wheel size, with a
//!   bitmap for O(words) next-occupied-slot scans. Scheduling is O(1). A
//!   bucket hands its allocation back when it is opened, so the wheel's
//!   memory follows the events *pending*, not the events scheduled per
//!   rotation.
//! * **overflow** — a binary heap for the rare events beyond the horizon
//!   (RTO-scale timers, pre-scheduled flow starts). Each migrates into the
//!   wheel when the clock comes within one rotation of it.
//!
//! Pop drains the lanes; when they empty, the next occupied slot (or the
//! earliest overflow event's, whichever is sooner) is opened: overflow
//! events now within the horizon drop into the wheel and the slot's bucket
//! is dealt into the lanes. A slot is opened only when one of its events
//! is about to pop, so the open slot is always the one `now` is in and a
//! legal schedule (`at >= now`) can never land behind it.
//!
//! The old single-heap implementation survives as a `#[cfg(test)]` oracle;
//! equivalence proptests check the two produce identical `(time, seq,
//! payload)` pop sequences on random schedules, including same-timestamp
//! ties, far-future overflow events, externally assigned seqs arriving out
//! of order, windowed pops and extraction.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// An event stamped with its due time and a monotone sequence number.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Push order, used to break ties among simultaneous events.
    pub seq: u64,
    /// The caller's payload.
    pub payload: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// log2 of the slot width: 128 ns per slot, finer than any link delay in
/// the fat-tree configs (1 µs) so back-to-back hops land in distinct slots.
const SLOT_NS_SHIFT: u64 = 7;
/// Lanes of the open slot: one per nanosecond of a slot.
const LANES: usize = 1 << SLOT_NS_SHIFT;
/// log2 of the slot count: 8192 slots × 128 ns ≈ 1.05 ms horizon, wide
/// enough that only RTO-scale timers and pre-scheduled flow starts overflow.
const SLOT_BITS: u64 = 13;
/// Number of wheel slots (power of two so modulo is a mask).
const NSLOTS: u64 = 1 << SLOT_BITS;
/// Ring-index mask.
const SLOT_MASK: u64 = NSLOTS - 1;
/// Bitmap words covering the wheel.
const BITMAP_WORDS: usize = (NSLOTS / 64) as usize;

/// A deterministic discrete-event calendar.
///
/// Invariants:
/// * events pop in nondecreasing time order;
/// * among equal times, in push (FIFO) order;
/// * scheduling in the past is a logic error and panics in debug builds
///   (in release it clamps to "now", which keeps long batch sweeps alive).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The open slot — the one `now` is in — as one FIFO per nanosecond;
    /// lane = time mod 128, each lane sorted by `seq`.
    lanes: Box<[VecDeque<ScheduledEvent<E>>; LANES]>,
    /// One bit per lane: non-empty.
    lane_bits: u128,
    /// Events in the lanes.
    open_len: usize,
    /// Unsorted near-future buckets; index = absolute slot & `SLOT_MASK`.
    slots: Vec<Vec<ScheduledEvent<E>>>,
    /// One bit per wheel slot: bucket non-empty.
    occupied: [u64; BITMAP_WORDS],
    /// Events at least one rotation ahead of the open slot.
    overflow: BinaryHeap<ScheduledEvent<E>>,
    /// Pending events across lanes + wheel + overflow.
    pending: usize,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar positioned at t = 0.
    pub fn new() -> Self {
        EventQueue {
            lanes: Box::new(std::array::from_fn(|_| VecDeque::new())),
            lane_bits: 0,
            open_len: 0,
            slots: (0..NSLOTS).map(|_| Vec::new()).collect(),
            occupied: [0u64; BITMAP_WORDS],
            overflow: BinaryHeap::new(),
            pending: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            peak_len: 0,
        }
    }

    /// The current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.popped
    }

    /// Largest number of simultaneously pending events seen so far (the
    /// calendar's memory high-water mark, reported by run manifests).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Where the pending events currently sit: `(ready, wheel, overflow)`.
    /// `ready` is the open slot's lanes, `wheel` everything parked in an
    /// unsorted bucket, `overflow` the one heap (the only `O(log n)`
    /// structure). The profiler samples this to histogram calendar
    /// occupancy — a growing overflow share would mean the wheel horizon
    /// no longer fits the workload's timer spread.
    pub fn occupancy_breakdown(&self) -> (usize, usize, usize) {
        let overflow = self.overflow.len();
        (self.open_len, self.pending - self.open_len - overflow, overflow)
    }

    /// Bytes of event storage the calendar holds right now, counted by
    /// capacity: the lanes, every wheel bucket and the overflow heap, plus
    /// the fixed tables that index them.
    pub fn resident_bytes(&self) -> usize {
        let events = self.lanes.iter().map(VecDeque::capacity).sum::<usize>()
            + self.slots.iter().map(Vec::capacity).sum::<usize>()
            + self.overflow.capacity();
        events * std::mem::size_of::<ScheduledEvent<E>>()
            + std::mem::size_of_val(&*self.lanes)
            + self.slots.capacity() * std::mem::size_of::<Vec<ScheduledEvent<E>>>()
            + std::mem::size_of::<Self>()
    }

    #[inline]
    fn slot_of(t: SimTime) -> u64 {
        t.as_nanos() >> SLOT_NS_SHIFT
    }

    #[inline]
    fn bit_is_set(&self, ring: usize) -> bool {
        self.occupied[ring / 64] & (1u64 << (ring % 64)) != 0
    }

    #[inline]
    fn set_bit(&mut self, ring: usize) {
        self.occupied[ring / 64] |= 1u64 << (ring % 64);
    }

    #[inline]
    fn clear_bit(&mut self, ring: usize) {
        self.occupied[ring / 64] &= !(1u64 << (ring % 64));
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// Returns the sequence number, which uniquely identifies the scheduling
    /// (timers use it for lazy cancellation).
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_at_seq(at, seq, payload);
        seq
    }

    /// Schedules `payload` after a delay from the current time.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, payload: E) -> u64 {
        self.schedule_at(self.now + delay, payload)
    }

    /// Consumes and returns the next sequence number without scheduling
    /// anything. The sharded engine uses this to mirror the single-threaded
    /// calendar's sequence stream for events that a shard already executed
    /// locally (they never enter this queue, but they did consume a
    /// sequence number in the reference execution).
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Consumes `n` consecutive sequence numbers and returns the first.
    /// The sharded driver grants these blocks to shards whose events
    /// scheduled children during a window, reproducing the single-threaded
    /// calendar's per-event consecutive seq assignment.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let base = self.next_seq;
        self.next_seq += n;
        base
    }

    /// Schedules `payload` at `at` under an externally-assigned sequence
    /// number, leaving this queue's own seq counter untouched. Shard-local
    /// calendars are fed exclusively through this: real seqs come from the
    /// driver's global counter, provisional seqs carry a high tag bit so
    /// they order after every real seq at the same instant (a child
    /// scheduled mid-window always has a larger global seq than anything
    /// scheduled before the window opened).
    pub fn schedule_at_seq(&mut self, at: SimTime, seq: u64, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < now {:?}",
            self.now
        );
        let ev = ScheduledEvent {
            time: at.max(self.now),
            seq,
            payload,
        };
        // `time >= now`, so the event's slot is never behind the open one.
        let open = Self::slot_of(self.now);
        let slot = Self::slot_of(ev.time);
        if slot == open {
            self.file(ev);
        } else if slot - open < NSLOTS {
            self.put_in_wheel(slot, ev);
        } else {
            self.overflow.push(ev);
        }
        self.pending += 1;
        self.peak_len = self.peak_len.max(self.pending);
    }

    /// Files an event of the open slot in its nanosecond's lane, behind
    /// every event with a smaller seq.
    #[inline]
    fn file(&mut self, ev: ScheduledEvent<E>) {
        let i = ev.time.as_nanos() as usize % LANES;
        let lane = &mut self.lanes[i];
        match lane.back() {
            Some(last) if last.seq > ev.seq => {
                let at = lane.partition_point(|e| e.seq < ev.seq);
                lane.insert(at, ev);
            }
            _ => lane.push_back(ev),
        }
        self.lane_bits |= 1 << i;
        self.open_len += 1;
    }

    #[inline]
    fn put_in_wheel(&mut self, slot: u64, ev: ScheduledEvent<E>) {
        let ring = (slot & SLOT_MASK) as usize;
        self.slots[ring].push(ev);
        self.set_bit(ring);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.lane_bits == 0 {
            let target = self.next_slot()?;
            self.open(target);
        }
        Some(self.take_front())
    }

    /// Pops the next event only if its `(time, seq)` key is strictly below
    /// the boundary `(bt, bseq)`; otherwise leaves the calendar untouched
    /// and returns `None`. This is the conservative-PDES window pop: a
    /// shard drains everything before the boundary, then parks.
    pub fn pop_before(&mut self, bt: SimTime, bseq: u64) -> Option<ScheduledEvent<E>> {
        if self.lane_bits == 0 {
            // Open the next slot only if one of its events pops right now:
            // parking with a slot open past `now` would put later, legal
            // schedules behind it.
            let target = self.next_slot()?;
            let boundary = Self::slot_of(bt);
            if target > boundary || (target == boundary && self.peek_key()? >= (bt, bseq)) {
                return None;
            }
            self.open(target);
        }
        let front = self.front();
        ((front.time, front.seq) < (bt, bseq)).then(|| self.take_front())
    }

    /// The lowest occupied lane. Precondition: the lanes are not empty.
    #[inline]
    fn front_lane(&self) -> usize {
        self.lane_bits.trailing_zeros() as usize % LANES
    }

    /// The earliest event of the open slot. Precondition: lanes not empty.
    #[inline]
    fn front(&self) -> &ScheduledEvent<E> {
        self.lanes[self.front_lane()]
            .front()
            .expect("lane bit set on an empty lane")
    }

    /// Removes the earliest event of the open slot and moves the clock to
    /// it. Precondition: lanes not empty.
    #[inline]
    fn take_front(&mut self) -> ScheduledEvent<E> {
        let i = self.front_lane();
        let lane = &mut self.lanes[i];
        let ev = lane.pop_front().expect("lane bit set on an empty lane");
        if lane.is_empty() {
            self.lane_bits &= !(1 << i);
        }
        debug_assert!(ev.time >= self.now, "calendar produced an out-of-order event");
        self.open_len -= 1;
        self.pending -= 1;
        self.now = ev.time;
        self.popped += 1;
        ev
    }

    /// The absolute slot of the earliest event outside the open slot (wheel
    /// or overflow), if there is one.
    fn next_slot(&self) -> Option<u64> {
        let wheel = self.next_occupied_after(Self::slot_of(self.now));
        let over = self.overflow.peek().map(|e| Self::slot_of(e.time));
        wheel.into_iter().chain(over).min()
    }

    /// Opens slot `target` — the earliest one holding events — by dealing
    /// its bucket, plus any overflow events coming within a rotation, into
    /// the lanes. Precondition: lanes empty; the caller pops from the slot
    /// at once, which moves `now` into it.
    fn open(&mut self, target: u64) {
        // Overflow events now within one rotation drop into the wheel (or
        // straight into the lanes, for the slot being opened).
        while let Some(top) = self.overflow.peek() {
            let slot = Self::slot_of(top.time);
            if slot >= target + NSLOTS {
                break;
            }
            let ev = self.overflow.pop().expect("peeked");
            if slot == target {
                self.file(ev);
            } else {
                self.put_in_wheel(slot, ev);
            }
        }
        let ring = (target & SLOT_MASK) as usize;
        if self.bit_is_set(ring) {
            self.clear_bit(ring);
            // The bucket's allocation is dropped with it: kept "for reuse"
            // it would sit idle for a whole rotation, and every bucket a
            // run touches would stay as large as its busiest visit.
            for ev in std::mem::take(&mut self.slots[ring]) {
                self.file(ev);
            }
        }
        debug_assert!(self.lane_bits != 0, "opened an empty slot");
    }

    /// The next occupied wheel slot strictly after `cur`, as an absolute
    /// slot number. The open slot's own bit is always clear (its bucket
    /// lives in the lanes), so a full circular scan is safe.
    fn next_occupied_after(&self, cur: u64) -> Option<u64> {
        let cur_ring = (cur & SLOT_MASK) as usize;
        let ring = self
            .scan_bits(cur_ring + 1, NSLOTS as usize)
            .or_else(|| self.scan_bits(0, cur_ring))?;
        let dist = if ring > cur_ring {
            (ring - cur_ring) as u64
        } else {
            ring as u64 + NSLOTS - cur_ring as u64
        };
        Some(cur + dist)
    }

    /// First set bit with ring index in `[lo, hi)`.
    fn scan_bits(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let mut w = lo / 64;
        let last_w = (hi - 1) / 64;
        let mut word = self.occupied[w] & (!0u64 << (lo % 64));
        loop {
            if w == last_w {
                let keep = hi - w * 64; // 1..=64
                if keep < 64 {
                    word &= (1u64 << keep) - 1;
                }
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            if w == last_w {
                return None;
            }
            w += 1;
            word = self.occupied[w];
        }
    }

    /// The timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(t, _)| t)
    }

    /// The `(time, seq)` key of the next pending event without popping it.
    /// The sharded driver peeks its global calendar through this to decide
    /// whether a window's boundary is a global event or pure lookahead.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        if self.lane_bits != 0 {
            let e = self.front();
            return Some((e.time, e.seq));
        }
        // Earliest of the next wheel bucket (unsorted: scan it) and the
        // overflow heap's top, which may share that bucket's slot.
        let wheel = self
            .next_occupied_after(Self::slot_of(self.now))
            .and_then(|w| {
                self.slots[(w & SLOT_MASK) as usize]
                    .iter()
                    .map(|e| (e.time, e.seq))
                    .min()
            });
        let over = self.overflow.peek().map(|e| (e.time, e.seq));
        wheel.into_iter().chain(over).min()
    }

    /// Removes and returns every pending event whose payload matches
    /// `pred`, sorted by `(time, seq)`; non-matching events stay exactly
    /// where they were. O(pending + wheel slots) — used only at migration
    /// boundaries, where a VM's not-yet-due flow events move to the flow's
    /// new owner shard with their global keys intact.
    pub fn extract_if(&mut self, mut pred: impl FnMut(&E) -> bool) -> Vec<ScheduledEvent<E>> {
        let mut out = Vec::new();
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            for ev in std::mem::take(lane) {
                if pred(&ev.payload) {
                    out.push(ev);
                } else {
                    lane.push_back(ev);
                }
            }
            if lane.is_empty() {
                self.lane_bits &= !(1 << i);
            }
        }
        for ring in 0..NSLOTS as usize {
            if !self.bit_is_set(ring) {
                continue;
            }
            let bucket = &mut self.slots[ring];
            let mut i = 0;
            while i < bucket.len() {
                if pred(&bucket[i].payload) {
                    out.push(bucket.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            if bucket.is_empty() {
                self.clear_bit(ring);
            }
        }
        let mut keep = BinaryHeap::with_capacity(self.overflow.len());
        for ev in std::mem::take(&mut self.overflow) {
            if pred(&ev.payload) {
                out.push(ev);
            } else {
                keep.push(ev);
            }
        }
        self.overflow = keep;
        self.pending -= out.len();
        self.open_len = self.lanes.iter().map(VecDeque::len).sum();
        out.sort_by_key(|a| (a.time, a.seq));
        out
    }
}

/// The original single-binary-heap calendar, kept as a test oracle: the
/// timing wheel must reproduce its pop order event-for-event.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Reference implementation with the same scheduling semantics.
    #[derive(Debug, Default)]
    pub struct HeapQueue<E> {
        heap: BinaryHeap<ScheduledEvent<E>>,
        next_seq: u64,
        now: SimTime,
    }

    impl<E> HeapQueue<E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: SimTime::ZERO,
            }
        }

        pub fn schedule_at(&mut self, at: SimTime, payload: E) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.schedule_at_seq(at, seq, payload);
            seq
        }

        pub fn schedule_at_seq(&mut self, at: SimTime, seq: u64, payload: E) {
            self.heap.push(ScheduledEvent {
                time: at.max(self.now),
                seq,
                payload,
            });
        }

        pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
            let ev = self.heap.pop()?;
            self.now = ev.time;
            Some(ev)
        }

        pub fn pop_before(&mut self, bt: SimTime, bseq: u64) -> Option<ScheduledEvent<E>> {
            if self.peek_key()? < (bt, bseq) {
                self.pop()
            } else {
                None
            }
        }

        pub fn extract_if(&mut self, mut pred: impl FnMut(&E) -> bool) -> Vec<ScheduledEvent<E>> {
            let (mut out, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.heap)
                .into_iter()
                .partition(|e| pred(&e.payload));
            self.heap = keep.into();
            out.sort_by_key(|e| (e.time, e.seq));
            out
        }

        pub fn peek_key(&self) -> Option<(SimTime, u64)> {
            self.heap.peek().map(|e| (e.time, e.seq))
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.peek_key().map(|(t, _)| t)
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn now(&self) -> SimTime {
            self.now
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::HeapQueue;
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), "c");
        q.schedule_at(SimTime::from_nanos(10), "a");
        q.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_nanos(30));
        assert_eq!(q.events_executed(), 3);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(100), 0);
        q.pop();
        q.schedule_in(SimDuration::from_nanos(50), 1);
        let e = q.pop().unwrap();
        assert_eq!(e.time, SimTime::from_nanos(150));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(40), 4);
        assert_eq!(q.pop().unwrap().payload, 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        q.schedule_at(SimTime::from_nanos(30), 3);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(rest, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(100), ());
        q.pop();
        q.schedule_at(SimTime::from_nanos(50), ());
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        q.schedule_at(SimTime::from_nanos(30), 3);
        assert_eq!(q.peak_len(), 3);
        q.pop();
        q.pop();
        q.schedule_at(SimTime::from_nanos(40), 4);
        // Draining below the peak must not lower it.
        assert_eq!(q.peak_len(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn occupancy_breakdown_partitions_pending() {
        let mut q = EventQueue::new();
        assert_eq!(q.occupancy_breakdown(), (0, 0, 0));
        q.schedule_at(SimTime::from_nanos(10), 1); // slot 0: straight to a lane
        q.schedule_at(SimTime::from_nanos(500_000), 2); // within horizon: wheel
        q.schedule_at(SimTime::from_millis(50), 3); // beyond horizon: overflow
        let (ready, wheel, overflow) = q.occupancy_breakdown();
        assert_eq!(ready + wheel + overflow, q.len());
        assert_eq!(overflow, 1);
        assert_eq!(ready, 1);
        assert_eq!(wheel, 1);
        q.pop();
        q.pop();
        q.pop();
        assert_eq!(q.occupancy_breakdown(), (0, 0, 0));
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn events_beyond_the_wheel_horizon_pop_in_order() {
        // > 1 ms deltas force the overflow path; interleave with near events.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(50), "far");
        q.schedule_at(SimTime::from_nanos(10), "near");
        q.schedule_at(SimTime::from_millis(3), "mid");
        q.schedule_at(SimTime::from_millis(50), "far2"); // same-time tie
        assert_eq!(q.pop().unwrap().payload, "near");
        q.schedule_at(SimTime::from_millis(2), "mid0");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["mid0", "mid", "far", "far2"]);
        assert_eq!(q.now(), SimTime::from_millis(50));
    }

    #[test]
    fn wheel_wraps_across_many_rotations() {
        // March the cursor across >> NSLOTS slots with a sparse event train.
        let mut q = EventQueue::new();
        let step = SimDuration::from_nanos(900_000); // ~0.9 ms, near-horizon
        let mut expect = Vec::new();
        q.schedule_at(SimTime::ZERO, 0u32);
        for i in 1..40 {
            let at = SimTime::from_nanos(i as u64 * step.as_nanos());
            q.schedule_at(at, i);
        }
        for i in 0..40u32 {
            expect.push(i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn reserve_seqs_grants_consecutive_blocks() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.reserve_seqs(3), 0);
        assert_eq!(q.reserve_seq(), 3);
        assert_eq!(q.reserve_seqs(2), 4);
        assert_eq!(q.schedule_at(SimTime::from_nanos(1), ()), 6);
    }

    #[test]
    fn explicit_seqs_control_tie_order() {
        // Inserts carry externally-assigned seqs; FIFO ties follow the seq,
        // not insertion order, and the queue's own counter is untouched.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(64);
        q.schedule_at_seq(t, 7, "late");
        q.schedule_at_seq(t, 2, "early");
        q.schedule_at_seq(SimTime::from_millis(40), 1, "far"); // overflow path
        assert_eq!(q.pop().unwrap().payload, "early");
        assert_eq!(q.pop().unwrap().payload, "late");
        assert_eq!(q.pop().unwrap().payload, "far");
        assert_eq!(q.schedule_at(SimTime::from_millis(41), "auto"), 0);
    }

    #[test]
    fn provisional_tag_orders_after_real_seqs() {
        const PROV: u64 = 1 << 63;
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        q.schedule_at_seq(t, PROV, "child0");
        q.schedule_at_seq(t, 40, "real");
        q.schedule_at_seq(t, PROV | 1, "child1");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["real", "child0", "child1"]);
    }

    #[test]
    fn pop_before_respects_time_and_seq_boundary() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), "a"); // seq 0
        q.schedule_at(SimTime::from_nanos(20), "b"); // seq 1
        q.schedule_at(SimTime::from_nanos(20), "c"); // seq 2
        q.schedule_at(SimTime::from_nanos(30), "d"); // seq 3
        // Boundary at (20, seq 2): "a" and "b" drain, "c" parks.
        assert_eq!(q.pop_before(SimTime::from_nanos(20), 2).unwrap().payload, "a");
        assert_eq!(q.pop_before(SimTime::from_nanos(20), 2).unwrap().payload, "b");
        assert!(q.pop_before(SimTime::from_nanos(20), 2).is_none());
        // Next window picks "c" and "d" up where they were left.
        assert_eq!(q.pop_before(SimTime::from_nanos(100), 0).unwrap().payload, "c");
        assert_eq!(q.pop_before(SimTime::from_nanos(100), 0).unwrap().payload, "d");
        assert!(q.pop_before(SimTime::from_nanos(100), 0).is_none());
        assert_eq!(q.events_executed(), 4);
    }

    #[test]
    fn pop_before_leaves_cursor_safe_for_boundary_inserts() {
        // The only pending event is far past the boundary: pop_before must
        // not advance the cursor to it, so a later insert *at* the boundary
        // still lands on a slot >= cursor.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(500), "far");
        let bt = SimTime::from_micros(10);
        assert!(q.pop_before(bt, 0).is_none());
        q.schedule_at_seq(bt, 100, "boundary");
        assert_eq!(q.pop_before(SimTime::from_micros(600), 0).unwrap().payload, "boundary");
        assert_eq!(q.pop_before(SimTime::from_micros(600), 0).unwrap().payload, "far");
    }

    #[test]
    fn pop_before_drains_wheel_and_overflow_up_to_boundary() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(5), 0u32);
        q.schedule_at(SimTime::from_micros(300), 1); // wheel
        q.schedule_at(SimTime::from_millis(20), 2); // overflow
        let bt = SimTime::from_millis(30);
        let mut got = Vec::new();
        while let Some(e) = q.pop_before(bt, 0) {
            got.push(e.payload);
        }
        assert_eq!(got, vec![0, 1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_key_agrees_with_pop_everywhere() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(12), ());
        q.schedule_at(SimTime::from_nanos(12), ());
        q.schedule_at(SimTime::from_micros(200), ());
        q.schedule_at(SimTime::from_millis(90), ());
        while let Some(key) = q.peek_key() {
            let e = q.pop().unwrap();
            assert_eq!(key, (e.time, e.seq));
        }
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn extract_if_pulls_matches_from_every_structure() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(3), 10u32); // ready
        q.schedule_at(SimTime::from_nanos(7), 21); // ready, odd
        q.schedule_at(SimTime::from_micros(400), 11); // wheel, odd
        q.schedule_at(SimTime::from_micros(420), 12); // wheel
        q.schedule_at(SimTime::from_millis(50), 13); // overflow, odd
        let odd = q.extract_if(|p| p % 2 == 1);
        let keys: Vec<_> = odd.iter().map(|e| e.payload).collect();
        assert_eq!(keys, vec![21, 11, 13]); // sorted by (time, seq)
        assert_eq!(q.len(), 2);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(rest, vec![10, 12]);
        // Re-inserting under the original keys restores global order.
        let mut q2 = EventQueue::new();
        for e in odd {
            q2.schedule_at_seq(e.time, e.seq, e.payload);
        }
        let back: Vec<_> = std::iter::from_fn(|| q2.pop().map(|e| e.payload)).collect();
        assert_eq!(back, vec![21, 11, 13]);
    }

    #[test]
    fn schedule_after_a_parked_pop_before_keeps_the_clock_monotone() {
        // The window parks at 900 ns with the next event in a later slot;
        // a schedule between `now` and that event is legal and must pop
        // first. (Opening the 1000 ns slot while parking used to put the
        // 500 ns schedule "behind the cursor": a debug assertion, and in
        // release an event filed a rotation late that popped after 1000.)
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), "a");
        q.schedule_at(SimTime::from_nanos(1000), "c");
        let bt = SimTime::from_nanos(900);
        assert_eq!(q.pop_before(bt, 0).unwrap().payload, "a");
        assert!(q.pop_before(bt, 0).is_none());
        q.schedule_at(SimTime::from_nanos(500), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(500)));
        let mut last = q.now();
        let mut order = Vec::new();
        while let Some(e) = q.pop() {
            assert!(e.time >= last, "clock ran backwards: {:?} after {last:?}", e.time);
            last = e.time;
            order.push(e.payload);
        }
        assert_eq!(order, vec!["b", "c"]);
        assert_eq!(q.now(), SimTime::from_nanos(1000));
    }

    #[test]
    fn pop_before_parks_inside_the_boundary_slot_without_opening_it() {
        // Boundary and next event share a slot, the event at or past the
        // boundary: the slot stays closed, so a schedule below it is fine.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(1000), 1u32); // seq 0
        assert!(q.pop_before(SimTime::from_nanos(1000), 0).is_none());
        assert!(q.pop_before(SimTime::from_nanos(990), 7).is_none());
        assert_eq!(q.occupancy_breakdown(), (0, 1, 0));
        q.schedule_at(SimTime::from_nanos(300), 0);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn a_drained_bucket_gives_its_memory_back() {
        // An ft8-shaped load — 2 000 pending events, each pop scheduling a
        // successor about one link delay ahead, so ~250 events per slot —
        // run over two wheel rotations: every one of the 8192 buckets is
        // filled and drained twice. Storage must follow the events
        // pending, not the millions scheduled.
        const PENDING: u64 = 2_000;
        let mut q = EventQueue::new();
        let fixed = q.resident_bytes();
        for i in 0..PENDING {
            q.schedule_at(SimTime::from_nanos(i * 2), i);
        }
        let horizon = SimTime::from_nanos(2 * (NSLOTS << SLOT_NS_SHIFT));
        while q.now() < horizon {
            let e = q.pop().expect("every pop schedules a successor");
            let hop = 1_000 + e.payload % 85;
            q.schedule_at(SimTime::from_nanos(e.time.as_nanos() + hop), e.payload);
        }
        assert!(q.events_executed() > 1_000_000);
        assert_eq!(q.peak_len() as u64, PENDING);
        let per_event = std::mem::size_of::<ScheduledEvent<u64>>();
        let held = q.resident_bytes() - fixed;
        assert!(
            held <= 4 * q.peak_len() * per_event,
            "calendar holds {held} B for a peak of {} events of {per_event} B",
            q.peak_len()
        );
        // ... and an idle calendar holds only its lanes' few entries.
        while q.pop().is_some() {}
        assert!(q.resident_bytes() - fixed <= 4 * q.peak_len() * per_event);
    }

    /// Replays one op tape against both calendars and compares every
    /// observable: peek, pop sequence (time, seq, payload), now.
    fn check_equivalence(ops: &[(u16, u8)]) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut next_payload = 0u32;
        for &(offset, op) in ops {
            if op % 4 == 0 {
                // Pop from both; compare the full event identity.
                let a = wheel.pop();
                let b = heap.pop();
                match (a, b) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
                        assert_eq!(wheel.now(), heap.now());
                    }
                    (a, b) => panic!("pop divergence: {a:?} vs {b:?}"),
                }
            } else {
                // Shifted offsets reach from same-slot ties (shift 0) to far
                // past the wheel horizon (65535 << 11 ≈ 134 ms).
                let delta = (offset as u64) << (op % 12);
                let at = SimTime::from_nanos(wheel.now().as_nanos() + delta);
                let sa = wheel.schedule_at(at, next_payload);
                let sb = heap.schedule_at(at, next_payload);
                assert_eq!(sa, sb);
                next_payload += 1;
            }
            assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        // Drain both to the end.
        loop {
            match (wheel.pop(), heap.pop()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload))
                }
                (a, b) => panic!("drain divergence: {a:?} vs {b:?}"),
            }
        }
    }

    /// The shard-lane tape: both calendars are fed through
    /// `schedule_at_seq` with real seqs in shuffled order and provisional
    /// (`1 << 63`-tagged) ones, drained through `pop_before` windows that
    /// park mid-slot, and have events extracted and re-inserted under
    /// their keys — everything the `push_back` fast path must not assume.
    fn check_external_seq_equivalence(ops: &[(u16, u8, u16)]) {
        const PROV: u64 = 1 << 63;
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let (mut n_real, mut n_prov, mut payload) = (0u64, 0u64, 0u32);
        let mut last = SimTime::ZERO;
        for &(offset, op, r) in ops {
            // A third of the deltas are 0..4 ns (same-instant and same-lane
            // ties), a third stay within a few slots (windows that park
            // beside their next event), the rest reach past the wheel
            // horizon (65535 << 11 ≈ 134 ms).
            let delta = match r % 3 {
                0 => offset as u64 % 4,
                1 => offset as u64 % 1024,
                _ => (offset as u64) << (r / 3 % 12),
            };
            let at = SimTime::from_nanos(wheel.now().as_nanos() + delta);
            match op % 8 {
                0 => {
                    let (a, b) = (wheel.pop(), heap.pop());
                    assert_eq!(a.is_some(), b.is_some());
                    if let (Some(x), Some(y)) = (a, b) {
                        assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
                        assert!(x.time >= last, "clock ran backwards");
                        last = x.time;
                    }
                }
                1 => {
                    // A window up to `at`, parked on a real, a provisional
                    // or the zero seq.
                    let bseq = [0, r as u64, PROV | (r as u64 % 8)][r as usize % 3];
                    loop {
                        let (a, b) = (wheel.pop_before(at, bseq), heap.pop_before(at, bseq));
                        assert_eq!(a.is_some(), b.is_some());
                        let (Some(x), Some(y)) = (a, b) else { break };
                        assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
                        assert!(x.time >= last, "clock ran backwards");
                        last = x.time;
                    }
                }
                2 => {
                    let k = r as u32 % 5 + 2;
                    let a = wheel.extract_if(|p| p % k == 0);
                    let b = heap.extract_if(|p| p % k == 0);
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.into_iter().zip(b) {
                        assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
                        wheel.schedule_at_seq(x.time, x.seq, x.payload);
                        heap.schedule_at_seq(y.time, y.seq, y.payload);
                    }
                }
                3..=5 => {
                    // Real seqs, unique but out of order (an odd multiplier
                    // permutes the low 20 bits).
                    let seq = n_real.wrapping_mul(0x9_E375) & 0xF_FFFF;
                    n_real += 1;
                    wheel.schedule_at_seq(at, seq, payload);
                    heap.schedule_at_seq(at, seq, payload);
                    payload += 1;
                }
                _ => {
                    wheel.schedule_at_seq(at, PROV | n_prov, payload);
                    heap.schedule_at_seq(at, PROV | n_prov, payload);
                    n_prov += 1;
                    payload += 1;
                }
            }
            assert_eq!(wheel.peek_key(), heap.peek_key());
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.now(), heap.now());
            let (ready, parked, overflow) = wheel.occupancy_breakdown();
            assert_eq!(ready + parked + overflow, wheel.len());
        }
        loop {
            match (wheel.pop(), heap.pop()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload))
                }
                (a, b) => panic!("drain divergence: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn external_seq_equivalence_on_dense_ties() {
        // Every op kind in rotation on 0..4 ns deltas: sorted inserts into
        // occupied lanes, windows parking mid-lane, extraction from lanes.
        let ops: Vec<(u16, u8, u16)> = (0..600u16)
            .map(|i| (i % 7, (i % 8 + i / 8 % 3) as u8, (i % 5) * 3))
            .collect();
        check_external_seq_equivalence(&ops);
    }

    #[test]
    fn equivalence_on_dense_ties() {
        // Many zero and tiny offsets: every tie-breaking path.
        let ops: Vec<(u16, u8)> = (0..400)
            .map(|i| ((i % 3) as u16, (i % 7) as u8))
            .collect();
        check_equivalence(&ops);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn wheel_matches_heap_oracle(
            ops in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..300)
        ) {
            check_equivalence(&ops);
        }

        #[test]
        fn external_seqs_windows_and_extraction_match_heap_oracle(
            ops in proptest::collection::vec((any::<u16>(), any::<u8>(), any::<u16>()), 0..300)
        ) {
            check_external_seq_equivalence(&ops);
        }

        #[test]
        fn windowed_pop_before_is_plain_pop(
            times in proptest::collection::vec(0u64..4_000_000u64, 1..120),
            window in 1u64..700_000,
        ) {
            // Draining through successive pop_before boundaries must yield
            // the exact pop order of an unwindowed queue.
            let mut plain = EventQueue::new();
            let mut windowed = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                plain.schedule_at(SimTime::from_nanos(t), i);
                windowed.schedule_at(SimTime::from_nanos(t), i);
            }
            let expect: Vec<_> =
                std::iter::from_fn(|| plain.pop().map(|e| (e.time, e.seq, e.payload))).collect();
            let mut got = Vec::new();
            let mut bt = 0u64;
            while !windowed.is_empty() {
                bt += window;
                while let Some(e) = windowed.pop_before(SimTime::from_nanos(bt), 0) {
                    got.push((e.time, e.seq, e.payload));
                }
            }
            prop_assert_eq!(got, expect);
        }
    }
}
