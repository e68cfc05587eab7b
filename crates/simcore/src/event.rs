//! The event calendar: a hierarchical timing wheel with deterministic
//! tie-breaking.
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
//! (link serializations, per-hop delays: nine in ten fire within 1.1 µs)
//! and dense — the fat-tree runs execute about two events per simulated
//! nanosecond — so the calendar files an event once, where it will be
//! popped from, and compares almost nothing. Time is cut into *epochs* of
//! 4096 ns and an event goes to one of three levels by how many epochs
//! ahead of the clock it is due:
//!
//! * **near** — the epoch `now` is in and the next one: one slot per
//!   nanosecond (8192 slots, indexed by time modulo the slot count, with
//!   an occupancy bitmap), each an intrusive FIFO threaded through one
//!   node slab with a LIFO free list. Every event of a slot fires at the
//!   same instant, so a slot is ordered by `seq` alone: an event is linked
//!   behind every event with a smaller `seq`, which is an append whenever
//!   seqs arrive in order (always, on a calendar that assigns them itself)
//!   and a sorted walk from the head otherwise. Pop unlinks the head of
//!   the *front* slot, the first occupied one at or after `now`,
//!   circularly, which the calendar remembers: filing into an empty slot
//!   nearer `now` moves it, and a bitmap scan runs only when a pop empties
//!   it. No two events are compared, none is copied, and the slab stops
//!   growing once the near population has peaked. A node holds no time:
//!   the level spans exactly the 8192 ns from the start of `now`'s epoch,
//!   so a slot stands for one instant, recomputed from its index and the
//!   clock, and a node is a seq, a chain link and the payload.
//! * **far** — the 512 epochs after those (≈2.1 ms: gateway service
//!   times, retransmission timers), one plain *unsorted* `Vec` per epoch,
//!   indexed by epoch modulo 512. Scheduling is a push. An epoch's `Vec`
//!   is taken — allocation and all — and linked into the near level when a
//!   pop carries `now` into the epoch before it. Far events stay out of
//!   the slab on purpose: they wait epochs for their turn, and the slab
//!   never shrinks. A flow has one retransmission timer here, not one per
//!   ACK: a re-arm reserves its seq and files nothing until the filed
//!   event pops (`netsim::flows::LazyRto`).
//! * **overflow** — a binary heap for the rare events beyond that
//!   (long timers, pre-scheduled flow starts). Each moves into the far or
//!   near level when the clock enters an epoch within range of it.
//!
//! The clock places the levels: the near level always covers the epoch
//! `now` is in and the next, and `now` moves only when an event pops (the
//! front slot is a function of the clock and the bitmap, kept rather than
//! recomputed). When the near level is empty the next pop jumps to the
//! epoch of the earliest far or overflow event, and the first event that
//! jump links sets the front; a bounded pop ([`EventQueue::pop_before`])
//! whose bound that event is not below leaves everything where it is, the
//! front too, so a legal schedule (`at >= now`) can never land behind the
//! near level.
//!
//! [`EventQueue::peek_near`] hands a run loop the next event's payload
//! without popping it, so the loop can start loading what that event will
//! touch while the current one runs. It is a read of the front slot's
//! head, with no scan: nothing it returns can change what pops, or when.
//!
//! The old single-heap implementation survives as a `#[cfg(test)]` oracle;
//! equivalence proptests check the two produce identical `(time, seq,
//! payload)` pop sequences on random schedules, including same-timestamp
//! ties, far-future overflow events, externally assigned seqs arriving out
//! of order and bounded pops.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// log2 of the epoch width: 4096 ns, so a link-scale delay (a
/// serialization plus the 1 µs propagation) stays within the two epochs of
/// the near level and is filed exactly once.
const EPOCH_SHIFT: u32 = 12;
/// Near-level slots: one per nanosecond of two epochs (a power of two, so
/// the ring index is a mask).
const NEAR_SLOTS: usize = 2 << EPOCH_SHIFT;
/// Ring-index mask of the near level.
const NEAR_MASK: u64 = NEAR_SLOTS as u64 - 1;
/// Epochs of the far level: 512 × 4096 ns ≈ 2.1 ms, wide enough that only
/// long timers and pre-scheduled flow starts overflow.
const FAR_EPOCHS: u64 = 512;
/// "No node": an empty slot's head, the end of a chain or of the free list.
const NIL: u32 = u32::MAX;

/// The epoch an instant falls in.
#[inline]
fn epoch_of(t: SimTime) -> u64 {
    t.as_nanos() >> EPOCH_SHIFT
}

/// One slab entry: a pending near-level event in its slot's chain, or a
/// free entry in the free list (`payload` is `None`). It holds no time:
/// every event of a near slot is due at the one instant the slot stands
/// for ([`EventQueue::slot_time`]).
#[derive(Debug)]
struct Node<E> {
    seq: u64,
    /// The next node of the chain (or of the free list), or [`NIL`].
    next: u32,
    /// `Option` so a pop can move the payload out of a slab that keeps the
    /// entry; for an enum payload with a spare tag value it costs no bytes.
    payload: Option<E>,
}

/// The first set bit at or after bit `from`, circularly, of a bitmap of
/// `64 * bits.len()` bits.
#[inline]
fn first_set_from(bits: &[u64], from: usize) -> Option<usize> {
    let (w0, below) = (from / 64, !(!0u64 << (from % 64)));
    let hit = |w: usize, word: u64| (word != 0).then(|| w * 64 + word.trailing_zeros() as usize);
    // The starting word is looked at twice: from `from` up, then (after
    // every other word) the bits under it.
    hit(w0, bits[w0] & !below)
        .or_else(|| {
            (w0 + 1..w0 + bits.len()).find_map(|w| hit(w % bits.len(), bits[w % bits.len()]))
        })
        .or_else(|| hit(w0, bits[w0] & below))
}

/// A deterministic discrete-event calendar.
///
/// Invariants:
/// * events pop in nondecreasing time order;
/// * among equal times, in push (FIFO) order;
/// * while the near level holds events, `front` is its first occupied slot
///   at or after `now`'s, circularly: a pop takes its head without a scan,
///   and scans the bitmap from there only when the slot empties;
/// * scheduling in the past is a logic error and panics in debug builds
///   (in release it clamps to "now", which keeps long batch sweeps alive).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Near level: `(head, tail)` node of each nanosecond's FIFO, sorted by
    /// `seq`; index = time & `NEAR_MASK`; head [`NIL`] when empty (the tail
    /// is then stale).
    slots: Box<[(u32, u32); NEAR_SLOTS]>,
    /// One bit per near slot: chain non-empty.
    near_bits: [u64; NEAR_SLOTS / 64],
    /// The slab the near level's chains and the free list run through.
    nodes: Vec<Node<E>>,
    /// Head of the LIFO free list.
    free: u32,
    /// Events in the near level.
    near_len: usize,
    /// The front slot: while `near_len > 0`, the first occupied near slot
    /// at or after `now`'s, circularly — the slot the next pop takes from.
    /// A link closer to `now` in ring distance moves it; a scan runs only
    /// when a pop empties it.
    front: usize,
    /// Far level: the unsorted events of epochs `epoch(now) + 2 ..
    /// epoch(now) + 2 + FAR_EPOCHS`; index = epoch mod `FAR_EPOCHS`.
    far: Vec<Vec<ScheduledEvent<E>>>,
    /// One bit per far epoch: `Vec` non-empty.
    far_bits: [u64; FAR_EPOCHS as usize / 64],
    /// Events beyond the far level.
    overflow: BinaryHeap<ScheduledEvent<E>>,
    /// Pending events across near + far + overflow.
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
    /// Bytes one near-level event takes in the node slab: seq, link and
    /// payload (its time is its slot's). A user whose speed rests on it
    /// asserts it at compile time.
    pub const NODE_BYTES: usize = std::mem::size_of::<Node<E>>();

    /// Creates an empty calendar positioned at t = 0.
    pub fn new() -> Self {
        EventQueue {
            slots: vec![(NIL, NIL); NEAR_SLOTS]
                .into_boxed_slice()
                .try_into()
                .expect("NEAR_SLOTS entries"),
            near_bits: [0; NEAR_SLOTS / 64],
            nodes: Vec::new(),
            free: NIL,
            near_len: 0,
            front: 0,
            far: (0..FAR_EPOCHS).map(|_| Vec::new()).collect(),
            far_bits: [0; FAR_EPOCHS as usize / 64],
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

    /// Where the pending events currently sit: `(near, far, overflow)`.
    /// `near` is linked into its final per-nanosecond slot, `far` parked
    /// in an unsorted per-epoch `Vec`, `overflow` in the one heap (the only
    /// `O(log n)` structure). The profiler samples this to histogram
    /// calendar occupancy — a growing overflow share would mean the far
    /// level no longer spans the workload's timer spread.
    pub fn occupancy_breakdown(&self) -> (usize, usize, usize) {
        let overflow = self.overflow.len();
        (
            self.near_len,
            self.pending - self.near_len - overflow,
            overflow,
        )
    }

    /// Bytes of event storage the calendar holds right now, counted by
    /// capacity: the node slab, every far `Vec` and the overflow heap, plus
    /// the fixed tables that index them.
    pub fn resident_bytes(&self) -> usize {
        let parked = self.far.iter().map(Vec::capacity).sum::<usize>() + self.overflow.capacity();
        self.nodes.capacity() * Self::NODE_BYTES
            + parked * std::mem::size_of::<ScheduledEvent<E>>()
            + std::mem::size_of_val(&*self.slots)
            + self.far.capacity() * std::mem::size_of::<Vec<ScheduledEvent<E>>>()
            + std::mem::size_of::<Self>()
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// Returns the sequence number, which uniquely identifies the scheduling
    /// (timers use it for lazy cancellation). The seq is larger than every
    /// one this calendar has handed out, so a near-level event goes behind
    /// its slot's tail without a look at it.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule(at, seq, payload, true);
        seq
    }

    /// Schedules `payload` after a delay from the current time.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, payload: E) -> u64 {
        self.schedule_at(self.now + delay, payload)
    }

    /// Consumes and returns the next sequence number without scheduling
    /// anything: the caller files the event later with
    /// [`Self::schedule_at_seq`], where it sorts as if scheduled now. A
    /// re-armed retransmission timer takes its seq this way and is filed
    /// under it only when its earlier filing pops; the sharded engine
    /// takes a cut-crossing packet's seq when the link accepts the packet,
    /// and files its arrival once the handler has returned.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` at `at` under an externally-assigned sequence
    /// number, leaving this queue's own seq counter untouched. The seq may
    /// be smaller than ones already filed for the same instant (a reserved
    /// seq filed late); the event still pops in `seq` order among them.
    pub fn schedule_at_seq(&mut self, at: SimTime, seq: u64, payload: E) {
        self.schedule(at, seq, payload, false);
    }

    /// Files `payload` at `at` under `seq`; `newest` says the seq exceeds
    /// every seq filed (see [`Self::link`]).
    #[inline]
    fn schedule(&mut self, at: SimTime, seq: u64, payload: E, newest: bool) {
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
        self.file(ev, newest);
        self.pending += 1;
        self.peak_len = self.peak_len.max(self.pending);
    }

    /// Files an event in the level its distance from `now` selects.
    /// `time >= now`, so its epoch is never behind the near level.
    #[inline]
    fn file(&mut self, ev: ScheduledEvent<E>, newest: bool) {
        let epoch = epoch_of(ev.time);
        let ahead = epoch - epoch_of(self.now);
        if ahead < 2 {
            self.link(ev, newest);
        } else if ahead < 2 + FAR_EPOCHS {
            let i = (epoch % FAR_EPOCHS) as usize;
            self.far[i].push(ev);
            self.far_bits[i / 64] |= 1 << (i % 64);
        } else {
            self.overflow.push(ev);
        }
    }

    /// Links a near-level event into its nanosecond's chain, behind every
    /// event with a smaller seq: `newest`, its seq exceeds every seq
    /// filed, so it goes behind the tail without a look at it.
    #[inline]
    fn link(&mut self, ev: ScheduledEvent<E>, newest: bool) {
        let s = (ev.time.as_nanos() & NEAR_MASK) as usize;
        let seq = ev.seq;
        let node = Node {
            seq,
            next: NIL,
            payload: Some(ev.payload),
        };
        let i = match self.free {
            NIL => {
                assert!(self.nodes.len() < NIL as usize, "calendar slab overflow");
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            }
            i => {
                self.free = self.nodes[i as usize].next;
                self.nodes[i as usize] = node;
                i
            }
        };
        let (head, tail) = self.slots[s];
        if head == NIL {
            self.slots[s] = (i, i);
            self.near_bits[s / 64] |= 1 << (s % 64);
            // A newly occupied slot nearer `now` than the front becomes it
            // (on an empty near level, whatever the front said).
            if self.near_len == 0 || self.ahead(s) < self.ahead(self.front) {
                self.front = s;
            }
        } else if newest || self.nodes[tail as usize].seq <= seq {
            debug_assert!(self.nodes[tail as usize].seq < seq || !newest);
            self.nodes[tail as usize].next = i;
            self.slots[s].1 = i;
        } else {
            // An externally assigned seq arriving out of order: walk to the
            // first node with a larger one (the tail, at the latest).
            let (mut prev, mut cur) = (NIL, head);
            while self.nodes[cur as usize].seq < seq {
                (prev, cur) = (cur, self.nodes[cur as usize].next);
            }
            self.nodes[i as usize].next = cur;
            match prev {
                NIL => self.slots[s].0 = i,
                _ => self.nodes[prev as usize].next = i,
            }
        }
        self.near_len += 1;
    }

    /// How many nanoseconds after `now` near slot `s` is due: its ring
    /// distance from `now`'s slot. Every near event is due within the ring
    /// from `now`, so this orders slots as their instants.
    #[inline]
    fn ahead(&self, s: usize) -> u64 {
        (s as u64).wrapping_sub(self.now.as_nanos()) & NEAR_MASK
    }

    /// The instant near slot `s` stands for. The near level spans exactly
    /// the `NEAR_SLOTS` nanoseconds from the start of `now`'s epoch, so a
    /// slot's offset from that start, modulo the ring, is its instant's.
    #[inline]
    fn slot_time(&self, s: usize) -> SimTime {
        let start = self.now.as_nanos() >> EPOCH_SHIFT << EPOCH_SHIFT;
        SimTime::from_nanos(start + ((s as u64).wrapping_sub(start) & NEAR_MASK))
    }

    /// Moves node `i`'s event, due at `time`, out of the slab and puts the
    /// node on the free list; returns the event and the node that followed
    /// it.
    #[inline]
    fn release(&mut self, i: u32, time: SimTime) -> (ScheduledEvent<E>, u32) {
        let node = &mut self.nodes[i as usize];
        let ev = ScheduledEvent {
            time,
            seq: node.seq,
            payload: node.payload.take().expect("a linked node holds an event"),
        };
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = i;
        self.near_len -= 1;
        (ev, next)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.near_len == 0 {
            let (t, _) = self.peek_key()?;
            self.jump(epoch_of(t));
        }
        let s = self.front_slot();
        Some(self.take(s, self.slot_time(s)))
    }

    /// Pops the next event only if it is due strictly before `bt`;
    /// otherwise leaves the calendar untouched and returns `None`. A run
    /// to a horizon drains through this and parks, resumable.
    pub fn pop_before(&mut self, bt: SimTime) -> Option<ScheduledEvent<E>> {
        if self.near_len == 0 {
            // Jump only if an event pops right now: parking with the near
            // level moved past `now` would put later, legal schedules
            // behind it.
            let t = self.peek_time()?;
            if t >= bt {
                return None;
            }
            self.jump(epoch_of(t));
        }
        let s = self.front_slot();
        let t = self.slot_time(s);
        (t < bt).then(|| self.take(s, t))
    }

    /// The slot of the earliest near-level event: the remembered front, the
    /// first occupied one at or after `now`, circularly (the half of the
    /// ring behind `now`'s epoch holds the next epoch). Precondition: near
    /// level not empty.
    #[inline]
    fn front_slot(&self) -> usize {
        debug_assert!(self.near_len > 0, "front of an empty near level");
        debug_assert_eq!(
            Some(self.front),
            first_set_from(&self.near_bits, (self.now.as_nanos() & NEAR_MASK) as usize),
            "the remembered front is not the first occupied slot"
        );
        self.front
    }

    /// Unlinks the head of slot `s` — the front, whose head is the earliest
    /// pending event, due at `time` — and moves the clock to it. Only a
    /// slot that empties sends the front looking for the next one, from
    /// `s`, which is `now`'s slot from here on.
    #[inline]
    fn take(&mut self, s: usize, time: SimTime) -> ScheduledEvent<E> {
        let (ev, next) = self.release(self.slots[s].0, time);
        self.slots[s].0 = next;
        if next == NIL {
            self.near_bits[s / 64] &= !(1 << (s % 64));
            if self.near_len > 0 {
                self.front =
                    first_set_from(&self.near_bits, s).expect("near_len > 0 with no slot occupied");
            }
        }
        debug_assert!(
            ev.time >= self.now,
            "calendar produced an out-of-order event"
        );
        self.pending -= 1;
        let entered = epoch_of(ev.time) != epoch_of(self.now);
        self.now = ev.time;
        self.popped += 1;
        if entered {
            self.enter();
        }
        ev
    }

    /// `now` has just entered an epoch: the half of the near ring behind
    /// it is empty (everything in it popped first) and becomes the next
    /// epoch, which the far level — and the overflow heap, for events now
    /// within the far level's range — hand over.
    fn enter(&mut self) {
        let e = epoch_of(self.now);
        // The far level first: its slot for `e + 1` is the one the last
        // epoch now in range, `e + 1 + FAR_EPOCHS`, is about to share.
        self.pull(e + 1);
        while let Some(top) = self.overflow.peek() {
            if epoch_of(top.time) >= e + 2 + FAR_EPOCHS {
                break;
            }
            let ev = self.overflow.pop().expect("peeked");
            self.file(ev, false);
        }
    }

    /// The near level is empty and the earliest pending event lies in
    /// epoch `e`, at least two ahead: moves the clock over the empty
    /// epochs to the start of `e`. The caller pops from it at once, so
    /// `now` is never observed between events.
    fn jump(&mut self, e: u64) {
        debug_assert!(self.near_len == 0 && e >= epoch_of(self.now) + 2);
        self.now = SimTime::from_nanos(e << EPOCH_SHIFT);
        self.pull(e);
        self.enter();
    }

    /// Links far epoch `epoch`'s events into the near level.
    fn pull(&mut self, epoch: u64) {
        let i = (epoch % FAR_EPOCHS) as usize;
        self.far_bits[i / 64] &= !(1 << (i % 64));
        // The allocation is dropped with the `Vec`: kept "for reuse" it
        // would sit idle for 512 epochs, and every `Vec` a run touches
        // would stay as large as its busiest visit.
        for ev in std::mem::take(&mut self.far[i]) {
            debug_assert_eq!(epoch_of(ev.time), epoch, "far epoch aliased");
            self.link(ev, false);
        }
    }

    /// The earliest occupied far epoch, as an absolute epoch number.
    fn next_far_epoch(&self) -> Option<u64> {
        let start = epoch_of(self.now) + 2;
        let i = first_set_from(&self.far_bits, (start % FAR_EPOCHS) as usize)? as u64;
        Some(start + (i + FAR_EPOCHS - start % FAR_EPOCHS) % FAR_EPOCHS)
    }

    /// The payload of the next event, if the near level holds it (it
    /// does whenever the near level is not empty); `None` otherwise. A
    /// read: a caller may look at it to start loading what the event will
    /// touch before it pops.
    pub fn peek_near(&self) -> Option<&E> {
        if self.near_len == 0 {
            return None;
        }
        self.nodes[self.slots[self.front_slot()].0 as usize]
            .payload
            .as_ref()
    }

    /// The timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(t, _)| t)
    }

    /// The `(time, seq)` key of the next pending event without popping it.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        if self.near_len != 0 {
            let s = self.front_slot();
            return Some((self.slot_time(s), self.nodes[self.slots[s].0 as usize].seq));
        }
        // Earliest of the next far epoch (unsorted: scan it) and the
        // overflow heap's top, which may be due before it.
        let far = self.next_far_epoch().and_then(|e| {
            self.far[(e % FAR_EPOCHS) as usize]
                .iter()
                .map(|ev| (ev.time, ev.seq))
                .min()
        });
        let over = self.overflow.peek().map(|ev| (ev.time, ev.seq));
        far.into_iter().chain(over).min()
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

        pub fn pop_before(&mut self, bt: SimTime) -> Option<ScheduledEvent<E>> {
            if self.peek_time()? < bt {
                self.pop()
            } else {
                None
            }
        }

        pub fn peek_key(&self) -> Option<(SimTime, u64)> {
            self.heap.peek().map(|e| (e.time, e.seq))
        }

        pub fn peek_payload(&self) -> Option<&E> {
            self.heap.peek().map(|e| &e.payload)
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
        q.schedule_at(SimTime::from_nanos(10), 1); // epoch 0: straight to its slot
        q.schedule_at(SimTime::from_nanos(500_000), 2); // within the far span
        q.schedule_at(SimTime::from_millis(50), 3); // beyond it: overflow
        let (near, far, overflow) = q.occupancy_breakdown();
        assert_eq!(near + far + overflow, q.len());
        assert_eq!(overflow, 1);
        assert_eq!(near, 1);
        assert_eq!(far, 1);
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
    fn a_reserved_seq_filed_late_pops_where_it_was_taken() {
        // The seq is taken first, the event filed after two later ones for
        // the same instant: it still pops first.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        let seq = q.reserve_seq();
        q.schedule_at(t, "second");
        q.schedule_at(t, "third");
        q.schedule_at_seq(t, seq, "first");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
        assert_eq!(q.schedule_at(t, "fourth"), 3);
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
    fn pop_before_respects_the_time_bound() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), "a");
        q.schedule_at(SimTime::from_nanos(20), "b");
        q.schedule_at(SimTime::from_nanos(20), "c");
        q.schedule_at(SimTime::from_nanos(30), "d");
        // Bound 20: "a" drains, both events at 20 park.
        assert_eq!(q.pop_before(SimTime::from_nanos(20)).unwrap().payload, "a");
        assert!(q.pop_before(SimTime::from_nanos(20)).is_none());
        // The next bound picks "b", "c" and "d" up where they were left.
        assert_eq!(q.pop_before(SimTime::from_nanos(100)).unwrap().payload, "b");
        assert_eq!(q.pop_before(SimTime::from_nanos(100)).unwrap().payload, "c");
        assert_eq!(q.pop_before(SimTime::from_nanos(100)).unwrap().payload, "d");
        assert!(q.pop_before(SimTime::from_nanos(100)).is_none());
        assert_eq!(q.events_executed(), 4);
    }

    #[test]
    fn pop_before_leaves_cursor_safe_for_boundary_inserts() {
        // The only pending event is far past the bound: pop_before must
        // not advance the cursor to it, so a later insert *at* the bound
        // still lands on a slot >= cursor.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(500), "far");
        let bt = SimTime::from_micros(10);
        assert!(q.pop_before(bt).is_none());
        q.schedule_at_seq(bt, 100, "boundary");
        let bt = SimTime::from_micros(600);
        assert_eq!(q.pop_before(bt).unwrap().payload, "boundary");
        assert_eq!(q.pop_before(bt).unwrap().payload, "far");
    }

    #[test]
    fn pop_before_drains_wheel_and_overflow_up_to_boundary() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(5), 0u32);
        q.schedule_at(SimTime::from_micros(300), 1); // wheel
        q.schedule_at(SimTime::from_millis(20), 2); // overflow
        let bt = SimTime::from_millis(30);
        let mut got = Vec::new();
        while let Some(e) = q.pop_before(bt) {
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
        assert_eq!(q.pop_before(bt).unwrap().payload, "a");
        assert!(q.pop_before(bt).is_none());
        q.schedule_at(SimTime::from_nanos(500), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(500)));
        let mut last = q.now();
        let mut order = Vec::new();
        while let Some(e) = q.pop() {
            assert!(
                e.time >= last,
                "clock ran backwards: {:?} after {last:?}",
                e.time
            );
            last = e.time;
            order.push(e.payload);
        }
        assert_eq!(order, vec!["b", "c"]);
        assert_eq!(q.now(), SimTime::from_nanos(1000));
    }

    #[test]
    fn pop_before_parks_inside_the_boundary_slot_without_opening_it() {
        // Bound and next event share a slot, the event at or past the
        // bound: the slot stays closed, so a schedule below it is fine.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(1000), 1u32);
        assert!(q.pop_before(SimTime::from_nanos(1000)).is_none());
        assert!(q.pop_before(SimTime::from_nanos(990)).is_none());
        assert_eq!(
            (q.occupancy_breakdown(), q.now()),
            ((1, 0, 0), SimTime::ZERO)
        );
        q.schedule_at(SimTime::from_nanos(300), 0);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn storage_follows_the_events_pending_and_is_flat_at_steady_state() {
        // An ft8-shaped load — 2 000 pending events, each pop scheduling a
        // successor about one link delay ahead — run over two rotations of
        // the far level: every near slot is linked and unlinked a thousand
        // times. The slab must stop growing once the population has peaked.
        const PENDING: u64 = 2_000;
        let mut q = EventQueue::new();
        let fixed = q.resident_bytes();
        for i in 0..PENDING {
            q.schedule_at(SimTime::from_nanos(i * 2), i);
        }
        let run_to = |q: &mut EventQueue<u64>, t: u64| {
            while q.now() < SimTime::from_nanos(t) {
                let e = q.pop().expect("every pop schedules a successor");
                if e.payload < PENDING {
                    let hop = 1_000 + e.payload % 85;
                    q.schedule_at(SimTime::from_nanos(e.time.as_nanos() + hop), e.payload);
                }
            }
        };
        run_to(&mut q, FAR_SPAN);
        let after_one = q.resident_bytes();
        run_to(&mut q, 2 * FAR_SPAN);
        assert!(q.events_executed() > 1_000_000);
        assert_eq!(q.peak_len() as u64, PENDING);
        assert_eq!(
            q.resident_bytes(),
            after_one,
            "storage moved at a constant population"
        );
        let per_event = std::mem::size_of::<ScheduledEvent<u64>>();
        let bound = 4 * q.peak_len() * per_event;
        let held = q.resident_bytes() - fixed;
        assert!(
            held <= bound,
            "calendar holds {held} B for a peak of {} events of {per_event} B",
            q.peak_len()
        );
        // Four times as many dormant timers, forty per epoch, park in the
        // far level — not in the slab, which never shrinks — and their
        // storage is gone again once they have fired.
        let t0 = q.now().as_nanos();
        for i in 0..4 * PENDING {
            q.schedule_at(
                SimTime::from_nanos(t0 + FAR_SPAN / 2 + i * 100),
                PENDING + i,
            );
        }
        assert!(q.resident_bytes() - fixed <= 4 * q.peak_len() * per_event);
        assert_eq!(q.occupancy_breakdown().2, 0);
        run_to(&mut q, t0 + 2 * FAR_SPAN);
        assert_eq!(q.len() as u64, PENDING);
        assert!(
            q.resident_bytes() - fixed <= bound,
            "fired timers kept their storage"
        );
        // ... and an idle calendar holds no more than a busy one.
        while q.pop().is_some() {}
        assert!(q.resident_bytes() - fixed <= bound);
    }

    /// One epoch and the far level's span, in nanoseconds.
    const EPOCH: u64 = 1 << EPOCH_SHIFT;
    const FAR_SPAN: u64 = FAR_EPOCHS << EPOCH_SHIFT;

    /// Pops both calendars dry, comparing peek and pop at every step;
    /// returns the payloads in pop order.
    fn drain_both(wheel: &mut EventQueue<u32>, heap: &mut HeapQueue<u32>) -> Vec<u32> {
        let mut order = Vec::new();
        loop {
            assert_eq!(wheel.peek_key(), heap.peek_key());
            assert_peek_near_matches(wheel, heap);
            match (wheel.pop(), heap.pop()) {
                (None, None) => return order,
                (Some(x), Some(y)) => {
                    assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
                    assert_eq!(wheel.now(), heap.now());
                    order.push(x.payload);
                }
                (a, b) => panic!("pop divergence: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn level_boundaries_match_the_heap_oracle_from_every_clock_phase() {
        // Each delta sits one nanosecond either side of a level boundary
        // (near | far | overflow; the last pair is where this layout's far
        // level ends when the clock is at an epoch's start), measured from a
        // clock at the start, the last nanosecond and the boundary of an
        // epoch. Scheduled latest first, each twice for a tie, then again
        // one at a time with a pop between.
        let deltas = [
            EPOCH - 1,
            EPOCH,
            2 * EPOCH - 1,
            2 * EPOCH,
            FAR_SPAN - 1,
            FAR_SPAN,
            FAR_SPAN + 2 * EPOCH - 1,
            FAR_SPAN + 2 * EPOCH,
        ];
        for clock in [0, EPOCH - 1, EPOCH] {
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::new();
            wheel.schedule_at(SimTime::from_nanos(clock), u32::MAX);
            heap.schedule_at(SimTime::from_nanos(clock), u32::MAX);
            assert_eq!(wheel.pop().map(|e| e.time), heap.pop().map(|e| e.time));
            for (i, &d) in deltas.iter().rev().enumerate() {
                for tie in 0..2 {
                    let at = SimTime::from_nanos(clock + d);
                    wheel.schedule_at(at, 2 * i as u32 + tie);
                    heap.schedule_at(at, 2 * i as u32 + tie);
                }
            }
            let order = drain_both(&mut wheel, &mut heap);
            assert_eq!(order, (0..16).rev().map(|p| p ^ 1).collect::<Vec<_>>());
            for (i, &d) in deltas.iter().enumerate() {
                let at = SimTime::from_nanos(wheel.now().as_nanos() + d);
                wheel.schedule_at(at, i as u32);
                heap.schedule_at(at, i as u32);
                assert_eq!(drain_both(&mut wheel, &mut heap), vec![i as u32]);
            }
        }
    }

    #[test]
    fn far_and_direct_schedules_for_one_nanosecond_pop_in_seq_order() {
        let t = SimTime::from_nanos(3 * EPOCH + 17);
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut both = |wheel: &mut EventQueue<u32>, at: SimTime, seq: Option<u64>, p: u32| {
            let seq = match seq {
                Some(seq) => {
                    wheel.schedule_at_seq(at, seq, p);
                    seq
                }
                None => wheel.schedule_at(at, p),
            };
            heap.schedule_at_seq(at, seq, p);
        };
        for seq in 0..8 {
            assert_eq!(wheel.reserve_seq(), seq);
        }
        // Parked in the far level: the calendar's own seq 8, then a smaller
        // external one behind it in the unsorted `Vec`.
        both(&mut wheel, t, None, 2);
        both(&mut wheel, t, Some(5), 1);
        both(&mut wheel, SimTime::from_nanos(2 * EPOCH + 5), None, 9);
        assert_eq!(wheel.occupancy_breakdown(), (0, 3, 0));
        // The stepping stone pops: `now` enters epoch 2 and epoch 3 is
        // linked into the near level. Later schedules go straight there.
        assert_eq!(wheel.pop().map(|e| e.payload), Some(9));
        assert_eq!(wheel.occupancy_breakdown(), (2, 0, 0));
        both(&mut wheel, t, None, 3); // own seq 10: an append
        both(&mut wheel, t, Some(2), 0); // smaller than all: new head
        both(&mut wheel, t, Some(11), 4); // past the own ones: an append
        heap.pop();
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_jump_over_the_whole_far_span_lands_with_the_near_level_under_the_clock() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let far = (FAR_EPOCHS + 100) * EPOCH + 7;
        for (at, p) in [
            (0, 0u32),
            (far, 1),
            (far + 3 * EPOCH, 4),
            (far + FAR_SPAN, 5),
        ] {
            file_both(&mut wheel, &mut heap, at, p);
        }
        assert_eq!(wheel.occupancy_breakdown(), (1, 0, 3));
        for expect in [0, 1] {
            assert_eq!(wheel.pop().map(|e| e.payload), Some(expect));
            heap.pop();
        }
        assert_eq!(wheel.now(), SimTime::from_nanos(far));
        // The overflow events came within the far span on the way.
        assert_eq!(wheel.occupancy_breakdown(), (0, 2, 0));
        for (at, p) in [(far + 1, 2u32), (far + EPOCH, 3)] {
            file_both(&mut wheel, &mut heap, at, p);
        }
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![2, 3, 4, 5]);
    }

    #[test]
    fn a_slot_stands_for_its_instant_in_the_next_epoch_across_a_boundary_and_after_a_jump() {
        // Nodes hold no time: a pop reads its instant off the slot and the
        // clock. The events below sit either side of epoch boundaries, and
        // some share a near slot index (8192 ns apart).
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        file_both(&mut wheel, &mut heap, 3 * EPOCH + 100, 0);
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![0]);
        // Filed in the next epoch (one 4096 ns ahead of the clock, one in
        // its last nanosecond), in the current one's last nanosecond, at the
        // boundary, and in the far level: the epoch after next, in the
        // clock's slot.
        for (at, p) in [
            (4 * EPOCH + 100, 1),
            (4 * EPOCH - 1, 2),
            (4 * EPOCH, 3),
            (5 * EPOCH + 100, 4),
            (5 * EPOCH - 1, 5),
        ] {
            file_both(&mut wheel, &mut heap, at, p);
        }
        assert_eq!(wheel.occupancy_breakdown(), (4, 1, 0));
        assert_eq!(wheel.peek_near(), Some(&2));
        let mut seen = Vec::new();
        while let Some(e) = wheel.pop() {
            let o = heap.pop().expect("the oracle holds as many");
            assert_eq!((e.time, e.seq, e.payload), (o.time, o.seq, o.payload));
            seen.push((e.time.as_nanos(), e.payload));
        }
        assert_eq!(
            seen,
            [
                (4 * EPOCH - 1, 2),
                (4 * EPOCH, 3),
                (4 * EPOCH + 100, 1),
                (5 * EPOCH - 1, 5),
                (5 * EPOCH + 100, 4),
            ]
        );
        // The near level is empty: the next pop jumps over the empty epochs
        // to the start of its event's, and reads its instant from there.
        let far = (FAR_EPOCHS + 40) * EPOCH + EPOCH - 1;
        for (at, p) in [(far, 6), (far + 1, 7), (far + EPOCH, 8)] {
            file_both(&mut wheel, &mut heap, at, p);
        }
        assert_eq!(wheel.peek_near(), None, "nothing is near before the jump");
        let e = wheel.pop().expect("three pending");
        assert_eq!((e.time.as_nanos(), e.payload), (far, 6));
        heap.pop();
        assert_eq!(wheel.peek_near(), Some(&7));
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![7, 8]);
    }

    /// Files `p` at `at` in both calendars.
    fn file_both(wheel: &mut EventQueue<u32>, heap: &mut HeapQueue<u32>, at: u64, p: u32) {
        wheel.schedule_at(SimTime::from_nanos(at), p);
        heap.schedule_at(SimTime::from_nanos(at), p);
    }

    #[test]
    fn a_slot_filed_ahead_of_the_front_in_its_epoch_becomes_the_front() {
        let (mut wheel, mut heap) = (EventQueue::new(), HeapQueue::new());
        file_both(&mut wheel, &mut heap, 200, 9);
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![9]);
        file_both(&mut wheel, &mut heap, 700, 0);
        assert_eq!(wheel.peek_near(), Some(&0));
        file_both(&mut wheel, &mut heap, 300, 1);
        assert_eq!(wheel.peek_near(), Some(&1), "a nearer slot is the front");
        // Into the front slot, and into a slot between it and the old one:
        // neither moves it.
        file_both(&mut wheel, &mut heap, 300, 2);
        file_both(&mut wheel, &mut heap, 500, 3);
        assert_eq!(wheel.peek_near(), Some(&1));
        // The clock's own slot is the nearest there is.
        file_both(&mut wheel, &mut heap, 200, 4);
        assert_eq!(wheel.peek_near(), Some(&4));
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![4, 1, 2, 3, 0]);
    }

    #[test]
    fn the_front_is_nearest_by_ring_distance_not_by_slot_index() {
        // The clock in epoch 1 (slot 4196): the next epoch's slots wrap to
        // the bottom of the ring, numerically below the clock's.
        let (mut wheel, mut heap) = (EventQueue::new(), HeapQueue::new());
        file_both(&mut wheel, &mut heap, EPOCH + 100, 9);
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![9]);
        file_both(&mut wheel, &mut heap, EPOCH + 3000, 0);
        file_both(&mut wheel, &mut heap, 2 * EPOCH + 50, 1);
        assert_eq!(
            wheel.peek_near(),
            Some(&0),
            "slot 50 is next epoch's, behind slot 7096"
        );
        // Once 0 pops, the scan wraps to slot 50; a slot later in the
        // current epoch, numerically above it, is still nearer.
        assert_eq!(wheel.pop().map(|e| e.payload), Some(0));
        heap.pop();
        assert_eq!(wheel.peek_near(), Some(&1));
        file_both(&mut wheel, &mut heap, EPOCH + 4000, 2);
        assert_eq!(wheel.peek_near(), Some(&2));
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![2, 1]);
    }

    #[test]
    fn a_schedule_before_a_parked_front_becomes_the_front() {
        let (mut wheel, mut heap) = (EventQueue::new(), HeapQueue::new());
        file_both(&mut wheel, &mut heap, 10, 0);
        file_both(&mut wheel, &mut heap, 1000, 1);
        let bt = SimTime::from_nanos(900);
        assert_eq!(wheel.pop_before(bt).map(|e| e.payload), Some(0));
        heap.pop();
        // Parked: the front stays at 1000, the clock at 10.
        assert!(wheel.pop_before(bt).is_none());
        assert_eq!(wheel.peek_near(), Some(&1));
        file_both(&mut wheel, &mut heap, 500, 2);
        assert_eq!(wheel.peek_near(), Some(&2));
        file_both(&mut wheel, &mut heap, 10, 3);
        assert_eq!(wheel.peek_near(), Some(&3));
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![3, 2, 1]);
    }

    #[test]
    fn an_out_of_order_seq_filed_into_the_front_slot_is_peeked_first() {
        let (mut wheel, mut heap) = (EventQueue::new(), HeapQueue::new());
        let mut both = |at: u64, seq: u64, p: u32| {
            wheel.schedule_at_seq(SimTime::from_nanos(at), seq, p);
            heap.schedule_at_seq(SimTime::from_nanos(at), seq, p);
        };
        both(40, 5, 0);
        both(60, 1, 1);
        both(40, 2, 2); // the front slot's new head
        both(40, 3, 3); // between its head and tail
        assert_eq!(wheel.peek_near(), Some(&2));
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![2, 3, 0, 1]);
    }

    #[test]
    fn a_jump_over_empty_epochs_finds_the_front_among_what_it_links() {
        // Two events of one far epoch, the later filed (and so linked)
        // first, and an overflow event that a second jump files straight
        // into an empty near level.
        let (mut wheel, mut heap) = (EventQueue::new(), HeapQueue::new());
        let far = 40 * EPOCH;
        let over = (FAR_EPOCHS + 300) * EPOCH + 7;
        for (at, p) in [
            (far + 20, 1),
            (far + 10, 0),
            (far + EPOCH + 5, 2),
            (over, 3),
        ] {
            file_both(&mut wheel, &mut heap, at, p);
        }
        assert_eq!(wheel.occupancy_breakdown(), (0, 3, 1));
        assert_eq!(wheel.peek_near(), None, "nothing is near before the jump");
        assert_eq!(wheel.pop().map(|e| e.payload), Some(0));
        heap.pop();
        assert_eq!(wheel.peek_near(), Some(&1));
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![1, 2, 3]);
        assert_eq!(wheel.now(), SimTime::from_nanos(over));
    }

    /// `peek_near` is the oracle's next payload whenever the near level
    /// holds events (the next one is then among them), and `None` only when
    /// it holds none.
    fn assert_peek_near_matches(wheel: &EventQueue<u32>, heap: &HeapQueue<u32>) {
        let (near, _, _) = wheel.occupancy_breakdown();
        let want = if near > 0 { heap.peek_payload() } else { None };
        assert_eq!(wheel.peek_near(), want, "{near} near events");
    }

    /// Replays one op tape against both calendars and compares every
    /// observable: peek, near peek, pop sequence (time, seq, payload), now.
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
            assert_peek_near_matches(&wheel, &heap);
        }
        // Drain both to the end.
        loop {
            assert_peek_near_matches(&wheel, &heap);
            match (wheel.pop(), heap.pop()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload))
                }
                (a, b) => panic!("drain divergence: {a:?} vs {b:?}"),
            }
        }
    }

    /// The external-seq tape: both calendars are fed through
    /// `schedule_at_seq` with seqs in shuffled order — as a reserved seq
    /// filed behind later ones is — and drained through `pop_before`
    /// bounds that park mid-slot: what the append fast path of `link`
    /// must not assume.
    fn check_external_seq_equivalence(ops: &[(u16, u8, u16)]) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let (mut n_real, mut payload) = (0u64, 0u32);
        let mut last = SimTime::ZERO;
        for &(offset, op, r) in ops {
            // A third of the deltas are 0..4 ns (same-instant and same-slot
            // ties), a third stay within a few slots (bounded pops that park
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
                1 => loop {
                    // Everything due before `at`.
                    let (a, b) = (wheel.pop_before(at), heap.pop_before(at));
                    assert_eq!(a.is_some(), b.is_some());
                    let (Some(x), Some(y)) = (a, b) else { break };
                    assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
                    assert!(x.time >= last, "clock ran backwards");
                    last = x.time;
                },
                _ => {
                    // Seqs unique but out of order (an odd multiplier
                    // permutes the low 20 bits).
                    let seq = n_real.wrapping_mul(0x9_E375) & 0xF_FFFF;
                    n_real += 1;
                    wheel.schedule_at_seq(at, seq, payload);
                    heap.schedule_at_seq(at, seq, payload);
                    payload += 1;
                }
            }
            assert_eq!(wheel.peek_key(), heap.peek_key());
            assert_peek_near_matches(&wheel, &heap);
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.now(), heap.now());
            let (ready, parked, overflow) = wheel.occupancy_breakdown();
            assert_eq!(ready + parked + overflow, wheel.len());
        }
        loop {
            assert_peek_near_matches(&wheel, &heap);
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
        // occupied slots, bounded pops parking mid-slot.
        let ops: Vec<(u16, u8, u16)> = (0..600u16)
            .map(|i| (i % 7, (i % 8 + i / 8 % 3) as u8, (i % 5) * 3))
            .collect();
        check_external_seq_equivalence(&ops);
    }

    #[test]
    fn equivalence_on_dense_ties() {
        // Many zero and tiny offsets: every tie-breaking path.
        let ops: Vec<(u16, u8)> = (0..400).map(|i| ((i % 3) as u16, (i % 7) as u8)).collect();
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
        fn external_seqs_and_bounded_pops_match_heap_oracle(
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
                while let Some(e) = windowed.pop_before(SimTime::from_nanos(bt)) {
                    got.push((e.time, e.seq, e.payload));
                }
            }
            prop_assert_eq!(got, expect);
        }
    }
}
