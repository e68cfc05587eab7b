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
//! (link serializations, per-hop delays: nine in ten fire within 1.1 µs,
//! and almost none less than 1 µs ahead) and dense — the fat-tree runs
//! execute about two events per simulated nanosecond — so the calendar
//! files an event once, near where it will be popped from, and compares
//! almost nothing. Time is cut into *epochs* of 4096 ns and an event goes
//! to one of three levels by how many epochs ahead of the clock it is due:
//!
//! * **near** — the epoch `now` is in and the next: a ring of 16 *buckets*
//!   of 512 ns (`BUCKET_SHIFT`), indexed by time modulo the ring. A
//!   schedule appends a 24-byte entry — seq, payload and the event's
//!   nanosecond in the ring — to its bucket, in filing order. A bucket is
//!   *settled* once, by the pop that empties the run before it (or, when
//!   the near level was empty, by the pop that reaches it): a stable
//!   counting sort on the nanosecond moves its entries into the *run*,
//!   latest first, so a pop is a `Vec::pop` and the next events lie side
//!   by side behind it.
//!   Entries filed in seq order stay in seq order within their nanosecond;
//!   a bucket that was handed a seq below one filed before it (by
//!   [`EventQueue::schedule_at_seq`] or a far-level pull) is marked
//!   *mixed*, and its settle also sorts each nanosecond by seq. The rare
//!   schedule due before the run's bucket ends goes into the run in
//!   `(time, seq)` order. A bucket grows in chunks of `CHUNK` entries,
//!   which a settle hands back for the next schedules (up to
//!   `SPARE_CHUNKS` of them), so the level holds about as many entries
//!   as are pending, plus one bucket's worth in the run. An entry holds no
//!   time: the level spans exactly the 8192 ns from the start of `now`'s
//!   epoch, so its nanosecond in the ring and the clock give its instant.
//! * **far** — the 512 epochs after those (≈2.1 ms: gateway service
//!   times, retransmission timers), one plain *unsorted* `Vec` per epoch,
//!   indexed by epoch modulo 512. Scheduling is a push. An epoch's `Vec`
//!   is taken — allocation and all — and appended to the near level's
//!   buckets when a pop carries `now` into the epoch before it. A flow has
//!   one retransmission timer here, not one per ACK: a re-arm reserves its
//!   seq and files nothing until the filed event pops
//!   (`netsim::flows::LazyRto`).
//! * **overflow** — a binary heap for the rare events beyond that
//!   (long timers, pre-scheduled flow starts). Each moves into the far or
//!   near level when the clock enters an epoch within range of it.
//!
//! The clock places the levels: the near level always covers the epoch
//! `now` is in and the next, and `now` moves only when an event pops. When
//! the near level is empty the next pop jumps to the epoch of the earliest
//! far or overflow event; a bounded pop ([`EventQueue::pop_before`]) whose
//! bound that event is not below leaves everything where it is, so a legal
//! schedule (`at >= now`) can never land behind the near level. The run
//! is often ahead of the clock — settled by the pop before its first
//! event, or by a bounded pop that then parks — and a schedule between the
//! two goes into the run, in order, like any other schedule before the
//! run's end.
//!
//! [`EventQueue::peek_near`] hands a run loop the next event's payload
//! without popping it, so the loop can start loading what that event will
//! touch while the current one runs. After a pop it reads the run's last
//! entry; only after a schedule into an empty near level, before the pop
//! that settles it, does it scan the bucket, as [`EventQueue::peek_key`]
//! does. Nothing it returns can change what pops, or when.
//!
//! The old single-heap implementation survives as a `#[cfg(test)]` oracle;
//! equivalence proptests check the two produce identical `(time, seq,
//! payload)` pop sequences and look-aheads on random schedules, including
//! same-timestamp ties, far-future overflow events, externally assigned
//! seqs arriving out of order and bounded pops.

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
/// Ring-index mask of the near level's nanoseconds: it spans two epochs
/// (a power of two, so the ring index is a mask).
const NEAR_MASK: u64 = (2 << EPOCH_SHIFT) - 1;
/// log2 of a near bucket's width: 512 ns, about half a link delay, so a
/// schedule lands two or three buckets ahead of the one being popped and
/// a settle sorts a few hundred entries.
const BUCKET_SHIFT: u32 = 9;
/// A near bucket's width in nanoseconds: the counting sort's key range.
const BUCKET_NS: usize = 1 << BUCKET_SHIFT;
/// Buckets in the near ring.
const NEAR_BUCKETS: usize = 2 << (EPOCH_SHIFT - BUCKET_SHIFT);
const _: () = assert!(NEAR_BUCKETS <= 64, "the near bitmap is one word");
/// Epochs of the far level: 512 × 4096 ns ≈ 2.1 ms, wide enough that only
/// long timers and pre-scheduled flow starts overflow.
const FAR_EPOCHS: u64 = 512;
/// Entries per chunk of a near bucket: a bucket grows a chunk at a time,
/// so it holds at most one chunk more than its entries need, and every
/// chunk fits every bucket. 3 KB: half the size read 0.1 MB more peak RSS
/// on `ft8-hadoop`.
const CHUNK: usize = 128;
/// Spent chunks kept for the next schedules: more than a settle frees at
/// once on any benchmarked fabric (the largest settled bucket holds 969
/// entries on `ft16-alibaba-gw`, 1 299 on `ft8-churn`, 2 497 on
/// `ft8-hadoop` and 2 882 on `ft32-hadoop`: 23 chunks). Beyond these, a
/// spent chunk goes back to the allocator.
const SPARE_CHUNKS: usize = 32;
/// The largest run buffer, in entries, kept once its run is popped: a
/// burst's goes back to the allocator. Above every benchmarked fabric's
/// largest bucket (see [`SPARE_CHUNKS`]), so only a burst ever regrows it.
const RUN_ENTRIES: usize = 4096;

/// The epoch an instant falls in.
#[inline]
fn epoch_of(t: SimTime) -> u64 {
    t.as_nanos() >> EPOCH_SHIFT
}

/// A pending near-level event: its seq, its nanosecond in the near ring
/// (`time & NEAR_MASK`) and the payload. It holds no time: the ring
/// position and the clock give it ([`EventQueue::ring_time`]).
#[derive(Debug)]
struct Entry<E> {
    seq: u64,
    ns: u32,
    /// `Option` so a settle can scatter entries into a buffer of vacant
    /// ones; for an enum payload with a spare tag value it costs no bytes.
    payload: Option<E>,
}

impl<E> Entry<E> {
    fn vacant() -> Self {
        Entry {
            seq: 0,
            ns: 0,
            payload: None,
        }
    }
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
/// * the run — the settled bucket's unpopped entries — is in `(time, seq)`
///   order, latest first, and every event in it is due before every event
///   in the near buckets: a pop takes its last entry without a look at
///   anything else;
/// * after a pop the run is empty only if the near level is;
/// * scheduling in the past is a logic error and panics in debug builds
///   (in release it clamps to "now", which keeps long batch sweeps alive).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The settled bucket's unpopped entries, latest first.
    run: Vec<Entry<E>>,
    /// The end of the settled bucket while `run` holds entries (`ZERO`
    /// otherwise): an event due before it is filed into `run`.
    run_end: SimTime,
    /// Near level: each bucket's unsettled entries in filing order, in
    /// chunks of [`CHUNK`] (none empty); index = (time & `NEAR_MASK`) >>
    /// `BUCKET_SHIFT`.
    buckets: [Vec<Vec<Entry<E>>>; NEAR_BUCKETS],
    /// One bit per near bucket: non-empty.
    near_bits: u64,
    /// One bit per near bucket: filed a seq below one filed before it.
    mixed_bits: u64,
    /// Empty chunks kept for the next schedules, at most [`SPARE_CHUNKS`].
    spare: Vec<Vec<Entry<E>>>,
    /// The settle's counting-sort table, one counter per nanosecond of a
    /// bucket.
    counts: [u32; BUCKET_NS],
    /// Events in the near level, the run included.
    near_len: usize,
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
    /// Bytes one near-level event takes in a bucket: seq, ring nanosecond
    /// and payload (its time is the ring's and the clock's). A user whose
    /// speed rests on it asserts it at compile time.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry<E>>();

    /// Creates an empty calendar positioned at t = 0.
    pub fn new() -> Self {
        EventQueue {
            run: Vec::new(),
            run_end: SimTime::ZERO,
            buckets: std::array::from_fn(|_| Vec::new()),
            near_bits: 0,
            mixed_bits: 0,
            spare: Vec::new(),
            counts: [0; BUCKET_NS],
            near_len: 0,
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
    /// `near` is in a 512 ns bucket or the run, `far` parked in an
    /// unsorted per-epoch `Vec`, `overflow` in the one heap (the only
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
    /// capacity: the run buffer, the near buckets' chunks and the spare
    /// ones, every far `Vec` and the overflow heap, plus the tables that
    /// index them.
    pub fn resident_bytes(&self) -> usize {
        let chunks = self.buckets.iter().chain([&self.spare]);
        let near = self.run.capacity() + chunks.clone().flatten().map(Vec::capacity).sum::<usize>();
        let chunk_lists = chunks.map(Vec::capacity).sum::<usize>();
        let parked = self.far.iter().map(Vec::capacity).sum::<usize>() + self.overflow.capacity();
        near * Self::ENTRY_BYTES
            + parked * std::mem::size_of::<ScheduledEvent<E>>()
            + chunk_lists * std::mem::size_of::<Vec<Entry<E>>>()
            + self.far.capacity() * std::mem::size_of::<Vec<ScheduledEvent<E>>>()
            + std::mem::size_of::<Self>()
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// Returns the sequence number, which uniquely identifies the scheduling
    /// (timers use it for lazy cancellation). The seq is larger than every
    /// one this calendar has handed out, so a near-level event is appended
    /// to its bucket without a look at what the bucket holds.
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
    /// under it only when its earlier filing pops.
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

    /// Files a near-level event: into the run, in order, if it is due
    /// before the run's bucket ends, else at the end of its bucket. With
    /// `newest` its seq exceeds every seq filed, so it cannot make the
    /// bucket mixed; otherwise it does if the bucket's last seq is larger.
    #[inline]
    fn link(&mut self, ev: ScheduledEvent<E>, newest: bool) {
        let ns = (ev.time.as_nanos() & NEAR_MASK) as u32;
        let entry = Entry {
            seq: ev.seq,
            ns,
            payload: Some(ev.payload),
        };
        self.near_len += 1;
        if ev.time < self.run_end {
            return self.insert_into_run(entry);
        }
        let b = (ns >> BUCKET_SHIFT) as usize;
        let bucket = &mut self.buckets[b];
        match bucket.last_mut() {
            Some(chunk) => {
                if !newest && chunk.last().is_some_and(|last| last.seq > entry.seq) {
                    self.mixed_bits |= 1 << b;
                }
                if chunk.len() < CHUNK {
                    return chunk.push(entry);
                }
            }
            None => self.near_bits |= 1 << b,
        }
        let mut chunk = self
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(CHUNK));
        chunk.push(entry);
        bucket.push(chunk);
    }

    /// Files an entry due before the run's end into the run, behind every
    /// entry that pops after it (the run is latest first). A zero-delay
    /// schedule lands behind the other events due at `now`: a push only
    /// when none is pending at that instant.
    #[cold]
    fn insert_into_run(&mut self, entry: Entry<E>) {
        let k = self.key(&entry);
        let i = self.run.partition_point(|e| self.key(e) > k);
        self.run.insert(i, entry);
        debug_assert!(self.run_in_order(), "the run is out of (time, seq) order");
    }

    /// The run is in `(time, seq)` order, latest first: a debug builds'
    /// check on every settle and every schedule into the run.
    fn run_in_order(&self) -> bool {
        self.run
            .windows(2)
            .all(|w| self.key(&w[0]) > self.key(&w[1]))
    }

    /// A near entry's pop order: its `(time, seq)`, with the time as
    /// nanoseconds after `now`.
    #[inline]
    fn key(&self, e: &Entry<E>) -> (u64, u64) {
        (self.ahead(e.ns), e.seq)
    }

    /// How many nanoseconds after `now` an event at ring nanosecond `ns`
    /// is due. Every near event is due within the ring from `now`, so this
    /// orders near events as their instants.
    #[inline]
    fn ahead(&self, ns: u32) -> u64 {
        u64::from(ns).wrapping_sub(self.now.as_nanos()) & NEAR_MASK
    }

    /// The instant of a near event at ring nanosecond `ns`.
    #[inline]
    fn ring_time(&self, ns: u32) -> SimTime {
        SimTime::from_nanos(self.now.as_nanos() + self.ahead(ns))
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.near_len == 0 {
            let (t, _) = self.peek_key()?;
            self.jump(epoch_of(t));
        }
        if self.run.is_empty() {
            self.settle();
        }
        Some(self.take())
    }

    /// Pops the next event only if it is due strictly before `bt`;
    /// otherwise leaves the calendar's order untouched and returns `None`.
    /// A run to a horizon drains through this and parks, resumable.
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
        if self.run.is_empty() {
            self.settle();
        }
        let last = self.run.last().expect("settled");
        (self.ring_time(last.ns) < bt).then(|| self.take())
    }

    /// Settles the first non-empty near bucket at or after `now`'s,
    /// circularly, into the run: a stable counting sort on the nanosecond,
    /// latest first, then — if the bucket is mixed — each nanosecond's
    /// entries by seq. Precondition: the run is empty and the near level
    /// is not.
    fn settle(&mut self) {
        debug_assert!(self.run.is_empty());
        let b = self.first_bucket();
        self.near_bits &= !(1 << b);
        let mixed = self.mixed_bits & (1 << b) != 0;
        self.mixed_bits &= !(1 << b);
        let Self {
            buckets,
            run,
            counts,
            spare,
            ..
        } = self;
        let chunks = &mut buckets[b];

        // Each nanosecond's entries go below those of every later one.
        counts.fill(0);
        let lane = |ns: u32| ns as usize & (BUCKET_NS - 1);
        for e in chunks.iter().flatten() {
            counts[lane(e.ns)] += 1;
        }
        let mut end = 0;
        for c in counts.iter_mut().rev() {
            end += *c;
            *c = end;
        }
        run.resize_with(end as usize, Entry::vacant);
        // In filing order, each from the top of its nanosecond's range
        // down: the first filed pops first.
        for mut chunk in chunks.drain(..) {
            for e in chunk.drain(..) {
                let c = &mut counts[lane(e.ns)];
                *c -= 1;
                run[*c as usize] = e;
            }
            if spare.len() < SPARE_CHUNKS {
                spare.push(chunk);
            }
        }
        // A burst's list of chunks goes with them.
        if chunks.capacity() > SPARE_CHUNKS {
            *chunks = Vec::new();
        }
        if mixed {
            for same_ns in run.chunk_by_mut(|a, b| a.ns == b.ns) {
                same_ns.sort_unstable_by_key(|e| std::cmp::Reverse(e.seq));
            }
        }
        // The bucket's last nanosecond is not behind the clock; its first
        // may be.
        let last = self.ring_time(((b + 1) * BUCKET_NS - 1) as u32);
        self.run_end = SimTime::from_nanos(last.as_nanos() + 1);
        debug_assert!(
            self.run_in_order(),
            "a settled bucket is out of (time, seq) order"
        );
    }

    /// The first non-empty near bucket at or after `now`'s, circularly.
    /// Precondition: a near bucket holds events.
    #[inline]
    fn first_bucket(&self) -> usize {
        debug_assert!(self.near_bits != 0, "every near bucket is empty");
        let from = ((self.now.as_nanos() & NEAR_MASK) >> BUCKET_SHIFT) as u32;
        let hi = self.near_bits >> from;
        (if hi != 0 {
            from + hi.trailing_zeros()
        } else {
            self.near_bits.trailing_zeros()
        }) as usize
    }

    /// Pops the run's last entry — the earliest pending event — and moves
    /// the clock to it. A burst's run buffer is dropped once popped. A pop
    /// that empties the run settles the next bucket at once, so the run
    /// holds the next event whenever the near level does, and the look-ahead
    /// reads it without a scan.
    #[inline]
    fn take(&mut self) -> ScheduledEvent<E> {
        let e = self.run.pop().expect("a settled run");
        let ev = ScheduledEvent {
            time: self.ring_time(e.ns),
            seq: e.seq,
            payload: e.payload.expect("a settled entry holds an event"),
        };
        if self.run.is_empty() {
            if self.run.capacity() > RUN_ENTRIES {
                self.run = Vec::new();
            }
            self.run_end = SimTime::ZERO;
        }
        self.near_len -= 1;
        self.pending -= 1;
        let entered = epoch_of(ev.time) != epoch_of(self.now);
        self.now = ev.time;
        self.popped += 1;
        if entered {
            self.enter();
        }
        if self.run.is_empty() && self.near_len != 0 {
            self.settle();
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

    /// Appends far epoch `epoch`'s events to the near buckets.
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

    /// The payload of the next event if it is in the near level, `None`
    /// if the near level is empty. A read: a caller may look at it to
    /// start loading what the event will touch before it pops.
    #[inline]
    pub fn peek_near(&self) -> Option<&E> {
        self.near_front()?.payload.as_ref()
    }

    /// The near level's earliest entry: the run's last, or — when the run
    /// is empty (a schedule into an empty near level, not yet popped) —
    /// the least `(time, seq)` of the first non-empty bucket.
    #[inline]
    fn near_front(&self) -> Option<&Entry<E>> {
        match self.run.last() {
            Some(e) => Some(e),
            None if self.near_len != 0 => Some(self.unsettled_front()),
            None => None,
        }
    }

    /// The earliest entry of the first non-empty bucket, which is not
    /// settled yet: a scan (the next pop settles it). Precondition: the
    /// run is empty and the near level is not.
    #[cold]
    fn unsettled_front(&self) -> &Entry<E> {
        self.buckets[self.first_bucket()]
            .iter()
            .flatten()
            .min_by_key(|e| self.key(e))
            .expect("a bucket marked non-empty holds an entry")
    }

    /// The timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(t, _)| t)
    }

    /// The `(time, seq)` key of the next pending event without popping it.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        if let Some(e) = self.near_front() {
            return Some((self.ring_time(e.ns), e.seq));
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

        /// The payload of the `k`-th pending event in pop order.
        pub fn peek_nth(&self, k: usize) -> Option<&E> {
            let mut pending: Vec<_> = self.heap.iter().collect();
            pending.sort_unstable_by_key(|e| (e.time, e.seq));
            pending.get(k).map(|e| &e.payload)
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
        q.schedule_at(SimTime::from_nanos(10), 1); // epoch 0: straight to its bucket
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
    fn pop_before_parks_before_the_boundary_bucket_and_a_schedule_below_it_pops_first() {
        // Bound and next event share a bucket, the event at or past the
        // bound: the bucket settles but the clock stays, so a schedule
        // below it is fine.
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
        // the far level: every near bucket is filled and settled hundreds of
        // times. Storage must stop growing once the population has peaked.
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
        // far level — not in the near buckets' chunks — and their storage
        // is gone again once they have fired.
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
            let popped = (wheel.pop(), heap.pop());
            assert_run_is_settled(wheel);
            match popped {
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
    fn an_entry_stands_for_its_instant_in_the_next_epoch_across_a_boundary_and_after_a_jump() {
        // Entries hold no time: a pop reads its instant off the entry's
        // nanosecond in the ring and the clock. The events below sit either
        // side of epoch boundaries, and some share a ring bucket (8192 ns
        // apart).
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        file_both(&mut wheel, &mut heap, 3 * EPOCH + 100, 0);
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![0]);
        // Filed in the next epoch (one 4096 ns ahead of the clock, one in
        // its last nanosecond), in the current one's last nanosecond, at the
        // boundary, and in the far level: the epoch after next, in the
        // clock's bucket.
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
        assert_eq!(wheel.peek_near(), Some(&2), "read off its bucket");
        assert_eq!(
            wheel.peek_key().map(|(t, _)| t.as_nanos()),
            Some(4 * EPOCH - 1)
        );
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
        for (at, p) in [(far, 6), (far + 1, 7), (far + 2, 8), (far + EPOCH, 9)] {
            file_both(&mut wheel, &mut heap, at, p);
        }
        assert_eq!(wheel.peek_near(), None, "nothing is near before the jump");
        let e = wheel.pop().expect("four pending");
        assert_eq!((e.time.as_nanos(), e.payload), (far, 6));
        heap.pop();
        assert_eq!(wheel.peek_near(), Some(&7), "read off its bucket");
        let e = wheel.pop().expect("three pending");
        assert_eq!((e.time.as_nanos(), e.payload), (far + 1, 7));
        heap.pop();
        assert_eq!(wheel.peek_near(), Some(&8));
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![8, 9]);
    }

    /// Files `p` at `at` in both calendars.
    fn file_both(wheel: &mut EventQueue<u32>, heap: &mut HeapQueue<u32>, at: u64, p: u32) {
        wheel.schedule_at(SimTime::from_nanos(at), p);
        heap.schedule_at(SimTime::from_nanos(at), p);
    }

    /// The `k`-th next near event's payload (`k = 0` is the next): the
    /// run loop's look-ahead for `k = 0`, and beyond it the run as stored,
    /// latest last, then the unsettled buckets' entries in `(time, seq)`
    /// order — so the run must hold the earliest near events, in order.
    fn peek_near_nth(wheel: &EventQueue<u32>, k: usize) -> Option<u32> {
        if k == 0 {
            return wheel.peek_near().copied();
        }
        let mut unsettled: Vec<_> = wheel.buckets.iter().flatten().flatten().collect();
        unsettled.sort_unstable_by_key(|e| wheel.key(e));
        wheel.run.iter().rev().chain(unsettled).nth(k)?.payload
    }

    /// The next `n` payloads as the calendar's look-ahead reads them.
    fn look_ahead(wheel: &EventQueue<u32>, n: usize) -> Vec<Option<u32>> {
        (0..n).map(|k| peek_near_nth(wheel, k)).collect()
    }

    #[test]
    fn zero_delay_and_sub_bucket_schedules_into_the_settled_bucket_pop_in_order() {
        let (mut wheel, mut heap) = (EventQueue::new(), HeapQueue::new());
        // One bucket, 512..1024 ns; the first pop settles it.
        for (at, p) in [(600, 0), (700, 1), (700, 2), (900, 3), (1023, 4)] {
            file_both(&mut wheel, &mut heap, at, p);
        }
        assert_eq!(wheel.pop().map(|e| e.payload), Some(0));
        heap.pop();
        assert_eq!(
            look_ahead(&wheel, 5),
            [Some(1), Some(2), Some(3), Some(4), None]
        );
        // Zero delay: due before everything the run holds.
        file_both(&mut wheel, &mut heap, 600, 5);
        // Within the bucket: behind the ties at 700, between 700 and 900,
        // and in its last nanosecond. 1024 opens the next bucket.
        for (at, p) in [(700, 6), (800, 7), (1023, 8), (1024, 9)] {
            file_both(&mut wheel, &mut heap, at, p);
        }
        assert_eq!(
            look_ahead(&wheel, 10),
            [5, 1, 2, 6, 7, 3, 4, 8, 9]
                .map(Some)
                .into_iter()
                .chain([None])
                .collect::<Vec<_>>()
        );
        assert_eq!(
            drain_both(&mut wheel, &mut heap),
            [5, 1, 2, 6, 7, 3, 4, 8, 9]
        );
    }

    #[test]
    fn a_reserved_seq_filed_late_into_a_settled_and_a_future_bucket_pops_where_it_was_taken() {
        let (mut wheel, mut heap) = (EventQueue::new(), HeapQueue::new());
        let (early, late) = (wheel.reserve_seq(), wheel.reserve_seq());
        heap.schedule_at(SimTime::ZERO, u32::MAX); // keeps the oracle's seqs in step
        heap.schedule_at(SimTime::ZERO, u32::MAX);
        heap.pop();
        heap.pop();
        for (at, p) in [
            (600, 0),
            (700, 1),
            (700, 2),
            (2000, 4),
            (2000, 5),
            (2100, 6),
        ] {
            file_both(&mut wheel, &mut heap, at, p);
        }
        assert_eq!(wheel.pop().map(|e| e.payload), Some(0));
        heap.pop();
        // Into the settled bucket: ahead of the later seqs due with it.
        let both = |wheel: &mut EventQueue<u32>, heap: &mut HeapQueue<u32>, at, seq, p| {
            wheel.schedule_at_seq(SimTime::from_nanos(at), seq, p);
            heap.schedule_at_seq(SimTime::from_nanos(at), seq, p);
        };
        both(&mut wheel, &mut heap, 700, early, 10);
        assert_eq!(look_ahead(&wheel, 4), [Some(10), Some(1), Some(2), Some(4)]);
        // Into a future bucket behind larger seqs: the bucket is mixed, and
        // its settle sorts the nanosecond by seq.
        both(&mut wheel, &mut heap, 2000, late, 3);
        assert_eq!(drain_both(&mut wheel, &mut heap), [10, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn pop_before_parks_mid_bucket_and_a_schedule_before_the_parked_front_pops_first() {
        let (mut wheel, mut heap) = (EventQueue::new(), HeapQueue::new());
        for (at, p) in [(600, 0), (800, 1), (900, 2), (1500, 3)] {
            file_both(&mut wheel, &mut heap, at, p);
        }
        let bt = SimTime::from_nanos(700);
        assert_eq!(wheel.pop_before(bt).map(|e| e.payload), Some(0));
        heap.pop();
        // Parked at 600 with 800 and 900 settled in the run.
        assert!(wheel.pop_before(bt).is_none());
        assert_eq!(look_ahead(&wheel, 4), [Some(1), Some(2), Some(3), None]);
        file_both(&mut wheel, &mut heap, 650, 4);
        file_both(&mut wheel, &mut heap, 600, 5);
        assert_eq!(look_ahead(&wheel, 4), [Some(5), Some(4), Some(1), Some(2)]);
        assert_eq!(drain_both(&mut wheel, &mut heap), [5, 4, 1, 2, 3]);
    }

    #[test]
    fn a_schedule_before_a_run_settled_ahead_of_the_clock_pops_first() {
        let (mut wheel, mut heap) = (EventQueue::new(), HeapQueue::new());
        file_both(&mut wheel, &mut heap, 10, 0);
        file_both(&mut wheel, &mut heap, 1000, 1);
        let bt = SimTime::from_nanos(900);
        assert_eq!(wheel.pop_before(bt).map(|e| e.payload), Some(0));
        heap.pop();
        // Parked: 1000's bucket is settled, the clock still at 10.
        assert!(wheel.pop_before(bt).is_none());
        assert_eq!(wheel.peek_near(), Some(&1));
        // Both in buckets before the run's: filed into it, in order.
        file_both(&mut wheel, &mut heap, 500, 2);
        assert_eq!(wheel.peek_near(), Some(&2));
        file_both(&mut wheel, &mut heap, 10, 3);
        assert_eq!(look_ahead(&wheel, 3), [Some(3), Some(2), Some(1)]);
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![3, 2, 1]);
    }

    #[test]
    fn an_out_of_order_seq_filed_into_the_next_bucket_pops_in_seq_order() {
        let (mut wheel, mut heap) = (EventQueue::new(), HeapQueue::new());
        let mut both = |at: u64, seq: u64, p: u32| {
            wheel.schedule_at_seq(SimTime::from_nanos(at), seq, p);
            heap.schedule_at_seq(SimTime::from_nanos(at), seq, p);
        };
        both(40, 5, 0);
        both(60, 1, 1);
        both(40, 2, 2); // below every seq filed for 40
        both(40, 3, 3); // between them
        assert_eq!(wheel.peek_key(), Some((SimTime::from_nanos(40), 2)));
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![2, 3, 0, 1]);
    }

    #[test]
    fn a_jump_over_empty_epochs_into_a_far_epoch_settles_its_first_bucket() {
        // An odd epoch: the near level's first half is the ring's upper
        // half, and the next epoch wraps to buckets numbered below it. Two
        // events of its first bucket, the later filed first; one of a later
        // bucket of it, one of the next epoch; and an overflow event that a
        // second jump files straight into an empty near level.
        let (mut wheel, mut heap) = (EventQueue::new(), HeapQueue::new());
        let far = 41 * EPOCH;
        let over = (FAR_EPOCHS + 300) * EPOCH + 7;
        for (at, p) in [
            (far + 20, 1),
            (far + 10, 0),
            (far + EPOCH + 5, 3),
            (far + 600, 2),
            (over, 4),
        ] {
            file_both(&mut wheel, &mut heap, at, p);
        }
        assert_eq!(wheel.occupancy_breakdown(), (0, 4, 1));
        assert_eq!(wheel.peek_near(), None, "nothing is near before the jump");
        assert_eq!(wheel.peek_key().map(|(t, _)| t.as_nanos()), Some(far + 10));
        assert_eq!(wheel.pop().map(|e| e.payload), Some(0));
        heap.pop();
        assert_eq!(wheel.now(), SimTime::from_nanos(far + 10));
        assert_eq!(look_ahead(&wheel, 4), [Some(1), Some(2), Some(3), None]);
        assert_eq!(drain_both(&mut wheel, &mut heap), vec![1, 2, 3, 4]);
        assert_eq!(wheel.now(), SimTime::from_nanos(over));
    }

    #[test]
    fn a_drained_burst_leaves_at_most_the_spare_chunks() {
        // 100 000 events in one bucket: its chunks, the bucket's list of
        // them and the run it settles into all grow to the burst's size.
        const BURST: u64 = 100_000;
        let mut q = EventQueue::new();
        let fixed = q.resident_bytes();
        for i in 0..BURST {
            q.schedule_at(SimTime::from_nanos(512 + i % 512), i as u32);
        }
        let entry = EventQueue::<u32>::ENTRY_BYTES;
        assert!(q.resident_bytes() - fixed >= BURST as usize * entry);
        // Settled, the run holds them; the chunks beyond the spares are gone.
        assert_eq!(q.pop().map(|e| e.payload), Some(0));
        assert!(q.resident_bytes() - fixed >= (BURST as usize - 1) * entry);
        while q.pop().is_some() {}
        // Drained, the calendar keeps only spare chunks and their list.
        let spare_bytes = q.resident_bytes() - fixed;
        let bound = SPARE_CHUNKS * (CHUNK * entry + std::mem::size_of::<Vec<Entry<u32>>>());
        assert!(
            spare_bytes <= bound,
            "{spare_bytes} B held after the burst, over {bound} B of spare chunks"
        );
    }

    /// Look-ahead depths the properties check: the run loop's and beyond.
    const LOOK_AHEAD: usize = 4;

    /// The `k`-th look-ahead is the oracle's `k`-th pending event's payload
    /// whenever the near level holds more than `k` events, and `None` only
    /// when it does not.
    fn assert_peek_near_matches(wheel: &EventQueue<u32>, heap: &HeapQueue<u32>) {
        let (near, _, _) = wheel.occupancy_breakdown();
        for k in 0..LOOK_AHEAD {
            let want = heap.peek_nth(k).copied().filter(|_| near > k);
            assert_eq!(peek_near_nth(wheel, k), want, "look-ahead {k} of {near}");
        }
    }

    /// After a pop (or a bounded pop that parks) the run holds the next
    /// near event if there is one, so the look-ahead reads it without a
    /// scan.
    fn assert_run_is_settled(wheel: &EventQueue<u32>) {
        assert!(
            wheel.near_len == 0 || !wheel.run.is_empty(),
            "a pop left the next bucket unsettled"
        );
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
                assert_run_is_settled(&wheel);
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
    /// bounds that park mid-bucket: what the append fast path of `link`
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
                    assert_run_is_settled(&wheel);
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
                    assert_run_is_settled(&wheel);
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
        // occupied buckets, bounded pops parking mid-bucket.
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
