//! Generic per-shard bookkeeping for conservative windowed simulation.
//!
//! The sharded engine splits a run into lookahead windows. Each shard owns
//! a *persistent* private [`EventQueue`] holding every pending event of its
//! partition; within a window it drains that calendar up to the window
//! boundary with [`EventQueue::pop_before`] and returns an execution
//! journal. The driver's only calendar holds global events (faults,
//! migrations, telemetry samples); its sequence counter is the global
//! `(time, seq)` authority.
//!
//! Sequence numbers make the merge exact:
//!
//! * Events scheduled *before* a window opened already carry their real
//!   global sequence number (granted at an earlier merge, or assigned by
//!   the driver at registration) — a shard inserts them with
//!   [`EventQueue::schedule_at_seq`].
//! * Events scheduled *during* a window (causal children) don't know their
//!   global seq yet. [`ShardState::sched_local`] queues them under a
//!   provisional key `PROV_BIT | ordinal`. The tag bit makes a provisional
//!   key compare greater than every real seq at the same instant — which
//!   is exactly right, because a child scheduled mid-window always receives
//!   a larger global seq than anything scheduled before the window opened.
//!   Among themselves, children order by ordinal = local scheduling order,
//!   which is their global scheduling order restricted to the shard
//!   (cross-shard events only arrive in *later* windows, thanks to the
//!   lookahead).
//! * [`merge_journals`] replays the blocks of all shards in global
//!   `(time, resolved seq)` order, resolving child ordinals through the
//!   per-shard grant vectors it accumulates, and returns those vectors so
//!   the driver can hand every shard the real seqs for the children it
//!   parked past the boundary or shipped across the cut.
//!
//! No provisional key ever survives a window: children are only queued
//! locally when they land strictly before the boundary, and the window
//! drains everything before the boundary.

use crate::event::EventQueue;
use crate::time::SimTime;

/// Tag bit marking a provisional (window-local child) sequence key.
pub const PROV_BIT: u64 = 1 << 63;

/// What a journal block's executed event corresponds to globally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqRef {
    /// An event that already carried its real global sequence number.
    Orig(u64),
    /// The n-th scheduling this shard performed in the current window
    /// (counting every scheduling — local, deferred, or cross-shard — in
    /// execution order). The merge resolves the ordinal to a global
    /// sequence number when the parent's journal record replays.
    Child(u32),
}

/// Per-window child-ordinal accounting for one shard.
#[derive(Debug, Default)]
pub struct ShardState {
    /// Schedulings performed this window (the child ordinal counter).
    sched_count: u32,
}

impl ShardState {
    /// Empty bookkeeping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new window: resets the per-window child ordinal counter.
    pub fn open_window(&mut self) {
        self.sched_count = 0;
    }

    /// Records a local child scheduling: queues `payload` at `at` under a
    /// provisional key and returns the child ordinal.
    pub fn sched_local<E>(
        &mut self,
        queue: &mut EventQueue<E>,
        at: SimTime,
        payload: E,
    ) -> u32 {
        let ord = self.sched_count;
        self.sched_count += 1;
        queue.schedule_at_seq(at, PROV_BIT | ord as u64, payload);
        ord
    }

    /// Records a scheduling whose event does not enter the local calendar
    /// yet (parked past the boundary, or bound for another shard): only an
    /// ordinal is consumed.
    pub fn sched_deferred(&mut self) -> u32 {
        let ord = self.sched_count;
        self.sched_count += 1;
        ord
    }

    /// Resolves a popped sequence key to its global identity.
    pub fn resolve(seq: u64) -> SeqRef {
        if seq & PROV_BIT != 0 {
            SeqRef::Child((seq & !PROV_BIT) as u32)
        } else {
            SeqRef::Orig(seq)
        }
    }
}

/// One journal entry boundary the merge needs: when and as-whom a shard
/// executed an event. The payload (scheds, metric ops, traces) lives in
/// the caller's journal type.
pub trait JournalBlock {
    /// Execution instant of the block.
    fn time(&self) -> SimTime;
    /// Global identity of the executed event.
    fn seq_ref(&self) -> SeqRef;
}

/// K-way merges per-shard journals back into global `(time, seq)` order.
///
/// `journals[i]` is shard `i`'s execution-ordered journal for one window.
/// `replay` is called once per block, in global order, with
/// `(shard, block)` — by value, so what the block carries moves on; it must
/// return the global sequence numbers assigned to the block's schedulings,
/// in scheduling order, so later blocks that reference those children by
/// ordinal can be positioned. Within a shard, `(time, resolved seq)` is
/// non-decreasing (local execution follows the same comparator), which is
/// what makes a streaming merge possible.
///
/// Returns the per-shard grant vectors (global seq of child ordinal `n` at
/// index `n`): shard `i` inserts its parked past-boundary events under the
/// real seqs in `child_seqs[i]` (provisional keys never survive a window, so
/// the calendar itself needs no re-keying).
pub fn merge_journals<B: JournalBlock, I: IntoIterator<Item = u64>>(
    journals: Vec<Vec<B>>,
    mut replay: impl FnMut(usize, B) -> I,
) -> Vec<Vec<u64>> {
    // Global seqs of each shard's window children, indexed by ordinal.
    let mut child_seqs: Vec<Vec<u64>> = vec![Vec::new(); journals.len()];
    let mut heads: Vec<_> = journals
        .into_iter()
        .map(|j| j.into_iter().peekable())
        .collect();
    loop {
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (shard, j) in heads.iter_mut().enumerate() {
            let Some(block) = j.peek() else {
                continue;
            };
            let seq = match block.seq_ref() {
                SeqRef::Orig(s) => s,
                SeqRef::Child(ord) => child_seqs[shard][ord as usize],
            };
            let key = (block.time(), seq, shard);
            if best.is_none_or(|(t, s, _)| (key.0, key.1) < (t, s)) {
                best = Some(key);
            }
        }
        let Some((_, _, shard)) = best else { break };
        let block = heads[shard].next().expect("peeked");
        child_seqs[shard].extend(replay(shard, block));
    }
    child_seqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    struct Block {
        time: SimTime,
        seq_ref: SeqRef,
        // Global seqs this block's scheds should be assigned (test fixture).
        scheds: Vec<u64>,
        label: u32,
    }

    impl JournalBlock for Block {
        fn time(&self) -> SimTime {
            self.time
        }
        fn seq_ref(&self) -> SeqRef {
            self.seq_ref
        }
    }

    fn b(t: u64, r: SeqRef, scheds: Vec<u64>, label: u32) -> Block {
        Block {
            time: SimTime::from_nanos(t),
            seq_ref: r,
            scheds,
            label,
        }
    }

    #[test]
    fn merge_restores_global_order_with_child_resolution() {
        // Shard 0: event seq 10 at t=5 schedules children that get global
        // seqs 100 and 101; ordinal 1 (seq 101) executes at t=7.
        // Shard 1: event seq 11 at t=5, event seq 50 at t=7.
        // Global order: (5,10), (5,11), (7,50), (7,101).
        let j0 = vec![
            b(5, SeqRef::Orig(10), vec![100, 101], 0),
            b(7, SeqRef::Child(1), vec![], 3),
        ];
        let j1 = vec![
            b(5, SeqRef::Orig(11), vec![], 1),
            b(7, SeqRef::Orig(50), vec![], 2),
        ];
        let mut order = Vec::new();
        let grants = merge_journals(vec![j0, j1], |_, blk| {
            order.push(blk.label);
            blk.scheds
        });
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(grants, vec![vec![100, 101], vec![]]);
    }

    #[test]
    fn provisional_keys_round_trip_and_order_after_real_seqs() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut s = ShardState::new();
        s.open_window();
        // Pre-window events carry real global seqs.
        q.schedule_at_seq(SimTime::from_nanos(3), 42, 1);
        q.schedule_at_seq(SimTime::from_nanos(4), 40, 2);
        let ord_def = s.sched_deferred();
        assert_eq!(ord_def, 0);
        // A mid-window child at the same instant as a real event pops after
        // it, regardless of insertion order.
        let ord_loc = s.sched_local(&mut q, SimTime::from_nanos(3), 3);
        assert_eq!(ord_loc, 1);
        let e1 = q.pop().unwrap();
        assert_eq!(e1.payload, 1);
        assert_eq!(ShardState::resolve(e1.seq), SeqRef::Orig(42));
        let e2 = q.pop().unwrap();
        assert_eq!(e2.payload, 3);
        assert_eq!(ShardState::resolve(e2.seq), SeqRef::Child(1));
        let e3 = q.pop().unwrap();
        assert_eq!(e3.payload, 2);
        assert_eq!(ShardState::resolve(e3.seq), SeqRef::Orig(40));
        s.open_window();
        assert_eq!(s.sched_deferred(), 0, "ordinals reset per window");
    }
}
