//! Concurrent control-plane state: `RwLock`-striped mapping shards.
//!
//! The servable flavor of the control plane. VIPs are hashed onto a fixed
//! set of stripes, each an independently locked [`MappingDb`], and a global
//! atomic epoch counts accepted writes across stripes. Many TCP connections
//! execute batches against one [`StripedControlPlane`] concurrently.
//!
//! The table is worked a stripe at a time, so that a lock, an epoch add and
//! a stripe's cache lines are paid once per burst rather than once per op.
//! [`StripedControlPlane::preload`] partitions its entries by stripe and
//! installs each stripe's share under one write lock, after one
//! [`MappingDb::reserve`]. [`StripedControlPlane::execute_shared`] runs the
//! keyed ops between two barriers (`Snapshot`, `Stats`) as one group per
//! stripe touched. One pass over the batch bins each keyed op under its
//! stripe (a multiply-shift range reduction, no division) and marks which
//! groups write, so no group is rescanned to choose its lock. Then each
//! group takes its lock once — a read lock if it only looks up —, its
//! VIPs' slots are fetched together ([`MappingDb::warm`]), and its ops run
//! in batch order, each reply stored straight into its slot.
//!
//! Consistency model (documented, tested): per-VIP operations are
//! linearizable (a VIP always lives on exactly one stripe, and a batch never
//! reorders two ops on one VIP); a batch's replies and reply epoch are those
//! of executing it front to back; the global epoch is monotonic over
//! accepted writes. Another connection may see one batch's writes on
//! different stripes land in stripe order rather than batch order — only
//! per-VIP order is promised. [`StripedControlPlane::snapshot`] holds every
//! stripe's read lock simultaneously, so it observes an instant where no
//! write is in flight. A lock poisoned by a panicked handler is recovered
//! (`write` says why that is sound): one bad batch must not turn the daemon
//! into one that panics on every request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use sv2p_packet::{Pip, Vip};
use sv2p_telemetry::profile::Histogram;
use sv2p_vnet::{MappingDb, MappingOp};

use crate::api::{CtlOp, CtlReply, ReplyBatch, RequestBatch, ServiceStats};

/// Default stripe count for servers (16 spreads writers well past the
/// connection counts a loopback bench drives).
pub const DEFAULT_STRIPES: usize = 16;

#[derive(Debug, Default)]
struct AtomicCounts {
    batches: AtomicU64,
    ops: AtomicU64,
    lookups: AtomicU64,
    hits: AtomicU64,
    installs: AtomicU64,
    invalidates: AtomicU64,
    migrates: AtomicU64,
    rejected: AtomicU64,
    snapshots: AtomicU64,
}

impl AtomicCounts {
    /// The counters as a [`ServiceStats`]; the caller fills in the state
    /// dimensions (`epoch`, `mappings`) and the exec-time percentiles.
    fn load(&self) -> ServiceStats {
        ServiceStats {
            batches: self.batches.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            installs: self.installs.load(Ordering::Relaxed),
            invalidates: self.invalidates.load(Ordering::Relaxed),
            migrates: self.migrates.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            ..ServiceStats::default()
        }
    }

    /// Publishes a batch's local tally (its counter fields; the rest are
    /// ignored).
    fn add(&self, t: &ServiceStats) {
        self.batches.fetch_add(t.batches, Ordering::Relaxed);
        self.ops.fetch_add(t.ops, Ordering::Relaxed);
        self.lookups.fetch_add(t.lookups, Ordering::Relaxed);
        self.hits.fetch_add(t.hits, Ordering::Relaxed);
        self.installs.fetch_add(t.installs, Ordering::Relaxed);
        self.invalidates.fetch_add(t.invalidates, Ordering::Relaxed);
        self.migrates.fetch_add(t.migrates, Ordering::Relaxed);
        self.rejected.fetch_add(t.rejected, Ordering::Relaxed);
        self.snapshots.fetch_add(t.snapshots, Ordering::Relaxed);
    }
}

/// A stripe's write lock together with the writes accepted under it, which
/// are added to the global epoch when this drops — before the lock is
/// released, and also when a group unwinds, so the epoch counts every write
/// the table holds.
struct WriteGroup<'a> {
    db: RwLockWriteGuard<'a, MappingDb>,
    epoch: &'a AtomicU64,
    accepted: u64,
}

impl Drop for WriteGroup<'_> {
    fn drop(&mut self) {
        // Runs before the fields drop, so the lock is still held.
        self.epoch.fetch_add(self.accepted, Ordering::SeqCst);
    }
}

impl WriteGroup<'_> {
    /// Applies one write and tallies it; `Rejected` leaves state and epoch
    /// unchanged.
    fn apply(&mut self, op: MappingOp, tally: &mut ServiceStats) -> CtlReply {
        match self.db.try_apply(op) {
            Ok(delta) => {
                self.accepted += 1;
                *match op {
                    MappingOp::Install { .. } => &mut tally.installs,
                    MappingOp::Invalidate { .. } => &mut tally.invalidates,
                    MappingOp::Migrate { .. } => &mut tally.migrates,
                } += 1;
                CtlReply::Applied {
                    old: delta.old,
                    new: delta.new,
                }
            }
            Err(e) => {
                tally.rejected += 1;
                CtlReply::Rejected { reason: e.into() }
            }
        }
    }
}

/// A counted lookup.
fn lookup(db: &MappingDb, vip: Vip, tally: &mut ServiceStats) -> CtlReply {
    tally.lookups += 1;
    match db.lookup(vip) {
        Some(pip) => {
            tally.hits += 1;
            CtlReply::Found { pip }
        }
        None => CtlReply::NotFound,
    }
}

/// `RwLock`-striped concurrent control-plane state.
#[derive(Debug)]
pub struct StripedControlPlane {
    stripes: Box<[RwLock<MappingDb>]>,
    /// Accepted writes so far; the authoritative epoch (per-stripe
    /// `MappingDb` epochs are ignored).
    epoch: AtomicU64,
    counts: AtomicCounts,
    /// Per-batch service time, nanoseconds (telemetry's log-linear
    /// histogram; locked only once per batch).
    exec_ns: Mutex<Histogram>,
}

impl StripedControlPlane {
    /// An empty control plane with `stripes` lock stripes (min 1).
    pub fn new(stripes: usize) -> Self {
        let n = stripes.max(1);
        StripedControlPlane {
            stripes: (0..n).map(|_| RwLock::new(MappingDb::new())).collect(),
            epoch: AtomicU64::new(0),
            counts: AtomicCounts::default(),
            exec_ns: Mutex::new(Histogram::new()),
        }
    }

    /// Number of lock stripes.
    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Stripe `i`'s read guard, recovered if a writer panicked.
    fn read(&self, i: usize) -> RwLockReadGuard<'_, MappingDb> {
        self.stripes[i]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Stripe `i`'s write guard, recovered if a writer panicked.
    ///
    /// Recovery is sound because the table is consistent at every point a
    /// write under this guard can unwind. Each write is one
    /// `MappingDb::try_apply`. It probes for its slot before it stores
    /// anything, and the stores and counter increments after the probe
    /// cannot panic. Its one allocating step, a rehash, aborts the process
    /// on allocation failure rather than unwind, and its capacity-overflow
    /// panic needs a table larger than the address space. So a guard is poisoned only by a panic
    /// between whole ops, never in the middle of one — and a [`WriteGroup`]
    /// that unwinds still adds the ops it applied to the epoch. (A batch
    /// that unwinds does lose its unpublished op counters.)
    fn write(&self, i: usize) -> RwLockWriteGuard<'_, MappingDb> {
        self.stripes[i]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Stripe `i`'s write lock as a [`WriteGroup`].
    fn write_group(&self, i: usize) -> WriteGroup<'_> {
        WriteGroup {
            db: self.write(i),
            epoch: &self.epoch,
            accepted: 0,
        }
    }

    /// The service-time histogram, recovered if a recorder panicked (a
    /// recording is one bucket increment, so there is nothing half-done).
    fn exec_hist(&self) -> MutexGuard<'_, Histogram> {
        self.exec_ns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The stripe `vip` lives on: Fibonacci hashing, then a multiply-shift
    /// range reduction. The product's high bits spread a dense VIP range
    /// evenly over the stripes, and the high word of `h x stripes` maps
    /// them onto `0..stripes` without a division.
    fn stripe_of(&self, vip: Vip) -> usize {
        let h = u64::from(vip.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((u128::from(h) * self.stripes.len() as u128) >> 64) as usize
    }

    /// Seeds mappings without touching the op counters; each entry still
    /// advances the epoch, as a `MappingDb` seeded by `apply` would, and a
    /// VIP listed twice ends at its last PIP.
    ///
    /// The entries are partitioned by stripe, keeping their order, and each
    /// stripe's share is installed under one write lock after one
    /// [`MappingDb::reserve`], with one epoch add. One stripe's table is
    /// filled at a time, so the lines being written stay in cache.
    pub fn preload(&self, entries: impl IntoIterator<Item = (Vip, Pip)>) {
        let entries = entries.into_iter();
        let n = self.stripes.len();
        // An eighth over the even share: a dense range never outgrows it.
        let share = entries.size_hint().0 / n;
        let mut parts: Vec<Vec<(Vip, Pip)>> = (0..n)
            .map(|_| Vec::with_capacity(share + share / 8))
            .collect();
        for (vip, pip) in entries {
            parts[self.stripe_of(vip)].push((vip, pip));
        }
        for (i, part) in parts.into_iter().enumerate() {
            let mut group = self.write_group(i);
            group.db.reserve(part.len());
            for (vip, pip) in part {
                group.db.apply(MappingOp::Install { vip, pip });
                group.accepted += 1;
            }
        }
    }

    /// The current global epoch (accepted writes so far).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Live mappings, summed across stripes (each stripe locked briefly in
    /// turn; an instantaneous figure only when no writer is active).
    pub fn len(&self) -> usize {
        (0..self.stripes.len()).map(|i| self.read(i).len()).sum()
    }

    /// True when no stripe holds a mapping.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorted full-table dump under a simultaneous all-stripe read lock. A
    /// pure read: only a `Snapshot` op counts in [`Self::stats`].
    pub fn snapshot(&self) -> Vec<(Vip, Pip)> {
        // Lock in index order (the only order anyone takes multiple
        // stripes) — no deadlock possible.
        let guards: Vec<_> = (0..self.stripes.len()).map(|i| self.read(i)).collect();
        let mut entries: Vec<(Vip, Pip)> = guards.iter().flat_map(|g| g.iter()).collect();
        entries.sort_unstable_by_key(|&(v, _)| v.0);
        entries
    }

    /// Cumulative counters plus per-batch service-time percentiles.
    pub fn stats(&self) -> ServiceStats {
        let (exec_p50_ns, exec_p99_ns) = {
            let h = self.exec_hist();
            (h.percentile(50.0), h.percentile(99.0))
        };
        ServiceStats {
            epoch: self.epoch(),
            mappings: self.len() as u64,
            exec_p50_ns,
            exec_p99_ns,
            ..self.counts.load()
        }
    }

    /// Executes a batch and returns one reply per op: the replies, and the
    /// reply batch's `epoch` (the global epoch after the batch), are those
    /// of executing the ops front to back. The one batch interpreter: every
    /// server thread and every in-process caller runs this through a
    /// shared reference.
    ///
    /// `Snapshot` and `Stats` are barriers. Between two barriers the keyed
    /// ops run as one group per stripe, stripe by stripe: each group under
    /// one lock (a read lock if it only looks up), its slots warmed first,
    /// its ops in batch order. So per-VIP order is kept, and a barrier sees
    /// every op before it and none after. One pass over the batch bins each
    /// keyed op by stripe and marks the groups that write; the op counters
    /// are tallied locally and published before each barrier and at the
    /// end.
    pub fn execute_shared(&self, req: &RequestBatch) -> ReplyBatch {
        let start = Instant::now();
        let ops = &req.ops;
        let mut replies = Vec::new();
        replies.resize_with(ops.len(), || CtlReply::NotFound);
        let mut tally = ServiceStats {
            batches: 1,
            ops: ops.len() as u64,
            ..ServiceStats::default()
        };
        let mut groups = Groups::new(self.stripes.len(), ops.len());
        let mut from = 0;
        for (at, op) in ops.iter().enumerate() {
            if let Some(vip) = op.vip() {
                let write = !matches!(op, CtlOp::Lookup { .. });
                groups.push(self.stripe_of(vip), vip, write);
                continue;
            }
            self.run_groups(
                &ops[from..at],
                &mut groups,
                &mut replies[from..at],
                &mut tally,
            );
            self.counts.add(&std::mem::take(&mut tally));
            replies[at] = match op {
                CtlOp::Snapshot => {
                    self.counts.snapshots.fetch_add(1, Ordering::Relaxed);
                    CtlReply::Snapshot {
                        entries: self.snapshot(),
                    }
                }
                _ => CtlReply::Stats {
                    stats: Box::new(self.stats()),
                },
            };
            from = at + 1;
        }
        self.run_groups(&ops[from..], &mut groups, &mut replies[from..], &mut tally);
        self.counts.add(&tally);
        let rep = ReplyBatch {
            id: req.id,
            epoch: self.epoch(),
            replies,
        };
        self.exec_hist().record(start.elapsed().as_nanos() as u64);
        rep
    }

    /// Runs the keyed `ops` binned in `groups` (no barrier among them) as
    /// one group per stripe, writing op `k`'s reply to `replies[k]`, and
    /// empties `groups` for the next segment. The groups come from a stable
    /// counting sort of the op indices by stripe, so each keeps batch order.
    fn run_groups(
        &self,
        ops: &[CtlOp],
        groups: &mut Groups,
        replies: &mut [CtlReply],
        tally: &mut ServiceStats,
    ) {
        if ops.is_empty() {
            return;
        }
        groups.sort();
        let order = &groups.order;
        let mut begin = 0;
        for s in 0..self.stripes.len() {
            let end = groups.ends[s] as usize;
            let group = &order[begin..end];
            begin = end;
            if group.is_empty() {
                continue;
            }
            let vips = group.iter().map(|&(_, vip)| vip);
            if !groups.writes[s] {
                let db = self.read(s);
                db.warm(vips);
                for &(k, vip) in group {
                    replies[k as usize] = lookup(&db, vip, tally);
                }
            } else {
                let mut w = self.write_group(s);
                w.db.warm(vips);
                for &(k, vip) in group {
                    let k = k as usize;
                    replies[k] = match ops[k].as_mapping_op() {
                        Some(op) => w.apply(op, tally),
                        None => lookup(&w.db, vip, tally),
                    };
                }
            }
        }
        groups.clear();
    }
}

/// The keyed ops of one segment (between two barriers), binned by stripe as
/// the batch pass meets them.
struct Groups {
    /// Each op's stripe and VIP, in batch order from the segment's first
    /// op.
    keys: Vec<(u32, Vip)>,
    /// Before [`Groups::sort`], `ends[s + 1]` counts stripe `s`'s ops;
    /// after it, `ends[s]` is where stripe `s`'s group ends in the order.
    ends: Vec<u32>,
    /// Whether stripe `s`'s group holds a write.
    writes: Vec<bool>,
    /// The op indices (from the segment's first op) and VIPs, grouped by
    /// stripe ([`Groups::sort`]'s output).
    order: Vec<(u32, Vip)>,
}

impl Groups {
    fn new(stripes: usize, ops: usize) -> Self {
        Groups {
            keys: Vec::with_capacity(ops),
            ends: vec![0; stripes + 1],
            writes: vec![false; stripes],
            order: Vec::with_capacity(ops),
        }
    }

    /// Bins the segment's next op.
    fn push(&mut self, stripe: usize, vip: Vip, write: bool) {
        self.keys.push((stripe as u32, vip));
        self.ends[stripe + 1] += 1;
        self.writes[stripe] |= write;
    }

    /// Puts the segment's op indices in `order` by stripe, batch order
    /// within a stripe: prefix sums turn the counts into group starts, and
    /// placing an op advances its group's start, so each ends at its
    /// group's end.
    fn sort(&mut self) {
        for s in 1..self.ends.len() {
            self.ends[s] += self.ends[s - 1];
        }
        self.order.clear();
        self.order.resize(self.keys.len(), (0, Vip(0)));
        for (k, &(s, vip)) in self.keys.iter().enumerate() {
            let at = &mut self.ends[s as usize];
            self.order[*at as usize] = (k as u32, vip);
            *at += 1;
        }
    }

    /// Empties the bins for the next segment.
    fn clear(&mut self) {
        self.keys.clear();
        self.ends.fill(0);
        self.writes.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RejectReason;
    use std::sync::{Arc, Barrier};

    fn batch(ops: Vec<CtlOp>) -> RequestBatch {
        RequestBatch { id: 0, ops }
    }

    #[test]
    fn striped_basic_ops_and_epoch() {
        let cp = StripedControlPlane::new(4);
        assert_eq!(cp.stripes(), 4);
        cp.preload((0..100u32).map(|i| (Vip(i), Pip(1000 + i))));
        assert_eq!(cp.len(), 100);
        assert_eq!(cp.epoch(), 100);
        let rep = cp.execute_shared(&batch(vec![
            CtlOp::Lookup { vip: Vip(7) },
            CtlOp::Lookup { vip: Vip(500) },
            CtlOp::Migrate {
                vip: Vip(7),
                to_pip: Pip(9),
                at_ns: None,
            },
            CtlOp::Lookup { vip: Vip(7) },
            // Rejected writes change nothing.
            CtlOp::Migrate {
                vip: Vip(999),
                to_pip: Pip(1),
                at_ns: None,
            },
        ]));
        assert_eq!(
            rep.replies,
            vec![
                CtlReply::Found { pip: Pip(1007) },
                CtlReply::NotFound,
                CtlReply::Applied {
                    old: Some(Pip(1007)),
                    new: Some(Pip(9))
                },
                CtlReply::Found { pip: Pip(9) },
                CtlReply::Rejected {
                    reason: RejectReason::UnknownVip
                },
            ]
        );
        assert_eq!((rep.epoch, cp.epoch()), (101, 101));
        let s = cp.stats();
        assert_eq!((s.batches, s.ops, s.lookups, s.hits), (1, 5, 3, 2));
        assert_eq!((s.installs, s.migrates, s.rejected), (0, 1, 1));
    }

    /// Reading the table in process counts nothing; a `Snapshot` op counts
    /// once.
    #[test]
    fn snapshot_is_a_pure_read_and_the_op_counts_once() {
        let cp = StripedControlPlane::new(4);
        cp.preload((0..10u32).map(|i| (Vip(i), Pip(100 + i))));
        let before = cp.stats();
        assert_eq!(cp.snapshot().len(), 10);
        assert_eq!(cp.stats(), before);
        cp.execute_shared(&batch(vec![CtlOp::Snapshot]));
        assert_eq!(cp.stats().snapshots, 1);
    }

    #[test]
    fn snapshot_is_globally_sorted() {
        let cp = StripedControlPlane::new(8);
        cp.preload([5u32, 1, 9, 3].into_iter().map(|v| (Vip(v), Pip(v + 100))));
        assert_eq!(
            cp.snapshot(),
            vec![
                (Vip(1), Pip(101)),
                (Vip(3), Pip(103)),
                (Vip(5), Pip(105)),
                (Vip(9), Pip(109)),
            ]
        );
    }

    /// A bulk preload ends where installing the same entries one batch at a
    /// time does — same table, length and epoch, a repeated VIP at its last
    /// PIP — and counts no op, whatever the iterator's size hint.
    #[test]
    fn preload_is_installing_one_at_a_time_without_counting() {
        // 500 entries over 300 VIPs: 200 VIPs listed twice.
        let entries: Vec<(Vip, Pip)> = (0..500u32)
            .map(|i| (Vip(i * 7 % 300), Pip(10_000 + i)))
            .collect();
        let mut last = std::collections::BTreeMap::new();
        for &(vip, pip) in &entries {
            last.insert(vip, pip);
        }
        let want: Vec<(Vip, Pip)> = last.into_iter().collect();
        for stripes in [1, 3, 16] {
            let one = StripedControlPlane::new(stripes);
            for &(vip, pip) in &entries {
                one.execute_shared(&batch(vec![CtlOp::Install { vip, pip }]));
            }
            let exact = StripedControlPlane::new(stripes);
            exact.preload(entries.iter().copied());
            // `filter` hints a lower bound of 0; and two preloads in a row.
            let unhinted = StripedControlPlane::new(stripes);
            unhinted.preload(entries[..250].iter().copied().filter(|_| true));
            unhinted.preload(entries[250..].iter().copied().filter(|_| true));
            for bulk in [&exact, &unhinted] {
                let s = bulk.stats();
                assert_eq!(
                    s,
                    ServiceStats {
                        epoch: 500,
                        mappings: 300,
                        ..Default::default()
                    }
                );
                assert_eq!((bulk.len(), bulk.epoch()), (one.len(), one.epoch()));
                assert_eq!(bulk.snapshot(), one.snapshot());
                assert_eq!(bulk.snapshot(), want);
            }
        }
    }

    /// Four threads migrate and look up disjoint VIPs in batches at once:
    /// each lookup sees its own thread's migration, and every accepted
    /// write is in the epoch and the counters.
    #[test]
    fn concurrent_writers_account_every_write() {
        let cp = Arc::new(StripedControlPlane::new(8));
        cp.preload((0..64u32).map(|i| (Vip(i), Pip(i))));
        let start = Arc::new(Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let (cp, start) = (Arc::clone(&cp), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for b in 0..25u32 {
                        let mut ops = Vec::new();
                        for i in b * 10..b * 10 + 10 {
                            let vip = Vip(t * 16 + i % 16);
                            let to_pip = Pip(10_000 + t * 1000 + i);
                            ops.push(CtlOp::Migrate {
                                vip,
                                to_pip,
                                at_ns: Some(i as u64),
                            });
                            ops.push(CtlOp::Lookup { vip });
                        }
                        let rep = cp.execute_shared(&batch(ops));
                        for pair in rep.replies.chunks(2) {
                            let CtlReply::Applied { new: Some(pip), .. } = pair[0] else {
                                panic!("migration not applied: {:?}", pair[0]);
                            };
                            assert_eq!(pair[1], CtlReply::Found { pip });
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cp.epoch(), 64 + 4 * 250);
        let s = cp.stats();
        assert_eq!((s.batches, s.ops), (100, 2000));
        assert_eq!((s.migrates, s.lookups, s.hits), (1000, 1000, 1000));
        assert_eq!((s.epoch, s.mappings), (1064, 64));
    }

    #[test]
    fn a_write_group_that_unwinds_still_counts_its_writes() {
        let cp = StripedControlPlane::new(2);
        let vip = (0..)
            .map(Vip)
            .find(|&v| cp.stripe_of(v) == 0)
            .expect("a VIP on stripe 0");
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut w = cp.write_group(0);
            let mut tally = ServiceStats::default();
            w.apply(MappingOp::Install { vip, pip: Pip(1) }, &mut tally);
            w.apply(
                MappingOp::Migrate {
                    vip: Vip(u32::MAX),
                    to_pip: Pip(2),
                    at_ns: None,
                },
                &mut tally,
            );
            panic!("handler panics mid-group");
        }));
        assert!(died.is_err() && cp.stripes[0].is_poisoned());
        assert_eq!((cp.epoch(), cp.len()), (1, 1));
        let rep = cp.execute_shared(&batch(vec![CtlOp::Lookup { vip }]));
        assert_eq!(
            (rep.replies[0].clone(), rep.epoch),
            (CtlReply::Found { pip: Pip(1) }, 1)
        );
    }

    #[test]
    fn a_handler_panic_under_a_lock_leaves_every_call_answering() {
        let cp = Arc::new(StripedControlPlane::new(4));
        cp.preload((0..64u32).map(|i| (Vip(i), Pip(100 + i))));
        let held = Arc::clone(&cp);
        let died = std::thread::spawn(move || {
            let _stripe = held.write(0);
            let _hist = held.exec_hist();
            panic!("handler panics holding stripe 0 and the histogram");
        })
        .join();
        assert!(died.is_err());
        assert!(cp.stripes[0].is_poisoned() && cp.exec_ns.is_poisoned());

        let vip = (0..64)
            .map(Vip)
            .find(|&v| cp.stripe_of(v) == 0)
            .expect("a VIP on stripe 0");
        let rep = cp.execute_shared(&batch(vec![
            CtlOp::Lookup { vip },
            CtlOp::Migrate {
                vip,
                to_pip: Pip(7),
                at_ns: None,
            },
            CtlOp::Lookup { vip },
            CtlOp::Install {
                vip: Vip(64),
                pip: Pip(1),
            },
        ]));
        assert_eq!(
            rep.replies[..3],
            [
                CtlReply::Found {
                    pip: Pip(100 + vip.0)
                },
                CtlReply::Applied {
                    old: Some(Pip(100 + vip.0)),
                    new: Some(Pip(7))
                },
                CtlReply::Found { pip: Pip(7) },
            ]
        );
        assert_eq!(rep.epoch, 66);
        assert_eq!(cp.snapshot().len(), 65);
        assert_eq!(cp.len(), 65);
        let s = cp.stats();
        assert_eq!((s.epoch, s.mappings, s.batches, s.migrates), (66, 65, 1, 1));
    }
}
