//! Concurrent control-plane state: `RwLock`-striped mapping shards.
//!
//! The servable flavor of the control plane. VIPs are hashed onto a fixed
//! set of stripes, each an independently locked [`MappingDb`]; reads take a
//! stripe read lock, writes a stripe write lock, and a global atomic epoch
//! orders accepted writes across stripes. Many TCP connections execute
//! batches against one [`StripedControlPlane`] concurrently.
//!
//! Consistency model (documented, tested): per-VIP operations are
//! linearizable (a VIP always lives on exactly one stripe); the global
//! epoch is monotonic over accepted writes; [`StripedControlPlane::snapshot`]
//! holds every stripe's read lock simultaneously, so it observes an
//! instant where no write is in flight. A lock poisoned by a panicked
//! handler is recovered (`write` says why that is sound): one bad batch
//! must not turn the daemon into one that panics on every request.

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
        self.stripes[i].read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stripe `i`'s write guard, recovered if a writer panicked.
    ///
    /// Recovery is sound because the table is consistent at every point a
    /// write under this guard can unwind. The only write is one
    /// `MappingDb::try_apply`. It probes for its slot before it stores
    /// anything, and the stores and counter increments after the probe
    /// cannot panic. Its allocating steps (a rehash, the migration-instant
    /// side table growing) abort the process on allocation failure rather
    /// than unwind, and their capacity-overflow panics need a table larger
    /// than the address space. So a guard is poisoned only by a panic
    /// between whole ops, never in the middle of one.
    fn write(&self, i: usize) -> RwLockWriteGuard<'_, MappingDb> {
        self.stripes[i].write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The service-time histogram, recovered if a recorder panicked (a
    /// recording is one bucket increment, so there is nothing half-done).
    fn exec_hist(&self) -> MutexGuard<'_, Histogram> {
        self.exec_ns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stripe_of(&self, vip: Vip) -> usize {
        // Avalanche so dense VIP ranges spread across stripes.
        let mut h = (vip.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 32;
        (h % self.stripes.len() as u64) as usize
    }

    /// Seeds mappings without touching the op counters (each entry still
    /// advances the epoch, as a `MappingDb` seeded by `apply` would).
    pub fn preload(&self, entries: impl IntoIterator<Item = (Vip, Pip)>) {
        for (vip, pip) in entries {
            self.write(self.stripe_of(vip))
                .apply(MappingOp::Install { vip, pip });
            self.epoch.fetch_add(1, Ordering::SeqCst);
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

    /// Counted concurrent lookup.
    pub fn lookup(&self, vip: Vip) -> Option<Pip> {
        self.counts.lookups.fetch_add(1, Ordering::Relaxed);
        let hit = self.read(self.stripe_of(vip)).lookup(vip);
        if hit.is_some() {
            self.counts.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Applies one write; `Err` means rejected (state and epoch unchanged).
    pub fn apply(&self, op: MappingOp) -> Result<CtlReply, CtlReply> {
        let mut db = self.write(self.stripe_of(op.vip()));
        match db.try_apply(op) {
            Ok(delta) => {
                self.epoch.fetch_add(1, Ordering::SeqCst);
                match op {
                    MappingOp::Install { .. } => {
                        self.counts.installs.fetch_add(1, Ordering::Relaxed)
                    }
                    MappingOp::Invalidate { .. } => {
                        self.counts.invalidates.fetch_add(1, Ordering::Relaxed)
                    }
                    MappingOp::Migrate { .. } => {
                        self.counts.migrates.fetch_add(1, Ordering::Relaxed)
                    }
                };
                Ok(CtlReply::Applied {
                    old: delta.old,
                    new: delta.new,
                })
            }
            Err(e) => {
                self.counts.rejected.fetch_add(1, Ordering::Relaxed);
                Err(CtlReply::Rejected { reason: e.into() })
            }
        }
    }

    /// Sorted full-table dump under a simultaneous all-stripe read lock.
    pub fn snapshot(&self) -> Vec<(Vip, Pip)> {
        self.counts.snapshots.fetch_add(1, Ordering::Relaxed);
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

    /// Executes every op in order and returns one reply per op; the reply
    /// batch's `epoch` is the global epoch after the last op. The one batch
    /// interpreter: every server thread and every in-process caller runs
    /// this through a shared reference.
    pub fn execute_shared(&self, req: &RequestBatch) -> ReplyBatch {
        let start = Instant::now();
        self.counts.batches.fetch_add(1, Ordering::Relaxed);
        self.counts.ops.fetch_add(req.ops.len() as u64, Ordering::Relaxed);
        let mut replies = Vec::with_capacity(req.ops.len());
        for op in &req.ops {
            let reply = match *op {
                CtlOp::Lookup { vip } => match self.lookup(vip) {
                    Some(pip) => CtlReply::Found { pip },
                    None => CtlReply::NotFound,
                },
                CtlOp::Snapshot => CtlReply::Snapshot {
                    entries: self.snapshot(),
                },
                CtlOp::Stats => CtlReply::Stats { stats: self.stats() },
                _ => {
                    let mop = op.as_mapping_op().expect("write op");
                    match self.apply(mop) {
                        Ok(r) | Err(r) => r,
                    }
                }
            };
            replies.push(reply);
        }
        let rep = ReplyBatch {
            id: req.id,
            epoch: self.epoch(),
            replies,
        };
        self.exec_hist().record(start.elapsed().as_nanos() as u64);
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RejectReason;
    use std::sync::Arc;

    #[test]
    fn striped_basic_ops_and_epoch() {
        let cp = StripedControlPlane::new(4);
        assert_eq!(cp.stripes(), 4);
        cp.preload((0..100u32).map(|i| (Vip(i), Pip(1000 + i))));
        assert_eq!(cp.len(), 100);
        assert_eq!(cp.epoch(), 100);
        assert_eq!(cp.lookup(Vip(7)), Some(Pip(1007)));
        assert_eq!(cp.lookup(Vip(500)), None);
        let rep = cp
            .apply(MappingOp::Migrate { vip: Vip(7), to_pip: Pip(9), at_ns: None })
            .unwrap();
        assert_eq!(rep, CtlReply::Applied { old: Some(Pip(1007)), new: Some(Pip(9)) });
        assert_eq!(cp.epoch(), 101);
        // Rejected writes change nothing.
        let rej = cp
            .apply(MappingOp::Migrate { vip: Vip(999), to_pip: Pip(1), at_ns: None })
            .unwrap_err();
        assert_eq!(rej, CtlReply::Rejected { reason: RejectReason::UnknownVip });
        assert_eq!(cp.epoch(), 101);
        let s = cp.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.migrates, 1);
        assert_eq!(s.rejected, 1);
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

    #[test]
    fn concurrent_writers_account_every_write() {
        let cp = Arc::new(StripedControlPlane::new(8));
        cp.preload((0..64u32).map(|i| (Vip(i), Pip(i))));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cp = Arc::clone(&cp);
                std::thread::spawn(move || {
                    for i in 0..250u32 {
                        let vip = Vip((t * 16 + i % 16) % 64);
                        cp.apply(MappingOp::Migrate {
                            vip,
                            to_pip: Pip(10_000 + t * 1000 + i),
                            at_ns: Some(i as u64),
                        })
                        .unwrap();
                        cp.lookup(vip);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cp.epoch(), 64 + 4 * 250);
        let s = cp.stats();
        assert_eq!(s.migrates, 1000);
        assert_eq!(s.lookups, 1000);
        assert_eq!(s.hits, 1000);
        assert_eq!(s.mappings, 64);
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

        let vip = (0..64).map(Vip).find(|&v| cp.stripe_of(v) == 0).expect("a VIP on stripe 0");
        assert_eq!(cp.lookup(vip), Some(Pip(100 + vip.0)));
        let moved = cp.apply(MappingOp::Migrate { vip, to_pip: Pip(7), at_ns: None });
        assert_eq!(moved, Ok(CtlReply::Applied { old: Some(Pip(100 + vip.0)), new: Some(Pip(7)) }));
        let rep = cp.execute_shared(&RequestBatch {
            id: 1,
            ops: vec![CtlOp::Lookup { vip }, CtlOp::Install { vip: Vip(64), pip: Pip(1) }],
        });
        assert_eq!(rep.replies[0], CtlReply::Found { pip: Pip(7) });
        assert_eq!(rep.epoch, 66);
        assert_eq!(cp.snapshot().len(), 65);
        assert_eq!(cp.len(), 65);
        let s = cp.stats();
        assert_eq!((s.epoch, s.mappings, s.batches, s.migrates), (66, 65, 1, 1));
    }
}
