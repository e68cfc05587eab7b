//! The transport-agnostic control-plane service.
//!
//! [`ControlPlaneService`] is the one interface every front-end drives:
//! the simulator's in-process client, `sv2p-ctld`'s per-connection TCP
//! handlers, and the integration tests all submit [`RequestBatch`]es and
//! get [`ReplyBatch`]es. Two implementations exist:
//!
//! * [`LocalControlPlane`] — single-writer, zero-synchronization. This is
//!   what `sv2p-netsim`'s `Engine` embeds: the simulator is just one
//!   more client of the same service a deployment would run.
//! * [`crate::StripedControlPlane`] — `RwLock`-striped concurrent state for
//!   the TCP server, where many connections execute batches in parallel.

use sv2p_packet::{Pip, Vip};
use sv2p_vnet::{MappingDb, MappingDelta, MappingOp};

use crate::api::{CtlOp, CtlReply, ReplyBatch, RequestBatch, ServiceStats};

/// Anything that can execute control-plane batches.
pub trait ControlPlaneService {
    /// Executes every op in order and returns one reply per op. The reply
    /// batch's `epoch` is the database epoch after the last op.
    fn execute(&mut self, req: &RequestBatch) -> ReplyBatch;
}

/// Plain (non-atomic) op counters, shared by both service flavors' logic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Batches executed.
    pub batches: u64,
    /// Ops executed.
    pub ops: u64,
    /// Lookups served.
    pub lookups: u64,
    /// Lookups that resolved.
    pub hits: u64,
    /// Installs applied.
    pub installs: u64,
    /// Invalidations applied.
    pub invalidates: u64,
    /// Migrations applied.
    pub migrates: u64,
    /// Writes rejected.
    pub rejected: u64,
    /// Snapshots served.
    pub snapshots: u64,
}

/// The single-threaded control plane: one [`MappingDb`] plus counters.
///
/// This is the in-process transport: calling [`Self::apply`] /
/// [`Self::execute`] is the library API the simulator consumes, and the
/// same logic the served path runs behind TCP.
#[derive(Debug, Clone, Default)]
pub struct LocalControlPlane {
    db: MappingDb,
    counts: OpCounts,
}

impl LocalControlPlane {
    /// An empty control plane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an already-seeded database (e.g. a placement's `seed_db()`).
    /// Seeding does not count toward the op counters.
    pub fn with_db(db: MappingDb) -> Self {
        LocalControlPlane {
            db,
            counts: OpCounts::default(),
        }
    }

    /// The read view: gateways (and the simulator's agents) resolve against
    /// this directly — reads are not serialized through the batch API.
    pub fn db(&self) -> &MappingDb {
        &self.db
    }

    /// Applies one write through the audited [`MappingDb::apply`] path.
    ///
    /// Panics if the op is rejected (unknown-VIP migration): in-process
    /// callers treat that as a harness bug, exactly as `MappingDb::apply`
    /// does.
    pub fn apply(&mut self, op: MappingOp) -> MappingDelta {
        self.count_write(&op);
        self.db.apply(op)
    }

    /// Counted lookup (the served read path).
    pub fn lookup(&mut self, vip: Vip) -> Option<Pip> {
        self.counts.lookups += 1;
        let hit = self.db.lookup(vip);
        if hit.is_some() {
            self.counts.hits += 1;
        }
        hit
    }

    /// The current write epoch.
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// Cumulative counters (local flavor reports no exec-time percentiles).
    pub fn stats(&self) -> ServiceStats {
        counts_to_stats(&self.counts, self.db.epoch(), self.db.len() as u64, 0, 0)
    }

    /// Sorted full-table dump.
    pub fn snapshot(&mut self) -> Vec<(Vip, Pip)> {
        self.counts.snapshots += 1;
        sorted_entries(&self.db)
    }

    fn count_write(&mut self, op: &MappingOp) {
        match op {
            MappingOp::Install { .. } => self.counts.installs += 1,
            MappingOp::Invalidate { .. } => self.counts.invalidates += 1,
            MappingOp::Migrate { .. } => self.counts.migrates += 1,
        }
    }
}

impl ControlPlaneService for LocalControlPlane {
    fn execute(&mut self, req: &RequestBatch) -> ReplyBatch {
        self.counts.batches += 1;
        self.counts.ops += req.ops.len() as u64;
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
                CtlOp::Stats => CtlReply::Stats {
                    stats: self.stats(),
                },
                _ => {
                    let mop = op.as_mapping_op().expect("write op");
                    self.count_write(&mop);
                    match self.db.try_apply(mop) {
                        Ok(delta) => CtlReply::Applied {
                            old: delta.old,
                            new: delta.new,
                        },
                        Err(e) => {
                            self.counts.rejected += 1;
                            // The write did not land; undo its kind count so
                            // counters reflect applied writes only.
                            match mop {
                                MappingOp::Install { .. } => self.counts.installs -= 1,
                                MappingOp::Invalidate { .. } => {
                                    self.counts.invalidates -= 1
                                }
                                MappingOp::Migrate { .. } => self.counts.migrates -= 1,
                            }
                            CtlReply::Rejected { reason: e.into() }
                        }
                    }
                }
            };
            replies.push(reply);
        }
        ReplyBatch {
            id: req.id,
            epoch: self.db.epoch(),
            replies,
        }
    }
}

/// Builds a [`ServiceStats`] from counters plus the state dimensions.
pub(crate) fn counts_to_stats(
    c: &OpCounts,
    epoch: u64,
    mappings: u64,
    exec_p50_ns: u64,
    exec_p99_ns: u64,
) -> ServiceStats {
    ServiceStats {
        batches: c.batches,
        ops: c.ops,
        lookups: c.lookups,
        hits: c.hits,
        installs: c.installs,
        invalidates: c.invalidates,
        migrates: c.migrates,
        rejected: c.rejected,
        snapshots: c.snapshots,
        epoch,
        mappings,
        exec_p50_ns,
        exec_p99_ns,
    }
}

/// All `(vip, pip)` pairs, sorted by VIP — the canonical dump order.
pub(crate) fn sorted_entries(db: &MappingDb) -> Vec<(Vip, Pip)> {
    let mut entries: Vec<(Vip, Pip)> = db.iter().collect();
    entries.sort_unstable_by_key(|&(v, _)| v.0);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RejectReason;

    #[test]
    fn local_executes_batches_in_order() {
        let mut cp = LocalControlPlane::new();
        let req = RequestBatch {
            id: 9,
            ops: vec![
                CtlOp::Install { vip: Vip(1), pip: Pip(10) },
                CtlOp::Lookup { vip: Vip(1) },
                CtlOp::Migrate { vip: Vip(1), to_pip: Pip(20), at_ns: Some(5) },
                CtlOp::Lookup { vip: Vip(1) },
                CtlOp::Invalidate { vip: Vip(1) },
                CtlOp::Lookup { vip: Vip(1) },
                CtlOp::Migrate { vip: Vip(1), to_pip: Pip(30), at_ns: None },
            ],
        };
        let rep = cp.execute(&req);
        assert_eq!(rep.id, 9);
        assert_eq!(
            rep.replies,
            vec![
                CtlReply::Applied { old: None, new: Some(Pip(10)) },
                CtlReply::Found { pip: Pip(10) },
                CtlReply::Applied { old: Some(Pip(10)), new: Some(Pip(20)) },
                CtlReply::Found { pip: Pip(20) },
                CtlReply::Applied { old: Some(Pip(20)), new: None },
                CtlReply::NotFound,
                CtlReply::Rejected { reason: RejectReason::UnknownVip },
            ]
        );
        // install + migrate + invalidate landed; the rejected migrate did not.
        assert_eq!(rep.epoch, 3);
        let s = cp.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.hits, 2);
        assert_eq!(s.installs, 1);
        assert_eq!(s.migrates, 1);
        assert_eq!(s.invalidates, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.mappings, 0);
    }

    #[test]
    fn with_db_seeding_is_uncounted() {
        let mut db = MappingDb::new();
        db.apply(MappingOp::Install { vip: Vip(1), pip: Pip(2) });
        let cp = LocalControlPlane::with_db(db);
        assert_eq!(cp.stats().installs, 0);
        assert_eq!(cp.stats().mappings, 1);
        assert_eq!(cp.epoch(), 1);
    }

    #[test]
    fn snapshot_is_sorted() {
        let mut cp = LocalControlPlane::new();
        for v in [5u32, 1, 9, 3] {
            cp.apply(MappingOp::Install { vip: Vip(v), pip: Pip(v + 100) });
        }
        let snap = cp.snapshot();
        assert_eq!(
            snap,
            vec![
                (Vip(1), Pip(101)),
                (Vip(3), Pip(103)),
                (Vip(5), Pip(105)),
                (Vip(9), Pip(109)),
            ]
        );
    }
}
