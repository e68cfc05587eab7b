//! The mapping table the simulator embeds.
//!
//! `sv2p-netsim`'s `Engine` does not speak the batch API: it owns one
//! [`MappingDb`], reads it by reference on the gateway hot path and writes
//! it one [`MappingOp`] at a time. [`LocalControlPlane`] is exactly that —
//! the table behind a write door. Batches of [`crate::CtlOp`]s are
//! interpreted in one place only,
//! [`crate::StripedControlPlane::execute_shared`].

use sv2p_vnet::{MappingDb, MappingDelta, MappingOp};

/// One [`MappingDb`], readable by reference, writable only through
/// [`Self::apply`].
#[derive(Debug, Clone)]
pub struct LocalControlPlane {
    db: MappingDb,
}

impl LocalControlPlane {
    /// Wraps an already-seeded database (e.g. a placement's `seed_db()`).
    pub fn with_db(db: MappingDb) -> Self {
        LocalControlPlane { db }
    }

    /// The read view: gateways (and the simulator's agents) resolve against
    /// this directly.
    pub fn db(&self) -> &MappingDb {
        &self.db
    }

    /// Applies one write through the audited [`MappingDb::apply`] path.
    ///
    /// Panics if the op is rejected (unknown-VIP migration): in-process
    /// callers treat that as a harness bug, exactly as `MappingDb::apply`
    /// does.
    pub fn apply(&mut self, op: MappingOp) -> MappingDelta {
        self.db.apply(op)
    }

    /// The current write epoch.
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_packet::{Pip, Vip};

    #[test]
    fn writes_go_through_apply_and_bump_the_epoch() {
        let mut db = MappingDb::new();
        db.apply(MappingOp::Install { vip: Vip(1), pip: Pip(2) });
        let mut cp = LocalControlPlane::with_db(db);
        assert_eq!(cp.epoch(), 1);
        let delta = cp.apply(MappingOp::Migrate { vip: Vip(1), to_pip: Pip(3), at_ns: None });
        assert_eq!((delta.old, delta.new), (Some(Pip(2)), Some(Pip(3))));
        assert_eq!(cp.db().lookup(Vip(1)), Some(Pip(3)));
        assert_eq!(cp.epoch(), 2);
    }
}
