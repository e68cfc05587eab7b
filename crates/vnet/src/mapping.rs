//! The V2P mapping database — the "ground truth at the gateways" (§3.3) as
//! a served control plane stores it: arbitrary VIP → PIP pairs, installed,
//! withdrawn and migrated by clients. (The simulator's VIPs are dense, so
//! its ground truth is the [`crate::Placement`] itself.) In-network caches
//! are *not* kept coherent with it — that is the whole point of the paper's
//! lazy invalidation design.
//!
//! All mutation flows through one audited entry point, [`MappingDb::apply`]
//! (and its non-panicking sibling [`MappingDb::try_apply`]): the servable
//! `v2p-controlplane` library mutates state by submitting a [`MappingOp`]
//! and observing the returned [`MappingDelta`]. There is no other mutator.

use sv2p_packet::{Pip, Vip};

/// One control-plane mutation against the V2P table.
///
/// This is the write-side vocabulary of the control plane: everything that
/// can change the authoritative mapping state is one of these three ops, so
/// a log of `MappingOp`s fully determines a database's end state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingOp {
    /// Install or overwrite a mapping (tenant VM placement / re-placement).
    Install {
        /// The virtual address being placed.
        vip: Vip,
        /// The physical location it resolves to.
        pip: Pip,
    },
    /// Remove a mapping entirely (tenant departure). Removing an absent VIP
    /// is a no-op that still advances the epoch (the write was accepted).
    Invalidate {
        /// The virtual address being withdrawn.
        vip: Vip,
    },
    /// Move an existing mapping to a new physical location (VM migration).
    Migrate {
        /// The migrating virtual address.
        vip: Vip,
        /// Destination physical address.
        to_pip: Pip,
        /// Migration instant in virtual nanoseconds, if the client tracks
        /// it. Accepted and not stored: no reader of the table asks when a
        /// VIP moved.
        at_ns: Option<u64>,
    },
}

impl MappingOp {
    /// The VIP this op touches.
    pub fn vip(&self) -> Vip {
        match *self {
            MappingOp::Install { vip, .. }
            | MappingOp::Invalidate { vip }
            | MappingOp::Migrate { vip, .. } => vip,
        }
    }
}

/// What one applied [`MappingOp`] changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingDelta {
    /// The VIP that was written.
    pub vip: Vip,
    /// The mapping before the op (`None`: the VIP did not exist).
    pub old: Option<Pip>,
    /// The mapping after the op (`None`: the VIP no longer exists).
    pub new: Option<Pip>,
    /// The database epoch *after* this op was applied.
    pub epoch: u64,
}

/// Why [`MappingDb::try_apply`] rejected an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// A `Migrate` named a VIP that was never placed.
    UnknownVip(Vip),
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::UnknownVip(vip) => {
                write!(f, "migrating a VIP that was never placed: {vip}")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// Outcome of a slot probe: the VIP's live slot, or where it would go.
enum Probe {
    /// The VIP is resident at this slot.
    Found(usize),
    /// The VIP is absent; this is the slot an insert should claim (the
    /// first tombstone on the probe path, else the terminating empty slot).
    Vacant(usize),
}

/// The authoritative virtual-to-physical mapping table.
///
/// Storage is an open-addressed flat table — one array of 8-byte
/// `(Vip, Pip)` slots with per-slot live/tombstone bitmaps and linear
/// probing — rather than a per-entry HashMap. A slot holds key and value
/// side by side, so a probe that finds its key reads one cache line for
/// both. At million-VM scale this costs ~12 bytes per mapping (vs ~50 for
/// the former `FxHashMap<Vip, Pip>`), and the layout is fully
/// deterministic: the same op sequence yields the same slots, so
/// [`Self::iter`] order is reproducible across runs.
///
/// Two methods serve bulk callers: [`Self::reserve`] sizes the table once
/// for a known number of inserts, and [`Self::warm`] touches a set of VIPs'
/// home slots ahead of the probes that will read them.
#[derive(Debug, Clone, Default)]
pub struct MappingDb {
    /// Key and value per slot; meaningful only where the `live` bit is set.
    slots: Vec<Slot>,
    /// Bit per slot: holds a live entry.
    live: Vec<u64>,
    /// Bit per slot: vacated by an `Invalidate` (probe chains continue
    /// through tombstones; they are reclaimed on rehash).
    tombstone: Vec<u64>,
    /// Live entries.
    len: usize,
    /// Live entries + tombstones (table pressure for the grow policy).
    used: usize,
    /// Bumped on every update; lets tests and metrics distinguish
    /// reads-after-write from stale cache serving.
    epoch: u64,
}

/// One table slot: a mapping's key and value, adjacent.
type Slot = (Vip, Pip);

const _: () = assert!(std::mem::size_of::<Slot>() == 8);

#[inline]
fn avalanche(x: u32) -> u64 {
    // The same 64-bit finalizer the switch cache model uses.
    let mut h = x as u64;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 29;
    h
}

#[inline]
fn bit_get(bits: &[u64], i: usize) -> bool {
    bits[i >> 6] & (1u64 << (i & 63)) != 0
}

#[inline]
fn bit_set(bits: &mut [u64], i: usize) {
    bits[i >> 6] |= 1u64 << (i & 63);
}

#[inline]
fn bit_clear(bits: &mut [u64], i: usize) {
    bits[i >> 6] &= !(1u64 << (i & 63));
}

impl MappingDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The insert probe for `vip`: it also finds the slot an absent VIP
    /// should claim. The table must be non-empty.
    fn probe(&self, vip: Vip) -> Probe {
        let mask = self.slots.len() - 1;
        let mut i = (avalanche(vip.0) as usize) & mask;
        let mut first_tombstone = None;
        loop {
            if bit_get(&self.live, i) {
                if self.slots[i].0 == vip {
                    return Probe::Found(i);
                }
            } else if bit_get(&self.tombstone, i) {
                first_tombstone.get_or_insert(i);
            } else {
                return Probe::Vacant(first_tombstone.unwrap_or(i));
            }
            i = (i + 1) & mask;
        }
    }

    /// Rehashes into a table of `cap` slots (power of two), dropping
    /// tombstones. Slot order — and thus [`Self::iter`] order — stays a
    /// pure function of the live key set and the capacity.
    fn rehash(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two() && cap >= self.len);
        let old_slots = std::mem::take(&mut self.slots);
        let old_live = std::mem::take(&mut self.live);
        self.slots = vec![(Vip(0), Pip(0)); cap];
        self.live = vec![0u64; cap.div_ceil(64)];
        self.tombstone = vec![0u64; cap.div_ceil(64)];
        self.used = self.len;
        let mask = cap - 1;
        for (slot, &entry) in old_slots.iter().enumerate() {
            if !bit_get(&old_live, slot) {
                continue;
            }
            let mut i = (avalanche(entry.0 .0) as usize) & mask;
            while bit_get(&self.live, i) {
                i = (i + 1) & mask;
            }
            self.slots[i] = entry;
            bit_set(&mut self.live, i);
        }
    }

    /// Makes room for `more` inserts beyond the live entries, so that many
    /// inserts of new VIPs trigger no rehash: at most one rehash happens
    /// here, straight to the capacity they need. A bulk load calls this
    /// once instead of paying the doubling chain one insert at a time.
    ///
    /// Panics if the capacity needed overflows `usize`.
    pub fn reserve(&mut self, more: usize) {
        let fits = |entries: usize, cap: usize| entries as u128 * 8 <= cap as u128 * 7;
        let overflow = "MappingDb capacity overflow";
        let cap = self.slots.len();
        if fits(self.used.checked_add(more).expect(overflow), cap) {
            return;
        }
        // A rehash drops the tombstones, so only the live entries count.
        let want = self.len + more;
        let mut target = cap.max(16);
        while !fits(want, target) {
            target = target.checked_mul(2).expect(overflow);
        }
        self.rehash(target);
    }

    /// Reads the home slot of every VIP in `vips`, each load independent of
    /// the others, so the core overlaps their cache misses. A pass of
    /// probes for the same VIPs that follows finds its lines in cache, so
    /// on a table larger than the cache the group pays about one miss
    /// latency rather than one per probe. It changes nothing.
    pub fn warm(&self, vips: impl IntoIterator<Item = Vip>) {
        if self.slots.is_empty() {
            return;
        }
        let mask = self.slots.len() - 1;
        let mut seen = 0u32;
        for vip in vips {
            seen ^= self.slots[(avalanche(vip.0) as usize) & mask].0 .0;
        }
        std::hint::black_box(seen);
    }

    /// Ensures one more entry fits under the 7/8 load-factor ceiling.
    fn reserve_one(&mut self) {
        let cap = self.slots.len();
        if cap == 0 {
            self.rehash(16);
        } else if (self.used + 1) * 8 > cap * 7 {
            // Doubling also reclaims tombstones; a table that is mostly
            // tombstones rehashes at the same capacity instead of growing.
            let target = if self.len * 4 > cap { cap * 2 } else { cap };
            self.rehash(target.max(16));
        }
    }

    /// Inserts or overwrites `vip → pip`, returning the previous value.
    fn table_insert(&mut self, vip: Vip, pip: Pip) -> Option<Pip> {
        self.reserve_one();
        match self.probe(vip) {
            Probe::Found(i) => Some(std::mem::replace(&mut self.slots[i].1, pip)),
            Probe::Vacant(i) => {
                if bit_get(&self.tombstone, i) {
                    bit_clear(&mut self.tombstone, i);
                } else {
                    self.used += 1;
                }
                self.slots[i] = (vip, pip);
                bit_set(&mut self.live, i);
                self.len += 1;
                None
            }
        }
    }

    /// Removes `vip`, returning its value. Leaves a tombstone.
    fn table_remove(&mut self, vip: Vip) -> Option<Pip> {
        let i = self.slot_of(vip)?;
        bit_clear(&mut self.live, i);
        bit_set(&mut self.tombstone, i);
        self.len -= 1;
        Some(self.slots[i].1)
    }

    /// The live slot index of `vip`, if mapped. The read-only probe: it
    /// keeps no first tombstone, so it is small enough to inline into a
    /// caller's loop.
    #[inline]
    fn slot_of(&self, vip: Vip) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (avalanche(vip.0) as usize) & mask;
        loop {
            if bit_get(&self.live, i) {
                if self.slots[i].0 == vip {
                    return Some(i);
                }
            } else if !bit_get(&self.tombstone, i) {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Applies one control-plane op; every accepted write advances the
    /// epoch by exactly one. `Err` leaves the database untouched.
    pub fn try_apply(&mut self, op: MappingOp) -> Result<MappingDelta, ApplyError> {
        let delta = match op {
            MappingOp::Install { vip, pip } => {
                let old = self.table_insert(vip, pip);
                self.epoch += 1;
                MappingDelta {
                    vip,
                    old,
                    new: Some(pip),
                    epoch: self.epoch,
                }
            }
            MappingOp::Invalidate { vip } => {
                let old = self.table_remove(vip);
                self.epoch += 1;
                MappingDelta {
                    vip,
                    old,
                    new: None,
                    epoch: self.epoch,
                }
            }
            MappingOp::Migrate { vip, to_pip, .. } => {
                let Some(slot) = self.slot_of(vip) else {
                    return Err(ApplyError::UnknownVip(vip));
                };
                let old = std::mem::replace(&mut self.slots[slot].1, to_pip);
                self.epoch += 1;
                MappingDelta {
                    vip,
                    old: Some(old),
                    new: Some(to_pip),
                    epoch: self.epoch,
                }
            }
        };
        Ok(delta)
    }

    /// [`Self::try_apply`] for callers where a rejected op is a harness
    /// bug, not a runtime condition (the simulator's control plane).
    ///
    /// Panics if the op is rejected — e.g. migrating a VIP that was never
    /// placed.
    pub fn apply(&mut self, op: MappingOp) -> MappingDelta {
        match self.try_apply(op) {
            Ok(delta) => delta,
            Err(e) => panic!("{e}"),
        }
    }

    /// Resolves a VIP (gateway read). `None` means the VIP does not exist —
    /// a tenant misconfiguration the gateway drops.
    #[inline]
    pub fn lookup(&self, vip: Vip) -> Option<Pip> {
        self.slot_of(vip).map(|i| self.slots[i].1)
    }

    /// True if `vip` is currently mapped.
    pub fn contains(&self, vip: Vip) -> bool {
        self.slot_of(vip).is_some()
    }

    /// Number of mappings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no mappings exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current write epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Iterates over all mappings in slot order (deterministic for a given
    /// op sequence; consumers needing a canonical order sort, as the
    /// control-plane snapshot does).
    pub fn iter(&self) -> impl Iterator<Item = (Vip, Pip)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(i, _)| bit_get(&self.live, i))
            .map(|(_, &slot)| slot)
    }

    /// Resident bytes of the mapping state: the flat table's slots and
    /// both bitmaps at current capacity. Feeds the benchmark's
    /// `vnet.v2p_state_mb` metric so table capacity vs resident memory
    /// stays a tracked surface.
    pub fn resident_bytes(&self) -> usize {
        let cap = self.slots.len();
        cap * std::mem::size_of::<Slot>() + 2 * (cap.div_ceil(64)) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_lookup_roundtrip() {
        let mut db = MappingDb::new();
        assert!(db.is_empty());
        let d = db.apply(MappingOp::Install {
            vip: Vip(1),
            pip: Pip(10),
        });
        assert_eq!(d.old, None);
        assert_eq!(d.new, Some(Pip(10)));
        assert_eq!(d.epoch, 1);
        assert_eq!(db.lookup(Vip(1)), Some(Pip(10)));
        assert_eq!(db.lookup(Vip(2)), None);
        assert!(db.contains(Vip(1)));
        assert!(!db.contains(Vip(2)));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn migrate_returns_old_location_and_bumps_epoch() {
        let mut db = MappingDb::new();
        db.apply(MappingOp::Install {
            vip: Vip(1),
            pip: Pip(10),
        });
        let e0 = db.epoch();
        let d = db.apply(MappingOp::Migrate {
            vip: Vip(1),
            to_pip: Pip(20),
            at_ns: None,
        });
        assert_eq!(d.old, Some(Pip(10)));
        assert_eq!(db.lookup(Vip(1)), Some(Pip(20)));
        assert!(db.epoch() > e0);
    }

    #[test]
    #[should_panic(expected = "never placed")]
    fn migrating_unknown_vip_panics() {
        let mut db = MappingDb::new();
        db.apply(MappingOp::Migrate {
            vip: Vip(1),
            to_pip: Pip(20),
            at_ns: None,
        });
    }

    #[test]
    fn try_apply_rejects_unknown_migration_without_mutating() {
        let mut db = MappingDb::new();
        let err = db
            .try_apply(MappingOp::Migrate {
                vip: Vip(9),
                to_pip: Pip(1),
                at_ns: None,
            })
            .unwrap_err();
        assert_eq!(err, ApplyError::UnknownVip(Vip(9)));
        assert_eq!(db.epoch(), 0);
        assert!(db.is_empty());
    }

    #[test]
    fn reinstall_overwrites() {
        let mut db = MappingDb::new();
        db.apply(MappingOp::Install {
            vip: Vip(1),
            pip: Pip(10),
        });
        let d = db.apply(MappingOp::Install {
            vip: Vip(1),
            pip: Pip(11),
        });
        assert_eq!(d.old, Some(Pip(10)));
        assert_eq!(db.lookup(Vip(1)), Some(Pip(11)));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn invalidate_removes_and_advances_epoch() {
        let mut db = MappingDb::new();
        db.apply(MappingOp::Install {
            vip: Vip(1),
            pip: Pip(10),
        });
        db.apply(MappingOp::Migrate {
            vip: Vip(1),
            to_pip: Pip(20),
            at_ns: Some(1_000),
        });
        let e = db.epoch();
        let d = db.apply(MappingOp::Invalidate { vip: Vip(1) });
        assert_eq!(d.old, Some(Pip(20)));
        assert_eq!(d.new, None);
        assert_eq!(d.epoch, e + 1);
        assert_eq!(db.lookup(Vip(1)), None);
        // Invalidating an absent VIP is accepted and still versioned.
        let d2 = db.apply(MappingOp::Invalidate { vip: Vip(1) });
        assert_eq!(d2.old, None);
        assert_eq!(d2.epoch, e + 2);
    }

    #[test]
    fn apply_sequences_install_and_timestamped_migrations() {
        let mut db = MappingDb::new();
        db.apply(MappingOp::Install {
            vip: Vip(1),
            pip: Pip(10),
        });
        assert_eq!(db.lookup(Vip(1)), Some(Pip(10)));
        let d = db.apply(MappingOp::Migrate {
            vip: Vip(1),
            to_pip: Pip(20),
            at_ns: None,
        });
        assert_eq!(d.old, Some(Pip(10)));
        let d = db.apply(MappingOp::Migrate {
            vip: Vip(1),
            to_pip: Pip(30),
            at_ns: Some(7_000),
        });
        assert_eq!(d.old, Some(Pip(20)));
        assert_eq!(db.lookup(Vip(1)), Some(Pip(30)));
        assert_eq!(db.epoch(), 3);
    }

    #[test]
    fn grows_past_initial_capacity_and_iter_covers_everything() {
        let mut db = MappingDb::new();
        for i in 0..10_000u32 {
            db.apply(MappingOp::Install {
                vip: Vip(i),
                pip: Pip(i + 1),
            });
        }
        assert_eq!(db.len(), 10_000);
        assert_eq!(db.epoch(), 10_000);
        for i in (0..10_000u32).step_by(97) {
            assert_eq!(db.lookup(Vip(i)), Some(Pip(i + 1)));
        }
        let mut seen: Vec<(Vip, Pip)> = db.iter().collect();
        seen.sort();
        assert_eq!(seen.len(), 10_000);
        assert_eq!(seen[0], (Vip(0), Pip(1)));
        assert_eq!(seen[9_999], (Vip(9_999), Pip(10_000)));
        assert!(db.resident_bytes() >= 10_000 * 8);
    }

    #[test]
    fn reserve_rehashes_once_and_the_reserved_inserts_never() {
        let mut db = MappingDb::new();
        db.reserve(0);
        assert_eq!(
            db.resident_bytes(),
            0,
            "reserving nothing allocates nothing"
        );
        db.reserve(10_000);
        let sized = db.resident_bytes();
        assert!(sized >= 10_000 * 8);
        for i in 0..10_000u32 {
            db.apply(MappingOp::Install {
                vip: Vip(i),
                pip: Pip(i),
            });
        }
        assert_eq!(db.resident_bytes(), sized, "a reserved insert rehashed");
        // Room already there: no change.
        db.reserve(1);
        assert_eq!(db.resident_bytes(), sized);
        // Tombstones do not count against a reservation's rehash.
        for i in 0..10_000u32 {
            db.apply(MappingOp::Invalidate { vip: Vip(i) });
        }
        db.reserve(10_000);
        assert_eq!(db.resident_bytes(), sized);
        for i in 0..10_000u32 {
            db.apply(MappingOp::Install {
                vip: Vip(i + 20_000),
                pip: Pip(i),
            });
        }
        assert_eq!(db.resident_bytes(), sized);
        assert_eq!((db.len(), db.epoch()), (10_000, 30_000));
        assert_eq!(db.lookup(Vip(20_007)), Some(Pip(7)));
        assert_eq!(db.lookup(Vip(7)), None);
    }

    #[test]
    fn warm_changes_nothing() {
        let mut db = MappingDb::new();
        db.warm([Vip(1), Vip(2)]);
        db.apply(MappingOp::Install {
            vip: Vip(1),
            pip: Pip(10),
        });
        let before: Vec<_> = db.iter().collect();
        db.warm((0..100).map(Vip));
        assert_eq!(db.iter().collect::<Vec<_>>(), before);
        assert_eq!((db.len(), db.epoch()), (1, 1));
    }

    #[test]
    fn tombstones_are_reused_without_unbounded_growth() {
        let mut db = MappingDb::new();
        // Churn far more ops than the table has slots: installs and
        // invalidates of a small working set must not grow the table.
        for round in 0..5_000u32 {
            let vip = Vip(round % 7);
            db.apply(MappingOp::Install {
                vip,
                pip: Pip(round),
            });
            db.apply(MappingOp::Invalidate { vip });
        }
        assert!(db.is_empty());
        assert_eq!(db.epoch(), 10_000);
        assert!(
            db.resident_bytes() < 4096,
            "7-entry working set ballooned to {} bytes",
            db.resident_bytes()
        );
        db.apply(MappingOp::Install {
            vip: Vip(3),
            pip: Pip(42),
        });
        assert_eq!(db.lookup(Vip(3)), Some(Pip(42)));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn colliding_keys_survive_interleaved_removal() {
        // All multiples of 16 in a 16-slot table collide heavily; removing
        // the middle of a probe chain must not orphan later entries.
        let mut db = MappingDb::new();
        let vips: Vec<Vip> = (0..12u32).map(|i| Vip(i * 1_000_003)).collect();
        for &v in &vips {
            db.apply(MappingOp::Install {
                vip: v,
                pip: Pip(v.0 ^ 1),
            });
        }
        for &v in vips.iter().step_by(2) {
            db.apply(MappingOp::Invalidate { vip: v });
        }
        for (i, &v) in vips.iter().enumerate() {
            let expect = if i % 2 == 0 { None } else { Some(Pip(v.0 ^ 1)) };
            assert_eq!(db.lookup(v), expect, "vip {v:?}");
        }
        assert_eq!(db.len(), 6);
    }

    #[test]
    fn op_vip_accessor() {
        assert_eq!(
            MappingOp::Install {
                vip: Vip(3),
                pip: Pip(4)
            }
            .vip(),
            Vip(3)
        );
        assert_eq!(MappingOp::Invalidate { vip: Vip(5) }.vip(), Vip(5));
        assert_eq!(
            MappingOp::Migrate {
                vip: Vip(6),
                to_pip: Pip(7),
                at_ns: None
            }
            .vip(),
            Vip(6)
        );
    }
}
