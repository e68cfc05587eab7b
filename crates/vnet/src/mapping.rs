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

/// The authoritative virtual-to-physical mapping table.
///
/// Storage is an open-addressed flat table — one array of 8-byte
/// `(Vip, Pip)` slots with linear probing and one `live` bit per slot —
/// rather than a per-entry HashMap. A slot holds key and value side by
/// side, so a probe that finds its key reads one cache line for both.
///
/// A capacity is any multiple of 64 slots (one `live` word each), not a
/// power of two: a VIP's home slot is its hash scaled to the capacity
/// (multiply-shift), and a probe wraps at the end by comparison. An
/// `Invalidate` shifts the rest of its probe run back into the hole
/// (Knuth's Algorithm R), so there are no tombstones and a chain ends at
/// the first empty slot. At most 3/4 of the slots are live: a miss on a
/// linear-probed table walks ½·(1 + 1/(1−α)²) slots, 8.5 at α = 3/4
/// against 32 at 7/8, and a 7/8 ceiling read about 5 % slower on
/// `ctl-mixed`'s `run_ns_per_unit` over 4 pairs. [`Self::reserve`] on an empty table sizes it exactly
/// (8.125 bytes a slot, so 10.8-10.9 bytes a mapping: 677 560 B for a
/// 62 500-mapping stripe, against 1 081 344 B at the next power of two);
/// growth of a non-empty table at least doubles it, so a table grown
/// insert by insert costs 10.8-21.7 bytes a mapping. The layout is fully
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
    /// Live entries.
    len: usize,
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

/// Whether `entries` fit in `cap` slots under the 3/4 load ceiling.
fn fits(entries: usize, cap: usize) -> bool {
    entries as u128 * 4 <= cap as u128 * 3
}

impl MappingDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot `vip`'s probe starts at: its hash scaled to the capacity,
    /// as the control plane picks a stripe.
    #[inline]
    fn home(&self, vip: Vip) -> usize {
        ((u128::from(avalanche(vip.0)) * self.slots.len() as u128) >> 64) as usize
    }

    /// The slot after `i`, wrapping at the end of the table.
    #[inline]
    fn next(&self, i: usize) -> usize {
        if i + 1 == self.slots.len() {
            0
        } else {
            i + 1
        }
    }

    /// The one probe: `Ok` with `vip`'s live slot, or `Err` with the empty
    /// slot that ends its chain, where an install puts it. The table must
    /// have a slot; the load ceiling keeps one empty.
    #[inline]
    fn probe(&self, vip: Vip) -> Result<usize, usize> {
        let mut i = self.home(vip);
        while bit_get(&self.live, i) {
            if self.slots[i].0 == vip {
                return Ok(i);
            }
            i = self.next(i);
        }
        Err(i)
    }

    /// The live slot of `vip`, if mapped.
    #[inline]
    fn find(&self, vip: Vip) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(vip).ok()
    }

    /// Empties slot `hole` without a tombstone (Knuth's Algorithm R): each
    /// later entry of the run that sits at least as far from its home as
    /// from the hole — its home is not cyclically in (hole, j] — moves
    /// back into the hole, which moves on to where it was.
    fn remove_at(&mut self, mut hole: usize) {
        let cap = self.slots.len();
        let ahead = |from: usize, to: usize| {
            if to >= from {
                to - from
            } else {
                to + cap - from
            }
        };
        let mut j = self.next(hole);
        while bit_get(&self.live, j) {
            if ahead(self.home(self.slots[j].0), j) >= ahead(hole, j) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
            j = self.next(j);
        }
        bit_clear(&mut self.live, hole);
        self.len -= 1;
    }

    /// Rehashes into a table of `cap` slots (a multiple of 64). Slot order
    /// — and thus [`Self::iter`] order — stays a pure function of the op
    /// sequence.
    fn rehash(&mut self, cap: usize) {
        debug_assert!(cap.is_multiple_of(64) && fits(self.len, cap));
        let old_slots = std::mem::replace(&mut self.slots, vec![(Vip(0), Pip(0)); cap]);
        let old_live = std::mem::replace(&mut self.live, vec![0u64; cap / 64]);
        for (i, &entry) in old_slots.iter().enumerate() {
            if bit_get(&old_live, i) {
                let (Ok(at) | Err(at)) = self.probe(entry.0);
                self.slots[at] = entry;
                bit_set(&mut self.live, at);
            }
        }
    }

    /// Makes room for `more` inserts beyond the live entries, so that many
    /// inserts of new VIPs trigger no rehash: at most one rehash happens
    /// here. On an empty table it allocates exactly the multiple of 64
    /// slots that holds `more` under the 3/4 ceiling; a non-empty table
    /// that must grow at least doubles, so one `reserve(1)` per insert
    /// stays amortised O(1). A bulk load calls this once instead of paying
    /// the doubling chain one insert at a time.
    ///
    /// Panics if the capacity needed overflows `usize`.
    pub fn reserve(&mut self, more: usize) {
        let overflow = "MappingDb capacity overflow";
        let want = self.len.checked_add(more).expect(overflow);
        let cap = self.slots.len();
        if fits(want, cap) {
            return;
        }
        let exact = (want as u128 * 4).div_ceil(3).next_multiple_of(64);
        let exact = usize::try_from(exact).expect(overflow);
        let target = if self.is_empty() {
            exact
        } else {
            exact.max(cap.checked_mul(2).expect(overflow))
        };
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
        let mut seen = 0u32;
        for vip in vips {
            seen ^= self.slots[self.home(vip)].0 .0;
        }
        std::hint::black_box(seen);
    }

    /// Applies one control-plane op; every accepted write advances the
    /// epoch by exactly one. `Err` leaves the database untouched.
    pub fn try_apply(&mut self, op: MappingOp) -> Result<MappingDelta, ApplyError> {
        let (old, new) = match op {
            MappingOp::Install { vip, pip } => {
                // An overwrite adds no entry, so at the ceiling it must
                // not grow the table.
                if !fits(self.len + 1, self.slots.len()) && !self.contains(vip) {
                    self.reserve(1);
                }
                let old = match self.probe(vip) {
                    Ok(i) => Some(std::mem::replace(&mut self.slots[i].1, pip)),
                    Err(i) => {
                        self.slots[i] = (vip, pip);
                        bit_set(&mut self.live, i);
                        self.len += 1;
                        None
                    }
                };
                (old, Some(pip))
            }
            MappingOp::Invalidate { vip } => {
                let old = self.find(vip).map(|i| {
                    let pip = self.slots[i].1;
                    self.remove_at(i);
                    pip
                });
                (old, None)
            }
            MappingOp::Migrate { vip, to_pip, .. } => {
                let i = self.find(vip).ok_or(ApplyError::UnknownVip(vip))?;
                let old = std::mem::replace(&mut self.slots[i].1, to_pip);
                (Some(old), Some(to_pip))
            }
        };
        self.epoch += 1;
        Ok(MappingDelta {
            vip: op.vip(),
            old,
            new,
            epoch: self.epoch,
        })
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
        self.find(vip).map(|i| self.slots[i].1)
    }

    /// True if `vip` is currently mapped.
    pub fn contains(&self, vip: Vip) -> bool {
        self.find(vip).is_some()
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

    /// Resident bytes of the mapping state: the flat table's slots and its
    /// `live` bitmap at current capacity. Feeds the benchmark's
    /// `vnet.v2p_state_mb` metric so table capacity vs resident memory
    /// stays a tracked surface.
    pub fn resident_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>() + self.live.len() * 8
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
        // A full table overwrites in place.
        let mut full = MappingDb::new();
        full.reserve(48);
        let one_word = full.resident_bytes();
        for i in 0..48u32 {
            full.apply(MappingOp::Install {
                vip: Vip(i),
                pip: Pip(i),
            });
        }
        full.apply(MappingOp::Install {
            vip: Vip(3),
            pip: Pip(99),
        });
        assert_eq!((full.resident_bytes(), full.len()), (one_word, 48));
        assert_eq!(full.lookup(Vip(3)), Some(Pip(99)));
        // Invalidated slots are free again: no rehash to reuse them.
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

    /// A reserved table costs about 11 bytes a mapping at every size, where
    /// a power-of-two capacity swung between about 9 and 19 with where
    /// `n` fell against the next power of two.
    #[test]
    fn a_reserved_table_costs_its_entries_at_every_size() {
        for n in [1_000u32, 7_169, 57_344, 62_500, 131_072] {
            let mut db = MappingDb::new();
            db.reserve(n as usize);
            let sized = db.resident_bytes();
            for i in 0..n {
                db.apply(MappingOp::Install {
                    vip: Vip(i.wrapping_mul(2_654_435_761)),
                    pip: Pip(i),
                });
            }
            assert_eq!(db.len(), n as usize);
            assert_eq!(db.resident_bytes(), sized, "n = {n}: an install rehashed");
            assert!(
                sized <= 11 * n as usize + 1024,
                "n = {n}: {sized} bytes, {:.2} a mapping",
                sized as f64 / f64::from(n)
            );
        }
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
    fn churn_on_a_small_working_set_does_not_grow_the_table() {
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
        // Twelve VIPs whose home is one of the last two of 64 slots, so
        // their run wraps past the end; removing from its middle must not
        // orphan later entries, on either side of the wrap.
        let mut db = MappingDb::new();
        db.reserve(1);
        let vips: Vec<Vip> = (0..)
            .map(Vip)
            .filter(|&v| db.home(v) >= 62)
            .take(12)
            .collect();
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
        for &v in vips.iter().skip(1).step_by(2).rev() {
            assert_eq!(db.lookup(v), Some(Pip(v.0 ^ 1)), "vip {v:?}");
            db.apply(MappingOp::Invalidate { vip: v });
        }
        assert!(db.is_empty());
        assert_eq!(db.resident_bytes(), 64 * 8 + 8, "no install rehashed");
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
