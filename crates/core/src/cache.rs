//! The in-switch direct-mapped cache (§3.2, "Cache structure").
//!
//! "Each cache entry includes a key (VIP), a value (PIP), and an access (A)
//! bit turned on upon a hit. The access bit is turned off when a lookup ends
//! up accessing that cache line but it is a miss." The P4 prototype realizes
//! this as three register arrays (keys, values, access bits); this model is
//! bit-for-bit the same state machine.

use sv2p_packet::{Pip, Vip};
use sv2p_simcore::Divisor;
use sv2p_vnet::CacheOp;

/// Admission policy for conflicting inserts (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Replace unconditionally (ToRs, gateway ToRs).
    All,
    /// Replace only if the resident entry's access bit is clear (spines,
    /// cores): a live entry is known-useful, the newcomer is speculative.
    AbitClear,
}

/// Result of an insertion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Stored in an empty line.
    Inserted,
    /// The key was already present; value refreshed (access bit untouched).
    Updated,
    /// A resident entry was replaced; the evictee is returned for spillover.
    Evicted {
        /// The replaced entry.
        vip: Vip,
        /// Its value.
        pip: Pip,
        /// Whether the evictee was recently useful (its access bit).
        abit: bool,
    },
    /// The admission policy kept the resident entry.
    Rejected,
}

/// Folds an [`InsertOutcome`] into telemetry [`CacheOp`]s. `accepted` is the
/// op to report when the new mapping actually entered the cache (`Insert`,
/// `Spill`, `Promote`, `Install`); an eviction is reported before it, an
/// in-place refresh becomes `Update`, and a rejection reports nothing.
///
/// Shared by every agent that owns a [`DirectMappedCache`] so all strategies
/// describe mutations with the same vocabulary.
pub fn push_insert_ops(ops: &mut Vec<CacheOp>, outcome: InsertOutcome, accepted: CacheOp) {
    match outcome {
        InsertOutcome::Inserted => ops.push(accepted),
        InsertOutcome::Updated => ops.push(CacheOp::Update {
            vip: accepted.vip(),
            pip: accepted.pip().expect("insert-style ops carry a pip"),
        }),
        InsertOutcome::Evicted { vip, pip, .. } => {
            ops.push(CacheOp::Evict { vip, pip });
            ops.push(accepted);
        }
        InsertOutcome::Rejected => {}
    }
}

/// A direct-mapped VIP → PIP cache with per-line access bits.
///
/// Lines are stored as packed parallel arrays — raw key and value words
/// plus one valid bit and one access bit per line — exactly the three
/// register arrays of the P4 prototype, and 8.25 bytes per line instead of
/// the 16 a `(Option<Vip>, Pip, bool)` struct padded to. A separate valid
/// bitmap is required because every `u32` is a legal VIP — there is no
/// sentinel key to steal.
#[derive(Debug, Clone)]
pub struct DirectMappedCache {
    keys: Vec<u32>,
    vals: Vec<u32>,
    /// Bit per line: the line holds a valid entry.
    valid: Vec<u64>,
    /// Bit per line: the access (A) bit.
    abit: Vec<u64>,
    /// The line count, which [`Self::index`] reduces a hash by (1 for a
    /// zero-line cache, which never indexes).
    lines: Divisor,
    /// Lookup attempts (hit-ratio diagnostics).
    pub lookups: u64,
    /// Successful lookups.
    pub hits: u64,
}

/// The same avalanche the ASIC's hash unit would provide; a VIP's line is
/// this modulo the line count.
#[inline]
fn line_hash(vip: Vip) -> u64 {
    let mut h = vip.0 as u64;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ h >> 29
}

#[inline]
fn bit_get(bits: &[u64], i: usize) -> bool {
    bits[i >> 6] & (1u64 << (i & 63)) != 0
}

#[inline]
fn bit_put(bits: &mut [u64], i: usize, v: bool) {
    if v {
        bits[i >> 6] |= 1u64 << (i & 63);
    } else {
        bits[i >> 6] &= !(1u64 << (i & 63));
    }
}

impl DirectMappedCache {
    /// A cache with `lines` entries. Zero lines is a valid, always-missing
    /// cache (non-caching switches).
    pub fn new(lines: usize) -> Self {
        DirectMappedCache {
            keys: vec![0; lines],
            vals: vec![0; lines],
            valid: vec![0; lines.div_ceil(64)],
            abit: vec![0; lines.div_ceil(64)],
            lines: Divisor::new(lines.max(1) as u64),
            lookups: 0,
            hits: 0,
        }
    }

    /// Capacity in lines.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[inline]
    fn index(&self, vip: Vip) -> usize {
        (line_hash(vip) % self.lines) as usize
    }

    /// Looks up `vip`. On a hit returns `(pip, abit_before_hit)` and sets the
    /// access bit; on a conflict miss clears the resident line's access bit
    /// (paper §3.2: an entry whose line keeps being probed for other keys is
    /// not earning its slot).
    pub fn lookup(&mut self, vip: Vip) -> Option<(Pip, bool)> {
        if self.keys.is_empty() {
            return None;
        }
        self.lookups += 1;
        let idx = self.index(vip);
        if !bit_get(&self.valid, idx) {
            return None;
        }
        if self.keys[idx] == vip.0 {
            let was_set = bit_get(&self.abit, idx);
            bit_put(&mut self.abit, idx, true);
            self.hits += 1;
            Some((Pip(self.vals[idx]), was_set))
        } else {
            bit_put(&mut self.abit, idx, false);
            None
        }
    }

    /// Reads without touching access bits (diagnostics).
    pub fn peek(&self, vip: Vip) -> Option<Pip> {
        if self.keys.is_empty() {
            return None;
        }
        let idx = self.index(vip);
        if bit_get(&self.valid, idx) && self.keys[idx] == vip.0 {
            Some(Pip(self.vals[idx]))
        } else {
            None
        }
    }

    /// Attempts to install `vip → pip` under `admission`. New entries start
    /// with a clear access bit ("turned on upon a hit").
    pub fn insert(&mut self, vip: Vip, pip: Pip, admission: Admission) -> InsertOutcome {
        if self.keys.is_empty() {
            return InsertOutcome::Rejected;
        }
        let idx = self.index(vip);
        let outcome = if !bit_get(&self.valid, idx) {
            InsertOutcome::Inserted
        } else if self.keys[idx] == vip.0 {
            self.vals[idx] = pip.0;
            return InsertOutcome::Updated;
        } else {
            let resident_abit = bit_get(&self.abit, idx);
            if admission == Admission::AbitClear && resident_abit {
                return InsertOutcome::Rejected;
            }
            InsertOutcome::Evicted {
                vip: Vip(self.keys[idx]),
                pip: Pip(self.vals[idx]),
                abit: resident_abit,
            }
        };
        self.keys[idx] = vip.0;
        self.vals[idx] = pip.0;
        bit_put(&mut self.valid, idx, true);
        bit_put(&mut self.abit, idx, false);
        outcome
    }

    /// Invalidates `vip`. With `only_if_pip`, the entry is removed only when
    /// it still maps to that (stale) value — a newer mapping survives, per
    /// §3.3. Returns true if an entry was removed.
    pub fn invalidate(&mut self, vip: Vip, only_if_pip: Option<Pip>) -> bool {
        if self.keys.is_empty() {
            return false;
        }
        let idx = self.index(vip);
        if !bit_get(&self.valid, idx) || self.keys[idx] != vip.0 {
            return false;
        }
        if let Some(stale) = only_if_pip {
            if self.vals[idx] != stale.0 {
                return false;
            }
        }
        bit_put(&mut self.valid, idx, false);
        bit_put(&mut self.abit, idx, false);
        true
    }

    /// All valid entries, in line order.
    pub fn entries(&self) -> Vec<(Vip, Pip)> {
        (0..self.keys.len())
            .filter(|&i| bit_get(&self.valid, i))
            .map(|i| (Vip(self.keys[i]), Pip(self.vals[i])))
            .collect()
    }

    /// Resident bytes of the packed line arrays at current capacity.
    pub fn resident_bytes(&self) -> usize {
        self.keys.capacity() * 4
            + self.vals.capacity() * 4
            + (self.valid.capacity() + self.abit.capacity()) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_misses_and_rejects() {
        let mut c = DirectMappedCache::new(0);
        assert_eq!(c.lookup(Vip(1)), None);
        assert_eq!(
            c.insert(Vip(1), Pip(2), Admission::All),
            InsertOutcome::Rejected
        );
        assert!(!c.invalidate(Vip(1), None));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn every_vip_keeps_the_line_the_hardware_remainder_gives_it() {
        for lines in [1, 2, 3, 7, 64, 100, 1_000, 1_024, 4_095, 40_960, 65_537] {
            let c = DirectMappedCache::new(lines);
            let vips = (0..20_000).chain([u32::MAX - 1, u32::MAX]);
            for vip in vips.chain((0..20_000).map(|i: u32| i.wrapping_mul(0x9E37_79B9))) {
                let want = (line_hash(Vip(vip)) % lines as u64) as usize;
                assert_eq!(c.index(Vip(vip)), want, "VIP {vip} of {lines} lines");
            }
        }
    }

    #[test]
    fn insert_then_hit_sets_abit() {
        let mut c = DirectMappedCache::new(8);
        assert_eq!(
            c.insert(Vip(1), Pip(10), Admission::All),
            InsertOutcome::Inserted
        );
        // First hit reports the abit as it was before (clear).
        assert_eq!(c.lookup(Vip(1)), Some((Pip(10), false)));
        // Second hit sees it set.
        assert_eq!(c.lookup(Vip(1)), Some((Pip(10), true)));
        assert_eq!(c.occupancy(), 1);
        assert_eq!(c.hits, 2);
        assert_eq!(c.lookups, 2);
    }

    fn colliding_pair(c: &DirectMappedCache) -> (Vip, Vip) {
        // Find two VIPs mapping to the same line.
        let base = Vip(1);
        let idx = c.index(base);
        for x in 2..100_000 {
            if c.index(Vip(x)) == idx {
                return (base, Vip(x));
            }
        }
        panic!("no collision found");
    }

    #[test]
    fn conflict_miss_clears_abit_and_all_admission_evicts() {
        let mut c = DirectMappedCache::new(4);
        let (a, b) = colliding_pair(&c);
        c.insert(a, Pip(10), Admission::All);
        c.lookup(a); // abit set
                     // A lookup of the colliding key is a miss and clears the abit.
        assert_eq!(c.lookup(b), None);
        assert_eq!(c.lookup(a), Some((Pip(10), false)), "abit was cleared");
        // Admission::All replaces regardless.
        c.lookup(a); // set abit again
        match c.insert(b, Pip(20), Admission::All) {
            InsertOutcome::Evicted { vip, pip, abit } => {
                assert_eq!((vip, pip, abit), (a, Pip(10), true));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(c.peek(b), Some(Pip(20)));
        assert_eq!(c.peek(a), None);
    }

    #[test]
    fn abit_clear_admission_protects_live_entries() {
        let mut c = DirectMappedCache::new(4);
        let (a, b) = colliding_pair(&c);
        c.insert(a, Pip(10), Admission::All);
        c.lookup(a); // live
        assert_eq!(
            c.insert(b, Pip(20), Admission::AbitClear),
            InsertOutcome::Rejected
        );
        assert_eq!(c.peek(a), Some(Pip(10)));
        // After a conflicting miss clears the bit, admission succeeds.
        c.lookup(b);
        assert!(matches!(
            c.insert(b, Pip(20), Admission::AbitClear),
            InsertOutcome::Evicted { .. }
        ));
    }

    #[test]
    fn update_refreshes_value_keeps_occupancy() {
        let mut c = DirectMappedCache::new(4);
        c.insert(Vip(1), Pip(10), Admission::All);
        assert_eq!(
            c.insert(Vip(1), Pip(11), Admission::AbitClear),
            InsertOutcome::Updated
        );
        assert_eq!(c.peek(Vip(1)), Some(Pip(11)));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn conditional_invalidation_spares_newer_mappings() {
        let mut c = DirectMappedCache::new(4);
        c.insert(Vip(1), Pip(10), Admission::All);
        // Stale value mismatch: entry survives.
        assert!(!c.invalidate(Vip(1), Some(Pip(99))));
        assert_eq!(c.peek(Vip(1)), Some(Pip(10)));
        // Matching stale value: removed.
        assert!(c.invalidate(Vip(1), Some(Pip(10))));
        assert_eq!(c.peek(Vip(1)), None);
        // Unconditional removal.
        c.insert(Vip(2), Pip(20), Admission::All);
        assert!(c.invalidate(Vip(2), None));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn entries_lists_valid_lines() {
        let mut c = DirectMappedCache::new(16);
        c.insert(Vip(1), Pip(10), Admission::All);
        c.insert(Vip(2), Pip(20), Admission::All);
        let mut e = c.entries();
        e.sort();
        assert!(e.contains(&(Vip(1), Pip(10))));
        assert!(e.len() <= 2); // 1 and 2 may collide in 16 lines
    }

    #[test]
    fn single_line_cache_works() {
        let mut c = DirectMappedCache::new(1);
        c.insert(Vip(1), Pip(10), Admission::All);
        assert!(matches!(
            c.insert(Vip(2), Pip(20), Admission::All),
            InsertOutcome::Evicted { .. }
        ));
        assert_eq!(c.lookup(Vip(2)), Some((Pip(20), false)));
    }
}
