//! Deterministic fast hashing for simulation hot paths.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 behind a per-process
//! random seed. That is the right call for servers parsing untrusted input,
//! but wrong on both axes for a simulator: the keys here (VIPs, PIPs, node
//! ids, switch tags) are small trusted integers, so DoS resistance buys
//! nothing while the 1-3 rounds cost real time on every switch hop — and the
//! random seed makes iteration order differ between processes, which is a
//! reproducibility hazard waiting for an unsorted `iter()` to slip in.
//!
//! [`FxHasher`] is the classic rustc hash (rotate, xor, multiply by a
//! Fibonacci-style constant), vendored here because the workspace builds
//! offline. It is seedless: the same keys hash identically in every process
//! on every run, so map behavior is a pure function of the inserted keys.
//!
//! Use the [`FxHashMap`] / [`FxHashSet`] aliases for hot per-packet state;
//! cold maps (config parsing, report assembly) can stay on the std default.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from FxHash: a random-looking odd constant close to
/// 2^64 / golden ratio, spreading low-entropy integer keys across buckets.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc hash function: one rotate-xor-multiply round per word.
///
/// Not cryptographic, not seeded, not DoS-resistant — by design. See the
/// module docs for why that trade is correct here.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Safe byte-chunked path (the crate forbids unsafe code): fold the
        // slice as little-endian u64 words, zero-padding the tail.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Seedless `BuildHasher` producing [`FxHasher`]s; plug into any
/// `HashMap::with_hasher` site.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the deterministic fast hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the deterministic fast hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn identical_keys_hash_identically() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&(7u32, 9u32)), hash_of(&(7u32, 9u32)));
        assert_eq!(hash_of(&"switch"), hash_of(&"switch"));
    }

    #[test]
    fn different_keys_disperse() {
        // Not a collision-resistance claim — just a sanity check that
        // nearby integers do not collapse onto one value.
        let hashes: std::collections::HashSet<u64> = (0u32..1000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn byte_writes_match_padded_words() {
        // chunks(8) zero-pads the tail, so a 3-byte write must equal the
        // corresponding padded little-endian word write.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 0, 0, 0, 0, 0]));
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        m.insert((1, 2), 10);
        m.insert((2, 1), 20);
        assert_eq!(m.get(&(1, 2)), Some(&10));
        assert_eq!(m.get(&(2, 1)), Some(&20));
        let mut s: FxHashSet<u32> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    #[test]
    fn hashing_is_stable_across_builders() {
        // Seedless: two independently built hashers agree, unlike
        // `RandomState` where each build gets fresh keys.
        let h1 = FxBuildHasher::default().hash_one(0xDEAD_BEEFu64);
        let h2 = FxBuildHasher::default().hash_one(0xDEAD_BEEFu64);
        assert_eq!(h1, h2);
    }
}
