//! A fast, deterministic hasher for hot-path address maps.
//!
//! The rule: every map keyed by a simulated address (frame number, VA
//! prefix) on a per-reference path is a [`FastMap`] or [`FastSet`],
//! never a `std` `HashMap` with its SipHash default — that spends more
//! cycles hashing than the lookup saves. Physical-memory contents go
//! further and use no hash at all (a two-level frame table in
//! [`crate::phys`]), and so do the translation caches (each is one
//! set-associative array holding its payloads inline). This is the Fx multiply-rotate construction
//! (deterministic, no per-process seed — replay results must not
//! depend on hasher randomization).
//!
//! Not DoS-resistant by design: keys here are simulated addresses the
//! workload generator produced, never attacker-controlled input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over native words (the FxHash construction).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `HashMap` with the deterministic fast hasher.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` with the deterministic fast hasher.
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FastHasher::default();
        let mut b = FastHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let mut h = FastHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let nine = h.finish();
        let mut h = FastHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_ne!(nine, h.finish());
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        let mut s: FastSet<u64> = FastSet::default();
        for k in 0..1000u64 {
            m.insert(k * 4096, k);
            s.insert(k * 4096);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(42 * 4096)), Some(&42));
        assert!(s.contains(&(999 * 4096)));
        assert!(!s.contains(&1));
    }
}
