//! A fixed, seedless hasher for the simulator's hot integer-keyed maps.
//!
//! `std`'s default `RandomState` hashes with SipHash-1-3 under a
//! per-map random key: robust against adversarial keys, but several
//! times the cost of the probe itself when the key is one `u64` (a page
//! number, a line address, a request id) looked up on every simulated
//! cycle. [`FixedHashMap`] swaps in a folded 64×64→128-bit multiply,
//! which mixes every key bit into both halves of the result so the low
//! bits (bucket index) and the top bits (control byte) are both usable
//! even for keys whose low bits are all zero, like 128-byte line
//! addresses.
//!
//! Determinism does not rest on the hasher: every map using this type is
//! either never iterated or iterated order-insensitively (a commutative
//! fold, or a collect-then-sort), which `tools/lint_determinism.sh`
//! enforces for `FixedHashMap` exactly as for `HashMap`. Output was
//! already independent of the randomly seeded SipHash order, so it is
//! independent of this fixed order too.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the fold: 2^64 / φ, odd, bits well spread.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The hasher behind [`FixedHashMap`]: one folded multiply per `u64`
/// written (the keys in use are `u64` newtypes; other writes go through
/// [`Hasher::write`] in 8-byte words). Not DoS-resistant — use it only
/// for keys the simulator itself generates.
#[derive(Debug, Default, Clone, Copy)]
pub struct FixedHasher(u64);

impl FixedHasher {
    #[inline]
    fn mix(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for FixedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }
}

/// Builder for [`FixedHasher`]: every map starts from the same state.
pub type FixedState = BuildHasherDefault<FixedHasher>;

/// A `HashMap` hashed with [`FixedHasher`]. Build with
/// `FixedHashMap::default()` or
/// `FixedHashMap::with_capacity_and_hasher(n, FixedState::default())`.
pub type FixedHashMap<K, V> = HashMap<K, V, FixedState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(x: u64) -> u64 {
        FixedState::default().hash_one(x)
    }

    #[test]
    fn equal_keys_hash_equal_across_maps() {
        assert_eq!(hash_of(42), hash_of(42));
        assert_ne!(hash_of(42), hash_of(43));
    }

    #[test]
    fn line_aligned_keys_spread_over_low_bits() {
        // 128-byte-aligned line addresses have seven zero low bits; the
        // fold must still spread them over a small table's buckets.
        let mut buckets = [0u32; 64];
        for i in 0..4096u64 {
            buckets[(hash_of(i * 128) & 63) as usize] += 1;
        }
        let (min, max) = (buckets.iter().min(), buckets.iter().max());
        assert!(*min.unwrap() > 32 && *max.unwrap() < 112, "{buckets:?}");
    }

    #[test]
    fn map_round_trips() {
        let mut m: FixedHashMap<u64, u32> = FixedHashMap::default();
        for i in 0..1000 {
            m.insert(i * 4096, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000).all(|i| m[&(i * 4096)] == i as u32));
    }
}
