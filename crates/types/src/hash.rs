//! A fast, deterministic hasher for the simulator's integer-keyed maps.
//!
//! Std `HashMap` defaults to SipHash keyed by a per-process `RandomState`:
//! robust against adversarial keys, but several times slower than needed
//! for PCs, page numbers and line addresses, and seeded differently in
//! every process. [`FastHasher`] is a multiply-xor hasher in the style of
//! rustc-hash 2: each word is added to the state and multiplied by an odd
//! constant, and [`Hasher::finish`] rotates the result.
//!
//! The rotate matters. Hashbrown takes the bucket index from the low bits
//! of the hash and its 7-bit control tag from the top bits. A product's
//! low bits depend only on the key's low bits, and keys such as PCs
//! `0x40_0000 + k * 0x100` have 8 zero low bits, so without the rotate
//! they would share buckets. Rotating brings the well-mixed high bits down.
//!
//! Every simulation path hashes through [`FastMap`] and [`FastSet`]; the
//! workspace `clippy.toml` rejects the std `HashMap` and `HashSet` types
//! everywhere but here, where the aliases are defined.

#![allow(clippy::disallowed_types)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of rustc-hash 2.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-xor hasher; see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `HashMap` hashed by [`FastHasher`]; build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` hashed by [`FastHasher`]; build with `FastSet::default()`.
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(t)
    }

    #[test]
    fn equal_keys_hash_equal_and_the_hash_is_fixed() {
        assert_eq!(hash_of(0x40_0100u64), hash_of(0x40_0100u64));
        assert_eq!(hash_of((3u8, 7u64)), hash_of((3u8, 7u64)));
        // Fixed across processes and builds: no per-process seed.
        assert_eq!(hash_of(1u64), K.rotate_left(26));
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // PCs 256 bytes apart: without the rotate all 256 hashes would end
        // in the same 8 bits and land in one of 256 buckets.
        let buckets: FastSet<u64> = (0..256u64)
            .map(|k| hash_of(0x40_0000 + k * 0x100) & 0xFF)
            .collect();
        assert!(buckets.len() >= 64, "only {} buckets", buckets.len());
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let mut a = FastHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FastHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }
}
