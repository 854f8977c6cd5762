//! Fast hashing for maps over offline trace data.
//!
//! The standard library's default `HashMap` hasher is SipHash-1-3 — a
//! keyed, DoS-resistant function that costs tens of cycles per lookup.
//! Trace analysis runs on offline data derived from a matrix the user
//! chose, so there is no adversary to resist and the SipHash cost is
//! pure overhead. [`FxHasher`] is the rustc `FxHash` multiply-rotate mix
//! (one rotate, one xor, one multiply per word), for drop-in `HashMap`
//! replacement via [`FxHashMap`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant of the FxHash mix (same as rustc's).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc `FxHash` hasher: not cryptographic, extremely cheap, good
/// enough dispersion for trust-the-input workloads like trace analysis.
#[derive(Clone, Copy, Debug, Default)]
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
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`] instead of SipHash.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_hashmap_smoke() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&31), Some(&961));
    }

    #[test]
    fn fx_hasher_mixes_bytes_and_words() {
        use std::hash::Hasher as _;
        let mut a = FxHasher::default();
        a.write(b"hello world");
        let mut b = FxHasher::default();
        b.write(b"hello worlt"); // different tail byte
        assert_ne!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write_u64(77);
        assert_ne!(c.finish(), 0);
    }
}
