//! Fast hashing for the stack processors' hot path.
//!
//! The standard library's default `HashMap` hasher is SipHash-1-3 — a
//! keyed, DoS-resistant function that costs tens of cycles per lookup.
//! The stack processors perform exactly one map operation *per trace
//! reference*, on offline data derived from a matrix the user chose, so
//! there is no adversary to resist and the SipHash cost is pure
//! overhead. Two replacements:
//!
//! * [`FxHasher`] — the rustc `FxHash` multiply-rotate mix (one rotate,
//!   one xor, one multiply per word), for drop-in `HashMap` replacement
//!   via [`FxHashMap`];
//! * [`LineTable`] — an open-addressing `u64 → u32` table for the
//!   last-access/index maps, which are *insert-or-update only* (a cache
//!   line, once seen, is never forgotten). Fibonacci-hashed linear
//!   probing over a flat pair of arrays: no bucket pointers, no
//!   tombstones, one cache line touched per lookup in the common case.

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

/// Sentinel marking an empty [`LineTable`] slot. Cache-line numbers come
/// from a [`memtrace::DataLayout`], whose line space is far below
/// `u64::MAX`, so the sentinel can never collide with a real key.
const EMPTY: u64 = u64::MAX;

/// Open-addressing `u64 → u32` hash table specialised for the stack
/// processors' last-access and node-index maps.
///
/// Supports insert-or-update and lookup only — entries are never removed,
/// which is exactly the lifecycle of a cache line in a stack processor —
/// so linear probing needs no tombstones. Capacity is a power of two;
/// the table grows at 70 % load.
#[derive(Clone, Debug)]
pub struct LineTable {
    keys: Vec<u64>,
    vals: Vec<u32>,
    len: usize,
    mask: usize,
    /// Times the table grew (every growth rehashes all entries).
    rehashes: u64,
    /// Keys looked up through [`probe_block`](Self::probe_block).
    block_probe_refs: u64,
    /// Slot inspections those lookups cost (≥ `block_probe_refs`; the
    /// ratio is the mean probe-chain length).
    block_probe_steps: u64,
}

/// Sentinel value returned by [`LineTable::probe_block`] for absent keys.
/// Collision-free because values are stack-node indices or timestamps,
/// both of which the stack processors cap below `u32::MAX`.
pub const PROBE_ABSENT: u32 = u32::MAX;

impl Default for LineTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LineTable {
    /// An empty table with a small initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(16)
    }

    /// An empty table pre-sized to hold `n` entries without growing.
    pub fn with_capacity(n: usize) -> Self {
        // Slots so that n entries stay under the 70 % load factor.
        let slots = (n.max(8) * 10 / 7).next_power_of_two();
        LineTable {
            keys: vec![EMPTY; slots],
            vals: vec![0; slots],
            len: 0,
            mask: slots - 1,
            rehashes: 0,
            block_probe_refs: 0,
            block_probe_steps: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fibonacci-hash probe start for a key.
    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // High bits of the golden-ratio product disperse best; fold them
        // down to the table size.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    /// Inserts `key → val`, returning the previous value if the key was
    /// already present.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `key` is the reserved sentinel
    /// `u64::MAX`.
    #[inline]
    pub fn insert(&mut self, key: u64, val: u32) -> Option<u32> {
        debug_assert_ne!(key, EMPTY, "u64::MAX is the reserved empty sentinel");
        if (self.len + 1) * 10 > self.keys.len() * 7 {
            self.grow();
        }
        let mut slot = self.slot_of(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                let prev = self.vals[slot];
                self.vals[slot] = val;
                return Some(prev);
            }
            if k == EMPTY {
                self.keys[slot] = key;
                self.vals[slot] = val;
                self.len += 1;
                return None;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Looks a key up.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        let mut slot = self.slot_of(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                return Some(self.vals[slot]);
            }
            if k == EMPTY {
                return None;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Looks up a whole block of keys: `out[i]` receives the value stored
    /// under `keys[i]`, or [`PROBE_ABSENT`] if the key is not present.
    ///
    /// The hot-path counterpart of calling [`get`](Self::get) per key,
    /// with the hash/mask work hoisted into a first pass over the block
    /// (a branchless multiply-shift-mask loop the compiler can
    /// autovectorise) and the common resolved-on-first-probe case split
    /// from the out-of-line collision walk. Probe-length telemetry is
    /// accumulated per block, not per key — see
    /// [`block_probe_refs`](Self::block_probe_refs).
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `keys`.
    pub fn probe_block(&mut self, keys: &[u64], out: &mut [u32]) {
        assert!(out.len() >= keys.len(), "output buffer too small");
        // Phase 1: home slots for the whole block (pure arithmetic).
        let mask = self.mask;
        debug_assert!(mask <= u32::MAX as usize, "slot index overflows u32");
        for (o, &key) in out.iter_mut().zip(keys) {
            *o = ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask) as u32;
        }
        // Phase 2: resolve. The 70 % load cap plus Fibonacci dispersion
        // resolve almost every key at its home slot; longer chains take
        // the out-of-line walk.
        let mut steps = keys.len() as u64;
        for (o, &key) in out.iter_mut().zip(keys) {
            let slot = *o as usize;
            let k = self.keys[slot];
            *o = if k == key {
                self.vals[slot]
            } else if k == EMPTY {
                PROBE_ABSENT
            } else {
                self.probe_chain(key, (slot + 1) & mask, &mut steps)
            };
        }
        self.block_probe_refs += keys.len() as u64;
        self.block_probe_steps += steps;
    }

    /// Collision-chain walk continuing a probe that missed its home slot.
    #[inline(never)]
    fn probe_chain(&self, key: u64, mut slot: usize, steps: &mut u64) -> u32 {
        loop {
            *steps += 1;
            let k = self.keys[slot];
            if k == key {
                return self.vals[slot];
            }
            if k == EMPTY {
                return PROBE_ABSENT;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Every stored value, mutably, in slot order (entries are never
    /// removed, so this is every key ever inserted). The exact stack
    /// renumbers its slot stamps through it when its window compacts.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut u32> {
        self.keys
            .iter()
            .zip(&mut self.vals)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(_, v)| v)
    }

    /// Times the table grew (each growth rehashes every entry).
    pub fn rehashes(&self) -> u64 {
        self.rehashes
    }

    /// Keys looked up through [`probe_block`](Self::probe_block).
    pub fn block_probe_refs(&self) -> u64 {
        self.block_probe_refs
    }

    /// Total slot inspections spent in [`probe_block`](Self::probe_block).
    pub fn block_probe_steps(&self) -> u64 {
        self.block_probe_steps
    }

    /// Offline probe-quality statistics: walks the table once, measuring
    /// each entry's displacement from its home slot. Costs O(slots) and is
    /// only called when a telemetry snapshot is taken — the hot lookup
    /// path is untouched.
    pub fn probe_stats(&self) -> ProbeStats {
        let mut total_displacement = 0u64;
        let mut max_displacement = 0u64;
        let slots = self.keys.len();
        for (slot, &k) in self.keys.iter().enumerate() {
            if k == EMPTY {
                continue;
            }
            let home = self.slot_of(k);
            let d = ((slot + slots - home) & self.mask) as u64;
            total_displacement += d;
            max_displacement = max_displacement.max(d);
        }
        ProbeStats {
            entries: self.len as u64,
            slots: slots as u64,
            total_displacement,
            max_displacement,
        }
    }

    fn grow(&mut self) {
        self.rehashes += 1;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; 0]);
        let old_vals = std::mem::take(&mut self.vals);
        let slots = (old_keys.len() * 2).max(16);
        self.keys = vec![EMPTY; slots];
        self.vals = vec![0; slots];
        self.mask = slots - 1;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k == EMPTY {
                continue;
            }
            let mut slot = self.slot_of(k);
            while self.keys[slot] != EMPTY {
                slot = (slot + 1) & self.mask;
            }
            self.keys[slot] = k;
            self.vals[slot] = v;
        }
    }
}

/// Snapshot of a [`LineTable`]'s occupancy and probe quality, reported
/// through the telemetry counters (`reuse.linetable.*`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Entries stored.
    pub entries: u64,
    /// Slot-array length (power of two).
    pub slots: u64,
    /// Sum over entries of (occupied slot − home slot) mod table size; 0
    /// means every key sits in its home slot.
    pub total_displacement: u64,
    /// Longest single displacement — an upper bound on any lookup's probe
    /// chain length.
    pub max_displacement: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_update() {
        let mut t = LineTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(42, 7), None);
        assert_eq!(t.get(42), Some(7));
        assert_eq!(t.insert(42, 9), Some(7));
        assert_eq!(t.get(42), Some(9));
        assert_eq!(t.get(43), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn matches_std_hashmap_under_growth() {
        let mut t = LineTable::with_capacity(4);
        let mut reference: HashMap<u64, u32> = HashMap::new();
        let mut state = 1u64;
        for i in 0..10_000u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 30) % 3000; // plenty of updates
            assert_eq!(t.insert(key, i), reference.insert(key, i), "step {i}");
        }
        assert_eq!(t.len(), reference.len());
        for (&k, &v) in &reference {
            assert_eq!(t.get(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn adversarially_clustered_keys() {
        // Sequential keys (dense line ranges) and strided keys both occur
        // in real layouts; the table must stay correct under clustering.
        let mut t = LineTable::new();
        for k in 0..5000u64 {
            t.insert(k, k as u32);
        }
        for k in (0..5_000_000u64).step_by(4096) {
            t.insert(k, 1);
        }
        for k in 0..5000u64 {
            let expect = if k == 0 || (k % 4096 == 0) {
                1
            } else {
                k as u32
            };
            assert_eq!(t.get(k), Some(expect));
        }
        assert_eq!(t.get(5001), None);
    }

    #[test]
    fn probe_stats_count_displacements() {
        let mut t = LineTable::with_capacity(64);
        assert_eq!(
            t.probe_stats(),
            ProbeStats {
                entries: 0,
                slots: t.probe_stats().slots,
                total_displacement: 0,
                max_displacement: 0,
            }
        );
        for k in 0..40u64 {
            t.insert(k, k as u32);
        }
        let stats = t.probe_stats();
        assert_eq!(stats.entries, 40);
        assert!(stats.slots.is_power_of_two());
        // The max displacement is one of the summands of the total.
        assert!(stats.max_displacement <= stats.total_displacement);
        // With a 70 % load cap a probe chain can never wrap the table.
        assert!(stats.max_displacement < stats.slots);
    }

    #[test]
    fn probe_block_matches_get() {
        let mut t = LineTable::with_capacity(4); // force growth under inserts
        let mut state = 7u64;
        let mut keys = Vec::new();
        for i in 0..4000u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 29) % 2500;
            t.insert(key, i);
            keys.push(key.wrapping_add(i as u64 % 3)); // mix of present/absent
        }
        let mut out = vec![0u32; keys.len()];
        for chunk in keys.chunks(256) {
            t.probe_block(chunk, &mut out[..chunk.len()]);
            for (&key, &got) in chunk.iter().zip(&out) {
                match t.get(key) {
                    Some(v) => assert_eq!(got, v, "key {key}"),
                    None => assert_eq!(got, PROBE_ABSENT, "key {key}"),
                }
            }
        }
        assert_eq!(t.block_probe_refs(), keys.len() as u64);
        assert!(t.block_probe_steps() >= t.block_probe_refs());
    }

    #[test]
    fn rehashes_counted_and_avoided_by_presizing() {
        let mut small = LineTable::with_capacity(4);
        let mut sized = LineTable::with_capacity(10_000);
        for k in 0..10_000u64 {
            small.insert(k, k as u32);
            sized.insert(k, k as u32);
        }
        assert!(small.rehashes() > 0);
        assert_eq!(sized.rehashes(), 0, "pre-sized table must never grow");
    }

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
