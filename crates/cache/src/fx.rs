//! A fast, non-cryptographic hasher for maps keyed by dense integers.
//!
//! SipHash's HashDoS resistance buys nothing for keys the program
//! makes itself (block numbers, disk ids) and costs a large slice of
//! every lookup. This is the Fx algorithm (rustc's internal hasher:
//! rotate, xor, multiply per word) — a handful of cycles per `u64`
//! key. Only use it for keys an adversary cannot choose.
//!
//! The controller caches no longer use it: their maps and the
//! simulator's pending-request map have a known bound and are
//! [`crate::ProbeMap`]s. What remains is off the simulator's request
//! path: the host `BufferCache` and the cooperative-HDC overflow map.
//! Neither is iterated in hash order, so swapping the hasher cannot
//! change any observable output — see DESIGN.md §6.2.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc-hash ("Fx") hasher: one rotate-xor-multiply per word.
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
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
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

/// Creates an [`FxHashMap`] pre-sized for `capacity` entries.
pub fn fx_map_with_capacity<K, V>(capacity: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basics() {
        let mut m: FxHashMap<u64, u32> = fx_map_with_capacity(8);
        for i in 0..100u64 {
            m.insert(i * 7, i as u32);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(7 * 13)), Some(&13));
        assert_eq!(m.remove(&0), Some(0));
        assert_eq!(m.get(&0), None);
    }

    #[test]
    fn hashes_spread_sequential_keys() {
        // Dense sequential keys (the common block-number pattern) must
        // not collapse onto a few buckets.
        let hashes: std::collections::HashSet<u64> = (0..1000u64)
            .map(|k| {
                let mut h = FxHasher::default();
                h.write_u64(k);
                h.finish()
            })
            .collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn byte_writes_match_word_writes_for_8_bytes() {
        let mut a = FxHasher::default();
        a.write(&42u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }
}
