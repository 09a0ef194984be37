//! A fixed-seed hasher for the simulator's integer-keyed maps.
//!
//! The maps on the per-cycle path (page table, MSHR files, outstanding
//! translations, translation waiters, DRAM fill tracking) are keyed by
//! one `u64` — a page number, a line address, a request id — that the
//! simulator itself generates. std's default `RandomState` runs
//! SipHash-1-3 over those eight bytes to resist keys crafted to collide,
//! a threat that does not exist here, and draws a fresh seed per map so
//! iteration order differs from run to run. [`IntHasher`] is one
//! multiply and one xor with no seed: several times cheaper per lookup,
//! and a map's layout is a function of its insertion history alone.
//!
//! Iteration over an [`IntMap`] is still *unordered* — it depends on
//! capacity and insertion history — so simulation results must not
//! depend on it; `tools/lint_determinism.sh` treats `IntMap` exactly
//! like `HashMap`. Do not use it for keys that arrive from outside the
//! program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, the usual odd multiplier for multiplicative hashing.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folded-multiply hasher for keys that hash as a single integer.
///
/// hashbrown indexes buckets with the low bits of the hash and tags
/// them with the top seven, so both ends must depend on every key bit:
/// the 64×64→128 multiply (one instruction on the hosts we run on)
/// spreads the key upwards, and xoring the product's halves brings the
/// well-mixed high half back down (line addresses have seven zero low
/// bits, which a bare multiply would leave zero).
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    /// Keys that are not one `u64` are not the intended use but must
    /// still hash correctly: fold eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`BuildHasher`](std::hash::BuildHasher) for [`IntHasher`] (stateless,
/// so every map hashes identically in every process).
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` over [`IntHasher`]. Construct with `IntMap::default()` or
/// `IntMap::with_capacity_and_hasher(n, Default::default())`.
pub type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{LineAddr, PageNum};
    use std::hash::BuildHasher;

    #[test]
    fn map_behaves_like_a_map() {
        let mut m: IntMap<PageNum, u32> = IntMap::default();
        for i in 0..10_000u64 {
            assert!(m.insert(PageNum(i * 7), i as u32).is_none());
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(&PageNum(i * 7)), Some(&(i as u32)));
            assert!(!m.contains_key(&PageNum(i * 7 + 1)));
        }
        assert_eq!(m.remove(&PageNum(21)), Some(3));
        assert_eq!(m.len(), 9_999);
    }

    /// Line addresses are 128-byte aligned and often strided by a power
    /// of two: the bucket index (low bits) and the control tag (top
    /// seven bits) must both still spread.
    #[test]
    fn aligned_and_strided_keys_spread_over_both_ends_of_the_hash() {
        let build = IntBuildHasher::default();
        for stride in [128u64, 4096, 1 << 20] {
            let mut low = std::collections::BTreeSet::new();
            let mut high = std::collections::BTreeSet::new();
            for i in 0..1024u64 {
                let h = build.hash_one(LineAddr(i * stride));
                low.insert(h & 0x3ff);
                high.insert(h >> 57);
            }
            // Uniformly random hashes would fill about 647 (1 - 1/e).
            assert!(
                low.len() > 600,
                "stride {stride}: {} of 1024 buckets",
                low.len()
            );
            assert_eq!(high.len(), 128, "stride {stride}: control tags unused");
        }
    }

    /// No seed: the same key hashes to the same pinned value in every
    /// map and every process.
    #[test]
    fn hash_is_a_fixed_function_of_the_key() {
        let h = IntBuildHasher::default().hash_one(PageNum(42));
        assert_eq!(h, 0xf519_f86e_e238_5b6b);
    }

    #[test]
    fn byte_slices_hash_by_content() {
        let build = IntBuildHasher::default();
        assert_eq!(build.hash_one("abcdefghij"), build.hash_one("abcdefghij"));
        assert_ne!(build.hash_one("abcdefghij"), build.hash_one("abcdefghik"));
    }
}
