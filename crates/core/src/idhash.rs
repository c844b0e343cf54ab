//! A small deterministic hasher for the integer-keyed maps of the δ loop.
//!
//! The pre-match label and score maps, the anchor labels and selection's
//! claim maps are all keyed by record, household or cluster ids — plain
//! integers. The std `SipHash` default costs several times a multiply per
//! lookup, and the δ loop probes these maps millions of times.
//! [`IdHasher`] folds each integer word in with one xor and one
//! 64×64→128-bit multiply whose halves are xored together (the "folded
//! multiply" of wyhash). The fold carries high bits down, so ids that
//! share their low bits — strided or offset id spaces — still spread over
//! the low bits that pick a bucket. It is unkeyed, so hashes are the same
//! in every run; no code may depend on the iteration order of an
//! [`IdMap`] all the same. Being unkeyed, it offers no defence against
//! ids crafted to collide: such input slows lookups but cannot change
//! any result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for integer keys; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    /// An odd constant with well-spread bits (2^64 / φ, rounded to odd).
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    #[inline]
    fn add(&mut self, word: u64) {
        let p = u128::from(self.0 ^ word) * u128::from(Self::K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::RecordId;
    use std::hash::BuildHasher;

    #[test]
    fn hashes_are_deterministic_and_spread() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let a = build.hash_one((RecordId(1), RecordId(2)));
        assert_eq!(a, build.hash_one((RecordId(1), RecordId(2))));
        assert_ne!(a, build.hash_one((RecordId(2), RecordId(1))));
        // dense, strided and offset ids all spread over the low bits
        // that pick a bucket: 1024 keys into 1024 buckets fill ~63% when
        // hashed uniformly, and a multiply alone fills one for stride 2^20
        for (stride, offset) in [
            (1u64, 0u64),
            (1, 1 << 40),
            (1 << 10, 0),
            (1 << 20, 0),
            (1 << 40, 7),
        ] {
            let buckets: std::collections::HashSet<u64> = (0..1024u64)
                .map(|i| build.hash_one(RecordId(i * stride + offset)) & 1023)
                .collect();
            assert!(
                buckets.len() > 512,
                "stride {stride}: {} buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn map_behaves_like_a_std_map() {
        let mut m: IdMap<(RecordId, RecordId), f64> = IdMap::default();
        for i in 0..1000u64 {
            m.insert((RecordId(i), RecordId(i << 40)), i as f64);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(RecordId(7), RecordId(7 << 40))], 7.0);
        assert!(!m.contains_key(&(RecordId(7 << 40), RecordId(7))));
    }
}
