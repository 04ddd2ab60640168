//! A fast hasher for maps keyed by one `u64` (page frame numbers, IOVA
//! page and window indices).
//!
//! The standard library's SipHash is built to resist hash flooding over
//! arbitrary byte strings; for a single integer key it costs several
//! times more than the map operation around it. The allocator and
//! vIOMMU indexes do millions of lookups per campaign cell, so they use
//! [`U64Map`] instead: one SplitMix64 finaliser round per key.
//!
//! The finaliser is keyed with a per-process seed drawn once from
//! [`RandomState`], so which keys share a bucket differs from process
//! to process and a crafted snapshot cannot be built against a known
//! hash function. Iteration order therefore varies between processes,
//! exactly as with SipHash; nothing that reaches an output byte stream
//! may depend on it.
//!
//! # Examples
//!
//! ```
//! use hh_sim::hash::U64Map;
//!
//! let mut frames: U64Map<u8> = U64Map::default();
//! frames.insert(0x1234, 3);
//! assert_eq!(frames.get(&0x1234), Some(&3));
//! ```

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use crate::rng::SplitMix64;

/// A `HashMap` keyed by `u64` with the [`U64Hasher`].
pub type U64Map<V> = HashMap<u64, V, BuildU64Hasher>;

/// The per-process finaliser key, drawn from the std `RandomState` on
/// first use.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().build_hasher().finish())
}

/// Builds [`U64Hasher`]s keyed with the process seed.
#[derive(Debug, Clone, Copy)]
pub struct BuildU64Hasher {
    seed: u64,
}

impl Default for BuildU64Hasher {
    fn default() -> Self {
        Self {
            seed: process_seed(),
        }
    }
}

impl BuildHasher for BuildU64Hasher {
    type Hasher = U64Hasher;

    fn build_hasher(&self) -> U64Hasher {
        U64Hasher { state: self.seed }
    }
}

/// A SplitMix64-finaliser hasher for `u64` keys. Other key types still
/// hash correctly (bytes are folded eight at a time) but gain nothing.
#[derive(Debug, Clone, Copy)]
pub struct U64Hasher {
    state: u64,
}

impl Hasher for U64Hasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = SplitMix64::new(self.state ^ n).next();
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_process_seed_hashes_a_key_the_same_way_everywhere() {
        let a = BuildU64Hasher::default();
        let b = BuildU64Hasher::default();
        for key in [0u64, 1, 0x1234_5678, u64::MAX] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
    }

    #[test]
    fn neighbouring_frames_spread_over_the_top_bits() {
        // hashbrown takes its 7-bit control tag from the top of the hash
        // and the bucket from the bottom: consecutive PFNs must differ
        // in both.
        let build = BuildU64Hasher::default();
        // With 4096 keys a random hash leaves a tag unused with
        // probability ~1e-12 and fills ~1005 of 1024 low-bit buckets.
        let hashes: Vec<u64> = (0..4096u64).map(|k| build.hash_one(k)).collect();
        let tops: std::collections::HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        let lows: std::collections::HashSet<u64> = hashes.iter().map(|h| h & 0x3ff).collect();
        assert_eq!(tops.len(), 128, "every control tag is used");
        assert!(
            lows.len() > 950,
            "only {} of 1024 low-bit buckets",
            lows.len()
        );
    }

    #[test]
    fn map_round_trips_like_a_std_map() {
        crate::check::cases(7, 16, |rng| {
            let mut fast: U64Map<u64> = U64Map::default();
            let mut std_map = HashMap::new();
            for _ in 0..256 {
                let key = rng.gen_range(0..128u64) << rng.gen_range(0..40u64);
                if rng.gen_bool(0.3) {
                    assert_eq!(fast.remove(&key), std_map.remove(&key));
                } else {
                    let value = rng.next_u64();
                    assert_eq!(fast.insert(key, value), std_map.insert(key, value));
                }
            }
            let mut a: Vec<_> = fast.into_iter().collect();
            let mut b: Vec<_> = std_map.into_iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        });
    }
}
