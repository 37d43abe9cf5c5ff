//! Key/value generation helpers shared by the workloads and the driver.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic key stream: a seeded permutation-ish generator that can
/// re-produce the exact sequence for validation.
#[derive(Debug, Clone)]
pub struct KeyGen {
    rng: SmallRng,
    next_fresh: u64,
    salt: u64,
}

impl KeyGen {
    /// Creates a generator from a seed. Generators with different seeds
    /// produce disjoint fresh-key streams (multi-threaded drivers give each
    /// thread its own seed).
    pub fn new(seed: u64) -> Self {
        KeyGen {
            rng: SmallRng::seed_from_u64(seed),
            next_fresh: 1,
            salt: seed,
        }
    }

    /// A key never produced before by *any* generator with a different
    /// seed (the map is a bijection of `counter + salt·2³²`).
    pub fn fresh(&mut self) -> u64 {
        let k = self.next_fresh + (self.salt << 32);
        self.next_fresh += 1;
        // Odd-constant multiplication: bijective on u64, and spreads keys
        // so ordered structures don't degenerate into a stick.
        k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Picks a pseudo-random element of `live` (for deletes); `None` when
    /// empty. Walks the set to the chosen rank; hot loops keep their keys
    /// in a [`LiveKeys`] and use [`KeyGen::pick_live`] instead.
    pub fn pick(&mut self, live: &BTreeSet<u64>) -> Option<u64> {
        let idx = self.pick_rank(live.len())?;
        live.iter().nth(idx).copied()
    }

    /// [`KeyGen::pick`] over a [`LiveKeys`]: draws the same rank from the
    /// stream, so it returns the same key as `pick` on the same set.
    pub fn pick_live(&mut self, live: &LiveKeys) -> Option<u64> {
        let idx = self.pick_rank(live.len())?;
        live.nth(idx)
    }

    fn pick_rank(&mut self, len: usize) -> Option<usize> {
        (len > 0).then(|| self.rng.gen_range(0..len))
    }

    /// A value size in `[lo, hi]` (Redis uses 240–492, microbenchmarks a
    /// constant 128).
    pub fn value_size(&mut self, lo: usize, hi: usize) -> usize {
        if lo == hi {
            lo
        } else {
            self.rng.gen_range(lo..=hi)
        }
    }

    /// Raw u64 from the stream.
    pub fn raw(&mut self) -> u64 {
        self.rng.gen()
    }
}

/// Keys per block of [`LiveKeys`]' rank index; a block that grows past it
/// splits in half.
const RANK_BLOCK: usize = 512;

/// A live-key set with rank selection: the `BTreeSet` hooks and
/// validators read, plus a sorted, blocked copy of the same keys that
/// finds the `idx`-th smallest key by skipping whole blocks (O(√n) at the
/// driver's set sizes, where `BTreeSet::iter().nth` walks `idx` keys).
#[derive(Debug, Default)]
pub struct LiveKeys {
    set: BTreeSet<u64>,
    /// Non-empty sorted blocks of at most [`RANK_BLOCK`] keys whose
    /// concatenation is `set` in order.
    blocks: Vec<Vec<u64>>,
}

impl LiveKeys {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the set holds no keys.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The keys as a `BTreeSet`.
    pub fn as_set(&self) -> &BTreeSet<u64> {
        &self.set
    }

    /// The keys as a `BTreeSet`, dropping the rank index.
    pub fn into_set(self) -> BTreeSet<u64> {
        self.set
    }

    /// Index of the block that holds, or would hold, `key`.
    fn block_of(&self, key: u64) -> usize {
        let b = self
            .blocks
            .partition_point(|blk| *blk.last().expect("blocks are non-empty") < key);
        b.min(self.blocks.len().saturating_sub(1))
    }

    /// Adds `key`; returns whether it was absent.
    pub fn insert(&mut self, key: u64) -> bool {
        if !self.set.insert(key) {
            return false;
        }
        if self.blocks.is_empty() {
            self.blocks.push(vec![key]);
            return true;
        }
        let b = self.block_of(key);
        let blk = &mut self.blocks[b];
        let at = blk.partition_point(|&k| k < key);
        blk.insert(at, key);
        if blk.len() > RANK_BLOCK {
            let upper = blk.split_off(blk.len() / 2);
            self.blocks.insert(b + 1, upper);
        }
        true
    }

    /// Removes `key`; returns whether it was present.
    pub fn remove(&mut self, key: &u64) -> bool {
        if !self.set.remove(key) {
            return false;
        }
        let b = self.block_of(*key);
        let blk = &mut self.blocks[b];
        let at = blk.binary_search(key).expect("blocks mirror the set");
        blk.remove(at);
        if blk.is_empty() {
            self.blocks.remove(b);
        }
        true
    }

    /// The `idx`-th smallest key (0-based), as `as_set().iter().nth(idx)`.
    pub fn nth(&self, mut idx: usize) -> Option<u64> {
        for blk in &self.blocks {
            if idx < blk.len() {
                return Some(blk[idx]);
            }
            idx -= blk.len();
        }
        None
    }
}

/// Fills `buf` with a deterministic pattern derived from `key`, so
/// validators can re-derive and compare stored values.
pub fn value_pattern(key: u64, buf: &mut [u8]) {
    let mut x = key ^ 0xD6E8_FEB8_6659_FD93;
    for chunk in buf.chunks_mut(8) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let b = x.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&b[..n]);
    }
}

/// Verifies `buf` matches [`value_pattern`] for `key`.
pub fn value_matches(key: u64, buf: &[u8]) -> bool {
    let mut expect = vec![0u8; buf.len()];
    value_pattern(key, &mut expect);
    expect.as_slice() == buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_keys_are_unique() {
        let mut g = KeyGen::new(1);
        let keys: BTreeSet<u64> = (0..10_000).map(|_| g.fresh()).collect();
        assert_eq!(keys.len(), 10_000);
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = KeyGen::new(7);
        let mut b = KeyGen::new(7);
        for _ in 0..100 {
            assert_eq!(a.fresh(), b.fresh());
            assert_eq!(a.raw(), b.raw());
        }
    }

    #[test]
    fn pick_returns_member() {
        let mut g = KeyGen::new(3);
        let live: BTreeSet<u64> = [5, 9, 12].into_iter().collect();
        for _ in 0..20 {
            let k = g.pick(&live).expect("non-empty");
            assert!(live.contains(&k));
        }
        assert_eq!(g.pick(&BTreeSet::new()), None);
    }

    #[test]
    fn live_keys_splits_and_drains() {
        let mut live = LiveKeys::new();
        let n = 3 * RANK_BLOCK as u64;
        for k in (0..n).rev() {
            assert!(live.insert(k * 2));
        }
        assert!(!live.insert(0));
        assert!(live.blocks.len() > 2);
        assert_eq!(live.nth(0), Some(0));
        assert_eq!(live.nth(n as usize - 1), Some((n - 1) * 2));
        assert_eq!(live.nth(n as usize), None);
        assert!(!live.remove(&1));
        for k in 0..n {
            assert!(live.remove(&(k * 2)));
        }
        assert!(live.is_empty());
        assert!(live.blocks.is_empty());
        assert_eq!(live.nth(0), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rank selection agrees with `BTreeSet::iter().nth` under any
        /// mix of inserts and removes, and the blocks stay well formed.
        #[test]
        fn live_keys_nth_matches_btreeset(
            ops in proptest::collection::vec((any::<bool>(), 0u64..4096), 1..3000),
        ) {
            let mut live = LiveKeys::new();
            let mut reference = BTreeSet::new();
            for &(insert, key) in &ops {
                if insert {
                    prop_assert_eq!(live.insert(key), reference.insert(key));
                } else {
                    prop_assert_eq!(live.remove(&key), reference.remove(&key));
                }
            }
            prop_assert_eq!(live.as_set(), &reference);
            prop_assert!(live.blocks.iter().all(|b| !b.is_empty() && b.len() <= RANK_BLOCK));
            let flat: Vec<u64> = live.blocks.concat();
            let expect: Vec<u64> = reference.iter().copied().collect();
            prop_assert_eq!(flat, expect);
            for idx in 0..=reference.len() {
                prop_assert_eq!(live.nth(idx), reference.iter().nth(idx).copied());
            }
        }

        /// The same seed yields the same delete picks over a `LiveKeys` as
        /// over a `BTreeSet`, through a driver-shaped insert/delete mix.
        #[test]
        fn pick_live_matches_pick(seed in any::<u64>(), ops in 1usize..4000) {
            let mut a = KeyGen::new(seed);
            let mut b = KeyGen::new(seed);
            let mut live = LiveKeys::new();
            let mut reference = BTreeSet::new();
            for op in 0..ops {
                let insert = (op / 300) % 2 == 0 || reference.is_empty();
                if insert {
                    let (ka, kb) = (a.fresh(), b.fresh());
                    prop_assert_eq!(ka, kb);
                    live.insert(ka);
                    reference.insert(kb);
                } else {
                    let (ka, kb) = (a.pick_live(&live), b.pick(&reference));
                    prop_assert_eq!(ka, kb);
                    let k = ka.expect("non-empty");
                    live.remove(&k);
                    reference.remove(&k);
                }
            }
            prop_assert_eq!(a.pick_live(&LiveKeys::new()), None);
            prop_assert_eq!(a.raw(), b.raw());
        }
    }

    #[test]
    fn value_pattern_roundtrip() {
        let mut buf = [0u8; 100];
        value_pattern(42, &mut buf);
        assert!(value_matches(42, &buf));
        assert!(!value_matches(43, &buf));
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn value_size_bounds() {
        let mut g = KeyGen::new(9);
        for _ in 0..100 {
            let s = g.value_size(240, 492);
            assert!((240..=492).contains(&s));
        }
        assert_eq!(g.value_size(128, 128), 128);
    }
}
