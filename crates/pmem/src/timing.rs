//! Cycle cost model — Table 2 of the FFCCD paper.
//!
//! We do not reproduce out-of-order overlap (Sniper does); instead every
//! simulated memory operation charges a deterministic cycle cost so that the
//! *relative* cost of the schemes (2 persist barriers vs 1 vs 0, table walk
//! vs PMFTLB hit) matches the paper. See DESIGN.md §2 "Substitutions".

use serde::{Deserialize, Serialize};

/// Simulation parameters, defaults taken from Table 2 of the paper.
///
/// Construct with [`MachineConfig::default`] and override fields as needed:
///
/// ```
/// use ffccd_pmem::MachineConfig;
/// let cfg = MachineConfig { seed: 7, ..MachineConfig::default() };
/// assert_eq!(cfg.pm_read_latency, 360);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Cycles for a load that hits the (single-level, simplified) cache.
    pub cache_hit_latency: u64,
    /// Cycles for a store that hits the cache.
    pub store_hit_latency: u64,
    /// Cycles to fill a line from DRAM (volatile metadata tables).
    pub dram_latency: u64,
    /// Cycles to fill a line from PM media (Table 2: "PM latency: 360").
    pub pm_read_latency: u64,
    /// Cycles charged per line drained from the WPQ to PM media.
    ///
    /// Models the 4 GB/s PM write bandwidth rather than raw device latency;
    /// the WPQ hides device latency but bandwidth still throttles drains.
    pub pm_write_cost: u64,
    /// Cycles for a store to enter the write pending queue (Table 2: 30).
    pub wpq_latency: u64,
    /// WPQ capacity in cachelines.
    pub wpq_capacity: usize,
    /// Cache capacity in cachelines (Table 2: 3 MB L2 = 49 152 lines).
    pub cache_capacity_lines: usize,
    /// Cycles for a `clwb` instruction itself.
    pub clwb_cost: u64,
    /// L1 TLB entries (Table 2: 64 for 4 KB pages).
    pub tlb_l1_entries: usize,
    /// L2 TLB entries (Table 2: 1536).
    pub tlb_l2_entries: usize,
    /// Cycles for an L1 TLB hit.
    pub tlb_l1_latency: u64,
    /// Cycles for an L2 TLB hit.
    pub tlb_l2_latency: u64,
    /// Cycles for a full TLB miss (Table 2: 60-cycle 2 MB miss penalty).
    pub tlb_miss_penalty: u64,
    /// Page size used for TLB indexing (set from the pool's page size).
    pub tlb_page_size: u64,
    /// A random dirty line is evicted with probability `1/evict_denom` per
    /// store — the "natural cache eviction" that lazily persists fence-free
    /// writes (§3.3.3 of the paper).
    pub evict_denom: u32,
    /// Cycles to check the Bloom Filter Cache (Table 2: 2).
    pub bloom_check_latency: u64,
    /// Cycles to refill the BFC from the in-memory bloom filter (Table 2: 120).
    pub bloom_miss_latency: u64,
    /// Cycles for a PMFT look-aside buffer hit (Table 2: 4).
    pub pmftlb_latency: u64,
    /// Cycles for a Reached Bitmap Buffer access (Table 2: 30).
    pub rbb_latency: u64,
    /// PMFTLB entry count (Table 2: 16).
    pub pmftlb_entries: usize,
    /// RBB entry count (Table 2: 8).
    pub rbb_entries: usize,
    /// Number of in-memory bloom filters (Table 2: 8).
    pub bloom_filters: usize,
    /// Bloom filter size in bytes (Table 2: 1024).
    pub bloom_filter_bytes: usize,
    /// Seed for the engine's eviction RNG (fault injection varies this).
    pub seed: u64,
    /// Number of engine banks (cache/WPQ/in-flight shards, each behind its
    /// own lock; cacheline-indexed). `0` means *auto*, which resolves to 1
    /// — the **deterministic mode** whose event order is byte-identical to
    /// the original global-lock engine and the only mode crash-site
    /// tracking accepts. Multi-threaded throughput runs opt into more banks
    /// explicitly (see [`MachineConfig::resolved_banks`]).
    pub banks: usize,
    /// eADR platform: the persistence domain extends over the whole cache
    /// hierarchy, so dirty cache lines survive power failure (paper §4.4
    /// weighs this against FFCCD's RBB: eADR needs ~300 mm³ of battery to
    /// flush all caches, the RBB 0.017 mm³). With eADR, `clwb`/`sfence`
    /// become unnecessary for durability.
    pub eadr: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cache_hit_latency: 4,
            store_hit_latency: 1,
            dram_latency: 120,
            pm_read_latency: 360,
            pm_write_cost: 90,
            wpq_latency: 30,
            wpq_capacity: 64,
            cache_capacity_lines: 49_152,
            clwb_cost: 10,
            tlb_l1_entries: 64,
            tlb_l2_entries: 1536,
            tlb_l1_latency: 1,
            tlb_l2_latency: 4,
            tlb_miss_penalty: 60,
            tlb_page_size: 4096,
            evict_denom: 32,
            bloom_check_latency: 2,
            bloom_miss_latency: 120,
            pmftlb_latency: 4,
            rbb_latency: 30,
            pmftlb_entries: 16,
            rbb_entries: 8,
            bloom_filters: 8,
            bloom_filter_bytes: 1024,
            seed: 0x5eed_f0cc_d000_0001,
            banks: 0,
            eadr: false,
        }
    }
}

impl MachineConfig {
    /// The effective bank count: `banks` clamped to `1..=64`, with `0`
    /// (auto) resolving to the single-bank deterministic mode.
    pub fn resolved_banks(&self) -> usize {
        self.banks.clamp(1, 64)
    }

    /// A configuration with a tiny cache and WPQ, useful in tests that want
    /// to exercise eviction and drain paths quickly.
    pub fn tiny_for_tests() -> Self {
        MachineConfig {
            cache_capacity_lines: 16,
            wpq_capacity: 4,
            evict_denom: 4,
            ..MachineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = MachineConfig::default();
        assert_eq!(c.dram_latency, 120);
        assert_eq!(c.pm_read_latency, 360);
        assert_eq!(c.wpq_latency, 30);
        assert_eq!(c.tlb_l1_entries, 64);
        assert_eq!(c.tlb_l2_entries, 1536);
        assert_eq!(c.tlb_miss_penalty, 60);
        assert_eq!(c.bloom_check_latency, 2);
        assert_eq!(c.bloom_miss_latency, 120);
        assert_eq!(c.pmftlb_latency, 4);
        assert_eq!(c.rbb_latency, 30);
        assert_eq!(c.pmftlb_entries, 16);
        assert_eq!(c.rbb_entries, 8);
        assert_eq!(c.bloom_filter_bytes, 1024);
    }

    #[test]
    fn tiny_config_is_small() {
        let c = MachineConfig::tiny_for_tests();
        assert!(c.cache_capacity_lines <= 16);
        assert!(c.wpq_capacity <= 4);
    }

    #[test]
    fn banks_resolve_with_auto_and_clamp() {
        assert_eq!(MachineConfig::default().banks, 0);
        assert_eq!(MachineConfig::default().resolved_banks(), 1);
        let c = MachineConfig {
            banks: 8,
            ..MachineConfig::default()
        };
        assert_eq!(c.resolved_banks(), 8);
        let c = MachineConfig {
            banks: 1 << 20,
            ..MachineConfig::default()
        };
        assert_eq!(c.resolved_banks(), 64);
    }

    #[test]
    fn clone_and_eq() {
        let c = MachineConfig::default();
        assert_eq!(c.clone(), c);
        assert_ne!(MachineConfig::tiny_for_tests(), c);
    }
}
