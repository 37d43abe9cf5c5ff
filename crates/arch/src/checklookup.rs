//! The `checklookup` instruction (paper §4.3.2, Figure 12).
//!
//! `checklookup (x → y)` answers, in a handful of cycles, the two questions
//! every read barrier asks: *is this address in a relocation page?* and *if
//! so, where is its destination?* — replacing the software page check and
//! in-memory forwarding-table walk that dominate Espresso's barrier cost.
//!
//! The unit is split in two so the common case never takes a host lock:
//!
//! * [`Armed`]: the per-cycle programming (base address and bloom filter).
//!   Immutable after [`CheckLookupUnit::begin_cycle`] and published through
//!   an `Arc` snapshot, so disarmed and out-of-pool lookups resolve
//!   lock-free.
//! * Hot state (BFC residency flag, PMFTLB, unit stats): mutated on every
//!   charged lookup, kept behind a mutex exactly as before — the charge
//!   sequence on this path is pinned by cycle-total regressions.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use ffccd_pmem::{Ctx, PmEngine};

use crate::bloom::BloomFilter;
use crate::pmft::{Pmft, PmftEntry};

/// Outcome of a `checklookup`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupResult {
    /// The address is not in a relocation page (or was a bloom false
    /// positive; the access proceeds as a normal PM access).
    NotRelocation,
    /// The object starting at the checked slot relocates to
    /// (`dest_frame`, `dest_slot`).
    Forwarded {
        /// Destination frame (major distance).
        dest_frame: u64,
        /// Destination start slot within the frame (minor distance).
        dest_slot: u8,
    },
}

#[derive(Debug, Default)]
struct UnitStats {
    bloom_rejects: u64,
    bfc_misses: u64,
    pmftlb_hits: u64,
    pmftlb_misses: u64,
}

/// Per-cycle programming, shared via `Arc` snapshot (see module docs).
#[derive(Debug)]
struct Armed {
    base: u64,
    /// Filter capacity, kept so a per-shard re-arm can rebuild the merged
    /// filter without the engine config in hand.
    bloom_bytes: usize,
    /// The relocation-page filter. The paper builds up to 8 in-memory
    /// filters sharded by VA range; at our pool sizes one 1 KiB filter
    /// (exactly the BFC's capacity, Table 1) covers every relocation page,
    /// so the BFC holds it resident for the whole cycle and the common-case
    /// check costs 2 cycles. The fill penalty is paid on first use.
    filter: BloomFilter,
}

#[derive(Debug)]
struct HotState {
    /// Whether the BFC has fetched the filter yet.
    loaded: bool,
    /// PMFTLB: most-recently-used last.
    tlb: Vec<PmftEntry>,
    tlb_cap: usize,
    stats: UnitStats,
}

/// Hardware check-and-lookup unit: Bloom Filter Cache + PMFT look-aside
/// buffer, backed by the persistent [`Pmft`].
#[derive(Debug)]
pub struct CheckLookupUnit {
    pmft: Pmft,
    armed: RwLock<Option<Arc<Armed>>>,
    hot: Mutex<HotState>,
    /// Per-GC-shard relocation frames currently armed. The published
    /// [`Armed`] programming is always the union of every shard's set —
    /// there is one physical unit, programmed once per change, exactly as
    /// one bloom filter covers all relocation pages in the paper. Guarded
    /// by its own lock because shards arm/disarm concurrently.
    cycle_sets: Mutex<Vec<Vec<u64>>>,
}

impl CheckLookupUnit {
    /// Creates an idle unit over `pmft`. Sizes come from the engine config
    /// at [`CheckLookupUnit::begin_cycle`].
    pub fn new(pmft: Pmft) -> Self {
        CheckLookupUnit {
            pmft,
            armed: RwLock::new(None),
            hot: Mutex::new(HotState {
                loaded: false,
                tlb: Vec::new(),
                tlb_cap: 16,
                stats: UnitStats::default(),
            }),
            cycle_sets: Mutex::new(Vec::new()),
        }
    }

    /// Programs the unit for a compaction cycle: builds the in-memory bloom
    /// filter over the entries' relocation frames and arms the BFC/PMFTLB.
    pub fn begin_cycle(&self, engine: &PmEngine, base: u64, entries: &[PmftEntry]) {
        self.begin_cycle_shard(engine, base, entries, 0, 1);
    }

    /// Per-shard arming: programs shard `shard`'s forwarding entries into
    /// the unit, merging them with every other shard's live set (the unit
    /// is one physical device; the published programming is the union).
    /// When no *other* shard is armed this is exactly [`CheckLookupUnit::
    /// begin_cycle`] — BFC refetch, stats reset — otherwise the hot state
    /// carries over.
    pub fn begin_cycle_shard(
        &self,
        engine: &PmEngine,
        base: u64,
        entries: &[PmftEntry],
        shard: usize,
        nshards: usize,
    ) {
        let cfg = engine.config();
        let mut sets = self.cycle_sets.lock();
        if sets.len() != nshards {
            sets.resize(nshards, Vec::new());
        }
        let others_idle = sets
            .iter()
            .enumerate()
            .all(|(i, s)| i == shard || s.is_empty());
        sets[shard] = entries.iter().map(|e| e.reloc_frame).collect();
        let filter = self.filter_of(&sets, base, cfg.bloom_filter_bytes);
        {
            let mut s = self.hot.lock();
            if others_idle {
                s.loaded = false;
                s.stats = UnitStats::default();
            }
            s.tlb.clear();
            s.tlb_cap = cfg.pmftlb_entries.max(1);
        }
        *self.armed.write() = Some(Arc::new(Armed {
            base,
            bloom_bytes: cfg.bloom_filter_bytes,
            filter,
        }));
    }

    /// Disarms the unit at cycle end: every lookup returns
    /// [`LookupResult::NotRelocation`] at zero charged cost.
    pub fn end_cycle(&self) {
        self.end_cycle_shard(0);
    }

    /// Per-shard disarming: removes shard `shard`'s entries from the
    /// programming. The last shard out fully disarms the unit (exactly
    /// [`CheckLookupUnit::end_cycle`]); otherwise the merged programming is
    /// rebuilt from the surviving shards and only the PMFTLB is shot down
    /// (its entries may name dead frames).
    pub fn end_cycle_shard(&self, shard: usize) {
        let mut sets = self.cycle_sets.lock();
        if shard < sets.len() {
            sets[shard].clear();
        }
        if sets.iter().all(|s| s.is_empty()) {
            *self.armed.write() = None;
            let mut s = self.hot.lock();
            s.tlb.clear();
            s.loaded = false;
            return;
        }
        let Some(prev) = self.armed.read().clone() else {
            return;
        };
        *self.armed.write() = Some(Arc::new(Armed {
            base: prev.base,
            bloom_bytes: prev.bloom_bytes,
            filter: self.filter_of(&sets, prev.base, prev.bloom_bytes),
        }));
        self.hot.lock().tlb.clear();
    }

    /// Whether a cycle is armed.
    pub fn is_active(&self) -> bool {
        self.armed.read().is_some()
    }

    /// The bloom filter over every armed shard's relocation frames.
    fn filter_of(&self, sets: &[Vec<u64>], base: u64, bytes: usize) -> BloomFilter {
        let mut filter = BloomFilter::new(bytes);
        for &frame in sets.iter().flatten() {
            filter.insert(self.vpn_of_frame(base, frame));
        }
        filter
    }

    fn vpn_of_frame(&self, base: u64, frame: u64) -> u64 {
        (base + self.pmft.meta().data_start + frame * 4096) / 4096
    }

    /// Executes `checklookup` on virtual address `va` (the address of the
    /// *object start slot*, header included).
    pub fn checklookup(&self, ctx: &mut Ctx, engine: &PmEngine, va: u64) -> LookupResult {
        let cfg = engine.config();
        ctx.stats.checklookups += 1;
        let Some(armed) = self.armed.read().clone() else {
            return LookupResult::NotRelocation;
        };
        // Locate the object's frame.
        let off = va.wrapping_sub(armed.base);
        let meta = *self.pmft.meta();
        if off < meta.data_start || off >= meta.data_start + meta.num_frames * 4096 {
            ctx.charge(cfg.bloom_check_latency);
            return LookupResult::NotRelocation;
        }
        let frame = (off - meta.data_start) / 4096;
        let slot = ((off - meta.data_start) % 4096 / 16) as usize;
        let mut s = self.hot.lock();
        // 1. BFC: fetch the filter on first use, then it stays resident.
        if !s.loaded {
            s.stats.bfc_misses += 1;
            ctx.charge(cfg.bloom_miss_latency);
            s.loaded = true;
        }
        ctx.charge(cfg.bloom_check_latency);
        let vpn = va / 4096;
        if !armed.filter.maybe_contains(vpn) {
            s.stats.bloom_rejects += 1;
            return LookupResult::NotRelocation;
        }
        // 2. PMFTLB.
        if let Some(pos) = s.tlb.iter().position(|e| e.reloc_frame == frame) {
            s.stats.pmftlb_hits += 1;
            ctx.charge(cfg.pmftlb_latency);
            let e = s.tlb.remove(pos);
            let res = match e.lookup(slot) {
                Some(d) => LookupResult::Forwarded {
                    dest_frame: e.dest_frame,
                    dest_slot: d,
                },
                None => LookupResult::NotRelocation,
            };
            s.tlb.push(e);
            return res;
        }
        // 3. PMFT walk (memory fill).
        s.stats.pmftlb_misses += 1;
        ctx.charge(cfg.pm_read_latency);
        match self.pmft.load(engine, frame) {
            Some(e) => {
                let res = match e.lookup(slot) {
                    Some(d) => LookupResult::Forwarded {
                        dest_frame: e.dest_frame,
                        dest_slot: d,
                    },
                    None => LookupResult::NotRelocation,
                };
                if s.tlb.len() >= s.tlb_cap {
                    s.tlb.remove(0);
                }
                s.tlb.push(e);
                res
            }
            // Bloom false positive: no PMFT entry — normal access (§4.3.2).
            None => LookupResult::NotRelocation,
        }
    }

    /// (bloom rejects, BFC misses, PMFTLB hits, PMFTLB misses).
    pub fn unit_stats(&self) -> (u64, u64, u64, u64) {
        let s = self.hot.lock();
        (
            s.stats.bloom_rejects,
            s.stats.bfc_misses,
            s.stats.pmftlb_hits,
            s.stats.pmftlb_misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::GcMetaLayout;
    use crate::pmft::PmftEntry;
    use ffccd_pmem::MachineConfig;
    use ffccd_pmop::PoolLayout;

    const BASE: u64 = 0x5000_0000_0000;

    fn setup(reloc: &[u64]) -> (PmEngine, CheckLookupUnit, Ctx, GcMetaLayout) {
        let pool = PoolLayout::compute(1 << 20, 4096);
        let meta = GcMetaLayout::from_pool(&pool);
        let engine = PmEngine::new(MachineConfig::default(), pool.total_bytes);
        let mut ctx = Ctx::new(engine.config());
        let pmft = Pmft::new(meta);
        let mut entries = Vec::new();
        for &f in reloc {
            let mut e = PmftEntry::new(f, f + 50);
            e.map(0, 4);
            e.map(32, 8);
            pmft.store(&mut ctx, &engine, &e);
            entries.push(e);
        }
        let unit = CheckLookupUnit::new(pmft);
        unit.begin_cycle(&engine, BASE, &entries);
        (engine, unit, ctx, meta)
    }

    fn va(meta: &GcMetaLayout, frame: u64, slot: u64) -> u64 {
        BASE + meta.data_start + frame * 4096 + slot * 16
    }

    #[test]
    fn forwards_mapped_slots() {
        let (engine, unit, mut ctx, meta) = setup(&[3]);
        let r = unit.checklookup(&mut ctx, &engine, va(&meta, 3, 0));
        assert_eq!(
            r,
            LookupResult::Forwarded {
                dest_frame: 53,
                dest_slot: 4
            }
        );
        let r = unit.checklookup(&mut ctx, &engine, va(&meta, 3, 32));
        assert_eq!(
            r,
            LookupResult::Forwarded {
                dest_frame: 53,
                dest_slot: 8
            }
        );
    }

    #[test]
    fn rejects_non_relocation_frames_cheaply() {
        let (engine, unit, mut ctx, meta) = setup(&[3]);
        // Warm the BFC with one access.
        let _ = unit.checklookup(&mut ctx, &engine, va(&meta, 5, 0));
        let c0 = ctx.cycles();
        let r = unit.checklookup(&mut ctx, &engine, va(&meta, 5, 0));
        assert_eq!(r, LookupResult::NotRelocation);
        assert!(
            ctx.cycles() - c0 <= engine.config().bloom_check_latency + 2,
            "warm reject must cost ~2 cycles, cost {}",
            ctx.cycles() - c0
        );
    }

    #[test]
    fn pmftlb_caches_entries() {
        let (engine, unit, mut ctx, meta) = setup(&[7]);
        let _ = unit.checklookup(&mut ctx, &engine, va(&meta, 7, 0)); // fill
        let c0 = ctx.cycles();
        let _ = unit.checklookup(&mut ctx, &engine, va(&meta, 7, 32)); // hit
        let hit_cost = ctx.cycles() - c0;
        assert!(
            hit_cost <= engine.config().pmftlb_latency + engine.config().bloom_check_latency,
            "PMFTLB hit should be cheap, cost {hit_cost}"
        );
        let (_, _, hits, misses) = unit.unit_stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
    }

    #[test]
    fn inactive_unit_always_rejects() {
        let (engine, unit, mut ctx, meta) = setup(&[3]);
        unit.end_cycle();
        assert!(!unit.is_active());
        let r = unit.checklookup(&mut ctx, &engine, va(&meta, 3, 0));
        assert_eq!(r, LookupResult::NotRelocation);
    }

    #[test]
    fn unmapped_slot_in_relocation_frame_is_not_found() {
        let (engine, unit, mut ctx, meta) = setup(&[3]);
        let r = unit.checklookup(&mut ctx, &engine, va(&meta, 3, 100));
        assert_eq!(r, LookupResult::NotRelocation);
    }

    #[test]
    fn out_of_pool_va_is_rejected() {
        let (engine, unit, mut ctx, _) = setup(&[3]);
        let r = unit.checklookup(&mut ctx, &engine, 0x1234);
        assert_eq!(r, LookupResult::NotRelocation);
    }
}
