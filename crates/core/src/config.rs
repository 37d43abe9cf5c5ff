//! Defragmentation schemes and configuration.

use serde::{Deserialize, Serialize};

/// Which crash-consistent defragmentation design to run (paper §3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// No defragmentation at all (the PMDK baseline).
    Baseline,
    /// Espresso adapted to C/C++ (Figure 6a): two persist barriers per
    /// relocation — `clwb…sfence` after the copy and after the moved-state
    /// update.
    Espresso,
    /// Single-fence CCD (Figure 7): the copy's `sfence` is removed; recovery
    /// compares destination contents to finish interrupted copies.
    Sfccd,
    /// Fence-free CCD with the `relocate` instruction and Reached Bitmap
    /// Buffer (Figure 9/10): no `clwb`/`sfence` at all; software check and
    /// forwarding-table lookup.
    FfccdFenceFree,
    /// Fence-free CCD plus the `checklookup` instruction (Bloom Filter
    /// Cache + PMFTLB, Figure 12) replacing the software check/lookup.
    FfccdCheckLookup,
}

impl Scheme {
    /// All schemes that actually defragment (everything but the baseline).
    pub const DEFRAG_SCHEMES: [Scheme; 4] = [
        Scheme::Espresso,
        Scheme::Sfccd,
        Scheme::FfccdFenceFree,
        Scheme::FfccdCheckLookup,
    ];

    /// Whether the scheme uses the `relocate` instruction + RBB.
    pub fn uses_relocate(self) -> bool {
        matches!(self, Scheme::FfccdFenceFree | Scheme::FfccdCheckLookup)
    }

    /// Whether the scheme uses the `checklookup` instruction.
    pub fn uses_checklookup(self) -> bool {
        self == Scheme::FfccdCheckLookup
    }

    /// Short display label (matches the paper's figure legends).
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Baseline => "Baseline",
            Scheme::Espresso => "Espresso",
            Scheme::Sfccd => "SFCCD",
            Scheme::FfccdFenceFree => "FFCCD (+fence free)",
            Scheme::FfccdCheckLookup => "FFCCD (+checklookup)",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Defragmentation settings delivered through the paper's `init()` API (§5).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DefragConfig {
    /// The scheme to run.
    pub scheme: Scheme,
    /// Start a cycle when fragR exceeds this ratio (§6: 1.5 normal, 1.7
    /// relaxed).
    pub trigger_ratio: f64,
    /// Compact until the projected fragR reaches this ratio (§6: 1.25
    /// normal, 1.5 relaxed).
    pub target_ratio: f64,
    /// Objects relocated per [`crate::DefragHeap::step_compaction`] batch
    /// when the driver interleaves compaction with application work.
    pub compaction_batch: usize,
    /// Don't trigger below this many live bytes (avoids churning a heap
    /// that fits in a handful of pages).
    pub min_live_bytes: u64,
    /// Most OS pages one cycle may evacuate. Destination frames commit at
    /// summary but sources release only as they evacuate, so unbounded
    /// cycles transiently double the footprint; smaller, re-triggered
    /// cycles keep the transient small.
    pub max_pages_per_cycle: usize,
    /// Minimum allocator operations between cycle starts (trigger
    /// hysteresis). Without it a falling live set re-triggers immediately
    /// after every cycle, re-relocating the same survivors over and over —
    /// all cost, no extra footprint benefit.
    pub cooldown_ops: u64,
    /// Number of independent heap shards / GC domains. Each shard owns a
    /// disjoint set of OS pages with its own free-list and fragmentation
    /// accounting, and runs its own concurrent mark/compact cycle (shard A
    /// can be compacting while shard B is idle). `0` and `1` both mean a
    /// single shard — byte-identical to the pre-sharding engine, which is
    /// what every pinned fingerprint and cycle total is recorded against.
    /// Clamped to [`ffccd_pmop::MAX_SHARDS`].
    #[serde(default)]
    pub shards: usize,
}

impl DefragConfig {
    /// The paper's *normal* parameters (Redis defaults): trigger 1.5,
    /// target 1.25.
    pub fn normal(scheme: Scheme) -> Self {
        DefragConfig {
            scheme,
            trigger_ratio: 1.5,
            target_ratio: 1.25,
            compaction_batch: 64,
            min_live_bytes: 1 << 16,
            max_pages_per_cycle: 256,
            cooldown_ops: 1024,
            shards: 1,
        }
    }

    /// The paper's *relaxed* parameters: trigger 1.7, target 1.5.
    pub fn relaxed(scheme: Scheme) -> Self {
        DefragConfig {
            trigger_ratio: 1.7,
            target_ratio: 1.5,
            ..Self::normal(scheme)
        }
    }

    /// The effective shard count: `shards` clamped to
    /// `1..=`[`ffccd_pmop::MAX_SHARDS`] (0 reads as 1, matching old
    /// serialized configs that predate the field).
    pub fn num_shards(&self) -> usize {
        self.shards.clamp(1, ffccd_pmop::MAX_SHARDS)
    }

    /// A baseline (never-triggering) configuration.
    pub fn baseline() -> Self {
        DefragConfig {
            trigger_ratio: f64::INFINITY,
            ..Self::normal(Scheme::Baseline)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_and_relaxed_match_paper() {
        let n = DefragConfig::normal(Scheme::FfccdCheckLookup);
        assert_eq!(n.trigger_ratio, 1.5);
        assert_eq!(n.target_ratio, 1.25);
        let r = DefragConfig::relaxed(Scheme::FfccdCheckLookup);
        assert_eq!(r.trigger_ratio, 1.7);
        assert_eq!(r.target_ratio, 1.5);
    }

    #[test]
    fn scheme_capabilities() {
        assert!(!Scheme::Espresso.uses_relocate());
        assert!(!Scheme::Sfccd.uses_relocate());
        assert!(Scheme::FfccdFenceFree.uses_relocate());
        assert!(!Scheme::FfccdFenceFree.uses_checklookup());
        assert!(Scheme::FfccdCheckLookup.uses_checklookup());
    }

    #[test]
    fn baseline_never_triggers() {
        let b = DefragConfig::baseline();
        assert!(b.trigger_ratio.is_infinite());
        assert_eq!(b.scheme, Scheme::Baseline);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = Scheme::DEFRAG_SCHEMES.iter().map(|s| s.label()).collect();
        labels.push(Scheme::Baseline.label());
        let n = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }
}
