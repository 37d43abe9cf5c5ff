//! Identity of one crash-campaign probe.
//!
//! The crash campaigns (workloads crate) check recovery against *chosen*
//! faults: at a deterministic crash site they pick a subset of the
//! maybe-persisted lines and materialize the crash image in which exactly
//! that subset reached media, crash recovery itself at one of its own
//! durability events, or kill one mutator thread at a durability-event
//! ordinal. A failure is fully identified, and byte-identically
//! replayable, from the probe recorded here; every failure report carries
//! it, and its [`Display`](fmt::Display) text parses back
//! ([`FromStr`]) so a printed probe can be pasted into a replay.

use std::fmt;
use std::str::FromStr;

/// The replayable identity of one explored crash outcome:
/// `(seed, site_id, subset_bitmask, phase)`.
///
/// * `seed` seeds the whole run (machine RNG + target selection), making
///   site IDs deterministic;
/// * `site_id` names the durability event the image was captured at (the
///   kill ordinal for thread-kill probes);
/// * `subset_mask` selects which maybe-persisted lines the materialized
///   image contains (bit `i` ⇒ entry `i` of the site's
///   `ffccd_pmem::MaybeSet` persisted; always 0 for thread kills).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProbeId {
    /// Machine/plan seed of the run.
    pub seed: u64,
    /// Deterministic crash-site ID within that run. For recovery-phase
    /// probes this packs `outer_site << 32 | recovery_site` (see
    /// [`ProbeId::nested`]).
    pub site_id: u64,
    /// Subset bitmask over the site's maybe-persisted set.
    pub subset_mask: u64,
    /// Which tracking window the site belongs to.
    pub phase: ProbePhase,
}

/// Which execution phase a probe's crash site was enumerated in — mirrors
/// `ffccd_pmem::SitePhase`, so `(seed, site_id, phase, subset)` names a
/// unique, replayable crash outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProbePhase {
    /// Site fired during workload + defragmentation execution.
    #[default]
    Mutator,
    /// Site fired inside `recover()` running on an outer crash image
    /// (nested crash: the §7.1d campaign).
    Recovery,
    /// Mutator thread `victim` was killed at its `site_id`-th durability
    /// event while the other threads drained (the §7.1e campaign).
    ThreadKill {
        /// Index of the killed thread.
        victim: u32,
    },
}

impl ProbeId {
    /// Builds a mutator-phase triple.
    pub fn new(seed: u64, site_id: u64, subset_mask: u64) -> Self {
        ProbeId {
            seed,
            site_id,
            subset_mask,
            phase: ProbePhase::Mutator,
        }
    }

    /// Builds a recovery-phase probe: the workload crashed at mutator site
    /// `outer_site`, recovery ran on that image and was itself crashed at
    /// `recovery_site`, and `subset_mask` selects the nested image's
    /// maybe-persisted subset. Both site IDs must fit 32 bits (runs fire
    /// well under 2³² sites).
    pub fn nested(seed: u64, outer_site: u64, recovery_site: u64, subset_mask: u64) -> Self {
        assert!(
            outer_site < (1 << 32) && recovery_site < (1 << 32),
            "site ids exceed the 32-bit packing"
        );
        ProbeId {
            seed,
            site_id: outer_site << 32 | recovery_site,
            subset_mask,
            phase: ProbePhase::Recovery,
        }
    }

    /// Builds a thread-kill probe: thread `victim` dies at its
    /// `kill_site`-th durability event.
    pub fn thread_kill(seed: u64, kill_site: u64, victim: u32) -> Self {
        ProbeId {
            seed,
            site_id: kill_site,
            subset_mask: 0,
            phase: ProbePhase::ThreadKill { victim },
        }
    }

    /// Mutator-phase crash site the recovery ran from (recovery-phase
    /// probes only; equals `site_id` otherwise).
    pub fn outer_site(&self) -> u64 {
        match self.phase {
            ProbePhase::Recovery => self.site_id >> 32,
            _ => self.site_id,
        }
    }

    /// Site within the recovery tracking window (recovery-phase probes).
    pub fn recovery_site(&self) -> u64 {
        match self.phase {
            ProbePhase::Recovery => self.site_id & 0xFFFF_FFFF,
            _ => 0,
        }
    }
}

impl fmt::Display for ProbeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.phase {
            ProbePhase::Mutator => write!(
                f,
                "(seed=0x{:x}, site={}, subset=0x{:x})",
                self.seed, self.site_id, self.subset_mask
            ),
            ProbePhase::Recovery => write!(
                f,
                "(seed=0x{:x}, site={}/{}, phase=recovery, subset=0x{:x})",
                self.seed,
                self.outer_site(),
                self.recovery_site(),
                self.subset_mask
            ),
            ProbePhase::ThreadKill { victim } => write!(
                f,
                "(seed=0x{:x}, kill_site={}, victim={victim})",
                self.seed, self.site_id
            ),
        }
    }
}

/// Parses the [`Display`](fmt::Display) form of every phase back into the
/// probe it names.
impl FromStr for ProbeId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        fn num(v: &str) -> Result<u64, String> {
            match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            }
            .map_err(|e| format!("bad number {v:?}: {e}"))
        }
        let body = s
            .trim()
            .strip_prefix('(')
            .and_then(|b| b.strip_suffix(')'))
            .ok_or_else(|| format!("probe {s:?} is not parenthesized"))?;
        let (mut seed, mut site, mut kill, mut victim) = (None, None, None, None);
        let (mut subset, mut recovery) = (0, false);
        for field in body.split(", ") {
            match field.split_once('=') {
                Some(("seed", v)) => seed = Some(num(v)?),
                Some(("site", v)) => site = Some(v),
                Some(("subset", v)) => subset = num(v)?,
                Some(("phase", "recovery")) => recovery = true,
                Some(("kill_site", v)) => kill = Some(num(v)?),
                Some(("victim", v)) => victim = Some(num(v)?),
                _ => return Err(format!("unknown probe field {field:?}")),
            }
        }
        let seed = seed.ok_or("probe has no seed")?;
        match (site, kill, victim) {
            (None, Some(kill), Some(victim)) => {
                let victim = u32::try_from(victim).map_err(|e| e.to_string())?;
                Ok(ProbeId::thread_kill(seed, kill, victim))
            }
            (Some(site), None, None) if recovery => {
                let (outer, inner) = site
                    .split_once('/')
                    .ok_or("recovery probe site must be OUTER/INNER")?;
                let (outer, inner) = (num(outer)?, num(inner)?);
                if outer >= 1 << 32 || inner >= 1 << 32 {
                    return Err("site ids exceed the 32-bit packing".to_owned());
                }
                Ok(ProbeId::nested(seed, outer, inner, subset))
            }
            (Some(site), None, None) => Ok(ProbeId::new(seed, num(site)?, subset)),
            _ => Err(format!("probe {s:?} names neither a site nor a kill")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_the_replay_triple() {
        let p = ProbeId::new(0x517e01, 42, 0b1011);
        assert_eq!(p.to_string(), "(seed=0x517e01, site=42, subset=0xb)");
    }

    #[test]
    fn ordering_is_by_site_then_mask() {
        let a = ProbeId::new(1, 2, 9);
        let b = ProbeId::new(1, 3, 0);
        assert!(a < b);
        assert_eq!(a, ProbeId::new(1, 2, 9));
    }

    #[test]
    fn nested_probe_packs_and_displays_both_sites() {
        let p = ProbeId::nested(0xadfe00, 120_000, 37, 0b101);
        assert_eq!(p.outer_site(), 120_000);
        assert_eq!(p.recovery_site(), 37);
        assert_eq!(p.phase, ProbePhase::Recovery);
        assert_eq!(
            p.to_string(),
            "(seed=0xadfe00, site=120000/37, phase=recovery, subset=0x5)"
        );
        // Same (outer, inner) numbers in mutator phase are a distinct probe.
        assert_ne!(p, ProbeId::new(0xadfe00, 120_000 << 32 | 37, 0b101));
    }

    #[test]
    fn thread_kill_probe_displays_the_kill_triple() {
        let p = ProbeId::thread_kill(0x7c4a01, 2681, 3);
        assert_eq!(p.phase, ProbePhase::ThreadKill { victim: 3 });
        assert_eq!(p.to_string(), "(seed=0x7c4a01, kill_site=2681, victim=3)");
        assert_eq!(p.outer_site(), 2681);
        assert_eq!(p.recovery_site(), 0);
        assert_ne!(p, ProbeId::new(0x7c4a01, 2681, 0));
    }

    #[test]
    fn every_phase_parses_back_from_its_display() {
        for p in [
            ProbeId::new(0x517e01, 271_422, 0),
            ProbeId::new(0x517e02, 120_000, u64::MAX),
            ProbeId::nested(0x9e57ed, 93_273, 60, 0x1),
            ProbeId::thread_kill(0x7c4a14, 7428, 2),
        ] {
            assert_eq!(p.to_string().parse::<ProbeId>(), Ok(p));
        }
        for bad in [
            "seed=0x1, site=2",
            "(site=2, subset=0x0)",
            "(seed=0x1, site=2, op=7)",
            "(seed=0x1, site=5, phase=recovery, subset=0x0)",
            "(seed=0x1, kill_site=4)",
        ] {
            assert!(bad.parse::<ProbeId>().is_err(), "{bad} must not parse");
        }
    }
}
