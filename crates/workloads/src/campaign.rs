//! Crash campaigns (paper §7.1b–e): one engine for every fault model.
//!
//! FFCCD's central claim (§3.3, §5) is that recovery tolerates *any* legal
//! durability outcome. Each campaign checks it against one [`Fault`]:
//!
//! * [`Fault::Site`] — a whole-machine crash right after a deterministic
//!   durability event (store / clwb / sfence / WPQ / eviction / GC phase).
//!   Under ADR every subset of the site's maybe-persisted set — dirty cache
//!   lines plus post-`clwb`/pre-`sfence` in-flight lines; WPQ contents are
//!   ADR-guaranteed and excluded — is an equally legal outcome, so up to
//!   `images` subsets are materialized per site: exhaustively when
//!   `2^window` fits, corners first ([`choose_masks`]) beyond. One image
//!   per site (the base image, mask 0) is the §7.1b sweep; more is the
//!   §7.1c adversarial exploration.
//! * [`Fault::Nested`] — the machine dies *again inside recovery* (§7.1d).
//!   Outer images are sampled from GC-cycle windows, `recover()` reruns on
//!   each with recovery-phase site tracking armed, and the targeted
//!   recovery sites' lattices are explored under the idempotent-recovery
//!   oracle (a second `recover()` must be a byte-identical no-op).
//! * [`Fault::ThreadKill`] — K of [`KILL_THREADS`] mutator threads die at
//!   sampled durability-event ordinals while the survivors drain (§7.1e).
//!
//! Every campaign runs one pipeline. A reference run enumerates the
//! target space. Targets split round-robin over `jobs` workers, each
//! replaying from the same seed on the single-bank deterministic engine,
//! so the merged [`Report`] is identical at every job count. A failing
//! subset shrinks to a 1-minimal counterexample ([`shrink_subset`]; a
//! failing multi-kill run to its single kills), and the first failures
//! are confirmed by an isolated from-scratch [`replay`] of their
//! [`ProbeId`] — the same entry point `replay_site` uses.
//!
//! Shrink probes re-validate *images* (materialize + recover + validate),
//! not whole runs — the capture is already in hand — so shrinking a subset
//! costs probes, not workload replays. Recovery-phase captures come from a
//! freshly restarted machine before any observer is installed, so nested
//! maybe-sets carry no reached-bitmap fixups.

use std::collections::BTreeSet;
use std::fmt;

use ffccd::{
    phase_sites, recover, DefragConfig, DefragHeap, ProbeId, ProbePhase, RecoveryReport, Scheme,
};
use ffccd_pmem::{CrashImage, MaybeSet, SiteCapture, SiteKind, SitePhase, SiteSummary};
use ffccd_pmop::TypeRegistry;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::driver::{
    run_mt_faulted, run_on, DriverConfig, MtConfig, MtSchedule, OpHook, PhaseMix,
    ThreadCrashOutcome, ThreadFaultPlan, ThreadKill,
};
use crate::faults::{deterministic_pool, fault_defrag, validate_capture};
use crate::par::parallel_map;
use crate::workload::Workload;

/// Mutator threads in every thread-kill run.
pub const KILL_THREADS: usize = 4;

/// Probe budget for one greedy shrink: popcount ≤ 64 per pass, a handful
/// of passes to fixpoint. Each probe is one image recovery + validation.
const SHRINK_MAX_PROBES: usize = 2048;

/// How many of a campaign's (sorted) failures an isolated replay confirms.
const CONFIRMED_FAILURES: usize = 8;

/// The fault model a campaign injects, with its geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Whole-machine crash at up to `sites` mutator-phase durability
    /// events, each explored over up to `images` maybe-persisted subsets
    /// (`images = 1` validates the base image alone: the §7.1b sweep).
    Site {
        /// Maximum sites to capture: exhaustive when the run fires fewer,
        /// seeded-random selection across the whole run beyond that.
        sites: u64,
        /// Maximum subset images per site.
        images: u64,
    },
    /// Crash inside recovery: `outer` mutator-phase images (sampled from
    /// GC-cycle windows), up to `sites` recovery sites each, up to
    /// `images` subsets per recovery site.
    Nested {
        /// Maximum outer crash sites to capture and recover under tracking.
        outer: u64,
        /// Maximum recovery sites to capture per outer image.
        sites: u64,
        /// Maximum subset images per recovery site.
        images: u64,
    },
    /// `runs` sampled runs, each killing `kills` of the [`KILL_THREADS`]
    /// mutators (clamped so at least one survivor drains).
    ThreadKill {
        /// Threads killed per run.
        kills: usize,
        /// Sampled kill runs.
        runs: u64,
    },
}

/// One campaign: a fault model plus the seed that makes every target —
/// and so every failure's [`ProbeId`] — reproducible.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Machine seed; also seeds target and mask selection.
    pub seed: u64,
    /// What to inject, and how much of it.
    pub fault: Fault,
}

/// One validation failure with everything needed to replay it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// The replayable probe. When `minimal` is set its mask (or kill) is
    /// the shrunk culprit, not necessarily the one that first failed.
    pub probe: ProbeId,
    /// 1-based op index during which the (outer) site fired; 0 for thread
    /// kills, whose op streams are per thread.
    pub op: u64,
    /// Event kind label of the probed site (e.g. `clwb`, `wpq-accept`).
    pub kind: &'static str,
    /// Size of the probed site's maybe-persisted set.
    pub maybe_len: usize,
    /// What the oracle reported for the (shrunk) probe.
    pub message: String,
    /// Whether shrinking confirmed 1-minimality within its budget.
    pub minimal: bool,
    /// Whether an isolated replay from scratch reproduced the failure.
    pub reproduced: bool,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.probe.phase {
            ProbePhase::ThreadKill { .. } => write!(f, "{}: {}", self.probe, self.message)?,
            _ => write!(
                f,
                "{} during {} (op {}, maybe {}): {}",
                self.probe, self.kind, self.op, self.maybe_len, self.message
            )?,
        }
        if self.minimal {
            f.write_str(" [1-minimal]")?;
        }
        if self.reproduced {
            f.write_str(" [reproduced]")?;
        }
        Ok(())
    }
}

/// Outcome of one campaign (or of one worker's share of it — partial
/// reports merge by sum, and by max for `max_maybe`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Mutator sites the reference run fired in total.
    pub total_sites: u64,
    /// Per-kind counts of those sites.
    pub site_counts: Vec<(&'static str, u64)>,
    /// Mutator sites inside GC-cycle windows, the nested campaign's outer
    /// targeting range (0: no cycle fired, targeting used the whole run).
    pub cycle_sites: u64,
    /// Outer crash sites chosen for capture (nested).
    pub outer_targeted: u64,
    /// Outer sites actually captured (nested).
    pub outer_captured: u64,
    /// Outer images whose recovery fired at least one durability event.
    pub nested_outer: u64,
    /// Recovery-phase durability events summed over the outer images.
    pub recovery_sites: u64,
    /// Sites chosen for lattice exploration (recovery sites when nested).
    pub targeted: u64,
    /// Sites actually captured; each contributes a lattice.
    pub captured: u64,
    /// Subset images materialized and run through the oracle.
    pub images: u64,
    /// Sites whose lattice was explored exhaustively.
    pub exhaustive_sites: u64,
    /// Sites with an empty maybe-persisted set (base image only).
    pub empty_lattices: u64,
    /// Sites whose maybe-persisted set extends beyond the 64-entry mask
    /// window (counted only when exploring beyond the base image).
    pub truncated_lattices: u64,
    /// Largest maybe-persisted set seen (may exceed the window).
    pub max_maybe: usize,
    /// Passing images whose recovery found an in-flight cycle.
    pub mid_cycle: u64,
    /// Objects finished / already durable across passing recoveries.
    pub recovered_objects: u64,
    /// Objects undone (FFCCD not-reached) across passing recoveries.
    pub undone_objects: u64,
    /// Sampled thread-kill runs (reference runs not counted).
    pub runs: u64,
    /// Kills that actually fired.
    pub kills_fired: u64,
    /// Planned kills that never fired (site past the thread's last event).
    pub kills_unfired: u64,
    /// Victims that died *inside* a structure op (the ambiguous window).
    pub inflight_kills: u64,
    /// Oracle failures, shrunk where possible: at most one per explored
    /// site (a broken site stops exploring after its first failure).
    pub failures: Vec<Failure>,
}

impl Report {
    /// Folds `other` into `self`: counters add, `max_maybe` takes the max.
    pub fn merge(&mut self, other: Report) {
        self.total_sites += other.total_sites;
        self.site_counts.extend(other.site_counts);
        self.cycle_sites += other.cycle_sites;
        self.outer_targeted += other.outer_targeted;
        self.outer_captured += other.outer_captured;
        self.nested_outer += other.nested_outer;
        self.recovery_sites += other.recovery_sites;
        self.targeted += other.targeted;
        self.captured += other.captured;
        self.images += other.images;
        self.exhaustive_sites += other.exhaustive_sites;
        self.empty_lattices += other.empty_lattices;
        self.truncated_lattices += other.truncated_lattices;
        self.max_maybe = self.max_maybe.max(other.max_maybe);
        self.mid_cycle += other.mid_cycle;
        self.recovered_objects += other.recovered_objects;
        self.undone_objects += other.undone_objects;
        self.runs += other.runs;
        self.kills_fired += other.kills_fired;
        self.kills_unfired += other.kills_unfired;
        self.inflight_kills += other.inflight_kills;
        self.failures.extend(other.failures);
    }
}

/// The driver configuration the §7.1b–d site campaigns run under (and
/// their probes replay under): the §6 mix at 1200 + 3 × 900 ops over an
/// 8 MiB pool, with a low live-bytes floor so cycles trigger.
pub fn site_config(scheme: Scheme, seed: u64) -> DriverConfig {
    let mut cfg = DriverConfig::new(scheme);
    cfg.mix = PhaseMix {
        init: 1200,
        phase_ops: 900,
        phases: 3,
    };
    cfg.seed = seed;
    cfg.pool.data_bytes = 8 << 20;
    cfg.pool.machine.seed = seed;
    cfg.defrag.min_live_bytes = 1 << 12;
    cfg
}

/// The driver configuration every thread-kill run uses: fault-campaign
/// defrag thresholds (cycles actually trigger at test scale), single-bank
/// deterministic engine, seeded turn schedule, tiny §6 mix.
pub fn thread_kill_config(scheme: Scheme, seed: u64) -> DriverConfig {
    let mut cfg = DriverConfig::new(scheme);
    cfg.defrag = fault_defrag(scheme);
    cfg.mix = PhaseMix::tiny();
    cfg.seed = seed;
    cfg.pool = deterministic_pool(&cfg, seed);
    cfg.pool.data_bytes = 8 << 20;
    cfg.mt = MtConfig {
        schedule: MtSchedule::Seeded(seed.rotate_left(21) ^ 0x7C4A_55ED),
        counter_flush_every: None,
    };
    cfg
}

/// Runs one campaign for one workload under one scheme, fanning its
/// targets out over `jobs` threads (the report is identical at every job
/// count). Failures come back sorted by probe (site campaigns) or in run
/// order (thread kills), and the first ones are confirmed by [`replay`].
///
/// Panics only if a thread-kill *reference* run (no kills) fails — that
/// is an ordinary mt-driver bug, not a campaign finding.
pub fn run(
    make: &(dyn Fn() -> Box<dyn Workload> + Sync),
    scheme: Scheme,
    plan: &Plan,
    cfg: &DriverConfig,
    jobs: usize,
) -> Report {
    let seed = plan.seed;
    let defrag = fault_defrag(scheme);
    let mut report = match plan.fault {
        Fault::Site { sites, images } => run_sites(
            make,
            cfg,
            seed,
            defrag,
            jobs,
            |summary, report| {
                let targets = choose_targets(summary.total, seed, sites);
                report.targeted = targets.len() as u64;
                targets
            },
            |report, op, cap, before, after| {
                explore_lattice(
                    report,
                    cap,
                    op,
                    (images, seed, cap.site.id),
                    |image| validate_capture(image, defrag, make, before, after, false),
                    |mask| ProbeId::new(seed, cap.site.id, mask),
                )
            },
        ),
        Fault::Nested {
            outer,
            sites,
            images,
        } => run_sites(
            make,
            cfg,
            seed,
            defrag,
            jobs,
            |summary, report| {
                let windows = cycle_windows(&summary.phase_marks, summary.total);
                report.cycle_sites = windows.iter().map(|&(lo, hi)| hi - lo).sum();
                let targets = choose_outer_targets(summary, &windows, seed, outer);
                report.outer_targeted = targets.len() as u64;
                targets
            },
            |report, op, cap, before, after| {
                explore_recovery(
                    report,
                    make,
                    seed,
                    (sites, images),
                    defrag,
                    op,
                    cap,
                    before,
                    after,
                )
            },
        ),
        Fault::ThreadKill { kills, runs } => run_kills(make, cfg, seed, kills, runs, jobs),
    };
    for f in report.failures.iter_mut().take(CONFIRMED_FAILURES) {
        f.reproduced = replay(make, scheme, f.probe, cfg).is_some_and(|r| r.outcome.is_err());
    }
    report
}

/// The site-campaign pipeline: a reference run enumerates the mutator
/// site space, `choose` picks the outer targets from it, and round-robin
/// target chunks each run their own capture pass, handing every capture
/// to `explore`. Failures sort by `(site_id, subset_mask)`.
fn run_sites(
    make: &(dyn Fn() -> Box<dyn Workload> + Sync),
    cfg: &DriverConfig,
    seed: u64,
    defrag: DefragConfig,
    jobs: usize,
    choose: impl FnOnce(&SiteSummary, &mut Report) -> BTreeSet<u64>,
    explore: impl Fn(&mut Report, u64, &SiteCapture, &BTreeSet<u64>, &BTreeSet<u64>) + Sync,
) -> Report {
    let summary = {
        let mut w = make();
        let heap = DefragHeap::create(deterministic_pool(cfg, seed), w.registry(), defrag)
            .expect("campaign reference pool");
        heap.engine().site_tracking_enumerate();
        run_on(&mut *w, cfg, &heap, &mut None);
        heap.engine().site_tracking_stop()
    };
    let mut report = Report {
        total_sites: summary.total,
        site_counts: summary
            .nonzero()
            .into_iter()
            .map(|(k, n)| (k.label(), n))
            .collect(),
        ..Report::default()
    };
    let targets = choose(&summary, &mut report);
    let chunks = split_round_robin(&targets, jobs.max(1));
    for part in parallel_map(&chunks, jobs.max(1), |_, chunk| {
        let mut part = Report::default();
        capture_pass(
            make,
            cfg,
            seed,
            defrag,
            chunk.clone(),
            |op, cap, before, after| {
                explore(&mut part, op, &cap, before, after);
                true
            },
        );
        part
    }) {
        report.merge(part);
    }
    report
        .failures
        .sort_by_key(|f| (f.probe.site_id, f.probe.subset_mask));
    report
}

/// One capture run: the workload replays from `seed` with capture armed
/// for `targets`, and each capture reaches `on_capture` at the first op
/// boundary after it fired, with that op's index and the live key sets
/// before and after it (captures are drained per op, so memory stays
/// bounded by the sites firing within a single op). Sites firing during
/// wind-down (`exit()`) see the final key set on both sides. Returning
/// `false` truncates the run: the shortest reproducing op prefix.
fn capture_pass(
    make: &dyn Fn() -> Box<dyn Workload>,
    cfg: &DriverConfig,
    seed: u64,
    defrag: DefragConfig,
    targets: BTreeSet<u64>,
    mut on_capture: impl FnMut(u64, SiteCapture, &BTreeSet<u64>, &BTreeSet<u64>) -> bool,
) {
    let mut w = make();
    let heap = DefragHeap::create(deterministic_pool(cfg, seed), w.registry(), defrag)
        .expect("campaign capture pool");
    heap.engine().site_tracking_capture(targets);
    let engine = heap.engine().clone();
    let mut prev_live: BTreeSet<u64> = BTreeSet::new();
    let mut more = true;
    {
        let mut hook = |op: u64, _heap: &DefragHeap, live: &BTreeSet<u64>| {
            for cap in engine.drain_site_captures() {
                more = more && on_capture(op, cap, &prev_live, live);
            }
            prev_live = live.clone();
            more
        };
        let mut hook_dyn: OpHook<'_> = Some(&mut hook);
        run_on(&mut *w, cfg, &heap, &mut hook_dyn);
    }
    let final_op = (cfg.mix.init + cfg.mix.phase_ops * cfg.mix.phases) as u64;
    for cap in heap.engine().drain_site_captures() {
        more = more && on_capture(final_op, cap, &prev_live, &prev_live);
    }
    heap.engine().site_tracking_stop();
}

/// Explores one captured site's maybe-persisted lattice: materializes each
/// mask [`choose_masks`] picks for `(images, seed, mask_key)`, runs
/// `oracle` on the image, and shrinks the first failure to a 1-minimal
/// counterexample — then stops exploring this site (further masks would
/// mostly restate the same bug).
fn explore_lattice(
    report: &mut Report,
    cap: &SiteCapture,
    op: u64,
    (images, seed, mask_key): (u64, u64, u64),
    oracle: impl Fn(&CrashImage) -> Result<RecoveryReport, String>,
    probe_of_mask: impl Fn(u64) -> ProbeId,
) {
    report.captured += 1;
    report.max_maybe = report.max_maybe.max(cap.maybe.len());
    if cap.maybe.is_empty() {
        report.empty_lattices += 1;
    }
    let window = cap.maybe.window();
    if images > 1 && cap.maybe.len() > window as usize {
        report.truncated_lattices += 1;
    }
    let (masks, exhaustive) = choose_masks(window, images, seed, mask_key);
    if exhaustive {
        report.exhaustive_sites += 1;
    }
    let check = |mask: u64| -> Result<RecoveryReport, String> {
        let image = cap
            .image
            .with_persisted_subset(&cap.maybe, mask)
            .map_err(|e| e.to_string())?;
        oracle(&image)
    };
    for mask in masks {
        report.images += 1;
        let first_msg = match check(mask) {
            Ok(rec) => {
                report.mid_cycle += u64::from(rec.had_cycle);
                report.recovered_objects += rec.finished + rec.already_durable;
                report.undone_objects += rec.undone;
                continue;
            }
            Err(msg) => msg,
        };
        let (min_mask, minimal) = shrink_subset(mask, |m| check(m).is_err(), SHRINK_MAX_PROBES);
        let message = if min_mask == mask {
            first_msg
        } else {
            check(min_mask).err().unwrap_or(first_msg)
        };
        report.failures.push(Failure {
            probe: probe_of_mask(min_mask),
            op,
            kind: cap.site.kind.label(),
            maybe_len: cap.maybe.len(),
            message,
            minimal,
            reproduced: false,
        });
        return;
    }
}

/// Explores one outer crash image for the nested campaign: enumerate the
/// durability events its recovery fires, capture the targeted ones, and
/// explore each captured recovery site's lattice under the idempotent
/// oracle. The restarted engine carries the image's single-bank
/// deterministic config, so recovery's event sequence is a pure function
/// of the image.
#[allow(clippy::too_many_arguments)] // one outer capture plus its campaign context
fn explore_recovery(
    report: &mut Report,
    make: &dyn Fn() -> Box<dyn Workload>,
    seed: u64,
    (sites, images): (u64, u64),
    defrag: DefragConfig,
    op: u64,
    cap: &SiteCapture,
    live_before: &BTreeSet<u64>,
    live_after: &BTreeSet<u64>,
) {
    report.outer_captured += 1;
    let registry = make().registry();
    let eng = cap.image.restart();
    eng.site_tracking_enumerate_phase(SitePhase::Recovery);
    let outcome = recover(&eng, &registry, defrag.scheme);
    let summary = eng.site_tracking_stop();
    if let Err(e) = outcome {
        // The base image failing recovery outright is a site-campaign
        // failure; record it here too so the nested report is standalone.
        report.failures.push(Failure {
            probe: ProbeId::nested(seed, cap.site.id, 0, 0),
            op,
            kind: cap.site.kind.label(),
            maybe_len: 0,
            message: format!("outer recovery failed: {e}"),
            minimal: false,
            reproduced: false,
        });
        return;
    }
    report.recovery_sites += summary.total;
    if summary.total == 0 {
        // Quiescent image: recovery wrote nothing to crash.
        return;
    }
    report.nested_outer += 1;
    let outer = cap.site.id;
    let targets = choose_targets(summary.total, seed ^ outer.rotate_left(17), sites);
    report.targeted += targets.len() as u64;
    for ncap in capture_recovery(&cap.image, targets, &registry, defrag.scheme) {
        explore_lattice(
            report,
            &ncap,
            op,
            (images, seed, outer << 32 | ncap.site.id),
            |image| validate_capture(image, defrag, make, live_before, live_after, true),
            |mask| ProbeId::nested(seed, outer, ncap.site.id, mask),
        );
    }
}

/// Reruns `recover()` on a restart of `image` with recovery-phase capture
/// armed for `targets`, returning the captures in firing order.
fn capture_recovery(
    image: &CrashImage,
    targets: BTreeSet<u64>,
    registry: &TypeRegistry,
    scheme: Scheme,
) -> Vec<SiteCapture> {
    let eng = image.restart();
    eng.site_tracking_capture_phase(targets, SitePhase::Recovery);
    let _ = recover(&eng, registry, scheme);
    let caps = eng.drain_site_captures();
    eng.site_tracking_stop();
    caps
}

/// The thread-kill campaign: a reference run (no kills) measures each
/// thread's durability-event total, `runs` kill plans are sampled from the
/// middle of those ranges, and a failing multi-kill run shrinks to the
/// single kills that still fail on their own (or blames the whole plan if
/// only the combination fails).
fn run_kills(
    make: &(dyn Fn() -> Box<dyn Workload> + Sync),
    cfg: &DriverConfig,
    seed: u64,
    kills: usize,
    runs: u64,
    jobs: usize,
) -> Report {
    let events = run_kill_plan(make, cfg, &ThreadFaultPlan::default())
        .unwrap_or_else(|e| {
            let (workload, scheme) = (make().name().to_owned(), cfg.defrag.scheme);
            panic!("{workload}/{scheme:?}: reference run (no kills) failed: {e}")
        })
        .events_per_thread;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1E_5EED);
    let kills = kills.clamp(1, KILL_THREADS - 1);
    let plans: Vec<ThreadFaultPlan> = (0..runs)
        .map(|_| {
            let mut pool: Vec<usize> = (0..KILL_THREADS).collect();
            let mut plan = ThreadFaultPlan::default();
            for _ in 0..kills {
                let victim = pool.swap_remove(rng.gen_range(0..pool.len()));
                // Sample from the middle of the thread's real event range:
                // the first eighth is mostly setup-adjacent traffic and the
                // last eighth often lands past the victim's final event.
                let total = events[victim].max(8);
                let kill_site = rng.gen_range(total / 8..=total * 7 / 8).max(1);
                plan.kills.push(ThreadKill { victim, kill_site });
            }
            plan
        })
        .collect();
    let outcomes = parallel_map(&plans, jobs.max(1), |_, plan| {
        run_kill_plan(make, cfg, plan)
    });
    let mut report = Report {
        runs,
        ..Report::default()
    };
    for (plan, outcome) in plans.iter().zip(outcomes) {
        let error = match outcome {
            Ok(out) => {
                for v in &out.victims {
                    if v.fired {
                        report.kills_fired += 1;
                        report.inflight_kills += u64::from(v.inflight.is_some());
                    } else {
                        report.kills_unfired += 1;
                    }
                }
                continue;
            }
            Err(e) => e,
        };
        let mut culprits: Vec<(ThreadKill, String)> = Vec::new();
        if plan.kills.len() > 1 {
            for k in &plan.kills {
                let single = ThreadFaultPlan::single(k.victim, k.kill_site);
                if let Err(e) = run_kill_plan(make, cfg, &single) {
                    culprits.push((*k, e));
                }
            }
        }
        let minimal = !culprits.is_empty() || plan.kills.len() == 1;
        if culprits.is_empty() {
            culprits = plan.kills.iter().map(|k| (*k, error.clone())).collect();
        }
        for (k, message) in culprits {
            report.kills_fired += 1;
            report.failures.push(Failure {
                probe: ProbeId::thread_kill(seed, k.kill_site, k.victim as u32),
                op: 0,
                kind: SiteKind::ThreadCrash.label(),
                maybe_len: 0,
                message,
                minimal,
                reproduced: false,
            });
        }
    }
    report
}

/// One faulted mt run on a fresh heap, checker panics caught as
/// `Err(message)`.
fn run_kill_plan(
    make: &dyn Fn() -> Box<dyn Workload>,
    cfg: &DriverConfig,
    plan: &ThreadFaultPlan,
) -> Result<ThreadCrashOutcome, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_mt_faulted(make, KILL_THREADS, cfg, plan)
    }))
    .map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic payload".to_owned())
    })
}

/// Everything an isolated replay of one probe produced; the pinned
/// regression tests fingerprint `image` byte-for-byte.
#[derive(Clone, Debug)]
pub struct Replay {
    /// 1-based op index during which the (outer) site fired; 0 for kills.
    pub op: u64,
    /// The materialized image the oracle ran on (`None` for thread kills,
    /// whose oracle checks the live heap the survivors drained).
    pub image: Option<CrashImage>,
    /// The probed site's maybe-persisted set (empty for thread kills);
    /// subsets of it materialize alternative legal ADR outcomes over the
    /// site's base image without re-running the workload.
    pub maybe: MaybeSet,
    /// The oracle's verdict on `image`.
    pub outcome: Result<(), String>,
}

/// Replays one probe from scratch under `cfg` (the configuration of the
/// campaign that printed it), with the oracle its phase calls for:
///
/// * mutator: rerun the workload with capture armed for just the site,
///   truncated at the op it fires during, then materialize the subset and
///   recover + validate;
/// * recovery: additionally re-crash that image's recovery at the
///   recovery site, materialize the nested subset, and require idempotent
///   recovery;
/// * thread kill: one faulted run killing just the victim.
///
/// Returns `None` when the site or kill never fires (wrong seed, workload
/// or configuration).
pub fn replay(
    make: &dyn Fn() -> Box<dyn Workload>,
    scheme: Scheme,
    probe: ProbeId,
    cfg: &DriverConfig,
) -> Option<Replay> {
    if let ProbePhase::ThreadKill { victim } = probe.phase {
        let plan = ThreadFaultPlan::single(victim as usize, probe.site_id);
        let outcome = run_kill_plan(make, cfg, &plan);
        if matches!(&outcome, Ok(out) if !out.victims.iter().any(|v| v.fired)) {
            return None;
        }
        return Some(Replay {
            op: 0,
            image: None,
            maybe: MaybeSet::default(),
            outcome: outcome.map(|_| ()),
        });
    }
    let defrag = fault_defrag(scheme);
    let mut hit = None;
    let outer = [probe.outer_site()].into_iter().collect();
    capture_pass(
        make,
        cfg,
        probe.seed,
        defrag,
        outer,
        |op, cap, before, after| {
            hit = Some((op, cap, before.clone(), after.clone()));
            false
        },
    );
    let (op, mut cap, before, after) = hit?;
    let nested = probe.phase == ProbePhase::Recovery;
    if nested {
        let inner = [probe.recovery_site()].into_iter().collect();
        cap = capture_recovery(&cap.image, inner, &make().registry(), scheme)
            .into_iter()
            .next()?;
    }
    let (image, outcome) = match cap
        .image
        .with_persisted_subset(&cap.maybe, probe.subset_mask)
    {
        Ok(image) => {
            let outcome = validate_capture(&image, defrag, make, &before, &after, nested);
            (image, outcome.map(|_| ()))
        }
        Err(e) => (cap.image, Err(e.to_string())),
    };
    Some(Replay {
        op,
        image: Some(image),
        maybe: cap.maybe,
        outcome,
    })
}

/// Half-open `[lo, hi)` site-ID ranges spanning each GC cycle of the
/// reference run: from the stop-the-world begin preceding a cycle arm
/// (covering the summary phase, whose reservations recovery rolls back)
/// through the cycle's terminate end. Phase marks arrive in firing order,
/// so the windows come out disjoint and ascending.
fn cycle_windows(marks: &[(u64, u64)], total: u64) -> Vec<(u64, u64)> {
    let mut windows = Vec::new();
    let mut last_stw = None;
    let mut open = None;
    for &(id, code) in marks {
        if code == phase_sites::STW_BEGIN {
            last_stw = Some(id);
        } else if code == phase_sites::CYCLE_ARMED && open.is_none() {
            open = Some(last_stw.unwrap_or(id));
        } else if code == phase_sites::TERMINATE_END {
            if let Some(lo) = open.take() {
                windows.push((lo, (id + 1).min(total)));
            }
        }
    }
    if let Some(lo) = open {
        windows.push((lo, total));
    }
    windows
}

/// Picks the outer (mutator-phase) sites of a nested campaign. Recovery
/// only has work to redo when the crash lands inside a GC cycle, so
/// targeting samples the [`cycle_windows`] site-ID ranges; outside them
/// recovery is quiescent and the nested site space is empty. Falls back
/// to uniform sampling over the whole run when no cycle fired.
fn choose_outer_targets(
    summary: &SiteSummary,
    windows: &[(u64, u64)],
    seed: u64,
    budget: u64,
) -> BTreeSet<u64> {
    let in_window: u64 = windows.iter().map(|&(lo, hi)| hi - lo).sum();
    if in_window == 0 {
        return choose_targets(summary.total, seed, budget);
    }
    choose_targets(in_window, seed, budget)
        .into_iter()
        .map(|mut i| {
            for &(lo, hi) in windows {
                let len = hi - lo;
                if i < len {
                    return lo + i;
                }
                i -= len;
            }
            unreachable!("window index {i} exceeds the window total {in_window}")
        })
        .collect()
}

/// Exhaustive under budget; seeded-random (distinct, whole-run) beyond.
fn choose_targets(total: u64, seed: u64, budget: u64) -> BTreeSet<u64> {
    if total <= budget {
        return (0..total).collect();
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x517e_5eed);
    let mut targets = BTreeSet::new();
    while (targets.len() as u64) < budget {
        targets.insert(rng.gen_range(0..total));
    }
    targets
}

/// Splits `targets` round-robin into at most `n` non-empty chunks.
fn split_round_robin(targets: &BTreeSet<u64>, n: usize) -> Vec<BTreeSet<u64>> {
    let n = n.clamp(1, targets.len().max(1));
    let mut chunks: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); n];
    for (i, &t) in targets.iter().enumerate() {
        chunks[i % n].insert(t);
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

/// Greedy 1-minimal shrink of a failing subset bitmask.
///
/// Repeatedly tries to drop each set bit (ascending); a drop is kept when
/// the oracle still fails without that line. Loops to a fixpoint: the
/// returned mask is *1-minimal* — `fails(mask)` holds and removing any
/// single remaining line makes the oracle pass — whenever the second
/// return value is `true`. `false` means the probe budget ran out first
/// and the mask is merely a smaller failing subset.
///
/// Deterministic: probe order is a pure function of the starting mask, so
/// the same `(mask, oracle)` always shrinks to the same result.
pub fn shrink_subset(
    mask: u64,
    mut fails: impl FnMut(u64) -> bool,
    max_probes: usize,
) -> (u64, bool) {
    let mut cur = mask;
    let mut probes = 0usize;
    loop {
        let mut changed = false;
        for bit in 0..64 {
            let b = 1u64 << bit;
            if cur & b == 0 {
                continue;
            }
            if probes >= max_probes {
                return (cur, false);
            }
            probes += 1;
            if fails(cur & !b) {
                cur &= !b;
                changed = true;
            }
        }
        if !changed {
            // A full clean pass: every single-bit removal passed, so `cur`
            // is 1-minimal by construction.
            return (cur, true);
        }
    }
}

/// Chooses the subset bitmasks to explore at one site. Returns the masks
/// in exploration order plus whether the lattice is covered exhaustively.
///
/// Exhaustive (`0..2^window`) when that fits the budget; otherwise corners
/// first — empty set, full set, singletons, all-but-one — then distinct
/// seeded-random masks up to the budget. The corner bias follows
/// delta-debugging practice: boundary subsets are where monotone recovery
/// logic breaks first. A budget of 1 is the base image alone (`[0]`).
pub fn choose_masks(window: u32, budget: u64, seed: u64, site_id: u64) -> (Vec<u64>, bool) {
    if window == 0 {
        return (vec![0], true);
    }
    let full: u64 = if window >= 64 {
        u64::MAX
    } else {
        (1u64 << window) - 1
    };
    if window < 63 && (1u64 << window) <= budget {
        return ((0..=full).collect(), true);
    }
    let mut out: Vec<u64> = Vec::new();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let push = |m: u64, out: &mut Vec<u64>, seen: &mut BTreeSet<u64>| {
        if seen.insert(m) {
            out.push(m);
        }
    };
    push(0, &mut out, &mut seen);
    push(full, &mut out, &mut seen);
    for i in 0..window {
        push(1u64 << i, &mut out, &mut seen);
    }
    for i in 0..window {
        push(full ^ (1u64 << i), &mut out, &mut seen);
    }
    let mut rng =
        SmallRng::seed_from_u64(seed ^ site_id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xadfe_50b5);
    while (out.len() as u64) < budget {
        push(rng.gen::<u64>() & full, &mut out, &mut seen);
    }
    out.truncate(budget as usize);
    (out, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_targets_exhaustive_then_sampled() {
        assert_eq!(choose_targets(10, 7, 10).len(), 10);
        assert_eq!(choose_targets(3, 7, 10), (0..3).collect());
        let sampled = choose_targets(1_000_000, 7, 10);
        assert_eq!(sampled.len(), 10);
        assert!(sampled.iter().all(|&t| t < 1_000_000));
        assert_eq!(
            sampled,
            choose_targets(1_000_000, 7, 10),
            "selection is seed-deterministic"
        );
    }

    #[test]
    fn shrink_finds_exact_monotone_culprit() {
        // Oracle: fails iff the mask contains the whole culprit (monotone
        // superset failure). The greedy shrink must land exactly on it.
        let culprit = 0b1010_0100u64;
        let fails = |m: u64| m & culprit == culprit;
        let (shrunk, minimal) = shrink_subset(0xFF, fails, usize::MAX);
        assert_eq!(shrunk, culprit);
        assert!(minimal);
    }

    #[test]
    fn shrink_respects_probe_budget() {
        let fails = |m: u64| m.count_ones() >= 2;
        let (shrunk, minimal) = shrink_subset(u64::MAX, fails, 3);
        assert!(!minimal, "budget exhausted before a clean pass");
        assert!(fails(shrunk), "still a failing subset");
    }

    #[test]
    fn choose_masks_exhaustive_small_window() {
        let (masks, exhaustive) = choose_masks(3, 64, 7, 9);
        assert!(exhaustive);
        assert_eq!(masks.len(), 8);
        let distinct: BTreeSet<u64> = masks.iter().copied().collect();
        assert_eq!(distinct, (0..8u64).collect());
        // Window 0: only the base image.
        assert_eq!(choose_masks(0, 64, 7, 9), (vec![0], true));
    }

    /// The §7.1b sweep is the lattice explorer at one image per site: a
    /// budget of 1 must select exactly the base image at every window.
    #[test]
    fn budget_one_is_the_base_image_alone() {
        for window in [0, 1, 5, 63, 64] {
            assert_eq!(choose_masks(window, 1, 0x517e00, 42).0, vec![0]);
        }
    }

    #[test]
    fn choose_masks_sampled_has_corners_first_and_is_deterministic() {
        let (masks, exhaustive) = choose_masks(20, 64, 0xabc, 17);
        assert!(!exhaustive);
        assert_eq!(masks.len(), 64);
        let full = (1u64 << 20) - 1;
        assert_eq!(masks[0], 0, "empty set first");
        assert_eq!(masks[1], full, "full set second");
        assert!(
            (0..20).all(|i| masks.contains(&(1u64 << i))),
            "all singletons present"
        );
        assert!(
            (0..20).all(|i| masks.contains(&(full ^ (1u64 << i)))),
            "all all-but-one masks present"
        );
        assert!(masks.iter().all(|&m| m <= full), "masks stay in-window");
        let distinct: BTreeSet<u64> = masks.iter().copied().collect();
        assert_eq!(distinct.len(), masks.len(), "no duplicates");
        assert_eq!(masks, choose_masks(20, 64, 0xabc, 17).0, "deterministic");
        assert_ne!(
            masks,
            choose_masks(20, 64, 0xabc, 18).0,
            "per-site mask streams differ"
        );
    }

    #[test]
    fn choose_masks_full_64_window() {
        let (masks, exhaustive) = choose_masks(64, 16, 1, 2);
        assert!(!exhaustive);
        assert_eq!(masks.len(), 16);
        assert_eq!(masks[1], u64::MAX);
    }

    #[test]
    fn failure_lines_carry_the_replayable_probe() {
        let site = Failure {
            probe: ProbeId::new(0x517e01, 271_422, 0),
            op: 3322,
            kind: "clwb",
            maybe_len: 1,
            message: "GC metadata: x".to_owned(),
            minimal: true,
            reproduced: true,
        };
        assert_eq!(
            site.to_string(),
            "(seed=0x517e01, site=271422, subset=0x0) during clwb (op 3322, maybe 1): \
             GC metadata: x [1-minimal] [reproduced]"
        );
        let kill = Failure {
            probe: ProbeId::thread_kill(0x7c4a01, 2681, 0),
            op: 0,
            kind: "thread-crash",
            maybe_len: 0,
            message: "key lost".to_owned(),
            minimal: false,
            reproduced: false,
        };
        assert_eq!(
            kill.to_string(),
            "(seed=0x7c4a01, kill_site=2681, victim=0): key lost"
        );
    }
}
