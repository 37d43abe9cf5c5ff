//! Crash-site sweep smoke tests: enumeration finds a rich site space,
//! capture+validate succeeds at every targeted site, and a single site
//! replays deterministically from its `(seed, site_id)` pair — including
//! adversarially chosen maybe-persisted subsets and arbitrary post-crash
//! restart seeds.

use ffccd::{DefragHeap, ProbeId, Scheme};
use ffccd_pmem::MachineConfig;
use ffccd_workloads::campaign::{replay, run, thread_kill_config, Fault, Plan, Report};
use ffccd_workloads::driver::{DriverConfig, MtConfig, MtSchedule, PhaseMix};
use ffccd_workloads::{AvlTree, DetectableQueue, LinkedList, Workload};

fn sweep_cfg(scheme: Scheme, seed: u64) -> DriverConfig {
    let mut cfg = DriverConfig::new(scheme);
    cfg.mix = PhaseMix::tiny();
    cfg.pool.data_bytes = 8 << 20;
    cfg.pool.machine = MachineConfig {
        seed,
        ..MachineConfig::default()
    };
    cfg.seed = seed;
    cfg.defrag.min_live_bytes = 1 << 12;
    cfg
}

fn make_ll() -> Box<dyn Workload> {
    Box::new(LinkedList::new())
}

/// A §7.1b sweep plan: one base image at each of `sites` crash sites.
fn sweep(seed: u64, sites: u64) -> Plan {
    Plan {
        seed,
        fault: Fault::Site { sites, images: 1 },
    }
}

fn failure_lines(report: &Report) -> Vec<String> {
    report.failures.iter().map(|f| f.to_string()).collect()
}

#[test]
fn sweep_validates_every_targeted_site() {
    let seed = 0xC0FFEE;
    let cfg = sweep_cfg(Scheme::FfccdFenceFree, seed);
    let report = run(&make_ll, Scheme::FfccdFenceFree, &sweep(seed, 12), &cfg, 1);
    assert!(
        report.total_sites > 1000,
        "a tiny run still fires thousands of durability events, got {}",
        report.total_sites
    );
    assert_eq!(report.targeted, 12);
    assert_eq!(
        report.captured, report.targeted,
        "every targeted site must fire in the replay run (determinism)"
    );
    assert!(
        report.failures.is_empty(),
        "sweep failures: {:#?}",
        failure_lines(&report)
    );
    assert!(!report.site_counts.is_empty());
}

/// The full crash-site sweep over a 4-shard heap: per-shard cycle headers
/// land at `cycle_header + 16*shard` and the pool header carries
/// `HDR_SHARDS = 4`, so every captured image exercises the sharded
/// recovery walk (classify each shard's header, one merged ref fixup,
/// per-shard teardown). Every targeted site must capture and validate.
#[test]
fn sweep_validates_with_sharded_heap() {
    let seed = 0x5AAD;
    let mut cfg = sweep_cfg(Scheme::FfccdFenceFree, seed);
    cfg.defrag.shards = 4;
    let report = run(&make_ll, Scheme::FfccdFenceFree, &sweep(seed, 12), &cfg, 1);
    assert_eq!(report.targeted, 12);
    assert_eq!(
        report.captured, report.targeted,
        "every targeted site must fire on a sharded heap too"
    );
    assert!(
        report.failures.is_empty(),
        "sharded sweep failures: {:#?}",
        failure_lines(&report)
    );
}

/// The `sec7_1` sweep-campaign configuration — regression triples below
/// were found (and must keep passing) at exactly this geometry.
fn sec71_cfg(scheme: Scheme, seed: u64) -> DriverConfig {
    let mut cfg = DriverConfig::new(scheme);
    cfg.mix = PhaseMix {
        init: 1200,
        phase_ops: 900,
        phases: 3,
    };
    cfg.pool.data_bytes = 8 << 20;
    cfg.pool.machine = MachineConfig {
        seed,
        ..MachineConfig::default()
    };
    cfg.seed = seed;
    cfg.defrag.min_live_bytes = 1 << 12;
    cfg
}

fn assert_site_recovers(
    make: &dyn Fn() -> Box<dyn Workload>,
    scheme: Scheme,
    seed: u64,
    site: u64,
) {
    let cfg = sec71_cfg(scheme, seed);
    let r =
        replay(make, scheme, ProbeId::new(seed, site, 0), &cfg).expect("regression site must fire");
    assert!(
        r.outcome.is_ok(),
        "({seed:#x}, {site}, op {}) regressed: {:?}",
        r.op,
        r.outcome
    );
}

/// Regression: a crash during `terminate()`'s frame-teardown loop used to
/// be indistinguishable from a mid-compaction crash (cycle header still 1).
/// SFCCD recovery then re-copied source over destination, rolling back the
/// durable reference fixup and leaving pointers into already-released
/// frames. The teardown now advances the header to state 2 first; this
/// site crashes mid-teardown and must recover cleanly.
#[test]
fn teardown_crash_recovers_sfccd() {
    assert_site_recovers(&make_ll, Scheme::Sfccd, 0x517e01, 271422);
}

/// Regression: fence-free teardown crashes used to leave a stale frag-page
/// bit (site 93273) or a dangling cycle header (site 347428) that the
/// `entries.is_empty()` early-return in recovery never cleaned up.
#[test]
fn teardown_crash_recovers_fence_free() {
    assert_site_recovers(&make_ll, Scheme::FfccdFenceFree, 0x517e02, 93273);
    assert_site_recovers(&make_ll, Scheme::FfccdFenceFree, 0x517e02, 347428);
}

/// Regression: AVL insert/delete once rebalanced reachable nodes in place,
/// so a crash mid-rotation lost keys or broke BST order (these triples all
/// failed validation). Updates are now path-copied and commit with a
/// single persisted root store.
#[test]
fn avl_crash_sites_recover() {
    let make_avl: &dyn Fn() -> Box<dyn Workload> = &|| Box::new(AvlTree::new());
    assert_site_recovers(make_avl, Scheme::Sfccd, 0x517e12, 262140);
    assert_site_recovers(make_avl, Scheme::FfccdFenceFree, 0x517e13, 683398);
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The engine-banking refactor must not move a single byte of any
/// deterministic replay. These FNV-1a fingerprints of the replayed crash
/// images were pinned on the pre-banking global-lock engine; the
/// single-bank deterministic mode has to reproduce them exactly — same
/// firing op, same media bytes — forever.
///
/// Every triple is replayed under three caller configs: the default, one
/// asking for `banks = 8`, and one additionally carrying the 4-thread mt
/// driver knobs (seeded schedule, eager counter flushing). Sweep/replay
/// paths must force the deterministic single-bank mode themselves and
/// ignore mt-only settings entirely, so no fingerprint may change.
#[test]
fn pinned_triples_replay_byte_identically() {
    /// (workload, factory, scheme, seed, site, firing op, media FNV-1a).
    type PinnedCase<'a> = (
        &'a str,
        &'a dyn Fn() -> Box<dyn Workload>,
        Scheme,
        u64,
        u64,
        u64,
        u64,
    );
    let make_ll: &dyn Fn() -> Box<dyn Workload> = &|| Box::new(LinkedList::new());
    let make_avl: &dyn Fn() -> Box<dyn Workload> = &|| Box::new(AvlTree::new());
    #[rustfmt::skip]
    let pinned: Vec<PinnedCase<'_>> = vec![
        ("LL",  make_ll,  Scheme::Sfccd,          0x517e01, 271422, 3322, 0x6b4b559862761232),
        ("LL",  make_ll,  Scheme::FfccdFenceFree, 0x517e02, 93273,  1750, 0x5271ede8d6097660),
        ("LL",  make_ll,  Scheme::FfccdFenceFree, 0x517e02, 347428, 3697, 0xbebecdc3eb31a20d),
        ("AVL", make_avl, Scheme::Sfccd,          0x517e12, 262140, 635,  0x33581502fa73b1a1),
        ("AVL", make_avl, Scheme::FfccdFenceFree, 0x517e13, 683398, 1441, 0x6e5dbf65353165fc),
    ];
    for (name, make, scheme, seed, site, op, hash) in pinned {
        for (banks, mt_knobs) in [(0usize, false), (8, false), (8, true)] {
            let mut cfg = sec71_cfg(scheme, seed);
            cfg.pool.machine.banks = banks;
            if mt_knobs {
                // The config a 4-thread mt caller would hand over; replay
                // is single-threaded and must not look at any of it.
                cfg.mt = MtConfig {
                    schedule: MtSchedule::Seeded(0x4444),
                    counter_flush_every: Some(1),
                };
            }
            let r = replay(make, scheme, ProbeId::new(seed, site, 0), &cfg)
                .expect("pinned site must fire");
            assert_eq!(
                r.op, op,
                "{name} {scheme:?} ({seed:#x}, {site}) banks={banks} mt={mt_knobs}: firing op moved"
            );
            assert_eq!(
                fnv1a(r.image.as_ref().unwrap().media().as_bytes()),
                hash,
                "{name} {scheme:?} ({seed:#x}, {site}) banks={banks} mt={mt_knobs}: crash image bytes moved"
            );
        }
    }
}

/// Adversarial regression triples: `(seed, site_id, subset_bitmask)`
/// images pinned byte-for-byte. Each case materializes a *chosen* subset
/// of the site's maybe-persisted set — full small windows, a saturated
/// 64-entry window over an 81-line set, and sparse partial masks — and
/// must reproduce the same maybe-set size, firing op and media FNV-1a
/// forever: the maybe-set's entry *order* is part of the replay contract
/// (a reordering would silently re-aim every pinned mask), and recovery
/// must keep passing on every one of these durability outcomes.
#[test]
fn pinned_adversarial_triples_replay_byte_identically() {
    /// (workload, factory, scheme, seed, site, mask, maybe_len, op, FNV).
    type PinnedCase<'a> = (
        &'a str,
        &'a dyn Fn() -> Box<dyn Workload>,
        Scheme,
        u64,
        u64,
        u64,
        usize,
        u64,
        u64,
    );
    let make_ll: &dyn Fn() -> Box<dyn Workload> = &|| Box::new(LinkedList::new());
    let make_avl: &dyn Fn() -> Box<dyn Workload> = &|| Box::new(AvlTree::new());
    #[rustfmt::skip]
    let pinned: Vec<PinnedCase<'_>> = vec![
        ("LL",  make_ll,  Scheme::FfccdFenceFree, 0x517e02, 20000,  0x7,              3,  606,  0xafaf65fa1ddc43d2),
        ("LL",  make_ll,  Scheme::FfccdFenceFree, 0x517e02, 120000, u64::MAX,         81, 1874, 0x5b4810e15b56ef08),
        ("LL",  make_ll,  Scheme::FfccdFenceFree, 0x517e02, 120000, 0xdead_beef_0bad, 81, 1874, 0xf0f05d147e16b6fe),
        ("LL",  make_ll,  Scheme::Espresso,       0x517e21, 60000,  0x0015_5aa3,      25, 1624, 0x7cdab8ef62c30648),
        ("AVL", make_avl, Scheme::Sfccd,          0x517e12, 60000,  0x7,              3,  186,  0x30f8edbc64e825e8),
    ];
    for (name, make, scheme, seed, site, mask, maybe_len, op, hash) in pinned {
        let cfg = sec71_cfg(scheme, seed);
        let r = replay(make, scheme, ProbeId::new(seed, site, mask), &cfg)
            .expect("pinned adversarial site must fire");
        assert_eq!(
            r.maybe.len(),
            maybe_len,
            "{name} {scheme:?} ({seed:#x}, {site}, {mask:#x}): maybe-set size moved"
        );
        assert_eq!(
            r.op, op,
            "{name} {scheme:?} ({seed:#x}, {site}, {mask:#x}): firing op moved"
        );
        assert_eq!(
            fnv1a(r.image.as_ref().unwrap().media().as_bytes()),
            hash,
            "{name} {scheme:?} ({seed:#x}, {site}, {mask:#x}): subset image bytes moved"
        );
        assert!(
            r.outcome.is_ok(),
            "{name} {scheme:?} ({seed:#x}, {site}, {mask:#x}) regressed: {:?}",
            r.outcome
        );
    }
}

/// Recovery correctness must not depend on the *post-crash* machine's
/// RNG (eviction schedule, WPQ drain timing): at sampled crash sites the
/// recovery report and heap validation are invariant across restart
/// seeds. Catches any recovery path that accidentally consults the
/// machine's stochastic state.
#[test]
fn recovery_outcome_is_restart_seed_invariant() {
    let seed = 0x5EED;
    let scheme = Scheme::FfccdFenceFree;
    let cfg = sweep_cfg(scheme, seed);
    let defrag = cfg.defrag;
    // 10 sites spread across the tiny run's whole site space.
    let sites = [
        500u64, 1500, 3000, 5000, 8000, 11000, 14000, 17000, 20000, 24000,
    ];
    let mut fired = 0;
    for site in sites {
        let Some(r) = replay(&make_ll, scheme, ProbeId::new(seed, site, 0), &cfg) else {
            continue;
        };
        fired += 1;
        let mut baseline = None;
        for restart_seed in [1u64, 0xDEAD_BEEF, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            let (heap, rec) = DefragHeap::open_recovered_with_seed(
                r.image.as_ref().unwrap(),
                Some(restart_seed),
                make_ll().registry(),
                defrag,
            )
            .expect("recovery must succeed at every restart seed");
            let outcome = (
                rec.had_cycle,
                rec.already_durable,
                rec.finished,
                rec.undone,
                rec.refs_fixed,
                ffccd::validate_heap(&heap).is_ok(),
            );
            match &baseline {
                None => baseline = Some(outcome),
                Some(base) => assert_eq!(
                    *base, outcome,
                    "site {site}: recovery outcome varies with restart seed {restart_seed:#x}"
                ),
            }
            assert!(outcome.5, "site {site}: heap validation failed");
        }
    }
    assert!(fired >= 8, "only {fired}/10 sampled sites fired");
}

/// Chunked parallel campaigns must merge to exactly the sequential report
/// at every job count — sweep, adversarial, nested and thread-kill alike:
/// targets split round-robin (kill plans map one per worker), partial
/// reports merge by sum/max, and failures sort by probe (kills keep plan
/// order), so the whole report (failures included) compares equal.
#[test]
fn campaign_report_is_job_count_invariant() {
    let make_dq = || -> Box<dyn Workload> { Box::new(DetectableQueue::new()) };
    let site_cases = [
        (
            Scheme::FfccdFenceFree,
            0xC0FFEE,
            Fault::Site {
                sites: 12,
                images: 1,
            },
        ),
        (
            Scheme::Sfccd,
            0xADF_C0DE,
            Fault::Site {
                sites: 6,
                images: 16,
            },
        ),
        (
            Scheme::FfccdFenceFree,
            0xC0FFEE,
            Fault::Nested {
                outer: 4,
                sites: 2,
                images: 8,
            },
        ),
    ]
    .map(|(scheme, seed, fault)| (scheme, seed, fault, sweep_cfg(scheme, seed)));
    let kill_scheme = Scheme::FfccdFenceFree;
    let kill_case = (
        kill_scheme,
        0x9_5EED,
        Fault::ThreadKill { kills: 1, runs: 2 },
        thread_kill_config(kill_scheme, 0x9_5EED),
    );
    for (scheme, seed, fault, cfg) in site_cases.into_iter().chain([kill_case]) {
        let make: &(dyn Fn() -> Box<dyn Workload> + Sync) = match fault {
            Fault::ThreadKill { .. } => &make_dq,
            _ => &make_ll,
        };
        let plan = Plan { seed, fault };
        let a = run(make, scheme, &plan, &cfg, 1);
        let b = run(make, scheme, &plan, &cfg, 3);
        assert_eq!(a, b, "{fault:?}: report depends on the job count");
        assert!(a.failures.is_empty(), "{fault:?}: {:?}", failure_lines(&a));
        assert!(
            a.captured + a.kills_fired > 0,
            "{fault:?}: plan must explore something"
        );
    }
}

/// §7.1d regression probes: `(seed, outer_site/recovery_site, phase=recovery,
/// subset)` nested images pinned byte-for-byte. Each case re-crashes
/// `recover()` itself at a tracked recovery-phase durability event on a
/// captured outer image, materializes the chosen nested subset, and must
/// reproduce the same outer firing op, nested maybe-set size and media
/// FNV-1a forever — plus pass the idempotent-recovery oracle (recover,
/// fingerprint, recover again, byte-identical no-op).
#[test]
fn pinned_nested_triples_replay_byte_identically() {
    /// (workload, factory, scheme, seed, outer, rec_site, mask, maybe_len,
    /// op, FNV).
    type PinnedCase<'a> = (
        &'a str,
        &'a dyn Fn() -> Box<dyn Workload>,
        Scheme,
        u64,
        u64,
        u64,
        u64,
        usize,
        u64,
        u64,
    );
    let make_ll: &dyn Fn() -> Box<dyn Workload> = &|| Box::new(LinkedList::new());
    #[rustfmt::skip]
    let pinned: Vec<PinnedCase<'_>> = vec![
        ("LL", make_ll, Scheme::Sfccd,          0x517e01, 271422, 0,  0x0, 1, 3322, 0x6b4b559862761232),
        ("LL", make_ll, Scheme::Sfccd,          0x517e01, 271422, 20, 0x1, 1, 3322, 0x390c438820dec55c),
        ("LL", make_ll, Scheme::FfccdFenceFree, 0x517e02, 93273,  60, 0x0, 1, 1750, 0x41fc43f389c92fd1),
        ("LL", make_ll, Scheme::FfccdFenceFree, 0x517e03, 347428, 5,  0x1, 1, 3542, 0xbde7149406059d95),
    ];
    for (name, make, scheme, seed, outer, rec_site, mask, maybe_len, op, hash) in pinned {
        let cfg = sec71_cfg(scheme, seed);
        let r = replay(
            make,
            scheme,
            ProbeId::nested(seed, outer, rec_site, mask),
            &cfg,
        )
        .expect("pinned recovery-phase site must fire");
        assert_eq!(
            r.op, op,
            "{name} {scheme:?} ({seed:#x}, {outer}/{rec_site}, {mask:#x}): outer op moved"
        );
        assert_eq!(
            r.maybe.len(),
            maybe_len,
            "{name} {scheme:?} ({seed:#x}, {outer}/{rec_site}, {mask:#x}): maybe-set size moved"
        );
        assert_eq!(
            fnv1a(r.image.as_ref().unwrap().media().as_bytes()),
            hash,
            "{name} {scheme:?} ({seed:#x}, {outer}/{rec_site}, {mask:#x}): nested image bytes moved"
        );
        assert!(
            r.outcome.is_ok(),
            "{name} {scheme:?} ({seed:#x}, {outer}/{rec_site}, {mask:#x}) regressed: {:?}",
            r.outcome
        );
    }
}

/// Idempotence gate over the pinned mid-cycle regression images: recovery
/// must reach a quiescent heap in ONE pass. `open_recovered_idempotent`
/// fingerprints the media, reruns `recover()`, and the rerun must be a
/// byte-identical no-op (same FNV-1a, no cycle found, nothing
/// reclassified). Any recovery step that defers work to "the next boot"
/// — or worse, re-consumes evidence it already tore down — diverges here.
#[test]
fn recovery_is_idempotent_at_pinned_sites() {
    /// (factory, scheme, seed, site).
    type PinnedCase<'a> = (&'a dyn Fn() -> Box<dyn Workload>, Scheme, u64, u64);
    let make_ll: &dyn Fn() -> Box<dyn Workload> = &|| Box::new(LinkedList::new());
    let make_avl: &dyn Fn() -> Box<dyn Workload> = &|| Box::new(AvlTree::new());
    #[rustfmt::skip]
    let cases: Vec<PinnedCase<'_>> = vec![
        (make_ll,  Scheme::Sfccd,           0x517e01, 271422),
        (make_ll,  Scheme::FfccdFenceFree,  0x517e02, 93273),
        (make_ll,  Scheme::FfccdFenceFree,  0x517e02, 347428),
        (make_avl, Scheme::Sfccd,           0x517e12, 262140),
        (make_avl, Scheme::FfccdFenceFree,  0x517e13, 683398),
        (make_ll,  Scheme::Espresso,        0x517e21, 60000),
    ];
    for (make, scheme, seed, site) in cases {
        let cfg = sec71_cfg(scheme, seed);
        let r = replay(make, scheme, ProbeId::new(seed, site, 0), &cfg)
            .expect("regression site must fire");
        let (heap, rerun) = DefragHeap::open_recovered_idempotent(
            r.image.as_ref().unwrap(),
            None,
            make().registry(),
            cfg.defrag,
        )
        .expect("recovery must succeed");
        assert!(
            rerun.is_noop(),
            "{scheme:?} ({seed:#x}, {site}): recovery not idempotent — \
             fingerprints {:#x} vs {:#x}, rerun {:?}",
            rerun.fingerprint,
            rerun.rerun_fingerprint,
            rerun.rerun
        );
        ffccd::validate_heap(&heap)
            .unwrap_or_else(|e| panic!("{scheme:?} ({seed:#x}, {site}): {e:?}"));
    }
}

/// Stats conservation: the idempotence gate runs `recover()` twice, but
/// only the FIRST report's cycle count may land in
/// `GcStats::recovery_cycles` — the rerun is a gate, not a second
/// recovery. A double-add here once inflated recovery cycle counts by
/// exactly 2x on every idempotent open.
#[test]
fn recovery_cycles_are_counted_once() {
    let scheme = Scheme::Sfccd;
    let (seed, site) = (0x517e01, 271422);
    let cfg = sec71_cfg(scheme, seed);
    let r = replay(&make_ll, scheme, ProbeId::new(seed, site, 0), &cfg)
        .expect("regression site must fire");
    let (heap, rerun) = DefragHeap::open_recovered_idempotent(
        r.image.as_ref().unwrap(),
        None,
        make_ll().registry(),
        cfg.defrag,
    )
    .expect("recovery must succeed");
    assert!(
        rerun.report.had_cycle,
        "pinned site must crash mid-cycle for this test to bite"
    );
    assert!(
        rerun.rerun.cycles > 0,
        "even a no-op rerun consumes cycles reading the header — if this \
         is 0 the double-add below can't be detected"
    );
    assert_eq!(
        heap.gc_stats().recovery_cycles,
        rerun.report.cycles,
        "recovery_cycles must equal the first report's cycles alone — the \
         rerun is an idempotence gate, its {} cycles are not recovery work",
        rerun.rerun.cycles
    );
    // The plain (single-recovery) open agrees on the same image.
    let (heap2, report2) =
        DefragHeap::open_recovered(r.image.as_ref().unwrap(), make_ll().registry(), cfg.defrag)
            .expect("recovery must succeed");
    assert_eq!(heap2.gc_stats().recovery_cycles, report2.cycles);
    assert_eq!(report2.cycles, rerun.report.cycles);
}

#[test]
fn single_site_replay_is_deterministic() {
    let seed = 0xBEEF;
    let cfg = sweep_cfg(Scheme::FfccdCheckLookup, seed);
    // Pick a site that fires well into the run.
    let site_id = 5000;
    let probe = ProbeId::new(seed, site_id, 0);
    let a = replay(&make_ll, Scheme::FfccdCheckLookup, probe, &cfg).expect("site must fire");
    let b = replay(&make_ll, Scheme::FfccdCheckLookup, probe, &cfg).expect("site must fire again");
    assert_eq!(a.op, b.op, "same site fires during the same op");
    assert_eq!(a.outcome.is_ok(), b.outcome.is_ok());
    assert!(
        a.outcome.is_ok(),
        "replay validation failed: {:?}",
        a.outcome
    );
}
