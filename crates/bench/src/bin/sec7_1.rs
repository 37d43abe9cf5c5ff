//! §7.1 — crash-consistency fault-injection campaigns.
//!
//! With no campaign flag this runs the paper's methodology — every
//! workload under each crash-consistent scheme with crash images injected
//! at evenly spaced operation boundaries, each image recovered and
//! validated with both checkers (program-data consistency and GC-metadata
//! consistency) — followed by the full §7.1b sweep. The paper executes one
//! thousand injections across 26 settings; set `FFCCD_INJECTIONS` to
//! raise the per-setting count (default 12).
//!
//! Four durability-event campaigns run on the one engine in
//! `ffccd_workloads::campaign`; each flag runs one of them alone, and
//! `--smoke` switches it to the CI geometry:
//!
//! * `--sweep` (§7.1b) captures crash images right after individual
//!   durability events (stores, clwb, sfence, WPQ traffic, evictions, GC
//!   phase transitions) rather than at op boundaries: 64 sites per
//!   setting (smoke: 4), base image only.
//! * `--adversary` (§7.1c) goes one level deeper: at each targeted site
//!   every combination of dirty-cache and in-flight lines is a legal ADR
//!   durability outcome, so up to 64 maybe-persisted subset images per
//!   site (exhaustive when the lattice fits) are recovered at 8 sites per
//!   setting (smoke: 4 × 32).
//! * `--nested` (§7.1d) crashes *recovery itself*: 16 outer images per
//!   setting are recovered with recovery-phase site tracking armed, up to
//!   8 recovery sites each are captured, and up to 64 nested subsets per
//!   recovery site must recover idempotently — a second `recover()` on the
//!   recovered machine must be a byte-identical no-op (smoke: 6 × 3 × 16).
//! * `--thread-crash` (§7.1e) kills K of N mutator *threads* at sampled
//!   durability-event ordinals while the survivors drain, then runs the
//!   full checker suite and a whole-machine restart: 6 single-kill plus 2
//!   double-kill runs per cell (smoke: 2 single-kill runs), including the
//!   detectable queue, whose per-op completion is decidable on restart.
//!
//! Every failure line carries a replayable [`ffccd::ProbeId`]
//! (`(seed=…, site=N, subset=0x…)`, `(seed=…, site=OUTER/INNER,
//! phase=recovery, subset=0x…)` or `(seed=…, kill_site=K, victim=V)`) that
//! `replay_site` reruns in isolation.
//!
//! Settings fan out over `--jobs N` threads (or `FFCCD_JOBS`; default 1).
//! Every campaign pins the engine to its single-bank deterministic mode,
//! and rows print in fixed setting order once the fan-out joins, so the
//! tables are identical at every job count.

use ffccd::Scheme;
use ffccd_bench::{driver_config, header, jobs, rule, workload, FIG_SCHEMES};
use ffccd_workloads::campaign::{run, site_config, thread_kill_config, Fault, Plan, Report};
use ffccd_workloads::driver::{DriverConfig, PhaseMix};
use ffccd_workloads::faults::{run_fault_injection, run_mt_fault_injection, FaultReport};
use ffccd_workloads::par::parallel_map;

/// One table column: header, width and the report value it prints.
type Column = (&'static str, usize, fn(&Report) -> u64);

/// One durability-event campaign: what it runs and how its table reads.
struct Campaign {
    /// Command-line flag selecting the campaign.
    flag: &'static str,
    /// Footer prefix.
    name: &'static str,
    title: &'static str,
    /// Workloads crossed with the four schemes, one table row each.
    workloads: &'static [&'static str],
    /// Setting seeds are `seed_base + workload * 17 + scheme`.
    seed_base: u64,
    /// Faults run per setting at full geometry; a row merges them all.
    full: &'static [Fault],
    /// Faults run per setting under `--smoke`.
    smoke: &'static [Fault],
    config: fn(Scheme, u64) -> DriverConfig,
    columns: &'static [Column],
    rule: usize,
    /// What a row needs beyond an empty failure list to PASS.
    pass: fn(&Report, &Fault) -> bool,
    /// Footer verdict when every row passed, and the note after a failure
    /// count.
    verdict: (&'static str, &'static str),
}

const SITE_WORKLOADS: &[&str] = &["LL", "AVL", "pmemkv"];

const CAMPAIGNS: [Campaign; 4] = [
    Campaign {
        flag: "--sweep",
        name: "sweep",
        title: "Section 7.1b: crash-site sweep (durability-event granularity)",
        workloads: SITE_WORKLOADS,
        seed_base: 0x517e00,
        full: &[Fault::Site {
            sites: 64,
            images: 1,
        }],
        smoke: &[Fault::Site {
            sites: 4,
            images: 1,
        }],
        config: site_config,
        columns: &[
            ("sites", 10, |r| r.total_sites),
            ("targeted", 9, |r| r.targeted),
            ("captured", 9, |r| r.captured),
            ("mid-cycle", 10, |r| r.mid_cycle),
        ],
        rule: 82,
        // Every targeted site must fire on replay, and a full-budget sweep
        // needs a site space rich enough to be meaningful.
        pass: |r, fault| {
            r.captured == r.targeted
                && (r.targeted >= 50 || matches!(fault, Fault::Site { sites, .. } if *sites < 50))
        },
        verdict: ("ALL PASS", ""),
    },
    Campaign {
        flag: "--adversary",
        name: "adversary",
        title: "Section 7.1c: adversarial persistence exploration (maybe-persisted subsets)",
        workloads: SITE_WORKLOADS,
        seed_base: 0xadfe00,
        full: &[Fault::Site {
            sites: 8,
            images: 64,
        }],
        smoke: &[Fault::Site {
            sites: 4,
            images: 32,
        }],
        config: site_config,
        columns: &[
            ("sites", 10, |r| r.total_sites),
            ("capt", 6, |r| r.captured),
            ("images", 8, |r| r.images),
            ("exhaust", 7, |r| r.exhaustive_sites),
            ("empty", 6, |r| r.empty_lattices),
            ("max-maybe", 9, |r| r.max_maybe as u64),
        ],
        rule: 92,
        // Every targeted site must fire on replay and contribute at least
        // its base image.
        pass: |r, _| r.captured == r.targeted && r.images >= r.captured,
        verdict: (
            "ALL PASS (every explored durability outcome recovers)",
            " (probes above replay the minimal subsets)",
        ),
    },
    Campaign {
        flag: "--nested",
        name: "nested",
        title: "Section 7.1d: nested-crash exploration (crashes inside recovery)",
        workloads: SITE_WORKLOADS,
        seed_base: 0x9e57ed,
        full: &[Fault::Nested {
            outer: 16,
            sites: 8,
            images: 64,
        }],
        smoke: &[Fault::Nested {
            outer: 6,
            sites: 3,
            images: 16,
        }],
        config: site_config,
        columns: &[
            ("outer", 6, |r| r.outer_captured),
            ("nested", 7, |r| r.nested_outer),
            ("rec-site", 8, |r| r.recovery_sites),
            ("capt", 6, |r| r.captured),
            ("images", 8, |r| r.images),
            ("exhaust", 7, |r| r.exhaustive_sites),
            ("empty", 6, |r| r.empty_lattices),
            ("trunc", 6, |r| r.truncated_lattices),
        ],
        rule: 102,
        // Every targeted outer site must fire on replay, and at least one
        // outer image must yield a non-quiescent recovery (else the
        // campaign explored nothing).
        pass: |r, _| {
            r.outer_captured == r.outer_targeted && r.nested_outer > 0 && r.images >= r.captured
        },
        verdict: (
            "ALL PASS (every explored nested crash recovers idempotently)",
            " (probes above replay the minimal subsets)",
        ),
    },
    Campaign {
        flag: "--thread-crash",
        name: "thread-crash",
        title: "Section 7.1e: thread-crash exploration (K of N mutators die, survivors drain)",
        workloads: &["LL", "DQ", "AVL", "pmemkv"],
        seed_base: 0x7c4a00,
        // Two extra double-kill runs per cell at full geometry: only
        // survivors drain, and failures still shrink to single kills.
        full: &[
            Fault::ThreadKill { kills: 1, runs: 6 },
            Fault::ThreadKill { kills: 2, runs: 2 },
        ],
        smoke: &[Fault::ThreadKill { kills: 1, runs: 2 }],
        config: thread_kill_config,
        columns: &[
            ("runs", 6, |r| r.runs),
            ("fired", 7, |r| r.kills_fired),
            ("unfired", 8, |r| r.kills_unfired),
            ("in-flight", 9, |r| r.inflight_kills),
        ],
        rule: 76,
        // A cell that samples only past-the-end sites explored nothing.
        pass: |r, _| r.kills_fired > 0,
        verdict: (
            "ALL PASS (every surviving cohort drains to a consistent heap)",
            " (probes above replay the kills)",
        ),
    },
];

/// The footer's geometry clause for a campaign's first fault.
fn geometry(fault: &Fault) -> Option<String> {
    match *fault {
        Fault::Site { sites, images: 1 } => Some(format!("budget {sites}")),
        Fault::Site { sites, images } => Some(format!("{sites} sites x {images} images")),
        Fault::Nested {
            outer,
            sites,
            images,
        } => Some(format!("{outer} outer x {sites} sites x {images} images")),
        Fault::ThreadKill { .. } => None,
    }
}

/// Runs one campaign over its workloads × the four schemes and prints its
/// table; returns the number of failed settings.
fn campaign(c: &Campaign, smoke: bool, jobs: usize) -> u64 {
    header(c.title);
    let mut head = format!("{:<8} {:<22}", "bench", "scheme");
    for &(label, width, _) in c.columns {
        head += &format!(" {label:>width$}");
    }
    println!("{head} {:>8}", "result");
    rule(c.rule);
    let faults = if smoke { c.smoke } else { c.full };
    let settings: Vec<(usize, usize)> = (0..c.workloads.len())
        .flat_map(|wi| (0..FIG_SCHEMES.len()).map(move |si| (wi, si)))
        .collect();
    let rows = parallel_map(&settings, jobs.max(1), |_, &(wi, si)| {
        let name = c.workloads[wi];
        let make = workload(name).expect("campaign workloads are known");
        let scheme = FIG_SCHEMES[si];
        let seed = c.seed_base + wi as u64 * 17 + si as u64;
        let cfg = (c.config)(scheme, seed);
        let mut report = Report::default();
        for &fault in faults {
            report.merge(run(&make, scheme, &Plan { seed, fault }, &cfg, 1));
        }
        let ok = report.failures.is_empty() && (c.pass)(&report, &faults[0]);
        let mut line = format!("{:<8} {:<22}", name, scheme.label());
        for &(_, width, value) in c.columns {
            line += &format!(" {:>width$}", value(&report));
        }
        let mut lines = vec![format!("{line} {:>8}", if ok { "PASS" } else { "FAIL" })];
        if !ok {
            lines.extend(report.failures.iter().take(3).map(|f| format!("    {f}")));
        }
        (lines, u64::from(!ok), report.truncated_lattices)
    });
    let (mut failures, mut truncated) = (0, 0);
    for (lines, failed, trunc) in rows {
        for line in lines {
            println!("{line}");
        }
        failures += failed;
        truncated += trunc;
    }
    rule(c.rule);
    if truncated > 0 {
        println!(
            "{}: {truncated} lattices extended beyond the 64-entry window",
            c.name
        );
    }
    let geometry = geometry(&faults[0])
        .map(|g| format!("{g}, "))
        .unwrap_or_default();
    let (all_pass, fail_note) = c.verdict;
    println!(
        "{}: {} settings, {geometry}jobs {jobs}: {}",
        c.name,
        settings.len(),
        if failures == 0 {
            all_pass.to_owned()
        } else {
            format!("{failures} settings FAILED{fail_note}")
        }
    );
    failures
}

fn injections() -> u64 {
    std::env::var("FFCCD_INJECTIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
}

/// The op-boundary campaign's driver configuration.
fn op_config(scheme: Scheme, seed: u64) -> DriverConfig {
    let mut cfg = driver_config(scheme, false, seed);
    cfg.mix = PhaseMix {
        init: 1200,
        phase_ops: 900,
        phases: 3,
    };
    cfg.defrag.min_live_bytes = 1 << 12;
    cfg
}

/// Prints one op-boundary row (and its first failures); returns 1 if the
/// setting failed.
fn op_row(label: &str, scheme: Scheme, report: &FaultReport) -> u64 {
    let ok = report.failures.is_empty();
    println!(
        "{:<8} {:<22} {:>10} {:>10} {:>10} {:>8}",
        label,
        scheme.label(),
        report.injections,
        report.mid_cycle,
        report.undone_objects,
        if ok { "PASS" } else { "FAIL" }
    );
    for f in report.failures.iter().take(3) {
        println!("    {f}");
    }
    u64::from(!ok)
}

/// The paper's op-boundary campaign: 9 workloads × 3 schemes single-
/// threaded, plus the concurrent structures at 2/4/8 threads (the paper
/// runs them at 1, 2, 4 and 8; the 1-thread rows come first).
fn op_boundary_campaign() -> u64 {
    header("Section 7.1: crash-consistency fault injection");
    println!(
        "{:<8} {:<22} {:>10} {:>10} {:>10} {:>8}",
        "bench", "scheme", "injections", "mid-cycle", "undone", "result"
    );
    rule(76);
    let injections = injections();
    let mut settings = 0u64;
    let mut failures = 0;
    for name in [
        "LL", "AVL", "SS", "BT", "RBT", "BzTree", "FPTree", "Echo", "pmemkv",
    ] {
        let make = workload(name).expect("known workload");
        for (si, scheme) in [
            Scheme::Sfccd,
            Scheme::FfccdFenceFree,
            Scheme::FfccdCheckLookup,
        ]
        .into_iter()
        .enumerate()
        {
            let seed = 0x7_1_0 + settings * 31 + si as u64;
            let cfg = op_config(scheme, seed);
            let report = run_fault_injection(&mut *make(), &make, scheme, seed, injections, &cfg);
            failures += op_row(name, scheme, &report);
            settings += 1;
        }
    }
    for name in ["BzTree", "FPTree"] {
        let make = workload(name).expect("known workload");
        for threads in [2usize, 4, 8] {
            let scheme = Scheme::FfccdCheckLookup;
            let seed = 0x7177 + settings;
            let cfg = op_config(scheme, seed);
            let report = run_mt_fault_injection(&make, threads, scheme, seed, injections, &cfg);
            failures += op_row(&format!("{name} {threads}T"), scheme, &report);
            settings += 1;
        }
    }
    rule(76);
    println!(
        "{settings} settings x {injections} injections: {}",
        if failures == 0 {
            "ALL PASS (paper: both GC schemes passed all tests)".to_owned()
        } else {
            format!("{failures} settings FAILED")
        }
    );
    println!();
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let failures = match CAMPAIGNS.iter().find(|c| args.iter().any(|a| a == c.flag)) {
        Some(c) => campaign(c, smoke, jobs()),
        None => op_boundary_campaign() + campaign(&CAMPAIGNS[0], smoke, jobs()),
    };
    if failures > 0 {
        std::process::exit(1);
    }
}
