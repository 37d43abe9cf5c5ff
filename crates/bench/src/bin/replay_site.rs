//! Replays one probe printed by a `sec7_1` campaign failure.
//!
//! Every campaign failure line starts with a [`ProbeId`]; pass it as the
//! argument (quoted) to rerun that exact fault in isolation and report the
//! oracle's verdict:
//!
//! ```text
//! FFCCD_WORKLOAD=LL FFCCD_SCHEME=sfccd cargo run --release -p ffccd-bench \
//!     --bin replay_site -- '(seed=0x517e01, site=271422, subset=0x0)'
//! ```
//!
//! Every phase parses: mutator-phase sites (`(seed=…, site=N,
//! subset=0x…)`; a sweep failure has `subset=0x0`), crashes inside
//! recovery (`(seed=…, site=OUTER/INNER, phase=recovery, subset=0x…)`)
//! and thread kills (`(seed=…, kill_site=K, victim=V)`).
//!
//! `FFCCD_WORKLOAD` names the workload (`LL`, `AVL`, `pmemkv`, `DQ`, …;
//! default `LL`) and `FFCCD_SCHEME` the scheme
//! (`espresso|sfccd|ffccd|checklookup`, default `checklookup`). The run
//! configuration matches the campaign that printed the probe, so the site
//! ID resolves to the same durability event and the mask to the same
//! lattice entries.
//!
//! Exit codes: 0 = the oracle passes, 1 = it fails, 2 = the site or kill
//! never fired (wrong seed, workload or configuration), 101 = missing or
//! malformed probe.

use ffccd::{ProbeId, ProbePhase, Scheme};
use ffccd_bench::workload;
use ffccd_workloads::campaign::{replay, site_config, thread_kill_config};

fn env(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

fn main() {
    let name = env("FFCCD_WORKLOAD").unwrap_or_else(|| "LL".into());
    let make = workload(&name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let scheme = match env("FFCCD_SCHEME").as_deref() {
        Some("espresso") => Scheme::Espresso,
        Some("sfccd") => Scheme::Sfccd,
        Some("ffccd") => Scheme::FfccdFenceFree,
        None | Some("checklookup") => Scheme::FfccdCheckLookup,
        Some(other) => panic!("unknown scheme {other} (espresso|sfccd|ffccd|checklookup)"),
    };
    let probe: ProbeId = std::env::args()
        .nth(1)
        .expect("pass the probe a campaign failure printed, e.g. '(seed=0x517e01, site=271422, subset=0x0)'")
        .parse()
        .unwrap_or_else(|e| panic!("{e}"));
    let cfg = match probe.phase {
        ProbePhase::ThreadKill { .. } => thread_kill_config(scheme, probe.seed),
        _ => site_config(scheme, probe.seed),
    };
    println!("replaying {name} / {} {probe}", scheme.label());
    let Some(r) = replay(&make, scheme, probe, &cfg) else {
        println!("{probe} never fired — wrong seed, workload or config?");
        std::process::exit(2);
    };
    let site = format!("fired during op {} (maybe set {})", r.op, r.maybe.len());
    let (fired, oracle) = match probe.phase {
        ProbePhase::Mutator => (site, "recovery + validation"),
        ProbePhase::Recovery => (site, "idempotent recovery + validation"),
        ProbePhase::ThreadKill { .. } => ("kill fired".to_owned(), "survivor checkers + restart"),
    };
    match r.outcome {
        Ok(()) => println!("{fired}: {oracle} PASS"),
        Err(msg) => {
            println!("{fired}: FAIL\n  {msg}");
            std::process::exit(1);
        }
    }
}
