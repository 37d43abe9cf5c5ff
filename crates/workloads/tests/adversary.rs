//! Adversarial persistence exploration integration tests: exhaustive
//! subset exploration on a tiny run passes, and subset replays are
//! byte-deterministic from their `(seed, site_id, subset_bitmask)` probe.
//! (Job-count invariance for every campaign lives in `crash_sites.rs`.)

use ffccd::{ProbeId, Scheme};
use ffccd_pmem::MachineConfig;
use ffccd_workloads::campaign::{replay, run, Fault, Plan};
use ffccd_workloads::driver::{DriverConfig, PhaseMix};
use ffccd_workloads::{LinkedList, Workload};

fn adv_cfg(scheme: Scheme, seed: u64) -> DriverConfig {
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

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn adversary_explores_lattices_and_all_subsets_recover() {
    let seed = 0xADF_C0DE;
    let cfg = adv_cfg(Scheme::FfccdFenceFree, seed);
    let plan = Plan {
        seed,
        fault: Fault::Site {
            sites: 8,
            images: 64,
        },
    };
    let report = run(&make_ll, Scheme::FfccdFenceFree, &plan, &cfg, 1);
    assert!(report.total_sites > 1000, "got {}", report.total_sites);
    assert_eq!(report.targeted, 8);
    assert_eq!(
        report.captured, report.targeted,
        "every targeted site must fire in the replay run (determinism)"
    );
    assert!(
        report.images >= report.captured,
        "each site contributes at least its base image"
    );
    assert!(
        report.images > report.captured,
        "some lattice must be non-trivial: {} images over {} sites (max maybe {})",
        report.images,
        report.captured,
        report.max_maybe
    );
    assert!(
        report.failures.is_empty(),
        "adversarial failures: {:#?}",
        report
            .failures
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
    );
}

/// A subset replay is a pure function of its triple: same firing op, same
/// materialized image bytes, same outcome on every rerun — and the empty
/// subset materializes exactly the base image the sweep validates (pinned
/// to the fingerprint of the site's raw, never-materialized capture).
#[test]
fn subset_replay_is_deterministic_and_mask_zero_is_base_image() {
    let seed = 0xBEEF;
    let scheme = Scheme::FfccdCheckLookup;
    let cfg = adv_cfg(scheme, seed);
    let site_id = 5000;

    let base = replay(&make_ll, scheme, ProbeId::new(seed, site_id, 0), &cfg).expect("site fires");
    assert_eq!(base.op, 111);
    assert_eq!(
        fnv1a(base.image.as_ref().unwrap().media().as_bytes()),
        0x399c_9dad_72e7_0073,
        "mask 0 must materialize the base (nothing-persisted) image"
    );

    // A non-empty subset replays byte-identically too.
    let window = base.maybe.window();
    let mask = if window >= 64 {
        u64::MAX
    } else {
        (1u64 << window) - 1
    };
    let probe = ProbeId::new(seed, site_id, mask);
    let a = replay(&make_ll, scheme, probe, &cfg).expect("site fires");
    let b = replay(&make_ll, scheme, probe, &cfg).expect("site fires again");
    assert_eq!(a.op, b.op);
    assert_eq!(a.op, base.op, "the subset fires during the base image's op");
    assert_eq!(a.maybe.len(), b.maybe.len());
    assert_eq!(
        fnv1a(a.image.as_ref().unwrap().media().as_bytes()),
        fnv1a(b.image.as_ref().unwrap().media().as_bytes()),
        "subset image bytes must be reproducible from the triple"
    );
    assert_eq!(a.outcome.is_ok(), b.outcome.is_ok());
    assert!(a.outcome.is_ok(), "subset recovery failed: {:?}", a.outcome);
    if mask != 0 {
        assert_ne!(
            fnv1a(a.image.as_ref().unwrap().media().as_bytes()),
            fnv1a(base.image.as_ref().unwrap().media().as_bytes()),
            "full-window subset must differ from the base image (maybe_len {})",
            a.maybe.len()
        );
    }
}
