//! Op-boundary fault injection (paper §7.1) — crash images at scheduled
//! operation indices, the paper's original methodology
//! ([`run_fault_injection`], [`run_mt_fault_injection`]) — plus the
//! recovery oracle and pool setup every crash campaign shares. The
//! durability-event campaigns (§7.1b–e) live in [`crate::campaign`].
//!
//! Every image is restarted, recovered with the scheme's recovery
//! procedure, and validated twice — GC-metadata consistency
//! ([`ffccd::validate_heap`]) and workload topology/key-set consistency
//! ([`crate::Workload::validate`]).

use std::collections::BTreeSet;

use ffccd::{validate_heap, DefragConfig, DefragHeap, RecoveryReport, Scheme};
use ffccd_pmem::{CrashImage, Ctx, MachineConfig};
use ffccd_pmop::PoolConfig;

use crate::driver::{run_on, DriverConfig, OpHook, PhaseMix};
use crate::workload::Workload;

/// Outcome of one fault-injection campaign.
#[derive(Clone, Debug, Default)]
pub struct FaultReport {
    /// Crash images taken.
    pub injections: u64,
    /// Images whose recovery found an in-flight cycle.
    pub mid_cycle: u64,
    /// Objects finished / redone by recovery across all images.
    pub recovered_objects: u64,
    /// Objects undone (FFCCD not-reached) across all images.
    pub undone_objects: u64,
    /// Validation failures (must be zero).
    pub failures: Vec<String>,
}

/// The defragmentation configuration every fault campaign runs under:
/// low thresholds so cycles actually trigger at test scale.
pub(crate) fn fault_defrag(scheme: Scheme) -> DefragConfig {
    DefragConfig {
        min_live_bytes: 1 << 12,
        cooldown_ops: 64,
        ..DefragConfig::normal(scheme)
    }
}

fn seeded_pool(cfg: &DriverConfig, seed: u64) -> PoolConfig {
    PoolConfig {
        machine: MachineConfig {
            seed,
            ..cfg.pool.machine.clone()
        },
        ..cfg.pool.clone()
    }
}

/// Pool config for campaign and replay runs: like [`seeded_pool`] but
/// pinned to the engine's single-bank deterministic mode. Crash-site IDs and the
/// images captured at them must be byte-reproducible from a `(seed,
/// site_id)` pair alone — across processes, job counts, and whatever
/// `banks` the caller's machine config asks for — and the engine itself
/// rejects site tracking on a banked engine.
pub(crate) fn deterministic_pool(cfg: &DriverConfig, seed: u64) -> PoolConfig {
    let mut pool = seeded_pool(cfg, seed);
    pool.machine.banks = 1;
    pool
}

/// Multithreaded fault injection: `threads` application threads plus the
/// concurrent collector run the workload while a sampler thread captures
/// crash images; each image is recovered and checked with the
/// GC-metadata/heap-consistency validator (§7.1's second checker; the
/// key-set oracle is not applicable when threads race the snapshot).
///
/// The sampler gates on a shared *operation counter*, not wall-clock
/// time: captures land at evenly spaced op-progress points, so the same
/// simulated states are probed whether the host is fast, slow, or stalls
/// a thread mid-run.
pub fn run_mt_fault_injection(
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    threads: usize,
    scheme: Scheme,
    seed: u64,
    injections: u64,
    cfg: &DriverConfig,
) -> FaultReport {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let pool_cfg = seeded_pool(cfg, seed);
    let defrag = fault_defrag(scheme);
    // The mt driver stores per-thread roots in a directory object whose
    // type the workload does not know; both creation and every recovery
    // open below must use the extended registry.
    let (reg, _) = crate::driver::mt_registry(make_workload().registry(), threads);
    let heap = DefragHeap::create(pool_cfg, reg, defrag).expect("mt fault pool");
    let done = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));

    // Sampler: one image each time the run crosses another stride of op
    // progress (never at op 0 — an empty heap recovers trivially).
    let sampler = {
        let heap = heap.clone();
        let done = done.clone();
        let progress = progress.clone();
        let total = ((cfg.mix.init + cfg.mix.phase_ops * cfg.mix.phases) / threads.max(1)
            * threads.max(1)) as u64;
        std::thread::spawn(move || {
            let mut images = Vec::new();
            let stride = (total / (injections + 1)).max(1);
            for k in 1..=injections {
                let target = k * stride;
                while progress.load(Ordering::Acquire) < target {
                    if done.load(Ordering::Acquire) {
                        return images;
                    }
                    std::thread::yield_now();
                }
                images.push(heap.engine().crash_image());
            }
            images
        })
    };
    // Reuse the MT driver for the run itself.
    {
        let mut mt_cfg = cfg.clone();
        mt_cfg.defrag = defrag;
        let _ = crate::driver::run_mt_on(make_workload, threads, &mt_cfg, &heap, Some(progress));
    }
    done.store(true, Ordering::Release);
    let images = sampler.join().expect("sampler");

    let mut report = FaultReport {
        injections: images.len() as u64,
        ..FaultReport::default()
    };
    for (i, image) in images.iter().enumerate() {
        let (reg, _) = crate::driver::mt_registry(make_workload().registry(), threads);
        match DefragHeap::open_recovered(image, reg, defrag) {
            Ok((heap2, rec)) => {
                if rec.had_cycle {
                    report.mid_cycle += 1;
                }
                report.recovered_objects += rec.finished + rec.already_durable;
                report.undone_objects += rec.undone;
                if let Err(es) = validate_heap(&heap2) {
                    report
                        .failures
                        .push(format!("image {i}: GC metadata: {}", es.join("; ")));
                }
            }
            Err(e) => report
                .failures
                .push(format!("image {i}: recovery failed: {e}")),
        }
    }
    report
}

/// Operation indices at which [`run_fault_injection`] captures crash
/// images: evenly spaced across the *post-init* phase window — where the
/// delete/insert churn and the compaction cycles it triggers actually
/// happen — and never at op 0 (an untouched heap recovers trivially). The
/// old scheme strode over the whole run, clustering most images in the
/// monotone init phase. If more injections are requested than the phase
/// window has ops, spacing falls back to the whole run (still skipping
/// op 0).
pub(crate) fn injection_ops(mix: &PhaseMix, injections: u64) -> BTreeSet<u64> {
    let total = (mix.init + mix.phase_ops * mix.phases) as u64;
    let mut ops = BTreeSet::new();
    if total == 0 || injections == 0 {
        return ops;
    }
    let start = (mix.init as u64).min(total - 1);
    let window = total - start;
    if injections <= window {
        for k in 1..=injections {
            ops.insert(start + k * window / injections);
        }
    } else {
        for k in 1..=injections {
            ops.insert((k * total / injections).clamp(1, total));
        }
    }
    ops
}

/// Runs `workload` under `scheme`, capturing `injections` crash images at
/// evenly spaced points of the post-init phase window (see
/// [`injection_ops`]), and validates recovery from each.
///
/// `make_workload` builds a fresh workload instance for validating each
/// image (the persistent structure is rebuilt from the image; volatile
/// state is re-derived via [`Workload::reopen`]).
pub fn run_fault_injection(
    workload: &mut dyn Workload,
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    scheme: Scheme,
    seed: u64,
    injections: u64,
    cfg: &DriverConfig,
) -> FaultReport {
    let pool_cfg = seeded_pool(cfg, seed);
    let defrag = DefragConfig {
        min_live_bytes: 1 << 12,
        ..DefragConfig::normal(scheme)
    };
    let heap =
        DefragHeap::create(pool_cfg, workload.registry(), defrag).expect("fault-injection pool");

    let targets = injection_ops(&cfg.mix, injections);
    let mut images: Vec<(CrashImage, BTreeSet<u64>)> = Vec::new();
    {
        let mut hook = |op: u64, heap: &DefragHeap, live: &BTreeSet<u64>| {
            if targets.contains(&op) && (images.len() as u64) < injections {
                images.push((heap.engine().crash_image(), live.clone()));
            }
            true
        };
        let mut hook_dyn: OpHook<'_> = Some(&mut hook);
        run_on(workload, cfg, &heap, &mut hook_dyn);
    }

    let mut report = FaultReport {
        injections: images.len() as u64,
        ..FaultReport::default()
    };
    for (i, (image, live)) in images.iter().enumerate() {
        match validate_capture(image, defrag, make_workload, live, live, false) {
            Ok(rec) => {
                if rec.had_cycle {
                    report.mid_cycle += 1;
                }
                report.recovered_objects += rec.finished + rec.already_durable;
                report.undone_objects += rec.undone;
            }
            Err(e) => report.failures.push(format!("image {i}: {e}")),
        }
    }
    report
}

/// The recovery oracle every crash campaign gates on: restart `image`,
/// run the scheme's recovery, then the GC-metadata and program-data
/// validators. With `idempotent` set (crashes inside recovery, §7.1d) a
/// second `recover()` on the recovered machine must also be a
/// byte-identical no-op. Because the image may be mid-operation, the
/// key-set oracle accepts either the pre-op or the post-op set.
pub(crate) fn validate_capture(
    image: &CrashImage,
    defrag: DefragConfig,
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    live_before: &BTreeSet<u64>,
    live_after: &BTreeSet<u64>,
    idempotent: bool,
) -> Result<RecoveryReport, String> {
    let mut fresh = make_workload();
    let (heap2, rec) = if idempotent {
        let (heap2, rerun) =
            DefragHeap::open_recovered_idempotent(image, None, fresh.registry(), defrag)
                .map_err(|e| format!("nested recovery failed: {e}"))?;
        if !rerun.is_noop() {
            return Err(format!(
                "recovery not idempotent: media fingerprint 0x{:x} -> 0x{:x}, rerun had_cycle={}",
                rerun.fingerprint, rerun.rerun_fingerprint, rerun.rerun.had_cycle
            ));
        }
        (heap2, rerun.report)
    } else {
        DefragHeap::open_recovered(image, fresh.registry(), defrag)
            .map_err(|e| format!("recovery failed: {e}"))?
    };
    validate_heap(&heap2).map_err(|es| format!("GC metadata: {}", es.join("; ")))?;
    let mut ctx = Ctx::new(heap2.pool().machine());
    fresh.reopen(&heap2, &mut ctx);
    if fresh.validate(&heap2, &mut ctx, live_after).is_ok() {
        return Ok(rec);
    }
    fresh
        .validate(&heap2, &mut ctx, live_before)
        .map_err(|e| format!("matches neither pre- nor post-op key set: {e}"))?;
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_ops_skip_init_and_op_zero() {
        let mix = PhaseMix {
            init: 400,
            phase_ops: 300,
            phases: 3,
        };
        let ops = injection_ops(&mix, 12);
        assert_eq!(ops.len(), 12, "distinct, evenly spaced targets");
        assert!(ops.iter().all(|&op| op > 400), "init phase is skipped");
        assert!(ops.iter().all(|&op| op <= 1300));
        assert_eq!(*ops.iter().max().unwrap(), 1300, "window fully covered");
    }

    #[test]
    fn injection_ops_fall_back_when_oversubscribed() {
        let mix = PhaseMix {
            init: 90,
            phase_ops: 2,
            phases: 3,
        };
        let ops = injection_ops(&mix, 64);
        assert!(!ops.is_empty());
        assert!(ops.iter().all(|&op| (1..=96).contains(&op)));
    }
}
