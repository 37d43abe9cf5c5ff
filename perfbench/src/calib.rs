//! Calibration rows of the traced run: host cost of raw engine accesses
//! and of single heap allocations, the yardsticks the full driver's cost
//! per op is compared against.

use std::hint::black_box;
use std::time::Instant;

use ffccd::{DefragConfig, DefragHeap, Scheme};
use ffccd_pmem::{Ctx, MachineConfig, PmEngine};
use ffccd_pmop::{PoolConfig, TypeDesc, TypeRegistry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::trace::median;

/// Accesses per timed pass, and passes per row (the row is their median).
const RAW_ACCESSES: usize = 200_000;
const HEAP_CALLS: usize = 20_000;
const PASSES: usize = 3;
/// The raw rows touch a region twice the modelled cache, so both the hit
/// and the miss path run.
const RAW_REGION: u64 = 6 << 20;

/// Host ns per access of `PmEngine::{write, read, persist}` at `banks`.
pub fn raw_engine(banks: usize, seed: u64) -> [f64; 3] {
    let cfg = MachineConfig {
        banks,
        seed,
        ..MachineConfig::default()
    };
    let engine = PmEngine::new(cfg.clone(), RAW_REGION);
    let mut rng = SmallRng::seed_from_u64(seed);
    let offs: Vec<u64> = (0..RAW_ACCESSES)
        .map(|_| rng.gen_range(0..RAW_REGION / 8) * 8)
        .collect();
    let mut rows = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..PASSES {
        let mut ctx = Ctx::new(&cfg);
        let t = Instant::now();
        for &o in &offs {
            engine.write(&mut ctx, o, &o.to_le_bytes());
        }
        rows[0].push(ns_per(t, offs.len()));
        let mut buf = [0u8; 8];
        let t = Instant::now();
        for &o in &offs {
            engine.read(&mut ctx, o, &mut buf);
            black_box(&buf);
        }
        rows[1].push(ns_per(t, offs.len()));
        let t = Instant::now();
        for &o in &offs {
            engine.persist(&mut ctx, o, 8);
        }
        rows[2].push(ns_per(t, offs.len()));
        black_box(ctx.cycles());
    }
    rows.map(|r| median(&r))
}

/// Host ns per `DefragHeap::alloc` and per `DefragHeap::free` of a
/// 144-byte object (a workload entry).
pub fn heap_alloc_free(seed: u64) -> [f64; 2] {
    let mut reg = TypeRegistry::new();
    let ty = reg.register(TypeDesc::new("calib_entry", 144, &[0]));
    let mut alloc = Vec::new();
    let mut free = Vec::new();
    for _ in 0..PASSES {
        let heap = DefragHeap::create(
            PoolConfig {
                data_bytes: 16 << 20,
                os_page_size: 4096,
                machine: MachineConfig {
                    seed,
                    ..MachineConfig::default()
                },
            },
            reg.clone(),
            DefragConfig::normal(Scheme::FfccdCheckLookup),
        )
        .expect("calibration pool");
        let mut ctx = heap.ctx();
        let mut ptrs = Vec::with_capacity(HEAP_CALLS);
        let t = Instant::now();
        for _ in 0..HEAP_CALLS {
            ptrs.push(heap.alloc(&mut ctx, ty, 144).expect("calibration alloc"));
        }
        alloc.push(ns_per(t, HEAP_CALLS));
        let t = Instant::now();
        for p in ptrs {
            heap.free(&mut ctx, p).expect("calibration free");
        }
        free.push(ns_per(t, HEAP_CALLS));
    }
    [median(&alloc), median(&free)]
}

fn ns_per(t: Instant, n: usize) -> f64 {
    t.elapsed().as_nanos() as f64 / n as f64
}
