//! Criterion ablation sweeps over the architecture parameters:
//! PMFTLB capacity, bloom filter size (false-positive rate), and RBB
//! capacity (hit rate) — the sizing decisions behind Table 1/Table 2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ffccd_arch::{
    BloomFilter, CheckLookupUnit, GcMetaLayout, HashedFt, HashedFtEntry, Pmft, PmftEntry, Rbb,
};
use ffccd_pmem::{Ctx, Line, MachineConfig, Media, PersistObserver, PmEngine};
use ffccd_pmop::PoolLayout;

const BASE: u64 = 0x5000_0000_0000;

fn setup_unit(pmftlb_entries: usize) -> (PmEngine, CheckLookupUnit, Vec<u64>, GcMetaLayout) {
    let pool = PoolLayout::compute(16 << 20, 4096);
    let meta = GcMetaLayout::from_pool(&pool);
    let cfg = MachineConfig {
        pmftlb_entries,
        ..MachineConfig::default()
    };
    let engine = PmEngine::new(cfg, pool.total_bytes);
    let mut ctx = Ctx::new(engine.config());
    let pmft = Pmft::new(meta);
    let reloc: Vec<u64> = (0..64u64).map(|i| i * 7 % meta.num_frames).collect();
    let mut entries = Vec::new();
    for &f in &reloc {
        let mut e = PmftEntry::new(f, (f + 100) % meta.num_frames);
        e.map(0, 0);
        e.map(32, 12);
        pmft.store(&mut ctx, &engine, &e);
        entries.push(e);
    }
    let unit = CheckLookupUnit::new(pmft);
    unit.begin_cycle(&engine, BASE, &entries);
    (engine, unit, reloc, meta)
}

fn bench_pmftlb_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("pmftlb_sweep");
    g.sample_size(15);
    g.measurement_time(std::time::Duration::from_secs(1));
    for entries in [4usize, 16, 64] {
        let (engine, unit, reloc, meta) = setup_unit(entries);
        let mut ctx = Ctx::new(engine.config());
        let mut i = 0usize;
        g.bench_with_input(BenchmarkId::from_parameter(entries), &entries, |b, _| {
            b.iter(|| {
                let f = reloc[i % reloc.len()];
                let va = BASE + meta.data_start + f * 4096;
                i += 1;
                unit.checklookup(&mut ctx, &engine, va)
            })
        });
        // Simulated cycle cost, warm pass (pass 1 fills the PMFTLB; pass 2
        // measures the steady state a sweep cares about).
        let mut ctx = Ctx::new(engine.config());
        for &f in &reloc {
            let va = BASE + meta.data_start + f * 4096;
            unit.checklookup(&mut ctx, &engine, va);
        }
        let c0 = ctx.cycles();
        for &f in &reloc {
            let va = BASE + meta.data_start + f * 4096;
            unit.checklookup(&mut ctx, &engine, va);
        }
        eprintln!(
            "[ablation] PMFTLB={entries}: {:.1} simulated cycles/checklookup (warm) over {} frames",
            (ctx.cycles() - c0) as f64 / reloc.len() as f64,
            reloc.len()
        );
    }
    g.finish();
}

fn bench_bloom_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("bloom_fp_rate");
    g.sample_size(15);
    g.measurement_time(std::time::Duration::from_secs(1));
    for bytes in [256usize, 1024, 4096] {
        let mut f = BloomFilter::new(bytes);
        for k in 0..512u64 {
            f.insert(k * 31);
        }
        let fps = (100_000..110_000u64)
            .filter(|&k| f.maybe_contains(k))
            .count();
        eprintln!(
            "[ablation] bloom {bytes}B with 512 keys: {:.2}% false positives",
            fps as f64 / 100.0
        );
        let mut k = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(bytes), &bytes, |b, _| {
            b.iter(|| {
                k += 1;
                f.maybe_contains(k)
            })
        });
    }
    g.finish();
}

fn bench_rbb_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("rbb_sweep");
    g.sample_size(15);
    g.measurement_time(std::time::Duration::from_secs(1));
    let pool = PoolLayout::compute(16 << 20, 4096);
    let meta = GcMetaLayout::from_pool(&pool);
    for entries in [2usize, 8, 32] {
        let rbb = Rbb::new(meta, entries);
        let mut media = Media::new(pool.total_bytes);
        let mut i = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(entries), &entries, |b, _| {
            b.iter(|| {
                // 16 hot frames round-robin: larger RBBs hit more.
                let frame = i % 16;
                let cl = i % 64;
                i += 1;
                let line = Line((meta.data_start + frame * 4096 + cl * 64) / 64);
                rbb.pending_line_persisted(&mut media, line);
            })
        });
        let (hits, misses) = rbb.hit_stats();
        eprintln!(
            "[ablation] RBB={entries}: {:.1}% hit rate over 16 hot frames",
            hits as f64 / (hits + misses).max(1) as f64 * 100.0
        );
    }
    g.finish();
}

fn bench_forwarding_tables(c: &mut Criterion) {
    // §4.3.1 ablation: PM-aware forwarding table (regular layout, two
    // dependent reads) vs the compact hashed table (irregular probing).
    let mut g = c.benchmark_group("forwarding_table");
    g.sample_size(15);
    g.measurement_time(std::time::Duration::from_secs(1));
    let pool = PoolLayout::compute(16 << 20, 4096);
    let meta = GcMetaLayout::from_pool(&pool);
    let engine = PmEngine::new(MachineConfig::default(), pool.total_bytes);
    let mut ctx = Ctx::new(engine.config());
    let pmft = Pmft::new(meta);
    let frames: Vec<u64> = (0..128u64).collect();
    for &f in &frames {
        let mut e = PmftEntry::new(f, f + 1000);
        e.map(0, 0);
        pmft.store(&mut ctx, &engine, &e);
    }
    let hashed = HashedFt::new(meta.pmft_base, 512);
    hashed.clear(&mut ctx, &engine);
    // (Reuses the PMFT arena for the bench only — they are alternatives.)
    for &f in &frames {
        hashed.store(
            &mut ctx,
            &engine,
            &HashedFtEntry {
                src_frame: f,
                src_slot: 0,
                dest_frame: f + 1000,
                dest_slot: 0,
            },
        );
    }
    let mut i = 0usize;
    g.bench_function("pmft_soft_lookup", |b| {
        b.iter(|| {
            let f = frames[i % frames.len()];
            i += 1;
            pmft.soft_lookup(&mut ctx, &engine, f, 0)
        })
    });
    g.bench_function("hashed_ft_lookup", |b| {
        b.iter(|| {
            let f = frames[i % frames.len()];
            i += 1;
            hashed.lookup(&mut ctx, &engine, f, 0)
        })
    });
    g.finish();
    // Simulated-cycle + space report.
    let mut ctx = Ctx::new(engine.config());
    let c0 = ctx.cycles();
    for &f in &frames {
        let _ = pmft.soft_lookup(&mut ctx, &engine, f, 0);
    }
    let pmft_cycles = (ctx.cycles() - c0) / frames.len() as u64;
    let c0 = ctx.cycles();
    for &f in &frames {
        let _ = hashed.lookup(&mut ctx, &engine, f, 0);
    }
    let hashed_cycles = (ctx.cycles() - c0) / frames.len() as u64;
    eprintln!(
        "[ablation] forwarding: PMFT {} cycles/lookup @ {} B/frame vs hashed {} cycles/lookup @ {} B total",
        pmft_cycles,
        ffccd_arch::PMFT_ENTRY_BYTES,
        hashed_cycles,
        hashed.region_bytes()
    );
}

criterion_group!(
    benches,
    bench_pmftlb_sweep,
    bench_bloom_sweep,
    bench_rbb_sweep,
    bench_forwarding_tables
);
criterion_main!(benches);
