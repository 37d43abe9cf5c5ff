//! Read-barrier throughput benchmark.
//!
//! Measures the host-side (not simulated-cycle) cost of `load_ref` — the
//! read barrier — by walking a fragmented linked list whose chain crosses
//! relocation frames. The heap runs the one lock discipline the code has:
//! 64 relocation-lock stripes for the §4.5 first-touch critical section
//! and the shared (reader-lock) engine path for clean resident lines on
//! an 8-bank engine.
//!
//! Three walk modes per scheme, at 1 and 4 threads:
//!
//! * `first_touch`: walk an armed cycle cold, so every barrier performs
//!   the §4.5 first-touch relocation — the mode that contends on the
//!   relocation stripes;
//! * `in_cycle`: steady-state walk of an armed cycle after a warmup pass
//!   (relocations done, references fixed up) — barrier checks only;
//! * `out_of_cycle`: walk after the cycle terminated — the pure fast
//!   path every application read pays between cycles.
//!
//! Results land in `BENCH_barrier.json` with the shared trajectory schema
//! plus a `shared_reads_pct` column — the fraction of cache-line reads
//! served under a *shared* bank lock — and a `ft_ic_ratio` column: how
//! many times slower a first-touch barrier is than a steady in-cycle
//! barrier for that (scheme, threads) group. Every run *gates* on the
//! lock-light path engaging: each `in_cycle` and `out_of_cycle` row must
//! serve at least [`SHARED_PCT_FLOOR`] percent of its line reads shared.
//! `--smoke` shrinks the op counts; `--out PATH` overrides the output
//! path.

use ffccd::{DefragConfig, DefragHeap, Scheme};
use ffccd_bench::report::{git_rev, render_json, validate_schema, Record};
use ffccd_bench::{header, rule};
use ffccd_pmem::MachineConfig;
use ffccd_pmop::{PmPtr, PoolConfig, TypeDesc, TypeId, TypeRegistry};

const NODE: TypeId = TypeId(0);
const NEXT: u64 = 0;
const SIZE: u64 = 128;
const EXTRA_KEYS: [&str; 2] = ["shared_reads_pct", "ft_ic_ratio"];

/// Gate: every `in_cycle` and `out_of_cycle` row serves at least this
/// percentage of its cache-line reads under a shared bank lock. Those
/// walks touch resident lines with no clwb outstanding, so nearly every
/// read takes the shared path (99.4–100% measured in smoke and full runs
/// on a 2-core host); a row far below means the lock-light read path
/// stopped engaging.
const SHARED_PCT_FLOOR: f64 = 95.0;

fn registry() -> TypeRegistry {
    let mut reg = TypeRegistry::new();
    reg.register(TypeDesc::new("node", SIZE as u32, &[NEXT as u32]));
    reg
}

/// Builds a fragmented heap (banked engine) with an armed compaction
/// cycle and returns the heap plus the list head.
fn armed_heap(scheme: Scheme, nodes: u64) -> (DefragHeap, PmPtr) {
    let cfg = DefragConfig {
        min_live_bytes: 1 << 12,
        ..DefragConfig::normal(scheme)
    };
    let heap = DefragHeap::create(
        PoolConfig {
            data_bytes: 8 << 20,
            os_page_size: 4096,
            machine: MachineConfig {
                banks: 8,
                ..MachineConfig::default()
            },
        },
        registry(),
        cfg,
    )
    .expect("heap");
    let mut ctx = heap.ctx();
    for i in 0..nodes {
        let n = heap.alloc(&mut ctx, NODE, SIZE).expect("alloc");
        heap.write_u64(&mut ctx, n, 8, i);
        let head = heap.root(&mut ctx);
        heap.store_ref(&mut ctx, n, NEXT, head);
        heap.persist(&mut ctx, n, 0, SIZE);
        heap.set_root(&mut ctx, n);
    }
    // Delete 4 of 5 nodes to fragment, then arm a cycle.
    let mut prev = PmPtr::NULL;
    let mut cur = heap.root(&mut ctx);
    let mut idx = 0u64;
    while !cur.is_null() {
        let next = heap.load_ref(&mut ctx, cur, NEXT);
        if !idx.is_multiple_of(5) {
            if prev.is_null() {
                heap.set_root(&mut ctx, next);
            } else {
                heap.store_ref(&mut ctx, prev, NEXT, next);
            }
            heap.free(&mut ctx, cur).expect("free");
        } else {
            prev = cur;
        }
        idx += 1;
        cur = next;
    }
    assert!(heap.defrag_now(&mut ctx), "cycle must arm");
    let head = heap.root(&mut ctx);
    (heap, head)
}

/// `threads` concurrent whole-list walks through the read barrier,
/// `passes` passes each. Returns (barriers executed, shared-read pct,
/// busy wall time in ms). Busy time is measured *inside* each walker
/// around the barrier loop only — thread spawn, mutator registration,
/// ctx setup and stats flushing are excluded, so one-pass first-touch
/// walks and many-pass steady walks are charged symmetrically — and the
/// slowest walker defines the wall time.
fn walk(heap: &DefragHeap, threads: usize, passes: u64) -> (u64, f64, f64) {
    let totals = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    // Register as a mutator so the heap knows when a sole
                    // walker can skip the stripe locks.
                    let _mutator = heap.register_mutator();
                    let mut ctx = heap.ctx();
                    let mut barriers = 0u64;
                    let t0 = std::time::Instant::now();
                    for _ in 0..passes {
                        let mut cur = heap.root(&mut ctx);
                        while !cur.is_null() {
                            cur = heap.load_ref(&mut ctx, cur, NEXT);
                            barriers += 1;
                        }
                    }
                    let busy = t0.elapsed();
                    heap.flush_stats(&mut ctx);
                    let line_reads = ctx.stats.cache_hits + ctx.stats.cache_misses;
                    (barriers, ctx.stats.shared_line_reads, line_reads, busy)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("walker"))
            .fold((0u64, 0u64, 0u64, std::time::Duration::ZERO), |a, b| {
                (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3.max(b.3))
            })
    });
    let (barriers, shared, lines, busy) = totals;
    (
        barriers,
        shared as f64 / lines.max(1) as f64 * 100.0,
        busy.as_secs_f64() * 1000.0,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_barrier.json".to_owned());

    header(if smoke {
        "bench_barrier (smoke): read-barrier throughput"
    } else {
        "bench_barrier: read-barrier throughput"
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {cores} (thread-scaling ratios need cores to scale onto)");

    let nodes: u64 = if smoke { 300 } else { 1200 };
    let reps: u64 = if smoke { 2 } else { 8 };
    let passes: u64 = if smoke { 4 } else { 64 };

    let mut records = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    println!(
        "{:<34} {:>8} {:>13} {:>10} {:>9} {:>8}",
        "name", "threads", "barriers/sec", "wall ms", "shared%", "ft/ic"
    );
    rule(88);
    for scheme in [Scheme::Sfccd, Scheme::FfccdCheckLookup] {
        let tag = match scheme {
            Scheme::Sfccd => "sfccd",
            _ => "ffccd_cl",
        };
        for threads in [1usize, 4] {
            // first_touch: a fresh armed heap per rep; only the walk
            // is timed, so heap construction stays out of the rate.
            let mut ft_ops = 0u64;
            let mut ft_ms = 0.0;
            let mut ft_pct = 0.0;
            for _ in 0..reps {
                let (heap, _) = armed_heap(scheme, nodes);
                let (ops, pct, ms) = walk(&heap, threads, 1);
                ft_ops += ops;
                ft_ms += ms;
                ft_pct = pct;
            }
            // in_cycle: relocations + ref fixups done by one warmup
            // pass, the cycle still armed for the timed walks.
            let (heap, _) = armed_heap(scheme, nodes);
            walk(&heap, 1, 1);
            let (ic_ops, ic_pct, ic_ms) = walk(&heap, threads, passes);
            // out_of_cycle: same heap after the cycle terminates.
            {
                let mut ctx = heap.ctx();
                heap.exit(&mut ctx);
            }
            let (oc_ops, oc_pct, oc_ms) = walk(&heap, threads, passes);
            // How many times slower a first-touch barrier is than a
            // steady in-cycle barrier (per-barrier wall cost ratio).
            let ft_rate = ft_ops as f64 / (ft_ms / 1000.0).max(1e-9);
            let ic_rate = ic_ops as f64 / (ic_ms / 1000.0).max(1e-9);
            let ratio = ic_rate / ft_rate.max(1e-9);
            for (mode, ops, ms, pct) in [
                ("first_touch", ft_ops, ft_ms, ft_pct),
                ("in_cycle", ic_ops, ic_ms, ic_pct),
                ("out_of_cycle", oc_ops, oc_ms, oc_pct),
            ] {
                let name = format!("{mode}::{tag}");
                let rate = ops as f64 / (ms / 1000.0).max(1e-9);
                if mode != "first_touch" && pct < SHARED_PCT_FLOOR {
                    violations.push(format!(
                        "{name} @{threads}t: {pct:.1}% of line reads shared, \
                         below {SHARED_PCT_FLOOR:.0}%"
                    ));
                }
                println!(
                    "{name:<34} {threads:>8} {rate:>13.0} {ms:>10.2} {pct:>8.1}% {ratio:>8.2}"
                );
                let mut rec = Record::new(&name, threads, rate, ms);
                rec.extra.push(("shared_reads_pct", pct));
                rec.extra.push(("ft_ic_ratio", ratio));
                records.push(rec);
            }
        }
    }
    rule(88);

    let rev = git_rev();
    let json = render_json(&records, &rev);
    std::fs::write(&out_path, &json).expect("write BENCH_barrier.json");
    println!("wrote {out_path} @ {rev}");

    let emitted = std::fs::read_to_string(&out_path).expect("read back");
    match validate_schema(&emitted, &EXTRA_KEYS) {
        Ok(n) => println!("schema OK: {n} records"),
        Err(e) => {
            eprintln!("schema INVALID: {e}");
            std::process::exit(1);
        }
    }

    if violations.is_empty() {
        println!(
            "shared-read gate OK: every in_cycle/out_of_cycle row >= {SHARED_PCT_FLOOR:.0}% shared"
        );
    } else {
        for v in &violations {
            eprintln!("shared-read gate FAILED: {v}");
        }
        std::process::exit(1);
    }
}
