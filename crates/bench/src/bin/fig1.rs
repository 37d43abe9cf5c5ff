//! Figure 1 — PM fragmentation worsens across runs of Echo.
//!
//! Three consecutive "runs" of the Echo key-value store over the *same*
//! pool (terminate + reopen between runs, like closing and restarting the
//! process). Each run churns the store; the fragmentation ratio the next
//! run inherits keeps growing, and throughput declines with it — the
//! paper's motivating observation.

use ffccd::{DefragConfig, DefragHeap};
use ffccd_bench::{header, rule, scale, HUGE_PAGE_SIM};
use ffccd_pmem::MachineConfig;
use ffccd_pmop::{PmPool, PoolConfig};
use ffccd_workloads::util::{KeyGen, LiveKeys};
use ffccd_workloads::{Echo, Workload};

struct RunStats {
    frag_end: f64,
    frag_avg: f64,
    cycles_per_op: f64,
}

fn churn(
    heap: &DefragHeap,
    w: &mut Echo,
    keys: &mut KeyGen,
    live: &mut LiveKeys,
    inserts: usize,
    deletes: usize,
) -> RunStats {
    let mut ctx = heap.ctx();
    let mut ops = 0u64;
    let mut frag_samples = Vec::new();
    let mut op = |insert: bool, w: &mut Echo, ctx: &mut ffccd_pmem::Ctx| {
        if insert {
            let k = keys.fresh();
            w.insert(heap, ctx, k, 128);
            live.insert(k);
        } else if let Some(k) = keys.pick_live(live) {
            w.delete(heap, ctx, k);
            live.remove(&k);
        }
        ops += 1;
        if ops.is_multiple_of(64) {
            frag_samples.push(heap.pool().stats().frag_ratio);
        }
    };
    for _ in 0..deletes {
        op(false, w, &mut ctx);
    }
    for _ in 0..inserts {
        op(true, w, &mut ctx);
    }
    let st = heap.pool().stats();
    RunStats {
        frag_end: st.frag_ratio,
        frag_avg: frag_samples.iter().sum::<f64>() / frag_samples.len().max(1) as f64,
        cycles_per_op: ctx.cycles() as f64 / ops.max(1) as f64,
    }
}

fn three_runs(page: u64, label: &str) {
    let n = 5_000_000 / scale();
    let churn_n = 4_000_000 / scale();
    let mut w = Echo::new();
    let pool_cfg = PoolConfig {
        data_bytes: 64 << 20,
        os_page_size: page,
        machine: MachineConfig::default(),
    };
    let mut heap =
        DefragHeap::create(pool_cfg, w.registry(), DefragConfig::baseline()).expect("pool");
    let mut ctx = heap.ctx();
    w.setup(&heap, &mut ctx);
    let mut keys = KeyGen::new(0xF161);
    let mut live = LiveKeys::new();
    // Initial population.
    for _ in 0..n {
        let k = keys.fresh();
        w.insert(&heap, &mut ctx, k, 128);
        live.insert(k);
    }
    let mut results = Vec::new();
    for run in 1..=3 {
        let st = churn(&heap, &mut w, &mut keys, &mut live, churn_n, churn_n);
        results.push(st);
        if run < 3 {
            // Clean shutdown + restart: the fragmentation is inherited.
            let image = heap.engine().crash_image();
            let pool = PmPool::open(image.restart(), w.registry()).expect("reopen");
            heap = DefragHeap::from_pool(pool, DefragConfig::baseline());
            let mut rctx = heap.ctx();
            w.reopen(&heap, &mut rctx);
        }
    }
    let t0 = results[0].cycles_per_op;
    println!("\n{label} pages:");
    println!("{:<12} {:>10} {:>10} {:>10}", "run", "1st", "2nd", "3rd");
    println!(
        "{:<12} {:>10.2} {:>10.2} {:>10.2}",
        "fragR (end)", results[0].frag_end, results[1].frag_end, results[2].frag_end
    );
    println!(
        "{:<12} {:>10.2} {:>10.2} {:>10.2}",
        "fragR (avg)", results[0].frag_avg, results[1].frag_avg, results[2].frag_avg
    );
    println!(
        "{:<12} {:>10.1} {:>10.1} {:>10.1}",
        "throughput",
        100.0,
        100.0 * t0 / results[1].cycles_per_op,
        100.0 * t0 / results[2].cycles_per_op
    );
}

fn main() {
    header("Figure 1: PM fragmentation worsens across runs of Echo");
    println!("(paper: fragR 1.36/1.77/2.23 at 4KB, 1.44/2.42/3.24 at 2MB;");
    println!(" throughput 100/89.7/78.1 at 4KB, 100/92.2/81.5 at 2MB)");
    three_runs(4096, "4KB");
    three_runs(HUGE_PAGE_SIM, "2MB (simulated)");
    rule(72);
}
