//! The repository benchmark: end-to-end and per-layer metrics of the FFCCD
//! simulator on four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn_1t --seed 1 --seconds 40 --trace 0
//! ```
//!
//! A run repeats *set-up → timed phase → correctness oracle* until the
//! timed phases add up to `--seconds` (and at least three times), then
//! prints one line per metric and, last, one JSON object. Throughput is
//! taken at the run's best pace: each fixed slice of work at its fastest
//! time over the repetitions (see `best_pace_rate`). `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the traced variant and
//! reports the per-layer metrics, writing its spans to
//! `.bench_build/perfbench/`. Every input derives from `--seed`.

mod calib;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use ffccd_workloads::driver::RunResult;
use trace::{mean, median, quantile, Tracer};
use workloads::{Kind, Rep};

/// End-to-end metrics (`--trace 0`), in print order.
const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("sim_cycles_per_op", "cycles"),
    ("sim_gc_cycles_per_op", "cycles"),
    ("sim_op_p50_cycles", "cycles"),
    ("sim_op_p99_cycles", "cycles"),
    ("frag_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`). A metric whose layer the workload does
/// not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.insert_us_p50", "us"),
    ("workloads.insert_us_p99", "us"),
    ("workloads.delete_us_p50", "us"),
    ("workloads.delete_us_p99", "us"),
    ("workloads.keypick_us", "us"),
    ("workloads.sample_us", "us"),
    ("workloads.lookup_us_p50", "us"),
    ("workloads.lookup_us_p99", "us"),
    ("workloads.validate_ms", "ms"),
    ("core.stw_ms", "ms"),
    ("core.pump_us_p50", "us"),
    ("core.pump_us_p99", "us"),
    ("core.terminate_ms", "ms"),
    ("core.trigger_hit_share", "ratio"),
    ("core.mark_cycles_per_op", "cycles"),
    ("core.sweep_cycles_per_op", "cycles"),
    ("core.summary_cycles_per_op", "cycles"),
    ("core.copy_cycles_per_op", "cycles"),
    ("core.check_lookup_cycles_per_op", "cycles"),
    ("core.state_cycles_per_op", "cycles"),
    ("core.ref_fixup_cycles_per_op", "cycles"),
    ("core.gc_cycles_completed", "count"),
    ("core.objects_relocated_per_cycle", "count"),
    ("core.reclaimed_per_copied_byte", "ratio"),
    ("core.barriers_per_op", "count"),
    ("core.in_cycle_op_share", "ratio"),
    ("core.recover_ms_p50", "ms"),
    ("core.from_pool_ms", "ms"),
    ("core.validate_heap_ms", "ms"),
    ("core.recovery_finished_per_image", "count"),
    ("core.recovery_undone_per_image", "count"),
    ("core.recovery_refs_fixed_per_image", "count"),
    ("core.recovery_had_cycle_share", "ratio"),
    ("core.alloc_ns", "ns"),
    ("core.free_ns", "ns"),
    ("arch.relocates_per_op", "count"),
    ("arch.checklookups_per_op", "count"),
    ("arch.fastpath_hits_per_op", "count"),
    ("arch.pending_lines_persisted_per_op", "count"),
    ("pmem.loads_per_op", "count"),
    ("pmem.stores_per_op", "count"),
    ("pmem.clwbs_per_op", "count"),
    ("pmem.sfences_per_op", "count"),
    ("pmem.media_line_writes_per_op", "count"),
    ("pmem.evictions_per_op", "count"),
    ("pmem.tlb_misses_per_op", "count"),
    ("pmem.cache_hit_ratio", "ratio"),
    ("pmem.shared_read_share", "ratio"),
    ("pmem.crash_image_ms", "ms"),
    ("pmem.restart_ms", "ms"),
    ("pmem.raw_write_ns_b1", "ns"),
    ("pmem.raw_read_ns_b1", "ns"),
    ("pmem.raw_persist_ns_b1", "ns"),
    ("pmem.raw_write_ns_b8", "ns"),
    ("pmem.raw_read_ns_b8", "ns"),
    ("pmem.raw_persist_ns_b8", "ns"),
    ("pmem.driver_to_raw_ratio", "ratio"),
    ("pmop.open_ms", "ms"),
    ("pmop.footprint_mib_mean", "MiB"),
    ("pmop.committed_pages_end", "count"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.self_bench_share", "ratio"),
    ("trace.self_workloads_share", "ratio"),
    ("trace.self_core_share", "ratio"),
    ("trace.self_pmop_share", "ratio"),
    ("trace.self_pmem_share", "ratio"),
];

/// Repetitions a run makes at least (set-up time is their median); a
/// traced run makes at least `MIN_REPS - 1` traced/untraced pairs.
const MIN_REPS: usize = 3;
/// No repetition starts that would, at the last one's pace, end past
/// this much wall time (a run must end within 180 s).
const WALL_CAP_S: f64 = 140.0;

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let kind = Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        kind,
        name,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload churn_1t|lookup_1t|churn_2t|crash_recover \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // Spread small CLI seeds over the whole key/eviction seed space.
    let seed = 0xFFCC_D000_0000_0000
        ^ args
            .seed
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let started = Instant::now();
    workloads::warm_up(seed);

    // A traced run alternates an untraced repetition (the reference that
    // tracing must not perturb, and the base of `trace.overhead`) with a
    // traced one; only the traced ones feed the per-layer metrics.
    let mut tr = Tracer::new(args.trace);
    let mut untraced_tr = Tracer::new(false);
    let budget = args.seconds / MIN_REPS as f64 / if args.trace { 2.0 } else { 1.0 };
    let mut reps: Vec<Rep> = Vec::new();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut base: Option<(workloads::Sim, Option<RunResult>)> = None;
    let mut last_rep_span = 0usize;
    let mut timed = 0.0;
    let mut peak_rss = None;
    loop {
        let rep_start = started.elapsed().as_secs_f64();
        if args.trace {
            let (mut u, ur) = workloads::rep(args.kind, seed, &mut untraced_tr, budget);
            check_repeat(&mut u, ur, &mut base, args.kind);
            timed += u.timed_s;
            untraced.push(u);
            last_rep_span = tr.spans().len();
        }
        let (mut rep, r) = workloads::rep(args.kind, seed, &mut tr, budget);
        check_repeat(&mut rep, r, &mut base, args.kind);
        timed += rep.timed_s;
        reps.push(rep);
        // Later repetitions inherit the allocator state of earlier ones,
        // so memory is read once, after the first.
        peak_rss.get_or_insert_with(peak_rss_mib);
        let min_reps = if args.trace { MIN_REPS - 1 } else { MIN_REPS };
        let done = timed >= args.seconds && reps.len() >= min_reps;
        let now = started.elapsed().as_secs_f64();
        if done || now + 1.5 * (now - rep_start) > WALL_CAP_S {
            break;
        }
    }

    let all = || reps.iter().chain(&untraced);
    let attempted: u64 = all().map(|r| r.units).sum();
    let failed: u64 = all().map(|r| r.failed).sum();
    let errors: Vec<&String> = all().flat_map(|r| &r.errors).collect();
    for e in &errors {
        eprintln!("perfbench: FAILED {e}");
    }

    let ops_per_s = best_pace_rate(&reps);
    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    if args.trace {
        let base_rate = best_pace_rate(&untraced);
        per_layer(&mut metrics, seed, &tr, &reps, base_rate, ops_per_s);
        let path = std::path::PathBuf::from(format!(
            ".bench_build/perfbench/trace-{}-seed{}.jsonl",
            args.name, args.seed
        ));
        match tr.write_jsonl(&path, last_rep_span) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    } else {
        let ok: Vec<&Rep> = reps.iter().filter(|r| r.failed == 0).collect();
        let sims = if ok.is_empty() {
            reps.iter().collect()
        } else {
            ok
        };
        let sim_med = |f: &dyn Fn(&workloads::Sim) -> f64| {
            median(&sims.iter().map(|r| f(&r.sim)).collect::<Vec<_>>())
        };
        metrics.insert("ops_per_s", ops_per_s);
        // The first MIN_REPS set-ups, whatever the host speed: later ones
        // run on a warmer allocator.
        let setups: Vec<f64> = reps.iter().take(MIN_REPS).map(|r| r.setup_s).collect();
        metrics.insert("setup_s", median(&setups));
        metrics.insert(
            "sim_cycles_per_op",
            sim_med(&|s| s.app_cycles as f64 / s.units.max(1) as f64),
        );
        metrics.insert(
            "sim_gc_cycles_per_op",
            sim_med(&|s| s.gc_cycles as f64 / s.units.max(1) as f64),
        );
        metrics.insert("sim_op_p50_cycles", sim_med(&|s| s.p50 as f64));
        metrics.insert("sim_op_p99_cycles", sim_med(&|s| s.p99 as f64));
        metrics.insert("frag_ratio", sim_med(&|s| s.frag));
        metrics.insert("peak_rss_mib", peak_rss.unwrap_or(0.0));
    }

    let list = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {} seed {} trace {}: {} repetitions, {:.2} s timed, {:.2} s wall",
        args.name,
        args.seed,
        args.trace as u8,
        reps.len(),
        timed,
        started.elapsed().as_secs_f64()
    );
    for (i, r) in reps.iter().enumerate() {
        println!(
            "  repetition {i}: set-up {:.4} s, timed {:.4} s, {:.1} units/s, {} failed",
            r.setup_s,
            r.timed_s,
            rate(r),
            r.failed
        );
    }
    for (name, unit) in list {
        println!(
            "  {name:<40} {:>16.4} {unit}",
            metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    let share = failed as f64 / attempted.max(1) as f64;
    println!("  {:<40} {share:>16.4} ratio", "failed_share");

    let correct = errors.is_empty() && failed == 0;
    let body: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn rate(r: &Rep) -> f64 {
    r.units as f64 / r.timed_s
}

/// Units per host second at the run's best pace: every repetition does
/// the same work slice by slice, so one pass takes the sum over slices of
/// each slice's fastest time in the run. On a shared host a co-tenant's
/// burst slows some slices of some repetitions; a slice's minimum over
/// many repetitions drops those bursts, where a median of whole
/// repetitions keeps every burst that covered half of them.
fn best_pace_rate(reps: &[Rep]) -> f64 {
    let Some(first) = reps.first() else {
        return 0.0;
    };
    let n = first.slice_count;
    let mut best = vec![f64::INFINITY; n];
    for r in reps {
        for (i, &t) in r.slices.iter().enumerate() {
            best[i % n] = best[i % n].min(t);
        }
    }
    first.pass_units as f64 / best.iter().sum::<f64>()
}

/// The exact-repeat check: on a deterministic workload every repetition,
/// traced or not, must reproduce the first one's simulated result (and,
/// for churn_1t, the traced mirror must reproduce `run_on`'s). A
/// repetition that does not counts all its units as failed.
fn check_repeat(
    rep: &mut Rep,
    run: Option<RunResult>,
    base: &mut Option<(workloads::Sim, Option<RunResult>)>,
    kind: Kind,
) {
    let Some((sim, base_run)) = base.as_ref() else {
        *base = Some((rep.sim.clone(), run));
        return;
    };
    if !kind.deterministic() {
        return;
    }
    let mut why = Vec::new();
    if rep.sim != *sim {
        why.push(format!("simulated result {:?} vs {:?}", rep.sim, sim));
    }
    if let (Some(a), Some(b)) = (base_run, &run) {
        why.extend(driver_diff(a, b));
    }
    if !why.is_empty() {
        rep.failed = rep.units;
        rep.errors
            .push(format!("not repeated exactly: {}", why.join("; ")));
    }
}

/// The first field in which a driver-shaped result differs from the
/// reference, if any.
fn driver_diff(a: &RunResult, b: &RunResult) -> Option<String> {
    let checks = [
        ("ops", a.ops == b.ops),
        ("app_cycles", a.app_cycles == b.app_cycles),
        ("gc_driver_cycles", a.gc_driver_cycles == b.gc_driver_cycles),
        ("gc", a.gc == b.gc),
        ("samples", a.samples == b.samples),
        ("latency", a.latency == b.latency),
        ("avg_frag", a.avg_frag.to_bits() == b.avg_frag.to_bits()),
    ];
    checks
        .iter()
        .find(|(_, same)| !same)
        .map(|(what, _)| what.to_string())
}

/// Fills the per-layer metrics of a traced run.
fn per_layer(
    m: &mut BTreeMap<&'static str, f64>,
    seed: u64,
    tr: &Tracer,
    reps: &[Rep],
    untraced_ops_per_s: f64,
    traced_ops_per_s: f64,
) {
    let us = |name: &str, p: f64| quantile(&tr.durations(name), p) as f64 / 1e3;
    let ms_med = |name: &str| quantile(&tr.durations(name), 0.5) as f64 / 1e6;
    let mean_us = |name: &str| mean(&tr.durations(name)) / 1e3;
    m.insert("workloads.insert_us_p50", us("workloads.insert", 0.5));
    m.insert("workloads.insert_us_p99", us("workloads.insert", 0.99));
    m.insert("workloads.delete_us_p50", us("workloads.delete", 0.5));
    m.insert("workloads.delete_us_p99", us("workloads.delete", 0.99));
    m.insert("workloads.keypick_us", mean_us("workloads.keypick"));
    m.insert("workloads.sample_us", mean_us("workloads.sample"));
    m.insert("workloads.lookup_us_p50", us("workloads.contains", 0.5));
    m.insert("workloads.lookup_us_p99", us("workloads.contains", 0.99));
    m.insert("workloads.validate_ms", ms_med("workloads.validate"));
    m.insert("core.pump_us_p50", us("core.step_compaction", 0.5));
    m.insert("core.pump_us_p99", us("core.step_compaction", 0.99));
    m.insert("core.recover_ms_p50", ms_med("core.recover"));
    m.insert("core.from_pool_ms", ms_med("core.from_pool"));
    m.insert("core.validate_heap_ms", ms_med("core.validate_heap"));
    m.insert("pmem.crash_image_ms", ms_med("pmem.crash_image"));
    m.insert("pmem.restart_ms", ms_med("pmem.restart"));
    m.insert("pmop.open_ms", ms_med("pmop.open"));
    let picked = |ids: &dyn Fn(&Rep) -> &[u32]| -> Vec<u64> {
        reps.iter()
            .flat_map(|r| ids(r).iter().filter_map(|&i| tr.get(i)).map(|s| s.dur()))
            .collect()
    };
    m.insert(
        "core.stw_ms",
        quantile(&picked(&|r| &r.stw_spans), 0.5) as f64 / 1e6,
    );
    m.insert(
        "core.terminate_ms",
        quantile(&picked(&|r| &r.terminate_spans), 0.5) as f64 / 1e6,
    );
    if let Some(last) = reps.last() {
        for (k, v) in &last.counts {
            m.insert(k, *v);
        }
    }

    let windows: Vec<f64> = reps
        .iter()
        .flat_map(|r| &r.windows)
        .map(|&w| tr.coverage(w))
        .collect();
    m.insert("trace.coverage", median(&windows));
    let selft = tr.self_time_by_layer();
    let total: u64 = selft.values().sum();
    println!("self time by layer (all traced spans):");
    for (layer, ns) in &selft {
        let share = *ns as f64 / total.max(1) as f64;
        println!(
            "  {layer:<12} {:>12.3} ms {:>8.2} %",
            *ns as f64 / 1e6,
            share * 100.0
        );
        let key = match *layer {
            "bench" => "trace.self_bench_share",
            "workloads" => "trace.self_workloads_share",
            "core" => "trace.self_core_share",
            "pmop" => "trace.self_pmop_share",
            "pmem" => "trace.self_pmem_share",
            _ => continue,
        };
        m.insert(key, share);
    }

    m.insert(
        "trace.overhead",
        1.0 - traced_ops_per_s / untraced_ops_per_s,
    );

    let b1 = calib::raw_engine(1, seed);
    let b8 = calib::raw_engine(8, seed);
    let [alloc, free] = calib::heap_alloc_free(seed);
    for (k, v) in [
        ("pmem.raw_write_ns_b1", b1[0]),
        ("pmem.raw_read_ns_b1", b1[1]),
        ("pmem.raw_persist_ns_b1", b1[2]),
        ("pmem.raw_write_ns_b8", b8[0]),
        ("pmem.raw_read_ns_b8", b8[1]),
        ("pmem.raw_persist_ns_b8", b8[2]),
        ("core.alloc_ns", alloc),
        ("core.free_ns", free),
    ] {
        m.insert(k, v);
    }
    // Host ns per unit of the untraced driver over ns per raw access.
    let raw = (b1[0] + b1[1]) / 2.0;
    m.insert("pmem.driver_to_raw_ratio", 1e9 / untraced_ops_per_s / raw);
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
