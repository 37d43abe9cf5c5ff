//! The four benchmark workloads. Each repetition builds its own state
//! (the timed set-up), runs the timed phase, then checks the result with
//! the correctness oracle. Every workload has an untraced path (the one
//! the end-to-end metrics come from) and a traced path whose spans wrap
//! each call the benchmark makes into a layer's public functions.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ffccd::{recover, validate_heap, DefragConfig, DefragHeap, GcStatsSnapshot, Scheme};
use ffccd_bench::driver_config;
use ffccd_pmem::{CrashImage, Ctx, EngineStats, ThreadStats};
use ffccd_pmop::{PmPool, PmPtr, FRAME_BYTES, OBJ_HEADER_BYTES};
use ffccd_workloads::driver::{
    mt_registry, run_mt_on, run_on, DriverConfig, OpHook, PhaseMix, RunResult, Sample,
};
use ffccd_workloads::util::KeyGen;
use ffccd_workloads::{LinkedList, Pmemkv, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::trace::{mean, quantile, Tracer};

/// The scheme every workload runs (the paper's full design).
const SCHEME: Scheme = Scheme::FfccdCheckLookup;
/// Value bytes per entry; entries carry a 16-byte next/key prefix.
const VALUE_BYTES: usize = 128;

/// churn: the §6 mix at 1/250 of the paper's size (20 000 inserts, then
/// delete/insert/delete phases of 16 000 ops) — what `fig14`, `table4` and
/// `sec7_1` run at `FFCCD_SCALE=250`. The peak live set (~3 MiB of entries)
/// is about the size of the modelled cache.
const CHURN_SCALE: usize = 250;

/// lookup_1t: entries inserted, then a random half deleted, during set-up,
/// and their value bytes. The ~12 MiB live set is four times the
/// modelled cache and twice the L2-TLB reach; larger values keep the
/// 256-way list's chains (and so set-up and lookup cost) short.
const LOOKUP_BUILD: usize = 44_000;
const LOOKUP_VALUE_BYTES: usize = 512;
/// lookup_1t: timed operations per repetition.
const LOOKUP_OPS: usize = 60_000;
/// lookup_1t: percent of ops that are lookups; the rest split evenly
/// between inserts and deletes.
const LOOKUP_READ_PCT: u64 = 90;
/// lookup_1t: percent of lookups that ask for a live key.
const LOOKUP_HIT_PCT: u64 = 75;
/// lookup_1t: the collector is pumped every this many ops (relocating one
/// object while a cycle is armed) — slow enough that most lookups run
/// against an armed cycle. Divides 32, so the trigger cadence is kept.
const LOOKUP_PUMP_EVERY: u64 = 4;

/// crash_recover: images captured per set-up, at op boundaries inside
/// armed cycles, at least this many ops apart.
const CRASH_IMAGES: usize = 8;
const CRASH_SPACING: u64 = 2_000;
/// churn_1t and lookup_1t: ops per timed slice.
const SLICE_OPS: u64 = 1_000;
/// crash_recover: pool data bytes (each image is a full media copy).
const CRASH_POOL_BYTES: u64 = 16 << 20;

/// churn_2t: threads, heap shards and engine banks.
const MT_THREADS: usize = 2;
const MT_SHARDS: usize = 2;
const MT_BANKS: usize = 8;

/// Simulated outcome of one repetition. Single-thread workloads must
/// reproduce it bit for bit in every repetition and in the traced run.
#[derive(Clone, Debug, PartialEq)]
pub struct Sim {
    pub units: u64,
    pub app_cycles: u64,
    pub gc_cycles: u64,
    pub p50: u64,
    pub p99: u64,
    pub frag: f64,
}

/// One repetition: host times, unit counts, the simulated outcome and the
/// per-layer counters the traced run reports.
pub struct Rep {
    pub setup_s: f64,
    pub timed_s: f64,
    pub units: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub sim: Sim,
    /// Host seconds of each fixed slice of the timed phase, in order:
    /// every `SLICE_OPS` ops and then the closing `exit`, each image of
    /// each crash_recover round, or the whole phase (churn_2t). Entry `i` is slice `i % slice_count`,
    /// the same work in every repetition of a deterministic workload.
    pub slices: Vec<f64>,
    pub slice_count: usize,
    /// Units one pass over the slices completes.
    pub pass_units: u64,
    /// Simulated per-layer values (counts per unit, ratios).
    pub counts: BTreeMap<&'static str, f64>,
    /// Spans covering the timed phase, one per mutator thread (traced).
    pub windows: Vec<u32>,
    /// Spans of trigger calls that started a cycle (stop-the-world).
    pub stw_spans: Vec<u32>,
    /// Spans of pumps during which a cycle terminated.
    pub terminate_spans: Vec<u32>,
}

impl Rep {
    fn fail(&mut self, units: u64, why: String) {
        self.failed = self.failed.max(units.min(self.units));
        self.errors.push(why);
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Churn1t,
    Lookup1t,
    Churn2t,
    CrashRecover,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "churn_1t" => Some(Kind::Churn1t),
            "lookup_1t" => Some(Kind::Lookup1t),
            "churn_2t" => Some(Kind::Churn2t),
            "crash_recover" => Some(Kind::CrashRecover),
            _ => None,
        }
    }

    /// Whether simulated results are a pure function of the seed.
    pub fn deterministic(self) -> bool {
        self != Kind::Churn2t
    }
}

/// Runs one repetition of `kind` (`budget_s` bounds crash_recover's timed
/// rounds). Untraced churn_1t runs the library driver `run_on`; traced, it
/// runs the mirror of its loop. Both return the driver-shaped result.
pub fn rep(kind: Kind, seed: u64, tr: &mut Tracer, budget_s: f64) -> (Rep, Option<RunResult>) {
    match kind {
        Kind::Churn1t if !tr.on() => {
            let (rep, r) = churn_1t_driver(seed);
            (rep, Some(r))
        }
        Kind::Churn1t => {
            let (rep, r) = churn_1t_mirror(seed, tr);
            (rep, Some(r))
        }
        Kind::Lookup1t => (lookup_1t(seed, tr), None),
        Kind::Churn2t if !tr.on() => (churn_2t(seed), None),
        Kind::Churn2t => (churn_2t_mirror(seed, tr), None),
        Kind::CrashRecover => (crash_recover(seed, tr, budget_s), None),
    }
}

/// Creates and drops one churn heap, so every measured set-up finds the
/// process allocator past its first-use costs.
pub fn warm_up(seed: u64) {
    let cfg = churn_cfg(seed);
    DefragHeap::create(cfg.pool.clone(), Pmemkv::new().registry(), cfg.defrag)
        .expect("warm-up pool creation");
}

fn churn_cfg(seed: u64) -> DriverConfig {
    let mut cfg = driver_config(SCHEME, false, seed);
    cfg.mix = PhaseMix::paper_scaled(CHURN_SCALE);
    cfg
}

fn total_ops(mix: &PhaseMix) -> u64 {
    (mix.init + mix.phase_ops * mix.phases) as u64
}

fn new_rep(setup_s: f64, timed_s: f64, units: u64, sim: Sim) -> Rep {
    Rep {
        setup_s,
        timed_s,
        units,
        failed: 0,
        errors: Vec::new(),
        sim,
        slices: vec![timed_s],
        slice_count: 1,
        pass_units: units,
        counts: BTreeMap::new(),
        windows: Vec::new(),
        stw_spans: Vec::new(),
        terminate_spans: Vec::new(),
    }
}

/// Cuts the timed phase into slices of work (see `Rep::slices`).
struct Slicer {
    mark: Instant,
    slices: Vec<f64>,
}

impl Slicer {
    fn start() -> Self {
        Slicer {
            mark: Instant::now(),
            slices: Vec::new(),
        }
    }

    /// Ends the current slice and starts the next.
    fn cut(&mut self) {
        let now = Instant::now();
        self.slices.push((now - self.mark).as_secs_f64());
        self.mark = now;
    }

    /// Hands the slices of one pass (`units` units) to `rep`.
    fn into_rep(self, rep: &mut Rep, units: u64) {
        rep.slice_count = self.slices.len();
        rep.slices = self.slices;
        rep.pass_units = units;
    }
}

/// Whether op `op` (1-based) of `last` ends a slice.
fn slice_end(op: u64, last: u64) -> bool {
    op.is_multiple_of(SLICE_OPS) || op == last
}

fn sim_of(r: &RunResult) -> Sim {
    Sim {
        units: r.ops,
        app_cycles: r.app_cycles,
        gc_cycles: r.gc.total_gc_cycles(),
        p50: r.latency.0,
        p99: r.latency.2,
        frag: r.avg_frag,
    }
}

/// Post-run oracle shared by the single-heap workloads: no cycle may stay
/// armed after `exit`, the GC metadata must validate, and the structure
/// must hold exactly `expected`.
fn check_heap(
    rep: &mut Rep,
    heap: &DefragHeap,
    w: &dyn Workload,
    expected: &BTreeSet<u64>,
    tr: &mut Tracer,
) {
    let units = rep.units;
    if heap.in_cycle() {
        rep.fail(units, "a cycle is still armed after exit".into());
    }
    let v = tr.enter("core.validate_heap");
    let heap_ok = validate_heap(heap);
    tr.exit(v);
    if let Err(es) = heap_ok {
        rep.fail(units, format!("validate_heap: {}", es.join("; ")));
    }
    let mut ctx = heap.ctx();
    let v = tr.enter("workloads.validate");
    let keys_ok = w.validate(heap, &mut ctx, expected);
    tr.exit(v);
    if let Err(e) = keys_ok {
        rep.fail(units, format!("key set: {e}"));
    }
}

// ---- churn_1t ---------------------------------------------------------------

/// churn_1t through the library driver, exactly as the paper binaries run
/// it. Returns the repetition and the driver's full result.
fn churn_1t_driver(seed: u64) -> (Rep, RunResult) {
    let cfg = churn_cfg(seed);
    let mut w = Pmemkv::new();
    let t0 = Instant::now();
    let heap = DefragHeap::create(cfg.pool.clone(), w.registry(), cfg.defrag)
        .expect("churn pool creation");
    let setup_s = t0.elapsed().as_secs_f64();

    let last = total_ops(&cfg.mix);
    let mut expected = BTreeSet::new();
    let t1 = Instant::now();
    let mut slicer = Slicer::start();
    let mut keep_last = |op: u64, _: &DefragHeap, live: &BTreeSet<u64>| {
        if slice_end(op, last) {
            slicer.cut();
        }
        if op == last {
            expected = live.clone();
        }
        true
    };
    let mut hook: OpHook<'_> = Some(&mut keep_last);
    let r = run_on(&mut w, &cfg, &heap, &mut hook);
    // The last slice is `exit`: the collector's wind-down.
    slicer.cut();
    let timed_s = t1.elapsed().as_secs_f64();

    let mut rep = new_rep(setup_s, timed_s, r.ops, sim_of(&r));
    slicer.into_rep(&mut rep, r.ops);
    check_heap(&mut rep, &heap, &w, &expected, &mut Tracer::new(false));
    (rep, r)
}

/// A mirror of `run_on`'s loop that makes the same public calls in the
/// same order, with a span around each. It must reproduce `run_on`'s
/// simulated result exactly (checked against a reference repetition).
fn churn_1t_mirror(seed: u64, tr: &mut Tracer) -> (Rep, RunResult) {
    let cfg = churn_cfg(seed);
    let mut w = Pmemkv::new();
    let t0 = Instant::now();
    let heap = DefragHeap::create(cfg.pool.clone(), w.registry(), cfg.defrag)
        .expect("churn pool creation");
    let setup_s = t0.elapsed().as_secs_f64();

    let last = total_ops(&cfg.mix);
    let t1 = Instant::now();
    let mut slicer = Slicer::start();
    let window = tr.enter("bench.timed");
    let mutator = heap.register_mutator();
    let mut app = heap.ctx();
    let mut gc = heap.ctx();
    let mut keys = KeyGen::new(cfg.seed);
    let mut live: BTreeSet<u64> = BTreeSet::new();
    let mut samples = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut op = 0u64;
    let mut pump = PumpStats::default();
    let s = tr.enter("workloads.setup");
    w.setup(&heap, &mut app);
    tr.exit(s);

    let mut phases = vec![(true, cfg.mix.init)];
    for p in 0..cfg.mix.phases {
        phases.push((p % 2 == 1, cfg.mix.phase_ops));
    }
    for (insert, n) in phases {
        for _ in 0..n {
            if !insert && live.is_empty() {
                break;
            }
            let c0 = app.cycles();
            if insert {
                let k = keys.fresh();
                let vs = keys.value_size(cfg.value_size.0, cfg.value_size.1);
                let s = tr.enter("workloads.insert");
                w.insert(&heap, &mut app, k, vs);
                tr.exit(s);
                live.insert(k);
            } else {
                let s = tr.enter("workloads.keypick");
                let picked = keys.pick(&live);
                tr.exit(s);
                if let Some(k) = picked {
                    let s = tr.enter("workloads.delete");
                    w.delete(&heap, &mut app, k);
                    tr.exit(s);
                    live.remove(&k);
                }
            }
            latencies.push(app.cycles() - c0);
            op += 1;
            pump.step(&heap, &mut gc, op, cfg.gc_batch, tr);
            if op.is_multiple_of(cfg.sample_every as u64) {
                samples.push(sample(&heap, op, tr));
            }
            if slice_end(op, last) {
                slicer.cut();
            }
        }
    }
    let s = tr.enter("core.exit");
    heap.exit(&mut gc);
    heap.flush_stats(&mut app);
    tr.exit(s);
    drop(mutator);
    tr.exit(window);
    slicer.cut();
    let timed_s = t1.elapsed().as_secs_f64();

    let n = samples.len() as f64;
    let avg_footprint = samples.iter().map(|s| s.footprint as f64).sum::<f64>() / n;
    let avg_live = samples.iter().map(|s| s.live as f64).sum::<f64>() / n;
    let r = RunResult {
        workload: w.name().to_owned(),
        scheme: heap.scheme(),
        ops: op,
        avg_footprint,
        avg_live,
        avg_frag: avg_footprint / avg_live,
        app_cycles: app.cycles(),
        gc_driver_cycles: gc.cycles(),
        gc: heap.gc_stats(),
        latency: driver_latency(&mut latencies),
        samples,
    };
    let mut rep = new_rep(setup_s, timed_s, r.ops, sim_of(&r));
    slicer.into_rep(&mut rep, r.ops);
    rep.windows = vec![window];
    layer_counts(
        &mut rep,
        &heap,
        &[&app.stats, &gc.stats],
        &r.gc,
        &EngineStats::default(),
        &pump,
        VALUE_BYTES,
    );
    rep.counts.insert(
        "pmop.footprint_mib_mean",
        r.avg_footprint / (1u64 << 20) as f64,
    );
    check_heap(&mut rep, &heap, &w, &live, tr);
    (rep, r)
}

/// `run_on`'s latency tuple: (p50, p90, p99, max) by truncating rank.
fn driver_latency(lat: &mut [u64]) -> (u64, u64, u64, u64) {
    lat.sort_unstable();
    let pct = |p: f64| {
        if lat.is_empty() {
            0
        } else {
            lat[((lat.len() - 1) as f64 * p) as usize]
        }
    };
    (pct(0.5), pct(0.9), pct(0.99), pct(1.0))
}

fn sample(heap: &DefragHeap, op: u64, tr: &mut Tracer) -> Sample {
    let s = tr.enter("workloads.sample");
    let st = heap.pool().stats();
    tr.exit(s);
    Sample {
        op,
        footprint: st.footprint_bytes,
        live: st.live_bytes,
    }
}

/// The driver's collector pump (between application ops), with the
/// counts the traced run reports about it.
#[derive(Default)]
struct PumpStats {
    ops: u64,
    in_cycle_ops: u64,
    triggers_tried: u64,
    triggers_hit: u64,
    stw: Vec<u32>,
    terminations: Vec<u32>,
}

impl PumpStats {
    fn merge(&mut self, o: &PumpStats) {
        self.ops += o.ops;
        self.in_cycle_ops += o.in_cycle_ops;
        self.triggers_tried += o.triggers_tried;
        self.triggers_hit += o.triggers_hit;
        self.stw.extend(&o.stw);
        self.terminations.extend(&o.terminations);
    }

    /// Shifts span ids recorded on a thread's tracer by `base`, the offset
    /// its spans got when absorbed into the run's tracer.
    fn rebase(&mut self, base: u32) {
        for id in self.stw.iter_mut().chain(self.terminations.iter_mut()) {
            *id += base;
        }
    }

    /// `run_on`'s pump: relocate `batch` objects while a cycle is armed,
    /// otherwise try the trigger every 32 ops.
    fn step(&mut self, heap: &DefragHeap, gc: &mut Ctx, op: u64, batch: usize, tr: &mut Tracer) {
        self.ops += 1;
        if heap.in_cycle() {
            self.in_cycle_ops += 1;
            let before = tr.on().then(|| heap.gc_stats().cycles_completed);
            let s = tr.enter("core.step_compaction");
            heap.step_compaction(gc, batch);
            tr.exit(s);
            if before.is_some_and(|b| heap.gc_stats().cycles_completed > b) {
                self.terminations.push(s);
            }
        } else if op.is_multiple_of(32) {
            let s = tr.enter("core.maybe_defrag");
            let started = heap.maybe_defrag(gc);
            tr.exit(s);
            self.triggers_tried += 1;
            if started {
                self.triggers_hit += 1;
                self.stw.push(s);
            }
        }
    }
}

/// Simulated per-layer counts of one repetition, per unit of work.
fn layer_counts(
    rep: &mut Rep,
    heap: &DefragHeap,
    ctxs: &[&ThreadStats],
    gc: &GcStatsSnapshot,
    engine0: &EngineStats,
    pump: &PumpStats,
    value_bytes: usize,
) {
    let mut t = ThreadStats::default();
    for c in ctxs {
        t.merge(c);
    }
    let e1 = heap.engine().stats();
    let e = EngineStats {
        media_line_writes: e1.media_line_writes - engine0.media_line_writes,
        evictions: e1.evictions - engine0.evictions,
        pending_lines_queued: e1.pending_lines_queued - engine0.pending_lines_queued,
        pending_lines_persisted: e1.pending_lines_persisted - engine0.pending_lines_persisted,
    };
    let n = rep.units.max(1) as f64;
    let per = |x: u64| x as f64 / n;
    let cycles = gc.cycles_completed.max(1) as f64;
    let copied = gc.objects_relocated * (OBJ_HEADER_BYTES + 16 + value_bytes as u64);
    let c = &mut rep.counts;
    c.insert("core.mark_cycles_per_op", per(gc.mark_cycles));
    c.insert("core.sweep_cycles_per_op", per(gc.sweep_cycles));
    c.insert("core.summary_cycles_per_op", per(gc.summary_cycles));
    c.insert("core.copy_cycles_per_op", per(gc.copy_cycles));
    c.insert(
        "core.check_lookup_cycles_per_op",
        per(gc.check_lookup_cycles),
    );
    c.insert("core.state_cycles_per_op", per(gc.state_cycles));
    c.insert("core.ref_fixup_cycles_per_op", per(gc.ref_fixup_cycles));
    c.insert("core.gc_cycles_completed", gc.cycles_completed as f64);
    c.insert(
        "core.objects_relocated_per_cycle",
        gc.objects_relocated as f64 / cycles,
    );
    c.insert(
        "core.reclaimed_per_copied_byte",
        (gc.frames_released * FRAME_BYTES) as f64 / copied.max(1) as f64,
    );
    c.insert("core.barriers_per_op", per(gc.barrier_invocations));
    c.insert(
        "core.in_cycle_op_share",
        pump.in_cycle_ops as f64 / pump.ops.max(1) as f64,
    );
    c.insert(
        "core.trigger_hit_share",
        pump.triggers_hit as f64 / pump.triggers_tried.max(1) as f64,
    );
    c.insert("arch.relocates_per_op", per(t.relocates));
    c.insert("arch.checklookups_per_op", per(t.checklookups));
    c.insert("arch.fastpath_hits_per_op", per(t.barrier_fastpath_hits));
    c.insert(
        "arch.pending_lines_persisted_per_op",
        per(e.pending_lines_persisted),
    );
    c.insert("pmem.loads_per_op", per(t.loads));
    c.insert("pmem.stores_per_op", per(t.stores));
    c.insert("pmem.clwbs_per_op", per(t.clwbs));
    c.insert("pmem.sfences_per_op", per(t.sfences));
    c.insert("pmem.media_line_writes_per_op", per(e.media_line_writes));
    c.insert("pmem.evictions_per_op", per(e.evictions));
    c.insert("pmem.tlb_misses_per_op", per(t.tlb_misses));
    c.insert(
        "pmem.cache_hit_ratio",
        t.cache_hits as f64 / (t.cache_hits + t.cache_misses).max(1) as f64,
    );
    c.insert(
        "pmem.shared_read_share",
        t.shared_line_reads as f64 / t.cache_hits.max(1) as f64,
    );
    c.insert(
        "pmop.committed_pages_end",
        heap.pool().stats().committed_pages as f64,
    );
    rep.stw_spans = pump.stw.clone();
    rep.terminate_spans = pump.terminations.clone();
}

// ---- lookup_1t --------------------------------------------------------------

fn lookup_defrag() -> DefragConfig {
    DefragConfig {
        min_live_bytes: 1 << 14,
        // One cycle may evacuate the whole heap, and the trigger re-arms
        // quickly: a read-mostly phase makes few allocator ops.
        max_pages_per_cycle: 1 << 16,
        cooldown_ops: 64,
        ..DefragConfig::normal(SCHEME)
    }
}

/// A live-key set with O(1) uniform picks (a `BTreeSet` pick walks the
/// set, which would swamp a read-mostly loop).
struct KeyPool {
    keys: Vec<u64>,
}

impl KeyPool {
    fn pick(&self, rng: &mut SmallRng) -> Option<(usize, u64)> {
        (!self.keys.is_empty()).then(|| {
            let i = rng.gen_range(0..self.keys.len());
            (i, self.keys[i])
        })
    }
}

fn lookup_1t(seed: u64, tr: &mut Tracer) -> Rep {
    let cfg = churn_cfg(seed);
    let mut w = LinkedList::new();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x100C_0F17);

    // Set-up: build, then delete a random half, with the collector idle, so
    // the timed phase starts on a heap at fragR ≈ 2.
    let t0 = Instant::now();
    let heap = DefragHeap::create(cfg.pool.clone(), w.registry(), lookup_defrag())
        .expect("lookup pool creation");
    let mut app = heap.ctx();
    w.setup(&heap, &mut app);
    let mut keys = KeyGen::new(cfg.seed);
    let mut live = KeyPool { keys: Vec::new() };
    let mut absent = KeyPool { keys: Vec::new() };
    for _ in 0..LOOKUP_BUILD {
        let k = keys.fresh();
        w.insert(&heap, &mut app, k, LOOKUP_VALUE_BYTES);
        if rng.gen_range(0..2u32) == 0 {
            absent.keys.push(k);
        } else {
            live.keys.push(k);
        }
    }
    for &k in &absent.keys {
        assert!(w.delete(&heap, &mut app, k), "set-up deletes a live key");
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut slicer = Slicer::start();
    let window = tr.enter("bench.timed");
    let mutator = heap.register_mutator();
    let mut app = heap.ctx();
    let mut gc = heap.ctx();
    let gc0 = heap.gc_stats();
    let e0 = heap.engine().stats();
    let mut pump = PumpStats::default();
    let mut latencies = Vec::with_capacity(LOOKUP_OPS);
    let mut samples = Vec::new();
    let mut wrong = 0u64;
    let mut first_wrong = None;
    let mut in_cycle_ops = 0u64;
    for i in 1..=LOOKUP_OPS as u64 {
        in_cycle_ops += heap.in_cycle() as u64;
        let c0 = app.cycles();
        let r = rng.gen_range(0..100u64);
        if r < LOOKUP_READ_PCT {
            let hit = rng.gen_range(0..100u64) < LOOKUP_HIT_PCT;
            let from = if hit { &live } else { &absent };
            if let Some((_, k)) = from.pick(&mut rng) {
                let s = tr.enter("workloads.contains");
                let got = w.contains(&heap, &mut app, k);
                tr.exit(s);
                if got != hit {
                    wrong += 1;
                    first_wrong.get_or_insert(k);
                }
            }
        } else if r < LOOKUP_READ_PCT + (100 - LOOKUP_READ_PCT) / 2 {
            let k = keys.fresh();
            let s = tr.enter("workloads.insert");
            w.insert(&heap, &mut app, k, LOOKUP_VALUE_BYTES);
            tr.exit(s);
            live.keys.push(k);
        } else if let Some((idx, k)) = live.pick(&mut rng) {
            let s = tr.enter("workloads.delete");
            let found = w.delete(&heap, &mut app, k);
            tr.exit(s);
            if !found {
                wrong += 1;
                first_wrong.get_or_insert(k);
            }
            live.keys.swap_remove(idx);
            absent.keys.push(k);
        }
        latencies.push(app.cycles() - c0);
        if i.is_multiple_of(LOOKUP_PUMP_EVERY) {
            pump.step(&heap, &mut gc, i, 1, tr);
        }
        if i.is_multiple_of(cfg.sample_every as u64) {
            samples.push(sample(&heap, i, tr));
        }
        if slice_end(i, LOOKUP_OPS as u64) {
            slicer.cut();
        }
    }
    let s = tr.enter("core.exit");
    heap.exit(&mut gc);
    heap.flush_stats(&mut app);
    tr.exit(s);
    drop(mutator);
    tr.exit(window);
    slicer.cut();
    let timed_s = t1.elapsed().as_secs_f64();

    let gc1 = heap.gc_stats();
    let gc_delta = gc_diff(&gc1, &gc0);
    let fp = mean(&samples.iter().map(|s| s.footprint).collect::<Vec<_>>());
    let lv = mean(&samples.iter().map(|s| s.live).collect::<Vec<_>>());
    let sim = Sim {
        units: LOOKUP_OPS as u64,
        app_cycles: app.cycles(),
        gc_cycles: gc_delta.total_gc_cycles(),
        p50: quantile(&latencies, 0.5),
        p99: quantile(&latencies, 0.99),
        frag: if lv > 0.0 { fp / lv } else { 1.0 },
    };
    let mut rep = new_rep(setup_s, timed_s, LOOKUP_OPS as u64, sim);
    slicer.into_rep(&mut rep, LOOKUP_OPS as u64);
    rep.windows = vec![window];
    layer_counts(
        &mut rep,
        &heap,
        &[&app.stats, &gc.stats],
        &gc_delta,
        &e0,
        &pump,
        LOOKUP_VALUE_BYTES,
    );
    rep.counts.insert(
        "core.in_cycle_op_share",
        in_cycle_ops as f64 / LOOKUP_OPS as f64,
    );
    rep.counts
        .insert("pmop.footprint_mib_mean", fp / (1u64 << 20) as f64);
    if wrong > 0 {
        rep.fail(
            wrong,
            format!(
                "{wrong} lookup/delete answers disagree with the expected set (first key {:#x})",
                first_wrong.unwrap_or(0)
            ),
        );
    }
    let expected: BTreeSet<u64> = live.keys.iter().copied().collect();
    check_heap(&mut rep, &heap, &w, &expected, tr);
    rep
}

fn gc_diff(a: &GcStatsSnapshot, b: &GcStatsSnapshot) -> GcStatsSnapshot {
    GcStatsSnapshot {
        mark_cycles: a.mark_cycles - b.mark_cycles,
        summary_cycles: a.summary_cycles - b.summary_cycles,
        copy_cycles: a.copy_cycles - b.copy_cycles,
        check_lookup_cycles: a.check_lookup_cycles - b.check_lookup_cycles,
        state_cycles: a.state_cycles - b.state_cycles,
        ref_fixup_cycles: a.ref_fixup_cycles - b.ref_fixup_cycles,
        sweep_cycles: a.sweep_cycles - b.sweep_cycles,
        recovery_cycles: a.recovery_cycles - b.recovery_cycles,
        barrier_invocations: a.barrier_invocations - b.barrier_invocations,
        objects_relocated: a.objects_relocated - b.objects_relocated,
        cycles_completed: a.cycles_completed - b.cycles_completed,
        frames_released: a.frames_released - b.frames_released,
        objects_swept: a.objects_swept - b.objects_swept,
    }
}

// ---- churn_2t ---------------------------------------------------------------

/// churn_1t's mix through the multi-threaded driver: free-running mutators
/// over a sharded heap and a banked engine. Not deterministic; its
/// correctness comes from `run_mt`'s own per-shard checker (a panic there
/// is caught and counted) plus the shared post-run oracle.
fn churn_2t(seed: u64) -> Rep {
    let mut cfg = churn_cfg(seed);
    cfg.defrag.shards = MT_SHARDS;
    cfg.pool.machine.banks = MT_BANKS;
    let make = || Box::new(Pmemkv::new()) as Box<dyn Workload>;
    let t0 = Instant::now();
    let (reg, _) = mt_registry(Pmemkv::new().registry(), MT_THREADS);
    let heap =
        DefragHeap::create(cfg.pool.clone(), reg, cfg.defrag).expect("churn_2t pool creation");
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        run_mt_on(&make, MT_THREADS, &cfg, &heap, None)
    }));
    let timed_s = t1.elapsed().as_secs_f64();
    let attempted = total_ops(&cfg.mix);
    let (sim, panicked) = match &out {
        Ok(r) => (sim_of(r), None),
        Err(p) => (NO_SIM, Some(panic_message(p.as_ref()))),
    };
    let mut rep = new_rep(setup_s, timed_s, attempted, sim);
    if let Some(msg) = panicked {
        rep.fail(attempted, format!("run_mt checker: {msg}"));
    }
    if let Ok(r) = &out {
        rep.counts.insert(
            "core.barriers_per_op",
            r.gc.barrier_invocations as f64 / r.ops.max(1) as f64,
        );
    }
    if heap.in_cycle() {
        rep.fail(attempted, "a cycle is still armed after exit".into());
    }
    if let Err(es) = validate_heap(&heap) {
        let first: Vec<_> = es.iter().take(3).cloned().collect();
        rep.fail(attempted, format!("validate_heap: {}", first.join("; ")));
    }
    rep
}

const NO_SIM: Sim = Sim {
    units: 0,
    app_cycles: 0,
    gc_cycles: 0,
    p50: 0,
    p99: 0,
    frag: 0.0,
};

/// What one churn_2t mirror thread hands back.
struct MtThread {
    live: BTreeSet<u64>,
    stats: [ThreadStats; 2],
    cycles: u64,
    latencies: Vec<u64>,
    samples: Vec<Sample>,
    pump: PumpStats,
    tracer: Tracer,
}

/// churn_2t traced: a mirror of `run_mt`'s free-running loop — the same
/// root directory, per-thread arenas and root shards, the same op shape,
/// key streams and collector pump, each call in a span on the thread's
/// own tracer. Each thread's live set must then validate in its shard.
fn churn_2t_mirror(seed: u64, tr: &mut Tracer) -> Rep {
    let mut cfg = churn_cfg(seed);
    cfg.defrag.shards = MT_SHARDS;
    cfg.pool.machine.banks = MT_BANKS;
    let t0 = Instant::now();
    let (reg, dir_type) = mt_registry(Pmemkv::new().registry(), MT_THREADS);
    let heap =
        DefragHeap::create(cfg.pool.clone(), reg, cfg.defrag).expect("churn_2t pool creation");
    let mut ctx = heap.ctx();
    let dir = heap
        .alloc(&mut ctx, dir_type, MT_THREADS as u64 * 8)
        .expect("mt root directory");
    for i in 0..MT_THREADS as u64 {
        heap.store_ref(&mut ctx, dir, i * 8, PmPtr::NULL);
    }
    heap.set_root(&mut ctx, dir);
    let mut threads = Vec::new();
    for tid in 0..MT_THREADS {
        let mut w = Pmemkv::new();
        let mut app = heap.ctx();
        app.set_arena(tid as u32);
        app.set_root_shard(Some(tid as u64));
        w.setup(&heap, &mut app);
        threads.push((w, app));
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let mix = cfg.mix;
    let total = total_ops(&mix) as usize;
    let per_thread = total / MT_THREADS;
    let stride = (cfg.sample_every * MT_THREADS) as u64;
    let global_op = AtomicU64::new(0);
    let t1 = Instant::now();
    let window = tr.enter("bench.timed");
    let joined: Vec<std::thread::Result<MtThread>> = std::thread::scope(|scope| {
        let handles: Vec<_> = threads
            .into_iter()
            .enumerate()
            .map(|(tid, (mut w, mut app))| {
                let (heap, cfg, global_op) = (&heap, &cfg, &global_op);
                let mut ttr = tr.child();
                scope.spawn(move || {
                    let mutator = heap.register_mutator();
                    let mut gc = heap.ctx();
                    let mut keys =
                        KeyGen::new(cfg.seed ^ (tid as u64 + 1).wrapping_mul(0x9E37_79B9));
                    let mut live = BTreeSet::new();
                    let mut latencies = Vec::with_capacity(per_thread);
                    let mut samples = Vec::new();
                    let mut pump = PumpStats::default();
                    let mine = ttr.enter("bench.thread");
                    for op in 0..per_thread {
                        let g = global_op.fetch_add(1, Ordering::AcqRel);
                        if g.is_multiple_of(stride) {
                            samples.push(sample(heap, g, &mut ttr));
                        }
                        let scaled = op * total / per_thread;
                        let insert = scaled < mix.init
                            || ((scaled - mix.init) / mix.phase_ops) % 2 == 1
                            || live.is_empty();
                        let c0 = app.cycles();
                        heap.critical(|| {
                            if insert {
                                let k = keys.fresh();
                                let vs = keys.value_size(cfg.value_size.0, cfg.value_size.1);
                                let s = ttr.enter("workloads.insert");
                                w.insert(heap, &mut app, k, vs);
                                ttr.exit(s);
                                live.insert(k);
                            } else {
                                let s = ttr.enter("workloads.keypick");
                                let k = keys.pick(&live).expect("live is not empty");
                                ttr.exit(s);
                                let s = ttr.enter("workloads.delete");
                                w.delete(heap, &mut app, k);
                                ttr.exit(s);
                                live.remove(&k);
                            }
                        });
                        latencies.push(app.cycles() - c0);
                        // On a sharded heap every thread may trigger.
                        pump.step(heap, &mut gc, op as u64 + 1, cfg.gc_batch, &mut ttr);
                    }
                    heap.flush_stats(&mut app);
                    heap.flush_stats(&mut gc);
                    drop(mutator);
                    ttr.exit(mine);
                    MtThread {
                        live,
                        stats: [app.stats, gc.stats],
                        cycles: app.cycles(),
                        latencies,
                        samples,
                        pump,
                        tracer: ttr,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut wind_down = heap.ctx();
    heap.exit(&mut wind_down);
    tr.exit(window);
    let timed_s = t1.elapsed().as_secs_f64();

    let mut rep = new_rep(setup_s, timed_s, total as u64, NO_SIM);
    let mut outs = Vec::new();
    for (tid, j) in joined.into_iter().enumerate() {
        match j {
            Ok(mut t) => {
                let base = tr.absorb(&t.tracer, window);
                rep.windows.push(base);
                t.pump.rebase(base);
                outs.push(t);
            }
            Err(p) => rep.fail(
                total as u64,
                format!("thread {tid}: {}", panic_message(p.as_ref())),
            ),
        }
    }
    for (tid, t) in outs.iter().enumerate() {
        let mut ctx = heap.ctx();
        ctx.set_root_shard(Some(tid as u64));
        let mut w = Pmemkv::new();
        w.reopen(&heap, &mut ctx);
        if let Err(e) = w.validate(&heap, &mut ctx, &t.live) {
            rep.fail(total as u64, format!("thread {tid}: key set: {e}"));
        }
    }
    if heap.in_cycle() {
        rep.fail(total as u64, "a cycle is still armed after exit".into());
    }
    if let Err(es) = validate_heap(&heap) {
        let first: Vec<_> = es.iter().take(3).cloned().collect();
        rep.fail(total as u64, format!("validate_heap: {}", first.join("; ")));
    }
    if let Err(p) = catch_unwind(AssertUnwindSafe(|| heap.pool().assert_shard_ownership())) {
        rep.fail(
            total as u64,
            format!("shard ownership: {}", panic_message(p.as_ref())),
        );
    }

    let latencies: Vec<u64> = outs
        .iter()
        .flat_map(|t| t.latencies.iter().copied())
        .collect();
    let mut samples: Vec<Sample> = outs
        .iter()
        .flat_map(|t| t.samples.iter().copied())
        .collect();
    samples.sort_unstable_by_key(|s| s.op);
    let fp = mean(&samples.iter().map(|s| s.footprint).collect::<Vec<_>>());
    let lv = mean(&samples.iter().map(|s| s.live).collect::<Vec<_>>());
    let gc = heap.gc_stats();
    rep.sim = Sim {
        units: total as u64,
        app_cycles: outs.iter().map(|t| t.cycles).sum(),
        gc_cycles: gc.total_gc_cycles(),
        p50: quantile(&latencies, 0.5),
        p99: quantile(&latencies, 0.99),
        frag: if lv > 0.0 { fp / lv } else { 1.0 },
    };
    let mut pump = PumpStats::default();
    for t in &outs {
        pump.merge(&t.pump);
    }
    let stats: Vec<&ThreadStats> = outs.iter().flat_map(|t| t.stats.iter()).collect();
    layer_counts(
        &mut rep,
        &heap,
        &stats,
        &gc,
        &EngineStats::default(),
        &pump,
        VALUE_BYTES,
    );
    rep.counts
        .insert("pmop.footprint_mib_mean", fp / (1u64 << 20) as f64);
    rep
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

// ---- crash_recover ----------------------------------------------------------

/// Set-up of crash_recover: churn `Pmemkv` through `run_on` and capture
/// crash images at op boundaries while a cycle is armed, each with the
/// key set committed at that point.
fn capture_images(seed: u64, tr: &mut Tracer) -> Vec<(CrashImage, BTreeSet<u64>)> {
    let mut cfg = churn_cfg(seed);
    cfg.pool.data_bytes = CRASH_POOL_BYTES;
    let mut w = Pmemkv::new();
    let heap = DefragHeap::create(cfg.pool.clone(), w.registry(), cfg.defrag)
        .expect("crash pool creation");
    let mut images = Vec::new();
    let mut next = cfg.mix.init as u64;
    let mut hook = |op: u64, heap: &DefragHeap, live: &BTreeSet<u64>| {
        if op >= next && images.len() < CRASH_IMAGES && heap.in_cycle() {
            let s = tr.enter("pmem.crash_image");
            let img = heap.engine().crash_image();
            tr.exit(s);
            images.push((img, live.clone()));
            next = op + CRASH_SPACING;
        }
        true
    };
    let mut hook_dyn: OpHook<'_> = Some(&mut hook);
    run_on(&mut w, &cfg, &heap, &mut hook_dyn);
    images
}

/// What recovering one image produced; every round must reproduce it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Recovered {
    report: ffccd::RecoveryReport,
    gc_cycles: u64,
    frag: f64,
}

/// crash_recover: recovers and validates every captured image, in rounds,
/// until `budget_s` of timed phase is spent (at least one round). A unit
/// is one image recovered and validated.
fn crash_recover(seed: u64, tr: &mut Tracer, budget_s: f64) -> Rep {
    let t0 = Instant::now();
    let images = capture_images(seed, tr);
    let setup_s = t0.elapsed().as_secs_f64();
    let defrag = churn_cfg(seed).defrag;

    let t1 = Instant::now();
    let window = tr.enter("bench.timed");
    let mut first: Vec<Option<Recovered>> = Vec::new();
    let mut units = 0u64;
    let mut errors = Vec::new();
    let mut round = 0;
    let mut slicer = Slicer::start();
    while round == 0 || t1.elapsed().as_secs_f64() < budget_s {
        for (i, (image, expected)) in images.iter().enumerate() {
            units += 1;
            let got = recover_one(image, expected, defrag, tr);
            slicer.cut();
            if round == 0 {
                if let Err(e) = &got {
                    errors.push(format!("image {i}: {e}"));
                }
                first.push(got.ok());
            } else if got.as_ref().ok() != first[i].as_ref() {
                errors.push(format!(
                    "image {i}: round {round} differs from round 0: {got:?}"
                ));
            }
        }
        round += 1;
    }
    tr.exit(window);
    let timed_s = t1.elapsed().as_secs_f64();

    let ok: Vec<Recovered> = first.iter().flatten().copied().collect();
    let cycles: Vec<u64> = ok.iter().map(|r| r.report.cycles).collect();
    let n = ok.len().max(1) as f64;
    let sim = Sim {
        units: images.len() as u64,
        app_cycles: cycles.iter().sum(),
        gc_cycles: ok.iter().map(|r| r.gc_cycles).sum(),
        p50: quantile(&cycles, 0.5),
        p99: quantile(&cycles, 0.99),
        frag: ok.iter().map(|r| r.frag).sum::<f64>() / n,
    };
    let missing = CRASH_IMAGES.saturating_sub(images.len()) as u64;
    let mut rep = new_rep(setup_s, timed_s, units + missing, sim);
    rep.windows = vec![window];
    slicer.into_rep(&mut rep, images.len() as u64);
    // One slice per image, repeated every round.
    rep.slice_count = images.len().max(1);
    if missing > 0 {
        errors.push(format!(
            "captured {} of {CRASH_IMAGES} mid-cycle images",
            images.len()
        ));
    }
    rep.failed = (errors.len() as u64 + missing.saturating_sub(1)).min(rep.units);
    rep.errors = errors;
    let per = |f: fn(&ffccd::RecoveryReport) -> u64| {
        ok.iter().map(|r| f(&r.report)).sum::<u64>() as f64 / n
    };
    let c = &mut rep.counts;
    c.insert("core.recovery_finished_per_image", per(|r| r.finished));
    c.insert("core.recovery_undone_per_image", per(|r| r.undone));
    c.insert("core.recovery_refs_fixed_per_image", per(|r| r.refs_fixed));
    c.insert("core.recovery_had_cycle_share", per(|r| r.had_cycle as u64));
    rep
}

/// Restarts the machine from `image`, recovers, and checks the heap and
/// the key set committed when the image was taken.
fn recover_one(
    image: &CrashImage,
    expected: &BTreeSet<u64>,
    defrag: DefragConfig,
    tr: &mut Tracer,
) -> Result<Recovered, String> {
    let mut w = Pmemkv::new();
    let opened = if tr.on() {
        open_traced(image, &w, defrag, tr)
    } else {
        DefragHeap::open_recovered(image, w.registry(), defrag)
    };
    let (heap, report) = opened.map_err(|e| format!("recovery failed: {e}"))?;
    let s = tr.enter("core.validate_heap");
    let v = validate_heap(&heap);
    tr.exit(s);
    v.map_err(|es| format!("validate_heap: {}", es.join("; ")))?;
    let mut ctx = heap.ctx();
    let s = tr.enter("workloads.reopen");
    w.reopen(&heap, &mut ctx);
    tr.exit(s);
    let s = tr.enter("workloads.validate");
    let v = w.validate(&heap, &mut ctx, expected);
    tr.exit(s);
    v.map_err(|e| format!("key set: {e}"))?;
    Ok(Recovered {
        report,
        // The untraced open charges `report.cycles` to recovery_cycles and
        // the split traced open does not; count them once either way.
        gc_cycles: heap.gc_stats().total_gc_cycles() + report.cycles,
        frag: heap.pool().stats().frag_ratio,
    })
}

/// `DefragHeap::open_recovered`, split into its four public steps so each
/// gets its own span.
fn open_traced(
    image: &CrashImage,
    w: &Pmemkv,
    defrag: DefragConfig,
    tr: &mut Tracer,
) -> Result<(DefragHeap, ffccd::RecoveryReport), ffccd_pmop::PoolError> {
    let reg = w.registry();
    let s = tr.enter("pmem.restart");
    let engine = image.restart();
    tr.exit(s);
    let s = tr.enter("core.recover");
    let report = recover(&engine, &reg, defrag.scheme);
    tr.exit(s);
    let report = report?;
    let s = tr.enter("pmop.open");
    let pool = PmPool::open(engine, reg);
    tr.exit(s);
    let pool = pool?;
    let s = tr.enter("core.from_pool");
    let heap = DefragHeap::from_pool(pool, defrag);
    tr.exit(s);
    Ok((heap, report))
}
