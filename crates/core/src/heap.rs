//! The defragmenting heap: the application-facing API (paper §5) and the
//! per-scheme read barrier (Figures 6, 7 and 9).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use ffccd_arch::{CheckLookupUnit, GcMetaLayout, LookupResult, Pmft, PmftEntry, Rbb};
use ffccd_pmem::{CounterSink, Ctx, PmEngine};
use ffccd_pmop::{
    PmPool, PmPtr, PoolConfig, PoolError, TypeId, TypeRegistry, FRAME_BYTES, OBJ_HEADER_BYTES,
    SLOT_BYTES,
};

use crate::config::{DefragConfig, Scheme};
use crate::stats::{gc_counter, GcStats, GcStatsSnapshot};

/// Relocation-lock stripes the §4.5 first-touch critical section is
/// sharded over (see [`HeapInner::reloc_locks`]). A host-side locking
/// choice only: cycle accounting does not depend on it.
const RELOC_STRIPES: usize = 64;

/// State of one in-flight defragmentation cycle (driver bookkeeping only —
/// lookups live in [`CycleMirror`]). Clonable so cycle termination can work
/// from a snapshot and leave the shared state in place until the teardown
/// completes — a terminator dying mid-way (thread-crash fault model) must
/// leave a state the next finisher can re-enter.
#[derive(Clone)]
pub(crate) struct CycleState {
    /// Frames being evacuated.
    pub reloc_frames: Vec<u64>,
    /// Frames receiving objects.
    pub dest_frames: Vec<u64>,
    /// Objects the compaction driver still has to move: (frame, slot).
    pub pending: VecDeque<(u64, usize)>,
}

/// Dense, frame-indexed volatile mirror of the persistent PMFT, shared via
/// `Arc` snapshot so read-barrier lookups never contend with the compaction
/// driver on the cycle mutex. Built once at summary, discarded at
/// termination; the per-frame unmoved counts are the only mutable state.
pub(crate) struct CycleMirror {
    /// PMFT entry per relocation frame, indexed by frame number. Boxed so
    /// the dense index stays one word per frame: inline, each 280-byte
    /// entry would make every cycle allocate and fill megabytes (4.4 MiB
    /// for a 64 MiB pool) for the handful of frames it relocates.
    entries: Vec<Option<Box<PmftEntry>>>,
    /// Relocation frames feeding each destination frame, indexed by the
    /// destination frame number (the SFCCD store-mirror scans these).
    by_dest: Vec<Vec<u64>>,
    /// Unmoved objects left per relocation frame; a frame evacuates (stops
    /// counting toward the footprint, §5) when its count reaches zero.
    remaining: Vec<AtomicUsize>,
}

impl CycleMirror {
    /// Builds the mirror from `(reloc_frame, entry, object_count)` items.
    pub fn new(num_frames: usize, items: Vec<(u64, PmftEntry, usize)>) -> Self {
        let mut entries: Vec<Option<Box<PmftEntry>>> = vec![None; num_frames];
        let mut by_dest: Vec<Vec<u64>> = vec![Vec::new(); num_frames];
        let remaining: Vec<AtomicUsize> = (0..num_frames).map(|_| AtomicUsize::new(0)).collect();
        for (frame, entry, count) in items {
            by_dest[entry.dest_frame as usize].push(frame);
            remaining[frame as usize].store(count, Ordering::Relaxed);
            entries[frame as usize] = Some(Box::new(entry));
        }
        CycleMirror {
            entries,
            by_dest,
            remaining,
        }
    }

    /// The PMFT entry for relocation frame `frame`.
    pub fn entry(&self, frame: u64) -> Option<&PmftEntry> {
        self.entries.get(frame as usize).and_then(|e| e.as_deref())
    }

    /// Relocation frames whose objects land in destination frame `dest`.
    pub fn reloc_frames_into(&self, dest: u64) -> &[u64] {
        self.by_dest
            .get(dest as usize)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Notes one object of `frame` moved; `true` when it was the last
    /// unmoved one. Saturates at zero (frames outside the cycle count 0).
    pub fn note_moved(&self, frame: u64) -> bool {
        self.remaining[frame as usize]
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .map(|prev| prev == 1)
            .unwrap_or(false)
    }
}

/// One GC domain (heap shard): the per-cycle bookkeeping that used to be
/// heap-global, instantiated once per shard so shard A can run a full
/// mark/compact cycle while shard B stays idle and mutators on both keep
/// running. Domain `s` only ever relocates frames owned by pool shard `s`
/// and takes its destination frames from the same shard.
pub(crate) struct Domain {
    pub cycle: Mutex<Option<CycleState>>,
    /// Snapshot handle to this domain's active cycle mirror (`None`
    /// outside a cycle). Barrier paths clone the `Arc` and work lock-free
    /// from there.
    pub mirror: RwLock<Option<Arc<CycleMirror>>>,
    pub in_cycle: AtomicBool,
    /// Work items popped from `cycle.pending` whose relocation has not
    /// finished yet. A compaction pumper that dies mid-relocation
    /// (thread-crash fault model) leaves its item here, and termination
    /// drains the leftovers — without this, a popped-but-unrelocated
    /// object's references would be fixed up to a destination that never
    /// received the copy.
    pub inflight: Mutex<Vec<(u64, usize)>>,
    /// `op_counter` value when this domain's last cycle started (per-shard
    /// trigger hysteresis).
    pub last_cycle_start: std::sync::atomic::AtomicU64,
}

pub(crate) struct HeapInner {
    pub pool: PmPool,
    pub cfg: DefragConfig,
    pub meta: GcMetaLayout,
    pub pmft: Pmft,
    pub rbb: Option<Arc<Rbb>>,
    pub clu: Option<CheckLookupUnit>,
    /// Application operations hold this for read; stop-the-world phases
    /// (marking, summary, termination) hold it for write.
    pub world: RwLock<()>,
    /// Per-shard GC domains (one at `shards=1`, reproducing the global
    /// cycle exactly).
    pub domains: Box<[Domain]>,
    /// Domains with a cycle in flight. The barrier arms when this is
    /// non-zero; incremented (Release) after a domain's mirror publishes,
    /// decremented at its termination.
    pub active_cycles: AtomicUsize,
    /// Round-robin cursor so `step_compaction` pumps active domains
    /// fairly (always domain 0 at `shards=1`).
    pub pump_cursor: AtomicUsize,
    /// Striped relocation locks (the paper's §4.5 critical section is
    /// per-object, so first-touch relocation only needs per-object
    /// exclusivity). A stripe is picked from the object's moved-bitmap
    /// byte — objects sharing a bitmap byte share a stripe, keeping the
    /// read-modify-write of that byte exclusive — and the `moved`-bit
    /// double-check under the stripe preserves exactly-once relocation.
    pub reloc_locks: Box<[Mutex<()>]>,
    /// Threads currently registered as mutators ([`DefragHeap::register_mutator`]).
    /// When exactly one mutator is registered, first-touch relocation skips
    /// the stripe lock entirely (there is nobody to race) — a pure host-side
    /// locking choice; the simulated access sequence is unchanged.
    pub mutators: AtomicUsize,
    /// Guards the *decision* to skip the stripe lock against concurrent
    /// registration: `mutators` only changes under the write side, and the
    /// bypass reads the count under a read guard held across the whole
    /// unlocked relocation. Without it, a thread could observe
    /// `mutators == 1`, start an unlocked relocation, and race a second
    /// mutator that registered in between and relocates the same object
    /// under its stripe lock — relocating it twice.
    pub mutator_gate: RwLock<()>,
    pub stats: Arc<GcStats>,
    /// `stats` as a counter sink (same allocation), pre-coerced once so the
    /// barrier hot path installs it with a pointer compare.
    pub stats_sink: Arc<dyn CounterSink>,
    /// Allocator operations observed (the §5 monitor's clock).
    pub op_counter: std::sync::atomic::AtomicU64,
}

/// What the recovery idempotence gate observed
/// ([`DefragHeap::open_recovered_idempotent`]): the first recovery's
/// report, the rerun's report, and FNV-1a fingerprints of the ADR-durable
/// media taken between and after the two runs. A restartable recovery
/// satisfies [`RecoveryRerun::is_noop`].
#[derive(Clone, Copy, Debug)]
pub struct RecoveryRerun {
    /// The first (real) recovery's report.
    pub report: crate::RecoveryReport,
    /// The second run's report — must find a quiescent heap.
    pub rerun: crate::RecoveryReport,
    /// FNV-1a of the ADR-flushed media after the first recovery.
    pub fingerprint: u64,
    /// FNV-1a of the ADR-flushed media after the rerun.
    pub rerun_fingerprint: u64,
}

impl RecoveryRerun {
    /// Whether the rerun was a byte-identical no-op on a quiescent heap.
    pub fn is_noop(&self) -> bool {
        self.fingerprint == self.rerun_fingerprint && !self.rerun.had_cycle
    }
}

/// FNV-1a over the durable media (the fingerprint every pinned crash-image
/// regression in this repo uses).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// RAII registration of one mutator thread (see
/// [`DefragHeap::register_mutator`]); dropping it deregisters.
pub struct MutatorGuard {
    inner: Arc<HeapInner>,
}

impl Drop for MutatorGuard {
    fn drop(&mut self) {
        let _gate = self.inner.mutator_gate.write();
        self.inner.mutators.fetch_sub(1, Ordering::Release);
    }
}

impl std::fmt::Debug for MutatorGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutatorGuard").finish()
    }
}

/// A persistent heap with crash-consistent concurrent defragmentation.
///
/// Wraps a [`PmPool`] with the paper's modified interfaces: `pmalloc` /
/// `pfree` monitor fragmentation and trigger defragmentation; `D_RW`/`D_RO`
/// ([`DefragHeap::load_ref`]) carry the scheme's read barrier.
///
/// Cloning is cheap and shares the heap (hand clones to worker threads).
///
/// # Example
///
/// ```
/// use ffccd::{DefragConfig, DefragHeap, Scheme};
/// use ffccd_pmop::{PoolConfig, TypeDesc, TypeRegistry};
///
/// let mut reg = TypeRegistry::new();
/// let node = reg.register(TypeDesc::new("node", 16, &[8]));
/// let heap = DefragHeap::create(
///     PoolConfig::small_for_tests(),
///     reg,
///     DefragConfig::normal(Scheme::FfccdCheckLookup),
/// )?;
/// let mut ctx = heap.ctx();
/// let obj = heap.alloc(&mut ctx, node, 16)?;
/// heap.set_root(&mut ctx, obj);
/// heap.maybe_defrag(&mut ctx); // monitor hook; triggers when fragmented
/// # Ok::<(), ffccd_pmop::PoolError>(())
/// ```
#[derive(Clone)]
pub struct DefragHeap {
    pub(crate) inner: Arc<HeapInner>,
}

impl std::fmt::Debug for DefragHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DefragHeap")
            .field("scheme", &self.inner.cfg.scheme)
            .field("in_cycle", &self.in_cycle())
            .finish()
    }
}

impl DefragHeap {
    /// Creates a fresh pool with defragmentation support (`init()` in §5).
    ///
    /// # Errors
    ///
    /// Propagates [`PoolError`] from pool creation.
    pub fn create(
        pool_cfg: PoolConfig,
        registry: TypeRegistry,
        cfg: DefragConfig,
    ) -> Result<Self, PoolError> {
        let pool = PmPool::create_sharded(pool_cfg, registry, cfg.num_shards())?;
        Ok(Self::from_pool(pool, cfg))
    }

    /// `recovery()` (§5): boots from a crash image, runs the scheme's
    /// recovery procedure, then opens the pool.
    ///
    /// # Errors
    ///
    /// Propagates [`PoolError`] from recovery or pool opening.
    pub fn open_recovered(
        image: &ffccd_pmem::CrashImage,
        registry: TypeRegistry,
        cfg: DefragConfig,
    ) -> Result<(Self, crate::RecoveryReport), PoolError> {
        Self::open_recovered_with_seed(image, None, registry, cfg)
    }

    /// [`DefragHeap::open_recovered`] with the restarted machine's RNG seed
    /// overridden. Recovery correctness must not depend on the post-crash
    /// eviction schedule, so the recovery report and validation outcome are
    /// invariant across seeds — the restart-seed regression tests assert
    /// exactly that.
    ///
    /// # Errors
    ///
    /// Propagates [`PoolError`] from recovery or pool opening.
    pub fn open_recovered_with_seed(
        image: &ffccd_pmem::CrashImage,
        restart_seed: Option<u64>,
        registry: TypeRegistry,
        cfg: DefragConfig,
    ) -> Result<(Self, crate::RecoveryReport), PoolError> {
        let engine = match restart_seed {
            Some(seed) => image.restart_with_seed(seed),
            None => image.restart(),
        };
        let report = crate::recovery::recover(&engine, &registry, cfg.scheme)?;
        let pool = PmPool::open(engine, registry)?;
        let heap = Self::from_pool(pool, cfg);
        heap.inner
            .stats
            .add_cycles(&heap.inner.stats.recovery_cycles, report.cycles);
        Ok((heap, report))
    }

    /// [`DefragHeap::open_recovered_with_seed`] with the idempotence gate:
    /// after the scheme's recovery completes, `recover()` is run a *second*
    /// time on the same machine, and both the durable state (ADR-flushed
    /// media, FNV-1a fingerprinted before and after the rerun) and the
    /// second report are returned so callers can assert the rerun was a
    /// byte-identical no-op. Restartable recovery demands this: a crash
    /// immediately after recovery's last persist replays the whole
    /// procedure on its own output.
    ///
    /// Only the *first* report's cycles are charged to
    /// [`GcStats`](crate::GcStats)`::recovery_cycles` — the rerun is gate
    /// overhead, not recovered work, and charging both runs would double
    /// the accounting (the stats-conservation regression pins this).
    ///
    /// # Errors
    ///
    /// Propagates [`PoolError`] from either recovery or pool opening.
    pub fn open_recovered_idempotent(
        image: &ffccd_pmem::CrashImage,
        restart_seed: Option<u64>,
        registry: TypeRegistry,
        cfg: DefragConfig,
    ) -> Result<(Self, RecoveryRerun), PoolError> {
        let engine = match restart_seed {
            Some(seed) => image.restart_with_seed(seed),
            None => image.restart(),
        };
        let report = crate::recovery::recover(&engine, &registry, cfg.scheme)?;
        let fingerprint = fnv1a(engine.crash_image().media().as_bytes());
        let rerun = crate::recovery::recover(&engine, &registry, cfg.scheme)?;
        let rerun_fingerprint = fnv1a(engine.crash_image().media().as_bytes());
        let pool = PmPool::open(engine, registry)?;
        let heap = Self::from_pool(pool, cfg);
        heap.inner
            .stats
            .add_cycles(&heap.inner.stats.recovery_cycles, report.cycles);
        Ok((
            heap,
            RecoveryRerun {
                report,
                rerun,
                fingerprint,
                rerun_fingerprint,
            },
        ))
    }

    /// Wraps an already-open pool (post-recovery path).
    pub fn from_pool(pool: PmPool, cfg: DefragConfig) -> Self {
        let meta = GcMetaLayout::from_pool(pool.layout());
        let pmft = Pmft::new(meta);
        let rbb = cfg
            .scheme
            .uses_relocate()
            .then(|| Arc::new(Rbb::new(meta, pool.machine().rbb_entries)));
        let clu = cfg
            .scheme
            .uses_checklookup()
            .then(|| CheckLookupUnit::new(pmft));
        let stats = Arc::new(GcStats::default());
        let stats_sink: Arc<dyn CounterSink> = stats.clone();
        let reloc_locks: Box<[Mutex<()>]> = (0..RELOC_STRIPES).map(|_| Mutex::new(())).collect();
        // The pool's persisted shard count wins over the config: a heap
        // reopened from media created at a different `shards` must honor
        // the on-media frame ownership.
        let domains: Box<[Domain]> = (0..pool.num_shards())
            .map(|_| Domain {
                cycle: Mutex::new(None),
                mirror: RwLock::new(None),
                in_cycle: AtomicBool::new(false),
                inflight: Mutex::new(Vec::new()),
                last_cycle_start: std::sync::atomic::AtomicU64::new(0),
            })
            .collect();
        DefragHeap {
            inner: Arc::new(HeapInner {
                pool,
                cfg,
                meta,
                pmft,
                rbb,
                clu,
                world: RwLock::new(()),
                domains,
                active_cycles: AtomicUsize::new(0),
                pump_cursor: AtomicUsize::new(0),
                mutator_gate: RwLock::new(()),
                reloc_locks,
                mutators: AtomicUsize::new(0),
                stats,
                stats_sink,
                op_counter: std::sync::atomic::AtomicU64::new(0),
            }),
        }
    }

    // ---- accessors -----------------------------------------------------------

    /// The wrapped pool.
    pub fn pool(&self) -> &PmPool {
        &self.inner.pool
    }

    /// The engine under the pool.
    pub fn engine(&self) -> &PmEngine {
        self.inner.pool.engine()
    }

    /// A fresh execution context for this heap's machine.
    pub fn ctx(&self) -> Ctx {
        Ctx::new(self.inner.pool.machine())
    }

    /// The defragmentation configuration.
    pub fn config(&self) -> &DefragConfig {
        &self.inner.cfg
    }

    /// The active scheme.
    pub fn scheme(&self) -> Scheme {
        self.inner.cfg.scheme
    }

    /// Whether any domain has a compaction cycle in flight.
    pub fn in_cycle(&self) -> bool {
        self.inner.active_cycles.load(Ordering::Acquire) > 0
    }

    /// Number of heap shards / GC domains (1 unless created sharded).
    pub fn num_shards(&self) -> usize {
        self.inner.domains.len()
    }

    /// Diagnostic snapshot of domain `shard`'s armed cycle: the
    /// `(relocation, destination)` frame sets, or `None` when that domain
    /// is idle. Tests use it to audit the ownership contract — every
    /// frame of both sets must live in pool shard `shard`.
    pub fn domain_frames(&self, shard: usize) -> Option<(Vec<u64>, Vec<u64>)> {
        let cs = self.inner.domains[shard].cycle.lock();
        cs.as_ref()
            .map(|cs| (cs.reloc_frames.clone(), cs.dest_frames.clone()))
    }

    /// Registers the calling thread as a mutator for the guard's lifetime.
    ///
    /// Registration is an optimization contract, not a requirement: when
    /// *exactly one* mutator is registered, first-touch relocation skips
    /// its stripe lock (nobody can race the moved-bit read-modify-write),
    /// fixing the single-thread overhead the striped locks add. Threads
    /// that drive barriers or compaction without registering are always
    /// safe — the count then never reads 1-and-only-me, so locking stays
    /// on. If any thread of a multi-threaded run registers, **all** of its
    /// barrier-running threads must register too.
    pub fn register_mutator(&self) -> MutatorGuard {
        // Registration synchronizes with in-flight lock-bypassed batches:
        // the write side waits out any batch still running under a
        // `mutator_gate` read guard before the count changes.
        let _gate = self.inner.mutator_gate.write();
        self.inner.mutators.fetch_add(1, Ordering::AcqRel);
        MutatorGuard {
            inner: self.inner.clone(),
        }
    }

    /// Number of currently registered mutator threads.
    pub fn registered_mutators(&self) -> usize {
        self.inner.mutators.load(Ordering::Acquire)
    }

    /// Snapshot of GC phase statistics.
    ///
    /// Hot-path barrier counters batch inside each [`Ctx`] and reach the
    /// shared stats on periodic flush, context drop, and cycle termination
    /// — call [`DefragHeap::flush_stats`] on a live context first when the
    /// snapshot must include its very latest activity.
    pub fn gc_stats(&self) -> GcStatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Flushes `ctx`'s batched barrier counters into this heap's stats so a
    /// subsequent [`DefragHeap::gc_stats`] snapshot includes them.
    pub fn flush_stats(&self, ctx: &mut Ctx) {
        ctx.ensure_counter_sink(&self.inner.stats_sink);
        ctx.flush_counters();
    }

    /// Reconciles a dead thread's batched counter deltas (its
    /// [`ffccd_pmem::OrphanDeposit`]) into this heap's stats. An injected
    /// thread crash skips the victim's drop-flush; the driver deposits the
    /// orphaned deltas here at join so counter totals conserve exactly as
    /// if the thread had wound down normally.
    pub fn absorb_orphan_deltas(&self, deltas: &[u64; ffccd_pmem::COUNTER_SLOTS]) {
        self.inner.stats_sink.flush_deltas(deltas);
    }

    /// Returns a dead thread's allocation arena to general service (see
    /// [`ffccd_pmop::PmPool::retire_arena`]): its active bump frames become
    /// ordinary partial frames other arenas can allocate from, instead of
    /// holding capacity hostage until out-of-memory work stealing.
    pub fn retire_arena(&self, arena: u32) {
        self.inner.pool.retire_arena(arena);
    }

    /// Batches `n` into the Ctx-local counter for slot `idx` (see
    /// [`gc_counter`]), installing this heap's stats as the sink.
    #[inline]
    fn bump(&self, ctx: &mut Ctx, idx: usize, n: u64) {
        ctx.ensure_counter_sink(&self.inner.stats_sink);
        ctx.bump_counter(idx, n);
    }

    /// The GC domain owning `frame` (frames on one OS page share a shard).
    pub(crate) fn domain_of_frame(&self, frame: u64) -> &Domain {
        let s = self
            .inner
            .pool
            .layout()
            .shard_of_frame(frame, self.inner.domains.len());
        &self.inner.domains[s]
    }

    /// Clones the mirror handle of the domain owning `frame` (`None` when
    /// that shard has no cycle in flight). Relocation and destination
    /// frames of one cycle always share a shard, so looking up by either
    /// lands on the same mirror.
    pub(crate) fn mirror_for(&self, frame: u64) -> Option<Arc<CycleMirror>> {
        self.domain_of_frame(frame).mirror.read().clone()
    }

    /// The GC metadata layout (benches and validators).
    pub fn meta(&self) -> &GcMetaLayout {
        &self.inner.meta
    }

    // ---- application API (modified pmalloc/pfree/D_RW/D_RO of §5) -------------

    /// Allocates a typed object.
    ///
    /// # Errors
    ///
    /// Propagates the pool's allocation errors.
    pub fn alloc(&self, ctx: &mut Ctx, type_id: TypeId, payload: u64) -> Result<PmPtr, PoolError> {
        let _g = self.inner.world.read_recursive();
        self.inner.op_counter.fetch_add(1, Ordering::Relaxed);
        self.inner.pool.pmalloc(ctx, type_id, payload)
    }

    /// Frees an object; the read barrier runs first so the free lands on
    /// the object's current location.
    ///
    /// # Errors
    ///
    /// Propagates the pool's invalid-pointer errors.
    pub fn free(&self, ctx: &mut Ctx, ptr: PmPtr) -> Result<(), PoolError> {
        let _g = self.inner.world.read_recursive();
        self.inner.op_counter.fetch_add(1, Ordering::Relaxed);
        let fwd = self.forward(ctx, ptr);
        self.inner.pool.pfree(ctx, fwd)
    }

    /// Reads the root pointer through the read barrier.
    ///
    /// A context bound to a root-directory shard ([`Ctx::set_root_shard`])
    /// reads *its* slot of the directory object instead: the global root
    /// then points at the directory, and slot `i` holds thread `i`'s
    /// workload root. Both hops go through the barrier on every call — the
    /// directory itself is an ordinary relocatable object, so its address
    /// must never be cached outside the barrier.
    pub fn root(&self, ctx: &mut Ctx) -> PmPtr {
        let _g = self.inner.world.read_recursive();
        match ctx.root_shard() {
            None => self.load_slot(ctx, crate::walk::ROOT_SLOT),
            Some(shard) => {
                let dir = self.load_slot(ctx, crate::walk::ROOT_SLOT);
                if dir.is_null() {
                    return PmPtr::NULL;
                }
                self.load_slot(ctx, dir.offset() + shard * 8)
            }
        }
    }

    /// Stores and persists the root pointer (the context's root-directory
    /// slot when a shard is bound, the global root otherwise).
    pub fn set_root(&self, ctx: &mut Ctx, ptr: PmPtr) {
        let _g = self.inner.world.read_recursive();
        match ctx.root_shard() {
            None => self.inner.pool.set_root(ctx, ptr),
            Some(shard) => {
                let dir = self.load_slot(ctx, crate::walk::ROOT_SLOT);
                assert!(
                    !dir.is_null(),
                    "sharded set_root requires an installed root directory"
                );
                // Same discipline as a reference-field store: write,
                // persist, and mirror under SFCCD.
                let off = dir.offset() + shard * 8;
                self.engine().write_u64(ctx, off, ptr.raw());
                self.engine().persist(ctx, off, 8);
                self.sfccd_mirror(ctx, off, &ptr.raw().to_le_bytes());
            }
        }
    }

    /// `D_RW`/`D_RO`: reads the reference field at `obj + field` through the
    /// read barrier, updating the stored reference if the target moved.
    pub fn load_ref(&self, ctx: &mut Ctx, obj: PmPtr, field: u64) -> PmPtr {
        let _g = self.inner.world.read_recursive();
        self.load_slot(ctx, obj.offset() + field)
    }

    /// `D_RO`: identical barrier path to [`DefragHeap::load_ref`] — a
    /// read-only dereference still relocates on first touch (paper Figure
    /// 6: both `D_RW` and `D_RO` carry the barrier), it merely signals
    /// intent at the call site.
    pub fn load_ref_ro(&self, ctx: &mut Ctx, obj: PmPtr, field: u64) -> PmPtr {
        self.load_ref(ctx, obj, field)
    }

    /// Stores a reference field (plus persist, as PM programs must).
    pub fn store_ref(&self, ctx: &mut Ctx, obj: PmPtr, field: u64, target: PmPtr) {
        let _g = self.inner.world.read_recursive();
        let off = obj.offset() + field;
        self.engine().write_u64(ctx, off, target.raw());
        self.engine().persist(ctx, off, 8);
        self.sfccd_mirror(ctx, off, &target.raw().to_le_bytes());
    }

    /// SFCCD write-through: Figure 7b's recovery re-copies a moved object
    /// from its source whenever destination and source differ, which would
    /// roll back the application's *persisted* post-move updates (the paper
    /// leans on application-level redo logging there). We instead mirror
    /// every store to a destination copy back to its source, so the two
    /// copies only differ when the relocation copy itself failed to persist
    /// — making the re-copy always safe.
    pub(crate) fn sfccd_mirror(&self, ctx: &mut Ctx, off: u64, data: &[u8]) {
        self.sfccd_mirror_excluding(ctx, off, data, None);
    }

    /// [`Self::sfccd_mirror`] that ignores shard `exclude`'s own mirror.
    /// Cycle termination passes its shard here: the terminating cycle's
    /// source frames are released moments later, so mirroring into them is
    /// pointless — and the mirror now stays published through termination
    /// (for thread-crash re-entry), so without the exclusion the teardown
    /// walk would start mirroring stores it never used to.
    pub(crate) fn sfccd_mirror_excluding(
        &self,
        ctx: &mut Ctx,
        off: u64,
        data: &[u8],
        exclude: Option<usize>,
    ) {
        if self.inner.cfg.scheme != Scheme::Sfccd || !self.in_cycle() {
            return;
        }
        let layout = *self.inner.pool.layout();
        let Some(frame) = layout.frame_of(off) else {
            return;
        };
        if exclude == Some(layout.shard_of_frame(frame, self.inner.domains.len())) {
            return;
        }
        let Some(m) = self.mirror_for(frame) else {
            return;
        };
        for &rf in m.reloc_frames_into(frame) {
            let e = m.entry(rf).expect("indexed frames have entries");
            let off_in_frame = off - layout.frame_start(frame);
            for (src_slot, dst_slot) in e.mappings() {
                let dst_obj = dst_slot as u64 * SLOT_BYTES;
                // Object extent from the source header.
                let src_obj = layout.frame_start(e.reloc_frame) + src_slot as u64 * SLOT_BYTES;
                let word = self.engine().peek_u64(src_obj);
                let total = (word & 0xFFFF_FFFF) + OBJ_HEADER_BYTES;
                if off_in_frame >= dst_obj && off_in_frame + data.len() as u64 <= dst_obj + total {
                    let mirror = src_obj + (off_in_frame - dst_obj);
                    self.engine().write(ctx, mirror, data);
                    self.engine().persist(ctx, mirror, data.len() as u64);
                    return;
                }
            }
        }
    }

    /// Applies the read barrier to a pointer held outside PM (e.g. a
    /// volatile DRAM index, as FPTree keeps): returns the object's current
    /// address, relocating on first touch. Equivalent to `D_RW` on a
    /// transient pointer.
    pub fn resolve(&self, ctx: &mut Ctx, ptr: PmPtr) -> PmPtr {
        let _g = self.inner.world.read_recursive();
        self.forward(ctx, ptr)
    }

    /// Runs `f` as one §4.5 critical section: no stop-the-world GC phase
    /// (marking, summary, termination) can interleave inside it. Heap calls
    /// within `f` are fine (the world lock is recursive for readers).
    /// Multi-threaded applications wrap each structure operation in this,
    /// so pointers resolved early in an operation stay valid throughout.
    pub fn critical<R>(&self, f: impl FnOnce() -> R) -> R {
        let _g = self.inner.world.read_recursive();
        f()
    }

    /// Monotonic count of completed defragmentation cycles. A volatile
    /// index holding cached persistent pointers (FPTree's DRAM layer) must
    /// rebuild when this changes: after termination the forwarding table is
    /// gone, so stale cached pointers can no longer be resolved.
    pub fn gc_epoch(&self) -> u64 {
        self.inner
            .stats
            .cycles_completed
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Reads a data (non-reference) `u64` field.
    pub fn read_u64(&self, ctx: &mut Ctx, obj: PmPtr, field: u64) -> u64 {
        let _g = self.inner.world.read_recursive();
        self.inner.pool.read_u64(ctx, obj, field)
    }

    /// Writes a data `u64` field (volatile until persisted).
    pub fn write_u64(&self, ctx: &mut Ctx, obj: PmPtr, field: u64, v: u64) {
        let _g = self.inner.world.read_recursive();
        self.inner.pool.write_u64(ctx, obj, field, v);
        self.sfccd_mirror(ctx, obj.offset() + field, &v.to_le_bytes());
    }

    /// Reads payload bytes.
    pub fn read_bytes(&self, ctx: &mut Ctx, obj: PmPtr, field: u64, buf: &mut [u8]) {
        let _g = self.inner.world.read_recursive();
        self.inner.pool.read_bytes(ctx, obj, field, buf)
    }

    /// Writes payload bytes.
    pub fn write_bytes(&self, ctx: &mut Ctx, obj: PmPtr, field: u64, data: &[u8]) {
        let _g = self.inner.world.read_recursive();
        self.inner.pool.write_bytes(ctx, obj, field, data);
        self.sfccd_mirror(ctx, obj.offset() + field, data);
    }

    /// Persists a payload range (the application's own durability barrier).
    pub fn persist(&self, ctx: &mut Ctx, obj: PmPtr, field: u64, len: u64) {
        let _g = self.inner.world.read_recursive();
        self.inner.pool.persist(ctx, obj, field, len)
    }

    /// Reads the object header (type, payload size).
    pub fn object_header(&self, ctx: &mut Ctx, ptr: PmPtr) -> (TypeId, u32) {
        let _g = self.inner.world.read_recursive();
        self.inner.pool.object_header(ctx, ptr)
    }

    // ---- the read barrier ------------------------------------------------------

    /// Loads the reference stored at pool offset `slot_off` through the
    /// barrier. Caller holds the world read lock.
    fn load_slot(&self, ctx: &mut Ctx, slot_off: u64) -> PmPtr {
        let raw = self.engine().read_u64(ctx, slot_off);
        let ptr = PmPtr::from_raw(raw);
        if ptr.is_null() || !self.in_cycle() {
            return ptr;
        }
        let fwd = self.forward(ctx, ptr);
        if fwd != ptr {
            // Observation 3: the reference update is idempotent and needs no
            // persist barrier — recovery redoes or undoes it from the PMFT.
            let t0 = ctx.cycles();
            self.engine().write_u64(ctx, slot_off, fwd.raw());
            self.bump(ctx, gc_counter::REF_FIXUP_CYCLES, ctx.cycles() - t0);
        }
        fwd
    }

    /// The scheme's read barrier applied to an object pointer: returns the
    /// object's current address, relocating it on first touch.
    pub(crate) fn forward(&self, ctx: &mut Ctx, ptr: PmPtr) -> PmPtr {
        if ptr.is_null() || !self.in_cycle() {
            return ptr;
        }
        let inner = &*self.inner;
        self.bump(ctx, gc_counter::BARRIER_INVOCATIONS, 1);
        let hdr_off = ptr.offset() - OBJ_HEADER_BYTES;
        let Some(frame) = inner.pool.layout().frame_of(hdr_off) else {
            return ptr;
        };
        let slot = ((hdr_off - inner.pool.layout().frame_start(frame)) / SLOT_BYTES) as usize;

        // 1. check + lookup (the overhead `checklookup` attacks).
        let t0 = ctx.cycles();
        let fwd = match inner.cfg.scheme {
            Scheme::Baseline => None,
            Scheme::FfccdCheckLookup => {
                let clu = inner.clu.as_ref().expect("checklookup scheme has a unit");
                let va = inner.pool.base() + hdr_off;
                match clu.checklookup(ctx, self.engine(), va) {
                    LookupResult::NotRelocation => None,
                    LookupResult::Forwarded {
                        dest_frame,
                        dest_slot,
                    } => Some((dest_frame, dest_slot)),
                }
            }
            _ => {
                // Software path: is_frag_page bitmap, then PMFT walk.
                let byte = self.engine().read_u8(ctx, inner.meta.fragmap_byte(frame));
                let armed = byte >> (frame % 8) & 1 == 1
                    && self
                        .mirror_for(frame)
                        .is_some_and(|m| m.entry(frame).is_some());
                if armed {
                    inner.pmft.soft_lookup(ctx, self.engine(), frame, slot)
                } else {
                    // A set frag bit whose frame is absent from its
                    // domain's armed cycle mirror is persistent summary
                    // residue: a thread died mid-summary (thread-crash
                    // fault model) after persisting this frame's PMFT
                    // entry but before the volatile arm — possibly with a
                    // *newer* cycle since armed on the same shard.
                    // Relocating through the half-built mapping would move
                    // objects into a destination frame the exit-time
                    // rollback rightly treats as empty, so the residue
                    // must stay inert until it is healed. The mirror check
                    // never fires in normal runs: frag bits are only set
                    // (summary) or cleared (termination) under the world
                    // write lock with the mirror published before the lock
                    // drops, so a barrier holding the read lock always
                    // sees a set bit with a mirror entry behind it.
                    None
                }
            }
        };
        self.bump(ctx, gc_counter::CHECK_LOOKUP_CYCLES, ctx.cycles() - t0);
        let Some((dest_frame, dest_slot)) = fwd else {
            return ptr;
        };

        // 2. relocate on first touch.
        self.ensure_relocated(ctx, frame, slot, dest_frame, dest_slot);
        let new_hdr = inner.pool.layout().frame_start(dest_frame) + dest_slot as u64 * SLOT_BYTES;
        PmPtr::new(ptr.pool_id(), new_hdr + OBJ_HEADER_BYTES)
    }

    /// Copies the object at (frame, slot) to (dest_frame, dest_slot) if its
    /// moved bit is clear, per the scheme's persistence discipline.
    pub(crate) fn ensure_relocated(
        &self,
        ctx: &mut Ctx,
        frame: u64,
        slot: usize,
        dest_frame: u64,
        dest_slot: u8,
    ) {
        self.ensure_relocated_inner(ctx, frame, slot, dest_frame, dest_slot, true);
    }

    /// [`Self::ensure_relocated`] with progressive release switchable off.
    /// Cycle termination passes `use_mirror = false`: the termination op
    /// stream matches the pre-mirror behaviour even though the mirror now
    /// stays published until the teardown completes (a mid-termination
    /// thread crash needs it live for re-entry and for the surviving
    /// mutators' barriers).
    pub(crate) fn ensure_relocated_inner(
        &self,
        ctx: &mut Ctx,
        frame: u64,
        slot: usize,
        dest_frame: u64,
        dest_slot: u8,
        use_mirror: bool,
    ) {
        let inner = &*self.inner;
        let t0 = ctx.cycles();
        if self.read_moved(ctx, frame, slot) {
            self.bump(ctx, gc_counter::STATE_CYCLES, ctx.cycles() - t0);
            return;
        }
        // §4.5 per-object critical section: the stripe covering this
        // object's moved-bitmap byte. Distinct objects (on other stripes)
        // relocate in parallel; the double-checked moved bit below keeps
        // first-touch relocation exactly-once per object. With exactly one
        // registered mutator the host lock is skipped — there is nobody to
        // race — but the simulated double-check sequence still runs, so
        // cycle accounting is identical with and without the bypass. The
        // count is read (and, when bypassing, stays pinned) under the
        // `mutator_gate` read guard: a second mutator registering mid-copy
        // blocks on the write side until the unlocked relocation finishes,
        // so "single" can never go stale while the stripe lock is skipped.
        let gate = inner.mutator_gate.read();
        let single = inner.mutators.load(Ordering::Acquire) == 1;
        let _gate = single.then_some(gate);
        let _g = (!single).then(|| inner.reloc_locks[Self::stripe_of(frame, slot)].lock());
        if self.read_moved(ctx, frame, slot) {
            self.bump(ctx, gc_counter::STATE_CYCLES, ctx.cycles() - t0);
            return;
        }
        self.bump(ctx, gc_counter::STATE_CYCLES, ctx.cycles() - t0);

        let src = inner.pool.layout().frame_start(frame) + slot as u64 * SLOT_BYTES;
        let dst = inner.pool.layout().frame_start(dest_frame) + dest_slot as u64 * SLOT_BYTES;
        // 3. the copy — where the schemes differ (Figures 6, 7, 9).
        self.relocate_copy(ctx, src, dst);

        // 4. moved[x] = 1 — persistence again differs per scheme.
        let t2 = ctx.cycles();
        self.write_moved(ctx, frame, slot);
        self.bump(ctx, gc_counter::STATE_CYCLES, ctx.cycles() - t2);
        self.bump(ctx, gc_counter::OBJECTS_RELOCATED, 1);

        // Progressive release (§5): once every object of the source frame
        // has moved, the frame stops counting toward the footprint — the
        // frame itself is recycled at termination. The count lives in the
        // mirror (atomic), so no cycle-mutex round trip on the hot path.
        // Skipped during termination (`use_mirror = false`): the frames are
        // torn down wholesale moments later.
        if use_mirror {
            if let Some(m) = self.mirror_for(frame) {
                if m.note_moved(frame) {
                    inner.pool.evacuate_frame(frame);
                }
            }
        }
    }

    /// `find_object_size(*x)` plus the scheme's copy discipline (the body
    /// of Figures 6, 7 and 9).
    fn relocate_copy(&self, ctx: &mut Ctx, src: u64, dst: u64) {
        // Header word of the source object.
        let word = self.engine().read_u64(ctx, src);
        let total = (word & 0xFFFF_FFFF) + OBJ_HEADER_BYTES;

        let t1 = ctx.cycles();
        match self.inner.cfg.scheme {
            Scheme::Baseline => unreachable!("baseline never relocates"),
            Scheme::Espresso => {
                // memcpy; clwb each line; sfence (full persist barrier #1).
                let data = self.engine().read_pooled(ctx, src, total);
                self.engine().write(ctx, dst, &data);
                ctx.put_buf(data);
                self.engine().persist(ctx, dst, total);
            }
            Scheme::Sfccd => {
                // memcpy; clwb each line; *no* sfence (Figure 7a line 8).
                let data = self.engine().read_pooled(ctx, src, total);
                self.engine().write(ctx, dst, &data);
                ctx.put_buf(data);
                for line in ffccd_pmem::lines_spanning(dst, total) {
                    self.engine().clwb(ctx, line.start());
                }
            }
            Scheme::FfccdFenceFree | Scheme::FfccdCheckLookup => {
                // relocate instruction: pending-bit-tagged stores, no flushes.
                ffccd_arch::relocate(ctx, self.engine(), src, dst, total);
            }
        }
        self.bump(ctx, gc_counter::COPY_CYCLES, ctx.cycles() - t1);
    }

    /// Relocation-lock stripe for the object at `(frame, slot)`, keyed by
    /// the object's moved-bitmap *byte* so the byte's read-modify-write in
    /// [`DefragHeap::write_moved`] stays exclusive.
    fn stripe_of(frame: u64, slot: usize) -> usize {
        let key = frame
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((slot as u64 / 8).wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
        (key % RELOC_STRIPES as u64) as usize
    }

    /// Reads the moved bit for (frame, slot).
    pub(crate) fn read_moved(&self, ctx: &mut Ctx, frame: u64, slot: usize) -> bool {
        let off = self.inner.meta.moved_bitmap(frame) + slot as u64 / 8;
        let byte = self.engine().read_u8(ctx, off);
        byte >> (slot % 8) & 1 == 1
    }

    /// Sets the moved bit with the scheme's persistence discipline.
    fn write_moved(&self, ctx: &mut Ctx, frame: u64, slot: usize) {
        let off = self.inner.meta.moved_bitmap(frame) + slot as u64 / 8;
        let byte = self.engine().read_u8(ctx, off) | 1 << (slot % 8);
        self.engine().write(ctx, off, &[byte]);
        match self.inner.cfg.scheme {
            // Espresso and SFCCD: clwb(moved[x]); sfence (the barrier each
            // design keeps — Figure 6a line 11 / Figure 7a line 10).
            Scheme::Espresso | Scheme::Sfccd => {
                self.engine().clwb(ctx, off);
                self.engine().sfence(ctx);
            }
            // Fence-free: the bit reaches PM lazily; recovery trusts the
            // reached bitmap instead (Figure 9).
            Scheme::FfccdFenceFree | Scheme::FfccdCheckLookup => {}
            Scheme::Baseline => unreachable!("baseline never relocates"),
        }
    }

    // ---- helpers shared with phase code ---------------------------------------

    /// Destination payload pointer for a PMFT mapping.
    pub(crate) fn dest_ptr(&self, entry: &PmftEntry, dest_slot: u8) -> PmPtr {
        let hdr =
            self.inner.pool.layout().frame_start(entry.dest_frame) + dest_slot as u64 * SLOT_BYTES;
        PmPtr::new(self.inner.pool.pool_id(), hdr + OBJ_HEADER_BYTES)
    }

    /// Frame capacity sanity bound.
    pub(crate) const SLOTS_PER_FRAME: usize = (FRAME_BYTES / SLOT_BYTES) as usize;
}
