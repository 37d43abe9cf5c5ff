//! The PM engine: cache + WPQ + media with cycle accounting.
//!
//! # Concurrency model
//!
//! The engine is **banked**: cache set-state, WPQ accounting, the in-flight
//! writeback stage and the eviction RNG are sharded into
//! [`MachineConfig::resolved_banks`] banks, indexed by cacheline number, each
//! behind its own reader-writer lock. Writes, fills and evictions take a
//! bank exclusively; clean resident-line *reads* — the read barrier's
//! dominant case — are served under a **shared** bank acquisition
//! (multi-bank engines only), falling back to the exclusive path on a miss. Media stays behind a single `RwLock` — the
//! persistence observer (FFCCD's Reached Bitmap Buffer) reads and writes
//! reached-bitmap words at arbitrary media offsets when a pending line
//! drains, so line-sharding media would force cross-bank locking on every
//! drain. Cache hits (the overwhelming majority of accesses) never touch
//! media at all; fills take the read lock, drains briefly take the write
//! lock. Engine counters are per-bank relaxed atomics summed on
//! [`PmEngine::stats`] — no lock.
//!
//! With one bank (the default: `banks: 0` resolves to 1) every operation
//! holds a single lock end-to-end and the event order is byte-identical to
//! the original global-lock engine — this is the **deterministic mode**
//! crash-site tracking requires, and [`PmEngine::site_tracking_enumerate`]/
//! [`PmEngine::site_tracking_capture`] refuse to run with more banks. The
//! fault-injection harness constructs its engines with `banks: 1`
//! explicitly; throughput runs opt into more banks.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockWriteGuard};

use crate::addr::{line_of, lines_spanning, Line, CACHELINE_BYTES};
use crate::cache::{CacheSim, Evicted};
use crate::crash::{CrashImage, MaybeLine, MaybeOrigin, MaybeSet};
use crate::ctx::{Ctx, ThreadCrashUnwind};
use crate::media::Media;
use crate::observer::PersistObserver;
use crate::sites::{SiteCapture, SiteKind, SitePhase, SiteSummary, SiteTracker};
use crate::stats::EngineStats;
use crate::timing::MachineConfig;
use crate::wpq::{Wpq, WpqEntry};

/// One engine shard: the cache/WPQ/in-flight state for every cacheline
/// whose number is congruent to this bank's index modulo the bank count.
struct Bank {
    cache: CacheSim,
    wpq: Wpq,
    /// Writebacks started by `clwb` but not yet accepted by the WPQ,
    /// tagged with the issuing core ([`Ctx::tag`]). An `sfence` drains its
    /// own core's entries; otherwise one entry retires asynchronously per
    /// memory operation. Entries here are *not* durable under ADR — this
    /// stage is exactly the window that makes `sfence` crash-semantically
    /// meaningful.
    inflight: VecDeque<(u64, WpqEntry)>,
    evict_roll: u64,
}

/// Per-bank counters, cacheline-aligned so concurrent banks do not
/// false-share; summed (relaxed) by [`PmEngine::stats`].
#[repr(align(64))]
#[derive(Default)]
struct BankCounters {
    media_line_writes: AtomicU64,
    evictions: AtomicU64,
    pending_lines_queued: AtomicU64,
    pending_lines_persisted: AtomicU64,
}

/// State shared by all banks.
struct Shared {
    media: RwLock<Media>,
    media_len: u64,
    observer: RwLock<Option<Arc<dyn PersistObserver>>>,
    /// Fast-path gate: lines that persist check this before touching the
    /// observer lock at all.
    has_observer: AtomicBool,
    sites: Mutex<SiteTracker>,
    /// Fast-path gate mirroring `sites` mode, so untracked runs pay one
    /// relaxed load per durability event instead of a lock.
    sites_active: AtomicBool,
    counters: Box<[BankCounters]>,
}

/// A simulated persistent-memory machine shared by all threads.
///
/// Cloning is cheap (`Arc` internally); all methods take `&self` and an
/// exclusive per-thread [`Ctx`] for cycle/stat accounting.
///
/// # Persistence semantics
///
/// A store becomes durable when its cacheline reaches the *persistence
/// domain*: either drained from the WPQ into media, or sitting in the WPQ at
/// crash time (ADR flushes the WPQ). Dirty lines still in the cache are lost
/// on crash. Lines leave the cache three ways:
///
/// 1. [`PmEngine::clwb`] followed by [`PmEngine::sfence`] (explicit),
/// 2. capacity eviction,
/// 3. seeded background eviction (≈ one dirty line per `evict_denom` stores),
///    modelling the "natural cache eviction" FFCCD's lazy persistence relies
///    on (§3.3.3).
///
/// A `clwb` alone only *starts* a writeback: the line moves to an
/// in-flight stage that is still outside the persistence domain, and is
/// pushed into the WPQ by the issuing core's next `sfence` — or retired
/// asynchronously, one line per subsequent memory operation. A crash
/// between the `clwb` and the fence can therefore lose the line; this is
/// the persist-ordering window the §3.3 schemes differ on.
#[derive(Clone)]
pub struct PmEngine {
    banks: Arc<[RwLock<Bank>]>,
    shared: Arc<Shared>,
    cfg: Arc<MachineConfig>,
    nbanks: usize,
}

impl std::fmt::Debug for PmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmEngine")
            .field("len", &self.len())
            .field("banks", &self.nbanks)
            .finish()
    }
}

/// Bank salt for per-bank RNG streams; zero for bank 0 so the single-bank
/// deterministic mode reproduces the original engine's sequences exactly.
fn bank_salt(bank: usize) -> u64 {
    (bank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Bank `b`'s share of a `total`-entry resource split across `nbanks`:
/// the first `total % nbanks` banks take one extra entry, so the shares
/// sum back to `total` (plain `total / nbanks` silently shrank the
/// aggregate cache/WPQ whenever the split had a remainder). Every bank
/// still gets at least one entry even when `total < nbanks`.
fn bank_share(total: usize, nbanks: usize, b: usize) -> usize {
    (total / nbanks + usize::from(b < total % nbanks)).max(1)
}

impl PmEngine {
    /// Creates an engine with zeroed media of `len` bytes.
    pub fn new(cfg: MachineConfig, len: u64) -> Self {
        Self::from_media(cfg, Media::new(len))
    }

    /// Creates an engine over existing media (post-crash restart).
    pub fn from_media(cfg: MachineConfig, media: Media) -> Self {
        let nbanks = cfg.resolved_banks();
        let banks: Vec<RwLock<Bank>> = (0..nbanks)
            .map(|b| {
                RwLock::new(Bank {
                    cache: CacheSim::new(
                        bank_share(cfg.cache_capacity_lines, nbanks, b),
                        (cfg.seed ^ 0xcafe) ^ bank_salt(b),
                    ),
                    wpq: Wpq::new(bank_share(cfg.wpq_capacity, nbanks, b)),
                    inflight: VecDeque::new(),
                    evict_roll: (cfg.seed ^ bank_salt(b)) | 1,
                })
            })
            .collect();
        let counters: Vec<BankCounters> = (0..nbanks).map(|_| BankCounters::default()).collect();
        PmEngine {
            banks: banks.into(),
            shared: Arc::new(Shared {
                media_len: media.len(),
                media: RwLock::new(media),
                observer: RwLock::new(None),
                has_observer: AtomicBool::new(false),
                sites: Mutex::new(SiteTracker::default()),
                sites_active: AtomicBool::new(false),
                counters: counters.into(),
            }),
            cfg: Arc::new(cfg),
            nbanks,
        }
    }

    /// The machine configuration this engine charges cycles from.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Media capacity in bytes.
    pub fn len(&self) -> u64 {
        self.shared.media_len
    }

    /// Whether the media has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of banks this engine was built with (1 = deterministic mode).
    pub fn bank_count(&self) -> usize {
        self.nbanks
    }

    /// Per-bank `(cache lines, WPQ entries)` capacities, in bank order.
    /// Their sums must equal the configured totals whenever the totals are
    /// at least `nbanks` (below that every bank still holds one entry).
    pub fn bank_capacities(&self) -> Vec<(usize, usize)> {
        self.banks
            .iter()
            .map(|b| {
                let b = b.read();
                (b.cache.capacity(), b.wpq.capacity())
            })
            .collect()
    }

    fn bank_of(&self, line: Line) -> usize {
        (line.0 % self.nbanks as u64) as usize
    }

    /// Installs the persistence observer (FFCCD's Reached Bitmap Buffer).
    pub fn set_observer(&self, obs: Arc<dyn PersistObserver>) {
        *self.shared.observer.write() = Some(obs);
        self.shared.has_observer.store(true, Ordering::Release);
    }

    /// Removes the persistence observer (end of a GC cycle).
    pub fn clear_observer(&self) {
        self.shared.has_observer.store(false, Ordering::Release);
        *self.shared.observer.write() = None;
    }

    /// Engine-global counters, summed from the per-bank relaxed atomics —
    /// takes no lock.
    pub fn stats(&self) -> EngineStats {
        let mut s = EngineStats::default();
        for c in self.shared.counters.iter() {
            s.media_line_writes += c.media_line_writes.load(Ordering::Relaxed);
            s.evictions += c.evictions.load(Ordering::Relaxed);
            s.pending_lines_queued += c.pending_lines_queued.load(Ordering::Relaxed);
            s.pending_lines_persisted += c.pending_lines_persisted.load(Ordering::Relaxed);
        }
        s
    }

    // ---- simulated accesses -------------------------------------------------

    /// Simulated load of `buf.len()` bytes at `off`.
    ///
    /// Misses within one call overlap (memory-level parallelism): the first
    /// missing line pays the full PM latency, subsequent ones only the
    /// bandwidth cost — a streaming `memcpy` is not a chain of serial
    /// misses.
    pub fn read(&self, ctx: &mut Ctx, off: u64, buf: &mut [u8]) {
        ctx.stats.loads += 1;
        // Lock-light fast path: with no clwb issued since this core's last
        // sfence (`dirty_banks == 0`), the per-op in-flight retirement is a
        // guaranteed no-op, so clean resident lines can be read under a
        // shared bank lock. Restricted to multi-bank engines: the
        // single-bank deterministic mode keeps the one-lock-end-to-end
        // event order crash-site tracking replays against.
        if self.nbanks > 1 && ctx.dirty_banks == 0 {
            self.read_shared(ctx, off, buf);
            return;
        }
        let mut cur = self.bank_of(line_of(off));
        let mut bank = self.banks[cur].write();
        // One outstanding writeback retires per memory operation (the WPQ
        // accepts lines while the core does other work).
        bank.retire_one_inflight(self, cur, ctx);
        let tlb_cost = ctx.tlb.access(off, &mut ctx.stats);
        ctx.charge(tlb_cost);
        let mut cursor = 0usize;
        let mut missed = false;
        for line in lines_spanning(off, buf.len() as u64) {
            let bi = self.bank_of(line);
            if bi != cur {
                drop(bank);
                cur = bi;
                bank = self.banks[cur].write();
            }
            let start = off.max(line.start());
            let end = (off + buf.len() as u64).min(line.end());
            let within = (start - line.start()) as usize;
            let len = (end - start) as usize;
            let pos = bank.access_line(self, cur, ctx, line, false, &mut missed);
            bank.cache
                .read_at(pos, within, &mut buf[cursor..cursor + len]);
            cursor += len;
        }
    }

    /// The shared-acquisition read path. Cycle charges and hit/miss
    /// classification are identical to the exclusive path — reads have no
    /// site events, background eviction or drain progress, and with
    /// `ctx.dirty_banks == 0` the skipped `retire_one_inflight` could not
    /// have retired anything — only the host-side locking differs: a line
    /// resident at lock time is read under the shared guard, and only a
    /// miss upgrades to the exclusive guard for the fill.
    fn read_shared(&self, ctx: &mut Ctx, off: u64, buf: &mut [u8]) {
        let tlb_cost = ctx.tlb.access(off, &mut ctx.stats);
        ctx.charge(tlb_cost);
        let mut cursor = 0usize;
        let mut missed = false;
        for line in lines_spanning(off, buf.len() as u64) {
            let bi = self.bank_of(line);
            let start = off.max(line.start());
            let end = (off + buf.len() as u64).min(line.end());
            let within = (start - line.start()) as usize;
            let len = (end - start) as usize;
            let dst = &mut buf[cursor..cursor + len];
            cursor += len;
            let bank = self.banks[bi].read();
            if let Some(pos) = bank.cache.pos_of(line) {
                ctx.stats.cache_hits += 1;
                ctx.stats.shared_line_reads += 1;
                ctx.charge(self.cfg.cache_hit_latency);
                bank.cache.read_at(pos, within, dst);
                continue;
            }
            drop(bank);
            // Miss: upgrade to the exclusive path for the fill. If another
            // thread filled the line in the unlocked window, `access_line`
            // re-checks residency and correctly classifies a hit.
            let mut bank = self.banks[bi].write();
            let pos = bank.access_line(self, bi, ctx, line, false, &mut missed);
            bank.cache.read_at(pos, within, dst);
        }
    }

    /// Simulated load returning a fresh vector.
    pub fn read_vec(&self, ctx: &mut Ctx, off: u64, len: u64) -> Vec<u8> {
        let mut v = vec![0u8; len as usize];
        self.read(ctx, off, &mut v);
        v
    }

    /// Simulated load into a pooled buffer from `ctx` — hand it back with
    /// [`Ctx::put_buf`] so hot copy loops reuse one allocation.
    pub fn read_pooled(&self, ctx: &mut Ctx, off: u64, len: u64) -> Vec<u8> {
        let mut v = ctx.take_buf(len as usize);
        self.read(ctx, off, &mut v);
        v
    }

    /// Simulated single-byte load (no buffer allocation).
    pub fn read_u8(&self, ctx: &mut Ctx, off: u64) -> u8 {
        let mut b = [0u8; 1];
        self.read(ctx, off, &mut b);
        b[0]
    }

    /// Simulated little-endian `u64` load.
    pub fn read_u64(&self, ctx: &mut Ctx, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(ctx, off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Simulated store of `data` at `off`.
    pub fn write(&self, ctx: &mut Ctx, off: u64, data: &[u8]) {
        self.write_impl(ctx, off, data, false)
    }

    /// Simulated store that also plants the FFCCD *pending* bit on every
    /// touched line (the `relocate` instruction's store half, §4.2).
    pub fn write_pending(&self, ctx: &mut Ctx, off: u64, data: &[u8]) {
        self.write_impl(ctx, off, data, true)
    }

    /// Simulated little-endian `u64` store.
    pub fn write_u64(&self, ctx: &mut Ctx, off: u64, v: u64) {
        self.write(ctx, off, &v.to_le_bytes());
    }

    fn write_impl(&self, ctx: &mut Ctx, off: u64, data: &[u8], pending: bool) {
        self.thread_crash_tick(ctx);
        ctx.stats.stores += 1;
        let first_bank = self.bank_of(line_of(off));
        let mut cur = first_bank;
        let mut bank = self.banks[cur].write();
        bank.retire_one_inflight(self, cur, ctx);
        let tlb_cost = ctx.tlb.access(off, &mut ctx.stats);
        ctx.charge(tlb_cost);
        let mut cursor = 0usize;
        let mut missed = false;
        for line in lines_spanning(off, data.len() as u64) {
            let bi = self.bank_of(line);
            if bi != cur {
                drop(bank);
                cur = bi;
                bank = self.banks[cur].write();
            }
            let start = off.max(line.start());
            let end = (off + data.len() as u64).min(line.end());
            let within = (start - line.start()) as usize;
            let len = (end - start) as usize;
            let full_line = within == 0 && len == CACHELINE_BYTES as usize;
            let pos = bank.access_line_fill(self, cur, ctx, line, true, &mut missed, !full_line);
            bank.cache
                .write_at(pos, within, &data[cursor..cursor + len], pending);
            cursor += len;
        }
        if cur != first_bank {
            drop(bank);
            cur = first_bank;
            bank = self.banks[cur].write();
        }
        bank.site_event(
            self,
            if pending {
                SiteKind::PendingStore
            } else {
                SiteKind::Store
            },
            line_of(off).start(),
        );
        bank.maybe_background_evict(self, cur);
        bank.background_drain(self, cur, 1);
    }

    /// `clwb`: start a writeback of the line containing `off` (line stays
    /// cached, now clean). No-op for clean/absent lines.
    ///
    /// The writeback sits in the in-flight stage — *outside* the
    /// persistence domain — until this core's next [`PmEngine::sfence`]
    /// pushes it into the WPQ, or asynchronous retirement gets to it.
    pub fn clwb(&self, ctx: &mut Ctx, off: u64) {
        self.thread_crash_tick(ctx);
        ctx.stats.clwbs += 1;
        ctx.charge(self.cfg.clwb_cost);
        let line = line_of(off);
        let bi = self.bank_of(line);
        let mut bank = self.banks[bi].write();
        if let Some(ev) = bank.cache.clean(line) {
            debug_assert!(ev.dirty);
            ctx.unfenced_clwbs += 1;
            ctx.dirty_banks |= 1u64 << bi;
            bank.inflight.push_back((
                ctx.tag,
                WpqEntry {
                    line: ev.line,
                    data: ev.data,
                    pending: ev.pending,
                },
            ));
            bank.site_event(self, SiteKind::Clwb, line.start());
        }
    }

    /// `sfence`: stall until this core's in-flight writebacks reach the
    /// persistence domain.
    ///
    /// Under ADR the persistence domain is the *write pending queue*, not
    /// the media: a fence waits for queue entry (Table 2's 30-cycle WPQ
    /// latency), while the queue drains to media asynchronously. Sustained
    /// flushing still stalls — a full queue backpressures `clwb` at the PM
    /// write-bandwidth cost.
    ///
    /// Only banks this core dirtied since its last fence are visited
    /// (tracked in [`Ctx`]); bank 0 is always visited for the fence's own
    /// site event and asynchronous drain progress.
    pub fn sfence(&self, ctx: &mut Ctx) {
        self.thread_crash_tick(ctx);
        ctx.stats.sfences += 1;
        // The fence waits for every writeback this thread issued since its
        // last fence to be accepted by the persistence domain.
        ctx.charge(self.cfg.wpq_latency * (1 + ctx.unfenced_clwbs));
        ctx.stats.wpq_drained += ctx.unfenced_clwbs;
        ctx.unfenced_clwbs = 0;
        let mask = ctx.dirty_banks | 1;
        ctx.dirty_banks = 0;
        // This core's in-flight writebacks enter the WPQ: after the fence
        // they are durable even if power fails.
        for bi in 0..self.nbanks {
            if mask & (1u64 << bi) == 0 {
                continue;
            }
            let mut bank = self.banks[bi].write();
            bank.drain_own_inflight(self, bi, ctx);
            if bi == 0 {
                bank.site_event(self, SiteKind::Sfence, 0);
                // Asynchronous drain progress happens while the core stalls.
                bank.background_drain(self, bi, 1);
            }
        }
    }

    /// Counts one durability event against the caller's thread-crash arm
    /// (see [`crate::ThreadCrashArm`]); when the armed ordinal is reached,
    /// raises the kill *before* the event executes and before any bank
    /// lock is taken, so the surviving threads see a consistent simulated
    /// machine — exactly the state as of the victim's previous event.
    #[inline]
    fn thread_crash_tick(&self, ctx: &mut Ctx) {
        if ctx.durability_tick() {
            self.raise_thread_crash(ctx);
        }
    }

    #[cold]
    fn raise_thread_crash(&self, ctx: &Ctx) {
        let arm = ctx.thread_crash_arm().expect("tick fired without an arm");
        // Stamp the kill in the site stream when tracking is armed — noted
        // only on fire, so an armed-but-unfired kill never perturbs the
        // deterministic site-ID sequence.
        if self.shared.sites_active.load(Ordering::Acquire) {
            let bank = self.banks[0].write();
            bank.site_event(self, SiteKind::ThreadCrash, arm.victim() as u64);
        }
        if std::env::var("FFCCD_TRACE_KILL").is_ok() {
            eprintln!(
                "TRACE kill fires victim={} events={}\n{}",
                arm.victim(),
                arm.events(),
                std::backtrace::Backtrace::force_capture()
            );
        }
        std::panic::panic_any(ThreadCrashUnwind {
            victim: arm.victim(),
            events: arm.events(),
        });
    }

    /// Convenience: `clwb` every line of `[off, off+len)` then `sfence` —
    /// one full persist barrier (the unit Espresso pays twice per barrier).
    pub fn persist(&self, ctx: &mut Ctx, off: u64, len: u64) {
        for line in lines_spanning(off, len) {
            self.clwb(ctx, line.start());
        }
        self.sfence(ctx);
    }

    // ---- crash / direct access ----------------------------------------------

    /// Produces a *non-destructive* crash image: what media would contain if
    /// power failed right now. ADR drains the WPQ (and the observer's
    /// buffered state) into the image; dirty cache lines are lost. The live
    /// engine is unaffected — fault-injection takes many images per run.
    ///
    /// Locks all banks (ascending index) for the duration, so the image is
    /// a consistent cut even against concurrent accessors.
    pub fn crash_image(&self) -> CrashImage {
        let guards: Vec<RwLockWriteGuard<'_, Bank>> =
            self.banks.iter().map(|b| b.write()).collect();
        let mut media = self.shared.media.read().clone();
        let mut pending_lines = Vec::new();
        for g in guards.iter() {
            g.apply_to_snapshot(&self.cfg, &mut media, &mut pending_lines);
        }
        if self.shared.has_observer.load(Ordering::Acquire) {
            if let Some(obs) = self.shared.observer.read().as_ref() {
                obs.crash_flush(&mut media, &pending_lines);
            }
        }
        drop(guards);
        CrashImage::new(media, (*self.cfg).clone())
    }

    // ---- crash-site tracking ------------------------------------------------

    fn assert_deterministic(&self, what: &str) {
        assert_eq!(
            self.nbanks, 1,
            "{what} requires the deterministic single-bank engine; \
             construct it with MachineConfig.banks = 1 (or 0 = auto)",
        );
    }

    /// Begins crash-site enumeration: every durability-relevant event gets
    /// a deterministic sequential ID and is counted; no images are taken.
    ///
    /// # Panics
    ///
    /// Panics unless the engine runs in deterministic mode (one bank).
    pub fn site_tracking_enumerate(&self) {
        self.site_tracking_enumerate_phase(SitePhase::Mutator);
    }

    /// [`PmEngine::site_tracking_enumerate`] with an explicit
    /// [`SitePhase`]: arm with [`SitePhase::Recovery`] around `recover()`
    /// on a restarted crash image to enumerate the recovery procedure's
    /// own durability events (the §7.1d nested-crash campaign).
    ///
    /// # Panics
    ///
    /// Panics unless the engine runs in deterministic mode (one bank).
    pub fn site_tracking_enumerate_phase(&self, phase: SitePhase) {
        self.assert_deterministic("site_tracking_enumerate");
        self.shared.sites.lock().start_enumerate(phase);
        self.shared.sites_active.store(true, Ordering::Release);
    }

    /// Begins crash-site capture: events get the same deterministic IDs an
    /// enumeration run assigns, and a [`CrashImage`] is snapshotted (under
    /// the bank lock) right after each event whose ID is in `targets`.
    /// Capturing never perturbs the simulation, so the ID sequence stays
    /// identical to the reference run.
    ///
    /// # Panics
    ///
    /// Panics unless the engine runs in deterministic mode (one bank).
    pub fn site_tracking_capture(&self, targets: BTreeSet<u64>) {
        self.site_tracking_capture_phase(targets, SitePhase::Mutator);
    }

    /// [`PmEngine::site_tracking_capture`] with an explicit [`SitePhase`]
    /// stamped on every captured trace (see
    /// [`PmEngine::site_tracking_enumerate_phase`]).
    ///
    /// # Panics
    ///
    /// Panics unless the engine runs in deterministic mode (one bank).
    pub fn site_tracking_capture_phase(&self, targets: BTreeSet<u64>, phase: SitePhase) {
        self.assert_deterministic("site_tracking_capture");
        self.shared.sites.lock().start_capture(targets, phase);
        self.shared.sites_active.store(true, Ordering::Release);
    }

    /// Stops tracking, returning totals per event kind.
    pub fn site_tracking_stop(&self) -> SiteSummary {
        self.shared.sites_active.store(false, Ordering::Release);
        self.shared.sites.lock().stop()
    }

    /// Takes the crash images captured since the last drain (bounded-memory
    /// sweeps drain and validate at every op boundary).
    pub fn drain_site_captures(&self) -> Vec<SiteCapture> {
        self.shared.sites.lock().drain()
    }

    /// The current maybe-persisted set: every line whose durability would
    /// be ambiguous if power failed right now — in-flight writebacks
    /// (post-`clwb`, pre-acceptance) followed by dirty cache residents.
    /// WPQ entries are excluded (ADR-durable); under eADR the set is empty
    /// (residual power flushes everything). Banks are visited in ascending
    /// index order; on the single-bank deterministic engine the order is
    /// the canonical one subset bitmasks index
    /// ([`crate::MaybeSet`]).
    pub fn maybe_persisted_set(&self) -> MaybeSet {
        let guards: Vec<RwLockWriteGuard<'_, Bank>> =
            self.banks.iter().map(|b| b.write()).collect();
        let mut entries = Vec::new();
        for g in guards.iter() {
            g.collect_maybe_into(self, &mut entries);
        }
        MaybeSet::new(entries)
    }

    /// Reports a GC phase transition from the heap layer as a crash site
    /// ([`SiteKind::Phase`] with `code` as detail). Cheap no-op while
    /// tracking is off.
    pub fn note_phase_site(&self, code: u64) {
        if !self.shared.sites_active.load(Ordering::Acquire) {
            return;
        }
        // Tracking implies deterministic mode, so bank 0 is the only bank.
        let bank = self.banks[0].write();
        bank.site_event(self, SiteKind::Phase, code);
    }

    /// Runs `f` with a read-only view of the raw media (validators).
    pub fn with_media<R>(&self, f: impl FnOnce(&Media) -> R) -> R {
        f(&self.shared.media.read())
    }

    /// Runs `f` with mutable raw media access, bypassing the simulation.
    ///
    /// Only for pool *formatting* at creation time; anything modelling real
    /// program behaviour must use the simulated accessors.
    pub fn with_media_mut<R>(&self, f: impl FnOnce(&mut Media) -> R) -> R {
        f(&mut self.shared.media.write())
    }

    /// Direct (unsimulated, uncharged) read used by validation tooling.
    pub fn peek_vec(&self, off: u64, len: u64) -> Vec<u8> {
        // A validator must see the *current logical* contents: cache first,
        // then the newest in-flight writeback, then WPQ, then media.
        let mut v = vec![0u8; len as usize];
        let mut cursor = 0usize;
        for line in lines_spanning(off, len) {
            let start = off.max(line.start());
            let end = (off + len).min(line.end());
            let within = (start - line.start()) as usize;
            let n = (end - start) as usize;
            let bank = self.banks[self.bank_of(line)].read();
            let data: [u8; CACHELINE_BYTES as usize] = if let Some(cl) = bank.cache.peek(line) {
                cl.data
            } else if let Some((_, e)) = bank.inflight.iter().rev().find(|(_, e)| e.line == line) {
                e.data
            } else if let Some(e) = bank.wpq.entries().find(|e| e.line == line) {
                e.data
            } else {
                self.shared.media.read().read_line(line)
            };
            drop(bank);
            v[cursor..cursor + n].copy_from_slice(&data[within..within + n]);
            cursor += n;
        }
        v
    }

    /// Direct logical `u64` read (see [`PmEngine::peek_vec`]).
    pub fn peek_u64(&self, off: u64) -> u64 {
        let v = self.peek_vec(off, 8);
        u64::from_le_bytes(v.try_into().expect("8 bytes"))
    }
}

impl Bank {
    /// Applies this bank's ADR-surviving state to a media snapshot: the WPQ
    /// always, plus (under eADR) the in-flight stage and dirty cache lines.
    fn apply_to_snapshot(
        &self,
        cfg: &MachineConfig,
        media: &mut Media,
        pending_lines: &mut Vec<Line>,
    ) {
        for e in self.wpq.entries() {
            media.write_line(e.line, &e.data);
            if e.pending {
                pending_lines.push(e.line);
            }
        }
        if cfg.eadr {
            // eADR: residual power also flushes the in-flight writeback
            // stage and the entire cache hierarchy, so those lines are
            // durable too (and pending lines "reach").
            for (_, e) in &self.inflight {
                media.write_line(e.line, &e.data);
                if e.pending {
                    pending_lines.push(e.line);
                }
            }
            for (line, cl) in self.cache.dirty_lines() {
                media.write_line(line, &cl.data);
                if cl.pending {
                    pending_lines.push(line);
                }
            }
        }
    }

    /// Single-bank snapshot for site captures, atomic with the event that
    /// triggered it (the caller holds this — the only — bank's lock).
    fn snapshot_single(&self, eng: &PmEngine) -> CrashImage {
        debug_assert_eq!(eng.nbanks, 1, "site capture is single-bank only");
        let mut media = eng.shared.media.read().clone();
        let mut pending_lines = Vec::new();
        self.apply_to_snapshot(&eng.cfg, &mut media, &mut pending_lines);
        if eng.shared.has_observer.load(Ordering::Acquire) {
            if let Some(obs) = eng.shared.observer.read().as_ref() {
                obs.crash_flush(&mut media, &pending_lines);
            }
        }
        CrashImage::new(media, (*eng.cfg).clone())
    }

    /// Collects this bank's contribution to the maybe-persisted set:
    /// in-flight writebacks first (FIFO, oldest first — the order they
    /// would drain), then dirty cache residents, most recently inserted
    /// first, so the bounded 64-entry mask window prefers the lines the
    /// crashing code just touched. Empty under eADR: residual power
    /// flushes every volatile line, so nothing is ambiguous.
    fn collect_maybe_into(&self, eng: &PmEngine, entries: &mut Vec<MaybeLine>) {
        if eng.cfg.eadr {
            return;
        }
        let obs = eng
            .shared
            .has_observer
            .load(Ordering::Acquire)
            .then(|| eng.shared.observer.read().clone())
            .flatten();
        let fixup = |pending: bool, line: Line| {
            if !pending {
                return None;
            }
            obs.as_ref().and_then(|o| o.line_reached_fixup(line))
        };
        for (_, e) in &self.inflight {
            entries.push(MaybeLine {
                line: e.line,
                data: e.data,
                pending: e.pending,
                origin: MaybeOrigin::InFlight,
                reached_fixup: fixup(e.pending, e.line),
            });
        }
        let start = entries.len();
        for (line, cl) in self.cache.dirty_lines() {
            entries.push(MaybeLine {
                line,
                data: cl.data,
                pending: cl.pending,
                origin: MaybeOrigin::DirtyCache,
                reached_fixup: fixup(cl.pending, line),
            });
        }
        entries[start..].reverse();
    }

    /// Registers a durability-relevant event with the site tracker and
    /// captures a crash image — plus the maybe-persisted set at the same
    /// instant — when the site is targeted.
    fn site_event(&self, eng: &PmEngine, kind: SiteKind, detail: u64) {
        if !eng.shared.sites_active.load(Ordering::Acquire) {
            return;
        }
        let mut sites = eng.shared.sites.lock();
        if let Some(trace) = sites.note(kind, detail) {
            let image = self.snapshot_single(eng);
            let mut maybe = Vec::new();
            self.collect_maybe_into(eng, &mut maybe);
            sites.push_capture(trace, image, MaybeSet::new(maybe));
        }
    }

    /// Asynchronous acceptance: one of this core's in-flight writebacks
    /// enters the WPQ per memory operation (the controller makes progress
    /// while the core does other work). Banked engines make progress on the
    /// bank the operation touches.
    fn retire_one_inflight(&mut self, eng: &PmEngine, idx: usize, ctx: &mut Ctx) {
        ctx.unfenced_clwbs = ctx.unfenced_clwbs.saturating_sub(1);
        if let Some(pos) = self.inflight.iter().position(|(t, _)| *t == ctx.tag) {
            let (_, e) = self.inflight.remove(pos).expect("position valid");
            self.accept_writeback(eng, idx, e, None);
        }
    }

    /// Drains every in-flight writeback tagged with `ctx`'s core into the
    /// WPQ, oldest first (the synchronous `sfence` path).
    fn drain_own_inflight(&mut self, eng: &PmEngine, idx: usize, ctx: &mut Ctx) {
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].0 == ctx.tag {
                let (_, e) = self.inflight.remove(i).expect("index in bounds");
                self.accept_writeback(eng, idx, e, Some(ctx));
            } else {
                i += 1;
            }
        }
    }

    /// Asynchronous WPQ → media drain: the memory controller retires up to
    /// `n` queued lines per core event, off the critical path.
    fn background_drain(&mut self, eng: &PmEngine, idx: usize, n: usize) {
        for _ in 0..n {
            match self.wpq.pop() {
                Some(e) => self.commit_to_media(eng, idx, e),
                None => break,
            }
        }
    }

    /// Ensures `line` is resident and charges hit/miss cost, returning the
    /// line's position in the cache's dense entry vector (valid until the
    /// next insert/removal) so the caller's data access skips a second
    /// hash probe. `missed` carries miss state across the lines of one
    /// access: overlapped misses after the first pay only the bandwidth
    /// cost.
    fn access_line(
        &mut self,
        eng: &PmEngine,
        idx: usize,
        ctx: &mut Ctx,
        line: Line,
        store: bool,
        missed: &mut bool,
    ) -> usize {
        self.access_line_fill(eng, idx, ctx, line, store, missed, true)
    }

    /// [`PmBank::access_line`] with an explicit `fill` switch: a store that
    /// covers the whole line passes `fill = false` to skip the pointless
    /// inflight/WPQ/media fill read — the caller overwrites all 64 bytes
    /// before anything can observe them. Charges, statistics and eviction
    /// decisions are identical either way; only host work is saved.
    #[allow(clippy::too_many_arguments)]
    fn access_line_fill(
        &mut self,
        eng: &PmEngine,
        idx: usize,
        ctx: &mut Ctx,
        line: Line,
        store: bool,
        missed: &mut bool,
        fill: bool,
    ) -> usize {
        let cfg = &*eng.cfg;
        if let Some(pos) = self.cache.pos_of(line) {
            ctx.stats.cache_hits += 1;
            ctx.charge(if store {
                cfg.store_hit_latency
            } else {
                cfg.cache_hit_latency
            });
            return pos;
        }
        ctx.stats.cache_misses += 1;
        ctx.charge(if *missed {
            cfg.pm_write_cost // bandwidth-bound follow-up miss
        } else {
            cfg.pm_read_latency
        });
        *missed = true;
        // Fill must observe in-flight/WPQ contents newer than media (the
        // newest in-flight entry wins over any queued one).
        let data = if fill {
            let newer = self
                .inflight
                .iter()
                .rev()
                .find(|(_, e)| e.line == line)
                .map(|(_, e)| e.data)
                .or_else(|| self.wpq.get(line).map(|e| e.data));
            match newer {
                Some(d) => d,
                None => eng.shared.media.read().read_line(line),
            }
        } else {
            [0u8; CACHELINE_BYTES as usize]
        };
        let mut evicted = std::mem::take(&mut ctx.evict_scratch);
        evicted.clear();
        let pos = self.cache.insert_at(line, data, &mut evicted);
        for ev in evicted.drain(..) {
            eng.shared.counters[idx]
                .evictions
                .fetch_add(1, Ordering::Relaxed);
            self.site_event(eng, SiteKind::CapacityEvict, ev.line.start());
            self.queue_writeback(eng, idx, ev, None);
        }
        ctx.evict_scratch = evicted;
        pos
    }

    /// Background eviction: roughly one dirty line per `evict_denom` stores.
    fn maybe_background_evict(&mut self, eng: &PmEngine, idx: usize) {
        let mut x = self.evict_roll;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.evict_roll = x;
        if x.wrapping_mul(0x2545_F491_4F6C_DD1D)
            .is_multiple_of(eng.cfg.evict_denom as u64)
        {
            if let Some(ev) = self.cache.evict_random_dirty() {
                eng.shared.counters[idx]
                    .evictions
                    .fetch_add(1, Ordering::Relaxed);
                self.site_event(eng, SiteKind::BackgroundEvict, ev.line.start());
                self.queue_writeback(eng, idx, ev, None);
            }
        }
    }

    /// Pushes an *evicted* line into the WPQ. `ctx` is `Some` only on
    /// synchronous paths (fence backpressure).
    fn queue_writeback(&mut self, eng: &PmEngine, idx: usize, ev: Evicted, ctx: Option<&mut Ctx>) {
        debug_assert!(ev.dirty);
        // The evicted data is newer than any in-flight writeback of the
        // same line (the line was re-dirtied after its clwb): drop stale
        // in-flight entries so their later retirement cannot roll this
        // write back.
        self.inflight.retain(|(_, e)| e.line != ev.line);
        self.accept_writeback(
            eng,
            idx,
            WpqEntry {
                line: ev.line,
                data: ev.data,
                pending: ev.pending,
            },
            ctx,
        );
    }

    /// WPQ acceptance — the moment a writeback becomes ADR-durable —
    /// draining the oldest entry first when the queue is full.
    fn accept_writeback(
        &mut self,
        eng: &PmEngine,
        idx: usize,
        entry: WpqEntry,
        ctx: Option<&mut Ctx>,
    ) {
        if self.wpq.is_full() {
            if let Some(old) = self.wpq.pop() {
                if let Some(c) = ctx {
                    c.charge(eng.cfg.pm_write_cost);
                }
                self.commit_to_media(eng, idx, old);
            }
        }
        if entry.pending {
            eng.shared.counters[idx]
                .pending_lines_queued
                .fetch_add(1, Ordering::Relaxed);
        }
        let line = entry.line;
        self.wpq.push(entry);
        self.site_event(eng, SiteKind::WpqAccept, line.start());
    }

    /// Final durability: write the line to media, notifying the observer of
    /// pending lines (reached-bitmap update).
    fn commit_to_media(&mut self, eng: &PmEngine, idx: usize, e: WpqEntry) {
        {
            let mut media = eng.shared.media.write();
            media.write_line(e.line, &e.data);
            if e.pending && eng.shared.has_observer.load(Ordering::Acquire) {
                if let Some(obs) = eng.shared.observer.read().as_ref() {
                    obs.pending_line_persisted(&mut media, e.line);
                }
            }
        }
        eng.shared.counters[idx]
            .media_line_writes
            .fetch_add(1, Ordering::Relaxed);
        if e.pending {
            eng.shared.counters[idx]
                .pending_lines_persisted
                .fetch_add(1, Ordering::Relaxed);
        }
        self.site_event(eng, SiteKind::WpqDrain, e.line.start());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> PmEngine {
        PmEngine::new(MachineConfig::default(), 1 << 20)
    }

    #[test]
    fn read_after_write_same_thread() {
        let e = engine();
        let mut ctx = Ctx::new(e.config());
        e.write(&mut ctx, 100, &[1, 2, 3]);
        assert_eq!(e.read_vec(&mut ctx, 100, 3), vec![1, 2, 3]);
    }

    #[test]
    fn unflushed_write_does_not_reach_crash_image() {
        // Large evict_denom + tiny write count: the dirty line stays cached.
        let cfg = MachineConfig {
            evict_denom: u32::MAX,
            ..MachineConfig::default()
        };
        let e = PmEngine::new(cfg, 1 << 20);
        let mut ctx = Ctx::new(e.config());
        e.write(&mut ctx, 0, &[0xAA; 8]);
        let img = e.crash_image();
        assert_eq!(img.media().read_vec(0, 8), vec![0u8; 8]);
    }

    #[test]
    fn clwb_sfence_makes_write_durable() {
        let e = engine();
        let mut ctx = Ctx::new(e.config());
        e.write(&mut ctx, 0, &[0xAA; 8]);
        e.clwb(&mut ctx, 0);
        e.sfence(&mut ctx);
        let img = e.crash_image();
        assert_eq!(img.media().read_vec(0, 8), vec![0xAA; 8]);
    }

    #[test]
    fn clwb_without_sfence_is_not_yet_durable() {
        // This test previously asserted the opposite (clwb straight into
        // the WPQ, i.e. immediately ADR-durable). That made sfence
        // crash-semantically a no-op and erased the persist-ordering
        // window the §3.3 schemes differ on: a clwb only *starts* a
        // writeback, and the line is outside the persistence domain until
        // the issuing core fences (or asynchronous retirement gets to it).
        let e = engine();
        let mut ctx = Ctx::new(e.config());
        e.write(&mut ctx, 0, &[0xBB; 8]);
        e.clwb(&mut ctx, 0);
        let img = e.crash_image();
        assert_eq!(img.media().read_vec(0, 8), vec![0u8; 8]);
    }

    #[test]
    fn unfenced_clwb_retires_asynchronously() {
        let e = engine();
        let mut ctx = Ctx::new(e.config());
        e.write(&mut ctx, 0, &[0xBB; 8]);
        e.clwb(&mut ctx, 0);
        // A later memory operation retires the writeback into the WPQ,
        // making it durable without any fence (FFCCD's lazy persistence).
        e.read_u64(&mut ctx, 4096);
        let img = e.crash_image();
        assert_eq!(img.media().read_vec(0, 8), vec![0xBB; 8]);
    }

    #[test]
    fn sfence_only_drains_own_core() {
        let cfg = MachineConfig {
            evict_denom: u32::MAX,
            ..MachineConfig::default()
        };
        let e = PmEngine::new(cfg, 1 << 20);
        let mut a = Ctx::new(e.config());
        let mut b = Ctx::new(e.config());
        e.write(&mut a, 0, &[0xAA; 8]);
        e.clwb(&mut a, 0);
        // Core B fences; core A's in-flight writeback must stay volatile.
        e.sfence(&mut b);
        let img = e.crash_image();
        assert_eq!(img.media().read_vec(0, 8), vec![0u8; 8]);
        e.sfence(&mut a);
        let img = e.crash_image();
        assert_eq!(img.media().read_vec(0, 8), vec![0xAA; 8]);
    }

    #[test]
    fn eviction_supersedes_stale_inflight_writeback() {
        // Core A clwbs old data; core B re-dirties the line and a capacity
        // eviction writes the newer data back. A's stale in-flight entry
        // must not resurface (at A's fence) on top of the newer write.
        let cfg = MachineConfig {
            cache_capacity_lines: 1, // every new line deterministically evicts
            evict_denom: u32::MAX,
            ..MachineConfig::default()
        };
        let e = PmEngine::new(cfg, 1 << 20);
        let mut a = Ctx::new(e.config());
        let mut b = Ctx::new(e.config());
        e.write(&mut a, 0, &[1u8; 8]);
        e.clwb(&mut a, 0); // old data in flight, tagged A
        e.write(&mut b, 0, &[2u8; 8]); // re-dirty (B's retirement skips A's entry)
        e.write(&mut b, 64, &[0; 8]); // evicts line 0, superseding A's entry
        e.sfence(&mut a);
        let img = e.crash_image();
        assert_eq!(img.media().read_vec(0, 8), vec![2u8; 8]);
        assert_eq!(e.peek_vec(0, 8), vec![2u8; 8]);
    }

    #[test]
    fn persist_helper_covers_multi_line_ranges() {
        let e = engine();
        let mut ctx = Ctx::new(e.config());
        let data = vec![7u8; 200];
        e.write(&mut ctx, 30, &data);
        e.persist(&mut ctx, 30, 200);
        let img = e.crash_image();
        assert_eq!(img.media().read_vec(30, 200), data);
    }

    #[test]
    fn sfence_is_expensive_clwb_cheap() {
        let e = engine();
        let mut ctx = Ctx::new(e.config());
        e.write(&mut ctx, 0, &[1; 64]);
        let before = ctx.cycles();
        e.clwb(&mut ctx, 0);
        let clwb_cost = ctx.cycles() - before;
        let before = ctx.cycles();
        e.sfence(&mut ctx);
        let sfence_cost = ctx.cycles() - before;
        assert!(
            sfence_cost > clwb_cost,
            "sfence ({sfence_cost}) must out-cost clwb ({clwb_cost})"
        );
    }

    #[test]
    fn fill_observes_wpq_not_stale_media() {
        // Write, clwb (into WPQ), then force the line out of the cache by
        // using a tiny cache, and read back: the fill must see WPQ data.
        let cfg = MachineConfig {
            cache_capacity_lines: 2,
            wpq_capacity: 64,
            evict_denom: u32::MAX,
            ..MachineConfig::default()
        };
        let e = PmEngine::new(cfg, 1 << 20);
        let mut ctx = Ctx::new(e.config());
        e.write(&mut ctx, 0, &[0xCC; 8]);
        e.clwb(&mut ctx, 0);
        // Thrash the 2-line cache.
        for i in 1..10u64 {
            e.write(&mut ctx, i * 64, &[0; 8]);
        }
        assert_eq!(e.read_vec(&mut ctx, 0, 8), vec![0xCC; 8]);
    }

    #[test]
    fn eviction_lazily_persists_without_fences() {
        // With aggressive background eviction, most writes end up durable
        // even though the program never fences — FFCCD's lazy persistence.
        let cfg = MachineConfig {
            evict_denom: 2,
            ..MachineConfig::default()
        };
        let e = PmEngine::new(cfg, 1 << 20);
        let mut ctx = Ctx::new(e.config());
        for i in 0..1000u64 {
            e.write(&mut ctx, i * 64, &[i as u8; 8]);
        }
        let img = e.crash_image();
        let persisted = (0..1000u64)
            .filter(|&i| i != 0 && img.media().read_vec(i * 64, 1)[0] == i as u8)
            .count();
        assert!(
            persisted > 300,
            "background eviction should persist many lines, got {persisted}"
        );
        assert!(
            persisted < 1000 || e.stats().evictions >= 1000,
            "some tail lines should still be volatile"
        );
    }

    #[test]
    fn crash_image_is_nondestructive() {
        let e = engine();
        let mut ctx = Ctx::new(e.config());
        e.write(&mut ctx, 0, &[5; 8]);
        let _img = e.crash_image();
        // Live engine still sees the cached write.
        assert_eq!(e.read_vec(&mut ctx, 0, 8), vec![5; 8]);
    }

    #[test]
    fn peek_sees_logical_state() {
        let e = engine();
        let mut ctx = Ctx::new(e.config());
        e.write_u64(&mut ctx, 64, 42);
        assert_eq!(e.peek_u64(64), 42);
        e.clwb(&mut ctx, 64);
        assert_eq!(e.peek_u64(64), 42);
        e.sfence(&mut ctx);
        assert_eq!(e.peek_u64(64), 42);
    }

    #[test]
    fn write_pending_counts_in_stats() {
        let e = engine();
        let mut ctx = Ctx::new(e.config());
        e.write_pending(&mut ctx, 0, &[1; 64]);
        e.clwb(&mut ctx, 0);
        e.sfence(&mut ctx);
        let st = e.stats();
        assert_eq!(st.pending_lines_queued, 1);
        assert_eq!(st.pending_lines_persisted, 1);
    }

    #[test]
    fn tlb_pressure_raises_cycle_cost() {
        let e = PmEngine::new(MachineConfig::default(), 4 << 20);
        // Touch 2 pages repeatedly vs 512 pages repeatedly.
        let mut ctx_few = Ctx::new(e.config());
        for i in 0..2000u64 {
            e.read_u64(&mut ctx_few, (i % 2) * 4096);
        }
        let mut ctx_many = Ctx::new(e.config());
        for i in 0..2000u64 {
            e.read_u64(&mut ctx_many, (i % 512) * 4096);
        }
        assert!(ctx_many.cycles() > ctx_few.cycles());
    }
}

#[cfg(test)]
mod banked_tests {
    use super::*;

    fn banked_cfg(banks: usize) -> MachineConfig {
        MachineConfig {
            banks,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn bank_count_resolves_from_config() {
        assert_eq!(engine_with(0).bank_count(), 1);
        assert_eq!(engine_with(8).bank_count(), 8);
    }

    /// Splitting the cache/WPQ across banks must conserve the configured
    /// totals even when they are not divisible by the bank count — the old
    /// `total / nbanks` floor silently shrank the aggregate.
    #[test]
    fn bank_capacity_split_preserves_totals() {
        for banks in [1usize, 3, 7, 8, 64] {
            let cfg = MachineConfig {
                banks,
                ..MachineConfig::default()
            };
            let e = PmEngine::new(cfg.clone(), 1 << 20);
            let caps = e.bank_capacities();
            assert_eq!(caps.len(), banks);
            let cache_total: usize = caps.iter().map(|&(c, _)| c).sum();
            let wpq_total: usize = caps.iter().map(|&(_, w)| w).sum();
            assert_eq!(
                cache_total, cfg.cache_capacity_lines,
                "banks={banks}: cache lines conserved"
            );
            assert_eq!(
                wpq_total, cfg.wpq_capacity,
                "banks={banks}: WPQ entries conserved"
            );
            // Shares differ by at most one entry, so no bank starves.
            let min = caps.iter().map(|&(c, _)| c).min().unwrap();
            let max = caps.iter().map(|&(c, _)| c).max().unwrap();
            assert!(max - min <= 1, "banks={banks}: balanced split");
        }
        // Degenerate split: more banks than entries still gives every bank
        // one entry (the aggregate legitimately exceeds the configured
        // total — a bank cannot function with a zero-capacity queue).
        let tiny = MachineConfig {
            banks: 64,
            wpq_capacity: 3,
            ..MachineConfig::default()
        };
        let e = PmEngine::new(tiny, 1 << 20);
        assert!(e.bank_capacities().iter().all(|&(_, w)| w == 1));
    }

    fn engine_with(banks: usize) -> PmEngine {
        PmEngine::new(banked_cfg(banks), 1 << 20)
    }

    #[test]
    fn banked_read_after_write_spanning_banks() {
        let e = engine_with(8);
        let mut ctx = Ctx::new(e.config());
        // 300 bytes span 5+ lines, hitting several banks in one call.
        let data: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        e.write(&mut ctx, 1000, &data);
        assert_eq!(e.read_vec(&mut ctx, 1000, 300), data);
        e.persist(&mut ctx, 1000, 300);
        let img = e.crash_image();
        assert_eq!(img.media().read_vec(1000, 300), data);
    }

    #[test]
    fn banked_clwb_sfence_durability_matches_single_bank() {
        for banks in [1usize, 8] {
            let cfg = MachineConfig {
                banks,
                evict_denom: u32::MAX,
                ..MachineConfig::default()
            };
            let e = PmEngine::new(cfg, 1 << 20);
            let mut ctx = Ctx::new(e.config());
            // Two lines in different banks (lines 3 and 4).
            e.write(&mut ctx, 3 * 64, &[0xA1; 8]);
            e.write(&mut ctx, 4 * 64, &[0xB2; 8]);
            e.clwb(&mut ctx, 3 * 64);
            e.clwb(&mut ctx, 4 * 64);
            let img = e.crash_image();
            assert_eq!(
                img.media().read_vec(3 * 64, 8),
                vec![0u8; 8],
                "banks={banks}: in-flight lines are not durable before the fence"
            );
            e.sfence(&mut ctx);
            let img = e.crash_image();
            assert_eq!(img.media().read_vec(3 * 64, 8), vec![0xA1; 8]);
            assert_eq!(img.media().read_vec(4 * 64, 8), vec![0xB2; 8]);
        }
    }

    #[test]
    #[should_panic(expected = "deterministic single-bank")]
    fn site_tracking_rejects_banked_engine() {
        engine_with(8).site_tracking_enumerate();
    }

    /// The shared-read fast path must charge exactly the cycles (and count
    /// exactly the hits/misses) the exclusive path does, only taking shared
    /// instead of exclusive bank locks — and it must actually engage. The
    /// exclusive side is the same 8-bank engine read through the
    /// `dirty_banks != 0` fallback, with nothing in flight to retire.
    #[test]
    fn shared_read_path_matches_exclusive_accounting() {
        let run = |shared: bool| {
            let e = engine_with(8);
            let mut ctx = Ctx::new(e.config());
            let data: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
            e.write(&mut ctx, 0, &data);
            e.persist(&mut ctx, 0, 4096);
            if !shared {
                ctx.dirty_banks = 1;
            }
            let c0 = ctx.cycles();
            let s0 = ctx.stats;
            // Resident re-reads (hits) plus a cold region (misses), with
            // reads spanning line boundaries.
            let mut buf = vec![0u8; 300];
            for i in 0..32u64 {
                e.read(&mut ctx, i * 100, &mut buf);
            }
            for i in 0..8u64 {
                e.read(&mut ctx, 512 * 1024 + i * 300, &mut buf);
            }
            assert_eq!(&buf[..4], &[0u8; 4], "cold region reads back zeroes");
            let mut s = ctx.stats;
            let cycles = ctx.cycles() - c0;
            s.cache_hits -= s0.cache_hits;
            s.cache_misses -= s0.cache_misses;
            let shared_lines = s.shared_line_reads;
            s.shared_line_reads = 0;
            (cycles, s.cache_hits, s.cache_misses, shared_lines)
        };
        let (cy_ex, hit_ex, miss_ex, shared_ex) = run(false);
        let (cy_sh, hit_sh, miss_sh, shared_sh) = run(true);
        assert_eq!(cy_ex, cy_sh, "cycle charges must not depend on lock mode");
        assert_eq!(hit_ex, hit_sh);
        assert_eq!(miss_ex, miss_sh);
        assert_eq!(shared_ex, 0, "exclusive mode never counts shared reads");
        assert!(
            shared_sh > 0,
            "the fast path must engage on resident re-reads"
        );
    }

    #[test]
    fn stats_aggregate_across_banks() {
        let e = engine_with(8);
        let mut ctx = Ctx::new(e.config());
        for i in 0..64u64 {
            e.write(&mut ctx, i * 64, &[i as u8; 8]);
        }
        for i in 0..64u64 {
            e.clwb(&mut ctx, i * 64);
        }
        e.sfence(&mut ctx);
        // Force WPQ traffic to media with more writes.
        for i in 64..256u64 {
            e.write(&mut ctx, i * 64, &[1; 8]);
            e.persist(&mut ctx, i * 64, 8);
        }
        let st = e.stats();
        assert!(st.media_line_writes > 0, "drains must be counted");
    }

    #[test]
    fn concurrent_disjoint_writers_with_snapshots() {
        // 4 threads hammer disjoint regions of a banked engine while the
        // main thread takes crash images; afterwards every thread's data
        // reads back intact and persisted prefixes appear in a final image.
        let e = PmEngine::new(banked_cfg(8), 4 << 20);
        let threads = 4u64;
        let region = (4 << 20) / threads;
        std::thread::scope(|s| {
            for t in 0..threads {
                let e = e.clone();
                s.spawn(move || {
                    let mut ctx = Ctx::new(e.config());
                    let base = t * region;
                    for i in 0..512u64 {
                        let off = base + (i * 192) % (region - 64);
                        e.write(&mut ctx, off, &[(t as u8) ^ (i as u8); 16]);
                        if i % 8 == 0 {
                            e.persist(&mut ctx, off, 16);
                        }
                        let mut buf = [0u8; 16];
                        e.read(&mut ctx, off, &mut buf);
                        assert_eq!(buf, [(t as u8) ^ (i as u8); 16]);
                    }
                });
            }
            for _ in 0..8 {
                let _ = e.crash_image();
                std::thread::yield_now();
            }
        });
        // All fenced writes are durable in the final image.
        let img = e.crash_image();
        for t in 0..threads {
            let off = t * region; // i == 0 was persisted by every thread
            assert_eq!(img.media().read_vec(off, 16), vec![t as u8; 16]);
        }
        assert!(e.stats().media_line_writes > 0);
    }
}

#[cfg(test)]
mod site_tests {
    use super::*;
    use crate::sites::SiteKind;

    fn quiet_cfg() -> MachineConfig {
        MachineConfig {
            evict_denom: u32::MAX, // no background eviction noise
            ..MachineConfig::default()
        }
    }

    /// A fixed little program: returns the engine after running it.
    fn program(e: &PmEngine) {
        let mut ctx = Ctx::new(e.config());
        for i in 0..8u64 {
            e.write(&mut ctx, i * 64, &[i as u8 + 1; 8]);
        }
        for i in 0..8u64 {
            e.clwb(&mut ctx, i * 64);
        }
        e.sfence(&mut ctx);
        e.write(&mut ctx, 4096, &[9; 8]);
        e.note_phase_site(2);
    }

    #[test]
    fn enumeration_is_deterministic() {
        let cfg = quiet_cfg();
        let run = || {
            let e = PmEngine::new(cfg.clone(), 1 << 20);
            e.site_tracking_enumerate();
            program(&e);
            e.site_tracking_stop()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same program, same seed → same site sequence");
        assert_eq!(a.count(SiteKind::Store), 9);
        assert_eq!(a.count(SiteKind::Clwb), 8);
        assert_eq!(a.count(SiteKind::Sfence), 1);
        assert_eq!(a.count(SiteKind::Phase), 1);
        assert!(a.count(SiteKind::WpqAccept) >= 8);
        assert!(a.total >= 27);
    }

    #[test]
    fn capture_ids_match_enumeration_and_do_not_perturb() {
        let cfg = quiet_cfg();
        let e = PmEngine::new(cfg.clone(), 1 << 20);
        e.site_tracking_enumerate();
        program(&e);
        let reference = e.site_tracking_stop();

        let e2 = PmEngine::new(cfg, 1 << 20);
        let targets: BTreeSet<u64> = [0u64, 3, 11, reference.total - 1].into_iter().collect();
        e2.site_tracking_capture(targets.clone());
        program(&e2);
        let replay = e2.site_tracking_stop();
        assert_eq!(replay, reference, "capturing must not perturb the run");
        let caps = e2.drain_site_captures();
        assert_eq!(
            caps.iter().map(|c| c.site.id).collect::<BTreeSet<_>>(),
            targets
        );
    }

    #[test]
    fn captured_images_bracket_the_persist_window() {
        // write → clwb → sfence: the image captured at the clwb site must
        // not contain the line; the one at the WPQ accept must.
        let e = PmEngine::new(quiet_cfg(), 1 << 20);
        // Site IDs: 0 = store, 1 = clwb, 2 = wpq-accept (inside sfence),
        // 3 = sfence.
        e.site_tracking_capture([1u64, 2].into_iter().collect());
        let mut ctx = Ctx::new(e.config());
        e.write(&mut ctx, 0, &[0xDD; 8]);
        e.clwb(&mut ctx, 0);
        e.sfence(&mut ctx);
        let caps = e.drain_site_captures();
        e.site_tracking_stop();
        assert_eq!(caps.len(), 2);
        assert_eq!(caps[0].site.kind, SiteKind::Clwb);
        assert_eq!(
            caps[0].image.media().read_vec(0, 8),
            vec![0u8; 8],
            "in-flight at the clwb site: not yet durable"
        );
        assert_eq!(caps[1].site.kind, SiteKind::WpqAccept);
        assert_eq!(
            caps[1].image.media().read_vec(0, 8),
            vec![0xDD; 8],
            "accepted by the WPQ: ADR-durable"
        );
    }
}

#[cfg(test)]
mod maybe_tests {
    use super::*;

    fn quiet_cfg() -> MachineConfig {
        MachineConfig {
            evict_denom: u32::MAX,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn dirty_line_is_maybe_and_subset_controls_it() {
        let e = PmEngine::new(quiet_cfg(), 1 << 20);
        let mut ctx = Ctx::new(e.config());
        e.write(&mut ctx, 0, &[0xAB; 8]);
        let maybe = e.maybe_persisted_set();
        assert_eq!(maybe.len(), 1);
        assert_eq!(maybe.entries()[0].origin, MaybeOrigin::DirtyCache);
        assert!(!maybe.entries()[0].pending);
        let base = e.crash_image();
        assert_eq!(base.media().read_vec(0, 8), vec![0u8; 8]);
        let full = base
            .with_persisted_subset(&maybe, maybe.full_mask())
            .unwrap();
        assert_eq!(full.media().read_vec(0, 8), vec![0xAB; 8]);
    }

    #[test]
    fn inflight_precedes_dirty_and_wpq_is_excluded() {
        let e = PmEngine::new(quiet_cfg(), 1 << 20);
        let mut ctx = Ctx::new(e.config());
        // Line 0: fenced — in the WPQ / media, certainly durable.
        e.write(&mut ctx, 0, &[1; 8]);
        e.clwb(&mut ctx, 0);
        e.sfence(&mut ctx);
        // Line 1: clwb'd but unfenced — in flight.
        e.write(&mut ctx, 64, &[2; 8]);
        e.clwb(&mut ctx, 64);
        // Line 2: dirty in cache. Written from a second core, whose per-op
        // retirement skips core 1's in-flight entry (it would otherwise
        // retire line 1 into the WPQ).
        let mut ctx2 = Ctx::new(e.config());
        e.write(&mut ctx2, 128, &[3; 8]);
        let maybe = e.maybe_persisted_set();
        let lines: Vec<u64> = maybe.entries().iter().map(|m| m.line.0).collect();
        assert!(!lines.contains(&0), "fenced line is not ambiguous");
        let origins: Vec<MaybeOrigin> = maybe.entries().iter().map(|m| m.origin).collect();
        let first_cache = origins
            .iter()
            .position(|o| *o == MaybeOrigin::DirtyCache)
            .expect("dirty resident present");
        assert!(
            origins[..first_cache]
                .iter()
                .all(|o| *o == MaybeOrigin::InFlight),
            "in-flight entries come first: {origins:?}"
        );
        assert!(lines.contains(&1) && lines.contains(&2));
    }

    #[test]
    fn redirtied_line_appears_twice_newest_wins() {
        let e = PmEngine::new(quiet_cfg(), 1 << 20);
        let mut a = Ctx::new(e.config());
        let mut b = Ctx::new(e.config());
        // Core A clwbs old data (in flight, tagged A); core B re-dirties
        // the line (B's per-op retirement skips A's entry).
        e.write(&mut a, 0, &[0x0A; 8]);
        e.clwb(&mut a, 0);
        e.write(&mut b, 0, &[0x0B; 8]);
        let maybe = e.maybe_persisted_set();
        let dupes: Vec<&MaybeLine> = maybe.entries().iter().filter(|m| m.line.0 == 0).collect();
        assert_eq!(dupes.len(), 2, "both volatile copies are ambiguous");
        assert_eq!(dupes[0].origin, MaybeOrigin::InFlight);
        assert_eq!(dupes[0].data[0], 0x0A);
        assert_eq!(dupes[1].origin, MaybeOrigin::DirtyCache);
        assert_eq!(dupes[1].data[0], 0x0B);
        let base = e.crash_image();
        let both = base
            .with_persisted_subset(&maybe, maybe.full_mask())
            .unwrap();
        assert_eq!(
            both.media().read_vec(0, 1),
            vec![0x0B],
            "cache copy is newer and must win"
        );
    }

    #[test]
    fn pending_maybe_line_carries_observer_fixup() {
        struct FixedFixup;
        impl PersistObserver for FixedFixup {
            fn pending_line_persisted(&self, _m: &mut Media, _l: Line) {}
            fn crash_flush(&self, _m: &mut Media, _i: &[Line]) {}
            fn line_reached_fixup(&self, line: Line) -> Option<(u64, u64)> {
                Some((1 << 18, 1u64 << (line.0 % 64)))
            }
        }
        let e = PmEngine::new(quiet_cfg(), 1 << 20);
        e.set_observer(Arc::new(FixedFixup));
        let mut ctx = Ctx::new(e.config());
        e.write_pending(&mut ctx, 3 * 64, &[7; 8]);
        e.write(&mut ctx, 4 * 64, &[8; 8]);
        let maybe = e.maybe_persisted_set();
        let pending: Vec<&MaybeLine> = maybe.entries().iter().filter(|m| m.pending).collect();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].reached_fixup, Some((1 << 18, 1u64 << 3)));
        assert!(
            maybe
                .entries()
                .iter()
                .filter(|m| !m.pending)
                .all(|m| m.reached_fixup.is_none()),
            "non-pending lines never get a fixup"
        );
        let base = e.crash_image();
        let full = base
            .with_persisted_subset(&maybe, maybe.full_mask())
            .unwrap();
        assert_eq!(full.media().read_u64(1 << 18) & (1 << 3), 1 << 3);
    }

    #[test]
    fn eadr_has_empty_maybe_set() {
        let cfg = MachineConfig {
            eadr: true,
            evict_denom: u32::MAX,
            ..MachineConfig::default()
        };
        let e = PmEngine::new(cfg, 1 << 16);
        let mut ctx = Ctx::new(e.config());
        e.write(&mut ctx, 0, &[9; 8]);
        e.clwb(&mut ctx, 64);
        assert!(e.maybe_persisted_set().is_empty());
    }

    #[test]
    fn site_capture_base_image_is_empty_subset() {
        let e = PmEngine::new(quiet_cfg(), 1 << 20);
        e.site_tracking_capture([2u64].into_iter().collect());
        let mut ctx = Ctx::new(e.config());
        e.write(&mut ctx, 0, &[1; 8]);
        e.write(&mut ctx, 64, &[2; 8]);
        e.write(&mut ctx, 128, &[3; 8]);
        let caps = e.drain_site_captures();
        e.site_tracking_stop();
        assert_eq!(caps.len(), 1);
        let cap = &caps[0];
        assert_eq!(cap.maybe.len(), 3, "three dirty lines at site 2");
        let empty = cap.image.with_persisted_subset(&cap.maybe, 0).unwrap();
        assert_eq!(
            empty.media().as_bytes(),
            cap.image.media().as_bytes(),
            "mask 0 reproduces the captured base image byte-for-byte"
        );
        // Dirty residents are ordered newest-first.
        assert_eq!(cap.maybe.entries()[0].line.0, 2);
        assert_eq!(cap.maybe.entries()[2].line.0, 0);
    }
}

#[cfg(test)]
mod eadr_tests {
    use super::*;

    #[test]
    fn eadr_makes_unfenced_writes_durable() {
        let cfg = MachineConfig {
            eadr: true,
            evict_denom: u32::MAX,
            ..MachineConfig::default()
        };
        let e = PmEngine::new(cfg, 1 << 16);
        let mut ctx = Ctx::new(e.config());
        e.write(&mut ctx, 128, b"no fences at all");
        let img = e.crash_image();
        assert_eq!(&img.media().read_vec(128, 16), b"no fences at all");
    }

    #[test]
    fn adr_loses_the_same_write() {
        let cfg = MachineConfig {
            eadr: false,
            evict_denom: u32::MAX,
            ..MachineConfig::default()
        };
        let e = PmEngine::new(cfg, 1 << 16);
        let mut ctx = Ctx::new(e.config());
        e.write(&mut ctx, 128, b"no fences at all");
        let img = e.crash_image();
        assert_eq!(img.media().read_vec(128, 16), vec![0u8; 16]);
    }

    #[test]
    fn eadr_pending_lines_count_as_reached() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        struct Counter(AtomicU64);
        impl crate::observer::PersistObserver for Counter {
            fn pending_line_persisted(&self, _m: &mut Media, _l: Line) {}
            fn crash_flush(&self, _m: &mut Media, in_flight: &[Line]) {
                self.0.fetch_add(in_flight.len() as u64, Ordering::Relaxed);
            }
        }
        let cfg = MachineConfig {
            eadr: true,
            evict_denom: u32::MAX,
            ..MachineConfig::default()
        };
        let e = PmEngine::new(cfg, 1 << 16);
        let counter = Arc::new(Counter(AtomicU64::new(0)));
        e.set_observer(counter.clone());
        let mut ctx = Ctx::new(e.config());
        e.write_pending(&mut ctx, 0, &[7u8; 64]);
        let _ = e.crash_image();
        assert_eq!(
            counter.0.load(Ordering::Relaxed),
            1,
            "pending cache line reaches persistence under eADR"
        );
    }
}
