//! Defragmentation phases: marking, sweep, summary, compaction, termination
//! (paper §3.3.1 and §5).
//!
//! With a sharded heap every stop-the-world pass (mark, sweep, summary) is
//! still global, but the summary runs once *per shard*, arming one
//! independent cycle per GC domain: its own cycle header slot, its own
//! [`CycleMirror`], its own relocation/destination frame sets. Compaction
//! then pumps the domains concurrently and each domain terminates on its
//! own, so shard A can still be relocating while shard B is already idle
//! and mutators keep running throughout. At `shards = 1` every loop below
//! collapses to the pre-sharding single-cycle behaviour byte-for-byte.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ffccd_arch::PmftEntry;
use ffccd_pmem::Ctx;
use ffccd_pmop::{FrameKind, PmPtr, FRAME_BYTES, OBJ_HEADER_BYTES, SLOT_BYTES};

use crate::heap::{CycleMirror, CycleState, DefragHeap};
use crate::walk::walk_refs;

/// Compacting no more than this fraction of a page's capacity is worthwhile;
/// fuller pages cost more copies than the footprint they release.
const MAX_EVACUATION_OCCUPANCY: f64 = 0.9;

/// Phase-transition codes reported to the engine's crash-site tracker
/// (`PmEngine::note_phase_site`): each marks a durability-relevant GC state
/// change that a crash-site sweep wants to probe right after.
pub mod phase_sites {
    /// The stop-the-world mark/sweep/summary pass began.
    pub const STW_BEGIN: u64 = 0;
    /// A compaction cycle was armed (cycle header persisted, RBB/CLU on).
    pub const CYCLE_ARMED: u64 = 1;
    /// Termination (`finish_cycle`, §5) began.
    pub const TERMINATE_BEGIN: u64 = 2;
    /// Termination completed; the heap is idle again.
    pub const TERMINATE_END: u64 = 3;
}

impl DefragHeap {
    /// The monitor hook (§5): called from allocation sites; begins a
    /// defragmentation cycle when fragR exceeds the trigger ratio. Returns
    /// whether a cycle started.
    pub fn maybe_defrag(&self, ctx: &mut Ctx) -> bool {
        if self.in_cycle() || self.scheme() == crate::Scheme::Baseline {
            return false;
        }
        // Trigger hysteresis: let the application run between cycles, or a
        // falling live set re-relocates the same survivors continuously.
        let now = self.inner.op_counter.load(Ordering::Relaxed);
        let last = self
            .inner
            .domains
            .iter()
            .map(|d| d.last_cycle_start.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        if last != 0 && now.saturating_sub(last) < self.inner.cfg.cooldown_ops {
            return false;
        }
        let n = self.num_shards();
        let triggered = if n == 1 {
            let st = self.pool().stats();
            st.live_bytes >= self.inner.cfg.min_live_bytes
                && st.frag_ratio >= self.inner.cfg.trigger_ratio
        } else {
            // Per-shard accounting: any shard fragmented past the trigger
            // (carrying its share of the min-live floor) starts a pass; the
            // per-shard summary then only arms shards with work to do.
            (0..n).any(|s| {
                let st = self.pool().shard_stats(s);
                st.live_bytes >= self.inner.cfg.min_live_bytes / n as u64
                    && st.frag_ratio >= self.inner.cfg.trigger_ratio
            })
        };
        if !triggered {
            return false;
        }
        self.defrag_now(ctx)
    }

    /// Unconditionally runs the stop-the-world phases (marking, sweep,
    /// summary) and arms one compaction cycle per shard with anything worth
    /// compacting. Returns `false` if no shard started a cycle.
    pub fn defrag_now(&self, ctx: &mut Ctx) -> bool {
        if self.in_cycle() || self.scheme() == crate::Scheme::Baseline {
            return false;
        }
        let _w = self.inner.world.write();
        // A racing trigger may have armed a cycle while this one waited
        // for the world lock; a second summary would re-arm a live domain.
        if self.in_cycle() {
            return false;
        }
        self.engine().note_phase_site(phase_sites::STW_BEGIN);
        let stats = &self.inner.stats;

        // -- marking: STW reachability from the roots (idempotent) --
        let t0 = ctx.cycles();
        let marked = walk_refs(
            ctx,
            self.engine(),
            self.inner.pool.registry(),
            self.inner.pool.layout(),
            |_, _, _| None,
        );
        stats.add_cycles(&stats.mark_cycles, ctx.cycles() - t0);

        // -- sweep: unreachable objects go back to the free lists --
        let t0 = ctx.cycles();
        self.sweep(ctx, &marked);
        stats.add_cycles(&stats.sweep_cycles, ctx.cycles() - t0);

        // -- summary: rank pages, pick relocation sets, build the PMFTs --
        let t0 = ctx.cycles();
        // Empty committed pages are free wins (hoisted out of the per-shard
        // pass; same op-stream position as the old single-shard summary).
        self.inner.pool.decommit_empty_pages();
        let mut started = false;
        for s in 0..self.num_shards() {
            started |= self.summary_shard(ctx, s);
        }
        stats.add_cycles(&stats.summary_cycles, ctx.cycles() - t0);
        started
    }

    fn sweep(&self, ctx: &mut Ctx, marked: &HashSet<u64>) {
        let pool = &self.inner.pool;
        let mut dead: Vec<PmPtr> = Vec::new();
        for frame in 0..pool.layout().num_frames {
            let st = pool.frame_state(frame);
            let is_head =
                st.kind == FrameKind::Active || (st.kind == FrameKind::Huge && st.is_start(0));
            if !is_head {
                continue;
            }
            for obj in pool.frame_objects(ctx, frame) {
                if !marked.contains(&obj.ptr.offset()) {
                    dead.push(obj.ptr);
                }
            }
        }
        for ptr in dead {
            if pool.pfree(ctx, ptr).is_ok() {
                self.inner
                    .stats
                    .add_cycles(&self.inner.stats.objects_swept, 1);
            }
        }
    }

    /// The summary phase (§5) for one shard: per-page fragmentation ranking
    /// over the shard's own pages, top-k selection toward the target ratio,
    /// deterministic destination assignment *within the shard*, PMFT
    /// persistence, hardware arming. Caller holds the world write lock.
    fn summary_shard(&self, ctx: &mut Ctx, shard: usize) -> bool {
        let inner = &*self.inner;
        let pool = &inner.pool;
        let layout = *pool.layout();
        let fpp = layout.frames_per_os_page();
        let nshards = inner.domains.len();

        // Candidate pages: owned by this shard, committed, fully evacuable
        // (only Free/Active frames), sorted most-fragmented (least live)
        // first.
        struct Cand {
            page: u64,
            live: u64,
            frames: Vec<u64>,
        }
        let mut cands: Vec<Cand> = Vec::new();
        for page in 0..layout.num_os_pages() {
            if page % nshards as u64 != shard as u64 {
                continue;
            }
            if !pool.page_committed(page) {
                continue;
            }
            let mut frames = Vec::new();
            let mut live = 0u64;
            let mut evacuable = true;
            for f in page * fpp..(page + 1) * fpp {
                let st = pool.frame_state(f);
                match st.kind {
                    FrameKind::Free => {}
                    FrameKind::Active => {
                        // Line-aligned destinations inflate slot needs by up
                        // to a third; a frame whose objects cannot fit one
                        // destination frame cannot honor the single-major-
                        // distance PMFT entry, so its page stays put.
                        let needed: usize = pool
                            .frame_objects(ctx, f)
                            .iter()
                            .map(|o| o.slots.div_ceil(4) * 4)
                            .sum();
                        if needed > Self::SLOTS_PER_FRAME {
                            evacuable = false;
                            break;
                        }
                        live += st.live_bytes as u64;
                        frames.push(f);
                    }
                    _ => {
                        evacuable = false;
                        break;
                    }
                }
            }
            if evacuable && !frames.is_empty() {
                cands.push(Cand { page, live, frames });
            }
        }
        cands.sort_by_key(|c| c.live);

        // Footprint projection against this shard's own accounting: the
        // cycle frees this shard's pages and commits destinations on this
        // shard, so its fragmentation ratio is the one the cycle moves.
        let pool_stats = pool.shard_stats(shard);
        let footprint = pool_stats.footprint_bytes;
        let live_total = pool_stats.live_bytes.max(1);
        let mut selected: Vec<Cand> = Vec::new();
        let mut sel_slots: u64 = 0; // estimated destination slots needed
        for c in cands {
            if selected.len() >= inner.cfg.max_pages_per_cycle {
                break;
            }
            // Projection includes the pages new destination frames commit:
            // releasing k pages only helps net of where their objects land.
            let dest_frames = sel_slots.div_ceil(256);
            let dest_pages = dest_frames.div_ceil(fpp);
            let projected = (footprint + dest_pages * layout.os_page_size
                - selected.len() as u64 * layout.os_page_size) as f64
                / live_total as f64;
            if projected <= inner.cfg.target_ratio {
                break;
            }
            if c.live as f64 / layout.os_page_size as f64 > MAX_EVACUATION_OCCUPANCY {
                break; // remaining pages are even fuller (sorted)
            }
            // ~1.5× covers per-object slot rounding plus line alignment.
            sel_slots += c.live.div_ceil(SLOT_BYTES) * 3 / 2;
            selected.push(c);
        }
        if selected.is_empty() {
            return false;
        }
        let avoid: HashSet<u64> = selected.iter().map(|c| c.page).collect();

        // Deterministic destination assignment + PMFT build.
        let engine = self.engine();
        let mut reloc_frames = Vec::new();
        let mut dest_frames: Vec<u64> = Vec::new();
        // (frame, entry, object count) triples feeding the cycle mirror.
        let mut mirror_items: Vec<(u64, PmftEntry, usize)> = Vec::new();
        let mut pending: VecDeque<(u64, usize)> = VecDeque::new();
        let mut cur_dest: Option<(u64, usize)> = None;
        'pages: for c in &selected {
            for &frame in &c.frames {
                let objs = pool.frame_objects(ctx, frame);
                if objs.is_empty() {
                    continue;
                }
                // Destinations are cacheline-aligned so no two objects share
                // a destination line: the reached bitmap is per-line, and a
                // shared line evicted by one object's copy would wrongly
                // mark its neighbour "reached" (see DESIGN.md).
                let needed: usize = objs.iter().map(|o| o.slots.div_ceil(4) * 4).sum();
                // One relocation frame maps to exactly one destination frame
                // (single major distance per PMFT entry, §4.3.1).
                let dest_ok = cur_dest
                    .map(|(_, next)| Self::SLOTS_PER_FRAME - next >= needed)
                    .unwrap_or(false);
                if !dest_ok {
                    match pool.take_destination_frame_avoiding_in(ctx, shard, &avoid) {
                        Ok(d) => {
                            // Fresh reached word for the new destination.
                            engine.write_u64(ctx, inner.meta.reached_word(d), 0);
                            engine.persist(ctx, inner.meta.reached_word(d), 8);
                            dest_frames.push(d);
                            cur_dest = Some((d, 0));
                        }
                        Err(_) => break 'pages, // shard exhausted: compact what we have
                    }
                }
                let (dframe, mut next_slot) = cur_dest.expect("destination frame just ensured");
                let mut entry = PmftEntry::new(frame, dframe);
                // PMFT entry first, then reservations, then (much later) the
                // cycle header — so a pre-header crash can roll all of it back.
                for obj in &objs {
                    debug_assert!(next_slot % 4 == 0, "destinations stay line-aligned");
                    entry.map(obj.slot, next_slot as u8);
                    pending.push_back((frame, obj.slot));
                    next_slot += obj.slots.div_ceil(4) * 4;
                }
                inner.pmft.store(ctx, engine, &entry);
                for obj in &objs {
                    let dslot = entry.lookup(obj.slot).expect("just mapped") as usize;
                    assert!(
                        dslot + obj.slots <= Self::SLOTS_PER_FRAME,
                        "BUG: obj slot={} slots={} size={} dslot={dslot} needed={needed} frame={frame}",
                        obj.slot, obj.slots, obj.size
                    );
                    pool.reserve_destination_slots(
                        ctx,
                        dframe,
                        dslot,
                        obj.slots,
                        obj.size + OBJ_HEADER_BYTES as u32,
                    );
                }
                cur_dest = Some((dframe, next_slot));
                // Zero the moved bitmap; set the frag-page bit.
                engine.write(ctx, inner.meta.moved_bitmap(frame), &[0u8; 32]);
                engine.persist(ctx, inner.meta.moved_bitmap(frame), 32);
                let fb = inner.meta.fragmap_byte(frame);
                let byte = engine.read_u8(ctx, fb) | 1 << (frame % 8);
                engine.write(ctx, fb, &[byte]);
                engine.persist(ctx, fb, 1);
                pool.set_frame_kind(frame, FrameKind::Relocation);
                mirror_items.push((frame, entry, objs.len()));
                reloc_frames.push(frame);
            }
        }
        if reloc_frames.is_empty() {
            // Roll destinations back (nothing got mapped into them).
            for d in dest_frames {
                self.inner.pool.release_frame(ctx, d);
            }
            return false;
        }

        // Commit point: the persisted per-shard cycle header slot makes the
        // cycle real. Shard 0's slot is the pre-sharding header address.
        let hdr = inner.meta.cycle_header + 16 * shard as u64;
        engine.write_u64(ctx, hdr, 1);
        engine.write_u64(ctx, hdr + 8, scheme_code(inner.cfg.scheme));
        engine.persist(ctx, hdr, 16);

        // Arm the hardware. The first cycle to arm installs the observer
        // and starts from an empty RBB; later shards arming while others
        // are live only drop their own destination frames' stale entries —
        // a full invalidate would discard the live shards' buffered bits.
        if let Some(rbb) = &inner.rbb {
            if inner.active_cycles.load(Ordering::Acquire) == 0 {
                rbb.invalidate();
                engine.set_observer(rbb.clone());
            } else {
                rbb.invalidate_frames(&dest_frames);
            }
        }
        if let Some(clu) = &inner.clu {
            let entries: Vec<PmftEntry> = mirror_items.iter().map(|(_, e, _)| e.clone()).collect();
            clu.begin_cycle_shard(engine, pool.base(), &entries, shard, nshards);
        }
        // Mirror first, then cycle state, then the domain flag, then the
        // global active count barrier paths key on — so any thread seeing
        // the cycle sees the mirror.
        let domain = &inner.domains[shard];
        *domain.mirror.write() = Some(Arc::new(CycleMirror::new(
            layout.num_frames as usize,
            mirror_items,
        )));
        *domain.cycle.lock() = Some(CycleState {
            reloc_frames,
            dest_frames,
            pending,
        });
        domain.in_cycle.store(true, Ordering::Release);
        inner.active_cycles.fetch_add(1, Ordering::Release);
        domain.last_cycle_start.store(
            inner.op_counter.load(Ordering::Relaxed).max(1),
            Ordering::Relaxed,
        );
        engine.note_phase_site(phase_sites::CYCLE_ARMED);
        true
    }

    /// Relocates up to `budget` pending objects (the concurrent compaction
    /// driver's unit of work) from one active domain, chosen round-robin so
    /// concurrent callers spread across shards. Returns `true` while any
    /// cycle stays active; a domain whose queue drains terminates.
    pub fn step_compaction(&self, ctx: &mut Ctx, budget: usize) -> bool {
        if !self.in_cycle() {
            return false;
        }
        let n = self.inner.domains.len();
        let start = self.inner.pump_cursor.fetch_add(1, Ordering::Relaxed) % n;
        let Some(shard) = (0..n)
            .map(|i| (start + i) % n)
            .find(|&s| self.inner.domains[s].in_cycle.load(Ordering::Acquire))
        else {
            return false;
        };
        self.step_domain(ctx, shard, budget);
        self.in_cycle()
    }

    /// One pump of domain `shard`: pops up to `budget` work items, then
    /// terminates the domain's cycle if its queue drained.
    fn step_domain(&self, ctx: &mut Ctx, shard: usize, budget: usize) {
        let domain = &self.inner.domains[shard];
        {
            let _g = self.inner.world.read();
            // Entry lookups come from the lock-free mirror snapshot; the
            // cycle mutex is held only to pop the work item.
            let Some(mirror) = domain.mirror.read().clone() else {
                return;
            };
            for _ in 0..budget {
                let item = {
                    let mut guard = domain.cycle.lock();
                    let Some(cs) = guard.as_mut() else {
                        return;
                    };
                    match cs.pending.pop_front() {
                        Some(it) => it,
                        None => break,
                    }
                };
                // Track the popped item until its relocation lands: a
                // pumper dying mid-copy (thread-crash fault model) must not
                // silently drop it — termination drains the leftovers.
                domain.inflight.lock().push(item);
                let (frame, slot) = item;
                let e = mirror.entry(frame).expect("entry for pending frame");
                let dslot = e.lookup(slot).expect("mapped slot");
                self.ensure_relocated(ctx, frame, slot, e.dest_frame, dslot);
                domain.inflight.lock().retain(|it| *it != item);
            }
        }
        let remaining = domain
            .cycle
            .lock()
            .as_ref()
            .map(|c| c.pending.len())
            .unwrap_or(0);
        if remaining == 0 {
            self.finish_domain(ctx, shard);
        }
    }

    /// `terminate()` (§5) over every domain: finishes all pending
    /// relocation and reference updates, persists everything, releases the
    /// relocation frames and tears each active cycle down.
    pub fn finish_cycle(&self, ctx: &mut Ctx) {
        for s in 0..self.inner.domains.len() {
            self.finish_domain(ctx, s);
        }
    }

    /// Terminates domain `shard`'s cycle. Stop-the-world, but runs once per
    /// cycle; other domains' cycles stay armed throughout.
    fn finish_domain(&self, ctx: &mut Ctx, shard: usize) {
        let inner = &*self.inner;
        let domain = &inner.domains[shard];
        if !domain.in_cycle.load(Ordering::Acquire) {
            return;
        }
        let _w = inner.world.write();
        // Work from a *snapshot*: the shared cycle state and mirror stay
        // published until step 7. A terminator dying mid-teardown
        // (thread-crash fault model) then leaves a state the surviving
        // mutators' barriers keep working against and the next finisher
        // re-enters — every step below is idempotent, with host-side
        // frame-kind guards on the ones that are not (frame release,
        // destination conversion). Taking the state up front instead used
        // to orphan the cycle forever: `in_cycle` stayed set with the
        // state gone, so every later finish early-returned and the
        // persistent header/PMFT/frag residue outlived `exit()`.
        let Some(cs) = domain.cycle.lock().clone() else {
            return;
        };
        let mirror = domain
            .mirror
            .read()
            .clone()
            .expect("mirror exists while a cycle is active");
        // Items popped from `pending` by pumpers that died mid-relocation.
        let leftover: Vec<(u64, usize)> = domain.inflight.lock().clone();
        let engine = self.engine();
        engine.note_phase_site(phase_sites::TERMINATE_BEGIN);
        let layout = *inner.pool.layout();
        let hdr = inner.meta.cycle_header + 16 * shard as u64;

        // 1. finish pending relocations (single-object drain, mirror paths
        //    off — see `ensure_relocated_inner`), plus any item a dead
        //    pumper popped but never finished. The frame-kind guard skips
        //    frames a previous, interrupted finisher already released.
        for &(frame, slot) in cs.pending.iter().chain(leftover.iter()) {
            if inner.pool.frame_state(frame).kind != FrameKind::Relocation {
                continue;
            }
            let e = mirror.entry(frame).expect("entry for pending frame");
            let d = e.lookup(slot).expect("mapped slot");
            self.ensure_relocated_inner(ctx, frame, slot, e.dest_frame, d, false);
        }

        // 2. durability: destination data and moved bits must be in PM
        //    before any relocation frame is reused (termination is rare, so
        //    fencing here is cheap in aggregate).
        for &d in &cs.dest_frames {
            engine.persist(ctx, layout.frame_start(d), FRAME_BYTES);
        }
        for &f in &cs.reloc_frames {
            engine.persist(ctx, inner.meta.moved_bitmap(f), 32);
        }

        // 3. reference fixup rescan: no reference may keep pointing into
        //    this domain's relocation frames, and every barrier-updated
        //    reference must be durable before the PMFT entries disappear.
        //    Traversal must follow *other* live domains' already-moved
        //    objects to their destination copies — post-move stores land
        //    only there, so walking the stale source could miss references
        //    into our relocation frames.
        let t0 = ctx.cycles();
        // Only frames still in Relocation kind get their references
        // rewritten: on re-entry after an interrupted teardown, a released
        // frame may already hold fresh allocations whose references must
        // not be redirected through the stale mapping.
        let reloc_set: HashSet<u64> = cs
            .reloc_frames
            .iter()
            .copied()
            .filter(|&f| inner.pool.frame_state(f).kind == FrameKind::Relocation)
            .collect();
        let dest_set: HashSet<u64> = cs.dest_frames.iter().copied().collect();
        let others: Vec<Arc<CycleMirror>> = inner
            .domains
            .iter()
            .enumerate()
            .filter(|&(i, d)| i != shard && d.in_cycle.load(Ordering::Acquire))
            .filter_map(|(_, d)| d.mirror.read().clone())
            .collect();
        {
            let engine2 = engine.clone();
            let entries = &mirror;
            let me = self.clone();
            let meta = inner.meta;
            walk_refs(
                ctx,
                engine,
                inner.pool.registry(),
                &layout,
                move |ctx, slot_off, target| {
                    if target.is_null() {
                        return None;
                    }
                    let hdr_off = target.offset() - OBJ_HEADER_BYTES;
                    let frame = layout.frame_of(hdr_off)?;
                    let slot = ((hdr_off - layout.frame_start(frame)) / SLOT_BYTES) as usize;
                    if reloc_set.contains(&frame) {
                        let e = entries.entry(frame)?;
                        let d = e.lookup(slot)?;
                        let new = me.dest_ptr(e, d);
                        engine2.write_u64(ctx, slot_off, new.raw());
                        engine2.clwb(ctx, slot_off);
                        // The slot may live in another live domain's
                        // destination copy: keep the SFCCD source mirror in
                        // step or its recovery re-copy would roll this
                        // rewrite back. No-op outside SFCCD cycles; our own
                        // terminating shard is excluded (its sources are
                        // released below).
                        me.sfccd_mirror_excluding(
                            ctx,
                            slot_off,
                            &new.raw().to_le_bytes(),
                            Some(shard),
                        );
                        Some(new)
                    } else if dest_set.contains(&frame) {
                        engine2.clwb(ctx, slot_off);
                        None
                    } else {
                        // Redirect traversal (without storing) through other
                        // domains' moved objects: their destination copy is
                        // the authoritative one. The world write lock keeps
                        // every moved bit frozen during this walk.
                        for m in &others {
                            let Some(e) = m.entry(frame) else { continue };
                            let Some(d) = e.lookup(slot) else { continue };
                            let byte_off = meta.moved_bitmap(frame) + slot as u64 / 8;
                            let moved = engine2.peek_vec(byte_off, 1)[0] >> (slot % 8) & 1 == 1;
                            if moved {
                                return Some(me.dest_ptr(e, d));
                            }
                        }
                        None
                    }
                },
            );
        }
        engine.sfence(ctx);
        inner
            .stats
            .add_cycles(&inner.stats.ref_fixup_cycles, ctx.cycles() - t0);

        // 3b. commit point: all destination data and reference rewrites are
        //     durable, so advance the cycle header to state 2 ("fixup
        //     durable, teardown in progress"). Past this point recovery must
        //     only *complete* the teardown — frames released below lose
        //     their PMFT entries, and a state-1-style re-copy would
        //     resurrect pre-fixup references into freed frames.
        engine.write_u64(ctx, hdr, 2);
        engine.persist(ctx, hdr, 8);

        // 4. per-frame teardown: frag bit, the frame itself, then the PMFT
        //    entry — the entry goes last so state-2 recovery can finish any
        //    frame whose teardown was interrupted. The kind guard makes the
        //    release single-shot across re-entries (releasing a frame twice
        //    would double-insert it into the free list).
        for &f in &cs.reloc_frames {
            let fb = inner.meta.fragmap_byte(f);
            let byte = engine.read_u8(ctx, fb) & !(1 << (f % 8));
            engine.write(ctx, fb, &[byte]);
            engine.persist(ctx, fb, 1);
            if inner.pool.frame_state(f).kind == FrameKind::Relocation {
                inner.pool.release_frame(ctx, f);
                inner.stats.add_cycles(&inner.stats.frames_released, 1);
            }
            inner.pmft.clear(ctx, engine, f);
        }

        // 5. destinations become ordinary frames (single-shot, kind-
        //    guarded); reached words reset.
        for &d in &cs.dest_frames {
            if inner.pool.frame_state(d).kind == FrameKind::Destination {
                inner.pool.finish_destination_frame(d);
            }
            engine.write_u64(ctx, inner.meta.reached_word(d), 0);
            engine.persist(ctx, inner.meta.reached_word(d), 8);
        }

        // 6. cycle header slot back to idle.
        engine.write_u64(ctx, hdr, 0);
        engine.persist(ctx, hdr, 8);

        // 7. disarm hardware. Only the last live cycle takes the observer
        //    down; earlier finishers drop just their own destination
        //    frames' buffered bits (the other shards still need theirs).
        let last = inner.active_cycles.load(Ordering::Acquire) == 1;
        if let Some(rbb) = &inner.rbb {
            if last {
                engine.clear_observer();
                rbb.invalidate();
            } else {
                rbb.invalidate_frames(&cs.dest_frames);
            }
        }
        if let Some(clu) = &inner.clu {
            clu.end_cycle_shard(shard);
        }
        // Teardown is fully durable: only now does the shared volatile
        // state come down (mirror and cycle first, then the flags the
        // barrier paths key on).
        *domain.cycle.lock() = None;
        *domain.mirror.write() = None;
        domain.inflight.lock().clear();
        domain.in_cycle.store(false, Ordering::Release);
        inner.active_cycles.fetch_sub(1, Ordering::Release);
        inner.stats.add_cycles(&inner.stats.cycles_completed, 1);
        // Terminating is a natural synchronization point: make this
        // context's batched barrier counters visible in the shared stats.
        self.flush_stats(ctx);
        engine.note_phase_site(phase_sites::TERMINATE_END);
    }

    /// Live-heap mirror of recovery's summary rollback: rolls back any
    /// shard whose *persistent* cycle residue (PMFT entries, frag bits,
    /// cycle header) or pool frame roles (Relocation/Destination) survived
    /// with no volatile cycle behind them. That state is orphaned when a
    /// thread dies inside the summary phase (thread-crash fault model)
    /// before the volatile arm at the end of `summary_shard`:
    /// machine-crash recovery would roll it back at reopen ("a pre-header
    /// crash can roll all of it back"), but the *live* heap would
    /// otherwise leak the frames and fail validation. Detection uses
    /// uncharged host peeks only, so a clean exit leaves the simulated op
    /// stream untouched.
    fn heal_orphaned_summaries(&self, ctx: &mut Ctx) {
        let inner = &*self.inner;
        let engine = self.engine();
        let nshards = inner.domains.len();
        let layout = *inner.pool.layout();
        let all = inner.pmft.load_all(engine);
        for shard in 0..nshards {
            let domain = &inner.domains[shard];
            if domain.in_cycle.load(Ordering::Acquire) {
                continue;
            }
            let hdr = inner.meta.cycle_header + 16 * shard as u64;
            let hdr_state = engine.with_media(|m| m.read_u64(hdr));
            let entries: Vec<_> = all
                .iter()
                .filter(|e| layout.shard_of_frame(e.reloc_frame, nshards) == shard)
                .collect();
            // Frames still parked in a GC role with no cycle to back them
            // (a partially-assembled summary may take a destination frame
            // before storing any entry against it).
            let stray: Vec<u64> = (0..layout.num_frames)
                .filter(|&f| layout.shard_of_frame(f, nshards) == shard)
                .filter(|&f| {
                    matches!(
                        inner.pool.frame_state(f).kind,
                        FrameKind::Relocation | FrameKind::Destination
                    )
                })
                .collect();
            if hdr_state == 0 && entries.is_empty() && stray.is_empty() {
                continue;
            }
            let _w = inner.world.write();
            for e in &entries {
                // Frag bit first, PMFT entry last — `rollback_summary`'s
                // order, keeping the rollback itself re-runnable.
                let fb = inner.meta.fragmap_byte(e.reloc_frame);
                let byte = engine.read_u8(ctx, fb) & !(1 << (e.reloc_frame % 8));
                engine.write(ctx, fb, &[byte]);
                engine.persist(ctx, fb, 1);
                inner.pmft.clear(ctx, engine, e.reloc_frame);
            }
            for &f in &stray {
                match inner.pool.frame_state(f).kind {
                    // Never armed: the objects still live at the source.
                    FrameKind::Relocation => inner.pool.set_frame_kind(f, FrameKind::Active),
                    // Any persisted reservations vacate with the frame.
                    FrameKind::Destination => inner.pool.release_frame(ctx, f),
                    _ => {}
                }
            }
            if hdr_state != 0 {
                engine.write_u64(ctx, hdr, 0);
                engine.persist(ctx, hdr, 16);
            }
        }
    }

    /// `exit()` (§5): finishes any ongoing defragmentation, rolls back any
    /// summary-phase residue orphaned by a dead thread, and releases all
    /// related metadata.
    pub fn exit(&self, ctx: &mut Ctx) {
        self.finish_cycle(ctx);
        self.heal_orphaned_summaries(ctx);
        self.flush_stats(ctx);
    }
}

/// Persistent code identifying the scheme in the cycle header (recovery
/// sanity check).
pub(crate) fn scheme_code(s: crate::Scheme) -> u64 {
    match s {
        crate::Scheme::Baseline => 0,
        crate::Scheme::Espresso => 1,
        crate::Scheme::Sfccd => 2,
        crate::Scheme::FfccdFenceFree => 3,
        crate::Scheme::FfccdCheckLookup => 4,
    }
}
