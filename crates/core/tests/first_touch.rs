//! First-touch relocation correctness: free-running mutator threads
//! racing `ensure_relocated` on slots that share a moved-bitmap byte (so
//! they contend on one relocation stripe) must relocate every object
//! exactly once, and per-shard cycles must stay inside their shard.
//!
//! Exactly-once is observable from the outside: `objects_relocated` is
//! bumped once per relocation, so a double relocation inflates the
//! counter above the single-threaded ground truth for the same heap, and
//! a lost relocation (or a copy racing a reference fixup) corrupts the
//! list digest or the validator.

use std::sync::Arc;

use proptest::prelude::*;

use ffccd::{validate_heap, DefragConfig, DefragHeap, Scheme};
use ffccd_pmem::{Ctx, MachineConfig};
use ffccd_pmop::{PmPtr, PoolConfig, TypeDesc, TypeRegistry};

const NODE_SIZE: u64 = 128;
const NEXT_OFF: u64 = 120;
const VAL_OFF: u64 = 0;

fn registry() -> TypeRegistry {
    let mut reg = TypeRegistry::new();
    reg.register(TypeDesc::new("node", NODE_SIZE as u32, &[NEXT_OFF as u32]));
    reg
}

fn heap_with(scheme: Scheme, seed: u64) -> DefragHeap {
    let pool_cfg = PoolConfig {
        data_bytes: 2 << 20,
        os_page_size: 4096,
        machine: MachineConfig {
            seed,
            ..MachineConfig::default()
        },
    };
    DefragHeap::create(pool_cfg, registry(), DefragConfig::normal(scheme)).expect("create heap")
}

/// Builds a fragmented armed heap: insert `n`, keep every `keep`-th, arm a
/// cycle. Adjacent survivors sit 5 slots apart within a frame, so distinct
/// live objects share moved-bitmap bytes — and with them a relocation
/// stripe.
fn armed(scheme: Scheme, seed: u64, n: u64) -> (DefragHeap, (u64, u64)) {
    let heap = heap_with(scheme, seed);
    let mut ctx = heap.ctx();
    for i in 0..n {
        let node = heap
            .alloc(&mut ctx, ffccd_pmop::TypeId(0), NODE_SIZE)
            .expect("alloc");
        heap.write_u64(&mut ctx, node, VAL_OFF, i);
        let head = heap.root(&mut ctx);
        heap.store_ref(&mut ctx, node, NEXT_OFF, head);
        heap.persist(&mut ctx, node, 0, NODE_SIZE);
        heap.set_root(&mut ctx, node);
    }
    // Unlink all but every 5th in one pass (pointers stay fresh: no cycle
    // is armed yet, so no relocation can move nodes mid-unlink).
    let mut prev = PmPtr::NULL;
    let mut cur = heap.root(&mut ctx);
    let mut idx = 0u64;
    while !cur.is_null() {
        let next = heap.load_ref(&mut ctx, cur, NEXT_OFF);
        if !idx.is_multiple_of(5) {
            if prev.is_null() {
                heap.set_root(&mut ctx, next);
            } else {
                heap.store_ref(&mut ctx, prev, NEXT_OFF, next);
            }
            heap.free(&mut ctx, cur).expect("free");
        } else {
            prev = cur;
        }
        idx += 1;
        cur = next;
    }
    let digest = walk_digest(&heap, &mut ctx);
    assert!(heap.defrag_now(&mut ctx), "cycle must arm");
    heap.flush_stats(&mut ctx);
    (heap, digest)
}

/// Sum + count of list values through the read barrier.
fn walk_digest(heap: &DefragHeap, ctx: &mut Ctx) -> (u64, u64) {
    let mut sum = 0u64;
    let mut count = 0u64;
    let mut cur = heap.root(ctx);
    while !cur.is_null() {
        sum += heap.read_u64(ctx, cur, VAL_OFF);
        count += 1;
        cur = heap.load_ref(ctx, cur, NEXT_OFF);
    }
    (sum, count)
}

/// Ground truth: the single-threaded walk of the same heap geometry.
/// Returns (digest, relocated).
fn single_thread_walk(scheme: Scheme, seed: u64, n: u64) -> ((u64, u64), u64) {
    let (heap, digest) = armed(scheme, seed, n);
    let mut ctx = heap.ctx();
    let walked = walk_digest(&heap, &mut ctx);
    assert_eq!(walked, digest, "single-thread walk must preserve the list");
    while heap.step_compaction(&mut ctx, 4) {}
    heap.flush_stats(&mut ctx);
    (digest, heap.gc_stats().objects_relocated)
}

/// `threads` free-running walkers, each a registered mutator (so first
/// touches take the stripe locks), race the whole list through the
/// barrier; returns the relocation count afterwards.
fn racing_walk(
    scheme: Scheme,
    seed: u64,
    n: u64,
    threads: usize,
    expect_digest: (u64, u64),
) -> u64 {
    let (heap, digest) = armed(scheme, seed, n);
    assert_eq!(digest, expect_digest, "same geometry as the ground truth");
    let heap = Arc::new(heap);
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let heap = Arc::clone(&heap);
            std::thread::spawn(move || {
                let _mutator = heap.register_mutator();
                let mut ctx = heap.ctx();
                let d = walk_digest(&heap, &mut ctx);
                heap.flush_stats(&mut ctx);
                d
            })
        })
        .collect();
    for h in handles {
        let d = h.join().expect("walker");
        assert_eq!(d, digest, "every racing walk sees the intact list");
    }
    let mut ctx = heap.ctx();
    let after = walk_digest(&heap, &mut ctx);
    assert_eq!(after, digest, "list intact after all relocations");
    // Finish the cycle (drain the pending queue — already-moved objects
    // are skipped by the double-checked moved bits — and tear down), then
    // the whole heap must validate.
    while heap.step_compaction(&mut ctx, 4) {}
    validate_heap(&heap).expect("heap validates after racing relocation");
    heap.flush_stats(&mut ctx);
    heap.gc_stats().objects_relocated
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Racing mutators over byte-sharing slots relocate each object
    /// exactly once: the count matches the single-threaded ground truth
    /// (every live object is on the walked list).
    #[test]
    fn racing_first_touch_is_exactly_once(
        seed in 0u64..1 << 48,
        threads in 2usize..=4,
        n in 400u64..=700,
        scheme_idx in 0usize..3,
    ) {
        let scheme = [Scheme::Sfccd, Scheme::FfccdFenceFree, Scheme::FfccdCheckLookup][scheme_idx];
        let (digest, expected) = single_thread_walk(scheme, seed, n);
        prop_assert!(expected > 0, "the walk must relocate something");
        let got = racing_walk(scheme, seed, n, threads, digest);
        prop_assert_eq!(got, expected, "{} objects relocated single-threaded", expected);
    }
}

// ---- sharded heaps: per-shard cycles stay inside their shard ---------------

const DIR_SLOTS: u64 = 4;

/// Registry with the list node plus a root directory holding one list
/// head per shard (ref slots at every 8-byte offset).
fn sharded_registry() -> TypeRegistry {
    let mut reg = TypeRegistry::new();
    reg.register(TypeDesc::new("node", NODE_SIZE as u32, &[NEXT_OFF as u32]));
    reg.register(TypeDesc::new(
        "dir",
        (DIR_SLOTS * 8) as u32,
        &[0, 8, 16, 24],
    ));
    reg
}

/// Builds a `shards`-way heap with one fragmented linked list per shard
/// (allocated from that shard's home arena), arms a cycle on every
/// fragmented domain via `defrag_now`, and returns the per-shard list
/// digests taken before arming.
fn armed_sharded(
    scheme: Scheme,
    seed: u64,
    shards: usize,
    n_per_shard: u64,
) -> (DefragHeap, Vec<(u64, u64)>) {
    let pool_cfg = PoolConfig {
        data_bytes: 8 << 20,
        os_page_size: 4096,
        machine: MachineConfig {
            seed,
            ..MachineConfig::default()
        },
    };
    let cfg = DefragConfig {
        shards,
        ..DefragConfig::normal(scheme)
    };
    let heap = DefragHeap::create(pool_cfg, sharded_registry(), cfg).expect("create sharded heap");
    let mut root_ctx = heap.ctx();
    let dir = heap
        .alloc(&mut root_ctx, ffccd_pmop::TypeId(1), DIR_SLOTS * 8)
        .expect("dir");
    for s in 0..DIR_SLOTS {
        heap.store_ref(&mut root_ctx, dir, s * 8, PmPtr::NULL);
    }
    heap.set_root(&mut root_ctx, dir);
    for s in 0..shards {
        let mut ctx = heap.ctx();
        ctx.set_arena(s as u32); // arena s homes on pool shard s
        let slot = s as u64 * 8;
        for i in 0..n_per_shard {
            let node = heap
                .alloc(&mut ctx, ffccd_pmop::TypeId(0), NODE_SIZE)
                .expect("alloc");
            heap.write_u64(&mut ctx, node, VAL_OFF, i);
            let dir = heap.root(&mut ctx);
            let head = heap.load_ref(&mut ctx, dir, slot);
            heap.store_ref(&mut ctx, node, NEXT_OFF, head);
            heap.persist(&mut ctx, node, 0, NODE_SIZE);
            heap.store_ref(&mut ctx, dir, slot, node);
        }
        // Keep every 5th node so each shard's frames fragment the same
        // way `armed` fragments the single-shard heap.
        let dir = heap.root(&mut ctx);
        let mut prev = PmPtr::NULL;
        let mut cur = heap.load_ref(&mut ctx, dir, slot);
        let mut idx = 0u64;
        while !cur.is_null() {
            let next = heap.load_ref(&mut ctx, cur, NEXT_OFF);
            if !idx.is_multiple_of(5) {
                if prev.is_null() {
                    heap.store_ref(&mut ctx, dir, slot, next);
                } else {
                    heap.store_ref(&mut ctx, prev, NEXT_OFF, next);
                }
                heap.free(&mut ctx, cur).expect("free");
            } else {
                prev = cur;
            }
            idx += 1;
            cur = next;
        }
    }
    let mut digests = Vec::with_capacity(shards);
    for s in 0..shards {
        digests.push(dir_walk_digest(&heap, &mut root_ctx, s as u64));
    }
    assert!(
        heap.defrag_now(&mut root_ctx),
        "sharded cycle must arm at least one domain"
    );
    heap.flush_stats(&mut root_ctx);
    (heap, digests)
}

/// Sum + count of the list hanging off root-directory slot `s`, through
/// the read barrier.
fn dir_walk_digest(heap: &DefragHeap, ctx: &mut Ctx, s: u64) -> (u64, u64) {
    let mut sum = 0u64;
    let mut count = 0u64;
    let dir = heap.root(ctx);
    let mut cur = heap.load_ref(ctx, dir, s * 8);
    while !cur.is_null() {
        sum += heap.read_u64(ctx, cur, VAL_OFF);
        count += 1;
        cur = heap.load_ref(ctx, cur, NEXT_OFF);
    }
    (sum, count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The shard-ownership contract under racing mutators: every armed
    /// domain's relocation *and* destination frames live in the pool
    /// shard the domain owns, racing walkers see every list intact while
    /// the per-shard cycles drain, and after termination the allocator's
    /// per-shard frame sets are still disjoint.
    #[test]
    fn sharded_cycles_never_relocate_foreign_frames(
        seed in 0u64..1 << 48,
        shards in 2usize..=4,
        scheme_idx in 0usize..3,
    ) {
        let scheme = [Scheme::Sfccd, Scheme::FfccdFenceFree, Scheme::FfccdCheckLookup][scheme_idx];
        let (heap, digests) = armed_sharded(scheme, seed, shards, 400);
        let mut armed_domains = 0usize;
        for s in 0..heap.num_shards() {
            let Some((reloc, dest)) = heap.domain_frames(s) else { continue };
            armed_domains += 1;
            prop_assert!(!reloc.is_empty(), "armed domain {} has no work", s);
            prop_assert!(!dest.is_empty(), "armed domain {} has no destinations", s);
            for &f in reloc.iter().chain(dest.iter()) {
                prop_assert_eq!(
                    heap.pool().layout().shard_of_frame(f, shards), s,
                    "domain {} holds frame {} owned by another shard", s, f
                );
            }
        }
        prop_assert!(
            armed_domains >= 2,
            "every shard fragmented identically, yet only {} domains armed",
            armed_domains
        );
        // Racing walkers drag first-touch relocation across all shards'
        // lists concurrently — any cross-shard move corrupts a digest.
        let heap = Arc::new(heap);
        let handles: Vec<_> = (0..shards)
            .map(|_| {
                let heap = Arc::clone(&heap);
                let digests = digests.clone();
                std::thread::spawn(move || {
                    let _mutator = heap.register_mutator();
                    let mut ctx = heap.ctx();
                    for (s, &want) in digests.iter().enumerate() {
                        assert_eq!(
                            dir_walk_digest(&heap, &mut ctx, s as u64),
                            want,
                            "shard {s} list corrupted mid-cycle"
                        );
                    }
                    heap.flush_stats(&mut ctx);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("walker");
        }
        let mut ctx = heap.ctx();
        while heap.step_compaction(&mut ctx, 4) {}
        prop_assert!(!heap.in_cycle(), "all domains terminated");
        for (s, &want) in digests.iter().enumerate() {
            prop_assert_eq!(dir_walk_digest(&heap, &mut ctx, s as u64), want);
        }
        validate_heap(&heap).expect("heap validates after sharded cycles");
        heap.pool().assert_shard_ownership();
    }
}

/// Recovery smoke with *two or more* domains crashed mid-cycle: arm
/// per-shard cycles on a 4-way heap, advance compaction just enough that
/// several domains have durable moved bits but none has terminated, then
/// crash. Recovery must classify every shard's header independently,
/// produce a validating heap with disjoint shard ownership, and be
/// idempotent — the rerun a byte-identical no-op (§7.1d oracle).
#[test]
fn sharded_mid_cycle_crash_recovers_idempotently() {
    for scheme in [
        Scheme::Sfccd,
        Scheme::FfccdFenceFree,
        Scheme::FfccdCheckLookup,
    ] {
        let (heap, _digests) = armed_sharded(scheme, 0x517e44, 4, 400);
        let mut ctx = heap.ctx();
        // A few small pump steps: round-robin over the armed domains, so
        // at least two accumulate durable relocation state mid-cycle.
        for _ in 0..6 {
            heap.step_compaction(&mut ctx, 2);
        }
        let armed: Vec<usize> = (0..heap.num_shards())
            .filter(|&s| heap.domain_frames(s).is_some())
            .collect();
        assert!(
            armed.len() >= 2,
            "{scheme}: want >= 2 domains still mid-cycle, got {armed:?}"
        );
        let image = heap.engine().crash_image();
        let cfg = DefragConfig {
            shards: 4,
            ..DefragConfig::normal(scheme)
        };
        let (rec, rerun) =
            DefragHeap::open_recovered_idempotent(&image, None, sharded_registry(), cfg)
                .expect("sharded recovery must succeed");
        assert!(
            rerun.report.had_cycle,
            "{scheme}: the crash image must carry an in-flight cycle"
        );
        assert!(
            rerun.is_noop(),
            "{scheme}: sharded recovery not idempotent — fingerprints {:#x} vs {:#x}, rerun {:?}",
            rerun.fingerprint,
            rerun.rerun_fingerprint,
            rerun.rerun
        );
        assert_eq!(rec.num_shards(), 4, "persisted shard count survives");
        validate_heap(&rec).unwrap_or_else(|e| panic!("{scheme}: recovered heap invalid: {e:?}"));
        rec.pool().assert_shard_ownership();
    }
}
