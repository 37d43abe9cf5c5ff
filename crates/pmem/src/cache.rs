//! Simulated volatile cache.
//!
//! One simplified cache level stands in for the L1/L2 hierarchy: what
//! matters for FFCCD is *which dirty lines have not reached the persistence
//! domain*, and which of those carry the `pending` bit planted by the
//! `relocate` instruction (paper §4.2, Figure 10: "Tagged Normal Cache").

use crate::addr::{Line, CACHELINE_BYTES};
use crate::fxhash::FxHashMap;
use crate::media::Media;

/// One cached line: 64 data bytes plus dirty/pending state.
#[derive(Clone, Debug)]
pub struct CacheLine {
    /// Current (possibly unpersisted) contents.
    pub data: [u8; CACHELINE_BYTES as usize],
    /// Whether the line differs from media (must be written back).
    pub dirty: bool,
    /// FFCCD pending bit: the line was written by `relocate` and its
    /// persistence must be reported to the reached bitmap.
    pub pending: bool,
}

/// The volatile cache: a map from [`Line`] to [`CacheLine`] with bounded
/// capacity and deterministic pseudo-random victim selection.
///
/// Residents live in a dense `entries` vector with a hash index into it
/// (FxHash — the index sits on every simulated access, and line numbers
/// are trusted internal keys). Victims are chosen by position in the
/// vector, never by map iteration order — any behaviour depending on
/// bucket order would differ between engines and break crash-site replay.
#[derive(Debug)]
pub struct CacheSim {
    index: FxHashMap<Line, usize>,
    entries: Vec<(Line, CacheLine)>,
    capacity: usize,
    rng: u64,
    /// Count of dirty residents (the number of set bits in `dirty_bits`).
    dirty_count: usize,
    /// Dirty-position bitmap: bit `i % 64` of word `i / 64` is set iff
    /// `entries[i]` is dirty; bits at positions `>= entries.len()` are
    /// clear. Background eviction and [`CacheSim::dirty_lines`] find dirty
    /// residents by scanning words, not the mostly-clean entry vector.
    dirty_bits: Vec<u64>,
}

/// Sets or clears bit `i` of a dirty-position bitmap.
fn set_bit(bits: &mut [u64], i: usize, on: bool) {
    let mask = 1u64 << (i % 64);
    if on {
        bits[i / 64] |= mask;
    } else {
        bits[i / 64] &= !mask;
    }
}

/// One xorshift64* step: advances `state` and returns the next output.
fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A line evicted from the cache, headed for the WPQ (if dirty).
#[derive(Clone, Debug)]
pub struct Evicted {
    /// Which line.
    pub line: Line,
    /// Its contents at eviction time.
    pub data: [u8; CACHELINE_BYTES as usize],
    /// Whether it must be written back.
    pub dirty: bool,
    /// FFCCD pending bit.
    pub pending: bool,
}

impl CacheSim {
    /// Creates an empty cache of `capacity` lines.
    pub fn new(capacity: usize, seed: u64) -> Self {
        CacheSim {
            index: FxHashMap::default(),
            entries: Vec::with_capacity(capacity.min(1 << 16)),
            capacity: capacity.max(1),
            rng: seed | 1,
            dirty_count: 0,
            dirty_bits: Vec::new(),
        }
    }

    /// Line capacity this cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Removes the resident at position `i`. Swap-remove moves the last
    /// entry into `i`, so its index entry and dirty bit move with it.
    fn remove_at(&mut self, i: usize) -> (Line, CacheLine) {
        let (line, cl) = self.entries.swap_remove(i);
        self.index.remove(&line);
        if cl.dirty {
            self.dirty_count -= 1;
        }
        set_bit(&mut self.dirty_bits, self.entries.len(), false);
        if let Some((moved, moved_cl)) = self.entries.get(i) {
            self.index.insert(*moved, i);
            set_bit(&mut self.dirty_bits, i, moved_cl.dirty);
        }
        (line, cl)
    }

    /// First dirty position at or after `from`, if any.
    fn first_dirty_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.dirty_bits.get(w)? & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.dirty_bits.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    fn next_rand(&mut self) -> u64 {
        xorshift64star(&mut self.rng)
    }

    /// Number of lines currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `line` is resident (hit).
    pub fn contains(&self, line: Line) -> bool {
        self.index.contains_key(&line)
    }

    /// Position of `line` in the dense entry vector, for the index-based
    /// accessors below. The position is invalidated by any insert, removal
    /// or eviction — use it only for an immediately-following access.
    pub fn pos_of(&self, line: Line) -> Option<usize> {
        self.index.get(&line).copied()
    }

    /// Reads from the resident line at `pos` (from [`CacheSim::pos_of`] or
    /// [`CacheSim::insert_at`]) — skips the hash probe a by-line read pays.
    pub fn read_at(&self, pos: usize, offset_in_line: usize, buf: &mut [u8]) {
        let cl = &self.entries[pos].1;
        buf.copy_from_slice(&cl.data[offset_in_line..offset_in_line + buf.len()]);
    }

    /// Writes into the resident line at `pos`, marking it dirty and OR-ing
    /// in `pending` — the index-based sibling of
    /// [`CacheSim::write_resident`].
    pub fn write_at(&mut self, pos: usize, offset_in_line: usize, data: &[u8], pending: bool) {
        let cl = &mut self.entries[pos].1;
        cl.data[offset_in_line..offset_in_line + data.len()].copy_from_slice(data);
        if !cl.dirty {
            self.dirty_count += 1;
            set_bit(&mut self.dirty_bits, pos, true);
        }
        cl.dirty = true;
        cl.pending |= pending;
    }

    /// [`CacheSim::insert`] returning the new line's position. The caller
    /// must have checked non-residency (via [`CacheSim::pos_of`]); skipping
    /// the redundant re-check is the point of this variant.
    pub fn insert_at(
        &mut self,
        line: Line,
        data: [u8; CACHELINE_BYTES as usize],
        evicted_out: &mut Vec<Evicted>,
    ) -> usize {
        debug_assert!(!self.index.contains_key(&line));
        self.make_room(evicted_out);
        let pos = self.entries.len();
        if pos / 64 == self.dirty_bits.len() {
            self.dirty_bits.push(0);
        }
        self.index.insert(line, pos);
        self.entries.push((
            line,
            CacheLine {
                data,
                dirty: false,
                pending: false,
            },
        ));
        pos
    }

    /// Immutable view of a resident line.
    pub fn peek(&self, line: Line) -> Option<&CacheLine> {
        self.index.get(&line).map(|&i| &self.entries[i].1)
    }

    /// Ensures `line` is resident, filling from `media` on a miss.
    /// Returns `true` on a hit, `false` on a miss (fill performed).
    /// May evict a victim into `evicted_out`.
    pub fn touch(&mut self, line: Line, media: &Media, evicted_out: &mut Vec<Evicted>) -> bool {
        if self.index.contains_key(&line) {
            return true;
        }
        self.insert(line, media.read_line(line), evicted_out);
        false
    }

    /// Inserts `line` clean with the given fill `data` (no-op if already
    /// resident), evicting victims into `evicted_out` as needed. Unlike
    /// [`CacheSim::touch`] the caller supplies the fill, so fills from the
    /// in-flight stage or WPQ need no second write pass over the line.
    pub fn insert(
        &mut self,
        line: Line,
        data: [u8; CACHELINE_BYTES as usize],
        evicted_out: &mut Vec<Evicted>,
    ) {
        if self.index.contains_key(&line) {
            return;
        }
        self.insert_at(line, data, evicted_out);
    }

    /// Writes `data` into the (resident) line at byte `offset_in_line`,
    /// marking it dirty and OR-ing in `pending`.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident or the write exceeds the line.
    pub fn write_resident(
        &mut self,
        line: Line,
        offset_in_line: usize,
        data: &[u8],
        pending: bool,
    ) {
        let i = *self
            .index
            .get(&line)
            .expect("write_resident: line not resident");
        let cl = &mut self.entries[i].1;
        cl.data[offset_in_line..offset_in_line + data.len()].copy_from_slice(data);
        if !cl.dirty {
            self.dirty_count += 1;
            set_bit(&mut self.dirty_bits, i, true);
        }
        cl.dirty = true;
        cl.pending |= pending;
    }

    /// Reads from the (resident) line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident or the read exceeds the line.
    pub fn read_resident(&self, line: Line, offset_in_line: usize, buf: &mut [u8]) {
        let cl = self.peek(line).expect("read_resident: line not resident");
        buf.copy_from_slice(&cl.data[offset_in_line..offset_in_line + buf.len()]);
    }

    /// Removes the line's dirty/pending status, returning the writeback data
    /// if it was dirty. The line stays resident but clean (clwb semantics:
    /// write back, do not invalidate).
    pub fn clean(&mut self, line: Line) -> Option<Evicted> {
        let i = *self.index.get(&line)?;
        let cl = &mut self.entries[i].1;
        if !cl.dirty {
            return None;
        }
        let ev = Evicted {
            line,
            data: cl.data,
            dirty: true,
            pending: cl.pending,
        };
        cl.dirty = false;
        cl.pending = false;
        self.dirty_count -= 1;
        set_bit(&mut self.dirty_bits, i, false);
        Some(ev)
    }

    /// Evicts one pseudo-random *dirty* line if any exists (the background
    /// "natural writeback" path). Returns the evicted line.
    ///
    /// The victim is the first dirty resident at or after a pseudo-random
    /// start position, wrapping once to the front. Every call on a
    /// non-empty cache consumes exactly one rng step, dirty line or not.
    pub fn evict_random_dirty(&mut self) -> Option<Evicted> {
        if self.entries.is_empty() {
            return None;
        }
        let start = (self.next_rand() as usize) % self.entries.len();
        if self.dirty_count == 0 {
            return None;
        }
        let pos = self
            .first_dirty_from(start)
            .or_else(|| self.first_dirty_from(0))
            .expect("dirty_count > 0 means a dirty bit is set");
        let (line, cl) = self.remove_at(pos);
        Some(Evicted {
            line,
            data: cl.data,
            dirty: true,
            pending: cl.pending,
        })
    }

    fn make_room(&mut self, evicted_out: &mut Vec<Evicted>) {
        while self.entries.len() >= self.capacity {
            let n = self.entries.len();
            let victim = (self.next_rand() as usize) % n;
            let (key, cl) = self.remove_at(victim);
            if cl.dirty {
                evicted_out.push(Evicted {
                    line: key,
                    data: cl.data,
                    dirty: true,
                    pending: cl.pending,
                });
            }
        }
    }

    /// Drops every line (crash: volatile state vanishes).
    pub fn invalidate_all(&mut self) {
        self.index.clear();
        self.entries.clear();
        self.dirty_count = 0;
        self.dirty_bits.clear();
    }

    /// Iterates over all resident dirty lines in ascending position order
    /// (used by non-destructive crash snapshots to know what *not* to
    /// persist). Walks the dirty bitmap, so clean residents cost nothing.
    pub fn dirty_lines(&self) -> impl Iterator<Item = (Line, &CacheLine)> {
        self.dirty_bits
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| {
                let mut bits = word;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        w * 64 + b
                    })
                })
            })
            .map(|i| {
                let (line, cl) = &self.entries[i];
                (*line, cl)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn media() -> Media {
        Media::new(64 * 256)
    }

    #[test]
    fn touch_miss_then_hit() {
        let m = media();
        let mut c = CacheSim::new(8, 1);
        let mut ev = Vec::new();
        assert!(!c.touch(Line(3), &m, &mut ev));
        assert!(c.touch(Line(3), &m, &mut ev));
        assert!(ev.is_empty());
    }

    #[test]
    fn write_marks_dirty_and_pending() {
        let m = media();
        let mut c = CacheSim::new(8, 1);
        let mut ev = Vec::new();
        c.touch(Line(0), &m, &mut ev);
        c.write_resident(Line(0), 4, &[1, 2], true);
        let cl = c.peek(Line(0)).expect("resident");
        assert!(cl.dirty);
        assert!(cl.pending);
        assert_eq!(cl.data[4], 1);
        assert_eq!(cl.data[5], 2);
    }

    #[test]
    fn clean_returns_writeback_once() {
        let m = media();
        let mut c = CacheSim::new(8, 1);
        let mut ev = Vec::new();
        c.touch(Line(0), &m, &mut ev);
        c.write_resident(Line(0), 0, &[9], false);
        let wb = c.clean(Line(0)).expect("dirty line yields writeback");
        assert!(wb.dirty);
        assert_eq!(wb.data[0], 9);
        // Second clean: nothing to write back.
        assert!(c.clean(Line(0)).is_none());
        // Line remains resident and readable.
        let mut b = [0u8; 1];
        c.read_resident(Line(0), 0, &mut b);
        assert_eq!(b[0], 9);
    }

    #[test]
    fn capacity_eviction_surfaces_dirty_victims() {
        let m = media();
        let mut c = CacheSim::new(2, 42);
        let mut ev = Vec::new();
        c.touch(Line(0), &m, &mut ev);
        c.write_resident(Line(0), 0, &[7], false);
        c.touch(Line(1), &m, &mut ev);
        c.write_resident(Line(1), 0, &[8], false);
        // Third line forces an eviction; both residents are dirty, so the
        // victim must appear in `ev`.
        c.touch(Line(2), &m, &mut ev);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].dirty);
        assert!(c.len() <= 2);
    }

    #[test]
    fn evict_random_dirty_prefers_dirty() {
        let m = media();
        let mut c = CacheSim::new(8, 5);
        let mut ev = Vec::new();
        c.touch(Line(0), &m, &mut ev); // clean
        c.touch(Line(1), &m, &mut ev);
        c.write_resident(Line(1), 0, &[1], true);
        let got = c.evict_random_dirty().expect("one dirty line exists");
        assert_eq!(got.line, Line(1));
        assert!(got.pending);
        assert!(c.evict_random_dirty().is_none());
    }

    #[test]
    fn victim_selection_is_deterministic_across_instances() {
        // Two caches built from the same seed must evict the same victims
        // for the same access sequence — crash-site replay depends on it.
        // (A regression: victims were once picked by std HashMap iteration
        // order, which is randomized per instance.)
        let m = media();
        let run = || {
            let mut c = CacheSim::new(4, 99);
            let mut order = Vec::new();
            for i in 0..64u64 {
                let mut ev = Vec::new();
                c.touch(Line(i % 16), &m, &mut ev);
                c.write_resident(Line(i % 16), 0, &[i as u8], false);
                order.extend(ev.into_iter().map(|e| e.line));
                if i % 5 == 0 {
                    if let Some(e) = c.evict_random_dirty() {
                        order.push(e.line);
                    }
                }
            }
            order
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dirty_count_tracks_all_transitions() {
        let m = media();
        let mut c = CacheSim::new(4, 3);
        let mut ev = Vec::new();
        c.touch(Line(0), &m, &mut ev);
        c.touch(Line(1), &m, &mut ev);
        assert!(c.evict_random_dirty().is_none());
        c.write_resident(Line(0), 0, &[1], false);
        c.write_resident(Line(0), 1, &[2], false); // re-dirty: no double count
        c.write_resident(Line(1), 0, &[3], false);
        assert_eq!(c.dirty_count, 2);
        c.clean(Line(0));
        assert_eq!(c.dirty_count, 1);
        assert!(c.evict_random_dirty().is_some());
        assert_eq!(c.dirty_count, 0);
        assert!(c.evict_random_dirty().is_none());
        c.write_resident(Line(0), 0, &[4], false);
        c.invalidate_all();
        assert_eq!(c.dirty_count, 0);
    }

    /// The victim the linear probe that predates the dirty bitmap would
    /// pick from `c`'s current rng state: walk the entry vector from a
    /// pseudo-random start, wrapping once, to the first dirty line.
    fn linear_probe_victim(c: &CacheSim) -> Option<Line> {
        let n = c.entries.len();
        if n == 0 {
            return None;
        }
        let mut rng = c.rng;
        let start = (xorshift64star(&mut rng) as usize) % n;
        (0..n)
            .map(|k| &c.entries[(start + k) % n])
            .find(|(_, v)| v.dirty)
            .map(|(k, _)| *k)
    }

    /// The bitmap, `dirty_count`, the entries' dirty flags and the index
    /// all agree, and `dirty_lines` lists dirty residents by position.
    fn assert_consistent(c: &CacheSim) {
        let n = c.entries.len();
        let bit = |i: usize| c.dirty_bits[i / 64] >> (i % 64) & 1 == 1;
        assert_eq!(c.index.len(), n);
        for (i, (line, cl)) in c.entries.iter().enumerate() {
            assert_eq!(c.index.get(line), Some(&i));
            assert_eq!(bit(i), cl.dirty, "bit {i}");
        }
        for i in n..c.dirty_bits.len() * 64 {
            assert!(!bit(i), "stale bit {i}");
        }
        let ones: u32 = c.dirty_bits.iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones as usize, c.dirty_count);
        let by_scan: Vec<Line> = c
            .entries
            .iter()
            .filter(|(_, v)| v.dirty)
            .map(|(k, _)| *k)
            .collect();
        let by_bitmap: Vec<Line> = c.dirty_lines().map(|(k, _)| k).collect();
        assert_eq!(by_bitmap, by_scan);
    }

    #[derive(Clone, Debug)]
    enum Step {
        Touch(u64),
        Write(u64, bool),
        Clean(u64),
        BackgroundEvict,
        Invalidate,
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        // Lines span more than two bitmap words; invalidation is rare so
        // caches fill up and capacity eviction runs.
        prop_oneof![
            30 => (0u64..300).prop_map(Step::Touch),
            30 => (0u64..300, any::<bool>()).prop_map(|(l, p)| Step::Write(l, p)),
            20 => (0u64..300).prop_map(Step::Clean),
            20 => Just(Step::BackgroundEvict),
            1 => Just(Step::Invalidate),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every step the dirty bookkeeping agrees with the entries,
        /// and every background eviction takes the linear probe's victim
        /// and consumes the same rng step.
        #[test]
        fn bitmap_tracks_entries_and_evicts_like_linear_probe(
            capacity in 1usize..200,
            seed in any::<u64>(),
            steps in proptest::collection::vec(step_strategy(), 1..600),
        ) {
            let m = Media::new(64 * 300);
            let mut c = CacheSim::new(capacity, seed);
            let mut ev = Vec::new();
            for step in &steps {
                match *step {
                    Step::Touch(l) => {
                        c.touch(Line(l), &m, &mut ev);
                    }
                    Step::Write(l, pending) => {
                        if let Some(pos) = c.pos_of(Line(l)) {
                            c.write_at(pos, 0, &[l as u8], pending);
                        } else {
                            let pos = c.insert_at(Line(l), m.read_line(Line(l)), &mut ev);
                            c.write_resident(Line(l), 1, &[l as u8], pending);
                            prop_assert_eq!(c.pos_of(Line(l)), Some(pos));
                        }
                    }
                    Step::Clean(l) => {
                        let was = c.peek(Line(l)).is_some_and(|cl| cl.dirty);
                        prop_assert_eq!(c.clean(Line(l)).is_some(), was);
                    }
                    Step::BackgroundEvict => {
                        let expect = linear_probe_victim(&c);
                        let mut rng = c.rng;
                        if !c.is_empty() {
                            xorshift64star(&mut rng);
                        }
                        let got = c.evict_random_dirty().map(|e| e.line);
                        prop_assert_eq!(got, expect);
                        prop_assert_eq!(c.rng, rng);
                    }
                    Step::Invalidate => c.invalidate_all(),
                }
                ev.clear();
                assert_consistent(&c);
            }
        }
    }

    #[test]
    fn invalidate_all_clears() {
        let m = media();
        let mut c = CacheSim::new(8, 5);
        let mut ev = Vec::new();
        c.touch(Line(0), &m, &mut ev);
        c.invalidate_all();
        assert!(c.is_empty());
        assert!(!c.contains(Line(0)));
    }
}
