//! Software-managed scratchpad memory (SPM) residency model.
//!
//! NPU scratchpads are explicitly managed by the compiler, not a hardware
//! cache; but for *traffic accounting* the compiler-managed residency of a
//! tile stream is equivalent to an LRU cache over tiles with the capacity of
//! the schedule-visible SPM half (the other half is the double-buffer
//! landing zone). This is exactly the model the paper uses to reason about
//! reuse: "duplicated memory traffic arises when the distance between the
//! dX and dW calculations exceeds the number of tiled computations that can
//! be loaded in half of the SPM" (§4.2).
//!
//! [`SpmCache`] therefore implements a byte-capacity LRU keyed by
//! [`TileKey`]. It distinguishes *clean* operand tiles (evicted silently)
//! from *dirty* accumulator tiles (evicted with a write-back, re-fetched
//! with a read on the next touch) — which is how the "intermediate result"
//! spill traffic of the dXmajor/dWmajor reorderings (§4.3) emerges without
//! any special-casing in the schedulers. Write-backs are reported with the
//! victim's identity so the replay can attribute the bytes to the right
//! tensor class.
//!
//! The cache is generic over its key: LRU order comes from access ticks,
//! so the key is only a hash key. The replay's LRU ablation
//! ([`crate::Replacement::Lru`]) runs it on dense `u32` tile ids through
//! the replay's `Residency` trait; the tests key it by [`TileKey`].

use crate::analytic::{Access, Residency};
use crate::trace::TileKey;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hash;

/// What happened on a tile access.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessOutcome<K = TileKey> {
    /// Bytes fetched from DRAM for this access (0 on a hit or fresh alloc).
    pub fetched_bytes: u64,
    /// Dirty tiles this access evicted, each written back to DRAM.
    pub writebacks: Vec<(K, u64)>,
    /// True if the tile was already resident.
    pub hit: bool,
}

impl<K> AccessOutcome<K> {
    /// Total write-back bytes of this access.
    pub fn writeback_bytes(&self) -> u64 {
        self.writebacks.iter().map(|(_, b)| b).sum()
    }
}

#[derive(Debug, Clone)]
struct Entry {
    bytes: u64,
    dirty: bool,
    tick: u64,
}

/// Byte-capacity LRU over tiles keyed by `K`, with dirty-accumulator
/// tracking.
#[derive(Debug, Clone)]
pub struct SpmCache<K = TileKey> {
    capacity: u64,
    used: u64,
    tick: u64,
    entries: HashMap<K, Entry>,
    lru: BTreeMap<u64, K>,
    /// Accumulator tiles that have been spilled at least once: the next
    /// touch must re-fetch the partial sums from DRAM.
    spilled: HashSet<K>,
    hits: u64,
    misses: u64,
}

impl<K: Copy + Eq + Hash> SpmCache<K> {
    /// Create a cache with `capacity` bytes of residency.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "SPM residency capacity must be positive");
        Self {
            capacity,
            used: 0,
            tick: 0,
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            spilled: HashSet::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Residency capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of resident tiles.
    pub fn resident_tiles(&self) -> usize {
        self.entries.len()
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Access an operand tile (read-only). A miss fetches `bytes` from DRAM.
    ///
    /// Tiles larger than the whole cache bypass residency: they are streamed
    /// (fetched on every touch, never cached), matching how a compiler
    /// handles an operand block that cannot fit.
    pub fn read(&mut self, key: K, bytes: u64) -> AccessOutcome<K> {
        self.touch(key, bytes, false)
    }

    /// Access an accumulator tile (read-modify-write in SPM).
    ///
    /// The first touch allocates the tile (no DRAM read). If the tile was
    /// previously evicted, its partial sums must be re-fetched. The entry is
    /// marked dirty; eviction will write it back.
    pub fn accumulate(&mut self, key: K, bytes: u64) -> AccessOutcome<K> {
        self.touch(key, bytes, true)
    }

    fn touch(&mut self, key: K, bytes: u64, dirty: bool) -> AccessOutcome<K> {
        if let Some(entry) = self.entries.get_mut(&key) {
            // A tile may legitimately change size between touches (e.g. a
            // ragged-edge tile revisited by a chained partition segment).
            // The residency accounting must follow the resize in *all*
            // build profiles — a stale `entry.bytes` would silently corrupt
            // `used` (and with it every eviction decision downstream).
            let old_bytes = entry.bytes;
            let old_tick = entry.tick;
            entry.bytes = bytes;
            self.tick += 1;
            entry.tick = self.tick;
            entry.dirty |= dirty;
            self.lru.remove(&old_tick);
            self.lru.insert(self.tick, key);
            self.hits += 1;
            self.used = self.used - old_bytes + bytes;
            // If the tile grew past what fits, evict LRU victims until the
            // residency is legal again. The freshly touched entry carries
            // the newest tick, so it is only evicted if it alone no longer
            // fits — in which case it falls back to streaming like any
            // oversized tile.
            let writebacks = if self.used > self.capacity {
                self.make_room(0)
            } else {
                Vec::new()
            };
            return AccessOutcome {
                fetched_bytes: 0,
                writebacks,
                hit: true,
            };
        }

        self.misses += 1;
        // A fresh accumulator allocation needs no DRAM read; a re-touched
        // (previously spilled) accumulator and any operand tile must be
        // fetched.
        let fetched = if dirty && !self.spilled.contains(&key) {
            0
        } else {
            bytes
        };

        if bytes > self.capacity {
            // Streaming bypass: never resident. A dirty bypass tile is
            // written straight through.
            let writebacks = if dirty {
                self.spilled.insert(key);
                vec![(key, bytes)]
            } else {
                Vec::new()
            };
            return AccessOutcome {
                fetched_bytes: fetched,
                writebacks,
                hit: false,
            };
        }

        let writebacks = self.make_room(bytes);
        self.tick += 1;
        self.entries.insert(
            key,
            Entry {
                bytes,
                dirty,
                tick: self.tick,
            },
        );
        self.lru.insert(self.tick, key);
        self.used += bytes;
        AccessOutcome {
            fetched_bytes: fetched,
            writebacks,
            hit: false,
        }
    }

    /// Evict LRU entries until `bytes` fit; returns the dirty victims.
    fn make_room(&mut self, bytes: u64) -> Vec<(K, u64)> {
        let mut writebacks = Vec::new();
        while self.used + bytes > self.capacity {
            let (&tick, &key) = self
                .lru
                .iter()
                .next()
                .expect("cache accounting broken: used > 0 but LRU empty");
            self.lru.remove(&tick);
            let entry = self
                .entries
                .remove(&key)
                .expect("LRU/entry map out of sync");
            self.used -= entry.bytes;
            if entry.dirty {
                writebacks.push((key, entry.bytes));
                self.spilled.insert(key);
            }
        }
        writebacks
    }

    /// Flush all dirty entries (end of schedule): returns the dirty tiles
    /// written back. Entries stay resident but become clean, so residency
    /// carries across chained schedule segments.
    pub fn flush(&mut self) -> Vec<(K, u64)> {
        let mut writebacks = Vec::new();
        for (key, entry) in self.entries.iter_mut() {
            if entry.dirty {
                writebacks.push((*key, entry.bytes));
                entry.dirty = false;
                self.spilled.insert(*key);
            }
        }
        writebacks
    }

    /// Drop everything without write-backs and forget spill history (used
    /// between independent layers, where results have already been flushed).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.lru.clear();
        self.spilled.clear();
        self.used = 0;
    }

    /// Whether `key` is currently resident.
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }
}

/// LRU residency for the replay, keyed by dense tile id. The linked next
/// uses are ignored, and a region that fits takes the plain access path
/// (the trait's default), which keeps the ticks LRU order needs.
impl Residency for SpmCache<u32> {
    fn reset(&mut self, capacity: u64, _num_tiles: usize) {
        *self = Self::new(capacity);
    }

    fn access(&mut self, a: &Access, dirty: bool, writebacks: &mut Vec<(u32, u64)>) -> u64 {
        let out = self.touch(a.id, a.bytes as u64, dirty);
        writebacks.extend(out.writebacks);
        out.fetched_bytes
    }

    fn flush(&mut self, writebacks: &mut Vec<(u32, u64)>) {
        writebacks.extend(SpmCache::flush(self));
    }

    fn clear(&mut self) {
        SpmCache::clear(self);
    }

    fn hits(&self) -> u64 {
        self.hits
    }

    fn misses(&self) -> u64 {
        self.misses
    }

    fn used(&self) -> u64 {
        self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TensorId;
    use igo_tensor::TileCoord;

    fn key(t: u32, r: u32, c: u32) -> TileKey {
        TileKey {
            tensor: TensorId::from_raw(t),
            coord: TileCoord::new(r, c),
        }
    }

    #[test]
    fn read_miss_then_hit() {
        let mut spm = SpmCache::new(1000);
        let k = key(0, 0, 0);
        let first = spm.read(k, 400);
        assert!(!first.hit);
        assert_eq!(first.fetched_bytes, 400);
        let second = spm.read(k, 400);
        assert!(second.hit);
        assert_eq!(second.fetched_bytes, 0);
        assert_eq!(spm.hits(), 1);
        assert_eq!(spm.misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut spm = SpmCache::new(1000);
        spm.read(key(0, 0, 0), 400);
        spm.read(key(0, 0, 1), 400);
        // Touch tile 0 so tile 1 becomes LRU.
        spm.read(key(0, 0, 0), 400);
        // Inserting a third 400-byte tile evicts tile 1.
        spm.read(key(0, 0, 2), 400);
        assert!(spm.contains(&key(0, 0, 0)));
        assert!(!spm.contains(&key(0, 0, 1)));
        assert!(spm.contains(&key(0, 0, 2)));
    }

    #[test]
    fn fresh_accumulator_needs_no_fetch() {
        let mut spm = SpmCache::new(1000);
        let out = spm.accumulate(key(1, 0, 0), 300);
        assert!(!out.hit);
        assert_eq!(out.fetched_bytes, 0);
        assert!(out.writebacks.is_empty());
    }

    #[test]
    fn spilled_accumulator_costs_writeback_then_refetch() {
        let mut spm = SpmCache::new(1000);
        let acc = key(1, 0, 0);
        spm.accumulate(acc, 600); // fresh: no fetch
                                  // A 600-byte read forces the dirty accumulator out.
        let evicting = spm.read(key(0, 0, 0), 600);
        assert_eq!(evicting.writebacks, vec![(acc, 600)]);
        // Re-touching the accumulator must now re-fetch the partials.
        let retouch = spm.accumulate(acc, 600);
        assert_eq!(retouch.fetched_bytes, 600);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut spm = SpmCache::new(500);
        spm.read(key(0, 0, 0), 400);
        let out = spm.read(key(0, 0, 1), 400);
        assert!(out.writebacks.is_empty());
    }

    #[test]
    fn flush_writes_dirty_only() {
        let mut spm = SpmCache::new(1000);
        spm.accumulate(key(1, 0, 0), 300);
        spm.read(key(0, 0, 0), 300);
        let flushed = spm.flush();
        assert_eq!(flushed, vec![(key(1, 0, 0), 300)]);
        // Entries stay resident, now clean: a second flush writes nothing.
        assert_eq!(spm.resident_tiles(), 2);
        assert!(spm.flush().is_empty());
    }

    #[test]
    fn oversized_tile_streams_through() {
        let mut spm = SpmCache::new(100);
        let out = spm.read(key(0, 0, 0), 400);
        assert_eq!(out.fetched_bytes, 400);
        assert!(!spm.contains(&key(0, 0, 0)));
        // Every touch re-fetches.
        let again = spm.read(key(0, 0, 0), 400);
        assert_eq!(again.fetched_bytes, 400);
        // Oversized dirty tile: write-through.
        let acc = spm.accumulate(key(1, 0, 0), 400);
        assert_eq!(acc.writeback_bytes(), 400);
    }

    #[test]
    fn used_never_exceeds_capacity() {
        let mut spm = SpmCache::new(1024);
        for i in 0..100u32 {
            spm.read(key(0, 0, i), 100);
            assert!(spm.used() <= spm.capacity());
        }
    }

    #[test]
    fn accumulate_hit_marks_dirty() {
        let mut spm = SpmCache::new(1000);
        let k = key(1, 0, 0);
        spm.read(k, 200); // resident, clean
        spm.accumulate(k, 200); // hit, now dirty
        assert_eq!(spm.flush(), vec![(k, 200)]);
    }

    #[test]
    fn clear_forgets_spill_history() {
        let mut spm = SpmCache::new(100);
        let acc = key(1, 0, 0);
        spm.accumulate(acc, 400); // oversized dirty: spilled
        spm.clear();
        let fresh = spm.accumulate(acc, 50);
        assert_eq!(fresh.fetched_bytes, 0, "clear() must reset spill history");
    }

    #[test]
    fn multi_eviction_reports_every_dirty_victim() {
        let mut spm = SpmCache::new(1000);
        spm.accumulate(key(1, 0, 0), 400);
        spm.accumulate(key(1, 0, 1), 400);
        let out = spm.read(key(0, 0, 0), 900);
        assert_eq!(out.writeback_bytes(), 800);
        assert_eq!(out.writebacks.len(), 2);
    }

    #[test]
    fn resize_keeps_residency_accounting_exact() {
        // Regression for the tile-resize hazard: a resident tile re-touched
        // with a different size must adjust `used` in every build profile.
        let mut spm = SpmCache::new(1000);
        let k = key(0, 0, 0);
        spm.read(k, 400);
        assert_eq!(spm.used(), 400);
        // Shrink: frees space.
        let shrink = spm.read(k, 100);
        assert!(shrink.hit);
        assert_eq!(spm.used(), 100);
        // Grow within capacity.
        spm.read(key(0, 0, 1), 500);
        let grow = spm.read(k, 300);
        assert!(grow.hit);
        assert_eq!(spm.used(), 800);
        // Grow past capacity: the *other* (older) tile is evicted.
        let burst = spm.read(k, 900);
        assert!(burst.hit);
        assert!(!spm.contains(&key(0, 0, 1)));
        assert_eq!(spm.used(), 900);
        assert!(spm.used() <= spm.capacity());
        // Grow past the whole capacity: the tile itself falls out too.
        let dirty_grow = spm.accumulate(k, 1200);
        assert!(dirty_grow.hit);
        assert_eq!(dirty_grow.writebacks, vec![(k, 1200)]);
        assert_eq!(spm.used(), 0);
        assert!(!spm.contains(&k));
        // ... and is treated as spilled on the next touch.
        assert_eq!(spm.accumulate(k, 100).fetched_bytes, 100);
    }

    /// Executable reference model: a plain `Vec`-backed LRU with the same
    /// stated semantics (front = least recent; resize follows the touch;
    /// oversized tiles stream; dirty evictions write back and mark the
    /// tile spilled).
    struct RefLru {
        capacity: u64,
        entries: Vec<(TileKey, u64, bool)>,
        spilled: std::collections::HashSet<TileKey>,
        hits: u64,
        misses: u64,
    }

    impl RefLru {
        fn new(capacity: u64) -> Self {
            Self {
                capacity,
                entries: Vec::new(),
                spilled: std::collections::HashSet::new(),
                hits: 0,
                misses: 0,
            }
        }

        fn used(&self) -> u64 {
            self.entries.iter().map(|(_, b, _)| b).sum()
        }

        fn evict_while_over(&mut self, incoming: u64) -> Vec<(TileKey, u64)> {
            let mut writebacks = Vec::new();
            while self.used() + incoming > self.capacity {
                let (k, b, dirty) = self.entries.remove(0);
                if dirty {
                    writebacks.push((k, b));
                    self.spilled.insert(k);
                }
            }
            writebacks
        }

        fn touch(&mut self, key: TileKey, bytes: u64, dirty: bool) -> AccessOutcome {
            if let Some(i) = self.entries.iter().position(|(k, _, _)| *k == key) {
                let (k, _, was_dirty) = self.entries.remove(i);
                self.entries.push((k, bytes, was_dirty || dirty));
                self.hits += 1;
                let writebacks = self.evict_while_over(0);
                return AccessOutcome {
                    fetched_bytes: 0,
                    writebacks,
                    hit: true,
                };
            }
            self.misses += 1;
            let fetched = if dirty && !self.spilled.contains(&key) {
                0
            } else {
                bytes
            };
            if bytes > self.capacity {
                let writebacks = if dirty {
                    self.spilled.insert(key);
                    vec![(key, bytes)]
                } else {
                    Vec::new()
                };
                return AccessOutcome {
                    fetched_bytes: fetched,
                    writebacks,
                    hit: false,
                };
            }
            let writebacks = self.evict_while_over(bytes);
            self.entries.push((key, bytes, dirty));
            AccessOutcome {
                fetched_bytes: fetched,
                writebacks,
                hit: false,
            }
        }

        fn flush(&mut self) -> Vec<(TileKey, u64)> {
            let mut writebacks = Vec::new();
            for (k, b, dirty) in self.entries.iter_mut() {
                if *dirty {
                    writebacks.push((*k, *b));
                    *dirty = false;
                    self.spilled.insert(*k);
                }
            }
            writebacks
        }

        fn clear(&mut self) {
            self.entries.clear();
            self.spilled.clear();
        }
    }

    /// Property test: on seeded random access streams — mixed reads and
    /// accumulates over a small tile pool with varying (and occasionally
    /// oversized) tile sizes, interleaved with flushes and clears — the
    /// cache must agree access-by-access with the reference model, never
    /// exceed capacity, and only ever re-fetch a dirty tile after a
    /// write-back of that same tile.
    #[test]
    fn seeded_streams_match_reference_model() {
        let mut rng = igo_tensor::SplitMix64::new(0x5EED_CAFE);
        for round in 0..64 {
            let capacity = rng.range_u64(3, 12) * 100;
            let mut spm = SpmCache::new(capacity);
            let mut reference = RefLru::new(capacity);
            let mut written_back: std::collections::HashSet<TileKey> =
                std::collections::HashSet::new();
            let ops = rng.range_u64(50, 400);
            for _ in 0..ops {
                match rng.range_u64(0, 20) {
                    0 => {
                        let mut got = spm.flush();
                        let mut want = reference.flush();
                        got.sort_unstable_by_key(|(k, _)| *k);
                        want.sort_unstable_by_key(|(k, _)| *k);
                        assert_eq!(got, want, "flush diverged in round {round}");
                        for (k, _) in &got {
                            written_back.insert(*k);
                        }
                    }
                    1 => {
                        spm.clear();
                        reference.clear();
                        // Spill history is gone: dirty re-touches are fresh
                        // allocations again, so the pairing set resets too.
                        written_back.clear();
                    }
                    _ => {
                        let k = key(rng.range_u64(0, 3) as u32, 0, rng.range_u64(0, 5) as u32);
                        let bytes = rng.range_u64(1, 15) * 100;
                        let dirty = rng.range_u64(0, 2) == 1;
                        let got = spm.touch(k, bytes, dirty);
                        let want = reference.touch(k, bytes, dirty);
                        assert_eq!(got, want, "access diverged in round {round}");
                        if dirty && got.fetched_bytes > 0 {
                            assert!(
                                written_back.contains(&k),
                                "dirty re-fetch of {k:?} without prior write-back"
                            );
                        }
                        for (victim, _) in &got.writebacks {
                            written_back.insert(*victim);
                        }
                    }
                }
                assert!(spm.used() <= spm.capacity(), "round {round}");
                assert_eq!(spm.used(), reference.used(), "round {round}");
                assert_eq!(spm.resident_tiles(), reference.entries.len());
                assert_eq!(spm.hits(), reference.hits);
                assert_eq!(spm.misses(), reference.misses);
            }
        }
    }
}
