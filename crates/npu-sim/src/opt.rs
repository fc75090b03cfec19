//! Belady (OPT) replacement for the software-managed SPM.
//!
//! An NPU scratchpad is allocated by the compiler, which knows the entire
//! tile schedule in advance — so its residency decisions approximate
//! *optimal* replacement, not LRU: a tile that will not be needed again is
//! the first to go, and a tile with an imminent reuse is pinned. Modelling
//! the SPM as an OPT cache over the known access stream captures exactly
//! this (§1: "SPM is solely managed by the software").
//!
//! [`OptCache`] is fed each access together with the position of the
//! *next* access to the same tile (pre-computed by the caller from the
//! schedule). Eviction picks the resident tile with the furthest next use;
//! an incoming tile whose own next use is further than every resident's is
//! *bypassed* (streamed through without displacing anything) — the
//! standard OPT refinement, and precisely what a compiler does with a
//! streaming operand.
//!
//! Dirty-accumulator semantics match [`crate::SpmCache`]: a fresh
//! accumulator costs no read; evicting a dirty tile writes it back; a
//! previously spilled accumulator is re-fetched on its next touch.
//!
//! `OptCache` is the plain `HashMap`/`BTreeSet` statement of the model.
//! Runs use the replay's `ReplayOptCache`, which makes the same decisions on
//! dense tile ids; `core::audit` shadows every decided schedule with
//! `OptCache` (and its own timelines) as the independent oracle.

use crate::spm::AccessOutcome;
use crate::trace::TileKey;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Position of an access in the flattened schedule access stream;
/// `usize::MAX` means "never used again".
pub type NextUse = usize;

#[derive(Debug, Clone)]
struct Entry {
    bytes: u64,
    dirty: bool,
    next_use: NextUse,
}

/// Byte-capacity cache with Belady's optimal replacement.
#[derive(Debug, Clone)]
pub struct OptCache {
    capacity: u64,
    used: u64,
    entries: HashMap<TileKey, Entry>,
    /// Residents ordered by next use (furthest last).
    order: BTreeSet<(NextUse, TileKey)>,
    spilled: HashSet<TileKey>,
    hits: u64,
    misses: u64,
}

impl OptCache {
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
            entries: HashMap::new(),
            order: BTreeSet::new(),
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

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: &TileKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Access a tile. `dirty` marks accumulator (read-modify-write)
    /// touches; `next_use` is the stream position of the tile's next
    /// access (`usize::MAX` if none).
    pub fn access(
        &mut self,
        key: TileKey,
        bytes: u64,
        dirty: bool,
        next_use: NextUse,
    ) -> AccessOutcome {
        if let Some(entry) = self.entries.get_mut(&key) {
            // Follow tile resizes in all build profiles (see
            // `SpmCache::touch`): stale bytes would corrupt `used`.
            let old = (entry.next_use, key);
            let old_bytes = entry.bytes;
            entry.bytes = bytes;
            entry.next_use = next_use;
            entry.dirty |= dirty;
            self.order.remove(&old);
            self.order.insert((next_use, key));
            self.hits += 1;
            self.used = self.used - old_bytes + bytes;
            let mut writebacks = Vec::new();
            while self.used > self.capacity {
                // The tile grew past what fits: evict furthest-future
                // residents (possibly the touched tile itself) until the
                // residency is legal again.
                self.evict_furthest(&mut writebacks);
            }
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

        // Decide residency: evict furthest-future residents, but never in
        // favour of a tile that is itself the furthest (bypass instead).
        let mut writebacks = Vec::new();
        let mut admitted = bytes <= self.capacity;
        while admitted && self.used + bytes > self.capacity {
            let &(victim_next, _) = self
                .order
                .last()
                .expect("used > 0 implies a resident victim");
            if victim_next <= next_use {
                // Everyone resident is needed sooner than this tile:
                // bypass.
                admitted = false;
                break;
            }
            self.evict_furthest(&mut writebacks);
        }

        if admitted {
            self.entries.insert(
                key,
                Entry {
                    bytes,
                    dirty,
                    next_use,
                },
            );
            self.order.insert((next_use, key));
            self.used += bytes;
        } else if dirty {
            // Bypassed dirty tile: write through.
            writebacks.push((key, bytes));
            self.spilled.insert(key);
        }

        AccessOutcome {
            fetched_bytes: fetched,
            writebacks,
            hit: false,
        }
    }

    /// Evict the resident with the furthest next use (ties: largest key),
    /// writing it back if dirty.
    fn evict_furthest(&mut self, writebacks: &mut Vec<(TileKey, u64)>) {
        let (_, victim_key) = self
            .order
            .pop_last()
            .expect("used > 0 implies a resident victim");
        let victim = self
            .entries
            .remove(&victim_key)
            .expect("order/entry maps out of sync");
        self.used -= victim.bytes;
        if victim.dirty {
            writebacks.push((victim_key, victim.bytes));
            self.spilled.insert(victim_key);
        }
    }

    /// Drop all residency and forget spill history (kernel boundary).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.spilled.clear();
        self.used = 0;
    }

    /// Flush all dirty entries: returns the tiles written back. Entries
    /// stay resident but become clean.
    pub fn flush(&mut self) -> Vec<(TileKey, u64)> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TensorId;
    use igo_tensor::TileCoord;

    fn key(t: u32, c: u32) -> TileKey {
        TileKey {
            tensor: TensorId::from_raw(t),
            coord: TileCoord::new(0, c),
        }
    }

    const NEVER: usize = usize::MAX;

    #[test]
    fn opt_keeps_the_sooner_needed_tile() {
        // Capacity 2 tiles. A is needed again soon, B far, C arrives: B
        // must be the victim.
        let mut c = OptCache::new(200);
        c.access(key(0, 0), 100, false, 10); // A, next at 10
        c.access(key(0, 1), 100, false, 1000); // B, next at 1000
        let out = c.access(key(0, 2), 100, false, 50); // C
        assert!(!out.hit);
        assert!(c.contains(&key(0, 0)), "A (next=10) stays");
        assert!(!c.contains(&key(0, 1)), "B (next=1000) evicted");
        assert!(c.contains(&key(0, 2)));
    }

    #[test]
    fn never_reused_tile_is_bypassed() {
        let mut c = OptCache::new(200);
        c.access(key(0, 0), 100, false, 10);
        c.access(key(0, 1), 100, false, 20);
        // A streaming tile that is never reused must not displace either.
        let out = c.access(key(0, 2), 100, false, NEVER);
        assert!(!out.hit);
        assert!(!c.contains(&key(0, 2)));
        assert!(c.contains(&key(0, 0)) && c.contains(&key(0, 1)));
    }

    #[test]
    fn hit_updates_next_use() {
        let mut c = OptCache::new(200);
        c.access(key(0, 0), 100, false, 5);
        c.access(key(0, 1), 100, false, 6);
        // Touch A again; its new next use is far, so it becomes the victim
        // for a sooner-needed C.
        let hit = c.access(key(0, 0), 100, false, 1000);
        assert!(hit.hit);
        c.access(key(0, 2), 100, false, 7);
        assert!(!c.contains(&key(0, 0)));
        assert!(c.contains(&key(0, 1)));
    }

    #[test]
    fn dirty_eviction_writes_back_and_refetches() {
        let mut c = OptCache::new(100);
        c.access(key(1, 0), 100, true, 50); // accumulator, fresh: no fetch
                                            // Sooner-needed read evicts it.
        let out = c.access(key(0, 0), 100, false, 10);
        assert_eq!(out.writebacks, vec![(key(1, 0), 100)]);
        // Re-touch: must re-fetch partials.
        let back = c.access(key(1, 0), 100, true, 60);
        assert_eq!(back.fetched_bytes, 100);
    }

    #[test]
    fn bypassed_dirty_tile_writes_through() {
        let mut c = OptCache::new(100);
        c.access(key(0, 0), 100, false, 1); // pinned by imminent reuse
        let out = c.access(key(1, 0), 100, true, NEVER);
        assert_eq!(out.writeback_bytes(), 100);
        assert!(!c.contains(&key(1, 0)));
    }

    #[test]
    fn oversized_tile_never_admitted() {
        let mut c = OptCache::new(100);
        let out = c.access(key(0, 0), 500, false, 1);
        assert_eq!(out.fetched_bytes, 500);
        assert!(!c.contains(&key(0, 0)));
    }

    #[test]
    fn flush_keeps_residency_marks_clean() {
        let mut c = OptCache::new(300);
        c.access(key(1, 0), 100, true, 5);
        c.access(key(0, 0), 100, false, 6);
        let flushed = c.flush();
        assert_eq!(flushed, vec![(key(1, 0), 100)]);
        assert!(c.contains(&key(1, 0)));
        assert!(c.flush().is_empty());
    }

    #[test]
    fn used_never_exceeds_capacity() {
        let mut c = OptCache::new(250);
        for i in 0..50u32 {
            c.access(key(0, i), 100, false, (i as usize) + 5);
            assert!(c.used() <= c.capacity());
        }
    }

    /// On sampled access streams, clairvoyant replacement never hits less
    /// than LRU at equal capacity (Belady optimality, spot-checked).
    #[test]
    fn opt_hits_at_least_lru() {
        let mut rng = igo_tensor::SplitMix64::new(0x0B71);
        for _ in 0..64 {
            let len = rng.range_u64(1, 300) as usize;
            let stream: Vec<u32> = (0..len).map(|_| rng.range_u64(0, 12) as u32).collect();
            let capacity = rng.range_u64(1, 8) * 100;
            // Pre-compute next uses.
            let mut next = vec![NEVER; stream.len()];
            let mut last: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
            for (pos, &t) in stream.iter().enumerate().rev() {
                if let Some(&later) = last.get(&t) {
                    next[pos] = later;
                }
                last.insert(t, pos);
            }
            let mut opt = OptCache::new(capacity);
            let mut lru = crate::spm::SpmCache::new(capacity);
            for (pos, &t) in stream.iter().enumerate() {
                opt.access(key(0, t), 100, false, next[pos]);
                lru.read(key(0, t), 100);
            }
            assert!(
                opt.hits() >= lru.hits(),
                "OPT {} < LRU {} on {:?}",
                opt.hits(),
                lru.hits(),
                stream
            );
        }
    }

    #[test]
    fn opt_beats_lru_on_looping_pattern() {
        // The classic case: loop over 3 tiles with capacity 2. LRU misses
        // every access; OPT hits 1 of each 3 in steady state.
        let mut opt = OptCache::new(200);
        let mut lru = crate::spm::SpmCache::new(200);
        let accesses = 30;
        for round in 0..accesses {
            let t = (round % 3) as u32;
            let next = round + 3;
            opt.access(key(0, t), 100, false, next);
            lru.read(key(0, t), 100);
        }
        assert!(
            opt.hits() > lru.hits(),
            "OPT {} vs LRU {}",
            opt.hits(),
            lru.hits()
        );
    }
}
