//! Memoization of layer simulations.
//!
//! The experiment harnesses simulate the same layer shapes over and over:
//! a technique ladder re-simulates every layer's forward pass once per
//! technique, zoo models share layer shapes, and sweeps revisit entire
//! models. Under this machine model a layer simulation is a pure function
//! of `(GEMM shape, ifmap density, hardware config, technique, position)`,
//! so a [`crate::SimContext`] caches results across the calls made on it.
//! The same memo also holds individual backward *candidates*
//! (`CandidateKey`): techniques share candidate schedules, so a candidate
//! replayed while selecting under one technique is served from the memo
//! when a later technique enumerates it.
//!
//! Each memo counts its own hits, misses and evictions.
//! [`crate::SimContext::new`] builds a private memo;
//! [`crate::SimContext::shared`] and the free-function shims
//! ([`crate::simulate_model`], [`sim_cache_stats`], ...) use the one
//! process memo, built on first use.
//!
//! The key deliberately excludes the config's *name* (a label) and
//! *batch-per-core* (already folded into the GEMM's M dimension by model
//! construction) but includes every field the engine reads: core count, PE
//! array, clock, SPM capacity, DRAM bandwidth and burst latency. Densities
//! and clocks are `f64`s and are keyed by their bit patterns.

use crate::partition::PartitionScheme;
use crate::pipeline::{LayerDecision, MovedOps};
use crate::schedule::BackwardOrder;
use crate::technique::Technique;
use igo_npu_sim::{NpuConfig, SimReport};
use igo_tensor::GemmShape;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// The simulation-relevant fields of an [`NpuConfig`], bit-exact and
/// hashable. Two configs with equal fingerprints produce identical layer
/// simulations; configs differing in any engine-visible field — SPM size,
/// bandwidth, PE array, clock, cores, burst latency — never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigFingerprint {
    cores: u32,
    pe_rows: u32,
    pe_cols: u32,
    freq_bits: u64,
    spm_bytes: u64,
    bandwidth_bits: u64,
    burst_latency: u64,
}

impl ConfigFingerprint {
    /// Fingerprint `config`.
    pub fn of(config: &NpuConfig) -> Self {
        Self {
            cores: config.cores,
            pe_rows: config.pe.rows,
            pe_cols: config.pe.cols,
            freq_bits: config.freq_hz.to_bits(),
            spm_bytes: config.spm_bytes,
            bandwidth_bits: config.dram.bandwidth_bytes_per_sec.to_bits(),
            burst_latency: config.dram.burst_latency_cycles,
        }
    }
}

/// Which simulation of a layer the entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PassKey {
    Forward,
    Backward {
        technique: Technique,
        is_first: bool,
    },
    /// One replayed backward candidate (see [`CandidateKey`]).
    Candidate(CandidateKey),
}

/// One backward candidate schedule of a layer. Unlike
/// [`PassKey::Backward`], this names a single access stream rather than a
/// technique, so a candidate replayed while selecting under one technique
/// (e.g. Baseline's plain schedule) answers the same candidate when a
/// later technique (e.g. DataPartitioning) enumerates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CandidateKey {
    /// The unpartitioned emission (on a multi-core config, the batch
    /// split across cores).
    Plain {
        order: BackwardOrder,
        is_first: bool,
    },
    /// A partitioned emission of `parts` realised sub-GEMMs.
    Partition {
        scheme: PartitionScheme,
        parts: u64,
        order: BackwardOrder,
        is_first: bool,
    },
}

/// A memo key: one simulation of one layer on one config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    gemm: GemmShape,
    density_bits: u64,
    config: ConfigFingerprint,
    pass: PassKey,
}

impl CacheKey {
    pub(crate) fn new(gemm: GemmShape, density: f64, config: &NpuConfig, pass: PassKey) -> Self {
        Self {
            gemm,
            density_bits: density.to_bits(),
            config: ConfigFingerprint::of(config),
            pass,
        }
    }
}

/// A memoized layer result: the report, the decision (`Some` for
/// backward passes only) and the per-stream moved ops of the replayed
/// candidate (of a backward pass's winner; none for a forward pass).
pub(crate) type CacheEntry = (SimReport, Option<LayerDecision>, MovedOps);

/// Capacity of every memo in entries (an entry is a couple of hundred
/// bytes, so this bounds a memo to a few tens of megabytes).
pub const DEFAULT_CACHE_CAP: usize = 1 << 18;

/// A bounded LRU map with its own lookup counters: recency is tracked
/// with a lazy queue of `(key, stamp)` touches — an entry is live only
/// under its latest stamp, so stale queue slots are skipped (and trimmed)
/// instead of being moved.
struct LruCache<K, V> {
    map: HashMap<K, (V, u64)>,
    queue: VecDeque<(K, u64)>,
    clock: u64,
    cap: usize,
    stats: CacheStats,
}

impl<K: Eq + Hash + Copy, V: Clone> LruCache<K, V> {
    fn new(cap: usize) -> Self {
        assert!(cap > 0, "cache cap must be positive");
        Self {
            map: HashMap::new(),
            queue: VecDeque::new(),
            clock: 0,
            cap,
            stats: CacheStats::default(),
        }
    }

    fn touch(&mut self, k: K) -> u64 {
        self.clock += 1;
        self.queue.push_back((k, self.clock));
        self.clock
    }

    /// Compact the lazy queue once it holds more dead than live slots.
    /// `retain` preserves the stamp order, so eviction recency is
    /// unaffected; the halving threshold makes the sweep amortized O(1)
    /// per touch.
    fn maybe_compact(&mut self) {
        if self.queue.len() > (2 * self.map.len()).max(64) {
            let map = &self.map;
            self.queue
                .retain(|&(k, s)| map.get(&k).is_some_and(|&(_, live)| live == s));
        }
    }

    fn get(&mut self, k: &K) -> Option<V> {
        let stamp = self.touch(*k);
        let got = match self.map.get_mut(k) {
            Some((entry, s)) => {
                *s = stamp;
                self.stats.hits += 1;
                Some(entry.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        };
        self.maybe_compact();
        got
    }

    fn insert(&mut self, k: K, entry: V) {
        let stamp = self.touch(k);
        self.map.insert(k, (entry, stamp));
        while self.map.len() > self.cap {
            let (victim, s) = self.queue.pop_front().expect("queue covers every entry");
            if self.map.get(&victim).is_some_and(|&(_, live)| live == s) {
                self.map.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.maybe_compact();
    }
}

/// One memo of layer results and candidate replays: the LRU behind a
/// lock, so the layer workers of one [`crate::SimContext`] share it.
pub(crate) struct Memo(Mutex<LruCache<CacheKey, CacheEntry>>);

/// The process memo behind [`crate::SimContext::shared`], built on first
/// use.
static SHARED: OnceLock<Arc<Memo>> = OnceLock::new();

impl Memo {
    /// An empty memo holding at most `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0 (every lookup would miss while still paying
    /// the insertion cost).
    pub(crate) fn new(cap: usize) -> Self {
        Self(Mutex::new(LruCache::new(cap)))
    }

    /// The process memo, built on first use.
    pub(crate) fn shared() -> Arc<Self> {
        Arc::clone(SHARED.get_or_init(|| Arc::new(Self::new(DEFAULT_CACHE_CAP))))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LruCache<CacheKey, CacheEntry>> {
        self.0
            .lock()
            .expect("memo cache lock poisoned by a panicking worker")
    }

    /// The entry under `k`, counted as a hit or a miss.
    pub(crate) fn get(&self, k: &CacheKey) -> Option<CacheEntry> {
        self.lock().get(k)
    }

    /// Store `entry` under `k`. Concurrent workers may race on the same
    /// key; both compute the same deterministic value, so last-write-wins
    /// is harmless.
    pub(crate) fn put(&self, k: CacheKey, entry: CacheEntry) {
        self.lock().insert(k, entry);
    }

    /// Hit/miss/eviction counters so far.
    pub(crate) fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Entries held: layer results and candidate replays.
    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Candidate replays held (a subset of [`Self::len`]).
    pub(crate) fn candidate_len(&self) -> usize {
        self.lock()
            .map
            .keys()
            .filter(|k| matches!(k.pass, PassKey::Candidate(_)))
            .count()
    }
}

/// Hit/miss/eviction counters of a layer memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Layer simulations served from the cache.
    pub hits: u64,
    /// Layer simulations that had to run.
    pub misses: u64,
    /// Entries dropped by the LRU capacity cap.
    pub evictions: u64,
}

/// The shared memo's counters so far. Monotonic; sample before and after
/// a workload to attribute lookups.
pub fn sim_cache_stats() -> CacheStats {
    Memo::shared().stats()
}

/// Number of entries the shared memo holds: layer results and candidate
/// replays.
pub fn sim_cache_len() -> usize {
    Memo::shared().len()
}

/// Number of candidate replays the shared memo holds (a subset of
/// [`sim_cache_len`]).
pub fn sim_profile_cache_len() -> usize {
    Memo::shared().candidate_len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimContext, SimOptions};
    use igo_workloads::{Layer, Model, ModelId};

    #[test]
    fn fingerprint_distinguishes_spm_size_only() {
        let a = NpuConfig::large_single_core();
        let b = a.clone().with_spm_bytes(a.spm_bytes / 2);
        assert_ne!(
            ConfigFingerprint::of(&a),
            ConfigFingerprint::of(&b),
            "SPM-only difference must change the key"
        );
    }

    #[test]
    fn fingerprint_distinguishes_bandwidth_only() {
        let a = NpuConfig::large_single_core();
        let b = a.clone().with_bandwidth_scale(0.5);
        assert_ne!(
            ConfigFingerprint::of(&a),
            ConfigFingerprint::of(&b),
            "bandwidth-only difference must change the key"
        );
    }

    #[test]
    fn fingerprint_ignores_name_and_batch() {
        let a = NpuConfig::large_single_core();
        let mut b = a.clone().with_batch_per_core(32);
        b.name = "renamed".to_owned();
        assert_eq!(
            ConfigFingerprint::of(&a),
            ConfigFingerprint::of(&b),
            "labels and batch (already in the GEMM's M) are not keys"
        );
    }

    fn key_for(m: u64) -> CacheKey {
        CacheKey::new(
            GemmShape::new(m, 3, 5),
            1.0,
            &NpuConfig::small_edge(),
            PassKey::Forward,
        )
    }

    fn entry_for(cycles: u64) -> CacheEntry {
        (
            SimReport {
                cycles,
                ..Default::default()
            },
            None,
            MovedOps::One(cycles / 2),
        )
    }

    #[test]
    fn lru_cap_evicts_least_recently_used() {
        let mut lru = LruCache::new(4);
        for m in 1..=4 {
            lru.insert(key_for(m), entry_for(m));
        }
        // Touch the oldest entry, then overflow: the untouched next-oldest
        // (m=2) must be the victim, not the refreshed m=1.
        assert!(lru.get(&key_for(1)).is_some());
        lru.insert(key_for(5), entry_for(5));
        assert_eq!(lru.map.len(), 4, "cap must hold");
        assert!(lru.get(&key_for(2)).is_none(), "LRU entry evicted");
        assert!(lru.get(&key_for(1)).is_some(), "refreshed entry survives");
        assert!(lru.get(&key_for(5)).is_some(), "newest entry survives");
        let want = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 1,
        };
        assert_eq!(lru.stats, want);
    }

    #[test]
    fn lru_queue_stays_bounded_under_repeated_touches() {
        let mut lru = LruCache::new(8);
        for m in 1..=8 {
            lru.insert(key_for(m), entry_for(m));
        }
        for _ in 0..10_000 {
            assert!(lru.get(&key_for(3)).is_some());
        }
        assert!(
            lru.queue.len() <= (2 * lru.map.len()).max(64) + 1,
            "lazy queue must be compacted, got {} slots",
            lru.queue.len()
        );
    }

    #[test]
    fn candidate_memo_round_trips_and_keys_the_full_config() {
        let memo = Memo::new(DEFAULT_CACHE_CAP);
        let gemm = GemmShape::new(70, 60, 50);
        let config = NpuConfig::small_edge();
        let shrunk = config.clone().with_spm_bytes(config.spm_bytes / 2);
        let plain = |config: &NpuConfig, is_first| {
            let order = BackwardOrder::Interleaved;
            let pass = PassKey::Candidate(CandidateKey::Plain { order, is_first });
            CacheKey::new(gemm, 1.0, config, pass)
        };
        assert_eq!(memo.get(&plain(&config, false)), None);
        memo.put(plain(&config, false), entry_for(40));
        assert_eq!(memo.get(&plain(&config, false)), Some(entry_for(40)));
        assert_eq!(memo.get(&plain(&shrunk, false)), None, "SPM size is keyed");
        assert_eq!(
            memo.get(&plain(&config, true)),
            None,
            "pass position is keyed"
        );
        assert_eq!((memo.len(), memo.candidate_len()), (1, 1));
    }

    #[test]
    fn cache_round_trips_a_forward_entry() {
        let memo = Memo::new(DEFAULT_CACHE_CAP);
        let config = NpuConfig::small_edge();
        let forward = |density| {
            CacheKey::new(
                GemmShape::new(70, 60, 50),
                density,
                &config,
                PassKey::Forward,
            )
        };
        assert_eq!(memo.get(&forward(0.123)), None);
        memo.put(forward(0.123), entry_for(42));
        assert_eq!(memo.get(&forward(0.123)), Some(entry_for(42)));
        assert_eq!(memo.get(&forward(0.124)), None, "density is keyed");
        let want = CacheStats {
            hits: 1,
            misses: 2,
            evictions: 0,
        };
        assert_eq!(memo.stats(), want);
        assert_eq!((memo.len(), memo.candidate_len()), (1, 0));
    }

    /// Three dense layers; the last two share a shape, so the third is
    /// served from the memo.
    fn tiny_model() -> Model {
        Model::new(
            ModelId::Ncf,
            "tiny",
            64,
            vec![
                Layer::fc("fc1", 64, 128, 256),
                Layer::fc("fc2", 64, 256, 256),
                Layer::fc("fc3", 64, 256, 256),
            ],
            0,
        )
    }

    const SERIAL: SimOptions = SimOptions::sequential();

    fn stats(hits: u64, misses: u64) -> CacheStats {
        CacheStats {
            hits,
            misses,
            evictions: 0,
        }
    }

    #[test]
    fn private_contexts_count_exactly_and_share_nothing() {
        let (model, config) = (tiny_model(), NpuConfig::small_edge());
        let a = SimContext::new(SERIAL);
        // Baseline has one candidate per layer: fc1 and fc2 each miss
        // their forward, backward and candidate lookups; fc3 hits fc2's
        // forward and backward entries.
        let cold = a.model(&model, &config, Technique::Baseline);
        assert_eq!(a.cache_stats(), stats(2, 6));
        assert_eq!((a.memo.len(), a.memo.candidate_len()), (6, 2));
        // A rerun is served per layer: two hits per layer, no replay.
        let warm = a.model(&model, &config, Technique::Baseline);
        assert_eq!(a.cache_stats(), stats(8, 6));
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        // Interleaving reuses the forward entries and replays a new
        // candidate for fc1 and fc2 only.
        a.model(&model, &config, Technique::Interleaving);
        assert_eq!(a.cache_stats(), stats(12, 10));
        assert_eq!((a.memo.len(), a.memo.candidate_len()), (10, 4));

        // A second private context starts empty and counts alone.
        let b = SimContext::new(SERIAL);
        assert_eq!((b.memo.len(), b.cache_stats()), (0, stats(0, 0)));
        let fresh = b.model(&model, &config, Technique::Baseline);
        assert_eq!(b.cache_stats(), stats(2, 6));
        assert_eq!(a.cache_stats(), stats(12, 10), "b touched a's memo");
        assert_eq!(format!("{cold:?}"), format!("{fresh:?}"));
    }

    /// A memo smaller than the working set evicts without changing a
    /// report. Where every miss stores an entry — Interleaving has one
    /// candidate per layer, which always completes — each miss past the
    /// first `cap` evicts exactly one entry. DataPartitioning's pruned
    /// candidates miss without storing, so there only the reports and the
    /// memo's size are pinned.
    #[test]
    fn small_memo_evicts_without_changing_reports() {
        let (model, config) = (tiny_model(), NpuConfig::small_edge());
        for technique in [Technique::Interleaving, Technique::DataPartitioning] {
            let want = SimContext::new(SERIAL).model(&model, &config, technique);
            for cap in [1, 2, 4] {
                let small = SimContext {
                    options: SERIAL,
                    memo: Arc::new(Memo::new(cap)),
                };
                for _ in 0..2 {
                    let got = small.model(&model, &config, technique);
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "{technique} cap {cap}"
                    );
                }
                let s = small.cache_stats();
                assert_eq!(small.memo.len(), cap, "{technique} cap {cap}");
                assert!(s.evictions > 0, "{technique} cap {cap}: {s:?}");
                if technique == Technique::Interleaving {
                    assert_eq!(s.evictions, s.misses - cap as u64, "cap {cap}: {s:?}");
                }
            }
        }
    }
}
