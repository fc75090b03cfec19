//! Process-wide memoization of layer simulations.
//!
//! The experiment harnesses simulate the same layer shapes over and over:
//! a technique ladder re-simulates every layer's forward pass once per
//! technique, zoo models share layer shapes, and sweeps revisit entire
//! models. Under this machine model a layer simulation is a pure function
//! of `(GEMM shape, ifmap density, hardware config, technique, position)`,
//! so the pipeline caches results across [`crate::simulate_model`] calls.
//! The same cache also memoizes individual backward *candidates*
//! ([`CandidateKey`]): techniques share candidate schedules, so a candidate
//! replayed while selecting under one technique is served from the cache
//! when a later technique enumerates it.
//!
//! The key deliberately excludes the config's *name* (a label) and
//! *batch-per-core* (already folded into the GEMM's M dimension by model
//! construction) but includes every field the engine reads: core count, PE
//! array, clock, SPM capacity, DRAM bandwidth and burst latency. Densities
//! and clocks are `f64`s and are keyed by their bit patterns.

use crate::partition::PartitionScheme;
use crate::pipeline::LayerDecision;
use crate::schedule::BackwardOrder;
use crate::technique::Technique;
use igo_npu_sim::{NpuConfig, SimReport};
use igo_tensor::GemmShape;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

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
enum PassKey {
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

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    gemm: GemmShape,
    density_bits: u64,
    config: ConfigFingerprint,
    pass: PassKey,
}

/// A memoized layer result (`decision` is `None` for forward passes).
type CacheEntry = (SimReport, Option<LayerDecision>);

/// Default capacity in entries (an entry is a couple of hundred bytes, so
/// this bounds the memo cache to a few tens of megabytes).
pub const DEFAULT_CACHE_CAP: usize = 1 << 18;

/// Environment variable overriding the memo-cache capacity (entries).
pub const CACHE_CAP_ENV: &str = "IGO_SIM_CACHE_CAP";

/// A bounded LRU map: recency is tracked with a lazy queue of
/// `(key, stamp)` touches — an entry is live only under its latest stamp,
/// so stale queue slots are skipped (and trimmed) instead of being moved.
struct LruCache<K, V> {
    map: HashMap<K, (V, u64)>,
    queue: VecDeque<(K, u64)>,
    clock: u64,
}

impl<K: Eq + Hash + Copy, V: Clone> LruCache<K, V> {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            queue: VecDeque::new(),
            clock: 0,
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
                Some(entry.clone())
            }
            None => None,
        };
        self.maybe_compact();
        got
    }

    fn insert(&mut self, k: K, entry: V, cap: usize) {
        let stamp = self.touch(k);
        self.map.insert(k, (entry, stamp));
        while self.map.len() > cap {
            let (victim, s) = self.queue.pop_front().expect("queue covers every entry");
            if self.map.get(&victim).is_some_and(|&(_, live)| live == s) {
                self.map.remove(&victim);
                EVICTIONS.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.maybe_compact();
    }
}

static CACHE: OnceLock<Mutex<LruCache<CacheKey, CacheEntry>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
/// Capacity override; `usize::MAX` means "unset, read the environment".
static CAP: AtomicUsize = AtomicUsize::new(usize::MAX);

fn cache() -> &'static Mutex<LruCache<CacheKey, CacheEntry>> {
    CACHE.get_or_init(|| Mutex::new(LruCache::new()))
}

/// The active capacity cap: a [`set_sim_cache_cap`] override if present,
/// else `IGO_SIM_CACHE_CAP` from the environment, else
/// [`DEFAULT_CACHE_CAP`].
pub fn sim_cache_cap() -> usize {
    match CAP.load(Ordering::Relaxed) {
        usize::MAX => std::env::var(CACHE_CAP_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&cap| cap > 0)
            .unwrap_or(DEFAULT_CACHE_CAP),
        cap => cap,
    }
}

/// Override the memo-cache capacity (entries) for this process,
/// taking precedence over `IGO_SIM_CACHE_CAP`. The cap applies to future
/// insertions; it does not shrink the cache retroactively.
///
/// # Panics
///
/// Panics if `cap` is 0 (a cap of zero would make every lookup miss while
/// still paying the insertion cost; disable memoization via
/// [`crate::SimOptions::memoize`] instead).
pub fn set_sim_cache_cap(cap: usize) {
    assert!(cap > 0, "cache cap must be positive");
    CAP.store(cap, Ordering::Relaxed);
}

fn key(gemm: GemmShape, density: f64, config: &NpuConfig, pass: PassKey) -> CacheKey {
    CacheKey {
        gemm,
        density_bits: density.to_bits(),
        config: ConfigFingerprint::of(config),
        pass,
    }
}

fn lookup(k: &CacheKey) -> Option<CacheEntry> {
    let got = cache().lock().unwrap().get(k);
    match got {
        Some(_) => HITS.fetch_add(1, Ordering::Relaxed),
        None => MISSES.fetch_add(1, Ordering::Relaxed),
    };
    got
}

fn insert(k: CacheKey, entry: CacheEntry) {
    // Concurrent workers may race on the same key; both compute the same
    // deterministic value, so last-write-wins is harmless.
    let cap = sim_cache_cap();
    cache().lock().unwrap().insert(k, entry, cap);
}

pub(crate) fn get_forward(gemm: GemmShape, density: f64, config: &NpuConfig) -> Option<SimReport> {
    lookup(&key(gemm, density, config, PassKey::Forward)).map(|(r, _)| r)
}

pub(crate) fn put_forward(gemm: GemmShape, density: f64, config: &NpuConfig, report: SimReport) {
    insert(key(gemm, density, config, PassKey::Forward), (report, None));
}

pub(crate) fn get_backward(
    gemm: GemmShape,
    density: f64,
    config: &NpuConfig,
    technique: Technique,
    is_first: bool,
) -> Option<(SimReport, LayerDecision)> {
    let pass = PassKey::Backward {
        technique,
        is_first,
    };
    lookup(&key(gemm, density, config, pass))
        .map(|(r, d)| (r, d.expect("backward entries carry a decision")))
}

pub(crate) fn put_backward(
    gemm: GemmShape,
    density: f64,
    config: &NpuConfig,
    technique: Technique,
    is_first: bool,
    report: SimReport,
    decision: LayerDecision,
) {
    let pass = PassKey::Backward {
        technique,
        is_first,
    };
    insert(key(gemm, density, config, pass), (report, Some(decision)));
}

/// The exact report of one backward candidate replayed before on this
/// layer and config, under any technique.
pub(crate) fn get_candidate(
    gemm: GemmShape,
    density: f64,
    config: &NpuConfig,
    candidate: CandidateKey,
) -> Option<SimReport> {
    lookup(&key(gemm, density, config, PassKey::Candidate(candidate))).map(|(r, _)| r)
}

/// Memoize the exact report of one completed candidate replay.
pub(crate) fn put_candidate(
    gemm: GemmShape,
    density: f64,
    config: &NpuConfig,
    candidate: CandidateKey,
    report: SimReport,
) {
    insert(
        key(gemm, density, config, PassKey::Candidate(candidate)),
        (report, None),
    );
}

/// Number of memoized candidate replays (a subset of [`sim_cache_len`]).
pub fn sim_profile_cache_len() -> usize {
    cache()
        .lock()
        .expect("memo cache lock poisoned by a panicking worker")
        .map
        .keys()
        .filter(|k| matches!(k.pass, PassKey::Candidate(_)))
        .count()
}

/// Hit/miss/eviction counters of the layer memo cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Layer simulations served from the cache.
    pub hits: u64,
    /// Layer simulations that had to run.
    pub misses: u64,
    /// Entries dropped by the LRU capacity cap.
    pub evictions: u64,
}

/// Process-wide cache counters so far. Monotonic; sample before and after a
/// workload to attribute lookups (the `--timing` flag does exactly that).
pub fn sim_cache_stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
    }
}

/// Number of entries currently memoized: layer results and candidate
/// replays.
pub fn sim_cache_len() -> usize {
    cache().lock().unwrap().map.len()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        key(
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
        )
    }

    #[test]
    fn lru_cap_evicts_least_recently_used() {
        let mut lru = LruCache::new();
        let evicted_before = EVICTIONS.load(Ordering::Relaxed);
        for m in 1..=4 {
            lru.insert(key_for(m), entry_for(m), 4);
        }
        // Touch the oldest entry, then overflow: the untouched next-oldest
        // (m=2) must be the victim, not the refreshed m=1.
        assert!(lru.get(&key_for(1)).is_some());
        lru.insert(key_for(5), entry_for(5), 4);
        assert_eq!(lru.map.len(), 4, "cap must hold");
        assert!(lru.get(&key_for(2)).is_none(), "LRU entry evicted");
        assert!(lru.get(&key_for(1)).is_some(), "refreshed entry survives");
        assert!(lru.get(&key_for(5)).is_some(), "newest entry survives");
        assert!(
            EVICTIONS.load(Ordering::Relaxed) > evicted_before,
            "evictions must be counted"
        );
    }

    #[test]
    fn lru_queue_stays_bounded_under_repeated_touches() {
        let mut lru = LruCache::new();
        for m in 1..=8 {
            lru.insert(key_for(m), entry_for(m), 8);
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
    fn cache_cap_override_takes_precedence() {
        // A deliberately large override so concurrently running tests that
        // rely on memoization never see evictions from this one.
        set_sim_cache_cap(9_999_999);
        assert_eq!(sim_cache_cap(), 9_999_999);
    }

    #[test]
    fn candidate_memo_round_trips_and_keys_the_full_config() {
        // A deliberately unique shape so no other test collides.
        let gemm = GemmShape::new(7873, 7867, 7853);
        let config = NpuConfig::small_edge();
        let shrunk = config.clone().with_spm_bytes(config.spm_bytes / 2);
        let plain = CandidateKey::Plain {
            order: BackwardOrder::Interleaved,
            is_first: false,
        };
        assert_eq!(get_candidate(gemm, 1.0, &config, plain), None);
        let report = SimReport {
            cycles: 40,
            ..Default::default()
        };
        put_candidate(gemm, 1.0, &config, plain, report);
        assert_eq!(get_candidate(gemm, 1.0, &config, plain), Some(report));
        assert_eq!(
            get_candidate(gemm, 1.0, &shrunk, plain),
            None,
            "SPM size is keyed"
        );
        let first = CandidateKey::Plain {
            order: BackwardOrder::Interleaved,
            is_first: true,
        };
        assert_eq!(
            get_candidate(gemm, 1.0, &config, first),
            None,
            "pass position is keyed"
        );
        assert!(sim_profile_cache_len() >= 1);
    }

    #[test]
    fn cache_round_trips_a_forward_entry() {
        // A deliberately unique shape so no other test collides.
        let gemm = GemmShape::new(7919, 7907, 7901);
        let config = NpuConfig::small_edge();
        assert_eq!(get_forward(gemm, 0.123, &config), None);
        let report = SimReport {
            cycles: 42,
            ..Default::default()
        };
        put_forward(gemm, 0.123, &config, report);
        assert_eq!(get_forward(gemm, 0.123, &config), Some(report));
        assert_eq!(get_forward(gemm, 0.124, &config), None, "density is keyed");
    }
}
