//! Pins the LRU ablation: a layer's loop-nest generator
//! ([`StreamGen`]) replayed through [`replay_input`] on an
//! `Engine::with_replacement(Replacement::Lru)` engine.
//!
//! That replay is the hardware-cache ablation behind
//! `cargo bench -p igo-bench --bench ablation_replacement`. This test
//! digests its reports — cycles, per-class read/write bytes, hits and
//! misses — for every backward order of one layer on both Table-3 NPU
//! configurations. The digest was recorded on the cycle engine's own LRU
//! loop over a materialised schedule, before the engine moved onto the
//! replay and the ablation onto the generator, so any change to the LRU
//! residency model, its timeline or the generated stream shows up here.

use igo_core::generate::StreamGen;
use igo_core::{BackwardBuilder, BackwardOrder, LayerTensors, TilePolicy};
use igo_npu_sim::{
    replay_input, AnalyticScratch, Engine, NpuConfig, Replacement, Schedule, SimReport,
};
use igo_tensor::{GemmShape, TensorClass};

/// FNV-1a over the little-endian bytes of `values`, continuing from `hash`.
fn fnv1a(hash: u64, values: &[u64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .fold(hash, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The layer's backward pass in `order`, replayed from its generator on
/// `engine`.
fn backward(engine: &Engine, config: &NpuConfig, order: BackwardOrder) -> SimReport {
    let tensors = LayerTensors::register(&mut Schedule::new("lru-pin"), "layer");
    let builder = BackwardBuilder::new(
        GemmShape::new(1024, 768, 640),
        TilePolicy::for_config(config),
        tensors,
    );
    let stream = StreamGen::backward(&[builder], order, false);
    replay_input(&stream, engine, &mut AnalyticScratch::new(), None)
        .expect("an uncut replay completes")
        .report
}

fn digest(hash: u64, r: &SimReport) -> u64 {
    let mut hash = fnv1a(hash, &[r.cycles, r.spm_hits, r.spm_misses]);
    for class in TensorClass::ALL {
        hash = fnv1a(hash, &[r.traffic.read(class), r.traffic.write(class)]);
    }
    hash
}

#[test]
fn lru_engine_reports_are_pinned() {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut differs_from_opt = 0;
    for config in [NpuConfig::small_edge(), NpuConfig::large_single_core()] {
        for order in [
            BackwardOrder::Baseline,
            BackwardOrder::Interleaved,
            BackwardOrder::DxMajor,
            BackwardOrder::DwMajor,
        ] {
            let lru_engine = Engine::new(&config).with_replacement(Replacement::Lru);
            let lru = backward(&lru_engine, &config, order);
            let opt = backward(&Engine::new(&config), &config, order);
            assert_eq!(lru.spm_accesses(), opt.spm_accesses());
            differs_from_opt += usize::from(lru.traffic != opt.traffic);
            hash = digest(hash, &lru);
        }
    }
    // The layer overflows the SPM on both configurations, so the policies
    // disagree somewhere and the pin covers LRU evictions, not only hits.
    assert!(differs_from_opt > 0, "LRU never differs from OPT");
    assert_eq!(hash, 0xf73f_106b_a95f_10e7, "LRU digest {hash:#018x}");
}
