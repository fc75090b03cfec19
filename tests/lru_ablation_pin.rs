//! Pins the LRU ablation path of [`Engine::run`].
//!
//! `Engine::with_replacement(Replacement::Lru)` is the hardware-cache
//! ablation behind `cargo bench -p igo-bench --bench ablation_replacement`.
//! This test digests its reports — cycles, per-class read/write bytes,
//! hits and misses — for every backward order of one layer on both Table-3
//! NPU configurations. The digest was recorded on the cycle engine's own
//! LRU loop, before the engine moved onto the replay, so any change to the
//! LRU residency model or its timeline shows up here.

use igo_core::{BackwardBuilder, BackwardOrder, LayerTensors, TilePolicy};
use igo_npu_sim::{Engine, NpuConfig, Replacement, Schedule, SimReport};
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

fn backward(config: &NpuConfig, order: BackwardOrder) -> Schedule {
    let mut s = Schedule::new("lru-pin");
    let tensors = LayerTensors::register(&mut s, "layer");
    BackwardBuilder::new(
        GemmShape::new(1024, 768, 640),
        TilePolicy::for_config(config),
        tensors,
    )
    .emit(order, false, &mut s);
    s
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
            let s = backward(&config, order);
            let lru = Engine::new(&config)
                .with_replacement(Replacement::Lru)
                .run(&s);
            let opt = Engine::new(&config).run(&s);
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
