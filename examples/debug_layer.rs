//! Internal debugging aid: per-layer technique comparison.
use igo_core::{SimContext, SimOptions, Technique};
use igo_npu_sim::NpuConfig;
use igo_tensor::{GemmShape, TensorClass};
use igo_workloads::{zoo, ModelId};

fn main() {
    let config = if std::env::args().any(|a| a == "--edge") {
        NpuConfig::small_edge()
    } else {
        NpuConfig::large_single_core()
    };
    let model = zoo::model(ModelId::Resnet50, config.default_batch());
    let context = SimContext::new(SimOptions::default());
    let backward =
        |gemm, technique, is_first| context.backward(gemm, 1.0, &config, technique, is_first);
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10} | baseline detail",
        "layer", "base", "inter", "rearr", "part"
    );
    for layer in &model.layers {
        let (b, _) = backward(layer.gemm, Technique::Baseline, layer.is_first);
        let (i, _) = backward(layer.gemm, Technique::Interleaving, layer.is_first);
        let (r, d) = backward(layer.gemm, Technique::Rearrangement, layer.is_first);
        let (p, pd) = backward(layer.gemm, Technique::DataPartitioning, layer.is_first);
        println!(
            "{:<18} {:>10} {:>10.3} {:>10.3} {:>10.3} | {} m={} misses={} dyR={}MB memb={:.2} order={:?} part={:?}",
            layer.name,
            b.cycles,
            i.cycles as f64 / b.cycles as f64,
            r.cycles as f64 / b.cycles as f64,
            p.cycles as f64 / b.cycles as f64,
            layer.gemm,
            layer.gemm.m(),
            b.spm_misses,
            b.traffic.read(TensorClass::OutGrad) / (1 << 20),
            b.memory_boundedness(),
            d.order,
            pd.partition,
        );
    }
    // One isolated shape study.
    let g = GemmShape::new(25088, 576, 64);
    for t in [
        Technique::Baseline,
        Technique::Interleaving,
        Technique::Rearrangement,
    ] {
        let (r, _) = backward(g, t, false);
        println!(
            "{t:<20} cycles={} mem={} comp={} reads={}MB writes={}MB hits={} misses={}",
            r.cycles,
            r.mem_cycles,
            r.compute_cycles,
            r.traffic.read_total() / (1 << 20),
            r.traffic.write_total() / (1 << 20),
            r.spm_hits,
            r.spm_misses
        );
    }
}
