//! Internal debugging aid: why does chunked zip lose on a specific layer?
use igo_core::{SimContext, SimOptions, Technique};
use igo_npu_sim::NpuConfig;
use igo_workloads::{zoo, ModelId};

fn main() {
    let config = NpuConfig::small_edge();
    let context = SimContext::new(SimOptions::default());
    for model in [
        zoo::model(ModelId::Dlrm, 4),
        zoo::model(ModelId::YoloV2Tiny, 4),
    ] {
        println!("== {}", model.name);
        for layer in &model.layers {
            let (b, _) = context.backward(
                layer.gemm,
                layer.ifmap_density,
                &config,
                Technique::Baseline,
                layer.is_first,
            );
            let (i, _) = context.backward(
                layer.gemm,
                layer.ifmap_density,
                &config,
                Technique::Interleaving,
                layer.is_first,
            );
            println!(
                "{:<12} {} base={} inter={:.3} | base reads {}KB writes {}KB vs inter reads {}KB writes {}KB | hits {} vs {}",
                layer.name,
                layer.gemm,
                b.cycles,
                i.cycles as f64 / b.cycles as f64,
                b.traffic.read_total() >> 10,
                b.traffic.write_total() >> 10,
                i.traffic.read_total() >> 10,
                i.traffic.write_total() >> 10,
                b.spm_hits,
                i.spm_hits,
            );
        }
    }
}
