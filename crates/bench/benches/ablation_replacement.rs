//! Ablation: SPM residency model — compiler-managed (Belady/OPT, the
//! default) vs a hardware-cache-style LRU.
//!
//! DESIGN.md motivates modelling the software-managed SPM as an OPT cache
//! over the known schedule. This harness quantifies the difference: the
//! baseline benefits most from OPT (its two sequential kernels have long,
//! compiler-visible reuse distances), so reproductions that model SPM as
//! LRU overstate the techniques' gains.

use igo_core::generate::StreamGen;
use igo_core::{BackwardBuilder, BackwardOrder, LayerTensors, TilePolicy};
use igo_npu_sim::{replay_input, AnalyticScratch, Engine, NpuConfig, Replacement, Schedule};
use igo_tensor::GemmShape;
use igo_workloads::zoo;

fn run(
    gemm: GemmShape,
    density: f64,
    config: &NpuConfig,
    order: BackwardOrder,
    repl: Replacement,
) -> u64 {
    let tensors = LayerTensors::register(&mut Schedule::new("abl"), "l");
    let builder = BackwardBuilder::new(gemm, TilePolicy::for_config(config), tensors)
        .with_ifmap_density(density);
    let stream = StreamGen::backward(&[builder], order, false);
    let engine = Engine::new(config).with_replacement(repl);
    replay_input(&stream, &engine, &mut AnalyticScratch::new(), None)
        .expect("an uncut replay completes")
        .report
        .cycles
}

fn main() {
    igo_bench::header(
        "Ablation — SPM residency: compiler-managed (OPT) vs LRU",
        "methodological: how much the baseline gains from software SPM management",
    );
    let config = NpuConfig::large_single_core();
    let model = zoo::model(igo_workloads::ModelId::Resnet50, 8);
    println!(
        "{:<16} {:>12} {:>12} {:>10} | {:>18}",
        "layer", "base(OPT)", "base(LRU)", "LRU/OPT", "rearr gain OPT/LRU"
    );
    let mut opt_gain = Vec::new();
    let mut lru_gain = Vec::new();
    for layer in model.layers.iter().filter(|l| !l.is_first).take(12) {
        let b_opt = run(
            layer.gemm,
            layer.ifmap_density,
            &config,
            BackwardOrder::Baseline,
            Replacement::Opt,
        );
        let b_lru = run(
            layer.gemm,
            layer.ifmap_density,
            &config,
            BackwardOrder::Baseline,
            Replacement::Lru,
        );
        let order = BackwardOrder::from(igo_core::select_order(layer.gemm));
        let r_opt = run(
            layer.gemm,
            layer.ifmap_density,
            &config,
            order,
            Replacement::Opt,
        );
        let r_lru = run(
            layer.gemm,
            layer.ifmap_density,
            &config,
            order,
            Replacement::Lru,
        );
        let g_opt = 1.0 - r_opt as f64 / b_opt as f64;
        let g_lru = 1.0 - r_lru as f64 / b_lru as f64;
        opt_gain.push(g_opt);
        lru_gain.push(g_lru);
        println!(
            "{:<16} {:>12} {:>12} {:>10.3} | {:>+8.1}% / {:>+6.1}%",
            layer.name,
            b_opt,
            b_lru,
            b_lru as f64 / b_opt as f64,
            g_opt * 100.0,
            g_lru * 100.0
        );
    }
    println!(
        "mean rearrangement gain: {:+.1}% under OPT, {:+.1}% under LRU",
        igo_bench::mean(&opt_gain) * 100.0,
        igo_bench::mean(&lru_gain) * 100.0
    );
}
