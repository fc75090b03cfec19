//! Figure 13: DRAM traffic vs execution time of `+Rearrangement` on the
//! most memory-intensive layers (the top 15% longest-running backward
//! layers of the large NPU, first layers excluded).
//!
//! The paper's observation: the layers split into two groups — FC / deep
//! convolution layers where the traffic reduction translates directly
//! into time (left of the line), and shallow convolutions with huge input
//! feature maps where the two gradient computations are hard to balance
//! and the time gain lags the traffic gain.

use igo_core::{SimContext, SimOptions, Technique};
use igo_npu_sim::NpuConfig;
use igo_workloads::zoo;

struct Row {
    name: String,
    base_cycles: u64,
    norm_time: f64,
    norm_traffic: f64,
    shallow: bool,
}

fn main() {
    igo_bench::header(
        "Figure 13 — traffic vs time of +Rearrangement, top-15% layers (large NPU)",
        "traffic reduction tracks time for FC/deep layers; lags for shallow convs",
    );
    let config = NpuConfig::large_single_core();
    let suite = zoo::server_suite(config.default_batch());
    let context = SimContext::new(SimOptions::default());

    let mut rows = Vec::new();
    for model in &suite {
        for layer in &model.layers {
            if layer.is_first {
                // The paper excludes first layers: no dX to interleave.
                continue;
            }
            let (base, _) = context.backward(
                layer.gemm,
                layer.ifmap_density,
                &config,
                Technique::Baseline,
                false,
            );
            let (rearr, _) = context.backward(
                layer.gemm,
                layer.ifmap_density,
                &config,
                Technique::Rearrangement,
                false,
            );
            rows.push(Row {
                name: format!("{}_{}", model.id.abbr(), layer.name),
                base_cycles: base.cycles * layer.count as u64 * layer.groups as u64,
                norm_time: rearr.cycles as f64 / base.cycles as f64,
                norm_traffic: rearr.traffic.total() as f64 / base.traffic.total() as f64,
                // The paper's "shallow" group: very large input feature
                // maps with small per-channel weights.
                shallow: layer.gemm.m() > 50 * layer.gemm.k()
                    && layer.gemm.m() > 50 * layer.gemm.n(),
            });
        }
    }

    rows.sort_by_key(|r| std::cmp::Reverse(r.base_cycles));
    let keep = (rows.len() * 15 / 100).max(10).min(rows.len());
    let (mut deep, mut shallow) = (Vec::new(), Vec::new());
    println!(
        "{:<24} {:>12} {:>12} {:>10}",
        "layer", "norm time", "norm traffic", "group"
    );
    for row in rows.iter().take(keep) {
        println!(
            "{:<24} {:>12.3} {:>12.3} {:>10}",
            row.name,
            row.norm_time,
            row.norm_traffic,
            if row.shallow { "shallow" } else { "deep/fc" }
        );
        if row.shallow {
            shallow.push((row.norm_time, row.norm_traffic));
        } else {
            deep.push((row.norm_time, row.norm_traffic));
        }
    }
    let gap = |v: &[(f64, f64)]| -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        v.iter().map(|(t, q)| t - q).sum::<f64>() / v.len() as f64
    };
    println!();
    println!(
        "deep/fc group:  mean time-vs-traffic gap {:+.3} ({} layers) — time tracks traffic",
        gap(&deep),
        deep.len()
    );
    println!(
        "shallow group:  mean time-vs-traffic gap {:+.3} ({} layers) — paper: gains lag traffic",
        gap(&shallow),
        shallow.len()
    );
}
