//! Golden determinism tests for the optimized simulation pipeline.
//!
//! The pipeline's performance features — worker-pool parallelism, layer
//! memoization, lower-bound candidate pruning (`SimOptions`) — must be
//! invisible in the results: every zoo model, on both Table-3 NPU
//! configurations, has to produce *bit-identical* reports (cycles,
//! per-class traffic, scheduler decisions) on the optimized path and on
//! the plain sequential reference path. A forced 3-worker pool exercises
//! real cross-thread reductions even on a single-CPU machine.

use igo_core::{
    simulate_layer_backward_with, simulate_model_with, trace_layer_backward, ModelReport,
    SimOptions, Technique,
};
use igo_npu_sim::{Engine, EngineScratch, EventLog, NpuConfig};
use igo_tensor::GemmShape;
use igo_workloads::{zoo, ModelId};

/// Optimized options with a pool forced larger than one worker, so the
/// deterministic-reduction claim is tested with real threads everywhere.
const OPTIMIZED: SimOptions = SimOptions {
    parallel: true,
    memoize: true,
    prune: true,
    workers: 3,
    analytic_fast_path: true,
};

/// Every distinct zoo model (the union of the server and edge suites).
fn all_zoo_models() -> Vec<ModelId> {
    let mut ids: Vec<ModelId> = Vec::new();
    for id in zoo::SERVER_SUITE.iter().chain(zoo::EDGE_SUITE.iter()) {
        if !ids.contains(id) {
            ids.push(*id);
        }
    }
    ids
}

fn assert_identical(seq: &ModelReport, opt: &ModelReport) {
    assert_eq!(
        seq.layers.len(),
        opt.layers.len(),
        "{}: layer count diverged",
        seq.model
    );
    for (l, r) in seq.layers.iter().zip(&opt.layers) {
        assert_eq!(
            l.forward, r.forward,
            "{}/{}: forward report diverged",
            seq.model, l.name
        );
        assert_eq!(
            l.backward, r.backward,
            "{}/{}: backward report diverged",
            seq.model, l.name
        );
        assert_eq!(
            l.decision, r.decision,
            "{}/{}: scheduler decision diverged",
            seq.model, l.name
        );
        assert_eq!(l.multiplicity, r.multiplicity);
    }
    assert_eq!(seq.total_cycles(), opt.total_cycles());
    assert_eq!(seq.total_traffic(), opt.total_traffic());
    assert_eq!(seq.backward_traffic(), opt.backward_traffic());
}

/// Run every zoo model under `technique` on `config`, sequential vs
/// optimized, and demand bit-identical reports. A small batch keeps the
/// sequential reference affordable without shrinking the candidate space.
fn golden_sweep(config: &NpuConfig, batch: u64, technique: Technique) {
    for id in all_zoo_models() {
        let model = zoo::model(id, batch);
        let seq = simulate_model_with(&model, config, technique, &SimOptions::sequential());
        let opt = simulate_model_with(&model, config, technique, &OPTIMIZED);
        assert_identical(&seq, &opt);
        // A second optimized run is served from the warm cache and must
        // still match.
        let warm = simulate_model_with(&model, config, technique, &OPTIMIZED);
        assert_identical(&seq, &warm);
    }
}

#[test]
fn zoo_partitioning_is_bit_identical_on_edge_config() {
    golden_sweep(&NpuConfig::small_edge(), 1, Technique::DataPartitioning);
}

#[test]
fn zoo_partitioning_is_bit_identical_on_server_config() {
    golden_sweep(
        &NpuConfig::large_single_core(),
        1,
        Technique::DataPartitioning,
    );
}

#[test]
fn zoo_baseline_is_bit_identical_on_server_config() {
    golden_sweep(&NpuConfig::large_single_core(), 1, Technique::Baseline);
}

/// The recorder hook must be invisible when off *and* when on: the
/// default engine path (a `NullRecorder`, whose `ENABLED = false` compiles
/// every instrumentation block out) and a fully recording [`EventLog`] run
/// must both produce the exact report the engine produced before the hook
/// existed.
#[test]
fn recorder_leaves_engine_reports_bit_identical() {
    use igo_core::{BackwardBuilder, BackwardOrder, LayerTensors, TilePolicy};
    use igo_npu_sim::Schedule;

    for config in [NpuConfig::small_edge(), NpuConfig::large_single_core()] {
        let engine = Engine::new(&config);
        let policy = TilePolicy::for_config(&config);
        for order in [
            BackwardOrder::Baseline,
            BackwardOrder::Interleaved,
            BackwardOrder::DxMajor,
            BackwardOrder::DwMajor,
        ] {
            let mut s = Schedule::new("golden");
            let tensors = LayerTensors::register(&mut s, "layer");
            BackwardBuilder::new(GemmShape::new(384, 192, 320), policy, tensors)
                .emit(order, false, &mut s);
            let plain = engine.run(&s);
            let mut log = EventLog::new();
            let recorded = engine.run_recorded(&s, &mut EngineScratch::new(), &mut log);
            assert_eq!(plain, recorded, "{order:?}: recording changed the report");
            assert!(!log.events.is_empty());
            // Re-running through the null path after a recorded run must
            // still be bit-identical (no state leaks between runs).
            assert_eq!(plain, engine.run(&s), "{order:?}: replay diverged");
        }
    }
}

/// The traced front-end re-derives the pipeline's decision and reports
/// without perturbing either — decisions and reports stay bit-identical
/// whether or not a recorder observed the run.
#[test]
fn traced_pipeline_is_bit_identical_to_untraced() {
    let options = SimOptions::sequential();
    for config in [NpuConfig::small_edge(), NpuConfig::large_server(2)] {
        for technique in [
            Technique::Baseline,
            Technique::Interleaving,
            Technique::DataPartitioning,
        ] {
            let gemm = GemmShape::new(448, 256, 384);
            let (report, decision) =
                simulate_layer_backward_with(gemm, 1.0, &config, technique, false, &options);
            let trace =
                trace_layer_backward("layer", gemm, 1.0, &config, technique, false, &options);
            assert_eq!(trace.decision, decision, "{technique:?}: decision diverged");
            assert_eq!(trace.report, report, "{technique:?}: report diverged");
        }
    }
}

#[test]
fn multicore_partitioning_is_bit_identical() {
    // The multi-core execution model (per-core schedules plus reduction)
    // goes through its own candidate path; cover it on two cores.
    let config = NpuConfig::large_server(2);
    for id in [ModelId::Ncf, ModelId::BertTiny] {
        let model = zoo::model(id, 4);
        let seq = simulate_model_with(
            &model,
            &config,
            Technique::DataPartitioning,
            &SimOptions::sequential(),
        );
        let opt = simulate_model_with(&model, &config, Technique::DataPartitioning, &OPTIMIZED);
        assert_identical(&seq, &opt);
    }
}
