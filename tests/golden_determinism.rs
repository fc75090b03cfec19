//! Golden determinism tests for the simulation pipeline.
//!
//! Every zoo model, under every technique, on both Table-3 NPU
//! configurations, has its per-layer results pinned by an FNV-1a digest:
//! forward and backward cycles plus per-class DRAM read/write bytes. The
//! pinned digests are the reference. The pipeline's performance features —
//! the worker pool (`SimOptions::workers`), memoization and bound pruning —
//! must be invisible in the results: a cold run on a forced 3-worker pool,
//! on a fresh private `SimContext`, must reproduce the pinned digest, and a
//! warm rerun served from that context's memo must reproduce the cold run
//! bit for bit, decisions included. The forced pool exercises real
//! cross-thread reductions even on a single-CPU machine.

use igo_core::{ModelReport, SimContext, SimOptions, Technique};
use igo_npu_sim::{
    replay_recorded, AnalyticCollector, AnalyticScratch, Engine, EventLog, NpuConfig,
};
use igo_tensor::{GemmShape, TensorClass};
use igo_workloads::{zoo, ModelId};

/// A pool forced larger than one worker, so the deterministic-reduction
/// claim is tested with real threads everywhere.
const POOLED: SimOptions = SimOptions { workers: 3 };

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

/// FNV-1a over the little-endian bytes of `values`, continuing from `hash`.
fn fnv1a(hash: u64, values: &[u64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .fold(hash, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Digest of `reports`: per layer, forward and backward cycles followed by
/// the per-class read and write bytes of each pass.
fn digest(reports: &[ModelReport]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for layer in reports.iter().flat_map(|r| &r.layers) {
        for pass in [&layer.forward, &layer.backward] {
            hash = fnv1a(hash, &[pass.cycles]);
            for class in TensorClass::ALL {
                hash = fnv1a(hash, &[pass.traffic.read(class), pass.traffic.write(class)]);
            }
        }
    }
    hash
}

fn assert_identical(a: &ModelReport, b: &ModelReport) {
    assert_eq!(
        a.layers.len(),
        b.layers.len(),
        "{}: layer count diverged",
        a.model
    );
    for (l, r) in a.layers.iter().zip(&b.layers) {
        assert_eq!(
            l.forward, r.forward,
            "{}/{}: forward report diverged",
            a.model, l.name
        );
        assert_eq!(
            l.backward, r.backward,
            "{}/{}: backward report diverged",
            a.model, l.name
        );
        assert_eq!(
            l.decision, r.decision,
            "{}/{}: scheduler decision diverged",
            a.model, l.name
        );
        assert_eq!(l.multiplicity, r.multiplicity);
    }
    assert_eq!(a.total_cycles(), b.total_cycles());
    assert_eq!(a.total_traffic(), b.total_traffic());
    assert_eq!(a.backward_traffic(), b.backward_traffic());
}

/// Simulate `models` at `batch` under `technique` on `config` on a fresh
/// context with a forced 3-worker pool, pin the cold run's digest to
/// `want`, and demand that a warm (memo-served) rerun on the same context
/// reproduces the cold run bit for bit.
fn golden_sweep(
    models: &[ModelId],
    config: &NpuConfig,
    batch: u64,
    technique: Technique,
    want: u64,
) {
    let run = |context: &SimContext| -> Vec<ModelReport> {
        models
            .iter()
            .map(|&id| context.model(&zoo::model(id, batch), config, technique))
            .collect()
    };
    let context = SimContext::new(POOLED);
    let cold = run(&context);
    let got = digest(&cold);
    assert_eq!(
        got, want,
        "{technique} on {}: digest {got:#018x} != pinned {want:#018x}",
        config.name
    );
    let warm = run(&context);
    for (c, w) in cold.iter().zip(&warm) {
        assert_identical(c, w);
    }
}

/// One test per `(test name, config, technique, digest)` over every
/// distinct zoo model at batch 1.
macro_rules! zoo_golden {
    ($($name:ident: $config:expr, $technique:ident, $digest:expr;)*) => {$(
        #[test]
        fn $name() {
            golden_sweep(&all_zoo_models(), &$config, 1, Technique::$technique, $digest);
        }
    )*};
}

zoo_golden! {
    zoo_baseline_is_bit_identical_on_edge_config:
        NpuConfig::small_edge(), Baseline, 0x97cb_424a_a69e_2a05;
    zoo_ideal_dy_reuse_is_bit_identical_on_edge_config:
        NpuConfig::small_edge(), IdealDyReuse, 0xb4f6_755d_034f_39cb;
    zoo_interleaving_is_bit_identical_on_edge_config:
        NpuConfig::small_edge(), Interleaving, 0x5ee8_7318_045c_8777;
    zoo_rearrangement_is_bit_identical_on_edge_config:
        NpuConfig::small_edge(), Rearrangement, 0x08c3_3c34_62ad_d100;
    zoo_oracle_is_bit_identical_on_edge_config:
        NpuConfig::small_edge(), RearrangementOracle, 0x2509_c5c5_7ad3_dd01;
    zoo_partitioning_is_bit_identical_on_edge_config:
        NpuConfig::small_edge(), DataPartitioning, 0xa948_e828_3841_52d0;
    zoo_baseline_is_bit_identical_on_server_config:
        NpuConfig::large_single_core(), Baseline, 0x008d_2380_e906_3129;
    zoo_ideal_dy_reuse_is_bit_identical_on_server_config:
        NpuConfig::large_single_core(), IdealDyReuse, 0x0eb9_7984_d3b1_79b7;
    zoo_interleaving_is_bit_identical_on_server_config:
        NpuConfig::large_single_core(), Interleaving, 0xec3e_ee1a_44cb_1103;
    zoo_rearrangement_is_bit_identical_on_server_config:
        NpuConfig::large_single_core(), Rearrangement, 0xf872_ec83_bd62_bbe1;
    zoo_oracle_is_bit_identical_on_server_config:
        NpuConfig::large_single_core(), RearrangementOracle, 0x51db_3b04_011c_5e0d;
    zoo_partitioning_is_bit_identical_on_server_config:
        NpuConfig::large_single_core(), DataPartitioning, 0x7523_5282_3176_030c;
}

/// The recorder hook must be invisible when off *and* when on: the
/// default replay (a `NullRecorder`, whose `ENABLED = false` compiles
/// every instrumentation block out) and a fully recording [`EventLog`]
/// replay must both produce the exact report of the cycle engine, which
/// has no recorder hook at all.
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
            let collector = AnalyticCollector::from_schedule(&s);
            let mut scratch = AnalyticScratch::new();
            let mut log = EventLog::new();
            let recorded = replay_recorded(&collector, &engine, &mut scratch, None, &mut log)
                .expect("an uncut replay completes");
            assert_eq!(
                plain, recorded.report,
                "{order:?}: recording changed the report"
            );
            assert!(!log.events.is_empty());
            // Replaying through the null path after a recorded run, on the
            // same scratch, must still be bit-identical (no state leaks
            // between runs).
            let null = collector.replay(&engine, &mut scratch);
            assert_eq!(plain, null.report, "{order:?}: replay diverged");
        }
    }
}

/// The traced front-end re-derives the pipeline's decision and reports
/// without perturbing either — decisions and reports stay bit-identical
/// whether or not a recorder observed the run.
#[test]
fn traced_pipeline_is_bit_identical_to_untraced() {
    let context = SimContext::new(SimOptions::sequential());
    for config in [NpuConfig::small_edge(), NpuConfig::large_server(2)] {
        for technique in [
            Technique::Baseline,
            Technique::Interleaving,
            Technique::DataPartitioning,
        ] {
            let gemm = GemmShape::new(448, 256, 384);
            let (report, decision) = context.backward(gemm, 1.0, &config, technique, false);
            let trace = context.trace_layer("layer", gemm, 1.0, &config, technique, false);
            assert_eq!(trace.decision, decision, "{technique:?}: decision diverged");
            assert_eq!(trace.report, report, "{technique:?}: report diverged");
        }
    }
}

/// The multi-core execution model (per-core streams plus reduction) on
/// two cores, every technique.
#[test]
fn multicore_partitioning_is_bit_identical() {
    let config = NpuConfig::large_server(2);
    let digests: [u64; 6] = [
        0x484f_ebbf_96c6_b0a2,
        0xac12_85b8_592f_2d37,
        0xf443_3fd6_7cc3_0bd4,
        0x3100_aca8_8e30_4fb3,
        0xa42d_87df_8952_1927,
        0x6d1d_7ce3_980d_1a50,
    ];
    for (technique, want) in Technique::ALL.into_iter().zip(digests) {
        golden_sweep(
            &[ModelId::Ncf, ModelId::BertTiny],
            &config,
            4,
            technique,
            want,
        );
    }
}
