//! A traced layer costs one replay per traced stream once its decision is
//! known: the memory track is sized from the selection's own replay, so
//! no counting replay runs before the recorded one.
//!
//! The analytic run counter is process-wide, so this file holds a single
//! test: it runs in a process of its own and nothing else replays while
//! it counts.

use igo_core::{SimContext, SimOptions, Technique};
use igo_npu_sim::{analytic_run_count, NpuConfig};
use igo_tensor::GemmShape;

#[test]
fn tracing_a_decided_layer_replays_each_stream_once() {
    let edge = NpuConfig::small_edge();
    let two_core = NpuConfig::large_server(2);
    let cases = [
        (
            GemmShape::new(1024, 512, 512),
            &edge,
            Technique::Interleaving,
        ),
        (
            GemmShape::new(512, 312, 1200),
            &edge,
            Technique::DataPartitioning,
        ),
        (
            GemmShape::new(4096, 1024, 1024),
            &two_core,
            Technique::Interleaving,
        ),
    ];
    let mut cores_seen = Vec::new();
    for (gemm, config, technique) in cases {
        // A one-worker context, its memo warmed by the selection the trace
        // repeats.
        let context = SimContext::new(SimOptions::sequential());
        let (report, decision) = context.backward(gemm, 1.0, config, technique, false);
        let before = analytic_run_count();
        let trace = context.trace_layer("layer", gemm, 1.0, config, technique, false);
        let replays = analytic_run_count() - before;
        assert_eq!((trace.report, trace.decision), (report, decision));
        assert_eq!(
            replays,
            trace.cores.len() as u64,
            "{gemm:?} on {} under {technique}: {decision:?}",
            config.name
        );
        cores_seen.push((trace.cores.len(), decision.partition.is_some()));
    }
    // One plain stream, partitions chained on one core, one stream per
    // core.
    assert_eq!(cores_seen, [(1, false), (1, true), (2, false)]);
}
