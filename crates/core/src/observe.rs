//! Recorded (traced) layer execution: the observability front-end.
//!
//! [`crate::pipeline`] answers *how long* a layer's backward pass takes;
//! this module answers *what happened while it ran*. It replays the
//! pipeline's decided execution with a streaming recorder attached. The
//! recorder never stores the cycle-stamped event stream ([`TraceEvent`]):
//! as each event arrives it is folded into
//!
//! * the run's [`RunMetrics`] ([`MetricsFold`]) — SPM occupancy high-water
//!   mark, per-class reuse-distance histograms, and the dY reuse ratio
//!   over time resolved per tile (the paper's Figure 5 quantity, per tile
//!   instead of summed), and
//! * the core's timeline tracks ([`crate::tracks`]) — compute, memory and
//!   phase slices, SPM-occupancy samples and barriers.
//!
//! Both recorders are sized by the [`igo_npu_sim::StreamShape`] of the
//! replay they record, which its input fixes before the replay starts
//! ([`igo_npu_sim::StreamShape::of_input`]), and the track builder also by
//! the number of memory slices: the ops that moved bytes, which the
//! selection loop's own replay of the decided candidate counted
//! ([`igo_npu_sim::AnalyticReport::moved_ops`], memoized with the
//! decision). So they cap the dY series and every track while the run
//! lasts. A [`CoreTrace`] therefore keeps the metrics, the capped tracks
//! and an event count. No recorder state grows with the event count; the
//! metrics fold's per-tile state and `dy_tiles` (one entry per dY tile)
//! grow with the tile grid.
//!
//! [`SimContext::trace_layer`] makes the decision exactly as the untraced
//! pipeline does ([`SimContext::backward`], on the same context and memo),
//! and `pipeline::record_decided` builds the execution it implies through
//! the selection loop's own candidate construction and replays its
//! generators ([`crate::generate::StreamGen`]) once each with the recorder
//! attached — the code path that produced the reported numbers, with
//! nothing collected. That is one replay per core for multi-core
//! decisions and one chained replay for single-core sequential
//! partitions. The audit ([`crate::audit::check_report_conservation`])
//! checks the recorded replay's events against an independent residency
//! model.
//!
//! The exporter for the collected traces — Chrome trace-event JSON
//! (Perfetto / `chrome://tracing`) and CSV metric summaries — lives in
//! [`crate::report_io`].

use crate::partition::PartitionScheme;
use crate::pipeline::{record_decided, LayerDecision, SimContext, SimOptions};
use crate::technique::Technique;
use crate::tracks::{CoreTracks, TrackBuilder};
use igo_npu_sim::{
    Engine, MetricsFold, NpuConfig, Recorder, ReplayInput, RunMetrics, SimReport, TraceEvent,
    DY_SERIES_CAP,
};
use igo_tensor::GemmShape;
use igo_workloads::Model;

/// Recorded execution of one core's (or one chained single-core) schedule.
#[derive(Debug, Clone)]
pub struct CoreTrace {
    /// Core index within the layer's execution (0 for single-core).
    pub core: usize,
    /// Name of the schedule this core ran.
    pub schedule: String,
    /// Events the replay emitted during the run.
    pub event_count: usize,
    /// Metrics folded from the event stream.
    pub metrics: RunMetrics,
    /// Capped timeline tracks folded from the event stream.
    pub tracks: CoreTracks,
    /// The replay report of this core's run (no reduction).
    pub report: SimReport,
}

/// Recorded backward execution of one layer under its decided schedule.
#[derive(Debug, Clone)]
pub struct LayerTrace {
    /// Layer name (or a synthetic `MxKxN` label for ad-hoc layers).
    pub name: String,
    /// Forward GEMM shape of the layer.
    pub gemm: GemmShape,
    /// Technique the decision was made under.
    pub technique: Technique,
    /// The scheduler's decision (order and partitioning).
    pub decision: LayerDecision,
    /// The pipeline's (combined) backward report for the decision.
    pub report: SimReport,
    /// Per-core SPM residency capacity in bytes.
    pub capacity: u64,
    /// One recorded run per core (a single chained run for single-core
    /// sequential partitions, matching the pipeline's execution model).
    pub cores: Vec<CoreTrace>,
}

impl LayerTrace {
    /// Total recorded events across all cores.
    pub fn event_count(&self) -> usize {
        self.cores.iter().map(|c| c.event_count).sum()
    }
}

/// The streaming recorder of one core's replay: counts the events and
/// folds each into the run's metrics and timeline tracks.
struct CoreRecorder {
    events: usize,
    metrics: MetricsFold,
    tracks: TrackBuilder,
}

impl Recorder for CoreRecorder {
    fn record(&mut self, event: TraceEvent) {
        self.events += 1;
        self.metrics.record(event);
        self.tracks.record(event);
    }
}

/// The name of the stream `core` runs under `decision`: the layer's own
/// name for one unpartitioned stream, else its partition, labelled by the
/// scheme (the conventional batch split for an unpartitioned multi-core
/// decision) and the partition index (0 for segments chained on one core).
fn stream_name(name: &str, config: &NpuConfig, decision: LayerDecision, core: usize) -> String {
    match decision.partition {
        None if config.cores == 1 => name.to_string(),
        None => PartitionScheme::WeightSharing.part_name(core),
        Some((scheme, _)) => scheme.part_name(core),
    }
}

impl SimContext {
    /// Decide a layer's backward execution exactly as
    /// [`SimContext::backward`] does, then replay the decided execution
    /// with a recorder attached.
    ///
    /// The recorded per-core reports sum to the same tile work the
    /// pipeline report describes; cross-core reduction streams (which no
    /// core executes) are the only part of a multi-core decision that is
    /// not recorded.
    pub fn trace_layer(
        &self,
        name: &str,
        gemm: GemmShape,
        density: f64,
        config: &NpuConfig,
        technique: Technique,
        is_first: bool,
    ) -> LayerTrace {
        let (report, decision, moved) =
            self.backward_moved(gemm, density, config, technique, is_first);
        let engine = Engine::new(config);
        let cores = record_decided(
            gemm,
            density,
            config,
            decision,
            moved.as_slice(),
            is_first,
            |stream, shape, memory_slices| CoreRecorder {
                events: 0,
                metrics: MetricsFold::new(engine.residency_bytes(), &shape, DY_SERIES_CAP, |id| {
                    stream.key_of(id)
                }),
                tracks: TrackBuilder::new(
                    engine.bytes_per_cycle(),
                    engine.burst_latency(),
                    shape,
                    memory_slices,
                ),
            },
        )
        .into_iter()
        .enumerate()
        .map(|(core, (report, recorder))| CoreTrace {
            core,
            schedule: stream_name(name, config, decision, core),
            event_count: recorder.events,
            metrics: recorder.metrics.finish(),
            tracks: recorder.tracks.finish(),
            report,
        })
        .collect();
        LayerTrace {
            name: name.to_string(),
            gemm,
            technique,
            decision,
            report,
            capacity: engine.residency_bytes(),
            cores,
        }
    }

    /// Trace every distinct layer of `model` (each layer once, regardless
    /// of its multiplicity), in forward order.
    pub fn trace_model(
        &self,
        model: &Model,
        config: &NpuConfig,
        technique: Technique,
    ) -> Vec<LayerTrace> {
        model
            .layers
            .iter()
            .map(|layer| {
                self.trace_layer(
                    &layer.name,
                    layer.gemm,
                    layer.ifmap_density,
                    config,
                    technique,
                    layer.is_first,
                )
            })
            .collect()
    }
}

/// [`SimContext::trace_model`] on the shared memo under `options`.
pub fn trace_model(
    model: &Model,
    config: &NpuConfig,
    technique: Technique,
    options: &SimOptions,
) -> Vec<LayerTrace> {
    SimContext::shared(*options).trace_model(model, config, technique)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report_io::DEFAULT_REUSE_POINTS;
    use crate::tracks::{assert_matches_finish_time_caps, memory_slices};
    use igo_npu_sim::{decimate, AccessKind, DyReusePoint, EventLog};
    use igo_tensor::TensorClass;
    use igo_workloads::{zoo, ModelId};

    /// [`SimContext::trace_layer`] of a dense, non-first layer on a fresh
    /// sequential context.
    fn trace(gemm: GemmShape, config: &NpuConfig, technique: Technique) -> LayerTrace {
        SimContext::new(SimOptions::sequential())
            .trace_layer("layer", gemm, 1.0, config, technique, false)
    }

    #[test]
    fn traced_decision_and_reports_match_pipeline() {
        let config = NpuConfig::small_edge();
        let gemm = GemmShape::new(300, 200, 180);
        let context = SimContext::new(SimOptions::sequential());
        let (report, decision) =
            context.backward(gemm, 1.0, &config, Technique::Rearrangement, false);
        let trace =
            context.trace_layer("layer", gemm, 1.0, &config, Technique::Rearrangement, false);
        assert_eq!(trace.decision, decision);
        assert_eq!(trace.report, report);
        assert_eq!(trace.cores.len(), 1);
        // The recorded single-core run *is* the decided execution.
        assert_eq!(trace.cores[0].report, report);
        assert!(trace.event_count() > 0);
    }

    #[test]
    fn multicore_trace_has_one_recording_per_core() {
        let config = NpuConfig::large_server(2);
        let trace = trace(
            GemmShape::new(512, 256, 256),
            &config,
            Technique::Interleaving,
        );
        assert_eq!(trace.cores.len(), 2);
        for core in &trace.cores {
            assert!(core.metrics.total_accesses() > 0);
            assert_eq!(
                core.metrics.total_accesses(),
                core.report.spm_accesses(),
                "derived metrics must account for every replayed access"
            );
        }
    }

    #[test]
    fn traced_metrics_expose_dy_reuse() {
        let config = NpuConfig::small_edge();
        let trace = trace(
            GemmShape::new(256, 128, 128),
            &config,
            Technique::Interleaving,
        );
        let m = &trace.cores[0].metrics;
        assert!(m.class(TensorClass::OutGrad).accesses > 0);
        assert_eq!(
            m.dy_timeline.len() as u64,
            m.class(TensorClass::OutGrad).accesses,
            "one timeline point per dY access"
        );
        assert!(m.occupancy_high_water <= m.capacity);
    }

    #[test]
    fn retained_tracks_stay_within_their_caps() {
        use crate::tracks::{BARRIER_CAP, COUNTER_CAP, PHASE_CAP, SLICE_CAP};
        let trace = trace(
            GemmShape::new(2048, 1024, 1024),
            &NpuConfig::small_edge(),
            Technique::Interleaving,
        );
        assert!(trace.event_count() > 100_000, "{}", trace.event_count());
        for core in &trace.cores {
            let t = &core.tracks;
            assert!(t.compute.len() <= SLICE_CAP);
            assert!(t.memory.len() <= SLICE_CAP);
            assert!(t.phases.len() <= PHASE_CAP);
            // Decimation keeps the last sample on top of the cap.
            assert!(t.occupancy.len() <= COUNTER_CAP + 1);
            assert!(t.barriers.len() <= BARRIER_CAP + 1);
            // The caps bit: coalesced slices account for far more ops.
            let gemms: u64 = t.compute.iter().map(|s| s.ops).sum();
            assert!(gemms > SLICE_CAP as u64, "{gemms} GEMMs");
            // So does the dY series cap, and the last point still counts
            // every dY access and hit.
            let m = &core.metrics;
            let dy = m.class(TensorClass::OutGrad);
            assert!(dy.accesses > DEFAULT_REUSE_POINTS as u64 + 1);
            assert!(m.dy_timeline.len() <= DEFAULT_REUSE_POINTS + 1);
            let last = m.dy_timeline.last().expect("the layer touches dY");
            assert_eq!((last.accesses, last.hits), (dy.accesses, dy.hits));
        }
    }

    /// Trace a layer, then replay its decision again with an [`EventLog`]
    /// per core and check that each core's retained tracks and dY series
    /// are exactly the finish-time caps of that core's full event stream,
    /// and that the selection's moved ops count the memory slices of that
    /// stream. Returns the trace and the largest full dY series length.
    fn assert_retained_equal_finish_time_caps(
        gemm: GemmShape,
        config: &NpuConfig,
        technique: Technique,
    ) -> (LayerTrace, usize) {
        let trace = trace(gemm, config, technique);
        let (_, decision, moved) = SimContext::new(SimOptions::sequential())
            .backward_moved(gemm, 1.0, config, technique, false);
        assert_eq!(decision, trace.decision);
        let logs = record_decided(
            gemm,
            1.0,
            config,
            decision,
            moved.as_slice(),
            false,
            |_, _, _| EventLog::new(),
        );
        let engine = Engine::new(config);
        assert_eq!(logs.len(), trace.cores.len());
        let mut longest = 0;
        for (((report, log), core), &moved) in logs.iter().zip(&trace.cores).zip(moved.as_slice()) {
            assert_eq!(*report, core.report);
            assert_eq!(log.events.len(), core.event_count);
            assert_eq!(memory_slices(&log.events), moved);
            assert_matches_finish_time_caps(
                &log.events,
                &core.tracks,
                engine.bytes_per_cycle(),
                engine.burst_latency(),
            );
            let mut dy = (0, 0);
            let full: Vec<DyReusePoint> = log
                .events
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::Access {
                        class: TensorClass::OutGrad,
                        kind,
                        cycle,
                        ..
                    } => {
                        dy = (dy.0 + 1, dy.1 + u64::from(kind == AccessKind::Hit));
                        Some(DyReusePoint {
                            cycle,
                            accesses: dy.0,
                            hits: dy.1,
                        })
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(
                core.metrics.dy_timeline,
                decimate(&full, DEFAULT_REUSE_POINTS)
            );
            longest = longest.max(full.len());
        }
        (trace, longest)
    }

    #[test]
    fn record_time_caps_equal_finish_time_caps() {
        let edge = NpuConfig::small_edge();
        let gemm = GemmShape::new(1024, 512, 512);
        let (single, dy_points) =
            assert_retained_equal_finish_time_caps(gemm, &edge, Technique::Interleaving);
        assert_eq!(single.cores.len(), 1);
        assert!(dy_points > DEFAULT_REUSE_POINTS, "{dy_points} dY points");

        let (chained, _) = assert_retained_equal_finish_time_caps(
            GemmShape::new(512, 312, 1200),
            &edge,
            Technique::DataPartitioning,
        );
        assert_eq!(chained.cores.len(), 1);
        assert!(
            chained.decision.partition.is_some(),
            "{:?}",
            chained.decision
        );

        let (two_core, dy_points) = assert_retained_equal_finish_time_caps(
            GemmShape::new(4096, 1024, 1024),
            &NpuConfig::large_server(2),
            Technique::Interleaving,
        );
        assert_eq!(two_core.cores.len(), 2);
        assert!(dy_points > DEFAULT_REUSE_POINTS, "{dy_points} dY points");
    }

    #[test]
    fn model_trace_covers_every_distinct_layer() {
        let config = NpuConfig::small_edge();
        let model = zoo::model(ModelId::Ncf, 4);
        let traces = SimContext::new(SimOptions::sequential()).trace_model(
            &model,
            &config,
            Technique::Baseline,
        );
        assert_eq!(traces.len(), model.layers.len());
        for (trace, layer) in traces.iter().zip(&model.layers) {
            assert_eq!(trace.name, layer.name);
        }
    }
}
