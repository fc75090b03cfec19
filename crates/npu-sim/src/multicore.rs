//! Multi-core execution and sequential partition chaining.
//!
//! §6.3 of the paper evaluates 1–8 core NPUs in which "DRAM bandwidth, SPM
//! size, and batch size increase proportionally with the growth in the
//! number of cores, with all cores sharing the SPM". We model that as:
//!
//! * each core replays its own partition's stream on one core's
//!   [`Engine`], with an even slice of the shared SPM and an even share of
//!   the aggregate DRAM bandwidth;
//! * the step time is the slowest core's makespan plus, for partitioning
//!   schemes that need it, a cross-partition **reduction** of the partial
//!   gradient tensors at aggregate bandwidth (weight-sharing partitioning
//!   accumulates `dW` partials; dY-sharing accumulates `dX`; ifmap-sharing
//!   needs none — §5).
//!
//! [`replay_sequential_partitions_bounded`] is the single-core analogue:
//! the partition streams (compatible forks of one parent) are replayed as
//! one concatenated stream, so SPM residency — including the shared
//! tensor's tiles — carries across partition boundaries, plus the same
//! reduction traffic.
//!
//! The `replay_*` functions are the only entries: they take replay inputs
//! (the generators the pipeline builds, or analytic collectors) and hold
//! the combine (aggregate traffic, slowest core, reduction).

use crate::analytic::{replay_input, AnalyticScratch, ReplayInput};
use crate::config::NpuConfig;
use crate::engine::Engine;
use crate::stats::{SimReport, Traffic};
use crate::trace::StreamOp;

/// Result of a multi-core step.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MultiCoreReport {
    /// Per-core reports (one combined report for the sequential case).
    pub core_reports: Vec<SimReport>,
    /// Per-core ops that moved DRAM bytes
    /// ([`crate::AnalyticReport::moved_ops`]), one per core report of a
    /// replay; empty when the step was combined from bare reports
    /// ([`sequential_combined`]).
    pub core_moved_ops: Vec<u64>,
    /// Cycles spent in the cross-partition reduction (0 when none needed).
    pub reduction_cycles: u64,
    /// Step makespan: slowest core plus reduction.
    pub cycles: u64,
    /// Aggregate DRAM traffic of all cores plus the reduction.
    pub traffic: Traffic,
}

impl MultiCoreReport {
    /// Total MACs across cores.
    pub fn macs(&self) -> u64 {
        self.core_reports.iter().map(|r| r.macs).sum()
    }

    /// The step collapsed into one [`SimReport`]: the step makespan and
    /// aggregate traffic, with the per-core counters summed.
    pub fn combined(&self) -> SimReport {
        let mut out = SimReport {
            cycles: self.cycles,
            traffic: self.traffic,
            ..Default::default()
        };
        for r in &self.core_reports {
            out.compute_cycles += r.compute_cycles;
            out.mem_cycles += r.mem_cycles;
            out.spm_hits += r.spm_hits;
            out.spm_misses += r.spm_misses;
            out.gemm_ops += r.gemm_ops;
            out.macs += r.macs;
            out.spm_bytes_touched += r.spm_bytes_touched;
        }
        out
    }
}

/// Cycles the cross-partition reduction alone would take on `config` (no
/// traffic accounting) — the exact term [`replay_multicore`] adds to the
/// slowest core. Used by analytical candidate lower bounds.
pub fn reduction_cycles(config: &NpuConfig, reduction: Option<StreamOp>) -> u64 {
    let mut scratch = Traffic::new();
    reduction_cost(config, reduction, &mut scratch)
}

fn reduction_cost(config: &NpuConfig, reduction: Option<StreamOp>, traffic: &mut Traffic) -> u64 {
    match reduction {
        None => 0,
        Some(op) => {
            let bytes = op.read_bytes + op.write_bytes;
            if bytes == 0 {
                return 0;
            }
            if op.read_bytes > 0 {
                traffic.add_read(op.class, op.read_bytes);
            }
            if op.write_bytes > 0 {
                traffic.add_write(op.class, op.write_bytes);
            }
            (bytes as f64 / config.dram_bytes_per_cycle_total()
                + config.dram.burst_latency_cycles as f64)
                .ceil() as u64
        }
    }
}

/// Collapse one inner (concatenated-segments) report plus the reduction
/// into a combined [`SimReport`] — exactly what
/// [`replay_sequential_partitions_bounded`]'s `.combined()` yields, without
/// re-running the segments. Lets a caller that replays the inner stream
/// once per SPM capacity pay the (capacity-independent) reduction
/// afterwards.
pub fn sequential_combined(
    config: &NpuConfig,
    inner: SimReport,
    reduction: Option<StreamOp>,
) -> SimReport {
    combine(config, vec![inner], Vec::new(), reduction).combined()
}

/// The step of `core_reports` run concurrently, then the reduction:
/// aggregate traffic, slowest core plus reduction cycles.
fn combine(
    config: &NpuConfig,
    core_reports: Vec<SimReport>,
    core_moved_ops: Vec<u64>,
    reduction: Option<StreamOp>,
) -> MultiCoreReport {
    let mut traffic = Traffic::new();
    for r in &core_reports {
        traffic.merge(&r.traffic);
    }
    let slowest = core_reports.iter().map(|r| r.cycles).max().unwrap_or(0);
    let reduction_cycles = reduction_cost(config, reduction, &mut traffic);
    MultiCoreReport {
        core_reports,
        core_moved_ops,
        reduction_cycles,
        cycles: slowest + reduction_cycles,
        traffic,
    }
}

/// Replay one stream per core concurrently and combine: the
/// slowest core plus the reduction, with all cores' traffic.
///
/// # Panics
///
/// Panics if more streams than cores are supplied.
pub fn replay_multicore<I: ReplayInput>(
    config: &NpuConfig,
    per_core: &[I],
    reduction: Option<StreamOp>,
    scratch: &mut AnalyticScratch,
) -> MultiCoreReport {
    replay_multicore_bounded(config, per_core, reduction, scratch, None)
        .expect("unbounded replay always completes")
}

/// [`replay_multicore`] with an optional cycle `cutoff`: returns `None` as
/// soon as any core's replay proves the combined cycle count (slowest core
/// plus reduction) must exceed `cutoff` — any single core exceeding the
/// post-reduction budget is enough, since the makespan takes the maximum.
pub fn replay_multicore_bounded<I: ReplayInput>(
    config: &NpuConfig,
    per_core: &[I],
    reduction: Option<StreamOp>,
    scratch: &mut AnalyticScratch,
    cutoff: Option<u64>,
) -> Option<MultiCoreReport> {
    assert!(
        per_core.len() <= config.cores as usize,
        "{} schedules for {} cores",
        per_core.len(),
        config.cores
    );
    let inner_cutoff = match cutoff {
        // A budget smaller than the reduction alone is unmeetable.
        Some(c) => Some(c.checked_sub(reduction_cycles(config, reduction))?),
        None => None,
    };
    let engine = Engine::new(config);
    let mut core_reports: Vec<SimReport> = Vec::with_capacity(per_core.len());
    let mut core_moved_ops = Vec::with_capacity(per_core.len());
    for c in per_core {
        let replayed = replay_input(c, &engine, scratch, inner_cutoff)?;
        core_reports.push(replayed.report);
        core_moved_ops.push(replayed.moved_ops);
    }
    Some(combine(config, core_reports, core_moved_ops, reduction))
}

/// Replay one stream holding the partitions' streams back-to-back (the
/// replay-side equivalent of [`crate::Schedule::append_compatible`]
/// concatenation — no barrier between segments, so residency crosses
/// partition boundaries), then pay the reduction. With a cycle `cutoff`,
/// returns `None` as [`replay_multicore_bounded`] does: the concatenation
/// is one core's stream, so this is that function with one stream.
pub fn replay_sequential_partitions_bounded<I: ReplayInput>(
    config: &NpuConfig,
    combined: &I,
    reduction: Option<StreamOp>,
    scratch: &mut AnalyticScratch,
    cutoff: Option<u64>,
) -> Option<MultiCoreReport> {
    replay_multicore_bounded(
        config,
        std::slice::from_ref(combined),
        reduction,
        scratch,
        cutoff,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::AnalyticCollector;
    use crate::trace::{Schedule, TileOp};
    use igo_tensor::{GemmShape, TensorClass, TileCoord};

    fn schedule(tiles: u32) -> Schedule {
        let mut s = Schedule::new("part");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        for j in 0..tiles {
            s.push_gemm(TileOp::new(GemmShape::new(128, 128, 128)).read(
                dy,
                TileCoord::new(0, j),
                128 * 128 * 4,
            ));
        }
        s
    }

    fn stream(tiles: u32) -> AnalyticCollector {
        AnalyticCollector::from_schedule(&schedule(tiles))
    }

    fn multicore(
        config: &NpuConfig,
        cores: &[AnalyticCollector],
        reduction: Option<StreamOp>,
    ) -> MultiCoreReport {
        replay_multicore(config, cores, reduction, &mut AnalyticScratch::new())
    }

    /// `segments` back-to-back as one core's stream, then the reduction.
    fn sequential(
        config: &NpuConfig,
        segments: &[Schedule],
        reduction: Option<StreamOp>,
    ) -> MultiCoreReport {
        let combined = match segments.split_first() {
            None => AnalyticCollector::new(),
            Some((first, rest)) => {
                let mut combined = first.clone();
                for s in rest {
                    combined.append_compatible(s);
                }
                AnalyticCollector::from_schedule(&combined)
            }
        };
        let mut scratch = AnalyticScratch::new();
        replay_sequential_partitions_bounded(config, &combined, reduction, &mut scratch, None)
            .expect("an uncut replay completes")
    }

    #[test]
    fn multicore_takes_slowest_core() {
        let config = NpuConfig::large_server(2);
        let r = multicore(&config, &[stream(2), stream(20)], None);
        assert_eq!(r.core_reports.len(), 2);
        assert_eq!(
            r.cycles,
            r.core_reports.iter().map(|c| c.cycles).max().unwrap()
        );
        assert!(r.core_reports[0].cycles < r.core_reports[1].cycles);
    }

    #[test]
    fn reduction_adds_cycles_and_traffic() {
        let config = NpuConfig::large_server(2);
        let parts = [stream(4), stream(4)];
        let without = multicore(&config, &parts, None);
        let with = multicore(
            &config,
            &parts,
            Some(StreamOp {
                class: TensorClass::WGrad,
                read_bytes: 1 << 20,
                write_bytes: 1 << 20,
            }),
        );
        assert!(with.cycles > without.cycles);
        assert_eq!(with.traffic.read(TensorClass::WGrad), 1 << 20);
        assert!(with.reduction_cycles > 0);
    }

    #[test]
    fn idle_cores_allowed() {
        let config = NpuConfig::large_server(4);
        let r = multicore(&config, &[stream(4)], None);
        assert_eq!(r.core_reports.len(), 1);
        assert!(r.cycles > 0);
    }

    #[test]
    #[should_panic(expected = "schedules for")]
    fn too_many_schedules_panics() {
        let config = NpuConfig::large_single_core();
        let _ = multicore(&config, &[stream(1), stream(1)], None);
    }

    #[test]
    fn sequential_partitions_accumulate_time() {
        let config = NpuConfig::large_single_core();
        let parts = [schedule(400), schedule(400)];
        let seq = sequential(&config, &parts, None);
        let single = sequential(&config, &parts[..1], None);
        assert!(seq.cycles > single.cycles);
    }

    #[test]
    fn sequential_partitions_share_residency() {
        // Two identical small segments (same tensor table, same tile
        // keys): the second pass re-hits the first pass's tiles, so total
        // traffic equals a single segment's.
        let config = NpuConfig::large_single_core();
        let parts = [schedule(4), schedule(4)];
        let seq = sequential(&config, &parts, None);
        let single = sequential(&config, &parts[..1], None);
        assert_eq!(
            seq.traffic.read_total(),
            single.traffic.read_total(),
            "second segment must hit in SPM"
        );
    }

    #[test]
    fn empty_reduction_is_free() {
        let config = NpuConfig::large_single_core();
        let r = sequential(
            &config,
            &[schedule(1)],
            Some(StreamOp {
                class: TensorClass::InGrad,
                read_bytes: 0,
                write_bytes: 0,
            }),
        );
        assert_eq!(r.reduction_cycles, 0);
    }

    #[test]
    fn combined_sums_per_core_counters() {
        let config = NpuConfig::large_server(2);
        let parts = [stream(4), stream(6)];
        let reduction = Some(StreamOp {
            class: TensorClass::WGrad,
            read_bytes: 1 << 16,
            write_bytes: 1 << 16,
        });
        let mc = multicore(&config, &parts, reduction);
        let c = mc.combined();
        assert_eq!(c.cycles, mc.cycles);
        assert_eq!(c.traffic, mc.traffic);
        assert_eq!(c.macs, mc.macs());
        assert_eq!(
            c.gemm_ops,
            mc.core_reports.iter().map(|r| r.gemm_ops).sum::<u64>()
        );
        assert_eq!(reduction_cycles(&config, reduction), mc.reduction_cycles);
        assert_eq!(reduction_cycles(&config, None), 0);
    }

    #[test]
    fn empty_segments_are_free() {
        let config = NpuConfig::large_single_core();
        let r = sequential(&config, &[], None);
        assert_eq!(r.cycles, 0);
    }
}
