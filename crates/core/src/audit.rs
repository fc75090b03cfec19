//! Differential fuzz-audit: seeded random layer/config/technique cases
//! cross-checked against independent recomputations of the simulator's
//! own guarantees.
//!
//! Each audited case exercises the full scheduling pipeline on a
//! one-worker [`SimOptions::sequential`] reference and twice under the
//! case's [`SimOptions`] — cold, then served from its memo — each arm on a
//! private [`SimContext`], and then re-derives, from nothing but the
//! public machine model, every conservation property the simulator
//! claims:
//!
//! * **Differential**: the case's arm must produce bit-identical reports
//!   *and* identical scheduler decisions to the reference, both cold and
//!   when its memo serves them. A case that draws a worker pool also diffs
//!   a 3-layer model built from its layer, since only a model maps layers
//!   on the pool.
//! * **Selection oracle**: the technique's candidate list, re-derived from
//!   the §5 rules and an independent Algorithm 1, is rebuilt as
//!   materialised schedules and costed by the audit's own `OptCache`
//!   shadow (below) on every core, with the multicore combine and the
//!   reduction term re-derived; the pipeline's bound-pruned decision and
//!   report must be the `(cycles, index)` minimum, and every candidate's
//!   closed-form bound must be at most its cost.
//! * **Generator links**: every stream the pipeline replays — each
//!   candidate's and the forward pass's, on every core — is generated
//!   from its loop nests exactly as the builders' collected stream reads:
//!   ids, bytes, next uses, ops, shapes and region sums.
//! * **Accounting**: replaying the decided schedule against a fresh
//!   [`OptCache`] shadow model must reproduce [`Engine::run`]'s hits,
//!   misses and per-class DRAM traffic exactly; `hits + misses` must equal
//!   the number of tile accesses; SPM residency may never exceed capacity;
//!   every spilled-accumulator re-fetch must be preceded by a write-back
//!   of that tile; and total DRAM traffic must equal the sum of fetched,
//!   written-back and streamed bytes.
//! * **Timeline shadow**: the same shadow advances its own memory and
//!   compute timelines and must reproduce the report's cycles, compute
//!   and memory cycles, op, MAC and SPM-byte counts. With
//!   [`Engine::run`] running on the replay, this shadow is the
//!   independent oracle for the replay's timing. Its next-use scan and
//!   per-region sums must also equal the ones the collector links while
//!   collecting the stream.
//! * **Merge legality**: the fused backward stream must contain each
//!   `dX`/`dW` tile operation exactly once, with mutually consistent
//!   operand coordinates.
//! * **Algorithm 1**: the pipeline's rearrangement decision must match an
//!   independent recomputation of the paper's selection rule from the
//!   tensor dimensions alone.
//! * **Numeric** (small dense cases): executing the decided schedule on
//!   real tile data must reproduce the `dX = dY·Wᵀ`, `dW = Xᵀ·dY`
//!   reference within tolerance.
//!
//! Cases are generated from a [`SplitMix64`] stream, so every failure is
//! reproducible from its printed seed: `igo-sim audit --seed S --seeds 1`
//! re-runs exactly the failing case.

use crate::bound::backward_emission_bound;
use crate::exec::{execute_backward, max_abs_diff, DenseLayer};
use crate::partition::{DecidedBackward, PartitionScheme};
use crate::pipeline::{
    candidate_bound, candidate_streams, rearranged_order, LayerDecision, SimContext, SimOptions,
};
use crate::schedule::{BackwardBuilder, BackwardOrder, LayerTensors};
use crate::select::ALMOST_SQUARE_THRESHOLD;
use crate::technique::Technique;
use crate::tiling::TilePolicy;
use igo_npu_sim::{
    replay_recorded, Access, AccessKind, AnalyticCollector, AnalyticScratch, DramConfig, Engine,
    EventLog, GemmAccesses, MetricsFold, NpuConfig, OpVisitor, OptCache, PeArray, RegionSum,
    ReplayInput, RunMetrics, Schedule, ScheduleOp, SimReport, StreamOp, StreamShape, TileKey,
    TraceEvent,
};
use igo_tensor::{GemmShape, SplitMix64, TensorClass, TileCoord};
use igo_workloads::{Layer, Model, ModelId};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::ops::ControlFlow;

/// One generated fuzz case: a layer shape, an NPU, a technique and a set
/// of pipeline execution options, all derived deterministically from
/// `seed`.
#[derive(Debug, Clone)]
pub struct AuditCase {
    /// The generating seed (the reproducer handle).
    pub seed: u64,
    /// Forward GEMM shape of the audited layer.
    pub gemm: GemmShape,
    /// Ifmap density (im2col raw-layout scaling), in `(0, 1]`.
    pub density: f64,
    /// The NPU the case runs on.
    pub config: NpuConfig,
    /// The technique under audit.
    pub technique: Technique,
    /// Whether the layer is a first layer (no `dX` pass).
    pub is_first: bool,
    /// The execution options to diff against the one-worker reference.
    pub options: SimOptions,
}

const TECHNIQUES: [Technique; 6] = [
    Technique::Baseline,
    Technique::IdealDyReuse,
    Technique::Interleaving,
    Technique::Rearrangement,
    Technique::RearrangementOracle,
    Technique::DataPartitioning,
];

impl AuditCase {
    /// Generate the case for `seed`. Deterministic: the same seed always
    /// yields the same case, on every platform.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let pe_side = [8u32, 16, 32, 45, 64, 128][rng.index(6)];
        let cores: u32 = match rng.range_u64(0, 8) {
            0 => 2,
            1 => 4,
            _ => 1,
        };
        let tile_bytes = pe_side as u64 * pe_side as u64 * 4;
        // Small residencies (4..48 tiles) force evictions, spills and
        // bypasses; `residency_bytes_per_core` is `spm / cores / 2`.
        let cap_tiles = rng.range_u64(4, 49);
        let spm_bytes = cap_tiles * tile_bytes * 2 * cores as u64;
        let config = NpuConfig {
            name: format!("audit-{pe_side}x{pe_side}-{cores}c"),
            cores,
            pe: PeArray::new(pe_side, pe_side),
            freq_hz: 1.0e9,
            spm_bytes,
            dram: DramConfig {
                bandwidth_bytes_per_sec: rng.range_u64(2, 201) as f64 * 1.0e9,
                burst_latency_cycles: rng.range_u64(0, 41),
            },
            batch_per_core: 1,
        };
        // Dimensions in (0, 6] tiles with ragged edges, so tile grids stay
        // non-trivial while each engine run remains cheap.
        let t = pe_side as u64;
        let dim = |rng: &mut SplitMix64| {
            let tiles = rng.range_u64(1, 7);
            rng.range_u64((tiles - 1) * t + 1, tiles * t + 1)
        };
        let gemm = GemmShape::new(dim(&mut rng), dim(&mut rng), dim(&mut rng));
        let density = if rng.range_u64(0, 2) == 0 {
            1.0
        } else {
            rng.range_u64(5, 101) as f64 / 100.0
        };
        let technique = TECHNIQUES[rng.index(TECHNIQUES.len())];
        let is_first = rng.range_u64(0, 8) == 0;
        // A serial case draws no pool: it runs on one worker. The draw
        // order is fixed so every seed keeps its case: two draws that once
        // chose memoization and pruning are still made, and discarded.
        let parallel = rng.range_u64(0, 2) == 1;
        rng.range_u64(0, 2);
        rng.range_u64(0, 2);
        let workers = rng.range_u64(0, 4) as usize;
        let options = SimOptions {
            workers: if parallel { workers } else { 1 },
        };
        // One case in four redraws its dimensions at the boundaries the
        // tile arithmetic has to get right: drawn last, so every other
        // seed keeps its case.
        let gemm = if rng.range_u64(0, 4) == 0 {
            let mut edge = || boundary_dim(&mut rng, t);
            GemmShape::new(edge(), edge(), edge())
        } else {
            gemm
        };
        Self {
            seed,
            gemm,
            density,
            config,
            technique,
            is_first,
            options,
        }
    }
}

/// A dimension at a boundary of the tile arithmetic, for tile side `t`: 1,
/// a small prime, a tile edge ±1, a prime just past three tiles, or a
/// length whose 2- and 4-way partition splits are ragged (the last part
/// shorter, or fewer parts than asked).
fn boundary_dim(rng: &mut SplitMix64, t: u64) -> u64 {
    const PRIMES: [u64; 6] = [2, 3, 5, 7, 11, 13];
    let is_prime = |n: u64| {
        n >= 2
            && (2..n)
                .take_while(|d| d * d <= n)
                .all(|d| !n.is_multiple_of(d))
    };
    match rng.range_u64(0, 8) {
        0 => 1,
        1 => PRIMES[rng.index(PRIMES.len())],
        2 => (t - 1).max(1),
        3 => t + 1,
        4 => 2 * t - 1,
        5 => 2 * t + 1,
        6 => (3 * t..)
            .find(|&n| is_prime(n))
            .expect("primes are unbounded"),
        _ => 4 * t + rng.range_u64(1, 4),
    }
}

/// One invariant violation found by the audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Seed of the case that exposed the violation (rerun with
    /// `igo-sim audit --seed <seed> --seeds 1`).
    pub seed: u64,
    /// Which check failed (stable machine-readable name).
    pub check: &'static str,
    /// Human-readable description of the divergence.
    pub detail: String,
}

/// Aggregate result of an audit run.
#[derive(Debug, Clone, Default)]
pub struct AuditSummary {
    /// Cases generated and audited.
    pub cases: u64,
    /// Individual checks performed across all cases.
    pub checks: u64,
    /// All violations found (empty on a clean run).
    pub violations: Vec<Violation>,
}

impl AuditSummary {
    /// Whether the audit found no violations.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The distinct failing seeds, sorted — each reproduces its case via
    /// `igo-sim audit --seed <seed> --seeds 1`.
    pub fn reproducer_seeds(&self) -> Vec<u64> {
        let mut seeds: Vec<u64> = self.violations.iter().map(|v| v.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        seeds
    }

    /// The summary as a JSON object (no external dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"cases\": {},\n  \"checks\": {},\n  \"violations\": {},\n  \"passed\": {},\n  \"reproducer_seeds\": [",
            self.cases,
            self.checks,
            self.violations.len(),
            self.passed()
        );
        for (i, seed) in self.reproducer_seeds().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{seed}");
        }
        out.push_str("],\n  \"failures\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"seed\": {}, \"check\": \"{}\", \"detail\": \"{}\"}}",
                v.seed,
                json_escape(v.check),
                json_escape(&v.detail)
            );
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }
}

fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Audit `seeds` consecutive cases starting at `base_seed` (case `i` uses
/// seed `base_seed + i`, so any failing seed reruns standalone).
pub fn run_audit(seeds: u64, base_seed: u64) -> AuditSummary {
    let mut summary = AuditSummary::default();
    for i in 0..seeds {
        let case = AuditCase::from_seed(base_seed.wrapping_add(i));
        let (violations, checks) = audit_case(&case);
        summary.cases += 1;
        summary.checks += checks;
        summary.violations.extend(violations);
    }
    summary
}

/// Run every check on one case. Returns the violations found and the
/// number of checks performed.
pub fn audit_case(case: &AuditCase) -> (Vec<Violation>, u64) {
    let mut violations = Vec::new();
    let mut checks = 0u64;
    // Each arm runs on a private context, so a case sees exactly the memo
    // state it builds itself, whatever ran before it. The case's arm runs
    // twice: cold, then served from its own memo.
    let reference = SimContext::new(SimOptions::sequential());
    let optimized = SimContext::new(case.options);

    // Differential: forward pass.
    let fwd_ref = reference.forward(case.gemm, case.density, &case.config);
    for pass in ["cold", "warm"] {
        checks += 1;
        let fwd_opt = optimized.forward(case.gemm, case.density, &case.config);
        if fwd_opt != fwd_ref {
            violations.push(Violation {
                seed: case.seed,
                check: "forward-differential",
                detail: format!("{pass} run {fwd_opt:?} != reference {fwd_ref:?}"),
            });
        }
    }

    // Differential: backward pass report and scheduler decision.
    let backward = |context: &SimContext| {
        context.backward(
            case.gemm,
            case.density,
            &case.config,
            case.technique,
            case.is_first,
        )
    };
    let (ref_report, ref_decision) = backward(&reference);
    for pass in ["cold", "warm"] {
        let (opt_report, opt_decision) = backward(&optimized);
        checks += 1;
        if opt_report != ref_report {
            violations.push(Violation {
                seed: case.seed,
                check: "backward-differential",
                detail: format!("{pass} run {opt_report:?} != reference {ref_report:?}"),
            });
        }
        checks += 1;
        if opt_decision != ref_decision {
            violations.push(Violation {
                seed: case.seed,
                check: "decision-differential",
                detail: format!("{pass} run {opt_decision:?} != reference {ref_decision:?}"),
            });
        }
    }

    // Worker pool: only a model maps layers on it. A case that draws a
    // pool also runs a 3-layer model built from its layer — the layer
    // itself, with M halved, and with K and N swapped — on both contexts.
    if case.options.workers != 1 {
        checks += 1;
        let model = pool_model(case);
        let want = reference.model(&model, &case.config, case.technique);
        let got = optimized.model(&model, &case.config, case.technique);
        if got != want {
            violations.push(Violation {
                seed: case.seed,
                check: "model-differential",
                detail: format!(
                    "{} workers: {got:?} != one-worker reference {want:?}",
                    case.options.workers
                ),
            });
        }
    }

    // Selection oracle: the bound-pruned decision must be the `(cycles,
    // index)` minimum over the independently derived candidates, costed
    // by the shadow on every core, and every candidate's bound must be
    // admissible.
    checks += 2;
    violations.extend(check_selection_oracle(case, ref_decision, &ref_report));

    // Algorithm 1: the rearrangement decision must match an independent
    // recomputation of the paper's rule from the tensor dimensions.
    if case.technique == Technique::Rearrangement {
        checks += 1;
        let spec = spec_algorithm1(per_core_gemm(case.gemm, &case.config));
        let hook = rearranged_order(case.gemm, &case.config);
        if hook != spec || ref_decision.order != spec {
            violations.push(Violation {
                seed: case.seed,
                check: "algorithm1-spec",
                detail: format!(
                    "spec {spec:?}, pipeline hook {hook:?}, decision {:?} for {:?} on {} cores",
                    ref_decision.order, case.gemm, case.config.cores
                ),
            });
        }
    }

    // Generator links: every replayed stream is generated exactly as the
    // builders' collected stream reads.
    checks += 1;
    violations.extend(check_generator_links(case));

    // Merge legality of the decided order's fused emission.
    checks += 1;
    violations.extend(check_merge_emission(case, ref_decision.order));

    // Analytic tiers: the builders' direct collector emission must replay
    // like the materialised schedule, and the closed-form emission bound
    // must be admissible field by field.
    checks += 1;
    violations.extend(check_analytic(case, ref_decision.order));

    // Conservation and timeline shadow: rebuild the decided execution,
    // re-run it through the public machine model, and shadow-replay every
    // schedule's residency and timelines (two checks).
    checks += 2;
    violations.extend(check_decision_conservation(
        case,
        &ref_decision,
        &ref_report,
    ));

    // Numeric ground truth for small dense single-core unpartitioned
    // cases (the dense reference is O(M·K·N)).
    let macs = case.gemm.m() * case.gemm.k() * case.gemm.n();
    if case.config.cores == 1
        && ref_decision.partition.is_none()
        && case.density == 1.0
        && macs <= 150_000
    {
        checks += 1;
        violations.extend(check_numeric(case, ref_decision.order));
    }

    (violations, checks)
}

/// The 3-layer model a pooled case runs: its layer (first if the case's
/// is), then that layer with M halved, then with K and N swapped.
fn pool_model(case: &AuditCase) -> Model {
    let (m, k, n) = (case.gemm.m(), case.gemm.k(), case.gemm.n());
    let layer = |name: &str, gemm: GemmShape, is_first: bool| Layer {
        gemm,
        is_first,
        ifmap_density: case.density,
        ..Layer::fc(name, 1, 1, 1)
    };
    // The id names a zoo entry only; the layers are what run.
    Model {
        id: ModelId::Ncf,
        name: format!("audit-{}", case.seed),
        batch: 1,
        layers: vec![
            layer("l", case.gemm, case.is_first),
            layer("l-half-m", GemmShape::new(m.div_ceil(2), k, n), false),
            layer("l-swap-kn", GemmShape::new(m, n, k), false),
        ],
        embedding_params: 0,
    }
}

/// Independent recomputation of Algorithm 1 (§4.3) on `gemm`: written
/// directly from the paper's rule, without going through
/// [`GemmShape::is_almost_square`] or [`crate::select::select_order`].
fn spec_algorithm1(gemm: GemmShape) -> BackwardOrder {
    let (m, k, n) = (gemm.m(), gemm.k(), gemm.n());
    let max = m.max(k).max(n);
    let min = m.min(k).min(n);
    if (max as f64) < ALMOST_SQUARE_THRESHOLD * (min as f64) {
        BackwardOrder::Interleaved
    } else if k > n && k > m {
        BackwardOrder::DwMajor
    } else {
        BackwardOrder::DxMajor
    }
}

/// The shape one core executes under the conventional batch split: the M
/// extent of the first (largest) piece of an M split into `cores` parts.
fn per_core_gemm(gemm: GemmShape, config: &NpuConfig) -> GemmShape {
    let cores = config.cores as u64;
    GemmShape::new(gemm.m().div_ceil(cores), gemm.k(), gemm.n())
}

/// The technique's candidate decisions in the pipeline's index order,
/// re-derived from the §5 rules: one fixed order for the single-candidate
/// techniques, the three interleaved orders for the oracle, and for data
/// partitioning each scheme (at 2 and 4 parts on a single core, where the
/// unpartitioned schedules compete too; at `cores` parts otherwise), each
/// under Algorithm 1's order for its first sub-GEMM and the baseline order.
fn spec_candidates(case: &AuditCase) -> Vec<LayerDecision> {
    let plain = |order| LayerDecision {
        order,
        partition: None,
    };
    let config = &case.config;
    match case.technique {
        Technique::Baseline => vec![plain(BackwardOrder::Baseline)],
        Technique::IdealDyReuse => vec![plain(BackwardOrder::IdealDyReuse)],
        Technique::Interleaving => vec![plain(BackwardOrder::Interleaved)],
        Technique::Rearrangement => vec![plain(spec_algorithm1(per_core_gemm(case.gemm, config)))],
        Technique::RearrangementOracle => [
            BackwardOrder::Interleaved,
            BackwardOrder::DxMajor,
            BackwardOrder::DwMajor,
        ]
        .map(plain)
        .to_vec(),
        Technique::DataPartitioning => {
            let mut out = Vec::new();
            let part_counts: &[u64] = if config.cores == 1 {
                out.push(plain(spec_algorithm1(case.gemm)));
                out.push(plain(BackwardOrder::Baseline));
                &[2, 4]
            } else {
                &[config.cores as u64]
            };
            for scheme in PartitionScheme::ALL {
                for &parts in part_counts {
                    let sub = case.gemm.split(scheme.split_dim(), parts)[0];
                    for order in [spec_algorithm1(sub), BackwardOrder::Baseline] {
                        out.push(LayerDecision {
                            order,
                            partition: Some((scheme, parts)),
                        });
                    }
                }
            }
            out
        }
    }
}

/// One spec candidate of a case: its decision (with the partition count
/// the split actually produced, as the pipeline records it), its
/// independent cost, and the closed-form bound the selection loop prunes
/// it with.
#[derive(Debug)]
struct OracleCandidate {
    decision: LayerDecision,
    report: SimReport,
    bound: u64,
}

/// Every spec candidate of `case`, rebuilt as materialised schedules, in
/// index order, each costed by the audit's own [`shadow_cost`] — on one
/// core or several, nothing here goes through the replay.
fn oracle_candidates(case: &AuditCase) -> Vec<OracleCandidate> {
    spec_candidates(case)
        .into_iter()
        .map(|spec| {
            let exec = DecidedBackward::rebuild(
                "l",
                case.gemm,
                case.density,
                &case.config,
                spec,
                case.is_first,
            );
            let mut decision = spec;
            if let Some((_, parts)) = &mut decision.partition {
                *parts = exec.parts() as u64;
            }
            let report = shadow_cost(&case.config, exec);
            let bound = candidate_bound(case.gemm, case.density, &case.config, spec, case.is_first);
            OracleCandidate {
                decision,
                report,
                bound,
            }
        })
        .collect()
}

/// Require that `(decision, report)` is the `(cycles, index)` minimum of
/// [`oracle_candidates`] (`selection-oracle`), and that every candidate's
/// closed-form bound is at most its cycles (`partition-bound-admissible`).
fn check_selection_oracle(
    case: &AuditCase,
    decision: LayerDecision,
    report: &SimReport,
) -> Vec<Violation> {
    let candidates = oracle_candidates(case);
    let fail = |check: &'static str, detail: String| Violation {
        seed: case.seed,
        check,
        detail,
    };
    let mut violations: Vec<Violation> = candidates
        .iter()
        .filter(|c| c.bound > c.report.cycles)
        .map(|c| {
            fail(
                "partition-bound-admissible",
                format!(
                    "{:?}: bound {} exceeds its {} cycles",
                    c.decision, c.bound, c.report.cycles
                ),
            )
        })
        .collect();
    let want = candidates
        .iter()
        .enumerate()
        .min_by_key(|(i, c)| (c.report.cycles, *i))
        .map(|(_, c)| c)
        .expect("every technique has a candidate");
    if decision != want.decision || *report != want.report {
        violations.push(fail(
            "selection-oracle",
            format!(
                "pipeline chose {decision:?} at {} cycles; the shadow's minimum over {} \
                 candidates is {:?} at {} cycles",
                report.cycles,
                candidates.len(),
                want.decision,
                want.report.cycles
            ),
        ));
    }
    violations
}

/// Cross-check the two analytic tiers on the decided order's
/// unpartitioned emission:
///
/// * builder-sink emission against materialised-schedule emission: an
///   [`AnalyticCollector`] the builder emits into directly (registered
///   grids, arithmetic tile ids) must link the same next uses and region
///   sums as [`AnalyticCollector::from_schedule`] and reproduce, bit for
///   bit, [`Engine::run`] on the materialised [`Schedule`], which
///   re-collects it with
///   [`AnalyticCollector::from_schedule`]. Both share one replay, whose
///   timing the `timeline-shadow` check covers independently;
/// * the closed-form [`backward_emission_bound`] must be admissible field
///   by field: compute cycles, op/MAC counts and SPM bytes exact; cycles,
///   memory cycles, misses and per-class traffic never above the exact
///   report's; hits never below.
fn check_analytic(case: &AuditCase, order: BackwardOrder) -> Vec<Violation> {
    let mut violations = Vec::new();
    let fail = |check: &'static str, detail: String| Violation {
        seed: case.seed,
        check,
        detail,
    };
    let policy = TilePolicy::for_config(&case.config);
    let mut proto = Schedule::new("audit");
    let tensors = LayerTensors::register(&mut proto, "l");
    let builder = BackwardBuilder::new(case.gemm, policy, tensors).with_ifmap_density(case.density);
    let mut s = proto.fork("audit-analytic");
    builder.emit(order, case.is_first, &mut s);
    let engine = Engine::new(&case.config);
    let report = engine.run(&s);

    let mut collector = AnalyticCollector::new();
    builder.register_grids(&mut collector);
    builder.emit(order, case.is_first, &mut collector);
    let rebuilt = AnalyticCollector::from_schedule(&s);
    if !collector.next_uses().eq(rebuilt.next_uses()) || collector.regions() != rebuilt.regions() {
        violations.push(fail(
            "analytic-links",
            "builder-sink collector links next uses or sums regions unlike the \
             materialised schedule's"
                .to_owned(),
        ));
    }
    let replayed = collector.replay(&engine, &mut AnalyticScratch::new());
    if replayed.report != report {
        violations.push(fail(
            "analytic-replay",
            format!(
                "builder-sink replay {:?} != materialised-schedule run {report:?}",
                replayed.report
            ),
        ));
    }

    let bound = backward_emission_bound(&builder, order, case.is_first, &engine).finish(&engine);
    let exact = [
        (
            "compute_cycles",
            bound.compute_cycles,
            report.compute_cycles,
        ),
        ("gemm_ops", bound.gemm_ops, report.gemm_ops),
        ("macs", bound.macs, report.macs),
        (
            "spm_bytes_touched",
            bound.spm_bytes_touched,
            report.spm_bytes_touched,
        ),
    ];
    for (name, got, want) in exact {
        if got != want {
            violations.push(fail(
                "analytic-bound-exact-field",
                format!("bound {name} {got} != exact {want}"),
            ));
        }
    }
    let mut at_most = vec![
        ("cycles", bound.cycles, report.cycles),
        ("mem_cycles", bound.mem_cycles, report.mem_cycles),
        ("spm_misses", bound.spm_misses, report.spm_misses),
    ];
    for class in TensorClass::ALL {
        at_most.push((
            class.label(),
            bound.traffic.read(class),
            report.traffic.read(class),
        ));
        at_most.push((
            class.label(),
            bound.traffic.write(class),
            report.traffic.write(class),
        ));
    }
    for (name, got, limit) in at_most {
        if got > limit {
            violations.push(fail(
                "analytic-bound-admissible",
                format!("bound {name} {got} exceeds exact {limit}"),
            ));
        }
    }
    if bound.spm_hits < report.spm_hits {
        violations.push(fail(
            "analytic-bound-admissible",
            format!(
                "bound hits {} below exact hits {}",
                bound.spm_hits, report.spm_hits
            ),
        ));
    }
    violations
}

/// Every op of one replay input, with next uses linked in every region.
struct Recording<'a> {
    shapes: &'a [(GemmShape, u64)],
    ops: Vec<RecordedOp>,
}

/// One recorded op.
#[derive(Debug, Clone, PartialEq)]
enum RecordedOp {
    Gemm {
        accesses: Vec<Access>,
        acc: bool,
        shape: GemmShape,
    },
    Stream(StreamOp),
    Barrier,
}

impl OpVisitor for Recording<'_> {
    fn gemm(&mut self, op: GemmAccesses<'_>) -> ControlFlow<()> {
        self.ops.push(RecordedOp::Gemm {
            accesses: op.accesses.to_vec(),
            acc: op.acc,
            shape: self.shapes[op.shape as usize].0,
        });
        ControlFlow::Continue(())
    }

    fn stream(&mut self, op: &StreamOp) -> ControlFlow<()> {
        self.ops.push(RecordedOp::Stream(*op));
        ControlFlow::Continue(())
    }

    fn barrier(&mut self) -> ControlFlow<()> {
        self.ops.push(RecordedOp::Barrier);
        ControlFlow::Continue(())
    }
}

/// Every op of `input`.
fn record<I: ReplayInput>(input: &I) -> Vec<RecordedOp> {
    let mut recording = Recording {
        shapes: input.shapes(),
        ops: Vec::new(),
    };
    let _ = input.drive(&mut recording);
    recording.ops
}

/// The op count per distinct shape, sorted.
fn ops_per_shape(shapes: &[(GemmShape, u64)]) -> Vec<((u64, u64, u64), u64)> {
    let mut counts: Vec<((u64, u64, u64), u64)> = Vec::new();
    for &(s, count) in shapes.iter().filter(|&&(_, count)| count > 0) {
        let key = (s.m(), s.k(), s.n());
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, c)) => *c += count,
            None => counts.push((key, count)),
        }
    }
    counts.sort_unstable();
    counts
}

/// The first difference between two replay inputs of one stream, if any:
/// tile registry (count, classes, keys), region sums, each op's accesses
/// (ids, bytes, classes and next uses), accumulator flag and shape, and
/// the op count per shape.
pub(crate) fn input_difference<A: ReplayInput, B: ReplayInput>(a: &A, b: &B) -> Option<String> {
    if a.tile_count() != b.tile_count() {
        return Some(format!(
            "{} tiles, generated {}",
            a.tile_count(),
            b.tile_count()
        ));
    }
    for id in 0..a.tile_count() as u32 {
        let (x, y) = (
            (a.class_of(id), a.key_of(id)),
            (b.class_of(id), b.key_of(id)),
        );
        if x != y {
            return Some(format!("tile {id} is {x:?}, generated {y:?}"));
        }
    }
    if a.regions() != b.regions() {
        return Some(format!(
            "regions {:?}, generated {:?}",
            a.regions(),
            b.regions()
        ));
    }
    let (ops_a, ops_b) = (record(a), record(b));
    if let Some((n, (x, y))) = ops_a
        .iter()
        .zip(&ops_b)
        .enumerate()
        .find(|(_, (x, y))| x != y)
    {
        return Some(format!("op {n}: {x:?}, generated {y:?}"));
    }
    if ops_a.len() != ops_b.len() {
        return Some(format!("{} ops, generated {}", ops_a.len(), ops_b.len()));
    }
    let (shapes_a, shapes_b) = (ops_per_shape(a.shapes()), ops_per_shape(b.shapes()));
    if shapes_a != shapes_b {
        return Some(format!(
            "ops per shape {shapes_a:?}, generated {shapes_b:?}"
        ));
    }
    None
}

/// Every stream the pipeline replays for the case — each backward
/// candidate of its technique and the forward pass, on every core — must
/// be generated exactly as the builders' collected stream reads
/// (`generator-links`): the collector is the generator's oracle.
fn check_generator_links(case: &AuditCase) -> Vec<Violation> {
    let mut violations = Vec::new();
    let candidates = candidate_streams(
        case.gemm,
        case.density,
        &case.config,
        case.technique,
        case.is_first,
    );
    for c in &candidates {
        let difference = if c.collected.len() != c.generated.len() {
            Some(format!(
                "{} collected streams, {} generated",
                c.collected.len(),
                c.generated.len()
            ))
        } else {
            c.collected
                .iter()
                .zip(&c.generated)
                .enumerate()
                .find_map(|(core, (a, b))| {
                    input_difference(a, b).map(|d| format!("core {core}: {d}"))
                })
        };
        if let Some(detail) = difference {
            violations.push(Violation {
                seed: case.seed,
                check: "generator-links",
                detail: format!("{:?}: {detail}", c.decision),
            });
        }
    }
    violations
}

/// Emit the unpartitioned fused stream for `order` and verify it is a
/// legal merge of the `dX` and `dW` tile-op streams.
fn check_merge_emission(case: &AuditCase, order: BackwardOrder) -> Vec<Violation> {
    let policy = TilePolicy::for_config(&case.config);
    let mut proto = Schedule::new("audit");
    let tensors = LayerTensors::register(&mut proto, "l");
    let mut s = proto.fork("audit-merge");
    BackwardBuilder::new(case.gemm, policy, tensors)
        .with_ifmap_density(case.density)
        .emit(order, case.is_first, &mut s);
    check_merge_schedule(
        &s,
        tensors,
        case.gemm,
        policy,
        order,
        case.is_first,
        case.seed,
    )
}

/// Verify that `schedule` is a legal merge of the backward tile-op
/// streams for `gemm`: every expected `dX[i,kk] += dY[i,j]·Wᵀ` and
/// `dW[kk,j] += Xᵀ·dY[i,j]` tile operation appears exactly once (no
/// `dX` ops at all when `is_first`), with mutually consistent operand
/// coordinates, and nothing else appears.
pub fn check_merge_schedule(
    schedule: &Schedule,
    tensors: LayerTensors,
    gemm: GemmShape,
    policy: TilePolicy,
    order: BackwardOrder,
    is_first: bool,
    seed: u64,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let fail = |check: &'static str, detail: String| Violation {
        seed,
        check,
        detail,
    };
    let dy_grid = gemm.dy_grid(policy.tile);
    let dx_grid = gemm.dx_grid(policy.tile);
    let (mt, nt, kt) = (dy_grid.rows(), dy_grid.cols(), dx_grid.cols());
    // (is_dx, i, kk, j) -> occurrences.
    let mut counts: HashMap<(bool, u32, u32, u32), u32> = HashMap::new();
    for op in schedule.ops() {
        let g = match op {
            ScheduleOp::Gemm(g) => g,
            ScheduleOp::Barrier => continue,
            ScheduleOp::Stream(st) => {
                violations.push(fail(
                    "merge-stream-op",
                    format!("fused emission contains stream op {st:?}"),
                ));
                continue;
            }
        };
        let acc = match &g.acc {
            Some(a) => a,
            None => {
                violations.push(fail(
                    "merge-missing-acc",
                    "backward tile op has no accumulator".to_owned(),
                ));
                continue;
            }
        };
        let find_read = |t| g.reads.iter().find(|r| r.key.tensor == t);
        if acc.key.tensor == tensors.dx {
            let (i, kk) = (acc.key.coord.r, acc.key.coord.c);
            let Some(dy) = find_read(tensors.dy) else {
                violations.push(fail(
                    "merge-bad-op",
                    format!("dX op ({i},{kk}) lacks dY read"),
                ));
                continue;
            };
            let j = dy.key.coord.c;
            let w_ok = find_read(tensors.w).is_some_and(|w| w.key.coord == TileCoord::new(kk, j));
            if dy.key.coord.r != i || !w_ok {
                violations.push(fail(
                    "merge-bad-op",
                    format!("dX op ({i},{kk}) has inconsistent operand coordinates"),
                ));
                continue;
            }
            *counts.entry((true, i, kk, j)).or_insert(0) += 1;
        } else if acc.key.tensor == tensors.dw {
            let (kk, j) = (acc.key.coord.r, acc.key.coord.c);
            let Some(x) = find_read(tensors.x) else {
                violations.push(fail(
                    "merge-bad-op",
                    format!("dW op ({kk},{j}) lacks X read"),
                ));
                continue;
            };
            let i = x.key.coord.r;
            let dy_ok = match find_read(tensors.dy) {
                Some(dy) => dy.key.coord == TileCoord::new(i, j),
                // IdealDyReuse elides the dW pass's dY reads by design.
                None => order == BackwardOrder::IdealDyReuse,
            };
            if x.key.coord.c != kk || !dy_ok {
                violations.push(fail(
                    "merge-bad-op",
                    format!("dW op ({kk},{j}) has inconsistent operand coordinates"),
                ));
                continue;
            }
            *counts.entry((false, i, kk, j)).or_insert(0) += 1;
        } else {
            violations.push(fail(
                "merge-bad-op",
                format!("accumulator targets unknown tensor {:?}", acc.key.tensor),
            ));
        }
    }
    let mut expected: u64 = 0;
    for i in 0..mt {
        for kk in 0..kt {
            for j in 0..nt {
                if !is_first {
                    expected += 1;
                    match counts.get(&(true, i, kk, j)).copied().unwrap_or(0) {
                        1 => {}
                        c => violations.push(fail(
                            "merge-multiplicity",
                            format!("dX op ({i},{kk}) via j={j} appears {c} times, expected 1"),
                        )),
                    }
                }
                expected += 1;
                match counts.get(&(false, i, kk, j)).copied().unwrap_or(0) {
                    1 => {}
                    c => violations.push(fail(
                        "merge-multiplicity",
                        format!("dW op ({kk},{j}) via i={i} appears {c} times, expected 1"),
                    )),
                }
            }
        }
    }
    let total: u64 = counts.values().map(|&c| c as u64).sum();
    if total != expected {
        violations.push(fail(
            "merge-multiplicity",
            format!("{total} tile ops emitted, expected {expected}"),
        ));
    }
    violations
}

/// Rebuild the execution the decision describes, run each core's stream
/// through the public machine model ([`Engine::run`]), combine the cores
/// as the audit derives it ([`combine_cores`]), compare against the
/// pipeline's report, and shadow-replay every constituent schedule.
fn check_decision_conservation(
    case: &AuditCase,
    decision: &LayerDecision,
    report: &SimReport,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let exec = DecidedBackward::rebuild(
        "l",
        case.gemm,
        case.density,
        &case.config,
        *decision,
        case.is_first,
    );
    let reduction = exec_reduction(&exec);
    // Chained segments run (and are shadowed) as the one stream each core
    // runs.
    let streams = exec.into_core_streams();
    let engine = Engine::new(&case.config);
    let cores: Vec<SimReport> = streams.iter().map(|s| engine.run(s)).collect();
    let rebuilt = combine_cores(&case.config, &cores, reduction);
    if rebuilt != *report {
        violations.push(Violation {
            seed: case.seed,
            check: "decision-reproduces-report",
            detail: format!(
                "rebuilding {decision:?} gives {rebuilt:?}, pipeline reported {report:?}"
            ),
        });
    }
    for (s, core) in streams.iter().zip(&cores) {
        violations.extend(check_report_conservation(s, &case.config, core, case.seed));
    }
    violations
}

/// The dY series cap of the audit's [`MetricsFold`]. Audit layers are a
/// few tiles per side, far below the trace cap
/// ([`igo_npu_sim::DY_SERIES_CAP`]), so a small cap makes every case with
/// more dY accesses than this run the same online decimation traces use.
const AUDIT_DY_POINTS: usize = 8;

/// The audit's own run of one core's stream: an [`OptCache`] residency
/// with its own next-use scan, and its own memory and compute timelines in
/// the machine model's float order. Nothing here goes through the replay,
/// so its report is an independent cost for any single-core candidate.
struct Shadow {
    /// The shadow's report: cycles, compute and memory cycles, traffic,
    /// hits, misses, ops, MACs and SPM bytes.
    report: SimReport,
    /// Per access: the tile, how the shadow served it, and the occupancy
    /// after it.
    accesses: Vec<(TileKey, AccessKind, u64)>,
    /// `(accesses, hits)` per class, indexed like `TensorClass::ALL`.
    per_class: [(u64, u64); 7],
    /// Fetched, written-back and streamed bytes.
    moved_bytes: u64,
    /// The residency capacity, and whether residency ever exceeded it.
    capacity: u64,
    capacity_ok: bool,
    /// Accumulator tiles re-fetched before any write-back of theirs.
    unpaired_refetches: Vec<TileKey>,
    /// Per access, the position of its tile's next access before the next
    /// barrier (positions count accesses only).
    next_use: Vec<Option<usize>>,
    /// Per barrier region: distinct-tile bytes, clean first-touch bytes
    /// plus one write-back per ever-dirty tile, and clean first touches.
    regions: Vec<RegionSum>,
}

impl Shadow {
    /// Run `schedule` on `engine`'s machine (OPT residency).
    fn run(schedule: &Schedule, engine: &Engine) -> Self {
        // Flatten the access stream into `(key, bytes, dirty)` slots: gemm
        // reads then the optional accumulator touch; a barrier is a `None`
        // slot; stream ops contribute no tile accesses.
        let mut slots: Vec<Option<(TileKey, u64, bool)>> = Vec::new();
        for op in schedule.ops() {
            match op {
                ScheduleOp::Gemm(g) => {
                    slots.extend(g.reads.iter().map(|r| Some((r.key, r.bytes, false))));
                    slots.extend(g.acc.iter().map(|a| Some((a.key, a.bytes, true))));
                }
                ScheduleOp::Barrier => slots.push(None),
                ScheduleOp::Stream(_) => {}
            }
        }

        // Next uses by a backward scan, reuse never crossing a kernel
        // boundary; region sums by a forward one.
        let accesses = slots.iter().flatten().count();
        let mut next_use = vec![None; accesses];
        let mut last_seen: HashMap<TileKey, usize> = HashMap::new();
        let mut pos = accesses;
        for slot in slots.iter().rev() {
            match slot {
                None => last_seen.clear(),
                Some((key, ..)) => {
                    pos -= 1;
                    next_use[pos] = last_seen.insert(*key, pos);
                }
            }
        }
        let mut regions = Vec::new();
        // Per tile of the open region: (bytes, first touch dirty, ever dirty).
        let mut region: HashMap<TileKey, (u64, bool, bool)> = HashMap::new();
        for slot in slots.iter().chain(std::iter::once(&None)) {
            match slot {
                Some((key, bytes, dirty)) => {
                    let tile = region.entry(*key).or_insert((*bytes, *dirty, false));
                    tile.2 |= dirty;
                }
                None => {
                    let mut sum = RegionSum::default();
                    for (bytes, first_dirty, ever_dirty) in region.drain().map(|(_, t)| t) {
                        sum.footprint += bytes;
                        if !first_dirty {
                            sum.floor_bytes += bytes;
                            sum.floor_bursts += 1;
                        }
                        if ever_dirty {
                            sum.floor_bytes += bytes;
                        }
                    }
                    regions.push(sum);
                }
            }
        }

        let mut shadow = Shadow {
            report: SimReport::default(),
            accesses: Vec::with_capacity(accesses),
            per_class: [(0, 0); 7],
            moved_bytes: 0,
            capacity: engine.residency_bytes(),
            capacity_ok: true,
            unpaired_refetches: Vec::new(),
            next_use,
            regions,
        };
        let mut cache = OptCache::new(engine.residency_bytes());
        let mut written_back: HashSet<TileKey> = HashSet::new();
        let bytes_per_cycle = engine.bytes_per_cycle();
        let burst_latency = engine.burst_latency();
        let (mut mem_free, mut compute_free, mut mem_busy) = (0.0f64, 0.0f64, 0.0f64);
        let report = &mut shadow.report;
        let mut pos = 0usize;
        // The schedule ends with a final flush, shadowed as one more barrier:
        // the memory-compute sync it adds cannot move the makespan.
        let end = ScheduleOp::Barrier;
        for op in schedule.ops().iter().chain(std::iter::once(&end)) {
            match op {
                ScheduleOp::Gemm(g) => {
                    let (mut op_bytes, mut bursts) = (0u64, 0u64);
                    let keys = g.reads.iter().map(|r| (r, false));
                    for (a, dirty) in keys.chain(g.acc.iter().map(|a| (a, true))) {
                        let key = a.key;
                        let class = schedule.class_of(key.tensor);
                        let next = shadow.next_use[pos].unwrap_or(usize::MAX);
                        let out = cache.access(key, a.bytes, dirty, next);
                        pos += 1;
                        report.spm_bytes_touched += a.bytes;
                        op_bytes += out.fetched_bytes + out.writeback_bytes();
                        bursts += u64::from(out.fetched_bytes > 0);
                        let counts = &mut shadow.per_class[class.index()];
                        counts.0 += 1;
                        counts.1 += u64::from(out.hit);
                        let kind = if out.hit {
                            AccessKind::Hit
                        } else if out.fetched_bytes > 0 {
                            AccessKind::Fetch
                        } else {
                            AccessKind::Materialize
                        };
                        shadow.accesses.push((key, kind, cache.used()));
                        if out.fetched_bytes > 0 {
                            report.traffic.add_read(class, out.fetched_bytes);
                            shadow.moved_bytes += out.fetched_bytes;
                            if dirty && !written_back.contains(&key) {
                                shadow.unpaired_refetches.push(key);
                            }
                        }
                        for &(k, b) in &out.writebacks {
                            report.traffic.add_write(schedule.class_of(k.tensor), b);
                            shadow.moved_bytes += b;
                            written_back.insert(k);
                        }
                        shadow.capacity_ok &= cache.used() <= cache.capacity();
                    }
                    // Memory runs ahead in op order; the op issues once the
                    // array is free and, if it moved data, the data has
                    // landed.
                    if op_bytes > 0 {
                        let t = op_bytes as f64 / bytes_per_cycle
                            + (bursts.max(1) * burst_latency) as f64;
                        mem_free += t;
                        mem_busy += t;
                    }
                    let cycles = engine.systolic().tile_cycles(g.compute);
                    let data_ready = if op_bytes > 0 { mem_free } else { 0.0 };
                    compute_free = compute_free.max(data_ready) + cycles as f64;
                    report.compute_cycles += cycles;
                    report.gemm_ops += 1;
                    report.macs += g.macs();
                }
                ScheduleOp::Stream(st) => {
                    if st.read_bytes > 0 {
                        report.traffic.add_read(st.class, st.read_bytes);
                    }
                    if st.write_bytes > 0 {
                        report.traffic.add_write(st.class, st.write_bytes);
                    }
                    let bytes = st.read_bytes + st.write_bytes;
                    shadow.moved_bytes += bytes;
                    if bytes > 0 {
                        let t = bytes as f64 / bytes_per_cycle + burst_latency as f64;
                        mem_free += t;
                        mem_busy += t;
                    }
                }
                ScheduleOp::Barrier => {
                    let flushed = cache.flush();
                    for &(k, b) in &flushed {
                        report.traffic.add_write(schedule.class_of(k.tensor), b);
                        shadow.moved_bytes += b;
                        written_back.insert(k);
                    }
                    if !flushed.is_empty() {
                        let bytes: u64 = flushed.iter().map(|&(_, b)| b).sum();
                        let t = bytes as f64 / bytes_per_cycle + burst_latency as f64;
                        mem_free += t;
                        mem_busy += t;
                    }
                    cache.clear();
                    // The next kernel's loads wait for this kernel's compute.
                    mem_free = mem_free.max(compute_free);
                }
            }
        }
        report.cycles = mem_free.max(compute_free).ceil() as u64;
        report.mem_cycles = mem_busy.ceil() as u64;
        report.spm_hits = cache.hits();
        report.spm_misses = cache.misses();
        shadow
    }
}

/// The shadow's cost of a candidate: [`Shadow::run`] on each stream a core
/// executes, combined as the audit derives it — cores run concurrently, so
/// the step takes the slowest core's cycles and every core's traffic and
/// counters, then pays the cross-partition reduction: its bytes at the
/// whole DRAM bandwidth plus one burst, after the cores finish.
fn shadow_cost(config: &NpuConfig, exec: DecidedBackward) -> SimReport {
    let reduction = exec_reduction(&exec);
    let engine = Engine::new(config);
    let cores: Vec<SimReport> = exec
        .into_core_streams()
        .iter()
        .map(|s| Shadow::run(s, &engine).report)
        .collect();
    combine_cores(config, &cores, reduction)
}

/// The cross-partition reduction `exec` pays after its cores finish.
fn exec_reduction(exec: &DecidedBackward) -> Option<StreamOp> {
    match exec {
        DecidedBackward::Single(_) => None,
        DecidedBackward::Sequential { reduction, .. }
        | DecidedBackward::Multicore { reduction, .. } => *reduction,
    }
}

/// The audit's own multicore combine of per-core `cores` reports and the
/// `reduction`.
fn combine_cores(
    config: &NpuConfig,
    cores: &[SimReport],
    reduction: Option<StreamOp>,
) -> SimReport {
    let mut report = SimReport::default();
    for core in cores {
        report.cycles = report.cycles.max(core.cycles);
        report.traffic.merge(&core.traffic);
        report.compute_cycles += core.compute_cycles;
        report.mem_cycles += core.mem_cycles;
        report.spm_hits += core.spm_hits;
        report.spm_misses += core.spm_misses;
        report.gemm_ops += core.gemm_ops;
        report.macs += core.macs;
        report.spm_bytes_touched += core.spm_bytes_touched;
    }
    if let Some(op) = reduction.filter(|op| op.read_bytes + op.write_bytes > 0) {
        let bytes = op.read_bytes + op.write_bytes;
        report.cycles += (bytes as f64 / config.dram_bytes_per_cycle_total()
            + config.dram.burst_latency_cycles as f64)
            .ceil() as u64;
        if op.read_bytes > 0 {
            report.traffic.add_read(op.class, op.read_bytes);
        }
        if op.write_bytes > 0 {
            report.traffic.add_write(op.class, op.write_bytes);
        }
    }
    report
}

/// Shadow-replay `schedule` on the audit's `OptCache` shadow and verify
/// that `report` respects every timing and SPM conservation invariant:
/// `hits + misses == accesses`, residency never exceeds capacity, every
/// spilled-accumulator re-fetch is preceded by a write-back of that tile,
/// per-class traffic matches the shadow replay, and total DRAM traffic
/// equals the sum of fetched, written-back and streamed bytes. The
/// shadow's own timelines must match the report's cycles, compute and
/// memory cycles, op, MAC and SPM-byte counts (`timeline-shadow`). The
/// schedule is additionally replayed with an [`EventLog`] recorder and the
/// recorded `Access` events (kind and post-access occupancy) must agree
/// with the shadow replay access by access; the [`RunMetrics`] streamed
/// from the same run by a [`MetricsFold`] must agree with the shadow's
/// per-class accesses and hits and with the report's access count, stay
/// within capacity, and end its capped dY series at the shadow's dY
/// accesses and hits. The collected stream's linked next uses and region
/// sums must be the shadow's (`collector-links`).
///
/// `report` must come from running `schedule` on one core of `config`
/// with the default OPT replacement (any violation otherwise is the
/// point: this is the hook the injected-bug tests corrupt).
pub fn check_report_conservation(
    schedule: &Schedule,
    config: &NpuConfig,
    report: &SimReport,
    seed: u64,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut fail = |check: &'static str, detail: String| {
        violations.push(Violation {
            seed,
            check,
            detail,
        })
    };
    let engine = Engine::new(config);
    let shadow = Shadow::run(schedule, &engine);
    let accesses = shadow.accesses.len() as u64;

    let collector = AnalyticCollector::from_schedule(schedule);
    let links: Vec<Option<usize>> = collector.next_uses().collect();
    if let Some(pos) = (0..links.len().max(shadow.next_use.len()))
        .find(|&i| links.get(i) != shadow.next_use.get(i))
    {
        fail(
            "collector-links",
            format!(
                "access {pos}: collected next use {:?}, shadow {:?}",
                links.get(pos),
                shadow.next_use.get(pos)
            ),
        );
    }
    if collector.regions() != shadow.regions {
        fail(
            "collector-links",
            format!(
                "collected regions {:?}, shadow {:?}",
                collector.regions(),
                shadow.regions
            ),
        );
    }

    // Observability cross-check: replay the schedule with an event log
    // and the streaming metrics fold attached (the recorded replay that
    // traces run on), then verify access by access that the recorded
    // occupancy and access kind agree with the shadow. A recorder bug (or
    // a replay/recorder divergence) shows up as an `occupancy-replay`
    // violation, a fold bug as a `streamed-metrics` one.
    // The fold's tile ids come from the stream; its dY series is sized
    // by the shadow's own dY count.
    let shape = StreamShape {
        dy_accesses: shadow.per_class[TensorClass::OutGrad.index()].0,
        ..StreamShape::of_input(&collector)
    };
    let mut recorders = (
        EventLog::new(),
        MetricsFold::new(engine.residency_bytes(), &shape, AUDIT_DY_POINTS, |id| {
            collector.key_of(id)
        }),
    );
    replay_recorded(
        &collector,
        &engine,
        &mut AnalyticScratch::new(),
        None,
        &mut recorders,
    )
    .expect("an uncut replay completes");
    let (log, fold) = recorders;
    let recorded: Vec<(TileKey, AccessKind, u64)> = log
        .events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Access {
                id,
                kind,
                occupancy,
                ..
            } => Some((collector.key_of(id), kind, occupancy)),
            _ => None,
        })
        .collect();
    let diverged = recorded
        .iter()
        .zip(&shadow.accesses)
        .position(|(got, want)| got != want);
    if let Some(i) = diverged {
        let ((rkey, rkind, rocc), (key, kind, occ)) = (recorded[i], shadow.accesses[i]);
        fail(
            "occupancy-replay",
            format!(
                "access {i}: recorded ({rkey:?}, {rkind:?}, occupancy {rocc}) vs shadow \
                 ({key:?}, {kind:?}, occupancy {occ})"
            ),
        );
    } else if recorded.len() as u64 != accesses {
        fail(
            "occupancy-replay",
            format!(
                "{} Access events recorded, schedule implies {accesses} tile accesses",
                recorded.len()
            ),
        );
    }
    if let Some(detail) = check_streamed_metrics(&fold.finish(), &shadow.per_class, report) {
        fail("streamed-metrics", detail);
    }

    let timing = &shadow.report;
    let mismatched: Vec<String> = [
        ("cycles", timing.cycles, report.cycles),
        (
            "compute_cycles",
            timing.compute_cycles,
            report.compute_cycles,
        ),
        ("mem_cycles", timing.mem_cycles, report.mem_cycles),
        ("gemm_ops", timing.gemm_ops, report.gemm_ops),
        ("macs", timing.macs, report.macs),
        (
            "spm_bytes_touched",
            timing.spm_bytes_touched,
            report.spm_bytes_touched,
        ),
    ]
    .iter()
    .filter(|(_, shadow, got)| shadow != got)
    .map(|(name, shadow, got)| format!("{name}: shadow {shadow}, report {got}"))
    .collect();
    if !mismatched.is_empty() {
        fail("timeline-shadow", mismatched.join("; "));
    }
    for key in &shadow.unpaired_refetches {
        fail(
            "spill-refetch-pairing",
            format!("accumulator tile {key:?} re-fetched without a prior write-back"),
        );
    }
    if !shadow.capacity_ok {
        fail(
            "spm-capacity",
            format!(
                "residency exceeded capacity {} on schedule {}",
                shadow.capacity,
                schedule.name()
            ),
        );
    }
    if timing.spm_accesses() != accesses {
        fail(
            "access-conservation",
            format!(
                "shadow hits {} + misses {} != accesses {accesses}",
                timing.spm_hits, timing.spm_misses
            ),
        );
    }
    if report.spm_accesses() != accesses {
        fail(
            "access-conservation",
            format!(
                "report hits {} + misses {} != schedule accesses {accesses}",
                report.spm_hits, report.spm_misses
            ),
        );
    }
    if (timing.spm_hits, timing.spm_misses) != (report.spm_hits, report.spm_misses) {
        fail(
            "hit-miss-mismatch",
            format!(
                "shadow {}h/{}m, report {}h/{}m",
                timing.spm_hits, timing.spm_misses, report.spm_hits, report.spm_misses
            ),
        );
    }
    if timing.traffic != report.traffic {
        fail(
            "traffic-mismatch",
            format!(
                "shadow traffic [{}], report [{}]",
                timing.traffic, report.traffic
            ),
        );
    }
    if shadow.moved_bytes != report.traffic.total() {
        fail(
            "traffic-total",
            format!(
                "fetched+writeback+stream bytes {} != reported total {}",
                shadow.moved_bytes,
                report.traffic.total()
            ),
        );
    }
    violations
}

/// Compare a run's streamed [`RunMetrics`] with an independent shadow
/// replay's `(accesses, hits)` per class (indexed like
/// [`TensorClass::ALL`]) and with the run's report: per-class counts must
/// match, the total must equal `report.spm_accesses()`, the occupancy
/// high-water mark must not exceed the capacity, and the capped dY series
/// must end at the shadow's dY `(accesses, hits)` and keep at most
/// [`AUDIT_DY_POINTS`] + 1 points. Returns the first disagreement.
fn check_streamed_metrics(
    metrics: &RunMetrics,
    shadow: &[(u64, u64); 7],
    report: &SimReport,
) -> Option<String> {
    for (class, &(accesses, hits)) in TensorClass::ALL.iter().zip(shadow) {
        let m = metrics.class(*class);
        if (m.accesses, m.hits) != (accesses, hits) {
            return Some(format!(
                "class {class}: streamed {} accesses / {} hits, shadow {accesses} / {hits}",
                m.accesses, m.hits
            ));
        }
    }
    if metrics.total_accesses() != report.spm_accesses() {
        return Some(format!(
            "streamed {} accesses, report {}",
            metrics.total_accesses(),
            report.spm_accesses()
        ));
    }
    if metrics.occupancy_high_water > metrics.capacity {
        return Some(format!(
            "streamed occupancy high-water {} exceeds capacity {}",
            metrics.occupancy_high_water, metrics.capacity
        ));
    }
    let dy_end = metrics
        .dy_timeline
        .last()
        .map_or((0, 0), |p| (p.accesses, p.hits));
    let (dy_accesses, dy_hits) = shadow[TensorClass::OutGrad.index()];
    if dy_end != (dy_accesses, dy_hits) {
        return Some(format!(
            "dY series ends at {} accesses / {} hits, shadow {dy_accesses} / {dy_hits}",
            dy_end.0, dy_end.1
        ));
    }
    if metrics.dy_timeline.len() > AUDIT_DY_POINTS + 1 {
        return Some(format!(
            "dY series keeps {} points, over its cap of {AUDIT_DY_POINTS} + 1",
            metrics.dy_timeline.len()
        ));
    }
    None
}

/// Execute the decided schedule on real tile data and compare the
/// gradients against the dense `dX = dY·Wᵀ`, `dW = Xᵀ·dY` references.
fn check_numeric(case: &AuditCase, order: BackwardOrder) -> Vec<Violation> {
    let mut violations = Vec::new();
    let policy = TilePolicy::for_config(&case.config);
    let mut proto = Schedule::new("audit");
    let tensors = LayerTensors::register(&mut proto, "l");
    let mut s = proto.fork("audit-exec");
    BackwardBuilder::new(case.gemm, policy, tensors).emit(order, case.is_first, &mut s);
    let layer = DenseLayer::random(case.gemm, case.seed);
    let got = execute_backward(&s, tensors, &layer, policy);
    let tolerance = 1e-3 * case.gemm.max_dim() as f32;
    let dw_err = max_abs_diff(&got.dw, &layer.reference_dw());
    if dw_err > tolerance {
        violations.push(Violation {
            seed: case.seed,
            check: "numeric-dw",
            detail: format!("dW max abs diff {dw_err} exceeds {tolerance}"),
        });
    }
    if !case.is_first {
        let dx_err = max_abs_diff(&got.dx, &layer.reference_dx());
        if dx_err > tolerance {
            violations.push(Violation {
                seed: case.seed,
                check: "numeric-dx",
                detail: format!("dX max abs diff {dx_err} exceeds {tolerance}"),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::StreamGen;
    use igo_npu_sim::{StreamShape, TileOp, Traffic, NO_USE};
    use igo_tensor::TensorClass;

    #[test]
    fn case_generation_is_deterministic() {
        for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            let a = AuditCase::from_seed(seed);
            let b = AuditCase::from_seed(seed);
            assert_eq!(a.gemm, b.gemm);
            assert_eq!(a.config, b.config);
            assert_eq!(a.technique, b.technique);
            assert_eq!(a.options, b.options);
            assert_eq!(a.is_first, b.is_first);
            assert_eq!(a.density, b.density);
        }
    }

    /// The next uses and region sums the collector links while collecting
    /// equal the shadow's back-scan on every decided emission of 200
    /// seeds (`collector-links`, inside every conservation check), and the
    /// builder-sink collector equals the materialised one
    /// (`analytic-links`).
    #[test]
    fn collected_links_match_the_shadow_on_200_seeds() {
        let summary = run_audit(200, 1);
        assert!(summary.passed(), "audit violations: {}", summary.to_json());
    }

    #[test]
    fn fixed_seed_audit_passes() {
        let summary = run_audit(16, 1);
        assert_eq!(summary.cases, 16);
        assert!(summary.checks >= 5 * 16);
        assert!(summary.passed(), "audit violations: {}", summary.to_json());
    }

    fn sample_schedule() -> (Schedule, NpuConfig) {
        let config = NpuConfig::small_edge();
        let policy = TilePolicy::for_config(&config);
        let mut proto = Schedule::new("t");
        let tensors = LayerTensors::register(&mut proto, "l");
        let mut s = proto.fork("bwd");
        BackwardBuilder::new(GemmShape::new(90, 90, 90), policy, tensors).emit(
            BackwardOrder::Interleaved,
            false,
            &mut s,
        );
        (s, config)
    }

    #[test]
    fn clean_report_passes_conservation() {
        let (s, config) = sample_schedule();
        let report = Engine::new(&config).run(&s);
        assert!(check_report_conservation(&s, &config, &report, 0).is_empty());
    }

    #[test]
    fn injected_hit_count_bug_is_caught() {
        let (s, config) = sample_schedule();
        let mut report = Engine::new(&config).run(&s);
        // Deliberately corrupt the accounting: one hit reported as a miss.
        report.spm_hits -= 1;
        report.spm_misses += 1;
        let violations = check_report_conservation(&s, &config, &report, 0);
        assert!(
            violations.iter().any(|v| v.check == "hit-miss-mismatch"),
            "{violations:?}"
        );
    }

    #[test]
    fn injected_traffic_bug_is_caught() {
        let (s, config) = sample_schedule();
        let mut report = Engine::new(&config).run(&s);
        // Deliberately drop a write-back from the traffic accounting.
        let mut bad = Traffic::new();
        bad.add_read(TensorClass::OutGrad, report.traffic.read_total());
        report.traffic = bad;
        let violations = check_report_conservation(&s, &config, &report, 0);
        assert!(
            violations.iter().any(|v| v.check == "traffic-mismatch"),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.check == "traffic-total"),
            "{violations:?}"
        );
    }

    #[test]
    fn injected_timeline_bug_is_caught() {
        let (s, config) = sample_schedule();
        let mut report = Engine::new(&config).run(&s);
        // Deliberately skew both timelines by one cycle.
        report.cycles += 1;
        report.mem_cycles += 1;
        let violations = check_report_conservation(&s, &config, &report, 0);
        let shadow = violations
            .iter()
            .find(|v| v.check == "timeline-shadow")
            .unwrap_or_else(|| panic!("{violations:?}"));
        assert!(shadow.detail.contains("mem_cycles"), "{}", shadow.detail);
    }

    /// The `(decision, report)` a pipeline would select if its replay
    /// mapped the final cycles of every stream holding a barrier through
    /// `mutate`: each spec candidate run through the machine model, core by
    /// core, mutated, combined, and the `(cycles, index)` minimum taken.
    fn mutated_selection(case: &AuditCase, mutate: fn(u64) -> u64) -> (LayerDecision, SimReport) {
        let engine = Engine::new(&case.config);
        let (_, report, decision) = spec_candidates(case)
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let exec = DecidedBackward::rebuild(
                    "l",
                    case.gemm,
                    case.density,
                    &case.config,
                    spec,
                    case.is_first,
                );
                let mut decision = spec;
                if let Some((_, parts)) = &mut decision.partition {
                    *parts = exec.parts() as u64;
                }
                let reduction = exec_reduction(&exec);
                let cores: Vec<SimReport> = exec
                    .into_core_streams()
                    .iter()
                    .map(|s| {
                        let mut r = engine.run(s);
                        if s.ops().iter().any(|op| matches!(op, ScheduleOp::Barrier)) {
                            r.cycles = mutate(r.cycles);
                        }
                        r
                    })
                    .collect();
                (i, combine_cores(&case.config, &cores, reduction), decision)
            })
            .min_by_key(|(i, r, _)| (r.cycles, *i))
            .expect("every technique has a candidate");
        (decision, report)
    }

    /// Seeds in `seeds` whose selection the `mutate` replay bug corrupts
    /// in a way `selection-oracle` reports.
    fn flagged_seeds(seeds: std::ops::Range<u64>, mutate: fn(u64) -> u64) -> Vec<u64> {
        seeds
            .filter(|&seed| {
                let case = AuditCase::from_seed(seed);
                let (decision, report) = mutated_selection(&case, mutate);
                check_selection_oracle(&case, decision, &report)
                    .iter()
                    .any(|v| v.check == "selection-oracle")
            })
            .collect()
    }

    /// A replay that adds one cycle to every stream with a barrier is
    /// reported by the selection oracle — on seed 511's two-core
    /// DataPartitioning case too, whose candidates the shadow costs core
    /// by core — and never passes where it fires on the clean pipeline.
    #[test]
    fn barrier_cycle_plus_one_is_caught() {
        let case = AuditCase::from_seed(511);
        assert_eq!(case.config.cores, 2, "{case:?}");
        let flagged = flagged_seeds(500..520, |c| c + 1);
        assert!(flagged.contains(&511), "{flagged:?}");
        for seed in 500..520 {
            let case = AuditCase::from_seed(seed);
            let clean = mutated_selection(&case, |c| c);
            assert_eq!(
                check_selection_oracle(&case, clean.0, &clean.1),
                [],
                "seed {seed}"
            );
        }
    }

    /// Multiplying barrier streams' cycles by 100 moves decisions off
    /// barrier candidates instead of only inflating the report; the
    /// shadow-costed oracle still reports every seed the +1 bug flags.
    #[test]
    fn barrier_cycles_times_hundred_is_caught_wherever_plus_one_is() {
        let plus_one = flagged_seeds(500..520, |c| c + 1);
        let times_hundred = flagged_seeds(500..520, |c| c * 100);
        assert!(!plus_one.is_empty());
        for seed in &plus_one {
            assert!(
                times_hundred.contains(seed),
                "seed {seed}: {times_hundred:?}"
            );
        }
    }

    #[test]
    fn corrupted_streamed_metrics_are_caught() {
        let (s, config) = sample_schedule();
        let engine = Engine::new(&config);
        let report = engine.run(&s);
        let collector = AnalyticCollector::from_schedule(&s);
        let shape = StreamShape::of_input(&collector);
        let mut fold = MetricsFold::new(engine.residency_bytes(), &shape, AUDIT_DY_POINTS, |id| {
            collector.key_of(id)
        });
        replay_recorded(
            &collector,
            &engine,
            &mut AnalyticScratch::new(),
            None,
            &mut fold,
        )
        .expect("an uncut replay completes");
        let good = fold.finish();
        assert!(!good.dy_timeline.is_empty());
        let mut shadow = [(0, 0); 7];
        for (i, m) in good.per_class.iter().enumerate() {
            shadow[i] = (m.accesses, m.hits);
        }
        assert_eq!(check_streamed_metrics(&good, &shadow, &report), None);

        let dy = TensorClass::OutGrad.index();
        let mut lost_hit = good.clone();
        lost_hit.per_class[dy].hits -= 1;
        let mut over_full = good.clone();
        over_full.occupancy_high_water = over_full.capacity + 1;
        let mut short_report = report;
        short_report.spm_misses -= 1;
        let mut cut_series = good.clone();
        cut_series.dy_timeline.pop();
        let mut long_series = good.clone();
        let last = *long_series.dy_timeline.last().unwrap();
        long_series.dy_timeline = vec![last; AUDIT_DY_POINTS + 2];
        for (metrics, report, want) in [
            (&lost_hit, &report, "class dY"),
            (&over_full, &report, "exceeds capacity"),
            (&good, &short_report, "report"),
            (&cut_series, &report, "dY series ends"),
            (&long_series, &report, "over its cap"),
        ] {
            let detail = check_streamed_metrics(metrics, &shadow, report)
                .expect("the corruption must be reported");
            assert!(detail.contains(want), "{detail}");
        }
    }

    #[test]
    fn injected_dropped_access_bug_is_caught() {
        let (s, config) = sample_schedule();
        let mut report = Engine::new(&config).run(&s);
        report.spm_misses -= 1;
        let violations = check_report_conservation(&s, &config, &report, 0);
        assert!(
            violations.iter().any(|v| v.check == "access-conservation"),
            "{violations:?}"
        );
    }

    /// A generated stream whose first linked next use points one access
    /// later than it should.
    struct ShiftedNextUse<'a>(&'a StreamGen);

    /// The [`OpVisitor`] behind [`ShiftedNextUse`].
    struct Shift<'v, V> {
        inner: &'v mut V,
        done: bool,
    }

    impl<V: OpVisitor> OpVisitor for Shift<'_, V> {
        fn gemm(&mut self, op: GemmAccesses<'_>) -> ControlFlow<()> {
            let mut accesses = op.accesses.to_vec();
            if !self.done {
                if let Some(a) = accesses.iter_mut().find(|a| a.next_use != NO_USE) {
                    a.next_use += 1;
                    self.done = true;
                }
            }
            self.inner.gemm(GemmAccesses {
                accesses: &accesses,
                ..op
            })
        }

        fn stream(&mut self, op: &StreamOp) -> ControlFlow<()> {
            self.inner.stream(op)
        }

        fn barrier(&mut self) -> ControlFlow<()> {
            self.inner.barrier()
        }
    }

    impl ReplayInput for ShiftedNextUse<'_> {
        fn tile_count(&self) -> usize {
            self.0.tile_count()
        }

        fn class_of(&self, id: u32) -> TensorClass {
            self.0.class_of(id)
        }

        fn key_of(&self, id: u32) -> TileKey {
            self.0.key_of(id)
        }

        fn shapes(&self) -> &[(GemmShape, u64)] {
            self.0.shapes()
        }

        fn regions(&self) -> &[RegionSum] {
            self.0.regions()
        }

        fn drive<V: OpVisitor>(&self, visitor: &mut V) -> ControlFlow<()> {
            self.0.drive(&mut Shift {
                inner: visitor,
                done: false,
            })
        }
    }

    /// `generator-links` still catches a wrong next use although the
    /// collector now collects the generator's own ops: it links next uses
    /// itself, so one generated next use moved by one position differs from
    /// it, in every order and on a first layer.
    #[test]
    fn shifted_generated_next_use_is_caught() {
        let config = NpuConfig::small_edge();
        let policy = TilePolicy::for_config(&config);
        let tensors = LayerTensors::register(&mut Schedule::new("t"), "l");
        let builder = BackwardBuilder::new(GemmShape::new(90, 70, 110), policy, tensors)
            .with_ifmap_density(0.5);
        for order in [
            BackwardOrder::Baseline,
            BackwardOrder::IdealDyReuse,
            BackwardOrder::Interleaved,
            BackwardOrder::DxMajor,
            BackwardOrder::DwMajor,
        ] {
            for is_first in [false, true] {
                let generated =
                    StreamGen::backward(std::slice::from_ref(&builder), order, is_first);
                let mut collector = AnalyticCollector::new();
                builder.register_grids(&mut collector);
                builder.emit(order, is_first, &mut collector);
                assert_eq!(input_difference(&collector, &generated), None, "{order:?}");
                let detail = input_difference(&collector, &ShiftedNextUse(&generated))
                    .expect("the shifted next use must be reported");
                assert!(
                    detail.starts_with("op ") && detail.contains("next_use"),
                    "{order:?}: {detail}"
                );
            }
        }
    }

    #[test]
    fn duplicated_tile_op_fails_merge_check() {
        let config = NpuConfig::small_edge();
        let policy = TilePolicy::for_config(&config);
        let gemm = GemmShape::new(90, 90, 90);
        let mut proto = Schedule::new("t");
        let tensors = LayerTensors::register(&mut proto, "l");
        let mut s = proto.fork("bwd");
        BackwardBuilder::new(gemm, policy, tensors).emit(BackwardOrder::DxMajor, false, &mut s);
        assert!(
            check_merge_schedule(&s, tensors, gemm, policy, BackwardOrder::DxMajor, false, 0)
                .is_empty()
        );
        // Re-emit the first gemm op: the stream is no longer a legal merge.
        let dup: TileOp = s
            .ops()
            .iter()
            .find_map(|op| match op {
                ScheduleOp::Gemm(g) => Some(g.clone()),
                _ => None,
            })
            .expect("emission has gemm ops");
        s.push_gemm(dup);
        let violations =
            check_merge_schedule(&s, tensors, gemm, policy, BackwardOrder::DxMajor, false, 0);
        assert!(
            violations.iter().any(|v| v.check == "merge-multiplicity"),
            "{violations:?}"
        );
    }

    #[test]
    fn planted_non_minimal_decision_fails_selection_oracle() {
        let case = (0..)
            .map(AuditCase::from_seed)
            .find(|c| c.technique == Technique::DataPartitioning && c.config.cores == 1)
            .expect("some seed audits single-core data partitioning");
        let (report, decision) = SimContext::new(SimOptions::sequential()).backward(
            case.gemm,
            case.density,
            &case.config,
            case.technique,
            case.is_first,
        );
        assert_eq!(check_selection_oracle(&case, decision, &report), []);

        let candidates = oracle_candidates(&case);
        let slowest = candidates
            .iter()
            .max_by_key(|c| c.report.cycles)
            .expect("candidates");
        assert!(slowest.report.cycles > report.cycles, "{candidates:?}");
        let violations = check_selection_oracle(&case, slowest.decision, &slowest.report);
        assert!(
            violations.iter().any(|v| v.check == "selection-oracle"),
            "a non-minimal decision must be reported: {violations:?}"
        );
    }

    #[test]
    fn algorithm1_spec_matches_pipeline_hook() {
        let configs = [
            NpuConfig::small_edge(),
            NpuConfig::large_single_core(),
            NpuConfig::large_server(4),
        ];
        let mut rng = SplitMix64::new(0xA1);
        for _ in 0..200 {
            let gemm = GemmShape::new(
                rng.range_u64(1, 2048),
                rng.range_u64(1, 2048),
                rng.range_u64(1, 2048),
            );
            for config in &configs {
                assert_eq!(
                    spec_algorithm1(per_core_gemm(gemm, config)),
                    rearranged_order(gemm, config),
                    "{gemm:?} on {}",
                    config.name
                );
            }
        }
    }

    #[test]
    fn summary_json_reports_failures() {
        let clean = run_audit(2, 1);
        let json = clean.to_json();
        assert!(json.contains("\"passed\": true"));
        assert!(json.contains("\"cases\": 2"));

        let dirty = AuditSummary {
            cases: 1,
            checks: 1,
            violations: vec![Violation {
                seed: 42,
                check: "traffic-mismatch",
                detail: "say \"hi\"\nnewline".to_owned(),
            }],
        };
        let json = dirty.to_json();
        assert!(json.contains("\"passed\": false"));
        assert!(json.contains("\"reproducer_seeds\": [42]"));
        assert!(json.contains("say \\\"hi\\\"\\nnewline"));
        assert_eq!(dirty.reproducer_seeds(), vec![42]);
    }
}
