//! End-to-end training-step simulation.
//!
//! Glues together the schedule builders, Algorithm 1, the partitioning
//! schemes, and the NPU simulator into the experiment the paper runs:
//! *simulate the forward and backward passes of a model under a technique
//! and report cycles and traffic* (§6.1: "our focus is primarily on the
//! forward pass and backward pass stages").
//!
//! Distinct layer shapes are simulated once and multiplied by their
//! instance count (and convolution group count) — repeated identical
//! layers are bit-identical under this machine model, so this is exact,
//! not an approximation.
//!
//! # Performance architecture
//!
//! Every operation is a method of a [`SimContext`], which carries the
//! [`SimOptions`] and the memo: [`SimContext::forward`],
//! [`SimContext::backward`] and [`SimContext::model`] here,
//! [`SimContext::trace_layer`] and [`SimContext::trace_model`] in
//! [`crate::observe`]. Each layer's backward pass is chosen by one
//! selection loop (`SimContext::select_best`) over the technique's
//! candidates. Candidates are held as unemitted [`BackwardBuilder`]s and
//! replayed straight from their loop nests ([`StreamGen`] through
//! [`replay_input`]: nothing is collected, and an aborted replay stops
//! generating), bit-identical to running the materialised schedules
//! through [`Engine::run`] — the audit's `generator-links` check compares
//! every generated stream with the collected one, and its
//! `selection-oracle` check costs every candidate on its own shadow.
//! Three optimizations keep the sweeps fast without changing a single
//! reported number (see `tests/golden_determinism.rs`):
//!
//! * **parallelism** ([`SimOptions::workers`]) — independent model layers
//!   are evaluated on a scoped worker pool ([`crate::parallel`]) that
//!   returns results in layer order; `workers: 1` maps inline;
//! * **memoization** — layer results are cached in the [`SimContext`]'s
//!   memo keyed by GEMM shape, density bits, config fingerprint and
//!   technique, and so is every completed candidate replay, keyed by the
//!   candidate instead of the technique, so techniques that share a
//!   candidate replay it once ([`crate::simcache`]);
//! * **pruning** — candidates are evaluated in ascending order of their
//!   closed-form lower bound ([`crate::bound`]) against the running best;
//!   a candidate whose bound exceeds the best cycles so far is skipped,
//!   and the rest replay under a cutoff that aborts them once they
//!   provably exceed it. Neither rule can change the `(cycles, index)`
//!   winner (`pipeline::tests::pruned_selection_is_the_exhaustive_minimum`
//!   replays every candidate uncut to check it).
//!
//! Traces take the same path: `record_decided` builds a decided
//! candidate exactly as the selection loop does and replays its
//! generators with a recorder attached ([`replay_recorded`]). Collectors
//! serve only the audit's oracle here (`candidate_streams`).

use crate::bound::{multicore_candidate_bound, plain_candidate_bound, sequential_candidate_bound};
use crate::generate::StreamGen;
use crate::parallel::parallel_map_workers;
use crate::partition::{plan_partition_backward, plan_partition_forward, PartitionScheme};
use crate::schedule::{forward_schedule, BackwardBuilder, BackwardOrder, LayerTensors};
use crate::select::select_order;
use crate::simcache::{CacheKey, CacheStats, CandidateKey, Memo, PassKey, DEFAULT_CACHE_CAP};
use crate::technique::Technique;
use crate::tiling::TilePolicy;
use igo_npu_sim::{
    replay_input, replay_multicore, replay_multicore_bounded, replay_recorded,
    replay_sequential_partitions_bounded, AnalyticCollector, AnalyticScratch, Engine, NpuConfig,
    Recorder, SimReport, StreamOp, StreamShape, TensorId, Traffic,
};
use igo_tensor::{GemmShape, TensorClass};
use igo_workloads::Model;
use std::sync::Arc;

/// Which pass of training a report concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrainingPhase {
    /// The forward pass (technique-independent).
    Forward,
    /// The backward pass (where the paper's techniques apply).
    Backward,
}

/// Execution options for the simulation pipeline: the size of the layer
/// worker pool. Every pool size produces bit-identical reports; it only
/// trades wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Layer worker-pool size; `1` evaluates layers inline, `0` means one
    /// worker per hardware thread (or the `IGO_SIM_THREADS` override).
    /// Tests force a pool larger than the machine to exercise cross-thread
    /// determinism.
    pub workers: usize,
}

impl SimOptions {
    /// One worker per hardware thread (the default).
    pub const fn optimized() -> Self {
        Self { workers: 0 }
    }

    /// One worker: layers are evaluated inline, in order.
    pub const fn sequential() -> Self {
        Self { workers: 1 }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        Self::optimized()
    }
}

/// The backward emission order the pipeline derives from Algorithm 1 for a
/// layer with forward shape `gemm` on `config` — the `Rearrangement`
/// decision. On a multi-core NPU the decision is taken on the per-core
/// sub-GEMM of the conventional batch (M-dimension) split, because that is
/// the shape each core actually executes.
///
/// Exposed so external checkers (the [`crate::audit`] differential fuzzer)
/// can compare the pipeline's decision against an independent recomputation
/// of the paper's Algorithm 1 from the tensor dimensions.
pub fn rearranged_order(gemm: GemmShape, config: &NpuConfig) -> BackwardOrder {
    let decide = |g: GemmShape| BackwardOrder::from(select_order(g));
    if config.cores == 1 {
        decide(gemm)
    } else {
        decide(gemm.split(igo_tensor::GemmDim::M, config.cores as u64)[0])
    }
}

/// The per-partition count used by single-core data partitioning
/// candidates (§5: partitions are "processed one partition at a time on a
/// single-core NPU").
pub(crate) const SINGLE_CORE_PART_CANDIDATES: [u64; 2] = [2, 4];

fn dedup_orders(orders: [BackwardOrder; 2]) -> Vec<BackwardOrder> {
    if orders[0] == orders[1] {
        vec![orders[0]]
    } else {
        orders.to_vec()
    }
}

/// What the scheduler decided for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerDecision {
    /// The backward emission order used.
    pub order: BackwardOrder,
    /// The partitioning applied, if any: `(scheme, parts)`.
    pub partition: Option<(PartitionScheme, u64)>,
}

/// The ops that moved DRAM bytes in each stream replay of a candidate
/// ([`igo_npu_sim::AnalyticReport::moved_ops`]), in stream order: the
/// memory slices a trace of that stream records. The selection loop's
/// winner always completes its replay, so its counts come with its report
/// and traces need no replay to count them. One stream is held inline,
/// so a memo entry grows by 16 bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum MovedOps {
    /// A single stream's count.
    One(u64),
    /// One count per stream (none for a forward pass's memo entry).
    Many(Box<[u64]>),
}

impl MovedOps {
    /// `counts`, one per stream in stream order.
    fn of(counts: &[u64]) -> Self {
        match *counts {
            [one] => Self::One(one),
            _ => Self::Many(counts.into()),
        }
    }

    /// One count per stream.
    pub(crate) fn as_slice(&self) -> &[u64] {
        match self {
            Self::One(one) => std::slice::from_ref(one),
            Self::Many(counts) => counts,
        }
    }
}

/// Tensor ids of a layer emitted straight into collectors. They match the
/// id sequence [`LayerTensors::register`] produces on a fresh schedule, so
/// replayed streams are structurally identical to materialised schedules
/// (tensor ids feed the replacement tie-break).
const LAYER_TENSORS: LayerTensors = LayerTensors {
    x: TensorId::from_raw(0),
    w: TensorId::from_raw(1),
    y: TensorId::from_raw(2),
    dx: TensorId::from_raw(3),
    dw: TensorId::from_raw(4),
    dy: TensorId::from_raw(5),
};

/// An id allocator for partition tensors, continuing after
/// [`LAYER_TENSORS`] exactly as a schedule's tensor table would.
fn fresh_ids() -> impl FnMut(TensorClass, String) -> TensorId {
    let mut next = 6;
    move |_, _| {
        let id = TensorId::from_raw(next);
        next += 1;
        id
    }
}

/// The forward pass's per-core sub-GEMMs and tensors: the whole layer on
/// one core, the batch (M) split across cores otherwise.
fn forward_parts(gemm: GemmShape, config: &NpuConfig) -> (Vec<GemmShape>, Vec<LayerTensors>) {
    if config.cores == 1 {
        (vec![gemm], vec![LAYER_TENSORS])
    } else {
        plan_partition_forward(&mut fresh_ids(), LAYER_TENSORS, gemm, config.cores as u64)
    }
}

thread_local! {
    /// Per-thread replay working memory, reused across layers and
    /// candidate evaluations so the replay buffers are allocated once per
    /// thread instead of regrown per layer.
    static SCRATCH: std::cell::RefCell<AnalyticScratch> =
        std::cell::RefCell::new(AnalyticScratch::new());
}

/// Run `f` with this thread's reusable replay scratch.
fn with_scratch<R>(f: impl FnOnce(&mut AnalyticScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// One way to execute a layer's backward pass, held as unemitted builders
/// plus a precomputed closed-form bound.
struct Candidate {
    decision: LayerDecision,
    /// Memo identity of this candidate's stream.
    key: CandidateKey,
    /// Closed-form admissible bound on the candidate's cycles
    /// (see [`crate::bound`]).
    bound: u64,
    exec: Exec,
}

enum Exec {
    /// One emission stream on one core.
    Single(Box<BackwardBuilder>),
    /// One stream per partition — chained back-to-back (no barrier) on a
    /// single-core NPU, one per core otherwise — then a reduction.
    Split {
        builders: Vec<BackwardBuilder>,
        reduction: Option<StreamOp>,
    },
}

impl Candidate {
    /// This candidate's builders by stream: one group for a single stream
    /// or for partitions chained on one core (back-to-back, no barrier,
    /// mirroring `Schedule::append_compatible`), one per core otherwise.
    fn stream_builders(&self, layer: &LayerInputs) -> Vec<&[BackwardBuilder]> {
        match &self.exec {
            Exec::Single(builder) => vec![std::slice::from_ref(builder.as_ref())],
            Exec::Split { builders, .. } if layer.config.cores == 1 => vec![builders],
            Exec::Split { builders, .. } => builders.chunks(1).collect(),
        }
    }

    /// This candidate's streams as generators, one per
    /// [`Self::stream_builders`] group.
    fn streams(&self, layer: &LayerInputs) -> Vec<StreamGen> {
        let (order, is_first) = (self.decision.order, layer.is_first);
        self.stream_builders(layer)
            .into_iter()
            .map(|group| StreamGen::backward(group, order, is_first))
            .collect()
    }

    /// This candidate's streams collected, one collector per
    /// [`Self::stream_builders`] group, each builder emitted on its own:
    /// the collector links next uses and sums regions itself, so it is the
    /// audit's oracle for [`Self::streams`].
    fn emit(&self, layer: &LayerInputs) -> Vec<AnalyticCollector> {
        let (order, is_first) = (self.decision.order, layer.is_first);
        self.stream_builders(layer)
            .into_iter()
            .map(|group| {
                let mut c = AnalyticCollector::new();
                for b in group {
                    b.register_grids(&mut c);
                }
                for b in group {
                    b.emit(order, is_first, &mut c);
                }
                c
            })
            .collect()
    }

    /// Replay this candidate straight from its generators. With a
    /// `cutoff`, returns `None` as soon as the replay proves the candidate
    /// must exceed `cutoff` cycles (see [`replay_input`]), and generation
    /// stops there. A completed replay also returns each stream's moved
    /// ops.
    fn run_bounded(
        &self,
        layer: &LayerInputs,
        cutoff: Option<u64>,
        replay: &mut AnalyticScratch,
    ) -> Option<(SimReport, MovedOps)> {
        let streams = self.streams(layer);
        let run = match &self.exec {
            Exec::Single(_) => {
                let r = replay_input(&streams[0], &layer.engine, replay, cutoff)?;
                return Some((r.report, MovedOps::One(r.moved_ops)));
            }
            Exec::Split { reduction, .. } if layer.config.cores == 1 => {
                replay_sequential_partitions_bounded(
                    layer.config,
                    &streams[0],
                    *reduction,
                    replay,
                    cutoff,
                )
            }
            Exec::Split { reduction, .. } => {
                replay_multicore_bounded(layer.config, &streams, *reduction, replay, cutoff)
            }
        }?;
        Some((run.combined(), MovedOps::of(&run.core_moved_ops)))
    }

    /// [`Self::run_bounded`], through the candidate `memo`. A memoized
    /// report is returned even under a `cutoff` it exceeds — it is exact,
    /// and a report above the running best cannot win the `(cycles,
    /// index)` selection — and only completed replays are stored.
    fn run_memoized(
        &self,
        layer: &LayerInputs,
        cutoff: Option<u64>,
        memo: &Memo,
        replay: &mut AnalyticScratch,
    ) -> Option<(SimReport, MovedOps)> {
        let pass = PassKey::Candidate(self.key);
        let key = CacheKey::new(layer.gemm, layer.density, layer.config, pass);
        if let Some((hit, _, moved)) = memo.get(&key) {
            return Some((hit, moved));
        }
        let run = self.run_bounded(layer, cutoff, replay);
        if let Some((r, moved)) = &run {
            memo.put(key, (*r, None, moved.clone()));
        }
        run
    }
}

/// The inputs every backward candidate of one layer shares.
struct LayerInputs<'a> {
    gemm: GemmShape,
    density: f64,
    config: &'a NpuConfig,
    is_first: bool,
    policy: TilePolicy,
    engine: Engine,
}

impl<'a> LayerInputs<'a> {
    fn new(gemm: GemmShape, density: f64, config: &'a NpuConfig, is_first: bool) -> Self {
        Self {
            gemm,
            density,
            config,
            is_first,
            policy: TilePolicy::for_config(config),
            engine: Engine::new(config),
        }
    }

    /// The candidate that executes `decision`.
    fn decided(&self, decision: LayerDecision) -> Candidate {
        match decision.partition {
            None => self.plain(decision.order),
            Some((scheme, parts)) => self.split(scheme, parts, decision.order),
        }
    }

    fn builder(&self, gemm: GemmShape, tensors: LayerTensors) -> BackwardBuilder {
        BackwardBuilder::new(gemm, self.policy, tensors).with_ifmap_density(self.density)
    }

    /// A non-partitioned candidate: one stream on a single core, or the
    /// conventional batch (weight-sharing) data parallelism across cores.
    fn plain(&self, order: BackwardOrder) -> Candidate {
        let decision = LayerDecision {
            order,
            partition: None,
        };
        let key = CandidateKey::Plain {
            order,
            is_first: self.is_first,
        };
        if self.config.cores == 1 {
            let builder = self.builder(self.gemm, LAYER_TENSORS);
            Candidate {
                decision,
                key,
                bound: plain_candidate_bound(&builder, order, self.is_first, &self.engine),
                exec: Exec::Single(Box::new(builder)),
            }
        } else {
            let cores = self.config.cores as u64;
            Candidate {
                decision,
                key,
                ..self.split(PartitionScheme::WeightSharing, cores, order)
            }
        }
    }

    /// The layer split `parts` ways under `scheme`, each partition emitted
    /// in `order`: chained on a single-core NPU, one partition per core
    /// otherwise. The decision records the number of partitions the split
    /// actually produced.
    fn split(&self, scheme: PartitionScheme, parts: u64, order: BackwardOrder) -> Candidate {
        let bound = if self.config.cores == 1 {
            sequential_candidate_bound
        } else {
            multicore_candidate_bound
        };
        let bound = bound(
            self.config,
            &self.engine,
            LAYER_TENSORS,
            self.gemm,
            self.density,
            self.policy,
            scheme,
            parts,
            order,
            self.is_first,
        );
        let plan = plan_partition_backward(
            &mut fresh_ids(),
            LAYER_TENSORS,
            self.gemm,
            self.density,
            self.policy.dtype,
            scheme,
            parts,
            self.is_first,
        );
        let builders: Vec<BackwardBuilder> = plan
            .sub_gemms
            .iter()
            .zip(&plan.part_tensors)
            .map(|(sub, t)| self.builder(*sub, *t))
            .collect();
        let parts = builders.len() as u64;
        Candidate {
            decision: LayerDecision {
                order,
                partition: Some((scheme, parts)),
            },
            key: CandidateKey::Partition {
                scheme,
                parts,
                order,
                is_first: self.is_first,
            },
            bound,
            exec: Exec::Split {
                builders,
                reduction: plan.reduction,
            },
        }
    }

    /// The technique's candidates, in the selection loop's index order.
    fn candidates(&self, technique: Technique) -> Vec<Candidate> {
        let (gemm, config) = (self.gemm, self.config);
        match technique {
            Technique::Baseline => vec![self.plain(BackwardOrder::Baseline)],
            Technique::IdealDyReuse => vec![self.plain(BackwardOrder::IdealDyReuse)],
            Technique::Interleaving => vec![self.plain(BackwardOrder::Interleaved)],
            Technique::Rearrangement => vec![self.plain(rearranged_order(gemm, config))],
            Technique::RearrangementOracle => [
                BackwardOrder::Interleaved,
                BackwardOrder::DxMajor,
                BackwardOrder::DwMajor,
            ]
            .into_iter()
            .map(|order| self.plain(order))
            .collect(),
            // The §5 candidate set: partitionings composed with Algorithm 1
            // ordering (or the baseline order, since the mapping selection
            // may keep the conventional mapping). On a single core the
            // unpartitioned schedules are candidates too (partitioning is
            // optional there); on a multi-core NPU some partitioning is
            // required to use the cores, so the candidates are the three
            // schemes at `cores` partitions.
            Technique::DataPartitioning => {
                let algorithm1 = |g: GemmShape| BackwardOrder::from(select_order(g));
                let mut candidates = Vec::new();
                let part_counts: &[u64] = if config.cores == 1 {
                    for order in dedup_orders([algorithm1(gemm), BackwardOrder::Baseline]) {
                        candidates.push(self.plain(order));
                    }
                    &SINGLE_CORE_PART_CANDIDATES
                } else {
                    &[config.cores as u64]
                };
                for scheme in PartitionScheme::ALL {
                    for &parts in part_counts {
                        let sub = gemm.split(scheme.split_dim(), parts)[0];
                        for order in dedup_orders([algorithm1(sub), BackwardOrder::Baseline]) {
                            candidates.push(self.split(scheme, parts, order));
                        }
                    }
                }
                candidates
            }
        }
    }
}

/// The state a simulation run carries: its execution options and the
/// memo that serves repeated layer results and candidate replays.
///
/// [`SimContext::new`] builds a private memo, so a context's counters and
/// entries are its own; [`SimContext::shared`] uses the one process memo
/// that the free-function shims ([`simulate_model`],
/// [`simulate_model_with`], [`simulate_model_ladder`],
/// [`crate::trace_model`]) and their counters ([`crate::sim_cache_stats`],
/// [`crate::sim_cache_len`], [`crate::sim_profile_cache_len`]) go
/// through. Every operation returns the same report whichever memo
/// backs it.
pub struct SimContext {
    pub(crate) options: SimOptions,
    pub(crate) memo: Arc<Memo>,
}

impl SimContext {
    /// A context with a private, empty memo of [`DEFAULT_CACHE_CAP`]
    /// entries.
    pub fn new(options: SimOptions) -> Self {
        let memo = Arc::new(Memo::new(DEFAULT_CACHE_CAP));
        Self { options, memo }
    }

    /// A context on the process memo, built on first use.
    pub fn shared(options: SimOptions) -> Self {
        let memo = Memo::shared();
        Self { options, memo }
    }

    /// The options every operation on this context runs under.
    pub fn options(&self) -> &SimOptions {
        &self.options
    }

    /// The memo's hit/miss/eviction counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// Simulate one layer's forward pass on `config`. `density` is the
    /// ifmap density: 1 for a dense layer, below 1 for the raw-layout `X`
    /// traffic of a convolution.
    pub fn forward(&self, gemm: GemmShape, density: f64, config: &NpuConfig) -> SimReport {
        let key = CacheKey::new(gemm, density, config, PassKey::Forward);
        if let Some((hit, ..)) = self.memo.get(&key) {
            return hit;
        }
        let policy = TilePolicy::for_config(config);
        let (sub_gemms, part_tensors) = forward_parts(gemm, config);
        let cores: Vec<StreamGen> = sub_gemms
            .iter()
            .zip(&part_tensors)
            .map(|(sub, t)| StreamGen::forward(*sub, policy, *t, density))
            .collect();
        let report = with_scratch(|s| replay_multicore(config, &cores, None, s).combined());
        self.memo.put(key, (report, None, MovedOps::of(&[])));
        report
    }

    /// Simulate one layer's backward pass on `config` under `technique`
    /// (`density` as in [`Self::forward`]; a first layer has no `dX`).
    ///
    /// Returns the report plus the decisions taken (order, partitioning)
    /// so callers can inspect what Algorithm 1 / the partition selector
    /// chose.
    pub fn backward(
        &self,
        gemm: GemmShape,
        density: f64,
        config: &NpuConfig,
        technique: Technique,
        is_first: bool,
    ) -> (SimReport, LayerDecision) {
        let (report, decision, _) = self.backward_moved(gemm, density, config, technique, is_first);
        (report, decision)
    }

    /// [`Self::backward`], with the decided candidate's per-stream moved
    /// ops (from the memo, or from the selection loop's replay of the
    /// winner).
    pub(crate) fn backward_moved(
        &self,
        gemm: GemmShape,
        density: f64,
        config: &NpuConfig,
        technique: Technique,
        is_first: bool,
    ) -> (SimReport, LayerDecision, MovedOps) {
        let pass = PassKey::Backward {
            technique,
            is_first,
        };
        let key = CacheKey::new(gemm, density, config, pass);
        if let Some((report, decision, moved)) = self.memo.get(&key) {
            let decision = decision.expect("backward entries carry a decision");
            return (report, decision, moved);
        }
        let layer = LayerInputs::new(gemm, density, config, is_first);
        let (report, decision, moved) = self.select_best(&layer.candidates(technique), &layer);
        self.memo.put(key, (report, Some(decision), moved.clone()));
        (report, decision, moved)
    }

    /// Simulate one model's full training step under `technique`.
    /// Independent layers are evaluated on a pool of
    /// [`SimOptions::workers`] workers; the report's layer order always
    /// matches the model's.
    ///
    /// The model should have been built with `config.default_batch()` so
    /// the per-core batch matches the paper's setup (callers that sweep
    /// batch size on purpose may deviate — the simulation itself is
    /// agnostic).
    pub fn model(&self, model: &Model, config: &NpuConfig, technique: Technique) -> ModelReport {
        let layers = parallel_map_workers(
            &model.layers,
            self.options.workers,
            || (),
            |(), layer| {
                let (gemm, density) = (layer.gemm, layer.ifmap_density);
                let forward = self.forward(gemm, density, config);
                let (backward, decision) =
                    self.backward(gemm, density, config, technique, layer.is_first);
                LayerOutcome {
                    name: layer.name.clone(),
                    multiplicity: layer.count as u64 * layer.groups as u64,
                    forward,
                    backward,
                    decision,
                    gemm,
                }
            },
        );
        ModelReport {
            model: model.name.clone(),
            config: config.name.clone(),
            technique,
            layers,
        }
    }

    /// Evaluate `candidates` and return the winner: the first candidate
    /// (in construction order) with the strictly smallest cycle count —
    /// the lexicographic minimum of `(cycles, index)` — with its
    /// per-stream moved ops.
    ///
    /// Candidates are evaluated in ascending `(bound, index)` order
    /// against a running best: any candidate whose closed-form bound
    /// exceeds the best cycles so far is skipped outright (its true cycles
    /// can only be larger), and the rest replay under a cutoff that aborts
    /// them mid-stream once they provably exceed the running best. Neither
    /// rule can change the winner — a skipped or aborted candidate's true
    /// cycle count *strictly* exceeds the running best, so it loses even
    /// the index tie-break. Memoized candidates (see
    /// [`Candidate::run_memoized`]) are answered without replaying.
    fn select_best(
        &self,
        candidates: &[Candidate],
        layer: &LayerInputs,
    ) -> (SimReport, LayerDecision, MovedOps) {
        assert!(!candidates.is_empty(), "no candidates to select from");
        let mut eval_order: Vec<usize> = (0..candidates.len()).collect();
        eval_order.sort_by_key(|&i| (candidates[i].bound, i));
        with_scratch(|s| {
            let mut best: Option<(usize, SimReport, MovedOps)> = None;
            for &i in &eval_order {
                let cutoff = best.as_ref().map(|(_, b, _)| b.cycles);
                if cutoff.is_some_and(|c| candidates[i].bound > c) {
                    continue;
                }
                if let Some((r, moved)) = candidates[i].run_memoized(layer, cutoff, &self.memo, s) {
                    let wins = match &best {
                        None => true,
                        Some((bi, b, _)) => (r.cycles, i) < (b.cycles, *bi),
                    };
                    if wins {
                        best = Some((i, r, moved));
                    }
                }
            }
            let (best_idx, report, moved) = best.expect("the first evaluation has no cutoff");
            (report, candidates[best_idx].decision, moved)
        })
    }
}

/// The closed-form bound the selection loop orders and prunes
/// `decision`'s candidate by (see [`crate::bound`]).
pub(crate) fn candidate_bound(
    gemm: GemmShape,
    density: f64,
    config: &NpuConfig,
    decision: LayerDecision,
    is_first: bool,
) -> u64 {
    LayerInputs::new(gemm, density, config, is_first)
        .decided(decision)
        .bound
}

/// The report of `decision`'s candidate, built and replayed uncut exactly
/// as the selection loop replays it.
pub(crate) fn run_decided(
    gemm: GemmShape,
    density: f64,
    config: &NpuConfig,
    decision: LayerDecision,
    is_first: bool,
) -> SimReport {
    let layer = LayerInputs::new(gemm, density, config, is_first);
    let candidate = layer.decided(decision);
    with_scratch(|s| candidate.run_bounded(&layer, None, s))
        .expect("an uncut replay completes")
        .0
}

/// One candidate's streams both ways: the collectors its builders emit
/// into and the generators the selection loop replays, one per core.
pub(crate) struct CandidateStreams {
    /// The candidate's decision (with the partition count its split
    /// produced).
    pub(crate) decision: LayerDecision,
    /// The collected streams.
    pub(crate) collected: Vec<AnalyticCollector>,
    /// The generated streams.
    pub(crate) generated: Vec<StreamGen>,
}

/// Every backward candidate of `technique` for a layer, in the selection
/// loop's index order, then the forward pass (decided as `order:
/// Baseline, partition: None`), each collected and generated.
pub(crate) fn candidate_streams(
    gemm: GemmShape,
    density: f64,
    config: &NpuConfig,
    technique: Technique,
    is_first: bool,
) -> Vec<CandidateStreams> {
    let layer = LayerInputs::new(gemm, density, config, is_first);
    let mut out: Vec<CandidateStreams> = layer
        .candidates(technique)
        .iter()
        .map(|c| CandidateStreams {
            decision: c.decision,
            collected: c.emit(&layer),
            generated: c.streams(&layer),
        })
        .collect();
    let policy = layer.policy;
    let (sub_gemms, part_tensors) = forward_parts(gemm, config);
    let mut collected = Vec::new();
    let mut generated = Vec::new();
    for (sub, t) in sub_gemms.iter().zip(&part_tensors) {
        let mut c = AnalyticCollector::new();
        BackwardBuilder::new(*sub, policy, *t).register_grids(&mut c);
        forward_schedule(*sub, policy, *t, density, &mut c);
        collected.push(c);
        generated.push(StreamGen::forward(*sub, policy, *t, density));
    }
    out.push(CandidateStreams {
        decision: LayerDecision {
            order: BackwardOrder::Baseline,
            partition: None,
        },
        collected,
        generated,
    });
    out
}

/// Replay a decided backward execution with a recorder attached: the
/// candidate `decision` names is built exactly as the selection loop builds
/// it and its generators are replayed once each — one on a single core
/// (partition segments chained), one per core otherwise — uncut, with
/// `make_recorder(stream, shape, memory_slices)` attached, where `shape`
/// is the [`StreamShape`] of the events that replay of `stream` will emit
/// ([`StreamGen::shape`], in closed form) and `memory_slices` the stream's
/// entry of `moved_ops`: the ops that moved bytes in the selection loop's
/// replay of the same stream ([`SimContext::backward_moved`]), one memory
/// slice each.
///
/// Returns each core's replay report (cross-partition reductions, which no
/// core executes, are left out) with its recorder.
///
/// # Panics
///
/// Panics if `moved_ops` does not hold one count per stream.
pub(crate) fn record_decided<R: Recorder>(
    gemm: GemmShape,
    density: f64,
    config: &NpuConfig,
    decision: LayerDecision,
    moved_ops: &[u64],
    is_first: bool,
    mut make_recorder: impl FnMut(&StreamGen, StreamShape, u64) -> R,
) -> Vec<(SimReport, R)> {
    let layer = LayerInputs::new(gemm, density, config, is_first);
    let streams = layer.decided(decision).streams(&layer);
    assert_eq!(moved_ops.len(), streams.len(), "one count per stream");
    with_scratch(|s| {
        streams
            .iter()
            .zip(moved_ops)
            .map(|(g, &moved)| {
                let shape = g.shape();
                // The closed form against a count of the generated ops, so
                // debug traces of every model check it.
                debug_assert_eq!(shape, StreamShape::of_input(g));
                let mut recorder = make_recorder(g, shape, moved);
                let report = replay_recorded(g, &layer.engine, s, None, &mut recorder)
                    .expect("an uncut replay completes")
                    .report;
                (report, recorder)
            })
            .collect()
    })
}

/// Per-layer outcome within a model report.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerOutcome {
    /// Layer name.
    pub name: String,
    /// Instances of this exact layer in the model (count × conv groups).
    pub multiplicity: u64,
    /// Forward-pass report of one instance.
    pub forward: SimReport,
    /// Backward-pass report of one instance.
    pub backward: SimReport,
    /// Scheduler decisions for the backward pass.
    pub decision: LayerDecision,
    /// The layer's forward GEMM (convenience for downstream analyses).
    pub gemm: GemmShape,
}

impl LayerOutcome {
    /// Total cycles contributed by all instances (forward + backward).
    pub fn total_cycles(&self) -> u64 {
        (self.forward.cycles + self.backward.cycles) * self.multiplicity
    }

    /// Backward cycles of all instances.
    pub fn backward_cycles(&self) -> u64 {
        self.backward.cycles * self.multiplicity
    }
}

/// A full training-step simulation of one model under one technique.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelReport {
    /// Model name.
    pub model: String,
    /// Configuration name.
    pub config: String,
    /// Technique applied.
    pub technique: Technique,
    /// Per-distinct-layer outcomes, in forward order.
    pub layers: Vec<LayerOutcome>,
}

impl ModelReport {
    /// Total training-step cycles (forward + backward over all layers).
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(LayerOutcome::total_cycles).sum()
    }

    /// Forward-pass cycles only.
    pub fn forward_cycles(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.forward.cycles * l.multiplicity)
            .sum()
    }

    /// Backward-pass cycles only.
    pub fn backward_cycles(&self) -> u64 {
        self.layers.iter().map(LayerOutcome::backward_cycles).sum()
    }

    /// Aggregate backward-pass DRAM traffic (the Figure 5 quantity).
    pub fn backward_traffic(&self) -> Traffic {
        let mut t = Traffic::new();
        for l in &self.layers {
            t.merge(&l.backward.traffic.scaled(l.multiplicity));
        }
        t
    }

    /// Aggregate DRAM traffic of the whole step.
    pub fn total_traffic(&self) -> Traffic {
        let mut t = Traffic::new();
        for l in &self.layers {
            t.merge(&l.forward.traffic.scaled(l.multiplicity));
            t.merge(&l.backward.traffic.scaled(l.multiplicity));
        }
        t
    }

    /// Execution time normalised to a baseline run (Figure 12's y-axis).
    pub fn normalized_to(&self, baseline: &ModelReport) -> f64 {
        self.total_cycles() as f64 / baseline.total_cycles() as f64
    }
}

/// [`SimContext::model`] on the shared memo under the default options.
pub fn simulate_model(model: &Model, config: &NpuConfig, technique: Technique) -> ModelReport {
    simulate_model_with(model, config, technique, &SimOptions::default())
}

/// [`SimContext::model`] on the shared memo under `options`.
pub fn simulate_model_with(
    model: &Model,
    config: &NpuConfig,
    technique: Technique,
    options: &SimOptions,
) -> ModelReport {
    SimContext::shared(*options).model(model, config, technique)
}

/// Simulate one model under `technique` on each of `configs` (typically an
/// SPM-capacity ladder) on the shared memo: one report per config, in
/// order, each exactly [`SimContext::model`] on that config.
pub fn simulate_model_ladder(
    model: &Model,
    configs: &[NpuConfig],
    technique: Technique,
    options: &SimOptions,
) -> Vec<ModelReport> {
    let context = SimContext::shared(*options);
    configs
        .iter()
        .map(|c| context.model(model, c, technique))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use igo_tensor::TensorClass;

    /// [`SimContext::backward`] of a dense layer on a fresh context.
    fn backward(
        gemm: GemmShape,
        config: &NpuConfig,
        technique: Technique,
        is_first: bool,
    ) -> (SimReport, LayerDecision) {
        SimContext::new(SimOptions::default()).backward(gemm, 1.0, config, technique, is_first)
    }

    /// A dY-heavy layer (a ResNet expansion conv): dY is 25 MB while W is
    /// 64 KiB — the regime the paper's techniques target.
    fn dy_heavy_conv() -> GemmShape {
        GemmShape::new(25088, 64, 256)
    }

    #[test]
    fn interleaving_reduces_dy_reads_on_large_npu() {
        let config = NpuConfig::large_single_core();
        let gemm = dy_heavy_conv();
        let (base, _) = backward(gemm, &config, Technique::Baseline, false);
        let (inter, _) = backward(gemm, &config, Technique::Interleaving, false);
        assert!(
            inter.traffic.read(TensorClass::OutGrad) < base.traffic.read(TensorClass::OutGrad),
            "interleaving must reduce dY reads on a dY-heavy layer: {} vs {}",
            inter.traffic.read(TensorClass::OutGrad),
            base.traffic.read(TensorClass::OutGrad),
        );
        assert!(inter.cycles < base.cycles);
        assert_eq!(inter.macs, base.macs, "same math");
    }

    #[test]
    fn ladder_is_monotone_for_dy_heavy_layer() {
        // Cumulative techniques must not slow a dY-dominated layer down.
        let config = NpuConfig::large_single_core();
        let mut last = u64::MAX;
        for technique in [
            Technique::Baseline,
            Technique::Rearrangement,
            Technique::DataPartitioning,
        ] {
            let (r, _) = backward(dy_heavy_conv(), &config, technique, false);
            assert!(
                r.cycles <= last,
                "{technique} slower than predecessor: {} > {last}",
                r.cycles
            );
            last = r.cycles;
        }
    }

    #[test]
    fn balanced_layer_never_regresses_badly() {
        // A traffic-balanced GEMM (BERT FFN): every operand is large, so
        // fusion buys little — but the cost-driven block selection must
        // keep the transformed schedules within a few percent of baseline.
        let config = NpuConfig::large_single_core();
        let gemm = GemmShape::new(4096, 1024, 4096);
        let (base, _) = backward(gemm, &config, Technique::Baseline, false);
        // Zipped interleaving splits the SPM between two co-resident
        // working sets, so a balanced layer tolerates a larger slack than
        // the cost-planned fused orders.
        for (technique, slack) in [
            (Technique::Interleaving, 1.25),
            (Technique::Rearrangement, 1.10),
            (Technique::DataPartitioning, 1.001),
        ] {
            let (r, _) = backward(gemm, &config, technique, false);
            assert!(
                (r.cycles as f64) < slack * base.cycles as f64,
                "{technique} regressed beyond {slack}: {} vs {}",
                r.cycles,
                base.cycles
            );
        }
    }

    #[test]
    fn ideal_reuse_is_a_lower_bound_on_dy_traffic() {
        let config = NpuConfig::small_edge();
        let gemm = GemmShape::new(512, 576, 256);
        let (base, _) = backward(gemm, &config, Technique::Baseline, false);
        let (ideal, _) = backward(gemm, &config, Technique::IdealDyReuse, false);
        assert!(ideal.traffic.read(TensorClass::OutGrad) < base.traffic.read(TensorClass::OutGrad));
        assert!(ideal.cycles < base.cycles);
    }

    #[test]
    fn first_layer_identical_across_techniques() {
        let config = NpuConfig::large_single_core();
        let gemm = GemmShape::new(100_352, 147, 64);
        let (base, _) = backward(gemm, &config, Technique::Baseline, true);
        let (inter, _) = backward(gemm, &config, Technique::Interleaving, true);
        let (rearr, _) = backward(gemm, &config, Technique::Rearrangement, true);
        assert_eq!(base.cycles, inter.cycles);
        assert_eq!(base.cycles, rearr.cycles);
        assert_eq!(base.macs, gemm.macs(), "dW only");
    }

    #[test]
    fn oracle_never_loses_to_algorithm1() {
        let config = NpuConfig::large_single_core();
        for gemm in [
            GemmShape::new(4096, 1024, 4096),
            GemmShape::new(8, 479, 1024),
            GemmShape::new(25088, 576, 64),
        ] {
            let (alg, _) = backward(gemm, &config, Technique::Rearrangement, false);
            let (oracle, _) = backward(gemm, &config, Technique::RearrangementOracle, false);
            assert!(oracle.cycles <= alg.cycles, "{gemm}");
        }
    }

    #[test]
    fn multicore_runs_and_reduces() {
        let config = NpuConfig::large_server(2);
        let gemm = GemmShape::new(8192, 1024, 1024);
        let (base, d) = backward(gemm, &config, Technique::Baseline, false);
        assert_eq!(d.order, BackwardOrder::Baseline);
        assert!(base.cycles > 0);
        // Batch parallelism reduces dW partials: WGrad read traffic from
        // the reduction must be present.
        assert!(base.traffic.read(TensorClass::WGrad) > 0);
    }

    #[test]
    fn model_report_totals_are_consistent() {
        let config = NpuConfig::large_single_core();
        let model = igo_workloads::zoo::model(igo_workloads::ModelId::Ncf, 8);
        let report = simulate_model(&model, &config, Technique::Baseline);
        assert_eq!(report.layers.len(), model.layers.len());
        assert_eq!(
            report.total_cycles(),
            report.forward_cycles() + report.backward_cycles()
        );
        assert!(report.total_traffic().total() > 0);
        assert!((report.normalized_to(&report) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn every_options_combination_selects_identically() {
        // Every pool size on a layer with a non-trivial candidate space,
        // cold and served from the memo: same report, same decision, bit
        // for bit.
        let config = NpuConfig::small_edge();
        let gemm = dy_heavy_conv();
        let (want, want_d) = SimContext::new(SimOptions::sequential()).backward(
            gemm,
            1.0,
            &config,
            Technique::DataPartitioning,
            false,
        );
        // A 3-worker pool is forced even on a single-CPU machine.
        for workers in [1, 3] {
            let opts = SimOptions { workers };
            let context = SimContext::new(opts);
            for pass in ["cold", "warm"] {
                let (got, got_d) =
                    context.backward(gemm, 1.0, &config, Technique::DataPartitioning, false);
                assert_eq!(got, want, "{pass} {opts:?} diverged from one worker");
                assert_eq!(
                    got_d, want_d,
                    "{pass} {opts:?} picked a different candidate"
                );
            }
        }
    }

    /// Every candidate of every technique, replayed uncut: the pruned,
    /// memoized selection returns the `(cycles, index)` minimum, report
    /// and decision, on one and two cores, first and non-first layers,
    /// and ragged partition splits. Some candidate's bound exceeds the
    /// winner's cycles, so the skip rule is exercised.
    #[test]
    fn pruned_selection_is_the_exhaustive_minimum() {
        let mut scratch = AnalyticScratch::new();
        let mut pruned = 0;
        for (config, gemm) in [
            (NpuConfig::small_edge(), GemmShape::new(2009, 64, 256)),
            // Ragged 2- and 4-way splits along every dimension.
            (NpuConfig::small_edge(), GemmShape::new(183, 44, 91)),
            (
                NpuConfig::large_single_core(),
                GemmShape::new(3109, 263, 1031),
            ),
            (NpuConfig::large_server(2), GemmShape::new(2048, 515, 1027)),
        ] {
            for technique in Technique::ALL {
                for is_first in [false, true] {
                    let label = format!("{gemm} {technique} first={is_first} on {}", config.name);
                    let layer = LayerInputs::new(gemm, 1.0, &config, is_first);
                    let candidates = layer.candidates(technique);
                    let (want_idx, want) = candidates
                        .iter()
                        .map(|c| {
                            c.run_bounded(&layer, None, &mut scratch)
                                .expect("an uncut replay completes")
                                .0
                        })
                        .enumerate()
                        .min_by_key(|(i, r)| (r.cycles, *i))
                        .expect("every technique has a candidate");
                    let context = SimContext::new(SimOptions::sequential());
                    let (got, decision, _) = context.select_best(&candidates, &layer);
                    assert_eq!(got, want, "{label}");
                    assert_eq!(decision, candidates[want_idx].decision, "{label}");
                    pruned += candidates.iter().filter(|c| c.bound > want.cycles).count();
                }
            }
        }
        assert!(pruned > 0, "no candidate's bound exceeds its winner");
    }

    /// Asserts that `simulate_model_ladder` returns one report per config,
    /// in the given order, each equal to simulating that config alone on a
    /// fresh context (so a memo the ladder populated cannot vouch for it).
    fn assert_ladder_is_per_config(configs: &[NpuConfig], techniques: &[Technique]) {
        let model = igo_workloads::zoo::model(igo_workloads::ModelId::Ncf, 8);
        let opts = SimOptions { workers: 3 };
        for &technique in techniques {
            let got = simulate_model_ladder(&model, configs, technique, &opts);
            assert_eq!(got.len(), configs.len());
            for (rung, config) in got.iter().zip(configs) {
                let want = SimContext::new(opts).model(&model, config, technique);
                assert_eq!(rung.config, want.config);
                assert_eq!(rung.layers.len(), want.layers.len());
                for (g, w) in rung.layers.iter().zip(&want.layers) {
                    assert_eq!(g.forward, w.forward, "{technique} fwd @ {}", config.name);
                    assert_eq!(g.backward, w.backward, "{technique} bwd @ {}", config.name);
                    assert_eq!(g.decision, w.decision, "{technique} @ {}", config.name);
                    assert_eq!(g.multiplicity, w.multiplicity);
                }
            }
        }
    }

    #[test]
    fn capacity_ladder_matches_per_config_simulation() {
        // An ascending single-core SPM ladder, every technique.
        let base = NpuConfig::large_single_core();
        let configs: Vec<NpuConfig> = [3u64, 12, 24]
            .iter()
            .map(|&mib| base.clone().with_spm_bytes(mib << 20))
            .collect();
        assert_ladder_is_per_config(&configs, &Technique::ALL);
    }

    #[test]
    fn ladder_falls_back_on_invalid_ladders() {
        // Unsorted capacities and a multi-core config are served per config
        // too, in the order given.
        let base = NpuConfig::large_single_core();
        let configs = vec![
            base.clone().with_spm_bytes(24 << 20),
            base.clone().with_spm_bytes(3 << 20),
            NpuConfig::large_server(2),
        ];
        assert_ladder_is_per_config(
            &configs,
            &[Technique::Rearrangement, Technique::DataPartitioning],
        );
    }

    #[test]
    fn candidate_memo_serves_later_techniques_exactly() {
        let config = NpuConfig::large_single_core();
        let gemm = GemmShape::new(3109, 263, 1031);
        let memo = SimContext::new(SimOptions::sequential());
        let fresh = || SimContext::new(SimOptions::sequential());
        for technique in [Technique::Rearrangement, Technique::DataPartitioning] {
            let got = memo.backward(gemm, 1.0, &config, technique, false);
            let want = fresh().backward(gemm, 1.0, &config, technique, false);
            assert_eq!(got, want, "{technique} diverged under the candidate memo");
        }
        // Rearrangement's one candidate is the plain Algorithm-1 schedule,
        // which DataPartitioning enumerates too.
        let order = rearranged_order(gemm, &config);
        let plain = CacheKey::new(
            gemm,
            1.0,
            &config,
            PassKey::Candidate(CandidateKey::Plain {
                order,
                is_first: false,
            }),
        );
        let (rearranged, _, moved) =
            fresh().backward_moved(gemm, 1.0, &config, Technique::Rearrangement, false);
        assert_eq!(memo.memo.get(&plain), Some((rearranged, None, moved)));
        // Prove selection reads the memo: plant an unbeatable report for
        // the first candidate in bound order, which is always looked up,
        // and rerun the selection itself (bypassing the per-layer memo).
        let layer = LayerInputs::new(gemm, 1.0, &config, false);
        let candidates = layer.candidates(Technique::DataPartitioning);
        let first = candidates
            .iter()
            .min_by_key(|c| c.bound)
            .expect("candidates");
        let planted = SimReport {
            cycles: 1,
            ..rearranged
        };
        let key = CacheKey::new(gemm, 1.0, &config, PassKey::Candidate(first.key));
        memo.memo.put(key, (planted, None, MovedOps::One(7)));
        let (report, decision, moved) = memo.select_best(&candidates, &layer);
        assert_eq!(report, planted, "the memo served the first candidate");
        assert_eq!(moved, MovedOps::One(7), "with its moved ops");
        assert_eq!(decision, first.decision);
    }

    #[test]
    fn replay_extent_covers_every_candidate_stream() {
        let orders = [
            BackwardOrder::Baseline,
            BackwardOrder::IdealDyReuse,
            BackwardOrder::Interleaved,
            BackwardOrder::DxMajor,
            BackwardOrder::DwMajor,
        ];
        for config in [
            NpuConfig::small_edge(),
            NpuConfig::large_single_core(),
            NpuConfig::large_server(2),
        ] {
            for gemm in [
                GemmShape::new(129, 257, 383),
                GemmShape::new(1000, 3, 77),
                GemmShape::new(64, 64, 64),
                // Small M, large K and N: weight-sharing partitions each
                // register a full K×N `dW_part` grid.
                GemmShape::new(45, 4500, 4500),
                GemmShape::new(1, 700, 900),
            ] {
                let extent = crate::bound::replay_extent(gemm, &config);
                assert!(extent < igo_npu_sim::REPLAY_ID_LIMIT);
                for is_first in [false, true] {
                    let layer = LayerInputs::new(gemm, 1.0, &config, is_first);
                    let part_counts = if config.cores == 1 {
                        SINGLE_CORE_PART_CANDIDATES.to_vec()
                    } else {
                        vec![config.cores as u64]
                    };
                    let mut candidates: Vec<Candidate> =
                        orders.iter().map(|&o| layer.plain(o)).collect();
                    for scheme in PartitionScheme::ALL {
                        for &parts in &part_counts {
                            for &order in &orders {
                                candidates.push(layer.split(scheme, parts, order));
                            }
                        }
                    }
                    for c in &candidates {
                        for collector in &c.emit(&layer) {
                            let label = format!("{gemm} {:?} on {}", c.decision, config.name);
                            assert!(collector.tile_count() as u64 <= extent, "{label}");
                            assert!(collector.stream_len() as u64 <= extent, "{label}");
                        }
                    }
                }
            }
        }
        let huge = crate::bound::replay_extent(
            GemmShape::new(100_000_000, 100_000, 100_000),
            &NpuConfig::small_edge(),
        );
        assert!(huge >= igo_npu_sim::REPLAY_ID_LIMIT, "{huge}");
    }

    /// Layers on boundary shapes: dimension 1, primes, tile edges ±1 and
    /// ragged partition splits, on one core and several.
    fn boundary_layers() -> Vec<(NpuConfig, GemmShape)> {
        [NpuConfig::small_edge(), NpuConfig::large_server(2)]
            .into_iter()
            .flat_map(|config| {
                let t = TilePolicy::for_config(&config).tile.rows;
                [
                    GemmShape::new(1, 2 * t + 1, 3),
                    GemmShape::new(4 * t + 3, t - 1, t + 1),
                    GemmShape::new(13, 5 * t + 7, 2 * t - 1),
                ]
                .map(|gemm| (config.clone(), gemm))
            })
            .collect()
    }

    /// Every candidate the loop can build for `layer`: each order, plain
    /// and under every scheme at two and four parts.
    fn every_candidate(layer: &LayerInputs) -> Vec<Candidate> {
        let orders = [
            BackwardOrder::Baseline,
            BackwardOrder::IdealDyReuse,
            BackwardOrder::Interleaved,
            BackwardOrder::DxMajor,
            BackwardOrder::DwMajor,
        ];
        let mut candidates: Vec<Candidate> = orders.iter().map(|&o| layer.plain(o)).collect();
        for scheme in PartitionScheme::ALL {
            for parts in [2, 4] {
                for &order in &orders {
                    candidates.push(layer.split(scheme, parts, order));
                }
            }
        }
        candidates
    }

    /// Every candidate the loop can build, with and without a `dX` pass,
    /// and the forward pass generate exactly the stream a collector links
    /// from their ops, on the boundary layers.
    #[test]
    fn generated_streams_read_as_collected() {
        for (config, gemm) in boundary_layers() {
            for is_first in [false, true] {
                let layer = LayerInputs::new(gemm, 0.37, &config, is_first);
                for c in every_candidate(&layer) {
                    let collected = c.emit(&layer);
                    let generated = c.streams(&layer);
                    assert_eq!(collected.len(), generated.len());
                    for (a, b) in collected.iter().zip(&generated) {
                        let diff = crate::audit::input_difference(a, b);
                        assert_eq!(diff, None, "{gemm} {:?} on {}", c.decision, config.name);
                    }
                }
            }
            for (c, g) in candidate_streams(gemm, 0.37, &config, Technique::Baseline, false)
                .last()
                .map(|f| (&f.collected, &f.generated))
                .into_iter()
                .flat_map(|(c, g)| c.iter().zip(g))
            {
                assert_eq!(crate::audit::input_difference(c, g), None, "{gemm} forward");
            }
        }
    }

    /// Traces size their recorders from the generator: on every candidate
    /// of the boundary layers, each generated stream's closed-form shape
    /// and its counted shape are the shape its recorded replay emits, and
    /// that replay reports what the collected stream's replay reports.
    #[test]
    fn generated_streams_size_their_recorders() {
        let mut scratch = AnalyticScratch::new();
        for (config, gemm) in boundary_layers() {
            for is_first in [false, true] {
                let layer = LayerInputs::new(gemm, 0.37, &config, is_first);
                for c in every_candidate(&layer) {
                    let label = format!("{gemm} {:?} on {}", c.decision, config.name);
                    let collected = c.emit(&layer);
                    for (g, collector) in c.streams(&layer).iter().zip(&collected) {
                        let mut log = igo_npu_sim::EventLog::new();
                        let report =
                            replay_recorded(g, &layer.engine, &mut scratch, None, &mut log)
                                .expect("an uncut replay completes")
                                .report;
                        let emitted = StreamShape::of_events(&log.events);
                        assert_eq!(g.shape(), emitted, "{label}");
                        assert_eq!(StreamShape::of_input(g), emitted, "{label}");
                        assert_eq!(
                            report,
                            collector.replay(&layer.engine, &mut scratch).report,
                            "{label}"
                        );
                    }
                }
            }
        }
    }

    /// The generated replay's memory grows with tiles, not accesses: a
    /// large Baseline candidate replays with no stream buffer, and its
    /// victim index holds a few kilobytes for 200 k accesses.
    #[test]
    fn generated_replay_memory_is_per_tile() {
        let config = NpuConfig::large_single_core();
        let layer = LayerInputs::new(GemmShape::new(4096, 4096, 4096), 1.0, &config, false);
        let candidate = layer.plain(BackwardOrder::Baseline);
        let streams = candidate.streams(&layer);
        let mut scratch = AnalyticScratch::new();
        let report = replay_input(&streams[0], &layer.engine, &mut scratch, None)
            .expect("an uncut replay completes")
            .report;
        let collected = &candidate.emit(&layer)[0];
        assert_eq!(
            report,
            collected
                .replay(&layer.engine, &mut AnalyticScratch::new())
                .report
        );
        let accesses = streams[0].stream_len();
        assert!(accesses > 100_000, "{accesses} accesses");
        assert!(
            scratch.victim_bytes() < 4096,
            "{} bytes",
            scratch.victim_bytes()
        );
    }

    /// The replay's memory per collected access (the collector serves
    /// [`Engine::run`], the ladder and multi-core replays, and the audit's
    /// oracle): the buffers whose size grows
    /// with the stream — access and op records — plus the OPT victim index
    /// hold at most 11 bytes per access on a large Baseline stream (three
    /// accesses per op).
    #[test]
    fn replay_buffers_stay_within_eleven_bytes_per_access() {
        let config = NpuConfig::large_single_core();
        let layer = LayerInputs::new(GemmShape::new(4096, 4096, 4096), 1.0, &config, false);
        let candidate = layer.plain(BackwardOrder::Baseline);
        let collector = &candidate.emit(&layer)[0];
        let mut scratch = AnalyticScratch::new();
        collector.replay(&layer.engine, &mut scratch);
        let accesses = collector.stream_len();
        assert!(accesses > 100_000, "{accesses} accesses");
        let bytes = collector.stream_bytes() + scratch.victim_bytes();
        let per_access = bytes as f64 / accesses as f64;
        assert!(per_access <= 11.0, "{per_access:.2} bytes per access");
    }

    /// Every candidate stream's moved ops, as the replay counts them,
    /// equal the memory slices its recorded events make
    /// ([`crate::tracks::MemorySlices`], the oracle), on seeded shapes of
    /// the three stream kinds: one stream on one core, partitions chained
    /// on one core, and one stream per core. The selection loop hands
    /// those counts on with each candidate's report.
    #[test]
    fn replay_moved_ops_count_the_recorded_memory_slices() {
        use crate::tracks::memory_slices;
        use igo_npu_sim::EventLog;
        let mut rng = igo_tensor::SplitMix64::new(22);
        let configs = [NpuConfig::small_edge(), NpuConfig::large_server(2)];
        let mut kinds = [0; 3];
        for case in 0..12 {
            let config = &configs[case % 2];
            let dim = |rng: &mut igo_tensor::SplitMix64| rng.range_u64(16, 1200);
            let gemm = GemmShape::new(dim(&mut rng), dim(&mut rng), dim(&mut rng));
            let layer = LayerInputs::new(gemm, 1.0, config, case % 3 == 0);
            let mut scratch = AnalyticScratch::new();
            for c in layer.candidates(Technique::DataPartitioning) {
                let streams = c.streams(&layer);
                let kind = match &c.exec {
                    Exec::Single(_) => 0,
                    Exec::Split { .. } if config.cores == 1 => 1,
                    Exec::Split { .. } => 2,
                };
                kinds[kind] += 1;
                let mut want = Vec::new();
                for g in &streams {
                    let mut log = EventLog::new();
                    let replayed = replay_recorded(g, &layer.engine, &mut scratch, None, &mut log)
                        .expect("an uncut replay completes");
                    want.push(memory_slices(&log.events));
                    assert_eq!(replayed.moved_ops, want[want.len() - 1], "{gemm:?}");
                }
                let (_, moved) = c
                    .run_bounded(&layer, None, &mut scratch)
                    .expect("an uncut replay completes");
                assert_eq!(moved.as_slice(), want, "{gemm:?} {:?}", c.decision);
            }
        }
        assert!(kinds.iter().all(|&n| n > 0), "{kinds:?}");
    }

    #[test]
    fn moved_ops_keep_a_single_stream_inline() {
        assert_eq!(std::mem::size_of::<MovedOps>(), 16);
    }

    #[test]
    fn memoized_layer_reuses_cached_result() {
        let config = NpuConfig::large_single_core();
        let gemm = GemmShape::new(6421, 127, 6337);
        let context = SimContext::new(SimOptions::sequential());
        let technique = Technique::Interleaving;
        let first = context.backward_moved(gemm, 1.0, &config, technique, false);
        let pass = PassKey::Backward {
            technique,
            is_first: false,
        };
        assert_eq!(
            context.memo.get(&CacheKey::new(gemm, 1.0, &config, pass)),
            Some((first.0, Some(first.1), first.2.clone())),
            "the result must land in the memo"
        );
        let second = context.backward_moved(gemm, 1.0, &config, technique, false);
        assert_eq!(first, second);
    }
}
