//! The layer probe of a traced repetition.
//!
//! The pipeline's entry points (`simulate_model_with`,
//! `simulate_model_ladder`, `trace_model`) do their layer work internally,
//! so a span around them can only time the whole call. The probe re-derives
//! every reported layer point from the outside, through the public
//! functions of each module — schedule emission, the closed-form bounds,
//! the analytic, multi-core and capacity-ladder replays, and the cycle
//! engine — with a span around every call. It enumerates the same
//! candidate set as the pipeline, replays the reported winner without a
//! cutoff and every loser that its bound cannot rule out under a cutoff of
//! the winner's cycles, and checks that the winner's report equals the
//! pipeline's and that no loser beats it. A disagreement is recorded as a
//! mismatch and fails the run.
//!
//! Layer points the pipeline would serve from its memo cache are probed
//! once per repetition.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use crate::tracer::Tracer;
use igo_core::partition::{partition_backward_ex, plan_partition_backward, plan_partition_forward};
use igo_core::schedule::forward_schedule;
use igo_core::{
    multicore_candidate_bound, plain_candidate_bound, rearranged_order, select_order,
    sequential_candidate_bound, BackwardBuilder, BackwardOrder, LayerDecision, LayerOutcome,
    LayerTensors, ModelReport, PartitionScheme, Technique, TilePolicy,
};
use igo_npu_sim::{
    reduction_cycles, replay_ladder, replay_multicore, replay_multicore_bounded,
    replay_sequential_partitions_bounded, sequential_combined, AnalyticCollector, AnalyticScratch,
    Engine, LadderScratch, NpuConfig, Schedule, ScheduleSink, SimReport, StreamOp, TensorId,
    TileOpSpec,
};
use igo_tensor::GemmShape;
use igo_workloads::{Layer, Model};

/// The pipeline's single-core partition counts (§5).
const SINGLE_CORE_PARTS: [u64; 2] = [2, 4];

/// Tensor ids of a layer emitted straight into collectors, in the order a
/// fresh schedule registers them (ids feed the replacement tie-break).
fn layer_tensors() -> LayerTensors {
    LayerTensors {
        x: TensorId::from_raw(0),
        w: TensorId::from_raw(1),
        y: TensorId::from_raw(2),
        dx: TensorId::from_raw(3),
        dw: TensorId::from_raw(4),
        dy: TensorId::from_raw(5),
    }
}
const FIRST_FREE_ID: u32 = 6;

fn id_alloc() -> impl FnMut(igo_tensor::TensorClass, String) -> TensorId {
    let mut next = FIRST_FREE_ID;
    move |_, _| {
        let id = TensorId::from_raw(next);
        next += 1;
        id
    }
}

/// One backward candidate, independent of the SPM capacity.
#[derive(Debug, Clone, Copy)]
struct Spec {
    decision: LayerDecision,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// One stream on one core.
    Plain,
    /// Partition streams chained on one core, then a reduction.
    Seq { scheme: PartitionScheme, parts: u64 },
    /// One stream per core, then a reduction.
    Multi { scheme: PartitionScheme, parts: u64 },
}

fn orders(a: BackwardOrder, b: BackwardOrder) -> Vec<BackwardOrder> {
    if a == b {
        vec![a]
    } else {
        vec![a, b]
    }
}

/// The candidate set the pipeline evaluates for `technique`, in its order.
fn specs(gemm: GemmShape, config: &NpuConfig, technique: Technique) -> Vec<Spec> {
    let cores = config.cores as u64;
    let plain = |order| Spec {
        decision: LayerDecision {
            order,
            partition: None,
        },
        kind: if cores == 1 {
            Kind::Plain
        } else {
            Kind::Multi {
                scheme: PartitionScheme::WeightSharing,
                parts: cores,
            }
        },
    };
    let algorithm1 = |g: GemmShape| BackwardOrder::from(select_order(g));
    let split = |scheme: PartitionScheme, parts: u64| gemm.split(scheme.split_dim(), parts);
    match technique {
        Technique::Baseline => vec![plain(BackwardOrder::Baseline)],
        Technique::IdealDyReuse => vec![plain(BackwardOrder::IdealDyReuse)],
        Technique::Interleaving => vec![plain(BackwardOrder::Interleaved)],
        Technique::Rearrangement => vec![plain(rearranged_order(gemm, config))],
        Technique::RearrangementOracle => [
            BackwardOrder::Interleaved,
            BackwardOrder::DxMajor,
            BackwardOrder::DwMajor,
        ]
        .into_iter()
        .map(plain)
        .collect(),
        Technique::DataPartitioning => {
            let mut out = Vec::new();
            let part_counts: &[u64] = if cores == 1 {
                out.extend(
                    orders(algorithm1(gemm), BackwardOrder::Baseline)
                        .into_iter()
                        .map(plain),
                );
                &SINGLE_CORE_PARTS
            } else {
                &[cores]
            };
            for scheme in PartitionScheme::ALL {
                for &parts in part_counts {
                    let subs = split(scheme, parts);
                    for order in orders(algorithm1(subs[0]), BackwardOrder::Baseline) {
                        out.push(Spec {
                            decision: LayerDecision {
                                order,
                                partition: Some((scheme, subs.len() as u64)),
                            },
                            kind: if cores == 1 {
                                Kind::Seq { scheme, parts }
                            } else {
                                Kind::Multi { scheme, parts }
                            },
                        });
                    }
                }
            }
            out
        }
    }
}

/// A candidate's builders at one tiling policy.
struct Built {
    builders: Vec<BackwardBuilder>,
    reduction: Option<StreamOp>,
}

/// Forwards emission to a collector, counting the ops it receives.
struct Counting<'a> {
    inner: &'a mut AnalyticCollector,
    ops: u64,
}

impl ScheduleSink for Counting<'_> {
    fn gemm(&mut self, op: &TileOpSpec) {
        self.ops += 1;
        self.inner.gemm(op);
    }
    fn stream(&mut self, op: StreamOp) {
        self.ops += 1;
        self.inner.stream(op);
    }
    fn barrier(&mut self) {
        self.inner.barrier();
    }
}

/// Hashes an emitted stream, so rungs whose streams are identical can share
/// one ladder pass.
struct Fingerprint(DefaultHasher);

impl ScheduleSink for Fingerprint {
    fn gemm(&mut self, op: &TileOpSpec) {
        let h = &mut self.0;
        0u8.hash(h);
        for a in op.reads.iter().chain([&op.acc]) {
            a.map(|a| (a.tensor, a.coord, a.bytes)).hash(h);
        }
        op.compute.hash(h);
    }
    fn stream(&mut self, op: StreamOp) {
        (1u8, op.class, op.read_bytes, op.write_bytes).hash(&mut self.0);
    }
    fn barrier(&mut self) {
        2u8.hash(&mut self.0);
    }
}

/// Group indices by equal keys, keeping first-seen order.
fn group_by<K: PartialEq>(keys: Vec<K>) -> Vec<Vec<usize>> {
    let mut groups: Vec<(K, Vec<usize>)> = Vec::new();
    for (i, k) in keys.into_iter().enumerate() {
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, v)) => v.push(i),
            None => groups.push((k, vec![i])),
        }
    }
    groups.into_iter().map(|(_, v)| v).collect()
}

/// The backward outcome the pipeline reported for one layer: its report,
/// the decision behind it, and the per-core reports of the recorded run
/// when the layer was traced.
pub struct Expected<'a> {
    pub report: SimReport,
    pub decision: LayerDecision,
    pub core_reports: &'a [SimReport],
}

pub struct Probe<'t> {
    tracer: &'t mut Tracer,
    collectors: Vec<AnalyticCollector>,
    scratch: AnalyticScratch,
    ladder: LadderScratch,
    seen: BTreeSet<String>,
    pub mismatches: Vec<String>,
}

impl<'t> Probe<'t> {
    pub fn new(tracer: &'t mut Tracer) -> Self {
        Self {
            tracer,
            collectors: Vec::new(),
            scratch: AnalyticScratch::new(),
            ladder: LadderScratch::default(),
            seen: BTreeSet::new(),
            mismatches: Vec::new(),
        }
    }

    /// True the first time `key` is seen in this repetition.
    fn first(&mut self, key: String) -> bool {
        self.seen.insert(key)
    }

    fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// Probe every layer of the reports of one `simulate_model_with` call
    /// (one config) or one `simulate_model_ladder` call (several SPM rungs).
    pub fn model(
        &mut self,
        model: &Model,
        technique: Technique,
        configs: &[NpuConfig],
        reports: &[ModelReport],
    ) {
        for (li, layer) in model.layers.iter().enumerate() {
            let outcomes: Vec<&LayerOutcome> = reports.iter().map(|r| &r.layers[li]).collect();
            let span = self.tracer.enter(
                "probe",
                format!("{}|{}|{}", model.name, technique.label(), layer.name),
            );
            if configs.len() > 1 {
                self.ladder_forward(layer, configs, &outcomes);
                self.ladder_backward(layer, configs, technique, &outcomes);
            } else {
                let (config, outcome) = (&configs[0], outcomes[0]);
                self.forward(layer, config, outcome.forward);
                let expected = Expected {
                    report: outcome.backward,
                    decision: outcome.decision,
                    core_reports: &[],
                };
                self.backward(layer, config, technique, &expected);
            }
            self.tracer.exit(span);
        }
    }

    /// Probe one layer traced by `trace_model`: its selection, then the
    /// decided schedules on the cycle engine.
    pub fn traced_layer(
        &mut self,
        layer: &Layer,
        config: &NpuConfig,
        technique: Technique,
        expected: &Expected,
    ) {
        let span = self.tracer.enter("probe", layer.name.clone());
        self.backward(layer, config, technique, expected);
        self.engine(layer, config, expected);
        self.tracer.exit(span);
    }

    fn cleared(&mut self, n: usize) {
        while self.collectors.len() < n {
            self.collectors.push(AnalyticCollector::new());
        }
        for c in &mut self.collectors[..n] {
            c.clear();
        }
    }

    fn forward(&mut self, layer: &Layer, config: &NpuConfig, expected: SimReport) {
        let key = format!(
            "f|{:?}|{}|{}|{}",
            layer.gemm,
            layer.ifmap_density.to_bits(),
            config.name,
            config.spm_bytes
        );
        if !self.first(key) {
            return;
        }
        let (gemm, density) = (layer.gemm, layer.ifmap_density);
        let policy = TilePolicy::for_config(config);
        let tensors = layer_tensors();
        let (subs, parts) = if config.cores == 1 {
            (vec![gemm], vec![tensors])
        } else {
            plan_partition_forward(&mut id_alloc(), tensors, gemm, config.cores as u64)
        };
        self.cleared(subs.len());
        let span = self.tracer.enter("schedule", "forward_schedule");
        let mut ops = 0;
        for ((sub, t), c) in subs.iter().zip(&parts).zip(&mut self.collectors) {
            BackwardBuilder::new(*sub, policy, *t).register_grids(c);
            let mut sink = Counting { inner: c, ops: 0 };
            forward_schedule(*sub, policy, *t, density, &mut sink);
            ops += sink.ops;
        }
        self.tracer.exit(span);
        let accesses: u64 = self.collectors[..subs.len()]
            .iter()
            .map(|c| c.len() as u64)
            .sum();
        self.tracer.count("schedule.ops", ops);
        self.tracer.count("schedule.accesses", accesses);
        let got = if config.cores == 1 {
            let span = self.tracer.enter("analytic", "replay");
            let r = self.collectors[0]
                .replay(&Engine::new(config), &mut self.scratch)
                .report;
            self.tracer.exit(span);
            self.tracer.count("analytic.runs", 1);
            self.tracer.count("analytic.accesses", accesses);
            r
        } else {
            let span = self.tracer.enter("multicore", "replay_multicore");
            let r = replay_multicore(
                config,
                &self.collectors[..subs.len()],
                None,
                &mut self.scratch,
            )
            .combined();
            self.tracer.exit(span);
            self.tracer.count("multicore.runs", 1);
            self.tracer.count("multicore.accesses", accesses);
            r
        };
        if got != expected {
            self.mismatch(format!("forward {} on {}", layer.name, config.name));
        }
    }

    /// Build `spec`'s builders at `policy` (schedule layer).
    fn build(&mut self, spec: &Spec, layer: &Layer, policy: TilePolicy) -> Built {
        let (gemm, density) = (layer.gemm, layer.ifmap_density);
        let span = self.tracer.enter("schedule", "builders");
        let built = match spec.kind {
            Kind::Plain => Built {
                builders: vec![
                    BackwardBuilder::new(gemm, policy, layer_tensors()).with_ifmap_density(density)
                ],
                reduction: None,
            },
            Kind::Seq { scheme, parts } | Kind::Multi { scheme, parts } => {
                let plan = plan_partition_backward(
                    &mut id_alloc(),
                    layer_tensors(),
                    gemm,
                    density,
                    policy.dtype,
                    scheme,
                    parts,
                    layer.is_first,
                );
                Built {
                    builders: plan
                        .sub_gemms
                        .iter()
                        .zip(&plan.part_tensors)
                        .map(|(s, t)| {
                            BackwardBuilder::new(*s, policy, *t).with_ifmap_density(density)
                        })
                        .collect(),
                    reduction: plan.reduction,
                }
            }
        };
        self.tracer.exit(span);
        built
    }

    /// The closed-form bound of `spec` (bound layer).
    fn bound(
        &mut self,
        spec: &Spec,
        built: &Built,
        layer: &Layer,
        config: &NpuConfig,
        engine: &Engine,
        policy: TilePolicy,
    ) -> u64 {
        let (gemm, density, is_first) = (layer.gemm, layer.ifmap_density, layer.is_first);
        let order = spec.decision.order;
        let span = self.tracer.enter("bound", "candidate_bound");
        let b = match spec.kind {
            Kind::Plain => plain_candidate_bound(&built.builders[0], order, is_first, engine),
            Kind::Seq { scheme, parts } => sequential_candidate_bound(
                config,
                engine,
                layer_tensors(),
                gemm,
                density,
                policy,
                scheme,
                parts,
                order,
                is_first,
            ),
            Kind::Multi { scheme, parts } => multicore_candidate_bound(
                config,
                engine,
                layer_tensors(),
                gemm,
                density,
                policy,
                scheme,
                parts,
                order,
                is_first,
            ),
        };
        self.tracer.exit(span);
        self.tracer.count("bound.calls", 1);
        b
    }

    /// Emit `built` into collectors: one per core for multi-core
    /// candidates, else one concatenated stream. Returns the collector
    /// count and the accesses emitted.
    fn emit(&mut self, spec: &Spec, built: &Built, is_first: bool) -> (usize, u64) {
        let order = spec.decision.order;
        let n = if matches!(spec.kind, Kind::Multi { .. }) {
            built.builders.len()
        } else {
            1
        };
        self.cleared(n);
        let span = self.tracer.enter("schedule", "emit");
        let mut ops = 0;
        if n == 1 {
            let c = &mut self.collectors[0];
            for b in &built.builders {
                b.register_grids(c);
            }
            let mut sink = Counting { inner: c, ops: 0 };
            for b in &built.builders {
                b.emit(order, is_first, &mut sink);
            }
            ops += sink.ops;
        } else {
            for (b, c) in built.builders.iter().zip(&mut self.collectors) {
                b.register_grids(c);
                let mut sink = Counting { inner: c, ops: 0 };
                b.emit(order, is_first, &mut sink);
                ops += sink.ops;
            }
        }
        self.tracer.exit(span);
        let accesses = self.collectors[..n].iter().map(|c| c.len() as u64).sum();
        self.tracer.count("schedule.ops", ops);
        self.tracer.count("schedule.accesses", accesses);
        (n, accesses)
    }

    /// Emit and replay one candidate on one config, under `cutoff`.
    fn run(
        &mut self,
        spec: &Spec,
        built: &Built,
        layer: &Layer,
        config: &NpuConfig,
        engine: &Engine,
        cutoff: Option<u64>,
    ) -> Option<SimReport> {
        let (n, accesses) = self.emit(spec, built, layer.is_first);
        let (module, what) = match spec.kind {
            Kind::Plain => ("analytic", "replay_bounded"),
            Kind::Seq { .. } => ("multicore", "replay_sequential_partitions_bounded"),
            Kind::Multi { .. } => ("multicore", "replay_multicore_bounded"),
        };
        let span = self.tracer.enter(module, what);
        let got = match spec.kind {
            Kind::Plain => self.collectors[0]
                .replay_bounded(engine, &mut self.scratch, cutoff)
                .map(|a| a.report),
            Kind::Seq { .. } => replay_sequential_partitions_bounded(
                config,
                &self.collectors[0],
                built.reduction,
                &mut self.scratch,
                cutoff,
            )
            .map(|m| m.combined()),
            Kind::Multi { .. } => replay_multicore_bounded(
                config,
                &self.collectors[..n],
                built.reduction,
                &mut self.scratch,
                cutoff,
            )
            .map(|m| m.combined()),
        };
        self.tracer.exit(span);
        if module == "analytic" {
            self.tracer.count("analytic.runs", 1);
            self.tracer.count("analytic.accesses", accesses);
        } else {
            self.tracer.count("multicore.runs", 1);
            self.tracer.count("multicore.accesses", accesses);
        }
        if cutoff.is_some() {
            self.tracer.count("analytic.cut_replays", 1);
            if got.is_none() {
                self.tracer.count("analytic.aborted", 1);
            }
        }
        got
    }

    /// Find the reported decision among the candidates.
    fn winner(&mut self, specs: &[Spec], decision: LayerDecision, what: &str) -> Option<usize> {
        let w = specs.iter().position(|s| s.decision == decision);
        if w.is_none() {
            self.mismatch(format!("{what}: decision {decision:?} is not a candidate"));
        }
        w
    }

    fn backward(
        &mut self,
        layer: &Layer,
        config: &NpuConfig,
        technique: Technique,
        expected: &Expected,
    ) {
        let key = format!(
            "b|{:?}|{}|{}|{:?}|{}|{}",
            layer.gemm,
            layer.ifmap_density.to_bits(),
            layer.is_first,
            technique,
            config.name,
            config.spm_bytes
        );
        if !self.first(key) {
            return;
        }
        let what = format!("backward {} on {}", layer.name, config.name);
        let specs = specs(layer.gemm, config, technique);
        let Some(w) = self.winner(&specs, expected.decision, &what) else {
            return;
        };
        let policy = TilePolicy::for_config(config);
        let engine = Engine::new(config);
        let built: Vec<Built> = specs.iter().map(|s| self.build(s, layer, policy)).collect();
        let bounds: Vec<u64> = specs
            .iter()
            .zip(&built)
            .map(|(s, b)| self.bound(s, b, layer, config, &engine, policy))
            .collect();
        let best = self.run(&specs[w], &built[w], layer, config, &engine, None);
        if best != Some(expected.report) {
            self.mismatch(format!("{what}: winner replay differs"));
            return;
        }
        let cycles = expected.report.cycles;
        for (i, spec) in specs.iter().enumerate() {
            if i == w {
                continue;
            }
            self.tracer.count("bound.losers", 1);
            if bounds[i] > cycles {
                self.tracer.count("bound.prunable", 1);
                continue;
            }
            if let Some(r) = self.run(spec, &built[i], layer, config, &engine, Some(cycles)) {
                if (r.cycles, i) < (cycles, w) {
                    self.mismatch(format!("{what}: candidate {i} beats the reported winner"));
                }
            }
        }
    }

    /// Fingerprint of one rung's emission (probe bookkeeping, not a layer).
    fn fingerprint(&mut self, emit: impl FnOnce(&mut Fingerprint)) -> u64 {
        let span = self.tracer.enter("probe", "fingerprint");
        let mut f = Fingerprint(DefaultHasher::new());
        emit(&mut f);
        self.tracer.exit(span);
        f.0.finish()
    }

    /// One `replay_ladder` pass over the stream in collector 0.
    fn ladder_pass(
        &mut self,
        engine: &Engine,
        capacities: &[u64],
        cutoffs: &[Option<u64>],
    ) -> Vec<Option<SimReport>> {
        let span = self.tracer.enter("stackdist", "replay_ladder");
        let out = replay_ladder(
            &self.collectors[0],
            engine,
            capacities,
            cutoffs,
            &mut self.ladder,
        );
        self.tracer.exit(span);
        self.tracer.count("stackdist.passes", 1);
        self.tracer
            .count("stackdist.rungs", capacities.len() as u64);
        self.tracer
            .count("stackdist.accesses", self.collectors[0].len() as u64);
        out.into_iter().map(|r| r.map(|a| a.report)).collect()
    }

    fn ladder_forward(&mut self, layer: &Layer, configs: &[NpuConfig], expected: &[&LayerOutcome]) {
        let spm: Vec<u64> = configs.iter().map(|c| c.spm_bytes).collect();
        let key = format!(
            "lf|{:?}|{}|{}|{spm:?}",
            layer.gemm,
            layer.ifmap_density.to_bits(),
            configs[0].name
        );
        if !self.first(key) {
            return;
        }
        let (gemm, density) = (layer.gemm, layer.ifmap_density);
        let tensors = layer_tensors();
        let policies: Vec<TilePolicy> = configs.iter().map(TilePolicy::for_config).collect();
        let engines: Vec<Engine> = configs.iter().map(Engine::new).collect();
        let prints: Vec<u64> = policies
            .iter()
            .map(|&p| self.fingerprint(|f| forward_schedule(gemm, p, tensors, density, f)))
            .collect();
        for group in group_by(prints) {
            let lead = group[0];
            self.cleared(1);
            let span = self.tracer.enter("schedule", "forward_schedule");
            let c = &mut self.collectors[0];
            BackwardBuilder::new(gemm, policies[lead], tensors).register_grids(c);
            let mut sink = Counting { inner: c, ops: 0 };
            forward_schedule(gemm, policies[lead], tensors, density, &mut sink);
            let ops = sink.ops;
            self.tracer.exit(span);
            self.tracer.count("schedule.ops", ops);
            self.tracer
                .count("schedule.accesses", self.collectors[0].len() as u64);
            let caps: Vec<u64> = group
                .iter()
                .map(|&r| engines[r].residency_bytes())
                .collect();
            let got = self.ladder_pass(&engines[lead], &caps, &vec![None; group.len()]);
            for (&r, rep) in group.iter().zip(got) {
                if rep != Some(expected[r].forward) {
                    self.mismatch(format!("forward {} at rung {r}", layer.name));
                }
            }
        }
    }

    fn ladder_backward(
        &mut self,
        layer: &Layer,
        configs: &[NpuConfig],
        technique: Technique,
        expected: &[&LayerOutcome],
    ) {
        let spm: Vec<u64> = configs.iter().map(|c| c.spm_bytes).collect();
        let key = format!(
            "lb|{:?}|{}|{}|{technique:?}|{}|{spm:?}",
            layer.gemm,
            layer.ifmap_density.to_bits(),
            layer.is_first,
            configs[0].name
        );
        if !self.first(key) {
            return;
        }
        let what = format!("ladder backward {}", layer.name);
        let specs = specs(layer.gemm, &configs[0], technique);
        let mut winners = Vec::with_capacity(configs.len());
        for e in expected {
            match self.winner(&specs, e.decision, &what) {
                Some(w) => winners.push(w),
                None => return,
            }
        }
        let policies: Vec<TilePolicy> = configs.iter().map(TilePolicy::for_config).collect();
        let engines: Vec<Engine> = configs.iter().map(Engine::new).collect();
        let is_first = layer.is_first;
        for (si, spec) in specs.iter().enumerate() {
            // Rungs this candidate must be replayed at, with their cutoffs:
            // none where it won, the winner's cycles where its bound cannot
            // rule it out (minus the reduction its stream does not hold).
            let mut needed: Vec<(usize, Option<u64>, Built)> = Vec::new();
            for r in 0..configs.len() {
                let built = self.build(spec, layer, policies[r]);
                if winners[r] == si {
                    needed.push((r, None, built));
                    continue;
                }
                self.tracer.count("bound.losers", 1);
                let cycles = expected[r].backward.cycles;
                let bound = self.bound(spec, &built, layer, &configs[r], &engines[r], policies[r]);
                let cut = cycles.checked_sub(reduction_cycles(&configs[r], built.reduction));
                match cut {
                    Some(cut) if bound <= cycles => needed.push((r, Some(cut), built)),
                    _ => self.tracer.count("bound.prunable", 1),
                }
            }
            let order = spec.decision.order;
            let prints: Vec<u64> = needed
                .iter()
                .map(|(_, _, built)| {
                    self.fingerprint(|f| {
                        for b in &built.builders {
                            b.emit(order, is_first, f);
                        }
                    })
                })
                .collect();
            for group in group_by(prints) {
                let lead = &needed[group[0]];
                self.emit(spec, &lead.2, is_first);
                let caps: Vec<u64> = group
                    .iter()
                    .map(|&i| engines[needed[i].0].residency_bytes())
                    .collect();
                let cuts: Vec<Option<u64>> = group.iter().map(|&i| needed[i].1).collect();
                let got = self.ladder_pass(&engines[lead.0], &caps, &cuts);
                for (&i, raw) in group.iter().zip(got) {
                    let (r, cut, built) = &needed[i];
                    let rep = raw.map(|raw| match spec.kind {
                        Kind::Plain => raw,
                        _ => sequential_combined(&configs[*r], raw, built.reduction),
                    });
                    let want = expected[*r].backward;
                    if cut.is_none() {
                        if rep != Some(want) {
                            self.mismatch(format!("{what}: winner at rung {r} differs"));
                        }
                        continue;
                    }
                    self.tracer.count("stackdist.cut_replays", 1);
                    match rep {
                        None => self.tracer.count("stackdist.aborted", 1),
                        Some(rep) if (rep.cycles, si) < (want.cycles, winners[*r]) => self
                            .mismatch(format!(
                                "{what}: candidate {si} beats the winner at rung {r}"
                            )),
                        Some(_) => {}
                    }
                }
            }
        }
    }

    /// Rebuild the decided schedules of a traced layer as the observe
    /// module does and run each on the cycle engine.
    fn engine(&mut self, layer: &Layer, config: &NpuConfig, expected: &Expected) {
        let (gemm, density, is_first) = (layer.gemm, layer.ifmap_density, layer.is_first);
        let policy = TilePolicy::for_config(config);
        let order = expected.decision.order;
        let span = self.tracer.enter("schedule", "materialise");
        let mut proto = Schedule::new("trace");
        let tensors = LayerTensors::register(&mut proto, &layer.name);
        let partitioned = |scheme, parts| {
            partition_backward_ex(
                &proto, tensors, gemm, density, policy, scheme, parts, order, is_first,
            )
            .schedules
        };
        let schedules: Vec<Schedule> = match expected.decision.partition {
            None if config.cores == 1 => {
                let mut s = proto.fork(layer.name.as_str());
                BackwardBuilder::new(gemm, policy, tensors)
                    .with_ifmap_density(density)
                    .emit(order, is_first, &mut s);
                vec![s]
            }
            None => partitioned(PartitionScheme::WeightSharing, config.cores as u64),
            Some((scheme, parts)) if config.cores == 1 => {
                let segments = partitioned(scheme, parts);
                let mut combined = segments[0].clone();
                for s in &segments[1..] {
                    combined.append_compatible(s);
                }
                vec![combined]
            }
            Some((scheme, parts)) => partitioned(scheme, parts),
        };
        self.tracer.exit(span);
        let ops: u64 = schedules.iter().map(|s| s.len() as u64).sum();
        self.tracer.count("schedule.ops", ops);
        let engine = Engine::new(config);
        let mut got = Vec::with_capacity(schedules.len());
        for s in &schedules {
            let span = self.tracer.enter("engine", "run");
            let r = engine.run(s);
            self.tracer.exit(span);
            self.tracer.count("engine.runs", 1);
            self.tracer.count("engine.accesses", r.spm_accesses());
            got.push(r);
        }
        if got != expected.core_reports {
            self.mismatch(format!(
                "engine run of {} differs from its trace",
                layer.name
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igo_core::{simulate_model_ladder, simulate_model_with, SimOptions};
    use igo_workloads::{zoo, ModelId};

    fn one_layer_model(id: ModelId, config: &NpuConfig, layers: usize) -> Model {
        let mut m = zoo::model(id, config.default_batch());
        m.layers.truncate(layers);
        m
    }

    #[test]
    fn probe_reproduces_single_config_winners() {
        let options = SimOptions {
            workers: 1,
            ..SimOptions::optimized()
        };
        for config in [NpuConfig::small_edge(), NpuConfig::large_server(4)] {
            let model = one_layer_model(ModelId::Ncf, &config, 2);
            for technique in Technique::LADDER {
                let report = simulate_model_with(&model, &config, technique, &options);
                let mut tracer = Tracer::new();
                let mut probe = Probe::new(&mut tracer);
                probe.model(&model, technique, std::slice::from_ref(&config), &[report]);
                assert_eq!(probe.mismatches, Vec::<String>::new());
            }
        }
    }

    #[test]
    fn probe_reproduces_ladder_winners() {
        let options = SimOptions {
            workers: 1,
            ..SimOptions::optimized()
        };
        let base = NpuConfig::large_single_core();
        let rungs: Vec<NpuConfig> = [3u64, 12]
            .iter()
            .map(|mib| base.clone().with_spm_bytes(mib << 20))
            .collect();
        let model = one_layer_model(ModelId::Ncf, &base, 2);
        let reports = simulate_model_ladder(&model, &rungs, Technique::DataPartitioning, &options);
        let mut tracer = Tracer::new();
        let mut probe = Probe::new(&mut tracer);
        probe.model(&model, Technique::DataPartitioning, &rungs, &reports);
        assert_eq!(probe.mismatches, Vec::<String>::new());
        assert!(tracer.counter("stackdist.passes") > 0);
        assert_eq!(tracer.counter("analytic.runs"), 0);
    }

    #[test]
    fn a_wrong_expectation_is_a_mismatch() {
        let config = NpuConfig::small_edge();
        let model = one_layer_model(ModelId::Ncf, &config, 1);
        let options = SimOptions {
            workers: 1,
            ..SimOptions::optimized()
        };
        let mut report = simulate_model_with(&model, &config, Technique::Baseline, &options);
        report.layers[0].backward.cycles += 1;
        let mut tracer = Tracer::new();
        let mut probe = Probe::new(&mut tracer);
        probe.model(&model, Technique::Baseline, &[config], &[report]);
        assert_eq!(probe.mismatches.len(), 1);
    }
}
