//! The benchmark's workloads: their inputs, the simulator calls they make,
//! the points they report, and the golden digests those points must match.
//!
//! A workload is a fixed list of tasks, one simulator call each. The seed
//! only permutes the order in which the tasks run; which inputs are
//! simulated never depends on it, so every seed must reproduce the same
//! points bit for bit.

use std::collections::BTreeMap;
use std::io::Write;

use crate::tracer::Tracer;
use igo_core::{
    simulate_model_ladder, simulate_model_with, trace_model, LayerDecision, ModelReport,
    SimOptions, Technique, TraceExport, DEFAULT_REUSE_POINTS,
};
use igo_npu_sim::{NpuConfig, SimReport, Traffic};
use igo_tensor::{SplitMix64, TensorClass};
use igo_workloads::{zoo, Model, ModelId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Server suite × technique ladder × SPM {3, 6, 12, 24} MiB through
    /// `simulate_model_ladder`: the capacity-oblivious profiler's workload.
    ZooSweep,
    /// Edge suite on `edge` and server suite on `serverx4`, each technique
    /// of the ladder through `simulate_model_with`: bounded analytic and
    /// multi-core replays with pruning, no ladder profiling.
    TechniqueLadder,
    /// `trace_model` under +DataPartitioning on edge models plus the trace
    /// exporter: the only workload that runs the cycle engine.
    EdgeTrace,
}

/// SPM rungs of `zoo_sweep`, in MiB.
pub const ZOO_SPM_MIB: [u64; 4] = [3, 6, 12, 24];

/// Edge models traced by `edge_trace`.
pub const TRACE_MODELS: [ModelId; 3] = [ModelId::FasterRcnn, ModelId::Resnet50, ModelId::BertTiny];

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ZooSweep,
        Workload::TechniqueLadder,
        Workload::EdgeTrace,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZooSweep => "zoo_sweep",
            Workload::TechniqueLadder => "technique_ladder",
            Workload::EdgeTrace => "edge_trace",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The golden digest of every point this workload reports.
    pub fn golden(self) -> &'static str {
        match self {
            Workload::ZooSweep => include_str!("../golden/zoo_sweep.tsv"),
            Workload::TechniqueLadder => include_str!("../golden/technique_ladder.tsv"),
            Workload::EdgeTrace => include_str!("../golden/edge_trace.tsv"),
        }
    }
}

/// One simulator call: a model under a technique on one config, or on
/// every rung of an SPM ladder.
#[derive(Debug, Clone)]
pub struct Task {
    pub model: usize,
    pub technique: Technique,
    pub configs: Vec<usize>,
}

/// A workload's inputs: the models, configs and tasks it runs.
#[derive(Debug)]
pub struct Setup {
    pub workload: Workload,
    pub models: Vec<Model>,
    pub configs: Vec<NpuConfig>,
    pub tasks: Vec<Task>,
}

impl Setup {
    pub fn new(workload: Workload) -> Self {
        let models_on = |ids: &[ModelId], config: &NpuConfig| -> Vec<Model> {
            ids.iter()
                .map(|&id| zoo::model(id, config.default_batch()))
                .collect()
        };
        let ladder_tasks = |models: std::ops::Range<usize>, config: usize| -> Vec<Task> {
            models
                .flat_map(|model| {
                    Technique::LADDER.into_iter().map(move |technique| Task {
                        model,
                        technique,
                        configs: vec![config],
                    })
                })
                .collect()
        };
        let (models, configs, tasks) = match workload {
            Workload::ZooSweep => {
                let base = NpuConfig::large_single_core();
                let models = models_on(&zoo::SERVER_SUITE, &base);
                let configs: Vec<NpuConfig> = ZOO_SPM_MIB
                    .iter()
                    .map(|mib| base.clone().with_spm_bytes(mib << 20))
                    .collect();
                let mut tasks = ladder_tasks(0..models.len(), 0);
                for t in &mut tasks {
                    t.configs = (0..configs.len()).collect();
                }
                (models, configs, tasks)
            }
            Workload::TechniqueLadder => {
                let configs = vec![NpuConfig::small_edge(), NpuConfig::large_server(4)];
                let mut models = models_on(&zoo::EDGE_SUITE, &configs[0]);
                let edge = models.len();
                models.extend(models_on(&zoo::SERVER_SUITE, &configs[1]));
                let mut tasks = ladder_tasks(0..edge, 0);
                tasks.extend(ladder_tasks(edge..models.len(), 1));
                (models, configs, tasks)
            }
            Workload::EdgeTrace => {
                let configs = vec![NpuConfig::small_edge()];
                let models = models_on(&TRACE_MODELS, &configs[0]);
                let tasks = (0..models.len())
                    .map(|model| Task {
                        model,
                        technique: Technique::DataPartitioning,
                        configs: vec![0],
                    })
                    .collect();
                (models, configs, tasks)
            }
        };
        Self {
            workload,
            models,
            configs,
            tasks,
        }
    }
}

/// The task order of repetition `rep` under `seed`: the models' task
/// groups in a seeded order, each model's tasks in ladder order. The same
/// `(seed, rep)` gives the same order; reps differ, so every run checks
/// that results and work do not depend on it.
///
/// Techniques keep their order within a model because the order of a
/// model's techniques changes how much work `simulate_model_ladder` does:
/// the profile cache serves a candidate that an earlier technique replayed
/// in full, so the analytic run count moved by up to 3% across fully
/// shuffled orders of `zoo_sweep`.
pub fn permutation(tasks: &[Task], seed: u64, rep: u64) -> Vec<usize> {
    let mut models: Vec<usize> = tasks.iter().map(|t| t.model).collect();
    models.dedup();
    SplitMix64::new(seed ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15)).shuffle(&mut models);
    models
        .into_iter()
        .flat_map(|m| (0..tasks.len()).filter(move |&i| tasks[i].model == m))
        .collect()
}

/// Counts the bytes written to it and drops them.
#[derive(Debug, Default)]
pub struct ByteCount(pub u64);

impl Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What a traced layer's call left behind, without its event stream.
#[derive(Debug, Clone)]
pub struct TracedLayer {
    pub report: SimReport,
    pub decision: LayerDecision,
    pub core_reports: Vec<SimReport>,
    pub events: u64,
}

/// The result of one task's call.
#[derive(Debug)]
pub enum Output {
    /// One report per config of the task.
    Reports(Vec<ModelReport>),
    /// One entry per model layer, plus the bytes the exporter wrote.
    Traced {
        layers: Vec<TracedLayer>,
        bytes: u64,
    },
}

/// Run one task, with a span around each call into the simulator.
pub fn call(setup: &Setup, task: &Task, options: &SimOptions, tracer: &mut Tracer) -> Output {
    let model = &setup.models[task.model];
    let technique = task.technique;
    let what = || format!("{}|{}", model.name, technique.label());
    match setup.workload {
        Workload::ZooSweep => {
            let rungs: Vec<NpuConfig> = task
                .configs
                .iter()
                .map(|&c| setup.configs[c].clone())
                .collect();
            let span = tracer.enter("pipeline", what());
            let reports = simulate_model_ladder(model, &rungs, technique, options);
            tracer.exit(span);
            Output::Reports(reports)
        }
        Workload::TechniqueLadder => {
            let config = &setup.configs[task.configs[0]];
            let span = tracer.enter("pipeline", what());
            let report = simulate_model_with(model, config, technique, options);
            tracer.exit(span);
            Output::Reports(vec![report])
        }
        Workload::EdgeTrace => {
            let config = &setup.configs[task.configs[0]];
            let span = tracer.enter("observe", what());
            let traces = trace_model(model, config, technique, options);
            tracer.exit(span);
            let span = tracer.enter("report_io", what());
            let mut export = TraceExport::new(DEFAULT_REUSE_POINTS);
            for t in &traces {
                export.add_layer(t);
            }
            let artifacts = export.finish();
            let mut sink = ByteCount::default();
            for text in [
                &artifacts.trace_json,
                &artifacts.metrics_csv,
                &artifacts.dy_reuse_csv,
                &artifacts.dy_tiles_csv,
            ] {
                sink.write_all(text.as_bytes())
                    .expect("a byte counter cannot fail");
            }
            tracer.exit(span);
            let layers = traces
                .iter()
                .map(|t| TracedLayer {
                    report: t.report,
                    decision: t.decision,
                    core_reports: t.cores.iter().map(|c| c.report).collect(),
                    events: t.event_count() as u64,
                })
                .collect();
            Output::Traced {
                layers,
                bytes: sink.0,
            }
        }
    }
}

/// One reported point: simulated cycles and per-class DRAM traffic, plus
/// one workload-specific exact count (trace events or exported bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Point {
    pub key: String,
    pub cycles: u64,
    /// Read and write bytes per tensor class, in `TensorClass::ALL` order.
    pub traffic: [u64; 2 * TensorClass::ALL.len()],
    pub extra: u64,
}

impl Point {
    fn new(key: String, report: &SimReport, extra: u64) -> Self {
        Self::with_traffic(key, report.cycles, &report.traffic, extra)
    }

    fn with_traffic(key: String, cycles: u64, traffic: &Traffic, extra: u64) -> Self {
        let mut t = [0; 2 * TensorClass::ALL.len()];
        for (i, class) in TensorClass::ALL.into_iter().enumerate() {
            t[2 * i] = traffic.read(class);
            t[2 * i + 1] = traffic.write(class);
        }
        Self {
            key,
            cycles,
            traffic: t,
            extra,
        }
    }

    pub fn dram_bytes(&self) -> u64 {
        self.traffic.iter().sum()
    }

    /// One tab-separated golden line.
    pub fn to_line(&self) -> String {
        let mut fields = vec![self.key.clone(), self.cycles.to_string()];
        fields.extend(self.traffic.iter().map(u64::to_string));
        fields.push(self.extra.to_string());
        fields.join("\t")
    }

    pub fn from_line(line: &str) -> Result<Self, String> {
        let fields: Vec<&str> = line.split('\t').collect();
        let n = 2 * TensorClass::ALL.len();
        if fields.len() != n + 3 {
            return Err(format!("expected {} fields: {line}", n + 3));
        }
        let num = |s: &str| s.parse::<u64>().map_err(|e| format!("{e}: {line}"));
        let mut traffic = [0; 2 * TensorClass::ALL.len()];
        for (t, f) in traffic.iter_mut().zip(&fields[2..2 + n]) {
            *t = num(f)?;
        }
        Ok(Self {
            key: fields[0].to_string(),
            cycles: num(fields[1])?,
            traffic,
            extra: num(fields[n + 2])?,
        })
    }
}

/// The points one task's output reports. An output with fewer or more
/// entries than the task asked for adds a point no digest holds, so the
/// call fails its check.
pub fn points(setup: &Setup, task: &Task, output: &Output) -> Vec<Point> {
    let model = &setup.models[task.model];
    let technique = task.technique.label();
    let (got, want) = match output {
        Output::Reports(reports) => (reports.len(), task.configs.len()),
        Output::Traced { layers, .. } => (layers.len(), model.layers.len()),
    };
    let wrong_length = (got != want).then(|| {
        let key = format!("{}|{technique}|{got} of {want} results", model.name);
        Point::with_traffic(key, 0, &Traffic::new(), 0)
    });
    let mut out: Vec<Point> = match output {
        Output::Reports(reports) => reports
            .iter()
            .zip(&task.configs)
            .map(|(r, &c)| {
                let config = &setup.configs[c];
                let key = format!(
                    "{}|{technique}|{}|spm{}",
                    model.name,
                    config.name,
                    config.spm_bytes >> 20
                );
                Point::with_traffic(key, r.total_cycles(), &r.total_traffic(), 0)
            })
            .collect(),
        Output::Traced { layers, bytes } => {
            let mut out: Vec<Point> = model
                .layers
                .iter()
                .zip(layers)
                .map(|(l, t)| Point::new(format!("{}|{}", model.name, l.name), &t.report, t.events))
                .collect();
            out.push(Point::with_traffic(
                format!("{}|export", model.name),
                0,
                &Traffic::new(),
                *bytes,
            ));
            out
        }
    };
    out.extend(wrong_length);
    out
}

/// Parse a golden digest into points by key.
pub fn parse_golden(text: &str) -> Result<BTreeMap<String, Point>, String> {
    let mut out = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let p = Point::from_line(line)?;
        if out.insert(p.key.clone(), p).is_some() {
            return Err(format!("duplicate golden key in: {line}"));
        }
    }
    Ok(out)
}

/// The points that differ from, or are missing in, the golden digest.
pub fn mismatches<'a>(points: &'a [Point], golden: &BTreeMap<String, Point>) -> Vec<&'a Point> {
    points
        .iter()
        .filter(|p| golden.get(&p.key) != Some(*p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(key: &str, cycles: u64) -> Point {
        let mut traffic = Traffic::new();
        traffic.add_read(TensorClass::OutGrad, 4096);
        traffic.add_write(TensorClass::WGrad, 512);
        Point::with_traffic(key.to_string(), cycles, &traffic, 7)
    }

    #[test]
    fn golden_lines_round_trip() {
        let p = point("bert|+DataPartitioning|edge|spm1", 123);
        assert_eq!(Point::from_line(&p.to_line()), Ok(p.clone()));
        assert_eq!(p.dram_bytes(), 4608);
        assert!(Point::from_line("a\t1\t2").is_err());
        assert!(Point::from_line(&p.to_line().replace("123", "x")).is_err());
    }

    #[test]
    fn comparison_flags_changed_missing_and_extra_points() {
        let golden = parse_golden(&format!(
            "# comment\n{}\n{}\n",
            point("a", 1).to_line(),
            point("b", 2).to_line()
        ))
        .unwrap();
        let ok = [point("a", 1), point("b", 2)];
        assert!(mismatches(&ok, &golden).is_empty());
        let bad = [point("a", 1), point("b", 3), point("c", 1)];
        let keys: Vec<&str> = mismatches(&bad, &golden)
            .iter()
            .map(|p| p.key.as_str())
            .collect();
        assert_eq!(keys, ["b", "c"]);
        let dup = format!("{}\n{}\n", point("a", 1).to_line(), point("a", 1).to_line());
        assert!(parse_golden(&dup).is_err());
    }

    #[test]
    fn a_short_output_fails_its_check() {
        let setup = Setup::new(Workload::ZooSweep);
        let task = &setup.tasks[0];
        let golden = parse_golden(Workload::ZooSweep.golden()).unwrap();
        let model = &setup.models[task.model];
        let options = SimOptions {
            workers: 1,
            ..SimOptions::optimized()
        };
        let mut small = model.clone();
        small.layers.truncate(1);
        let rungs: Vec<NpuConfig> = task
            .configs
            .iter()
            .map(|&c| setup.configs[c].clone())
            .collect();
        let mut reports = simulate_model_ladder(&small, &rungs, task.technique, &options);
        reports.pop();
        let pts = points(&setup, task, &Output::Reports(reports));
        assert_eq!(pts.len(), task.configs.len());
        assert!(mismatches(&pts, &golden)
            .iter()
            .any(|p| p.key.ends_with("3 of 4 results")));
    }

    #[test]
    fn every_golden_digest_parses_and_covers_its_tasks() {
        for w in Workload::ALL {
            let golden = parse_golden(w.golden()).unwrap();
            let setup = Setup::new(w);
            let per_task = match w {
                Workload::ZooSweep => ZOO_SPM_MIB.len(),
                Workload::TechniqueLadder => 1,
                Workload::EdgeTrace => 0,
            };
            if per_task > 0 {
                assert_eq!(golden.len(), setup.tasks.len() * per_task, "{}", w.name());
            } else {
                let layers: usize = setup.models.iter().map(|m| m.layers.len() + 1).sum();
                assert_eq!(golden.len(), layers, "{}", w.name());
            }
        }
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let tasks = Setup::new(Workload::TechniqueLadder).tasks;
        let n = tasks.len();
        let a = permutation(&tasks, 7, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        assert_eq!(a, permutation(&tasks, 7, 0));
        assert_ne!(a, permutation(&tasks, 7, 1));
        assert_ne!(a, permutation(&tasks, 8, 0));
        // A model's tasks stay together, in ladder order.
        for run in a.chunks(Technique::LADDER.len()) {
            assert!(run.iter().all(|&i| tasks[i].model == tasks[run[0]].model));
            assert!(run.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn seeds_permute_tasks_but_never_change_them() {
        for w in Workload::ALL {
            let a = Setup::new(w);
            let b = Setup::new(w);
            assert_eq!(format!("{:?}", a.tasks), format!("{:?}", b.tasks));
            assert_eq!(a.models, b.models);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
