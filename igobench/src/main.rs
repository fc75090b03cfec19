//! Benchmark driver for the igo simulator.
//!
//! ```text
//! igobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! igobench golden <workload>
//! ```
//!
//! The first form measures one workload. It runs cold repetitions, each in
//! a fresh child process (the simulator's memo cache is process-global,
//! and a command-line user always starts cold), until `--seconds` have
//! passed, and prints one JSON object as its last line. With `--trace 1`
//! it then runs traced repetitions and reports per-layer metrics instead
//! of end-to-end ones. The second form prints the golden digest of a
//! workload's points from the current simulator. See `README.md`.

mod metrics;
mod probe;
mod stats;
mod tracer;
mod workload;

use std::collections::BTreeMap;
use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use igo_core::{sim_cache_len, sim_cache_stats, sim_profile_cache_len, SimOptions, THREADS_ENV};
use igo_npu_sim::{analytic_run_count, engine_run_count};
use metrics::{Metric, END_TO_END, PER_LAYER};
use probe::{Expected, Probe};
use tracer::Tracer;
use workload::{call, mismatches, parse_golden, permutation, points, Output, Setup, Workload};

/// Timed batches of setups per repetition, and setups per batch. A setup
/// takes tens of microseconds, so one sample is mostly timer and cache
/// noise; `setup_s` is the median over batches of the mean setup time.
const SETUP_SAMPLES: usize = 41;
const SETUP_BATCH: u32 = 16;
/// Fewest untraced repetitions per run, however short `--seconds` is.
const MIN_REPS: u64 = 3;
/// Traced repetitions per `--trace 1` run; two task orders per run are
/// what the seed guard compares.
const TRACED_REPS: u64 = 2;

fn usage() -> ExitCode {
    eprintln!(
        "usage: igobench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       igobench golden <workload>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("golden") => match args.get(1).and_then(|w| Workload::parse(w)) {
            Some(w) if args.len() == 2 => golden(w),
            _ => usage(),
        },
        Some("child") => match parse_flags(&args[1..]) {
            Some(f) => child(&f),
            None => usage(),
        },
        _ => match parse_flags(&args) {
            Some(f) => drive(&f),
            None => usage(),
        },
    }
}

#[derive(Debug)]
struct Flags {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rep: u64,
}

fn parse_flags(args: &[String]) -> Option<Flags> {
    let mut flags = Flags {
        workload: Workload::ZooSweep,
        seed: 0,
        seconds: 10,
        trace: false,
        rep: 0,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => flags.seed = value.parse().ok()?,
            "--seconds" => flags.seconds = value.parse().ok()?,
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--rep" => flags.rep = value.parse().ok()?,
            _ => return None,
        }
    }
    flags.workload = workload?;
    Some(flags)
}

/// Print the golden digest of every point of `w`, sorted by key.
fn golden(w: Workload) -> ExitCode {
    let setup = Setup::new(w);
    let options = single_worker();
    let mut tracer = Tracer::disabled();
    let mut lines: Vec<String> = setup
        .tasks
        .iter()
        .flat_map(|task| {
            let out = call(&setup, task, &options, &mut tracer);
            points(&setup, task, &out)
        })
        .map(|p| p.to_line())
        .collect();
    lines.sort();
    println!(
        "# {}: key, cycles, read/write bytes per tensor class (X W Y dX dW dY P), extra",
        w.name()
    );
    for l in lines {
        println!("{l}");
    }
    ExitCode::SUCCESS
}

fn single_worker() -> SimOptions {
    SimOptions {
        workers: 1,
        ..SimOptions::optimized()
    }
}

/// Peak resident set of this process (`VmHWM`), in KiB.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Process-global simulator counters, sampled around the measured pass.
#[derive(Debug, Clone, Copy)]
struct Counters {
    analytic_runs: u64,
    engine_runs: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Counters {
    fn read() -> Self {
        let c = sim_cache_stats();
        Self {
            analytic_runs: analytic_run_count(),
            engine_runs: engine_run_count(),
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
        }
    }
}

/// One cold repetition. Prints `name value` lines on stdout, then `end`.
fn child(f: &Flags) -> ExitCode {
    let golden = match parse_golden(f.workload.golden()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("bad golden digest: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut setup_samples = Vec::with_capacity(SETUP_SAMPLES);
    let mut setup = None;
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            setup = Some(std::hint::black_box(Setup::new(f.workload)));
        }
        setup_samples.push(t.elapsed().as_secs_f64() / f64::from(SETUP_BATCH));
    }
    let setup = setup.expect("at least one setup sample");
    let order = permutation(&setup.tasks, f.seed, f.rep);
    let options = single_worker();
    let mut tracer = if f.trace {
        Tracer::new()
    } else {
        Tracer::disabled()
    };

    let before = Counters::read();
    let start = Instant::now();
    let outputs: Vec<(usize, Option<Output>)> = order
        .iter()
        .map(|&i| {
            let out = catch_unwind(AssertUnwindSafe(|| {
                call(&setup, &setup.tasks[i], &options, &mut tracer)
            }));
            (i, out.ok())
        })
        .collect();
    let wall = start.elapsed().as_secs_f64();
    let after = Counters::read();
    let Some(rss_kib) = peak_rss_kib() else {
        eprintln!("cannot read VmHWM from /proc/self/status");
        return ExitCode::FAILURE;
    };
    let (cache_entries, profile_entries) = (sim_cache_len(), sim_profile_cache_len());

    let mut failed = 0u64;
    let (mut cycles, mut dram) = (0u64, 0u64);
    for (i, out) in &outputs {
        let task = &setup.tasks[*i];
        let Some(out) = out else {
            failed += 1;
            continue;
        };
        let pts = points(&setup, task, out);
        let bad = mismatches(&pts, &golden);
        for p in &bad {
            eprintln!("golden mismatch: {}", p.to_line());
        }
        failed += !bad.is_empty() as u64;
        cycles += pts.iter().map(|p| p.cycles).sum::<u64>();
        dram += pts.iter().map(|p| p.dram_bytes()).sum::<u64>();
    }

    let mut out: Vec<(&str, f64)> = vec![
        ("failed", failed as f64),
        ("wall_s", wall),
        ("setup_s", stats::median(&setup_samples)),
        ("peak_rss_kib", rss_kib as f64),
        ("npu_cycles", cycles as f64),
        ("npu_dram_bytes", dram as f64),
        (
            "pipeline.analytic_runs",
            (after.analytic_runs - before.analytic_runs) as f64,
        ),
        (
            "pipeline.engine_runs",
            (after.engine_runs - before.engine_runs) as f64,
        ),
    ];

    if f.trace {
        let probe_start = Instant::now();
        let mut probe = Probe::new(&mut tracer);
        for (i, output) in &outputs {
            let task = &setup.tasks[*i];
            let model = &setup.models[task.model];
            let configs: Vec<_> = task
                .configs
                .iter()
                .map(|&c| setup.configs[c].clone())
                .collect();
            match output {
                Some(Output::Reports(reports)) => {
                    probe.model(model, task.technique, &configs, reports)
                }
                Some(Output::Traced { layers, .. }) => {
                    for (layer, traced) in model.layers.iter().zip(layers) {
                        let expected = Expected {
                            report: traced.report,
                            decision: traced.decision,
                            core_reports: &traced.core_reports,
                        };
                        probe.traced_layer(layer, &configs[0], task.technique, &expected);
                    }
                }
                None => {}
            }
        }
        for m in &probe.mismatches {
            eprintln!("probe mismatch: {m}");
        }
        let probe_failed = !probe.mismatches.is_empty();
        let probe_s = probe_start.elapsed().as_secs_f64();
        let (events, bytes) = outputs
            .iter()
            .filter_map(|(_, o)| match o {
                Some(Output::Traced { layers, bytes }) => {
                    Some((layers.iter().map(|l| l.events).sum::<u64>(), *bytes))
                }
                _ => None,
            })
            .fold((0, 0), |(e, b), (e2, b2)| (e + e2, b + b2));
        let layer = metrics::layer_values(
            &tracer,
            &metrics::PassCounts {
                build_s: stats::median(&setup_samples),
                wall_s: wall,
                probe_s,
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                evictions: after.evictions - before.evictions,
                entries: cache_entries as u64,
                profile_entries: profile_entries as u64,
                events,
                bytes,
            },
        );
        out.push(("probe_failed", probe_failed as u64 as f64));
        out.extend(layer);
        if let Err(e) = write_spans(&tracer, f) {
            eprintln!("cannot write spans: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut text = String::new();
    for (name, value) in out {
        text.push_str(&format!("{name} {value}\n"));
    }
    text.push_str("end\n");
    print!("{text}");
    ExitCode::SUCCESS
}

/// Write a traced repetition's spans next to the benchmark's sources.
fn write_spans(tracer: &Tracer, f: &Flags) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}-rep{}.jsonl",
        f.workload.name(),
        f.seed,
        f.rep
    ));
    tracer.write_jsonl(BufWriter::new(std::fs::File::create(path)?))
}

/// The values one child printed, or why it produced none.
fn run_child(f: &Flags, rep: u64, trace: bool) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        f.workload.name(),
        "--seed",
        &f.seed.to_string(),
        "--rep",
        &rep.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .env(THREADS_ENV, "1")
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut values = BTreeMap::new();
    let mut ended = false;
    for line in text.lines() {
        if line == "end" {
            ended = true;
            continue;
        }
        let (name, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("bad child line: {line}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("bad child value: {line}"))?;
        values.insert(name.to_string(), value);
    }
    if !ended {
        return Err("child output is truncated".into());
    }
    Ok(values)
}

/// Measure one workload and print the result object.
fn drive(f: &Flags) -> ExitCode {
    let calls = Setup::new(f.workload).tasks.len() as u64;
    let budget = Duration::from_secs(f.seconds);
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut problems: Vec<String> = Vec::new();
    let mut rep = 0u64;
    let mut record = |rep: u64, trace: bool, into: &mut Vec<BTreeMap<String, f64>>| {
        attempted += calls;
        match run_child(f, rep, trace) {
            Ok(v) => {
                failed += v.get("failed").copied().unwrap_or(calls as f64) as u64;
                if v.get("probe_failed").copied().unwrap_or(0.0) != 0.0 {
                    problems.push(format!(
                        "rep {rep}: the layer probe disagrees with the pipeline"
                    ));
                }
                into.push(v);
            }
            Err(e) => {
                failed += calls;
                problems.push(format!("rep {rep}: {e}"));
            }
        }
    };
    // Start another repetition only if one more of average length still
    // ends within the budget, so a run takes about `--seconds`.
    while rep < MIN_REPS || start.elapsed() + start.elapsed() / rep as u32 <= budget {
        record(rep, false, &mut untraced);
        rep += 1;
    }
    if f.trace {
        for _ in 0..TRACED_REPS {
            record(rep, true, &mut traced);
            rep += 1;
        }
    }

    let all: Vec<&BTreeMap<String, f64>> = untraced.iter().chain(&traced).collect();
    for name in ["npu_cycles", "npu_dram_bytes", "pipeline.analytic_runs"] {
        if let Err(e) = metrics::same_everywhere(&all, name) {
            problems.push(e);
        }
    }
    let traced_refs: Vec<&BTreeMap<String, f64>> = traced.iter().collect();
    if let Err(e) = metrics::same_everywhere(&traced_refs, "schedule.accesses") {
        problems.push(e);
    }

    let values: Result<Vec<(&Metric, f64)>, String> = if f.trace {
        metrics::per_layer(&untraced, &traced)
    } else {
        metrics::end_to_end(&untraced, failed, attempted)
    };
    let values = values.unwrap_or_else(|e| {
        problems.push(e);
        let catalogue = if f.trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        catalogue.iter().map(|m| (m, 0.0)).collect()
    });
    let walls: Vec<f64> = untraced
        .iter()
        .filter_map(|r| r.get("wall_s").copied())
        .collect();
    if !walls.is_empty() {
        eprintln!(
            "igobench: {} untraced repetitions, wall_s quartiles {:?} s (IQR {:.1}% of median)",
            walls.len(),
            stats::quartiles(&walls),
            100.0 * stats::iqr_share(&walls)
        );
    }
    for p in &problems {
        eprintln!("igobench: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    println!(
        "{}",
        metrics::result_json(correct, attempted, failed, &values)
    );
    ExitCode::SUCCESS
}
