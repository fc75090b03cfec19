//! `igo-sim` — command-line front end for the IGO NPU training simulator.
//!
//! ```text
//! igo-sim models                              list the Table-4 zoo
//! igo-sim ladder  <model> <config>            technique ladder for one model
//! igo-sim layer   <M> <K> <N> <config>        per-order comparison of one layer
//! igo-sim sweep   <model>                     bandwidth sweep on the large NPU
//! igo-sim sweep   <model|zoo> --spm <ladder> [--techniques <list>]
//!                 [--config C] [--out DIR]    SPM × technique × model grid
//! igo-sim audit   [--seeds N] [--seed S]      differential fuzz-audit
//! igo-sim trace   <model|MxKxN> <config> [--out DIR] [--technique T]
//! ```
//!
//! `<config>` is `edge`, `server`, or `serverxN` (N cores, 1..=8).
//! `<model>` is a Table-4 abbreviation (`res`, `goo`, `mob`, `rcnn`, `ncf`,
//! `dlrm`, `yolo`, `yolo-tiny`, `bert`, `bert-tiny`, `t5`, `t5-small`) or a
//! full model name (`resnet50`, `bert-large`, ...).
//!
//! The grid form of `sweep` fans a design-space grid — SPM capacity rungs
//! (`--spm`, MiB) × techniques × models (`zoo` sweeps the whole suite of
//! the base config) — across the worker pool, one task per grid point,
//! with the pipeline's analytic replay evaluating each point and the memo
//! cache sharing candidate replays between techniques. With `--out` it
//! writes `sweep.csv` and `summary.json`; otherwise both go to stdout.
//!
//! The global `--jobs N` flag sizes the worker pool of the command's
//! simulation context (without it, `IGO_SIM_THREADS` or one worker per
//! hardware thread); results are identical for every worker count. Either
//! value above `MAX_WORKERS` (256) exits 2 before any thread starts.
//!
//! `trace` replays the decided backward executions with the cycle-level
//! recorder attached and writes `trace.json` (Chrome trace-event JSON,
//! loadable in Perfetto), `metrics.csv`, `dy_reuse.csv` and
//! `dy_tiles.csv` into `--out` (default `igo-trace`); see
//! `docs/observability.md`.
//!
//! `audit` fuzzes the scheduling pipeline against a one-worker reference
//! context, a selection oracle and the engine's conservation invariants, printing a JSON summary;
//! on failure it exits non-zero and lists the reproducer seeds (rerun one
//! with `igo-sim audit --seed <seed> --seeds 1`).
//!
//! Each command runs on one private `SimContext` whose memo it alone
//! fills. The global `--timing` flag appends one JSON line to stderr with
//! the command's wall-clock time, engine-run count, that memo's hit rate
//! and the process's peak resident set, `peak_rss_mib` (Linux only; see
//! `igo_bench::wallclock::Timing`); `audit` runs every case on
//! contexts of its own, so its line counts no memo lookups.

use igo_bench::wallclock::{measure, peak_rss_mib, Timing};
use igo_core::{
    parallel_map_workers, replay_extent, run_audit, select_order, threads_override, Artifact,
    LayerTrace, SimContext, SimOptions, Technique, TraceExport, DEFAULT_REUSE_POINTS, MAX_WORKERS,
    THREADS_ENV,
};
use igo_npu_sim::{analytic_run_count, engine_run_count, NpuConfig, REPLAY_ID_LIMIT};
use igo_tensor::GemmShape;
use igo_workloads::{zoo, Model, ModelId};
use std::process::ExitCode;

mod parse;

use parse::{parse_config, parse_model};

/// Refuse a layer whose replay would overflow the simulator's `u32` tile-id
/// or stream-position space, judged in closed form before anything is
/// emitted: prints one line and yields exit code 2.
fn too_large(gemm: GemmShape, config: &NpuConfig) -> Option<ExitCode> {
    let extent = replay_extent(gemm, config);
    if extent < REPLAY_ID_LIMIT {
        return None;
    }
    eprintln!(
        "layer {gemm} is too large to simulate on {}: up to {extent} accesses per replay (limit {REPLAY_ID_LIMIT})",
        config.name
    );
    Some(ExitCode::from(2))
}

/// Create the output directory `--out` names before anything is
/// simulated: one line and exit code 2 when it cannot be created (a path
/// through a regular file, say), instead of failing after the run.
fn create_out_dir(dir: &std::path::Path) -> Option<ExitCode> {
    let e = std::fs::create_dir_all(dir).err()?;
    eprintln!("cannot create output directory '{}': {e}", dir.display());
    Some(ExitCode::from(2))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  igo-sim [--timing] [--jobs N] models\n  igo-sim [--timing] [--jobs N] ladder <model> <edge|server|serverxN>\n  igo-sim [--timing] [--jobs N] layer <M> <K> <N> <edge|server>\n  igo-sim [--timing] [--jobs N] sweep <model>\n  igo-sim [--timing] [--jobs N] sweep <model|zoo> --spm <mib,..> [--techniques <t,..>] [--config <edge|server|serverxN>] [--out DIR]\n  igo-sim [--timing] [--jobs N] audit [--seeds N] [--seed S]\n  igo-sim [--timing] [--jobs N] trace <model|MxKxN> <edge|server|serverxN> [--out DIR] [--technique T]"
    );
    ExitCode::from(2)
}

/// Strip the global `--jobs N` flag and return the worker count it sets:
/// `0` without the flag (the `IGO_SIM_THREADS` or hardware default),
/// `None` on a malformed value or one above [`MAX_WORKERS`], including an
/// `IGO_SIM_THREADS` the missing flag would fall back to. Nothing has
/// started a thread yet.
fn take_jobs_flag(args: &mut Vec<String>) -> Option<usize> {
    let Some(i) = args.iter().position(|a| a == "--jobs") else {
        if threads_override().is_some_and(|n| n > MAX_WORKERS) {
            eprintln!("{THREADS_ENV} must be at most {MAX_WORKERS}");
            return None;
        }
        return Some(0);
    };
    match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if (1..=MAX_WORKERS).contains(&n) => {
            args.drain(i..=i + 1);
            Some(n)
        }
        _ => {
            eprintln!("--jobs requires an integer from 1 to {MAX_WORKERS}");
            None
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let timing = args.iter().any(|a| a == "--timing");
    args.retain(|a| a != "--timing");
    let Some(workers) = take_jobs_flag(&mut args) else {
        return usage();
    };
    let context = SimContext::new(SimOptions { workers });
    let label = args.join(" ");
    let (code, wall) = measure(|| {
        // `audit`, `trace` and `sweep` parse their own flags; every other
        // command takes no flags beyond the already-consumed globals, so
        // any remaining `--` argument is an explicit error instead of
        // silently becoming a positional argument.
        if args.first().map(String::as_str) == Some("audit") {
            return cmd_audit(&args[1..]);
        }
        if args.first().map(String::as_str) == Some("trace") {
            return cmd_trace(&context, &args[1..]);
        }
        if args.first().map(String::as_str) == Some("sweep") {
            return cmd_sweep(&context, &args[1..]);
        }
        if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
            eprintln!("unknown flag '{flag}'");
            return usage();
        }
        match args.first().map(String::as_str) {
            Some("models") if args.len() == 1 => cmd_models(),
            Some("ladder") if args.len() == 3 => cmd_ladder(&context, &args[1], &args[2]),
            Some("layer") if args.len() == 5 => cmd_layer(&context, &args[1..]),
            _ => usage(),
        }
    });
    if timing {
        let cache = context.cache_stats();
        let t = Timing {
            label,
            wall_seconds: wall,
            layers: cache.hits + cache.misses,
            // Nothing ran in this process before the command.
            engine_runs: engine_run_count(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            peak_rss_mib: peak_rss_mib(),
        };
        eprintln!("{}", t.to_json());
    }
    code
}

/// Differential fuzz-audit: `N` seeded cases starting at base seed `S`
/// (case `i` uses seed `S + i`). Prints the JSON summary; exits non-zero
/// when any invariant is violated, with the reproducer seeds in the JSON.
fn cmd_audit(args: &[String]) -> ExitCode {
    let mut seeds: u64 = 100;
    let mut base: u64 = 1;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => seeds = n,
                _ => {
                    eprintln!("--seeds requires a positive integer");
                    return usage();
                }
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => base = s,
                None => {
                    eprintln!("--seed requires an unsigned integer");
                    return usage();
                }
            },
            other => {
                eprintln!("unknown audit argument '{other}'");
                return usage();
            }
        }
    }
    let summary = run_audit(seeds, base);
    println!("{}", summary.to_json());
    if summary.passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "audit FAILED: {} violation(s); rerun a failing case with: igo-sim audit --seed <seed> --seeds 1",
            summary.violations.len()
        );
        ExitCode::FAILURE
    }
}

/// Cycle-level trace of a model's (or one ad-hoc layer's) backward pass:
/// replays the decided executions with the event recorder attached and
/// writes the Chrome trace JSON plus the three metrics CSVs to `--out`.
fn cmd_trace(context: &SimContext, args: &[String]) -> ExitCode {
    let mut out_dir = String::from("igo-trace");
    let mut technique = Technique::Rearrangement;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(dir) => out_dir = dir.clone(),
                None => {
                    eprintln!("--out requires a directory");
                    return usage();
                }
            },
            "--technique" => match it.next().and_then(|v| parse::parse_technique(v)) {
                Some(t) => technique = t,
                None => {
                    eprintln!(
                        "--technique requires one of: baseline, ideal-dy-reuse, interleaving, rearrangement, rearrangement-oracle, data-partitioning"
                    );
                    return usage();
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown trace flag '{other}'");
                return usage();
            }
            _ => positional.push(arg),
        }
    }
    let [target, config_arg] = positional[..] else {
        eprintln!("trace takes exactly two positional arguments: <model|MxKxN> <config>");
        return usage();
    };
    let Some(config) = parse_config(config_arg) else {
        eprintln!("unknown config '{config_arg}'");
        return usage();
    };

    let model = parse_model(target).map(|id| zoo::model(id, config.default_batch()));
    let gemm = match (&model, parse::parse_mkn(target)) {
        (Some(_), _) => None,
        (None, Some(gemm)) => {
            if let Some(code) = too_large(gemm, &config) {
                return code;
            }
            Some(gemm)
        }
        (None, None) => {
            eprintln!("'{target}' is neither a known model nor an MxKxN layer shape");
            return usage();
        }
    };
    let dir = std::path::Path::new(&out_dir);
    if let Some(code) = create_out_dir(dir) {
        return code;
    }

    // Each layer's trace keeps its metrics and capped tracks (the
    // recorder never stores the raw event stream); the exporter borrows
    // them and streams every artifact straight into its file.
    let traces = if let Some(model) = &model {
        println!(
            "tracing {} on {} under {}",
            model.name,
            config.name,
            technique.label()
        );
        model
            .layers
            .iter()
            .map(|layer| {
                context.trace_layer(
                    &layer.name,
                    layer.gemm,
                    layer.ifmap_density,
                    &config,
                    technique,
                    layer.is_first,
                )
            })
            .collect()
    } else if let Some(gemm) = gemm {
        println!(
            "tracing layer {gemm} on {} under {}",
            config.name,
            technique.label()
        );
        vec![context.trace_layer(target, gemm, 1.0, &config, technique, false)]
    } else {
        Vec::new()
    };
    let layers = traces.len();
    let events: usize = traces.iter().map(LayerTrace::event_count).sum();

    let mut export = TraceExport::new(DEFAULT_REUSE_POINTS);
    for trace in &traces {
        export.add_layer(trace);
    }
    for artifact in Artifact::ALL {
        let path = dir.join(artifact.file_name());
        let written = std::fs::File::create(&path).and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            export.write(artifact, &mut out)?;
            std::io::Write::flush(&mut out)
        });
        if let Err(e) = written {
            eprintln!("cannot write '{}': {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{layers} layer(s), {events} events -> {}/{{trace.json,metrics.csv,dy_reuse.csv,dy_tiles.csv}}",
        out_dir
    );
    println!("open trace.json in Perfetto (ui.perfetto.dev) or chrome://tracing");
    ExitCode::SUCCESS
}

fn cmd_models() -> ExitCode {
    println!(
        "{:<12} {:<14} {:>10} {:>8} {:>8}",
        "abbr", "name", "params", "layers", "batch-dep"
    );
    for (abbr, id) in parse::MODEL_TABLE {
        let m = zoo::model(*id, 8);
        println!(
            "{:<12} {:<14} {:>9.1}M {:>8} {:>8}",
            abbr,
            m.name,
            m.params() as f64 / 1e6,
            m.total_layers(),
            "yes"
        );
    }
    ExitCode::SUCCESS
}

fn cmd_ladder(context: &SimContext, model_arg: &str, config_arg: &str) -> ExitCode {
    let Some(config) = parse_config(config_arg) else {
        eprintln!("unknown config '{config_arg}'");
        return usage();
    };
    let Some(id) = parse_model(model_arg) else {
        eprintln!("unknown model '{model_arg}'");
        return usage();
    };
    let model = zoo::model(id, config.default_batch());
    println!("{model} on {config}");
    let base = context.model(&model, &config, Technique::Baseline);
    println!(
        "{:<22} {:>14} cycles ({:.2} ms)",
        "Baseline",
        base.total_cycles(),
        base.total_cycles() as f64 / config.freq_hz * 1e3
    );
    for technique in [
        Technique::Interleaving,
        Technique::Rearrangement,
        Technique::DataPartitioning,
    ] {
        let r = context.model(&model, &config, technique);
        println!(
            "{:<22} {:>14} cycles ({:+.1}%)",
            technique.label(),
            r.total_cycles(),
            (1.0 - r.normalized_to(&base)) * 100.0
        );
    }
    ExitCode::SUCCESS
}

fn cmd_layer(context: &SimContext, args: &[String]) -> ExitCode {
    let dims: Vec<u64> = args[..3].iter().filter_map(|a| a.parse().ok()).collect();
    let [m, k, n] = dims[..] else {
        eprintln!("M K N must be positive integers");
        return usage();
    };
    if m == 0 || k == 0 || n == 0 {
        eprintln!("M K N must be positive integers");
        return usage();
    }
    let Some(config) = parse_config(&args[3]) else {
        eprintln!("unknown config '{}'", args[3]);
        return usage();
    };
    let gemm = GemmShape::new(m, k, n);
    if let Some(code) = too_large(gemm, &config) {
        return code;
    }
    println!("layer {gemm} on {}", config.name);
    println!("algorithm 1 picks: {}", select_order(gemm));
    for (label, technique) in [
        ("baseline", Technique::Baseline),
        ("ideal dY reuse", Technique::IdealDyReuse),
        ("interleaving", Technique::Interleaving),
        ("rearrangement", Technique::Rearrangement),
        ("rearrangement(oracle)", Technique::RearrangementOracle),
        ("data partitioning", Technique::DataPartitioning),
    ] {
        let (r, d) = context.backward(gemm, 1.0, &config, technique, false);
        let decided = match technique {
            Technique::Baseline | Technique::IdealDyReuse => String::new(),
            _ => format!(
                "  [{:?}{}]",
                d.order,
                d.partition
                    .map(|(s, p)| format!(", {s} x{p}"))
                    .unwrap_or_default()
            ),
        };
        println!(
            "{:<22} {:>12} cycles, {:>6} MiB DRAM{}",
            label,
            r.cycles,
            r.traffic.total() >> 20,
            decided
        );
    }
    ExitCode::SUCCESS
}

/// `sweep` front end. The legacy one-positional form (`sweep <model>`) is
/// the Figure-15 bandwidth sweep; `zoo` or any flag selects the
/// design-space grid sweep.
fn cmd_sweep(context: &SimContext, args: &[String]) -> ExitCode {
    if let [only] = args {
        if only != "zoo" && !only.starts_with("--") {
            return sweep_bandwidth(context, only);
        }
    }
    sweep_grid(context, args)
}

/// The original bandwidth sweep (Figure 15): baseline vs data
/// partitioning on the large NPU at 1×/0.5×/0.25× DRAM bandwidth.
fn sweep_bandwidth(context: &SimContext, model_arg: &str) -> ExitCode {
    let Some(id) = parse_model(model_arg) else {
        eprintln!("unknown model '{model_arg}'");
        return usage();
    };
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "bandwidth", "baseline", "ours", "improvement"
    );
    for scale in [1.0f64, 0.5, 0.25] {
        let config = NpuConfig::large_single_core().with_bandwidth_scale(scale);
        let model: Model = zoo::model(id, config.default_batch());
        let base = context.model(&model, &config, Technique::Baseline);
        let ours = context.model(&model, &config, Technique::DataPartitioning);
        println!(
            "{:<10} {:>12} {:>12} {:>11.1}%",
            format!("{scale}x"),
            base.total_cycles(),
            ours.total_cycles(),
            (1.0 - ours.normalized_to(&base)) * 100.0
        );
    }
    ExitCode::SUCCESS
}

/// The zoo suite that belongs to a base config (edge configs sweep the
/// edge suite, server configs the server suite).
fn suite_for(config: &NpuConfig) -> &'static [ModelId] {
    if config.pe.rows >= 100 {
        &zoo::SERVER_SUITE
    } else {
        &zoo::EDGE_SUITE
    }
}

/// Design-space grid sweep: SPM-capacity rungs × techniques × models,
/// one task per grid point on a pool of the context's
/// [`SimOptions::workers`], evaluated by the pipeline's analytic replay
/// and emitted as `sweep.csv` plus a JSON summary to `--out DIR` or
/// stdout. Row order, formats and results are identical for every worker
/// count.
fn sweep_grid(context: &SimContext, args: &[String]) -> ExitCode {
    let mut config = NpuConfig::large_single_core();
    let mut spm_ladder: Option<Vec<u64>> = None;
    let mut techniques: Vec<Technique> = Technique::LADDER.to_vec();
    let mut out_dir: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--config" => match it.next().and_then(|v| parse_config(v)) {
                Some(c) => config = c,
                None => {
                    eprintln!("--config requires edge, server, or serverxN");
                    return usage();
                }
            },
            "--spm" => match it.next().and_then(|v| parse::parse_spm_ladder(v)) {
                Some(l) => spm_ladder = Some(l),
                None => {
                    eprintln!(
                        "--spm requires a comma-separated list of positive MiB values below 2^44"
                    );
                    return usage();
                }
            },
            "--techniques" => match it.next().and_then(|v| parse::parse_techniques(v)) {
                Some(l) => techniques = l,
                None => {
                    eprintln!("--techniques requires a comma-separated list of technique names");
                    return usage();
                }
            },
            "--out" => match it.next() {
                Some(dir) => out_dir = Some(dir.clone()),
                None => {
                    eprintln!("--out requires a directory");
                    return usage();
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown sweep flag '{other}'");
                return usage();
            }
            _ => positional.push(arg),
        }
    }
    let [target] = positional[..] else {
        eprintln!("sweep takes exactly one positional argument: <model|zoo>");
        return usage();
    };
    let models: Vec<Model> = if target == "zoo" {
        suite_for(&config)
            .iter()
            .map(|&id| zoo::model(id, config.default_batch()))
            .collect()
    } else if let Some(id) = parse_model(target) {
        vec![zoo::model(id, config.default_batch())]
    } else {
        eprintln!("'{target}' is neither a known model nor 'zoo'");
        return usage();
    };
    let spm_ladder = spm_ladder.unwrap_or_else(|| vec![config.spm_bytes >> 20]);
    let out_dir = out_dir.as_deref().map(std::path::Path::new);
    if let Some(code) = out_dir.and_then(create_out_dir) {
        return code;
    }

    // The grid, technique-innermost so each (spm, model) block is
    // contiguous and its first entry is that block's normalization base.
    let mut points: Vec<(u64, usize, Technique)> = Vec::new();
    for &mib in &spm_ladder {
        for mi in 0..models.len() {
            for &t in &techniques {
                points.push((mib, mi, t));
            }
        }
    }
    let (reports, wall) = measure(|| {
        parallel_map_workers(
            &points,
            context.options().workers,
            || (),
            |(), &(mib, mi, technique)| {
                let rung = config.clone().with_spm_bytes(mib << 20);
                context.model(&models[mi], &rung, technique)
            },
        )
    });

    let block = techniques.len();
    let mut csv = String::from("config,spm_mib,model,technique,cycles,dram_mib,vs_first\n");
    for (i, ((mib, mi, technique), r)) in points.iter().zip(&reports).enumerate() {
        let base_cycles = reports[i - i % block].total_cycles();
        csv.push_str(&format!(
            "{},{},{},{},{},{},{:.4}\n",
            config.name,
            mib,
            models[*mi].name,
            technique.label(),
            r.total_cycles(),
            r.total_traffic().total() >> 20,
            r.total_cycles() as f64 / base_cycles as f64,
        ));
    }

    // Per-(spm, model) winner: smallest cycle count, first listed wins ties.
    let mut best = String::new();
    for b in (0..points.len()).step_by(block.max(1)) {
        let win = (b..b + block)
            .min_by_key(|&i| (reports[i].total_cycles(), i))
            .unwrap();
        let (mib, mi, technique) = points[win];
        if !best.is_empty() {
            best.push(',');
        }
        best.push_str(&format!(
            "{{\"spm_mib\":{},\"model\":\"{}\",\"technique\":\"{}\",\"cycles\":{}}}",
            mib,
            models[mi].name,
            technique.label(),
            reports[win].total_cycles(),
        ));
    }
    let cache = context.cache_stats();
    let summary = format!(
        "{{\"config\":\"{}\",\"grid_points\":{},\"spm_rungs\":{},\"models\":{},\"techniques\":{},\"wall_seconds\":{:.6},\"engine_runs\":{},\"analytic_runs\":{},\"cache_hits\":{},\"cache_misses\":{},\"best\":[{best}]}}",
        config.name,
        points.len(),
        spm_ladder.len(),
        models.len(),
        techniques.len(),
        wall,
        engine_run_count(),
        analytic_run_count(),
        cache.hits,
        cache.misses,
    );

    match out_dir {
        Some(dir) => {
            for (name, contents) in [("sweep.csv", &csv), ("summary.json", &summary)] {
                if let Err(e) = std::fs::write(dir.join(name), contents) {
                    eprintln!("cannot write '{}': {e}", dir.join(name).display());
                    return ExitCode::FAILURE;
                }
            }
            println!(
                "{} grid points -> {}/{{sweep.csv,summary.json}} in {:.2}s",
                points.len(),
                dir.display(),
                wall
            );
        }
        None => {
            print!("{csv}");
            println!("{summary}");
        }
    }
    ExitCode::SUCCESS
}
