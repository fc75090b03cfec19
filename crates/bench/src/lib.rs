//! Shared utilities for the experiment harnesses.
//!
//! Every table and figure of the paper's evaluation has a dedicated bench
//! target under `benches/` (all with `harness = false`, so `cargo bench`
//! runs them and prints the same rows/series the paper reports).
//! `EXPERIMENTS.md` at the repository root records paper-vs-measured for
//! each.

use igo_core::{simulate_model, ModelReport, Technique};
use igo_npu_sim::NpuConfig;
use igo_workloads::Model;

/// Print a header naming the experiment and the paper reference.
pub fn header(id: &str, paper: &str) {
    println!("================================================================");
    println!("{id}");
    println!("paper reference: {paper}");
    println!("================================================================");
}

/// Simulate the whole technique ladder for one model; returns
/// `(baseline, [interleaving, rearrangement, partitioning])`.
pub fn ladder(model: &Model, config: &NpuConfig) -> (ModelReport, [ModelReport; 3]) {
    let base = simulate_model(model, config, Technique::Baseline);
    let rest = [
        simulate_model(model, config, Technique::Interleaving),
        simulate_model(model, config, Technique::Rearrangement),
        simulate_model(model, config, Technique::DataPartitioning),
    ];
    (base, rest)
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `1 - x` as a percentage string, e.g. `0.855 -> "+14.5%"`.
pub fn improvement(normalized: f64) -> String {
    format!("{:+.1}%", (1.0 - normalized) * 100.0)
}

/// Fixed-width model label (Table 4 abbreviation).
pub fn abbr(model: &Model) -> String {
    format!("{:>5}", model.id.abbr())
}

/// Self-measurement: wall-clock timing plus a machine-readable JSON summary
/// of the simulator's own throughput (layers/sec, engine runs, cache
/// hit-rate). The CLI's `--timing` flag and the micro-benchmarks both feed
/// off this module, so the perf trajectory of successive PRs is comparable.
pub mod wallclock {
    use std::time::Instant;

    /// Run `f` once, returning its result and the elapsed wall seconds.
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64())
    }

    /// Mean seconds per iteration of `f` over `iters` runs (plus one
    /// untimed warm-up run).
    pub fn time_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
        assert!(iters > 0);
        f();
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_secs_f64() / iters as f64
    }

    /// Peak resident set of this process so far (`VmHWM` in
    /// `/proc/self/status`), in MiB; `None` where that file is missing
    /// (off Linux).
    pub fn peak_rss_mib() -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib as f64 / 1024.0)
    }

    /// One timed simulation run, summarised for machines.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Timing {
        /// What was timed (e.g. `sweep:res:server`).
        pub label: String,
        /// Elapsed wall-clock seconds.
        pub wall_seconds: f64,
        /// Distinct layer simulations requested (layer × phase counts).
        pub layers: u64,
        /// `Engine::run` invocations actually executed.
        pub engine_runs: u64,
        /// Layer-level memo-cache hits.
        pub cache_hits: u64,
        /// Layer-level memo-cache misses.
        pub cache_misses: u64,
        /// Peak resident set in MiB ([`peak_rss_mib`]); left out of the
        /// JSON when `None`.
        pub peak_rss_mib: Option<f64>,
    }

    impl Timing {
        /// Layers simulated per wall-clock second.
        pub fn layers_per_sec(&self) -> f64 {
            if self.wall_seconds > 0.0 {
                self.layers as f64 / self.wall_seconds
            } else {
                f64::INFINITY
            }
        }

        /// Fraction of layer simulations served from the memo cache.
        pub fn cache_hit_rate(&self) -> f64 {
            let total = self.cache_hits + self.cache_misses;
            if total == 0 {
                0.0
            } else {
                self.cache_hits as f64 / total as f64
            }
        }

        /// Hand-rolled single-line JSON (the workspace carries no serializer
        /// dependency by design).
        pub fn to_json(&self) -> String {
            let rss = self
                .peak_rss_mib
                .map_or(String::new(), |mib| format!(",\"peak_rss_mib\":{mib:.1}"));
            format!(
                concat!(
                    "{{\"label\":\"{}\",\"wall_seconds\":{:.6},\"layers\":{},",
                    "\"layers_per_sec\":{:.2},\"engine_runs\":{},",
                    "\"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":{:.4}{}}}"
                ),
                self.label.replace('"', "'"),
                self.wall_seconds,
                self.layers,
                self.layers_per_sec(),
                self.engine_runs,
                self.cache_hits,
                self.cache_misses,
                self.cache_hit_rate(),
                rss,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_formats_signed_percent() {
        assert_eq!(improvement(0.855), "+14.5%");
        assert_eq!(improvement(1.05), "-5.0%");
    }

    #[test]
    fn mean_of_values() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn timing_json_is_well_formed() {
        let t = wallclock::Timing {
            label: "sweep:res".into(),
            wall_seconds: 2.0,
            layers: 100,
            engine_runs: 400,
            cache_hits: 30,
            cache_misses: 70,
            peak_rss_mib: None,
        };
        let json = t.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"layers_per_sec\":50.00"));
        assert!(json.contains("\"cache_hit_rate\":0.3000"));
        assert!(!json.contains("peak_rss_mib"));
        assert!((t.cache_hit_rate() - 0.3).abs() < 1e-12);
        let with_rss = wallclock::Timing {
            peak_rss_mib: Some(12.5),
            ..t
        }
        .to_json();
        assert!(with_rss.ends_with(",\"peak_rss_mib\":12.5}"), "{with_rss}");
    }
}
