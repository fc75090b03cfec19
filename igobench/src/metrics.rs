//! The metric catalogue, how repetitions are reduced to one value per
//! metric, and the result line.

use std::collections::BTreeMap;

use crate::stats::median;
use crate::tracer::Tracer;

#[derive(Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed with `--trace 0`.
pub const END_TO_END: [Metric; 6] = [
    m("wall_s", "s"),
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
    m("ok_frac", "ratio"),
    m("npu_cycles", "cycles"),
    m("npu_dram_mib", "MiB"),
];

/// Printed with `--trace 1`. Times are self times summed over a traced
/// repetition's spans; counts are summed over its calls.
pub const PER_LAYER: [Metric; 39] = [
    m("workloads.build_s", "s"),
    m("pipeline.task_s", "s"),
    m("pipeline.analytic_runs", "count"),
    m("pipeline.engine_runs", "count"),
    m("simcache.hits", "count"),
    m("simcache.misses", "count"),
    m("simcache.hit_ratio", "ratio"),
    m("simcache.evictions", "count"),
    m("simcache.entries", "count"),
    m("simcache.profile_entries", "count"),
    m("observe.trace_s", "s"),
    m("observe.events", "count"),
    m("report_io.export_s", "s"),
    m("report_io.bytes", "bytes"),
    m("schedule.emit_s", "s"),
    m("schedule.ops", "count"),
    m("schedule.accesses", "count"),
    m("analytic.replay_s", "s"),
    m("analytic.runs", "count"),
    m("analytic.accesses", "count"),
    m("analytic.ns_per_access", "ns"),
    m("analytic.aborted_frac", "ratio"),
    m("stackdist.replay_s", "s"),
    m("stackdist.passes", "count"),
    m("stackdist.rungs_per_pass", "count"),
    m("stackdist.aborted_frac", "ratio"),
    m("bound.s", "s"),
    m("bound.calls", "count"),
    m("bound.prunable_frac", "ratio"),
    m("multicore.replay_s", "s"),
    m("multicore.runs", "count"),
    m("multicore.accesses", "count"),
    m("engine.run_s", "s"),
    m("engine.runs", "count"),
    m("engine.accesses", "count"),
    m("engine.ns_per_access", "ns"),
    m("probe.s", "s"),
    m("trace.wall_s", "s"),
    m("trace.overhead_s", "s"),
];

/// What a traced repetition measured outside the tracer.
#[derive(Debug, Default)]
pub struct PassCounts {
    pub build_s: f64,
    pub wall_s: f64,
    pub probe_s: f64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: u64,
    pub profile_entries: u64,
    pub events: u64,
    pub bytes: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer value a traced repetition reports (all of
/// [`PER_LAYER`] but `trace.overhead_s`, which needs the untraced runs).
pub fn layer_values(tracer: &Tracer, p: &PassCounts) -> Vec<(&'static str, f64)> {
    let self_s = tracer.self_times();
    let t = |layer: &str| self_s.get(layer).copied().unwrap_or(0.0);
    let c = |name: &str| tracer.counter(name) as f64;
    vec![
        ("workloads.build_s", p.build_s),
        ("pipeline.task_s", t("pipeline")),
        ("simcache.hits", p.hits as f64),
        ("simcache.misses", p.misses as f64),
        (
            "simcache.hit_ratio",
            ratio(p.hits as f64, (p.hits + p.misses) as f64),
        ),
        ("simcache.evictions", p.evictions as f64),
        ("simcache.entries", p.entries as f64),
        ("simcache.profile_entries", p.profile_entries as f64),
        ("observe.trace_s", t("observe")),
        ("observe.events", p.events as f64),
        ("report_io.export_s", t("report_io")),
        ("report_io.bytes", p.bytes as f64),
        ("schedule.emit_s", t("schedule")),
        ("schedule.ops", c("schedule.ops")),
        ("schedule.accesses", c("schedule.accesses")),
        ("analytic.replay_s", t("analytic")),
        ("analytic.runs", c("analytic.runs")),
        ("analytic.accesses", c("analytic.accesses")),
        (
            "analytic.ns_per_access",
            ratio(t("analytic") * 1e9, c("analytic.accesses")),
        ),
        (
            "analytic.aborted_frac",
            ratio(c("analytic.aborted"), c("analytic.cut_replays")),
        ),
        ("stackdist.replay_s", t("stackdist")),
        ("stackdist.passes", c("stackdist.passes")),
        (
            "stackdist.rungs_per_pass",
            ratio(c("stackdist.rungs"), c("stackdist.passes")),
        ),
        (
            "stackdist.aborted_frac",
            ratio(c("stackdist.aborted"), c("stackdist.cut_replays")),
        ),
        ("bound.s", t("bound")),
        ("bound.calls", c("bound.calls")),
        (
            "bound.prunable_frac",
            ratio(c("bound.prunable"), c("bound.losers")),
        ),
        ("multicore.replay_s", t("multicore")),
        ("multicore.runs", c("multicore.runs")),
        ("multicore.accesses", c("multicore.accesses")),
        ("engine.run_s", t("engine")),
        ("engine.runs", c("engine.runs")),
        ("engine.accesses", c("engine.accesses")),
        (
            "engine.ns_per_access",
            ratio(t("engine") * 1e9, c("engine.accesses")),
        ),
        ("probe.s", p.probe_s),
        ("trace.wall_s", p.wall_s),
    ]
}

type Rep = BTreeMap<String, f64>;

fn column(reps: &[Rep], name: &str) -> Result<Vec<f64>, String> {
    if reps.is_empty() {
        return Err(format!("no repetition reported {name}"));
    }
    reps.iter()
        .map(|r| {
            r.get(name)
                .copied()
                .ok_or_else(|| format!("a repetition did not report {name}"))
        })
        .collect()
}

/// The seed guard: `name` must read exactly the same in every repetition,
/// whatever its task order.
pub fn same_everywhere(reps: &[&Rep], name: &str) -> Result<(), String> {
    let values: Vec<f64> = reps.iter().filter_map(|r| r.get(name).copied()).collect();
    match values.first() {
        Some(v) if values.len() == reps.len() && values.iter().all(|x| x == v) => Ok(()),
        None if reps.is_empty() => Ok(()),
        _ => Err(format!("{name} differs across task orders: {values:?}")),
    }
}

/// End-to-end values from the untraced repetitions: medians, except
/// `ok_frac`, which counts every call of the run.
pub fn end_to_end(
    reps: &[Rep],
    failed: u64,
    attempted: u64,
) -> Result<Vec<(&'static Metric, f64)>, String> {
    let med = |name: &str| column(reps, name).map(|v| median(&v));
    let values = [
        med("wall_s")?,
        med("setup_s")?,
        med("peak_rss_kib")? / 1024.0,
        ratio((attempted - failed) as f64, attempted as f64),
        med("npu_cycles")?,
        med("npu_dram_bytes")? / (1u64 << 20) as f64,
    ];
    Ok(END_TO_END.iter().zip(values).collect())
}

/// Per-layer values: medians over the traced repetitions, plus the
/// tracing overhead against the untraced ones.
pub fn per_layer(untraced: &[Rep], traced: &[Rep]) -> Result<Vec<(&'static Metric, f64)>, String> {
    let untraced_wall = median(&column(untraced, "wall_s")?);
    PER_LAYER
        .iter()
        .map(|m| {
            let v = if m.name == "trace.overhead_s" {
                median(&column(traced, "trace.wall_s")?) - untraced_wall
            } else {
                median(&column(traced, m.name)?)
            };
            Ok((m, v))
        })
        .collect()
}

/// The result object the driver prints as its last line.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(&Metric, f64)],
) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` follows the metric-name grammar: a letter or digit, then
    /// at most 63 more letters, digits, `_`, `.` or `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Whether `unit` is at most 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_follows_the_name_grammar() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(!valid_name("_x") && !valid_name("") && !valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)) && valid_name(&"a".repeat(64)));
        assert!(valid_unit("1/s") && !valid_unit("") && !valid_unit("µs"));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        let listed: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').unwrap()])
            .collect();
        let workloads = listed.len() - END_TO_END.len() - PER_LAYER.len();
        assert!(listed[..workloads]
            .iter()
            .all(|w| crate::workload::Workload::parse(w).is_some()));
        let ours: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        assert_eq!(listed[workloads..], ours);
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let unit = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(json.contains(&unit), "{unit}");
        }
    }

    #[test]
    fn every_traced_value_has_a_catalogue_entry() {
        let names: Vec<&str> = layer_values(&Tracer::new(), &PassCounts::default())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let expected: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| {
                ![
                    "pipeline.analytic_runs",
                    "pipeline.engine_runs",
                    "trace.overhead_s",
                ]
                .contains(n)
            })
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        let mut want = expected.clone();
        want.sort_unstable();
        assert_eq!(sorted, want);
    }

    fn rep(pairs: &[(&str, f64)]) -> Rep {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn seed_guard_requires_identical_values() {
        let a = rep(&[("npu_cycles", 5.0)]);
        let b = rep(&[("npu_cycles", 5.0)]);
        let c = rep(&[("npu_cycles", 6.0)]);
        assert!(same_everywhere(&[&a, &b], "npu_cycles").is_ok());
        assert!(same_everywhere(&[&a, &c], "npu_cycles").is_err());
        assert!(same_everywhere(&[&a, &rep(&[])], "npu_cycles").is_err());
    }

    #[test]
    fn end_to_end_reduces_repetitions() {
        let reps: Vec<Rep> = [(1.2, 100.0), (1.0, 104.0), (1.1, 102.0), (2.0, 101.0)]
            .iter()
            .map(|&(w, rss)| {
                rep(&[
                    ("wall_s", w),
                    ("setup_s", 0.001),
                    ("peak_rss_kib", rss * 1024.0),
                    ("npu_cycles", 7.0),
                    ("npu_dram_bytes", (3u64 << 20) as f64),
                ])
            })
            .collect();
        let v = end_to_end(&reps, 1, 8).unwrap();
        let get = |n: &str| v.iter().find(|(m, _)| m.name == n).unwrap().1;
        assert!((get("wall_s") - 1.15).abs() < 1e-12);
        assert_eq!(get("peak_rss_mib"), 101.5);
        assert_eq!(get("ok_frac"), 7.0 / 8.0);
        assert_eq!(get("npu_dram_mib"), 3.0);
        assert!(end_to_end(&[], 0, 1).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let values = [(&END_TO_END[0], 1.25), (&END_TO_END[3], f64::NAN)];
        assert_eq!(
            result_json(true, 10, 0, &values),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"ok_frac\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
    }
}
