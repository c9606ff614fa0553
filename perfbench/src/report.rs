//! The metric catalog (the names `BENCHMARK.json` lists) and the
//! reduction of a run's iterations to one result line.

use std::fmt::Write as _;

use crate::workloads::{Checks, Iteration, Setup, Values};

/// One metric of the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// End-to-end metrics, printed with `--trace 0`.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("host_s", "s", "lower"),
        def("setup_s", "s", "lower"),
        def("peak_rss_mb", "MB", "lower"),
    ]
}

/// Machine runs of an iteration, across all workloads.
pub const RUNS: [&str; 7] = [
    "split",
    "mpi_ws",
    "nosplit",
    "scf",
    "scf_counter",
    "tce",
    "tce_counter",
];

/// Per-layer metrics, printed with `--trace 1`. A layer the workload
/// does not exercise reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    for (m, unit) in [
        ("run_s", "s"),
        ("yields", "count"),
        ("blocks", "count"),
        ("messages", "count"),
    ] {
        for run in RUNS {
            v.push(def(format!("sim.{m}.{run}"), unit, "lower"));
        }
    }
    v.push(def("sim.ns_per_event", "ns", "lower"));
    v.push(def("sim.imbalance", "ratio", "lower"));
    v.push(def("sim.trace_events", "count", "lower"));
    v.push(def("sim.trace_dropped", "count", "lower"));
    v.push(def("sim.export_s", "s", "lower"));
    v.push(def("sim.replay_s", "s", "lower"));
    v.push(def("sim.trace_overhead", "ratio", "lower"));
    v.push(def("trace_mb", "MB", "lower"));
    v.push(def("armci.queue_mb", "MB", "lower"));
    for run in ["split", "nosplit"] {
        for (m, unit, better) in [
            ("tasks_executed", "count", "higher"),
            ("steals_attempted", "count", "lower"),
            ("steals_succeeded", "count", "higher"),
            ("steal_success", "ratio", "higher"),
            ("tasks_stolen", "count", "higher"),
            ("td_waves_max", "count", "lower"),
            ("dirty_marks_sent", "count", "lower"),
            ("dirty_marks_elided", "count", "higher"),
            ("splits_released", "count", "lower"),
            ("splits_reclaimed", "count", "lower"),
            ("startup_rank_ms", "ms", "lower"),
        ] {
            v.push(def(format!("core.{m}.{run}"), unit, better));
        }
    }
    v.push(def("mpi.steal_requests", "count", "lower"));
    v.push(def("mpi.works_served", "count", "higher"));
    v.push(def("mpi.token_passes", "count", "lower"));
    v.push(def("uts.seq_s", "s", "lower"));
    v.push(def("uts.ns_per_node", "ns", "lower"));
    v.push(def("scf.seq_s", "s", "lower"));
    v.push(def("tce.ref_s", "s", "lower"));
    for m in ["parse_s", "analyze_s", "lower_s"] {
        v.push(def(format!("analyze.{m}"), "s", "lower"));
    }
    for m in ["hb_s", "predict_s", "deadlock_s"] {
        v.push(def(format!("race.{m}"), "s", "lower"));
    }
    for m in ["exec", "steal", "lock", "td", "barrier", "idle", "critpath"] {
        v.push(def(format!("blame.{m}_ms"), "ms", "lower"));
    }
    for run in ["split", "mpi_ws", "nosplit"] {
        v.push(def(format!("vt_{run}_mnodes"), "Mnodes/s", "higher"));
    }
    for run in ["scf", "scf_counter", "tce", "tce_counter"] {
        v.push(def(format!("vt_{run}_ms"), "ms", "lower"));
    }
    v
}

/// Median of `xs` (mean of the middle pair for an even count); 0 if
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Check that every iteration repeated the first one's virtual-time
/// values and counts bit for bit; each later iteration is one checked
/// operation.
pub fn check_determinism(iters: &[Iteration], checks: &mut Checks) {
    let Some(first) = iters.first() else {
        return;
    };
    for (i, it) in iters.iter().enumerate().skip(1) {
        let differing: Vec<&str> = first
            .exact
            .iter()
            .filter(|(k, v)| it.exact.get(*k).map(|w| w.to_bits()) != Some(v.to_bits()))
            .map(|(k, _)| k.as_str())
            .collect();
        let same_keys = first.exact.len() == it.exact.len();
        checks.check(differing.is_empty() && same_keys, || {
            format!("iteration {} differs from iteration 0 in {differing:?}", i)
        });
    }
}

/// Per-layer values of a run: exact values from the first iteration,
/// host times as medians over iterations, then the reference and traced
/// iteration's values where the iterations did not measure them.
pub fn layer_values(
    iters: &[Iteration],
    setups: &[Setup],
    reference: &Values,
    traced: &Values,
) -> Values {
    let mut v = Values::new();
    if let Some(first) = iters.first() {
        v.extend(first.exact.iter().map(|(k, x)| (k.clone(), *x)));
        for k in first.host.keys() {
            let xs: Vec<f64> = iters
                .iter()
                .filter_map(|it| it.host.get(k).copied())
                .collect();
            v.insert(k.clone(), median(&xs));
        }
    }
    if let Some(s) = setups.first() {
        v.insert("armci.queue_mb".into(), s.queue_bytes as f64 / 1e6);
    }
    for (k, x) in reference.iter().chain(traced) {
        v.entry(k.clone()).or_insert(*x);
    }
    v
}

/// The result line: `correct`, `attempted`, `failed` and the metrics in
/// catalog order, each with its unit. Metrics missing from `values` read 0.
pub fn result_line(checks: &Checks, defs: &[MetricDef], values: &Values) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
    for (i, m) in defs.iter().enumerate() {
        let x = values.get(&m.name).copied().unwrap_or(0.0);
        let x = if x.is_finite() { x } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {x:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Restart the process's resident high-water mark at its current resident
/// set (writing `5` to `/proc/self/clear_refs`); false where the kernel
/// refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's resident high-water mark in MB (VmHWM), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_within_limits() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(per_layer().len() <= 128);
        for m in &all {
            assert!(m.name.len() <= 64, "{}", m.name);
            assert!(m
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn determinism_check_counts_a_changed_value_as_a_failure() {
        let it = |x: f64| Iteration {
            exact: [("vt".to_string(), x)].into_iter().collect(),
            ..Default::default()
        };
        let mut c = Checks::default();
        check_determinism(&[it(1.0), it(1.0), it(1.0 + f64::EPSILON)], &mut c);
        assert_eq!((c.attempted, c.failed), (2, 1));
    }

    #[test]
    fn result_line_lists_every_metric_with_unit() {
        let defs = end_to_end();
        let values: Values = [("host_s".to_string(), 1.25)].into_iter().collect();
        let line = result_line(&Checks::default(), &defs, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 0, \"failed\": 0"));
        assert!(line.contains("\"host_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
    }
}
