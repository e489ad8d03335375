//! The metric catalogue and the result record every run prints.
//!
//! The two tables below are the single source of metric names and units.
//! A run fails its output check if it does not record every metric of the
//! table it prints, and a self-test keeps `BENCHMARK.json` equal to them.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p95_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Primitive definitions the workloads evaluate (`testbench.eval_ms.*`).
pub const DEFS: &[&str] = &[
    "cs_amp",
    "csrc_pmos",
    "dp",
    "cm_1to2",
    "cm_pmos",
    "dp_switched",
    "latch",
    "switch_pmos",
    "csi",
    "latch_starved",
];

/// Per-layer metrics with fixed names, printed by traced runs
/// (`--trace 1`) together with the per-definition and per-circuit ones
/// that [`per_layer`] expands.
const LAYERS: &[(&str, &str)] = &[
    ("selection.s", "s"),
    ("selection.sims", "count"),
    ("tuning.s", "s"),
    ("tuning.sims", "count"),
    ("ports.s", "s"),
    ("ports.sims", "count"),
    ("proc.threads_peak", "count"),
    ("corners.sims", "count"),
    ("corners.s", "s"),
    ("place.s", "s"),
    ("place.blocks", "count"),
    ("groute.ms", "ms"),
    ("droute.ms", "ms"),
    ("preflight.ms", "ms"),
    ("verify.ms", "ms"),
    ("gds.ms", "ms"),
    ("gds.bytes", "bytes"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "frac"),
    ("cache.evictions", "count"),
    ("cache.bytes", "bytes"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p95", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p95", "ms"),
    ("serve.attempts_per_req", "count"),
    ("serve.shed", "count"),
    ("serve.gen_lag_ms_max", "ms"),
    ("flow.other_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for def in DEFS {
        out.push((format!("testbench.eval_ms.{def}"), "ms"));
    }
    for c in crate::circuits::Ckt::ALL {
        out.push((format!("spice.measure_s.{}", c.name()), "s"));
        out.push((format!("spice.mna_dim.{}", c.name()), "count"));
    }
    out
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed (flow or measure `Err`, or a request that
    /// ended Rejected, shed, DeadlineExceeded or Failed).
    pub failed: u64,
    /// Output-check failures; empty means the run's outputs are correct.
    pub mismatches: Vec<String>,
    /// Recorded metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Report {
    /// Records a metric value (the last write wins).
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Adds to a metric value (starting from 0).
    pub fn add(&mut self, name: &str, value: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Records an output-check failure.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// The final JSON line over `table`: every listed metric with its
    /// unit. A listed metric the run never recorded is an output-check
    /// failure, not a silent zero.
    pub fn result_line(&mut self, table: &[(String, &str)]) -> String {
        let missing: Vec<String> = table
            .iter()
            .filter(|(n, _)| !self.values.contains_key(n))
            .map(|(n, _)| n.clone())
            .collect();
        for n in missing {
            self.mismatch(format!("metric {n} was not recorded"));
        }
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Owned copy of [`END_TO_END`] in the shape [`Report::result_line`] takes.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn printed(json_line: &str) -> Vec<(String, String)> {
        let doc = parse(json_line).expect("result line parses");
        let Some(Json::Object(metrics)) = doc.get("metrics") else {
            panic!("no metrics object");
        };
        metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{name} value"
                );
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect()
    }

    fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
        v.sort();
        v
    }

    fn filled(table: &[(String, &str)]) -> Report {
        let mut r = Report::default();
        for (n, _) in table {
            r.set(n, 1.5);
        }
        r
    }

    #[test]
    fn every_listed_end_to_end_metric_is_printed_with_its_unit() {
        let table = end_to_end();
        let line = filled(&table).result_line(&table);
        assert_eq!(
            sorted(listed(&benchmark_json(), "end_to_end")),
            sorted(printed(&line))
        );
    }

    #[test]
    fn every_listed_per_layer_metric_is_printed_with_its_unit() {
        let table = per_layer();
        let line = filled(&table).result_line(&table);
        assert_eq!(
            sorted(listed(&benchmark_json(), "per_layer")),
            sorted(printed(&line))
        );
    }

    #[test]
    fn an_unrecorded_metric_fails_the_output_check() {
        let table = end_to_end();
        let mut r = Report::default();
        r.set("wall_s", 1.0);
        let line = r.result_line(&table);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(!r.mismatches.is_empty());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let table = end_to_end();
        let line = filled(&table).result_line(&table);
        let Json::Object(top) = parse(&line).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
