//! The metric catalog and the one-line JSON result.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit. An untraced run prints every end-to-end metric, a traced run
//! every per-layer metric; `BENCHMARK.json` at the repository root lists
//! the same names (a test keeps the two in step).

use crate::stats::{describe, median};
use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the workload waits on. Every
/// workload reports all of them, each defined on that workload's own
/// headline task (see `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_kcycles_per_s", "kcycles/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, named `<crate>.<quantity>`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("noc-sim.begin_cycle_ns", "ns"),
    ("noc-sim.routing_ns", "ns"),
    ("noc-sim.allocation_ns", "ns"),
    ("noc-sim.traversal_ns", "ns"),
    ("noc-sim.finish_cycle_ns", "ns"),
    ("noc-sim.ns_per_router_cycle", "ns"),
    ("noc-sim.work_per_cycle", "count"),
    ("sensorwise.controller_ns", "ns"),
    ("sensorwise.unattributed_ns", "ns"),
    ("sensorwise.profiler_overhead", "ratio"),
    ("sensorwise.parallel_efficiency", "ratio"),
    ("sensorwise.slowest_experiment_share", "ratio"),
    ("sensorwise.policy_evals_per_cycle", "count"),
    ("sensorwise.sensor_reads_per_cycle", "count"),
    ("noc-traffic.source_ns_per_cycle", "ns"),
    ("noc-workload.gen_ms", "ms"),
    ("noc-workload.save_ms", "ms"),
    ("noc-workload.load_ms", "ms"),
    ("noc-workload.records", "count"),
    ("noc-telemetry.events_per_cycle", "count"),
    ("noc-telemetry.trace_overhead", "ratio"),
    ("noc-service.queue_wait_ms_p50", "ms"),
    ("noc-service.experiment_ms_p50", "ms"),
    ("noc-service.post_experiment_ms_p50", "ms"),
    ("noc-service.result_lag_ms_p50", "ms"),
    ("noc-service.requests_per_job", "count"),
    ("noc-service.cache_hits", "count"),
    ("noc-campaign.cold_epoch_ms_p50", "ms"),
    ("noc-campaign.warm_epoch_ms_p50", "ms"),
    ("noc-campaign.dispatch_ms_p50", "ms"),
    ("noc-campaign.engine_ms_p50", "ms"),
    ("noc-campaign.checkpoint_save_ms_p50", "ms"),
    ("noc-campaign.checkpoint_bytes", "bytes"),
    ("noc-campaign.request_bytes", "bytes"),
    ("noc-campaign.warm_hit_ratio", "ratio"),
    ("benchmark.tracing_overhead", "ratio"),
];

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
/// `true` for a name the result format accepts: starts with a letter or
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under the declared metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalog — a typo here would
    /// otherwise surface only as a metric missing from the result line.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.0.insert(name, value);
    }

    /// Copies every metric of `other` that this set does not hold yet.
    pub fn fill_from(&mut self, other: &Metrics) {
        for (&name, &value) in &other.0 {
            self.0.entry(name).or_insert(value);
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Declared names of `catalog` this set lacks.
    pub fn missing(&self, catalog: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        catalog
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.0.contains_key(n))
            .collect()
    }
}

/// The raw end-to-end samples of one untraced run.
#[derive(Debug, Default)]
pub struct Samples {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Seconds of each operation that passed the gate.
    pub wall_s: Vec<f64>,
    /// Simulated kcycles per host second, per operation that passed.
    pub sim_kcycles_per_s: Vec<f64>,
    /// Peak resident set right after the first operation.
    pub peak_rss_mb: Option<f64>,
}

impl Samples {
    /// Logs every sample set and records the median of each into `out`.
    pub fn report(&self, workload: &str, out: &mut Outcome) {
        for (name, samples) in [
            ("setup_s", &self.setup_s),
            ("wall_s", &self.wall_s),
            ("sim_kcycles_per_s", &self.sim_kcycles_per_s),
        ] {
            if !samples.is_empty() {
                eprintln!("{workload} {}", describe(name, samples));
                out.metrics.set(name, median(samples));
            }
        }
        if let Some(mb) = self.peak_rss_mb {
            out.metrics.set("peak_rss_mb", mb);
        }
    }
}

/// What one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started (timed operations plus correctness checks).
    pub attempted: u64,
    /// Operations that failed: errors, refusals, retries, mismatches.
    pub failed: u64,
    /// Why each failure happened, for the log.
    pub failures: Vec<String>,
    /// The measured metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one attempted operation, failed when `err` is set.
    pub fn record(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    /// Counts one correctness check comparing `got` against `want`.
    pub fn check<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        let err = (got != want).then(|| format!("{what}: got {got:?}, want {want:?}"));
        self.record(err);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, every value printed with all its digits.
    pub fn to_json(&self, catalog: &[(&'static str, &'static str)]) -> String {
        let correct =
            self.failed == 0 && self.attempted > 0 && self.metrics.missing(catalog).is_empty();
        let body: Vec<String> = catalog
            .iter()
            .filter_map(|(name, unit)| {
                let value = self.metrics.get(name)?;
                value
                    .is_finite()
                    .then(|| format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"))
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        assert!(!valid_name("-leading-dash"));
        assert!(!valid_name("has space"));
    }

    #[test]
    fn the_catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares extra metrics"
        );
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let mut outcome = Outcome::default();
        outcome.record(None);
        outcome.metrics.set("setup_s", 0.012_345_678);
        let line = outcome.to_json(&[("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.012345678, \"unit\": \"s\"}}}"
        );
        outcome.check("digest", 1u64, 2u64);
        assert!(outcome
            .to_json(&[("setup_s", "s")])
            .starts_with("{\"correct\": false"));
    }
}
