//! Metric catalogue and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares;
//! `run.py` checks the printed line against that file.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload in an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
];

/// Per-layer metrics, printed by every workload in a traced run; a layer
/// the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_ms", "ms"),
    ("core.setup_ms", "ms"),
    ("core.artifact_ms", "ms"),
    ("core.policy.calls_per_run", "count"),
    ("core.policy.npm.ns_per_call", "ns"),
    ("core.policy.spm.ns_per_call", "ns"),
    ("core.policy.gss.ns_per_call", "ns"),
    ("core.policy.ss1.ns_per_call", "ns"),
    ("core.policy.ss2.ns_per_call", "ns"),
    ("core.policy.as.ns_per_call", "ns"),
    ("core.policy.npm.transmeta.ns_per_call", "ns"),
    ("core.policy.spm.transmeta.ns_per_call", "ns"),
    ("core.policy.gss.transmeta.ns_per_call", "ns"),
    ("core.policy.ss1.transmeta.ns_per_call", "ns"),
    ("core.policy.ss2.transmeta.ns_per_call", "ns"),
    ("core.policy.as.transmeta.ns_per_call", "ns"),
    ("core.policy.npm.xscale.ns_per_call", "ns"),
    ("core.policy.spm.xscale.ns_per_call", "ns"),
    ("core.policy.gss.xscale.ns_per_call", "ns"),
    ("core.policy.ss1.xscale.ns_per_call", "ns"),
    ("core.policy.ss2.xscale.ns_per_call", "ns"),
    ("core.policy.as.xscale.ns_per_call", "ns"),
    ("core.pmp_model_ns.transmeta", "ns"),
    ("core.pmp_model_ns.xscale", "ns"),
    ("analysis.check_ms", "ms"),
    ("analysis.bounds_ms", "ms"),
    ("analysis.bounds_conservative", "count"),
    ("sim.sample_ns_per_run", "ns"),
    ("sim.sample_share", "share"),
    ("sim.engine_self_ns_per_run", "ns"),
    ("sim.engine_ns_per_event", "ns"),
    ("sim.events_per_run", "count"),
    ("sim.batch.thread_util", "share"),
    ("sim.batch.fold_ms", "ms"),
    ("sim.batch.quantile_above_max", "count"),
    ("obs.observer_ns_per_event", "ns"),
    ("experiments.point_ms", "ms"),
    ("experiments.run_ns", "ns"),
    ("experiments.construct_share", "share"),
    ("experiments.oracle_ns", "ns"),
    ("serve.parse_us", "us"),
    ("serve.handle_ms.status", "ms"),
    ("serve.handle_ms.plan_hit", "ms"),
    ("serve.handle_ms.plan_miss", "ms"),
    ("serve.handle_ms.mc", "ms"),
    ("serve.wire_ms.status", "ms"),
    ("serve.wire_ms.plan_hit", "ms"),
    ("serve.wire_ms.plan_miss", "ms"),
    ("serve.wire_ms.mc", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.status_p50_ms", "ms"),
    ("serve.connect_p50_ms", "ms"),
    ("serve.plan_hit_p50_ms", "ms"),
    ("serve.plan_miss_p50_ms", "ms"),
    ("serve.mc_p50_ms", "ms"),
    ("serve.queue_wait_p50_ms.plan", "ms"),
    ("serve.queue_wait_p50_ms.mc", "ms"),
    ("serve.exec_p50_ms.plan_hit", "ms"),
    ("serve.exec_p50_ms.plan_miss", "ms"),
    ("serve.exec_p50_ms.mc", "ms"),
    ("serve.cache_hit_ratio", "share"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("trace.overhead_share", "share"),
    ("trace.clock_ns", "ns"),
    ("trace.spans", "count"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed an output check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The first few failure descriptions, printed to stderr.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Sets a metric. Panics on a name outside the catalogue: that is a
    /// bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one attempted operation; `err` describes its failure.
    pub fn op(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(e);
            }
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of the run's mode.
    pub fn result_line(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let v = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => 0.0,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}
