//! Request telemetry: per-kind latency histograms and the Prometheus
//! text exposition behind the `metrics` request kind.
//!
//! Latencies are recorded in four stages per request kind — `queue`
//! (wait in the bounded queue), `exec` (handler wall time), `total`
//! (end-to-end, ingest to response) and `write` (the socket write of the
//! response line) — on fixed-bin [`Histogram`]s so the
//! store stays bounded no matter how long the daemon runs. `plan`
//! execution is additionally split by cache outcome (`hit`/`miss`),
//! because a cached plan and a full Theorem-1 re-derivation are
//! different operations that happen to share a request kind.
//!
//! The exposition contract is documented in `docs/observability.md` and
//! policed by `tests/docs_sync.rs`.

use pas_obs::MetricsRegistry;
use pas_stats::Histogram;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Lower edge of every latency histogram (ms).
const LATENCY_LO_MS: f64 = 0.0;
/// Upper edge of every latency histogram (ms); slower observations clamp
/// into the top bin rather than being dropped, and [`LatencyStore::record`]
/// reports them so callers can tally `serve.latency.overflow`.
const LATENCY_HI_MS: f64 = 10_000.0;
/// Bin count: 1 ms resolution across the range.
const LATENCY_BINS: usize = 10_000;

/// Lifecycle counters pre-seeded at zero when the service starts, so the
/// health snapshot and the exposition always report the full set — an
/// operator can tell "never shed" from "not instrumented".
pub const PRE_SEEDED_COUNTERS: &[&str] = &[
    "serve.requests",
    "serve.responses.ok",
    "serve.responses.error",
    "serve.responses.shed",
    "serve.responses.timeout",
    "serve.responses.panic",
    "serve.shed",
    "serve.timeouts",
    "serve.panics",
    "serve.worker_recoveries",
    "serve.cancelled_in_queue",
    "serve.io_retries",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.stale_served",
    "serve.request_ids.generated",
    "serve.request_ids.client",
    "serve.latency.overflow",
    "serve.crash_reports",
];

/// Request kinds whose latency series are pre-seeded at zero. Debug
/// kinds get series on demand but are not part of the stable surface.
pub const LATENCY_KINDS: &[&str] = &["plan", "check", "run", "trace", "montecarlo"];

/// The pipeline stages recorded per kind: `queue` is time spent waiting
/// in the bounded queue, `exec` is handler wall time on a worker,
/// `total` is end-to-end from ingest to response, and `write` is the
/// socket write of the response line that follows `total`.
pub const LATENCY_STAGES: &[&str] = &["queue", "exec", "total", "write"];

/// Identifies one latency series: request kind, pipeline stage, and the
/// optional cache-outcome split (`plan` execution only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Wire name of the request kind (`plan`, `check`, ...).
    pub kind: &'static str,
    /// One of [`LATENCY_STAGES`].
    pub stage: &'static str,
    /// `Some("hit")` / `Some("miss")` for the plan-exec cache split.
    pub cache: Option<&'static str>,
}

impl SeriesKey {
    /// A plain kind/stage series.
    pub fn new(kind: &'static str, stage: &'static str) -> Self {
        SeriesKey {
            kind,
            stage,
            cache: None,
        }
    }

    /// A cache-split series (plan execution by hit/miss).
    pub fn with_cache(kind: &'static str, stage: &'static str, cache: &'static str) -> Self {
        SeriesKey {
            kind,
            stage,
            cache: Some(cache),
        }
    }

    /// The dotted metric name used in `status` bodies:
    /// `serve.latency.<kind>.<stage>[.<hit|miss>]`.
    pub fn dotted(&self) -> String {
        match self.cache {
            Some(c) => format!("serve.latency.{}.{}.{c}", self.kind, self.stage),
            None => format!("serve.latency.{}.{}", self.kind, self.stage),
        }
    }
}

/// One latency series: a fixed-bin histogram plus the exact running sum
/// (the histogram alone would only bound the sum to bin resolution).
#[derive(Debug, Clone)]
struct LatencySeries {
    hist: Histogram,
    sum_ms: f64,
}

impl LatencySeries {
    fn empty() -> Self {
        LatencySeries {
            hist: Histogram::new(LATENCY_LO_MS, LATENCY_HI_MS, LATENCY_BINS)
                .expect("static latency histogram geometry is valid"),
            sum_ms: 0.0,
        }
    }
}

/// A point-in-time summary of one latency series. Quantiles are `None`
/// while the series is empty (rendered `NaN` in the exposition, the
/// Prometheus convention for observation-free summaries).
#[derive(Debug, Clone, Copy)]
pub struct LatencySnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Exact sum of all observations (ms).
    pub sum_ms: f64,
    /// Median estimate (ms).
    pub p50_ms: Option<f64>,
    /// 95th-percentile estimate (ms).
    pub p95_ms: Option<f64>,
    /// 99th-percentile estimate (ms).
    pub p99_ms: Option<f64>,
}

/// Thread-safe store of per-kind request-latency series.
///
/// The stable surface ([`LATENCY_KINDS`] × [`LATENCY_STAGES`], plus the
/// plan-exec hit/miss split) is pre-seeded at construction; debug kinds
/// create series on first observation.
#[derive(Debug)]
pub struct LatencyStore {
    series: Mutex<BTreeMap<SeriesKey, LatencySeries>>,
}

impl Default for LatencyStore {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyStore {
    /// Creates the store with the stable series pre-seeded at zero.
    pub fn new() -> Self {
        let mut series = BTreeMap::new();
        for kind in LATENCY_KINDS {
            for stage in LATENCY_STAGES {
                series.insert(SeriesKey::new(kind, stage), LatencySeries::empty());
            }
        }
        for cache in ["hit", "miss"] {
            series.insert(
                SeriesKey::with_cache("plan", "exec", cache),
                LatencySeries::empty(),
            );
        }
        LatencyStore {
            series: Mutex::new(series),
        }
    }

    /// Records one observation (ms; clamped into the histogram range).
    /// Returns `true` when the sample fell outside the range — callers
    /// increment `serve.latency.overflow` so clamping is never silent.
    pub fn record(&self, key: SeriesKey, ms: f64) -> bool {
        let mut series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let s = series.entry(key).or_insert_with(LatencySeries::empty);
        let overflow = s.hist.out_of_range(ms);
        s.hist.add(ms);
        s.sum_ms += ms;
        overflow
    }

    /// Snapshots every series (sorted by key) with p50/p95/p99.
    pub fn snapshot(&self) -> Vec<(SeriesKey, LatencySnapshot)> {
        let series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        series
            .iter()
            .map(|(key, s)| {
                (
                    *key,
                    LatencySnapshot {
                        count: s.hist.total(),
                        sum_ms: s.sum_ms,
                        p50_ms: s.hist.quantile(0.5),
                        p95_ms: s.hist.quantile(0.95),
                        p99_ms: s.hist.quantile(0.99),
                    },
                )
            })
            .collect()
    }
}

/// Adds one to each counter in `names`.
pub(crate) fn bump(metrics: &Mutex<MetricsRegistry>, names: &[&str]) {
    let mut m = metrics.lock().unwrap_or_else(|e| e.into_inner());
    for name in names {
        m.inc(name, 1);
    }
}

/// Records one latency sample, tallying `serve.latency.overflow` when it
/// fell outside the histogram range (it still lands, clamped, in the top
/// bin — but never silently).
pub(crate) fn record_latency(
    latencies: &LatencyStore,
    metrics: &Mutex<MetricsRegistry>,
    key: SeriesKey,
    ms: f64,
) {
    if latencies.record(key, ms) {
        bump(metrics, &["serve.latency.overflow"]);
    }
}

/// The `serve.*` counters and gauges as two JSON objects, as `status`
/// bodies and crash reports carry them.
pub(crate) fn serve_counters_and_gauges(m: &MetricsRegistry) -> (Value, Value) {
    let serve = |name: &str| name.starts_with("serve.");
    let counters = m.counters().filter(|(n, _)| serve(n));
    let gauges = m.gauges().filter(|(n, _)| serve(n));
    (
        Value::Object(
            counters
                .map(|(n, v)| (n.to_string(), Value::UInt(v)))
                .collect(),
        ),
        Value::Object(
            gauges
                .map(|(n, v)| (n.to_string(), Value::Float(v)))
                .collect(),
        ),
    )
}

/// Maps a dotted metric name onto the Prometheus identifier charset:
/// every character outside `[a-zA-Z0-9]` becomes `_`
/// (`serve.cache.hits` → `serve_cache_hits`).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn fmt_opt_ms(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{v}"),
        None => "NaN".to_string(),
    }
}

/// Renders the full `serve.*` metric surface in Prometheus text
/// exposition format (version 0.0.4):
///
/// - every counter and gauge becomes its own family (dotted name mapped
///   onto the Prometheus charset), with exactly one `# HELP` and `# TYPE`
///   line each;
/// - a constant `serve_build_info` gauge carries the crate version and
///   the plan/protocol schema versions as labels (the Prometheus
///   build-info idiom: sample value is always 1);
/// - all latency series share the single summary family `serve_latency`,
///   labelled by `kind`, `stage` and (for the plan-exec split) `cache`,
///   with `quantile="0.5" | "0.95" | "0.99"` sample lines plus
///   `serve_latency_sum` / `serve_latency_count`.
pub fn prometheus_exposition(metrics: &MetricsRegistry, latencies: &LatencyStore) -> String {
    let mut out = String::new();
    for (name, v) in metrics.counters().filter(|(n, _)| n.starts_with("serve.")) {
        let fam = prom_name(name);
        let _ = writeln!(out, "# HELP {fam} Counter {name}.");
        let _ = writeln!(out, "# TYPE {fam} counter");
        let _ = writeln!(out, "{fam} {v}");
    }
    for (name, v) in metrics.gauges().filter(|(n, _)| n.starts_with("serve.")) {
        let fam = prom_name(name);
        let _ = writeln!(out, "# HELP {fam} Gauge {name}.");
        let _ = writeln!(out, "# TYPE {fam} gauge");
        let _ = writeln!(out, "{fam} {v}");
    }
    let _ = writeln!(
        out,
        "# HELP serve_build_info Build and schema version information."
    );
    let _ = writeln!(out, "# TYPE serve_build_info gauge");
    let _ = writeln!(
        out,
        "serve_build_info{{version=\"{}\",plan_schema=\"{}\",proto=\"{}\"}} 1",
        env!("CARGO_PKG_VERSION"),
        pas_core::PLAN_SCHEMA_VERSION,
        crate::proto::PROTO_VERSION
    );
    let _ = writeln!(out, "# TYPE serve_latency summary");
    for (key, snap) in latencies.snapshot() {
        let labels = match key.cache {
            Some(c) => format!(
                "kind=\"{}\",stage=\"{}\",cache=\"{c}\"",
                key.kind, key.stage
            ),
            None => format!("kind=\"{}\",stage=\"{}\"", key.kind, key.stage),
        };
        for (q, val) in [
            ("0.5", snap.p50_ms),
            ("0.95", snap.p95_ms),
            ("0.99", snap.p99_ms),
        ] {
            let _ = writeln!(
                out,
                "serve_latency{{{labels},quantile=\"{q}\"}} {}",
                fmt_opt_ms(val)
            );
        }
        let _ = writeln!(out, "serve_latency_sum{{{labels}}} {}", snap.sum_ms);
        let _ = writeln!(out, "serve_latency_count{{{labels}}} {}", snap.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn store_pre_seeds_the_stable_surface_at_zero() {
        let store = LatencyStore::new();
        let snaps = store.snapshot();
        // 5 kinds × 4 stages + plan-exec hit/miss.
        assert_eq!(snaps.len(), LATENCY_KINDS.len() * LATENCY_STAGES.len() + 2);
        for (key, snap) in &snaps {
            assert_eq!(snap.count, 0, "{}", key.dotted());
            assert!(snap.p50_ms.is_none(), "{}", key.dotted());
        }
        let dotted: BTreeSet<String> = snaps.iter().map(|(k, _)| k.dotted()).collect();
        assert!(dotted.contains("serve.latency.plan.exec.hit"));
        assert!(dotted.contains("serve.latency.trace.total"));
    }

    #[test]
    fn recorded_latencies_surface_in_quantiles_and_sums() {
        let store = LatencyStore::new();
        let key = SeriesKey::new("plan", "exec");
        for ms in [1.0, 2.0, 3.0, 4.0, 100.0] {
            store.record(key, ms);
        }
        let snaps = store.snapshot();
        let (_, snap) = snaps
            .iter()
            .find(|(k, _)| *k == key)
            .expect("series exists");
        assert_eq!(snap.count, 5);
        assert!((snap.sum_ms - 110.0).abs() < 1e-9);
        let p50 = snap.p50_ms.expect("non-empty");
        let p99 = snap.p99_ms.expect("non-empty");
        assert!(p50 < 10.0, "p50={p50}");
        assert!(p99 >= p50, "p99={p99} p50={p50}");
    }

    #[test]
    fn unknown_series_are_created_on_demand() {
        let store = LatencyStore::new();
        store.record(SeriesKey::new("debug-sleep", "exec"), 7.0);
        let snaps = store.snapshot();
        assert!(snaps
            .iter()
            .any(|(k, s)| k.dotted() == "serve.latency.debug-sleep.exec" && s.count == 1));
    }

    #[test]
    fn exposition_has_one_type_line_per_family() {
        let mut m = MetricsRegistry::new();
        for name in PRE_SEEDED_COUNTERS {
            m.inc(name, 0);
        }
        m.inc("serve.requests", 3);
        m.set_gauge("serve.queue_depth", 2.0);
        let store = LatencyStore::new();
        store.record(SeriesKey::new("run", "total"), 5.0);
        let text = prometheus_exposition(&m, &store);

        let type_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let unique: BTreeSet<&str> = type_lines.iter().copied().collect();
        assert_eq!(type_lines.len(), unique.len(), "duplicate # TYPE family");
        assert!(text.contains("# TYPE serve_requests counter"), "{text}");
        assert!(text.contains("serve_requests 3"), "{text}");
        assert!(text.contains("# TYPE serve_queue_depth gauge"), "{text}");
        assert!(text.contains("# TYPE serve_latency summary"), "{text}");
        assert!(
            text.contains("serve_latency_count{kind=\"run\",stage=\"total\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("serve_latency{kind=\"plan\",stage=\"queue\",quantile=\"0.5\"} NaN"),
            "{text}"
        );
        assert!(
            text.contains("serve_latency_count{kind=\"plan\",stage=\"exec\",cache=\"hit\"} 0"),
            "{text}"
        );
        // Dotted names never leak into sample lines.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap_or("");
            assert!(!name.contains('.'), "unmangled name in: {line}");
        }
    }

    #[test]
    fn pre_seeded_catalog_matches_the_legacy_fifteen_plus_request_ids() {
        assert_eq!(PRE_SEEDED_COUNTERS.len(), 19);
        assert!(PRE_SEEDED_COUNTERS.contains(&"serve.request_ids.generated"));
        assert!(PRE_SEEDED_COUNTERS.contains(&"serve.request_ids.client"));
        assert!(PRE_SEEDED_COUNTERS.contains(&"serve.latency.overflow"));
        assert!(PRE_SEEDED_COUNTERS.contains(&"serve.crash_reports"));
        let unique: BTreeSet<&str> = PRE_SEEDED_COUNTERS.iter().copied().collect();
        assert_eq!(unique.len(), PRE_SEEDED_COUNTERS.len());
    }

    #[test]
    fn record_reports_out_of_range_samples() {
        let store = LatencyStore::new();
        let key = SeriesKey::new("run", "exec");
        assert!(!store.record(key, 5.0));
        assert!(store.record(key, 10_001.0));
        assert!(store.record(key, -1.0));
        // Overflowing samples still land (clamped) in the series.
        let snaps = store.snapshot();
        let (_, snap) = snaps
            .iter()
            .find(|(k, _)| *k == key)
            .expect("series exists");
        assert_eq!(snap.count, 3);
    }

    #[test]
    fn exposition_carries_the_build_info_gauge() {
        let m = MetricsRegistry::new();
        let store = LatencyStore::new();
        let text = prometheus_exposition(&m, &store);
        assert!(text.contains("# TYPE serve_build_info gauge"), "{text}");
        let line = text
            .lines()
            .find(|l| l.starts_with("serve_build_info{"))
            .expect("build info sample");
        assert!(line.contains(concat!("version=\"", env!("CARGO_PKG_VERSION"), "\"")));
        assert!(line.contains("plan_schema=\"1\""), "{line}");
        assert!(line.contains("proto=\"1\""), "{line}");
        assert!(line.ends_with("} 1"), "{line}");
    }
}
