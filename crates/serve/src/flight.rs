//! The flight recorder: a bounded black box of recent request lifecycle
//! events, dumped as a versioned crash report when something goes wrong.
//!
//! Every request passing through the service leaves a short trail here —
//! `ingest` when the line arrives, `dispatch` when a worker picks it up,
//! `respond` when the answer leaves, plus `shed`/`timeout`/`panic` on
//! the failure paths — in a bounded [`Window`] (the same windowing that
//! backs [`pas_obs::RingLog`]), so memory stays O(capacity) however long
//! the daemon runs.
//!
//! On a worker panic (`PAS0506`), a deadline cancellation (`PAS0505`),
//! or — under `--debug-faults` — a shed (`PAS0504`), the recorder dumps
//! a crash report to `--crash-dir`: the offending request and its
//! correlation id, the last-N lifecycle events, the tail of the
//! structured log ring, and a counter/gauge snapshot. The JSON schema is
//! versioned ([`CRASH_SCHEMA_VERSION`]) and documented in
//! `docs/schemas.md`; `status` reports the report count and the last
//! path written.

use pas_obs::{log, MetricsRegistry, Window};
use serde::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Version of the crash-report JSON schema; bumped on breaking changes,
/// embedded in every report as `crash_schema`.
pub const CRASH_SCHEMA_VERSION: u32 = 1;

/// One request lifecycle event in the black-box ring.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Process-global sequence number (1-based, gap-free).
    pub seq: u64,
    /// Monotonic milliseconds since the recorder was created.
    pub t_mono_ms: f64,
    /// Lifecycle stage: `ingest`, `dispatch`, `respond`, `shed`,
    /// `timeout` or `panic`.
    pub kind: &'static str,
    /// Correlation id of the request this event belongs to.
    pub corr_id: String,
    /// Free-form context (request kind, panic message, ...).
    pub detail: String,
}

impl FlightEvent {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("seq".to_string(), Value::UInt(self.seq)),
            ("t_mono_ms".to_string(), Value::Float(self.t_mono_ms)),
            ("kind".to_string(), Value::Str(self.kind.to_string())),
            ("corr_id".to_string(), Value::Str(self.corr_id.clone())),
            ("detail".to_string(), Value::Str(self.detail.clone())),
        ])
    }
}

/// The bounded black box plus crash-report bookkeeping. Shared between
/// the service front-end (ingest/respond/shed/timeout) and the worker
/// pool (dispatch/panic).
#[derive(Debug)]
pub struct FlightRecorder {
    events: Mutex<Window<FlightEvent>>,
    crash_dir: Option<PathBuf>,
    crashes: AtomicU64,
    last_path: Mutex<Option<String>>,
    epoch: Instant,
}

impl FlightRecorder {
    /// A recorder holding at most `cap` events; crash reports go to
    /// `crash_dir` (no dumps are written when `None`, but the ring still
    /// records).
    pub fn new(cap: usize, crash_dir: Option<String>) -> Self {
        FlightRecorder {
            events: Mutex::new(Window::new(cap)),
            crash_dir: crash_dir.map(PathBuf::from),
            crashes: AtomicU64::new(0),
            last_path: Mutex::new(None),
            epoch: Instant::now(),
        }
    }

    /// Appends one lifecycle event, evicting the oldest when full.
    pub fn record(&self, kind: &'static str, corr_id: &str, detail: &str) {
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        let seq = events.seen() + 1;
        events.push(FlightEvent {
            seq,
            t_mono_ms: self.epoch.elapsed().as_secs_f64() * 1e3,
            kind,
            corr_id: corr_id.to_string(),
            detail: detail.to_string(),
        });
    }

    /// The retained ring, oldest first.
    pub fn recent(&self) -> Vec<FlightEvent> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Crash reports written so far.
    pub fn crash_count(&self) -> u64 {
        self.crashes.load(Ordering::SeqCst)
    }

    /// Path of the most recent crash report, if any.
    pub fn last_crash_path(&self) -> Option<String> {
        self.last_path
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Dumps a crash report for the request identified by `corr_id`:
    /// trigger code, raw request line, the last-N flight events, the
    /// structured-log tail, and a `serve.*` counter/gauge snapshot.
    /// Written atomically (temp file + rename) as
    /// `crash-<n>-<sanitized id>.json` under the crash dir. Returns the
    /// path, or `None` when no crash dir is configured or the write
    /// failed — the daemon never dies for want of a black box.
    pub fn dump(
        &self,
        trigger: &str,
        corr_id: &str,
        raw_request: &str,
        metrics: &Mutex<MetricsRegistry>,
    ) -> Option<String> {
        let dir = self.crash_dir.as_ref()?;
        let events: Vec<Value> = self.recent().iter().map(FlightEvent::to_value).collect();
        let log_tail: Vec<Value> = log::recent().iter().map(log::LogRecord::to_value).collect();
        let (counters, gauges) = {
            let m = metrics.lock().unwrap_or_else(|e| e.into_inner());
            crate::telemetry::serve_counters_and_gauges(&m)
        };
        let t_wall_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let report = Value::Object(vec![
            (
                "crash_schema".to_string(),
                Value::UInt(u64::from(CRASH_SCHEMA_VERSION)),
            ),
            ("trigger".to_string(), Value::Str(trigger.to_string())),
            ("corr_id".to_string(), Value::Str(corr_id.to_string())),
            ("request".to_string(), Value::Str(raw_request.to_string())),
            ("t_wall_ms".to_string(), Value::UInt(t_wall_ms)),
            ("events".to_string(), Value::Array(events)),
            ("log_tail".to_string(), Value::Array(log_tail)),
            ("counters".to_string(), counters),
            ("gauges".to_string(), gauges),
        ]);
        let body = match serde_json::to_string(&report) {
            Ok(b) => b,
            Err(_) => return None,
        };
        if std::fs::create_dir_all(dir).is_err() {
            return None;
        }
        let n = self.crashes.load(Ordering::SeqCst) + 1;
        let stem = format!("crash-{n}-{}", crate::reqtrace::sanitize_id(corr_id));
        let path = dir.join(format!("{stem}.json"));
        let tmp = dir.join(format!(".{stem}.json.tmp"));
        if std::fs::write(&tmp, format!("{body}\n")).is_err() {
            return None;
        }
        if std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return None;
        }
        self.crashes.fetch_add(1, Ordering::SeqCst);
        let path = path.to_string_lossy().to_string();
        *self.last_path.lock().unwrap_or_else(|e| e.into_inner()) = Some(path.clone());
        log::emit(
            log::Level::Error,
            "serve.flight",
            "crash report written",
            vec![
                ("trigger", Value::Str(trigger.to_string())),
                ("path", Value::Str(path.clone())),
            ],
        );
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pas-flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ring_is_bounded_with_gap_free_seqs() {
        let fr = FlightRecorder::new(3, None);
        for i in 0..5 {
            fr.record("ingest", &format!("r{i}"), "run");
        }
        let events = fr.recent();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(events[2].corr_id, "r4");
    }

    #[test]
    fn dump_without_a_crash_dir_is_a_no_op() {
        let fr = FlightRecorder::new(4, None);
        fr.record("panic", "x", "boom");
        let metrics = Mutex::new(MetricsRegistry::new());
        assert!(fr.dump("PAS0506", "x", "{}", &metrics).is_none());
        assert_eq!(fr.crash_count(), 0);
        assert!(fr.last_crash_path().is_none());
    }

    #[test]
    fn dump_writes_a_schema_versioned_report() {
        let dir = temp_dir("dump");
        let fr = FlightRecorder::new(4, Some(dir.to_string_lossy().to_string()));
        fr.record("ingest", "bad:id", "debug-panic");
        fr.record("panic", "bad:id", "boom");
        let metrics = Mutex::new(MetricsRegistry::new());
        metrics.lock().expect("metrics").inc("serve.panics", 1);
        let path = fr
            .dump("PAS0506", "bad:id", r#"{"id":"bad:id"}"#, &metrics)
            .expect("report written");
        assert_eq!(fr.crash_count(), 1);
        assert_eq!(fr.last_crash_path().as_deref(), Some(path.as_str()));
        assert!(path.contains("crash-1-bad_id"), "{path}");
        let text = std::fs::read_to_string(&path).expect("readable");
        let v: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(v.get("crash_schema").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("trigger").and_then(Value::as_str), Some("PAS0506"));
        assert_eq!(v.get("corr_id").and_then(Value::as_str), Some("bad:id"));
        let events = v.get("events").and_then(Value::as_array).expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("kind").and_then(Value::as_str), Some("panic"));
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("serve.panics"))
                .and_then(Value::as_u64),
            Some(1)
        );
        assert!(v.get("log_tail").and_then(Value::as_array).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
