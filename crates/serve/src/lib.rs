#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! `pas serve` — a fault-isolated, back-pressured plan/simulation
//! service with a content-addressed plan cache.
//!
//! The paper's offline/online split (expensive Theorem-1 analysis once,
//! cheap per-frame serving forever after) only pays off if the offline
//! half can run somewhere long-lived. This crate is that somewhere: a
//! daemon that accepts plan/check/run/trace requests as
//! newline-delimited JSON over TCP or a Unix socket, and answers every
//! single one with a structured response — whatever the request did.
//!
//! Robustness is the design center:
//!
//! - **Back-pressure, never unbounded queueing** — a fixed worker pool
//!   drains a bounded queue ([`queue::Bounded`]); beyond capacity,
//!   requests shed immediately with a retry-after hint (`PAS0504`). The
//!   front-ends ([`net`]) cap open connections at `workers + queue_cap`
//!   (the next one is shed the same way) and request lines at
//!   [`net::MAX_REQUEST_BYTES`] (`PAS0509`).
//! - **Deadlines with cancellation** — every request carries a deadline;
//!   on expiry the submitter answers `PAS0505` and flips a cooperative
//!   cancellation flag that workers poll.
//! - **Panic isolation** — handlers run under `catch_unwind`; a panic
//!   becomes a `PAS0506` response and the worker keeps serving
//!   ([`pool::WorkerPool`]).
//! - **Bounded retries** — transient I/O reading workload files retries
//!   with backoff, tallied as `serve.io_retries`.
//! - **Graceful degradation** — plans are cached content-addressed by an
//!   input digest ([`cache::PlanCache`], [`pas_core::sha256_hex`]); when
//!   re-derivation fails, the last known-good plan is served flagged
//!   `stale: true` (`PAS0507`).
//! - **Validation on ingest** — every request runs through `pas-analyze`
//!   before touching the simulator; failures are structured `PAS05xx`
//!   error responses, the service-side equivalent of `pas check`
//!   exiting 2.
//! - **Observable lifecycle** — queue depth, shed/timeout/retry/panic
//!   counters, cache hit rate and per-kind latency flow through
//!   [`pas_obs::MetricsRegistry`] and surface in `status` responses.
//!   Per-kind latency histograms (queue wait, execution, end-to-end,
//!   socket write, plan execution split by cache hit/miss) report
//!   p50/p95/p99 in `status`, and the `metrics` kind renders the whole
//!   surface in Prometheus text exposition format ([`telemetry`]).
//!   Every request carries a correlation id — client-chosen, or minted
//!   `auto-<seq>` at ingest — echoed in its response.
//! - **Structured logs** — `--log FILE|stderr` routes every service
//!   event through [`pas_obs::log`] as single-line JSON records, with
//!   the request's correlation id threaded through queue and workers.
//! - **Per-request timelines** — `"trace": true` echoes the request's
//!   span timeline (queue wait, validation, cache lookup, execution) in
//!   the response ([`reqtrace::Timeline`]); `--trace-out DIR` writes a
//!   Chrome-trace file per request, joinable against `pas plan
//!   --profile` output on cache misses.
//! - **Flight recorder** — a bounded black box of recent lifecycle
//!   events ([`flight::FlightRecorder`]) dumps a versioned crash report
//!   to `--crash-dir` on panic, deadline cancellation, or (under
//!   `--debug-faults`) shed; `status` reports the count and last path.
//! - **Graceful shutdown** — `SIGTERM`/`SIGINT` or an in-band `shutdown`
//!   request stops accepting and drains in-flight work under a deadline.
//!
//! The wire schema is documented in `docs/service.md`; the `PAS0501` –
//! `PAS0509` diagnostics in `docs/diagnostics.md`.
//!
//! # Example
//!
//! ```
//! use pas_serve::{ServeConfig, Service};
//!
//! let svc = Service::start(ServeConfig {
//!     workers: 2,
//!     ..ServeConfig::default()
//! });
//! let resp = svc.handle_line(r#"{"id":"1","kind":"status"}"#);
//! assert!(resp.contains("\"status\":\"ok\""));
//! assert_eq!(svc.shutdown(), 0);
//! ```

pub mod cache;
pub mod flight;
pub mod handlers;
pub mod net;
pub mod pool;
pub mod proto;
pub mod queue;
pub mod reqtrace;
pub mod service;
pub mod telemetry;

pub use cache::{CachedPlan, PlanCache};
pub use flight::{FlightEvent, FlightRecorder, CRASH_SCHEMA_VERSION};
pub use net::{run_server, Endpoints};
pub use pool::{Job, JobCtx, SubmitError, WorkerPool};
pub use proto::{parse_request, Rejection, ReqKind, Request, PROTO_VERSION};
pub use queue::Bounded;
pub use reqtrace::Timeline;
pub use service::{ServeConfig, Service};
pub use telemetry::{
    prometheus_exposition, LatencySnapshot, LatencyStore, SeriesKey, LATENCY_KINDS, LATENCY_STAGES,
    PRE_SEEDED_COUNTERS,
};
