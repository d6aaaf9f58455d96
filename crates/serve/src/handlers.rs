//! Request handlers: the work a pool job actually does.
//!
//! Every handler validates its inputs through `pas-analyze` on ingest
//! (the service-side equivalent of `pas check` exiting 2), resolves the
//! workload/platform the same way the CLI does, then plans or simulates.
//! The plan path is cached content-addressed by input digest and
//! degrades gracefully: when re-derivation fails but a cached plan
//! exists, the stale plan is served flagged `stale: true` (`PAS0507`).

use crate::cache::{CachedPlan, PlanCache};
use crate::pool::JobCtx;
use crate::proto::{object, report_value, Rejection, ReqKind, Request, WorkloadSpec};
use crate::service::ServeConfig;
use crate::telemetry::bump;
use andor_graph::AndOrGraph;
use dvfs_power::{Overheads, ProcessorModel};
use mp_sim::ExecTimeModel;
use pas_analyze::{check_application, check_graph, check_model, Code, DeadlineSpec};
use pas_core::{PlanArtifact, Scheme, Setup};
use pas_obs::profile::names;
use pas_obs::{log, MetricsRegistry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Default load when a request names neither `load` nor `deadline_ms`.
pub const DEFAULT_LOAD: f64 = 0.5;

fn cancelled_check(flag: &AtomicBool) -> Result<(), Rejection> {
    if flag.load(Ordering::SeqCst) {
        // The submitter already answered PAS0505; this reply is dropped,
        // the point is to stop burning the worker.
        Err(Rejection::new(Code::Pas0505, "request was cancelled"))
    } else {
        Ok(())
    }
}

/// Reads a file with a bounded retry-and-backoff for transient I/O
/// failures; each retry is tallied as `serve.io_retries`.
fn read_with_retry(path: &str, metrics: &Mutex<MetricsRegistry>) -> Result<String, Rejection> {
    const ATTEMPTS: u32 = 3;
    let mut last = String::new();
    for attempt in 0..ATTEMPTS {
        if attempt > 0 {
            bump(metrics, &["serve.io_retries"]);
            std::thread::sleep(Duration::from_millis(10 * u64::from(attempt)));
        }
        match std::fs::read_to_string(path) {
            Ok(text) => return Ok(text),
            Err(e) => last = e.to_string(),
        }
    }
    Err(Rejection::bad_param(format!(
        "reading workload '{path}' failed after {ATTEMPTS} attempts: {last}"
    )))
}

/// Resolves the request's workload to a graph plus its source label.
fn resolve_graph(
    req: &Request,
    metrics: &Mutex<MetricsRegistry>,
) -> Result<(AndOrGraph, String), Rejection> {
    match &req.workload {
        WorkloadSpec::Builtin(name) => {
            let g = match name.as_str() {
                "synthetic" => workloads::synthetic_app()
                    .lower()
                    .map_err(|e| Rejection::bad_param(format!("synthetic app: {e}")))?,
                "video" => workloads::VideoParams::default()
                    .build()
                    .map_err(|e| Rejection::bad_param(format!("video params: {e}")))?
                    .lower()
                    .map_err(|e| Rejection::bad_param(format!("video app: {e}")))?,
                "atr" => {
                    let mut rng = StdRng::seed_from_u64(req.seed);
                    workloads::AtrParams::default()
                        .build_jittered(&mut rng)
                        .map_err(|e| Rejection::bad_param(format!("atr params: {e}")))?
                        .lower()
                        .map_err(|e| Rejection::bad_param(format!("atr app: {e}")))?
                }
                other => {
                    return Err(Rejection::bad_param(format!(
                        "'{other}' is not a built-in workload"
                    )))
                }
            };
            Ok((g, name.clone()))
        }
        WorkloadSpec::Inline(v) => {
            let text = serde_json::to_string(v)
                .map_err(|e| Rejection::bad_param(format!("inline graph: {e}")))?;
            let g: AndOrGraph = serde_json::from_str(&text)
                .map_err(|e| Rejection::bad_param(format!("inline graph: {e}")))?;
            Ok((g, "<inline>".to_string()))
        }
        WorkloadSpec::Path(path) => {
            let text = read_with_retry(path, metrics)?;
            let g: AndOrGraph = serde_json::from_str(&text)
                .map_err(|e| Rejection::bad_param(format!("parsing {path}: {e}")))?;
            Ok((g, path.clone()))
        }
    }
}

fn resolve_model(spec: &str) -> Result<ProcessorModel, Rejection> {
    match spec {
        "transmeta" => Ok(ProcessorModel::transmeta5400()),
        "xscale" => Ok(ProcessorModel::xscale()),
        other => {
            if let Some(smin) = other.strip_prefix("continuous:") {
                let smin: f64 = smin
                    .parse()
                    .map_err(|_| Rejection::bad_param(format!("bad continuous smin: {smin}")))?;
                ProcessorModel::continuous(smin)
                    .ok_or_else(|| Rejection::bad_param("continuous smin must be in (0, 1]"))
            } else {
                Err(Rejection::bad_param(format!(
                    "unknown platform '{other}' (transmeta|xscale|continuous:<smin>)"
                )))
            }
        }
    }
}

/// The request's deadline spec, defaulting to `load = 0.5`.
fn deadline_spec(req: &Request) -> DeadlineSpec {
    match (req.load, req.deadline_ms) {
        (_, Some(d)) => DeadlineSpec::Deadline(d),
        (Some(l), None) => DeadlineSpec::Load(l),
        (None, None) => DeadlineSpec::Load(DEFAULT_LOAD),
    }
}

/// Ingest validation: graph + platform structural checks. Errors become
/// a `PAS0503` rejection carrying the full report.
fn ingest_check(
    g: &AndOrGraph,
    graph_src: &str,
    model: &ProcessorModel,
    model_src: &str,
) -> Result<(), Rejection> {
    let mut report = check_graph(g, graph_src);
    report.merge(check_model(model, model_src));
    if report.has_errors() {
        let (errors, warnings, _) = report.counts();
        let mut rej = Rejection::bad_param(format!(
            "request failed ingest validation: {errors} error(s), {warnings} warning(s)"
        ));
        rej.diagnostics = Some(report);
        return Err(rej);
    }
    Ok(())
}

fn build_setup(g: AndOrGraph, model: ProcessorModel, req: &Request) -> Result<Setup, Rejection> {
    let res = match deadline_spec(req) {
        DeadlineSpec::Deadline(d) => Setup::new(g, model, req.procs, d),
        DeadlineSpec::Load(l) => Setup::for_load(g, model, req.procs, l),
    };
    res.map_err(|e| Rejection::new(Code::Pas0508, format!("offline planning failed: {e}")))
}

/// Dispatches one parsed request to its handler. This is the closure the
/// worker pool runs under `catch_unwind`.
pub fn handle(
    cfg: &ServeConfig,
    cache: &PlanCache,
    metrics: &Mutex<MetricsRegistry>,
    req: &Request,
    ctx: &JobCtx,
) -> Result<Value, Rejection> {
    match req.kind {
        ReqKind::Plan => handle_plan(cfg, cache, metrics, req, ctx),
        ReqKind::Check => handle_check(metrics, req, ctx),
        ReqKind::Run => handle_run(metrics, req, ctx, false),
        ReqKind::Trace => handle_run(metrics, req, ctx, true),
        ReqKind::Montecarlo => handle_montecarlo(metrics, req, ctx),
        ReqKind::DebugPanic | ReqKind::DebugSleep | ReqKind::DebugFail => {
            handle_debug(cfg, req, &ctx.cancelled)
        }
        // Status/Metrics/Shutdown are answered by the service front-end
        // without queueing; reaching here is a dispatch bug worth
        // surfacing.
        ReqKind::Status | ReqKind::Metrics | ReqKind::Shutdown => Err(Rejection::bad_param(
            format!("kind '{}' is not a pooled request", req.kind.name()),
        )),
    }
}

fn handle_plan(
    cfg: &ServeConfig,
    cache: &PlanCache,
    metrics: &Mutex<MetricsRegistry>,
    req: &Request,
    ctx: &JobCtx,
) -> Result<Value, Rejection> {
    let (g, graph_src, model) = {
        let _v = ctx.span(names::REQ_VALIDATE);
        let (g, graph_src) = resolve_graph(req, metrics)?;
        let model = resolve_model(&req.platform)?;
        ingest_check(&g, &graph_src, &model, &req.platform)?;
        (g, graph_src, model)
    };
    cancelled_check(&ctx.cancelled)?;

    let graph_json = serde_json::to_string(&g)
        .map_err(|e| Rejection::bad_param(format!("serializing graph: {e}")))?;
    let (load, deadline_ms) = match deadline_spec(req) {
        DeadlineSpec::Load(l) => (Some(l), None),
        DeadlineSpec::Deadline(d) => (None, Some(d)),
    };
    let key = PlanCache::key(
        &graph_json,
        &req.platform,
        req.procs,
        load,
        deadline_ms,
        req.scheme.name(),
    );

    let cached = {
        let _c = ctx.span(names::REQ_CACHE_LOOKUP);
        cache.get(&key)
    };
    if let (Some(hit), false) = (&cached, req.revalidate) {
        bump(metrics, &["serve.cache.hits"]);
        log::emit(
            log::Level::Debug,
            "serve.handlers",
            "plan cache hit",
            vec![("digest", Value::Str(hit.digest.clone()))],
        );
        return plan_body(&key, hit, true, false);
    }
    if cached.is_none() {
        bump(metrics, &["serve.cache.misses"]);
        log::emit(
            log::Level::Debug,
            "serve.handlers",
            "plan cache miss",
            vec![("scheme", Value::Str(req.scheme.name().to_string()))],
        );
    }

    // Re-derivation runs under its own unwind guard so a crash here can
    // fall back to the last known-good plan instead of killing the job.
    let scheme = req.scheme;
    let fail_injected = cfg.debug_faults && req.fail_build;
    let built = catch_unwind(AssertUnwindSafe(|| -> Result<CachedPlan, Rejection> {
        if fail_injected {
            return Err(Rejection::new(
                Code::Pas0508,
                "injected plan re-derivation failure (debug-faults)",
            ));
        }
        // Cache misses record the offline catalog names, so a request
        // trace joins directly against `pas plan --profile` output.
        let artifact = {
            let _b = ctx.span(names::OFFLINE_BUILD);
            let setup = build_setup(g, model, req)?;
            PlanArtifact::from_setup(&setup, scheme, &graph_src, &req.platform)
        };
        let artifact_json = {
            let _s = ctx.span(names::ARTIFACT_SERIALIZE);
            artifact
                .to_json()
                .map_err(|e| Rejection::new(Code::Pas0508, format!("serializing plan: {e}")))?
        };
        let digest = {
            let _d = ctx.span(names::ARTIFACT_DIGEST);
            artifact
                .digest()
                .map_err(|e| Rejection::new(Code::Pas0508, format!("digesting plan: {e}")))?
        };
        Ok(CachedPlan {
            digest,
            artifact_json,
            scheme: scheme.name(),
        })
    }));

    match built {
        Ok(Ok(plan)) => {
            cache.put(&key, plan.clone());
            plan_body(&key, &plan, cached.is_some(), false)
        }
        Ok(Err(rej)) => match cached {
            Some(stale) => {
                bump(metrics, &["serve.stale_served"]);
                warn_stale(&stale);
                plan_body(&key, &stale, true, true)
            }
            None => Err(rej),
        },
        Err(payload) => match cached {
            Some(stale) => {
                bump(metrics, &["serve.stale_served"]);
                warn_stale(&stale);
                plan_body(&key, &stale, true, true)
            }
            // No known-good plan to degrade to: let the pool's unwind
            // guard turn this into a PAS0506 response.
            None => resume_unwind(payload),
        },
    }
}

fn warn_stale(stale: &CachedPlan) {
    log::emit(
        log::Level::Warn,
        "serve.handlers",
        "re-derivation failed; serving stale plan",
        vec![("digest", Value::Str(stale.digest.clone()))],
    );
}

fn plan_body(key: &str, plan: &CachedPlan, cached: bool, stale: bool) -> Result<Value, Rejection> {
    let artifact: Value = serde_json::from_str(&plan.artifact_json)
        .map_err(|e| Rejection::new(Code::Pas0508, format!("cached plan corrupt: {e}")))?;
    let mut pairs = vec![
        ("cache_key", Value::Str(key.to_string())),
        ("digest", Value::Str(plan.digest.clone())),
        ("scheme", Value::Str(plan.scheme.to_string())),
        ("cached", Value::Bool(cached)),
        ("stale", Value::Bool(stale)),
    ];
    if stale {
        pairs.push((
            "warning",
            Value::Str(format!(
                "{}: re-derivation failed; serving last known-good plan",
                Code::Pas0507.as_str()
            )),
        ));
    }
    pairs.push(("artifact", artifact));
    Ok(object(pairs))
}

fn handle_check(
    metrics: &Mutex<MetricsRegistry>,
    req: &Request,
    ctx: &JobCtx,
) -> Result<Value, Rejection> {
    let (g, graph_src, model) = {
        let _v = ctx.span(names::REQ_VALIDATE);
        let (g, graph_src) = resolve_graph(req, metrics)?;
        let model = resolve_model(&req.platform)?;
        (g, graph_src, model)
    };
    cancelled_check(&ctx.cancelled)?;
    let analysis = check_application(
        &g,
        &graph_src,
        &model,
        &req.platform,
        Overheads::paper_defaults(),
        req.procs,
        deadline_spec(req),
    );
    let (errors, warnings, _) = analysis.report.counts();
    let mut pairs = vec![
        ("clean", Value::Bool(analysis.report.is_clean())),
        ("errors", Value::UInt(errors as u64)),
        ("warnings", Value::UInt(warnings as u64)),
        ("diagnostics", report_value(&analysis.report)),
    ];
    match &analysis.feasibility {
        Some(f) => {
            pairs.push(("feasible", Value::Bool(f.static_slack_ms >= 0.0)));
            pairs.push(("worst_case_ms", Value::Float(f.worst_case_ms)));
            pairs.push(("deadline_ms", Value::Float(f.deadline_ms)));
            pairs.push(("static_slack_ms", Value::Float(f.static_slack_ms)));
        }
        None => pairs.push(("feasible", Value::Null)),
    }
    Ok(object(pairs))
}

fn handle_run(
    metrics: &Mutex<MetricsRegistry>,
    req: &Request,
    ctx: &JobCtx,
    traced: bool,
) -> Result<Value, Rejection> {
    let (g, model) = {
        let _v = ctx.span(names::REQ_VALIDATE);
        let (g, graph_src) = resolve_graph(req, metrics)?;
        let model = resolve_model(&req.platform)?;
        ingest_check(&g, &graph_src, &model, &req.platform)?;
        (g, model)
    };
    cancelled_check(&ctx.cancelled)?;
    let setup = build_setup(g, model, req)?;
    let etm = ExecTimeModel::paper_defaults();
    let mut rng = StdRng::seed_from_u64(req.seed);
    let real = setup.sample(&etm, &mut rng);
    cancelled_check(&ctx.cancelled)?;

    let scheme: Scheme = req.scheme;
    if traced {
        let mut reg = MetricsRegistry::new();
        let mut policy = setup.policy(scheme);
        let res = setup
            .simulator(false)
            .run_observed(policy.as_mut(), &real, None, None, Some(&mut reg))
            .map_err(|e| Rejection::new(Code::Pas0508, format!("simulation failed: {e}")))?;
        let events: Vec<(String, Value)> = reg
            .counters()
            .filter(|(name, _)| name.starts_with("events."))
            .map(|(name, v)| {
                (
                    name.trim_start_matches("events.").to_string(),
                    Value::UInt(v),
                )
            })
            .collect();
        Ok(object(vec![
            ("scheme", Value::Str(scheme.name().to_string())),
            ("seed", Value::UInt(req.seed)),
            ("horizon_ms", Value::Float(reg.end_time())),
            ("finish_ms", Value::Float(res.finish_time)),
            ("total_energy", Value::Float(res.total_energy())),
            ("speed_changes", Value::UInt(res.energy.speed_changes())),
            ("slack_reclaimed_ms", Value::Float(reg.slack_reclaimed_ms())),
            ("events", Value::Object(events)),
        ]))
    } else {
        let res = setup
            .run(scheme, &real)
            .map_err(|e| Rejection::new(Code::Pas0508, format!("simulation failed: {e}")))?;
        Ok(object(vec![
            ("scheme", Value::Str(scheme.name().to_string())),
            ("seed", Value::UInt(req.seed)),
            ("finish_ms", Value::Float(res.finish_time)),
            ("deadline_ms", Value::Float(res.deadline)),
            ("missed_deadline", Value::Bool(res.missed_deadline)),
            ("total_energy", Value::Float(res.total_energy())),
            ("speed_changes", Value::UInt(res.energy.speed_changes())),
        ]))
    }
}

/// `montecarlo`: a batched Monte-Carlo sweep through the batch engine
/// (see `docs/simulator.md`). The request's `batch` realizations are
/// executed in bounded slices with a cancellation check between slices,
/// so a long sweep stays cooperatively cancellable on the shared worker
/// pool; because the batch seeding is a pure function of
/// `(seed, global index)` and the distribution is a strict index-order
/// fold, slicing changes neither any draw nor any summary bit.
fn handle_montecarlo(
    metrics: &Mutex<MetricsRegistry>,
    req: &Request,
    ctx: &JobCtx,
) -> Result<Value, Rejection> {
    use mp_sim::{run_batch, BatchConfig, BatchDistribution};
    const SLICE: usize = 256;
    let (g, model) = {
        let _v = ctx.span(names::REQ_VALIDATE);
        let (g, graph_src) = resolve_graph(req, metrics)?;
        let model = resolve_model(&req.platform)?;
        ingest_check(&g, &graph_src, &model, &req.platform)?;
        (g, model)
    };
    cancelled_check(&ctx.cancelled)?;
    let setup = build_setup(g, model, req)?;
    let etm = ExecTimeModel::paper_defaults();
    let sim = setup.simulator(false);
    let scheme: Scheme = req.scheme;
    // Histogram geometry mirrors `pas compare --metrics --batch`.
    let e_max = setup.plan.num_procs as f64 * setup.plan.deadline * 1.05;
    let t_max = setup.plan.deadline * 1.5;
    let mut dist = BatchDistribution::new(e_max, t_max, setup.sections.len(), 200)
        .ok_or_else(|| Rejection::new(Code::Pas0508, "degenerate histogram bounds"))?;
    let mut events_sampled = 0u64;
    let mut runs_sampled = 0u64;
    let mut done = 0usize;
    while done < req.batch {
        cancelled_check(&ctx.cancelled)?;
        let mut cfg = BatchConfig::new((req.batch - done).min(SLICE), req.seed);
        cfg.start_index = req.start_index + done as u64;
        cfg.observe_stride = 64;
        let out = run_batch(&sim, &etm, None, || setup.policy(scheme), &cfg)
            .map_err(|e| Rejection::new(Code::Pas0508, format!("simulation failed: {e}")))?;
        for i in 0..out.len() {
            dist.push(
                out.energy[i],
                out.finish_time[i],
                out.missed[i],
                out.section_row(i),
            );
        }
        events_sampled += out.events_sampled;
        runs_sampled += out.runs_sampled;
        done += out.len();
    }
    let quantiles = |m: &mp_sim::MetricDistribution| {
        object(vec![
            ("mean", Value::Float(m.summary().mean())),
            ("ci95", Value::Float(m.summary().ci95())),
            ("p50", Value::Float(m.quantile(0.5).unwrap_or(0.0))),
            ("p95", Value::Float(m.quantile(0.95).unwrap_or(0.0))),
            ("p99", Value::Float(m.quantile(0.99).unwrap_or(0.0))),
            ("max", Value::Float(m.max())),
        ])
    };
    let sections = Value::Array(dist.sections().iter().map(quantiles).collect());
    let events_per_run = if runs_sampled > 0 {
        events_sampled as f64 / runs_sampled as f64
    } else {
        0.0
    };
    Ok(object(vec![
        ("scheme", Value::Str(scheme.name().to_string())),
        ("seed", Value::UInt(req.seed)),
        ("batch", Value::UInt(req.batch as u64)),
        ("start_index", Value::UInt(req.start_index)),
        ("deadline_ms", Value::Float(setup.plan.deadline)),
        ("energy", quantiles(dist.energy())),
        ("makespan_ms", quantiles(dist.makespan())),
        (
            "miss",
            object(vec![
                ("count", Value::UInt(dist.misses())),
                ("rate", Value::Float(dist.miss_rate())),
                ("ci95", Value::Float(dist.miss_ci95())),
            ]),
        ),
        ("sections", sections),
        ("events_per_realization", Value::Float(events_per_run)),
    ]))
}

fn handle_debug(
    cfg: &ServeConfig,
    req: &Request,
    cancelled: &AtomicBool,
) -> Result<Value, Rejection> {
    if !cfg.debug_faults {
        return Err(Rejection::bad_param(format!(
            "kind '{}' requires the service to run with --debug-faults",
            req.kind.name()
        )));
    }
    match req.kind {
        ReqKind::DebugPanic => panic!("injected handler panic (debug-faults)"),
        ReqKind::DebugFail => Err(Rejection::new(
            Code::Pas0508,
            "injected simulation failure (debug-faults)",
        )),
        ReqKind::DebugSleep => {
            // Sleep in small slices so cancellation stays responsive.
            let mut remaining = req.sleep_ms;
            while remaining > 0 {
                cancelled_check(cancelled)?;
                let slice = remaining.min(5);
                std::thread::sleep(Duration::from_millis(slice));
                remaining -= slice;
            }
            Ok(object(vec![("slept_ms", Value::UInt(req.sleep_ms))]))
        }
        _ => unreachable!("handle_debug only dispatches debug kinds"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_request;

    fn ctx() -> (ServeConfig, PlanCache, Mutex<MetricsRegistry>) {
        let cfg = ServeConfig {
            debug_faults: true,
            ..ServeConfig::default()
        };
        (cfg, PlanCache::new(8), Mutex::new(MetricsRegistry::new()))
    }

    fn run(
        cfg: &ServeConfig,
        cache: &PlanCache,
        metrics: &Mutex<MetricsRegistry>,
        line: &str,
    ) -> Result<Value, Rejection> {
        let req = parse_request(line).expect("request parses");
        handle(cfg, cache, metrics, &req, &JobCtx::detached())
    }

    #[test]
    fn plan_misses_then_hits_the_cache() {
        let (cfg, cache, metrics) = ctx();
        let line = r#"{"kind":"plan","workload":"synthetic","load":0.5}"#;
        let first = run(&cfg, &cache, &metrics, line).expect("plans");
        assert_eq!(first.get("cached"), Some(&Value::Bool(false)));
        assert_eq!(first.get("stale"), Some(&Value::Bool(false)));
        let digest = first.get("digest").and_then(Value::as_str).expect("digest");
        assert_eq!(digest.len(), 64);

        let second = run(&cfg, &cache, &metrics, line).expect("plans");
        assert_eq!(second.get("cached"), Some(&Value::Bool(true)));
        assert_eq!(second.get("digest").and_then(Value::as_str), Some(digest));
        let m = metrics.lock().expect("metrics");
        assert_eq!(m.counter("serve.cache.hits"), 1);
        assert_eq!(m.counter("serve.cache.misses"), 1);
    }

    #[test]
    fn failed_rederivation_serves_the_stale_plan() {
        let (cfg, cache, metrics) = ctx();
        let ok = r#"{"kind":"plan","workload":"synthetic","load":0.5}"#;
        run(&cfg, &cache, &metrics, ok).expect("seeds the cache");
        let broken = r#"{"kind":"plan","workload":"synthetic","load":0.5,"revalidate":true,"fail_build":true}"#;
        let body = run(&cfg, &cache, &metrics, broken).expect("degrades, not fails");
        assert_eq!(body.get("stale"), Some(&Value::Bool(true)));
        let warning = body
            .get("warning")
            .and_then(Value::as_str)
            .expect("warning");
        assert!(warning.contains("PAS0507"), "{warning}");
        let m = metrics.lock().expect("metrics");
        assert_eq!(m.counter("serve.stale_served"), 1);
    }

    #[test]
    fn failed_rederivation_without_a_cache_entry_is_an_error() {
        let (cfg, cache, metrics) = ctx();
        let broken = r#"{"kind":"plan","workload":"synthetic","fail_build":true}"#;
        let rej = run(&cfg, &cache, &metrics, broken).expect_err("no fallback");
        assert_eq!(rej.code, Code::Pas0508);
    }

    #[test]
    fn ingest_validation_rejects_with_diagnostics() {
        let (cfg, cache, metrics) = ctx();
        // An inline empty graph: deserializes fine, fails PAS0001.
        let line = r#"{"kind":"run","graph":{"nodes":[]}}"#;
        let rej = run(&cfg, &cache, &metrics, line).expect_err("rejected");
        assert_eq!(rej.code, Code::Pas0503);
        assert!(rej.diagnostics.is_some(), "carries the report");
    }

    #[test]
    fn run_and_trace_agree_on_the_seeded_realization() {
        let (cfg, cache, metrics) = ctx();
        let r = run(
            &cfg,
            &cache,
            &metrics,
            r#"{"kind":"run","workload":"synthetic","scheme":"gss","seed":7}"#,
        )
        .expect("runs");
        let t = run(
            &cfg,
            &cache,
            &metrics,
            r#"{"kind":"trace","workload":"synthetic","scheme":"gss","seed":7}"#,
        )
        .expect("traces");
        assert_eq!(r.get("finish_ms"), t.get("finish_ms"));
        assert_eq!(r.get("total_energy"), t.get("total_energy"));
        assert!(t.get("events").and_then(Value::as_object).is_some());
    }

    #[test]
    fn montecarlo_slices_fold_to_one_distribution() {
        let (cfg, cache, metrics) = ctx();
        // 512 realizations spanning two 256-realization slices must match a
        // client-side split at start_index 256 exactly (determinism contract).
        let whole = run(
            &cfg,
            &cache,
            &metrics,
            r#"{"kind":"montecarlo","workload":"synthetic","scheme":"gss","seed":7,"batch":512}"#,
        )
        .expect("runs");
        assert_eq!(whole.get("batch"), Some(&Value::UInt(512)));
        let miss = whole.get("miss").and_then(Value::as_object).expect("miss");
        assert!(miss.iter().any(|(k, _)| k == "rate"));
        let energy = whole
            .get("energy")
            .and_then(Value::as_object)
            .expect("energy");
        let p50 = energy
            .iter()
            .find(|(k, _)| k == "p50")
            .and_then(|(_, v)| v.as_f64())
            .expect("p50");
        assert!(p50 > 0.0);
        let sections = whole
            .get("sections")
            .and_then(Value::as_array)
            .expect("sections");
        assert!(!sections.is_empty());

        // A sliced continuation reports the requested window verbatim.
        let tail = run(
            &cfg,
            &cache,
            &metrics,
            r#"{"kind":"montecarlo","workload":"synthetic","scheme":"gss","seed":7,"batch":256,"start_index":256}"#,
        )
        .expect("runs");
        assert_eq!(tail.get("start_index"), Some(&Value::UInt(256)));
        assert_eq!(tail.get("batch"), Some(&Value::UInt(256)));
    }

    #[test]
    fn debug_kinds_require_the_flag() {
        let (mut cfg, cache, metrics) = ctx();
        cfg.debug_faults = false;
        let rej = run(&cfg, &cache, &metrics, r#"{"kind":"debug-panic"}"#).expect_err("gated");
        assert_eq!(rej.code, Code::Pas0503);
        assert!(rej.message.contains("--debug-faults"), "{}", rej.message);
    }
}
