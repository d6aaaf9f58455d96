//! Command implementations. Every command returns the text to print, so
//! the whole tool is unit-testable without spawning processes.

use crate::args::{Args, Command, SchemeArg};
use crate::source::{load_app, load_fault_plan, load_model};
use andor_graph::{app_profile, to_dot, SectionGraph};
use mp_sim::trace::{lane_stats, power_profile, render_gantt, GanttOptions};
use mp_sim::{for_each_realization, run_batch_paired, BatchConfig, ExecTimeModel, RunScratch};
use pas_core::{Scheme, Setup, SetupError};
use pas_stats::{Histogram, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Dispatches a parsed command line.
pub fn execute(args: &Args) -> Result<String, String> {
    if args.fault_plan.is_some() && args.command != Command::Run && args.command != Command::Trace {
        return Err("--fault-plan applies only to `run` and `trace`".into());
    }
    match args.command {
        Command::Inspect => inspect(args),
        Command::Plan => with_profile(args, pas_obs::profile::names::CLI_PLAN, || plan(args)),
        Command::Run => run_one(args),
        Command::Compare => compare(args),
        Command::Dot => dot(args),
        Command::Optimal => optimal(args),
        Command::Export => export(args),
        Command::Trace => trace_cmd(args),
        Command::Bench => bench_cmd(args),
        Command::Check => with_profile(args, pas_obs::profile::names::CLI_CHECK, || {
            crate::check::check_cmd(args)
        }),
        Command::Serve => serve_cmd(args),
    }
}

/// Runs `body` under the span profiler when `--profile` was given: the
/// whole command becomes the root span, and the collected tree is either
/// appended to the command output or written to `--profile-out` as a
/// Chrome trace (open in Perfetto / `chrome://tracing`). Profiling only
/// observes the wall clock — command output and artifacts are
/// byte-identical with it on or off.
fn with_profile(
    args: &Args,
    root: &'static str,
    body: impl FnOnce() -> Result<String, String>,
) -> Result<String, String> {
    use pas_obs::profile;
    if !args.profile {
        return body();
    }
    // Other in-process profiler users (the bench harness, parallel
    // tests) must not drain our spans mid-command.
    let _session = profile::exclusive();
    profile::enable();
    let result = {
        let _root = profile::span(root);
        body()
    };
    profile::disable();
    let spans = profile::take();
    let mut out = result?;
    match &args.profile_out {
        Some(path) => {
            std::fs::write(path, profile::chrome_trace(&spans))
                .map_err(|e| format!("writing {path}: {e}"))?;
            if !out.ends_with('\n') {
                out.push('\n');
            }
            let _ = writeln!(out, "profile: wrote {path} ({} spans)", spans.len());
        }
        None => {
            if !out.ends_with('\n') {
                out.push('\n');
            }
            let _ = writeln!(out, "\nprofile (offline-phase wall clock):");
            out.push_str(&profile::render_tree(&spans));
        }
    }
    Ok(out)
}

/// Cheap static checks run automatically before `run`, `trace` and
/// `bench`: graph well-formedness and platform validity. Errors abort
/// with rendered diagnostics; warnings are ignored here (run `pas check`
/// for the full report including feasibility).
fn precheck(args: &Args) -> Result<(), String> {
    let graph = crate::source::load_app_unvalidated(args)?;
    let model = load_model(&args.model)?;
    let mut report = pas_analyze::check_graph(&graph, &args.app);
    report.merge(pas_analyze::check_model(&model, &args.model));
    if report.has_errors() {
        return Err(format!(
            "pre-run check failed:\n{}",
            report.render_human().trim_end()
        ));
    }
    Ok(())
}

fn build_setup(args: &Args) -> Result<Setup, String> {
    let graph = load_app(args)?;
    let model = load_model(&args.model)?;
    let result = match (args.deadline, args.load) {
        (Some(d), None) => Setup::new(graph, model, args.procs, d),
        (None, Some(l)) => Setup::for_load(graph, model, args.procs, l),
        (None, None) => Setup::for_load(graph, model, args.procs, 0.5),
        (Some(_), Some(_)) => unreachable!("rejected at parse time"),
    };
    result.map_err(|e| match e {
        SetupError::Offline(pas_core::OfflineError::Infeasible {
            worst_finish,
            deadline,
        }) => format!(
            "infeasible: the worst case needs {worst_finish:.2} ms but the \
             deadline is {deadline:.2} ms"
        ),
        other => other.to_string(),
    })
}

fn inspect(args: &Args) -> Result<String, String> {
    let graph = load_app(args)?;
    let sections = SectionGraph::build(&graph).map_err(|e| format!("section structure: {e}"))?;
    let profile = app_profile(&graph, &sections);
    let mut out = String::new();
    let _ = writeln!(out, "application: {}", args.app);
    let _ = writeln!(
        out,
        "  nodes: {} ({} tasks, {} OR, {} AND/sync)",
        graph.len(),
        graph.num_tasks(),
        graph.num_or_nodes(),
        graph.len() - graph.num_tasks() - graph.num_or_nodes()
    );
    let _ = writeln!(out, "  sections: {}", sections.len());
    let _ = writeln!(out, "  scenarios: {}", profile.scenarios);
    let _ = writeln!(
        out,
        "  work (WCET): expected {:.1} ms, range {:.1}..{:.1} ms",
        profile.expected_wcet, profile.wcet_range.0, profile.wcet_range.1
    );
    let _ = writeln!(
        out,
        "  work (ACET): expected {:.1} ms",
        profile.expected_acet
    );
    let _ = writeln!(
        out,
        "  worst critical path: {:.1} ms (mean parallelism {:.2})",
        profile.worst_critical_path, profile.mean_parallelism
    );
    let _ = writeln!(out, "\nsections (chain order):");
    for (i, section) in sections.sections().iter().enumerate() {
        let names: Vec<&str> = section
            .nodes
            .iter()
            .map(|&n| graph.node(n).name.as_str())
            .take(8)
            .collect();
        let ellipsis = if section.nodes.len() > 8 { ", …" } else { "" };
        let exit = section
            .exit_or
            .map(|o| graph.node(o).name.clone())
            .unwrap_or_else(|| "end".into());
        let _ = writeln!(
            out,
            "  s{i} depth {}: {} node(s) [{}{}] -> {}",
            section.depth,
            section.nodes.len(),
            names.join(", "),
            ellipsis,
            exit
        );
    }
    Ok(out)
}

/// True when a `plan` positional source names a platform rather than a
/// workload: a builtin model spec, or a JSON file whose top level carries
/// the `ProcessorModel` `"kind"` tag.
fn is_platform_spec(spec: &str) -> bool {
    if matches!(spec, "transmeta" | "xscale") || spec.starts_with("continuous:") {
        return true;
    }
    std::fs::read_to_string(spec)
        .ok()
        .and_then(|text| serde_json::from_str::<serde::Value>(&text).ok())
        .is_some_and(|v| v.get("kind").is_some() && v.get("nodes").is_none())
}

fn serve_cmd(args: &Args) -> Result<String, String> {
    use pas_obs::log;
    if let Some(dest) = &args.log {
        let level = log::Level::parse(&args.log_level)
            .ok_or_else(|| format!("bad --log-level '{}'", args.log_level))?;
        let sink: Box<dyn std::io::Write + Send> = if dest == "stderr" {
            Box::new(std::io::stderr())
        } else {
            Box::new(
                std::fs::File::create(dest)
                    .map_err(|e| format!("pas serve: opening log {dest}: {e}"))?,
            )
        };
        log::init(Some(sink), level, log::DEFAULT_RING_CAP);
    }
    let cfg = pas_serve::ServeConfig {
        workers: args.workers,
        queue_cap: args.queue,
        default_timeout_ms: args.timeout_ms,
        debug_faults: args.debug_faults,
        crash_dir: args.crash_dir.clone(),
        trace_dir: args.trace_out.clone(),
        ..pas_serve::ServeConfig::default()
    };
    let eps = pas_serve::Endpoints {
        tcp: args.listen.clone(),
        unix: args.socket.clone(),
    };
    let out = pas_serve::run_server(cfg, &eps).map(|summary| format!("{summary}\n"));
    // Flush and close the log file even when the server exits with a
    // configuration error.
    log::shutdown();
    out
}

fn plan(args: &Args) -> Result<String, String> {
    // Positional sources override the `--app`/`--model` defaults, so the
    // documented invocation `pas plan workload.json xscale --out p.json`
    // works without flag spelling.
    let mut eff = args.clone();
    for spec in &args.sources {
        if is_platform_spec(spec) {
            eff.model = spec.clone();
        } else {
            eff.app = spec.clone();
        }
    }
    let args = &eff;
    let setup = build_setup(args)?;
    if let Some(path) = &args.out {
        let scheme = match args.scheme {
            SchemeArg::Scheme(s) => s,
            SchemeArg::Oracle => {
                return Err(
                    "the oracle has no serializable plan (its schedule is per-realization); \
                     pick one of npm|spm|gss|ss1|ss2|as"
                        .into(),
                )
            }
        };
        let artifact = pas_core::PlanArtifact::from_setup(&setup, scheme, &args.app, &args.model);
        let json = artifact
            .to_json()
            .map_err(|e| format!("serializing: {e}"))?;
        let digest = artifact.digest().map_err(|e| format!("digesting: {e}"))?;
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        return Ok(format!(
            "wrote {path} (schema v{}, scheme {}, {} nodes, {} sections)\ndigest sha256:{digest}\n",
            pas_core::PLAN_SCHEMA_VERSION,
            scheme.name(),
            setup.graph.len(),
            setup.sections.len()
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "off-line phase — {} processors, deadline {:.2} ms, model {}",
        setup.plan.num_procs,
        setup.plan.deadline,
        setup.model.name()
    );
    let _ = writeln!(
        out,
        "  Tw (worst finish) = {:.2} ms   Ta (average finish) = {:.2} ms",
        setup.plan.worst_total, setup.plan.avg_total
    );
    let _ = writeln!(
        out,
        "  load = {:.3}   static slack = {:.2} ms",
        setup.plan.load(),
        setup.plan.static_slack()
    );
    if let SchemeArg::Scheme(scheme) = args.scheme {
        let artifact = pas_core::PlanArtifact::from_setup(&setup, scheme, &args.app, &args.model);
        let digest = artifact.digest().map_err(|e| format!("digesting: {e}"))?;
        let _ = writeln!(out, "  plan digest ({}) = sha256:{digest}", scheme.name());
    }
    let mut pmps: Vec<_> = setup.plan.branch_worst.iter().collect();
    pmps.sort_by_key(|((or, k), _)| (*or, *k));
    let _ = writeln!(out, "\nPMP statistics (per OR branch):");
    for ((or, k), tw) in pmps {
        let ta = setup.plan.branch_avg[&(*or, *k)];
        let _ = writeln!(
            out,
            "  {} branch {k}: Tw_k = {tw:.2} ms, Ta_k = {ta:.2} ms",
            setup.graph.node(*or).name
        );
    }
    let _ = writeln!(
        out,
        "\ncanonical schedule (per section, worst case at full speed):"
    );
    for (sid, order) in setup.plan.dispatch.per_section.iter().enumerate() {
        if order.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "  section s{sid} (length {:.2} ms):",
            setup.plan.section_worst_len[sid]
        );
        for (&node, &start) in order.iter().zip(&setup.plan.canonical_start_rel[sid]) {
            let n = setup.graph.node(node);
            if !n.kind.is_computation() {
                continue;
            }
            let lst = setup.plan.lst[node.index()].expect("computation node");
            let _ = writeln!(
                out,
                "    {:<22} canonical [{:>7.2}, {:>7.2}]   latest start {:>8.2} ms",
                n.name,
                start,
                start + n.kind.wcet(),
                lst
            );
        }
    }
    Ok(out)
}

fn run_one(args: &Args) -> Result<String, String> {
    precheck(args)?;
    let setup = build_setup(args)?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let real = setup.sample(&ExecTimeModel::paper_defaults(), &mut rng);
    let fault_plan = match &args.fault_plan {
        Some(path) => Some(load_fault_plan(path)?),
        None => None,
    };
    // The seed doubles as the fault plan's run index, so `--seed` varies
    // the drawn faults alongside the realization.
    let fault_set = fault_plan
        .as_ref()
        .map(|p| p.realize(&setup.graph, args.seed));
    let res = match args.scheme {
        SchemeArg::Scheme(scheme) => {
            let mut policy = setup.policy(scheme);
            setup
                .simulator(true)
                .run_full(policy.as_mut(), &real, None, fault_set.as_ref())
        }
        SchemeArg::Oracle => {
            let mut oracle = setup
                .oracle(&real)
                .map_err(|e| format!("simulation: {e}"))?;
            setup
                .simulator(true)
                .run_full(&mut oracle, &real, None, fault_set.as_ref())
        }
    }
    .map_err(|e| format!("simulation: {e}"))?;
    let scheme_name = match args.scheme {
        SchemeArg::Scheme(s) => s.name().to_string(),
        SchemeArg::Oracle => "Oracle".into(),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {} ({} processors, seed {})",
        scheme_name,
        setup.model.name(),
        setup.plan.num_procs,
        args.seed
    );
    let status = if res.status.met() {
        "met".to_string()
    } else {
        format!("MISSED by {:.2} ms", res.status.missed_by())
    };
    let _ = writeln!(
        out,
        "finished at {:.2} ms of {:.2} ms — deadline {}",
        res.finish_time, res.deadline, status
    );
    if fault_plan.is_some() {
        let f = res.faults;
        let _ = writeln!(
            out,
            "faults: {} injected ({} overruns, {} speed failures, {} stalls), \
             {} detected, {} recoveries, recovery energy {:.3}",
            f.total_injected(),
            f.overruns_injected,
            f.speed_failures_injected,
            f.stalls_injected,
            f.overruns_detected,
            f.recoveries,
            f.recovery_energy
        );
    }
    let _ = writeln!(
        out,
        "energy {:.3} (busy {:.3}, idle {:.3}, transitions {:.3}), {} speed changes",
        res.total_energy(),
        res.energy.busy_energy(),
        res.energy.idle_energy(),
        res.energy.transition_energy(),
        res.energy.speed_changes()
    );
    let trace = res.trace.as_ref().expect("tracing enabled");
    for lane in lane_stats(
        trace,
        setup.plan.num_procs,
        res.deadline.max(res.finish_time),
    )
    .map_err(|e| format!("trace analysis: {e}"))?
    {
        let _ = writeln!(
            out,
            "  p{}: {} tasks, busy {:.1} ms, utilization {:.0}%, mean speed {:.2}",
            lane.proc,
            lane.tasks,
            lane.busy,
            lane.utilization * 100.0,
            lane.mean_speed
        );
    }
    if args.gantt {
        let _ = writeln!(out);
        let opts = GanttOptions {
            width: 72,
            deadline: Some(res.deadline),
        };
        out.push_str(&render_gantt(
            trace,
            &setup.graph,
            setup.plan.num_procs,
            &opts,
        ));
        // Dynamic-power timeline under the Gantt: mean normalized power
        // per window, rendered as deciles of the theoretical maximum
        // (num_procs · P_max).
        let horizon = res.deadline.max(res.finish_time);
        let powers: Vec<f64> = trace
            .iter()
            .map(|e| setup.model.quantize_up(e.speed).power)
            .collect();
        let profile = power_profile(trace, &powers, 72, horizon)
            .map_err(|e| format!("trace analysis: {e}"))?;
        let row: String = profile
            .iter()
            .map(|p| {
                let decile = (p / setup.plan.num_procs as f64 * 10.0)
                    .round()
                    .clamp(0.0, 9.0) as u8;
                (b'0' + decile) as char
            })
            .collect();
        let _ = writeln!(out, "pw {row}");
    }
    Ok(out)
}

fn compare(args: &Args) -> Result<String, String> {
    /// One run's numbers; `metrics` only under `--metrics`, for schemes.
    struct Row {
        energy: f64,
        changes: u64,
        missed: bool,
        metrics: Option<RunMetrics>,
    }
    struct RunMetrics {
        events: u64,
        slack_ms: f64,
        counter_mismatch: bool,
    }
    impl Row {
        fn new(res: &mp_sim::RunOutcome, metrics: Option<RunMetrics>) -> Self {
            Self {
                energy: res.energy.total_energy(),
                changes: res.energy.speed_changes(),
                missed: res.missed_deadline,
                metrics,
            }
        }
    }
    let setup = build_setup(args)?;
    if let Some(batch) = args.batch {
        return compare_batch(args, &setup, batch);
    }
    let etm = ExecTimeModel::paper_defaults();
    let sim = setup.simulator(false);
    let n = Scheme::ALL.len() + 1;
    // Every scheme, then the oracle, on each realization: row-major
    // `reps × n`. `--metrics` adds per-run MetricsRegistry aggregation
    // plus an engine counter cross-check at Monte-Carlo scale (every run
    // must agree between the event-derived and meter speed-change counts).
    let chunks = for_each_realization(
        &sim,
        &etm,
        None,
        &BatchConfig::new(args.reps, args.seed),
        |len| {
            let policies: Vec<_> = Scheme::ALL.iter().map(|s| setup.policy(*s)).collect();
            ((policies, RunScratch::new()), Vec::with_capacity(len * n))
        },
        |(policies, scratch), rows, draw| {
            for policy in policies.iter_mut() {
                let mut reg = args.metrics.then(mp_sim::MetricsRegistry::new);
                let observer = reg.as_mut().map(|r| r as &mut dyn mp_sim::Observer);
                let res =
                    sim.run_into(scratch, policy.as_mut(), draw.real, None, None, observer)?;
                let metrics = reg.map(|reg| RunMetrics {
                    events: pas_obs::EventKind::ALL
                        .iter()
                        .map(|k| reg.counter(&format!("events.{}", k.name())))
                        .sum(),
                    slack_ms: reg.slack_reclaimed_ms(),
                    counter_mismatch: reg.speed_changes() != res.energy.speed_changes(),
                });
                rows.push(Row::new(&res, metrics));
            }
            let mut bound = setup.oracle(draw.real)?;
            let res = sim.run_into(scratch, &mut bound, draw.real, None, None, None)?;
            rows.push(Row::new(&res, None));
            Ok(())
        },
    )
    .map_err(|e| format!("simulation: {e}"))?;
    let mut energies: Vec<Summary> = vec![Summary::new(); n];
    let mut changes: Vec<Summary> = vec![Summary::new(); n];
    let mut misses = vec![0u64; n];
    // Upper bound for the energy histograms: NPM busy+idle over the whole
    // horizon on every processor.
    let e_max = setup.plan.num_procs as f64 * setup.plan.deadline * 1.05;
    let mut hists: Vec<Histogram> = (0..n)
        .map(|_| Histogram::new(0.0, e_max, 200).expect("valid range"))
        .collect();
    let mut ev_runs: Vec<Summary> = vec![Summary::new(); n];
    let mut slack_runs: Vec<Summary> = vec![Summary::new(); n];
    let mut counter_mismatches = 0u64;
    for (k, row) in chunks.iter().flatten().enumerate() {
        let i = k % n;
        energies[i].add(row.energy);
        hists[i].add(row.energy);
        changes[i].add(row.changes as f64);
        misses[i] += row.missed as u64;
        if let Some(m) = &row.metrics {
            ev_runs[i].add(m.events as f64);
            slack_runs[i].add(m.slack_ms);
            counter_mismatches += m.counter_mismatch as u64;
        }
    }
    let npm = energies[0].mean();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} replications on {} ({} processors, load {:.2})",
        args.reps,
        setup.model.name(),
        setup.plan.num_procs,
        setup.plan.load()
    );
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>10} {:>10} {:>14} {:>8}",
        "scheme", "norm.energy", "±95% CI", "p95", "changes/run", "misses"
    );
    let names: Vec<String> = Scheme::ALL
        .iter()
        .map(|s| s.name().to_string())
        .chain(std::iter::once("Oracle".to_string()))
        .collect();
    for (i, name) in names.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<8} {:>12.4} {:>10.4} {:>10.4} {:>14.2} {:>8}",
            name,
            energies[i].mean() / npm,
            energies[i].ci95() / npm,
            hists[i].quantile(0.95).unwrap_or(f64::NAN) / npm,
            changes[i].mean(),
            misses[i]
        );
    }
    if args.metrics {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "metrics registry aggregated over {} replications:",
            args.reps
        );
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>10} {:>14} {:>10}",
            "scheme", "events/run", "±95% CI", "slack ms/run", "±95% CI"
        );
        for (i, scheme) in Scheme::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<8} {:>12.1} {:>10.2} {:>14.2} {:>10.2}",
                scheme.name(),
                ev_runs[i].mean(),
                ev_runs[i].ci95(),
                slack_runs[i].mean(),
                slack_runs[i].ci95()
            );
        }
        let _ = writeln!(
            out,
            "engine counter cross-check: {} runs, {} speed-change mismatches",
            args.reps * Scheme::ALL.len(),
            counter_mismatches
        );
    }
    Ok(out)
}

/// `compare --metrics --batch N`: the batched Monte-Carlo engine over
/// every scheme, reporting full distributions (quantiles and tails)
/// instead of the sequential loop's means. Realization `i` is drawn once,
/// from `realization_seed(--seed, i)`, and every scheme runs on it, so the
/// paired design of the paper's figures carries over to the
/// distributions; the oracle is excluded (it needs a clairvoyant probe
/// per realization and is a bound, not a scheme).
fn compare_batch(args: &Args, setup: &Setup, batch: usize) -> Result<String, String> {
    use mp_sim::BatchDistribution;
    let etm = ExecTimeModel::paper_defaults();
    let sim = setup.simulator(false);
    // Histogram geometry mirrors the sequential path's: NPM busy+idle
    // over the whole horizon bounds the energy axis; overruns land in the
    // makespan histogram's top bin (the exact max is tracked separately).
    let e_max = setup.plan.num_procs as f64 * setup.plan.deadline * 1.05;
    let t_max = setup.plan.deadline * 1.5;
    let mut cfg = BatchConfig::new(batch, args.seed);
    // Sampled observability: wire an event counter to every 64th
    // realization. Emission is additive, so the numbers are identical to
    // unobserved runs — this only prices the event stream.
    cfg.observe_stride = 64;
    let focus = match args.scheme {
        SchemeArg::Scheme(s) => s,
        SchemeArg::Oracle => Scheme::Gss,
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "batched Monte-Carlo: {} realizations/scheme on {} ({} processors, load {:.2}), base seed {}",
        batch,
        setup.model.name(),
        setup.plan.num_procs,
        setup.plan.load(),
        args.seed
    );
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8}",
        "scheme", "mean", "p50", "p95", "p99", "max", "miss rate", "±95%"
    );
    let mut npm_mean = f64::NAN;
    let mut makespans: Vec<(String, BatchDistribution)> = Vec::new();
    let mut events_per_run = Summary::new();
    let outs = run_batch_paired(
        &sim,
        &etm,
        None,
        || Scheme::ALL.iter().map(|s| setup.policy(*s)).collect(),
        &cfg,
    )
    .map_err(|e| format!("simulation: {e}"))?;
    for (scheme, bout) in Scheme::ALL.iter().zip(&outs) {
        if let Some(e) = bout.events_per_realization() {
            events_per_run.add(e);
        }
        let dist = BatchDistribution::from_output(bout, e_max, t_max, 200)
            .ok_or_else(|| "degenerate histogram bounds".to_string())?;
        let q = |p: f64| dist.energy().quantile(p).unwrap_or(f64::NAN);
        if npm_mean.is_nan() {
            // Scheme::ALL[0] is NPM: the figures' normalization base.
            npm_mean = dist.energy().summary().mean();
        }
        let _ = writeln!(
            out,
            "{:<8} {:>10.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>10.4} {:>8.4}",
            scheme.name(),
            dist.energy().summary().mean() / npm_mean,
            q(0.5) / npm_mean,
            q(0.95) / npm_mean,
            q(0.99) / npm_mean,
            dist.energy().max() / npm_mean,
            dist.miss_rate(),
            dist.miss_ci95()
        );
        makespans.push((scheme.name().to_string(), dist));
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "makespan distribution (ms, deadline {:.1}):",
        setup.plan.deadline
    );
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>8} {:>8} {:>8}",
        "scheme", "p50", "p95", "p99", "max"
    );
    for (name, dist) in &makespans {
        let q = |p: f64| dist.makespan().quantile(p).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "{:<8} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            name,
            q(0.5),
            q(0.95),
            q(0.99),
            dist.makespan().max()
        );
    }
    if let Some((_, dist)) = makespans.iter().find(|(name, _)| *name == focus.name()) {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "per-section energy quantiles ({}, {} sections):",
            focus.name(),
            dist.sections().len()
        );
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>8}",
            "section", "p50", "p95", "p99"
        );
        for (k, sec) in dist.sections().iter().enumerate() {
            let q = |p: f64| sec.quantile(p).unwrap_or(f64::NAN);
            let _ = writeln!(
                out,
                "S{:<9} {:>8.3} {:>8.3} {:>8.3}",
                k,
                q(0.5),
                q(0.95),
                q(0.99)
            );
        }
    }
    let _ = writeln!(
        out,
        "events/run {:.1} (observer sampled every {}th realization)",
        events_per_run.mean(),
        cfg.observe_stride
    );
    Ok(out)
}

fn optimal(args: &Args) -> Result<String, String> {
    use pas_core::optimal_assignment;
    let setup = build_setup(args)?;
    let n_tasks = setup.graph.num_tasks();
    let opt = optimal_assignment(
        &setup.graph,
        &setup.sections,
        &setup.plan.dispatch,
        &setup.model,
        &setup.sim_config(false),
        20_000_000,
    )
    .map_err(|e| format!("simulation: {e}"))?
    .ok_or_else(|| {
        format!(
            "search space too large ({n_tasks} tasks × {} levels — exhaustive              search is for tiny instances) or model has no discrete levels",
            setup.model.num_levels().map_or(0, |n| n)
        )
    })?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "exhaustive optimum over per-task level assignments          ({} assignments evaluated):",
        opt.evaluated
    );
    let mut named: Vec<(String, f64)> = opt
        .points
        .iter()
        .map(|(id, p)| (setup.graph.node(*id).name.clone(), p.speed))
        .collect();
    named.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, speed) in named {
        let _ = writeln!(out, "  {:<22} speed {:.2}", name, speed);
    }
    let _ = writeln!(
        out,
        "worst-case energy {:.3} (deadline {:.1} ms)",
        opt.worst_case_energy, setup.plan.deadline
    );
    // Compare the on-line schemes' worst-case energy on the same instance.
    let _ = writeln!(out, "\nworst-case energy over the optimum:");
    for scheme in Scheme::ALL {
        let mut worst = 0.0_f64;
        for (s, _) in setup.sections.enumerate_scenarios(&setup.graph) {
            let real = mp_sim::Realization::worst_case(&setup.graph, s);
            let energy = setup
                .run(scheme, &real)
                .map_err(|e| format!("simulation: {e}"))?
                .total_energy();
            worst = worst.max(energy);
        }
        let _ = writeln!(
            out,
            "  {:<7} {:.3}x",
            scheme.name(),
            worst / opt.worst_case_energy
        );
    }
    Ok(out)
}

/// What the summary needs to know about a run, regardless of whether it
/// was a single realization or a streamed frame sequence.
struct RunDigest {
    /// Status line(s) printed under the title.
    header: String,
    /// Engine meter total over the whole run/stream.
    total_energy: f64,
    /// Engine meter speed-change count.
    meter_speed_changes: u64,
}

/// Simulates one realization — or, with `--frames N`, a stream of `N`
/// back-to-back frames — under an [`mp_sim::Observer`] and exports the
/// event stream. `--format chrome` and `jsonl` write through streaming
/// sinks: with `--out` the file fills incrementally as the engine emits
/// events, so event memory stays O(1) however long the stream. `csv`
/// emits the derived metrics registry and `summary` (the default) a
/// human-readable digest with the per-category energy ledger and its
/// per-section slices. `--proc` and `--kinds` narrow the chrome/jsonl
/// exports; summary and csv always aggregate the full stream so their
/// totals stay meaningful.
fn trace_cmd(args: &Args) -> Result<String, String> {
    use mp_sim::MetricsRegistry;
    use pas_obs::{
        ChromeSink, EventKind, Fanout, Filtered, JsonlSink, NullObserver, Observer, RingLog,
        SectionedLedger,
    };
    if !matches!(args.format.as_str(), "chrome" | "jsonl" | "csv" | "summary") {
        return Err(format!(
            "unknown trace format '{}' (expected chrome, jsonl, csv or summary)",
            args.format
        ));
    }
    let kind_filter: Option<Vec<EventKind>> = match &args.kinds {
        Some(spec) => Some(
            spec.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| {
                    EventKind::parse(s).ok_or_else(|| {
                        let known: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
                        format!(
                            "unknown event kind '{s}' (expected one of: {})",
                            known.join(", ")
                        )
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
        ),
        None => None,
    };
    precheck(args)?;
    let setup = build_setup(args)?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let etm = ExecTimeModel::paper_defaults();
    if args.frames.is_some() {
        if args.fault_plan.is_some() {
            return Err(
                "--fault-plan does not combine with --frames (fault draws are per run)".into(),
            );
        }
        if args.scheme == SchemeArg::Oracle {
            return Err(
                "--frames does not support the oracle scheme (its plan is per-realization)".into(),
            );
        }
    }
    let fault_plan = match &args.fault_plan {
        Some(path) => Some(load_fault_plan(path)?),
        None => None,
    };
    // Realizations: one per frame when streaming, one otherwise.
    let frames: Option<Vec<mp_sim::Realization>> = args
        .frames
        .map(|n| (0..n).map(|_| setup.sample(&etm, &mut rng)).collect());
    let single: Option<mp_sim::Realization> =
        frames.is_none().then(|| setup.sample(&etm, &mut rng));
    let fault_set = fault_plan
        .as_ref()
        .map(|p| p.realize(&setup.graph, args.seed));
    // One run shape behind one entry point: everything downstream only
    // sees an observer fed incrementally.
    let run_into = |observer: &mut dyn Observer| -> Result<RunDigest, String> {
        if let Some(fs) = &frames {
            let sim = setup.simulator(false);
            let mut policy = match args.scheme {
                SchemeArg::Scheme(s) => setup.policy(s),
                SchemeArg::Oracle => unreachable!("rejected above"),
            };
            let res =
                mp_sim::run_stream_observed(&sim, policy.as_mut(), fs, args.carry, Some(observer))
                    .map_err(|e| format!("simulation: {e}"))?;
            let last = res.frame_finish.last().copied().unwrap_or(0.0);
            Ok(RunDigest {
                header: format!(
                    "{} frames streamed{}, {} deadline misses, last frame finished at \
                     {:.2} ms of {:.2} ms\n",
                    fs.len(),
                    if args.carry {
                        " (DVS state carried over)"
                    } else {
                        ""
                    },
                    res.misses,
                    last,
                    setup.plan.deadline
                ),
                total_energy: res.total_energy(),
                meter_speed_changes: res.speed_changes(),
            })
        } else {
            let real = single.as_ref().expect("single-run realization");
            let res = match args.scheme {
                SchemeArg::Scheme(scheme) => {
                    let mut policy = setup.policy(scheme);
                    setup.simulator(false).run_observed(
                        policy.as_mut(),
                        real,
                        None,
                        fault_set.as_ref(),
                        Some(observer),
                    )
                }
                SchemeArg::Oracle => {
                    let mut oracle = setup.oracle(real).map_err(|e| format!("simulation: {e}"))?;
                    setup.simulator(false).run_observed(
                        &mut oracle,
                        real,
                        None,
                        fault_set.as_ref(),
                        Some(observer),
                    )
                }
            }
            .map_err(|e| format!("simulation: {e}"))?;
            let status = if res.status.met() {
                "met".to_string()
            } else {
                format!("MISSED by {:.2} ms", res.status.missed_by())
            };
            Ok(RunDigest {
                header: format!(
                    "finished at {:.2} ms of {:.2} ms — deadline {}\n",
                    res.finish_time, res.deadline, status
                ),
                total_energy: res.total_energy(),
                meter_speed_changes: res.energy.speed_changes(),
            })
        }
    };
    let scheme_name = match args.scheme {
        SchemeArg::Scheme(s) => s.name().to_string(),
        SchemeArg::Oracle => "Oracle".into(),
    };
    let (body, event_count): (String, u64) = match args.format.as_str() {
        "jsonl" => {
            if let Some(path) = &args.out {
                // Incremental path: each event hits the buffered file
                // writer the moment the engine emits it.
                let file =
                    std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
                let mut sink = Filtered::new(
                    JsonlSink::new(std::io::BufWriter::new(file)),
                    kind_filter,
                    args.proc_filter,
                );
                run_into(&mut sink)?;
                let passed = sink.passed();
                let mut w = sink
                    .into_inner()
                    .finish()
                    .map_err(|e| format!("writing {path}: {e}"))?;
                use std::io::Write as _;
                w.flush().map_err(|e| format!("writing {path}: {e}"))?;
                return Ok(format!("wrote {path} ({passed} events, streamed)\n"));
            }
            let mut sink = Filtered::new(JsonlSink::new(Vec::new()), kind_filter, args.proc_filter);
            run_into(&mut sink)?;
            let passed = sink.passed();
            let buf = sink.into_inner().finish().expect("in-memory sink");
            (String::from_utf8(buf).expect("jsonl is utf-8"), passed)
        }
        "chrome" => {
            let name_of = |n: andor_graph::NodeId| setup.graph.node(n).name.clone();
            if let Some(path) = &args.out {
                let file =
                    std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
                let mut sink = Filtered::new(
                    ChromeSink::new(std::io::BufWriter::new(file), name_of),
                    kind_filter,
                    args.proc_filter,
                );
                run_into(&mut sink)?;
                let passed = sink.passed();
                let mut w = sink
                    .into_inner()
                    .finish()
                    .map_err(|e| format!("writing {path}: {e}"))?;
                use std::io::Write as _;
                w.flush().map_err(|e| format!("writing {path}: {e}"))?;
                return Ok(format!("wrote {path} ({passed} events, streamed)\n"));
            }
            let mut sink = Filtered::new(
                ChromeSink::new(Vec::new(), name_of),
                kind_filter,
                args.proc_filter,
            );
            run_into(&mut sink)?;
            let passed = sink.passed();
            let buf = sink.into_inner().finish().expect("in-memory sink");
            (
                String::from_utf8(buf).expect("chrome trace is utf-8"),
                passed,
            )
        }
        "csv" => {
            let mut reg = MetricsRegistry::new();
            run_into(&mut reg)?;
            let total: u64 = EventKind::ALL
                .iter()
                .map(|k| reg.counter(&format!("events.{}", k.name())))
                .sum();
            (reg.to_csv(), total)
        }
        "summary" => {
            let mut reg = MetricsRegistry::new();
            let mut ledger = SectionedLedger::new();
            let mut ring = RingLog::new(4096);
            let mut filt = Filtered::new(NullObserver, kind_filter, args.proc_filter);
            let started = std::time::Instant::now();
            let digest = {
                let mut fan = Fanout::new()
                    .with(&mut reg)
                    .with(&mut ledger)
                    .with(&mut ring)
                    .with(&mut filt);
                run_into(&mut fan)?
            };
            let wall = started.elapsed();
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{} on {} ({} processors, seed {})",
                scheme_name,
                setup.model.name(),
                setup.plan.num_procs,
                args.seed
            );
            out.push_str(&digest.header);
            let _ = writeln!(
                out,
                "events: {} recorded, {} after filters",
                ring.seen(),
                filt.passed()
            );
            for kind in EventKind::ALL {
                let count = reg.counter(&format!("events.{}", kind.name()));
                if count > 0 {
                    let _ = writeln!(out, "  {:<16} {count}", kind.name());
                }
            }
            // Field names match `BENCH_<rev>.json` records so the two
            // throughput views line up.
            let _ = writeln!(
                out,
                "throughput: events_per_sec = {:.1} ({:.3} ms wall, observed)",
                ring.seen() as f64 / wall.as_secs_f64().max(1e-9),
                wall.as_secs_f64() * 1e3
            );
            let _ = writeln!(
                out,
                "live window: peak_ring_occupancy = {} of {} events buffered (bounded ring)",
                ring.peak_occupancy(),
                ring.capacity()
            );
            let _ = writeln!(
                out,
                "speed changes: {} event-derived vs {} engine meter",
                reg.speed_changes(),
                digest.meter_speed_changes
            );
            let _ = writeln!(out, "slack reclaimed: {:.2} ms", reg.slack_reclaimed_ms());
            let _ = writeln!(out, "{ledger}");
            match ledger.verify(digest.total_energy) {
                Ok(()) => {
                    let _ = writeln!(
                        out,
                        "ledger total {:.6} matches engine total_energy {:.6}",
                        ledger.total().total(),
                        digest.total_energy
                    );
                }
                Err(mismatch) => {
                    let _ = writeln!(out, "LEDGER MISMATCH: {mismatch}");
                }
            }
            let passed = filt.passed();
            (out, passed)
        }
        _ => unreachable!("format validated above"),
    };
    match &args.out {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| format!("writing {path}: {e}"))?;
            Ok(format!("wrote {path} ({event_count} events)\n"))
        }
        None => Ok(body),
    }
}

/// `pas bench`: runs the golden workloads (Figures 4–6 operating points,
/// both platforms, all six schemes) through the [`pas_bench`] harness,
/// prints a digest, writes `BENCH_<rev>.json`, and optionally refreshes
/// (`--update-baselines`) or checks (`--check`, error on drift) the
/// committed baselines under `--bench-dir`.
fn bench_cmd(args: &Args) -> Result<String, String> {
    let workloads: Option<Vec<String>> = args.workloads.as_ref().map(|spec| {
        spec.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    });
    // Cheap static checks over the golden workloads and both builtin
    // platforms before any timing work runs.
    {
        let mut report = pas_analyze::Report::new();
        for w in &pas_bench::GOLDEN_WORKLOADS {
            if let Some(sel) = &workloads {
                if !sel.iter().any(|s| s == w.name) {
                    continue;
                }
            }
            let g = w.graph().map_err(|e| format!("bench: {e}"))?;
            report.merge(pas_analyze::check_graph(&g, w.name));
        }
        for model in [
            dvfs_power::ProcessorModel::transmeta5400(),
            dvfs_power::ProcessorModel::xscale(),
        ] {
            let name = model.name().to_string();
            report.merge(pas_analyze::check_model(&model, &name));
        }
        if report.has_errors() {
            return Err(format!(
                "pre-bench check failed:\n{}",
                report.render_human().trim_end()
            ));
        }
    }
    let opts = pas_bench::BenchOptions {
        reps: args.reps,
        seed: args.seed,
        rev: pas_bench::detect_rev(),
        workloads,
        ..pas_bench::BenchOptions::default()
    };
    let out = pas_bench::run_bench(&opts).map_err(|e| format!("bench: {e}"))?;
    let dir = std::path::PathBuf::from(
        args.bench_dir
            .as_deref()
            .unwrap_or(pas_bench::harness::DEFAULT_BASELINE_DIR),
    );
    let mut text = String::new();
    let _ = writeln!(
        text,
        "pas bench — rev {}, {} records, {} timing reps each",
        out.report.rev,
        out.report.records.len(),
        args.reps
    );
    let _ = writeln!(
        text,
        "{:<6} {:<18} {:<6} {:>9} {:>11} {:>7} {:>12} {:>9}",
        "wkld", "platform", "scheme", "wall ms", "kevents/s", "events", "energy mJ", "sections"
    );
    for rec in &out.report.records {
        let _ = writeln!(
            text,
            "{:<6} {:<18} {:<6} {:>9.2} {:>11.1} {:>7} {:>12.4} {:>9}",
            rec.workload,
            rec.platform,
            rec.scheme,
            rec.wall_ms,
            rec.events_per_sec / 1e3,
            rec.events,
            rec.energy_mj,
            rec.sections.len()
        );
    }
    if !out.report.batch.is_empty() {
        let _ = writeln!(
            text,
            "batched Monte-Carlo engine vs sequential observed loop (informational):"
        );
        for b in &out.report.batch {
            let _ = writeln!(
                text,
                "  {:<6} {:<18} {:<6} {:>6} runs {:>10.0} runs/s (seq {:>8.0}) {:>6.1}x {:>9.1} kevents/s",
                b.workload,
                b.platform,
                b.scheme,
                b.realizations,
                b.realizations_per_sec,
                b.sequential_realizations_per_sec,
                b.speedup,
                b.events_per_sec / 1e3
            );
        }
    }
    if !out.report.offline.is_empty() {
        let _ = writeln!(text, "off-line phase wall time (span profiler):");
        for b in &out.report.offline {
            let total: f64 = b.spans.iter().map(|s| s.total_ms).sum();
            let _ = writeln!(
                text,
                "  {} on {} ({:.3} ms across {} span names):",
                b.workload,
                b.platform,
                total,
                b.spans.len()
            );
            for s in &b.spans {
                let _ = writeln!(
                    text,
                    "    {:<28} {:>4} call(s) {:>10.3} ms",
                    s.name, s.calls, s.total_ms
                );
            }
        }
    }
    if args.update_baselines {
        let written = pas_bench::write_baselines(&out, &dir).map_err(|e| format!("bench: {e}"))?;
        for path in written {
            let _ = writeln!(text, "wrote {path}");
        }
    }
    let report_path = match &args.out {
        Some(path) => {
            std::fs::write(path, pas_bench::harness::report_json(&out.report))
                .map_err(|e| format!("writing {path}: {e}"))?;
            path.clone()
        }
        None => pas_bench::write_report(&out.report, std::path::Path::new("."))
            .map_err(|e| format!("bench: {e}"))?
            .display()
            .to_string(),
    };
    let _ = writeln!(text, "wrote {report_path}");
    if args.check {
        let drifts =
            pas_bench::check_against_baselines(&out, &dir).map_err(|e| format!("bench: {e}"))?;
        if drifts.is_empty() {
            let _ = writeln!(
                text,
                "baseline check passed ({} records within tolerance)",
                out.report.records.len()
            );
        } else {
            return Err(format!(
                "baseline drift detected ({} deviations):\n  {}",
                drifts.len(),
                drifts.join("\n  ")
            ));
        }
    }
    Ok(text)
}

fn dot(args: &Args) -> Result<String, String> {
    let graph = load_app(args)?;
    Ok(to_dot(&graph, &args.app))
}

fn export(args: &Args) -> Result<String, String> {
    let graph = load_app(args)?;
    let path = args.out.as_deref().ok_or("export needs --out FILE")?;
    let json = serde_json::to_string_pretty(&graph).map_err(|e| format!("serializing: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(format!(
        "wrote {} ({} nodes, {} tasks)\n",
        path,
        graph.len(),
        graph.num_tasks()
    ))
}
