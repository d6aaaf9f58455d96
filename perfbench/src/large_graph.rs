//! `large-graph`: generated applications of about 200 and about 3,000
//! tasks through the offline pipeline (`Setup` → `PlanArtifact` + digest →
//! `check_plan` → `analyze_bounds`), then a GSS and an AS batch each.

use crate::mc::{self, Cell, LayerTotals};
use crate::report::Outcome;
use crate::stats::{median, ms, process_cpu_s, quantile, ratio, vm_hwm_mb};
use crate::trace::Tracer;
use crate::Args;
use andor_graph::AndOrGraph;
use dvfs_power::ProcessorModel;
use mp_sim::realization_seed;
use pas_analyze::{analyze_bounds, check_plan, BoundsConfig, Code};
use pas_core::{PlanArtifact, Scheme, Setup};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use workloads::RandomAppParams;

const PROCS: usize = 4;
const LOAD: f64 = 0.5;
/// Realizations per timed batch.
const BATCH: usize = 512;
/// Realizations per app and scheme in the traced run.
const TRACED_BATCH: usize = 64;
const SETUP_REPEATS: usize = 15;
const SCHEMES: [Scheme; 2] = [Scheme::Gss, Scheme::As];

/// One generated application: its generator, its seed and its task-count
/// window.
struct AppSpec {
    label: &'static str,
    params: RandomAppParams,
    seed: u64,
}

impl AppSpec {
    fn build(&self) -> Result<AndOrGraph, String> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.params
            .generate(&mut rng)
            .lower()
            .map_err(|e| format!("{}: {e}", self.label))
    }
}

/// Finds the first generator seed derived from `seed` whose application
/// has a task count within `tasks`. Only the seed is kept; the timed
/// set-up regenerates the graph from it.
///
/// The search starts from fixed seeds, so every run measures the same two
/// applications: their shapes, not only their sizes, set the cost of a
/// run, and graphs that changed with the run's seed would spread the
/// figures far beyond any useful bound. The run's seed draws the
/// realizations.
fn find_app(
    label: &'static str,
    params: RandomAppParams,
    tasks: std::ops::RangeInclusive<usize>,
    seed: u64,
) -> Result<AppSpec, String> {
    for k in 0..20_000u64 {
        let s = realization_seed(seed, k);
        let mut rng = StdRng::seed_from_u64(s);
        let Ok(g) = params.generate(&mut rng).lower() else {
            continue;
        };
        let n = g.num_tasks();
        if tasks.contains(&n) {
            return Ok(AppSpec {
                label,
                params,
                seed: s,
            });
        }
    }
    Err(format!("{label}: no generator seed within {tasks:?} tasks"))
}

fn specs() -> Result<Vec<AppSpec>, String> {
    Ok(vec![
        find_app(
            "random-200",
            RandomAppParams {
                max_depth: 7,
                max_seq_len: 6,
                max_par_width: 3,
                ..RandomAppParams::default()
            },
            195..=225,
            0x200,
        )?,
        find_app(
            "random-3000",
            RandomAppParams {
                max_depth: 10,
                max_seq_len: 6,
                max_par_width: 4,
                ..RandomAppParams::default()
            },
            2900..=3100,
            0x3000,
        )?,
    ])
}

/// The offline pipeline's outputs for one application.
struct Offline {
    cell: Cell,
    digest: String,
    conservative: u64,
}

/// Per-stage times of one pipeline pass (ms).
#[derive(Default)]
struct StageTimes {
    setup: f64,
    artifact: f64,
    check: f64,
    bounds: f64,
}

fn offline(
    spec: &AppSpec,
    g: &AndOrGraph,
    tracer: &mut Tracer,
    st: &mut StageTimes,
) -> Result<Offline, String> {
    let model = ProcessorModel::transmeta5400();
    let err = |e: String| format!("{}: {e}", spec.label);
    tracer.begin("core.setup");
    let t = Instant::now();
    let setup =
        Setup::for_load(g.clone(), model.clone(), PROCS, LOAD).map_err(|e| err(e.to_string()))?;
    st.setup += ms(t.elapsed());
    tracer.end();
    tracer.begin("core.artifact");
    let t = Instant::now();
    let artifact = PlanArtifact::from_setup(&setup, Scheme::Gss, spec.label, "transmeta");
    let digest = artifact.digest().map_err(err)?;
    st.artifact += ms(t.elapsed());
    tracer.end();
    tracer.begin("analysis.check_plan");
    let t = Instant::now();
    let report = check_plan(&artifact, "plan.json", g, spec.label, &model);
    st.check += ms(t.elapsed());
    tracer.end();
    if report.has_errors() {
        return Err(err(format!("check_plan: {:?}", report.diagnostics)));
    }
    tracer.begin("analysis.analyze_bounds");
    let t = Instant::now();
    let bounds = analyze_bounds(&setup, &BoundsConfig::default(), spec.label);
    st.bounds += ms(t.elapsed());
    tracer.end();
    if bounds.report.has_errors() {
        return Err(err(format!("bounds: {:?}", bounds.report.diagnostics)));
    }
    if let Some(b) = bounds.schemes.iter().find(|b| !b.deadline_safe) {
        return Err(err(format!("bounds: {} not deadline-safe", b.scheme)));
    }
    let conservative = bounds
        .report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::Pas0602)
        .count() as u64;
    Ok(Offline {
        cell: Cell {
            label: spec.label.to_string(),
            platform: "transmeta",
            setup,
        },
        digest,
        conservative,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let specs = specs()?;
    let mut build_times = Vec::new();
    let mut graphs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        graphs = specs.iter().map(AppSpec::build).collect::<Result<_, _>>()?;
        build_times.push(t.elapsed().as_secs_f64());
    }
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin, 1);
    let clock = if args.trace {
        mc::clock_overhead_ns()
    } else {
        0.0
    };
    let batch_size = if args.trace { TRACED_BATCH } else { BATCH };

    let mut first_digests: Vec<Option<String>> = vec![None; specs.len()];
    let mut rounds = Vec::new();
    let mut stages: Vec<StageTimes> = Vec::new();
    let mut conservative = 0u64;
    let mut tot = LayerTotals::default();
    let mut round = 0u64;
    while mc::left(origin, args.seconds) {
        // One operation: plan both applications (the offline pipeline),
        // then run a GSS and an AS batch on each — what a user planning
        // and evaluating a large application pays for — timed as the CPU
        // time it consumed.
        let mut st = StageTimes::default();
        tracer.begin("large.offline");
        let cpu = process_cpu_s();
        let planned: Result<Vec<Offline>, String> = specs
            .iter()
            .zip(&graphs)
            .map(|(spec, g)| offline(spec, g, &mut tracer, &mut st))
            .collect();
        let offline_cpu_s = process_cpu_s() - cpu;
        tracer.end();
        let planned = match planned {
            Ok(p) => p,
            Err(e) => {
                o.op(Some(e));
                round += 1;
                continue;
            }
        };
        stages.push(st);
        conservative = planned.iter().map(|p| p.conservative).sum();
        let mut err = None;
        for (i, p) in planned.iter().enumerate() {
            match &first_digests[i] {
                None => first_digests[i] = Some(p.digest.clone()),
                Some(d) if *d != p.digest => {
                    err = Some(format!(
                        "{}: plan digest changed between passes",
                        p.cell.label
                    ))
                }
                Some(_) => {}
            }
        }
        o.op(err);

        let (mut runs, mut batch_cpu_s) = (0usize, 0.0);
        for p in &planned {
            for scheme in SCHEMES {
                let first = round * batch_size as u64;
                let cpu = process_cpu_s();
                let r = mc::batch(&p.cell, scheme, args.seed, first, batch_size);
                batch_cpu_s += process_cpu_s() - cpu;
                match r {
                    Ok(r) => {
                        runs += r.out.len();
                        o.op(mc::check_batch(&p.cell, scheme, args.seed, first, &r));
                    }
                    Err(e) => o.op(Some(e)),
                }
                if args.trace {
                    let t = mc::traced_loop(
                        &p.cell,
                        scheme,
                        args.seed,
                        first,
                        batch_size,
                        &mut tracer,
                    )?;
                    tot.add(&t);
                }
            }
        }
        rounds.push([
            (offline_cpu_s + batch_cpu_s) * 1e3,
            ratio(runs as f64, batch_cpu_s),
        ]);
        round += 1;
    }

    if args.trace {
        let stage = |f: fn(&StageTimes) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
        o.set("graph.build_ms", median(&build_times) * 1e3);
        o.set("core.setup_ms", stage(|s| s.setup));
        o.set("core.artifact_ms", stage(|s| s.artifact));
        o.set("analysis.check_ms", stage(|s| s.check));
        o.set("analysis.bounds_ms", stage(|s| s.bounds));
        o.set("analysis.bounds_conservative", conservative as f64);
        mc::set_layer_metrics(&mut o, &tracer, &tot, clock);
        o.set("trace.spans", tracer.span_count() as f64);
        crate::write_trace(args, &tracer);
    } else {
        o.set("setup_s", median(&build_times));
        // The rounds' CPU time, and the GSS+AS batches' scheme-runs per
        // CPU-second (median over rounds).
        let round_ms: Vec<f64> = rounds.iter().map(|r| r[0]).collect();
        o.set(
            "throughput_per_s",
            median(&rounds.iter().map(|r| r[1]).collect::<Vec<_>>()),
        );
        o.set("op_p50_ms", quantile(&round_ms, 0.5));
        o.set("op_p95_ms", quantile(&round_ms, 0.95));
        o.set("rss_peak_mb", vm_hwm_mb("self"));
    }
    Ok(o)
}
