//! `paper-eval`: the full in-memory evaluation the `all` binary writes
//! (tables, figures 4–6, ablations, oracle gap, breakdown, stream, fault
//! sweep) at `ExperimentConfig::paper_defaults()` with the run's seed,
//! rendered to markdown but written nowhere.

use crate::mc;
use crate::report::Outcome;
use crate::stats::{median, ms, ns, process_cpu_s, quantile, ratio, vm_hwm_mb};
use crate::trace::Tracer;
use crate::Args;
use dvfs_power::ProcessorModel;
use mp_sim::{ExecTimeModel, RunScratch};
use pas_core::{Scheme, Setup};
use pas_experiments::figures::{
    ablation_leakage, ablation_levels, ablation_overhead, ablation_procs, ablation_smin, atr_app,
    energy_breakdown, fault_sweep, fig_energy_vs_alpha, fig_energy_vs_load, level_table,
    oracle_gap_vs_load, stream_carryover, SweepOutput,
};
use pas_experiments::{evaluate, ExperimentConfig, Platform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

const PLATFORMS: [Platform; 2] = [Platform::Transmeta, Platform::XScale];
/// Replications per point of the set-up pass.
const SETUP_REPLICATIONS: usize = 1;
const SETUP_REPEATS: usize = 7;

/// What one evaluation pass produced: a hash of every artifact's markdown
/// and the invariant violations found.
struct Pass {
    hash: u64,
    violations: Vec<String>,
}

/// The invariants of a fault-free sweep: no deadline misses, and the NPM
/// column, the normalization base, reads exactly 1.0.
fn check_sweep(name: &str, out: &SweepOutput, violations: &mut Vec<String>) {
    if out.total_misses != 0 {
        violations.push(format!("{name}: {} deadline misses", out.total_misses));
    }
    match out.energy.series(Scheme::Npm.name()) {
        Some(s) if s.values.iter().all(|v| *v == 1.0) => {}
        Some(_) => violations.push(format!("{name}: NPM column is not 1.0")),
        None => violations.push(format!("{name}: no NPM column")),
    }
}

fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    tracer.begin(name);
    let v = f();
    tracer.end();
    v
}

/// One pass over every artifact of `all`, each under its own span.
fn pass(cfg: &ExperimentConfig, tracer: &mut Tracer) -> Result<Pass, String> {
    let mut md = vec![timed(tracer, "experiments.tables", || {
        level_table(&ProcessorModel::transmeta5400()).to_markdown()
            + &level_table(&ProcessorModel::xscale()).to_markdown()
    })];
    let mut sweeps = Vec::new();
    for p in PLATFORMS {
        for (name, procs) in [("experiments.fig4", 2), ("experiments.fig5", 6)] {
            sweeps.push((
                name,
                timed(tracer, name, || fig_energy_vs_load(p, procs, cfg)),
            ));
        }
        let name = "experiments.fig6";
        sweeps.push((name, timed(tracer, name, || fig_energy_vs_alpha(p, cfg))));
        let name = "experiments.ablation_overhead";
        sweeps.push((name, timed(tracer, name, || ablation_overhead(p, cfg))));
        let name = "experiments.ablation_procs";
        sweeps.push((name, timed(tracer, name, || ablation_procs(p, cfg))));
    }
    let name = "experiments.ablation_smin";
    sweeps.push((name, timed(tracer, name, || ablation_smin(cfg))));
    let name = "experiments.ablation_levels";
    sweeps.push((name, timed(tracer, name, || ablation_levels(cfg))));
    let mut violations = Vec::new();
    for (name, out) in &sweeps {
        check_sweep(name, out, &mut violations);
        md.push(out.energy.to_markdown() + &out.speed_changes.to_markdown());
    }
    for p in PLATFORMS {
        md.push(timed(tracer, "experiments.ablation_leakage", || {
            ablation_leakage(p, cfg).to_markdown()
        }));
        md.push(timed(tracer, "experiments.oracle_gap", || {
            oracle_gap_vs_load(p, 2, cfg).to_markdown()
        }));
        for load in [0.3, 0.7] {
            md.push(timed(tracer, "experiments.breakdown", || {
                energy_breakdown(p, 2, load, cfg).to_markdown()
            }));
        }
        md.push(timed(tracer, "experiments.stream", || {
            stream_carryover(p, cfg).to_markdown()
        }));
        let out = timed(tracer, "experiments.fault_sweep", || {
            fault_sweep(p, 1.5, &[0.0, 0.01, 0.02, 0.05, 0.1, 0.2], cfg)
        })
        .map_err(|e| format!("fault sweep: {e}"))?;
        md.push(
            out.miss_rate.to_markdown()
                + &out.energy.to_markdown()
                + &out.recovery_energy.to_markdown(),
        );
    }
    let mut h = DefaultHasher::new();
    md.hash(&mut h);
    Ok(Pass {
        hash: h.finish(),
        violations,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut cfg = ExperimentConfig::paper_defaults();
    cfg.base_seed = args.seed;

    // Set-up: the same evaluation at one replication per point — every
    // point's offline planning and one draw, which also lets lazy
    // process state settle before the timed passes.
    let mut setup_cfg = cfg.clone();
    setup_cfg.replications = SETUP_REPLICATIONS;
    let mut off = Tracer::new(false, Instant::now(), 1);
    let mut setup_times = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        pass(&setup_cfg, &mut off)?;
        setup_times.push(t.elapsed().as_secs_f64());
    }

    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin, 1);
    let mut pass_s = Vec::new();
    let mut first_hash = None;
    loop {
        tracer.begin("experiments.eval_pass");
        let cpu = process_cpu_s();
        let p = pass(&cfg, &mut tracer);
        let took = process_cpu_s() - cpu;
        tracer.end();
        match p {
            Ok(p) => {
                pass_s.push(took);
                let mut err = p.violations.first().cloned();
                match first_hash {
                    None => first_hash = Some(p.hash),
                    Some(h) if h != p.hash => {
                        err = Some("evaluation output changed between passes".into())
                    }
                    Some(_) => {}
                }
                o.op(err);
            }
            Err(e) => o.op(Some(e)),
        }
        // A traced run makes one pass, then measures the runner's parts.
        if args.trace || !mc::left(origin, args.seconds) {
            break;
        }
    }

    if args.trace {
        traced_parts(args, &cfg, origin, &mut tracer, &mut o)?;
        o.set("trace.spans", tracer.span_count() as f64);
        crate::write_trace(args, &tracer);
    } else {
        o.set("setup_s", median(&setup_times));
        // Passes per CPU-second, and each pass's CPU time.
        o.set(
            "throughput_per_s",
            ratio(pass_s.len() as f64, pass_s.iter().sum()),
        );
        let pass_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
        o.set("op_p50_ms", quantile(&pass_ms, 0.5));
        o.set("op_p95_ms", quantile(&pass_ms, 0.95));
        o.set("rss_peak_mb", vm_hwm_mb("self"));
    }
    Ok(o)
}

/// The runner's parts, measured through its public calls on the figure 4
/// set-up: one `evaluate` per load point, and per-replication
/// `Setup::run` (which builds a policy and an engine per call) against a
/// reused-scratch `run_into`, and the clairvoyant oracle.
fn traced_parts(
    args: &Args,
    cfg: &ExperimentConfig,
    origin: Instant,
    tracer: &mut Tracer,
    o: &mut Outcome,
) -> Result<(), String> {
    let app = atr_app();
    let mut point_ms = Vec::new();
    for load in pas_experiments::figures::load_axis() {
        let setup = Setup::for_load(app.clone(), Platform::Transmeta.model(), 2, load)
            .map_err(|e| e.to_string())?;
        tracer.begin("experiments.evaluate");
        let t = Instant::now();
        let r = evaluate(&setup, cfg).map_err(|e| e.to_string())?;
        point_ms.push(ms(t.elapsed()));
        tracer.end();
        o.op((r.total_misses() != 0).then(|| format!("load {load}: deadline misses")));
    }
    o.set("experiments.point_ms", median(&point_ms));

    let setup =
        Setup::for_load(app, Platform::Transmeta.model(), 2, 0.5).map_err(|e| e.to_string())?;
    let etm = ExecTimeModel::paper_defaults();
    let sim = setup.simulator(false);
    let mut policies: Vec<_> = Scheme::ALL.iter().map(|s| setup.policy(*s)).collect();
    let mut scratch = RunScratch::new();
    let (mut run_ns, mut into_ns, mut oracle_ns, mut runs, mut oracles) =
        (0.0, 0.0, 0.0, 0u64, 0u64);
    let mut r = 0u64;
    // Bounded by the remaining budget, but always at least one replication.
    while r == 0 || mc::left(origin, args.seconds) {
        let mut rng = StdRng::seed_from_u64(args.seed.wrapping_add(r));
        let real = setup.sample(&etm, &mut rng);
        for (i, scheme) in Scheme::ALL.iter().enumerate() {
            tracer.begin("core.Setup::run");
            let t = Instant::now();
            let a = setup.run(*scheme, &real).map_err(|e| e.to_string())?;
            run_ns += ns(t.elapsed());
            tracer.end();
            tracer.begin("sim.run_into");
            let t = Instant::now();
            let b = sim
                .run_into(&mut scratch, policies[i].as_mut(), &real, None, None, None)
                .map_err(|e| e.to_string())?;
            into_ns += ns(t.elapsed());
            tracer.end();
            runs += 1;
            let same = a.finish_time.to_bits() == b.finish_time.to_bits()
                && a.total_energy().to_bits() == b.energy.total_energy().to_bits();
            o.op((!same || a.missed_deadline).then(|| {
                format!(
                    "replication {r} {}: Setup::run and run_into disagree or miss",
                    scheme.name()
                )
            }));
        }
        tracer.begin("core.Setup::run_oracle");
        let t = Instant::now();
        black_box(setup.run_oracle(&real).map_err(|e| e.to_string())?);
        oracle_ns += ns(t.elapsed());
        tracer.end();
        oracles += 1;
        r += 1;
    }
    o.set("experiments.run_ns", ratio(run_ns, runs as f64));
    o.set(
        "experiments.construct_share",
        ratio(run_ns - into_ns, run_ns).max(0.0),
    );
    o.set("experiments.oracle_ns", ratio(oracle_ns, oracles as f64));
    Ok(())
}
