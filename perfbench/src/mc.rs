//! The realization layers: batched Monte-Carlo operations, their output
//! checks, and the traced sequential loop that splits one realization
//! into sampling, policy decisions, event loop and observer.

use crate::report::Outcome;
use crate::stats::{ns, ratio};
use crate::trace::Tracer;
use andor_graph::NodeId;
use mp_sim::{
    realization_seed, run_batch, BatchConfig, BatchDistribution, BatchOutput, DispatchCtx,
    ExecTimeModel, Policy, Realization, RunScratch, SpeedDecision,
};
use pas_core::{Scheme, Setup};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every realization index divisible by this is re-run through the
/// sequential engine and compared bit for bit.
pub const SPOT_CHECK_STRIDE: u64 = 509;

/// Observability sampling of the batched engine, as `pas compare --batch`
/// and the `montecarlo` request configure it.
pub const OBSERVE_STRIDE: usize = 64;

/// The wire name of a scheme in metric names.
pub fn scheme_key(s: Scheme) -> &'static str {
    match s {
        Scheme::Npm => "npm",
        Scheme::Spm => "spm",
        Scheme::Gss => "gss",
        Scheme::Ss1 => "ss1",
        Scheme::Ss2 => "ss2",
        Scheme::As => "as",
    }
}

/// One planned configuration a batch runs on.
pub struct Cell {
    /// Label used in failure messages (`fig4/transmeta`, ...).
    pub label: String,
    /// Platform key for per-platform metrics (`transmeta` / `xscale`).
    pub platform: &'static str,
    /// The offline plan and everything the engine needs.
    pub setup: Setup,
}

impl Cell {
    /// Histogram geometry used by `pas compare --batch` and `montecarlo`.
    pub fn hist_bounds(&self) -> (f64, f64) {
        let plan = &self.setup.plan;
        (
            plan.num_procs as f64 * plan.deadline * 1.05,
            plan.deadline * 1.5,
        )
    }
}

/// A timed batch: the output, its distribution, and the time taken.
pub struct BatchRun {
    /// Structure-of-arrays output.
    pub out: BatchOutput,
    /// The folded distribution.
    pub dist: BatchDistribution,
    /// Wall time of `run_batch`.
    pub batch_wall: Duration,
    /// Wall time of the fold.
    pub fold_wall: Duration,
}

/// Runs `realizations` draws of `scheme` on `cell` starting at global
/// index `start`, then folds them, as `pas compare --batch` does per
/// scheme.
pub fn batch(
    cell: &Cell,
    scheme: Scheme,
    base_seed: u64,
    start: u64,
    realizations: usize,
) -> Result<BatchRun, String> {
    let etm = ExecTimeModel::paper_defaults();
    let sim = cell.setup.simulator(false);
    let mut cfg = BatchConfig::new(realizations, base_seed);
    cfg.start_index = start;
    cfg.observe_stride = OBSERVE_STRIDE;
    let t0 = Instant::now();
    let out = run_batch(&sim, &etm, None, || cell.setup.policy(scheme), &cfg)
        .map_err(|e| format!("{} {}: simulation: {e}", cell.label, scheme.name()))?;
    let batch_wall = t0.elapsed();
    let (e_max, t_max) = cell.hist_bounds();
    let t1 = Instant::now();
    let dist = BatchDistribution::from_output(&out, e_max, t_max, 200)
        .ok_or_else(|| format!("{}: degenerate histogram bounds", cell.label))?;
    let fold_wall = t1.elapsed();
    Ok(BatchRun {
        out,
        dist,
        batch_wall,
        fold_wall,
    })
}

/// Output checks on one fault-free batch: no deadline misses (Theorem 1)
/// and, for every [`SPOT_CHECK_STRIDE`]-th global index, bit-identity
/// with a sequential `Simulator::run` seeded by `realization_seed` (the
/// determinism contract of `docs/simulator.md`).
pub fn check_batch(
    cell: &Cell,
    scheme: Scheme,
    base_seed: u64,
    start: u64,
    run: &BatchRun,
) -> Option<String> {
    let who = || format!("{} {} batch@{start}", cell.label, scheme.name());
    if run.dist.misses() != 0 {
        return Some(format!(
            "{}: {} deadline misses in a fault-free batch",
            who(),
            run.dist.misses()
        ));
    }
    let etm = ExecTimeModel::paper_defaults();
    let sim = cell.setup.simulator(false);
    let mut policy = cell.setup.policy(scheme);
    let first = start.div_ceil(SPOT_CHECK_STRIDE) * SPOT_CHECK_STRIDE;
    let end = start + run.out.len() as u64;
    for global in (first..end).step_by(SPOT_CHECK_STRIDE as usize) {
        let mut rng = StdRng::seed_from_u64(realization_seed(base_seed, global));
        let real = cell.setup.sample(&etm, &mut rng);
        let seq = match sim.run(policy.as_mut(), &real) {
            Ok(r) => r,
            Err(e) => return Some(format!("{}: sequential run {global}: {e}", who())),
        };
        let i = (global - start) as usize;
        let same = seq.finish_time.to_bits() == run.out.finish_time[i].to_bits()
            && seq.total_energy().to_bits() == run.out.energy[i].to_bits()
            && seq.energy.speed_changes() == run.out.speed_changes[i]
            && seq.missed_deadline == run.out.missed[i];
        if !same {
            return Some(format!(
                "{}: realization {global} differs from the sequential engine",
                who()
            ));
        }
    }
    None
}

/// Quantiles (p50/p95/p99 of energy and makespan) that exceed the exact
/// maximum of their own distribution: a known histogram-quantile defect,
/// recorded as a count and never gating the run.
pub fn quantiles_above_max(dist: &BatchDistribution) -> u64 {
    let mut n = 0;
    for m in [dist.energy(), dist.makespan()] {
        for q in [0.5, 0.95, 0.99] {
            if m.quantile(q).is_some_and(|v| v > m.max()) {
                n += 1;
            }
        }
    }
    n
}

/// One call the engine made into a policy during a run.
#[derive(Clone, Copy)]
enum Call {
    Speed(NodeId, DispatchCtx),
    OrFired(NodeId, usize, f64),
}

/// A delegating policy that logs every call of the current run, so its
/// cost can be timed afterwards by replaying the log on the same policy
/// in one tight loop: a clock read per `speed_for` call would cost more
/// than the call itself.
pub struct TimedPolicy<'a> {
    inner: Box<dyn Policy + 'a>,
    log: Vec<Call>,
    speed_calls: u64,
}

impl<'a> TimedPolicy<'a> {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Policy + 'a>) -> Self {
        Self {
            inner,
            log: Vec::new(),
            speed_calls: 0,
        }
    }

    /// `speed_for` calls of the current run.
    pub fn speed_calls(&self) -> u64 {
        self.speed_calls
    }

    /// Replays the current run's calls (`begin_run`, every `speed_for`
    /// and `on_or_fired` in order) and returns the time taken (ns). The
    /// policy resets at `begin_run`, so the replay makes the decisions the
    /// run made.
    pub fn replay(&mut self) -> u64 {
        let t = Instant::now();
        self.inner.begin_run();
        for call in &self.log {
            match *call {
                Call::Speed(task, ctx) => {
                    black_box(self.inner.speed_for(task, &ctx));
                }
                Call::OrFired(or, branch, now) => self.inner.on_or_fired(or, branch, now),
            }
        }
        t.elapsed().as_nanos() as u64
    }
}

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_run(&mut self) {
        self.log.clear();
        self.speed_calls = 0;
        self.inner.begin_run();
    }

    fn speed_for(&mut self, task: NodeId, ctx: &DispatchCtx) -> SpeedDecision {
        self.log.push(Call::Speed(task, *ctx));
        self.speed_calls += 1;
        self.inner.speed_for(task, ctx)
    }

    fn on_or_fired(&mut self, or: NodeId, branch: usize, now: f64) {
        self.log.push(Call::OrFired(or, branch, now));
        self.inner.on_or_fired(or, branch, now);
    }

    fn speculation(&self) -> Option<f64> {
        self.inner.speculation()
    }
}

/// Counts events; the benchmark's own observer for the sampled runs.
#[derive(Default)]
struct Counter(u64);

impl pas_obs::Observer for Counter {
    fn on_event(&mut self, _event: &pas_obs::SimEvent) {
        self.0 += 1;
    }
}

/// Totals from the traced sequential loop that are not span times.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    /// Realizations run (traced).
    pub runs: u64,
    /// `speed_for` calls.
    pub policy_calls: u64,
    /// Events over the observed runs.
    pub events: u64,
    /// Observed runs.
    pub observed_runs: u64,
    /// Extra time of observed over unobserved `run_into` (ns).
    pub observer_ns: f64,
    /// Wall time of the traced loop (ns).
    pub traced_wall_ns: f64,
    /// Wall time of the same loop without the recorder (ns).
    pub plain_wall_ns: f64,
}

impl LayerTotals {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &LayerTotals) {
        self.runs += o.runs;
        self.policy_calls += o.policy_calls;
        self.events += o.events;
        self.observed_runs += o.observed_runs;
        self.observer_ns += o.observer_ns;
        self.traced_wall_ns += o.traced_wall_ns;
        self.plain_wall_ns += o.plain_wall_ns;
    }
}

/// Repeats one batch sequentially through the calls `run_batch` makes
/// (`realization_seed` → `StdRng` → `sample_into` → `run_into`), first
/// without the recorder and then traced: spans around `sample_into` and
/// `run_into`, with the policy's share of each run (timed by replay,
/// [`TimedPolicy`]) accounted as a child of the `run_into` span under
/// the scheme's per-platform metric name. Every [`OBSERVE_STRIDE`]-th
/// run is also re-run with and without an event counter to price the
/// observer.
pub fn traced_loop(
    cell: &Cell,
    scheme: Scheme,
    base_seed: u64,
    start: u64,
    realizations: usize,
    tracer: &mut Tracer,
) -> Result<LayerTotals, String> {
    let etm = ExecTimeModel::paper_defaults();
    let setup = &cell.setup;
    let sim = setup.simulator(false);
    let err = |e: mp_sim::SimError| format!("{} {}: {e}", cell.label, scheme.name());
    let seed_rng = |i: usize| StdRng::seed_from_u64(realization_seed(base_seed, start + i as u64));
    let policy_span = policy_metric(scheme, Some(cell.platform));
    let mut scratch = RunScratch::new();
    let mut real = Realization::sample(&setup.graph, &setup.sections, &etm, &mut seed_rng(0));

    let mut plain = setup.policy(scheme);
    let t0 = Instant::now();
    for i in 0..realizations {
        real.sample_into(&setup.graph, &setup.sections, &etm, &mut seed_rng(i));
        let o = sim
            .run_into(&mut scratch, plain.as_mut(), &real, None, None, None)
            .map_err(err)?;
        black_box(o.finish_time);
    }
    let mut tot = LayerTotals {
        plain_wall_ns: ns(t0.elapsed()),
        ..LayerTotals::default()
    };

    let mut policy = TimedPolicy::new(setup.policy(scheme));
    let mut extra_ns = 0.0;
    let t0 = Instant::now();
    tracer.begin("sim.batch_traced");
    for i in 0..realizations {
        tracer.begin("sim.realization");
        tracer.begin("sim.sample_into");
        real.sample_into(&setup.graph, &setup.sections, &etm, &mut seed_rng(i));
        tracer.end();
        tracer.begin("sim.run_into");
        let o = sim
            .run_into(&mut scratch, &mut policy, &real, None, None, None)
            .map_err(err)?;
        let end = Instant::now();
        black_box(o.finish_time);
        let replay = Instant::now();
        let policy_ns = policy.replay();
        tracer.end_at(end, (policy_span, policy.speed_calls(), policy_ns));
        extra_ns += ns(replay.elapsed());
        tot.policy_calls += policy.speed_calls();
        if (start + i as u64).is_multiple_of(OBSERVE_STRIDE as u64) {
            let pair = Instant::now();
            tracer.begin("obs.observed_pair");
            let t = Instant::now();
            sim.run_into(&mut scratch, plain.as_mut(), &real, None, None, None)
                .map_err(err)?;
            let unobserved = ns(t.elapsed());
            let mut counter = Counter::default();
            let t = Instant::now();
            sim.run_into(
                &mut scratch,
                plain.as_mut(),
                &real,
                None,
                None,
                Some(&mut counter),
            )
            .map_err(err)?;
            let with_observer = ns(t.elapsed());
            tracer.end();
            extra_ns += ns(pair.elapsed());
            tot.observer_ns += with_observer - unobserved;
            tot.events += counter.0;
            tot.observed_runs += 1;
        }
        tracer.end();
        tot.runs += 1;
    }
    tracer.end();
    // Replays and observed pairs are extra measurement work, not the
    // recorder's overhead on the loop.
    tot.traced_wall_ns = ns(t0.elapsed()) - extra_ns;
    Ok(tot)
}

/// Per-scheme, per-platform policy cost (ns per `speed_for` call) from
/// the spans accounted by [`traced_loop`]; 0 where no call was traced.
fn policy_ns_per_call(tracer: &Tracer, scheme: Scheme, platforms: &[&str]) -> f64 {
    let (mut total, mut calls) = (0u64, 0u64);
    for p in platforms {
        let a = tracer.agg(policy_metric(scheme, Some(p)));
        total += a.total_ns;
        calls += a.count;
    }
    ratio(total as f64, calls as f64)
}

/// Writes the realization-layer metrics of a traced run. `clock_ns` is
/// the measured length of an empty timed interval, removed from each
/// span so a span reports the call, not the clock.
pub fn set_layer_metrics(o: &mut Outcome, tracer: &Tracer, tot: &LayerTotals, clock_ns: f64) {
    let runs = tot.runs as f64;
    let sample = (tracer.agg("sim.sample_into").mean_ns() - clock_ns).max(0.0);
    let run_into = tracer.agg("sim.run_into");
    let run_total = (run_into.mean_ns() - clock_ns).max(0.0);
    let engine_self = (run_into.mean_self_ns() - clock_ns).max(0.0);
    o.set("sim.sample_ns_per_run", sample);
    o.set("sim.sample_share", ratio(sample, sample + run_total));
    o.set("sim.engine_self_ns_per_run", engine_self);
    let events_per_run = ratio(tot.events as f64, tot.observed_runs as f64);
    o.set("sim.events_per_run", events_per_run);
    o.set(
        "sim.engine_ns_per_event",
        ratio(engine_self, events_per_run),
    );
    o.set(
        "obs.observer_ns_per_event",
        ratio(tot.observer_ns, tot.events as f64).max(0.0),
    );
    o.set(
        "core.policy.calls_per_run",
        ratio(tot.policy_calls as f64, runs),
    );
    o.set(
        "trace.overhead_share",
        ratio(tot.traced_wall_ns - tot.plain_wall_ns, tot.plain_wall_ns).max(0.0),
    );
    for scheme in Scheme::ALL {
        for platform in ["transmeta", "xscale"] {
            o.set(
                policy_metric(scheme, Some(platform)),
                policy_ns_per_call(tracer, scheme, &[platform]),
            );
        }
        o.set(
            policy_metric(scheme, None),
            policy_ns_per_call(tracer, scheme, &["transmeta", "xscale"]),
        );
    }
    // The speed computation the platform's overhead model charges per
    // power-management point, at full speed, in ns.
    for (key, model) in [
        (
            "core.pmp_model_ns.transmeta",
            dvfs_power::ProcessorModel::transmeta5400(),
        ),
        (
            "core.pmp_model_ns.xscale",
            dvfs_power::ProcessorModel::xscale(),
        ),
    ] {
        let ms = dvfs_power::Overheads::paper_defaults().compute_time_ms(1.0, model.max_freq_mhz());
        o.set(key, ms * 1e6);
    }
    o.set("trace.clock_ns", clock_ns);
}

/// The metric name of a scheme's policy cost, optionally per platform.
pub fn policy_metric(scheme: Scheme, platform: Option<&str>) -> &'static str {
    let name = match platform {
        None => format!("core.policy.{}.ns_per_call", scheme_key(scheme)),
        Some(p) => format!("core.policy.{}.{p}.ns_per_call", scheme_key(scheme)),
    };
    crate::report::PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .expect("policy metric is in the catalogue")
}

/// Median measured length of an empty timed interval (`Instant::now`
/// then `elapsed`), in ns: the clock's own share of every span.
pub fn clock_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..4096)
        .map(|_| {
            let t = Instant::now();
            ns(t.elapsed())
        })
        .collect();
    crate::stats::median(&samples)
}

/// True while the `--seconds` budget counted from `start` is not used up.
pub fn left(start: Instant, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() < seconds
}
