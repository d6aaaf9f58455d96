//! The on-line phase: the paper's six speed-selection schemes.
//!
//! All dynamic schemes share one safety rule: a task's speed is never set
//! below the *GSS-guaranteed* speed — the speed at which the task, started
//! now, still finishes by its shifted-canonical estimated end time
//! (`EET_i = LST_i + c_i`). The speculative schemes only ever *raise* that
//! floor toward a statistically better single speed, so Theorem 1's
//! deadline guarantee extends to every scheme (paper §4.1: "the SS
//! algorithms never set a speed below the speed determined by `GSS`").
//!
//! Overheads are reserved out of the claimed slack before slowing down:
//! the speed-computation time at the current speed plus two voltage
//! transitions (one to slow down now, one to speed back up later).

use crate::offline::OfflinePlan;
use andor_graph::NodeId;
use dvfs_power::{OperatingPoint, Overheads, ProcessorModel};
use mp_sim::{DispatchCtx, MaxSpeed, Policy, SpeedDecision};
use serde::{Deserialize, Serialize};

/// The scheme identifiers of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// No power management — the normalization baseline.
    Npm,
    /// Static power management: one speed from static slack.
    Spm,
    /// Greedy slack sharing (the paper's extended Figure-2 algorithm).
    Gss,
    /// Static speculation, single speed.
    Ss1,
    /// Static speculation, two speeds.
    Ss2,
    /// Adaptive speculation at each OR node.
    As,
}

impl Scheme {
    /// All schemes, in the paper's plotting order.
    pub const ALL: [Scheme; 6] = [
        Scheme::Npm,
        Scheme::Spm,
        Scheme::Gss,
        Scheme::Ss1,
        Scheme::Ss2,
        Scheme::As,
    ];

    /// The power-managed schemes (everything but the NPM baseline).
    pub const MANAGED: [Scheme; 5] = [
        Scheme::Spm,
        Scheme::Gss,
        Scheme::Ss1,
        Scheme::Ss2,
        Scheme::As,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Npm => "NPM",
            Scheme::Spm => "SPM",
            Scheme::Gss => "GSS",
            Scheme::Ss1 => "SS(1)",
            Scheme::Ss2 => "SS(2)",
            Scheme::As => "AS",
        }
    }

    /// Parses a scheme from its display name or its short form (`ss1`
    /// for `SS(1)`), ignoring case.
    pub fn parse(s: &str) -> Option<Scheme> {
        Some(match s.to_ascii_lowercase().as_str() {
            "npm" => Scheme::Npm,
            "spm" => Scheme::Spm,
            "gss" => Scheme::Gss,
            "ss1" | "ss(1)" => Scheme::Ss1,
            "ss2" | "ss(2)" => Scheme::Ss2,
            "as" => Scheme::As,
            _ => return None,
        })
    }

    /// Instantiates the scheme's policy against a plan and platform.
    pub fn build<'a>(
        self,
        plan: &'a OfflinePlan,
        model: &'a ProcessorModel,
        overheads: Overheads,
    ) -> Box<dyn Policy + 'a> {
        match self {
            Scheme::Npm => Box::new(MaxSpeed),
            Scheme::Spm => Box::new(SpmPolicy::new(plan, model, overheads)),
            Scheme::Gss => Box::new(GssPolicy::new(plan, model, overheads)),
            Scheme::Ss1 => Box::new(Ss1Policy::new(plan, model, overheads)),
            Scheme::Ss2 => Box::new(Ss2Policy::new(plan, model, overheads)),
            Scheme::As => Box::new(AsPolicy::new(plan, model, overheads)),
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared deadline-guarantee computation (the GSS speed).
struct Guarantee<'a> {
    plan: &'a OfflinePlan,
    model: &'a ProcessorModel,
    overheads: Overheads,
}

impl<'a> Guarantee<'a> {
    fn new(plan: &'a OfflinePlan, model: &'a ProcessorModel, overheads: Overheads) -> Self {
        Self {
            plan,
            model,
            overheads,
        }
    }

    /// The unquantized speed that keeps the Theorem-1 guarantee for `task`
    /// dispatched under `ctx`: stretch its WCET over the window ending at
    /// `LST + c`, minus the reserved overhead time.
    fn gss_desired(&self, task: NodeId, ctx: &DispatchCtx) -> f64 {
        let lst =
            self.plan.lst[task.index()].expect("dispatched computation nodes always carry an LST");
        let slack = (lst - ctx.now).max(0.0);
        let reserve = self
            .overheads
            .reservation_ms(ctx.current_point.speed, self.model.max_freq_mhz());
        let avail = ctx.wcet + slack - reserve;
        if avail <= 0.0 {
            // Degenerate: not even full speed recovers the overhead window;
            // run flat out.
            f64::INFINITY
        } else {
            ctx.wcet / avail
        }
    }

    fn quantize(&self, desired: f64) -> OperatingPoint {
        self.model.quantize_up(desired)
    }
}

/// Greedy slack sharing (GSS): each task claims all slack available up to
/// its latest start time. Slack sharing across processors is implicit in
/// the engine's global dispatch order — exactly as in the paper's Figure 2.
pub struct GssPolicy<'a> {
    guar: Guarantee<'a>,
}

impl<'a> GssPolicy<'a> {
    /// Creates the policy for a plan/platform pair.
    pub fn new(plan: &'a OfflinePlan, model: &'a ProcessorModel, overheads: Overheads) -> Self {
        Self {
            guar: Guarantee::new(plan, model, overheads),
        }
    }
}

impl Policy for GssPolicy<'_> {
    fn name(&self) -> &str {
        "GSS"
    }

    fn speed_for(&mut self, task: NodeId, ctx: &DispatchCtx) -> SpeedDecision {
        let desired = self.guar.gss_desired(task, ctx);
        SpeedDecision {
            point: self.guar.quantize(desired),
            ran_pmp: true,
        }
    }
}

/// Static power management (SPM): a single speed decided before the
/// application starts, using only static slack (`s = Tʷ / D`). Pays no
/// per-task PMP cost and never changes speed at run time.
pub struct SpmPolicy {
    point: OperatingPoint,
}

impl SpmPolicy {
    /// Computes the static operating point. One voltage transition (to
    /// enter the static speed) is reserved out of the deadline.
    pub fn new(plan: &OfflinePlan, model: &ProcessorModel, overheads: Overheads) -> Self {
        let effective = (plan.deadline - overheads.transition_time_ms).max(f64::MIN_POSITIVE);
        let desired = plan.worst_total / effective;
        Self {
            point: model.quantize_up(desired),
        }
    }

    /// The static operating point every task runs at.
    pub fn point(&self) -> OperatingPoint {
        self.point
    }
}

impl Policy for SpmPolicy {
    fn name(&self) -> &str {
        "SPM"
    }

    fn speed_for(&mut self, _task: NodeId, _ctx: &DispatchCtx) -> SpeedDecision {
        SpeedDecision {
            point: self.point,
            ran_pmp: false,
        }
    }
}

/// Static speculation with a single speed (SS(1)): speculate
/// `s = Tᵃ / D` once, then floor every task at `max(s_spec, s_GSS)`.
pub struct Ss1Policy<'a> {
    guar: Guarantee<'a>,
    spec_speed: f64,
}

impl<'a> Ss1Policy<'a> {
    /// Builds the policy; the speculative speed is the level at or above
    /// the ideal `Tᵃ / D`.
    pub fn new(plan: &'a OfflinePlan, model: &'a ProcessorModel, overheads: Overheads) -> Self {
        let ideal = plan.avg_total / plan.deadline;
        let spec_speed = model.quantize_up(ideal).speed;
        Self {
            guar: Guarantee::new(plan, model, overheads),
            spec_speed,
        }
    }

    /// The speculative speed (normalized).
    pub fn spec_speed(&self) -> f64 {
        self.spec_speed
    }
}

impl Policy for Ss1Policy<'_> {
    fn name(&self) -> &str {
        "SS(1)"
    }

    fn speed_for(&mut self, task: NodeId, ctx: &DispatchCtx) -> SpeedDecision {
        let desired = self.guar.gss_desired(task, ctx).max(self.spec_speed);
        SpeedDecision {
            point: self.guar.quantize(desired),
            ran_pmp: true,
        }
    }

    fn speculation(&self) -> Option<f64> {
        Some(self.spec_speed)
    }
}

/// Static speculation with two speeds (SS(2)): when levels are coarse, run
/// at the level *below* the ideal speculative speed until the switch time
/// `θ`, then at the level above, such that the average-case work completes
/// exactly at the deadline:
///
/// `θ·s₁ + (D − θ)·s₂ = Tᵃ  ⇒  θ = (s₂·D − Tᵃ) / (s₂ − s₁)`.
pub struct Ss2Policy<'a> {
    guar: Guarantee<'a>,
    low: f64,
    high: f64,
    switch_time: f64,
}

impl<'a> Ss2Policy<'a> {
    /// Builds the policy, selecting the level pair bracketing `Tᵃ / D`.
    pub fn new(plan: &'a OfflinePlan, model: &'a ProcessorModel, overheads: Overheads) -> Self {
        let ideal = (plan.avg_total / plan.deadline).min(1.0);
        let high = model.quantize_up(ideal).speed;
        let low = level_at_or_below(model, ideal).unwrap_or(high);
        let switch_time = if (high - low).abs() < 1e-12 {
            0.0
        } else {
            // Average work measured in full-speed ms.
            (high * plan.deadline - plan.avg_total) / (high - low)
        };
        Self {
            guar: Guarantee::new(plan, model, overheads),
            low,
            high,
            switch_time: switch_time.clamp(0.0, plan.deadline),
        }
    }

    /// The `(s₁, s₂, θ)` triple the policy operates with.
    pub fn parameters(&self) -> (f64, f64, f64) {
        (self.low, self.high, self.switch_time)
    }
}

impl Policy for Ss2Policy<'_> {
    fn name(&self) -> &str {
        "SS(2)"
    }

    fn speed_for(&mut self, task: NodeId, ctx: &DispatchCtx) -> SpeedDecision {
        let spec = if ctx.now < self.switch_time {
            self.low
        } else {
            self.high
        };
        let desired = self.guar.gss_desired(task, ctx).max(spec);
        SpeedDecision {
            point: self.guar.quantize(desired),
            ran_pmp: true,
        }
    }
}

/// Adaptive speculation (AS): re-speculates after every OR synchronization
/// node from the statistical remaining work of the chosen branch:
/// `s_spec = Tᵃ_rem / (D − t)`.
pub struct AsPolicy<'a> {
    guar: Guarantee<'a>,
    spec_desired: f64,
}

impl<'a> AsPolicy<'a> {
    /// Builds the policy; the initial speculation uses the whole
    /// application's `Tᵃ`.
    pub fn new(plan: &'a OfflinePlan, model: &'a ProcessorModel, overheads: Overheads) -> Self {
        let spec_desired = plan.avg_total / plan.deadline;
        Self {
            guar: Guarantee::new(plan, model, overheads),
            spec_desired,
        }
    }

    /// The current (unquantized) speculative speed.
    pub fn spec_desired(&self) -> f64 {
        self.spec_desired
    }
}

impl Policy for AsPolicy<'_> {
    fn name(&self) -> &str {
        "AS"
    }

    fn begin_run(&mut self) {
        self.spec_desired = self.guar.plan.avg_total / self.guar.plan.deadline;
    }

    fn on_or_fired(&mut self, or: NodeId, branch: usize, now: f64) {
        if let Some(&ta_rem) = self.guar.plan.branch_avg.get(&(or, branch)) {
            let remaining = (self.guar.plan.deadline - now).max(f64::MIN_POSITIVE);
            self.spec_desired = ta_rem / remaining;
        }
    }

    fn speed_for(&mut self, task: NodeId, ctx: &DispatchCtx) -> SpeedDecision {
        let desired = self.guar.gss_desired(task, ctx).max(self.spec_desired);
        SpeedDecision {
            point: self.guar.quantize(desired),
            ran_pmp: true,
        }
    }

    fn speculation(&self) -> Option<f64> {
        Some(self.spec_desired)
    }
}

/// Path-proportional slack distribution (PP): the uniprocessor scheme of
/// Mossé et al. (the paper's \[14\]) lifted to the multiprocessor canonical
/// schedule. Instead of letting the current task greedily claim *all*
/// slack (GSS), every dispatch stretches the whole remaining canonical
/// schedule uniformly over the time left:
///
/// `s_i = R_i / (D − t)` where `R_i = D − LST_i` is the canonical
/// worst-case remaining time from task `i`'s start.
///
/// Uniform stretching keeps the remaining schedule feasible (the engine's
/// timing scales exactly with a uniform slowdown), so PP shares GSS's
/// guarantee; the implementation still floors at the GSS speed to stay
/// safe under quantization and overhead reservations.
///
/// PP is not part of the paper's evaluation — it is the natural
/// "distribute slack evenly" contrast to GSS's "grab it all now", included
/// as an extension baseline.
pub struct ProportionalPolicy<'a> {
    guar: Guarantee<'a>,
}

impl<'a> ProportionalPolicy<'a> {
    /// Creates the policy for a plan/platform pair.
    pub fn new(plan: &'a OfflinePlan, model: &'a ProcessorModel, overheads: Overheads) -> Self {
        Self {
            guar: Guarantee::new(plan, model, overheads),
        }
    }
}

impl Policy for ProportionalPolicy<'_> {
    fn name(&self) -> &str {
        "PP"
    }

    fn speed_for(&mut self, task: NodeId, ctx: &DispatchCtx) -> SpeedDecision {
        let lst = self.guar.plan.lst[task.index()]
            .expect("dispatched computation nodes always carry an LST");
        let remaining_worst = self.guar.plan.deadline - lst;
        let time_left = (self.guar.plan.deadline - ctx.now).max(f64::MIN_POSITIVE);
        let proportional = remaining_worst / time_left;
        let desired = self.guar.gss_desired(task, ctx).max(proportional);
        SpeedDecision {
            point: self.guar.quantize(desired),
            ran_pmp: true,
        }
    }
}

/// Wraps any policy with an energy-efficiency floor: the wrapped policy's
/// speed is raised to at least `floor` (typically
/// [`dvfs_power::efficient_floor`]). With non-negligible static power,
/// running *below* the floor both takes longer and costs more energy —
/// the classic critical-speed correction to pure-dynamic DVS (see
/// `dvfs_power::leakage`).
///
/// Deadline safety is inherited: raising speeds can only finish earlier.
pub struct EnergyFloorPolicy<'a, P> {
    inner: P,
    floor: f64,
    model: &'a ProcessorModel,
    name: String,
}

impl<'a, P: Policy> EnergyFloorPolicy<'a, P> {
    /// Wraps `inner`, flooring every decision at `floor` (normalized
    /// speed), quantized on `model`.
    pub fn new(inner: P, floor: f64, model: &'a ProcessorModel) -> Self {
        let name = format!("{}+floor", inner.name());
        Self {
            inner,
            floor,
            model,
            name,
        }
    }

    /// The active floor speed.
    pub fn floor(&self) -> f64 {
        self.floor
    }
}

impl<P: Policy> Policy for EnergyFloorPolicy<'_, P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin_run(&mut self) {
        self.inner.begin_run();
    }

    fn on_or_fired(&mut self, or: NodeId, branch: usize, now: f64) {
        self.inner.on_or_fired(or, branch, now);
    }

    fn speed_for(&mut self, task: NodeId, ctx: &DispatchCtx) -> SpeedDecision {
        let d = self.inner.speed_for(task, ctx);
        if d.point.speed >= self.floor - 1e-12 {
            return d;
        }
        SpeedDecision {
            point: self.model.quantize_up(self.floor),
            ran_pmp: d.ran_pmp,
        }
    }

    fn speculation(&self) -> Option<f64> {
        self.inner.speculation()
    }
}

/// The fastest level no faster than `s` (or `None` when `s` is below the
/// minimum level). For the continuous model this is `s` itself clamped to
/// the speed range.
fn level_at_or_below(model: &ProcessorModel, s: f64) -> Option<f64> {
    match model.levels() {
        Some(levels) => {
            let f_max = model.max_freq_mhz();
            levels
                .iter()
                .rev()
                .map(|l| l.freq_mhz / f_max)
                .find(|ls| *ls <= s + 1e-12)
        }
        None => {
            if s < model.min_speed() {
                None
            } else {
                Some(s.min(1.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andor_graph::{SectionGraph, Segment};
    use mp_sim::{Realization, SimConfig, Simulator};

    fn chain(n: usize, wcet: f64, acet: f64) -> Segment {
        Segment::seq((0..n).map(|i| Segment::task(format!("t{i}"), wcet, acet)))
    }

    struct Fixture {
        g: andor_graph::AndOrGraph,
        sg: SectionGraph,
        plan: OfflinePlan,
        model: ProcessorModel,
    }

    fn fixture(app: &Segment, m: usize, d: f64, model: ProcessorModel) -> Fixture {
        let g = app.lower().unwrap();
        let sg = SectionGraph::build(&g).unwrap();
        let plan = OfflinePlan::build(&g, &sg, m, d).unwrap();
        Fixture { g, sg, plan, model }
    }

    fn run_worst(fx: &Fixture, scheme: Scheme, overheads: Overheads) -> mp_sim::RunResult {
        let cfg = SimConfig {
            num_procs: fx.plan.num_procs,
            deadline: fx.plan.deadline,
            idle_fraction: 0.05,
            static_fraction: 0.0,
            overheads,
            record_trace: true,
        };
        let sim = Simulator::new(&fx.g, &fx.sg, &fx.plan.dispatch, &fx.model, cfg);
        let mut policy = scheme.build(&fx.plan, &fx.model, overheads);
        let real = Realization::worst_case(
            &fx.g,
            fx.sg
                .enumerate_scenarios(&fx.g)
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .map(|(s, _)| s)
                .unwrap(),
        );
        sim.run(policy.as_mut(), &real).expect("run succeeds")
    }

    #[test]
    fn gss_stretches_single_task_to_deadline() {
        let fx = fixture(
            &chain(1, 10.0, 5.0),
            1,
            20.0,
            ProcessorModel::continuous(0.05).unwrap(),
        );
        let res = run_worst(&fx, Scheme::Gss, Overheads::none());
        assert!(!res.missed_deadline);
        assert!((res.finish_time - 20.0).abs() < 1e-9, "{}", res.finish_time);
        // Energy: 20 ms at 0.5³ = 2.5 vs NPM's 10 busy.
        assert!((res.energy.busy_energy() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn gss_greedy_gives_first_task_all_slack() {
        // Two tasks of 5 each, D=15: first runs at 5/(5+5)=0.5, consuming
        // all static slack; the second must run at full speed.
        let fx = fixture(
            &chain(2, 5.0, 5.0),
            1,
            15.0,
            ProcessorModel::continuous(0.05).unwrap(),
        );
        let res = run_worst(&fx, Scheme::Gss, Overheads::none());
        let tr = res.trace.as_ref().unwrap();
        assert!((tr[0].speed - 0.5).abs() < 1e-12);
        assert!((tr[1].speed - 1.0).abs() < 1e-12);
        assert!(!res.missed_deadline);
        assert!((res.finish_time - 15.0).abs() < 1e-9);
    }

    #[test]
    fn gss_quantizes_up_on_discrete_levels() {
        // Desired 0.5 on XScale → 600 MHz (0.6).
        let fx = fixture(&chain(1, 10.0, 5.0), 1, 20.0, ProcessorModel::xscale());
        let res = run_worst(&fx, Scheme::Gss, Overheads::none());
        let tr = res.trace.as_ref().unwrap();
        assert!((tr[0].speed - 0.6).abs() < 1e-12);
        assert!(!res.missed_deadline);
    }

    #[test]
    fn spm_uses_static_slack_only() {
        let fx = fixture(
            &chain(2, 5.0, 1.0),
            1,
            20.0,
            ProcessorModel::continuous(0.05).unwrap(),
        );
        let mut spm = SpmPolicy::new(&fx.plan, &fx.model, Overheads::none());
        // Tw = 10, D = 20 → static speed 0.5 regardless of task behavior.
        assert!((spm.point().speed - 0.5).abs() < 1e-12);
        let ctx = DispatchCtx {
            now: 3.0,
            current_point: fx.model.max_point(),
            wcet: 5.0,
        };
        let d = spm.speed_for(NodeId(0), &ctx);
        assert!(!d.ran_pmp);
        assert!((d.point.speed - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ss1_floors_at_speculative_speed() {
        // Tw=10, Ta=4, D=20 → spec = 0.2. The first task's GSS desired is
        // 5/(5+10) = 1/3 (its LST is 10), so GSS wins on the first dispatch.
        let fx = fixture(
            &chain(2, 5.0, 2.0),
            1,
            20.0,
            ProcessorModel::continuous(0.05).unwrap(),
        );
        let ss1 = Ss1Policy::new(&fx.plan, &fx.model, Overheads::none());
        assert!((ss1.spec_speed() - 0.2).abs() < 1e-12);
        let res = run_worst(&fx, Scheme::Ss1, Overheads::none());
        assert!(!res.missed_deadline);
        let tr = res.trace.as_ref().unwrap();
        // GSS desired dominates the 0.2 speculation on every dispatch here.
        assert!((tr[0].speed - 1.0 / 3.0).abs() < 1e-12, "{}", tr[0].speed);
    }

    #[test]
    fn ss1_speculation_beats_greedy_when_later_tasks_abound() {
        // On coarse levels the speculative floor spreads slack; compare the
        // per-task speeds: SS(1) should avoid GSS's slow-then-fast pattern.
        let fx = fixture(&chain(4, 5.0, 4.0), 1, 40.0, ProcessorModel::xscale());
        let gss = run_worst(&fx, Scheme::Gss, Overheads::none());
        let ss1 = run_worst(&fx, Scheme::Ss1, Overheads::none());
        assert!(!gss.missed_deadline && !ss1.missed_deadline);
        let gss_speeds: Vec<f64> = gss
            .trace
            .as_ref()
            .unwrap()
            .iter()
            .map(|e| e.speed)
            .collect();
        let ss1_speeds: Vec<f64> = ss1
            .trace
            .as_ref()
            .unwrap()
            .iter()
            .map(|e| e.speed)
            .collect();
        // GSS's first task is slower than SS(1)'s (greedy takes all slack).
        assert!(gss_speeds[0] <= ss1_speeds[0] + 1e-12);
        // SS(1) speeds never drop below its speculative floor.
        let spec = Ss1Policy::new(&fx.plan, &fx.model, Overheads::none()).spec_speed();
        for s in &ss1_speeds {
            assert!(*s >= spec - 1e-12);
        }
    }

    #[test]
    fn ss2_parameters_bracket_ideal_and_average_work_fits() {
        // Ta = 18, D = 40 → ideal 0.45 on XScale: s1 = 0.4, s2 = 0.6,
        // θ = (0.6·40 − 18)/(0.6 − 0.4) = 30.
        let fx = fixture(&chain(4, 5.0, 4.5), 1, 40.0, ProcessorModel::xscale());
        let ss2 = Ss2Policy::new(&fx.plan, &fx.model, Overheads::none());
        let (s1, s2, theta) = ss2.parameters();
        assert!((s1 - 0.4).abs() < 1e-12, "s1={s1}");
        assert!((s2 - 0.6).abs() < 1e-12, "s2={s2}");
        assert!((theta - 30.0).abs() < 1e-9, "theta={theta}");
        // θ·s1 + (D−θ)·s2 = Ta.
        assert!((theta * s1 + (40.0 - theta) * s2 - 18.0).abs() < 1e-9);
    }

    #[test]
    fn ss2_degenerates_to_single_speed_on_level_match() {
        // Ideal exactly at a level: Ta/D = 0.6 → s1 = s2 = 0.6, θ = 0.
        let fx = fixture(&chain(4, 5.0, 3.0), 1, 20.0, ProcessorModel::xscale());
        let ss2 = Ss2Policy::new(&fx.plan, &fx.model, Overheads::none());
        let (s1, s2, theta) = ss2.parameters();
        assert!((s1 - 0.6).abs() < 1e-12);
        assert!((s2 - 0.6).abs() < 1e-12);
        assert_eq!(theta, 0.0);
    }

    #[test]
    fn as_respeculates_after_or() {
        let app = Segment::seq([
            Segment::task("A", 4.0, 2.0),
            Segment::branch([
                (0.5, Segment::task("B", 8.0, 6.0)),
                (0.5, Segment::task("C", 2.0, 1.0)),
            ]),
        ]);
        let fx = fixture(&app, 1, 24.0, ProcessorModel::continuous(0.05).unwrap());
        let mut as_pol = AsPolicy::new(&fx.plan, &fx.model, Overheads::none());
        as_pol.begin_run();
        let initial = as_pol.spec_desired();
        assert!((initial - fx.plan.avg_total / 24.0).abs() < 1e-12);
        let or =
            fx.g.iter()
                .find(|(_, n)| n.kind.is_or() && n.succs.len() == 2)
                .unwrap()
                .0;
        as_pol.on_or_fired(or, 0, 10.0);
        // Remaining avg for branch 0 is 6 (B's acet), 14 ms left.
        assert!((as_pol.spec_desired() - 6.0 / 14.0).abs() < 1e-12);
        as_pol.begin_run();
        assert!((as_pol.spec_desired() - initial).abs() < 1e-12);
    }

    #[test]
    fn all_schemes_meet_deadline_at_worst_case() {
        let app = Segment::seq([
            Segment::task("A", 6.0, 3.0),
            Segment::par([Segment::task("B", 5.0, 2.0), Segment::task("C", 7.0, 3.0)]),
            Segment::branch([
                (0.4, Segment::task("D", 9.0, 4.0)),
                (0.6, Segment::task("E", 3.0, 2.0)),
            ]),
        ]);
        for model in [
            ProcessorModel::transmeta5400(),
            ProcessorModel::xscale(),
            ProcessorModel::continuous(0.1).unwrap(),
        ] {
            let fx = fixture(&app, 2, 30.0, model);
            for scheme in Scheme::ALL {
                let res = run_worst(&fx, scheme, Overheads::paper_defaults());
                assert!(
                    !res.missed_deadline,
                    "{} missed: finish {} > {}",
                    scheme.name(),
                    res.finish_time,
                    res.deadline
                );
            }
        }
    }

    #[test]
    fn level_at_or_below_picks_correctly() {
        let xs = ProcessorModel::xscale();
        assert!((level_at_or_below(&xs, 0.55).unwrap() - 0.4).abs() < 1e-12);
        assert!((level_at_or_below(&xs, 0.6).unwrap() - 0.6).abs() < 1e-12);
        assert_eq!(level_at_or_below(&xs, 0.1), None);
        let cont = ProcessorModel::continuous(0.2).unwrap();
        assert!((level_at_or_below(&cont, 0.5).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(level_at_or_below(&cont, 0.1), None);
    }

    #[test]
    fn proportional_spreads_slack_evenly() {
        // Two tasks of 5 each, D = 20 (static slack 10): PP runs both at
        // 0.5; GSS runs the first at 10/(10+5)... no — first LST=10, so
        // GSS desired is 5/15 = 1/3 then the second at ~1.0·(5/(5+5))...
        // The point: PP's two speeds are equal, GSS's are not.
        let fx = fixture(
            &chain(2, 5.0, 5.0),
            1,
            20.0,
            ProcessorModel::continuous(0.05).unwrap(),
        );
        let cfg = SimConfig {
            num_procs: 1,
            deadline: 20.0,
            idle_fraction: 0.05,
            static_fraction: 0.0,
            overheads: Overheads::none(),
            record_trace: true,
        };
        let sim = Simulator::new(&fx.g, &fx.sg, &fx.plan.dispatch, &fx.model, cfg);
        let scen = fx
            .sg
            .enumerate_scenarios(&fx.g)
            .next()
            .map(|(s, _)| s)
            .unwrap();
        let real = Realization::worst_case(&fx.g, scen);
        let mut pp = ProportionalPolicy::new(&fx.plan, &fx.model, Overheads::none());
        let res = sim.run(&mut pp, &real).expect("run succeeds");
        assert!(!res.missed_deadline);
        let tr = res.trace.as_ref().unwrap();
        assert!((tr[0].speed - 0.5).abs() < 1e-9, "{}", tr[0].speed);
        assert!((tr[1].speed - 0.5).abs() < 1e-9, "{}", tr[1].speed);
        assert!((res.finish_time - 20.0).abs() < 1e-9);
    }

    #[test]
    fn proportional_meets_deadline_at_worst_case() {
        let fx = fixture(&chain(4, 5.0, 2.0), 2, 25.0, ProcessorModel::xscale());
        let cfg = SimConfig {
            num_procs: 2,
            deadline: 25.0,
            idle_fraction: 0.05,
            static_fraction: 0.0,
            overheads: Overheads::paper_defaults(),
            record_trace: false,
        };
        let sim = Simulator::new(&fx.g, &fx.sg, &fx.plan.dispatch, &fx.model, cfg);
        let scen = fx
            .sg
            .enumerate_scenarios(&fx.g)
            .next()
            .map(|(s, _)| s)
            .unwrap();
        let real = Realization::worst_case(&fx.g, scen);
        let mut pp = ProportionalPolicy::new(&fx.plan, &fx.model, Overheads::paper_defaults());
        let res = sim.run(&mut pp, &real).expect("run succeeds");
        assert!(
            !res.missed_deadline,
            "{} > {}",
            res.finish_time, res.deadline
        );
    }

    #[test]
    fn energy_floor_raises_slow_decisions() {
        let fx = fixture(
            &chain(1, 10.0, 5.0),
            1,
            40.0,
            ProcessorModel::continuous(0.05).unwrap(),
        );
        // GSS alone would pick 10/40 = 0.25; floor it at 0.5.
        let inner = GssPolicy::new(&fx.plan, &fx.model, Overheads::none());
        let mut floored = EnergyFloorPolicy::new(inner, 0.5, &fx.model);
        assert_eq!(floored.name(), "GSS+floor");
        assert_eq!(floored.floor(), 0.5);
        let ctx = DispatchCtx {
            now: 0.0,
            current_point: fx.model.max_point(),
            wcet: 10.0,
        };
        let d = floored.speed_for(NodeId(0), &ctx);
        assert!((d.point.speed - 0.5).abs() < 1e-12, "{}", d.point.speed);
        // A fast decision passes through unchanged.
        let ctx_late = DispatchCtx {
            now: 39.0,
            current_point: fx.model.max_point(),
            wcet: 10.0,
        };
        let d = floored.speed_for(NodeId(0), &ctx_late);
        assert_eq!(d.point.speed, 1.0);
    }

    #[test]
    fn floored_policy_still_meets_deadlines_with_leakage() {
        use mp_sim::Realization;
        let fx = fixture(&chain(3, 5.0, 2.0), 2, 30.0, ProcessorModel::xscale());
        let floor = dvfs_power::efficient_floor(&fx.model, 0.3);
        assert!(floor > fx.model.min_speed(), "leakage raises the floor");
        let inner = GssPolicy::new(&fx.plan, &fx.model, Overheads::none());
        let mut policy = EnergyFloorPolicy::new(inner, floor, &fx.model);
        let cfg = SimConfig {
            num_procs: 2,
            deadline: 30.0,
            idle_fraction: 0.05,
            static_fraction: 0.3,
            overheads: Overheads::none(),
            record_trace: false,
        };
        let sim = Simulator::new(&fx.g, &fx.sg, &fx.plan.dispatch, &fx.model, cfg);
        let scen = fx
            .sg
            .enumerate_scenarios(&fx.g)
            .next()
            .map(|(s, _)| s)
            .unwrap();
        let res = sim
            .run(&mut policy, &Realization::worst_case(&fx.g, scen))
            .expect("run succeeds");
        assert!(!res.missed_deadline);
    }

    #[test]
    fn scheme_metadata() {
        assert_eq!(Scheme::ALL.len(), 6);
        assert_eq!(Scheme::MANAGED.len(), 5);
        assert_eq!(Scheme::Gss.to_string(), "GSS");
        assert_eq!(Scheme::Ss2.name(), "SS(2)");
    }
}
