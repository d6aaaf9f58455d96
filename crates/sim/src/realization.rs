//! Run realizations: the random draws one Monte-Carlo iteration is made of.
//!
//! A *realization* fixes everything stochastic about one run of the
//! application — which branch every OR node takes and how long every task
//! actually executes (at maximum speed). The engine is then a deterministic
//! function of `(realization, policy)`, so different schemes can be compared
//! on identical draws, which is the paired design behind each averaged
//! point in the paper's figures.

use andor_graph::{AndOrGraph, Scenario, SectionGraph};
use pas_stats::ClippedNormal;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How a task's actual execution time is drawn from its `(wcet, acet)`
/// pair.
///
/// The paper (§5): "the actual execution time of a task follows a normal
/// distribution around" the average case. We use
/// `N(acet, (sd_over_gap · (wcet − acet))²)` clipped to
/// `[floor_fraction·wcet, wcet]`: the spread scales with the available
/// dynamic slack, so `acet == wcet` (α = 1) degenerates to deterministic
/// worst-case execution, exactly as the paper's α-sweep expects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecTimeModel {
    /// Standard deviation as a fraction of `wcet − acet`.
    pub sd_over_gap: f64,
    /// Lower clip bound as a fraction of `wcet` (must be positive — tasks
    /// cannot take zero time).
    pub floor_fraction: f64,
}

impl ExecTimeModel {
    /// The defaults used throughout the evaluation: σ = (wcet−acet)/3,
    /// floor at 1% of WCET.
    pub const fn paper_defaults() -> Self {
        Self {
            sd_over_gap: 1.0 / 3.0,
            floor_fraction: 0.01,
        }
    }

    /// Deterministic worst-case execution (every task takes its WCET).
    pub const fn always_wcet() -> Self {
        Self {
            sd_over_gap: 0.0,
            floor_fraction: 1.0,
        }
    }

    /// Draws an actual execution time for a task.
    ///
    /// Invariant: for any `wcet > 0` the result is in `(0, wcet]` — a
    /// fault-free realization can never overrun the worst case or take
    /// non-positive time, whatever (possibly degenerate) model parameters
    /// or `(wcet, acet)` pair this is called with. Overruns are injected
    /// explicitly through [`crate::fault::FaultPlan`], never sampled.
    pub fn sample<R: Rng + ?Sized>(&self, wcet: f64, acet: f64, rng: &mut R) -> f64 {
        if !wcet.is_finite() || wcet <= 0.0 {
            // No positive budget to sample within (dummy nodes pass 0.0).
            return wcet.max(0.0);
        }
        if self.floor_fraction >= 1.0 {
            return wcet;
        }
        // Clamp degenerate inputs instead of panicking: a NaN or
        // out-of-range acet collapses to the worst case.
        let acet = if acet.is_finite() {
            acet.clamp(0.0, wcet)
        } else {
            wcet
        };
        let sd = self.sd_over_gap * (wcet - acet).max(0.0);
        // Strictly positive floor even when `floor_fraction * wcet`
        // underflows or acet sits at zero.
        let lo = (self.floor_fraction * wcet)
            .min(acet)
            .max(wcet * 1e-12)
            .min(wcet);
        match ClippedNormal::new(acet, sd, lo, wcet) {
            Some(mut dist) => dist.sample(rng).clamp(lo, wcet),
            // Unreachable after the clamps above (sd could only be
            // non-finite via a non-finite sd_over_gap); degrade to the
            // deterministic mean rather than panicking mid-experiment.
            None => acet.clamp(lo, wcet),
        }
    }
}

impl Default for ExecTimeModel {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// One fully resolved run: OR choices plus per-node actual execution times.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Realization {
    /// The OR decisions of this run.
    pub scenario: Scenario,
    /// Actual execution time (ms at maximum speed) per node, indexed by
    /// [`NodeId::index`](andor_graph::NodeId::index). Synchronization nodes
    /// hold `0.0`; inactive nodes hold their sample anyway (unused).
    pub actual: Vec<f64>,
}

impl Realization {
    /// Draws a realization: samples the scenario from the OR branch
    /// probabilities and an actual execution time for every computation
    /// node.
    pub fn sample<R: Rng + ?Sized>(
        g: &AndOrGraph,
        sections: &SectionGraph,
        model: &ExecTimeModel,
        rng: &mut R,
    ) -> Self {
        let mut real = Self::empty();
        real.sample_into(g, sections, model, rng);
        real
    }

    /// Re-draws this realization in place, reusing the `actual` buffer
    /// (the batch driver in [`crate::batch`] keeps one per worker).
    pub fn sample_into<R: Rng + ?Sized>(
        &mut self,
        g: &AndOrGraph,
        sections: &SectionGraph,
        model: &ExecTimeModel,
        rng: &mut R,
    ) {
        self.scenario = sections.sample_scenario(g, rng);
        self.actual.clear();
        self.actual.extend(g.nodes().iter().map(|n| {
            if n.kind.is_computation() {
                model.sample(n.kind.wcet(), n.kind.acet(), rng)
            } else {
                0.0
            }
        }));
    }

    /// A buffer with nothing drawn yet, for [`Realization::sample_into`].
    pub(crate) fn empty() -> Self {
        Self {
            scenario: Scenario {
                choices: Vec::new(),
            },
            actual: Vec::new(),
        }
    }

    /// A worst-case realization: a caller-chosen scenario with every task
    /// at its WCET (used by the deadline-guarantee tests).
    pub fn worst_case(g: &AndOrGraph, scenario: Scenario) -> Self {
        let actual = g.nodes().iter().map(|n| n.kind.wcet()).collect();
        Self { scenario, actual }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andor_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diamond() -> (AndOrGraph, SectionGraph) {
        let mut b = GraphBuilder::new();
        let a = b.task("A", 8.0, 5.0);
        let o1 = b.or("O1");
        let t_b = b.task("B", 5.0, 3.0);
        let t_c = b.task("C", 4.0, 2.0);
        b.edge(a, o1).expect("edge is valid");
        b.or_branch(o1, t_b, 0.3).expect("branch is valid");
        b.or_branch(o1, t_c, 0.7).expect("branch is valid");
        let g = b.build().expect("diamond builds");
        let sg = SectionGraph::build(&g).expect("diamond sections");
        (g, sg)
    }

    #[test]
    fn samples_respect_bounds() {
        let m = ExecTimeModel::paper_defaults();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = m.sample(10.0, 4.0, &mut rng);
            assert!(x > 0.0 && x <= 10.0, "x={x}");
        }
    }

    #[test]
    fn alpha_one_is_deterministic_wcet() {
        let m = ExecTimeModel::paper_defaults();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(m.sample(10.0, 10.0, &mut rng), 10.0);
        }
    }

    #[test]
    fn always_wcet_model() {
        let m = ExecTimeModel::always_wcet();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(m.sample(7.0, 2.0, &mut rng), 7.0);
    }

    #[test]
    fn sample_mean_tracks_acet() {
        let m = ExecTimeModel::paper_defaults();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| m.sample(10.0, 6.0, &mut rng)).sum::<f64>() / n as f64;
        // Clipping skews slightly; stay within a tolerant band.
        assert!((mean - 6.0).abs() < 0.2, "mean={mean}");
    }

    #[test]
    fn realization_covers_all_nodes() {
        let (g, sg) = diamond();
        let mut rng = StdRng::seed_from_u64(5);
        let r = Realization::sample(&g, &sg, &ExecTimeModel::paper_defaults(), &mut rng);
        assert_eq!(r.actual.len(), g.len());
        assert_eq!(r.actual[1], 0.0, "OR node draws no execution time");
        assert!(r.actual[0] > 0.0 && r.actual[0] <= 8.0);
        assert_eq!(r.scenario.choices.len(), 1);
    }

    proptest::proptest! {
        /// Satellite invariant: for any positive WCET — including
        /// degenerate model parameters and out-of-range acet — a
        /// fault-free sample lies strictly in `(0, wcet]`. Overrunning the
        /// worst case is the fault layer's job, never the sampler's.
        #[test]
        fn sample_stays_in_zero_wcet_interval(
            wcet_tenths in 1u32..10_000,
            acet_pct in 0u32..=110,
            sd_over_gap_pct in 0u32..=300,
            floor_pct in 0u32..=120,
            seed in 0u64..1_000,
        ) {
            let wcet = wcet_tenths as f64 / 10.0;
            let acet = wcet * acet_pct as f64 / 100.0;
            let m = ExecTimeModel {
                sd_over_gap: sd_over_gap_pct as f64 / 100.0,
                floor_fraction: floor_pct as f64 / 100.0,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                let x = m.sample(wcet, acet, &mut rng);
                proptest::prop_assert!(
                    x > 0.0 && x <= wcet,
                    "x={x} wcet={wcet} acet={acet} model={m:?}"
                );
            }
        }
    }

    #[test]
    fn worst_case_uses_wcet_everywhere() {
        let (g, sg) = diamond();
        let mut rng = StdRng::seed_from_u64(5);
        let scen = sg.sample_scenario(&g, &mut rng);
        let r = Realization::worst_case(&g, scen);
        assert_eq!(r.actual[0], 8.0);
        assert_eq!(r.actual[2], 5.0);
    }
}
