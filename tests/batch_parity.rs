//! The batched Monte-Carlo engine's determinism contract, pinned at the
//! workspace level: per-seed results of `mp_sim::run_batch` are
//! bit-identical to the sequential engine — across every scheme, both
//! paper platforms, and arbitrary fault plans — and the batch
//! distribution summaries equal a fold over the sequential runs.
//!
//! The contract itself is documented in `docs/simulator.md`; these tests
//! are the enforcement the doc points at.

use pas_andor::core::{Scheme, Setup};
use pas_andor::power::{EnergyMeter, ProcessorModel};
use pas_andor::sim::{
    realization_seed, run_batch, run_batch_paired, BatchConfig, BatchDistribution, BatchOutput,
    DeadlineStatus, ExecTimeModel, FaultPlan, Realization, RunResult,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Flattens every field of a [`RunResult`] into bit patterns, so equality
/// means *bit-identical*, not merely approximately equal. `RunResult` has
/// no `PartialEq` on purpose — float comparison policy belongs to the
/// caller — so the tests spell the policy out: exact bits, all fields.
fn fingerprint(r: &RunResult) -> Vec<u64> {
    fn meter(m: &EnergyMeter, out: &mut Vec<u64>) {
        out.push(m.busy_energy().to_bits());
        out.push(m.idle_energy().to_bits());
        out.push(m.transition_energy().to_bits());
        out.push(m.busy_time().to_bits());
        out.push(m.idle_time().to_bits());
        out.push(m.transition_time().to_bits());
        out.push(m.speed_changes());
    }
    let mut v = vec![
        r.finish_time.to_bits(),
        r.deadline.to_bits(),
        u64::from(r.missed_deadline),
    ];
    match r.status {
        DeadlineStatus::Met { slack } => {
            v.push(0);
            v.push(slack.to_bits());
        }
        DeadlineStatus::Missed { by } => {
            v.push(1);
            v.push(by.to_bits());
        }
    }
    v.push(r.faults.overruns_injected);
    v.push(r.faults.speed_failures_injected);
    v.push(r.faults.stalls_injected);
    v.push(r.faults.overruns_detected);
    v.push(r.faults.recoveries);
    v.push(r.faults.recovery_energy.to_bits());
    meter(&r.energy, &mut v);
    v.push(r.per_proc.len() as u64);
    for m in &r.per_proc {
        meter(m, &mut v);
    }
    v.push(r.final_points.len() as u64);
    for p in &r.final_points {
        v.push(p.speed.to_bits());
        v.push(p.power.to_bits());
    }
    // Neither engine records a trace here (`record_trace` unset).
    v.push(r.trace.as_ref().map_or(0, |t| t.len() as u64));
    v
}

/// Every column of a [`BatchOutput`] as bit patterns, kept results
/// included.
fn columns(out: &BatchOutput) -> Vec<u64> {
    let mut v = vec![out.n_sections as u64, out.events_sampled, out.runs_sampled];
    v.extend(out.finish_time.iter().map(|x| x.to_bits()));
    v.extend(out.missed.iter().map(|&m| u64::from(m)));
    v.extend(out.energy.iter().map(|x| x.to_bits()));
    v.extend(&out.speed_changes);
    v.extend(out.section_energy.iter().map(|x| x.to_bits()));
    for r in out.results.iter().flatten() {
        v.extend(fingerprint(r));
    }
    v
}

/// Runs the sequential reference for realization `index`: fresh RNG from
/// the published seeding contract, fresh policy, the historical
/// `run_full` entry point.
fn sequential_run(
    setup: &Setup,
    scheme: Scheme,
    etm: &ExecTimeModel,
    faults: Option<&FaultPlan>,
    base_seed: u64,
    index: u64,
) -> RunResult {
    let sim = setup.simulator(false);
    let mut rng = StdRng::seed_from_u64(realization_seed(base_seed, index));
    let real = Realization::sample(&setup.graph, &setup.sections, etm, &mut rng);
    let fs = faults.map(|plan| plan.realize(&setup.graph, index));
    let mut policy = setup.policy(scheme);
    sim.run_full(policy.as_mut(), &real, None, fs.as_ref())
        .expect("sequential run succeeds")
}

/// Every scheme on both paper platforms: batched results are bit-identical
/// to the sequential engine, fault-free.
#[test]
fn batch_is_bit_identical_across_schemes_and_platforms() {
    const RUNS: usize = 12;
    const SEED: u64 = 0xD1CE;
    let etm = ExecTimeModel::paper_defaults();
    for (platform, model) in [
        ("transmeta", ProcessorModel::transmeta5400()),
        ("xscale", ProcessorModel::xscale()),
    ] {
        let app = pas_andor::workloads::synthetic_app()
            .lower()
            .expect("lowers");
        let setup = Setup::for_load(app, model, 2, 0.5).expect("feasible");
        for scheme in Scheme::ALL {
            let sim = setup.simulator(false);
            let mut cfg = BatchConfig::new(RUNS, SEED);
            cfg.chunk = 5; // uneven chunking must not matter
            cfg.keep_results = true;
            let out =
                run_batch(&sim, &etm, None, || setup.policy(scheme), &cfg).expect("batch runs");
            let results = out.results.as_ref().expect("keep_results set");
            assert_eq!(results.len(), RUNS);
            for (i, batched) in results.iter().enumerate() {
                let seq = sequential_run(&setup, scheme, &etm, None, SEED, i as u64);
                assert_eq!(
                    fingerprint(batched),
                    fingerprint(&seq),
                    "{} on {platform}: realization {i} diverged",
                    scheme.name(),
                );
            }
        }
    }
}

/// Batch distribution summaries equal a fold over the sequential runs:
/// same histogram counts, bit-identical streaming moments, same miss
/// tally — because both fold realizations in index order.
#[test]
fn distributions_equal_a_sequential_fold() {
    const RUNS: usize = 48;
    const SEED: u64 = 0xF01D;
    let etm = ExecTimeModel::paper_defaults();
    let app = pas_andor::workloads::synthetic_app()
        .lower()
        .expect("lowers");
    let setup = Setup::for_load(app, ProcessorModel::transmeta5400(), 2, 0.5).expect("feasible");
    let scheme = Scheme::Gss;
    let sim = setup.simulator(false);
    let cfg = BatchConfig::new(RUNS, SEED);
    let out = run_batch(&sim, &etm, None, || setup.policy(scheme), &cfg).expect("batch runs");

    let e_hi = setup.plan.num_procs as f64 * setup.plan.deadline;
    let t_hi = setup.plan.deadline * 1.5;
    let batch_dist = BatchDistribution::from_output(&out, e_hi, t_hi, 128).expect("dist builds");

    let mut seq_dist =
        BatchDistribution::new(e_hi, t_hi, setup.sections.len(), 128).expect("dist builds");
    for i in 0..RUNS as u64 {
        let r = sequential_run(&setup, scheme, &etm, None, SEED, i);
        // The sequential engine has no per-section column; reuse the
        // batch's row, which the bit-identity test above already ties to
        // the same run.
        seq_dist.push(
            r.total_energy(),
            r.finish_time,
            r.missed_deadline,
            out.section_row(i as usize),
        );
    }
    assert_eq!(batch_dist.runs(), seq_dist.runs());
    assert_eq!(batch_dist.misses(), seq_dist.misses());
    for (a, b) in [
        (batch_dist.energy(), seq_dist.energy()),
        (batch_dist.makespan(), seq_dist.makespan()),
    ] {
        assert_eq!(a.histogram().counts(), b.histogram().counts());
        assert_eq!(a.summary().mean().to_bits(), b.summary().mean().to_bits());
        assert_eq!(a.max().to_bits(), b.max().to_bits());
    }
    for (a, b) in batch_dist.sections().iter().zip(seq_dist.sections()) {
        assert_eq!(a.histogram().counts(), b.histogram().counts());
        assert_eq!(a.summary().mean().to_bits(), b.summary().mean().to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fault plans cannot break the contract: injected overruns,
    /// speed failures and stalls are realized per global index, so the
    /// batched engine sees exactly the faults the sequential loop would.
    #[test]
    fn batch_matches_sequential_under_random_faults(
        scheme_idx in 0usize..Scheme::ALL.len(),
        xscale in 0usize..2,
        overrun_prob in 0.0f64..0.5,
        overrun_factor in 1.0f64..2.0,
        speed_fail_prob in 0.0f64..0.3,
        stall_prob in 0.0f64..0.3,
        stall_ms in 0.0f64..2.0,
        fault_seed in 0u64..1_000,
        base_seed in 0u64..1_000,
        chunk in 1usize..9,
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let model = if xscale == 1 {
            ProcessorModel::xscale()
        } else {
            ProcessorModel::transmeta5400()
        };
        let plan = FaultPlan {
            overrun_prob,
            overrun_factor,
            speed_fail_prob,
            stall_prob,
            stall_ms,
            seed: fault_seed,
        };
        plan.validate().expect("generated plan is valid");
        let etm = ExecTimeModel::paper_defaults();
        let app = pas_andor::workloads::synthetic_app().lower().expect("lowers");
        let setup = Setup::for_load(app, model, 2, 0.5).expect("feasible");
        let sim = setup.simulator(false);
        let mut cfg = BatchConfig::new(8, base_seed);
        cfg.chunk = chunk;
        cfg.keep_results = true;
        let out = run_batch(&sim, &etm, Some(&plan), || setup.policy(scheme), &cfg)
            .expect("batch runs");
        let results = out.results.as_ref().expect("keep_results set");
        for (i, batched) in results.iter().enumerate() {
            let seq = sequential_run(&setup, scheme, &etm, Some(&plan), base_seed, i as u64);
            prop_assert_eq!(
                fingerprint(batched),
                fingerprint(&seq),
                "{} realization {} diverged (chunk {})",
                scheme.name(),
                i,
                chunk
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The paired form draws each realization once and runs every scheme
    /// on it; each scheme's column is bit-identical to a one-policy
    /// `run_batch` with the same configuration — on both platforms, under
    /// random fault plans, uneven chunking and observability sampling.
    #[test]
    fn paired_columns_equal_one_policy_batches(
        overrun_prob in 0.0f64..0.5,
        overrun_factor in 1.0f64..2.0,
        speed_fail_prob in 0.0f64..0.3,
        stall_prob in 0.0f64..0.3,
        stall_ms in 0.0f64..2.0,
        fault_seed in 0u64..1_000,
        base_seed in 0u64..1_000,
        chunk in 1usize..9,
    ) {
        let plan = FaultPlan {
            overrun_prob,
            overrun_factor,
            speed_fail_prob,
            stall_prob,
            stall_ms,
            seed: fault_seed,
        };
        plan.validate().expect("generated plan is valid");
        let etm = ExecTimeModel::paper_defaults();
        for model in [ProcessorModel::transmeta5400(), ProcessorModel::xscale()] {
            let app = pas_andor::workloads::synthetic_app().lower().expect("lowers");
            let setup = Setup::for_load(app, model, 2, 0.5).expect("feasible");
            let sim = setup.simulator(false);
            let mut cfg = BatchConfig::new(10, base_seed);
            cfg.chunk = chunk;
            cfg.keep_results = true;
            cfg.observe_stride = 3;
            let paired = run_batch_paired(
                &sim,
                &etm,
                Some(&plan),
                || Scheme::ALL.iter().map(|s| setup.policy(*s)).collect(),
                &cfg,
            )
            .expect("paired batch runs");
            prop_assert_eq!(paired.len(), Scheme::ALL.len());
            for (scheme, column) in Scheme::ALL.iter().zip(&paired) {
                let single = run_batch(&sim, &etm, Some(&plan), || setup.policy(*scheme), &cfg)
                    .expect("batch runs");
                prop_assert_eq!(
                    columns(column),
                    columns(&single),
                    "{} column diverged (chunk {})",
                    scheme.name(),
                    chunk
                );
            }
        }
    }
}
