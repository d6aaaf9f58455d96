//! How close do the on-line schemes get to a clairvoyant scheduler?
//!
//! Paper §3.3 motivates speculation with the observation that a
//! clairvoyant algorithm — one that knows every task's actual execution
//! time in advance — achieves minimal energy by running everything at one
//! speed. This example measures each scheme's distance from that bound on
//! both evaluation platforms.
//!
//! Two effects to look for in the output:
//!
//! * on the fine-grained Transmeta table, adaptive speculation (AS) tracks
//!   the clairvoyant bound within a few percent at every load;
//! * on the coarse XScale table, schemes occasionally dip *below* 1.0 —
//!   mixing two adjacent levels across tasks beats any single rounded-up
//!   level, something the single-speed clairvoyant cannot express.
//!
//! Run with: `cargo run --release --example oracle_bound`

use pas_andor::core::{Scheme, Setup};
use pas_andor::power::ProcessorModel;
use pas_andor::sim::{for_each_realization, BatchConfig, ExecTimeModel, RunScratch};
use pas_andor::workloads::AtrParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(0xA72);
    let app = AtrParams::default().build_jittered(&mut rng)?.lower()?;
    const RUNS: usize = 400;
    const SCHEMES: [Scheme; 4] = [Scheme::Gss, Scheme::As, Scheme::Spm, Scheme::Npm];

    for model in [ProcessorModel::transmeta5400(), ProcessorModel::xscale()] {
        println!("== {} ==", model.name());
        println!(
            "{:<6} {:>8} {:>8} {:>8} {:>8}",
            "load", "GSS", "AS", "SPM", "NPM"
        );
        for load in [0.3, 0.5, 0.7, 0.9] {
            let setup = Setup::for_load(app.clone(), model.clone(), 2, load)?;
            let sim = setup.simulator(false);
            // Per realization: the oracle (built for that draw), then the
            // four schemes, all on the one draw.
            let chunks = for_each_realization(
                &sim,
                &ExecTimeModel::paper_defaults(),
                None,
                &BatchConfig::new(RUNS, 99),
                |_| {
                    let policies: Vec<_> = SCHEMES.iter().map(|s| setup.policy(*s)).collect();
                    ((policies, RunScratch::new()), [0.0_f64; 5])
                },
                |(policies, scratch), totals, draw| {
                    let mut oracle = setup.oracle(draw.real)?;
                    let res = sim.run_into(scratch, &mut oracle, draw.real, None, None, None)?;
                    totals[0] += res.energy.total_energy();
                    for (policy, total) in policies.iter_mut().zip(&mut totals[1..]) {
                        let res =
                            sim.run_into(scratch, policy.as_mut(), draw.real, None, None, None)?;
                        *total += res.energy.total_energy();
                    }
                    Ok(())
                },
            )?;
            let mut totals = [0.0_f64; 5];
            for chunk in &chunks {
                for (total, x) in totals.iter_mut().zip(chunk) {
                    *total += x;
                }
            }
            print!("{load:<6}");
            for total in &totals[1..] {
                print!(" {:>8.3}", total / totals[0]);
            }
            println!();
        }
        println!();
    }
    println!("values are mean energy over the clairvoyant single-speed bound;");
    println!("< 1.0 is possible on coarse level tables (level mixing).");
    Ok(())
}
