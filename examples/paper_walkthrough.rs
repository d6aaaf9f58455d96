//! A guided walkthrough of the paper, start to finish, on one small
//! application — every concept of Zhu et al. (ICPP'02) demonstrated with
//! real numbers:
//!
//! 1. the AND/OR model (§2.1) and its program sections,
//! 2. power management points and their statistics (§2.2),
//! 3. the off-line phase: canonical schedules and latest start times
//!    (§3.2),
//! 4. the on-line phase: greedy slack sharing vs speculation (§3–4),
//! 5. the evaluation quantities: normalized energy and speed changes (§5).
//!
//! Run with: `cargo run --release --example paper_walkthrough`

use pas_andor::core::{Scheme, Setup};
use pas_andor::graph::Segment;
use pas_andor::power::ProcessorModel;
use pas_andor::sim::{run_batch_paired, BatchConfig, ExecTimeModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== 1. The AND/OR application (paper §2.1) ==\n");
    // Figure 1's two structures combined: an AND fork and an OR branch.
    let app = Segment::seq([
        Segment::task("A", 8.0, 5.0),
        Segment::par([Segment::task("B", 5.0, 3.0), Segment::task("C", 4.0, 2.0)]),
        Segment::branch([
            (0.3, Segment::seq([Segment::task("F", 8.0, 6.0)])),
            (0.7, Segment::seq([Segment::task("G", 5.0, 3.0)])),
        ]),
    ]);
    let graph = app.lower()?;
    println!(
        "tasks: {}   AND nodes: {}   OR nodes: {}",
        graph.num_tasks(),
        graph.nodes().iter().filter(|n| n.kind.is_and()).count(),
        graph.num_or_nodes()
    );

    println!("\n== 2-3. The off-line phase (paper §3.2) ==\n");
    // Two processors, Transmeta levels, deadline 30 ms.
    let setup = Setup::new(graph, ProcessorModel::transmeta5400(), 2, 30.0)?;
    println!(
        "canonical worst case Tw = {:.1} ms  (longest path: A, then B on one \
         processor while C runs on the other, then the 8 ms branch)",
        setup.plan.worst_total
    );
    println!(
        "average case Ta = {:.1} ms  (ACETs, branch probabilities weighted)",
        setup.plan.avg_total
    );
    println!(
        "deadline D = {:.0} ms → static slack {:.1} ms (load {:.2})",
        setup.plan.deadline,
        setup.plan.static_slack(),
        setup.plan.load()
    );
    println!("\nlatest start times (canonical schedule shifted to end at D):");
    for (id, node) in setup.graph.iter() {
        if node.kind.is_computation() {
            println!(
                "  {:<4} LST = {:>5.1} ms   (worst-case remaining after this \
                 start: {:>4.1} ms)",
                node.name,
                setup.plan.lst[id.index()].unwrap(),
                setup.plan.deadline - setup.plan.lst[id.index()].unwrap()
            );
        }
    }

    println!("\n== 4. One on-line run, traced (paper §3.3, Figure 2) ==\n");
    let mut rng = StdRng::seed_from_u64(2002);
    let real = setup.sample(&ExecTimeModel::paper_defaults(), &mut rng);
    for scheme in [Scheme::Gss, Scheme::As] {
        let mut policy = setup.policy(scheme);
        let res = setup.simulator(true).run(policy.as_mut(), &real)?;
        println!("{}:", scheme.name());
        for e in res.trace.as_ref().unwrap() {
            println!(
                "  {:<4} p{}  [{:>5.2}, {:>5.2}] ms at speed {:.2}",
                setup.graph.node(e.node).name,
                e.proc,
                e.start,
                e.end,
                e.speed
            );
        }
        println!(
            "  → finished {:.2}/{:.0} ms, energy {:.2}, {} speed change(s)\n",
            res.finish_time,
            res.deadline,
            res.total_energy(),
            res.energy.speed_changes()
        );
    }

    println!("== 5. The evaluation quantities (paper §5) ==\n");
    const RUNS: usize = 1000;
    let outs = run_batch_paired(
        &setup.simulator(false),
        &ExecTimeModel::paper_defaults(),
        None,
        || Scheme::ALL.iter().map(|s| setup.policy(*s)).collect(),
        &BatchConfig::new(RUNS, 42),
    )?;
    println!("{RUNS} runs, paired realizations (the paper's methodology):");
    println!(
        "{:<7} {:>12} {:>14}",
        "scheme", "norm.energy", "changes/run"
    );
    let npm: f64 = outs[0].energy.iter().sum();
    for (s, out) in Scheme::ALL.iter().zip(&outs) {
        assert!(!out.missed.contains(&true), "Theorem 1 violated?!");
        let changes: u64 = out.speed_changes.iter().sum();
        println!(
            "{:<7} {:>12.4} {:>14.2}",
            s.name(),
            out.energy.iter().sum::<f64>() / npm,
            changes as f64 / RUNS as f64
        );
    }
    println!("\nEvery run met its deadline — Theorem 1 in action.");
    Ok(())
}
