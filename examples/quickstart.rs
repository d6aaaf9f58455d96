//! Quickstart: build an AND/OR application, schedule it with greedy slack
//! sharing on two DVS processors, and compare the energy against running
//! without power management.
//!
//! Run with: `cargo run --example quickstart`

use pas_andor::core::{Scheme, Setup};
use pas_andor::graph::Segment;
use pas_andor::power::ProcessorModel;
use pas_andor::sim::{run_batch_paired, BatchConfig, ExecTimeModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The application: a preprocessing task, a parallel pair, then a
    // data-dependent branch — 30% of inputs need the expensive path.
    // Task attributes are (worst-case ms, average-case ms) at full speed.
    let app = Segment::seq([
        Segment::task("preprocess", 8.0, 5.0),
        Segment::par([
            Segment::task("filter", 5.0, 3.0),
            Segment::task("transform", 4.0, 2.0),
        ]),
        Segment::branch([
            (0.3, Segment::task("deep-analysis", 10.0, 6.0)),
            (0.7, Segment::task("quick-analysis", 3.0, 2.0)),
        ]),
    ]);

    // Two processors with the Transmeta TM5400's 16 voltage/speed levels,
    // and a 40 ms deadline. `Setup` runs the paper's off-line phase:
    // canonical LTF schedules, latest start times, per-PMP statistics.
    let setup = Setup::new(app.lower()?, ProcessorModel::transmeta5400(), 2, 40.0)?;
    println!(
        "worst-case finish {:.1} ms, average {:.1} ms, deadline {:.1} ms (load {:.2})",
        setup.plan.worst_total,
        setup.plan.avg_total,
        setup.plan.deadline,
        setup.plan.load()
    );

    // Simulate 1000 frames; each frame draws OR decisions and actual
    // execution times, then every scheme runs on the identical draw.
    let outs = run_batch_paired(
        &setup.simulator(false),
        &ExecTimeModel::paper_defaults(),
        None,
        || Scheme::ALL.iter().map(|s| setup.policy(*s)).collect(),
        &BatchConfig::new(1000, 2002),
    )?;

    let npm: f64 = outs[0].energy.iter().sum();
    println!("\nscheme   normalized energy (lower is better)");
    for (scheme, out) in Scheme::ALL.iter().zip(&outs) {
        assert!(
            !out.missed.contains(&true),
            "{scheme} must meet the deadline"
        );
        let total: f64 = out.energy.iter().sum();
        println!("{:<8} {:.4}", scheme.name(), total / npm);
    }
    Ok(())
}
