//! `paper-mc`: `run_batch` over all six schemes on the paper's three
//! graphs and both platforms, as `pas compare --metrics --batch N` runs it.

use crate::mc::{self, Cell, LayerTotals};
use crate::report::Outcome;
use crate::stats::{median, ms, ns, process_cpu_s, quantile, ratio, vm_hwm_mb};
use crate::trace::Tracer;
use crate::Args;
use pas_core::{Scheme, Setup};
use pas_experiments::figures::atr_app;
use pas_experiments::Platform;
use std::time::Instant;

/// Realizations per timed `run_batch` call.
const BATCH: usize = 4096;
/// Realizations per cell in the traced run.
const TRACED_BATCH: usize = 512;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;

fn platform_key(p: Platform) -> &'static str {
    match p {
        Platform::Transmeta => "transmeta",
        Platform::XScale => "xscale",
    }
}

/// Figures 4, 5 and 6 at load 0.5 on both platforms: six planned cells.
fn build_cells() -> Result<Vec<Cell>, String> {
    let atr = atr_app();
    let synthetic = workloads::synthetic_app_alpha(0.5)?
        .lower()
        .map_err(|e| format!("synthetic app: {e}"))?;
    let mut cells = Vec::new();
    for (fig, app, procs) in [
        ("fig4", &atr, 2),
        ("fig5", &atr, 6),
        ("fig6", &synthetic, 2),
    ] {
        for platform in [Platform::Transmeta, Platform::XScale] {
            let setup = Setup::for_load(app.clone(), platform.model(), procs, 0.5)
                .map_err(|e| format!("{fig}: {e}"))?;
            cells.push(Cell {
                label: format!("{fig}/{}", platform_key(platform)),
                platform: platform_key(platform),
                setup,
            });
        }
    }
    Ok(cells)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut setup_times = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        cells = build_cells()?;
        setup_times.push(t.elapsed().as_secs_f64());
    }
    if args.trace {
        traced(args, &cells, &mut o)?;
        return Ok(o);
    }
    o.set("setup_s", median(&setup_times));

    // One operation is what `pas compare --metrics --batch 4096` does for
    // one configuration: a batch and fold per scheme, timed as the CPU time
    // it consumed (see README: wall time on the shared host moved with the
    // hypervisor's steal by up to 40%). Every round runs the same six
    // configurations; each metric is taken per round — scheme-runs per
    // CPU-second, and the p50 and p95 of the round's operations — and
    // reported as the median over rounds.
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut round = 0u64;
    while mc::left(start, args.seconds) {
        let (mut runs, mut cpu_s) = (0usize, 0.0);
        let mut op_ms = Vec::new();
        for cell in &cells {
            let mut op_s = 0.0;
            for scheme in Scheme::ALL {
                let first = round * BATCH as u64;
                let t = process_cpu_s();
                let r = mc::batch(cell, scheme, args.seed, first, BATCH);
                op_s += process_cpu_s() - t;
                match r {
                    Ok(r) => {
                        runs += r.out.len();
                        o.op(mc::check_batch(cell, scheme, args.seed, first, &r));
                    }
                    Err(e) => o.op(Some(e)),
                }
            }
            op_ms.push(op_s * 1e3);
            cpu_s += op_s;
        }
        rounds.push([
            ratio(runs as f64, cpu_s),
            quantile(&op_ms, 0.5),
            quantile(&op_ms, 0.95),
        ]);
        round += 1;
    }
    let stat = |i: usize| median(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>());
    o.set("throughput_per_s", stat(0));
    o.set("op_p50_ms", stat(1));
    o.set("op_p95_ms", stat(2));
    o.set("rss_peak_mb", vm_hwm_mb("self"));
    Ok(o)
}

/// The traced run: each cell's batch untraced, then the same draws
/// through the traced sequential loop.
fn traced(args: &Args, cells: &[Cell], o: &mut Outcome) -> Result<(), String> {
    let clock = mc::clock_overhead_ns();
    let origin = Instant::now();
    let mut tracer = Tracer::new(true, origin, 1);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let mut tot = LayerTotals::default();
    let mut folds = Vec::new();
    let mut quantile_above_max = 0u64;
    let mut batch_capacity_ns = 0.0;
    let mut round = 0u64;
    while mc::left(origin, args.seconds) {
        for cell in cells {
            for scheme in Scheme::ALL {
                let first = round * TRACED_BATCH as u64;
                tracer.begin("sim.run_batch");
                let r = mc::batch(cell, scheme, args.seed, first, TRACED_BATCH);
                tracer.end();
                let r = match r {
                    Ok(r) => r,
                    Err(e) => {
                        o.op(Some(e));
                        continue;
                    }
                };
                o.op(mc::check_batch(cell, scheme, args.seed, first, &r));
                folds.push(ms(r.fold_wall));
                quantile_above_max += mc::quantiles_above_max(&r.dist);
                let t = mc::traced_loop(cell, scheme, args.seed, first, TRACED_BATCH, &mut tracer)?;
                batch_capacity_ns += ns(r.batch_wall) * threads;
                tot.add(&t);
            }
        }
        round += 1;
    }
    mc::set_layer_metrics(o, &tracer, &tot, clock);
    // Busy share of the batch engine's threads: what the same draws cost
    // run one by one (sampling plus `run_into`), over the batch's
    // wall time times its threads.
    let per_run = tracer.agg("sim.sample_into").mean_ns() + tracer.agg("sim.run_into").mean_ns()
        - 2.0 * clock;
    o.set(
        "sim.batch.thread_util",
        ratio(per_run * tot.runs as f64, batch_capacity_ns),
    );
    o.set("sim.batch.fold_ms", median(&folds));
    o.set("sim.batch.quantile_above_max", quantile_above_max as f64);
    o.set("trace.spans", tracer.span_count() as f64);
    crate::write_trace(args, &tracer);
    Ok(())
}
