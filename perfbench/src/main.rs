//! The repository benchmark: one workload per run, selected by name,
//! inputs generated from `--seed`, outputs checked, and one JSON result
//! line printed last. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <paper-mc|paper-eval|large-graph|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--pas <path to the pas binary>] [--trace-dir <dir>]
//! ```

mod large_graph;
mod mc;
mod paper_eval;
mod paper_mc;
mod report;
mod serve_mix;
mod stats;
mod trace;

use std::path::PathBuf;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The `pas` binary `serve-mix` starts.
    pub pas: PathBuf,
    /// Where the traced run writes its span file.
    pub trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        pas: PathBuf::from("pas"),
        trace_dir: PathBuf::from("perfbench/results"),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--pas" => args.pas = PathBuf::from(value()?),
            "--trace-dir" => args.trace_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Writes the traced run's spans next to the other results.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    let path = args
        .trace_dir
        .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    match tracer.write_chrome_trace(&path) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper-mc" => paper_mc::run(&args),
        "paper-eval" => paper_eval::run(&args),
        "large-graph" => large_graph::run(&args),
        "serve-mix" => serve_mix::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match outcome {
        Ok(o) => {
            for f in &o.failures {
                eprintln!("check failed: {f}");
            }
            println!("{}", o.result_line(args.trace));
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
