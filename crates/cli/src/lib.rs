#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! `pas` — a command-line tool over the power-aware AND/OR scheduling
//! stack.
//!
//! ```text
//! pas inspect  --app synthetic                       graph & scenario statistics
//! pas plan     --app atr --procs 2 --load 0.5        off-line phase report
//! pas run      --app synthetic --procs 2 --load 0.5 \
//!              --scheme gss --seed 42 --gantt        simulate one realization
//! pas compare  --app atr --procs 2 --load 0.5 \
//!              --reps 200                            Monte-Carlo scheme comparison
//! pas dot      --app synthetic                       Graphviz DOT to stdout
//! pas export   --app atr --out atr.json              save a workload as JSON
//! pas trace    --app atr --scheme as --format chrome \
//!              --out trace.json                      export the event stream
//! pas trace    --app atr --frames 100 --format jsonl \
//!              --out stream.jsonl                    stream 100 frames incrementally
//! pas plan     --app atr --procs 2 --load 0.5 \
//!              --profile                             span-profiled off-line phase
//! pas bench    --check                               diff golden workloads vs baselines
//! pas check    atr xscale faults.json                static analysis & feasibility
//! pas plan     w.json xscale --scheme ss2 \
//!              --out plan.json                       serialize the off-line artifact
//! pas check    plan.json --against w.json xscale     verify a plan artifact
//! pas check    w.json --fix                          write repaired w.fixed.json
//! pas serve    --listen 127.0.0.1:7453 --workers 4   long-running plan/sim daemon
//! ```
//!
//! `--app` accepts the built-in workloads `atr`, `synthetic` and `video`,
//! or a path
//! to a JSON file produced by `pas export` (the serde form of
//! [`andor_graph::AndOrGraph`]). `--model` selects `transmeta` (default),
//! `xscale`, or `continuous:<smin>`.

mod args;
mod check;
mod commands;
mod source;

pub use args::{Args, Command};

/// One-line usage summary printed on argument errors.
pub const USAGE: &str =
    "usage: pas <inspect|plan|run|compare|dot|optimal|export|trace|bench|check|serve> \
[SOURCES...] [--app atr|synthetic|video|FILE.json] [--model transmeta|xscale|continuous:S] \
[--procs N] [--load L | --deadline D] [--scheme npm|spm|gss|ss1|ss2|as|oracle] \
[--seed S] [--reps N] [--alpha A] [--gantt] [--out FILE] \
[--fault-plan FILE.json] [--format chrome|jsonl|csv|summary] [--proc P] \
[--kinds k1,k2,...] [--frames N] [--carry] [--metrics] \
[--check] [--update-baselines] [--bench-dir DIR] [--workloads w1,w2,...] \
[--deny-warnings] [--against REF...] [--fix] \
[--profile] [--profile-out FILE] \
[--listen HOST:PORT] [--socket PATH] [--workers N] [--queue N] \
[--timeout-ms T] [--debug-faults] [--log FILE|stderr] [--log-level L] \
[--crash-dir DIR] [--trace-out DIR]";

/// Parses `args` and executes the selected command, returning the text to
/// print.
pub fn run(args: &[String]) -> Result<String, String> {
    let parsed = Args::parse(args)?;
    commands::execute(&parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(argv: &[&str]) -> Result<String, String> {
        let v: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    #[test]
    fn no_args_is_an_error() {
        assert!(call(&[]).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = call(&["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
    }

    #[test]
    fn inspect_synthetic() {
        let out = call(&["inspect", "--app", "synthetic"]).unwrap();
        assert!(out.contains("tasks"), "{out}");
        assert!(out.contains("scenarios"), "{out}");
        assert!(out.contains("sections"), "{out}");
    }

    #[test]
    fn inspect_atr_with_alpha() {
        let out = call(&["inspect", "--app", "atr", "--alpha", "0.5"]).unwrap();
        assert!(out.contains("scenarios: 4"), "{out}");
    }

    #[test]
    fn plan_reports_offline_quantities() {
        let out = call(&[
            "plan",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
        ])
        .unwrap();
        assert!(out.contains("Tw"), "{out}");
        assert!(out.contains("Ta"), "{out}");
        assert!(out.contains("PMP"), "{out}");
        assert!(out.contains("canonical schedule"), "{out}");
        assert!(out.contains("latest start"), "{out}");
    }

    #[test]
    fn plan_rejects_infeasible_deadline() {
        let err = call(&[
            "plan",
            "--app",
            "synthetic",
            "--procs",
            "1",
            "--deadline",
            "1.0",
        ])
        .unwrap_err();
        assert!(err.contains("infeasible"), "{err}");
    }

    #[test]
    fn run_gss_with_gantt() {
        let out = call(&[
            "run",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--scheme",
            "gss",
            "--seed",
            "7",
            "--gantt",
        ])
        .unwrap();
        assert!(out.contains("finished at"), "{out}");
        assert!(out.contains("deadline met"), "{out}");
        assert!(out.contains("p0 "), "gantt lane expected: {out}");
        assert!(out.contains("pw "), "power timeline expected: {out}");
        assert!(out.contains("speed changes"), "{out}");
    }

    #[test]
    fn run_with_fault_plan_reports_injections() {
        let dir = std::env::temp_dir().join("pas_cli_test_run_faults");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("plan.json");
        let plan = mp_sim::FaultPlan::overruns(1.0, 1.5, 5);
        std::fs::write(&path, serde_json::to_string(&plan).unwrap()).unwrap();
        let out = call(&[
            "run",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--scheme",
            "gss",
            "--seed",
            "7",
            "--fault-plan",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("overruns"), "{out}");
        assert!(out.contains("detected"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_fault_plan_is_a_one_line_error() {
        let dir = std::env::temp_dir().join("pas_cli_test_corrupt_faults");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("broken.json");
        std::fs::write(&path, "{\"overrun_prob\": [oops").unwrap();
        let err = call(&[
            "run",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--fault-plan",
            path.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("parsing"), "{err}");
        assert!(!err.contains('\n'), "one-line error: {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plan_is_rejected_outside_run() {
        let err = call(&["compare", "--app", "synthetic", "--fault-plan", "x.json"]).unwrap_err();
        assert!(err.contains("applies only to `run`"), "{err}");
    }

    #[test]
    fn run_oracle_scheme() {
        let out = call(&[
            "run",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--scheme",
            "oracle",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(out.contains("deadline met"), "{out}");
    }

    #[test]
    fn compare_prints_all_schemes() {
        let out = call(&[
            "compare",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--reps",
            "20",
            "--seed",
            "3",
        ])
        .unwrap();
        for name in ["NPM", "SPM", "GSS", "SS(1)", "SS(2)", "AS", "Oracle"] {
            assert!(out.contains(name), "missing {name}: {out}");
        }
        assert!(out.contains("p95"), "p95 column expected: {out}");
    }

    #[test]
    fn compare_tables_share_their_draws() {
        // Both `compare` paths run every scheme on realization `i` drawn
        // from `realization_seed(--seed, i)`, so their mean columns agree.
        let base = [
            "compare",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--seed",
            "3",
        ];
        let means = call(&[&base[..], &["--reps", "40"]].concat()).unwrap();
        let batch = call(&[&base[..], &["--metrics", "--batch", "40"]].concat()).unwrap();
        let mean_of = |out: &str, scheme: &str| -> Option<String> {
            let line = out
                .lines()
                .find(|l| l.split_whitespace().next() == Some(scheme))?;
            line.split_whitespace().nth(1).map(str::to_owned)
        };
        for scheme in ["NPM", "SPM", "GSS", "SS(1)", "SS(2)", "AS"] {
            let mean = mean_of(&means, scheme);
            assert!(mean.is_some(), "no {scheme} row: {means}");
            assert_eq!(mean, mean_of(&batch, scheme), "{scheme}: {means}\n{batch}");
        }
    }

    #[test]
    fn dot_emits_graphviz() {
        let out = call(&["dot", "--app", "synthetic"]).unwrap();
        assert!(out.starts_with("digraph"));
        assert!(out.contains("doublecircle"));
    }

    #[test]
    fn export_and_reimport_round_trip() {
        let dir = std::env::temp_dir().join("pas_cli_test_export");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("app.json");
        let path_s = path.to_str().unwrap();
        let out = call(&["export", "--app", "synthetic", "--out", path_s]).unwrap();
        assert!(out.contains("wrote"), "{out}");
        // Re-load through --app FILE.json.
        let out = call(&["inspect", "--app", path_s]).unwrap();
        assert!(out.contains("scenarios: 10"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn video_workload_runs() {
        let out = call(&[
            "run", "--app", "video", "--procs", "2", "--load", "0.6", "--scheme", "as", "--seed",
            "3",
        ])
        .unwrap();
        assert!(out.contains("deadline met"), "{out}");
    }

    #[test]
    fn model_selection() {
        let out = call(&[
            "run",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--scheme",
            "gss",
            "--model",
            "xscale",
        ])
        .unwrap();
        assert!(out.contains("Intel XScale"), "{out}");
        let out = call(&[
            "run",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--scheme",
            "gss",
            "--model",
            "continuous:0.2",
        ])
        .unwrap();
        assert!(out.contains("Continuous"), "{out}");
        assert!(call(&["run", "--app", "synthetic", "--model", "bogus"]).is_err());
    }

    #[test]
    fn optimal_on_tiny_custom_instance() {
        // The built-in apps are too big for exhaustive search; build a tiny
        // one, export it, and run `optimal` on the file.
        let dir = std::env::temp_dir().join("pas_cli_test_optimal");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("tiny.json");
        let app = andor_graph::Segment::seq([
            andor_graph::Segment::task("A", 4.0, 2.0),
            andor_graph::Segment::task("B", 3.0, 1.5),
        ])
        .lower()
        .unwrap();
        std::fs::write(&path, serde_json::to_string(&app).unwrap()).unwrap();
        let path_s = path.to_str().unwrap();
        let out = call(&[
            "optimal", "--app", path_s, "--procs", "1", "--load", "0.5", "--model", "xscale",
        ])
        .unwrap();
        assert!(out.contains("exhaustive optimum"), "{out}");
        assert!(out.contains("worst-case energy"), "{out}");
        assert!(out.contains("GSS"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn optimal_rejects_big_instances() {
        let err = call(&["optimal", "--app", "atr", "--load", "0.5"]).unwrap_err();
        assert!(err.contains("too large"), "{err}");
    }

    #[test]
    fn trace_summary_reports_ledger_and_counts() {
        let out = call(&[
            "trace",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--scheme",
            "gss",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(out.contains("events:"), "{out}");
        assert!(out.contains("dispatch"), "{out}");
        // Throughput fields are spelled like the BENCH_<rev>.json record
        // fields so the two views correlate.
        assert!(out.contains("events_per_sec = "), "{out}");
        assert!(out.contains("peak_ring_occupancy = "), "{out}");
        assert!(out.contains("energy ledger"), "{out}");
        assert!(out.contains("matches engine total_energy"), "{out}");
        assert!(out.contains("event-derived"), "{out}");
    }

    #[test]
    fn trace_chrome_is_valid_json_with_filters() {
        let out = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "as",
            "--format",
            "chrome",
        ])
        .unwrap();
        let doc: serde::Value = serde_json::from_str(&out).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        // Filtering down to one processor's completions still parses and
        // carries only task slices (plus thread metadata).
        let narrow = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "as",
            "--format",
            "chrome",
            "--proc",
            "0",
            "--kinds",
            "complete",
        ])
        .unwrap();
        let doc: serde::Value = serde_json::from_str(&narrow).expect("valid JSON");
        let narrow_events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert!(narrow_events.len() < events.len(), "filter narrows stream");
    }

    #[test]
    fn trace_jsonl_round_trips_and_csv_has_metrics() {
        let out = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "ss1",
            "--format",
            "jsonl",
        ])
        .unwrap();
        let events = pas_obs::export::from_jsonl(&out).expect("round-trips");
        assert!(!events.is_empty());
        let csv = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "ss1",
            "--format",
            "csv",
        ])
        .unwrap();
        assert!(csv.starts_with("metric,kind,value"), "{csv}");
        assert!(csv.contains("speed_changes.total"), "{csv}");
    }

    #[test]
    fn trace_rejects_bad_format_and_kind() {
        let err = call(&["trace", "--app", "synthetic", "--format", "yaml"]).unwrap_err();
        assert!(err.contains("unknown trace format"), "{err}");
        let err = call(&["trace", "--app", "synthetic", "--kinds", "bogus"]).unwrap_err();
        assert!(err.contains("unknown event kind"), "{err}");
    }

    #[test]
    fn trace_writes_out_file() {
        let dir = std::env::temp_dir().join("pas_cli_test_trace_out");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("trace.json");
        let path_s = path.to_str().unwrap();
        let out = call(&[
            "trace",
            "--app",
            "synthetic",
            "--format",
            "chrome",
            "--out",
            path_s,
        ])
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(serde_json::from_str::<serde::Value>(&body).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_accepts_fault_plan() {
        let dir = std::env::temp_dir().join("pas_cli_test_trace_faults");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("plan.json");
        let plan = mp_sim::FaultPlan::overruns(1.0, 1.5, 5);
        std::fs::write(&path, serde_json::to_string(&plan).unwrap()).unwrap();
        let out = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "gss",
            "--seed",
            "7",
            "--fault-plan",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("fault-injected"), "{out}");
        assert!(out.contains("matches engine total_energy"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_streams_frames_incrementally() {
        let dir = std::env::temp_dir().join("pas_cli_test_trace_frames");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("stream.jsonl");
        let path_s = path.to_str().unwrap();
        let out = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "gss",
            "--seed",
            "7",
            "--frames",
            "6",
            "--format",
            "jsonl",
            "--out",
            path_s,
        ])
        .unwrap();
        assert!(out.contains("streamed"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        let events = pas_obs::export::from_jsonl(&body).expect("round-trips");
        // Six frames of one run each: strictly more events than one run.
        let one = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "gss",
            "--seed",
            "7",
            "--format",
            "jsonl",
        ])
        .unwrap();
        assert!(events.len() > pas_obs::export::from_jsonl(&one).unwrap().len());
        // Streamed summaries report the frame count and bounded window.
        let summary = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "gss",
            "--seed",
            "7",
            "--frames",
            "6",
            "--carry",
        ])
        .unwrap();
        assert!(summary.contains("6 frames streamed"), "{summary}");
        assert!(summary.contains("DVS state carried over"), "{summary}");
        assert!(summary.contains("bounded ring"), "{summary}");
        assert!(summary.contains("matches engine total_energy"), "{summary}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_frames_rejects_oracle_and_faults() {
        let err = call(&[
            "trace",
            "--app",
            "synthetic",
            "--frames",
            "2",
            "--scheme",
            "oracle",
        ])
        .unwrap_err();
        assert!(err.contains("oracle"), "{err}");
        let err = call(&[
            "trace",
            "--app",
            "synthetic",
            "--frames",
            "2",
            "--fault-plan",
            "x.json",
        ])
        .unwrap_err();
        assert!(err.contains("--frames"), "{err}");
    }

    #[test]
    fn trace_summary_lists_per_section_slices() {
        let out = call(&[
            "trace",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--scheme",
            "as",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(out.contains("per-section slices"), "{out}");
        assert!(out.contains("root"), "{out}");
    }

    #[test]
    fn bench_writes_report_checks_baselines_and_flags_drift() {
        let dir = std::env::temp_dir().join("pas_cli_test_bench");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        let baselines = dir.join("baselines");
        let report = dir.join("bench.json");
        let base = [
            "bench",
            "--reps",
            "1",
            "--workloads",
            "fig4",
            "--bench-dir",
            baselines.to_str().unwrap(),
            "--out",
            report.to_str().unwrap(),
        ];
        // First run refreshes the baselines...
        let mut argv: Vec<&str> = base.to_vec();
        argv.push("--update-baselines");
        let out = call(&argv).unwrap();
        assert!(out.contains("pas bench"), "{out}");
        assert!(out.contains("bench_baseline.json"), "{out}");
        let body = std::fs::read_to_string(&report).unwrap();
        let doc: serde::Value = serde_json::from_str(&body).expect("valid JSON");
        assert!(doc.get("records").is_some(), "{body}");
        // ...then an identical run passes the check...
        let mut argv: Vec<&str> = base.to_vec();
        argv.push("--check");
        let out = call(&argv).unwrap();
        assert!(out.contains("baseline check passed"), "{out}");
        // ...and a different seed drifts.
        let mut argv: Vec<&str> = base.to_vec();
        argv.extend(["--check", "--seed", "1234"]);
        let err = call(&argv).unwrap_err();
        assert!(err.contains("drift"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_rejects_unknown_workload() {
        let err = call(&["bench", "--reps", "1", "--workloads", "fig9"]).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
    }

    #[test]
    fn compare_metrics_aggregates_and_cross_checks() {
        let out = call(&[
            "compare",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--reps",
            "10",
            "--seed",
            "3",
            "--metrics",
        ])
        .unwrap();
        assert!(out.contains("metrics registry aggregated"), "{out}");
        assert!(out.contains("events/run"), "{out}");
        assert!(out.contains("60 runs, 0 speed-change mismatches"), "{out}");
    }

    #[test]
    fn bad_scheme_is_an_error() {
        let err = call(&["run", "--app", "synthetic", "--scheme", "warp-speed"]).unwrap_err();
        assert!(err.contains("unknown scheme"), "{err}");
    }

    #[test]
    fn plan_artifact_round_trips_through_check() {
        let dir = std::env::temp_dir().join("pas_cli_test_plan_artifact");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        let w = dir.join("w.json");
        let w_s = w.to_str().unwrap();
        call(&["export", "--app", "synthetic", "--out", w_s]).unwrap();
        let p = dir.join("plan.json");
        let p_s = p.to_str().unwrap();
        // Positional sources: workload file + platform builtin.
        let out = call(&["plan", w_s, "xscale", "--scheme", "ss2", "--out", p_s]).unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(out.contains("schema v1"), "{out}");
        // Honest artifact verifies cleanly against explicit references...
        let out = call(&["check", p_s, "--against", w_s, "xscale", "--deny-warnings"]).unwrap();
        assert!(out.contains("verified against"), "{out}");
        // ...and against the labels recorded inside the artifact.
        let out = call(&["check", p_s, "--deny-warnings"]).unwrap();
        assert!(out.contains("verified against"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_plan_artifacts_are_rejected() {
        let dir = std::env::temp_dir().join("pas_cli_test_plan_tamper");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        let w = dir.join("w.json");
        let w_s = w.to_str().unwrap();
        call(&["export", "--app", "synthetic", "--out", w_s]).unwrap();
        let p = dir.join("plan.json");
        let p_s = p.to_str().unwrap();
        call(&["plan", w_s, "xscale", "--scheme", "ss2", "--out", p_s]).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        // A switch time outside [0, D] violates the SS(2) window bound.
        let mut a = pas_core::PlanArtifact::from_json(&text).unwrap();
        match &mut a.params {
            pas_core::SchemeParams::Ss2 { switch_time, .. } => *switch_time = -5.0,
            other => panic!("ss2 plan expected, got {other:?}"),
        }
        std::fs::write(&p, a.to_json().unwrap()).unwrap();
        let err = call(&["check", p_s, "--against", w_s, "xscale"]).unwrap_err();
        assert!(err.contains("PAS0407"), "{err}");
        // A shifted latest-start-time disagrees with the re-derivation.
        let mut a = pas_core::PlanArtifact::from_json(&text).unwrap();
        let slot = a
            .plan
            .lst
            .iter_mut()
            .find(|s| s.is_some())
            .expect("some computation node");
        *slot = Some(slot.unwrap() + 3.0);
        std::fs::write(&p, a.to_json().unwrap()).unwrap();
        let err = call(&["check", p_s, "--against", w_s, "xscale"]).unwrap_err();
        assert!(err.contains("PAS0404"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_fix_writes_repaired_workload() {
        let dir = std::env::temp_dir().join("pas_cli_test_check_fix");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        let bad = dir.join("bad.json");
        let bad_s = bad.to_str().unwrap();
        std::fs::write(
            &bad,
            r#"{"nodes": [
                {"name": "A", "kind": {"Computation": {"wcet": 2.0, "acet": 1.0}}, "preds": [], "succs": [1, 1]},
                {"name": "B", "kind": {"Computation": {"wcet": 3.0, "acet": 1.5}}, "preds": [0, 0], "succs": []}
            ]}"#,
        )
        .unwrap();
        // Whether or not the duplicate edge rejects the input, the fix
        // must be written and reported.
        let text = match call(&["check", bad_s, "--fix", "--deny-warnings"]) {
            Ok(t) | Err(t) => t,
        };
        assert!(text.contains("dropped duplicate edge"), "{text}");
        assert!(text.contains("fix: wrote"), "{text}");
        let fixed = dir.join("bad.fixed.json");
        assert!(fixed.exists(), "repaired sibling written");
        // The repaired workload passes the strict check.
        let out = call(&["check", fixed.to_str().unwrap(), "--deny-warnings"]).unwrap();
        assert!(out.contains("feasibility:"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // One test covers every profiled invocation: the profiler is a
    // process-wide singleton, so concurrent `--profile` tests would
    // steal each other's spans.
    #[test]
    fn plan_and_check_profile_the_offline_phase() {
        let out = call(&[
            "plan",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--profile",
        ])
        .unwrap();
        assert!(out.contains("profile (offline-phase wall clock)"), "{out}");
        assert!(out.contains(pas_obs::profile::names::CLI_PLAN), "{out}");
        assert!(
            out.contains(pas_obs::profile::names::OFFLINE_BUILD),
            "{out}"
        );
        assert!(
            out.contains(pas_obs::profile::names::OFFLINE_CANONICAL),
            "{out}"
        );
        // The root span's duration covers its direct children: the tree
        // renderer annotates parents with their children's total.
        assert!(out.contains("(children"), "{out}");

        let out = call(&["check", "--app", "synthetic", "--profile"]).unwrap();
        assert!(out.contains(pas_obs::profile::names::CLI_CHECK), "{out}");

        // `--profile-out` writes a Chrome trace instead of the tree.
        let dir = std::env::temp_dir().join("pas_cli_test_profile_out");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("trace.json");
        let path_s = path.to_str().unwrap();
        let out = call(&[
            "plan",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--profile-out",
            path_s,
        ])
        .unwrap();
        assert!(out.contains("profile: wrote"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        let doc: serde::Value = serde_json::from_str(&body).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_out_rejects_oracle() {
        let err = call(&["plan", "--scheme", "oracle", "--out", "/tmp/x.json"]).unwrap_err();
        assert!(err.contains("oracle"), "{err}");
    }
}
