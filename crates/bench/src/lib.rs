#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! The `pas bench` regression harness: the [`harness`] module captures
//! *numbers* (energy, events, ledger slices) for the golden workloads and
//! diffs them against committed baselines — see `pas bench --check`.
//! Timing of the paper's tables, figures and ablations lives in the
//! repository benchmark (`perfbench/`).

pub mod harness;

pub use harness::{
    check_against_baselines, detect_rev, run_bench, write_baselines, write_report, BenchError,
    BenchOptions, BenchOutput, BenchRecord, BenchReport, GoldenWorkload, MetricsFile,
    OfflineBreakdown, OfflineSpanStat, SectionRecord, BASELINE_FILE, DEFAULT_TOLERANCE,
    GOLDEN_WORKLOADS,
};
