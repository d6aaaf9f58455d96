#![warn(missing_docs)]

//! Regenerates every table and figure of the ICPP'02 evaluation.
//!
//! * [`runner`] — the Monte-Carlo harness: each data point is the mean of N
//!   (default 1000) seeded runs; all schemes are evaluated on *identical*
//!   realizations (paired design), drawn and fanned out across cores by
//!   the batch driver [`mp_sim::for_each_realization`].
//! * [`figures`] — one function per paper table/figure plus the ablations
//!   the paper lists as future work. Each returns [`pas_stats::Table`]s
//!   ready for text/markdown/CSV rendering.
//! * [`cli`] — a tiny argument parser shared by the `fig4`, `fig5`, `fig6`,
//!   `table1`, `table2` and `ablation_*` binaries.
//!
//! Normalization follows the paper: each scheme's mean energy is divided by
//! the mean energy of NPM (no power management) measured on the same
//! realizations.

pub mod cli;
pub mod figures;
pub mod runner;
pub mod traces;

pub use figures::Platform;
pub use runner::{evaluate, EvalResult, ExperimentConfig, SchemeStats};
