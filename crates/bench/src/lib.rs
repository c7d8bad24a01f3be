//! Benchmark harness: regenerates every figure of the paper's evaluation.
//!
//! Each `fig*` function in [`experiments`] runs the corresponding
//! experiment end to end on the simulator and returns a [`report::Table`]
//! with the same rows/series the paper reports. `src/bin/all_figures`
//! runs everything (or one figure, with `--only <name>`) and emits the
//! combined record used by `EXPERIMENTS.md`.
//!
//! Absolute numbers come from a calibrated simulator, not the authors'
//! InfiniBand testbed — the claims under reproduction are the *shapes*:
//! who wins, by roughly what factor, and where crossovers fall.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod trace_report;

pub use report::Table;
