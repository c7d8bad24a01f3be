//! End-to-end and per-layer benchmark of the Aggregate VM simulator.
//!
//! Four workloads (see `README.md` for why each was chosen): the 12 paper
//! figures, the sharded fleet under uniform and incast traffic, and the
//! FragBFF cluster replay. An untraced run repeats passes of one workload
//! for a fixed time and reports end-to-end medians; a traced run times the
//! benchmark's calls into each layer and reads the counters the layers
//! report. Every pass is checked: against committed golden digests at
//! [`DEFAULT_SEED`], and for exact repetition at any other seed.

#![warn(missing_docs)]

pub mod alloc;
pub mod golden;
pub mod run;
pub mod workload;

pub use run::{run_traced, run_untraced, Metric, Options, RunResult};
pub use workload::{Scale, Workload, DEFAULT_SEED};
