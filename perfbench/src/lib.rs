//! The repository benchmark: four workloads run through the public entry
//! points of the workspace crates, each reported in its own clock —
//! virtual time for the model, host time and memory for the simulator —
//! with a host cost for every layer the benchmark calls into.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run them.

pub mod cli;
pub mod inputs;
pub mod report;
pub mod spans;
pub mod workloads;
