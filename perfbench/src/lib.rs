//! # lion-perfbench
//!
//! End-to-end and per-layer benchmark of the Lion simulator. Each run
//! executes one named workload as a single-threaded engine in its own
//! process, repeats it for a host-time budget, checks its outputs, and
//! prints named metrics. See `README.md` in this directory.

pub mod alloc;
pub mod calib;
pub mod rep;
pub mod seams;
pub mod summary;
pub mod workloads;
