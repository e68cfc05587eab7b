//! The whole-system benchmark named by the repository's `BENCHMARK.json`.
//!
//! [`spec`] declares the workloads and metrics, [`workloads`] turns a seed
//! into inputs, [`cell`] repeats one workload and times it, [`kernels`] and
//! [`spans`] give the per-layer costs, [`runner`] runs the cells, checks and
//! reports, and [`host`] is everything read from the machine.

pub mod cell;
pub mod host;
pub mod kernels;
pub mod runner;
pub mod spans;
pub mod spec;
pub mod workloads;
