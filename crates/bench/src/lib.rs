//! Experiment harness: regenerates every table and figure of the SwitchV2P
//! evaluation (§5).
//!
//! Each figure/table has a binary under `src/bin/` (see DESIGN.md's
//! experiment index); the shared machinery lives here:
//!
//! * [`harness`] — experiment specs, trace → simulator conversion, strategy
//!   registry, parallel sweeps, improvement-factor normalization;
//! * [`scale`] — "quick" (single-core-friendly) and "full" (paper-scale)
//!   parameter sets; every binary takes `--full`, which picks between them;
//! * [`cli`] — shared argument parsing (`--full`, `--seed`, `--telemetry`),
//!   the run-manifest sink, and per-run trace writing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod harness;
pub mod scale;

pub use cli::BenchArgs;
pub use harness::{run_spec, sweep, ExperimentSpec, Row, StrategyKind};
pub use scale::Scale;
