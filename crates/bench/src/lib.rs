//! The evaluation harness: everything the table/figure reproduction
//! binaries share.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! OMU paper (see DESIGN.md § 5 for the index), except `bench_guards`,
//! which times CI's five performance guards and writes
//! `BENCH_guards.json`. This library provides:
//!
//! - [`runner`] — executes one dataset through the instrumented software
//!   baseline *and* the accelerator model, with linear extrapolation from
//!   scaled runs to full-dataset estimates.
//! - [`table`] — plain-text table rendering for paper-vs-measured output.
//! - [`args`] — the tiny `--scale` / `--full` / `--engine` command-line
//!   convention.
//!
//! Run everything at once with `cargo run --release -p omu-bench --bin
//! repro_all`.

pub mod args;
pub mod reports;
pub mod runner;
pub mod table;

pub use args::RunOptions;
pub use runner::{run_all, run_dataset, run_dataset_with_engine, DatasetRun};
pub use table::TextTable;
