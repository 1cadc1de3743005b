//! # rlir-bench — figure regeneration harness
//!
//! The machinery behind the `experiments` binary, which regenerates every
//! table and figure of the paper's evaluation as CSV + terminal tables
//! (the repo's benchmark is the ledger, `ledger/`). Every experiment is an
//! entry of [`SCENARIOS`]; the `figures` functions run the paper's figures
//! and ablations at a configurable scale, each result is one [`Table`]
//! printed and written under `results/` by one call, and the `output`
//! helpers own the directory.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod output;
pub mod registry;
pub mod scale;
pub mod table;

pub use figures::*;
pub use output::{write_csv, OutputDir};
pub use registry::{list, scenario, RunContext, Scenario, SCENARIOS};
pub use scale::{Scale, ScaleEnvError};
pub use table::{Cell, Table};
