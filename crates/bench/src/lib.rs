//! # rlir-bench — figure regeneration harness
//!
//! The machinery behind the `experiments` binary, which regenerates every
//! table and figure of the paper's evaluation as CSV + terminal summaries
//! (the repo's benchmark is the ledger, `ledger/`). Each `fig*` function runs the
//! corresponding experiment at a configurable scale and returns structured
//! rows; the `output` helpers persist them under `results/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod emit;
pub mod figures;
pub mod output;
pub mod registry;
pub mod scale;

pub use emit::*;
pub use figures::*;
pub use output::{write_csv, OutputDir};
pub use registry::{build_registry, RunContext};
pub use scale::Scale;
