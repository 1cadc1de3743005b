//! # rlir-bench — figure regeneration harness
//!
//! The machinery behind the `experiments` binary, which regenerates every
//! table and figure of the paper's evaluation as CSV + terminal summaries
//! (the repo's benchmark is the ledger, `ledger/`). Every experiment is a
//! scenario in [`build_registry`]; the `figures` functions run the paper's
//! figures and ablations at a configurable scale and return structured
//! rows, and the `output` helpers persist them under `results/`.

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
pub use scale::{Scale, ScaleEnvError};
