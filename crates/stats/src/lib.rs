//! # rlir-stats — measurement statistics
//!
//! Statistical building blocks for the RLIR reproduction:
//!
//! * [`streaming`] — Welford mean/variance accumulators (per-flow latency
//!   stats, Figs. 4a/4b of the paper), and the 40-byte form that holds a
//!   short stream as its samples.
//! * [`cdf`] — empirical CDFs and the downsampled step series written to the
//!   figure CSVs.
//! * [`error`] — the relative error metric.
//! * [`ewma`] — EWMA and the windowed link-utilization estimator driving
//!   RLI's adaptive injection policy.
//! * [`quantile`] — a flow's four largest delays, its exact nearest-rank
//!   tail quantile below `4 / (1 − p)` samples and an upper bound past it,
//!   in 32 bytes that merge exactly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cdf;
pub mod error;
pub mod ewma;
pub mod quantile;
pub mod streaming;

pub use cdf::Ecdf;
pub use error::relative_error;
pub use ewma::UtilizationEstimator;
pub use quantile::LargestFour;
pub use streaming::{FewStats, StreamingStats};
