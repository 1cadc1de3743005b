//! # rlir-stats — measurement statistics
//!
//! Statistical building blocks for the RLIR reproduction:
//!
//! * [`streaming`] — Welford mean/variance accumulators (per-flow latency
//!   stats, Figs. 4a/4b of the paper), and the 40-byte form that holds a
//!   short stream as its samples.
//! * [`cdf`] — empirical CDFs and the downsampled step series written to the
//!   figure CSVs.
//! * [`error`] — relative/absolute error metrics and paper-style summaries.
//! * [`ewma`] — EWMA and the windowed link-utilization estimator driving
//!   RLI's adaptive injection policy.
//! * [`histogram`] — log-scale histograms for latency/error sketches.
//! * [`quantile`] — the P² streaming quantile estimator (per-flow tail
//!   latency in O(1) memory).
//! * [`timeseries`] — fixed-width time bins (offered load, utilization).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cdf;
pub mod error;
pub mod ewma;
pub mod histogram;
pub mod quantile;
pub mod streaming;
pub mod timeseries;

pub use cdf::{CdfSeries, Ecdf};
pub use error::{absolute_error, relative_error, signed_relative_error, ErrorSummary};
pub use ewma::{Ewma, UtilizationEstimator};
pub use histogram::LogHistogram;
pub use quantile::P2Quantile;
pub use streaming::{FewStats, StreamingStats};
pub use timeseries::BinnedSeries;
