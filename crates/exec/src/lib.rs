//! # rlir-exec — the sweep runner
//!
//! Every experiment in this repository is a *sweep*: a list of points
//! (utilization targets, policy × load grids, demux modes, fan-in degrees…)
//! each mapped through a deterministic per-point run, the outcomes returned
//! in point order. There is exactly one way to run one:
//!
//! * [`runner`] — [`SweepRunner::map`]`(seed, points, f)`: the workspace's
//!   only scoped worker pool. Point ordering and per-point RNG seeds
//!   ([`PointContext`]) are independent of the thread count, so an
//!   N-thread run is byte-identical to a 1-thread run.
//! * [`seed`] — [`derive_seed`], the splitmix64 stream every scenario uses
//!   to give each point an independent, reproducible RNG seed.
//!
//! The scenarios themselves are a static list in `rlir-bench`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod runner;
pub mod seed;

pub use runner::{parse_count, PointContext, SweepRunner};
pub use seed::derive_seed;
