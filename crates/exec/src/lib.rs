//! # rlir-exec — the scenario engine
//!
//! Every experiment in this repository is a *sweep*: a list of points
//! (utilization targets, policy × load grids, demux modes, fan-in degrees…)
//! each mapped through a deterministic per-point run and folded into one
//! aggregate. Before this crate existed each harness hand-rolled its own
//! `std::thread::scope` + work-queue loop; now there is exactly one:
//!
//! * [`scenario`] — the [`Scenario`] trait: config → points → deterministic
//!   per-point seed derivation → `run_point` → in-order aggregation.
//! * [`runner`] — the shared [`SweepRunner`]: the workspace's only scoped
//!   worker pool. Point ordering and per-point RNG seeds are independent of
//!   the thread count, so an N-thread run is byte-identical to a 1-thread
//!   run.
//! * [`seed`] — [`derive_seed`], the splitmix64 stream every scenario uses
//!   to give each point an independent, reproducible RNG seed.
//! * [`registry`] — the string-keyed [`ScenarioRegistry`] behind
//!   `experiments run <name>`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod registry;
pub mod runner;
pub mod scenario;
pub mod seed;

pub use registry::{RegistryError, ScenarioRegistry};
pub use runner::{shards_from_env, ShardsEnvError, SweepRunner};
pub use scenario::{PointContext, Scenario};
pub use seed::derive_seed;
