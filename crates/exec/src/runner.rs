//! The shared parallel sweep executor.
//!
//! This module owns the sweep layer's only `std::thread::scope` call
//! site. Every harness that previously hand-rolled a scoped worker pool
//! (`loss_sweep`, the two copies in `figures.rs`) now routes through
//! [`SweepRunner::run`]. (The one other scoped pool in the workspace is
//! orthogonal: `rlir_sim::shard` parallelises *within* one simulation,
//! this runner *across* independent runs; [`shards_from_env`] reads its
//! `RLIR_SHARDS` knob next to this module's `RLIR_THREADS`.)

use crate::scenario::{PointContext, Scenario};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Executes a [`Scenario`]'s points on a scoped worker pool.
///
/// Work distribution is an atomic index counter (no `Mutex<IntoIter>` work
/// queues); outcomes are re-ordered to point order before aggregation, and
/// every point's RNG seed is derived from the scenario seed — so the result
/// is byte-identical for any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// A runner with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// A single-threaded runner (runs points inline, no threads spawned).
    pub fn single() -> Self {
        Self::new(1)
    }

    /// Thread count from the environment: `RLIR_THREADS` if set, else the
    /// host's available parallelism (falling back to 4).
    pub fn from_env() -> Self {
        let threads = std::env::var("RLIR_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            });
        Self::new(threads)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run every point of `scenario` and aggregate the outcomes in point
    /// order. With one thread (or one point) everything runs inline on the
    /// calling thread.
    pub fn run<S: Scenario>(&self, scenario: &S) -> S::Aggregate {
        let points = scenario.points();
        let n = points.len();
        let master = scenario.seed();
        let workers = self.threads.min(n.max(1));

        let mut outcomes: Vec<(usize, S::Outcome)> = Vec::with_capacity(n);
        if workers <= 1 {
            for (i, point) in points.iter().enumerate() {
                let ctx = PointContext::new(master, i, n);
                outcomes.push((i, scenario.run_point(&ctx, point)));
            }
        } else {
            let next = AtomicUsize::new(0);
            let collected: Mutex<Vec<(usize, S::Outcome)>> = Mutex::new(Vec::with_capacity(n));
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let ctx = PointContext::new(master, i, n);
                            local.push((i, scenario.run_point(&ctx, &points[i])));
                        }
                        collected
                            .lock()
                            .expect("sweep outcomes poisoned")
                            .extend(local);
                    });
                }
            });
            outcomes = collected.into_inner().expect("sweep outcomes poisoned");
            // Completion order depends on scheduling; point order does not.
            outcomes.sort_by_key(|(i, _)| *i);
        }
        scenario.aggregate(outcomes.into_iter().map(|(_, o)| o))
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Shard count for the in-run pod-sharded engine from the `RLIR_SHARDS`
/// environment variable: `Ok(Some(n))` for a positive integer, `Ok(None)`
/// when unset (scenarios then run on one shard), an error for anything
/// else — exactly what the CLI's `--shards` flag, which overrides this,
/// accepts and rejects.
pub fn shards_from_env() -> Result<Option<usize>, ShardsEnvError> {
    parse_shards(std::env::var_os("RLIR_SHARDS"))
}

fn parse_shards(raw: Option<std::ffi::OsString>) -> Result<Option<usize>, ShardsEnvError> {
    let Some(raw) = raw else { return Ok(None) };
    let value = raw.to_string_lossy().into_owned();
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(ShardsEnvError { value }),
    }
}

/// `RLIR_SHARDS` is set to something other than a positive integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardsEnvError {
    /// The rejected value.
    pub value: String,
}

impl std::fmt::Display for ShardsEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RLIR_SHARDS={:?} is not a positive integer", self.value)
    }
}

impl std::error::Error for ShardsEnvError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::derive_seed;

    #[test]
    fn shards_env_is_unset_a_count_or_an_error() {
        let parse = |v: Option<&str>| parse_shards(v.map(Into::into));
        assert_eq!(parse(None), Ok(None));
        assert_eq!(parse(Some("3")), Ok(Some(3)));
        for bad in ["0", "abc"] {
            let err = parse(Some(bad)).expect_err(bad);
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains("RLIR_SHARDS"), "{err}");
        }
    }

    /// Each point hashes its derived seed a few thousand times — enough
    /// work to interleave threads, fully seed-determined.
    struct HashSweep {
        master: u64,
        n: usize,
    }

    impl Scenario for HashSweep {
        type Point = usize;
        type Outcome = u64;
        type Aggregate = Vec<u64>;

        fn seed(&self) -> u64 {
            self.master
        }

        fn points(&self) -> Vec<usize> {
            (0..self.n).collect()
        }

        fn run_point(&self, ctx: &PointContext, point: &usize) -> u64 {
            assert_eq!(ctx.index, *point);
            assert_eq!(ctx.total, self.n);
            let mut x = ctx.seed;
            for _ in 0..4096 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            x
        }

        fn aggregate(&self, outcomes: impl Iterator<Item = u64>) -> Vec<u64> {
            outcomes.collect()
        }
    }

    #[test]
    fn one_thread_and_many_threads_agree() {
        let s = HashSweep { master: 99, n: 23 };
        let one = SweepRunner::single().run(&s);
        let four = SweepRunner::new(4).run(&s);
        let eight = SweepRunner::new(8).run(&s);
        assert_eq!(one.len(), 23);
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn outcomes_arrive_in_point_order() {
        let s = HashSweep { master: 5, n: 40 };
        let expected: Vec<u64> = (0..40)
            .map(|i| s.run_point(&PointContext::new(5, i, 40), &i))
            .collect();
        assert_eq!(SweepRunner::new(6).run(&s), expected);
    }

    #[test]
    fn empty_sweep_aggregates_nothing() {
        let s = HashSweep { master: 1, n: 0 };
        assert!(SweepRunner::new(4).run(&s).is_empty());
    }

    #[test]
    fn more_threads_than_points_is_fine() {
        let s = HashSweep { master: 3, n: 2 };
        assert_eq!(SweepRunner::new(16).run(&s), SweepRunner::single().run(&s));
    }

    #[test]
    fn runner_clamps_to_one_thread() {
        assert_eq!(SweepRunner::new(0).threads(), 1);
        assert_eq!(SweepRunner::single().threads(), 1);
    }

    #[test]
    fn point_seeds_match_public_derivation() {
        struct SeedProbe;
        impl Scenario for SeedProbe {
            type Point = usize;
            type Outcome = u64;
            type Aggregate = Vec<u64>;
            fn seed(&self) -> u64 {
                77
            }
            fn points(&self) -> Vec<usize> {
                vec![0, 1, 2]
            }
            fn run_point(&self, ctx: &PointContext, _p: &usize) -> u64 {
                ctx.seed
            }
            fn aggregate(&self, o: impl Iterator<Item = u64>) -> Vec<u64> {
                o.collect()
            }
        }
        let seeds = SweepRunner::new(3).run(&SeedProbe);
        assert_eq!(
            seeds,
            vec![derive_seed(77, 0), derive_seed(77, 1), derive_seed(77, 2)]
        );
    }
}
