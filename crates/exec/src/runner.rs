//! The shared parallel sweep executor.
//!
//! This module owns the workspace's only `std::thread::scope` call site:
//! every experiment maps its points through [`SweepRunner::map`], which
//! runs independent simulations in parallel: each on one thread, plus one
//! helper each for a pcap replay's read-ahead or a capture pair's matcher.
//! [`parse_count`] reads the count that sizes it, `RLIR_THREADS`, and every
//! other positive-integer knob of the CLI.

use crate::seed::derive_seed;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Everything a sweep point needs besides the point itself: its position in
/// the deterministic point order and its derived RNG seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointContext {
    /// Index of this point in the sweep's point order.
    pub index: usize,
    /// Total number of points in the sweep.
    pub total: usize,
    /// Per-point RNG seed, [`derive_seed`]`(seed, index)` — a pure function
    /// of the configuration, never of scheduling.
    pub seed: u64,
}

impl PointContext {
    /// Build the context for point `index` of a `total`-point sweep seeded
    /// by `master`.
    pub fn new(master: u64, index: usize, total: usize) -> Self {
        PointContext {
            index,
            total,
            seed: derive_seed(master, index as u64),
        }
    }
}

/// Maps a sweep's points through a per-point run on a scoped worker pool.
///
/// Work distribution is an atomic index counter (no `Mutex<IntoIter>` work
/// queues); outcomes are re-ordered to point order before they are
/// returned, and every point's RNG seed is derived from the sweep seed — so
/// the result is byte-identical for any thread count.
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

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` on every point and return the outcomes in point order.
    ///
    /// The contract that makes the result thread-count-invariant: `f`
    /// depends only on `(ctx, point)` and immutable shared state, with all
    /// randomness taken from `ctx.seed` (= [`derive_seed`]`(seed, index)`)
    /// or fixed in the point. With one thread (or one point) everything
    /// runs inline on the calling thread.
    pub fn map<P: Sync, O: Send>(
        &self,
        seed: u64,
        points: &[P],
        f: impl Fn(&PointContext, &P) -> O + Sync,
    ) -> Vec<O> {
        let n = points.len();
        let run = |i: usize| f(&PointContext::new(seed, i, n), &points[i]);
        let workers = self.threads.min(n.max(1));
        if workers <= 1 {
            return (0..n).map(run).collect();
        }
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, O)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, run(i)));
                    }
                    collected
                        .lock()
                        .expect("sweep outcomes poisoned")
                        .extend(local);
                });
            }
        });
        let mut outcomes = collected.into_inner().expect("sweep outcomes poisoned");
        // Completion order depends on scheduling; point order does not.
        outcomes.sort_by_key(|(i, _)| *i);
        outcomes.into_iter().map(|(_, o)| o).collect()
    }
}

/// A count as the environment or the command line gives it: unset is
/// `Ok(None)`, a positive integer is its count, anything else is refused as
/// `Err(value)`.
pub fn parse_count(raw: Option<String>) -> Result<Option<usize>, String> {
    raw.map(|v| v.parse().ok().filter(|&n| n >= 1).ok_or(v))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_env_is_unset_a_count_or_an_error() {
        assert_eq!(parse_count(None), Ok(None));
        assert_eq!(parse_count(Some("3".into())), Ok(Some(3)));
        for bad in ["0", "abc", "-1", ""] {
            assert_eq!(parse_count(Some(bad.into())), Err(bad.to_string()));
        }
    }

    /// Each point hashes its derived seed a few thousand times — enough
    /// work to interleave threads, fully seed-determined.
    fn hash_point(ctx: &PointContext, &point: &usize, n: usize) -> u64 {
        assert_eq!(ctx.index, point);
        assert_eq!(ctx.total, n);
        let mut x = ctx.seed;
        for _ in 0..4096 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        x
    }

    fn hash_sweep(runner: SweepRunner, master: u64, n: usize) -> Vec<u64> {
        let points: Vec<usize> = (0..n).collect();
        runner.map(master, &points, |ctx, p| hash_point(ctx, p, n))
    }

    #[test]
    fn one_thread_and_many_threads_agree() {
        let one = hash_sweep(SweepRunner::single(), 99, 23);
        assert_eq!(one.len(), 23);
        assert_eq!(one, hash_sweep(SweepRunner::new(4), 99, 23));
        assert_eq!(one, hash_sweep(SweepRunner::new(8), 99, 23));
    }

    #[test]
    fn outcomes_arrive_in_point_order() {
        let expected: Vec<u64> = (0..40)
            .map(|i| hash_point(&PointContext::new(5, i, 40), &i, 40))
            .collect();
        assert_eq!(hash_sweep(SweepRunner::new(6), 5, 40), expected);
    }

    #[test]
    fn empty_sweep_aggregates_nothing() {
        assert!(hash_sweep(SweepRunner::new(4), 1, 0).is_empty());
    }

    #[test]
    fn more_threads_than_points_is_fine() {
        assert_eq!(
            hash_sweep(SweepRunner::new(16), 3, 2),
            hash_sweep(SweepRunner::single(), 3, 2)
        );
    }

    #[test]
    fn runner_clamps_to_one_thread() {
        assert_eq!(SweepRunner::new(0).threads(), 1);
        assert_eq!(SweepRunner::single().threads(), 1);
    }

    #[test]
    fn point_seeds_match_public_derivation() {
        let seeds = SweepRunner::new(3).map(77, &[0, 1, 2], |ctx, _| ctx.seed);
        assert_eq!(
            seeds,
            vec![derive_seed(77, 0), derive_seed(77, 1), derive_seed(77, 2)]
        );
    }

    #[test]
    fn context_seed_is_derived_not_positional() {
        let a = PointContext::new(42, 3, 9);
        assert_eq!(a.seed, derive_seed(42, 3));
        assert_ne!(a.seed, PointContext::new(42, 4, 9).seed);
        assert_ne!(a.seed, PointContext::new(43, 3, 9).seed);
    }
}
