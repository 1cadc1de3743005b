//! Experiment scale.
//!
//! The paper's traces are 60 s of OC-192 (22.4 M regular packets). The
//! harness reproduces the same pipelines at configurable scale so figures
//! regenerate in minutes on a laptop; all rates and utilizations are
//! preserved, only the observation window shrinks. Override with
//! environment variables:
//!
//! * `RLIR_SCALE` — `quick` | `default` | `full`
//! * `RLIR_DURATION_MS` — explicit trace duration in milliseconds
//! * `RLIR_SEEDS` — number of seeds averaged where noise matters (Fig. 5)
//! * `RLIR_SEED` — base seed

use rlir_net::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Scale knobs derived from the environment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Scale {
    /// Trace duration for accuracy figures (4a–4c).
    pub accuracy_duration: SimDuration,
    /// Trace duration for the interference sweep (Fig. 5, loss differences
    /// need longer windows).
    pub interference_duration: SimDuration,
    /// Trace duration for fat-tree experiments.
    pub fattree_duration: SimDuration,
    /// Seeds averaged for noise-sensitive series.
    pub seeds: u64,
    /// Base seed.
    pub base_seed: u64,
    /// Pod-shard count for the fat-tree engine (1 unless the CLI sets it
    /// from `--shards` or `RLIR_SHARDS`).
    #[serde(default)]
    pub shards: usize,
}

impl Scale {
    /// Read the scale from the environment.
    pub fn from_env() -> Scale {
        let mut s = match std::env::var("RLIR_SCALE").as_deref() {
            Ok("quick") => Scale::quick(),
            Ok("full") => Scale::full(),
            _ => Scale::default_scale(),
        };
        if let Ok(ms) = std::env::var("RLIR_DURATION_MS") {
            if let Ok(ms) = ms.parse::<u64>() {
                s.accuracy_duration = SimDuration::from_millis(ms);
                s.interference_duration = SimDuration::from_millis(ms);
                s.fattree_duration = SimDuration::from_millis(ms.min(200));
            }
        }
        if let Ok(n) = std::env::var("RLIR_SEEDS") {
            if let Ok(n) = n.parse::<u64>() {
                s.seeds = n.max(1);
            }
        }
        if let Ok(n) = std::env::var("RLIR_SEED") {
            if let Ok(n) = n.parse::<u64>() {
                s.base_seed = n;
            }
        }
        s
    }

    /// CI-sized: seconds of wall clock.
    pub fn quick() -> Scale {
        Scale {
            accuracy_duration: SimDuration::from_millis(80),
            interference_duration: SimDuration::from_millis(120),
            fattree_duration: SimDuration::from_millis(25),
            seeds: 1,
            base_seed: 42,
            shards: 1,
        }
    }

    /// Laptop default: a few minutes for the full figure set.
    pub fn default_scale() -> Scale {
        Scale {
            accuracy_duration: SimDuration::from_millis(400),
            interference_duration: SimDuration::from_millis(600),
            fattree_duration: SimDuration::from_millis(60),
            seeds: 3,
            base_seed: 42,
            shards: 1,
        }
    }

    /// Closest to the paper (minutes to tens of minutes).
    pub fn full() -> Scale {
        Scale {
            accuracy_duration: SimDuration::from_secs(2),
            interference_duration: SimDuration::from_secs(3),
            fattree_duration: SimDuration::from_millis(150),
            seeds: 5,
            base_seed: 42,
            shards: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered() {
        let q = Scale::quick();
        let d = Scale::default_scale();
        let f = Scale::full();
        assert!(q.accuracy_duration < d.accuracy_duration);
        assert!(d.accuracy_duration < f.accuracy_duration);
        assert!(q.seeds <= d.seeds && d.seeds <= f.seeds);
    }

    #[test]
    fn env_parsing_is_resilient() {
        // No env vars set in tests → default scale.
        let s = Scale::from_env();
        assert!(s.seeds >= 1);
        assert!(s.accuracy_duration.as_nanos() > 0);
    }
}
