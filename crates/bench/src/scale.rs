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
//! * `RLIR_THREADS` — sweep worker threads (default: available parallelism)
//!
//! The CLI's `--threads` overrides the last. A variable that is set but does not parse is refused ([`Scale::parse`]).

use rlir_exec::parse_count;
use rlir_net::time::SimDuration;

/// A scale variable set to a value [`Scale::parse`] refuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleEnvError {
    /// The variable.
    pub var: &'static str,
    /// Its rejected value.
    pub value: String,
    /// What it accepts.
    pub expected: &'static str,
}

impl std::fmt::Display for ScaleEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ScaleEnvError {
            var,
            value,
            expected,
        } = self;
        write!(f, "{var}={value:?}: expected {expected}")
    }
}

impl std::error::Error for ScaleEnvError {}

/// Scale knobs derived from the environment.
#[derive(Debug, Clone, Copy)]
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
    /// Sweep worker threads (`RLIR_THREADS`, else the host's available
    /// parallelism; the CLI's `--threads` overrides it).
    pub threads: usize,
}

impl Scale {
    /// Read the scale from the environment (see [`Scale::parse`]).
    pub fn from_env() -> Result<Scale, ScaleEnvError> {
        Scale::parse(|var| std::env::var_os(var).map(|v| v.to_string_lossy().into_owned()))
    }

    /// The scale the variables `lookup` returns describe: a preset from
    /// `RLIR_SCALE`, then the overrides. A variable that is set must parse —
    /// `RLIR_DURATION_MS`, `RLIR_SEEDS` and `RLIR_THREADS` as positive
    /// integers, `RLIR_SEED` as any `u64` — or the scale is refused, naming
    /// it.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Scale, ScaleEnvError> {
        let err = |var, value: String, expected| ScaleEnvError {
            var,
            value,
            expected,
        };
        let mut s = match lookup("RLIR_SCALE") {
            None => Scale::default_scale(),
            Some(v) => match v.as_str() {
                "quick" => Scale::quick(),
                "default" => Scale::default_scale(),
                "full" => Scale::full(),
                _ => return Err(err("RLIR_SCALE", v, "quick, default or full")),
            },
        };
        let positive =
            |var| parse_count(lookup(var)).map_err(|v| err(var, v, "a positive integer"));
        if let Some(ms) = positive("RLIR_DURATION_MS")?.map(|ms| ms as u64) {
            s.accuracy_duration = SimDuration::from_millis(ms);
            s.interference_duration = SimDuration::from_millis(ms);
            s.fattree_duration = SimDuration::from_millis(ms.min(200));
        }
        if let Some(n) = positive("RLIR_SEEDS")? {
            s.seeds = n as u64;
        }
        s.threads = match positive("RLIR_THREADS")? {
            Some(n) => n,
            None => std::thread::available_parallelism().map_or(4, |n| n.get()),
        };
        if let Some(v) = lookup("RLIR_SEED") {
            s.base_seed = v
                .parse()
                .map_err(|_| err("RLIR_SEED", v, "an unsigned 64-bit integer"))?;
        }
        Ok(s)
    }

    /// CI-sized: seconds of wall clock.
    pub fn quick() -> Scale {
        Scale {
            accuracy_duration: SimDuration::from_millis(80),
            interference_duration: SimDuration::from_millis(120),
            fattree_duration: SimDuration::from_millis(25),
            seeds: 1,
            base_seed: 42,
            threads: 1,
        }
    }

    /// Laptop default: a few minutes for the full figure set.
    pub fn default_scale() -> Scale {
        Scale {
            accuracy_duration: SimDuration::from_millis(400),
            interference_duration: SimDuration::from_millis(600),
            fattree_duration: SimDuration::from_millis(60),
            seeds: 3,
            ..Scale::quick()
        }
    }

    /// Closest to the paper (minutes to tens of minutes).
    pub fn full() -> Scale {
        Scale {
            accuracy_duration: SimDuration::from_secs(2),
            interference_duration: SimDuration::from_secs(3),
            fattree_duration: SimDuration::from_millis(150),
            seeds: 5,
            ..Scale::quick()
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
        let s = Scale::from_env().expect("tests set no scale variables");
        assert!(s.seeds >= 1);
        assert!(s.accuracy_duration.as_nanos() > 0);
    }

    fn env<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |var| {
            let hit = pairs.iter().find(|(k, _)| *k == var);
            hit.map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn parse_takes_valid_values_and_names_bad_ones() {
        let d = Scale::parse(env(&[])).unwrap();
        assert_eq!(
            d.accuracy_duration,
            Scale::default_scale().accuracy_duration
        );
        let s = Scale::parse(env(&[
            ("RLIR_SCALE", "quick"),
            ("RLIR_DURATION_MS", "300"),
            ("RLIR_SEEDS", "2"),
            ("RLIR_SEED", "0"),
            ("RLIR_THREADS", "3"),
        ]))
        .unwrap();
        assert_eq!(s.accuracy_duration, SimDuration::from_millis(300));
        assert_eq!(s.fattree_duration, SimDuration::from_millis(200));
        assert_eq!((s.seeds, s.base_seed), (2, 0));
        assert_eq!(s.threads, 3);
        assert!(d.threads >= 1);
        for (var, bad) in [
            ("RLIR_DURATION_MS", "0"),
            ("RLIR_DURATION_MS", "5ms"),
            ("RLIR_SEEDS", "0"),
            ("RLIR_SEEDS", "many"),
            ("RLIR_SEED", "-1"),
            ("RLIR_SCALE", "huge"),
            ("RLIR_THREADS", "0"),
            ("RLIR_THREADS", "abc"),
        ] {
            let e = Scale::parse(env(&[(var, bad)])).unwrap_err();
            assert_eq!((e.var, e.value.as_str()), (var, bad));
            assert!(e.to_string().starts_with(var), "{e}");
        }
    }
}
