//! The Lossy Difference Aggregator (Kompella et al., SIGCOMM 2009).
//!
//! The aggregate-only baseline the paper positions RLI/RLIR against: "LDA
//! enables high-fidelity low network latency measurements … but it only
//! provides aggregate measurements" (§5). A sender and a receiver each
//! maintain the same array of banks of (timestamp-sum, packet-count)
//! buckets; packets are hashed to buckets, and banks sample packets with
//! geometrically decreasing probability so that *some* bank retains usable
//! buckets at any loss rate. At collection time, buckets whose sender and
//! receiver counts agree contribute `rx_sum − tx_sum` over `count` packets;
//! buckets touched by loss are discarded.

use rlir_net::time::SimTime;

/// LDA configuration (must be identical at sender and receiver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdaConfig {
    /// Number of banks with sampling probabilities 1, 1/2, 1/4, …
    pub banks: usize,
    /// Buckets per bank.
    pub buckets_per_bank: usize,
    /// Hash seed (shared by the pair).
    pub seed: u64,
}

impl Default for LdaConfig {
    fn default() -> Self {
        // The SIGCOMM 2009 evaluation's shape: a few banks, O(hundreds) of
        // buckets.
        LdaConfig {
            banks: 4,
            buckets_per_bank: 256,
            seed: 0x1DA,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    sum_ns: u128,
    count: u64,
}

/// One side (sender or receiver) of an LDA pair.
#[derive(Debug, Clone)]
pub struct Lda {
    cfg: LdaConfig,
    buckets: Vec<Bucket>, // banks × buckets_per_bank, row-major
    recorded: u64,
}

#[inline]
fn mix(seed: u64, id: u64) -> u64 {
    let mut z = id ^ seed.rotate_left(17);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Lda {
    /// Create one side of the pair.
    pub fn new(cfg: LdaConfig) -> Self {
        assert!(cfg.banks > 0 && cfg.buckets_per_bank > 0, "empty LDA");
        assert!(cfg.banks < 63, "too many banks");
        Lda {
            cfg,
            buckets: vec![Bucket::default(); cfg.banks * cfg.buckets_per_bank],
            recorded: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> LdaConfig {
        self.cfg
    }

    /// Packets recorded on this side.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Record a packet identified by an invariant id (in deployment, a hash
    /// of invariant header fields; here, the simulator packet id) observed
    /// at local time `at`.
    ///
    /// Banks *partition* the packet population geometrically (1/2, 1/4, …,
    /// with the last bank absorbing the tail): every packet lands in exactly
    /// one bank, so the collected estimator is exact when no loss occurs,
    /// while sparse banks keep usable (loss-free) buckets at high loss.
    pub fn record(&mut self, packet_id: u64, at: SimTime) {
        self.recorded += 1;
        let h = mix(self.cfg.seed, packet_id);
        let bank = (h.trailing_ones() as usize).min(self.cfg.banks - 1);
        let bucket = (mix(self.cfg.seed ^ bank as u64, packet_id)
            % self.cfg.buckets_per_bank as u64) as usize;
        let cell = &mut self.buckets[bank * self.cfg.buckets_per_bank + bucket];
        cell.sum_ns += at.as_nanos() as u128;
        cell.count += 1;
    }

    /// Collect the pair into an aggregate latency estimate. `sender` and
    /// `receiver` must share a configuration.
    pub fn estimate(sender: &Lda, receiver: &Lda) -> Option<LdaEstimate> {
        assert_eq!(sender.cfg, receiver.cfg, "mismatched LDA pair");
        let per_bank = sender.cfg.buckets_per_bank;
        let mut usable_packets = 0u64;
        let mut usable_buckets = 0usize;
        let mut delay_sum = 0i128;
        // A bucket is usable iff its sender and receiver counts match (no
        // loss touched it). Banks partition packets, so summing usable
        // buckets across banks counts each surviving packet exactly once —
        // exact with zero loss, unbiased under loss because bucket
        // assignment is independent of delay.
        for bank in 0..sender.cfg.banks {
            for b in 0..per_bank {
                let s = sender.buckets[bank * per_bank + b];
                let r = receiver.buckets[bank * per_bank + b];
                if s.count == 0 || s.count != r.count {
                    continue;
                }
                usable_buckets += 1;
                usable_packets += s.count;
                delay_sum += r.sum_ns as i128 - s.sum_ns as i128;
            }
        }
        if usable_packets == 0 {
            return None;
        }
        Some(LdaEstimate {
            mean_delay_ns: delay_sum as f64 / usable_packets as f64,
            usable_packets,
            usable_buckets,
            total_buckets: sender.cfg.banks * per_bank,
        })
    }
}

/// Result of collecting an LDA pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LdaEstimate {
    /// Estimated mean one-way delay, ns.
    pub mean_delay_ns: f64,
    /// Packet samples that survived loss.
    pub usable_packets: u64,
    /// Buckets whose counts matched.
    pub usable_buckets: usize,
    /// Total buckets in the structure.
    pub total_buckets: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pair() -> (Lda, Lda) {
        let cfg = LdaConfig::default();
        (Lda::new(cfg), Lda::new(cfg))
    }

    #[test]
    fn exact_mean_without_loss() {
        let (mut tx, mut rx) = pair();
        let mut true_sum = 0u64;
        let n = 10_000u64;
        for id in 0..n {
            let t0 = id * 1000;
            let delay = 500 + (id % 400); // mean 699.5
            tx.record(id, SimTime::from_nanos(t0));
            rx.record(id, SimTime::from_nanos(t0 + delay));
            true_sum += delay;
        }
        let est = Lda::estimate(&tx, &rx).unwrap();
        let true_mean = true_sum as f64 / n as f64;
        // Banks partition the population and no bucket saw loss → exact.
        assert!(
            (est.mean_delay_ns - true_mean).abs() < 1e-6,
            "{} vs {true_mean}",
            est.mean_delay_ns
        );
        assert_eq!(est.usable_packets, n, "every packet counted exactly once");
    }

    #[test]
    fn survives_loss_with_small_bias() {
        let (mut tx, mut rx) = pair();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000u64;
        let mut kept_sum = 0u64;
        let mut kept_n = 0u64;
        for id in 0..n {
            let t0 = id * 700;
            let delay = 1000 + (id % 2000);
            tx.record(id, SimTime::from_nanos(t0));
            if rng.random::<f64>() < 0.05 {
                continue; // 5% loss
            }
            rx.record(id, SimTime::from_nanos(t0 + delay));
            kept_sum += delay;
            kept_n += 1;
        }
        let est = Lda::estimate(&tx, &rx).expect("some banks survive 5% loss");
        let true_mean = kept_sum as f64 / kept_n as f64;
        let rel = (est.mean_delay_ns - true_mean).abs() / true_mean;
        assert!(
            rel < 0.05,
            "rel err {rel}: {} vs {true_mean}",
            est.mean_delay_ns
        );
        assert!(est.usable_buckets > 0);
        assert!(est.usable_packets < 2 * n);
    }

    #[test]
    fn total_loss_yields_none() {
        let (mut tx, rx) = pair();
        for id in 0..1000 {
            tx.record(id, SimTime::from_nanos(id));
        }
        assert!(Lda::estimate(&tx, &rx).is_none());
    }

    #[test]
    fn empty_pair_yields_none() {
        let (tx, rx) = pair();
        assert!(Lda::estimate(&tx, &rx).is_none());
        assert_eq!(tx.recorded(), 0);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn mismatched_configs_panic() {
        let a = Lda::new(LdaConfig::default());
        let b = Lda::new(LdaConfig {
            banks: 2,
            ..LdaConfig::default()
        });
        let _ = Lda::estimate(&a, &b);
    }

    #[test]
    fn banks_sample_geometrically() {
        let mut lda = Lda::new(LdaConfig {
            banks: 4,
            buckets_per_bank: 64,
            seed: 9,
        });
        for id in 0..100_000u64 {
            lda.record(id, SimTime::ZERO);
        }
        let per_bank = 64;
        let count_of_bank = |b: usize| -> u64 {
            lda.buckets[b * per_bank..(b + 1) * per_bank]
                .iter()
                .map(|x| x.count)
                .sum()
        };
        // Partition: 1/2, 1/4, 1/8, and the last bank absorbs the tail 1/8.
        let total: u64 = (0..4).map(count_of_bank).sum();
        assert_eq!(total, 100_000, "banks must partition the population");
        for (b, expected) in [
            (0usize, 50_000.0),
            (1, 25_000.0),
            (2, 12_500.0),
            (3, 12_500.0),
        ] {
            let c = count_of_bank(b) as f64;
            assert!(
                (c - expected).abs() / expected < 0.1,
                "bank {b}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn estimate_is_deterministic() {
        let run = || {
            let (mut tx, mut rx) = pair();
            for id in 0..5000u64 {
                tx.record(id, SimTime::from_nanos(id * 10));
                rx.record(id, SimTime::from_nanos(id * 10 + 777));
            }
            Lda::estimate(&tx, &rx).unwrap()
        };
        assert_eq!(run(), run());
        assert!((run().mean_delay_ns - 777.0).abs() < 1e-9);
    }
}
