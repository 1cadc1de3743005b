//! RLI's FIFO pair law, counted by every receiver.
//!
//! RLI assumes that regular and reference packets share every FIFO queue of
//! a segment. Then two references a receiver accepts, `l` before `r`, obey
//! `D_r − D_l ≤ a_r − a_l`: the later one cannot have been sent earlier.
//! The law needs no ground truth, so a receiver checks it on every interval
//! it closes (`ReceiverCounters::ref_inversions`). A count on a correctly
//! demultiplexed receiver is a bug in the sender, the engine or the demux.
//!
//! * `two_hop`, `drop_aware` and the fat-tree under `Marking` and
//!   `ReverseEcmp` show no inversion on any receiver, at seeds 42 and 7.
//! * Under `Naive` demultiplexing each fat-tree point has one receiver that
//!   mixes every sender's stream across paths of unequal delay, so a fair
//!   share of its intervals inverts: the law tells a broken demux apart
//!   without truth.
//!
//! The fat-tree runs carry the `fattree` scenario's 150 µs core-0 anomaly,
//! which makes the equal-cost paths' delays differ.

use rlir::experiment::{
    run_drop_aware, run_fattree, run_two_hop, DropAwareConfig, FatTreeExpConfig, SwitchAnomaly,
    TwoHopConfig,
};
use rlir::CoreDemux;
use rlir_exec::SweepRunner;
use rlir_net::time::SimDuration;
use rlir_rli::ReceiverCounters;
use rlir_topo::FatTree;

const SEEDS: [u64; 2] = [42, 7];

fn fattree(seed: u64, demux: CoreDemux) -> Vec<ReceiverCounters> {
    let mut cfg = FatTreeExpConfig::paper(seed, SimDuration::from_millis(25));
    cfg.demux = demux;
    let tree = FatTree::new(cfg.k, cfg.hash);
    cfg.anomaly = Some(SwitchAnomaly {
        node: tree.cores().next().expect("a fat-tree has cores"),
        extra_processing: SimDuration::from_micros(150),
    });
    run_fattree(&cfg).tap_counters
}

fn assert_no_inversion(what: &str, counters: &[ReceiverCounters]) {
    assert!(!counters.is_empty(), "{what}: no receiver");
    for (i, c) in counters.iter().enumerate() {
        assert!(
            c.refs_accepted > 1,
            "{what}: receiver {i} closed no interval"
        );
        assert_eq!(
            (c.ref_inversions, c.max_inversion_ns),
            (0, 0),
            "{what}: receiver {i} saw an inversion"
        );
    }
}

#[test]
fn no_interval_inverts_on_the_two_hop_tandem() {
    for seed in SEEDS {
        let out = run_two_hop(&TwoHopConfig::paper(seed, SimDuration::from_millis(60)));
        assert_no_inversion(&format!("two_hop seed {seed}"), &[out.receiver]);
    }
}

#[test]
fn no_interval_inverts_on_a_lossy_path() {
    for seed in SEEDS {
        let mut cfg = DropAwareConfig::paper(seed, SimDuration::from_millis(40));
        cfg.offered_loads = vec![0.5, 1.1];
        for p in run_drop_aware(&cfg, &SweepRunner::single()) {
            let what = format!("drop_aware seed {seed} load {}", p.offered_load);
            assert_no_inversion(&what, &p.tap_counters);
        }
    }
}

#[test]
fn no_interval_inverts_on_a_demultiplexed_fat_tree() {
    for seed in SEEDS {
        for demux in [CoreDemux::Marking, CoreDemux::ReverseEcmp] {
            let what = format!("fattree seed {seed} {demux:?}");
            assert_no_inversion(&what, &fattree(seed, demux));
        }
    }
}

#[test]
fn a_naive_receiver_inverts_a_tenth_of_its_intervals() {
    for seed in SEEDS {
        let counters = fattree(seed, CoreDemux::Naive);
        let intervals: u64 = counters
            .iter()
            .map(|c| c.refs_accepted.saturating_sub(1))
            .sum();
        let inverted: u64 = counters.iter().map(|c| c.ref_inversions).sum();
        let share = inverted as f64 / intervals as f64;
        let widest = counters.iter().map(|c| c.max_inversion_ns).max();
        eprintln!("naive seed {seed}: {inverted} of {intervals} intervals inverted ({share:.3}), widest {widest:?} ns");
        assert!(
            share >= 0.10,
            "seed {seed}: {share:.3} of intervals inverted"
        );
    }
}
