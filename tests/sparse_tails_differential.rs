//! `rlir_rli::FlowTable`'s sparse tail store against the dense table it
//! replaced (`tests/support/dense_tails_oracle.rs`, kept verbatim).
//!
//! The sparse store gives a flow its P² trackers at its fifth estimate, by
//! replaying the samples a 64-byte young slot held until then, and gives a
//! flow whose tail is lost to a merge conflict no storage at all, where the
//! dense table gave every flow trackers from its first packet and poisoned
//! them on conflict. That is only sound if no bit of any report moves, so
//! both are driven through the same random interleavings of `record` — with
//! and without truth, over a flow pool small enough that flows graduate —
//! and `merge` of tables tracking the same `p`, another `p` and none, and
//! their `report(1)` is compared bit for bit after every merge.

#[path = "support/dense_tails_oracle.rs"]
mod dense_tails_oracle;
#[path = "support/report_bits.rs"]
mod report_bits;

use proptest::prelude::*;
use report_bits::bits;
use rlir_net::FlowKey;
use rlir_rli::FlowTable;
use std::net::Ipv4Addr;

const P: f64 = 0.99;

fn flow(idx: u8) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, idx),
        1000,
        Ipv4Addr::new(10, 1, 0, 1),
        80,
    )
}

/// Which quantile a side table tracks, relative to the main table's `P`.
#[derive(Debug, Clone, Copy)]
enum Tracks {
    Same,
    Another,
    Nothing,
}

/// One observation: (flow pool index, est delay, optional truth).
type Obs = (u8, u32, Option<u32>);

#[derive(Debug, Clone)]
enum Step {
    Record(Obs),
    /// Build a side table from these observations and merge it in.
    Merge(Tracks, Vec<Obs>),
}

fn arb_obs() -> impl Strategy<Value = Obs> {
    (0u8..8, 1u32..1_000_000, 0u8..3, 1u32..1_000_000)
        .prop_map(|(idx, est, has_truth, truth)| (idx, est, (has_truth > 0).then_some(truth)))
}

/// Twelve records to a merge (the stub `prop_oneof!` takes no weights).
fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let tracks = prop_oneof![
        Just(Tracks::Same),
        Just(Tracks::Same),
        Just(Tracks::Another),
        Just(Tracks::Nothing),
    ];
    let side = proptest::collection::vec(arb_obs(), 0..24);
    let step = (0u8..13, arb_obs(), tracks, side).prop_map(|(pick, obs, tracks, side)| {
        if pick == 0 {
            Step::Merge(tracks, side)
        } else {
            Step::Record(obs)
        }
    });
    proptest::collection::vec(step, 0..160)
}

/// The sparse table and the dense oracle, driven in lockstep.
struct Pair {
    sparse: FlowTable,
    dense: dense_tails_oracle::FlowTable,
}

impl Pair {
    fn tracking(tracks: Tracks) -> Pair {
        let p = match tracks {
            Tracks::Same => Some(P),
            Tracks::Another => Some(0.5),
            Tracks::Nothing => None,
        };
        Pair {
            sparse: p.map_or_else(FlowTable::new, FlowTable::with_quantile),
            dense: p.map_or_else(
                dense_tails_oracle::FlowTable::new,
                dense_tails_oracle::FlowTable::with_quantile,
            ),
        }
    }

    fn record(&mut self, (idx, est, truth): Obs) {
        let truth = truth.map(f64::from);
        self.sparse.record(flow(idx), f64::from(est), truth);
        self.dense.record(flow(idx), f64::from(est), truth);
    }

    fn merge(&mut self, other: Pair) {
        self.sparse.merge(other.sparse);
        self.dense.merge(other.dense);
    }

    fn assert_equal(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.sparse.flow_count(), self.dense.flow_count());
        prop_assert_eq!(self.sparse.estimate_count(), self.dense.estimate_count());
        let (sparse, dense) = (self.sparse.report(1), self.dense.report(1));
        prop_assert_eq!(sparse.len(), dense.len());
        for (s, d) in sparse.zip(&dense) {
            prop_assert_eq!(bits(&s), bits(d), "sparse {:?} vs dense {:?}", s, d);
        }
        // Every row's tail is somewhere: young, grown or lost.
        let (young, grown, none) = self.sparse.tail_counts();
        let tracked = if self.sparse.quantile_p().is_some() {
            self.sparse.flow_count()
        } else {
            0
        };
        prop_assert_eq!(young + grown + none, tracked);
        Ok(())
    }
}

proptest! {
    #[test]
    fn sparse_store_reports_what_the_dense_table_reported(
        main in prop_oneof![Just(Tracks::Same), Just(Tracks::Same), Just(Tracks::Nothing)],
        steps in arb_steps(),
    ) {
        let mut pair = Pair::tracking(main);
        for step in steps {
            match step {
                Step::Record(obs) => pair.record(obs),
                Step::Merge(tracks, obs) => {
                    let mut side = Pair::tracking(tracks);
                    obs.into_iter().for_each(|o| side.record(o));
                    side.assert_equal()?;
                    pair.merge(side);
                    pair.assert_equal()?;
                }
            }
        }
        pair.assert_equal()?;
    }
}
