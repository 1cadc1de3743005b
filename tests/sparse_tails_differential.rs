//! `rlir_rli::FlowTable`'s sparse tail store against a dense table that
//! keeps every delay (`tests/support/exact_tails_oracle.rs`).
//!
//! The sparse store reads a flow's quantile off the row's own samples until
//! its fifth estimate, and off a 64-byte tail of its four largest delays a
//! side after; merges fold tails, and two young rows that stay within four
//! estimates stay young. That is only sound if every report is the exact
//! nearest rank while it is one of the four largest, and the fourth largest
//! with the bound flag after. So both are driven through the same random
//! interleavings of `record` — with and without truth, over a flow pool
//! small enough that flows pass both regimes — and `merge` of tables
//! tracking the same `p`, another `p` and none, and their `report(1)` is
//! checked after every merge.

#[path = "support/exact_tails_oracle.rs"]
mod exact_tails_oracle;

use exact_tails_oracle::ExactTails;
use proptest::prelude::*;
use rlir_net::FlowKey;
use rlir_rli::FlowTable;
use std::net::Ipv4Addr;

/// Four largest answer the p75 exactly below 16 delays: flows here pass it.
const P: f64 = 0.75;

fn flow(idx: u8) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, idx),
        1000,
        Ipv4Addr::new(10, 1, 0, 1),
        80,
    )
}

/// Which quantile a side table tracks, relative to the main table's `P`.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    // Few distinct delays, so ties among the largest are common.
    (0u8..8, 1u32..60, 0u8..3, 1u32..60)
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
    proptest::collection::vec(step, 0..200)
}

/// The sparse table and the dense oracle, driven in lockstep.
struct Pair {
    sparse: FlowTable,
    dense: ExactTails,
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
            dense: ExactTails::new(p),
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
        self.dense
            .check(self.sparse.report(1), 1)
            .map_err(TestCaseError::Fail)?;
        let packets: u64 = self.sparse.report(1).map(|r| r.packets).sum();
        prop_assert_eq!(self.sparse.estimate_count(), packets);
        // A row is young exactly while it has at most four estimates (the
        // oracle checked every row's count).
        let young = self.sparse.report(1).filter(|r| r.packets <= 4).count();
        let split = match self.sparse.quantile_p() {
            Some(_) => (young, self.sparse.flow_count() - young),
            None => (0, 0),
        };
        prop_assert_eq!(self.sparse.tail_counts(), split);
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
                Step::Merge(mut tracks, obs) => {
                    // A table that keeps tails only absorbs one that does.
                    if main == Tracks::Same && tracks == Tracks::Nothing {
                        tracks = Tracks::Another;
                    }
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
