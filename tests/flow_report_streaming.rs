//! `rlir_rli::FlowTable::report` as a lazy iterator against a sorted table
//! that keeps every delay, and the table against what it may allocate.
//!
//! A `report` that materialised a `Vec` of 160-byte rows for every flow and
//! sorted it by flow key would hold a second copy of the table; this one
//! sorts a list of 32-bit row slots and builds each row as it is yielded.
//! The oracle is `tests/support/exact_tails_oracle.rs`, a `BTreeMap` of every
//! flow's delays; both tables are driven through the same records and
//! merges (so the product holds young and grown tails) and compared for
//! every `min_packets` a caller uses. The allocation bounds run under the
//! counting `#[global_allocator]` of `tests/support/counting_alloc.rs`.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/exact_tails_oracle.rs"]
mod exact_tails_oracle;

use exact_tails_oracle::ExactTails;
use proptest::prelude::*;
use rlir_net::FlowKey;
use rlir_rli::FlowTable;
use std::net::Ipv4Addr;

fn flow(idx: u32) -> FlowKey {
    // Multiplied by an odd constant: key order is not insertion order.
    let [a, b, c, d] = idx.wrapping_mul(0x9E37_79B1).to_be_bytes();
    FlowKey::tcp(
        Ipv4Addr::new(a, b, c, d),
        1000,
        Ipv4Addr::new(10, 1, 0, 1),
        80,
    )
}

/// One observation: (flow pool index, est delay, optional truth).
type Obs = (u8, u32, Option<u32>);

/// The table under test and the oracle, driven in lockstep.
struct Pair {
    lazy: FlowTable,
    old: ExactTails,
}

impl Pair {
    /// Tables tracking `p`, holding `obs`.
    fn of(p: Option<f64>, obs: &[Obs]) -> Pair {
        let mut pair = Pair {
            lazy: p.map_or_else(FlowTable::new, FlowTable::with_quantile),
            old: ExactTails::new(p),
        };
        for &(idx, est, truth) in obs {
            let (flow, est, truth) = (flow(idx.into()), f64::from(est), truth.map(f64::from));
            pair.lazy.record(flow, est, truth);
            pair.old.record(flow, est, truth);
        }
        pair
    }

    fn merge(&mut self, other: Pair) {
        self.lazy.merge(other.lazy);
        self.old.merge(other.old);
    }
}

fn arb_obs() -> impl Strategy<Value = Vec<Obs>> {
    // Sixteen flows over up to ninety-six estimates: some stay young, some
    // grow, a few pass ten.
    let obs = (0u8..16, 1u32..1_000_000, 0u8..3, 1u32..1_000_000)
        .prop_map(|(idx, est, has_truth, truth)| (idx, est, (has_truth > 0).then_some(truth)));
    proptest::collection::vec(obs, 0..96)
}

proptest! {
    #[test]
    fn the_iterator_yields_the_rows_the_sorted_table_held(
        tracked in any::<bool>(),
        main in arb_obs(),
        // Each side table tracks the main table's quantile or another one;
        // a flow both sides saw merges its tail.
        sides in proptest::collection::vec((any::<bool>(), arb_obs()), 0..3),
    ) {
        // Eight delays or more put a p90 past the four largest.
        let p = tracked.then_some(0.9);
        let mut pair = Pair::of(p, &main);
        for (same, obs) in &sides {
            pair.merge(Pair::of(if *same { p } else { Some(0.5) }, obs));
        }
        for min_packets in [0, 1, 2, 10] {
            let rows = pair.lazy.report(min_packets);
            let len = rows.len();
            let got: Vec<_> = rows.collect();
            prop_assert_eq!(got.len(), len, "rows yielded at min_packets {}", min_packets);
            pair.old
                .check(got.into_iter(), min_packets)
                .map_err(|e| TestCaseError::Fail(format!("min_packets {min_packets}: {e}")))?;
        }
    }
}

#[test]
fn a_report_allocates_its_slot_list_and_nothing_else() {
    const FLOWS: u32 = 50_000;
    let mut table: FlowTable = FlowTable::with_quantile(0.99);
    // One to seven estimates a flow: young and grown tails both.
    for round in 0..7 {
        for i in (0..FLOWS).filter(|i| i % 7 >= round) {
            table.record(
                flow(i),
                f64::from(i % 1000 + round),
                Some(f64::from(i % 1000)),
            );
        }
    }
    let (young, grown) = table.tail_counts();
    assert!(young > 0 && grown > 0, "{young} young, {grown} grown");

    let before = counting_alloc::requested();
    let mut yielded = 0;
    for row in table.report(1) {
        std::hint::black_box(row);
        yielded += 1;
    }
    let requested = counting_alloc::requested() - before;
    assert_eq!(yielded, FLOWS);
    // The old body asked for 160 bytes a flow before its sort's scratch.
    assert!(
        requested <= 16 * FLOWS as usize,
        "report(1) over {FLOWS} flows requested {requested} B ({} B a flow)",
        requested / FLOWS as usize
    );
}

#[test]
fn a_mouse_flow_costs_what_approx_bytes_says_and_under_170_bytes() {
    const FLOWS: u32 = 50_000;
    let before = counting_alloc::live();
    let mut table: FlowTable = FlowTable::with_quantile(0.99);
    for i in 0..FLOWS {
        table.record(flow(i), f64::from(i % 1000), Some(f64::from(i % 1000)));
    }
    let held = counting_alloc::live() - before;
    assert_eq!(table.tail_counts(), (FLOWS as usize, 0));
    // A 96-byte row, a 4-byte reference and an 8-byte index cell, each at
    // what `Vec` doubling and the index's load factor leave unused. With
    // the samples in a 64-byte slot beside the row's moments and the key a
    // second time in the index, the same table was ≈ 239 B a flow.
    let approx = table.approx_bytes();
    assert!(
        approx <= 170 * FLOWS as usize,
        "{} B a flow",
        approx / FLOWS as usize
    );
    // The accounting is the allocator's: capacity × element size, nothing
    // the table allocates left out.
    assert!(
        held.abs_diff(approx) * 100 <= approx,
        "the allocator holds {held} B for a table that reports {approx} B"
    );
}

#[test]
fn a_grown_flow_costs_a_row_a_reference_a_tail_and_a_cell() {
    // A power of two of flows: every `Vec` is full, the index half full.
    const FLOWS: u32 = 1 << 15;
    let before = counting_alloc::live();
    let mut table: FlowTable = FlowTable::with_quantile(0.99);
    for round in 0..5 {
        for i in 0..FLOWS {
            let delay = f64::from(i % 1000 + round);
            table.record(flow(i), delay, Some(delay));
        }
    }
    let held = counting_alloc::live() - before;
    assert_eq!(table.tail_counts(), (0, FLOWS as usize));
    // A 96-byte row, a 4-byte reference and a 64-byte tail, plus two
    // 8-byte index cells.
    let bound = (96 + 4 + 64 + 2 * 8) * FLOWS as usize;
    assert!(
        held <= bound,
        "{} B a grown flow, bound {} B",
        held / FLOWS as usize,
        bound / FLOWS as usize
    );
    assert_eq!(held, table.approx_bytes());
}
