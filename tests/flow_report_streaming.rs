//! `rlir_rli::FlowTable::report` as a lazy iterator against the body it
//! replaced, and against what it may allocate.
//!
//! The old `report` materialised a `Vec` of 160-byte rows for every flow
//! and stable-sorted it by flow key — a second copy of the table that set
//! the process's high-water mark. The new one sorts a list of 32-bit row
//! slots and builds each row as it is yielded. The oracle here is the old
//! body, kept verbatim in `tests/support/dense_tails_oracle.rs`; both tables
//! are driven through the same records and merges (so the product holds
//! young, grown and lost tails) and compared bit for bit for every
//! `min_packets` a caller uses. The allocation bound runs under a counting
//! `#[global_allocator]` local to this test binary.

#[path = "support/dense_tails_oracle.rs"]
mod dense_tails_oracle;
#[path = "support/report_bits.rs"]
mod report_bits;

use proptest::prelude::*;
use report_bits::bits;
use rlir_net::FlowKey;
use rlir_rli::FlowTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

thread_local! {
    /// Bytes this thread has asked the allocator for (a `realloc` counts
    /// its whole new size). Per thread: the harness runs tests in parallel.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread has given back (a `realloc` gives back its whole
    /// old size): `REQUESTED - FREED` is what the thread holds.
    static FREED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // A thread being torn down has no counter left; nothing measured runs there.
    let _ = REQUESTED.try_with(|n| n.set(n.get() + bytes));
}

fn count_freed(bytes: usize) {
    let _ = FREED.try_with(|n| n.set(n.get() + bytes));
}

/// Bytes this thread holds: requested and not yet given back.
fn live_bytes() -> usize {
    REQUESTED.with(Cell::get) - FREED.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialised `Cell`s without a destructor, so touching them
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_freed(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        count_freed(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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

/// The table under test and the old body, driven in lockstep.
struct Pair {
    lazy: FlowTable,
    old: dense_tails_oracle::FlowTable,
}

impl Pair {
    /// Tables tracking `p`, holding `obs`.
    fn of(p: Option<f64>, obs: &[Obs]) -> Pair {
        let mut pair = Pair {
            lazy: p.map_or_else(FlowTable::new, FlowTable::with_quantile),
            old: p.map_or_else(
                dense_tails_oracle::FlowTable::new,
                dense_tails_oracle::FlowTable::with_quantile,
            ),
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
        // a flow both sides saw loses its tail.
        sides in proptest::collection::vec((any::<bool>(), arb_obs()), 0..3),
    ) {
        let p = tracked.then_some(0.99);
        let mut pair = Pair::of(p, &main);
        for (same, obs) in &sides {
            pair.merge(Pair::of(if *same { p } else { Some(0.5) }, obs));
        }
        for min_packets in [0, 1, 2, 10] {
            let want = pair.old.report(min_packets);
            let rows = pair.lazy.report(min_packets);
            prop_assert_eq!(rows.len(), want.len(), "len() at min_packets {}", min_packets);
            let mut got = Vec::new();
            got.extend(rows);
            prop_assert_eq!(got.len(), want.len(), "rows yielded at min_packets {}", min_packets);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(bits(g), bits(w), "lazy {:?} vs old {:?}", g, w);
            }
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
    let (young, grown, _) = table.tail_counts();
    assert!(young > 0 && grown > 0, "{young} young, {grown} grown");

    let before = REQUESTED.with(Cell::get);
    let mut yielded = 0;
    for row in table.report(1) {
        std::hint::black_box(row);
        yielded += 1;
    }
    let requested = REQUESTED.with(Cell::get) - before;
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
    let before = live_bytes();
    let mut table: FlowTable = FlowTable::with_quantile(0.99);
    for i in 0..FLOWS {
        table.record(flow(i), f64::from(i % 1000), Some(f64::from(i % 1000)));
    }
    let held = live_bytes() - before;
    assert_eq!(table.tail_counts(), (FLOWS as usize, 0, 0));
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
