//! The compact `rlir_stats::P2Quantile` against the 176-byte tracker it
//! replaced (`tests/support/p2_oracle.rs`, kept verbatim).
//!
//! The compact tracker stores only the three middle marker positions and
//! desired positions and rebuilds the rest from `count` and `p`. That is
//! only sound if no bit of any estimate moves, so the two are pushed the
//! same stream and compared after **every** push, on the stream shapes
//! that steer P² down its different branches: random (parabolic updates),
//! constant and tie-heavy (the parabolic prediction leaves the bracket, so
//! the linear fallback runs), sorted and reverse-sorted (every sample
//! moves an extreme marker).

#[path = "support/p2_oracle.rs"]
mod p2_oracle;

use proptest::prelude::*;
use rlir_stats::P2Quantile;

#[derive(Debug, Clone, Copy)]
enum Shape {
    Random,
    Constant,
    Sorted,
    ReverseSorted,
    TieHeavy,
}

fn shaped(shape: Shape, mut raw: Vec<u32>) -> Vec<f64> {
    match shape {
        Shape::Random => {}
        Shape::Constant => raw.iter_mut().for_each(|x| *x = 7_500),
        Shape::Sorted => raw.sort_unstable(),
        Shape::ReverseSorted => raw.sort_unstable_by(|a, b| b.cmp(a)),
        Shape::TieHeavy => raw.iter_mut().for_each(|x| *x %= 4),
    }
    raw.into_iter().map(|x| x as f64 * 0.37).collect()
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Random),
        Just(Shape::Constant),
        Just(Shape::Sorted),
        Just(Shape::ReverseSorted),
        Just(Shape::TieHeavy),
    ]
}

proptest! {
    #[test]
    fn compact_tracker_is_bit_equal_to_the_oracle_after_every_push(
        shape in arb_shape(),
        raw in proptest::collection::vec(0u32..10_000_000, 0..2_001),
        p in prop_oneof![Just(0.5), Just(0.9), Just(0.99)],
    ) {
        let mut compact = P2Quantile::new(p);
        let mut oracle = p2_oracle::P2Quantile::new(p);
        prop_assert_eq!(compact.estimate(), None);
        for (i, x) in shaped(shape, raw).into_iter().enumerate() {
            compact.push(x);
            oracle.push(x);
            prop_assert_eq!(
                compact.estimate().map(f64::to_bits),
                oracle.estimate().map(f64::to_bits),
                "{:?}, p = {}: estimates part after push {} ({})", shape, p, i, x
            );
            prop_assert_eq!(compact.count(), oracle.count());
        }
    }
}
