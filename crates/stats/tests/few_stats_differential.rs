//! `rlir_stats::FewStats` against the accumulator it stands in for.
//!
//! A `FewStats` holds its first four observations as they came and replays
//! them through `StreamingStats::push` at the fifth, so after every push —
//! and after a merge — each answer must equal, bit for bit, the one a
//! `StreamingStats` fed the same stream gives. Two sample lists of four or
//! fewer together merge into one: the stream is then both of them pushed in
//! turn, not a merge of moments.

use proptest::prelude::*;
use rlir_stats::{FewStats, StreamingStats};

/// Every answer of an accumulator, floats as their bits.
fn bits(s: &StreamingStats) -> (u64, [Option<u64>; 4], u64) {
    let b = |x: Option<f64>| x.map(f64::to_bits);
    (
        s.count(),
        [b(s.mean()), b(s.variance()), b(s.min()), b(s.max())],
        s.sum().to_bits(),
    )
}

/// 0–50 samples, half the time at most six (both sides of the fifth push):
/// anything, one value repeated, or drawn from three values.
fn arb_samples() -> impl Strategy<Value = Vec<f64>> {
    let raw = proptest::collection::vec((-1.0e9f64..1.0e9, 0usize..3), 0..51);
    (0u8..3, any::<bool>(), raw).prop_map(|(kind, short, raw)| {
        let first = raw.first().map_or(0.0, |&(x, _)| x);
        let len = if short { raw.len() % 7 } else { raw.len() };
        raw[..len]
            .iter()
            .map(|&(x, tie)| match kind {
                0 => x,
                1 => first,
                _ => [first, -first, 7.0][tie],
            })
            .collect()
    })
}

/// Both accumulators after `samples`, checked against each other after
/// every push.
fn fed(samples: &[f64]) -> Result<(FewStats, StreamingStats), TestCaseError> {
    let (mut few, mut streaming) = (FewStats::new(), StreamingStats::new());
    prop_assert_eq!(bits(&few.stats()), bits(&streaming));
    for (pushed, &x) in samples.iter().enumerate() {
        few.push(x);
        streaming.push(x);
        prop_assert_eq!(few.count(), streaming.count());
        prop_assert_eq!(
            bits(&few.stats()),
            bits(&streaming),
            "after {} pushes",
            pushed + 1
        );
        let held = (pushed < 4).then(|| &samples[..=pushed]);
        prop_assert_eq!(few.few(), held, "after {} pushes", pushed + 1);
    }
    Ok((few, streaming))
}

proptest! {
    #[test]
    fn few_stats_equals_streaming_stats_bit_for_bit(
        left in arb_samples(),
        right in arb_samples(),
        after in arb_samples(),
    ) {
        let (mut few, mut streaming) = fed(&left)?;
        let (other_few, other_streaming) = fed(&right)?;
        few.merge(&other_few);
        // Young + young stays the samples, the same as pushing `right` after
        // `left`; anything else merges moments, whatever the count.
        let mut joined: Option<Vec<f64>> = (left.len() + right.len() <= FewStats::FEW)
            .then(|| left.iter().chain(&right).copied().collect());
        match &joined {
            Some(stream) => streaming = fed(stream)?.1,
            None => streaming.merge(&other_streaming),
        }
        prop_assert_eq!(bits(&few.stats()), bits(&streaming), "merged");
        prop_assert_eq!(few.few(), joined.as_deref());
        // Later pushes stream on from either.
        for &x in &after {
            few.push(x);
            streaming.push(x);
            prop_assert_eq!(bits(&few.stats()), bits(&streaming), "pushed after a merge");
            joined.iter_mut().for_each(|stream| stream.push(x));
            let held = joined.as_deref().filter(|stream| stream.len() <= FewStats::FEW);
            prop_assert_eq!(few.few(), held);
        }
    }
}
