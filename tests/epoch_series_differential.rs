//! `rlir_rli::EpochSeries` against the series it replaced
//! (`tests/support/epoch_oracle.rs`: a dense `Vec<EpochSnapshot>` with a
//! cursor, merged snapshot by snapshot).
//!
//! Both are fed the same random streams of observations — small forward
//! steps, backward steps within a window (front growth included), sprints
//! over several epochs, wild timestamps past `MAX_EPOCH_GAP` either way,
//! sheds and downstream drops between the estimates — and several series
//! are merged in every order. Every snapshot the series builds must equal
//! the oracle's field for field, floats by their bits.

#[path = "support/epoch_oracle.rs"]
mod epoch_oracle;

use epoch_oracle::{merge_epoch_series, snapshot_at, EpochTracker};
use proptest::prelude::*;
use rlir_net::time::SimTime;
use rlir_rli::epoch::MAX_EPOCH_GAP;
use rlir_rli::{EpochCounter, EpochSeries, EpochSnapshot};
use rlir_stats::StreamingStats;

const WIDTHS: [u64; 4] = [1, 7, 1_000, 4_096];

/// One stream step: how to move the observation time, what to book there,
/// and a value for the move and the estimate.
type Step = (u8, u8, u64);

fn stats_bits(s: &StreamingStats) -> [u64; 5] {
    let bits = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
    [
        s.count(),
        bits(s.mean()),
        bits(s.variance()),
        bits(s.min()),
        bits(s.max()),
    ]
}

/// Every field of a snapshot, floats as bits.
fn snapshot_bits(s: &EpochSnapshot) -> [u64; 17] {
    let (est, truth) = (stats_bits(&s.est), stats_bits(&s.truth));
    let mut v = [0; 17];
    v[..7].copy_from_slice(&[
        s.epoch,
        s.start.as_nanos(),
        s.refs_accepted,
        s.regulars_seen,
        s.estimated,
        s.unestimated,
        s.dropped_after_metering,
    ]);
    v[7..12].copy_from_slice(&est);
    v[12..].copy_from_slice(&truth);
    v
}

/// Feed one stream to both, walking on from observation time `at`; the
/// two must agree on which observations have an epoch.
fn feed(
    (series, oracle): &mut (EpochSeries, EpochTracker),
    epoch_ns: u64,
    at: &mut u64,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let window = 3 * epoch_ns + 1;
    for &(walk, book, x) in steps {
        let obs = match walk % 16 {
            0..=8 => *at + x % (epoch_ns / 4 + 1),
            9..=12 => at.saturating_sub(x % window),
            13 => *at + x % window,
            14 => *at + x % (9 * epoch_ns),
            // A wild timestamp: past the bound ahead, behind, or anywhere
            // (the walk stays where it was). Twice the bound, so a series
            // that drifted from the walk cannot be bridged to it.
            _ => match x % 3 {
                0 => *at + (2 * MAX_EPOCH_GAP + x % 4) * epoch_ns,
                1 => at.saturating_sub((2 * MAX_EPOCH_GAP + x % 4) * epoch_ns),
                _ => x,
            },
        };
        if walk % 16 != 15 {
            *at = obs;
        }
        let t = SimTime::from_nanos(obs);
        let est = (x % 10_000) as f64 + 0.25;
        let truth = (book % 2 == 0).then_some(est * 1.5);
        let (got, want) = match book % 6 {
            0 => (
                series.count(t, EpochCounter::RefAccepted),
                oracle.snap(t).map(|s| s.refs_accepted += 1),
            ),
            1 => (
                series.count(t, EpochCounter::RegularSeen),
                oracle.snap(t).map(|s| s.regulars_seen += 1),
            ),
            2 => (
                series.count(t, EpochCounter::Unestimated),
                oracle.snap(t).map(|s| s.unestimated += 1),
            ),
            3 => (
                series.count(t, EpochCounter::DroppedAfterMetering),
                oracle.snap(t).map(|s| s.dropped_after_metering += 1),
            ),
            _ => (
                series.estimate(t, est, truth),
                oracle.snap(t).map(|s| {
                    s.est.push(est);
                    if let Some(truth) = truth {
                        s.truth.push(truth);
                    }
                    s.estimated += 1;
                }),
            ),
        };
        prop_assert_eq!(got, want.is_some(), "observation at {} ns", obs);
    }
    Ok(())
}

/// The series against the oracle's snapshots: length and span, every
/// snapshot (by `iter` and by `&series`), and `get` against the binary
/// search in and around the range.
fn same(series: &EpochSeries, oracle: &[EpochSnapshot]) -> Result<(), TestCaseError> {
    prop_assert_eq!(series.len(), oracle.len());
    if let (Some(a), Some(b)) = (oracle.first(), oracle.last()) {
        prop_assert_eq!(series.epochs(), a.epoch..b.epoch + 1);
    }
    let got: Vec<[u64; 17]> = series.iter().map(|s| snapshot_bits(&s)).collect();
    let want: Vec<[u64; 17]> = oracle.iter().map(snapshot_bits).collect();
    prop_assert_eq!(&got, &want);
    let by_ref: Vec<[u64; 17]> = series.into_iter().map(|s| snapshot_bits(&s)).collect();
    prop_assert_eq!(by_ref, want);
    let lo = oracle.first().map_or(0, |s| s.epoch.saturating_sub(2));
    let hi = oracle.last().map_or(3, |s| s.epoch.saturating_add(2));
    for epoch in (lo..=hi).chain([0, u64::MAX]) {
        prop_assert_eq!(
            series.get(epoch).map(|s| snapshot_bits(&s)),
            snapshot_at(oracle, epoch).map(snapshot_bits)
        );
    }
    Ok(())
}

/// Where a stream starts: near the others, or past the bound from them
/// (so which is kept depends on the merge order) either way.
fn base(pick: u8) -> u64 {
    [50, 3 * MAX_EPOCH_GAP, 7 * MAX_EPOCH_GAP][pick as usize % 3]
}

fn streams() -> impl Strategy<Value = Vec<(u8, Vec<Step>)>> {
    proptest::collection::vec(
        (
            0u8..6,
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..200),
        ),
        1..4,
    )
}

/// Every order of `0..n`, `n ≤ 3`.
fn orders(n: usize) -> Vec<Vec<usize>> {
    let mut all = vec![vec![]];
    for k in 0..n {
        all = all
            .into_iter()
            .flat_map(|o: Vec<usize>| {
                (0..=o.len()).map(move |i| {
                    let mut o = o.clone();
                    o.insert(i, k);
                    o
                })
            })
            .collect();
    }
    all
}

proptest! {
    #[test]
    fn every_snapshot_equals_the_parents(width in 0usize..4, streams in streams()) {
        let epoch_ns = WIDTHS[width];
        let (mut fed, mut walks) = (Vec::new(), Vec::new());
        for (pick, steps) in &streams {
            // Mostly near one another, so merges overlap.
            let mut pair = (EpochSeries::new(epoch_ns), EpochTracker::new(epoch_ns));
            let mut at = base(pick.saturating_sub(3)) * epoch_ns;
            feed(&mut pair, epoch_ns, &mut at, steps)?;
            same(&pair.0, pair.1.as_slice())?;
            fed.push(pair);
            walks.push(at);
        }
        for order in orders(fed.len()) {
            let union = EpochSeries::union(epoch_ns, order.iter().map(|&i| &fed[i].0));
            let slices: Vec<&[EpochSnapshot]> = order.iter().map(|&i| fed[i].1.as_slice()).collect();
            same(&union, &merge_epoch_series(&slices, epoch_ns))?;
            // Merging into a live series (front growth included), then
            // writing on where its walk stopped, is the same too.
            let mut folded = fed[order[0]].clone();
            for &i in &order[1..] {
                folded.0.merge(&fed[i].0);
                for snap in fed[i].1.as_slice() {
                    if let Some(slot) = folded.1.epoch(snap.epoch) {
                        slot.merge(snap);
                    }
                }
            }
            let mut at = walks[order[0]];
            feed(&mut folded, epoch_ns, &mut at, &streams[order[0]].1)?;
            same(&folded.0, folded.1.as_slice())?;
        }
    }
}
