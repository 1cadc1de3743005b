//! What an epoch series costs, under the counting `#[global_allocator]` of
//! `tests/support/counting_alloc.rs`: a 40-byte row of counters an epoch,
//! and 80 bytes of estimate/truth moments only for an epoch that got an
//! estimate, each grown by `rlir_rli::growth` (at most 9/8 of the length
//! plus 8). The series it replaced (`tests/support/epoch_oracle.rs`) spent
//! a 136-byte snapshot on every epoch, estimated or not, and must fail the
//! same bound.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/epoch_oracle.rs"]
mod epoch_oracle;

use epoch_oracle::EpochTracker;
use rlir_net::time::SimTime;
use rlir_rli::{EpochCounter, EpochSeries};

const ROW: usize = 40;
const MOMENTS: usize = 80;
const EPOCH_NS: u64 = 1_000;
const EPOCHS: u64 = 20_000;

/// `len` elements of `size` bytes grown by the growth rule.
fn allowed(len: usize, size: usize) -> usize {
    len * size * 9 / 8 + 8 * size
}

/// Bytes a series holds for `EPOCHS` epochs, one regular each, with an
/// estimate in every `every`-th epoch (none when `every` is zero); a few
/// observations each step run back into the epoch before, as a reorder
/// window lets them.
fn series_bytes(every: u64) -> (usize, usize) {
    let before = counting_alloc::live();
    let mut s = EpochSeries::new(EPOCH_NS);
    for e in 0..EPOCHS {
        let at = SimTime::from_nanos(e * EPOCH_NS + 10);
        assert!(s.count(at, EpochCounter::RegularSeen));
        if every > 0 && e % every == 0 {
            assert!(s.estimate(at, 1e3, Some(9e2)));
        }
        let back = SimTime::from_nanos((e * EPOCH_NS).saturating_sub(5));
        assert!(s.count(back, EpochCounter::DroppedAfterMetering));
    }
    let bytes = counting_alloc::live() - before;
    let estimated = s.iter().filter(|e| e.estimated > 0).count();
    assert_eq!(s.len() as u64, EPOCHS);
    drop(s);
    (bytes, estimated)
}

/// The same stream through the 136-byte-a-snapshot series.
fn oracle_bytes(every: u64) -> usize {
    let before = counting_alloc::live();
    let mut t = EpochTracker::new(EPOCH_NS);
    for e in 0..EPOCHS {
        let snap = t.snap(SimTime::from_nanos(e * EPOCH_NS + 10)).unwrap();
        snap.regulars_seen += 1;
        if every > 0 && e % every == 0 {
            snap.est.push(1e3);
            snap.truth.push(9e2);
            snap.estimated += 1;
        }
        let back = SimTime::from_nanos((e * EPOCH_NS).saturating_sub(5));
        t.snap(back).unwrap().dropped_after_metering += 1;
    }
    let bytes = counting_alloc::live() - before;
    drop(t);
    bytes
}

#[test]
fn an_epoch_without_an_estimate_costs_a_row() {
    let (bytes, estimated) = series_bytes(0);
    assert_eq!(estimated, 0);
    let bound = allowed(EPOCHS as usize, ROW);
    assert!(
        bytes <= bound,
        "{EPOCHS} estimate-free epochs hold {bytes} B, over {bound} B"
    );
    let old = oracle_bytes(0);
    assert!(
        old > bound,
        "the 136-byte series holds {old} B, inside {bound} B"
    );
}

#[test]
fn an_estimated_epoch_adds_its_moments() {
    for every in [1, 7, 100] {
        let (bytes, estimated) = series_bytes(every);
        assert_eq!(estimated as u64, EPOCHS.div_ceil(every));
        let bound = allowed(EPOCHS as usize, ROW) + allowed(estimated, MOMENTS);
        assert!(
            bytes <= bound,
            "{EPOCHS} epochs, {estimated} estimated, hold {bytes} B, over {bound} B"
        );
        if every > 1 {
            let old = oracle_bytes(every);
            assert!(
                old > bound,
                "the 136-byte series holds {old} B, inside {bound} B"
            );
        }
    }
}
