//! Property tests for [`FlowTable::merge`] as a lattice join (proptest).
//!
//! The plane's snapshot-query API (`MeasurementPlane::snapshot_epochs` /
//! `localize_now`) and the sharded sweep executor both fold per-tap /
//! per-shard tables with `merge`, so the fold must not care how the
//! observations were split into tables or in which order / association
//! the tables were folded back together. These properties pin that
//! across random shard splits:
//!
//! * counts and flow membership merge **exactly** (integer arithmetic);
//! * means / standard deviations merge up to floating-point rounding
//!   (Welford fusion is not bitwise associative) — compared within an
//!   epsilon against the unsharded sequential table;
//! * tails merge **exactly**: a flow's four largest delays are those of the
//!   union whatever the split, so both quantiles and whether they are
//!   bounds come out of any fold bit-equal to the sequential table's.

use proptest::prelude::*;
use rlir_net::{FlowKey, Protocol};
use rlir_rli::{FlowReport, FlowTable};
use std::collections::HashMap;
use std::net::Ipv4Addr;

const SHARDS: usize = 4;
/// Exact below 16 delays a flow, an upper bound from there: flows here
/// reach both.
const QUANTILE: f64 = 0.75;

/// A small deterministic flow pool so splits actually collide on flows.
fn flow(idx: u8) -> FlowKey {
    FlowKey {
        src: Ipv4Addr::new(10, 0, 0, idx),
        dst: Ipv4Addr::new(10, 1, 0, 255 - idx),
        proto: Protocol::Tcp,
        sport: 1000 + idx as u16,
        dport: 2000,
    }
}

/// One observation: (flow pool index, est delay ns, optional truth ns).
type Obs = (u8, u32, Option<u32>);

fn arb_observations() -> impl Strategy<Value = Vec<(Obs, usize)>> {
    proptest::collection::vec(
        (
            0u8..6,
            1u32..10_000_000,
            0u8..2,
            1u32..10_000_000,
            0usize..SHARDS,
        )
            .prop_map(|(idx, est, has_truth, truth, shard)| {
                ((idx, est, (has_truth == 1).then_some(truth)), shard)
            }),
        1..120,
    )
}

fn record_all(table: &mut FlowTable, obs: &[Obs]) {
    for &(idx, est, truth) in obs {
        table.record(flow(idx), est as f64, truth.map(|t| t as f64));
    }
}

/// Split observations by shard assignment and build one table per shard.
fn shard_tables(obs: &[(Obs, usize)]) -> Vec<FlowTable> {
    let mut tables: Vec<FlowTable> = (0..SHARDS)
        .map(|_| FlowTable::with_quantile(QUANTILE))
        .collect();
    for &(o, shard) in obs {
        record_all(&mut tables[shard], &[o]);
    }
    tables
}

fn rows_by_flow(table: &FlowTable) -> HashMap<FlowKey, FlowReport> {
    table.report(1).map(|r| (r.flow, r)).collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

fn close_opt(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => close(a, b),
        (None, None) => true,
        _ => false,
    }
}

proptest! {
    /// Folding the shard tables back together in any association must
    /// agree with the unsharded sequential table: exactly on counts and
    /// flow membership, within floating-point epsilon on the moments.
    #[test]
    fn merge_is_order_invariant_and_matches_sequential(obs in arb_observations()) {
        let mut sequential = FlowTable::with_quantile(QUANTILE);
        let flat: Vec<Obs> = obs.iter().map(|&(o, _)| o).collect();
        record_all(&mut sequential, &flat);

        // Fold A: left fold in shard order — (((s0 ∪ s1) ∪ s2) ∪ s3).
        let mut fold_a = FlowTable::with_quantile(QUANTILE);
        for t in shard_tables(&obs) {
            fold_a.merge(t);
        }

        // Fold B: different order AND association — (s3 ∪ s1) ∪ (s2 ∪ s0).
        let mut tables = shard_tables(&obs);
        let (s0, s1, s2, s3) = (
            std::mem::take(&mut tables[0]),
            std::mem::take(&mut tables[1]),
            std::mem::take(&mut tables[2]),
            std::mem::take(&mut tables[3]),
        );
        let mut left = s3;
        left.merge(s1);
        let mut right = s2;
        right.merge(s0);
        let mut fold_b = left;
        fold_b.merge(right);

        for merged in [&fold_a, &fold_b] {
            prop_assert_eq!(merged.flow_count(), sequential.flow_count());
            prop_assert_eq!(merged.estimate_count(), sequential.estimate_count());
            let rows = rows_by_flow(merged);
            let seq_rows = rows_by_flow(&sequential);
            prop_assert_eq!(rows.len(), seq_rows.len());
            for (f, want) in &seq_rows {
                let got = rows.get(f).expect("merged table lost a flow");
                prop_assert_eq!(got.packets, want.packets);
                prop_assert!(close(got.est_mean, want.est_mean),
                             "est_mean {} vs {}", got.est_mean, want.est_mean);
                prop_assert!(close_opt(got.true_mean, want.true_mean));
                prop_assert!(close_opt(got.est_std, want.est_std));
                prop_assert!(close_opt(got.true_std, want.true_std));
            }
        }

        // And the two folds agree with each other the same way.
        let (a, b) = (rows_by_flow(&fold_a), rows_by_flow(&fold_b));
        for (f, ra) in &a {
            let rb = b.get(f).expect("folds disagree on flow membership");
            prop_assert_eq!(ra.packets, rb.packets);
            prop_assert!(close(ra.est_mean, rb.est_mean));
        }
    }

    /// The split-and-merge law: a stream split over 2–4 tables and folded
    /// back in any order and association equals the sequential table —
    /// counts, flows and both quantiles bit for bit, moments within 1e-9
    /// relative.
    #[test]
    fn split_and_merge_equals_the_sequential_table(
        obs in arb_observations(),
        tables in 2usize..=SHARDS,
        // Which two tables each fold step joins, and in which direction.
        folds in proptest::collection::vec((any::<u16>(), any::<u16>()), SHARDS..SHARDS + 1),
    ) {
        let mut sequential = FlowTable::with_quantile(QUANTILE);
        let mut split: Vec<FlowTable> = (0..tables)
            .map(|_| FlowTable::with_quantile(QUANTILE))
            .collect();
        for &(o, shard) in &obs {
            record_all(&mut sequential, &[o]);
            record_all(&mut split[shard % tables], &[o]);
        }
        for &(into, from) in &folds {
            if split.len() == 1 {
                break;
            }
            let from = split.swap_remove(usize::from(from) % split.len());
            let into = usize::from(into) % split.len();
            split[into].merge(from);
        }
        let merged = split.pop().expect("one table left");
        prop_assert_eq!(merged.flow_count(), sequential.flow_count());
        prop_assert_eq!(merged.estimate_count(), sequential.estimate_count());
        prop_assert_eq!(merged.report(1).len(), sequential.report(1).len());
        let tight = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(a), Some(b)) => (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
            (a, b) => a.is_none() && b.is_none(),
        };
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        for (got, want) in merged.report(1).zip(sequential.report(1)) {
            prop_assert_eq!((got.flow, got.packets), (want.flow, want.packets));
            prop_assert_eq!(bits(got.est_quantile), bits(want.est_quantile));
            prop_assert_eq!(bits(got.true_quantile), bits(want.true_quantile));
            prop_assert_eq!(got.quantile_is_bound, want.quantile_is_bound);
            prop_assert!(tight(Some(got.est_mean), Some(want.est_mean)), "{:?} vs {:?}", got, want);
            prop_assert!(tight(got.true_mean, want.true_mean), "{:?} vs {:?}", got, want);
            prop_assert!(tight(got.est_std, want.est_std), "{:?} vs {:?}", got, want);
            prop_assert!(tight(got.true_std, want.true_std), "{:?} vs {:?}", got, want);
        }
    }
}
