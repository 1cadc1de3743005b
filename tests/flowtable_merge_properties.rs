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
//! * the quantile-conflict drop path: P² trackers are not mergeable, so
//!   a flow observed by two or more shards must come out of the fold
//!   with its quantile trackers dropped (`est_quantile: None`), while a
//!   flow owned by exactly one shard keeps that shard's tracker intact,
//!   bit-for-bit, no matter the fold order.

use proptest::prelude::*;
use rlir_net::{FlowKey, Protocol};
use rlir_rli::{FlowReport, FlowTable};
use std::collections::HashMap;
use std::net::Ipv4Addr;

const SHARDS: usize = 4;
const QUANTILE: f64 = 0.99;

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

    /// The quantile-conflict drop path: a flow touched by ≥ 2 shards
    /// loses its P² trackers in the fold (not mergeable — documented
    /// drop), while a flow owned by exactly one shard keeps that shard's
    /// tracker state bit-for-bit, regardless of fold order.
    #[test]
    fn merge_drops_quantiles_exactly_on_conflict(obs in arb_observations()) {
        let mut owners: HashMap<u8, Vec<usize>> = HashMap::new();
        for &((idx, _, _), shard) in &obs {
            let o = owners.entry(idx).or_default();
            if !o.contains(&shard) {
                o.push(shard);
            }
        }

        let tables = shard_tables(&obs);
        let solo_rows: Vec<HashMap<FlowKey, FlowReport>> =
            tables.iter().map(rows_by_flow).collect();

        // Two fold orders, forward and reverse.
        let mut fwd = FlowTable::with_quantile(QUANTILE);
        for t in shard_tables(&obs) {
            fwd.merge(t);
        }
        let mut rev = FlowTable::with_quantile(QUANTILE);
        for t in tables.into_iter().rev() {
            rev.merge(t);
        }

        for merged in [&fwd, &rev] {
            let rows = rows_by_flow(merged);
            for (idx, shards) in &owners {
                let row = rows.get(&flow(*idx)).expect("observed flow must report");
                if shards.len() >= 2 {
                    prop_assert_eq!(row.est_quantile, None,
                                    "conflicting flow kept a quantile tracker");
                    prop_assert_eq!(row.true_quantile, None);
                } else {
                    // Sole owner: the tracker rides along untouched, so the
                    // merged estimate is exactly the owning shard's.
                    let own = &solo_rows[shards[0]][&flow(*idx)];
                    prop_assert_eq!(row.est_quantile, own.est_quantile);
                    prop_assert_eq!(row.true_quantile, own.true_quantile);
                }
            }
        }
    }
}
