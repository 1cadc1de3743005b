//! A [`FlowReport`] row as bit patterns, for the tests that hold two
//! implementations of `FlowTable::report` equal bit for bit.

use rlir_net::FlowKey;
use rlir_rli::FlowReport;

/// A report row with every `f64` as its bit pattern.
pub fn bits(r: &FlowReport) -> (FlowKey, u64, u64, [Option<u64>; 8]) {
    let b = |x: Option<f64>| x.map(f64::to_bits);
    (
        r.flow,
        r.packets,
        r.est_mean.to_bits(),
        [
            b(r.true_mean),
            b(r.est_std),
            b(r.true_std),
            b(r.mean_rel_err),
            b(r.std_rel_err),
            b(r.est_quantile),
            b(r.true_quantile),
            b(r.quantile_rel_err),
        ],
    )
}
