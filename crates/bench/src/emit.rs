//! Emitters several registry scenarios share: the per-epoch companion
//! series and the shape-check verdict lines.

use crate::figures::ShapeCheck;
use crate::output::{write_csv, OutputDir};
use rlir_rli::EpochSnapshot;

/// CSV header of every per-epoch time-series export.
pub const EPOCH_SERIES_HEADER: &str = "label,epoch,start_ns,regulars_seen,estimated,unestimated,\
dropped_after_metering,est_mean_ns,true_mean_ns";

/// Render labeled epoch series as the shared per-epoch CSV — the
/// registry's time-series export format, one row per `(label, epoch)`.
pub fn epoch_series_csv<'a>(
    rows: impl IntoIterator<Item = (&'a str, &'a [EpochSnapshot])>,
) -> String {
    write_csv(
        EPOCH_SERIES_HEADER,
        rows.into_iter().flat_map(|(label, series)| {
            series.iter().map(move |e| {
                format!(
                    "{label},{},{},{},{},{},{},{},{}",
                    e.epoch,
                    e.start.as_nanos(),
                    e.regulars_seen,
                    e.estimated,
                    e.unestimated,
                    e.dropped_after_metering,
                    e.est_mean().unwrap_or(f64::NAN),
                    e.true_mean().unwrap_or(f64::NAN),
                )
            })
        }),
    )
}

/// Print `[PASS]`/`[MISS]` shape-check lines.
pub fn print_shape_checks(checks: &[ShapeCheck]) {
    for c in checks {
        println!(
            "  [{}] {} — {}",
            if c.holds { "PASS" } else { "MISS" },
            c.claim,
            c.detail
        );
    }
}

/// Write a scenario's per-epoch companion file next to its main CSV: the
/// labeled series rendered as [`epoch_series_csv`] into `foo_epochs.csv`
/// for `foo.csv`. The single path every registry entry uses, so the
/// companion convention cannot drift per scenario.
pub fn write_epoch_companion(
    out: &OutputDir,
    csv_name: &str,
    labeled: &[(String, &[EpochSnapshot])],
) -> std::io::Result<()> {
    let series = epoch_series_csv(labeled.iter().map(|(l, s)| (l.as_str(), *s)));
    let base = csv_name.strip_suffix(".csv").unwrap_or(csv_name);
    out.write(&format!("{base}_epochs.csv"), &series)
        .map(|_| ())
}
