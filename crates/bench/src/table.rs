//! A scenario's result: one table, rendered twice from the same cells —
//! as `scenario_<name>.csv` (plus its per-epoch companion) and as
//! column-aligned terminal lines with the floats rounded.

use crate::output::{write_csv, OutputDir};
use rlir_rli::EpochSeries;
use std::borrow::Borrow;

/// CSV header of every per-epoch time-series companion.
const EPOCH_SERIES_HEADER: &str = "label,epoch,start_ns,regulars_seen,estimated,unestimated,\
dropped_after_metering,est_mean_ns,true_mean_ns";

/// One table cell: a float (the terminal rounds it) or any other value as
/// the text the CSV holds.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Written with `{}` to the CSV, rounded on the terminal.
    Float(f64),
    /// Written verbatim to both.
    Text(String),
}

impl From<f64> for Cell {
    fn from(x: f64) -> Cell {
        Cell::Float(x)
    }
}

macro_rules! text_cells {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Cell {
                Cell::Text(v.to_string())
            }
        }
    )*};
}
text_cells!(u64, usize, i64, bool, String, &str);

impl Cell {
    fn csv(&self) -> String {
        match self {
            Cell::Float(x) => x.to_string(),
            Cell::Text(s) => s.clone(),
        }
    }

    fn terminal(&self) -> String {
        match self {
            Cell::Float(x) if *x != 0.0 && x.is_finite() && !(1e-3..1e6).contains(&x.abs()) => {
                format!("{x:.3e}")
            }
            Cell::Float(x) => format!("{x:.4}"),
            Cell::Text(s) => s.clone(),
        }
    }
}

/// One table row from values convertible to [`Cell`]s.
macro_rules! row {
    ($($cell:expr),+ $(,)?) => {
        vec![$($crate::table::Cell::from($cell)),+]
    };
}
pub(crate) use row;

/// A header plus rows of cells, and optionally the per-epoch series that
/// go into the `_epochs.csv` companion.
#[derive(Debug, Clone)]
pub struct Table {
    header: &'static str,
    rows: Vec<Vec<Cell>>,
    epochs: Option<Box<Table>>,
}

impl Table {
    /// A table under a comma-separated `header`; every row has one cell per
    /// column.
    pub fn new(header: &'static str, rows: impl IntoIterator<Item = Vec<Cell>>) -> Table {
        let rows: Vec<Vec<Cell>> = rows.into_iter().collect();
        let columns = header.split(',').count();
        assert!(
            rows.iter().all(|r| r.len() == columns),
            "a row of {header:?} does not have {columns} cells"
        );
        Table {
            header,
            rows,
            epochs: None,
        }
    }

    /// Attach labeled per-epoch series: one companion row per
    /// `(label, epoch)`.
    pub fn with_epochs<S: Borrow<EpochSeries>>(
        mut self,
        labeled: impl IntoIterator<Item = (String, S)>,
    ) -> Table {
        let mut rows = Vec::new();
        for (label, series) in labeled {
            for e in series.borrow() {
                rows.push(row![
                    label.as_str(),
                    e.epoch,
                    e.start.as_nanos(),
                    e.regulars_seen,
                    e.estimated,
                    e.unestimated,
                    e.dropped_after_metering,
                    e.est_mean().unwrap_or(f64::NAN),
                    e.true_mean().unwrap_or(f64::NAN),
                ]);
            }
        }
        self.epochs = Some(Box::new(Table::new(EPOCH_SERIES_HEADER, rows)));
        self
    }

    /// The CSV text: the header, then one line per row.
    pub fn csv(&self) -> String {
        write_csv(
            self.header,
            self.rows
                .iter()
                .map(|r| r.iter().map(Cell::csv).collect::<Vec<_>>().join(",")),
        )
    }

    /// Print the rows column-aligned (the first column left, the rest
    /// right); a one-row table prints one `column value` line per column.
    pub fn print(&self) {
        let names: Vec<&str> = self.header.split(',').collect();
        let cells: Vec<Vec<String>> = (self.rows.iter())
            .map(|r| r.iter().map(Cell::terminal).collect())
            .collect();
        if let [only] = &cells[..] {
            let width = names.iter().map(|n| n.len()).max().unwrap_or(0);
            for (name, cell) in names.iter().zip(only) {
                println!("  {name:<width$}  {cell}");
            }
            return;
        }
        let lines: Vec<Vec<&str>> = std::iter::once(names)
            .chain(cells.iter().map(|r| r.iter().map(String::as_str).collect()))
            .collect();
        let widths: Vec<usize> = (0..lines[0].len())
            .map(|c| {
                lines
                    .iter()
                    .map(|l| l[c].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        for line in &lines {
            let mut text = format!("  {:<w$}", line[0], w = widths[0]);
            for (cell, w) in line[1..].iter().zip(&widths[1..]) {
                text += &format!("  {cell:>w$}");
            }
            println!("{}", text.trim_end());
        }
    }

    /// Print the table, write it to `scenario_<name>.csv` and, when it has
    /// per-epoch series, write them to `scenario_<name>_epochs.csv`.
    pub fn write(&self, out: &OutputDir, name: &str) -> std::io::Result<()> {
        self.print();
        out.write(&format!("scenario_{name}.csv"), &self.csv())?;
        if let Some(epochs) = &self.epochs {
            out.write(&format!("scenario_{name}_epochs.csv"), &epochs.csv())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_equals_write_csv_byte_for_byte() {
        let header = "x,sentinel,flag,n,label";
        let rows = [
            (f64::NAN, -1i64, true, 7u64, "Adaptive, 93%"),
            (0.1 + 0.2, 3, false, 0, "ptp"),
            (1e-7, 0, true, u64::MAX, ""),
        ];
        let table = Table::new(
            header,
            rows.iter().map(|&(x, s, b, n, t)| row![x, s, b, n, t]),
        );
        let golden = write_csv(
            header,
            rows.iter()
                .map(|(x, s, b, n, t)| format!("{x},{s},{b},{n},{t}")),
        );
        assert_eq!(table.csv(), golden);
        assert!(
            golden.contains("\nNaN,-1,true,7,Adaptive, 93%\n"),
            "{golden}"
        );
    }

    #[test]
    fn terminal_rounds_floats_and_keeps_text() {
        let shown = |c: Cell| c.terminal();
        assert_eq!(shown(0.123456.into()), "0.1235");
        assert_eq!(shown(0.0.into()), "0.0000");
        assert_eq!(shown(f64::NAN.into()), "NaN");
        assert_eq!(shown(4.2e-5.into()), "4.200e-5");
        assert_eq!(shown(12_345_678.0.into()), "1.235e7");
        assert_eq!(shown((-1i64).into()), "-1");
        assert_eq!(shown(true.into()), "true");
    }

    #[test]
    #[should_panic(expected = "does not have 2 cells")]
    fn a_short_row_is_refused() {
        Table::new("a,b", vec![row![1u64]]);
    }
}
