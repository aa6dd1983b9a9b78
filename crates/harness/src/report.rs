//! Table rendering: aligned text for the terminal, CSV for plotting.
//!
//! Cells are numeric rates; each cell may also carry a *note* — the
//! `±N%` confidence half-width and steady-state classification marker the
//! measurement layer produces. Notes appear in the rendered text table
//! but not in CSV (CSV stays numeric for plotting).
//!
//! A cell holding `f64::NAN` means *missing* and renders as an empty
//! cell in both text and CSV (not the string `NaN`).

use std::fmt::Write as _;

/// A measured table: rows × columns of rates.
#[derive(Clone, Debug)]
pub struct Table {
    pub title: String,
    pub unit: String,
    pub columns: Vec<String>,
    pub rows: Vec<(String, Vec<f64>)>,
    /// Per-row, per-cell annotations (empty string = no note). Kept in
    /// lockstep with `rows`.
    pub notes: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, unit: &str) -> Table {
        Table {
            title: title.to_string(),
            unit: unit.to_string(),
            columns: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn add_column(&mut self, name: &str) {
        self.columns.push(name.to_string());
    }

    pub fn add_row(&mut self, label: &str, cells: Vec<f64>) {
        let notes = vec![String::new(); cells.len()];
        self.add_row_noted(label, cells, notes);
    }

    /// Add a row with a note per cell (`±CI%` / classification markers).
    pub fn add_row_noted(&mut self, label: &str, cells: Vec<f64>, notes: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        assert_eq!(notes.len(), cells.len(), "note width mismatch");
        self.rows.push((label.to_string(), cells));
        self.notes.push(notes);
    }

    /// Engineering-notation cell (the paper's axes are log-scale, so a
    /// compact mantissa+exponent reads best). `NaN` marks a missing value
    /// and renders empty.
    fn fmt_cell(v: f64) -> String {
        if v.is_nan() {
            return String::new();
        }
        if v == 0.0 {
            return "0".into();
        }
        if !v.is_finite() {
            return format!("{v}");
        }
        if v.abs() >= 1e4 {
            format!("{v:.2e}")
        } else if v.abs() >= 10.0 {
            format!("{v:.1}")
        } else {
            format!("{v:.3}")
        }
    }

    /// Display width of a cell/label: characters, not bytes (`std::fmt`
    /// pads by character count, so byte-length widths misalign any
    /// non-ASCII label).
    fn width(s: &str) -> usize {
        s.chars().count()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| Self::width(l))
            .chain(std::iter::once(4))
            .max()
            .unwrap();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .zip(&self.notes)
            .map(|((_, r), notes)| {
                r.iter()
                    .zip(notes)
                    .map(|(&v, note)| {
                        let mut c = Self::fmt_cell(v);
                        if !note.is_empty() {
                            let _ = write!(c, " {note}");
                        }
                        c
                    })
                    .collect()
            })
            .collect();
        let col_ws: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                cells
                    .iter()
                    .map(|r| Self::width(&r[i]))
                    .chain(std::iter::once(Self::width(c)))
                    .max()
                    .unwrap()
            })
            .collect();
        let _ = write!(out, "{:label_w$}", "");
        for (c, w) in self.columns.iter().zip(&col_ws) {
            let _ = write!(out, "  {c:>w$}");
        }
        let _ = writeln!(out);
        for ((label, _), row) in self.rows.iter().zip(&cells) {
            let _ = write!(out, "{label:label_w$}");
            for (cell, w) in row.iter().zip(&col_ws) {
                let _ = write!(out, "  {cell:>w$}");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "({})", self.unit);
        out
    }

    /// Render as CSV (header row then data rows). Missing values (`NaN`)
    /// become empty fields; notes are not exported (see module docs).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "benchmark");
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        let _ = writeln!(out);
        for (label, cells) in &self.rows {
            let _ = write!(out, "{label}");
            for v in cells {
                if v.is_nan() {
                    let _ = write!(out, ",");
                } else {
                    let _ = write!(out, ",{v}");
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Ratio of a row's cell to the first column (baseline-relative view,
    /// the normalization Graphs 10–11 use).
    ///
    /// Returns `None` when the table has no columns to normalize against.
    /// Rows whose baseline is zero or missing get missing (empty) cells
    /// rather than `NaN` text leaking into output.
    pub fn relative_to_first(&self) -> Option<Table> {
        let base_col = self.columns.first()?;
        let mut t = Table::new(
            &format!("{} — relative to {}", self.title, base_col),
            "ratio",
        );
        for c in &self.columns[1..] {
            t.add_column(c);
        }
        for (label, cells) in &self.rows {
            let base = cells[0];
            let usable = base != 0.0 && base.is_finite();
            t.add_row(
                label,
                cells[1..]
                    .iter()
                    .map(|&v| if usable { v / base } else { f64::NAN })
                    .collect(),
            );
        }
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Sample", "ops/sec");
        t.add_column("native");
        t.add_column("clr");
        t.add_row("add", vec![100.0, 50.0]);
        t.add_row("mult", vec![2e8, 1e8]);
        t
    }

    #[test]
    fn renders_aligned() {
        let s = sample().render();
        assert!(s.contains("== Sample =="), "{s}");
        assert!(s.contains("native"), "{s}");
        assert!(s.contains("2.00e8"), "{s}");
        assert!(s.lines().count() >= 5);
    }

    /// Regression: label/column widths were computed with byte length
    /// (`str::len`), which over-pads any non-ASCII label because
    /// `std::fmt` pads by character count. All data rows must line up.
    #[test]
    fn renders_aligned_with_non_ascii_labels() {
        let mut t = Table::new("Unicode", "ops/sec");
        t.add_column("naïve");
        t.add_row("ascii-label", vec![1.0]);
        t.add_row("μ-ops (×4)", vec![2.0]); // multi-byte chars
        let s = t.render();
        let rows: Vec<&str> = s
            .lines()
            .filter(|l| l.contains("1.000") || l.contains("2.000"))
            .collect();
        assert_eq!(rows.len(), 2, "{s}");
        let end0 = rows[0].chars().count();
        let end1 = rows[1].chars().count();
        assert_eq!(end0, end1, "misaligned columns:\n{s}");
    }

    #[test]
    fn notes_appear_in_text_but_not_csv() {
        let mut t = Table::new("Noted", "ops/sec");
        t.add_column("clr");
        t.add_row_noted("add", vec![100.0], vec!["±3% w".into()]);
        assert!(t.render().contains("100.0 ±3% w"), "{}", t.render());
        assert!(!t.to_csv().contains("±"), "{}", t.to_csv());
        assert!(t.to_csv().contains("add,100"));
    }

    #[test]
    fn csv_roundtrips_values() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("benchmark,native,clr\n"));
        assert!(csv.contains("add,100,50"));
    }

    #[test]
    fn relative_normalizes() {
        let r = sample().relative_to_first().unwrap();
        assert_eq!(r.columns, vec!["clr"]);
        assert_eq!(r.rows[0].1[0], 0.5);
    }

    /// Regression: a zero baseline produced `NaN` cells that leaked into
    /// CSV, and an empty table panicked on `columns[0]`.
    #[test]
    fn relative_handles_zero_baseline_and_empty_table() {
        let mut t = Table::new("Zero base", "ops/sec");
        t.add_column("native");
        t.add_column("clr");
        t.add_row("dead", vec![0.0, 50.0]);
        let r = t.relative_to_first().unwrap();
        assert!(r.rows[0].1[0].is_nan());
        assert!(!r.render().contains("NaN"), "{}", r.render());
        assert_eq!(r.to_csv(), "benchmark,clr\ndead,\n");

        let empty = Table::new("empty", "u");
        assert!(empty.relative_to_first().is_none());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", "u");
        t.add_column("a");
        t.add_row("r", vec![1.0, 2.0]);
    }
}
