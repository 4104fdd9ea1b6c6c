//! Plain-text report formatting for the experiment harness.
//!
//! Every table and figure of the paper is regenerated as text output; these
//! helpers keep the formatting consistent across the harness binaries.

use std::fmt::Write as _;

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row.  Rows shorter than the header are padded with empty
    /// cells; longer rows are allowed and extend the table width.
    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) -> &mut Self {
        self.rows.push(row.into_iter().map(Into::into).collect());
        self
    }

    /// Render the table with aligned columns.
    pub fn render(&self) -> String {
        let n_cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; n_cols];
        let all_rows = std::iter::once(&self.headers).chain(self.rows.iter());
        for row in all_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |row: &[String], out: &mut String| {
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "{cell:<width$}  ", width = w);
            }
            let _ = writeln!(out);
        };
        write_row(&self.headers, &mut out);
        let total_width: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total_width));
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }
}

/// Format a duration given in microseconds with a sensible unit.
pub fn format_us(us: f64) -> String {
    if us >= 60e6 {
        format!("{:.1} min", us / 60e6)
    } else if us >= 1e6 {
        format!("{:.2} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{us:.1} us")
    }
}

/// Format a fraction as a percentage string.
pub fn format_percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// A labelled experiment section header used by the harness binaries.
pub fn section(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(vec!["Protein", "Start", "End", "Speedup"]);
        t.add_row(vec!["1cex", "40", "51", "42.6"]);
        t.add_row(vec!["1akz", "181", "192", "40.3"]);
        let s = t.render();
        assert!(s.contains("Protein"));
        assert!(s.contains("1cex"));
        assert!(s.contains("42.6"));
        // Every data line at least as long as the header line's columns.
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines.len() >= 4);
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn ragged_rows_are_tolerated() {
        let mut t = TextTable::new(vec!["A", "B"]);
        t.add_row(vec!["1"]);
        t.add_row(vec!["1", "2", "3"]);
        let s = t.render();
        assert!(s.contains('3'));
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(format_us(1.0), "1.0 us");
        assert_eq!(format_us(2_500.0), "2.50 ms");
        assert_eq!(format_us(3_200_000.0), "3.20 s");
        assert!(format_us(90e6).contains("min"));
    }

    #[test]
    fn percent_and_section() {
        assert_eq!(format_percent(0.774), "77.4%");
        assert!(section("Table I").contains("=== Table I ==="));
    }
}
