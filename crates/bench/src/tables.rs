//! The tables `reproduce` and `mkbank --list` print, as GitHub markdown,
//! so their output can be committed as it is.
//!
//! Every experiment prints its results in the row layout of the
//! corresponding paper table, so paper values and measured values read
//! side by side. Columns are right-aligned except the first (the row
//! label), and padded so the raw text lines up too.

use std::fmt::Write as _;

/// A simple fixed-column markdown table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Table {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table: a header row, the alignment row, the data rows.
    pub fn render(&self) -> String {
        // Three columns at least: the alignment row needs a colon and dashes.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len().max(3)).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(out, "| {:<width$} ", cell, width = widths[0]);
                } else {
                    let _ = write!(out, "| {:>width$} ", cell, width = widths[i]);
                }
            }
            out.push_str("|\n");
        };
        fmt_row(&mut out, &self.headers);
        let align: Vec<String> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| match i {
                0 => format!(":{}", "-".repeat(w - 1)),
                _ => format!("{}:", "-".repeat(w - 1)),
            })
            .collect();
        fmt_row(&mut out, &align);
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["banks", "speed up"]);
        t.row(vec!["EST1 vs EST2", "10.0"]);
        t.row(vec!["EST5 vs EST7", "28.8"]);
        assert_eq!(
            t.render(),
            "| banks        | speed up |\n\
             | :----------- | -------: |\n\
             | EST1 vs EST2 |     10.0 |\n\
             | EST5 vs EST7 |     28.8 |\n"
        );
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        assert_eq!(
            t.render(),
            "| a   |   b |   c |\n\
             | :-- | --: | --: |\n\
             | x   |     |     |\n"
        );
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(vec!["a"]);
        assert!(t.is_empty());
        t.row(vec!["1"]);
        assert_eq!(t.len(), 1);
    }
}
