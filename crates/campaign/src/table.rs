//! The printed tables and the `aggregates.csv` artifact of a campaign.

use std::io::Write;

/// A printable table: a title line, column headers and rows of cells.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    id: String,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub(crate) fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub(crate) fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with aligned columns to stdout.
    pub(crate) fn print(&self) {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let _ = writeln!(out, "\n=== {} — {} ===", self.id, self.title);
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            line.push_str(&format!("{h:>w$}  ", w = w));
        }
        let _ = writeln!(out, "{line}");
        let _ = writeln!(out, "{}", "-".repeat(line.len().min(120)));
        for row in &self.rows {
            let mut line = String::new();
            for (c, w) in row.iter().zip(&widths) {
                line.push_str(&format!("{c:>w$}  ", w = w));
            }
            let _ = writeln!(out, "{line}");
        }
    }
}

/// Escapes one CSV cell per RFC 4180 (quote when the cell contains a
/// comma, quote, or newline).
fn csv_cell(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Renders the table as an RFC 4180 CSV document (header + rows).
fn to_csv(table: &Table) -> String {
    let mut out = String::new();
    let header: Vec<String> = table.headers.iter().map(|h| csv_cell(h)).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in &table.rows {
        let cells: Vec<String> = row.iter().map(|c| csv_cell(c)).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Writes the table as CSV to `path`, creating parent directories.
pub(crate) fn write_csv(table: &Table, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, to_csv(table))
}

/// Formats a float compactly for table cells.
pub(crate) fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 || x.abs() < 0.001 {
        format!("{x:.2e}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(0.25), "0.250");
        assert!(f(1e-9).contains('e'));
        assert!(f(123456.0).contains('e'));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("EX", "demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_rendering_escapes() {
        let mut t = Table::new("EX", "demo", &["label", "x"]);
        t.row(vec!["plain".into(), "1".into()]);
        t.row(vec!["has,comma".into(), "quote\"d".into()]);
        let csv = to_csv(&t);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "label,x");
        assert_eq!(lines[1], "plain,1");
        assert_eq!(lines[2], "\"has,comma\",\"quote\"\"d\"");
    }
}
