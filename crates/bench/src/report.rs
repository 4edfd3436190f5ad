//! Table printing and machine-readable result recording.

use std::fs;
use std::path::PathBuf;

/// A simple fixed-width text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given headers.
    pub fn new(headers: &[&str]) -> Table {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }
}

/// Print a table with aligned columns.
pub fn print_table(title: &str, table: &Table) {
    let mut widths: Vec<usize> = table.headers.iter().map(String::len).collect();
    for row in &table.rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    println!("\n=== {title} ===");
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&table.headers));
    println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
    for row in &table.rows {
        println!("{}", fmt_row(row));
    }
}

/// Write a machine-readable record of an experiment to
/// `target/experiments/<name>.json` (relative to the working directory).
/// Best-effort output that nothing reads back: a failed write is reported
/// on stderr and the run carries on.
pub fn record_json(name: &str, value: &serde_json::Value) {
    let path = PathBuf::from("target/experiments").join(format!("{name}.json"));
    let written = fs::create_dir_all("target/experiments")
        .and_then(|()| fs::write(&path, serde_json::to_string_pretty(value).unwrap_or_default()));
    match written {
        Ok(()) => println!("[recorded {}]", path.display()),
        Err(err) => eprintln!("warning: could not record {}: {err}", path.display()),
    }
}

/// Format a byte count in human units.
pub fn human_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.2}MB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

/// Format an operation/cycle count in K/M units.
pub fn human_count(c: u64) -> String {
    if c >= 1_000_000 {
        format!("{:.1}M", c as f64 / 1e6)
    } else if c >= 1_000 {
        format!("{:.1}K", c as f64 / 1e3)
    } else {
        c.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rejects_misshapen_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn misshapen_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(30_000), "29.3KB");
        assert_eq!(human_bytes(4_000_000), "3.81MB");
        assert_eq!(human_count(11_000), "11.0K");
        assert_eq!(human_count(98_300_000), "98.3M");
        assert_eq!(human_count(97), "97");
    }
}
