//! Minimal aligned-text table printer for the figure binaries, plus a JSON
//! dump so EXPERIMENTS.md can be regenerated mechanically.

use serde::Serialize;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width must match header");
        self.rows.push(row);
    }

    /// Render the table as an aligned string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:<width$}", width = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }
}

/// Serialize `value` as pretty JSON and write it under `results/` (created
/// if needed), returning the path.  Failures are reported but not fatal —
/// the printed tables remain the primary output.
pub fn dump_json<T: Serialize>(name: &str, value: &T) -> Option<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => match std::fs::write(&path, json) {
            Ok(()) => Some(path),
            Err(err) => {
                eprintln!("warning: could not write {}: {err}", path.display());
                None
            }
        },
        Err(err) => {
            eprintln!("warning: could not serialize {name}: {err}");
            None
        }
    }
}

/// Format a float with the given number of decimal places.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Format a fraction as a percentage string.
pub fn pct(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.add_row(vec!["a".into(), "1".into()]);
        t.add_row(vec!["longer-name".into(), "2.5".into()]);
        let rendered = t.render();
        assert!(rendered.contains("== Demo =="));
        assert!(rendered.contains("longer-name"));
        // The header, its rule and the two rows under the title.
        let lines: Vec<&str> = rendered.lines().skip(1).collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(pct(0.254), "25.4%");
    }
}
