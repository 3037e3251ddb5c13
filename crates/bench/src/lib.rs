//! Shared utilities for the experiment binaries (E1–E13).
//!
//! Each binary in `src/bin/` regenerates one experiment from DESIGN.md's
//! index, printing the table/series that EXPERIMENTS.md records. Everything
//! is seeded; rerunning a binary reproduces its numbers exactly (wall-clock
//! timings vary with the machine; shapes should not).

#![forbid(unsafe_code)]

use std::time::Instant;

/// A fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table { headers: headers.iter().map(|h| h.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
            println!("  {}", padded.join("  "));
        };
        line(&self.headers);
        let total = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format helper: a float to 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format helper: a float to 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Time a closure, returning (result, milliseconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1000.0)
}

/// Print an experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("\n=== {id} ===");
    println!("claim under test: {claim}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long_header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["333".into(), "4".into()]);
        t.print(); // visual; the assertion is that arity checks hold
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn timed_returns_result() {
        let (v, ms) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }
}
