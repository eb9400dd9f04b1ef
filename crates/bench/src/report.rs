//! Plain-text table rendering for the experiment harness — every experiment
//! prints rows shaped like the paper's tables/figure series.

use paracosm_core::ParaCosmConfig;
use std::fmt::Write as _;
use std::time::Duration;

/// A rendered experiment result.
#[derive(Clone, Debug)]
pub struct Table {
    /// Title, e.g. `Table 3: time breakdown and success rate`.
    pub title: String,
    /// Free-form notes printed under the title.
    pub notes: Vec<String>,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            notes: Vec::new(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Attach a note line.
    pub fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }

    /// Label the table as a model when `cfg` runs the virtual scheduler
    /// ([`ParaCosmConfig::simulated`]): its times are `wall − find_time +
    /// find_span` on one real thread. Real-thread and sequential
    /// configurations add nothing.
    pub fn note_modelled(&mut self, cfg: &ParaCosmConfig) {
        if let Some(n) = cfg.sim_threads {
            self.note(format!(
                "MODELLED: {n} virtual workers on one real thread; not a measurement — \
                 measured numbers come from perf/"
            ));
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        for n in &self.notes {
            let _ = writeln!(out, "   {n}");
        }
        let line = |cells: &[String], w: &[usize]| {
            let mut s = String::from("  ");
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:>width$}  ", c, width = w[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len() + 2;
        let _ = writeln!(out, "  {}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Format a duration in adaptive units (µs/ms/s).
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Format a ratio as `N.NNx`.
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Format a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{x:.2}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.note("a note");
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let r = t.render();
        assert!(r.contains("== Demo =="));
        assert!(r.contains("a note"));
        assert!(r.contains("longer"));
        // Header line must be at least as wide as the longest cell.
        let lines: Vec<&str> = r.lines().collect();
        assert!(lines.len() >= 5);
    }

    #[test]
    fn duration_units_adapt() {
        assert_eq!(fmt_dur(Duration::from_micros(500)), "500us");
        assert_eq!(fmt_dur(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_dur(Duration::from_secs(3)), "3.00s");
    }

    #[test]
    fn ratio_and_pct_formats() {
        assert_eq!(fmt_speedup(3.456), "3.46x");
        assert_eq!(fmt_pct(99.337), "99.34%");
    }
}
