//! Plain-text table rendering for the experiment harness — every experiment
//! prints rows shaped like the paper's tables/figure series — plus the
//! machine-readable [`BenchArtifact`] an experiment may attach for the
//! CI regression gate (`repro --json-out`).

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
    /// Machine-readable companion for `repro --json-out` (experiments
    /// that feed the CI regression gate attach one; most don't).
    pub artifact: Option<Artifact>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            notes: Vec::new(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            artifact: None,
        }
    }

    /// Attach a note line.
    pub fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
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

/// A machine-readable bench artifact of any experiment shape — what
/// `repro --json-out` serializes into the `artifacts` array.
#[derive(Clone, Debug, PartialEq)]
pub enum Artifact {
    /// The `shared` multi-session sweep (`BENCH_7.json`).
    Shared(BenchArtifact),
    /// The `profile` profiler-overhead sweep (`BENCH_10.json`).
    Profile(ProfileArtifact),
}

impl Artifact {
    /// Render as a single JSON object.
    pub fn to_json(&self) -> String {
        match self {
            Artifact::Shared(a) => a.to_json(),
            Artifact::Profile(a) => a.to_json(),
        }
    }
}

/// One measured cell of a benchmark sweep, in machine-portable form:
/// absolute times are kept for context, but the regression gate compares
/// the `speedup` ratio, which survives a change of CI hardware.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCell {
    /// Session count for this cell.
    pub sessions: usize,
    /// Query-overlap fraction.
    pub overlap: f64,
    /// Distinct patterns in the cell's pool.
    pub distinct: usize,
    /// Best-of-reps wall clock with the shared index off, nanoseconds.
    pub off_ns: u64,
    /// Best-of-reps wall clock with the shared index on, nanoseconds.
    pub on_ns: u64,
    /// `off_ns / on_ns`.
    pub speedup: f64,
    /// This cell's off-mode spread `(max-min)/min` across reps, percent.
    /// The gate's tolerance per cell — tiny cells are noisy, the
    /// headline cells are not, and one global floor would let the
    /// noisiest cell slacken every comparison.
    pub noise_pct: f64,
    /// Shared-index delta-cache hits (index-on run).
    pub hits: u64,
    /// Shared-index delta-cache misses (index-on run).
    pub misses: u64,
    /// Distinct sub-patterns registered (index-on run).
    pub subpatterns: u64,
}

/// A schema-versioned, machine-readable benchmark result: what
/// `repro --json-out` writes and the CI regression gate diffs against
/// the committed `BENCH_*.json` baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArtifact {
    /// Experiment name (`shared`, …).
    pub experiment: String,
    /// Base RNG seed the sweep ran with.
    pub seed: u64,
    /// Configured worker-thread count.
    pub threads: usize,
    /// Updates in the shared stream.
    pub stream_len: usize,
    /// Repetitions per (cell, mode); best kept.
    pub reps: usize,
    /// Worst off-mode spread `(max-min)/min` across reps, percent — the
    /// sweep's own noise floor, which the gate folds into its tolerance.
    pub noise_pct: f64,
    /// The measured cells.
    pub cells: Vec<BenchCell>,
}

impl BenchArtifact {
    /// Render as a single JSON object (`schema_version` 1). Hand-rolled
    /// like every other serializer in the workspace — no serde.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(1024);
        let _ = write!(
            o,
            "{{\"schema_version\":1,\"experiment\":\"{}\",\"seed\":{},\"threads\":{},\
             \"stream_len\":{},\"reps\":{},\"noise_pct\":{:.2},\"cells\":[",
            self.experiment, self.seed, self.threads, self.stream_len, self.reps, self.noise_pct
        );
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(
                o,
                "{{\"sessions\":{},\"overlap\":{:.2},\"distinct\":{},\"off_ns\":{},\
                 \"on_ns\":{},\"speedup\":{:.4},\"noise_pct\":{:.2},\"hits\":{},\
                 \"misses\":{},\"subpatterns\":{}}}",
                c.sessions,
                c.overlap,
                c.distinct,
                c.off_ns,
                c.on_ns,
                c.speedup,
                c.noise_pct,
                c.hits,
                c.misses,
                c.subpatterns
            );
        }
        o.push_str("]}");
        o
    }
}

/// One measured arm of the `profile` overhead sweep. Absolute times are
/// context; the gate compares `overhead_pct` (this arm's best wall clock
/// over the best Off arm's) against the profiler budget, folded with the
/// artifact's noise floor, and the deterministic `positives` count,
/// which every arm must reproduce exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileArm {
    /// Arm name (`off_a`, `off_b`, `counters`, `full`).
    pub arm: String,
    /// Profiler level the arm ran at (`off`, `counters`, `on`).
    pub level: String,
    /// Best-of-reps wall clock for the whole stream, nanoseconds.
    pub enum_ns: u64,
    /// `(enum_ns - baseline) / baseline`, percent, where the baseline is
    /// the best Off arm (so one Off arm is always 0).
    pub overhead_pct: f64,
    /// This arm's spread `(max-min)/min` across reps, percent.
    pub noise_pct: f64,
    /// Positive matches over the stream (deterministic, equal across
    /// arms — asserted in-cell before recording).
    pub positives: u64,
    /// The run's attributed profile cost (0 when profiling is off).
    pub total_cost: u64,
}

/// The `profile` experiment's schema-versioned artifact
/// (`BENCH_10.json`): profiler overhead per arm plus the sweep's own
/// noise floor, which the CI gate folds into the ≤ 5 % counters budget.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileArtifact {
    /// Base RNG seed the sweep ran with.
    pub seed: u64,
    /// Configured worker-thread count.
    pub threads: usize,
    /// Updates in the skewed stream.
    pub stream_len: usize,
    /// Repetitions per arm; best kept.
    pub reps: usize,
    /// Noise floor: the Off arms' mutual delta ∨ worst per-arm spread,
    /// percent.
    pub noise_pct: f64,
    /// The measured arms.
    pub arms: Vec<ProfileArm>,
}

impl ProfileArtifact {
    /// Render as a single JSON object (`schema_version` 1), hand-rolled
    /// like every other serializer in the workspace.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(1024);
        let _ = write!(
            o,
            "{{\"schema_version\":1,\"experiment\":\"profile\",\"seed\":{},\"threads\":{},\
             \"stream_len\":{},\"reps\":{},\"noise_pct\":{:.2},\"arms\":[",
            self.seed, self.threads, self.stream_len, self.reps, self.noise_pct
        );
        for (i, a) in self.arms.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(
                o,
                "{{\"arm\":\"{}\",\"level\":\"{}\",\"enum_ns\":{},\"overhead_pct\":{:.2},\
                 \"noise_pct\":{:.2},\"positives\":{},\"total_cost\":{}}}",
                a.arm, a.level, a.enum_ns, a.overhead_pct, a.noise_pct, a.positives, a.total_cost
            );
        }
        o.push_str("]}");
        o
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

    #[test]
    fn profile_artifact_json_is_schema_versioned_and_balanced() {
        let a = ProfileArtifact {
            seed: 1,
            threads: 8,
            stream_len: 1000,
            reps: 5,
            noise_pct: 1.75,
            arms: vec![ProfileArm {
                arm: "counters".into(),
                level: "counters".into(),
                enum_ns: 2_100_000,
                overhead_pct: 3.5,
                noise_pct: 0.8,
                positives: 12_345,
                total_cost: 987_654,
            }],
        };
        let j = Artifact::Profile(a).to_json();
        assert!(j.starts_with("{\"schema_version\":1,\"experiment\":\"profile\""));
        assert!(j.contains("\"arm\":\"counters\""));
        assert!(j.contains("\"overhead_pct\":3.50"));
        assert!(j.contains("\"total_cost\":987654"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn artifact_json_is_schema_versioned_and_balanced() {
        let a = BenchArtifact {
            experiment: "shared".into(),
            seed: 1,
            threads: 32,
            stream_len: 120,
            reps: 5,
            noise_pct: 3.149,
            cells: vec![BenchCell {
                sessions: 64,
                overlap: 0.5,
                distinct: 32,
                off_ns: 2_000_000,
                on_ns: 1_000_000,
                speedup: 2.0,
                noise_pct: 8.25,
                hits: 10,
                misses: 3,
                subpatterns: 7,
            }],
        };
        let j = a.to_json();
        assert!(j.starts_with("{\"schema_version\":1,"));
        assert!(j.contains("\"experiment\":\"shared\""));
        assert!(j.contains("\"noise_pct\":3.15"));
        assert!(j.contains("\"overlap\":0.50"));
        assert!(j.contains("\"speedup\":2.0000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
