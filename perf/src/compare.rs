//! `perf compare` and `perf noise`: the rules a performance claim and the
//! benchmark's own repeatability are judged by.
//!
//! `compare` takes result files of two builds, run as alternating pairs,
//! and judges every (end-to-end metric, workload) row on its own: a gain
//! needs the change to win at least nine tenths of the pairs (ties count
//! for neither side) *and* the medians to differ by more than the
//! distance between the parent's quartiles; a regression is a median
//! worse than the parent's by more than the row's bound; a row whose
//! spread exceeds its bound on either side is *unresolved*, never
//! *unchanged*. Every ratio is printed with its base.

use crate::json::Json;
use crate::metrics::{median, quartiles, MetricDef, END_TO_END};
use crate::workload::WORKLOADS;
use crate::{run_all, Flags, DEFAULT_SECONDS, DEFAULT_SEED};
use std::process::ExitCode;

/// Fewest pairs a comparison may rest on.
const MIN_PAIRS: usize = 10;
/// `setup_s` rows within this many seconds of each other pass `noise`
/// whatever their ratio: millisecond set-ups do not repeat to a tenth.
const SETUP_FLOOR_S: f64 = 0.005;

fn value(file: &Json, workload: &str, metric: &str) -> Option<f64> {
    file.get("workloads")?
        .get(workload)?
        .get("trace0")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn load(paths: &[String]) -> Result<Vec<Json>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

/// `a` relative to `b` for a metric's direction: positive means worse.
fn worse_by(m: &MetricDef, a: f64, b: f64) -> f64 {
    if m.better == "higher" {
        (b - a) / b
    } else {
        (a - b) / b
    }
}

pub fn compare_cmd(args: &[String]) -> ExitCode {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: perf compare <parent.json>... -- <change.json>...");
        return ExitCode::from(2);
    };
    let (parents, changes) = match (load(&args[..split]), load(&args[split + 1..])) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if parents.len() != changes.len() || parents.len() < MIN_PAIRS {
        eprintln!(
            "need at least {MIN_PAIRS} alternating pairs, one file per side each; got {} and {}",
            parents.len(),
            changes.len()
        );
        return ExitCode::from(2);
    }
    let pairs = parents.len();
    println!(
        "{:<22} {:<16} {:>14} {:>21} {:>14} {:>21} {:>7} {:>22}  verdict",
        "workload",
        "metric",
        "parent median",
        "parent q1..q3",
        "change median",
        "change q1..q3",
        "wins",
        "change/parent (base)"
    );
    let mut regressed = false;
    for w in &WORKLOADS {
        for m in END_TO_END {
            let side = |files: &[Json]| -> Vec<f64> {
                files
                    .iter()
                    .filter_map(|f| value(f, w.name, m.name))
                    .collect()
            };
            let (p, c) = (side(&parents), side(&changes));
            if p.len() != pairs || c.len() != pairs {
                println!("{:<22} {:<16} missing from some files", w.name, m.name);
                continue;
            }
            let (pm, cm) = (median(&p), median(&c));
            let ((pq1, pq3), (cq1, cq3)) = (quartiles(&p), quartiles(&c));
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let wins = p
                .iter()
                .zip(&c)
                .filter(|(&a, &b)| worse_by(m, b, a) < 0.0)
                .count();
            let spread = ((pq3 - pq1) / pm).max((cq3 - cq1) / cm);
            let verdict = if spread > bound {
                "unresolved (spread exceeds bound)"
            } else if worse_by(m, cm, pm) > bound {
                regressed = true;
                "REGRESSED"
            } else if wins * 10 >= pairs * 9 && (cm - pm).abs() > pq3 - pq1 {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{:<22} {:<16} {:>14.4} {:>10.4}..{:<9.4} {:>14.4} {:>10.4}..{:<9.4} {:>4}/{:<2} {:>8.4} ({:.4} {})  {}",
                w.name, m.name, pm, pq1, pq3, cm, cq1, cq3, wins, pairs, cm / pm, pm, m.unit, verdict
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Run the whole untraced benchmark `--sets` times on this one build and
/// fail if any end-to-end row of a later set is worse than the first
/// set's by more than its bound: the repeatability acceptance check.
pub fn noise_cmd(flags: &Flags) -> ExitCode {
    let sets = flags.get::<usize>("sets").unwrap_or(2).max(2);
    let seed = flags.get::<u64>("seed").unwrap_or(DEFAULT_SEED);
    let seconds = flags.get::<f64>("seconds").unwrap_or(DEFAULT_SECONDS);
    let mut files = Vec::new();
    for set in 0..sets {
        println!("# set {}", set + 1);
        match run_all(seed, seconds, false) {
            Ok((file, true)) => files.push(file),
            Ok((_, false)) => {
                eprintln!("output check failed in set {}", set + 1);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut ok = true;
    println!(
        "{:<22} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "worst later", "worse by", "bound"
    );
    for w in &WORKLOADS {
        for m in END_TO_END {
            let Some(first) = value(&files[0], w.name, m.name) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let worst = files[1..]
                .iter()
                .filter_map(|f| value(f, w.name, m.name))
                .max_by(|a, b| worse_by(m, *a, first).total_cmp(&worse_by(m, *b, first)))
                .unwrap_or(first);
            let by = worse_by(m, worst, first).abs();
            let within =
                by <= bound || (m.name == "setup_s" && (worst - first).abs() <= SETUP_FLOOR_S);
            ok &= within;
            println!(
                "{:<22} {:<16} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{}",
                w.name,
                m.name,
                first,
                worst,
                100.0 * by,
                100.0 * bound,
                if within { "" } else { "  EXCEEDS BOUND" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
