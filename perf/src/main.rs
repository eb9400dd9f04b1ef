//! `perf` — the repo's end-to-end + per-layer benchmark (see README.md).
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--threads <n>] [--spans <file>]
//! perf run --seed <n> --out <file> [--seconds <s>]
//! perf compare <parent.json>... -- <change.json>...
//! perf noise --sets 2 [--seed <n>] [--seconds <s>]
//! perf manifest | perf expected
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: one workload, one
//! process, the result as the last line of standard output. The others
//! are built from it.

mod compare;
mod json;
mod metrics;
mod micro;
mod replay;
mod run;
mod serve;
mod workload;

use json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Golden totals for [`DEFAULT_SEED`] at [`DEFAULT_SECONDS`], written by
/// `perf expected`.
pub const EXPECTED: &str = include_str!("../expected.json");
pub const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--threads <n>] [--spans <file>]\n  \
         perf run --seed <n> --out <file> [--seconds <s>]\n  \
         perf compare <parent.json>... -- <change.json>...\n  \
         perf noise --sets <n> [--seed <n>] [--seconds <s>]\n  \
         perf manifest\n  perf expected\nworkloads: {}",
        workload::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

/// `--key value` pairs after the subcommand.
pub(crate) struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Option<Flags> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            out.push((k.strip_prefix("--")?.to_string(), it.next()?.clone()));
        }
        Some(Flags(out))
    }

    pub(crate) fn get<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The contract's result line.
fn result_line(o: &run::Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::num(o.attempted as f64)),
        ("failed", Json::num(o.failed as f64)),
        (
            "metrics",
            Json::obj(o.metrics.iter().map(|&(name, value)| {
                (
                    name,
                    Json::obj([
                        ("value", Json::num(value)),
                        ("unit", Json::str(metrics::unit_of(name))),
                    ]),
                )
            })),
        ),
    ])
}

/// One workload in this process: what `BENCHMARK.json`'s command runs.
fn one_workload(flags: &Flags) -> ExitCode {
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (
        flags.get::<String>("workload"),
        flags.get::<u64>("seed"),
        flags.get::<f64>("seconds"),
        flags.get::<u8>("trace"),
    ) else {
        return usage();
    };
    let Some(spec) = workload::find(&name) else {
        eprintln!("unknown workload {name}");
        return usage();
    };
    if !(seconds > 0.0 && seconds <= 60.0) || trace > 1 {
        return usage();
    }
    let nproc = nproc();
    let max_threads = flags.get::<usize>("threads").unwrap_or(nproc);
    if max_threads == 0 || max_threads > nproc {
        eprintln!("refusing to run {max_threads} threads on {nproc} cores");
        return ExitCode::from(2);
    }
    // The program's own data-parallel helpers read this; pin it so the
    // host's environment cannot widen a run.
    std::env::set_var("PARACOSM_THREADS", max_threads.to_string());

    let outcome = run::run(&run::RunArgs {
        spec,
        seed,
        seconds,
        trace: trace == 1,
        max_threads,
        nproc,
        spans_out: flags.get::<PathBuf>("spans"),
    });
    for &(name, value) in &outcome.metrics {
        println!("{name:<32} {value:>18.6} {}", metrics::unit_of(name));
    }
    println!("detail {}", outcome.detail);
    println!("{}", result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        for f in outcome
            .detail
            .get("failed_checks")
            .map_or(&[][..], Json::as_arr)
        {
            eprintln!("FAILED: {}", f.as_str().unwrap_or("?"));
        }
        ExitCode::FAILURE
    }
}

/// Run one workload in a child process (its own peak RSS, its own
/// allocator state) and return `(result line, detail)`.
fn child(workload: &str, seed: u64, seconds: f64, trace: u8) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{workload} trace {trace}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .and_then(|d| Json::parse(d).ok())
        .unwrap_or(Json::Null);
    Ok((result, detail))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, untraced then (when `traced`) traced, one child each.
/// Prints every metric by name and returns the result-file value.
pub(crate) fn run_all(seed: u64, seconds: f64, traced: bool) -> Result<(Json, bool), String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in &workload::WORKLOADS {
        let mut entry = vec![("why".to_string(), Json::str(w.why))];
        for trace in 0..=(traced as u8) {
            let (result, detail) = child(w.name, seed, seconds, trace)?;
            let correct = result.get("correct") == Some(&Json::Bool(true));
            all_correct &= correct;
            println!(
                "== {} (trace {trace}) {}",
                w.name,
                if correct { "ok" } else { "FAILED" }
            );
            for (name, m) in result.get("metrics").map_or(&[][..], Json::as_obj) {
                println!(
                    "{name:<32} {:>18.6} {}",
                    m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    m.get("unit").and_then(Json::as_str).unwrap_or("")
                );
            }
            entry.push((format!("trace{trace}"), result));
            entry.push((format!("detail{trace}"), detail));
        }
        workloads.push((w.name.to_string(), Json::Obj(entry)));
    }
    let file = Json::obj([
        ("schema", Json::num(1.0)),
        (
            "provenance",
            Json::obj([
                ("seed", Json::num(seed as f64)),
                ("seconds", Json::num(seconds)),
                (
                    "git_head",
                    Json::str(command_line("git", &["rev-parse", "HEAD"])),
                ),
                ("rustc", Json::str(command_line("rustc", &["-V"]))),
                ("nproc", Json::num(nproc() as f64)),
                ("threads", Json::num(nproc() as f64)),
            ]),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    Ok((file, all_correct))
}

fn run_cmd(flags: &Flags) -> ExitCode {
    let (Some(seed), Some(out)) = (flags.get::<u64>("seed"), flags.get::<PathBuf>("out")) else {
        return usage();
    };
    let seconds = flags.get::<f64>("seconds").unwrap_or(DEFAULT_SECONDS);
    match run_all(seed, seconds, true) {
        Ok((file, correct)) => {
            if let Err(e) = std::fs::write(&out, file.pretty()) {
                eprintln!("writing {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", out.display());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Print `BENCHMARK.json` as the catalogue defines it.
fn manifest() -> Json {
    let defs = |list: &[metrics::MetricDef]| {
        Json::Arr(
            list.iter()
                .map(|m| {
                    let mut o = vec![
                        ("name", Json::str(m.name)),
                        ("unit", Json::str(m.unit)),
                        ("better", Json::str(m.better)),
                    ];
                    if let Some(b) = m.bound {
                        o.push(("bound", Json::num(b)));
                    }
                    Json::obj(o)
                })
                .collect(),
        )
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "perf/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("perf")])),
        ("run_seconds", Json::num(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workload::WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", defs(metrics::END_TO_END)),
        ("per_layer", defs(metrics::PER_LAYER)),
    ])
}

/// Regenerate `expected.json`'s content: the golden totals of the default
/// seed at the default length, both trace modes.
fn expected() -> ExitCode {
    let mut entries = Vec::new();
    for w in &workload::WORKLOADS {
        for trace in 0..=1u8 {
            match child(w.name, DEFAULT_SEED, DEFAULT_SECONDS, trace) {
                Ok((_, detail)) => match detail.get("totals") {
                    Some(t) => entries.push((format!("{}/t{trace}", w.name), t.clone())),
                    None => {
                        eprintln!("{}: no totals in detail", w.name);
                        return ExitCode::FAILURE;
                    }
                },
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    print!(
        "{}",
        Json::obj([
            ("seed", Json::num(DEFAULT_SEED as f64)),
            ("seconds", Json::num(DEFAULT_SECONDS)),
            ("workloads", Json::Obj(entries)),
        ])
        .pretty()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        return usage();
    };
    if first.starts_with("--") {
        return Flags::parse(&args).map_or_else(usage, |f| one_workload(&f));
    }
    let rest = &args[1..];
    match first.as_str() {
        "run" => Flags::parse(rest).map_or_else(usage, |f| run_cmd(&f)),
        "compare" => compare::compare_cmd(rest),
        "noise" => Flags::parse(rest).map_or_else(usage, |f| compare::noise_cmd(&f)),
        "manifest" => {
            print!("{}", manifest().pretty());
            ExitCode::SUCCESS
        }
        "expected" => expected(),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the catalogue, written out.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(on_disk, manifest(), "regenerate with `perf manifest`");
    }
}
