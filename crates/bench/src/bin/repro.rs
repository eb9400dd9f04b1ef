//! `repro` — regenerate every table and figure of the ParaCOSM paper's
//! evaluation on the scaled synthetic datasets.
//!
//! ```text
//! repro <experiment ...> [options]
//!
//! experiments: table3 table4 table5 table6 fig4 fig7 fig8 fig9 fig10 fig11 fig12 analysis
//!              observe all
//!
//! options:
//!   --scale xs|s|m       dataset scale                  (default: xs)
//!   --threads N          ParaCOSM worker count          (default: 32)
//!   --queries N          queries per cell               (default: 5)
//!   --stream N           max updates per query run      (default: 250)
//!   --timeout-ms N       per-query time limit           (default: 5000)
//!   --sizes a,b,c        query sizes                    (default: 6,7,8,9,10)
//!   --seed N             base RNG seed                  (default: 1)
//!   --report-json PATH   observe: write machine-readable run report
//! ```
//!
//! Every table except `table3`, `fig4`, `table5` and `observe` is
//! *modelled* (virtual workers on one real thread) and says so in its
//! notes; measured numbers come from `perf/`.

use csm_datagen::Scale;
use paracosm_bench::experiments::{breakdown, observe, singlethread, speedups, tables};
use paracosm_bench::report::Table;
use paracosm_bench::runner::ExpOptions;
use std::time::Duration;

const EXPERIMENTS: [&str; 13] = [
    "table3", "table4", "table5", "table6", "fig4", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "analysis", "observe",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment ...> [--scale xs|s|m] [--threads N] [--queries N] \
         [--stream N] [--timeout-ms N] [--sizes a,b,c] [--seed N] \
         [--report-json PATH]\n\
         experiments: {} all",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut opts = ExpOptions::default();
    let mut selected: Vec<String> = Vec::new();
    let mut report_json: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--scale" => {
                let v = val("--scale");
                opts.scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("bad scale '{v}'");
                    usage()
                });
            }
            "--threads" => opts.threads = val("--threads").parse().unwrap_or_else(|_| usage()),
            "--queries" => {
                opts.queries_per_cell = val("--queries").parse().unwrap_or_else(|_| usage())
            }
            "--stream" => opts.stream_cap = val("--stream").parse().unwrap_or_else(|_| usage()),
            "--timeout-ms" => {
                opts.timeout =
                    Duration::from_millis(val("--timeout-ms").parse().unwrap_or_else(|_| usage()))
            }
            "--sizes" => {
                opts.qsizes = val("--sizes")
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--seed" => opts.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--report-json" => report_json = Some(val("--report-json")),
            "all" => selected = EXPERIMENTS.iter().map(|s| s.to_string()).collect(),
            e if EXPERIMENTS.contains(&e) => {
                // Order-preserving dedup: `table3 fig4 table3` runs table3 once.
                if !selected.iter().any(|s| s == e) {
                    selected.push(e.to_string());
                }
            }
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
    }
    if selected.is_empty() {
        usage();
    }

    eprintln!(
        "repro: scale={} threads={} queries/cell={} stream-cap={} timeout={:?} sizes={:?}",
        opts.scale.suffix(),
        opts.threads,
        opts.queries_per_cell,
        opts.stream_cap,
        opts.timeout,
        opts.qsizes
    );

    // table3/fig4/table6 share the single-threaded sweep; compute it once.
    let needs_sweep = selected
        .iter()
        .any(|e| matches!(e.as_str(), "table3" | "fig4" | "table6"));
    let sweep = needs_sweep.then(|| {
        eprintln!("[sweep] single-threaded baseline sweep");
        singlethread::run_sweep(&opts)
    });

    let mut outputs: Vec<Table> = Vec::new();
    for exp in &selected {
        eprintln!("[{exp}]");
        match exp.as_str() {
            "table3" => outputs.push(sweep.as_ref().unwrap().table3(&opts)),
            "fig4" => outputs.push(sweep.as_ref().unwrap().fig4(&opts)),
            "table4" => outputs.push(tables::table4(&opts)),
            "table5" => outputs.push(tables::table5(&opts)),
            "table6" => outputs.push(tables::table6(&opts, sweep.as_ref())),
            "fig7" => outputs.push(speedups::fig7(&opts)),
            "fig8" => outputs.push(speedups::fig8(&opts)),
            "fig9" => outputs.push(speedups::fig9(&opts)),
            "fig10" => outputs.push(breakdown::fig10(&opts)),
            "fig11" => outputs.push(breakdown::fig11(&opts)),
            "fig12" => outputs.push(tables::fig12(&opts)),
            "analysis" => outputs.push(tables::analysis(&opts)),
            "observe" => outputs.push(observe::observe(&opts, report_json.as_deref())),
            _ => unreachable!(),
        }
    }
    println!();
    for t in &outputs {
        t.print();
    }
}
