//! Paper **Figure 10** (per-thread execution-time CDF, load-balanced vs
//! unbalanced) and **Figure 11** (inter-update mechanism speedup).

use crate::report::{fmt_dur, fmt_speedup, Table};
use crate::runner::{CellResult, ExpOptions};
use csm_algos::AlgoKind;
use csm_datagen::DatasetKind;
use paracosm_core::ParaCosmConfig;
use std::time::Duration;

/// Sum per-worker busy time over all runs of a cell.
fn merged_busy(cell: &CellResult, workers: usize) -> Vec<Duration> {
    let mut busy = vec![Duration::ZERO; workers];
    for r in &cell.runs {
        for (i, b) in r.thread_busy.iter().enumerate() {
            if i < busy.len() {
                busy[i] += *b;
            }
        }
    }
    busy
}

/// Figure 10: distribution (CDF support points) of per-thread execution
/// time with and without the adaptive load balancing, for GraphFlow on
/// LiveJournal (paper's setup).
pub fn fig10(opts: &ExpOptions) -> Table {
    let qsize = *opts.qsizes.last().unwrap_or(&8);
    let w = opts.workload(DatasetKind::LiveJournal, qsize);
    let kind = AlgoKind::GraphFlow;

    let run_with = |lb: bool| -> Vec<Duration> {
        let mut cfg = opts.para_cfg();
        cfg.load_balance = lb;
        cfg.inter_update = false; // isolate the inner executor, as the paper does
        eprintln!("  [fig10] GraphFlow load_balance={lb}");
        let cell = CellResult::collect(&w, kind, &cfg);
        let mut busy = merged_busy(&cell, opts.threads);
        busy.sort();
        busy
    };

    let balanced = run_with(true);
    let unbalanced = run_with(false);

    let mut t = Table::new(
        format!(
            "Figure 10: CDF of per-thread execution time, balanced vs unbalanced (GraphFlow, {} threads)",
            opts.threads
        ),
        &["percentile", "balanced", "unbalanced"],
    );
    t.note("sorted per-thread busy time; a tight spread = good load balance");
    t.note_modelled(&opts.para_cfg());
    let pctiles = [0usize, 25, 50, 75, 90, 100];
    let at = |v: &[Duration], p: usize| -> Duration {
        if v.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((v.len() - 1) * p) / 100;
        v[idx]
    };
    for p in pctiles {
        t.row(vec![
            format!("p{p}"),
            fmt_dur(at(&balanced, p)),
            fmt_dur(at(&unbalanced, p)),
        ]);
    }
    let spread = |v: &[Duration]| -> f64 {
        let (min, max) = (at(v, 0), at(v, 100));
        if min.is_zero() {
            f64::INFINITY
        } else {
            max.as_secs_f64() / min.as_secs_f64()
        }
    };
    t.note(format!(
        "max/min spread: balanced {:.2}, unbalanced {:.2}",
        spread(&balanced),
        spread(&unbalanced)
    ));
    t
}

/// Figure 11: inter-update mechanism speedup on the Orkut stand-in —
/// ParaCOSM with the batch executor on vs off (paper: all ≥ 3.47×, Symbi
/// peaking at 7.39×).
pub fn fig11(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 11: inter-update mechanism speedup (Orkut, {} threads)",
            opts.threads
        ),
        &[
            "Algorithm",
            "inter-update OFF",
            "inter-update ON",
            "speedup",
        ],
    );
    t.note("times are projected stream times; the ON run skips Find_Matches for safe updates and parallelizes classification + application");
    t.note_modelled(&opts.para_cfg());
    let qsize = opts.qsizes.first().copied().unwrap_or(6);
    let w = opts.workload(DatasetKind::Orkut, qsize);
    for kind in AlgoKind::ALL {
        eprintln!("  [fig11] {kind}");
        let mut off_cfg: ParaCosmConfig = opts.para_cfg();
        off_cfg.inter_update = false;
        let on_cfg = opts.para_cfg();
        let off = CellResult::collect(&w, kind, &off_cfg);
        let on = CellResult::collect(&w, kind, &on_cfg);
        let t_off: Duration = off
            .runs
            .iter()
            .filter(|r| !r.timed_out)
            .map(|r| r.projected_with_bulk(opts.threads))
            .sum();
        let t_on: Duration = on
            .runs
            .iter()
            .filter(|r| !r.timed_out)
            .map(|r| r.projected_with_bulk(opts.threads))
            .sum();
        let speedup = if t_on.is_zero() {
            None
        } else {
            Some(t_off.as_secs_f64() / t_on.as_secs_f64())
        };
        t.row(vec![
            kind.name().to_string(),
            fmt_dur(t_off),
            fmt_dur(t_on),
            speedup.map(fmt_speedup).unwrap_or_else(|| "TO".into()),
        ]);
    }
    t
}
