//! Paper **Figure 7** (speedup per dataset), **Figure 8** (speedup vs query
//! size), and **Figure 9** (thread scalability).
//!
//! Speedups compare the single-threaded wall time against ParaCOSM's
//! *projected* parallel time: the virtual-scheduler makespan for
//! `Find_Matches` plus the measured serial parts, with the batch executor's
//! data-parallel phases spread over the worker count (see DESIGN.md,
//! substitutions — this host has fewer cores than the paper's testbed).

use crate::report::{fmt_speedup, Table};
use crate::runner::{CellResult, ExpOptions};
use csm_algos::AlgoKind;
use csm_datagen::DatasetKind;

fn paired_speedup(seq: &CellResult, par: &CellResult, threads: usize) -> Option<f64> {
    let mut logs = Vec::new();
    for (b, f) in seq.runs.iter().zip(&par.runs) {
        if b.timed_out || f.timed_out {
            continue;
        }
        let tb = b.elapsed.as_secs_f64();
        let tf = f.projected_with_bulk(threads).as_secs_f64();
        if tb > 0.0 && tf > 0.0 {
            logs.push((tb / tf).ln());
        }
    }
    if logs.is_empty() {
        None
    } else {
        Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
    }
}

fn fmt_opt_speedup(s: Option<f64>) -> String {
    match s {
        Some(x) => fmt_speedup(x),
        None => "TO".into(),
    }
}

/// Figure 7: ParaCOSM speedup (opts.threads workers) over the
/// single-threaded baselines, per dataset × algorithm.
pub fn fig7(opts: &ExpOptions) -> Table {
    let mut headers = vec!["Algorithm".to_string()];
    for d in DatasetKind::ALL {
        headers.push(d.name().to_string());
    }
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!(
            "Figure 7: ParaCOSM speedup with {} threads vs single-threaded",
            opts.threads
        ),
        &hdr_refs,
    );
    t.note("geometric mean over queries successful in both runs; TO = no comparable run");
    t.note_modelled(&opts.para_cfg());
    let qsize = opts.qsizes.first().copied().unwrap_or(6);
    let mut rows: Vec<Vec<String>> = AlgoKind::ALL
        .iter()
        .map(|k| vec![k.name().to_string()])
        .collect();
    for dataset in DatasetKind::ALL {
        let w = opts.workload(dataset, qsize);
        for (i, kind) in AlgoKind::ALL.into_iter().enumerate() {
            eprintln!("  [fig7] {dataset} {kind}");
            let seq = CellResult::collect(&w, kind, &opts.seq_cfg());
            let par = CellResult::collect(&w, kind, &opts.para_cfg());
            rows[i].push(fmt_opt_speedup(paired_speedup(&seq, &par, opts.threads)));
        }
    }
    for r in rows {
        t.row(r);
    }
    t
}

/// Figure 8: ParaCOSM speedup on LiveJournal versus query size.
pub fn fig8(opts: &ExpOptions) -> Table {
    let mut headers = vec!["Algorithm".to_string()];
    for &s in &opts.qsizes {
        headers.push(format!("size {s}"));
    }
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!(
            "Figure 8: ParaCOSM speedup on large query graphs (LiveJournal, {} threads)",
            opts.threads
        ),
        &hdr_refs,
    );
    t.note_modelled(&opts.para_cfg());
    let mut rows: Vec<Vec<String>> = AlgoKind::ALL
        .iter()
        .map(|k| vec![k.name().to_string()])
        .collect();
    for &qsize in &opts.qsizes {
        let w = opts.workload(DatasetKind::LiveJournal, qsize);
        for (i, kind) in AlgoKind::ALL.into_iter().enumerate() {
            eprintln!("  [fig8] {kind} size={qsize}");
            let seq = CellResult::collect(&w, kind, &opts.seq_cfg());
            let par = CellResult::collect(&w, kind, &opts.para_cfg());
            rows[i].push(fmt_opt_speedup(paired_speedup(&seq, &par, opts.threads)));
        }
    }
    for r in rows {
        t.row(r);
    }
    t
}

/// Figure 9: speedup versus thread count (paper: 8–128 threads,
/// 10 queries).
pub fn fig9(opts: &ExpOptions) -> Table {
    let thread_counts = [8usize, 16, 32, 64, 128];
    let mut headers = vec!["Algorithm".to_string()];
    for &n in &thread_counts {
        headers.push(format!("{n}T"));
    }
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Figure 9: ParaCOSM speedup with different numbers of threads (LiveJournal)",
        &hdr_refs,
    );
    // One note for the sweep: the widest column names the worker count.
    t.note_modelled(&opts.para_cfg_at(thread_counts[thread_counts.len() - 1]));
    let qsize = opts.qsizes.first().copied().unwrap_or(6);
    let w = opts.workload(DatasetKind::LiveJournal, qsize);
    for kind in AlgoKind::ALL {
        let seq = CellResult::collect(&w, kind, &opts.seq_cfg());
        let mut row = vec![kind.name().to_string()];
        for &n in &thread_counts {
            eprintln!("  [fig9] {kind} threads={n}");
            let par = CellResult::collect(&w, kind, &opts.para_cfg_at(n));
            row.push(fmt_opt_speedup(paired_speedup(&seq, &par, n)));
        }
        t.row(row);
    }
    t
}
