//! Paper **Table 4** (unsafe-update percentage), **Table 5** (dataset
//! summary) and **Table 6** (parallel success rates).

use crate::report::{fmt_pct, Table};
use crate::runner::{CellResult, ExpOptions};
use csm_algos::AlgoKind;
use csm_datagen::DatasetKind;
use csm_graph::GraphStats;

/// Table 4: average unsafe-update percentage per dataset × query size,
/// measured by the three-stage classifier during batch-executor runs
/// (the paper's Table 4 figures are all ≤ ~1.6 %).
pub fn table4(opts: &ExpOptions) -> Table {
    let mut headers = vec!["Dataset".to_string()];
    for &s in &opts.qsizes {
        headers.push(format!("size {s}"));
    }
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new("Table 4: average unsafe update percentage (%)", &hdr_refs);
    t.note("classifier: label -> degree -> ADS (Symbi's DCS as the stage-3 index)");
    t.note_modelled(&opts.para_cfg());
    for dataset in DatasetKind::ALL {
        let mut row = vec![dataset.name().to_string()];
        for &s in &opts.qsizes {
            let w = opts.workload(dataset, s);
            eprintln!("  [table4] {dataset} size={s}");
            let cell = CellResult::collect(&w, AlgoKind::Symbi, &opts.para_cfg());
            let c = cell.classifier();
            row.push(format!("{:.4}", c.unsafe_pct()));
        }
        t.row(row);
    }
    t
}

/// Table 5: summary of the generated datasets next to the paper's full-size
/// dimensions.
pub fn table5(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Table 5: summary of datasets (scaled synthetic stand-ins)",
        &[
            "Dataset",
            "|V|",
            "|E|",
            "L(V)",
            "L(E)",
            "d(G)",
            "paper |V|",
            "paper |E|",
            "paper d(G)",
        ],
    );
    t.note(format!("scale = {}", opts.scale.suffix()));
    for dataset in DatasetKind::ALL {
        let g = dataset.generate(opts.scale);
        let s = GraphStats::of(&g);
        let (pv, pe, _, _) = dataset.paper_dims();
        let pd = 2.0 * pe as f64 / pv as f64;
        t.row(vec![
            dataset.name().to_string(),
            s.num_vertices.to_string(),
            s.num_edges.to_string(),
            s.num_vertex_labels.to_string(),
            s.num_edge_labels.to_string(),
            format!("{:.2}", s.avg_degree),
            pv.to_string(),
            pe.to_string(),
            format!("{pd:.2}"),
        ]);
    }
    t
}

/// Table 6: success rate of the parallelized algorithms on LiveJournal,
/// with the delta versus their single-threaded success rates.
pub fn table6(opts: &ExpOptions, seq: Option<&super::singlethread::Sweep>) -> Table {
    let mut headers = vec!["Alg.(Parallel)".to_string()];
    for &s in &opts.qsizes {
        headers.push(format!("size {s}"));
    }
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!(
            "Table 6: success rate of parallel CSM algorithms on LiveJournal with {} threads",
            opts.threads
        ),
        &hdr_refs,
    );
    t.note("(+/-) = change vs the single-threaded run (paper Table 3)");
    t.note_modelled(&opts.para_cfg());
    for kind in AlgoKind::ALL {
        let mut row = vec![kind.name().to_string()];
        for &s in &opts.qsizes {
            let w = opts.workload(DatasetKind::LiveJournal, s);
            eprintln!("  [table6] {kind} size={s}");
            let par = CellResult::collect(&w, kind, &opts.para_cfg());
            let rate = par.success_rate();
            match seq.and_then(|sw| {
                sw.cells
                    .iter()
                    .find(|c| c.kind == kind && c.qsize == s)
                    .map(|c| c.cell.success_rate())
            }) {
                Some(base) => row.push(format!("{rate:.0} ({:+.0})", rate - base)),
                None => row.push(format!("{rate:.0}")),
            }
        }
        t.row(row);
    }
    t
}

/// §4.3 validation: the paper's label-filter safe-probability estimate
/// versus the measured classifier ratio, per dataset.
pub fn analysis(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Analysis (paper 4.3): predicted vs measured safe-update ratio",
        &[
            "Dataset",
            "|E(Q)|",
            "L(V)",
            "L(E)",
            "predicted safe",
            "measured safe",
        ],
    );
    t.note("prediction: P(safe) = 1 - |E(Q)| / (|L(E)| |L(V)|^2), uniform labels");
    t.note_modelled(&opts.para_cfg());
    let qsize = opts.qsizes.first().copied().unwrap_or(6);
    for dataset in DatasetKind::ALL {
        let w = opts.workload(dataset, qsize);
        eprintln!("  [analysis] {dataset}");
        let (_, _, lv, le) = dataset.paper_dims();
        let qe: usize =
            w.queries.iter().map(|q| q.num_edges()).sum::<usize>() / w.queries.len().max(1);
        let predicted =
            100.0 * paracosm_core::model::safe_probability(qe, lv as usize, le as usize);
        let cell = CellResult::collect(&w, AlgoKind::Symbi, &opts.para_cfg());
        let c = cell.classifier();
        let measured = 100.0 - c.unsafe_pct();
        t.row(vec![
            dataset.name().to_string(),
            qe.to_string(),
            lv.to_string(),
            le.to_string(),
            fmt_pct(predicted),
            fmt_pct(measured),
        ]);
    }
    t
}

/// Figure 12: three-stage filter pruning effectiveness on the Orkut
/// stand-in, for the three ADS-bearing algorithms (paper: TurboFlux, Symbi,
/// CaLiG).
pub fn fig12(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Figure 12: three-stage filtering pruning effectiveness (Orkut)",
        &[
            "Algorithm",
            "label+degree safe",
            "reach ADS filter",
            "ADS prunes (of reached)",
            "unsafe overall",
        ],
    );
    t.note("paper: label+degree classify >99.6% safe; ADS prunes >99.7% of the rest");
    t.note_modelled(&opts.para_cfg());
    let qsize = opts.qsizes.first().copied().unwrap_or(6);
    let w = opts.workload(DatasetKind::Orkut, qsize);
    for kind in [AlgoKind::TurboFlux, AlgoKind::Symbi, AlgoKind::CaLiG] {
        eprintln!("  [fig12] {kind}");
        let cell = CellResult::collect(&w, kind, &opts.para_cfg());
        let c = cell.classifier();
        let label_degree_safe = if c.total == 0 {
            0.0
        } else {
            100.0 * (c.safe_label + c.safe_degree) as f64 / c.total as f64
        };
        t.row(vec![
            kind.name().to_string(),
            fmt_pct(label_degree_safe),
            fmt_pct(c.reaching_ads_pct()),
            fmt_pct(c.ads_prune_pct()),
            fmt_pct(c.unsafe_pct()),
        ]);
    }
    t
}
