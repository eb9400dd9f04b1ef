//! `observe` — one real-threaded, instrumented stream run that emits the
//! machine-readable `RunReport` JSON (`--report-json`), plus a printed
//! summary of the registry counters.
//!
//! Unlike the paper-reproduction experiments (which use the virtual
//! scheduler to model the 32-core testbed), this runs *real* worker
//! threads so the per-worker registry shards and busy times reflect actual
//! interleaving.

use crate::report::Table;
use crate::runner::ExpOptions;
use csm_algos::{AlgoKind, AnyAlgorithm};
use csm_datagen::DatasetKind;
use paracosm_core::{Counter, ParaCosm, ParaCosmConfig, TraceLevel};
use std::time::Duration;

/// Run the instrumented stream and render the counter summary.
/// `report_json` is an output path (skipped when `None`).
pub fn observe(opts: &ExpOptions, report_json: Option<&str>) -> Table {
    let qsize = opts.qsizes.first().copied().unwrap_or(6);
    let w = opts.workload(DatasetKind::Amazon, qsize);
    // Real threads: cap the paper's virtual worker count at what the host
    // can support.
    let threads = opts.threads.clamp(2, 8);
    let mut cfg = ParaCosmConfig::parallel(threads)
        .with_time_limit(opts.timeout)
        .tracing(TraceLevel::Counters)
        .with_slow_k(5);
    cfg.track_latency = true;

    let q = &w.queries[0];
    let algo = AlgoKind::Symbi.build(&w.initial, q);
    let mut engine: ParaCosm<AnyAlgorithm> = ParaCosm::new(w.initial.clone(), q.clone(), algo, cfg);
    let out = engine
        .process_stream(&w.stream)
        .expect("well-formed stream");

    if let Some(path) = report_json {
        match std::fs::write(path, engine.run_report(Some(out.clone())).to_json()) {
            Ok(()) => eprintln!("[observe] run report written to {path}"),
            Err(e) => eprintln!("[observe] failed to write report {path}: {e}"),
        }
    }

    let snap = engine.tracer().metrics();
    let st = engine.stats();
    let mut t = Table::new(
        format!(
            "observe: instrumented {threads}-thread run ({}, q{qsize})",
            w.name
        ),
        &["metric", "value"],
    );
    t.note(format!(
        "stream: {} updates, +{} -{} in {:?} (timed_out={})",
        out.updates_applied, out.positives, out.negatives, out.elapsed, out.timed_out
    ));
    t.note(format!("latency: {}", st.latency.summary()));
    t.note(format!("verdicts: {}", st.classifier.verdict_mix()));
    let busy_sum: Duration = st.thread_busy.iter().sum();
    t.note(format!(
        "worker busy: {:?} total over {} workers ({:?} mean)",
        busy_sum,
        st.thread_busy.len(),
        busy_sum / st.thread_busy.len().max(1) as u32,
    ));
    for (name, c) in [
        ("updates", Counter::Updates),
        ("seed_expansions", Counter::SeedExpansions),
        ("tasks_popped", Counter::TasksPopped),
        ("tasks_completed", Counter::TasksCompleted),
        ("tasks_split", Counter::TasksSplit),
        ("steal_retries", Counter::StealRetries),
        ("deadline_fires", Counter::DeadlineFires),
        ("nodes", Counter::Nodes),
        ("matches_pos", Counter::MatchesPos),
        ("matches_neg", Counter::MatchesNeg),
        ("class_label_safe", Counter::ClassLabelSafe),
        ("class_degree_safe", Counter::ClassDegreeSafe),
        ("class_ads_safe", Counter::ClassAdsSafe),
        ("class_unsafe", Counter::ClassUnsafe),
        ("class_noop", Counter::ClassNoop),
        ("ads_changed", Counter::AdsChanged),
        ("bulk_flushes", Counter::BulkFlushes),
    ] {
        t.row(vec![name.to_string(), snap.total(c).to_string()]);
    }
    for su in &st.slowest {
        t.note(format!(
            "slow #{}: {} latency={:?} nodes={}",
            su.index,
            su.describe(),
            su.latency,
            su.nodes
        ));
    }
    t
}
