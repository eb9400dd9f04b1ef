//! Counter-registry correctness: real inner-executor runs at
//! `TraceLevel::Counters` over several widths and both executors, with
//! every registry total checked against the `RunStats` the engine reports
//! through its ordinary accounting. Also covers the classifier-consistency
//! invariant after a batched `process_stream` run and the run report's
//! JSON surface, traced and untraced.

use paracosm::algos::AlgoKind;
use paracosm::core::{Counter, ParaCosm, ParaCosmConfig, TraceLevel};
use paracosm::graph::{
    DataGraph, ELabel, EdgeUpdate, QueryGraph, Update, UpdateStream, VLabel, VertexId,
};

fn triangle_query() -> QueryGraph {
    let mut q = QueryGraph::new();
    let u: Vec<_> = (0..3).map(|_| q.add_vertex(VLabel(0))).collect();
    q.add_edge(u[0], u[1], ELabel(0)).unwrap();
    q.add_edge(u[1], u[2], ELabel(0)).unwrap();
    q.add_edge(u[0], u[2], ELabel(0)).unwrap();
    q
}

/// Single-label ring + chords: every streamed chord closes triangles, so
/// the inner executor gets real multi-seed work on every update.
fn dense_setup() -> (DataGraph, UpdateStream) {
    let n = 24u32;
    let mut g = DataGraph::new();
    for _ in 0..n {
        g.add_vertex(VLabel(0));
    }
    let mut ring = Vec::new();
    let mut chords = Vec::new();
    for i in 0..n {
        ring.push((i, (i + 1) % n));
        chords.push((i, (i + 2) % n));
    }
    for &(a, b) in &ring {
        g.insert_edge(VertexId(a), VertexId(b), ELabel(0)).unwrap();
    }
    let stream: UpdateStream = chords
        .iter()
        .map(|&(a, b)| Update::InsertEdge(EdgeUpdate::new(VertexId(a), VertexId(b), ELabel(0))))
        .collect();
    (g, stream)
}

/// The registry mirrors `RunStats` at every width, on the inner-only
/// per-update path and through the batched inter-update executor.
#[test]
fn registry_mirrors_run_stats() {
    for threads in [1, 2, 4] {
        for inter_update in [false, true] {
            let ctx = format!("threads={threads} inter_update={inter_update}");
            let (g, stream) = dense_setup();
            let q = triangle_query();
            let algo = AlgoKind::GraphFlow.build(&g, &q);
            let mut cfg = ParaCosmConfig::parallel(threads)
                .with_batch_size(8)
                .tracing(TraceLevel::Counters);
            cfg.inter_update = inter_update;
            let mut e = ParaCosm::new(g, q, algo, cfg);
            let out = e.process_stream(&stream).unwrap();
            assert!(out.positives > 0, "{ctx}: setup must produce matches");

            let snap = e.tracer().metrics();
            let st = e.stats();
            assert_eq!(snap.per_shard.len(), threads + 1, "{ctx}");
            assert_eq!(snap.total(Counter::TasksPopped), st.tasks_executed, "{ctx}");
            assert_eq!(
                snap.total(Counter::TasksCompleted),
                st.tasks_executed,
                "{ctx}"
            );
            assert_eq!(snap.total(Counter::TasksSplit), st.tasks_split, "{ctx}");
            assert_eq!(snap.total(Counter::Nodes), st.nodes, "{ctx}");
            assert_eq!(snap.total(Counter::Updates), st.updates, "{ctx}");
            assert_eq!(snap.total(Counter::MatchesPos), st.positives, "{ctx}");
            assert_eq!(snap.total(Counter::MatchesNeg), st.negatives, "{ctx}");
            assert_eq!(snap.total(Counter::DeadlineFires), 0, "{ctx}");
        }
    }
}

#[test]
fn batched_run_keeps_classifier_consistent() {
    let (g, stream) = dense_setup();
    let q = triangle_query();
    // Duplicate a prefix of the stream so the batch executor sees real
    // structural no-ops alongside safe and unsafe updates.
    let mut updates: Vec<Update> = stream.updates().to_vec();
    let dup: Vec<Update> = updates.iter().take(4).copied().collect();
    updates.extend(dup);
    let stream: UpdateStream = updates.into_iter().collect();

    let algo = AlgoKind::GraphFlow.build(&g, &q);
    let cfg = ParaCosmConfig::parallel(2)
        .with_batch_size(8)
        .tracing(TraceLevel::Counters);
    let mut e = ParaCosm::new(g, q, algo, cfg);
    e.process_stream(&stream).unwrap();

    let c = &e.stats().classifier;
    assert!(c.is_consistent(), "stage counts must add up: {c:?}");
    assert_eq!(
        c.total,
        e.stats().updates,
        "every update gets exactly one verdict in a batched run"
    );
    assert!(c.noops >= 4, "duplicated prefix must surface as no-ops");

    let snap = e.tracer().metrics();
    assert_eq!(
        snap.total(Counter::ClassLabelSafe)
            + snap.total(Counter::ClassDegreeSafe)
            + snap.total(Counter::ClassAdsSafe)
            + snap.total(Counter::ClassUnsafe)
            + snap.total(Counter::ClassNoop),
        c.total,
        "registry mirrors ClassifierStats"
    );
    assert_eq!(snap.total(Counter::Updates), e.stats().updates);
}

#[test]
fn exporters_emit_loadable_output() {
    let (g, stream) = dense_setup();
    let q = triangle_query();
    let algo = AlgoKind::GraphFlow.build(&g, &q);
    let cfg = ParaCosmConfig::parallel(2)
        .with_batch_size(8)
        .tracing(TraceLevel::Counters)
        .with_slow_k(3);
    let mut e = ParaCosm::new(g, q, algo, cfg);
    let out = e.process_stream(&stream).unwrap();

    let report = e.run_report(Some(out)).to_json();
    for key in [
        "\"schema_version\"",
        "\"outcome\"",
        "\"stats\"",
        "\"classifier\"",
        "\"latency\"",
        "\"slowest\"",
        "\"metrics\"",
        "\"per_shard\"",
    ] {
        assert!(report.contains(key), "report missing {key}");
    }
    assert_eq!(report.matches('{').count(), report.matches('}').count());
    assert!(!e.stats().slowest.is_empty(), "slow-K capture must engage");
    assert!(
        e.stats()
            .slowest
            .windows(2)
            .all(|w| w[0].latency >= w[1].latency),
        "slowest list is latency-descending"
    );
}

/// An untraced run reports `"metrics":null` rather than a zero block
/// contradicting its own stats; a traced one reports counters that agree
/// with them.
#[test]
fn report_metrics_are_null_when_untraced() {
    for level in [TraceLevel::Off, TraceLevel::Counters] {
        let (g, stream) = dense_setup();
        let q = triangle_query();
        let algo = AlgoKind::GraphFlow.build(&g, &q);
        let cfg = ParaCosmConfig::parallel(2)
            .with_batch_size(8)
            .tracing(level);
        let mut e = ParaCosm::new(g, q, algo, cfg);
        let out = e.process_stream(&stream).unwrap();
        let report = e.run_report(Some(out)).to_json();
        let updates = e.stats().updates;
        assert!(updates > 0);
        assert!(report.contains(&format!("\"stats\":{{\"updates\":{updates},")));
        let metrics = if level == TraceLevel::Off {
            "\"metrics\":null".to_string()
        } else {
            format!("\"metrics\":{{\"counters\":{{\"updates\":{updates},")
        };
        assert!(report.contains(&metrics), "{report}");
        assert!(!report.contains("\"dropped_events\""), "{report}");
        assert!(!report.contains("\"gauges\""), "{report}");
    }
}
