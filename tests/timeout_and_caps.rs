//! Time-limit (success-rate) and match-cap semantics.

use csm_graph::{
    DataGraph, ELabel, EdgeUpdate, QueryGraph, Update, UpdateStream, VLabel, VertexId,
};
use paracosm::algos::{AlgoKind, AnyAlgorithm};
use paracosm::core::{ParaCosm, ParaCosmConfig};
use std::time::Duration;

/// A dense unlabeled graph where a 5-cycle query explodes combinatorially.
fn explosive() -> (DataGraph, QueryGraph, UpdateStream) {
    let mut g = DataGraph::new();
    let n = 64u32;
    for _ in 0..n {
        g.add_vertex(VLabel(0));
    }
    for i in 0..n {
        for j in i + 1..n {
            // Keep ~2/3 of all pairs; unlike a parity split this stays one
            // dense component, so cycles through any edge abound.
            if (i + j) % 3 != 0 {
                g.insert_edge(VertexId(i), VertexId(j), ELabel(0)).unwrap();
            }
        }
    }
    let mut q = QueryGraph::new();
    let us: Vec<_> = (0..5).map(|_| q.add_vertex(VLabel(0))).collect();
    for i in 0..5 {
        q.add_edge(us[i], us[(i + 1) % 5], ELabel(0)).unwrap();
    }
    // One update that triggers a huge enumeration.
    let stream: UpdateStream = vec![Update::InsertEdge(EdgeUpdate::new(
        VertexId(0),
        VertexId(1),
        ELabel(0),
    ))]
    .into_iter()
    .collect();
    // Ensure the edge is absent initially.
    let _ = g.remove_edge(VertexId(0), VertexId(1));
    (g, q, stream)
}

#[test]
fn tiny_time_limit_times_out_sequential_and_parallel() {
    // A zero limit is rejected at construction since the config taxonomy
    // landed ([`ParaCosmConfig::validate`]); 1 ns is the smallest budget
    // that validates, and it still expires before any enumeration work.
    assert!(ParaCosmConfig::sequential()
        .with_time_limit(Duration::ZERO)
        .validate()
        .is_err());
    let (g, q, stream) = explosive();
    for cfg in [
        ParaCosmConfig::sequential().with_time_limit(Duration::from_nanos(1)),
        ParaCosmConfig::parallel(4).with_time_limit(Duration::from_nanos(1)),
        ParaCosmConfig::simulated(8).with_time_limit(Duration::from_nanos(1)),
    ] {
        let algo = AlgoKind::GraphFlow.build(&g, &q);
        let mut e: ParaCosm<AnyAlgorithm> = ParaCosm::new(g.clone(), q.clone(), algo, cfg);
        let out = e.process_stream(&stream).unwrap();
        assert!(out.timed_out, "expected timeout");
    }
}

#[test]
fn generous_time_limit_succeeds() {
    let (g, q, stream) = explosive();
    let algo = AlgoKind::NewSP.build(&g, &q);
    let cfg = ParaCosmConfig::sequential().with_time_limit(Duration::from_secs(120));
    let mut e: ParaCosm<AnyAlgorithm> = ParaCosm::new(g, q, algo, cfg);
    let out = e.process_stream(&stream).unwrap();
    assert!(!out.timed_out);
    assert!(out.positives > 1000, "dense graph must fan out");
}

#[test]
fn match_cap_bounds_enumeration() {
    let (g, q, stream) = explosive();
    let mut cfg = ParaCosmConfig::sequential();
    cfg.match_cap = Some(100);
    let algo = AlgoKind::GraphFlow.build(&g, &q);
    let mut e: ParaCosm<AnyAlgorithm> = ParaCosm::new(g.clone(), q.clone(), algo, cfg);
    let out = e.process_stream(&stream).unwrap();
    assert_eq!(out.positives, 100);

    // Workers reserve against the shared cap before counting, so the
    // parallel cap is exact too.
    let mut cfg = ParaCosmConfig::parallel(4);
    cfg.match_cap = Some(100);
    cfg.inter_update = false;
    let algo = AlgoKind::GraphFlow.build(&g, &q);
    let mut e: ParaCosm<AnyAlgorithm> = ParaCosm::new(g, q, algo, cfg);
    let out = e.process_stream(&stream).unwrap();
    assert_eq!(out.positives, 100, "got {}", out.positives);
}

#[test]
fn timeout_flag_propagates_from_stats() {
    let (g, q, stream) = explosive();
    let algo = AlgoKind::Symbi.build(&g, &q);
    let cfg = ParaCosmConfig::sequential().with_time_limit(Duration::from_nanos(1));
    let mut e: ParaCosm<AnyAlgorithm> = ParaCosm::new(g, q, algo, cfg);
    let out = e.process_stream(&stream).unwrap();
    assert!(out.timed_out);
    assert!(out.updates_applied <= 1);
}

/// A star's last two leaves share no query edge, so a counting run counts
/// them together and the inner executor keeps their tasks as leaves: the
/// 4-star's seeds are leaves already, the 5-star's are expanded once. The
/// counts equal a streamed sequential run, and the shared cap stays exact
/// with 2 threads.
#[test]
fn star_tails_count_exactly_under_a_parallel_cap() {
    let (g, _, stream) = explosive();
    for leaves in [3u8, 4] {
        let mut q = QueryGraph::new();
        let centre = q.add_vertex(VLabel(0));
        for _ in 0..leaves {
            let leaf = q.add_vertex(VLabel(0));
            q.add_edge(centre, leaf, ELabel(0)).unwrap();
        }
        let run = |cfg: ParaCosmConfig| {
            let algo = AlgoKind::GraphFlow.build(&g, &q);
            let mut e: ParaCosm<AnyAlgorithm> = ParaCosm::new(g.clone(), q.clone(), algo, cfg);
            e.process_stream(&stream).unwrap().positives
        };
        let streamed = run(ParaCosmConfig::sequential().collecting());
        assert!(streamed > 100, "{leaves} leaves: {streamed}");
        let mut cfg = ParaCosmConfig::sequential().with_threads(2);
        cfg.split_depth = 4;
        assert_eq!(run(cfg.clone()), streamed, "{leaves} leaves");
        cfg.match_cap = Some(100);
        assert_eq!(run(cfg), 100, "{leaves} leaves");
    }
}
