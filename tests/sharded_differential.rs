//! Sharded-vs-monolithic differential: a [`CsmService`] over a
//! [`ShardedGraph`] (any shard count, hash or range partitioner) must
//! report per-update ΔM **bit-identical** to the same service over the
//! monolithic [`DataGraph`] — routing each half-edge to its owner store
//! is a storage layout, never a semantics change.
//!
//! Streams are seeded and skewed (hub-heavy edge churn plus occasional
//! vertex inserts/deletes), and sessions are chosen so some updates are
//! label-safe for every session while others are unsafe for one of them
//! and enumerate, so label-safe fan-out, enumeration and the vertex
//! cascade are exercised in every cell.

use paracosm::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The per-update facts that must agree bit-for-bit across backends
/// (latency and span ids are timing/identity, not semantics).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Obs {
    index: u64,
    verdict: Option<Classified>,
    noop: bool,
    positives: u64,
    negatives: u64,
    skipped: bool,
}

#[derive(Clone, Default)]
struct Recorder(Arc<Mutex<Vec<Obs>>>);

impl StreamObserver for Recorder {
    fn on_update(&mut self, o: &UpdateObservation) {
        self.0.lock().unwrap().push(Obs {
            index: o.index,
            verdict: o.verdict,
            noop: o.noop,
            positives: o.positives,
            negatives: o.negatives,
            skipped: o.skipped,
        });
    }
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const NV: u32 = 60;

fn base_graph(seed: u64) -> DataGraph {
    let mut g = DataGraph::new();
    let mut rng = Lcg(seed);
    for i in 0..NV {
        g.add_vertex(VLabel(i % 3));
    }
    for _ in 0..120 {
        let (a, b) = (rng.below(NV as u64) as u32, rng.below(NV as u64) as u32);
        if a != b {
            let _ = g.insert_edge(VertexId(a), VertexId(b), ELabel((a + b) % 2));
        }
    }
    g
}

/// A skewed update stream: most edge churn lands on a small hub set, a
/// sprinkling of vertex inserts/deletes breaks batchable runs, and edge
/// labels split between the session-relevant label 0 and the
/// label-safe-everywhere label 1.
fn skewed_stream(seed: u64, len: usize) -> Vec<Update> {
    let mut rng = Lcg(seed ^ 0x9E3779B97F4A7C15);
    let mut out = Vec::with_capacity(len);
    let mut next_vid = NV;
    for _ in 0..len {
        let roll = rng.below(100);
        let hubs = 8;
        let pick = |rng: &mut Lcg| {
            if rng.below(4) < 3 {
                rng.below(hubs) as u32
            } else {
                rng.below(NV as u64) as u32
            }
        };
        let a = pick(&mut rng);
        let b = pick(&mut rng);
        let e = EdgeUpdate::new(VertexId(a), VertexId(b), ELabel((rng.below(2)) as u32));
        out.push(match roll {
            0..=54 => Update::InsertEdge(e),
            55..=89 => Update::DeleteEdge(e),
            90..=95 => {
                next_vid += 1;
                Update::InsertVertex {
                    id: VertexId(next_vid),
                    label: VLabel(next_vid % 3),
                }
            }
            _ => Update::DeleteVertex {
                id: VertexId(rng.below(NV as u64) as u32),
            },
        });
    }
    out
}

fn triangle_query() -> QueryGraph {
    let mut q = QueryGraph::new();
    let u: Vec<_> = (0..3).map(|i| q.add_vertex(VLabel(i % 3))).collect();
    q.add_edge(u[0], u[1], ELabel(0)).unwrap();
    q.add_edge(u[1], u[2], ELabel(0)).unwrap();
    q.add_edge(u[0], u[2], ELabel(0)).unwrap();
    q
}

fn wedge_query() -> QueryGraph {
    let mut q = QueryGraph::new();
    let a = q.add_vertex(VLabel(0));
    let b = q.add_vertex(VLabel(1));
    let c = q.add_vertex(VLabel(2));
    q.add_edge(a, b, ELabel(0)).unwrap();
    q.add_edge(b, c, ELabel(0)).unwrap();
    q
}

/// Register the two standing queries every cell serves (triangle and
/// wedge, both Symbi), returning their observation logs.
fn add_sessions<G: GraphShard>(svc: &mut CsmService<G>) -> Vec<Arc<Mutex<Vec<Obs>>>> {
    let mut logs = Vec::new();
    for (qi, q) in [triangle_query(), wedge_query()].into_iter().enumerate() {
        let rec = Recorder::default();
        logs.push(Arc::clone(&rec.0));
        let algo = Box::new(AlgoKind::Symbi.build(svc.graph(), &q));
        let spec = SessionSpec::new(q, ParaCosmConfig::sequential()).with_label(format!("s{qi}"));
        svc.add_session(spec, algo, Box::new(rec)).unwrap();
    }
    logs
}

/// Run the full multi-session service over `g`, returning per-session
/// observation logs plus the final `(processed, noops, invalid)` and the
/// sorted final edge set.
#[allow(clippy::type_complexity)]
fn run_service<G: GraphShard>(
    g: G,
    stream: &[Update],
) -> (Vec<Vec<Obs>>, (u64, u64, u64), Vec<(u32, u32, u32)>) {
    let mut svc = CsmService::new(g, ServiceConfig::default()).unwrap();
    let logs = add_sessions(&mut svc);
    for &u in stream {
        svc.submit(u).unwrap();
    }
    svc.drain().unwrap();
    let edges: Vec<(u32, u32, u32)> = {
        let g = svc.graph();
        let mut es: Vec<_> = g.edges().map(|(a, b, l)| (a.0, b.0, l.0)).collect();
        es.sort_unstable();
        es
    };
    let report = svc.shutdown().unwrap();
    let logs = logs
        .iter()
        .map(|l| l.lock().unwrap().clone())
        .collect::<Vec<_>>();
    (
        logs,
        (report.processed, report.noops, report.invalid),
        edges,
    )
}

fn differential_cell(shards: usize, partition_by_range: bool, seed: u64) {
    let stream = skewed_stream(seed, 400);
    let (ref_logs, ref_counts, ref_edges) = run_service(base_graph(seed), &stream);

    let cfg = if partition_by_range {
        ShardConfig::range_even(shards, NV * 2)
    } else {
        ShardConfig::hash(shards)
    };
    let sg = ShardedGraph::from_graph(cfg, &base_graph(seed)).unwrap();
    assert_eq!(sg.num_shards(), shards);
    let (logs, counts, edges) = run_service(sg, &stream);

    assert_eq!(counts, ref_counts, "service counters diverged");
    assert_eq!(edges, ref_edges, "final graphs diverged");
    for (s, (log, ref_log)) in logs.iter().zip(&ref_logs).enumerate() {
        assert_eq!(
            log, ref_log,
            "session {s}: per-update \u{394}M diverged (shards={shards}, range={partition_by_range})"
        );
    }
}

#[test]
fn sharded_matches_monolithic_hash_partitioner() {
    for shards in [1, 2, 4, 7] {
        for seed in [1, 42] {
            differential_cell(shards, false, seed);
        }
    }
}

#[test]
fn sharded_matches_monolithic_range_partitioner() {
    for shards in [2, 4, 7] {
        differential_cell(shards, true, 7);
    }
}

/// Pure ingest (no sessions): every update only routes half-edges to
/// their owner stores — the final graph and counters must still match
/// the monolithic run exactly.
#[test]
fn sharded_pure_ingest_batches_whole_stream() {
    let stream = skewed_stream(99, 600);
    let run = |g: DataGraph, sharded: bool| {
        if sharded {
            let sg = ShardedGraph::from_graph(ShardConfig::hash(4), &g).unwrap();
            let mut svc = CsmService::new(sg, ServiceConfig::default()).unwrap();
            for &u in &stream {
                svc.submit(u).unwrap();
            }
            svc.drain().unwrap();
            let mut es: Vec<_> = svc
                .graph()
                .edges()
                .map(|(a, b, l)| (a.0, b.0, l.0))
                .collect();
            es.sort_unstable();
            let r = svc.shutdown().unwrap();
            (es, r.processed, r.noops, r.invalid)
        } else {
            let mut svc = CsmService::new(g, ServiceConfig::default()).unwrap();
            for &u in &stream {
                svc.submit(u).unwrap();
            }
            svc.drain().unwrap();
            let mut es: Vec<_> = svc
                .graph()
                .edges()
                .map(|(a, b, l)| (a.0, b.0, l.0))
                .collect();
            es.sort_unstable();
            let r = svc.shutdown().unwrap();
            (es, r.processed, r.noops, r.invalid)
        }
    };
    let reference = run(base_graph(99), false);
    let sharded = run(base_graph(99), true);
    assert_eq!(sharded, reference);
}

/// The degradation ladder must behave identically over a sharded backend:
/// a budgeted session over a hot stream sees the same enumeration
/// sequence on both backends, so its ladder moves identically.
#[test]
fn sharded_ladder_parity_with_budget() {
    let stream = skewed_stream(5, 300);
    let run = |sharded: bool| {
        let mk = |g: DataGraph| -> Vec<Obs> {
            let q = triangle_query();
            let rec = Recorder::default();
            let log = Arc::clone(&rec.0);
            if sharded {
                let sg = ShardedGraph::from_graph(ShardConfig::hash(3), &g).unwrap();
                let mut svc = CsmService::new(sg, ServiceConfig::default()).unwrap();
                let algo = Box::new(AlgoKind::Symbi.build(svc.graph(), &q));
                let spec = SessionSpec::new(q, ParaCosmConfig::sequential())
                    .with_budget(Duration::from_secs(3600));
                svc.add_session(spec, algo, Box::new(rec)).unwrap();
                for &u in &stream {
                    svc.submit(u).unwrap();
                }
                svc.drain().unwrap();
                svc.shutdown().unwrap();
            } else {
                let mut svc = CsmService::new(g, ServiceConfig::default()).unwrap();
                let algo = Box::new(AlgoKind::Symbi.build(svc.graph(), &q));
                let spec = SessionSpec::new(q, ParaCosmConfig::sequential())
                    .with_budget(Duration::from_secs(3600));
                svc.add_session(spec, algo, Box::new(rec)).unwrap();
                for &u in &stream {
                    svc.submit(u).unwrap();
                }
                svc.drain().unwrap();
                svc.shutdown().unwrap();
            }
            let out = log.lock().unwrap().clone();
            out
        };
        mk(base_graph(5))
    };
    assert_eq!(run(true), run(false));
}

/// One update, one span, on every backend: after `drain()` the flight
/// recorder has minted exactly one span per processed update, and every
/// `Apply` event belongs to an update span (one with an `Admit` event) —
/// no backend applies outside the per-update pipeline.
#[test]
fn one_update_one_span_on_every_backend() {
    fn check<G: GraphShard>(g: G, stream: &[Update], backend: &str) {
        let cfg = ServiceConfig {
            flight_capacity: 1 << 14,
            ..ServiceConfig::default()
        };
        let mut svc = CsmService::new(g, cfg).unwrap();
        add_sessions(&mut svc);
        for &u in stream {
            svc.submit(u).unwrap();
        }
        let n = svc.drain().unwrap();
        assert_eq!(n, stream.len() as u64, "{backend}");
        assert_eq!(
            svc.flight().spans_minted(),
            n,
            "{backend}: one span per processed update"
        );
        let snap = svc.flight().snapshot();
        assert!(snap.dropped.iter().all(|&d| d == 0), "{backend}");
        let events: Vec<&FlightEvent> = snap.shards.iter().flatten().collect();
        let admitted: std::collections::HashSet<SpanId> = events
            .iter()
            .filter(|e| e.stage == FlightStage::Admit)
            .map(|e| e.span)
            .collect();
        let mut applies = 0;
        for e in events.iter().filter(|e| e.stage == FlightStage::Apply) {
            assert!(
                admitted.contains(&e.span),
                "{backend}: apply event {e:?} outside any update span"
            );
            applies += 1;
        }
        assert!(applies > 0, "{backend}: the stream must apply something");
        svc.shutdown().unwrap();
    }
    let seed = 3;
    let stream = skewed_stream(seed, 400);
    check(base_graph(seed), &stream, "mono");
    for (name, cfg) in [
        ("hash/2", ShardConfig::hash(2)),
        ("range/2", ShardConfig::range_even(2, NV * 2)),
    ] {
        let sg = ShardedGraph::from_graph(cfg, &base_graph(seed)).unwrap();
        check(sg, &stream, name);
    }
}
