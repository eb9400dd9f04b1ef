//! Parallel configurations must be result-equivalent to the sequential
//! baseline: real threads (inner executor), virtual workers (simulated
//! scheduler), batch executor, and every tuning knob in between — and so
//! must the sink: a collecting run and a counting run (which takes the
//! kernel's bulk last-level count where it can) see the same ΔM.

use paracosm::algos::{testing, AlgoKind};
use paracosm::core::{ParaCosmConfig, ProfileCounter};
use paracosm::prelude::{
    CsmService, GraphShard, ProfileLevel, QueryGraph, ServiceConfig, SessionSpec, ShardConfig,
    ShardedGraph, StreamObserver, UpdateObservation, UpdateStream,
};
use std::sync::{Arc, Mutex};

fn workload() -> (
    csm_graph::DataGraph,
    csm_graph::UpdateStream,
    csm_graph::QueryGraph,
) {
    let (g, stream) = testing::random_workload(31, 45, 3, 1, 110, 60, 0.25);
    let q = testing::random_walk_query(&g, 32, 5).expect("query");
    (g, stream, q)
}

#[test]
fn real_threads_match_sequential_per_update() {
    let (g, stream, q) = workload();
    for kind in AlgoKind::ALL {
        let mut cfg = ParaCosmConfig::parallel(4);
        cfg.inter_update = false;
        testing::check_stream(&g, &q, &stream, kind, cfg);
    }
}

#[test]
fn simulated_workers_match_sequential_per_update() {
    let (g, stream, q) = workload();
    for kind in [AlgoKind::GraphFlow, AlgoKind::Symbi, AlgoKind::CaLiG] {
        let mut cfg = ParaCosmConfig::simulated(32);
        cfg.inter_update = false;
        testing::check_stream(&g, &q, &stream, kind, cfg);
    }
}

#[test]
fn batch_executor_matches_sequential_totals() {
    let (g, stream, q) = workload();
    for kind in AlgoKind::ALL {
        for batch in [1, 3, 17, 4096] {
            let cfg = ParaCosmConfig::parallel(4).with_batch_size(batch);
            testing::check_stream_totals(&g, &q, &stream, kind, cfg);
        }
    }
}

#[test]
fn load_balance_off_is_still_exact() {
    let (g, stream, q) = workload();
    let mut cfg = ParaCosmConfig::parallel(4);
    cfg.load_balance = false;
    testing::check_stream_totals(&g, &q, &stream, AlgoKind::TurboFlux, cfg);
}

#[test]
fn split_depth_extremes_are_exact() {
    let (g, stream, q) = workload();
    for split_depth in [0, 1, 16] {
        let mut cfg = ParaCosmConfig::parallel(3);
        cfg.split_depth = split_depth;
        cfg.inter_update = false;
        testing::check_stream_totals(&g, &q, &stream, AlgoKind::NewSP, cfg);
    }
}

#[test]
fn seed_task_factor_extremes_are_exact() {
    let (g, stream, q) = workload();
    for factor in [1, 64] {
        let mut cfg = ParaCosmConfig::parallel(2);
        cfg.seed_task_factor = factor;
        cfg.inter_update = false;
        testing::check_stream_totals(&g, &q, &stream, AlgoKind::GraphFlow, cfg);
    }
}

/// Per-update `(index, positives, negatives)`.
#[derive(Clone, Default)]
struct DeltaLog(Arc<Mutex<Vec<(u64, u64, u64)>>>);

impl StreamObserver for DeltaLog {
    fn on_update(&mut self, o: &UpdateObservation) {
        self.0
            .lock()
            .unwrap()
            .push((o.index, o.positives, o.negatives));
    }
}

/// One profiled session of `kind` over `g`: its per-update ΔM and its
/// `Extensions` total per order depth.
fn sink_run<G: GraphShard>(
    g: G,
    q: &QueryGraph,
    stream: &UpdateStream,
    kind: AlgoKind,
    threads: usize,
    collect: bool,
) -> (Vec<(u64, u64, u64)>, Vec<u64>) {
    let mut svc = CsmService::new(g, ServiceConfig::default()).unwrap();
    let algo = Box::new(kind.build(svc.graph(), q));
    let mut cfg = ParaCosmConfig::sequential()
        .with_threads(threads)
        .profiled(ProfileLevel::Counters);
    if collect {
        cfg = cfg.collecting();
    }
    let log = DeltaLog::default();
    let spec = SessionSpec::new(q.clone(), cfg);
    svc.add_session(spec, algo, Box::new(log.clone())).unwrap();
    for &u in stream.updates() {
        svc.submit(u).unwrap();
    }
    svc.drain().unwrap();
    let profile = svc.shutdown().unwrap().sessions.remove(0).profile;
    let mut extensions = vec![0; q.num_vertices()];
    for o in &profile.expect("profiled session has a grid").orders {
        for d in &o.depths {
            extensions[d.depth] += d.get(ProfileCounter::Extensions);
        }
    }
    let deltas = log.0.lock().unwrap().clone();
    (deltas, extensions)
}

/// The sink axis: for every algorithm, thread count and graph backend, a
/// collecting run and a counting run report the same per-update ΔM and
/// the same per-depth extension totals. One vertex and one edge label on a
/// dense graph put already-mapped vertices into last-level slices, so the
/// bulk count's injectivity correction is exercised.
#[test]
fn collecting_and_counting_sinks_agree_on_every_backend() {
    let (g, stream) = testing::random_workload(51, 30, 1, 1, 110, 60, 0.3);
    let q = testing::random_walk_query(&g, 52, 5).expect("query");
    for kind in AlgoKind::ALL {
        for threads in [1, 2, 4] {
            for sharded in [false, true] {
                let run = |collect: bool| {
                    if sharded {
                        let sg = ShardedGraph::from_graph(ShardConfig::hash(2), &g).unwrap();
                        sink_run(sg, &q, &stream, kind, threads, collect)
                    } else {
                        sink_run(g.clone(), &q, &stream, kind, threads, collect)
                    }
                };
                let (counted, collected) = (run(false), run(true));
                let cell = format!("{kind} threads={threads} sharded={sharded}");
                assert_eq!(counted.0, collected.0, "{cell}: per-update ΔM");
                assert_eq!(counted.1, collected.1, "{cell}: per-depth extensions");
                let total: u64 = counted.0.iter().map(|&(_, p, n)| p + n).sum();
                assert!(total > 0, "{cell}: workload must produce matches");
            }
        }
    }
}

#[test]
fn high_thread_counts_are_exact_on_small_work() {
    // More threads than tasks: termination and counting must still hold.
    let (g, stream) = testing::random_workload(41, 20, 2, 1, 30, 20, 0.0);
    let q = testing::random_walk_query(&g, 42, 3).expect("query");
    let mut cfg = ParaCosmConfig::parallel(16);
    cfg.inter_update = false;
    testing::check_stream(&g, &q, &stream, AlgoKind::Symbi, cfg);
}
