//! Multi-tenant serving: several standing queries share one evolving
//! graph behind a [`CsmService`]. Each session has its own algorithm,
//! configuration, observer and (optionally) a per-update time budget;
//! the service applies every admitted update to the graph once and fans
//! the classifier + `Find_Matches` out across all sessions.
//!
//! The example registers four tenants, streams edge churn through a
//! bounded admission queue, removes one tenant live (its final report
//! comes back from `remove_session`), and cross-checks one tenant's ΔM
//! against a standalone single-query engine over the same stream.
//!
//! Run with: `cargo run --release --example multi_tenant`

use paracosm::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A per-tenant observer sharing live counters with the main thread —
/// the kind of hook a real deployment would point at its alerting.
struct DeltaWatch {
    delta_m: Arc<AtomicU64>,
    skipped: Arc<AtomicU64>,
}

impl StreamObserver for DeltaWatch {
    fn on_update(&mut self, obs: &UpdateObservation) {
        self.delta_m.fetch_add(obs.delta_m(), Ordering::Relaxed);
        if obs.skipped {
            self.skipped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn triangle() -> QueryGraph {
    let mut q = QueryGraph::new();
    let u: Vec<_> = (0..3).map(|_| q.add_vertex(VLabel(0))).collect();
    q.add_edge(u[0], u[1], ELabel(0)).unwrap();
    q.add_edge(u[1], u[2], ELabel(0)).unwrap();
    q.add_edge(u[0], u[2], ELabel(0)).unwrap();
    q
}

fn wedge() -> QueryGraph {
    let mut q = QueryGraph::new();
    let a = q.add_vertex(VLabel(0));
    let b = q.add_vertex(VLabel(1));
    let c = q.add_vertex(VLabel(0));
    q.add_edge(a, b, ELabel(0)).unwrap();
    q.add_edge(b, c, ELabel(0)).unwrap();
    q
}

fn edge_query() -> QueryGraph {
    let mut q = QueryGraph::new();
    let a = q.add_vertex(VLabel(1));
    let b = q.add_vertex(VLabel(1));
    q.add_edge(a, b, ELabel(0)).unwrap();
    q
}

fn main() {
    // A small two-label graph plus a deterministic churn stream.
    let g = synth::generate(&SynthConfig {
        n_vertices: 300,
        n_edges: 900,
        n_vlabels: 2,
        n_elabels: 1,
        alpha: 0.6,
        seed: 7,
    });
    let n = g.vertex_slots() as u32;
    let mut updates = Vec::new();
    for i in 0..1_500u32 {
        let a = VertexId((i * 37 + 11) % n);
        let b = VertexId((i * 53 + 29) % n);
        if a == b {
            continue;
        }
        if g.has_edge(a, b) || updates.len() % 5 == 4 {
            updates.push(Update::DeleteEdge(EdgeUpdate::new(a, b, ELabel(0))));
        } else {
            updates.push(Update::InsertEdge(EdgeUpdate::new(a, b, ELabel(0))));
        }
    }
    let stream: UpdateStream = updates.into_iter().collect();

    let mut svc = CsmService::new(
        g.clone(),
        ServiceConfig {
            queue_capacity: 256,
            policy: Backpressure::Block,
            flight_capacity: 1024,
        },
    )
    .expect("valid service config");

    // Tenant 1: triangles via GraphFlow, with a live ΔM watch.
    let tri_delta = Arc::new(AtomicU64::new(0));
    let tri = svc
        .add_session(
            SessionSpec::new(triangle(), ParaCosmConfig::sequential()).with_label("triangles"),
            Box::new(AlgoKind::GraphFlow.build(&g, &triangle())),
            Box::new(DeltaWatch {
                delta_m: Arc::clone(&tri_delta),
                skipped: Arc::new(AtomicU64::new(0)),
            }),
        )
        .expect("register triangles");

    // Tenant 2: label-crossing wedges via Symbi.
    let _wedges = svc
        .add_session(
            SessionSpec::new(wedge(), ParaCosmConfig::sequential()).with_label("wedges"),
            Box::new(AlgoKind::Symbi.build(&g, &wedge())),
            Box::new(NoopObserver),
        )
        .expect("register wedges");

    // Tenant 3: same-label edges via TurboFlux — removed mid-stream.
    let edges = svc
        .add_session(
            SessionSpec::new(edge_query(), ParaCosmConfig::sequential()).with_label("edges"),
            Box::new(AlgoKind::TurboFlux.build(&g, &edge_query())),
            Box::new(NoopObserver),
        )
        .expect("register edges");

    // Tenant 4: triangles again, but with an absurdly tight per-update
    // budget — the degradation ladder steps it down to count-only and
    // then skipped, which its observer sees as `skipped` flags.
    let tight_skipped = Arc::new(AtomicU64::new(0));
    let tight = svc
        .add_session(
            SessionSpec::new(triangle(), ParaCosmConfig::sequential())
                .with_label("tight-budget")
                .with_budget(Duration::from_nanos(1)),
            Box::new(AlgoKind::GraphFlow.build(&g, &triangle())),
            Box::new(DeltaWatch {
                delta_m: Arc::new(AtomicU64::new(0)),
                skipped: Arc::clone(&tight_skipped),
            }),
        )
        .expect("register tight-budget");

    println!(
        "serving {} sessions over |V|={} |E|={}",
        svc.session_count(),
        g.num_vertices(),
        g.num_edges()
    );

    // Stream the first half, then deregister the edges tenant live: the
    // service drains in-flight updates first, so the departing tenant's
    // report covers everything admitted while it was registered.
    let half = stream.len() / 2;
    for &u in &stream.updates()[..half] {
        svc.submit(u).expect("admission");
    }
    let edge_report = svc.remove_session(edges).expect("edges session is live");
    let edims = edge_report.session.as_ref().unwrap();
    println!(
        "tenant {} [{}] left after {} updates: +{} -{}",
        edims.session_id,
        edims.label,
        edge_report.stats.updates,
        edge_report.stats.positives,
        edge_report.stats.negatives
    );

    for &u in &stream.updates()[half..] {
        svc.submit(u).expect("admission");
    }
    let report = svc.shutdown().expect("drains cleanly");

    println!(
        "\nservice: admitted={} processed={} noops={} invalid={} in {:?}",
        report.admitted, report.processed, report.noops, report.invalid, report.elapsed
    );
    for r in &report.sessions {
        let dims = r.session.as_ref().unwrap();
        println!(
            "tenant {} [{:>12}] algo={:>9}: +{:<6} -{:<6} verdicts: {}",
            dims.session_id,
            dims.label,
            r.algo,
            r.stats.positives,
            r.stats.negatives,
            r.stats.classifier.verdict_mix()
        );
        if dims.session_id == tight {
            println!(
                "   degradation: overruns={} degraded={} skipped={} (observer saw {} skips)",
                dims.budget_overruns,
                dims.degraded,
                dims.skipped,
                tight_skipped.load(Ordering::Relaxed)
            );
        }
    }

    // Cross-check: the triangles tenant's ΔM must match a standalone
    // single-query engine fed the same stream (classifiers prune work,
    // never results).
    let mut solo = ParaCosm::new(
        g.clone(),
        triangle(),
        AlgoKind::GraphFlow.build(&g, &triangle()),
        ParaCosmConfig::sequential(),
    );
    let solo_out = solo.process_stream(&stream).expect("valid stream");
    let tri_report = report
        .sessions
        .iter()
        .find(|r| r.session.as_ref().unwrap().session_id == tri)
        .unwrap();
    assert_eq!(tri_report.stats.positives, solo_out.positives);
    assert_eq!(tri_report.stats.negatives, solo_out.negatives);
    assert_eq!(
        tri_delta.load(Ordering::Relaxed),
        solo_out.positives + solo_out.negatives
    );
    println!(
        "\naudit: triangles tenant matches standalone run (+{} -{})",
        solo_out.positives, solo_out.negatives
    );
}
