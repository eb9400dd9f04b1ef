//! Serving-layer integration tests: per-session ΔM fidelity against
//! standalone runs, observable backpressure, live session removal,
//! shutdown draining, and the degradation ladder.

use paracosm::algos::testing;
use paracosm::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Shared-counter observer: lets the test read a session's live ΔM and
/// skip flags from outside the service.
struct Watch {
    delta_m: Arc<AtomicU64>,
    skipped: Arc<AtomicU64>,
}

impl Watch {
    fn new() -> (Watch, Arc<AtomicU64>, Arc<AtomicU64>) {
        let delta_m = Arc::new(AtomicU64::new(0));
        let skipped = Arc::new(AtomicU64::new(0));
        (
            Watch {
                delta_m: Arc::clone(&delta_m),
                skipped: Arc::clone(&skipped),
            },
            delta_m,
            skipped,
        )
    }
}

impl StreamObserver for Watch {
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

fn path3(l0: u32, l1: u32, l2: u32) -> QueryGraph {
    let mut q = QueryGraph::new();
    let a = q.add_vertex(VLabel(l0));
    let b = q.add_vertex(VLabel(l1));
    let c = q.add_vertex(VLabel(l2));
    q.add_edge(a, b, ELabel(0)).unwrap();
    q.add_edge(b, c, ELabel(0)).unwrap();
    q
}

fn dense_workload(seed: u64) -> (DataGraph, UpdateStream) {
    testing::random_workload(seed, 24, 2, 1, 40, 60, 0.3)
}

/// The acceptance criterion: four concurrent sessions — different queries
/// and algorithms over one shared graph — each produce per-session ΔM
/// identical to a standalone single-query engine fed the same stream.
#[test]
fn four_sessions_match_standalone_runs() {
    let (g, stream) = dense_workload(11);
    let tenants: Vec<(QueryGraph, AlgoKind, &str)> = vec![
        (triangle(), AlgoKind::GraphFlow, "triangles"),
        (path3(0, 1, 0), AlgoKind::Symbi, "wedge-010"),
        (path3(1, 0, 1), AlgoKind::TurboFlux, "wedge-101"),
        (path3(0, 0, 1), AlgoKind::NewSP, "path-001"),
    ];

    let mut svc = CsmService::new(g.clone(), ServiceConfig::default()).unwrap();
    let mut watches = Vec::new();
    for (q, kind, label) in &tenants {
        let (watch, delta, _) = Watch::new();
        let id = svc
            .add_session(
                SessionSpec::new(q.clone(), ParaCosmConfig::sequential()).with_label(*label),
                Box::new(kind.build(&g, q)),
                Box::new(watch),
            )
            .unwrap();
        watches.push((id, delta));
    }
    for &u in stream.updates() {
        svc.submit(u).unwrap();
    }
    let report = svc.shutdown().unwrap();
    assert_eq!(report.processed, stream.len() as u64);
    assert_eq!(report.sessions.len(), 4);

    for (i, (q, kind, label)) in tenants.iter().enumerate() {
        let mut solo = ParaCosm::new(
            g.clone(),
            q.clone(),
            kind.build(&g, q),
            ParaCosmConfig::sequential(),
        );
        let solo_out = solo.process_stream(&stream).unwrap();
        let served = &report.sessions[i];
        let dims = served.session.as_ref().unwrap();
        assert_eq!(dims.label, *label);
        assert_eq!(
            served.stats.positives, solo_out.positives,
            "session {label}: positives diverge from standalone"
        );
        assert_eq!(
            served.stats.negatives, solo_out.negatives,
            "session {label}: negatives diverge from standalone"
        );
        assert_eq!(served.stats.updates, stream.len() as u64);
        assert!(
            served.stats.classifier.is_consistent(),
            "session {label}: verdicts must add up"
        );
        let (_, delta) = &watches[i];
        assert_eq!(
            delta.load(Ordering::Relaxed),
            solo_out.positives + solo_out.negatives,
            "session {label}: observer ΔM diverges"
        );
    }
}

/// Shed-oldest backpressure is observable: counters in the final
/// [`ServiceReport`] account for every admitted update, and only the
/// surviving (freshest) updates reach the sessions.
#[test]
fn shed_oldest_policy_is_observable_in_report() {
    let (g, stream) = dense_workload(23);
    let mut svc = CsmService::new(
        g.clone(),
        ServiceConfig {
            queue_capacity: 4,
            policy: Backpressure::ShedOldest,
            flight_capacity: 1024,
        },
    )
    .unwrap();
    svc.add_session(
        SessionSpec::new(triangle(), ParaCosmConfig::sequential()),
        Box::new(AlgoKind::GraphFlow.build(&g, &triangle())),
        Box::new(NoopObserver),
    )
    .unwrap();

    // No draining between submits: everything past the first 4 sheds.
    let sent = 10u64;
    for &u in &stream.updates()[..sent as usize] {
        svc.submit(u).unwrap();
    }
    let report = svc.shutdown().unwrap();
    assert_eq!(report.admitted, sent);
    assert_eq!(report.shed, sent - 4);
    assert_eq!(report.processed, 4);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.sessions[0].stats.updates, 4);
    let json = report.to_json();
    assert!(json.contains("\"policy\":\"shed-oldest\""));
    assert!(json.contains(&format!("\"shed\":{}", sent - 4)));
}

/// Reject backpressure surfaces as `CsmError::Backpressure` to the
/// producer and as a rejected-count in the report; the service keeps
/// serving afterwards.
#[test]
fn reject_policy_is_observable_and_survivable() {
    let (g, stream) = dense_workload(37);
    let mut svc = CsmService::new(
        g.clone(),
        ServiceConfig {
            queue_capacity: 4,
            policy: Backpressure::Reject,
            flight_capacity: 1024,
        },
    )
    .unwrap();
    svc.add_session(
        SessionSpec::new(triangle(), ParaCosmConfig::sequential()),
        Box::new(AlgoKind::GraphFlow.build(&g, &triangle())),
        Box::new(NoopObserver),
    )
    .unwrap();

    let mut refused = 0u64;
    for &u in &stream.updates()[..10] {
        match svc.submit(u) {
            Ok(()) => {}
            Err(CsmError::Backpressure { capacity }) => {
                assert_eq!(capacity, 4);
                refused += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(refused, 6);
    // Draining frees capacity; subsequent submits are admitted again.
    svc.drain().unwrap();
    svc.submit(stream.updates()[10]).unwrap();
    let report = svc.shutdown().unwrap();
    assert_eq!(report.admitted, 5);
    assert_eq!(report.rejected, 6);
    assert_eq!(report.processed, 5);
    assert!(report.to_json().contains("\"rejected\":6"));
}

/// Live removal drains in-flight work first, returns the departing
/// session's tagged report, and leaves the remaining sessions serving.
#[test]
fn live_removal_drains_and_reports() {
    let (g, stream) = dense_workload(41);
    let mut svc = CsmService::new(g.clone(), ServiceConfig::default()).unwrap();
    let stay = svc
        .add_session(
            SessionSpec::new(triangle(), ParaCosmConfig::sequential()).with_label("stay"),
            Box::new(AlgoKind::GraphFlow.build(&g, &triangle())),
            Box::new(NoopObserver),
        )
        .unwrap();
    let leave = svc
        .add_session(
            SessionSpec::new(path3(0, 1, 0), ParaCosmConfig::sequential()).with_label("leave"),
            Box::new(AlgoKind::Symbi.build(&g, &path3(0, 1, 0))),
            Box::new(NoopObserver),
        )
        .unwrap();
    assert_eq!(svc.session_count(), 2);

    // Enqueue without draining, then remove: the departing session must
    // still observe the in-flight updates (remove drains first).
    let half = 20;
    for &u in &stream.updates()[..half] {
        svc.submit(u).unwrap();
    }
    let left = svc.remove_session(leave).unwrap();
    assert_eq!(left.stats.updates, half as u64);
    assert_eq!(left.session.as_ref().unwrap().label, "leave");
    assert_eq!(svc.session_count(), 1);

    // Removing again is an error, not a panic.
    assert!(matches!(
        svc.remove_session(leave),
        Err(CsmError::SessionNotFound(id)) if id == leave
    ));

    for &u in &stream.updates()[half..] {
        svc.submit(u).unwrap();
    }
    let report = svc.shutdown().unwrap();
    assert_eq!(report.sessions.len(), 1);
    let kept = &report.sessions[0];
    assert_eq!(kept.session.as_ref().unwrap().session_id, stay);
    assert_eq!(kept.stats.updates, stream.len() as u64);

    // The survivor's ΔM still matches a standalone run of the full stream.
    let mut solo = ParaCosm::new(
        g.clone(),
        triangle(),
        AlgoKind::GraphFlow.build(&g, &triangle()),
        ParaCosmConfig::sequential(),
    );
    let solo_out = solo.process_stream(&stream).unwrap();
    assert_eq!(kept.stats.positives, solo_out.positives);
    assert_eq!(kept.stats.negatives, solo_out.negatives);
}

/// An impossible per-update budget walks the ladder down to `Skipped`;
/// the observer sees `skipped` flags (ΔM unknown, not zero) and the
/// session dimensions surface overruns/degraded/skipped in the report.
#[test]
fn tight_budget_degrades_and_is_surfaced() {
    let (g, stream) = dense_workload(53);
    let mut svc = CsmService::new(g.clone(), ServiceConfig::default()).unwrap();
    let (watch, _, skipped) = Watch::new();
    let id = svc
        .add_session(
            SessionSpec::new(triangle(), ParaCosmConfig::sequential())
                .with_label("tight")
                .with_budget(Duration::from_nanos(1)),
            Box::new(AlgoKind::GraphFlow.build(&g, &triangle())),
            Box::new(watch),
        )
        .unwrap();
    for &u in stream.updates() {
        svc.submit(u).unwrap();
    }
    assert_eq!(svc.session_level(id).unwrap(), DegradeLevel::Full);
    svc.drain().unwrap();
    assert_eq!(
        svc.session_level(id).unwrap(),
        DegradeLevel::Skipped,
        "a 1ns budget must walk the ladder all the way down"
    );
    let report = svc.shutdown().unwrap();
    let dims = report.sessions[0].session.as_ref().unwrap();
    assert!(
        dims.budget_overruns >= 2,
        "overruns: {}",
        dims.budget_overruns
    );
    assert!(dims.degraded >= 1, "count-only rung must have engaged");
    assert!(dims.skipped >= 1, "skipped rung must have engaged");
    assert_eq!(
        skipped.load(Ordering::Relaxed),
        dims.skipped,
        "observer and report disagree on skips"
    );
    let json = report.sessions[0].to_json();
    assert!(json.contains("\"session\""));
    assert!(json.contains(&format!("\"skipped\":{}", dims.skipped)));
}

/// A generous budget never degrades: every update is served at `Full`
/// fidelity and the report carries zeroed degradation dimensions.
#[test]
fn generous_budget_never_degrades() {
    let (g, stream) = dense_workload(61);
    let mut svc = CsmService::new(g.clone(), ServiceConfig::default()).unwrap();
    let id = svc
        .add_session(
            SessionSpec::new(triangle(), ParaCosmConfig::sequential())
                .with_budget(Duration::from_secs(3600)),
            Box::new(AlgoKind::GraphFlow.build(&g, &triangle())),
            Box::new(NoopObserver),
        )
        .unwrap();
    for &u in stream.updates() {
        svc.submit(u).unwrap();
    }
    svc.drain().unwrap();
    assert_eq!(svc.session_level(id).unwrap(), DegradeLevel::Full);
    let report = svc.shutdown().unwrap();
    let dims = report.sessions[0].session.as_ref().unwrap();
    assert_eq!(dims.budget_overruns, 0);
    assert_eq!(dims.degraded, 0);
    assert_eq!(dims.skipped, 0);
}

/// Shutdown closes the queue: a still-held ingest handle gets
/// `ServiceClosed`, and registration on a closed service fails the same
/// way.
#[test]
fn shutdown_closes_ingest() {
    let (g, stream) = dense_workload(71);
    let mut svc = CsmService::new(g.clone(), ServiceConfig::default()).unwrap();
    svc.add_session(
        SessionSpec::new(triangle(), ParaCosmConfig::sequential()),
        Box::new(AlgoKind::GraphFlow.build(&g, &triangle())),
        Box::new(NoopObserver),
    )
    .unwrap();
    let handle = svc.ingest();
    handle.send(stream.updates()[0]).unwrap();
    assert!(handle.is_open());
    let report = svc.shutdown().unwrap();
    assert_eq!(report.processed, 1, "shutdown drains admitted updates");
    assert!(!handle.is_open());
    assert!(matches!(
        handle.send(stream.updates()[1]),
        Err(CsmError::ServiceClosed)
    ));
}

/// Serve `stream` over `g` with one session per tenant and return the
/// shutdown report.
fn serve(
    g: &DataGraph,
    stream: &[Update],
    tenants: &[(QueryGraph, AlgoKind, &str)],
) -> ServiceReport {
    let mut svc = CsmService::new(g.clone(), ServiceConfig::default()).unwrap();
    for (q, kind, label) in tenants {
        svc.add_session(
            SessionSpec::new(q.clone(), ParaCosmConfig::sequential()).with_label(*label),
            Box::new(kind.build(g, q)),
            Box::new(NoopObserver),
        )
        .unwrap();
    }
    for &u in stream {
        svc.submit(u).unwrap();
    }
    svc.shutdown().unwrap()
}

/// ΔM of a standalone single-query engine over `stream` from `g`.
fn standalone(g: &DataGraph, q: &QueryGraph, kind: AlgoKind, stream: &[Update]) -> (u64, u64) {
    let stream: UpdateStream = stream.iter().copied().collect();
    let mut solo = ParaCosm::new(
        g.clone(),
        q.clone(),
        kind.build(g, q),
        ParaCosmConfig::sequential(),
    );
    let out = solo.process_stream(&stream).unwrap();
    (out.positives, out.negatives)
}

/// The shared-index differential: in a five-tenant service — including a
/// duplicate-query session under a *different* algorithm, so the delta
/// cache is actually exercised — every tenant's ΔM, classifier verdicts
/// and update count equal those of the same tenant served alone (a
/// one-session service: no share group, no other session's probes in the
/// memo), and its ΔM equals a standalone engine's. The index's lifetime
/// hit counter reconciles exactly with the sum of per-session reuses.
#[test]
fn shared_index_matches_one_tenant_services() {
    let (g, stream) = dense_workload(97);
    let tenants: Vec<(QueryGraph, AlgoKind, &str)> = vec![
        (triangle(), AlgoKind::GraphFlow, "triangles"),
        (path3(0, 1, 0), AlgoKind::Symbi, "wedge-010"),
        (path3(1, 0, 1), AlgoKind::TurboFlux, "wedge-101"),
        (path3(0, 0, 1), AlgoKind::NewSP, "path-001"),
        // Same pattern as "triangles" hosted by a different algorithm:
        // ΔM is a pure function of (graph, query, update), so this
        // session absorbs the cached delta instead of enumerating a
        // second time.
        (triangle(), AlgoKind::Symbi, "triangles-dup"),
    ];
    let shared = serve(&g, stream.updates(), &tenants);
    let sh = shared.shared.expect("the index always reports");
    assert!(
        sh.subpatterns > 0,
        "five queries must register sub-patterns"
    );
    assert!(
        sh.hits > 0,
        "the duplicate-query session must absorb cached deltas"
    );
    let reuses: u64 = shared
        .sessions
        .iter()
        .map(|s| s.session.as_ref().unwrap().shared_reuses)
        .sum();
    assert_eq!(sh.hits, reuses, "index hits must equal Σ session reuses");

    assert_eq!(shared.sessions.len(), tenants.len());
    for (served, tenant) in shared.sessions.iter().zip(&tenants) {
        let (q, kind, label) = tenant;
        let alone = serve(&g, stream.updates(), std::slice::from_ref(tenant));
        let alone = &alone.sessions[0];
        assert_eq!(
            alone.session.as_ref().unwrap().shared_reuses,
            0,
            "session {label}: a lone session has no group to reuse from"
        );
        let delta = (served.stats.positives, served.stats.negatives);
        assert_eq!(
            delta,
            (alone.stats.positives, alone.stats.negatives),
            "session {label}: ΔM diverges from the one-tenant service"
        );
        assert_eq!(
            served.stats.classifier, alone.stats.classifier,
            "session {label}: classifier verdicts diverge"
        );
        assert_eq!(served.stats.updates, alone.stats.updates);
        assert_eq!(
            delta,
            standalone(&g, q, *kind, stream.updates()),
            "session {label}: ΔM diverges from a standalone run"
        );
    }
}

/// Live registration and removal keep the shared index correct: a session
/// removed mid-stream reports the ΔM of a standalone run over the first
/// half, a session added mid-stream (duplicating a live query) still
/// reuses cached deltas and reports the ΔM of a standalone run started
/// from the graph at join time, and the survivors match standalone runs
/// over the full stream.
#[test]
fn shared_index_survives_live_add_and_remove() {
    let (g, stream) = dense_workload(103);
    let updates = stream.updates();
    let half = stream.len() / 2;
    let mut svc = CsmService::new(g.clone(), ServiceConfig::default()).unwrap();
    let add = |svc: &mut CsmService, q: QueryGraph, kind: AlgoKind, label: &str| {
        let algo = Box::new(kind.build(svc.graph(), &q));
        svc.add_session(
            SessionSpec::new(q, ParaCosmConfig::sequential()).with_label(label),
            algo,
            Box::new(NoopObserver),
        )
        .unwrap()
    };
    add(&mut svc, triangle(), AlgoKind::GraphFlow, "stay");
    let leaver = add(&mut svc, triangle(), AlgoKind::Symbi, "leave");
    add(&mut svc, path3(0, 1, 0), AlgoKind::TurboFlux, "wedge");
    for &u in &updates[..half] {
        svc.submit(u).unwrap();
    }
    let left = svc.remove_session(leaver).unwrap();
    // A mid-stream joiner duplicating a live query: the index must pick
    // the new share group up without a rebuild.
    let at_join = svc.graph().clone();
    add(&mut svc, path3(0, 1, 0), AlgoKind::NewSP, "wedge-dup");
    for &u in &updates[half..] {
        svc.submit(u).unwrap();
    }
    let report = svc.shutdown().unwrap();

    assert_eq!(left.stats.updates, half as u64);
    assert_eq!(
        (left.stats.positives, left.stats.negatives),
        standalone(&g, &triangle(), AlgoKind::Symbi, &updates[..half]),
        "removed session: ΔM diverges from a standalone run"
    );
    let session = |label: &str| {
        report
            .sessions
            .iter()
            .find(|s| s.session.as_ref().unwrap().label == label)
            .unwrap()
    };
    for (label, q, kind) in [
        ("stay", triangle(), AlgoKind::GraphFlow),
        ("wedge", path3(0, 1, 0), AlgoKind::TurboFlux),
    ] {
        let s = session(label);
        assert_eq!(
            (s.stats.positives, s.stats.negatives),
            standalone(&g, &q, kind, updates),
            "session {label}: ΔM diverges from a standalone run"
        );
    }
    let dup = session("wedge-dup");
    assert_eq!(dup.stats.updates, (stream.len() - half) as u64);
    assert_eq!(
        (dup.stats.positives, dup.stats.negatives),
        standalone(&at_join, &path3(0, 1, 0), AlgoKind::NewSP, &updates[half..]),
        "mid-stream joiner: ΔM diverges from a standalone run from the join-time graph"
    );
    // The mid-stream duplicate still exchanged deltas with its group.
    assert!(
        dup.session.as_ref().unwrap().shared_reuses > 0,
        "mid-stream duplicate must reuse cached deltas"
    );
}

/// Registration validates the per-session config and query through the
/// same [`CsmError::ConfigInvalid`] taxonomy as the standalone engine.
#[test]
fn add_session_validates_config_and_query() {
    let (g, _) = dense_workload(83);
    let mut svc = CsmService::new(g.clone(), ServiceConfig::default()).unwrap();
    let mut bad = ParaCosmConfig::sequential();
    bad.batch_size = 0;
    assert!(matches!(
        svc.add_session(
            SessionSpec::new(triangle(), bad),
            Box::new(AlgoKind::GraphFlow.build(&g, &triangle())),
            Box::new(NoopObserver),
        ),
        Err(CsmError::ConfigInvalid {
            field: "batch_size",
            ..
        })
    ));
    assert!(matches!(
        svc.add_session(
            SessionSpec::new(QueryGraph::new(), ParaCosmConfig::sequential()),
            Box::new(AlgoKind::GraphFlow.build(&g, &triangle())),
            Box::new(NoopObserver),
        ),
        Err(CsmError::ConfigInvalid { field: "query", .. })
    ));
    assert_eq!(svc.session_count(), 0);
}
