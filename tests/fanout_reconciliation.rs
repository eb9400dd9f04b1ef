//! Exact reconciliation of per-session bookkeeping under the service's
//! touched-session fan-out, where a session that an edge cannot touch
//! gets only its observer callback and its label-safe bookkeeping is
//! derived at the next flush.
//!
//! One stream — edge inserts and deletes, vertex inserts and deletes,
//! structural no-ops and invalid updates — runs through a service whose
//! sessions join and leave mid-stream and whose telemetry plane starts
//! mid-stream. Every session's report must equal the report of the same
//! session served alone, by a one-tenant service fed exactly the updates
//! admitted while it was live: updates, ΔM, classifier verdicts and
//! tracer counters. Its apply time must equal the summed widths of the
//! flight recorder's apply spans over those updates.

use paracosm::algos::testing;
use paracosm::core::trace::Counter;
use paracosm::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn triangle(l: u32) -> QueryGraph {
    let mut q = QueryGraph::new();
    let u: Vec<_> = (0..3).map(|_| q.add_vertex(VLabel(l))).collect();
    q.add_edge(u[0], u[1], ELabel(0)).unwrap();
    q.add_edge(u[1], u[2], ELabel(0)).unwrap();
    q.add_edge(u[0], u[2], ELabel(0)).unwrap();
    q
}

fn path3(l0: u32, l1: u32, l2: u32, el: u32) -> QueryGraph {
    let mut q = QueryGraph::new();
    let a = q.add_vertex(VLabel(l0));
    let b = q.add_vertex(VLabel(l1));
    let c = q.add_vertex(VLabel(l2));
    q.add_edge(a, b, ELabel(el)).unwrap();
    q.add_edge(b, c, ELabel(el)).unwrap();
    q
}

/// One tenant: its query and algorithm, whether its engine carries a
/// rolling window from the start (so it never defers), and the update
/// indices at which it joins and (if before the end) leaves.
struct Tenant {
    query: QueryGraph,
    kind: AlgoKind,
    windowed: bool,
    join: usize,
    leave: Option<usize>,
}

fn spec(t: &Tenant) -> SessionSpec {
    let mut cfg = ParaCosmConfig::sequential();
    cfg.trace = TraceLevel::Counters;
    if t.windowed {
        cfg = cfg.windowed(WindowConfig::default());
    }
    SessionSpec::new(t.query.clone(), cfg)
}

/// The stream: a random edge stream with a vertex insert and an edge to
/// it, a vertex delete, and every kind of no-op and invalid update mixed
/// in.
fn updates(g: &DataGraph, stream: &UpdateStream) -> Vec<Update> {
    let fresh = VertexId(g.vertex_slots() as u32);
    let (a, b) = g.edges().next().map(|(a, b, _)| (a, b)).unwrap();
    let specials = [
        Update::InsertVertex {
            id: fresh,
            label: VLabel(0),
        },
        Update::InsertEdge(EdgeUpdate::new(fresh, VertexId(1), ELabel(0))),
        Update::InsertVertex {
            id: fresh,
            label: VLabel(0),
        },
        Update::InsertEdge(EdgeUpdate::new(a, b, ELabel(0))),
        Update::DeleteEdge(EdgeUpdate::new(VertexId(2), VertexId(2), ELabel(0))),
        Update::InsertEdge(EdgeUpdate::new(VertexId(3), VertexId(999), ELabel(0))),
        Update::DeleteVertex { id: VertexId(4) },
        Update::DeleteVertex { id: VertexId(4) },
        Update::DeleteEdge(EdgeUpdate::new(VertexId(4), VertexId(5), ELabel(0))),
    ];
    let mut out = Vec::new();
    for (chunk, special) in stream.updates().chunks(30).zip(specials.iter().cycle()) {
        out.extend_from_slice(chunk);
        out.push(*special);
    }
    out
}

/// The session served alone: a one-tenant service over the graph as the
/// session found it, fed the updates admitted while it was live.
fn solo(g: DataGraph, t: &Tenant, ups: &[Update]) -> RunReport {
    let mut svc = CsmService::new(g.clone(), ServiceConfig::default()).unwrap();
    let algo = Box::new(t.kind.build(&g, &t.query));
    svc.add_session(spec(t), algo, Box::new(NoopObserver))
        .unwrap();
    for &u in ups {
        svc.submit(u).unwrap();
    }
    let mut report = svc.shutdown().unwrap();
    report.sessions.pop().unwrap()
}

/// The counters a session's own work determines, independent of how many
/// other sessions share it.
const COUNTERS: [Counter; 9] = [
    Counter::Updates,
    Counter::MatchesPos,
    Counter::MatchesNeg,
    Counter::ClassLabelSafe,
    Counter::ClassDegreeSafe,
    Counter::ClassAdsSafe,
    Counter::ClassUnsafe,
    Counter::ClassNoop,
    Counter::AdsChanged,
];

fn assert_reconciles(label: &str, got: &RunReport, want: &RunReport) {
    assert_eq!(got.stats.updates, want.stats.updates, "{label}: updates");
    assert_eq!(got.stats.positives, want.stats.positives, "{label}: ΔM+");
    assert_eq!(got.stats.negatives, want.stats.negatives, "{label}: ΔM-");
    assert_eq!(
        got.stats.classifier, want.stats.classifier,
        "{label}: classifier"
    );
    let (gm, wm) = (
        got.metrics.as_ref().unwrap(),
        want.metrics.as_ref().unwrap(),
    );
    for c in COUNTERS {
        assert_eq!(gm.total(c), wm.total(c), "{label}: counter {c:?}");
    }
    assert_eq!(gm.total(Counter::Updates), got.stats.updates, "{label}");
}

#[test]
fn every_session_reconciles_with_a_one_tenant_run() {
    let (g, stream) = testing::random_workload(29, 30, 3, 2, 70, 300, 0.35);
    let ups = updates(&g, &stream);
    let n = ups.len();
    let tenants = [
        Tenant {
            query: triangle(0),
            kind: AlgoKind::GraphFlow,
            windowed: false,
            join: 0,
            leave: Some(200),
        },
        Tenant {
            query: path3(0, 1, 2, 0),
            kind: AlgoKind::Symbi,
            windowed: false,
            join: 0,
            leave: None,
        },
        // The first tenant's share-group twin, joining late.
        Tenant {
            query: triangle(0),
            kind: AlgoKind::GraphFlow,
            windowed: false,
            join: 50,
            leave: None,
        },
        // Labels absent from the graph: every edge is label-safe for it.
        Tenant {
            query: path3(7, 7, 7, 0),
            kind: AlgoKind::GraphFlow,
            windowed: false,
            join: 0,
            leave: Some(260),
        },
        // Wildcard edge labels.
        Tenant {
            query: path3(1, 1, 0, 1),
            kind: AlgoKind::CaLiG,
            windowed: false,
            join: 120,
            leave: None,
        },
        // Never defers: a window from its own configuration.
        Tenant {
            query: path3(2, 0, 2, 1),
            kind: AlgoKind::TurboFlux,
            windowed: true,
            join: 0,
            leave: Some(240),
        },
    ];
    let telemetry_at = 150;

    let mut svc = CsmService::new(
        g.clone(),
        ServiceConfig {
            flight_capacity: 1 << 15,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let mut ids: Vec<Option<u64>> = vec![None; tenants.len()];
    let mut joined_on: Vec<Option<DataGraph>> = vec![None; tenants.len()];
    let mut reports: Vec<Option<RunReport>> = vec![None; tenants.len()];
    let mut telemetry = None;
    for (i, &u) in ups.iter().enumerate() {
        if i == telemetry_at {
            telemetry = Some(
                svc.start_telemetry(TelemetryConfig::new("127.0.0.1:0"))
                    .unwrap(),
            );
        }
        for (k, t) in tenants.iter().enumerate() {
            if t.leave == Some(i) {
                reports[k] = Some(svc.remove_session(ids[k].unwrap()).unwrap());
            }
            if t.join == i {
                svc.drain().unwrap();
                let algo = Box::new(t.kind.build(svc.graph(), &t.query));
                ids[k] = Some(
                    svc.add_session(spec(t), algo, Box::new(NoopObserver))
                        .unwrap(),
                );
                joined_on[k] = Some(svc.graph().clone());
            }
        }
        svc.submit(u).unwrap();
    }
    assert!(telemetry.is_some());
    let flight = Arc::clone(svc.flight());
    let report = svc.shutdown().unwrap();
    assert_eq!(report.processed, n as u64);
    assert!(report.noops > 0 && report.invalid > 0);
    let mut live = report.sessions.into_iter();
    for (k, t) in tenants.iter().enumerate() {
        if t.leave.is_none() {
            reports[k] = live.next();
        }
    }

    // Apply-span width per update index, from the service shard.
    let snap = flight.snapshot();
    assert!(snap.dropped.iter().all(|&d| d == 0), "capacity fits all");
    let mut index_of = HashMap::new();
    let mut width = vec![0u64; n];
    let mut opened = HashMap::new();
    for e in &snap.shards[0] {
        match (e.stage, e.begin) {
            (FlightStage::Admit, true) => {
                index_of.insert(e.span, e.arg as usize);
            }
            (FlightStage::Apply, true) => {
                opened.insert(e.span, e.ts_ns);
            }
            (FlightStage::Apply, false) => width[index_of[&e.span]] += e.ts_ns - opened[&e.span],
            _ => {}
        }
    }
    assert_eq!(index_of.len(), n, "one admitted span per update");

    for (k, t) in tenants.iter().enumerate() {
        let label = format!("tenant {k}");
        let got = reports[k].as_ref().unwrap();
        let live = &ups[t.join..t.leave.unwrap_or(n)];
        let want = solo(joined_on[k].clone().unwrap(), t, live);
        assert_eq!(got.stats.updates, live.len() as u64, "{label}");
        assert_reconciles(&label, got, &want);
        let spans: u64 = width[t.join..t.leave.unwrap_or(n)].iter().sum();
        assert_eq!(
            got.stats.apply_time,
            Duration::from_nanos(spans),
            "{label}: apply time is the sum of its apply spans"
        );
    }
    // No edge reached stage 2 for the absent-label tenant (its unsafe
    // verdicts are vertex updates), and some edge touched the triangle
    // tenants.
    let absent = &reports[3].as_ref().unwrap().stats.classifier;
    assert!(absent.safe_label > 0);
    assert_eq!(absent.safe_degree + absent.safe_ads, 0);
    assert!(reports[0].as_ref().unwrap().stats.classifier.unsafe_count > 0);
}
