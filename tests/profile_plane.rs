//! Profiler-plane integration tests: a profiled session must report the
//! same ΔM as an unprofiled one on every backend and apply path the
//! serving layer has (monolithic and sharded stores, vertex cascade
//! deletes), and the `/profile` scrape must reconcile exactly with the
//! shutdown [`ServiceReport`], because both read the same attribution
//! grid.

#![deny(deprecated)]

use paracosm::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) % n
    }
}

const NV: u32 = 50;

fn base_graph(seed: u64) -> DataGraph {
    let mut g = DataGraph::new();
    let mut rng = Lcg(seed);
    for i in 0..NV {
        g.add_vertex(VLabel(i % 3));
    }
    for _ in 0..100 {
        let (a, b) = (rng.below(NV as u64) as u32, rng.below(NV as u64) as u32);
        if a != b {
            let _ = g.insert_edge(VertexId(a), VertexId(b), ELabel((a + b) % 2));
        }
    }
    g
}

/// Edge-only churn, hub-skewed, with long label-safe runs.
fn edge_stream(seed: u64, len: usize) -> Vec<Update> {
    let mut rng = Lcg(seed ^ 0x9E3779B97F4A7C15);
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let pick = |rng: &mut Lcg| {
            if rng.below(4) < 3 {
                rng.below(8) as u32
            } else {
                rng.below(NV as u64) as u32
            }
        };
        let (a, b) = (pick(&mut rng), pick(&mut rng));
        let e = EdgeUpdate::new(VertexId(a), VertexId(b), ELabel(rng.below(2) as u32));
        out.push(if rng.below(100) < 60 {
            Update::InsertEdge(e)
        } else {
            Update::DeleteEdge(e)
        });
    }
    out
}

/// Full churn: edge ops plus vertex inserts and cascading vertex
/// deletes, which exercise the vertex apply paths and cascades.
fn churn_stream(seed: u64, len: usize) -> Vec<Update> {
    let mut rng = Lcg(seed ^ 0x0DDB1A5E5BAD5EED);
    let mut out = Vec::with_capacity(len);
    let mut next_vid = NV;
    for _ in 0..len {
        let roll = rng.below(100);
        let a = rng.below(NV as u64 + 10) as u32;
        let b = rng.below(NV as u64 + 10) as u32;
        let e = EdgeUpdate::new(VertexId(a), VertexId(b), ELabel(rng.below(2) as u32));
        out.push(match roll {
            0..=49 => Update::InsertEdge(e),
            50..=79 => Update::DeleteEdge(e),
            80..=91 => {
                next_vid += 1;
                Update::InsertVertex {
                    id: VertexId(next_vid),
                    label: VLabel(next_vid % 3),
                }
            }
            _ => Update::DeleteVertex {
                id: VertexId(rng.below(next_vid as u64) as u32),
            },
        });
    }
    out
}

/// A query over live labels: updates classify unsafe and enumerate, so
/// the profiler grid fills.
fn live_label_query() -> QueryGraph {
    let mut q = QueryGraph::new();
    let a = q.add_vertex(VLabel(0));
    let b = q.add_vertex(VLabel(1));
    let c = q.add_vertex(VLabel(2));
    q.add_edge(a, b, ELabel(0)).unwrap();
    q.add_edge(b, c, ELabel(0)).unwrap();
    q
}

/// Drive `stream` through a fresh service over `g` with one
/// [`live_label_query`] session at `level`; return its shutdown report.
/// Each run gets its own service: share groups ignore the profile level,
/// so a twin session in the same service would absorb cached deltas
/// instead of enumerating.
fn run_session<G: GraphShard>(g: G, stream: &[Update], level: ProfileLevel) -> RunReport {
    let q = live_label_query();
    let mut svc = CsmService::new(g, ServiceConfig::default()).unwrap();
    let algo = Box::new(AlgoKind::GraphFlow.build(svc.graph(), &q));
    let spec = SessionSpec::new(q, ParaCosmConfig::sequential().profiled(level));
    svc.add_session(spec, algo, Box::new(NoopObserver)).unwrap();
    for &u in stream {
        svc.submit(u).unwrap();
    }
    svc.shutdown().unwrap().sessions.remove(0)
}

/// Profiling observes and never steers: a `Counters`-profiled session
/// reports the same ΔM, classifier verdicts and update count as an
/// unprofiled one, on the monolithic backend with vertex inserts and
/// cascades and on a sharded backend.
#[test]
fn profiled_session_matches_unprofiled_on_every_apply_path() {
    fn check(on: RunReport, off: RunReport, path: &str) {
        assert_eq!(
            (on.stats.positives, on.stats.negatives),
            (off.stats.positives, off.stats.negatives),
            "{path}: profiling changed ΔM"
        );
        assert_eq!(on.stats.classifier, off.stats.classifier, "{path}");
        assert_eq!(on.stats.updates, off.stats.updates, "{path}");
        assert!(off.profile.is_none(), "{path}: unprofiled run has no grid");
        let cost = on.profile.expect("profiled run has a grid").total_cost();
        assert!(cost > 0, "{path}: profiled run must attribute some work");
    }
    for seed in [1u64, 9] {
        let stream = churn_stream(seed, 250);
        let on = run_session(base_graph(seed), &stream, ProfileLevel::Counters);
        let off = run_session(base_graph(seed), &stream, ProfileLevel::Off);
        check(on, off, &format!("serial/cascade seed={seed}"));

        let stream = edge_stream(seed, 300);
        let sharded = || ShardedGraph::from_graph(ShardConfig::hash(2), &base_graph(seed)).unwrap();
        let on = run_session(sharded(), &stream, ProfileLevel::Counters);
        let off = run_session(sharded(), &stream, ProfileLevel::Off);
        check(on, off, &format!("sharded seed={seed}"));
    }
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("endpoint reachable");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    let status: u16 = resp
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {resp:?}"));
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Extract the `"totals":{...}` object after a `"profile":` key.
fn totals_object(body: &str) -> String {
    let at = body.find("\"totals\":{").expect("profile totals present");
    let rest = &body[at..];
    let end = rest.find('}').expect("balanced totals object");
    rest[..=end].to_string()
}

/// Acceptance: `GET /profile` reconciles **exactly** with the shutdown
/// report — same attribution grid, same totals — and
/// `GET /debug/explain/<id>` ranks the session's query edges with their
/// observed cardinalities.
#[test]
fn profile_scrape_reconciles_with_shutdown_report() {
    let g = base_graph(21);
    let mut svc = CsmService::new(g, ServiceConfig::default()).unwrap();
    let q = live_label_query();
    let algo = Box::new(AlgoKind::GraphFlow.build(svc.graph(), &q));
    svc.add_session(
        SessionSpec::new(
            q,
            ParaCosmConfig::sequential().profiled(ProfileLevel::Counters),
        )
        .with_label("wedge"),
        algo,
        Box::new(NoopObserver),
    )
    .unwrap();
    let t = svc
        .start_telemetry(TelemetryConfig::new("127.0.0.1:0"))
        .unwrap();
    let addr = t.local_addr();

    for &u in &edge_stream(21, 200) {
        svc.submit(u).unwrap();
    }
    svc.drain().unwrap();

    let (code, profile) = http_get(addr, "/profile");
    assert_eq!(code, 200);
    assert!(profile.contains("\"schema_version\":1"));
    assert!(profile.contains("\"label\":\"wedge\""));
    assert!(profile.contains("\"level\":\"counters\""));
    let scraped_totals = totals_object(&profile);

    let (code, explain) = http_get(addr, "/debug/explain/0");
    assert_eq!(code, 200);
    assert!(explain.contains("\"session\":0"));
    assert!(explain.contains("\"edges\":["));
    assert!(explain.contains("\"rank\":0"));
    assert!(explain.contains("\"observed_card\":"));
    assert_eq!(http_get(addr, "/debug/explain/99").0, 404);
    assert_eq!(http_get(addr, "/debug/explain/bogus").0, 400);

    let report = svc.shutdown().unwrap();
    let report_totals = totals_object(&report.to_json());
    assert_eq!(
        scraped_totals, report_totals,
        "/profile drifted from the shutdown report's attribution grid"
    );
    assert_ne!(
        scraped_totals, "\"totals\":{}",
        "profiled run must attribute some work"
    );
}
