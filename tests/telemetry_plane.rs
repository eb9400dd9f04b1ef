//! Live-telemetry-plane integration tests, over real loopback sockets:
//! the HTTP endpoints speak valid HTTP/1.1, `/metrics` is syntactically
//! valid Prometheus text whose windowed counters reconcile exactly with
//! the end-of-run [`ServiceReport`], `/sessions` is schema-stable JSON,
//! and the watchdog flags (and clears) an artificially wedged queue.

#![deny(deprecated)]

use paracosm::algos::testing;
use paracosm::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn triangle() -> QueryGraph {
    let mut q = QueryGraph::new();
    let u: Vec<_> = (0..3).map(|_| q.add_vertex(VLabel(0))).collect();
    q.add_edge(u[0], u[1], ELabel(0)).unwrap();
    q.add_edge(u[1], u[2], ELabel(0)).unwrap();
    q.add_edge(u[0], u[2], ELabel(0)).unwrap();
    q
}

/// Blocking HTTP/1.1 GET (or arbitrary-method request): returns
/// (status code, body).
fn http_request(addr: SocketAddr, method: &str, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("endpoint reachable");
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
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

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    http_request(addr, "GET", path)
}

/// Prometheus text-format line check: `metric_name{labels} value` or
/// `metric_name value`, with `# HELP`/`# TYPE` comments allowed.
fn assert_prometheus_syntax(body: &str) {
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("metric line has no value separator: {line:?}");
        });
        assert!(
            value.parse::<f64>().is_ok(),
            "unparsable sample value in {line:?}"
        );
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in {line:?}"
        );
        if name_end < series.len() {
            assert!(series.ends_with('}'), "unterminated label set: {line:?}");
            let labels = &series[name_end + 1..series.len() - 1];
            for pair in labels.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .unwrap_or_else(|| panic!("label without '=' in {line:?}"));
                assert!(
                    k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                    "invalid label name in {line:?}"
                );
                assert!(
                    v.starts_with('"') && v.ends_with('"'),
                    "unquoted label value in {line:?}"
                );
            }
        }
    }
}

/// The numeric value of the first sample whose series matches all given
/// fragments.
fn sample(body: &str, name: &str, fragments: &[&str]) -> f64 {
    body.lines()
        .find(|l| {
            !l.starts_with('#') && l.starts_with(name) && fragments.iter().all(|f| l.contains(f))
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no sample for {name} {fragments:?}"))
}

/// Extract `"key":<number>` from the flat JSON the endpoint emits.
fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = body
        .find(&pat)
        .unwrap_or_else(|| panic!("missing JSON key {key:?}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric JSON value for {key:?}"))
}

/// Wide-epoch telemetry config: nothing rotates out of the window during
/// the test, so windowed counters cover the whole run.
fn wide_window(stall: Duration) -> TelemetryConfig {
    TelemetryConfig::new("127.0.0.1:0")
        .with_window(WindowConfig {
            epoch_width: Duration::from_secs(3600),
            num_epochs: 2,
        })
        .with_stall_deadline(stall)
}

/// The acceptance criterion: a live `/metrics` scrape returns per-session
/// windowed quantiles and queue gauges whose counters reconcile exactly
/// (and quantiles within bucket error) with the shutdown report.
#[test]
fn scrape_endpoints_reconcile_with_service_report() {
    let (g, stream) = testing::random_workload(23, 24, 1, 1, 40, 200, 0.3);
    let mut svc = CsmService::new(g.clone(), ServiceConfig::default()).unwrap();
    let mut cfg = ParaCosmConfig::sequential();
    cfg.track_latency = true;
    let algo = Box::new(AlgoKind::Symbi.build(&g, &triangle()));
    svc.add_session(
        SessionSpec::new(triangle(), cfg).with_label("tri\"angles"),
        algo,
        Box::new(NoopObserver),
    )
    .unwrap();
    let t = svc
        .start_telemetry(wide_window(Duration::from_secs(60)))
        .unwrap();
    let addr = t.local_addr();

    for &u in stream.updates() {
        svc.submit(u).unwrap();
    }
    svc.drain().unwrap();

    // Health and readiness while live and idle.
    assert_eq!(http_get(addr, "/healthz"), (200, "ok\n".to_string()));
    assert_eq!(http_get(addr, "/readyz").0, 200);
    assert_eq!(http_get(addr, "/nope").0, 404);
    assert_eq!(http_request(addr, "POST", "/metrics").0, 405);

    // /metrics: valid exposition syntax, expected families present.
    let (code, metrics) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    assert_prometheus_syntax(&metrics);
    for family in [
        "paracosm_up",
        "paracosm_queue_depth",
        "paracosm_queue_capacity",
        "paracosm_admitted_total",
        "paracosm_processed_total",
        "paracosm_watchdog_stalls_total",
        "paracosm_session_updates_total",
        "paracosm_session_window_latency_seconds",
    ] {
        assert!(metrics.contains(family), "missing family {family}");
    }
    // Label values are escaped (the session label contains a quote).
    assert!(metrics.contains("label=\"tri\\\"angles\""));

    // /sessions: schema-stable JSON.
    let (code, sessions) = http_get(addr, "/sessions");
    assert_eq!(code, 200);
    assert_eq!(json_u64(&sessions, "schema_version"), 1);
    assert!(sessions.contains("\"sessions\":["));
    assert!(sessions.contains("\"diagnostics\":["));
    assert!(sessions.contains("\"level\":\"full\""));
    let json_updates = json_u64(&sessions, "updates");

    // Scraped values to reconcile after shutdown.
    let m_processed = sample(&metrics, "paracosm_processed_total", &[]) as u64;
    let m_admitted = sample(&metrics, "paracosm_admitted_total", &[]) as u64;
    let m_noops = sample(&metrics, "paracosm_noops_total", &[]) as u64;
    let m_stalls = sample(&metrics, "paracosm_watchdog_stalls_total", &[]) as u64;
    let m_updates = sample(&metrics, "paracosm_session_updates_total", &[]) as u64;
    let m_pos = sample(&metrics, "paracosm_session_delta_pos_total", &[]) as u64;
    let m_neg = sample(&metrics, "paracosm_session_delta_neg_total", &[]) as u64;
    let m_win_updates = sample(&metrics, "paracosm_session_window_updates", &[]) as u64;
    let m_p50 = sample(
        &metrics,
        "paracosm_session_window_latency_seconds",
        &["quantile=\"0.5\""],
    );
    let m_p99 = sample(
        &metrics,
        "paracosm_session_window_latency_seconds",
        &["quantile=\"0.99\""],
    );
    let m_p999 = sample(
        &metrics,
        "paracosm_session_window_latency_seconds",
        &["quantile=\"0.999\""],
    );
    let m_depth_cap = sample(&metrics, "paracosm_queue_capacity", &[]) as usize;

    let report = svc.shutdown().unwrap();

    // Exact counter reconciliation: everything was drained before the
    // scrape, so live totals equal final totals.
    assert_eq!(m_processed, report.processed);
    assert_eq!(m_admitted, report.admitted);
    assert_eq!(m_noops, report.noops);
    assert_eq!(m_stalls, report.stalls);
    assert_eq!(m_stalls, 0);
    assert_eq!(m_depth_cap, report.queue_capacity);
    let stats = &report.sessions[0].stats;
    assert_eq!(m_updates, stats.updates);
    assert_eq!(m_pos, stats.positives);
    assert_eq!(m_neg, stats.negatives);
    assert_eq!(json_updates, stats.updates);
    // Wide epochs: the window never rotated, so it covers the lifetime.
    assert_eq!(m_win_updates, stats.updates);

    // Quantile reconciliation within bucket error: both sides bucket with
    // 4 significant bits (~7 % relative width).
    for (got, p) in [(m_p50, 50.0), (m_p99, 99.0), (m_p999, 99.9)] {
        let want = stats.latency.percentile(p).as_secs_f64();
        assert!(
            (got - want).abs() <= want * 0.08 + 1e-9,
            "p{p}: scraped {got}, report {want}"
        );
    }
}

/// Shared-index observability: `/metrics` exposes the index's lifetime
/// counters and per-session reuse totals, `/sessions` mirrors them in
/// JSON, and every number reconciles exactly with the shutdown
/// [`ServiceReport`].
#[test]
fn shared_index_metrics_reconcile_with_report() {
    let (g, stream) = testing::random_workload(23, 24, 1, 1, 40, 200, 0.3);
    let mut svc = CsmService::new(g.clone(), ServiceConfig::default()).unwrap();
    // Two sessions over the same pattern under different algorithms: the
    // second absorbs cached deltas, so the hit counter actually moves.
    for (kind, label) in [(AlgoKind::GraphFlow, "a"), (AlgoKind::Symbi, "b")] {
        svc.add_session(
            SessionSpec::new(triangle(), ParaCosmConfig::sequential()).with_label(label),
            Box::new(kind.build(&g, &triangle())),
            Box::new(NoopObserver),
        )
        .unwrap();
    }
    let t = svc
        .start_telemetry(wide_window(Duration::from_secs(60)))
        .unwrap();
    let addr = t.local_addr();

    for &u in stream.updates() {
        svc.submit(u).unwrap();
    }
    svc.drain().unwrap();

    let (code, metrics) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    assert_prometheus_syntax(&metrics);
    let m_subpats = sample(&metrics, "paracosm_shared_subpatterns", &[]) as u64;
    let m_hits = sample(&metrics, "paracosm_shared_hits_total", &[]) as u64;
    let m_misses = sample(&metrics, "paracosm_shared_misses_total", &[]) as u64;
    let m_reuses_b = sample(
        &metrics,
        "paracosm_session_shared_reuses_total",
        &["label=\"b\""],
    ) as u64;

    let (code, sessions) = http_get(addr, "/sessions");
    assert_eq!(code, 200);
    assert!(sessions.contains("\"shared\":{\"subpatterns\":"));
    let j_hits = json_u64(&sessions, "hits");
    let j_misses = json_u64(&sessions, "misses");

    let report = svc.shutdown().unwrap();
    let sh = report.shared.expect("index on by default");
    assert!(sh.hits > 0, "duplicate-query session must produce hits");
    assert_eq!(m_subpats, sh.subpatterns);
    assert_eq!(m_hits, sh.hits);
    assert_eq!(m_misses, sh.misses);
    assert_eq!(j_hits, sh.hits);
    assert_eq!(j_misses, sh.misses);
    let dims_b = report.sessions[1].session.as_ref().unwrap();
    assert_eq!(dims_b.label, "b");
    assert_eq!(m_reuses_b, dims_b.shared_reuses);
    let reuses: u64 = report
        .sessions
        .iter()
        .map(|s| s.session.as_ref().unwrap().shared_reuses)
        .sum();
    assert_eq!(sh.hits, reuses, "index hits must equal Σ session reuses");
}

/// Ghost-session regression: removing a session mid-run tears down its
/// window ring and index subscription, so later `/metrics` and
/// `/sessions` scrapes never mention it and the survivors keep serving.
#[test]
fn removed_session_leaves_no_ghosts_in_scrapes() {
    let (g, stream) = testing::random_workload(31, 24, 1, 1, 40, 60, 0.3);
    let mut svc = CsmService::new(g.clone(), ServiceConfig::default()).unwrap();
    let add = |svc: &mut CsmService, label: &str| {
        svc.add_session(
            SessionSpec::new(triangle(), ParaCosmConfig::sequential()).with_label(label),
            Box::new(AlgoKind::GraphFlow.build(&g, &triangle())),
            Box::new(NoopObserver),
        )
        .unwrap()
    };
    add(&mut svc, "stay");
    let ghost = add(&mut svc, "ghost");
    let t = svc
        .start_telemetry(wide_window(Duration::from_secs(60)))
        .unwrap();
    let addr = t.local_addr();

    let half = stream.len() / 2;
    for &u in &stream.updates()[..half] {
        svc.submit(u).unwrap();
    }
    svc.drain().unwrap();
    let (_, sessions) = http_get(addr, "/sessions");
    assert!(sessions.contains("\"label\":\"ghost\""));

    svc.remove_session(ghost).unwrap();
    for &u in &stream.updates()[half..] {
        svc.submit(u).unwrap();
    }
    svc.drain().unwrap();

    let (code, sessions) = http_get(addr, "/sessions");
    assert_eq!(code, 200);
    assert!(
        !sessions.contains("\"label\":\"ghost\""),
        "/sessions still reports the removed session: {sessions}"
    );
    assert!(sessions.contains("\"label\":\"stay\""));
    let (code, metrics) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    assert_prometheus_syntax(&metrics);
    assert!(
        !metrics.contains("label=\"ghost\""),
        "/metrics still exposes series for the removed session"
    );
    let m_updates = sample(
        &metrics,
        "paracosm_session_updates_total",
        &["label=\"stay\""],
    ) as u64;

    let report = svc.shutdown().unwrap();
    assert_eq!(report.sessions.len(), 1);
    assert_eq!(report.sessions[0].stats.updates, stream.len() as u64);
    assert_eq!(m_updates, stream.len() as u64);
}

/// The watchdog state machine: a wedged admission queue (admitted updates,
/// owner not draining) flips `/healthz` to 503 and records a diagnostic;
/// draining recovers to 200. `ServiceReport` carries the stall count.
#[test]
fn watchdog_flags_wedged_queue_then_recovers() {
    let (g, stream) = testing::random_workload(7, 16, 1, 1, 20, 8, 0.2);
    let mut svc = CsmService::new(
        g.clone(),
        ServiceConfig {
            queue_capacity: 64,
            policy: Backpressure::Reject,
            flight_capacity: 1024,
        },
    )
    .unwrap();
    let algo = Box::new(AlgoKind::GraphFlow.build(&g, &triangle()));
    svc.add_session(
        SessionSpec::new(triangle(), ParaCosmConfig::sequential()),
        algo,
        Box::new(NoopObserver),
    )
    .unwrap();
    let t = svc
        .start_telemetry(wide_window(Duration::from_millis(50)))
        .unwrap();
    let addr = t.local_addr();

    // Wedge: admit updates and never drain.
    for &u in stream.updates() {
        svc.submit(u).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if http_get(addr, "/healthz").0 == 503 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watchdog never flagged the wedge"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!t.healthy());
    assert!(t.stalls() >= 1);
    assert_eq!(http_get(addr, "/readyz").0, 503);
    let diags = t.diagnostics();
    assert!(diags.iter().any(|d| d.kind == StallKind::WedgedQueue));
    assert!(diags[0].describe().contains("wedged-queue"));
    let (_, sessions) = http_get(addr, "/sessions");
    assert!(sessions.contains("\"kind\":\"wedged-queue\""));

    // The stall also produced a forensic dossier on /debug/stalls. No
    // update was ever processed, so the implicated span is NONE and the
    // path is empty — but the dossier itself must exist and carry the
    // diagnostic.
    let (code, stalls) = http_get(addr, "/debug/stalls");
    assert_eq!(code, 200);
    assert_eq!(json_u64(&stalls, "schema_version"), 1);
    assert!(json_u64(&stalls, "stalls_total") >= 1);
    assert!(stalls.contains("\"healthy\":false"));
    assert!(stalls.contains("\"kind\":\"wedged-queue\""));
    assert!(stalls.contains("\"sessions\":[{\"id\":"));
    let dossiers = t.dossiers();
    assert!(dossiers
        .iter()
        .any(|d| d.diagnostic.kind == StallKind::WedgedQueue));

    // /debug/flight always answers, even with nothing recorded yet.
    let (code, flight) = http_get(addr, "/debug/flight");
    assert_eq!(code, 200);
    assert_eq!(json_u64(&flight, "schema_version"), 1);
    assert_eq!(json_u64(&flight, "capacity"), 1024);
    assert_eq!(json_u64(&flight, "spans_minted"), 0);
    assert!(flight.contains("\"shards\":[{\"shard\":0,"));

    // Recovery: drain and wait for the flag to clear.
    svc.drain().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if http_get(addr, "/healthz").0 == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "stall flag never cleared");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(t.healthy());

    let stalls = t.stalls();
    let report = svc.shutdown().unwrap();
    assert_eq!(report.stalls, stalls);
    assert!(report.stalls >= 1);
    assert!(report.to_json().contains(&format!("\"stalls\":{stalls}")));
}

/// Observer that naps well past the stall deadline on its first few
/// updates — the service's owner thread wedges *inside* an update, which
/// is exactly the `StuckUpdate` shape the watchdog forensics target.
struct Molasses {
    naps: u32,
    nap: Duration,
}

impl StreamObserver for Molasses {
    fn on_update(&mut self, _obs: &UpdateObservation) {
        if self.naps > 0 {
            self.naps -= 1;
            std::thread::sleep(self.nap);
        }
    }
}

/// A forced `StuckUpdate` stall produces a dossier containing the
/// offending update's complete span path: the watchdog resolves the
/// in-flight span, and `/debug/stalls` names the stuck update, its span,
/// and the stages it got through — ending at the open `fanout` of the
/// session whose observer is asleep.
#[test]
fn stuck_update_dossier_names_span_and_stage_path() {
    let (g, stream) = testing::random_workload(13, 16, 1, 1, 20, 4, 0.2);
    let mut svc = CsmService::new(g.clone(), ServiceConfig::default()).unwrap();
    svc.add_session(
        SessionSpec::new(triangle(), ParaCosmConfig::sequential()).with_label("slowpoke"),
        Box::new(AlgoKind::GraphFlow.build(&g, &triangle())),
        Box::new(Molasses {
            naps: 1,
            nap: Duration::from_millis(600),
        }),
    )
    .unwrap();
    let t = svc
        .start_telemetry(wide_window(Duration::from_millis(40)))
        .unwrap();
    let addr = t.local_addr();

    for &u in stream.updates() {
        svc.submit(u).unwrap();
    }
    // drain() blocks in update #0 while the observer naps; the watchdog
    // flags the stuck update and captures the dossier mid-flight.
    svc.drain().unwrap();

    assert!(t.stalls() >= 1, "the watchdog must have caught the nap");
    let dossiers = t.dossiers();
    let d = dossiers
        .iter()
        .find(|d| d.diagnostic.kind == StallKind::StuckUpdate)
        .expect("a stuck-update dossier");
    assert_eq!(d.diagnostic.update_index, Some(0));
    assert!(d.span.is_some(), "the in-flight span must be resolved");
    assert!(!d.path.is_empty(), "the span path must be captured");
    // The path walks the pipeline: the admit umbrella opened (never
    // closed at capture time), and the slow session's fanout was open.
    let admit_open = d
        .path
        .iter()
        .find(|e| e.stage == FlightStage::Admit && e.begin)
        .expect("admit begin in the dossier path");
    assert_eq!(admit_open.span, d.span);
    assert_eq!(admit_open.arg, 0, "admit arg is the stuck update's index");
    assert!(
        !d.path
            .iter()
            .any(|e| e.stage == FlightStage::Admit && !e.begin),
        "the stuck update cannot have closed its admit span yet"
    );
    assert!(
        d.path
            .iter()
            .any(|e| e.stage == FlightStage::Fanout && e.begin),
        "the stuck session's fanout must be open in the path"
    );
    assert!(d.sessions.iter().any(|(_, label, _)| label == "slowpoke"));

    // The HTTP rendering of the same dossier.
    let (code, stalls) = http_get(addr, "/debug/stalls");
    assert_eq!(code, 200);
    assert_eq!(json_u64(&stalls, "schema_version"), 1);
    assert!(stalls.contains("\"kind\":\"stuck-update\""));
    assert!(stalls.contains("\"update_index\":0"));
    assert!(stalls.contains("\"stage\":\"admit\""));
    assert!(stalls.contains("\"phase\":\"begin\""));
    assert!(stalls.contains("\"label\":\"slowpoke\""));

    // /debug/flight now reflects the full run: every submitted update
    // minted a span, and the stuck one eventually completed.
    let (code, flight) = http_get(addr, "/debug/flight");
    assert_eq!(code, 200);
    assert_eq!(json_u64(&flight, "spans_minted"), stream.len() as u64);
    assert_eq!(json_u64(&flight, "inflight_span"), 0);
    assert_eq!(json_u64(&flight, "last_done_span"), stream.len() as u64);

    // Recovery: the nap is over, progress resumed, health returns.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if http_get(addr, "/healthz").0 == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "stall flag never cleared");
        std::thread::sleep(Duration::from_millis(20));
    }
    let report = svc.shutdown().unwrap();
    assert!(report.stalls >= 1);
}

/// Config plumbing: bad addresses surface as `ConfigInvalid` naming
/// `telemetry_addr`, double starts are refused, and the endpoint dies
/// with the service (no leaked listener after shutdown).
#[test]
fn telemetry_lifecycle_and_config_errors() {
    let (g, _) = testing::random_workload(3, 8, 1, 1, 10, 4, 0.2);
    let mut svc = CsmService::new(g, ServiceConfig::default()).unwrap();
    match svc.start_telemetry(TelemetryConfig::new("definitely:not:an:addr")) {
        Err(CsmError::ConfigInvalid { field, .. }) => assert_eq!(field, "telemetry_addr"),
        other => panic!("expected ConfigInvalid, got {other:?}"),
    }
    let t = svc
        .start_telemetry(wide_window(Duration::from_secs(60)))
        .unwrap();
    let addr = t.local_addr();
    assert_eq!(http_get(addr, "/healthz").0, 200);
    match svc.start_telemetry(wide_window(Duration::from_secs(60))) {
        Err(CsmError::ConfigInvalid { field, .. }) => assert_eq!(field, "telemetry_addr"),
        other => panic!("expected ConfigInvalid on double start, got {other:?}"),
    }
    svc.shutdown().unwrap();
    // The listener thread is joined by shutdown; connecting now fails (or
    // is refused before a response) — give the OS a moment to reap.
    std::thread::sleep(Duration::from_millis(50));
    let alive = TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok();
    assert!(!alive, "telemetry listener survived shutdown");
}

/// Starting telemetry after a session has deferred label-safe
/// bookkeeping: the deferred update folds into the engine before the
/// window goes in, so shutdown reports both updates as label-safe.
#[test]
fn telemetry_started_after_deferred_updates_keeps_the_count() {
    let mut g = DataGraph::new();
    let v: Vec<_> = (0..4).map(|_| g.add_vertex(VLabel(1))).collect();
    let mut svc = CsmService::new(g.clone(), ServiceConfig::default()).unwrap();
    // A query over label 0: every edge between label-1 vertices is
    // label-safe for it.
    svc.add_session(
        SessionSpec::new(triangle(), ParaCosmConfig::sequential()),
        Box::new(AlgoKind::GraphFlow.build(&g, &triangle())),
        Box::new(NoopObserver),
    )
    .unwrap();
    let insert = |a: usize, b: usize| Update::InsertEdge(EdgeUpdate::new(v[a], v[b], ELabel(0)));
    svc.submit(insert(0, 1)).unwrap();
    svc.drain().unwrap();
    svc.start_telemetry(TelemetryConfig::new("127.0.0.1:0"))
        .unwrap();
    svc.submit(insert(1, 2)).unwrap();
    let report = svc.shutdown().unwrap();
    let stats = &report.sessions[0].stats;
    assert_eq!(stats.updates, 2);
    assert_eq!(stats.classifier.safe_label, 2);
}
