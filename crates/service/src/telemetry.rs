//! The live telemetry plane: an HTTP scrape endpoint, per-session rolling
//! windows, and a stall watchdog for [`crate::CsmService`].
//!
//! Everything end-of-run (`ServiceReport`, `RunReport`) only exists after
//! `shutdown()`; this module makes a long-lived serving process observable
//! *while it runs*, with zero new dependencies:
//!
//! * a minimal hand-rolled HTTP/1.1 server over [`std::net::TcpListener`]
//!   on a dedicated thread, serving
//!   - `GET /metrics` — Prometheus text (service counters, queue gauges,
//!     and per-session lifetime totals plus windowed p50/p95/p99/p999
//!     from each session's [`WindowRing`]),
//!   - `GET /healthz` — `200 ok` normally, `503 stalled` while the
//!     watchdog flags a stall,
//!   - `GET /readyz` — `200` only when the queue is open, not full, and
//!     no stall is flagged,
//!   - `GET /sessions` — a JSON snapshot of per-session dimensions,
//!     degradation-ladder state, and windowed quantiles,
//!   - `GET /debug/flight` — an on-demand JSON dump of the always-on
//!     flight recorder (every retained causal-span event, per shard),
//!   - `GET /debug/stalls` — the last [`MAX_DOSSIERS`] stall dossiers,
//!     each carrying the implicated update's full span path;
//! * a watchdog thread that detects a *stuck update* (an update started
//!   but not finished within the stall deadline) and a *wedged queue*
//!   (admitted updates sitting unprocessed with no progress for a full
//!   deadline), flips `/healthz` to 503, increments
//!   `paracosm_watchdog_stalls_total`, and records a
//!   [`StallDiagnostic`]. Stalls clear automatically when progress
//!   resumes (the state machine is documented in DESIGN.md §3.10).
//!
//! The hot path ([`crate::CsmService`]'s owner thread) never locks and
//! never blocks on this module: per-update instrumentation is a handful
//! of relaxed atomic stores plus the per-session [`WindowRing`] writes,
//! all behind one `Option` branch when telemetry is off. The scrape side
//! merges on read, mirroring the sharded `MetricsRegistry` design.
//!
//! This file is the *only* place in the workspace's library crates where
//! `std::net` may appear (`csm-analyze` rule `std-net-confined`): sockets
//! have no business near the matching kernel or the executors.

use crate::queue::AdmissionQueue;
use crate::session::{DegradeLevel, Session};
use crate::shared::SharedIndexStats;
use csm_check::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use csm_check::sync::{Mutex, PoisonError};
use csm_graph::{GraphShard, ShardStats};
use paracosm_core::{
    json_escape, CsmError, CsmResult, FlightEvent, FlightRecorder, Profiler, QueryProfile, SpanId,
    WindowConfig, WindowCounter, WindowRing, NUM_PROFILE_COUNTERS,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[inline]
fn ld(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}

#[inline]
fn st(a: &AtomicU64, v: u64) {
    a.store(v, Ordering::Relaxed)
}

#[inline]
fn ldb(a: &AtomicBool) -> bool {
    a.load(Ordering::Relaxed)
}

#[inline]
fn stb(a: &AtomicBool, v: bool) {
    a.store(v, Ordering::Relaxed)
}

fn lock<T>(m: &Mutex<T>) -> csm_check::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Construction parameters for [`crate::CsmService::start_telemetry`].
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Bind address for the HTTP listener (e.g. `"127.0.0.1:9184"`;
    /// port `0` picks a free port — read it back from
    /// [`TelemetryHandle::local_addr`]).
    pub addr: String,
    /// Shape of the per-session rolling windows.
    pub window: WindowConfig,
    /// No-progress deadline before the watchdog flags a stall.
    pub stall_deadline: Duration,
}

impl TelemetryConfig {
    /// Defaults: 1 s × 60 epochs windows, 5 s stall deadline.
    pub fn new(addr: impl Into<String>) -> TelemetryConfig {
        TelemetryConfig {
            addr: addr.into(),
            window: WindowConfig::default(),
            stall_deadline: Duration::from_secs(5),
        }
    }

    /// Builder-style setter for the window shape.
    pub fn with_window(mut self, w: WindowConfig) -> TelemetryConfig {
        self.window = w;
        self
    }

    /// Builder-style setter for the watchdog deadline.
    pub fn with_stall_deadline(mut self, d: Duration) -> TelemetryConfig {
        self.stall_deadline = d;
        self
    }
}

/// What the watchdog caught.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallKind {
    /// An update began processing and did not finish within the deadline.
    StuckUpdate,
    /// Admitted updates sat in the queue with no processing progress for a
    /// full deadline (the owner thread stopped draining).
    WedgedQueue,
}

impl StallKind {
    /// Stable lowercase name (JSON / logs).
    pub fn name(self) -> &'static str {
        match self {
            StallKind::StuckUpdate => "stuck-update",
            StallKind::WedgedQueue => "wedged-queue",
        }
    }
}

/// A `SlowUpdate`-style diagnostic recorded when the watchdog flags a
/// stall. Capped at [`MAX_DIAGNOSTICS`]; later stalls overwrite nothing
/// (first occurrences are the interesting ones).
#[derive(Clone, Debug)]
pub struct StallDiagnostic {
    /// What was detected.
    pub kind: StallKind,
    /// The in-flight update's stream index (`None` for a wedged queue).
    pub update_index: Option<u64>,
    /// How long the condition had been standing when flagged.
    pub waited: Duration,
    /// Queue depth at detection time.
    pub queue_depth: u64,
    /// Time since telemetry start.
    pub at: Duration,
}

impl StallDiagnostic {
    /// One-line human-readable form.
    pub fn describe(&self) -> String {
        match self.update_index {
            Some(i) => format!(
                "{}: update #{i} in flight for {:?} (queue depth {})",
                self.kind.name(),
                self.waited,
                self.queue_depth
            ),
            None => format!(
                "{}: {} queued updates, no progress for {:?}",
                self.kind.name(),
                self.queue_depth,
                self.waited
            ),
        }
    }
}

/// Retained stall diagnostics.
pub const MAX_DIAGNOSTICS: usize = 32;

/// Retained stall dossiers (`GET /debug/stalls` serves the last this-many;
/// older dossiers roll off oldest-first).
pub const MAX_DOSSIERS: usize = 8;

/// A schema-versioned forensic snapshot built by the watchdog at the
/// moment a stall is flagged: the triggering [`StallDiagnostic`], the
/// implicated update's full causal-span path pulled from the flight
/// rings, and per-session ladder state at capture. Served as JSON by
/// `GET /debug/stalls` (schema in DESIGN.md §3.12).
#[derive(Clone, Debug)]
pub struct StallDossier {
    /// What the watchdog caught (kind, index, wait, queue depth, time).
    pub diagnostic: StallDiagnostic,
    /// The implicated span: the in-flight update's span for a stuck
    /// update, the last *completed* update's span for a wedged queue
    /// (nothing is in flight when the owner thread stops draining).
    pub span: SpanId,
    /// The span's stage path — every retained flight event carrying
    /// [`StallDossier::span`], timestamp-ascending across shards.
    pub path: Vec<FlightEvent>,
    /// Spans minted by the recorder up to capture (admission counter).
    pub spans_minted: u64,
    /// Per-session `(id, label, degrade-level name)` at capture.
    pub sessions: Vec<(u64, String, &'static str)>,
}

/// Per-session mirror readable by the scrape thread: identity, the shared
/// window ring, and the ladder counters the owner thread refreshes after
/// every update (relaxed stores — the scrape is telemetry, not a fence).
struct SessionTelemetry {
    id: u64,
    label: String,
    algo: String,
    window: Arc<WindowRing>,
    /// Cloned handle to the session engine's attribution grid — reads
    /// the same relaxed cells the worker frames flush into, so `/profile`
    /// reconciles exactly with the shutdown report's `profile` block.
    profiler: Profiler,
    level: AtomicU64,
    budget_overruns: AtomicU64,
    degraded: AtomicU64,
    skipped: AtomicU64,
    shared_reuses: AtomicU64,
}

fn level_code(l: DegradeLevel) -> u64 {
    match l {
        DegradeLevel::Full => 0,
        DegradeLevel::CountOnly => 1,
        DegradeLevel::Skipped => 2,
    }
}

fn level_name(code: u64) -> &'static str {
    match code {
        0 => "full",
        1 => "count-only",
        _ => "skipped",
    }
}

/// State shared between the owner thread, the HTTP thread, and the
/// watchdog thread.
struct TelemetryShared {
    start: Instant,
    stall_deadline: Duration,
    queue: Arc<AdmissionQueue>,
    /// The service's always-on flight recorder (owner thread writes; the
    /// watchdog and HTTP threads only snapshot).
    flight: Arc<FlightRecorder>,
    /// Scrape-side session registry (locked only on add/remove/scrape).
    sessions: Mutex<Vec<Arc<SessionTelemetry>>>,
    /// Service-level window: queue-depth gauges sampled once per update.
    service_window: WindowRing,
    processed: AtomicU64,
    noops: AtomicU64,
    invalid: AtomicU64,
    /// ns-since-start of the last completed update (0 = none yet).
    last_progress_ns: AtomicU64,
    /// ns-since-start when the in-flight update began (0 = idle).
    inflight_since_ns: AtomicU64,
    inflight_index: AtomicU64,
    /// Flight span of the in-flight update (0 = none).
    inflight_span: AtomicU64,
    /// Flight span of the last completed update (0 = none yet).
    last_done_span: AtomicU64,
    /// Shared-index mirror: distinct sub-patterns, delta-cache hits,
    /// delta-cache misses.
    shared_subpatterns: AtomicU64,
    shared_hits: AtomicU64,
    shared_misses: AtomicU64,
    /// Per-shard occupancy/applier mirror (one entry on monolithic
    /// backends), refreshed by the owner thread after every update.
    shards: Mutex<Vec<ShardStats>>,
    stalled: AtomicBool,
    stalls_total: AtomicU64,
    diagnostics: Mutex<Vec<StallDiagnostic>>,
    dossiers: Mutex<Vec<StallDossier>>,
    shutdown: AtomicBool,
}

impl TelemetryShared {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    fn healthy(&self) -> bool {
        !ldb(&self.stalled)
    }

    fn ready(&self) -> (bool, &'static str) {
        if ldb(&self.stalled) {
            (false, "stalled")
        } else if self.queue.is_closed() {
            (false, "queue closed")
        } else if self.queue.len() >= self.queue.capacity() {
            (false, "queue full")
        } else {
            (true, "ready")
        }
    }

    fn note_stall(&self, d: StallDiagnostic) {
        self.stalls_total.fetch_add(1, Ordering::Relaxed);
        stb(&self.stalled, true);
        self.capture_dossier(&d);
        let mut diags = lock(&self.diagnostics);
        if diags.len() < MAX_DIAGNOSTICS {
            diags.push(d);
        }
    }

    /// Build the forensic dossier for a freshly flagged stall: resolve
    /// the implicated span, pull its stage path out of the flight rings,
    /// and record per-session ladder state. Watchdog-thread only — the
    /// full-ring snapshot and allocations here are off the hot path by
    /// design.
    fn capture_dossier(&self, d: &StallDiagnostic) {
        let span = match d.kind {
            StallKind::StuckUpdate => SpanId(ld(&self.inflight_span)),
            StallKind::WedgedQueue => SpanId(ld(&self.last_done_span)),
        };
        let path = if span.is_some() {
            self.flight.span_path(span)
        } else {
            Vec::new()
        };
        let sessions = lock(&self.sessions)
            .iter()
            .map(|s| (s.id, s.label.clone(), level_name(ld(&s.level))))
            .collect();
        let mut dossiers = lock(&self.dossiers);
        if dossiers.len() >= MAX_DOSSIERS {
            dossiers.remove(0);
        }
        dossiers.push(StallDossier {
            diagnostic: d.clone(),
            span,
            path,
            spans_minted: self.flight.spans_minted(),
            sessions,
        });
    }
}

/// The running telemetry plane: shared state plus the HTTP and watchdog
/// thread handles. Owned by [`crate::CsmService`]; stopping (or dropping)
/// it joins both threads.
pub struct ServiceTelemetry {
    shared: Arc<TelemetryShared>,
    /// Owner-thread mirror, index-aligned with `CsmService::sessions` —
    /// lets the per-update sync run without touching the registry lock.
    mirror: Vec<Arc<SessionTelemetry>>,
    window_cfg: WindowConfig,
    addr: SocketAddr,
    server: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

/// A cheap, cloneable view of the telemetry plane (bound address and
/// health) for callers that don't own the service.
#[derive(Clone)]
pub struct TelemetryHandle {
    shared: Arc<TelemetryShared>,
    addr: SocketAddr,
}

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryHandle")
            .field("addr", &self.addr)
            .field("healthy", &self.shared.healthy())
            .field("stalls", &ld(&self.shared.stalls_total))
            .finish()
    }
}

impl TelemetryHandle {
    /// The address the HTTP listener actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Is the service currently free of watchdog-flagged stalls?
    pub fn healthy(&self) -> bool {
        self.shared.healthy()
    }

    /// Stalls flagged so far (`paracosm_watchdog_stalls_total`).
    pub fn stalls(&self) -> u64 {
        ld(&self.shared.stalls_total)
    }

    /// Stall diagnostics recorded so far (capped at [`MAX_DIAGNOSTICS`]).
    pub fn diagnostics(&self) -> Vec<StallDiagnostic> {
        lock(&self.shared.diagnostics).clone()
    }

    /// Stall dossiers captured so far (the last [`MAX_DOSSIERS`], oldest
    /// first) — the same payload `GET /debug/stalls` serves.
    pub fn dossiers(&self) -> Vec<StallDossier> {
        lock(&self.shared.dossiers).clone()
    }
}

impl ServiceTelemetry {
    /// Bind the listener, then spawn the HTTP and watchdog threads.
    pub(crate) fn start(
        cfg: TelemetryConfig,
        queue: Arc<AdmissionQueue>,
        flight: Arc<FlightRecorder>,
    ) -> CsmResult<ServiceTelemetry> {
        let listener = TcpListener::bind(cfg.addr.as_str()).map_err(|e| bind_err(&cfg.addr, e))?;
        let addr = listener.local_addr().map_err(|e| bind_err(&cfg.addr, e))?;
        let shared = Arc::new(TelemetryShared {
            start: Instant::now(),
            stall_deadline: cfg.stall_deadline.max(Duration::from_millis(1)),
            queue,
            flight,
            sessions: Mutex::new(Vec::new()),
            service_window: WindowRing::new(cfg.window),
            processed: AtomicU64::new(0),
            noops: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            last_progress_ns: AtomicU64::new(0),
            inflight_since_ns: AtomicU64::new(0),
            inflight_index: AtomicU64::new(0),
            inflight_span: AtomicU64::new(0),
            last_done_span: AtomicU64::new(0),
            shared_subpatterns: AtomicU64::new(0),
            shared_hits: AtomicU64::new(0),
            shared_misses: AtomicU64::new(0),
            shards: Mutex::new(Vec::new()),
            stalled: AtomicBool::new(false),
            stalls_total: AtomicU64::new(0),
            diagnostics: Mutex::new(Vec::new()),
            dossiers: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
        });

        let srv_shared = Arc::clone(&shared);
        let server = std::thread::spawn(move || serve_loop(listener, &srv_shared));
        let wd_shared = Arc::clone(&shared);
        let watchdog = std::thread::spawn(move || watchdog_loop(&wd_shared));

        Ok(ServiceTelemetry {
            shared,
            mirror: Vec::new(),
            window_cfg: cfg.window,
            addr,
            server: Some(server),
            watchdog: Some(watchdog),
        })
    }

    /// A cloneable handle (address, health, diagnostics).
    pub fn handle(&self) -> TelemetryHandle {
        TelemetryHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
        }
    }

    /// The address the HTTP listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stalls flagged so far.
    pub fn stalls(&self) -> u64 {
        ld(&self.shared.stalls_total)
    }

    /// Windowize a session's engine and add it to the registry.
    pub(crate) fn register_session<G: GraphShard>(&mut self, s: &mut Session<G>) {
        let window = s.eng.enable_window(self.window_cfg);
        let st_entry = Arc::new(SessionTelemetry {
            id: s.id,
            label: s.label.clone(),
            algo: s.eng.algorithm().name().to_string(),
            window,
            profiler: s.eng.profiler().clone(),
            level: AtomicU64::new(level_code(s.level())),
            budget_overruns: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            shared_reuses: AtomicU64::new(0),
        });
        self.mirror.push(Arc::clone(&st_entry));
        lock(&self.shared.sessions).push(st_entry);
    }

    /// Drop a removed session from the registry (its final report already
    /// went to the caller of `remove_session`).
    pub(crate) fn unregister_session(&mut self, id: u64) {
        self.mirror.retain(|s| s.id != id);
        lock(&self.shared.sessions).retain(|s| s.id != id);
    }

    /// Owner-thread hook: an update is about to fan out. Stamps the
    /// in-flight marker (watchdog input) and samples the queue depth into
    /// the service window.
    pub(crate) fn begin_update(&self, index: u64, queue_depth: u64, span: SpanId) {
        st(&self.shared.inflight_index, index);
        st(&self.shared.inflight_span, span.0);
        st(&self.shared.inflight_since_ns, self.shared.now_ns().max(1));
        self.shared.service_window.record_queue_depth(queue_depth);
    }

    /// Owner-thread hook: the update finished across all sessions.
    /// Clears the in-flight marker, stamps progress, and refreshes the
    /// service/session mirrors (a handful of relaxed stores).
    pub(crate) fn end_update<G: GraphShard>(
        &self,
        processed: u64,
        noops: u64,
        invalid: u64,
        sessions: &[Session<G>],
        shared_stats: SharedIndexStats,
        shard_stats: Vec<ShardStats>,
    ) {
        st(&self.shared.last_progress_ns, self.shared.now_ns().max(1));
        st(&self.shared.last_done_span, ld(&self.shared.inflight_span));
        st(&self.shared.inflight_span, 0);
        st(&self.shared.inflight_since_ns, 0);
        st(&self.shared.processed, processed);
        st(&self.shared.noops, noops);
        st(&self.shared.invalid, invalid);
        st(&self.shared.shared_subpatterns, shared_stats.subpatterns);
        st(&self.shared.shared_hits, shared_stats.hits);
        st(&self.shared.shared_misses, shared_stats.misses);
        *lock(&self.shared.shards) = shard_stats;
        for (s, m) in sessions.iter().zip(self.mirror.iter()) {
            let (level, overruns, degraded, skipped, reuses) = s.telemetry_counters();
            st(&m.level, level_code(level));
            st(&m.budget_overruns, overruns);
            st(&m.degraded, degraded);
            st(&m.skipped, skipped);
            st(&m.shared_reuses, reuses);
        }
    }

    /// Signal both threads and join them. Idempotent; also runs on drop.
    pub(crate) fn stop(&mut self) {
        stb(&self.shared.shutdown, true);
        // Wake the accept loop with a throwaway connection and the
        // watchdog out of its park, so joining costs microseconds rather
        // than a full watchdog tick.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(h) = self.watchdog.take() {
            h.thread().unpark();
            let _ = h.join();
        }
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServiceTelemetry {
    fn drop(&mut self) {
        self.stop();
    }
}

fn bind_err(addr: &str, e: std::io::Error) -> CsmError {
    CsmError::ConfigInvalid {
        field: "telemetry_addr",
        reason: format!("cannot bind {addr}: {e}"),
    }
}

// ----------------------------------------------------------------- watchdog

/// Watchdog state machine (DESIGN.md §3.10): HEALTHY → STALLED on either
/// trigger, STALLED → HEALTHY as soon as neither holds. `stalls_total`
/// counts HEALTHY→STALLED transitions only.
fn watchdog_loop(shared: &TelemetryShared) {
    let deadline = shared.stall_deadline;
    let tick = (deadline / 4).clamp(Duration::from_millis(5), Duration::from_millis(100));
    // (first-seen ns, progress stamp at first sight) of the current
    // non-empty-queue-while-idle episode.
    let mut pending: Option<(u64, u64)> = None;
    while !ldb(&shared.shutdown) {
        // Parked rather than slept so `stop()` can unpark for a prompt
        // join instead of waiting out a tick (spurious wakes just re-poll).
        std::thread::park_timeout(tick);
        let now = shared.now_ns();
        let deadline_ns = deadline.as_nanos().min(u64::MAX as u128) as u64;
        let inflight = ld(&shared.inflight_since_ns);
        let progress = ld(&shared.last_progress_ns);
        let depth = shared.queue.len() as u64;

        let mut stall: Option<StallDiagnostic> = None;
        if inflight != 0 && now.saturating_sub(inflight) > deadline_ns {
            pending = None;
            stall = Some(StallDiagnostic {
                kind: StallKind::StuckUpdate,
                update_index: Some(ld(&shared.inflight_index)),
                waited: Duration::from_nanos(now.saturating_sub(inflight)),
                queue_depth: depth,
                at: Duration::from_nanos(now),
            });
        } else if inflight == 0 && depth > 0 && !shared.queue.is_closed() {
            match pending {
                Some((t0, p0)) if p0 == progress => {
                    if now.saturating_sub(t0) > deadline_ns {
                        stall = Some(StallDiagnostic {
                            kind: StallKind::WedgedQueue,
                            update_index: None,
                            waited: Duration::from_nanos(now.saturating_sub(t0)),
                            queue_depth: depth,
                            at: Duration::from_nanos(now),
                        });
                    }
                }
                _ => pending = Some((now, progress)),
            }
        } else {
            pending = None;
        }

        match stall {
            Some(d) => {
                if shared.healthy() {
                    shared.note_stall(d);
                }
            }
            None => stb(&shared.stalled, false),
        }
    }
}

// -------------------------------------------------------------- HTTP server

fn serve_loop(listener: TcpListener, shared: &TelemetryShared) {
    for conn in listener.incoming() {
        if ldb(&shared.shutdown) {
            break;
        }
        if let Ok(stream) = conn {
            // One request per connection, serially: scrape traffic is one
            // poll every few seconds, not a web workload.
            let _ = handle_conn(stream, shared);
        }
    }
}

fn handle_conn(mut stream: TcpStream, shared: &TelemetryShared) -> std::io::Result<()> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 4096];
    let mut len = 0usize;
    // Read until the end of the request head; everything we route on is in
    // the first line, so a truncated header block is fine past 4 KiB.
    while len < buf.len() {
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let path = target.split('?').next().unwrap_or("");

    if method != "GET" {
        return respond(
            &mut stream,
            405,
            "Method Not Allowed",
            "text/plain",
            "GET only\n",
        );
    }
    match path {
        "/metrics" => {
            let body = render_prometheus(shared);
            respond(&mut stream, 200, "OK", "text/plain; version=0.0.4", &body)
        }
        "/healthz" => {
            if shared.healthy() {
                respond(&mut stream, 200, "OK", "text/plain", "ok\n")
            } else {
                respond(
                    &mut stream,
                    503,
                    "Service Unavailable",
                    "text/plain",
                    "stalled\n",
                )
            }
        }
        "/readyz" => {
            let (ready, why) = shared.ready();
            let body = format!("{why}\n");
            if ready {
                respond(&mut stream, 200, "OK", "text/plain", &body)
            } else {
                respond(&mut stream, 503, "Service Unavailable", "text/plain", &body)
            }
        }
        "/sessions" => {
            let body = render_sessions_json(shared);
            respond(&mut stream, 200, "OK", "application/json", &body)
        }
        "/debug/flight" => {
            let body = render_flight_json(shared);
            respond(&mut stream, 200, "OK", "application/json", &body)
        }
        "/debug/stalls" => {
            let body = render_stalls_json(shared);
            respond(&mut stream, 200, "OK", "application/json", &body)
        }
        "/profile" => {
            let body = render_profile_json(shared);
            respond(&mut stream, 200, "OK", "application/json", &body)
        }
        other => {
            if let Some(rest) = other.strip_prefix("/debug/explain/") {
                return match rest.parse::<u64>() {
                    Ok(id) => match render_explain_json(shared, id) {
                        Some(body) => respond(&mut stream, 200, "OK", "application/json", &body),
                        None => respond(
                            &mut stream,
                            404,
                            "Not Found",
                            "text/plain",
                            "no such session\n",
                        ),
                    },
                    Err(_) => respond(
                        &mut stream,
                        400,
                        "Bad Request",
                        "text/plain",
                        "bad session id\n",
                    ),
                };
            }
            respond(&mut stream, 404, "Not Found", "text/plain", "not found\n")
        }
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    ctype: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

// ---------------------------------------------------------------- exporters

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Render the Prometheus text exposition: service-level counters/gauges
/// plus, per session, lifetime `_total` series (exact — they reconcile
/// with the shutdown `ServiceReport`) and windowed quantiles/rates.
fn render_prometheus(shared: &TelemetryShared) -> String {
    let mut o = String::with_capacity(4096);
    let up = if shared.healthy() { 1 } else { 0 };
    let q = &shared.queue;
    let sw = shared.service_window.snapshot();

    o.push_str("# HELP paracosm_up 1 when no stall is flagged, 0 while stalled.\n");
    o.push_str("# TYPE paracosm_up gauge\n");
    o.push_str(&format!("paracosm_up {up}\n"));
    o.push_str("# TYPE paracosm_uptime_seconds gauge\n");
    o.push_str(&format!(
        "paracosm_uptime_seconds {}\n",
        secs(shared.start.elapsed())
    ));

    o.push_str("# HELP paracosm_queue_depth Updates admitted but not yet processed.\n");
    o.push_str("# TYPE paracosm_queue_depth gauge\n");
    o.push_str(&format!("paracosm_queue_depth {}\n", q.len()));
    o.push_str("# TYPE paracosm_queue_capacity gauge\n");
    o.push_str(&format!("paracosm_queue_capacity {}\n", q.capacity()));
    o.push_str("# HELP paracosm_queue_depth_window_avg Mean sampled queue depth over the rolling window.\n");
    o.push_str("# TYPE paracosm_queue_depth_window_avg gauge\n");
    o.push_str(&format!(
        "paracosm_queue_depth_window_avg {}\n",
        sw.depth_avg()
    ));
    o.push_str("# TYPE paracosm_queue_depth_window_max gauge\n");
    o.push_str(&format!(
        "paracosm_queue_depth_window_max {}\n",
        sw.depth_max
    ));

    for (name, v) in [
        ("paracosm_admitted_total", q.admitted()),
        ("paracosm_shed_total", q.shed()),
        ("paracosm_rejected_total", q.rejected()),
        ("paracosm_processed_total", ld(&shared.processed)),
        ("paracosm_noops_total", ld(&shared.noops)),
        ("paracosm_invalid_total", ld(&shared.invalid)),
        ("paracosm_watchdog_stalls_total", ld(&shared.stalls_total)),
    ] {
        o.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
    }

    o.push_str(
        "# HELP paracosm_shared_subpatterns Distinct canonical sub-patterns across \
         registered sessions.\n",
    );
    o.push_str("# TYPE paracosm_shared_subpatterns gauge\n");
    o.push_str(&format!(
        "paracosm_shared_subpatterns {}\n",
        ld(&shared.shared_subpatterns)
    ));
    o.push_str(
        "# HELP paracosm_shared_hits_total \u{394}M deltas absorbed from the cross-session \
         cache instead of enumerated.\n",
    );
    for (name, v) in [
        ("paracosm_shared_hits_total", ld(&shared.shared_hits)),
        ("paracosm_shared_misses_total", ld(&shared.shared_misses)),
    ] {
        o.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
    }

    // Per-graph-shard occupancy and applier depth (one `shard="0"` series
    // per family on a monolithic backend).
    let shards = lock(&shared.shards).clone();
    if !shards.is_empty() {
        o.push_str(
            "# HELP paracosm_shard_owned_vertices Alive vertices owned by each graph shard.\n",
        );
        o.push_str("# TYPE paracosm_shard_owned_vertices gauge\n");
        for sh in &shards {
            o.push_str(&format!(
                "paracosm_shard_owned_vertices{{shard=\"{}\"}} {}\n",
                sh.shard, sh.owned_vertices
            ));
        }
        o.push_str(
            "# HELP paracosm_shard_half_edges Half-edges stored per shard (each undirected \
             edge counts once per endpoint owner).\n",
        );
        o.push_str("# TYPE paracosm_shard_half_edges gauge\n");
        for sh in &shards {
            o.push_str(&format!(
                "paracosm_shard_half_edges{{shard=\"{}\"}} {}\n",
                sh.shard, sh.half_edges
            ));
        }
        o.push_str(
            "# HELP paracosm_shard_applied_ops_total Half-edge ops routed through each \
             shard's single-writer applier.\n",
        );
        o.push_str("# TYPE paracosm_shard_applied_ops_total counter\n");
        for sh in &shards {
            o.push_str(&format!(
                "paracosm_shard_applied_ops_total{{shard=\"{}\"}} {}\n",
                sh.shard, sh.applied_ops
            ));
        }
    }

    let sessions = lock(&shared.sessions).clone();
    for s in &sessions {
        let labels = format!("session=\"{}\",label=\"{}\"", s.id, escape_label(&s.label));
        let w = &s.window;
        for (name, c) in [
            ("paracosm_session_updates_total", WindowCounter::Updates),
            ("paracosm_session_delta_pos_total", WindowCounter::Positives),
            ("paracosm_session_delta_neg_total", WindowCounter::Negatives),
            ("paracosm_session_noops_total", WindowCounter::Noops),
            ("paracosm_session_skipped_total", WindowCounter::Skipped),
        ] {
            o.push_str(&format!("{name}{{{labels}}} {}\n", w.total(c)));
        }
        for (verdict, c) in [
            ("label_safe", WindowCounter::VerdictLabelSafe),
            ("degree_safe", WindowCounter::VerdictDegreeSafe),
            ("ads_safe", WindowCounter::VerdictAdsSafe),
            ("unsafe", WindowCounter::VerdictUnsafe),
        ] {
            o.push_str(&format!(
                "paracosm_session_verdict_total{{{labels},verdict=\"{verdict}\"}} {}\n",
                w.total(c)
            ));
        }
        o.push_str(&format!(
            "paracosm_session_degrade_level{{{labels}}} {}\n",
            ld(&s.level)
        ));
        o.push_str(&format!(
            "paracosm_session_budget_overruns_total{{{labels}}} {}\n",
            ld(&s.budget_overruns)
        ));
        o.push_str(&format!(
            "paracosm_session_degraded_total{{{labels}}} {}\n",
            ld(&s.degraded)
        ));
        o.push_str(&format!(
            "paracosm_session_shared_reuses_total{{{labels}}} {}\n",
            ld(&s.shared_reuses)
        ));

        let snap = w.snapshot();
        o.push_str(&format!(
            "paracosm_session_window_seconds{{{labels}}} {}\n",
            secs(snap.span)
        ));
        o.push_str(&format!(
            "paracosm_session_window_updates{{{labels}}} {}\n",
            snap.count(WindowCounter::Updates)
        ));
        o.push_str(&format!(
            "paracosm_session_window_update_rate{{{labels}}} {}\n",
            snap.rate(WindowCounter::Updates)
        ));
        let [p50, p95, p99, p999] = snap.quantiles();
        for (qv, d) in [("0.5", p50), ("0.95", p95), ("0.99", p99), ("0.999", p999)] {
            o.push_str(&format!(
                "paracosm_session_window_latency_seconds{{{labels},quantile=\"{qv}\"}} {}\n",
                secs(d)
            ));
        }
        o.push_str(&format!(
            "paracosm_session_window_latency_count{{{labels}}} {}\n",
            snap.latency.count()
        ));
    }

    // Profiler attribution grid, one series per live (order, depth) cell.
    // Families are grouped so each `# TYPE` header appears exactly once
    // per exposition regardless of how many sessions profile.
    let profs: Vec<(String, QueryProfile)> = sessions
        .iter()
        .filter_map(|s| {
            s.profiler.snapshot().map(|p| {
                (
                    format!("session=\"{}\",label=\"{}\"", s.id, escape_label(&s.label)),
                    p,
                )
            })
        })
        .collect();
    if !profs.is_empty() {
        for (ci, family) in PROFILE_FAMILIES.iter().enumerate() {
            o.push_str(&format!("# TYPE {family} counter\n"));
            for (labels, p) in &profs {
                for ord in &p.orders {
                    for d in &ord.depths {
                        let v = d.counters[ci];
                        if v == 0 {
                            continue;
                        }
                        o.push_str(&format!(
                            "{family}{{{labels},order=\"{}\",seed=\"{}-{}\",depth=\"{}\"}} {v}\n",
                            ord.index, ord.seed.0, ord.seed.1, d.depth
                        ));
                    }
                }
            }
        }
    }
    o
}

/// The `paracosm_profile_*` metric families, indexed by
/// [`paracosm_core::ProfileCounter`] discriminant (same order as
/// [`paracosm_core::PROFILE_COUNTER_NAMES`]).
const PROFILE_FAMILIES: [&str; NUM_PROFILE_COUNTERS] = [
    "paracosm_profile_slice_width",
    "paracosm_profile_probe_steps",
    "paracosm_profile_gallop_steps",
    "paracosm_profile_extensions",
    "paracosm_profile_deadline_hits",
    "paracosm_profile_invocations",
];

/// Render the `/profile` JSON aggregate: one [`QueryProfile`] document
/// per session (`null` for unprofiled sessions). Totals reconcile
/// exactly with the shutdown `ServiceReport`'s per-session `profile`
/// blocks — both read the same grid (schema documented in DESIGN.md
/// §3.15; `schema_version` 1).
fn render_profile_json(shared: &TelemetryShared) -> String {
    let sessions = lock(&shared.sessions).clone();
    let mut o = String::with_capacity(1024);
    o.push_str("{\"schema_version\":1");
    o.push_str(&format!(",\"uptime_ns\":{}", shared.now_ns()));
    o.push_str(",\"sessions\":[");
    for (i, s) in sessions.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "{{\"id\":{},\"label\":\"{}\",\"level\":\"{}\",\"profile\":",
            s.id,
            json_escape(&s.label),
            s.profiler.level().name()
        ));
        match s.profiler.snapshot() {
            Some(p) => o.push_str(&p.to_json()),
            None => o.push_str("null"),
        }
        o.push('}');
    }
    o.push_str("]}");
    o
}

/// Render the `/debug/explain/<session>` EXPLAIN document: the session's
/// oriented query edges ranked by attributed enumeration cost, each depth
/// carrying its observed cardinality and kernel counters.
/// `None` when no session has that id (schema documented in DESIGN.md
/// §3.15; `schema_version` 1).
fn render_explain_json(shared: &TelemetryShared, id: u64) -> Option<String> {
    let s = lock(&shared.sessions)
        .iter()
        .find(|s| s.id == id)
        .cloned()?;
    let mut o = String::with_capacity(1024);
    o.push_str(&format!(
        "{{\"schema_version\":1,\"session\":{},\"label\":\"{}\",\"level\":\"{}\",\"explain\":",
        s.id,
        json_escape(&s.label),
        s.profiler.level().name()
    ));
    match s.profiler.snapshot() {
        Some(p) => o.push_str(&p.explain_json()),
        None => o.push_str("null"),
    }
    o.push('}');
    Some(o)
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render the `/sessions` JSON snapshot (schema documented in DESIGN.md
/// §3.10; `schema_version` 1).
fn render_sessions_json(shared: &TelemetryShared) -> String {
    let q = &shared.queue;
    let mut o = String::with_capacity(1024);
    o.push_str("{\"schema_version\":1");
    o.push_str(&format!(",\"uptime_ns\":{}", shared.now_ns()));
    o.push_str(&format!(",\"healthy\":{}", shared.healthy()));
    o.push_str(&format!(",\"stalls\":{}", ld(&shared.stalls_total)));
    o.push_str(&format!(",\"processed\":{}", ld(&shared.processed)));
    o.push_str(&format!(",\"noops\":{}", ld(&shared.noops)));
    o.push_str(&format!(",\"invalid\":{}", ld(&shared.invalid)));
    o.push_str(&format!(
        ",\"shared\":{{\"subpatterns\":{},\"hits\":{},\"misses\":{}}}",
        ld(&shared.shared_subpatterns),
        ld(&shared.shared_hits),
        ld(&shared.shared_misses)
    ));
    o.push_str(&format!(
        ",\"queue\":{{\"depth\":{},\"capacity\":{},\"policy\":\"{}\",\"admitted\":{},\
         \"shed\":{},\"rejected\":{},\"closed\":{}}}",
        q.len(),
        q.capacity(),
        q.policy().name(),
        q.admitted(),
        q.shed(),
        q.rejected(),
        q.is_closed()
    ));
    o.push_str(",\"sessions\":[");
    let sessions = lock(&shared.sessions).clone();
    for (i, s) in sessions.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let w = &s.window;
        let snap = w.snapshot();
        let [p50, p95, p99, p999] = snap.quantiles();
        o.push_str(&format!(
            "{{\"id\":{},\"label\":\"{}\",\"algo\":\"{}\",\"level\":\"{}\",\
             \"updates\":{},\"delta_pos\":{},\"delta_neg\":{},\"noops\":{},\"skipped\":{},\
             \"budget_overruns\":{},\"degraded\":{},\"shared_reuses\":{},\
             \"window\":{{\"span_ns\":{},\"updates\":{},\"rate_per_sec\":{},\
             \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}}}",
            s.id,
            json_escape(&s.label),
            json_escape(&s.algo),
            level_name(ld(&s.level)),
            w.total(WindowCounter::Updates),
            w.total(WindowCounter::Positives),
            w.total(WindowCounter::Negatives),
            w.total(WindowCounter::Noops),
            w.total(WindowCounter::Skipped),
            ld(&s.budget_overruns),
            ld(&s.degraded),
            ld(&s.shared_reuses),
            snap.span.as_nanos(),
            snap.count(WindowCounter::Updates),
            snap.rate(WindowCounter::Updates),
            p50.as_nanos(),
            p95.as_nanos(),
            p99.as_nanos(),
            p999.as_nanos()
        ));
    }
    o.push_str("],\"diagnostics\":[");
    let diags = lock(&shared.diagnostics).clone();
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "{{\"kind\":\"{}\",\"update_index\":{},\"waited_ns\":{},\"queue_depth\":{},\
             \"at_ns\":{}}}",
            d.kind.name(),
            d.update_index
                .map(|i| i.to_string())
                .unwrap_or_else(|| "null".to_string()),
            d.waited.as_nanos(),
            d.queue_depth,
            d.at.as_nanos()
        ));
    }
    o.push_str("]}");
    o
}

/// One flight event as JSON (shared by `/debug/flight` and the dossier
/// span paths in `/debug/stalls`).
fn flight_event_json(e: &FlightEvent) -> String {
    format!(
        "{{\"seq\":{},\"shard\":{},\"span\":{},\"stage\":\"{}\",\"phase\":\"{}\",\
         \"kind\":\"{}\",\"session\":{},\"ts_ns\":{},\"arg\":{}}}",
        e.seq,
        e.shard,
        e.span.0,
        e.stage.name(),
        if e.begin { "begin" } else { "end" },
        e.kind.name(),
        e.session,
        e.ts_ns,
        e.arg
    )
}

/// Render the `/debug/flight` JSON dump: recorder shape plus every
/// retained event per shard (schema documented in DESIGN.md §3.12;
/// `schema_version` 1).
fn render_flight_json(shared: &TelemetryShared) -> String {
    let snap = shared.flight.snapshot();
    let mut o = String::with_capacity(4096);
    o.push_str("{\"schema_version\":1");
    o.push_str(&format!(",\"uptime_ns\":{}", shared.now_ns()));
    o.push_str(&format!(",\"capacity\":{}", shared.flight.capacity()));
    o.push_str(&format!(
        ",\"spans_minted\":{}",
        shared.flight.spans_minted()
    ));
    o.push_str(&format!(",\"inflight_span\":{}", ld(&shared.inflight_span)));
    o.push_str(&format!(
        ",\"last_done_span\":{}",
        ld(&shared.last_done_span)
    ));
    o.push_str(",\"shards\":[");
    for (i, (events, dropped)) in snap.shards.iter().zip(snap.dropped.iter()).enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "{{\"shard\":{i},\"dropped\":{dropped},\"events\":["
        ));
        for (j, e) in events.iter().enumerate() {
            if j > 0 {
                o.push(',');
            }
            o.push_str(&flight_event_json(e));
        }
        o.push_str("]}");
    }
    o.push_str("]}");
    o
}

/// Render the `/debug/stalls` JSON: the last-[`MAX_DOSSIERS`] stall
/// dossiers, oldest first (schema documented in DESIGN.md §3.12;
/// `schema_version` 1).
fn render_stalls_json(shared: &TelemetryShared) -> String {
    let dossiers = lock(&shared.dossiers).clone();
    let mut o = String::with_capacity(1024);
    o.push_str("{\"schema_version\":1");
    o.push_str(&format!(",\"stalls_total\":{}", ld(&shared.stalls_total)));
    o.push_str(&format!(",\"healthy\":{}", shared.healthy()));
    o.push_str(",\"dossiers\":[");
    for (i, d) in dossiers.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "{{\"kind\":\"{}\",\"update_index\":{},\"waited_ns\":{},\
             \"queue_depth\":{},\"at_ns\":{},\"span\":{},\"spans_minted\":{},\
             \"path\":[",
            d.diagnostic.kind.name(),
            d.diagnostic
                .update_index
                .map(|i| i.to_string())
                .unwrap_or_else(|| "null".to_string()),
            d.diagnostic.waited.as_nanos(),
            d.diagnostic.queue_depth,
            d.diagnostic.at.as_nanos(),
            d.span.0,
            d.spans_minted,
        ));
        for (j, e) in d.path.iter().enumerate() {
            if j > 0 {
                o.push(',');
            }
            o.push_str(&flight_event_json(e));
        }
        o.push_str("],\"sessions\":[");
        for (j, (id, label, level)) in d.sessions.iter().enumerate() {
            if j > 0 {
                o.push(',');
            }
            o.push_str(&format!(
                "{{\"id\":{id},\"label\":\"{}\",\"level\":\"{level}\"}}",
                json_escape(label)
            ));
        }
        o.push_str("]}");
    }
    o.push_str("]}");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_kind_names_are_stable() {
        assert_eq!(StallKind::StuckUpdate.name(), "stuck-update");
        assert_eq!(StallKind::WedgedQueue.name(), "wedged-queue");
    }

    #[test]
    fn level_codes_roundtrip() {
        for l in [
            DegradeLevel::Full,
            DegradeLevel::CountOnly,
            DegradeLevel::Skipped,
        ] {
            assert_eq!(level_name(level_code(l)), l.name());
        }
    }

    #[test]
    fn label_and_json_escaping() {
        assert_eq!(escape_label("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
    }

    #[test]
    fn diagnostics_describe_both_kinds() {
        let stuck = StallDiagnostic {
            kind: StallKind::StuckUpdate,
            update_index: Some(7),
            waited: Duration::from_millis(80),
            queue_depth: 3,
            at: Duration::from_secs(1),
        };
        assert!(stuck.describe().contains("update #7"));
        let wedged = StallDiagnostic {
            kind: StallKind::WedgedQueue,
            update_index: None,
            waited: Duration::from_millis(120),
            queue_depth: 5,
            at: Duration::from_secs(2),
        };
        assert!(wedged.describe().contains("5 queued"));
    }
}
