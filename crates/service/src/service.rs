//! The multi-session serving loop: one shared data graph, one admission
//! queue, many standing query sessions.
//!
//! [`CsmService`] owns the [`DataGraph`] and applies each admitted update
//! to it exactly once, then fans the inter-update classifier and
//! `Find_Matches` out across every registered session. Safety is judged
//! *per session* (each query has its own labels, degrees and candidate
//! sets), so one update may be label-safe for one session and unsafe for
//! another; the soundness contract of the classifier guarantees that every
//! session's ΔM equals what a standalone [`paracosm_core::ParaCosm`] run
//! of that query over the same stream would report — the workspace's
//! differential tests enforce exactly this.
//!
//! The cross-session [`crate::shared`] index is the classifier on every
//! backend: one union lookup judges stage 1 for all sessions, stage 2 and
//! ΔM run once per share group, and stage-3 probes share one memo. Debug
//! builds re-check each of its verdicts against the session's own scan.
//!
//! An edge update costs work only in the sessions it can touch. The
//! union lookup lists the sessions subscribed to the edge's label triple;
//! those, plus the sessions that cannot defer (a rolling window is
//! installed), are *visited*: classified, maintained, enumerated and
//! booked in their engines. Every other session is label-safe and gets
//! its observer callback alone, with one observation built per update,
//! still in session order. Its bookkeeping is derived instead of counted:
//! the service tallies its valid, non-no-op edge updates and their apply
//! time, each session records the tally at its last flush plus the
//! updates on which it was visited, and a flush folds the difference into
//! the engine ([`paracosm_core::Engine::flush_label_safe`]).
//!
//! Per-update call conventions mirror the standalone engine (paper
//! Algorithm 1): inserts apply the edge, maintain each non-label-safe
//! session's ADS, then enumerate; deletions classify and enumerate on the
//! pre-removal graph, then remove and maintain. The no-op check's edge
//! probe is the only one: the splice reuses its answer.

use crate::queue::{AdmissionQueue, Backpressure, IngestHandle};
use crate::session::{EdgeTally, Session, SessionFind, SessionSpec};
use crate::shared::{SharedIndex, SharedIndexStats};
use crate::telemetry::{ServiceTelemetry, TelemetryConfig, TelemetryHandle};
use csm_graph::{DataGraph, EdgeUpdate, GraphShard, ShardStats, Update};
use paracosm_core::{
    AdsChange, Classified, CsmAlgorithm, CsmError, CsmResult, FanKind, FlightConfig,
    FlightRecorder, FlightStage, RunReport, SafeStage, SpanId, StageSnapshot, StreamObserver,
    UpdateObservation, SESSION_AGGREGATE,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Construction parameters for a [`CsmService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Admission queue capacity (must be >= 1).
    pub queue_capacity: usize,
    /// Full-queue behavior.
    pub policy: Backpressure,
    /// Per-shard slot capacity of the always-on flight recorder (see
    /// [`paracosm_core::FlightRecorder`]); the recorder keeps the last
    /// `capacity` span events per shard for stall forensics and the
    /// `/debug/flight` endpoint. Rounded up to a power of two; values
    /// below 2 are clamped.
    pub flight_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            queue_capacity: 1024,
            policy: Backpressure::Block,
            flight_capacity: 1024,
        }
    }
}

/// Pre-removal disposition of one edge deletion for one visited session.
#[derive(Clone, Copy)]
enum DeleteStage {
    /// Label-safe: no ADS maintenance, no enumeration.
    LabelSafe,
    /// Safe at stage 2 or 3: maintain the ADS after removal, no search.
    Maintain(Classified),
    /// Unsafe: matches were enumerated (or absorbed) pre-removal.
    Found(SessionFind, FanKind),
}

/// One visited session's pre-removal state of an edge deletion: its stage
/// marker, the time classification and search took, and the disposition.
type DeletePre = (StageSnapshot, Duration, DeleteStage);

/// Per-session accumulator for a vertex-deletion cascade.
#[derive(Clone, Copy, Default)]
struct VertexAcc {
    negatives: u64,
    skipped: bool,
    elapsed: Duration,
}

/// A long-lived continuous-subgraph-matching server: one evolving data
/// graph, a bounded admission queue, and a registry of standing query
/// sessions that each receive their own ΔM.
///
/// ```
/// use csm_service::{CsmService, ServiceConfig, SessionSpec};
/// use paracosm_core::{NoopObserver, ParaCosmConfig};
/// # use paracosm_core::{AdsChange, CsmAlgorithm};
/// # use csm_graph::{DataGraph, QueryGraph, VLabel, ELabel, EdgeUpdate, Update, QVertexId, VertexId};
/// # struct Plain;
/// # impl CsmAlgorithm for Plain {
/// #     fn name(&self) -> &'static str { "plain" }
/// #     fn rebuild(&mut self, _: &DataGraph, _: &QueryGraph) {}
/// #     fn update_ads(&mut self, _: &DataGraph, _: &QueryGraph, _: EdgeUpdate, _: bool)
/// #         -> AdsChange { AdsChange::Unchanged }
/// #     fn is_candidate(&self, _: &DataGraph, _: &QueryGraph, _: QVertexId, _: VertexId)
/// #         -> bool { true }
/// # }
/// let mut g = DataGraph::new();
/// let v: Vec<_> = (0..3).map(|_| g.add_vertex(VLabel(0))).collect();
/// g.insert_edge(v[0], v[1], ELabel(0)).unwrap();
/// g.insert_edge(v[1], v[2], ELabel(0)).unwrap();
/// let mut q = QueryGraph::new();
/// let u: Vec<_> = (0..3).map(|_| q.add_vertex(VLabel(0))).collect();
/// q.add_edge(u[0], u[1], ELabel(0)).unwrap();
/// q.add_edge(u[1], u[2], ELabel(0)).unwrap();
/// q.add_edge(u[0], u[2], ELabel(0)).unwrap();
///
/// let mut svc = CsmService::new(g, ServiceConfig::default()).unwrap();
/// let spec = SessionSpec::new(q, ParaCosmConfig::sequential()).with_label("triangles");
/// let id = svc.add_session(spec, Box::new(Plain), Box::new(NoopObserver)).unwrap();
///
/// svc.submit(Update::InsertEdge(EdgeUpdate::new(v[0], v[2], ELabel(0)))).unwrap();
/// svc.drain().unwrap();
/// let report = svc.shutdown().unwrap();
/// assert_eq!(report.sessions[0].stats.positives, 6);
/// # let _ = id;
/// ```
pub struct CsmService<G: GraphShard = DataGraph> {
    g: G,
    sessions: Vec<Session<G>>,
    next_id: u64,
    queue: Arc<AdmissionQueue>,
    started: Instant,
    update_idx: u64,
    processed: u64,
    noops: u64,
    invalid: u64,
    telemetry: Option<ServiceTelemetry>,
    shared: SharedIndex,
    flight: Arc<FlightRecorder>,
    /// Valid, non-no-op edge updates so far and their summed apply time:
    /// what deferring sessions' label-safe bookkeeping is derived from.
    tally: EdgeTally,
    /// Ascending positions of the sessions that cannot defer label-safe
    /// bookkeeping (a rolling window is installed); an edge fan-out
    /// visits them whether the edge touches them or not.
    eager: Vec<usize>,
    /// Scratch of an edge update, cleared and reused so that a label-safe
    /// edge update allocates nothing: the visited sessions as ascending
    /// `(position, label_safe)`, and aligned with them the insert
    /// verdicts and the deletion dispositions taken before the removal.
    visit: Vec<(usize, bool)>,
    stages: Vec<Option<SafeStage>>,
    pres: Vec<DeletePre>,
}

impl<G: GraphShard> CsmService<G> {
    /// Stand up a service over `g` with an empty session registry — any
    /// [`GraphShard`] backend: a [`DataGraph`] or a
    /// [`csm_graph::ShardedGraph`], which routes each half-edge to its
    /// owner store under the same pipeline.
    pub fn new(g: G, cfg: ServiceConfig) -> CsmResult<CsmService<G>> {
        let queue = Arc::new(AdmissionQueue::new(cfg.queue_capacity, cfg.policy)?);
        Ok(CsmService {
            g,
            sessions: Vec::new(),
            next_id: 0,
            queue,
            started: Instant::now(),
            update_idx: 0,
            processed: 0,
            noops: 0,
            invalid: 0,
            telemetry: None,
            shared: SharedIndex::new(),
            flight: Arc::new(FlightRecorder::new(FlightConfig::with_capacity(
                cfg.flight_capacity,
            ))),
            tally: EdgeTally::default(),
            eager: Vec::new(),
            visit: Vec::new(),
            stages: Vec::new(),
            pres: Vec::new(),
        })
    }

    /// Stand up the live telemetry plane (see [`crate::telemetry`]): bind
    /// the HTTP scrape endpoint, start the watchdog, and attach a rolling
    /// [`paracosm_core::WindowRing`] to every current and future session.
    /// Returns a [`TelemetryHandle`] exposing the bound address (resolves
    /// port `0`), health, and stall diagnostics.
    ///
    /// Fails with [`CsmError::ConfigInvalid`] when the address cannot be
    /// bound or telemetry is already running; [`CsmError::ServiceClosed`]
    /// after shutdown began.
    pub fn start_telemetry(&mut self, cfg: TelemetryConfig) -> CsmResult<TelemetryHandle> {
        if self.queue.is_closed() {
            return Err(CsmError::ServiceClosed);
        }
        if self.telemetry.is_some() {
            return Err(CsmError::ConfigInvalid {
                field: "telemetry_addr",
                reason: "telemetry is already running".to_string(),
            });
        }
        let mut t =
            ServiceTelemetry::start(cfg, Arc::clone(&self.queue), Arc::clone(&self.flight))?;
        for s in self.sessions.iter_mut() {
            // A windowed session no longer defers: fold in what it owes
            // first, so the window and the engine stats start in step.
            s.flush_deferred(self.tally);
            t.register_session(s);
        }
        self.refresh_eager();
        let handle = t.handle();
        self.telemetry = Some(t);
        Ok(handle)
    }

    /// A handle to the running telemetry plane, if any.
    pub fn telemetry(&self) -> Option<TelemetryHandle> {
        self.telemetry.as_ref().map(ServiceTelemetry::handle)
    }

    /// The always-on flight recorder: per-update causal span rings, shared
    /// with the telemetry plane for stall dossiers and `/debug/flight`.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Register a standing query. The algorithm's ADS is built against the
    /// current graph (offline stage); from the next admitted update on, the
    /// session's `observer` receives its per-update ΔM. Returns the session
    /// id used by [`CsmService::remove_session`].
    ///
    /// Fails with [`CsmError::ConfigInvalid`] for invalid configs/queries
    /// and [`CsmError::ServiceClosed`] after shutdown began.
    pub fn add_session(
        &mut self,
        spec: SessionSpec,
        algo: Box<dyn CsmAlgorithm<G>>,
        observer: Box<dyn StreamObserver>,
    ) -> CsmResult<u64> {
        if self.queue.is_closed() {
            return Err(CsmError::ServiceClosed);
        }
        let id = self.next_id;
        let mut session = Session::new(id, spec, algo, observer, &self.g, self.tally)?;
        if let Some(t) = &mut self.telemetry {
            t.register_session(&mut session);
        }
        self.next_id += 1;
        self.shared.register(&session);
        self.sessions.push(session);
        self.refresh_eager();
        Ok(id)
    }

    /// Recompute the positions of the sessions that cannot defer, after
    /// the registry or a session's window changed.
    fn refresh_eager(&mut self) {
        self.eager.clear();
        let eager = (self.sessions.iter().enumerate()).filter(|(_, s)| !s.defers());
        self.eager.extend(eager.map(|(pos, _)| pos));
    }

    /// Deregister a session, draining in-flight (admitted but unprocessed)
    /// updates first so the departing session observes every update that
    /// was admitted while it was live. Returns its final [`RunReport`],
    /// tagged with [`paracosm_core::SessionDims`].
    pub fn remove_session(&mut self, id: u64) -> CsmResult<RunReport> {
        self.drain()?;
        let pos = self
            .sessions
            .iter()
            .position(|s| s.id == id)
            .ok_or(CsmError::SessionNotFound(id))?;
        let mut session = self.sessions.remove(pos);
        self.shared.unregister(pos);
        debug_assert_eq!(self.shared.len(), self.sessions.len());
        self.refresh_eager();
        if let Some(t) = &mut self.telemetry {
            t.unregister_session(id);
        }
        flush_session(&self.flight, self.tally, &mut session);
        Ok(session.report())
    }

    /// Lifetime effectiveness counters of the shared-work index.
    pub fn shared_stats(&self) -> SharedIndexStats {
        self.shared.stats()
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Ids of the live sessions, in registration order.
    pub fn session_ids(&self) -> Vec<u64> {
        self.sessions.iter().map(|s| s.id).collect()
    }

    /// Current degradation-ladder rung of a live session.
    pub fn session_level(&self, id: u64) -> CsmResult<crate::session::DegradeLevel> {
        self.sessions
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.level())
            .ok_or(CsmError::SessionNotFound(id))
    }

    /// The shared data graph (current state).
    pub fn graph(&self) -> &G {
        &self.g
    }

    /// The admission queue (inspection: length, counters, policy).
    pub fn queue(&self) -> &AdmissionQueue {
        &self.queue
    }

    /// A cloneable producer handle for feeding updates from other threads.
    /// Under the `Block` policy the handle spin-yields while the owner
    /// drains; under `ShedOldest`/`Reject` it never waits.
    pub fn ingest(&self) -> IngestHandle {
        IngestHandle::new(Arc::clone(&self.queue))
    }

    /// Enqueue one update from the owning thread. Under the `Block` policy
    /// a full queue is resolved by draining inline (the owner *is* the
    /// consumer, so blocking would deadlock); under `ShedOldest`/`Reject`
    /// the queue's policy applies as usual.
    pub fn submit(&mut self, u: Update) -> CsmResult<()> {
        match self.queue.offer(u) {
            Err(CsmError::Backpressure { .. }) if self.queue.policy() == Backpressure::Block => {
                self.drain()?;
                self.queue.offer(u)
            }
            other => other,
        }
    }

    /// Process every currently admitted update through all sessions, in
    /// admission order, one update at a time on every backend. Returns
    /// how many updates were processed.
    pub fn drain(&mut self) -> CsmResult<u64> {
        let mut n = 0;
        while let Some(u) = self.queue.pop() {
            self.process_one(u)?;
            n += 1;
        }
        Ok(n)
    }

    /// Shut down: close the queue to producers, drain everything already
    /// admitted, and return the final [`ServiceReport`] (per-session
    /// reports cover sessions still registered at shutdown; removed
    /// sessions reported at removal).
    pub fn shutdown(mut self) -> CsmResult<ServiceReport> {
        self.queue.close();
        self.drain()?;
        // Elapsed covers serving work only: captured before the telemetry
        // threads are joined so the report is identical with or without
        // the scrape plane running.
        let elapsed = self.started.elapsed();
        let stalls = match self.telemetry.take() {
            Some(mut t) => {
                let s = t.stalls();
                t.stop();
                s
            }
            None => 0,
        };
        Ok(ServiceReport {
            stalls,
            shards: self.g.shard_stats(),
            shared: Some(self.shared.stats()),
            policy: self.queue.policy(),
            queue_capacity: self.queue.capacity(),
            admitted: self.queue.admitted(),
            processed: self.processed,
            shed: self.queue.shed(),
            rejected: self.queue.rejected(),
            noops: self.noops,
            invalid: self.invalid,
            elapsed,
            sessions: {
                let (flight, tally) = (&self.flight, self.tally);
                self.sessions
                    .iter_mut()
                    .map(|s| {
                        flush_session(flight, tally, s);
                        s.report()
                    })
                    .collect()
            },
        })
    }

    // ------------------------------------------------------------ pipeline

    /// Apply one update to the shared graph and fan it out across every
    /// session, bracketed by the telemetry hooks (one branch each when
    /// telemetry is off): `begin_update` stamps the watchdog's in-flight
    /// marker and samples the queue depth, `end_update` stamps progress
    /// and refreshes the scrape-side mirrors.
    ///
    /// The service-shard flight events read the clock once per stage
    /// boundary: the admit open's stamp also opens classification, and
    /// one closing read writes the deferred aggregate pair and the admit
    /// close.
    fn process_one(&mut self, u: Update) -> CsmResult<()> {
        let idx = self.update_idx;
        self.update_idx += 1;
        self.processed += 1;
        let span = self.flight.begin_span();
        let opened = self.flight.now_ns();
        self.stamp(span, FlightStage::Admit, true, opened, idx);
        if let Some(t) = &self.telemetry {
            t.begin_update(idx, self.queue.len() as u64, span);
        }
        let result = self.process_one_inner(u, idx, span, opened);
        let closed = self.flight.now_ns();
        if let Ok(deferred @ 1..) = result {
            // `FlightRecorder::fan_aggregate`'s pair, at the closing stamp.
            for (begin, arg) in [(true, idx), (false, deferred)] {
                self.flight.record(
                    0,
                    span,
                    FlightStage::Fanout,
                    begin,
                    FanKind::Deferred,
                    SESSION_AGGREGATE,
                    closed,
                    arg,
                );
            }
        }
        self.stamp(span, FlightStage::Admit, false, closed, idx);
        if let Some(t) = &self.telemetry {
            t.end_update(
                self.processed,
                self.noops,
                self.invalid,
                &self.sessions,
                self.shared.stats(),
                self.g.shard_stats(),
            );
        }
        result.map(drop)
    }

    /// Write one service-shard stage event at `ts`, the stamp its stage
    /// boundary read once for every event it writes.
    #[inline]
    fn stamp(&self, span: SpanId, stage: FlightStage, begin: bool, ts: u64, arg: u64) {
        self.flight
            .record(0, span, stage, begin, FanKind::Engine, 0, ts, arg);
    }

    /// Close the classify stage and open the apply stage with one read;
    /// returns the stamp. Apply args carry the owning shard of an endpoint
    /// (0 on monolithic backends), so flight forensics can attribute
    /// applies to shards.
    fn open_apply(&self, span: SpanId, shard: usize) -> u64 {
        let ts = self.flight.now_ns();
        self.stamp(span, FlightStage::Classify, false, ts, 0);
        self.stamp(span, FlightStage::Apply, true, ts, shard as u64);
        ts
    }

    /// Close the apply stage opened at `opened`; returns its width in
    /// nanoseconds, the graph-apply time every session is charged.
    fn close_apply(&self, span: SpanId, opened: u64, shard: usize) -> u64 {
        let ts = self.flight.now_ns();
        self.stamp(span, FlightStage::Apply, false, ts, shard as u64);
        ts - opened
    }

    /// One update past admission; `opened` is the admit stamp, which also
    /// opens classification. Returns how many sessions took the deferred
    /// label-safe fan-out.
    fn process_one_inner(
        &mut self,
        u: Update,
        idx: u64,
        span: SpanId,
        opened: u64,
    ) -> CsmResult<u64> {
        match u {
            Update::InsertEdge(e) => Ok(self.process_edge(u, e, true, idx, span, opened)),
            Update::DeleteEdge(e) => Ok(self.process_edge(u, e, false, idx, span, opened)),
            Update::InsertVertex { id, label } => {
                let applying = self.flight.now_ns();
                self.stamp(span, FlightStage::Apply, true, applying, 0);
                let grew = !self.g.is_alive(id);
                self.g.ensure_vertex(id, label);
                let apply = Duration::from_nanos(self.close_apply(span, applying, 0));
                if !grew {
                    self.noops += 1;
                }
                let g = &self.g;
                for s in self.sessions.iter_mut() {
                    self.flight
                        .fan_begin(span, FanKind::Engine, s.id as u32, idx);
                    s.eng.note_update();
                    s.eng.note_apply(apply);
                    let t = Instant::now();
                    let pre = s.eng.stage_snapshot();
                    if grew {
                        s.eng.rebuild(g);
                        s.eng.record_verdict(Classified::Unsafe, idx);
                    } else {
                        s.eng.record_noop(idx);
                    }
                    let sid = s.id as u32;
                    s.finish(
                        u,
                        UpdateObservation {
                            index: idx,
                            verdict: grew.then_some(Classified::Unsafe),
                            noop: !grew,
                            latency: t.elapsed(),
                            positives: 0,
                            negatives: 0,
                            skipped: false,
                            span,
                        },
                        pre,
                    );
                    self.flight.fan_end(span, FanKind::Engine, sid, 0);
                }
                Ok(0)
            }
            Update::DeleteVertex { id } => {
                if !self.g.is_alive(id) {
                    self.noops += 1;
                    self.fan_noop(u, idx, span);
                    return Ok(0);
                }
                // Cascade: each incident edge is classified and (where
                // unsafe) enumerated per session, exactly as a standalone
                // run reports negative matches per removed edge.
                let incident: Vec<EdgeUpdate> = self
                    .g
                    .neighbors(id)
                    .iter()
                    .map(|&(v, l)| EdgeUpdate::new(id, v, l))
                    .collect();
                let mut acc = vec![VertexAcc::default(); self.sessions.len()];
                self.stamp(
                    span,
                    FlightStage::Classify,
                    true,
                    opened,
                    incident.len() as u64,
                );
                for &e in incident.iter() {
                    self.cascade_edge_delete(e, &mut acc);
                }
                let applying = self.open_apply(span, 0);
                self.g.delete_vertex(id, false)?;
                let apply = Duration::from_nanos(self.close_apply(span, applying, 0));
                let g = &self.g;
                for (s, a) in self.sessions.iter_mut().zip(acc) {
                    self.flight
                        .fan_begin(span, FanKind::Engine, s.id as u32, idx);
                    s.eng.note_update();
                    s.eng.note_apply(apply);
                    let pre = s.eng.stage_snapshot();
                    let t = Instant::now();
                    s.eng.rebuild(g);
                    s.eng.record_verdict(Classified::Unsafe, idx);
                    let sid = s.id as u32;
                    s.finish(
                        u,
                        UpdateObservation {
                            index: idx,
                            verdict: Some(Classified::Unsafe),
                            noop: false,
                            latency: a.elapsed + t.elapsed(),
                            positives: 0,
                            negatives: a.negatives,
                            skipped: a.skipped,
                            span,
                        },
                        pre,
                    );
                    self.flight.fan_end(span, FanKind::Engine, sid, a.negatives);
                }
                Ok(0)
            }
        }
    }

    /// Fan a structural no-op (or invalid update) across all sessions.
    fn fan_noop(&mut self, u: Update, idx: u64, span: SpanId) {
        for s in self.sessions.iter_mut() {
            self.flight
                .fan_begin(span, FanKind::Engine, s.id as u32, idx);
            s.eng.note_update();
            let pre = s.eng.stage_snapshot();
            s.eng.record_noop(idx);
            let sid = s.id as u32;
            s.finish(
                u,
                UpdateObservation {
                    index: idx,
                    verdict: None,
                    noop: true,
                    latency: Duration::ZERO,
                    positives: 0,
                    negatives: 0,
                    skipped: false,
                    span,
                },
                pre,
            );
            self.flight.fan_end(span, FanKind::Engine, sid, 0);
        }
    }

    /// Open classification at the admit stamp `opened`, then open an
    /// update-edge phase of the shared index: the union stage-1 lookup for
    /// `e`, which lists the sessions to visit, bracketed as a
    /// `SharedProbe` flight stage that opens at the same stamp.
    fn probe_edge(&mut self, e: &EdgeUpdate, span: SpanId, idx: u64, opened: u64) {
        self.stamp(span, FlightStage::Classify, true, opened, idx);
        self.stamp(span, FlightStage::SharedProbe, true, opened, idx);
        let ix = &mut self.shared;
        ix.begin_edge(self.g.label(e.src), self.g.label(e.dst), e.label);
        ix.check_touched(&self.sessions, &self.g, e);
        ix.visits(&self.eager, &mut self.visit);
        let probed = self.flight.now_ns();
        self.stamp(span, FlightStage::SharedProbe, false, probed, 0);
    }

    /// Splice the probed edge `e` in or out between the apply stamps and
    /// count it in the service's edge tally; returns the apply width in
    /// nanoseconds.
    fn apply_edge(&mut self, e: &EdgeUpdate, insert: bool, span: SpanId) -> u64 {
        let applying = self.open_apply(span, self.g.shard_of(e.src));
        self.g.splice_probed_edge(e.src, e.dst, e.label, insert);
        let apply_ns = self.close_apply(span, applying, self.g.shard_of(e.dst));
        self.tally.add(apply_ns);
        apply_ns
    }

    /// One edge update through classification, single graph application,
    /// and per-session ADS/enumeration fan-out. The validity and no-op
    /// checks count as classification, which opens at `opened`; the no-op
    /// check is the update's one edge probe. Returns the deferred count.
    fn process_edge(
        &mut self,
        u: Update,
        e: EdgeUpdate,
        is_insert: bool,
        idx: u64,
        span: SpanId,
        opened: u64,
    ) -> u64 {
        // A server keeps running on malformed input: updates naming dead
        // vertices (or self-loops) are counted as `invalid` and fanned out
        // as no-ops instead of failing the stream like a standalone run.
        if !self.g.is_alive(e.src) || !self.g.is_alive(e.dst) || e.src == e.dst {
            self.invalid += 1;
            self.fan_noop(u, idx, span);
            return 0;
        }
        match (is_insert, self.g.edge_label(e.src, e.dst)) {
            (true, None) => self.insert_edge(u, e, idx, span, opened),
            // Deletions classify and enumerate on the pre-removal graph,
            // under the label stored there.
            (false, Some(l)) => {
                let e = EdgeUpdate::new(e.src, e.dst, l);
                self.delete_edge(u, e, idx, span, opened)
            }
            _ => {
                self.noops += 1;
                self.fan_noop(u, idx, span);
                0
            }
        }
    }

    /// An absent edge's insertion. Only the visited sessions — those the
    /// edge touches, plus those that cannot defer — are classified and
    /// take the engine path; every other session is label-safe and gets
    /// its observer callback alone. Returns that deferred count.
    fn insert_edge(
        &mut self,
        u: Update,
        e: EdgeUpdate,
        idx: u64,
        span: SpanId,
        opened: u64,
    ) -> u64 {
        // Stages 1-2 are judged on the pre-insertion graph: stage 1 is one
        // union lookup (two hash probes), stage 2 runs once per share group.
        self.probe_edge(&e, span, idx, opened);
        let (g, ix, sessions) = (&self.g, &mut self.shared, &self.sessions);
        self.stages.clear();
        self.stages
            .extend(self.visit.iter().map(|&(pos, label_safe)| {
                if label_safe {
                    Some(SafeStage::Label)
                } else {
                    ix.degree_safe(pos, &sessions[pos], g, &e, true)
                        .then_some(SafeStage::Degree)
                }
            }));
        let apply_ns = self.apply_edge(&e, true, span);
        let apply = Duration::from_nanos(apply_ns);
        let (g, ix, flight) = (&self.g, &mut self.shared, &self.flight);
        let safe = label_safe_observation(idx, span);
        let mut next = 0;
        for (pos, s) in self.sessions.iter_mut().enumerate() {
            // Untouched and deferring: the observer fires now, the engine
            // bookkeeping is derived at the next flush, and the update's one
            // aggregate flight record (written as the admit span closes)
            // stands for all such sessions.
            if self.visit.get(next).is_none_or(|v| v.0 != pos) {
                s.observe(&safe);
                continue;
            }
            let stage = self.stages[next];
            next += 1;
            s.note_visited(apply_ns);
            let sid = s.id as u32;
            let opened = fan_open(flight, span, sid, idx);
            let mut fan_kind = FanKind::Engine;
            s.eng.note_update();
            s.eng.note_apply(apply);
            let pre = s.eng.stage_snapshot();
            let (verdict, found) = match stage {
                // Label-safe updates skip both ADS maintenance and search
                // (batch-executor convention).
                Some(SafeStage::Label) => (Classified::Safe(SafeStage::Label), None),
                Some(stage) => {
                    s.eng.ads_update(g, e, true);
                    (Classified::Safe(stage), None)
                }
                None => {
                    // Stage 3 is judged post-insertion, post-ADS.
                    let unchanged = s.eng.ads_update(g, e, true) == AdsChange::Unchanged;
                    match ix.find_or_reuse(pos, s, g, &e, true, unchanged) {
                        None => (Classified::Safe(SafeStage::Ads), None),
                        Some((f, kind)) => {
                            fan_kind = kind;
                            (Classified::Unsafe, Some(f))
                        }
                    }
                }
            };
            // Label-safe fan-out is pure bookkeeping too cheap to meter per
            // session: its latency reports as zero.
            let latency = match stage {
                Some(SafeStage::Label) => Duration::ZERO,
                _ => Duration::from_nanos(flight.now_ns() - opened),
            };
            s.eng.record_verdict(verdict, idx);
            let f = found.unwrap_or_default();
            s.finish(
                u,
                UpdateObservation {
                    index: idx,
                    verdict: Some(verdict),
                    noop: false,
                    latency,
                    positives: f.count,
                    negatives: 0,
                    skipped: f.skipped,
                    span,
                },
                pre,
            );
            flight.fan_end(span, fan_kind, sid, f.count);
        }
        (self.sessions.len() - self.visit.len()) as u64
    }

    /// A present edge's deletion, visiting the same sessions as
    /// [`CsmService::insert_edge`]: classification and search run on the
    /// pre-removal graph, ADS maintenance after it. Returns the deferred
    /// count.
    fn delete_edge(
        &mut self,
        u: Update,
        e: EdgeUpdate,
        idx: u64,
        span: SpanId,
        opened: u64,
    ) -> u64 {
        self.probe_edge(&e, span, idx, opened);
        let (g, ix, flight, pres) = (&self.g, &mut self.shared, &self.flight, &mut self.pres);
        pres.clear();
        for &(pos, label_safe) in &self.visit {
            let s = &mut self.sessions[pos];
            let opened = fan_open(flight, span, s.id as u32, idx);
            s.eng.note_update();
            let pre = s.eng.stage_snapshot();
            if label_safe {
                // Untimed fan-out bookkeeping, as on inserts.
                pres.push((pre, Duration::ZERO, DeleteStage::LabelSafe));
                continue;
            }
            let stage = if ix.degree_safe(pos, s, g, &e, false) {
                DeleteStage::Maintain(Classified::Safe(SafeStage::Degree))
            } else {
                match ix.find_or_reuse(pos, s, g, &e, false, true) {
                    None => DeleteStage::Maintain(Classified::Safe(SafeStage::Ads)),
                    Some((f, kind)) => DeleteStage::Found(f, kind),
                }
            };
            pres.push((pre, Duration::from_nanos(flight.now_ns() - opened), stage));
        }
        let apply_ns = self.apply_edge(&e, false, span);
        let apply = Duration::from_nanos(apply_ns);
        let g = &self.g;
        let safe = label_safe_observation(idx, span);
        let mut next = 0;
        for (pos, s) in self.sessions.iter_mut().enumerate() {
            if self.visit.get(next).is_none_or(|v| v.0 != pos) {
                s.observe(&safe);
                continue;
            }
            let (pre, dt, stage) = self.pres[next];
            next += 1;
            s.note_visited(apply_ns);
            s.eng.note_apply(apply);
            let t = Instant::now();
            let (verdict, found, fan_kind) = match stage {
                DeleteStage::LabelSafe => {
                    (Classified::Safe(SafeStage::Label), None, FanKind::Engine)
                }
                DeleteStage::Maintain(v) => {
                    s.eng.ads_update(g, e, false);
                    (v, None, FanKind::Engine)
                }
                DeleteStage::Found(f, kind) => {
                    s.eng.ads_update(g, e, false);
                    (Classified::Unsafe, Some(f), kind)
                }
            };
            s.eng.record_verdict(verdict, idx);
            let f = found.unwrap_or_default();
            let sid = s.id as u32;
            s.finish(
                u,
                UpdateObservation {
                    index: idx,
                    verdict: Some(verdict),
                    noop: false,
                    latency: dt + t.elapsed(),
                    positives: 0,
                    negatives: f.count,
                    skipped: f.skipped,
                    span,
                },
                pre,
            );
            self.flight.fan_end(span, fan_kind, sid, f.count);
        }
        (self.sessions.len() - self.visit.len()) as u64
    }

    /// One incident edge `e` (present, under its stored label) of a
    /// vertex-deletion cascade: classification and pre-removal
    /// enumeration for the sessions it touches, then a single removal and
    /// their ADS maintenance. No per-edge verdicts or observer callbacks —
    /// the enclosing vertex update reports once per session.
    fn cascade_edge_delete(&mut self, e: EdgeUpdate, acc: &mut [VertexAcc]) {
        let (g, ix) = (&self.g, &mut self.shared);
        // Each cascaded edge is its own phase: fresh touched list, fresh
        // probe memo, fresh caches.
        ix.begin_edge(g.label(e.src), g.label(e.dst), e.label);
        ix.check_touched(&self.sessions, g, &e);
        ix.visits(&[], &mut self.visit);
        for &(pos, _) in &self.visit {
            let (s, a) = (&mut self.sessions[pos], &mut acc[pos]);
            let t = Instant::now();
            if !ix.degree_safe(pos, s, g, &e, false) {
                if let Some((f, _)) = ix.find_or_reuse(pos, s, g, &e, false, true) {
                    a.negatives += f.count;
                    a.skipped |= f.skipped;
                }
            }
            a.elapsed += t.elapsed();
        }
        self.g.splice_probed_edge(e.src, e.dst, e.label, false);
        let g = &self.g;
        for &(pos, _) in &self.visit {
            let t = Instant::now();
            self.sessions[pos].eng.ads_update(g, e, false);
            acc[pos].elapsed += t.elapsed();
        }
    }
}

/// The observation every deferring label-safe session receives for edge
/// update `idx`, built once per update: verdict label-safe, zero latency,
/// empty ΔM — exactly what the engine path reports for a label-safe
/// update.
fn label_safe_observation(idx: u64, span: SpanId) -> UpdateObservation {
    UpdateObservation {
        index: idx,
        verdict: Some(Classified::Safe(SafeStage::Label)),
        noop: false,
        latency: Duration::ZERO,
        positives: 0,
        negatives: 0,
        skipped: false,
        span,
    }
}

/// Open session `sid`'s fan-out span on its flight shard with one clock
/// read; the returned stamp also starts the session's observed latency.
fn fan_open(flight: &FlightRecorder, span: SpanId, sid: u32, idx: u64) -> u64 {
    let ts = flight.now_ns();
    let shard = flight.session_shard(u64::from(sid));
    flight.record(
        shard,
        span,
        FlightStage::Fanout,
        true,
        FanKind::Engine,
        sid,
        ts,
        idx,
    );
    ts
}

/// A flush point for session `s`: fold its deferred label-safe
/// bookkeeping in against the service's `tally`, bracketed by a `flush`
/// flight span.
fn flush_session<G: GraphShard>(flight: &FlightRecorder, tally: EdgeTally, s: &mut Session<G>) {
    let fspan = flight.begin_span();
    flight.flush_begin(fspan, s.id as u32, 0);
    let flushed = s.flush_deferred(tally);
    flight.flush_end(fspan, s.id as u32, flushed);
}

/// The multi-session counterpart of [`RunReport`]: service-level admission
/// and processing counters plus one per-session report.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// The configured backpressure policy.
    pub policy: Backpressure,
    /// The configured admission queue capacity.
    pub queue_capacity: usize,
    /// Updates admitted into the queue.
    pub admitted: u64,
    /// Updates processed through the sessions.
    pub processed: u64,
    /// Updates dropped by the `ShedOldest` policy.
    pub shed: u64,
    /// Updates refused by the `Reject` policy.
    pub rejected: u64,
    /// Structural no-ops among the processed updates.
    pub noops: u64,
    /// Invalid updates (dead endpoints / self-loops) among the processed.
    pub invalid: u64,
    /// Watchdog-flagged stalls over the service lifetime (always 0 when
    /// telemetry was never started).
    pub stalls: u64,
    /// Shared-index effectiveness counters. Always `Some` from
    /// [`CsmService::shutdown`]: the index is the service's only
    /// classifier path.
    pub shared: Option<SharedIndexStats>,
    /// Final per-shard occupancy and applier counters (one entry for
    /// monolithic backends).
    pub shards: Vec<ShardStats>,
    /// Wall time since the service was constructed.
    pub elapsed: Duration,
    /// Final per-session reports (sessions live at shutdown), each tagged
    /// with its [`paracosm_core::SessionDims`].
    pub sessions: Vec<RunReport>,
}

impl ServiceReport {
    /// Serialize as a self-contained JSON object (dependency-free writer,
    /// same style as [`RunReport::to_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"schema_version\":1");
        out.push_str(&format!(",\"policy\":\"{}\"", self.policy.name()));
        out.push_str(&format!(",\"queue_capacity\":{}", self.queue_capacity));
        out.push_str(&format!(",\"admitted\":{}", self.admitted));
        out.push_str(&format!(",\"processed\":{}", self.processed));
        out.push_str(&format!(",\"shed\":{}", self.shed));
        out.push_str(&format!(",\"rejected\":{}", self.rejected));
        out.push_str(&format!(",\"noops\":{}", self.noops));
        out.push_str(&format!(",\"invalid\":{}", self.invalid));
        out.push_str(&format!(",\"stalls\":{}", self.stalls));
        match &self.shared {
            Some(sh) => out.push_str(&format!(
                ",\"shared\":{{\"subpatterns\":{},\"hits\":{},\"misses\":{}}}",
                sh.subpatterns, sh.hits, sh.misses
            )),
            None => out.push_str(",\"shared\":null"),
        }
        out.push_str(",\"shards\":[");
        for (i, sh) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shard\":{},\"owned_vertices\":{},\"half_edges\":{},\"applied_ops\":{}}}",
                sh.shard, sh.owned_vertices, sh.half_edges, sh.applied_ops
            ));
        }
        out.push(']');
        out.push_str(&format!(",\"elapsed_ns\":{}", self.elapsed.as_nanos()));
        out.push_str(",\"sessions\":[");
        for (i, r) in self.sessions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("]}");
        out
    }
}
