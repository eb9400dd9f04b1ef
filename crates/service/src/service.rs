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
//! Per-update call conventions mirror the standalone engine (paper
//! Algorithm 1): inserts apply the edge, maintain each non-label-safe
//! session's ADS, then enumerate; deletions classify and enumerate on the
//! pre-removal graph, then remove and maintain.

use crate::queue::{AdmissionQueue, Backpressure, IngestHandle};
use crate::session::{Session, SessionFind, SessionSpec};
use crate::shared::{SharedIndex, SharedIndexStats};
use crate::telemetry::{ServiceTelemetry, TelemetryConfig, TelemetryHandle};
use csm_graph::{DataGraph, EdgeUpdate, GraphShard, ShardStats, Update};
use paracosm_core::{
    AdsChange, Classified, CsmAlgorithm, CsmError, CsmResult, FanKind, FlightConfig,
    FlightRecorder, FlightStage, RunReport, SafeStage, SpanId, StageSnapshot, StreamObserver,
    UpdateObservation,
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
    /// `/debug/flight` endpoint. Values below 2 are clamped.
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

/// Pre-removal disposition of one edge deletion for one session that
/// does not defer it.
enum DeleteStage {
    /// Label-safe: no ADS maintenance, no enumeration.
    LabelSafe,
    /// Safe at stage 2 or 3: maintain the ADS after removal, no search.
    Maintain(Classified),
    /// Unsafe: matches were enumerated (or absorbed) pre-removal.
    Found(SessionFind, FanKind),
}

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
            t.register_session(s);
        }
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
        let mut session = Session::new(id, spec, algo, observer, &self.g)?;
        if let Some(t) = &mut self.telemetry {
            t.register_session(&mut session);
        }
        self.next_id += 1;
        self.shared.register(&session);
        self.sessions.push(session);
        Ok(id)
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
        if let Some(t) = &mut self.telemetry {
            t.unregister_session(id);
        }
        let fspan = self.flight.begin_span();
        self.flight.flush_begin(fspan, session.id as u32, 0);
        let flushed = session.flush_deferred();
        self.flight.flush_end(fspan, session.id as u32, flushed);
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
                let flight = &self.flight;
                self.sessions
                    .iter_mut()
                    .map(|s| {
                        let fspan = flight.begin_span();
                        flight.flush_begin(fspan, s.id as u32, 0);
                        let flushed = s.flush_deferred();
                        flight.flush_end(fspan, s.id as u32, flushed);
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
    fn process_one(&mut self, u: Update) -> CsmResult<()> {
        let idx = self.update_idx;
        self.update_idx += 1;
        self.processed += 1;
        let span = self.flight.begin_span();
        self.flight.begin(0, span, FlightStage::Admit, idx);
        if let Some(t) = &self.telemetry {
            t.begin_update(idx, self.queue.len() as u64, span);
        }
        let result = self.process_one_inner(u, idx, span);
        self.flight.end(0, span, FlightStage::Admit, idx);
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
        result
    }

    fn process_one_inner(&mut self, u: Update, idx: u64, span: SpanId) -> CsmResult<()> {
        match u {
            Update::InsertEdge(e) => self.process_edge(u, e, true, idx, span),
            Update::DeleteEdge(e) => self.process_edge(u, e, false, idx, span),
            Update::InsertVertex { id, label } => {
                let t0 = Instant::now();
                self.flight.begin(0, span, FlightStage::Apply, 0);
                let grew = !self.g.is_alive(id);
                self.g.ensure_vertex(id, label);
                self.flight.end(0, span, FlightStage::Apply, 0);
                let apply = t0.elapsed();
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
                Ok(())
            }
            Update::DeleteVertex { id } => {
                if !self.g.is_alive(id) {
                    self.noops += 1;
                    self.fan_noop(u, idx, span);
                    return Ok(());
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
                self.flight
                    .begin(0, span, FlightStage::Classify, incident.len() as u64);
                for &e in incident.iter() {
                    self.cascade_edge_delete(e, &mut acc)?;
                }
                self.flight.end(0, span, FlightStage::Classify, 0);
                let t0 = Instant::now();
                self.flight.begin(0, span, FlightStage::Apply, 0);
                self.g.delete_vertex(id, false)?;
                self.flight.end(0, span, FlightStage::Apply, 0);
                let apply = t0.elapsed();
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
                Ok(())
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

    /// Open an update-edge phase of the shared index: the union stage-1
    /// lookup for `e`, bracketed as a `SharedProbe` flight stage.
    fn probe_edge(&mut self, e: &EdgeUpdate, span: SpanId, idx: u64) {
        self.flight.begin(0, span, FlightStage::SharedProbe, idx);
        self.shared
            .begin_edge(self.g.label(e.src), self.g.label(e.dst), e.label);
        self.flight.end(0, span, FlightStage::SharedProbe, 0);
    }

    /// One edge update through classification, single graph application,
    /// and per-session ADS/enumeration fan-out.
    fn process_edge(
        &mut self,
        u: Update,
        e: EdgeUpdate,
        is_insert: bool,
        idx: u64,
        span: SpanId,
    ) -> CsmResult<()> {
        // A server keeps running on malformed input: updates naming dead
        // vertices (or self-loops) are counted as `invalid` and fanned out
        // as no-ops instead of failing the stream like a standalone run.
        if !self.g.is_alive(e.src) || !self.g.is_alive(e.dst) || e.src == e.dst {
            self.invalid += 1;
            self.fan_noop(u, idx, span);
            return Ok(());
        }
        match (is_insert, self.g.edge_label(e.src, e.dst)) {
            (true, None) => self.insert_edge(u, e, idx, span),
            // Deletions classify and enumerate on the pre-removal graph,
            // under the label stored there.
            (false, Some(l)) => self.delete_edge(u, EdgeUpdate::new(e.src, e.dst, l), idx, span),
            _ => {
                self.noops += 1;
                self.fan_noop(u, idx, span);
                Ok(())
            }
        }
    }

    fn insert_edge(&mut self, u: Update, e: EdgeUpdate, idx: u64, span: SpanId) -> CsmResult<()> {
        // Stages 1-2 are judged on the pre-insertion graph: stage 1 is one
        // union lookup (two hash probes), stage 2 runs once per share group.
        self.flight.begin(0, span, FlightStage::Classify, idx);
        self.probe_edge(&e, span, idx);
        let (g, ix) = (&self.g, &mut self.shared);
        let stages: Vec<Option<SafeStage>> = self
            .sessions
            .iter()
            .enumerate()
            .map(|(pos, s)| {
                if ix.label_safe(pos, s, g, &e) {
                    Some(SafeStage::Label)
                } else {
                    ix.degree_safe(pos, s, g, &e, true)
                        .then_some(SafeStage::Degree)
                }
            })
            .collect();
        self.flight.end(0, span, FlightStage::Classify, 0);
        // Apply args carry the owning shard of each endpoint (both 0 on
        // monolithic backends), so flight forensics can attribute applies
        // to shards.
        let t0 = Instant::now();
        self.flight
            .begin(0, span, FlightStage::Apply, self.g.shard_of(e.src) as u64);
        self.g.insert_edge(e.src, e.dst, e.label)?;
        self.flight
            .end(0, span, FlightStage::Apply, self.g.shard_of(e.dst) as u64);
        let apply = t0.elapsed();
        let (g, ix) = (&self.g, &mut self.shared);
        let mut agg = 0u64;
        for (pos, (s, stage)) in self.sessions.iter_mut().zip(stages).enumerate() {
            // Label-safe fan-out to a session with no per-update consumer
            // (rolling window / event tracing) defers its bookkeeping: the
            // observer fires now, the commutative stats/counter totals fold
            // in at the next flush point, and the update shares ONE
            // aggregate flight record (written after the loop) instead of
            // paying a per-session pair.
            if stage == Some(SafeStage::Label) && s.defers() {
                agg += 1;
                s.fan_label_safe(idx, apply, span);
                continue;
            }
            self.flight
                .fan_begin(span, FanKind::Engine, s.id as u32, idx);
            let mut fan_kind = FanKind::Engine;
            s.eng.note_update();
            s.eng.note_apply(apply);
            let pre = s.eng.stage_snapshot();
            // Label-safe fan-out is pure bookkeeping too cheap to meter per
            // session: its latency reports as zero instead of paying two
            // clock reads per session.
            let t = (stage != Some(SafeStage::Label)).then(Instant::now);
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
            s.eng.record_verdict(verdict, idx);
            let f = found.unwrap_or_default();
            let sid = s.id as u32;
            s.finish(
                u,
                UpdateObservation {
                    index: idx,
                    verdict: Some(verdict),
                    noop: false,
                    latency: t.map(|t| t.elapsed()).unwrap_or(Duration::ZERO),
                    positives: f.count,
                    negatives: 0,
                    skipped: f.skipped,
                    span,
                },
                pre,
            );
            self.flight.fan_end(span, fan_kind, sid, f.count);
        }
        self.flight.fan_aggregate(span, FanKind::Deferred, agg, idx);
        Ok(())
    }

    fn delete_edge(&mut self, u: Update, e: EdgeUpdate, idx: u64, span: SpanId) -> CsmResult<()> {
        self.flight.begin(0, span, FlightStage::Classify, idx);
        self.probe_edge(&e, span, idx);
        let (g, ix) = (&self.g, &mut self.shared);
        // `None` marks a deferred fan-out (see the insert path).
        let mut pres: Vec<Option<(StageSnapshot, Duration, DeleteStage)>> =
            Vec::with_capacity(self.sessions.len());
        for (pos, s) in self.sessions.iter_mut().enumerate() {
            let label_safe = ix.label_safe(pos, s, g, &e);
            if label_safe && s.defers() {
                pres.push(None);
                continue;
            }
            self.flight
                .fan_begin(span, FanKind::Engine, s.id as u32, idx);
            s.eng.note_update();
            let pre = s.eng.stage_snapshot();
            if label_safe {
                // Untimed fan-out bookkeeping, as on inserts.
                pres.push(Some((pre, Duration::ZERO, DeleteStage::LabelSafe)));
                continue;
            }
            let t = Instant::now();
            let stage = if ix.degree_safe(pos, s, g, &e, false) {
                DeleteStage::Maintain(Classified::Safe(SafeStage::Degree))
            } else {
                match ix.find_or_reuse(pos, s, g, &e, false, true) {
                    None => DeleteStage::Maintain(Classified::Safe(SafeStage::Ads)),
                    Some((f, kind)) => DeleteStage::Found(f, kind),
                }
            };
            pres.push(Some((pre, t.elapsed(), stage)));
        }
        self.flight.end(0, span, FlightStage::Classify, 0);
        let t0 = Instant::now();
        self.flight
            .begin(0, span, FlightStage::Apply, self.g.shard_of(e.src) as u64);
        self.g.remove_edge(e.src, e.dst)?;
        self.flight
            .end(0, span, FlightStage::Apply, self.g.shard_of(e.dst) as u64);
        let apply = t0.elapsed();
        let g = &self.g;
        let mut agg = 0u64;
        for (s, pre) in self.sessions.iter_mut().zip(pres) {
            let Some((pre, dt, stage)) = pre else {
                agg += 1;
                s.fan_label_safe(idx, apply, span);
                continue;
            };
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
        self.flight.fan_aggregate(span, FanKind::Deferred, agg, idx);
        Ok(())
    }

    /// One incident edge of a vertex-deletion cascade: per-session
    /// classification and pre-removal enumeration, then a single removal
    /// and per-session ADS maintenance. No per-edge verdicts or observer
    /// callbacks — the enclosing vertex update reports once per session.
    fn cascade_edge_delete(&mut self, e: EdgeUpdate, acc: &mut [VertexAcc]) -> CsmResult<()> {
        let Some(label) = self.g.edge_label(e.src, e.dst) else {
            return Ok(());
        };
        let e = EdgeUpdate::new(e.src, e.dst, label);
        let (g, ix) = (&self.g, &mut self.shared);
        // Each cascaded edge is its own phase: fresh stage-1 flags, fresh
        // probe memo, fresh delta cache.
        ix.begin_edge(g.label(e.src), g.label(e.dst), e.label);
        let mut label_safe = Vec::with_capacity(self.sessions.len());
        for (pos, (s, a)) in self.sessions.iter_mut().zip(acc.iter_mut()).enumerate() {
            let safe = ix.label_safe(pos, s, g, &e);
            if !safe {
                let t = Instant::now();
                if !ix.degree_safe(pos, s, g, &e, false) {
                    if let Some((f, _)) = ix.find_or_reuse(pos, s, g, &e, false, true) {
                        a.negatives += f.count;
                        a.skipped |= f.skipped;
                    }
                }
                a.elapsed += t.elapsed();
            }
            label_safe.push(safe);
        }
        self.g.remove_edge(e.src, e.dst)?;
        let g = &self.g;
        for ((s, safe), a) in self.sessions.iter_mut().zip(label_safe).zip(acc.iter_mut()) {
            if !safe {
                let t = Instant::now();
                s.eng.ads_update(g, e, false);
                a.elapsed += t.elapsed();
            }
        }
        Ok(())
    }
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
