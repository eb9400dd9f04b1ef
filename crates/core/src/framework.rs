//! The ParaCOSM orchestrator (paper Fig. 5): owns the evolving data graph
//! and an update [`Engine`] (query + ADS + executors), and drives streams.
//!
//! * [`ParaCosm::process_update`] — the single-update pipeline of paper
//!   Algorithm 1 (apply → maintain ADS → enumerate), using the inner-update
//!   executor when configured with > 1 thread;
//! * [`ParaCosm::run_stream`] — the online loop (observer-parameterized;
//!   [`ParaCosm::process_stream`] is the no-observer sugar); with
//!   `inter_update` enabled it runs the batch executor of §4.2 (parallel
//!   stage-1 classification, bulk application of label-safe updates,
//!   in-order residual handling with first-unsafe deferral — paper Fig. 6).
//!
//! The per-query execution machinery lives in [`crate::engine`]; `ParaCosm`
//! is the single-session composition of one graph with one engine. The
//! `csm-service` serving layer composes many engines over one shared graph
//! instead.

use crate::algorithm::{AdsChange, CsmAlgorithm};
use crate::config::ParaCosmConfig;
use crate::embedding::Match;
use crate::engine::Engine;
use crate::error::{CsmError, CsmResult};
use crate::inter::{self, Classified, SafeStage};
use crate::static_match::StaticResult;
use crate::trace::{
    self, Counter, NoopObserver, RunReport, StreamObserver, Tracer, UpdateObservation,
};
use csm_graph::{DataGraph, EdgeUpdate, GraphError, QueryGraph, Update, UpdateStream, VertexId};
use std::collections::HashSet;
use std::time::{Duration, Instant};

// Path compatibility: these types predate `crate::engine` and are widely
// imported from here.
pub use crate::engine::{FindOutcome, RunStats, SlowUpdate};

/// Result of processing one update.
#[derive(Clone, Debug, Default)]
pub struct UpdateOutcome {
    /// Matches that appeared (insertions).
    pub positives: u64,
    /// Matches that disappeared (deletions).
    pub negatives: u64,
    /// Materialized matches (if `collect_matches`).
    pub matches: Vec<Match>,
    /// The update was a structural no-op (duplicate insert / missing edge).
    pub noop: bool,
    /// The enumeration hit the deadline.
    pub timed_out: bool,
}

/// Result of processing a whole stream.
#[derive(Clone, Debug, Default)]
pub struct StreamOutcome {
    /// Total positive matches across the stream.
    pub positives: u64,
    /// Total negative matches across the stream.
    pub negatives: u64,
    /// Updates fully processed before any timeout.
    pub updates_applied: u64,
    /// The run exceeded its time limit (a "failed" run in the paper's
    /// success-rate metric).
    pub timed_out: bool,
    /// Wall-clock time of the stream run.
    pub elapsed: Duration,
}

/// A ParaCOSM instance hosting algorithm `A` over one `(G, Q)` pair.
pub struct ParaCosm<A: CsmAlgorithm> {
    g: DataGraph,
    eng: Engine<A>,
    run_start: Option<Instant>,
    /// `(find_time, find_span)` snapshot at stream start, so projected-time
    /// deadline checks use this run's deltas only.
    run_find_base: (Duration, Duration),
}

/// Stages 2–3 verdict for one residual update of the batch executor.
struct ResidualOutcome {
    /// Classifier verdict (`None` for structural no-ops).
    verdict: Option<Classified>,
    noop: bool,
    timed_out: bool,
    positives: u64,
    negatives: u64,
}

impl ResidualOutcome {
    fn was_unsafe(&self) -> bool {
        matches!(self.verdict, Some(Classified::Unsafe))
    }
}

impl<A: CsmAlgorithm> ParaCosm<A> {
    /// Offline stage: take ownership of the graph and query, build matching
    /// orders, and (re)build the algorithm's ADS.
    ///
    /// # Panics
    /// If the configuration or query is invalid — see
    /// [`ParaCosm::try_new`] for the non-panicking form.
    pub fn new(g: DataGraph, q: QueryGraph, algo: A, cfg: ParaCosmConfig) -> Self {
        match Self::try_new(g, q, algo, cfg) {
            Ok(p) => p,
            Err(e) => panic!("ParaCosm::new: {e}"),
        }
    }

    /// As [`ParaCosm::new`], but reporting an invalid configuration
    /// ([`ParaCosmConfig::validate`]) or an empty/oversized query as
    /// [`CsmError::ConfigInvalid`] instead of panicking.
    pub fn try_new(g: DataGraph, q: QueryGraph, algo: A, cfg: ParaCosmConfig) -> CsmResult<Self> {
        let eng = Engine::new(&g, q, algo, cfg)?;
        Ok(ParaCosm {
            g,
            eng,
            run_start: None,
            run_find_base: (Duration::ZERO, Duration::ZERO),
        })
    }

    /// The counter registry handle (inert when tracing is off). Snapshot
    /// after a run with [`Tracer::metrics`].
    pub fn tracer(&self) -> &Tracer {
        self.eng.tracer()
    }

    /// Build a machine-readable [`RunReport`] from the current statistics
    /// and registry snapshot; `outcome` is the stream result to embed, if
    /// the report follows a [`ParaCosm::process_stream`] run.
    pub fn run_report(&self, outcome: Option<StreamOutcome>) -> RunReport {
        self.eng.run_report(outcome, None)
    }

    /// The current data graph.
    pub fn graph(&self) -> &DataGraph {
        &self.g
    }

    /// The query pattern.
    pub fn query(&self) -> &QueryGraph {
        self.eng.query()
    }

    /// The hosted algorithm (e.g. to inspect its ADS in tests).
    pub fn algorithm(&self) -> &A {
        self.eng.algorithm()
    }

    /// The active configuration.
    pub fn config(&self) -> &ParaCosmConfig {
        self.eng.config()
    }

    /// Cumulative run statistics.
    pub fn stats(&self) -> &RunStats {
        &self.eng.stats
    }

    /// Clear cumulative statistics.
    pub fn reset_stats(&mut self) {
        self.eng.reset_stats();
    }

    /// `Find_Initial_Matches`: enumerate the matches already present in `G`
    /// (through the algorithm's candidate filter).
    pub fn initial_matches(&self, collect: bool) -> StaticResult {
        self.eng.initial_matches(&self.g, collect)
    }

    /// Set (or clear) the cooperative deadline used by subsequent calls.
    pub fn set_deadline(&mut self, d: Option<Instant>) {
        self.eng.set_deadline(d);
    }

    // ---------------------------------------------------------------- single update

    /// Process one update through the standard pipeline (paper Algorithm 1).
    /// Uses the inner-update executor when `num_threads > 1`.
    pub fn process_update(&mut self, upd: Update) -> CsmResult<UpdateOutcome> {
        self.eng.note_update();
        match upd {
            Update::InsertEdge(e) => self.process_insert(e),
            Update::DeleteEdge(e) => self.process_delete(e),
            Update::InsertVertex { id, label } => {
                let t0 = Instant::now();
                let grew = !self.g.is_alive(id);
                self.g.ensure_vertex(id, label);
                self.eng.note_apply(t0.elapsed());
                if grew {
                    self.eng.rebuild(&self.g);
                }
                Ok(UpdateOutcome {
                    noop: !grew,
                    ..Default::default()
                })
            }
            Update::DeleteVertex { id } => {
                if !self.g.is_alive(id) {
                    return Ok(UpdateOutcome {
                        noop: true,
                        ..Default::default()
                    });
                }
                // Cascade: each incident edge is a deletion update of its own
                // (negative matches are reported per removed edge).
                let incident: Vec<EdgeUpdate> = self
                    .g
                    .neighbors(id)
                    .iter()
                    .map(|&(v, l)| EdgeUpdate::new(id, v, l))
                    .collect();
                let mut total = UpdateOutcome::default();
                for e in incident {
                    let out = self.process_delete(e)?;
                    total.negatives += out.negatives;
                    total.matches.extend(out.matches);
                    total.timed_out |= out.timed_out;
                }
                let t0 = Instant::now();
                self.g.delete_vertex(id, false)?;
                self.eng.note_apply(t0.elapsed());
                self.eng.rebuild(&self.g);
                Ok(total)
            }
        }
    }

    fn process_insert(&mut self, e: EdgeUpdate) -> CsmResult<UpdateOutcome> {
        let t0 = Instant::now();
        let inserted = self.g.insert_edge(e.src, e.dst, e.label)?;
        self.eng.note_apply(t0.elapsed());
        if !inserted {
            return Ok(UpdateOutcome {
                noop: true,
                ..Default::default()
            });
        }
        self.eng.ads_update(&self.g, e, true);

        let collect = self.eng.config().collect_matches;
        let found = self.eng.find_matches(&self.g, &e, collect);
        self.eng.stats.positives += found.count;
        self.eng.tracer().count(0, Counter::MatchesPos, found.count);
        self.eng.stats.timed_out |= found.timed_out;
        Ok(UpdateOutcome {
            positives: found.count,
            matches: found.matches,
            timed_out: found.timed_out,
            ..Default::default()
        })
    }

    fn process_delete(&mut self, e: EdgeUpdate) -> CsmResult<UpdateOutcome> {
        // Deletions enumerate first: negative matches exist only while the
        // edge is still present (paper Algorithm 1).
        let Some(actual_label) = self.g.edge_label(e.src, e.dst) else {
            return Ok(UpdateOutcome {
                noop: true,
                ..Default::default()
            });
        };
        let e = EdgeUpdate::new(e.src, e.dst, actual_label);
        let collect = self.eng.config().collect_matches;
        let found = self.eng.find_matches(&self.g, &e, collect);
        self.eng.stats.negatives += found.count;
        self.eng.tracer().count(0, Counter::MatchesNeg, found.count);
        self.eng.stats.timed_out |= found.timed_out;

        let t0 = Instant::now();
        self.g.remove_edge(e.src, e.dst)?;
        self.eng.note_apply(t0.elapsed());
        self.eng.ads_update(&self.g, e, false);
        Ok(UpdateOutcome {
            negatives: found.count,
            matches: found.matches,
            timed_out: found.timed_out,
            ..Default::default()
        })
    }

    // ---------------------------------------------------------------- stream

    /// Online stage: process a whole update stream. Uses the inter-update
    /// batch executor when configured; otherwise processes updates one by
    /// one. A time limit (if configured) covers the *entire* stream run,
    /// matching the paper's per-query timeout metric.
    pub fn process_stream(&mut self, stream: &UpdateStream) -> CsmResult<StreamOutcome> {
        self.process_stream_impl(stream, None)
    }

    /// The canonical observer-parameterized stream entry point: as
    /// [`ParaCosm::process_stream`], additionally invoking `observer` once
    /// per update — in stream order, on the orchestrator thread — with the
    /// verdict, end-to-end latency and ΔM size of that update. Pass
    /// [`NoopObserver`] (or use `process_stream`) when no callback is
    /// needed.
    pub fn run_stream(
        &mut self,
        stream: &UpdateStream,
        observer: &mut dyn StreamObserver,
    ) -> CsmResult<StreamOutcome> {
        self.process_stream_impl(stream, Some(observer))
    }

    fn process_stream_impl(
        &mut self,
        stream: &UpdateStream,
        observer: Option<&mut dyn StreamObserver>,
    ) -> CsmResult<StreamOutcome> {
        // Per-update timing is pay-for-use: a caller-supplied observer turns
        // it on, the internal no-op stand-in does not.
        let has_observer = observer.is_some();
        let mut noop = NoopObserver;
        let observer: &mut dyn StreamObserver = match observer {
            Some(o) => o,
            None => &mut noop,
        };
        let start = Instant::now();
        // Virtual-scheduler runs execute all search work sequentially, so a
        // wall-clock deadline would misjudge them: give the kernel a relaxed
        // hard stop (limit x workers, bounded) and judge success against
        // *projected* time (DESIGN.md substitutions). Real runs use the
        // wall-clock limit directly.
        self.run_start = Some(start);
        self.run_find_base = (self.eng.stats.find_time, self.eng.stats.find_span);
        let deadline = match (self.eng.config().time_limit, self.eng.config().sim_threads) {
            (Some(d), Some(n)) => Some(start + d.saturating_mul(n.clamp(1, 64) as u32)),
            (Some(d), None) => Some(start + d),
            _ => None,
        };
        self.eng.set_deadline(deadline);
        let mut out = StreamOutcome::default();

        let res = if self.eng.config().use_batch_executor() {
            self.run_batched(stream.updates(), &mut out, has_observer, observer)
        } else {
            self.run_one_by_one(stream.updates(), &mut out, has_observer, observer)
        };
        out.elapsed = start.elapsed();
        if self.eng.config().sim_threads.is_some() {
            if let Some(limit) = self.eng.config().time_limit {
                out.timed_out |= self.run_projected(out.elapsed) > limit;
            }
        }
        // Disarm before propagating a failure: an `Err` run must not leave
        // its deadline on the engine for later `process_update` calls.
        self.eng.set_deadline(None);
        self.run_start = None;
        res?;
        debug_assert!(
            self.eng.stats.classifier.is_consistent(),
            "classifier verdict counters must add up to total"
        );
        Ok(out)
    }

    /// The per-update online loop (no inter-update batching).
    fn run_one_by_one(
        &mut self,
        updates: &[Update],
        out: &mut StreamOutcome,
        has_observer: bool,
        observer: &mut dyn StreamObserver,
    ) -> CsmResult<()> {
        let want_timing = self.eng.per_update_timing(has_observer);
        for (i, &u) in updates.iter().enumerate() {
            if self.deadline_passed() {
                out.timed_out = true;
                break;
            }
            let t_upd = want_timing.then(Instant::now);
            let pre = self.eng.stage_snapshot();
            let r = self.process_update(u)?;
            let lat = t_upd.map_or(Duration::ZERO, |t| t.elapsed());
            if self.eng.config().track_latency {
                self.eng.stats.latency.record(lat);
            }
            self.eng.finish_update(
                u,
                UpdateObservation {
                    index: i as u64,
                    verdict: None,
                    noop: r.noop,
                    latency: lat,
                    positives: r.positives,
                    negatives: r.negatives,
                    skipped: false,
                    span: trace::flight::SpanId::NONE,
                },
                pre,
                observer,
            );
            out.positives += r.positives;
            out.negatives += r.negatives;
            out.updates_applied += 1;
            if r.timed_out {
                out.timed_out = true;
                break;
            }
        }
        Ok(())
    }

    fn deadline_passed(&self) -> bool {
        if self.eng.config().sim_threads.is_some() {
            // Judge against projected time so far.
            if let (Some(limit), Some(start)) = (self.eng.config().time_limit, self.run_start) {
                return self.run_projected(start.elapsed()) >= limit;
            }
            return false;
        }
        self.eng.deadline().is_some_and(|d| Instant::now() >= d)
    }

    /// Projected time of the *current stream run*: wall minus this run's
    /// enumeration work plus its simulated makespan.
    fn run_projected(&self, wall: Duration) -> Duration {
        let find = self
            .eng
            .stats
            .find_time
            .saturating_sub(self.run_find_base.0);
        let span = self
            .eng
            .stats
            .find_span
            .saturating_sub(self.run_find_base.1);
        wall.saturating_sub(find) + span
    }

    /// The batch executor (paper §4.2, Fig. 6).
    fn run_batched(
        &mut self,
        updates: &[Update],
        out: &mut StreamOutcome,
        has_observer: bool,
        observer: &mut dyn StreamObserver,
    ) -> CsmResult<()> {
        let k = self.eng.config().batch_size;
        let mut idx = 0;
        'outer: while idx < updates.len() {
            if self.deadline_passed() {
                out.timed_out = true;
                break;
            }
            let batch = &updates[idx..(idx + k).min(updates.len())];

            // Stage-1 classification of the whole batch in parallel: a pure
            // function of Q and endpoint labels, hence order-independent.
            let ignore = self.eng.algorithm().ignore_edge_labels();
            let stage1_start = Instant::now();
            let label_flags: Vec<bool> = {
                let (g, q) = (&self.g, self.eng.query());
                let nthreads = self.eng.config().num_threads;
                csm_graph::par::map_slice_with(batch, nthreads, |u| match u.edge() {
                    Some(e) => inter::label_safe(g, q, &e, ignore),
                    None => false,
                })
            };
            self.eng.stats.bulk_time += stage1_start.elapsed();

            // Walk the batch in order; label-safe edge runs are buffered and
            // applied in parallel, everything else is handled sequentially.
            let mut buffer: Vec<(EdgeUpdate, bool)> = Vec::new();
            let mut pending: HashSet<(VertexId, VertexId)> = HashSet::new();

            for (off, u) in batch.iter().enumerate() {
                let is_edge_insert = matches!(u, Update::InsertEdge(_));
                if label_flags[off] {
                    let e = u.edge().expect("label-safe implies edge update");
                    let key = {
                        let (a, b, _) = e.canonical();
                        (a, b)
                    };
                    // Flush on an intra-buffer duplicate: the structural
                    // validation below reads the graph, which must then
                    // already hold the buffered op on this edge.
                    if pending.contains(&key) {
                        self.flush_buffer(&mut buffer, &mut pending);
                    }
                    // Structural validation against the current graph.
                    let exists = self.g.has_edge(e.src, e.dst);
                    let noop = if is_edge_insert { exists } else { !exists };
                    self.eng.note_update();
                    if !noop {
                        buffer.push((e, is_edge_insert));
                        pending.insert(key);
                    }
                    let gidx = (idx + off) as u64;
                    if noop {
                        self.eng.record_noop(gidx);
                    } else {
                        self.eng
                            .record_verdict(Classified::Safe(SafeStage::Label), gidx);
                    }
                    if has_observer {
                        let verdict = (!noop).then_some(Classified::Safe(SafeStage::Label));
                        let pre = self.eng.stage_snapshot();
                        self.eng.finish_update(
                            *u,
                            UpdateObservation {
                                index: gidx,
                                verdict,
                                noop,
                                latency: Duration::ZERO,
                                positives: 0,
                                negatives: 0,
                                skipped: false,
                                span: trace::flight::SpanId::NONE,
                            },
                            pre,
                            observer,
                        );
                    }
                    out.updates_applied += 1;
                    continue;
                }

                // State-dependent path: bring the graph up to date first.
                self.flush_buffer(&mut buffer, &mut pending);
                if self.deadline_passed() {
                    out.timed_out = true;
                    break 'outer;
                }
                let want_timing = self.eng.per_update_timing(has_observer);
                let t_upd = want_timing.then(Instant::now);
                let pre = self.eng.stage_snapshot();
                let gidx = (idx + off) as u64;
                let r = self.process_residual(u, out, gidx)?;
                let lat = t_upd.map_or(Duration::ZERO, |t| t.elapsed());
                if self.eng.config().track_latency {
                    self.eng.stats.latency.record(lat);
                }
                self.eng.finish_update(
                    *u,
                    UpdateObservation {
                        index: gidx,
                        verdict: r.verdict,
                        noop: r.noop,
                        latency: lat,
                        positives: r.positives,
                        negatives: r.negatives,
                        skipped: false,
                        span: trace::flight::SpanId::NONE,
                    },
                    pre,
                    observer,
                );
                out.updates_applied += 1;
                if r.timed_out {
                    out.timed_out = true;
                    break 'outer;
                }
                if r.was_unsafe() {
                    // Paper Fig. 6: an unsafe update invalidates the safety
                    // assumptions of the rest of the batch — defer it.
                    idx += off + 1;
                    continue 'outer;
                }
            }
            self.flush_buffer(&mut buffer, &mut pending);
            idx += batch.len();
        }
        Ok(())
    }

    fn flush_buffer(
        &mut self,
        buffer: &mut Vec<(EdgeUpdate, bool)>,
        pending: &mut HashSet<(VertexId, VertexId)>,
    ) {
        if buffer.is_empty() {
            return;
        }
        let t0 = Instant::now();
        // Pass the configured width through: the bulk apply must not
        // oversubscribe past `num_threads` on wide hosts.
        let nthreads = self.eng.config().num_threads;
        self.g
            .apply_edge_batch_with(buffer, nthreads, &mut Vec::with_capacity(buffer.len()));
        let dt = t0.elapsed();
        self.eng.stats.apply_time += dt;
        self.eng.stats.bulk_time += dt;
        self.eng.tracer().count(0, Counter::BulkFlushes, 1);
        buffer.clear();
        pending.clear();
    }

    /// Handle an update that survived the label filter: stages 2–3 of the
    /// classifier plus full processing when unsafe. `idx` is the update's
    /// position in the stream (event/observer payloads).
    fn process_residual(
        &mut self,
        u: &Update,
        out: &mut StreamOutcome,
        idx: u64,
    ) -> CsmResult<ResidualOutcome> {
        let safe = |verdict: Classified| ResidualOutcome {
            verdict: Some(verdict),
            noop: false,
            timed_out: false,
            positives: 0,
            negatives: 0,
        };
        let Some(e) = u.edge() else {
            // Vertex updates take the ordinary pipeline and conservatively
            // count as unsafe (they are rare structural events).
            self.eng.record_verdict(Classified::Unsafe, idx);
            let r = self.process_update(*u)?;
            out.positives += r.positives;
            out.negatives += r.negatives;
            return Ok(ResidualOutcome {
                verdict: Some(Classified::Unsafe),
                noop: r.noop,
                timed_out: r.timed_out,
                positives: r.positives,
                negatives: r.negatives,
            });
        };
        let is_insert = u.is_insertion();

        if !self.g.is_alive(e.src) || !self.g.is_alive(e.dst) || e.src == e.dst {
            return Err(CsmError::Graph(GraphError::UnknownVertex(
                if self.g.is_alive(e.src) { e.dst } else { e.src },
            )));
        }
        // Structural no-ops are counted as such, not as a safety verdict.
        let stored = self.g.edge_label(e.src, e.dst);
        if is_insert == stored.is_some() {
            self.eng.note_update();
            self.eng.record_noop(idx);
            return Ok(ResidualOutcome {
                verdict: None,
                noop: true,
                timed_out: false,
                positives: 0,
                negatives: 0,
            });
        }

        // Stage 2: degree filter (no match possible; ADS still maintained).
        if self.eng.degree_safe(&self.g, &e, is_insert) {
            self.eng
                .record_verdict(Classified::Safe(SafeStage::Degree), idx);
            self.apply_and_maintain(e, is_insert)?;
            return Ok(safe(Classified::Safe(SafeStage::Degree)));
        }

        // Stage 3: candidate/ADS filter. Past the no-op check, an absent
        // edge is an insertion and a present one a deletion.
        match stored {
            None => {
                let t0 = Instant::now();
                self.g.insert_edge(e.src, e.dst, e.label)?;
                self.eng.note_apply(t0.elapsed());
                let change = self.eng.ads_update(&self.g, e, true);
                self.eng.note_update();
                if change == AdsChange::Unchanged && self.eng.candidates_safe(&self.g, &e) {
                    self.eng
                        .record_verdict(Classified::Safe(SafeStage::Ads), idx);
                    return Ok(safe(Classified::Safe(SafeStage::Ads)));
                }
                self.eng.record_verdict(Classified::Unsafe, idx);
                let found = self.eng.find_matches(&self.g, &e, false);
                self.eng.stats.positives += found.count;
                self.eng.tracer().count(0, Counter::MatchesPos, found.count);
                self.eng.stats.timed_out |= found.timed_out;
                out.positives += found.count;
                Ok(ResidualOutcome {
                    verdict: Some(Classified::Unsafe),
                    noop: false,
                    timed_out: found.timed_out,
                    positives: found.count,
                    negatives: 0,
                })
            }
            Some(label) => {
                // Deletion: negative matches are judged on the pre-deletion
                // state, so the candidate check comes first.
                let e = EdgeUpdate::new(e.src, e.dst, label);
                if self.eng.candidates_safe(&self.g, &e) {
                    self.eng
                        .record_verdict(Classified::Safe(SafeStage::Ads), idx);
                    self.apply_and_maintain(e, false)?;
                    return Ok(safe(Classified::Safe(SafeStage::Ads)));
                }
                self.eng.record_verdict(Classified::Unsafe, idx);
                let found = self.eng.find_matches(&self.g, &e, false);
                self.eng.stats.negatives += found.count;
                self.eng.tracer().count(0, Counter::MatchesNeg, found.count);
                self.eng.stats.timed_out |= found.timed_out;
                out.negatives += found.count;
                self.apply_and_maintain(e, false)?;
                Ok(ResidualOutcome {
                    verdict: Some(Classified::Unsafe),
                    noop: false,
                    timed_out: found.timed_out,
                    positives: 0,
                    negatives: found.count,
                })
            }
        }
    }

    /// Apply an edge update to `G` and maintain the ADS without searching.
    fn apply_and_maintain(&mut self, e: EdgeUpdate, is_insert: bool) -> CsmResult<()> {
        let t0 = Instant::now();
        if is_insert {
            self.g.insert_edge(e.src, e.dst, e.label)?;
        } else {
            self.g.remove_edge(e.src, e.dst)?;
        }
        self.eng.note_apply(t0.elapsed());
        self.eng.ads_update(&self.g, e, is_insert);
        self.eng.note_update();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::AdsChange;
    use csm_graph::{ELabel, QVertexId, VLabel};

    struct Plain;
    impl CsmAlgorithm for Plain {
        fn name(&self) -> &'static str {
            "plain"
        }
        fn rebuild(&mut self, _: &DataGraph, _: &QueryGraph) {}
        fn update_ads(
            &mut self,
            _: &DataGraph,
            _: &QueryGraph,
            _: EdgeUpdate,
            _: bool,
        ) -> AdsChange {
            AdsChange::Unchanged
        }
        fn is_candidate(&self, _: &DataGraph, _: &QueryGraph, _: QVertexId, _: VertexId) -> bool {
            true
        }
    }

    /// Path graph + triangle query; closing edges create matches.
    fn setup() -> (DataGraph, QueryGraph, Vec<VertexId>) {
        let mut g = DataGraph::new();
        let v: Vec<_> = (0..4).map(|_| g.add_vertex(VLabel(0))).collect();
        g.insert_edge(v[0], v[1], ELabel(0)).unwrap();
        g.insert_edge(v[1], v[2], ELabel(0)).unwrap();
        let mut q = QueryGraph::new();
        let u: Vec<_> = (0..3).map(|_| q.add_vertex(VLabel(0))).collect();
        q.add_edge(u[0], u[1], ELabel(0)).unwrap();
        q.add_edge(u[1], u[2], ELabel(0)).unwrap();
        q.add_edge(u[0], u[2], ELabel(0)).unwrap();
        (g, q, v)
    }

    fn ins(a: VertexId, b: VertexId) -> Update {
        Update::InsertEdge(EdgeUpdate::new(a, b, ELabel(0)))
    }

    #[test]
    fn insert_and_delete_report_symmetric_deltas() {
        let (g, q, v) = setup();
        let mut e = ParaCosm::new(g, q, Plain, ParaCosmConfig::sequential());
        let out = e.process_update(ins(v[0], v[2])).unwrap();
        assert_eq!(out.positives, 6);
        let out = e
            .process_update(Update::DeleteEdge(EdgeUpdate::new(v[0], v[2], ELabel(0))))
            .unwrap();
        assert_eq!(out.negatives, 6);
        assert_eq!(e.stats().positives, 6);
        assert_eq!(e.stats().negatives, 6);
        assert_eq!(e.stats().updates, 2);
    }

    #[test]
    fn try_new_rejects_invalid_configs() {
        let (g, q, _) = setup();
        let mut cfg = ParaCosmConfig::sequential();
        cfg.num_threads = 0;
        match ParaCosm::try_new(g, q, Plain, cfg) {
            Err(CsmError::ConfigInvalid { field, .. }) => assert_eq!(field, "num_threads"),
            other => panic!("expected ConfigInvalid, got {:?}", other.err()),
        }
    }

    #[test]
    #[should_panic(expected = "ParaCosm::new")]
    fn new_panics_on_invalid_config() {
        let (g, q, _) = setup();
        let mut cfg = ParaCosmConfig::sequential();
        cfg.batch_size = 0;
        let _ = ParaCosm::new(g, q, Plain, cfg);
    }

    #[test]
    fn duplicate_insert_and_phantom_delete_are_noops() {
        let (g, q, v) = setup();
        let mut e = ParaCosm::new(g, q, Plain, ParaCosmConfig::sequential());
        assert!(e.process_update(ins(v[0], v[1])).unwrap().noop);
        let out = e
            .process_update(Update::DeleteEdge(EdgeUpdate::new(v[0], v[3], ELabel(0))))
            .unwrap();
        assert!(out.noop);
    }

    #[test]
    fn delete_uses_recorded_edge_label() {
        // Stream deletions may carry a stale label; the engine must match
        // against the label actually stored in G.
        let (mut g, q, v) = setup();
        g.insert_edge(v[0], v[2], ELabel(0)).unwrap();
        let mut e = ParaCosm::new(g, q, Plain, ParaCosmConfig::sequential());
        let out = e
            .process_update(Update::DeleteEdge(EdgeUpdate::new(v[0], v[2], ELabel(9))))
            .unwrap();
        assert_eq!(out.negatives, 6);
    }

    #[test]
    fn vertex_lifecycle_through_updates() {
        let (g, q, v) = setup();
        let slots = g.vertex_slots() as u32;
        let mut e = ParaCosm::new(g, q, Plain, ParaCosmConfig::sequential());
        let nv = VertexId(slots);
        assert!(
            !e.process_update(Update::InsertVertex {
                id: nv,
                label: VLabel(0)
            })
            .unwrap()
            .noop
        );
        // Wire the new vertex into a triangle with v1, v2.
        e.process_update(ins(nv, v[1])).unwrap();
        let out = e.process_update(ins(nv, v[2])).unwrap();
        assert_eq!(out.positives, 6);
        // Deleting the vertex cascades and reports the negatives.
        let out = e.process_update(Update::DeleteVertex { id: nv }).unwrap();
        assert_eq!(out.negatives, 6);
        assert!(!e.graph().is_alive(nv));
    }

    #[test]
    fn initial_matches_reflect_current_graph() {
        let (mut g, q, v) = setup();
        g.insert_edge(v[0], v[2], ELabel(0)).unwrap();
        let e = ParaCosm::new(g, q, Plain, ParaCosmConfig::sequential());
        assert_eq!(e.initial_matches(false).count, 6);
    }

    #[test]
    fn collect_matches_materializes_embeddings() {
        let (g, q, v) = setup();
        let cfg = ParaCosmConfig::sequential().collecting();
        let mut e = ParaCosm::new(g, q, Plain, cfg);
        let out = e.process_update(ins(v[0], v[2])).unwrap();
        assert_eq!(out.matches.len(), 6);
        for m in &out.matches {
            let set: std::collections::BTreeSet<_> = m.as_slice().iter().collect();
            assert_eq!(set.len(), 3, "injective mapping expected");
        }
    }

    #[test]
    fn batch_executor_equals_per_update_on_same_stream() {
        let (g, q, v) = setup();
        let stream: UpdateStream = vec![
            ins(v[0], v[2]), // closes triangle (6)
            ins(v[2], v[3]),
            ins(v[1], v[3]), // closes another (6)
            Update::DeleteEdge(EdgeUpdate::new(v[0], v[1], ELabel(0))), // removes one
        ]
        .into_iter()
        .collect();

        let mut seq = ParaCosm::new(g.clone(), q.clone(), Plain, ParaCosmConfig::sequential());
        let a = seq.process_stream(&stream).unwrap();

        let mut par = ParaCosm::new(g, q, Plain, ParaCosmConfig::parallel(2).with_batch_size(2));
        let b = par.process_stream(&stream).unwrap();
        assert_eq!((a.positives, a.negatives), (b.positives, b.negatives));
        assert_eq!(b.updates_applied, 4);
        assert!(par.stats().classifier.total > 0);
    }

    #[test]
    fn run_stream_with_noop_observer_matches_process_stream() {
        let (g, q, v) = setup();
        let stream: UpdateStream = vec![
            ins(v[0], v[2]),
            ins(v[2], v[3]),
            Update::DeleteEdge(EdgeUpdate::new(v[0], v[2], ELabel(0))),
        ]
        .into_iter()
        .collect();

        let mut plain = ParaCosm::new(g.clone(), q.clone(), Plain, ParaCosmConfig::sequential());
        let a = plain.process_stream(&stream).unwrap();

        let mut observed = ParaCosm::new(g, q, Plain, ParaCosmConfig::sequential());
        let mut seen = 0u64;
        struct CountObs<'a>(&'a mut u64);
        impl StreamObserver for CountObs<'_> {
            fn on_update(&mut self, obs: &UpdateObservation) {
                *self.0 += 1;
                assert!(!obs.skipped);
            }
        }
        let b = observed
            .run_stream(&stream, &mut CountObs(&mut seen))
            .unwrap();
        assert_eq!((a.positives, a.negatives), (b.positives, b.negatives));
        assert_eq!(seen, 3);
    }

    #[test]
    fn failed_stream_run_does_not_leak_its_deadline() {
        // Two hubs sharing 600 neighbours: joining them closes 600 triangles,
        // enough search nodes for the kernel to probe an armed deadline.
        let mut g = DataGraph::new();
        let v: Vec<_> = (0..602).map(|_| g.add_vertex(VLabel(0))).collect();
        for &x in &v[2..] {
            g.insert_edge(v[0], x, ELabel(0)).unwrap();
            g.insert_edge(v[1], x, ELabel(0)).unwrap();
        }
        let (_, q, _) = setup();
        let dead = VertexId(g.vertex_slots() as u32 + 7);
        let stream: UpdateStream = vec![ins(v[0], dead)].into_iter().collect();
        let limit = Duration::from_millis(20);
        for cfg in [
            ParaCosmConfig::sequential(),
            ParaCosmConfig::parallel(2).with_batch_size(2),
        ] {
            let mut e = ParaCosm::new(g.clone(), q.clone(), Plain, cfg.with_time_limit(limit));
            assert!(e.process_stream(&stream).is_err());
            assert_eq!(e.eng.deadline(), None, "deadline outlived the failed run");
            assert_eq!(e.run_start, None);
            // Past the failed run's limit, a later update enumerates in full.
            std::thread::sleep(limit + Duration::from_millis(5));
            let out = e.process_update(ins(v[0], v[1])).unwrap();
            assert!(!out.timed_out);
            assert_eq!(out.positives, 600 * 6);
        }
    }

    #[test]
    fn projected_time_is_identity_without_simulation() {
        let (g, q, v) = setup();
        let mut e = ParaCosm::new(g, q, Plain, ParaCosmConfig::sequential());
        e.process_update(ins(v[0], v[2])).unwrap();
        let wall = Duration::from_millis(10) + e.stats().find_time;
        assert_eq!(e.stats().projected_time(wall), wall);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let (g, q, v) = setup();
        let mut e = ParaCosm::new(g, q, Plain, ParaCosmConfig::sequential());
        e.process_update(ins(v[0], v[2])).unwrap();
        assert!(e.stats().updates > 0);
        e.reset_stats();
        assert_eq!(e.stats().updates, 0);
        assert_eq!(e.stats().positives, 0);
    }
}
