//! Standing query sessions and the per-session degradation ladder.
//!
//! A session is one registered query: an [`Engine`] hosting a boxed
//! algorithm, a per-session observer receiving that session's ΔM, an
//! optional per-update time budget, and the [`DegradeLevel`] ladder that
//! trades result fidelity for latency when the budget is repeatedly
//! overrun.

use csm_graph::{DataGraph, EdgeUpdate, GraphShard, QueryGraph, Update};
use paracosm_core::trace::Counter;
use paracosm_core::{
    CsmAlgorithm, CsmResult, Engine, ParaCosmConfig, RunReport, SessionDims, StageSnapshot,
    StreamObserver, UpdateObservation,
};
use std::time::Duration;

/// Consecutive budget overruns before stepping one rung down the ladder.
pub(crate) const ESCALATE_AFTER: u32 = 2;
/// Consecutive on-budget enumerations before stepping one rung back up.
pub(crate) const RECOVER_AFTER: u32 = 8;
/// While `Skipped`, every this-many unsafe updates one count-only probe
/// runs to test whether the session can afford enumeration again.
pub(crate) const PROBE_EVERY: u32 = 16;

/// How much enumeration work a session is currently doing per unsafe
/// update. The ladder runs `Full → CountOnly → Skipped` under sustained
/// budget overruns and recovers one rung at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// Normal operation: full enumeration, matches materialized when the
    /// session config asks for them.
    Full,
    /// ΔM is still counted exactly, but matches are never materialized.
    CountOnly,
    /// Enumeration is skipped entirely; the observer sees
    /// `UpdateObservation::skipped == true` (ΔM *unknown*, not zero).
    Skipped,
}

impl DegradeLevel {
    fn down(self) -> DegradeLevel {
        match self {
            DegradeLevel::Full => DegradeLevel::CountOnly,
            _ => DegradeLevel::Skipped,
        }
    }

    fn up(self) -> DegradeLevel {
        match self {
            DegradeLevel::Skipped => DegradeLevel::CountOnly,
            _ => DegradeLevel::Full,
        }
    }

    /// Stable lowercase name (reports).
    pub fn name(self) -> &'static str {
        match self {
            DegradeLevel::Full => "full",
            DegradeLevel::CountOnly => "count-only",
            DegradeLevel::Skipped => "skipped",
        }
    }
}

/// Everything needed to register a standing query with
/// [`crate::CsmService::add_session`].
///
/// ```
/// use csm_service::SessionSpec;
/// use paracosm_core::ParaCosmConfig;
/// # use csm_graph::{QueryGraph, VLabel, ELabel};
/// # let mut q = QueryGraph::new();
/// # let a = q.add_vertex(VLabel(0));
/// # let b = q.add_vertex(VLabel(0));
/// # q.add_edge(a, b, ELabel(0)).unwrap();
/// let spec = SessionSpec::new(q, ParaCosmConfig::sequential())
///     .with_label("edge-watch")
///     .with_budget(std::time::Duration::from_millis(5));
/// ```
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// The standing query pattern.
    pub query: QueryGraph,
    /// Per-session engine configuration (threads, tracing, match
    /// collection, ...). Validated at registration.
    pub config: ParaCosmConfig,
    /// Human-readable session label (reports; defaults to empty).
    pub label: String,
    /// Optional per-update `Find_Matches` budget driving the
    /// [`DegradeLevel`] ladder. `None` never degrades.
    pub budget: Option<Duration>,
}

impl SessionSpec {
    /// A spec with no label and no budget.
    pub fn new(query: QueryGraph, config: ParaCosmConfig) -> SessionSpec {
        SessionSpec {
            query,
            config,
            label: String::new(),
            budget: None,
        }
    }

    /// Attach a display label.
    pub fn with_label(mut self, label: impl Into<String>) -> SessionSpec {
        self.label = label.into();
        self
    }

    /// Attach a per-update enumeration budget.
    pub fn with_budget(mut self, budget: Duration) -> SessionSpec {
        self.budget = Some(budget);
        self
    }
}

/// Result of one budgeted per-session enumeration.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SessionFind {
    /// Matches found (0 when skipped — and then it means *unknown*).
    pub count: u64,
    /// The enumeration was skipped by the degradation ladder.
    pub skipped: bool,
}

/// Running totals of a service's valid, non-no-op edge updates: how many,
/// and their summed graph-apply time in nanoseconds. A deferring
/// session's label-safe bookkeeping is the difference of two tallies
/// ([`Session::flush_deferred`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct EdgeTally {
    pub updates: u64,
    pub apply_ns: u64,
}

impl EdgeTally {
    /// Count one edge update that took `apply_ns` to apply.
    #[inline]
    pub(crate) fn add(&mut self, apply_ns: u64) {
        self.updates += 1;
        self.apply_ns += apply_ns;
    }
}

/// One live standing query inside a [`crate::CsmService`].
pub(crate) struct Session<G: GraphShard = DataGraph> {
    pub id: u64,
    pub label: String,
    pub eng: Engine<Box<dyn CsmAlgorithm<G>>, G>,
    observer: Box<dyn StreamObserver>,
    budget: Option<Duration>,
    level: DegradeLevel,
    overrun_streak: u32,
    ok_streak: u32,
    since_probe: u32,
    budget_overruns: u64,
    degraded: u64,
    skipped_updates: u64,
    shared_reuses: u64,
    /// The service's edge tally at this session's last flush (or
    /// registration), plus every counted edge update since on which the
    /// session was visited: the service's tally minus this one is what
    /// its deferred label-safe fan-outs owe the engine.
    synced: EdgeTally,
}

impl<G: GraphShard> Session<G> {
    pub(crate) fn new(
        id: u64,
        spec: SessionSpec,
        algo: Box<dyn CsmAlgorithm<G>>,
        observer: Box<dyn StreamObserver>,
        g: &G,
        tally: EdgeTally,
    ) -> CsmResult<Session<G>> {
        let eng = Engine::new(g, spec.query, algo, spec.config)?;
        Ok(Session {
            id,
            label: spec.label,
            eng,
            observer,
            budget: spec.budget,
            level: DegradeLevel::Full,
            overrun_streak: 0,
            ok_streak: 0,
            since_probe: 0,
            budget_overruns: 0,
            degraded: 0,
            skipped_updates: 0,
            shared_reuses: 0,
            synced: tally,
        })
    }

    /// Current rung of the degradation ladder.
    pub(crate) fn level(&self) -> DegradeLevel {
        self.level
    }

    /// Serving-layer dimensions for this session's reports.
    pub(crate) fn dims(&self) -> SessionDims {
        SessionDims {
            session_id: self.id,
            label: self.label.clone(),
            budget_overruns: self.budget_overruns,
            degraded: self.degraded,
            skipped: self.skipped_updates,
            shared_reuses: self.shared_reuses,
        }
    }

    /// The session's per-query [`RunReport`], tagged with its dimensions.
    /// Callers flush deferred fan-out bookkeeping first
    /// ([`Session::flush_deferred`]).
    pub(crate) fn report(&self) -> RunReport {
        self.eng.run_report(None, Some(self.dims()))
    }

    /// May label-safe fan-outs to this session defer their bookkeeping?
    /// Mirrors the engine's gate: no rolling window (so no live telemetry
    /// mirror). A deferring session is visited only by the edges it
    /// subscribes to; every other edge costs it one [`Session::observe`].
    #[inline]
    pub(crate) fn defers(&self) -> bool {
        self.eng.defers_fan_bookkeeping()
    }

    /// Label-safe fan-out on the deferred fast path: the observer sees the
    /// exact same [`UpdateObservation`] as the slow path (verdict
    /// label-safe, zero latency, empty ΔM), and nothing else is written —
    /// the bookkeeping is derived at the next [`Session::flush_deferred`].
    #[inline]
    pub(crate) fn observe(&mut self, obs: &UpdateObservation) {
        self.observer.on_update(obs);
    }

    /// The session took the full path on a counted edge update applied in
    /// `apply_ns`: its engine did its own bookkeeping, so the update is
    /// not deferred.
    #[inline]
    pub(crate) fn note_visited(&mut self, apply_ns: u64) {
        self.synced.add(apply_ns);
    }

    /// Fold deferred label-safe bookkeeping into the engine — the
    /// service's `tally` minus this session's synced one — and return how
    /// many fan-outs were flushed (the flight recorder's `flush` span arg).
    /// Must run before the engine's stats or counters are read externally;
    /// no engine write when nothing is owed.
    pub(crate) fn flush_deferred(&mut self, tally: EdgeTally) -> u64 {
        let flushed = tally.updates - self.synced.updates;
        if flushed > 0 {
            let apply = Duration::from_nanos(tally.apply_ns - self.synced.apply_ns);
            self.eng.flush_label_safe(flushed, apply);
        }
        self.synced = tally;
        flushed
    }

    /// Budgeted `Find_Matches` for one unsafe update: enumerate at the
    /// current [`DegradeLevel`], attribute ΔM to stats/telemetry
    /// (`positive` selects appearing vs disappearing matches), and advance
    /// the ladder from the engine's `Find_Matches` time for this call.
    pub(crate) fn enumerate(&mut self, g: &G, e: &EdgeUpdate, positive: bool) -> SessionFind {
        let probing = if self.level == DegradeLevel::Skipped {
            self.since_probe += 1;
            if self.since_probe < PROBE_EVERY {
                self.skipped_updates += 1;
                return SessionFind {
                    count: 0,
                    skipped: true,
                };
            }
            self.since_probe = 0;
            true
        } else {
            false
        };
        let count_only = probing || self.level == DegradeLevel::CountOnly;
        let collect = !count_only && self.eng.config().collect_matches;

        let before = self.eng.stats.find_time;
        let found = self.eng.find_matches(g, e, collect);
        let dt = self.eng.stats.find_time - before;

        if count_only {
            self.degraded += 1;
        }
        if positive {
            self.eng.stats.positives += found.count;
            self.eng.tracer().count(0, Counter::MatchesPos, found.count);
        } else {
            self.eng.stats.negatives += found.count;
            self.eng.tracer().count(0, Counter::MatchesNeg, found.count);
        }
        self.eng.stats.timed_out |= found.timed_out;

        match self.budget {
            Some(b) if dt > b => {
                self.budget_overruns += 1;
                self.ok_streak = 0;
                self.overrun_streak += 1;
                if self.overrun_streak >= ESCALATE_AFTER {
                    self.overrun_streak = 0;
                    self.level = self.level.down();
                }
            }
            Some(_) => {
                self.overrun_streak = 0;
                self.ok_streak += 1;
                // A successful probe recovers immediately (that is its
                // point); otherwise recovery waits for a sustained streak.
                if probing || self.ok_streak >= RECOVER_AFTER {
                    self.ok_streak = 0;
                    self.level = self.level.up();
                }
            }
            None => {}
        }
        SessionFind {
            count: found.count,
            skipped: false,
        }
    }

    /// May this session exchange ΔM deltas through the service's shared
    /// index? Only sessions with no per-update budget and no deadline
    /// qualify: a budgeted session must run its own enumeration so the
    /// degradation ladder observes the same timings as it would alone,
    /// and a deadline could truncate a count mid-search.
    pub(crate) fn shared_eligible(&self) -> bool {
        self.budget.is_none() && self.eng.deadline().is_none()
    }

    /// Absorb a ΔM computed by a same-group session for this exact update:
    /// identical attribution to [`Session::enumerate`] (stats + tracer
    /// counters) with no search. Only sound for
    /// [`Session::shared_eligible`] sessions, which never degrade and never
    /// skip — so the returned find is never `skipped`.
    pub(crate) fn absorb_shared(&mut self, count: u64, positive: bool) -> SessionFind {
        debug_assert!(self.shared_eligible() && self.level == DegradeLevel::Full);
        self.eng.absorb_delta(count, positive);
        self.shared_reuses += 1;
        SessionFind {
            count,
            skipped: false,
        }
    }

    /// Ladder counters mirrored into the live telemetry plane after every
    /// update: (level, budget_overruns, degraded, skipped_updates,
    /// shared_reuses).
    pub(crate) fn telemetry_counters(&self) -> (DegradeLevel, u64, u64, u64, u64) {
        (
            self.level,
            self.budget_overruns,
            self.degraded,
            self.skipped_updates,
            self.shared_reuses,
        )
    }

    /// Per-update epilogue: latency histogram (when configured), slow-K
    /// capture, `UpdateDone` event, and this session's observer callback.
    pub(crate) fn finish(&mut self, upd: Update, obs: UpdateObservation, pre: StageSnapshot) {
        if self.eng.config().track_latency && obs.latency > Duration::ZERO {
            self.eng.stats.latency.record(obs.latency);
        }
        self.eng
            .finish_update(upd, obs, pre, self.observer.as_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_steps_are_bounded() {
        use DegradeLevel::*;
        assert_eq!(Full.down(), CountOnly);
        assert_eq!(CountOnly.down(), Skipped);
        assert_eq!(Skipped.down(), Skipped);
        assert_eq!(Skipped.up(), CountOnly);
        assert_eq!(CountOnly.up(), Full);
        assert_eq!(Full.up(), Full);
    }
}
