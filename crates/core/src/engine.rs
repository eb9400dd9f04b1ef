//! The per-query update engine — `ParaCosm`'s execution core, factored out
//! so it can run against a data graph it does **not** own.
//!
//! [`crate::ParaCosm`] couples one [`Engine`] with one owned [`DataGraph`]
//! and a stream loop; the `csm-service` serving layer instead multiplexes
//! many engines (one per standing query session) over a single shared
//! graph. Everything that is *per query* lives here: the query, the hosted
//! algorithm and its ADS, matching orders, configuration, deadline,
//! telemetry, and cumulative [`RunStats`]. Everything that is *per graph*
//! (applying updates, stream order, batching) stays with the caller, which
//! hands the engine a `&DataGraph` at each call.
//!
//! Call conventions mirror paper Algorithm 1 and the
//! [`crate::CsmAlgorithm`] contract:
//!
//! * **insertion** — apply the edge to `G` first, then
//!   [`Engine::ads_update`] (`is_insert = true`), then
//!   [`Engine::find_matches`] for the positive ΔM;
//! * **deletion** — [`Engine::find_matches`] first (negative matches exist
//!   only while the edge is present), then remove the edge from `G`, then
//!   [`Engine::ads_update`] (`is_insert = false`).

use crate::algorithm::{AdsCandidates, AdsChange, CsmAlgorithm};
use crate::config::ParaCosmConfig;
use crate::embedding::{BufferSink, Embedding, Match, MAX_PATTERN_VERTICES};
use crate::error::{CsmError, CsmResult};
use crate::inner::{self, InnerConfig, SeedTask};
use crate::inter::{self, Classified, ClassifierStats};
use crate::kernel::{SearchCtx, SearchStats};
use crate::metrics::LatencyHistogram;
use crate::order::MatchingOrders;
use crate::static_match::{self, StaticResult};
use crate::trace::flight::SpanId;
use crate::trace::profile::Profiler;
use crate::trace::window::{WindowConfig, WindowRing};
use crate::trace::{
    self, Counter, RunReport, SessionDims, StreamObserver, Tracer, UpdateObservation,
};
use csm_graph::{DataGraph, EdgeUpdate, GraphShard, QueryGraph, Update};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cumulative run statistics (feeds paper Tables 3/4 and Figs. 10/12).
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Time spent maintaining the ADS (`Update_ADS`).
    pub ads_time: Duration,
    /// Time spent enumerating matches (`Find_Matches`) — wall clock of the
    /// work actually performed on this host.
    pub find_time: Duration,
    /// Parallel makespan of `Find_Matches`: equal to `find_time` for real
    /// (sequential or threaded) runs; in virtual-scheduler mode
    /// (`sim_threads`), the simulated N-worker critical path instead.
    pub find_span: Duration,
    /// Time spent applying updates to `G` (incl. parallel bulk phases).
    pub apply_time: Duration,
    /// Time spent in the batch executor's data-parallel phases (stage-1
    /// classification + bulk application of label-safe updates). On the
    /// paper's testbed this work is spread over `k` worker threads; the
    /// harness projects it accordingly on smaller hosts.
    pub bulk_time: Duration,
    /// Edge/vertex updates processed.
    pub updates: u64,
    /// Positive (appearing) matches reported.
    pub positives: u64,
    /// Negative (disappearing) matches reported.
    pub negatives: u64,
    /// Classifier verdict counters (inter-update runs).
    pub classifier: ClassifierStats,
    /// Search-tree nodes visited.
    pub nodes: u64,
    /// Per-worker busy time accumulated over inner-update runs (Fig. 10).
    pub thread_busy: Vec<Duration>,
    /// Donation events in the inner executor.
    pub tasks_split: u64,
    /// Subtree tasks executed by the inner executor.
    pub tasks_executed: u64,
    /// A deadline fired during processing.
    pub timed_out: bool,
    /// Per-update latency distribution (only when
    /// `ParaCosmConfig::track_latency` is set; batched runs record the
    /// sequentially processed residual updates).
    pub latency: LatencyHistogram,
    /// The `ParaCosmConfig::slow_k` slowest updates, latency-descending,
    /// each with its stage breakdown. Bulk-applied label-safe updates are
    /// not eligible (their per-update latency is ~zero by construction).
    pub slowest: Vec<SlowUpdate>,
}

/// One entry of the top-K slowest-updates capture
/// (`ParaCosmConfig::slow_k`): the update, its end-to-end latency, and
/// where that time went.
#[derive(Clone, Copy, Debug)]
pub struct SlowUpdate {
    /// Zero-based position in the stream.
    pub index: u64,
    /// The update itself.
    pub update: Update,
    /// End-to-end latency.
    pub latency: Duration,
    /// `Update_ADS` time within this update.
    pub ads: Duration,
    /// Graph-application time within this update.
    pub apply: Duration,
    /// `Find_Matches` time within this update.
    pub find: Duration,
    /// Search-tree nodes visited by this update.
    pub nodes: u64,
    /// Flight-recorder span of the update ([`SpanId::NONE`] when the
    /// recorder was off), so slow-update reports and `/debug/flight`
    /// snapshots cross-reference the same causal trace.
    pub span: SpanId,
}

impl SlowUpdate {
    /// Compact human/JSON-friendly description of the update, e.g.
    /// `+e 3-17 l0` (insert edge), `-v 12` (delete vertex).
    pub fn describe(&self) -> String {
        match self.update {
            Update::InsertEdge(e) => format!("+e {}-{} l{}", e.src.0, e.dst.0, e.label.0),
            Update::DeleteEdge(e) => format!("-e {}-{} l{}", e.src.0, e.dst.0, e.label.0),
            Update::InsertVertex { id, label } => format!("+v {} l{}", id.0, label.0),
            Update::DeleteVertex { id } => format!("-v {}", id.0),
        }
    }
}

impl RunStats {
    /// Projected stream time had `Find_Matches` run at its parallel
    /// makespan: `wall − find_time + find_span`. For non-simulated runs this
    /// equals `wall`.
    pub fn projected_time(&self, wall: Duration) -> Duration {
        wall.saturating_sub(self.find_time) + self.find_span
    }

    pub(crate) fn absorb_busy(&mut self, busy: &[Duration]) {
        if self.thread_busy.len() < busy.len() {
            self.thread_busy.resize(busy.len(), Duration::ZERO);
        }
        for (acc, b) in self.thread_busy.iter_mut().zip(busy) {
            *acc += *b;
        }
    }

    /// Keep the `k` slowest updates, latency-descending.
    pub(crate) fn note_slow(&mut self, k: usize, su: SlowUpdate) {
        if k == 0 {
            return;
        }
        let pos = self.slowest.partition_point(|s| s.latency >= su.latency);
        if pos >= k {
            return;
        }
        self.slowest.insert(pos, su);
        self.slowest.truncate(k);
    }
}

/// Result of one [`Engine::find_matches`] enumeration.
#[derive(Clone, Debug, Default)]
pub struct FindOutcome {
    /// Matches found (ΔM size for this update/engine pair).
    pub count: u64,
    /// Materialized matches (when collection was requested).
    pub matches: Vec<Match>,
    /// The enumeration hit the cooperative deadline.
    pub timed_out: bool,
}

/// Opaque `(ads, apply, find, nodes)` marker diffed around one update for
/// the slowest-K stage breakdown ([`Engine::stage_snapshot`] /
/// [`Engine::finish_update`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageSnapshot {
    ads: Duration,
    apply: Duration,
    find: Duration,
    nodes: u64,
}

/// The per-query update engine: hosts one algorithm over one query and
/// executes the per-update pipeline against a caller-provided data graph.
///
/// # Examples
///
/// ```
/// use paracosm_core::{Engine, ParaCosmConfig};
/// # use paracosm_core::{AdsChange, CsmAlgorithm};
/// # use csm_graph::{DataGraph, QueryGraph, VLabel, ELabel, EdgeUpdate, QVertexId, VertexId};
/// # struct Plain;
/// # impl CsmAlgorithm for Plain {
/// #     fn name(&self) -> &'static str { "plain" }
/// #     fn rebuild(&mut self, _: &DataGraph, _: &QueryGraph) {}
/// #     fn update_ads(&mut self, _: &DataGraph, _: &QueryGraph, _: EdgeUpdate, _: bool)
/// #         -> AdsChange { AdsChange::Unchanged }
/// #     fn is_candidate(&self, _: &DataGraph, _: &QueryGraph, _: QVertexId, _: VertexId)
/// #         -> bool { true }
/// # }
/// // Data: path v0-v1-v2; query: triangle.
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
/// let mut eng = Engine::new(&g, q, Plain, ParaCosmConfig::sequential()).unwrap();
/// // Insertion convention: apply to G first, then ADS, then enumerate.
/// let e = EdgeUpdate::new(v[0], v[2], ELabel(0));
/// g.insert_edge(e.src, e.dst, e.label).unwrap();
/// eng.ads_update(&g, e, true);
/// let out = eng.find_matches(&g, &e, false);
/// assert_eq!(out.count, 6); // one triangle × 6 automorphic mappings
/// ```
pub struct Engine<A: CsmAlgorithm<G>, G: GraphShard = DataGraph> {
    q: QueryGraph,
    algo: A,
    orders: MatchingOrders,
    cfg: ParaCosmConfig,
    deadline: Option<Instant>,
    /// Telemetry handle (inert unless `ParaCosmConfig::tracing` is set).
    tracer: Tracer,
    /// Rolling-window telemetry ring (inert — one branch per update —
    /// unless `ParaCosmConfig::window` is set or
    /// [`Engine::enable_window`] installed one).
    window: Option<Arc<WindowRing>>,
    /// Per-(order, depth) cost-attribution plane (inert — `frame()` is
    /// `None`, one branch per site — unless `ParaCosmConfig::profile`
    /// is set).
    profiler: Profiler,
    /// Cumulative statistics; reset with [`Engine::reset_stats`].
    pub stats: RunStats,
    _g: PhantomData<fn() -> G>,
}

impl<G: GraphShard, A: CsmAlgorithm<G>> Engine<A, G> {
    /// Offline stage: validate the configuration, build matching orders,
    /// and (re)build the algorithm's ADS for `g`.
    ///
    /// Errors with [`CsmError::ConfigInvalid`] when the configuration fails
    /// [`ParaCosmConfig::validate`] or the query is empty / exceeds
    /// [`MAX_PATTERN_VERTICES`].
    pub fn new(g: &G, q: QueryGraph, mut algo: A, cfg: ParaCosmConfig) -> CsmResult<Self> {
        cfg.validate()?;
        if q.num_vertices() < 1 || q.num_vertices() > MAX_PATTERN_VERTICES {
            return Err(CsmError::ConfigInvalid {
                field: "query",
                reason: format!(
                    "query must have 1..={MAX_PATTERN_VERTICES} vertices, has {}",
                    q.num_vertices()
                ),
            });
        }
        algo.rebuild(g, &q);
        let orders = MatchingOrders::build(&q);
        let tracer = Tracer::new(cfg.trace, cfg.num_threads);
        let window = cfg.window.map(|w| Arc::new(WindowRing::new(w)));
        let profiler = Profiler::new(cfg.profile, &q, &orders);
        Ok(Engine {
            q,
            algo,
            orders,
            cfg,
            deadline: None,
            tracer,
            window,
            profiler,
            stats: RunStats::default(),
            _g: PhantomData,
        })
    }

    /// The query pattern.
    pub fn query(&self) -> &QueryGraph {
        &self.q
    }

    /// The hosted algorithm (e.g. to inspect its ADS in tests).
    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// The active configuration.
    pub fn config(&self) -> &ParaCosmConfig {
        &self.cfg
    }

    /// The counter registry handle (inert when tracing is off). Snapshot
    /// after a run with [`Tracer::metrics`].
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The rolling-window telemetry ring, when one is configured
    /// ([`ParaCosmConfig::windowed`] or [`Engine::enable_window`]).
    pub fn window(&self) -> Option<&Arc<WindowRing>> {
        self.window.as_ref()
    }

    /// The query profiler handle (inert when `ParaCosmConfig::profile`
    /// is off). Snapshot with [`Profiler::snapshot`] for the per-edge
    /// EXPLAIN surfaces.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Install a rolling-window ring if none is configured yet and return
    /// a shared handle to it. Used by the serving layer's telemetry plane
    /// to windowize sessions that didn't opt in per-config; idempotent —
    /// an existing ring (and its history) is kept.
    pub fn enable_window(&mut self, cfg: WindowConfig) -> Arc<WindowRing> {
        match &self.window {
            Some(w) => Arc::clone(w),
            None => {
                let w = Arc::new(WindowRing::new(cfg));
                self.window = Some(Arc::clone(&w));
                w
            }
        }
    }

    /// Clear cumulative statistics.
    pub fn reset_stats(&mut self) {
        self.stats = RunStats::default();
    }

    /// Set (or clear) the cooperative deadline used by subsequent calls.
    pub fn set_deadline(&mut self, d: Option<Instant>) {
        self.deadline = d;
    }

    /// The currently active cooperative deadline.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Build a machine-readable [`RunReport`] from the current statistics
    /// and registry snapshot; `outcome` embeds a stream result, `session`
    /// tags the report with serving-layer session dimensions.
    pub fn run_report(
        &self,
        outcome: Option<crate::framework::StreamOutcome>,
        session: Option<SessionDims>,
    ) -> RunReport {
        RunReport {
            algo: self.algo.name().to_string(),
            threads: self.cfg.num_threads,
            outcome,
            stats: self.stats.clone(),
            metrics: self.tracer.enabled().then(|| self.tracer.metrics()),
            session,
            profile: self.profiler.snapshot(),
        }
    }

    // ------------------------------------------------------------ pipeline

    /// Count one stream update into stats and telemetry (the caller owns
    /// stream order and graph application).
    #[inline]
    pub fn note_update(&mut self) {
        self.stats.updates += 1;
        self.tracer.count(0, Counter::Updates, 1);
    }

    /// Attribute graph-application wall time to this engine's stats.
    #[inline]
    pub fn note_apply(&mut self, dt: Duration) {
        self.stats.apply_time += dt;
    }

    /// Rebuild the algorithm's ADS from scratch (offline stage, and
    /// fallback after structural events like vertex-table growth); timed as
    /// ADS maintenance.
    pub fn rebuild(&mut self, g: &G) {
        let t = Instant::now();
        self.algo.rebuild(g, &self.q);
        self.stats.ads_time += t.elapsed();
    }

    /// `Update_ADS` wrapper: timed, with a state change counted under
    /// [`Counter::AdsChanged`].
    pub fn ads_update(&mut self, g: &G, e: EdgeUpdate, is_insert: bool) -> AdsChange {
        let t = Instant::now();
        let change = self.algo.update_ads(g, &self.q, e, is_insert);
        self.stats.ads_time += t.elapsed();
        if change == AdsChange::Changed {
            self.tracer.count(0, Counter::AdsChanged, 1);
        }
        change
    }

    /// `Find_Initial_Matches`: enumerate the matches already present in `g`
    /// (through the algorithm's candidate filter).
    pub fn initial_matches(&self, g: &G, collect: bool) -> StaticResult {
        static_match::enumerate_with_filter(
            g,
            &self.q,
            &AdsCandidates(&self.algo),
            self.algo.ignore_edge_labels(),
            collect,
            self.deadline,
        )
    }

    // ---------------------------------------------------------- classifier

    /// Stage-1 verdict for this engine's query: the edge's label triple
    /// matches no query edge (pure in `(Q, labels)` — see [`inter`]).
    #[inline]
    pub fn label_safe(&self, g: &G, e: &EdgeUpdate) -> bool {
        inter::label_safe(g, &self.q, e, self.algo.ignore_edge_labels())
    }

    /// Stage-2 verdict: endpoint degrees cannot support any compatible
    /// query edge. Call *before* applying an insert (prospective degrees)
    /// and *before* removing a delete.
    #[inline]
    pub fn degree_safe(&self, g: &G, e: &EdgeUpdate, is_insert: bool) -> bool {
        inter::degree_safe(g, &self.q, e, is_insert, self.algo.ignore_edge_labels())
    }

    /// Stage-3 verdict: no compatible oriented query edge has both
    /// endpoints structurally feasible and in the algorithm's candidate
    /// sets. For inserts call *after* [`Engine::ads_update`]; for deletes
    /// call while the edge is still present.
    #[inline]
    pub fn candidates_safe(&self, g: &G, e: &EdgeUpdate) -> bool {
        inter::candidates_safe(g, &self.q, &self.algo, e)
    }

    /// [`Engine::candidates_safe`] with the structural endpoint probes
    /// served from a cross-session [`inter::ProbeMemo`] (bit-identical
    /// verdicts; the serving layer's shared index passes one memo across
    /// all sessions of an update).
    pub fn candidates_safe_memo(&self, g: &G, e: &EdgeUpdate, memo: &mut inter::ProbeMemo) -> bool {
        inter::candidates_safe_memo(g, &self.q, &self.algo, e, memo)
    }

    /// Does the hosted algorithm ignore edge labels (CaLiG mode)? Exposed
    /// so a multi-query host can stage classification against a pattern
    /// union: the flag selects wildcard sub-pattern keys.
    #[inline]
    pub fn ignores_edge_labels(&self) -> bool {
        self.algo.ignore_edge_labels()
    }

    /// Absorb a match delta computed by another engine over the same
    /// `(graph, query, update)` triple — the serving layer's shared-index
    /// fan-out. Attributes the counts exactly as [`Engine::find_matches`]
    /// would (stats plus tracer counters) and tallies the reuse under
    /// [`Counter::SharedHit`]; no search runs.
    pub fn absorb_delta(&mut self, count: u64, positive: bool) {
        if positive {
            self.stats.positives += count;
            self.tracer.count(0, Counter::MatchesPos, count);
        } else {
            self.stats.negatives += count;
            self.tracer.count(0, Counter::MatchesNeg, count);
        }
        self.tracer.count(0, Counter::SharedHit, 1);
    }

    /// Note that this engine enumerated a delta that was published for
    /// same-group sessions to reuse ([`Counter::SharedMiss`]).
    pub fn note_shared_publish(&mut self) {
        self.tracer.count(0, Counter::SharedMiss, 1);
    }

    /// Record a classifier verdict in both `RunStats` and the tracer.
    /// `idx`, the update's stream position, is unused (the tracer keeps
    /// counters only); it stays for the benchmark replay harness, which
    /// still passes it.
    #[inline]
    pub fn record_verdict(&mut self, c: Classified, _idx: u64) {
        self.stats.classifier.record(c);
        self.tracer.count(0, trace::verdict_counter(c), 1);
    }

    /// True when nothing observes this engine's bookkeeping per update:
    /// no rolling window is installed. In that regime label-safe fan-out
    /// bookkeeping is a set of commutative totals, so a multi-session host
    /// may accumulate it
    /// outside the engine and fold it in later with
    /// [`Engine::flush_label_safe`] — final stats and counters are
    /// bit-identical, only the moment they become visible moves.
    #[inline]
    pub fn defers_fan_bookkeeping(&self) -> bool {
        self.window.is_none()
    }

    /// Fold `n` deferred label-safe fan-outs (and their accumulated share
    /// of graph-apply wall time) into stats and counters, exactly as `n`
    /// interleaved [`Engine::note_update`] + [`Engine::note_apply`] +
    /// label-safe [`Engine::record_verdict`] calls would have. Only valid
    /// under [`Engine::defers_fan_bookkeeping`], where no per-update
    /// consumer can see the intermediate states.
    pub fn flush_label_safe(&mut self, n: u64, apply: Duration) {
        debug_assert!(self.defers_fan_bookkeeping());
        self.stats.updates += n;
        self.stats.apply_time += apply;
        self.stats.classifier.total += n;
        self.stats.classifier.safe_label += n;
        self.tracer.count(0, Counter::Updates, n);
        self.tracer.count(0, Counter::ClassLabelSafe, n);
    }

    /// Record a structural no-op in both `RunStats` and the tracer. `idx`
    /// is unused, as in [`Engine::record_verdict`].
    #[inline]
    pub fn record_noop(&mut self, _idx: u64) {
        self.stats.classifier.record_noop();
        self.tracer.count(0, Counter::ClassNoop, 1);
    }

    // -------------------------------------------------------- enumeration

    /// Root-level seed tasks for the update's search tree: one per
    /// compatible oriented query edge whose endpoints pass the degree prune
    /// and the algorithm's candidate test.
    fn seeds_for(&self, g: &G, e: &EdgeUpdate) -> Vec<SeedTask> {
        let (la, lb) = (g.label(e.src), g.label(e.dst));
        let ignore = self.algo.ignore_edge_labels();
        self.q
            .seed_edges(la, lb, e.label, ignore)
            .filter(|&(u1, u2)| {
                g.degree(e.src) >= self.q.degree(u1)
                    && g.degree(e.dst) >= self.q.degree(u2)
                    && self.algo.is_candidate(g, &self.q, u1, e.src)
                    && self.algo.is_candidate(g, &self.q, u2, e.dst)
            })
            .map(|(u1, u2)| {
                let mut emb = Embedding::empty();
                emb.set(u1, e.src);
                emb.set(u2, e.dst);
                SeedTask {
                    order_idx: self.orders.seed_index(u1, u2),
                    depth: 2,
                    emb,
                }
            })
            .collect()
    }

    /// `Find_Matches`: enumerate all matches using the updated edge
    /// (which must be present in `g` — see the module docs for the
    /// insert/delete call conventions). `collect` materializes embeddings
    /// into [`FindOutcome::matches`]; pass `cfg.collect_matches` for the
    /// classic behaviour or `false` for count-only (degraded) enumeration.
    pub fn find_matches(&mut self, g: &G, e: &EdgeUpdate, collect: bool) -> FindOutcome {
        let seeds = self.seeds_for(g, e);
        if seeds.is_empty() {
            return FindOutcome::default();
        }
        let t0 = Instant::now();
        let result = if let Some(sim) = self.cfg.sim_threads {
            let out = inner::run_simulated(
                g,
                &self.q,
                &self.orders,
                &self.algo,
                self.deadline,
                seeds,
                InnerConfig {
                    num_threads: sim,
                    split_depth: self.cfg.split_depth,
                    load_balance: self.cfg.load_balance,
                    seed_task_factor: self.cfg.seed_task_factor,
                    collect,
                    cap: self.cfg.match_cap,
                    decompose: true,
                },
                &self.tracer,
                &self.profiler,
            );
            self.stats.nodes += out.nodes;
            self.stats.absorb_busy(&out.worker_busy);
            self.stats.tasks_executed += out.tasks;
            self.stats.find_span += out.span;
            self.stats.find_time += t0.elapsed();
            return FindOutcome {
                count: out.sink.count,
                matches: out.sink.matches,
                timed_out: out.timed_out,
            };
        } else if self.cfg.is_parallel() {
            let out = inner::run(
                g,
                &self.q,
                &self.orders,
                &self.algo,
                self.deadline,
                seeds,
                InnerConfig {
                    num_threads: self.cfg.num_threads,
                    split_depth: self.cfg.split_depth,
                    load_balance: self.cfg.load_balance,
                    seed_task_factor: self.cfg.seed_task_factor,
                    collect,
                    cap: self.cfg.match_cap,
                    decompose: true,
                },
                &self.tracer,
                &self.profiler,
            );
            self.stats.nodes += out.nodes;
            self.stats.absorb_busy(&out.thread_busy);
            self.stats.tasks_split += out.tasks_split;
            self.stats.tasks_executed += out.tasks_executed;
            FindOutcome {
                count: out.sink.count,
                matches: out.sink.matches,
                timed_out: out.timed_out,
            }
        } else {
            let mut sink = if collect {
                BufferSink::collecting()
            } else {
                BufferSink::counting()
            }
            .with_cap(self.cfg.match_cap);
            let mut stats = SearchStats::default();
            let frame = self.profiler.frame();
            for task in seeds {
                if let Some(fr) = &frame {
                    fr.set_order(task.order_idx);
                }
                let ctx = SearchCtx {
                    g,
                    q: &self.q,
                    order: self.orders.by_index(task.order_idx),
                    ignore_elabels: self.algo.ignore_edge_labels(),
                    deadline: self.deadline,
                    profile: frame.as_ref(),
                };
                let mut emb = task.emb;
                if !self
                    .algo
                    .search(&ctx, &mut emb, task.depth as usize, &mut sink, &mut stats)
                {
                    break;
                }
            }
            self.stats.nodes += stats.nodes;
            self.tracer.count(0, Counter::Nodes, stats.nodes);
            if stats.deadline_hits > 0 {
                self.tracer
                    .count(0, Counter::DeadlineFires, stats.deadline_hits);
            }
            FindOutcome {
                count: sink.count,
                matches: sink.matches,
                timed_out: stats.timed_out,
            }
        };
        let elapsed = t0.elapsed();
        self.stats.find_time += elapsed;
        self.stats.find_span += elapsed;
        result
    }

    // -------------------------------------------------------- observation

    /// Should each sequentially processed update be individually timed?
    pub fn per_update_timing(&self, has_observer: bool) -> bool {
        self.cfg.track_latency || self.cfg.slow_k > 0 || has_observer
    }

    /// `(ads_time, apply_time, find_time, nodes)` marker — take before an
    /// update, pass to [`Engine::finish_update`] after.
    #[inline]
    pub fn stage_snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            ads: self.stats.ads_time,
            apply: self.stats.apply_time,
            find: self.stats.find_time,
            nodes: self.stats.nodes,
        }
    }

    /// Per-update epilogue: slowest-K capture, the rolling window, and the
    /// observer callback. `obs.latency` of zero skips the slow-K capture
    /// (bulk-applied updates have no per-update latency by construction).
    pub fn finish_update(
        &mut self,
        upd: Update,
        obs: UpdateObservation,
        pre: StageSnapshot,
        observer: &mut dyn StreamObserver,
    ) {
        if obs.latency > Duration::ZERO {
            let su = SlowUpdate {
                index: obs.index,
                update: upd,
                latency: obs.latency,
                ads: self.stats.ads_time.saturating_sub(pre.ads),
                apply: self.stats.apply_time.saturating_sub(pre.apply),
                find: self.stats.find_time.saturating_sub(pre.find),
                nodes: self.stats.nodes - pre.nodes,
                span: obs.span,
            };
            let k = self.cfg.slow_k;
            self.stats.note_slow(k, su);
        }
        if let Some(w) = &self.window {
            w.record(&obs);
        }
        observer.on_update(&obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::AdsChange;
    use csm_graph::{ELabel, QVertexId, VLabel, VertexId};

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

    fn triangle_setup() -> (DataGraph, QueryGraph, Vec<VertexId>) {
        let mut g = DataGraph::new();
        let v: Vec<_> = (0..3).map(|_| g.add_vertex(VLabel(0))).collect();
        g.insert_edge(v[0], v[1], ELabel(0)).unwrap();
        g.insert_edge(v[1], v[2], ELabel(0)).unwrap();
        let mut q = QueryGraph::new();
        let u: Vec<_> = (0..3).map(|_| q.add_vertex(VLabel(0))).collect();
        q.add_edge(u[0], u[1], ELabel(0)).unwrap();
        q.add_edge(u[1], u[2], ELabel(0)).unwrap();
        q.add_edge(u[0], u[2], ELabel(0)).unwrap();
        (g, q, v)
    }

    #[test]
    fn engine_rejects_invalid_config() {
        let (g, q, _) = triangle_setup();
        let mut cfg = ParaCosmConfig::sequential();
        cfg.batch_size = 0;
        match Engine::new(&g, q, Plain, cfg) {
            Err(CsmError::ConfigInvalid { field, .. }) => assert_eq!(field, "batch_size"),
            other => panic!("expected ConfigInvalid, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn engine_rejects_empty_query() {
        let g = DataGraph::new();
        let q = QueryGraph::new();
        assert!(matches!(
            Engine::new(&g, q, Plain, ParaCosmConfig::sequential()),
            Err(CsmError::ConfigInvalid { field: "query", .. })
        ));
    }

    #[test]
    fn shared_graph_insert_convention_finds_matches() {
        let (mut g, q, v) = triangle_setup();
        let mut eng = Engine::new(&g, q, Plain, ParaCosmConfig::sequential()).unwrap();
        let e = EdgeUpdate::new(v[0], v[2], ELabel(0));
        g.insert_edge(e.src, e.dst, e.label).unwrap();
        eng.ads_update(&g, e, true);
        let out = eng.find_matches(&g, &e, true);
        assert_eq!(out.count, 6);
        assert_eq!(out.matches.len(), 6);
        assert!(!out.timed_out);
        // Count-only enumeration returns the same ΔM without materializing.
        let out2 = eng.find_matches(&g, &e, false);
        assert_eq!(out2.count, 6);
        assert!(out2.matches.is_empty());
    }

    #[test]
    fn two_engines_share_one_graph_independently() {
        let (mut g, q, v) = triangle_setup();
        // Second query: a single edge (matches every edge both ways).
        let mut q2 = QueryGraph::new();
        let a = q2.add_vertex(VLabel(0));
        let b = q2.add_vertex(VLabel(0));
        q2.add_edge(a, b, ELabel(0)).unwrap();

        let mut tri = Engine::new(&g, q, Plain, ParaCosmConfig::sequential()).unwrap();
        let mut edge = Engine::new(&g, q2, Plain, ParaCosmConfig::sequential()).unwrap();

        let e = EdgeUpdate::new(v[0], v[2], ELabel(0));
        g.insert_edge(e.src, e.dst, e.label).unwrap();
        for eng in [&mut tri, &mut edge] {
            eng.ads_update(&g, e, true);
        }
        assert_eq!(tri.find_matches(&g, &e, false).count, 6);
        assert_eq!(edge.find_matches(&g, &e, false).count, 2);
    }

    #[test]
    fn classifier_wrappers_agree_with_inter() {
        let (g, q, v) = triangle_setup();
        let eng = Engine::new(&g, q.clone(), Plain, ParaCosmConfig::sequential()).unwrap();
        let e = EdgeUpdate::new(v[0], v[2], ELabel(0));
        assert_eq!(eng.label_safe(&g, &e), inter::label_safe(&g, &q, &e, false));
        assert_eq!(
            eng.degree_safe(&g, &e, true),
            inter::degree_safe(&g, &q, &e, true, false)
        );
    }
}
