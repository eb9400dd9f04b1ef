//! The **inner-update executor** (paper §4.1, Algorithm 2).
//!
//! Within one graph update, the dynamic search tree is decomposed into
//! independent subtrees and explored by a pool of worker threads:
//!
//! * **Initialization phase** — the seed tasks (one per compatible oriented
//!   query edge) are expanded breadth-first until the concurrent queue holds
//!   at least `seed_task_factor × num_threads` subtrees. The last order
//!   position is never expanded into tasks (that would be one task per
//!   match): such a subtree is finished by the algorithm's own search;
//! * **Parallel execution phase** — the calling thread is worker 0.
//!   Workers pop subtrees and run the algorithm's own sequential
//!   enumeration on them; while above `SPLIT_DEPTH`, a worker that
//!   observes idle peers and an empty queue donates its children instead
//!   of recursing (adaptive task sharing — the load-balancing mechanism
//!   evaluated in paper Fig. 10). Helpers are admitted by measured work:
//!   the caller spawns the other `num_threads − 1` workers only at a
//!   subtree boundary reached after [`SPAWN_AFTER`] of searching with tasks
//!   still queued. Until then peers look idle, so the caller donates and
//!   reaches boundaries often; a search that finishes sooner spawns nothing.
//!
//! Synchronization is deliberately minimal: one `crossbeam_deque::Injector`
//! for tasks, one `AtomicUsize` active-worker count for both idleness
//! detection and termination, one `AtomicBool` abort flag, one `AtomicU64`
//! match-cap reservation counter, and thread-local sinks merged after the
//! scope joins. The graph, query and ADS are shared immutably — the search
//! phase takes no locks.

use crate::algorithm::{AdsCandidates, CsmAlgorithm};
use crate::embedding::{BufferSink, Embedding, MatchSink};
use crate::kernel::{self, SearchCtx, SearchStats};
use crate::order::MatchingOrders;
use crate::trace::profile::{ProfileFrame, Profiler};
use crate::trace::{Counter, Tracer};
use crossbeam_deque::{Injector, Steal};
use crossbeam_utils::Backoff;
use csm_check::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use csm_graph::{GraphShard, QueryGraph};
use std::time::{Duration, Instant};

/// How long the caller searches alone before it spawns helpers. A scoped
/// spawn costs 15–17 µs per thread (30–42 µs for a 2-thread run on a
/// 2-vCPU host), and half of `enum_amazon`'s searches finish in under
/// 50 µs; chosen from a sweep of 50, 100 and 200 µs over that workload.
const SPAWN_AFTER: Duration = Duration::from_micros(100);

/// A search-tree subtree: a partial embedding plus the order it extends.
#[derive(Clone, Copy, Debug)]
pub struct SeedTask {
    /// Index into [`MatchingOrders`] identifying the seed order.
    pub order_idx: u16,
    /// Depth already matched (`emb.len()`).
    pub depth: u8,
    /// The partial embedding.
    pub emb: Embedding,
}

/// Executor tuning knobs (a projection of `ParaCosmConfig`).
#[derive(Clone, Copy, Debug)]
pub struct InnerConfig {
    /// Worker thread count (≥ 1).
    pub num_threads: usize,
    /// `SPLIT_DEPTH`: donation allowed strictly below this depth.
    pub split_depth: usize,
    /// Adaptive task sharing on/off (off = paper Fig. 10 "unbalanced").
    pub load_balance: bool,
    /// Initialization targets `seed_task_factor × num_threads` tasks.
    pub seed_task_factor: usize,
    /// Collect embeddings instead of counting.
    pub collect: bool,
    /// Global match cap across all workers.
    pub cap: Option<u64>,
    /// `false` selects the **coarse-grained baseline** (Mnemonic-style
    /// granularity, paper §1/§6): whole root subtrees are handed to threads
    /// with no BFS decomposition and no adaptive sharing. Kept for ablation
    /// — this is the load-imbalance strawman the fine-grained executor
    /// fixes (Challenge 1).
    pub decompose: bool,
}

impl InnerConfig {
    /// Fine-grained defaults matching `ParaCosmConfig::default()`.
    pub fn fine(num_threads: usize) -> Self {
        InnerConfig {
            num_threads,
            split_depth: 4,
            load_balance: true,
            seed_task_factor: 4,
            collect: false,
            cap: None,
            decompose: true,
        }
    }

    /// The coarse-grained (Mnemonic-granularity) baseline.
    pub fn coarse(num_threads: usize) -> Self {
        InnerConfig {
            load_balance: false,
            decompose: false,
            ..Self::fine(num_threads)
        }
    }
}

/// Result of one inner-update run.
#[derive(Debug, Default)]
pub struct InnerOutcome {
    /// Merged match results.
    pub sink: BufferSink,
    /// Summed search-tree nodes across workers.
    pub nodes: u64,
    /// Any worker hit the deadline.
    pub timed_out: bool,
    /// Busy time per worker thread (paper Fig. 10's per-thread execution
    /// time distribution). Index 0 is the caller; helper entries appear
    /// only when helpers were spawned, so the length is 1 or
    /// `num_threads` (0 when the init phase finished the search).
    pub thread_busy: Vec<Duration>,
    /// Subtree tasks executed by workers.
    pub tasks_executed: u64,
    /// Donation events (tasks re-split onto the queue).
    pub tasks_split: u64,
    /// Deadline-fire transitions observed across init phase and workers.
    pub deadline_hits: u64,
}

/// Shared read-only state for one run.
struct RunCtx<'a, G: GraphShard> {
    g: &'a G,
    q: &'a QueryGraph,
    orders: &'a MatchingOrders,
    algo: &'a dyn CsmAlgorithm<G>,
    deadline: Option<Instant>,
    injector: Injector<SeedTask>,
    /// Workers not (yet) proven idle. Starts at 1 (the caller), which
    /// registers all helpers in one `fetch_add` *before* spawning them; a
    /// worker decrements only after observing the queue empty and
    /// re-increments *before* stealing again, so `Empty && active == 0`
    /// can only be observed at quiescence — never while a stolen task is
    /// in flight.
    /// (The seed revision counted *executing* workers instead, opening an
    /// early-exit window between a peer's `Steal::Success` and its
    /// `fetch_add`; `csm-check`'s model tests keep that bug reproducible
    /// as `protocol::worker_buggy`.)
    active: AtomicUsize,
    aborted: AtomicBool,
    reported: AtomicU64,
    cfg: InnerConfig,
    profiler: &'a Profiler,
}

impl<'a, G: GraphShard> RunCtx<'a, G> {
    /// Build the per-task search context. `profile` is the calling
    /// worker's own frame (or `None`): the frame outlives the context but
    /// not the run, so the context's lifetime shrinks to the borrow.
    fn search_ctx<'b>(
        &'b self,
        order_idx: u16,
        profile: Option<&'b ProfileFrame>,
    ) -> SearchCtx<'b, G> {
        if let Some(p) = profile {
            p.set_order(order_idx);
        }
        SearchCtx {
            g: self.g,
            q: self.q,
            order: self.orders.by_index(order_idx),
            ignore_elabels: self.algo.ignore_edge_labels(),
            deadline: self.deadline,
            profile,
        }
    }

    /// Donation heuristic: does some worker currently look idle? True
    /// until helpers exist. Relaxed is deliberate — a stale answer only
    /// skews the donate-vs-recurse choice, never correctness (see LINT.md
    /// ordering allowlist).
    #[inline]
    fn has_idle_threads(&self) -> bool {
        self.active.load(Ordering::Relaxed) < self.cfg.num_threads
    }
}

/// Per-worker sink enforcing the *global* cap and abort flag.
struct WorkerSink<'a, G: GraphShard> {
    local: BufferSink,
    shared: &'a RunCtx<'a, G>,
}

impl<'a, G: GraphShard> WorkerSink<'a, G> {
    fn new(shared: &'a RunCtx<'a, G>) -> Self {
        WorkerSink {
            local: if shared.cfg.collect {
                BufferSink::collecting()
            } else {
                BufferSink::counting()
            },
            shared,
        }
    }

    /// Reserve `k` matches against the global cap *before* counting any:
    /// `prev = reported.fetch_add(k)` grants `min(k, cap − prev)`, so the
    /// grants of all workers sum to exactly `min(Σ k, cap)` however their
    /// reservations interleave, and a bulk count cannot overshoot. Returns
    /// the grant and whether the search may continue; a worker that sees
    /// the abort flag grants nothing.
    #[inline]
    fn reserve(&self, k: u64) -> (u64, bool) {
        if self.shared.aborted.load(Ordering::Relaxed) {
            return (0, false);
        }
        let Some(cap) = self.shared.cfg.cap else {
            return (k, true);
        };
        // Relaxed is sufficient: the grant comes from the RMW's own
        // result, so it is exact under any ordering, and `aborted` is an
        // advisory brake that only saves work. See LINT.md.
        let prev = self.shared.reported.fetch_add(k, Ordering::Relaxed);
        let granted = k.min(cap.saturating_sub(prev));
        if prev + k >= cap {
            self.shared.aborted.store(true, Ordering::Relaxed);
            return (granted, false);
        }
        (granted, true)
    }
}

impl<G: GraphShard> MatchSink for WorkerSink<'_, G> {
    #[inline]
    fn report(&mut self, emb: &Embedding, n: usize) -> bool {
        let (granted, keep) = self.reserve(1);
        if granted == 1 {
            self.local.report(emb, n);
        }
        keep
    }

    #[inline]
    fn counts_only(&self) -> bool {
        self.local.counts_only()
    }

    #[inline]
    fn report_count(&mut self, k: u64) -> bool {
        let (granted, keep) = self.reserve(k);
        self.local.report_count(granted);
        keep
    }
}

/// One worker's private state, folded into the outcome after the join.
/// The caller's worker 0 is built before the init phase, so the BFS and
/// its later tasks share one sink, one set of counters and one profile
/// frame.
struct Worker<'a, G: GraphShard> {
    /// Worker index: 0 is the caller, `1..num_threads` the helpers.
    wid: usize,
    sink: WorkerSink<'a, G>,
    stats: SearchStats,
    /// `None` when profiling is off; merged into the shared grid on order
    /// switches and on drop.
    frame: Option<ProfileFrame>,
    busy: Duration,
    executed: u64,
    split: u64,
    seed_expansions: u64,
    steal_retries: u64,
}

impl<'a, G: GraphShard> Worker<'a, G> {
    fn new(ctx: &'a RunCtx<'a, G>, wid: usize) -> Self {
        Worker {
            wid,
            sink: WorkerSink::new(ctx),
            stats: SearchStats::default(),
            frame: ctx.profiler.frame(),
            busy: Duration::ZERO,
            executed: 0,
            split: 0,
            seed_expansions: 0,
            steal_retries: 0,
        }
    }

    /// Fold the counters into registry shard `wid + 1` and add everything
    /// else to `outcome`.
    fn finish(self, mut outcome: InnerOutcome, tracer: &Tracer) -> InnerOutcome {
        tracer.fold(
            self.wid + 1,
            &[
                (Counter::SeedExpansions, self.seed_expansions),
                (Counter::TasksPopped, self.executed),
                (Counter::TasksCompleted, self.executed),
                (Counter::TasksSplit, self.split),
                (Counter::StealRetries, self.steal_retries),
                (Counter::Nodes, self.stats.nodes),
                (Counter::DeadlineFires, self.stats.deadline_hits),
            ],
        );
        outcome.sink.absorb(self.sink.local);
        outcome.nodes += self.stats.nodes;
        outcome.timed_out |= self.stats.timed_out;
        outcome.deadline_hits += self.stats.deadline_hits;
        outcome.tasks_executed += self.executed;
        outcome.tasks_split += self.split;
        outcome
    }
}

/// Run the inner-update executor over the given seed tasks.
///
/// `seeds` are the root-level tasks of the update's search tree — one per
/// compatible oriented query edge, each a 2-vertex partial embedding (or a
/// deeper partial state when resuming). Completed embeddings among the
/// seeds are reported directly.
///
/// `tracer` receives per-worker counters: worker `w` folds into shard
/// `w + 1`, so the caller (worker 0, including its init phase) owns shard
/// 1 and shard 0 stays the orchestrator's. Pass [`Tracer::off`] for an
/// untraced run. Workers count in plain fields and fold once after the
/// join, so tracing adds no shared-state traffic to the search.
#[allow(clippy::too_many_arguments)]
pub fn run<G: GraphShard>(
    g: &G,
    q: &QueryGraph,
    orders: &MatchingOrders,
    algo: &dyn CsmAlgorithm<G>,
    deadline: Option<Instant>,
    seeds: Vec<SeedTask>,
    cfg: InnerConfig,
    tracer: &Tracer,
    profiler: &Profiler,
) -> InnerOutcome {
    let mut outcome = InnerOutcome {
        sink: if cfg.collect {
            BufferSink::collecting()
        } else {
            BufferSink::counting()
        },
        ..Default::default()
    };
    if seeds.is_empty() {
        return outcome;
    }
    outcome.sink.cap = cfg.cap;
    let start = Instant::now();

    let ctx = RunCtx {
        g,
        q,
        orders,
        algo,
        deadline,
        injector: Injector::new(),
        active: AtomicUsize::new(1),
        aborted: AtomicBool::new(false),
        reported: AtomicU64::new(0),
        cfg,
        profiler,
    };
    // This thread is worker 0: its init-phase reports (complete seeds) go
    // through the same shared cap as every helper's.
    let mut w0 = Worker::new(&ctx, 0);

    // ---- Initialization phase (main thread): BFS-decompose until the queue
    // holds enough independent subtrees for the pool. The coarse baseline
    // (`decompose = false`) skips decomposition entirely.
    let target = if cfg.decompose {
        cfg.seed_task_factor.max(1) * cfg.num_threads.max(1)
    } else {
        0
    };
    let mut frontier: std::collections::VecDeque<SeedTask> = seeds.into();
    // Tasks at a leaf depth are never expanded: they wait here for the
    // algorithm's own search (see `leaf_depth`).
    let mut leaves: Vec<SeedTask> = Vec::new();
    let mut expansions = 0usize;
    let expansion_budget = target * 8;
    while frontier.len() + leaves.len() < target && expansions < expansion_budget {
        let Some(task) = frontier.pop_front() else {
            break;
        };
        let sctx = ctx.search_ctx(task.order_idx, w0.frame.as_ref());
        let n = sctx.order.len();
        if task.depth as usize == n {
            if !w0.sink.report(&task.emb, n) {
                return w0.finish(outcome, tracer);
            }
            continue;
        }
        if task.depth as usize >= leaf_depth(&sctx, algo, &w0.sink) {
            leaves.push(task);
            continue;
        }
        expansions += 1;
        let mut children = Vec::new();
        if !kernel::expand_one_layer(
            &sctx,
            &AdsCandidates(algo),
            &task.emb,
            task.depth as usize,
            &mut children,
            &mut w0.stats,
        ) {
            outcome.timed_out = true;
            return w0.finish(outcome, tracer);
        }
        w0.seed_expansions += 1;
        for child in children {
            frontier.push_back(SeedTask {
                order_idx: task.order_idx,
                depth: task.depth + 1,
                emb: child,
            });
        }
    }
    frontier.extend(leaves);
    if frontier.is_empty() {
        return w0.finish(outcome, tracer);
    }
    for task in frontier {
        ctx.injector.push(task);
    }

    // ---- Parallel execution phase: this thread runs worker 0's loop and
    // admits the helpers at the first subtree boundary past `SPAWN_AFTER`
    // with work still queued and the deadline not yet passed. They are
    // registered *before* they are spawned, so `Empty && active == 0`
    // still implies quiescence.
    let (ctx, nthreads) = (&ctx, cfg.num_threads);
    let due = |now: Instant| now - start >= SPAWN_AFTER && deadline.is_none_or(|d| now < d);
    let helpers: Vec<Worker<'_, G>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        worker_loop(ctx, &mut w0, &mut || {
            if handles.is_empty() && nthreads > 1 && due(Instant::now()) && !ctx.injector.is_empty()
            {
                ctx.active.fetch_add(nthreads - 1, Ordering::AcqRel);
                handles.extend((1..nthreads).map(|wid| {
                    scope.spawn(move || {
                        let mut w = Worker::new(ctx, wid);
                        worker_loop(ctx, &mut w, &mut || {});
                        w
                    })
                }));
            }
        });
        handles
            .into_iter()
            .map(|h| h.join().expect("inner-update worker panicked"))
            .collect()
    });
    for w in std::iter::once(w0).chain(helpers) {
        outcome.thread_busy.push(w.busy);
        outcome = w.finish(outcome, tracer);
    }
    outcome
}

/// One worker's steal loop. `admit` runs at every subtree boundary —
/// after each task, and after each child a task recurses into above
/// `SPLIT_DEPTH`: the caller's helper admission, a no-op for helpers.
fn worker_loop<G: GraphShard>(
    ctx: &RunCtx<'_, G>,
    w: &mut Worker<'_, G>,
    admit: &mut impl FnMut(),
) {
    let backoff = Backoff::new();
    'work: loop {
        match ctx.injector.steal() {
            Steal::Success(task) => {
                backoff.reset();
                let t0 = Instant::now();
                if !ctx.aborted.load(Ordering::Relaxed) {
                    w.executed += 1;
                    parallel_find_matches(ctx, task, w, admit);
                    if w.stats.timed_out {
                        ctx.aborted.store(true, Ordering::Relaxed);
                    }
                }
                w.busy += t0.elapsed();
                admit();
            }
            Steal::Retry => w.steal_retries += 1,
            Steal::Empty => {
                // Deregister while demonstrably idle; re-register *before*
                // stealing again. A task is therefore never in flight
                // uncounted, and `Empty && active == 0` implies quiescence
                // — no worker can exit while work remains (checked under
                // seeded schedules by `csm-check`'s model tests).
                ctx.active.fetch_sub(1, Ordering::AcqRel);
                loop {
                    if !ctx.injector.is_empty() {
                        ctx.active.fetch_add(1, Ordering::AcqRel);
                        backoff.reset();
                        break;
                    }
                    if ctx.active.load(Ordering::Acquire) == 0 {
                        break 'work;
                    }
                    backoff.snooze();
                }
            }
        }
    }
}

/// The first order depth whose tasks are leaves: never split or expanded,
/// only searched. That is the last position, whose children would be one
/// task per match (`kernel::finish_last_level` delivers them), or the one
/// before it when the order ends in an independent tail whose leaves the
/// algorithm counts for `sink` (`kernel::finish_last_two_levels` counts
/// both levels at once).
fn leaf_depth<G: GraphShard>(
    ctx: &SearchCtx<'_, G>,
    algo: &dyn CsmAlgorithm<G>,
    sink: &dyn MatchSink,
) -> usize {
    let tail = ctx.order.independent_tail && kernel::counts_leaves(ctx, &AdsCandidates(algo), sink);
    ctx.order.len() - 1 - usize::from(tail)
}

/// `Parallel_Find_Matches` from paper Algorithm 2: above `SPLIT_DEPTH`,
/// expand one layer at a time and donate children when idle peers are
/// observed with an empty queue; otherwise recurse. At or below
/// `SPLIT_DEPTH`, and always from the [`leaf_depth`] on, hand the subtree
/// to the algorithm's own sequential search.
fn parallel_find_matches<G: GraphShard>(
    ctx: &RunCtx<'_, G>,
    task: SeedTask,
    w: &mut Worker<'_, G>,
    admit: &mut impl FnMut(),
) {
    if ctx.aborted.load(Ordering::Relaxed) {
        return;
    }
    let sctx = ctx.search_ctx(task.order_idx, w.frame.as_ref());
    let n = sctx.order.len();
    let depth = task.depth as usize;
    if depth == n {
        w.sink.report(&task.emb, n);
        return;
    }
    let may_split = ctx.cfg.load_balance
        && depth < ctx.cfg.split_depth
        && depth < leaf_depth(&sctx, ctx.algo, &w.sink);
    if !may_split {
        let mut emb = task.emb;
        ctx.algo
            .search(&sctx, &mut emb, depth, &mut w.sink, &mut w.stats);
        return;
    }
    let mut children = Vec::new();
    if !kernel::expand_one_layer(
        &sctx,
        &AdsCandidates(ctx.algo),
        &task.emb,
        depth,
        &mut children,
        &mut w.stats,
    ) {
        return;
    }
    let donate = ctx.injector.is_empty() && ctx.has_idle_threads();
    if donate {
        w.split += 1;
        for child in children {
            ctx.injector.push(SeedTask {
                order_idx: task.order_idx,
                depth: task.depth + 1,
                emb: child,
            });
        }
    } else {
        for child in children {
            let (order_idx, depth) = (task.order_idx, task.depth + 1);
            parallel_find_matches(
                ctx,
                SeedTask {
                    order_idx,
                    depth,
                    emb: child,
                },
                w,
                admit,
            );
            if ctx.aborted.load(Ordering::Relaxed) {
                return;
            }
            admit();
        }
    }
}

/// Outcome of a [`run_simulated`] virtual-scheduler run.
#[derive(Debug, Default)]
pub struct SimOutcome {
    /// Merged match results.
    pub sink: BufferSink,
    /// Total search-tree nodes.
    pub nodes: u64,
    /// Deadline fired during task execution.
    pub timed_out: bool,
    /// Total sequential work (sum of task durations + decomposition).
    pub work: Duration,
    /// Simulated parallel makespan (longest virtual-worker schedule).
    pub span: Duration,
    /// Simulated per-worker busy time (Fig. 10's distribution).
    pub worker_busy: Vec<Duration>,
    /// Number of subtree tasks scheduled.
    pub tasks: u64,
}

/// Virtual-scheduler counterpart of [`run`]: decompose the search tree with
/// the same policy as Algorithm 2, execute every subtree sequentially with
/// wall-clock timing, then **list-schedule** the measured durations onto
/// `cfg.num_threads` virtual workers (each task goes to the currently
/// least-loaded worker, in queue order — the steady-state behavior of the
/// work-stealing pool).
///
/// Motivation: thread-scaling experiments need more cores than a host may
/// have (the paper uses up to 128 threads on 80 cores). The virtual
/// scheduler preserves the real task sizes, queue order and splitting
/// policy, so speedup *shape* and load-balance distributions reproduce
/// deterministically on any machine. See DESIGN.md (substitutions).
#[allow(clippy::too_many_arguments)]
pub fn run_simulated<G: GraphShard>(
    g: &G,
    q: &QueryGraph,
    orders: &MatchingOrders,
    algo: &dyn CsmAlgorithm<G>,
    deadline: Option<Instant>,
    seeds: Vec<SeedTask>,
    cfg: InnerConfig,
    tracer: &Tracer,
    profiler: &Profiler,
) -> SimOutcome {
    let mut out = SimOutcome {
        sink: if cfg.collect {
            BufferSink::collecting()
        } else {
            BufferSink::counting()
        },
        ..Default::default()
    };
    out.sink.cap = cfg.cap;
    if seeds.is_empty() {
        return out;
    }
    let n_workers = cfg.num_threads.max(1);
    let decomp_start = Instant::now();
    let mut stats = SearchStats::default();
    let frame = profiler.frame();
    let ignore_elabels = algo.ignore_edge_labels();
    // A plain fn (not a closure) so the returned ctx's lifetime is tied to
    // the borrow arguments, letting the profile frame outlive each call.
    fn mk_ctx<'b, G: GraphShard>(
        g: &'b G,
        q: &'b QueryGraph,
        orders: &'b MatchingOrders,
        ignore_elabels: bool,
        deadline: Option<Instant>,
        order_idx: u16,
        profile: Option<&'b ProfileFrame>,
    ) -> SearchCtx<'b, G> {
        if let Some(p) = profile {
            p.set_order(order_idx);
        }
        SearchCtx {
            g,
            q,
            order: orders.by_index(order_idx),
            ignore_elabels,
            deadline,
            profile,
        }
    }

    // Phase 1 — BFS decomposition, exactly as the threaded initializer.
    // With load balancing on, refinement continues (down to SPLIT_DEPTH) to
    // the finer granularity adaptive splitting would reach; with it off,
    // only the initial coarse decomposition is kept (Fig. 10 "unbalanced").
    let coarse_target = cfg.seed_task_factor.max(1) * n_workers;
    let fine_target = if !cfg.decompose {
        0
    } else if cfg.load_balance {
        coarse_target.max(16 * n_workers)
    } else {
        coarse_target
    };
    let expansion_budget = fine_target * 8;
    let mut expansions = 0usize;
    let mut frontier: std::collections::VecDeque<SeedTask> = seeds.into();
    let mut ready: Vec<SeedTask> = Vec::new();
    while let Some(task) = frontier.pop_front() {
        let sctx = mk_ctx(
            g,
            q,
            orders,
            ignore_elabels,
            deadline,
            task.order_idx,
            frame.as_ref(),
        );
        let n = sctx.order.len();
        if task.depth as usize == n {
            if !out.sink.report(&task.emb, n) {
                break;
            }
            continue;
        }
        let deep_enough = task.depth as usize >= cfg.split_depth
            || task.depth as usize >= leaf_depth(&sctx, algo, &out.sink);
        let have_enough =
            ready.len() + frontier.len() + 1 >= fine_target || expansions >= expansion_budget;
        if deep_enough || have_enough {
            ready.push(task);
            continue;
        }
        expansions += 1;
        let mut children = Vec::new();
        if !kernel::expand_one_layer(
            &sctx,
            &AdsCandidates(algo),
            &task.emb,
            task.depth as usize,
            &mut children,
            &mut stats,
        ) {
            out.timed_out = true;
            break;
        }
        for c in children {
            frontier.push_back(SeedTask {
                order_idx: task.order_idx,
                depth: task.depth + 1,
                emb: c,
            });
        }
    }
    let decomp_time = decomp_start.elapsed();

    // Phase 2 — execute every subtree sequentially, timing each task.
    let mut durations: Vec<Duration> = Vec::with_capacity(ready.len());
    if !out.timed_out {
        for task in &ready {
            let sctx = mk_ctx(
                g,
                q,
                orders,
                ignore_elabels,
                deadline,
                task.order_idx,
                frame.as_ref(),
            );
            let n = sctx.order.len();
            let t0 = Instant::now();
            let keep = if task.depth as usize == n {
                out.sink.report(&task.emb, n)
            } else {
                let mut emb = task.emb;
                algo.search(
                    &sctx,
                    &mut emb,
                    task.depth as usize,
                    &mut out.sink,
                    &mut stats,
                )
            };
            durations.push(t0.elapsed());
            if stats.timed_out {
                out.timed_out = true;
                break;
            }
            if !keep {
                break;
            }
        }
    }
    out.nodes = stats.nodes;
    out.timed_out |= stats.timed_out;
    out.tasks = durations.len() as u64;
    out.work = decomp_time + durations.iter().sum::<Duration>();
    // Virtual workers share one real thread: everything lands on shard 0.
    tracer.fold(
        0,
        &[
            (Counter::SeedExpansions, expansions as u64),
            (Counter::TasksPopped, out.tasks),
            (Counter::TasksCompleted, out.tasks),
            (Counter::Nodes, stats.nodes),
            (Counter::DeadlineFires, stats.deadline_hits),
        ],
    );

    // Phase 3 — list-schedule measured durations onto virtual workers:
    // each task goes to the least-loaded worker, in queue order.
    let mut busy = vec![Duration::ZERO; n_workers];
    for d in &durations {
        let min = busy
            .iter()
            .enumerate()
            .min_by_key(|&(_, b)| *b)
            .map(|(i, _)| i)
            .expect("n_workers >= 1");
        busy[min] += *d;
    }
    out.span = decomp_time + busy.iter().max().copied().unwrap_or_default();
    out.worker_busy = busy;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::AdsChange;
    use crate::static_match;
    use csm_graph::{DataGraph, ELabel, EdgeUpdate, QVertexId, VLabel, VertexId};

    /// A no-ADS algorithm for exercising the executor.
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

    /// `Plain` searched without an ADS filter, so a counting sink takes
    /// the kernel's count-at-the-last-level path.
    struct Unfiltered;
    impl CsmAlgorithm for Unfiltered {
        fn name(&self) -> &'static str {
            "unfiltered"
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
        fn search(
            &self,
            ctx: &SearchCtx<'_>,
            emb: &mut Embedding,
            depth: usize,
            sink: &mut dyn MatchSink,
            stats: &mut SearchStats,
        ) -> bool {
            kernel::extend(ctx, &kernel::NoFilter, emb, depth, sink, stats)
        }
    }

    /// Dense bipartite-ish graph where a triangle query fans out widely.
    fn big_graph() -> (DataGraph, QueryGraph) {
        dense_graph(60, |i, j| (i + j) % 3 != 0)
    }

    /// A 4-cycle query over a single-label graph on `n` vertices holding
    /// the pairs `keep` admits.
    fn dense_graph(n: usize, keep: fn(usize, usize) -> bool) -> (DataGraph, QueryGraph) {
        let mut g = DataGraph::new();
        let vs: Vec<_> = (0..n).map(|_| g.add_vertex(VLabel(0))).collect();
        for i in 0..n {
            for j in i + 1..n {
                if keep(i, j) {
                    g.insert_edge(vs[i], vs[j], ELabel(0)).unwrap();
                }
            }
        }
        let mut q = QueryGraph::new();
        let u: Vec<_> = (0..4).map(|_| q.add_vertex(VLabel(0))).collect();
        q.add_edge(u[0], u[1], ELabel(0)).unwrap();
        q.add_edge(u[1], u[2], ELabel(0)).unwrap();
        q.add_edge(u[2], u[3], ELabel(0)).unwrap();
        q.add_edge(u[3], u[0], ELabel(0)).unwrap();
        (g, q)
    }

    fn seeds_for_edge(
        q: &QueryGraph,
        orders: &MatchingOrders,
        g: &DataGraph,
        a: VertexId,
        b: VertexId,
    ) -> Vec<SeedTask> {
        let el = g.edge_label(a, b).unwrap();
        q.seed_edges(g.label(a), g.label(b), el, false)
            .map(|(ua, ub)| {
                let mut emb = Embedding::empty();
                emb.set(ua, a);
                emb.set(ub, b);
                SeedTask {
                    order_idx: orders.seed_index(ua, ub),
                    depth: 2,
                    emb,
                }
            })
            .collect()
    }

    fn cfg(threads: usize) -> InnerConfig {
        InnerConfig {
            split_depth: 3,
            ..InnerConfig::fine(threads)
        }
    }

    /// Matches through one specific data edge, counted by brute force:
    /// total matches minus matches of the graph without the edge.
    fn oracle_through_edge(g: &mut DataGraph, q: &QueryGraph, a: VertexId, b: VertexId) -> u64 {
        let with = static_match::count_all(g, q);
        let l = g.remove_edge(a, b).unwrap().unwrap();
        let without = static_match::count_all(g, q);
        g.insert_edge(a, b, l).unwrap();
        with - without
    }

    #[test]
    fn parallel_count_matches_oracle_across_thread_counts() {
        let (mut g, q) = big_graph();
        let orders = MatchingOrders::build(&q);
        let (a, b) = (VertexId(0), VertexId(1));
        let expected = oracle_through_edge(&mut g, &q, a, b);
        assert!(
            expected > 0,
            "test graph must have matches through the edge"
        );
        let algos: [&dyn CsmAlgorithm; 2] = [&Plain, &Unfiltered];
        for algo in algos {
            for threads in [1, 2, 4, 8] {
                let seeds = seeds_for_edge(&q, &orders, &g, a, b);
                let out = run(
                    &g,
                    &q,
                    &orders,
                    algo,
                    None,
                    seeds,
                    cfg(threads),
                    &Tracer::off(),
                    &Profiler::off(),
                );
                let name = algo.name();
                assert_eq!(out.sink.count, expected, "{name} threads={threads}");
                assert!(!out.timed_out);
            }
        }
    }

    #[test]
    fn load_balance_off_still_correct() {
        let (mut g, q) = big_graph();
        let orders = MatchingOrders::build(&q);
        let (a, b) = (VertexId(2), VertexId(3));
        let expected = oracle_through_edge(&mut g, &q, a, b);
        let seeds = seeds_for_edge(&q, &orders, &g, a, b);
        let mut c = cfg(4);
        c.load_balance = false;
        let out = run(
            &g,
            &q,
            &orders,
            &Plain,
            None,
            seeds,
            c,
            &Tracer::off(),
            &Profiler::off(),
        );
        assert_eq!(out.sink.count, expected);
    }

    #[test]
    fn empty_seeds_return_zero() {
        let (g, q) = big_graph();
        let orders = MatchingOrders::build(&q);
        let out = run(
            &g,
            &q,
            &orders,
            &Plain,
            None,
            Vec::new(),
            cfg(4),
            &Tracer::off(),
            &Profiler::off(),
        );
        assert_eq!(out.sink.count, 0);
        assert_eq!(out.nodes, 0);
    }

    #[test]
    fn cap_stops_enumeration_early() {
        let (g, q) = big_graph();
        let orders = MatchingOrders::build(&q);
        let algos: [&dyn CsmAlgorithm; 2] = [&Plain, &Unfiltered];
        for algo in algos {
            let seeds = seeds_for_edge(&q, &orders, &g, VertexId(0), VertexId(1));
            let mut c = cfg(4);
            c.cap = Some(10);
            let out = run(
                &g,
                &q,
                &orders,
                algo,
                None,
                seeds,
                c,
                &Tracer::off(),
                &Profiler::off(),
            );
            // Reservation before counting makes the global cap exact.
            assert_eq!(out.sink.count, 10);
        }
    }

    /// A run context for driving `WorkerSink`s directly.
    fn sink_ctx<'a>(
        g: &'a DataGraph,
        q: &'a QueryGraph,
        orders: &'a MatchingOrders,
        profiler: &'a Profiler,
        c: InnerConfig,
    ) -> RunCtx<'a, DataGraph> {
        RunCtx {
            g,
            q,
            orders,
            algo: &Plain,
            deadline: None,
            injector: Injector::new(),
            active: AtomicUsize::new(c.num_threads),
            aborted: AtomicBool::new(false),
            reported: AtomicU64::new(0),
            cfg: c,
            profiler,
        }
    }

    /// Four real threads reserve mixed single reports and bulk counts
    /// against one cap: the grants sum to exactly `min(Σ weights, cap)`,
    /// whether or not the cap is reached.
    #[test]
    fn worker_sink_grants_sum_to_capped_total_under_real_threads() {
        let (g, q) = big_graph();
        let orders = MatchingOrders::build(&q);
        let profiler = Profiler::off();
        let mut emb = Embedding::empty();
        emb.set(QVertexId(0), VertexId(0));
        // Per thread: 100 steps of weight 1..=7 (Σ = 400 per thread).
        let weight = |t: u64, i: u64| 1 + (t * 31 + i * 17) % 7;
        let offered: u64 = (0..4)
            .flat_map(|t| (0..100).map(move |i| weight(t, i)))
            .sum();
        for cap in [1, 250, offered - 1, offered, offered + 50] {
            let mut c = cfg(4);
            c.cap = Some(cap);
            let ctx = sink_ctx(&g, &q, &orders, &profiler, c);
            let granted: u64 = std::thread::scope(|s| {
                let hs: Vec<_> = (0..4u64)
                    .map(|t| {
                        let ctx = &ctx;
                        s.spawn(move || {
                            let mut sink = WorkerSink::new(ctx);
                            for i in 0..100 {
                                let w = weight(t, i);
                                let keep = if w == 1 {
                                    sink.report(&emb, 1)
                                } else {
                                    sink.report_count(w)
                                };
                                if !keep {
                                    break;
                                }
                            }
                            sink.local.count
                        })
                    })
                    .collect();
                hs.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(granted, offered.min(cap), "cap={cap}");
            assert_eq!(ctx.aborted.load(Ordering::Relaxed), cap <= offered);
        }
    }

    /// Once the abort flag is up a worker counts nothing more, by report
    /// or by count, and says stop.
    #[test]
    fn worker_sink_counts_nothing_past_an_abort() {
        let (g, q) = big_graph();
        let orders = MatchingOrders::build(&q);
        let profiler = Profiler::off();
        let ctx = sink_ctx(&g, &q, &orders, &profiler, cfg(2));
        let mut sink = WorkerSink::new(&ctx);
        assert!(sink.counts_only());
        assert!(sink.report_count(3));
        ctx.aborted.store(true, Ordering::Relaxed);
        assert!(!sink.report_count(5));
        assert!(!sink.report(&Embedding::empty(), 0));
        assert_eq!(sink.local.count, 3);

        let mut c = cfg(2);
        c.collect = true;
        let ctx = sink_ctx(&g, &q, &orders, &profiler, c);
        assert!(!WorkerSink::new(&ctx).counts_only());
    }

    #[test]
    fn expired_deadline_times_out() {
        let (g, q) = big_graph();
        let orders = MatchingOrders::build(&q);
        let seeds = seeds_for_edge(&q, &orders, &g, VertexId(0), VertexId(1));
        let past = Instant::now() - Duration::from_secs(1);
        let out = run(
            &g,
            &q,
            &orders,
            &Plain,
            Some(past),
            seeds,
            cfg(2),
            &Tracer::off(),
            &Profiler::off(),
        );
        assert!(out.timed_out);
    }

    #[test]
    fn collect_mode_materializes_valid_matches() {
        let (g, q) = big_graph();
        let orders = MatchingOrders::build(&q);
        let seeds = seeds_for_edge(&q, &orders, &g, VertexId(0), VertexId(1));
        let mut c = cfg(4);
        c.collect = true;
        let out = run(
            &g,
            &q,
            &orders,
            &Plain,
            None,
            seeds,
            c,
            &Tracer::off(),
            &Profiler::off(),
        );
        assert_eq!(out.sink.matches.len() as u64, out.sink.count);
        for m in &out.sink.matches {
            // Every match must be a genuine embedding containing the edge.
            for e in q.edges() {
                assert_eq!(
                    g.edge_label(m.get(e.u), m.get(e.v)),
                    Some(e.label),
                    "reported non-match {m:?}"
                );
            }
            let uses_edge = q.edges().iter().any(|e| {
                let (x, y) = (m.get(e.u), m.get(e.v));
                (x == VertexId(0) && y == VertexId(1)) || (x == VertexId(1) && y == VertexId(0))
            });
            assert!(uses_edge, "match does not use the updated edge: {m:?}");
        }
    }

    #[test]
    fn coarse_baseline_is_exact_but_undecomposed() {
        let (mut g, q) = big_graph();
        let orders = MatchingOrders::build(&q);
        let (a, b) = (VertexId(0), VertexId(1));
        let expected = oracle_through_edge(&mut g, &q, a, b);
        let seeds = seeds_for_edge(&q, &orders, &g, a, b);
        let n_seeds = seeds.len() as u64;
        let out = run(
            &g,
            &q,
            &orders,
            &Plain,
            None,
            seeds,
            InnerConfig::coarse(4),
            &Tracer::off(),
            &Profiler::off(),
        );
        assert_eq!(out.sink.count, expected);
        // No decomposition: exactly one task per seed, no donations.
        assert_eq!(out.tasks_executed, n_seeds);
        assert_eq!(out.tasks_split, 0);
    }

    #[test]
    fn simulated_coarse_schedules_seed_granularity() {
        let (g, q) = big_graph();
        let orders = MatchingOrders::build(&q);
        let seeds = seeds_for_edge(&q, &orders, &g, VertexId(0), VertexId(1));
        let n_seeds = seeds.len() as u64;
        let out = run_simulated(
            &g,
            &q,
            &orders,
            &Plain,
            None,
            seeds,
            InnerConfig::coarse(8),
            &Tracer::off(),
            &Profiler::off(),
        );
        assert_eq!(out.tasks, n_seeds);
    }

    #[test]
    fn simulated_count_matches_oracle_across_worker_counts() {
        let (mut g, q) = big_graph();
        let orders = MatchingOrders::build(&q);
        let (a, b) = (VertexId(0), VertexId(1));
        let expected = oracle_through_edge(&mut g, &q, a, b);
        for workers in [1, 2, 8, 32, 128] {
            let seeds = seeds_for_edge(&q, &orders, &g, a, b);
            let out = run_simulated(
                &g,
                &q,
                &orders,
                &Plain,
                None,
                seeds,
                cfg(workers),
                &Tracer::off(),
                &Profiler::off(),
            );
            assert_eq!(out.sink.count, expected, "workers={workers}");
            assert!(!out.timed_out);
            assert!(out.span <= out.work + Duration::from_millis(1));
            assert_eq!(out.worker_busy.len(), workers);
        }
    }

    #[test]
    fn simulated_span_shrinks_with_more_workers() {
        let (g, q) = big_graph();
        let orders = MatchingOrders::build(&q);
        let span_of = |workers: usize| {
            let seeds = seeds_for_edge(&q, &orders, &g, VertexId(0), VertexId(1));
            run_simulated(
                &g,
                &q,
                &orders,
                &Plain,
                None,
                seeds,
                cfg(workers),
                &Tracer::off(),
                &Profiler::off(),
            )
            .span
        };
        let s1 = span_of(1);
        let s16 = span_of(16);
        assert!(
            s16 < s1,
            "16 virtual workers should beat 1: s1={s1:?} s16={s16:?}"
        );
    }

    #[test]
    fn simulated_lb_off_uses_coarser_tasks() {
        let (g, q) = big_graph();
        let orders = MatchingOrders::build(&q);
        let tasks_of = |lb: bool| {
            let seeds = seeds_for_edge(&q, &orders, &g, VertexId(0), VertexId(1));
            let mut c = cfg(8);
            c.load_balance = lb;
            run_simulated(
                &g,
                &q,
                &orders,
                &Plain,
                None,
                seeds,
                c,
                &Tracer::off(),
                &Profiler::off(),
            )
            .tasks
        };
        assert!(tasks_of(true) > tasks_of(false));
    }

    #[test]
    fn thread_busy_times_recorded_per_worker() {
        let (g, q) = big_graph();
        let orders = MatchingOrders::build(&q);
        let seeds = seeds_for_edge(&q, &orders, &g, VertexId(0), VertexId(1));
        let out = run(
            &g,
            &q,
            &orders,
            &Plain,
            None,
            seeds,
            cfg(4),
            &Tracer::off(),
            &Profiler::off(),
        );
        assert!((1..=4).contains(&out.thread_busy.len()));
        assert!(out.tasks_executed > 0);
    }

    /// The registry and the outcome agree on nodes and completed tasks at
    /// every width. A generous seeding target makes the init phase expand
    /// nodes of its own even at one thread.
    #[test]
    fn registry_counts_match_outcome_across_thread_counts() {
        let (g, q) = big_graph();
        let orders = MatchingOrders::build(&q);
        for threads in [1, 2, 4] {
            let tracer = Tracer::new(crate::trace::TraceLevel::Counters, threads);
            let seeds = seeds_for_edge(&q, &orders, &g, VertexId(0), VertexId(1));
            let c = InnerConfig {
                seed_task_factor: 16,
                ..cfg(threads)
            };
            let out = run(
                &g,
                &q,
                &orders,
                &Plain,
                None,
                seeds,
                c,
                &tracer,
                &Profiler::off(),
            );
            let snap = tracer.metrics();
            assert!(snap.total(Counter::SeedExpansions) > 0, "threads={threads}");
            assert_eq!(snap.total(Counter::Nodes), out.nodes, "threads={threads}");
            assert_eq!(
                snap.total(Counter::TasksCompleted),
                out.tasks_executed,
                "threads={threads}"
            );
        }
    }

    /// A search that ends before `SPAWN_AFTER` runs on the caller alone.
    /// One seed at the last order position leaves nothing queued at any
    /// boundary, so it never admits helpers whatever the clock says; a
    /// few-task search is held to the same whenever its own wall time
    /// stayed below `SPAWN_AFTER`.
    #[test]
    fn short_search_spawns_no_helpers() {
        // u0(0) – u1(1) – u2(2) through edge a–b, and b has five label-2
        // neighbours: one seed, five matches.
        let mut g = DataGraph::new();
        let (a, b) = (g.add_vertex(VLabel(0)), g.add_vertex(VLabel(1)));
        g.insert_edge(a, b, ELabel(0)).unwrap();
        for _ in 0..5 {
            let c = g.add_vertex(VLabel(2));
            g.insert_edge(b, c, ELabel(0)).unwrap();
        }
        let mut q = QueryGraph::new();
        let u: Vec<_> = (0..3).map(|l| q.add_vertex(VLabel(l))).collect();
        q.add_edge(u[0], u[1], ELabel(0)).unwrap();
        q.add_edge(u[1], u[2], ELabel(0)).unwrap();
        let orders = MatchingOrders::build(&q);
        let (mut small, small_q) = dense_graph(8, |i, j| (i + j) % 3 != 0);
        let small_orders = MatchingOrders::build(&small_q);
        let small_expected = oracle_through_edge(&mut small, &small_q, VertexId(0), VertexId(1));
        for threads in [2, 4] {
            let seeds = seeds_for_edge(&q, &orders, &g, a, b);
            assert_eq!(seeds.len(), 1);
            let out = run(
                &g,
                &q,
                &orders,
                &Plain,
                None,
                seeds,
                cfg(threads),
                &Tracer::off(),
                &Profiler::off(),
            );
            assert_eq!(out.sink.count, 5);
            assert_eq!(out.thread_busy.len(), 1, "threads={threads}");

            let seeds = seeds_for_edge(&small_q, &small_orders, &small, VertexId(0), VertexId(1));
            assert!(seeds.len() > 1);
            let t0 = Instant::now();
            let out = run(
                &small,
                &small_q,
                &small_orders,
                &Plain,
                None,
                seeds,
                cfg(threads),
                &Tracer::off(),
                &Profiler::off(),
            );
            let wall = t0.elapsed();
            assert_eq!(out.sink.count, small_expected);
            let len = out.thread_busy.len();
            assert!(len == 1 || len == threads, "threads={threads} len={len}");
            assert!(wall >= SPAWN_AFTER || len == 1, "spawned after {wall:?}");
        }
    }

    /// A search the test times on one thread at ≥ 20 × `SPAWN_AFTER`
    /// admits every helper, and still counts exactly. On the complete
    /// graph K_n a 4-cycle meets edge a–b in 8 (n − 2)(n − 3) embeddings
    /// (4 query edges × 2 orientations × ordered pairs of other vertices);
    /// the brute-force oracle confirms the formula on K_8.
    #[test]
    fn long_search_admits_every_helper() {
        let (a, b) = (VertexId(0), VertexId(1));
        let through_ab = |n: u64| 8 * (n - 2) * (n - 3);
        let (mut k8, q) = dense_graph(8, |_, _| true);
        assert_eq!(oracle_through_edge(&mut k8, &q, a, b), through_ab(8));
        let (g, q) = dense_graph(220, |_, _| true);
        let orders = MatchingOrders::build(&q);
        let expected = through_ab(220);
        let solo = |threads| {
            let seeds = seeds_for_edge(&q, &orders, &g, a, b);
            run(
                &g,
                &q,
                &orders,
                &Plain,
                None,
                seeds,
                cfg(threads),
                &Tracer::off(),
                &Profiler::off(),
            )
        };
        let t0 = Instant::now();
        assert_eq!(solo(1).sink.count, expected);
        let wall = t0.elapsed();
        assert!(
            wall >= SPAWN_AFTER * 20,
            "search too short to admit: {wall:?}"
        );
        for threads in [2, 4] {
            let out = solo(threads);
            assert_eq!(out.sink.count, expected, "threads={threads}");
            assert_eq!(out.thread_busy.len(), threads, "threads={threads}");
        }
    }

    /// Worker `w` folds into shard `w + 1`: the caller's pops land on
    /// shard 1, the orchestrator's shard 0 stays empty, and the worker
    /// shards together account for every executed task.
    #[test]
    fn worker_counters_land_on_worker_shards() {
        let (g, q) = dense_graph(220, |_, _| true);
        let orders = MatchingOrders::build(&q);
        for threads in [2, 4] {
            let tracer = Tracer::new(crate::trace::TraceLevel::Counters, threads);
            let seeds = seeds_for_edge(&q, &orders, &g, VertexId(0), VertexId(1));
            let out = run(
                &g,
                &q,
                &orders,
                &Plain,
                None,
                seeds,
                cfg(threads),
                &tracer,
                &Profiler::off(),
            );
            let snap = tracer.metrics();
            assert_eq!(snap.per_shard.len(), threads + 1);
            assert_eq!(snap.shard(0, Counter::TasksPopped), 0, "threads={threads}");
            assert!(snap.shard(1, Counter::TasksPopped) > 0, "threads={threads}");
            let workers: u64 = (1..=threads)
                .map(|s| snap.shard(s, Counter::TasksPopped))
                .sum();
            assert_eq!(workers, out.tasks_executed, "threads={threads}");
        }
    }
}
