//! Observability: sharded metrics, per-worker event rings, and exporters.
//!
//! The paper's evaluation (§5, Tables 3–4, Figs. 10/12) is an exercise in
//! *explaining* where time goes — ADS vs. `Find_Matches`, worker busy/idle
//! balance, classifier verdict mix. This module gives the engine a
//! low-overhead telemetry spine with three layers:
//!
//! * [`MetricsRegistry`] — named counters (plus a few gauges) sharded per
//!   worker. Each shard is cache-line-aligned and written by exactly one
//!   thread with relaxed atomics, so the hot path never contends; shards
//!   are summed only on [`Tracer::metrics`] snapshot.
//! * [`EventRing`] — a fixed-capacity per-worker ring of structured
//!   [`TraceEvent`]s (seed expansion, task pop/complete, split/donate,
//!   steal retries, deadline fires, classifier verdicts, ADS deltas) with
//!   relative-nanosecond timestamps. When full, the oldest events are
//!   overwritten and a drop counter keeps the books honest.
//! * exporters — a Chrome/Perfetto `trace_event` JSON writer
//!   ([`Tracer::perfetto_json`]), a Prometheus-style text snapshot
//!   ([`Tracer::prometheus_text`]), and a machine-readable [`RunReport`]
//!   (JSON) combining `RunStats`, latency-histogram buckets, classifier
//!   verdicts and per-worker counters.
//!
//! Everything is gated on [`TraceLevel`]: at `Off` the [`Tracer`] holds no
//! allocation and every call is a single branch on an `Option` (verified
//! by the `trace_off_overhead` row in EXPERIMENTS.md); at `Counters` the
//! registry is live; at `Full` event recording is on as well.
//!
//! Workers do not write to shared state per event: they accumulate into a
//! thread-local [`LocalTrace`] (plain `u64`s and a local buffer) and merge
//! once per executor run.

use crate::engine::RunStats;
use crate::inter::{Classified, SafeStage};
use csm_check::sync::atomic::{AtomicU64, Ordering};
use csm_check::sync::{Mutex, PoisonError};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod flight;
pub mod profile;
pub mod window;

/// How much telemetry the engine records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// No tracer is allocated; instrumentation sites reduce to one branch.
    #[default]
    Off,
    /// Sharded counters/gauges only — no event recording.
    Counters,
    /// Counters plus per-worker structured event rings.
    Full,
}

impl TraceLevel {
    /// Parse `off|counters|full` (CLI surface).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "counters" => Some(TraceLevel::Counters),
            "full" => Some(TraceLevel::Full),
            _ => None,
        }
    }
}

/// Counter identifiers. The discriminant doubles as the shard-array slot,
/// so incrementing is a single indexed relaxed `fetch_add` — no name
/// hashing on the hot path. Names surface only in snapshots/exporters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Graph updates processed.
    Updates,
    /// BFS seed-expansion steps in the inner executor's init phase.
    SeedExpansions,
    /// Subtree tasks popped from the shared queue.
    TasksPopped,
    /// Subtree tasks run to completion.
    TasksCompleted,
    /// Donation events (a worker re-split children onto the queue).
    TasksSplit,
    /// `Steal::Retry` collisions on the shared queue.
    StealRetries,
    /// Cooperative deadline fires observed by the search kernel.
    DeadlineFires,
    /// Search-tree nodes visited.
    Nodes,
    /// Positive (appearing) matches reported.
    MatchesPos,
    /// Negative (disappearing) matches reported.
    MatchesNeg,
    /// Classifier: safe at stage 1 (label).
    ClassLabelSafe,
    /// Classifier: safe at stage 2 (degree).
    ClassDegreeSafe,
    /// Classifier: safe at stage 3 (ADS/candidate).
    ClassAdsSafe,
    /// Classifier: unsafe (full processing).
    ClassUnsafe,
    /// Classifier: structural no-op (duplicate insert / phantom delete).
    ClassNoop,
    /// ADS maintenance calls that reported a state change.
    AdsChanged,
    /// Parallel bulk flushes of label-safe runs in the batch executor.
    BulkFlushes,
    /// Shared-index delta reuses: this engine absorbed another session's
    /// cached ΔM instead of enumerating (serving layer only).
    SharedHit,
    /// Shared-index delta computations: this engine enumerated a ΔM that
    /// was published for same-group sessions to reuse (serving layer only).
    SharedMiss,
}

/// Number of counter slots (keep in sync with [`Counter`]).
pub const NUM_COUNTERS: usize = 19;

/// Snapshot/exporter names, indexed by [`Counter`] discriminant.
pub const COUNTER_NAMES: [&str; NUM_COUNTERS] = [
    "updates",
    "seed_expansions",
    "tasks_popped",
    "tasks_completed",
    "tasks_split",
    "steal_retries",
    "deadline_fires",
    "nodes",
    "matches_pos",
    "matches_neg",
    "class_label_safe",
    "class_degree_safe",
    "class_ads_safe",
    "class_unsafe",
    "class_noop",
    "ads_changed",
    "bulk_flushes",
    "shared_hits",
    "shared_misses",
];

/// Gauge identifiers (registry-global, not sharded).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Configured worker-thread count.
    Workers,
    /// Event-ring capacity per shard.
    RingCapacity,
    /// Batch size `k` of the batch executor.
    BatchSize,
}

/// Number of gauge slots (keep in sync with [`Gauge`]).
pub const NUM_GAUGES: usize = 3;

/// Gauge names, indexed by [`Gauge`] discriminant.
pub const GAUGE_NAMES: [&str; NUM_GAUGES] = ["workers", "ring_capacity", "batch_size"];

/// One cache-line-aligned block of counters, written by a single thread.
/// The alignment keeps neighboring shards out of each other's cache lines,
/// so relaxed increments never ping-pong ownership.
#[repr(align(128))]
struct Shard {
    counters: [AtomicU64; NUM_COUNTERS],
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Sharded counter/gauge registry. Shard 0 is the orchestrator (main
/// thread); shards `1..=n` belong to the inner executor's workers.
pub struct MetricsRegistry {
    shards: Vec<Shard>,
    gauges: [AtomicU64; NUM_GAUGES],
}

impl MetricsRegistry {
    /// A registry with `workers + 1` shards.
    pub fn new(workers: usize) -> MetricsRegistry {
        MetricsRegistry {
            shards: (0..workers + 1).map(|_| Shard::new()).collect(),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    fn clamp(&self, shard: usize) -> usize {
        shard.min(self.shards.len() - 1)
    }

    /// Add `n` to a counter on one shard (relaxed; the owner is the only
    /// writer).
    #[inline]
    pub fn add(&self, shard: usize, c: Counter, n: u64) {
        self.shards[self.clamp(shard)].counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Set a gauge.
    #[inline]
    pub fn set_gauge(&self, g: Gauge, v: u64) {
        self.gauges[g as usize].store(v, Ordering::Relaxed);
    }

    /// Merge all shards into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            per_shard: self
                .shards
                .iter()
                .map(|s| std::array::from_fn(|i| s.counters[i].load(Ordering::Relaxed)))
                .collect(),
            gauges: std::array::from_fn(|i| self.gauges[i].load(Ordering::Relaxed)),
        }
    }
}

/// A merged view of the registry at one instant.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values per shard (`[shard][Counter as usize]`).
    pub per_shard: Vec<[u64; NUM_COUNTERS]>,
    /// Gauge values.
    pub gauges: [u64; NUM_GAUGES],
}

impl MetricsSnapshot {
    /// Sum of one counter across all shards.
    pub fn total(&self, c: Counter) -> u64 {
        self.per_shard.iter().map(|s| s[c as usize]).sum()
    }

    /// One counter on one shard (0 when the shard does not exist).
    pub fn shard(&self, shard: usize, c: Counter) -> u64 {
        self.per_shard.get(shard).map_or(0, |s| s[c as usize])
    }
}

/// What happened, in one machine word. Payload meaning per kind is listed
/// on each variant as `(a, b)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Init-phase BFS expansion. `(depth, children materialized)`.
    SeedExpand,
    /// Worker popped a subtree task. `(order index, depth)`.
    TaskPop,
    /// Worker finished that task. `(nodes visited, matches reported)`.
    TaskDone,
    /// Worker donated children to the queue. `(children, depth)`.
    Split,
    /// Queue steal collided and retried. `(0, 0)`.
    StealRetry,
    /// The cooperative deadline fired. `(nodes so far, 0)`.
    DeadlineFired,
    /// Classifier verdict. `(verdict code — see [`verdict_code`], update index)`.
    Classify,
    /// ADS maintenance reported a state change. `(1, update index)`.
    AdsDelta,
    /// One stream update fully processed. `(update index, ΔM size)`.
    UpdateDone,
}

/// Stable wire code for a classifier verdict (`Classify` event payload and
/// `RunReport` JSON): 0 label-safe, 1 degree-safe, 2 ADS-safe, 3 unsafe,
/// 4 structural no-op.
pub fn verdict_code(c: Classified) -> u64 {
    match c {
        Classified::Safe(SafeStage::Label) => 0,
        Classified::Safe(SafeStage::Degree) => 1,
        Classified::Safe(SafeStage::Ads) => 2,
        Classified::Unsafe => 3,
    }
}

/// The registry counter a classifier verdict increments.
pub fn verdict_counter(c: Classified) -> Counter {
    match c {
        Classified::Safe(SafeStage::Label) => Counter::ClassLabelSafe,
        Classified::Safe(SafeStage::Degree) => Counter::ClassDegreeSafe,
        Classified::Safe(SafeStage::Ads) => Counter::ClassAdsSafe,
        Classified::Unsafe => Counter::ClassUnsafe,
    }
}

/// One structured event with a timestamp relative to the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Nanoseconds since [`Tracer`] creation.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (see [`EventKind`]).
    pub a: u64,
    /// Second payload word (see [`EventKind`]).
    pub b: u64,
}

/// Fixed-capacity overwrite-oldest ring of [`TraceEvent`]s.
pub struct EventRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    head: usize,
    dropped: u64,
}

impl EventRing {
    /// An empty ring holding at most `cap` events.
    pub fn new(cap: usize) -> EventRing {
        EventRing {
            buf: Vec::new(),
            cap: cap.max(1),
            head: 0,
            dropped: 0,
        }
    }

    /// Append, overwriting the oldest event when full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Drain the ring, returning events oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        let out = self.to_vec();
        self.buf.clear();
        self.head = 0;
        out
    }
}

/// Default per-shard event-ring capacity (events are 32 bytes, so this is
/// 1 MiB per shard at `Full`).
pub const DEFAULT_RING_CAPACITY: usize = 32_768;

struct TraceShared {
    level: TraceLevel,
    epoch: Instant,
    registry: MetricsRegistry,
    /// One ring per shard. Each is effectively single-writer (shard 0 =
    /// orchestrator, shard `w+1` = worker `w` merging after each run), so
    /// the mutexes are uncontended bookkeeping, not hot-path locks.
    rings: Vec<Mutex<EventRing>>,
}

/// Handle to one run's telemetry. Cheap to clone (an `Arc`); `Off` holds
/// nothing and reduces every call to a branch.
#[derive(Clone)]
pub struct Tracer {
    shared: Option<Arc<TraceShared>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("level", &self.level())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::off()
    }
}

impl Tracer {
    /// The disabled tracer: no allocation, every call a guard check.
    pub fn off() -> Tracer {
        Tracer { shared: None }
    }

    /// A tracer for `workers` inner-executor threads (plus the
    /// orchestrator shard) with the default ring capacity.
    pub fn new(level: TraceLevel, workers: usize) -> Tracer {
        Tracer::with_capacity(level, workers, DEFAULT_RING_CAPACITY)
    }

    /// As [`Tracer::new`] with an explicit per-shard ring capacity.
    pub fn with_capacity(level: TraceLevel, workers: usize, ring_cap: usize) -> Tracer {
        if level == TraceLevel::Off {
            return Tracer::off();
        }
        let registry = MetricsRegistry::new(workers);
        registry.set_gauge(Gauge::Workers, workers as u64);
        registry.set_gauge(Gauge::RingCapacity, ring_cap as u64);
        Tracer {
            shared: Some(Arc::new(TraceShared {
                level,
                epoch: Instant::now(),
                registry,
                rings: (0..workers + 1)
                    .map(|_| Mutex::new(EventRing::new(ring_cap)))
                    .collect(),
            })),
        }
    }

    /// The active level.
    pub fn level(&self) -> TraceLevel {
        self.shared.as_ref().map_or(TraceLevel::Off, |s| s.level)
    }

    /// Are counters live?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Is event recording live?
    #[inline]
    pub fn events_enabled(&self) -> bool {
        self.shared
            .as_ref()
            .is_some_and(|s| s.level == TraceLevel::Full)
    }

    /// Nanoseconds since tracer creation (0 when off).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.shared
            .as_ref()
            .map_or(0, |s| s.epoch.elapsed().as_nanos() as u64)
    }

    /// Number of shards (orchestrator + workers); 0 when off.
    pub fn num_shards(&self) -> usize {
        self.shared.as_ref().map_or(0, |s| s.rings.len())
    }

    /// Increment a counter on `shard` (0 = orchestrator, `w + 1` =
    /// worker `w`).
    #[inline]
    pub fn count(&self, shard: usize, c: Counter, n: u64) {
        if let Some(s) = &self.shared {
            s.registry.add(shard, c, n);
        }
    }

    /// Set a gauge.
    #[inline]
    pub fn gauge(&self, g: Gauge, v: u64) {
        if let Some(s) = &self.shared {
            s.registry.set_gauge(g, v);
        }
    }

    /// Record one event on `shard` (no-op below `Full`). The shard's ring
    /// mutex is single-writer in practice, so this never contends; workers
    /// on the hot path should still prefer a [`LocalTrace`].
    #[inline]
    pub fn event(&self, shard: usize, kind: EventKind, a: u64, b: u64) {
        if let Some(s) = &self.shared {
            if s.level == TraceLevel::Full {
                let ev = TraceEvent {
                    ts_ns: s.epoch.elapsed().as_nanos() as u64,
                    kind,
                    a,
                    b,
                };
                let idx = shard.min(s.rings.len() - 1);
                // Telemetry must never take the engine down: a ring whose
                // writer panicked is still structurally valid, so poison is
                // ignored here and below.
                s.rings[idx]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(ev);
            }
        }
    }

    /// A thread-local accumulator for `shard`. Always constructible and
    /// allocation-free; inactive (all calls are single branches) when the
    /// tracer is off.
    pub fn local(&self, shard: usize) -> LocalTrace {
        match &self.shared {
            None => LocalTrace::inactive(shard),
            Some(s) => LocalTrace {
                shard,
                active: true,
                events_on: s.level == TraceLevel::Full,
                epoch: s.epoch,
                counters: [0; NUM_COUNTERS],
                events: Vec::new(),
                cap: DEFAULT_RING_CAPACITY,
                dropped: 0,
            },
        }
    }

    /// Merge a [`LocalTrace`] back into the shared registry and rings.
    pub fn merge(&self, local: LocalTrace) {
        let Some(s) = &self.shared else { return };
        if !local.active {
            return;
        }
        for (i, &v) in local.counters.iter().enumerate() {
            if v > 0 {
                s.registry.shards[local.shard.min(s.registry.shards.len() - 1)].counters[i]
                    .fetch_add(v, Ordering::Relaxed);
            }
        }
        if local.events_on && (!local.events.is_empty() || local.dropped > 0) {
            let idx = local.shard.min(s.rings.len() - 1);
            let mut ring = s.rings[idx].lock().unwrap_or_else(PoisonError::into_inner);
            ring.dropped += local.dropped;
            for ev in local.events {
                ring.push(ev);
            }
        }
    }

    /// Merged counter/gauge snapshot (empty when off).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared
            .as_ref()
            .map_or_else(MetricsSnapshot::default, |s| s.registry.snapshot())
    }

    /// Copy of every shard's retained events, oldest first (empty when
    /// off or below `Full`).
    pub fn events(&self) -> Vec<Vec<TraceEvent>> {
        self.shared.as_ref().map_or_else(Vec::new, |s| {
            s.rings
                .iter()
                .map(|r| r.lock().unwrap_or_else(PoisonError::into_inner).to_vec())
                .collect()
        })
    }

    /// Drain every shard's ring, returning events oldest first.
    pub fn drain_events(&self) -> Vec<Vec<TraceEvent>> {
        self.shared.as_ref().map_or_else(Vec::new, |s| {
            s.rings
                .iter()
                .map(|r| r.lock().unwrap_or_else(PoisonError::into_inner).drain())
                .collect()
        })
    }

    /// Events overwritten per shard so far.
    pub fn dropped_events(&self) -> Vec<u64> {
        self.shared.as_ref().map_or_else(Vec::new, |s| {
            s.rings
                .iter()
                .map(|r| r.lock().unwrap_or_else(PoisonError::into_inner).dropped())
                .collect()
        })
    }

    // ------------------------------------------------------------ exporters

    /// Chrome/Perfetto `trace_event` JSON of the retained events.
    ///
    /// `TaskPop`/`TaskDone` pairs become complete (`"ph":"X"`) slices on
    /// the owning worker's track; everything else becomes an instant
    /// (`"ph":"i"`) event. Load the output at <https://ui.perfetto.dev> or
    /// `chrome://tracing`. Timestamps are microseconds since the tracer
    /// epoch.
    pub fn perfetto_json(&self) -> String {
        let shards = self.events();
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, s: String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(&s);
        };
        for (tid, _) in shards.iter().enumerate() {
            let name = if tid == 0 {
                "orchestrator".to_string()
            } else {
                format!("worker-{}", tid - 1)
            };
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"name\":\"{name}\"}}}}"
                ),
            );
        }
        let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
        for (tid, evs) in shards.iter().enumerate() {
            let mut open: Option<&TraceEvent> = None;
            for ev in evs {
                match ev.kind {
                    EventKind::TaskPop => open = Some(ev),
                    EventKind::TaskDone => {
                        // Pair with the most recent pop on this track; an
                        // unpaired done (ring overwrote its pop) degrades
                        // to an instant event.
                        if let Some(pop) = open.take() {
                            let dur = ev.ts_ns.saturating_sub(pop.ts_ns);
                            push(
                                &mut out,
                                format!(
                                    "{{\"name\":\"task\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                                     \"ts\":{},\"dur\":{},\"args\":{{\"order\":{},\"depth\":{},\
                                     \"nodes\":{},\"matches\":{}}}}}",
                                    us(pop.ts_ns),
                                    us(dur),
                                    pop.a,
                                    pop.b,
                                    ev.a,
                                    ev.b
                                ),
                            );
                        } else {
                            push(
                                &mut out,
                                format!(
                                    "{{\"name\":\"task_done\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                                     \"tid\":{tid},\"ts\":{},\"args\":{{\"nodes\":{}}}}}",
                                    us(ev.ts_ns),
                                    ev.a
                                ),
                            );
                        }
                    }
                    _ => {
                        let name = match ev.kind {
                            EventKind::SeedExpand => "seed_expand",
                            EventKind::Split => "split",
                            EventKind::StealRetry => "steal_retry",
                            EventKind::DeadlineFired => "deadline",
                            EventKind::Classify => "classify",
                            EventKind::AdsDelta => "ads_delta",
                            EventKind::UpdateDone => "update",
                            EventKind::TaskPop | EventKind::TaskDone => unreachable!(),
                        };
                        push(
                            &mut out,
                            format!(
                                "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                                 \"tid\":{tid},\"ts\":{},\"args\":{{\"a\":{},\"b\":{}}}}}",
                                us(ev.ts_ns),
                                ev.a,
                                ev.b
                            ),
                        );
                    }
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Prometheus text-format snapshot of the registry: per-shard samples
    /// with a `shard` label plus a pre-summed `..._total` aggregate.
    pub fn prometheus_text(&self) -> String {
        let snap = self.metrics();
        let mut out = String::new();
        for (i, name) in COUNTER_NAMES.iter().enumerate() {
            let c = counter_from_index(i);
            out.push_str(&format!("# TYPE paracosm_{name} counter\n"));
            for (shard, vals) in snap.per_shard.iter().enumerate() {
                let label = if shard == 0 {
                    "main".to_string()
                } else {
                    format!("w{}", shard - 1)
                };
                out.push_str(&format!(
                    "paracosm_{name}{{shard=\"{label}\"}} {}\n",
                    vals[i]
                ));
            }
            out.push_str(&format!("paracosm_{name}_total {}\n", snap.total(c)));
        }
        for (i, name) in GAUGE_NAMES.iter().enumerate() {
            out.push_str(&format!(
                "# TYPE paracosm_{name} gauge\nparacosm_{name} {}\n",
                snap.gauges[i]
            ));
        }
        out
    }
}

fn counter_from_index(i: usize) -> Counter {
    use Counter::*;
    const ALL: [Counter; NUM_COUNTERS] = [
        Updates,
        SeedExpansions,
        TasksPopped,
        TasksCompleted,
        TasksSplit,
        StealRetries,
        DeadlineFires,
        Nodes,
        MatchesPos,
        MatchesNeg,
        ClassLabelSafe,
        ClassDegreeSafe,
        ClassAdsSafe,
        ClassUnsafe,
        ClassNoop,
        AdsChanged,
        BulkFlushes,
        SharedHit,
        SharedMiss,
    ];
    ALL[i]
}

/// Thread-local telemetry accumulator: plain integers and a bounded local
/// event buffer, merged into the shared [`Tracer`] once per executor run.
/// All methods are single-branch no-ops when inactive.
pub struct LocalTrace {
    shard: usize,
    active: bool,
    events_on: bool,
    epoch: Instant,
    counters: [u64; NUM_COUNTERS],
    events: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl LocalTrace {
    fn inactive(shard: usize) -> LocalTrace {
        LocalTrace {
            shard,
            active: false,
            events_on: false,
            epoch: Instant::now(),
            counters: [0; NUM_COUNTERS],
            events: Vec::new(),
            cap: 0,
            dropped: 0,
        }
    }

    /// Is event recording on for this accumulator?
    #[inline]
    pub fn events_on(&self) -> bool {
        self.events_on
    }

    /// Add `n` to a local counter.
    #[inline]
    pub fn count(&mut self, c: Counter, n: u64) {
        if self.active {
            self.counters[c as usize] += n;
        }
    }

    /// Nanoseconds since the tracer epoch (0 when inactive).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        if self.events_on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Record one event with the current timestamp.
    #[inline]
    pub fn event(&mut self, kind: EventKind, a: u64, b: u64) {
        if self.events_on {
            let ts_ns = self.epoch.elapsed().as_nanos() as u64;
            self.event_at(ts_ns, kind, a, b);
        }
    }

    /// Record one event with an explicit timestamp (for spans measured
    /// around a region).
    #[inline]
    pub fn event_at(&mut self, ts_ns: u64, kind: EventKind, a: u64, b: u64) {
        if self.events_on {
            if self.events.len() >= self.cap {
                // Local buffers drop-newest; the shared ring's
                // overwrite-oldest semantics apply after merge.
                self.dropped += 1;
                return;
            }
            self.events.push(TraceEvent { ts_ns, kind, a, b });
        }
    }
}

// ---------------------------------------------------------------- observer

/// Per-update observation delivered to a [`StreamObserver`].
#[derive(Clone, Copy, Debug)]
pub struct UpdateObservation {
    /// Zero-based position in the stream.
    pub index: u64,
    /// Classifier verdict (`None` outside the batch executor, where no
    /// classification happens).
    pub verdict: Option<Classified>,
    /// The update was a structural no-op.
    pub noop: bool,
    /// End-to-end latency of this update. Zero for label-safe updates the
    /// batch executor classified and bulk-applied (their cost is shared
    /// across the whole flush and reported in `RunStats::bulk_time`).
    pub latency: Duration,
    /// Positive matches this update produced.
    pub positives: u64,
    /// Negative matches this update produced.
    pub negatives: u64,
    /// Enumeration was skipped by the serving layer's degradation ladder
    /// (the session's time budget was exhausted); ΔM for this update is
    /// unknown, not zero. Always `false` for standalone `ParaCosm` runs.
    pub skipped: bool,
    /// Flight-recorder causal span of this update
    /// ([`flight::SpanId::NONE`] outside the serving layer, which is the
    /// only place spans are minted today).
    pub span: flight::SpanId,
}

impl UpdateObservation {
    /// Size of the incremental result ΔM (positives + negatives).
    pub fn delta_m(&self) -> u64 {
        self.positives + self.negatives
    }
}

/// Callback hook for [`crate::ParaCosm::run_stream`] (and per-session ΔM
/// delivery in the `csm-service` serving layer): invoked once per stream
/// update, in stream order, on the orchestrator thread.
pub trait StreamObserver {
    /// One update was processed.
    fn on_update(&mut self, obs: &UpdateObservation);
}

/// The do-nothing observer.
pub struct NoopObserver;

impl StreamObserver for NoopObserver {
    fn on_update(&mut self, _: &UpdateObservation) {}
}

// --------------------------------------------------------------- RunReport

/// Serving-layer dimensions attached to a per-session [`RunReport`]: which
/// standing query produced it and how the session's time-budget
/// degradation ladder behaved. `None` on standalone `ParaCosm` reports.
#[derive(Clone, Debug, Default)]
pub struct SessionDims {
    /// Session id within the service.
    pub session_id: u64,
    /// Human-readable session label (query name / tenant).
    pub label: String,
    /// Updates whose `Find_Matches` overran the session's per-update
    /// budget.
    pub budget_overruns: u64,
    /// Updates enumerated count-only (first rung of the degradation
    /// ladder).
    pub degraded: u64,
    /// Updates skipped outright (second rung); ΔM for these is unknown.
    pub skipped: u64,
    /// Updates whose ΔM was absorbed from the service's shared index
    /// (another same-group session enumerated it first).
    pub shared_reuses: u64,
}

/// Machine-readable summary of one run: `RunStats` + latency-histogram
/// buckets + classifier verdicts + per-worker counters, rendered as JSON
/// by [`RunReport::to_json`]. Emitted by `repro observe --report-json`,
/// `paracosm-cli --report-json`, and buildable from any engine via
/// [`crate::ParaCosm::run_report`].
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Hosted algorithm name.
    pub algo: String,
    /// Configured worker threads.
    pub threads: usize,
    /// Stream outcome (when the report follows a `process_stream` run).
    pub outcome: Option<crate::framework::StreamOutcome>,
    /// Engine statistics.
    pub stats: RunStats,
    /// Registry snapshot.
    pub metrics: MetricsSnapshot,
    /// Events overwritten per shard (ring saturation indicator).
    pub dropped_events: Vec<u64>,
    /// Serving-layer session dimensions (`None` for standalone runs).
    pub session: Option<SessionDims>,
    /// Per-query-edge profiler aggregate (`None` when profiling is off).
    pub profile: Option<profile::cold::QueryProfile>,
}

/// Escape `s` for embedding inside a JSON string literal (quotes,
/// backslashes and control characters; the surrounding quotes are the
/// caller's). Shared by every hand-rolled JSON emitter in the workspace
/// crates.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn ns(d: Duration) -> u128 {
    d.as_nanos()
}

impl RunReport {
    /// Serialize to a self-contained JSON object. Every duration is in
    /// nanoseconds; the schema is documented in DESIGN.md §3.7.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{");
        o.push_str("\"schema_version\":1");
        o.push_str(&format!(",\"algo\":\"{}\"", json_escape(&self.algo)));
        o.push_str(&format!(",\"threads\":{}", self.threads));

        if let Some(sess) = &self.session {
            o.push_str(&format!(
                ",\"session\":{{\"id\":{},\"label\":\"{}\",\"budget_overruns\":{},\
                 \"degraded\":{},\"skipped\":{},\"shared_reuses\":{}}}",
                sess.session_id,
                json_escape(&sess.label),
                sess.budget_overruns,
                sess.degraded,
                sess.skipped,
                sess.shared_reuses
            ));
        }

        if let Some(out) = &self.outcome {
            o.push_str(&format!(
                ",\"outcome\":{{\"positives\":{},\"negatives\":{},\"updates_applied\":{},\
                 \"timed_out\":{},\"elapsed_ns\":{}}}",
                out.positives,
                out.negatives,
                out.updates_applied,
                out.timed_out,
                ns(out.elapsed)
            ));
        } else {
            o.push_str(",\"outcome\":null");
        }

        let s = &self.stats;
        o.push_str(&format!(
            ",\"stats\":{{\"updates\":{},\"positives\":{},\"negatives\":{},\"nodes\":{},\
             \"ads_ns\":{},\"find_ns\":{},\"find_span_ns\":{},\"apply_ns\":{},\"bulk_ns\":{},\
             \"tasks_executed\":{},\"tasks_split\":{},\"timed_out\":{},\
             \"thread_busy_ns\":[{}]}}",
            s.updates,
            s.positives,
            s.negatives,
            s.nodes,
            ns(s.ads_time),
            ns(s.find_time),
            ns(s.find_span),
            ns(s.apply_time),
            ns(s.bulk_time),
            s.tasks_executed,
            s.tasks_split,
            s.timed_out,
            s.thread_busy
                .iter()
                .map(|d| ns(*d).to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));

        let c = &s.classifier;
        o.push_str(&format!(
            ",\"classifier\":{{\"total\":{},\"safe_label\":{},\"safe_degree\":{},\
             \"safe_ads\":{},\"unsafe\":{},\"noops\":{}}}",
            c.total, c.safe_label, c.safe_degree, c.safe_ads, c.unsafe_count, c.noops
        ));

        let h = &s.latency;
        o.push_str(&format!(
            ",\"latency\":{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\
             \"p99_ns\":{},\"max_ns\":{},\"buckets\":[{}]}}",
            h.count(),
            ns(h.mean()),
            ns(h.percentile(50.0)),
            ns(h.percentile(90.0)),
            ns(h.percentile(99.0)),
            ns(h.max()),
            h.nonzero_buckets()
                .map(|(ub, n)| format!("[{ub},{n}]"))
                .collect::<Vec<_>>()
                .join(",")
        ));

        o.push_str(",\"slowest\":[");
        for (i, su) in s.slowest.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!(
                "{{\"index\":{},\"update\":\"{}\",\"latency_ns\":{},\"ads_ns\":{},\
                 \"apply_ns\":{},\"find_ns\":{},\"nodes\":{},\"span\":{}}}",
                su.index,
                json_escape(&su.describe()),
                ns(su.latency),
                ns(su.ads),
                ns(su.apply),
                ns(su.find),
                su.nodes,
                su.span.0
            ));
        }
        o.push(']');

        o.push_str(",\"metrics\":{\"counters\":{");
        for (i, name) in COUNTER_NAMES.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!(
                "\"{name}\":{}",
                self.metrics.total(counter_from_index(i))
            ));
        }
        o.push_str("},\"gauges\":{");
        for (i, name) in GAUGE_NAMES.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!("\"{name}\":{}", self.metrics.gauges[i]));
        }
        o.push_str("},\"per_shard\":[");
        for (i, shard) in self.metrics.per_shard.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!(
                "[{}]",
                shard
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
        o.push_str(&format!(
            "],\"dropped_events\":[{}]}}",
            self.dropped_events
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
        match &self.profile {
            Some(p) => {
                o.push_str(",\"profile\":");
                o.push_str(&p.to_json());
            }
            None => o.push_str(",\"profile\":null"),
        }
        o.push('}');
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_is_inert() {
        let t = Tracer::off();
        assert!(!t.enabled());
        assert!(!t.events_enabled());
        t.count(0, Counter::Nodes, 5);
        t.event(0, EventKind::TaskPop, 1, 2);
        assert!(t.metrics().per_shard.is_empty());
        assert!(t.events().is_empty());
        let mut l = t.local(3);
        l.count(Counter::Nodes, 7);
        l.event(EventKind::Split, 0, 0);
        t.merge(l);
        assert!(t.metrics().per_shard.is_empty());
    }

    #[test]
    fn counters_level_records_no_events() {
        let t = Tracer::new(TraceLevel::Counters, 2);
        t.count(1, Counter::TasksPopped, 3);
        t.event(1, EventKind::TaskPop, 0, 0);
        let snap = t.metrics();
        assert_eq!(snap.total(Counter::TasksPopped), 3);
        assert_eq!(snap.shard(1, Counter::TasksPopped), 3);
        assert!(t.events().iter().all(|s| s.is_empty()));
    }

    #[test]
    fn shards_merge_on_snapshot() {
        let t = Tracer::new(TraceLevel::Counters, 3);
        for shard in 0..4 {
            t.count(shard, Counter::Nodes, 10 + shard as u64);
        }
        let snap = t.metrics();
        assert_eq!(snap.per_shard.len(), 4);
        assert_eq!(snap.total(Counter::Nodes), 10 + 11 + 12 + 13);
        // Out-of-range shards clamp to the last one instead of panicking.
        t.count(99, Counter::Nodes, 1);
        assert_eq!(t.metrics().shard(3, Counter::Nodes), 14);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = EventRing::new(3);
        for i in 0..5u64 {
            r.push(TraceEvent {
                ts_ns: i,
                kind: EventKind::StealRetry,
                a: i,
                b: 0,
            });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let v = r.drain();
        assert_eq!(v.iter().map(|e| e.a).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert!(r.is_empty());
    }

    #[test]
    fn local_trace_merges_counters_and_events() {
        let t = Tracer::new(TraceLevel::Full, 2);
        let mut l = t.local(2);
        l.count(Counter::TasksCompleted, 4);
        l.event(EventKind::TaskPop, 7, 2);
        l.event(EventKind::TaskDone, 100, 1);
        t.merge(l);
        assert_eq!(t.metrics().shard(2, Counter::TasksCompleted), 4);
        let evs = t.events();
        assert_eq!(evs[2].len(), 2);
        assert_eq!(evs[2][0].kind, EventKind::TaskPop);
        assert!(evs[2][0].ts_ns <= evs[2][1].ts_ns);
    }

    #[test]
    fn perfetto_pairs_pop_done_into_slices() {
        let t = Tracer::new(TraceLevel::Full, 1);
        let mut l = t.local(1);
        l.event_at(1_000, EventKind::TaskPop, 3, 2);
        l.event_at(5_000, EventKind::TaskDone, 42, 6);
        l.event_at(6_000, EventKind::Split, 4, 3);
        t.merge(l);
        let json = t.perfetto_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":4.000"));
        assert!(json.contains("\"name\":\"split\""));
        assert!(json.contains("worker-0"));
        // Crude structural sanity: balanced braces/brackets.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn prometheus_text_lists_all_counters() {
        let t = Tracer::new(TraceLevel::Counters, 1);
        t.count(0, Counter::Updates, 2);
        t.count(1, Counter::TasksPopped, 5);
        let text = t.prometheus_text();
        for name in COUNTER_NAMES {
            assert!(text.contains(&format!("paracosm_{name}_total")), "{name}");
        }
        assert!(text.contains("paracosm_updates{shard=\"main\"} 2"));
        assert!(text.contains("paracosm_tasks_popped{shard=\"w0\"} 5"));
        assert!(text.contains("# TYPE paracosm_workers gauge"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
