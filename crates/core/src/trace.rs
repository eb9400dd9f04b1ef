//! Observability: the per-shard counter registry and the run report.
//!
//! The paper's evaluation (§5, Tables 3–4, Figs. 10/12) is an exercise in
//! *explaining* where time goes — ADS vs. `Find_Matches`, worker busy/idle
//! balance, classifier verdict mix. This module holds the engine's
//! end-of-run telemetry:
//!
//! * [`MetricsRegistry`] — named counters sharded per thread. Shard 0 is
//!   the orchestrator; shard `w + 1` is inner-executor worker `w` (the
//!   caller is worker 0). Each shard is cache-line-aligned and written
//!   with relaxed atomics, so writers never contend; shards are summed
//!   only on a [`Tracer::metrics`] snapshot.
//! * [`RunReport`] — a machine-readable JSON summary combining `RunStats`,
//!   latency-histogram buckets, classifier verdicts and the registry
//!   snapshot.
//!
//! Everything is gated on [`TraceLevel`]: at `Off` the [`Tracer`] holds no
//! allocation and every call is a single branch on an `Option` (verified
//! by the `trace_off_overhead` row in EXPERIMENTS.md); at `Counters` the
//! registry is live.
//!
//! Inner-executor workers never write the registry per event: they count
//! in plain fields of their own state and [`Tracer::fold`] the totals into
//! their shard once per executor run. Per-update events belong to the
//! [`flight`] recorder, the workspace's only event ring.

use crate::engine::RunStats;
use crate::inter::{Classified, SafeStage};
use csm_check::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub mod flight;
pub mod profile;
pub mod window;

/// How much telemetry the engine records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// No tracer is allocated; instrumentation sites reduce to one branch.
    #[default]
    Off,
    /// The sharded counter registry is live.
    Counters,
}

impl TraceLevel {
    /// Parse `off|counters` (CLI surface).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "counters" => Some(TraceLevel::Counters),
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

/// Sharded counter registry. Shard 0 is the orchestrator (main thread);
/// shard `w + 1` belongs to inner-executor worker `w`, so the caller
/// (worker 0) owns shard 1.
pub struct MetricsRegistry {
    shards: Vec<Shard>,
}

impl MetricsRegistry {
    /// A registry with `workers + 1` shards.
    pub fn new(workers: usize) -> MetricsRegistry {
        MetricsRegistry {
            shards: (0..workers + 1).map(|_| Shard::new()).collect(),
        }
    }

    /// Add `n` to a counter on one shard (relaxed; the owner is the only
    /// writer). Out-of-range shards clamp to the last one.
    #[inline]
    pub fn add(&self, shard: usize, c: Counter, n: u64) {
        let shard = shard.min(self.shards.len() - 1);
        self.shards[shard].counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Merge all shards into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            per_shard: self
                .shards
                .iter()
                .map(|s| std::array::from_fn(|i| s.counters[i].load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// A merged view of the registry at one instant.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values per shard (`[shard][Counter as usize]`).
    pub per_shard: Vec<[u64; NUM_COUNTERS]>,
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

/// The registry counter a classifier verdict increments.
pub fn verdict_counter(c: Classified) -> Counter {
    match c {
        Classified::Safe(SafeStage::Label) => Counter::ClassLabelSafe,
        Classified::Safe(SafeStage::Degree) => Counter::ClassDegreeSafe,
        Classified::Safe(SafeStage::Ads) => Counter::ClassAdsSafe,
        Classified::Unsafe => Counter::ClassUnsafe,
    }
}

/// Handle to one run's counter registry. Cheap to clone (an `Arc`); `Off`
/// holds nothing and reduces every call to a branch.
#[derive(Clone, Default)]
pub struct Tracer {
    registry: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// The disabled tracer: no allocation, every call a guard check.
    pub fn off() -> Tracer {
        Tracer { registry: None }
    }

    /// A tracer for `workers` inner-executor threads plus the orchestrator
    /// shard.
    pub fn new(level: TraceLevel, workers: usize) -> Tracer {
        Tracer {
            registry: (level == TraceLevel::Counters)
                .then(|| Arc::new(MetricsRegistry::new(workers))),
        }
    }

    /// Are counters live?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Increment a counter on `shard` (0 = orchestrator, `w + 1` =
    /// worker `w`).
    #[inline]
    pub fn count(&self, shard: usize, c: Counter, n: u64) {
        if let Some(r) = &self.registry {
            r.add(shard, c, n);
        }
    }

    /// Add one thread's per-run totals to its shard in a single pass — the
    /// inner executor's once-per-run fold. Zero entries are skipped.
    pub fn fold(&self, shard: usize, counts: &[(Counter, u64)]) {
        if let Some(r) = &self.registry {
            for &(c, n) in counts {
                if n > 0 {
                    r.add(shard, c, n);
                }
            }
        }
    }

    /// Merged counter snapshot (empty when off).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry
            .as_ref()
            .map_or_else(MetricsSnapshot::default, |r| r.snapshot())
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
    /// Registry snapshot (`None` when tracing is off).
    pub metrics: Option<MetricsSnapshot>,
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

        match &self.metrics {
            Some(m) => {
                o.push_str(",\"metrics\":{\"counters\":{");
                for (i, name) in COUNTER_NAMES.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    o.push_str(&format!("\"{name}\":{}", m.total(counter_from_index(i))));
                }
                o.push_str("},\"per_shard\":[");
                for (i, shard) in m.per_shard.iter().enumerate() {
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
                o.push_str("]}");
            }
            None => o.push_str(",\"metrics\":null"),
        }
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
        t.count(0, Counter::Nodes, 5);
        t.fold(3, &[(Counter::Nodes, 7)]);
        assert!(t.metrics().per_shard.is_empty());
    }

    #[test]
    fn level_parse_round_trips() {
        for level in [TraceLevel::Off, TraceLevel::Counters] {
            let name = format!("{level:?}").to_lowercase();
            assert_eq!(TraceLevel::parse(&name), Some(level));
            assert_eq!(
                Tracer::new(level, 1).enabled(),
                level == TraceLevel::Counters
            );
        }
        assert_eq!(TraceLevel::parse("full"), None);
        assert_eq!(TraceLevel::parse("on"), None);
    }

    /// At `Counters` the registry is the whole record: a report carries
    /// the per-shard counter grid and no event fields.
    #[test]
    fn counters_level_records_no_events() {
        let t = Tracer::new(TraceLevel::Counters, 1);
        t.count(0, Counter::Updates, 2);
        t.fold(1, &[(Counter::TasksPopped, 3)]);
        let report = RunReport {
            algo: "plain".to_string(),
            threads: 1,
            outcome: None,
            stats: RunStats::default(),
            metrics: t.enabled().then(|| t.metrics()),
            session: None,
            profile: None,
        }
        .to_json();
        assert!(report.contains("\"metrics\":{\"counters\":{\"updates\":2,"));
        assert!(report.contains("\"tasks_popped\":3,"));
        let shard1 = format!("[0,0,3{}]", ",0".repeat(NUM_COUNTERS - 3));
        assert!(report.contains(&shard1), "{report}");
        for gone in ["dropped_events", "gauges", "traceEvents"] {
            assert!(!report.contains(gone), "{gone}: {report}");
        }
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
    fn fold_adds_counts_to_one_shard() {
        let t = Tracer::new(TraceLevel::Counters, 2);
        t.fold(
            2,
            &[(Counter::TasksCompleted, 4), (Counter::StealRetries, 0)],
        );
        t.fold(2, &[(Counter::TasksCompleted, 1)]);
        let snap = t.metrics();
        assert_eq!(snap.shard(2, Counter::TasksCompleted), 5);
        assert_eq!(snap.total(Counter::TasksCompleted), 5);
        assert_eq!(snap.total(Counter::StealRetries), 0);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
